"""hrsp computes in real arithmetic from |Psi> to the fidelity: the states,
the channel's pair terms, the branch store, the curve stacks, the correction
search, the row verdicts and the table report are float64, and only the Y
gate tokens, which no published table uses, are complex. Every gate product
steps with iY in their place, equal to Y up to a global phase, and counts
its Y tokens."""

import numpy as np
import pytest

from hrsp import linalg, noise, pipeline, protocol, states
from hrsp.states import IDENTITY_STACK, TargetSpec

from dense_oracle import complex_correction_unitary, complex_verify_table

REAL = np.dtype(np.float64)
#: real targets of both signs, balanced and not
TARGETS = (TargetSpec(1 / np.sqrt(2), 1 / np.sqrt(2)), TargetSpec(0.6, 0.8),
           TargetSpec(-0.6, 0.8), TargetSpec(0.8, -0.6))


def test_states_are_real():
    spec = TARGETS[2]
    brown = states.brown_state()
    for array in (states.protocol_state(), brown,
                  states.extend_with_ancillas(brown), states.basis_ket("0110"),
                  states.hadamard_ket("+-"), states.target_state(spec),
                  *states.zeta_basis(spec).values()):
        assert array.dtype == REAL


@pytest.mark.parametrize("kind", noise.NOISE_KINDS)
@pytest.mark.parametrize("correlated", [True, False])
def test_branch_amplitudes_are_real(kind, correlated):
    # noiseless and through the channel's pair terms, every branch of every
    # receiver at once per target set
    ops = noise.pair_terms(kind, correlated)[0]
    assert ops.dtype == REAL
    for receiver, branches in protocol.BRANCHES.items():
        for key in branches:
            for kraus in (IDENTITY_STACK, ops):
                w = states.branch_amplitudes(receiver, *key, TARGETS, kraus)
                assert w.dtype == REAL


@pytest.mark.parametrize("kind", noise.NOISE_KINDS)
@pytest.mark.parametrize("correlated", [True, False])
def test_branch_store_and_stacks_are_real(kind, correlated):
    ops, trace, reached, span, pairs, free = pipeline._channel(kind, correlated)
    assert ops.dtype == trace.dtype == REAL
    for receiver in ("bob", "david"):
        for key in protocol.BRANCHES[receiver]:
            amplitude, gram, coordinates = pipeline._branch(
                kind, correlated, receiver, *key)
            assert amplitude.dtype == gram.dtype == REAL
            assert coordinates.dtype.kind == "u"
    for table in pipeline._TABLES:
        stack, columns = pipeline._stack(kind, correlated, table)
        assert stack.dtype == REAL
        assert columns.dtype.kind == "u"


def test_kron_keeps_its_factors_dtype():
    assert linalg.kron(linalg.X, linalg.H, linalg.Z).dtype == REAL
    assert linalg.kron(states.KET0, states.PLUS).dtype == REAL
    for factors in ((linalg.Y, linalg.I2), (linalg.I2, linalg.X, linalg.Y)):
        out = linalg.kron(*factors)
        assert out.dtype == np.complex128 and out.imag.any()


def test_only_the_y_tokens_are_complex():
    complex_tokens = {name for name, m in protocol.TOKENS.items()
                      if m.dtype != REAL}
    assert complex_tokens == {"Y1", "Y2"}
    for name in complex_tokens:
        assert protocol.TOKENS[name].dtype == np.complex128
    # so every published correction is a real matrix
    for rules in protocol.CORRECTION_TABLES.values():
        for rule in rules:
            assert rule.unitary().dtype == REAL


def test_the_oracle_search_is_real():
    # iY stands in for Y1/Y2, so every candidate, probe and overlap is real
    assert protocol._ORACLE_STEP.dtype == REAL


def test_table_verification_is_real(monkeypatch):
    # the row verdicts and the report, the derived rows with a Y included,
    # come out the same with the complex Y tokens made unreadable
    def run():
        verdicts = {table: protocol.verify_table(table)
                    for table in protocol.CORRECTION_TABLES}
        return verdicts, protocol.format_table_report(verdicts)

    expected = run()
    poison = np.full((4, 4), np.nan, dtype=np.complex128)
    poison.setflags(write=False)
    for name in ("Y1", "Y2"):
        monkeypatch.setitem(protocol.TOKENS, name, poison)
    protocol.oracle_find_correction.cache_clear()
    protocol.branch_vector.cache_clear()
    assert run() == expected


def test_verdicts_equal_complex_reference():
    # every field of every row, fidelities and matrix distance included
    for table in protocol.CORRECTION_TABLES:
        assert protocol.verify_table(table) == complex_verify_table(table)


def test_correction_unitary_equals_complex_chain():
    # (-i)^k R is the product of the true tokens, entry by entry, for every
    # published rule and every rule of the search, 27 of them with a Y
    rules = [rule for rules in protocol.CORRECTION_TABLES.values()
             for rule in rules]
    rules += [protocol.oracle_find_correction(receiver, *key)
              for receiver, branches in protocol.BRANCHES.items()
              for key in branches]
    assert len(rules) == 40 + 72
    with_y = 0
    for rule in rules:
        u = protocol.correction_unitary(rule.gates)
        reference = complex_correction_unitary(rule.gates)
        assert u.dtype == reference.dtype
        assert np.array_equal(u, reference), rule.gate_string
        with_y += u.dtype == np.complex128
    assert with_y == 27
