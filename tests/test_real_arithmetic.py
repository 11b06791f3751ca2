"""hrsp computes in real arithmetic from |Psi> to the fidelity: the states,
the channel's pair terms and the curve stacks are float64, the branch store
holds integers, and the correction search, the row verdicts and the table
report are integers and floats, without numpy. Every gate product steps with
iY in place of Y, equal to Y up to a global phase, and counts its Y tokens;
only the Y tokens, which no published table uses, are complex, and only the
tests' numpy reference (dense_oracle.TOKENS) forms them."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

from hrsp import exact, linalg, noise, pipeline, protocol, states
from hrsp.states import TargetSpec

from dense_oracle import (IDENTITY_STACK, TOKENS, basis_ket, branch_amplitudes,
                          complex_correction_unitary, complex_verify_table,
                          hadamard_ket, pair_terms)

REAL = np.dtype(np.float64)
#: real targets of both signs, balanced and not
TARGETS = (TargetSpec(1 / np.sqrt(2), 1 / np.sqrt(2)), TargetSpec(0.6, 0.8),
           TargetSpec(-0.6, 0.8), TargetSpec(0.8, -0.6))


def test_states_are_real():
    spec = TARGETS[2]
    brown = states.brown_state()
    for array in (states.protocol_state(), brown,
                  states.extend_with_ancillas(brown), basis_ket("0110"),
                  hadamard_ket("+-"), states.target_state(spec),
                  *states.zeta_basis(spec).values()):
        assert array.dtype == REAL


@pytest.mark.parametrize("kind", noise.NOISE_KINDS)
@pytest.mark.parametrize("correlated", [True, False])
def test_branch_amplitudes_are_real(kind, correlated):
    # noiseless and through the channel's pair terms, every branch of every
    # receiver at once per target set
    ops = pair_terms(kind, correlated)[0]
    assert ops.dtype == REAL
    for receiver, branches in protocol.BRANCHES.items():
        for key in branches:
            for kraus in (IDENTITY_STACK, ops):
                w = branch_amplitudes(receiver, *key, TARGETS, kraus)
                assert w.dtype == REAL


@pytest.mark.parametrize("kind", noise.NOISE_KINDS)
@pytest.mark.parametrize("correlated", [True, False])
def test_branch_store_and_stacks_are_real(kind, correlated):
    # the one branch store, hrsp.exact's, holds integers; the stacks are its
    # rows' integer curves as float64
    assert pair_terms(kind, correlated)[0].dtype == REAL
    for receiver in ("bob", "david"):
        for key in protocol.BRANCHES[receiver]:
            scale, gram, amplitude = exact._branch(kind, correlated, receiver,
                                                   *key)
            values = [scale, *(value for _, value in gram),
                      *(value for a_m in amplitude for poly in a_m
                        for _, value in poly)]
            assert {type(value) for value in values} == {int}
    for table in pipeline._TABLES:
        stack, columns = pipeline._stack(kind, correlated, table)
        assert stack.dtype == REAL
        assert columns.dtype.kind == "u"


def test_kron_keeps_its_factors_dtype():
    assert linalg.kron(linalg.X, linalg.H, linalg.Z).dtype == REAL
    assert linalg.kron(basis_ket("0"), hadamard_ket("+-")).dtype == REAL
    for factors in ((linalg.Y, linalg.I2), (linalg.I2, linalg.X, linalg.Y)):
        out = linalg.kron(*factors)
        assert out.dtype == np.complex128 and out.imag.any()


def test_only_the_y_tokens_are_complex():
    complex_tokens = {name for name, m in TOKENS.items() if m.dtype != REAL}
    assert complex_tokens == {"Y1", "Y2"}
    for name in complex_tokens:
        assert TOKENS[name].dtype == np.complex128
    # so every published correction is a real matrix
    for rules in protocol.CORRECTION_TABLES.values():
        for rule in rules:
            assert complex_correction_unitary(rule.gates).dtype == REAL


def test_table_verification_is_real():
    # the row verdicts and the report, the derived rows with a Y included,
    # are integer and float code: hrsp.protocol imports the standard library
    # and hrsp.exact alone, so no numpy array, complex or real, enters them
    tree = ast.parse(Path(protocol.__file__).read_text())
    modules = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    modules |= {"." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert modules - set(sys.stdlib_module_names) == {".exact"}, modules
    verdicts = [rv for table in protocol.CORRECTION_TABLES
                for rv in protocol.verify_table(table)]
    assert {type(value) for rv in verdicts
            for value in (*rv.published_fidelities, rv.matrix_distance)} == {float}


def test_verdicts_equal_complex_reference():
    # every field of every row, fidelities and matrix distance included: the
    # package's from integers, the reference's from complex products on
    # float branch vectors, so the floats agree to rounding and print alike
    for table in protocol.CORRECTION_TABLES:
        got, want = protocol.verify_table(table), complex_verify_table(table)
        assert [rv.line() for rv in got] == [rv.line() for rv in want]
        for a, b in zip(got, want, strict=True):
            assert (a._replace(published_fidelities=b.published_fidelities,
                               matrix_distance=b.matrix_distance) == b)
            assert np.max(np.abs(np.subtract(a.published_fidelities,
                                             b.published_fidelities))) < 1e-15
            assert abs(a.matrix_distance - b.matrix_distance) < 1e-15


def test_real_product_equals_complex_chain():
    # (-i)^k R / sqrt(2)^h is the product of the true tokens, to rounding,
    # for every published rule and every rule of the search, 27 of them
    # with a Y
    rules = [rule for rules in protocol.CORRECTION_TABLES.values()
             for rule in rules]
    rules += [protocol.oracle_find_correction(receiver, *key)
              for receiver, branches in protocol.BRANCHES.items()
              for key in branches]
    assert len(rules) == 40 + 72
    with_y = 0
    for rule in rules:
        r, h, k = exact.real_product(rule.gates)
        reference = complex_correction_unitary(rule.gates)
        assert (reference.dtype == np.complex128) == (k > 0)
        assert np.max(np.abs((-1j) ** k * np.array(r) / np.sqrt(2) ** h
                             - reference)) < 1e-15, rule.gate_string
        with_y += k > 0
    assert with_y == 27
