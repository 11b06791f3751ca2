import itertools
import re

import numpy as np
import pytest

from hrsp.linalg import kron
from hrsp.protocol import (CORRECTION_TABLES, derive_receiver_table,
                           oracle_find_correction)
from hrsp.states import (BOB_EXPANSION, IDENTITY_STACK, TargetSpec, basis_ket,
                         branch_amplitudes, brown_state, extend_with_ancillas,
                         protocol_state, target_state, verify_factorization,
                         zeta_basis)

from dense_oracle import (einsum_branch_amplitudes, kraus_operators,
                          party_kraus_stack)

INV_2RT2 = 1 / (2 * np.sqrt(2))


def bell_pair_brown():
    """Independent construction from the four Bell pairs."""
    psi_plus = (basis_ket("00") + basis_ket("11")) / np.sqrt(2)
    psi_minus = (basis_ket("00") - basis_ket("11")) / np.sqrt(2)
    phi_plus = (basis_ket("01") + basis_ket("10")) / np.sqrt(2)
    phi_minus = (basis_ket("01") - basis_ket("10")) / np.sqrt(2)
    return 0.5 * (kron(basis_ket("001"), phi_minus)
                  + kron(basis_ket("010"), psi_minus)
                  + kron(basis_ket("100"), phi_plus)
                  + kron(basis_ket("111"), psi_plus))


def cnot_matrix(n, control, target):
    dim = 2 ** n
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        bits = [(i >> (n - 1 - k)) & 1 for k in range(n)]
        if bits[control]:
            bits[target] ^= 1
        m[sum(b << (n - 1 - k) for k, b in enumerate(bits)), i] = 1.0
    return m


class TestBrownState:
    def test_amplitude_at_00101(self):
        assert np.isclose(brown_state()[int("00101", 2)], INV_2RT2)

    def test_absent_term_is_zero(self):
        assert brown_state()[0] == 0

    def test_equals_bell_pair_construction(self):
        assert np.max(np.abs(brown_state() - bell_pair_brown())) < 1e-14

    def test_normalized_with_eight_terms(self):
        psi = brown_state()
        assert np.isclose(np.linalg.norm(psi), 1.0, atol=1e-14)
        nz = np.abs(psi) > 0
        assert nz.sum() == 8
        # magnitudes all 1/(2 sqrt 2); two carry a minus sign
        assert np.allclose(np.abs(psi[nz]), INV_2RT2)
        assert np.isclose(psi[int("00110", 2)], -INV_2RT2)
        assert np.isclose(psi[int("01011", 2)], -INV_2RT2)


class TestExtension:
    def test_amplitudes_from_listing(self):
        psi = protocol_state()
        assert np.isclose(psi[int("0010101", 2)], INV_2RT2)
        assert np.isclose(psi[int("0100000", 2)], INV_2RT2)

    def test_matches_explicit_cnot_circuit(self):
        # independent route: full CNOT matrices on brown (x) |00>
        raw = kron(brown_state(), basis_ket("00"))
        want = cnot_matrix(7, 4, 6) @ cnot_matrix(7, 3, 5) @ raw
        assert np.max(np.abs(extend_with_ancillas(brown_state()) - want)) < 1e-14

    def test_norm_and_term_count(self):
        psi = protocol_state()
        assert np.isclose(np.linalg.norm(psi), 1.0, atol=1e-14)
        nz = np.abs(psi) > 0
        assert nz.sum() == 8
        assert np.allclose(np.abs(psi[nz]), INV_2RT2)

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            extend_with_ancillas(np.ones(16, dtype=complex))

    def test_cached_state_is_read_only(self):
        # every caller shares one array
        assert protocol_state() is protocol_state()
        with pytest.raises(ValueError, match="read-only"):
            protocol_state()[0] = 1.0


class TestTargetState:
    def test_basis_case(self):
        assert np.allclose(target_state(TargetSpec(1, 0)), [1, 0, 0, 0])

    def test_balanced_case(self):
        got = target_state(TargetSpec(1 / np.sqrt(2), 1 / np.sqrt(2)))
        assert np.allclose(got, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])
        rho0 = np.outer(got, got.conj())
        want = 0.5 * np.array([[1, 0, 0, 1], [0, 0, 0, 0],
                               [0, 0, 0, 0], [1, 0, 0, 1]])
        assert np.allclose(rho0, want)

    def test_direct_construction(self):
        assert np.allclose(target_state(TargetSpec(0.6, 0.8)), [0.6, 0, 0, 0.8])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            TargetSpec(2.0, 0.0)

    @pytest.mark.parametrize("alpha,beta", [(0.6, 0.8j), (0.6j, 0.8),
                                            (np.complex128(0.6 + 1e-9j), 0.8)])
    def test_rejects_complex_amplitudes(self, alpha, beta):
        # normalized, but the zeta basis would not be orthonormal
        with pytest.raises(ValueError, match="not real"):
            TargetSpec(alpha, beta)

    @pytest.mark.parametrize("alpha,beta", [
        (float("nan"), 1.0), (1.0, float("nan")), (float("nan"), float("nan")),
        (float("inf"), 0.0), (0.0, float("-inf")), (np.float64("nan"), 1.0)])
    def test_rejects_non_finite_amplitudes(self, alpha, beta):
        # a NaN passes the norm check, which compares unequal to everything
        with pytest.raises(ValueError, match="not finite"):
            TargetSpec(alpha, beta)

    def test_stores_real_floats(self):
        spec = TargetSpec(0.6 + 0j, np.float64(0.8))
        assert (spec.alpha, spec.beta) == (0.6, 0.8)
        assert type(spec.alpha) is float and type(spec.beta) is float


class TestZetaBasis:
    def test_orthonormal_for_random_real_parameters(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = rng.uniform(-1, 1)
            b = np.sqrt(1 - a * a) * rng.choice([-1.0, 1.0])
            zb = zeta_basis(TargetSpec(a, b))
            assert np.isclose(np.linalg.norm(zb["zeta1"]), 1.0, atol=1e-12)
            assert np.isclose(np.linalg.norm(zb["zeta2"]), 1.0, atol=1e-12)
            assert abs(np.vdot(zb["zeta1"], zb["zeta2"])) < 1e-12

    @pytest.mark.parametrize("receiver,collab", [("bob", ("01",)),
                                                 ("david", ("++", "++"))])
    def test_branch_rejects_unknown_sender_outcome(self, receiver, collab):
        with pytest.raises(ValueError, match="unknown sender outcome"):
            branch_amplitudes(receiver, "zeta3", collab, TargetSpec(0.6, 0.8))

    @pytest.mark.parametrize("receiver,collab", [
        ("bob", ("011",)), ("bob", ("01", "01")), ("bob", "01"),
        ("david", ("+x", "++")), ("david", ("++", "++", "++")),
        ("charlie", ("++",)), ("charlie", ("01", "++"))])
    def test_branch_rejects_bad_collaborator_labels(self, receiver, collab):
        # these failed deep in the contraction, with errors that did not
        # name the labels
        match = re.escape(f"{receiver} expects") + ".*" + re.escape(repr(collab))
        with pytest.raises(ValueError, match=match):
            branch_amplitudes(receiver, "zeta1", collab, TargetSpec(0.6, 0.8))
        with pytest.raises(ValueError, match=match):
            oracle_find_correction(receiver, "zeta1", collab)


class TestFactorization:
    def test_collaborator_labels_match_in_every_sender_branch(self):
        for lines in BOB_EXPANSION.values():
            for _, _, c_label, d_label in lines:
                assert c_label == d_label

    @pytest.mark.parametrize("alpha,beta",
                             [(1 / np.sqrt(2), 1 / np.sqrt(2)), (0.6, 0.8)])
    def test_bob_variant_reassembles_exactly(self, alpha, beta):
        report = verify_factorization("bob", TargetSpec(alpha, beta))
        assert report.residual < 1e-12
        assert not report.mismatched_lines

    def test_david_variant_residual_localized(self):
        # the receiver-side expansion carries three misprinted lines; the
        # residuals below were frozen from an independent reassembly
        report = verify_factorization("david", TargetSpec(1 / np.sqrt(2),
                                                          1 / np.sqrt(2)))
        assert np.isclose(report.residual, 0.066291260736, atol=1e-9)
        bad = {(l.sender_outcome, l.outcome_labels)
               for l in report.mismatched_lines}
        assert bad == {("zeta1", ("-+", "++")),
                       ("zeta1", ("+-", "+-")),
                       ("zeta2", ("++", "-+"))}

    def test_david_variant_second_point(self):
        report = verify_factorization("david", TargetSpec(0.6, 0.8))
        assert np.isclose(report.residual, 0.070710678119, atol=1e-9)
        assert len(report.mismatched_lines) == 3

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            verify_factorization("charlie", TargetSpec(1, 0))


class TestBranchAmplitudes:
    @pytest.mark.parametrize("kind", ["ad", "pd"])
    @pytest.mark.parametrize("correlated", [True, False])
    def test_matches_einsum_reference(self, kind, correlated):
        # the kernel takes one (n, 4, 4) stack: one call per eta, against
        # the reference's contraction of all of them at once
        etas = [0.0, 0.25, 0.6, 1 - 1e-9, 1.0]
        stacks = party_kraus_stack(kraus_operators(kind, etas), correlated)
        rules = [r for rows in CORRECTION_TABLES.values() for r in rows]
        rules += derive_receiver_table("charlie")
        for i, rule in enumerate(rules):
            theta = 0.37 * i
            spec = TargetSpec(np.cos(theta), np.sin(theta))
            branch = (rule.receiver, rule.sender_outcome,
                      rule.collaborator_outcomes, spec)
            want = einsum_branch_amplitudes(*branch, stacks)
            noiseless = einsum_branch_amplitudes(*branch, IDENTITY_STACK)
            pairs = [(branch_amplitudes(*branch, stack), ref)
                     for stack, ref in zip(stacks, want)]
            for got, ref in pairs + [(branch_amplitudes(*branch), noiseless)]:
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) < 1e-15

    @pytest.mark.parametrize("kind", ["ad", "pd"])
    @pytest.mark.parametrize("correlated", [True, False])
    def test_target_sequence_adds_a_leading_axis(self, kind, correlated):
        # W is linear in (alpha, beta): the curves are built at (1, 0), (0, 1)
        stacks = party_kraus_stack(kraus_operators(kind, [0.0, 0.45]), correlated)
        units = (TargetSpec(1.0, 0.0), TargetSpec(0.0, 1.0))
        spec = TargetSpec(0.28, -0.96)
        rules = [r for rows in CORRECTION_TABLES.values() for r in rows]
        for rule, stack in itertools.product(
                rules + list(derive_receiver_table("charlie")), stacks):
            branch = (rule.receiver, rule.sender_outcome,
                      rule.collaborator_outcomes)
            both = branch_amplitudes(*branch, units, stack)
            assert both.shape == (2, *branch_amplitudes(*branch, spec, stack).shape)
            for unit, got in zip(units, both):
                assert np.array_equal(got, branch_amplitudes(*branch, unit, stack))
            assert np.max(np.abs(0.28 * both[0] - 0.96 * both[1]
                                 - branch_amplitudes(*branch, spec, stack))) < 1e-16

    @pytest.mark.parametrize("stack", [
        # pair operators at two etas, and one eta's single-qubit operators
        party_kraus_stack(kraus_operators("ad", [0.0, 0.5])),
        kraus_operators("ad", [0.5])[0]], ids=["eta-axis", "single-qubit"])
    def test_rejects_a_stack_not_shaped_n_4_4(self, stack):
        with pytest.raises(ValueError,
                           match=re.escape(f"got shape {stack.shape}")):
            branch_amplitudes("bob", "zeta1", ("01",), TargetSpec(0.6, 0.8),
                              stack)
