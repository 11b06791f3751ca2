import itertools

import numpy as np
import pytest

from hrsp.linalg import I2, kron
from hrsp.noise import (TraceDeficitWarning, amplitude_damping,
                        kraus_operators, kraus_set, party_kraus_stack,
                        phase_damping)
from hrsp.states import protocol_state

from dense_oracle import apply_channel, projector

ETA_GRID = [round(0.1 * i, 10) for i in range(11)]


def protocol_rho():
    return projector(protocol_state())


def brute_force_channel(rho, ops, correlated=True):
    """Independent oracle: explicit sum over the six receiver-qubit indices,
    both qubits of a receiver sharing one index when correlated."""
    out = np.zeros_like(rho)
    for idx in itertools.product(range(len(ops)), repeat=6):
        if correlated and idx[0::2] != idx[1::2]:
            continue
        a = kron(I2, *(ops[i] for i in idx))
        out += a @ rho @ a.conj().T
    return out


def random_mixed_state(seed, rank):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((128, rank)) + 1j * rng.standard_normal((128, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestKrausSets:
    def test_ad_eta_zero(self):
        ks = amplitude_damping(0.0)
        assert np.allclose(ks.operators[0], I2)
        assert np.allclose(ks.operators[1], 0)

    def test_ad_eta_one(self):
        k0, k1 = amplitude_damping(1.0).operators
        assert np.allclose(k0, np.diag([1.0, 0.0]))
        assert np.allclose(k1, [[0, 1], [0, 0]])

    def test_ad_eta_half(self):
        k0, k1 = amplitude_damping(0.5).operators
        assert np.allclose(k0, np.diag([1.0, 1 / np.sqrt(2)]))
        assert np.isclose(k1[0, 1], 1 / np.sqrt(2))

    def test_pd_eta_zero(self):
        e0, e1, e2 = phase_damping(0.0).operators
        assert np.allclose(e0, I2)
        assert np.allclose(e1, 0)
        assert np.allclose(e2, 0)

    def test_pd_eta_one(self):
        e0, e1, e2 = phase_damping(1.0).operators
        assert np.allclose(e0, 0)
        assert np.allclose(e1, np.diag([1.0, 0.0]))
        assert np.allclose(e2, np.diag([0.0, 1.0]))

    @pytest.mark.parametrize("kind", ["ad", "pd"])
    def test_completeness_on_grid(self, kind):
        for eta in ETA_GRID:
            assert kraus_set(kind, eta).completeness_defect() < 1e-12

    @pytest.mark.parametrize("kind", ["ad", "pd"])
    @pytest.mark.parametrize("eta", [-0.1, 1.1])
    def test_eta_out_of_range(self, kind, eta):
        with pytest.raises(ValueError):
            kraus_set(kind, eta)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            kraus_set("dp", 0.1)


def written_out_kraus(kind, eta):
    """The operators entry by entry, one eta at a time: the reference for the
    closed-form templates."""
    s, e = np.sqrt(1 - eta), np.sqrt(eta)
    if kind == "ad":
        ops = [[[1, 0], [0, s]], [[0, e], [0, 0]]]
    else:
        ops = [[[s, 0], [0, s]], [[e, 0], [0, 0]], [[0, 0], [0, e]]]
    return np.array(ops, dtype=complex)


class TestKrausOperators:
    GRID = [0.0, 1e-12, 0.1, 0.3, 1 / 3, 0.5, 0.7, 0.9, 0.99, 1 - 1e-12, 1.0]

    @pytest.mark.parametrize("kind", ["ad", "pd"])
    def test_equal_to_per_eta_sets(self, kind):
        ops = kraus_operators(kind, self.GRID)
        assert ops.shape == (len(self.GRID), 2 if kind == "ad" else 3, 2, 2)
        for eta, block in zip(self.GRID, ops):
            assert np.array_equal(block, np.stack(kraus_set(kind, eta).operators))
            assert np.array_equal(block, written_out_kraus(kind, eta))

    @pytest.mark.parametrize("kind", ["ad", "pd"])
    @pytest.mark.parametrize("correlated", [True, False])
    def test_party_stack_keeps_leading_axes(self, kind, correlated):
        stack = party_kraus_stack(kraus_operators(kind, self.GRID), correlated)
        for eta, block in zip(self.GRID, stack):
            assert np.array_equal(
                block, party_kraus_stack(kraus_set(kind, eta), correlated))

    @pytest.mark.parametrize("kind", ["ad", "pd"])
    @pytest.mark.parametrize("eta", [1.5, -0.1, float("nan")])
    def test_out_of_range_rejected(self, kind, eta):
        with pytest.raises(ValueError, match="must be in"):
            kraus_operators(kind, [0.5, eta])
        with pytest.raises(ValueError, match="must be in"):
            kraus_set(kind, eta)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown noise kind"):
            kraus_operators("dp", [0.1])


class TestCorrelatedChannel:
    @pytest.mark.parametrize("kind", ["ad", "pd"])
    def test_eta_zero_is_identity(self, kind):
        rho = protocol_rho()
        out = apply_channel(rho, kraus_set(kind, 0.0))
        assert np.max(np.abs(out - rho)) < 1e-14

    def test_ad_eta_one_trace_matches_oracle(self):
        rho = protocol_rho()
        out = apply_channel(rho, amplitude_damping(1.0))
        want = brute_force_channel(rho, amplitude_damping(1.0).operators)
        assert np.max(np.abs(out - want)) < 1e-12
        assert np.isclose(np.trace(out).real, 0.25)

    def test_pd_channel_matches_oracle(self):
        rho = protocol_rho()
        ops = phase_damping(0.4).operators
        out = apply_channel(rho, phase_damping(0.4))
        assert np.max(np.abs(out - brute_force_channel(rho, ops))) < 1e-12

    def test_pd_only_shrinks_coherences(self):
        rho = protocol_rho()
        out = apply_channel(rho, phase_damping(0.5))
        off = ~np.eye(128, dtype=bool)
        assert np.all(np.abs(out[off]) <= np.abs(rho[off]) + 1e-12)

    def test_pd_coherences_shrink_monotonically_on_grid(self):
        rho = protocol_rho()
        off = ~np.eye(128, dtype=bool)
        prev = np.abs(rho[off])
        for eta in ETA_GRID[1:]:
            cur = np.abs(apply_channel(rho, phase_damping(eta))[off])
            assert np.all(cur <= prev + 1e-12)
            prev = cur

    @pytest.mark.parametrize("kind", ["ad", "pd"])
    def test_output_hermitian_psd_trace_in_unit_interval(self, kind):
        rho = random_mixed_state(5, rank=6)
        for eta in (0.0, 0.3, 0.7, 1.0):
            out = apply_channel(rho, kraus_set(kind, eta))
            assert np.max(np.abs(out - out.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(out)[0] > -1e-10
            tr = np.trace(out).real
            assert 0.0 < tr <= 1.0 + 1e-12

    def test_trace_deficit_warns_once_category(self):
        with pytest.warns(TraceDeficitWarning):
            apply_channel(protocol_rho(), amplitude_damping(0.5))

    def test_uncorrelated_mode_is_trace_preserving(self):
        rho = protocol_rho()
        out = apply_channel(rho, amplitude_damping(0.7), correlated=False)
        assert np.isclose(np.trace(out).real, 1.0, atol=1e-12)

    def test_uncorrelated_ad_matches_oracle(self):
        rho = protocol_rho()
        out = apply_channel(rho, amplitude_damping(0.7), correlated=False)
        want = brute_force_channel(rho, amplitude_damping(0.7).operators,
                                   correlated=False)
        assert np.max(np.abs(out - want)) < 1e-12

    @pytest.mark.parametrize("kind,correlated",
                             [("ad", True), ("pd", True), ("ad", False)])
    def test_mixed_state_matches_oracle(self, kind, correlated):
        rho = random_mixed_state(7, rank=4)
        ks = kraus_set(kind, 0.3)
        out = apply_channel(rho, ks, correlated)
        want = brute_force_channel(rho, ks.operators, correlated)
        assert np.max(np.abs(out - want)) < 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_channel(np.eye(64, dtype=complex), amplitude_damping(0.1))
