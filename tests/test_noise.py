import itertools

import numpy as np
import pytest

from hrsp import pipeline
from hrsp.linalg import I2, kron
from hrsp.noise import TraceDeficitWarning, pair_terms
from hrsp.pipeline import PipelineConfig, receiver_state
from hrsp.states import TargetSpec, protocol_state

from dense_oracle import (apply_channel, channel_trace, kraus_operators,
                          party_kraus_stack, projector)

ETA_GRID = [round(0.1 * i, 10) for i in range(11)]
BALANCED = TargetSpec(1 / np.sqrt(2), 1 / np.sqrt(2))


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


def kraus(kind, eta):
    """The single-qubit operators at one eta, shape (n, 2, 2)."""
    return kraus_operators(kind, [eta])[0]


def completeness_defect(ops):
    """max |sum_i K_i^dag K_i - I|, zero for a valid channel."""
    return float(np.max(np.abs(np.einsum("kji,kjl->il", ops.conj(), ops) - I2)))


def random_mixed_state(seed, rank):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((128, rank)) + 1j * rng.standard_normal((128, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestKrausSets:
    """The oracle's written-out operators, and the eta range of a sweep."""

    def test_ad_eta_zero(self):
        k0, k1 = kraus("ad", 0.0)
        assert np.allclose(k0, I2)
        assert np.allclose(k1, 0)

    def test_ad_eta_one(self):
        k0, k1 = kraus("ad", 1.0)
        assert np.allclose(k0, np.diag([1.0, 0.0]))
        assert np.allclose(k1, [[0, 1], [0, 0]])

    def test_ad_eta_half(self):
        k0, k1 = kraus("ad", 0.5)
        assert np.allclose(k0, np.diag([1.0, 1 / np.sqrt(2)]))
        assert np.isclose(k1[0, 1], 1 / np.sqrt(2))

    def test_pd_eta_zero(self):
        e0, e1, e2 = kraus("pd", 0.0)
        assert np.allclose(e0, I2)
        assert np.allclose(e1, 0)
        assert np.allclose(e2, 0)

    def test_pd_eta_one(self):
        e0, e1, e2 = kraus("pd", 1.0)
        assert np.allclose(e0, 0)
        assert np.allclose(e1, np.diag([1.0, 0.0]))
        assert np.allclose(e2, np.diag([0.0, 1.0]))

    @pytest.mark.parametrize("kind", ["ad", "pd"])
    def test_completeness_on_grid(self, kind):
        for eta in ETA_GRID:
            assert completeness_defect(kraus(kind, eta)) < 1e-12

    @pytest.mark.parametrize("kind", ["ad", "pd"])
    @pytest.mark.parametrize("eta", [-0.1, 1.1])
    def test_eta_out_of_range(self, kind, eta):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            PipelineConfig(kind, "bob", "I", 1, BALANCED, (eta,))


class TestKrausOperators:
    """The oracle's stacks, and the eta range of receiver_state."""

    GRID = [0.0, 1e-12, 0.1, 0.3, 1 / 3, 0.5, 0.7, 0.9, 0.99, 1 - 1e-12, 1.0]

    @pytest.mark.parametrize("kind", ["ad", "pd"])
    @pytest.mark.parametrize("correlated", [True, False])
    def test_party_stack_keeps_leading_axes(self, kind, correlated):
        stack = party_kraus_stack(kraus_operators(kind, self.GRID), correlated)
        assert stack.shape[0] == len(self.GRID)
        for eta, block in zip(self.GRID, stack):
            assert np.array_equal(
                block, party_kraus_stack(kraus(kind, eta), correlated))

    @pytest.mark.parametrize("kind", ["ad", "pd"])
    @pytest.mark.parametrize("eta", [1.5, -0.1, float("nan")])
    def test_out_of_range_rejected(self, kind, eta):
        config = PipelineConfig(kind, "bob", "I", 1, BALANCED, (0.5,))
        with pytest.raises(ValueError, match="must be in"):
            receiver_state(config, eta)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown noise kind"):
            pair_terms("dp")


class TestPairTerms:
    """The receiver-pair stack as eta-free terms t^M s^d C, the package's only
    form of the channel, against the oracle's per-eta stacks."""

    @pytest.mark.parametrize("kind,correlated,count", [
        ("ad", True, 4), ("pd", True, 3), ("ad", False, 8), ("pd", False, 9)])
    def test_terms_sum_to_the_party_stack(self, kind, correlated, count):
        ops, kraus, power, degree = pair_terms(kind, correlated)
        assert len(ops) == count
        assert np.all(np.any(ops != 0, axis=(1, 2)))
        stacks = party_kraus_stack(kraus_operators(kind, TestKrausOperators.GRID),
                                   correlated)
        index = {k: i for i, k in enumerate(np.unique(kraus))}
        assert len(index) == stacks.shape[1]
        for eta, stack in zip(TestKrausOperators.GRID, stacks):
            t, s = np.sqrt(eta), np.sqrt(1 - eta)
            got = np.zeros_like(stack)
            for op, k, m, d in zip(ops, kraus, power, degree):
                got[index[k]] += t ** m * s ** d * op
            assert np.max(np.abs(got - stack)) < 1e-15

    @pytest.mark.parametrize("kind", ["ad", "pd"])
    @pytest.mark.parametrize("correlated", [True, False])
    def test_one_operator_survives_at_eta_zero(self, kind, correlated):
        # the sweeps square the t^0 amplitude of a single Kraus operator
        _, kraus, power, _ = pair_terms(kind, correlated)
        assert len(set(kraus[power == 0])) == 1


class TestCorrelatedChannel:
    @pytest.mark.parametrize("kind", ["ad", "pd"])
    def test_eta_zero_is_identity(self, kind):
        rho = protocol_rho()
        out = apply_channel(rho, kraus(kind, 0.0))
        assert np.max(np.abs(out - rho)) < 1e-14

    def test_ad_eta_one_trace_matches_oracle(self):
        rho = protocol_rho()
        out = apply_channel(rho, kraus("ad", 1.0))
        want = brute_force_channel(rho, kraus("ad", 1.0))
        assert np.max(np.abs(out - want)) < 1e-12
        assert np.isclose(np.trace(out).real, 0.25)

    def test_pd_channel_matches_oracle(self):
        rho = protocol_rho()
        ops = kraus("pd", 0.4)
        out = apply_channel(rho, kraus("pd", 0.4))
        assert np.max(np.abs(out - brute_force_channel(rho, ops))) < 1e-12

    def test_pd_only_shrinks_coherences(self):
        rho = protocol_rho()
        out = apply_channel(rho, kraus("pd", 0.5))
        off = ~np.eye(128, dtype=bool)
        assert np.all(np.abs(out[off]) <= np.abs(rho[off]) + 1e-12)

    def test_pd_coherences_shrink_monotonically_on_grid(self):
        rho = protocol_rho()
        off = ~np.eye(128, dtype=bool)
        prev = np.abs(rho[off])
        for eta in ETA_GRID[1:]:
            cur = np.abs(apply_channel(rho, kraus("pd", eta))[off])
            assert np.all(cur <= prev + 1e-12)
            prev = cur

    @pytest.mark.parametrize("kind", ["ad", "pd"])
    def test_output_hermitian_psd_trace_in_unit_interval(self, kind):
        rho = random_mixed_state(5, rank=6)
        for eta in (0.0, 0.3, 0.7, 1.0):
            out = apply_channel(rho, kraus(kind, eta))
            assert np.max(np.abs(out - out.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(out)[0] > -1e-10
            tr = np.trace(out).real
            assert 0.0 < tr <= 1.0 + 1e-12

    def test_trace_deficit_warns_once_category(self):
        with pytest.warns(TraceDeficitWarning):
            apply_channel(protocol_rho(), kraus("ad", 0.5))

    def test_uncorrelated_mode_is_trace_preserving(self):
        rho = protocol_rho()
        out = apply_channel(rho, kraus("ad", 0.7), correlated=False)
        assert np.isclose(np.trace(out).real, 1.0, atol=1e-12)

    def test_uncorrelated_ad_matches_oracle(self):
        rho = protocol_rho()
        out = apply_channel(rho, kraus("ad", 0.7), correlated=False)
        want = brute_force_channel(rho, kraus("ad", 0.7),
                                   correlated=False)
        assert np.max(np.abs(out - want)) < 1e-12

    @pytest.mark.parametrize("kind,correlated",
                             [("ad", True), ("pd", True), ("ad", False)])
    def test_mixed_state_matches_oracle(self, kind, correlated):
        rho = random_mixed_state(7, rank=4)
        ks = kraus(kind, 0.3)
        out = apply_channel(rho, ks, correlated)
        want = brute_force_channel(rho, ks, correlated)
        assert np.max(np.abs(out - want)) < 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_channel(np.eye(64, dtype=complex), kraus("ad", 0.1))


class TestChannelTrace:
    """The trace curve of the pair terms, which the sweeps and receiver_state
    read the trace deficit from, against the dense channel."""

    ETAS = [0.0, 1e-12, 0.1, 0.35, 0.5, 0.8, 0.99, 1.0]

    @pytest.mark.parametrize("kind", ["ad", "pd"])
    @pytest.mark.parametrize("correlated", [True, False])
    def test_matches_dense_channel(self, kind, correlated):
        # one curve per channel, in its _channel entry
        trace = pipeline._channel(kind, correlated)[1]
        curve = trace @ pipeline._monomials(np.array(self.ETAS))
        stacks = party_kraus_stack(kraus_operators(kind, self.ETAS), correlated)
        rho = protocol_rho()
        for eta, stack, got, oracle in zip(self.ETAS, stacks, curve,
                                           channel_trace(stacks)):
            # the curve reads only the diagonal of M = sum_k S_k^dag S_k
            m = np.einsum("kji,kjl->il", stack.conj(), stack)
            assert np.array_equal(m, np.diag(np.diag(m)))
            want = np.trace(apply_channel(rho, kraus(kind, eta), correlated)).real
            assert abs(got - want) < 1e-12
            assert abs(oracle - want) < 1e-12
