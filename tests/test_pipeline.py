import itertools
import tracemalloc
import warnings
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hrsp.noise import TraceDeficitWarning
from hrsp import pipeline, protocol
from hrsp.pipeline import (BRANCH_PROBABILITY_FLOOR, MAX_GRID_POINTS,
                           BranchProbabilityError, PipelineConfig,
                           default_config, default_grid, receiver_state, sweep)
from hrsp.protocol import CORRECTION_TABLES
from hrsp.states import (IDENTITY_STACK, TargetSpec, branch_amplitudes,
                         protocol_state, target_state)

from dense_oracle import (apply_channel, build_measurement_operator,
                          channel_trace, corrected_fidelity,
                          einsum_branch_amplitudes, kraus_operators,
                          partial_trace, party_kraus_stack, projector,
                          receiver_block, rule_of, scenario_for,
                          uhlmann_fidelity)
from reference_data import BOB_LIMIT, CURVES, ETA_GRID

BALANCED = TargetSpec(1 / np.sqrt(2), 1 / np.sqrt(2))

#: (table, row, receiver) of every published row and Charlie's derived rows
ALL_ROWS = ([(t, r, rule.receiver) for t in ("I", "II", "III")
             for r, rule in enumerate(CORRECTION_TABLES[t], start=1)]
            + [("oracle", r, "charlie") for r in range(1, 33)])


def row1_config():
    return PipelineConfig("ad", "bob", "I", 1, BALANCED, (0.0,))


@lru_cache(maxsize=8)
def dense_channel(noise, eta, correlated):
    return apply_channel(projector(protocol_state()),
                         kraus_operators(noise, [eta])[0], correlated)


def dense_fidelity(config, eta):
    """The config's corrected fidelity at eta by the dense chain and the
    Uhlmann formula."""
    block = receiver_block(
        dense_channel(config.noise_kind, eta, config.correlated),
        rule_of(config), config.spec)
    return corrected_fidelity(block, rule_of(config), config.spec)


def assert_matches_dense_chain(config, eta):
    """receiver_state and the fidelity a one-point sweep prints, against the
    dense chain; config.eta_grid is (eta,)."""
    want = receiver_block(
        dense_channel(config.noise_kind, eta, config.correlated),
        rule_of(config), config.spec)
    p_want = float(np.trace(want).real)
    if p_want <= BRANCH_PROBABILITY_FLOOR:
        with pytest.raises(BranchProbabilityError, match="branch probability"):
            receiver_state(config, eta)
        return
    rho, p = receiver_state(config, eta)
    assert abs(p - p_want) < 1e-12
    # compared before normalization, where both routes are well conditioned
    assert np.max(np.abs(rho * p - want)) < 1e-12
    (sample,) = sweep(config).samples
    assert not sample.boundary_extended
    assert abs(sample.fidelity
               - corrected_fidelity(want, rule_of(config), config.spec)) < 1e-9


class TestCollapse:
    def test_noiseless_branch_is_pure(self):
        rho, _ = receiver_state(row1_config(), 0.0)
        assert np.isclose(np.trace(rho @ rho).real, 1.0, atol=1e-10)

    def test_full_damping_branch_rejected_with_diagnostic(self):
        with pytest.raises(BranchProbabilityError, match="branch probability"):
            receiver_state(row1_config(), 1.0)

    def test_full_damping_branch_probability_matches_oracle(self):
        # direct evaluation: at eta=1 the channel leaves only |1000000>,
        # which the collaborator projector annihilates
        ops = kraus_operators("ad", [1.0])[0]
        rho_noisy = apply_channel(projector(protocol_state()), ops)
        u = build_measurement_operator(
            scenario_for("bob", "zeta1", ("01",), BALANCED))
        p = float(np.trace(u @ rho_noisy @ u.conj().T).real)
        assert abs(p) < 1e-15
        w = branch_amplitudes("bob", "zeta1", ("01",), BALANCED,
                              party_kraus_stack(ops))
        assert np.vdot(w, w).real < 1e-15


class TestReduce:
    def test_bob_traces_the_complement(self):
        got, _ = receiver_state(row1_config(), 0.0)
        rho = projector(protocol_state())
        u = build_measurement_operator(
            scenario_for("bob", "zeta1", ("01",), BALANCED))
        want = partial_trace(u @ rho @ u.conj().T, [0, 3, 4, 5, 6])
        assert np.max(np.abs(got - want / np.trace(want).real)) < 1e-14
        assert got.shape == (4, 4)
        assert np.isclose(np.trace(got).real, 1.0, atol=1e-12)

    def test_david_traces_the_complement(self):
        config = PipelineConfig("pd", "david", "II", 1, BALANCED, (0.0,))
        got, _ = receiver_state(config, 0.0)
        rho = projector(protocol_state())
        u = build_measurement_operator(
            scenario_for("david", "zeta1", ("++", "++"), BALANCED))
        want = partial_trace(u @ rho @ u.conj().T, [0, 1, 2, 3, 4])
        assert np.max(np.abs(got - want / np.trace(want).real)) < 1e-14

    def test_noiseless_reduction_is_rotated_target(self):
        # inverting the correction on the reduced state recovers the branch
        reduced, _ = receiver_state(row1_config(), 0.0)
        o = CORRECTION_TABLES["I"][0].unitary()
        rho0 = projector(target_state(BALANCED))
        assert np.max(np.abs(reduced - o.conj().T @ rho0 @ o)) < 1e-10


def corrected(rho, o):
    return o @ rho @ o.conj().T


class TestCorrectionStage:
    def test_noiseless_rows_recover_target(self):
        rho0 = projector(target_state(BALANCED))
        for row, rule in enumerate(CORRECTION_TABLES["I"], start=1):
            config = PipelineConfig("ad", "bob", "I", row, BALANCED, (0.0,))
            rho, _ = receiver_state(config, 0.0)
            got = corrected(rho, rule.unitary())
            assert np.max(np.abs(got - rho0)) < 1e-10

    def test_phase_related_rules_agree(self):
        from hrsp.protocol import parse_gate_string, correction_unitary
        rho, _ = receiver_state(row1_config(), 0.0)
        a = correction_unitary(parse_gate_string("iY1 X1 CX2-1"))
        b = correction_unitary(parse_gate_string("-iY1 X1 CX2-1"))
        assert np.max(np.abs(corrected(rho, a) - corrected(rho, b))) < 1e-14


#: real targets on the whole unit circle, the axes included
TARGETS = st.one_of(
    st.sampled_from([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]),
    st.floats(0.0, 2 * np.pi).map(lambda t: (np.cos(t), np.sin(t))))
ETAS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestKernelOracle:
    """The contraction against the dense 128x128 chain, which shares no
    code with it beyond the outcome states."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(row=st.sampled_from(ALL_ROWS), noise=st.sampled_from(["ad", "pd"]),
           eta=ETAS, target=TARGETS)
    @example(row=("I", 1, "bob"), noise="ad", eta=1.0, target=(0.0, 1.0))
    @example(row=("II", 5, "david"), noise="pd", eta=0.0, target=(1.0, 0.0))
    def test_correlated_matches_dense_chain(self, row, noise, eta, target):
        table, number, receiver = row
        config = PipelineConfig(noise, receiver, table, number,
                                TargetSpec(*target), (eta,))
        assert_matches_dense_chain(config, eta)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(row=st.sampled_from(ALL_ROWS), noise=st.sampled_from(["ad", "pd"]),
           eta=ETAS, target=TARGETS)
    def test_uncorrelated_matches_dense_chain(self, row, noise, eta, target):
        table, number, receiver = row
        config = PipelineConfig(noise, receiver, table, number,
                                TargetSpec(*target), (eta,), correlated=False)
        assert_matches_dense_chain(config, eta)

    @pytest.mark.parametrize("noise", ["ad", "pd"])
    def test_noise_acts_alike_on_every_row(self, noise):
        # one dense channel output serves all 72 rows: the noise does not
        # depend on which branch is read out afterwards
        for table, row, receiver in ALL_ROWS:
            config = PipelineConfig(noise, receiver, table, row,
                                    TargetSpec(0.6, 0.8), (0.6,))
            assert_matches_dense_chain(config, 0.6)


class TestKernelContracts:
    """Acceptance criterion 7 on the production path: the contraction's
    rho = W^T W* is Hermitian and PSD, its trace (the branch probability)
    stays within the channel's trace, and at eta=0 it is the noiseless
    branch."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(row=st.sampled_from(ALL_ROWS), noise=st.sampled_from(["ad", "pd"]),
           correlated=st.booleans(), eta=ETAS, target=TARGETS)
    @example(row=("oracle", 17, "charlie"), noise="pd", correlated=False,
             eta=0.0, target=(0.0, -1.0))
    @example(row=("I", 1, "bob"), noise="ad", correlated=True, eta=1.0,
             target=(1.0, 0.0))
    def test_rho_is_psd_within_channel_trace(self, row, noise, correlated,
                                             eta, target):
        table, number, receiver = row
        spec = TargetSpec(*target)
        rule = rule_of(PipelineConfig(noise, receiver, table, number, spec,
                                      (eta,)))
        branch = (receiver, rule.sender_outcome, rule.collaborator_outcomes,
                  spec)
        stack = party_kraus_stack(kraus_operators(noise, [eta])[0], correlated)
        w = branch_amplitudes(*branch, stack).reshape(-1, 4)
        rho = w.T @ w.conj()
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-14
        assert np.linalg.eigvalsh(rho)[0] >= -1e-12
        assert np.trace(rho).real <= channel_trace(stack) + 1e-12
        if eta == 0.0:
            v = einsum_branch_amplitudes(*branch, IDENTITY_STACK).reshape(4)
            assert np.max(np.abs(rho - projector(v))) < 1e-14

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(row=st.sampled_from(ALL_ROWS), noise=st.sampled_from(["ad", "pd"]),
           correlated=st.booleans(), eta=ETAS, target=TARGETS)
    @example(row=("I", 1, "bob"), noise="ad", correlated=True, eta=0.999,
             target=(0.6, 0.8))
    def test_receiver_state_is_a_state_with_the_sweeps_probability(
            self, row, noise, correlated, eta, target):
        # rho = G^T / p from the branch's cached Gram, the one the sweep's
        # curves come from, weighed at eta and at the target; p = tr G is the
        # sweep's branch probability. AD Bob I-1 dies at eta = 1 and is still
        # alive at 0.999
        table, number, receiver = row
        config = PipelineConfig(noise, receiver, table, number,
                                TargetSpec(*target), (eta,), correlated)
        try:
            rho, p = receiver_state(config, eta)
        except BranchProbabilityError:
            return
        # G is real at a real target, so rho is real symmetric
        assert rho.dtype == np.float64
        assert np.max(np.abs(rho - rho.T)) < 1e-15
        assert np.linalg.eigvalsh(rho)[0] >= -1e-12
        assert abs(np.trace(rho) - 1.0) < 1e-14
        (sample,) = sweep(config).samples
        assert abs(p - sample.branch_probability) < 1e-15


class TestFidelity:
    """The oracle's Uhlmann fidelity, which the dense-chain checks score the
    package's pure-target overlap against."""

    def test_self_fidelity(self):
        rho0 = projector(target_state(BALANCED))
        assert np.isclose(uhlmann_fidelity(rho0, rho0), 1.0, atol=1e-12)

    def test_orthogonal_states(self):
        a = np.diag([1.0, 0, 0, 0]).astype(complex)
        b = np.diag([0, 0, 0, 1.0]).astype(complex)
        assert uhlmann_fidelity(a, b) < 1e-12

    def test_target_vs_maximally_mixed(self):
        rho0 = projector(target_state(BALANCED))
        assert np.isclose(uhlmann_fidelity(rho0, np.eye(4, dtype=complex) / 4),
                          0.5, atol=1e-12)

    def test_agrees_with_pure_shortcut(self):
        # for a pure target the Uhlmann fidelity is sqrt(<xi|rho_n|xi>)
        rng = np.random.default_rng(19)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho_n = a @ a.conj().T
        rho_n /= np.trace(rho_n)
        xi = target_state(BALANCED)
        assert np.isclose(uhlmann_fidelity(projector(xi), rho_n),
                          np.sqrt(np.vdot(xi, rho_n @ xi).real), atol=1e-9)

    def test_rejects_indefinite_input(self):
        with pytest.raises(ValueError):
            uhlmann_fidelity(np.diag([1.0, -0.2, 0.1, 0.1]).astype(complex),
                             np.eye(4, dtype=complex) / 4)


class TestSweep:
    @pytest.mark.parametrize("noise,receiver", list(CURVES))
    def test_matches_frozen_curves(self, noise, receiver):
        result = sweep(default_config(noise, receiver))
        assert len(result.samples) == len(ETA_GRID)
        for sample, eta, want in zip(result.samples, ETA_GRID,
                                     CURVES[(noise, receiver)]):
            assert sample.eta == eta
            if want is None:
                # the branch dies: the exact limit eta -> 1
                assert sample.boundary_extended
                assert sample.branch_probability == 0.0
                assert abs(sample.fidelity - BOB_LIMIT) < 1e-12
            else:
                assert not sample.boundary_extended
                assert abs(sample.fidelity - want) < 1e-6

    def test_shortcut_cross_check_on_samples(self):
        # the pure-target overlap against the dense chain's Uhlmann fidelity
        config = default_config("pd", "david")
        for s in sweep(config).samples:
            want = dense_fidelity(config, s.eta)
            assert abs(s.fidelity - want) < 1e-9

    @pytest.mark.parametrize("row,eta,want", [
        (1, 3 / 8, 91 / 128), (1, 7 / 40, 2701 / 3200), (15, 1 / 8, 13 / 128)])
    def test_exact_rational_points(self, row, eta, want):
        # uncorrelated PD keeps David's branch at p = 1/32 for every eta, and
        # F is rational at these points (checked in exact arithmetic); each
        # is a tie at 6 decimals, so a change of float order may flip its
        # printed last digit while F stays within 1e-15 of the exact value
        config = PipelineConfig("pd", "david", "II", row, BALANCED, (eta,),
                                correlated=False)
        (sample,) = sweep(config).samples
        assert abs(sample.branch_probability - 1 / 32) < 1e-15
        assert abs(sample.fidelity - want) < 1e-15

    @pytest.mark.parametrize("row", range(1, 9))
    def test_correlated_pd_bob_matches_closed_form(self, row):
        # every table I row: F^2 = (5e^2 - 8e + 4) / (2 (3e^2 - 4e + 2)) at
        # alpha = beta = 1/sqrt(2), eta = 1 included: where outcomes 01/10
        # die there, the sweep takes the exact limit, 1/sqrt(2)
        samples = sweep(default_config("pd", "bob", step=0.01, row=row)).samples
        for s in samples:
            e = s.eta
            f2 = (5 * e * e - 8 * e + 4) / (2 * (3 * e * e - 4 * e + 2))
            assert abs(s.fidelity - np.sqrt(f2)) < 1e-12, e
        outcome, = CORRECTION_TABLES["I"][row - 1].collaborator_outcomes
        extended = [s.eta for s in samples if s.boundary_extended]
        assert extended == ([1.0] if outcome in ("01", "10") else [])

    def test_branch_probabilities_at_zero_noise(self):
        bob = sweep(default_config("ad", "bob")).samples[0]
        david = sweep(default_config("ad", "david")).samples[0]
        assert np.isclose(bob.branch_probability, 1 / 8, atol=1e-12)
        assert np.isclose(david.branch_probability, 1 / 32, atol=1e-12)

    def test_uncorrelated_baseline_differs(self):
        sample = sweep(default_config("ad", "bob", correlated=False)).samples[9]
        assert np.isclose(sample.fidelity, 0.708024, atol=1e-5)

    def test_samples_are_immutable(self):
        sample = sweep(row1_config()).samples[0]
        for field in ("eta", "fidelity", "branch_probability",
                      "boundary_extended"):
            with pytest.raises(AttributeError):
                setattr(sample, field, 0.5)

    def test_charlie_sweep_runs(self):
        cfg = default_config("ad", "charlie", step=0.5)
        result = sweep(cfg)
        assert np.isclose(result.samples[0].fidelity, 1.0, atol=1e-9)
        assert all(0.0 <= s.fidelity <= 1.0 + 1e-9 for s in result.samples)


def kernel_point(config, eta):
    """F = ||W u|| / ||W|| and p = ||W||^2 at one eta, straight from
    states.branch_amplitudes with the oracle's per-eta stack, independent of
    the sweep's curves and of the pair terms."""
    rule = rule_of(config)
    stack = party_kraus_stack(kraus_operators(config.noise_kind, [eta])[0],
                              config.correlated)
    w = branch_amplitudes(config.receiver, rule.sender_outcome,
                          rule.collaborator_outcomes, config.spec,
                          stack).reshape(-1, 4)
    u = rule.unitary().T @ target_state(config.spec).conj()
    norm = np.linalg.norm(w)
    return np.linalg.norm(w @ u) / norm, norm ** 2


#: (noise, correlated, row) of every Bob branch that dies at eta = 1, with
#: its exact limit as a function of (alpha, beta)
DYING_BOB_ROWS = {
    **{(noise, correlated, row): limit
       for noise, correlated in (("ad", True), ("ad", False), ("pd", True))
       for row, limit in ((1, lambda a, b: abs(b)), (2, lambda a, b: abs(b)),
                          (5, lambda a, b: abs(a)), (6, lambda a, b: abs(a)))},
    **{("ad", correlated, row): lambda a, b: 0.0
       for correlated in (True, False) for row in (4, 8)},
}


class TestExactCurve:
    """The sweep's cached curves against the kernel at one eta, and the exact
    limit where a branch dies."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(row=st.sampled_from(ALL_ROWS), noise=st.sampled_from(["ad", "pd"]),
           correlated=st.booleans(), eta=st.floats(0.0, 1.0, exclude_max=True),
           target=TARGETS)
    @example(row=("III", 6, "david"), noise="ad", correlated=False, eta=0.0,
             target=(1.0, 0.0))
    def test_matches_kernel_at_one_eta(self, row, noise, correlated, eta,
                                       target):
        table, number, receiver = row
        config = PipelineConfig(noise, receiver, table, number,
                                TargetSpec(*target), (eta,), correlated)
        (sample,) = sweep(config).samples
        f, p = kernel_point(config, eta)
        assert not sample.boundary_extended
        assert abs(sample.fidelity - f) < 1e-12
        assert abs(sample.branch_probability - p) < 1e-15

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(key=st.sampled_from(list(DYING_BOB_ROWS)), theta=st.floats(
        0.0, 2 * np.pi).filter(lambda t: min(abs(np.cos(t)), abs(np.sin(t))) > 1e-3))
    def test_limit_where_the_branch_dies(self, key, theta):
        # off the axes: on them the lowest order of p changes, and so does
        # the limit (AD row I-1 at (1, 0) tends to 1, not 0)
        noise, correlated, row = key
        spec = TargetSpec(np.cos(theta), np.sin(theta))
        config = PipelineConfig(noise, "bob", "I", row, spec, (0.5, 1.0),
                                correlated)
        sample = sweep(config).samples[-1]
        assert sample.boundary_extended
        assert sample.branch_probability == 0.0
        assert abs(sample.fidelity
                   - DYING_BOB_ROWS[key](spec.alpha, spec.beta)) < 1e-12

    @pytest.mark.parametrize("row", range(1, 9))
    def test_uncorrelated_pd_keeps_every_bob_branch(self, row):
        config = default_config("pd", "bob", row=row, correlated=False)
        sample = sweep(config).samples[-1]
        assert not sample.boundary_extended
        assert abs(sample.branch_probability - 1 / 8) < 1e-15

    @pytest.mark.parametrize("noise,row,printed", [
        ("pd", 1, ("0.707110", "0.707107")), ("ad", 4, ("0.033070", "0.023079"))])
    def test_points_next_to_a_dying_branch(self, noise, row, printed):
        # at eta = 0.998 and 0.999 the branch probability is below 1e-12, yet
        # F = ||W u|| / ||W|| is as well defined there as anywhere
        config = default_config(noise, "bob", step=0.001, row=row)
        for s, text in zip(sweep(config).samples[-3:-1], printed):
            assert not s.boundary_extended
            assert f"{s.fidelity:.6f}" == text
            f, p = kernel_point(config, s.eta)
            assert p < BRANCH_PROBABILITY_FLOOR
            assert abs(s.fidelity - f) < 1e-12

    @pytest.mark.parametrize("noise", ["ad", "pd"])
    @pytest.mark.parametrize("correlated", [True, False])
    def test_every_row_matches_kernel_on_default_grid(self, noise, correlated):
        # every sample of every row's step-0.1 sweep; only a dying Bob
        # branch takes the exact limit, and only at eta = 1
        for table, row, receiver in ALL_ROWS:
            config = default_config(noise, receiver, TargetSpec(0.6, -0.8),
                                    table=table, row=row, correlated=correlated)
            samples = sweep(config).samples
            dies = receiver == "bob" and (noise, correlated, row) in DYING_BOB_ROWS
            assert [s.eta for s in samples if s.boundary_extended] == (
                [1.0] if dies else [])
            for sample in samples[:len(samples) - dies]:
                f, p = kernel_point(config, sample.eta)
                assert abs(sample.fidelity - f) < 1e-12
                assert abs(sample.branch_probability - p) < 1e-15

    def test_every_block_lies_on_its_lattice(self):
        """Every coefficient of every _stack block is a small multiple of a
        dyadic step: the squared rows (||W u||^2, p, the trace, the eta = 1
        folds) of 2^-9, the t^0 amplitude rows of 2^-4 / sqrt(2); so is every
        coefficient of each of the 160 branch Grams, of 2^-9. This checks the
        kernel against its own structure; an exact derivation of the blocks
        that shares no code with it is still open."""
        squared = np.r_[0:8, 11:20]
        blocks = [pipeline._stack(noise, correlated, table)[0][row - 1]
                  for noise, correlated, (table, row, _) in itertools.product(
                      ["ad", "pd"], [True, False], ALL_ROWS)]
        grams = [pipeline._branch(noise, correlated, receiver, *key)[1]
                 for noise, correlated, receiver in itertools.product(
                     ["ad", "pd"], [True, False], ["bob", "david"])
                 for key in protocol.BRANCHES[receiver]]
        assert len(grams) == 160

        def worst(arrays, scale):
            return max(np.max(np.abs(a * scale - np.round(a * scale)))
                       for a in arrays)

        assert worst([block[squared] for block in blocks], 2**9) < 1e-11
        assert worst([block[8:11] for block in blocks], 2**4 * np.sqrt(2)) < 1e-13
        assert worst(grams, 2**9) < 1e-11

    def test_branch_that_never_lives_is_rejected(self, monkeypatch):
        stack, *rest = pipeline._stack("ad", True, "I")
        zeros = np.zeros_like(stack)
        assert zeros.shape == stack.shape
        monkeypatch.setattr(pipeline, "_stack", lambda *key: (zeros, *rest))
        # an empty slot: an earlier sweep at this key would be read, not redone
        pipeline._evaluate.cache_clear()
        with pytest.raises(BranchProbabilityError, match="vanishes at every eta"):
            sweep(row1_config())


def clear_noisy_caches():
    for cache in (pipeline._channel, pipeline._branch, pipeline._stack,
                  pipeline._evaluate):
        cache.cache_clear()


class TestKernelCalls:
    """Each outcome branch costs one kernel call per process, whatever the
    grid, the target, the rule or the table that reads it: the tables and
    receiver_state share one _branch entry per branch.
    states.branch_amplitudes calls counted, no timing."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        kernel = pipeline.branch_amplitudes

        def counted(*args, **kwargs):
            made.append(args[:3])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(pipeline, "branch_amplitudes", counted)
        clear_noisy_caches()
        yield made
        clear_noisy_caches()

    def test_tables_partition_the_branches(self):
        # tables I to III read each of Bob's 8 and David's 32 branches in
        # exactly one row; the derived table reads David's 32 again, in
        # BRANCHES order, for Charlie as for David
        rows = [(receivers[-1], key) for table, (receivers, keys)
                in pipeline._TABLES.items() if table != "oracle" for key in keys]
        assert len(rows) == len(set(rows)) == 40
        for receiver in ("bob", "david"):
            branches = protocol.BRANCHES[receiver]
            assert {key for r, key in rows if r == receiver} == set(branches)
            assert len(branches) == len(set(branches))
        assert pipeline._TABLES["oracle"] == (("charlie", "david"),
                                              protocol.BRANCHES["david"])

    @pytest.mark.parametrize("noise,receiver,table,row", [
        ("ad", "bob", "I", 1), ("ad", "david", "II", 1),
        ("pd", "david", "III", 6), ("ad", "charlie", "oracle", 20),
        ("pd", "david", "oracle", 20)])
    def test_cold_then_warm_sweep(self, calls, noise, receiver, table, row):
        # a cold sweep builds the branches of its table's rows once, in row
        # order: 8 for table I, 16 for II and for III, 32 for the derived
        # table, David's for either receiver
        config = PipelineConfig(noise, receiver, table, row, BALANCED,
                                default_grid(0.1))
        sweep(config)
        cold = {"I": 8, "II": 16, "III": 16, "oracle": 32}[table]
        read = "david" if table == "oracle" else receiver
        assert calls == [(read, *key) for key in pipeline._TABLES[table][1]]
        assert len(calls) == cold
        sweep(replace(config, spec=TargetSpec(0.6, -0.8),
                      eta_grid=default_grid(0.001)))
        receiver_state(config, 0.5)
        assert len(calls) == cold

    def test_receiver_state_reads_the_sweeps_branches(self, calls):
        # a cold receiver_state contracts its own row's branch and builds no
        # table
        receiver_state(default_config("ad", "bob", row=3), 0.3)
        assert calls == [("bob", *pipeline._TABLES["I"][1][2])]
        assert pipeline._stack.cache_info().currsize == 0
        clear_noisy_caches()
        calls.clear()
        # tables II and III read David's 32 branches between them, and the
        # derived table reads them again, for either receiver; no other
        # sweep or receiver_state on those tables makes a call
        sweep(default_config("ad", "david", row=1))
        assert len(calls) == 16
        sweep(default_config("ad", "david", table="III", row=1))
        assert len(calls) == 32
        sweep(default_config("ad", "charlie", row=1))
        assert len(calls) == 32
        for receiver, table, row in (("david", "II", 2), ("david", "III", 16),
                                     ("charlie", "oracle", 5),
                                     ("david", "oracle", 32)):
            receiver_state(default_config("ad", receiver, TargetSpec(0.6, 0.8),
                                          table=table, row=row), 0.3)
        assert len(calls) == len(set(calls)) == 32
        assert pipeline._stack.cache_info().currsize == 3
        assert pipeline._branch.cache_info().currsize == 32

    def test_grid_size_does_not_add_calls(self, calls):
        config = default_config("pd", "bob", step=0.1)
        sweep(config)
        small = len(calls)
        clear_noisy_caches()
        sweep(replace(config, eta_grid=default_grid(1e-5)))
        assert len(calls) - small <= small

    def test_cache_bounds_match_the_docs(self):
        # the worst case of each cache, computed, is the figure that the
        # pipeline docstring quotes: the channels, the branches (in all and
        # for a correlated scan) and the stacks (likewise), the evaluation
        # slot at its largest table, the grid side of a chunk at the largest
        # column set, and a row's curves on all 91 powers. The 16 tables
        # read all 160 branches
        clear_noisy_caches()
        channels = {(noise, correlated): pipeline._channel(noise, correlated)
                    for noise in ("ad", "pd") for correlated in (True, False)}
        entries = {(noise, correlated, table): pipeline._stack(
                       noise, correlated, table)
                   for noise, correlated in channels for table in pipeline._TABLES}
        branches = {(noise, correlated, receiver, key): pipeline._branch(
                        noise, correlated, receiver, *key)
                    for noise, correlated in channels
                    for receiver in ("bob", "david")
                    for key in protocol.BRANCHES[receiver]}
        assert len(entries) == pipeline._stack.cache_info().currsize == 16
        assert len(branches) == pipeline._branch.cache_info().currsize == 160
        chunk = max(len(columns) for _, columns in entries.values()) * (
            pipeline.GRID_CHUNK * 8)
        # fidelity and branch probability of each row at each eta of a chunk
        slot = max(len(rows) for _, rows in pipeline._TABLES.values()) * (
            pipeline.GRID_CHUNK * 2 * 8)
        curves = 20 * pipeline._POWERS * 8
        channel = [sum(a.nbytes for a in (*entry[:4], *sum(entry[4], ()), entry[5]))
                   for entry in channels.values()]
        figures = [f"{chunk / 1e6:.2f} MB", f"{slot / 1e6:.2f} MB",
                   f"{curves / 1e3:.1f} KB",
                   f"{min(channel) / 1e3:.1f} to {max(channel) / 1e3:.1f} KB"]
        for sizes in ({key: sum(a.nbytes for a in entry)
                       for key, entry in branches.items()},
                      {key: entry[0].nbytes for key, entry in entries.items()}):
            scan = sum(size for (_, correlated, *_), size in sizes.items()
                       if correlated)
            figures += [f"{min(sizes.values()) / 1e3:.1f} to "
                        f"{max(sizes.values()) / 1e3:.1f} KB",
                        f"{sum(sizes.values()) / 1e6:.2f} MB",
                        f"{scan / 1e6:.2f} MB"]
        doc = " ".join(pipeline.__doc__.split())
        for figure in figures:
            assert figure in doc

    def test_build_order_does_not_change_the_stacks(self):
        # the tables share their channel's and their branches' entries: each
        # table's (stack, columns) is bitwise the same whether it is built
        # first in a cold process or after the tables that read its branches
        # or the channel's other branches
        keys = list(itertools.product(("ad", "pd"), (True, False),
                                      pipeline._TABLES))
        alone = {}
        for key in keys:
            clear_noisy_caches()
            alone[key] = pipeline._stack(*key)
        for order in (("oracle", "II", "III", "I"), ("I", "II", "III", "oracle")):
            clear_noisy_caches()
            for noise, correlated in itertools.product(("ad", "pd"), (True, False)):
                for table in order:
                    got = pipeline._stack(noise, correlated, table)
                    want = alone[noise, correlated, table]
                    assert len(got) == len(want) == 2
                    for a, b in zip(got, want):
                        assert a.dtype == b.dtype and np.array_equal(a, b), (
                            order, noise, correlated, table)

    def test_build_transient_does_not_grow_with_the_rows(self):
        # a cold build's transient, its traced peak less the traced bytes
        # still held after it (the entry and the channel and branch entries
        # it filled), is one branch's work and the table's stack on its
        # span: at most 0.4 MB for each of the 16 entries, of 8 to 32 rows.
        # Each entry is built once first, so that no first-use allocation
        # is counted
        for key in itertools.product(("ad", "pd"), (True, False),
                                     pipeline._TABLES):
            pipeline._stack(*key)
            clear_noisy_caches()
            tracemalloc.start()
            try:
                pipeline._stack(*key)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - held <= 0.4e6, (key, peak - held)

    def test_every_block_column_is_used(self):
        # a table's stack lies on its own column set, and every column is
        # nonzero in some block of that table and channel. David's tables II
        # and III share one column set, so their chunk products have one
        # shape
        for noise, correlated in itertools.product(("ad", "pd"), (True, False)):
            for table, (_, keys) in pipeline._TABLES.items():
                stack, columns = pipeline._stack(noise, correlated, table)
                assert np.all(np.diff(columns.astype(int)) > 0)
                assert stack.shape == (len(keys), 20, len(columns))
                assert stack.any(axis=(0, 1)).all()
            assert np.array_equal(pipeline._stack(noise, correlated, "II")[1],
                                  pipeline._stack(noise, correlated, "III")[1])


def sample_bits(result):
    return [(s.fidelity.hex(), s.branch_probability.hex(), s.boundary_extended)
            for s in result.samples]


class TestTableEvaluation:
    """A sweep reads its row of its table's one evaluation per target and
    grid chunk, whichever sweep made it: _evaluate's one-slot cache,
    counted by its misses."""

    @pytest.fixture
    def evaluations(self):
        pipeline._evaluate.cache_clear()
        yield lambda: pipeline._evaluate.cache_info().misses
        pipeline._evaluate.cache_clear()

    @pytest.mark.parametrize("step", [0.1, 0.001])
    @pytest.mark.parametrize("noise", ["ad", "pd"])
    @pytest.mark.parametrize("correlated", [True, False])
    def test_rows_are_bitwise_equal_in_any_order(self, noise, correlated,
                                                 step, evaluations):
        configs = {(table, row): default_config(
                       noise, receiver, TargetSpec(0.6, -0.8), step=step,
                       table=table, row=row, correlated=correlated)
                   for table, row, receiver in ALL_ROWS}
        alone = {}
        for key, config in configs.items():
            pipeline._evaluate.cache_clear()
            alone[key] = sample_bits(sweep(config))
        for order in (list(configs), list(reversed(configs))):
            pipeline._evaluate.cache_clear()
            assert {key: sample_bits(sweep(configs[key])) for key in order} == alone
            # each table once
            assert evaluations() == 4

    def test_table_is_evaluated_once_per_target_and_chunk(self, evaluations):
        for noise, correlated in itertools.product(("ad", "pd"), (True, False)):
            # a 72-row scan evaluates each of the four tables once, and a
            # second target as many times again
            pipeline._evaluate.cache_clear()
            for spec, misses in ((BALANCED, 4), (TargetSpec(0.6, 0.8), 8)):
                for table, row, receiver in ALL_ROWS:
                    sweep(default_config(noise, receiver, spec, table=table,
                                         row=row, correlated=correlated))
                assert evaluations() == misses
            # a grid of two chunks: a single-row sweep evaluates its table
            # once per chunk, and the slot holds the last one
            pipeline._evaluate.cache_clear()
            for row in (1, 2, 3):
                sweep(default_config(noise, "bob", step=0.0005, row=row,
                                     correlated=correlated))
                assert evaluations() == 2 * row

    def test_oracle_rows_are_swept_without_a_search(self):
        # configs, sweeps and receiver_state read a derived row's branch from
        # the table map and its correction from the branch itself: the
        # package's noisy side cannot reach the search, and makes none
        oracle = (protocol.oracle_find_correction, protocol.branch_vector,
                  protocol.derive_receiver_table, protocol.verify_table,
                  protocol.noiseless_fidelity, protocol)
        assert not [name for name, value in vars(pipeline).items()
                    if any(value is x for x in oracle)]
        protocol.oracle_find_correction.cache_clear()
        clear_noisy_caches()
        for row in range(1, 33):
            config = default_config("ad", "charlie", row=row)
            sweep(config)
            receiver_state(config, 0.5)
        assert protocol.oracle_find_correction.cache_info().misses == 0
        # the tests' rule_of derives the whole table, one search per row on
        # David's branches, and carries the rule to the config's receiver
        assert rule_of(config) == rule_of(config)
        assert rule_of(config).receiver == "charlie"
        assert protocol.oracle_find_correction.cache_info().misses == 32


class TestDerivedCorrection:
    """Charlie's stack takes its correction u = O^T xi* from the branch: the
    noiseless amplitudes at the unit targets, normalized. Every correction
    that maps the branch onto the target has that u, up to a global phase."""

    @pytest.mark.parametrize("noise", ["ad", "pd"])
    @pytest.mark.parametrize("correlated", [True, False])
    def test_branch_u_is_the_corrections_u(self, noise, correlated):
        stack = party_kraus_stack(kraus_operators(noise, [0.0])[0], correlated)
        differ = []
        for table, row, receiver in ALL_ROWS:
            key = pipeline._TABLES[table][1][row - 1]
            # the noiseless branch at the unit targets; the channel at eta = 0
            # leaves it whole, in one Kraus triple, so it is the t^0
            # amplitude at s = 1 that the stack reads
            a = branch_amplitudes(receiver, *key, pipeline._UNIT_TARGETS,
                                  IDENTITY_STACK).reshape(2, 4)
            w = branch_amplitudes(receiver, *key, pipeline._UNIT_TARGETS,
                                  stack).reshape(2, -1, 4)
            assert np.array_equal(w.sum(axis=1), a)
            assert np.count_nonzero(w.any(axis=(0, 2))) == 1
            u = a / np.linalg.norm(a[0])
            rule = (protocol.oracle_find_correction(receiver, *key)
                    if table == "oracle" else CORRECTION_TABLES[table][row - 1])
            distance = protocol.phase_aligned_distance(rule.unitary()[[0, 3]], u)
            if table == "oracle":
                assert distance < 1e-15
            elif distance >= 1e-15:
                differ.append(f"{table}-{row}")
        # the published rows that verify_table finds to be mismatches
        assert differ == ["II-15", "III-6", "III-14", "III-16"]

    @pytest.mark.parametrize("noise", ["ad", "pd"])
    @pytest.mark.parametrize("correlated", [True, False])
    def test_verified_rows_sweep_as_the_derived_rows(self, noise, correlated):
        # so a verified rule's curve depends only on its branch: each David
        # row of tables II and III but the mismatches gives the curve of the
        # derived row on its branch, which is also Charlie's
        keys = protocol.BRANCHES["david"]
        differ = set()
        for spec in (BALANCED, TargetSpec(0.6, 0.8), TargetSpec(-0.6, 0.8)):
            for table in ("II", "III"):
                for row, rule in enumerate(CORRECTION_TABLES[table], start=1):
                    config = default_config(noise, "david", spec, step=0.01,
                                            table=table, row=row,
                                            correlated=correlated)
                    derived = replace(config, receiver="charlie", table="oracle",
                                      row=keys.index(rule.outcomes) + 1)
                    gap = np.subtract(sweep(config).fidelities(),
                                      sweep(derived).fidelities())
                    if np.max(np.abs(gap)) > 1e-13:
                        differ.add(f"{table}-{row}")
        assert differ == {"II-15", "III-6", "III-14", "III-16"}


#: (noise, receiver, table, row): a dead endpoint (exact limit), a David and
#: a derived Charlie row
BATCH_CASES = [("ad", "bob", "I", 1), ("pd", "david", "II", 1),
               ("ad", "charlie", "oracle", 1)]


def assert_samples_match_points(config, indices):
    """sweep(config) evaluates the whole grid at once; each sample must equal a
    one-point sweep at its eta (a summed or shifted grid axis would not)."""
    samples = sweep(config).samples
    for i in indices:
        got = samples[i]
        want = sweep(replace(config, eta_grid=(config.eta_grid[i],))).samples[0]
        assert (got.eta, got.boundary_extended) == (want.eta, want.boundary_extended)
        for field in ("fidelity", "branch_probability"):
            assert abs(getattr(got, field) - getattr(want, field)) < 1e-12


class TestBatchedGrid:
    @pytest.mark.parametrize("correlated", [True, False])
    @pytest.mark.parametrize("noise,receiver,table,row", BATCH_CASES)
    def test_every_point_of_default_grid(self, noise, receiver, table, row,
                                         correlated):
        config = PipelineConfig(noise, receiver, table, row, BALANCED,
                                default_grid(0.1), correlated)
        assert_samples_match_points(config, range(len(config.eta_grid)))

    @pytest.mark.parametrize("correlated", [True, False])
    @pytest.mark.parametrize("noise,receiver,table,row", BATCH_CASES)
    def test_block_edges_of_fine_grid(self, noise, receiver, table, row,
                                      correlated):
        config = PipelineConfig(noise, receiver, table, row, BALANCED,
                                default_grid(0.0002), correlated)
        # both sides of every chunk edge, and the end of the grid
        n = len(config.eta_grid)
        assert n > 4 * pipeline.GRID_CHUNK
        edges = [i for k in range(pipeline.GRID_CHUNK, n, pipeline.GRID_CHUNK)
                 for i in (k - 1, k)]
        assert_samples_match_points(config, edges + [n - 2, n - 1])


class TestRowIndependence:
    """Under phase damping every confirmed row of a table yields the same
    curve; under amplitude damping the rows differ (conditioning selects
    outcomes with different damping weight), so the default rows are the
    reference ones."""

    @pytest.mark.parametrize("eta", [0.3, 0.7])
    def test_pd_rows_identical(self, eta):
        fids = []
        for row in range(1, 9):
            cfg = PipelineConfig("pd", "bob", "I", row, BALANCED, (eta,))
            fids.append(sweep(cfg).samples[0].fidelity)
        assert max(fids) - min(fids) < 1e-9

    @pytest.mark.parametrize("eta", [0.3, 0.7])
    def test_pd_david_rows_identical(self, eta):
        fids = []
        for row in range(1, 17):
            if row == 15:  # published rule for this outcome is wrong
                continue
            cfg = PipelineConfig("pd", "david", "II", row, BALANCED, (eta,))
            fids.append(sweep(cfg).samples[0].fidelity)
        assert max(fids) - min(fids) < 1e-9

    def test_ad_rows_differ(self):
        one = sweep(PipelineConfig("ad", "bob", "I", 1, BALANCED, (0.3,))).samples[0]
        three = sweep(PipelineConfig("ad", "bob", "I", 3, BALANCED, (0.3,))).samples[0]
        assert abs(one.fidelity - three.fidelity) > 1e-4


class TestConfig:
    def test_default_grid(self):
        assert default_grid(0.5) == (0.0, 0.5, 1.0)
        assert len(default_grid(0.1)) == 11
        # cached: the configs of a row scan share one immutable grid
        assert default_grid(0.1) is default_grid(0.1)
        assert isinstance(default_grid(0.1), tuple)
        assert default_grid(0.25) == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            default_grid(0.3)
        for step in (0.0, float("nan")):
            with pytest.raises(ValueError, match="does not divide"):
                default_grid(step)
        # every call is checked, whatever the cache holds
        for step, match in ((0.0, "does not divide"), (float("nan"), "does not divide"),
                            (0.3, "does not divide"), (1e-6, "MAX_GRID_POINTS"),
                            (-0.1, "does not divide"), (float("inf"), "does not divide")):
            for _ in range(2):
                default_grid(0.1)
                with pytest.raises(ValueError, match=match):
                    default_grid(step)

    def test_grid_size_capped(self):
        assert len(default_grid(1e-5)) == MAX_GRID_POINTS
        with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
            default_grid(1e-6)
        grid = tuple(i / MAX_GRID_POINTS for i in range(MAX_GRID_POINTS + 1))
        with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
            PipelineConfig("ad", "bob", "I", 1, BALANCED, grid)

    def test_grid_validation(self):
        nan, order, lie_in = float("nan"), "strictly increasing", r"lie in \["
        for grid, match in (((0.0, 0.0, 1.0), order), ((0.0, 1.5), lie_in),
                            ((0.0, nan, 1.0), order), ((nan,), lie_in),
                            ((0.0, 0.5, 0.5), order), ((), "empty")):
            with pytest.raises(ValueError, match=match):
                PipelineConfig("ad", "bob", "I", 1, BALANCED, grid)

    def test_grid_stored_as_tuple_of_floats(self):
        # an array or a list is accepted and copied: the config stays
        # hashable, and changing the list afterwards changes nothing
        grid = [0.0, 0.5, 1.0]
        for given in (np.linspace(0.0, 1.0, 11), grid, tuple(np.array(grid))):
            config = PipelineConfig("ad", "bob", "I", 1, BALANCED, given)
            assert type(config.eta_grid) is tuple
            assert config.eta_grid == tuple(float(eta) for eta in given)
            assert hash(config) == hash(replace(config))
            samples = sweep(config).samples
            assert all(type(s.eta) is float for s in samples)
            assert [s.eta for s in samples] == list(config.eta_grid)
        config = PipelineConfig("ad", "bob", "I", 1, BALANCED, grid)
        grid[1] = 2.0
        assert config.eta_grid == (0.0, 0.5, 1.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            PipelineConfig("ad", "bob", "I", 1, BALANCED, np.zeros(3))

    def test_receiver_table_mismatch(self):
        with pytest.raises(ValueError):
            PipelineConfig("ad", "bob", "II", 1, BALANCED, (0.0, 1.0))

    def test_bad_noise_kind(self):
        with pytest.raises(ValueError):
            PipelineConfig("xx", "bob", "I", 1, BALANCED, (0.0, 1.0))

    def test_row_out_of_range(self):
        with pytest.raises(ValueError):
            PipelineConfig("ad", "bob", "I", 9, BALANCED, (0.0, 1.0))

    @pytest.mark.parametrize("table,row,match", [
        ("IV", 1, "unknown table 'IV'"),
        ("i", 1, "unknown table 'i'"),
        ("I", True, "row must be an integer"),
        ("I", 1.0, "row must be an integer"),
        ("I", "1", "row must be an integer"),
        ("oracle", 2.5, "row must be an integer"),
    ])
    def test_bad_table_or_row_rejected(self, table, row, match):
        receiver = "charlie" if table == "oracle" else "bob"
        with pytest.raises(ValueError, match=match):
            PipelineConfig("ad", receiver, table, row, BALANCED, (0.0, 1.0))

    @pytest.mark.parametrize("table,receiver", [("I", "bob"),
                                                ("oracle", "charlie")])
    def test_bad_row_rejected_after_its_rule_is_cached(self, table, receiver):
        # row 1 is swept and its rule cached (an oracle row's by its
        # branch), and the caches are keyed by int rows: True, 1.0 and "1"
        # must not find row 1's entry, and an unhashable row is still a bad
        # row
        config = PipelineConfig("ad", receiver, table, 1, BALANCED, (0.0, 1.0))
        sweep(config)
        assert rule_of(config) == rule_of(config)
        for row in (True, 1.0, "1", 2.5, [1], np.array([1])):
            with pytest.raises(ValueError, match="row must be an integer"):
                PipelineConfig("ad", receiver, table, row, BALANCED, (0.0, 1.0))

    @pytest.mark.parametrize("table,receiver", [("I", "bob"),
                                                ("oracle", "charlie")])
    def test_numpy_integer_row_accepted(self, table, receiver):
        config = PipelineConfig("ad", receiver, table, np.int64(2), BALANCED,
                                (0.0, 1.0))
        assert config == replace(config, row=2)
        assert type(config.row) is int
        assert sweep(config).samples == sweep(replace(config, row=2)).samples

    @pytest.mark.parametrize("correlated", ["False", "", 0, 1, None, 1.0])
    def test_non_bool_correlated_rejected(self, correlated):
        # "False" is truthy, and used to run the correlated channel
        with pytest.raises(ValueError, match="correlated must be a bool"):
            PipelineConfig("ad", "bob", "I", 1, BALANCED, (0.5,), correlated)

    def test_numpy_bool_correlated_accepted(self):
        config = PipelineConfig("ad", "bob", "I", 1, TargetSpec(0.6, 0.8),
                                (0.5,), np.False_)
        assert config.correlated is False
        (sample,) = sweep(config).samples
        assert f"{sample.fidelity:.6f}" == "0.868795"

    @pytest.mark.parametrize("spec", [(0.6, 0.8), [0.6, 0.8], None])
    def test_non_target_spec_rejected(self, spec):
        with pytest.raises(ValueError, match="spec must be a TargetSpec"):
            PipelineConfig("ad", "bob", "I", 1, spec, (0.5,))


class TestChannelBlockCache:
    """Sweeps of one row share its cached curve; the trace-deficit check must
    still run on every sweep."""

    def test_repeated_correlated_sweep_still_warns(self):
        config = default_config(step=0.25)
        sweep(config)
        with pytest.warns(TraceDeficitWarning):
            sweep(config)

    def test_cached_uncorrelated_sweep_does_not_warn(self):
        config = default_config(step=0.25, correlated=False)
        sweep(replace(config, correlated=True))   # same row, lossy channel
        sweep(config)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TraceDeficitWarning)
            sweep(config)

    def test_warning_names_the_caller(self):
        # noise.warn_trace_deficit warns at stacklevel 3, so that the default
        # filter shows it once per calling line; a helper between it and
        # sweep or receiver_state would move that line into pipeline.py
        config = default_config(step=0.25)
        for run in (lambda: sweep(config), lambda: receiver_state(config, 0.5),
                    lambda: sweep(replace(config, eta_grid=default_grid(0.0002)))):
            with pytest.warns(TraceDeficitWarning) as record:
                run()
            assert [w.filename for w in record] == [__file__]

    @pytest.mark.parametrize("noise", ["ad", "pd"])
    @pytest.mark.parametrize("correlated", [True, False])
    def test_block_is_read_only(self, noise, correlated):
        # the cached coefficients are shared by every later sweep of the
        # table, the branches' by every table and receiver_state call, and
        # the channel's by every branch and table
        entry = pipeline._stack(noise, correlated, "II")
        assert entry is pipeline._stack(noise, correlated, "II")
        stack, columns = entry
        key = CORRECTION_TABLES["II"][0].outcomes
        branch = pipeline._branch(noise, correlated, "david", *key)
        assert branch is pipeline._branch(noise, correlated, "david", *key)
        channel = pipeline._channel(noise, correlated)
        assert channel is pipeline._channel(noise, correlated)
        ops, trace, reached, span, pairs, free = channel
        target = pipeline._target_monomials(0.6, 0.8)
        for coef in (stack, stack[2], columns, target, *branch, ops, trace,
                     reached, span, *sum(pairs, ()), free):
            with pytest.raises(ValueError, match="read-only"):
                coef[...] = 0
        # the trace curve, indexed M * S_ORDERS + j, against the oracle's
        # channel_trace of one-eta stacks
        etas = np.linspace(0.0, 1.0, 9)
        stacks = party_kraus_stack(kraus_operators(noise, etas), correlated)
        got = np.einsum("em,mj,ej->e",
                        etas[:, None] ** np.arange(pipeline.ETA_ORDERS),
                        trace.reshape(pipeline.ETA_ORDERS, pipeline.S_ORDERS),
                        np.sqrt(1 - etas)[:, None] ** np.arange(pipeline.S_ORDERS))
        assert np.max(np.abs(got - channel_trace(stacks))) < 1e-14

    @pytest.mark.parametrize("noise", ["ad", "pd"])
    @pytest.mark.parametrize("correlated", [True, False])
    def test_evaluation_is_read_only(self, noise, correlated):
        # every sweep of the table at one target and grid chunk reads the
        # one cached evaluation
        config = default_config(noise, "david", TargetSpec(0.6, 0.8),
                                table="III", correlated=correlated)
        key = (noise, correlated, "III", config.spec.alpha, config.spec.beta,
               config.eta_grid)
        sweep(config)
        evaluation = pipeline._evaluate(*key)
        assert evaluation is pipeline._evaluate(*key)
        fidelity, probability, ends, low = evaluation
        assert fidelity.shape == probability.shape == (16, len(config.eta_grid))
        for array in (fidelity, probability, fidelity[2], probability[:, -1]):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        assert type(ends) is tuple and len(ends) == 16
        assert type(low) is float

    def test_chunk_powers_are_those_of_the_full_table(self):
        # an evaluation raises only its table's powers on a chunk: each is
        # bitwise the one the full table holds, on both chunks of a
        # two-chunk grid and for every table and channel
        grid = default_grid(0.0005)
        chunks = [np.array(grid[start:start + pipeline.GRID_CHUNK])
                  for start in range(0, len(grid), pipeline.GRID_CHUNK)]
        assert len(chunks) == 2
        for noise, correlated in itertools.product(("ad", "pd"), (True, False)):
            for table in pipeline._TABLES:
                columns = pipeline._stack(noise, correlated, table)[1]
                for etas in chunks:
                    got = pipeline._monomials(etas, columns)
                    full = pipeline._monomials(etas)[columns]
                    assert got.shape == (len(columns), len(etas))
                    assert np.array_equal(got.view(np.uint64),
                                          full.view(np.uint64))

    @pytest.mark.parametrize("noise", ["ad", "pd"])
    @pytest.mark.parametrize("correlated", [True, False])
    def test_block_trace_matches_channel_trace(self, noise, correlated):
        # the trace row of a sweep's chunk product, at each eta
        stack, powers = pipeline._stack(noise, correlated, "I")
        block = stack[1]
        etas = np.linspace(0.0, 1.0, 9)
        coef = pipeline._target_monomials(0.6, 0.8) @ block
        got = coef[3] @ pipeline._monomials(etas)[powers]
        stacks = party_kraus_stack(kraus_operators(noise, etas), correlated)
        assert np.max(np.abs(got - channel_trace(stacks))) < 1e-12
