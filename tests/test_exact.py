"""hrsp.exact, the numpy-free sweep path, against the numpy library path of
hrsp.pipeline: each is the other's oracle. Every Gram coefficient of the
numpy kernel dense_oracle.branch_amplitudes is held to its exact rational, and
every row's sweep to the library's, at three targets under all four
channels."""

import ast
import itertools
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hrsp import exact, noise, pipeline, protocol, states
from hrsp.cli import main

from dense_oracle import branch_amplitudes, pair_terms

#: (table, row, receiver) of every published row and Charlie's derived rows
ALL_ROWS = [(table, row, receivers[0])
            for table, (receivers, keys) in exact._TABLES.items()
            for row in range(1, len(keys) + 1)]

#: the CLI's default target, a second one, and one with negative beta
TARGETS = [(1 / math.sqrt(2), 1 / math.sqrt(2)), (0.6, 0.8), (0.8, -0.6)]

#: the two floats nearest 1/sqrt(2): the CLI default, below it, and
#: np.sqrt(0.5), above it
BELOW, ABOVE = 0.7071067811865475, 0.7071067811865476

#: uncorrelated PD, step 0.001, alpha = beta: cells whose fidelity at the
#: true target 1/sqrt(2) is a 6-decimal tie, (table, row, eta) -> text at
#: BELOW and at ABOVE. F is homogeneous of degree 1 in (alpha, beta), so
#: each lies just below its boundary at BELOW and just above it at ABOVE
TIE_CELLS = {("II", 15, 0.125): ("0.101562", "0.101563"),
             ("II", 1, 0.175): ("0.844062", "0.844063"),
             ("II", 1, 0.375): ("0.710937", "0.710938"),
             ("II", 1, 0.625): ("0.601562", "0.601563"),
             ("II", 1, 0.825): ("0.543437", "0.543438"),
             ("oracle", 1, 0.375): ("0.710937", "0.710938")}


def kernel_branch(noise_kind, correlated, receiver, key):
    """A branch's t^0 amplitude [m, i, s^j] and its Gram coefficients
    {(P, m, i, n, j): value} in floats, from the numpy kernel on the
    channel's pair terms (dense_oracle.pair_terms): W_m at the unit targets per
    Kraus triple, one pair of terms of one Kraus operator per party, and
    G at each power index P the sum of W^T W over the triples at P."""
    ops, kraus, power, degree = pair_terms(noise_kind, correlated)
    first, second = np.nonzero(kraus[:, None] == kraus)
    order = power[first] * exact.S_ORDERS + degree[first] + degree[second]
    n = len(ops)

    def triples(x, y, z):
        return (x[:, None, None] + y[:, None] + z).reshape(-1)

    powers = triples(order, order, order)
    first, second = (triples(x * n * n, x * n, x) for x in (first, second))
    w = branch_amplitudes(
        receiver, *key, (states.TargetSpec(1.0, 0.0), states.TargetSpec(0.0, 1.0)),
        ops).transpose(1, 2, 3, 0, 4).reshape(-1, 8)
    gram = {}
    for p in set(powers.tolist()):
        at = powers == p
        g = (w[first[at]].T @ w[second[at]]).reshape(2, 4, 2, 4)
        for m, i, k, j in zip(*np.nonzero(g)):
            gram[p, m, i, k, j] = float(g[m, i, k, j])
    # the operator with no t carries the t^0 amplitude, by power of s
    free = np.where(power == 0, degree, exact.S_ORDERS)
    free = triples(free, free, free)[:, None] == np.arange(exact.S_ORDERS)
    return (w.T @ free).reshape(2, 4, exact.S_ORDERS), gram


def test_exact_imports_only_the_standard_library():
    tree = ast.parse(Path(exact.__file__).read_text())
    modules = {alias.name.split(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert modules and modules <= set(sys.stdlib_module_names), modules


def test_moved_names_are_reexported_unchanged():
    moved = {states: ("TargetSpec", "BROWN_TERMS"),
             noise: ("NOISE_KINDS", "TraceDeficitWarning", "warn_trace_deficit",
                     "TRACE_DEFICIT_WARN"),
             protocol: ("BRANCHES", "SENDER_OUTCOMES", "parse_gate_string",
                        "branch_matrix"),
             pipeline: ("PipelineConfig", "FidelitySample", "SweepResult",
                        "BranchProbabilityError", "default_grid",
                        "default_config", "MAX_GRID_POINTS", "TargetSpec",
                        "BRANCH_PROBABILITY_FLOOR", "warn_trace_deficit")}
    for module, names in moved.items():
        for name in names:
            assert getattr(module, name) is getattr(exact, name), name


class TestExactGrams:
    def test_numpy_kernel_matches_the_exact_rationals(self):
        # all 160 branches: 2 noise kinds x 2 modes x (Bob's 8 + David's 32);
        # where the exact coefficient is 0 the kernel's is a rounding
        # residue
        count = 0
        for noise_kind, correlated, receiver in itertools.product(
                ("ad", "pd"), (True, False), ("bob", "david")):
            for key in protocol.BRANCHES[receiver]:
                scale, gram, amplitude = exact._branch(noise_kind, correlated,
                                                       receiver, *key)
                want = {coordinates: value / scale for coordinates, value in gram}
                kernel_amplitude, got = kernel_branch(noise_kind, correlated,
                                                      receiver, key)
                for at in want.keys() | got.keys():
                    if at in want:
                        assert abs(got.get(at, 0.0) - want[at]) <= 1e-15, at
                    else:
                        assert abs(got[at]) < 1e-17, at
                for m, i in itertools.product(range(2), range(4)):
                    exact_row = dict(amplitude[m][i])
                    for j, value in enumerate(kernel_amplitude[m, i].tolist()):
                        assert abs(value - exact_row.get(j, 0)
                                   / math.sqrt(scale)) <= 1e-15
                count += 1
        assert count == 160

    @pytest.mark.parametrize("noise_kind", ["ad", "pd"])
    @pytest.mark.parametrize("correlated", [True, False])
    def test_derived_corrections_are_the_noiseless_amplitudes(self, noise_kind,
                                                              correlated):
        # a derived row's v, read off its noiseless branch S, is its Gram
        # build's t^0 amplitude summed at s = 1, in integers: at eta = 0 the
        # operator with no t is the identity under every channel
        for row, key in enumerate(protocol.BRANCHES["david"], start=1):
            _, _, amplitude = exact._branch(noise_kind, correlated, "david", *key)
            v = tuple(tuple(sum(c for _, c in poly) for poly in a_m)
                      for a_m in amplitude)
            assert exact._correction("oracle", row) == (
                v, sum(x * x for x in v[0]))


class TestExactSweep:
    @pytest.mark.parametrize("noise_kind", ["ad", "pd"])
    @pytest.mark.parametrize("correlated", [True, False])
    @pytest.mark.parametrize("target", TARGETS)
    def test_every_row_matches_the_library_path(self, noise_kind, correlated,
                                                target):
        for table, row, receiver in ALL_ROWS:
            config = exact.default_config(noise_kind, receiver,
                                          exact.TargetSpec(*target),
                                          table=table, row=row,
                                          correlated=correlated)
            got, want = exact.sweep(config), pipeline.sweep(config)
            assert got.config == config
            assert [(s.eta, s.boundary_extended) for s in got.samples] == \
                [(s.eta, s.boundary_extended) for s in want.samples]
            # the same integer curves on both paths: only the order of their
            # float sums differs (at most 5.6e-16 in F, 1.1e-16 in p, measured
            # at steps 0.1 and 0.001)
            for g, w in zip(got.samples, want.samples):
                assert abs(g.fidelity - w.fidelity) <= 1e-15
                assert abs(g.branch_probability - w.branch_probability) <= 5e-16

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(row=st.sampled_from(ALL_ROWS), noise_kind=st.sampled_from(["ad", "pd"]),
           correlated=st.booleans(), theta=st.floats(0.0, 2 * math.pi),
           grid=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4,
                         unique=True).map(sorted))
    @example(row=("I", 1, "bob"), noise_kind="ad", correlated=True, theta=0.0,
             grid=[0.5, 1.0])
    @example(row=("I", 4, "bob"), noise_kind="ad", correlated=False,
             theta=math.pi / 2, grid=[0.999, 1.0])
    def test_any_target_and_grid_matches_the_library_path(
            self, row, noise_kind, correlated, theta, grid):
        # on the axes too, where the lowest order of p at eta = 1 changes.
        # F^2 is compared: where F tends to 0, as eta -> 1 on some rows, the
        # root turns F^2's rounding into that over 2F (F differs by 8.7e-10
        # at eta = 1 - 2^-53 on uncorrelated AD II-2 at alpha = beta, whose
        # F^2 differs by 1e-17; F^2 by at most 1.1e-15 on any grid tried)
        table, number, receiver = row
        config = exact.PipelineConfig(
            noise_kind, receiver, table, number,
            exact.TargetSpec(math.cos(theta), math.sin(theta)), grid, correlated)
        got, want = exact.sweep(config), pipeline.sweep(config)
        assert [s.boundary_extended for s in got.samples] == \
            [s.boundary_extended for s in want.samples]
        for g, w in zip(got.samples, want.samples):
            assert abs(g.fidelity ** 2 - w.fidelity ** 2) <= 2.5e-15
            assert abs(g.branch_probability - w.branch_probability) <= 5e-16

    @pytest.mark.parametrize("correlated", [True, False])
    def test_warns_as_the_library_path_at_the_callers_line(self, correlated):
        # the correlated channel loses trace and the uncorrelated one does not
        config = exact.default_config(step=0.25, correlated=correlated)
        for run in (exact.sweep, pipeline.sweep):
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                run(config)
            assert [(w.category, w.filename) for w in record] == (
                [(exact.TraceDeficitWarning, __file__)] if correlated else [])

    def test_branch_that_never_lives_is_rejected(self, monkeypatch):
        folds = (((0,) * 5, (0,) * 3),) * exact.S_ORDERS
        monkeypatch.setattr(exact, "_curves", lambda *key: (8, 1, {}, {}, {}, folds))
        with pytest.raises(exact.BranchProbabilityError,
                           match="ad bob table I row 1: the branch probability "
                                 "vanishes at every eta"):
            exact.sweep(exact.default_config())


class TestFidelityTexts:
    @pytest.mark.parametrize("cell", list(TIE_CELLS))
    @pytest.mark.parametrize("side", [0, 1])
    def test_tie_cells_print_their_exact_digit_on_either_path(self, cell, side):
        table, row, eta = cell
        alpha = (BELOW, ABOVE)[side]
        config = exact.default_config(
            "pd", "charlie" if table == "oracle" else "david",
            exact.TargetSpec(alpha, alpha), step=0.001, table=table, row=row,
            correlated=False)
        at = config.eta_grid.index(eta)
        for run in (exact.sweep, pipeline.sweep):
            assert exact.fidelity_texts(run(config))[at] == TIE_CELLS[cell][side]

    @pytest.mark.parametrize("fidelity,text", [(91 / 128, "0.710938"),
                                               (13 / 128, "0.101562")])
    @pytest.mark.parametrize("ends", [False, True])
    def test_true_tie_rounds_half_to_even(self, fidelity, text, ends,
                                          monkeypatch):
        # F^2 = (k / 128)^2 at the target (1, 0): at eta = 0.5 from the s^0
        # powers, and at a boundary-extended eta = 1 from the fold at j0 = 1
        k = round(fidelity * 128)
        power = 1 if ends else 0
        numerator, probability = (k * k, 0, 0, 0, 0), (128 * 128, 0, 0)
        # the eta = 1 folds: the curves' one power is eta^0 s^power
        folds = tuple((numerator, probability) if j == power
                      else ((0,) * 5, (0,) * 3) for j in range(exact.S_ORDERS))
        monkeypatch.setattr(exact, "_curves", lambda *key: (
            8, 1, {power: numerator}, {power: probability}, {}, folds))
        config = exact.default_config(spec=exact.TargetSpec(1.0, 0.0))
        sample = exact.FidelitySample(1.0 if ends else 0.5, fidelity, 0.0, ends)
        result = exact.SweepResult(config, (sample,))
        assert exact._side(config, sample, round(fidelity * 1e6 - 0.5)) == 0
        assert exact.fidelity_texts(result) == (text,) == (f"{fidelity:.6f}",)

    def test_far_from_a_tie_prints_the_float(self, monkeypatch):
        monkeypatch.setattr(exact, "_side", None)
        samples = tuple(exact.FidelitySample(eta, f, 0.5, False) for eta, f in
                        ((0.0, 1.0), (0.5, 0.84406249), (1.0, math.nan)))
        result = exact.SweepResult(exact.default_config(), samples)
        assert exact.fidelity_texts(result) == ("1.000000", "0.844062", "nan")

    def test_small_fidelity_window_covers_its_float_error(self):
        # AD oracle row 18 at eta = 0.99999: exact.sweep's F is 1.96e-12 below
        # the true 7.082310484e-6 (mpmath, 60 digits), past TIE_MARGIN's
        # 1e-12. A float off by that much from the boundary 7.5e-6 still has
        # its digit decided exactly: the true F lies below it
        config = exact.default_config(
            "ad", "charlie", exact.TargetSpec(ABOVE, BELOW), step=0.00001,
            table="oracle", row=18)
        sample = exact.FidelitySample(0.99999, 7.5e-6 + 1.96e-12, 0.5, False)
        assert f"{sample.fidelity:.6f}" == "0.000008"
        result = exact.SweepResult(config, (sample,))
        assert exact.fidelity_texts(result) == ("0.000007",)


def csv_lines(config, result):
    return [f"{config.noise_kind},{config.receiver},{config.table},"
            f"{config.row},{s.eta:g},{text}"
            for s, text in zip(result.samples, exact.fidelity_texts(result))]


class TestCliPathSelection:
    """Every CLI sweep runs exact.sweep, on any grid up to MAX_GRID_POINTS,
    and prints through fidelity_texts the CSV of the library's
    pipeline.sweep."""

    @staticmethod
    def run(argv, monkeypatch):
        """main(argv) with both sweeps spied on: (exit code, [(path, config)])."""
        paths = {"exact": exact.sweep, "library": pipeline.sweep}
        calls = []

        def spy(name):
            def run(config):
                calls.append((name, config))
                return paths[name](config)
            return run

        monkeypatch.setattr(exact, "sweep", spy("exact"))
        monkeypatch.setattr(pipeline, "sweep", spy("library"))
        return main(argv), calls

    def check(self, argv, points, tmp_path, monkeypatch):
        """The CLI's CSV of argv is the library's at the config exact.sweep ran."""
        out, library = tmp_path / "sweep.csv", pipeline.sweep
        code, calls = self.run(argv + ["--out", str(out)], monkeypatch)
        assert code == 0
        ((taken, config),) = calls
        assert taken == "exact"
        assert len(config.eta_grid) == points
        printed = out.read_text().splitlines()
        assert printed[0] == "noise,receiver,table,row,eta,fidelity"
        assert printed[1:] == csv_lines(config, library(config))

    @pytest.mark.parametrize("receiver", ["bob", "charlie", "david"])
    @pytest.mark.parametrize("noise_kind", ["ad", "pd"])
    @pytest.mark.parametrize("correlated", [True, False])
    @pytest.mark.parametrize("step,points", [(1 / 1023, 1024),
                                             (0.0009765625, 1025)])
    def test_csv_matches_the_other_path(self, receiver, noise_kind, correlated,
                                        step, points, tmp_path, monkeypatch):
        # the 1025-point grid holds the tie eta = 0.375
        argv = ["sweep", "--noise", noise_kind, "--receiver", receiver,
                "--step", repr(step)]
        self.check(argv + ([] if correlated else ["--uncorrelated-noise"]),
                   points, tmp_path, monkeypatch)

    def test_long_grid_csv_matches_the_other_path(self, tmp_path, monkeypatch):
        # 20,001 points: the library streams the grid through 20 chunks
        self.check(["sweep", "--receiver", "charlie", "--step", "0.00005"],
                   20_001, tmp_path, monkeypatch)
