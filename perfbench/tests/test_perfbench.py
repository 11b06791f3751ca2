"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hrsp  # noqa: E402
import hrsp.cli  # noqa: E402
import run  # noqa: E402
from checks import (factorization_problems, sweep_csv,  # noqa: E402
                    verify_tables_problems)
from tracer import LAYERS, Tracer, layer_metrics  # noqa: E402
from workloads import (CLASSES, MISMATCH_ROWS, WORKLOADS,  # noqa: E402
                       blocks)


def first_blocks(workload, seed, n=5):
    return list(itertools.islice(blocks(workload, seed), n))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_operations(workload):
    assert first_blocks(workload, 7) == first_blocks(workload, 7)
    assert first_blocks(workload, 7) != first_blocks(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_block_holds_every_class_once(workload):
    for block in first_blocks(workload, 3, n=20):
        assert sorted(op.cls for op in block) == sorted(CLASSES[workload])


def test_sweeps_draw_only_rows_that_verify():
    ops = [op for block in first_blocks("sweep-cli", 1, n=200) for op in block]
    assert not {(op.table, op.row) for op in ops} & MISMATCH_ROWS
    assert {op.receiver for op in ops} == {"bob", "charlie", "david"}


OP = next(blocks("sweep-cli", 1))[0]


def good_csv(op=OP):
    samples = [(round(0.1 * i, 10), 1.0 - 0.01 * i) for i in range(11)]
    return sweep_csv(op.noise, op.receiver, op.table, op.row, samples)


def test_good_csv_passes():
    assert run.sweep_problems(OP, 0, "", good_csv()) == []


@pytest.mark.parametrize("corrupt", [
    lambda t: t.replace("0.990000", "x.990000"),      # unparsable fidelity
    lambda t: "\n".join(t.splitlines()[:-1]) + "\n",  # a row missing
    lambda t: t.replace(",0.1,", ",0.2,"),            # wrong eta
    lambda t: t.replace(f",{OP.receiver},", ",alice,", 1),  # wrong receiver
    lambda t: t.replace("0.900000", "1.900000"),      # fidelity above 1
    lambda t: t.replace(",0,1.000000", ",0,0.500000"),  # F(0) < 1
    lambda t: "",                                     # no file written
])
def test_corrupted_csv_counts_as_failure(corrupt, tmp_path):
    bench = make_bench(tmp_path)
    run_faked(bench, code=0, text=corrupt(good_csv()))
    assert (bench.attempted, bench.failed) == (1, 1)


def test_wrong_exit_code_counts_as_failure(tmp_path):
    bench = make_bench(tmp_path)
    run_faked(bench, code=0, text=good_csv())
    run_faked(bench, code=1, text=good_csv())
    assert (bench.attempted, bench.failed) == (2, 1)


def make_bench(tmp_path):
    args = argparse.Namespace(workload="sweep-cli", seed=1, seconds=1, trace=0)
    return run.Bench(ROOT, tmp_path, args)


def run_faked(bench, code, text):
    """Run one sweep-cli operation through the runner with a faked child."""
    bench._cli = lambda prefix, op: (code, 0.1, 1024, "", text)
    bench.cli_op(OP, True, run.sweep_problems)


def test_checks_accept_the_program_output(capsys):
    assert hrsp.cli.main(["verify-tables"]) == 0
    assert verify_tables_problems(0, capsys.readouterr().out) == []
    assert verify_tables_problems(1, "") != []
    code = hrsp.cli.main(["verify-factorization", "--variant", "david"])
    assert factorization_problems("david", code, capsys.readouterr().out) == []
    code = hrsp.cli.main(["verify-factorization", "--variant", "bob"])
    assert factorization_problems("bob", code, capsys.readouterr().out) == []


def bindings():
    modules = [hrsp] + [getattr(hrsp, m) for m in LAYERS]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}


def test_tracer_records_spans_and_removes_its_wrappers():
    before = bindings()
    tracer = Tracer()
    tracer.op_id = 4
    tracer.install()
    try:
        # the caller's own binding is the one that must be wrapped
        assert hrsp.pipeline.apply_channel is not before[("hrsp.noise",
                                                          "apply_channel")]
        config = hrsp.pipeline.default_config("ad", "david", step=0.5)
        hrsp.pipeline.sweep(config)
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    names = {span[0] for span in tracer.spans}
    assert {"pipeline.sweep", "pipeline.run_eta", "noise.apply_channel",
            "linalg.partial_trace"} <= names
    assert all(span[4] == 4 for span in tracer.spans)
    channel = next(s for s in tracer.spans if s[0] == "noise.apply_channel")
    assert tracer.spans[channel[3]][0] == "pipeline.noisy_protocol_state"
    assert channel[5] == [8, 128]


def test_layer_metrics_self_time_and_ratios():
    spans = [["pipeline.sweep", 0.0, 20.0, -1, 0, "bob"],
             ["pipeline.run_eta", 0.0, 10.0, 0, 0, True],
             ["pipeline.noisy_protocol_state", 1.0, 4.0, 1, 0, None],
             ["noise.apply_channel", 2.0, 3.0, 2, 0, [8, 128]],
             ["pipeline.noisy_protocol_state", 5.0, 6.0, 1, 0, None]]
    m = layer_metrics([spans], traced_walls=[30.0, 30.0], overhead_s=0.5)
    value = {k: v["value"] for k, v in m.items()}
    assert value["pipeline.run_eta.self_s"] == pytest.approx(6.0 / 2)
    assert value["pipeline.noisy_protocol_state.hit_ratio"] == 0.5
    assert value["pipeline.evaluations_per_point"] == 2.0
    assert value["pipeline.evaluations_per_point.bob"] == 2.0
    assert value["pipeline.evaluations_per_point.david"] == 0.0
    assert value["pipeline.boundary_extended.count"] == 0.5
    assert value["noise.apply_channel.gflop_computed"] == pytest.approx(
        8 * 16 * 128 ** 3 / 1e9 / 2)
    assert value["cli.process_overhead_s"] == 0.0
    assert value["trace.overhead_s"] == 0.5
