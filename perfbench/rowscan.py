"""Row-scan worker: library use of hrsp, one process, warm noisy-state cache.

    python perfbench/rowscan.py --seed N --seconds S [--setup-only] [--spans FILE]

Set-up imports hrsp, derives Charlie's oracle table and runs one untimed
scan per noise kind at the reference target, which fills the noisy-state
cache and is checked against the frozen reference curves. The worker then
prints {"event": "ready"} and runs operation blocks until S seconds have
passed, printing one JSON line per operation. An operation sweeps all 72
table rows at step 0.1 for a seeded real target. With --spans every
operation runs twice, untraced and then traced, for a number of blocks
fixed by S; the CSV texts of the two runs must be identical, and the spans
are written to FILE at exit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

import hrsp.pipeline
from hrsp.states import TargetSpec

from checks import (fidelity_problems, load_reference_curves,
                    reference_problems, sweep_csv)
from tracer import Tracer
from workloads import (ALL_ROWS, MISMATCH_ROWS, REFERENCE_ALPHA,
                       REFERENCE_BETA, REFERENCE_ROWS, blocks, traced_blocks)


def scan(noise: str, spec: TargetSpec):
    """Sweep every table row; returns [(table, row, receiver, fidelities)]
    and the CSV text the CLI would write for each row, concatenated."""
    out, csv = [], []
    for table, row, receiver in ALL_ROWS:
        config = hrsp.pipeline.default_config(
            noise_kind=noise, receiver=receiver, spec=spec, table=table, row=row)
        samples = [(s.eta, s.fidelity)
                   for s in hrsp.pipeline.sweep(config).samples]
        out.append((table, row, receiver, [f for _, f in samples]))
        csv.append(sweep_csv(noise, receiver, table, row, samples))
    return out, "".join(csv)


def scan_problems(results) -> list[str]:
    problems = []
    for table, row, receiver, fids in results:
        confirmed = (table, row) not in MISMATCH_ROWS
        problems += [f"{table}-{row} {receiver}: {p}"
                     for p in fidelity_problems(fids, confirmed)]
    return problems


def setup(curves) -> list[str]:
    """Fill the cache with one scan per noise kind; check the reference rows."""
    spec = TargetSpec(REFERENCE_ALPHA, REFERENCE_BETA)
    problems = []
    for noise in ("ad", "pd"):
        results, _ = scan(noise, spec)
        problems += scan_problems(results)
        for table, row, receiver, fids in results:
            if REFERENCE_ROWS.get(receiver) == (table, row):
                problems += [f"reference {noise}/{receiver}: {p}"
                             for p in reference_problems(
                                 fids, curves[(noise, receiver)])]
    return problems


def emit(event: dict) -> None:
    print(json.dumps(event), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    curves = load_reference_curves(Path.cwd())
    emit({"event": "ready", "problems": setup(curves)})
    if args.setup_only:
        return 0

    tracer = Tracer() if args.spans else None
    count = traced_blocks("row-scan", args.seconds) if tracer else None
    start = perf_counter()
    for done, block in enumerate(blocks("row-scan", args.seed), start=1):
        for op in block:
            spec = TargetSpec(op.alpha, op.beta)
            t0 = perf_counter()
            results, csv = scan(op.noise, spec)
            event = {"event": "op", "index": op.index, "cls": op.cls,
                     "wall_s": perf_counter() - t0,
                     "problems": scan_problems(results)}
            if tracer:
                tracer.op_id = op.index
                tracer.install()
                try:
                    t0 = perf_counter()
                    _, traced_csv = scan(op.noise, spec)
                    event["traced_wall_s"] = perf_counter() - t0
                finally:
                    tracer.uninstall()
                if traced_csv != csv:
                    event["problems"].append("traced CSV differs from untraced")
            emit(event)
        if done == count or (not tracer and
                             perf_counter() - start >= args.seconds):
            break
    if tracer:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
