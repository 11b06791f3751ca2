"""hrsp benchmark: seeded closed-loop workloads, one client, checked outputs.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root; the package is used from ./src unmodified.
Workloads and metrics are described in perfbench/README.md. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. The lines before it (starting with "#") repeat the
numbers for people, with the machine facts. The exit code is 0 only when
every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from checks import (GRID_POINTS, factorization_problems, fidelity_problems,
                    load_reference_curves, parse_sweep_csv,
                    reference_problems, verify_tables_problems)
from tracer import layer_metrics
from workloads import (ALL_ROWS, REFERENCE_ROWS, WORKLOADS, blocks,
                       traced_blocks)

HERE = Path(__file__).resolve().parent
#: scratch space inside the checkout (git-ignored)
BUILD_DIR = ".bench_build"
SETUP_CODE = "import hrsp; hrsp.protocol_state()"
#: host speed flips within seconds, so set-up is sampled across the run:
#: a fresh `import hrsp` before a timed CLI block at most this often, and
#: row-scan set-up-only workers before and after the timed worker
SETUP_INTERVAL_S = 1.5
#: untimed operations first, so caches and the CPU clock are warm
WARMUP_S = 3.0
#: a child still running after this long is killed; the row-scan worker,
#: which runs the timed loop itself, gets the run's seconds on top
CHILD_TIMEOUT_S = 120
#: the highest percentile reported needs at least ten samples beyond it
P90_MIN_SAMPLES = 100
#: fidelity points one operation produces
POINTS_PER_OP = {"sweep-cli": GRID_POINTS,
                 "row-scan": GRID_POINTS * len(ALL_ROWS)}


class Bench:
    """State of one benchmark run: children, timings, checks and spans."""

    def __init__(self, root: Path, tmp: Path, args):
        self.root, self.tmp = root, tmp
        self.workload, self.seed = args.workload, args.seed
        self.seconds, self.trace = args.seconds, bool(args.trace)
        pythonpath = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        # bytecode caches live under .bench_build whatever the caller's
        # settings, so every run imports from warm caches as users do
        self.env = dict(os.environ,
                        PYTHONPATH=os.pathsep.join(p for p in pythonpath if p),
                        PYTHONPYCACHEPREFIX=str(root / BUILD_DIR / "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.curves = load_reference_curves(root)
        self.blocks = blocks(self.workload, self.seed)
        self.attempted = self.failed = 0
        self.setup_walls: list[float] = []
        self.walls: list[float] = []
        self.traced_walls: list[float] = []
        self.op_classes: list[str] = []
        self.span_lists: list[list] = []
        self.peak_rss_kb = 0

    @contextmanager
    def child(self, args, stdout, timeout=CHILD_TIMEOUT_S):
        """Start python with args; kill it after timeout, and on any error."""
        with open(self.tmp / "stderr.txt", "a") as err:
            proc = subprocess.Popen([sys.executable, *map(str, args)],
                                    cwd=self.root, env=self.env,
                                    stdout=stdout, stderr=err, text=True)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            yield proc
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                reap(proc)

    def spawn(self, args, stdout_path: Path):
        """Run python with args to completion: (exit code, wall s, max RSS KB).

        The resource usage is this child's own, from os.wait4.
        """
        with open(stdout_path, "w") as out:
            t0 = perf_counter()
            with self.child(args, out) as proc:
                code, usage = reap(proc)
            wall = perf_counter() - t0
        return code, wall, usage.ru_maxrss

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"# FAIL {label}: {'; '.join(problems[:3])}",
                  file=sys.stderr)

    def cli_setup(self) -> None:
        """Time one fresh interpreter that imports hrsp."""
        code, wall, _ = self.spawn(["-c", SETUP_CODE], self.tmp / "setup")
        if code != 0:
            raise SystemExit(f"error: `{SETUP_CODE}` exited with {code}")
        self.setup_walls.append(wall)

    def run_blocks(self, check, timed: bool, seconds=math.inf, count=None):
        """Whole blocks of CLI operations, until seconds have passed or count
        blocks are done. Timed untraced blocks are interleaved with set-up
        samples."""
        start = next_setup = perf_counter()
        for done, block in enumerate(self.blocks, start=1):
            if timed and not self.trace and perf_counter() >= next_setup:
                self.cli_setup()
                next_setup = perf_counter() + SETUP_INTERVAL_S
            for op in block:
                self.cli_op(op, timed, check)
            if done == count or perf_counter() - start >= seconds:
                break

    def cli_op(self, op, timed: bool, check) -> None:
        """Run one CLI operation and, when tracing, its traced twin.

        check(op, exit code, stdout, output file text) returns the problems.
        The traced twin must give the same exit code, stdout and output.
        """
        code, wall, rss, *output = self._cli(["-m", "hrsp.cli"], op)
        problems = check(op, code, *output)
        if timed and self.trace:
            spans = self.tmp / "spans.json"
            traced = self._cli([HERE / "launcher.py", spans, op.index, "--"], op)
            if [traced[0], *traced[3:]] != [code, *output]:
                problems.append("traced run differs from untraced")
            self.traced_walls.append(traced[1])
            self.span_lists.append(json.loads(_read(spans) or "[]"))
        if timed:
            self.walls.append(wall)
            self.op_classes.append(op.cls)
            self.peak_rss_kb = max(self.peak_rss_kb, rss)
        self.record(f"op {op.index} {' '.join(op.cli_args())}", problems)

    def _cli(self, prefix, op):
        """(exit code, wall s, max RSS KB, stdout, --out file text)."""
        args = [*prefix, *op.cli_args()]
        out_file = self.tmp / "sweep.csv"
        if op.noise:
            args += ["--out", out_file]
        code, wall, rss = self.spawn(args, self.tmp / "op.out")
        return code, wall, rss, _read(self.tmp / "op.out"), _read(out_file)


def reap(proc):
    """Wait for proc; (exit code, its own resource usage)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _read(path: Path) -> str:
    """Text of path ("" if missing); the file is removed."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return ""
    finally:
        path.unlink(missing_ok=True)


# -- workloads ----------------------------------------------------------------
def sweep_problems(op, code, _stdout, text) -> list[str]:
    fids, problems = parse_sweep_csv(text, op.noise, op.receiver, op.table,
                                     op.row)
    problems += fidelity_problems(fids, confirmed=True)
    if code != 0:
        problems.append(f"exit code {code}")
    return problems


def audit_problems(op, code, stdout, _text) -> list[str]:
    if op.cls == "verify-tables":
        return verify_tables_problems(code, stdout)
    return factorization_problems(op.receiver, code, stdout)


def sweep_cli(b: Bench) -> None:
    """Fresh `hrsp sweep` processes over {ad, pd} x {bob, charlie, david}."""
    for noise in ("ad", "pd"):
        for receiver, (table, row) in REFERENCE_ROWS.items():
            csv = b.tmp / "reference.csv"
            code, _, _ = b.spawn(["-m", "hrsp.cli", "sweep", "--noise", noise,
                                  "--receiver", receiver, "--out", csv],
                                 b.tmp / "op.out")
            fids, problems = parse_sweep_csv(_read(csv), noise, receiver,
                                             table, row)
            problems += reference_problems(fids, b.curves[(noise, receiver)])
            if code != 0:
                problems.append(f"exit code {code}")
            b.record(f"reference {noise}/{receiver}", problems)
    _cli_workload(b, sweep_problems)


def table_audit(b: Bench) -> None:
    """Fresh verify-tables / verify-factorization processes."""
    _cli_workload(b, audit_problems)


def _cli_workload(b: Bench, check) -> None:
    b.run_blocks(check, timed=False, seconds=WARMUP_S)
    if b.trace:
        b.run_blocks(check, timed=True,
                     count=traced_blocks(b.workload, b.seconds))
    else:
        b.run_blocks(check, timed=True, seconds=b.seconds)


def row_scan(b: Bench) -> None:
    """One worker process sweeping all 72 rows per operation, warm cache."""
    if b.trace:
        spans = b.tmp / "spans.json"
        _row_scan_worker(b, ["--spans", spans])
        b.span_lists.append(json.loads(_read(spans) or "[]"))
        return
    _row_scan_worker(b, ["--setup-only"])
    _row_scan_worker(b, [])
    _row_scan_worker(b, ["--setup-only"])


def _row_scan_worker(b: Bench, extra_args) -> None:
    """Run one worker and record its set-up time, operations and checks."""
    args = [HERE / "rowscan.py", "--seed", b.seed, "--seconds", b.seconds,
            *extra_args]
    t0 = perf_counter()
    with b.child(args, subprocess.PIPE, CHILD_TIMEOUT_S + b.seconds) as proc:
        for line in proc.stdout:
            event = json.loads(line)
            if event["event"] == "ready":
                b.setup_walls.append(perf_counter() - t0)
                b.record("row-scan set-up", event["problems"])
                continue
            b.walls.append(event["wall_s"])
            b.op_classes.append(event["cls"])
            if "traced_wall_s" in event:
                b.traced_walls.append(event["traced_wall_s"])
            b.record(f"op {event['index']} row-scan {event['cls']}",
                     event["problems"])
        proc.stdout.close()
        code, usage = reap(proc)
    b.peak_rss_kb = max(b.peak_rss_kb, usage.ru_maxrss)
    if code != 0:
        b.record("row-scan worker", [f"exit code {code}"])


RUNNERS = {"sweep-cli": sweep_cli, "row-scan": row_scan,
           "table-audit": table_audit}


# -- reporting ----------------------------------------------------------------
def by_class(walls, classes) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for wall, cls in zip(walls, classes):
        out.setdefault(cls, []).append(wall)
    return dict(sorted(out.items()))


def class_median(walls, classes) -> float:
    """Median across operation classes of each class's median wall time.

    Classes differ several-fold in cost and have exact, equal shares, so the
    plain median of all operations falls in a gap between two classes and
    jumps with single outliers; the median of class medians does not.
    """
    return statistics.median(statistics.median(w)
                             for w in by_class(walls, classes).values())


def end_to_end(b: Bench) -> dict:
    return {
        "setup_s": {"value": statistics.median(b.setup_walls), "unit": "s"},
        "op_p50_s": {"value": class_median(b.walls, b.op_classes),
                     "unit": "s"},
        "ops_per_s": {"value": len(b.walls) / sum(b.walls), "unit": "1/s"},
        "peak_rss_mb": {"value": b.peak_rss_kb / 1024, "unit": "MB"},
    }


def machine_facts() -> str:
    import numpy as np

    facts = {"nproc": len(os.sched_getaffinity(0)),
             "python": platform.python_version(), "numpy": np.__version__}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name"))
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size",
                  encoding="utf-8") as fh:
            facts["l3"] = fh.read().strip()
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    facts["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS",
                                           f"default ({facts['nproc']})")
    return " ".join(f"{k}={v}" for k, v in facts.items())


def summary(b: Bench, metrics: dict) -> list[str]:
    n = len(b.walls)
    lines = [f"# hrsp benchmark workload={b.workload} seed={b.seed} "
             f"seconds={b.seconds:g} trace={int(b.trace)} "
             "(closed loop, one client)",
             f"# machine {machine_facts()}",
             f"# timed ops={n} checked={b.attempted} failed={b.failed} "
             f"failed_ratio={b.failed / b.attempted:.4f} (1)"]
    lines += [f"# {name} = {m['value']:.6g} {m['unit']}"
              for name, m in metrics.items()]
    lines += [f"#   {cls}: {len(w)} ops, median {statistics.median(w):.4f} s"
              for cls, w in by_class(b.walls, b.op_classes).items()]
    if not b.trace:
        if n >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(b.walls, n=10)[-1]
            lines.append(f"# op_p90_s = {p90:.6g} s")
        else:
            lines.append(f"# op_p90_s not reported: {n} ops, it needs "
                         f"{P90_MIN_SAMPLES}")
        if b.workload in POINTS_PER_OP:
            rate = POINTS_PER_OP[b.workload] * n / sum(b.walls)
            lines.append(f"# points_per_s = {rate:.6g} 1/s")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    for needed in (root / "src" / "hrsp" / "__init__.py",
                   root / "tests" / "reference_data.py"):
        if not needed.is_file():
            print(f"error: {needed} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    build = root / BUILD_DIR
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build) as tmp:
        bench = Bench(root, Path(tmp), args)
        RUNNERS[args.workload](bench)
    if not bench.walls:
        print("error: no operation completed", file=sys.stderr)
        return 1
    if bench.trace:
        overhead = (class_median(bench.traced_walls, bench.op_classes)
                    - class_median(bench.walls, bench.op_classes))
        metrics = layer_metrics(bench.span_lists, bench.traced_walls, overhead)
    else:
        metrics = end_to_end(bench)
    print("\n".join(summary(bench, metrics)))
    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
