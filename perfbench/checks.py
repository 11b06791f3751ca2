"""Output checks. Each returns a list of problems; an empty list is a pass."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from workloads import MISMATCH_ROWS

FIDELITY_TOL = 1e-9
REFERENCE_TOL = 1e-6
GRID_POINTS = 11
CSV_HEADER = "noise,receiver,table,row,eta,fidelity"
#: eta column of a step-0.1 sweep, as the CLI prints it
ETA_TEXT = tuple(f"{round(0.1 * i, 10):g}" for i in range(GRID_POINTS))
#: the Bob limit eta -> 1 lies near 1/sqrt(2); only a range is asserted
BOB_LIMIT_FLOOR = 0.70


def load_reference_curves(root: Path) -> dict:
    """CURVES from the repository's frozen reference data (read-only)."""
    path = root / "tests" / "reference_data.py"
    spec = importlib.util.spec_from_file_location("hrsp_reference_data", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CURVES


def sweep_csv(noise, receiver, table, row, samples) -> str:
    """The CLI's CSV text for (eta, fidelity) samples."""
    lines = [CSV_HEADER]
    lines += [f"{noise},{receiver},{table},{row},{eta:g},{f:.6f}"
              for eta, f in samples]
    return "\n".join(lines) + "\n"


def parse_sweep_csv(text: str, noise, receiver, table, row):
    """(fidelities, problems) for one sweep CSV written by the CLI."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [], ["CSV header missing or wrong"]
    fids, problems = [], []
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        if len(fields) != 6 or fields[:4] != [noise, receiver, table, str(row)]:
            problems.append(f"CSV row {i + 1} malformed: {line!r}")
            continue
        if i >= GRID_POINTS or fields[4] != ETA_TEXT[i]:
            problems.append(f"CSV row {i + 1} has eta {fields[4]!r}")
        try:
            fids.append(float(fields[5]))
        except ValueError:
            problems.append(f"CSV row {i + 1} fidelity {fields[5]!r}")
    return fids, problems


def fidelity_problems(fids, confirmed: bool) -> list[str]:
    """11 samples, all in [0, 1], and F(0) = 1 for a confirmed row."""
    problems = []
    if len(fids) != GRID_POINTS:
        problems.append(f"{len(fids)} samples, expected {GRID_POINTS}")
    bad = [f for f in fids if not 0.0 <= f <= 1.0 + FIDELITY_TOL]
    if bad:
        problems.append(f"fidelity outside [0, 1]: {bad[:3]}")
    if confirmed and fids and fids[0] < 1.0 - FIDELITY_TOL:
        problems.append(f"F(0) = {fids[0]!r} for a confirmed row")
    return problems


def reference_problems(fids, curve) -> list[str]:
    """Compare with a frozen curve; a None entry (Bob at eta = 1) is checked
    by range, 0.70 < F <= F(0.9), so an exact-limit evaluation also passes."""
    if len(fids) != len(curve):
        return [f"{len(fids)} samples, reference has {len(curve)}"]
    problems = []
    for i, (f, ref) in enumerate(zip(fids, curve)):
        if ref is None:
            if not BOB_LIMIT_FLOOR < f <= fids[i - 1]:
                problems.append(f"boundary F = {f!r} outside "
                                f"({BOB_LIMIT_FLOOR}, {fids[i - 1]!r}]")
        elif abs(f - ref) > REFERENCE_TOL:
            problems.append(f"F[{i}] = {f!r}, reference {ref!r}")
    return problems


def verify_tables_problems(code: int, out: str) -> list[str]:
    """Exit 0, the known mismatch set exactly, 32 Charlie rows at F = 1."""
    problems = [] if code == 0 else [f"exit code {code}, expected 0"]
    lines = out.splitlines()
    mismatches = {(line.split()[0], int(line.split()[1])) for line in lines
                  if line.endswith(" mismatch")}
    if mismatches != MISMATCH_ROWS:
        problems.append(f"mismatch rows {sorted(mismatches)}, expected "
                        f"{sorted(MISMATCH_ROWS)}")
    charlie = [line for line in lines if line.startswith("oracle ")]
    perfect = [line for line in charlie if "F=(1.000000,1.000000)" in line]
    if len(charlie) != 32 or len(perfect) != 32:
        problems.append(f"{len(charlie)} Charlie rows, {len(perfect)} at F = 1; "
                        "expected 32 and 32")
    return problems


def factorization_problems(variant: str, code: int, out: str) -> list[str]:
    """Bob's factorization reassembles; David's lists 3 misprinted lines."""
    if variant == "bob":
        if code != 0 or "reassembly matches the protocol state" not in out:
            return [f"bob factorization: exit {code}, expected 0 and a match"]
        return []
    lines = out.count("max term deviation")
    if code != 1 or lines != 3:
        return [f"david factorization: exit {code} with {lines} lines, "
                "expected exit 1 with 3 lines"]
    return []
