"""Command-line surface: verify factorizations and tables, run sweeps.

Commands
--------
verify-factorization   reassemble a published factorization, report residual
verify-tables          check every correction table row against the oracle
sweep                  fidelity vs noise, CSV output

Exit codes follow the documented contract: 0 success, 1 for a failed check
or unwritable output, 2 for bad parameters.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .pipeline import default_config, sweep
from .protocol import CORRECTION_TABLES, format_table_report, verify_table
from .states import TargetSpec, verify_factorization

RESIDUAL_GATE = 1e-12


def _target_spec(alpha: float, beta: float) -> TargetSpec:
    try:
        return TargetSpec(alpha, beta)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _cmd_verify_factorization(args) -> int:
    spec = _target_spec(args.alpha, args.beta)
    report = verify_factorization(args.variant, spec)
    print(f"variant={report.variant} alpha={args.alpha:g} beta={args.beta:g} "
          f"residual={report.residual:.3e}")
    if report.residual < RESIDUAL_GATE:
        print("reassembly matches the protocol state")
        return 0
    print("reassembly deviates from the protocol state; offending published "
          "terms:")
    for line in report.mismatched_lines:
        print(f"  {line.sender_outcome} line {line.line_index} "
              f"(outcomes {'|'.join(line.outcome_labels)}): "
              f"max term deviation {line.max_diff:.3e}")
    return 1


def _cmd_verify_tables(args) -> int:
    verdicts = {t: verify_table(t) for t in CORRECTION_TABLES}
    print(format_table_report(verdicts))
    bad = [rv for rv in verdicts["I"] if rv.verdict == "mismatch"]
    if bad:
        print(f"table I has {len(bad)} mismatching row(s)")
        return 1
    print("table I fully confirmed (all rows reach fidelity 1 and agree "
          "with the oracle on the collapsed branch)")
    return 0


def _cmd_sweep(args) -> int:
    spec = _target_spec(args.alpha, args.beta)
    try:
        config = default_config(
            noise_kind=args.noise, receiver=args.receiver, spec=spec,
            step=args.step, table=args.table, row=args.row,
            correlated=not args.uncorrelated_noise)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    result = sweep(config)
    rows = ["noise,receiver,table,row,eta,fidelity"]
    for s in result.samples:
        rows.append(f"{config.noise_kind},{config.receiver},{config.table},"
                    f"{config.row},{s.eta:g},{s.fidelity:.6f}")
    csv_text = "\n".join(rows) + "\n"
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1

    first, last = result.samples[0], result.samples[-1]
    mode = "correlated" if config.correlated else (
        "uncorrelated baseline (product channel, not the protocol model)")
    print(f"sweep {config.noise_kind} {config.receiver} table {config.table} "
          f"row {config.row}, {mode}, {len(result.samples)} points -> {args.out}")
    print(f"F({first.eta:g}) = {first.fidelity:.6f}")
    tail = ""
    if last.boundary_extended:
        tail = (f"  [branch probability vanishes at eta={last.eta:g}; value is "
                f"the exact limit as eta -> {last.eta:g}]")
    print(f"F({last.eta:g}) = {last.fidelity:.6f}{tail}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrsp",
        description="hierarchical remote state preparation simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-factorization",
                       help="reassemble a published factorization and report "
                            "the residual against the protocol state")
    p.add_argument("--variant", choices=("bob", "david"), default="bob")
    p.add_argument("--alpha", type=float, default=1 / np.sqrt(2))
    p.add_argument("--beta", type=float, default=1 / np.sqrt(2))
    p.set_defaults(func=_cmd_verify_factorization)

    p = sub.add_parser("verify-tables",
                       help="verify all correction tables row by row against "
                            "the brute-force oracle")
    p.set_defaults(func=_cmd_verify_tables)

    p = sub.add_parser("sweep", help="fidelity vs noise parameter, CSV output")
    p.add_argument("--noise", choices=("ad", "pd"), default="ad")
    p.add_argument("--receiver", choices=("bob", "charlie", "david"),
                   default="bob")
    p.add_argument("--alpha", type=float, default=1 / np.sqrt(2))
    p.add_argument("--beta", type=float, default=1 / np.sqrt(2))
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--table", choices=("I", "II", "III", "oracle"), default=None)
    p.add_argument("--row", type=int, default=1)
    p.add_argument("--out", default="sweep.csv")
    p.add_argument("--uncorrelated-noise", action="store_true",
                   help="independent per-qubit baseline instead of the "
                        "protocol's correlated channel (reference only)")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
