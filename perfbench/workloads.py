"""Seeded, stratified operation lists for the three benchmark workloads.

Every workload cycles through a fixed set of operation classes in blocks:
each block holds every class exactly once, in an order drawn from the seed.
Runs stop only at block boundaries, so class shares are exact and a median
does not drift with the draw. Everything here is a pure function of the
seed; nothing imports hrsp.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import count

WORKLOADS = ("sweep-cli", "row-scan", "table-audit")

NOISE_KINDS = ("ad", "pd")
RECEIVERS = ("bob", "charlie", "david")

#: published rows that fail at every real target (the verify-tables finding)
MISMATCH_ROWS = frozenset({("II", 15), ("III", 6), ("III", 14), ("III", 16)})

#: (table, row) pairs each receiver can be corrected with; "oracle" is
#: Charlie's derived table
TABLE_ROWS = {
    "bob": tuple(("I", r) for r in range(1, 9)),
    "david": tuple((t, r) for t in ("II", "III") for r in range(1, 17)),
    "charlie": tuple(("oracle", r) for r in range(1, 33)),
}

#: rows whose noiseless fidelity is 1, so F(eta=0) can be checked
CONFIRMED_ROWS = {rec: tuple(tr for tr in rows if tr not in MISMATCH_ROWS)
                  for rec, rows in TABLE_ROWS.items()}

#: rows a sweep-cli operation draws from. Bob's rows are those whose branch
#: vanishes at eta = 1 under both noise kinds (collaborator outcome 01 or
#: 10), so every Bob sweep takes the boundary path and a class's time does
#: not depend on the draw; row-scan covers the other Bob rows.
SWEEP_ROWS = dict(CONFIRMED_ROWS,
                  bob=(("I", 1), ("I", 2), ("I", 5), ("I", 6)))

#: all 72 rows a row-scan operation sweeps, as (table, row, receiver)
ALL_ROWS = tuple((t, r, rec) for rec in ("bob", "david", "charlie")
                 for t, r in TABLE_ROWS[rec])

#: the frozen reference curves: alpha = beta = 1/sqrt(2) and these (table,
#: row) pairs, which are also the CLI defaults
REFERENCE_ALPHA = REFERENCE_BETA = 1 / math.sqrt(2)
REFERENCE_ROWS = {"bob": ("I", 1), "david": ("II", 1)}

#: targets stay this far (radians) from the axes, where alpha or beta
#: vanishes and misprinted factorization lines stop being visible
AXIS_MARGIN = 0.15

AUDIT_CLASSES = ("verify-tables", "factorization-bob", "factorization-david")
CLASSES = {
    "sweep-cli": tuple(f"{n}/{r}" for n in NOISE_KINDS for r in RECEIVERS),
    "row-scan": NOISE_KINDS,
    "table-audit": AUDIT_CLASSES,
}


#: nominal seconds of one traced block, whose operations each run twice.
#: A traced run executes a number of whole blocks fixed by its seconds, not
#: by the clock, so its per-operation counts repeat exactly for a seed.
TRACED_BLOCK_S = {"sweep-cli": 6.0, "row-scan": 6.5, "table-audit": 1.5}


def traced_blocks(workload: str, seconds: float) -> int:
    return max(1, round(seconds / TRACED_BLOCK_S[workload]))


@dataclass(frozen=True)
class Op:
    """One benchmark operation. Fields a class does not use stay None."""

    index: int
    cls: str
    noise: str | None = None
    receiver: str | None = None
    table: str | None = None
    row: int | None = None
    alpha: float | None = None
    beta: float | None = None

    def cli_args(self) -> list[str]:
        """hrsp CLI arguments, without --out (sweep-cli, table-audit)."""
        if self.cls == "verify-tables":
            return ["verify-tables"]
        target = ["--alpha", repr(self.alpha), "--beta", repr(self.beta)]
        if self.cls.startswith("factorization-"):
            return ["verify-factorization", "--variant", self.receiver, *target]
        return ["sweep", "--noise", self.noise, "--receiver", self.receiver,
                "--table", self.table, "--row", str(self.row), *target]


def real_target(rng: random.Random) -> tuple[float, float]:
    """(cos theta, sin theta) in a random quadrant, away from the axes."""
    quadrant = rng.randrange(4)
    theta = quadrant * math.pi / 2 + rng.uniform(AXIS_MARGIN,
                                                 math.pi / 2 - AXIS_MARGIN)
    return math.cos(theta), math.sin(theta)


def _make_op(workload: str, index: int, cls: str, rng: random.Random) -> Op:
    if workload == "sweep-cli":
        noise, receiver = cls.split("/")
        table, row = rng.choice(SWEEP_ROWS[receiver])
        alpha, beta = real_target(rng)
        return Op(index, cls, noise=noise, receiver=receiver, table=table,
                  row=row, alpha=alpha, beta=beta)
    if workload == "row-scan":
        alpha, beta = real_target(rng)
        return Op(index, cls, noise=cls, alpha=alpha, beta=beta)
    if cls == "verify-tables":
        return Op(index, cls)
    alpha, beta = real_target(rng)
    return Op(index, cls, receiver=cls.split("-")[1], alpha=alpha, beta=beta)


def blocks(workload: str, seed: int):
    """Endless sequence of operation blocks; a pure function of the seed."""
    if workload not in CLASSES:
        raise ValueError(f"unknown workload {workload!r}, expected one of "
                         f"{WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    index = count()
    while True:
        order = rng.sample(CLASSES[workload], len(CLASSES[workload]))
        yield [_make_op(workload, next(index), cls, rng) for cls in order]
