"""End-to-end noisy protocol runs: contract, normalize, correct, score.

A sweep contracts |Psi> with the sender's bra, the Kraus stacks of GRID_BLOCK
etas and the collaborators' bras into W (states.branch_amplitudes), whose rows
w_k make the receiver's state rho = W^T W* / p = sum_k |w_k><w_k| / p, with
p = ||W||^2 the branch probability. The target xi = alpha|00> + beta|11> is
pure, so the fidelity of the corrected state O rho O^dag is
sqrt(<xi|O rho O^dag|xi>) = ||W u|| / sqrt(p) with u = O^T xi*: a sweep forms
no 4x4 matrix. This is the package's only route to the receiver's state; the
dense 128x128 chain (channel, measurement operator, partial trace) and the
Uhlmann fidelity that the tests hold it against live in tests/dense_oracle.py.

A block's channel (its Kraus stacks and per-eta trace deficit) depends only
on the noise kind, the etas and the channel mode, so it is built once and
kept in a CHANNEL_CACHE_SIZE-entry cache: repeated sweeps of one grid in a
process (every row of a table scan) reuse it, but only while a sweep makes
at most CHANNEL_CACHE_SIZE block evaluations (one per GRID_BLOCK points plus
one per boundary extension); a 1001-point grid cycles the cache and a repeat
sweep gets no hits. The trace-deficit warning is checked on every
evaluation, cached or not.

Where a Bob outcome's probability vanishes identically at eta = 1 (every
damping path annihilates it), that grid point is a continuous extension: the
largest eta on a deterministic ladder, evaluated as one block, whose branch
probability is >= 1e-10. Such samples carry boundary_extended = True.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .noise import (NOISE_KINDS, kraus_operators, party_kraus_stack,
                    warn_trace_deficit)
from .protocol import (CORRECTION_TABLES, DERIVED_TABLE_ROWS, CorrectionRule,
                       check_row, derived_rule)
from .states import TargetSpec, branch_amplitudes, channel_trace, target_state

BRANCH_PROBABILITY_FLOOR = 1e-12
EXTENSION_PROBABILITY = 1e-10
GRID_BLOCK = 32             # etas contracted together; bounds a sweep's memory
MAX_GRID_POINTS = 100_001   # step 1e-5; bounds the samples a sweep holds
#: channel blocks kept per process; one is at most 9 x 4 x 4 complex per eta
#: (uncorrelated PD) times GRID_BLOCK etas = 72 KiB, so the cache is <= 1.2 MB
CHANNEL_CACHE_SIZE = 16


class BranchProbabilityError(ValueError):
    """Conditioning on an outcome whose probability is numerically zero."""


def _rule_for(table: str, row: int) -> CorrectionRule:
    oracle = table == "oracle"
    if not oracle and table not in CORRECTION_TABLES:
        raise ValueError(f"unknown table {table!r}, expected one of "
                         f"{(*CORRECTION_TABLES, 'oracle')}")
    rows = DERIVED_TABLE_ROWS if oracle else len(CORRECTION_TABLES[table])
    check_row(row, rows, f"table {table}")
    if oracle:
        return derived_rule("charlie", row)
    return CORRECTION_TABLES[table][row - 1]


@dataclass(frozen=True)
class PipelineConfig:
    """One sweep: noise kind, receiver row, target parameters, eta grid."""

    noise_kind: str
    receiver: str
    table: str
    row: int
    spec: TargetSpec
    eta_grid: tuple[float, ...]
    correlated: bool = True

    def __post_init__(self):
        if self.noise_kind not in NOISE_KINDS:
            raise ValueError(f"noise_kind must be one of {NOISE_KINDS}")
        grid = self.eta_grid
        if len(grid) > MAX_GRID_POINTS:
            raise ValueError(f"eta grid has {len(grid)} points, more than "
                             f"MAX_GRID_POINTS = {MAX_GRID_POINTS}")
        if not grid or any(not 0.0 <= e <= 1.0 for e in grid):
            raise ValueError("eta grid values must lie in [0, 1]")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("eta grid must be strictly increasing")
        rule = _rule_for(self.table, self.row)
        if rule.receiver != self.receiver:
            raise ValueError(
                f"table {self.table} row {self.row} corrects {rule.receiver}, "
                f"not {self.receiver}")

    def rule(self) -> CorrectionRule:
        return _rule_for(self.table, self.row)


@dataclass(frozen=True)
class FidelitySample:
    eta: float                  # requested grid value
    fidelity: float
    branch_probability: float
    effective_eta: float        # where the point was actually evaluated
    boundary_extended: bool


@dataclass(frozen=True)
class SweepResult:
    config: PipelineConfig
    samples: tuple[FidelitySample, ...]

    def fidelities(self) -> tuple[float, ...]:
        return tuple(s.fidelity for s in self.samples)


def default_grid(step: float = 0.1) -> tuple[float, ...]:
    """0, step, ..., 1.0; step must divide 1 into a whole number of cells."""
    n = round(1.0 / step) if step > 0 else 0
    if n < 1 or abs(n * step - 1.0) > 1e-9:
        raise ValueError(f"step {step} does not divide [0, 1] evenly")
    if n + 1 > MAX_GRID_POINTS:
        raise ValueError(f"step {step} gives {n + 1} grid points, more than "
                         f"MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    return tuple(round(i * step, 10) for i in range(n + 1))


@lru_cache(maxsize=CHANNEL_CACHE_SIZE)
def _channel_block(noise_kind: str, etas: tuple[float, ...], correlated: bool):
    """Read-only party Kraus stacks of a block of etas and, per eta, the trace
    the channel loses on |Psi><Psi|. Cached: sweeps of one grid share them."""
    kraus = party_kraus_stack(kraus_operators(noise_kind, etas), correlated)
    deficit = 1.0 - channel_trace(kraus)
    kraus.setflags(write=False)
    deficit.setflags(write=False)
    return kraus, deficit


def _kraus_stacks(config: PipelineConfig, etas) -> np.ndarray:
    """party_kraus_stack per eta, stacked; warns at one site on lost trace,
    on every call (the block itself may come from the cache)."""
    kraus, deficit = _channel_block(config.noise_kind, tuple(etas),
                                    config.correlated)
    warn_trace_deficit(float(np.max(deficit)))
    return kraus


def _evaluate(config: PipelineConfig, etas):
    """The chain at every eta of a block: the stacked branch amplitudes W, the
    branch probabilities and one FidelitySample per eta. A point with
    probability <= BRANCH_PROBABILITY_FLOOR is scored unnormalized; its
    fidelity means nothing."""
    rule = config.rule()
    w = branch_amplitudes(config.receiver, rule.sender_outcome,
                          rule.collaborator_outcomes, config.spec,
                          _kraus_stacks(config, etas)).reshape(len(etas), -1, 4)
    norm = np.linalg.norm(w, axis=(1, 2))
    p = norm ** 2
    u = rule.unitary().T @ target_state(config.spec).conj()
    f = np.linalg.norm(w @ u, axis=-1) / np.where(
        p > BRANCH_PROBABILITY_FLOOR, norm, 1.0)
    return w, p, [FidelitySample(e, *values, e, False) for e, *values
                  in zip(etas, f.tolist(), p.tolist())]


def receiver_state(config: PipelineConfig, eta: float) -> tuple[np.ndarray, float]:
    """The receiver's normalized state W^T W* / p on the config's branch at one
    eta, before correction, and the branch probability p."""
    (w,), (p,), _ = _evaluate(config, (eta,))
    if p <= BRANCH_PROBABILITY_FLOOR:
        raise BranchProbabilityError(
            f"{config.noise_kind} eta={eta:g} {config.receiver} table {config.table} "
            f"row {config.row}: branch probability {p:.3e} is below "
            f"{BRANCH_PROBABILITY_FLOOR:g}, cannot normalize")
    return w.T @ w.conj() / p, float(p)


def _boundary_extension(config: PipelineConfig, eta: float) -> FidelitySample:
    """eta - 10^-k for k = 12 down to 1, evaluated as one block: the first
    candidate with probability >= EXTENSION_PROBABILITY stands in for eta."""
    ladder = [c for c in (eta - 10.0 ** (-k) for k in range(12, 0, -1)) if c >= 0.0]
    for sample in _evaluate(config, ladder)[2] if ladder else ():
        if sample.branch_probability >= EXTENSION_PROBABILITY:
            return replace(sample, eta=eta, boundary_extended=True)
    raise BranchProbabilityError(
        f"no evaluable point near eta={eta:g} for {config.noise_kind} "
        f"{config.receiver} table {config.table} row {config.row}")


def sweep(config: PipelineConfig) -> SweepResult:
    """Fidelity at every grid value, in grid order, contracted GRID_BLOCK etas
    at a time; a point whose branch dies takes the boundary extension."""
    samples = []
    for start in range(0, len(config.eta_grid), GRID_BLOCK):
        *_, block = _evaluate(config, config.eta_grid[start:start + GRID_BLOCK])
        samples += (s if s.branch_probability > BRANCH_PROBABILITY_FLOOR
                    else _boundary_extension(config, s.eta) for s in block)
    return SweepResult(config=config, samples=tuple(samples))


def default_config(noise_kind: str = "ad", receiver: str = "bob",
                   spec: TargetSpec | None = None, step: float = 0.1,
                   table: str | None = None, row: int = 1,
                   correlated: bool = True) -> PipelineConfig:
    """Reference configuration: Bob uses table I row 1, David table II row 1,
    Charlie the derived table, alpha = beta = 1/sqrt(2)."""
    if spec is None:
        spec = TargetSpec(1 / np.sqrt(2), 1 / np.sqrt(2))
    if table is None:
        table = {"bob": "I", "david": "II", "charlie": "oracle"}[receiver]
    return PipelineConfig(noise_kind=noise_kind, receiver=receiver, table=table,
                          row=row, spec=spec, eta_grid=default_grid(step),
                          correlated=correlated)
