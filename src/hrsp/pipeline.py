"""End-to-end noisy protocol runs: contract, normalize, correct, score.

A sweep contracts |Psi> with the sender's bra, the Kraus stacks of GRID_BLOCK
etas and the collaborators' bras into W (states.branch_amplitudes), then,
batched, corrects rho = W^T W* / p, p = Tr W^T W* being the branch
probability, and scores F = Tr sqrt( sqrt(rho0) rho_n sqrt(rho0) ) against
rho0 = |xi><xi|. This is the package's only route to the receiver's state; the
dense 128x128 chain (channel, measurement operator, partial trace) that the
tests hold it against lives in tests/dense_oracle.py.

Where a Bob outcome's probability vanishes identically at eta = 1 (every
damping path annihilates it), that grid point is a continuous extension: the
largest eta on a deterministic ladder, evaluated as one block, whose branch
probability is >= 1e-10. Such samples carry boundary_extended = True.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import projector, psd_sqrt
from .noise import NOISE_KINDS, kraus_set, party_kraus_stack, warn_trace_deficit
from .protocol import (CORRECTION_TABLES, DERIVED_TABLE_ROWS, CorrectionRule,
                       derived_rule)
from .states import TargetSpec, branch_amplitudes, channel_trace, target_state

BRANCH_PROBABILITY_FLOOR = 1e-12
EXTENSION_PROBABILITY = 1e-10
EIGENVALUE_FLOOR = 1e-13
GRID_BLOCK = 32             # etas contracted together; bounds a sweep's memory
MAX_GRID_POINTS = 100_001   # step 1e-5; bounds the samples a sweep holds


class BranchProbabilityError(ValueError):
    """Conditioning on an outcome whose probability is numerically zero."""


def apply_correction(rho_recv: np.ndarray, correction) -> np.ndarray:
    """O rho O^dag, per leading axis, for a CorrectionRule or a 4x4 unitary."""
    o = correction.unitary() if isinstance(correction, CorrectionRule) else np.asarray(correction)
    return o @ rho_recv @ o.conj().T


def fidelity(rho0: np.ndarray, rho_n: np.ndarray) -> float | np.ndarray:
    """Tr sqrt( sqrt(rho0) rho_n sqrt(rho0) ), per leading axis of rho_n.

    Eigenvalues of each inner product below 1e-13 of its largest are floored
    to zero: sqrt amplifies eigensolver noise (~1e-16) to ~1e-8, which would
    otherwise swamp the agreement with the pure-state shortcut.
    """
    s0 = psd_sqrt(rho0)
    mid = s0 @ rho_n @ s0
    mid = (mid + mid.conj().swapaxes(-1, -2)) / 2
    w = np.linalg.eigvalsh(mid)
    floor = np.maximum(w[..., -1:], 0.0) * EIGENVALUE_FLOOR
    return np.sqrt(np.where(w > floor, w, 0.0)).sum(axis=-1)


def pure_target_fidelity(spec: TargetSpec, rho_n: np.ndarray) -> float | np.ndarray:
    """sqrt(<xi| rho_n |xi>) per leading axis, the pure-target shortcut."""
    xi = target_state(spec)
    return np.sqrt(np.maximum(np.einsum("i,...i->...", xi.conj(), rho_n @ xi).real, 0.0))


def _rule_for(table: str, row: int) -> CorrectionRule:
    oracle = table == "oracle"
    rows = DERIVED_TABLE_ROWS if oracle else len(CORRECTION_TABLES[table])
    if not 1 <= row <= rows:
        raise ValueError(f"table {table} has rows 1..{rows}, got {row}")
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
    shortcut_fidelity: float    # sqrt(<xi|rho_n|xi>) cross-check
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


def _kraus_stacks(config: PipelineConfig, etas) -> np.ndarray:
    """party_kraus_stack per eta, stacked; warns at one site on lost trace."""
    kraus = np.stack([party_kraus_stack(kraus_set(config.noise_kind, eta),
                                        config.correlated) for eta in etas])
    warn_trace_deficit(float(np.max(1.0 - channel_trace(kraus))))
    return kraus


def _evaluate(config: PipelineConfig, etas):
    """The chain at every eta of a block: the stacked normalized receiver states
    before correction and one FidelitySample per eta. A point with probability
    <= BRANCH_PROBABILITY_FLOOR stays unnormalized; its scores mean nothing."""
    rule = config.rule()
    w = branch_amplitudes(config.receiver, rule.sender_outcome,
                          rule.collaborator_outcomes, config.spec,
                          _kraus_stacks(config, etas)).reshape(len(etas), -1, 4)
    rho = w.swapaxes(-1, -2) @ w.conj()
    p = np.trace(rho, axis1=-2, axis2=-1).real
    rho /= np.where(p > BRANCH_PROBABILITY_FLOOR, p, 1.0)[:, None, None]
    rho_n = apply_correction(rho, rule)
    f = fidelity(projector(target_state(config.spec)), rho_n)
    fs = pure_target_fidelity(config.spec, rho_n)
    return rho, [FidelitySample(e, *values, e, False) for e, *values
                 in zip(etas, f.tolist(), fs.tolist(), p.tolist())]


def receiver_state(config: PipelineConfig, eta: float) -> tuple[np.ndarray, float]:
    """The receiver's normalized state on the config's branch at one eta,
    before correction, and the branch probability."""
    rho, (sample,) = _evaluate(config, (eta,))
    if (p := sample.branch_probability) <= BRANCH_PROBABILITY_FLOOR:
        raise BranchProbabilityError(
            f"{config.noise_kind} eta={eta:g} {config.receiver} table {config.table} "
            f"row {config.row}: branch probability {p:.3e} is below "
            f"{BRANCH_PROBABILITY_FLOOR:g}, cannot normalize")
    return rho[0], p


def _boundary_extension(config: PipelineConfig, eta: float) -> FidelitySample:
    """eta - 10^-k for k = 12 down to 1, evaluated as one block: the first
    candidate with probability >= EXTENSION_PROBABILITY stands in for eta."""
    ladder = [c for c in (eta - 10.0 ** (-k) for k in range(12, 0, -1)) if c >= 0.0]
    for sample in _evaluate(config, ladder)[1] if ladder else ():
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
        _, block = _evaluate(config, config.eta_grid[start:start + GRID_BLOCK])
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
