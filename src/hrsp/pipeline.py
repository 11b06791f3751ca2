"""End-to-end noisy protocol runs: contract, normalize, correct, score.

One grid point contracts |Psi> with the sender's bra, the per-party Kraus
stack and the collaborators' bras into W (states.branch_amplitudes), then
corrects rho = W^T W* / p, p = Tr W^T W* being the branch probability, and
scores F = Tr sqrt( sqrt(rho0) rho_n sqrt(rho0) ) against rho0 = |xi><xi|.
The dense route (noise.apply_channel, protocol.build_measurement_operator,
linalg.partial_trace) stays public as the reference the tests compare with.

Bob's scenarios condition on a computational collaborator outcome whose
probability vanishes identically at eta = 1 (every damping path annihilates
it), so the final grid point of those sweeps is evaluated as a continuous
extension: the largest eta on a deterministic ladder where the branch still
has probability >= 1e-10. Such samples carry boundary_extended = True.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import projector, psd_sqrt
from .noise import NOISE_KINDS, kraus_set, party_kraus_stack, warn_trace_deficit
from .protocol import CORRECTION_TABLES, CorrectionRule, derive_receiver_table
from .states import TargetSpec, branch_amplitudes, channel_trace, target_state

BRANCH_PROBABILITY_FLOOR = 1e-12
EXTENSION_PROBABILITY = 1e-10
EIGENVALUE_FLOOR = 1e-13


class BranchProbabilityError(ValueError):
    """Conditioning on an outcome whose probability is numerically zero."""


def apply_correction(rho_recv: np.ndarray, correction) -> np.ndarray:
    """O rho O^dag for a CorrectionRule or an explicit 4x4 unitary."""
    o = correction.unitary() if isinstance(correction, CorrectionRule) else np.asarray(correction)
    return o @ rho_recv @ o.conj().T


def fidelity(rho0: np.ndarray, rho_n: np.ndarray) -> float:
    """Tr sqrt( sqrt(rho0) rho_n sqrt(rho0) ).

    Eigenvalues of the inner product below 1e-13 of the largest are floored
    to zero: sqrt amplifies eigensolver noise (~1e-16) to ~1e-8, which would
    otherwise swamp the agreement with the pure-state shortcut.
    """
    s0 = psd_sqrt(rho0)
    mid = s0 @ rho_n @ s0
    mid = (mid + mid.conj().T) / 2
    w = np.linalg.eigvalsh(mid)
    floor = max(float(w[-1]), 0.0) * EIGENVALUE_FLOOR
    w = np.where(w > floor, w, 0.0)
    return float(np.sum(np.sqrt(w)))


def pure_target_fidelity(spec: TargetSpec, rho_n: np.ndarray) -> float:
    """sqrt(<xi| rho_n |xi>), the pure-target shortcut for the same score."""
    xi = target_state(spec)
    return float(np.sqrt(max(np.real(np.vdot(xi, rho_n @ xi)), 0.0)))


def _rule_for(table: str, row: int) -> CorrectionRule:
    if table == "oracle":
        rules = derive_receiver_table("charlie")
    else:
        rules = CORRECTION_TABLES[table]
    if not 1 <= row <= len(rules):
        raise ValueError(f"table {table} has rows 1..{len(rules)}, got {row}")
    return rules[row - 1]


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
    n = round(1.0 / step)
    if n < 1 or abs(n * step - 1.0) > 1e-9:
        raise ValueError(f"step {step} does not divide [0, 1] evenly")
    return tuple(round(i * step, 10) for i in range(n + 1))


def receiver_state(config: PipelineConfig, eta: float) -> tuple[np.ndarray, float]:
    """The receiver's normalized state on the config's branch at one eta,
    before correction, and the branch probability."""
    rule = config.rule()
    kraus = party_kraus_stack(kraus_set(config.noise_kind, eta), config.correlated)
    warn_trace_deficit(1.0 - channel_trace(kraus))
    w = branch_amplitudes(config.receiver, rule.sender_outcome,
                          rule.collaborator_outcomes, config.spec,
                          kraus).reshape(-1, 4)
    rho = w.T @ w.conj()
    p = float(np.trace(rho).real)
    if p <= BRANCH_PROBABILITY_FLOOR:
        raise BranchProbabilityError(
            f"{config.noise_kind} eta={eta:g} {config.receiver} table {config.table} "
            f"row {config.row}: branch probability {p:.3e} is below "
            f"{BRANCH_PROBABILITY_FLOOR:g}, cannot normalize")
    return rho / p, p


def _evaluate(config: PipelineConfig, eta: float):
    """Run the full chain at one eta; returns (F, shortcut F, probability)."""
    rho_recv, p = receiver_state(config, eta)
    rho_n = apply_correction(rho_recv, config.rule())
    rho0 = projector(target_state(config.spec))
    return fidelity(rho0, rho_n), pure_target_fidelity(config.spec, rho_n), p


def run_eta(config: PipelineConfig, eta: float) -> FidelitySample:
    """Evaluate one grid point, falling back to the boundary extension."""
    try:
        f, fs, p = _evaluate(config, eta)
        return FidelitySample(eta=eta, fidelity=f, shortcut_fidelity=fs,
                              branch_probability=p, effective_eta=eta,
                              boundary_extended=False)
    except BranchProbabilityError:
        pass
    # deterministic ladder toward the interior: ever larger eta - 10^-k steps,
    # settling on the candidate closest to the requested point that still has
    # branch probability >= EXTENSION_PROBABILITY
    for k in range(12, 0, -1):
        candidate = eta - 10.0 ** (-k)
        if not 0.0 <= candidate <= 1.0:
            continue
        try:
            f, fs, p = _evaluate(config, candidate)
        except BranchProbabilityError:
            continue
        if p >= EXTENSION_PROBABILITY:
            return FidelitySample(eta=eta, fidelity=f, shortcut_fidelity=fs,
                                  branch_probability=p, effective_eta=candidate,
                                  boundary_extended=True)
    raise BranchProbabilityError(
        f"no evaluable point near eta={eta:g} for {config.noise_kind} "
        f"{config.receiver} table {config.table} row {config.row}")


def sweep(config: PipelineConfig) -> SweepResult:
    """Fidelity at every grid value, in grid order."""
    return SweepResult(config=config,
                       samples=tuple(run_eta(config, e) for e in config.eta_grid))


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
