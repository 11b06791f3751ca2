"""Dense 128x128 reference route to the receiver's state, for the tests.

The package computes the receiver's state by one pure-state contraction
(hrsp.states.branch_amplitudes). This module reaches the same state the long
way: the noise channel on the full seven-qubit density matrix
(apply_channel), the tensor-product measurement operator U of one outcome
(scenario_for, build_measurement_operator), and the partial trace onto the
receiver's qubits (partial_trace). It shares only the outcome states and the
Kraus sets with the contraction, so the tests can hold one against the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hrsp.linalg import I2, PARTY_QUBITS, kron, projector
from hrsp.noise import KrausSet, warn_trace_deficit
from hrsp.states import TargetSpec, outcome_kets

PROJECTOR_TOL = 1e-10


def num_qubits_of(dim: int) -> int:
    n = int(round(np.log2(dim)))
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def partial_trace(rho: np.ndarray, traced_qubits) -> np.ndarray:
    """Trace out the given qubits of a multi-qubit density matrix.

    The remaining qubits keep their relative order. Implemented by index
    arithmetic on the reshaped (2,)*2n tensor rather than repeated two-qubit
    contractions, so it can be checked against a direct summation oracle.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    n = num_qubits_of(rho.shape[0])
    traced = sorted(set(traced_qubits))
    if traced and (traced[0] < 0 or traced[-1] >= n):
        raise ValueError(f"traced qubits {traced} out of range for {n} qubits")
    keep = [q for q in range(n) if q not in traced]

    t = rho.reshape((2,) * (2 * n))
    perm = keep + traced + [q + n for q in keep] + [q + n for q in traced]
    t = np.transpose(t, perm)
    dk, dt = 2 ** len(keep), 2 ** len(traced)
    t = t.reshape(dk, dt, dk, dt)
    return np.einsum("abcb->ac", t)


def apply_channel(rho: np.ndarray, kraus: KrausSet,
                  correlated: bool = True) -> np.ndarray:
    """Evolve a seven-qubit rho under the noise on every receiver qubit.

    Correlated mode: one Kraus index per receiver, applied to both of its
    qubits. Uncorrelated mode: an independent index on every receiver qubit
    (an ordinary product channel, trace preserving). Either channel is a
    product over slots (a receiver pair, or one receiver qubit), so each
    slot's Kraus sum is applied in turn as dense 128x128 terms.
    """
    rho = np.asarray(rho, dtype=complex)
    n = sum(map(len, PARTY_QUBITS.values()))
    if rho.shape != (2 ** n, 2 ** n):
        raise ValueError(f"expected a {2 ** n}x{2 ** n} density matrix, "
                         f"got {rho.shape}")

    pairs = [qs for party, qs in PARTY_QUBITS.items() if party != "alice"]
    slots = pairs if correlated else [(q,) for qs in pairs for q in qs]
    out = rho
    for slot in slots:
        terms = [kron(*(k if q in slot else I2 for q in range(n)))
                 for k in kraus.operators]
        out = sum(a @ out @ a.conj().T for a in terms)

    if correlated:
        warn_trace_deficit(float(np.trace(rho).real - np.trace(out).real))
    return out


# --------------------------------------------------------------------------
# Measurement scenarios (the collapse operator U).
@dataclass(frozen=True, eq=False)
class MeasurementScenario:
    """Projectors applied during collapse; the receiver's block is I4."""

    receiver: str
    sender_projector: np.ndarray
    collaborator_projectors: dict[str, np.ndarray]

    def __post_init__(self):
        for name, p in [("sender", self.sender_projector),
                        *self.collaborator_projectors.items()]:
            if np.max(np.abs(p @ p - p)) > PROJECTOR_TOL or \
               np.max(np.abs(p - p.conj().T)) > PROJECTOR_TOL:
                raise ValueError(f"{name} block is not a projector")


def scenario_for(receiver: str, sender_outcome: str,
                 collaborator_outcomes: tuple[str, ...],
                 spec: TargetSpec) -> MeasurementScenario:
    """Scenario for one table row at the given target parameters."""
    zvec, kets = outcome_kets(receiver, sender_outcome, collaborator_outcomes,
                              spec)
    zproj = projector(zvec / np.linalg.norm(zvec))
    collab = {party: projector(ket) for party, ket in kets.items()}
    return MeasurementScenario(receiver=receiver, sender_projector=zproj,
                               collaborator_projectors=collab)


def build_measurement_operator(scenario: MeasurementScenario) -> np.ndarray:
    """Assemble U as the qubit-ordered tensor product of party blocks."""
    blocks = []
    for party, qubits in PARTY_QUBITS.items():
        if party == "alice":
            blocks.append(scenario.sender_projector)
        elif party == scenario.receiver:
            blocks.append(np.eye(2 ** len(qubits), dtype=complex))
        else:
            blocks.append(scenario.collaborator_projectors[party])
    u = kron(*blocks)
    if np.max(np.abs(u @ u - u)) > PROJECTOR_TOL:
        raise ValueError("assembled measurement operator is not a projector")
    return u
