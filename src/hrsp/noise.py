"""Amplitude- and phase-damping Kraus sets and the correlated noise channel.

The channel model places the *same* Kraus index on both qubits of each
receiver (the pair is assumed to travel through one shared channel) and the
identity on the sender's retained qubit. Summing A rho A^dagger over the
per-receiver indices is then not trace preserving; the lost weight is
recovered later when the post-measurement state is renormalized. A warning
is emitted when the trace actually drops so nobody mistakes this for a CPTP
product channel. An independent per-qubit product channel is available
behind ``correlated=False`` as a sanity baseline; it is *not* the protocol's
model and does not reproduce the reference fidelity curves.

The channel enters the receiver-state contraction as one stack of 4x4 Kraus
operators per receiver pair (party_kraus_stack); the dense 128x128 form of
the same channel is a test oracle (tests/dense_oracle.py).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import I2

TRACE_DEFICIT_WARN = 1e-9

NOISE_KINDS = ("ad", "pd")


class TraceDeficitWarning(UserWarning):
    """The correlated channel deliberately loses trace (see module docs)."""


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Single-qubit Kraus operators for one noise kind at one error rate."""

    kind: str
    eta: float
    operators: tuple[np.ndarray, ...]

    def completeness_defect(self) -> float:
        """max |sum_i K_i^dag K_i - I|, zero for a valid channel."""
        s = sum(k.conj().T @ k for k in self.operators)
        return float(np.max(np.abs(s - I2)))


def _check_eta(eta: float) -> float:
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"noise parameter must be in [0, 1], got {eta}")
    return eta


def amplitude_damping(eta: float) -> KrausSet:
    """Energy-loss channel: K0 = diag(1, sqrt(1-eta)), K1 = sqrt(eta)|0><1|."""
    eta = _check_eta(eta)
    k0 = np.array([[1, 0], [0, np.sqrt(1 - eta)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(eta)], [0, 0]], dtype=complex)
    return KrausSet(kind="ad", eta=eta, operators=(k0, k1))


def phase_damping(eta: float) -> KrausSet:
    """Dephasing channel: E0 = sqrt(1-eta) I, E1/E2 = sqrt(eta)|0><0|, |1><1|."""
    eta = _check_eta(eta)
    e0 = np.sqrt(1 - eta) * np.eye(2, dtype=complex)
    e1 = np.array([[np.sqrt(eta), 0], [0, 0]], dtype=complex)
    e2 = np.array([[0, 0], [0, np.sqrt(eta)]], dtype=complex)
    return KrausSet(kind="pd", eta=eta, operators=(e0, e1, e2))


def kraus_set(kind: str, eta: float) -> KrausSet:
    if kind == "ad":
        return amplitude_damping(eta)
    if kind == "pd":
        return phase_damping(eta)
    raise ValueError(f"unknown noise kind {kind!r}, expected one of {NOISE_KINDS}")


def party_kraus_stack(kraus: KrausSet, correlated: bool = True) -> np.ndarray:
    """Kraus operators on one receiver's qubit pair, stacked on axis 0:
    K_i (x) K_i when correlated, K_i (x) K_j over all pairs otherwise. The
    same stack on every receiver pair, and the identity on the sender's
    qubit, is the whole seven-qubit channel."""
    k = np.stack(kraus.operators)
    return np.einsum("iab,icd->iacbd" if correlated else "iab,jcd->ijacbd",
                     k, k).reshape(-1, 4, 4)


def warn_trace_deficit(deficit: float) -> None:
    """Warn when a channel output lost more than TRACE_DEFICIT_WARN of trace."""
    if deficit > TRACE_DEFICIT_WARN:
        # constant message, reported at the measuring function's caller: shown once
        warnings.warn(
            "the correlated channel ties one Kraus index to both qubits "
            "of a receiver and is not trace preserving; the lost weight "
            "is restored at post-measurement normalization",
            TraceDeficitWarning, stacklevel=3)
