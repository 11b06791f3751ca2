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

The operators of a whole block of etas come in closed form from one
template per noise kind (kraus_operators; amplitude_damping, phase_damping
and kraus_set are its one-eta view). The channel enters the receiver-state
contraction as one stack of 4x4 Kraus operators per receiver pair
(party_kraus_stack, with the etas on leading axes); the dense 128x128 form
of the same channel is a test oracle (tests/dense_oracle.py).
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


_P0, _P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
_LOWER, _NONE = np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2))

#: Kraus operators as one + sqrt(1-eta) damped + sqrt(eta) lost: per noise
#: kind, the three (n, 2, 2) templates of those parts
_TEMPLATES = {
    # K0 = diag(1, sqrt(1-eta)), K1 = sqrt(eta)|0><1|
    "ad": np.array([[_P0, _NONE], [_P1, _NONE], [_NONE, _LOWER]]),
    # E0 = sqrt(1-eta) I, E1 = sqrt(eta)|0><0|, E2 = sqrt(eta)|1><1|
    "pd": np.array([[_NONE, _NONE, _NONE], [_P0 + _P1, _NONE, _NONE],
                    [_NONE, _P0, _P1]]),
}


def kraus_operators(kind: str, etas) -> np.ndarray:
    """Single-qubit Kraus operators of one noise kind at every eta, shape
    (len(etas), n, 2, 2), built in closed form without a per-eta loop."""
    if kind not in _TEMPLATES:
        raise ValueError(f"unknown noise kind {kind!r}, expected one of {NOISE_KINDS}")
    etas = np.asarray(etas, dtype=float).reshape(-1)
    valid = (etas >= 0.0) & (etas <= 1.0)   # False for NaN
    if not valid.all():
        raise ValueError(f"noise parameter must be in [0, 1], got {etas[~valid][0]}")
    one, damped, lost = _TEMPLATES[kind]
    e = etas[:, None, None, None]
    return (one + np.sqrt(1 - e) * damped + np.sqrt(e) * lost).astype(complex)


def kraus_set(kind: str, eta: float) -> KrausSet:
    """The one-eta view of kraus_operators."""
    eta = float(eta)
    return KrausSet(kind=kind, eta=eta,
                    operators=tuple(kraus_operators(kind, (eta,))[0]))


def amplitude_damping(eta: float) -> KrausSet:
    """Energy-loss channel: K0 = diag(1, sqrt(1-eta)), K1 = sqrt(eta)|0><1|."""
    return kraus_set("ad", eta)


def phase_damping(eta: float) -> KrausSet:
    """Dephasing channel: E0 = sqrt(1-eta) I, E1/E2 = sqrt(eta)|0><0|, |1><1|."""
    return kraus_set("pd", eta)


def party_kraus_stack(kraus: KrausSet | np.ndarray,
                      correlated: bool = True) -> np.ndarray:
    """Kraus operators on one receiver's qubit pair, stacked on axis -3:
    K_i (x) K_i when correlated, K_i (x) K_j over all pairs otherwise. The
    same stack on every receiver pair, and the identity on the sender's
    qubit, is the whole seven-qubit channel. kraus is a KrausSet or a
    (..., n, 2, 2) array such as kraus_operators(kind, etas); leading axes
    carry over."""
    k = np.stack(kraus.operators) if isinstance(kraus, KrausSet) else kraus
    pairs = np.einsum("...iab,...icd->...iacbd" if correlated
                      else "...iab,...jcd->...ijacbd", k, k)
    return pairs.reshape(*k.shape[:-3], -1, 4, 4)


def warn_trace_deficit(deficit: float) -> None:
    """Warn when a channel output lost more than TRACE_DEFICIT_WARN of trace."""
    if deficit > TRACE_DEFICIT_WARN:
        # constant message, reported at the measuring function's caller: shown once
        warnings.warn(
            "the correlated channel ties one Kraus index to both qubits "
            "of a receiver and is not trace preserving; the lost weight "
            "is restored at post-measurement normalization",
            TraceDeficitWarning, stacklevel=3)
