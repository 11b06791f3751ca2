"""Amplitude- and phase-damping Kraus operators and the correlated noise channel.

The channel model places the *same* Kraus index on both qubits of each
receiver (the pair is assumed to travel through one shared channel) and the
identity on the sender's retained qubit. Summing A rho A^dagger over the
per-receiver indices is then not trace preserving; the lost weight is
recovered later when the post-measurement state is renormalized. A warning
is emitted when the trace actually drops so nobody mistakes this for a CPTP
product channel. An independent per-qubit product channel is available
behind ``correlated=False`` as a sanity baseline; it is *not* the protocol's
model and does not reproduce the reference fidelity curves.

The Kraus operators have one form: a (len(etas), n, 2, 2) array, built for a
whole block of etas in closed form from one template per noise kind
(kraus_operators). The channel enters the receiver-state contraction as one
stack of 4x4 Kraus operators per receiver pair (party_kraus_stack, with the
etas on leading axes); the dense 128x128 form of the same channel is a test
oracle (tests/dense_oracle.py).
"""

from __future__ import annotations

import warnings

import numpy as np

TRACE_DEFICIT_WARN = 1e-9

NOISE_KINDS = ("ad", "pd")


class TraceDeficitWarning(UserWarning):
    """The correlated channel deliberately loses trace (see module docs)."""


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


def party_kraus_stack(kraus: np.ndarray, correlated: bool = True) -> np.ndarray:
    """Kraus operators on one receiver's qubit pair, stacked on axis -3:
    K_i (x) K_i when correlated, K_i (x) K_j over all pairs otherwise. The
    same stack on every receiver pair, and the identity on the sender's
    qubit, is the whole seven-qubit channel. kraus is a (..., n, 2, 2) array
    such as kraus_operators(kind, etas); leading axes carry over."""
    pairs = np.einsum("...iab,...icd->...iacbd" if correlated
                      else "...iab,...jcd->...ijacbd", kraus, kraus)
    return pairs.reshape(*kraus.shape[:-3], -1, 4, 4)


def warn_trace_deficit(deficit: float) -> None:
    """Warn when a channel output lost more than TRACE_DEFICIT_WARN of trace."""
    if deficit > TRACE_DEFICIT_WARN:
        # constant message, reported at the measuring function's caller: shown once
        warnings.warn(
            "the correlated channel ties one Kraus index to both qubits "
            "of a receiver and is not trace preserving; the lost weight "
            "is restored at post-measurement normalization",
            TraceDeficitWarning, stacklevel=3)
