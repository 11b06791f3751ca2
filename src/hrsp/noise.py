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

Every single-qubit Kraus operator of both kinds is t^m (A + s B), with
t = sqrt(eta), s = sqrt(1 - eta), m in {0, 1} and constant A, B: one template
per noise kind. kraus_operators evaluates it on a block of etas, as a
(len(etas), n, 2, 2) array, and the channel enters the receiver-state
contraction as one stack of 4x4 Kraus operators per receiver pair
(party_kraus_stack, with the etas on leading axes). pair_terms writes that
stack without any eta: each pair operator is t^M times a polynomial in s of
degree <= 2, and its nonzero coefficient matrices are the terms the sweeps
build their exact curves from. The dense 128x128 form of the same channel is
a test oracle (tests/dense_oracle.py).
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

#: Kraus operator i of a noise kind as t^power[i] (fixed[i] + s damped[i]):
#: per kind, the powers and the (2, n, 2, 2) stack of fixed and damped parts
_TEMPLATES = {
    # K0 = diag(1, s), K1 = t|0><1|
    "ad": (np.array([0, 1]), np.array([[_P0, _LOWER], [_P1, _NONE]])),
    # E0 = s I, E1 = t|0><0|, E2 = t|1><1|
    "pd": (np.array([0, 1, 1]), np.array([[_NONE, _P0, _P1],
                                          [_P0 + _P1, _NONE, _NONE]])),
}


def _template(kind: str):
    if kind not in _TEMPLATES:
        raise ValueError(f"unknown noise kind {kind!r}, expected one of {NOISE_KINDS}")
    return _TEMPLATES[kind]


def kraus_operators(kind: str, etas) -> np.ndarray:
    """Single-qubit Kraus operators of one noise kind at every eta, shape
    (len(etas), n, 2, 2), built in closed form without a per-eta loop."""
    power, (fixed, damped) = _template(kind)
    etas = np.asarray(etas, dtype=float).reshape(-1)
    valid = (etas >= 0.0) & (etas <= 1.0)   # False for NaN
    if not valid.all():
        raise ValueError(f"noise parameter must be in [0, 1], got {etas[~valid][0]}")
    e = etas[:, None, None, None]
    return (np.sqrt(e) ** power[:, None, None]
            * (fixed + np.sqrt(1 - e) * damped)).astype(complex)


def party_kraus_stack(kraus: np.ndarray, correlated: bool = True) -> np.ndarray:
    """Kraus operators on one receiver's qubit pair, stacked on axis -3:
    K_i (x) K_i when correlated, K_i (x) K_j over all pairs otherwise. The
    same stack on every receiver pair, and the identity on the sender's
    qubit, is the whole seven-qubit channel. kraus is a (..., n, 2, 2) array
    such as kraus_operators(kind, etas); leading axes carry over."""
    pairs = np.einsum("...iab,...icd->...iacbd" if correlated
                      else "...iab,...jcd->...ijacbd", kraus, kraus)
    return pairs.reshape(*kraus.shape[:-3], -1, 4, 4)


def pair_terms(kind: str, correlated: bool = True):
    """party_kraus_stack(kraus_operators(kind, [eta])[0], correlated) without
    eta: its operator k is t^M_k sum_d s^d C_kd, t = sqrt(eta), s = sqrt(1 - eta),
    d <= 2. Returns the (T, 4, 4) stack of the nonzero C_kd and, per term, k,
    M_k and d, as arrays. T is 4 for correlated AD, 3 for correlated PD, 8 and
    9 for the uncorrelated channels."""
    power, parts = _template(kind)
    n = len(power)
    # [i, j, x, y]: part x of K_i (x) part y of K_j, x, y = 0 fixed, 1 damped
    prod = np.einsum("xiab,yjcd->ijxyacbd", parts, parts).reshape(n, n, 2, 2, 4, 4)
    by_degree = np.stack([prod[:, :, 0, 0], prod[:, :, 0, 1] + prod[:, :, 1, 0],
                          prod[:, :, 1, 1]], axis=2)
    keep = np.any(by_degree != 0, axis=(-2, -1))
    if correlated:
        keep &= np.eye(n, dtype=bool)[..., None]
    i, j, degree = np.nonzero(keep)
    return by_degree[i, j, degree], i * n + j, power[i] + power[j], degree


def warn_trace_deficit(deficit: float) -> None:
    """Warn when a channel output lost more than TRACE_DEFICIT_WARN of trace."""
    if deficit > TRACE_DEFICIT_WARN:
        # constant message, reported at the measuring function's caller: shown once
        warnings.warn(
            "the correlated channel ties one Kraus index to both qubits "
            "of a receiver and is not trace preserving; the lost weight "
            "is restored at post-measurement normalization",
            TraceDeficitWarning, stacklevel=3)
