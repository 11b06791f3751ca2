"""Amplitude- and phase-damping noise: the channel in one eta-free form.

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
per noise kind. pair_terms writes the operators on a receiver pair in this
form without any eta: each is t^M times a polynomial in s of degree <= 2.
hrsp.exact builds every receiver state from the same templates in
integers; the numpy kernel on these terms is its test oracle
(tests/test_exact.py), and so are the per-eta single-qubit operators and
the dense 128x128 channel (tests/dense_oracle.py).
"""

from __future__ import annotations

import numpy as np

# the noise kinds, the templates and the trace-deficit warning live in
# hrsp.exact, which a CLI sweep reads without numpy
from .exact import (KRAUS_TEMPLATES, NOISE_KINDS, TRACE_DEFICIT_WARN,
                    TraceDeficitWarning, warn_trace_deficit)

#: Kraus operator i of a noise kind as t^power[i] (fixed[i] + s damped[i]):
#: per kind, the powers and the (2, n, 2, 2) stack of fixed and damped parts
_TEMPLATES = {kind: (np.array(power), np.array(parts, dtype=float))
              for kind, (power, parts) in KRAUS_TEMPLATES.items()}


def pair_terms(kind: str, correlated: bool = True):
    """The Kraus operators on one receiver's qubit pair, K_i (x) K_i when
    correlated and K_i (x) K_j over all pairs otherwise, without eta: operator
    k = i n + j is t^M_k sum_d s^d C_kd, d <= 2. The same stack on every
    receiver pair, and the identity on the sender's qubit, is the whole
    seven-qubit channel. Returns the (T, 4, 4) stack of the nonzero C_kd and,
    per term, k, M_k and d, as arrays. T is 4 for correlated AD, 3 for
    correlated PD, 8 and 9 for the uncorrelated channels."""
    if kind not in _TEMPLATES:
        raise ValueError(f"unknown noise kind {kind!r}, expected one of {NOISE_KINDS}")
    power, parts = _TEMPLATES[kind]
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

