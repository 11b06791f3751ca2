"""Amplitude- and phase-damping noise: the channel's model and its warning.

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
per noise kind (hrsp.exact.KRAUS_TEMPLATES). hrsp.exact builds every
receiver state from these templates in integers. The tests hold it to their
numpy kernel on the same operators written as eta-free pair terms, to the
per-eta single-qubit operators and to the dense 128x128 channel, all in
tests/dense_oracle.py.
"""

from __future__ import annotations

# the noise kinds, the templates and the trace-deficit warning live in
# hrsp.exact, which a CLI sweep reads without numpy
from .exact import (KRAUS_TEMPLATES, NOISE_KINDS, TRACE_DEFICIT_WARN,
                    TraceDeficitWarning, warn_trace_deficit)
