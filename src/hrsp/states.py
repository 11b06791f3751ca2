"""Construction of the protocol's entangled resource states and targets.

The shared resource is a seven-qubit state grown out of the five-qubit Brown
state by entangling two ancillas with CNOTs. The Brown state is built from
Bell pairs,

    |psi_Br> = 1/2 (|001>|phi-> + |010>|psi-> + |100>|phi+> + |111>|psi+>),

with |psi+-> = (|00> +- |11>)/sqrt(2) and |phi+-> = (|01> +- |10>)/sqrt(2).
Fully expanded this carries amplitude -1/(2 sqrt 2) on |00110> and |01011>
and +1/(2 sqrt 2) on the six other basis terms; published fully-expanded
listings of this state sometimes drop the two minus signs, which breaks the
correction tables downstream, so the signed form is authoritative here.

These numpy vectors serve the library's callers (protocol_state) and the
tests. The package computes every branch from BROWN_TERMS in integers
(hrsp.exact); the numpy branch kernel is a test oracle, in
tests/dense_oracle.py.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .exact import BROWN_TERMS, TargetSpec


def brown_state() -> np.ndarray:
    """Five-qubit Brown state as a 32-component amplitude vector."""
    out = np.zeros(32)
    for bits, sign in BROWN_TERMS:
        out[int(bits, 2)] = sign
    return out / (2 * np.sqrt(2))


def extend_with_ancillas(brown: np.ndarray) -> np.ndarray:
    """Grow the five-qubit state to seven qubits.

    Appends two |0> ancillas and applies CNOTs with qubits 3 and 4 as
    controls and the ancillas (qubits 5 and 6) as targets. Amplitudes only
    get permuted: |b0..b4 00> -> |b0..b4 b3 b4>.
    """
    brown = np.asarray(brown)
    if brown.shape != (32,):
        raise ValueError("expected a five-qubit state vector")
    out = np.zeros(128, dtype=brown.dtype)
    for idx in np.nonzero(np.abs(brown) > 0)[0]:
        bits = format(idx, "05b")
        out[int(bits + bits[3] + bits[4], 2)] = brown[idx]
    return out


@lru_cache(maxsize=1)
def protocol_state() -> np.ndarray:
    """The shared seven-qubit resource state (read-only, cached)."""
    psi = extend_with_ancillas(brown_state())
    psi.setflags(write=False)
    return psi


def target_state(spec: TargetSpec) -> np.ndarray:
    """Two-qubit target vector (alpha, 0, 0, beta)."""
    return np.array([spec.alpha, 0.0, 0.0, spec.beta])


def zeta_basis(spec: TargetSpec) -> dict[str, np.ndarray]:
    """Sender measurement basis {alpha|0> + beta|1>, beta|0> - alpha|1>},
    keyed by outcome label."""
    return {"zeta1": np.array([spec.alpha, spec.beta]),
            "zeta2": np.array([spec.beta, -spec.alpha])}
