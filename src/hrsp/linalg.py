"""Dense complex linear algebra for small multi-qubit systems.

Everything here works on plain numpy arrays with big-endian qubit ordering:
basis index of |b0 b1 ... b(n-1)> is the integer with b0 as the most
significant bit.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def kron(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of any number of matrices or vectors, left to right."""
    if not factors:
        raise ValueError("kron needs at least one factor")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def projector(v: np.ndarray) -> np.ndarray:
    """|v><v| for a 1-D state vector."""
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def is_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    m = np.asarray(m)
    return m.shape[0] == m.shape[1] and np.max(np.abs(m - m.conj().T)) <= tol


#: qubits of each party, in qubit order: Alice keeps qubit 0; pairs (1,2),
#: (3,4), (5,6) travel to Bob, Charlie, David.
PARTY_QUBITS = {"alice": (0,), "bob": (1, 2), "charlie": (3, 4), "david": (5, 6)}


def psd_sqrt(h: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root S of h with S @ S == h.

    Eigenvalues in [-PSD_TOL, 0) are clamped to zero; anything below
    -PSD_TOL is rejected as non-PSD.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    if w[0] < -PSD_TOL:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T
