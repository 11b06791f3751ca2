"""Gate matrices and Kronecker products for small multi-qubit systems.

Everything here works on plain numpy arrays with big-endian qubit ordering:
basis index of |b0 b1 ... b(n-1)> is the integer with b0 as the most
significant bit. The gates are real except Y.
"""

from __future__ import annotations

import numpy as np

I2 = np.eye(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]])
Y = np.array([[0, -1j], [1j, 0]])
Z = np.array([[1.0, 0.0], [0.0, -1.0]])
H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


def kron(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of any number of matrices or vectors, left to right,
    in its factors' common dtype: real factors give a real product."""
    if not factors:
        raise ValueError("kron needs at least one factor")
    out = np.asarray(factors[0])
    for f in factors[1:]:
        out = np.kron(out, f)
    return out
