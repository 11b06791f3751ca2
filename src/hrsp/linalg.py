"""Dense complex linear algebra for small multi-qubit systems.

Everything here works on plain numpy arrays with big-endian qubit ordering:
basis index of |b0 b1 ... b(n-1)> is the integer with b0 as the most
significant bit.
"""

from __future__ import annotations

import numpy as np

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


#: qubits of each party, in qubit order: Alice keeps qubit 0; pairs (1,2),
#: (3,4), (5,6) travel to Bob, Charlie, David.
PARTY_QUBITS = {"alice": (0,), "bob": (1, 2), "charlie": (3, 4), "david": (5, 6)}
