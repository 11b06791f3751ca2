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
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .exact import (BRANCH_PROBABILITY_FLOOR, BROWN_TERMS, COLLABORATOR_LABELS,
                    NORM_TOL, TargetSpec, check_outcome)
from .linalg import kron

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
PLUS = (KET0 + KET1) / np.sqrt(2)
MINUS = (KET0 - KET1) / np.sqrt(2)


def basis_ket(bits: str) -> np.ndarray:
    """Computational basis vector |bits>, big-endian."""
    v = np.zeros(2 ** len(bits))
    v[int(bits, 2)] = 1.0
    return v


_SIGN_KETS = {"+": PLUS, "-": MINUS}
_HADAMARD_KETS = {a + b: kron(_SIGN_KETS[a], _SIGN_KETS[b])
                  for a in "+-" for b in "+-"}
for _ket in _HADAMARD_KETS.values():
    _ket.setflags(write=False)


def hadamard_ket(labels: str) -> np.ndarray:
    """Two-qubit |+>/|-> product, e.g. '+-' -> |+>(x)|-> (read-only)."""
    return _HADAMARD_KETS[labels]


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


def outcome_kets(receiver: str, sender_outcome: str,
                 collaborator_outcomes: tuple[str, ...], spec: TargetSpec):
    """The sender's zeta vector and {collaborator: ket}, in qubit order: the
    states one outcome projects the non-receiver parties onto."""
    check_outcome(receiver, sender_outcome, collaborator_outcomes)
    zvec = zeta_basis(spec)[sender_outcome]
    if receiver == "bob":
        (shared,) = collaborator_outcomes
        return zvec, {"charlie": basis_ket(shared), "david": basis_ket(shared)}
    # the other two receivers, in qubit order, measured in the Hadamard basis
    others = (p for p in ("bob", "charlie", "david") if p != receiver)
    return zvec, dict(zip(others, map(hadamard_ket, collaborator_outcomes)))


#: per receiver, the transpose of <zeta|Psi> from its (spec, bob, charlie,
#: david) axes to the kernel's (spec, x, y, R): the collaborators in qubit
#: order, then the receiver
_AXES = {"bob": (0, 2, 3, 1), "charlie": (0, 1, 3, 2), "david": (0, 1, 2, 3)}

#: the noiseless channel as a one-operator stack on every receiver pair
IDENTITY_STACK = np.eye(4)[None]
IDENTITY_STACK.setflags(write=False)


def branch_amplitudes(receiver: str, sender_outcome: str,
                      collaborator_outcomes: tuple[str, ...],
                      spec: TargetSpec | tuple[TargetSpec, ...],
                      kraus: np.ndarray = IDENTITY_STACK) -> np.ndarray:
    """Unnormalized receiver amplitudes of one outcome, after the channel.

    kraus is an (n, 4, 4) stack of operators on every receiver pair. The
    package passes the default IDENTITY_STACK for no noise; the tests also
    pass the channel's eta-free pair terms, the oracle of hrsp.exact's noisy
    Grams, and the per-eta pair Kraus operators, both from
    tests/dense_oracle.py. For collaborators projected onto |x>, |y> and
    receiver R, W[k_X, k_Y, k_R, :]
    = (<zeta| (x) <x|S[k_X] (x) S[k_R] (x) <y|S[k_Y]) |Psi>, so rho = W^T W
    (W as (-1, 4)) with trace the branch probability when S is the pair
    Kraus operators. spec is a TargetSpec, or a sequence of them: W then
    gains a leading axis, one entry per spec.

    The contraction is matrix products: <zeta| meets |Psi> once, in one
    matmul on |Psi> as (2, 64) whose result is transposed to the (x, y, R)
    axes, the collaborator bras meet the stack as <x|S[k], and two batched
    matmuls fold in the collaborators' and then the receiver's operators.
    """
    if kraus.ndim != 3 or kraus.shape[1:] != (4, 4):
        raise ValueError(f"expected an (n, 4, 4) stack, got shape {kraus.shape}")
    specs = [spec] if isinstance(spec, TargetSpec) else spec
    kets = [outcome_kets(receiver, sender_outcome, collaborator_outcomes, s)
            for s in specs]
    zbras = np.array([zvec for zvec, _ in kets])
    bx, by = kets[0][1].values()
    n = len(kraus)
    phi = (zbras @ protocol_state().reshape(2, 64)).reshape(-1, 4, 4, 4)
    phi = phi.transpose(_AXES[receiver]).reshape(-1, 4, 16)   # [x, yR]
    fx, fy = bx @ kraus, by @ kraus                     # (n, 4): <x|S[k]
    t = (fx @ phi).reshape(-1, n, 4, 4)                 # [k, y, r]
    w = (fy @ t).reshape(-1, n * n, 4)                  # [kl, r]
    w = (w @ kraus.reshape(n * 4, 4).T).reshape(-1, n, n, n, 4)    # [kl, mR]
    return w[0] if isinstance(spec, TargetSpec) else w


#: the published factorizations and their check, which moved to the numpy-free
#: hrsp.protocol, resolve here too, on first use
_MOVED = ("BOB_EXPANSION", "DAVID_EXPANSION", "FactorizationReport",
          "LineReport", "verify_factorization")


def __getattr__(name: str):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import protocol

    return getattr(protocol, name)
