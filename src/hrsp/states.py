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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import kron

NORM_TOL = 1e-12

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = (KET0 + KET1) / np.sqrt(2)
MINUS = (KET0 - KET1) / np.sqrt(2)

#: fully expanded Brown state: (basis bits, sign of the 1/(2 sqrt 2) amplitude)
BROWN_TERMS = (
    ("00101", +1), ("00110", -1), ("01000", +1), ("01011", -1),
    ("10001", +1), ("10010", +1), ("11100", +1), ("11111", +1),
)


def basis_ket(bits: str) -> np.ndarray:
    """Computational basis vector |bits>, big-endian."""
    v = np.zeros(2 ** len(bits), dtype=complex)
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
    out = np.zeros(32, dtype=complex)
    for bits, sign in BROWN_TERMS:
        out[int(bits, 2)] = sign
    return out / (2 * np.sqrt(2))


def extend_with_ancillas(brown: np.ndarray) -> np.ndarray:
    """Grow the five-qubit state to seven qubits.

    Appends two |0> ancillas and applies CNOTs with qubits 3 and 4 as
    controls and the ancillas (qubits 5 and 6) as targets. Amplitudes only
    get permuted: |b0..b4 00> -> |b0..b4 b3 b4>.
    """
    brown = np.asarray(brown, dtype=complex)
    if brown.shape != (32,):
        raise ValueError("expected a five-qubit state vector")
    out = np.zeros(128, dtype=complex)
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


@dataclass(frozen=True)
class TargetSpec:
    """Real amplitudes of the two-qubit target alpha|00> + beta|11>.

    Complex amplitudes are rejected: the sender's measurement basis is
    orthonormal only for real values. So are NaN and infinite ones, which
    would pass the norm check (a NaN compares unequal to everything).
    """

    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("alpha", "beta"):
            value = complex(getattr(self, name))
            if value.imag != 0.0:
                raise ValueError(f"{name} = {value} is not real; the sender's "
                                 "measurement basis needs real amplitudes")
            if not np.isfinite(value.real):
                raise ValueError(f"{name} = {value.real} is not finite")
            object.__setattr__(self, name, value.real)
        n = self.alpha ** 2 + self.beta ** 2
        if abs(n - 1.0) > NORM_TOL:
            raise ValueError(f"|alpha|^2 + |beta|^2 = {n:.12f}, expected 1")


def target_state(spec: TargetSpec) -> np.ndarray:
    """Two-qubit target vector (alpha, 0, 0, beta)."""
    return np.array([spec.alpha, 0, 0, spec.beta], dtype=complex)


def zeta_basis(spec: TargetSpec) -> dict[str, np.ndarray]:
    """Sender measurement basis {alpha|0> + beta|1>, beta|0> - alpha|1>},
    keyed by outcome label."""
    return {"zeta1": np.array([spec.alpha, spec.beta], dtype=complex),
            "zeta2": np.array([spec.beta, -spec.alpha], dtype=complex)}


def outcome_kets(receiver: str, sender_outcome: str,
                 collaborator_outcomes: tuple[str, ...], spec: TargetSpec):
    """The sender's zeta vector and {collaborator: ket}, in qubit order: the
    states one outcome projects the non-receiver parties onto."""
    zetas = zeta_basis(spec)
    if sender_outcome not in zetas:
        raise ValueError(f"unknown sender outcome {sender_outcome!r}, expected "
                         f"one of {tuple(zetas)}")
    zvec = zetas[sender_outcome]
    if receiver == "bob":
        (shared,) = collaborator_outcomes
        return zvec, {"charlie": basis_ket(shared), "david": basis_ket(shared)}
    if receiver not in ("charlie", "david"):
        raise ValueError(f"unknown receiver {receiver!r}")
    # the other two receivers, in qubit order, measured in the Hadamard basis
    others = (p for p in ("bob", "charlie", "david") if p != receiver)
    return zvec, dict(zip(others, map(hadamard_ket, collaborator_outcomes),
                          strict=True))


#: psi axis of the receiver, then of its collaborators in qubit order
_AXES = {"bob": "bcd", "charlie": "cbd", "david": "dbc"}

#: the noiseless channel as a one-operator stack on every receiver pair
IDENTITY_STACK = np.eye(4)[None]
IDENTITY_STACK.setflags(write=False)


def branch_amplitudes(receiver: str, sender_outcome: str,
                      collaborator_outcomes: tuple[str, ...],
                      spec: TargetSpec | tuple[TargetSpec, ...],
                      kraus: np.ndarray = IDENTITY_STACK) -> np.ndarray:
    """Unnormalized receiver amplitudes of one outcome, after the channel.

    kraus[..., k, :, :] is a 4x4 operator on every receiver pair: the terms
    of noise.pair_terms, or their sums at one eta, the pair Kraus operators
    (the default IDENTITY_STACK is no noise); leading axes carry over to W.
    For collaborators projected onto |x>, |y> and receiver R,
    W[..., k_X, k_Y, k_R, :]
    = (<zeta| (x) <x|S[k_X] (x) S[k_R] (x) <y|S[k_Y]) |Psi>, so rho = W^T W*
    (W as (..., -1, 4)) with trace the branch probability. spec is a
    TargetSpec, or a sequence of them: W then gains a leading axis, one
    entry per spec, ahead of the stack's.

    The contraction is matrix products: <zeta| meets |Psi> once, the
    collaborator bras meet the stack as <x|S[k], and two batched matmuls fold
    in the collaborators' and then the receiver's operators.
    """
    specs = [spec] if isinstance(spec, TargetSpec) else spec
    kets = [outcome_kets(receiver, sender_outcome, collaborator_outcomes, s)
            for s in specs]
    zbras = np.array([zvec for zvec, _ in kets]).conj()
    r, x, y = _AXES[receiver]
    bx, by = (ket.conj() for ket in kets[0][1].values())
    psi = protocol_state().reshape(2, 4, 4, 4)
    *lead, n, _, _ = kraus.shape
    phi = np.einsum(f"sa,abcd->s{x}{y}{r}", zbras, psi).reshape(
        -1, *(1,) * len(lead), 4, 16)
    fx, fy = bx @ kraus, by @ kraus                     # (..., n, 4): <x|S[k]
    t = (fx @ phi).reshape(-1, *lead, n, 4, 4)          # [k, y, r]
    w = (fy[..., None, :, :] @ t).reshape(-1, *lead, n * n, 4)      # [kl, r]
    w = (w @ kraus.reshape(*lead, n * 4, 4).swapaxes(-1, -2)       # [kl, mR]
         ).reshape(-1, *lead, n, n, n, 4)
    return w[0] if isinstance(spec, TargetSpec) else w


def diagonal_trace(m_bob, m_charlie, m_david) -> float | np.ndarray:
    """<Psi| I (x) diag(m_bob) (x) diag(m_charlie) (x) diag(m_david) |Psi> for
    4-vectors on the receiver pairs: sum |Psi_abcd|^2 m_b m_c m_d. Leading axes
    broadcast."""
    weight = np.abs(protocol_state().reshape(2, 4, 4, 4)) ** 2
    return np.einsum("abcd,...b,...c,...d->...", weight, m_bob, m_charlie,
                     m_david)


# --------------------------------------------------------------------------
# Published factorizations of the resource state, kept verbatim as data so
# they can be reassembled and checked against protocol_state().
#
# Bob variant: |Psi> = (|zeta1>|Xi1> + |zeta2>|Xi2>)/sqrt(2), where each Xi
# line is  sign * (Bob two-qubit combination) (x) |c>_C (x) |c>_D  and the
# Bob combination is a list of (coefficient, basis label) with coefficient
# one of +a, -a, +b, -b.
BOB_EXPANSION = {
    "zeta1": (
        (+1, (("+a", "01"), ("+b", "00")), "01", "01"),
        (+1, (("+b", "00"), ("-a", "01")), "10", "10"),
        (+1, (("+a", "10"), ("+b", "11")), "00", "00"),
        (+1, (("+b", "11"), ("-a", "10")), "11", "11"),
    ),
    "zeta2": (
        (+1, (("+b", "01"), ("-a", "00")), "01", "01"),
        (-1, (("+a", "00"), ("+b", "01")), "10", "10"),
        (+1, (("+b", "10"), ("-a", "11")), "00", "00"),
        (-1, (("+a", "11"), ("+b", "10")), "11", "11"),
    ),
}

# David variant: |Psi> = (|zeta1>|phi1> + |zeta2>|phi2>)/sqrt(2); each line is
# sign * |b>_B (x) |c>_C (x) (David combination), all in the Hadamard basis.
DAVID_EXPANSION = {
    "zeta1": (
        (+1, "++", "++", (("+a", "-+"), ("+b", "++"))),
        (+1, "+-", "++", (("+a", "+-"), ("-b", "--"))),
        (-1, "-+", "++", (("+a", "+-"), ("-b", "--"))),
        (+1, "--", "++", (("+b", "++"), ("-a", "-+"))),
        (+1, "++", "+-", (("+a", "--"), ("+b", "+-"))),
        (+1, "++", "-+", (("+a", "++"), ("+b", "-+"))),
        (+1, "++", "--", (("+a", "+-"), ("+b", "--"))),
        (+1, "+-", "+-", (("+a", "+-"), ("-b", "-+"))),
        (+1, "+-", "-+", (("+a", "--"), ("-b", "+-"))),
        (+1, "+-", "--", (("+a", "-+"), ("-b", "++"))),
        (-1, "-+", "+-", (("+a", "++"), ("+b", "-+"))),
        (-1, "-+", "-+", (("+a", "--"), ("+b", "+-"))),
        (-1, "-+", "--", (("+a", "-+"), ("+b", "++"))),
        (+1, "--", "+-", (("+b", "+-"), ("-a", "--"))),
        (+1, "--", "-+", (("+b", "-+"), ("-a", "++"))),
        (+1, "--", "--", (("+b", "--"), ("-a", "+-"))),
    ),
    "zeta2": (
        (+1, "++", "++", (("+b", "-+"), ("-a", "++"))),
        (+1, "+-", "++", (("+a", "--"), ("+b", "+-"))),
        (+1, "-+", "++", (("+a", "--"), ("-b", "+-"))),
        (-1, "--", "++", (("+a", "++"), ("+b", "-+"))),
        (+1, "++", "+-", (("+b", "--"), ("-a", "+-"))),
        (+1, "++", "-+", (("+b", "-+"), ("-a", "-+"))),
        (+1, "++", "--", (("+b", "+-"), ("-a", "--"))),
        (+1, "+-", "+-", (("+b", "++"), ("+a", "-+"))),
        (+1, "+-", "-+", (("+b", "--"), ("+a", "+-"))),
        (+1, "+-", "--", (("+a", "++"), ("+b", "-+"))),
        (+1, "-+", "+-", (("+a", "-+"), ("-b", "++"))),
        (+1, "-+", "-+", (("+a", "+-"), ("-b", "--"))),
        (+1, "-+", "--", (("+a", "++"), ("-b", "-+"))),
        (-1, "--", "+-", (("+a", "+-"), ("+b", "--"))),
        (-1, "--", "-+", (("+a", "-+"), ("+b", "++"))),
        (-1, "--", "--", (("+a", "--"), ("+b", "+-"))),
    ),
}


def _coef(tag: str, spec: TargetSpec) -> complex:
    sign = 1.0 if tag[0] == "+" else -1.0
    return sign * (spec.alpha if tag[1] == "a" else spec.beta)


def _combo(parts, spec: TargetSpec, basis: str) -> np.ndarray:
    out = np.zeros(4, dtype=complex)
    for tag, label in parts:
        v = basis_ket(label) if basis == "computational" else hadamard_ket(label)
        out += _coef(tag, spec) * v
    return out


@dataclass(frozen=True)
class LineReport:
    """Comparison of one published expansion line against the true branch."""

    sender_outcome: str
    line_index: int
    outcome_labels: tuple[str, ...]
    max_diff: float

    @property
    def mismatched(self) -> bool:
        return self.max_diff > 1e-9


@dataclass(frozen=True)
class FactorizationReport:
    variant: str
    spec: TargetSpec
    residual: float
    lines: tuple[LineReport, ...]

    @property
    def mismatched_lines(self) -> tuple[LineReport, ...]:
        return tuple(l for l in self.lines if l.mismatched)


def verify_factorization(variant: str, spec: TargetSpec) -> FactorizationReport:
    """Reassemble a published factorization and compare with the true state.

    Returns the max elementwise residual plus per-line diffs between each
    published line and the projected true branch, which localize any
    disagreement to specific published terms. The residual is reported,
    never asserted: the receiver-side expansion is known to carry misprints.
    """
    if variant not in ("bob", "david"):
        raise ValueError(f"unknown factorization variant {variant!r}")
    bob = variant == "bob"
    expansion, norm = (BOB_EXPANSION, 2.0) if bob else (DAVID_EXPANSION, 4.0)
    total = np.zeros(128, dtype=complex)
    lines = []
    for outcome, zvec in zeta_basis(spec).items():
        branch = np.zeros(64, dtype=complex)
        for i, line in enumerate(expansion[outcome], start=1):
            if bob:
                # every published line gives Charlie and David one label
                sign, parts, *labels = line
                published = sign * _combo(parts, spec, "computational")
                branch += kron(published, *map(basis_ket, labels))
                outcomes = labels[:1]
            else:
                sign, *labels, parts = line
                published = sign * _combo(parts, spec, "hadamard")
                branch += kron(*map(hadamard_ket, labels), published)
                outcomes = labels
            true = branch_amplitudes(variant, outcome, tuple(outcomes), spec)
            lines.append(LineReport(
                sender_outcome=outcome, line_index=i, outcome_labels=tuple(labels),
                max_diff=float(np.max(np.abs(
                    true.reshape(4) * (norm * np.sqrt(2)) - published)))))
        total += kron(zvec, branch / norm)
    residual = float(np.max(np.abs(total / np.sqrt(2) - protocol_state())))
    return FactorizationReport(variant=variant, spec=spec, residual=residual,
                               lines=tuple(lines))
