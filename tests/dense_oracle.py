"""Numpy reference routes to the receiver's state, for the tests.

The package computes the receiver's state in exact integers (hrsp.exact).
This module holds its numpy oracles. branch_amplitudes is the one
pure-state contraction: the receiver's amplitudes W of one outcome branch,
through an (n, 4, 4) stack of operators on every receiver pair, in matrix
products. With the channel's eta-free pair terms (pair_terms) it is the
oracle of hrsp.exact's Grams; with the per-eta pair Kraus operators
(kraus_operators, party_kraus_stack) it feeds the dense chain. That chain
reaches the same state the long way: the noise channel on the full
seven-qubit density matrix (apply_channel), the tensor-product measurement
operator U of one outcome (scenario_for, build_measurement_operator), and
the partial trace onto the receiver's qubits (partial_trace). channel_trace
gives a stack's output trace.

The package scores the pure target by its overlap with the branch amplitudes.
This module scores it with the general Uhlmann fidelity
Tr sqrt( sqrt(rho0) rho_n sqrt(rho0) ) (uhlmann_fidelity, via psd_sqrt), which
equals that overlap only because the target is pure.

TOKENS holds every gate token as its numpy matrix, built from the integer
hrsp.exact.GATES and the complex hrsp.linalg.Y, and
complex_correction_unitary multiplies them: a rule's true complex unitary,
where the package carries the integer product real_product, its count of
Hadamards and its count of Y tokens. complex_oracle_search is the
correction search in complex arithmetic, on normalized float branch vectors
(branch_vector): the true complex Y tokens in its step matrix, conjugated
targets and |overlap|^2 at two parameter points, every sequence of a length
at once. The package's integer table, which steps with iY, must return the
same gates. complex_noiseless_fidelity and complex_verify_table multiply the
true complex tokens as well, with the complex phase_aligned_distance; the
row verdicts must come out equal. dense_verify_factorization is the numpy
reassembly of a published factorization against the numpy protocol state
and branch kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hrsp.exact import GATES, KRAUS_TEMPLATES, NOISE_KINDS, check_outcome
from hrsp.linalg import I2, Y, kron
from hrsp.noise import warn_trace_deficit
from hrsp.protocol import (BOB_EXPANSION, CORRECTION_TABLES, DAVID_EXPANSION,
                           ORACLE_MAX_DEPTH, ORACLE_POINTS, ORACLE_VOCABULARY,
                           BRANCH_PROBABILITY_FLOOR, FactorizationReport,
                           LineReport, RowVerdict, derive_receiver_table,
                           oracle_find_correction)
from hrsp.states import TargetSpec, protocol_state, target_state, zeta_basis

#: a sequence corrects a branch at a parameter point when its fidelity is at
#: least 1 - FIDELITY_TOL there
FIDELITY_TOL = 1e-10
PROJECTOR_TOL = 1e-10
HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10
EIGENVALUE_FLOOR = 1e-13

#: qubits of each party, in qubit order: Alice keeps qubit 0; pairs (1,2),
#: (3,4), (5,6) travel to Bob, Charlie, David.
PARTY_QUBITS = {"alice": (0,), "bob": (1, 2), "charlie": (3, 4), "david": (5, 6)}


def projector(v: np.ndarray) -> np.ndarray:
    """|v><v| for a 1-D state vector."""
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def num_qubits_of(dim: int) -> int:
    n = int(round(np.log2(dim)))
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def partial_trace(rho: np.ndarray, traced_qubits) -> np.ndarray:
    """Trace out the given qubits of a multi-qubit density matrix.

    The remaining qubits keep their relative order. Implemented by index
    arithmetic on the reshaped (2,)*2n tensor rather than repeated two-qubit
    contractions, so it can be checked against a direct summation oracle.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    n = num_qubits_of(rho.shape[0])
    traced = sorted(set(traced_qubits))
    if traced and (traced[0] < 0 or traced[-1] >= n):
        raise ValueError(f"traced qubits {traced} out of range for {n} qubits")
    keep = [q for q in range(n) if q not in traced]

    t = rho.reshape((2,) * (2 * n))
    perm = keep + traced + [q + n for q in keep] + [q + n for q in traced]
    t = np.transpose(t, perm)
    dk, dt = 2 ** len(keep), 2 ** len(traced)
    t = t.reshape(dk, dt, dk, dt)
    return np.einsum("abcb->ac", t)


# --------------------------------------------------------------------------
# The branch kernel.
def basis_ket(bits: str) -> np.ndarray:
    """Computational basis vector |bits>, big-endian."""
    v = np.zeros(2 ** len(bits))
    v[int(bits, 2)] = 1.0
    return v


_SIGN_KETS = {"+": np.array([1.0, 1.0]) / np.sqrt(2),
              "-": np.array([1.0, -1.0]) / np.sqrt(2)}


def hadamard_ket(labels: str) -> np.ndarray:
    """Two-qubit |+>/|-> product, e.g. '+-' -> |+>(x)|->."""
    return kron(*(_SIGN_KETS[c] for c in labels))


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

    kraus is an (n, 4, 4) stack of operators on every receiver pair: the
    default IDENTITY_STACK for no noise, the channel's eta-free pair terms
    (pair_terms), or one eta's pair Kraus operators (party_kraus_stack).
    For collaborators projected onto |x>, |y> and receiver R,
    W[k_X, k_Y, k_R, :] = (<zeta| (x) <x|S[k_X] (x) S[k_R] (x) <y|S[k_Y]) |Psi>,
    so rho = W^T W (W as (-1, 4)) with trace the branch probability when S
    is the pair Kraus operators. spec is a TargetSpec, or a sequence of
    them: W then gains a leading axis, one entry per spec.

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


# --------------------------------------------------------------------------
# The channel's eta-free pair terms.
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


# --------------------------------------------------------------------------
# The noise channel, one eta at a time.
def kraus_operators(kind, etas) -> np.ndarray:
    """Single-qubit Kraus operators of one noise kind at every eta, shape
    (len(etas), n, 2, 2), written out entry by entry, one eta at a time:
    AD K0 = diag(1, s), K1 = t|0><1|; PD E0 = s I, E1 = t|0><0|,
    E2 = t|1><1|, with t = sqrt(eta), s = sqrt(1 - eta)."""
    ops = []
    for eta in etas:
        s, t = np.sqrt(1 - eta), np.sqrt(eta)
        ops.append({"ad": [[[1, 0], [0, s]], [[0, t], [0, 0]]],
                    "pd": [[[s, 0], [0, s]], [[t, 0], [0, 0]],
                           [[0, 0], [0, t]]]}[kind])
    return np.array(ops, dtype=complex)


def party_kraus_stack(kraus: np.ndarray, correlated: bool = True) -> np.ndarray:
    """Kraus operators on one receiver's qubit pair, stacked on axis -3:
    K_i (x) K_i when correlated, K_i (x) K_j over all pairs otherwise. kraus
    is a (..., n, 2, 2) array such as kraus_operators(kind, etas); leading
    axes carry over."""
    pairs = np.einsum("...iab,...icd->...iacbd" if correlated
                      else "...iab,...jcd->...ijacbd", kraus, kraus)
    return pairs.reshape(*kraus.shape[:-3], -1, 4, 4)


def channel_trace(kraus: np.ndarray) -> float | np.ndarray:
    """Trace of the channel output for |Psi><Psi|, per leading axis of the stack
    on every receiver pair: <Psi| I (x) M (x) M (x) M |Psi>, M = sum_k S_k^dag S_k."""
    m = np.einsum("...kji,...kjl->...il", kraus.conj(), kraus)
    psi = protocol_state().reshape(2, 4, 4, 4)
    return np.einsum("abcd,...be,...cf,...dg,aefg->...", psi.conj(), m, m, m,
                     psi, optimize=True).real


def apply_channel(rho: np.ndarray, kraus: np.ndarray,
                  correlated: bool = True) -> np.ndarray:
    """Evolve a seven-qubit rho under the noise on every receiver qubit; kraus
    holds one eta's single-qubit operators, shape (n, 2, 2).

    Correlated mode: one Kraus index per receiver, applied to both of its
    qubits. Uncorrelated mode: an independent index on every receiver qubit
    (an ordinary product channel, trace preserving). Either channel is a
    product over slots (a receiver pair, or one receiver qubit), so each
    slot's Kraus sum is applied in turn as dense 128x128 terms.
    """
    rho = np.asarray(rho, dtype=complex)
    n = sum(map(len, PARTY_QUBITS.values()))
    if rho.shape != (2 ** n, 2 ** n):
        raise ValueError(f"expected a {2 ** n}x{2 ** n} density matrix, "
                         f"got {rho.shape}")

    pairs = [qs for party, qs in PARTY_QUBITS.items() if party != "alice"]
    slots = pairs if correlated else [(q,) for qs in pairs for q in qs]
    out = rho
    for slot in slots:
        terms = [kron(*(k if q in slot else I2 for q in range(n)))
                 for k in kraus]
        out = sum(a @ out @ a.conj().T for a in terms)

    if correlated:
        warn_trace_deficit(float(np.trace(rho).real - np.trace(out).real))
    return out


# --------------------------------------------------------------------------
# Measurement scenarios (the collapse operator U).
@dataclass(frozen=True, eq=False)
class MeasurementScenario:
    """Projectors applied during collapse; the receiver's block is I4."""

    receiver: str
    sender_projector: np.ndarray
    collaborator_projectors: dict[str, np.ndarray]

    def __post_init__(self):
        for name, p in [("sender", self.sender_projector),
                        *self.collaborator_projectors.items()]:
            if np.max(np.abs(p @ p - p)) > PROJECTOR_TOL or \
               np.max(np.abs(p - p.conj().T)) > PROJECTOR_TOL:
                raise ValueError(f"{name} block is not a projector")


def scenario_for(receiver: str, sender_outcome: str,
                 collaborator_outcomes: tuple[str, ...],
                 spec: TargetSpec) -> MeasurementScenario:
    """Scenario for one table row at the given target parameters."""
    zvec, kets = outcome_kets(receiver, sender_outcome, collaborator_outcomes,
                              spec)
    zproj = projector(zvec / np.linalg.norm(zvec))
    collab = {party: projector(ket) for party, ket in kets.items()}
    return MeasurementScenario(receiver=receiver, sender_projector=zproj,
                               collaborator_projectors=collab)


def build_measurement_operator(scenario: MeasurementScenario) -> np.ndarray:
    """Assemble U as the qubit-ordered tensor product of party blocks."""
    blocks = []
    for party, qubits in PARTY_QUBITS.items():
        if party == "alice":
            blocks.append(scenario.sender_projector)
        elif party == scenario.receiver:
            blocks.append(np.eye(2 ** len(qubits), dtype=complex))
        else:
            blocks.append(scenario.collaborator_projectors[party])
    u = kron(*blocks)
    if np.max(np.abs(u @ u - u)) > PROJECTOR_TOL:
        raise ValueError("assembled measurement operator is not a projector")
    return u


def rule_of(config):
    """The CorrectionRule of a PipelineConfig's row: the published rule, or
    for a row of the "oracle" table the derived rule, found by the oracle
    search that the sweeps do without, for the config's own receiver. The
    derived rule is searched on David's branch; carried over to Charlie,
    the dense route collapses Charlie's own qubits, an independent check of
    the swap symmetry the package relies on."""
    if config.table == "oracle":
        return derive_receiver_table()[config.row - 1]._replace(
            receiver=config.receiver)
    return CORRECTION_TABLES[config.table][config.row - 1]


def receiver_block(rho: np.ndarray, rule, spec: TargetSpec) -> np.ndarray:
    """partial_trace(U rho U^dag) onto the receiver of a CorrectionRule, not
    normalized (its trace is the branch probability), with U the 128x128
    measurement operator of the rule's outcome."""
    u = build_measurement_operator(
        scenario_for(rule.receiver, rule.sender_outcome,
                     rule.collaborator_outcomes, spec))
    kept = PARTY_QUBITS[rule.receiver]
    return partial_trace(u @ rho @ u.conj().T,
                         [q for q in range(7) if q not in kept])


# --------------------------------------------------------------------------
# Uhlmann fidelity.
def psd_sqrt(h: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root S of h with S @ S == h.

    Eigenvalues in [-PSD_TOL, 0) are clamped to zero; anything below
    -PSD_TOL is rejected as non-PSD.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape[0] != h.shape[1] or \
       np.max(np.abs(h - h.conj().T)) > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    if w[0] < -PSD_TOL:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def uhlmann_fidelity(rho0: np.ndarray, rho_n: np.ndarray) -> float | np.ndarray:
    """Tr sqrt( sqrt(rho0) rho_n sqrt(rho0) ), per leading axis of rho_n.

    Eigenvalues of each inner product below EIGENVALUE_FLOOR of its largest
    are floored to zero: sqrt amplifies eigensolver noise (~1e-16) to ~1e-8,
    which would otherwise swamp the agreement with the pure-target overlap.
    """
    s0 = psd_sqrt(rho0)
    mid = s0 @ rho_n @ s0
    mid = (mid + mid.conj().swapaxes(-1, -2)) / 2
    w = np.linalg.eigvalsh(mid)
    floor = np.maximum(w[..., -1:], 0.0) * EIGENVALUE_FLOOR
    return np.sqrt(np.where(w > floor, w, 0.0)).sum(axis=-1)


def corrected_fidelity(block: np.ndarray, rule, spec: TargetSpec) -> float:
    """Uhlmann fidelity against the target of the rule's correction O applied
    to a receiver_block: uhlmann_fidelity(|xi><xi|, O rho O^dag / p)."""
    o = complex_correction_unitary(rule.gates)
    rho_n = o @ block @ o.conj().T / np.trace(block).real
    return float(uhlmann_fidelity(projector(target_state(spec)), rho_n))


# --------------------------------------------------------------------------
# Complex correction search.
def branch_vector(receiver: str, sender_outcome: str,
                  collaborator_outcomes: tuple[str, ...], spec: TargetSpec):
    """Receiver's collapsed two-qubit state, normalized, and its probability,
    from the numpy kernel branch_amplitudes. A vanishing branch raises."""
    v = branch_amplitudes(receiver, sender_outcome, collaborator_outcomes,
                          spec).reshape(4)
    prob = float(np.linalg.norm(v) ** 2)
    if prob <= BRANCH_PROBABILITY_FLOOR:
        raise ValueError("outcome branch has vanishing probability")
    return v / np.sqrt(prob), prob


def complex_oracle_search(receiver: str, sender_outcome: str,
                          collaborator_outcomes: tuple[str, ...]
                          ) -> tuple[str, ...] | None:
    """The gates of the first sequence over ORACLE_VOCABULARY, shortest first
    and lexicographic within a length, that takes the collapsed branch to the
    target with fidelity >= 1 - FIDELITY_TOL at every ORACLE_POINTS, searched
    in complex128 with the true Y tokens; None if none up to ORACLE_MAX_DEPTH."""
    step = np.concatenate([TOKENS[t].T for t in ORACLE_VOCABULARY], axis=1)
    vectors = np.array([branch_vector(receiver, sender_outcome,
                                      collaborator_outcomes, spec)[0]
                        for spec in ORACLE_POINTS])[:, None, :]
    targets = np.array([target_state(spec).conj() for spec in ORACLE_POINTS])
    n = len(ORACLE_VOCABULARY)
    probes = (step.reshape(4, n, 4) @ targets[:, None, :, None])[..., 0]
    for depth in range(1, ORACLE_MAX_DEPTH + 1):
        overlap = (vectors @ probes).reshape(len(ORACLE_POINTS), -1)
        hit = (np.abs(overlap) ** 2 >= 1.0 - FIDELITY_TOL).all(axis=0)
        first = int(np.argmax(hit))
        if hit[first]:
            digits = []
            for _ in range(depth):
                digits.append(first % n)
                first //= n
            return tuple(ORACLE_VOCABULARY[d] for d in reversed(digits))
        vectors = (vectors @ step).reshape(len(ORACLE_POINTS), -1, 4)
    return None


# --------------------------------------------------------------------------
# Complex row verification.
def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over theta of max |a - e^{i theta} b|, exactly: 0 (to rounding)
    when a = e^{i theta} b. With z = conj(a) b = x + iy, each entry's
    |a - e^{i theta} b|^2 / 2 = (|a|^2 + |b|^2) / 2 - x cos theta + y sin theta
    is affine in the point (cos theta, sin theta) of the unit circle. So the
    minimum of their maximum lies where one entry's is least, at
    conj(z) / |z|, or where two entries' cross on the circle. Those points
    and theta = 0 are at most n^2 + 1 candidates for n entries, each scored
    directly. The arithmetic is real, on the real and imaginary parts."""
    ar, ai, br, bi = (part(np.ravel(m)) for m in (a, b)
                      for part in (np.real, np.imag))
    x, y = ar * br + ai * bi, ar * bi - ai * br
    mag = np.sqrt(x * x + y * y)
    half = (ar * ar + ai * ai + br * br + bi * bi) / 2
    # entries j and k cross on the line u cos + v sin = d, which meets the
    # circle where d^2 <= n2; (j, k) gives one point and (k, j) the other
    u, v, d = x[:, None] - x, y - y[:, None], half[:, None] - half
    n2 = u * u + v * v
    cross = (n2 > 0) & (d * d <= n2)
    u, v, d, n2 = u[cross], v[cross], d[cross], n2[cross]
    h = np.sqrt(n2 - d * d)
    least = mag > 0
    cos = np.concatenate([[1.0], x[least] / mag[least], (u * d - v * h) / n2])
    sin = np.concatenate([[0.0], -y[least] / mag[least], (v * d + u * h) / n2])
    # |a - (cos + i sin) b| per candidate and entry
    re = ar - cos[:, None] * br + sin[:, None] * bi
    im = ai - cos[:, None] * bi - sin[:, None] * br
    return float(np.sqrt(re * re + im * im).max(axis=1).min())


#: every gate token, keyed by its notation, as its read-only 4x4 matrix on the
#: receiver register (local qubit 1 is the high bit): the integer matrices of
#: hrsp.exact.GATES over sqrt(2)^h, real, and the complex Y1 and Y2
TOKENS = {**{name: np.array(m) / np.sqrt(2) ** h for name, (m, h) in GATES.items()},
          "Y1": kron(Y, I2), "Y2": kron(I2, Y)}
for _token in TOKENS.values():
    _token.setflags(write=False)


def complex_correction_unitary(gates) -> np.ndarray:
    """Composite unitary of a gate sequence, first token applied first, as
    the product of the true TOKENS: complex128 from the first Y on."""
    u = np.eye(4)
    for tok in gates:
        u = TOKENS[tok] @ u
    return u


def complex_noiseless_fidelity(rule, spec: TargetSpec) -> float:
    """|<xi| U_rule |branch>| with the rule's complex unitary."""
    branch, _ = branch_vector(rule.receiver, *rule.outcomes, spec)
    out = complex_correction_unitary(rule.gates) @ branch
    return float(abs(np.vdot(target_state(spec), out)))


def complex_verify_table(table_id: str) -> tuple[RowVerdict, ...]:
    """protocol.verify_table on the complex unitaries: confirmed where the
    oracle's unitary equals the published one entry by entry, and the
    matrix distance taken between the two complex unitaries."""
    rows = []
    for i, rule in enumerate(CORRECTION_TABLES[table_id], start=1):
        oracle = oracle_find_correction(rule.receiver, *rule.outcomes)
        up = complex_correction_unitary(rule.gates)
        uo = complex_correction_unitary(oracle.gates)
        fids = tuple(complex_noiseless_fidelity(rule, spec)
                     for spec in ORACLE_POINTS)
        if min(fids) < 1.0 - FIDELITY_TOL:
            verdict = "mismatch"
        elif np.max(np.abs(uo - up)) < 1e-10:
            verdict = "confirmed"
        else:
            verdict = "phase-equivalent"
        rows.append(RowVerdict(
            table=table_id, row=i, sender_outcome=rule.sender_outcome,
            collaborator_outcomes=rule.collaborator_outcomes,
            published_rule=rule.gate_string,
            published_fidelities=fids, oracle_rule=oracle.gate_string,
            matrix_distance=phase_aligned_distance(uo, up), verdict=verdict))
    return tuple(rows)


# --------------------------------------------------------------------------
# Numpy reassembly of the published factorizations.
def _combo(parts, spec: TargetSpec, basis: str) -> np.ndarray:
    out = np.zeros(4)
    for tag, label in parts:
        v = basis_ket(label) if basis == "computational" else hadamard_ket(label)
        sign = 1.0 if tag[0] == "+" else -1.0
        out += sign * (spec.alpha if tag[1] == "a" else spec.beta) * v
    return out


def dense_verify_factorization(variant: str, spec: TargetSpec) -> FactorizationReport:
    """protocol.verify_factorization on numpy arrays: each published line
    against the numpy kernel's branch, and the reassembly against the numpy
    protocol state."""
    if variant not in ("bob", "david"):
        raise ValueError(f"unknown factorization variant {variant!r}")
    bob = variant == "bob"
    expansion, norm = (BOB_EXPANSION, 2.0) if bob else (DAVID_EXPANSION, 4.0)
    total = np.zeros(128)
    lines = []
    for outcome, zvec in zeta_basis(spec).items():
        branch = np.zeros(64)
        for i, line in enumerate(expansion[outcome], start=1):
            if bob:
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
