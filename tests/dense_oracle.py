"""Dense 128x128 reference route to the receiver's state, for the tests.

The package computes the receiver's state by one pure-state contraction
(hrsp.states.branch_amplitudes) with the channel in one eta-free form
(hrsp.noise.pair_terms). This module reaches the same state the long way:
the single-qubit Kraus operators at each eta, written out entry by entry
(kraus_operators), the noise channel on the full seven-qubit density matrix
(apply_channel), the tensor-product measurement operator U of one outcome
(scenario_for, build_measurement_operator), and the partial trace onto the
receiver's qubits (partial_trace). It shares only the outcome states with the
package, so the tests can hold one against the other. party_kraus_stack and
channel_trace give the per-eta receiver-pair stack and its output trace, and
einsum_branch_amplitudes is the contraction itself, written as einsums over
named qubit-pair axes instead of matrix products.

The package scores the pure target by its overlap with the branch amplitudes.
This module scores it with the general Uhlmann fidelity
Tr sqrt( sqrt(rho0) rho_n sqrt(rho0) ) (uhlmann_fidelity, via psd_sqrt), which
equals that overlap only because the target is pure.

complex_oracle_search is the correction search in complex arithmetic: the
true complex Y tokens in its step matrix, conjugated targets and |overlap|^2.
The package's real search, which steps with iY, must return the same gates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hrsp.linalg import I2, kron
from hrsp.noise import warn_trace_deficit
from hrsp.protocol import (CORRECTION_TABLES, FIDELITY_TOL, ORACLE_MAX_DEPTH,
                           ORACLE_POINTS, ORACLE_VOCABULARY, TOKENS,
                           branch_vector, derive_receiver_table)
from hrsp.states import TargetSpec, outcome_kets, protocol_state, target_state

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


def einsum_branch_amplitudes(receiver, sender_outcome, collaborator_outcomes,
                             spec, kraus):
    """states.branch_amplitudes as three einsums over named qubit-pair axes:
    the reference for its matrix products."""
    zvec, collab = outcome_kets(receiver, sender_outcome,
                                collaborator_outcomes, spec)
    r, x, y = {"bob": "bcd", "charlie": "cbd", "david": "dbc"}[receiver]
    bx, by = (ket.conj() for ket in collab.values())
    psi = protocol_state().reshape(2, 4, 4, 4)
    fx, fy = (np.einsum("o,...koi->...ki", bra, kraus) for bra in (bx, by))
    w = np.einsum(f"a,...k{x},...l{y},abcd->...kl{r}", zvec.conj(), fx, fy, psi)
    return np.einsum("...klr,...mRr->...klmR", w, kraus)


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
    for a row of the "oracle" table Charlie's derived rule, found by the
    oracle search that the sweeps do without."""
    if config.table == "oracle":
        return derive_receiver_table("charlie")[config.row - 1]
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
    o = rule.unitary()
    rho_n = o @ block @ o.conj().T / np.trace(block).real
    return float(uhlmann_fidelity(projector(target_state(spec)), rho_n))


# --------------------------------------------------------------------------
# Complex correction search.
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
