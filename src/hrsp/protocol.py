"""Gate grammar, correction tables, and their independent verifier.

Conventions, each validated by the noiseless oracle below:

* Gate strings read left to right in application order: in "X2 CX2-1" the X
  on qubit 2 acts first, so the composite matrix is CX(2->1) @ (I (x) X).
* Subscripts name the receiver's local qubits 1 and 2; for CX/RCX the pair
  is control-target. A token is its canonical notation, a TOKENS key: no
  other spelling ("X01", "X+1") parses.
* iY is the real matrix [[0, 1], [-1, 0]]; the i and any -1 are global
  phases and drop out under density-matrix conjugation.
* Every gate product is real: a sequence's unitary is (-i)^k R, with R the
  real product in which iY stands for Y (Y = -i iY) and k its count of Y
  tokens (real_product). The search, the row verdicts, their matrix
  distances and the report read R and k only; the complex Y lives in TOKENS
  and in the unitary() of a rule that has a Y, for callers.
* RCX is the zero-controlled CNOT: it flips the target when the control is
  |0>. The alternative reading (control/target swap) fails several table
  rows that this one confirms, so it is rejected.

The brute-force oracle enumerates sequences over a fixed ten-token
vocabulary, shortest first, lexicographic within a length, and returns the
first sequence that maps the collapsed branch onto the target at two
independent parameter points. It tests a length in blocks of 256 prefixes
(ORACLE_BLOCK), in order: the first hit stays the first in that order, and
no overlap temporary outgrows about 41 KB, where testing a whole length at
once took 160 KB at length 4 and ten times more per further token. It is
the authority whenever a published rule disagrees with it. It searches with
iY for Y, a phase that the overlap |<xi|U|v>| does not see, and the rules
it returns keep Y. The search and the collapsed branches it reads have one
entry point each, oracle_find_correction and branch_vector, and each caches
its own read-only results: a frozen rule per branch, and a normalized
vector per branch and parameter point. The noisy sweeps never search:
hrsp.pipeline reads a derived row's correction off its branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .linalg import H, I2, P0, P1, X, Y, Z, kron
from .states import (BRANCH_PROBABILITY_FLOOR, COLLABORATOR_LABELS, TargetSpec,
                     branch_amplitudes, target_state)

FIDELITY_TOL = 1e-10

#: parameter points every correction is validated at
ORACLE_POINTS = (TargetSpec(1 / np.sqrt(2), 1 / np.sqrt(2)), TargetSpec(0.6, 0.8))

ORACLE_MAX_DEPTH = 6

#: prefixes per overlap test of the oracle search, which bounds its overlap
#: temporaries near 41 KB at any depth
ORACLE_BLOCK = 256

SENDER_OUTCOMES = ("zeta1", "zeta2")

_IY = np.array([[0.0, 1.0], [-1.0, 0.0]])

#: every gate token, keyed by its table notation, as its read-only 4x4
#: matrix on the receiver register (local qubit 1 is the high bit); real
#: but for Y1 and Y2
TOKENS = {
    **{f"{name}{q}": kron(g, I2) if q == 1 else kron(I2, g)
       for name, g in (("H", H), ("X", X), ("Y", Y), ("iY", _IY),
                       ("-iY", -_IY), ("Z", Z))
       for q in (1, 2)},
    "CX1-2": kron(P1, X) + kron(P0, I2),
    "CX2-1": kron(X, P1) + kron(I2, P0),
    "RCX1-2": kron(P0, X) + kron(P1, I2),
    "RCX2-1": kron(X, P0) + kron(I2, P1),
}
for _m in TOKENS.values():
    _m.setflags(write=False)

#: the tokens as real matrices: Y1 and Y2 read as iY1 and iY2, which are
#: i times Y
_REAL_TOKENS = {tok: TOKENS["i" + tok if tok[0] == "Y" else tok] for tok in TOKENS}


def real_product(gates) -> tuple[np.ndarray, int]:
    """(R, k) with R the real product of a gate sequence, first token applied
    first and iY for each Y, and k its count of Y tokens: the sequence's
    unitary is (-i)^k R."""
    r = np.eye(4)
    for tok in gates:
        r = _REAL_TOKENS[tok] @ r
    return r, sum(tok[0] == "Y" for tok in gates)


def correction_unitary(gates) -> np.ndarray:
    """Composite unitary of a gate sequence, first token applied first:
    real_product's R, times (-i)^k only where the sequence has k > 0 Y
    tokens."""
    r, k = real_product(gates)
    return (-1j) ** k * r if k else r


def parse_gate_string(text: str) -> tuple[str, ...]:
    """Split table notation like "-iY2 X1,2 CX2-1" into TOKENS keys.

    O1 / O2 target one qubit, O1,2 expands to O on both, and O1-2 / O2-1
    give control-target for CX/RCX. An empty string is the identity. Any
    other word, a non-canonical target such as "X01" included, raises
    ValueError naming its position.
    """
    tokens: list[str] = []
    for pos, word in enumerate(text.split(), start=1):
        expanded = ((word[:-3] + "1", word[:-3] + "2") if word.endswith("1,2")
                    else (word,))
        if not all(tok in TOKENS for tok in expanded):
            raise ValueError(f"unknown gate token {word!r} at position {pos}")
        tokens += expanded
    return tuple(tokens)


@dataclass(frozen=True)
class CorrectionRule:
    """Conditional local correction for one measurement outcome."""

    receiver: str
    sender_outcome: str
    collaborator_outcomes: tuple[str, ...]
    gates: tuple[str, ...]  # TOKENS keys, in application order
    source: str  # "published" or "oracle"

    @property
    def gate_string(self) -> str:
        return " ".join(self.gates)

    @property
    def outcomes(self) -> tuple[str, tuple[str, ...]]:
        """(sender outcome, collaborator outcomes): the branch it corrects,
        one of BRANCHES[receiver]."""
        return self.sender_outcome, self.collaborator_outcomes

    def unitary(self) -> np.ndarray:
        return correction_unitary(self.gates)


# --------------------------------------------------------------------------
# Published correction tables. Collaborator outcomes: for Bob a single
# computational label shared by Charlie and David; for David the Bob and
# Charlie Hadamard-basis labels.
def _rows(receiver, sender_outcome, entries):
    return tuple(
        CorrectionRule(receiver=receiver, sender_outcome=sender_outcome,
                       collaborator_outcomes=outcomes,
                       gates=parse_gate_string(rule), source="published")
        for outcomes, rule in entries)


TABLE_I = _rows("bob", "zeta1", [
    (("01",), "X2 CX2-1"),
    (("10",), "iY2 CX2-1"),
    (("00",), "X1 CX2-1"),
    (("11",), "-iY2 X1,2 CX2-1"),
]) + _rows("bob", "zeta2", [
    (("01",), "iY2 X2 CX2-1"),
    (("10",), "-iY1 RCX2-1"),
    (("00",), "Z2 X1,2 CX2-1"),
    (("11",), "iY1 X2 CX2-1"),
])

TABLE_II = _rows("david", "zeta1", [
    (("++", "++"), "H1,2 X1 CX1-2"),
    (("+-", "++"), "H1,2 Z1 RCX1-2"),
    (("-+", "++"), "H1,2 Z2 RCX1-2"),
    (("--", "++"), "H1,2 iY1 CX1-2"),
    (("++", "+-"), "H1,2 X1,2 CX1-2"),
    (("++", "-+"), "H1,2 CX1-2"),
    (("++", "--"), "H1,2 RCX1-2"),
    (("+-", "+-"), "H1,2 Z1 CX1-2"),
    (("+-", "-+"), "H1,2 X1,2 Z1 CX1-2"),
    (("+-", "--"), "H1,2 X1 Z1 CX1-2"),
    (("-+", "+-"), "H1,2 X2 Z2 RCX1-2"),
    (("-+", "-+"), "H1,2 iY2 X1 CX1-2"),
    (("-+", "--"), "H1,2 X2 Z2 X1 X2 CX1-2"),
    (("--", "+-"), "H1,2 iY1 X2 CX1-2"),
    (("--", "-+"), "H1,2 X2 Z2 RCX1-2"),
    (("--", "--"), "H1,2 Z2 Z1 RCX1-2"),
])

TABLE_III = _rows("david", "zeta2", [
    (("++", "++"), "H1,2 X1 Z1 X1 CX1-2"),
    (("+-", "++"), "H1,2 X1,2 CX1-2"),
    (("-+", "++"), "H1,2 X1,2 Z1 CX1-2"),
    (("--", "++"), "H1,2 X2 Z2 RCX1-2"),
    (("++", "+-"), "H1,2 iY1 X1,2 CX1-2"),
    (("++", "-+"), "H1,2 Z1 X2 CX1-2"),
    (("++", "--"), "H1,2 Z1 X1,2 CX1-2"),
    (("+-", "+-"), "H1,2 X1 CX1-2"),
    (("+-", "-+"), "H1,2 X2 CX1-2"),
    (("+-", "--"), "H1,2 CX1-2"),
    (("-+", "+-"), "H1,2 iY1 CX1-2"),
    (("-+", "-+"), "H1,2 X2 Z1 CX1-2"),
    (("-+", "--"), "H1,2 Z1 CX1-2"),
    (("--", "+-"), "H1,2 Z1 X1 CX2-1"),
    (("--", "-+"), "H1,2 X1 CX1-2"),
    (("--", "--"), "H1,2 Z2 CX1-2"),
])

CORRECTION_TABLES = {"I": TABLE_I, "II": TABLE_II, "III": TABLE_III}


@lru_cache(maxsize=256)
def branch_vector(receiver: str, sender_outcome: str,
                  collaborator_outcomes: tuple[str, ...],
                  spec: TargetSpec):
    """Receiver's collapsed two-qubit state, normalized, and its probability:
    states.branch_amplitudes through the noiseless identity stack. Cached and
    read-only: the oracle search, the row verdicts and the report read each
    branch at each of ORACLE_POINTS once, Bob's 8 and David's 32 branches x 2
    points = 80 entries (the derived table reads David's branches for
    Charlie too). A vanishing branch raises, and is not cached."""
    v = branch_amplitudes(receiver, sender_outcome, collaborator_outcomes,
                          spec).reshape(4)
    prob = float(np.linalg.norm(v) ** 2)
    if prob <= BRANCH_PROBABILITY_FLOOR:
        raise ValueError("outcome branch has vanishing probability")
    v = v / np.sqrt(prob)
    v.setflags(write=False)
    return v, prob


def noiseless_fidelity(rule: CorrectionRule, spec: TargetSpec) -> float:
    """|<xi| U_rule |branch>| for the rule's outcome at the given parameters,
    as |<xi| R |branch>|: the rule's phase (-i)^k drops out."""
    branch, _ = branch_vector(rule.receiver, *rule.outcomes, spec)
    out = real_product(rule.gates)[0] @ branch
    return float(abs(np.vdot(target_state(spec), out)))


# --------------------------------------------------------------------------
# Brute-force oracle.
ORACLE_VOCABULARY = ("H1", "H2", "X1", "X2", "Y1", "Y2", "Z1", "Z2",
                     "CX1-2", "CX2-1")

#: the vocabulary's real transposes side by side: v @ _ORACLE_STEP holds
#: v @ m.T for every token m, in vocabulary order. The Y1/Y2 slots hold iY,
#: so a sequence with k Y tokens acts as (-i)^k times its real product, a
#: global phase that |<xi|U|v>| does not see
_ORACLE_STEP = np.concatenate([_REAL_TOKENS[t].T for t in ORACLE_VOCABULARY],
                              axis=1)


class OracleSearchError(RuntimeError):
    """No gate sequence up to the depth cap corrects the branch."""


@lru_cache(maxsize=None)
def oracle_find_correction(receiver: str, sender_outcome: str,
                           collaborator_outcomes: tuple[str, ...]) -> CorrectionRule:
    """Exhaustively derive the correction for one outcome.

    Enumerates token sequences in order of length, lexicographic by the
    vocabulary order within a length, and returns the first whose action
    takes the collapsed branch to the target with fidelity >= 1 - 1e-10 at
    both validation points. The arithmetic is real: the Y1/Y2 steps use
    iY, which differs from Y by the global phase -i, so the hits are those
    of the complex search, and the returned rule names Y1/Y2 as the true
    complex TOKENS.

    A depth is tested in blocks of ORACLE_BLOCK = 256 prefixes, in order,
    so the first hit is still the first in shortlex order, and no overlap
    temporary exceeds about 41 KB, where testing the whole depth at once
    took 160 KB at depth 4 and 16 MB at depth 6. The search stops after
    testing depth ORACLE_MAX_DEPTH, so a branch with no rule builds no
    longer sequences that nothing reads.

    Deterministic by construction, so cached: each branch is searched once
    per process, and every caller shares its frozen rule; the tables and the
    report search Bob's 8 and David's 32. A search that raises is not
    cached.
    """
    vectors = np.array([branch_vector(receiver, sender_outcome,
                                      collaborator_outcomes, spec)[0]
                        for spec in ORACLE_POINTS])[:, None, :]
    targets = np.array([target_state(spec) for spec in ORACLE_POINTS])
    n = len(ORACLE_VOCABULARY)
    # probes[p][:, j] = m_j.T xi_p: v @ probes[p] holds <xi_p| m_j |v> for
    # every token j, so a depth is tested before its vectors are built
    probes = (_ORACLE_STEP.reshape(4, n, 4) @ targets[:, None, :, None])[..., 0]
    for depth in range(1, ORACLE_MAX_DEPTH + 1):
        if depth > 1:
            vectors = (vectors @ _ORACLE_STEP).reshape(len(ORACLE_POINTS), -1, 4)
        # row i*n + j extends prefix lo + i with vocabulary token j, so row
        # order stays lexicographic with the first-applied token outermost
        for lo in range(0, vectors.shape[1], ORACLE_BLOCK):
            overlap = (vectors[:, lo:lo + ORACLE_BLOCK] @ probes).reshape(
                len(ORACLE_POINTS), -1)
            hit = (overlap * overlap >= 1.0 - FIDELITY_TOL).all(axis=0)
            first = int(np.argmax(hit))
            if hit[first]:
                gates = tuple(ORACLE_VOCABULARY[d] for d in
                              np.unravel_index(lo * n + first, (n,) * depth))
                return CorrectionRule(receiver=receiver,
                                      sender_outcome=sender_outcome,
                                      collaborator_outcomes=collaborator_outcomes,
                                      gates=gates, source="oracle")
    raise OracleSearchError(
        f"no correction up to depth {ORACLE_MAX_DEPTH} for {receiver} "
        f"{sender_outcome} {collaborator_outcomes}")


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


# --------------------------------------------------------------------------
# Row-by-row verification.
@dataclass(frozen=True)
class RowVerdict:
    table: str
    row: int
    sender_outcome: str
    collaborator_outcomes: tuple[str, ...]
    published_rule: str
    published_fidelities: tuple[float, float]
    oracle_rule: str
    # phase_aligned_distance(oracle, published), of the full 4x4 unitaries,
    # read off their real products: the exact min over theta of
    # max |U_o - e^{i theta} U_p|, 0 where the two agree up to a global phase
    matrix_distance: float
    verdict: str                # confirmed | phase-equivalent | mismatch

    def line(self) -> str:
        f1, f2 = self.published_fidelities
        return (f"{self.table:>6} {self.row:3d}  {self.sender_outcome:5s} "
                f"{'|'.join(self.collaborator_outcomes):7s} "
                f"{self.published_rule:26s} F=({f1:.6f},{f2:.6f}) "
                f"oracle: {self.oracle_rule:22s} mdist={self.matrix_distance:.2e} "
                f"{self.verdict}")


def verify_table(table_id: str) -> tuple[RowVerdict, ...]:
    """Check every published row against the oracle at both parameter points.

    confirmed: fidelity 1 and the published unitary equals the oracle's.
    phase-equivalent: fidelity 1 and agreement up to a global phase, or up
    to action on the collapsed branch when the oracle found a shorter
    sequence (matrix_distance then reports the off-branch difference).
    mismatch: the published rule fails; the oracle rule is the correction.
    """
    rows = []
    for i, rule in enumerate(CORRECTION_TABLES[table_id], start=1):
        oracle = oracle_find_correction(rule.receiver, *rule.outcomes)
        (rp, kp), (ro, ko) = real_product(rule.gates), real_product(oracle.gates)
        fids = tuple(noiseless_fidelity(rule, spec) for spec in ORACLE_POINTS)
        # (-i)^ko ro = (-i)^kp rp: ko - kp even, and ro = (-1)^((ko - kp) / 2) rp
        if min(fids) < 1.0 - FIDELITY_TOL:
            verdict = "mismatch"
        elif (ko - kp) % 2 == 0 and \
                np.max(np.abs(ro - (1 - (ko - kp) % 4) * rp)) < 1e-10:
            verdict = "confirmed"
        else:
            verdict = "phase-equivalent"
        rows.append(RowVerdict(
            table=table_id, row=i, sender_outcome=rule.sender_outcome,
            collaborator_outcomes=rule.collaborator_outcomes,
            published_rule=rule.gate_string,
            published_fidelities=fids, oracle_rule=oracle.gate_string,
            matrix_distance=phase_aligned_distance(ro, rp), verdict=verdict))
    return tuple(rows)


#: every outcome branch of each receiver, as (sender outcome, collaborator
#: outcomes), the labels of the first collaborator outermost
BRANCHES = {receiver: tuple(product(SENDER_OUTCOMES, product(labels, repeat=count)))
            for receiver, (count, labels) in COLLABORATOR_LABELS.items()}


def derive_receiver_table() -> tuple[CorrectionRule, ...]:
    """Oracle-generate the full correction table of the Hadamard-collaborator
    receivers, on David's branches: rows 1..16 for zeta1, 17..32 for zeta2,
    the labels of the first collaborator outermost. It is Charlie's table as
    well (not published): |Psi> is symmetric under swapping Charlie and
    David, so their branches, and the rules the search finds for them, are
    equal. Each row is the cached, frozen rule of its search."""
    return tuple(oracle_find_correction("david", *branch)
                 for branch in BRANCHES["david"])


def format_table_report(verdicts: dict[str, tuple[RowVerdict, ...]]) -> str:
    """Structured text report: one line per row of verdicts (table id ->
    verify_table(table id)), plus the derived rows of Charlie and David."""
    lines = [" table row  sender collab  published rule            "
             "noiseless fidelity          oracle rule            distance verdict"]
    lines += (rv.line() for rows in verdicts.values() for rv in rows)
    lines.append("derived correction table for receiver charlie "
                 "(oracle, 16 rows per sender outcome):")
    for rule in derive_receiver_table():
        fids = tuple(noiseless_fidelity(rule, spec) for spec in ORACLE_POINTS)
        lines.append(
            f"oracle      {rule.sender_outcome:5s} "
            f"{'|'.join(rule.collaborator_outcomes):7s} "
            f"{rule.gate_string:26s} F=({fids[0]:.6f},{fids[1]:.6f})")
    return "\n".join(lines)
