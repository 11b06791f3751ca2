"""Exact Grams and one-row sweeps in the standard library alone.

A branch's Gram, and so every sweep of a row on it, follows from
integers: the eight Brown terms are +-1 times 1/(2 sqrt 2), a
collaborator's outcome ket is a basis ket or a Hadamard pair ket times 1/2,
the sender's outcome bras at the unit targets (1, 0) and (0, 1) are 0/+-1,
and every single-qubit Kraus operator is t^m (F + s D), with t = sqrt(eta),
s = sqrt(1 - eta), m in {0, 1} and 0/1 matrices F and D (KRAUS_TEMPLATES).
So this module builds a branch's Gram G(eta) (see hrsp.pipeline) as integer
coefficients over one power of two, reads the row's correction u exactly,
derives the row's curves from both in integers (_curves), and only then
turns to floats, to evaluate them on the grid. It is the one Gram builder
and the one derivation of a row's curves: hrsp.pipeline's stacks are
_curves laid out as arrays, its receiver_state reads _branch, and the
numpy kernel of tests/dense_oracle.py is the Grams' test oracle.

The Gram is read off the terms in pairs. With tau, tau' two Brown terms,
c their sender coefficients and X, Y, R the basis states they give the two
collaborators and the receiver,

    G = sum c_tau c_tau' A_x(X, X') A_y(Y, Y') E(|R><R'|),

where A_x(X, X') = sum_k <x|K_k|X> <x|K_k|X'> over the receiver-pair Kraus
operators K_k, the same for y, and E is the pair channel. Each factor is a
polynomial in eta and s, kept by its power index M * S_ORDERS + j of
eta^M s^j, as in hrsp.pipeline: a branch costs 64 term pairs, whichever
channel, where the numpy kernel contracts every triple of pair terms. A_x
depends on the channel and the outcome label alone (_factor), so a branch
takes 0.2 to 0.4 ms, and a CLI sweep builds one. The stores are
lru_caches on finite keys: _channel (4 channels), _factor (8 labels under
each), _terms (4: Bob or David, by sender outcome), branch_matrix (Bob's
8 and David's 32 noiseless branches), _branch (Bob's and David's 160
branches, the one store per branch: every table and hrsp.pipeline's
receiver_state read it) and _curves (288 rows under the four channels;
hrsp.pipeline's stacks call its uncached build, so a library process does
not keep the integer curves beside the arrays).

What a table row means is read here alone: _correction is the one reader
of a row's integer correction (v, q), which _curves takes, and _curves
holds the row's curves and eta = 1 folds, which sweep(), the tie decision
and the library's stacks read.

Which evaluation runs: `hrsp sweep` and `python -m hrsp.cli sweep` call
sweep() here on every grid, so no CLI sweep imports numpy, whose import is
most of a short sweep's time and memory. Every library caller of
hrsp.sweep runs hrsp.pipeline.sweep, whose numpy evaluation a scan of
many rows shares. This one costs one Python pass per eta: in a fresh
process the uncorrelated AD David sweep, the widest row, takes about
0.3 s at 20,001 points and 1.2 s at 100,001. Each evaluation is the
other's test oracle. The CLI prints through fidelity_texts, which decides
a fidelity within float noise of a printed 6-decimal tie from the row's
integer curves, so the printed digit does not depend on the evaluation.

The module also holds what both paths read and what a CLI sweep touches
without numpy: the targets, the sweep's config and results, the grid, the
raw correction tables and branch keys, the noiseless branches, the gate
tokens as integer matrices, the Kraus templates and the trace-deficit
warning. hrsp.states, hrsp.noise, hrsp.protocol and hrsp.pipeline
re-export each under its old name.

The records are typing.NamedTuples, immutable and hashable as tuples of
their fields: TargetSpec and PipelineConfig validate in __new__ (each
subclasses a NamedTuple of its fields), and so in _replace, which copies a
record validated again, and _make; FidelitySample and SweepResult are
plain. Nothing here imports dataclasses: its import, with inspect's, would
be most of a CLI process's own import time.
"""

from __future__ import annotations

import math
import sys
import warnings
from functools import lru_cache
from itertools import compress, count, product, repeat
from operator import add, gt, lt, mul, sub, truediv
from types import MappingProxyType
from typing import NamedTuple

NORM_TOL = 1e-12
#: a branch at or below this probability is not normalized
BRANCH_PROBABILITY_FLOOR = 1e-12
TRACE_DEFICIT_WARN = 1e-9
NOISE_KINDS = ("ad", "pd")
MAX_GRID_POINTS = 100_001   # step 1e-5; bounds the samples a sweep holds
#: how near a printed boundary (k + 1/2) 10^-6, in units of 10^-6, a
#: fidelity's float must lie for fidelity_texts to decide its digit exactly:
#: 1e-12, above the 5.6e-16 to which the two sweeps' floats agree on every
#: row at steps 0.1 and 0.001. A wider margin only sends more cells down the
#: exact path by chance, at about 4 ms each
TIE_MARGIN = 1e-6
#: a curve's coefficients: powers eta^0..eta^6 times s^0..s^12; the power
#: eta^M s^j has the index M * S_ORDERS + j
ETA_ORDERS, S_ORDERS = 7, 13

#: fully expanded Brown state: (basis bits, sign of the 1/(2 sqrt 2) amplitude)
BROWN_TERMS = (
    ("00101", +1), ("00110", -1), ("01000", +1), ("01011", -1),
    ("10001", +1), ("10010", +1), ("11100", +1), ("11111", +1),
)

SENDER_OUTCOMES = ("zeta1", "zeta2")

#: per receiver, how many collaborator labels an outcome has, and their values:
#: Charlie and David share one computational label for Bob, the other two
#: report a Hadamard label each
COLLABORATOR_LABELS = {"bob": (1, ("00", "01", "10", "11")),
                       "charlie": (2, ("++", "+-", "-+", "--")),
                       "david": (2, ("++", "+-", "-+", "--"))}

#: every outcome branch of each receiver, as (sender outcome, collaborator
#: outcomes), the labels of the first collaborator outermost
BRANCHES = {receiver: tuple(product(SENDER_OUTCOMES, product(labels, repeat=count)))
            for receiver, (count, labels) in COLLABORATOR_LABELS.items()}

#: the published correction tables, raw: per table its receiver and, per row,
#: the branch it corrects and the rule in table notation. Collaborator
#: outcomes: for Bob a single computational label shared by Charlie and
#: David; for David the Bob and Charlie Hadamard-basis labels.
PUBLISHED_TABLES = {
    "I": ("bob", (
        ("zeta1", ("01",), "X2 CX2-1"),
        ("zeta1", ("10",), "iY2 CX2-1"),
        ("zeta1", ("00",), "X1 CX2-1"),
        ("zeta1", ("11",), "-iY2 X1,2 CX2-1"),
        ("zeta2", ("01",), "iY2 X2 CX2-1"),
        ("zeta2", ("10",), "-iY1 RCX2-1"),
        ("zeta2", ("00",), "Z2 X1,2 CX2-1"),
        ("zeta2", ("11",), "iY1 X2 CX2-1"),
    )),
    "II": ("david", tuple(("zeta1", outcomes, rule) for outcomes, rule in (
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
    ))),
    "III": ("david", tuple(("zeta2", outcomes, rule) for outcomes, rule in (
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
    ))),
}

#: each table a config may name: the receivers it corrects (the last is the
#: one whose branches it reads) and the branch of each row. The derived table
#: reads David's for Charlie too: |Psi> is symmetric under swapping the two
_TABLES = {**{table: ((receiver,), tuple((sender, outcomes)
                                         for sender, outcomes, _ in rows))
              for table, (receiver, rows) in PUBLISHED_TABLES.items()},
           "oracle": (("charlie", "david"), BRANCHES["david"])}


def _kron(a, b):
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def _plus(a, b):
    return tuple(tuple(map(sum, zip(ra, rb))) for ra, rb in zip(a, b))


_I2, _X, _Z = ((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 0), (0, -1))
_H, _IY, _MINUS_IY = ((1, 1), (1, -1)), ((0, 1), (-1, 0)), ((0, -1), (1, 0))
_P0, _P1 = ((1, 0), (0, 0)), ((0, 0), (0, 1))

#: every real gate token, keyed by its table notation: its 4x4 matrix on the
#: receiver register (local qubit 1 is the high bit) times sqrt(2)^h, as
#: integers, and h, its count of Hadamard factors. iY is the real matrix
#: [[0, 1], [-1, 0]]; Y = -i iY, the one complex gate, is not here
GATES = {
    **{f"{name}{q}": (_kron(g, _I2) if q == 1 else _kron(_I2, g), h)
       for name, g, h in (("H", _H, 1), ("X", _X, 0), ("iY", _IY, 0),
                          ("-iY", _MINUS_IY, 0), ("Z", _Z, 0))
       for q in (1, 2)},
    "CX1-2": (_plus(_kron(_P1, _X), _kron(_P0, _I2)), 0),
    "CX2-1": (_plus(_kron(_X, _P1), _kron(_I2, _P0)), 0),
    "RCX1-2": (_plus(_kron(_P0, _X), _kron(_P1, _I2)), 0),
    "RCX2-1": (_plus(_kron(_X, _P0), _kron(_I2, _P1)), 0),
}

#: the complex tokens, Y on either qubit
Y_TOKENS = ("Y1", "Y2")


def parse_gate_string(text: str) -> tuple[str, ...]:
    """Split table notation like "-iY2 X1,2 CX2-1" into tokens, keys of
    GATES or Y_TOKENS.

    O1 / O2 target one qubit, O1,2 expands to O on both, and O1-2 / O2-1
    give control-target for CX/RCX. An empty string is the identity. Any
    other word, a non-canonical target such as "X01" included, raises
    ValueError naming its position.
    """
    tokens: list[str] = []
    for pos, word in enumerate(text.split(), start=1):
        expanded = ((word[:-3] + "1", word[:-3] + "2") if word.endswith("1,2")
                    else (word,))
        if not all(tok in GATES or tok in Y_TOKENS for tok in expanded):
            raise ValueError(f"unknown gate token {word!r} at position {pos}")
        tokens += expanded
    return tuple(tokens)


@lru_cache(maxsize=None)
def real_product(gates: tuple[str, ...]) -> tuple:
    """(R, h, k): the real product of a gate sequence, first token applied
    first and iY for each Y, as integers over sqrt(2)^h, and k its count of
    Y tokens. The sequence's unitary is (-i)^k R / sqrt(2)^h. Cached: the
    verdicts and the report read each rule's several times."""
    r, h = _kron(_I2, _I2), 0
    for token in gates:
        gate, k = GATES["i" + token if token in Y_TOKENS else token]
        r = tuple(tuple(sum(map(mul, g_row, column)) for column in zip(*r))
                  for g_row in gate)
        h += k
    return r, h, sum(token in Y_TOKENS for token in gates)


def check_outcome(receiver: str, sender_outcome: str,
                  collaborator_outcomes: tuple[str, ...]) -> None:
    """Raise ValueError unless the sender outcome, the receiver and its
    collaborator labels name one of BRANCHES[receiver]."""
    if sender_outcome not in SENDER_OUTCOMES:
        raise ValueError(f"unknown sender outcome {sender_outcome!r}, expected "
                         f"one of {SENDER_OUTCOMES}")
    if receiver not in COLLABORATOR_LABELS:
        raise ValueError(f"unknown receiver {receiver!r}")
    count, labels = COLLABORATOR_LABELS[receiver]
    if (len(collaborator_outcomes) != count
            or not all(label in labels for label in collaborator_outcomes)):
        raise ValueError(f"{receiver} expects {count} collaborator label(s) "
                         f"from {labels}, got {collaborator_outcomes!r}")


#: Kraus operator i of a noise kind as t^power[i] (fixed[i] + s damped[i]):
#: per kind, the powers and the fixed and damped parts, 0/1 matrices
KRAUS_TEMPLATES = {
    # K0 = diag(1, s), K1 = t|0><1|
    "ad": ((0, 1), ((_P0, ((0, 1), (0, 0))), (_P1, ((0, 0), (0, 0))))),
    # E0 = s I, E1 = t|0><0|, E2 = t|1><1|
    "pd": ((0, 1, 1), ((((0, 0), (0, 0)), _P0, _P1), (_I2, ((0, 0), (0, 0)),
                                                       ((0, 0), (0, 0))))),
}


class TraceDeficitWarning(UserWarning):
    """The correlated channel deliberately loses trace (see hrsp.noise)."""


def warn_trace_deficit(deficit: float) -> None:
    """Warn when a channel output lost more than TRACE_DEFICIT_WARN of trace."""
    if deficit > TRACE_DEFICIT_WARN:
        # constant message, reported at the measuring function's caller: shown once
        warnings.warn(
            "the correlated channel ties one Kraus index to both qubits "
            "of a receiver and is not trace preserving; the lost weight "
            "is restored at post-measurement normalization",
            TraceDeficitWarning, stacklevel=3)


class BranchProbabilityError(ValueError):
    """Conditioning on an outcome whose probability is numerically zero."""


def _validated_replace(self, **changes):
    """A copy with CHANGES, validated again: NamedTuple's own _replace and
    _make build a record with tuple.__new__, which skips the checks."""
    return type(self)(**{**self._asdict(), **changes})


def _validated_make(cls, fields):
    return cls(*fields)


class _TargetFields(NamedTuple):
    alpha: float
    beta: float


class TargetSpec(_TargetFields):
    """Real amplitudes of the two-qubit target alpha|00> + beta|11>.

    Complex amplitudes are rejected: the sender's measurement basis is
    orthonormal only for real values. So are NaN and infinite ones, which
    would pass the norm check (a NaN compares unequal to everything), and
    ones whose squares overflow, whose norm is then infinite.
    """

    __slots__ = ()

    def __new__(cls, alpha: float, beta: float):
        values = []
        for name, value in (("alpha", alpha), ("beta", beta)):
            value = complex(value)
            if value.imag != 0.0:
                raise ValueError(f"{name} = {value} is not real; the sender's "
                                 "measurement basis needs real amplitudes")
            if not math.isfinite(value.real):
                raise ValueError(f"{name} = {value.real} is not finite")
            values.append(value.real)
        a, b = values
        # products, not ** 2: a float's square overflows to inf, which fails
        # the check, where a power raises OverflowError
        n = a * a + b * b
        if abs(n - 1.0) > NORM_TOL:
            raise ValueError(f"|alpha|^2 + |beta|^2 = {n:.12f}, expected 1")
        return tuple.__new__(cls, values)

    _replace = _validated_replace
    _make = classmethod(_validated_make)


def _is_numpy_bool(value) -> bool:
    """A numpy bool, which can exist only once numpy is imported."""
    numpy = sys.modules.get("numpy")
    return numpy is not None and isinstance(value, numpy.bool_)


class _ConfigFields(NamedTuple):
    noise_kind: str
    receiver: str
    table: str
    row: int
    spec: TargetSpec
    eta_grid: tuple[float, ...]
    correlated: bool = True


class PipelineConfig(_ConfigFields):
    """One sweep: noise kind, receiver row, target parameters, eta grid.

    Validated on construction and by _replace. The row is an int in
    1..rows of its table: a published table of CORRECTION_TABLES, for its
    receiver, or "oracle", the derived table, for charlie or david, whose
    row r is protocol.derive_receiver_table()[r - 1] on David's branch r.
    Charlie has no published table, and Charlie's curves on the derived
    table are David's, as Charlie's branch r equals David's. A config names
    its branch and correction only through (table, row): both sweeps read
    the row's correction from _correction, a published row's off its rule
    and a derived row's off its noiseless branch, so no config runs the
    oracle search."""

    __slots__ = ()

    def __new__(cls, noise_kind: str, receiver: str, table: str, row: int,
                spec: TargetSpec, eta_grid: tuple[float, ...],
                correlated: bool = True):
        if noise_kind not in NOISE_KINDS:
            raise ValueError(f"noise_kind must be one of {NOISE_KINDS}")
        # any other truthy value would pick the correlated channel
        if type(correlated) is not bool and not _is_numpy_bool(correlated):
            raise ValueError(f"correlated must be a bool, got {correlated!r}")
        if not isinstance(spec, TargetSpec):
            raise ValueError(f"spec must be a TargetSpec, got {spec!r}")
        if len(eta_grid) > MAX_GRID_POINTS:
            raise ValueError(f"eta grid has {len(eta_grid)} points, more "
                             f"than MAX_GRID_POINTS = {MAX_GRID_POINTS}")
        # stored as a tuple of floats: an array or a list is accepted, and
        # the config stays hashable and immutable
        grid = tuple(map(float, eta_grid))
        # one pass: an increasing grid lies within its endpoints, and a <
        # chain fails on NaN
        if not grid:
            raise ValueError("eta grid is empty")
        if not (0.0 <= grid[0] and grid[-1] <= 1.0):
            raise ValueError("eta grid values must lie in [0, 1]")
        if not all(map(lt, grid, grid[1:])):
            raise ValueError("eta grid must be strictly increasing")
        if table not in _TABLES:
            raise ValueError(f"unknown table {table!r}, expected one of "
                             f"{tuple(_TABLES)}")
        # a plain int and bool key the caches: True must not find row 1; an
        # int skips the ABC check, which costs more than the rest, and the
        # import of numbers
        rows = len(_TABLES[table][1])
        if type(row) is not int:
            import numbers
            if isinstance(row, bool) or not isinstance(row, numbers.Integral):
                raise ValueError(f"row must be an integer, got {row!r}")
        if not 1 <= row <= rows:
            raise ValueError(f"table {table} has rows 1..{rows}, got {row}")
        row = int(row)
        receivers = _TABLES[table][0]
        if receiver not in receivers:
            raise ValueError(f"table {table} row {row} corrects "
                             f"{' or '.join(receivers)}, not {receiver}")
        return tuple.__new__(cls, (noise_kind, receiver, table, row, spec, grid,
                                   bool(correlated)))

    _replace = _validated_replace
    _make = classmethod(_validated_make)


class FidelitySample(NamedTuple):
    eta: float                  # grid value
    fidelity: float
    branch_probability: float
    boundary_extended: bool     # branch dies at eta: fidelity is the exact limit


class SweepResult(NamedTuple):
    config: PipelineConfig
    samples: tuple[FidelitySample, ...]

    def fidelities(self) -> tuple[float, ...]:
        return tuple(s.fidelity for s in self.samples)


@lru_cache(maxsize=1, typed=True)
def default_grid(step: float = 0.1) -> tuple[float, ...]:
    """0, step, ..., 1.0; step must divide 1 into a whole number of cells.
    The last grid is cached: the configs of a row scan do not rebuild it."""
    # a subnormal step has an infinite inverse, which round() cannot take
    inverse = 1.0 / step if step > 0 else 0.0
    n = round(inverse) if inverse < math.inf else 0
    if n < 1 or abs(n * step - 1.0) > 1e-9:
        raise ValueError(f"step {step} does not divide [0, 1] evenly")
    if n + 1 > MAX_GRID_POINTS:
        # the exact count while it is short: a step of 1e-300 gives 301 digits
        points = n + 1 if n < 10**12 else f"about {n + 1:.0e}"
        raise ValueError(f"step {step} gives {points} grid points, more than "
                         f"MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    return tuple(round(i * step, 10) for i in range(n + 1))


def default_config(noise_kind: str = "ad", receiver: str = "bob",
                   spec: TargetSpec | None = None, step: float = 0.1,
                   table: str | None = None, row: int = 1,
                   correlated: bool = True) -> PipelineConfig:
    """Reference configuration: Bob uses table I row 1, David table II row 1,
    Charlie the derived table, alpha = beta = 1/sqrt(2)."""
    if spec is None:
        spec = TargetSpec(1 / math.sqrt(2), 1 / math.sqrt(2))
    if table is None:
        table = {"bob": "I", "david": "II", "charlie": "oracle"}[receiver]
    return PipelineConfig(noise_kind=noise_kind, receiver=receiver, table=table,
                          row=row, spec=spec, eta_grid=default_grid(step),
                          correlated=correlated)


# --------------------------------------------------------------------------
# The exact build. A polynomial in eta and s is a dict {power index: int}.
def _add_into(total: dict, poly: dict, scale: int = 1) -> None:
    for power, c in poly.items():
        total[power] = total.get(power, 0) + scale * c


def _times(a: dict, b: dict, shift: int = 0) -> dict:
    """a b, times the power of index shift."""
    out: dict = {}
    for p, x in a.items():
        for q, y in b.items():
            out[p + q + shift] = out.get(p + q + shift, 0) + x * y
    return out


def _bra(entries: dict, ket) -> dict:
    """<x|K for one operator's entries {(row, column): polynomial}: the
    polynomials {column: polynomial}, zeros dropped."""
    row: dict = {}
    for (r, c), poly in entries.items():
        if ket[r]:
            _add_into(row.setdefault(c, {}), poly, ket[r])
    return {c: poly for c, poly in row.items() if any(poly.values())}


@lru_cache(maxsize=None)
def _channel(noise_kind: str, correlated: bool) -> tuple:
    """One channel's receiver-pair Kraus operators K_k, each as its power M
    of t and its entries {(row, column): polynomial in s}; the pair channel
    E, {(c, c'): {(i, j): polynomial}} with E(|c><c'|) = sum_k K_k |c><c'|
    K_k^T; the one operator with no t; and the channel's trace on
    |Psi><Psi| times 8. Shared by every branch of the channel: its readers
    do not modify it."""
    power, (fixed, damped) = KRAUS_TEMPLATES[noise_kind]
    operators = []
    for i, j in product(range(len(power)), repeat=2):
        if correlated and i != j:
            continue
        # K_i (x) K_j = t^M (F_i + s D_i) (x) (F_j + s D_j), by power of s
        entries: dict = {}
        for d, matrix in enumerate((
                _kron(fixed[i], fixed[j]),
                _plus(_kron(fixed[i], damped[j]), _kron(damped[i], fixed[j])),
                _kron(damped[i], damped[j]))):
            for r, c in product(range(4), repeat=2):
                if matrix[r][c]:
                    entries.setdefault((r, c), {})[d] = matrix[r][c]
        operators.append((power[i] + power[j], entries))
    transfer: dict = {}
    for m, entries in operators:
        # the two factors t^M of one operator make eta^M
        for ((i, c), a), ((j, c2), b) in product(entries.items(), repeat=2):
            _add_into(transfer.setdefault((c, c2), {}).setdefault((i, j), {}),
                      _times(a, b, m * S_ORDERS))
    free = next(entries for m, entries in operators if m == 0)
    # the trace is sum_tau |Psi_tau|^2 d(B) d(C) d(D), with d(c) the weight
    # the pair channel leaves on |c><c|; Charlie and David hold the same bits
    d = [{} for _ in range(4)]
    for c in range(4):
        for (i, j), poly in transfer.get((c, c), {}).items():
            if i == j:
                _add_into(d[c], poly)
    trace: dict = {}
    for bits, _ in BROWN_TERMS:
        b, c = int(bits[1:3], 2), int(bits[3:], 2)
        _add_into(trace, _times(_times(d[b], d[c]), d[c]))
    return operators, transfer, free, trace


def _ket(label: str) -> tuple[int, ...]:
    """A collaborator's outcome ket as integers: a computational basis ket,
    or a Hadamard pair ket times 2."""
    if label[0] in "01":
        return tuple(int(i == int(label, 2)) for i in range(4))
    a, b = (1 if sign == "+" else -1 for sign in label)
    return 1, b, a, a * b


@lru_cache(maxsize=None)
def _terms(receiver: str, sender_outcome: str) -> tuple:
    """Per Brown term and unit target m with a nonzero sender coefficient:
    the coefficient, m and the basis states of the collaborators, in qubit
    order, and of the receiver."""
    others = tuple(p for p in ("bob", "charlie", "david") if p != receiver)
    terms = []
    for bits, sign in BROWN_TERMS:
        state = {"bob": int(bits[1:3], 2), "charlie": int(bits[3:], 2),
                 "david": int(bits[3:], 2)}
        for m, (a, b) in enumerate(((1, 0), (0, 1))):
            zeta = (a, b) if sender_outcome == "zeta1" else (b, -a)
            if zeta[int(bits[0])]:
                terms.append((sign * zeta[int(bits[0])], m, state[others[0]],
                              state[others[1]], state[receiver]))
    return tuple(terms)


@lru_cache(maxsize=None)
def branch_matrix(receiver: str, sender_outcome: str,
                  collaborator_outcomes: tuple[str, ...]) -> tuple:
    """(S, scale): the receiver's noiseless branch of one outcome is
    S u / sqrt(scale) at u = (alpha, beta), its probability ||S u||^2 / scale.
    S is an integer 4x2 matrix as 8 entries, column by column: S[4 m + i]
    sums c x[X] y[Y] over the Brown terms (_terms) at unit target m and
    receiver basis state i, with x and y the integer outcome kets of the
    collaborators (_ket); scale is 8 |x|^2 |y|^2. Cached: the oracle, the
    verdicts, the report (hrsp.protocol) and the derived rows' corrections
    (_correction) read Bob's 8 and David's 32."""
    check_outcome(receiver, sender_outcome, collaborator_outcomes)
    labels = collaborator_outcomes * 2 if receiver == "bob" else collaborator_outcomes
    x, y = map(_ket, labels)
    s = [0] * 8
    for c, m, bx, by, r in _terms(receiver, sender_outcome):
        s[4 * m + r] += c * x[bx] * y[by]
    return tuple(s), 8 * sum(map(mul, x, x)) * sum(map(mul, y, y))


@lru_cache(maxsize=None)
def _factor(noise_kind: str, correlated: bool, label: str) -> tuple:
    """A collaborator's outcome under one channel: A_x(X, X') by (X, X'),
    <x|K for the operator K with no t, and |x|^2, with x the integer ket."""
    operators, _, free, _ = _channel(noise_kind, correlated)
    ket = _ket(label)
    factor: dict = {}
    for m, entries in operators:
        row = _bra(entries, ket)
        for (c, a), (c2, b) in product(row.items(), repeat=2):
            _add_into(factor.setdefault((c, c2), {}), _times(a, b, m * S_ORDERS))
    return factor, _bra(free, ket), sum(map(mul, ket, ket))


@lru_cache(maxsize=None)
def _branch(noise_kind: str, correlated: bool, receiver: str,
            sender_outcome: str, collaborator_outcomes: tuple) -> tuple:
    """One outcome branch under one channel, exactly: (scale, gram,
    amplitude), with gram the nonzero coefficients of G[P, m, i, n, j]
    (see hrsp.pipeline) times scale, as ((P, m, i, n, j), int) pairs,
    and amplitude[m][i] the t^0 amplitude of W_m at receiver basis state i
    times sqrt(scale), as (power of s, int) pairs. scale is 8 |x|^2 |y|^2,
    |x| and |y| the norms of the integer collaborator kets."""
    _, transfer, free, _ = _channel(noise_kind, correlated)
    labels = collaborator_outcomes * 2 if receiver == "bob" else collaborator_outcomes
    (ax, bx, nx), (ay, by, ny) = (_factor(noise_kind, correlated, label)
                                  for label in labels)
    terms = _terms(receiver, sender_outcome)
    # sum the term pairs that meet E at the same (m, R, n, R') first
    weights: dict = {}
    for c, m, x, y, r in terms:
        for c2, n, x2, y2, r2 in terms:
            if (x, x2) in ax and (y, y2) in ay:
                _add_into(weights.setdefault((m, r, n, r2), {}),
                          _times(ax[x, x2], ay[y, y2]), c * c2)
    gram: dict = {}
    for (m, r, n, r2), weight in weights.items():
        for (i, j), poly in transfer.get((r, r2), {}).items():
            for p, value in _times(weight, poly).items():
                gram[p, m, i, n, j] = gram.get((p, m, i, n, j), 0) + value
    # the t^0 amplitude: sum over terms of c <x|K|X> <y|K|Y> K|R> for the
    # operator K with no t
    amplitude = [[{} for _ in range(4)] for _ in range(2)]
    for c, m, x, y, r in terms:
        if x in bx and y in by:
            for (i, column), poly in free.items():
                if column == r:
                    _add_into(amplitude[m][i], _times(_times(bx[x], by[y]), poly), c)
    return (8 * nx * ny, tuple((key, v) for key, v in gram.items() if v),
            tuple(tuple(tuple((j, v) for j, v in poly.items() if v)
                        for poly in a_m) for a_m in amplitude))


def _correction(table: str, row: int) -> tuple:
    """(v, q): the correction u = O^T xi of a table row is alpha v_0 + beta
    v_1 over sqrt(q), with v_0, v_1 and q integers; every sweep reads it
    here. A published row's v are rows 0 and 3 of its rule's integer gate
    product, the ones that xi = (alpha, 0, 0, beta) weighs, and q = 2^h. A
    derived row needs no oracle search: any correction O that takes the
    noiseless branch S u onto the target has O S_m = c e_m for the columns
    S_m of S (branch_matrix), so u = (alpha S_0 + beta S_1) / c, and |c| =
    ||S_0||, up to a global phase."""
    receivers, keys = _TABLES[table]
    if table == "oracle":
        s, _ = branch_matrix(receivers[-1], *keys[row - 1])
        return (s[:4], s[4:]), sum(map(mul, s[:4], s[:4]))
    o, h, _ = real_product(parse_gate_string(PUBLISHED_TABLES[table][1][row - 1][2]))
    return (o[0], o[3]), 2 ** h


@lru_cache(maxsize=None)
def _curves(noise_kind: str, correlated: bool, table: str, row: int) -> tuple:
    """One row's exact curves, read-only: (scale, q, numerator, probability,
    amplitude, folds), ||W u||^2 times scale q, by power index, as its
    coefficients of alpha^4, alpha^3 beta, ..., beta^4; p times scale, of
    alpha^2, alpha beta, beta^2; the t^0 amplitude W u times sqrt(scale q),
    by power of s, of alpha^2, alpha beta, beta^2; and the eta = 1 folds,
    per power j of s the pair (numerator, probability) summed over the
    powers eta^M s^j, whose lowest j with p nonzero, j0, gives the exact
    limit where the branch dies at eta = 1 (see hrsp.pipeline)."""
    receivers, keys = _TABLES[table]
    scale, gram, amplitude = _branch(noise_kind, correlated, receivers[-1],
                                     *keys[row - 1])
    v, q = _correction(table, row)
    numerator: dict = {}
    probability: dict = {}
    # a coefficient g of G[P, m, i, n, j] adds g v_a,i v_b,j to the monomial
    # m + n + a + b of ||W u||^2 at P, and g where i = j to the monomial
    # m + n of p: the pair (i, j) weighs g by the sums over a + b = 0, 1, 2,
    # computed once per row
    v0, v1 = v
    pairs = [[(v0[i] * v0[j], v0[i] * v1[j] + v1[i] * v0[j], v1[i] * v1[j])
              for j in range(4)] for i in range(4)]
    for (p, m, i, n, j), g in gram:
        quartic = numerator.setdefault(p, [0] * 5)
        w0, w1, w2 = pairs[i][j]
        k = m + n
        quartic[k] += g * w0
        quartic[k + 1] += g * w1
        quartic[k + 2] += g * w2
        if i == j:
            probability.setdefault(p, [0] * 3)[k] += g
    wu: dict = {}
    for m, a, i in product(range(2), range(2), range(4)):
        for j, c in amplitude[m][i]:
            wu.setdefault(j, [0] * 3)[m + a] += c * v[a][i]
    folds = [([0] * 5, [0] * 3) for _ in range(S_ORDERS)]
    for at, curve in enumerate((numerator, probability)):
        for p, coefficients in curve.items():
            fold = folds[p % S_ORDERS][at]
            fold[:] = map(add, fold, coefficients)
    return (scale, q, *(MappingProxyType({key: tuple(c) for key, c in curve.items()})
                        for curve in (numerator, probability, wu)),
            tuple((tuple(n), tuple(d)) for n, d in folds))


def _side(config: PipelineConfig, sample: FidelitySample, k: int) -> int:
    """The sign of F - tie, tie = (k + 1/2) 10^-6, exactly, at the floats
    the sweep holds. F^2 is N / (q P), with N and P the row's numerator and
    probability curves at alpha, beta and eta: rational but for the odd
    powers of s = sqrt(r), r = 1 - eta, so N - tie^2 q P = x + y sqrt(r)
    with x and y rational. At a boundary-extended sample N and P are the
    eta = 1 folds at j0, as in sweep."""
    _, q, numerator, probability, _, folds = _curves(
        config.noise_kind, config.correlated, config.table, config.row)
    from fractions import Fraction     # 2 ms of import, for the rare tie

    tie = Fraction(2 * k + 1, 2 * 10**6)
    a, b = Fraction(config.spec.alpha), Fraction(config.spec.beta)
    eta = Fraction(sample.eta)
    r = 1 - eta
    quadratic = a * a, a * b, b * b
    weighed = (((a**4, a**3 * b, a * a * b * b, a * b**3, b**4), 1),
               (quadratic, -tie * tie * q))
    x = y = 0
    if sample.boundary_extended:
        # j0: the lowest power of s at which P is nonzero
        fold = next(fold for fold in folds if sum(map(mul, fold[1], quadratic)))
        x = sum(weight * sum(map(mul, coefficients, monomials))
                for coefficients, (monomials, weight) in zip(fold, weighed))
    else:
        for curve, (monomials, weight) in zip((numerator, probability), weighed):
            for p, coefficients in curve.items():
                m, j = divmod(p, S_ORDERS)
                value = weight * sum(map(mul, coefficients, monomials)) * eta**m * r**(j // 2)
                if j % 2:
                    y += value
                else:
                    x += value
    if not r:
        y = 0
    sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
    if sx * sy >= 0:
        return sx or sy
    # opposite signs: the larger of x^2 and y^2 r wins
    return sx * ((x * x > y * y * r) - (x * x < y * y * r))


def fidelity_texts(result: SweepResult) -> tuple[str, ...]:
    """Each sample's fidelity as hrsp sweep prints it, to 6 decimals: the
    exact fidelity at the floats the sweep holds (alpha, beta and the
    sample's eta), correctly rounded, a true tie half to even, as Python
    prints a float. A float within TIE_MARGIN of a boundary (k + 1/2) 10^-6,
    or within a wider window where F is small and its float error larger,
    has its digit decided from the row's integer curves (_side); any other
    prints as itself. So the text depends on the inputs alone, not on which
    sweep computed the floats or on their last bits. At the CLI's default
    target alpha = beta = 0.7071067811865475 < 1/sqrt(2), the fidelities
    that are ties at the true target (91/128, for example) lie just below
    their boundary and print rounded down."""
    fidelities = [s.fidelity for s in result.samples]
    texts = list(map("{:.6f}".format, fidelities))
    # each float's distance from its nearest boundary, in units of 10^-6,
    # in C loops: a Python loop per sample doubled the cost of the text at
    # 100,001 points. NaN, the fidelity of a branch with p = 0, is never near
    scaled = list(map(mul, fidelities, repeat(1e6)))
    gaps = map(abs, map(sub, map(math.fmod, scaled, repeat(1.0)), repeat(0.5)))
    # F = sqrt(F^2) turns an error e in F^2 into about e / (F + tie), which
    # passes TIE_MARGIN where F is small: so each window widens by 1e-3 / (F
    # 10^6 + 1/2) units, e = 1e-15, over 30 times the 2.8e-17 measured at
    # oracle row 18 under AD at eta = 0.99999
    windows = map(add, repeat(TIE_MARGIN),
                  map(truediv, repeat(1e-3), map(add, scaled, repeat(0.5))))
    for at in compress(count(), map(gt, windows, gaps)):
        k = math.floor(fidelities[at] * 1e6)
        side = _side(result.config, result.samples[at], k)
        k += side > 0 or (side == 0 and k % 2 == 1)
        texts[at] = f"{k // 10**6}.{k % 10**6:06d}"
    return tuple(texts)


def sweep(config: PipelineConfig) -> SweepResult:
    """pipeline.sweep's samples, from the row's exact curves evaluated in
    floats at each grid value, where the branch dies at eta = 1 the exact
    limit, with the same TraceDeficitWarning check. Every CLI sweep runs
    it, on any grid: each eta costs one pass over the row's powers in
    Python."""
    noise_kind, correlated, table, row = (config.noise_kind, config.correlated,
                                          config.table, config.row)
    scale, q, numerator, probability, wu, folds = _curves(noise_kind, correlated,
                                                          table, row)
    trace = _channel(noise_kind, correlated)[3]
    a, b = config.spec.alpha, config.spec.beta
    quartic = a**4, a**3 * b, a**2 * b**2, a * b**3, b**4
    quadratic = a * a, a * b, b * b

    def at(coefficients, monomials):
        return sum(map(mul, coefficients, monomials))

    # the curves at the target on one column set: ||W u||^2 without its t^0
    # part, which the amplitude's square stands for (see hrsp.pipeline), p
    # and the trace
    columns = sorted({p for p in numerator if p >= S_ORDERS} | set(probability)
                     | set(trace))
    index = [divmod(p, S_ORDERS) for p in columns]
    wu2_row = [at(numerator[p], quartic) if p >= S_ORDERS and p in numerator
               else 0.0 for p in columns]
    p_row = [at(probability[p], quadratic) if p in probability else 0.0
             for p in columns]
    trace_row = [trace.get(p, 0) / 8 for p in columns]
    wu_row = [at(wu[j], quadratic) if j in wu else 0.0 for j in range(S_ORDERS)]
    fidelity, branch_probability, low = [], [], math.inf
    for eta in config.eta_grid:
        s = math.sqrt(1.0 - eta)
        etas = [eta ** k for k in range(ETA_ORDERS)]
        ss = [s ** k for k in range(S_ORDERS)]
        powers = [etas[m] * ss[j] for m, j in index]
        amplitude = at(wu_row, ss)
        wu2 = at(wu2_row, powers) + amplitude * amplitude
        p = at(p_row, powers)
        low = min(low, at(trace_row, powers))
        # clipped: where F = 0, rounding in the squared coefficients of the
        # eta^M, M >= 1, parts can leave F^2 at -1e-17
        fidelity.append(math.sqrt(max(wu2, 0.0) / (q * p)) if p > 0.0 else math.nan)
        branch_probability.append(p / scale)
    warn_trace_deficit(1.0 - low)
    # the eta = 1 folds at their lowest power j0 of s with p nonzero; a
    # branch dies at eta = 1 where j0 > 0
    lives = [j for j, (_, fold) in enumerate(folds) if at(fold, quadratic) != 0.0]
    if not lives:
        receivers = _TABLES[table][0]
        raise BranchProbabilityError(
            f"{noise_kind} {' or '.join(receivers)} table {table} row {row}: "
            f"the branch probability vanishes at every eta")
    j0 = lives[0]
    ends = j0 > 0 and config.eta_grid[-1] == 1.0
    if ends:
        wu2, p = folds[j0]
        fidelity[-1] = math.sqrt(max(at(wu2, quartic), 0.0) / (q * at(p, quadratic)))
    grid = config.eta_grid
    # tuple.__new__ on each sample's fields: the NamedTuple's own __new__ is
    # a Python function
    return SweepResult(config=config, samples=tuple(map(
        tuple.__new__, repeat(FidelitySample), zip(
            grid, fidelity, branch_probability,
            [False] * (len(grid) - ends) + [True] * ends))))
