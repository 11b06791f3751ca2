"""End-to-end noisy protocol runs: one exact fidelity curve per table row.

The receiver's state on one branch is read off the amplitudes W of
states.branch_amplitudes: its rows w_k make rho = W^T W / p, with
p = ||W||^2 the branch probability. The target xi = alpha|00> + beta|11> is
pure, so the fidelity of the corrected state O rho O^T is
sqrt(<xi|O rho O^T|xi>) = ||W u|| / sqrt(p) with u = O^T xi: no 4x4
matrix is formed. All of it is real: |Psi>, the targets, the pair terms
and every correction a sweep applies (tables I to III hold no Y token, and
a derived row's u is read off its branch). This is the package's only
route to the receiver's state; the dense 128x128 chain (channel,
measurement operator, partial trace) and the Uhlmann fidelity that the
tests hold it against live in tests/dense_oracle.py.

The state has one cached form per outcome branch, its Gram matrix
G(eta) = sum_k W_k^T W_k, with p = tr G, ||W u||^2 = u^T G u and
rho = G^T / p. Every receiver-pair Kraus operator is t^M times a
polynomial in s of degree <= 2 (noise.pair_terms), with t = sqrt(eta) and
s = sqrt(1 - eta), and W is linear in (alpha, beta): W = alpha W_0 + beta W_1,
with W_0 and W_1 the amplitudes at the targets (1, 0) and (0, 1). So G
is, at each power eta^M s^j (M <= 6, j <= 12), an 8 x 8 matrix over
(unit target, receiver basis) pairs: a finite set of coefficients that
gives G at every eta and every target. Table I reads Bob's 8 branches,
tables II and III David's 32 between them, and the derived table "oracle"
David's 32 again, for both Hadamard receivers: |Psi> is symmetric under
swapping Charlie and David, so Charlie's branches are David's, bitwise,
and no sweep contracts one of Charlie's.

The noisy side has three stores, lru_caches filled on first use, all
read-only:

- _channel, one entry per (noise kind, channel mode): the pair terms, the
  channel's trace on |Psi><Psi| by power, the powers it reaches, the span
  (those powers and eta^0 s^0..s^12, 16 to 49 of the 91), each reached
  power's triples of pair terms and the t^0 map. Every branch and table of
  the channel reads it. An entry takes 2.1 to 102.5 KB, most of it the
  triples' indices into the kernel output.
- _branch, one entry per (noise kind, channel mode, receiver, outcome
  branch), the receiver being Bob or David: one kernel call on the nonzero
  terms, then one product per reached power. It keeps the t^0 amplitude of
  W_0 and W_1 by power of s, and the nonzero Gram coefficients in
  (P, m, i, n, j) order, those five coordinates of each in one uint8
  array: about 4 % of the entries at the powers the correlated AD channel
  reaches and 28 % for PD. Every table that reads the branch shares the
  entry, Charlie and David included, and so does receiver_state.
- _stack, one entry per (noise kind, channel mode, table): the table's
  curve stack and its column set (below), folded from its rows' _branch
  entries and corrections.

So each branch is contracted once per process, whichever tables read it:
a process that sweeps rows II-1, III-1 and oracle-1 makes 32 kernel calls.
The key spaces are finite: 2 x 2 x (8 + 32) = 160 branches, which take
0.9 to 4.2 KB each and 0.41 MB in all, and 2 x 2 x 4 = 16 tables, whose
stacks take 10.2 to 230.4 KB and 0.99 MB in all, so no cache needs a size
limit. A scan of all 72 rows under both noise kinds and the correlated
channel fills 80 branches, 0.14 MB, and 8 stacks, 0.34 MB.

Every curve coefficient has one index, that of its power eta^M s^j,
M * S_ORDERS + j (0 to 90): in the Grams, in the channel's trace curve and
in the rows of an evaluation's grid side. A table is the only store of its
rows' curves: _stack derives each row's curves from its branch's G and its
correction u = O^T xi:

    p = sum_M eta^M D_M(s),    ||W u||^2 = sum_M eta^M N_M(s),

with D_M and N_M polynomials whose coefficients are fixed quadratic (D) and
quartic (N) forms in (alpha, beta). N_0, the part that survives at eta = 0,
is kept as the square of its amplitude polynomial instead, so that a
fidelity of 0 comes out as 0 and not as the square root of rounding noise.
A row's curves are one block of 20 rows, one per monomial of (alpha, beta)
of ||W u||^2 without N_0, of p and of the N_0 amplitude, one for the
channel's trace on |Psi><Psi|, and one per monomial of ||W u||^2 and p at
eta = 1, by power of s. Its columns are the table's column set, read off
the blocks it stores: the powers at which some row of some block, a curve,
an eta = 1 fold, the t^0 amplitude or the trace, is nonzero; David's
tables II and III have the same one under every channel. So a table's
blocks are one read-only (rows, 20, K) array. A published row's u is read
off its rule's unitary. The derived table needs no oracle search: any
correction that maps the noiseless branch a_0 alpha + a_1 beta onto the
target has u = (a_0 alpha + a_1 beta) / ||a_0|| up to a global phase, and
a_m is the branch's t^0 amplitude at s = 1.

_stack folds one row at a time: it bincounts the row's curves over all 91
powers, 14.6 KB, folds them there, and writes them into the table's one
stack, allocated up front on the channel's span. The column set is then
read off that stack. So a cold build's transient, its traced peak less the
traced bytes still held after it (the entry, and the channel and branch
entries it filled), is one branch's work, the channel's set-up where that
is cold, and the span-wide stack, most of it for a 32-row table: 0.04 to
0.29 MB over the 16 entries (tracemalloc, numpy 2.4).

_evaluate samples every row of a table's stack at one target on one grid
chunk of GRID_CHUNK = 1024 etas. It multiplies the stack by the target's
monomials, a (6, 20) matrix that puts each monomial against the rows of a
block: one product gives, for each block on the table's powers, the
coefficients of ||W u||^2 without N_0, of p, of the amplitude and of the
trace, and the two eta = 1 folds, whose lowest nonzero power of s in p is
j0 (see below). The grid side is _monomials at the table's K columns
alone, 8 to 45 of the 91 powers: eta^0..eta^6 and s^0..s^12 are raised at
each eta, and each of the K powers is one product of two of them. It is
at most 45 x GRID_CHUNK floats, 0.37 MB, and is not kept: a scan's later
sweeps read the evaluation instead (below). A chunk then costs one
(4, K) x (K, chunk) product per block and the amplitude's square; the
product's last row is the channel's trace at each eta, the same for every
block, whose smallest value gives the TraceDeficitWarning check. Both
products are matrix-matrix. The first product in a process maps about
0.33 MB of BLAS code (file-backed pages, RssFile in /proc/self/status) and
allocates no heap; numpy's einsum, which avoids BLAS, takes about 2.5
times as long at 11 etas. At 1024, the default 11-point
grid and the 1001-point grid of step 0.001 are one chunk each; a
100,001-point grid streams through 98 chunks and holds one at a time
besides its samples.

_evaluate keeps its last evaluation, one slot keyed by (noise kind,
channel mode, table, alpha, beta, grid chunk), and a sweep reads its own
row of it for each chunk. So a scan of a table's rows at one target and
grid chunk evaluates the table once; a single-row sweep evaluates its
whole table, 8 to 32 rows, once per chunk. The slot holds at most 32 rows
x GRID_CHUNK etas x 2 floats, 0.52 MB, read-only, as every sweep at its
key shares it. Every sweep still makes the TraceDeficitWarning check.

receiver_state reads its row's _branch entry, the Gram the row's curves
come from, and the channel's trace curve. It weighs each Gram coefficient
by its power eta^M s^j at its one eta and by the target's alpha^2,
alpha beta or beta^2, and returns rho = G^T / p. It builds no table: a
cold call makes one kernel call, for its own branch, and a warm one none.
It evaluates all 91 powers at its one eta, for the Gram and the trace
curve, with the same _monomials as an evaluation.

Where a Bob outcome's probability vanishes at eta = 1 (every damping path
annihilates it), that grid point takes the exact limit eta -> 1: with j0 the
lowest power of s at which sum_M D_M is nonzero, F^2 tends to
sum_M N_M[j0] / sum_M D_M[j0]. Each D_M is a sum of squared moduli, so its
lowest coefficients cannot cancel between terms. Such samples carry
boundary_extended = True and branch probability 0.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import lt
from typing import NamedTuple

import numpy as np

from .noise import NOISE_KINDS, pair_terms, warn_trace_deficit
from .protocol import BRANCHES, CORRECTION_TABLES
from .states import (BRANCH_PROBABILITY_FLOOR, TargetSpec, branch_amplitudes,
                     protocol_state)

MAX_GRID_POINTS = 100_001   # step 1e-5; bounds the samples a sweep holds
#: a curve's coefficients: powers eta^0..eta^6 times s^0..s^12
ETA_ORDERS, S_ORDERS = 7, 13
#: the power eta^M s^j has the index M * S_ORDERS + j, below _POWERS
_POWERS = ETA_ORDERS * S_ORDERS
#: grid etas per _evaluate entry: a 1001-point grid is one chunk (see above)
GRID_CHUNK = 1024

#: W and u are linear in (alpha, beta): the Grams are built at these two
_UNIT_TARGETS = (TargetSpec(1.0, 0.0), TargetSpec(0.0, 1.0))


class BranchProbabilityError(ValueError):
    """Conditioning on an outcome whose probability is numerically zero."""


#: each table a config may name: the receivers it corrects (the last is the
#: one whose branches it reads) and the branch of each row. The derived table
#: reads David's for Charlie too: |Psi> is symmetric under swapping the two
_TABLES = {**{table: ((rules[0].receiver,), tuple(rule.outcomes for rule in rules))
              for table, rules in CORRECTION_TABLES.items()},
           "oracle": (("charlie", "david"), BRANCHES["david"])}


@dataclass(frozen=True)
class PipelineConfig:
    """One sweep: noise kind, receiver row, target parameters, eta grid.

    Validated on construction. The row is an int in 1..rows of its table:
    a published table of CORRECTION_TABLES, for its receiver, or "oracle",
    the derived table, for charlie or david, whose row r is
    protocol.derive_receiver_table()[r - 1] on David's branch r. Charlie
    has no published table, and Charlie's curves on the derived table are
    David's, as Charlie's branch r equals David's. A config names its
    branch and correction only through (table, row): the sweeps read a
    published row's rule from its table and a derived row's correction off
    its branch, so no config runs the oracle search."""

    noise_kind: str
    receiver: str
    table: str
    row: int
    spec: TargetSpec
    eta_grid: tuple[float, ...]
    correlated: bool = True

    def __post_init__(self):
        if self.noise_kind not in NOISE_KINDS:
            raise ValueError(f"noise_kind must be one of {NOISE_KINDS}")
        # any other truthy value would pick the correlated channel
        if not isinstance(self.correlated, (bool, np.bool_)):
            raise ValueError(f"correlated must be a bool, got {self.correlated!r}")
        if not isinstance(self.spec, TargetSpec):
            raise ValueError(f"spec must be a TargetSpec, got {self.spec!r}")
        if len(self.eta_grid) > MAX_GRID_POINTS:
            raise ValueError(f"eta grid has {len(self.eta_grid)} points, more "
                             f"than MAX_GRID_POINTS = {MAX_GRID_POINTS}")
        # stored as a tuple of floats: an array or a list is accepted, and
        # the config stays hashable and immutable
        grid = tuple(map(float, self.eta_grid))
        object.__setattr__(self, "eta_grid", grid)
        # one pass: an increasing grid lies within its endpoints, and a <
        # chain fails on NaN
        if not grid:
            raise ValueError("eta grid is empty")
        if not (0.0 <= grid[0] and grid[-1] <= 1.0):
            raise ValueError("eta grid values must lie in [0, 1]")
        if not all(map(lt, grid, grid[1:])):
            raise ValueError("eta grid must be strictly increasing")
        if self.table not in _TABLES:
            raise ValueError(f"unknown table {self.table!r}, expected one of "
                             f"{tuple(_TABLES)}")
        # a plain int and bool key the caches: True must not find row 1; an
        # int skips the ABC check, which costs more than the rest
        row, rows = self.row, len(_TABLES[self.table][1])
        if type(row) is not int and (isinstance(row, bool)
                                     or not isinstance(row, numbers.Integral)):
            raise ValueError(f"row must be an integer, got {row!r}")
        if not 1 <= row <= rows:
            raise ValueError(f"table {self.table} has rows 1..{rows}, got {row}")
        object.__setattr__(self, "row", int(row))
        object.__setattr__(self, "correlated", bool(self.correlated))
        receivers = _TABLES[self.table][0]
        if self.receiver not in receivers:
            raise ValueError(f"table {self.table} row {self.row} corrects "
                             f"{' or '.join(receivers)}, not {self.receiver}")


class FidelitySample(NamedTuple):
    eta: float                  # grid value
    fidelity: float
    branch_probability: float
    boundary_extended: bool     # branch dies at eta: fidelity is the exact limit


@dataclass(frozen=True)
class SweepResult:
    config: PipelineConfig
    samples: tuple[FidelitySample, ...]

    def fidelities(self) -> tuple[float, ...]:
        return tuple(s.fidelity for s in self.samples)


@lru_cache(maxsize=1, typed=True)
def default_grid(step: float = 0.1) -> tuple[float, ...]:
    """0, step, ..., 1.0; step must divide 1 into a whole number of cells.
    The last grid is cached: the configs of a row scan do not rebuild it."""
    n = round(1.0 / step) if step > 0 else 0
    if n < 1 or abs(n * step - 1.0) > 1e-9:
        raise ValueError(f"step {step} does not divide [0, 1] evenly")
    if n + 1 > MAX_GRID_POINTS:
        raise ValueError(f"step {step} gives {n + 1} grid points, more than "
                         f"MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    return tuple(round(i * step, 10) for i in range(n + 1))


@lru_cache(maxsize=None)
def _channel(noise_kind: str, correlated: bool) -> tuple:
    """What every branch and table of one channel reads, all read-only: its
    pair terms; its trace on |Psi><Psi| by power index; the powers it
    reaches; the span, those powers and eta^0 s^0..s^12, where a table's
    curves, amplitude and eta = 1 folds lie; each reached power's triples,
    as the indices of their first and second terms into the kernel output;
    and the t^0 map, which sums the t^0 triples by power of s."""
    ops, kraus, power, degree = pair_terms(noise_kind, correlated)
    # a triple is one pair of terms (of one Kraus operator) per party: the
    # channel weighs the product of the kernel's entries at its first and
    # second terms by eta^M s^j, at the triple's power index
    first, second = np.nonzero(kraus[:, None] == kraus)
    order = power[first] * S_ORDERS + degree[first] + degree[second]
    n = len(ops)

    def triples(x, y, z):
        return (x[:, None, None] + y[:, None] + z).reshape(-1)

    powers = triples(order, order, order)
    # the trace is <Psi| I (x) M (x) M (x) M |Psi>, M = sum_k S_k^dag S_k, and
    # M is diagonal, as every single-qubit K^dag K is: sum |Psi_abcd|^2
    # d_b d_c d_d, with d the diagonal of each party's pair in a triple
    d = np.einsum("pji,pji->pi", ops[first], ops[second])
    weight = np.abs(protocol_state().reshape(2, 4, 4, 4)) ** 2
    trace = np.bincount(powers, np.einsum("abcd,xb,yc,zd->xyz", weight, d, d,
                                          d).reshape(-1), _POWERS)
    first, second = (triples(x * n * n, x * n, x) for x in (first, second))
    counts = np.bincount(powers, None, _POWERS)
    (reached,) = np.nonzero(counts)
    (span,) = np.nonzero(counts + (np.arange(_POWERS) < S_ORDERS))
    # one mask per reached power: a (powers, triples) mask at once took
    # 0.29 MB under uncorrelated AD
    pairs = tuple((first[at], second[at]) for at in (powers == p for p in reached))
    # one Kraus operator per noise kind carries t^0, so the t^0 terms of the
    # three parties make up one Kraus triple, the channel at eta = 0; its
    # amplitude has degree <= 6 in s, and a triple with a t^1 term lands past
    # the powers of s
    free = np.where(power == 0, degree, S_ORDERS)
    free = triples(free, free, free)[:, None] == np.arange(S_ORDERS)
    for array in (ops, trace, reached, span, free, *sum(pairs, ())):
        array.setflags(write=False)
    return ops, trace, reached, span, pairs, free


@lru_cache(maxsize=None)
def _branch(noise_kind: str, correlated: bool, receiver: str,
            sender_outcome: str, collaborator_outcomes: tuple) -> tuple:
    """One of Bob's or David's outcome branches under one channel, read-only,
    from one kernel call on its amplitudes W_m at the unit targets (m = 0
    for alpha, 1 for beta): its t^0 amplitude [m, i, s^j], and the nonzero
    coefficients of its Gram G[P, m, i, n, j] = sum_k W_m,ki W_n,kj, in that
    order, with the (P, m, i, n, j) of each as the rows of one uint8 array."""
    ops, _, reached, _, pairs, free = _channel(noise_kind, correlated)
    # [triple, (m, i)]: a power's triples are gathered as whole rows
    w = branch_amplitudes(receiver, sender_outcome, collaborator_outcomes,
                          _UNIT_TARGETS, ops).transpose(1, 2, 3, 0, 4).reshape(-1, 8)
    amplitude = (w.T @ free).reshape(2, 4, S_ORDERS)
    gram = np.array([w[f].T @ w[g] for f, g in pairs]).reshape(-1, 2, 4, 2, 4)
    at = np.nonzero(gram)
    # a power index, below _POWERS, fits a byte
    coordinates = np.array([reached[at[0]], *at[1:]], dtype=np.uint8)
    gram = gram[at]
    for array in (amplitude, gram, coordinates):
        array.setflags(write=False)
    return amplitude, gram, coordinates


@lru_cache(maxsize=None)
def _stack(noise_kind: str, correlated: bool,
           table: str) -> tuple[np.ndarray, np.ndarray]:
    """What the sweeps read of one table under one channel, both read-only,
    folded from its rows' _branch entries and corrections:

    - the stack, every row's exact curves from its branch's Gram and its
      correction: (rows, 20, K) blocks in row order, whose rows go with the
      columns of _target_monomials: the coefficients of ||W u||^2 (without
      its eta^0 part) for alpha^4, alpha^3 beta, ..., beta^4, then those of
      p and of the t^0 amplitude W u, each for alpha^2, alpha beta, beta^2,
      and the channel's trace; then ||W u||^2 and p at eta = 1, by power of
      s in the columns of the powers eta^0 s^j;
    - the columns, the power index of each of the K columns: the powers at
      which some row of some block is nonzero."""
    receivers, keys = _TABLES[table]
    _, trace, _, span, _, _ = _channel(noise_kind, correlated)
    stack = np.zeros((len(keys), 20, len(span)))
    for row, key in enumerate(keys):
        amplitude, gram, (power, m, i, n, j) = _branch(
            noise_kind, correlated, receivers[-1], *key)
        if table == "oracle":
            # a correction O that takes the noiseless branch a_0 alpha + a_1
            # beta onto the target has O a_m = c e_m, so u = O^T xi = alpha
            # v_0 + beta v_1 with v_m = a_m / ||a_0||, up to a global phase;
            # a_m is the t^0 amplitude at s = 1, eta = 0
            v = amplitude.sum(axis=-1)
            v /= np.linalg.norm(v[:1], axis=-1, keepdims=True)
        else:
            # rows 0 and 3 of O, the ones that xi = (alpha, 0, 0, beta) weighs
            v = CORRECTION_TABLES[table][row].unitary()[[0, 3]]
        # u = O^T xi = alpha v_0 + beta v_1, and ||W u||^2 = u^T G u: a
        # coefficient g of G[P, m, i, n, j] adds g v_p,i v_q,j, p, q = 0, 1,
        # to the monomial m + n + p + q of ||W u||^2 at power P, and g where
        # i = j (0 elsewhere) to its monomial 5 + m + n, that of p: rows 0 to
        # 7 of the row's block, over all _POWERS powers until it is cut to
        # the span
        weight = np.concatenate([(gram * v[:, i][:, None] * v[:, j]).reshape(4, -1),
                                 [gram * (i == j)]])
        at = (m + n + np.array([[0], [1], [1], [2], [5]])) * _POWERS + power
        curves = np.bincount(at.reshape(-1), weight.reshape(-1),
                             20 * _POWERS).reshape(20, _POWERS)
        # the eta = 1 fold reads the whole numerator; the curve keeps its t^0
        # part, all of it at eta = 0, as the square of its amplitude: a
        # fidelity of 0 there stays 0, not the root of the ~1e-18 rounding
        # left where squared coefficients cancel. The powers eta^0 s^j are
        # the first S_ORDERS columns, of the span and of the column set
        curves[12:, :S_ORDERS] = curves[:8].reshape(8, ETA_ORDERS, S_ORDERS).sum(1)
        curves[:5, :S_ORDERS] = 0.0
        y = v @ amplitude       # [m, p, j]: v_p . a_m at s^j
        curves[8:11, :S_ORDERS] = y[0, 0], y[0, 1] + y[1, 0], y[1, 1]
        curves[11] = trace
        stack[row] = curves[:, span]
    # the columns: the powers that some block reaches; an index below
    # _POWERS fits a byte
    (columns,) = np.nonzero(stack.any(axis=(0, 1)))
    stack = stack[..., columns]
    columns = span[columns].astype(np.uint8)
    for array in (stack, columns):
        array.setflags(write=False)
    return stack, columns


def _target_monomials(a: float, b: float) -> np.ndarray:
    """The target's monomials, laid out to weigh the rows of a _stack block:
    alpha^4, alpha^3 beta, ..., beta^4 in rows 0 and 4, for ||W u||^2 and its
    fold, alpha^2, alpha beta, beta^2 in rows 1, 2 and 5, for p, the
    amplitude and the fold of p, and the trace alone in row 3."""
    quartic = a**4, a**3 * b, a**2 * b**2, a * b**3, b**4
    quadratic = a * a, a * b, b * b
    monomials = np.zeros((6, 20))
    monomials[0, :5] = monomials[4, 12:17] = quartic
    monomials[1, 5:8] = monomials[2, 8:11] = monomials[5, 17:] = quadratic
    monomials[3, 11] = 1.0
    monomials.setflags(write=False)
    return monomials


def _monomials(eta: np.ndarray,
               powers: np.ndarray = np.arange(_POWERS)) -> np.ndarray:
    """The powers eta^M s^j of the given power indices, all of them by
    default, at each eta: shape (len(powers), len(eta)). Only eta^0..eta^6
    and s^0..s^12 are raised; each power is one product of two of them."""
    m, j = np.divmod(powers, S_ORDERS)
    return ((eta ** np.arange(ETA_ORDERS)[:, None])[m]
            * (np.sqrt(1.0 - eta) ** np.arange(S_ORDERS)[:, None])[j])


def receiver_state(config: PipelineConfig, eta: float) -> tuple[np.ndarray, float]:
    """The receiver's normalized state G^T / p on the config's branch at one
    eta, before correction, as a real (float64) 4x4 array, and the branch
    probability p = tr G: the branch's cached Gram, the one the sweep's
    curves come from, weighed at that eta and at the config's target. One
    kernel call, for the branch alone, if it is cold."""
    if not 0.0 <= eta <= 1.0:   # False for NaN
        raise ValueError(f"noise parameter must be in [0, 1], got {eta}")
    monomials = _monomials(np.array([eta]))[:, 0]
    trace = _channel(config.noise_kind, config.correlated)[1]
    warn_trace_deficit(1.0 - float(trace @ monomials))
    receivers, keys = _TABLES[config.table]
    _, gram, (power, m, i, n, j) = _branch(config.noise_kind, config.correlated,
                                           receivers[-1], *keys[config.row - 1])
    target = np.array([config.spec.alpha, config.spec.beta])
    g = np.bincount(i * 4 + j, gram * monomials[power] * target[m]
                    * target[n], 16).reshape(4, 4)
    p = float(np.trace(g))
    if p <= BRANCH_PROBABILITY_FLOOR:
        raise BranchProbabilityError(
            f"{config.noise_kind} eta={eta:g} {config.receiver} table {config.table} "
            f"row {config.row}: branch probability {p:.3e} is below "
            f"{BRANCH_PROBABILITY_FLOOR:g}, cannot normalize")
    return g.T / p, p


@lru_cache(maxsize=1)
def _evaluate(noise_kind: str, correlated: bool, table: str, alpha: float,
              beta: float, chunk: tuple) -> tuple:
    """The samples of every row of a table at one target on one grid chunk,
    all read-only: the fidelities and the branch probabilities, one row of
    each per table row, at the chunk's etas; whether each row's last eta is
    the exact limit eta -> 1; and the smallest channel trace there. One
    target product and one chunk product for the table's whole _stack.
    Cached for the last key: the sweeps of a row scan share it."""
    stack, columns = _stack(noise_kind, correlated, table)
    # rows ||W u||^2 without its t^0 part, p, the t^0 amplitude and the
    # trace, then ||W u||^2 and p at eta = 1
    curves = _target_monomials(alpha, beta) @ stack
    wu2, p, amplitude, trace = (curves[:, :4] @ _monomials(
        np.array(chunk), columns)).transpose(1, 0, 2)
    wu2 += amplitude * amplitude
    # ||W u||^2 and p at eta = 1 in the block column of s^j0 (see below); a
    # branch dies at eta = 1 where j0 > 0, and the grid increases, so only a
    # chunk's last eta can be 1: its fidelity there is the limit, its
    # probability the computed 0. A list: numpy's reductions of a few
    # floats cost several times as much
    j0 = (curves[:, 5] != 0.0).argmax(axis=1)
    folds = curves[np.arange(len(stack)), 4:, j0]
    lives = folds[:, 1].tolist()
    if 0.0 in lives:
        raise BranchProbabilityError(
            f"{noise_kind} {' or '.join(_TABLES[table][0])} table {table} row "
            f"{lives.index(0.0) + 1}: the branch probability vanishes at every eta")
    ends = (columns[j0] > 0) & (chunk[-1] == 1.0)
    probability = p.copy()
    wu2[ends, -1], p[ends, -1] = folds[ends].T
    # clipped: where F = 0, rounding in the squared coefficients of the
    # eta^M, M >= 1, parts can leave F^2 at -1e-17
    fidelity = np.sqrt(np.maximum(wu2, 0.0) / p)
    fidelity.setflags(write=False)
    probability.setflags(write=False)
    # the trace rows are one row of every block, so one of them serves
    return fidelity, probability, tuple(ends.tolist()), float(trace[0].min())


def sweep(config: PipelineConfig) -> SweepResult:
    """Fidelity at every grid value, in grid order, from the branch's cached
    curves; where the branch dies at eta = 1, the exact limit. Each grid
    chunk's samples are the config's row of the table's _evaluate."""
    grid, row, spec = config.eta_grid, config.row - 1, config.spec
    key = config.noise_kind, config.correlated, config.table, spec.alpha, spec.beta
    fidelity, branch_probability, deficit = [], [], 0.0
    for start in range(0, len(grid), GRID_CHUNK):
        f, p, ends, low = _evaluate(*key, grid[start:start + GRID_CHUNK])
        fidelity += f[row].tolist()
        branch_probability += p[row].tolist()
        deficit = max(deficit, 1.0 - low)
    warn_trace_deficit(deficit)
    live = len(grid) - ends[row]
    # tuple.__new__ on each sample's fields: the NamedTuple's own __new__ is
    # a Python function, and took 40 % of building the samples
    return SweepResult(config=config, samples=tuple(map(
        tuple.__new__, repeat(FidelitySample), zip(
            grid, fidelity, branch_probability,
            [False] * live + [True] * (len(grid) - live)))))


def default_config(noise_kind: str = "ad", receiver: str = "bob",
                   spec: TargetSpec | None = None, step: float = 0.1,
                   table: str | None = None, row: int = 1,
                   correlated: bool = True) -> PipelineConfig:
    """Reference configuration: Bob uses table I row 1, David table II row 1,
    Charlie the derived table, alpha = beta = 1/sqrt(2)."""
    if spec is None:
        spec = TargetSpec(1 / np.sqrt(2), 1 / np.sqrt(2))
    if table is None:
        table = {"bob": "I", "david": "II", "charlie": "oracle"}[receiver]
    return PipelineConfig(noise_kind=noise_kind, receiver=receiver, table=table,
                          row=row, spec=spec, eta_grid=default_grid(step),
                          correlated=correlated)
