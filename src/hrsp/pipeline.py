"""End-to-end noisy protocol runs: one exact fidelity curve per table row.

The receiver's state on one branch is read off its amplitudes W, one row
w_k per Kraus operator of the channel: they make rho = W^T W / p, with
p = ||W||^2 the branch probability. The target xi = alpha|00> + beta|11> is
pure, so the fidelity of the corrected state O rho O^T is
sqrt(<xi|O rho O^T|xi>) = ||W u|| / sqrt(p) with u = O^T xi: no 4x4
matrix is formed. All of it is real: |Psi>, the targets, the pair terms
and every correction a sweep applies (tables I to III hold no Y token, and
a derived row's u is read off its branch). This is the library's route to
the receiver's state; the dense 128x128 chain (channel, measurement
operator, partial trace) and the Uhlmann fidelity that the tests hold it
against live in tests/dense_oracle.py.

Two evaluations sweep a row, both of the one derivation of its curves,
hrsp.exact._curves: integers from the Gram that hrsp.exact builds and the
correction it reads (hrsp.exact._correction). sweep() here is the
library's (hrsp.sweep): it evaluates a whole table per grid chunk with
numpy, which a scan of many rows shares and which streams a 100,001-point
grid in about 0.2 s. Every CLI sweep runs hrsp.exact.sweep instead: it
evaluates its one row in plain floats, so no CLI process imports numpy.
They read the same integers and differ only in their float arithmetic:
on every row at steps 0.1 and 0.001 they agree to 5.6e-16 in F and 1.1e-16
in p, and each is the other's test oracle; the numpy kernel of
tests/dense_oracle.py is the Grams' (tests/test_exact.py).

The state has one cached form per outcome branch, its Gram matrix
G(eta) = sum_k W_k^T W_k, with p = tr G, ||W u||^2 = u^T G u and
rho = G^T / p. Every receiver-pair Kraus operator is t^M times a
polynomial in s of degree <= 2 (hrsp.exact.KRAUS_TEMPLATES), with
t = sqrt(eta) and s = sqrt(1 - eta), and W is linear in (alpha, beta):
W = alpha W_0 + beta W_1, with W_0 and W_1 the amplitudes at the targets
(1, 0) and (0, 1). So G
is, at each power eta^M s^j (M <= 6, j <= 12), an 8 x 8 matrix over
(unit target, receiver basis) pairs: a finite set of coefficients that
gives G at every eta and every target. Table I reads Bob's 8 branches,
tables II and III David's 32 between them, and the derived table "oracle"
David's 32 again, for both Hadamard receivers: |Psi> is symmetric under
swapping Charlie and David, so Charlie's branches are David's, bitwise,
and no sweep builds one of Charlie's.

The noisy side reads two stores, lru_caches filled on first use, both
read-only:

- hrsp.exact._branch, one entry per (noise kind, channel mode, receiver,
  outcome branch), the receiver being Bob or David: the branch's exact
  build, 0.2 to 0.4 ms, its t^0 amplitude of W_0 and W_1 by power of s
  and its nonzero Gram coefficients, each with its five coordinates
  (P, m, i, n, j), as integers over a power of two. Every table that reads
  the branch shares the entry, Charlie and David included, and so does
  receiver_state.
- _stack, one entry per (noise kind, channel mode, table): the table's
  curve stack and its column set (below), laid out from its rows'
  hrsp.exact._curves. It calls their uncached build, so the process keeps
  the arrays alone, not the integer curves beside them.

So each branch is built once per process, whichever tables read it: a
process that sweeps rows II-1, III-1 and oracle-1 makes 32 builds.
The key spaces are finite: 2 x 2 x (8 + 32) = 160 branches, of 4 to 256
Gram coefficients each, 21026 in all, and 2 x 2 x 4 = 16 tables, whose
stacks take 10.2 to 225.3 KB and 0.98 MB in all, so no cache needs a size
limit. A scan of all 72 rows under both noise kinds and the correlated
channel fills 80 branches, of 5526 Gram coefficients (0.70 MB traced, with
the channel's factors they read), and 8 stacks, 0.34 MB.

Every curve coefficient has one index, that of its power eta^M s^j,
M * S_ORDERS + j (0 to 90): in the Grams, in the channel's trace curve and
in the rows of an evaluation's grid side. A row's curves follow from its
branch's G and its correction u = O^T xi (hrsp.exact._curves):

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
blocks are one read-only (rows, 20, K) array.

_stack lays out each row's exact curves, integers with u = alpha v_0 +
beta v_1 and hrsp.exact._correction's integers v over sqrt(q), over their
denominators: the numerator ||W u||^2 at the powers eta^M s^j with
M >= 1 over scale q, the probability over scale, the t^0 amplitude over
sqrt(scale q), the channel's trace over 8 and the eta = 1 folds over
scale q and scale, with scale the branch's power of two. So each stored
float is one division of an exact integer. It builds its rows' curves
first, then the table's one stack on its span: the powers its rows'
numerators and the trace reach, and eta^0 s^0..s^12. The column set is
then read off that stack. So a cold build's transient, its traced peak
less the traced bytes still held after it (the entry, and the branch
entries it filled), is the rows' integer curves and the span-wide stack,
most of it for a 32-row table: 0.04 to 0.34 MB over the 16 entries
(tracemalloc, numpy 2.4, Python 3.11).

_evaluate samples every row of a table's stack at one target on one grid
chunk of GRID_CHUNK = 1024 etas. It multiplies the stack by the target's
monomials, a (6, 20) matrix that puts each monomial against the rows of a
block: one product gives, for each block on the table's powers, the
coefficients of ||W u||^2 without N_0, of p, of the amplitude and of the
trace, and the two eta = 1 folds, whose lowest nonzero power of s in p is
j0 (see below). The grid side is _monomials at the table's K columns
alone, 8 to 44 of the 91 powers: eta^0..eta^6 and s^0..s^12 are raised at
each eta, and each of the K powers is one product of two of them. It is
at most 44 x GRID_CHUNK floats, 0.36 MB, and is not kept: a scan's later
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

receiver_state reads its row's hrsp.exact._branch entry, the Gram the
row's curves come from, and the channel's trace curve
(hrsp.exact._channel). It weighs each Gram coefficient by its power
eta^M s^j at its one eta and by the target's alpha^2, alpha beta or
beta^2, and returns rho = G^T / p. It builds no table: a cold call makes
one build, for its own branch, and a warm one none. It evaluates all 91
powers at its one eta, for the Gram and the trace curve, with the same
_monomials as an evaluation.

Where a Bob outcome's probability vanishes at eta = 1 (every damping path
annihilates it), that grid point takes the exact limit eta -> 1: with j0 the
lowest power of s at which sum_M D_M is nonzero, F^2 tends to
sum_M N_M[j0] / sum_M D_M[j0]. Each D_M is a sum of squared moduli, so its
lowest coefficients cannot cancel between terms. Such samples carry
boundary_extended = True and branch probability 0.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat

import numpy as np

from . import exact
# the config, its grid, the samples and their error, the target, the
# probability floor and the trace-deficit warning live in hrsp.exact, which a
# CLI sweep reads without numpy
from .exact import (BRANCH_PROBABILITY_FLOOR, ETA_ORDERS, MAX_GRID_POINTS,
                    S_ORDERS, _TABLES, BranchProbabilityError, FidelitySample,
                    PipelineConfig, SweepResult, TargetSpec, default_config,
                    default_grid, warn_trace_deficit)

#: the power eta^M s^j has the index M * S_ORDERS + j, below _POWERS
_POWERS = ETA_ORDERS * S_ORDERS
#: grid etas per _evaluate entry: a 1001-point grid is one chunk (see above)
GRID_CHUNK = 1024


@lru_cache(maxsize=None)
def _stack(noise_kind: str, correlated: bool,
           table: str) -> tuple[np.ndarray, np.ndarray]:
    """What the sweeps read of one table under one channel, both read-only:
    its rows' hrsp.exact._curves laid out as arrays over their denominators.

    - the stack, (rows, 20, K) blocks in row order, whose rows go with the
      columns of _target_monomials: the coefficients of ||W u||^2 (without
      its eta^0 part) for alpha^4, alpha^3 beta, ..., beta^4, then those of
      p and of the t^0 amplitude W u, each for alpha^2, alpha beta, beta^2,
      and the channel's trace; then ||W u||^2 and p at eta = 1, by power of
      s in the columns of the powers eta^0 s^j;
    - the columns, the power index of each of the K columns: the powers at
      which some row of some block is nonzero."""
    count = len(_TABLES[table][1])
    trace = exact._channel(noise_kind, correlated)[3]
    # the uncached build: this store keeps the curves, as arrays
    curves = [exact._curves.__wrapped__(noise_kind, correlated, table, row)
              for row in range(1, count + 1)]
    # the span: the powers the rows' numerators and the trace reach, and
    # eta^0 s^0..s^12, where the amplitude and the eta = 1 folds lie, its
    # first S_ORDERS columns
    span = np.array(sorted(set(range(S_ORDERS)).union(
        trace, *(numerator for _, _, numerator, *_ in curves))))
    # the integers first, the numerator, probability and amplitude (items 2
    # to 4 of a row's curves) in block rows 0-4, 5-7 and 8-10, the trace in
    # row 11 and the folds in rows 12-19; then each over its denominator
    stack = np.zeros((count, 20, len(span)))
    for item, block in ((2, slice(0, 5)), (3, slice(5, 8)), (4, slice(8, 11))):
        rows, powers = np.array([(row, power) for row, curve in enumerate(curves)
                                 for power in curve[item]]).T
        stack[rows, block, span.searchsorted(powers)] = [
            coefficients for curve in curves for coefficients in curve[item].values()]
    stack[:, 11, span.searchsorted(list(trace))] = list(trace.values())
    stack[:, 12:, :S_ORDERS] = np.array([[n + p for n, p in folds]
                                         for *_, folds in curves]).transpose(0, 2, 1)
    # the curve keeps the t^0 part of ||W u||^2, all of it at eta = 0, as the
    # square of its amplitude: a fidelity of 0 there stays 0, not the root of
    # the ~1e-18 rounding left where squared coefficients cancel
    stack[:, :5, :S_ORDERS] = 0.0
    stack /= np.repeat([(scale * q, scale, math.sqrt(scale * q), 8, scale * q, scale)
                        for scale, q, *_ in curves], (5, 3, 3, 1, 5, 3), axis=1)[..., None]
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
    exact build, for the branch alone, if it is cold."""
    if not 0.0 <= eta <= 1.0:   # False for NaN
        raise ValueError(f"noise parameter must be in [0, 1], got {eta}")
    monomials = _monomials(np.array([eta]))[:, 0].tolist()
    trace = exact._channel(config.noise_kind, config.correlated)[3]
    warn_trace_deficit(1.0 - sum(value * monomials[power]
                                 for power, value in trace.items()) / 8)
    receivers, keys = _TABLES[config.table]
    scale, gram, _ = exact._branch(config.noise_kind, config.correlated,
                                   receivers[-1], *keys[config.row - 1])
    target = config.spec
    g = [0.0] * 16
    for (power, m, i, n, j), value in gram:
        g[i * 4 + j] += value / scale * monomials[power] * target[m] * target[n]
    g = np.array(g).reshape(4, 4)
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
