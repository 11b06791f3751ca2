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

Two evaluations sweep a row, both from the Grams that hrsp.exact builds
in integers and the corrections it reads (hrsp.exact._correction).
sweep() here is the library's (hrsp.sweep): it evaluates a whole table per
grid chunk with numpy, which a scan of many rows shares and which streams
a 100,001-point grid in about 0.2 s. Every CLI sweep runs hrsp.exact.sweep
instead: it evaluates its one row in plain floats, so no CLI process
imports numpy. The two evaluations agree to 1e-12 on every row, and each
is the other's test oracle; the numpy kernel states.branch_amplitudes is
the Grams' (tests/test_exact.py).

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

The noisy side has three stores, lru_caches filled on first use, all
read-only:

- _trace, one entry per (noise kind, channel mode): the channel's trace
  on |Psi><Psi| by power, 0.73 KB. Every table of the channel and
  receiver_state read it.
- _branch, one entry per (noise kind, channel mode, receiver, outcome
  branch), the receiver being Bob or David: one exact build
  (hrsp.exact._branch, 0.2 to 0.4 ms; its own cache is left empty), as
  arrays. It keeps the t^0 amplitude of W_0 and W_1 by power of s, and
  the nonzero Gram coefficients, exact dyadic values, with the five
  coordinates (P, m, i, n, j) of each in one uint8 array. Every table that
  reads the branch shares the entry, Charlie and David included, and so
  does receiver_state.
- _stack, one entry per (noise kind, channel mode, table): the table's
  curve stack and its column set (below), folded from its rows' _branch
  entries and corrections.

So each branch is built once per process, whichever tables read it: a
process that sweeps rows II-1, III-1 and oracle-1 makes 32 builds.
The key spaces are finite: 2 x 2 x (8 + 32) = 160 branches, which take
0.9 to 4.2 KB each and 0.41 MB in all, and 2 x 2 x 4 = 16 tables, whose
stacks take 10.2 to 225.3 KB and 0.98 MB in all, so no cache needs a size
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
blocks are one read-only (rows, 20, K) array. Each row's u = alpha v_0 +
beta v_1 is hrsp.exact._correction's integers v over sqrt(q): rows 0 and 3
of a published rule's gate product, or for a derived row, which needs no
oracle search, the columns of its noiseless branch S over ||S_0||.

_stack folds one row at a time: it bincounts the row's curves over all 91
powers, 14.6 KB, folds them there, and writes them into the table's one
stack, allocated up front on its span: the powers its rows' Grams and the
trace reach, and eta^0 s^0..s^12. The column set is then read off that
stack. So a cold build's transient, its traced peak less the traced bytes
still held after it (the entry, and the trace and branch entries it
filled), is one branch's work and the span-wide stack, most of it for a
32-row table: 0.04 to 0.26 MB over the 16 entries (tracemalloc, numpy
2.4).

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

receiver_state reads its row's _branch entry, the Gram the row's curves
come from, and the channel's trace curve. It weighs each Gram coefficient
by its power eta^M s^j at its one eta and by the target's alpha^2,
alpha beta or beta^2, and returns rho = G^T / p. It builds no table: a
cold call makes one build, for its own branch, and a warm one none.
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
def _trace(noise_kind: str, correlated: bool) -> np.ndarray:
    """The channel's trace on |Psi><Psi| by power index, read-only, from
    hrsp.exact's integers (8 times the trace)."""
    trace = np.zeros(_POWERS)
    for power, value in exact._channel(noise_kind, correlated)[3].items():
        trace[power] = value / 8
    trace.setflags(write=False)
    return trace


@lru_cache(maxsize=None)
def _branch(noise_kind: str, correlated: bool, receiver: str,
            sender_outcome: str, collaborator_outcomes: tuple) -> tuple:
    """One of Bob's or David's outcome branches under one channel, read-only,
    as arrays of hrsp.exact's integer build: its t^0 amplitude [m, i, s^j]
    of W_m at the unit targets (m = 0 for alpha, 1 for beta), and the
    nonzero coefficients of its Gram G[P, m, i, n, j] = sum_k W_m,ki W_n,kj,
    with the (P, m, i, n, j) of each as the rows of one uint8 array. The
    Gram is exact: integers over 8 |x|^2 |y|^2, a power of two."""
    # the uncached build: this store keeps the branch, as arrays
    scale, gram, amplitude = exact._branch.__wrapped__(
        noise_kind, correlated, receiver, sender_outcome, collaborator_outcomes)
    # a power index, below _POWERS, fits a byte
    coordinates = np.array([key for key, _ in gram], dtype=np.uint8).T
    gram = np.array([value for _, value in gram], dtype=float) / scale
    t0 = np.zeros((2, 4, S_ORDERS))
    for m, a_m in enumerate(amplitude):
        for i, poly in enumerate(a_m):
            for j, value in poly:
                t0[m, i, j] = value
    t0 /= np.sqrt(scale)
    for array in (t0, gram, coordinates):
        array.setflags(write=False)
    return t0, gram, coordinates


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
    trace = _trace(noise_kind, correlated)
    branches = [_branch(noise_kind, correlated, receivers[-1], *key)
                for key in keys]
    # the span: the powers the rows' Grams and the trace reach, and eta^0
    # s^0..s^12, where the amplitude and the eta = 1 folds lie
    reached = trace != 0.0
    reached[:S_ORDERS] = True
    for _, _, coordinates in branches:
        reached[coordinates[0]] = True
    (span,) = np.nonzero(reached)
    stack = np.zeros((len(keys), 20, len(span)))
    for row, (amplitude, gram, (power, m, i, n, j)) in enumerate(branches):
        v, q = exact._correction(table, row + 1)
        v = np.array(v) / np.sqrt(q)
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
    exact build, for the branch alone, if it is cold."""
    if not 0.0 <= eta <= 1.0:   # False for NaN
        raise ValueError(f"noise parameter must be in [0, 1], got {eta}")
    monomials = _monomials(np.array([eta]))[:, 0]
    trace = _trace(config.noise_kind, config.correlated)
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
