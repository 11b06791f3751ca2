"""End-to-end noisy protocol runs: one exact fidelity curve per table row.

The receiver's state on one branch is read off the amplitudes W of
states.branch_amplitudes: its rows w_k make rho = W^T W* / p, with
p = ||W||^2 the branch probability. The target xi = alpha|00> + beta|11> is
pure, so the fidelity of the corrected state O rho O^dag is
sqrt(<xi|O rho O^dag|xi>) = ||W u|| / sqrt(p) with u = O^T xi*: no 4x4
matrix is formed. This is the package's only route to the receiver's state;
the dense 128x128 chain (channel, measurement operator, partial trace) and
the Uhlmann fidelity that the tests hold it against live in
tests/dense_oracle.py.

A sweep contracts nothing per eta. Every receiver-pair Kraus operator is t^M
times a polynomial in s of degree <= 2 (noise.pair_terms), with t = sqrt(eta)
and s = sqrt(1 - eta), and W and u are linear in (alpha, beta). One kernel
call on the nonzero terms, at the targets (1, 0) and (0, 1), therefore gives
the exact curves of one branch,

    p = sum_M eta^M D_M(s),    ||W u||^2 = sum_M eta^M N_M(s),    M <= 6,

with D_M and N_M polynomials of degree <= 12 whose coefficients are fixed
quadratic (D) and quartic (N) forms in (alpha, beta). N_0, the part that
survives at eta = 0, is kept as the square of its amplitude polynomial
instead, so that a fidelity of 0 comes out as 0 and not as the square root
of rounding noise.

Every curve coefficient has one index, that of its power eta^M s^j,
M * S_ORDERS + j (0 to 90): in the curve builds, in the channel's trace
curve and in the rows of the grid tables. _curve builds the curves once per
process for each (noise kind, channel mode, table, row) as one read-only
block of 23 rows, one per monomial of (alpha, beta) of ||W u||^2 without
N_0, of p and of the N_0 amplitude's two parts, one for the channel's trace
on |Psi><Psi|, and one per monomial of ||W u||^2 and p at eta = 1, by power
of s. It stores only the columns that are nonzero in some row, with their
power indices. The key space is finite, 2 x 2 x 72 = 288 entries of 1.1 to
8.1 KB, so the cache needs no size limit and holds at most 1.12 MB; a scan
of all 72 rows under both noise kinds and the correlated channel fills 144
entries, 0.39 MB.

A sweep multiplies the row's block by the target's monomials, a (7, 23)
matrix cached for the last target that puts each monomial against its
rows: one product gives, on the block's powers, the coefficients of
||W u||^2 without N_0, of p, of the amplitude's two parts and of the trace,
and the two eta = 1 folds, whose lowest nonzero power of s in p is j0 (see
below). It then walks the grid in chunks of GRID_CHUNK = 1024 etas. For
each chunk, _tables holds the grid side, every power eta^M s^j at each eta,
one table for both noise kinds and channel modes. A chunk then costs one
(5, K) x (K, chunk) product on the block's K powers and the amplitude's
squares; the product's last row is the channel's trace at each eta, whose
smallest value gives the TraceDeficitWarning check. Both products are
matrix-matrix: the first one in a process makes BLAS allocate about 0.25 MB
of buffers, and numpy's einsum, which avoids BLAS, takes about 2.5 times as
long at 11 etas. _tables keeps one chunk, at most GRID_CHUNK x 91 floats,
0.75 MB. At 1024, the default 11-point grid and the 1001-point grid of step
0.001 are one chunk each, so the sweeps of a scan after its first reuse the
table, whatever their channel; a 100,001-point grid streams through 98
chunks and holds one at a time besides its samples.

receiver_state uses the same form of the channel at one eta: one kernel
call on the terms, then G[i, j] = sum conj(W_first,i) W_second,j over the
term pairs of the curve builds, each weighed by its eta^M s^j there, and
rho = G^T / p with p = tr G. It evaluates those powers, and the trace curve,
with the same _monomials as the chunk tables, without touching the one-slot
_tables cache.

Where a Bob outcome's probability vanishes at eta = 1 (every damping path
annihilates it), that grid point takes the exact limit eta -> 1: with j0 the
lowest power of s at which sum_M D_M is nonzero, F^2 tends to
sum_M N_M[j0] / sum_M D_M[j0]. Each D_M is a sum of squared moduli, so its
lowest coefficients cannot cancel between terms. Such samples carry
boundary_extended = True and branch probability 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import lt
from typing import NamedTuple

import numpy as np

from .noise import NOISE_KINDS, pair_terms, warn_trace_deficit
from .protocol import (CORRECTION_TABLES, DERIVED_TABLE_ROWS, CorrectionRule,
                       check_row, derived_rule)
from .states import (BRANCH_PROBABILITY_FLOOR, TargetSpec, branch_amplitudes,
                     diagonal_trace)

MAX_GRID_POINTS = 100_001   # step 1e-5; bounds the samples a sweep holds
#: a curve's coefficients: powers eta^0..eta^6 times s^0..s^12
ETA_ORDERS, S_ORDERS = 7, 13
#: the power eta^M s^j has the index M * S_ORDERS + j, below _POWERS
_POWERS = ETA_ORDERS * S_ORDERS
#: grid etas per _tables entry: a 1001-point grid is one chunk (see above)
GRID_CHUNK = 1024

#: W and u are linear in (alpha, beta): the curves are built at these two
_UNIT_TARGETS = (TargetSpec(1.0, 0.0), TargetSpec(0.0, 1.0))


class BranchProbabilityError(ValueError):
    """Conditioning on an outcome whose probability is numerically zero."""


#: the rows of each table a config may name
_TABLE_ROWS = {**{table: len(rules) for table, rules in CORRECTION_TABLES.items()},
               "oracle": DERIVED_TABLE_ROWS}


@lru_cache(maxsize=None)
def _rule(table: str, row: int) -> CorrectionRule:
    """The rule of a table row that PipelineConfig has checked."""
    if table == "oracle":
        return derived_rule("charlie", row)
    return CORRECTION_TABLES[table][row - 1]


@dataclass(frozen=True)
class PipelineConfig:
    """One sweep: noise kind, receiver row, target parameters, eta grid."""

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
        if not (grid and 0.0 <= grid[0] and grid[-1] <= 1.0):
            raise ValueError("eta grid values must lie in [0, 1]")
        if not all(map(lt, grid, grid[1:])):
            raise ValueError("eta grid must be strictly increasing")
        if self.table not in _TABLE_ROWS:
            raise ValueError(f"unknown table {self.table!r}, expected one of "
                             f"{tuple(_TABLE_ROWS)}")
        # a plain int and bool key the caches: True must not find row 1
        object.__setattr__(self, "row", check_row(
            self.row, _TABLE_ROWS[self.table], f"table {self.table}"))
        object.__setattr__(self, "correlated", bool(self.correlated))
        receiver = self.rule().receiver
        if receiver != self.receiver:
            raise ValueError(f"table {self.table} row {self.row} corrects "
                             f"{receiver}, not {self.receiver}")

    def rule(self) -> CorrectionRule:
        return _rule(self.table, self.row)


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


class _Terms(NamedTuple):
    """noise.pair_terms of one channel, indexed for the curve builds and
    receiver_state. A triple is one pair of terms (of one Kraus operator) per
    party: the channel weighs the product of the kernel's entries at its
    first and second terms by eta^M s^j, at the triple's power index."""

    ops: np.ndarray         # (T, 4, 4) nonzero terms
    triples: tuple          # each triple's first and second terms, as flat
                            # indices into a (T, T, T) array
    powers: np.ndarray      # each triple's power index M * S_ORDERS + j
    noiseless: np.ndarray   # (T^3, S_ORDERS): the t^0 terms, by power s^j
    trace: np.ndarray       # output trace for |Psi><Psi| by power, read-only


@lru_cache(maxsize=None)
def _channel_terms(noise_kind: str, correlated: bool) -> _Terms:
    ops, kraus, power, degree = pair_terms(noise_kind, correlated)
    first, second = np.nonzero(kraus[:, None] == kraus)
    order = power[first] * S_ORDERS + degree[first] + degree[second]
    n = len(ops)

    def triples(x, y, z):
        return (x[:, None, None] + y[:, None] + z).reshape(-1)

    powers = triples(order, order, order)
    # one Kraus operator per noise kind carries t^0, so the t^0 terms of the
    # three parties make up one Kraus triple, the channel at eta = 0; its
    # amplitude has degree <= 6 in s, and a triple with a t^1 term lands
    # past the powers of s
    free = np.where(power == 0, degree, S_ORDERS)
    amplitude = triples(free, free, free)
    # the trace is <Psi| I (x) M (x) M (x) M |Psi>, M = sum_k S_k^dag S_k, and
    # M is diagonal, as every single-qubit K^dag K is: its diagonal pair by pair
    m = np.einsum("pji,pji->pi", ops[first].conj(), ops[second]).real
    trace = np.bincount(powers, diagonal_trace(m[:, None, None], m[:, None],
                                               m).reshape(-1), _POWERS)
    trace.setflags(write=False)
    return _Terms(ops, (triples(first * n * n, first * n, first),
                        triples(second * n * n, second * n, second)), powers,
                  (amplitude[:, None] == np.arange(S_ORDERS)).astype(float), trace)


def _squared_norm(x: np.ndarray, terms: _Terms) -> np.ndarray:
    """sum over Kraus operators k of ||sum_m c_m x[m, k]||^2, for amplitudes
    x[m, a, b, c, :] of a form linear in c_m over the pair terms a, b, c: the
    coefficients of every power for each monomial c_0^(2-i) c_1^i ...
    (i = m + n), shape (2 len(x) - 1, _POWERS)."""
    # Re(conj(a) b), summed over the vector axis, is the dot product of the
    # float (real, imag) views; each power sums both orders of every pair, so
    # the imaginary parts of conj(a) b cancel
    xt = x.reshape(len(x), -1, x.shape[-1]).view(float).transpose(0, 2, 1)
    first, second = terms.triples
    gram = np.einsum("mvp,nvp->mnp", np.take(xt, first, axis=2),
                     np.take(xt, second, axis=2))
    monomial = np.add.outer(np.arange(len(x)), np.arange(len(x)))
    index = monomial[..., None] * _POWERS + terms.powers
    return np.bincount(index.reshape(-1), gram.reshape(-1),
                       (2 * len(x) - 1) * _POWERS).reshape(-1, _POWERS)


@lru_cache(maxsize=None)
def _curve(noise_kind: str, correlated: bool, table: str,
           row: int) -> tuple[np.ndarray, np.ndarray]:
    """One branch's exact curves from one kernel call: a read-only block of
    23 rows and the read-only power index of each of its columns, those at
    which some row is nonzero. Its rows go with the columns of
    _target_monomials: the coefficients of ||W u||^2 (without its eta^0
    part) for alpha^4, alpha^3 beta, ..., beta^4, then those of p, and of the
    real and of the imaginary part of the t^0 amplitude W u, each for
    alpha^2, alpha beta, beta^2, and the channel's trace; then ||W u||^2 and
    p at eta = 1, by power of s in the columns of the powers eta^0 s^j."""
    rule = _rule(table, row)
    terms = _channel_terms(noise_kind, correlated)
    w = branch_amplitudes(rule.receiver, rule.sender_outcome,
                          rule.collaborator_outcomes, _UNIT_TARGETS, terms.ops)
    y = w @ rule.unitary()[[0, 3]].T     # [m, a, b, c, n]: W_m u_n
    wu = np.stack([y[0, ..., 0], y[0, ..., 1] + y[1, ..., 0], y[1, ..., 1]])
    rows = np.zeros((23, _POWERS))
    rows[:5] = _squared_norm(wu[..., None], terms)
    rows[5:8] = _squared_norm(w, terms)
    # the eta = 1 fold reads the whole numerator; the curve keeps its t^0
    # part, all of it at eta = 0, as the square of its amplitude: a fidelity
    # of 0 there stays 0, not the root of the ~1e-18 rounding left where
    # squared coefficients cancel
    rows[15:, :S_ORDERS] = rows[:8].reshape(8, ETA_ORDERS, S_ORDERS).sum(axis=1)
    rows[:5, :S_ORDERS] = 0.0
    # real and imaginary parts apart: a complex block would make every chunk
    # product complex, and copy the chunk's table to complex
    amplitude = wu.reshape(3, -1) @ terms.noiseless
    rows[8:11, :S_ORDERS], rows[11:14, :S_ORDERS] = amplitude.real, amplitude.imag
    rows[14] = terms.trace
    (powers,) = np.nonzero(rows.any(axis=0))
    block = rows[:, powers]
    # an index below _POWERS fits a byte
    powers = powers.astype(np.uint8)
    block.setflags(write=False)
    powers.setflags(write=False)
    return block, powers


@lru_cache(maxsize=1)
def _target_monomials(a: float, b: float) -> np.ndarray:
    """The target's monomials, laid out to weigh the rows of a _curve block:
    alpha^4, alpha^3 beta, ..., beta^4 in rows 0 and 5, for ||W u||^2 and its
    fold, alpha^2, alpha beta, beta^2 in rows 1 to 3 and 6, for p, the
    amplitude's two parts and the fold of p, and the trace alone in row 4.
    Cached for the last target: the sweeps of a row scan share one target."""
    quartic = a**4, a**3 * b, a**2 * b**2, a * b**3, b**4
    quadratic = a * a, a * b, b * b
    monomials = np.zeros((7, 23))
    monomials[0, :5] = monomials[5, 15:20] = quartic
    monomials[1, 5:8] = monomials[2, 8:11] = monomials[3, 11:14] = (
        monomials[6, 20:]) = quadratic
    monomials[4, 14] = 1.0
    monomials.setflags(write=False)
    return monomials


def _monomials(eta: np.ndarray) -> np.ndarray:
    """Every power eta^M s^j at each eta, by power index: shape
    (_POWERS, len(eta))."""
    s_powers = np.sqrt(1.0 - eta) ** np.arange(S_ORDERS)[:, None]
    return (eta ** np.arange(ETA_ORDERS)[:, None, None]
            * s_powers).reshape(_POWERS, -1)


def receiver_state(config: PipelineConfig, eta: float) -> tuple[np.ndarray, float]:
    """The receiver's normalized state G^T / p on the config's branch at one
    eta, before correction, and the branch probability p = tr G: one kernel
    call on the channel's pair terms, whose term pairs G weighs at that eta,
    independent of the sweep's curves."""
    if not 0.0 <= eta <= 1.0:   # False for NaN
        raise ValueError(f"noise parameter must be in [0, 1], got {eta}")
    rule = config.rule()
    terms = _channel_terms(config.noise_kind, config.correlated)
    monomials = _monomials(np.array([eta]))[:, 0]
    warn_trace_deficit(1.0 - float(terms.trace @ monomials))
    w = branch_amplitudes(config.receiver, rule.sender_outcome,
                          rule.collaborator_outcomes, config.spec,
                          terms.ops).reshape(-1, 4)
    # G[i, j] = sum over term pairs of eta^M s^j conj(W_first,i) W_second,j
    first, second = terms.triples
    g = (w[first].conj().T * monomials[terms.powers]) @ w[second]
    p = float(np.trace(g).real)
    if p <= BRANCH_PROBABILITY_FLOOR:
        raise BranchProbabilityError(
            f"{config.noise_kind} eta={eta:g} {config.receiver} table {config.table} "
            f"row {config.row}: branch probability {p:.3e} is below "
            f"{BRANCH_PROBABILITY_FLOOR:g}, cannot normalize")
    return g.T / p, p


@lru_cache(maxsize=1)
def _tables(chunk: tuple) -> np.ndarray:
    """The grid side of a sweep over one chunk of grid etas: its _monomials,
    read-only. One slot for every channel: the sweeps of a row scan share
    one grid, and a long grid streams through it."""
    table = _monomials(np.array(chunk))
    table.setflags(write=False)
    return table


def sweep(config: PipelineConfig) -> SweepResult:
    """Fidelity at every grid value, in grid order, from the branch's cached
    curves; where the branch dies at eta = 1, the exact limit."""
    spec = config.spec
    block, powers = _curve(config.noise_kind, config.correlated, config.table,
                           config.row)
    # rows ||W u||^2 without its t^0 part, p, the t^0 amplitude's real and
    # imaginary parts and the trace, then ||W u||^2 and p at eta = 1
    curves = _target_monomials(spec.alpha, spec.beta) @ block
    coef, (wu2_one, p_one) = curves[:5], curves[5:]
    (orders,) = np.nonzero(p_one)
    if not orders.size:
        raise BranchProbabilityError(
            f"{config.noise_kind} {config.receiver} table {config.table} row "
            f"{config.row}: the branch probability vanishes at every eta")
    grid = config.eta_grid
    # the block column of s^j0 (see above); the grid increases, so only its
    # last point can be eta = 1
    j0 = orders[0]
    live = len(grid) - (powers[j0] > 0 and grid[-1] == 1.0)
    fidelity, branch_probability, deficit = [], [], 0.0
    for start in range(0, len(grid), GRID_CHUNK):
        wu2, p, real, imag, trace = coef @ _tables(
            grid[start:start + GRID_CHUNK]).take(powers, axis=0)
        wu2 += real * real + imag * imag
        # clipped: where F = 0, rounding in the squared coefficients of the
        # eta^M, M >= 1, parts can leave F^2 at -1e-17
        end = live - start
        fidelity += np.sqrt(np.maximum(wu2[:end], 0.0) / p[:end]).tolist()
        branch_probability += p.tolist()
        # a list's min: at 11 etas, numpy's costs twice as much
        deficit = max(deficit, 1.0 - min(trace.tolist()))
    warn_trace_deficit(deficit)
    fidelity += [float(np.sqrt(max(wu2_one[j0], 0.0) / p_one[j0]))] * (
        len(grid) - live)
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
