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
of rounding noise. _curve builds these once per process for each (noise
kind, channel mode, table, row), storing only the powers eta^M s^j that the
channel can reach (4 for correlated PD, 28 for correlated AD, 7 and 49
uncorrelated). That key space is finite, 2 x 2 x 72 = 288 entries of 0.9 to
3.8 KB, so the cache needs no size limit and holds at most 0.59 MB of
coefficients; a scan of all 72 rows under both noise kinds fills 144
entries, 0.24 MB.

A sweep contracts the row's coefficients with the target's monomials once,
then walks the grid in chunks of GRID_CHUNK = 1024 etas. For each chunk,
_tables holds the grid side: the powers eta^M s^j on the channel's support,
the powers of s for the t^0 amplitude, and the chunk's worst trace deficit
of the channel on |Psi><Psi| (for the TraceDeficitWarning check), whose
coefficients have the same form. A chunk then costs four vector-matrix
products. _tables keeps one chunk, at most GRID_CHUNK x (49 + 13) floats,
0.51 MB. At 1024, the default 11-point grid and the 1001-point grid of
step 0.001 are one chunk each, so the sweeps of a row scan after its first
reuse the tables; a 100,001-point grid streams through 98 chunks and holds
one at a time besides its samples.

receiver_state uses the same form of the channel at one eta: it sums each
Kraus operator's terms t^M s^d C into the per-pair stack for one kernel
call, and evaluates the trace curve there with the same _monomials as the
chunk tables, without touching the one-slot _tables cache.

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
from operator import lt
from typing import NamedTuple

import numpy as np

from .noise import NOISE_KINDS, pair_terms, warn_trace_deficit
from .protocol import (CORRECTION_TABLES, DERIVED_TABLE_ROWS, CorrectionRule,
                       check_row, derived_rule)
from .states import TargetSpec, branch_amplitudes, diagonal_trace

BRANCH_PROBABILITY_FLOOR = 1e-12
MAX_GRID_POINTS = 100_001   # step 1e-5; bounds the samples a sweep holds
#: a curve's coefficients: powers eta^0..eta^6 times s^0..s^12
ETA_ORDERS, S_ORDERS = 7, 13
#: grid etas per _tables entry: a 1001-point grid is one chunk (see above)
GRID_CHUNK = 1024

#: W and u are linear in (alpha, beta): the curves are built at these two
_UNIT_TARGETS = (TargetSpec(1.0, 0.0), TargetSpec(0.0, 1.0))


class BranchProbabilityError(ValueError):
    """Conditioning on an outcome whose probability is numerically zero."""


def _rule_for(table: str, row: int) -> CorrectionRule:
    oracle = table == "oracle"
    if not oracle and table not in CORRECTION_TABLES:
        raise ValueError(f"unknown table {table!r}, expected one of "
                         f"{(*CORRECTION_TABLES, 'oracle')}")
    rows = DERIVED_TABLE_ROWS if oracle else len(CORRECTION_TABLES[table])
    check_row(row, rows, f"table {table}")
    if oracle:
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
        grid = self.eta_grid
        if len(grid) > MAX_GRID_POINTS:
            raise ValueError(f"eta grid has {len(grid)} points, more than "
                             f"MAX_GRID_POINTS = {MAX_GRID_POINTS}")
        # one pass: an increasing grid lies within its endpoints, and a <
        # chain fails on NaN
        if not (grid and 0.0 <= grid[0] and grid[-1] <= 1.0):
            raise ValueError("eta grid values must lie in [0, 1]")
        if not all(map(lt, grid, grid[1:])):
            raise ValueError("eta grid must be strictly increasing")
        rule = _rule_for(self.table, self.row)
        if rule.receiver != self.receiver:
            raise ValueError(
                f"table {self.table} row {self.row} corrects {rule.receiver}, "
                f"not {self.receiver}")

    def rule(self) -> CorrectionRule:
        return _rule_for(self.table, self.row)


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
    The last grid is cached: the configs of a row scan share one tuple."""
    n = round(1.0 / step) if step > 0 else 0
    if n < 1 or abs(n * step - 1.0) > 1e-9:
        raise ValueError(f"step {step} does not divide [0, 1] evenly")
    if n + 1 > MAX_GRID_POINTS:
        raise ValueError(f"step {step} gives {n + 1} grid points, more than "
                         f"MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    return tuple(round(i * step, 10) for i in range(n + 1))


class _Terms(NamedTuple):
    """noise.pair_terms of one channel, indexed for the curve builds. A
    triple is one pair of terms (of one Kraus operator) per party; support
    lists the flat indices M * S_ORDERS + j of the powers eta^M s^j that a
    triple can reach, and a curve stores coefficients on support only."""

    ops: np.ndarray         # (T, 4, 4) nonzero terms
    kraus: np.ndarray       # (K, T) 0/1: the terms of each pair Kraus operator
    exponents: np.ndarray   # (T, 2): each term's powers of t and s
    triples: tuple          # each triple's first and second terms, as flat
                            # indices into a (T, T, T) array
    bins: np.ndarray        # each triple's position in support
    support: np.ndarray
    noiseless: np.ndarray   # (T^3, S_ORDERS): the t^0 terms, by power of s
    trace: np.ndarray       # output trace for |Psi><Psi| on support, read-only
    fold: np.ndarray        # (len(support), S_ORDERS): sums out eta^M, the
                            # curve at eta = 1 by power of s
    constant: int           # support starts with this many powers eta^0 s^j


@lru_cache(maxsize=None)
def _channel_terms(noise_kind: str, correlated: bool) -> _Terms:
    ops, kraus, power, degree = pair_terms(noise_kind, correlated)
    first, second = np.nonzero(kraus[:, None] == kraus)
    order = power[first] * S_ORDERS + degree[first] + degree[second]
    n = len(ops)

    def triples(x, y, z):
        return (x[:, None, None] + y[:, None] + z).reshape(-1)

    flat = triples(order, order, order)
    reached = np.bincount(flat, minlength=ETA_ORDERS * S_ORDERS) > 0
    bins = (np.cumsum(reached) - 1)[flat]
    # one Kraus operator per noise kind carries t^0, so the t^0 terms of the
    # three parties make up one Kraus triple, the channel at eta = 0
    free = np.where(power == 0, degree, S_ORDERS)
    noiseless = triples(free, free, free)[:, None] == np.arange(S_ORDERS)
    # the trace is <Psi| I (x) M (x) M (x) M |Psi>, M = sum_k S_k^dag S_k, and
    # M is diagonal, as every single-qubit K^dag K is: its diagonal pair by pair
    m = np.einsum("pji,pji->pi", ops[first].conj(), ops[second]).real
    trace = np.bincount(bins, diagonal_trace(m[:, None, None], m[:, None],
                                             m).reshape(-1))
    trace.setflags(write=False)
    support = np.flatnonzero(reached)
    fold = support[:, None] % S_ORDERS == np.arange(S_ORDERS)
    # the K operators' indices, sorted; np.unique would cost the process
    # ~1 MB of RSS on its first call (numpy 2.4)
    slots = np.flatnonzero(np.bincount(kraus))
    return _Terms(ops, (slots[:, None] == kraus).astype(float),
                  np.stack([power, degree], axis=1),
                  (triples(first * n * n, first * n, first),
                        triples(second * n * n, second * n, second)),
                  bins, support, noiseless.astype(float), trace,
                  fold.astype(float), int(np.searchsorted(support, S_ORDERS)))


def _squared_norm(x: np.ndarray, terms: _Terms) -> np.ndarray:
    """sum over Kraus operators k of ||sum_m c_m x[m, k]||^2, for amplitudes
    x[m, a, b, c, :] of a form linear in c_m over the pair terms a, b, c: the
    coefficients of eta^M s^j on terms.support for each monomial
    c_0^(2-i) c_1^i ... (i = m + n), shape (2 len(x) - 1, len(support))."""
    # Re(conj(a) b), summed over the vector axis, is the dot product of the
    # float (real, imag) views; each bin sums both orders of every pair, so
    # the imaginary parts of conj(a) b cancel
    xt = x.reshape(len(x), -1, x.shape[-1]).view(float).transpose(0, 2, 1)
    first, second = terms.triples
    gram = np.einsum("mvp,nvp->mnp", np.take(xt, first, axis=2),
                     np.take(xt, second, axis=2))
    size = len(terms.support)
    monomial = np.add.outer(np.arange(len(x)), np.arange(len(x)))
    index = monomial[..., None] * size + terms.bins
    return np.bincount(index.reshape(-1), gram.reshape(-1),
                       (2 * len(x) - 1) * size).reshape(-1, size)


@lru_cache(maxsize=None)
def _curve(noise_kind: str, correlated: bool, table: str, row: int):
    """One branch's exact curves, read-only, from one kernel call: ||W u||^2
    for the monomials alpha^4, alpha^3 beta, ..., beta^4 and p for alpha^2,
    alpha beta, beta^2, as _squared_norm coefficients, and the amplitude
    W u of the t^0 Kraus triple for alpha^2, alpha beta, beta^2, by powers
    of s."""
    rule = _rule_for(table, row)
    terms = _channel_terms(noise_kind, correlated)
    w = branch_amplitudes(rule.receiver, rule.sender_outcome,
                          rule.collaborator_outcomes, _UNIT_TARGETS, terms.ops)
    y = w @ rule.unitary()[[0, 3]].T     # [m, a, b, c, n]: W_m u_n
    wu = np.stack([y[0, ..., 0], y[0, ..., 1] + y[1, ..., 0], y[1, ..., 1]])
    curves = (_squared_norm(wu[..., None], terms), _squared_norm(w, terms),
              wu.reshape(3, -1) @ terms.noiseless)
    for coef in curves:
        coef.setflags(write=False)
    return curves


def _monomials(terms: _Terms, eta: np.ndarray):
    """The powers eta^M s^j on the channel's support, shape (len(support),
    len(eta)), and the powers s^0..s^12, shape (S_ORDERS, len(eta))."""
    s_powers = np.sqrt(1.0 - eta) ** np.arange(S_ORDERS)[:, None]
    return (eta ** (terms.support // S_ORDERS)[:, None]
            * s_powers[terms.support % S_ORDERS]), s_powers


def receiver_state(config: PipelineConfig, eta: float) -> tuple[np.ndarray, float]:
    """The receiver's normalized state W^T W* / p on the config's branch at one
    eta, before correction, and the branch probability p: one kernel call with
    the channel's pair terms summed at that eta, independent of the sweep's
    curves."""
    if not 0.0 <= eta <= 1.0:   # False for NaN
        raise ValueError(f"noise parameter must be in [0, 1], got {eta}")
    rule = config.rule()
    terms = _channel_terms(config.noise_kind, config.correlated)
    monomials, _ = _monomials(terms, np.array([eta]))
    warn_trace_deficit(1.0 - float((terms.trace @ monomials)[0]))
    # each pair Kraus operator at eta: the sum of its terms t^M s^d C
    weights = np.prod(np.sqrt([eta, 1.0 - eta]) ** terms.exponents, axis=1)
    w = branch_amplitudes(config.receiver, rule.sender_outcome,
                          rule.collaborator_outcomes, config.spec,
                          np.einsum("kt,t,tab->kab", terms.kraus, weights,
                                    terms.ops)).reshape(-1, 4)
    p = float(np.linalg.norm(w) ** 2)
    if p <= BRANCH_PROBABILITY_FLOOR:
        raise BranchProbabilityError(
            f"{config.noise_kind} eta={eta:g} {config.receiver} table {config.table} "
            f"row {config.row}: branch probability {p:.3e} is below "
            f"{BRANCH_PROBABILITY_FLOOR:g}, cannot normalize")
    return w.T @ w.conj() / p, p


@lru_cache(maxsize=1)
def _tables(noise_kind: str, correlated: bool, chunk: tuple) -> tuple:
    """The grid side of a sweep over one chunk of grid etas: its _monomials
    (the powers of s for the t^0 amplitude) and its worst trace deficit. One
    slot: the sweeps of a row scan share one grid, and a long grid streams
    through it."""
    terms = _channel_terms(noise_kind, correlated)
    monomials, s_powers = _monomials(terms, np.array(chunk))
    for table in (monomials, s_powers):
        table.setflags(write=False)
    return monomials, s_powers, 1.0 - float((terms.trace @ monomials).min())


def sweep(config: PipelineConfig) -> SweepResult:
    """Fidelity at every grid value, in grid order, from the branch's cached
    curves; where the branch dies at eta = 1, the exact limit."""
    key = config.noise_kind, config.correlated
    numerator, probability, noiseless = _curve(*key, config.table, config.row)
    terms = _channel_terms(*key)
    a, b = config.spec.alpha, config.spec.beta
    quadratic = np.array([a * a, a * b, b * b])
    # vector-matrix products only, here and per chunk: the first
    # matrix-matrix product of a process makes BLAS touch ~0.3 MB of buffers
    wu2_coef = np.array([a**4, a**3 * b, a**2 * b**2, a * b**3, b**4]) @ numerator
    p_coef = quadratic @ probability
    # ||W u||^2 and p at eta = 1, by power of s
    wu2_one, p_one = wu2_coef @ terms.fold, p_coef @ terms.fold
    (orders,) = np.nonzero(p_one)
    if not orders.size:
        raise BranchProbabilityError(
            f"{config.noise_kind} {config.receiver} table {config.table} row "
            f"{config.row}: the branch probability vanishes at every eta")
    # the t^0 part of ||W u||^2, all of it at eta = 0, is the square of its
    # amplitude: a fidelity of 0 there stays 0, not the root of the ~1e-18
    # rounding left where squared coefficients cancel
    wu2_coef[:terms.constant] = 0.0
    # real and imaginary parts apart: a complex product would copy the s^j
    # table to complex
    real, imag = (quadratic @ noiseless.view(float)).reshape(S_ORDERS, 2).T
    grid = config.eta_grid
    # the grid increases, so only its last point can be eta = 1
    j0 = orders[0]
    live = len(grid) - (j0 > 0 and grid[-1] == 1.0)
    fidelity, branch_probability, deficit = [], [], 0.0
    for start in range(0, len(grid), GRID_CHUNK):
        monomials, s_powers, chunk_deficit = _tables(
            *key, tuple(grid[start:start + GRID_CHUNK]))
        wu2, p = wu2_coef @ monomials, p_coef @ monomials
        wu2 += (real @ s_powers) ** 2 + (imag @ s_powers) ** 2
        # clipped: where F = 0, rounding in the squared coefficients of the
        # eta^M, M >= 1, parts can leave F^2 at -1e-17
        end = live - start
        fidelity += np.sqrt(np.maximum(wu2[:end], 0.0) / p[:end]).tolist()
        branch_probability += p.tolist()
        deficit = max(deficit, chunk_deficit)
    warn_trace_deficit(deficit)
    fidelity += [float(np.sqrt(max(wu2_one[j0], 0.0) / p_one[j0]))] * (
        len(grid) - live)
    return SweepResult(config=config, samples=tuple(map(
        FidelitySample, grid, fidelity, branch_probability,
        [False] * live + [True] * (len(grid) - live))))


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
