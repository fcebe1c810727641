"""First exit of Brownian motion from a symmetric interval.

Exit from [-a, a] started at 0 scales as a**2 times the exit from [-1, 1],
so the unit-interval distribution function is the only numerical object
required. An exact exit from [-a, a] is a**2 * invert_unit_cdf(u) on an
independent fair side (the interval is symmetric); the coupling's exact
engine draws it so, and this module holds no sampler of its own. Two
complementary alternating series cover the two regimes:

* t >= 0.05: spectral series for the survival probability,
      P(tau > t) = sum_j (-1)**j * (4/pi) / (2j+1) * exp(-(2j+1)**2 * pi**2 * t / 8).
  Terms decay monotonically there, so stopping after the first term below
  1e-12 bounds the error by that term's successor.

* t < 0.05: Gaussian image series for the distribution function itself,
      P(tau <= t) = 4 * [Q(1/sqrt(t)) - Q(3/sqrt(t)) + Q(5/sqrt(t)) - ...]
  with Q the standard normal upper tail. Computing F directly avoids the
  catastrophic cancellation of 1 - (spectral sum) when F is tiny.

The four series (distribution and density, both regimes) are each a term
function summed by one loop, _series, with one stopping rule: an element
stops after its first term below the tolerance at its own t. So a value does
not depend on the other values of its call, and a draw does not depend on
its block. A new series of the same family is one more term function.

Sampling inverts F to absolute tolerance PROB_TOL = 1e-10 in probability.
A forward table of F and f gives each uniform its cell through a guide table
(Chen & Asau 1974) and a start by cubic Hermite interpolation of the inverse
in that cell, which is within about 1e-12 of its uniform; one evaluation of
F then accepts almost every draw. A draw that misses takes Newton steps on
the exit density f = F', safeguarded by bisection inside the table bracket.
A draw is returned only once its evaluated F is within the tolerance of its
uniform. The tables are built on first use in a process, and scipy, whose
normal tail only the small-t series needs, is imported on the first small-t
evaluation, so a process that draws no exact exit loads neither.

The grid walker grid_exit observes a discrete N(0, h) random walk instead;
its exit time is biased upward by O(sqrt(h)) because excursions between grid
points go unseen. grid_exit is the plain oracle and leaves that bias
uncorrected; the coupling's grid engine scans for a continuity-corrected
barrier instead (coupling.BGK_SHIFT), which removes it.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericError, check_budget, check_positive

SERIES_SWITCH_T = 0.05
SERIES_TERM_TOL = 1e-12
# Probability tolerance of every exact draw; above the series' own truncation
# error, so it can be verified.
PROB_TOL = 1e-10
_PI2_OVER_8 = math.pi * math.pi / 8.0
_UPPER_BRACKET = 40.0  # survival(40) ~ 5e-22, below the resolution of float-uniform draws
_MAX_TERMS = 64  # the spectral series needs 12 at t = SERIES_SWITCH_T


def _series(args, term, tol, what):
    # sum_j term(j, *args) elementwise, j = 0, 1, ...: each element stops
    # after its first term of magnitude below tol, at its own arguments, so
    # its value does not depend on its neighbours.
    total = np.zeros_like(args[0])
    idx = np.arange(total.size)
    for j in range(_MAX_TERMS):
        term_j = term(j, *(a[idx] for a in args))
        total[idx] += term_j
        idx = idx[np.abs(term_j) >= tol]
        if not idx.size:
            return total
    raise NumericError(f"{what} did not converge")


def _cdf_small_t(t: np.ndarray) -> np.ndarray:
    # F(t) = 4 * sum_j [Q((4j+1)/sqrt(t)) - Q((4j+3)/sqrt(t))], terms positive
    # and strictly decreasing, so the alternating-series error bound applies
    # to the paired form as well. Imported here, so a process without exact
    # draws never loads scipy.
    from scipy.special import ndtr

    def term(j, root):
        return ndtr(-(4 * j + 1) * root) - ndtr(-(4 * j + 3) * root)

    what = "image series for the exit distribution"
    return 4.0 * _series((1.0 / np.sqrt(t),), term, SERIES_TERM_TOL / 4.0, what)


def _density_small_t(t: np.ndarray) -> np.ndarray:
    # f(t) = 2 t**-1.5 * sum_j (-1)**j (2j+1) phi((2j+1)/sqrt(t)), the image
    # series differentiated term by term; terms strictly decrease in j.
    def term(j, log_scale, half_inv):
        m = 2 * j + 1
        return (-1.0) ** j * m * np.exp(log_scale - (m * m) * half_inv)

    log_scale = math.log(2.0 / math.sqrt(2.0 * math.pi)) - 1.5 * np.log(t)
    return _series((log_scale, 0.5 / t), term, SERIES_TERM_TOL, "image series for the exit density")


def _spectral_term(weight):
    # Term j of sum_j (-1)**j weight(m) exp(-m**2 * pi**2 * t / 8), m = 2j + 1;
    # terms decrease in j for t >= SERIES_SWITCH_T.
    def term(j, t):
        m = 2 * j + 1
        return (-1.0) ** j * weight(m) * np.exp(-(m * m) * _PI2_OVER_8 * t)

    return term


def _cdf_large_t(t: np.ndarray) -> np.ndarray:
    # P(tau > t) = sum_j (-1)**j (4/pi) / (2j+1) exp(-(2j+1)**2 * pi**2 * t / 8)
    term = _spectral_term(lambda m: (4.0 / math.pi) / m)
    survival = _series((t,), term, SERIES_TERM_TOL, "spectral series for the exit distribution")
    return np.clip(1.0 - survival, 0.0, 1.0)


def _density_large_t(t: np.ndarray) -> np.ndarray:
    # f(t) = (pi/2) * sum_j (-1)**j (2j+1) exp(-(2j+1)**2 * pi**2 * t / 8)
    term = _spectral_term(lambda m: (math.pi / 2.0) * m)
    return _series((t,), term, SERIES_TERM_TOL, "spectral series for the exit density")


def _by_regime(t, small_t, large_t):
    arr = np.asarray(t, dtype=float)
    out = np.zeros(arr.shape)
    flat = arr.ravel()
    res = out.ravel()
    small = (flat > 0.0) & (flat < SERIES_SWITCH_T)
    large = flat >= SERIES_SWITCH_T
    if small.any():
        res[small] = small_t(flat[small])
    if large.any():
        res[large] = large_t(flat[large])
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def unit_exit_cdf(t):
    """P(tau_1 <= t) for the exit time tau_1 of standard BM from [-1, 1]."""
    return _by_regime(t, _cdf_small_t, _cdf_large_t)


def unit_exit_density(t):
    """Density of tau_1, the derivative of unit_exit_cdf; 0 for t <= 0."""
    return _by_regime(t, _density_small_t, _density_large_t)


# Start for u = 0; every u > 0 interpolates above it.
_T_FLOOR = np.finfo(float).tiny
# Draws per block: bounds the temporaries (32 KB per value a draw carries) so
# they stay in cache; a draw's bits do not depend on it.
_INVERT_BLOCK = 1 << 12
_MAX_PASSES = 64  # bisection alone needs under 30 inside one table cell
_GUIDE_BINS = 1 << 16


class _Tables(NamedTuple):
    """The inversion's read-only tables; see _tables."""

    f: np.ndarray  # F at the nodes
    guide_cell: np.ndarray
    guide_split: np.ndarray
    guide_many: np.ndarray
    rows: np.ndarray  # per cell: bracket and cubic start


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.cache
def _tables() -> _Tables:
    """Forward table f = F(t) on t = 0 and a geometric ladder up to the upper
    bracket, its guide table and its cell rows, built on first use in a
    process (an exact stream or an inversion); read-only. F(5e-3) ~ 4e-45,
    so the first cell holds every uniform below it. Cell k, 1 <= k < 4096,
    brackets the u with f[k - 1] <= u < f[k] by [t[k - 1], t[k]]; u = 1
    falls in the last cell.

    F and f come from the series themselves, not through unit_exit_cdf and
    unit_exit_density, so counting those names counts draws only.
    """
    t = np.concatenate([[0.0], np.geomspace(5e-3, _UPPER_BRACKET, 4095)])
    f = _by_regime(t, _cdf_small_t, _cdf_large_t)
    f[-1] = 1.0
    f = _read_only(f)
    return _Tables(f, *_guide_table(f), _cell_rows(t, f))


def _searched_cell(u: np.ndarray, f: np.ndarray) -> np.ndarray:
    return np.clip(np.searchsorted(f, u, side="right"), 1, f.size - 1)


def _guide_table(f: np.ndarray):
    # Guide table (Chen & Asau 1974) over 2**16 equal bins of u: the cell of
    # each bin's lower edge, the node past which a u of the bin lies in the
    # next cell, and a flag on the bins whose u span more than two cells.
    edges = np.arange(_GUIDE_BINS) / _GUIDE_BINS
    tops = np.append(np.nextafter(edges[1:], 0.0), 1.0)  # the last bin also holds u = 1
    first, last = _searched_cell(edges, f), _searched_cell(tops, f)
    split = np.where(first < f.size - 1, f[first], np.inf)
    return _read_only(first), _read_only(split), _read_only(last > first + 1)


def _cell_rows(t: np.ndarray, f: np.ndarray) -> np.ndarray:
    # Row k holds cell k's bracket (t0, t1) and its cubic Hermite
    # interpolation of the inverse t(u) in x = (u - u0) / du on [0, 1],
    # t = t0 + x (c1 + x (c2 + x c3)), with node slopes dt/dx = du / F'(t_i):
    # (t0, t1, u0, 1 / du, c1, c2, c3). Where the cubic is not finite (f(0) =
    # 0 in the first cell; du = 0 where F has rounded to 1) its five entries
    # are NaN, so the cell's draws take the linear start.
    dens = _by_regime(t, _density_small_t, _density_large_t)
    du, dt = np.diff(f), np.diff(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        m0, m1, inv_du = du / dens[:-1], du / dens[1:], 1.0 / du
    cubic = np.column_stack([f[:-1], inv_du, m0, 3.0 * dt - 2.0 * m0 - m1, m0 + m1 - 2.0 * dt])
    cubic[~np.isfinite(cubic).all(axis=1)] = np.nan
    rows = np.column_stack([t[:-1], t[1:], cubic])
    return _read_only(np.vstack([np.full(7, np.nan), rows]))  # no cell 0


def _table_cell(u: np.ndarray, tables: _Tables) -> np.ndarray:
    """The table cell of each u, equal to _searched_cell(u, tables.f): one
    guide-table compare, or a search in the few bins that span more than two
    cells."""
    b = (u * _GUIDE_BINS).astype(np.intp)
    np.clip(b, 0, _GUIDE_BINS - 1, out=b)  # u = 1 joins the last bin
    cell = tables.guide_cell[b] + (u >= tables.guide_split[b])
    many = np.flatnonzero(tables.guide_many[b])
    if many.size:
        cell[many] = _searched_cell(u[many], tables.f)
    return cell


def _table_start(u: np.ndarray, tables: _Tables):
    """Start t and table bracket (lo, hi) of each u: the cubic Hermite start
    in its cell, or the linear one where the cubic is not finite or leaves
    the bracket."""
    cell = _table_cell(u, tables)
    rows = np.take(tables.rows, cell, axis=0)
    lo, hi = rows[:, 0], rows[:, 1]
    x = (u - rows[:, 2]) * rows[:, 3]
    t = lo + x * (rows[:, 4] + x * (rows[:, 5] + x * rows[:, 6]))
    off = np.flatnonzero(~((t >= lo) & (t <= hi)))  # NaN too
    if off.size:
        flo, fhi = tables.f[cell[off] - 1], tables.f[cell[off]]
        frac = np.divide(u[off] - flo, fhi - flo, out=np.full(off.size, 0.5), where=fhi > flo)
        t[off] = lo[off] + frac * (hi[off] - lo[off])
    return np.maximum(t, _T_FLOOR), lo, hi  # u = 0 interpolates to t = 0


def invert_unit_cdf(u: np.ndarray) -> np.ndarray:
    """Solve unit_exit_cdf(t) = u elementwise for uniforms u in [0, 1], t > 0.

    Each draw starts from cubic Hermite interpolation of the inverse in its
    cell of the forward table, found through a guide table, and is accepted
    when the one evaluation there has |unit_exit_cdf(t) - u| <= PROB_TOL,
    which is almost every draw. A miss takes Newton steps on the exit
    density; a step that leaves the current bracket is replaced by its
    midpoint, and every evaluation shrinks the bracket. So every returned
    draw carries distribution-function error at most PROB_TOL; NumericError
    if one misses it within _MAX_PASSES evaluations. Draws are solved in
    blocks of _INVERT_BLOCK to bound the temporaries.
    """
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    out = np.empty(flat.shape)
    tables = _tables()
    for start in range(0, flat.size, _INVERT_BLOCK):
        stop = start + _INVERT_BLOCK
        out[start:stop] = _invert_block(flat[start:stop], tables)
    return out.reshape(u.shape)


def _invert_block(u: np.ndarray, tables: _Tables) -> np.ndarray:
    t, lo, hi = _table_start(u, tables)
    out = np.empty(u.shape)
    active = np.arange(u.size)
    for _ in range(_MAX_PASSES):
        ft = unit_exit_cdf(t)
        done = np.abs(ft - u) <= PROB_TOL
        out[active[done]] = t[done]
        keep = ~done
        if not keep.any():
            return out
        active, u, t, ft = active[keep], u[keep], t[keep], ft[keep]
        below = ft < u
        lo = np.where(below, t, lo[keep])
        hi = np.where(below, hi[keep], t)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = t - (ft - u) / unit_exit_density(t)
        t = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
    raise NumericError("exit-time inversion did not reach the probability tolerance")


def grid_exit(a: float, h: float, rng: np.random.Generator) -> tuple[float, int]:
    """Walk N(0, h) increments until |walk| >= a; return (exit_time, sign).

    Requires h <= a**2 / 100 so the walk resolves the interval. The walk is
    drawn in blocks and only its last value is kept; BudgetError if a block
    would exceed errors.ALLOC_BUDGET_BYTES.
    """
    a = check_positive(a, "a")
    if not 0 < h <= a * a / 100.0:
        raise InputError(f"grid step h={h!r} must lie in (0, a^2/100]")
    sqrt_h = math.sqrt(h)
    block = int(1.25 * a * a / h) + 64
    last = 0.0
    used = 0
    while True:
        check_budget(block, "grid exit walk block")
        w = last + np.cumsum(rng.standard_normal(block) * sqrt_h)
        hit = np.abs(w) >= a
        j = int(np.argmax(hit))
        if hit[j]:
            return (used + j + 1) * h, 1 if w[j] > 0 else -1
        used += block
        last = float(w[-1])
        block = max(1024, block // 2)


def first_crossing(values: np.ndarray, start: int, level: float, *, chunk: int = 4096) -> int:
    """First index j > start with |values[j] - values[start]| >= level, else -1.

    Scans in chunks so the cost tracks the actual crossing position instead
    of the array length. A level <= 0 is crossed at start + 1.
    """
    base = values[start]
    i = start + 1
    n = len(values)
    while i < n:
        j = min(i + chunk, n)
        gap = values[i:j] - base
        hits = np.abs(gap, out=gap) >= level
        k = hits.argmax()
        if hits[k]:
            return i + int(k)
        i = j
    return -1
