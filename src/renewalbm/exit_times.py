"""First exit of Brownian motion from a symmetric interval.

Exit from [-a, a] started at 0 scales as a**2 times the exit from [-1, 1],
so the unit-interval distribution function is the only numerical object
required. Two complementary alternating series cover the two regimes:

* t >= 0.05: spectral series for the survival probability,
      P(tau > t) = sum_j (-1)**j * (4/pi) / (2j+1) * exp(-(2j+1)**2 * pi**2 * t / 8).
  Terms decay monotonically there, so truncating when the next term drops
  below 1e-12 bounds the error by 1e-12.

* t < 0.05: Gaussian image series for the distribution function itself,
      P(tau <= t) = 4 * [Q(1/sqrt(t)) - Q(3/sqrt(t)) + Q(5/sqrt(t)) - ...]
  with Q the standard normal upper tail. Computing F directly avoids the
  catastrophic cancellation of 1 - (spectral sum) when F is tiny.

Sampling inverts F to absolute tolerance 1e-10 in probability: a start
interpolated in a forward table of F, built once at import, then Newton steps
on the exit density f = F', safeguarded by bisection inside the table
bracket. A draw is returned only once its evaluated F is within the
tolerance of its uniform.

The grid walker grid_exit observes a discrete N(0, h) random walk instead;
its exit time is biased upward by O(sqrt(h)) because excursions between grid
points go unseen. grid_exit is the plain oracle and leaves that bias
uncorrected; the coupling's grid engine scans for a continuity-corrected
barrier instead (coupling.BGK_SHIFT), which removes it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from .errors import NumericError, ParameterError, check_budget

SERIES_SWITCH_T = 0.05
SERIES_TERM_TOL = 1e-12
_PI2_OVER_8 = math.pi * math.pi / 8.0
_UPPER_BRACKET = 40.0  # survival(40) ~ 5e-22, below the resolution of float-uniform draws


def _cdf_small_t(t: np.ndarray) -> np.ndarray:
    # F(t) = 4 * sum_j [Q((4j+1)/sqrt(t)) - Q((4j+3)/sqrt(t))], terms positive
    # and strictly decreasing, so the alternating-series error bound applies
    # to the paired form as well.
    root = 1.0 / np.sqrt(t)
    total = np.zeros_like(t)
    for j in range(64):
        term = ndtr(-(4 * j + 1) * root) - ndtr(-(4 * j + 3) * root)
        total += term
        if float(term.max(initial=0.0)) < SERIES_TERM_TOL / 4.0:
            return 4.0 * total
    raise NumericError("image series for the exit distribution did not converge")


def _cdf_large_t(t: np.ndarray) -> np.ndarray:
    coeff = 4.0 / math.pi
    survival = np.zeros_like(t)
    sign = 1.0
    for j in range(400):
        m = 2 * j + 1
        term = (coeff / m) * np.exp(-(m * m) * _PI2_OVER_8 * t)
        survival += sign * term
        sign = -sign
        m_next = m + 2
        next_max = (coeff / m_next) * math.exp(-(m_next * m_next) * _PI2_OVER_8 * float(t.min()))
        if next_max < SERIES_TERM_TOL:
            return np.clip(1.0 - survival, 0.0, 1.0)
    raise NumericError("spectral series for the exit distribution did not converge")


def _density_small_t(t: np.ndarray) -> np.ndarray:
    # f(t) = 2 t**-1.5 * sum_j (-1)**j (2j+1) phi((2j+1)/sqrt(t)), the image
    # series differentiated term by term; terms strictly decrease in j.
    log_scale = math.log(2.0 / math.sqrt(2.0 * math.pi)) - 1.5 * np.log(t)
    half_inv = 0.5 / t
    total = np.zeros_like(t)
    sign = 1.0
    for j in range(64):
        m = 2 * j + 1
        term = m * np.exp(log_scale - (m * m) * half_inv)
        total += sign * term
        sign = -sign
        if float(term.max(initial=0.0)) < SERIES_TERM_TOL:
            return total
    raise NumericError("image series for the exit density did not converge")


def _density_large_t(t: np.ndarray) -> np.ndarray:
    # f(t) = (pi/2) * sum_j (-1)**j (2j+1) exp(-(2j+1)**2 * pi**2 * t / 8)
    coeff = math.pi / 2.0
    density = np.zeros_like(t)
    sign = 1.0
    for j in range(400):
        m = 2 * j + 1
        density += sign * (coeff * m) * np.exp(-(m * m) * _PI2_OVER_8 * t)
        sign = -sign
        m_next = m + 2
        next_max = coeff * m_next * math.exp(-(m_next * m_next) * _PI2_OVER_8 * float(t.min()))
        if next_max < SERIES_TERM_TOL:
            return density
    raise NumericError("spectral series for the exit density did not converge")


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


# Forward table of F on 0 and a geometric ladder up to the upper bracket,
# built once at import; read-only. F(5e-3) ~ 4e-45, so the first cell holds
# every uniform below it.
_TABLE_T = np.concatenate([[0.0], np.geomspace(5e-3, _UPPER_BRACKET, 4095)])
_TABLE_F = unit_exit_cdf(_TABLE_T)
_TABLE_F[-1] = 1.0
_TABLE_T.flags.writeable = False
_TABLE_F.flags.writeable = False
# Start for u = 0; every u > 0 interpolates above it.
_T_FLOOR = np.finfo(float).tiny
_INVERT_BLOCK = 1 << 15  # draws per block, bounds the Newton temporaries
_MAX_PASSES = 64  # bisection alone needs under 30 inside one table cell


def _check_prob_tol(prob_tol: float) -> None:
    # Below the series' own truncation error no tolerance can be verified.
    if not SERIES_TERM_TOL < prob_tol < 1.0:
        raise ParameterError(f"prob_tol={prob_tol!r} must lie in ({SERIES_TERM_TOL!r}, 1)")


def invert_unit_cdf(u: np.ndarray, *, prob_tol: float = 1e-10) -> np.ndarray:
    """Solve unit_exit_cdf(t) = u elementwise, t > 0.

    Each draw starts from linear interpolation in the forward table and takes
    Newton steps on the exit density; a step that leaves the current bracket
    is replaced by its midpoint, and every evaluation shrinks the bracket. A
    draw is done when its evaluated |unit_exit_cdf(t) - u| <= prob_tol, so
    every returned draw carries distribution-function error at most
    prob_tol; NumericError if one misses it within _MAX_PASSES evaluations.
    Draws are solved in blocks of _INVERT_BLOCK to bound the temporaries.
    """
    _check_prob_tol(prob_tol)
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    out = np.empty(flat.shape)
    for start in range(0, flat.size, _INVERT_BLOCK):
        stop = start + _INVERT_BLOCK
        out[start:stop] = _invert_block(flat[start:stop], prob_tol)
    return out.reshape(u.shape)


def _invert_block(u: np.ndarray, prob_tol: float) -> np.ndarray:
    hi_idx = np.clip(np.searchsorted(_TABLE_F, u, side="right"), 1, _TABLE_F.size - 1)
    lo, hi = _TABLE_T[hi_idx - 1], _TABLE_T[hi_idx]
    flo, fhi = _TABLE_F[hi_idx - 1], _TABLE_F[hi_idx]
    frac = np.divide(u - flo, fhi - flo, out=np.full(u.shape, 0.5), where=fhi > flo)
    t = lo + frac * (hi - lo)
    t = np.maximum(t, _T_FLOOR)  # u = 0 interpolates to t = 0
    out = np.empty(u.shape)
    active = np.arange(u.size)
    for _ in range(_MAX_PASSES):
        ft = unit_exit_cdf(t)
        done = np.abs(ft - u) <= prob_tol
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


def sample_first_exit(
    a: float,
    rng: np.random.Generator,
    size: int | None = None,
    *,
    prob_tol: float = 1e-10,
):
    """Exact draws (tau, sign) of the first exit of BM from [-a, a].

    tau = a**2 * tau_1 by Brownian scaling; the exit side is an independent
    fair sign because the interval is symmetric.
    """
    if not a > 0:
        raise ParameterError(f"interval half-width must be positive, got {a!r}")
    _check_prob_tol(prob_tol)
    m = 1 if size is None else int(size)
    tau = (a * a) * invert_unit_cdf(rng.random(m), prob_tol=prob_tol)
    sign = rng.integers(0, 2, m) * 2 - 1
    if size is None:
        return float(tau[0]), int(sign[0])
    return tau, sign


def grid_exit(a: float, h: float, rng: np.random.Generator) -> tuple[float, int]:
    """Walk N(0, h) increments until |walk| >= a; return (exit_time, sign).

    Requires h <= a**2 / 100 so the walk resolves the interval. The walk is
    drawn in blocks and only its last value is kept; BudgetError if a block
    would exceed errors.ALLOC_BUDGET_BYTES.
    """
    if not a > 0:
        raise ParameterError(f"interval half-width must be positive, got {a!r}")
    if not 0 < h <= a * a / 100.0:
        raise ParameterError(f"grid step h={h!r} must lie in (0, a^2/100]")
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
    of the array length.
    """
    base = values[start]
    i = start + 1
    n = len(values)
    while i < n:
        j = min(i + chunk, n)
        hits = np.abs(values[i:j] - base) >= level
        k = int(np.argmax(hits))
        if hits[k]:
            return i + k
        i = j
    return -1
