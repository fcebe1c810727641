"""Monte Carlo harnesses: rate measurement, trend traces, and fit checks.

The rate harness drives grid-engine couplings across a ladder of scales n,
records the sup distance J and its four-term split per realization, and fits
log median J against the deviation scale n**(-k/4) * log(n)**1.5 over the
rungs past the scale's peak n = e**(6/k), where it falls; with fewer than two
such rungs the fit is NaN. Exceedance thresholds use alpha times that scale,
with alpha either supplied or calibrated so the smallest scale sits at 0.5
exceedance. The trace harness reuses the same replication driver and keeps
only each sup. Replications draw from streams derived as
(master_seed, role, n, rep), so results do not depend on worker count or
scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np
from scipy import special

from .coupling import (
    GRID_STEP_DIVISOR,
    build_coupled_realization,
    decompose_sup,
)
from .errors import BudgetError, InputError, RateConditionError
from .laws import JumpLaw
from .streams import ROLE_RATE, ROLE_TRACE, derived_rng
from .transport import build_transport_path, sample_renewal_path, scaling_constants


def rate_scale(n: int, k: float) -> float:
    """Deviation scale n**(-k/4) * log(n)**1.5 (natural log)."""
    if n < 2:
        raise InputError("rate scale needs n >= 2")
    return float(n) ** (-float(k) / 4.0) * math.log(n) ** 1.5


def _check_ladder(n_grid) -> tuple[int, ...]:
    grid = tuple(int(n) for n in n_grid)
    if not grid:
        raise InputError("n_grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InputError("n_grid must be strictly increasing")
    return grid


@dataclass(frozen=True)
class RateExperimentConfig:
    """Settings for one rate campaign.

    alpha=None calibrates the exceedance threshold at the smallest scale.
    """

    law: JumpLaw
    k: float
    n_grid: tuple[int, ...]
    reps: int
    master_seed: int
    alpha: float | None = None
    grid_step_divisor: int = GRID_STEP_DIVISOR

    def __post_init__(self):
        if not self.k > 1:
            raise RateConditionError("k must exceed 1")
        grid = _check_ladder(self.n_grid)
        object.__setattr__(self, "n_grid", grid)
        if grid[0] < 2:
            raise InputError("n_grid entries must be at least 2")
        if self.reps < 2:
            raise InputError("reps must be at least 2")
        if self.grid_step_divisor < 1:
            raise InputError("grid_step_divisor must be positive")
        if self.alpha is not None and not self.alpha > 0:
            raise InputError("alpha must be positive")


@dataclass(frozen=True)
class RateSample:
    """One grid-engine realization: sup distance, its split, diagnostics."""

    n: int
    rep: int
    sup: float
    j1: float
    j2: float
    j3: float
    j4: float
    bound_gap: float
    skeleton_err: float
    slope_err: float


@dataclass(frozen=True)
class RateRow:
    """Per-scale aggregates over the replications at one n."""

    n: int
    mean_j: float
    median_j: float
    q90_j: float
    exceedance: float
    mean_j1: float
    mean_j2: float
    mean_j3: float
    mean_j4: float


@dataclass(frozen=True)
class RateResult:
    """Campaign output: per-scale rows, the log-log fit over the rungs past
    n = e**(6/k) (NaN with fewer than two), and worst-case diagnostics
    (decomposition bound gap, skeleton identity error, slope error) across
    every realization."""

    config: RateExperimentConfig
    rows: tuple[RateRow, ...]
    alpha: float
    slope: float
    intercept: float
    r_squared: float
    complete: bool
    max_bound_gap: float
    max_skeleton_err: float
    max_slope_err: float

    def threshold(self, n: int) -> float:
        """Exceedance threshold alpha * rate_scale(n)."""
        return self.alpha * rate_scale(n, self.config.k)


def skeleton_identity_error(real) -> float:
    """Worst gap between the interpolated path and its skeleton knots.

    Measured per knot relative to the knot magnitude, floored at 1 so
    near-zero knots are judged on absolute error.
    """
    vals = real.value_at(real.path_times)
    denom = np.maximum(np.abs(real.skeleton), 1.0)
    return float((np.abs(vals - real.skeleton) / denom).max())


def slope_error(real, max_segments: int = 32) -> float:
    """Worst relative error of finite-difference slopes against +/-1/normalizer.

    Only segments at least one mean step wide are probed: on narrower ones
    the finite difference loses more precision than the slope contract
    allows, without saying anything new about the path.
    """
    d = real.durations
    wide = np.flatnonzero(d >= real.schedule.mean_step)
    if wide.size == 0:
        wide = np.asarray([int(np.argmax(d))])
    if wide.size > max_segments:
        wide = wide[np.linspace(0, wide.size - 1, max_segments).astype(int)]
    t0 = real.path_times[wide]
    lo = t0 + 0.25 * d[wide]
    hi = t0 + 0.75 * d[wide]
    fd = (real.value_at(hi) - real.value_at(lo)) / (hi - lo)
    want = real.signs[wide] / real.schedule.normalizer
    return float(np.abs(fd / want - 1.0).max())


def _replicate(args) -> RateSample:
    law, k, n, rep, master_seed, role, divisor = args
    rng = derived_rng(master_seed, role, n, rep)
    sched = scaling_constants(law, k, n)
    real = build_coupled_realization(
        law, sched, rng, engine="grid", grid_step=sched.mean_step / divisor
    )
    dec = decompose_sup(real)
    return RateSample(
        n=n,
        rep=rep,
        sup=dec.sup,
        j1=dec.j1,
        j2=dec.j2,
        j3=dec.j3,
        j4=dec.j4,
        bound_gap=dec.bound_gap,
        skeleton_err=skeleton_identity_error(real),
        slope_err=slope_error(real),
    )


def _ladder(law, k, n_grid, reps, master_seed, role, divisor, workers):
    """Yield (n, samples in rep order) rung by rung; one pool serves the ladder."""

    def jobs(n):
        return [(law, k, n, rep, master_seed, role, divisor) for rep in range(reps)]

    if workers <= 1:
        for n in n_grid:
            yield n, [_replicate(a) for a in jobs(n)]
        return
    with Pool(workers) as pool:
        for n in n_grid:
            yield n, list(pool.imap(_replicate, jobs(n), chunksize=1))


def run_rate_experiment(cfg: RateExperimentConfig, workers: int = 1) -> RateResult:
    """Run the campaign; when the allocation budget or memory runs out, keep
    the finished scales and flag the result incomplete.

    Per-replication streams are derived from (master_seed, ROLE_RATE, n,
    rep), and the reduction preserves replication order, so equal configs give
    identical results at any worker count.
    """
    per_n: list[tuple[int, list[RateSample]]] = []
    stop = None
    rungs = _ladder(cfg.law, cfg.k, cfg.n_grid, cfg.reps, cfg.master_seed, ROLE_RATE,
                    cfg.grid_step_divisor, workers)
    try:
        for rung in rungs:
            per_n.append(rung)
    except (BudgetError, MemoryError) as exc:
        stop = exc
    if not per_n:
        raise BudgetError(
            f"allocation budget or memory exhausted before the smallest scale finished: {stop}"
        ) from stop
    complete = stop is None

    first_n, first_samples = per_n[0]
    if cfg.alpha is not None:
        alpha = float(cfg.alpha)
    else:
        alpha = float(np.median([s.sup for s in first_samples])) / rate_scale(first_n, cfg.k)

    rows = []
    gaps, skel_errs, slope_errs = [], [], []
    for n, samples in per_n:
        sups = np.asarray([s.sup for s in samples])
        thr = alpha * rate_scale(n, cfg.k)
        rows.append(
            RateRow(
                n=n,
                mean_j=float(sups.mean()),
                median_j=float(np.median(sups)),
                q90_j=float(np.quantile(sups, 0.9)),
                exceedance=float(np.mean(sups > thr)),
                mean_j1=float(np.mean([s.j1 for s in samples])),
                mean_j2=float(np.mean([s.j2 for s in samples])),
                mean_j3=float(np.mean([s.j3 for s in samples])),
                mean_j4=float(np.mean([s.j4 for s in samples])),
            )
        )
        gaps.append(max(s.bound_gap for s in samples))
        skel_errs.append(max(s.skeleton_err for s in samples))
        slope_errs.append(max(s.slope_err for s in samples))

    past_peak = [row for row in rows if row.n > math.exp(6.0 / cfg.k)]
    if len(past_peak) >= 2:
        slope, intercept, r2 = fit_rate(
            [(rate_scale(row.n, cfg.k), row.median_j) for row in past_peak]
        )
    else:
        slope = intercept = r2 = float("nan")
    return RateResult(
        config=cfg,
        rows=tuple(rows),
        alpha=alpha,
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        complete=complete,
        max_bound_gap=max(gaps),
        max_skeleton_err=max(skel_errs),
        max_slope_err=max(slope_errs),
    )


def fit_rate(points) -> tuple[float, float, float]:
    """Ordinary least squares on (log abscissa, log ordinate).

    Returns (slope, intercept, r_squared); a zero-variance ordinate fitted
    exactly counts as r_squared 1.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise InputError("log-log fit needs at least 2 points")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise InputError("log-log fit needs positive coordinates")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(resid @ resid)
    centered = ly - ly.mean()
    ss_tot = float(centered @ centered)
    if ss_tot > 0.0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res <= 1e-20 else 0.0
    return float(slope), float(intercept), float(r2)


@dataclass(frozen=True)
class GofResult:
    """Outcome of one goodness-of-fit check.

    For the Kolmogorov-Smirnov targets the statistic is the KS distance; for
    the covariance target it is the covariance estimate itself.
    """

    statistic: float
    p_value: float
    sample_size: int
    target: str


def _ks_distance(sorted_x: np.ndarray, cdf_values: np.ndarray) -> float:
    n = len(sorted_x)
    i = np.arange(1, n + 1)
    d_plus = float((i / n - cdf_values).max())
    d_minus = float((cdf_values - (i - 1) / n).max())
    return max(d_plus, d_minus)


def ks_normal(samples) -> GofResult:
    """One-sample KS against the standard normal, asymptotic p-value."""
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size < 50:
        raise InputError("KS check needs at least 50 samples")
    d = _ks_distance(x, special.ndtr(x))
    p = float(special.kolmogorov(math.sqrt(x.size) * d))
    return GofResult(statistic=d, p_value=p, sample_size=int(x.size), target="standard normal")


def ks_uniform(samples, high: float) -> GofResult:
    """One-sample KS against the uniform law on (0, high)."""
    if not high > 0:
        raise InputError("uniform KS needs a positive upper endpoint")
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size < 50:
        raise InputError("KS check needs at least 50 samples")
    d = _ks_distance(x, np.clip(x / high, 0.0, 1.0))
    p = float(special.kolmogorov(math.sqrt(x.size) * d))
    return GofResult(
        statistic=d, p_value=p, sample_size=int(x.size), target=f"uniform(0,{high!r})"
    )


def ks_two_sample(a, b) -> GofResult:
    """Two-sample KS with the asymptotic p-value."""
    xa = np.sort(np.asarray(a, dtype=float))
    xb = np.sort(np.asarray(b, dtype=float))
    if xa.size < 50 or xb.size < 50:
        raise InputError("KS check needs at least 50 samples per side")
    both = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, both, side="right") / xa.size
    fb = np.searchsorted(xb, both, side="right") / xb.size
    d = float(np.abs(fa - fb).max())
    en = math.sqrt(xa.size * xb.size / (xa.size + xb.size))
    p = float(special.kolmogorov(en * d))
    return GofResult(statistic=d, p_value=p, sample_size=int(xa.size + xb.size), target="two-sample")


def covariance_check(law: JumpLaw, k: float, n: int, s: float, t: float, reps: int, rng) -> GofResult:
    """Empirical covariance of direct-path values at (s, t) against min(s, t).

    The estimator is the uncentered product moment (both coordinates are
    symmetric around 0 by the fair initial sign); the p-value is a normal
    approximation from the sample variance of the products.
    """
    if not 0.0 <= s <= t <= 1.0:
        raise InputError("need 0 <= s <= t <= 1")
    if reps < 100:
        raise InputError("covariance check needs reps >= 100")
    sched = scaling_constants(law, k, n)
    prods = np.empty(reps)
    for i in range(reps):
        tp = build_transport_path(sample_renewal_path(law, sched, 1.0, rng), sched)
        prods[i] = tp.value_at(s) * tp.value_at(t)
    estimate = float(prods.mean())
    spread = float(prods.std(ddof=1)) / math.sqrt(reps)
    if spread == 0.0:
        p = 1.0 if estimate == s else 0.0
    else:
        p = float(2.0 * special.ndtr(-abs(estimate - s) / spread))
    return GofResult(
        statistic=estimate, p_value=p, sample_size=int(reps), target=f"covariance min({s!r},{t!r})"
    )


@dataclass(frozen=True, eq=False)
class TraceResult:
    """Sup distances per replication across a ladder of scales.

    j has shape (reps, len(n_grid)); frac_monotone is the fraction of rows
    that strictly decrease, frac_final_below_first the fraction whose last
    entry is below their first.
    """

    n_grid: tuple[int, ...]
    j: np.ndarray
    frac_monotone: float
    frac_final_below_first: float


def as_trace(law: JumpLaw, k: float, n_grid, reps: int, master_seed: int) -> TraceResult:
    """Replicated convergence traces: per rep, grid-mode sup distance at each n.

    Each (rep, n) pair uses its own coupling and its own derived stream, so
    traces test the trend across scales, not pathwise monotonicity of a
    single construction. Replications run serially through the rate
    campaign's driver, so the decomposition bound is checked here too.
    """
    grid = _check_ladder(n_grid)
    if reps < 1:
        raise InputError("reps must be positive")
    rungs = _ladder(law, k, grid, reps, master_seed, ROLE_TRACE, GRID_STEP_DIVISOR, 1)
    j = np.array([[s.sup for s in samples] for _, samples in rungs]).T
    monotone = np.all(np.diff(j, axis=1) < 0.0, axis=1)
    return TraceResult(
        n_grid=grid,
        j=j,
        frac_monotone=float(monotone.mean()),
        frac_final_below_first=float(np.mean(j[:, -1] < j[:, 0]) if len(grid) > 1 else 1.0),
    )
