"""Monte Carlo harnesses: rate measurement, trend traces, and fit checks.

The rate harness drives grid-engine couplings across a ladder of scales n.
Each replication returns one record, the floats named by RECORD: the sup
distance J, its four-term split and three diagnostics. Each rung gathers
its records into one column per name, in rep order, and the harnesses read
those columns: rate reduces them to a RateRow per rung (mean, median, 0.9
quantile and exceedance of J, mean of each term) and to the worst
diagnostics over the campaign, and trace keeps the sup column. rate fits
log median J against the deviation scale n**(-k/4) * log(n)**1.5 over the
rungs past the scale's peak n = e**(6/k), where it falls; with fewer than
two such rungs the fit is NaN. Exceedance thresholds use alpha times that
scale, with alpha either supplied or calibrated so the smallest scale sits
at 0.5 exceedance. Replications draw from streams derived as (master_seed,
role, n, rep), so results do not depend on worker count or scheduling.

The goodness-of-fit checks test the transport path the coupling builds:
terminal_samples and covariance_check evaluate transport paths drawn one
after another from one set of child streams (coupling.transport_paths).
They import scipy.special inside themselves, so a rate or trace campaign
never loads scipy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from .coupling import build_coupled_realization, decompose_sup, transport_paths
from .errors import BudgetError, InputError
from .laws import JumpLaw
from .streams import ROLE_RATE, ROLE_TRACE, derived_rng
from .transport import ScalingSchedule, scaling_constants


def rate_scale(n: int, k: float) -> float:
    """Deviation scale n**(-k/4) * log(n)**1.5 (natural log)."""
    if n < 2:
        raise InputError("rate scale needs n >= 2")
    return float(n) ** (-float(k) / 4.0) * math.log(n) ** 1.5


def _check_ladder(law: JumpLaw, k: float, n_grid) -> tuple[int, ...]:
    """The ladder as ints, once every rung's schedule is known to be valid,
    so a bad scale fails before the first build."""
    grid = tuple(scaling_constants(law, k, n).n for n in n_grid)
    if not grid:
        raise InputError("n_grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InputError("n_grid must be strictly increasing")
    return grid


def _check_int(value, name: str, least: int) -> int:
    """value as an int, once it is known to be an integer (numpy's too, not a
    bool) no smaller than least."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)) or value < least:
        rule = {0: "non-negative", 1: "positive"}.get(least, f"at least {least}")
        raise InputError(f"{name} must be {rule} and an integer, got {value!r}")
    return int(value)


def _check_real(value, name: str) -> float:
    """value as a float, once it is known to be a finite positive real
    (numpy's too, not a bool)."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise InputError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


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

    def __post_init__(self):
        grid = _check_ladder(self.law, self.k, self.n_grid)
        object.__setattr__(self, "n_grid", grid)
        if grid[0] < 2:
            raise InputError("n_grid entries must be at least 2")
        object.__setattr__(self, "reps", _check_int(self.reps, "reps", 2))
        if self.alpha is not None:
            object.__setattr__(self, "alpha", _check_real(self.alpha, "alpha"))
        object.__setattr__(self, "master_seed", _check_int(self.master_seed, "master_seed", 0))


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


# Most segments slope_error probes per realization, evenly spaced.
SLOPE_SEGMENTS = 32


def slope_error(real) -> float:
    """Worst relative error of finite-difference slopes against +/-1/normalizer.

    Only segments at least one mean step wide are probed (at most
    SLOPE_SEGMENTS of them): on narrower ones the finite difference loses
    more precision than the slope contract allows, without saying anything
    new about the path.
    """
    d = real.durations
    wide = np.flatnonzero(d >= real.schedule.mean_step)
    if wide.size == 0:
        wide = np.asarray([int(np.argmax(d))])
    if wide.size > SLOPE_SEGMENTS:
        wide = wide[np.linspace(0, wide.size - 1, SLOPE_SEGMENTS).astype(int)]
    t0 = real.path_times[wide]
    lo = t0 + 0.25 * d[wide]
    hi = t0 + 0.75 * d[wide]
    fd = (real.value_at(hi) - real.value_at(lo)) / (hi - lo)
    want = real.signs[wide] / real.schedule.normalizer
    return float(np.abs(fd / want - 1.0).max())


# One replication's record: _replicate returns these values in this order.
RECORD = ("sup", "j1", "j2", "j3", "j4", "bound_gap", "skeleton_err", "slope_err")


def _replicate(args) -> tuple[float, ...]:
    law, k, n, rep, master_seed, role = args
    rng = derived_rng(master_seed, role, n, rep)
    real = build_coupled_realization(law, scaling_constants(law, k, n), rng, engine="grid")
    dec = decompose_sup(real)
    return (dec.sup, dec.j1, dec.j2, dec.j3, dec.j4, dec.bound_gap,
            skeleton_identity_error(real), slope_error(real))


def _ladder(law, k, n_grid, reps, master_seed, role, workers):
    """Yield (n, columns) rung by rung, columns mapping each RECORD name to
    its values in rep order as one contiguous array, so a column's mean is
    numpy's pairwise sum at any worker count; one pool serves the ladder."""

    def jobs(n):
        return [(law, k, n, rep, master_seed, role) for rep in range(reps)]

    def columns(records):
        return {name: np.array(values) for name, values in zip(RECORD, zip(*records))}

    if workers <= 1:
        for n in n_grid:
            yield n, columns(map(_replicate, jobs(n)))
        return
    with Pool(workers) as pool:
        for n in n_grid:
            yield n, columns(pool.imap(_replicate, jobs(n), chunksize=1))


def run_rate_experiment(cfg: RateExperimentConfig, workers: int = 1) -> RateResult:
    """Run the campaign; when the allocation budget or memory runs out, keep
    the finished scales and flag the result incomplete.

    Per-replication streams are derived from (master_seed, ROLE_RATE, n,
    rep), and the reduction preserves replication order, so equal configs give
    identical results at any worker count.
    """
    workers = _check_int(workers, "workers", 1)
    rungs: list[tuple[int, dict]] = []
    stop = None
    try:
        for rung in _ladder(cfg.law, cfg.k, cfg.n_grid, cfg.reps, cfg.master_seed, ROLE_RATE, workers):
            rungs.append(rung)
    except (BudgetError, MemoryError) as exc:
        stop = exc
    if not rungs:
        raise BudgetError(
            f"allocation budget or memory exhausted before the smallest scale finished: {stop}"
        ) from stop

    first_n, first = rungs[0]
    if cfg.alpha is not None:
        alpha = float(cfg.alpha)
    else:
        alpha = float(np.median(first["sup"])) / rate_scale(first_n, cfg.k)
    rows = []
    for n, col in rungs:
        sups = col["sup"]
        rows.append(RateRow(
            n,
            float(sups.mean()),
            float(np.median(sups)),
            float(np.quantile(sups, 0.9)),
            float(np.mean(sups > alpha * rate_scale(n, cfg.k))),
            *(float(col[term].mean()) for term in ("j1", "j2", "j3", "j4")),
        ))
    worst = [max(float(col[name].max()) for _, col in rungs) for name in ("bound_gap", "skeleton_err", "slope_err")]

    past_peak = [row for row in rows if row.n > math.exp(6.0 / cfg.k)]
    if len(past_peak) >= 2:
        slope, intercept, r2 = fit_rate(
            [(rate_scale(row.n, cfg.k), row.median_j) for row in past_peak]
        )
    else:
        slope = intercept = r2 = float("nan")
    return RateResult(cfg, tuple(rows), alpha, slope, intercept, r2, stop is None, *worst)


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


def _ks_one_sample(samples, cdf, target: str) -> GofResult:
    """One-sample KS of samples against the law whose CDF maps sorted values
    to probabilities, with the asymptotic Kolmogorov p-value."""
    from scipy import special

    x = np.sort(np.asarray(samples, dtype=float))
    if x.size < 50:
        raise InputError("KS check needs at least 50 samples")
    cdf_values = cdf(x)
    i = np.arange(1, x.size + 1)
    d = max(float((i / x.size - cdf_values).max()), float((cdf_values - (i - 1) / x.size).max()))
    p = float(special.kolmogorov(math.sqrt(x.size) * d))
    return GofResult(statistic=d, p_value=p, sample_size=int(x.size), target=target)


def ks_normal(samples) -> GofResult:
    """One-sample KS against the standard normal, asymptotic p-value."""
    from scipy import special

    return _ks_one_sample(samples, special.ndtr, "standard normal")


def ks_uniform(samples, high: float) -> GofResult:
    """One-sample KS against the uniform law on (0, high)."""
    if not high > 0:
        raise InputError("uniform KS needs a positive upper endpoint")
    return _ks_one_sample(samples, lambda x: np.clip(x / high, 0.0, 1.0), f"uniform(0,{high!r})")


def ks_two_sample(a, b) -> GofResult:
    """Two-sample KS with the asymptotic p-value."""
    from scipy import special

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


def _path_values(law, schedule, times, reps, rng) -> np.ndarray:
    """Values at times of reps transport paths on [0, max(times)], drawn one
    after another from one set of child streams of rng: one row per path."""
    paths = transport_paths(law, schedule, max(times), rng)
    return np.array([next(paths).value_at(times) for _ in range(reps)])


def terminal_samples(law: JumpLaw, schedule: ScalingSchedule, reps: int, rng) -> np.ndarray:
    """reps independent draws of the transport path value at t = 1."""
    return _path_values(law, schedule, [1.0], _check_int(reps, "reps", 1), rng)[:, 0]


def covariance_check(law: JumpLaw, k: float, n: int, s: float, t: float, reps: int, rng) -> GofResult:
    """Empirical covariance of transport-path values at (s, t) against min(s, t).

    The estimator is the uncentered product moment (both coordinates are
    symmetric around 0 by the fair first sign); the p-value is a normal
    approximation from the sample variance of the products.
    """
    from scipy import special

    if not 0.0 <= s <= t <= 1.0:
        raise InputError("need 0 <= s <= t <= 1")
    reps = _check_int(reps, "reps", 100)
    values = _path_values(law, scaling_constants(law, k, n), [s, t], reps, rng)
    prods = values[:, 0] * values[:, 1]
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
    grid = _check_ladder(law, k, n_grid)
    reps = _check_int(reps, "reps", 1)
    rungs = _ladder(law, k, grid, reps, _check_int(master_seed, "master_seed", 0), ROLE_TRACE, 1)
    j = np.array([col["sup"] for _, col in rungs]).T
    monotone = np.all(np.diff(j, axis=1) < 0.0, axis=1)
    return TraceResult(
        n_grid=grid,
        j=j,
        frac_monotone=float(monotone.mean()),
        frac_final_below_first=float(np.mean(j[:, -1] < j[:, 0]) if len(grid) > 1 else 1.0),
    )
