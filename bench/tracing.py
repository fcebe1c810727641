"""In-memory spans and counters around the calls into renewalbm's modules.

A Tracer replaces module attributes with timing wrappers for the duration of
a `with` block. Each name is wrapped where the calling module looks it up
(`renewalbm.coupling.first_crossing` is the name `_build_grid` calls, not
`renewalbm.exit_times.first_crossing`), so the program itself is unchanged.

A span is (name, start, end, parent). A span's self time is its duration
minus the durations of its children; everything runs in one thread, so
children never overlap. Spans marked `peak` also record the tracemalloc peak
inside the call: tracemalloc runs only while such a span is open.
"""

from __future__ import annotations

import functools
import json
import math
import os
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

import renewalbm.cli
import renewalbm.coupling
import renewalbm.csvio
import renewalbm.exit_times
import renewalbm.experiments

MB = 1e6


def _size(x) -> int:
    return 1 if x is None else int(getattr(x, "size", x))


class Tracer:
    """Spans and counters of one traced round, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.peak_mb: dict[int, float] = {}
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._peak_frames: list[list] = []  # [span, base bytes, highest bytes seen]
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------

    def open(self, name: str, peak: bool = False) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(idx)
        if peak:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            current, highest = tracemalloc.get_traced_memory()
            if self._peak_frames:
                outer = self._peak_frames[-1]
                outer[2] = max(outer[2], highest)
            tracemalloc.reset_peak()
            self._peak_frames.append([idx, current, current])
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()
        if self._peak_frames and self._peak_frames[-1][0] == idx:
            _, base, seen = self._peak_frames.pop()
            seen = max(seen, tracemalloc.get_traced_memory()[1])
            self.peak_mb[idx] = (seen - base) / MB
            if self._peak_frames:
                outer = self._peak_frames[-1]
                outer[2] = max(outer[2], seen)
            else:
                tracemalloc.stop()

    def wrap(self, fn, name, *, peak=False, after=None):
        """fn timed as a span; name is a string or a function of (args, kwargs).

        after(args, kwargs, result) runs once the span is closed, so counting
        work is not charged to the wrapped call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name if isinstance(name, str) else name(args, kwargs), peak)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- patching ------------------------------------------------------

    def patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)
        return False

    # -- results -------------------------------------------------------

    def totals(self) -> tuple[dict, dict, Counter]:
        """Summed duration, summed self time and span count per name."""
        child = defaultdict(float)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        dur, self_s, count = defaultdict(float), defaultdict(float), Counter()
        for i, name in enumerate(self.names):
            d = self.ends[i] - self.starts[i]
            dur[name] += d
            self_s[name] += d - child[i]
            count[name] += 1
        return dur, self_s, count

    def max_peak(self, name: str) -> float:
        return max((mb for i, mb in self.peak_mb.items() if self.names[i] == name), default=0.0)

    def dump(self, path) -> None:
        """Write spans and counters as JSON; times are seconds from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            [self.names[i], round(self.starts[i] - t0, 9), round(self.ends[i] - t0, 9), self.parents[i]]
            for i in range(len(self.names))
        ]
        peaks = {str(i): mb for i, mb in self.peak_mb.items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "peak_mb": peaks, "counters": dict(self.counters)}, fh)


def install_layers(tracer: Tracer) -> None:
    """Wrap every traced name of the program's modules."""
    cli, coupling, csvio = renewalbm.cli, renewalbm.coupling, renewalbm.csvio
    exit_times, experiments = renewalbm.exit_times, renewalbm.experiments
    count = tracer.counters

    def after_crossing(args, kwargs, j):
        count["first_crossing.misses"] += j < 0

    def after_invert(args, kwargs, result):
        count["invert_unit_cdf.draws"] += _size(args[0])

    def after_cdf(args, kwargs, result):
        count["unit_exit_cdf.evals"] += _size(args[0])

    def after_jumps(args, kwargs, result):
        count["laws.draws"] += _size(args[2] if len(args) > 2 else kwargs.get("size"))

    def build_name(args, kwargs):
        return "coupling.build_" + kwargs.get("engine", "grid")

    def after_build(args, kwargs, real):
        count["coupling.embedding_steps"] += real.n_steps
        if real.grid is None:
            return
        count["coupling.grid_realizations"] += 1
        count["coupling.walk_points"] += len(real.grid.values)
        count["coupling.walk_used"] += last_grid_index_read(real) + 1

    def after_write(args, kwargs, result):
        count["csvio.bytes"] += os.path.getsize(args[0])

    # No tracemalloc around builds: it slows the grid engine's per-step loop
    # about 2.5x. Their peak is taken apart, on the checks' rebuilds.
    build = tracer.wrap(coupling.build_coupled_realization, build_name, after=after_build)
    derived = tracer.wrap(cli.derived_rng, "streams.derived_rng")
    sup = tracer.wrap(coupling.sup_distance, "coupling.sup_distance", peak=True)
    patches = [
        (cli, "build_coupled_realization", build),
        (experiments, "build_coupled_realization", build),
        (cli, "derived_rng", derived),
        (experiments, "derived_rng", derived),
        (cli, "sup_distance", sup),
        (coupling, "sup_distance", sup),
        (cli, "run_rate_experiment",
         tracer.wrap(cli.run_rate_experiment, "experiments.run_rate_experiment")),
        (cli, "embedding_diagnostics",
         tracer.wrap(cli.embedding_diagnostics, "coupling.embedding_diagnostics")),
        (experiments, "decompose_sup",
         tracer.wrap(experiments.decompose_sup, "coupling.decompose_sup", peak=True)),
        (experiments, "skeleton_identity_error",
         tracer.wrap(experiments.skeleton_identity_error, "experiments.skeleton_identity_error")),
        (experiments, "slope_error", tracer.wrap(experiments.slope_error, "experiments.slope_error")),
        (coupling, "first_crossing",
         tracer.wrap(coupling.first_crossing, "exit_times.first_crossing", after=after_crossing)),
        (coupling, "invert_unit_cdf",
         tracer.wrap(coupling.invert_unit_cdf, "exit_times.invert_unit_cdf", after=after_invert)),
        (exit_times, "unit_exit_cdf",
         tracer.wrap(exit_times.unit_exit_cdf, "exit_times.unit_exit_cdf", after=after_cdf)),
        (coupling, "sample_jumps", tracer.wrap(coupling.sample_jumps, "laws.sample_jumps", after=after_jumps)),
    ]
    for name in ("write_realization_csv", "write_rate_csv", "write_summary"):
        patches.append((csvio, name, tracer.wrap(getattr(csvio, name), "csvio." + name, after=after_write)))
    for module, attr, replacement in patches:
        tracer.patch(module, attr, replacement)


class _TimedPoolExit:
    """Context manager over a real pool that times its exit (terminate and join)."""

    def __init__(self, pool, tracer):
        self._pool = pool
        self._tracer = tracer

    def __enter__(self):
        return self._pool.__enter__()

    def __exit__(self, *exc):
        idx = self._tracer.open("experiments.pool")
        try:
            return self._pool.__exit__(*exc)
        finally:
            self._tracer.close(idx)


def install_pool(tracer: Tracer) -> None:
    """Time creating and joining the campaign's worker pools."""
    experiments = renewalbm.experiments
    real_pool = experiments.Pool

    def timed_pool(*args, **kwargs):
        idx = tracer.open("experiments.pool")
        try:
            pool = real_pool(*args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.counters["pool.starts"] += 1
        return _TimedPoolExit(pool, tracer)

    tracer.patch(experiments, "Pool", timed_pool)


def call_peak_mb(fn):
    """fn() and the tracemalloc peak of the memory it allocated, in MB."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / MB


def last_grid_index_read(real) -> int:
    """Largest walk index that sup_distance or decompose_sup reads.

    sup_distance reads every grid time up to 1; decompose_sup reads the
    Brownian clock, the lattice and the transport clock up to segment
    M + 1, with M = max(floor(1 / mean_step), first_cover).
    """
    h = real.grid.step
    horizon = int(1.0 / h)
    while horizon * h > 1.0:
        horizon -= 1
    sched = real.schedule
    m_dec = max(int(1.0 / sched.mean_step), real.first_cover)
    last = max(
        horizon,
        int(real.bm_index[m_dec]),
        int(real.path_times[m_dec + 1] / h),
        int(m_dec * sched.mean_step / h),
    )
    return min(last, len(real.grid.values) - 1)


LAYERS = ("laws", "streams", "exit_times", "coupling", "experiments", "csvio", "cli")


def layer_metrics(traced: list[Tracer], pooled: list[Tracer], build_peak_mb: float, overhead_pct: float) -> dict:
    """Per-layer metrics, per round: times and counts averaged over the traced
    rounds, ratios taken over their totals, peaks the largest seen."""
    rounds = len(traced)
    dur, self_s, calls, count = defaultdict(float), defaultdict(float), Counter(), Counter()
    for tracer in traced:
        d, s, c = tracer.totals()
        for name in d:
            dur[name] += d[name]
            self_s[name] += s[name]
            calls[name] += c[name]
        count.update(tracer.counters)
    pool_s, pool_starts = 0.0, 0
    for tracer in pooled:
        pool_s += tracer.totals()[0]["experiments.pool"]
        pool_starts += tracer.counters["pool.starts"]

    def per_round(x):
        return x / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    def peak(name):
        return max(t.max_peak(name) for t in traced)

    csv_names = ("csvio.write_realization_csv", "csvio.write_rate_csv", "csvio.write_summary")
    csv_s = sum(dur[n] for n in csv_names)
    m = {
        "exit_times.invert_unit_cdf.s": (per_round(dur["exit_times.invert_unit_cdf"]), "s"),
        "exit_times.invert_unit_cdf.self_s": (per_round(self_s["exit_times.invert_unit_cdf"]), "s"),
        "exit_times.unit_exit_cdf.s": (per_round(dur["exit_times.unit_exit_cdf"]), "s"),
        "exit_times.unit_exit_cdf.evals_per_draw": (
            ratio(count["unit_exit_cdf.evals"], count["invert_unit_cdf.draws"]), "ratio"),
        "exit_times.first_crossing.calls": (per_round(calls["exit_times.first_crossing"]), "count"),
        "exit_times.first_crossing.s": (per_round(dur["exit_times.first_crossing"]), "s"),
        "exit_times.first_crossing.miss_ratio": (
            ratio(count["first_crossing.misses"], calls["exit_times.first_crossing"]), "ratio"),
        "laws.sample_jumps.s": (per_round(dur["laws.sample_jumps"]), "s"),
        "laws.draws": (per_round(count["laws.draws"]), "count"),
        "streams.derived_rng.calls": (per_round(calls["streams.derived_rng"]), "count"),
        "coupling.build_grid.s": (per_round(dur["coupling.build_grid"]), "s"),
        "coupling.build_grid.self_s": (per_round(self_s["coupling.build_grid"]), "s"),
        "coupling.build_grid.peak_mb": (build_peak_mb, "MB"),
        "coupling.sup_distance.peak_mb": (peak("coupling.sup_distance"), "MB"),
        "coupling.decompose_sup.peak_mb": (peak("coupling.decompose_sup"), "MB"),
        "coupling.walk_points": (
            ratio(count["coupling.walk_points"], count["coupling.grid_realizations"]), "count"),
        "coupling.walk_used_ratio": (
            ratio(count["coupling.walk_used"], count["coupling.walk_points"]), "ratio"),
        "coupling.embedding_steps": (per_round(count["coupling.embedding_steps"]), "count"),
        "coupling.sup_distance.s": (per_round(dur["coupling.sup_distance"]), "s"),
        "coupling.decompose_sup.self_s": (per_round(self_s["coupling.decompose_sup"]), "s"),
        "coupling.build_exact.s": (per_round(dur["coupling.build_exact"]), "s"),
        "coupling.build_exact.self_s": (per_round(self_s["coupling.build_exact"]), "s"),
        "coupling.embedding_diagnostics.s": (per_round(dur["coupling.embedding_diagnostics"]), "s"),
        "experiments.run_rate_experiment.self_s": (
            per_round(self_s["experiments.run_rate_experiment"]), "s"),
        "experiments.diagnostics.s": (
            per_round(dur["experiments.skeleton_identity_error"] + dur["experiments.slope_error"]), "s"),
        "experiments.pool.starts": (pool_starts / len(pooled) if pooled else 0.0, "count"),
        "experiments.pool.s": (pool_s / len(pooled) if pooled else 0.0, "s"),
        "csvio.write_realization_csv.s": (per_round(dur["csvio.write_realization_csv"]), "s"),
        "csvio.bytes": (per_round(count["csvio.bytes"]), "count"),
        "csvio.mb_per_s": (ratio(count["csvio.bytes"] / MB, csv_s), "MB/s"),
        "csvio.write_rate_csv.s": (per_round(dur["csvio.write_rate_csv"]), "s"),
        "csvio.write_summary.s": (per_round(dur["csvio.write_summary"]), "s"),
        "cli.main.self_s": (per_round(self_s["cli.main"]), "s"),
    }
    for layer in LAYERS:
        if layer != "cli":  # cli has one span, cli.main, whose self time is above
            layer_self = sum(s for name, s in self_s.items() if name.split(".", 1)[0] == layer)
            m[f"{layer}.self_s"] = (per_round(layer_self), "s")
    m["tracing.overhead_pct"] = (overhead_pct, "%")
    return m
