"""One workload in one fresh process: timed rounds of CLI calls, then checks.

    python3 bench/workload.py --workload grid-ladder --seed 1 --seconds 40 --trace 0

Called by run.py, which adds the set-up time; prints one JSON object as its
last line. A round is the workload's fixed list of `renewalbm` commands,
called through `renewalbm.cli.main`; every round of a run has the same
inputs, so every round must write the same bytes. Rounds repeat until the
measured time is as close to --seconds as whole rounds allow, at least one.

With --trace 1, a unit is an untraced round and a traced round of the same
configuration; their wall-time gap is the tracing overhead. The traced
grid-ladder runs with one worker, so its spans stay in this process, and
one more round with the campaign's two workers times the pool start-ups.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))

import renewalbm.cli  # noqa: E402
from renewalbm.coupling import build_coupled_realization, sup_distance  # noqa: E402
from renewalbm.laws import uniform01  # noqa: E402
from renewalbm.streams import ROLE_RATE, derived_rng  # noqa: E402
from renewalbm.transport import scaling_constants  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

K = 2.0


@dataclass(frozen=True)
class Workload:
    """command: "rate" or "couple". For rate, one call over n_grid with reps
    replications per rung; for couple, one exact call at n_grid[0]."""

    command: str
    n_grid: tuple[int, ...]
    reps: int = 0
    workers: int = 1
    sample_reps: tuple[int, ...] = ()

    def calls(self, seed: int, workers: int) -> list[list[str]]:
        """argv of each call in a round; the out directory is appended later."""
        if self.command == "rate":
            return [[
                "rate", "--law", "uniform01", "--k", str(K),
                "--n-grid", ",".join(map(str, self.n_grid)), "--reps", str(self.reps),
                "--seed", str(seed), "--workers", str(workers),
            ]]
        return [[
            "couple", "--engine", "exact", "--law", "uniform01", "--k", str(K),
            "--n", str(self.n_grid[0]), "--seed", str(seed),
        ]]

    @property
    def realizations_per_call(self) -> int:
        return len(self.n_grid) * self.reps if self.command == "rate" else 1


WORKLOADS = {
    # Release-gate traffic at small walks: per-call and per-step costs, one
    # pool per rung. 100 reps keep 'medians strictly decreasing' a sure check.
    "grid-ladder": Workload("rate", (8, 16, 32), reps=100, workers=2, sample_reps=(0, 50, 99)),
    # 36 M-point walks, far beyond cache: full-array passes and their temporaries.
    "grid-large": Workload("rate", (128,), reps=2, workers=1, sample_reps=(0,)),
    # Exact inversion and CSV writing; no grid at all.
    "exact-couple": Workload("couple", (512,)),
}


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib * 1024 / 1e6


def _digest(directory: Path) -> dict[str, str]:
    out = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(directory))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


class Runner:
    """Runs rounds of one workload and keeps what the checks need."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest: dict[str, str] | None = None
        self.printed: list[str] = []
        self.build_peak_mb = 0.0

    def round(self, workers: int, main=None) -> tuple[float, float, int]:
        """Wall seconds, CPU seconds and realizations completed of one round."""
        main = main or renewalbm.cli.main
        calls = self.wl.calls(self.seed, workers)
        out_dirs = []
        for i in range(len(calls)):
            d = self.work / f"call{i}"
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir()
            out_dirs.append(d)
        done = 0
        printed = []
        cpu0, t0 = _cpu_s(), time.perf_counter()
        for argv, d in zip(calls, out_dirs):
            n_real = self.wl.realizations_per_call
            self.attempted += n_real
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = main(argv + ["--out", str(d)])
            except Exception:  # a raising call fails its realizations; the run goes on
                traceback.print_exc()
                code = -1
            printed.append(buf.getvalue().strip())
            if code == 0:
                done += n_real
            else:
                self.failed += n_real
                print(f"{self.name}: {argv} exited {code}", file=sys.stderr)
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        self._compare(_digest(self.work))
        self.printed = printed
        return wall, cpu, done

    def _compare(self, digest: dict[str, str]) -> None:
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self.failures.append("same-seed rounds wrote different bytes")

    # -- checks, outside the timed section ---------------------------------

    def check(self, measure_build_peak: bool = False) -> None:
        """Run every check; with measure_build_peak, the grid rebuilds also set
        build_peak_mb, the largest tracemalloc peak of a build."""
        self.failures += self._ledger()
        if self.wl.command == "rate":
            self.failures += self._check_rate(measure_build_peak)
        else:
            self.failures += self._check_couple()

    def _ledger(self) -> list[str]:
        """Outputs of every run with this seed, at this program source, match."""
        src = hashlib.sha256()
        for path in sorted((ROOT / "src" / "renewalbm").glob("*.py")):
            src.update(path.read_bytes())
        key = f"{self.name}:{self.seed}:{src.hexdigest()[:16]}"
        ledger_path = OUT / "ledger.json"
        ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
        if key in ledger:
            return [] if ledger[key] == self.digest else ["outputs differ from an earlier run with this seed"]
        ledger[key] = self.digest
        tmp = ledger_path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        tmp.replace(ledger_path)
        return []

    def _check_rate(self, measure_build_peak: bool) -> list[str]:
        wl = self.wl
        summary_path = self.work / "call0" / "rate_summary.txt"
        if not summary_path.exists():
            return ["no rate_summary.txt"]
        bad = checks.check_rate_summary(
            checks.read_summary(summary_path), wl.n_grid, wl.reps, decreasing=len(wl.n_grid) > 1
        )
        law = uniform01()
        for n in wl.n_grid:
            sched = scaling_constants(law, K, n)
            for rep in wl.sample_reps:
                build = functools.partial(
                    build_coupled_realization,
                    law, sched, derived_rng(self.seed, ROLE_RATE, n, rep),
                    engine="grid", grid_step=sched.mean_step / checks.GRID_DIVISOR,
                )
                if measure_build_peak:
                    real, peak = tracing.call_peak_mb(build)
                    self.build_peak_mb = max(self.build_peak_mb, peak)
                else:
                    real = build()
                found = checks.check_grid_realization(real, sup_distance(real, "grid"), n, K)
                bad += [f"n={n} rep={rep}: {msg}" for msg in found]
                del real
        return bad

    def _check_couple(self) -> list[str]:
        items = checks.printed_items(self.printed[0])
        return checks.check_realization_file(
            self.work / "call0" / "realization.csv", self.wl.n_grid[0], K, self.seed,
            int(items.get("steps", -1)),
        )


def _keep_going(elapsed: float, last: float, seconds: float) -> bool:
    """Another unit of `last` seconds brings the total closer to `seconds`."""
    return elapsed + last / 2 < seconds


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    runner = Runner(name, seed, work)
    try:
        if trace:
            traced, pooled, overhead = _traced(runner, seconds)
            runner.check(measure_build_peak=True)
            metrics = tracing.layer_metrics(traced, pooled, runner.build_peak_mb, overhead)
            metrics = {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()}
        else:
            metrics = _untraced(runner, seconds)
            runner.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for msg in runner.failures:
        print(f"{name}: check failed: {msg}", file=sys.stderr)
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def _untraced(runner: Runner, seconds: float) -> dict:
    walls, cpus, rates = [], [], []
    while True:
        wall, cpu, done = runner.round(runner.wl.workers)
        walls.append(wall)
        cpus.append(cpu)
        rates.append(done / wall)
        if not _keep_going(sum(walls), wall, seconds):
            break
    print(f"{runner.name}: {len(walls)} round(s), wall {[round(w, 3) for w in walls]}", file=sys.stderr)
    return {
        "realizations_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
        "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
    }


def _traced(runner: Runner, seconds: float):
    """Traced rounds, pool rounds and the tracing overhead in percent; spans
    and counters are written under bench/out/trace."""
    traced, pooled, plain_walls, traced_walls = [], [], [], []
    elapsed = 0.0
    while True:
        plain_walls.append(runner.round(1)[0])
        tracer = tracing.Tracer()
        with tracer:
            tracing.install_layers(tracer)
            traced_walls.append(runner.round(1, main=tracer.wrap(renewalbm.cli.main, "cli.main"))[0])
        traced.append(tracer)
        unit = plain_walls[-1] + traced_walls[-1]
        if runner.wl.workers > 1:
            pool_tracer = tracing.Tracer()
            with pool_tracer:
                tracing.install_pool(pool_tracer)
                unit += runner.round(runner.wl.workers)[0]
            pooled.append(pool_tracer)
        elapsed += unit
        if not _keep_going(elapsed, unit, seconds):
            break
    print(f"{runner.name}: untraced {plain_walls}, traced {traced_walls}", file=sys.stderr)
    trace_dir = OUT / "trace"
    trace_dir.mkdir(exist_ok=True)
    for i, tracer in enumerate(traced + pooled):
        tracer.dump(trace_dir / f"{runner.name}-seed{runner.seed}-{i}.json")
    return traced, pooled, 100.0 * (sum(traced_walls) / sum(plain_walls) - 1.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
