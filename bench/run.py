"""renewalbm benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload grid-ladder --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1

Run from anywhere inside a checkout; the program is imported from its src/.
Set-up is timed first, in fresh interpreters; then the workload runs in its
own process (bench/workload.py). The last line of standard output is one
JSON object: correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones. `--workload all` runs every workload in turn and prints
each one's line, then a last line whose metrics are named workload/metric.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("grid-ladder", "grid-large", "exact-couple")
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170

# What a user pays on every command: import the CLI and build its parser.
PROBE = """
import time
t0 = time.perf_counter()
import renewalbm.cli
renewalbm.cli.parse_config(["couple", "--n", "2"])
print(time.perf_counter() - t0)
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _run_child(cmd: list[str]) -> str:
    """Stdout of cmd; the whole process group is killed if it overruns."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} exited {proc.returncode}")
    return out


def setup_seconds() -> float:
    """Median import-and-parse time over fresh interpreters."""
    times = [float(_run_child([sys.executable, "-c", PROBE]).split()[-1]) for _ in range(SETUP_PROBES)]
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    setup = None if trace else setup_seconds()
    out = _run_child([
        sys.executable, str(BENCH / "workload.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ])
    result = json.loads(out.strip().splitlines()[-1])
    if setup is not None:
        result["metrics"] = {"setup_s": {"value": setup, "unit": "s"}, **result["metrics"]}
    return result


def _declared(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "renewalbm" / "cli.py").is_file():
        print(f"error: no renewalbm sources under {SRC}", file=sys.stderr)
        return 2

    declared = _declared(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        got = {key: m["unit"] for key, m in result["metrics"].items()}
        if got != declared:
            print(f"error: {name} metrics do not match BENCHMARK.json", file=sys.stderr)
            return 1
        results[name] = result
        if args.workload == "all":
            print(name, json.dumps(result))
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
