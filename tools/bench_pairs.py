"""Alternating parent/change pairs of the benchmark's end-to-end metrics.

    python3 tools/bench_pairs.py --pr N --workload exact-couple
    python3 tools/bench_pairs.py --pr N --workload exact-couple --workload grid-ladder --base HEAD~1

Extracts the committed files of --base (default HEAD, the parent of
uncommitted work) into a temporary directory with git archive and runs `python3 bench/run.py --workload W --seed S
--seconds T --trace 0` there and in the working tree, with T the run_seconds
of BENCHMARK.json, one run per side and pair, PAIRS pairs per workload. Pair
i uses seed --seed + i on both sides; the parent runs first in even pairs and
the change in odd ones, so a drift of the machine over the run weighs on both
sides alike. Writes BENCH_<pr>.json at the repository root: every run, each
side's operations attempted and failed and its runs that were not correct,
and, over the pairs where both sides were correct, each side's median and
quartiles per metric and the pairs the change won per metric (by the
direction BENCHMARK.json gives it). The temporary directory is removed
afterwards. Standard library, git and tar only.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # a gain is read from at least ten pairs, won in nine of ten


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py call in tree: its JSON result, metric values flattened."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"correct": False, "error": proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def spread(values: list[float]) -> dict:
    if len(values) == 1:  # quantiles needs two
        values = values * 2
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Each side's operations; per metric, over the pairs where both sides
    were correct, each side's median and quartiles and the pairs the change won."""
    sides = {
        side: {
            "runs": sum(r["side"] == side for r in runs),
            "not_correct": sum(r["side"] == side and not r.get("correct") for r in runs),
            "attempted": sum(r.get("attempted", 0) for r in runs if r["side"] == side),
            "failed": sum(r.get("failed", 0) for r in runs if r["side"] == side),
        }
        for side in ("parent", "change")
    }
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        if run.get("correct"):
            by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    pairs = [p for p in by_pair.values() if len(p) == 2]
    metrics = {}
    for name, direction in better.items():
        if not pairs:
            break
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = 1.0 if direction == "higher" else -1.0
        won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        metrics[name] = {"better": direction, "parent": spread(parent), "change": spread(change),
                         "pairs_won": won, "pairs": len(pairs)}
    return {"operations": sides, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of pair 0; pair i uses seed + i")
    parser.add_argument("--base", default="HEAD", help="git revision of the parent side")
    args = parser.parse_args(argv)
    # A terminated run still removes its temporary directory (the with below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    base = _git("rev-parse", args.base)
    report = {
        "base": base,
        "command": "python3 bench/run.py --workload W --seed S --seconds T --trace 0",
        "seconds": seconds,
        "cpus": os.cpu_count(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_tree = Path(tmp)
        archive = subprocess.run(["git", "archive", base], cwd=ROOT, check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive, check=True)
        for workload in args.workload:
            runs = []
            for pair in range(PAIRS):
                seed = args.seed + pair
                sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for order, side in enumerate(sides):
                    tree = parent_tree if side == "parent" else ROOT
                    run = run_once(tree, workload, seed, seconds)
                    run.update(pair=pair, side=side, seed=seed, order=order)
                    runs.append(run)
                    print(workload, pair, side, json.dumps(run.get("metrics", run)), file=sys.stderr)
            report["workloads"][workload] = {"runs": runs, "summary": summarize(runs, better)}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
