"""Command-line front end: config parsing, dispatch, and artifact emission.

Flags override key=value config files, unknown keys are rejected, and every
run prints a one-line summary. Exit codes: 0 success, 2 usage, 3 a request
past the allocation budget or a failed allocation, 1 anything else.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import csvio
from ._version import __version__
from .coupling import (
    GRID_STEP_DIVISOR,
    EmbeddingSums,
    build_coupled_realization,
    embedding_diagnostics,
    exact_blocks,
    sup_distance,
)
from .errors import BudgetError, CapacityError, UsageError
from .experiments import (
    RateExperimentConfig,
    as_trace,
    covariance_check,
    ks_normal,
    run_rate_experiment,
)
from .laws import has_zero_atom, law_label, parse_law
from .streams import (
    ROLE_COUPLE,
    ROLE_GOF_COV,
    ROLE_GOF_TERMINAL,
    ROLE_PATH,
    derived_rng,
)
from .transport import (
    build_transport_path,
    sample_renewal_path,
    scaling_constants,
    terminal_samples,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

_UNSET = object()

_DEFAULTS = {
    "law": "uniform01",
    "k": 2.0,
    "seed": 0,
    "engine": "grid",
    "grid_step_divisor": GRID_STEP_DIVISOR,
    "out": ".",
    "export_grid_path": False,
    "alpha": None,
    "workers": 1,
    "s": 0.5,
    "t": 1.0,
}
_REPS_DEFAULT = {"rate": 200, "trace": 100, "gof": 5000}


def _parse_n_grid(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"n_grid must be comma-separated integers, got {text!r}") from None


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise UsageError(f"expected a boolean, got {text!r}")


_CONVERTERS = {
    "law": str,
    "k": float,
    "n": int,
    "n_grid": _parse_n_grid,
    "reps": int,
    "seed": int,
    "engine": str,
    "grid_step_divisor": int,
    "out": str,
    "export_grid_path": _parse_bool,
    "alpha": float,
    "workers": int,
    "s": float,
    "t": float,
}

_COMMAND_KEYS = {
    "simulate-path": ("law", "k", "n", "seed", "out"),
    "couple": (
        "law",
        "k",
        "n",
        "seed",
        "engine",
        "grid_step_divisor",
        "export_grid_path",
        "out",
    ),
    "rate": (
        "law",
        "k",
        "n_grid",
        "reps",
        "seed",
        "grid_step_divisor",
        "alpha",
        "workers",
        "out",
    ),
    "gof": ("law", "k", "n", "reps", "seed", "s", "t", "out"),
    "trace": ("law", "k", "n_grid", "reps", "seed", "out"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renewalbm",
        description="Renewal-reward transport paths coupled to Brownian motion.",
    )
    parser.add_argument("--version", action="version", version=f"renewalbm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def law_k_seed(sp):
        sp.add_argument("--law", default=_UNSET, help="uniform01 | exponential:<rate> | deterministic:<c> | two_point:<a>,<b>,<p> (default uniform01)")
        sp.add_argument("--k", type=float, default=_UNSET, help="rate exponent, must exceed 1 (default 2)")
        sp.add_argument("--seed", type=int, default=_UNSET, help="master seed (default 0)")
        sp.add_argument("--out", default=_UNSET, help="existing output directory (default .)")
        sp.add_argument("--config", default=None, help="key=value file; flags override it")

    sp = sub.add_parser("simulate-path", help="one renewal-transport path on [0, 1]")
    law_k_seed(sp)
    sp.add_argument("--n", type=int, default=_UNSET, help="scale index (required)")

    sp = sub.add_parser("couple", help="one coupled transport/Brownian realization")
    law_k_seed(sp)
    sp.add_argument("--n", type=int, default=_UNSET, help="scale index (required)")
    sp.add_argument("--engine", choices=("exact", "grid"), default=_UNSET, help="embedding engine (default grid)")
    sp.add_argument("--grid-step-divisor", type=int, default=_UNSET, help=f"grid step = mean_step / divisor (default {GRID_STEP_DIVISOR})")
    sp.add_argument("--export-grid-path", action="store_true", default=_UNSET, help="also write the grid Brownian path (may be large)")

    sp = sub.add_parser("rate", help="deviation-rate campaign across scales")
    law_k_seed(sp)
    sp.add_argument("--n-grid", type=_parse_n_grid, default=_UNSET, help="comma-separated increasing scales (required)")
    sp.add_argument("--reps", type=int, default=_UNSET, help="replications per scale (default 200)")
    sp.add_argument("--grid-step-divisor", type=int, default=_UNSET, help=f"grid step = mean_step / divisor (default {GRID_STEP_DIVISOR})")
    sp.add_argument("--alpha", type=float, default=_UNSET, help="exceedance constant (default: calibrate at smallest scale)")
    sp.add_argument("--workers", type=int, default=_UNSET, help="parallel replication workers (default 1)")

    sp = sub.add_parser("gof", help="distributional checks of direct paths")
    law_k_seed(sp)
    sp.add_argument("--n", type=int, default=_UNSET, help="scale index (required)")
    sp.add_argument("--reps", type=int, default=_UNSET, help="direct simulations (default 5000)")
    sp.add_argument("--s", type=float, default=_UNSET, help="earlier covariance time (default 0.5)")
    sp.add_argument("--t", type=float, default=_UNSET, help="later covariance time (default 1.0)")

    sp = sub.add_parser("trace", help="per-replication convergence traces")
    law_k_seed(sp)
    sp.add_argument("--n-grid", type=_parse_n_grid, default=_UNSET, help="comma-separated increasing scales (required)")
    sp.add_argument("--reps", type=int, default=_UNSET, help="replications (default 100)")

    return parser


def _read_config_file(path: str) -> dict[str, str]:
    found: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            found[key.strip()] = value.strip()
    return found


def parse_config(argv=None) -> argparse.Namespace:
    """Parse flags, merge the optional config file, and apply defaults."""
    args = _build_parser().parse_args(argv)
    keys = _COMMAND_KEYS[args.command]
    if args.config is not None:
        for key, text in _read_config_file(args.config).items():
            if key not in keys:
                raise UsageError(f"unknown config key {key!r} for {args.command}")
            if getattr(args, key) is _UNSET:
                setattr(args, key, _CONVERTERS[key](text))
    for key in keys:
        if getattr(args, key) is _UNSET:
            if key in ("n", "n_grid"):
                raise UsageError(f"--{key.replace('_', '-')} is required for {args.command}")
            setattr(args, key, _REPS_DEFAULT[args.command] if key == "reps" else _DEFAULTS[key])
    if "engine" in keys and args.engine not in ("exact", "grid"):
        raise UsageError(f"engine must be exact or grid, got {args.engine!r}")
    for key in ("n", "reps", "workers", "grid_step_divisor"):
        if key in keys and getattr(args, key) < 1:
            raise UsageError(f"{key} must be positive")
    return args


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return csvio.format_value(x)


def _print_line(command: str, items: dict) -> None:
    print(command + " " + " ".join(f"{key}={_fmt(value)}" for key, value in items.items()))


def _law_items(law, args) -> dict:
    items = {"law": law_label(law), "k": args.k, "seed": args.seed}
    if has_zero_atom(law):
        items["exploratory"] = "zero-atom-law"
    return items


def _cmd_simulate_path(args) -> int:
    law = parse_law(args.law)
    sched = scaling_constants(law, args.k, args.n)
    rng = derived_rng(args.seed, ROLE_PATH, args.n, 0)
    path = sample_renewal_path(law, sched, 1.0, rng)
    tp = build_transport_path(path, sched)
    out = Path(args.out) / "transport_path.csv"
    csvio.write_path_csv(out, tp, law, sched, args.seed)
    items = _law_items(law, args)
    items.update(
        n=args.n,
        events=len(path.times),
        breakpoints=len(tp.knot_times) - 1,
        terminal=tp.value_at(min(1.0, path.horizon)),
        out=str(out),
    )
    _print_line("simulate-path", items)
    return EXIT_OK


def _cmd_couple(args) -> int:
    law = parse_law(args.law)
    sched = scaling_constants(law, args.k, args.n)
    rng = derived_rng(args.seed, ROLE_COUPLE, args.n, 0)
    out = Path(args.out) / "realization.csv"
    items = _law_items(law, args)
    if args.engine == "grid":
        real = build_coupled_realization(
            law, sched, rng, engine="grid", grid_step=sched.mean_step / args.grid_step_divisor
        )
        csvio.write_realization_csv(out, real, args.seed)
        items.update(n=args.n, engine=args.engine, steps=real.n_steps, sup=sup_distance(real, "grid"))
        diag = embedding_diagnostics(real)
    else:
        if args.export_grid_path:
            raise UsageError("--export-grid-path needs --engine grid")
        # Stream the blocks into the file, so memory does not grow with n.
        sums = EmbeddingSums()
        blocks = sums.tally(exact_blocks(law, sched, rng))
        csvio.write_realization_blocks(out, law, sched, "exact", args.seed, blocks)
        items.update(n=args.n, engine=args.engine, steps=sums.steps)
        diag = sums.diagnostics()
    items.update(
        mean_exit_time=diag["mean_exit_time"],
        mean_duration=diag["mean_duration"],
        second_moment_ratio=diag["second_moment_ratio"],
        out=str(out),
    )
    if args.export_grid_path:
        grid_out = Path(args.out) / "grid_path.csv"
        csvio.write_grid_csv(grid_out, real, args.seed)
        items["grid_out"] = str(grid_out)
    _print_line("couple", items)
    return EXIT_OK


def _cmd_rate(args) -> int:
    law = parse_law(args.law)
    cfg = RateExperimentConfig(
        law=law,
        k=args.k,
        n_grid=args.n_grid,
        reps=args.reps,
        master_seed=args.seed,
        alpha=args.alpha,
        grid_step_divisor=args.grid_step_divisor,
    )
    result = run_rate_experiment(cfg, workers=args.workers)
    out = Path(args.out) / "rate.csv"
    csvio.write_rate_csv(out, result)
    summary = {
        "tool_version": __version__,
        "law": law_label(law),
        "k": args.k,
        "n_grid": ",".join(str(n) for n in cfg.n_grid),
        "reps": cfg.reps,
        "grid_step_divisor": cfg.grid_step_divisor,
        "seed": cfg.master_seed,
        "alpha": result.alpha,
        "slope": result.slope,
        "intercept": result.intercept,
        "r_squared": result.r_squared,
        "complete": result.complete,
        "max_bound_gap": result.max_bound_gap,
        "max_skeleton_err": result.max_skeleton_err,
        "max_slope_err": result.max_slope_err,
    }
    if has_zero_atom(law):
        summary["exploratory"] = "zero-atom-law"
    for row in result.rows:
        summary[f"median_J_n{row.n}"] = row.median_j
        summary[f"exceedance_n{row.n}"] = row.exceedance
    summary_out = Path(args.out) / "rate_summary.txt"
    csvio.write_summary(summary_out, summary)
    items = _law_items(law, args)
    items.update(
        n_grid=",".join(str(n) for n in cfg.n_grid),
        reps=cfg.reps,
        alpha=result.alpha,
        slope=result.slope,
        r_squared=result.r_squared,
        complete=result.complete,
        out=str(out),
    )
    _print_line("rate", items)
    return EXIT_OK


def _cmd_gof(args) -> int:
    law = parse_law(args.law)
    sched = scaling_constants(law, args.k, args.n)
    samples = terminal_samples(
        law, sched, args.reps, derived_rng(args.seed, ROLE_GOF_TERMINAL, args.n, 0)
    )
    ks = ks_normal(samples)
    variance = float(np.var(samples, ddof=1))
    cov = covariance_check(
        law, args.k, args.n, args.s, args.t, args.reps,
        derived_rng(args.seed, ROLE_GOF_COV, args.n, 0),
    )
    summary = {
        "tool_version": __version__,
        "law": law_label(law),
        "k": args.k,
        "n": args.n,
        "reps": args.reps,
        "seed": args.seed,
        "ks_statistic": ks.statistic,
        "ks_p_value": ks.p_value,
        "terminal_variance": variance,
        "cov_s": args.s,
        "cov_t": args.t,
        "cov_estimate": cov.statistic,
        "cov_expected": min(args.s, args.t),
        "cov_p_value": cov.p_value,
    }
    if has_zero_atom(law):
        summary["exploratory"] = "zero-atom-law"
    out = Path(args.out) / "gof_summary.txt"
    csvio.write_summary(out, summary)
    items = _law_items(law, args)
    items.update(
        n=args.n,
        reps=args.reps,
        ks_p=ks.p_value,
        variance=variance,
        cov=cov.statistic,
        cov_p=cov.p_value,
        out=str(out),
    )
    _print_line("gof", items)
    return EXIT_OK


def _cmd_trace(args) -> int:
    law = parse_law(args.law)
    trace = as_trace(law, args.k, args.n_grid, args.reps, args.seed)
    out = Path(args.out) / "trace.csv"
    csvio.write_trace_csv(out, trace, law, args.k, args.seed)
    items = _law_items(law, args)
    items.update(
        n_grid=",".join(str(n) for n in trace.n_grid),
        reps=args.reps,
        frac_monotone=trace.frac_monotone,
        frac_final_below_first=trace.frac_final_below_first,
        out=str(out),
    )
    _print_line("trace", items)
    return EXIT_OK


_COMMANDS = {
    "simulate-path": _cmd_simulate_path,
    "couple": _cmd_couple,
    "rate": _cmd_rate,
    "gof": _cmd_gof,
    "trace": _cmd_trace,
}


def dispatch(args: argparse.Namespace) -> int:
    return _COMMANDS[args.command](args)


def main(argv=None) -> int:
    try:
        args = parse_config(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    try:
        return dispatch(args)
    except (CapacityError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
