"""Command-line front end: config parsing, dispatch, and artifact emission.

Each option is declared once, by its argparse action: type, default,
choices and help. A key=value config file names options by dest (the flag
with underscores); each value goes through its option's own type and
choices (every option takes a value), and flags override the file. Unknown
keys are rejected. Each command writes its artifacts and returns its summary
items; main prints them after the law's as one line. couple writes
realization.csv only: either engine's steps, a grid build as one block or
the exact stream, go through one EmbeddingSums into one realization writer.
Exit codes: 0 success, 2 bad input (errors.InputError, raised where the
input enters), 3 a request past the allocation budget or the step budget,
or a failed allocation, 1 anything else.
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
    exact_blocks,
    sup_distance,
    transport_paths,
)
from .coupling import embedding_diagnostics  # not called here: bench/tracing.py wraps this name
from .errors import BudgetError, InputError
from .experiments import (
    RateExperimentConfig,
    as_trace,
    covariance_check,
    ks_normal,
    run_rate_experiment,
    terminal_samples,
)
from .laws import has_zero_atom, law_label, parse_law
from .streams import (
    ROLE_COUPLE,
    ROLE_GOF_COV,
    ROLE_GOF_TERMINAL,
    ROLE_PATH,
    derived_rng,
)
from .transport import scaling_constants

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

def _parse_n_grid(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers, got {text!r}") from None


def _parse_seed(text: str) -> int:
    try:
        seed = int(text)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")


def _build_parser():
    """The parser, and per subcommand its subparser and the actions of the
    options a config file may set, keyed by dest."""
    parser = argparse.ArgumentParser(
        prog="renewalbm",
        description="Renewal-reward transport paths coupled to Brownian motion.",
    )
    parser.add_argument("--version", action="version", version=f"renewalbm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def add_command(name, summary):
        sp = sub.add_parser(name, help=summary)
        options = {}
        commands[name] = (sp, options)

        def option(flag, **kw):
            action = sp.add_argument(flag, **kw)
            options[action.dest] = action

        option("--law", default="uniform01", help="uniform01 | exponential:<rate> | deterministic:<c> | two_point:<a>,<b>,<p> (default %(default)s)")
        option("--k", type=float, default=2.0, help="rate exponent, must exceed 1 (default %(default)s)")
        option("--seed", type=_parse_seed, default=0, help="master seed, a non-negative integer (default %(default)s)")
        option("--out", default=".", help="existing output directory (default %(default)s)")
        sp.add_argument("--config", help="key=value file; flags override it")
        return option

    option = add_command("simulate-path", "one renewal-transport path on [0, 1]")
    option("--n", type=int, help="scale index (required)")

    option = add_command("couple", "one coupled transport/Brownian realization")
    option("--n", type=int, help="scale index (required)")
    option("--engine", choices=("exact", "grid"), default="grid", help="embedding engine (default %(default)s)")

    option = add_command("rate", "deviation-rate campaign across scales")
    option("--n-grid", type=_parse_n_grid, help="comma-separated increasing scales (required)")
    option("--reps", type=int, default=200, help="replications per scale (default %(default)s)")
    option("--alpha", type=float, help="exceedance constant (default: calibrate at smallest scale)")
    option("--workers", type=int, default=1, help="parallel replication workers (default %(default)s)")

    option = add_command("gof", "distributional checks of direct paths")
    option("--n", type=int, help="scale index (required)")
    option("--reps", type=int, default=5000, help="direct simulations (default %(default)s)")
    option("--s", type=float, default=0.5, help="earlier covariance time (default %(default)s)")
    option("--t", type=float, default=1.0, help="later covariance time (default %(default)s)")

    option = add_command("trace", "per-replication convergence traces")
    option("--n-grid", type=_parse_n_grid, help="comma-separated increasing scales (required)")
    option("--reps", type=int, default=100, help="replications (default %(default)s)")

    return parser, commands


def _read_config_file(path: str) -> dict[str, str]:
    found: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            found[key.strip()] = value.strip()
    return found


def _config_value(action, text: str):
    # What the flag would store: its own type, checked against its choices.
    try:
        value = (action.type or str)(text)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise InputError(f"config key {action.dest!r}: {exc}") from None
    if action.choices is not None and value not in action.choices:
        raise InputError(f"{action.dest} must be one of {', '.join(action.choices)}, got {value!r}")
    return value


def parse_config(argv=None) -> argparse.Namespace:
    """Parse flags and merge the optional config file.

    A config key is an option's dest (its flag with underscores), converted
    and checked by that option's own action, and installed as the
    subparser's default before argv is parsed again, so flags win.
    """
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    sp, options = commands[args.command]
    if args.config is not None:
        values = {}
        for key, text in _read_config_file(args.config).items():
            if key not in options:
                raise InputError(f"unknown config key {key!r} for {args.command}")
            values[key] = _config_value(options[key], text)
        sp.set_defaults(**values)
        args = parser.parse_args(argv)
    for key in ("n", "n_grid"):
        if key in options and getattr(args, key) is None:
            raise InputError(f"--{key.replace('_', '-')} is required for {args.command}")
    return args


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return csvio.format_value(x)


def _print_line(command: str, items: dict) -> None:
    print(command + " " + " ".join(f"{key}={_fmt(value)}" for key, value in items.items()))


def _flag_zero_atom(law, items: dict) -> dict:
    """items, then exploratory=zero-atom-law when law has an atom at zero."""
    return {**items, "exploratory": "zero-atom-law"} if has_zero_atom(law) else items


def _cmd_simulate_path(args, law) -> dict:
    sched = scaling_constants(law, args.k, args.n)
    tp = next(transport_paths(law, sched, 1.0, derived_rng(args.seed, ROLE_PATH, args.n, 0)))
    out = Path(args.out) / "transport_path.csv"
    csvio.write_path_csv(out, tp, args.seed)
    return {
        "n": args.n,
        # The last step ends past the horizon.
        "events": len(tp.signs) - 1,
        "breakpoints": len(tp.knots()[0]) - 1,
        "terminal": tp.value_at(1.0),
        "out": str(out),
    }


def _cmd_couple(args, law) -> dict:
    sched = scaling_constants(law, args.k, args.n)
    rng = derived_rng(args.seed, ROLE_COUPLE, args.n, 0)
    out = Path(args.out) / "realization.csv"
    if args.engine == "grid":
        real = build_coupled_realization(law, sched, rng, engine="grid")
        blocks = [real.as_block()]
    else:
        # A stream, never a list: one block is held at a time, so memory
        # does not grow with n.
        blocks = exact_blocks(law, sched, rng)
    sums = EmbeddingSums(sched.normalizer)
    csvio.write_realization_blocks(out, law, sched, args.engine, args.seed, sums.tally(blocks))
    items = {"n": args.n, "engine": args.engine, "steps": sums.steps}
    if args.engine == "grid":
        items["sup"] = sup_distance(real, "grid")
    diag = sums.diagnostics()
    for key in ("mean_exit_time", "mean_duration", "second_moment_ratio"):
        items[key] = diag[key]
    items["out"] = str(out)
    return items


def _cmd_rate(args, law) -> dict:
    cfg = RateExperimentConfig(
        law=law,
        k=args.k,
        n_grid=args.n_grid,
        reps=args.reps,
        master_seed=args.seed,
        alpha=args.alpha,
    )
    result = run_rate_experiment(cfg, workers=args.workers)
    out = Path(args.out) / "rate.csv"
    csvio.write_rate_csv(out, result)
    n_grid = csvio.n_grid_label(cfg.n_grid)
    summary = _flag_zero_atom(law, {
        "tool_version": __version__,
        "law": law_label(law),
        "k": args.k,
        "n_grid": n_grid,
        "reps": cfg.reps,
        "grid_step_divisor": GRID_STEP_DIVISOR,
        "seed": cfg.master_seed,
        **csvio.scalar_items(result),
    })
    for row in result.rows:
        summary[f"median_J_n{row.n}"] = row.median_j
        summary[f"exceedance_n{row.n}"] = row.exceedance
    csvio.write_summary(Path(args.out) / "rate_summary.txt", summary)
    return {
        "n_grid": n_grid,
        "reps": cfg.reps,
        "alpha": result.alpha,
        "slope": result.slope,
        "r_squared": result.r_squared,
        "complete": result.complete,
        "out": str(out),
    }


def _cmd_gof(args, law) -> dict:
    # The covariance check comes first, so bad s, t or reps fail before the
    # terminal paths are simulated; the two use independent streams.
    cov = covariance_check(
        law, args.k, args.n, args.s, args.t, args.reps,
        derived_rng(args.seed, ROLE_GOF_COV, args.n, 0),
    )
    sched = scaling_constants(law, args.k, args.n)
    samples = terminal_samples(
        law, sched, args.reps, derived_rng(args.seed, ROLE_GOF_TERMINAL, args.n, 0)
    )
    ks = ks_normal(samples)
    variance = float(np.var(samples, ddof=1))
    summary = _flag_zero_atom(law, {
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
    })
    out = Path(args.out) / "gof_summary.txt"
    csvio.write_summary(out, summary)
    return {
        "n": args.n,
        "reps": args.reps,
        "ks_p": ks.p_value,
        "variance": variance,
        "cov": cov.statistic,
        "cov_p": cov.p_value,
        "out": str(out),
    }


def _cmd_trace(args, law) -> dict:
    trace = as_trace(law, args.k, args.n_grid, args.reps, args.seed)
    out = Path(args.out) / "trace.csv"
    csvio.write_trace_csv(out, trace, law, args.k, args.seed)
    return {
        "n_grid": csvio.n_grid_label(trace.n_grid),
        "reps": args.reps,
        **csvio.scalar_items(trace),
        "out": str(out),
    }


_COMMANDS = {
    "simulate-path": _cmd_simulate_path,
    "couple": _cmd_couple,
    "rate": _cmd_rate,
    "gof": _cmd_gof,
    "trace": _cmd_trace,
}


def main(argv=None) -> int:
    try:
        args = parse_config(argv)
        law = parse_law(args.law)
        items = _flag_zero_atom(law, {"law": law_label(law), "k": args.k, "seed": args.seed})
        items.update(_COMMANDS[args.command](args, law))
        _print_line(args.command, items)
        return EXIT_OK
    except SystemExit as exc:
        return int(exc.code or 0)
    except BudgetError as exc:
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
