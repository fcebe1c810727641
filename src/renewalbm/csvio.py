"""CSV and key-value writers for paths, realizations, and campaign results.

Every file starts with comment lines carrying the tool version, the
statistical configuration, and the seed, and every float is rendered with
repr, so equal configs and seeds produce byte-identical files. Nothing
volatile (timestamps, hosts, worker counts) is ever written.
"""

from __future__ import annotations

import numpy as np

from ._version import __version__
from .coupling import StepBlock
from .laws import law_label

ROW_BLOCK = 8192  # rows rendered per write; bounds the strings held at once


def format_value(x) -> str:
    """Render a cell: shortest round-trip repr for floats, str otherwise."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _kv(items: dict) -> str:
    return " ".join(f"{key}={format_value(value)}" for key, value in items.items())


def _open(file):
    return open(file, "w", newline="\n", encoding="utf-8")


def _write_columns(fh, *columns) -> None:
    """Write equal-length int or float columns as CSV rows, ROW_BLOCK rows at a time.

    Each block of a column becomes Python ints or floats through tolist and
    each cell is rendered with repr, the rendering format_value gives them,
    so the bytes are those of format_value row by row.
    """
    cols = [np.asarray(c) for c in columns]
    for start in range(0, len(cols[0]), ROW_BLOCK):
        cells = [map(repr, c[start : start + ROW_BLOCK].tolist()) for c in cols]
        fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_path_csv(file, tp, law, schedule, seed) -> None:
    """Transport path as t,value rows: every breakpoint, then the horizon
    endpoint when the path runs past the last breakpoint, so the polyline
    through the rows equals the path on [0, horizon]."""
    with _open(file) as fh:
        fh.write(
            f"# renewal-transport path n={schedule.n} k={format_value(schedule.k)} "
            f"law={law_label(law)} seed={seed}\n"
        )
        fh.write(f"# renewalbm {__version__}\n")
        fh.write(
            "# config "
            + _kv({"horizon": tp.horizon, "slope_mag": tp.slope_mag, "initial_sign": tp.initial_sign})
            + "\n"
        )
        fh.write("t,value\n")
        t, value = tp.knot_times, tp.knot_values
        if tp.horizon > t[-1]:
            t = np.append(t, tp.horizon)
            value = np.append(value, tp.value_at(tp.horizon))
        _write_columns(fh, t, value)


def write_realization_csv(file, real, seed) -> None:
    """Coupling skeleton as m,Gamma,Lambda,skeleton_value rows, m = 0..steps."""
    steps = StepBlock(
        0, real.levels, real.signs, real.exit_times, real.durations,
        real.path_times[1:], real.bm_times[1:], real.skeleton[1:],
    )
    write_realization_blocks(file, real.law, real.schedule, real.engine, seed, [steps])


def write_realization_blocks(file, law, schedule, engine, seed, blocks) -> None:
    """Skeleton rows from a stream of coupling.StepBlock, one block held at a
    time: the m = 0 row of zeros, then each block's steps in turn."""
    with _open(file) as fh:
        fh.write(f"# renewalbm {__version__}\n")
        fh.write(
            "# config "
            + _kv({"law": law_label(law), "k": schedule.k, "n": schedule.n, "engine": engine, "seed": seed})
            + "\n"
        )
        fh.write("m,Gamma,Lambda,skeleton_value\n")
        _write_columns(fh, [0], [0.0], [0.0], [0.0])
        for b in blocks:
            m = np.arange(b.start + 1, b.start + b.n_steps + 1)
            _write_columns(fh, m, b.path_times, b.bm_times, b.skeleton)
            del b, m  # not held while the next block is drawn


def write_grid_csv(file, real, seed) -> None:
    """Grid Brownian path as t,w rows; may be large."""
    if real.grid is None:
        raise ValueError("realization has no grid path to export")
    sched = real.schedule
    with _open(file) as fh:
        fh.write(f"# renewalbm {__version__}\n")
        fh.write(
            "# config "
            + _kv(
                {
                    "law": law_label(real.law),
                    "k": sched.k,
                    "n": sched.n,
                    "grid_step": real.grid.step,
                    "seed": seed,
                }
            )
            + "\n"
        )
        fh.write("t,w\n")
        t = np.arange(len(real.grid.values)) * real.grid.step
        _write_columns(fh, t, real.grid.values)


def write_rate_csv(file, result) -> None:
    """Rate campaign table with the fit and calibration in footer comments."""
    cfg = result.config
    with _open(file) as fh:
        fh.write(f"# renewalbm {__version__}\n")
        fh.write(
            "# config "
            + _kv(
                {
                    "law": law_label(cfg.law),
                    "k": cfg.k,
                    "n_grid": ",".join(str(n) for n in cfg.n_grid),
                    "reps": cfg.reps,
                    "grid_step_divisor": cfg.grid_step_divisor,
                    "alpha": "auto" if cfg.alpha is None else cfg.alpha,
                    "seed": cfg.master_seed,
                }
            )
            + "\n"
        )
        fh.write("n,mean_J,median_J,q90_J,exceedance,J1,J2,J3,J4\n")
        fields = (
            "n", "mean_j", "median_j", "q90_j", "exceedance", "mean_j1", "mean_j2", "mean_j3", "mean_j4"
        )
        _write_columns(fh, *([getattr(row, f) for row in result.rows] for f in fields))
        fh.write(
            "# fit "
            + _kv(
                {
                    "slope": result.slope,
                    "intercept": result.intercept,
                    "r_squared": result.r_squared,
                }
            )
            + "\n"
        )
        fh.write("# " + _kv({"alpha": result.alpha, "complete": result.complete}) + "\n")


def write_trace_csv(file, trace, law, k, seed) -> None:
    """Per-replication sup distances, one column per scale, fractions in the
    footer."""
    with _open(file) as fh:
        fh.write(f"# renewalbm {__version__}\n")
        fh.write(
            "# config "
            + _kv(
                {
                    "law": law_label(law),
                    "k": k,
                    "n_grid": ",".join(str(n) for n in trace.n_grid),
                    "reps": trace.j.shape[0],
                    "seed": seed,
                }
            )
            + "\n"
        )
        fh.write("rep," + ",".join(f"J_n{n}" for n in trace.n_grid) + "\n")
        _write_columns(fh, np.arange(trace.j.shape[0]), *trace.j.T)
        fh.write(
            "# "
            + _kv(
                {
                    "frac_monotone": trace.frac_monotone,
                    "frac_final_below_first": trace.frac_final_below_first,
                }
            )
            + "\n"
        )


def write_summary(file, items: dict) -> None:
    """Machine-readable key=value lines, one per item, insertion order."""
    with _open(file) as fh:
        for key, value in items.items():
            fh.write(f"{key}={format_value(value)}\n")
