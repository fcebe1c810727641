"""CSV writers: the column writer renders the bytes of format_value row by row."""

import math

import numpy as np
import pytest

import renewalbm.csvio
from renewalbm.coupling import build_coupled_realization
from renewalbm.csvio import (
    format_value,
    write_grid_csv,
    write_path_csv,
    write_rate_csv,
    write_realization_csv,
    write_trace_csv,
)
from renewalbm.experiments import RateExperimentConfig, RateResult, RateRow, TraceResult
from renewalbm.laws import parse_law
from renewalbm.transport import build_transport_path, sample_renewal_path, scaling_constants

LAW = parse_law("uniform01")


def _rows_formula(rows):
    return [",".join(format_value(c) for c in row) for row in rows]


def _table_lines(path):
    # every line after the column header that is not a comment
    lines = path.read_text(encoding="utf-8").splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return [line for line in lines[header + 1 :] if not line.startswith("#")]


@pytest.fixture(params=[None, 1, 3])
def row_block(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(renewalbm.csvio, "ROW_BLOCK", request.param)


def _realization(engine, seed):
    sched = scaling_constants(LAW, 2.0, 4)
    return build_coupled_realization(LAW, sched, np.random.default_rng(seed), engine=engine)


@pytest.mark.parametrize("engine", ["grid", "exact"])
def test_realization_rows(tmp_path, row_block, engine):
    real = _realization(engine, 3)
    write_realization_csv(tmp_path / "r.csv", real, 3)
    want = zip(range(real.n_steps + 1), real.path_times, real.bm_times, real.skeleton)
    assert _table_lines(tmp_path / "r.csv") == _rows_formula(want)


def test_grid_rows(tmp_path, row_block):
    real = _realization("grid", 4)
    write_grid_csv(tmp_path / "g.csv", real, 4)
    t = np.arange(len(real.grid.values)) * real.grid.step
    assert _table_lines(tmp_path / "g.csv") == _rows_formula(zip(t, real.grid.values))


def test_path_rows(tmp_path, row_block):
    sched = scaling_constants(LAW, 2.0, 6)
    tp = build_transport_path(sample_renewal_path(LAW, sched, 1.0, np.random.default_rng(5)), sched)
    assert tp.horizon > tp.knot_times[-1]  # the horizon row is exercised
    write_path_csv(tmp_path / "p.csv", tp, LAW, sched, 5)
    rows = list(zip(tp.knot_times, tp.knot_values))
    rows.append((tp.horizon, tp.value_at(tp.horizon)))
    assert _table_lines(tmp_path / "p.csv") == _rows_formula(rows)


def test_rate_rows_with_nan_fit(tmp_path, row_block):
    cfg = RateExperimentConfig(law=LAW, k=2.0, n_grid=(4, 8, 16), reps=5, master_seed=9)
    rows = tuple(
        RateRow(n, 0.1 * n, 1.0 / n, math.nan if n == 8 else 2.5, 0.0, 1e-5, 3.0, 1e20, -0.0)
        for n in cfg.n_grid
    )
    nan = math.nan
    result = RateResult(cfg, rows, 0.77, nan, nan, nan, True, -0.1, 0.0, 1e-12)
    write_rate_csv(tmp_path / "rate.csv", result)
    want = [
        (r.n, r.mean_j, r.median_j, r.q90_j, r.exceedance, r.mean_j1, r.mean_j2, r.mean_j3, r.mean_j4)
        for r in rows
    ]
    lines = _table_lines(tmp_path / "rate.csv")
    assert lines == _rows_formula(want)
    assert [line.split(",")[0] for line in lines] == ["4", "8", "16"]  # n stays an int
    assert "# fit slope=nan intercept=nan r_squared=nan\n" in (tmp_path / "rate.csv").read_text()


def test_trace_rows(tmp_path, row_block):
    j = np.random.default_rng(6).random((7, 3))
    trace = TraceResult((4, 8, 16), j, 0.25, 0.5)
    write_trace_csv(tmp_path / "trace.csv", trace, LAW, 2.0, 6)
    want = ((rep, *j[rep]) for rep in range(j.shape[0]))
    assert _table_lines(tmp_path / "trace.csv") == _rows_formula(want)

