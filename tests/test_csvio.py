"""CSV writers: the column writer renders the bytes of format_value row by row."""

import hashlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import renewalbm.csvio
from renewalbm.cli import main
from renewalbm.coupling import build_coupled_realization
from renewalbm.csvio import (
    _shortest,
    _write_columns,
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
    return request.param


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
    if row_block is not None:
        # Every block costs the same fixed overhead, so the one- and
        # three-row blocks render a cut path: 457 rows, not a multiple of
        # 3, so the last block is short.
        real.grid.values = real.grid.values[:457]
    write_grid_csv(tmp_path / "g.csv", real, 4)
    t = np.arange(len(real.grid.values)) * real.grid.step
    assert _table_lines(tmp_path / "g.csv") == _rows_formula(zip(t, real.grid.values))


def test_path_rows(tmp_path, row_block):
    sched = scaling_constants(LAW, 2.0, 6)
    tp = build_transport_path(sample_renewal_path(LAW, sched, 1.0, np.random.default_rng(5)))
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


def _rendered(*columns):
    buf = io.BytesIO()
    _write_columns(buf, *columns)
    return buf.getvalue().decode("ascii")


_EDGES = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,
          1e-300, 1e300, 1.7976931348623157e308, 1e-4, 1e15, 0.1, 0.5, 1.0, 1e16, 123456789012345.25]
_FLOATS = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))),
    st.floats(),
    st.floats(1e-4, 1e15),
    st.sampled_from(_EDGES),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.tuples(st.integers(0, 2**63 - 1), _FLOATS, _FLOATS), min_size=1, max_size=40))
@example(rows=[(2**63 - 1, f, -f) for f in _EDGES])
def test_columns_render_as_format_value(row_block, rows):
    # any float64 bit pattern and any non-negative int64, the kernel's cells
    # and its per-value repr fallback alike
    assert _rendered(*zip(*rows)) == "".join(line + "\n" for line in _rows_formula(rows))


@pytest.mark.parametrize("kinds", ["f", "i", "fi", "fif", "ififf"])
def test_cells_do_not_depend_on_their_column(row_block, kinds):
    # each cell's bytes sit at fixed offsets of a fixed-width block; a cell
    # must render alike whatever column it is in and whatever its neighbours
    floats = np.array(_EDGES + [-f for f in _EDGES])
    ints = np.resize([0, -1, 9, 10, 9999, 10**4, 2**63 - 1, -(2**63)], floats.size)
    columns = [np.roll(floats if k == "f" else ints, i) for i, k in enumerate(kinds)]
    assert _rendered(*columns) == "".join(line + "\n" for line in _rows_formula(zip(*columns)))


def _dense_floats():
    """About a million doubles where a shortest-repr kernel goes wrong first."""
    rng = np.random.default_rng(8)
    ulps = np.arange(-3000, 3001)
    near_pow10 = (np.array([10.0**j for j in range(-5, 17)]).view(np.int64)[:, None] + ulps).view(np.float64)
    pow2 = np.ldexp(1.0, np.arange(-1074, 1024))
    near_pow2 = (pow2[(pow2 >= 1e-5) & (pow2 < 1e17)].view(np.int64)[:, None] + np.arange(-50, 51)).view(np.float64)
    # doubles at or next to 14-, 15- and 16-digit decimals, and doubles
    # whose shortest repr mostly has 16 or 17 digits
    decimals = [
        rng.integers(10 ** (d - 1), 10**d, 100_000) / 10.0 ** rng.integers(0, 23, 100_000)
        for d in (14, 15, 16)
    ]
    wide = rng.random(500_000) * 10.0 ** rng.integers(-6, 18, 500_000)
    bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False).view(np.float64)
    values = np.concatenate([near_pow10.ravel(), near_pow2.ravel(), *decimals, wide, bits])
    return np.where(rng.random(values.size) < 0.5, -values, values)


def test_dense_floats_render_as_repr():
    values = _dense_floats()
    assert values.size >= 10**6
    want = [repr(v) for v in values.tolist()]
    assert _rendered(values) == "".join(cell + "\n" for cell in want)
    fixed = np.abs(values)
    fixed = (fixed >= 1e-4) & (fixed < 1e15)
    # the digit counts the kernel must choose between, and the fallback edges
    digits = [len(cell.lstrip("-0.").replace(".", "").rstrip("0")) for cell in np.array(want)[fixed]]
    assert all(np.count_nonzero(np.array(digits) == k) > 50_000 for k in (15, 16, 17))
    edges = {"0.0001", "1000000000000000.0", "0.00010000000000000002", "999999999999999.9"}
    assert edges <= {cell.lstrip("-") for cell in want}
    # the kernel, not the fallback, renders nearly every value in range
    assert np.mean(_shortest(np.abs(values[fixed]))[2]) > 0.98


# sha256 and size of files written by commit 34dc84f, the last commit that
# rendered each cell with repr (gof_summary.txt: by commit 1b82eca, before
# the table layout moved into one writer); any change to these bytes is a
# change of draws or of format. The coupled outputs (both couples, rate and
# trace) are re-recorded since a coupled realization draws each quantity
# from its own child stream and both engines stop at one rule; the
# simulate-path and gof files draw nothing coupled and keep their bytes.
_PINNED = [
    (["couple", "--engine", "exact", "--n", "64", "--seed", "11"], {
        "realization.csv": ("db35fcc5c8d8c65b016fb21d1132f1a055f2e438224565acf583411e9739a0bd", 521536)}),
    (["couple", "--engine", "grid", "--n", "8", "--seed", "12", "--export-grid-path"], {
        "realization.csv": ("57e1a3ef9d626e1f56b5457a5ab78a416d5f9f1ff6da8a81dbed0b87f220cd6a", 8604),
        "grid_path.csv": ("6632ed5812d15542ca3ff717934f00195439ef75c6ac412d2db45fd073fb3edb", 4312129)}),
    (["simulate-path", "--n", "20", "--seed", "13"], {
        "transport_path.csv": ("6a03365c2048fba6df784b81093edca19f264e360bc7a0e674691eddee6c51e3", 14509)}),
    (["rate", "--n-grid", "4,8", "--reps", "6", "--seed", "14"], {
        "rate.csv": ("99bd6441997e0a175b7fdd879c62897c247fb63ef7cb6e9b111e7c92ab654e99", 536),
        "rate_summary.txt": ("429f99064e18d920803fefe57bf4ed8e5f63059ed85b13e531acb87b8051ed99", 389)}),
    (["trace", "--n-grid", "4,8", "--reps", "6", "--seed", "15"], {
        "trace.csv": ("91d3887132ac73fa5c32c730589a33aa40e4d4e8d5ab69c11599af3c1d5c52da", 374)}),
    (["gof", "--n", "8", "--reps", "200", "--seed", "16"], {
        "gof_summary.txt": ("a105e78a393a69f5e348a2e6d9461e945ecacf37ebb2beb543f757b623549541", 261)}),
    # A law with an atom at zero (recorded by commit 81b1cc3): its summaries
    # carry exploratory=zero-atom-law, in rate_summary.txt between
    # max_slope_err and median_J_n4, in gof_summary.txt last.
    (["rate", "--law", "two_point:0,1,0.5", "--n-grid", "4,8", "--reps", "4", "--seed", "3"], {
        "rate_summary.txt": ("81dfef2d1e6214da834897617a11622df625930fce96e359573b216ff9ae13e0", 374)}),
    (["gof", "--law", "two_point:0,1,0.5", "--n", "8", "--reps", "200", "--seed", "3"], {
        "gof_summary.txt": ("fcacafa5b1e6f2253305efed30e994ded4b89dd6bfe56e28ef72cb0dbee0c3ca", 277)}),
]


@pytest.mark.parametrize("argv, files", _PINNED, ids=[argv[0] + "-" + argv[argv.index("--seed") + 1] for argv, _ in _PINNED])
def test_same_seed_outputs_keep_their_bytes(tmp_path, argv, files):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    for name, (digest, size) in files.items():
        data = (tmp_path / name).read_bytes()
        assert (hashlib.sha256(data).hexdigest(), len(data)) == (digest, size), name


def test_exact_couple_keeps_its_bytes_when_it_builds_the_tables(tmp_path):
    # In a fresh process the exit-time tables are built inside the command,
    # on its first inversion.
    argv, files = _PINNED[0]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "renewalbm.cli", *argv, "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    data = (tmp_path / "realization.csv").read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == files["realization.csv"]
