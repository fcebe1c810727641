"""Each output check passes a true output and rejects a corrupted one.

    python3 -m pytest -q bench/test_checks.py
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from renewalbm import csvio  # noqa: E402
from renewalbm.coupling import build_coupled_realization, sup_distance  # noqa: E402
from renewalbm.laws import uniform01  # noqa: E402
from renewalbm.streams import ROLE_COUPLE, ROLE_RATE, derived_rng  # noqa: E402
from renewalbm.transport import scaling_constants  # noqa: E402

LAW = uniform01()
K = 2.0


@pytest.fixture(scope="module")
def grid_real():
    n = 16
    sched = scaling_constants(LAW, K, n)
    real = build_coupled_realization(
        LAW, sched, derived_rng(3, ROLE_RATE, n, 0),
        engine="grid", grid_step=sched.mean_step / checks.GRID_DIVISOR,
    )
    return n, real


def _altered(real, **arrays):
    out = copy.copy(real)
    for name, value in arrays.items():
        setattr(out, name, value)
    return out


def test_grid_realization_passes(grid_real):
    n, real = grid_real
    assert checks.check_grid_realization(real, sup_distance(real, "grid"), n, K) == []


def test_grid_sup_off_by_one_grid_step(grid_real):
    n, real = grid_real
    h = real.grid.step
    last = int(1.0 / h) - 1
    t = np.arange(last + 1) * h
    shifted = float(np.abs(real.value_at(t) - real.grid.values[1 : last + 2]).max())
    found = checks.check_grid_realization(real, shifted, n, K)
    assert any("differs from the recomputed" in msg for msg in found)


def test_grid_flipped_sign(grid_real):
    n, real = grid_real
    m = real.n_steps // 2
    skel = real.skeleton.copy()
    skel[m:] -= 2.0 * (real.skeleton[m] - real.skeleton[m - 1])
    bad = _altered(real, skeleton=skel)
    found = checks.check_grid_realization(bad, sup_distance(real, "grid"), n, K)
    assert any("opposite sign" in msg for msg in found)


def test_grid_exit_recorded_late(grid_real):
    n, real = grid_real
    bm = real.bm_index.copy()
    m = real.n_steps // 3
    bm[m] += 1
    bad = _altered(real, bm_index=bm)
    found = checks.check_grid_realization(bad, sup_distance(real, "grid"), n, K)
    assert any("before a detected exit" in msg for msg in found)


def test_grid_step_off_its_level(grid_real):
    n, real = grid_real
    skel = real.skeleton.copy()
    skel[5:] += 1e-9
    found = checks.check_grid_realization(_altered(real, skeleton=skel), sup_distance(real, "grid"), n, K)
    assert any("differs from its level" in msg for msg in found)


def _summary(**overrides):
    base = {
        "complete": "true",
        "max_bound_gap": "-0.3",
        "max_skeleton_err": "4e-15",
        "max_slope_err": "3e-14",
        "median_J_n8": "0.62",
        "exceedance_n8": "0.5",
        "median_J_n16": "0.51",
        "exceedance_n16": "0.17",
        "median_J_n32": "0.40",
        "exceedance_n32": "0.05",
    }
    base.update(overrides)
    return base


@pytest.mark.parametrize(
    "overrides",
    [
        {"complete": "false"},
        {"median_J_n32": "0.52"},
        {"exceedance_n8": "0.48"},
        {"max_bound_gap": "0.001"},
        {"max_skeleton_err": "1e-9"},
        {"max_slope_err": "1e-8"},
        {"median_J_n16": None},
    ],
)
def test_rate_summary_rejects(overrides):
    summary = {k: v for k, v in _summary(**overrides).items() if v is not None}
    assert checks.check_rate_summary(summary, (8, 16, 32), 100, decreasing=True)


def test_rate_summary_passes():
    assert checks.check_rate_summary(_summary(), (8, 16, 32), 100, decreasing=True) == []
    assert checks.check_rate_summary(_summary(exceedance_n8="0.495"), (8, 16, 32), 101, decreasing=True) == []


N_EXACT = 64


@pytest.fixture(scope="module")
def exact_csv(tmp_path_factory):
    sched = scaling_constants(LAW, K, N_EXACT)
    real = build_coupled_realization(LAW, sched, derived_rng(7, ROLE_COUPLE, N_EXACT, 0), engine="exact")
    path = tmp_path_factory.mktemp("exact") / "realization.csv"
    csvio.write_realization_csv(path, real, 7)
    return path, real.n_steps


def _rewrite(path, out, edit):
    lines = path.read_text().splitlines(keepends=True)
    out.write_text("".join(edit(lines)))
    return out


def _row_edit(index, fn):
    """Edit data row `index` (m = index) with fn(m, gamma, lam, skel)."""

    def edit(lines):
        first = next(i for i, line in enumerate(lines) if line.startswith("m,")) + 1
        m, g, lam, s = lines[first + index].strip().split(",")
        m, g, lam, s = fn(int(m), float(g), float(lam), float(s))
        lines[first + index] = f"{m},{float(g)!r},{float(lam)!r},{float(s)!r}\n"
        return lines

    return edit


def test_exact_csv_passes(exact_csv):
    path, steps = exact_csv
    assert checks.check_realization_file(path, N_EXACT, K, 7, steps) == []


def test_exact_csv_truncated(exact_csv, tmp_path):
    path, steps = exact_csv
    data = path.read_bytes()
    cut = tmp_path / "cut.csv"
    cut.write_bytes(data[: len(data) * 2 // 3])
    assert checks.check_realization_file(cut, N_EXACT, K, 7, steps)
    lines = path.read_text().splitlines(keepends=True)
    short = tmp_path / "short.csv"
    short.write_text("".join(lines[:-400]))
    found = checks.check_realization_file(short, N_EXACT, K, 7, steps)
    assert any("printed steps" in msg for msg in found)
    assert any("before 1" in msg for msg in found)


def test_exact_csv_flipped_sign(exact_csv, tmp_path):
    path, steps = exact_csv
    rows = checks.read_realization_csv(path)[1]
    prev = rows[99, 3]
    bad = _rewrite(path, tmp_path / "flip.csv",
                   _row_edit(100, lambda m, g, lam, s: (m, g, lam, 2.0 * prev - s)))
    found = checks.check_realization_file(bad, N_EXACT, K, 7, steps)
    assert any("normalizer differs" in msg for msg in found)


def test_exact_csv_clock_out_of_order(exact_csv, tmp_path):
    path, steps = exact_csv
    bad = _rewrite(path, tmp_path / "clock.csv", _row_edit(50, lambda m, g, lam, s: (m, g * 0.5, lam, s)))
    found = checks.check_realization_file(bad, N_EXACT, K, 7, steps)
    assert any("does not rise strictly" in msg for msg in found)


def test_exact_csv_wrong_exit_law(exact_csv, tmp_path):
    path, steps = exact_csv

    def stretch(lines):
        first = next(i for i, line in enumerate(lines) if line.startswith("m,")) + 1
        for i in range(first, len(lines)):
            m, g, lam, s = lines[i].strip().split(",")
            lines[i] = f"{m},{g},{float(lam) * 1.2!r},{s}\n"
        return lines

    found = checks.check_realization_file(_rewrite(path, tmp_path / "law.csv", stretch), N_EXACT, K, 7, steps)
    assert any("dLambda/dS^2" in msg for msg in found)


def test_exact_csv_wrong_header(exact_csv):
    path, steps = exact_csv
    found = checks.check_realization_file(path, N_EXACT, K, 8, steps)
    assert any("header seed" in msg for msg in found)


def test_own_exit_cdf_matches_moments():
    # E tau = 1 and E tau^2 = 5/3 for the exit from [-1, 1]
    t = np.linspace(0.0, 40.0, 400_001)
    survival = 1.0 - checks.unit_exit_cdf(t)
    dt = t[1] - t[0]
    assert np.trapezoid(survival, dx=dt) == pytest.approx(1.0, abs=1e-6)
    assert np.trapezoid(2 * t * survival, dx=dt) == pytest.approx(5.0 / 3.0, abs=1e-5)
    small, large = checks.unit_exit_cdf(np.array([0.0999999999, 0.1]))
    assert small == pytest.approx(large, abs=1e-9)
