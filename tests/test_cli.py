"""CLI contract: exit codes, config merging, and artifact layout."""

import tracemalloc

import numpy as np
import pytest

import renewalbm.experiments
from renewalbm.cli import main
from renewalbm.csvio import format_value, write_summary


def _read(path):
    return path.read_text(encoding="utf-8")


def _summary_dict(path):
    out = {}
    for line in _read(path).splitlines():
        key, value = line.split("=", 1)
        out[key] = value
    return out


def test_version_and_missing_command(capsys):
    assert main(["--version"]) == 0
    assert "renewalbm 0.1.0" in capsys.readouterr().out
    assert main([]) == 2


def test_simulate_path_artifact(tmp_path, capsys):
    code = main(["simulate-path", "--n", "10", "--seed", "1", "--out", str(tmp_path)])
    assert code == 0
    lines = _read(tmp_path / "transport_path.csv").splitlines()
    assert lines[0] == "# renewal-transport path n=10 k=2.0 law=uniform01 seed=1"
    assert lines[1] == "# renewalbm 0.1.0"
    header = lines.index("t,value")
    first = lines[header + 1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0
    assert float(lines[-1].split(",")[0]) == 1.0
    stdout = capsys.readouterr().out
    assert stdout.startswith("simulate-path ")
    assert "events=" in stdout


def test_usage_exit_codes(tmp_path, capsys):
    assert main(["simulate-path", "--n", "10", "--k", "0.5", "--out", str(tmp_path)]) == 2
    assert "k must exceed 1" in capsys.readouterr().err
    assert main(["simulate-path", "--out", str(tmp_path)]) == 2  # --n required
    assert main(["rate", "--n-grid", "8,4", "--reps", "4", "--out", str(tmp_path)]) == 2
    assert main(["rate", "--n-grid", "4,8", "--q", "1", "--out", str(tmp_path)]) == 2
    assert main(["gof", "--n", "10", "--s", "0.9", "--t", "0.5", "--out", str(tmp_path)]) == 2
    assert main(["simulate-path", "--n", "10", "--frobnicate"]) == 2
    assert main(["couple", "--n", "6", "--engine", "exact", "--export-grid-path",
                 "--out", str(tmp_path)]) == 2


def test_capacity_exit_code(tmp_path, capsys):
    # expected event count 2e8 trips the cap before any allocation
    assert main(["simulate-path", "--n", "10000", "--out", str(tmp_path)]) == 3
    assert "error:" in capsys.readouterr().err



def test_allocation_failure_exit_code(tmp_path, capsys, monkeypatch):
    real_build = renewalbm.experiments.build_coupled_realization

    def build(law, sched, rng, **kw):
        if sched.n == 8:
            raise MemoryError("Unable to allocate 1.00 GiB for an array")
        return real_build(law, sched, rng, **kw)

    monkeypatch.setattr(renewalbm.experiments, "build_coupled_realization", build)
    assert main(["rate", "--n-grid", "8,16", "--reps", "2", "--out", str(tmp_path)]) == 3
    assert "error:" in capsys.readouterr().err
    # a finished scale is kept and written, flagged incomplete
    assert main(["rate", "--n-grid", "4,8", "--reps", "2", "--out", str(tmp_path)]) == 0
    assert _summary_dict(tmp_path / "rate_summary.txt")["complete"] == "false"

@pytest.mark.parametrize(
    "argv",
    [["couple", "--engine", "grid", "--n", "256"], ["rate", "--n-grid", "256", "--reps", "2"]],
    ids=["couple", "rate"],
)
def test_grid_past_the_byte_budget_exits_before_allocating(tmp_path, capsys, argv):
    # the initial n = 256 walk would need about 1.15 GB
    tracemalloc.start()
    try:
        code = main(argv + ["--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and "byte allocation budget" in err
    assert peak < 50e6
    assert not any(tmp_path.iterdir())


def test_missing_out_dir_fails(tmp_path):
    assert main(["simulate-path", "--n", "10", "--out", str(tmp_path / "absent")]) == 1


def test_couple_grid_artifacts(tmp_path, capsys):
    code = main(["couple", "--n", "6", "--seed", "2", "--export-grid-path",
                 "--out", str(tmp_path)])
    assert code == 0
    lines = _read(tmp_path / "realization.csv").splitlines()
    header = lines.index("m,Gamma,Lambda,skeleton_value")
    rows = lines[header + 1:]
    assert rows[0].startswith("0,")
    stdout = capsys.readouterr().out
    assert "sup=" in stdout and "steps=" in stdout
    steps = int(stdout.split("steps=")[1].split()[0])
    assert len(rows) == steps + 1
    grid_lines = _read(tmp_path / "grid_path.csv").splitlines()
    assert "t,w" in grid_lines


def test_couple_exact_has_no_sup(tmp_path, capsys):
    code = main(["couple", "--n", "6", "--engine", "exact", "--out", str(tmp_path)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "sup=" not in stdout
    assert not (tmp_path / "grid_path.csv").exists()


def test_config_file_merge_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 6\nseed = 3  # inline comment\n\n", encoding="utf-8")
    code = main(["simulate-path", "--config", str(cfg), "--seed", "4",
                 "--out", str(tmp_path)])
    assert code == 0
    assert "seed=4" in capsys.readouterr().out

    cfg.write_text("n = 6\nfrobnicate = 1\n", encoding="utf-8")
    assert main(["simulate-path", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "frobnicate" in capsys.readouterr().err

    cfg.write_text("just some words\n", encoding="utf-8")
    assert main(["simulate-path", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    cfg.write_text("n_grid = 4,8\nq = 1\n", encoding="utf-8")
    assert main(["rate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "unknown config key 'q'" in capsys.readouterr().err


def test_rate_artifacts_are_reproducible(tmp_path):
    args = ["rate", "--n-grid", "4,8", "--reps", "4", "--seed", "5"]
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    assert main(args + ["--out", str(dir_a)]) == 0
    assert main(args + ["--out", str(dir_b)]) == 0
    assert (dir_a / "rate.csv").read_bytes() == (dir_b / "rate.csv").read_bytes()
    assert (dir_a / "rate_summary.txt").read_bytes() == (dir_b / "rate_summary.txt").read_bytes()
    lines = _read(dir_a / "rate.csv").splitlines()
    assert "n,mean_J,median_J,q90_J,exceedance,J1,J2,J3,J4" in lines
    assert sum(not line.startswith("#") for line in lines) == 3  # header + 2 scales
    summary = _summary_dict(dir_a / "rate_summary.txt")
    assert summary["complete"] == "true"
    assert "median_J_n4" in summary and "exceedance_n8" in summary
    assert float(summary["max_bound_gap"]) <= 0.0


def test_gof_summary(tmp_path):
    code = main(["gof", "--n", "10", "--reps", "300", "--seed", "6", "--out", str(tmp_path)])
    assert code == 0
    summary = _summary_dict(tmp_path / "gof_summary.txt")
    for key in ("ks_statistic", "ks_p_value", "terminal_variance",
                "cov_estimate", "cov_expected", "cov_p_value"):
        assert key in summary
    assert 0.0 <= float(summary["ks_p_value"]) <= 1.0
    assert 0.5 < float(summary["terminal_variance"]) < 1.5
    assert float(summary["cov_expected"]) == 0.5


def test_trace_artifact(tmp_path):
    code = main(["trace", "--n-grid", "4", "--reps", "3", "--seed", "7", "--out", str(tmp_path)])
    assert code == 0
    lines = _read(tmp_path / "trace.csv").splitlines()
    assert "rep,J_n4" in lines
    assert any(line.startswith("# frac_monotone=") for line in lines)


def test_zero_atom_law_is_flagged(tmp_path, capsys):
    code = main(["simulate-path", "--law", "two_point:0,1,0.5", "--n", "10",
                 "--out", str(tmp_path)])
    assert code == 0
    assert "exploratory=zero-atom-law" in capsys.readouterr().out


def test_format_value():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(3) == "3"
    assert format_value(0.1) == "0.1"
    assert format_value(np.float64(0.25)) == "0.25"
    assert format_value("plain") == "plain"


def test_write_summary_layout(tmp_path):
    out = tmp_path / "s.txt"
    write_summary(out, {"a": 1, "b": True, "c": 0.5})
    assert _read(out) == "a=1\nb=true\nc=0.5\n"
