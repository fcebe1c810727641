"""CLI contract: exit codes, config merging, and artifact layout."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import renewalbm.cli
import renewalbm.coupling
import renewalbm.errors
import renewalbm.experiments
from renewalbm.cli import main, parse_config
from renewalbm.coupling import build_coupled_realization, embedding_diagnostics
from renewalbm.csvio import format_value, write_realization_csv, write_summary
from renewalbm.errors import BudgetError
from renewalbm.laws import parse_law
from renewalbm.streams import ROLE_COUPLE, derived_rng
from renewalbm.transport import scaling_constants


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
    assert main(["couple", "--n", "6", "--grid-step-divisor", "10", "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    assert main(["rate", "--n-grid", "4,8", "--reps", "2", "--workers", "0", "--out", str(tmp_path)]) == 2
    assert "workers must be positive" in capsys.readouterr().err
    # argparse shows the n_grid parser's own message
    assert main(["rate", "--n-grid", "4,x", "--out", str(tmp_path)]) == 2
    assert "argument --n-grid: must be comma-separated integers, got '4,x'" in capsys.readouterr().err
    # laws and schedules that cannot run are refused where they enter
    for argv, named in (
        (["simulate-path", "--n", "10", "--law", "deterministic:inf"], "invalid jump law deterministic:inf"),
        (["gof", "--n", "10", "--law", "exponential:inf", "--reps", "100"], "invalid jump law exponential:inf"),
        (["simulate-path", "--n", "10", "--law", "two_point:1e308,1e308,0.5"], "invalid jump law two_point"),
        (["couple", "--engine", "exact", "--k", "1100", "--n", "2"], "scale n=2 with k=1100.0"),
        (["rate", "--k", "1100", "--n-grid", "2,3", "--reps", "2"], "scale n=2 with k=1100.0"),
    ):
        assert main(argv + ["--out", str(tmp_path)]) == 2, argv
        assert named in capsys.readouterr().err, argv
    assert not any(tmp_path.iterdir())


def test_negative_seed_is_refused_where_it_enters(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 4\nseed = -1\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    for argv, named in (
        (["--n", "4", "--seed", "-1"], "argument --seed: must be a non-negative integer, got '-1'"),
        (["--config", str(cfg)], "config key 'seed': must be a non-negative integer, got '-1'"),
    ):
        assert main(["simulate-path", *argv, "--out", str(out)]) == 2, argv
        assert named in capsys.readouterr().err, argv
    assert not any(out.iterdir())


def _child_env() -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_unrunnable_exact_law_exits_at_once(tmp_path):
    # In a child process with a timeout, so a regression fails instead of
    # running without end.
    argv = ["couple", "--engine", "exact", "--law", "deterministic:inf", "--n", "4", "--out", str(tmp_path)]
    done = subprocess.run(
        [sys.executable, "-m", "renewalbm.cli", *argv],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert done.returncode == 2
    assert "invalid jump law deterministic:inf" in done.stderr
    assert not any(tmp_path.iterdir())


def test_exact_couple_past_the_step_budget_exits_at_once(tmp_path):
    # about 4e70 steps: refused before realization.csv is opened, in a child
    # process with a timeout, so a regression fails instead of streaming
    # without end
    argv = ["couple", "--engine", "exact", "--law", "deterministic:1e-70", "--n", "2", "--out", str(tmp_path)]
    done = subprocess.run(
        [sys.executable, "-m", "renewalbm.cli", *argv],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert done.returncode == 3
    assert done.stderr.startswith("error: exact realization of about 4e+70 steps is past the step budget")
    assert not any(tmp_path.iterdir())


# After parsing and after each command in turn, in one fresh interpreter:
# whether scipy is loaded and how many exit-time tables are built.
_COLD_START = """
import json, sys
import renewalbm.cli, renewalbm.exit_times

def loaded():
    return ["scipy" in sys.modules, renewalbm.exit_times._tables.cache_info().currsize]

renewalbm.cli.parse_config(["couple", "--n", "2"])
seen = [["parse_config", loaded()]]
for argv in json.loads(sys.argv[1]):
    assert renewalbm.cli.main(argv + ["--out", sys.argv[2]]) == 0, argv
    seen.append([argv[0], loaded()])
print(json.dumps(seen))
"""


def test_only_exact_draws_load_scipy_and_the_exit_tables(tmp_path):
    # A child process, so the test process's own imports cannot hide a
    # module-level import of scipy or a table built at import.
    commands = [
        ["rate", "--n-grid", "4,8", "--reps", "2", "--workers", "1"],
        ["trace", "--n-grid", "4", "--reps", "2"],
        ["couple", "--engine", "grid", "--n", "4"],
        ["simulate-path", "--n", "4"],
        ["couple", "--engine", "exact", "--n", "4"],
    ]
    done = subprocess.run(
        [sys.executable, "-c", _COLD_START, json.dumps(commands), str(tmp_path)],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == [
        ["parse_config", [False, 0]],
        ["rate", [False, 0]],
        ["trace", [False, 0]],
        ["couple", [False, 0]],
        ["simulate-path", [False, 0]],
        ["couple", [True, 1]],
    ]


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


def _printed(stdout):
    return dict(item.split("=", 1) for item in stdout.split()[1:])


@pytest.mark.parametrize("law", ["uniform01", "two_point:0,1,0.5"])
@pytest.mark.parametrize("n", [8, 32, 64])
def test_streamed_exact_couple_writes_the_built_realization(tmp_path, capsys, monkeypatch, law, n):
    # The realization built with the default blocks, written whole ...
    jump_law = parse_law(law)
    real = build_coupled_realization(
        jump_law, scaling_constants(jump_law, 2.0, n), derived_rng(9, ROLE_COUPLE, n, 0), engine="exact"
    )
    write_realization_csv(tmp_path / "built.csv", real, 9)
    # ... is what the command streams in blocks of 64 steps: every
    # realization spans several blocks, and the zero atom of two_point
    # repeats knots and signs zeros
    monkeypatch.setattr(renewalbm.coupling, "EXACT_BLOCK", 64)
    argv = ["couple", "--engine", "exact", "--law", law, "--n", str(n), "--seed", "9"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    items = _printed(capsys.readouterr().out)
    assert (tmp_path / "realization.csv").read_bytes() == (tmp_path / "built.csv").read_bytes()
    assert int(items["steps"]) == real.n_steps
    diag = embedding_diagnostics(real)
    for key in ("mean_exit_time", "mean_duration", "second_moment_ratio"):
        assert float(items[key]) == pytest.approx(diag[key], rel=1e-5)


def _couple_peak(tmp_path, n):
    tracemalloc.start()
    try:
        code = main(["couple", "--engine", "exact", "--n", str(n), "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_streamed_exact_couple_memory_does_not_grow_with_n(tmp_path, capsys):
    # n = 128 fits in one block, n = 512 takes nine
    small, large = _couple_peak(tmp_path, 128), _couple_peak(tmp_path, 512)
    assert large < 20e6
    assert small <= large


def test_exact_budget_refuses_the_build_but_not_the_stream(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(renewalbm.errors, "ALLOC_BUDGET_BYTES", 8 * 1000)
    sched = scaling_constants(parse_law("uniform01"), 2.0, 64)
    with pytest.raises(BudgetError):
        build_coupled_realization(parse_law("uniform01"), sched, derived_rng(0, ROLE_COUPLE, 64, 0), engine="exact")
    assert main(["couple", "--engine", "exact", "--n", "64", "--out", str(tmp_path)]) == 0
    assert int(_printed(capsys.readouterr().out)["steps"]) > 1000


def test_non_finite_alpha_exits_2_and_writes_no_file(tmp_path, capsys):
    argv = ["rate", "--n-grid", "4,8", "--reps", "3"]
    assert main([*argv, "--alpha", "inf", "--out", str(tmp_path)]) == 2
    assert "alpha must be positive and finite, got inf" in capsys.readouterr().err
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("alpha = inf\n", encoding="utf-8")
    assert main([*argv, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "alpha must be positive and finite, got inf" in capsys.readouterr().err
    assert not (tmp_path / "rate.csv").exists()
    assert not (tmp_path / "rate_summary.txt").exists()


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

    cfg.write_text("grid_step_divisor = 1000\n", encoding="utf-8")
    for command in ("couple", "rate"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "unknown config key 'grid_step_divisor'" in capsys.readouterr().err

    # values go through the flags' own types and choices
    cfg.write_text("n = 6\nengine = fancy\n", encoding="utf-8")
    assert main(["couple", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "fancy" in capsys.readouterr().err
    # a value its type cannot convert is reported under its key
    cfg.write_text("n = 6\nk = abc\n", encoding="utf-8")
    assert main(["simulate-path", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "config key 'k': could not convert string to float: 'abc'" in capsys.readouterr().err
    cfg.write_text("n_grid = 4,x\n", encoding="utf-8")
    assert main(["trace", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "config key 'n_grid': must be comma-separated integers, got '4,x'" in capsys.readouterr().err
    cfg.write_text("n = 6\nexport_grid_path = yes\n", encoding="utf-8")
    assert main(["couple", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "grid_path.csv").exists()


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


def test_gof_checks_s_and_t_before_simulating(tmp_path, capsys, monkeypatch):
    calls = []
    real_samples = renewalbm.cli.terminal_samples

    def recording(*args, **kw):
        calls.append(args)
        return real_samples(*args, **kw)

    monkeypatch.setattr(renewalbm.cli, "terminal_samples", recording)
    assert main(["gof", "--n", "32", "--s", "0.7", "--t", "0.3", "--out", str(tmp_path)]) == 2
    assert "need 0 <= s <= t <= 1" in capsys.readouterr().err
    assert calls == []
    assert not any(tmp_path.iterdir())
    assert main(["gof", "--n", "4", "--reps", "100", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


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


@pytest.mark.parametrize(
    "command, line, flag, from_file, from_flag",
    [
        (["rate", "--n-grid", "4,8"], "reps = 3", ["--reps", "5"], 3, 5),
        (["simulate-path", "--n", "4"], "k = 3.0", ["--k", "2.5"], 3.0, 2.5),
        (["simulate-path", "--n", "4"], "law = exponential:1", ["--law", "uniform01"], "exponential:1", "uniform01"),
        (["trace"], "n_grid = 4,8", ["--n-grid", "16,32"], (4, 8), (16, 32)),
        (["couple", "--n", "4"], "export_grid_path = no", ["--export-grid-path"], False, True),
    ],
    ids=["int", "float", "str", "n_grid", "bool"],
)
def test_flags_override_config_values(tmp_path, command, line, flag, from_file, from_flag):
    key = line.split(" = ")[0]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    argv = command + ["--config", str(cfg)]
    assert getattr(parse_config(argv), key) == from_file
    assert getattr(parse_config(argv + flag), key) == from_flag


def test_parsed_defaults():
    common = {"law": "uniform01", "k": 2.0, "seed": 0, "out": ".", "config": None}
    want = {
        "simulate-path": {"n": 4},
        "couple": {"n": 4, "engine": "grid", "export_grid_path": False},
        "rate": {"n_grid": (4,), "reps": 200, "alpha": None, "workers": 1},
        "gof": {"n": 4, "reps": 5000, "s": 0.5, "t": 1.0},
        "trace": {"n_grid": (4,), "reps": 100},
    }
    for command, own in want.items():
        scale = ["--n-grid", "4"] if "n_grid" in own else ["--n", "4"]
        assert vars(parse_config([command] + scale)) == {"command": command, **common, **own}
