"""The CI workflow stays in step with the tier-1 command and the CLI."""

import re
from pathlib import Path

import pytest

from renewalbm.cli import _COMMANDS, _build_parser

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parent.parent


def _steps():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8"))
    return {step["name"]: step.get("run", "") for step in workflow["jobs"]["tier1"]["steps"] if "name" in step}


def test_tier1_step_runs_the_roadmap_verify_command():
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap).group(1)
    assert _steps()["Tier-1 tests and release gate"].strip() == command


def test_smoke_step_runs_every_subcommand():
    smoke = _steps()["Console script smoke"]
    for command in _COMMANDS:
        assert re.search(rf"^\s*(timeout \d+ )?renewalbm {re.escape(command)}\b", smoke, re.M), command


def test_smoke_lines_pass_only_declared_flags():
    # A flag deleted from the CLI but left in the workflow would otherwise
    # fail only on a runner.
    commands = _build_parser()[1]
    smoke = _steps()["Console script smoke"]
    lines = re.findall(r"^\s*(?:timeout \d+ )?renewalbm ([a-z][\w-]*)(.*)$", smoke, re.M)
    assert {command for command, _ in lines} == set(_COMMANDS)
    for command, rest in lines:
        declared = commands[command][0]._option_string_actions
        for flag in re.findall(r"(?<!\S)--[\w-]+", rest):
            assert flag in declared, (command, flag)
