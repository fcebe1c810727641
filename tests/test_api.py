"""The package root: README's library example runs and the exports match it."""

import re
from pathlib import Path

import renewalbm

README = Path(__file__).resolve().parents[1] / "README.md"

DOCUMENTED = {
    "uniform01",
    "exponential",
    "deterministic",
    "two_point",
    "scaling_constants",
    "transport_paths",
    "build_coupled_realization",
    "sup_distance",
    "decompose_sup",
    "ConsistencyError",
    "grid_exit",
    "rate_scale",
}


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs(capsys):
    exec(compile(_quick_start(), str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    assert float(printed[1]) > 0.0
    assert printed[2].startswith("SupDecomposition(")


def test_public_names_are_the_documented_ones():
    assert len(renewalbm.__all__) == len(set(renewalbm.__all__))
    assert set(renewalbm.__all__) == DOCUMENTED
    text = README.read_text(encoding="utf-8")
    for name in DOCUMENTED:
        assert re.search(rf"\b{name}\b", text), name
        assert getattr(renewalbm, name) is not None
