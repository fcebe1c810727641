"""The names bench/tracing.py wraps exist in the program, and a Tracer puts
every one of them back when its block ends."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_every_traced_name_exists_and_is_restored():
    # Tracer.patch reads each attribute before replacing it, so a name the
    # program no longer has fails here with AttributeError.
    with tracing.Tracer() as tracer:
        tracing.install_layers(tracer)
        tracing.install_pool(tracer)
        originals = {}
        for module, attr, original in tracer._patches:
            originals.setdefault((module, attr), original)
        for (module, attr), original in originals.items():
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr} is not wrapped"
    names = {f"{module.__name__}.{attr}" for module, attr in originals}
    assert {"renewalbm.cli.build_coupled_realization", "renewalbm.csvio.write_realization_csv",
            "renewalbm.csvio.write_rate_csv", "renewalbm.csvio.write_summary",
            "renewalbm.experiments.Pool"} <= names
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} was not restored"
