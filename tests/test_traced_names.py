import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_resolves():
    # the benchmark's tracer wraps these by name with no fallback, so a
    # rename or deletion in the package breaks every traced run
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for mod_name, owner_name, attr, _ in tracing.TRACED:
        target = importlib.import_module(f"intervalcolor.{mod_name}")
        if owner_name is not None:
            target = getattr(target, owner_name)
        assert callable(getattr(target, attr, None)), (mod_name, owner_name, attr)
