"""Every attribute the benchmark's tracer wraps still exists.

bench/tracing.py patches functions at the module attributes their callers
look them up by; a refactor that renames or drops one of those imports
would make every traced benchmark invocation fail.  This resolves each
path in its SITES table without running anything.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_sites_resolve():
    tracing = _load_tracing()
    paths = [path for _, paths, _ in tracing.SITES for path in paths]
    assert paths
    for path in paths:
        owner, attr = tracing.owner_of(path)
        assert callable(getattr(owner, attr, None)), path
