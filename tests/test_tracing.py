"""The benchmark's tracer must find every name it wraps.

`bench/tracing.py` looks its targets up by module and attribute path only
when a traced run starts, so a renamed or moved function would break
`bench/run.py --trace 1` without failing any other test.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_every_traced_target_resolves():
    for name, module, path in tracing.SPANNED + tracing.COUNTED:
        owner, attr = tracing._resolve(module, path)
        assert callable(getattr(owner, attr, None)), name


def test_every_cleared_cache_exists():
    torus = importlib.import_module("aomega.torus")
    for name in tracing.LRU_CACHES:
        assert callable(getattr(torus, name).cache_clear), name
