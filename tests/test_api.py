"""Every exported name and every name the benchmark traces resolves.

perfbench/spans.py wraps its TARGETS with a plain getattr, so a deleted or
renamed function breaks traced benchmark runs; __all__ lists drift the
same way when a function goes.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import fblab

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _fblab_modules():
    return [importlib.import_module(f"fblab.{info.name}")
            for info in pkgutil.iter_modules(fblab.__path__)]


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = [(mod, attr) for mod, attr, _, _ in spans.TARGETS
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []


def test_every_exported_name_exists():
    modules = _fblab_modules()
    assert len(modules) >= 9
    missing = [(m.__name__, name) for m in modules
               for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert missing == []
