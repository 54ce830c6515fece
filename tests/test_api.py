"""Every exported name and every name the benchmark traces resolves.

perfbench/spans.py wraps its TARGETS with a plain getattr, so a deleted or
renamed function breaks traced benchmark runs; __all__ lists drift the
same way when a function goes.
"""

import importlib
import importlib.util
import pkgutil
from collections import Counter
from pathlib import Path

import numpy as np

import fblab
from fblab import plfan
from fblab.expr import parse_expr, to_maxmin
from stored import stored_from_form

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _fblab_modules():
    return [importlib.import_module(f"fblab.{info.name}")
            for info in pkgutil.iter_modules(fblab.__path__)]


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_target_resolves():
    spans = _spans()
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


def test_traced_counts_read_real_results():
    # the counters read a Fan's hyperplanes and cells and the length of
    # pl_value_many's result; a change of those shapes fails here first
    spans = _spans()
    counts = Counter()
    f = stored_from_form(to_maxmin(parse_expr("d(a) v (d(b) + 0.5*d(a))")), ("a", "b"))
    fan = plfan.arrangement_fan(f.fan.hyperplanes, ("a", "b"))
    spans._count_fan(counts, fan, (f.fan.hyperplanes, ("a", "b")), {}, None)
    values = plfan.pl_value_many(f, np.ones((7, 2)))
    spans._count_points(counts, values, (f, np.ones((7, 2))), {}, None)
    assert counts["plfan.arrangement_fan.calls"] == 1
    assert counts["plfan.hyperplanes"] == 1
    assert counts["plfan.cells"] == len(fan.cells) == 6
    assert counts["plfan.pl_value_many.points"] == 7
