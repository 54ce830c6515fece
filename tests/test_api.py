"""Every exported name and every name the benchmark traces resolves, and
every exported name has a caller outside the tests.

perfbench/spans.py wraps its TARGETS with a plain getattr, so a deleted or
renamed function breaks traced benchmark runs; __all__ lists drift the
same way when a function goes.  A name only tests reach computes what no
fblab command prints.
"""

import ast
import importlib
import importlib.util
import pkgutil
import re
from collections import Counter
from pathlib import Path

import numpy as np

import fblab
from fblab import plfan
from fblab.expr import parse_expr, to_maxmin
from stored import stored_from_form

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


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


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def unreached_exports(root):
    """(module, name) for each __all__ name of root/src/fblab/*.py that no
    top-level statement of src/fblab reads, outside the one defining it (an
    import into __init__ is not a read), and that no word of root/perfbench/*.py
    names."""
    exports, reads = [], []
    for path in sorted((root / "src" / "fblab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if "__all__" in _defined_names(node):
                exports += [(path.stem, elt.value) for elt in node.value.elts]
            elif path.stem != "__init__":
                names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
                reads.append((path.stem, _defined_names(node), names))
    bench = {word for path in (root / "perfbench").glob("*.py")
             for word in re.findall(r"\w+", path.read_text())}
    return [(mod, name) for mod, name in exports
            if name not in bench
            and not any(name in names and not (m == mod and name in defined)
                        for m, defined, names in reads)]


def test_every_exported_name_has_a_caller_outside_the_tests():
    assert unreached_exports(ROOT) == []


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
    assert counts["plfan.hyperplanes"] == 3  # the break line and the two axes
    assert counts["plfan.cells"] == len(fan.cells) == 6
    assert counts["plfan.pl_value_many.points"] == 7
