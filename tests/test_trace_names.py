"""Every span name the benchmark's per-layer tracer reduces must exist.

perfbench/tracing.py wraps blobflow functions by name and reduces the
spans by name; a renamed or deleted function silently reads 0 there.
This reads the tracer's source (it is not imported) and resolves each
quoted "<layer>.<name>" span name on the blobflow module or class.
"""
import ast
import importlib
import inspect
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracing.py"
PREFIXES = {"transport.w2"}  # matched with startswith by the tracer


def _layers(tree) -> tuple:
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("LAYERS not found in perfbench/tracing.py")


def _span_names() -> set:
    tree = ast.parse(TRACER.read_text())
    pattern = re.compile(rf"({'|'.join(_layers(tree))})\.[A-Za-z_][\w.]*")
    quoted = {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and pattern.fullmatch(node.value)
    }
    # the per-layer metric names share the "<layer>.<what>" form; they are not spans
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return quoted - {m["name"] for m in bench["per_layer"]}


def _defined(mod, qualname: str) -> bool:
    """True when qualname is a function, or a class's method, that mod itself defines."""
    head, _, method = qualname.partition(".")
    obj = getattr(mod, head, None)
    if getattr(obj, "__module__", None) != mod.__name__:
        return False
    if method:
        return inspect.isclass(obj) and inspect.isfunction(getattr(obj, method, None))
    return inspect.isfunction(obj)


def test_tracer_span_names_resolve():
    names = _span_names()
    assert {"energy.mollified_density", "kernels.value_on_pairs", "fields.mollify"} <= names
    missing = []
    for name in sorted(names):
        layer, rest = name.split(".", 1)
        mod = importlib.import_module(f"blobflow.{layer}")
        if name in PREFIXES:
            found = any(k.startswith(rest) and _defined(mod, k) for k in vars(mod))
        else:
            found = _defined(mod, rest)
        if not found:
            missing.append(name)
    assert not missing, f"span names in perfbench/tracing.py with no blobflow function: {missing}"
