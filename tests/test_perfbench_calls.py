"""Every blobflow name the benchmark scripts import or call must still fit.

The perfbench/ scripts import blobflow functions by name and call them
with keyword arguments (``converge(cfg, threads=...)``,
``runner.execute(cfg, ...)``); a rename or a dropped parameter breaks the
benchmark without breaking any solver test.  This parses each script,
plus any Python held in its string constants (``oneoff.py`` runs a
snippet in a child interpreter), resolves every ``from blobflow... import``
name, and binds the arguments of every call to an imported function, or
to an attribute of an imported module or class, against its signature.
Calls on instances (``cfg.kernel_spec()``) are not followed.
"""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))


def _trees(path):
    """The script's syntax tree, then that of each string constant that imports blobflow."""
    tree = ast.parse(path.read_text())
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "blobflow" in node.value:
            try:
                inner = ast.parse(node.value)
            except SyntaxError:
                continue
            if any(isinstance(n, ast.ImportFrom) for n in ast.walk(inner)):
                yield inner


def _imported(tree) -> dict:
    """Local name -> object for every ``from blobflow... import`` in the tree."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "blobflow":
            mod = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(mod, alias.name):
                    obj = getattr(mod, alias.name)
                else:  # a submodule: from blobflow import runner
                    obj = importlib.import_module(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = obj
    return bound


def _callee(func, bound):
    """(dotted name, object) of a call target rooted at an imported name, else None."""
    parts = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name) or func.id not in bound:
        return None
    obj = bound[func.id]
    for attr in reversed(parts):
        if not (inspect.ismodule(obj) or inspect.isclass(obj)):
            return None
        if not hasattr(obj, attr):
            raise AssertionError(f"{func.id}.{'.'.join(reversed(parts))}: {attr!r} does not exist")
        obj = getattr(obj, attr)
    return ".".join([func.id, *reversed(parts)]), obj


def _calls(path):
    for tree in _trees(path):
        bound = _imported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                hit = _callee(node.func, bound)
                if hit is not None and callable(hit[1]):
                    yield node, *hit


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_perfbench_calls_bind(path):
    problems = []
    for node, name, obj in _calls(path):
        sig = inspect.signature(obj)
        keywords = {kw.arg: None for kw in node.keywords if kw.arg is not None}
        try:
            if any(isinstance(a, ast.Starred) for a in node.args) or len(keywords) < len(node.keywords):
                sig.bind_partial(**keywords)  # unpacked arguments: check the names only
            else:
                sig.bind(*[None] * len(node.args), **keywords)
        except TypeError as exc:
            problems.append(f"line {node.lineno}: {name}: {exc}")
    assert not problems, f"{path.name}: " + "; ".join(problems)


def test_perfbench_calls_are_found():
    found = {(path.name, name) for path in SCRIPTS for _, name, _ in _calls(path)}
    assert {
        ("oneoff.py", "converge"),
        ("oneoff.py", "write_trajectory_csv"),
        ("child.py", "runner.execute"),
        ("child.py", "runner.diagnose"),
        ("child.py", "ExperimentConfig.from_file"),
    } <= found
