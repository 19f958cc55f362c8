"""Every public function, class, method or property of the package has a caller that is not a test.

A module-level name in ``src/blobflow``, or a public method or property of
a public class there, counts as used when its name is read (as a name or
an attribute) in ``src/`` outside ``__init__.py`` and outside its own
definition, or in ``perfbench/``.  A string passed to
``getattr`` and a method the benchmark tracer wraps (its ``METHODS``) are
reads too.  Imports and ``__init__`` re-exports do not count, so a helper
only the tests call fails here.  The exceptions are the names a README
sentence promises; each is listed with that sentence's phrase, which must
still be in the README.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blobflow"
TRACER = ROOT / "perfbench" / "tracing.py"

KEEP = {
    "w1_1d": "exact 1d sorted-order W1/W2",
    "stability_bound": "the induced stability envelope",
}

DEFS = (ast.FunctionDef, ast.ClassDef)


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _public_definitions() -> set:
    names = set()
    for path in _modules():
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, DEFS) and not node.name.startswith("_"):
                names.add(node.name)
                if isinstance(node, ast.ClassDef):
                    names |= {f.name for f in node.body if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")}
    return names


def _reads(node, own: frozenset, used: set) -> None:
    """Add every name, attribute and getattr string under node that is not one of the enclosing definitions."""
    if isinstance(node, DEFS):
        own = own | {node.name}
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr" and len(node.args) > 1:
        arg = node.args[1]
        name = arg.value if isinstance(arg, ast.Constant) and isinstance(arg.value, str) else None
    if name is not None and name not in own:
        used.add(name)
    for child in ast.iter_child_nodes(node):
        _reads(child, own, used)


def _traced_methods() -> set:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["METHODS"]:
            return {meth for _, _, meth in ast.literal_eval(node.value)}
    raise AssertionError("METHODS not found in perfbench/tracing.py")


def _uses() -> set:
    """Names and attributes read in the package and benchmark, each outside its own definition."""
    used = _traced_methods()
    for path in _modules() + sorted((ROOT / "perfbench").glob("*.py")):
        _reads(ast.parse(path.read_text()), frozenset(), used)
    return used


def test_every_public_name_has_a_non_test_caller():
    unused = _public_definitions() - _uses()
    assert unused == set(KEEP), f"public names only tests use: {sorted(unused - set(KEEP))}"


def test_kept_names_are_promised_by_the_readme():
    readme = (ROOT / "README.md").read_text()
    assert {name for name, phrase in KEEP.items() if phrase not in readme} == set()
