"""Every public function or class of the package has a caller that is not a test.

A module-level name in ``src/blobflow`` counts as used when it appears (as
a name or an attribute) in ``src/`` outside ``__init__.py`` and outside its
own definition, in ``scripts/`` or in ``perfbench/``.  Imports and
``__init__`` re-exports do not count, so a helper only the tests call
fails here.  The exceptions are the names a README sentence promises; each
is listed with that sentence's phrase, which must still be in the README.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blobflow"

KEEP = {
    "w1_1d": "exact 1d sorted-order W1/W2",
    "stability_bound": "the induced stability envelope",
}


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _public_definitions() -> set:
    return {
        node.name
        for path in _modules()
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def _uses() -> set:
    """Names and attributes read in the package, scripts and benchmark, each outside its own definition."""
    used = set()
    for path in _modules() + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name != own:
                    used.add(name)
    return used


def test_every_public_name_has_a_non_test_caller():
    unused = _public_definitions() - _uses()
    assert unused == set(KEEP), f"public names only tests use: {sorted(unused - set(KEEP))}"


def test_kept_names_are_promised_by_the_readme():
    readme = (ROOT / "README.md").read_text()
    assert {name for name, phrase in KEEP.items() if phrase not in readme} == set()
