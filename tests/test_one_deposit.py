"""One particle->grid deposit path: only ``energy.mollified_density`` opens a window.

The energy, the velocity, the gridded fields and the error term all read
the ``energy.Deposit`` that function builds, so a function anywhere else
in the package that calls ``.window(`` is a second window->evaluate->deposit
copy, and fails here.  The window cuts itself into row blocks
(``Window.blocks``), so only ``grids`` knows the block size, and it forms
the flat indices and gathers the boxes itself, so only ``grids`` knows how a
window's node indices ``at`` are laid out.  The deposit gathers back through
its own pairs (``Deposit.contract``), so only ``energy`` knows the route a
deposit took and how its ``pairs`` are laid out.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "blobflow"


def _window_callers() -> set:
    """(module, qualified name) of every package function whose own body calls ``.window(``."""
    found = set()

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{owner}.{child.name}" if owner else child.name
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and child.func.attr == "window":
                found.add((module, owner or "<module>"))
            visit(child, module, inner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return found


def test_only_mollified_density_opens_a_window():
    assert _window_callers() == {("energy", "mollified_density")}


def test_only_grids_reads_the_block_size():
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            names |= {alias.name for alias in getattr(node, "names", ()) if isinstance(alias, ast.alias)}
            if "BLOCK_PAIRS" in names:
                readers.add(path.stem)
    assert readers == {"grids"}


def _attribute_readers(attr: str) -> set:
    """The package modules that read ``.<attr>`` anywhere."""
    return {path.stem for path in sorted(PACKAGE.glob("*.py"))
            if any(isinstance(node, ast.Attribute) and node.attr == attr for node in ast.walk(ast.parse(path.read_text())))}


def test_only_grids_reads_a_windows_node_indices():
    assert _attribute_readers("at") == {"grids"}


def test_only_energy_reads_a_deposits_pairs():
    assert _attribute_readers("pairs") == {"energy"}
