"""Every import of a package module is used, and every ``__all__`` entry
resolves, so that a deleted function leaves no dead import or export behind.
Checked with the stdlib ``ast`` module; ``__init__.py`` only re-exports."""

import ast
import importlib
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "h2w"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _imported(tree: ast.Module) -> dict[str, int]:
    """The name each import binds, with its line; ``__future__`` excluded."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = _tree(module)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = {
        name: line
        for name, line in _imported(tree).items()
        if name not in used and name not in _exported(tree)
    }
    assert unused == {}, f"{module}.py imports names it never uses"


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    mod = importlib.import_module(f"h2w.{module}")
    missing = [name for name in _exported(_tree(module)) if not hasattr(mod, name)]
    assert missing == [], f"{module}.__all__ names what the module does not define"


def test_the_walks_see_the_package():
    assert len(MODULES) >= 12
    assert len(_imported(_tree("corona"))) > 10 and len(_exported(_tree("corona"))) > 10
