"""Every import of a package module is used, every ``__all__`` entry
resolves, and every private module-level name is used elsewhere in the
package, so that a deleted function leaves no dead import, export or helper
behind.  The package's modules form a stack: every import of another
package module sits at module level, and the imports make no cycle.
Checked with the stdlib ``ast`` module; ``__init__.py`` only re-exports."""

import ast
import graphlib
import importlib
import inspect
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


def _defined(node: ast.stmt) -> list[str]:
    """The names a module-level function, class or assignment defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _referenced(node: ast.AST) -> set[str]:
    """The names read in ``node``, bare or as an attribute; an import or a
    docstring's text is no reference."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


@pytest.mark.parametrize("module", MODULES)
def test_every_private_name_is_used(module):
    # private: a leading underscore, or missing from the module's __all__;
    # used: referenced by some module-level statement of the package other
    # than its own definition
    statements = [
        (name, k, _referenced(node))
        for name in [*MODULES, "__init__"]
        for k, node in enumerate(_tree(name).body)
    ]
    tree = _tree(module)
    exported = set(_exported(tree))
    unused = [
        name
        for k, node in enumerate(tree.body)
        for name in _defined(node)
        if not name.startswith("__")
        and (name.startswith("_") or name not in exported)
        and not any(name in refs for m, j, refs in statements if (m, j) != (module, k))
    ]
    assert unused == [], f"{module}.py defines private names that nothing uses"


# the parameter annotations and names of a per-pair argument
_PER_PAIR = ("AtomicMeasure", "DyadicGrid")
_PER_PAIR_NAMES = {"mu", "sigma", "w", "grid"}


def _takes_a_pair(fn) -> bool:
    params = inspect.signature(fn).parameters.values()
    return any(
        p.name in _PER_PAIR_NAMES or any(t in str(p.annotation) for t in _PER_PAIR) for p in params
    )


@pytest.mark.parametrize("module", MODULES)
def test_per_pair_caches_are_small(module):
    # what is derived from one pair lives in its grid's memo and is freed
    # with the grid; a module-level cache keyed by a measure or a grid keeps
    # at most the last few pairs, however many pairs a process analyses
    mod = importlib.import_module(f"h2w.{module}")
    large = [
        name
        for name, value in vars(mod).items()
        if callable(getattr(value, "cache_parameters", None))
        and getattr(value, "__module__", None) == mod.__name__
        and _takes_a_pair(value.__wrapped__)
        and (value.cache_parameters()["maxsize"] is None or value.cache_parameters()["maxsize"] > 8)
    ]
    assert large == [], f"{module}.py caches per-pair values past 8 entries"


def test_the_cache_check_sees_the_caches():
    import h2w.haar as haar
    import h2w.hilbert as hilbert

    assert _takes_a_pair(haar.node_table.__wrapped__)
    assert not _takes_a_pair(hilbert._ranks.__wrapped__)
    assert hilbert._ranks.cache_parameters()["maxsize"] > 8


def test_the_walks_see_the_package():
    assert len(MODULES) >= 12
    assert len(_imported(_tree("corona"))) > 10 and len(_exported(_tree("corona"))) > 10


def _package_imports(nodes) -> set[str]:
    """The package modules that the relative imports among ``nodes`` name;
    ``from . import x`` names module x, or ``__init__`` for any other x."""
    out = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(a.name if a.name in MODULES else "__init__" for a in node.names)
    return out


@pytest.mark.parametrize("module", MODULES)
def test_no_import_inside_a_function(module):
    # a deferred import hides a cycle or a module's place in the stack
    deferred = sorted(
        (fn.name, node.lineno)
        for fn in ast.walk(_tree(module))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.ImportFrom) and node.level
    )
    assert deferred == [], f"{module}.py imports from the package inside functions"


def test_module_imports_make_no_cycle():
    # every import counts, one inside a function too: deferring an import
    # leaves the cycle in place
    graph = {name: _package_imports(ast.walk(_tree(name))) for name in [*MODULES, "__init__"]}
    try:
        order = list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"the package's module-level imports make a cycle: {exc.args[1]}")
    assert order.index("grid") < order.index("haar") < order.index("corona") < order.index("cli")
