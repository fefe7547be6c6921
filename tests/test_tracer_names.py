"""Every h2w name that the benchmark harness wraps or imports still exists.

``perfbench/tracer.py`` rebinds the functions it lists by name, and
``perfbench/run.py`` imports h2w names inside its workloads; a renamed or
deleted name would only fail a benchmark run.  The tracer's source is
executed in a fresh namespace and the runner's is only parsed, so nothing
is imported from or written under ``perfbench/``.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
RUNNER = TRACER.with_name("run.py")


@pytest.fixture(scope="module")
def tracer():
    if not TRACER.exists():
        pytest.skip("perfbench/ is not in this checkout")
    namespace = {"__name__": "tracer_names"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace


def test_every_traced_name_resolves(tracer):
    names = [
        *((module, attr) for module, attr, _ in tracer["SPANNED"]),
        tracer["SUITE_SPANNED"],
        *tracer["COUNTED"],
        tracer["CONSTRUCTED"],
    ]
    assert len(names) > 30
    missing = [
        f"h2w.{module}.{attr}"
        for module, attr in names
        if not hasattr(importlib.import_module(f"h2w.{module}"), attr)
    ]
    assert not missing


def test_constructed_class_defines_its_own_post_init(tracer):
    # the tracer counts constructions by rebinding this very attribute
    module, cls_name = tracer["CONSTRUCTED"]
    cls = getattr(importlib.import_module(f"h2w.{module}"), cls_name)
    assert "__post_init__" in vars(cls)


def test_every_name_the_runner_imports_resolves():
    if not RUNNER.exists():
        pytest.skip("perfbench/ is not in this checkout")
    names = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(RUNNER.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "h2w"
        for alias in node.names
    ]
    assert ("h2w", "Interval") in names and ("h2w", "dyadic") in names
    missing = [
        f"{module}.{name}"
        for module, name in names
        if not hasattr(mod := importlib.import_module(module), name)
        and not (hasattr(mod, "__path__") and importlib.util.find_spec(f"{module}.{name}"))
    ]
    assert not missing
