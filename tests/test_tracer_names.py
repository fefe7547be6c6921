"""Every h2w name that the benchmark's tracer wraps still exists.

``perfbench/tracer.py`` rebinds the functions it lists by name; a renamed
or deleted function would only fail a traced benchmark run.  The tracer's
source is executed in a fresh namespace, so nothing is imported from or
written under ``perfbench/``.
"""

import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
