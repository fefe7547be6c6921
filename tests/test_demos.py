import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo: Path) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )


def test_four_demos():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr
    if demo.name.startswith("03"):
        ratio = re.search(r"Carleson packing ratio: ([0-9.]+)", proc.stdout)
        assert ratio and float(ratio.group(1)) <= 2.0
