"""Byte-for-byte comparison of CLI outputs with recorded golden files.

The files under ``tests/golden/`` were written by the CLI itself:

    h2w gen --count 1 --max-atoms 16 -o pair.txt
    h2w sweep --count 8 --max-atoms 16 > sweep.csv
    h2w sweep --count 12 --max-atoms 32 > sweep-32.csv
    h2w constants pair.txt > constants.json
    h2w decompose pair.txt > decompose.json
    h2w poisson-test pair.txt > poisson-test.csv
    h2w poisson-test pair.txt --shift-num 1 --shift-scale 14 > poisson-test-shift.csv
    h2w verify haar --count 8 --max-atoms 12 --depth 9 > verify-haar.txt
    h2w verify all --count 8 --max-atoms 16 --depth 10 > verify-all.txt

A change that moves any of these bytes must re-record the file and account
for every digit that moves.
"""

from pathlib import Path

import pytest

from h2w.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
PAIR = str(GOLDEN / "pair.txt")

CASES = {
    "sweep.csv": ["sweep", "--count", "8", "--max-atoms", "16"],
    "sweep-32.csv": ["sweep", "--count", "12", "--max-atoms", "32"],
    "constants.json": ["constants", PAIR],
    "decompose.json": ["decompose", PAIR],
    "poisson-test.csv": ["poisson-test", PAIR],
    "poisson-test-shift.csv": ["poisson-test", PAIR, "--shift-num", "1", "--shift-scale", "14"],
    "verify-haar.txt": ["verify", "haar", "--count", "8", "--max-atoms", "12", "--depth", "9"],
    "verify-all.txt": ["verify", "all", "--count", "8", "--max-atoms", "16", "--depth", "10"],
}


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("H2W_SEED", raising=False)


def test_gen_pair_file(tmp_path, capsys):
    out = tmp_path / "pair.txt"
    assert main(["gen", "--count", "1", "--max-atoms", "16", "-o", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / "pair.txt").read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes(name, capsys):
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / name).read_bytes()


def test_pair_commands_share_one_record(monkeypatch, capsys):
    # constants, decompose and poisson-test on one pair in one process read
    # one pair_constants record from the memo of the pair's one grid
    import h2w.constants as constants
    from h2w.grid import auto_grid

    auto_grid.cache_clear()
    real = constants.kernel_scan
    scans = []

    def counted(*args):
        scans.append(args)
        return real(*args)

    monkeypatch.setattr(constants, "kernel_scan", counted)
    for name in ("constants.json", "decompose.json", "poisson-test.csv"):
        assert main(CASES[name]) == 0
        assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
    assert len(scans) == 1
