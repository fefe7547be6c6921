import gc
from collections import Counter
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import h2w.cli as cli
import h2w.constants as constants
import h2w.corona as corona
import h2w.verify as verify
from h2w.cli import _parser, main
from h2w.errors import InexactPosition
from h2w.grid import auto_grid
from h2w.haar import occupied_nodes
from h2w.measure import parse_pair_text, random_ensemble, read_pair_file

GOLDEN_PAIR = os.path.join(os.path.dirname(__file__), "golden", "pair.txt")

# three-atom measures at 1e150 and 2e150: N is finite, but the testing scan
# squares sigma-weighted kernel sums and overflows
OVERFLOW_PAIR = "[sigma]\n1 3 1e150\n3 3 1e150\n5 4 1e150\n[w]\n5 3 2e150\n7 3 2e150\n13 4 2e150\n"


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def pair_file(tmp_path, capsys):
    path = tmp_path / "pair.txt"
    code, _, _ = run_cli(
        ["gen", "--seed", "7", "--count", "1", "--max-atoms", "4", "--depth", "6", "-o", str(path)],
        capsys,
    )
    assert code == 0
    return str(path)


class TestGen:
    def test_single_file_roundtrips(self, pair_file):
        with open(pair_file) as fh:
            sigma, w = parse_pair_text(fh.read())
        assert sigma.n_atoms == 4 and w.n_atoms == 3

    def test_directory_output(self, tmp_path, capsys):
        outdir = tmp_path / "pairs"
        code, _, _ = run_cli(
            ["gen", "--seed", "2", "--count", "3", "--max-atoms", "4", "--depth", "6", "-o", str(outdir)],
            capsys,
        )
        assert code == 0
        assert sorted(os.listdir(outdir)) == ["pair_0000.txt", "pair_0001.txt", "pair_0002.txt"]


class TestConstants:
    def test_json_report(self, pair_file, capsys):
        code, out, _ = run_cli(["constants", pair_file, "--depth", "10"], capsys)
        assert code == 0
        body = json.loads(out)
        assert body["schema_version"] == 1
        assert body["norm_N"] > 0
        assert "paper_ratios" in body["meta"]
        assert body["config"]["version"]

    def test_csv_format(self, pair_file, capsys):
        code, out, _ = run_cli(
            ["constants", pair_file, "--depth", "10", "--format", "csv"], capsys
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert "norm_N" in header.split(",")
        assert len(header.split(",")) == len(row.split(","))

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("[sigma]\n1 2 1.0\nhalf a line\n[w]\n3 2 1.0\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["constants", str(bad)], capsys)
        assert exc.value.code == 2

    def test_common_mass_exit_3(self, tmp_path, capsys):
        shared = tmp_path / "shared.txt"
        shared.write_text("[sigma]\n1 2 1.0\n[w]\n1 2 2.0\n")
        code, _, err = run_cli(["constants", str(shared)], capsys)
        assert code == 3 and "point mass" in err

    def test_deep_a2_refinement_stays_finite(self, tmp_path, capsys):
        # its shortest A2 rungs once had no interior and made A2 NaN, exit 1
        path = str(tmp_path / "pair.txt")
        gen = ["gen", "--seed", "5", "--count", "1", "--max-atoms", "6", "--depth", "8", "-o", path]
        assert run_cli(gen, capsys)[0] == 0
        code, out, _ = run_cli(["constants", path, "--a2-refinement", "46"], capsys)
        assert code == 0
        assert json.loads(out)["a2"] == 41251.59948302509

    def test_micro_pair_norm_two(self, tmp_path, capsys):
        micro = tmp_path / "micro.txt"
        micro.write_text("[sigma]\n1 2 1.0\n[w]\n3 2 1.0\n")
        code, out, _ = run_cli(["constants", str(micro), "--depth", "8"], capsys)
        assert code == 0
        body = json.loads(out)
        assert body["norm_N"] == 2.0
        assert abs(body["a2"] - 10.24) < 1e-9

    def test_env_seed_override(self, pair_file, capsys, monkeypatch):
        monkeypatch.setenv("H2W_SEED", "99")
        code, out, _ = run_cli(["constants", pair_file, "--depth", "10", "--seed", "1"], capsys)
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 99


class TestInexactAtoms:
    @pytest.mark.parametrize("command", ["constants", "decompose", "poisson-test"])
    def test_exit_3_names_the_atom(self, command, tmp_path, capsys):
        # both positions underflow to 0.0 as doubles; accepted, they once
        # gave N = T = 0 and A2 = 4096 with exit 0
        deep = tmp_path / "deep.txt"
        deep.write_text("[sigma]\n1 2000 1.0\n[w]\n3 2000 1.0\n")
        code, out, err = run_cli([command, str(deep)], capsys)
        assert code == 3 and out == ""
        assert "1/2^2000" in err and "exact" in err

    def test_deep_scale_rejected_before_allocating(self, tmp_path, capsys):
        # 2^(10^7) would take 1.3 MB; no canonical scale above 1074 has a double
        text = "[sigma]\n1 10000000 1.0\n[w]\n3 2 1.0\n"
        deep = tmp_path / "deep.txt"
        deep.write_text(text)
        code, out, err = run_cli(["constants", str(deep)], capsys)
        assert code == 3 and out == ""
        assert "1/2^10000000" in err and "exact" in err
        tracemalloc.start()
        try:
            with pytest.raises(InexactPosition):
                parse_pair_text(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


def _far_pair(e: int) -> str:
    """sigma at 2^e, 2^(e-1), 2^(e-2) and w at -2^e, -2^(e-1), unit masses."""
    lines = ["[sigma]"] + [f"{1 << k} 0 1.0" for k in (e, e - 1, e - 2)]
    lines += ["[w]"] + [f"{-(1 << k)} 0 1.0" for k in (e, e - 1)]
    return "\n".join(lines) + "\n"


class TestFarApartAtoms:
    @pytest.mark.parametrize("command", ["constants", "decompose", "poisson-test"])
    @pytest.mark.parametrize("e", [508, 510, 1023])
    def test_exit_3_names_the_atoms(self, command, e, tmp_path, capsys):
        # at 2^508 the scan's largest cutoff, 8 * 2^509, squared past the
        # doubles in a Python ** (OverflowError); at 2^1023 the distances
        # were inf and the grid endpoints overflowed: tracebacks, exit 1
        far = tmp_path / "far.txt"
        far.write_text(_far_pair(e))
        code, out, err = run_cli([command, str(far)], capsys)
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert f"sigma atom at {2.0**e!r}" in err and "2^508" in err

    @pytest.mark.parametrize("command", ["constants", "decompose", "poisson-test"])
    def test_past_2_1023_is_refused_before_the_root_search(self, command, tmp_path, capsys):
        # auto_grid's root search takes float powers of two, and 2.0 ** 1024
        # overflows: the reach is checked before it
        far = tmp_path / "far.txt"
        far.write_text(f"[sigma]\n{3 << 1022} 0 1.0\n1 1 1.0\n[w]\n3 2 1.0\n")
        code, out, err = run_cli([command, str(far)], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: sigma atom at 1.348269851146737e+308") and "2^508" in err

    @pytest.mark.parametrize("command", ["constants", "decompose", "poisson-test"])
    def test_just_inside_the_reach_is_analysed(self, command, tmp_path, capsys):
        far = tmp_path / "far.txt"
        far.write_text(_far_pair(507))
        code, out, err = run_cli([command, str(far)], capsys)
        assert code == 0 and err == ""
        if command == "constants":
            assert json.loads(out)["norm_N"] > 0.0

    def test_kernel_scan_refuses_before_building(self):
        from h2w.constants import kernel_scan
        from h2w.errors import PreconditionViolation

        sigma, w = parse_pair_text(_far_pair(508))
        with pytest.raises(PreconditionViolation, match="2\\^508"):
            kernel_scan(sigma, w)


class TestDeepGrids:
    @pytest.fixture
    def probe_pair(self, tmp_path, capsys):
        # 5 x 5 atoms: the node table has up to 10 (depth + 1) rows, whose
        # indices and keys past level 62 are Python ints of about depth bits
        path = tmp_path / "pair.txt"
        args = ["gen", "--seed", "5", "--count", "1", "--max-atoms", "6", "--depth", "8"]
        assert run_cli(args + ["-o", str(path)], capsys)[0] == 0
        return str(path)

    @pytest.mark.parametrize("command", ["constants", "decompose", "poisson-test"])
    def test_huge_depth_refused_in_bounded_memory(self, command, probe_pair, capsys):
        # at depth 20000 the pair's 10-atom joint node table needs about
        # 4 GB; it exits 3 before the grid is built, with the same
        # tracemalloc peak at twice the depth and at depth 10^10, where the
        # grid's lattice numbers alone would take GBs
        peaks = []
        for depth in ("20000", "40000", "10000000000"):
            gc.collect()
            tracemalloc.start()
            try:
                code, out, err = run_cli([command, probe_pair, "--depth", depth], capsys)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 3 and out == ""
            assert err.startswith("error: a node table of 10 atoms at depth " + depth)
            peaks.append(peak)
        assert max(peaks[1:]) < 1.1 * peaks[0] + (64 << 10)
        assert max(peaks) < 16 << 20

    @pytest.mark.parametrize("command", ["decompose", "poisson-test"])
    def test_explicit_shift_refuses_huge_depth_in_bounded_memory(self, command, capsys):
        # an explicit shift builds its grid with build_grid, which refused
        # nothing here before: at depth 10^6 to 10^8 the grid's lattice
        # numbers of depth bits were built before an endpoint collision
        # ended the run (max RSS 33 to 84 MB)
        peaks = []
        for depth in ("1000000", "100000000", "10000000000"):
            argv = [command, GOLDEN_PAIR, "--shift-num", "1", "--shift-scale", "14"]
            gc.collect()
            tracemalloc.start()
            try:
                code, out, err = run_cli(argv + ["--depth", depth], capsys)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 3 and out == ""
            assert err.startswith("error: a node table of 17 atoms at depth " + depth)
            peaks.append(peak)
        assert max(peaks[1:]) < 1.1 * peaks[0] + (64 << 10)
        assert max(peaks) < 16 << 20

    def test_depth_2000_is_analysed(self, probe_pair, capsys):
        code, out, _ = run_cli(["constants", probe_pair, "--depth", "2000"], capsys)
        assert code == 0 and json.loads(out)["meta"]["depth"] == 2000


class TestPairTooLarge:
    @pytest.mark.parametrize("command", ["constants", "decompose"])
    def test_exit_3_names_the_atom_counts(self, command, tmp_path, capsys):
        # 386 atoms a side: the kernel stack would take 257 MiB
        lines = ["[sigma]"] + [f"{2 * a + 1} 12 1.0" for a in range(386)]
        lines += ["[w]"] + [f"{2 * a + 2} 12 1.0" for a in range(386)]
        big = tmp_path / "big.txt"
        big.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli([command, str(big)], capsys)
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "386 sigma and 386 w atoms" in err and "kernel stack" in err

    def test_huge_refinement_exits_3(self, tmp_path, capsys):
        # 5 x 1 atoms at refinement 10^6: refused from a floor of the
        # candidate count, before 32 MB of refined distances are built
        pair = tmp_path / "pair.txt"
        pair.write_text("[sigma]\n1 4 1.0\n3 4 1.0\n5 4 1.0\n7 4 1.0\n9 4 1.0\n[w]\n13 5 1.0\n")
        code, out, err = run_cli(["constants", str(pair), "--refinement", "1000000"], capsys)
        assert code == 3 and out == ""
        assert "5 sigma and 1 w atoms" in err and "kernel stack" in err

    def test_sweep_writes_nothing_on_a_refused_first_pair(self, tmp_path, capsys):
        # 970 x 1049 atoms: the first pair is refused before any output
        args = ["sweep", "--count", "1", "--max-atoms", "2048", "--depth", "12"]
        code, out, err = run_cli(args, capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "kernel stack" in err
        path = tmp_path / "sweep.csv"
        assert run_cli(args + ["-o", str(path)], capsys)[0] == 3
        assert not path.exists()


class TestNonFiniteConstants:
    @pytest.mark.parametrize("mass", ["1e308", "1e200"])
    def test_exit_1_with_one_error_line(self, mass, tmp_path, capsys):
        # 1e308 once printed "norm_N": NaN and "a2": Infinity with exit 0;
        # 1e200 died with a bare AssertionError traceback
        huge = tmp_path / "huge.txt"
        huge.write_text(f"[sigma]\n1 2 {mass}\n[w]\n3 2 {mass}\n")
        code, out, err = run_cli(["constants", str(huge)], capsys)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert [ln for ln in lines if ln.startswith("error:")] == lines[-1:]
        assert "testing exceeded the norm" in lines[-1]

    @pytest.mark.parametrize("command", ["constants", "decompose", "poisson-test"])
    def test_every_pair_command_exits_1(self, command, tmp_path):
        # decompose and poisson-test once exited 0, decompose printing
        # "h_const": Infinity (not JSON) and poisson-test inf rows; numpy's
        # overflow warnings preceded the error line.  A subprocess, since
        # pytest captures warnings in-process.
        huge = tmp_path / "huge.txt"
        huge.write_text(OVERFLOW_PAIR)
        proc = subprocess.run(
            [sys.executable, "-m", "h2w.cli", command, str(huge)], capture_output=True, text=True
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")


class TestVerifyCommand:
    def test_haar_suite_passes(self, capsys):
        code, out, _ = run_cli(
            ["verify", "haar", "--seed", "1", "--count", "8", "--max-atoms", "12", "--depth", "9"],
            capsys,
        )
        assert code == 0
        assert "[ok ] haar.parseval_1e-9" in out

    def test_kernel_suite_contains_middle_regime_check(self, capsys):
        code, out, _ = run_cli(
            ["verify", "kernel", "--seed", "1", "--count", "4", "--max-atoms", "8", "--depth", "8"],
            capsys,
        )
        assert code == 0
        assert "kernel.middle_regime_factor_one" in out


class TestDecompose:
    def test_tree_schema(self, pair_file, capsys):
        code, out, _ = run_cli(["decompose", pair_file, "--depth", "9", "--seed", "4"], capsys)
        assert code == 0
        body = json.loads(out)
        tree = body["tree"]
        assert {"interval", "alpha", "reason", "children"} <= set(tree)
        assert tree["reason"] == "root"
        assert body["haar"]["sigma"]["coefficients"]


class TestPairFileGrid:
    @pytest.mark.parametrize("command", ["decompose", "poisson-test"])
    def test_empty_w_exit_3(self, command, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("[sigma]\n1 2 1.0\n5 3 2.0\n3 4 1.0\n[w]\n")
        code, out, err = run_cli([command, str(empty)], capsys)
        assert code == 3 and out == ""
        assert "h_const must be positive" in err

    @pytest.fixture
    def outside_pair(self, tmp_path):
        # every atom inside [1.125, 1.875], outside the unit root
        path = tmp_path / "outside.txt"
        path.write_text("[sigma]\n9 3 1.0\n11 3 2.0\n3 1 1.5\n[w]\n5 2 1.0\n13 3 0.5\n15 3 2.0\n")
        return str(path)

    def test_decompose_runs_on_auto_grid(self, outside_pair, capsys):
        # decompose and poisson-test once exited 3: their grid was the unit root
        code, out, _ = run_cli(["decompose", outside_pair], capsys)
        assert code == 0
        root = auto_grid(*read_pair_file(outside_pair), 12).root_interval
        box = json.loads(out)["tree"]["interval"]
        assert (box["left"], box["right"]) == (root.left_f, root.right_f) != (0.0, 1.0)

    def test_poisson_test_runs_on_auto_grid(self, outside_pair, capsys):
        code, out, _ = run_cli(["poisson-test", outside_pair], capsys)
        assert code == 0
        sigma, w = read_pair_file(outside_pair)
        grid = auto_grid(sigma, w, 12)
        rows = {line.split(",")[0] for line in out.splitlines()[2:]}
        assert {f"L{n.level}.{n.index}" for n in occupied_nodes(sigma, grid) if n.level <= 8} <= rows


class TestPoissonTest:
    def test_csv_rows(self, pair_file, capsys):
        code, out, _ = run_cli(["poisson-test", pair_file, "--depth", "10"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# h2w")
        assert lines[1].split(",")[:4] == ["interval", "forward_lhs", "forward_rhs", "forward_ratio"]
        assert len(lines) > 2


# every option that all subcommands once shared, with a value to give it
OPTION_VALUES = {
    "--seed": "1",
    "--count": "1",
    "--max-atoms": "4",
    "--depth": "6",
    "--eps": "0.49",
    "--r": "6",
    "--below-gap": "6",
    "--c0": "1.0",
    "--refinement": "8",
    "--a2-refinement": "6",
    "--family": "uniform",
    "--shift-num": "1",
    "--shift-scale": "3",
    "--format": "csv",
    "--output": "out.txt",
    "--jobs": "1",
    "--strict": None,
}
_ANALYSIS = ("--seed", "--depth", "--eps", "--r", "--c0", "--refinement")
_ENSEMBLE = ("--count", "--max-atoms", "--family")
# the README table
TAKES = {
    "gen": ("--seed", "--depth", *_ENSEMBLE, "--output"),
    "constants": (*_ANALYSIS, "--below-gap", "--a2-refinement", "--format", "--output"),
    "verify": (*_ANALYSIS, *_ENSEMBLE, "--below-gap", "--strict"),
    "decompose": (*_ANALYSIS, "--a2-refinement", "--shift-num", "--shift-scale", "--output"),
    "poisson-test": (*_ANALYSIS, "--a2-refinement", "--shift-num", "--shift-scale", "--output", "--below-gap"),
    "sweep": (*_ANALYSIS, *_ENSEMBLE, "--below-gap", "--a2-refinement", "--output", "--jobs"),
}
POSITIONAL = {"constants": ["p.txt"], "verify": ["all"], "decompose": ["p.txt"], "poisson-test": ["p.txt"]}
REFUSED = [(cmd, opt) for cmd in TAKES for opt in OPTION_VALUES if opt not in TAKES[cmd]]


class TestOptionSets:
    def argv(self, command, option):
        value = OPTION_VALUES[option]
        return [command, *POSITIONAL.get(command, []), option] + ([] if value is None else [value])

    @pytest.mark.parametrize("command,option", REFUSED)
    def test_ignored_option_is_refused(self, command, option, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.argv(command, option))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(TAKES))
    def test_taken_options_parse(self, command):
        for option in TAKES[command]:
            assert _parser().parse_args(self.argv(command, option)).command == command

    def test_defaults_stay_per_subcommand(self):
        # verify's own defaults must not reach the other ensemble commands
        parse = _parser().parse_args
        assert (parse(["verify", "all"]).family, parse(["verify", "all"]).count) == ("mixed", 60)
        for argv in (["gen"], ["sweep"]):
            assert (parse(argv).family, parse(argv).count) == ("uniform", 200)

    @pytest.mark.parametrize(
        "argv",
        [
            ["constants", GOLDEN_PAIR, "--depth", "0"],
            ["constants", GOLDEN_PAIR, "--eps", "0"],
            ["constants", GOLDEN_PAIR, "--eps", "0.5"],
            ["constants", GOLDEN_PAIR, "--r", "-1"],
            ["constants", GOLDEN_PAIR, "--below-gap", "0"],
            ["constants", GOLDEN_PAIR, "--c0", "0"],
            ["constants", GOLDEN_PAIR, "--c0", "-1"],
            ["constants", GOLDEN_PAIR, "--c0", "nan"],
            ["decompose", GOLDEN_PAIR, "--c0", "inf"],
            ["sweep", "--count", "1", "--max-atoms", "0"],
            ["sweep", "--count", "1", "--max-atoms", "5000"],
            ["gen", "--count", "1", "--max-atoms", "33", "--depth", "6"],
            ["verify", "all", "--count", "0"],
            ["constants", GOLDEN_PAIR, "--refinement", "-3"],
            ["constants", GOLDEN_PAIR, "--a2-refinement", "-5"],
            ["decompose", GOLDEN_PAIR, "--refinement", "-1"],
            ["sweep", "--count", "1", "--a2-refinement", "-1"],
            ["verify", "all", "--count", "1", "--refinement", "-2"],
            ["sweep", "--count", "2", "--max-atoms", "4", "--skip", "-1"],
            ["sweep", "--count", "1", "--max-atoms", "4", "--jobs", "0"],
            ["sweep", "--count", "1", "--max-atoms", "4", "--jobs", "-4"],
        ],
    )
    def test_out_of_range_value_exits_2(self, argv, capsys):
        # each once ended in a traceback (exit 1), in a calibration that
        # never settled (--c0 0) or, for a refinement of -1 or -2, a --skip
        # of -1 (rows appended with no header) or a --jobs below 1, in a run
        # that exited 0
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    @staticmethod
    def _no_draw(monkeypatch):
        # a refusal is a parse error: no ensemble is drawn
        def draw(*args, **kwargs):
            raise AssertionError("an ensemble was drawn")

        monkeypatch.setattr(cli, "random_ensemble", draw)
        monkeypatch.setattr(verify, "random_ensemble", draw)

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--seed", "-3"],
            ["constants", GOLDEN_PAIR, "--seed", "-3"],
            ["sweep", "--seed", "-3"],
            ["verify", "all", "--seed", "-3"],
            ["decompose", GOLDEN_PAIR, "--shift-num", "1", "--shift-scale", "-1"],
            ["decompose", GOLDEN_PAIR, "--shift-num", "1", "--shift-scale", "1075"],
            ["poisson-test", GOLDEN_PAIR, "--shift-num", "1", "--shift-scale", "10000000000"],
            ["gen", "--depth", "63"],
            ["gen", "--depth", "53"],
            ["sweep", "--depth", "53"],
            ["verify", "haar", "--depth", "64"],
        ],
    )
    def test_negative_seed_scale_and_deep_ensembles_exit_2(self, argv, monkeypatch, capsys):
        # each once ended in numpy's ValueError or OverflowError (exit 1) or,
        # at gen --depth 53, in InexactPosition after the draw (exit 3)
        self._no_draw(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "1.5", "-5"])
    def test_bad_env_seed_exits_2(self, value, tmp_path, monkeypatch, capsys):
        self._no_draw(monkeypatch)
        monkeypatch.setenv("H2W_SEED", value)
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--count", "1", "--max-atoms", "4", "--depth", "6", "-o", str(tmp_path / "p.txt")])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: H2W_SEED")

    def test_finest_shift_scale_is_analysed(self, capsys):
        # 2^-1074, the finest scale of a double, is the largest accepted
        argv = ["decompose", GOLDEN_PAIR, "--shift-num", "1", "--shift-scale", "1074"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and json.loads(out)["config"]["shift_scale"] == 1074

    def test_depth_52_still_draws(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        code, _, _ = run_cli(["gen", "--count", "1", "--max-atoms", "4", "--depth", "52", "-o", str(path)], capsys)
        assert code == 0 and read_pair_file(str(path))[0].n_atoms >= 1

    @pytest.mark.parametrize("count,drawn", [(["--count", "61"], 61), ([], 60)])
    def test_verify_draws_count_pairs(self, count, drawn, monkeypatch, capsys):
        # the count was clamped to 60 without a word
        counts = []
        draw = verify.random_ensemble

        def spy(seed, count, *args, **kwargs):
            counts.append(count)
            return draw(seed, 2, *args, **kwargs)

        monkeypatch.setattr(verify, "random_ensemble", spy)
        run_cli(["verify", "haar", *count, "--max-atoms", "4", "--depth", "6"], capsys)
        assert counts == [drawn]


class TestSweep:
    def test_header_only_when_empty(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(["sweep", "--count", "0", "-o", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 2 and lines[1].startswith("index,seed")

    def test_deterministic_and_resumable(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["sweep", "--count", "4", "--max-atoms", "8", "--depth", "10"]
        assert run_cli(args + ["-o", str(a)], capsys)[0] == 0
        assert run_cli(args + ["-o", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()
        # simulate an interrupted run: keep the header and first two rows,
        # then resume with --skip
        partial = tmp_path / "partial.csv"
        partial.write_text("".join(a.read_text().splitlines(keepends=True)[:4]))
        assert (
            run_cli(
                ["sweep", "--count", "4", "--max-atoms", "8", "--depth", "10", "--skip", "2", "-o", str(partial)],
                capsys,
            )[0]
            == 0
        )
        assert partial.read_bytes() == a.read_bytes()


    def test_rows_do_not_accumulate_memory(self):
        # each row's grid, and the node lists and trunk tables in its memo,
        # are freed with the row; once module-level caches kept every pair
        # seen, about 12 KB a row (501 KB over these 39 rows)
        pairs = random_ensemble(11, 60, 32, 12)
        cfg = cli.RunConfig()
        retained = {}
        tracemalloc.start()
        try:
            for i in range(len(pairs)):
                sigma, w = pairs[i]
                pairs[i] = None
                cli._sweep_row((i, sigma, w, cfg))
                del sigma, w
                gc.collect()
                retained[i] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained[59] - retained[20] < 128 << 10

    def test_one_kernel_prefix_per_report_and_per_row(self, monkeypatch):
        """compute_report builds the sigma -> w kernel prefix once for all its
        local ratios, and the row once more for its reduction residual and
        corona split, which also build w -> sigma once."""
        builds, forms = Counter(), Counter()
        phase = ["row"]
        real_prefix, real_form, real_report = (
            corona._kernel_prefix,
            corona._form_prefix,
            cli.compute_report,
        )

        def counted(sigma, w):
            builds[phase[0], sigma, w] += 1
            return real_prefix(sigma, w)

        def counted_form(sigma, w, grid):
            forms[phase[0], sigma, w] += 1
            return real_form(sigma, w, grid)

        def report(*args, **kwargs):
            phase[0] = "report"
            try:
                return real_report(*args, **kwargs)
            finally:
                phase[0] = "row"

        monkeypatch.setattr(corona, "_kernel_prefix", counted)
        for module in (corona, cli, constants):
            monkeypatch.setattr(module, "_form_prefix", counted_form, raising=False)
        monkeypatch.setattr(cli, "compute_report", report)
        cfg = cli.RunConfig(seed=3, count=12, family="mixed")
        pairs = random_ensemble(cfg.seed, cfg.count, cfg.max_atoms, cfg.depth, family=cfg.family)
        for i, (sigma, w) in enumerate(pairs):
            cli._sweep_row((i, sigma, w, cfg))
        assert max(builds.values()) == 1 and max(forms.values()) == 1
        assert {phase for phase, _, _ in builds} == {"report", "row"}

    def test_rows_carry_the_run_config(self, monkeypatch, capsys):
        # each task carries the RunConfig itself, not a dict rebuilt per row
        seen = []
        row = cli._sweep_row

        def recording(task):
            seen.append(task[3])
            return row(task)

        monkeypatch.setattr(cli, "_sweep_row", recording)
        code, _, _ = run_cli(["sweep", "--count", "3", "--max-atoms", "4", "--depth", "8"], capsys)
        assert code == 0
        assert len(seen) == 3 and all(type(cfg) is cli.RunConfig for cfg in seen)

    def test_same_rows_with_two_jobs(self, capsys):
        args = ["sweep", "--seed", "4", "--count", "6", "--max-atoms", "8", "--family", "mixed"]
        one = run_cli(args + ["--jobs", "1"], capsys)
        two = run_cli(args + ["--jobs", "2"], capsys)
        assert one[0] == two[0] == 0 and one[1] == two[1]

    @pytest.mark.parametrize(
        "jobs, count, cpus, started",
        [
            ("10000", "1", 64, []),
            ("10000", "5", 3, [3]),
            ("10000", "2", 64, [2]),
            ("2", "5", 64, [2]),
            ("4", "5", 1, []),
            ("4", "5", None, []),
        ],
    )
    def test_jobs_capped_by_tasks_and_processors(self, monkeypatch, capsys, jobs, count, cpus, started):
        # a recording stand-in for the pool, so that no process is started
        made = []

        class RecordingPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        argv = ["sweep", "--count", count, "--max-atoms", "4", "--depth", "8", "--jobs", jobs]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and len(out.splitlines()) == 2 + int(count)
        assert made == started

    @pytest.mark.parametrize("jobs, count", [("1", "3"), ("10000", "1")])
    def test_one_worker_reads_no_processor_count(self, monkeypatch, capsys, jobs, count):
        def refused():
            raise AssertionError("one worker needs no processor count")

        monkeypatch.setattr(cli.os, "cpu_count", refused)
        argv = ["sweep", "--count", count, "--max-atoms", "4", "--depth", "8", "--jobs", jobs]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and len(out.splitlines()) == 2 + int(count)


class TestEntryPoint:
    def test_repeated_in_process_calls_match_fresh_runs(self, pair_file, capsys, monkeypatch):
        # one parser serves every call; the seed is still read per call
        sweep = ["sweep", "--seed", "3", "--count", "2", "--max-atoms", "4", "--depth", "8"]
        calls = [
            (sweep, None),
            (["decompose", pair_file, "--depth", "9"], "5"),
            (["verify", "haar", "--count", "2", "--max-atoms", "4", "--depth", "6"], "2"),
            (sweep, None),
        ]
        for argv, env_seed in calls:
            env = dict(os.environ)
            env.pop("H2W_SEED", None)
            monkeypatch.delenv("H2W_SEED", raising=False)
            if env_seed is not None:
                env["H2W_SEED"] = env_seed
                monkeypatch.setenv("H2W_SEED", env_seed)
            code, out, _ = run_cli(argv, capsys)
            fresh = subprocess.run(
                [sys.executable, "-m", "h2w.cli", *argv], capture_output=True, text=True, env=env
            )
            assert (code, out) == (fresh.returncode, fresh.stdout), argv

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "h2w.cli", "--version"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "h2w" in proc.stdout
