"""One draw and one record per pair inside a verify run, one corona
decomposition per function and stopping family, one kernel per pair,
and the telescoping and fixed-scan checks against their reference forms."""

import math
from collections import Counter

import numpy as np

import h2w.constants as constants
import h2w.corona as corona
import h2w.verify as verify
from h2w.haar import WeightedFunction, occupied_nodes
from h2w.verify import SUITE_NAMES, SuiteConfig, run_all, run_suite

CFG = SuiteConfig(seed=1, count=8, max_atoms=16, depth=10)


def _rows(suites):
    return [(r.suite, r.name, r.kind, r.ok, r.detail, r.replay) for s in suites for r in s.results]


def test_run_all_matches_separate_suites():
    assert _rows(run_all(CFG)) == _rows([run_suite(name, CFG) for name in SUITE_NAMES])


def test_kernel_scan_and_a2_once_per_pair(monkeypatch):
    counts = Counter()

    def counting(name, fn):
        def wrapped(sigma, w, *args, **kwargs):
            counts[name, sigma, w] += 1
            return fn(sigma, w, *args, **kwargs)

        return wrapped

    for name in ("kernel_scan", "a2_constant"):
        wrapped = counting(name, getattr(constants, name))
        monkeypatch.setattr(constants, name, wrapped)
        monkeypatch.setattr(verify, name, wrapped)
    draws = []
    draw = verify.random_ensemble

    def counted_draw(*args, **kwargs):
        draws.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(verify, "random_ensemble", counted_draw)
    run_all(CFG)
    assert len(draws) == 1
    # the invariance spot-check's dilated and mass-scaled pairs are distinct
    # pairs, so they too are scanned once each
    assert counts and max(counts.values()) == 1


def test_reused_martingale_differences_stay_checked(monkeypatch):
    real = verify.martingale_difference

    def skewed(f, i):
        md = real(f, i)
        return WeightedFunction(md.base, md.values * (1 + 1e-6))

    monkeypatch.setattr(verify, "martingale_difference", skewed)
    ok = {r.name: r.ok for r in run_suite("haar", CFG).results}
    assert not ok["martingale_forms_1e-12"]
    assert not ok["telescoping_1e-10"]
    assert ok["parseval_1e-9"] and ok["orthonormal_1e-12"]


def test_one_report_per_pair(monkeypatch):
    seeds = []
    real = verify.compute_report

    def counted(sigma, w, *args, **kwargs):
        seeds.append(kwargs["seed"])
        return real(sigma, w, *args, **kwargs)

    monkeypatch.setattr(verify, "compute_report", counted)
    run_all(CFG)
    # the energy suite and the theorem suite read the same reports
    assert seeds == [CFG.seed + idx for idx in range(CFG.count)]


def test_corona_pieces_once_per_function_and_family(monkeypatch):
    calls = Counter()
    real = corona.corona_pieces

    def counted(f, stopping):
        calls[f.values.tobytes(), stopping.members] += 1
        return real(f, stopping)

    monkeypatch.setattr(corona, "corona_pieces", counted)
    monkeypatch.setattr(verify, "corona_pieces", counted)
    run_suite("corona", SuiteConfig(seed=1, count=24, max_atoms=24))
    # the suite, corona_split and local_estimate_ratios share one
    # decomposition of f and one of g per stopping family
    assert sum(calls.values()) == len(calls) == 70


def _telescoping_dict_probe(f, nodes, diffs, root_mean):
    """The telescoping error as one dict probe per (node, ancestor level),
    each average a correctly rounded sum over the node's own atoms, and the
    ancestors added level by level."""
    mu = f.base
    m = mu.masses_f
    gaps = []
    for n in nodes:
        mass = math.fsum(m[n.lo : n.hi])
        total = root_mean
        for a in range(n.level):
            d = diffs.get((a, n.index >> (n.level - a)))
            if d is not None:
                total += math.fsum(d[n.lo : n.hi] * m[n.lo : n.hi]) / mass
        ej = math.fsum(f.values[n.lo : n.hi] * m[n.lo : n.hi]) / mass
        gaps.append(abs(ej - total) / max(1.0, abs(ej)))
    return float(np.max(gaps))


def test_telescoping_error_is_the_dict_probe(monkeypatch):
    seen = []
    real = verify._telescoping_error

    def compared(f, grid, diffs, root_mean):
        got = real(f, grid, diffs, root_mean)
        want = _telescoping_dict_probe(f, occupied_nodes(f.base, grid), diffs, root_mean)
        seen.append(got == want)
        return got

    monkeypatch.setattr(verify, "_telescoping_error", compared)
    run_suite("haar", SuiteConfig(seed=5, count=24, max_atoms=32, family="mixed"))
    assert len(seen) >= 40 and all(seen)


def test_fixed_scan_tests_only_the_intervals_inside_i_fixed(monkeypatch):
    calls = Counter()
    real = verify.is_good

    def counted(j, eps, r):
        calls[j.level, j.index] += 1
        return real(j, eps, r)

    monkeypatch.setattr(verify, "is_good", counted)
    run_suite("poisson", SuiteConfig(seed=1, count=2, max_atoms=8, family="mixed"))
    # levels 2 + r to 5 + r of the depth-12 grid, the quarter inside (2, 1)
    assert sum(calls.values()) == len(calls) == 960
    assert all(index >> (level - 2) == 1 for level, index in calls)


def test_one_kernel_build_per_pair_and_direction(monkeypatch):
    # every form of the corona suite reads its pair's kernel columns from
    # corona._form_columns, which builds each direction of a pair once
    real = corona._form_columns
    real.cache_clear()
    reads = Counter()
    kernels = set()

    def read(sigma, w, grid):
        columns = real(sigma, w, grid)
        reads[sigma, w, grid] += 1
        if columns.M.size:
            kernels.add((sigma, w, grid))
        return columns

    monkeypatch.setattr(corona, "_form_columns", read)
    run_suite("corona", SuiteConfig(seed=1, count=24, max_atoms=24))
    assert kernels and max(reads.values()) > 1
    assert real.cache_info().misses == len(reads)
