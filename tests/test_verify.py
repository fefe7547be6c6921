"""One draw and one record per pair inside a verify run, one corona
decomposition per function and stopping family, one kernel per pair,
the telescoping and fixed-scan checks against their reference forms, the
kernel suite's blocked draws and scans against whole ones, and each
suite's memory peak."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

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


def _whole_triples(rng, n, d_range, x_range, off_range):
    """The kernel suite's triples as drawn whole, one array per draw."""
    d = rng.uniform(*d_range, size=n)
    x = rng.uniform(*x_range, size=n)
    y = x + np.where(rng.integers(0, 2, n) == 0, -1, 1) * d
    off = rng.uniform(*off_range, size=n) * np.where(rng.integers(0, 2, n) == 0, -1, 1)
    return x, x + off * d, y


@pytest.mark.parametrize("block", [verify._DRAW_BLOCK, 998])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 41])
def test_blocked_draws_are_the_whole_draws(monkeypatch, seed, block):
    # after some draws, and for a count that no block divides, the blocks
    # join into the whole draws, and the generator ends in their state
    monkeypatch.setattr(verify, "_DRAW_BLOCK", block)
    whole, blocked = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (whole, blocked):
        rng.uniform(size=7)
        rng.integers(0, 2, 10)
    ranges = ((1e-3, 10.0 / 3.0), (-2, 2), (0.05, 0.49))
    for n in (10_000, 100_000):
        want = _whole_triples(whole, n, *ranges)
        blocks = list(verify._triple_blocks(blocked, n, *ranges))
        assert len(blocks) == -(-n // block)
        for got, arr in zip(zip(*blocks), want):
            assert np.concatenate(got).tobytes() == arr.tobytes()
        assert blocked.bit_generator.state == whole.bit_generator.state
    assert blocked.uniform(size=5).tobytes() == whole.uniform(size=5).tobytes()


def test_kernel_shape_blocks_miss_no_difference(monkeypatch):
    # a bump at any one interior point, at a block seam or not, breaks the
    # monotone, convex and concave checks alike; without it all three hold
    monkeypatch.setattr(verify, "_DRAW_BLOCK", 8)
    ys = np.arange(1.0, 41.0)

    def kernel_with_bump(k):
        def fake(y, alpha, beta):
            a = np.abs(y)
            return np.sign(y) * (1.0 / a + np.where(a == ys[k], 1.0, 0.0))

        return fake

    monkeypatch.setattr(verify, "smooth_kernel", kernel_with_bump(0))
    assert verify._kernel_shape(ys[1:], 0.25, 2.0) == (True, True, True)
    for k in range(1, len(ys) - 1):
        monkeypatch.setattr(verify, "smooth_kernel", kernel_with_bump(k))
        assert verify._kernel_shape(ys, 0.25, 2.0) == (False, False, False), k


def test_only_ensemble_pairs_keep_their_grids(monkeypatch):
    # the crafted pairs of the corona and Poisson suites get a grid each
    # that lives only for their own loop iteration
    made = []

    class Kept(verify._Ensemble):
        def __init__(self, cfg):
            super().__init__(cfg)
            made.append(self)

    built = []
    real = verify.auto_grid

    def counted(sigma, w, depth):
        built.append((sigma, w))
        return real(sigma, w, depth)

    monkeypatch.setattr(verify, "_Ensemble", Kept)
    monkeypatch.setattr(verify, "auto_grid", counted)
    run_all(CFG)
    (ens,) = made
    assert set(ens._grids) == set(ens.pairs)
    crafted = set(built) - set(ens.pairs)
    assert len(crafted) == len(built) - len(ens.pairs) == 2 * 4 + 8


def test_one_b_above_per_function_pair(monkeypatch):
    # the corona suite's b_above(f, g) is its split's total and its
    # reduction residual's above form, evaluated once
    calls = []
    real = corona.b_above

    def counted(f, g, grid, below_gap):
        calls.append((f, g))
        return real(f, g, grid, below_gap)

    monkeypatch.setattr(corona, "b_above", counted)
    monkeypatch.setattr(verify, "b_above", counted)
    run_suite("corona", SuiteConfig(seed=1, count=24, max_atoms=24))
    counts = Counter((id(f), id(g)) for f, g in calls)
    assert len(calls) > 100 and max(counts.values()) == 1


def _suite_peaks(cfg):
    """Each suite's tracemalloc peak above its own start, in MiB, run as
    ``run_all`` runs them."""
    peaks = {}
    tracemalloc.start()
    try:
        ens = verify._Ensemble(cfg)
        for name in SUITE_NAMES:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run_suite(name, cfg, ensemble=ens)
            peaks[name] = (tracemalloc.get_traced_memory()[1] - start) / (1 << 20)
    finally:
        tracemalloc.stop()
    return peaks


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_no_suite_peaks_4_mib_above_its_start(seed):
    # verify all's defaults; the kernel suite's draws, held whole, were
    # 6.05 MiB above its start.  numpy imports numpy.ma on the first
    # np.unique of a process (about 0.6 MiB, in whichever suite scans
    # first), so a small run warms the process before the measured one
    run_all(SuiteConfig(seed=seed, count=1, max_atoms=4))
    peaks = _suite_peaks(SuiteConfig(seed=seed, count=60, max_atoms=32))
    assert max(peaks.values()) < 4.0, peaks
    assert peaks["kernel"] < 2.5, peaks
