"""Acceptance suite.

One test per criterion, each printing a single pass/fail line.  Tolerances
are pinned here; regression bounds come from the recorded constants, and the
seeds below are disjoint from the calibration seeds, so every regression
check here is a genuine re-seed.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from h2w import regression
from h2w.constants import (
    a2_constant,
    energy,
    energy_constant,
    norm_constant,
)
from h2w.constants import testing_constant as t_constant
from h2w.grid import GridInterval, build_grid
from h2w.haar import (
    WeightedFunction,
    charged_nodes,
    expand,
    haar_function,
    martingale_difference,
    occupied_nodes,
    reconstruct,
    splitting_nodes,
)
from h2w.hilbert import kernel_difference_factor
from h2w.measure import (
    AtomicMeasure,
    Interval,
    dilate,
    dyadic,
    random_ensemble,
    scale_masses,
)
from h2w.verify import SuiteConfig, run_suite

ACC_SEED = 777_777  # disjoint from every calibration seed


def _line(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _grid(sigma, w, depth):
    return build_grid(Interval(dyadic(0), dyadic(1)), depth, dyadic(0), sigma, w)


@pytest.fixture(scope="module")
def sweep_stats():
    """Norm, testing, and Poisson-product constants over the default
    200-pair family at the acceptance seed."""
    rows = []
    for sigma, w in random_ensemble(ACC_SEED, 200, 32, 12, family="uniform"):
        n = norm_constant(sigma, w)
        t_f = t_constant(sigma, w, "forward")
        t_b = t_constant(sigma, w, "backward")
        a2 = a2_constant(sigma, w)
        rows.append((sigma, w, n, t_f, t_b, a2))
    return rows


def test_criterion_01_haar_algebra():
    start = time.time()
    worst = 0.0
    count = 0
    rng = np.random.default_rng(ACC_SEED)
    depths = (8, 9, 10, 11, 12, 13, 14)
    while count < 500:
        depth = depths[count % len(depths)]
        sigma, w = random_ensemble(ACC_SEED + count, 1, 32, depth, family="mixed")[0]
        grid = _grid(sigma, w, depth)
        mu = sigma if count % 2 == 0 else w
        if mu.n_atoms == 0:
            continue
        count += 1
        f = WeightedFunction(mu, rng.standard_normal(mu.n_atoms))
        hc = expand(f, grid)
        scale = max(1.0, f.norm_sq())
        worst = max(worst, abs(hc.norm_sq() - f.norm_sq()) / scale)
        rec = reconstruct(hc)
        vscale = max(1.0, float(np.max(np.abs(f.values))))
        worst = max(worst, float(np.max(np.abs(rec.values - f.values))) / vscale)
        nodes = splitting_nodes(mu, grid)
        if nodes:
            H = np.array(
                [haar_function(GridInterval(grid, n.level, n.index), mu).values for n in nodes]
            )
            gram = (H * mu.masses_f[None, :]) @ H.T
            worst = max(worst, float(np.max(np.abs(gram - np.eye(len(nodes))))))
        m = mu.masses_f
        for n in occupied_nodes(mu, grid):
            mass = math.fsum(m[n.lo : n.hi])
            ej = math.fsum(f.values[n.lo : n.hi] * m[n.lo : n.hi]) / mass
            total = hc.root_mean
            for up in range(n.level):
                anc = GridInterval(grid, up, n.index >> (n.level - up))
                if (up, anc.index) not in hc.coeffs:
                    continue
                md = martingale_difference(f, anc)
                total += math.fsum(md.values[n.lo : n.hi] * m[n.lo : n.hi]) / mass
            worst = max(worst, abs(ej - total) / max(1.0, abs(ej)))
    elapsed = time.time() - start
    _line(
        1,
        worst <= 1e-9 and elapsed < 30.0,
        f"Haar algebra on 500 instances: max deviation {worst:.3e} (tol 1e-9), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_02_energy_identity():
    start = time.time()
    # hand-checked value: E^2 = 1/8 for unit masses at 1/4 and 3/4 on [0, 1)
    two = AtomicMeasure.from_triples([(1, 2, 1.0), (3, 2, 1.0)])
    root = Interval(dyadic(0), dyadic(1))
    micro_ok = energy(two, root) == 0.125
    g1 = _grid(two, AtomicMeasure.empty(), 1)
    ident = WeightedFunction.identity(two)
    c = expand(ident, g1).coeffs[(0, 0)]
    corrected = abs(energy(two, root) * two.total_mass - 2.0 * c * c) < 1e-15
    uncorrected_fails = abs(energy(two, root) - 2.0 * c * c) > 0.1
    worst = 0.0
    for k in range(500):
        depth = 8 + k % 5
        sigma, w = random_ensemble(ACC_SEED + 7000 + k, 1, 32, depth, family="mixed")[0]
        grid = _grid(sigma, w, depth)
        if w.n_atoms == 0:
            continue
        coeffs = expand(WeightedFunction.identity(w), grid).coeffs
        trunk = charged_nodes(w, grid)
        acc = {(n.level, n.index): 0.0 for n in trunk}
        for (lev, idx), cval in coeffs.items():
            lev2, idx2 = lev, idx
            while True:
                if (lev2, idx2) in acc:
                    acc[(lev2, idx2)] += cval * cval
                if lev2 == 0:
                    break
                lev2, idx2 = lev2 - 1, idx2 // 2
        for n in trunk:
            gi = GridInterval(grid, n.level, n.index)
            lhs = energy(w, gi) * w.mass_on(gi)
            rhs = 2.0 * acc[(n.level, n.index)] / gi.length_f**2
            worst = max(worst, abs(lhs - rhs) / max(lhs, 1e-300))
    elapsed = time.time() - start
    _line(
        2,
        micro_ok and corrected and uncorrected_fails and worst <= 1e-9,
        f"energy identity: micro E^2=1/8 {'ok' if micro_ok else 'Bad'}, unweighted display rejected, "
        f"max rel err {worst:.3e} on 500 instances ({elapsed:.1f}s)",
    )


def test_criterion_03_kernel_identities():
    start = time.time()
    rng = np.random.default_rng(ACC_SEED)
    alpha, beta = 0.05, 60.0
    n_mid = 10_000
    d = rng.uniform(2 * alpha * 1.001, (2 / 3) * beta * 0.999, n_mid)
    x = rng.uniform(-1, 1, n_mid)
    y = x + np.where(rng.integers(0, 2, n_mid) == 0, -1, 1) * d
    xp = x + rng.uniform(0.05, 0.45, n_mid) * d * np.where(rng.integers(0, 2, n_mid) == 0, -1, 1)
    fac = kernel_difference_factor(x, xp, y, alpha, beta)
    mid_dev = float(np.max(np.abs(fac - 1.0)))
    a2_, b2_ = 0.2, 5.0
    n_all = 100_000
    d2 = rng.uniform(1e-3, (2 / 3) * b2_, n_all)
    x2 = rng.uniform(-2, 2, n_all)
    y2 = x2 + np.where(rng.integers(0, 2, n_all) == 0, -1, 1) * d2
    xp2 = x2 + rng.uniform(0.05, 0.49, n_all) * d2 * np.where(rng.integers(0, 2, n_all) == 0, -1, 1)
    fac2 = kernel_difference_factor(x2, xp2, y2, a2_, b2_)
    inside = bool(np.all((fac2 >= -1e-12) & (fac2 <= 1 + 1e-12)))
    elapsed = time.time() - start
    _line(
        3,
        mid_dev <= 1e-12 and inside and elapsed < 5.0,
        f"kernel factor: middle-regime |C-1| max {mid_dev:.2e} on 10^4 triples, "
        f"C in [0,1] on 10^5 taper-free triples, {elapsed:.2f}s (< 5s)",
    )


def test_criterion_04_exact_necessity(sweep_stats):
    worst = 0.0
    ok = True
    for sigma, w, n, t_f, t_b, a2 in sweep_stats:
        if n == 0.0:
            ok = ok and t_f == 0.0 and t_b == 0.0
            continue
        worst = max(worst, t_f / n, t_b / n)
        ok = ok and t_f <= n * (1 + 1e-9) and t_b <= n * (1 + 1e-9)
    micro_s = AtomicMeasure.from_triples([(1, 2, 1.0)])
    micro_w = AtomicMeasure.from_triples([(3, 2, 1.0)])
    micro_ok = (
        norm_constant(micro_s, micro_w) == 2.0
        and t_constant(micro_s, micro_w, "forward") == 2.0
        and abs(a2_constant(micro_s, micro_w, refinement=6) - 10.24) < 0.01 * 10.24
    )
    _line(
        4,
        ok and micro_ok,
        f"necessity: T <= N(1+1e-9) on 200 pairs (max T/N = {worst:.6f}); "
        f"golden micro case N = T = 2, A2 = 10.24 within 1%",
    )


def test_criterion_05_norm_band(sweep_stats):
    hi, lo = 0.0, math.inf
    for sigma, w, n, t_f, t_b, a2 in sweep_stats:
        if n == 0.0:
            continue
        h = math.sqrt(a2) + max(t_f, t_b)
        hi = max(hi, n / h)
        lo = min(lo, n / h)
    bound = regression.bound("sweep_n_over_h_max")
    _line(
        5,
        hi <= bound,
        f"norm vs combined constant: N/H in [{lo:.4f}, {hi:.4f}] on a fresh seed, "
        f"recorded max {regression.RECORDED['sweep_n_over_h_max']:.4f} x 1.05 = {bound:.4f}",
    )


def test_criterion_06_energy_inequality(sweep_stats):
    worst = 0.0
    for sigma, w, n, t_f, t_b, a2 in sweep_stats[:60]:
        h = math.sqrt(a2) + max(t_f, t_b)
        if h == 0.0:
            continue
        grid = _grid(sigma, w, 12)
        worst = max(
            worst,
            energy_constant(sigma, w, grid) / h,
            energy_constant(w, sigma, grid) / h,
        )
    bound = regression.bound("e_over_h_max")
    monotone = True
    for k in range(10):
        sigma, w = random_ensemble(ACC_SEED + 900 + k, 1, 24, 12, family="mixed")[0]
        vals = [energy_constant(sigma, w, _grid(sigma, w, depth)) for depth in (8, 10, 12)]
        monotone = monotone and all(b >= a for a, b in zip(vals, vals[1:]))
    _line(
        6,
        worst <= bound and monotone,
        f"energy constant: max E/H = {worst:.4f} <= recorded bound {bound:.4f}; "
        f"partition search monotone in depth",
    )


@pytest.fixture(scope="module")
def corona_suite():
    cfg = SuiteConfig(seed=ACC_SEED, count=60, max_atoms=24, depth=12, family="mixed")
    return run_suite("corona", cfg)


@pytest.fixture(scope="module")
def poisson_suite():
    cfg = SuiteConfig(seed=ACC_SEED, count=60, max_atoms=24, depth=12, family="mixed")
    return run_suite("poisson", cfg)


def _suite_ok(suite, names):
    picked = [r for r in suite.results if r.name in names]
    assert len(picked) == len(names), f"missing checks: {names}"
    bad = [r for r in picked if not r.ok]
    return not bad, "; ".join(f"{r.name}: {r.detail}" for r in (bad or picked))


def test_criterion_07_stopping_machinery(corona_suite):
    ok, detail = _suite_ok(
        corona_suite,
        ("stopping_invariants", "carleson_at_most_2", "negative_control_detected"),
    )
    _line(7, ok, f"stopping machinery on a fresh seed: {detail}")


def test_criterion_08_energy_stopping_mass(corona_suite):
    ok, detail = _suite_ok(corona_suite, ("energy_stop_mass_tenth",))
    _line(8, ok, detail)


def test_criterion_09_global_to_local(corona_suite):
    ok, detail = _suite_ok(
        corona_suite,
        (
            "split_plus_residual_1e-10",
            "cross_sum_oracle_1e-10",
            "bilinearity_1e-10",
        ),
    )
    reg_ok = True
    for r in corona_suite.results:
        if r.kind == "regression" and r.name in ("corona_residual", "reduction_residual"):
            reg_ok = reg_ok and r.ok
            detail += f"; {r.name}: {r.detail}"
    _line(9, ok and reg_ok, detail)


def test_criterion_10_poisson_testing(poisson_suite):
    ok, detail = _suite_ok(
        poisson_suite,
        ("stationary_vs_extension_in_1_2", "mu_mass_at_most_2wJ"),
    )
    band_ok = True
    for r in poisson_suite.results:
        if r.kind == "regression" and r.name in ("poisson_forward_ratio", "poisson_dual_ratio"):
            band_ok = band_ok and r.ok
            detail += f"; {r.name}: {r.detail}"
    _line(10, ok and band_ok, detail)


def test_criterion_11_invariance():
    worst = 0.0
    checked = 0
    for k in range(50):
        sigma, w = random_ensemble(ACC_SEED + 3000 + k, 1, 16, 10, family="mixed")[0]
        base = (
            norm_constant(sigma, w),
            a2_constant(sigma, w),
            t_constant(sigma, w, "forward"),
        )
        grid = _grid(sigma, w, 10)
        base_e = energy_constant(sigma, w, grid)
        sig_d, w_d = dilate(sigma, 2), dilate(w, 2)
        grid_d = build_grid(Interval(dyadic(0), dyadic(4)), 10, dyadic(0), sig_d, w_d)
        moved = (
            norm_constant(sig_d, w_d),
            a2_constant(sig_d, w_d),
            t_constant(sig_d, w_d, "forward"),
        )
        moved_e = energy_constant(sig_d, w_d, grid_d)
        sig_m, w_m = scale_masses(sigma, 3.0), scale_masses(w, 1.0 / 3.0)
        scaled = (
            norm_constant(sig_m, w_m),
            a2_constant(sig_m, w_m),
            t_constant(sig_m, w_m, "forward"),
        )
        scaled_e = energy_constant(sig_m, w_m, grid)
        checked += 1
        for b, pair in zip(base + (base_e,), zip(moved + (moved_e,), scaled + (scaled_e,))):
            for other in pair:
                if b > 0:
                    worst = max(worst, abs(other - b) / b)
    _line(
        11,
        worst <= 1e-9 and checked == 50,
        f"dilation and mass-scaling leave N, A2, T, E unchanged on 50 pairs (max drift {worst:.2e})",
    )


def test_criterion_12_performance(tmp_path):
    env = dict(**__import__("os").environ)
    start = time.time()
    proc1 = subprocess.run(
        [sys.executable, "-m", "h2w.cli", "verify", "all", "--seed", "5"],
        capture_output=True,
        text=True,
        env=env,
    )
    t_verify = time.time() - start
    start = time.time()
    proc2 = subprocess.run(
        [
            sys.executable,
            "-m",
            "h2w.cli",
            "sweep",
            "--count",
            "200",
            "--max-atoms",
            "32",
            "--depth",
            "12",
            "-o",
            str(tmp_path / "sweep.csv"),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    t_sweep = time.time() - start
    rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    ok = (
        proc1.returncode == 0
        and proc2.returncode == 0
        and t_verify < 300.0
        and t_sweep < 300.0
        and len(rows) == 202
    )
    _line(
        12,
        ok,
        f"verify all in {t_verify:.1f}s (< 300s, exit {proc1.returncode}), "
        f"200-pair sweep in {t_sweep:.1f}s (< 300s, {len(rows) - 2} rows)",
    )
