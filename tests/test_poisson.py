import math

import numpy as np
import pytest

from h2w.constants import a2_constant, kernel_scan
from h2w.constants import testing_constant as t_constant
from h2w.corona import build_stopping_data, calibrate_c0
from h2w.errors import PreconditionViolation
from h2w.grid import GridInterval, build_grid
from h2w.haar import WeightedFunction, good_projection, occupied_nodes
from h2w.measure import AtomicMeasure, Interval, dyadic, random_ensemble
from h2w.params import SUITE_BELOW_GAP, SUITE_EPS, SUITE_R
from h2w.poisson import (
    HalfPlaneMeasure,
    PoissonTestResult,
    default_j_families,
    dual_poisson,
    maximal_intervals,
    mu_measure,
    poisson_extension,
    poisson_local_comparison,
    poisson_stationary,
    poisson_testing,
)
from h2w.verify import _stationary_and_extension

from conftest import crafted_cases, oracle_cases, poisson_sum, pow_lengths, unit_grid


class TestStationary:
    def test_atom_inside(self, unit_root):
        mu = AtomicMeasure.from_triples([(0, 0, 1.0)])
        assert poisson_stationary(mu, unit_root) == 1.0

    def test_atom_at_distance(self, unit_root):
        mu = AtomicMeasure.from_triples([(2, 0, 1.0)])
        assert poisson_stationary(mu, unit_root) == 0.5

    def test_formula_value(self):
        mu = AtomicMeasure.from_triples([(1, 2, 1.0)])
        i = Interval(dyadic(1, 1), dyadic(1, 0))
        assert abs(poisson_stationary(mu, i) - 8.0 / 5.0) < 1e-15

    def test_empty(self, unit_root):
        assert poisson_stationary(AtomicMeasure.empty(), unit_root) == 0.0


class TestParentExpressions:
    """The one-row calls against the scalar expressions they replaced, on
    lengths whose two squares differ, so a summed form squared as x * x
    fails."""

    def test_stationary_is_the_scalar_sum(self):
        moved = 0
        for n in pow_lengths(24):
            # one atom inside I = [0, n / 2^60) and one at 2 |I|
            mu = AtomicMeasure.from_triples([(n >> 1, 60, 1.5), (n, 59, 0.75)])
            i = Interval(dyadic(0), dyadic(n, 60))
            pos, mass, left, right = mu.positions_f, mu.masses_f, i.left_f, i.right_f
            assert poisson_stationary(mu, i) == poisson_sum(pos, mass, left, right)
            length = right - left
            dist = np.maximum(0.0, np.maximum(left - pos, pos - right))
            squared = float(np.sum(mass * length / (length * length + dist**2)))
            moved += squared != poisson_sum(pos, mass, left, right)
        assert moved >= 4

    def test_extension_and_dual_are_the_scalar_sums(self):
        moved = 0
        mu = AtomicMeasure.from_triples([(1, 3, 1.0), (5, 4, 2.0), (7, 3, 0.5)])
        ts = [n * 2.0**-60 for n in pow_lengths(24)]
        # centred on an atom, whose term t / t^2 keeps the square's last bit
        xs = [mu.positions_f[k % 3] for k in range(len(ts))]
        hp = HalfPlaneMeasure(tuple(xs), tuple(ts), (1.0,) * len(ts))
        for x, t in zip(xs, ts):
            want = float(np.sum(mu.masses_f * t / (t**2 + (x - mu.positions_f) ** 2)))
            assert poisson_extension(mu, x, t) == want
            wrong = float(np.sum(mu.masses_f * t / (t * t + (x - mu.positions_f) ** 2)))
            moved += wrong != want
        assert moved >= 4
        box = Interval(dyadic(0), dyadic(1))
        m = hp.box_mask(box)
        t, xq = hp.ts_f[m], hp.xs_f[m]
        for x in (0.0, 0.3, 0.5, 0.9, 2.0):
            want = float(np.sum(hp.masses_f[m] * t**2 / (t**2 + (x - xq) ** 2)))
            assert dual_poisson(hp, box, x) == want


class TestExtension:
    def test_on_axis(self):
        mu = AtomicMeasure.from_triples([(1, 1, 1.0)])
        for t in (0.25, 1.0, 4.0):
            assert poisson_extension(mu, 0.5, t) == 1.0 / t

    def test_off_axis(self):
        mu = AtomicMeasure.from_triples([(0, 0, 1.0)])
        assert poisson_extension(mu, 1.0, 1.0) == 0.5

    def test_comparability_band(self):
        for sigma, w in random_ensemble(51, 4, 16, 10):
            g = unit_grid(sigma, w, 10)
            for mu in (sigma, w):
                for n in occupied_nodes(mu, g):
                    gi = GridInterval(g, n.level, n.index)
                    pp = poisson_extension(mu, gi.center_f, gi.length_f)
                    if pp == 0.0:
                        continue
                    ratio = poisson_stationary(mu, gi) / pp
                    assert 1.0 - 1e-12 <= ratio <= 2.0 + 1e-12


class TestDualPoisson:
    def test_empty(self, unit_root):
        hp = HalfPlaneMeasure((), (), ())
        assert dual_poisson(hp, unit_root, 0.0) == 0.0

    def test_single_atom_values(self, unit_root):
        hp = HalfPlaneMeasure((0.0,), (1.0,), (1.0,))
        # the box over [0,1) has height 1 and contains (0, 1)
        assert dual_poisson(hp, unit_root, 0.0) == 1.0
        assert dual_poisson(hp, unit_root, 1.0) == 0.5

    def test_box_monotone(self, unit_root):
        hp = HalfPlaneMeasure((0.1, 0.4, 0.9), (0.05, 0.2, 0.6), (1.0, 2.0, 0.5))
        small = Interval(dyadic(0), dyadic(1, 1))
        assert dual_poisson(hp, small, 0.3) <= dual_poisson(hp, unit_root, 0.3)


class TestMuMeasure:
    def test_empty_families(self, micro_pair):
        sigma, w = micro_pair
        g = unit_grid(*random_ensemble(1, 1, 4, 8)[0], 8)
        hp = mu_measure([g.root_interval], w, g, {g.root_interval.key: []})
        assert hp.n_atoms == 0

    def test_symmetric_two_atom_mass(self, two_atom_w):
        g = unit_grid(two_atom_w, AtomicMeasure.empty(), 1)
        root = g.root_interval
        hp = mu_measure([root], two_atom_w, g, {root.key: [root]})
        assert hp.n_atoms == 1
        assert abs(hp.masses[0] - 0.125) < 1e-15
        assert hp.xs[0] == 0.5 and hp.ts[0] == 1.0

    def test_masses_bounded_by_twice_w(self):
        for sigma, w in random_ensemble(52, 6, 20, 12, family="clusters"):
            g = unit_grid(sigma, w, 12)
            members = [g.root_interval]
            fams = default_j_families(members, w, g, SUITE_EPS, SUITE_R, SUITE_BELOW_GAP)
            hp = mu_measure(members, w, g, fams)
            for mass, (_, jkey) in zip(hp.masses, hp.tags):
                jint = GridInterval(g, *jkey)
                assert mass <= 2.0 * w.mass_on(jint.interval) * (1 + 1e-12)


class TestMaximalIntervals:
    def test_filters_nested(self):
        sigma, w = random_ensemble(1, 1, 4, 8)[0]
        g = unit_grid(sigma, w, 8)
        items = [g.interval(2, 1), g.interval(3, 2), g.interval(3, 5), g.interval(5, 11)]
        out = maximal_intervals(items)
        assert g.interval(2, 1) in out
        assert g.interval(3, 2) not in out  # inside (2, 1)
        assert g.interval(3, 5) in out


class TestPoissonTesting:
    def test_empty_half_plane(self, micro_pair):
        sigma, _ = micro_pair
        g = unit_grid(*random_ensemble(1, 1, 4, 8)[0], 8)
        hp = HalfPlaneMeasure((), (), ())
        (res,) = poisson_testing([g.root_interval], sigma, hp, 2.0, 4.0)
        assert res.forward_ratio == 0.0 and res.dual_ratio == 0.0
        assert res.zero_denominator  # empty box has no second moment

    def test_sides_reported_raw(self):
        sigma, w = random_ensemble(53, 1, 12, 10, family="clusters")[0]
        g = unit_grid(sigma, w, 10)
        members = [g.root_interval]
        fams = default_j_families(members, w, g, SUITE_EPS, SUITE_R, SUITE_BELOW_GAP)
        hp = mu_measure(members, w, g, fams)
        (res,) = poisson_testing([g.root_interval], sigma, hp, 3.0, 9.0)
        assert res.forward_rhs == 9.0 * sigma.total_mass
        if hp.n_atoms:
            assert res.forward_lhs >= 0.0 and res.dual_lhs >= 0.0


class TestLocalComparison:
    def test_zero_holes(self):
        sigma, w = random_ensemble(54, 1, 6, 10)[0]
        g = unit_grid(sigma, w, 10)
        i0 = g.interval(1, 0)
        i = i0  # holes sigma (i0 - i) empty
        j = g.interval(8, 3)
        if not i.contains(j):
            j = g.interval(8, 0)
        lhs, rhs = poisson_local_comparison(j, i, i0, sigma, SUITE_EPS)
        assert lhs == 0.0 and rhs == 0.0

    def test_strictness_required(self):
        sigma, w = random_ensemble(55, 1, 6, 10)[0]
        g = unit_grid(sigma, w, 10)
        with pytest.raises(PreconditionViolation):
            poisson_local_comparison(g.interval(2, 1), g.interval(2, 1), g.root_interval, sigma, SUITE_EPS)


# oracles: the per-interval code the batched paths replaced; every result
# must be equal (==), not merely close.


def _oracle_poisson_testing(i, sigma, hp, h_const, a2_const):
    iv = i.interval
    sig_i = sigma.restrict(iv)
    fwd_lhs = 0.0
    if hp.n_atoms and sig_i.n_atoms:
        ext = np.array(
            [poisson_extension(sig_i, x, t) for x, t in zip(hp.xs_f, hp.ts_f)]
        )
        fwd_lhs = float(np.sum(ext**2 * hp.masses_f))
    fwd_rhs = h_const**2 * sig_i.total_mass
    mask = hp.box_mask(iv) if hp.n_atoms else np.zeros(0, dtype=bool)
    dual_rhs_raw = (
        float(np.sum(hp.ts_f[mask] ** 2 * hp.masses_f[mask])) if hp.n_atoms else 0.0
    )
    dual_lhs = 0.0
    if sigma.n_atoms and hp.n_atoms:
        dp = np.array([dual_poisson(hp, iv, x) for x in sigma.positions_f])
        dual_lhs = float(np.sum(sigma.masses_f * dp**2))
    dual_rhs = a2_const * dual_rhs_raw

    def _ratio(lhs, rhs):
        if rhs > 0.0:
            return lhs / rhs
        return 0.0 if lhs == 0.0 else math.inf

    return PoissonTestResult(
        fwd_lhs,
        fwd_rhs,
        _ratio(fwd_lhs, fwd_rhs),
        dual_lhs,
        dual_rhs,
        _ratio(dual_lhs, dual_rhs),
        fwd_rhs == 0.0 or dual_rhs == 0.0,
    )


def _half_plane_cases():
    """(label, sigma, grid, hp, test intervals, h, a2) as poisson-test builds
    them, on the oracle and crafted pairs, plus a random half-plane weight
    whose heights are not powers of two."""
    for label, sigma, w, grid in [*oracle_cases(), *crafted_cases()]:
        if sigma.n_atoms < 2 or w.n_atoms < 2:
            continue
        rng = np.random.default_rng(len(label))
        f = good_projection(
            WeightedFunction(sigma, rng.standard_normal(sigma.n_atoms)), grid, SUITE_EPS, SUITE_R
        )
        if f.norm() == 0:
            continue
        a2 = a2_constant(sigma, w)
        scan = kernel_scan(sigma, w)
        t = [t_constant(sigma, w, d, scan=scan) for d in ("forward", "backward")]
        h = math.sqrt(a2) + max(t)
        c0 = calibrate_c0(grid.root_interval, sigma, w, h)
        sd = build_stopping_data(f, grid.root_interval, w, h, c0)
        fams = default_j_families(sd.members, w, grid, SUITE_EPS, SUITE_R, SUITE_BELOW_GAP)
        intervals = [GridInterval(grid, n.level, n.index) for n in occupied_nodes(sigma, grid)]
        intervals += list(sd.members)
        yield label, sigma, grid, mu_measure(sd.members, w, grid, fams), intervals, h, a2
        n = 64
        lo, hi = grid.endpoint_f(0, 0), grid.endpoint_f(0, 1)
        # heights whose scalar square (C pow) and array square (t * t)
        # differ where the platform's pow has such values: the extension
        # must square its heights as scalars, as poisson_extension does
        ts = rng.uniform(0.0, 1.0, 50 * n) * (hi - lo) + 1e-9
        ts = np.concatenate([ts[[t**2 != t * t for t in ts]], ts])[:n]
        noisy = HalfPlaneMeasure(
            tuple(rng.uniform(lo, hi, n).tolist()),
            tuple(ts.tolist()),
            tuple(rng.exponential(1.0, n).tolist()),
        )
        yield label + "-noisy", sigma, grid, noisy, intervals, h, a2
    # left0 = -2 - 2^-55 has no double, so some boxes measure right_f - left_f
    # a rounding away from |I|; atoms of height exactly |I| sit on those edges
    sigma = AtomicMeasure((dyadic(-3, 2), dyadic(-1, 56), dyadic(5, 3)), (1.0, 2.0, 0.5))
    w = AtomicMeasure((dyadic(-1, 3), dyadic(1, 57), dyadic(3, 1)), (1.5, 1.0, 0.25))
    grid = build_grid(Interval(dyadic(-2), dyadic(2)), 12, -dyadic(1, 55), sigma, w)
    intervals = [grid.interval(lev, k) for lev in range(1, 10) for k in range(1 << lev)]
    edges = HalfPlaneMeasure(
        tuple(gi.center_f for gi in intervals),
        tuple(gi.length_f for gi in intervals),
        tuple(1.0 + k % 3 for k in range(len(intervals))),
    )
    assert any(gi.right_f - gi.left_f != gi.length_f for gi in intervals)
    yield "shifted-edges", sigma, grid, edges, intervals, 2.0, 3.0


class TestBatchedMatchesOracles:
    def test_poisson_testing_bitwise(self):
        checked = 0
        for label, sigma, grid, hp, intervals, h, a2 in _half_plane_cases():
            want = [_oracle_poisson_testing(gi, sigma, hp, h, a2) for gi in intervals]
            assert poisson_testing(intervals, sigma, hp, h, a2) == want, label
            checked += hp.n_atoms > 0
        assert checked >= 40

    def test_stationary_and_extension_bitwise(self):
        for label, sigma, w, grid in [*oracle_cases(), *crafted_cases()]:
            for mu in (sigma, w):
                nodes = occupied_nodes(mu, grid)
                got = _stationary_and_extension(mu, grid, nodes)
                want = ([], [])
                for n in nodes:
                    gi = GridInterval(grid, n.level, n.index)
                    want[0].append(poisson_stationary(mu, gi))
                    want[1].append(poisson_extension(mu, gi.center_f, gi.length_f))
                assert got == want, label
