import math

import numpy as np
import pytest

import h2w.corona as corona

from h2w.constants import a2_constant, testing_constant as t_constant
from h2w.constants import energy
from h2w.corona import (
    StoppingData,
    _bounded_average_constant,
    _energy_sides,
    _stop_table,
    UniformitySpec,
    b_above,
    build_stopping_data,
    calibrate_c0,
    carleson_check,
    corona_pieces,
    corona_split,
    energy_stopping_intervals,
    local_estimate_ratios,
    quasi_norm,
    reduction_residual,
    uniformity_check,
)
from h2w.errors import PreconditionViolation
from h2w.grid import DyadicGrid, GridInterval, build_grid, is_good
from h2w.haar import (
    HaarCoefficients,
    WeightedFunction,
    _differences,
    expand,
    good_projection,
    haar_function,
    inner,
    martingale_difference,
    node_table,
    occupied_nodes,
    reconstruct,
    splitting_nodes,
)
from h2w.measure import AtomicMeasure, Interval, dyadic, random_ensemble
from h2w.params import SUITE_BELOW_GAP, SUITE_EPS, SUITE_R
from h2w.poisson import poisson_stationary

from conftest import (
    crafted_cases,
    exact_ends,
    grid_walk,
    oracle_cases,
    poisson_sum,
    pow_lengths,
    shifted_grids,
    shifted_pair,
    unit_grid,
)


def _h_const(sigma, w):
    return math.sqrt(a2_constant(sigma, w)) + max(
        t_constant(sigma, w, "forward"), t_constant(sigma, w, "backward")
    )


def _instance(seed, family="uniform", max_atoms=16, depth=10):
    sigma, w = random_ensemble(seed, 1, max_atoms, depth, family=family)[0]
    grid = unit_grid(sigma, w, depth)
    rng = np.random.default_rng(seed)
    f = good_projection(
        WeightedFunction(sigma, rng.standard_normal(sigma.n_atoms)), grid, SUITE_EPS, SUITE_R
    )
    g = good_projection(
        WeightedFunction(w, rng.standard_normal(w.n_atoms)), grid, SUITE_EPS, SUITE_R
    )
    return sigma, w, grid, f, g


class TestEnergyStopping:
    def test_single_atom_w_empty(self):
        sigma, _, grid, f, _ = _instance(81)
        w1 = AtomicMeasure.from_triples([(1, 11, 1.0)])
        out = energy_stopping_intervals(grid.root_interval, sigma, w1, 3.0, 1.0)
        assert out == []

    def test_huge_threshold_selects_no_mass(self):
        # with an astronomic threshold no charged interval can pass; only
        # intervals with positive energy but zero sigma mass may remain
        sigma, w, grid, _, _ = _instance(82)
        out = energy_stopping_intervals(grid.root_interval, sigma, w, 5.0, 1e12)
        assert all(sigma.mass_on(F) == 0.0 for F in out)

    def test_calibrated_mass_bound(self):
        for seed in range(83, 89):
            sigma, w, grid, f, _ = _instance(seed, family="mixed", max_atoms=20, depth=12)
            h = _h_const(sigma, w)
            if h == 0:
                continue
            c0 = calibrate_c0(grid.root_interval, sigma, w, h)
            chosen = energy_stopping_intervals(grid.root_interval, sigma, w, h, c0)
            mass = sum(sigma.mass_on(F) for F in chosen)
            assert mass <= sigma.total_mass / 10.0

    def test_selected_are_maximal(self):
        sigma, w, grid, _, _ = _instance(90, family="clusters", depth=12)
        h = _h_const(sigma, w)
        chosen = energy_stopping_intervals(grid.root_interval, sigma, w, h, 0.001)
        for a in chosen:
            for b in chosen:
                if a.key != b.key:
                    assert not a.contains(b) and not b.contains(a)


class TestStoppingData:
    def test_flat_function_root_only(self):
        sigma, _, grid, _, _ = _instance(91)
        w1 = AtomicMeasure.from_triples([(1, 11, 1.0)])  # no energy triggers
        f = WeightedFunction.constant(sigma, 1.0)
        sd = build_stopping_data(f, grid.root_interval, w1, 3.0, 1.0)
        assert sd.members == (grid.root_interval,)
        assert sd.reason[grid.root_interval.key] == "root"

    def test_spike_walks_down_to_the_atom_cell(self):
        # a light atom with a large value hides next to a heavy companion:
        # the average trigger cannot fire until the cells separate them, so
        # the stop lands deep, at the spike's own cell
        sigma = AtomicMeasure.from_triples(
            [(3, 6, 10.0), (41, 6, 0.1), (43, 6, 10.0)]
        )
        w1 = AtomicMeasure.from_triples([(3, 8, 1.0)])
        grid = unit_grid(sigma, w1, 5)
        f = WeightedFunction(sigma, np.array([1.0, 200.0, 1.0]))
        sd = build_stopping_data(f, grid.root_interval, w1, 10.0, 1.0)
        spike = sigma.positions_f[1]
        deep = [m for m in sd.members if m.level >= 4 and m.left_f <= spike < m.right_f]
        assert deep, "expected an average-triggered stop at the spike cell"
        assert all(sd.reason[m.key] == "average" for m in deep)
        shallow = [
            m for m in sd.members if 1 <= m.level < 4 and m.left_f <= spike < m.right_f
        ]
        assert not shallow, "the heavy companion must mask the spike above its cell"

    def test_invariants_on_ensemble(self):
        for seed in (92, 93, 94):
            sigma, w, grid, f, _ = _instance(seed, family="mixed", max_atoms=20, depth=12)
            if f.norm() == 0:
                continue
            h = _h_const(sigma, w)
            c0 = calibrate_c0(grid.root_interval, sigma, w, h)
            sd = build_stopping_data(f, grid.root_interval, w, h, c0)
            # root is maximal
            assert all(sd.root.contains(F) for F in sd.members)
            # control values grow inward
            for F in sd.members:
                for G in sd.members:
                    if F.key != G.key and G.contains(F):
                        assert sd.alpha[F.key] >= sd.alpha[G.key]
            # averages dominated by ten times the control value
            absf = np.abs(f.values)
            for lev in range(grid.depth + 1):
                for k in range(1 << lev):
                    gi = grid.interval(lev, k)
                    lo, hi = sigma.index_range(gi)
                    if hi == lo:
                        continue
                    avg = float(
                        np.sum(absf[lo:hi] * sigma.masses_f[lo:hi])
                    ) / sigma.mass_on(gi)
                    assert avg <= 10.0 * sd.alpha[sd.pi_key(lev, k)]

    def test_zero_function_rejected(self):
        sigma, w, grid, _, _ = _instance(95)
        z = WeightedFunction(sigma, np.zeros(sigma.n_atoms))
        with pytest.raises(PreconditionViolation):
            build_stopping_data(z, grid.root_interval, w, 1.0, 1.0)


class TestCarleson:
    def test_root_only_ratio_one(self):
        sigma, _, grid, _, _ = _instance(96)
        sd = StoppingData(grid.root_interval, (grid.root_interval,), {grid.root_interval.key: 1.0}, {}, {})
        assert carleson_check(sd, sigma) == 1.0

    def test_constructed_families_pack(self):
        for seed in (97, 98):
            sigma, w, grid, f, _ = _instance(seed, family="mixed", max_atoms=20, depth=12)
            if f.norm() == 0:
                continue
            h = _h_const(sigma, w)
            c0 = calibrate_c0(grid.root_interval, sigma, w, h)
            sd = build_stopping_data(f, grid.root_interval, w, h, c0)
            assert carleson_check(sd, sigma) <= 2.0

    def test_negative_control(self):
        sigma = AtomicMeasure.from_triples([(1, 9, 1.0)])
        grid = unit_grid(sigma, AtomicMeasure.empty(), 8)
        chain = tuple(GridInterval(grid, lev, 0) for lev in range(5))
        fake = StoppingData(chain[0], chain, {c.key: 1.0 for c in chain}, {}, {})
        assert carleson_check(fake, sigma) > 2.0


class TestQuasiNorm:
    def test_root_only_value(self):
        sigma, _, grid, _, _ = _instance(99)
        root = grid.root_interval
        sd = StoppingData(root, (root,), {root.key: 1.5}, {}, {})
        expected = 1.5 * math.sqrt(sigma.total_mass)
        assert abs(quasi_norm(sd, sigma) - expected) < 1e-12 * expected

    def test_nested_chain_exact_accumulation(self):
        sigma = AtomicMeasure.from_triples([(1, 9, 2.0)])
        grid = unit_grid(sigma, AtomicMeasure.empty(), 8)
        chain = tuple(GridInterval(grid, lev, 0) for lev in range(4))
        sd = StoppingData(chain[0], chain, {c.key: 0.5 for c in chain}, {}, {})
        # the atom sits in all four members: value 4 * 0.5 = 2, mass 2
        assert abs(quasi_norm(sd, sigma) - 2.0 * math.sqrt(2.0)) < 1e-12


class TestUniformity:
    def test_trivially_uniform(self):
        sigma, _, grid, _, _ = _instance(100)
        w1 = AtomicMeasure.from_triples([(1, 11, 1.0)])
        f = WeightedFunction.constant(sigma, 0.5)
        spec = UniformitySpec(grid.root_interval, (), 1.0)
        ok, violations = uniformity_check(f, spec, w1, 3.0)
        assert ok and violations == []

    def test_violation_names_interval(self):
        sigma, _, grid, _, _ = _instance(101)
        w1 = AtomicMeasure.from_triples([(1, 11, 1.0)])
        f = WeightedFunction.constant(sigma, 2.0)
        spec = UniformitySpec(grid.root_interval, (), 1.0)
        ok, violations = uniformity_check(f, spec, w1, 3.0)
        assert not ok and any("average" in v for v in violations)

    def test_disjointness_enforced(self):
        sigma, _, grid, _, _ = _instance(102)
        with pytest.raises(ValueError):
            UniformitySpec(grid.root_interval, (grid.interval(1, 0), grid.interval(2, 1)), 1.0)


class TestBAbove:
    def test_no_gap_pairs_zero(self):
        sigma, w, grid, f, g = _instance(103, max_atoms=8, depth=6)
        if f.norm() == 0 or g.norm() == 0:
            pytest.skip("projection vanished")
        assert b_above(f, g, grid, below_gap=9) == 0.0

    def test_single_term_against_direct_kernel_sum(self):
        sigma, w = random_ensemble(104, 1, 20, 12, family="lacunary")[0]
        grid = unit_grid(sigma, w, 12)
        s_nodes = splitting_nodes(sigma, grid)
        w_nodes = splitting_nodes(w, grid)
        pair = None
        for ni in s_nodes:
            for nj in w_nodes:
                if nj.level - ni.level >= 4 and (nj.index >> (nj.level - ni.level)) == ni.index:
                    pair = (ni, nj)
                    break
            if pair:
                break
        if pair is None:
            pytest.skip("no gap pair in this draw")
        ni, nj = pair
        gi = GridInterval(grid, ni.level, ni.index)
        jj = GridInterval(grid, nj.level, nj.index)
        f = haar_function(gi, sigma)
        g = haar_function(jj, w)
        value = b_above(f, g, grid, below_gap=4)
        # independent evaluation: single (I, J) pair survives
        child_bit = (nj.index >> (nj.level - ni.level - 1)) & 1
        child = gi.children()[child_bit]
        lo, hi = sigma.index_range(child)
        e_val = f.values[lo] if hi > lo else 0.0
        jlo, jhi = w.index_range(jj)
        direct = 0.0
        for k in range(jlo, jhi):
            inner_sum = 0.0
            for s in range(lo, hi):
                inner_sum += sigma.masses_f[s] / (sigma.positions_f[s] - w.positions_f[k])
            direct += w.masses_f[k] * g.values[k] * inner_sum
        expected = e_val * direct
        assert abs(value - expected) < 1e-10 * max(1.0, abs(expected))

    def test_bilinearity(self):
        sigma, w, grid, f, g = _instance(105, family="lacunary", max_atoms=20, depth=12)
        if f.norm() == 0 or g.norm() == 0:
            pytest.skip("projection vanished")
        lhs = b_above(f, g + 0.5 * g, grid, SUITE_BELOW_GAP)
        rhs = b_above(f, g, grid, SUITE_BELOW_GAP) + b_above(f, 0.5 * g, grid, SUITE_BELOW_GAP)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestCoronaSplit:
    def test_single_corona_residual_zero(self):
        sigma, w, grid, f, g = _instance(107, family="lacunary", max_atoms=20, depth=12)
        if f.norm() == 0 or g.norm() == 0:
            pytest.skip("projection vanished")
        root = grid.root_interval
        sd = StoppingData(root, (root,), {root.key: 1.0}, {}, {})
        split_value, residual = corona_split(f, g, sd, SUITE_BELOW_GAP)
        total = b_above(f, g, grid, SUITE_BELOW_GAP)
        # the single corona projection reproduces f up to coefficient dust
        assert abs(residual) <= 1e-12 * max(1.0, abs(total))
        assert abs(split_value - total) <= 1e-12 * max(1.0, abs(total))

    def test_cross_sum_oracle(self):
        sigma, w, grid, f, g = _instance(109, family="lacunary", max_atoms=24, depth=12)
        if f.norm() == 0 or g.norm() == 0:
            pytest.skip("projection vanished")
        h = _h_const(sigma, w)
        c0 = calibrate_c0(grid.root_interval, sigma, w, h)
        sd = build_stopping_data(f, grid.root_interval, w, h, c0)
        split_value, residual = corona_split(f, g, sd, SUITE_BELOW_GAP)
        total = b_above(f, g, grid, SUITE_BELOW_GAP)
        assert abs(split_value + residual - total) <= 1e-10 * max(1.0, abs(total))
        cross = 0.0
        f_pieces, g_pieces = corona_pieces(f, sd), corona_pieces(g, sd)
        for Fp in sd.members:
            pf = f_pieces[Fp.key]
            for Fq in sd.members:
                if Fp.key == Fq.key:
                    continue
                qg = g_pieces[Fq.key]
                cross += b_above(pf, qg, grid, SUITE_BELOW_GAP)
        assert abs(cross - residual) <= 1e-10 * max(1.0, abs(total))


class TestReductionResidual:
    def test_zero_inputs(self):
        sigma, w, grid, f, g = _instance(109)
        z = WeightedFunction(sigma, np.zeros(sigma.n_atoms))
        out = reduction_residual(z, g, grid, 2.0, SUITE_BELOW_GAP)
        assert out.inner_product == 0.0 and out.b_above == 0.0 and out.b_below == 0.0
        assert out.residual_ratio == 0.0

    def test_comparable_scales_leave_only_the_pairing(self):
        sigma, w = random_ensemble(110, 1, 16, 10)[0]
        grid = unit_grid(sigma, w, 10)
        s_nodes = [n for n in splitting_nodes(sigma, grid) if n.level <= 3]
        w_nodes = [n for n in splitting_nodes(w, grid) if n.level <= 3]
        if not s_nodes or not w_nodes:
            pytest.skip("no shallow splits in this draw")
        f = haar_function(GridInterval(grid, s_nodes[0].level, s_nodes[0].index), sigma)
        g = haar_function(GridInterval(grid, w_nodes[0].level, w_nodes[0].index), w)
        out = reduction_residual(f, g, grid, 5.0, below_gap=9)
        assert out.b_above == 0.0 and out.b_below == 0.0
        assert out.residual_ratio == abs(out.inner_product) / (5.0 * f.norm() * g.norm())


class TestFormColumns:
    def test_columns_without_a_kernel_are_built_once(self, monkeypatch):
        """A side with no splitting node gives column sums with no kernel,
        every form over it is 0, and later forms read the kept columns."""
        sigma, w, grid, f, g = _instance(111, family="lacunary", max_atoms=24, depth=12)
        lone = AtomicMeasure(w.positions[:1], w.masses[:1])
        assert not splitting_nodes(lone, grid)
        g_lone = WeightedFunction(lone, [1.0])
        corona._form_columns.cache_clear()
        assert b_above(f, g_lone, grid, SUITE_BELOW_GAP) == 0.0
        assert b_above(g_lone, f, grid, SUITE_BELOW_GAP) == 0.0
        assert corona._form_columns(sigma, lone, grid).M.size == 0
        assert corona._form_columns.cache_info().misses == 2

        def refuse(M):
            raise AssertionError("the column sums were built again")

        monkeypatch.setattr(corona, "_FormColumns", refuse)
        h = _h_const(sigma, w)
        sd = build_stopping_data(f, grid.root_interval, w, h, calibrate_c0(grid.root_interval, sigma, w, h))
        assert corona_split(f, g_lone, sd, SUITE_BELOW_GAP) == (0.0, 0.0)
        out = reduction_residual(f, g_lone, grid, h, SUITE_BELOW_GAP)
        assert out.b_above == 0.0 and out.b_below == 0.0


class TestLocalEstimate:
    def test_ratios_nonnegative_and_finite(self):
        sigma, w, grid, f, g = _instance(111, family="lacunary", max_atoms=24, depth=12)
        if f.norm() == 0 or g.norm() == 0:
            pytest.skip("projection vanished")
        h = _h_const(sigma, w)
        c0 = calibrate_c0(grid.root_interval, sigma, w, h)
        sd = build_stopping_data(f, grid.root_interval, w, h, c0)
        for r in local_estimate_ratios(f, g, sd, SUITE_BELOW_GAP):
            assert 0.0 <= r < math.inf


# ---------------------------------------------------------------------------
# The grid-interval descents that the atom-range walks replaced, kept as
# oracles: every result must be equal (==), not merely close.


def _count(mu, gi):
    lo, hi = mu.index_range(gi)
    return hi - lo


def _oracle_energy_condition(parent_sigma, gi, w, h_const, c0):
    e2w = energy(w, gi) * w.mass_on(gi)
    if e2w == 0.0:
        return False
    p = poisson_stationary(parent_sigma, gi)
    return p * p * e2w > 10.0 * c0 * h_const**2 * parent_sigma.mass_on(gi)


def _oracle_energy_stopping(i0, sigma, w, h_const, c0, grid):
    sig0 = sigma.restrict(i0)
    out = []

    def descend(gi):
        if _count(w, gi) < 2:
            return
        if _oracle_energy_condition(sig0, gi, w, h_const, c0):
            out.append(gi)
            return
        if gi.level < grid.depth:
            for child in gi.children():
                descend(child)

    if i0.level < grid.depth:
        for child in i0.children():
            descend(child)
    return out


def _oracle_calibrate_c0(i0, sigma, w, h_const, start):
    """The per-doubling loop: one energy-stopping search per doubling."""
    budget = sigma.mass_on(i0) / 10.0
    c0 = start
    for doublings in range(200):
        chosen = energy_stopping_intervals(i0, sigma, w, h_const, c0)
        if math.fsum(m for F in chosen for m in sigma.restrict(F).masses) <= budget:
            return c0, doublings
        c0 *= 2.0
    raise RuntimeError("energy-stopping calibration did not settle")


def _avg_abs(f, lo, hi):
    """The average of |f| over its base's atoms [lo, hi), from correctly
    rounded sums over those atoms."""
    m = f.base.masses_f[lo:hi]
    return math.fsum(np.abs(f.values[lo:hi]) * m) / math.fsum(m)


def _oracle_stopping_data(f, i0, sigma, w, h_const, c0, grid):
    def avg_abs(gi):
        lo, hi = sigma.index_range(gi)
        return _avg_abs(f, lo, hi) if hi > lo else 0.0

    members = [i0]
    alpha = {i0.key: avg_abs(i0)}
    reason = {i0.key: "root"}
    children = {}

    def find_children(F, aF):
        sigF = sigma.restrict(F)
        found = []

        def descend(gi):
            ns, nw = _count(sigma, gi), _count(w, gi)
            if ns == 0 and nw < 2:
                return
            energy_hit = nw >= 2 and _oracle_energy_condition(sigF, gi, w, h_const, c0)
            avg_hit = ns > 0 and aF > 0 and avg_abs(gi) >= 10.0 * aF
            if energy_hit or avg_hit:
                found.append(gi)
                reason[gi.key] = "energy" if energy_hit else "average"
                return
            if gi.level < grid.depth and (ns >= 2 or nw >= 2 or (ns >= 1 and nw >= 1)):
                for child in gi.children():
                    descend(child)

        if F.level < grid.depth:
            for child in F.children():
                descend(child)
        return found

    stack = [i0]
    while stack:
        F = stack.pop()
        aF = alpha[F.key]
        kids = find_children(F, aF)
        children[F.key] = tuple(kids)
        for child in kids:
            a_child = avg_abs(child)
            alpha[child.key] = aF if a_child < 2.0 * aF else a_child
            members.append(child)
            stack.append(child)
    return tuple(sorted(members, key=lambda g: (g.level, g.index))), alpha, reason, children


def _oracle_bounded_average(pf, F, stopping, sigma, grid):
    s_children = stopping.family_children(F)
    worst = 0.0

    def descend(gi):
        nonlocal worst
        if any(s.contains(gi) for s in s_children):
            return
        lo, hi = sigma.index_range(gi)
        if hi == lo:
            return
        worst = max(worst, _avg_abs(pf, lo, hi))
        if gi.level < grid.depth:
            for child in gi.children():
                descend(child)

    descend(F)
    return worst


def _oracle_uniformity(f, spec, sigma, w, h_const, grid, tol=1e-12):
    violations = []

    def inside_some_s(gi):
        return any(s.contains(gi) for s in spec.s_family)

    for F in energy_stopping_intervals(spec.i0, sigma, w, h_const, spec.c0):
        if not inside_some_s(F):
            violations.append(f"energy stop {F} escapes the exceptional family")
    scale = max(1.0, float(np.max(np.abs(f.values))) if f.base.n_atoms else 1.0)
    for s in spec.s_family:
        lo, hi = sigma.index_range(s)
        if hi - lo >= 2:
            vals = f.values[lo:hi]
            if float(np.max(vals) - np.min(vals)) > tol * scale:
                violations.append(f"f is not constant on {s}")
    def descend(gi):
        if inside_some_s(gi):
            return
        lo, hi = sigma.index_range(gi)
        if hi - lo == 0:
            return
        avg = _avg_abs(f, lo, hi)
        if avg > 1.0 + tol:
            violations.append(f"average of |f| on {gi} is {avg:.6g} > 1")
        if gi.level < grid.depth:
            for child in gi.children():
                descend(child)

    descend(spec.i0)
    return (not violations), violations


def _oracle_carleson(members, sigma):
    worst = 0.0
    for S in members:
        s_mass = sigma.mass_on(S)
        total = math.fsum(sigma.mass_on(F) for F in members if S.contains(F))
        if s_mass > 0.0:
            worst = max(worst, total / s_mass)
        elif total > 0.0:
            return math.inf
    return worst


def _oracle_corona_projection(f, stopping, F):
    """The per-member projection: every splitting node of f's base whose
    minimal member, found by walking up from it, is F, each node's
    differences added in pre-order."""
    keys = frozenset(m.key for m in stopping.members)

    def pi_key(level, index):
        while (level, index) not in keys:
            if level == 0:
                return None
            level, index = level - 1, index // 2
        return level, index

    nodes = [n for n in splitting_nodes(f.base, F.grid) if pi_key(n.level, n.index) == F.key]
    values = np.zeros(f.base.n_atoms)
    for n, d_left, d_right in zip(nodes, *_differences(f, nodes)):
        values[n.lo : n.cut] += d_left
        values[n.cut : n.hi] += d_right
    return WeightedFunction(f.base, values)


def _oracle_b_form(f, g, grid, gap):
    """The full double loop over source and target splitting nodes."""
    sigma, w = f.base, g.base
    if sigma.n_atoms == 0 or w.n_atoms == 0:
        return 0.0
    s_nodes = splitting_nodes(sigma, grid)
    w_nodes = splitting_nodes(w, grid)
    if not s_nodes or not w_nodes:
        return 0.0
    M = (1.0 / (sigma.positions_f[:, None] - w.positions_f[None, :])) * sigma.masses_f[:, None]
    fm, m = f.values * sigma.masses_f, sigma.masses_f
    wmass = w.masses_f
    gm = g.values * wmass

    def mean(vm, mass, lo, hi):
        return math.fsum(vm[lo:hi]) / math.fsum(mass[lo:hi])

    total = 0.0
    for ni in s_nodes:
        e_left = mean(fm, m, ni.lo, ni.cut)
        e_right = mean(fm, m, ni.cut, ni.hi)
        e_full = mean(fm, m, ni.lo, ni.hi)
        for nj in w_nodes:
            dl = nj.level - ni.level
            if dl < gap or (nj.index >> dl) != ni.index:
                continue
            if (nj.index >> (dl - 1)) & 1 == 0:
                slo, shi, dval = ni.lo, ni.cut, e_left - e_full
            else:
                slo, shi, dval = ni.cut, ni.hi, e_right - e_full
            if dval == 0.0 or shi == slo:
                continue
            gl = mean(gm, wmass, nj.lo, nj.cut)
            gr = mean(gm, wmass, nj.cut, nj.hi)
            gf = mean(gm, wmass, nj.lo, nj.hi)
            # the column sums over the sigma atoms of I's child
            row = M[slo:shi].sum(axis=0)[nj.lo : nj.hi]
            dg = np.empty(nj.hi - nj.lo)
            dg[: nj.cut - nj.lo] = gl - gf
            dg[nj.cut - nj.lo :] = gr - gf
            total += dval * math.fsum(wmass[nj.lo : nj.hi] * dg * row)
    return total


class TestGroupedCoronaWalks:
    @pytest.mark.parametrize("family", ["uniform", "mixed", "clusters", "lacunary", "crafted"])
    def test_projections_and_forms_equal_the_full_walks(self, family):
        # the clusters family keeps sigma and w in disjoint clusters, so its
        # forms vanish; its projections do not
        cases = crafted_cases(2) if family == "crafted" else oracle_cases(families=(family,))
        nonzero = 0
        for label, sigma, w, grid in cases:
            if sigma.n_atoms < 2 or w.n_atoms < 2:
                continue
            h = _h_const(sigma, w)
            root = grid.root_interval
            c0 = calibrate_c0(root, sigma, w, h)
            rng = np.random.default_rng(len(label))
            f = WeightedFunction(sigma, np.exp(4.0 * rng.standard_normal(sigma.n_atoms)))
            g = WeightedFunction(w, rng.standard_normal(w.n_atoms))
            for gap in (1, SUITE_BELOW_GAP):
                for a, b in ((f, g), (g, f)):
                    got = b_above(a, b, grid, gap)
                    assert got == _oracle_b_form(a, b, grid, gap), label
                    nonzero += got != 0.0
            for c in (c0, c0 / 64):
                sd = build_stopping_data(f, root, w, h, c)
                f_pieces, g_pieces = corona_pieces(f, sd), corona_pieces(g, sd)
                assert list(f_pieces) == list(g_pieces) == [F.key for F in sd.members]
                for F in sd.members:
                    for u, pieces in ((f, f_pieces), (g, g_pieces)):
                        got = pieces[F.key]
                        want = _oracle_corona_projection(u, sd, F)
                        assert np.array_equal(got.values, want.values), label
                        nonzero += bool(np.any(got.values != 0.0))
                    pf, qg = f_pieces[F.key], g_pieces[F.key]
                    got = b_above(pf, qg, grid, 1)
                    assert got == _oracle_b_form(pf, qg, grid, 1), label
                    nonzero += got != 0.0
        assert nonzero >= 4

    @pytest.mark.parametrize("family", ["uniform", "mixed", "lacunary", "crafted"])
    def test_pieces_of_a_family_below_the_root(self, family):
        # a family whose top is a half of the root: the splitting nodes
        # above and beside the top belong to no member and land in no piece
        cases = crafted_cases(2) if family == "crafted" else oracle_cases(families=(family,))
        outside = 0
        for label, sigma, w, grid in cases:
            if sigma.n_atoms < 2 or w.n_atoms < 2:
                continue
            h = _h_const(sigma, w)
            c0 = calibrate_c0(grid.root_interval, sigma, w, h)
            rng = np.random.default_rng(len(label))
            f = WeightedFunction(sigma, np.exp(4.0 * rng.standard_normal(sigma.n_atoms)))
            g = WeightedFunction(w, rng.standard_normal(w.n_atoms))
            for i0 in (grid.interval(1, 0), grid.interval(1, 1)):
                lo, hi = sigma.index_range(i0)
                if hi == lo:
                    continue
                for c in (c0, c0 / 64):
                    sd = build_stopping_data(f, i0, w, h, c)
                    for u in (f, g):
                        pieces = corona_pieces(u, sd)
                        assert list(pieces) == [F.key for F in sd.members], label
                        for F in sd.members:
                            want = _oracle_corona_projection(u, sd, F)
                            assert np.array_equal(pieces[F.key].values, want.values), label
                        u_lo, u_hi = u.base.index_range(i0)
                        for piece in pieces.values():
                            assert not piece.values[:u_lo].any() and not piece.values[u_hi:].any()
                        nodes = splitting_nodes(u.base, grid)
                        outside += sum(sd.pi_key(n.level, n.index) is None for n in nodes)
        assert outside >= 10


class TestAtomRangeWalksMatchOracles:
    @pytest.mark.parametrize("family", ["uniform", "mixed", "clusters", "lacunary", "crafted"])
    def test_stopping_machinery_equal(self, family):
        checked = failing = 0
        cases = crafted_cases() if family == "crafted" else oracle_cases(families=(family,))
        for label, sigma, w, grid in cases:
            if sigma.n_atoms < 2:
                continue
            h = _h_const(sigma, w)
            root = grid.root_interval
            c0 = calibrate_c0(root, sigma, w, h)
            # at c0 * 1e-9 most trunk rows pass, i0's own row too, and only
            # those strictly inside i0 may be chosen
            for c in (c0, c0 / 64, c0 * 1e-9):
                for i0 in (root, grid.interval(1, 0), grid.interval(1, 1)):
                    got = energy_stopping_intervals(i0, sigma, w, h, c)
                    assert got == _oracle_energy_stopping(i0, sigma, w, h, c, grid), label
            # spiky values, and a threshold that silences energy stops, so
            # that average stops happen too
            rng = np.random.default_rng(len(label))
            f = WeightedFunction(sigma, np.exp(4.0 * rng.standard_normal(sigma.n_atoms)))
            for c in (c0, c0 / 64, c0 * 1e6):
                sd = build_stopping_data(f, root, w, h, c)
                members, alpha, reason, children = _oracle_stopping_data(
                    f, root, sigma, w, h, c, grid
                )
                assert sd.members == members, label
                assert list(sd.alpha.items()) == list(alpha.items()), label
                assert list(sd.reason.items()) == list(reason.items()), label
                assert list(sd.children.items()) == list(children.items()), label
                assert carleson_check(sd, sigma) == _oracle_carleson(sd.members, sigma)
                pieces = corona_pieces(f, sd)
                for F in sd.members:
                    for pf in (f, pieces[F.key]):
                        got = _bounded_average_constant(pf, F, sd)
                        assert got == _oracle_bounded_average(pf, F, sd, sigma, grid), label
                    # the suite's rescaled piece passes; the raw one mostly fails
                    spec = UniformitySpec(F, sd.family_children(F), c)
                    pf = pieces[F.key]
                    cF = _bounded_average_constant(pf, F, sd)
                    for u in (f, pf * (1.0 / cF) if cF > 0 else pf):
                        got = uniformity_check(u, spec, w, h)
                        assert got == _oracle_uniformity(u, spec, sigma, w, h, grid), label
                        failing += not got[0]
                checked += 1
        assert checked >= 20 and failing >= 20


    @pytest.mark.parametrize("family", ["uniform", "mixed", "clusters", "lacunary", "crafted"])
    def test_stopping_data_below_the_root(self, family):
        # the two halves of the root wherever f is supported there, and the
        # first grid interval below them holding a single sigma atom: the
        # joint table's edge case, whose children a descent still visits
        checked = single = 0
        cases = crafted_cases() if family == "crafted" else oracle_cases(families=(family,))
        for label, sigma, w, grid in cases:
            if sigma.n_atoms < 2:
                continue
            h = _h_const(sigma, w)
            c0 = calibrate_c0(grid.root_interval, sigma, w, h)
            rng = np.random.default_rng(len(label))
            f = WeightedFunction(sigma, np.exp(4.0 * rng.standard_normal(sigma.n_atoms)))
            lone = next(n for n in occupied_nodes(sigma, grid) if n.level >= 2 and n.hi - n.lo == 1)
            tops = [grid.interval(1, 0), grid.interval(1, 1), GridInterval(grid, lone.level, lone.index)]
            for i0 in tops:
                # the energy stops below i0 read the same table rows
                for c in (c0, c0 / 64, c0 * 1e-9):
                    got = energy_stopping_intervals(i0, sigma, w, h, c)
                    assert got == _oracle_energy_stopping(i0, sigma, w, h, c, grid), label
                lo, hi = sigma.index_range(i0)
                if hi == lo:
                    continue
                for c in (c0, c0 / 64, c0 * 1e6):
                    sd = build_stopping_data(f, i0, w, h, c)
                    members, alpha, reason, children = _oracle_stopping_data(
                        f, i0, sigma, w, h, c, grid
                    )
                    assert sd.members == members, label
                    assert list(sd.alpha.items()) == list(alpha.items()), label
                    assert list(sd.reason.items()) == list(reason.items()), label
                    assert list(sd.children.items()) == list(children.items()), label
                checked += 1
                single += hi - lo == 1
        assert checked >= 20 and single >= 10


    # the clusters pairs settle at once from every start
    @pytest.mark.parametrize("family", ["uniform", "mixed", "lacunary", "crafted"])
    def test_calibration_equals_doubling_loop(self, family):
        several = 0
        cases = crafted_cases() if family == "crafted" else oracle_cases(families=(family,))
        for label, sigma, w, grid in cases:
            if sigma.n_atoms < 2:
                continue
            h = _h_const(sigma, w)
            for i0 in (grid.root_interval, grid.interval(1, 0)):
                for start in (0.5, 1e-6, 1e-12):
                    want, doublings = _oracle_calibrate_c0(i0, sigma, w, h, start)
                    assert calibrate_c0(i0, sigma, w, h, start=start) == want, label
                    several += doublings >= 3
        assert several >= 10


def _stop_lhs_oracle(columns, rows, sigma, top):
    """The energy-stopping left side of each row from the scalar formula:
    P(sigma_0, I) of one 1-D row, then P * P * E^2 w(I); -inf where
    E^2 w(I) is 0."""
    left, right, e2w = columns
    pos, mass = sigma.positions_f[top[0] : top[1]], sigma.masses_f[top[0] : top[1]]
    out = []
    for r in rows.tolist():
        p = poisson_sum(pos, mass, left[r], right[r])
        out.append(p * p * e2w[r] if e2w[r] != 0.0 else -math.inf)
    return out


class TestEnergySidesBits:
    """The P of the energy-stopping test pinned bit for bit; the stop
    oracles compare only which intervals stop."""

    def test_table_rows_equal_the_scalar_form(self):
        live = 0
        cases = [*oracle_cases(), *crafted_cases(), *shifted_grids()]
        for label, sigma, w, grid in cases:
            if sigma.n_atoms < 8:
                continue
            table = _stop_table(sigma, w, grid)
            t = table.nodes
            for top_row in (0, int(np.argmax(t.level == 1))):
                top = t.lo[0, top_row].item(), t.hi[0, top_row].item()
                rows = np.arange(top_row + 1, t.end[top_row])
                columns = (table.left, table.right, table.e2w)
                lhs, _ = _energy_sides(columns, rows, t.lo[0, rows], t.hi[0, rows], sigma, top)
                assert lhs.tolist() == _stop_lhs_oracle(columns, rows, sigma, top), label
                live += int(np.sum(table.e2w[rows] != 0.0))
        assert live > 500

    def test_rows_whose_lengths_square_two_ways(self):
        # No grid row has such a length (grid lengths are a power of two
        # times 1 + j 2^-p for a small j), so these rows are given directly.
        ns = pow_lengths(24)
        sigma = AtomicMeasure.from_triples([(k, 12, 1.0 + k / 7) for k in range(1, 40, 3)])
        right = np.array([n * 2.0**-60 for n in ns])
        left = np.zeros(len(ns))
        e2w = np.linspace(0.25, 1.0, len(ns))
        lo, hi = (np.searchsorted(sigma.positions_f, ends) for ends in (left, right))
        rows = np.arange(len(ns))
        columns = (left, right, e2w)
        top = (0, sigma.n_atoms)
        lhs, _ = _energy_sides(columns, rows, lo, hi, sigma, top)
        want = _stop_lhs_oracle(columns, rows, sigma, top)
        assert lhs.tolist() == want
        # the same rows with |I| squared by libm pow
        moved = [
            float(np.sum(r / (r**2 + np.maximum(0.0, sigma.positions_f - r) ** 2) * sigma.masses_f))
            for r in right.tolist()
        ]
        assert sum(p * p * e != v for p, e, v in zip(moved, e2w, want)) >= 4


class TestShiftedGridRanges:
    @staticmethod
    def _pair():
        return shifted_pair()

    def test_ranges_follow_exact_boundaries(self):
        sigma, w, grid = self._pair()
        assert grid.endpoint_f(1, 1) == -(2.0**-55)
        for mu in (sigma, w):
            for n in occupied_nodes(mu, grid) + splitting_nodes(mu, grid):
                gi = GridInterval(grid, n.level, n.index)
                assert (n.lo, n.hi) == mu.index_range(gi)
                if n.level < grid.depth:
                    assert n.cut == mu.index_range(gi.children()[1])[0]
        seen = []

        def visit(level, index, ranges):
            gi = GridInterval(grid, level, index)
            assert ranges == tuple(mu.index_range(gi) for mu in (sigma, w))
            seen.append(gi.key)
            return any(hi > lo for lo, hi in ranges)

        top = grid.root_interval
        grid_walk((sigma, w), grid, top, tuple(mu.index_range(top) for mu in (sigma, w)), visit)
        assert (1, 1) in seen and len(seen) > 50

    def test_geometry_follows_exact_boundaries(self):
        sigma, w, grid = self._pair()
        unshifted = DyadicGrid(grid.root, grid.depth)
        for mu in (sigma, w):
            for n in occupied_nodes(mu, grid):
                gi = GridInterval(grid, n.level, n.index)
                left, right = exact_ends(gi)
                assert gi.left_f == float(left), gi
                assert gi.right_f == float(right), gi
                assert gi.center_f == float((left + right) / 2), gi
            f = WeightedFunction.identity(mu)
            hc = expand(f, grid)
            for n in splitting_nodes(mu, grid):
                gi = GridInterval(grid, n.level, n.index)
                one = HaarCoefficients(grid, mu, 0.0, {gi.key: 1.0})
                h = haar_function(gi, mu)
                np.testing.assert_allclose(h.values, reconstruct(one).values, rtol=1e-12, atol=0)
                c = hc.coefficient(gi)
                assert inner(f, h) == pytest.approx(c, rel=1e-12), gi
                only = HaarCoefficients(grid, mu, 0.0, {gi.key: c})
                np.testing.assert_allclose(
                    martingale_difference(f, gi).values,
                    reconstruct(only).values,
                    rtol=1e-12,
                    atol=1e-15,
                )
                for eps, r in ((SUITE_EPS, SUITE_R), (0.25, 2), (0.1, 1)):
                    assert is_good(gi, eps, r) == is_good(
                        GridInterval(unshifted, n.level, n.index), eps, r
                    ), gi


def _walk_uniformity(f, spec, w, h_const, tol=1e-12):
    """:func:`uniformity_check` with clause (3) on the reference grid walk:
    from i0, stopping at a family member or a node with no sigma atom, each
    average of |f| summed over the node's own atoms."""
    sigma, grid = f.base, spec.i0.grid
    violations = []
    s_keys = frozenset(s.key for s in spec.s_family)
    for F in energy_stopping_intervals(spec.i0, sigma, w, h_const, spec.c0):
        if not any(s.contains(F) for s in spec.s_family):
            violations.append(f"energy stop {F} escapes the exceptional family")
    scale = max(1.0, float(np.max(np.abs(f.values))) if sigma.n_atoms else 1.0)
    for s in spec.s_family:
        lo, hi = sigma.index_range(s)
        if hi - lo >= 2:
            vals = f.values[lo:hi]
            if float(np.max(vals) - np.min(vals)) > tol * scale:
                violations.append(f"f is not constant on {s}")
    def visit(level, index, ranges):
        (lo, hi), = ranges
        if (level, index) in s_keys or hi == lo:
            return False
        avg = _avg_abs(f, lo, hi)
        if avg > 1.0 + tol:
            violations.append(f"average of |f| on {GridInterval(grid, level, index)} is {avg:.6g} > 1")
        return True

    grid_walk((sigma,), grid, spec.i0, (sigma.index_range(spec.i0),), visit)
    return (not violations), violations


def _outside_root_pair():
    """A pair on the unit grid of depth 10 whose last sigma atom, 4301/2048,
    lies outside the grid root, so sigma has no node table of its own."""
    sigma = AtomicMeasure.from_triples(
        [(3, 11, 1.0), (9, 11, 2.0), (401, 11, 0.5), (1077, 11, 1.5), (4301, 11, 1.0)]
    )
    w = AtomicMeasure.from_triples([(5, 11, 1.0), (11, 11, 1.0), (601, 11, 2.0), (1001, 11, 1.0)])
    return sigma, w, unit_grid(sigma, w, 10)


class TestUniformityAgainstTheWalk:
    """The uniformity check reads table rows; the grid walk is its oracle,
    messages and their order included."""

    @staticmethod
    def _specs(sigma, w, grid, f, h, c0):
        """Each stopping member with its family children, and the root with
        its energy stops, with grid intervals holding no sigma atom, and
        with the root's own left half."""
        root = grid.root_interval
        sd = build_stopping_data(f, root, w, h, c0)
        for F in sd.members:
            if sd.family_children(F):
                yield UniformitySpec(F, sd.family_children(F), c0)
        stops = tuple(energy_stopping_intervals(root, sigma, w, h, c0))
        yield UniformitySpec(root, stops, c0)
        empty = [
            GridInterval(grid, 4, k) for k in range(16) if sigma.mass_on(grid.interval(4, k)) == 0.0
        ]
        yield UniformitySpec(root, tuple(empty[:3]), c0)
        yield UniformitySpec(root, (grid.interval(1, 0),), c0)
        yield UniformitySpec(grid.interval(1, 1), (), c0)

    def test_table_rows_equal_the_walk(self):
        cases = [*oracle_cases(), *crafted_cases(2), ("shifted", *shifted_pair())]
        checked = failing = nonempty = 0
        for label, sigma, w, grid in cases:
            if sigma.n_atoms < 2:
                continue
            h = _h_const(sigma, w)
            c0 = calibrate_c0(grid.root_interval, sigma, w, h)
            rng = np.random.default_rng(len(label))
            f = WeightedFunction(sigma, np.exp(2.0 * rng.standard_normal(sigma.n_atoms)))
            for spec in self._specs(sigma, w, grid, f, h, c0):
                nonempty += bool(spec.s_family)
                for u in (f, f * 0.25, f * (1.0 / float(np.max(np.abs(f.values))))):
                    got = uniformity_check(u, spec, w, h)
                    assert got == _walk_uniformity(u, spec, w, h), label
                    checked += 1
                    failing += not got[0]
        assert checked >= 500 and failing >= 100 and nonempty >= 100

    def test_sigma_outside_the_grid_root(self):
        sigma, w, grid = _outside_root_pair()
        with pytest.raises(PreconditionViolation):
            node_table(sigma, grid)
        f = WeightedFunction(sigma, np.array([0.5, 3.0, 1.5, 0.25, 7.0]))
        root = grid.root_interval
        for family in ((), (grid.interval(3, 0),), (grid.interval(2, 1), grid.interval(4, 0))):
            spec = UniformitySpec(root, family, 1.0)
            got = uniformity_check(f, spec, w, 2.0)
            assert got == _walk_uniformity(f, spec, w, 2.0)
            # the root's average leaves out the atom outside it
            assert "average of |f| on G[0:0] is 1.525 > 1" in got[1]


class TestComputePathHasNoWalk:
    def test_no_cache_holds_a_kernel_sized_array(self):
        import tracemalloc

        from h2w.cli import RunConfig, _sweep_row
        from h2w.constants import kernel_scan

        sigma, w = random_ensemble(7, 8, 128, 12)[3]
        stack_bytes = kernel_scan(sigma, w).stack.nbytes
        tracemalloc.start()
        try:
            _sweep_row((0, sigma, w, RunConfig(depth=12)))
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < stack_bytes / 8

    def test_no_kernel_is_kept_with_the_grid(self):
        # the command line keeps the last grids and their memos past the
        # row, so a form's kernel (n_sigma by n_w doubles) must not be in
        # the memo: only corona._form_columns keeps it, for the last 8 pairs
        from h2w.cli import RunConfig, _pair_grid, _sweep_row

        sigma, w = random_ensemble(7, 8, 128, 12)[3]
        cfg = RunConfig(depth=12)
        _sweep_row((0, sigma, w, cfg))
        grid = _pair_grid(sigma, w, cfg)
        memo = grid._memo
        assert memo
        shapes = {getattr(value, "shape", None) for value in memo.values()}
        assert (sigma.n_atoms, w.n_atoms) not in shapes
        assert (w.n_atoms, sigma.n_atoms) not in shapes
        assert not any(isinstance(value, corona._FormColumns) for value in memo.values())
