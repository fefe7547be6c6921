import math

import numpy as np
import pytest

from h2w.constants import (
    _spectral_norms,
    a2_constant,
    compute_report,
    energy,
    energy_constant,
    energy_identity_sides,
    functional_energy_ratio,
    kernel_scan,
    norm_constant,
)
from h2w.constants import testing_constant as t_constant
from h2w.constants import testing_pair as t_pair
from h2w.errors import AdaptednessViolation, CommonPointMass, PreconditionViolation
from h2w.grid import GridInterval
from h2w.haar import WeightedFunction, haar_function
from h2w.hilbert import kernel_values, truncation_candidates
from h2w.measure import AtomicMeasure, Interval, dilate, dyadic, random_ensemble, scale_masses
from h2w.params import DEFAULT_REFINEMENT
from h2w.poisson import poisson_stationary

from conftest import unit_grid


class TestNormConstant:
    def test_micro_value(self, micro_pair):
        assert norm_constant(*micro_pair) == 2.0

    def test_empty_sigma(self):
        w = AtomicMeasure.from_triples([(3, 2, 1.0)])
        assert norm_constant(AtomicMeasure.empty(), w) == 0.0

    def test_mass_scaling_invariance(self):
        sigma, w = random_ensemble(61, 1, 16, 10)[0]
        base = norm_constant(sigma, w)
        scaled = norm_constant(scale_masses(sigma, 5.0), scale_masses(w, 0.2))
        assert abs(scaled - base) <= 1e-9 * base

    def test_common_mass_rejected(self):
        a = AtomicMeasure.from_triples([(1, 2, 1.0)])
        with pytest.raises(CommonPointMass):
            norm_constant(a, a)

    def test_dense_svd_beyond_64_atoms(self):
        # power iteration, once used beyond 64 atoms a side, undershot two of
        # these candidates by 2.7e-9 relative
        sigma = AtomicMeasure.from_triples(
            [(2 * k + 1, 8, 0.5 + (k % 7) / 4) for k in range(70)]
        )
        w = AtomicMeasure.from_triples(
            [(2 * k + 1, 6, 1.0 + (k % 3)) for k in range(10, 22)]
        )
        stack = kernel_scan(sigma, w).stack * np.sqrt(sigma.masses_f)[None, :, None]
        stack *= np.sqrt(w.masses_f)[None, None, :]
        expected = np.array([np.linalg.svd(m, compute_uv=False)[0] for m in stack])
        got = _spectral_norms(stack)
        assert np.all(np.abs(got - expected) <= 1e-12 * expected)
        assert abs(norm_constant(sigma, w) - expected.max()) <= 1e-12 * expected.max()


class TestA2Constant:
    def test_one_sided_zero(self):
        sigma = AtomicMeasure.from_triples([(1, 2, 1.0)])
        assert a2_constant(sigma, AtomicMeasure.empty()) == 0.0

    def test_micro_value(self, micro_pair):
        val = a2_constant(*micro_pair, refinement=6)
        assert abs(val - 10.24) < 1e-12

    def test_monotone_in_refinement(self, micro_pair):
        sigma, w = random_ensemble(62, 1, 12, 10)[0]
        vals = [a2_constant(sigma, w, refinement=k) for k in range(0, 8)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_dilation_invariance(self):
        sigma, w = random_ensemble(63, 1, 12, 10)[0]
        base = a2_constant(sigma, w)
        moved = a2_constant(dilate(sigma, 3), dilate(w, 3))
        assert abs(moved - base) <= 1e-9 * base


def _testing_all_classes(sigma, w, direction="forward", refinement=DEFAULT_REFINEMENT):
    """Brute-force oracle: the testing scan over every membership class,
    that is, every contiguous range of the merged support."""
    if direction == "backward":
        sigma, w = w, sigma
    if sigma.n_atoms == 0 or w.n_atoms == 0:
        return 0.0
    diffs = sigma.positions_f[:, None] - w.positions_f[None, :]
    cands = truncation_candidates(np.abs(diffs).ravel(), refinement)
    stack = np.stack([kernel_values(diffs, tr) for tr in cands]) * sigma.masses_f[None, :, None]
    C = np.concatenate(
        [np.zeros((len(cands), 1, w.n_atoms)), np.cumsum(stack, axis=1)], axis=1
    )
    pos = np.concatenate([sigma.positions_f, w.positions_f])
    which = np.concatenate([np.zeros(sigma.n_atoms, int), np.ones(w.n_atoms, int)])
    which = which[np.argsort(pos, kind="stable")]
    s_before = np.concatenate([[0], np.cumsum(which == 0)])
    w_before = np.concatenate([[0], np.cumsum(which == 1)])
    sp = sigma._mass_prefix
    wm = w.masses_f
    best = 0.0
    for l in range(len(pos)):
        a1, b1 = s_before[l], w_before[l]
        for rr in range(l, len(pos)):
            a2, b2 = s_before[rr + 1], w_before[rr + 1]
            if a2 == a1 or b2 == b1:
                continue
            smass = sp[a2] - sp[a1]
            svals = C[:, a2, b1:b2] - C[:, a1, b1:b2]
            lhs = np.max((svals**2 * wm[b1:b2]).sum(axis=1))
            if lhs / smass > best:
                best = lhs / smass
    return math.sqrt(best)


class TestTestingConstant:
    def test_micro_value(self, micro_pair):
        assert t_constant(*micro_pair, "forward") == 2.0
        assert t_constant(*micro_pair, "backward") == 2.0

    def test_empty_target(self):
        sigma = AtomicMeasure.from_triples([(1, 2, 1.0)])
        assert t_constant(sigma, AtomicMeasure.empty()) == 0.0

    def test_forward_backward_swap_exact(self):
        sigma, w = random_ensemble(64, 1, 12, 10)[0]
        assert t_constant(sigma, w, "forward") == t_constant(w, sigma, "backward")

    def test_necessity(self):
        for sigma, w in random_ensemble(65, 8, 16, 10):
            n = norm_constant(sigma, w)
            assert t_constant(sigma, w, "forward") <= n * (1 + 1e-9)
            assert t_constant(sigma, w, "backward") <= n * (1 + 1e-9)

    @pytest.mark.parametrize("family", ["uniform", "mixed"])
    @pytest.mark.parametrize("atoms", [8, 16, 32])
    def test_maximal_classes_equal_all_classes(self, family, atoms):
        for sigma, w in random_ensemble(90 + atoms, 12, atoms, 12, family=family):
            for direction in ("forward", "backward"):
                assert t_constant(sigma, w, direction) == _testing_all_classes(
                    sigma, w, direction
                )

    def test_shared_scan_changes_nothing(self):
        for sigma, w in random_ensemble(76, 6, 24, 12, family="mixed"):
            scan = kernel_scan(sigma, w)
            assert norm_constant(sigma, w, scan=scan) == norm_constant(sigma, w)
            assert t_pair(sigma, w, scan=scan) == (
                t_constant(sigma, w, "forward"),
                t_constant(sigma, w, "backward"),
            )


class TestEnergy:
    def test_single_atom_zero(self, unit_root):
        mu = AtomicMeasure.from_triples([(1, 2, 5.0)])
        assert energy(mu, unit_root) == 0.0

    def test_micro_value(self, two_atom_w, unit_root):
        assert energy(two_atom_w, unit_root) == 0.125

    def test_bounded_by_one(self, rng):
        for sigma, w in random_ensemble(66, 4, 24, 10):
            g = unit_grid(sigma, w, 10)
            assert energy(w, g.root_interval) <= 1.0 + 1e-12

    def test_corrected_identity_micro(self, two_atom_w):
        g = unit_grid(two_atom_w, AtomicMeasure.empty(), 1)
        lhs, rhs = energy_identity_sides(two_atom_w, g.root_interval)
        assert abs(lhs - 0.25) < 1e-15 and abs(lhs - rhs) < 1e-15

    def test_unweighted_display_fails_micro(self, two_atom_w):
        g = unit_grid(two_atom_w, AtomicMeasure.empty(), 1)
        e2 = energy(two_atom_w, g.root_interval)
        _, haar_sum = energy_identity_sides(two_atom_w, g.root_interval)
        assert abs(e2 - haar_sum) > 0.1


class TestEnergyConstant:
    def test_single_atom_w_zero(self):
        sigma, _ = random_ensemble(67, 1, 8, 10)[0]
        w = AtomicMeasure.from_triples([(1, 11, 1.0)])
        g = unit_grid(sigma, w, 10)
        assert energy_constant(sigma, w, g) == 0.0

    def test_monotone_in_depth(self):
        sigma, w = random_ensemble(68, 1, 16, 12)[0]
        vals = []
        for depth in (6, 8, 10, 12):
            g = unit_grid(sigma, w, depth)
            vals.append(energy_constant(sigma, w, g))
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_dilation_and_mass_invariance(self):
        sigma, w = random_ensemble(69, 1, 16, 10)[0]
        g = unit_grid(sigma, w, 10)
        base = energy_constant(sigma, w, g)
        from h2w.grid import build_grid

        g2 = build_grid(
            Interval(dyadic(0), dyadic(4)), 10, dyadic(0), dilate(sigma, 2), dilate(w, 2)
        )
        moved = energy_constant(dilate(sigma, 2), dilate(w, 2), g2)
        assert abs(moved - base) <= 1e-9 * max(base, 1e-12)
        scaled = energy_constant(scale_masses(sigma, 7.0), scale_masses(w, 1 / 7.0), g)
        assert abs(scaled - base) <= 1e-9 * max(base, 1e-12)


class TestFunctionalEnergyRatio:
    def test_zero_family(self):
        sigma, w = random_ensemble(70, 1, 8, 10)[0]
        g = unit_grid(sigma, w, 10)
        h = WeightedFunction.constant(sigma)
        assert functional_energy_ratio(h, [g.root_interval], {}, g) == 0.0

    def test_single_haar_matches_direct_formula(self):
        sigma, w = random_ensemble(72, 1, 16, 12, family="clusters")[0]
        g = unit_grid(sigma, w, 12)
        root = g.root_interval
        from h2w.poisson import default_j_families
        from h2w.params import SUITE_BELOW_GAP, SUITE_EPS, SUITE_R

        fams = default_j_families([root], w, g, SUITE_EPS, SUITE_R, SUITE_BELOW_GAP)
        js = fams[root.key]
        if not js:
            pytest.skip("no adapted interval in this draw")
        J = js[0]
        hj = haar_function(J, w)
        h = WeightedFunction.constant(sigma)
        ratio = functional_energy_ratio(
            h, [root], {root.key: hj}, g, j_families={root.key: [J]}
        )
        ident = WeightedFunction.identity(w)
        from h2w.haar import inner

        expected = (
            poisson_stationary(sigma, J)
            * abs(inner(ident, hj)) / J.length_f
            / math.sqrt(sigma.total_mass)
        )
        assert abs(ratio - expected) < 1e-12 * max(1.0, expected)

    def test_carleson_precondition(self):
        sigma, w = random_ensemble(72, 1, 8, 10)[0]
        g = unit_grid(sigma, w, 10)
        # a nested chain repeating the same mass is not Carleson
        chain = [g.root_interval] + [g.interval(lev, 0) for lev in range(1, 5)]
        h = WeightedFunction.constant(sigma)
        if sigma.mass_on(g.interval(4, 0).interval) == 0:
            pytest.skip("chain carries no mass in this draw")
        with pytest.raises(PreconditionViolation):
            functional_energy_ratio(h, chain, {}, g)

    def test_adaptedness_violation(self):
        sigma, w = random_ensemble(73, 1, 12, 10)[0]
        g = unit_grid(sigma, w, 10)
        root = g.root_interval
        from h2w.haar import splitting_nodes

        nodes = splitting_nodes(w, g)
        shallow = [n for n in nodes if n.level < 6]
        if not shallow:
            pytest.skip("no shallow splitting interval in this draw")
        J = GridInterval(g, shallow[0].level, shallow[0].index)
        hj = haar_function(J, w)
        h = WeightedFunction.constant(sigma)
        with pytest.raises(AdaptednessViolation):
            functional_energy_ratio(h, [root], {root.key: hj}, g)

    def test_negative_h_rejected(self):
        sigma, w = random_ensemble(74, 1, 8, 10)[0]
        g = unit_grid(sigma, w, 10)
        h = WeightedFunction(sigma, -np.ones(sigma.n_atoms))
        with pytest.raises(PreconditionViolation):
            functional_energy_ratio(h, [g.root_interval], {}, g)


class TestComputeReport:
    def test_micro_report(self, micro_pair):
        rep = compute_report(*micro_pair, depth=8)
        assert rep.norm_N == 2.0
        assert rep.testing_fwd == 2.0 and rep.testing_bwd == 2.0
        assert abs(rep.a2 - 10.24) < 1e-12
        assert abs(rep.h_const - 5.2) < 1e-12
        assert abs(rep.n_over_h - 2.0 / 5.2) < 1e-12
        ratios = rep.paper_ratios()
        assert abs(ratios["t_over_n"] - 1.0) < 1e-12

    def test_empty_w(self):
        sigma = AtomicMeasure.from_triples([(1, 3, 1.0)])
        rep = compute_report(sigma, AtomicMeasure.empty(), depth=6)
        assert rep.norm_N == 0.0 and rep.a2 == 0.0 and rep.h_const == 0.0
        assert rep.n_over_h == 0.0
        assert rep.meta["truncation_scan_size"] == 1

    def test_scan_size_is_the_candidate_count(self):
        sigma, w = random_ensemble(77, 1, 16, 10)[0]
        rep = compute_report(sigma, w, depth=10)
        dists = np.abs(sigma.positions_f[:, None] - w.positions_f[None, :]).ravel()
        assert rep.meta["truncation_scan_size"] == len(truncation_candidates(dists))

    def test_json_dict_schema(self, micro_pair):
        rep = compute_report(*micro_pair, depth=8)
        body = rep.to_json_dict()
        assert body["schema_version"] == 1
        assert "paper_ratios" in body["meta"]
        for key in ("norm_N", "a2", "testing_fwd", "testing_bwd", "h_const"):
            assert key in body

    def test_report_invariant_on_ensemble(self):
        for sigma, w in random_ensemble(75, 4, 16, 10):
            rep = compute_report(sigma, w, depth=10)
            assert rep.testing_fwd <= rep.norm_N * (1 + 1e-9)
            assert rep.testing_bwd <= rep.norm_N * (1 + 1e-9)
            assert rep.h_const == math.sqrt(rep.a2) + max(rep.testing_fwd, rep.testing_bwd)
