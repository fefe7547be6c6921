import numpy as np
import pytest

from h2w.errors import AtomCollision, PreconditionViolation
from h2w.haar import WeightedFunction, haar_function
from h2w.hilbert import (
    LemmaInstance,
    TruncationSpec,
    bilinear_form,
    hilbert_pairing,
    kernel_difference_factor,
    kernel_stack,
    kernel_values,
    lemma_ratio,
    single_scale_average,
    smooth_kernel,
    transform,
    truncation_candidates,
)
from h2w.measure import AtomicMeasure, random_ensemble

from conftest import unit_grid


class TestSmoothKernel:
    def test_seams(self):
        for a, b in ((0.5, 2.0), (0.1, 30.0)):
            assert abs(smooth_kernel(a, a, b) - 1 / a) < 1e-12
            assert abs(smooth_kernel(b, a, b) - 1 / b) < 1e-12
            assert smooth_kernel(2 * b, a, b) == 0.0

    def test_linear_branch_value(self):
        # K(alpha/2) = 3/(2 alpha)
        assert abs(smooth_kernel(0.25, 0.5, 2.0) - 3.0) < 1e-15

    def test_odd_and_zero_at_zero(self):
        assert smooth_kernel(0.0, 0.5, 2.0) == 0.0
        ys = np.array([-3.0, -0.7, 0.2, 1.4])
        assert np.allclose(smooth_kernel(ys, 0.5, 2.0), -smooth_kernel(-ys, 0.5, 2.0))


class TestTransform:
    def test_hard_single_atom(self):
        nu = AtomicMeasure.from_triples([(1, 0, 1.0)])
        assert transform(nu, None, 0.0, TruncationSpec("hard", 0.5, 2.0)) == 1.0

    def test_smooth_single_atom(self):
        nu = AtomicMeasure.from_triples([(1, 0, 1.0)])
        assert transform(nu, None, 0.0, TruncationSpec("smooth", 0.5, 2.0)) == 1.0

    def test_odd_cancellation(self):
        nu = AtomicMeasure.from_triples([(-1, 0, 1.0), (1, 0, 1.0)])
        for tr in (TruncationSpec("hard", 0.5, 2.0), TruncationSpec("smooth", 0.5, 2.0), TruncationSpec()):
            assert transform(nu, None, 0.0, tr) == 0.0

    def test_atom_collision(self):
        nu = AtomicMeasure.from_triples([(1, 1, 1.0)])
        with pytest.raises(AtomCollision):
            transform(nu, None, 0.5, TruncationSpec())

    def test_raw_equals_taper_once_cutoffs_clear(self):
        nu = AtomicMeasure.from_triples([(1, 2, 1.0), (7, 3, 2.5)])
        x = 2.0
        raw = transform(nu, None, x)
        tapered = transform(nu, None, x, TruncationSpec("smooth", 0.1, 4.0))
        assert raw == tapered


class TestSingleScaleAverage:
    def test_empty_window(self):
        mu = AtomicMeasure.from_triples([(1, 0, 1.0)])
        assert single_scale_average(mu, None, 10.0, 0.5) == 0.0

    def test_atom_at_center(self):
        mu = AtomicMeasure.from_triples([(1, 1, 2.0)])
        assert single_scale_average(mu, None, 0.5, 0.25) == 8.0


class TestKernelDifferenceFactor:
    def test_middle_regime_exactly_one(self):
        assert abs(kernel_difference_factor(0.0, 0.1, 1.0, 0.2, 30.0) - 1.0) < 1e-12

    def test_degenerate_offset_reports_one(self):
        assert kernel_difference_factor(0.3, 0.3, 1.0, 0.2, 30.0) == 1.0

    def test_far_zone_zero(self):
        assert kernel_difference_factor(0.0, 0.1, 100.0, 0.2, 3.0) == 0.0

    def test_unit_interval_below_taper(self, rng):
        n = 20_000
        alpha, beta = 0.1, 6.0
        d = rng.uniform(1e-3, (2 / 3) * beta, n)
        x = rng.uniform(-1, 1, n)
        y = x + np.where(rng.integers(0, 2, n) == 0, -1, 1) * d
        xp = x + rng.uniform(0.05, 0.45, n) * d * np.where(rng.integers(0, 2, n) == 0, -1, 1)
        fac = kernel_difference_factor(x, xp, y, alpha, beta)
        assert np.all(fac >= -1e-12) and np.all(fac <= 1 + 1e-12)

    def test_taper_exceeds_one(self):
        # once both arguments land on the taper, increments beat those of 1/y
        fac = kernel_difference_factor(0.0, 0.4, 8.0, 0.1, 5.0)
        assert 1.0 < fac <= 4.0


class TestBilinearForms:
    def test_micro_value(self, micro_pair):
        sigma, w = micro_pair
        f = WeightedFunction.constant(sigma)
        g = WeightedFunction.constant(w)
        assert bilinear_form(f, g) == 2.0
        assert hilbert_pairing(f, g) == -2.0

    def test_zero_inputs(self, micro_pair):
        sigma, w = micro_pair
        z = WeightedFunction(sigma, np.zeros(1))
        g = WeightedFunction.constant(w)
        assert bilinear_form(z, g) == 0.0

    def test_antisymmetry(self):
        for sigma, w in random_ensemble(41, 3, 12, 9):
            f = WeightedFunction.constant(sigma)
            g = WeightedFunction.constant(w)
            lhs = hilbert_pairing(f, g)
            rhs = -hilbert_pairing(g, f)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_collision_rejected(self):
        a = AtomicMeasure.from_triples([(1, 2, 1.0)])
        b = AtomicMeasure.from_triples([(1, 2, 2.0)])
        with pytest.raises(AtomCollision):
            hilbert_pairing(WeightedFunction.constant(a), WeightedFunction.constant(b))


class TestTruncationCandidates:
    def test_single_distance_reaches_kernel_peak(self):
        cands = truncation_candidates(np.array([0.5]), refinement=4)
        vals = []
        for tr in cands:
            if tr.mode == "smooth":
                vals.append(smooth_kernel(0.5, tr.inner, tr.outer))
            elif tr.mode == "hard":
                vals.append(2.0 if tr.inner < 0.5 < tr.outer else 0.0)
            else:
                vals.append(2.0)
        assert max(vals) == 2.0

    def test_empty_distances(self):
        cands = truncation_candidates(np.array([]))
        assert len(cands) == 1 and cands[0].mode == "none"

    def test_includes_raw_kernel(self):
        cands = truncation_candidates(np.geomspace(0.01, 1, 40))
        assert any(tr.mode == "none" for tr in cands)


class TestKernelStack:
    @staticmethod
    def _assert_bitwise(diffs, cands):
        got = kernel_stack(diffs, cands)
        want = np.stack([kernel_values(diffs, tr) for tr in cands])
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("mode", ["none", "hard", "smooth"])
    def test_matches_kernel_values_on_scans(self, mode):
        for sigma, w in random_ensemble(48, 6, 32, 12, family="mixed"):
            diffs = sigma.positions_f[:, None] - w.positions_f[None, :]
            cands = [
                tr for tr in truncation_candidates(np.abs(diffs).ravel()) if tr.mode == mode
            ]
            self._assert_bitwise(diffs, cands)

    def test_seams_zeros_and_mixed_order(self):
        diffs = np.array([[0.0, 0.5, -0.5, 2.0], [-2.0, 4.0, -4.0, -1e-3]])
        cands = [
            TruncationSpec("smooth", 0.5, 2.0),
            TruncationSpec("hard", 0.5, 2.0),
            TruncationSpec("none"),
            TruncationSpec("smooth", 1e-3, 4.0),
            TruncationSpec("hard", 0.0, 4.0),
            TruncationSpec("smooth", 0.25, 1.0),
        ]
        self._assert_bitwise(diffs, cands)
        self._assert_bitwise(diffs[0], cands)


class TestLemmaRatio:
    def test_unknown_id(self):
        with pytest.raises(ValueError):
            lemma_ratio("nope", LemmaInstance())

    def test_precondition_names_hypothesis(self, micro_pair):
        sigma, w = micro_pair
        grid = unit_grid(sigma, w, 1)
        inst = LemmaInstance(
            sigma=sigma,
            w=w,
            k_interval=grid.interval(1, 0),
            i_interval=grid.root_interval,  # K does not contain I strictly
            g=WeightedFunction.constant(w),
            grid=grid,
        )
        with pytest.raises(PreconditionViolation) as err:
            lemma_ratio("monotonicity_P<H", inst)
        assert "K must strictly contain I" in str(err.value)

    def test_weak_boundedness_trivial_when_one_side_empty(self):
        sigma = AtomicMeasure.from_triples([(1, 3, 1.0)])  # inside [0, 1/2)
        w = AtomicMeasure.from_triples([(3, 3, 1.0)])  # also inside [0, 1/2)
        grid = unit_grid(sigma, w, 1)
        inst = LemmaInstance(
            sigma=sigma, w=w, i_interval=grid.interval(1, 0), j_interval=grid.interval(1, 1)
        )
        lhs, rhs, ratio = lemma_ratio("weak_boundedness", inst)
        assert lhs == 0.0 and rhs == 0.0 and ratio == 0.0

    def test_mono_positive_sides(self):
        sigma, w = random_ensemble(47, 1, 12, 10)[0]
        grid = unit_grid(sigma, w, 10)
        from h2w.haar import splitting_nodes
        from h2w.grid import GridInterval

        nodes = [n for n in splitting_nodes(w, grid) if n.level >= 2]
        if not nodes:
            pytest.skip("no deep splitting interval in this draw")
        gi = GridInterval(grid, nodes[0].level, nodes[0].index)
        h_j = haar_function(gi, w)
        holes = sigma.restrict(grid.root_interval.interval).restrict_complement(gi.interval)
        if holes.n_atoms == 0:
            pytest.skip("no mass outside the middle interval")
        inst = LemmaInstance(
            sigma=sigma, w=w, k_interval=grid.root_interval, i_interval=gi, g=h_j, grid=grid
        )
        lhs, rhs, ratio = lemma_ratio("monotonicity_P<H", inst)
        assert lhs > 0.0 and rhs > 0.0 and ratio > 0.0
