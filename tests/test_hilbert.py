import math

import numpy as np
import pytest

from h2w.errors import AtomCollision, PreconditionViolation
from h2w.haar import WeightedFunction, haar_function
import h2w.hilbert as hilbert
from h2w.grid import GridInterval
from h2w.haar import splitting_nodes
from h2w.hilbert import (
    TruncationSpec,
    TruncationTable,
    hilbert_pairing,
    kernel_difference_factor,
    kernel_stack,
    kernel_values,
    monotonicity_mono1,
    monotonicity_p_less_h,
    single_scale_average,
    smooth_kernel,
    transform,
    truncation_candidates,
    truncation_compare,
    weak_boundedness,
)
from h2w.grid import build_grid
from h2w.measure import AtomicMeasure, Interval, dyadic, random_ensemble

from conftest import crafted_cases, oracle_cases, shifted_pair, unit_grid


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


def _factor_oracle(x, x_prime, y, alpha, beta):
    """The unblocked elementwise formula of ``kernel_difference_factor``."""
    k_diff = smooth_kernel(y - x_prime, alpha, beta) - smooth_kernel(y - x, alpha, beta)
    denom_num = (y - x) * (y - x_prime)
    dx = x_prime - x
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(dx != 0.0, k_diff * denom_num / np.where(dx == 0.0, 1.0, dx), 1.0)


class TestBlockedKernelDifferenceFactor:
    @pytest.mark.parametrize("elements", [808, 1 << 16])
    def test_blocks_bitwise(self, monkeypatch, elements):
        """100,000 triples over the rise, the middle, the taper and the far
        zone, a tenth of them with x' == x, in one and two dimensions and
        broadcast against a scalar x."""
        monkeypatch.setattr(hilbert, "_STACK_BLOCK", elements)
        rng = np.random.default_rng(7)
        n, alpha, beta = 100_000, 0.2, 5.0
        x = rng.uniform(-2, 2, n)
        y = x + rng.choice([-1.0, 1.0], n) * rng.uniform(0.0, 2.5 * beta, n)
        xp = x + rng.uniform(-0.49, 0.49, n) * (y - x)
        xp[::10] = x[::10]
        want = _factor_oracle(x, xp, y, alpha, beta)
        assert np.any(want == 0.0) and np.any(want > 1.0) and np.any(xp == x)
        got = kernel_difference_factor(x, xp, y, alpha, beta)
        assert got.tobytes() == want.tobytes()
        shape = (1000, 100)
        got = kernel_difference_factor(x.reshape(shape), xp.reshape(shape), y.reshape(shape), alpha, beta)
        assert got.shape == shape and got.tobytes() == want.tobytes()
        got = kernel_difference_factor(0.0, xp - x, y - x, alpha, beta)
        assert got.tobytes() == _factor_oracle(0.0, xp - x, y - x, alpha, beta).tobytes()
        assert kernel_difference_factor(x[:0], xp[:0], y[:0], alpha, beta).shape == (0,)

    def test_kernel_suite_peak(self):
        """The kernel suite took 10 MiB at its peak (its 100,000-triple check)
        when the factor was built whole; its lines stay as they were."""
        import tracemalloc

        from h2w.verify import SuiteConfig, run_suite

        tracemalloc.start()
        try:
            suite = run_suite("kernel", SuiteConfig(seed=1, count=60, max_atoms=32))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 << 20
        assert [(r.name, r.ok, r.detail) for r in suite.results] == [
            ("seams_a0.5_b2.0", True, "max seam dev 0.00e+00"),
            ("seams_a0.125_b1.0", True, "max seam dev 0.00e+00"),
            ("seams_a1.0_b64.0", True, "max seam dev 0.00e+00"),
            ("monotone_decreasing", True, "on a dense grid of (0, 10]"),
            ("convex_right_concave_left", True, "second differences signed as the odd shape demands"),
            ("middle_regime_factor_one", True, "max |C-1| = 5.11e-15 on 10000 triples"),
            ("factor_in_unit_interval", True, "100000 triples with |x-y| <= (2/3) beta"),
            ("taper_exceeds_one_documented", True, "max factor 2.888 in (1, 4] on taper triples"),
            ("far_zone_factor_zero", True, "both kernel values vanish"),
            ("raw_equals_taper_limit", True, "dev 0.00e+00"),
            ("truncation_compare_bounded", True, "max ratio 1.4158 (<= 2 by the kernel shape)"),
            ("truncation_compare", True, "observed 1.41581 <= bound 2.16204 (recorded 1.72963)"),
        ]


class TestBilinearForms:
    def test_micro_value(self, micro_pair):
        sigma, w = micro_pair
        f = WeightedFunction.constant(sigma)
        g = WeightedFunction.constant(w)
        assert hilbert_pairing(f, g) == -2.0
        # the target-minus-source double sum is the pairing with roles swapped
        assert hilbert_pairing(g, f) == 2.0

    def test_zero_inputs(self, micro_pair):
        sigma, w = micro_pair
        z = WeightedFunction(sigma, np.zeros(1))
        g = WeightedFunction.constant(w)
        assert hilbert_pairing(z, g) == 0.0

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

    @staticmethod
    def _assert_oracle(distances, refinement):
        got = truncation_candidates(distances, refinement)
        want = _candidates_oracle(distances, refinement)
        assert np.array_equal(got.code, [("none", "hard", "smooth").index(tr.mode) for tr in want])
        assert np.array_equal(got.inner, [tr.inner for tr in want])
        assert np.array_equal(got.outer, [tr.outer for tr in want])
        assert list(got) == want

    @pytest.mark.parametrize("refinement", [0, 1, 2, 4, 8])
    def test_table_matches_list_oracle(self, refinement):
        for family in ("uniform", "mixed", "clusters", "lacunary"):
            for sigma, w in random_ensemble(31, 6, 32, 14, family=family):
                diffs = sigma.positions_f[:, None] - w.positions_f[None, :]
                self._assert_oracle(np.abs(diffs).ravel(), refinement)
        self._assert_oracle(np.array([]), refinement)
        self._assert_oracle(np.array([0.5]), refinement)
        # a lacunary pair: distances 2^-40 .. 1
        sigma = AtomicMeasure.from_triples([(0, 0, 1.0)])
        w = AtomicMeasure.from_triples([(1, k, 1.0) for k in range(41)])
        dists = np.abs(sigma.positions_f[:, None] - w.positions_f[None, :]).ravel()
        self._assert_oracle(dists, refinement)

    def test_rows_checked_as_specs(self):
        with pytest.raises(ValueError, match="0 < alpha < beta"):
            TruncationTable([2, 2], [0.5, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="0 < alpha < beta"):
            TruncationTable([2], [np.nan], [1.0])
        with pytest.raises(ValueError, match="inner < outer"):
            TruncationTable([0, 1], [0.0, 2.0], [np.inf, 2.0])
        with pytest.raises(ValueError, match="inner < outer"):
            TruncationTable([1], [-1.0], [2.0])
        with pytest.raises(ValueError):
            TruncationTable([3], [0.5], [1.0])
        table = TruncationTable([1, 0], [0.0, 0.0], [1.0, np.inf])
        assert list(table) == [TruncationSpec("hard", 0.0, 1.0), hilbert.NONE_TRUNCATION]
        assert len(table) == 2 and len(TruncationTable([], [], [])) == 0


def _table(specs):
    """The table of a few specs, in their order."""
    rows = [(hilbert._MODES.index(tr.mode), tr.inner, tr.outer) for tr in specs]
    return TruncationTable(*zip(*rows)) if rows else TruncationTable([], [], [])


def _candidates_oracle(distances, refinement):
    """The scan as a list of specs, built by the per-pair loops that the
    table replaced."""

    def subsample(values, count):
        if len(values) <= count:
            return values
        return values[np.unique(np.round(np.geomspace(1, len(values), count)).astype(int) - 1)]

    d = np.unique(np.asarray(distances, dtype=float))
    d = d[d > 0.0]
    cands = [hilbert.NONE_TRUNCATION]
    if len(d) == 0:
        return cands
    hard_vals = subsample(d, max(2, 2 * refinement))
    lo = hard_vals * (1.0 - 1e-9)
    hi = hard_vals * (1.0 + 1e-9)
    for a in range(len(hard_vals)):
        for b in range(a, len(hard_vals)):
            cands.append(TruncationSpec("hard", float(lo[a]), float(hi[b])))
    smooth_base = subsample(d, max(2, refinement + 2))
    refined = [smooth_base]
    for u, v in zip(smooth_base[:-1], smooth_base[1:]):
        if v > u:
            refined.append(np.geomspace(u, v, refinement + 2)[1:-1])
    vals = np.unique(np.concatenate(refined + [[0.5 * d[0], 2.0 * d[-1]]]))
    vals = subsample(vals, max(3, 2 * refinement))
    big = 8.0 * d[-1]
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            cands.append(TruncationSpec("smooth", float(vals[i]), float(vals[j])))
        if big > vals[i]:
            cands.append(TruncationSpec("smooth", float(vals[i]), big))
    return cands


class TestKernelStack:
    @staticmethod
    def _assert_bitwise(diffs, cands):
        got = kernel_stack(diffs, _table(cands))
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

    @pytest.mark.parametrize("elements", [1, 5, 64])
    def test_runs_sharing_cutoffs_across_blocks(self, monkeypatch, elements):
        """Blocks of a few rows split the tapered runs that share an alpha
        (the scan's rows (vals[i], vals[j]) for one i) or a beta (a mono1
        scan), and the rows of a shuffled table."""
        monkeypatch.setattr(hilbert, "_STACK_BLOCK", elements)
        for sigma, w in random_ensemble(49, 4, 12, 10, family="mixed"):
            diffs = sigma.positions_f[:, None] - w.positions_f[None, :]
            d = np.abs(diffs).ravel()
            scan = list(truncation_candidates(d, 4))
            alphas = np.unique(np.concatenate([d * (1 - 1e-9), d * (1 + 1e-9)]))
            mono = [TruncationSpec("smooth", float(a), 2.0 * d.max()) for a in alphas]
            shuffled = [scan[k] for k in np.random.default_rng(len(d)).permutation(len(scan))]
            for cands in (scan, mono, shuffled):
                self._assert_bitwise(diffs, cands)

    def test_peak_memory_of_a_mono1_scan(self, monkeypatch):
        """A mono1 scan's table gives every row its own alpha; the per-alpha
        rows are formed block by block, so a stack build holds the stack,
        the full-size rows that every run reads (|y|, -|y|, 1/y, sign y),
        one block of doubles with its mask, and numpy's fixed iterator
        buffers; never T rows of temporaries."""
        import tracemalloc

        seen = []
        scan = hilbert._pairing_scan
        monkeypatch.setattr(hilbert, "_pairing_scan", lambda f, g, c: seen.append((f, g, c)) or scan(f, g, c))
        sigma, w = random_ensemble(3, 2, 32, 12, family="uniform")[1]
        grid = unit_grid(sigma, w, 12)
        node = max(splitting_nodes(w, grid), key=lambda n: n.level)
        jj = GridInterval(grid, node.level, node.index)
        anc = jj.ancestor(node.level - 3)
        holes = sigma.restrict(grid.root_interval).restrict_complement(anc)
        signs = np.ones(holes.n_atoms)
        monotonicity_mono1(sigma, haar_function(jj, w), grid.root_interval, anc, jj, grid, signs)
        ((f, g, cands),) = seen
        diffs = f.base.positions_f[:, None] - g.base.positions_f[None, :]
        assert len(np.unique(cands.inner)) == len(cands)
        block = hilbert._STACK_BLOCK // diffs.size * diffs.size * 8
        tracemalloc.start()
        try:
            stack = kernel_stack(diffs, cands)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stack.nbytes > 8 * block
        assert peak - stack.nbytes <= 5 * diffs.nbytes + 1.25 * block + (256 << 10)


class TestKernelFacts:
    """What the testing scan's pruning bound rests on (``constants._class_bounds``):
    candidate 0 is the untruncated kernel 1/y, and every candidate has the
    sign of y and at most its size, value by value as computed."""

    def test_scan_stacks(self):
        from h2w.constants import kernel_scan

        for name, sigma, w, _ in oracle_cases():
            scan = kernel_scan(sigma, w)
            diffs = sigma.positions_f[:, None] - w.positions_f[None, :]
            assert scan.candidates[0] == hilbert.NONE_TRUNCATION, name
            assert np.array_equal(scan.stack[0], 1.0 / diffs), name
            assert np.all(scan.stack * diffs >= 0.0), name
            assert np.all(np.abs(scan.stack) <= np.abs(scan.stack[0])), name


class TestLemmaRatio:
    def test_precondition_names_hypothesis(self, micro_pair):
        sigma, w = micro_pair
        grid = unit_grid(sigma, w, 1)
        # K does not contain I strictly
        K, I = grid.interval(1, 0), grid.root_interval
        with pytest.raises(PreconditionViolation) as err:
            monotonicity_p_less_h(sigma, WeightedFunction.constant(w), K, I, grid)
        assert "K must strictly contain I" in str(err.value)

    def test_weak_boundedness_trivial_when_one_side_empty(self):
        sigma = AtomicMeasure.from_triples([(1, 3, 1.0)])  # inside [0, 1/2)
        w = AtomicMeasure.from_triples([(3, 3, 1.0)])  # also inside [0, 1/2)
        grid = unit_grid(sigma, w, 1)
        lhs, rhs, ratio = weak_boundedness(sigma, w, grid.interval(1, 0), grid.interval(1, 1), 1.0)
        assert lhs == 0.0 and rhs == 0.0 and ratio == 0.0

    def test_weak_boundedness_shared_endpoint_is_exact(self):
        # the halves of [-2, 2) shifted by -2^-1100 meet at -2^-1100, whose
        # float is -0.0: sigma's atom at 0 is beside it, not on it
        sigma = AtomicMeasure((-0.75, 0.0, 0.625), (1.0, 2.0, 0.5))
        w = AtomicMeasure((-0.125, 2.0**-57, 1.5), (1.5, 1.0, 0.25))
        grid = build_grid(Interval(dyadic(-2), dyadic(2)), 13, -dyadic(1, 1100), sigma, w)
        halves = grid.interval(1, 0), grid.interval(1, 1)
        assert halves[1].left_f == 0.0
        assert weak_boundedness(sigma, w, *halves, 1.0) == (
            1.4444444444444444,
            1.118033988749895,
            1.2919503869998783,
        )

    def test_weak_boundedness_refuses_a_charged_shared_endpoint(self):
        # shifted by -2^-55 the halves meet at -2^-55, a double; the grid's
        # own measures keep off it, the sigma passed in does not
        _, w, grid = shifted_pair()
        on_it = AtomicMeasure((-1.0, -(2.0**-55)), (1.0, 1.0))
        halves = grid.interval(1, 0), grid.interval(1, 1)
        for args in ((on_it, w), (w, on_it)):
            with pytest.raises(PreconditionViolation, match="shared endpoint"):
                weak_boundedness(*args, *halves, 1.0)
        beside = AtomicMeasure((-1.0, -(2.0**-56)), (1.0, 1.0))
        assert weak_boundedness(beside, w, *halves, 1.0)[0] > 0.0
        with pytest.raises(PreconditionViolation, match="share an endpoint"):
            weak_boundedness(beside, w, halves[0], grid.interval(2, 3), 1.0)

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
        holes = sigma.restrict(grid.root_interval).restrict_complement(gi)
        if holes.n_atoms == 0:
            pytest.skip("no mass outside the middle interval")
        lhs, rhs, ratio = monotonicity_p_less_h(sigma, h_j, grid.root_interval, gi, grid)
        assert lhs > 0.0 and rhs > 0.0 and ratio > 0.0


def _pairing_scan_oracle(f, g, cands):
    """One hilbert_pairing per truncation."""
    return max(abs(hilbert_pairing(f, g, tr)) for tr in cands)


class TestPairingScanMatchesOracle:
    def test_scan_bitwise(self):
        for label, sigma, w, _ in [*oracle_cases(), *crafted_cases()]:
            if sigma.n_atoms == 0 or w.n_atoms == 0:
                continue
            rng = np.random.default_rng(len(label))
            f = WeightedFunction(sigma, rng.uniform(-1, 1, sigma.n_atoms))
            g = WeightedFunction(w, rng.standard_normal(w.n_atoms))
            diffs = sigma.positions_f[:, None] - w.positions_f[None, :]
            for refinement in (2, 4):
                cands = truncation_candidates(np.abs(diffs).ravel(), refinement)
                assert hilbert._pairing_scan(f, g, cands) == _pairing_scan_oracle(f, g, cands), label

    def test_lemma_ratios_bitwise(self, monkeypatch):
        """mono1 and weak boundedness on the instances the lemma suite builds."""
        cases = []
        for label, sigma, w, grid in [*oracle_cases(("uniform", "mixed")), *crafted_cases()]:
            nodes = [n for n in splitting_nodes(w, grid) if n.level >= 7]
            K = grid.root_interval
            for n in nodes[:3]:
                jj = GridInterval(grid, n.level, n.index)
                anc = jj.ancestor(n.level - 6)
                holes = sigma.restrict(K).restrict_complement(anc)
                if holes.n_atoms == 0:
                    continue
                signs = np.random.default_rng(n.index).uniform(-1, 1, holes.n_atoms)
                args = (sigma, haar_function(jj, w), K, anc, jj, grid, signs)
                cases.append((monotonicity_mono1, args))
            args = (sigma, w, grid.interval(1, 0), grid.interval(1, 1), 1.0)
            cases.append((weak_boundedness, args))
        got = [lemma(*args) for lemma, args in cases]
        monkeypatch.setattr(hilbert, "_pairing_scan", _pairing_scan_oracle)
        assert got == [lemma(*args) for lemma, args in cases]
        assert sum(lemma is monotonicity_mono1 and r[0] > 0 for (lemma, _), r in zip(cases, got)) >= 20

    @pytest.mark.parametrize("elements", [1, 5, 64])
    def test_blocks_bitwise(self, monkeypatch, elements):
        """Blocks of a row or a few split the tapered runs that share an
        alpha or a beta; the scans and the lemma values stay bitwise."""
        monkeypatch.setattr(hilbert, "_STACK_BLOCK", elements)
        self.test_scan_bitwise()
        self.test_lemma_ratios_bitwise(monkeypatch)

    @pytest.mark.parametrize("elements", [1, 5, 64])
    def test_max_in_a_later_block(self, monkeypatch, elements):
        """Rows ordered by their pairing put the maximum in the last block."""
        monkeypatch.setattr(hilbert, "_STACK_BLOCK", elements)
        sigma, w = random_ensemble(52, 1, 8, 10, family="mixed")[0]
        rng = np.random.default_rng(52)
        f = WeightedFunction(sigma, rng.uniform(-1, 1, sigma.n_atoms))
        g = WeightedFunction(w, rng.standard_normal(w.n_atoms))
        diffs = sigma.positions_f[:, None] - w.positions_f[None, :]
        scan = truncation_candidates(np.abs(diffs).ravel(), 2)
        values = [abs(hilbert_pairing(f, g, tr)) for tr in scan]
        order = np.argsort(values, kind="stable")
        cands = TruncationTable(scan.code[order], scan.inner[order], scan.outer[order])
        rows = max(1, elements // diffs.size)
        assert len(cands) > 2 * rows and values[order[-1]] > values[order[rows - 1]]
        assert hilbert._pairing_scan(f, g, cands) == _pairing_scan_oracle(f, g, cands) == max(values)

    def test_mono1_scan_of_a_128_atom_suite_in_a_block(self, monkeypatch):
        """A 128-atom uniform lemma suite asks mono1 for stacks of up to
        4,561 x 3,696 doubles (132.6 MiB when built whole); each call now
        holds about a block, and the suite's maxima keep every bit."""
        import tracemalloc

        import h2w.verify as verify

        peaks = []
        mono1 = verify.monotonicity_mono1

        def traced(*args):
            tracemalloc.start()
            try:
                return mono1(*args)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(verify, "monotonicity_mono1", traced)
        cfg = verify.SuiteConfig(seed=1, count=8, max_atoms=128, family="uniform")
        suite = verify.run_suite("lemmas", cfg)
        assert len(peaks) == 4 and max(peaks) < 4 << 20
        assert suite.observed == {
            "mono_p_less_h_ratio_max": 1.1590243795965751,
            "mono1_ratio_max": 0.4139310264196218,
            "weak_boundedness_ratio_max": 0.04077919725475631,
        }


def _truncation_compare_oracle(f, inner, outer, x_points):
    """The per-point loop: two transforms and two window averages a point."""
    sigma = f.base
    absf = np.abs(f.values)
    best = (0.0, 0.0, 0.0)
    for x in np.asarray(x_points, dtype=float):
        hard = transform(sigma, absf, x, TruncationSpec("hard", inner, outer))
        smooth = transform(sigma, absf, x, TruncationSpec("smooth", inner, outer))
        lhs = abs(hard - smooth)
        rhs = single_scale_average(sigma, absf, x, inner) + single_scale_average(
            sigma, absf, x, outer
        )
        if lhs > 0.0 and rhs > 0.0 and lhs / rhs > best[2]:
            best = (lhs, rhs, lhs / rhs)
    return best


class TestTruncationCompare:
    @staticmethod
    def _assert_bitwise(*args):
        got, want = truncation_compare(*args), _truncation_compare_oracle(*args)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @staticmethod
    def _suite_inputs():
        """The kernel suite's calls in ``verify all``: its first 10 pairs, two
        cutoff pairs each, 61 points."""
        for idx, (sigma, w) in enumerate(random_ensemble(1, 60, 32, 12, family="mixed")[:10]):
            if sigma.n_atoms == 0:
                continue
            rng = np.random.default_rng(1 + idx)
            f = WeightedFunction(sigma, np.abs(rng.standard_normal(sigma.n_atoms)))
            span = max(1e-3, float(sigma.positions_f.max() - sigma.positions_f.min()))
            for e, dd in ((0.05 * span, 0.5 * span), (0.2 * span, 2.0 * span)):
                yield f, e, dd, np.linspace(-0.5, 1.5, 61)

    def test_suite_inputs_bitwise(self):
        cases = list(self._suite_inputs())
        assert len(cases) == 20
        for args in cases:
            self._assert_bitwise(*args)

    def test_oracle_and_crafted_cases_bitwise(self):
        for label, sigma, w, _ in [*oracle_cases(), *crafted_cases()]:
            if sigma.n_atoms == 0:
                continue
            rng = np.random.default_rng(len(label))
            f = WeightedFunction(sigma, rng.standard_normal(sigma.n_atoms))
            lo, hi = float(sigma.positions_f[0]), float(sigma.positions_f[-1])
            span = max(hi - lo, 1e-3)
            points = np.concatenate([np.linspace(lo - span, hi + span, 41), sigma.positions_f])
            for inner, outer in ((0.01 * span, 0.3 * span), (0.25 * span, 4.0 * span)):
                self._assert_bitwise(f, inner, outer, points)

    def test_window_edges_on_atoms(self):
        """x +- 3a exactly on an atom: the open window leaves that atom out."""
        sigma = AtomicMeasure.from_triples([(k, 3, 9.0 + k) for k in range(-8, 9)])
        f = WeightedFunction(sigma, np.linspace(-1.0, 1.0, sigma.n_atoms))
        inner, outer = 0.125, 0.5
        pos = sigma.positions_f
        points = np.concatenate([pos + 3.0 * inner, pos - 3.0 * inner, pos + 3.0 * outer, pos])
        for c in (inner, outer):
            assert np.isin(points - 3.0 * c, pos).any() and np.isin(points + 3.0 * c, pos).any()
        self._assert_bitwise(f, inner, outer, points)
        for x in points:
            self._assert_bitwise(f, inner, outer, [x])

    def test_empty_sigma_and_empty_points(self):
        f = WeightedFunction(AtomicMeasure.empty(), np.zeros(0))
        assert truncation_compare(f, 0.5, 2.0, np.linspace(0.0, 1.0, 5)) == (0.0, 0.0, 0.0)
        g = WeightedFunction.constant(AtomicMeasure.from_triples([(1, 2, 1.0)]))
        for inner, outer in ((0.5, 2.0), (0.0, 2.0), (3.0, 2.0), (-1.0, 1.0)):
            assert truncation_compare(g, inner, outer, []) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("empty", [False, True])
    def test_invalid_cutoffs_raise_as_the_loop(self, empty):
        sigma = AtomicMeasure.empty() if empty else AtomicMeasure.from_triples([(1, 2, 1.0)])
        f = WeightedFunction.constant(sigma) if not empty else WeightedFunction(sigma, np.zeros(0))
        for inner, outer in ((0.0, 2.0), (3.0, 2.0), (-1.0, 1.0), (1.0, 1.0), (math.nan, 1.0)):
            with pytest.raises(ValueError) as want:
                _truncation_compare_oracle(f, inner, outer, [0.5])
            with pytest.raises(ValueError) as got:
                truncation_compare(f, inner, outer, [0.5])
            assert str(got.value) == str(want.value)

    def test_kernels_evaluated_once_per_call(self, monkeypatch):
        calls = []
        real = hilbert.smooth_kernel
        monkeypatch.setattr(hilbert, "smooth_kernel", lambda *a: calls.append(1) or real(*a))
        f, inner, outer, points = next(self._suite_inputs())
        truncation_compare(f, inner, outer, points)
        assert len(points) == 61 and len(calls) == 1
