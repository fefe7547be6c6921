import math
import os
import pickle
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from h2w import constants
from h2w.constants import (
    MAX_ARRAY_BYTES,
    _a2_bounds,
    _a2_candidates,
    _a2_values,
    _class_bounds,
    _frobenius_bounds,
    _gram_power_bounds,
    _nonneg_measure,
    _ScaledStack,
    _spectral_norms,
    a2_constant,
    compute_report,
    energy,
    energy_constant,
    energy_identity_sides,
    functional_energy_ratio,
    kernel_scan,
    norm_constant,
    pair_constants,
)
from h2w.constants import testing_constant as t_constant
from h2w.errors import (
    AdaptednessViolation,
    CommonPointMass,
    PairTooLarge,
    PreconditionViolation,
)
from h2w.grid import GridInterval, auto_grid
from h2w.haar import (
    WeightedFunction,
    _run,
    _trunk_table,
    charged_nodes,
    expand,
    haar_function,
    occupied_nodes,
)
from h2w.hilbert import _candidate_floor, kernel_values, truncation_candidates
from h2w.measure import AtomicMeasure, Interval, dilate, dyadic, random_ensemble, scale_masses
from h2w.params import DEFAULT_REFINEMENT, SUITE_BELOW_GAP, SUITE_EPS, SUITE_R
from h2w.poisson import default_j_families, maximal_intervals, poisson_stationary

from conftest import crafted_cases, oracle_cases, poisson_sum, shifted_grids, unit_grid


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


def _norm_stack(sigma, w):
    stack = kernel_scan(sigma, w).stack * np.sqrt(sigma.masses_f)[None, :, None]
    stack *= np.sqrt(w.masses_f)[None, None, :]
    return stack


def _norm_full_scan(sigma, w):
    """Reference norm: one batched SVD of every candidate, then the max."""
    if sigma.n_atoms == 0 or w.n_atoms == 0:
        return 0.0
    return float(_spectral_norms(_norm_stack(sigma, w)).max())


def _norm_cases():
    """Oracle pairs on every family and size, the wide-masses and overflow
    sets, two 128-atom pairs, and single-atom sides, whose candidates are
    rank one, so the Frobenius bound is tight to rounding."""
    cases = [(name, sigma, w) for name, sigma, w, _ in oracle_cases()]
    for kind in ("wide-masses", "overflow"):
        cases += [(kind, sigma, w) for sigma, w in _adversarial_pairs(kind)]
    cases += [("uniform-128", *pair) for pair in random_ensemble(128, 2, 128, 12)]
    cases += [("one-atom", *pair) for pair in random_ensemble(81, 12, 1, 10, family="mixed")]
    return cases


# pairs from random_ensemble(seed, count, max_atoms, depth, family)[k] whose
# largest singular value lies within 1e-6 of its bound and ranks behind a
# chunk of looser candidates; found by a search over 7,200 small pairs
_TIGHT_NORM_PAIRS = [
    (12047, 150, 4, 12, "uniform", 86),
    (16027, 150, 2, 16, "uniform", 33),
    (20035, 150, 3, 20, "mixed", 108),
]


def _stage_bounds(sigma, w):
    """Both stages' bounds for every candidate, and LAPACK's values."""
    raw = kernel_scan(sigma, w).stack
    stack = _ScaledStack(raw, np.sqrt(sigma.masses_f), np.sqrt(w.masses_f))
    frob = _frobenius_bounds(stack.stack, sigma.masses_f, w.masses_f)
    gram = _gram_power_bounds(stack, np.arange(len(frob)), frob)
    return frob, gram, _spectral_norms(stack[:])


# candidates that _spectral_norms received over random_ensemble(901, 40, 32,
# 12) when the scan pruned by min(||A||_F, sqrt(||A||_1 ||A||_inf)) alone
_ONE_STAGE_SVDS = 2152


class TestNormBranchAndBound:
    def test_pruned_scan_equals_full_scan(self):
        for name, sigma, w in _norm_cases():
            with np.errstate(over="ignore", invalid="ignore"):
                assert norm_constant(sigma, w) == _norm_full_scan(sigma, w), name

    def test_bounds_hold_for_every_candidate(self):
        for name, sigma, w in _norm_cases():
            with np.errstate(over="ignore", invalid="ignore"):
                frob, gram, values = _stage_bounds(sigma, w)
            assert not np.any(values > frob), f"stage 1, {name}"
            assert not np.any(values > gram), f"stage 2, {name}"

    def test_corrupted_bound_changes_the_result(self, monkeypatch):
        # either stage's bound 1e-6 too low skips the candidate that attains
        # the max on some pair, so the comparisons above would see it
        pairs = [
            random_ensemble(seed, count, atoms, depth, family=family)[k]
            for seed, count, atoms, depth, family, k in _TIGHT_NORM_PAIRS
        ]
        want = [norm_constant(sigma, w) for sigma, w in pairs]
        assert want == [_norm_full_scan(sigma, w) for sigma, w in pairs]
        for stage in ("_frobenius_bounds", "_gram_power_bounds"):
            with monkeypatch.context() as patch:
                real = getattr(constants, stage)
                patch.setattr(constants, stage, lambda *args: real(*args) * (1.0 - 1e-6))
                got = [norm_constant(sigma, w) for sigma, w in pairs]
            assert got != want, stage

    def test_sub_batch_gives_the_full_batch_bits(self):
        for sigma, w in random_ensemble(82, 8, 32, 12, family="mixed"):
            stack = _norm_stack(sigma, w)
            pick = np.random.default_rng(sigma.n_atoms).permutation(len(stack))[:9]
            assert np.array_equal(_spectral_norms(stack[pick]), _spectral_norms(stack)[pick])

    def test_frobenius_bound_is_the_scaled_frobenius_norm(self, monkeypatch):
        # at any block size, stage 1 is the Frobenius norm of the scaled
        # stack LAPACK sees, raised by no more than its slack and by an
        # underflow floor 150 decades below the largest candidate, and
        # finite wherever that stack is, though its squares overflow
        for block in (1, 1 << 16, 1 << 40):
            monkeypatch.setattr(constants, "_STACK_BLOCK", block)
            for name, sigma, w in _norm_cases():
                with np.errstate(over="ignore", invalid="ignore"):
                    stack = _norm_stack(sigma, w)
                    top = np.abs(stack).max(axis=(1, 2))
                    top[top == 0.0] = 1.0
                    frob = top * np.sqrt(np.square(stack / top[:, None, None]).sum(axis=(1, 2)))
                    got = _frobenius_bounds(
                        kernel_scan(sigma, w).stack, sigma.masses_f, w.masses_f
                    )
                finite = np.isfinite(frob)
                floor = 1e-150 * np.max(frob[finite], initial=0.0)
                assert np.all(got[~finite] == np.inf), name
                assert np.all(got[finite] >= frob[finite] * (1.0 - 1e-12)), name
                assert np.all(got[finite] <= frob[finite] * (1.0 + 2e-9) + floor), name

    def test_gram_power_bound_prunes_most_svds(self, monkeypatch):
        sizes = []
        real = constants._spectral_norms
        monkeypatch.setattr(
            constants, "_spectral_norms", lambda stack: sizes.append(len(stack)) or real(stack)
        )
        for sigma, w in random_ensemble(901, 40, 32, 12):
            norm_constant(sigma, w)
        assert 3 * sum(sizes) <= _ONE_STAGE_SVDS


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

    @pytest.mark.filterwarnings("error")
    def test_finite_and_monotone_at_every_refinement(self):
        # the pair of `gen --seed 5 --count 1 --max-atoms 6 --depth 8`: from
        # refinement 46 its shortest rungs had no interior and gave 0 / 0,
        # and past 1023 the rung lengths overflowed
        sigma, w = random_ensemble(5, 1, 6, 8)[0]
        values = [a2_constant(sigma, w, r) for r in [*range(61), 1023, 1100]]
        assert all(math.isfinite(v) for v in values)
        assert values == sorted(values)

    def test_huge_refinement_builds_only_the_rungs_kept(self):
        # past about refinement 1100 no further rung can be kept (its length
        # is 0 or squares to inf), so none is built or counted: the search
        # at 100000 passes the size check and is no larger than at 2000
        import tracemalloc

        sigma, w = random_ensemble(5, 1, 6, 8)[0]
        peaks = []
        for r in (2000, 20000, 100000):
            tracemalloc.start()
            try:
                assert a2_constant(sigma, w, r) == 41251.59948302509
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 1.05 * peaks[0]


def _a2_loop_oracle(sigma, w, refinement):
    """a2_constant with its candidates built one by one in Python loops."""
    pts = np.unique(np.concatenate([sigma.positions_f, w.positions_f]))
    if len(pts) > 1:
        endpoints = np.unique(np.concatenate([pts, 0.5 * (pts[:-1] + pts[1:])]))
    else:
        endpoints = pts
    lefts, rights = [], []
    n = len(endpoints)
    for i in range(n):
        for j in range(i + 1, n):
            lefts.append(endpoints[i])
            rights.append(endpoints[j])
    if n > 1:
        gaps = np.diff(endpoints)
        local = np.minimum(
            np.concatenate([[gaps[0]], gaps]), np.concatenate([gaps, [gaps[-1]]])
        )
    else:
        local = np.array([1.0])
    for c, g in zip(endpoints, local):
        for k in range(-refinement, refinement + 1):
            length = g * 2.0**k
            lefts.append(c - 0.5 * length)
            rights.append(c + 0.5 * length)
    lefts, rights = np.asarray(lefts), np.asarray(rights)

    def pvec(mu):
        L = rights - lefts
        dist = np.maximum(
            0.0,
            np.maximum(
                lefts[:, None] - mu.positions_f[None, :],
                mu.positions_f[None, :] - rights[:, None],
            ),
        )
        return (L[:, None] / (L[:, None] ** 2 + dist**2) @ mu.masses_f).ravel()

    return float(np.max(pvec(sigma) * pvec(w)))


class TestA2CandidateArrays:
    @pytest.mark.parametrize("refinement", [0, 6])
    def test_bitwise_equal_to_loop_oracle(self, refinement):
        for name, sigma, w, _ in oracle_cases():
            assert a2_constant(sigma, w, refinement) == _a2_loop_oracle(sigma, w, refinement), name

    def test_single_point_support(self):
        mu = AtomicMeasure.from_triples([(1, 2, 2.0)])
        for refinement in (0, 3):
            assert a2_constant(mu, mu, refinement) == _a2_loop_oracle(mu, mu, refinement)


def _a2_margin_pairs():
    """Pairs on which each rounding margin of ``_poisson_bounds`` is needed.

    ``cancellation``: a 1e16 atom of sigma far left of two 0.5 atoms 2^-32
    apart, whose mass vanishes from the prefix sums; without the term
    g e_in mu(R), the intervals around them compute above their bound.
    ``subnormal-masses``: sigma's masses are 2^-1074, so its products round
    by whole units of the smallest subnormal; without the underflow term,
    intervals of length 5/8 (e_in = 1.6) compute above their bound.
    ``prefix-overflow``: two 1e308 atoms of sigma, whose prefix sum
    overflows, give every interval right of both a NaN bound.
    """
    h, tiny = 1 << 31, math.ldexp(1.0, -1074)
    yield "cancellation", AtomicMeasure.from_triples(
        [(0, 0, 1e16), (h, 32, 0.5), (h + 1, 32, 0.5)]
    ), AtomicMeasure.from_triples([(h - 1, 32, 1.0), (h + 2, 32, 1.0)])
    yield "subnormal-masses", AtomicMeasure.from_triples(
        [(1, 3, tiny), (2, 3, tiny), (5, 3, tiny)]
    ), AtomicMeasure.from_triples([(3, 3, 1.0), (7, 3, 1.0)])
    yield "prefix-overflow", AtomicMeasure.from_triples(
        [(1, 3, 1e308), (2, 3, 1e308)]
    ), AtomicMeasure.from_triples([(5, 3, 1.0), (7, 3, 1.0)])


def _a2_cases():
    """The norm's cases, the heavy-ends pairs and the margin pairs."""
    return (
        _norm_cases()
        + [("heavy-ends", *pair) for pair in _adversarial_pairs("heavy-ends")]
        + list(_a2_margin_pairs())
    )


def _a2_loop_oracles(pairs, refinement):
    with np.errstate(over="ignore", invalid="ignore"):
        return [_a2_loop_oracle(sigma, w, refinement) for sigma, w in pairs]


def _one_blas_thread(fn, *args):
    """``fn(*args)`` in a fresh interpreter whose BLAS runs on one thread;
    ``fn`` is a module-level function of this file.

    A multi-threaded BLAS splits a matrix-vector product of more than about
    4e5 entries into per-thread row ranges and rounds the rows at a range
    boundary by how many threads the host has.  ``a2_constant`` keeps every
    product below that size, so it gets the single-threaded bits on any
    host; an oracle that takes the whole product at once (the 128-atom
    pairs) is compared with it on one thread.
    """
    one = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **one)
    code = (
        "import pickle, sys; fn, args = pickle.load(sys.stdin.buffer); "
        "pickle.dump(fn(*args), sys.stdout.buffer)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], input=pickle.dumps((fn, args)), capture_output=True, env=env
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return pickle.loads(proc.stdout)


def _near_tie_pair(seed):
    """sigma: one unit atom at 1/2 and up to three more; w: unit atoms at
    1/2 +- d and up to five more, all of random masses, plus 48 atoms of
    mass 1e-12 that make the search large enough to prune.  Mirror images
    about 1/2 give near-equal candidates whose bounds are tight to 1e-9."""
    rng = np.random.default_rng(seed)
    half, d = 512, int(rng.integers(1, 40))
    core = [half, half - d, half + d]
    ns, nw = int(rng.integers(0, 4)), int(rng.integers(0, 6))
    slots = rng.choice(np.setdiff1d(np.arange(1, 1024), core), size=ns + nw + 48, replace=False)
    masses = rng.choice([1.0, 0.5, 2.0, 1e-3, 1e-8], size=ns + nw).tolist() + [1e-12] * 48
    atoms = [(int(a), 10, m) for a, m in zip(slots, masses)]
    sigma = AtomicMeasure.from_triples([(half, 10, 1.0)] + atoms[:ns])
    w = AtomicMeasure.from_triples([(half - d, 10, 1.0), (half + d, 10, 1.0)] + atoms[ns:])
    return sigma, w


# _near_tie_pair seeds whose A2 maximum lies within 1e-6 of its bound and
# behind the seed batch, next to a near-equal candidate; found by a search
# over 5,000 seeds at refinement 6
_TIGHT_A2_SEEDS = [356, 2934, 4337]


class TestA2BranchAndBound:
    @pytest.mark.parametrize("refinement", [0, 6])
    def test_pruned_search_equals_loop_oracle(self, refinement):
        cases = _a2_cases()
        pairs = [(sigma, w) for _, sigma, w in cases]
        wants = _one_blas_thread(_a2_loop_oracles, pairs, refinement)
        for (name, sigma, w), want in zip(cases, wants):
            with np.errstate(over="ignore", invalid="ignore"):
                got = a2_constant(sigma, w, refinement)
            assert got == want, name
            if name in ("overflow", "prefix-overflow"):
                assert got == math.inf

    @pytest.mark.parametrize("refinement", [0, 6])
    def test_bounds_hold_for_every_candidate(self, refinement):
        for name, sigma, w in _a2_cases():
            endpoints, i, j, lefts, rights = _a2_candidates(sigma, w, refinement)
            with np.errstate(over="ignore", invalid="ignore"):
                values = _a2_values(sigma, w, lefts, rights)
                ub = _a2_bounds(sigma, w, endpoints, i, j, lefts, rights)
            assert not np.any(values > ub), name
            assert not np.any(np.isnan(ub)), name

    def test_corrupted_bound_changes_the_result(self, monkeypatch):
        # a bound 1e-6 too low skips the candidate that attains the max on
        # these pairs, so the comparisons above would see it
        pairs = [_near_tie_pair(seed) for seed in _TIGHT_A2_SEEDS]
        want = [a2_constant(sigma, w, 6) for sigma, w in pairs]
        assert want == [_a2_loop_oracle(sigma, w, 6) for sigma, w in pairs]
        monkeypatch.setattr(
            constants, "_a2_bounds", lambda *args: _a2_bounds(*args) * (1.0 - 1e-6)
        )
        got = [a2_constant(sigma, w, 6) for sigma, w in pairs]
        assert all(g != v for g, v in zip(got, want))

    def test_sub_batch_gives_the_full_batch_bits(self):
        # groups of 4 rows from the first K - K mod 4 candidates, followed by
        # the last K mod 4, get the bits of the product over every candidate
        for sigma, w in random_ensemble(82, 8, 32, 12, family="mixed"):
            lefts, rights = _a2_candidates(sigma, w, 6)[3:]
            full = _a2_values(sigma, w, lefts, rights)
            K = len(lefts)
            head = K - K % 4
            rng = np.random.default_rng(sigma.n_atoms)
            for size in (4, 8, 64):
                rows = rng.choice(head, size)
                assert np.array_equal(_a2_values(sigma, w, lefts[rows], rights[rows]), full[rows])
                rows = np.concatenate([rows, np.arange(head, K)])
                assert np.array_equal(_a2_values(sigma, w, lefts[rows], rights[rows]), full[rows])

    def test_every_batch_gets_the_full_product_bits(self, monkeypatch):
        # each batch the pruned search evaluates, seed and padding included,
        # equals the product over every candidate on the rows it holds
        for sigma, w in random_ensemble(82, 8, 32, 12, family="mixed"):
            lefts, rights = _a2_candidates(sigma, w, 6)[3:]
            full = {}
            for l, r, v in zip(lefts, rights, _a2_values(sigma, w, lefts, rights)):
                full.setdefault((l, r), set()).add(v)
            batches = []

            def spy(sigma, w, lefts, rights):
                values = _a2_values(sigma, w, lefts, rights)
                batches.append(all(v in full[l, r] for l, r, v in zip(lefts, rights, values)))
                return values

            monkeypatch.setattr(constants, "_a2_values", spy)
            a2_constant(sigma, w, 6)
            monkeypatch.undo()
            assert batches and all(batches)

    def test_a2_search_too_large_is_refused(self):
        # 1,100 merged atoms: about 2.4 million candidates
        sigma = AtomicMeasure.from_triples([(2 * k + 1, 12, 1.0) for k in range(550)])
        w = AtomicMeasure.from_triples([(2 * k + 2, 12, 1.0) for k in range(550)])
        with pytest.raises(PairTooLarge, match="550 sigma and 550 w atoms"):
            a2_constant(sigma, w)


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


def _maximal_class_values(sigma, w, direction="forward", refinement=DEFAULT_REFINEMENT):
    """Every maximal membership class (a1, a2, b1, b2), in order, and its value
    by the per-class expression of ``testing_constant``, with no pruning.
    Also the candidate-0 stack row, its prefix sums and the measures in
    source, target order: the inputs of ``_class_bounds``."""
    kernel = kernel_scan(sigma, w, refinement).stack
    if direction == "backward":
        sigma, w = w, sigma
        kernel = kernel.transpose(0, 2, 1)
    stack = np.multiply(kernel, sigma.masses_f[None, :, None], order="C")
    C = np.concatenate(
        [np.zeros((kernel.shape[0], 1, w.n_atoms)), np.cumsum(stack, axis=1)], axis=1
    )
    sp = sigma._mass_prefix
    wm = w.masses_f
    before = np.searchsorted(w.positions_f, sigma.positions_f, side="left").tolist()
    starts = [0] + before
    ends = before + [w.n_atoms]
    classes, values = [], []
    for a1 in range(sigma.n_atoms):
        b1 = starts[a1]
        for a2 in range(a1 + 1, sigma.n_atoms + 1):
            b2 = ends[a2]
            if b2 == b1:
                continue
            smass = sp[a2] - sp[a1]
            svals = C[:, a2, b1:b2] - C[:, a1, b1:b2]
            lhs = np.max((svals**2 * wm[b1:b2]).sum(axis=1))
            classes.append((a1, a2, b1, b2))
            values.append(lhs / smass)
    return classes, values, (stack[0], C[0], sigma, w)


def _testing_maximal_classes(sigma, w, direction="forward", refinement=DEFAULT_REFINEMENT):
    """Reference scan: the running maximum over every maximal class."""
    if sigma.n_atoms == 0 or w.n_atoms == 0:
        return 0.0
    best = 0.0
    for value in _maximal_class_values(sigma, w, direction, refinement)[1]:
        if value > best:
            best = value
    return math.sqrt(best)


def _adversarial_pairs(kind, count=6):
    """Pairs built against the pruning bound's rounding argument.

    ``heavy-ends``: sigma gains 1e14-mass atoms far outside [0, 1) and just
    inside both of its ends, whose kernel sums cancel in every prefix.
    ``wide-masses``: every mass is 10^U(-150, 150), so products underflow and
    sums span 300 decades.  ``overflow``: both measures' masses scaled by
    1e200, so the scan overflows to inf in both directions.
    """
    rng = np.random.default_rng({"heavy-ends": 71, "wide-masses": 72, "overflow": 73}[kind])
    pairs = random_ensemble(880, count, 24, 12, family="mixed")
    for sigma, w in pairs:
        if kind == "heavy-ends":
            heavy = [(-3, 0, 1e14), (1, 14, 1e14), (16383, 14, 1e14), (4, 0, 1e14)]
            sigma = AtomicMeasure.from_triples(
                heavy + [(p.num, p.scale, m) for p, m in zip(sigma.positions, sigma.masses)]
            )
        elif kind == "wide-masses":
            sigma, w = (
                AtomicMeasure(mu.positions, tuple(10.0 ** rng.uniform(-150, 150, mu.n_atoms)))
                for mu in (sigma, w)
            )
        else:
            sigma, w = scale_masses(sigma, 1e200), scale_masses(w, 1e200)
        yield sigma, w


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

    def test_pruned_scan_equals_full_scan(self):
        for name, sigma, w, _ in oracle_cases():
            for direction in ("forward", "backward"):
                got = t_constant(sigma, w, direction)
                assert got == _testing_maximal_classes(sigma, w, direction), (name, direction)

    def test_pruned_scan_equals_full_scan_128_atoms(self):
        for sigma, w in random_ensemble(128, 2, 128, 12, family="uniform"):
            for direction in ("forward", "backward"):
                assert t_constant(sigma, w, direction) == _testing_maximal_classes(
                    sigma, w, direction
                )

    def test_pruned_scan_equals_full_scan_one_atom(self):
        for sigma, w in random_ensemble(81, 12, 1, 10, family="mixed"):
            for direction in ("forward", "backward"):
                assert t_constant(sigma, w, direction) == _testing_maximal_classes(
                    sigma, w, direction
                )

    @pytest.mark.parametrize("kind", ["heavy-ends", "wide-masses", "overflow"])
    def test_pruned_scan_equals_full_scan_adversarial(self, kind):
        for sigma, w in _adversarial_pairs(kind):
            for direction in ("forward", "backward"):
                with np.errstate(over="ignore", invalid="ignore"):
                    got = t_constant(sigma, w, direction)
                    want = _testing_maximal_classes(sigma, w, direction)
                assert got == want, direction
                if kind == "overflow":
                    assert got == math.inf

    def test_class_bounds_hold_for_every_class(self):
        # the pruning is exact only if no class computes above its bound;
        # a NaN value never raises the running best, so it needs no bound
        cases = [(name, sigma, w) for name, sigma, w, _ in oracle_cases()]
        for kind in ("heavy-ends", "wide-masses", "overflow"):
            cases += [(kind, sigma, w) for sigma, w in _adversarial_pairs(kind)]
        for name, sigma, w in cases:
            for direction in ("forward", "backward"):
                with np.errstate(over="ignore", invalid="ignore"):
                    classes, values, inputs = _maximal_class_values(sigma, w, direction)
                a1s, a2s, b1s, b2s = (np.array(c) for c in zip(*classes))
                ub = _class_bounds(*inputs, a1s, a2s, b1s, b2s)
                above = [k for k, v in enumerate(values) if v > ub[k]]
                assert not above, (name, direction, above[:3])

    def test_shared_scan_changes_nothing(self):
        for sigma, w in random_ensemble(76, 6, 24, 12, family="mixed"):
            scan = kernel_scan(sigma, w)
            assert norm_constant(sigma, w, scan=scan) == norm_constant(sigma, w)
            for direction in ("forward", "backward"):
                got = t_constant(sigma, w, direction, scan=scan)
                assert got == t_constant(sigma, w, direction)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    @pytest.fixture(scope="class")
    def pair(self):
        # 121 sigma and 94 w atoms: 242 truncations, 97,000 A2 candidates
        return random_ensemble(7, 8, 128, 12)[3]

    def test_a2_streams(self, pair):
        assert _peak_bytes(lambda: a2_constant(*pair)) < 16 << 20

    def test_testing_builds_prefixes_on_demand(self, pair):
        scan = kernel_scan(*pair)

        def both():
            for direction in ("forward", "backward"):
                t_constant(*pair, direction, scan=scan)

        assert _peak_bytes(both) < 8 << 20

    def test_norm_scales_on_demand(self, pair):
        # a whole scaled copy of the 21.9 MB kernel stack is never built
        scan = kernel_scan(*pair)
        assert _peak_bytes(lambda: norm_constant(*pair, scan=scan)) < 4 << 20

    def test_report_peak(self, pair):
        assert _peak_bytes(lambda: compute_report(*pair)) < 64 << 20

    def test_kernel_stack_cap(self):
        # 386 atoms a side at 226 truncations is just over the cap, 385 just
        # under; the refusal comes before the stack is allocated
        def pair(k):
            sigma = AtomicMeasure.from_triples([(2 * a + 1, 12, 1.0) for a in range(k)])
            w = AtomicMeasure.from_triples([(2 * a + 2, 12, 1.0) for a in range(k)])
            return sigma, w

        for k, over in ((385, False), (386, True)):
            sigma, w = pair(k)
            dists = np.abs(sigma.positions_f[:, None] - w.positions_f[None, :]).ravel()
            assert (8 * len(truncation_candidates(dists)) * k * k > MAX_ARRAY_BYTES) == over
        sigma, w = pair(386)

        def refused():
            with pytest.raises(PairTooLarge, match="386 sigma and 386 w atoms"):
                kernel_scan(sigma, w)

        assert _peak_bytes(refused) < 16 << 20

    def test_kernel_stack_cap_precedes_the_candidate_table(self, monkeypatch):
        # refinement 1,000 on a 5 x 1 pair asks for about 2 million tapered
        # candidates; the refusal comes from their count, before the index
        # arrays of the table (tens of MB here) are built
        monkeypatch.setattr(constants, "MAX_ARRAY_BYTES", 1 << 20)
        sigma = AtomicMeasure.from_triples([(2 * a + 1, 4, 1.0) for a in range(5)])
        w = AtomicMeasure.from_triples([(13, 5, 1.0)])

        def refused():
            with pytest.raises(PairTooLarge, match="5 sigma and 1 w atoms"):
                kernel_scan(sigma, w, 1000)

        assert _peak_bytes(refused) < 2 << 20

    def test_refinement_refused_before_the_refined_distances(self):
        # the kernel stack of a 5 x 1 pair passes the cap from refinement
        # about 3,000 on; at 10^5 and 10^6 the refusal comes from a floor of
        # the candidate count, before the refined distance list (3.2 and 32 MB
        # of doubles, 13.6 and 126 MB at the peak) exists, so the peak is the
        # same at both
        sigma = AtomicMeasure.from_triples([(2 * a + 1, 4, 1.0) for a in range(5)])
        w = AtomicMeasure.from_triples([(13, 5, 1.0)])
        peaks = []
        # the first refusal also pays for what a process sets up once
        for refinement in (10**5, 10**5, 10**6):

            def refused():
                with pytest.raises(PairTooLarge, match="5 sigma and 1 w atoms needs a .* kernel stack"):
                    kernel_scan(sigma, w, refinement)

            peaks.append(_peak_bytes(refused))
        assert peaks[1] < 1 << 20 and peaks[2] <= peaks[1] + (1 << 12)

    def test_refined_distances_are_capped(self, monkeypatch):
        # two distances 2^-29 apart: the refinement adds no distinct value
        # the floor can count, but the refined list alone, 8 (10^6 + 2)
        # bytes, passes a 1 MiB cap
        monkeypatch.setattr(constants, "MAX_ARRAY_BYTES", 1 << 20)
        sigma = AtomicMeasure.from_triples([(-1, 0, 1.0), (1 - (1 << 29), 29, 1.0)])
        w = AtomicMeasure.from_triples([(1, 0, 1.0)])

        def refused():
            with pytest.raises(PairTooLarge, match="2 sigma and 1 w atoms needs a 8 MiB refined distance list"):
                kernel_scan(sigma, w, 10**6)

        assert _peak_bytes(refused) < 1 << 20

    def test_candidate_floor_is_a_floor(self):
        for _, sigma, w, _ in [*oracle_cases(), *crafted_cases()]:
            dists = np.abs(sigma.positions_f[:, None] - w.positions_f[None, :]).ravel()
            for refinement in (0, 1, 4, 8, 24, 200):
                floor, _ = _candidate_floor(dists, refinement)
                assert floor <= len(truncation_candidates(dists, refinement))

    def test_row_count_is_the_table_length(self):
        for _, sigma, w, _ in [*oracle_cases(), *crafted_cases()]:
            dists = np.abs(sigma.positions_f[:, None] - w.positions_f[None, :]).ravel()
            for refinement in (0, 1, 4, 24):
                rows = []
                cands = truncation_candidates(dists, refinement, rows.append)
                assert rows == [len(cands)]


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
        sides = energy_identity_sides(two_atom_w, g)
        assert list(sides) == [(0, 0)]
        e2, lhs, rhs = sides[0, 0]
        assert e2 == energy(two_atom_w, g.root_interval)
        assert abs(lhs - 0.25) < 1e-15 and abs(lhs - rhs) < 1e-15

    def test_unweighted_display_fails_micro(self, two_atom_w):
        g = unit_grid(two_atom_w, AtomicMeasure.empty(), 1)
        e2 = energy(two_atom_w, g.root_interval)
        _, _, haar_sum = energy_identity_sides(two_atom_w, g)[0, 0]
        assert abs(e2 - haar_sum) > 0.1

    def test_equals_scalar_oracle(self):
        # grid intervals and their exact Intervals, on shifted grids too
        count = 0
        for label, _, w, grid in shifted_grids():
            for n in charged_nodes(w, grid):
                gi = GridInterval(grid, n.level, n.index)
                iv = gi.interval
                want = _energy_on(w, *w.index_range(iv), iv.length_f)
                assert energy(w, gi) == want, (label, gi)
                assert energy(w, iv) == want, (label, gi)
                count += want > 0.0
        assert count > 200

    def test_identity_sides_match_oracle(self):
        for label, _, w, grid in [*oracle_cases(), *crafted_cases()]:
            want = {
                (n.level, n.index): _energy_identity_oracle(w, GridInterval(grid, n.level, n.index))
                for n in charged_nodes(w, grid)
            }
            got = energy_identity_sides(w, grid)
            assert list(got.items()) == list(want.items()), label
        assert energy_identity_sides(AtomicMeasure.empty(), grid) == {}


def _energy_identity_oracle(w, i):
    """One interval's sides, from a fresh expansion scanned as a dict."""
    grid = i.grid
    e2 = energy(w, i)
    e2w = e2 * w.mass_on(i.interval)
    lo, hi = w.index_range(i.interval)
    if hi == lo:
        return e2, e2w, 0.0
    hc = expand(WeightedFunction.identity(w), grid)
    total = 0.0
    for (lev, idx), c in hc.coeffs.items():
        if lev >= i.level and (idx >> (lev - i.level)) == i.index:
            total += c * c
    return e2, e2w, 2.0 * total / i.length_f**2


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


def _grid_nodes(mu, grid, least):
    """Grid intervals holding at least ``least`` atoms of mu, pre-order,
    with their atom ranges, by the grid-interval descent."""
    out = []

    def descend(gi):
        lo, hi = mu.index_range(gi.interval)
        if hi - lo < least:
            return
        out.append((gi, lo, hi))
        if gi.level < grid.depth:
            for child in gi.children():
                descend(child)

    if mu.n_atoms:
        descend(grid.root_interval)
    return out


def _energy_constant_oracle(sigma, w, grid):
    """The grid-interval implementation the atom-range one replaced."""
    if sigma.n_atoms == 0 or w.n_atoms == 0:
        return 0.0
    trunk = [gi for gi, _, _ in _grid_nodes(w, grid, 2)]
    if not trunk:
        return 0.0
    wl = np.array([gi.left_f for gi in trunk])
    wr = np.array([gi.right_f for gi in trunk])
    ew = np.array([energy(w, gi) * w.mass_on(gi.interval) for gi in trunk])
    keys = [gi.key for gi in trunk]
    order = sorted(range(len(trunk)), key=lambda t: -keys[t][0])
    best_overall = 0.0
    spos = sigma.positions_f
    smass = sigma.masses_f
    for gi, lo, hi in _grid_nodes(sigma, grid, 1):
        l0, i0 = gi.level, gi.index
        inside = [
            t for t, (lev, idx) in enumerate(keys) if lev >= l0 and (idx >> (lev - l0)) == i0
        ]
        if not inside:
            continue
        sl = slice(lo, hi)
        s0 = float(np.sum(smass[sl]))
        dist = np.maximum(
            0.0,
            np.maximum(
                wl[inside][:, None] - spos[sl][None, :],
                spos[sl][None, :] - wr[inside][:, None],
            ),
        )
        lengths = wr[inside] - wl[inside]
        P = (lengths[:, None] / (lengths[:, None] ** 2 + dist**2)) @ smass[sl]
        term = P**2 * ew[inside]
        local = {keys[t]: float(tm) for t, tm in zip(inside, term)}
        best = {}
        for t in order:
            k = keys[t]
            if k not in local:
                continue
            lev, idx = k
            kids = best.get((lev + 1, 2 * idx), 0.0) + best.get((lev + 1, 2 * idx + 1), 0.0)
            best[k] = max(local[k], kids)
        ratio = best[(l0, i0)] / s0 if (l0, i0) in best else 0.0
        if ratio > best_overall:
            best_overall = ratio
    return math.sqrt(best_overall)


def _energy_on(w, lo, hi, length):
    """E(w, I)^2 of the atoms [lo, hi) of w in I as the scalar code computed
    it: sums of 1-D slices, |I| squared as a Python float (libm ``pow``)."""
    if hi - lo <= 1:
        return 0.0
    m = w.masses_f[lo:hi]
    x = w.positions_f[lo:hi]
    mass = float(np.sum(m))
    mean = float(np.sum(x * m)) / mass
    var = float(np.sum((x - mean) ** 2 * m)) / mass
    return 2.0 * var / length**2


def _energy_constant_occupied(sigma, w, grid):
    """The occupied-node loop the trunk-table one replaced: every sigma-
    occupied node, its trunk run found by bisection, E^2 w recomputed."""
    if sigma.n_atoms == 0 or w.n_atoms == 0:
        return 0.0
    trunk = charged_nodes(w, grid)
    if not trunk:
        return 0.0
    wl = np.array([grid.endpoint_f(n.level, n.index) for n in trunk])
    wr = np.array([grid.endpoint_f(n.level, n.index + 1) for n in trunk])
    wpref = w._mass_prefix
    ew = np.array(
        [
            _energy_on(w, n.lo, n.hi, r - l) * float(wpref[n.hi] - wpref[n.lo])
            for n, l, r in zip(trunk, wl.tolist(), wr.tolist())
        ]
    )
    keys = [(n.level, n.index) for n in trunk]
    best_overall = 0.0
    spos = sigma.positions_f
    smass = sigma.masses_f
    for node in occupied_nodes(sigma, grid):
        l0, i0 = node.level, node.index
        start, end = _run(trunk, grid, l0, i0)
        if start == end:
            continue
        sl = slice(node.lo, node.hi)
        s0 = float(np.sum(smass[sl]))
        dist = np.maximum(
            0.0,
            np.maximum(
                wl[start:end][:, None] - spos[sl][None, :],
                spos[sl][None, :] - wr[start:end][:, None],
            ),
        )
        lengths = wr[start:end] - wl[start:end]
        P = (lengths[:, None] / (lengths[:, None] ** 2 + dist**2)) @ smass[sl]
        term = (P**2 * ew[start:end]).tolist()
        best = {}
        for t in range(end - 1, start - 1, -1):
            lev, idx = keys[t]
            kids = best.get((lev + 1, 2 * idx), 0.0) + best.get((lev + 1, 2 * idx + 1), 0.0)
            best[keys[t]] = max(term[t - start], kids)
        ratio = best[(l0, i0)] / s0
        if ratio > best_overall:
            best_overall = ratio
    return math.sqrt(best_overall)


class TestEnergyConstantOracle:
    @pytest.mark.parametrize("family", ["uniform", "mixed", "clusters", "lacunary"])
    def test_equal_to_grid_interval_descent(self, family):
        positive = 0
        for label, sigma, w, grid in oracle_cases(families=(family,)):
            for a, b in ((sigma, w), (w, sigma)):
                got = energy_constant(a, b, grid)
                assert got == _energy_constant_oracle(a, b, grid), label
                positive += got > 0.0
        assert positive >= 6

    @pytest.mark.parametrize("family", ["uniform", "mixed", "clusters", "lacunary", "wide-masses"])
    def test_equal_to_occupied_node_loop(self, family):
        if family == "wide-masses":
            cases = [
                (f"wide-masses-{k}", sigma, w, auto_grid(sigma, w, 12))
                for k, (sigma, w) in enumerate(_adversarial_pairs("wide-masses"))
            ]
        else:
            cases = list(oracle_cases(families=(family,)))
        positive = 0
        for label, sigma, w, grid in cases:
            for a, b in ((sigma, w), (w, sigma)):
                with np.errstate(over="ignore", under="ignore"):
                    got = energy_constant(a, b, grid)
                    assert got == _energy_constant_occupied(a, b, grid), label
                positive += got > 0.0
        assert positive >= 4

    def test_trunk_table_is_the_trunk(self):
        for label, _, w, grid in [*oracle_cases(), *crafted_cases()]:
            table = _trunk_table(w, grid)
            nodes = charged_nodes(w, grid)
            assert table.nodes == nodes, label
            wpref = w._mass_prefix
            for t, n in enumerate(nodes):
                left = grid.endpoint_f(n.level, n.index)
                right = grid.endpoint_f(n.level, n.index + 1)
                e2w = _energy_on(w, n.lo, n.hi, right - left) * float(wpref[n.hi] - wpref[n.lo])
                assert (table.left[t], table.right[t]) == (left, right), label
                assert table.e2w[t] == e2w, label
                assert (t, table.end[t]) == _run(nodes, grid, n.level, n.index), label
            # the energy DP's child rows: each child's trunk row, or len(nodes)
            rows = {(n.level, n.index): t for t, n in enumerate(nodes)}
            for t, n in enumerate(nodes):
                kids = [rows.get((n.level + 1, 2 * n.index + b), len(nodes)) for b in (0, 1)]
                assert [table.kids[0][t], table.kids[1][t]] == kids, label


def _functional_energy_loop(h, members, g_family, j_families):
    """functional_energy_ratio's two sides with one scalar P per J*, as the
    loop that the per-F batch replaced summed them."""
    hs = _nonneg_measure(h)
    lhs = g_norm_sq = 0.0
    for F in members:
        g = g_family.get(F.key)
        if g is None:
            continue
        g_norm_sq += g.norm_sq()
        for jstar in maximal_intervals(j_families.get(F.key, [])):
            lo, hi = g.base.index_range(jstar)
            x, m = g.base.positions_f[lo:hi], g.base.masses_f[lo:hi]
            pairing = float(np.sum(x / jstar.length_f * g.values[lo:hi] * m))
            p = poisson_sum(hs.positions_f, hs.masses_f, jstar.left_f, jstar.right_f)
            lhs += p * abs(pairing)
    rhs = h.norm() * math.sqrt(g_norm_sq)
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    return lhs / rhs


class TestFunctionalEnergyRatio:
    def test_batched_poisson_equals_per_jstar_loop(self, monkeypatch):
        calls = []
        real = constants.functional_energy_ratio

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(constants, "functional_energy_ratio", spy)
        for _, sigma, w, grid in [*oracle_cases(), *crafted_cases()]:
            compute_report(sigma, w, grid)
            # the whole root as the one member: several maximal J* per F
            root = grid.root_interval
            fams = default_j_families([root], w, grid, SUITE_EPS, SUITE_R, SUITE_BELOW_GAP)
            coeffs = expand(WeightedFunction.identity(w), grid).coeffs
            vals = sum((coeffs[j.key] * haar_function(j, w).values for j in fams[root.key]), 0.0)
            if np.any(vals != 0.0):
                g = {root.key: WeightedFunction(w, vals)}
                spy(WeightedFunction.constant(sigma), [root], g, grid, j_families=fams)
        positive = several = 0
        for (h, members, g_family, grid), kwargs in calls:
            fams = kwargs["j_families"]
            got = real(h, members, g_family, grid, **kwargs)
            assert got == _functional_energy_loop(h, members, g_family, fams)
            positive += got > 0
            several += any(len(maximal_intervals(fams.get(F.key, []))) > 1 for F in members)
        assert positive >= 40 and several >= 5

    def test_zero_family(self):
        sigma, w = random_ensemble(70, 1, 8, 10)[0]
        g = unit_grid(sigma, w, 10)
        h = WeightedFunction.constant(sigma)
        assert functional_energy_ratio(h, [g.root_interval], {}, g, j_families={}) == 0.0

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
            functional_energy_ratio(h, chain, {}, g, j_families={})

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
            functional_energy_ratio(h, [root], {root.key: hj}, g, j_families={})

    def test_negative_h_rejected(self):
        sigma, w = random_ensemble(74, 1, 8, 10)[0]
        g = unit_grid(sigma, w, 10)
        h = WeightedFunction(sigma, -np.ones(sigma.n_atoms))
        with pytest.raises(PreconditionViolation):
            functional_energy_ratio(h, [g.root_interval], {}, g, j_families={})


class TestComputeReport:
    def test_micro_report(self, micro_pair):
        rep = compute_report(*micro_pair, auto_grid(*micro_pair, 8))
        assert rep.norm_N == 2.0
        assert rep.testing_fwd == 2.0 and rep.testing_bwd == 2.0
        assert abs(rep.a2 - 10.24) < 1e-12
        assert abs(rep.h_const - 5.2) < 1e-12
        assert abs(rep.n_over_h - 2.0 / 5.2) < 1e-12
        ratios = rep.paper_ratios()
        assert abs(ratios["t_over_n"] - 1.0) < 1e-12

    def test_empty_w(self):
        sigma = AtomicMeasure.from_triples([(1, 3, 1.0)])
        w = AtomicMeasure.empty()
        rep = compute_report(sigma, w, auto_grid(sigma, w, 6))
        assert rep.norm_N == 0.0 and rep.a2 == 0.0 and rep.h_const == 0.0
        assert rep.n_over_h == 0.0
        assert rep.meta["truncation_scan_size"] == 1

    def test_scan_size_is_the_candidate_count(self):
        sigma, w = random_ensemble(77, 1, 16, 10)[0]
        rep = compute_report(sigma, w, auto_grid(sigma, w, 10))
        dists = np.abs(sigma.positions_f[:, None] - w.positions_f[None, :]).ravel()
        assert rep.meta["truncation_scan_size"] == len(truncation_candidates(dists))

    def test_json_dict_schema(self, micro_pair):
        rep = compute_report(*micro_pair, auto_grid(*micro_pair, 8))
        body = rep.to_json_dict()
        assert body["schema_version"] == 1
        assert "paper_ratios" in body["meta"]
        for key in ("norm_N", "a2", "testing_fwd", "testing_bwd", "h_const"):
            assert key in body

    def test_record_is_shared_not_recomputed(self, monkeypatch):
        import h2w.constants as constants

        sigma, w = random_ensemble(78, 1, 16, 10)[0]
        grid = unit_grid(sigma, w, 10)
        record = pair_constants(sigma, w, grid)
        fresh = compute_report(sigma, w, unit_grid(sigma, w, 10), seed=3)
        calls = []
        monkeypatch.setattr(constants, "kernel_scan", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(constants, "a2_constant", lambda *a, **k: calls.append(a))
        shared = compute_report(sigma, w, grid, seed=3)
        assert calls == []
        assert shared.to_json_dict() == fresh.to_json_dict()
        assert record.c0 == fresh.meta["calibrated_c0"]

    def test_record_is_kept_per_setting_with_defaults_applied(self):
        sigma, w = random_ensemble(78, 1, 16, 10)[0]
        grid = unit_grid(sigma, w, 10)
        record = pair_constants(sigma, w, grid)
        assert pair_constants(sigma, w, grid, DEFAULT_REFINEMENT, c0=1.0) is record
        assert pair_constants(sigma, w, grid=grid, a2_refinement=6) is record
        # every argument by position: the key without binding the call
        assert pair_constants(sigma, w, grid, DEFAULT_REFINEMENT, 6, 1.0) is record
        coarse = pair_constants(sigma, w, grid, 2, 1)
        assert coarse is not record and coarse.scan_size < record.scan_size
        # an equal grid is another memo: the record is freed with its grid
        assert pair_constants(sigma, w, unit_grid(sigma, w, 10)) is not record
        assert pair_constants(sigma, w, unit_grid(sigma, w, 10)) == record

    def test_meta_gives_the_record_scan_settings(self):
        sigma, w = random_ensemble(78, 1, 16, 10)[0]
        grid = unit_grid(sigma, w, 10)
        record = pair_constants(sigma, w, grid, refinement=2, a2_refinement=1)
        meta = compute_report(sigma, w, grid, seed=3, refinement=2, a2_refinement=1).meta
        assert (meta["refinement"], meta["a2_refinement"]) == (2, 1)
        assert meta["truncation_scan_size"] == record.scan_size == len(kernel_scan(sigma, w, 2).candidates)
        assert meta["calibrated_c0"] == record.c0
        fresh = unit_grid(sigma, w, 10)
        assert compute_report(sigma, w, fresh, seed=3, refinement=2, a2_refinement=1).meta == meta

    def test_report_invariant_on_ensemble(self):
        for sigma, w in random_ensemble(75, 4, 16, 10):
            rep = compute_report(sigma, w, auto_grid(sigma, w, 10))
            assert rep.testing_fwd <= rep.norm_N * (1 + 1e-9)
            assert rep.testing_bwd <= rep.norm_N * (1 + 1e-9)
            assert rep.h_const == math.sqrt(rep.a2) + max(rep.testing_fwd, rep.testing_bwd)
