import math
import re
from collections import Counter

import numpy as np
import pytest

import h2w.haar as haar
from h2w.errors import PreconditionViolation, ZeroMass
from h2w.grid import GridInterval, is_good
from h2w.haar import (
    HaarCoefficients,
    WeightedFunction,
    _differences,
    _endpoints,
    _energies,
    _node_table,
    _parents,
    _run,
    _trunk_table,
    charged_nodes,
    node_table,
    occupied_nodes,
    absolute_haar_multiplier,
    expand,
    expectation,
    good_nodes,
    good_projection,
    haar_function,
    inner,
    martingale_difference,
    reconstruct,
    splitting_nodes,
)
from h2w.corona import StoppingData, corona_pieces
from h2w.grid import auto_grid
from h2w.measure import AtomicMeasure, Interval, dyadic, parse_pair_text, random_ensemble
from h2w.params import SUITE_EPS, SUITE_R
from h2w.poisson import default_j_families

from conftest import crafted_cases, grid_walk, heavy_pair_text, oracle_cases, shifted_pair, unit_grid


def _grid_for(mu, depth=6):
    return unit_grid(mu, AtomicMeasure.empty(), depth)


class TestExpectation:
    def test_constant(self, two_atom_w, unit_root):
        f = WeightedFunction.constant(two_atom_w, 3.5)
        assert expectation(f, unit_root) == 3.5

    def test_arithmetic(self, two_atom_w, unit_root):
        f = WeightedFunction(two_atom_w, np.array([0.0, 1.0]))
        assert expectation(f, unit_root) == 0.5

    def test_zero_mass(self, two_atom_w):
        f = WeightedFunction.constant(two_atom_w)
        with pytest.raises(ZeroMass):
            expectation(f, Interval(dyadic(1, 3), dyadic(1, 2)))


class TestHaarFunction:
    def test_balanced(self, two_atom_w):
        g = _grid_for(two_atom_w, 1)
        h = haar_function(g.root_interval, two_atom_w)
        assert np.allclose(h.values, [-1 / math.sqrt(2), 1 / math.sqrt(2)], rtol=1e-15)
        assert abs(h.norm() - 1.0) < 1e-14

    def test_unbalanced(self):
        mu = AtomicMeasure.from_triples([(1, 2, 1.0), (3, 2, 3.0)])
        g = _grid_for(mu, 1)
        h = haar_function(g.root_interval, mu)
        assert abs(h.values[0] + math.sqrt(3) / 2) < 1e-15
        assert abs(h.values[1] - math.sqrt(3) / 6) < 1e-15
        assert abs(h.norm_sq() - 1.0) < 1e-14

    def test_uncharged_child(self):
        mu = AtomicMeasure.from_triples([(3, 2, 1.0)])  # only the right half charged
        g = _grid_for(mu, 1)
        assert haar_function(g.root_interval, mu) is None


class TestMartingaleDifference:
    def test_constant_gives_zero(self, two_atom_w):
        g = _grid_for(two_atom_w, 1)
        f = WeightedFunction.constant(two_atom_w, 2.0)
        md = martingale_difference(f, g.root_interval)
        assert np.all(md.values == 0.0)

    def test_equals_coefficient_times_haar(self, rng):
        mu = AtomicMeasure.from_triples(
            [(2 * k + 1, 5, m) for k, m in zip(range(10), rng.uniform(0.2, 2, 10))]
        )
        g = _grid_for(mu, 4)
        f = WeightedFunction(mu, rng.standard_normal(10))
        hc = expand(f, g)
        for n in splitting_nodes(mu, g):
            gi = GridInterval(g, n.level, n.index)
            md = martingale_difference(f, gi)
            h = haar_function(gi, mu)
            assert np.max(np.abs(md.values - hc.coeffs[(n.level, n.index)] * h.values)) < 1e-12

    def test_one_child_uncharged_gives_zero(self):
        mu = AtomicMeasure.from_triples([(1, 4, 1.0), (3, 4, 1.0)])  # both in [0, 1/2)
        g = _grid_for(mu, 2)
        f = WeightedFunction(mu, np.array([1.0, -1.0]))
        md = martingale_difference(f, g.root_interval)
        assert np.all(md.values == 0.0)


class TestExpandReconstruct:
    def test_micro_expansion(self, two_atom_w):
        g = _grid_for(two_atom_w, 1)
        f = WeightedFunction(two_atom_w, np.array([0.0, 1.0]))
        hc = expand(f, g)
        assert hc.root_mean == 0.5
        assert abs(hc.coeffs[(0, 0)] - 1 / math.sqrt(2)) < 1e-15
        # Parseval: 1 = (1/2)^2 * 2 + 1/2
        assert abs(hc.norm_sq() - f.norm_sq()) < 1e-15

    def test_haar_input_is_delta_coefficient(self, two_atom_w):
        g = _grid_for(two_atom_w, 1)
        h = haar_function(g.root_interval, two_atom_w)
        hc = expand(h, g)
        assert abs(hc.root_mean) < 1e-15
        assert abs(hc.coeffs[(0, 0)] - 1.0) < 1e-14

    def test_single_atom_only_mean(self):
        mu = AtomicMeasure.from_triples([(1, 4, 2.0)])
        g = _grid_for(mu, 3)
        hc = expand(WeightedFunction(mu, np.array([7.0])), g)
        assert hc.coeffs == {} and hc.root_mean == 7.0

    def test_reconstruct_exact(self, rng):
        for sigma, w in random_ensemble(21, 4, 24, 10):
            g = unit_grid(sigma, w, 10)
            f = WeightedFunction(sigma, rng.standard_normal(sigma.n_atoms))
            rec = reconstruct(expand(f, g))
            scale = max(1.0, np.abs(f.values).max())
            assert np.max(np.abs(rec.values - f.values)) < 1e-12 * scale

    def test_reconstruct_on_a_heavy_atom_measure(self):
        # a 8e16 atom at 1/1024 left of ten light ones: every node's sums
        # are its own, so the light atoms come back
        sigma, w = parse_pair_text(heavy_pair_text("8e16", heavy="1 10"))
        grid = auto_grid(sigma, w, 12)
        f = WeightedFunction(sigma, np.random.default_rng(0).standard_normal(sigma.n_atoms))
        rec = reconstruct(expand(f, grid))
        assert np.max(np.abs(rec.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))

    def test_reconstruct_from_the_public_constructor(self, rng):
        # each key's node is read from the grid, not from the expansion
        for sigma, w in random_ensemble(21, 4, 24, 10):
            g = unit_grid(sigma, w, 10)
            f = WeightedFunction(sigma, rng.standard_normal(sigma.n_atoms))
            hc = expand(f, g)
            rec = reconstruct(HaarCoefficients(g, sigma, hc.root_mean, dict(hc.coeffs)))
            assert np.max(np.abs(rec.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))

    def test_reconstruct_refuses_a_key_that_does_not_split(self):
        sigma, w = random_ensemble(21, 1, 24, 10)[0]
        g = unit_grid(sigma, w, 10)
        splits = {(n.level, n.index) for n in splitting_nodes(sigma, g)}
        keys = ((level, index) for level in range(4) for index in range(1 << level))
        stray = next(key for key in keys if key not in splits)
        coeffs = {next(iter(splits)): 1.0, stray: 1.0}
        with pytest.raises(ValueError, match=re.escape(str(stray))):
            reconstruct(HaarCoefficients(g, sigma, 0.0, coeffs))

    def test_support_outside_root_rejected(self):
        mu = AtomicMeasure.from_triples([(5, 1, 1.0)])  # at 2.5
        g = _grid_for(AtomicMeasure.from_triples([(1, 4, 1.0)]), 3)
        with pytest.raises(PreconditionViolation):
            expand(WeightedFunction(mu, np.array([1.0])), g)


class TestGoodProjection:
    def test_all_good_leaves_meanless_part(self, rng):
        sigma, w = random_ensemble(31, 1, 12, 10)[0]
        g = unit_grid(sigma, w, 10)
        f = WeightedFunction(sigma, rng.standard_normal(sigma.n_atoms))
        # r large enough that every interval is vacuously good
        proj = good_projection(f, g, 0.25, 20)
        hc = expand(f, g)
        assert np.max(np.abs(proj.values - (f.values - hc.root_mean))) < 1e-12

    def test_contraction(self, rng):
        for sigma, w in random_ensemble(32, 4, 16, 10):
            g = unit_grid(sigma, w, 10)
            f = WeightedFunction(sigma, rng.standard_normal(sigma.n_atoms))
            proj = good_projection(f, g, 0.49, 6)
            assert proj.norm() <= f.norm() * (1 + 1e-12)

    def test_no_good_intervals_gives_zero(self, rng):
        # at r = 1 every interval qualifies against itself and touches its
        # own child boundary, so nothing is good
        sigma, w = random_ensemble(37, 1, 12, 10)[0]
        g = unit_grid(sigma, w, 10)
        f = WeightedFunction(sigma, rng.standard_normal(sigma.n_atoms))
        proj = good_projection(f, g, 0.25, 1)
        assert np.all(proj.values == 0.0)


class TestCoronaProjection:
    def _stopping(self, grid, members):
        return StoppingData(
            members[0],
            tuple(members),
            {m.key: 1.0 for m in members},
            {},
            {},
        )

    def test_root_corona_is_meanless_part(self, rng):
        sigma, w = random_ensemble(33, 1, 10, 8)[0]
        g = unit_grid(sigma, w, 8)
        f = WeightedFunction(sigma, rng.standard_normal(sigma.n_atoms))
        sd = self._stopping(g, [g.root_interval])
        (proj,) = corona_pieces(f, sd).values()
        hc = expand(f, g)
        assert np.max(np.abs(proj.values - (f.values - hc.root_mean))) < 1e-12

    def test_coronas_partition_and_orthogonal(self, rng):
        sigma, w = random_ensemble(34, 1, 20, 10)[0]
        g = unit_grid(sigma, w, 10)
        f = WeightedFunction(sigma, rng.standard_normal(sigma.n_atoms))
        members = [g.root_interval, g.interval(1, 0), g.interval(2, 3)]
        sd = self._stopping(g, members)
        pieces = list(corona_pieces(f, sd).values())
        hc = expand(f, g)
        total = np.sum([p.values for p in pieces], axis=0) + hc.root_mean
        assert np.max(np.abs(total - f.values)) < 1e-12
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(inner(pieces[i], pieces[j])) < 1e-12 * max(1.0, f.norm_sq())
        # Parseval over the corona partition
        mean_part = f.norm_sq() - hc.root_mean**2 * sigma.total_mass
        assert abs(sum(p.norm_sq() for p in pieces) - mean_part) < 1e-9 * max(1.0, mean_part)


def _slice_add_sums(f, nodes, key_of, keys):
    """The per-node numpy slice-add: each node's two differences added to
    its key's array in node order."""
    sums = {key: np.zeros(f.base.n_atoms) for key in keys}
    kept = [n for n in nodes if key_of(n) in sums]
    for n, d_left, d_right in zip(kept, *_differences(f, kept)):
        values = sums[key_of(n)]
        values[n.lo : n.cut] += d_left
        values[n.cut : n.hi] += d_right
    return sums


def _heavy_pair():
    """Each measure's 1e16 atom would swallow the two 0.5 atoms right of it
    in a running prefix sum, leaving the node that splits those two with
    two empty half masses; each node's own sums keep them."""
    sigma = AtomicMeasure.from_triples(
        [(33, 7, 1e16), (65, 7, 0.5), (67, 7, 0.5), (101, 7, 2.0), (121, 7, 3.0)]
    )
    w = AtomicMeasure.from_triples(
        [(9, 7, 1.0), (77, 7, 1e16), (81, 7, 0.5), (83, 7, 0.5), (111, 7, 0.25)]
    )
    return sigma, w, unit_grid(sigma, w, 6)


def _projection_cases():
    yield from oracle_cases(families=("uniform", "clusters", "lacunary", "mixed"))
    yield from crafted_cases(2)
    yield ("heavy", *_heavy_pair())


def _family(mu, grid):
    """A stopping family of the root and some occupied nodes of mu at
    levels 2 and 5, so that pieces are nested and some stay empty."""
    members = [grid.root_interval] + [
        GridInterval(grid, n.level, n.index)
        for n in occupied_nodes(mu, grid)
        if n.level in (2, 5) and n.index % 3 != 1
    ]
    return StoppingData(members[0], tuple(members), {m.key: 1.0 for m in members}, {}, {})


class TestProjectionBits:
    """Each projection's values are the bytes of a per-node numpy slice-add
    over the same nodes: the same IEEE additions in the same order."""

    def test_good_projection_and_corona_pieces(self):
        nonfinite = 0
        for label, sigma, w, grid in _projection_cases():
            rng = np.random.default_rng(len(label))
            for mu in (sigma, w):
                if mu.n_atoms == 0:
                    continue
                f = WeightedFunction(mu, np.exp(3.0 * rng.standard_normal(mu.n_atoms)))
                nodes = splitting_nodes(mu, grid)
                for eps, r in ((SUITE_EPS, SUITE_R), (0.25, 2), (0.49, 4)):

                    def good(n, eps=eps, r=r):
                        return is_good(GridInterval(grid, n.level, n.index), eps, r)

                    got = good_projection(f, grid, eps, r).values
                    want = _slice_add_sums(f, nodes, good, (True,))[True]
                    assert got.tobytes() == want.tobytes(), (label, eps, r)
                    nonfinite += not np.isfinite(got).all()
                sd = _family(mu, grid)
                pieces = corona_pieces(f, sd)
                want = _slice_add_sums(
                    f, nodes, lambda n: sd.pi_key(n.level, n.index), [m.key for m in sd.members]
                )
                assert list(pieces) == list(want), label
                for key, piece in pieces.items():
                    assert piece.values.tobytes() == want[key].tobytes(), (label, key)
                    nonfinite += not np.isfinite(piece.values).all()
        # no half mass cancels, the heavy pair's included
        assert nonfinite == 0


def _deep_pair():
    """Atoms a few cells of a depth-60 grid apart near 0, each at a cell
    centre, and one far atom, so that the trunk of each measure runs from
    the root down to level 58."""
    far = (1 << 52) + 1
    sigma = AtomicMeasure.from_triples([(1, 61, 1.0), (7, 61, 2.5), (17, 61, 0.75), (far, 61, 1.0)])
    w = AtomicMeasure.from_triples([(3, 61, 0.5), (5, 61, 3.0), (13, 61, 1.25), (far + 2, 61, 2.0)])
    return sigma, w, unit_grid(sigma, w, 60)


def _energy_rows(w, lo, hi, length_sq):
    """The reference for ``_energies``: E(w, I)^2 and w(I) of each range from
    correctly rounded sums over its own atoms."""
    e2, masses = [], []
    for a, b, sq in zip(lo.tolist(), hi.tolist(), length_sq.tolist()):
        m, x = w.masses_f[a:b], w.positions_f[a:b]
        mass = math.fsum(m)
        mean = math.fsum(x * m) / mass
        var = math.fsum((x - mean) ** 2 * m) / mass
        with np.errstate(divide="ignore"):
            e2.append(np.float64(2.0 * var) / sq)
        masses.append(mass)
    return np.array(e2), np.array(masses)


def _trunk_ranges(w, grid):
    """The atom ranges and |I|^2 that ``_trunk_table`` passes to ``_energies``."""
    table = node_table(w, grid)
    rows = np.flatnonzero(table.hi[0] - table.lo[0] >= 2)
    left, right = (ends[rows] for ends in _endpoints(table, grid))
    length = right - left
    return table.lo[0, rows], table.hi[0, rows], length * length


class TestEnergies:
    def test_python_pass_is_the_numpy_rows(self):
        cases = [
            *oracle_cases(),
            *crafted_cases(2),
            ("deep", *_deep_pair()),
            ("heavy", *_heavy_pair()),
        ]
        deep = 0
        for label, sigma, w, grid in cases:
            for mu in (sigma, w):
                lo, hi, length_sq = _trunk_ranges(mu, grid)
                got = _energies(mu, lo, hi, length_sq)
                want = _energy_rows(mu, lo, hi, length_sq)
                assert all(g.tobytes() == v.tobytes() for g, v in zip(got, want)), label
                if label == "deep":
                    deep += length_sq.min() < 2.0**-100
        assert deep == 2

    def test_a_zero_length_divides_as_numpy(self):
        # an |I|^2 that underflows to 0.0, where a Python division would raise
        w = AtomicMeasure.from_triples([(1, 300, 1.0), (3, 300, 2.0), (1, 1, 1.0)])
        lo, hi = np.array([0, 0]), np.array([2, 3])
        length_sq = np.array([0.0, 1.0])
        with np.errstate(divide="ignore"):
            got = _energies(w, lo, hi, length_sq)[0]
            want = _energy_rows(w, lo, hi, length_sq)[0]
        assert got.tobytes() == want.tobytes() and got[0] == math.inf


def _slice_split(mu, i):
    """(lo, cut, hi) of grid interval i from numpy's searchsorted."""
    pos = mu.positions_f
    lo, hi = (int(np.searchsorted(pos, e)) for e in (i.left_f, i.right_f))
    if i.level >= i.grid.depth:
        return lo, hi, hi
    mid = i.grid.endpoint_f(i.level + 1, 2 * i.index + 1)
    return lo, min(max(int(np.searchsorted(pos, mid)), lo), hi), hi


def _haar_slices(i, mu):
    """haar_function with correctly rounded sums of 1-D slices."""
    lo, cut, hi = _slice_split(mu, i)
    m = mu.masses_f
    m_left, m_right = math.fsum(m[lo:cut]), math.fsum(m[cut:hi])
    if m_left <= 0.0 or m_right <= 0.0:
        return None
    amp = math.sqrt(m_left * m_right / (m_left + m_right))
    values = np.zeros(mu.n_atoms)
    values[lo:cut] = -amp / m_left
    values[cut:hi] = amp / m_right
    return values


def _martingale_slices(f, i):
    """martingale_difference with correctly rounded sums of 1-D slices."""
    mu = f.base
    lo, cut, hi = _slice_split(mu, i)
    m = mu.masses_f
    values = np.zeros(mu.n_atoms)

    def mean(a, b):
        return math.fsum(f.values[a:b] * m[a:b]) / math.fsum(m[a:b])

    if lo < cut < hi:
        e_left, e_right, e_full = mean(lo, cut), mean(cut, hi), mean(lo, hi)
        values[lo:cut] = e_left - e_full
        values[cut:hi] = e_right - e_full
    return values


class TestPerIntervalBits:
    """haar_function and martingale_difference are the bytes of their
    1-D slice forms, on every occupied node, its children and every
    interval of the first three levels."""

    def test_haar_function_and_martingale_difference(self):
        cases = [*oracle_cases(families=("uniform", "mixed")), *crafted_cases(1), ("heavy", *_heavy_pair())]
        for label, sigma, w, grid in cases:
            rng = np.random.default_rng(len(label))
            for mu in (sigma, w):
                f = WeightedFunction(mu, np.exp(3.0 * rng.standard_normal(mu.n_atoms)))
                keys = {(lev, k) for lev in range(4) for k in range(1 << lev)}
                for n in occupied_nodes(mu, grid):
                    keys.add((n.level, n.index))
                    if n.level < grid.depth:
                        keys.update({(n.level + 1, 2 * n.index), (n.level + 1, 2 * n.index + 1)})
                for key in sorted(keys):
                    gi = GridInterval(grid, *key)
                    h, want = haar_function(gi, mu), _haar_slices(gi, mu)
                    assert (h is None) == (want is None), (label, key)
                    if h is not None:
                        assert h.values.tobytes() == want.tobytes(), (label, key)
                    md = martingale_difference(f, gi).values
                    assert md.tobytes() == _martingale_slices(f, gi).tobytes(), (label, key)


class TestGoodNodes:
    def test_the_good_splitting_nodes_in_pre_order(self):
        for label, sigma, w, grid in oracle_cases(families=("mixed",)):
            for mu in (sigma, w):
                for eps, r in ((SUITE_EPS, SUITE_R), (0.25, 2)):
                    want = [
                        n
                        for n in splitting_nodes(mu, grid)
                        if is_good(GridInterval(grid, n.level, n.index), eps, r)
                    ]
                    good = good_nodes(mu, grid, eps, r)
                    assert list(good) == want and good_nodes(mu, grid, eps, r) is good, label

    def test_is_good_once_per_node_grid_and_parameters(self, monkeypatch):
        calls = Counter()

        def counting(j, eps, r):
            calls[id(j.grid), j.level, j.index, eps, r] += 1
            return is_good(j, eps, r)

        monkeypatch.setattr(haar, "is_good", counting)
        expected = Counter()
        grids = []  # kept alive, so that no two grids share an id
        rng = np.random.default_rng(5)
        for sigma, w in random_ensemble(41, 3, 24, 10, family="mixed"):
            # a fresh grid of the same pair tests its nodes again
            for grid in (unit_grid(sigma, w, 10), unit_grid(sigma, w, 10)):
                grids.append(grid)
                for eps, r in ((SUITE_EPS, SUITE_R), (0.25, 2)):
                    for _ in range(3):
                        for mu in (sigma, w):
                            f = WeightedFunction(mu, rng.standard_normal(mu.n_atoms))
                            good_projection(f, grid, eps, r)
                        default_j_families([grid.root_interval], w, grid, eps, r, 1)
                    for mu in (sigma, w):
                        for n in splitting_nodes(mu, grid):
                            expected[id(grid), n.level, n.index, eps, r] += 1
        assert calls == expected and sum(calls.values()) > 0


class TestAbsoluteMultiplier:
    def test_nonnegative_coefficients_fixed(self, two_atom_w):
        g = _grid_for(two_atom_w, 1)
        h = haar_function(g.root_interval, two_atom_w)
        out = absolute_haar_multiplier(h, g)
        assert np.max(np.abs(out.values - h.values)) < 1e-14

    def test_sign_flip(self, two_atom_w):
        g = _grid_for(two_atom_w, 1)
        h = haar_function(g.root_interval, two_atom_w)
        out = absolute_haar_multiplier(-1.0 * h, g)
        assert np.max(np.abs(out.values - h.values)) < 1e-14

    def test_isometry_on_mean_zero(self, rng):
        sigma, w = random_ensemble(35, 1, 16, 10)[0]
        g = unit_grid(sigma, w, 10)
        raw = WeightedFunction(sigma, rng.standard_normal(sigma.n_atoms))
        hc = expand(raw, g)
        f = raw - WeightedFunction.constant(sigma, hc.root_mean)
        out = absolute_haar_multiplier(f, g)
        assert abs(out.norm() - f.norm()) < 1e-12 * max(1.0, f.norm())


class TestTelescoping:
    def test_all_charged_intervals(self, rng):
        sigma, w = random_ensemble(36, 1, 16, 9)[0]
        g = unit_grid(sigma, w, 9)
        f = WeightedFunction(sigma, rng.standard_normal(sigma.n_atoms))
        hc = expand(f, g)
        for lev in range(g.depth + 1):
            for k in range(1 << lev):
                gi = g.interval(lev, k)
                if sigma.mass_on(gi) == 0.0:
                    continue
                target = expectation(f, gi)
                total = hc.root_mean
                for up in range(lev):
                    anc = gi.ancestor(up)
                    md = martingale_difference(f, anc)
                    total += expectation(md, gi)
                assert abs(target - total) <= 1e-10 * max(1.0, abs(target))


def _walk_rows(mus, grid):
    """(level, index, lo..., cut..., hi...) of every grid interval holding an
    atom of ``mus``, in the pre-order of the reference walk."""
    rows = []

    def visit(level, index, ranges):
        if all(hi == lo for lo, hi in ranges):
            return False
        gi = GridInterval(grid, level, index)
        cuts = [
            hi if level == grid.depth else mu.index_range(gi.children()[1])[0]
            for mu, (_, hi) in zip(mus, ranges)
        ]
        rows.append((level, index, *(lo for lo, _ in ranges), *cuts, *(hi for _, hi in ranges)))
        return True

    top = grid.root_interval
    grid_walk(mus, grid, top, tuple(mu.index_range(top) for mu in mus), visit)
    return rows


def _near_endpoint_pair():
    """Atoms one ulp either side of depth-12 endpoints of the unit grid, where
    a cell index taken from x / cell alone would be off by one if it were
    not exact."""

    def atoms(ks, side):
        xs = sorted(np.nextafter(k / 4096, side) for k in ks)
        return AtomicMeasure(tuple(xs), tuple(1.0 + j for j in range(len(xs))))

    sigma, w = atoms((1, 7, 2048, 3001, 4095), np.inf), atoms((2, 8, 2049, 3000, 4094), -np.inf)
    return sigma, w, unit_grid(sigma, w, 12)


def _table_cases():
    yield from oracle_cases()
    yield ("shifted", *shifted_pair())
    yield ("near-endpoints", *_near_endpoint_pair())


class TestNodeTable:
    def test_rows_equal_the_walk(self):
        for label, sigma, w, grid in _table_cases():
            for mus in ((sigma,), (w,), (sigma, w)):
                t = _node_table(mus, grid)
                got = list(
                    zip(t.level.tolist(), t.index.tolist(), *t.lo.tolist(), *t.cut.tolist(), *t.hi.tolist())
                )
                assert got == _walk_rows(mus, grid), label

    def test_endpoints_parents_and_subtrees(self):
        for label, sigma, w, grid in _table_cases():
            t = _node_table((sigma, w), grid)
            level, index = t.level.tolist(), t.index.tolist()
            left, right = _endpoints(t, grid)
            parent = _parents(t, grid)
            for r in range(len(t)):
                assert left[r] == grid.endpoint_f(level[r], index[r]), label
                assert right[r] == grid.endpoint_f(level[r], index[r] + 1), label
                p = parent[r]
                assert (level[p], index[p]) == (level[r] - 1, index[r] // 2) if r else p == -1
                inside = [
                    q for q in range(len(t))
                    if level[q] >= level[r] and index[q] >> (level[q] - level[r]) == index[r]
                ]
                assert inside == list(range(r, t.end[r])), label

    def test_node_lists_are_masks_with_runs(self):
        for label, sigma, _, grid in _table_cases():
            occupied = occupied_nodes(sigma, grid)
            charged = charged_nodes(sigma, grid)
            splitting = splitting_nodes(sigma, grid)
            assert charged == tuple(n for n in occupied if n.hi - n.lo >= 2), label
            assert splitting == tuple(n for n in charged if n.lo < n.cut < n.hi), label
            for nodes in (occupied, charged, splitting):
                for n in occupied:
                    run = [
                        k for k, m in enumerate(nodes)
                        if m.level >= n.level and m.index >> (m.level - n.level) == n.index
                    ]
                    start, end = _run(nodes, grid, n.level, n.index)
                    assert list(range(start, end)) == run, label

    def test_deep_grids_keep_python_indices(self):
        # indices past 62 levels do not fit an int64
        sigma = AtomicMeasure.from_triples([(1, 75, 1.0), (2**50 + 1, 71, 2.0), (2**52 + 3, 72, 3.0)])
        w = AtomicMeasure.from_triples([(3, 75, 1.0), (2**52 + 5, 73, 2.0)])
        for depth in (57, 58, 62, 63, 70):
            grid = unit_grid(sigma, w, depth)
            for mus in ((sigma,), (w,), (sigma, w)):
                t = _node_table(mus, grid)
                got = list(
                    zip(t.level.tolist(), t.index.tolist(), *t.lo.tolist(), *t.cut.tolist(), *t.hi.tolist())
                )
                assert got == _walk_rows(mus, grid), depth
                assert (t.index.dtype == object) == (depth > 62)
            # keys past 63 bits, from depth 58 on, stay Python ints
            for nodes in (occupied_nodes(sigma, grid), charged_nodes(sigma, grid), splitting_nodes(sigma, grid)):
                assert isinstance(nodes.keys, list) == (depth > 57)
                for n in occupied_nodes(sigma, grid):
                    run = [
                        k for k, m in enumerate(nodes)
                        if m.level >= n.level and m.index >> (m.level - n.level) == n.index
                    ]
                    start, end = _run(nodes, grid, n.level, n.index)
                    assert list(range(start, end)) == run, depth

    def test_run_of_an_empty_interval_is_empty(self):
        for label, sigma, _, grid in _table_cases():
            occupied = {(n.level, n.index) for n in occupied_nodes(sigma, grid)}
            empty = [
                (level, index)
                for level in range(1, 4)
                for index in range(1 << level)
                if (level, index) not in occupied
            ]
            for level, index in empty:
                start, end = _run(splitting_nodes(sigma, grid), grid, level, index)
                assert start == end, label

    def test_measure_outside_the_root_is_refused(self):
        sigma = AtomicMeasure((2.0**-7, 1.5), (1.0, 1.0))
        grid = _grid_for(AtomicMeasure((2.0**-7,), (1.0,)))
        with pytest.raises(PreconditionViolation, match="grid root"):
            node_table(sigma, grid)


class TestGridMemo:
    """The node lists and the energy trunk live in the grid's memo: one
    object per grid, freed with the grid."""

    def test_repeat_calls_return_the_same_objects(self):
        for sigma, w in random_ensemble(5, 4, 16, 10, family="mixed"):
            grid, fresh = unit_grid(sigma, w, 10), unit_grid(sigma, w, 10)
            assert grid == fresh and grid is not fresh
            for mu in (sigma, w):
                for lists in (splitting_nodes, charged_nodes, occupied_nodes):
                    nodes = lists(mu, grid)
                    assert lists(mu, grid) is nodes
                    other = lists(mu, fresh)
                    assert other is not nodes
                    assert other == nodes and list(other.keys) == list(nodes.keys)
                trunk = _trunk_table(mu, grid)
                assert _trunk_table(mu, grid) is trunk
                again = _trunk_table(mu, fresh)
                assert again.nodes == trunk.nodes
                for name in ("left", "right", "e2", "e2w", "end"):
                    assert np.array_equal(getattr(again, name), getattr(trunk, name))
                assert again.kids == trunk.kids

    def test_the_memo_is_the_grid_s_own(self):
        sigma, w = random_ensemble(5, 1, 16, 10)[0]
        grid = unit_grid(sigma, w, 10)
        nodes = splitting_nodes(sigma, grid)
        assert grid._memo and nodes in grid._memo.values()
        assert hash(grid) == hash(unit_grid(sigma, w, 10))
        assert repr(grid) == repr(unit_grid(sigma, w, 10))
