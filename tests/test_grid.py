from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2w.errors import EndpointCollision
from h2w.grid import (
    DyadicGrid,
    GridInterval,
    auto_grid,
    build_grid,
    f_parent,
    is_good,
    minimal_member,
)
from h2w.haar import occupied_nodes
from h2w.measure import AtomicMeasure, Interval, dyadic

from conftest import exact_ends, exact_interval, shifted_grids, unit_grid


def _inside_pair(depth):
    sigma = AtomicMeasure.from_triples([(1, depth + 1, 1.0)])
    w = AtomicMeasure.from_triples([(3, depth + 1, 1.0)])
    return sigma, w


class TestBuild:
    def test_levels_and_intervals(self):
        sigma, w = _inside_pair(3)
        g = unit_grid(sigma, w, 3)
        for lev in range(4):
            cells = [g.interval(lev, k) for k in range(2**lev)]
            assert [c.left_f for c in cells[1:]] == [c.right_f for c in cells[:-1]]
            assert (cells[0].left_f, cells[-1].right_f) == (0.0, 1.0)
            assert all((c.left_f, c.right_f) == tuple(map(float, exact_ends(c))) for c in cells)
            with pytest.raises(ValueError):
                g.interval(lev, 2**lev)
        assert exact_ends(g.interval(2, 1)) == (Fraction(1, 4), Fraction(1, 2))

    def test_children_partition_parent_exactly(self):
        sigma, w = _inside_pair(4)
        g = unit_grid(sigma, w, 4)
        for lev in range(4):
            for k in range(2**lev):
                gi = g.interval(lev, k)
                left, right = gi.children()
                assert left.right_f == right.left_f == gi.center_f
                assert left.left_f == gi.left_f
                assert right.right_f == gi.right_f

    def test_endpoint_collision(self):
        atom = AtomicMeasure.from_triples([(1, 2, 1.0)])
        with pytest.raises(EndpointCollision):
            build_grid(Interval(dyadic(0), dyadic(1)), 3, dyadic(0), atom, AtomicMeasure.empty())

    def test_shift_moves_endpoints_off_atoms(self):
        atom = AtomicMeasure.from_triples([(1, 2, 1.0)])
        g = auto_grid(atom, AtomicMeasure.empty(), 6)
        assert g.endpoint_slot(atom.positions[0]) is None

    def test_root_length_power_of_two(self):
        with pytest.raises(ValueError):
            DyadicGrid(Interval(dyadic(0), dyadic(3)), 2)


class TestGoodness:
    def test_vacuous_when_no_qualifying_interval(self):
        sigma, w = _inside_pair(6)
        g = unit_grid(sigma, w, 6)
        assert is_good(g.interval(3, 5), 0.25, 9)  # needs |I| >= 2^8 |J|: none in grid

    def test_endpoint_contact_is_bad(self):
        sigma, w = _inside_pair(10)
        g = unit_grid(sigma, w, 10)
        # left endpoint of this interval lies on the level-1 boundary lattice
        assert not is_good(g.interval(8, 128), 0.49, 6)

    def test_monotone_in_r(self):
        sigma, w = _inside_pair(12)
        g = unit_grid(sigma, w, 12)
        for k in range(0, 1 << 9, 37):
            gi = g.interval(9, k)
            if is_good(gi, 0.49, 6):
                assert is_good(gi, 0.49, 7)
                assert is_good(gi, 0.49, 9)

    def test_feasibility_boundary(self):
        """At (eps, r) with (r-1) eps = 2 the good set at the binding offset is
        empty (an interval of positive width cannot reach the required
        distance), while the working configuration keeps a positive fraction."""
        sigma, w = _inside_pair(14)
        g = unit_grid(sigma, w, 14)

        def good(level, eps, r):
            return [k for k in range(1 << level) if is_good(g.interval(level, k), eps, r)]

        assert good(12, 0.25, 9) == []
        assert len(good(12, 0.49, 6)) == 88
        assert len(good(5, 0.49, 6)) == 8

    def test_level12_spot_value(self):
        # the interval whose left endpoint is 1365/4096, recorded from the scan
        sigma, w = _inside_pair(14)
        g = unit_grid(sigma, w, 14)
        spot = g.interval(12, 1365)
        assert spot.left_f == 1365 / 4096
        assert is_good(spot, 0.25, 9) is False


class TestFamilyParent:
    def test_root_family(self):
        sigma, w = _inside_pair(5)
        g = unit_grid(sigma, w, 5)
        inner = g.interval(3, 2)
        assert f_parent(inner, {(0, 0)}) == g.root_interval

    def test_member_maps_to_strict_parent(self):
        sigma, w = _inside_pair(5)
        g = unit_grid(sigma, w, 5)
        a, b, c = g.root_interval, g.interval(2, 1), g.interval(4, 5)
        keys = {a.key, b.key, c.key}
        assert f_parent(c, keys) == b
        assert f_parent(a, keys) is None

    def test_nonmember_nonstrict(self):
        sigma, w = _inside_pair(5)
        g = unit_grid(sigma, w, 5)
        keys = {(2, 1)}
        inside = g.interval(4, 4)  # inside [1/4, 1/2)
        assert f_parent(inside, keys) == g.interval(2, 1)
        outside = g.interval(4, 12)
        assert f_parent(outside, keys) is None


# (level, index) keys of a depth-6 grid
_keys = st.integers(0, 6).flatmap(
    lambda level: st.tuples(st.just(level), st.integers(0, (1 << level) - 1))
)


def _containing(family, level, index):
    """The members of ``family`` that contain (level, index), by scanning
    every member rather than walking up."""
    return [(m, k) for m, k in family if m <= level and index >> (level - m) == k]


class TestMinimalMember:
    @settings(max_examples=300, deadline=None)
    @given(st.frozensets(_keys, max_size=12), _keys, st.data())
    def test_walk_and_strict_step_equal_a_scan(self, family, key, data):
        if family and data.draw(st.booleans()):
            key = data.draw(st.sampled_from(sorted(family)))  # a member's own key
        level, index = key
        found = _containing(family, level, index)
        assert minimal_member(family, level, index) == max(found, default=None)
        strict = max((m for m in found if m != key), default=None)
        grid = DyadicGrid(Interval(dyadic(0), dyadic(1)), 6)
        parent = f_parent(GridInterval(grid, level, index), family)
        assert (None if parent is None else parent.key) == strict

    def test_level_zero_member(self):
        assert minimal_member({(0, 0)}, 5, 17) == (0, 0)
        assert minimal_member({(0, 0)}, 0, 0) == (0, 0)
        grid = DyadicGrid(Interval(dyadic(0), dyadic(1)), 6)
        assert f_parent(grid.root_interval, {(0, 0)}) is None
        assert minimal_member(set(), 3, 5) is None


def _lookup_intervals(sigma, w, grid):
    """Every grid interval down to level 6, each occupied node of either
    measure, and both children of an occupied node: every cut next to an
    atom."""
    out = [grid.interval(level, k) for level in range(7) for k in range(1 << level)]
    for mu in (sigma, w):
        for n in occupied_nodes(mu, grid):
            gi = GridInterval(grid, n.level, n.index)
            out += [gi, *(gi.children() if n.level < grid.depth else ())]
    return out


class TestEndpointSlot:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([(0, 1), (-2, 2)]),
        st.integers(1, 13),
        st.sampled_from([None, 20, 55, 1100]),
        st.integers(-3, 3) | st.integers(-(2**14), 2**14),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_slot_against_fractions(self, ends, depth, exponent, k, y):
        shift = dyadic(0) if exponent is None else -dyadic(1, exponent)
        grid = DyadicGrid(Interval(dyadic(ends[0]), dyadic(ends[1])), depth, shift)
        left0 = ends[0] + Fraction(shift.num, 1 << shift.scale)
        cell = Fraction(ends[1] - ends[0], 2**depth)
        # the doubles nearest endpoints counted from either end (the
        # endpoints themselves when they are doubles), and any double
        for x in (float(left0 + k * cell), float(left0 + (2**depth + k) * cell), y):
            slot = (Fraction(x) - left0) / cell
            want = int(slot) if slot.denominator == 1 and 0 <= slot <= 2**depth else None
            assert grid.endpoint_slot(x) == want, x


class TestAtomLookup:
    def test_grid_interval_answers_as_its_interval(self):
        count = 0
        for label, sigma, w, grid in shifted_grids():
            for gi in _lookup_intervals(sigma, w, grid):
                iv = exact_interval(gi)
                assert (gi.left_f, gi.right_f) == (iv.left_f, iv.right_f), (label, gi)
                for mu in (sigma, w):
                    assert mu.index_range(gi) == mu.index_range(iv), (label, gi)
                    assert mu.mass_on(gi) == mu.mass_on(iv), (label, gi)
                    assert mu.restrict(gi) == mu.restrict(iv), (label, gi)
                    assert mu.restrict_complement(gi) == mu.restrict_complement(iv), (label, gi)
                count += 1
        assert count > 5_000

    def test_left_end_without_a_double(self):
        # atoms at 0 and +-2^-1074 sit on either side of the endpoint
        # -2^-1100, whose float is -0.0
        tiny = 2.0**-1074
        sigma = AtomicMeasure((-tiny, 0.0, tiny), (1.0, 2.0, 4.0))
        grid = build_grid(Interval(dyadic(-2), dyadic(2)), 13, -dyadic(1, 1100), sigma, sigma)
        right = grid.interval(1, 1)
        assert right.left_f == 0.0 and sigma.index_range(right) == (1, 3)
        assert sigma.index_range(right) == sigma.index_range(exact_interval(right))
        assert sigma.mass_on(grid.interval(1, 0)) == 1.0
