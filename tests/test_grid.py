import pytest

from h2w.errors import EndpointCollision
from h2w.grid import DyadicGrid, auto_grid, build_grid, f_parent, good_levels_scan, is_good
from h2w.measure import AtomicMeasure, Interval, dyadic

from conftest import unit_grid


def _inside_pair(depth):
    sigma = AtomicMeasure.from_triples([(1, depth + 1, 1.0)])
    w = AtomicMeasure.from_triples([(3, depth + 1, 1.0)])
    return sigma, w


class TestBuild:
    def test_levels_and_intervals(self):
        sigma, w = _inside_pair(3)
        g = unit_grid(sigma, w, 3)
        for lev in range(4):
            cells = [g.interval(lev, k).interval for k in range(2**lev)]
            assert [c.left for c in cells[1:]] == [c.right for c in cells[:-1]]
            assert (cells[0].left, cells[-1].right) == (g.root.left, g.root.right)
            with pytest.raises(ValueError):
                g.interval(lev, 2**lev)
        assert g.interval(2, 1).interval == Interval(dyadic(1, 2), dyadic(1, 1))

    def test_children_partition_parent_exactly(self):
        sigma, w = _inside_pair(4)
        g = unit_grid(sigma, w, 4)
        for lev in range(4):
            for k in range(2**lev):
                gi = g.interval(lev, k)
                left, right = gi.children()
                assert left.interval.right == right.interval.left
                assert left.interval.left == gi.interval.left
                assert right.interval.right == gi.interval.right

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
        assert good_levels_scan(g, 12, 0.25, 9) == ()
        assert len(good_levels_scan(g, 12, 0.49, 6)) == 88
        assert len(good_levels_scan(g, 5, 0.49, 6)) == 8

    def test_level12_spot_value(self):
        # the interval whose left endpoint is 1365/4096, recorded from the scan
        sigma, w = _inside_pair(14)
        g = unit_grid(sigma, w, 14)
        spot = g.interval(12, 1365)
        assert spot.interval.left == dyadic(1365, 12)
        assert is_good(spot, 0.25, 9) is False


class TestFamilyParent:
    def test_root_family(self):
        sigma, w = _inside_pair(5)
        g = unit_grid(sigma, w, 5)
        fam = [g.root_interval]
        inner = g.interval(3, 2)
        assert f_parent(inner, fam) == g.root_interval

    def test_member_maps_to_strict_parent(self):
        sigma, w = _inside_pair(5)
        g = unit_grid(sigma, w, 5)
        a, b, c = g.root_interval, g.interval(2, 1), g.interval(4, 5)
        fam = [a, b, c]
        assert f_parent(c, fam, s=1) == b
        assert f_parent(c, fam, s=2) == a
        assert f_parent(a, fam, s=1) is None

    def test_nonmember_nonstrict(self):
        sigma, w = _inside_pair(5)
        g = unit_grid(sigma, w, 5)
        fam = [g.interval(2, 1)]
        inside = g.interval(4, 4)  # inside [1/4, 1/2)
        assert f_parent(inside, fam) == g.interval(2, 1)
        outside = g.interval(4, 12)
        assert f_parent(outside, fam) is None
