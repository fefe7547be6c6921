import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2w import measure
from h2w.errors import InexactPosition, ParseError
from h2w.haar import _pairwise_sum
from h2w.measure import (
    AtomicMeasure,
    DyadicRational,
    Interval,
    dilate,
    dyadic,
    has_common_point_mass,
    pair_text,
    parse_pair_text,
    random_ensemble,
)

dyadics = st.builds(
    DyadicRational,
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=0, max_value=40),
)


class TestDyadicRational:
    def test_canonical_form(self):
        assert dyadic(4, 2) == dyadic(1, 0)
        assert dyadic(6, 3) == dyadic(3, 2)
        assert dyadic(0, 7) == dyadic(0, 0)

    def test_order_and_float(self):
        assert dyadic(1, 2) < dyadic(3, 2) < dyadic(1, 0)
        assert float(dyadic(-3, 1)) == -1.5

    @given(dyadics, dyadics)
    @settings(max_examples=300)
    def test_add_sub_roundtrip(self, a, b):
        assert (a + b) - b == a

    @given(dyadics, dyadics)
    @settings(max_examples=300)
    def test_order_matches_floats(self, a, b):
        # both sides are exactly representable, so the float order is exact
        assert (a < b) == (float(a) < float(b))

    def test_halve_and_scale(self):
        assert dyadic(3, 1).halve() == dyadic(3, 2)
        assert dyadic(3, 2).scale_by_pow2(2) == dyadic(3, 0)
        assert dyadic(3, 0).scale_by_pow2(-2) == dyadic(3, 2)


class TestMassQueries:
    def test_atom_inside(self, unit_root):
        mu = AtomicMeasure.from_triples([(0, 0, 1.0)])
        assert mu.mass_on(unit_root) == 1.0

    def test_empty_measure(self, unit_root):
        assert AtomicMeasure.empty().mass_on(unit_root) == 0.0

    def test_direct_membership(self):
        mu = AtomicMeasure.from_triples([(1, 2, 1.0), (3, 2, 2.0)])
        assert mu.mass_on(Interval(dyadic(1, 1), dyadic(1, 0))) == 2.0

    def test_half_open_convention(self):
        mu = AtomicMeasure.from_triples([(1, 1, 1.0)])
        assert mu.mass_on(Interval(dyadic(0), dyadic(1, 1))) == 0.0
        assert mu.mass_on(Interval(dyadic(1, 1), dyadic(1, 0))) == 1.0

    def test_integer_masses_are_stored_as_floats(self):
        # nine masses 2^60 + 37 k + 1: their exact integer sum rounds away
        # from numpy's sum of their doubles, which the per-node sums follow
        masses = tuple((1 << 60) + 37 * k + 1 for k in range(9))
        assert _pairwise_sum(masses) != float(np.sum(np.array(masses, dtype=float)))
        mu = AtomicMeasure(tuple(dyadic(2 * k + 1, 5) for k in range(9)), masses)
        assert all(type(m) is float for m in mu.masses)
        assert _pairwise_sum(mu.masses) == float(np.sum(mu.masses_f))

    def test_finite_additivity_over_partition(self, rng):
        mu = AtomicMeasure.from_triples(
            [(2 * k + 1, 6, m) for k, m in zip(range(20), rng.uniform(0.1, 3, 20))]
        )
        total = mu.mass_on(Interval(dyadic(0), dyadic(1)))
        parts = [
            mu.mass_on(Interval(dyadic(k, 3), dyadic(k + 1, 3))) for k in range(8)
        ]
        assert math.isclose(sum(parts), total, rel_tol=0, abs_tol=0)  # exact sums of disjoint slices
        assert total == mu.total_mass


class TestRestrict:
    def test_restrict_basic(self):
        mu = AtomicMeasure.from_triples([(1, 2, 1.0), (3, 2, 1.0)])
        left = mu.restrict(Interval(dyadic(0), dyadic(1, 1)))
        assert left.n_atoms == 1 and float(left.positions[0]) == 0.25

    def test_partition_exact(self):
        mu = AtomicMeasure.from_triples([(1, 2, 1.0), (3, 2, 1.0), (5, 3, 0.5)])
        i = Interval(dyadic(1, 1), dyadic(1, 0))
        inside, outside = mu.restrict(i), mu.restrict_complement(i)
        merged = sorted(
            list(zip(inside.positions, inside.masses))
            + list(zip(outside.positions, outside.masses)),
            key=lambda t: float(t[0]),
        )
        assert merged == list(zip(mu.positions, mu.masses))

    def test_restrict_full_root_identity(self, unit_root):
        mu = AtomicMeasure.from_triples([(1, 2, 1.0), (3, 2, 1.0)])
        assert mu.restrict(unit_root) == mu


class TestHash:
    def test_equal_measures_built_apart_hash_equal(self):
        a = AtomicMeasure.from_triples([(1, 2, 2.0), (7, 3, 1.0), (3, 4, 0.5)])
        b = AtomicMeasure((dyadic(3, 4), dyadic(2, 3), dyadic(7, 3)), (0.5, 2.0, 1.0))
        assert a is not b and a == b and hash(a) == hash(b)
        assert hash(a) == hash((a.positions, a.masses))
        assert {a: 1}[b] == 1
        assert a != AtomicMeasure.from_triples([(3, 4, 0.5), (1, 2, 2.0), (7, 3, 1.5)])


class TestCommonPointMass:
    def test_disjoint(self, micro_pair):
        assert not has_common_point_mass(*micro_pair)

    def test_shared(self):
        a = AtomicMeasure.from_triples([(1, 2, 1.0)])
        b = AtomicMeasure.from_triples([(1, 2, 2.0)])
        assert has_common_point_mass(a, b)

    def test_empty(self):
        assert not has_common_point_mass(AtomicMeasure.empty(), AtomicMeasure.empty())

    @staticmethod
    def _merge(sigma, w):
        """The exact merge of the two position lists."""
        i = j = 0
        while i < sigma.n_atoms and j < w.n_atoms:
            c = sigma.positions[i]._cmp(w.positions[j])
            if c == 0:
                return True
            i, j = (i + 1, j) if c < 0 else (i, j + 1)
        return False

    @given(
        st.lists(st.tuples(st.integers(-64, 64), st.integers(0, 6)), max_size=12),
        st.lists(st.tuples(st.integers(-64, 64), st.integers(0, 6)), max_size=12),
        st.integers(0, 60),
    )
    def test_agrees_with_the_exact_merge(self, xs, ys, rescale):
        # the same point may come at different scales (1/2 as 2/4 or
        # 2^k/2^(k+1)), and deep scales stress the doubles
        def measure(atoms):
            points = {}
            for num, scale in atoms:
                points.setdefault(DyadicRational(num << rescale, scale + rescale), None)
            return AtomicMeasure.from_triples((p.num, p.scale, 1.0) for p in points)

        sigma, w = measure(xs), measure(ys)
        assert has_common_point_mass(sigma, w) == self._merge(sigma, w)
        assert has_common_point_mass(w, sigma) == self._merge(sigma, w)

    def test_positions_at_other_scales(self):
        a = AtomicMeasure.from_triples([(1, 1, 1.0), (3, 2, 1.0)])
        b = AtomicMeasure.from_triples([(1 << 40, 42, 1.0), (6, 3, 1.0)])
        c = AtomicMeasure.from_triples([(1, 52, 1.0), (2**53 - 1, 53, 1.0)])
        assert has_common_point_mass(a, b) and self._merge(a, b)
        assert not has_common_point_mass(a, c) and not self._merge(a, c)
        assert has_common_point_mass(c, AtomicMeasure.from_triples([(4, 54, 1.0)]))


class TestRandomEnsemble:
    def test_determinism(self):
        a = random_ensemble(3, 4, 8, 8)
        b = random_ensemble(3, 4, 8, 8)
        assert a == b

    def test_no_common_point_masses(self):
        for family in ("uniform", "clusters", "lacunary", "mixed"):
            for sigma, w in random_ensemble(11, 6, 12, 10, family=family):
                assert not has_common_point_mass(sigma, w)
                assert sigma.n_atoms >= 1 and w.n_atoms >= 1

    def test_positions_inside_unit_cells(self):
        for sigma, w in random_ensemble(5, 3, 8, 7):
            for mu in (sigma, w):
                for p in mu.positions:
                    assert 0.0 < float(p) < 1.0
                    assert p.scale == 8 and p.num % 2 == 1

    def test_golden_seed_seven(self):
        # frozen from the reference generator stream
        (sigma, w), = random_ensemble(7, 1, 4, 6)
        assert [(p.num, p.scale) for p in sigma.positions] == [
            (7, 7),
            (29, 7),
            (79, 7),
            (95, 7),
        ]
        assert np.allclose(
            sigma.masses,
            [0.9149341457784098, 2.278805376278993, 0.5791984743098129, 0.5410007309505045],
            rtol=0,
            atol=0,
        )
        assert [(p.num, p.scale) for p in w.positions] == [(69, 7), (103, 7), (105, 7)]
        assert np.allclose(
            w.masses,
            [1.0126902985187487, 0.506796459399615, 0.8587470979039822],
            rtol=0,
            atol=0,
        )

    def test_lattice_overflow_rejected(self):
        with pytest.raises(ValueError):
            random_ensemble(1, 1, 8, 3)


class TestFromTriples:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(dyadics, unique_by=lambda p: (p.num, p.scale), max_size=12))
    def test_exact_order_one_mirror_per_atom(self, points):
        distinct = list(points)[::-1]
        calls = []
        real = measure._mirror
        measure._mirror = lambda p: calls.append(p) or real(p)
        try:
            mu = AtomicMeasure.from_triples((p.num, p.scale, 1.0) for p in distinct)
        finally:
            measure._mirror = real
        assert list(mu.positions) == sorted(distinct, key=lambda p: p.num / 2**p.scale)
        assert len(calls) == mu.n_atoms

    @pytest.mark.parametrize(
        "triples",
        [
            [(1, 1, 1.0), (1, 2000, 1.0)],
            [(3, 1, 1.0), (1, 2000, 1.0), (-5, 1, 1.0)],
            [(1, 3, 1.0), (10**400, 0, 1.0)],
        ],
    )
    def test_inexact_atom_named(self, triples):
        with pytest.raises(InexactPosition) as err:
            AtomicMeasure.from_triples(triples)
        assert "1/2^2000" in str(err.value) or str(10**400) in str(err.value)


class TestDilate:
    def test_positions_and_masses_scale(self):
        mu = AtomicMeasure.from_triples([(1, 2, 1.5)])
        up = dilate(mu, 3)
        assert float(up.positions[0]) == 2.0 and up.masses[0] == 12.0
        down = dilate(up, -3)
        assert down == mu


class TestPairFiles:
    def test_roundtrip(self, micro_pair):
        sigma, w = micro_pair
        text = pair_text(sigma, w, header="roundtrip check")
        s2, w2 = parse_pair_text(text)
        assert s2 == sigma and w2 == w

    def test_comments_and_blank_lines(self):
        text = "# heading\n\n[sigma]\n1 2 1.0  # inline\n[w]\n3 2 2.5\n"
        sigma, w = parse_pair_text(text)
        assert sigma.n_atoms == 1 and w.masses[0] == 2.5

    def test_error_names_line(self):
        with pytest.raises(ParseError) as err:
            parse_pair_text("[sigma]\n1 2 1.0\nnot a triple\n[w]\n")
        assert "line 3" in str(err.value)

    def test_error_outside_section(self):
        with pytest.raises(ParseError):
            parse_pair_text("1 2 1.0\n")

    def test_error_bad_mass(self):
        with pytest.raises(ParseError):
            parse_pair_text("[sigma]\n1 2 -1.0\n[w]\n")
