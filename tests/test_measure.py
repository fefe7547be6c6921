import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from h2w import measure
from h2w.errors import InexactPosition, ParseError
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
    range_sum,
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
        assert dyadic(3, 1).scale_by_pow2(-1) == dyadic(3, 2)
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

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(-1e300, 1e300), st.floats(-1e-300, 1e-300)), max_size=60))
    def test_range_sum_is_correctly_rounded(self, terms):
        assert range_sum(terms) == float(sum(map(Fraction, terms), Fraction(0)))

    def test_range_sum_past_the_doubles(self):
        assert range_sum([1e308, 1e308]) == math.inf
        assert math.isnan(range_sum([math.inf, -math.inf]))

    def test_mass_on_reads_only_the_interval_atoms(self):
        # a heavy atom left of the interval changes no bit of its mass
        light = [1.0 + 0.37 * k for k in range(100, 110)]
        triples = [(4 * k + 1, 10, m) for k, m in zip(range(100, 110), light)]
        mu = AtomicMeasure.from_triples([(-(1 << 30), 10, 8e16)] + triples)
        box = Interval(dyadic(0), dyadic(1))
        assert mu.mass_on(box) == float(sum(map(Fraction, light)))

    def test_integer_masses_are_stored_as_floats(self):
        masses = tuple((1 << 60) + 37 * k + 1 for k in range(9))
        mu = AtomicMeasure(tuple((2 * k + 1) / 32 for k in range(9)), masses)
        assert all(type(m) is float for m in mu.masses)

    def test_finite_additivity_over_partition(self, rng):
        mu = AtomicMeasure.from_triples(
            [(2 * k + 1, 6, m) for k, m in zip(range(20), rng.uniform(0.1, 3, 20))]
        )
        total = mu.mass_on(Interval(dyadic(0), dyadic(1)))
        parts = [
            mu.mass_on(Interval(dyadic(k, 3), dyadic(k + 1, 3))) for k in range(8)
        ]
        # each slice's mass (atoms 4k .. 4k + 3) and the total are their
        # exact sums, rounded once
        exact = [sum(map(Fraction, mu.masses[4 * k : 4 * k + 4]), Fraction(0)) for k in range(8)]
        assert parts == [float(e) for e in exact]
        assert total == float(sum(exact)) == mu.total_mass


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
        b = AtomicMeasure((3 / 16, 0.25, 7 / 8), (0.5, 2.0, 1.0))
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
            a, b = Fraction(sigma.positions[i]), Fraction(w.positions[j])
            if a == b:
                return True
            i, j = (i + 1, j) if a < b else (i, j + 1)
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
                points.setdefault(Fraction(num, 1 << scale), (num << rescale, scale + rescale))
            return AtomicMeasure.from_triples((num, scale, 1.0) for num, scale in points.values())

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
                for x in mu.positions:
                    num, den = x.as_integer_ratio()
                    assert 0.0 < x < 1.0
                    assert den == 2**8 and num % 2 == 1

    def test_golden_seed_seven(self):
        # frozen from the reference generator stream
        (sigma, w), = random_ensemble(7, 1, 4, 6)
        assert [x.as_integer_ratio() for x in sigma.positions] == [
            (7, 2**7),
            (29, 2**7),
            (79, 2**7),
            (95, 2**7),
        ]
        assert np.allclose(
            sigma.masses,
            [0.9149341457784098, 2.278805376278993, 0.5791984743098129, 0.5410007309505045],
            rtol=0,
            atol=0,
        )
        assert [x.as_integer_ratio() for x in w.positions] == [(69, 2**7), (103, 2**7), (105, 2**7)]
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
        measure._mirror = lambda *p: calls.append(p) or real(*p)
        try:
            mu = AtomicMeasure.from_triples((p.num, p.scale, 1.0) for p in distinct)
        finally:
            measure._mirror = real
        assert list(mu.positions) == sorted(p.num / 2**p.scale for p in distinct)
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


    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_position_rejected(self, x):
        for positions in ((x,), (0.0, x), (x, 0.0)):
            with pytest.raises(ValueError, match="finite"):
                AtomicMeasure(positions, (1.0,) * len(positions))

    def test_no_dyadic_rational_per_atom(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a DyadicRational was built")

        monkeypatch.setattr(DyadicRational, "__post_init__", refuse)
        sigma, w = parse_pair_text("[sigma]\n10 2 1.0\n-3 1 2.0\n[w]\n1 1074 0.5\n")
        assert sigma.positions == (-1.5, 2.5) and w.positions == (2.0**-1074,)
        assert pair_text(sigma, w) == "[sigma]\n-3 1 2.0\n5 1 1.0\n[w]\n1 1074 0.5\n"
        assert dilate(sigma, 2).positions == (-6.0, 10.0)


def _at_scale(x: float, extra: int) -> tuple[float, int, int]:
    """x as (x, num, scale) with num / 2**scale = x, ``extra`` binary
    places past its lowest terms."""
    num, den = x.as_integer_ratio()
    return x, num << extra, den.bit_length() - 1 + extra


_exact_atoms = st.lists(
    st.tuples(
        st.builds(_at_scale, st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 2000)),
        st.floats(min_value=1e-300, max_value=1e300),
    ),
    unique_by=lambda atom: atom[0][0],
    max_size=8,
)


def _canonical_lines(atoms) -> list[str]:
    """The pair-file lines of the atoms, canonical and sorted, by Fraction."""
    exact = sorted((Fraction(num, 1 << scale), m) for (_, num, scale), m in atoms)
    return [f"{q.numerator} {q.denominator.bit_length() - 1} {m!r}" for q, m in exact]


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_exact_atoms, _exact_atoms)
    @example([((0.625, 10, 4), 1.0), ((1.0, 2**2000, 2000), 2.0)], [((-1.5, -12, 3), 0.5)])
    @example([((2.0**-1074, 1, 1074), 1.0)], [((-(2.0**-1022), -(2**53), 1075), 3.0)])
    def test_triples_write_canonically_and_read_back(self, sigma_atoms, w_atoms):
        sigma, w = (
            AtomicMeasure.from_triples((num, scale, m) for (_, num, scale), m in atoms)
            for atoms in (sigma_atoms, w_atoms)
        )
        assert sigma.positions == tuple(sorted(x for (x, _, _), _ in sigma_atoms))
        text = pair_text(sigma, w)
        assert text == "\n".join(
            ["[sigma]", *_canonical_lines(sigma_atoms), "[w]", *_canonical_lines(w_atoms)]
        ) + "\n"
        assert parse_pair_text(text) == (sigma, w)

    @pytest.mark.parametrize(
        "line, canonical",
        [
            ("10 2", "5 1"),
            (f"{2**2000} 2000", "1 0"),
            ("-12 3", "-3 1"),
            ("0 9", "0 0"),
            ("1 1074", "1 1074"),
            (f"{-(2**53 - 1)} 1074", f"{-(2**53 - 1)} 1074"),
        ],
    )
    def test_canonical_line(self, line, canonical):
        sigma, w = parse_pair_text(f"[sigma]\n{line} 1.5\n[w]\n")
        assert pair_text(sigma, w) == f"[sigma]\n{canonical} 1.5\n[w]\n"

    @pytest.mark.parametrize("line", ["1 1075", "3 1075", f"{2**53 + 1} 0"])
    def test_inexact_line_refused(self, line):
        with pytest.raises(InexactPosition):
            parse_pair_text(f"[sigma]\n{line} 1.5\n[w]\n")

    def test_negative_scale_refused(self):
        with pytest.raises(ParseError, match="non-negative"):
            parse_pair_text("[sigma]\n1 -1 1.5\n[w]\n")


class TestDilate:
    def test_positions_and_masses_scale(self):
        mu = AtomicMeasure.from_triples([(1, 2, 1.5)])
        up = dilate(mu, 3)
        assert float(up.positions[0]) == 2.0 and up.masses[0] == 12.0
        down = dilate(up, -3)
        assert down == mu

    def test_far_exact_dilations_invert(self):
        mu = AtomicMeasure.from_triples([(1, 1, 1.0), (3, 0, 0.75)])
        for k in (-1070, 1020):
            assert dilate(dilate(mu, k), -k) == mu

    @pytest.mark.parametrize("k", [1030, 1100, -1100])
    def test_position_leaving_the_doubles_refused(self, k):
        mu = AtomicMeasure.from_triples([(1, 2, 1.5)])
        with pytest.raises(InexactPosition, match=r"atom at 1/2\^2 "):
            dilate(mu, k)

    def test_mass_losing_bits_refused(self):
        # 1.1 * 2^-1070 is subnormal: its double would dilate back to 1.125
        mu = AtomicMeasure.from_triples([(0, 0, 1.1)])
        with pytest.raises(ValueError, match=r"mass 1\.1 "):
            dilate(mu, -1070)


class TestMemory:
    def test_ensemble_bytes_per_atom(self):
        # a float per position, as for masses, and the positions' array
        random_ensemble(1, 2, 32, 12, family="mixed")  # first-call set-up is not counted
        tracemalloc.start()
        try:
            pairs = random_ensemble(1, 200, 32, 12, family="mixed")
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        atoms = sum(sigma.n_atoms + w.n_atoms for sigma, w in pairs)
        assert held <= 120 * atoms, held / atoms


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
