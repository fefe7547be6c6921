from bisect import bisect_left

import numpy as np
import pytest

from h2w.measure import AtomicMeasure, Interval, dyadic
from h2w.grid import build_grid


@pytest.fixture
def micro_pair():
    """One unit mass at 1/4 for sigma, one at 3/4 for w."""
    sigma = AtomicMeasure.from_triples([(1, 2, 1.0)])
    w = AtomicMeasure.from_triples([(3, 2, 1.0)])
    return sigma, w


@pytest.fixture
def two_atom_w():
    """Unit masses at 1/4 and 3/4 over one measure."""
    return AtomicMeasure.from_triples([(1, 2, 1.0), (3, 2, 1.0)])


@pytest.fixture
def unit_root():
    return Interval(dyadic(0), dyadic(1))


def unit_grid(sigma, w, depth):
    return build_grid(Interval(dyadic(0), dyadic(1)), depth, dyadic(0), sigma, w)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def poisson_sum(positions, masses, left, right):
    """P of the atoms (positions, masses) on [left, right) as the scalar
    code computed it: |I| squared as a Python float (libm ``pow``)."""
    length = right - left
    dist = np.maximum(0.0, np.maximum(left - positions, positions - right))
    return float(np.sum(masses * length / (length**2 + dist**2)))


def pow_lengths(count):
    """Odd numerators n < 2^53 whose length n / 2^60 squares to different
    doubles under libm ``pow`` and x * x."""
    rng = np.random.default_rng(3)
    out = []
    while len(out) < count:
        n = int(rng.integers(1 << 52, 1 << 53)) | 1
        x = n * 2.0**-60
        if x**2 != x * x:
            out.append(n)
    return out


def oracle_cases(families=("uniform", "mixed", "clusters", "lacunary"), sizes=(8, 16, 32)):
    """Seeded pairs on two grids each, for comparisons against reference code.

    Each pair sits on the unit-root grid at depth 10 and, moved by -1/2,
    on the ``auto_grid`` of depth 13: a doubled root [-2, 2) whose finest
    endpoints would hit the atoms, so it is also shifted.
    """
    from h2w.grid import auto_grid
    from h2w.measure import AtomicMeasure, random_ensemble

    def moved(mu):
        return AtomicMeasure(tuple(p - dyadic(1, 1) for p in mu.positions), mu.masses)

    for fam in families:
        for n in sizes:
            for k, (sigma, w) in enumerate(random_ensemble(700 + n, 2, n, 10, family=fam)):
                yield f"{fam}-{n}-{k}-unit", sigma, w, unit_grid(sigma, w, 10)
                sigma2, w2 = moved(sigma), moved(w)
                grid = auto_grid(sigma2, w2, 13)
                assert grid.root.length == dyadic(4) and grid.shift != dyadic(0)
                yield f"{fam}-{n}-{k}-doubled", sigma2, w2, grid


def crafted_cases(count=4):
    """The verify suites' crafted pairs (deep window plus far atoms) on their
    unit-root grid: ``blocks`` pairs, which split into several coronas, and
    ``interleaved`` ones at both mass bands, which feed the half-plane weight."""
    from h2w.verify import SuiteConfig, _crafted_pair

    cfg = SuiteConfig()
    for k in range(count):
        for label, salt, layout, band in (
            ("blocks", k, "blocks", 2.0),
            ("interleaved", 500 + k, "interleaved", 2.0),
            ("interleaved-narrow", 1000 + k, "interleaved", 1.25),
        ):
            sigma, w = _crafted_pair(cfg, salt, layout, mass_band=band)
            yield f"crafted-{label}-{k}", sigma, w, unit_grid(sigma, w, cfg.depth)


def shifted_pair():
    """A pair on a grid whose left end, -2 - 2^-55, has no double.

    A float sum -2.0 + k cell(level) puts the level-1 boundary at 0.0
    instead of -2^-55, on the wrong side of the atom at -2^-56.
    """
    sigma = AtomicMeasure((dyadic(-3, 2), dyadic(-1, 56), dyadic(5, 3)), (1.0, 2.0, 0.5))
    w = AtomicMeasure((dyadic(-1, 3), dyadic(1, 57), dyadic(3, 1)), (1.5, 1.0, 0.25))
    root = Interval(dyadic(-2), dyadic(2))
    return sigma, w, build_grid(root, 12, -dyadic(1, 55), sigma, w)


def shifted_grids(exponents=(20, 1100), sizes=(8, 32)):
    """Seeded mixed pairs inside [0, 1) on the unit-root grid of depth 10
    and on the depth-13 grid over [-2, 2) shifted by -2^-e for each
    exponent e.  At e = 1100 the grid's left end has no double and the
    endpoint next to 0 rounds to -0.0; the pair of :func:`shifted_pair`
    comes last."""
    from h2w.measure import random_ensemble

    root = Interval(dyadic(-2), dyadic(2))
    for n in sizes:
        for k, (sigma, w) in enumerate(random_ensemble(800 + n, 2, n, 10, family="mixed")):
            yield f"mixed-{n}-{k}-unit", sigma, w, unit_grid(sigma, w, 10)
            for e in exponents:
                grid = build_grid(root, 13, -dyadic(1, e), sigma, w)
                yield f"mixed-{n}-{k}-shift-2^-{e}", sigma, w, grid
    yield ("shifted", *shifted_pair())


def grid_walk(mus, grid, top, ranges, visit):
    """Walk the grid intervals at and below ``top``, pre-order, left child
    first: the reference that the node tables are checked against.

    ``ranges[m]`` is the index range [lo, hi) of the atoms of ``mus[m]`` in
    ``top``.  ``visit(level, index, ranges)`` sees each node with its ranges
    and returns whether to walk into its children.  A node splits at the
    correctly rounded float of its exact midpoint, so every range equals
    ``mus[m].index_range`` of the node's interval on every grid, shifted
    ones included.
    """
    positions = [mu.positions_f.tolist() for mu in mus]
    stack = [(top.level, top.index, ranges)]
    while stack:
        level, index, ranges = stack.pop()
        if not visit(level, index, ranges) or level >= grid.depth:
            continue
        mid = grid.endpoint_f(level + 1, 2 * index + 1)
        cuts = [bisect_left(pos, mid, lo, hi) for pos, (lo, hi) in zip(positions, ranges)]
        stack.append((level + 1, 2 * index + 1, tuple((c, hi) for c, (_, hi) in zip(cuts, ranges))))
        stack.append((level + 1, 2 * index, tuple((lo, c) for c, (lo, _) in zip(cuts, ranges))))
