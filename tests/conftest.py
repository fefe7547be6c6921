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
