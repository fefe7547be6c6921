"""Stationary Poisson quantities, the half-plane extension and its dual.

The stationary quantity P(mu, I) integrates |I| / (|I|^2 + dist(x, I)^2)
with distance taken to the closed hull of I, so it agrees with the upper
half-plane extension evaluated at (center, |I|) up to a factor in [1, 2]:
dist(x, I) <= |x - center| <= dist(x, I) + |I|/2 squeezes the two kernels
within that band.  No 1/pi normalization anywhere.

Every Poisson kernel is evaluated here, by three batched helpers with one
row per interval or point and one column per atom; a scalar entry point is
a one-row call, and each row is summed on its own, so batching moves no
bit.  :func:`poisson_testing` evaluates each side once per distinct input:
the forward side per sigma atom range, the dual side per box mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PreconditionViolation
from .grid import DyadicGrid, GridInterval, f_parent
from .haar import WeightedFunction, expand, good_nodes, occupied_nodes
from .measure import AtomicMeasure, range_sum

__all__ = [
    "HalfPlaneMeasure",
    "poisson_stationary",
    "poisson_extension",
    "dual_poisson",
    "default_j_families",
    "maximal_intervals",
    "mu_measure",
    "poisson_testing",
    "PoissonTestResult",
    "poisson_test_intervals",
    "poisson_local_comparison",
]


def _product_kernel(lefts: np.ndarray, rights: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """|I| / (|I| |I| + d^2) for the intervals [lefts, rights) by the atoms
    at ``pos``, d the atom's distance to I, built in place; its product
    with the masses is P."""
    length = (rights - lefts)[:, None]
    out = np.subtract(lefts[:, None], pos)
    np.maximum(out, pos - rights[:, None], out=out)
    np.maximum(out, 0.0, out=out)
    np.square(out, out=out)
    out += length * length
    np.divide(length, out, out=out)
    return out


def _poisson_sums(
    lefts: np.ndarray, rights: np.ndarray, pos: np.ndarray, mass: np.ndarray
) -> np.ndarray:
    """P(mu, I) for the intervals [lefts, rights) by the atoms (pos, mass):
    the row sums of the product kernel times the masses."""
    terms = _product_kernel(lefts, rights, pos)
    terms *= mass
    return terms.sum(axis=1)


def _extension_terms(
    xs: np.ndarray, ts: np.ndarray, pos: np.ndarray, mass: np.ndarray
) -> np.ndarray:
    """m t / (t^2 + (x - y)^2) for the half-plane points (xs, ts) by the
    atoms (y, m) = (pos, mass); row sums are the extension."""
    t = ts[:, None]
    return mass * t / (t * t + (xs[:, None] - pos) ** 2)


def _dual_terms(
    points: np.ndarray, xs: np.ndarray, ts: np.ndarray, mass: np.ndarray
) -> np.ndarray:
    """m t^2 / (t^2 + (x - x_q)^2) for the points x by the half-plane atoms
    (x_q, t, m) = (xs, ts, mass); row sums are the dual operator."""
    return mass * ts**2 / (ts**2 + (points[:, None] - xs) ** 2)


def poisson_stationary(mu: AtomicMeasure, i) -> float:
    """P(mu, I): exact atom sum of |I| / (|I|^2 + dist(x, I)^2)."""
    left, right = np.array([i.left_f]), np.array([i.right_f])
    return float(_poisson_sums(left, right, mu.positions_f, mu.masses_f)[0])


def poisson_extension(mu: AtomicMeasure, x: float, t: float) -> float:
    """The upper half-plane extension: atom sum of t / (t^2 + (x - y)^2)."""
    if t <= 0:
        raise ValueError("t must be positive")
    return float(_extension_terms(np.array([x]), np.array([t]), mu.positions_f, mu.masses_f).sum())


@dataclass(frozen=True)
class HalfPlaneMeasure:
    """Point masses in the open upper half plane, tagged by origin.

    Tags record the (stopping interval, maximal interval) keys each atom was
    built from; purely for traceability.
    """

    xs: tuple[float, ...]
    ts: tuple[float, ...]
    masses: tuple[float, ...]
    tags: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = ()

    def __post_init__(self):
        if not (len(self.xs) == len(self.ts) == len(self.masses)):
            raise ValueError("xs, ts, masses must have equal length")
        if any(t <= 0 for t in self.ts):
            raise ValueError("heights must be positive")
        if any(m < 0 for m in self.masses):
            raise ValueError("masses must be non-negative")

    @property
    def n_atoms(self) -> int:
        return len(self.xs)

    @cached_property
    def xs_f(self) -> np.ndarray:
        return np.array(self.xs, dtype=float)

    @cached_property
    def ts_f(self) -> np.ndarray:
        return np.array(self.ts, dtype=float)

    @cached_property
    def masses_f(self) -> np.ndarray:
        return np.array(self.masses, dtype=float)

    def box_mask(self, box) -> np.ndarray:
        """Atoms inside box x [0, |box|] (half-open in x, closed in t)."""
        return (
            (self.xs_f >= box.left_f)
            & (self.xs_f < box.right_f)
            & (self.ts_f <= box.length_f)
        )


def dual_poisson(hp: HalfPlaneMeasure, box, x: float) -> float:
    """Dual operator: sum over atoms in the box of t^2/(t^2 + |x - xq|^2) mass."""
    mask = hp.box_mask(box)
    return float(_dual_terms(np.array([x]), hp.xs_f[mask], hp.ts_f[mask], hp.masses_f[mask]).sum())


# ---------------------------------------------------------------------------
# the discrete half-plane weight built from a stopping family


def default_j_families(
    family,
    w: AtomicMeasure,
    grid: DyadicGrid,
    eps: float,
    r: int,
    below_gap: int,
) -> dict[tuple[int, int], list[GridInterval]]:
    """For each stopping interval F, the good w-splitting J strictly below it.

    J qualifies when it is (eps, r)-good (one of
    :func:`~h2w.haar.good_nodes`), J is at least ``below_gap`` levels
    below F inside F, and F is the minimal family member containing J.  Only
    intervals where the w-Haar function exists are kept, since nothing else
    contributes to the projections.
    """
    out: dict[tuple[int, int], list[GridInterval]] = {m.key: [] for m in family}
    for n in good_nodes(w, grid, eps, r):
        J = GridInterval(grid, n.level, n.index)
        parent = f_parent(J, out)  # out's keys are the family's
        if parent is None:
            continue
        if J.level - parent.level < below_gap:
            continue
        out[parent.key].append(J)
    return out


def maximal_intervals(intervals) -> list[GridInterval]:
    """The members not contained in any other member."""
    items = sorted(intervals, key=lambda j: (j.level, j.index))
    out: list[GridInterval] = []
    for j in items:
        if not any(k.contains(j) for k in out):
            out.append(j)
    return out


def mu_measure(
    family,
    w: AtomicMeasure,
    grid: DyadicGrid,
    j_families: dict[tuple[int, int], list[GridInterval]],
) -> HalfPlaneMeasure:
    """One half-plane atom per (F, maximal J): location (center, |J|), mass
    the squared norm of the projection of x/|J| onto the Haar span of the
    family members inside J."""
    ident = WeightedFunction.identity(w) if w.n_atoms else None
    coeffs = expand(ident, grid).coeffs if ident is not None else {}
    xs: list[float] = []
    ts: list[float] = []
    masses: list[float] = []
    tags: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for F in family:
        js = j_families.get(F.key, [])
        if not js:
            continue
        for jstar in maximal_intervals(js):
            mass = sum(
                coeffs.get(j.key, 0.0) ** 2
                for j in js
                if jstar.contains(j)
            ) / jstar.length_f**2
            xs.append(jstar.center_f)
            ts.append(jstar.length_f)
            masses.append(mass)
            tags.append((F.key, jstar.key))
    return HalfPlaneMeasure(tuple(xs), tuple(ts), tuple(masses), tuple(tags))


@dataclass(frozen=True)
class PoissonTestResult:
    forward_lhs: float
    forward_rhs: float
    forward_ratio: float
    dual_lhs: float
    dual_rhs: float
    dual_ratio: float
    zero_denominator: bool


def poisson_test_intervals(sigma: AtomicMeasure, grid: DyadicGrid, members) -> list[GridInterval]:
    """The intervals of a Poisson testing run: the grid intervals holding a
    sigma atom, down to level 8, in pre-order, then the stopping ``members``,
    each interval once, where it first comes."""
    intervals = [
        GridInterval(grid, n.level, n.index) for n in occupied_nodes(sigma, grid) if n.level <= 8
    ] + list(members)
    return list({gi.key: gi for gi in intervals}.values())


def poisson_testing(
    intervals,
    sigma: AtomicMeasure,
    hp: HalfPlaneMeasure,
    h_const: float,
    a2_const: float,
) -> list[PoissonTestResult]:
    """Both sides of the two Poisson testing inequalities, one result per
    grid interval.

    Forward: the extension of sigma restricted to I, squared, integrated
    against the half-plane weight, versus h_const^2 sigma(I).  Dual: the
    squared dual operator of the boxed weight integrated in sigma, versus
    a2_const times the boxed second moment.  Ratios are 0 when both sides
    vanish; a zero denominator with sides reported sets the flag.

    Batched: the (mu x sigma) extension terms and the (sigma x mu) dual
    terms are built once, and so are the box masks of all the intervals,
    as one boolean matrix.  The forward side is then evaluated once per
    distinct sigma atom range, from the contiguous column slice of its
    atoms, and the dual side once per distinct box mask, from the columns
    it selects; an empty mask gives 0.0, as its empty sums do.  Every row
    sum reduces a contiguous row, so each result is bitwise equal to
    evaluating its interval alone.
    """
    pos, smass = sigma.positions_f, sigma.masses_f
    xs, ts, hmass = hp.xs_f, hp.ts_f, hp.masses_f
    ext = _extension_terms(xs, ts, pos, smass)
    dual = _dual_terms(pos, xs, ts, hmass)
    h_sq = h_const**2
    intervals = list(intervals)
    ranges = [sigma.index_range(gi) for gi in intervals]
    lefts = np.array([gi.left_f for gi in intervals])
    rights = np.array([gi.right_f for gi in intervals])
    boxes = (xs >= lefts[:, None]) & (xs < rights[:, None]) & (ts <= (rights - lefts)[:, None])

    def _ratio(lhs, rhs):
        if rhs > 0.0:
            return lhs / rhs
        return 0.0 if lhs == 0.0 else math.inf

    def _forward(lo, hi):
        fwd_lhs = 0.0
        if hp.n_atoms and hi > lo:
            fwd_lhs = float(np.sum(ext[:, lo:hi].sum(axis=1) ** 2 * hmass))
        fwd_rhs = h_sq * range_sum(sigma.masses[lo:hi])
        return fwd_lhs, fwd_rhs

    def _dual(mask):
        if not mask.any():
            return 0.0, 0.0
        dual_rhs_raw = float(np.sum(ts[mask] ** 2 * hmass[mask]))
        dual_lhs = 0.0
        if sigma.n_atoms:
            dp = np.ascontiguousarray(dual[:, mask]).sum(axis=1)
            dual_lhs = float(np.sum(smass * dp**2))
        return dual_lhs, dual_rhs_raw

    forward = {r: _forward(*r) for r in dict.fromkeys(ranges)}
    keys = [mask.tobytes() for mask in boxes]
    duals = {key: _dual(mask) for key, mask in dict(zip(keys, boxes)).items()}
    out: list[PoissonTestResult] = []
    for r, key in zip(ranges, keys):
        fwd_lhs, fwd_rhs = forward[r]
        dual_lhs, dual_rhs_raw = duals[key]
        dual_rhs = a2_const * dual_rhs_raw
        out.append(
            PoissonTestResult(
                fwd_lhs,
                fwd_rhs,
                _ratio(fwd_lhs, fwd_rhs),
                dual_lhs,
                dual_rhs,
                _ratio(dual_lhs, dual_rhs),
                fwd_rhs == 0.0 or dual_rhs == 0.0,
            )
        )
    return out


def poisson_local_comparison(
    j: GridInterval,
    i: GridInterval,
    i0: GridInterval,
    sigma: AtomicMeasure,
    eps: float,
) -> tuple[float, float]:
    """Both sides of |J|^(2 eps - 1) P(sigma (I0 - I), J) <~ |I|^(2 eps - 1) P(..., I).

    The caller guarantees j is good and strictly below i; containment is
    checked here.
    """
    if not (i.contains(j) and j.level > i.level):
        raise PreconditionViolation("j must be strictly inside i")
    if not i0.contains(i):
        raise PreconditionViolation("i must lie inside i0")
    holes = sigma.restrict(i0).restrict_complement(i)
    lhs = j.length_f ** (2 * eps - 1) * poisson_stationary(holes, j)
    rhs = i.length_f ** (2 * eps - 1) * poisson_stationary(holes, i)
    return lhs, rhs
