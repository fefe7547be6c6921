"""Weighted Haar analysis on a dyadic grid.

A function in L2(mu) is represented by its values on the atoms of mu.  The
splitting intervals of a measure (grid intervals whose two halves both carry
mass) index the weighted Haar basis; an atomic measure has at most
``n_atoms - 1`` of them, so expansions stay sparse.

Martingale differences are stored in the three-averages form, which is zero
whenever a child is uncharged; on splitting intervals it agrees with the
coefficient-times-Haar form.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import math

import numpy as np

from .errors import PreconditionViolation, ZeroMass
from .grid import DyadicGrid, GridInterval, is_good
from .measure import AtomicMeasure, _as_interval

__all__ = [
    "WeightedFunction",
    "HaarCoefficients",
    "expectation",
    "haar_function",
    "martingale_difference",
    "expand",
    "reconstruct",
    "good_projection",
    "corona_projection",
    "absolute_haar_multiplier",
    "inner",
    "splitting_nodes",
    "charged_nodes",
    "occupied_nodes",
]


@dataclass(frozen=True)
class WeightedFunction:
    """Values on the atoms of a base measure; an element of L2(base)."""

    base: AtomicMeasure
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.base.n_atoms,):
            raise ValueError("values must align with the atoms of the base measure")
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, base: AtomicMeasure, c: float = 1.0) -> "WeightedFunction":
        return cls(base, np.full(base.n_atoms, float(c)))

    @classmethod
    def identity(cls, base: AtomicMeasure) -> "WeightedFunction":
        """The coordinate function x restricted to the atoms."""
        return cls(base, base.positions_f.copy())

    def norm_sq(self) -> float:
        return float(np.sum(self.values**2 * self.base.masses_f))

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def _check_same_base(self, other: "WeightedFunction"):
        if self.base != other.base:
            raise ValueError("functions live over different base measures")

    def __add__(self, other: "WeightedFunction") -> "WeightedFunction":
        self._check_same_base(other)
        return WeightedFunction(self.base, self.values + other.values)

    def __sub__(self, other: "WeightedFunction") -> "WeightedFunction":
        self._check_same_base(other)
        return WeightedFunction(self.base, self.values - other.values)

    def __mul__(self, c: float) -> "WeightedFunction":
        return WeightedFunction(self.base, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "WeightedFunction":
        return WeightedFunction(self.base, -self.values)

    def abs(self) -> "WeightedFunction":
        return WeightedFunction(self.base, np.abs(self.values))

    def restrict(self, i) -> "WeightedFunction":
        """Multiply by the indicator of the interval."""
        lo, hi = self.base.index_range(_as_interval(i))
        v = np.zeros_like(self.values)
        v[lo:hi] = self.values[lo:hi]
        return WeightedFunction(self.base, v)


def inner(f: WeightedFunction, g: WeightedFunction) -> float:
    f._check_same_base(g)
    return float(np.sum(f.values * g.values * f.base.masses_f))


def expectation(f: WeightedFunction, i) -> float:
    """The normalized average of f over the interval; ZeroMass if uncharged."""
    iv = _as_interval(i)
    lo, hi = f.base.index_range(iv)
    mass = float(np.sum(f.base.masses_f[lo:hi]))
    if mass <= 0.0:
        raise ZeroMass(f"interval {iv} carries no mass")
    return float(np.sum(f.values[lo:hi] * f.base.masses_f[lo:hi])) / mass


# ---------------------------------------------------------------------------
# split/charge structure of a measure relative to a grid


@dataclass(frozen=True)
class _Node:
    level: int
    index: int
    lo: int  # atom index range [lo, hi)
    hi: int
    cut: int  # first atom index in the right half (== lo or hi when one-sided)


Ranges = tuple[tuple[int, int], ...]


def _node_range(mu: AtomicMeasure, gi: GridInterval) -> tuple[int, int]:
    """``mu.index_range(gi.interval)`` from the exact endpoint floats."""
    grid, pos = gi.grid, mu.positions_f
    return (
        int(np.searchsorted(pos, grid.endpoint_f(gi.level, gi.index))),
        int(np.searchsorted(pos, grid.endpoint_f(gi.level, gi.index + 1))),
    )


def _node_mass(mu: AtomicMeasure, gi: GridInterval) -> float:
    """``mu.mass_on(gi.interval)`` without building the interval."""
    lo, hi = _node_range(mu, gi)
    return float(mu._mass_prefix[hi] - mu._mass_prefix[lo])


def _root_range(mu: AtomicMeasure, grid: DyadicGrid) -> tuple[int, int]:
    lo, hi = _node_range(mu, grid.root_interval)
    if hi - lo != mu.n_atoms:
        raise PreconditionViolation("measure is not supported inside the grid root")
    return lo, hi


def _cut(
    pos: Sequence[float] | np.ndarray, grid: DyadicGrid, level: int, index: int, lo: int, hi: int
) -> int:
    """First atom of [lo, hi) in the right child of grid interval (level, index)."""
    return bisect_left(pos, grid.endpoint_f(level + 1, 2 * index + 1), lo, hi)


def _descend(
    mus: tuple[AtomicMeasure, ...],
    grid: DyadicGrid,
    top: GridInterval,
    ranges: Ranges,
    visit: Callable[[int, int, Ranges], bool],
) -> None:
    """Walk the grid intervals at and below ``top``, pre-order, left child first.

    ``ranges[m]`` is the index range [lo, hi) of the atoms of ``mus[m]`` in
    ``top``.  ``visit(level, index, ranges)`` sees each node with its ranges
    and returns whether to walk into its children.  A node splits at the
    correctly rounded float of its exact midpoint, so every range equals
    ``mus[m].index_range`` of the node's interval on every grid, shifted ones
    included, and no DyadicRational is built.
    """
    positions = [mu.positions_f.tolist() for mu in mus]
    depth = grid.depth
    stack = [(top.level, top.index, ranges)]
    while stack:
        level, index, ranges = stack.pop()
        if not visit(level, index, ranges) or level >= depth:
            continue
        mid = grid.endpoint_f(level + 1, 2 * index + 1)
        cuts = [bisect_left(pos, mid, lo, hi) for pos, (lo, hi) in zip(positions, ranges)]
        stack.append((level + 1, 2 * index + 1, tuple([(c, hi) for c, (_, hi) in zip(cuts, ranges)])))
        stack.append((level + 1, 2 * index, tuple([(lo, c) for c, (lo, _) in zip(cuts, ranges)])))


def _nodes(mu: AtomicMeasure, grid: DyadicGrid, least: int) -> tuple[_Node, ...]:
    """The grid intervals holding at least ``least`` atoms, in pre-order."""
    if mu.n_atoms == 0:
        return ()
    pos = mu.positions_f.tolist()
    nodes: list[_Node] = []

    def visit(level: int, index: int, ranges: Ranges) -> bool:
        (lo, hi), = ranges
        if hi - lo < least:
            return False
        cut = hi if level >= grid.depth else _cut(pos, grid, level, index, lo, hi)
        nodes.append(_Node(level, index, lo, hi, cut))
        return True

    _descend((mu,), grid, grid.root_interval, (_root_range(mu, grid),), visit)
    return tuple(nodes)


def _run(nodes: tuple[_Node, ...], grid: DyadicGrid, level: int, index: int) -> tuple[int, int]:
    """The run [start, end) of the nodes at or below grid interval (level,
    index) in a pre-order node list.

    Pre-order, left child first, sorts nodes by left endpoint and then by
    level, so each subtree is one contiguous run, found by bisection.
    """

    def order(n: _Node) -> tuple[int, int]:
        return n.index << (grid.depth - n.level), n.level

    shift = grid.depth - level
    start = bisect_left(nodes, (index << shift, level), key=order)
    return start, bisect_left(nodes, ((index + 1) << shift, -1), key=order)


@lru_cache(maxsize=1024)
def splitting_nodes(mu: AtomicMeasure, grid: DyadicGrid) -> tuple[_Node, ...]:
    """All grid intervals whose two halves both carry mass, with atom ranges."""
    return tuple(n for n in charged_nodes(mu, grid) if n.lo < n.cut < n.hi)


@lru_cache(maxsize=1024)
def charged_nodes(mu: AtomicMeasure, grid: DyadicGrid) -> tuple[_Node, ...]:
    """All grid intervals holding at least two atoms (the dispersion trunk)."""
    return _nodes(mu, grid, 2)


@lru_cache(maxsize=1024)
def occupied_nodes(mu: AtomicMeasure, grid: DyadicGrid) -> tuple[_Node, ...]:
    """All grid intervals holding at least one atom."""
    return _nodes(mu, grid, 1)


# ---------------------------------------------------------------------------
# Haar functions and expansions


def _split(mu: AtomicMeasure, i: GridInterval) -> tuple[int, int, int]:
    """Atom indices (lo, cut, hi): [lo, cut) in the left half of i and
    [cut, hi) in the right, cut as the node lists cut; a depth-level cell
    does not split (cut == hi)."""
    lo, hi = _node_range(mu, i)
    if i.level >= i.grid.depth:
        return lo, hi, hi
    return lo, _cut(mu.positions_f, i.grid, i.level, i.index, lo, hi), hi


def haar_function(i: GridInterval, mu: AtomicMeasure) -> WeightedFunction | None:
    """The L2(mu)-normalized Haar function on i, or None if a half is uncharged."""
    lo, cut, hi = _split(mu, i)
    m = mu.masses_f
    m_left = float(np.sum(m[lo:cut]))
    m_right = float(np.sum(m[cut:hi]))
    if m_left <= 0.0 or m_right <= 0.0:
        return None
    amp = math.sqrt(m_left * m_right / (m_left + m_right))
    values = np.zeros(mu.n_atoms)
    values[lo:cut] = -amp / m_left
    values[cut:hi] = amp / m_right
    return WeightedFunction(mu, values)


def martingale_difference(f: WeightedFunction, i: GridInterval) -> WeightedFunction:
    """Averages form: 1_{I+} E_{I+} f + 1_{I-} E_{I-} f - 1_I E_I f.

    Zero when either half (or all of I) is uncharged, which keeps the
    telescoping identity exact without special cases.
    """
    mu = f.base
    lo, cut, hi = _split(mu, i)
    m = mu.masses_f
    values = np.zeros(mu.n_atoms)
    m_left = float(np.sum(m[lo:cut]))
    m_right = float(np.sum(m[cut:hi]))
    if m_left > 0.0 and m_right > 0.0:
        e_left = float(np.sum(f.values[lo:cut] * m[lo:cut])) / m_left
        e_right = float(np.sum(f.values[cut:hi] * m[cut:hi])) / m_right
        e_full = (m_left * e_left + m_right * e_right) / (m_left + m_right)
        values[lo:cut] = e_left - e_full
        values[cut:hi] = e_right - e_full
    return WeightedFunction(mu, values)


@dataclass(frozen=True)
class HaarCoefficients:
    """Sparse Haar data: root mean plus one coefficient per splitting interval."""

    grid: DyadicGrid
    base: AtomicMeasure
    root_mean: float
    coeffs: dict[tuple[int, int], float]
    _nodes: dict[tuple[int, int], _Node] = field(repr=False, default_factory=dict)

    def coefficient(self, i: GridInterval) -> float:
        return self.coeffs.get(i.key, 0.0)

    def norm_sq(self) -> float:
        """Parseval: squared norm from the coefficients and the root mean."""
        total = self.root_mean**2 * self.base.total_mass
        return total + sum(c * c for c in self.coeffs.values())


def expand(f: WeightedFunction, grid: DyadicGrid) -> HaarCoefficients:
    """Haar coefficients over all splitting intervals, plus the root mean."""
    mu = f.base
    if mu.n_atoms == 0:
        raise ZeroMass("cannot expand over an empty measure")
    nodes = splitting_nodes(mu, grid)
    m = mu.masses_f
    fm = np.concatenate(([0.0], np.cumsum(f.values * m)))
    mm = np.concatenate(([0.0], np.cumsum(m)))
    coeffs: dict[tuple[int, int], float] = {}
    node_map: dict[tuple[int, int], _Node] = {}
    for n in nodes:
        m_left = mm[n.cut] - mm[n.lo]
        m_right = mm[n.hi] - mm[n.cut]
        e_left = (fm[n.cut] - fm[n.lo]) / m_left
        e_right = (fm[n.hi] - fm[n.cut]) / m_right
        amp = math.sqrt(m_left * m_right / (m_left + m_right))
        key = (n.level, n.index)
        coeffs[key] = amp * (e_right - e_left)
        node_map[key] = n
    root_mean = fm[-1] / mm[-1]
    return HaarCoefficients(grid, mu, float(root_mean), coeffs, node_map)


def reconstruct(hc: HaarCoefficients) -> WeightedFunction:
    """Sum the root mean and all coefficient * Haar terms back to atom values."""
    mu = hc.base
    m = mu.masses_f
    mm = np.concatenate(([0.0], np.cumsum(m)))
    values = np.full(mu.n_atoms, hc.root_mean)
    for key, c in hc.coeffs.items():
        n = hc._nodes[key]
        m_left = mm[n.cut] - mm[n.lo]
        m_right = mm[n.hi] - mm[n.cut]
        amp = math.sqrt(m_left * m_right / (m_left + m_right))
        values[n.lo : n.cut] += c * (-amp / m_left)
        values[n.cut : n.hi] += c * (amp / m_right)
    return WeightedFunction(mu, values)


def _accumulate_differences(f: WeightedFunction, nodes) -> np.ndarray:
    """Sum of martingale differences over the given splitting nodes."""
    mu = f.base
    m = mu.masses_f
    fm = np.concatenate(([0.0], np.cumsum(f.values * m)))
    mm = np.concatenate(([0.0], np.cumsum(m)))
    values = np.zeros(mu.n_atoms)
    for n in nodes:
        m_left = mm[n.cut] - mm[n.lo]
        m_right = mm[n.hi] - mm[n.cut]
        e_left = (fm[n.cut] - fm[n.lo]) / m_left
        e_right = (fm[n.hi] - fm[n.cut]) / m_right
        e_full = (fm[n.hi] - fm[n.lo]) / (m_left + m_right)
        values[n.lo : n.cut] += e_left - e_full
        values[n.cut : n.hi] += e_right - e_full
    return values


def good_projection(f: WeightedFunction, grid: DyadicGrid, eps: float, r: int) -> WeightedFunction:
    """Sum of martingale differences over the good splitting intervals only."""
    nodes = [
        n
        for n in splitting_nodes(f.base, grid)
        if is_good(GridInterval(grid, n.level, n.index), eps, r)
    ]
    return WeightedFunction(f.base, _accumulate_differences(f, nodes))


def corona_projection(f: WeightedFunction, stopping, F: GridInterval) -> WeightedFunction:
    """Projection onto the corona of F: differences at intervals whose
    minimal containing stopping interval is F, read from the stopping
    data's pre-order grouping of the splitting nodes of ``f.base``."""
    if F.key not in stopping.member_keys:
        raise PreconditionViolation(f"{F} is not a member of the stopping family")
    nodes = stopping.corona_nodes(f.base).get(F.key, ())
    return WeightedFunction(f.base, _accumulate_differences(f, nodes))


def absolute_haar_multiplier(g: WeightedFunction, grid: DyadicGrid) -> WeightedFunction:
    """Flip every Haar coefficient positive; the root mean is dropped.

    For mean-zero input this is an isometry on L2(base).
    """
    hc = expand(g, grid)
    flipped = HaarCoefficients(
        hc.grid,
        hc.base,
        0.0,
        {k: abs(c) for k, c in hc.coeffs.items()},
        hc._nodes,
    )
    return reconstruct(flipped)
