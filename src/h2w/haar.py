"""Weighted Haar analysis on a dyadic grid.

A function in L2(mu) is represented by its values on the atoms of mu.  The
splitting intervals of a measure (grid intervals whose two halves both carry
mass) index the weighted Haar basis; an atomic measure has at most
``n_atoms - 1`` of them, so expansions stay sparse.

Martingale differences are stored in the three-averages form, which is zero
whenever a child is uncharged; on splitting intervals it agrees with the
coefficient-times-Haar form.

The split/charge structure of a measure on a grid is one :class:`NodeTable`
per (measure, grid), built with numpy from each atom's cell index at the
grid depth: the occupied grid intervals in pre-order with their atom
ranges, subtree ends and pre-order sort keys.  The splitting, charged and
occupied node lists are masks on it, each with its rows' keys, and the
nodes of a list inside a grid interval are one run, found by bisecting
those keys (:func:`_run`).  ``_descend`` keeps the grid walk as an
independent checker.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from typing import Callable, NamedTuple, Sequence

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
        lo, hi = self.base.index_range(i)
        v = np.zeros_like(self.values)
        v[lo:hi] = self.values[lo:hi]
        return WeightedFunction(self.base, v)


def inner(f: WeightedFunction, g: WeightedFunction) -> float:
    f._check_same_base(g)
    return float(np.sum(f.values * g.values * f.base.masses_f))


def expectation(f: WeightedFunction, i) -> float:
    """The normalized average of f over the interval; ZeroMass if uncharged."""
    lo, hi = f.base.index_range(i)
    mass = float(np.sum(f.base.masses_f[lo:hi]))
    if mass <= 0.0:
        raise ZeroMass(f"interval {_as_interval(i)} carries no mass")
    return float(np.sum(f.values[lo:hi] * f.base.masses_f[lo:hi])) / mass


# ---------------------------------------------------------------------------
# split/charge structure of a measure relative to a grid


class _Node(NamedTuple):
    """A grid interval of a node list, with the atom index range [lo, hi)
    of the measure in it; cut is the first atom in its right half (lo or hi
    when a half is empty, hi at the grid depth)."""

    level: int
    index: int
    lo: int
    hi: int
    cut: int


Ranges = tuple[tuple[int, int], ...]


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


@dataclass(frozen=True, eq=False)
class NodeTable:
    """The grid intervals holding an atom of one or more measures, one row
    each, in pre-order, left child first, on a grid of depth ``depth``.

    ``lo[m]``, ``cut[m]`` and ``hi[m]`` are the atom index ranges of the
    m-th measure: [lo, hi) in the interval, [cut, hi) in its right half
    (cut == hi at the grid depth).  ``end`` is the end of the row's
    pre-order subtree: the rows at or below row r are r, ..., end[r] - 1.
    ``key`` orders the rows as pre-order does, by left end on the
    depth-level lattice and then by level (:func:`_order_key`).  The
    endpoint floats and the parent rows, which only the stop tests read,
    come from :func:`_endpoints` and :func:`_parents`.
    """

    level: np.ndarray
    index: np.ndarray
    lo: np.ndarray
    cut: np.ndarray
    hi: np.ndarray
    end: np.ndarray
    key: np.ndarray
    depth: int

    def __len__(self) -> int:
        return len(self.level)

    def row(self, level: int, index: int) -> int | None:
        """The row of grid interval (level, index); None when it holds no atom."""
        key = _order_key(self.depth, level, index)
        r = int(self.key.searchsorted(key))
        return r if r < len(self) and self.key[r] == key else None


def _order_key(depth: int, level: int, index) -> int:
    """The pre-order sort key of grid interval (level, index) on a grid of
    the given depth: ``left * (depth + 1) + level``, left its left end on
    the depth-level lattice; ``index`` may be an array."""
    return (index << (depth - level)) * (depth + 1) + level


def _finest_endpoints(grid: DyadicGrid, k: np.ndarray) -> np.ndarray:
    """``grid.endpoint_f(grid.depth, j)`` for each j in ``k``, all at most
    2^depth.  Vectorised when every numerator of the depth-level lattice is
    below 2^53 and the denominator at most 2^1022, so that each quotient is
    exact, as the correctly rounded integer division is too."""
    n0, c, den = grid._lattice
    step = c << 1
    if k.dtype != object and abs(n0) + (step << grid.depth) < 1 << 53 and den <= 1 << 1022:
        return (n0 + k * step).astype(float) / den
    return np.array([(n0 + j * step) / den for j in k.tolist()], dtype=float)


def _finest_cells(x: np.ndarray, grid: DyadicGrid, dtype) -> np.ndarray:
    """The index k of the depth-level cell [e_k, e_k+1) holding each point
    of ``x``, all inside the grid root, e_k the endpoint floats: a float
    estimate, checked against both endpoints, and bisection where it
    misses."""
    depth = grid.depth
    n0, c, den = grid._lattice
    # the depth-level cell, a power of two, rounded (to 0.0 past the doubles)
    cell = (c << 1) / den
    if cell > 0.0:
        # x is at least the root's left end, so the quotient is not negative;
        # past 2^62 cells it is only a start for the bisection
        est = np.minimum(np.floor((x - n0 / den) / cell), min((1 << depth) - 1, 1 << 62))
    else:
        est = np.zeros(len(x))
    k = est.astype(np.int64) if dtype != object else np.array([int(v) for v in est.tolist()], dtype)
    ends = _finest_endpoints(grid, np.concatenate((k, k + 1)))
    miss = (x < ends[: len(k)]) | (x >= ends[len(k) :])
    if miss.any():
        low = np.zeros(int(miss.sum()), dtype=dtype)
        high = np.full(len(low), 1 << depth, dtype=dtype)
        xm = x[miss]
        for _ in range(depth):
            mid = (low + high) // 2
            right = _finest_endpoints(grid, mid) <= xm
            low, high = np.where(right, mid, low), np.where(right, high, mid)
        k[miss] = low
    return k


def _node_table(mus: tuple[AtomicMeasure, ...], grid: DyadicGrid) -> NodeTable:
    """The :class:`NodeTable` of the measures ``mus`` on ``grid``.

    Each atom inside the grid root gets the index of its cell at the grid
    depth, exactly, against the correctly rounded endpoint floats
    (``grid.endpoint_f``).  Its level-l node is that index shifted right by
    depth - l, since the level's endpoints are among the depth's.  The
    nodes are the distinct shifted indices of all atoms; each measure's
    atom ranges are ``searchsorted`` of the node's first cell index, so
    every range equals ``mu.index_range`` of the node's interval on every
    grid, shifted ones included, and no DyadicRational is built.  A subtree
    ends at the first node past its right end.  Atoms outside the grid root
    lie in no row.
    """
    depth = grid.depth
    # cell indices past 62 levels stay Python ints
    dtype = np.int64 if depth <= 62 else object
    root = np.array([grid.endpoint_f(0, 0), grid.endpoint_f(0, 1)])
    cells, offsets = [], []
    for mu in mus:
        lo, hi = mu.positions_f.searchsorted(root).tolist()
        cells.append(_finest_cells(mu.positions_f[lo:hi], grid, dtype))
        offsets.append(lo)
    union = cells[0] if len(cells) == 1 else np.sort(np.concatenate(cells))
    shift = np.arange(depth, -1, -1)
    per_level = union[:, None] >> shift
    # a node is new at the first atom in it; the nodes new at one atom start
    # after every earlier node and deepen with the level, so atom-major
    # order is pre-order
    first = np.empty(per_level.shape, dtype=bool)
    first[:1] = True
    np.not_equal(per_level[1:], per_level[:-1], out=first[1:])
    atom, level = first.nonzero()
    shift = shift[level]
    index = per_level[atom, level]
    at, at_end = index << shift, (index + 1) << shift
    # the right half starts half a width in; at the depth, where the half
    # width is 0, it is empty, so cut == hi
    keys = np.concatenate((at, at_end - ((at_end - at) >> 1), at_end))
    ranges = np.stack([c.searchsorted(keys) + o for c, o in zip(cells, offsets)])
    lo, cut, hi = ranges.reshape(len(mus), 3, -1).transpose(1, 0, 2)
    # sort keys past 63 bits stay Python ints
    wide = (1 << depth) * (depth + 1) > 1 << 63
    key = _order_key(depth, level, index.astype(object) if wide else index)
    return NodeTable(level, index, lo, cut, hi, at.searchsorted(at_end), key, depth)


def _endpoints(table: NodeTable, grid: DyadicGrid) -> tuple[np.ndarray, np.ndarray]:
    """The endpoint floats (left, right) of every row."""
    shift = grid.depth - table.level
    at = table.index << shift
    ends = _finest_endpoints(grid, np.concatenate((at, (table.index + 1) << shift)))
    return ends[: len(at)], ends[len(at) :]


def _parents(table: NodeTable, grid: DyadicGrid) -> np.ndarray:
    """The parent row of every row, -1 at the root.  The rows sharing a left
    end on the depth-level lattice are consecutive levels, so the parent
    (level - 1, index // 2) is found from the first row at its left end."""
    shift = grid.depth - table.level
    at = table.index << shift
    chain = np.searchsorted(at, (table.index >> 1) << (shift + 1))
    return np.where(table.level > 0, chain + table.level - 1 - table.level[chain], -1)


@lru_cache(maxsize=8)
def node_table(mu: AtomicMeasure, grid: DyadicGrid) -> NodeTable:
    """The :class:`NodeTable` of one measure, which must lie inside the grid
    root.  Only the tables in use are kept; the node lists, which are kept
    far longer, do not hold theirs."""
    table = _node_table((mu,), grid)
    if mu.n_atoms and (not len(table) or table.hi[0, 0] - table.lo[0, 0] != mu.n_atoms):
        raise PreconditionViolation("measure is not supported inside the grid root")
    return table


def _subtree(table: NodeTable, level: int, index: int) -> tuple[int, int]:
    """The table rows [r, end[r]) at or below grid interval (level, index);
    (0, 0) when it holds no atom."""
    r = table.row(level, index)
    return (0, 0) if r is None else (r, int(table.end[r]))


class NodeList(tuple):
    """A pre-order tuple of :class:`_Node` with the sort key of each node
    (``NodeTable.key``), which :func:`_run` bisects."""

    keys: array | list


def _run(nodes: NodeList, grid: DyadicGrid, level: int, index: int) -> tuple[int, int]:
    """The run [start, end) of the nodes at or below grid interval (level,
    index) in a node list on ``grid``: pre-order, left child first, sorts
    the nodes by their keys, so the run is contiguous, from the interval's
    own key to the least key at its right end; it is empty when the
    interval holds no node of the list."""
    depth = grid.depth
    return (
        bisect_left(nodes.keys, _order_key(depth, level, index)),
        bisect_left(nodes.keys, _order_key(depth, level, index + 1) - level),
    )


def _node_list(table: NodeTable, mask: np.ndarray) -> NodeList:
    """The nodes of the masked table rows, in pre-order."""
    rows = np.flatnonzero(mask)
    columns = np.stack((table.level, table.index, table.lo[0], table.hi[0], table.cut[0]))[:, rows]
    # tuple.__new__ makes each _Node from its row tuple in C
    nodes = NodeList(map(tuple.__new__, repeat(_Node), zip(*columns.tolist())))
    keys = table.key[rows].tolist()
    nodes.keys = keys if table.key.dtype == object else array("q", keys)
    return nodes


@lru_cache(maxsize=1024)
def splitting_nodes(mu: AtomicMeasure, grid: DyadicGrid) -> NodeList:
    """All grid intervals whose two halves both carry mass, with atom ranges:
    the charged nodes that split, the same _Node objects."""
    charged = charged_nodes(mu, grid)
    keep = [k for k, n in enumerate(charged) if n.lo < n.cut < n.hi]
    nodes = NodeList(charged[k] for k in keep)
    keys = [charged.keys[k] for k in keep]
    nodes.keys = keys if isinstance(charged.keys, list) else array("q", keys)
    return nodes


@lru_cache(maxsize=1024)
def charged_nodes(mu: AtomicMeasure, grid: DyadicGrid) -> NodeList:
    """All grid intervals holding at least two atoms (the dispersion trunk)."""
    t = node_table(mu, grid)
    return _node_list(t, t.hi[0] - t.lo[0] >= 2)


@lru_cache(maxsize=1024)
def occupied_nodes(mu: AtomicMeasure, grid: DyadicGrid) -> NodeList:
    """All grid intervals holding at least one atom."""
    t = node_table(mu, grid)
    return _node_list(t, np.ones(len(t), dtype=bool))


# ---------------------------------------------------------------------------
# Haar functions and expansions


def _split(mu: AtomicMeasure, i: GridInterval) -> tuple[int, int, int]:
    """Atom indices (lo, cut, hi): [lo, cut) in the left half of i and
    [cut, hi) in the right, cut as the node lists cut; a depth-level cell
    does not split (cut == hi)."""
    lo, hi = mu.index_range(i)
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
    fm = np.concatenate(([0.0], np.cumsum(f.values * mu.masses_f)))
    mm = mu._mass_prefix
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
    mm = mu._mass_prefix
    values = np.full(mu.n_atoms, hc.root_mean)
    for key, c in hc.coeffs.items():
        n = hc._nodes[key]
        m_left = mm[n.cut] - mm[n.lo]
        m_right = mm[n.hi] - mm[n.cut]
        amp = math.sqrt(m_left * m_right / (m_left + m_right))
        values[n.lo : n.cut] += c * (-amp / m_left)
        values[n.cut : n.hi] += c * (amp / m_right)
    return WeightedFunction(mu, values)


def _half_differences(nodes, fm, mm) -> tuple[list, list]:
    d_left, d_right = [], []
    for n in nodes:
        m_left = mm[n.cut] - mm[n.lo]
        m_right = mm[n.hi] - mm[n.cut]
        e_full = (fm[n.hi] - fm[n.lo]) / (m_left + m_right)
        d_left.append((fm[n.cut] - fm[n.lo]) / m_left - e_full)
        d_right.append((fm[n.hi] - fm[n.cut]) / m_right - e_full)
    return d_left, d_right


def _differences(f: WeightedFunction, nodes) -> tuple[list, list]:
    """E_{I-} f - E_I f and E_{I+} f - E_I f for each splitting node I: the
    martingale difference of f at I on each half, from prefix sums of f and
    of the masses.  Python floats carry the same IEEE operations as numpy's,
    but raise on a zero divisor, which a half whose prefix masses cancel
    gives; then numpy's quotients are taken, as the scalar formula gives
    them."""
    fm = np.concatenate(([0.0], np.cumsum(f.values * f.base.masses_f)))
    mm = f.base._mass_prefix
    try:
        return _half_differences(nodes, fm.tolist(), mm.tolist())
    except ZeroDivisionError:
        return _half_differences(nodes, fm, mm)


def _accumulate_differences(f: WeightedFunction, nodes) -> np.ndarray:
    """Sum of martingale differences over the given splitting nodes."""
    values = np.zeros(f.base.n_atoms)
    if not nodes:
        return values
    for n, d_left, d_right in zip(nodes, *_differences(f, nodes)):
        values[n.lo : n.cut] += d_left
        values[n.cut : n.hi] += d_right
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
