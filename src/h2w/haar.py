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
occupied node lists are masks on it, each with its rows' keys, kept in
the grid's memo so that they are freed with the grid, and the
nodes of a list inside a grid interval are one run, found by bisecting
those keys (:func:`_run`).  Every question about the grid intervals
inside a top interval (the stop tests, bounded averages and uniformity in
``corona``) reads the rows of such a table; there is no other grid walk.
The energy trunk (:func:`_trunk_table`) is built from the charged list,
with each row's child rows for the energy DP.

Every sum over the atoms of a node is taken over those atoms alone and
correctly rounded (:func:`~h2w.measure.range_sum`), in Python floats, not
with a numpy call per node, so no atom outside the node moves it.

A projection sums one :func:`_differences` pass by a key per node
(:func:`_keyed_differences`): goodness, or the minimal stopping member.
Each key's sum is one list of Python floats, to which every node adds its
two differences atom by atom, in node order.  Goodness is tested once per
splitting node of a measure at (eps, r): the good nodes
(:func:`good_nodes`) are kept in the grid's memo beside the node lists, and
the good projection and the half-plane families
(``poisson.default_j_families``) walk them.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple, Sequence

import math

import numpy as np

from .errors import PreconditionViolation, ZeroMass
from .grid import DyadicGrid, GridInterval, check_table_size, is_good, kept_with_grid
from .measure import AtomicMeasure, range_sum, range_sums

__all__ = [
    "WeightedFunction",
    "HaarCoefficients",
    "expectation",
    "haar_function",
    "martingale_difference",
    "expand",
    "reconstruct",
    "good_projection",
    "good_nodes",
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
    if hi == lo:
        raise ZeroMass(f"interval {i!r} carries no mass")
    fm = f.values[lo:hi] * f.base.masses_f[lo:hi]
    return range_sum(fm.tolist()) / range_sum(f.base.masses[lo:hi])


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


def _cut(
    pos: Sequence[float] | np.ndarray, grid: DyadicGrid, level: int, index: int, lo: int, hi: int
) -> int:
    """First atom of [lo, hi) in the right child of grid interval (level, index)."""
    return bisect_left(pos, grid.endpoint_f(level + 1, 2 * index + 1), lo, hi)


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

    PairTooLarge before anything is built when the table cannot fit
    (:func:`~h2w.grid.check_table_size`).
    """
    depth = grid.depth
    check_table_size(sum(mu.n_atoms for mu in mus), depth)
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
    root.  Only the tables of the last few pairs are kept: the node lists,
    which live in the grid's memo for as long as the grid does (a whole
    ``verify`` run for an ensemble pair), do not hold theirs."""
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


@kept_with_grid
def splitting_nodes(mu: AtomicMeasure, grid: DyadicGrid) -> NodeList:
    """All grid intervals whose two halves both carry mass, with atom ranges:
    the charged nodes that split, the same _Node objects.  Built once per
    grid and kept in its memo, as the charged and occupied lists are, so
    that a pair's lists are freed with its grid."""
    charged = charged_nodes(mu, grid)
    keep = [k for k, n in enumerate(charged) if n.lo < n.cut < n.hi]
    nodes = NodeList(charged[k] for k in keep)
    keys = [charged.keys[k] for k in keep]
    nodes.keys = keys if isinstance(charged.keys, list) else array("q", keys)
    return nodes


@kept_with_grid
def charged_nodes(mu: AtomicMeasure, grid: DyadicGrid) -> NodeList:
    """All grid intervals holding at least two atoms (the dispersion trunk)."""
    t = node_table(mu, grid)
    return _node_list(t, t.hi[0] - t.lo[0] >= 2)


@kept_with_grid
def occupied_nodes(mu: AtomicMeasure, grid: DyadicGrid) -> NodeList:
    """All grid intervals holding at least one atom."""
    t = node_table(mu, grid)
    return _node_list(t, np.ones(len(t), dtype=bool))


@dataclass(frozen=True)
class _TrunkTable:
    """The w-dispersion trunk of one (w, grid): the charged nodes of w in
    pre-order, their endpoint floats, E(w, I)^2 and E(w, I)^2 w(I) of each,
    the end of each node's pre-order subtree run, and the rows of each
    node's left and right children in ``kids``, ``len(nodes)`` for a child
    that is no trunk node."""

    nodes: tuple
    left: np.ndarray
    right: np.ndarray
    e2: np.ndarray
    e2w: np.ndarray
    end: np.ndarray
    kids: tuple[list, list]


@kept_with_grid
def _trunk_table(w: AtomicMeasure, grid: DyadicGrid) -> _TrunkTable:
    """The :class:`_TrunkTable` of w on ``grid``, built once per grid from
    the node table of w and kept in the grid's memo."""
    table = node_table(w, grid)
    rows = np.flatnonzero(table.hi[0] - table.lo[0] >= 2)
    left, right = (ends[rows] for ends in _endpoints(table, grid))
    length = right - left
    e2, mass = _energies(w, table.lo[0, rows], table.hi[0, rows], length * length)
    end = np.searchsorted(rows, table.end[rows])
    nodes = charged_nodes(w, grid)
    row = {n[:2]: t for t, n in enumerate(nodes)}
    kids = tuple(
        [row.get((n.level + 1, 2 * n.index + side), len(nodes)) for n in nodes] for side in (0, 1)
    )
    return _TrunkTable(nodes, left, right, e2, e2 * mass, end, kids)


def _energies(
    w: AtomicMeasure, lo: np.ndarray, hi: np.ndarray, length_sq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """E(w, I)^2 and w(I) of each atom range [lo, hi), at least two atoms,
    with |I|^2 = ``length_sq``: twice the w-variance of position over the
    range, divided by |I|^2.  One Python pass per range, and one numpy
    division by |I|^2 at the end, which gives numpy's infinity or NaN on a
    zero |I|^2 (the masses are positive, so no other divisor is zero)."""
    m, x = w.masses, w.positions_f.tolist()
    two_var, masses = [], []
    for a, b in zip(lo.tolist(), hi.tolist()):
        ma, xa = m[a:b], x[a:b]
        mass = range_sum(ma)
        mean = range_sum([p * c for p, c in zip(xa, ma)]) / mass
        var = range_sum([(d := p - mean) * d * c for p, c in zip(xa, ma)]) / mass
        two_var.append(2.0 * var)
        masses.append(mass)
    return np.array(two_var, dtype=float) / length_sq, np.array(masses, dtype=float)


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


def _ranges(nodes) -> tuple[list, list, list]:
    """The atom indices lo, cut and hi of each node, as three lists."""
    return [n.lo for n in nodes], [n.cut for n in nodes], [n.hi for n in nodes]


def _amplitudes(mu: AtomicMeasure, lo, cut, hi) -> tuple[list, list, list]:
    """The masses of the halves [lo, cut) and [cut, hi) of each node, each
    summed over its own atoms, and the node's Haar amplitude
    sqrt(m- m+ / (m- + m+)); both halves must be charged."""
    m_left, m_right = range_sums(mu.masses, lo, cut), range_sums(mu.masses, cut, hi)
    amp = [math.sqrt(a * b / (a + b)) for a, b in zip(m_left, m_right)]
    return m_left, m_right, amp


def haar_function(i: GridInterval, mu: AtomicMeasure) -> WeightedFunction | None:
    """The L2(mu)-normalized Haar function on i, or None if a half is uncharged."""
    lo, cut, hi = _split(mu, i)
    if not lo < cut < hi:
        return None
    (m_left,), (m_right,), (amp,) = _amplitudes(mu, [lo], [cut], [hi])
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
    values = np.zeros(mu.n_atoms)
    if lo < cut < hi:
        (d_left,), (d_right,) = _differences(f, [_Node(i.level, i.index, lo, hi, cut)])
        values[lo:cut] = d_left
        values[cut:hi] = d_right
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
    fm = (f.values * mu.masses_f).tolist()
    lo, cut, hi = _ranges(nodes)
    halves = zip(range_sums(fm, lo, cut), range_sums(fm, cut, hi), *_amplitudes(mu, lo, cut, hi))
    coeffs = {
        (n.level, n.index): amp * (f_right / m_right - f_left / m_left)
        for n, (f_left, f_right, m_left, m_right, amp) in zip(nodes, halves)
    }
    node_map = {(n.level, n.index): n for n in nodes}
    root_mean = range_sum(fm) / mu.total_mass
    return HaarCoefficients(grid, mu, root_mean, coeffs, node_map)


def reconstruct(hc: HaarCoefficients) -> WeightedFunction:
    """Sum the root mean and all coefficient * Haar terms back to atom values."""
    mu = hc.base
    values = np.full(mu.n_atoms, hc.root_mean)
    nodes = [hc._nodes[key] for key in hc.coeffs]
    halves = zip(hc.coeffs.values(), *_amplitudes(mu, *_ranges(nodes)))
    for n, (c, m_left, m_right, amp) in zip(nodes, halves):
        values[n.lo : n.cut] += c * (-amp / m_left)
        values[n.cut : n.hi] += c * (amp / m_right)
    return WeightedFunction(mu, values)


def _differences(f: WeightedFunction, nodes) -> tuple[list, list]:
    """E_{I-} f - E_I f and E_{I+} f - E_I f for each splitting node I: the
    martingale difference of f at I on each half.  Every average is the sum
    of f times the masses over its own atoms, over theirs."""
    m = f.base.masses
    fm = (f.values * f.base.masses_f).tolist()
    lo, cut, hi = _ranges(nodes)

    def means(a, b):
        return [s / t for s, t in zip(range_sums(fm, a, b), range_sums(m, a, b))]

    e_full = means(lo, hi)
    d_left = [e - e0 for e, e0 in zip(means(lo, cut), e_full)]
    d_right = [e - e0 for e, e0 in zip(means(cut, hi), e_full)]
    return d_left, d_right


def _keyed_differences(f: WeightedFunction, nodes, key_of, keys) -> dict:
    """For each of ``keys``, the sum of the martingale differences of f at
    the splitting ``nodes`` whose ``key_of`` is that key, added in order
    from one :func:`_differences` pass; other nodes are left out.  Each sum
    is a list of Python floats until its one array is made."""
    sums = {key: [0.0] * f.base.n_atoms for key in keys}
    keyed = [(n, key) for n in nodes if (key := key_of(n)) in sums]
    kept = [n for n, _ in keyed]
    for (n, key), d_left, d_right in zip(keyed, *_differences(f, kept)):
        values = sums[key]
        for a in range(n.lo, n.cut):
            values[a] += d_left
        for a in range(n.cut, n.hi):
            values[a] += d_right
    return {key: np.array(values, dtype=float) for key, values in sums.items()}


@kept_with_grid
def good_nodes(mu: AtomicMeasure, grid: DyadicGrid, eps: float, r: int) -> tuple[_Node, ...]:
    """The splitting nodes of mu that are (eps, r)-good
    (:func:`~h2w.grid.is_good`), in pre-order: each node tested once per
    grid, and the nodes kept in the grid's memo."""
    nodes = splitting_nodes(mu, grid)
    return tuple(n for n in nodes if is_good(GridInterval(grid, n.level, n.index), eps, r))


def good_projection(f: WeightedFunction, grid: DyadicGrid, eps: float, r: int) -> WeightedFunction:
    """Sum of martingale differences over the good splitting intervals only."""
    sums = _keyed_differences(f, good_nodes(f.base, grid, eps, r), lambda n: True, (True,))
    return WeightedFunction(f.base, sums[True])


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
