"""Stopping intervals, coronas, and the above/below bilinear forms.

The stopping construction starts from the top interval with the average of
|f| as its control value and descends: a maximal subinterval stops when its
Poisson-energy product passes the threshold 10 c0 h^2 sigma(I), or when the
average of |f| grows tenfold; control values refresh only when the average
at least doubles.  The resulting family packs with Carleson constant 2.

The stop tests run on the joint (sigma, w) node table (``haar.NodeTable``,
:func:`_stop_table`), not on walks: the energy-stopping test on its rows
below the top interval that hold two w atoms, the stopping construction on
its rows that a descent from a member reaches.  Each test is one
vectorised pass whose Poisson sums are ``poisson._poisson_sums``; the
maximal hits are kept in pre-order by jumping over each hit's subtree.  A
GridInterval is built only for a returned member or a named violation.  The
bounded-averages constant and the uniformity check's bounded-averages
clause read the same rows: those at or below a top interval, less the
subtrees of a family (:func:`_rows_outside`), with the average of |f| on
each summed over its own atoms (:func:`_abs_averages`).

sigma is read from the function a construction is built for (``f.base``)
and the grid from its top interval (``i0.grid``, ``stopping.root.grid``),
so a node table and the atom ranges are always read on the same grid.

:func:`corona_pieces` decomposes a function in one pass, each splitting
node into the piece of its minimal member (``grid.minimal_member``).  The
bilinear form takes every node's differences at once, skips a source node
whose differences both vanish, and visits under each other source node only
the pre-order run of target nodes inside it (``haar._run``), in the order of
the full double loop.  Each (I, J) pairing is a correctly rounded sum over
the atoms of J of the kernel's column sums over the sigma atoms of I's
child, read from the pair's :func:`_form_columns`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import AtomCollision, PreconditionViolation
from .grid import DyadicGrid, GridInterval, minimal_member
from .haar import (
    NodeTable,
    WeightedFunction,
    _differences,
    _endpoints,
    _keyed_differences,
    _node_table,
    _parents,
    _run,
    _subtree,
    _trunk_table,
    node_table,
    splitting_nodes,
)
from .hilbert import hilbert_pairing
from .measure import AtomicMeasure, range_sum, range_sums
from .params import DEFAULT_C0
from .poisson import _poisson_sums

__all__ = [
    "StoppingData",
    "UniformitySpec",
    "energy_stopping_intervals",
    "calibrate_c0",
    "build_stopping_data",
    "carleson_check",
    "corona_pieces",
    "quasi_norm",
    "uniformity_check",
    "b_above",
    "corona_split",
    "reduction_residual",
    "ReductionResidual",
    "local_estimate_ratios",
]


@dataclass(frozen=True)
class StoppingData:
    """The stopping family with control values and trigger tags."""

    root: GridInterval
    members: tuple[GridInterval, ...]
    alpha: dict
    reason: dict
    children: dict

    @cached_property
    def member_keys(self) -> frozenset:
        return frozenset(m.key for m in self.members)

    def pi_key(self, level: int, index: int) -> tuple[int, int] | None:
        """(level, index) of the minimal member containing grid interval
        (level, index), itself when it is a member; None outside the family."""
        return minimal_member(self.member_keys, level, index)

    def family_children(self, F: GridInterval) -> tuple[GridInterval, ...]:
        return self.children.get(F.key, ())


@dataclass(frozen=True)
class UniformitySpec:
    """Top interval, a disjoint exceptional family inside it, and the
    energy-threshold scale."""

    i0: GridInterval
    s_family: tuple[GridInterval, ...]
    c0: float = DEFAULT_C0

    def __post_init__(self):
        for s in self.s_family:
            if not self.i0.contains(s):
                raise ValueError(f"{s} is not inside {self.i0}")
        items = sorted(self.s_family, key=lambda g: (g.level, g.index))
        for a in range(len(items)):
            for b in range(a + 1, len(items)):
                if items[a].contains(items[b]) or items[b].contains(items[a]):
                    raise ValueError("s_family must be pairwise disjoint")


# ---------------------------------------------------------------------------
# energy stopping


# rows x atoms per block of a vectorised stop test
_STOP_BLOCK = 1 << 14


def _rows_outside(table: NodeTable, top: GridInterval, family) -> np.ndarray:
    """The rows of ``table`` at or below ``top``, less the subtree of each
    member of ``family``, in pre-order."""
    start, end = _subtree(table, top.level, top.index)
    keep = np.ones(end - start, dtype=bool)
    for s in family:
        a, b = _subtree(table, s.level, s.index)
        keep[a - start : b - start] = False
    return np.arange(start, end)[keep]


def _abs_averages(f: WeightedFunction, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The average of |f| over sigma = ``f.base`` on each atom range
    [lo, hi): the sum of |f| sigma over its own atoms, over theirs; 0 on an
    empty range.  Nested rows often hold the same atoms, so each distinct
    range is summed once."""
    n = f.base.n_atoms + 1
    keys, at = np.unique(lo * n + hi, return_inverse=True)
    lo, hi = (keys // n).tolist(), (keys % n).tolist()
    fm = (np.abs(f.values) * f.base.masses_f).tolist()
    sums = zip(range_sums(fm, lo, hi), range_sums(f.base.masses, lo, hi))
    return np.array([s / t if t > 0.0 else 0.0 for s, t in sums], dtype=float)[at]


def _energy_sides(
    columns: tuple[np.ndarray, ...],
    rows: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    sigma: AtomicMeasure,
    top: tuple[int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the energy-stopping test of the table ``rows``, which
    stop where P(sigma_0, I)^2 E(w, I)^2 w(I) > threshold sigma_0(I), with
    sigma_0 sigma's atoms ``top`` and [lo, hi) its atoms in each I; the left
    side is -inf, and sigma_0(I) 0, on a row with E^2 w == 0, which never
    stops.  ``columns`` holds the table's left and right endpoint floats and
    E(w, I)^2 w(I).  sigma_0(I) is summed over the row's own atoms, as
    ``sigma.restrict(top).mass_on(I)`` sums it.  P is
    ``poisson._poisson_sums`` of sigma_0, in blocks of at most
    :data:`_STOP_BLOCK` entries.
    """
    left, right, e2w = columns
    lo0, hi0 = top
    pos, mass = sigma.positions_f[lo0:hi0], sigma.masses_f[lo0:hi0]
    lhs = np.full(len(rows), -np.inf)
    sigma_mass = np.zeros(len(rows))
    live = np.flatnonzero(e2w[rows] != 0.0)
    sigma_mass[live] = range_sums(sigma.masses, lo[live].tolist(), hi[live].tolist())
    step = max(1, _STOP_BLOCK // max(1, len(pos)))
    with np.errstate(all="ignore"):
        for start in range(0, len(live), step):
            k = live[start : start + step]
            r = rows[k]
            p = _poisson_sums(left[r], right[r], pos, mass)
            lhs[k] = p * p * e2w[r]
    return lhs, sigma_mass


def _energy_stops(i0: GridInterval, sigma: AtomicMeasure, w: AtomicMeasure, h_const: float):
    """The joint table on i0's grid and a function from a threshold to the
    maximal rows strictly below i0 that energy-stop at it, in pre-order; both
    sides of each row's test (:meth:`_StopTable.energy_sides`, sigma_0 =
    sigma on i0) are read from the table's memo of i0's row."""
    if h_const <= 0:
        raise PreconditionViolation("h_const must be positive")
    table = _stop_table(sigma, w, i0.grid)
    t = table.nodes
    start, end = _subtree(t, i0.level, i0.index)
    rows = np.arange(start + 1, end)
    # an i0 that holds no atom is no row and has none below it
    lhs, sigma_mass = table.energy_sides(start, sigma) if end else (np.empty(0), np.empty(0))

    def stops(threshold: float) -> list[int]:
        with np.errstate(all="ignore"):
            hits = lhs > threshold * sigma_mass
        out: list[int] = []
        stop = 0
        for r in rows[hits].tolist():
            if r >= stop:
                out.append(r)
                stop = t.end[r].item()
        return out

    return t, stops


def energy_stopping_intervals(
    i0: GridInterval, sigma: AtomicMeasure, w: AtomicMeasure, h_const: float, c0: float
) -> list[GridInterval]:
    """Maximal intervals of i0's grid strictly inside i0 whose Poisson-energy
    product strictly exceeds 10 c0 h^2 sigma(I); children of selected
    intervals are not descended into.

    Only intervals holding two w atoms can stop, so the test runs on the
    rows of the joint (sigma, w) table below i0 (:func:`_stop_table`), P
    taken of sigma restricted to i0 and sigma(I) read from that
    restriction's own atoms (as ``sigma.restrict(i0).mass_on(I)`` sums
    it); the maximal hits are kept in
    pre-order by jumping over each hit's subtree.
    """
    t, stops = _energy_stops(i0, sigma, w, h_const)
    chosen = stops(10.0 * c0 * (h_const * h_const))
    return [GridInterval(i0.grid, t.level[r].item(), int(t.index[r])) for r in chosen]


def calibrate_c0(
    i0: GridInterval,
    sigma: AtomicMeasure,
    w: AtomicMeasure,
    h_const: float,
    start: float = DEFAULT_C0,
) -> float:
    """Smallest doubling of ``start`` at which the mass that
    :func:`energy_stopping_intervals` selects drops to sigma(i0)/10.  The
    selected union shrinks as c0 grows, so this ends.  Each doubling
    compares the same two sides of each row's test."""
    t, stops = _energy_stops(i0, sigma, w, h_const)
    budget = sigma.mass_on(i0) / 10.0
    m = sigma.masses
    c0 = start
    for _ in range(200):
        chosen = stops(10.0 * c0 * (h_const * h_const))
        ranges = zip(t.lo[0, chosen].tolist(), t.hi[0, chosen].tolist())
        if range_sum([x for a, b in ranges for x in m[a:b]]) <= budget:
            return c0
        c0 *= 2.0
    raise RuntimeError("energy-stopping calibration did not settle")


# ---------------------------------------------------------------------------
# stopping data


@dataclass(frozen=True)
class _StopTable:
    """The grid intervals holding an atom of sigma or w (their joint
    :class:`~h2w.haar.NodeTable`, sigma first), with each row's endpoint
    floats and parent row, whether the parent holds two atoms, and the
    energy-test column of the rows holding two w atoms, which are the w
    trunk rows in the trunk's own pre-order: E(w, I)^2 w(I), zero on every
    other row.  The two sides of the energy-stopping test below a top row
    are formed once per top row (:meth:`energy_sides`)."""

    nodes: NodeTable
    left: np.ndarray
    right: np.ndarray
    parent: np.ndarray
    reached: np.ndarray
    e2w: np.ndarray
    _sides: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def energy_sides(self, top: int, sigma: AtomicMeasure) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_energy_sides` of every row strictly below row ``top``,
        with sigma_0 the atoms of the table's sigma in ``top``; built once
        per top row.  Each row's sides come from its own row sum and its
        own atoms, so a subset of them has the bits of a call on that
        subset alone."""
        got = self._sides.get(top)
        if got is None:
            t = self.nodes
            rows = np.arange(top + 1, t.end[top])
            columns = (self.left, self.right, self.e2w)
            top_atoms = t.lo[0, top].item(), t.hi[0, top].item()
            got = _energy_sides(columns, rows, t.lo[0, rows], t.hi[0, rows], sigma, top_atoms)
            self._sides[top] = got
        return got


@lru_cache(maxsize=8)
def _stop_table(sigma: AtomicMeasure, w: AtomicMeasure, grid: DyadicGrid) -> _StopTable:
    """The :class:`_StopTable` of (sigma, w) on ``grid``, built once per
    pair; only the pairs in use are kept, as each table is a few times the
    size of a measure's node lists."""
    # the w-dispersion trunk needs w inside the grid root
    trunk = _trunk_table(w, grid)
    nodes = _node_table((sigma, w), grid)
    left, right = _endpoints(nodes, grid)
    on = nodes.hi[1] - nodes.lo[1] >= 2
    e2w = np.zeros(len(nodes))
    e2w[on] = trunk.e2w
    parent = _parents(nodes, grid)
    # a descent from any ancestor reaches the rows whose parent holds two atoms
    reached = (nodes.hi - nodes.lo).sum(axis=0)[parent] >= 2
    return _StopTable(nodes, left, right, parent, reached, e2w)


def build_stopping_data(
    f: WeightedFunction, i0: GridInterval, w: AtomicMeasure, h_const: float, c0: float
) -> StoppingData:
    """Stopping family for f over sigma = ``f.base``, on i0's grid: start at
    i0 with the average of |f|; stop at maximal descendants that
    energy-stop or whose average of |f| reaches ten times the control value;
    refresh the control value only when the average at least doubles.

    Below a member F the candidates are the rows of the joint (sigma, w)
    table that a descent from F reaches: F's children, and every row whose
    parent holds two atoms of sigma and w together.  Both tests run on all
    of them at once; the maximal hits are kept in pre-order by jumping over
    each hit's subtree.
    """
    if not h_const > 0:
        raise PreconditionViolation("h_const must be positive")
    if f.norm() == 0.0:
        raise PreconditionViolation("f must be nonzero")
    sigma, grid = f.base, i0.grid
    lo0, hi0 = sigma.index_range(i0)
    if hi0 - lo0 == 0:
        raise PreconditionViolation("f must be supported on i0")
    table = _stop_table(sigma, w, grid)
    t = table.nodes
    # the average of |f| on every row, 0 on a row of no sigma mass
    avg = _abs_averages(f, t.lo[0], t.hi[0])
    threshold = 10.0 * c0 * (h_const * h_const)

    members: list[GridInterval] = [i0]
    row: dict = {i0.key: t.row(i0.level, i0.index)}
    alpha: dict = {i0.key: avg[row[i0.key]]}
    reason: dict = {i0.key: "root"}
    children: dict = {}

    def find_children(F: GridInterval, aF: float) -> list[GridInterval]:
        top = row[F.key]
        rows = np.arange(top + 1, t.end[top])
        below = np.flatnonzero(table.reached[rows] | (table.parent[rows] == top))
        rows = rows[below]
        lhs, sigma_mass = table.energy_sides(top, sigma)
        with np.errstate(all="ignore"):
            energy = lhs[below] > threshold * sigma_mass[below]
        hits = energy.copy()
        if aF > 0:
            hits |= avg[rows] >= 10.0 * aF
        found: list[GridInterval] = []
        stop = 0
        for k in np.flatnonzero(hits).tolist():
            r = rows[k].item()
            if r < stop:
                continue
            stop = t.end[r].item()
            gi = GridInterval(grid, t.level[r].item(), int(t.index[r]))
            found.append(gi)
            row[gi.key] = r
            reason[gi.key] = "energy" if energy[k] else "average"
        return found

    stack = [i0]
    while stack:
        F = stack.pop()
        aF = alpha[F.key]
        kids = find_children(F, aF)
        children[F.key] = tuple(kids)
        for child in kids:
            a_child = avg[row[child.key]]
            alpha[child.key] = aF if a_child < 2.0 * aF else a_child
            members.append(child)
            stack.append(child)
    members_sorted = tuple(
        sorted(members, key=lambda g: (g.level, g.index))
    )
    return StoppingData(i0, members_sorted, alpha, reason, children)


def carleson_check(stopping: StoppingData, sigma: AtomicMeasure) -> float:
    """Max over members S of (sum of sigma(F) over members F inside S) / sigma(S)."""
    return _carleson_ratio(stopping.members, sigma)


def _carleson_ratio(members, sigma: AtomicMeasure) -> float:
    """Max over members S of (sum of sigma(F) over members F inside S) / sigma(S)."""
    masses = [sigma.mass_on(F) for F in members]
    worst = 0.0
    for S, s_mass in zip(members, masses):
        total = range_sum([m for F, m in zip(members, masses) if S.contains(F)])
        if s_mass > 0.0:
            worst = max(worst, total / s_mass)
        elif total > 0.0:
            return math.inf
    return worst


def quasi_norm(stopping: StoppingData, sigma: AtomicMeasure) -> float:
    """Exact sigma-norm of the overlapping sum of alpha(F) indicators."""
    acc = np.zeros(sigma.n_atoms)
    for F in stopping.members:
        lo, hi = sigma.index_range(F)
        acc[lo:hi] += stopping.alpha[F.key]
    return math.sqrt(float(np.sum(acc**2 * sigma.masses_f)))


# the slack of uniformity_check's clauses (2) and (3)
_UNIFORMITY_TOL = 1e-12


def uniformity_check(
    f: WeightedFunction, spec: UniformitySpec, w: AtomicMeasure, h_const: float
) -> tuple[bool, list[str]]:
    """The three uniformity clauses of f over sigma = ``f.base``, quantified
    over the intervals of i0's grid inside i0.

    (1) every energy-stopping interval of i0 sits inside some member of the
    exceptional family; (2) f is constant on each member; (3) the average of
    |f| is at most one on every charged grid interval not inside a member.
    Clause (3) reads sigma's rows of the joint (sigma, w) table that clause
    (1) builds, in pre-order, so a sigma atom outside the grid root is
    allowed, as in the clauses that read i0's atoms.
    """
    sigma, grid = f.base, spec.i0.grid
    violations: list[str] = []

    def inside_some_s(gi: GridInterval) -> bool:
        return any(s.contains(gi) for s in spec.s_family)

    for F in energy_stopping_intervals(spec.i0, sigma, w, h_const, spec.c0):
        if not inside_some_s(F):
            violations.append(f"energy stop {F} escapes the exceptional family")
    scale = max(1.0, float(np.max(np.abs(f.values))) if sigma.n_atoms else 1.0)
    for s in spec.s_family:
        lo, hi = sigma.index_range(s)
        if hi - lo >= 2:
            vals = f.values[lo:hi]
            if float(np.max(vals) - np.min(vals)) > _UNIFORMITY_TOL * scale:
                violations.append(f"f is not constant on {s}")
    t = _stop_table(sigma, w, grid).nodes
    rows = _rows_outside(t, spec.i0, spec.s_family)
    rows = rows[t.hi[0, rows] > t.lo[0, rows]]
    avg = _abs_averages(f, t.lo[0, rows], t.hi[0, rows])
    for k in np.flatnonzero(avg > 1.0 + _UNIFORMITY_TOL).tolist():
        gi = GridInterval(grid, t.level[rows[k]].item(), int(t.index[rows[k]]))
        violations.append(f"average of |f| on {gi} is {avg[k]:.6g} > 1")
    return (not violations), violations


# ---------------------------------------------------------------------------
# bilinear forms


class _FormColumns(dict):
    """The column sums over source atom ranges [lo, hi) of the kernel matrix
    M[i, k] = sigma_i / (y_i - x_k), by (lo, hi), each a list summed from
    ``M[lo:hi]`` on first use and kept for every later form of the pair."""

    def __init__(self, M: np.ndarray):
        super().__init__()
        self.M = M

    def __missing__(self, key: tuple[int, int]) -> list:
        lo, hi = key
        column = self[key] = self.M[lo:hi].sum(axis=0).tolist()
        return column


@lru_cache(maxsize=8)
def _form_columns(sigma: AtomicMeasure, w: AtomicMeasure, grid: DyadicGrid) -> _FormColumns:
    """The :class:`_FormColumns` that the forms from sigma to w on ``grid``
    read, with no kernel when a side has no splitting node, so that every
    such form is 0.  Built once per pair and direction at the first form;
    only the pairs in use are kept, as each holds n_sigma x n_w doubles."""
    if not (sigma.n_atoms and w.n_atoms):
        return _FormColumns(np.empty((0, 0)))
    if not splitting_nodes(sigma, grid) or not splitting_nodes(w, grid):
        return _FormColumns(np.empty((0, 0)))
    diffs = sigma.positions_f[:, None] - w.positions_f[None, :]
    if np.any(diffs == 0.0):
        raise AtomCollision("the measures share a position")
    return _FormColumns((1.0 / diffs) * sigma.masses_f[:, None])


def b_above(f: WeightedFunction, g: WeightedFunction, grid: DyadicGrid, below_gap: int) -> float:
    """The above-diagonal bilinear form; the below-diagonal form of (f, g)
    is ``b_above(g, f, ...)``.

    The sum over source-splitting I and target-splitting J at least
    ``below_gap`` levels below, of the value of the I-difference of f on the
    child containing J, times the raw-kernel pairing of that child against
    the J-difference of g.  Each pairing is the correctly rounded sum of
    (w_k d_J) c_k over the atoms k of J, c the kernel's column sums over
    the child's sigma atoms (:func:`_form_columns` of (f.base, g.base)).
    The caller supplies mean-zero functions with good Haar supports when
    the classical bounds are being instrumented.
    """
    C = _form_columns(f.base, g.base, grid)
    if C.M.size == 0:
        return 0.0
    s_nodes = splitting_nodes(f.base, grid)
    w_nodes = splitting_nodes(g.base, grid)
    s_left, s_right = _differences(f, s_nodes)
    w_left, w_right = _differences(g, w_nodes)
    wmass = g.base.masses
    total = 0.0
    for ni, e_left, e_right in zip(s_nodes, s_left, s_right):
        if e_left == 0.0 and e_right == 0.0:
            continue
        # the w nodes inside I are one pre-order run, met in the same order
        start, end = _run(w_nodes, grid, ni.level, ni.index)
        for t in range(start, end):
            nj = w_nodes[t]
            dl = nj.level - ni.level
            if dl < below_gap:
                continue
            if (nj.index >> (dl - 1)) & 1 == 0:
                slo, shi, dval = ni.lo, ni.cut, e_left
            else:
                slo, shi, dval = ni.cut, ni.hi, e_right
            if dval == 0.0 or shi == slo:
                continue
            col = C[slo, shi]
            d_left, d_right = w_left[t], w_right[t]
            terms = [(wmass[k] * d_left) * col[k] for k in range(nj.lo, nj.cut)]
            terms += [(wmass[k] * d_right) * col[k] for k in range(nj.cut, nj.hi)]
            total += dval * range_sum(terms)
    return total


def corona_pieces(
    f: WeightedFunction, stopping: StoppingData
) -> dict[tuple[int, int], WeightedFunction]:
    """Every member's corona piece of f, by key in the family's order: the
    sum of the martingale differences of f at the splitting nodes of
    ``f.base`` whose minimal member it is.  A node outside the family lands
    in no piece; a member with no node gets the zero piece."""
    nodes = splitting_nodes(f.base, stopping.root.grid)
    keys = [F.key for F in stopping.members]
    sums = _keyed_differences(f, nodes, lambda n: stopping.pi_key(n.level, n.index), keys)
    return {key: WeightedFunction(f.base, values) for key, values in sums.items()}


def corona_split(
    f: WeightedFunction,
    g: WeightedFunction,
    stopping: StoppingData,
    below_gap: int,
    *,
    above: float | None = None,
    pieces: tuple[dict, dict] | None = None,
) -> tuple[float, float]:
    """Diagonal corona part of the above form on the stopping family's grid,
    and the cross-corona rest.

    split_value sums the form over matching corona pieces of f and g
    (:func:`corona_pieces`); residual is b_above(f, g) minus that, so the
    two add back exactly.
    ``above``, when given, is that b_above(f, g) on the family's grid,
    already evaluated by the caller, and is not evaluated again; so are
    ``pieces``, the corona pieces of f and of g over ``stopping``.
    """
    grid = stopping.root.grid
    total = b_above(f, g, grid, below_gap) if above is None else above
    split_value = 0.0
    f_pieces, g_pieces = pieces or (corona_pieces(f, stopping), corona_pieces(g, stopping))
    for key, pf in f_pieces.items():
        qg = g_pieces[key]
        if np.any(pf.values != 0.0) and np.any(qg.values != 0.0):
            split_value += b_above(pf, qg, grid, below_gap)
    return split_value, total - split_value


@dataclass(frozen=True)
class ReductionResidual:
    inner_product: float
    b_above: float
    b_below: float
    residual_ratio: float


def reduction_residual(
    f: WeightedFunction, g: WeightedFunction, grid: DyadicGrid, h_const: float, below_gap: int
) -> ReductionResidual:
    """The raw pairing, both diagonal forms, and the normalized residual
    |pairing - above - below| / (h ||f|| ||g||)."""
    inner = hilbert_pairing(f, g)
    ba = b_above(f, g, grid, below_gap)
    bb = b_above(g, f, grid, below_gap)
    denom = h_const * f.norm() * g.norm()
    ratio = abs(inner - ba - bb) / denom if denom > 0 else 0.0
    return ReductionResidual(inner, ba, bb, ratio)


def local_estimate_ratios(
    f: WeightedFunction,
    g: WeightedFunction,
    stopping: StoppingData,
    below_gap: int,
    *,
    pieces: tuple[dict, dict] | None = None,
) -> list[float]:
    """Per-corona ratios |B(f_u, g_a)| / ((sigma(F)^(1/2) + ||f_u||) ||g_a||),
    with sigma = ``f.base``, on the stopping family's grid.

    f_u is the corona piece of f rescaled by its own bounded-averages
    constant times the control value, so it is uniform with constant one
    w.r.t. the family children of F; g_a is the matching corona piece of g.
    ``pieces``, when given, are the corona pieces of f and of g over
    ``stopping``, already computed by the caller.
    """
    sigma, grid = f.base, stopping.root.grid
    f_pieces, g_pieces = pieces or (corona_pieces(f, stopping), corona_pieces(g, stopping))
    out: list[float] = []
    for F in stopping.members:
        aF = stopping.alpha[F.key]
        if aF <= 0:
            continue
        pf, qg = f_pieces[F.key], g_pieces[F.key]
        if not np.any(pf.values != 0.0) or not np.any(qg.values != 0.0):
            continue
        cF = _bounded_average_constant(pf, F, stopping) / aF
        if cF <= 0:
            continue
        scale = 1.0 / (cF * aF)
        fu = pf * scale
        denom = (math.sqrt(sigma.mass_on(F)) + fu.norm()) * qg.norm()
        if denom == 0.0:
            continue
        out.append(abs(b_above(fu, qg, grid, below_gap)) / denom)
    return out


def _bounded_average_constant(
    pf: WeightedFunction, F: GridInterval, stopping: StoppingData
) -> float:
    """max over charged intervals of F's grid inside F, not inside a family
    child, of the average of |pf| over sigma = ``pf.base``: the rows of the
    sigma node table in F's subtree, less the children's subtrees."""
    table = node_table(pf.base, F.grid)
    rows = _rows_outside(table, F, stopping.family_children(F))
    avg = _abs_averages(pf, table.lo[0, rows], table.hi[0, rows])
    # the running max of the pre-order walk, so ties and NaNs resolve as before
    return max([0.0] + avg.tolist())
