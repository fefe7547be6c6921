"""Stopping intervals, coronas, and the above/below bilinear forms.

The stopping construction starts from the top interval with the average of
|f| as its control value and descends: a maximal subinterval stops when its
Poisson-energy product passes the threshold 10 c0 h^2 sigma(I), or when the
average of |f| grows tenfold; control values refresh only when the average
at least doubles.  The resulting family packs with Carleson constant 2.

The stopping and energy-stopping walks, the uniformity check and the
bounded-averages constant run on atom ranges: a visited grid interval is its
(level, index) with the index ranges of its sigma and w atoms
(``haar._descend``, and the pre-order runs of the occupied nodes,
``haar._run``), so a GridInterval is built only for a returned member or a
named violation.  ``uniformity_check`` walks the grid itself rather than the
occupied-node list, so it checks the bounded-averages constant
independently.  The energy-stopping test reads E(w, I)^2 w(I) from the trunk
table of (w, grid) that ``constants.energy_constant`` reads.

A :class:`StoppingData` walks each splitting node up to its minimal member
once per measure (``corona_nodes``, on the one walk ``pi_key`` that ``pi``
uses too), so a corona projection reads its pre-order group.  The bilinear
form visits, under each source node, only the pre-order run of target
nodes inside it (``haar._run``), in the order of the full double loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .constants import _carleson_ratio, _trunk_table
from .errors import PreconditionViolation
from .grid import DyadicGrid, GridInterval
from .haar import (
    Ranges,
    WeightedFunction,
    _descend,
    _node_mass,
    _node_range,
    _root_range,
    _run,
    corona_projection,
    occupied_nodes,
    splitting_nodes,
)
from .measure import AtomicMeasure
from .params import DEFAULT_C0
from .poisson import _poisson_sum

__all__ = [
    "StoppingData",
    "UniformitySpec",
    "energy_stopping_intervals",
    "calibrate_c0",
    "build_stopping_data",
    "carleson_check",
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
    _corona_nodes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def member_keys(self) -> frozenset:
        return frozenset(m.key for m in self.members)

    def pi_key(self, level: int, index: int) -> tuple[int, int] | None:
        """(level, index) of the minimal member containing grid interval
        (level, index), itself when it is a member; None outside the family."""
        keys = self.member_keys
        while True:
            if (level, index) in keys:
                return level, index
            if level == 0:
                return None
            level, index = level - 1, index // 2

    def pi(self, i: GridInterval) -> GridInterval | None:
        """Minimal member containing i (i itself when i is a member)."""
        key = self.pi_key(i.level, i.index)
        return None if key is None else GridInterval(self.root.grid, *key)

    def corona_nodes(self, mu: AtomicMeasure) -> dict[tuple[int, int], tuple]:
        """The splitting nodes of mu grouped by their minimal member, each
        group in pre-order; built once per measure."""
        groups = self._corona_nodes.get(mu)
        if groups is None:
            lists: dict[tuple[int, int], list] = {}
            for n in splitting_nodes(mu, self.root.grid):
                lists.setdefault(self.pi_key(n.level, n.index), []).append(n)
            groups = {key: tuple(nodes) for key, nodes in lists.items()}
            self._corona_nodes[mu] = groups
        return groups

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


def _energy_test(
    sigma: AtomicMeasure,
    top: tuple[int, int],
    w: AtomicMeasure,
    h_const: float,
    c0: float,
    grid: DyadicGrid,
):
    """The energy-stopping test below a top interval whose sigma atoms are ``top``.

    ``hit(level, index, (a, b))`` tells whether the grid interval I with
    sigma atoms [a, b) and at least two w atoms has P(sigma_0, I)^2 E(w, I)^2
    w(I) > 10 c0 h^2 sigma_0(I), sigma_0 being sigma restricted to the top
    interval.  sigma_0(I) is read from sigma_0's own prefix sums, so it
    rounds as ``sigma.restrict(top).mass_on(I)`` does.  E(w, I)^2 w(I) is
    read from the trunk table of (w, grid): a tested I holds at least two w
    atoms, so it is a trunk node.
    """
    lo0, hi0 = top
    pos = sigma.positions_f[lo0:hi0]
    mass = sigma.masses_f[lo0:hi0]
    prefix = np.concatenate(([0.0], np.cumsum(mass)))
    e2w_at = _trunk_table(w, grid).e2w_at
    threshold = 10.0 * c0 * h_const**2

    def hit(level: int, index: int, srange: tuple[int, int]) -> bool:
        e2w = e2w_at[level, index]
        if e2w == 0.0:
            return False
        left = grid.endpoint_f(level, index)
        right = grid.endpoint_f(level, index + 1)
        p = _poisson_sum(pos, mass, left, right)
        a, b = srange
        return p * p * e2w > threshold * float(prefix[b - lo0] - prefix[a - lo0])

    return hit


def energy_stopping_intervals(
    i0: GridInterval,
    sigma: AtomicMeasure,
    w: AtomicMeasure,
    h_const: float,
    c0: float,
    grid: DyadicGrid,
) -> list[GridInterval]:
    """Maximal grid intervals strictly inside i0 whose Poisson-energy
    product strictly exceeds 10 c0 h^2 sigma(I); children of selected
    intervals are not descended into."""
    if h_const <= 0:
        raise PreconditionViolation("h_const must be positive")
    _root_range(w, grid)  # the w-dispersion trunk needs w inside the grid root
    top = (_node_range(sigma, i0), _node_range(w, i0))
    hit = _energy_test(sigma, top[0], w, h_const, c0, grid)
    out: list[GridInterval] = []

    def visit(level: int, index: int, ranges: Ranges) -> bool:
        if level == i0.level:
            return True
        srange, (c, d) = ranges
        if d - c < 2:  # outside the w-dispersion trunk
            return False
        if hit(level, index, srange):
            out.append(GridInterval(grid, level, index))
            return False
        return True

    _descend((sigma, w), grid, i0, top, visit)
    return out


def calibrate_c0(
    i0: GridInterval,
    sigma: AtomicMeasure,
    w: AtomicMeasure,
    h_const: float,
    grid: DyadicGrid,
    start: float = DEFAULT_C0,
) -> float:
    """Smallest doubling of ``start`` at which the selected mass drops to
    sigma(i0)/10.  The selected union shrinks as c0 grows, so this ends."""
    budget = _node_mass(sigma, i0) / 10.0
    c0 = start
    for _ in range(200):
        chosen = energy_stopping_intervals(i0, sigma, w, h_const, c0, grid)
        mass = sum(_node_mass(sigma, F) for F in chosen)
        if mass <= budget:
            return c0
        c0 *= 2.0
    raise RuntimeError("energy-stopping calibration did not settle")


# ---------------------------------------------------------------------------
# stopping data


def build_stopping_data(
    f: WeightedFunction,
    i0: GridInterval,
    sigma: AtomicMeasure,
    w: AtomicMeasure,
    h_const: float,
    c0: float,
    grid: DyadicGrid,
) -> StoppingData:
    """Stopping family for f: start at i0 with the average of |f|; stop at
    maximal descendants that energy-stop or whose average of |f| reaches ten
    times the control value; refresh the control value only when the average
    at least doubles."""
    if not h_const > 0:
        raise PreconditionViolation("h_const must be positive")
    if f.base != sigma:
        raise PreconditionViolation("f must live over sigma")
    if f.norm() == 0.0:
        raise PreconditionViolation("f must be nonzero")
    top = (_node_range(sigma, i0), _node_range(w, i0))
    lo0, hi0 = top[0]
    if hi0 - lo0 == 0:
        raise PreconditionViolation("f must be supported on i0")
    _root_range(w, grid)  # the w-dispersion trunk needs w inside the grid root
    absf = np.abs(f.values)
    mpref = np.concatenate(([0.0], np.cumsum(sigma.masses_f)))
    fpref = np.concatenate(([0.0], np.cumsum(absf * sigma.masses_f)))

    def avg_abs(srange: tuple[int, int]) -> float:
        lo, hi = srange
        mass = mpref[hi] - mpref[lo]
        if mass <= 0.0:
            return 0.0
        return (fpref[hi] - fpref[lo]) / mass

    members: list[GridInterval] = [i0]
    ranges: dict = {i0.key: top}
    alpha: dict = {i0.key: avg_abs(top[0])}
    reason: dict = {i0.key: "root"}
    children: dict = {}

    def find_children(F: GridInterval, aF: float) -> list[GridInterval]:
        hit = _energy_test(sigma, ranges[F.key][0], w, h_const, c0, grid)
        found: list[GridInterval] = []

        def visit(level: int, index: int, node_ranges: Ranges) -> bool:
            if level == F.level:
                return True
            srange, wrange = node_ranges
            ns = srange[1] - srange[0]
            nw = wrange[1] - wrange[0]
            if ns == 0 and nw < 2:
                return False
            energy_hit = nw >= 2 and hit(level, index, srange)
            avg_hit = ns > 0 and aF > 0 and avg_abs(srange) >= 10.0 * aF
            if energy_hit or avg_hit:
                gi = GridInterval(grid, level, index)
                found.append(gi)
                ranges[gi.key] = node_ranges
                reason[gi.key] = "energy" if energy_hit else "average"
                return False
            return ns >= 2 or nw >= 2 or (ns >= 1 and nw >= 1)

        _descend((sigma, w), grid, F, ranges[F.key], visit)
        return found

    stack = [i0]
    while stack:
        F = stack.pop()
        aF = alpha[F.key]
        kids = find_children(F, aF)
        children[F.key] = tuple(kids)
        for child in kids:
            a_child = avg_abs(ranges[child.key][0])
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


def quasi_norm(stopping: StoppingData, sigma: AtomicMeasure) -> float:
    """Exact sigma-norm of the overlapping sum of alpha(F) indicators."""
    acc = np.zeros(sigma.n_atoms)
    for F in stopping.members:
        lo, hi = _node_range(sigma, F)
        acc[lo:hi] += stopping.alpha[F.key]
    return math.sqrt(float(np.sum(acc**2 * sigma.masses_f)))


def uniformity_check(
    f: WeightedFunction,
    spec: UniformitySpec,
    sigma: AtomicMeasure,
    w: AtomicMeasure,
    h_const: float,
    grid: DyadicGrid,
    tol: float = 1e-12,
) -> tuple[bool, list[str]]:
    """The three uniformity clauses, quantified over grid intervals in i0.

    (1) every energy-stopping interval of i0 sits inside some member of the
    exceptional family; (2) f is constant on each member; (3) the average of
    |f| is at most one on every charged grid interval not inside a member.
    """
    violations: list[str] = []
    s_keys = frozenset(s.key for s in spec.s_family)

    def inside_some_s(gi: GridInterval) -> bool:
        return any(s.contains(gi) for s in spec.s_family)

    for F in energy_stopping_intervals(spec.i0, sigma, w, h_const, spec.c0, grid):
        if not inside_some_s(F):
            violations.append(f"energy stop {F} escapes the exceptional family")
    scale = max(1.0, float(np.max(np.abs(f.values))) if f.base.n_atoms else 1.0)
    for s in spec.s_family:
        lo, hi = _node_range(sigma, s)
        if hi - lo >= 2:
            vals = f.values[lo:hi]
            if float(np.max(vals) - np.min(vals)) > tol * scale:
                violations.append(f"f is not constant on {s}")
    absf = np.abs(f.values)
    mpref = np.concatenate(([0.0], np.cumsum(sigma.masses_f)))
    fpref = np.concatenate(([0.0], np.cumsum(absf * sigma.masses_f)))

    # every member lies inside i0 and the walk stops at the first one it
    # meets, so a visited node is inside a member exactly when it is one
    def visit(level: int, index: int, ranges: Ranges) -> bool:
        (lo, hi), = ranges
        if (level, index) in s_keys or hi == lo:
            return False
        avg = (fpref[hi] - fpref[lo]) / (mpref[hi] - mpref[lo])
        if avg > 1.0 + tol:
            gi = GridInterval(grid, level, index)
            violations.append(f"average of |f| on {gi} is {avg:.6g} > 1")
        return True

    _descend((sigma,), grid, spec.i0, (_node_range(sigma, spec.i0),), visit)
    return (not violations), violations


# ---------------------------------------------------------------------------
# bilinear forms


def _kernel_prefix(sigma: AtomicMeasure, w: AtomicMeasure) -> np.ndarray:
    """C[a, k] = sum over the first a sigma atoms of sigma_i / (y_i - x_k)."""
    diffs = sigma.positions_f[:, None] - w.positions_f[None, :]
    if np.any(diffs == 0.0):
        from .errors import AtomCollision

        raise AtomCollision("the measures share a position")
    M = (1.0 / diffs) * sigma.masses_f[:, None]
    return np.concatenate([np.zeros((1, w.n_atoms)), np.cumsum(M, axis=0)], axis=0)


def _b_form(f: WeightedFunction, g: WeightedFunction, grid: DyadicGrid, gap: int) -> float:
    """sum over source-splitting I and target-splitting J at least ``gap``
    levels below, of the value of the I-difference of f on the child
    containing J, times the raw-kernel pairing of that child against the
    J-difference of g."""
    sigma, w = f.base, g.base
    if sigma.n_atoms == 0 or w.n_atoms == 0:
        return 0.0
    s_nodes = splitting_nodes(sigma, grid)
    w_nodes = splitting_nodes(w, grid)
    if not s_nodes or not w_nodes:
        return 0.0
    C = _kernel_prefix(sigma, w)
    m = sigma.masses_f
    fm = np.concatenate(([0.0], np.cumsum(f.values * m)))
    mm = np.concatenate(([0.0], np.cumsum(m)))
    wmass = w.masses_f
    gm = np.concatenate(([0.0], np.cumsum(g.values * wmass)))
    wm = np.concatenate(([0.0], np.cumsum(wmass)))
    total = 0.0
    for ni in s_nodes:
        m_left = mm[ni.cut] - mm[ni.lo]
        m_right = mm[ni.hi] - mm[ni.cut]
        e_left = (fm[ni.cut] - fm[ni.lo]) / m_left
        e_right = (fm[ni.hi] - fm[ni.cut]) / m_right
        e_full = (fm[ni.hi] - fm[ni.lo]) / (m_left + m_right)
        # the w nodes inside I are one pre-order run, met in the same order
        start, end = _run(w_nodes, grid, ni.level, ni.index)
        for nj in w_nodes[start:end]:
            dl = nj.level - ni.level
            if dl < gap:
                continue
            child_bit = (nj.index >> (dl - 1)) & 1
            if child_bit == 0:
                slo, shi = ni.lo, ni.cut
                dval = e_left - e_full
            else:
                slo, shi = ni.cut, ni.hi
                dval = e_right - e_full
            if dval == 0.0 or shi == slo:
                continue
            mjl = wm[nj.cut] - wm[nj.lo]
            mjr = wm[nj.hi] - wm[nj.cut]
            gl = (gm[nj.cut] - gm[nj.lo]) / mjl
            gr = (gm[nj.hi] - gm[nj.cut]) / mjr
            gf = (gm[nj.hi] - gm[nj.lo]) / (mjl + mjr)
            row = C[shi, nj.lo : nj.hi] - C[slo, nj.lo : nj.hi]
            dg = np.empty(nj.hi - nj.lo)
            dg[: nj.cut - nj.lo] = gl - gf
            dg[nj.cut - nj.lo :] = gr - gf
            inner = float(np.sum(wmass[nj.lo : nj.hi] * dg * row))
            total += dval * inner
    return total


def b_above(
    f: WeightedFunction,
    g: WeightedFunction,
    grid: DyadicGrid,
    below_gap: int,
    side: str = "above",
) -> float:
    """The above-diagonal bilinear form; ``side='below'`` swaps the roles.

    Exact double sum with the raw kernel; the caller supplies mean-zero
    functions with good Haar supports when the classical bounds are being
    instrumented.
    """
    if side == "above":
        return _b_form(f, g, grid, below_gap)
    if side == "below":
        return _b_form(g, f, grid, below_gap)
    raise ValueError("side must be 'above' or 'below'")


def corona_split(
    f: WeightedFunction,
    g: WeightedFunction,
    stopping: StoppingData,
    grid: DyadicGrid,
    below_gap: int,
) -> tuple[float, float]:
    """Diagonal corona part of the above form, and the cross-corona rest.

    split_value sums the form over matching corona projections of f and g;
    residual is b_above(f, g) minus that, so the two add back exactly.
    """
    total = b_above(f, g, grid, below_gap)
    split_value = 0.0
    for F in stopping.members:
        pf = corona_projection(f, stopping, F)
        qg = corona_projection(g, stopping, F)
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
    f: WeightedFunction,
    g: WeightedFunction,
    grid: DyadicGrid,
    h_const: float,
    below_gap: int,
) -> ReductionResidual:
    """The raw pairing, both diagonal forms, and the normalized residual
    |pairing - above - below| / (h ||f|| ||g||)."""
    from .hilbert import hilbert_pairing

    inner = hilbert_pairing(f, g)
    ba = b_above(f, g, grid, below_gap)
    bb = b_above(f, g, grid, below_gap, side="below")
    denom = h_const * f.norm() * g.norm()
    ratio = abs(inner - ba - bb) / denom if denom > 0 else 0.0
    return ReductionResidual(inner, ba, bb, ratio)


def local_estimate_ratios(
    f: WeightedFunction,
    g: WeightedFunction,
    stopping: StoppingData,
    grid: DyadicGrid,
    below_gap: int,
) -> list[float]:
    """Per-corona ratios |B(f_u, g_a)| / ((sigma(F)^(1/2) + ||f_u||) ||g_a||).

    f_u is the corona piece of f rescaled by its own bounded-averages
    constant times the control value, so it is uniform with constant one
    w.r.t. the family children of F; g_a is the matching corona piece of g.
    """
    sigma = f.base
    out: list[float] = []
    for F in stopping.members:
        aF = stopping.alpha[F.key]
        if aF <= 0:
            continue
        pf = corona_projection(f, stopping, F)
        qg = corona_projection(g, stopping, F)
        if not np.any(pf.values != 0.0) or not np.any(qg.values != 0.0):
            continue
        cF = _bounded_average_constant(pf, F, stopping, sigma, grid) / aF
        if cF <= 0:
            continue
        scale = 1.0 / (cF * aF)
        fu = pf * scale
        denom = (math.sqrt(_node_mass(sigma, F)) + fu.norm()) * qg.norm()
        if denom == 0.0:
            continue
        out.append(abs(b_above(fu, qg, grid, below_gap)) / denom)
    return out


def _bounded_average_constant(
    pf: WeightedFunction,
    F: GridInterval,
    stopping: StoppingData,
    sigma: AtomicMeasure,
    grid: DyadicGrid,
) -> float:
    """max over charged grid intervals inside F, not inside a family child,
    of the average of |pf|."""
    nodes = occupied_nodes(sigma, grid)
    start, end = _run(nodes, grid, F.level, F.index)
    if start == end:
        return 0.0
    keep = np.ones(end - start, dtype=bool)
    for s in stopping.family_children(F):
        a, b = _run(nodes, grid, s.level, s.index)
        keep[a - start : b - start] = False
    inside = nodes[start:end]
    lo = np.array([n.lo for n in inside])[keep]
    hi = np.array([n.hi for n in inside])[keep]
    absf = np.abs(pf.values)
    mpref = np.concatenate(([0.0], np.cumsum(sigma.masses_f)))
    fpref = np.concatenate(([0.0], np.cumsum(absf * sigma.masses_f)))
    avg = (fpref[hi] - fpref[lo]) / (mpref[hi] - mpref[lo])
    # the running max of the pre-order walk, so ties and NaNs resolve as before
    return max([0.0] + avg.tolist())
