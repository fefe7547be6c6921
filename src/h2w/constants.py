"""The constant zoo for a weight pair.

kernel_scan        the truncation scan of a pair and its unscaled kernel
                   stack, built once and shared by the norm and both testing
                   constants;
norm_constant      largest singular value of the truncated kernel matrix,
                   maximized over the truncation scan (dense batched SVD);
a2_constant        lower-bound search for sup_I P(sigma, I) P(w, I) over a
                   structured interval family;
testing_constant   exact supremum over intervals, jointly with the same
                   truncation scan, attained on the maximal atom-membership
                   classes (one per range of source atoms);
testing_pair       both testing constants on one kernel scan;
energy             normalized dispersion E(w, I)^2;
energy_constant    dynamic program over dyadic partitions inside one grid;
functional_energy_ratio
                   both sides of the multi-scale energy inequality on a
                   supplied family, reported as a ratio;
compute_report     everything above assembled with search metadata.

Suprema over uncountable families are reported as certified maxima over the
documented candidate sets, never as certified upper bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CommonPointMass, PreconditionViolation
from .grid import DyadicGrid, GridInterval, auto_grid, f_parent
from .haar import (
    WeightedFunction,
    charged_nodes,
    expand,
    good_projection,
    occupied_nodes,
    splitting_nodes,
)
from .hilbert import TruncationSpec, kernel_stack, truncation_candidates
from .measure import AtomicMeasure, has_common_point_mass, _as_interval
from .params import (
    DEFAULT_A2_REFINEMENT,
    DEFAULT_C0,
    DEFAULT_REFINEMENT,
    SUITE_BELOW_GAP,
    SUITE_DEPTH,
    SUITE_EPS,
    SUITE_R,
)
from .poisson import default_j_families, maximal_intervals, poisson_stationary

__all__ = [
    "ConstantsReport",
    "KernelScan",
    "kernel_scan",
    "norm_constant",
    "a2_constant",
    "testing_constant",
    "testing_pair",
    "energy",
    "energy_constant",
    "functional_energy_ratio",
    "compute_report",
]


SCHEMA_VERSION = 1


@dataclass(frozen=True)
class KernelScan:
    """The truncation scan of a pair and its unscaled kernel stack.

    ``stack[t, i, j] = K_t(y_i - x_j)`` for the candidate truncations K_t,
    the sigma atoms y_i and the w atoms x_j.  The norm scales it by
    sqrt(sigma) sqrt(w) and forward testing by sigma.  Backward testing
    scales its transpose by w: every K_t is odd, so the transpose is the
    backward stack up to a sign, and the testing scan squares it away.
    """

    candidates: list[TruncationSpec]
    stack: np.ndarray


def kernel_scan(
    sigma: AtomicMeasure, w: AtomicMeasure, refinement: int = DEFAULT_REFINEMENT
) -> KernelScan:
    """Build the truncation scan of a pair and its kernel stack once."""
    diffs = sigma.positions_f[:, None] - w.positions_f[None, :]
    cands = truncation_candidates(np.abs(diffs).ravel(), refinement)
    return KernelScan(cands, kernel_stack(diffs, cands))


def _spectral_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (T, m, n) stack.

    Dense batched SVD at every size: exact to rounding and, at the sizes
    this package handles, faster than an iterative method.
    """
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def norm_constant(
    sigma: AtomicMeasure,
    w: AtomicMeasure,
    refinement: int = DEFAULT_REFINEMENT,
    *,
    scan: KernelScan | None = None,
) -> float:
    """Uniform-over-truncations operator norm of f -> transform of (f sigma).

    Equals the max over the truncation scan of the largest singular value of
    the matrix sqrt(w_j) K(y_i - x_j) sqrt(sigma_i).  ``scan``, the pair's
    :func:`kernel_scan`, is built here when not given.
    """
    if has_common_point_mass(sigma, w):
        raise CommonPointMass("norm constant requires disjoint point masses")
    if sigma.n_atoms == 0 or w.n_atoms == 0:
        return 0.0
    if scan is None:
        scan = kernel_scan(sigma, w, refinement)
    stack = scan.stack * np.sqrt(sigma.masses_f)[None, :, None]
    stack *= np.sqrt(w.masses_f)[None, None, :]
    return float(_spectral_norms(stack).max())


def a2_constant(
    sigma: AtomicMeasure, w: AtomicMeasure, refinement: int = DEFAULT_A2_REFINEMENT
) -> float:
    """Lower-bound estimate of sup_I P(sigma, I) P(w, I).

    Candidates: every interval with endpoints among the atom positions and
    the midpoints of consecutive atoms of the merged support, plus, around
    each such point, intervals whose lengths run over a geometric ladder
    2^-refinement .. 2^refinement times the local gap.  Monotone
    non-decreasing in ``refinement``.
    """
    if sigma.n_atoms == 0 or w.n_atoms == 0:
        return 0.0
    pts = np.unique(np.concatenate([sigma.positions_f, w.positions_f]))
    if len(pts) > 1:
        mids = 0.5 * (pts[:-1] + pts[1:])
        endpoints = np.unique(np.concatenate([pts, mids]))
    else:
        endpoints = pts
    lefts = []
    rights = []
    n = len(endpoints)
    for i in range(n):
        for j in range(i + 1, n):
            lefts.append(endpoints[i])
            rights.append(endpoints[j])
    if n > 1:
        gaps = np.diff(endpoints)
        local = np.minimum(
            np.concatenate([[gaps[0]], gaps]), np.concatenate([gaps, [gaps[-1]]])
        )
    else:
        local = np.array([1.0])
    for c, g in zip(endpoints, local):
        for k in range(-refinement, refinement + 1):
            length = g * 2.0**k
            lefts.append(c - 0.5 * length)
            rights.append(c + 0.5 * length)
    lefts = np.asarray(lefts)
    rights = np.asarray(rights)

    def pvec(mu: AtomicMeasure) -> np.ndarray:
        L = rights - lefts
        dist = np.maximum(
            0.0,
            np.maximum(
                lefts[:, None] - mu.positions_f[None, :],
                mu.positions_f[None, :] - rights[:, None],
            ),
        )
        return (L[:, None] / (L[:, None] ** 2 + dist**2) @ mu.masses_f).ravel()

    return float(np.max(pvec(sigma) * pvec(w)))


def testing_constant(
    sigma: AtomicMeasure,
    w: AtomicMeasure,
    direction: str = "forward",
    refinement: int = DEFAULT_REFINEMENT,
    *,
    scan: KernelScan | None = None,
) -> float:
    """The interval-testing constant, exact over membership classes.

    sup over intervals I and the truncation scan of
    (integral over I of H(sigma 1_I)^2 dw) / sigma(I).  The integrand at the
    target atoms in I depends only on which source atoms lie in I, so
    intervals fall into classes of contiguous ranges of the merged support.
    The integrand is non-negative, so widening I to take in more target
    atoms, but no further source atom, can only raise the integral while
    sigma(I) stays put: the supremum is attained on the maximal classes,
    one per range [a1, a2) of source atoms, which take every target atom
    strictly between source atoms a1 - 1 and a2.  ``backward`` swaps the
    roles of the measures.  ``scan``, the :func:`kernel_scan` of
    (sigma, w) in the order given, is built here when not given.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    if has_common_point_mass(sigma, w):
        raise CommonPointMass("testing constant requires disjoint point masses")
    if sigma.n_atoms == 0 or w.n_atoms == 0:
        return 0.0
    if scan is None:
        scan = kernel_scan(sigma, w, refinement)
    kernel = scan.stack
    if direction == "backward":
        sigma, w = w, sigma
        kernel = kernel.transpose(0, 2, 1)
    # C order, so that the per-class sums below reduce contiguous rows in
    # both directions and round the same way
    stack = np.multiply(kernel, sigma.masses_f[None, :, None], order="C")
    # prefix sums along the sigma axis: C[t, a, j] = sum of rows < a
    C = np.concatenate(
        [np.zeros((len(scan.candidates), 1, w.n_atoms)), np.cumsum(stack, axis=1)],
        axis=1,
    )
    sp = sigma._mass_prefix
    wm = w.masses_f
    # w atoms before each sigma atom along the merged support, sigma first on ties
    before = np.searchsorted(w.positions_f, sigma.positions_f, side="left").tolist()
    starts = [0] + before
    ends = before + [w.n_atoms]
    best = 0.0
    for a1 in range(sigma.n_atoms):
        b1 = starts[a1]
        for a2 in range(a1 + 1, sigma.n_atoms + 1):
            b2 = ends[a2]
            if b2 == b1:
                continue
            smass = sp[a2] - sp[a1]
            svals = C[:, a2, b1:b2] - C[:, a1, b1:b2]
            lhs = np.max((svals**2 * wm[b1:b2]).sum(axis=1))
            if lhs / smass > best:
                best = lhs / smass
    return math.sqrt(best)


def testing_pair(
    sigma: AtomicMeasure,
    w: AtomicMeasure,
    refinement: int = DEFAULT_REFINEMENT,
    *,
    scan: KernelScan | None = None,
) -> tuple[float, float]:
    """Forward and backward testing constants on one kernel scan."""
    if scan is None:
        scan = kernel_scan(sigma, w, refinement)
    return (
        testing_constant(sigma, w, "forward", refinement, scan=scan),
        testing_constant(sigma, w, "backward", refinement, scan=scan),
    )


def energy(w: AtomicMeasure, i) -> float:
    """E(w, I)^2: twice the normalized variance of position under w on I.

    Zero when I carries no mass or a single atom; never exceeds one.
    """
    iv = _as_interval(i)
    lo, hi = w.index_range(iv)
    if hi - lo <= 1:
        return 0.0
    m = w.masses_f[lo:hi]
    x = w.positions_f[lo:hi]
    mass = float(np.sum(m))
    mean = float(np.sum(x * m)) / mass
    var = float(np.sum((x - mean) ** 2 * m)) / mass
    return 2.0 * var / iv.length_f**2


def energy_identity_sides(w: AtomicMeasure, i: GridInterval) -> tuple[float, float]:
    """(E^2 w(I), 2 sum of squared Haar coefficients of x/|I| below I).

    The two sides agree exactly; the variant without the w(I) factor on the
    left does not, which is why both quantities are exposed.
    """
    grid = i.grid
    e2w = energy(w, i) * w.mass_on(i.interval)
    if w.count_on(i.interval) == 0:
        return e2w, 0.0
    ident = WeightedFunction.identity(w)
    hc = expand(ident, grid)
    total = 0.0
    for (lev, idx), c in hc.coeffs.items():
        if lev >= i.level and (idx >> (lev - i.level)) == i.index:
            total += c * c
    return e2w, 2.0 * total / i.length_f**2


def energy_constant(sigma: AtomicMeasure, w: AtomicMeasure, grid: DyadicGrid) -> float:
    """Best dyadic-partition energy sum inside the grid, via dynamic programming.

    For every sigma-charged grid interval I0, best(I) = max(term(I),
    best(I_left) + best(I_right)) over the w-dispersion trunk, with
    term(I) = P(sigma 1_I0, I)^2 E(w, I)^2 w(I); the constant is the max of
    sqrt(best(I0) / sigma(I0)).  A lower bound for the supremum over dyadic
    partitions; deeper grids only increase it.
    """
    if sigma.n_atoms == 0 or w.n_atoms == 0:
        return 0.0
    trunk = charged_nodes(w, grid)
    if not trunk:
        return 0.0
    wl = np.array([GridInterval(grid, n.level, n.index).left_f for n in trunk])
    wr = np.array([GridInterval(grid, n.level, n.index).right_f for n in trunk])
    ew = np.array(
        [
            energy(w, GridInterval(grid, n.level, n.index))
            * w.mass_on(GridInterval(grid, n.level, n.index).interval)
            for n in trunk
        ]
    )
    keys = [(n.level, n.index) for n in trunk]
    key_pos = {k: t for t, k in enumerate(keys)}
    order = sorted(range(len(trunk)), key=lambda t: -keys[t][0])
    best_overall = 0.0
    spos = sigma.positions_f
    smass = sigma.masses_f
    for node in occupied_nodes(sigma, grid):
        l0, i0 = node.level, node.index
        inside = [
            t
            for t, (lev, idx) in enumerate(keys)
            if lev >= l0 and (idx >> (lev - l0)) == i0
        ]
        if not inside:
            continue
        sl = slice(node.lo, node.hi)
        s0 = float(np.sum(smass[sl]))
        dist = np.maximum(
            0.0,
            np.maximum(
                wl[inside][:, None] - spos[sl][None, :],
                spos[sl][None, :] - wr[inside][:, None],
            ),
        )
        lengths = wr[inside] - wl[inside]
        P = (lengths[:, None] / (lengths[:, None] ** 2 + dist**2)) @ smass[sl]
        term = P**2 * ew[inside]
        local = {keys[t]: float(tm) for t, tm in zip(inside, term)}
        best: dict[tuple[int, int], float] = {}
        for t in order:
            k = keys[t]
            if k not in local:
                continue
            lev, idx = k
            kids = best.get((lev + 1, 2 * idx), 0.0) + best.get((lev + 1, 2 * idx + 1), 0.0)
            best[k] = max(local[k], kids)
        ratio = best[(l0, i0)] / s0 if (l0, i0) in best else 0.0
        if ratio > best_overall:
            best_overall = ratio
    return math.sqrt(best_overall)


def _nonneg_measure(h: WeightedFunction) -> AtomicMeasure:
    """The measure with masses h_i sigma_i, dropping zero atoms."""
    keep = [k for k, v in enumerate(h.values) if v * h.base.masses[k] > 0.0]
    return AtomicMeasure(
        tuple(h.base.positions[k] for k in keep),
        tuple(h.values[k] * h.base.masses[k] for k in keep),
    )


def _carleson_ratio(members, sigma: AtomicMeasure) -> float:
    worst = 0.0
    for S in members:
        s_mass = sigma.mass_on(S.interval)
        total = sum(
            sigma.mass_on(F.interval) for F in members if S.contains(F)
        )
        if s_mass > 0.0:
            worst = max(worst, total / s_mass)
        elif total > 0.0:
            return math.inf
    return worst


def functional_energy_ratio(
    h: WeightedFunction,
    f_family,
    g_family: dict[tuple[int, int], WeightedFunction],
    grid: DyadicGrid,
    *,
    s: int = 1,
    below_gap: int = SUITE_BELOW_GAP,
    eps: float = SUITE_EPS,
    r: int = SUITE_R,
    j_families: dict[tuple[int, int], list[GridInterval]] | None = None,
) -> float:
    """Ratio of the two sides of the multi-scale energy inequality.

    The left side sums, over family members F and the maximal good intervals
    J* attached to F, P(h sigma, J*) |<x/|J*|, g_F restricted to J*>|; the
    right side is ||h|| (sum ||g_F||^2)^(1/2).  The family must satisfy the
    Carleson packing bound with constant 2 and each g_F must have Haar
    support among intervals whose s-fold minimal-member parent is F, at
    least ``below_gap`` levels down; violations raise.
    """
    from .errors import AdaptednessViolation

    if np.any(h.values < 0):
        raise PreconditionViolation("h must be non-negative")
    members = list(f_family)
    ratio = _carleson_ratio(members, h.base)
    if ratio > 2.0 + 1e-12:
        raise PreconditionViolation(
            f"family is not Carleson with constant 2 (ratio {ratio:.3f})"
        )
    offenders = []
    for F in members:
        g = g_family.get(F.key)
        if g is None:
            continue
        tiny = 1e-12 * max(1.0, g.norm())
        for (lev, idx), c in expand(g, grid).coeffs.items():
            if abs(c) <= tiny:
                continue
            J = GridInterval(grid, lev, idx)
            parent = f_parent(J, members, s=s)
            ok = (
                parent is not None
                and parent.key == F.key
                and F.contains(J)
                and J.level - F.level >= below_gap
            )
            if not ok:
                offenders.append((F.key, J.key, c))
    if offenders:
        raise AdaptednessViolation(
            f"{len(offenders)} Haar coefficients escape their family slots",
            offenders,
        )
    if j_families is None:
        w_base = next(
            (g.base for g in g_family.values() if g is not None), None
        )
        if w_base is None:
            return 0.0
        j_families = default_j_families(members, w_base, grid, eps, r, below_gap)
    lhs = 0.0
    g_norm_sq = 0.0
    h_sigma = _nonneg_measure(h)
    for F in members:
        g = g_family.get(F.key)
        if g is None:
            continue
        g_norm_sq += g.norm_sq()
        js = j_families.get(F.key, [])
        for jstar in maximal_intervals(js):
            lo, hi = g.base.index_range(jstar.interval)
            pairing = float(
                np.sum(
                    g.base.positions_f[lo:hi]
                    / jstar.length_f
                    * g.values[lo:hi]
                    * g.base.masses_f[lo:hi]
                )
            )
            lhs += poisson_stationary(h_sigma, jstar) * abs(pairing)
    rhs = h.norm() * math.sqrt(g_norm_sq)
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    return lhs / rhs


@dataclass
class ConstantsReport:
    """Every constant for one weight pair, plus search metadata."""

    norm_N: float
    a2: float
    testing_fwd: float
    testing_bwd: float
    energy_E: float
    energy_E_dual: float
    h_const: float
    functional_energy_ratio_max: float
    local_ratio_max: float
    n_over_h: float
    meta: dict = field(default_factory=dict)

    def paper_ratios(self) -> dict:
        return {
            "n_over_h": self.n_over_h,
            "e_over_h": (max(self.energy_E, self.energy_E_dual) / self.h_const)
            if self.h_const > 0
            else 0.0,
            "t_over_n": (max(self.testing_fwd, self.testing_bwd) / self.norm_N)
            if self.norm_N > 0
            else 0.0,
        }

    def to_json_dict(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "norm_N": self.norm_N,
            "a2": self.a2,
            "testing_fwd": self.testing_fwd,
            "testing_bwd": self.testing_bwd,
            "energy_E": self.energy_E,
            "energy_E_dual": self.energy_E_dual,
            "h_const": self.h_const,
            "functional_energy_ratio_max": self.functional_energy_ratio_max,
            "local_ratio_max": self.local_ratio_max,
            "n_over_h": self.n_over_h,
            "meta": dict(self.meta, paper_ratios=self.paper_ratios()),
        }
        return out


def compute_report(
    sigma: AtomicMeasure,
    w: AtomicMeasure,
    grid: DyadicGrid | None = None,
    *,
    seed: int = 0,
    refinement: int = DEFAULT_REFINEMENT,
    a2_refinement: int = DEFAULT_A2_REFINEMENT,
    depth: int = SUITE_DEPTH,
    eps: float = SUITE_EPS,
    r: int = SUITE_R,
    below_gap: int = SUITE_BELOW_GAP,
    c0: float = DEFAULT_C0,
    fe_samples: int = 2,
) -> ConstantsReport:
    """Assemble the full report for one pair.

    The functional-energy and local ratios are empirical maxima over a small
    seeded family of stopping data and adapted functions; they are lower
    bounds by nature.
    """
    from . import corona  # deferred: corona builds on this module

    if has_common_point_mass(sigma, w):
        raise CommonPointMass("report requires disjoint point masses")
    if grid is None:
        grid = auto_grid(sigma, w, depth)
    scan = kernel_scan(sigma, w, refinement)
    norm_n = norm_constant(sigma, w, refinement, scan=scan)
    a2 = a2_constant(sigma, w, a2_refinement)
    t_fwd, t_bwd = testing_pair(sigma, w, refinement, scan=scan)
    h_const = math.sqrt(a2) + max(t_fwd, t_bwd)
    slack = 1.0 + 1e-9
    if t_fwd > norm_n * slack or t_bwd > norm_n * slack:
        raise AssertionError(
            f"testing exceeded the norm: {t_fwd}, {t_bwd} vs {norm_n}"
        )
    e_fwd = energy_constant(sigma, w, grid)
    e_bwd = energy_constant(w, sigma, grid)

    fe_max = 0.0
    local_max = 0.0
    cal_c0 = c0
    rng = np.random.default_rng(seed)
    root = grid.root_interval
    if sigma.n_atoms >= 2 and w.n_atoms >= 1 and h_const > 0:
        cal_c0 = corona.calibrate_c0(root, sigma, w, h_const, grid, start=c0)
        for _ in range(fe_samples):
            raw = WeightedFunction(sigma, rng.standard_normal(sigma.n_atoms))
            f = good_projection(raw, grid, eps, r)
            if f.norm() == 0.0:
                continue
            stopping = corona.build_stopping_data(
                f, root, sigma, w, h_const, cal_c0, grid
            )
            members = stopping.members
            j_fams = default_j_families(members, w, grid, eps, r, below_gap)
            ident_coeffs = (
                expand(WeightedFunction.identity(w), grid).coeffs if w.n_atoms else {}
            )
            node_map = dict(zip(*_node_lookup(w, grid)))
            g_family = {}
            for F in members:
                vals = np.zeros(w.n_atoms)
                for J in j_fams.get(F.key, []):
                    c = ident_coeffs.get(J.key, 0.0)
                    if c == 0.0:
                        continue
                    vals += c * _haar_values(w, grid, J.key, node_map)
                if np.any(vals != 0.0):
                    g_family[F.key] = WeightedFunction(w, vals)
            if g_family:
                for h_fun in (
                    WeightedFunction.constant(sigma, 1.0),
                    f.abs() * (1.0 / max(f.abs().values.max(), 1e-300)),
                ):
                    fe = functional_energy_ratio(
                        h_fun,
                        members,
                        g_family,
                        grid,
                        s=1,
                        below_gap=below_gap,
                        eps=eps,
                        r=r,
                        j_families=j_fams,
                    )
                    fe_max = max(fe_max, fe)
            if w.n_atoms >= 2:
                graw = WeightedFunction(w, rng.standard_normal(w.n_atoms))
                gg = good_projection(graw, grid, eps, r)
                if gg.norm() > 0.0:
                    local = corona.local_estimate_ratios(
                        f, gg, stopping, grid, below_gap
                    )
                    if local:
                        local_max = max(local_max, max(local))
    n_over_h = norm_n / h_const if h_const > 0 else 0.0
    meta = {
        "seed": seed,
        "depth": grid.depth,
        "refinement": refinement,
        "a2_refinement": a2_refinement,
        "eps": eps,
        "r": r,
        "below_gap": below_gap,
        "calibrated_c0": cal_c0,
        "n_sigma": sigma.n_atoms,
        "n_w": w.n_atoms,
        "truncation_scan_size": len(scan.candidates),
    }
    return ConstantsReport(
        norm_N=norm_n,
        a2=a2,
        testing_fwd=t_fwd,
        testing_bwd=t_bwd,
        energy_E=e_fwd,
        energy_E_dual=e_bwd,
        h_const=h_const,
        functional_energy_ratio_max=fe_max,
        local_ratio_max=local_max,
        n_over_h=n_over_h,
        meta=meta,
    )


def _node_lookup(mu: AtomicMeasure, grid: DyadicGrid):
    nodes = splitting_nodes(mu, grid)
    return [(n.level, n.index) for n in nodes], list(nodes)


def _haar_values(
    mu: AtomicMeasure, grid: DyadicGrid, key: tuple[int, int], node_map
) -> np.ndarray:
    n = node_map[key]
    m = mu.masses_f
    m_left = float(np.sum(m[n.lo : n.cut]))
    m_right = float(np.sum(m[n.cut : n.hi]))
    amp = math.sqrt(m_left * m_right / (m_left + m_right))
    vals = np.zeros(mu.n_atoms)
    vals[n.lo : n.cut] = -amp / m_left
    vals[n.cut : n.hi] = amp / m_right
    return vals
