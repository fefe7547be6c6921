"""Seeded verification suites.

Each suite runs its checks over a deterministic ensemble and returns one
result per check.  Exact checks (algebraic identities, explicit constants)
fail hard; regression checks compare observed maxima against the recorded
constants and are reported as warnings unless strict mode is requested.
Every failing check carries a replay payload that reproduces it bit-exactly.

A run draws its ensemble once.  Each distinct pair gets one grid, whose
memo keeps the pair's :func:`~h2w.constants.pair_constants` record (N, A2,
both T, H and the calibrated c0, from one kernel scan), and each ensemble
pair one ``compute_report``, which reads that record; all are built on
first use and shared by every suite of the run: the energy suite reads its
energy constants from the report the theorem suite checks.  Nothing
outlives the run.

The per-interval checks run batched per pair: the Poisson testing of every
test interval in one call, the stationary-vs-extension comparison on one
(nodes x atoms) matrix per measure, the energy identity on one expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import regression
from .constants import (
    ConstantsReport,
    PairConstants,
    a2_constant,
    compute_report,
    energy,
    energy_constant,
    energy_identity_sides,
    kernel_scan,
    norm_constant,
    pair_constants,
    testing_constant,
)
from .corona import (
    StoppingData,
    UniformitySpec,
    _abs_averages,
    _bounded_average_constant,
    _form_columns,
    b_above,
    build_stopping_data,
    carleson_check,
    corona_pieces,
    corona_split,
    energy_stopping_intervals,
    local_estimate_ratios,
    quasi_norm,
    reduction_residual,
    uniformity_check,
)
from .grid import DyadicGrid, GridInterval, auto_grid, build_grid, is_good
from .haar import (
    WeightedFunction,
    _run,
    expand,
    good_nodes,
    good_projection,
    haar_function,
    martingale_difference,
    node_table,
    occupied_nodes,
    reconstruct,
    splitting_nodes,
)
from .hilbert import (
    TruncationSpec,
    hilbert_pairing,
    kernel_difference_factor,
    monotonicity_mono1,
    monotonicity_p_less_h,
    smooth_kernel,
    truncation_compare,
    weak_boundedness,
)
from .measure import (
    AtomicMeasure,
    Interval,
    dilate,
    dyadic,
    pair_text,
    random_ensemble,
    range_sum,
    range_sums,
    scale_masses,
)
from .params import (
    DEFAULT_C0,
    DEFAULT_REFINEMENT,
    SUITE_BELOW_GAP,
    SUITE_EPS,
    SUITE_R,
)
from .poisson import (
    _extension_terms,
    _poisson_sums,
    default_j_families,
    dual_poisson,
    mu_measure,
    poisson_local_comparison,
    poisson_test_intervals,
    poisson_testing,
)

__all__ = ["SuiteConfig", "CheckResult", "run_suite", "run_all", "SUITE_NAMES", "observed_maxima"]


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 1
    count: int = 24
    max_atoms: int = 24
    depth: int = 12
    eps: float = SUITE_EPS
    r: int = SUITE_R
    below_gap: int = SUITE_BELOW_GAP
    c0: float = DEFAULT_C0
    refinement: int = DEFAULT_REFINEMENT
    family: str = "mixed"


@dataclass
class CheckResult:
    suite: str
    name: str
    kind: str  # "exact" or "regression"
    ok: bool
    detail: str
    replay: str | None = None


class _Ensemble:
    """One run's seeded ensemble, with each distinct pair's ``auto_grid``
    and each ensemble pair's report, each built on first use; a pair's
    :func:`pair_constants` record lives in its grid's memo."""

    def __init__(self, cfg: SuiteConfig):
        self.cfg = cfg
        self.pairs = random_ensemble(
            cfg.seed, cfg.count, cfg.max_atoms, cfg.depth, family=cfg.family
        )
        self._grids: dict[tuple[AtomicMeasure, AtomicMeasure], DyadicGrid] = {}
        self._reports: dict[int, ConstantsReport] = {}

    def grid(self, sigma: AtomicMeasure, w: AtomicMeasure) -> DyadicGrid:
        key = (sigma, w)
        if key not in self._grids:
            self._grids[key] = auto_grid(sigma, w, self.cfg.depth)
        return self._grids[key]

    def record(self, sigma: AtomicMeasure, w: AtomicMeasure) -> PairConstants:
        cfg = self.cfg
        return pair_constants(sigma, w, self.grid(sigma, w), cfg.refinement, c0=cfg.c0)

    def report(self, idx: int) -> ConstantsReport:
        """``compute_report`` of ensemble pair ``idx`` at seed cfg.seed + idx,
        on the pair's grid, so that it reads the pair's record."""
        if idx not in self._reports:
            cfg = self.cfg
            sigma, w = self.pairs[idx]
            self._reports[idx] = compute_report(
                sigma,
                w,
                self.grid(sigma, w),
                seed=cfg.seed + idx,
                refinement=cfg.refinement,
                eps=cfg.eps,
                r=cfg.r,
                below_gap=cfg.below_gap,
                c0=cfg.c0,
            )
        return self._reports[idx]


def _good_pair(cfg: SuiteConfig, sigma, w, grid, salt: int):
    """Mean-zero good-projected test functions over the pair; either may be zero."""
    rng = np.random.default_rng(cfg.seed * 1_000_003 + salt)
    f = good_projection(
        WeightedFunction(sigma, rng.standard_normal(sigma.n_atoms)), grid, cfg.eps, cfg.r
    )
    g = good_projection(
        WeightedFunction(w, rng.standard_normal(w.n_atoms)), grid, cfg.eps, cfg.r
    )
    return f, g


def _replay(cfg: SuiteConfig, sigma, w, index: int, extra: str = "") -> str:
    header = (
        f"replay seed={cfg.seed} index={index} family={cfg.family} "
        f"depth={cfg.depth} eps={cfg.eps} r={cfg.r} gap={cfg.below_gap} {extra}"
    )
    return pair_text(sigma, w, header)


class _Suite:
    def __init__(self, name: str, cfg: SuiteConfig):
        self.name = name
        self.cfg = cfg
        self.results: list[CheckResult] = []
        self.observed: dict[str, float] = {}

    def exact(self, name: str, ok: bool, detail: str, replay: str | None = None):
        self.results.append(CheckResult(self.name, name, "exact", bool(ok), detail, replay))

    def record_max(self, key: str, value: float):
        self.observed[key] = max(self.observed.get(key, 0.0), value)

    def record_min(self, key: str, value: float):
        self.observed[key] = min(self.observed.get(key, math.inf), value)

    def regression(self, name: str, key: str, observed: float, band: bool = False):
        recorded = regression.RECORDED.get(key)
        if recorded is None:
            self.results.append(
                CheckResult(self.name, name, "regression", True, f"observed {observed:.6g} (unrecorded)")
            )
            return
        if band:
            width = regression.SLACK["poisson_band"]
            lo, hi = recorded * (1 - width), recorded * (1 + width)
            ok = lo <= observed <= hi
            detail = f"observed {observed:.6g}, recorded {recorded:.6g}, band [{lo:.6g}, {hi:.6g}]"
        else:
            bound = regression.bound(key)
            ok = observed <= bound
            detail = f"observed {observed:.6g} <= bound {bound:.6g} (recorded {recorded:.6g})"
        self.results.append(CheckResult(self.name, name, "regression", ok, detail))


# ---------------------------------------------------------------------------


def _telescoping_error(
    f: WeightedFunction, grid: DyadicGrid, diffs: dict, root_mean: float
) -> float:
    """Largest relative gap, over the occupied nodes I of ``f.base``,
    between the average of f on I and the root mean plus the averages on I
    of the martingale differences ``diffs`` (at splitting nodes, by (level,
    index), in pre-order) of I's strict ancestors.  The nodes strictly
    below a difference's node are its pre-order run (``haar._run``) after
    its first node.  Every average is a sum over the node's own atoms over
    the node's mass, and each node adds its terms in pre-order of their
    differences' nodes, which is level order."""
    mu = f.base
    nodes = occupied_nodes(mu, grid)
    lo, hi = [n.lo for n in nodes], [n.hi for n in nodes]
    mass = range_sums(mu.masses, lo, hi)
    total = [root_mean] * len(nodes)
    for key, d in diffs.items():
        products = (d * mu.masses_f).tolist()
        start, end = _run(nodes, grid, *key)
        below = range(start + 1, end)
        for k, s in zip(below, range_sums(products, lo[start + 1 : end], hi[start + 1 : end])):
            total[k] += s / mass[k]
    ej = np.array(range_sums((f.values * mu.masses_f).tolist(), lo, hi)) / mass
    return float(np.max(np.abs(ej - total) / np.maximum(1.0, np.abs(ej))))


def suite_haar(ens: _Ensemble) -> _Suite:
    cfg = ens.cfg
    s = _Suite("haar", cfg)
    worst_parseval = worst_rec = worst_orth = worst_tel = worst_mart = 0.0
    bad = None
    for idx, (sigma, w) in enumerate(ens.pairs):
        grid = ens.grid(sigma, w)
        for mu, salt in ((sigma, 1), (w, 2)):
            if mu.n_atoms == 0:
                continue
            rng = np.random.default_rng(cfg.seed * 7919 + idx * 13 + salt)
            f = WeightedFunction(mu, rng.standard_normal(mu.n_atoms))
            hc = expand(f, grid)
            nsq = f.norm_sq()
            worst_parseval = max(worst_parseval, abs(hc.norm_sq() - nsq) / max(nsq, 1e-300))
            rec = reconstruct(hc)
            scale = max(1.0, float(np.max(np.abs(f.values))))
            worst_rec = max(worst_rec, float(np.max(np.abs(rec.values - f.values))) / scale)
            nodes = splitting_nodes(mu, grid)
            # the martingale difference at each splitting node, by (level, index)
            diffs: dict[tuple[int, int], np.ndarray] = {}
            if nodes:
                gis = [GridInterval(grid, n.level, n.index) for n in nodes]
                H = np.array([haar_function(gi, mu).values for gi in gis])
                gram = (H * mu.masses_f[None, :]) @ H.T
                worst_orth = max(
                    worst_orth, float(np.max(np.abs(gram - np.eye(len(nodes)))))
                )
                for gi, hv in zip(gis, H):
                    md = martingale_difference(f, gi).values
                    diffs[gi.key] = md
                    coeff = hc.coeffs[gi.key]
                    worst_mart = max(
                        worst_mart, float(np.max(np.abs(md - coeff * hv))) / scale
                    )
            tel = _telescoping_error(f, grid, diffs, hc.root_mean)
            worst_tel = max(worst_tel, tel)
            pg = good_projection(f, grid, cfg.eps, cfg.r)
            if pg.norm() > f.norm() * (1 + 1e-12):
                bad = _replay(cfg, sigma, w, idx, "projection expanded")
    s.exact("parseval_1e-9", worst_parseval <= 1e-9, f"max rel err {worst_parseval:.3e}")
    s.exact("reconstruct_1e-12", worst_rec <= 1e-12, f"max rel err {worst_rec:.3e}")
    s.exact("orthonormal_1e-12", worst_orth <= 1e-12, f"max dev {worst_orth:.3e}")
    s.exact("telescoping_1e-10", worst_tel <= 1e-10, f"max rel err {worst_tel:.3e}")
    s.exact("martingale_forms_1e-12", worst_mart <= 1e-12, f"max dev {worst_mart:.3e}")
    s.exact("projection_contracts", bad is None, "norm never grows", bad)
    return s


def suite_energy(ens: _Ensemble) -> _Suite:
    cfg = ens.cfg
    s = _Suite("energy", cfg)
    # hand-checked micro value and the uncorrected variant
    mu = AtomicMeasure.from_triples([(1, 2, 1.0), (3, 2, 1.0)])
    root = Interval(dyadic(0), dyadic(1))
    e2 = energy(mu, root)
    s.exact("micro_energy_sq", abs(e2 - 0.125) < 1e-15, f"E^2 = {e2}")
    g1 = build_grid(root, 1, dyadic(0), mu, mu)
    _, lhs, rhs = energy_identity_sides(mu, g1)[0, 0]
    s.exact("micro_identity", abs(lhs - rhs) < 1e-15, f"E^2 w(I) = {lhs}, Haar sum doubled = {rhs}")
    s.exact(
        "uncorrected_display_fails",
        abs(e2 - rhs) > 0.1,
        f"E^2 = {e2} differs from the unweighted Haar-sum form {rhs}",
    )
    worst_id = 0.0
    worst_e2 = 0.0
    monotone_ok = True
    for idx, (sigma, w) in enumerate(ens.pairs):
        grid = ens.grid(sigma, w)
        for e2_node, lhs, rhs in energy_identity_sides(w, grid).values():
            worst_id = max(worst_id, abs(lhs - rhs) / max(lhs, 1e-300))
            worst_e2 = max(worst_e2, e2_node)
        # the report's energy constants are energy_constant on this grid
        rep = ens.report(idx)
        if idx < 8:
            shallow = build_grid(grid.root, max(2, cfg.depth - 3), grid.shift, sigma, w)
            if rep.energy_E < energy_constant(sigma, w, shallow):
                monotone_ok = False
        if rep.h_const > 0:
            s.record_max("e_over_h_max", rep.energy_E / rep.h_const)
            s.record_max("e_over_h_max", rep.energy_E_dual / rep.h_const)
    s.exact("identity_1e-9", worst_id <= 1e-9, f"max rel err {worst_id:.3e}")
    s.exact("e_sq_at_most_one", worst_e2 <= 1.0 + 1e-12, f"max E^2 {worst_e2:.6f}")
    s.exact("dp_monotone_in_depth", monotone_ok, "deeper grids never decrease the estimate")
    s.regression("e_over_h", "e_over_h_max", s.observed.get("e_over_h_max", 0.0))
    return s


def suite_kernel(ens: _Ensemble) -> _Suite:
    cfg = ens.cfg
    s = _Suite("kernel", cfg)
    rng = np.random.default_rng(cfg.seed)
    # seams
    for alpha, beta in ((0.5, 2.0), (0.125, 1.0), (1.0, 64.0)):
        dev = max(
            abs(smooth_kernel(alpha, alpha, beta) - 1.0 / alpha),
            abs(smooth_kernel(beta, alpha, beta) - 1.0 / beta),
            abs(smooth_kernel(2 * beta, alpha, beta)),
            abs(smooth_kernel(-alpha, alpha, beta) + 1.0 / alpha),
        )
        s.exact(f"seams_a{alpha}_b{beta}", dev <= 1e-12, f"max seam dev {dev:.2e}")
    ys = np.linspace(1e-3, 10.0, 40001)
    vals = smooth_kernel(ys, 0.25, 2.0)
    mono = bool(np.all(np.diff(vals) <= 1e-12))
    # convex on the positive axis, concave on the negative one (odd kernel);
    # the taper piece is the tangent line of 1/y at beta, so slopes only grow.
    convex_pos = bool(np.all(np.diff(vals, 2) >= -1e-9))
    concave_neg = bool(np.all(np.diff(smooth_kernel(-ys[::-1], 0.25, 2.0), 2) <= 1e-9))
    s.exact("monotone_decreasing", mono, "on a dense grid of (0, 10]")
    s.exact("convex_right_concave_left", convex_pos and concave_neg, "second differences signed as the odd shape demands")
    # middle regime: exact factor one (offsets bounded away from zero keep
    # the difference quotient at full precision)
    n_mid = 10_000
    alpha, beta = 0.05, 40.0
    d = rng.uniform(2 * alpha * 1.01, (2.0 / 3.0) * beta * 0.99, size=n_mid)
    x = rng.uniform(-1, 1, size=n_mid)
    y = x + np.where(rng.integers(0, 2, n_mid) == 0, -1, 1) * d
    off = rng.uniform(0.05, 0.45, size=n_mid) * np.where(rng.integers(0, 2, n_mid) == 0, -1, 1)
    xp = x + off * d
    fac = kernel_difference_factor(x, xp, y, alpha, beta)
    dev = float(np.max(np.abs(fac - 1.0)))
    s.exact("middle_regime_factor_one", dev <= 1e-12, f"max |C-1| = {dev:.2e} on {n_mid} triples")
    # taper-free region: factor within [0, 1]
    n_all = 100_000
    alpha2, beta2 = 0.2, 5.0
    d2 = rng.uniform(1e-3, (2.0 / 3.0) * beta2, size=n_all)
    x2 = rng.uniform(-2, 2, size=n_all)
    y2 = x2 + np.where(rng.integers(0, 2, n_all) == 0, -1, 1) * d2
    off2 = rng.uniform(0.05, 0.49, size=n_all) * np.where(rng.integers(0, 2, n_all) == 0, -1, 1)
    xp2 = x2 + off2 * d2
    fac2 = kernel_difference_factor(x2, xp2, y2, alpha2, beta2)
    inside = bool(np.all((fac2 >= -1e-12) & (fac2 <= 1.0 + 1e-12)))
    s.exact("factor_in_unit_interval", inside, f"{n_all} triples with |x-y| <= (2/3) beta")
    # and the documented failure of the unit bound once the taper is hit
    d3 = rng.uniform(1.2 * beta2, 1.9 * beta2, size=1000)
    x3 = rng.uniform(-2, 2, size=1000)
    y3 = x3 + d3
    xp3 = x3 + 0.2 * d3
    fac3 = kernel_difference_factor(x3, xp3, y3, alpha2, beta2)
    s.exact(
        "taper_exceeds_one_documented",
        bool(np.max(fac3) > 1.0) and bool(np.max(fac3) <= 4.0 + 1e-9),
        f"max factor {np.max(fac3):.3f} in (1, 4] on taper triples",
    )
    # far outside the taper both kernel values vanish
    farfac = kernel_difference_factor(0.0, 0.1, 2.0 * beta2 + 1.0, alpha2, beta2)
    s.exact("far_zone_factor_zero", farfac == 0.0, "both kernel values vanish")
    # raw kernel equals the tapered one at extreme cutoffs
    sigma, w = ens.pairs[0]
    if sigma.n_atoms and w.n_atoms:
        f = WeightedFunction.constant(sigma)
        g = WeightedFunction.constant(w)
        dmat = np.abs(sigma.positions_f[:, None] - w.positions_f[None, :])
        dmin, dmax = float(dmat.min()), float(dmat.max())
        tr = TruncationSpec("smooth", 0.5 * dmin, max(dmax * 1.001, 0.75 * dmin))
        dev = abs(hilbert_pairing(f, g, tr) - hilbert_pairing(f, g))
        s.exact("raw_equals_taper_limit", dev <= 1e-12 * max(1.0, abs(hilbert_pairing(f, g))), f"dev {dev:.2e}")
    # hard-vs-smooth difference against single-scale averages
    worst = 0.0
    for idx, (sigma, w) in enumerate(ens.pairs[:10]):
        if sigma.n_atoms == 0:
            continue
        rng2 = np.random.default_rng(cfg.seed + idx)
        f = WeightedFunction(sigma, np.abs(rng2.standard_normal(sigma.n_atoms)))
        span = max(1e-3, float(sigma.positions_f.max() - sigma.positions_f.min()))
        for e, dd in ((0.05 * span, 0.5 * span), (0.2 * span, 2.0 * span)):
            _, _, ratio = truncation_compare(f, e, dd, np.linspace(-0.5, 1.5, 61))
            worst = max(worst, ratio)
    s.record_max("truncation_compare_max", worst)
    s.exact("truncation_compare_bounded", worst <= 2.0 + 1e-9, f"max ratio {worst:.4f} (<= 2 by the kernel shape)")
    s.regression("truncation_compare", "truncation_compare_max", worst)
    return s


def suite_lemmas(ens: _Ensemble) -> _Suite:
    cfg = ens.cfg
    s = _Suite("lemmas", cfg)
    worst_plh = 0.0
    worst_m1 = 0.0
    worst_wb = 0.0
    for idx, (sigma, w) in enumerate(ens.pairs):
        if sigma.n_atoms < 1 or w.n_atoms < 2:
            continue
        grid = ens.grid(sigma, w)
        # pick I = a splitting interval of w with sigma mass outside
        nodes = [n for n in splitting_nodes(w, grid) if n.level >= 1]
        if not nodes:
            continue
        n0 = nodes[len(nodes) // 2]
        gi = GridInterval(grid, n0.level, n0.index)
        K = grid.root_interval
        h_j = haar_function(gi, w)
        if h_j is None:
            continue
        sig_out = sigma.restrict(K).restrict_complement(gi)
        if sig_out.n_atoms == 0:
            continue
        lhs, rhs, ratio = monotonicity_p_less_h(sigma, h_j, K, gi, grid)
        if rhs > 0:
            worst_plh = max(worst_plh, ratio)
        # deeper good J for the second display; I is the ancestor one gap up
        good_js = [n for n in good_nodes(w, grid, cfg.eps, cfg.r) if n.level >= cfg.below_gap + 1]
        for nj in good_js[:3]:
            jj = GridInterval(grid, nj.level, nj.index)
            anc = jj.ancestor(jj.level - cfg.below_gap)
            hj2 = haar_function(jj, w)
            holes = sigma.restrict(K).restrict_complement(anc)
            if hj2 is None or holes.n_atoms == 0:
                continue
            rng = np.random.default_rng(cfg.seed + idx)
            signs = rng.uniform(-1, 1, size=holes.n_atoms)
            lhs, rhs, ratio = monotonicity_mono1(sigma, hj2, K, anc, jj, grid, signs)
            if rhs > 0:
                worst_m1 = max(worst_m1, ratio)
        # shared-endpoint pairing of the two halves
        halves = grid.interval(1, 0), grid.interval(1, 1)
        lhs, rhs, ratio = weak_boundedness(sigma, w, *halves, ens.record(sigma, w).a2)
        if rhs > 0:
            worst_wb = max(worst_wb, ratio)
        if idx == 0:
            # degenerate case: no mass between K and I leaves both sides zero
            lhs4, rhs4, _ = monotonicity_p_less_h(AtomicMeasure.empty(), h_j, K, gi, grid)
            s.exact("plh_zero_holes", lhs4 == 0.0 and rhs4 == 0.0, "both sides vanish")
    s.record_max("mono_p_less_h_ratio_max", worst_plh)
    s.record_max("mono1_ratio_max", worst_m1)
    s.record_max("weak_boundedness_ratio_max", worst_wb)
    s.regression("mono_p_less_h", "mono_p_less_h_ratio_max", worst_plh)
    s.regression("mono1", "mono1_ratio_max", worst_m1)
    s.regression("weak_boundedness", "weak_boundedness_ratio_max", worst_wb)
    s.exact("mono1_upper_side", worst_m1 < math.inf, "ratio finite whenever the right side is positive")
    return s


_DEEP_PATTERN = (0, 3, 7, 12, 18, 25, 31, 34, 38, 41, 45, 47)
_FAR_PATTERN = (0.04, 0.11, 0.21, 0.55, 0.62, 0.71, 0.83, 0.92, 0.96)


def _crafted_pair(cfg: SuiteConfig, salt: int, layout: str, mass_band: float = 2.0):
    """Pairs with a fixed deep window near 1/3 plus scattered far atoms.

    The slot geometry never reseeds (only masses do), so maxima recorded
    over these families stay tightly banded.  ``blocks`` puts sigma on the
    left half of the window and w on the right: the sigma-free stretch
    makes energy stopping split the deep scales into their own corona, so
    the above form crosses corona boundaries.  ``interleaved`` alternates
    sigma and w through the window: no energy stop fires, the family stays
    at the root, and the deep good intervals keep a full gap below their
    stopping parent, feeding the half-plane weight.
    """
    rng = np.random.default_rng(cfg.seed * 31 + salt)
    depth = cfg.depth
    n_slots = 1 << depth
    base = n_slots // 3 - 24
    deep = np.array(_DEEP_PATTERN) + base
    far = np.array([int(fr * n_slots) for fr in _FAR_PATTERN])
    far = far[(far < base - 64) | (far > base + 72)]
    if layout == "blocks":
        s_deep, w_deep = deep[:6], deep[6:]
    else:
        s_deep, w_deep = deep[0::2], deep[1::2]
    s_slots = np.concatenate([s_deep, far[0::2]])
    w_slots = np.concatenate([w_deep, far[1::2]])
    sig = AtomicMeasure.from_triples(
        (2 * int(t) + 1, depth + 1, float(m))
        for t, m in zip(s_slots, rng.uniform(1.0 / mass_band, mass_band, len(s_slots)))
    )
    w = AtomicMeasure.from_triples(
        (2 * int(t) + 1, depth + 1, float(m))
        for t, m in zip(w_slots, rng.uniform(1.0 / mass_band, mass_band, len(w_slots)))
    )
    return sig, w


def suite_corona(ens: _Ensemble) -> _Suite:
    cfg = ens.cfg
    s = _Suite("corona", cfg)
    inv_ok = True
    carleson_worst = 0.0
    split_dev = 0.0
    cross_dev = 0.0
    bilin_dev = 0.0
    mass_ok = True
    unif_ok = True
    replay = None
    crafted = [
        _crafted_pair(cfg, k, "blocks") for k in range(max(4, cfg.count // 4))
    ] + [
        _crafted_pair(cfg, 500 + k, "interleaved") for k in range(max(4, cfg.count // 4))
    ]
    for idx, (sigma, w) in enumerate(ens.pairs + crafted):
        if sigma.n_atoms < 2:
            continue
        grid = ens.grid(sigma, w)
        f, g = _good_pair(cfg, sigma, w, grid, idx)
        if f.norm() == 0:
            continue
        rec = ens.record(sigma, w)
        h, c0 = rec.h_const, rec.c0
        if h <= 0:
            continue
        chosen = energy_stopping_intervals(grid.root_interval, sigma, w, h, c0)
        chosen_mass = range_sum([sigma.mass_on(F) for F in chosen])
        if chosen_mass > sigma.total_mass / 10.0:
            mass_ok = False
            replay = _replay(cfg, sigma, w, idx, "energy stopping mass")
        sd = build_stopping_data(f, grid.root_interval, w, h, c0)
        # invariants: root maximal, control monotone, averages dominated
        if any(not sd.root.contains(F) for F in sd.members):
            inv_ok = False
        for F in sd.members:
            for G in sd.members:
                if F.key != G.key and G.contains(F):
                    if sd.alpha[F.key] < sd.alpha[G.key]:
                        inv_ok = False
        t = node_table(sigma, grid)
        avgs = _abs_averages(f, t.lo[0], t.hi[0])
        for level, index, avg in zip(t.level.tolist(), t.index.tolist(), avgs.tolist()):
            member = sd.pi_key(level, index)
            if member is None:
                continue
            if avg > 10.0 * sd.alpha[member]:
                inv_ok = False
                gi = GridInterval(grid, level, index)
                replay = _replay(cfg, sigma, w, idx, f"avg bound at {gi}")
        carleson_worst = max(carleson_worst, carleson_check(sd, sigma))
        s.record_max("quasi_norm_ratio_max", quasi_norm(sd, sigma) / f.norm())
        f_pieces = corona_pieces(f, sd)
        # corona split algebra and the independent cross sum
        if g.norm() > 0:
            g_pieces = corona_pieces(g, sd)
            pieces = (f_pieces, g_pieces)
            # one set of kernel column sums for every form of this pair from sigma to w
            C = _form_columns(sigma, w, grid)
            total = b_above(f, g, grid, cfg.below_gap, columns=C)
            split_value, residual = corona_split(f, g, sd, cfg.below_gap, pieces=pieces, columns=C)
            split_dev = max(split_dev, abs(split_value + residual - total) / max(1.0, abs(total)))
            cross = 0.0
            for p_key, pf in f_pieces.items():
                if not np.any(pf.values != 0.0):
                    continue
                for q_key, qg in g_pieces.items():
                    if p_key != q_key and np.any(qg.values != 0.0):
                        cross += b_above(pf, qg, grid, cfg.below_gap, columns=C)
            cross_dev = max(cross_dev, abs(cross - residual) / max(1.0, abs(total)))
            denom = h * f.norm() * g.norm()
            s.record_max("corona_residual_max", abs(residual) / denom)
            rr = reduction_residual(f, g, grid, h, cfg.below_gap, columns=C)
            s.record_max("reduction_residual_max", rr.residual_ratio)
            # bilinearity
            g2 = 0.5 * g
            lhs = b_above(f, g + g2, grid, cfg.below_gap, columns=C)
            rhs = total + b_above(f, g2, grid, cfg.below_gap, columns=C)
            bilin_dev = max(bilin_dev, abs(lhs - rhs) / max(1.0, abs(lhs)))
            for ratio in local_estimate_ratios(f, g, sd, cfg.below_gap, pieces=pieces, columns=C):
                s.record_max("local_over_h_max", ratio / h)
        # uniformity of the rescaled corona piece on the family children
        for F in sd.members:
            if not sd.family_children(F):
                continue
            pf = f_pieces[F.key]
            if not np.any(pf.values != 0.0):
                continue
            aF = sd.alpha[F.key]
            cF = _bounded_average_constant(pf, F, sd)
            if cF <= 0:
                continue
            s.record_max("uniformity_scale_max", cF / aF)
            spec = UniformitySpec(F, sd.family_children(F), c0)
            ok, violations = uniformity_check(pf * (1.0 / cF), spec, w, h)
            if not ok:
                unif_ok = False
                replay = _replay(cfg, sigma, w, idx, f"uniformity: {violations[:2]}")
            break
    s.exact("stopping_invariants", inv_ok, "maximal root, monotone control, dominated averages", replay)
    s.exact("carleson_at_most_2", carleson_worst <= 2.0, f"max packing ratio {carleson_worst:.6f}")
    # negative control: a nested chain with repeated mass violates packing
    sig0 = AtomicMeasure.from_triples([(1, 9, 1.0)])
    g0 = build_grid(Interval(dyadic(0), dyadic(1)), 8, dyadic(0), sig0, sig0)
    chain = tuple(GridInterval(g0, lev, 0) for lev in range(5))
    fake = StoppingData(chain[0], chain, {c.key: 1.0 for c in chain}, {}, {})
    s.exact("negative_control_detected", carleson_check(fake, sig0) > 2.0, f"ratio {carleson_check(fake, sig0):.1f}")
    s.exact("energy_stop_mass_tenth", mass_ok, "sigma(union) <= sigma(I0)/10 at the calibrated threshold", replay)
    s.exact("uniformity_holds", unif_ok, "rescaled corona pieces pass all three clauses", replay)
    s.exact("split_plus_residual_1e-10", split_dev <= 1e-10, f"max dev {split_dev:.2e}")
    s.exact("cross_sum_oracle_1e-10", cross_dev <= 1e-10, f"max dev {cross_dev:.2e}")
    s.exact("bilinearity_1e-10", bilin_dev <= 1e-10, f"max dev {bilin_dev:.2e}")
    s.regression("quasi_norm_ratio", "quasi_norm_ratio_max", s.observed.get("quasi_norm_ratio_max", 0.0))
    s.regression("corona_residual", "corona_residual_max", s.observed.get("corona_residual_max", 0.0))
    s.regression("reduction_residual", "reduction_residual_max", s.observed.get("reduction_residual_max", 0.0))
    s.regression("local_over_h", "local_over_h_max", s.observed.get("local_over_h_max", 0.0))
    s.regression("uniformity_scale", "uniformity_scale_max", s.observed.get("uniformity_scale_max", 0.0))
    return s


def _stationary_and_extension(
    mu: AtomicMeasure, grid: DyadicGrid, nodes
) -> tuple[list[float], list[float]]:
    """P(mu, I) and the extension of mu at (center, |I|) for each node I,
    each bitwise the per-interval call's: one ``poisson._poisson_sums`` and
    one matrix of ``poisson._extension_terms``."""
    pos, mass = mu.positions_f, mu.masses_f
    left = np.array([grid.endpoint_f(n.level, n.index) for n in nodes])
    right = np.array([grid.endpoint_f(n.level, n.index + 1) for n in nodes])
    stationary = _poisson_sums(left, right, pos, mass)
    t = np.array([grid.cell_f(n.level) for n in nodes])
    center = np.array([grid.endpoint_f(n.level + 1, 2 * n.index + 1) for n in nodes])
    extension = _extension_terms(center, t, pos, mass).sum(axis=1)
    return stationary.tolist(), extension.tolist()


def suite_poisson(ens: _Ensemble) -> _Suite:
    cfg = ens.cfg
    s = _Suite("poisson", cfg)
    comp_ok = True
    mass_ok = True
    box_ok = True
    fe_pre_ok = True
    replay = None
    random_pairs = ens.pairs
    crafted = [
        _crafted_pair(cfg, 1000 + k, "interleaved", mass_band=1.25)
        for k in range(max(8, cfg.count // 3))
    ]
    for idx, (sigma, w) in enumerate(random_pairs + crafted):
        is_crafted = idx >= len(random_pairs)
        grid = ens.grid(sigma, w)
        # stationary vs extension comparability on charged intervals
        for mu in (sigma, w):
            nodes = occupied_nodes(mu, grid)[:64]
            for n, p, pp in zip(nodes, *_stationary_and_extension(mu, grid, nodes)):
                if pp <= 0:
                    continue
                ratio = p / pp
                if not (1.0 - 1e-12 <= ratio <= 2.0 + 1e-12):
                    comp_ok = False
                    gi = GridInterval(grid, n.level, n.index)
                    replay = _replay(cfg, sigma, w, idx, f"P/PP ratio {ratio} at {gi}")
        if sigma.n_atoms < 2 or w.n_atoms < 2:
            continue
        f, g = _good_pair(cfg, sigma, w, grid, idx)
        if f.norm() == 0:
            continue
        rec = ens.record(sigma, w)
        a2, h = rec.a2, rec.h_const
        sd = build_stopping_data(f, grid.root_interval, w, h, rec.c0)
        j_fams = default_j_families(sd.members, w, grid, cfg.eps, cfg.r, cfg.below_gap)
        hp = mu_measure(sd.members, w, grid, j_fams)
        for mass, (fkey, jkey) in zip(hp.masses, hp.tags):
            if mass > 2.0 * w.mass_on(GridInterval(grid, *jkey)) * (1 + 1e-12):
                mass_ok = False
                replay = _replay(cfg, sigma, w, idx, f"mu mass at {jkey}")
        if hp.n_atoms:
            # box monotonicity of the dual operator
            small = GridInterval(grid, 1, 0)
            big = grid.root_interval
            x0 = float(sigma.positions_f[0])
            if dual_poisson(hp, small, x0) > dual_poisson(hp, big, x0) + 1e-15:
                box_ok = False
            test_intervals = poisson_test_intervals(sigma, grid, sd.members)
            for res in poisson_testing(test_intervals, sigma, hp, h, a2):
                if res.forward_rhs > 0:
                    s.record_max("poisson_forward_ratio_env", res.forward_ratio)
                    if is_crafted:
                        s.record_max("poisson_forward_ratio_max", res.forward_ratio)
                if res.dual_rhs > 0:
                    s.record_max("poisson_dual_ratio_env", res.dual_ratio)
                    if is_crafted:
                        s.record_max("poisson_dual_ratio_max", res.dual_ratio)
        # good-interval local comparison
        i0 = grid.root_interval
        good = good_nodes(w, grid, cfg.eps, cfg.r)
        good_js = [GridInterval(grid, n.level, n.index) for n in good]
        for n in splitting_nodes(sigma, grid):
            if n.level < 1 or n.level > 4:
                continue
            gi = GridInterval(grid, n.level, n.index)
            for jj in good_js:
                if jj.level - gi.level >= cfg.r and gi.contains(jj):
                    lhs, rhs = poisson_local_comparison(jj, gi, i0, sigma, cfg.eps)
                    if rhs > 0:
                        s.record_max("jsimeq_ratio_max", lhs / rhs)
    # deterministic scan: one source atom just past the right endpoint of I,
    # every good interval a full gap below I
    gid = build_grid(
        Interval(dyadic(0), dyadic(1)),
        cfg.depth,
        dyadic(0),
        AtomicMeasure.empty(),
        AtomicMeasure.empty(),
    )
    atom = AtomicMeasure.from_triples(
        [(2 * ((1 << cfg.depth) // 2) + 1, cfg.depth + 1, 1.0)]
    )
    I_fixed = gid.interval(2, 1)
    for lev in range(2 + cfg.r, min(cfg.depth, 5 + cfg.r) + 1):
        # the level-lev intervals inside I_fixed, in index order
        for k in range(1 << (lev - 2), 2 << (lev - 2)):
            jj = gid.interval(lev, k)
            if is_good(jj, cfg.eps, cfg.r):
                lhs, rhs = poisson_local_comparison(jj, I_fixed, gid.root_interval, atom, cfg.eps)
                if rhs > 0:
                    s.record_max("jsimeq_ratio_max", lhs / rhs)
    s.exact("stationary_vs_extension_in_1_2", comp_ok, "ratio inside [1, 2] on every instance", replay)
    s.exact("mu_mass_at_most_2wJ", mass_ok, "every half-plane mass within twice w(J)", replay)
    s.exact("dual_box_monotone", box_ok, "larger boxes never decrease the dual operator")
    s.regression(
        "poisson_forward_ratio",
        "poisson_forward_ratio_max",
        s.observed.get("poisson_forward_ratio_max", 0.0),
        band=True,
    )
    s.regression(
        "poisson_dual_ratio",
        "poisson_dual_ratio_max",
        s.observed.get("poisson_dual_ratio_max", 0.0),
        band=True,
    )
    s.regression(
        "poisson_forward_env", "poisson_forward_ratio_env", s.observed.get("poisson_forward_ratio_env", 0.0)
    )
    s.regression(
        "poisson_dual_env", "poisson_dual_ratio_env", s.observed.get("poisson_dual_ratio_env", 0.0)
    )
    s.regression("jsimeq_ratio", "jsimeq_ratio_max", s.observed.get("jsimeq_ratio_max", 0.0))
    return s


def suite_theorem(ens: _Ensemble) -> _Suite:
    cfg = ens.cfg
    s = _Suite("theorem", cfg)
    necessity_ok = True
    invariance_dev = 0.0
    fe_worst = 0.0
    replay = None
    for idx, (sigma, w) in enumerate(ens.pairs):
        rep = ens.report(idx)
        slack = 1.0 + 1e-9
        if rep.testing_fwd > rep.norm_N * slack or rep.testing_bwd > rep.norm_N * slack:
            necessity_ok = False
            replay = _replay(cfg, sigma, w, idx, "testing exceeded norm")
        if rep.h_const > 0:
            s.record_max("n_over_h_max", rep.n_over_h)
            s.record_min("n_over_h_min", rep.n_over_h)
            if rep.functional_energy_ratio_max > 0:
                fe_worst = max(fe_worst, rep.functional_energy_ratio_max / rep.h_const)
        # invariance spot-checks on a few pairs, recomputed from scratch on
        # the dilated and mass-scaled pairs to compare with the originals
        if idx < 6 and sigma.n_atoms and w.n_atoms:
            n0 = rep.norm_N
            a0 = rep.a2
            t0 = rep.testing_fwd
            sig_d, w_d = dilate(sigma, 2), dilate(w, 2)
            scan = kernel_scan(sig_d, w_d, cfg.refinement)
            n1 = norm_constant(sig_d, w_d, scan=scan)
            a1 = a2_constant(sig_d, w_d)
            t1 = testing_constant(sig_d, w_d, "forward", scan=scan)
            sig_m, w_m = scale_masses(sigma, 3.0), scale_masses(w, 1.0 / 3.0)
            scan = kernel_scan(sig_m, w_m, cfg.refinement)
            n2 = norm_constant(sig_m, w_m, scan=scan)
            a2v = a2_constant(sig_m, w_m)
            t2 = testing_constant(sig_m, w_m, "forward", scan=scan)
            for before, after in ((n0, n1), (a0, a1), (t0, t1), (n0, n2), (a0, a2v), (t0, t2)):
                if before > 0:
                    invariance_dev = max(invariance_dev, abs(after - before) / before)
    s.exact("testing_below_norm", necessity_ok, "T <= N (1 + 1e-9) on every pair", replay)
    s.exact("invariance_1e-9", invariance_dev <= 1e-9, f"max rel drift {invariance_dev:.2e}")
    s.regression("n_over_h", "n_over_h_max", s.observed.get("n_over_h_max", 0.0))
    s.regression("fe_over_h", "fe_over_h_max", fe_worst)
    s.record_max("fe_over_h_max", fe_worst)
    return s


SUITE_NAMES = ("haar", "energy", "kernel", "lemmas", "corona", "poisson", "theorem")

_SUITES = {
    "haar": suite_haar,
    "energy": suite_energy,
    "kernel": suite_kernel,
    "lemmas": suite_lemmas,
    "corona": suite_corona,
    "poisson": suite_poisson,
    "theorem": suite_theorem,
}


def run_suite(name: str, cfg: SuiteConfig, *, ensemble: _Ensemble | None = None) -> _Suite:
    """Run one suite; ``ensemble``, the run's shared draw and records, is
    built here when not given."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; pick one of {SUITE_NAMES} or 'all'")
    return _SUITES[name](ensemble if ensemble is not None else _Ensemble(cfg))


def run_all(cfg: SuiteConfig) -> list[_Suite]:
    """Every suite over one draw of the ensemble and one record per pair."""
    ensemble = _Ensemble(cfg)
    return [run_suite(name, cfg, ensemble=ensemble) for name in SUITE_NAMES]


def observed_maxima(cfg: SuiteConfig) -> dict[str, float]:
    """Observed values for every recorded key; used by the recording script."""
    out: dict[str, float] = {}
    for suite in run_all(cfg):
        for key, value in suite.observed.items():
            if key.endswith("_min"):
                out[key] = min(out.get(key, math.inf), value)
            else:
                out[key] = max(out.get(key, 0.0), value)
    return out
