"""Truncated Hilbert kernels and the bilinear forms built from them.

Three kernel modes exist.  ``hard`` keeps 1/y on the annulus inner < |y| <
outer and is zero elsewhere.  ``smooth`` is the tapered odd kernel that rises
linearly to 1/alpha on (0, alpha), equals 1/y on [alpha, beta], decays
linearly back to zero on (beta, 2 beta), and vanishes beyond; it is C^1 on
(0, 2 beta), Lipschitz, concave and decreasing on (0, inf).  ``none`` is the
raw kernel 1/y, the inner->0, outer->inf limit, finite on atomic measures
with disjoint supports.

Sign convention: the transform of a measure nu evaluated at x sums
mass / (y - x) over atoms y, so the transform of a unit mass at 1 is +1 at
the origin.

Truncation suprema are evaluated on a finite candidate scan: hard-cutoff
bands bracketing the sorted distinct pairwise distances (operator entries
are piecewise constant in the cutoffs with breakpoints exactly there), plus
tapered pairs on a geometrically refined value list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AtomCollision, PreconditionViolation
from .measure import AtomicMeasure
from .haar import WeightedFunction, absolute_haar_multiplier
from .params import DEFAULT_REFINEMENT

__all__ = [
    "TruncationSpec",
    "smooth_kernel",
    "kernel_values",
    "transform",
    "single_scale_average",
    "kernel_difference_factor",
    "bilinear_form",
    "hilbert_pairing",
    "truncation_candidates",
    "lemma_ratio",
    "LemmaInstance",
]

_INF = math.inf


@dataclass(frozen=True)
class TruncationSpec:
    """Kernel mode plus the inner/outer truncation radii.

    ``hard`` uses (inner, outer) as the strict annulus (epsilon, delta);
    ``smooth`` uses them as (alpha, beta); ``none`` ignores both and needs
    disjoint supports downstream.
    """

    mode: str = "none"
    inner: float = 0.0
    outer: float = _INF

    def __post_init__(self):
        if self.mode not in ("hard", "smooth", "none"):
            raise ValueError(f"unknown truncation mode {self.mode!r}")
        if self.mode == "smooth":
            if not (0.0 < self.inner < self.outer):
                raise ValueError("smooth truncation requires 0 < alpha < beta")
        elif self.mode == "hard":
            if not (0.0 <= self.inner < self.outer):
                raise ValueError("hard truncation requires inner < outer")


NONE_TRUNCATION = TruncationSpec("none")


def smooth_kernel(y, alpha: float, beta: float):
    """The tapered odd kernel; accepts scalars or arrays."""
    if not 0.0 < alpha < beta:
        raise ValueError("requires 0 < alpha < beta")
    arr = np.asarray(y, dtype=float)
    a = np.abs(arr)
    out = np.zeros_like(a)
    lin = a < alpha
    mid = (a >= alpha) & (a <= beta)
    tap = (a > beta) & (a < 2.0 * beta)
    out[lin] = -a[lin] / alpha**2 + 2.0 / alpha
    out[mid] = 1.0 / a[mid]
    out[tap] = -a[tap] / beta**2 + 2.0 / beta
    out = out * np.sign(arr)
    if np.isscalar(y) or arr.ndim == 0:
        return float(out)
    return out


def kernel_values(diffs, trunc: TruncationSpec):
    """Kernel applied entrywise to signed differences y - x.

    In modes ``hard`` and ``none`` a zero difference contributes zero here;
    callers that must reject collisions do so explicitly.
    """
    arr = np.asarray(diffs, dtype=float)
    if trunc.mode == "smooth":
        out = smooth_kernel(arr, trunc.inner, trunc.outer)
        return out
    a = np.abs(arr)
    with np.errstate(divide="ignore"):
        inv = np.where(a > 0.0, 1.0 / arr, 0.0)
    if trunc.mode == "none":
        out = inv
    else:
        out = np.where((a > trunc.inner) & (a < trunc.outer), inv, 0.0)
    if np.isscalar(diffs) or arr.ndim == 0:
        return float(out)
    return out


def transform(
    nu_base: AtomicMeasure,
    nu_values,
    x: float,
    trunc: TruncationSpec = NONE_TRUNCATION,
) -> float:
    """The truncated transform of (values d nu) at the point x.

    ``nu_values`` may be None for the plain measure.  Mode ``none`` raises
    AtomCollision when x is an atom of the measure.
    """
    if nu_base.n_atoms == 0:
        return 0.0
    diffs = nu_base.positions_f - x
    if trunc.mode == "none" and np.any(diffs == 0.0):
        raise AtomCollision(f"evaluation point {x} is an atom of the measure")
    k = kernel_values(diffs, trunc)
    vals = nu_base.masses_f if nu_values is None else nu_base.masses_f * np.asarray(nu_values)
    return float(np.sum(vals * k))


def single_scale_average(
    mu: AtomicMeasure, phi_values, x: float, alpha: float
) -> float:
    """Window average: integral of phi d mu over (x - 3 alpha, x + 3 alpha), over alpha."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if mu.n_atoms == 0:
        return 0.0
    pos = mu.positions_f
    mask = (pos > x - 3.0 * alpha) & (pos < x + 3.0 * alpha)
    vals = mu.masses_f if phi_values is None else mu.masses_f * np.asarray(phi_values)
    return float(np.sum(vals[mask])) / alpha


def kernel_difference_factor(
    x: float, x_prime: float, y: float, alpha: float, beta: float
):
    """The factor C with K(y-x') - K(y-x) = C (x'-x) / ((y-x)(y-x')).

    Requires 2 |x-x'| < |x-y|.  C is always non-negative, equals one exactly
    on the middle regime 2 alpha < |x-y| < (2/3) beta, and stays at most one
    whenever both kernel arguments are at most beta (guaranteed for
    |x-y| <= (2/3) beta).  Once the taper (beta, 2 beta) is involved C can
    reach (2 beta)^2 / beta^2 = 4: the taper is the tangent line of 1/y at
    beta and is steeper than 1/y beyond it, so its increments are larger.
    The degenerate input x' == x reports 1 by continuity.  Accepts scalars
    or aligned arrays.
    """
    xa = np.asarray(x, dtype=float)
    xpa = np.asarray(x_prime, dtype=float)
    ya = np.asarray(y, dtype=float)
    k_diff = smooth_kernel(ya - xpa, alpha, beta) - smooth_kernel(ya - xa, alpha, beta)
    denom_num = (ya - xa) * (ya - xpa)
    dx = xpa - xa
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(dx != 0.0, k_diff * denom_num / np.where(dx == 0.0, 1.0, dx), 1.0)
    if np.isscalar(x) and np.isscalar(x_prime) and np.isscalar(y):
        return float(factor)
    return factor


def hilbert_pairing(
    f: WeightedFunction,
    g: WeightedFunction,
    trunc: TruncationSpec = NONE_TRUNCATION,
) -> float:
    """Transform-composed pairing: sum_k w_k g_k sum_i sigma_i f_i K(y_i - x_k).

    Here f lives over the source measure (atoms y_i) and g over the target
    (atoms x_k); the kernel argument is source minus target, matching the
    pointwise transform above.
    """
    sigma, w = f.base, g.base
    if sigma.n_atoms == 0 or w.n_atoms == 0:
        return 0.0
    diffs = sigma.positions_f[:, None] - w.positions_f[None, :]
    if trunc.mode == "none" and np.any(diffs == 0.0):
        raise AtomCollision("source and target measures share a position")
    k = kernel_values(diffs, trunc)
    src = f.values * sigma.masses_f
    tgt = g.values * w.masses_f
    return float(src @ k @ tgt)


def bilinear_form(
    f: WeightedFunction,
    g: WeightedFunction,
    trunc: TruncationSpec = NONE_TRUNCATION,
) -> float:
    """Exact double sum sum_k g_k w_k sum_i K(x_k - y_i) f_i sigma_i.

    The kernel argument here is target minus source; for the odd kernels
    this is the negative of :func:`hilbert_pairing`.
    """
    return -hilbert_pairing(f, g, trunc)


# ---------------------------------------------------------------------------
# truncation scan


def _rank_subsample(values: np.ndarray, count: int) -> np.ndarray:
    """Deterministic geometric-rank subsample keeping both extremes."""
    n = len(values)
    if n <= count:
        return values
    ranks = np.unique(np.round(np.geomspace(1, n, count)).astype(int) - 1)
    return values[ranks]


def truncation_candidates(
    distances, refinement: int = DEFAULT_REFINEMENT
) -> list[TruncationSpec]:
    """Candidate truncations for evaluating suprema over cutoffs.

    Includes the raw kernel, hard bands bracketing (possibly subsampled)
    critical distances, and tapered pairs over a geometrically refined value
    list that always contains the exact distances.
    """
    d = np.unique(np.asarray(distances, dtype=float))
    d = d[d > 0.0]
    cands = [NONE_TRUNCATION]
    if len(d) == 0:
        return cands
    hard_vals = _rank_subsample(d, max(2, 2 * refinement))
    lo = hard_vals * (1.0 - 1e-9)
    hi = hard_vals * (1.0 + 1e-9)
    for a in range(len(hard_vals)):
        for b in range(a, len(hard_vals)):
            cands.append(TruncationSpec("hard", float(lo[a]), float(hi[b])))
    smooth_base = _rank_subsample(d, max(2, refinement + 2))
    refined = [smooth_base]
    for u, v in zip(smooth_base[:-1], smooth_base[1:]):
        if v > u:
            refined.append(np.geomspace(u, v, refinement + 2)[1:-1])
    vals = np.unique(np.concatenate(refined + [[0.5 * d[0], 2.0 * d[-1]]]))
    vals = _rank_subsample(vals, max(3, 2 * refinement))
    big = 8.0 * d[-1]
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            cands.append(TruncationSpec("smooth", float(vals[i]), float(vals[j])))
        if big > vals[i]:
            cands.append(TruncationSpec("smooth", float(vals[i]), big))
    return cands


# elements per temporary when a run of candidates is broadcast at once
_STACK_BLOCK = 1 << 16


def kernel_stack(
    diffs: np.ndarray, candidates: Sequence[TruncationSpec]
) -> np.ndarray:
    """Kernel evaluated for every candidate: shape (T,) + diffs.shape.

    Bitwise equal, signed zeros included, to stacking :func:`kernel_values`
    per candidate: each run of same-mode candidates is broadcast in blocks,
    with the per-candidate scalars formed as Python floats exactly as
    :func:`smooth_kernel` forms them.
    """
    arr = np.asarray(diffs, dtype=float)
    out = np.empty((len(candidates),) + arr.shape)
    a = np.abs(arr)
    with np.errstate(divide="ignore"):
        inv = np.where(a > 0.0, 1.0 / arr, 0.0)
        inv_a = 1.0 / a
    neg_a = -a
    sign = np.sign(arr)
    block = max(1, _STACK_BLOCK // max(1, arr.size))
    lead = (-1,) + (1,) * arr.ndim

    def column(values):
        return np.asarray(values, dtype=float).reshape(lead)

    t0 = 0
    while t0 < len(candidates):
        mode = candidates[t0].mode
        t1 = t0 + 1
        while t1 < len(candidates) and t1 - t0 < block and candidates[t1].mode == mode:
            t1 += 1
        run = candidates[t0:t1]
        blk = out[t0:t1]
        if mode == "none":
            blk[...] = inv
        elif mode == "hard":
            inside = a > column([tr.inner for tr in run])
            inside &= a < column([tr.outer for tr in run])
            blk[...] = 0.0
            np.copyto(blk, inv, where=inside)
        else:
            alpha = [tr.inner for tr in run]
            beta = [tr.outer for tr in run]
            # taper everywhere, then zero beyond 2 beta, then 1/|y| up to
            # beta, then the linear rise below alpha; the same branches and
            # operations as smooth_kernel
            np.divide(neg_a, column([be**2 for be in beta]), out=blk)
            blk += column([2.0 / be for be in beta])
            np.copyto(blk, 0.0, where=a >= column([2.0 * be for be in beta]))
            np.copyto(blk, inv_a, where=a <= column(beta))
            rise = neg_a / column([al**2 for al in alpha])
            rise += column([2.0 / al for al in alpha])
            np.copyto(blk, rise, where=a < column(alpha))
            blk *= sign
        t0 = t1
    return out


# ---------------------------------------------------------------------------
# lemma-ratio diagnostics


@dataclass
class LemmaInstance:
    """Configuration for one lemma-ratio evaluation.

    Only the fields a given lemma quantifies over need to be set; a missing
    hypothesis raises PreconditionViolation naming the field.
    """

    sigma: AtomicMeasure | None = None
    w: AtomicMeasure | None = None
    k_interval: object = None  # K, strictly containing I
    i_interval: object = None  # I
    j_interval: object = None  # J (grid interval for the deeper estimate)
    g: WeightedFunction | None = None
    f: WeightedFunction | None = None
    nu_signs: np.ndarray | None = None  # nu = signs * mu masses, |signs| <= 1
    beta: float | None = None
    eps_delta: tuple[float, float] | None = None  # shared cutoff for the comparison
    x_points: np.ndarray | None = None
    grid: object = None
    mean_zero_tol: float = 1e-9


def _require(cond: bool, message: str):
    if not cond:
        raise PreconditionViolation(message)


def _interval_of(obj):
    return obj.interval if hasattr(obj, "interval") else obj


def _restrict_between(sigma: AtomicMeasure, outer, inner) -> AtomicMeasure:
    """Atoms of sigma inside outer but outside inner."""
    return sigma.restrict(_interval_of(outer)).restrict_complement(_interval_of(inner))


def _alpha_below(sigma: AtomicMeasure, g: WeightedFunction) -> float:
    """A cutoff strictly below every source-to-target distance."""
    if sigma.n_atoms == 0 or g.base.n_atoms == 0:
        return 1.0
    d = np.abs(sigma.positions_f[:, None] - g.base.positions_f[None, :])
    dmin = float(d.min())
    _require(dmin > 0.0, "source and target supports must be separated")
    return 0.5 * dmin


def lemma_ratio(lemma_id: str, instance: LemmaInstance) -> tuple[float, float, float]:
    """Evaluate both sides of a cited inequality; returns (lhs, rhs, ratio).

    ``ratio`` is lhs/rhs, or 0 when both sides vanish; the absolute constants
    the inequalities hide are reported, never asserted here.
    """
    from .poisson import poisson_stationary  # local import to avoid a cycle

    ins = instance
    if lemma_id == "monotonicity_P<H":
        _require(ins.sigma is not None and ins.g is not None, "sigma and g required")
        _require(ins.grid is not None, "a grid is required for the Haar multiplier")
        K, I = _interval_of(ins.k_interval), _interval_of(ins.i_interval)
        _require(K.contains_interval(I) and K.length_f > I.length_f, "K must strictly contain I")
        lo_i, hi_i = ins.g.base.index_range(I)
        outside = float(
            np.sum(np.abs(ins.g.values[:lo_i])) + np.sum(np.abs(ins.g.values[hi_i:]))
        )
        _require(outside == 0.0, "g must vanish outside I")
        _require(
            abs(float(np.sum(ins.g.values * ins.g.base.masses_f)))
            <= ins.mean_zero_tol * max(1.0, ins.g.norm()),
            "g must have zero w-integral on I",
        )
        mu_out = _restrict_between(ins.sigma, K, I)
        gbar = absolute_haar_multiplier(ins.g, ins.grid)
        ident = WeightedFunction.identity(gbar.base)
        lhs = poisson_stationary(mu_out, I) * (
            float(np.sum(ident.values / I.length_f * gbar.values * gbar.base.masses_f))
        )
        beta = ins.beta if ins.beta is not None else 4.0 * K.length_f
        _require(beta > 2.0 * I.length_f, "beta must exceed twice |I|")
        if mu_out.n_atoms == 0:
            return 0.0, 0.0, 0.0
        alpha = _alpha_below(mu_out, gbar)
        fsrc = WeightedFunction.constant(mu_out, 1.0)
        rhs = hilbert_pairing(fsrc, gbar, TruncationSpec("smooth", alpha, beta))
        return lhs, rhs, (lhs / rhs if rhs != 0.0 else (0.0 if lhs == 0.0 else math.inf))

    if lemma_id == "monotonicity_mono1":
        _require(ins.sigma is not None and ins.g is not None, "mu (as sigma) and g required")
        _require(ins.grid is not None, "a grid is required for the Haar multiplier")
        K, I = _interval_of(ins.k_interval), _interval_of(ins.i_interval)
        J = ins.j_interval
        _require(J is not None, "a grid interval J is required")
        mu = _restrict_between(ins.sigma, K, I)
        signs = np.ones(mu.n_atoms) if ins.nu_signs is None else np.asarray(ins.nu_signs)
        _require(len(signs) == mu.n_atoms, "nu_signs must align with the atoms of mu on K - I")
        _require(np.all(np.abs(signs) <= 1.0 + 1e-15), "|nu| <= mu is violated")
        if mu.n_atoms == 0:
            return 0.0, 0.0, 0.0
        gbar = absolute_haar_multiplier(ins.g, ins.grid)
        ident = WeightedFunction.identity(gbar.base)
        jint = _interval_of(J)
        rhs = poisson_stationary(mu, jint) * float(
            np.sum(ident.values / jint.length_f * gbar.values * gbar.base.masses_f)
        )
        beta = ins.beta if ins.beta is not None else 4.0 * K.length_f
        alpha0 = _alpha_below(mu, ins.g)
        # sup over truncations of |<H nu, g>|: scan cutoffs at the critical
        # distances between the holes and the support of g.
        dists = np.abs(mu.positions_f[:, None] - ins.g.base.positions_f[None, :]).ravel()
        alphas = np.unique(np.concatenate([[alpha0], dists * (1 - 1e-9), dists * (1 + 1e-9)]))
        alphas = alphas[(alphas > 0) & (alphas < beta)]
        nu_f = WeightedFunction(mu, signs)
        lhs = max(
            abs(hilbert_pairing(nu_f, ins.g, TruncationSpec("smooth", float(a), beta)))
            for a in alphas
        )
        return lhs, rhs, (lhs / rhs if rhs != 0.0 else (0.0 if lhs == 0.0 else math.inf))

    if lemma_id == "weak_boundedness":
        _require(ins.sigma is not None and ins.w is not None, "sigma and w required")
        I, J = _interval_of(ins.i_interval), _interval_of(ins.j_interval)
        share = I.right == J.left or J.right == I.left
        _require(share, "I and J must share an endpoint")
        a = I.right if I.right == J.left else J.right
        _require(
            all(p != a for p in ins.sigma.positions) and all(p != a for p in ins.w.positions),
            "neither measure may charge the shared endpoint",
        )
        sI = ins.sigma.restrict(I)
        wJ = ins.w.restrict(J)
        if sI.n_atoms == 0 or wJ.n_atoms == 0:
            return 0.0, 0.0, 0.0
        from .constants import a2_constant  # local import to avoid a cycle

        a2 = a2_constant(ins.sigma, ins.w)
        rhs = math.sqrt(a2) * math.sqrt(sI.total_mass * wJ.total_mass)
        f1 = WeightedFunction.constant(sI, 1.0)
        g1 = WeightedFunction.constant(wJ, 1.0)
        dists = np.abs(sI.positions_f[:, None] - wJ.positions_f[None, :]).ravel()
        cands = truncation_candidates(dists, refinement=4)
        lhs = max(abs(hilbert_pairing(f1, g1, tr)) for tr in cands)
        return lhs, rhs, (lhs / rhs if rhs != 0.0 else (0.0 if lhs == 0.0 else math.inf))

    if lemma_id == "truncation_compare":
        _require(ins.sigma is not None and ins.f is not None, "sigma and |f| required")
        _require(ins.eps_delta is not None, "a shared (inner, outer) pair is required")
        e, dlt = ins.eps_delta
        absf = np.abs(ins.f.values)
        xs = (
            ins.x_points
            if ins.x_points is not None
            else np.linspace(-1.0, 2.0, 41)
        )
        worst = (0.0, 0.0)
        best_ratio = 0.0
        for x in np.asarray(xs, dtype=float):
            hard = transform(ins.sigma, absf, x, TruncationSpec("hard", e, dlt))
            smooth = transform(ins.sigma, absf, x, TruncationSpec("smooth", e, dlt))
            lhs = abs(hard - smooth)
            rhs = single_scale_average(ins.sigma, absf, x, e) + single_scale_average(
                ins.sigma, absf, x, dlt
            )
            if lhs > 0.0 and rhs > 0.0 and lhs / rhs > best_ratio:
                best_ratio = lhs / rhs
                worst = (lhs, rhs)
        return worst[0], worst[1], best_ratio

    raise ValueError(f"unknown lemma id {lemma_id!r}")
