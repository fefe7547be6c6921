"""Truncated Hilbert kernels and the pairing built from them.

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
tapered pairs on a geometrically refined value list.  A scan is one
:class:`TruncationTable` of mode codes and radii, read as columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AtomCollision, PreconditionViolation
from .measure import AtomicMeasure, _as_interval
from .haar import WeightedFunction, absolute_haar_multiplier
from .params import DEFAULT_REFINEMENT

__all__ = [
    "TruncationSpec",
    "TruncationTable",
    "smooth_kernel",
    "kernel_values",
    "transform",
    "single_scale_average",
    "kernel_difference_factor",
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

_MODES = ("none", "hard", "smooth")
_NONE, _HARD, _SMOOTH = range(3)


class TruncationTable:
    """Truncations as columns: ``code`` indexes ``_MODES``, ``inner`` and
    ``outer`` hold the radii.  Rows are checked as :class:`TruncationSpec`
    checks them; indexing or iterating gives each as a TruncationSpec."""

    def __init__(self, code, inner, outer):
        self.code = np.asarray(code, dtype=np.int8)
        self.inner = np.asarray(inner, dtype=float)
        self.outer = np.asarray(outer, dtype=float)
        if np.any((self.code < _NONE) | (self.code > _SMOOTH)):
            raise ValueError("unknown truncation mode code")
        ordered = self.inner < self.outer
        if not np.all((0.0 < self.inner) & ordered | (self.code != _SMOOTH)):
            raise ValueError("smooth truncation requires 0 < alpha < beta")
        if not np.all((0.0 <= self.inner) & ordered | (self.code != _HARD)):
            raise ValueError("hard truncation requires inner < outer")

    def __len__(self) -> int:
        return len(self.code)

    def __getitem__(self, t: int) -> TruncationSpec:
        return TruncationSpec(_MODES[self.code[t]], float(self.inner[t]), float(self.outer[t]))


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


# ---------------------------------------------------------------------------
# truncation scan


def _rank_subsample(values: np.ndarray, count: int) -> np.ndarray:
    """Deterministic geometric-rank subsample keeping both extremes."""
    return values if len(values) <= count else values[_ranks(len(values), count)]


# Index arrays that depend on sizes only, shared read-only by every call.
@lru_cache(maxsize=1024)
def _ranks(n: int, count: int) -> np.ndarray:
    ranks = np.unique(np.round(np.geomspace(1, n, count)).astype(int) - 1)
    ranks.flags.writeable = False
    return ranks


@lru_cache(maxsize=16)
def _triu(n: int, k: int) -> np.ndarray:
    pairs = np.array(np.triu_indices(n, k))
    pairs.flags.writeable = False
    return pairs


def truncation_candidates(distances, refinement: int = DEFAULT_REFINEMENT) -> TruncationTable:
    """Candidate truncations for evaluating suprema over cutoffs, one table:
    the raw kernel, hard bands (lo[a], hi[b]), a <= b, bracketing (possibly
    subsampled) critical distances, and tapered pairs (vals[i], vals[j]),
    i < j, each row i then followed by (vals[i], 8 max d) if that is larger.
    vals is a geometrically refined value list that always contains the
    exact distances; one ``np.geomspace`` over all consecutive pairs gives
    each pair's values as its own call does."""
    d = np.unique(np.asarray(distances, dtype=float))
    d = d[d > 0.0]
    if len(d) == 0:
        return TruncationTable([_NONE], [0.0], [_INF])
    hard_vals = _rank_subsample(d, max(2, 2 * refinement))
    a, b = _triu(len(hard_vals), 0)
    smooth_base = _rank_subsample(d, max(2, refinement + 2))
    refined = np.geomspace(smooth_base[:-1], smooth_base[1:], refinement + 2)[1:-1]
    vals = np.unique(np.concatenate((smooth_base, refined.ravel(), [0.5 * d[0], 2.0 * d[-1]])))
    vals = _rank_subsample(vals, max(3, 2 * refinement))
    ext = np.append(vals, 8.0 * d[-1])
    i, j = _triu(len(ext), 1)
    keep = (j < len(vals)) | (ext[-1] > ext[i])
    i, j = i[keep], j[keep]
    code = np.repeat(np.array([_NONE, _HARD, _SMOOTH], dtype=np.int8), [1, len(a), len(i)])
    inner = np.concatenate(([0.0], hard_vals[a] * (1.0 - 1e-9), ext[i]))
    outer = np.concatenate(([_INF], hard_vals[b] * (1.0 + 1e-9), ext[j]))
    return TruncationTable(code, inner, outer)


# elements per temporary when a run of candidates is broadcast at once
_STACK_BLOCK = 1 << 16


def kernel_stack(diffs: np.ndarray, candidates: TruncationTable) -> np.ndarray:
    """Kernel evaluated for every candidate: shape (T,) + diffs.shape.

    Bitwise equal, signed zeros included, to stacking :func:`kernel_values`
    per candidate: each run of same-mode rows is broadcast in blocks, with
    the per-candidate scalars formed as :func:`smooth_kernel` forms them
    (the squares as Python float squares, libm ``pow``, not numpy's x * x).
    """
    arr = np.asarray(diffs, dtype=float)
    code = candidates.code
    out = np.empty((len(code),) + arr.shape)
    a = np.abs(arr)
    with np.errstate(divide="ignore"):
        inv = np.where(a > 0.0, 1.0 / arr, 0.0)
        inv_a = 1.0 / a
    neg_a = -a
    sign = np.sign(arr)
    block = max(1, _STACK_BLOCK // max(1, arr.size))
    lead = (-1,) + (1,) * arr.ndim
    bounds = [0, *(np.flatnonzero(np.diff(code)) + 1).tolist(), len(code)]
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        for t0 in range(r0, r1, block):
            t1 = min(t0 + block, r1)
            blk = out[t0:t1]
            alpha = candidates.inner[t0:t1].reshape(lead)
            beta = candidates.outer[t0:t1].reshape(lead)
            if code[t0] == _NONE:
                blk[...] = inv
            elif code[t0] == _HARD:
                inside = a > alpha
                inside &= a < beta
                blk[...] = 0.0
                np.copyto(blk, inv, where=inside)
            else:
                # taper everywhere, then zero beyond 2 beta, then 1/|y| up to
                # beta, then the linear rise below alpha; the same branches and
                # operations as smooth_kernel
                np.divide(neg_a, _squares(beta), out=blk)
                blk += 2.0 / beta
                np.copyto(blk, 0.0, where=a >= 2.0 * beta)
                np.copyto(blk, inv_a, where=a <= beta)
                rise = neg_a / _squares(alpha)
                rise += 2.0 / alpha
                np.copyto(blk, rise, where=a < alpha)
                blk *= sign
    return out


def _squares(x: np.ndarray) -> np.ndarray:
    """Each entry's Python float square (libm ``pow``, which can differ from
    numpy's x * x in the last bit), in x's shape."""
    return np.array([v**2 for v in x.ravel().tolist()]).reshape(x.shape)


# ---------------------------------------------------------------------------
# lemma-ratio diagnostics


# the mean-zero hypothesis: |integral of g dw| <= this times max(1, ||g||)
_MEAN_ZERO_TOL = 1e-9


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
    a2: float | None = None  # A2 of (sigma, w); computed when not given


def _require(cond: bool, message: str):
    if not cond:
        raise PreconditionViolation(message)


def _restrict_between(sigma: AtomicMeasure, outer, inner) -> AtomicMeasure:
    """Atoms of sigma inside outer but outside inner."""
    return sigma.restrict(outer).restrict_complement(inner)


def _alpha_below(sigma: AtomicMeasure, g: WeightedFunction) -> float:
    """A cutoff strictly below every source-to-target distance."""
    if sigma.n_atoms == 0 or g.base.n_atoms == 0:
        return 1.0
    d = np.abs(sigma.positions_f[:, None] - g.base.positions_f[None, :])
    dmin = float(d.min())
    _require(dmin > 0.0, "source and target supports must be separated")
    return 0.5 * dmin


def _pairing_scan(f: WeightedFunction, g: WeightedFunction, cands: TruncationTable) -> float:
    """max over the candidates of |hilbert_pairing(f, g, candidate)|.

    One kernel stack for all candidates, then one ``src @ K_t @ tgt`` per
    candidate: each value is bitwise equal to its :func:`hilbert_pairing`
    (a single batched matmul over the stack would not be).  Mode ``none``
    needs disjoint supports, as the pairing does.
    """
    sigma, w = f.base, g.base
    if sigma.n_atoms == 0 or w.n_atoms == 0:
        return 0.0
    diffs = sigma.positions_f[:, None] - w.positions_f[None, :]
    if np.any(cands.code == _NONE) and np.any(diffs == 0.0):
        raise AtomCollision("source and target measures share a position")
    stack = kernel_stack(diffs, cands)
    src = f.values * sigma.masses_f
    tgt = g.values * w.masses_f
    return max(abs(float(src @ k @ tgt)) for k in stack)


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
        K, I = _as_interval(ins.k_interval), _as_interval(ins.i_interval)
        _require(K.contains_interval(I) and K.length_f > I.length_f, "K must strictly contain I")
        lo_i, hi_i = ins.g.base.index_range(I)
        outside = float(
            np.sum(np.abs(ins.g.values[:lo_i])) + np.sum(np.abs(ins.g.values[hi_i:]))
        )
        _require(outside == 0.0, "g must vanish outside I")
        _require(
            abs(float(np.sum(ins.g.values * ins.g.base.masses_f)))
            <= _MEAN_ZERO_TOL * max(1.0, ins.g.norm()),
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
        K, I = _as_interval(ins.k_interval), _as_interval(ins.i_interval)
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
        jint = _as_interval(J)
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
        cands = TruncationTable(np.full(len(alphas), _SMOOTH), alphas, np.full(len(alphas), beta))
        lhs = _pairing_scan(WeightedFunction(mu, signs), ins.g, cands)
        return lhs, rhs, (lhs / rhs if rhs != 0.0 else (0.0 if lhs == 0.0 else math.inf))

    if lemma_id == "weak_boundedness":
        _require(ins.sigma is not None and ins.w is not None, "sigma and w required")
        I, J = _as_interval(ins.i_interval), _as_interval(ins.j_interval)
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
        a2 = ins.a2
        if a2 is None:
            from .constants import a2_constant  # local import to avoid a cycle

            a2 = a2_constant(ins.sigma, ins.w)
        rhs = math.sqrt(a2) * math.sqrt(sI.total_mass * wJ.total_mass)
        f1 = WeightedFunction.constant(sI, 1.0)
        g1 = WeightedFunction.constant(wJ, 1.0)
        dists = np.abs(sI.positions_f[:, None] - wJ.positions_f[None, :]).ravel()
        lhs = _pairing_scan(f1, g1, truncation_candidates(dists, refinement=4))
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
