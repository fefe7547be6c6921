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
:class:`TruncationTable` of mode codes and radii, read as columns, and
:func:`kernel_stack` evaluates it in blocks, a tapered block from one row
per distinct cutoff.  The lemma scans never hold a whole stack: they take
each block's pairings and reuse its buffer.  Each batched evaluation (the
stack, the pairing scan, :func:`truncation_compare` over all its points)
makes every value by the operations its scalar counterpart makes, so none
moves a bit.

The monotonicity lemmas read P(mu, I) from ``poisson``, below this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AtomCollision, PreconditionViolation
from .measure import AtomicMeasure, range_sum
from .haar import WeightedFunction, absolute_haar_multiplier
from .params import DEFAULT_REFINEMENT
from .poisson import poisson_stationary

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
    "monotonicity_p_less_h",
    "monotonicity_mono1",
    "weak_boundedness",
    "truncation_compare",
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
    out[lin] = -a[lin] / (alpha * alpha) + 2.0 / alpha
    out[mid] = 1.0 / a[mid]
    out[tap] = -a[tap] / (beta * beta) + 2.0 / beta
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
        return smooth_kernel(arr, trunc.inner, trunc.outer)
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
    return range_sum(vals[mask].tolist()) / alpha


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

    Arrays are filled a block of whole rows along the first axis at a time,
    at most ``_STACK_BLOCK // 8`` triples (at least one row): a triple's
    temporaries are about six doubles, so a block's stay within
    ``_STACK_BLOCK`` doubles, as a kernel stack block's do.  Every
    operation is elementwise, so each value is the one an unblocked call
    makes.
    """
    if np.isscalar(x) and np.isscalar(x_prime) and np.isscalar(y):
        return float(_difference_factor(x, x_prime, y, alpha, beta))
    xa, xpa, ya = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, x_prime, y)))
    rows = max(1, _STACK_BLOCK // 8 // max(1, math.prod(xa.shape[1:])))
    if xa.ndim == 0 or len(xa) <= rows:
        return _difference_factor(xa, xpa, ya, alpha, beta)
    out = np.empty(xa.shape)
    for t0 in range(0, len(xa), rows):
        t1 = t0 + rows
        out[t0:t1] = _difference_factor(xa[t0:t1], xpa[t0:t1], ya[t0:t1], alpha, beta)
    return out


def _difference_factor(x, x_prime, y, alpha: float, beta: float) -> np.ndarray:
    """:func:`kernel_difference_factor` of aligned values, unblocked."""
    xa = np.asarray(x, dtype=float)
    xpa = np.asarray(x_prime, dtype=float)
    ya = np.asarray(y, dtype=float)
    k_diff = smooth_kernel(ya - xpa, alpha, beta) - smooth_kernel(ya - xa, alpha, beta)
    denom_num = (ya - xa) * (ya - xpa)
    dx = xpa - xa
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(dx != 0.0, k_diff * denom_num / np.where(dx == 0.0, 1.0, dx), 1.0)


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


def _bases(distances, refinement: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted distinct positive distances, the hard values subsampled
    from them and the smooth base that the tapered values refine."""
    d = np.unique(np.asarray(distances, dtype=float))
    d = d[d > 0.0]
    return d, _rank_subsample(d, max(2, 2 * refinement)), _rank_subsample(d, max(2, refinement + 2))


def _rank_floor(n: int, count: int) -> int:
    """A floor of ``len(_ranks(n, count))``, n > count >= 2, built from no
    array: the points n^(j / (count - 1)) whose step to the next is more
    than one, with room for np.geomspace's rounding (far below n 2^-40),
    round to distinct ranks.  It does not decrease as n grows."""
    step = math.expm1(math.log(n) / (count - 1))
    start = 1.001 * (1.0 + n * 2.0**-38) / step
    if start <= 1.0:
        return count
    first = math.ceil((count - 1) * math.log(start) / math.log(n)) + 1
    return max(0, count - first)


def _candidate_floor(distances, refinement: int) -> tuple[int, int]:
    """A floor of the row count of ``truncation_candidates(distances,
    refinement)``, and the number of doubles in the array of refined values
    that it builds, both without building any array of refinement's size.

    The floor counts the hard bands and the pairs of a floor of the tapered
    values.  A smooth-base step s < t whose log(t / s) / (refinement + 1) is
    at least 2^-36, both ends normal doubles, adds refinement values inside
    (s, t) that no other value equals: np.geomspace rounds each of its
    values far closer than that (log10, linspace and power give about
    2^-42 at the largest exponents).  The rank subsample keeps all the
    values up to its width and at least :func:`_rank_floor` of them past it.
    """
    d, hard_vals, smooth_base = _bases(distances, refinement)
    if len(d) == 0:
        return 1, 0
    lo, hi = smooth_base[:-1], smooth_base[1:]
    normal = (lo >= 2.0**-1000) & (hi <= 2.0**1000)
    steps = np.log(hi[normal]) - np.log(lo[normal])
    wide = int(np.count_nonzero(steps >= 2.0**-36 * (refinement + 1)))
    values = len(smooth_base) + refinement * wide
    width = max(3, 2 * refinement)
    n_vals = min(values, _rank_floor(max(values, width + 1), width))
    n_hard = len(hard_vals)
    rows = 1 + n_hard * (n_hard + 1) // 2 + n_vals * (n_vals - 1) // 2
    return rows, (len(smooth_base) - 1) * (refinement + 2)


def truncation_candidates(
    distances, refinement: int = DEFAULT_REFINEMENT, check_rows=None
) -> TruncationTable:
    """Candidate truncations for evaluating suprema over cutoffs, one table:
    the raw kernel, hard bands (lo[a], hi[b]), a <= b, bracketing (possibly
    subsampled) critical distances, and tapered pairs (vals[i], vals[j]),
    i < j, each row i then followed by (vals[i], 8 max d) if that is larger.
    vals is a geometrically refined value list that always contains the
    exact distances; one ``np.geomspace`` over all consecutive pairs gives
    each pair's values as its own call does.  ``check_rows``, when given, is
    called with the table's row count before any index array is built, so
    that a caller can refuse a table too large for it; :func:`_candidate_floor`
    bounds that count before the refined values are built."""
    d, hard_vals, smooth_base = _bases(distances, refinement)
    if len(d) == 0:
        return TruncationTable([_NONE], [0.0], [_INF])
    refined = np.geomspace(smooth_base[:-1], smooth_base[1:], refinement + 2)[1:-1]
    vals = np.unique(np.concatenate((smooth_base, refined.ravel(), [0.5 * d[0], 2.0 * d[-1]])))
    vals = _rank_subsample(vals, max(3, 2 * refinement))
    ext = np.append(vals, 8.0 * d[-1])
    if check_rows is not None:
        n_hard, n_vals = len(hard_vals), len(vals)
        n_smooth = n_vals * (n_vals - 1) // 2 + int(np.count_nonzero(vals < ext[-1]))
        check_rows(1 + n_hard * (n_hard + 1) // 2 + n_smooth)
    a, b = _triu(len(hard_vals), 0)
    i, j = _triu(len(ext), 1)
    keep = (j < len(vals)) | (ext[-1] > ext[i])
    i, j = i[keep], j[keep]
    code = np.repeat(np.array([_NONE, _HARD, _SMOOTH], dtype=np.int8), [1, len(a), len(i)])
    inner = np.concatenate(([0.0], hard_vals[a] * (1.0 - 1e-9), ext[i]))
    outer = np.concatenate(([_INF], hard_vals[b] * (1.0 + 1e-9), ext[j]))
    return TruncationTable(code, inner, outer)


# elements per temporary when a run of candidates is broadcast at once
_STACK_BLOCK = 1 << 16


def _tapered_block(blk, alpha, beta, a, neg_a, inv, sign, work, below) -> None:
    """Fill ``blk`` with the tapered kernels of the (alpha, beta) rows, from
    the rows of the distinct betas, gathered, and the rises of the distinct
    alphas copied in below alpha (:func:`kernel_stack`).  ``work`` and
    ``below`` are scratch rows, at least as many as ``blk`` has."""
    col = (-1,) + alpha.shape[1:]
    betas, at_beta = np.unique(beta, return_inverse=True)
    betas = betas.reshape(col)
    rows, mask = work[: len(betas)], below[: len(betas)]
    np.divide(neg_a, betas * betas, out=rows)
    rows += 2.0 / betas
    np.greater_equal(a, 2.0 * betas, out=mask)
    np.copyto(rows, 0.0, where=mask)
    rows *= sign
    np.less_equal(a, betas, out=mask)
    np.copyto(rows, inv, where=mask)
    np.take(rows, at_beta.ravel(), axis=0, out=blk, mode="clip")
    alphas, at_alpha = np.unique(alpha, return_inverse=True)
    if len(alphas) == len(alpha):
        # all distinct: formed in row order, each copied in under its own mask
        alphas, at_alpha = alpha, None
    alphas = alphas.reshape(col)
    rise, mask = work[: len(alphas)], below[: len(blk)]
    np.divide(neg_a, alphas * alphas, out=rise)
    rise += 2.0 / alphas
    rise *= sign
    if at_alpha is None:
        np.less(a, alpha, out=mask)
        np.copyto(blk, rise, where=mask)
        return
    # each run of rows sharing an alpha takes that alpha's row under one mask
    at_alpha = at_alpha.ravel()
    starts = [0, *(np.flatnonzero(np.diff(at_alpha)) + 1).tolist(), len(blk)]
    for s0, s1 in zip(starts[:-1], starts[1:]):
        k = at_alpha[s0]
        np.less(a, alphas[k], out=mask[0])
        np.copyto(blk[s0:s1], rise[k], where=mask[0])


def kernel_stack(diffs: np.ndarray, candidates: TruncationTable) -> np.ndarray:
    """Kernel evaluated for every candidate: shape (T,) + diffs.shape.

    Bitwise equal, signed zeros included, to stacking :func:`kernel_values`
    per candidate.  Each run of same-mode rows is filled in blocks of at
    most ``_STACK_BLOCK`` elements (:func:`_kernel_blocks`).
    """
    arr = np.asarray(diffs, dtype=float)
    out = np.empty((len(candidates),) + arr.shape)
    for _ in _kernel_blocks(arr, candidates, out):
        pass
    return out


def _kernel_blocks(arr: np.ndarray, candidates: TruncationTable, out=None):
    """Fill the kernel rows of ``candidates`` over the differences ``arr``
    a block at a time and yield each block, a run of same-mode rows of at
    most ``_STACK_BLOCK`` elements (at least one row).  Rows t0:t1 go to
    out[t0:t1] when ``out`` is given, one row per candidate, and otherwise
    to the head of one buffer of a block, reused by the next block.

    A tapered block is built from per-cutoff rows, formed once per distinct
    value in the block: the signed row of each beta (1/y up to beta, the
    taper up to 2 beta, zero beyond) and the signed linear rise of each
    alpha, in one block of scratch rows per call.  Each candidate's row is
    then its beta row, gathered, with its alpha row copied in below alpha.
    Every entry is the value :func:`smooth_kernel` selects, made by the same
    operations on the same scalars (each square x * x): multiplying by the
    sign before the selection rather than after it moves no bit, and 1/y is
    sign(y) / |y| exactly.  No row depends on the others in its block, so neither does
    any bit on where the blocks fall.
    """
    code = candidates.code
    a = np.abs(arr)
    with np.errstate(divide="ignore"):
        inv = np.where(a > 0.0, 1.0 / arr, 0.0)
    neg_a = -a
    sign = np.sign(arr)
    block = max(1, _STACK_BLOCK // max(1, arr.size))
    lead = (-1,) + (1,) * arr.ndim
    bounds = [0, *(np.flatnonzero(np.diff(code)) + 1).tolist(), len(code)]
    reuse = out is None
    if reuse:
        out = np.empty((min(block, len(code)),) + arr.shape)
    span = min(block, len(code)) if np.any(code == _SMOOTH) else 0
    work, below = np.empty((span,) + arr.shape), np.empty((span,) + arr.shape, dtype=bool)
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        for t0 in range(r0, r1, block):
            t1 = min(t0 + block, r1)
            blk = out[: t1 - t0] if reuse else out[t0:t1]
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
                _tapered_block(blk, alpha, beta, a, neg_a, inv, sign, work, below)
            yield blk


# ---------------------------------------------------------------------------
# lemma diagnostics


# the mean-zero hypothesis: |integral of g dw| <= this times max(1, ||g||)
_MEAN_ZERO_TOL = 1e-9


def _require(cond: bool, message: str):
    if not cond:
        raise PreconditionViolation(message)


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

    The kernel rows are built a block of at most ``_STACK_BLOCK`` elements
    at a time into one reused buffer (:func:`_kernel_blocks`), so a scan
    needs a block, not T rows of n x m doubles.  ``src @ block`` makes each
    row ``src @ K_t`` by the same vector-matrix product a single
    candidate's pairing makes, wherever the block falls; then one dot of
    each row with ``tgt``, as :func:`hilbert_pairing` takes it.  So each
    value is bitwise its pairing's; a (T, m) @ (m,) matrix-vector product
    for the last step would not be.  One ``max`` folds the values of every
    block in candidate order from the first, as ``max`` over the pairings
    does; a max of per-block maxima would differ from it when a value is
    NaN.  Mode ``none`` needs disjoint supports, as the pairing does.
    """
    sigma, w = f.base, g.base
    if sigma.n_atoms == 0 or w.n_atoms == 0:
        return 0.0
    diffs = sigma.positions_f[:, None] - w.positions_f[None, :]
    if np.any(cands.code == _NONE) and np.any(diffs == 0.0):
        raise AtomCollision("source and target measures share a position")
    src = f.values * sigma.masses_f
    tgt = g.values * w.masses_f
    return max(abs(float(row @ tgt)) for blk in _kernel_blocks(diffs, cands) for row in src @ blk)


def _sides(lhs: float, rhs: float) -> tuple[float, float, float]:
    """(lhs, rhs, lhs/rhs), the ratio 0 when both sides vanish and inf when
    only the right side does."""
    return lhs, rhs, (lhs / rhs if rhs != 0.0 else (0.0 if lhs == 0.0 else math.inf))


def _moment(gbar: WeightedFunction, interval) -> float:
    """<x/|interval|, gbar>_w, the pairing of both monotonicity displays."""
    ident = WeightedFunction.identity(gbar.base)
    return float(np.sum(ident.values / interval.length_f * gbar.values * gbar.base.masses_f))


def monotonicity_p_less_h(
    sigma: AtomicMeasure, g: WeightedFunction, k_interval, i_interval, grid
) -> tuple[float, float, float]:
    """(lhs, rhs, ratio) of P(sigma_out, I) <x/|I|, |g|>_w against the
    smooth-truncated <H(sigma_out), |g|>_w (taper at beta = 4|K|), with
    sigma_out sigma's atoms in K outside I and |g| the absolute Haar
    multiplier on ``grid`` of g, which vanishes off I and has zero
    w-integral.  The constant the inequality hides is reported, never
    asserted; so in each lemma function, each of which takes its intervals
    as ``GridInterval``s of one grid."""
    K, I = k_interval, i_interval
    _require(K.contains(I) and K.level < I.level, "K must strictly contain I")
    lo_i, hi_i = g.base.index_range(I)
    outside = float(np.sum(np.abs(g.values[:lo_i])) + np.sum(np.abs(g.values[hi_i:])))
    _require(outside == 0.0, "g must vanish outside I")
    _require(
        abs(float(np.sum(g.values * g.base.masses_f))) <= _MEAN_ZERO_TOL * max(1.0, g.norm()),
        "g must have zero w-integral on I",
    )
    mu_out = sigma.restrict(K).restrict_complement(I)
    gbar = absolute_haar_multiplier(g, grid)
    lhs = poisson_stationary(mu_out, I) * _moment(gbar, I)
    beta = 4.0 * K.length_f
    _require(beta > 2.0 * I.length_f, "beta must exceed twice |I|")
    if mu_out.n_atoms == 0:
        return 0.0, 0.0, 0.0
    alpha = _alpha_below(mu_out, gbar)
    fsrc = WeightedFunction.constant(mu_out, 1.0)
    return _sides(lhs, hilbert_pairing(fsrc, gbar, TruncationSpec("smooth", alpha, beta)))


def monotonicity_mono1(
    mu: AtomicMeasure, g: WeightedFunction, k_interval, i_interval, j_interval, grid, nu_signs
) -> tuple[float, float, float]:
    """(lhs, rhs, ratio) of the supremum over smooth truncations (taper at
    beta = 4|K|) of |<H nu, g>_w| against P(mu_0, J) <x/|J|, |g|>_w, with
    mu_0 mu's atoms in K outside I, nu = ``nu_signs`` (one per atom of mu_0,
    at most 1 in size) times mu_0 and |g| as in the P < H lemma."""
    K, I, J = k_interval, i_interval, j_interval
    mu = mu.restrict(K).restrict_complement(I)
    signs = np.asarray(nu_signs)
    _require(len(signs) == mu.n_atoms, "nu_signs must align with the atoms of mu on K - I")
    _require(np.all(np.abs(signs) <= 1.0 + 1e-15), "|nu| <= mu is violated")
    if mu.n_atoms == 0:
        return 0.0, 0.0, 0.0
    gbar = absolute_haar_multiplier(g, grid)
    rhs = poisson_stationary(mu, J) * _moment(gbar, J)
    beta = 4.0 * K.length_f
    alpha0 = _alpha_below(mu, g)
    # sup over truncations of |<H nu, g>|: scan cutoffs at the critical
    # distances between the holes and the support of g.
    dists = np.abs(mu.positions_f[:, None] - g.base.positions_f[None, :]).ravel()
    alphas = np.unique(np.concatenate([[alpha0], dists * (1 - 1e-9), dists * (1 + 1e-9)]))
    alphas = alphas[(alphas > 0) & (alphas < beta)]
    cands = TruncationTable(np.full(len(alphas), _SMOOTH), alphas, np.full(len(alphas), beta))
    return _sides(_pairing_scan(WeightedFunction(mu, signs), g, cands), rhs)


def weak_boundedness(
    sigma: AtomicMeasure, w: AtomicMeasure, i_interval, j_interval, a2: float
) -> tuple[float, float, float]:
    """(lhs, rhs, ratio) of the supremum over the truncation scan
    (refinement 4) of |<H(sigma 1_I), 1_J>_w| against
    sqrt(a2 sigma(I) w(J)), for I and J sharing an endpoint that neither
    measure charges and ``a2`` the pair's A2.  The endpoint and the atoms
    on it are found exactly, as slots of the grid's finest lattice."""
    I, J = i_interval, j_interval
    grid = I.grid
    _require(J.grid == grid, "I and J must lie on one grid")

    def slots(G):  # G's endpoints as slots of the grid's finest level
        step = grid.depth - G.level
        return G.index << step, (G.index + 1) << step

    (i0, i1), (j0, j1) = slots(I), slots(J)
    _require(i1 == j0 or j1 == i0, "I and J must share an endpoint")
    slot = i1 if i1 == j0 else j1
    _require(
        all(grid.endpoint_slot(x) != slot for x in sigma.positions + w.positions),
        "neither measure may charge the shared endpoint",
    )
    sI, wJ = sigma.restrict(I), w.restrict(J)
    if sI.n_atoms == 0 or wJ.n_atoms == 0:
        return 0.0, 0.0, 0.0
    rhs = math.sqrt(a2) * math.sqrt(sI.total_mass * wJ.total_mass)
    f1 = WeightedFunction.constant(sI, 1.0)
    g1 = WeightedFunction.constant(wJ, 1.0)
    dists = np.abs(sI.positions_f[:, None] - wJ.positions_f[None, :]).ravel()
    return _sides(_pairing_scan(f1, g1, truncation_candidates(dists, refinement=4)), rhs)


def truncation_compare(
    f: WeightedFunction, inner: float, outer: float, x_points
) -> tuple[float, float, float]:
    """(lhs, rhs, ratio) at the point of ``x_points`` with the largest
    ratio of |hard - smooth transform| of |f| d(f.base) at the cutoffs
    (inner, outer) to the single-scale averages at both; (0, 0, 0) when no
    point has both sides positive.

    One (points x atoms) array of differences serves every point: each
    kernel is applied to it once and each transform is a row sum, which
    reduces a C-ordered row as :func:`transform` reduces its 1-D product.
    A window (x - 3a, x + 3a) holds a contiguous run of the sorted atoms,
    found by ``searchsorted``, and its sum is that run's correctly rounded
    sum, as :func:`single_scale_average` sums its masked copy.  So every
    value is bitwise the per-point one."""
    xs = np.asarray(x_points, dtype=float)
    if len(xs) == 0:
        return 0.0, 0.0, 0.0
    hard_spec = TruncationSpec("hard", inner, outer)
    smooth_spec = TruncationSpec("smooth", inner, outer)
    sigma = f.base
    if sigma.n_atoms == 0:
        return 0.0, 0.0, 0.0
    pos = sigma.positions_f
    vals = sigma.masses_f * np.abs(f.values)
    diffs = pos - xs[:, None]
    hard = (vals * kernel_values(diffs, hard_spec)).sum(axis=1).tolist()
    smooth = (vals * kernel_values(diffs, smooth_spec)).sum(axis=1).tolist()
    terms = vals.tolist()

    def averages(c):
        los = np.searchsorted(pos, xs - 3.0 * c, "right").tolist()
        his = np.searchsorted(pos, xs + 3.0 * c, "left").tolist()
        return [range_sum(terms[lo:hi]) / c for lo, hi in zip(los, his)]

    best = (0.0, 0.0, 0.0)
    for h, s, at_inner, at_outer in zip(hard, smooth, averages(inner), averages(outer)):
        lhs = abs(h - s)
        rhs = at_inner + at_outer
        if lhs > 0.0 and rhs > 0.0 and lhs / rhs > best[2]:
            best = (lhs, rhs, lhs / rhs)
    return best
