"""The constant zoo for a weight pair.

kernel_scan        the truncation scan of a pair and its unscaled kernel
                   stack, built once and shared by the norm and both testing
                   constants;
norm_constant      largest singular value of the truncated kernel matrix,
                   maximized over the truncation scan (dense batched SVD);
                   an exact branch-and-bound in two stages: a Frobenius
                   bound per candidate from the unscaled stack orders the
                   candidates and seeds the running best, and a certified
                   Gram-power bound, ||(A^T A)^8||_F^(1/16), ranks the ones
                   it leaves; both hold for LAPACK's rounded value too, so
                   the result is the full scan's bit for bit;
a2_constant        lower-bound search for sup_I P(sigma, I) P(w, I) over a
                   structured interval family; an exact branch-and-bound:
                   an O(1) upper bound per candidate interval from the
                   atoms inside it and the nearest atom outside on each
                   side, which holds for the rounded value too, and only
                   the candidates whose bound beats the running best are
                   evaluated, in small batches with the single-threaded
                   full product's bits, so no (candidates x atoms) matrix
                   is built; small pairs take the one full product;
testing_constant   exact supremum over intervals, jointly with the same
                   truncation scan, attained on the maximal atom-membership
                   classes (one per range of source atoms); an exact
                   branch-and-bound: an O(1) upper bound per class from the
                   untruncated kernel, which holds for the rounded value
                   too, orders the classes and stops the scan, so the
                   result is the full scan's bit for bit; each visited
                   class sums its own source rows and divides by its own
                   correctly rounded sigma(I);
pair_constants     N, A2, both T, H = sqrt(A2) + T and the calibrated c0 of
                   a pair on one grid, from one kernel scan, kept in the
                   grid's memo: the one H formula and c0 rule, which the
                   report, the verify suites and the pair-file commands
                   read;
energy             normalized dispersion E(w, I)^2;
energy_constant    dynamic program over dyadic partitions inside one grid,
                   over the trunk nodes that hold sigma atoms, read from one
                   trunk table per (w, grid) (``haar._trunk_table``, kept
                   in the grid's memo), which the energy-stopping test of
                   ``corona`` reads too;
functional_energy_ratio
                   both sides of the multi-scale energy inequality on a
                   supplied family, reported as a ratio;
compute_report     everything above assembled with search metadata, and the
                   functional-energy and local ratios over ``corona``'s
                   stopping data.

Suprema over uncountable families are reported as certified maxima over the
documented candidate sets, never as certified upper bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corona import (
    _carleson_ratio,
    build_stopping_data,
    calibrate_c0,
    local_estimate_ratios,
)
from .errors import (
    AdaptednessViolation,
    CommonPointMass,
    NecessityViolation,
    PairTooLarge,
    PreconditionViolation,
)
from .grid import DyadicGrid, GridInterval, auto_grid, check_reach, f_parent, kept_with_grid
from .haar import (
    WeightedFunction,
    _energies,
    _run,
    _trunk_table,
    expand,
    good_projection,
    haar_function,
    splitting_nodes,
)
from .hilbert import (
    _STACK_BLOCK,
    TruncationTable,
    _candidate_floor,
    kernel_stack,
    truncation_candidates,
)
from .measure import AtomicMeasure, has_common_point_mass, range_sum
from .params import (
    DEFAULT_A2_REFINEMENT,
    DEFAULT_C0,
    DEFAULT_REFINEMENT,
    MAX_ARRAY_BYTES,
    SUITE_BELOW_GAP,
    SUITE_DEPTH,
    SUITE_EPS,
    SUITE_R,
)
from .poisson import _poisson_sums, _product_kernel, default_j_families, maximal_intervals

__all__ = [
    "ConstantsReport",
    "KernelScan",
    "kernel_scan",
    "norm_constant",
    "a2_constant",
    "testing_constant",
    "PairConstants",
    "pair_constants",
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

    candidates: TruncationTable
    stack: np.ndarray


def _check_size(nbytes: int, what: str, sigma: AtomicMeasure, w: AtomicMeasure) -> None:
    """PairTooLarge, naming the atom counts, before allocating ``nbytes``
    past :data:`MAX_ARRAY_BYTES`."""
    if nbytes > MAX_ARRAY_BYTES:
        raise PairTooLarge(
            f"a pair of {sigma.n_atoms} sigma and {w.n_atoms} w atoms needs a "
            f"{nbytes / 2**20:.0f} MiB {what}, over the {MAX_ARRAY_BYTES >> 20} MiB cap"
        )


def kernel_scan(
    sigma: AtomicMeasure, w: AtomicMeasure, refinement: int = DEFAULT_REFINEMENT
) -> KernelScan:
    """Build the truncation scan of a pair and its kernel stack once.

    PairTooLarge when the stack, T x n_sigma x n_w doubles, would pass
    :data:`MAX_ARRAY_BYTES`, raised from the candidate count before the
    candidate table is built, and first from a floor of that count before
    the scan's refined distances are; PairTooLarge too when the refined
    distances themselves would pass the cap.  The norm scales the stack a
    block at a time.  A pair with an atom past ``grid.REACH`` is refused
    first (:func:`~h2w.grid.check_reach`).
    """
    check_reach(sigma, w)
    diffs = sigma.positions_f[:, None] - w.positions_f[None, :]
    dists = np.abs(diffs).ravel()

    def check(rows: int) -> None:
        _check_size(8 * rows * diffs.size, "kernel stack", sigma, w)

    floor, refined = _candidate_floor(dists, refinement)
    _check_size(8 * refined, "refined distance list", sigma, w)
    check(floor)
    cands = truncation_candidates(dists, refinement, check)
    return KernelScan(cands, kernel_stack(diffs, cands))


# 2^-1074, the smallest subnormal: twice the absolute rounding error of a
# product or quotient that underflows
_TINY = math.ldexp(1.0, -1074)


def _spectral_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (T, m, n) stack.

    Dense batched SVD: exact to rounding and, at the sizes this package
    handles, faster than an iterative method.  Each matrix is computed on
    its own, so a sub-batch gets the same bits as the full batch.
    """
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


# candidates per batched SVD call of the pruned norm scan
_NORM_CHUNK = 8

# squarings of the Gram matrix in the stage-2 bound
_GRAM_SQUARINGS = 3


def _norm_slack(m: int, n: int) -> float:
    """Relative margin of both norm bounds for an m x n candidate: LAPACK's
    computed sigma_max is the exact one of A + E with ||E|| <= p(m, n) eps
    ||A||, p a modest polynomial, and it scales tiny and huge matrices
    before it iterates; 1e-9 covers that.  8 (m + n)^2 eps covers the
    relative rounding that each bound's docstring counts."""
    return 1.0 + 1e-9 + 8.0 * (m + n) ** 2 * np.finfo(float).eps


def _frobenius_bounds(
    stack: np.ndarray, sigma_masses: np.ndarray, w_masses: np.ndarray
) -> np.ndarray:
    """Stage 1 of the norm scan: an upper bound for the largest singular
    value that LAPACK computes for each scaled candidate A_t, from the
    unscaled (T, m, n) kernel stack; +inf where the bound is NaN.

    ||A_t||_F^2 = sum_ij K_t(i, j)^2 sigma_i w_j is formed a block of
    candidates at a time as the squared block times w, then times sigma,
    with the masses over powers of two (the largest of each below 1, so
    nothing overflows that need not) and raised by 2^-1074, so that each is
    at least its exact scaled value.  Rounding.  A sum of k non-negative
    terms carries a relative error below k eps; each term rounds three
    times (K^2, and the two products); each rounding that underflows loses
    less than 2^-1074, and 2^-1070 m (2 n + 1) covers all of them, as every
    scaled mass is at most 1.  LAPACK's input is fl(fl(K sqrt(sigma_i))
    sqrt(w_j)), which is off by four roundings of each entry and, where a
    product underflows, by less than 2^-1074 max(1, sqrt(w_j)) absolutely:
    2^-1070 sqrt(mn) max(1, max_j sqrt(w_j)) covers that, and the final
    power-of-two scaling if it goes subnormal.  :func:`_norm_slack` covers
    the relative errors, under (2 (m + n) + 12) eps before the root, and
    LAPACK's own.  An overflow gives +inf and a NaN entry a NaN, read as +inf, so
    such a candidate is never skipped.
    """
    T, m, n = stack.shape
    es = math.frexp(float(sigma_masses.max()))[1]
    ew = math.frexp(float(w_masses.max()))[1]
    ew += (es + ew) % 2
    su = np.ldexp(sigma_masses, -es) + _TINY
    wu = np.ldexp(w_masses, -ew) + _TINY
    floor = math.ldexp(m * (2 * n + 1), -1070)
    beta = math.ldexp(math.sqrt(m * n) * max(1.0, math.sqrt(float(w_masses.max()))), -1070)
    frob_sq = np.empty(T)
    step = max(1, _STACK_BLOCK // (m * n))
    buf = np.empty((min(step, T), m, n))
    with np.errstate(all="ignore"):
        for t0 in range(0, T, step):
            blk = np.square(stack[t0 : t0 + step], out=buf[: min(step, T - t0)])
            frob_sq[t0 : t0 + len(blk)] = (blk.reshape(-1, n) @ wu).reshape(-1, m) @ su
        ub = np.ldexp(np.sqrt(frob_sq + floor) * _norm_slack(m, n), (es + ew) // 2) + beta
    ub[np.isnan(ub)] = np.inf
    return ub


def _gram_power_bounds(stack: _ScaledStack, rows: np.ndarray, frob: np.ndarray) -> np.ndarray:
    """Stage 2 of the norm scan: an upper bound for the largest singular
    value that LAPACK computes for the candidates ``rows`` of the scaled
    stack, whose stage-1 bounds are ``frob``; +inf where ``frob`` is not
    finite or the bound is NaN.

    Each candidate A is scaled by the power of two 2^-p that brings its
    stage-1 bound into [1/2, 1), so ||B||_F < 1 for B = A 2^-p; the scaling
    is exact but where it underflows.  G = B^T B on the smaller side k (l
    the larger) is squared J times, X_{j+1} = X_j X_j, and
    lambda_max(G)^(2^J) <= ||G^(2^J)||_F for the exact symmetric
    non-negative G, so sigma_max(A) <= 2^p (||X_J||_F + delta_J)^(1/2^(J+1))
    with delta_j a bound on the Frobenius distance of the computed X_j from
    the exact power, carried through every step by the error bound for
    matrix products, |fl(XY) - XY| <= gamma |X| |Y| with gamma_k =
    k eps / (1 - k eps), for any summation order and thread count:
    delta_0 = 1.001 gamma_l + kl 2^-1074 and delta_{j+1} = gamma_k
    ||X_j||_F^2 + (2 ||X_j||_F + delta_j) delta_j + k^2 2^-1074, the last
    terms for underflow, each step raised by 8 eps for its own rounding and
    each ||X_j||_F by (k^2 + 4) 4 eps.  Only Frobenius norms enter, so a
    computed X_j that is not quite symmetric changes nothing.  The
    underflow of the scaling adds at most 2^-1074 sqrt(kl) to sigma_max(B),
    far below an ulp of the root, which is at least delta_J^(1/2^(J+1)),
    and :func:`_norm_slack` covers the roots and LAPACK's error.
    """
    _, m, n = stack.shape
    k, l = min(m, n), max(m, n)
    eps = np.finfo(float).eps
    gamma_k, gamma_l = k * eps / (1.0 - k * eps), l * eps / (1.0 - l * eps)
    up = 1.0 + 8.0 * eps
    up_f = 1.0 + 4.0 * (k * k + 4) * eps
    slack = _norm_slack(m, n)
    ub = np.full(len(rows), np.inf)
    live = np.flatnonzero(np.isfinite(frob))
    p = np.frexp(frob)[1]
    step = max(1, _STACK_BLOCK // (m * n))

    def frobenius(x: np.ndarray) -> np.ndarray:
        return np.sqrt((np.square(x).sum(axis=(1, 2)) + 2 * k * k * _TINY) * up_f)

    with np.errstate(all="ignore"):
        for s0 in range(0, len(live), step):
            at = live[s0 : s0 + step]
            b = stack[rows[at]]
            np.ldexp(b, -p[at, None, None], out=b)
            x = b.transpose(0, 2, 1) @ b if m >= n else b @ b.transpose(0, 2, 1)
            f = frobenius(x)
            delta = 1.001 * gamma_l + k * l * _TINY
            for _ in range(_GRAM_SQUARINGS):
                delta = (gamma_k * f * f + (2.0 * f + delta) * delta + k * k * _TINY) * up
                f = (f * f * (1.0 + gamma_k) + k * k * _TINY) * up
                x = x @ x
            root = (frobenius(x) + delta) * up
            for _ in range(_GRAM_SQUARINGS + 1):
                root = np.sqrt(root)
            ub[at] = np.ldexp(root * slack, p[at]) + _TINY
    ub[np.isnan(ub)] = np.inf
    return ub


class _ScaledStack:
    """A kernel stack scaled by sqrt(sigma_i) sqrt(w_j), one indexed block
    at a time: ``self[key]`` is ``stack[key] * ss[:, None] * sw`` in that
    order, the bits of a whole scaled copy, without building it."""

    def __init__(self, stack: np.ndarray, ss: np.ndarray, sw: np.ndarray):
        self.stack, self.ss, self.sw = stack, ss, sw
        self.shape = stack.shape

    def __getitem__(self, key) -> np.ndarray:
        block = self.stack[key] * self.ss[None, :, None]
        block *= self.sw[None, None, :]
        return block


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

    An exact branch-and-bound in two stages.  The candidates are taken in
    decreasing order of :func:`_frobenius_bounds`, and the top
    :data:`_NORM_CHUNK` seed the running best.  Every other candidate whose
    bound does not rule it out gets the tighter :func:`_gram_power_bounds`;
    those are taken in decreasing order of the smaller bound, a few per
    batched SVD, and the scan stops at the first bound at most the running
    best.  Both bounds hold for the value LAPACK computes, so the result is
    the full scan's max bit for bit.  An infinite bound is never skipped,
    and once the running best is NaN no bound compares below it, so a NaN or
    a failed SVD surfaces as it would in the full scan.
    """
    if has_common_point_mass(sigma, w):
        raise CommonPointMass("norm constant requires disjoint point masses")
    if sigma.n_atoms == 0 or w.n_atoms == 0:
        return 0.0
    if scan is None:
        scan = kernel_scan(sigma, w, refinement)
    stack = _ScaledStack(scan.stack, np.sqrt(sigma.masses_f), np.sqrt(w.masses_f))
    ub = _frobenius_bounds(scan.stack, sigma.masses_f, w.masses_f)
    order = np.argsort(-ub, kind="stable")
    # np.max keeps a NaN, as the full scan's max would
    best = float(np.max(_spectral_norms(stack[order[:_NORM_CHUNK]])))
    rest = order[_NORM_CHUNK:]
    rest = rest[~(ub[rest] <= best)]
    ub = np.minimum(ub[rest], _gram_power_bounds(stack, rest, ub[rest]))
    order = np.argsort(-ub, kind="stable")
    for start in range(0, len(order), _NORM_CHUNK):
        head = ub[order[start]]
        if head <= best and head != math.inf:
            break
        chunk = rest[order[start : start + _NORM_CHUNK]]
        best = float(np.max(_spectral_norms(stack[chunk]), initial=best))
    return best


# rows of the first A2 batch, which seeds the running best, a multiple of 4
# (see _a2_values)
_A2_SEED = 8

# kernel entries (candidates x atoms) up to which a2_constant evaluates
# every candidate in one product: below it the bounds cost more than they
# save (measured crossover, BENCH_10.json)
_A2_ONE_PRODUCT = 3 << 14


def _a2_values(
    sigma: AtomicMeasure, w: AtomicMeasure, lefts: np.ndarray, rights: np.ndarray
) -> np.ndarray:
    """P(sigma, I) P(w, I) for the candidate intervals [lefts, rights].

    One ``poisson._product_kernel`` array per measure, reduced by a BLAS
    matrix-vector product.  That product computes rows in groups of 4 and
    the last (rows mod 4) rows by a remainder kernel that rounds
    differently, so a row gets the bits of the whole candidate set's
    product when it sits in the same kind of group in both: a batch of
    4k rows from the first K - K mod 4 candidates, followed by at most the
    last K mod 4 candidates.  A multi-threaded BLAS splits a product of
    more than about 4e5 entries into per-thread row ranges, each with its
    own remainder rows, so there the whole product rounds the rows at a
    thread boundary by how many threads the host has; every product
    :func:`a2_constant` asks for stays far below that size, so it gets the
    single-threaded bits on any host.
    """
    p_sigma = _product_kernel(lefts, rights, sigma.positions_f) @ sigma.masses_f
    return p_sigma * (_product_kernel(lefts, rights, w.positions_f) @ w.masses_f)


def _poisson_bounds(
    mu: AtomicMeasure,
    endpoints: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
    lefts: np.ndarray,
    rights: np.ndarray,
) -> np.ndarray:
    """Upper bounds for P(mu, I) as :func:`_a2_values` computes it, for
    every candidate of :func:`a2_constant`; NaN is left for the caller.

    The row entry of atom x is L / (L^2 + d^2), d its distance to I: at most
    e_in = L / L^2 inside I, and at most e_l = L / (L^2 + d_l^2) left of it,
    d_l the gap to the nearest atom left of I, since every correctly rounded
    step is monotone and d_l is computed as the row computes d; likewise e_r
    on the right.  So the exact sum of the rounded entries times the masses
    is at most e_in mu(I) + e_l mu(left) + e_r mu(right).  The atom counts
    and gaps of the endpoint pairs [e_i, e_j] are found once per endpoint
    and gathered for the pairs; the ladder candidates, the at most
    n (2 refinement + 1) rungs that :func:`_a2_candidates` keeps, look
    theirs up directly.

    Rounding.  Every error is measured against e_in mu(R), mu(R) the
    total mass, which bounds the exact sum: each prefix sum is off by at
    most m eps mu(R), the product's sum of at most m non-negative terms by
    m eps times its value in any order, and this arithmetic adds a few eps
    more, under (5 m + 10) eps e_in mu(R) in all; the term g e_in mu(R),
    g = 8 (m + 2) eps, covers them.  Where the bound underflows that
    relative term is lost, and each of the m products and the few steps
    here loses less than 2^-1075: 2^-1070 (m + 4) covers them.  An overflow
    gives +inf; prefix sums that overflow give inf - inf = NaN.
    """
    pos = mu.positions_f
    m = len(pos)
    n_pairs = len(i)

    def sides(lo: np.ndarray, hi: np.ndarray):
        # atoms left of lo, atoms up to hi, and the gaps to the nearest
        # atoms outside [lo, hi] (+inf where there is none)
        below = np.searchsorted(pos, lo, side="left")
        upto = np.searchsorted(pos, hi, side="right")
        gap_left = np.where(below > 0, lo - pos[np.maximum(below - 1, 0)], np.inf)
        gap_right = np.where(upto < m, pos[np.minimum(upto, m - 1)] - hi, np.inf)
        return below, gap_left, upto, gap_right

    at_ends = sides(endpoints, endpoints)
    ladder = sides(lefts[n_pairs:], rights[n_pairs:])
    below, gap_left, upto, gap_right = (
        np.concatenate([end[k], rung]) for end, k, rung in zip(at_ends, (i, i, j, j), ladder)
    )
    pref = np.concatenate(([0.0], np.cumsum(mu.masses_f)))
    total = pref[-1]
    g = 8.0 * (m + 2) * np.finfo(float).eps
    L = rights - lefts
    sq = L * L
    ub = L / sq * (pref[upto] - pref[below] + g * total)
    ub += L / (sq + gap_left * gap_left) * pref[below]
    ub += L / (sq + gap_right * gap_right) * (total - pref[upto])
    ub += 16.0 * _TINY * (m + 4)
    return ub


def _a2_bounds(
    sigma: AtomicMeasure,
    w: AtomicMeasure,
    endpoints: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
    lefts: np.ndarray,
    rights: np.ndarray,
) -> np.ndarray:
    """Upper bounds for the computed P(sigma, I) P(w, I) of every candidate
    of :func:`a2_constant`; +inf where the bound is NaN.

    The product of the two :func:`_poisson_bounds` needs no margin of its
    own: each factor is at least the computed one, all are non-negative,
    and rounding is monotone.  The underflow term keeps every factor
    positive, so an infinite factor gives +inf, never inf * 0.
    """
    with np.errstate(all="ignore"):
        ub = _poisson_bounds(sigma, endpoints, i, j, lefts, rights)
        ub *= _poisson_bounds(w, endpoints, i, j, lefts, rights)
    ub[np.isnan(ub)] = np.inf
    return ub


def _a2_candidates(sigma: AtomicMeasure, w: AtomicMeasure, refinement: int):
    """The candidate intervals of :func:`a2_constant`: the endpoints, the
    endpoint index pairs (i, j), and every candidate's float ends; a ladder
    rung is left out when its float ends are not increasing or its length
    does not square to a finite double.

    Only the rungs local 2^k that can be kept are built: a kept rung's
    length is a nonzero double below 2^516 (past that its float ends are
    equal or differ by more than 2^512), so with local = m 2^e, m in
    [0.5, 1), k runs over at most -1075 - e .. 521 - e, within the
    doubles' -1074 .. 1023; the ladder is the union of these windows over
    the endpoints, within -refinement .. refinement.

    PairTooLarge when the search would pass :data:`MAX_ARRAY_BYTES`.
    """
    pts = np.unique(np.concatenate([sigma.positions_f, w.positions_f]))
    if len(pts) > 1:
        mids = 0.5 * (pts[:-1] + pts[1:])
        endpoints = np.unique(np.concatenate([pts, mids]))
        gaps = np.diff(endpoints)
        local = np.minimum(
            np.concatenate([[gaps[0]], gaps]), np.concatenate([gaps, [gaps[-1]]])
        )
    else:
        endpoints = pts
        local = np.array([1.0])
    n = len(endpoints)
    e = np.frexp(local)[1]
    k_lo = max(-refinement, -1074, -1075 - int(e.max()))
    k_hi = min(refinement, 1023, 521 - int(e.min()))
    ks = np.arange(k_lo, k_hi + 1)
    # about 16 arrays of one double or index per candidate live at once
    _check_size(128 * (n * (n - 1) // 2 + n * len(ks)), "A2 search", sigma, w)
    # every pair of endpoints, row-major, then the ladder around each endpoint
    i, j = np.triu_indices(n, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        lengths = local[:, None] * 2.0**ks
        ladder_lefts = (endpoints[:, None] - 0.5 * lengths).ravel()
        ladder_rights = (endpoints[:, None] + 0.5 * lengths).ravel()
        # a rung shorter than an ulp of its centre has no interior (its P is
        # 0 / 0), and one whose length squares past the largest double has
        # every entry L / (L^2 + d^2) round to 0
        keep = np.isfinite(np.square(ladder_rights - ladder_lefts))
    keep &= ladder_lefts < ladder_rights
    lefts = np.concatenate([endpoints[i], ladder_lefts[keep]])
    rights = np.concatenate([endpoints[j], ladder_rights[keep]])
    return endpoints, i, j, lefts, rights


def a2_constant(
    sigma: AtomicMeasure, w: AtomicMeasure, refinement: int = DEFAULT_A2_REFINEMENT
) -> float:
    """Lower-bound estimate of sup_I P(sigma, I) P(w, I).

    Candidates: every interval with endpoints among the atom positions and
    the midpoints of consecutive atoms of the merged support, plus, around
    each such point, intervals whose lengths run over a geometric ladder
    2^-refinement .. 2^refinement times the local gap.  Monotone
    non-decreasing in ``refinement``.

    An exact branch-and-bound over the candidates: each gets an O(1) upper
    bound from :func:`_a2_bounds`, and only the candidates whose bound beats
    the running best are evaluated, in gathered batches of
    :func:`_a2_values`, the top few first.  The bound holds for the
    computed value and the batches reproduce the single-threaded full
    product's bits, so the result is the max of a full scan on one BLAS
    thread, bit for bit, whatever the host's thread count; no
    (candidates x atoms) matrix is built.  An infinite bound is never
    skipped, and once the running best is NaN, the full scan's max, nothing
    can change it.  Pairs of at most :data:`_A2_ONE_PRODUCT` kernel entries
    evaluate every candidate in one product, which is faster there.
    """
    if sigma.n_atoms == 0 or w.n_atoms == 0:
        return 0.0
    endpoints, i, j, lefts, rights = _a2_candidates(sigma, w, refinement)
    K = len(lefts)
    atoms = sigma.n_atoms + w.n_atoms
    if K * atoms <= _A2_ONE_PRODUCT or K < _A2_SEED:
        return float(np.max(_a2_values(sigma, w, lefts, rights)))
    ub = _a2_bounds(sigma, w, endpoints, i, j, lefts, rights)
    del i, j
    head = K - K % 4
    # the seed: the top bounds of the grouped rows, and the remainder rows
    rows = np.argpartition(ub[:head], head - _A2_SEED)[head - _A2_SEED :]
    rows = np.concatenate([rows, np.arange(head, K)])
    best = float(np.max(_a2_values(sigma, w, lefts[rows], rights[rows])))
    ub[rows] = -np.inf
    live = np.flatnonzero((ub[:head] > best) | (ub[:head] == np.inf))
    batch = max(4, _STACK_BLOCK // atoms // 4 * 4)
    for start in range(0, len(live), batch):
        if math.isnan(best):
            break
        rows = live[start : start + batch]
        rows = rows[(ub[rows] > best) | (ub[rows] == np.inf)]
        if len(rows) == 0:
            continue
        # pad with repeats to a whole number of groups of 4
        rows = np.resize(rows, -(-len(rows) // 4) * 4)
        best = float(np.max(_a2_values(sigma, w, lefts[rows], rights[rows]), initial=best))
    return best


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

    The classes are visited in decreasing order of an upper bound from
    :func:`_class_bounds`, and the scan stops at the first bound at most the
    running best.  Each visited class is evaluated by :func:`_class_lhs`
    from its own source rows and divided by its own sigma(I), correctly
    rounded, so no atom outside the class moves its value.  The bound holds
    for the value the floating-point evaluation computes, so the result is
    the full scan's, bit for bit.
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
    sm = sigma.masses_f
    # candidate 0 scaled by sigma and its prefix sums along the sigma axis,
    # all that the class bounds read
    row0 = np.multiply(kernel[0], sm[:, None], order="C")
    C0 = np.concatenate([np.zeros((1, w.n_atoms)), np.cumsum(row0, axis=0)])
    wm = w.masses_f
    # w atoms before each sigma atom along the merged support, sigma first on ties
    before = np.searchsorted(w.positions_f, sigma.positions_f, side="left")
    starts = np.concatenate([[0], before])
    ends = np.concatenate([before, [w.n_atoms]])
    # the maximal classes [a1, a2) that hold a target atom
    a1s, a2s = np.triu_indices(sigma.n_atoms + 1, 1)
    keep = ends[a2s] > starts[a1s]
    a1s, a2s = a1s[keep], a2s[keep]
    b1s, b2s = starts[a1s], ends[a2s]
    ub = _class_bounds(row0, C0, sigma, w, a1s, a2s, b1s, b2s)
    best = 0.0
    for k in np.argsort(-ub, kind="stable").tolist():
        if ub[k] <= best:
            break
        a1, a2, b1, b2 = int(a1s[k]), int(a2s[k]), int(b1s[k]), int(b2s[k])
        value = _class_lhs(kernel, sm, wm, a1, a2, b1, b2) / range_sum(sigma.masses[a1:a2])
        if value > best:
            best = value
    return math.sqrt(best)


def _class_lhs(
    kernel: np.ndarray, sm: np.ndarray, wm: np.ndarray, a1: int, a2: int, b1: int, b2: int
) -> float:
    """max over the truncation scan of the sum over the targets [b1, b2) of
    w_j (class sum over the sources [a1, a2))^2; NaN if any term is NaN.

    A class sum adds the class's own sigma-scaled rows and no other.
    Candidates go through in blocks of at most ``_STACK_BLOCK`` entries,
    each a C-order copy, so that a pair and its swap sum one layout and
    round alike.
    """
    sums = np.empty(kernel.shape[0])
    step = max(1, _STACK_BLOCK // ((a2 - a1) * (b2 - b1)))
    for t0 in range(0, len(sums), step):
        part = np.multiply(kernel[t0 : t0 + step, a1:a2, b1:b2], sm[a1:a2, None], order="C")
        svals = part.sum(axis=1)
        sums[t0 : t0 + step] = (svals * svals * wm[b1:b2]).sum(axis=1)
    return np.max(sums)


def _class_bounds(
    row0: np.ndarray,
    C0: np.ndarray,
    sigma: AtomicMeasure,
    w: AtomicMeasure,
    a1s: np.ndarray,
    a2s: np.ndarray,
    b1s: np.ndarray,
    b2s: np.ndarray,
) -> np.ndarray:
    """Upper bounds for the computed testing values of the classes
    ([a1, a2) of sigma, [b1, b2) of w); +inf where the bound is NaN.

    ``row0`` is the sigma-scaled stack of candidate 0, the untruncated
    kernel 1/y, and ``C0`` its prefix sums over sigma.  Every candidate K_t
    has the sign of y and |K_t(y)| <= |K_0(y)|, and rounding the product by
    sigma keeps both facts.  For a target atom x_j of the class let p_j be
    the first source atom right of it: the class sum s_t = l_t + r_t splits
    into the atoms [a1, p_j) and [p_j, a2), of opposite signs, each at most
    its candidate-0 size, so s_t^2 <= l_0^2 + r_0^2 for every t, with
    l_0 = C0[p_j] - C0[a1] and r_0 = C0[a2] - C0[p_j].  Masked to the j
    whose p_j lies in the class, w_j l_0^2 summed over j from the left and
    w_j r_0^2 from the right give the class sums with no prefix difference:
    core = Lsum[a1, b2] + Rsum[a2, b1].

    Rounding.  The scan's class sum is off by its own rounding, and l_0
    and r_0 by cancellation in the heavy atoms outside the class too: each
    by at most g A_j(a2), with A_j(a) = sum over i < a of |row0[i, j]| and
    g = 8 (n_sigma + 2) eps, which also covers any last-bit slip of the two
    kernel facts.  Minkowski's inequality in l^2(w) adds that error as
    sqrt(gsum), gsum = sum of w_j (g A_j(a2))^2 over the class, summed from
    the right as above.  Products that underflow lose up to 2^-1075 each,
    scaled by w_j at most, so both sums carry 2^-1070 (w total + n_w + 1).
    The factor 1 + 1e-9 covers every relative rounding of the scan and of
    this arithmetic (n eps << 1e-9), and the final 2^-1073 the quotient's
    underflow:
    ub = ((sqrt(core) + sqrt(gsum)) (1 + 1e-9))^2 / s + 2^-1073.
    The divisor s is sp[a2] - sp[a1] - g sp[a2], sp the running sums of
    the masses: a lower bound of sigma(I), and so of the correctly rounded
    sigma(I) that the scan divides by.  Where cancellation leaves it not
    positive, s is that correctly rounded sigma(I) itself.  An overflow
    gives +inf and a NaN is read as +inf, so such a class is never skipped.
    """
    n_s = sigma.n_atoms
    rows = np.arange(n_s + 1)[:, None]
    # first source atom right of each target atom, sigma first on ties
    p = np.searchsorted(sigma.positions_f, w.positions_f, side="right")
    wm = w.masses_f
    g = 8.0 * (n_s + 2) * np.finfo(float).eps
    floor = 16.0 * _TINY * (w.total_mass + w.n_atoms + 1)
    with np.errstate(all="ignore"):
        at_p = C0[p, np.arange(w.n_atoms)]
        zero = np.zeros((n_s + 1, 1))
        # row a1: left parts of the classes starting at a1, summed over j < b
        left = np.where(p >= rows, wm * (at_p - C0) ** 2, 0.0)
        lsum = np.concatenate([zero, np.cumsum(left, axis=1)], axis=1)
        # row a2: right parts and cancellation of the classes ending at a2,
        # summed over j >= b
        on_right = p <= rows
        right = np.where(on_right, wm * (C0 - at_p) ** 2, 0.0)
        rsum = np.concatenate([np.cumsum(right[:, ::-1], axis=1)[:, ::-1], zero], axis=1)
        absum = np.concatenate([np.zeros((1, w.n_atoms)), np.cumsum(np.abs(row0), axis=0)])
        noise = np.where(on_right, wm * (g * absum) ** 2, 0.0)
        gsum = np.concatenate([np.cumsum(noise[:, ::-1], axis=1)[:, ::-1], zero], axis=1)
        core = lsum[a1s, b2s] + rsum[a2s, b1s] + floor
        err = gsum[a2s, b1s] + floor
        sp = np.concatenate(([0.0], np.cumsum(sigma.masses_f)))
        smass = sp[a2s] - sp[a1s] - g * sp[a2s]
        for k in np.flatnonzero(~(smass > 0.0)).tolist():
            smass[k] = range_sum(sigma.masses[a1s[k] : a2s[k]])
        ub = ((np.sqrt(core) + np.sqrt(err)) * (1.0 + 1e-9)) ** 2 / smass + 2.0 * _TINY
    ub[np.isnan(ub)] = np.inf
    return ub


def energy(w: AtomicMeasure, i) -> float:
    """E(w, I)^2: twice the normalized variance of position under w on I.

    Zero when I carries no mass or a single atom; never exceeds one.
    """
    lo, hi = w.index_range(i)
    if hi - lo <= 1:
        return 0.0
    length = i.right_f - i.left_f
    return float(_energies(w, np.array([lo]), np.array([hi]), np.array([length * length]))[0][0])


def energy_identity_sides(
    w: AtomicMeasure, grid: DyadicGrid
) -> dict[tuple[int, int], tuple[float, float, float]]:
    """(E^2, E^2 w(I), 2 sum of squared Haar coefficients of x/|I| below I)
    for every charged grid interval I of w, keyed by (level, index) in
    pre-order.

    The last two sides agree exactly; the variant without the w(I) factor on
    the left does not, which is why E^2 is exposed too.  Both come from the
    pair's :func:`_trunk_table`, whose nodes are the charged nodes.  One
    expansion of x serves every I: the splitting nodes below I are one
    pre-order run, summed in order.
    """
    table = _trunk_table(w, grid)
    if not table.nodes:
        return {}
    splitting = splitting_nodes(w, grid)
    coeffs = list(expand(WeightedFunction.identity(w), grid).coeffs.values())
    out: dict[tuple[int, int], tuple[float, float, float]] = {}
    for n, e2, e2w in zip(table.nodes, table.e2.tolist(), table.e2w.tolist()):
        start, end = _run(splitting, grid, n.level, n.index)
        total = 0.0
        for c in coeffs[start:end]:
            total += c * c
        out[n.level, n.index] = (e2, e2w, 2.0 * total / grid.cell_f(n.level) ** 2)
    return out


def energy_constant(sigma: AtomicMeasure, w: AtomicMeasure, grid: DyadicGrid) -> float:
    """Best dyadic-partition energy sum inside the grid, via dynamic programming.

    For every sigma-charged grid interval I0, best(I) = max(term(I),
    best(I_left) + best(I_right)) over the w-dispersion trunk, with
    term(I) = P(sigma 1_I0, I)^2 E(w, I)^2 w(I); the constant is the max of
    sqrt(best(I0) / sigma(I0)).  A lower bound for the supremum over dyadic
    partitions; deeper grids only increase it.

    The trunk below I0 is empty unless I0 is a trunk node, so I0 runs over
    the trunk nodes of :func:`_trunk_table` that hold sigma atoms, in
    pre-order; their sigma ranges come from the same endpoint floats.  The
    Poisson entries of every trunk row and sigma atom are formed once, and
    the DP reads each row's child rows from the trunk (``_TrunkTable.kids``).
    """
    if sigma.n_atoms == 0 or w.n_atoms == 0:
        return 0.0
    table = _trunk_table(w, grid)
    if not table.nodes:
        return 0.0
    wl, wr, ew = table.left, table.right, table.e2w
    spos = sigma.positions_f
    smass = sigma.masses_f
    slo = np.searchsorted(spos, wl)
    shi = np.searchsorted(spos, wr)
    kernel = _product_kernel(wl, wr, spos)
    left_kid, right_kid = table.kids
    # best[t] for the trunk rows of the current run; the extra last entry
    # stays 0.0 for a child that is no trunk node
    best = [0.0] * (len(table.nodes) + 1)
    best_overall = 0.0
    for start in np.flatnonzero(shi > slo).tolist():
        end = table.end[start]
        sl = slice(slo[start], shi[start])
        s0 = range_sum(sigma.masses[sl])
        P = kernel[start:end, sl] @ smass[sl]
        term = (P**2 * ew[start:end]).tolist()
        # reverse pre-order meets both children of a node before the node
        for t in range(end - 1, start - 1, -1):
            best[t] = max(term[t - start], best[left_kid[t]] + best[right_kid[t]])
        ratio = best[start] / s0
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


# random test functions f per compute_report
_FE_SAMPLES = 2


def functional_energy_ratio(
    h: WeightedFunction,
    f_family,
    g_family: dict[tuple[int, int], WeightedFunction],
    grid: DyadicGrid,
    *,
    below_gap: int = SUITE_BELOW_GAP,
    j_families: dict[tuple[int, int], list[GridInterval]],
) -> float:
    """Ratio of the two sides of the multi-scale energy inequality.

    The left side sums, over family members F and the maximal intervals J*
    of ``j_families[F.key]`` (the good intervals that
    :func:`~h2w.poisson.default_j_families` attaches to F),
    P(h sigma, J*) |<x/|J*|, g_F restricted to J*>|; the right side is
    ||h|| (sum ||g_F||^2)^(1/2).  The family must satisfy the
    Carleson packing bound with constant 2 and each g_F must have Haar
    support among intervals whose minimal-member parent
    (:func:`~h2w.grid.f_parent`) is F, at least ``below_gap`` levels down;
    violations raise.
    """
    if np.any(h.values < 0):
        raise PreconditionViolation("h must be non-negative")
    members = list(f_family)
    ratio = _carleson_ratio(members, h.base)
    if ratio > 2.0 + 1e-12:
        raise PreconditionViolation(
            f"family is not Carleson with constant 2 (ratio {ratio:.3f})"
        )
    keys = frozenset(F.key for F in members)
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
            parent = f_parent(J, keys)
            ok = parent is not None and parent.key == F.key and J.level - F.level >= below_gap
            if not ok:
                offenders.append((F.key, J.key, c))
    if offenders:
        raise AdaptednessViolation(
            f"{len(offenders)} Haar coefficients escape their family slots",
            offenders,
        )
    lhs = 0.0
    g_norm_sq = 0.0
    h_sigma = _nonneg_measure(h)
    h_pos, h_mass = h_sigma.positions_f, h_sigma.masses_f
    for F in members:
        g = g_family.get(F.key)
        if g is None:
            continue
        g_norm_sq += g.norm_sq()
        jstars = maximal_intervals(j_families.get(F.key, []))
        lefts = np.array([j.left_f for j in jstars])
        rights = np.array([j.right_f for j in jstars])
        poisson = _poisson_sums(lefts, rights, h_pos, h_mass).tolist()
        for jstar, p in zip(jstars, poisson):
            lo, hi = g.base.index_range(jstar)
            x, m = g.base.positions_f[lo:hi], g.base.masses_f[lo:hi]
            lhs += p * abs(range_sum((x / jstar.length_f * g.values[lo:hi] * m).tolist()))
    rhs = h.norm() * math.sqrt(g_norm_sq)
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    return lhs / rhs


@dataclass(frozen=True)
class PairConstants:
    """The per-pair constants that every later stage reads: N, A2, both T,
    H = sqrt(A2) + max T, the energy-stopping threshold c0 calibrated on
    the grid, and the number of truncation candidates scanned.  Only
    numbers: no kernel stack, and not the grid whose memo keeps it.
    """

    norm_N: float
    a2: float
    testing_fwd: float
    testing_bwd: float
    h_const: float
    c0: float
    scan_size: int


@kept_with_grid
def pair_constants(
    sigma: AtomicMeasure,
    w: AtomicMeasure,
    grid: DyadicGrid,
    refinement: int = DEFAULT_REFINEMENT,
    a2_refinement: int = DEFAULT_A2_REFINEMENT,
    c0: float = DEFAULT_C0,
) -> PairConstants:
    """The :class:`PairConstants` of a pair, from one kernel scan, kept in
    the grid's memo: the one H formula and c0 rule.

    c0 is calibrated on ``grid`` from the start value only when sigma has at
    least two atoms, w at least one and H > 0; otherwise the start value is
    kept.
    """
    scan = kernel_scan(sigma, w, refinement)
    norm_n = norm_constant(sigma, w, refinement, scan=scan)
    t_fwd = testing_constant(sigma, w, "forward", refinement, scan=scan)
    t_bwd = testing_constant(sigma, w, "backward", refinement, scan=scan)
    a2 = a2_constant(sigma, w, a2_refinement)
    h_const = math.sqrt(a2) + max(t_fwd, t_bwd)
    if sigma.n_atoms >= 2 and w.n_atoms >= 1 and h_const > 0:
        c0 = calibrate_c0(grid.root_interval, sigma, w, h_const, start=c0)
    return PairConstants(norm_n, a2, t_fwd, t_bwd, h_const, c0, len(scan.candidates))


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
    eps: float = SUITE_EPS,
    r: int = SUITE_R,
    below_gap: int = SUITE_BELOW_GAP,
    c0: float = DEFAULT_C0,
) -> ConstantsReport:
    """Assemble the full report for one pair on ``grid`` (default
    ``auto_grid`` at SUITE_DEPTH), from the pair's :func:`pair_constants`
    record at ``refinement``, ``a2_refinement`` and ``c0``.

    The functional-energy and local ratios are empirical maxima over a small
    seeded family of stopping data and adapted functions (:data:`_FE_SAMPLES`
    random f); they are lower bounds by nature.
    """
    if has_common_point_mass(sigma, w):
        raise CommonPointMass("report requires disjoint point masses")
    if grid is None:
        grid = auto_grid(sigma, w, SUITE_DEPTH)
    record = pair_constants(sigma, w, grid, refinement, a2_refinement, c0)
    norm_n, a2, h_const = record.norm_N, record.a2, record.h_const
    t_fwd, t_bwd = record.testing_fwd, record.testing_bwd
    slack = 1.0 + 1e-9
    # NaN-safe: a NaN or overflowed constant fails the check too
    if not (t_fwd <= norm_n * slack and t_bwd <= norm_n * slack):
        raise NecessityViolation(
            f"testing exceeded the norm: {t_fwd}, {t_bwd} vs {norm_n}"
        )
    e_fwd = energy_constant(sigma, w, grid)
    e_bwd = energy_constant(w, sigma, grid)

    fe_max = 0.0
    local_max = 0.0
    rng = np.random.default_rng(seed)
    root = grid.root_interval
    ident_coeffs = None  # the Haar coefficients of x on w, on first use
    if sigma.n_atoms >= 2 and w.n_atoms >= 1 and h_const > 0:
        for _ in range(_FE_SAMPLES):
            raw = WeightedFunction(sigma, rng.standard_normal(sigma.n_atoms))
            f = good_projection(raw, grid, eps, r)
            if f.norm() == 0.0:
                continue
            stopping = build_stopping_data(f, root, w, h_const, record.c0)
            members = stopping.members
            j_fams = default_j_families(members, w, grid, eps, r, below_gap)
            if ident_coeffs is None:
                ident_coeffs = expand(WeightedFunction.identity(w), grid).coeffs
            g_family = {}
            for F in members:
                vals = np.zeros(w.n_atoms)
                for J in j_fams.get(F.key, []):
                    c = ident_coeffs.get(J.key, 0.0)
                    if c == 0.0:
                        continue
                    vals += c * haar_function(J, w).values
                if np.any(vals != 0.0):
                    g_family[F.key] = WeightedFunction(w, vals)
            if g_family:
                for h_fun in (
                    WeightedFunction.constant(sigma, 1.0),
                    f.abs() * (1.0 / max(f.abs().values.max(), 1e-300)),
                ):
                    fe = functional_energy_ratio(
                        h_fun, members, g_family, grid, below_gap=below_gap, j_families=j_fams
                    )
                    fe_max = max(fe_max, fe)
            if w.n_atoms >= 2:
                graw = WeightedFunction(w, rng.standard_normal(w.n_atoms))
                gg = good_projection(graw, grid, eps, r)
                if gg.norm() > 0.0:
                    local = local_estimate_ratios(f, gg, stopping, below_gap)
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
        "calibrated_c0": record.c0,
        "n_sigma": sigma.n_atoms,
        "n_w": w.n_atoms,
        "truncation_scan_size": record.scan_size,
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

