"""Finitely-atomic measures on the real line.

An atom's position is a double.  Positions are read as dyadic rationals
num / 2**scale (pair files, :meth:`AtomicMeasure.from_triples`) and refused
when they have no exact double (InexactPosition), so each stored double is
the position itself: interval membership, grid endpoints and set operations
never round.  Masses are positive doubles: all cancellation-sensitive
arithmetic in this package is positional, never in the masses.

:class:`DyadicRational` is the exact type of a grid's root and shift, whose
endpoints need not be doubles.

Every type here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import InexactPosition, ParseError

__all__ = [
    "DyadicRational",
    "Interval",
    "AtomicMeasure",
    "dyadic",
    "has_common_point_mass",
    "random_ensemble",
    "dilate",
    "read_pair_file",
    "parse_pair_text",
    "pair_text",
    "range_sum",
    "range_sums",
]


def range_sum(terms) -> float:
    """The sum of the doubles ``terms`` (a list or tuple), correctly rounded
    (``math.fsum``): it depends on those terms alone, not on their order or
    on any term outside them.  Where the running sum passes the largest
    double it is numpy's sum instead, an infinity or a NaN."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.sum(np.array(terms, dtype=float)))


def range_sums(terms, los, his) -> list[float]:
    """:func:`range_sum` of ``terms[lo:hi]`` for each lo of ``los`` and hi of
    ``his``, in one pass."""
    fsum = math.fsum
    try:
        return [fsum(terms[a:b]) for a, b in zip(los, his)]
    except (OverflowError, ValueError):
        return [range_sum(terms[a:b]) for a, b in zip(los, his)]


def _canonical(num: int, scale: int) -> tuple[int, int]:
    """num / 2**scale in lowest terms: ``scale == 0`` or ``num`` odd, zero as
    0/2**0.  Integer shifts only, so a deep scale builds no 2**scale."""
    if scale < 0:
        raise ValueError("scale must be non-negative")
    if num == 0:
        return 0, 0
    drop = min((num & -num).bit_length() - 1, scale)
    return num >> drop, scale - drop


@dataclass(frozen=True)
class DyadicRational:
    """An exact number num / 2**scale, in the canonical form of
    :func:`_canonical`.  Addition, subtraction, and comparison are closed
    and exact.
    """

    num: int
    scale: int

    def __post_init__(self):
        num, scale = _canonical(self.num, self.scale)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "scale", scale)

    def __add__(self, other: "DyadicRational") -> "DyadicRational":
        s = max(self.scale, other.scale)
        return DyadicRational(
            (self.num << (s - self.scale)) + (other.num << (s - other.scale)), s
        )

    def __sub__(self, other: "DyadicRational") -> "DyadicRational":
        return self + (-other)

    def __neg__(self) -> "DyadicRational":
        return DyadicRational(-self.num, self.scale)

    def __lt__(self, other: "DyadicRational") -> bool:
        return self.num << other.scale < other.num << self.scale

    def scale_by_pow2(self, k: int) -> "DyadicRational":
        """Exact multiplication by 2**k (k may be negative)."""
        if k >= 0:
            return DyadicRational(self.num << k, self.scale)
        return DyadicRational(self.num, self.scale - k)

    def __float__(self) -> float:
        # correctly rounded
        return self.num / (1 << self.scale)

    def __repr__(self):
        return f"{self.num}/2^{self.scale}"


def dyadic(num: int, scale: int = 0) -> DyadicRational:
    """Shorthand constructor."""
    return DyadicRational(num, scale)


@dataclass(frozen=True)
class Interval:
    """Half-open interval [left, right) with exact dyadic endpoints."""

    left: DyadicRational
    right: DyadicRational

    def __post_init__(self):
        if not self.left < self.right:
            raise ValueError("interval requires left < right")

    @cached_property
    def left_f(self) -> float:
        return float(self.left)

    @cached_property
    def right_f(self) -> float:
        return float(self.right)

    @property
    def length(self) -> DyadicRational:
        return self.right - self.left

    @cached_property
    def length_f(self) -> float:
        return self.right_f - self.left_f

    def __repr__(self):
        return f"[{self.left}, {self.right})"


def _position_text(x: float) -> str:
    """A position as num/2^scale in lowest terms."""
    num, den = x.as_integer_ratio()
    return f"{num}/2^{den.bit_length() - 1}"


def _mirror(num: int, scale: int) -> float:
    """The double equal to the canonical num / 2**scale; InexactPosition
    when there is none."""
    # no double is finer than 2^-1074: reject a deeper canonical scale
    # before building its 2^scale
    if scale <= 1074:
        den = 1 << scale
        try:
            x = num / den  # correctly rounded, OverflowError past the largest double
            if x.as_integer_ratio() == (num, den):
                return x
        except OverflowError:
            pass
    raise InexactPosition(f"atom at {num}/2^{scale} has no exact double-precision value")


@dataclass(frozen=True)
class AtomicMeasure:
    """A finite list of point masses at strictly increasing positions.

    Positions and masses are tuples of Python floats, positions finite;
    ``positions_f`` holds the positions as an array for every search.
    """

    positions: tuple[float, ...]
    masses: tuple[float, ...]
    positions_f: np.ndarray = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.positions) != len(self.masses):
            raise ValueError("positions and masses must have equal length")
        for m in self.masses:
            if not (m > 0 and math.isfinite(m)):
                raise ValueError(f"masses must be positive and finite, got {m}")
        object.__setattr__(self, "masses", tuple(map(float, self.masses)))
        positions = tuple(map(float, self.positions))
        if not all(map(math.isfinite, positions)):
            raise ValueError("positions must be finite")
        if any(a >= b for a, b in zip(positions, positions[1:])):
            raise ValueError("positions must be strictly increasing")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "positions_f", np.array(positions, dtype=float))
        # the hash the dataclass would compute on every call, taken once:
        # the caches keyed by measures look a pair up many times
        object.__setattr__(self, "_hash", hash((positions, self.masses)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_triples(cls, triples: Iterable[tuple[int, int, float]]) -> "AtomicMeasure":
        """Build from (numerator, scale, mass) triples in any order; each
        position must be exactly a double (InexactPosition otherwise)."""
        atoms = sorted((_mirror(*_canonical(n, s)), float(m)) for n, s, m in triples)
        return cls(tuple(x for x, _ in atoms), tuple(m for _, m in atoms))

    @classmethod
    def empty(cls) -> "AtomicMeasure":
        return cls((), ())

    @property
    def n_atoms(self) -> int:
        return len(self.masses)

    @cached_property
    def masses_f(self) -> np.ndarray:
        return np.array(self.masses, dtype=float)

    @cached_property
    def total_mass(self) -> float:
        return range_sum(self.masses)

    def index_range(self, i) -> tuple[int, int]:
        """Indices [lo, hi) of atoms with left <= position < right, from the
        endpoint floats of an ``Interval`` or a ``GridInterval`` (both the
        correctly rounded values of the exact endpoints)."""
        return bisect_left(self.positions_f, i.left_f), bisect_left(self.positions_f, i.right_f)

    def mass_on(self, i) -> float:
        """Total mass carried inside the half-open interval, summed over its
        own atoms (:func:`range_sum`)."""
        lo, hi = self.index_range(i)
        return range_sum(self.masses[lo:hi])

    def restrict(self, i) -> "AtomicMeasure":
        """The measure of the atoms inside the interval, masses unchanged."""
        lo, hi = self.index_range(i)
        return AtomicMeasure(self.positions[lo:hi], self.masses[lo:hi])

    def restrict_complement(self, i) -> "AtomicMeasure":
        """The measure of the atoms outside the interval."""
        lo, hi = self.index_range(i)
        return AtomicMeasure(
            self.positions[:lo] + self.positions[hi:],
            self.masses[:lo] + self.masses[hi:],
        )

    def __repr__(self):
        return f"AtomicMeasure({self.n_atoms} atoms, total {self.total_mass:g})"


def has_common_point_mass(sigma: AtomicMeasure, w: AtomicMeasure) -> bool:
    """True iff some position carries positive mass in both measures.

    Every position is exactly its double, so two positions are equal
    exactly when their doubles are: one ``searchsorted`` of sigma's
    doubles into w's answers it."""
    if not (sigma.n_atoms and w.n_atoms):
        return False
    xs, ys = sigma.positions_f, w.positions_f
    at = np.minimum(ys.searchsorted(xs), len(ys) - 1)
    return bool(np.any(ys[at] == xs))


def _times_pow2(x: float, k: int) -> float | None:
    """x * 2**k when that is a double, None when it overflows or loses bits."""
    try:
        y = math.ldexp(x, k)
    except OverflowError:
        return None
    return y if math.ldexp(y, -k) == x else None


def dilate(mu: AtomicMeasure, k: int) -> AtomicMeasure:
    """Density-style dilation x -> 2**k x: positions and masses scale by 2**k.

    With masses scaled alongside positions the norm, Poisson-product,
    testing, and energy constants are all invariant.  Every value scales
    exactly, so dilating back by -k gives ``mu``: a position that would
    leave the doubles raises InexactPosition, a mass ValueError.
    """
    positions = [_times_pow2(x, k) for x in mu.positions]
    masses = [_times_pow2(m, k) for m in mu.masses]
    for x, y in zip(mu.positions, positions):
        if y is None:
            raise InexactPosition(
                f"atom at {_position_text(x)} times 2^{k} has no exact double-precision value"
            )
    for m, y in zip(mu.masses, masses):
        if y is None:
            raise ValueError(f"mass {m!r} times 2^{k} has no exact double-precision value")
    return AtomicMeasure(tuple(positions), tuple(masses))


def scale_masses(mu: AtomicMeasure, t: float) -> AtomicMeasure:
    return AtomicMeasure(mu.positions, tuple(m * t for m in mu.masses))


# ---------------------------------------------------------------------------
# ensemble generation

FAMILIES = ("uniform", "clusters", "lacunary")
ALL_FAMILIES = FAMILIES + ("mixed",)
# the range of the log-uniform atom masses
_MASS_RANGE = (0.25, 4.0)


def random_ensemble(
    seed: int,
    count: int,
    max_atoms: int,
    depth: int,
    family: str = "uniform",
) -> list[tuple[AtomicMeasure, AtomicMeasure]]:
    """Deterministic list of (sigma, w) pairs supported in [0, 1).

    Positions sit at the centers (2s+1)/2**(depth+1) of the depth-level
    dyadic cells, so no atom ever coincides with a grid endpoint of depth
    <= depth, and sigma and w never share a position.  Masses are
    log-uniform over :data:`_MASS_RANGE`.  Families:

    - ``uniform``: slots drawn uniformly without replacement;
    - ``clusters``: sigma packed near 1/3, w packed near 5/6;
    - ``lacunary``: slots at geometrically shrinking gaps on either side
      of a third-point;
    - ``mixed``: the three above, cycling with the pair index.
    """
    if depth < 1 or max_atoms < 1:
        raise ValueError("depth and max_atoms must be at least 1")
    if family not in ALL_FAMILIES:
        raise ValueError(f"unknown family {family!r}; pick one of {ALL_FAMILIES}")
    n_slots = 1 << depth
    if 2 * max_atoms > n_slots:
        raise ValueError(
            f"2*max_atoms = {2 * max_atoms} exceeds the {n_slots}-slot lattice at depth {depth}"
        )
    rng = np.random.default_rng(seed)
    lo, hi = _MASS_RANGE
    pairs = []
    for idx in range(count):
        fam = family if family != "mixed" else FAMILIES[idx % len(FAMILIES)]
        ns = int(rng.integers(1, max_atoms + 1))
        nw = int(rng.integers(1, max_atoms + 1))
        if fam == "uniform":
            slots = rng.choice(n_slots, size=ns + nw, replace=False)
            s_slots, w_slots = slots[:ns], slots[ns:]
        elif fam == "clusters":
            # Centers near 1/3 and 5/6: far from every coarse dyadic point,
            # so deep intervals near the clusters can still be good.
            width = max(2 * max_atoms, n_slots // 16)
            a0 = max(0, n_slots // 3 - width // 2)
            b0 = min(n_slots - width, (5 * n_slots) // 6 - width // 2)
            if a0 + width > b0:
                raise ValueError("clusters need a deeper lattice at this max_atoms")
            s_slots = a0 + rng.choice(width, size=ns, replace=False)
            w_slots = b0 + rng.choice(width, size=nw, replace=False)
        else:  # lacunary
            if depth < 3:
                raise ValueError("lacunary spacing needs depth >= 3")
            c = n_slots // 3
            jmax_s = int(math.log2(c))
            jmax_w = int(math.log2(n_slots - 1 - c))
            ns = min(ns, jmax_s + 1)
            nw = min(nw, jmax_w + 1)
            s_slots = np.array([c - (1 << (jmax_s - k)) for k in range(ns)])
            w_slots = np.array([c + (1 << (jmax_w - k)) for k in range(nw)])
        s_mass = np.exp(rng.uniform(math.log(lo), math.log(hi), size=len(s_slots)))
        w_mass = np.exp(rng.uniform(math.log(lo), math.log(hi), size=len(w_slots)))
        sigma = AtomicMeasure.from_triples(
            (2 * int(s) + 1, depth + 1, m) for s, m in zip(s_slots, s_mass)
        )
        w = AtomicMeasure.from_triples(
            (2 * int(s) + 1, depth + 1, m) for s, m in zip(w_slots, w_mass)
        )
        pairs.append((sigma, w))
    return pairs


# ---------------------------------------------------------------------------
# pair file format: one atom per line "numerator scale mass", sections
# [sigma] and [w], '#' starts a comment.


def pair_text(sigma: AtomicMeasure, w: AtomicMeasure, header: str = "") -> str:
    lines = []
    if header:
        lines.extend(f"# {h}" for h in header.splitlines())
    for name, mu in (("sigma", sigma), ("w", w)):
        lines.append(f"[{name}]")
        for x, m in zip(mu.positions, mu.masses):
            # lowest terms: DyadicRational's canonical form, 0 as "0 0"
            num, den = x.as_integer_ratio()
            lines.append(f"{num} {den.bit_length() - 1} {m!r}")
    return "\n".join(lines) + "\n"


def parse_pair_text(text: str) -> tuple[AtomicMeasure, AtomicMeasure]:
    sections: dict[str, list[tuple[int, int, float]]] = {"sigma": [], "w": []}
    current: str | None = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in sections:
                raise ParseError(f"unknown section [{name}]", line=ln)
            current = name
            continue
        if current is None:
            raise ParseError("atom line before any [sigma]/[w] section", line=ln)
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(
                f"expected 'numerator scale mass', got {len(parts)} fields", line=ln
            )
        try:
            num, scale, mass = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ParseError(str(exc), line=ln) from exc
        if mass <= 0 or not math.isfinite(mass):
            raise ParseError(f"mass must be positive and finite, got {mass}", line=ln)
        sections[current].append((num, scale, mass))
    try:
        sigma = AtomicMeasure.from_triples(sections["sigma"])
        w = AtomicMeasure.from_triples(sections["w"])
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return sigma, w


def read_pair_file(path) -> tuple[AtomicMeasure, AtomicMeasure]:
    with open(path) as fh:
        return parse_pair_text(fh.read())
