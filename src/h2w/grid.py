"""Shifted dyadic grids of bounded depth over a root interval.

The grid at level l partitions (root + shift) into 2**l half-open cells.
Any two grid intervals intersect in nothing or in one of them, children
halve their parent exactly on dyadic endpoints, and no endpoint may carry
mass of either measure (checked at construction).

Every float endpoint and midpoint of a grid interval is the correctly
rounded value of the exact one (``DyadicGrid.endpoint_f``), so atom ranges,
Haar splits and Poisson terms cut every grid at the same points, shifted
grids whose left end has no double included.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, wraps

from .errors import EndpointCollision, PairTooLarge, PreconditionViolation
from .measure import AtomicMeasure, DyadicRational, Interval, _position_text, dyadic
from .params import MAX_ARRAY_BYTES

__all__ = ["DyadicGrid", "GridInterval", "build_grid", "is_good", "f_parent", "auto_grid"]


def _is_pow2_length(x: DyadicRational) -> bool:
    if x.num <= 0:
        return False
    if x.scale > 0:
        return x.num == 1
    return x.num & (x.num - 1) == 0


@dataclass(frozen=True)
class DyadicGrid:
    """A binary subdivision of (root + shift) down to ``depth`` levels.

    ``_memo`` holds what is derived from the grid and the measures on it
    (the node lists, the energy trunk, the pair's constants record), so
    that it lives exactly as long as the grid:
    a pair's grid is built once and dropped when the pair is done
    (:func:`kept_with_grid`).
    """

    root: Interval
    depth: int
    shift: DyadicRational = dyadic(0)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if not _is_pow2_length(self.root.length):
            raise ValueError("root length must be a power of two")

    @cached_property
    def left0(self) -> DyadicRational:
        return self.root.left + self.shift

    @cached_property
    def length_f(self) -> float:
        return self.root.length_f

    def cell_f(self, level: int) -> float:
        # Root length is a power of two, so this is exact.
        return self.length_f * 2.0**-level

    @cached_property
    def _lattice(self) -> tuple[int, int, int]:
        """(n0, c, 2**s): left0 = n0 / 2**s and |root| / 2**(depth + 1) = c / 2**s."""
        cell = self.root.length.scale_by_pow2(-(self.depth + 1))
        s = max(self.left0.scale, cell.scale)
        n0 = self.left0.num << (s - self.left0.scale)
        return n0, cell.num << (s - cell.scale), 1 << s

    def endpoint_f(self, level: int, k: int) -> float:
        """The correctly rounded float of the endpoint left0 + k |root| / 2**level.

        Integer arithmetic on the lattice of level depth + 1, which holds the
        midpoints of the finest cells, and one true division, so it equals
        ``float`` of the exact endpoint on every grid, shifted ones included,
        without building a DyadicRational.
        """
        n0, c, den = self._lattice
        return (n0 + ((k * c) << (self.depth + 1 - level))) / den

    def interval(self, level: int, index: int) -> "GridInterval":
        if not 0 <= level <= self.depth:
            raise ValueError(f"level {level} outside [0, {self.depth}]")
        if not 0 <= index < (1 << level):
            raise ValueError(f"index {index} outside level {level}")
        return GridInterval(self, level, index)

    @property
    def root_interval(self) -> "GridInterval":
        return GridInterval(self, 0, 0)

    def endpoint_slot(self, x: float) -> int | None:
        """The integer k with x = left0 + k * |root| / 2**depth, if there is one.

        With x = p / 2**t in lowest terms (``as_integer_ratio``) and the
        lattice (n0, c, 2**s) of ``_lattice`` that is p 2**(s - t) =
        n0 + 2 k c, which needs t <= s: integers only.
        """
        n0, c, den = self._lattice
        p, q = x.as_integer_ratio()
        shift = den.bit_length() - q.bit_length()
        if shift < 0:
            return None
        k, rem = divmod((p << shift) - n0, 2 * c)
        return k if rem == 0 and 0 <= k <= (1 << self.depth) else None

    def __repr__(self):
        return f"DyadicGrid(root={self.root}, depth={self.depth}, shift={self.shift})"


@dataclass(frozen=True)
class GridInterval:
    """Interval number ``index`` at level ``level`` of a grid."""

    grid: DyadicGrid
    level: int
    index: int

    @property
    def key(self) -> tuple[int, int]:
        return (self.level, self.index)

    @property
    def left_f(self) -> float:
        return self.grid.endpoint_f(self.level, self.index)

    @property
    def right_f(self) -> float:
        return self.grid.endpoint_f(self.level, self.index + 1)

    @property
    def length_f(self) -> float:
        return self.grid.cell_f(self.level)

    @property
    def center_f(self) -> float:
        return self.grid.endpoint_f(self.level + 1, 2 * self.index + 1)

    def children(self) -> tuple["GridInterval", "GridInterval"]:
        if self.level >= self.grid.depth:
            raise ValueError("no children below grid depth")
        return (
            GridInterval(self.grid, self.level + 1, 2 * self.index),
            GridInterval(self.grid, self.level + 1, 2 * self.index + 1),
        )

    def ancestor(self, level: int) -> "GridInterval":
        if level > self.level:
            raise ValueError("ancestor must be at a shallower level")
        return GridInterval(self.grid, level, self.index >> (self.level - level))

    def contains(self, other: "GridInterval") -> bool:
        """Containment as grid intervals (same grid assumed)."""
        if other.level < self.level:
            return False
        return (other.index >> (other.level - self.level)) == self.index

    def __repr__(self):
        return f"G[{self.level}:{self.index}]"


def build_grid(
    root: Interval,
    depth: int,
    shift: DyadicRational,
    sigma: AtomicMeasure,
    w: AtomicMeasure,
) -> DyadicGrid:
    """Construct the grid, rejecting any endpoint that carries mass.

    Raises EndpointCollision naming the first offending atom; the caller is
    expected to retry with a different shift.  Before any depth-sized
    lattice number is built, an atom past :data:`REACH` is refused
    (:func:`check_reach`), and so is a node table too large to fit
    (:func:`check_table_size`).
    """
    check_reach(sigma, w)
    check_table_size(sigma.n_atoms + w.n_atoms, depth)
    grid = DyadicGrid(root, depth, shift)
    for mu, name in ((sigma, "sigma"), (w, "w")):
        for x in mu.positions:
            if grid.endpoint_slot(x) is not None:
                raise EndpointCollision(
                    f"grid endpoint at {_position_text(x)} coincides with an atom of {name}"
                )
    return grid


# Every atom of an analysed pair lies strictly inside (-2^508, 2^508).  The
# truncation scan squares cutoffs up to 8 times the largest distance
# between atoms, so below (2^512)^2, and the root that auto_grid picks is
# at most 2^510 long: every such square is a double.
REACH = 2.0**508


def check_reach(sigma: AtomicMeasure, w: AtomicMeasure) -> None:
    """PreconditionViolation, naming the atoms, when an atom of the pair
    lies at or past :data:`REACH` in absolute value."""
    far = [
        f"{name} atom at {x!r}"
        for mu, name in ((sigma, "sigma"), (w, "w"))
        for x in mu.positions_f.tolist()
        if abs(x) >= REACH
    ]
    if far:
        more = f" and {len(far) - 3} more" if len(far) > 3 else ""
        raise PreconditionViolation(
            f"{', '.join(far[:3])}{more}: positions must stay below 2^508 in absolute "
            "value, or the squared distances of the pair overflow the doubles"
        )


def check_table_size(n: int, depth: int) -> None:
    """PairTooLarge, naming the atom count and the depth, when a node table
    of n atoms on a grid of this depth would hold more than
    ``params.MAX_ARRAY_BYTES`` at once: n atoms give at most n (depth + 1)
    rows, each counted as 20 int64 entries and, past level 62, 8 Python ints
    of depth + 1 bits (24 bytes and 4 per 30 bits on CPython).  (Measured
    tracemalloc peaks per atom and level: 37 to 140 bytes up to depth 62 on
    1,600 to 3,600 atoms; 5.7 to 8.1 such ints at depths 63 to 4,000 on 10
    atoms.)  Only arithmetic on n and depth: no depth-sized number is built.
    """
    entry = 160 + (8 * (8 + 24 + 4 * -(-(depth + 1) // 30)) if depth > 62 else 0)
    nbytes = n * (depth + 1) * entry
    if nbytes > MAX_ARRAY_BYTES:
        raise PairTooLarge(
            f"a node table of {n} atoms at depth {depth} needs about "
            f"{nbytes / 2**20:.0f} MiB, over the {MAX_ARRAY_BYTES >> 20} MiB cap"
        )


@lru_cache(maxsize=8)
def auto_grid(sigma: AtomicMeasure, w: AtomicMeasure, depth: int) -> DyadicGrid:
    """A grid over a power-of-two root covering both supports.

    Prefers the unshifted unit root when the supports sit inside [0, 1);
    otherwise (or on an endpoint collision) doubles the root so that small
    negative shifts of ever finer scale keep full coverage, and shrinks the
    shift until no endpoint carries mass.

    The grids of the last few pairs are kept, so that the commands that
    analyse one pair in a process share its grid and the lists in its memo.
    The grid comes from :func:`build_grid`, which refuses what cannot be
    analysed; an atom past :data:`REACH` is refused before the root search,
    whose float powers of two overflow past 2^1023.
    """
    check_reach(sigma, w)
    pos = sigma.positions + w.positions
    if not pos:
        return DyadicGrid(Interval(dyadic(0), dyadic(1)), depth)
    lo, hi = min(pos), max(pos)
    if 0.0 <= lo and hi < 1.0:
        try:
            return build_grid(Interval(dyadic(0), dyadic(1)), depth, dyadic(0), sigma, w)
        except EndpointCollision:
            pass
    k = 1
    while not (-(2.0 ** (k - 1)) <= lo and hi <= 2.0 ** (k - 1)):
        k += 1
    root = Interval(dyadic(-(1 << k)), dyadic(1 << k))
    for extra in range(0, 60):
        shift = dyadic(0) if extra == 0 else -root.length.scale_by_pow2(-(depth + extra))
        try:
            return build_grid(root, depth, shift, sigma, w)
        except EndpointCollision:
            continue
    raise EndpointCollision("no collision-free shift found")


def is_good(j: GridInterval, eps: float, r: int) -> bool:
    """Whether ``j`` keeps quantitative distance from coarse child boundaries.

    ``j`` is good when, for every grid interval i with |i| >= 2**(r-1) |j|,
    the closed hull of j stays at least |j|**eps |i|**(1-eps) away from the
    two-point boundaries of both children of i.  The quantifier runs over
    the finite grid only; when no interval qualifies the condition holds
    vacuously.  Only the level and index of j and the root length enter:
    goodness does not depend on where the grid starts.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    if r < 1:
        raise ValueError("r must be a positive integer")
    grid, level, index = j.grid, j.level, j.index
    top = level - (r - 1)
    if top < 0:
        return True
    lj_eps = j.length_f**eps
    for m in range(0, top + 1):
        li = grid.cell_f(m)
        threshold = lj_eps * li ** (1.0 - eps)
        # Child boundaries of level-m intervals are exactly the level-(m+1)
        # endpoint lattice; measured from the grid's left end in units of
        # its spacing, j spans [ap, bp], wherever the grid starts.
        s = grid.cell_f(m + 1)
        unit = 2.0 ** (m + 1 - level)
        ap = index * unit
        bp = (index + 1) * unit
        ca = math.ceil(ap)
        fb = math.floor(bp)
        if ca <= fb:
            return False  # a lattice point meets the closed hull
        dist = s * min(ap - (ca - 1), (fb + 1) - bp)
        if dist < threshold:
            return False
    return True


def minimal_member(keys, level: int, index: int) -> tuple[int, int] | None:
    """The key of the smallest member containing grid interval (level,
    index), itself when it is a member; None when no member contains it
    (level -1, above the root, holds none).  ``keys`` holds the members'
    (level, index) keys; this ancestor walk is the one member lookup.
    """
    while (level, index) not in keys:
        if level <= 0:
            return None
        level, index = level - 1, index >> 1
    return level, index


def f_parent(i: GridInterval, keys) -> GridInterval | None:
    """The minimal member containing i of the family with member ``keys``:
    for a member, the smallest member strictly containing it.  None when
    there is none."""
    up = 1 if i.key in keys else 0  # a member's step starts at its parent
    key = minimal_member(keys, i.level - up, i.index >> up)
    return None if key is None else GridInterval(i.grid, *key)


def kept_with_grid(fn):
    """Memoise ``fn`` in the memo of its ``grid`` argument, keyed by the
    function's name and every other argument, defaults applied: a value is
    computed once per grid and freed with it.  A call that passes every
    argument by position is already in that form; any other call is bound
    to the signature first."""
    signature = inspect.signature(fn)
    names = list(signature.parameters)
    at = names.index("grid")
    name = fn.__name__

    @wraps(fn)
    def kept(*args, **kwargs):
        if kwargs or len(args) != len(names):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            args = tuple(bound.arguments.values())
        memo = args[at]._memo
        key = (name, *args[:at], *args[at + 1 :])
        found = memo.get(key)
        if found is None:
            found = memo[key] = fn(*args)
        return found

    return kept
