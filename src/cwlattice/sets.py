"""The lattice-point sets attached to Cameron-Walker graphs, as bitmasks.

A Cameron-Walker graph on n vertices determines a pair
(depth, dimension) and a tuple (depth, regularity, dimension, deg h) of
invariants of its edge ideal.  The achievable points form finite sets cut
out by linear inequalities in the coordinates and n.  A set at n is held
as one int bitmask per prefix, the prefix being every coordinate but the
last: a pair set as {a: mask} with bit b set when (a, b) is in the set,
and a tuple set as {a: {r: mask}} with bit d set when (a, r, d, d) is
(every tuple set has deg h = dim).  No entry is 0, so two tables are
equal exactly when they hold the same points.

Each base set is defined once, by a source of its masks; a MaskTable
holds every set's masks at one n.  Masks are ints and never change, so
tables share them: every depth of ``ra-d`` takes its masks above the
turn, and every depth of ``ra-b`` its one-bit masks, from one list built
per call.  This module is the only reader of the masks, and decides
every relation between sets with int operations, mostly through three
primitives that build the table of the points in both tables (_and),
either (_or) or exactly one (_xor), writing into neither.  A union is
its parts folded with _or; MaskTable.overlaps ANDs each pair of a
union's parts once per table, and a union whose parts share no point is
counted from its parts, so a census record builds the ORed ``ra`` union
only where parts overlap.  Every relation names its witness one way:
parts_overlap, points_outside and ra_projection_mismatch each take the
least point of an _xor of what the check expects and what it finds.  The
points themselves are derived: points_by_depth lists a set's points one
ascending list per depth, expanding each mask's runs of set bits, and
the enumerators join those lists.  The membership predicates behind
``contains`` test the inequalities directly, an oracle independent of
the masks.

Two-coordinate sets, points (depth, dim):

* ``cwdd-a``   the depth-2 pairs (2, n-2) and (2, n-3), plus (2, (n-1)/2)
               when n is odd (the three coincide in part at n = 5).
* ``cwdd-b``   the Cohen-Macaulay diagonal: (b, b) with n/3 < b < n/2.
* ``cwdd-c``   the staircase block: 3 <= a <= floor((n-1)/2) and
               max(a, (n-a)/2) < b <= n-a.
* ``cwdd``     the union of the three; the only overlap ever is
               {(2, 2)} = A intersect B at n = 5.
* ``c-minus`` / ``c-plus``   lower and upper bounding polytopes for the
               pair set of arbitrary graphs on n vertices.
* ``beta``     the slab 1 <= a <= floor(n/2), a <= b <= n-2; this is
               ``c-minus`` without its apex (1, n-1).

Four-coordinate sets, points (depth, reg, dim, deg h):

* ``ra-a``     depth-2 tuples mirroring ``cwdd-a``.
* ``ra-b``     (a, d, d, d) with 3 <= a <= d <= floor((n-1)/2), n < a + 2d.
* ``ra-c``     (a, a, d, d) with 3 <= a < d <= n - a, n <= 2a + d - 1.
* ``ra-d``     (a, r, d, d) with 3 <= a < r < d < n - r, n + 2 <= a + r + d.
* ``ra``       the union of the four, which are pairwise disjoint (the
               census's ``ra parts disjoint`` check decides it; an OR'd
               union holds each point once whatever its parts do).

No Cameron-Walker graph has fewer than 5 vertices, so every CW-specific
set is empty below n = 5 (an empty census, not an error).  Below the n in
``FIRST_N`` a bounding polytope is undefined, and asking for it raises DomainError.

All comparisons are exact integer comparisons: rational thresholds such as
n/3 < b are cleared of division (3b > n, or b > n // 3), so boundary cases
like n = 3b can never be corrupted by floating point.  Every entry point
that takes n raises TypeError unless n is an int.  Enumerations return
duplicate-free lists in ascending lexicographic order.

NamedSet hashes by identity (object.__hash__, run in C, where
Enum.__hash__ is a Python call on every dict lookup keyed by a set): its
members are singletons compared by identity, so the identity hash agrees
with equality.
"""

from __future__ import annotations

from enum import Enum, unique
from functools import reduce
from itertools import chain, combinations
from operator import or_

from .errors import ArityMismatchError, DomainError, require_int

Point2 = tuple[int, int]
Point4 = tuple[int, int, int, int]


@unique
class NamedSet(Enum):
    """Identifiers for the twelve lattice sets; values are the CLI spellings."""

    CWDD_A = "cwdd-a"
    CWDD_B = "cwdd-b"
    CWDD_C = "cwdd-c"
    CWDD = "cwdd"
    RA_A = "ra-a"
    RA_B = "ra-b"
    RA_C = "ra-c"
    RA_D = "ra-d"
    RA = "ra"
    C_MINUS = "c-minus"
    C_PLUS = "c-plus"
    BETA = "beta"

    def __init__(self, value: str):
        # coordinate count of the set's points: 4 for the ra sets, else 2
        self.arity = 4 if value.startswith("ra") else 2

    __hash__ = object.__hash__


# The first n at which a bounding polytope (Hibi et al. 2021) is defined;
# every other set is defined, though possibly empty, at every n.
FIRST_N = {NamedSet.C_MINUS: 3, NamedSet.C_PLUS: 3, NamedSet.BETA: 4}
_ALL_DEFINED = max(FIRST_N.values())  # every set is defined from here on


def is_defined(set_id: NamedSet, n: int) -> bool:
    """Whether the named set is defined at n (see FIRST_N)."""
    return n >= FIRST_N.get(set_id, n)


def _require_defined(set_id: NamedSet, n: int) -> None:
    """Raise DomainError when the named set is undefined at n."""
    if n < _ALL_DEFINED and not is_defined(set_id, n):  # the first test spares a call
        raise DomainError(
            f"{set_id.value} is defined only for n >= {FIRST_N[set_id]}, got {n}")


# ---------------------------------------------------------------------------
# masks and their points
# ---------------------------------------------------------------------------

def _runs(mask: int) -> list[tuple[int, int]]:
    """The runs of set bits of a non-zero mask, lowest first, as (lo, hi)."""
    lo, hi = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
    if mask.bit_count() == hi - lo + 1:  # a single run
        return [(lo, hi)]
    above = mask + (1 << lo)  # the lowest run carried into the bit above it
    return [(lo, (above & ~mask).bit_length() - 2), *_runs(mask & above)]


def _points(table: dict):
    """The points of a table, one ascending list per depth in ascending
    depth: (a, b) for a pair set and (a, r, d, d) for a tuple set."""
    for a, inner in sorted(table.items()):
        if isinstance(inner, int):
            yield [(a, b) for lo, hi in _runs(inner) for b in range(lo, hi + 1)]
        else:
            yield [(a, r, d, d) for r, mask in sorted(inner.items())
                   for lo, hi in _runs(mask) for d in range(lo, hi + 1)]


# The three primitives on tables.  Each returns a new table with no prefix
# left 0 or empty, walks the smaller table against the larger, and calls
# itself where both tables hold an inner dict, not a mask, such as a depth
# of two tuple sets.  None writes into a dict passed in, so a result may
# share masks and inner dicts with them.

def _and(xs: dict, ys: dict) -> dict:
    """The points in both tables: each prefix of the smaller table looked up
    in the larger, and the masks of a prefix both hold ANDed."""
    if len(ys) < len(xs):
        xs, ys = ys, xs
    get, both = ys.get, {}
    for key, x in xs.items():
        if (y := get(key)) is not None and (z := x & y if isinstance(x, int) else _and(x, y)):
            both[key] = z
    return both


def _or(xs: dict, ys: dict) -> dict:
    """The points in either table: a copy of the larger table with the
    smaller ORed into it prefix by prefix."""
    if len(xs) < len(ys):
        xs, ys = ys, xs
    either = dict(xs)
    for key, y in ys.items():
        x = either.get(key)
        either[key] = y if x is None else (x | y if isinstance(y, int) else _or(x, y))
    return either


def _xor(xs: dict, ys: dict) -> dict:
    """The points in exactly one table: a copy of the larger table with the
    smaller XORed into it prefix by prefix, a prefix left empty dropped."""
    if len(xs) < len(ys):
        xs, ys = ys, xs
    one = dict(xs)
    for key, y in ys.items():
        if (x := one.pop(key, None)) is None:
            one[key] = y
        elif z := x ^ y if isinstance(y, int) else _xor(x, y):
            one[key] = z
    return one


# ---------------------------------------------------------------------------
# the ten base sets, each defined once by its masks (see the module
# docstring); the bits lo..hi are (2 << hi) - (1 << lo)
# ---------------------------------------------------------------------------

def _masks_cwdd_a(n: int) -> dict:
    # the bit (n - 1) / 2 is set for odd n only; at n = 5 it is n - 3 again
    return {2: (2 << (n - 2)) - (1 << (n - 3)) | (n % 2) << (n // 2)} if n >= 5 else {}


def _masks_cwdd_b(n: int) -> dict:
    # n/3 < b < n/2 is n // 3 < b <= (n - 1) // 2
    return {b: 1 << b for b in range(n // 3 + 1, (n - 1) // 2 + 1)}


def _masks_cwdd_c(n: int) -> dict:
    # (n-a)/2 < b is b > (n - a) // 2, so the low end max(a + 1, (n - a) // 2 + 1)
    # is a + 1 from the turn 3a >= n - 1 on: the range of a splits at the
    # turn, raised to 3, and no mask calls max()
    turn = max((n + 1) // 3, 3)
    masks = {a: (2 << (n - a)) - (2 << ((n - a) // 2)) for a in range(3, turn)}
    masks.update({a: (2 << (n - a)) - (2 << a) for a in range(turn, (n - 1) // 2 + 1)})
    return masks


def _masks_ra_a(n: int) -> dict:
    # (2, 2, d, d) for d = n-3, n-2, and (2, h, h, h) with h = (n-1)/2 for odd
    # n, which at n = 5 is (2, 2, n-3, n-3) again
    if n < 5:
        return {}
    h = n // 2
    return {2: _or({2: (2 << (n - 2)) - (1 << (n - 3))}, {h: 1 << h} if n % 2 else {})}


def _masks_ra_b(n: int) -> dict:
    """One point per mask, since r = d, so the mask of (a, d) is 1 << d;
    n < a + 2d is d > (n - a) // 2.  The masks come from one list of 1 << d
    built per call, so every depth's mask of d is the same int object."""
    top = (n - 1) // 2
    bits = [1 << d for d in range(top + 1)]
    return {a: dict(enumerate(bits[lo:], lo))
            for a in range(3, top + 1) for lo in [max(a, (n - a) // 2 + 1)]}


def _masks_ra_c(n: int) -> dict:
    # a < d <= n - a forces a <= floor((n-1)/2)
    return {a: {a: (2 << (n - a)) - (1 << max(a + 1, n - 2 * a + 1))}
            for a in range(3, (n - 1) // 2 + 1)}


def _masks_ra_d(n: int) -> dict:
    """r < d < n - r forces r <= floor(n/2) - 1 and hence a <= floor(n/2) - 2;
    for fixed (a, r) the valid d form the nonempty range
    max(r + 1, n - a - r + 2) .. n - r - 1.  The max turns at
    r = (n - a + 2) // 2: below the turn the low end is n - a - r + 2, from
    it on r + 1.  So each depth a splits its r range a + 1 .. floor(n/2) - 1
    at the turn, raised to a + 1 (a >= 3 keeps it at most floor(n/2)), and no
    mask calls max().  From the turn on the mask, bits r + 1 .. n - r - 1,
    depends on r alone: those masks come from one list built per call, so
    every depth's mask of r above its turn is the same int object.  Below
    the turn the bits n - a - r + 2 .. n - r - 1 are a run of a - 2 ones,
    shifted.  A naive scan of the full cube [1, n]^3 gives the same set
    (checked in the test suite)."""
    half, top = n // 2, n - 1
    upper = [(2 << (top - r)) - (2 << r) for r in range(half)]
    table = {}
    for a in range(3, half - 1):
        below = n - a + 2  # the low end below the turn is below - r
        turn = max(below // 2, a + 1)
        run = (1 << (a - 2)) - 1
        inner = table[a] = {r: run << (below - r) for r in range(a + 1, turn)}
        inner.update(enumerate(upper[turn:], turn))
    return table


def _masks_c_minus(n: int) -> dict:
    # the slab of beta, its row a = 1 extended by the apex (1, n-1)
    return {**_masks_beta(n), 1: (1 << n) - 2}


def _masks_c_plus(n: int) -> dict:
    # bits a..n-1, from one top bit 1 << n per call
    return {a: top - (1 << a) for top in [1 << n] for a in range(1, n)}


def _masks_beta(n: int) -> dict:
    # bits a..n-2, from one top bit 1 << (n - 1) per call
    return {a: top - (1 << a) for top in [1 << (n - 1)] for a in range(1, n // 2 + 1)}


MASK_SOURCES = {
    NamedSet.CWDD_A: _masks_cwdd_a,
    NamedSet.CWDD_B: _masks_cwdd_b,
    NamedSet.CWDD_C: _masks_cwdd_c,
    NamedSet.RA_A: _masks_ra_a,
    NamedSet.RA_B: _masks_ra_b,
    NamedSet.RA_C: _masks_ra_c,
    NamedSet.RA_D: _masks_ra_d,
    NamedSet.C_MINUS: _masks_c_minus,
    NamedSet.C_PLUS: _masks_c_plus,
    NamedSet.BETA: _masks_beta,
}

# The components of the two union sets
UNION_PARTS = {
    NamedSet.CWDD: (NamedSet.CWDD_A, NamedSet.CWDD_B, NamedSet.CWDD_C),
    NamedSet.RA: (NamedSet.RA_A, NamedSet.RA_B, NamedSet.RA_C, NamedSet.RA_D),
}


class MaskTable(dict):
    """The masks of the named sets at one n, each built on first use: a base
    set's from its mask source, a union's by ORing its parts' masks, so no
    set is built twice.  count(set) counts a set's points once, and
    overlaps(union) finds once the points each pair of its parts shares; a
    union whose parts share none is counted from its parts, so a census
    record builds the ORed union only where a check reads it."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n
        self.counts: dict[NamedSet, int] = {}
        self.shared: dict[NamedSet, dict] = {}

    def __missing__(self, set_id: NamedSet) -> dict:
        if set_id in UNION_PARTS:
            built = reduce(_or, [self[part] for part in UNION_PARTS[set_id]])
        else:
            _require_defined(set_id, self.n)
            built = MASK_SOURCES[set_id](self.n)
        self[set_id] = built
        return built

    def count(self, set_id: NamedSet) -> int:
        """The number of points in the set, found on first use: a union's
        is its parts' counts summed when no two parts share a point, else,
        like a base set's, the sum of its masks' popcounts."""
        if set_id not in self.counts:
            if set_id in UNION_PARTS and not self.overlaps(set_id):
                self.counts[set_id] = sum([self.count(part) for part in UNION_PARTS[set_id]])
            else:
                table = self[set_id]
                masks = table.values() if set_id.arity == 2 else chain.from_iterable(
                    map(dict.values, table.values()))
                self.counts[set_id] = sum(map(int.bit_count, masks))
        return self.counts[set_id]

    def overlaps(self, union: NamedSet) -> dict:
        """{(part, part): shared points} for each pair of the union's parts,
        in UNION_PARTS order, that shares a point; found on first use, with
        one _and per pair."""
        if union not in self.shared:
            self.shared[union] = {(x, y): both for x, y in combinations(UNION_PARTS[union], 2)
                                  if (both := _and(self[x], self[y]))}
        return self.shared[union]


# the one point two parts of a union share: (2, 2), in cwdd-a and cwdd-b at n = 5
_SHARED = {(NamedSet.CWDD, 5): {(NamedSet.CWDD_A, NamedSet.CWDD_B): {2: 1 << 2}}}


def parts_overlap(union: NamedSet, table: MaskTable):
    """None when the points each pair of the union's parts shares at the
    table's n (MaskTable.overlaps) are the ones _SHARED allows; else
    ((part, part), witness) for the first pair in UNION_PARTS order whose
    shared points differ from the allowed ones, the witness being the
    least point of the difference.  Both tables are keyed by pair, so one
    _xor finds every pair that differs."""
    if not (wrong := _xor(table.overlaps(union), _SHARED.get((union, table.n), {}))):
        return None
    pair = next(pair for pair in combinations(UNION_PARTS[union], 2) if pair in wrong)
    return pair, next(_points(wrong[pair]))[0]


def points_outside(sub: NamedSet, sup: NamedSet, table: MaskTable):
    """None when the pair set sub lies in sup at the table's n: no mask of
    sub has a bit outside sup's mask of its prefix, which one AND per prefix
    decides.  Else ((sub, sup), witness), built only on failure.  As for
    every relation, the witness is the least point of an _xor, here of
    sub's points and those it shares with sup: the least point of sub
    outside sup."""
    inner, outer = table[sub], table[sup]
    if not [a for a, mask in inner.items() if (mask & outer.get(a, 0)) != mask]:
        return None
    return (sub, sup), next(_points(_xor(_and(inner, outer), inner)))[0]


def ra_projection_mismatch(table: MaskTable):
    """None when the pairs (a, d) of the ra tuples (a, r, d, d) at the
    table's n are exactly cwdd: no tuple projects outside it, and every pair
    has a tuple above it.  The projection is read from ra's parts, not its
    union: every part's masks over d, ORed depth by depth.  Else
    ((ra, cwdd), witness), the witness being the least pair in one and not
    the other."""
    projected = {}
    for part in UNION_PARTS[NamedSet.RA]:
        for a, inner in table[part].items():
            projected[a] = reduce(or_, inner.values(), projected.get(a, 0))
    if projected == table[NamedSet.CWDD]:
        return None
    wrong = _xor(projected, table[NamedSet.CWDD])
    return (NamedSet.RA, NamedSet.CWDD), next(_points(wrong))[0]


def mask_bits(set_id: NamedSet, n: int, points: int) -> int:
    """An upper bound on the mask bits of the set at n, given its number of
    points: a set has at most one mask per point, at most n masks for a
    pair set and n^2/4 for a tuple set (its prefixes (a, r) have
    2 <= a <= r <= n/2), and a mask at n has at most n + 1 bits, as bit d
    stands for the coordinate d."""
    n = max(n, 0)  # every set is empty or undefined below n = 1
    return min(points, n if set_id.arity == 2 else n * n // 4) * (n + 1)


def points_by_depth(set_id: NamedSet, n: int):
    """The points of the named set at n, one ascending list per depth, in
    ascending depth, listed as they are asked for.  The set's masks are
    built by the call, so it raises TypeError unless n is an int and
    DomainError where the set is undefined (see FIRST_N)."""
    require_int(n)
    return _points(MaskTable(n)[set_id])


# ---------------------------------------------------------------------------
# enumeration: the points of every depth, joined
# ---------------------------------------------------------------------------

def _enumerator(set_id: NamedSet):
    def enumerate_points(n: int) -> list[tuple[int, ...]]:
        return list(chain.from_iterable(points_by_depth(set_id, n)))

    name = f"enumerate_{set_id.name.lower()}"
    enumerate_points.__name__ = enumerate_points.__qualname__ = name
    enumerate_points.__doc__ = f"The points of ``{set_id.value}`` at n, in ascending order."
    return enumerate_points


ENUMERATORS = {set_id: _enumerator(set_id) for set_id in NamedSet}
enumerate_cwdd_a = ENUMERATORS[NamedSet.CWDD_A]
enumerate_cwdd_b = ENUMERATORS[NamedSet.CWDD_B]
enumerate_cwdd_c = ENUMERATORS[NamedSet.CWDD_C]
enumerate_cwdd = ENUMERATORS[NamedSet.CWDD]
enumerate_ra_a = ENUMERATORS[NamedSet.RA_A]
enumerate_ra_b = ENUMERATORS[NamedSet.RA_B]
enumerate_ra_c = ENUMERATORS[NamedSet.RA_C]
enumerate_ra_d = ENUMERATORS[NamedSet.RA_D]
enumerate_ra = ENUMERATORS[NamedSet.RA]
enumerate_c_minus = ENUMERATORS[NamedSet.C_MINUS]
enumerate_c_plus = ENUMERATORS[NamedSet.C_PLUS]
enumerate_beta = ENUMERATORS[NamedSet.BETA]


def enumerate_set(set_id: NamedSet, n: int) -> list[tuple[int, ...]]:
    """Enumerate any named set at n."""
    return ENUMERATORS[set_id](n)


# ---------------------------------------------------------------------------
# membership predicates (agree with the enumerations pointwise)
# ---------------------------------------------------------------------------

def _in_cwdd_a(n: int, p: Point2) -> bool:
    if n < 5:
        return False
    a, b = p
    if a != 2:
        return False
    return b == n - 2 or b == n - 3 or (n % 2 == 1 and 2 * b == n - 1)


def _in_cwdd_b(n: int, p: Point2) -> bool:
    a, b = p
    return a == b and b >= 1 and 3 * b > n and 2 * b < n


def _in_cwdd_c(n: int, p: Point2) -> bool:
    a, b = p
    return 3 <= a <= (n - 1) // 2 and a < b <= n - a and n - a < 2 * b


def _in_ra_a(n: int, p: Point4) -> bool:
    if n < 5:
        return False
    a, r, d, h = p
    if a != 2 or d != h:
        return False
    if r == 2 and (d == n - 2 or d == n - 3):
        return True
    return n % 2 == 1 and r == d and 2 * d == n - 1


def _in_ra_b(n: int, p: Point4) -> bool:
    a, r, d, h = p
    return r == d == h and 3 <= a <= d <= (n - 1) // 2 and n < a + 2 * d


def _in_ra_c(n: int, p: Point4) -> bool:
    a, r, d, h = p
    return a == r and d == h and 3 <= a < d <= n - a and n <= 2 * a + d - 1


def _in_ra_d(n: int, p: Point4) -> bool:
    a, r, d, h = p
    return d == h and 3 <= a < r < d < n - r and n + 2 <= a + r + d


def _in_c_minus(n: int, p: Point2) -> bool:
    a, b = p
    return (a, b) == (1, n - 1) or (1 <= a <= b <= n - 2 and a <= n // 2)


def _in_c_plus(n: int, p: Point2) -> bool:
    a, b = p
    return 1 <= a <= b <= n - 1


def _in_beta(n: int, p: Point2) -> bool:
    a, b = p
    return 1 <= a <= n // 2 and a <= b <= n - 2


def _in_any(parts):
    """The membership predicate of a union: that of any of its parts, as one
    ``or`` of direct calls, ``_0(n, p) or _1(n, p) or ...``, compiled once
    from the parts it is given; a closure looping over the parts took a
    fifth to a third longer per call (CPython 3.11, x86-64)."""
    names = {f"_{i}": part for i, part in enumerate(parts)}
    return eval(f"lambda n, p: {' or '.join(f'{name}(n, p)' for name in names)}", names)


_PREDICATES = {
    NamedSet.CWDD_A: _in_cwdd_a,
    NamedSet.CWDD_B: _in_cwdd_b,
    NamedSet.CWDD_C: _in_cwdd_c,
    NamedSet.RA_A: _in_ra_a,
    NamedSet.RA_B: _in_ra_b,
    NamedSet.RA_C: _in_ra_c,
    NamedSet.RA_D: _in_ra_d,
    NamedSet.C_MINUS: _in_c_minus,
    NamedSet.C_PLUS: _in_c_plus,
    NamedSet.BETA: _in_beta,
}
_PREDICATES.update({union: _in_any(tuple(_PREDICATES[part] for part in parts))
                    for union, parts in UNION_PARTS.items()})


def contains(set_id: NamedSet, n: int, point: tuple[int, ...]) -> bool:
    """Decide membership of ``point`` in the named set at ``n``.

    Evaluates the set's defining inequalities directly, so it agrees with
    membership in the corresponding enumeration without materializing it.
    Raises ArityMismatchError when the point's coordinate count does not
    match the set, TypeError when n or a coordinate is not an int, and
    DomainError where the set is undefined (see FIRST_N).

    Each argument is tested once, inline, where it arrives: the shared
    checks errors.require_int and _require_defined run only past a failed
    inline test (not an int; n below 4, where a polytope may be undefined),
    to raise their one message, so a valid call from n = 4 on runs neither.
    The predicates behind it, a union's included, take their arguments
    unchecked.
    """
    if not isinstance(n, int):
        require_int(n)
    if len(point) != set_id.arity:
        raise ArityMismatchError(
            f"{set_id.value} expects {set_id.arity}-coordinate points, "
            f"got {len(point)} coordinates"
        )
    coords = tuple(point)
    for coord in coords:
        if not isinstance(coord, int):
            raise TypeError(f"{set_id.value} coordinates must be ints, got {coord!r}")
    if n < _ALL_DEFINED:
        _require_defined(set_id, n)
    return _PREDICATES[set_id](n, coords)
