"""Exact enumeration of the lattice-point sets attached to Cameron-Walker graphs.

A Cameron-Walker graph on n vertices determines a pair
(depth, dimension) and a tuple (depth, regularity, dimension, deg h) of
invariants of its edge ideal.  The achievable points form finite sets cut
out by linear inequalities in the coordinates and n.  This module
enumerates those sets explicitly, together with the two convex polytopes
that bound the all-graphs pair set.

Two-coordinate sets, points (depth, dim):

* ``cwdd-a``   the depth-2 pairs (2, n-2) and (2, n-3), plus (2, (n-1)/2)
               when n is odd (the three coincide in part at n = 5).
* ``cwdd-b``   the Cohen-Macaulay diagonal: (b, b) with n/3 < b < n/2.
* ``cwdd-c``   the staircase block: 3 <= a <= floor((n-1)/2) and
               max(a, (n-a)/2) < b <= n-a.
* ``cwdd``     the union of the three; the only overlap ever is
               {(2, 2)} = A intersect B at n = 5.
* ``c-minus`` / ``c-plus``   lower and upper bounding polytopes for the
               pair set of arbitrary graphs on n vertices (n >= 3).
* ``beta``     the slab 1 <= a <= floor(n/2), a <= b <= n-2; this is
               ``c-minus`` without its apex (1, n-1) (n >= 4).

Four-coordinate sets, points (depth, reg, dim, deg h):

* ``ra-a``     depth-2 tuples mirroring ``cwdd-a``.
* ``ra-b``     (a, d, d, d) with 3 <= a <= d <= floor((n-1)/2), n < a + 2d.
* ``ra-c``     (a, a, d, d) with 3 <= a < d <= n - a, n <= 2a + d - 1.
* ``ra-d``     (a, r, d, d) with 3 <= a < r < d < n - r, n + 2 <= a + r + d.
* ``ra``       the union of the four, which are pairwise disjoint.

No Cameron-Walker graph has fewer than 5 vertices, so every CW-specific
set is empty below n = 5 (an empty census, not an error).

All comparisons are exact integer comparisons: rational thresholds such as
n/3 < b are multiplied through by the denominator (3b > n), so boundary
cases like n = 3b can never be corrupted by floating point.  Enumerations
return duplicate-free lists in ascending lexicographic order.
"""

from __future__ import annotations

from enum import Enum, unique

from .errors import ArityMismatchError, DomainError, InternalInconsistencyError

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

    @property
    def arity(self) -> int:
        """Coordinate count of the set's points: 4 for the ra sets, else 2."""
        return 4 if self.value.startswith("ra") else 2


# ---------------------------------------------------------------------------
# (depth, dim) sets
# ---------------------------------------------------------------------------

def enumerate_cwdd_a(n: int) -> list[Point2]:
    """Depth-2 pairs: {(2, n-2), (2, n-3)} plus (2, (n-1)/2) for odd n.

    Empty below n = 5.  At n = 5 the odd-n point (2, 2) coincides with
    (2, n-3); set semantics collapse the duplicate, leaving two points.
    """
    if n < 5:
        return []
    points = {(2, n - 2), (2, n - 3)}
    if n % 2 == 1:
        points.add((2, (n - 1) // 2))
    return sorted(points)


def enumerate_cwdd_b(n: int) -> list[Point2]:
    """Diagonal points (b, b) with n/3 < b < n/2, i.e. 3b > n and 2b < n."""
    return [(b, b) for b in range(1, max(n, 1)) if 3 * b > n and 2 * b < n]


def enumerate_cwdd_c(n: int) -> list[Point2]:
    """Staircase points (a, b): 3 <= a <= floor((n-1)/2), max(a, (n-a)/2) < b <= n-a.

    The rational comparison (n-a)/2 < b is evaluated as n - a < 2b.
    Empty for n <= 5 (the a-range is empty there).
    """
    return [
        (a, b)
        for a in range(3, (n - 1) // 2 + 1)
        for b in range(a + 1, n - a + 1)
        if n - a < 2 * b
    ]


def enumerate_cwdd(n: int) -> list[Point2]:
    """All (depth, dim) pairs achieved on n vertices: union of the A, B, C parts."""
    points = set(enumerate_cwdd_a(n))
    points.update(enumerate_cwdd_b(n))
    points.update(enumerate_cwdd_c(n))
    return sorted(points)


# ---------------------------------------------------------------------------
# (depth, reg, dim, deg h) sets
# ---------------------------------------------------------------------------

def enumerate_ra_a(n: int) -> list[Point4]:
    """Depth-2 tuples (2, 2, n-2, n-2), (2, 2, n-3, n-3), and for odd n the
    constant tuple (2, h, h, h) with h = (n-1)/2.  Empty below n = 5."""
    if n < 5:
        return []
    points = {(2, 2, n - 2, n - 2), (2, 2, n - 3, n - 3)}
    if n % 2 == 1:
        h = (n - 1) // 2
        points.add((2, h, h, h))
    return sorted(points)


def enumerate_ra_b(n: int) -> list[Point4]:
    """Tuples (a, d, d, d) with 3 <= a <= d <= floor((n-1)/2) and n < a + 2d."""
    top = (n - 1) // 2
    return [
        (a, d, d, d)
        for a in range(3, top + 1)
        for d in range(a, top + 1)
        if n < a + 2 * d
    ]


def enumerate_ra_c(n: int) -> list[Point4]:
    """Tuples (a, a, d, d) with 3 <= a < d <= n - a and n <= 2a + d - 1.

    The bound a <= floor((n-1)/2) is forced by a < d <= n - a.
    """
    return [
        (a, a, d, d)
        for a in range(3, (n - 1) // 2 + 1)
        for d in range(a + 1, n - a + 1)
        if n <= 2 * a + d - 1
    ]


def enumerate_ra_d(n: int) -> list[Point4]:
    """Tuples (a, r, d, d) with 3 <= a < r < d < n - r and n + 2 <= a + r + d.

    Loop bounds: r < d < n - r forces r <= floor(n/2) - 1 and hence
    a <= floor(n/2) - 2; for fixed (a, r) the valid d form the contiguous
    range max(r + 1, n - a - r + 2) .. n - r - 1.  A naive scan of the full
    cube [1, n]^3 gives the same set (checked in the test suite).
    """
    half = n // 2
    return [
        (a, r, d, d)
        for a in range(3, half - 1)
        for r in range(a + 1, half)
        for d in range(max(r + 1, n - a - r + 2), n - r)
    ]


def enumerate_ra(n: int) -> list[Point4]:
    """All (depth, reg, dim, deg h) tuples achieved on n vertices.

    The four components are provably pairwise disjoint, so their sorted
    concatenation has no adjacent duplicates; this is re-checked at
    runtime and a repeated point raises InternalInconsistencyError (it
    would mean an enumeration bug, not bad input).
    """
    points = sorted(
        enumerate_ra_a(n) + enumerate_ra_b(n) + enumerate_ra_c(n) + enumerate_ra_d(n)
    )
    repeated = next((p for p, q in zip(points, points[1:]) if p == q), None)
    if repeated is not None:
        raise InternalInconsistencyError(
            f"ra components overlap at n={n}: {repeated} is in two of them"
        )
    return points


# ---------------------------------------------------------------------------
# bounding polytopes for arbitrary graphs
# ---------------------------------------------------------------------------

def enumerate_c_minus(n: int) -> list[Point2]:
    """Lower bounding polytope: {(1, n-1)} plus the slab of ``beta``.  n >= 3."""
    if n < 3:
        raise DomainError(f"c-minus is defined only for n >= 3, got {n}")
    points = [(a, b) for a in range(1, n // 2 + 1) for b in range(a, n - 1)]
    points.append((1, n - 1))
    return sorted(points)


def enumerate_c_plus(n: int) -> list[Point2]:
    """Upper bounding polytope: all (a, b) with 1 <= a <= b <= n-1.  n >= 3."""
    if n < 3:
        raise DomainError(f"c-plus is defined only for n >= 3, got {n}")
    return [(a, b) for a in range(1, n) for b in range(a, n)]


def enumerate_beta(n: int) -> list[Point2]:
    """The slab 1 <= a <= floor(n/2), a <= b <= n-2.  n >= 4."""
    if n < 4:
        raise DomainError(f"beta is defined only for n >= 4, got {n}")
    return [(a, b) for a in range(1, n // 2 + 1) for b in range(a, n - 1)]


ENUMERATORS = {
    NamedSet.CWDD_A: enumerate_cwdd_a,
    NamedSet.CWDD_B: enumerate_cwdd_b,
    NamedSet.CWDD_C: enumerate_cwdd_c,
    NamedSet.CWDD: enumerate_cwdd,
    NamedSet.RA_A: enumerate_ra_a,
    NamedSet.RA_B: enumerate_ra_b,
    NamedSet.RA_C: enumerate_ra_c,
    NamedSet.RA_D: enumerate_ra_d,
    NamedSet.RA: enumerate_ra,
    NamedSet.C_MINUS: enumerate_c_minus,
    NamedSet.C_PLUS: enumerate_c_plus,
    NamedSet.BETA: enumerate_beta,
}


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


def _in_cwdd(n: int, p: Point2) -> bool:
    return _in_cwdd_a(n, p) or _in_cwdd_b(n, p) or _in_cwdd_c(n, p)


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


def _in_ra(n: int, p: Point4) -> bool:
    return _in_ra_a(n, p) or _in_ra_b(n, p) or _in_ra_c(n, p) or _in_ra_d(n, p)


def _in_c_minus(n: int, p: Point2) -> bool:
    if n < 3:
        raise DomainError(f"c-minus is defined only for n >= 3, got {n}")
    a, b = p
    return (a, b) == (1, n - 1) or (1 <= a <= b <= n - 2 and a <= n // 2)


def _in_c_plus(n: int, p: Point2) -> bool:
    if n < 3:
        raise DomainError(f"c-plus is defined only for n >= 3, got {n}")
    a, b = p
    return 1 <= a <= b <= n - 1


def _in_beta(n: int, p: Point2) -> bool:
    if n < 4:
        raise DomainError(f"beta is defined only for n >= 4, got {n}")
    a, b = p
    return 1 <= a <= n // 2 and a <= b <= n - 2


_PREDICATES = {
    NamedSet.CWDD_A: _in_cwdd_a,
    NamedSet.CWDD_B: _in_cwdd_b,
    NamedSet.CWDD_C: _in_cwdd_c,
    NamedSet.CWDD: _in_cwdd,
    NamedSet.RA_A: _in_ra_a,
    NamedSet.RA_B: _in_ra_b,
    NamedSet.RA_C: _in_ra_c,
    NamedSet.RA_D: _in_ra_d,
    NamedSet.RA: _in_ra,
    NamedSet.C_MINUS: _in_c_minus,
    NamedSet.C_PLUS: _in_c_plus,
    NamedSet.BETA: _in_beta,
}


def contains(set_id: NamedSet, n: int, point: tuple[int, ...]) -> bool:
    """Decide membership of ``point`` in the named set at ``n``.

    Evaluates the set's defining inequalities directly, so it agrees with
    membership in the corresponding enumeration without materializing it.
    Raises ArityMismatchError when the point's coordinate count does not
    match the set, TypeError when a coordinate is not an int, and
    DomainError for c-minus/c-plus below n = 3 and beta below n = 4 (where
    those sets are undefined).
    """
    if len(point) != set_id.arity:
        raise ArityMismatchError(
            f"{set_id.value} expects {set_id.arity}-coordinate points, "
            f"got {len(point)} coordinates"
        )
    coords = tuple(point)
    for coord in coords:
        if not isinstance(coord, int):
            raise TypeError(f"{set_id.value} coordinates must be ints, got {coord!r}")
    return _PREDICATES[set_id](n, coords)
