"""Closed-form sizes of the lattice sets, indexed by residues of n mod 6.

Writing n = 6k + i with k >= 0 and 0 <= i <= 5 turns every set size into a
polynomial in k selected by the residue i: degree <= 2 for the planar sets
and degree 3 for the spatial ra components.  Each such size is a hand
table, one polynomial over a fixed divisor per residue, and one evaluator
reads them all.  The same decomposition drives the sandwich bounds and
ratio limits for the pair census.

Everything is computed in exact arithmetic.  Python integers are unbounded,
so cubic terms can never overflow, and every fractional coefficient of a
table (the halves and eighths below) is applied as a division whose
exactness is checked at runtime; an inexact division raises
InternalInconsistencyError because the counts are integers by construction.

Each polynomial branch is pinned to the enumerations in
:mod:`cwlattice.sets`: the test suite checks size_x(n) == len(enumerate_x(n))
for every n up to 120 (test_sizes_match_enumeration), and size_x(n) against
the census's mask counts for every n from 5 to 300 (acceptance criterion 2,
test_criterion_2_oracle_equivalence).  Either range over-determines a
degree-3 polynomial per residue many times over.

Each size function registers itself in SIZE_BY_SET through the decorator
_closed_form, which states its domain once: the size raises TypeError
unless n is an int, and below the set's first n it is 0 for a CW set and
raises DomainError for a bounding polytope, whose first n is its entry in
sets.FIRST_N.  The function bodies hold only the formulas.

A public call tests each argument once, inline, where it arrives
(isinstance, n < first, n <= 5); the shared checks errors.require_int and
sets._require_defined run only past a failed test, to raise their one
message, so a valid call runs neither.  Internal callers (size_ra_a,
ratio_report) call the unchecked bodies, each size's __wrapped__ as
functools.wraps leaves it, not the checked sizes.

ratio_report returns a RatioReport, a named tuple: immutable, compared and
hashed by value, and iterable in field order (n and the three ratios).
"""

from __future__ import annotations

import functools
from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction

from .errors import DomainError, InternalInconsistencyError, require_int
from .sets import FIRST_N, NamedSet, _require_defined


ResidueTable = tuple[tuple[int, int, int, int, int], ...]


def _residue_table(divisor: int, table: dict[int, tuple[int, ...]]) -> ResidueTable:
    """A hand table {i: (coefficients of k, highest first)} of a polynomial
    in k divided by divisor, as six rows (c3, c2, c1, c0, divisor) by i."""
    return tuple((0,) * (4 - len(table[i])) + table[i] + (divisor,) for i in range(6))


def _evaluate(table: ResidueTable, n: int) -> int:
    """(c3 k^3 + c2 k^2 + c1 k + c0) / divisor from the row of i, for
    n = 6k + i; the division is checked to be exact."""
    k, i = divmod(n, 6)
    c3, c2, c1, c0, divisor = table[i]
    numerator = ((c3 * k + c2) * k + c1) * k + c0
    q, r = divmod(numerator, divisor)
    if r:
        raise InternalInconsistencyError(
            f"inexact division {numerator}/{divisor}; a closed-form "
            "table entry must be wrong"
        )
    return q


SIZE_BY_SET: dict[NamedSet, Callable[[int], int]] = {}


def _closed_form(set_id: NamedSet, first: int | None = None):
    """Register the decorated size of set_id in SIZE_BY_SET.  The size
    raises TypeError unless n is an int; below first (by default the n from
    which FIRST_N defines the set) it raises DomainError where the set is
    undefined and is 0 elsewhere; from first on it is the value of the
    decorated function, which stays the size's __wrapped__."""
    if first is None:
        first = FIRST_N[set_id]

    def register(body: Callable[[int], int]) -> Callable[[int], int]:
        @functools.wraps(body)
        def size(n: int) -> int:
            if not isinstance(n, int):
                require_int(n)
            if n < first:
                if set_id in FIRST_N:  # a bounding polytope, undefined here
                    _require_defined(set_id, n)
                return 0
            return body(n)

        SIZE_BY_SET[set_id] = size
        return size

    return register


# ---------------------------------------------------------------------------
# (depth, dim) census sizes
# ---------------------------------------------------------------------------

@_closed_form(NamedSet.CWDD_A, 5)
def size_cwdd_a(n: int) -> int:
    """|cwdd-a|: 2 when n is even or n = 5, else 3; 0 below n = 5."""
    return 2 if (n % 2 == 0 or n == 5) else 3


@_closed_form(NamedSet.CWDD_B, 5)
def size_cwdd_b(n: int) -> int:
    """|cwdd-b|: with n = 6k + i this is k-1, k, or k+1 for i = 0, 1..4, 5."""
    k, i = divmod(n, 6)
    if i == 0:
        return k - 1
    return k + 1 if i == 5 else k


# 6k^2 + c1*k + c0 per residue i
_CWDD_C = _residue_table(1, {
    0: (6, -7, 1),
    1: (6, -5, 0),
    2: (6, -3, -1),
    3: (6, -1, -1),
    4: (6, 1, -1),
    5: (6, 3, -1),
})


@_closed_form(NamedSet.CWDD_C, 6)
def size_cwdd_c(n: int) -> int:
    """|cwdd-c|: zero through n = 5, then a quadratic in k per residue.

    Counting b for fixed a: ceil((n-a)/2) choices while 3a <= n, and
    n - 2a choices for larger a; summing over a gives the table.
    """
    return _evaluate(_CWDD_C, n)


_CWDD_TOTAL = _residue_table(1, {
    0: (6, -6, 2),
    1: (6, -4, 3),
    2: (6, -2, 1),
    3: (6, 0, 2),
    4: (6, 2, 1),
    5: (6, 4, 3),
})


@_closed_form(NamedSet.CWDD, 5)
def size_cwdd(n: int) -> int:
    """|cwdd|: 0 below 5, 2 at n = 5, then |A| + |B| + |C| folded per residue.

    The components only overlap at n = 5 (in the single point (2, 2)),
    which is why that value is special-cased rather than summed.
    """
    if n == 5:
        return 2
    return _evaluate(_CWDD_TOTAL, n)


# ---------------------------------------------------------------------------
# (depth, reg, dim, deg h) census sizes
# ---------------------------------------------------------------------------

@_closed_form(NamedSet.RA_A, 5)
def size_ra_a(n: int) -> int:
    """|ra-a|: same count as |cwdd-a| (the tuples project onto those pairs)."""
    return size_cwdd_a.__wrapped__(n)


# (3k^2 + c1*k + c0) / 2 per residue i
_RA_B = _residue_table(2, {
    0: (3, -3, 0),
    1: (3, 1, -2),
    2: (3, -1, 0),
    3: (3, 3, -2),
    4: (3, 1, 0),
    5: (3, 5, 0),
})


@_closed_form(NamedSet.RA_B, 5)
def size_ra_b(n: int) -> int:
    """|ra-b|: a half-integer quadratic per residue.

    For fixed a the valid d fill ((n-a)/2, floor((n-1)/2)] while 3a < n + 2
    and [a, floor((n-1)/2)] beyond; the two range-length formulas agree at
    the crossover, so the split introduces no tie corrections.
    """
    return _evaluate(_RA_B, n)


# 3k^2 + c1*k + c0 per residue i
_RA_C = _residue_table(1, {
    0: (3, 0, -3),
    1: (3, 1, -3),
    2: (3, 2, -3),
    3: (3, 3, -2),
    4: (3, 4, -2),
    5: (3, 5, -1),
})


@_closed_form(NamedSet.RA_C, 6)
def size_ra_c(n: int) -> int:
    """|ra-c|: zero through n = 5, then a quadratic in k per residue.

    For fixed a >= 3 the valid d fill (max(a, n - 2a), n - a], giving a
    choices while 3a < n + 1 and n - 2a choices beyond.  When 3a = n + 1
    exactly (possible only for n = 2 mod 3, i.e. residues 2 and 5) the two
    bounds tie and the count at that a is a - 1, not a; the residue-2 and
    residue-5 constant terms carry that correction.
    """
    return _evaluate(_RA_C, n)


# (24k^3 + c2*k^2 + c1*k + c0) / 8 per residue i
_RA_D = _residue_table(8, {
    0: (24, -72, 72, -24),
    1: (24, -60, 44, -8),
    2: (24, -48, 32, -8),
    3: (24, -36, 12, 0),
    4: (24, -24, 8, 0),
    5: (24, -12, -4, 0),
})


@_closed_form(NamedSet.RA_D, 5)
def size_ra_d(n: int) -> int:
    """|ra-d|: a cubic in k per residue (the residue-0 branch is 3(k-1)^3).

    Derivation sketch: for fixed a and r the valid d fill the range
    max(r + 1, n - a - r + 2) .. n - r - 1, of length a - 2 while
    2r <= n - a + 1 and n - 2r - 1 beyond; both the r-sum and the outer
    a-sum must be clipped to r >= a + 1 before telescoping, and after that
    clipping the total depends only on the residue of n mod 6, not on the
    parity of k.  The tests check the branches against the enumeration for
    every n <= 120 (test_sizes_match_enumeration) and against the census's
    mask counts for every n <= 300 (test_criterion_2_oracle_equivalence).
    """
    return _evaluate(_RA_D, n)


_RA_TOTAL = _residue_table(8, {
    0: (24, -36, 60, -32),
    1: (24, -24, 56, -16),
    2: (24, -12, 44, -16),
    3: (24, 0, 48, 0),
    4: (24, 12, 44, 0),
    5: (24, 24, 56, 16),
})


@_closed_form(NamedSet.RA, 5)
def size_ra(n: int) -> int:
    """|ra|: the four components are pairwise disjoint, so this is their sum,
    folded into one cubic per residue.  The residue-5 branch already yields
    the correct value 2 at n = 5 (k = 0)."""
    return _evaluate(_RA_TOTAL, n)


# ---------------------------------------------------------------------------
# bounding polytope sizes
# ---------------------------------------------------------------------------

# (27k^2 + c1*k + c0) / 2 per residue i
_BETA = _residue_table(2, {
    0: (27, -9, 0),
    1: (27, -3, 0),
    2: (27, 9, 0),
    3: (27, 15, 2),
    4: (27, 27, 6),
    5: (27, 33, 10),
})


@_closed_form(NamedSet.BETA)
def size_beta(n: int) -> int:
    """|beta| = sum over 1 <= a <= floor(n/2) of (n - a - 1).  n >= 4."""
    return _evaluate(_BETA, n)


@_closed_form(NamedSet.C_MINUS)
def size_c_minus(n: int) -> int:
    """|c-minus| = |beta| + 1: the apex (1, n-1) always lies outside the slab."""
    return _evaluate(_BETA, n) + 1


@_closed_form(NamedSet.C_PLUS)
def size_c_plus(n: int) -> int:
    """|c-plus| = n(n-1)/2, the full triangle 1 <= a <= b <= n-1 (one of n
    and n - 1 is even, so the division is exact)."""
    return n * (n - 1) // 2


# ---------------------------------------------------------------------------
# sandwich bounds and ratios
# ---------------------------------------------------------------------------

def sandwich_bounds_cwdd(n: int) -> tuple[Fraction, Fraction]:
    """Exact rational envelope for |cwdd|(n) when n > 5.

    |cwdd|(n) differs from (n-3)^2/6 by a residue-dependent constant that
    ranges over {1/2, 5/6, 2, 7/3}, hence

        (n-3)^2/6 + 1/2  <=  |cwdd|(n)  <=  (n-3)^2/6 + 7/3.

    Both ends are attained (residue 0 hits the lower bound, residues 1 and
    5 the upper).  Over the common denominator 6 the ends are the single
    fractions ((n-3)^2 + 3)/6 and ((n-3)^2 + 14)/6, since 1/2 = 3/6 and
    7/3 = 14/6; each is built as one Fraction, with no Fraction addition.
    """
    if not isinstance(n, int):
        require_int(n)
    if n <= 5:
        raise DomainError(f"sandwich bounds are defined only for n > 5, got {n}")
    s = (n - 3) ** 2
    return Fraction(s + 3, 6), Fraction(s + 14, 6)


class RatioReport(namedtuple("RatioReport", "n cwdd_over_cplus cwdd_over_cminus cwdd_over_nsq")):
    """Exact rationals comparing the pair census to its bounding polytopes:
    n and three Fractions."""

    __slots__ = ()


def ratio_report(n: int) -> RatioReport:
    """|cwdd|/|c-plus|, |cwdd|/|c-minus| and |cwdd|/n^2 as exact fractions.

    As n grows the first two tend to the envelope ends 1/3 and 4/9 and the
    third tends to 1/6.  Callers render decimals; nothing is rounded here.
    """
    if not isinstance(n, int):
        require_int(n)
    if n <= 5:
        raise DomainError(f"ratio report is defined only for n > 5, got {n}")
    cw = size_cwdd.__wrapped__(n)
    return RatioReport(n, Fraction(cw, size_c_plus.__wrapped__(n)),
                       Fraction(cw, size_c_minus.__wrapped__(n)), Fraction(cw, n * n))
