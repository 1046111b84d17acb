"""Enumeration tests: frozen values, naive-scan oracles, membership agreement."""

import copy
import functools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cwlattice import (
    ArityMismatchError,
    DomainError,
    NamedSet,
    check,
    contains,
    enumerate_beta,
    enumerate_c_minus,
    enumerate_c_plus,
    enumerate_cwdd,
    enumerate_cwdd_a,
    enumerate_cwdd_b,
    enumerate_cwdd_c,
    enumerate_ra,
    enumerate_ra_a,
    enumerate_ra_b,
    enumerate_ra_c,
    enumerate_ra_d,
    enumerate_set,
    ratio_report,
    realize,
    sandwich_bounds_cwdd,
)
from cwlattice import formulas, sets
from cwlattice.cli import main
from cwlattice.formulas import SIZE_BY_SET

from conftest import first_mask


# ---------------------------------------------------------------------------
# naive oracles: full-box scans of the raw inequalities, no loop-bound tricks
# ---------------------------------------------------------------------------

def naive_cwdd_a(n):
    if n < 5:
        return set()
    pts = {(2, n - 2), (2, n - 3)}
    if n % 2 == 1:
        pts.add((2, (n - 1) // 2))
    return pts


def naive_cwdd_b(n):
    return {(b, b) for b in range(1, n + 1) if 3 * b > n and 2 * b < n}


def naive_cwdd_c(n):
    return {
        (a, b)
        for a in range(1, n + 1)
        for b in range(1, n + 1)
        if 3 <= a <= (n - 1) // 2 and b > a and n - a < 2 * b and b <= n - a
    }


def naive_ra_b(n):
    return {
        (a, d, d, d)
        for a in range(1, n + 1)
        for d in range(1, n + 1)
        if 3 <= a <= d <= (n - 1) // 2 and n < a + 2 * d
    }


def naive_ra_c(n):
    return {
        (a, a, d, d)
        for a in range(1, n + 1)
        for d in range(1, n + 1)
        if 3 <= a < d <= n - a and n <= 2 * a + d - 1
    }


# ---------------------------------------------------------------------------
# frozen examples
# ---------------------------------------------------------------------------

def test_cwdd_a_examples():
    assert enumerate_cwdd_a(5) == [(2, 2), (2, 3)]
    assert enumerate_cwdd_a(4) == []
    assert enumerate_cwdd_a(9) == [(2, 4), (2, 6), (2, 7)]


def test_cwdd_b_examples():
    assert enumerate_cwdd_b(5) == [(2, 2)]
    assert enumerate_cwdd_b(12) == [(5, 5)]
    assert enumerate_cwdd_b(6) == []


def test_cwdd_c_examples():
    assert enumerate_cwdd_c(5) == []
    assert enumerate_cwdd_c(7) == [(3, 4)]
    expected_12 = sorted(
        [(3, b) for b in range(5, 10)]
        + [(4, b) for b in range(5, 9)]
        + [(5, 6), (5, 7)]
    )
    assert enumerate_cwdd_c(12) == expected_12


def test_cwdd_union_examples():
    assert enumerate_cwdd(5) == [(2, 2), (2, 3)]
    assert enumerate_cwdd(4) == []
    assert len(enumerate_cwdd(12)) == 14


def test_ra_component_examples():
    assert enumerate_ra_b(7) == [(3, 3, 3, 3)]
    assert enumerate_ra_d(12) == [(3, 4, 7, 7), (3, 5, 6, 6), (4, 5, 6, 6)]
    assert enumerate_ra_c(6) == []
    assert enumerate_ra_c(8) == [(3, 3, 4, 4), (3, 3, 5, 5)]


def test_ra_union_examples():
    assert enumerate_ra(5) == [(2, 2, 2, 2), (2, 2, 3, 3)]
    assert len(enumerate_ra(6)) == 2
    assert len(enumerate_ra(12)) == 17
    parts = (enumerate_ra_a(12), enumerate_ra_b(12), enumerate_ra_c(12), enumerate_ra_d(12))
    assert [len(p) for p in parts] == [2, 3, 9, 3]


def test_bound_polytope_examples():
    assert len(enumerate_c_plus(6)) == 15
    assert len(enumerate_c_minus(6)) == 10
    assert len(enumerate_beta(6)) == 9
    assert (1, 5) in enumerate_c_minus(6)


# ---------------------------------------------------------------------------
# oracle equivalence against the naive scans
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(5, 61))
def test_tuple_sets_match_naive_scan(n):
    assert enumerate_ra_b(n) == sorted(naive_ra_b(n))
    assert enumerate_ra_c(n) == sorted(naive_ra_c(n))


# the census cap's last n, one per residue mod 6
CAP_RANGE = range(295, 301)


@pytest.mark.parametrize("n", [*range(5, 151), *CAP_RANGE])
def test_ra_d_rows_split_at_the_turn_equal_the_per_row_max(n):
    # the masks split at each depth's turn (n - a + 2) // 2 are the per-row
    # max() form, to n = 150 and at the census cap, past criterion 8's cube
    # scan at n = 40, and so are the points enumerated from them
    half = n // 2
    rows = [((a, r), max(r + 1, n - a - r + 2), n - r - 1)
            for a in range(3, half - 1)
            for r in range(a + 1, half)]
    masks = {}
    for (a, r), lo, hi in rows:
        masks.setdefault(a, {})[r] = (2 << hi) - (1 << lo)
    assert sets._masks_ra_d(n) == masks
    assert enumerate_ra_d(n) == [(a, r, d, d) for (a, r), lo, hi in rows
                                 for d in range(lo, hi + 1)]


# each pair-set source's masks as one expression per mask, the max() of
# cwdd-c's low end and the top bit of every row included
PER_MASK_SOURCES = {
    NamedSet.CWDD_C: lambda n: {a: (2 << (n - a)) - (1 << max(a + 1, (n - a) // 2 + 1))
                                for a in range(3, (n - 1) // 2 + 1)},
    NamedSet.C_MINUS: lambda n: {a: (2 << (n - 1 if a == 1 else n - 2)) - (1 << a)
                                 for a in range(1, n // 2 + 1)},
    NamedSet.C_PLUS: lambda n: {a: (2 << (n - 1)) - (1 << a) for a in range(1, n)},
    NamedSet.BETA: lambda n: {a: (2 << (n - 2)) - (1 << a) for a in range(1, n // 2 + 1)},
}


@pytest.mark.parametrize("n", [*range(1, 151), *CAP_RANGE])
def test_pair_set_sources_equal_their_per_mask_expressions(n):
    # cwdd-c split at its turn, and the polytopes' top bits built once per
    # call, past the naive scans' n = 80; a polytope only where it is defined
    for set_id, per_mask in PER_MASK_SOURCES.items():
        if sets.is_defined(set_id, n):
            assert sets.MASK_SOURCES[set_id](n) == per_mask(n), (set_id, n)


@pytest.mark.parametrize("n", CAP_RANGE)
def test_ra_b_masks_at_the_cap_equal_the_naive_scan(n):
    naive = {}
    for a, r, d, _ in naive_ra_b(n):
        naive.setdefault(a, {})[r] = naive.get(a, {}).get(r, 0) | 1 << d
    assert sets._masks_ra_b(n) == naive


@pytest.mark.parametrize("n", [*range(5, 41), *CAP_RANGE])
def test_building_the_unions_leaves_every_part_as_its_source_built_it(n):
    # a union shares inner dicts and masks with its parts, so an OR written
    # into a shared dict would change a part
    table = sets.MaskTable(n)
    table[NamedSet.RA], table[NamedSet.CWDD]
    for union, parts in sets.UNION_PARTS.items():
        for part in parts:
            assert table[part] == sets.MASK_SOURCES[part](n), (part, n)


# small tables of either shape, no mask 0 and no inner dict empty; their
# prefixes and bits range widely enough to overlap, touch and miss
_MASKS = st.integers(1, (1 << 10) - 1)
_PAIR_TABLES = st.dictionaries(st.integers(1, 6), _MASKS, max_size=5)
_TUPLE_TABLES = st.dictionaries(
    st.integers(1, 6), st.dictionaries(st.integers(1, 6), _MASKS, min_size=1, max_size=4),
    max_size=5)


def _point_set(table):
    return {p for points in sets._points(table) for p in points}


def _no_empty_entry(table):
    return all(entry and (isinstance(entry, int) or _no_empty_entry(entry))
               for entry in table.values())


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(_PAIR_TABLES, _PAIR_TABLES), st.tuples(_TUPLE_TABLES, _TUPLE_TABLES)))
def test_and_or_xor_are_the_set_operations_on_the_points(tables):
    # a result may share inner dicts with its inputs, so writing into one
    # (a depth both tables hold ORed in place) would change a table passed in
    xs, ys = tables
    before = copy.deepcopy(tables)
    for op, points in [(sets._and, set.__and__), (sets._or, set.__or__), (sets._xor, set.__xor__)]:
        for args in (tables, tables[::-1]):
            result = op(*args)
            assert _point_set(result) == points(_point_set(xs), _point_set(ys)), op
            assert _no_empty_entry(result), op
            assert (xs, ys) == before, op


@settings(max_examples=300, deadline=None)
@given(_PAIR_TABLES, _PAIR_TABLES, st.booleans())
@example({2: 0b10, 3: 1}, {2: 0b110}, False)
def test_points_outside_names_the_least_point_of_sub_outside_sup(sub, sup, widen):
    # sup widened by sub holds all of sub, so both answers are drawn often.
    # No lattice set holds b = 0, so only such tables show a pass test that
    # reads a prefix sup lacks as the mask 1, not 0: the example's one point
    # outside sup is (3, 0)
    if widen:
        sup = sets._or(sup, sub)
    table = sets.MaskTable(12)
    table[NamedSet.CWDD], table[NamedSet.C_PLUS] = sub, sup
    outside = _point_set(sub) - _point_set(sup)
    assert sets.points_outside(NamedSet.CWDD, NamedSet.C_PLUS, table) == (
        ((NamedSet.CWDD, NamedSet.C_PLUS), min(outside)) if outside else None)


@pytest.mark.parametrize("n", [10, 11, 40, 41])
def test_or_masks_writes_into_no_table_passed_in(n):
    # the planted points of the census fault tests: a new last depth, and
    # ra-d's first depth grown, once by a new r and once at an r it holds;
    # ORed as MaskTable ORs a union's parts
    parts = [sets.MASK_SOURCES[part](n) for part in sets.UNION_PARTS[NamedSet.RA]]
    first = min(parts[3])
    tables = [{n: {1: 1 << n}}, *parts, {first: {1: 1 << n}},
              {first: {first + 1: 1 << n}}, {first: dict(parts[3].get(first, {}))}]
    before = copy.deepcopy(tables)
    union = functools.reduce(sets._or, tables)
    assert tables == before
    assert all(mask for inner in union.values() for mask in inner.values())
    assert _point_set(union) == {p for table in tables for p in _point_set(table)}


def test_cw_sets_empty_below_five():
    for n in range(-3, 5):
        assert enumerate_cwdd_a(n) == []
        assert enumerate_cwdd_b(n) == []
        assert enumerate_cwdd_c(n) == []
        assert enumerate_cwdd(n) == []
        assert enumerate_ra_a(n) == []
        assert enumerate_ra_b(n) == []
        assert enumerate_ra_c(n) == []
        assert enumerate_ra_d(n) == []
        assert enumerate_ra(n) == []


def test_enumerations_sorted_and_duplicate_free():
    for n in (5, 6, 7, 11, 12, 30):
        for set_id in NamedSet:
            points = enumerate_set(set_id, n)
            assert points == sorted(set(points))


def test_bounding_polytope_containment_chain():
    for n in range(3, 121):
        cplus = set(enumerate_c_plus(n))
        cminus = set(enumerate_c_minus(n))
        assert cminus <= cplus
        if n >= 4:
            beta = set(enumerate_beta(n))
            assert beta <= cminus
            assert cminus - beta == {(1, n - 1)}
        if n >= 5:
            assert set(enumerate_cwdd(n)) <= cplus


def test_domain_errors():
    with pytest.raises(DomainError):
        enumerate_c_minus(2)
    with pytest.raises(DomainError):
        enumerate_c_plus(2)
    with pytest.raises(DomainError):
        enumerate_beta(3)
    assert enumerate_beta(4) == [(1, 1), (1, 2), (2, 2)]


# ---------------------------------------------------------------------------
# membership predicate agreement
# ---------------------------------------------------------------------------

PAIR_SETS = (
    NamedSet.CWDD_A, NamedSet.CWDD_B, NamedSet.CWDD_C, NamedSet.CWDD,
    NamedSet.C_MINUS, NamedSet.C_PLUS, NamedSet.BETA,
)


@pytest.mark.parametrize("n", range(3, 61))
def test_contains_agrees_with_enumeration_pair_sets(n):
    for set_id in PAIR_SETS:
        try:
            member = set(enumerate_set(set_id, n))
        except DomainError:
            continue
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                assert contains(set_id, n, (a, b)) == ((a, b) in member)


@pytest.mark.parametrize("n", range(5, 61))
def test_contains_agrees_with_enumeration_tuple_sets(n):
    half = n // 2
    b_box = {(a, d, d, d) for a in range(1, half + 1) for d in range(1, half + 1)}
    c_box = {(a, a, d, d) for a in range(1, half + 1) for d in range(1, n + 1)}
    d_box = {
        (a, r, d, d)
        for a in range(1, half)
        for r in range(a + 1, half + 1)
        for d in range(r + 1, n - r)
    }
    boxes = {
        NamedSet.RA_A: set(enumerate_ra_a(n)) | {(2, 2, n, n), (1, 1, 1, 1)} | {
            (2, r, d, h) for r in (2, 3, half - 1, half) for d in (half, n - 3, n - 2)
            for h in (half, n - 3, n - 2)
        },
        NamedSet.RA_B: b_box,
        NamedSet.RA_C: c_box,
        NamedSet.RA_D: d_box,
        NamedSet.RA: b_box | c_box | d_box | set(enumerate_ra_a(n)),
    }
    for set_id, box in boxes.items():
        member = set(enumerate_set(set_id, n))
        for point in box:
            assert contains(set_id, n, point) == (point in member), (set_id, n, point)


def test_contains_rejects_malformed_tuple_shapes():
    assert not contains(NamedSet.RA_B, 12, (3, 5, 5, 4))
    assert not contains(NamedSet.RA_C, 12, (3, 4, 7, 7))
    assert not contains(NamedSet.RA_D, 12, (3, 4, 7, 6))


@pytest.mark.parametrize("n", [3, 4])
def test_depth_two_sets_are_empty_below_five(n):
    # the points the rules for n >= 5 would give are not members either
    assert enumerate_ra_a(n) == [] and enumerate_cwdd_a(n) == []
    for d in (n - 2, n - 3):
        assert not contains(NamedSet.RA_A, n, (2, 2, d, d))
    assert not contains(NamedSet.CWDD_A, n, (2, n - 2))


def test_contains_rejects_non_integer_coordinates():
    with pytest.raises(TypeError):
        contains(NamedSet.CWDD_B, 12, (5.0, 5.0))
    with pytest.raises(TypeError):
        contains(NamedSet.CWDD_C, 12, (3.5, 7))


def _ra_b_gains_ra_d_first_row(monkeypatch):
    masks_ra_b = sets.MASK_SOURCES[NamedSet.RA_B]
    repeated = first_mask(sets.MASK_SOURCES[NamedSet.RA_D](12))  # ((3, 4), 7, 7)
    monkeypatch.setitem(sets.MASK_SOURCES, NamedSet.RA_B,
                        lambda n: sets._or(masks_ra_b(n), repeated))


def test_enumerate_ra_lists_a_point_of_two_parts_once(capsys, monkeypatch):
    # an OR'd union holds each point once whatever its parts do; only the
    # census's disjointness check reports the shared point
    _ra_b_gains_ra_d_first_row(monkeypatch)
    parts = [enumerate_set(part, 12) for part in sets.UNION_PARTS[NamedSet.RA]]
    assert (3, 4, 7, 7) in parts[1] and (3, 4, 7, 7) in parts[3]
    points = enumerate_ra(12)
    assert points == sorted(set().union(*parts))
    assert len(points) == len(set(points)) == sum(map(len, parts)) - 1
    assert main(["enumerate", "--n", "12", "--set", "ra"]) == 0
    assert capsys.readouterr().out == "".join(f"{a},{r},{d},{h}\n" for a, r, d, h in points)
    failure = check("ra parts disjoint", 12)
    assert (failure.sets, failure.witness) == ((NamedSet.RA_B, NamedSet.RA_D), (3, 4, 7, 7))


def _spy(called, name, check, *args):
    called.append(name)
    return check(*args)


@pytest.fixture
def checks(monkeypatch):
    """The names of the shared checks errors.require_int and
    sets._require_defined called, as sets and formulas bind them, in order."""
    called = []
    for module in (sets, formulas):
        for name in ("require_int", "_require_defined"):
            monkeypatch.setattr(module, name,
                                functools.partial(_spy, called, name, getattr(module, name)))
    return called


@pytest.mark.parametrize("n", [12.0, 13.5, "12", None, Fraction(12)])
def test_non_integer_n_is_rejected(n, checks):
    # each rejection raises from one call of errors.require_int
    message = "n must be an int"
    calls = [*SIZE_BY_SET.values(), sandwich_bounds_cwdd, ratio_report]
    for set_id in NamedSet:
        calls += [functools.partial(enumerate_set, set_id),
                  lambda n, set_id=set_id: contains(set_id, n, (5,) * set_id.arity)]
    for call in calls:
        checks.clear()
        with pytest.raises(TypeError, match=message):
            call(n)
        assert checks == ["require_int"], call
    with pytest.raises(TypeError, match=message):
        realize(n, (5, 5))


def test_a_valid_o1_call_runs_no_shared_check(checks):
    # contains, the sizes, the sandwich and the ratio report test each
    # argument inline and call a shared check only to raise
    for n in [*range(4, 13), 300]:
        for set_id in NamedSet:
            contains(set_id, n, (5,) * set_id.arity)
    for set_id, size in SIZE_BY_SET.items():
        for n in [*range(sets.FIRST_N.get(set_id, 0), 13), 300, 10**9]:
            size(n)
    sandwich_bounds_cwdd(6)
    ratio_report(6)
    assert checks == []


@pytest.mark.parametrize("n", range(3, 61))
def test_rows_sorted_and_disjoint(n):
    table = sets.MaskTable(n)
    for set_id in NamedSet:
        if not sets.is_defined(set_id, n):
            continue
        # one non-empty, ascending, duplicate-free list per depth, in
        # ascending depth, adding up to the set
        depths = list(sets.points_by_depth(set_id, n))
        assert all(depth and depth == sorted(set(depth)) for depth in depths), (set_id, n)
        assert all(len(point) == set_id.arity for depth in depths for point in depth)
        firsts = [depth[0][0] for depth in depths]
        assert firsts == sorted(set(firsts))
        assert all({point[0] for point in depth} == {depth[0][0]} for depth in depths)
        assert sum(map(len, depths)) == table.count(set_id) == len(enumerate_set(set_id, n))
        # a mask's runs are ascending, never touch, and OR back to the mask
        masks = table[set_id].values()
        if set_id.arity == 4:
            masks = [mask for inner in masks for mask in inner.values()]
        for mask in masks:
            runs = sets._runs(mask)
            assert all(lo <= hi for lo, hi in runs)
            assert all(hi + 1 < lo for (_, hi), (lo, _) in zip(runs, runs[1:])), (set_id, n)
            assert functools.reduce(int.__or__, [(2 << hi) - (1 << lo) for lo, hi in runs]) == mask


def test_contains_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        contains(NamedSet.CWDD_B, 12, (5, 5, 5, 5))
    with pytest.raises(ArityMismatchError):
        contains(NamedSet.RA_D, 12, (3, 4))


@pytest.mark.parametrize("n", range(5, 61))
def test_ra_b_projects_into_pair_census(n):
    for a, d, _, _ in enumerate_ra_b(n):
        assert a >= 3
        assert contains(NamedSet.CWDD, n, (a, d))


@pytest.mark.parametrize("set_id, first", list(sets.FIRST_N.items()))
def test_polytope_domain_from_one_table(set_id, first, checks):
    message = f"{set_id.value} is defined only for n >= {first}, got {first - 1}"
    # points_by_depth raises when called, before its first point is asked
    # for; each call raises from one call of _require_defined
    for call, called in [(lambda n: sets.points_by_depth(set_id, n), ["require_int"]),
                         (lambda n: contains(set_id, n, (1, 1)), []),
                         (SIZE_BY_SET[set_id], [])]:
        checks.clear()
        with pytest.raises(DomainError) as raised:
            call(first - 1)
        assert str(raised.value) == message
        assert checks == [*called, "_require_defined"]
        call(first)
    assert not sets.is_defined(set_id, first - 1) and sets.is_defined(set_id, first)


def test_every_other_set_is_defined_everywhere():
    for set_id in set(NamedSet) - set(sets.FIRST_N):
        for n in (-3, 0, 2):
            assert sets.is_defined(set_id, n)
            sets._require_defined(set_id, n)


class IntSub(int):
    """An int subclass, which every n and coordinate check accepts."""


def test_contains_error_order():
    # n type, then arity, then coordinate type, then the domain
    with pytest.raises(TypeError):
        contains(NamedSet.BETA, 3.0, (1,))
    with pytest.raises(ArityMismatchError):
        contains(NamedSet.BETA, 3, (1,))
    with pytest.raises(TypeError):
        contains(NamedSet.BETA, 3, (1.0, 2))
    with pytest.raises(DomainError):
        contains(NamedSet.BETA, 3, (1, 2))
    # each type test is an isinstance test: an int subclass as n and bools
    # as coordinates pass it, in contains and in the closed forms alike
    n = IntSub(12)
    with pytest.raises(DomainError):
        contains(NamedSet.BETA, IntSub(3), (True, 2))
    assert contains(NamedSet.C_PLUS, n, (True, 5)) and not contains(NamedSet.C_PLUS, n, (False, 5))
    assert contains(NamedSet.CWDD, n, (2, 10)) and not contains(NamedSet.RA, n, (True,) * 4)
    assert [size(n) for size in SIZE_BY_SET.values()] == [size(12) for size in SIZE_BY_SET.values()]
    assert sandwich_bounds_cwdd(n) == sandwich_bounds_cwdd(12)
    assert ratio_report(n) == ratio_report(12)


def test_parts_overlap_labels_the_part_pairs():
    a, b, c = sets.UNION_PARTS[NamedSet.CWDD]
    for n in (5, 12):  # at n = 5, (2, 2) in a and b is the expected shared point
        assert sets.parts_overlap(NamedSet.CWDD, sets.MaskTable(n)) is None
    table = sets.MaskTable(5)
    table[b] = {}  # the expected shared point goes missing
    assert sets.parts_overlap(NamedSet.CWDD, table) == ((a, b), (2, 2))
    table = sets.MaskTable(20)
    assert table[b] == {7: 1 << 7, 8: 1 << 8, 9: 1 << 9}  # (7, 7), (8, 8), (9, 9)
    # c gains b's points from the second on
    table[c] = sets._or(table[c], {8: 1 << 8, 9: 1 << 9})
    assert sets.parts_overlap(NamedSet.CWDD, table) == ((b, c), (8, 8))
    a, b, c, d = sets.UNION_PARTS[NamedSet.RA]
    assert sets.parts_overlap(NamedSet.RA, sets.MaskTable(12)) is None
    table = sets.MaskTable(12)
    assert enumerate_ra_d(12) == [(3, 4, 7, 7), (3, 5, 6, 6), (4, 5, 6, 6)]
    table[b] = sets._or(table[b], {3: {5: 1 << 6}})
    table[a] = sets._or(table[a], {4: {5: 1 << 6}})
    # the first pair in UNION_PARTS order that shares a point names the least one
    assert sets.parts_overlap(NamedSet.RA, table) == ((a, d), (4, 5, 6, 6))


def test_union_rows_join_overlapping_and_touching_rows_of_one_prefix(monkeypatch):
    # the rows are dealt to the three cwdd parts in turn; the union ORs the
    # parts' masks, whose runs join what overlaps or touches
    rows = [((2,), 7, 9), ((1,), 1, 3), ((1,), 4, 4), ((1,), 2, 2), ((1,), 6, 8),
            ((2,), 1, 5), ((2,), 3, 6), ((3,), 5, 5), ((1,), 8, 10)]
    for j, part in enumerate(sets.UNION_PARTS[NamedSet.CWDD]):
        masks = {}
        for (a,), lo, hi in rows[j::3]:
            masks = sets._or(masks, {a: (2 << hi) - (1 << lo)})
        monkeypatch.setitem(sets.MASK_SOURCES, part, lambda n, masks=masks: masks)
    table = sets.MaskTable(12)
    assert {a: sets._runs(mask) for a, mask in table[NamedSet.CWDD].items()} == {
        1: [(1, 4), (6, 10)], 2: [(1, 9)], 3: [(5, 5)]}
    points = {(a, b) for (a,), lo, hi in rows for b in range(lo, hi + 1)}
    assert enumerate_cwdd(12) == sorted(points)
    assert table.count(NamedSet.CWDD) == len(points)


# ---------------------------------------------------------------------------
# the mask tables, against the naive scans
# ---------------------------------------------------------------------------

def naive_ra_a(n):
    if n < 5:
        return set()
    pts = {(2, 2, n - 2, n - 2), (2, 2, n - 3, n - 3)}
    if n % 2 == 1:
        pts.add((2, (n - 1) // 2, (n - 1) // 2, (n - 1) // 2))
    return pts


def naive_ra_d_pruned(n):
    # the box [1, n]^3, leaving a depth or an r as soon as it breaks one of
    # the raw inequalities; criterion 8's full cube scan stops at n = 40
    return {
        (a, r, d, d)
        for a in range(1, n + 1) if a >= 3
        for r in range(1, n + 1) if a < r and 2 * r + 1 < n
        for d in range(1, n + 1)
        if r < d < n - r and n + 2 <= a + r + d
    }


def naive_box(n, member):
    return {(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if member(a, b)}


def naive_points(set_id, n):
    """The set's points from the naive scans, independent of the masks."""
    naive = {
        NamedSet.CWDD_A: naive_cwdd_a, NamedSet.CWDD_B: naive_cwdd_b,
        NamedSet.CWDD_C: naive_cwdd_c, NamedSet.RA_A: naive_ra_a,
        NamedSet.RA_B: naive_ra_b, NamedSet.RA_C: naive_ra_c,
        NamedSet.RA_D: naive_ra_d_pruned,
        NamedSet.C_PLUS: lambda n: naive_box(n, lambda a, b: a <= b <= n - 1),
        NamedSet.BETA: lambda n: naive_box(n, lambda a, b: a <= n // 2 and a <= b <= n - 2),
        NamedSet.C_MINUS: lambda n: naive_box(
            n, lambda a, b: (a, b) == (1, n - 1) or (a <= n // 2 and a <= b <= n - 2)),
    }
    if set_id in sets.UNION_PARTS:
        return set().union(*(naive[part](n) for part in sets.UNION_PARTS[set_id]))
    return naive[set_id](n)


def runs_of(points):
    """The runs of sorted points as (prefix, lo, hi): each prefix's last
    coordinates, cut where two neighbours are not consecutive."""
    rows = []
    for point in sorted(points):
        prefix, last = point[:len(point) // 2], point[len(point) // 2]
        if rows and rows[-1][0] == prefix and rows[-1][2] + 1 == last:
            rows[-1] = (prefix, rows[-1][1], last)
        else:
            rows.append((prefix, last, last))
    return rows


@pytest.mark.parametrize("n", range(1, 81))
def test_mask_tables_match_the_naive_scans(n):
    table = sets.MaskTable(n)
    for set_id in NamedSet:
        if not sets.is_defined(set_id, n):
            continue
        if set_id.arity == 4:
            assert all(table[set_id].values()), (set_id, n)  # no depth without a mask
        masks = _flat_masks(set_id, n)
        for mask in masks.values():
            assert mask and mask >> 1 << 1 == mask and mask >> (n + 1) == 0, (set_id, n)
        points = naive_points(set_id, n)
        assert table.count(set_id) == sum(mask.bit_count() for mask in masks.values())
        assert table.count(set_id) == len(points), (set_id, n)
        assert [(prefix, lo, hi) for prefix in sorted(masks)
                for lo, hi in sets._runs(masks[prefix])] == runs_of(points), (set_id, n)
        assert enumerate_set(set_id, n) == sorted(points), (set_id, n)


def test_odd_depth_two_masks_hold_two_runs():
    # at odd n cwdd-a's one mask holds (2, (n-1)/2) apart from (2, n-3..n-2)
    assert sets.MaskTable(301)[NamedSet.CWDD_A] == {2: (1 << 150) | (3 << 298)}
    assert sets._runs(sets.MaskTable(301)[NamedSet.CWDD_A][2]) == [(150, 150), (298, 299)]
    assert enumerate_cwdd_a(301) == [(2, 150), (2, 298), (2, 299)]
    ra_a = sets.MaskTable(301)[NamedSet.RA_A]
    assert {r: sets._runs(mask) for r, mask in ra_a[2].items()} == {
        2: [(298, 299)], 150: [(150, 150)]}
    assert enumerate_ra_a(301) == [(2, 2, 298, 298), (2, 2, 299, 299), (2, 150, 150, 150)]
    # the three points in one run
    assert sets._runs(sets.MaskTable(5)[NamedSet.CWDD_A][2]) == [(2, 3)]


@functools.lru_cache(maxsize=32)
def _flat_masks(set_id, n):
    """The set's masks at n keyed by whole prefixes, (a,) or (a, r)."""
    masks = sets.MaskTable(n)[set_id]
    if set_id.arity == 2:
        return {(a,): mask for a, mask in masks.items()}
    return {(a, r): mask for a, inner in masks.items() for r, mask in inner.items()}


@st.composite
def set_points(draw):
    """A set, an n <= 300 where it is defined, and a point: one of its
    points, often moved one step along an axis or the diagonal (d, h), or
    any point near the box [1, n]^arity."""
    set_id = draw(st.sampled_from(list(NamedSet)))
    n = draw(st.integers(sets.FIRST_N.get(set_id, 1), 300))
    masks = _flat_masks(set_id, n)
    if masks and draw(st.booleans()):
        prefix = draw(st.sampled_from(sorted(masks)))
        mask = masks[prefix]
        last = draw(st.sampled_from([b for b in range(mask.bit_length()) if mask >> b & 1]))
        point = tuple(prefix) + (last,) * (set_id.arity - len(prefix))
        if draw(st.booleans()):
            return set_id, n, point
        steps = [[sign * (j == axis) for j in range(set_id.arity)]
                 for axis in range(set_id.arity) for sign in (1, -1)]
        if set_id.arity == 4:
            steps += [[0, 0, 1, 1], [0, 0, -1, -1]]
        step = draw(st.sampled_from(steps))
        return set_id, n, tuple(x + s for x, s in zip(point, step))
    return set_id, n, tuple(draw(st.integers(-1, n + 2)) for _ in range(set_id.arity))


@settings(max_examples=400, deadline=None)
@given(set_points())
def test_a_points_bit_is_set_exactly_when_contains_says_member(case):
    set_id, n, point = case
    prefix, last = point[:set_id.arity // 2], point[set_id.arity // 2]
    if set_id.arity == 4 and point[2] != point[3]:
        prefix = None  # deg h differs from dim: no mask holds the point
    bit = last >= 0 and _flat_masks(set_id, n).get(prefix, 0) >> last & 1 == 1
    assert bit == contains(set_id, n, point)


# ---------------------------------------------------------------------------
# the (depth, dim) pairs of CW graphs are not a convex lattice polytope
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(9, 302, 2))
def test_cwdd_skips_a_point_between_two_of_its_points_at_odd_n(n):
    # on the line a = 2, (2, (n+1)/2) lies between (2, (n-1)/2) and
    # (2, n-3), which are in cwdd-a, and it is in no part of cwdd
    assert contains(NamedSet.CWDD, n, (2, (n - 1) // 2))
    assert not contains(NamedSet.CWDD, n, (2, (n + 1) // 2))
    assert contains(NamedSet.CWDD, n, (2, n - 3))


def _cross(o, p, q):
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def _hull(points):
    """The vertices of the convex hull of the points, counter-clockwise and
    without collinear ones, by Andrew's monotone chain in exact integers."""
    points = sorted(points)
    if len(points) <= 2:
        return points
    chains = []
    for run in (points, points[::-1]):
        chain = []
        for p in run:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        chains.append(chain[:-1])
    return chains[0] + chains[1]


def _hull_lattice_points(points):
    """The lattice points of the convex hull of the points, on its boundary
    or inside: those of the points' bounding box on the outer side of no
    hull edge."""
    if not points:
        return set()
    hull = _hull(points)
    edges = list(zip(hull, hull[1:] + hull[:1]))
    (a_lo, b_lo), (a_hi, b_hi) = map(min, zip(*points)), map(max, zip(*points))
    return {(a, b) for a in range(a_lo, a_hi + 1) for b in range(b_lo, b_hi + 1)
            if all(_cross(p, q, (a, b)) >= 0 for p, q in edges)}


def test_hull_lattice_points_of_a_triangle_and_a_segment():
    assert _hull([(0, 0), (2, 0), (0, 2), (1, 0), (1, 1)]) == [(0, 0), (2, 0), (0, 2)]
    assert _hull_lattice_points({(0, 0), (2, 0), (0, 2)}) == {
        (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)}
    assert _hull_lattice_points({(1, 1), (3, 3)}) == {(1, 1), (2, 2), (3, 3)}
    assert _hull_lattice_points({(4, 5)}) == {(4, 5)}


def test_only_cwdd_misses_lattice_points_of_its_hull():
    for n in range(5, 41):
        points = set(enumerate_cwdd(n))
        missing = sorted(_hull_lattice_points(points) - points)
        if n % 2 == 0 or n <= 8:
            assert missing == [], n
        else:
            # the (n-7)/2 points (2, (n+1)/2) .. (2, n-4) between cwdd-a's two runs
            assert missing == [(2, b) for b in range((n + 1) // 2, n - 3)], n
        for set_id in (NamedSet.CWDD_B, NamedSet.CWDD_C, NamedSet.C_MINUS, NamedSet.C_PLUS,
                       NamedSet.BETA):
            points = set(enumerate_set(set_id, n))
            assert _hull_lattice_points(points) == points, (set_id, n)
