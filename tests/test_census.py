"""Census engine tests: verification runs, serialization, determinism."""

import json
from itertools import combinations
from pathlib import Path

import pytest

from cwlattice import (
    CHECKS,
    CensusRecord,
    CensusReport,
    CwStructure,
    DomainError,
    Failure,
    NamedSet,
    RealizationKind,
    RealizationResult,
    census,
    check,
    enumerate_ra_d,
    enumerate_set,
    run_census,
    sets,
    size_c_plus,
    size_cwdd,
    size_cwdd_a,
    size_ra,
    size_ra_d,
)
from cwlattice.census import FAMILY_SETS, KINDS, Check
from cwlattice.cli import main

from conftest import first_mask, without_point

DATA_DIR = Path(__file__).resolve().parent / "data"
DISJOINTNESS = ("cwdd parts disjoint", "ra parts disjoint")


def test_family_table_covers_twelve_sets():
    assert len(FAMILY_SETS["all"]) == 12
    assert FAMILY_SETS["all"] == FAMILY_SETS["cwdd"] + FAMILY_SETS["ra"] + FAMILY_SETS["bounds"]


def test_small_census_all_pass():
    report = run_census(5, 60, "all")
    assert len(report.records) == 56
    payload = json.loads(report.to_json())
    assert payload["summary"] == {"pass": 56, "fail": 0}
    assert payload["first_failure"] is None
    assert report.all_pass
    assert [r.n for r in report.records] == list(range(5, 61))


def test_single_n_record_contents():
    report = run_census(5, 5, "cwdd")
    record = report.records[0]
    assert record.counts["cwdd"] == (2, 2)
    assert record.counts["cwdd-a"] == (2, 2)
    assert record.counts["cwdd-b"] == (1, 1)
    assert record.counts["cwdd-c"] == (0, 0)
    assert record.passed


def test_below_five_counts_are_zero():
    report = run_census(3, 4, "cwdd")
    for record in report.records:
        assert record.passed
        for pair in record.counts.values():
            assert pair == (0, 0)


def test_beta_undefined_at_three():
    report = run_census(3, 3, "bounds")
    record = report.records[0]
    assert record.counts["beta"] == (None, None)
    assert record.counts["c-minus"] == (2, 2)
    assert record.counts["c-plus"] == (3, 3)
    assert record.passed


def test_range_errors():
    with pytest.raises(DomainError):
        run_census(2, 4)
    with pytest.raises(DomainError):
        run_census(10, 5)
    with pytest.raises(DomainError):
        run_census(5, 10, "nonsense")


def test_check_disjointness():
    # None at n = 5 means cwdd-a and cwdd-b share exactly {(2, 2)} and no
    # other parts share a point
    for n in (5, 6, 60):
        for name in DISJOINTNESS:
            assert check(name, n) is None
    for name in DISJOINTNESS:
        with pytest.raises(DomainError, match=f"{name} applies from n = 5, got 4"):
            check(name, 4)


def test_check_cross_projection():
    # the pairs (a, d) of the ra tuples are exactly cwdd, depth 2 included
    for n in (3, 4, 5, 6, 7, 12, 40):  # both sets are empty below 5
        assert check("ra projects onto cwdd", n) is None
    with pytest.raises(DomainError, match="ra projects onto cwdd applies from n = 3, got 2"):
        check("ra projects onto cwdd", 2)


def test_cwdd_in_c_plus_applies_from_three():
    # the census's first n, where c-plus is defined and every CW set is empty
    assert CHECKS["cwdd in c-plus"].first_n == 3
    assert check("cwdd in c-plus", 3) is None


def test_check_rejects_unknown_names_and_non_int_n():
    with pytest.raises(DomainError, match="unknown check"):
        check("nonsense", 12)
    with pytest.raises(DomainError, match="cwdd sandwich applies from n = 6, got 5"):
        check("cwdd sandwich", 5)
    for n in (12.0, "12"):
        with pytest.raises(TypeError, match="n must be an int"):
            check("cwdd parts disjoint", n)
    assert [check(name, 12) for name in CHECKS] == [None] * len(CHECKS)
    assert {entry.kind for entry in CHECKS.values()} == {"disjointness", "sandwich",
                                                         "containment"}


def test_each_family_runs_exactly_the_checks_its_sets_switch_on(monkeypatch):
    # each relation's function records the check it serves, then delegates;
    # a record runs, in CHECKS order, every entry whose sets meet the
    # family's and whose first n it has reached, and nothing else
    ran = []

    def spy(module, name, check_name):
        function = getattr(module, name)

        def spied(*args):
            ran.append(check_name(*args))
            return function(*args)

        monkeypatch.setattr(module, name, spied)

    spy(sets, "parts_overlap", lambda union, table: f"{union.value} parts disjoint")
    spy(sets, "points_outside", lambda sub, sup, table: f"{sub.value} in {sup.value}")
    spy(sets, "ra_projection_mismatch", lambda table: "ra projects onto cwdd")
    spy(census, "sandwich_bounds_cwdd", lambda n: "cwdd sandwich")
    for family, members in FAMILY_SETS.items():
        for n in range(3, 13):
            ran.clear()
            assert run_census(n, n, family).all_pass
            assert ran == [name for name, entry in CHECKS.items()
                           if set(entry.on) & set(members) and entry.first_n <= n], (family, n)


def test_checks_on_faulty_row_sources(monkeypatch):
    monkeypatch.setitem(sets.MASK_SOURCES, NamedSet.CWDD_C, lambda n: {})
    assert check("ra projects onto cwdd", 12) == Failure(
        "ra projects onto cwdd", "containment", (NamedSet.RA, NamedSet.CWDD), (3, 5), 0)
    monkeypatch.undo()
    # ra-b gains ra-d's first row, ((3, 4), 7, 7)
    masks_ra_b = sets.MASK_SOURCES[NamedSet.RA_B]
    repeated = first_mask(sets.MASK_SOURCES[NamedSet.RA_D](12))
    monkeypatch.setitem(sets.MASK_SOURCES, NamedSet.RA_B,
                        lambda n: sets._or(masks_ra_b(n), repeated))
    assert check("cwdd parts disjoint", 12) is None
    failure = check("ra parts disjoint", 12)
    assert failure == Failure("ra parts disjoint", "disjointness",
                              (NamedSet.RA_B, NamedSet.RA_D), (3, 4, 7, 7), 0)
    assert failure.witness == enumerate_ra_d(12)[0]
    assert str(failure) == "ra parts disjoint on ra-b, ra-d: witness (3, 4, 7, 7), n mod 6 = 0"
    record = run_census(12, 12, "ra").records[0]
    assert record.failures == (failure,)
    assert not record.ok("disjointness") and record.ok("containment")
    # with two parts sharing a point, ra's count is its union's, not its parts' sum
    union = set().union(*(enumerate_set(part, 12) for part in sets.UNION_PARTS[NamedSet.RA]))
    assert record.counts["ra"][0] == len(union) == size_ra(12)


@pytest.mark.parametrize("family", ["ra", "all"])
def test_census_records_never_or_the_ra_parts(monkeypatch, family):
    # a record counts ra from its disjoint parts and projects it part by
    # part, so it never asks its table for ra's union of four parts
    missing = sets.MaskTable.__missing__

    def spied(table, set_id):
        assert set_id is not NamedSet.RA, "ra's parts were ORed"
        return missing(table, set_id)

    monkeypatch.setattr(sets.MaskTable, "__missing__", spied)
    for n in (5, 12, 60, 298):
        assert run_census(n, n, family).all_pass


def test_cwdd_disjointness_names_a_missing_shared_point(monkeypatch):
    # at n = 5 the check also fails when (2, 2) is no longer in both parts
    monkeypatch.setitem(sets.MASK_SOURCES, NamedSet.CWDD_B, lambda n: {})
    assert check("cwdd parts disjoint", 5) == Failure(
        "cwdd parts disjoint", "disjointness", (NamedSet.CWDD_A, NamedSet.CWDD_B), (2, 2), 5)


def _gains_first_row_of(donor):
    return lambda masks, n: sets._or(masks, first_mask(sets.MASK_SOURCES[donor](n)))


def _ra_d_loses_its_least_point(masks, n):
    # a part short of a point shares none: only its count shows the fault
    if not masks:
        return masks
    a = min(masks)
    r = min(masks[a])
    d = (masks[a][r] & -masks[a][r]).bit_length() - 1
    return without_point(masks, (a, r, d, d))


@pytest.mark.parametrize("victim, fault", [
    (None, None),
    (NamedSet.RA_B, _gains_first_row_of(NamedSet.RA_D)),
    (NamedSet.CWDD_C, _gains_first_row_of(NamedSet.CWDD_B)),
    (NamedSet.RA_D, _ra_d_loses_its_least_point),
    (NamedSet.CWDD_B, lambda masks, n: {}),  # (2, 2) is no longer shared at n = 5
], ids=["none", "ra-b-shares", "cwdd-c-shares", "ra-d-loses-a-point", "cwdd-b-empty"])
def test_parts_disjoint_agrees_with_python_set_intersection(monkeypatch, victim, fault):
    # the oracle: the points each pair of parts shares, from Python sets of
    # their enumerated points; only (2, 2), in cwdd-a and cwdd-b at n = 5, is allowed
    if victim is not None:
        source = sets.MASK_SOURCES[victim]
        monkeypatch.setitem(sets.MASK_SOURCES, victim, lambda n: fault(source(n), n))
    verdicts = set()
    for n in range(5, 121):
        for name, union in zip(DISJOINTNESS, (NamedSet.CWDD, NamedSet.RA)):
            parts = sets.UNION_PARTS[union]
            points = {part: set(enumerate_set(part, n)) for part in parts}
            allowed = {(NamedSet.CWDD_A, NamedSet.CWDD_B): {(2, 2)}} if n == 5 else {}
            wrong = [(pair, (points[pair[0]] & points[pair[1]]) ^ allowed.get(pair, set()))
                     for pair in combinations(parts, 2)]
            wrong = [(pair, extra) for pair, extra in wrong if extra]
            failure = check(name, n)
            verdicts.add(failure is None)
            if not wrong:
                assert failure is None, (name, n)
            else:
                assert failure is not None, (name, n)
                assert failure.sets == wrong[0][0] and failure.witness in wrong[0][1]
    # every fault that makes two parts share a point, or stop sharing one, is seen
    assert verdicts == ({True} if victim in (None, NamedSet.RA_D) else {True, False})


@pytest.mark.parametrize("family, pairs", [("cwdd", 3), ("ra", 6), ("all", 9)])
def test_records_and_each_pair_of_parts_once(monkeypatch, family, pairs):
    # the union's count and its disjointness check read one table of shared
    # points: each pair of parts is ANDed once per record, counted at the
    # top level only (_and calls itself on a depth both tables hold)
    and_, depth, calls = sets._and, [0], []

    def spied(xs, ys):
        if not depth[0]:
            calls.append((xs, ys))
        depth[0] += 1
        try:
            return and_(xs, ys)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(sets, "_and", spied)
    for n in (5, 6, 12, 60, 298):  # at n = 5, cwdd-a and cwdd-b share (2, 2)
        calls.clear()
        assert run_census(n, n, family).all_pass
        assert len(calls) == pairs, (family, n)


def test_part_losing_a_point_is_a_count_fault_not_a_shared_point(capsys, monkeypatch):
    # ra-d loses (3, 4, 7, 7): its count and the union's fall short of their
    # closed forms, and yet the parts' counts still add up to the union's, no
    # two parts share a point, and ra-c's (3, 3, 7, 7) still lies above (3, 7)
    masks_ra_d = sets.MASK_SOURCES[NamedSet.RA_D]
    monkeypatch.setitem(sets.MASK_SOURCES, NamedSet.RA_D,
                        lambda n: without_point(masks_ra_d(n), (3, 4, 7, 7)))
    assert check("ra parts disjoint", 12) is None
    assert len(sets.enumerate_ra(12)) == size_ra(12) - 1  # no raise
    record = run_census(12, 12, "ra").records[0]
    assert record.failures == () and record.ok("disjointness") and not record.passed
    assert record.counts["ra-d"] == (size_ra_d(12) - 1, size_ra_d(12))
    assert record.counts["ra"] == (size_ra(12) - 1, size_ra(12))
    assert sum(record.counts[part.value][0] for part in sets.UNION_PARTS[NamedSet.RA]) == (
        size_ra(12) - 1)
    assert main(["census", "--from", "12", "--to", "12", "--family", "ra"]) == 1
    assert capsys.readouterr().err == (
        f"census: n = 12: ra-d enumerated {size_ra_d(12) - 1}, "
        f"closed form {size_ra_d(12)}, n mod 6 = 0\n"
        f"census: n = 12: ra enumerated {size_ra(12) - 1}, "
        f"closed form {size_ra(12)}, n mod 6 = 0\n")


def test_sup_losing_a_point_is_a_count_fault_not_a_containment_failure(capsys, monkeypatch):
    # c-plus loses (7, 9), which lies in neither c-minus nor cwdd: its mask
    # a = 7 splits into two runs, c-minus still lies in it, and only its
    # count column reports the fault
    masks_c_plus = sets.MASK_SOURCES[NamedSet.C_PLUS]
    monkeypatch.setitem(sets.MASK_SOURCES, NamedSet.C_PLUS,
                        lambda n: without_point(masks_c_plus(n), (7, 9)))
    assert sets._runs(sets.MaskTable(12)[NamedSet.C_PLUS][7]) == [(7, 8), (10, 11)]
    assert check("c-minus in c-plus", 12) is None
    assert check("cwdd in c-plus", 12) is None
    assert main(["census", "--from", "12", "--to", "12", "--family", "bounds"]) == 1
    assert capsys.readouterr().err == (
        f"census: n = 12: c-plus enumerated {size_c_plus(12) - 1}, "
        f"closed form {size_c_plus(12)}, n mod 6 = 0\n")


def test_part_losing_a_point_at_five_is_a_count_fault_not_a_shared_point(capsys, monkeypatch):
    # cwdd-a loses its top point (2, n - 2) at n = 5 and 6, in no other part;
    # at n = 5 the pairwise scan still finds exactly the expected (2, 2)
    masks_cwdd_a = sets.MASK_SOURCES[NamedSet.CWDD_A]
    monkeypatch.setitem(sets.MASK_SOURCES, NamedSet.CWDD_A,
                        lambda n: without_point(masks_cwdd_a(n), (2, n - 2)))
    assert check("cwdd parts disjoint", 5) is None
    assert main(["census", "--from", "5", "--to", "6", "--family", "cwdd"]) == 1
    assert capsys.readouterr().err == "".join(
        f"census: n = {n}: {tag} enumerated {size(n) - 1}, "
        f"closed form {size(n)}, n mod 6 = {n % 6}\n"
        for n in (5, 6) for tag, size in (("cwdd-a", size_cwdd_a), ("cwdd", size_cwdd)))


# the containment checks as (sub, sup): sub's points lie in sup, and for
# the projection the pairs (a, d) of ra's tuples (a, r, d, d) are exactly cwdd
CONTAINMENTS = {
    "cwdd in c-plus": (NamedSet.CWDD, NamedSet.C_PLUS),
    "c-minus in c-plus": (NamedSet.C_MINUS, NamedSet.C_PLUS),
    "beta in c-minus": (NamedSet.BETA, NamedSet.C_MINUS),
    "ra projects onto cwdd": (NamedSet.RA, NamedSet.CWDD),
}


def _pairs(table):
    """The pairs of a pair set's masks, or the projected pairs (a, d) of a
    tuple set's, read bit by bit from each mask's binary digits, lowest
    first."""
    return {(a, b) for a, masks in table.items()
            for mask in (masks.values() if isinstance(masks, dict) else (masks,))
            for b, digit in enumerate(bin(mask)[:1:-1]) if digit == "1"}


def _without_middle_prefix(table):
    """The table without its middle mask in prefix order: one row of the
    set, or two where that mask has two runs."""
    if table and isinstance(next(iter(table.values())), dict):
        keys = sorted((a, r) for a, inner in table.items() for r in inner)
        a, r = keys[len(keys) // 2]
        inner = {key: mask for key, mask in table[a].items() if key != r}
        return {key: inner if key == a else value for key, value in table.items()
                if key != a or inner}
    middle = sorted(table)[len(table) // 2] if table else None
    return {key: mask for key, mask in table.items() if key != middle}


def _sup_loses_a_point(table, sub, sup, n):
    # the middle bit of sup's middle mask: the mask splits in two
    if table[sup]:
        a = sorted(table[sup])[len(table[sup]) // 2]
        bits = [b for b in range(table[sup][a].bit_length()) if table[sup][a] >> b & 1]
        table[sup] = without_point(table[sup], (a, bits[len(bits) // 2]))


def _sup_loses_a_row(table, sub, sup, n):
    table[sup] = _without_middle_prefix(table[sup])


def _sup_loses_every_row(table, sub, sup, n):
    # every prefix of sub fails, the least of them last in a union's masks
    table[sup] = {}


def _sub_loses_a_row(table, sub, sup, n):
    # a subset check still holds; the projection fails where no other ra
    # mask at the lost mask's depth covers its pairs
    table[sub] = _without_middle_prefix(table[sub])


def _sub_gains_a_point_outside(table, sub, sup, n):
    # (n, n) lies in no pair set at n, and the tuple (n, 1, n, n) projects to
    # it; for ra it opens a last depth
    table[sub] = sets._or(table[sub], {n: 1 << n} if sub.arity == 2 else {n: {1: 1 << n}})


def _sub_gains_a_point_at_its_first_depth(table, sub, sup, n):
    # (a, n) lies in no pair set at n; the tuple (a, 1, n, n) projects to it,
    # so for ra the first depth grows
    a = min(table[sub], default=1)
    table[sub] = sets._or(table[sub], {a: 1 << n} if sub.arity == 2 else {a: {1: 1 << n}})


def _sup_gains_a_point_uncovered(table, sub, sup, n):
    # nothing in sub covers (n, n): a subset check still holds, the projection fails
    table[sup] = sets._or(table[sup], {n: 1 << n})


@pytest.mark.parametrize("fault, verdicts", [
    (None, {True}),
    (_sup_loses_a_point, {True, False}),
    (_sup_loses_a_row, {True, False}),
    (_sup_loses_every_row, {True, False}),
    (_sub_loses_a_row, {True, False}),
    (_sub_gains_a_point_outside, {False}),
    (_sub_gains_a_point_at_its_first_depth, {False}),
    (_sup_gains_a_point_uncovered, {True, False}),
], ids=["none", "sup-loses-a-point", "sup-loses-a-row", "sup-loses-every-row",
        "sub-loses-a-row", "sub-gains-a-point-outside",
        "sub-gains-a-point-at-its-first-depth", "sup-gains-a-point-uncovered"])
def test_containment_agrees_with_python_set_containment(fault, verdicts):
    # the oracle, on Python sets of the expanded (projected) points: the
    # points of sub outside sup, and for the projection the symmetric
    # difference of the two; the witness is its least point
    assert set(CONTAINMENTS) == {name for name, entry in CHECKS.items()
                                 if entry.kind == "containment"}
    seen = set()
    for name, (sub, sup) in CONTAINMENTS.items():
        # the pair containments at the census cap too, where a witness comes
        # from the least failing of some 300 prefixes; expanding ra costs too
        # much there
        cap = [] if sub is NamedSet.RA else [299, 300]
        for n in [*range(CHECKS[name].first_n, 81), *cap]:
            table = sets.MaskTable(n)
            if fault is not None:
                # the projection reads ra's parts, not its union: a fault
                # of ra's goes into ra-d, and table[ra] is ORed from it
                fault(table, NamedSet.RA_D if sub is NamedSet.RA else sub, sup, n)
            xs, ys = _pairs(table[sub]), _pairs(table[sup])
            wrong = xs ^ ys if sub is NamedSet.RA else xs - ys
            found = CHECKS[name].find(table)
            seen.add(found is None)
            assert found == (((sub, sup), min(wrong)) if wrong else None), (name, n)
    assert seen == verdicts


@pytest.mark.parametrize("part, witness", [
    (NamedSet.RA_A, (2, 9)), (NamedSet.RA_C, (3, 8)), (NamedSet.RA_D, (3, 6)),
], ids=["ra-a", "ra-c", "ra-d"])
def test_ra_projection_names_a_pair_with_no_tuple_above_it(monkeypatch, part, witness):
    # with one part's rows emptied, no ra tuple lies above the witness pair,
    # which is still in cwdd; the one-way containment could not see this
    monkeypatch.setitem(sets.MASK_SOURCES, part, lambda n: {})
    assert check("ra projects onto cwdd", 12) == Failure(
        "ra projects onto cwdd", "containment", (NamedSet.RA, NamedSet.CWDD), witness, 0)
    assert sets.contains(NamedSet.CWDD, 12, witness)
    record = run_census(12, 12, "ra").records[0]
    assert not record.ok("containment") and record.ok("disjointness")


@pytest.mark.parametrize("family", ["cwdd", "bounds", "all"])
def test_short_c_plus_row_fails_containment(monkeypatch, family):
    masks_c_plus = sets.MASK_SOURCES[NamedSet.C_PLUS]

    def cut_short(n):
        # the mask a = 2 ends at n - 1; cut it to n - 4
        masks = masks_c_plus(n)
        return {**masks, 2: masks[2] & ((2 << (n - 4)) - 1)}

    monkeypatch.setitem(sets.MASK_SOURCES, NamedSet.C_PLUS, cut_short)
    record = run_census(12, 12, family).records[0]
    assert not record.ok("containment")
    assert record.ok("disjointness") and record.ok("sandwich")
    assert not record.passed
    # (2, 9) is in cwdd and c-minus, and no longer in c-plus
    subsets = {"cwdd": [NamedSet.CWDD], "bounds": [NamedSet.C_MINUS],
               "all": [NamedSet.CWDD, NamedSet.C_MINUS]}[family]
    assert record.failures == tuple(
        Failure(f"{sub.value} in c-plus", "containment", (sub, NamedSet.C_PLUS), (2, 9), 0)
        for sub in subsets)


@pytest.mark.parametrize("set_id", list(NamedSet))
def test_census_counts_equal_enumeration_lengths(set_id):
    family = next(f for f in ("cwdd", "ra", "bounds") if set_id in FAMILY_SETS[f])
    for record in run_census(3, 60, family).records:
        enum_count = record.counts[set_id.value][0]
        if enum_count is None:
            assert set_id is NamedSet.BETA and record.n == 3
            continue
        assert enum_count == len(enumerate_set(set_id, record.n)), record.n


def _assert_writers_agree(report):
    """Each to_csv line states what its to_json record and its CensusRecord
    state: n, k, i, the count pairs in FAMILY_SETS order (an empty cell for
    JSON null) and the three flags."""
    tags = [s.value for s in FAMILY_SETS[report.family]]
    flags = ["disjointness_ok", "sandwich_ok", "containment_ok"]
    header, *lines = report.to_csv().splitlines()
    records = json.loads(report.to_json())["records"]
    assert len(lines) == len(records) == len(report.records)
    for line, record, computed in zip(lines, records, report.records):
        cells = line.split(",")
        assert len(cells) == len(header.split(",")) == 3 + 2 * len(tags) + len(flags)
        assert cells[:3] == [str(record[key]) for key in ("n", "k", "i")]
        assert [int(cell) for cell in cells[:3]] == [computed.n, *divmod(computed.n, 6)]
        assert list(computed.counts) == tags
        json_pairs = [tuple(record["counts"][tag]) for tag in tags]
        assert json_pairs == list(computed.counts.values())
        pairs = [tuple(cells[j:j + 2]) for j in range(3, 3 + 2 * len(tags), 2)]
        assert pairs == [tuple("" if c is None else str(c) for c in pair) for pair in json_pairs]
        assert cells[-len(flags):] == [{True: "true", False: "false"}[record[f]] for f in flags]
        assert [record[f] for f in flags] == [computed.ok(f.removesuffix("_ok")) for f in flags]


@pytest.mark.parametrize("fault", [False, True])
def test_csv_and_json_writers_agree_on_every_record(monkeypatch, fault):
    if fault:
        # cwdd-c loses its rows: its counts fall short, and the ra
        # projection then finds pairs outside cwdd
        monkeypatch.setitem(sets.MASK_SOURCES, NamedSet.CWDD_C, lambda n: {})
    records = []
    for family in sorted(FAMILY_SETS):
        report = run_census(3, 20, family)
        _assert_writers_agree(report)
        records += report.records
    unequal = any(e != c for r in records for e, c in r.counts.values())
    false_flag = not all(r.ok(kind) for r in records for kind in KINDS)
    assert (unequal, false_flag) == (fault, fault)


@pytest.mark.parametrize("family", ["cwdd", "ra", "bounds"])
def test_family_csv_is_the_golden_all_csv_projected_onto_its_columns(family):
    header, *lines = (DATA_DIR / "census-all-3-40.csv").read_text(encoding="utf-8").splitlines()
    tags = {s.value for s in FAMILY_SETS[family]}
    keep = [j for j, column in enumerate(header.split(","))
            if not column.endswith(("_enum", "_closed")) or column.rsplit("_", 1)[0] in tags]
    expected = [",".join(line.split(",")[j] for j in keep) for line in [header, *lines]]
    assert run_census(3, 40, family).to_csv().splitlines() == expected


def test_census_deterministic():
    a = run_census(5, 40, "all")
    b = run_census(5, 40, "all")
    assert a == b
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()


# the record classes: immutable, equal by value, repr in field order
_COUNTS = {"cwdd": (2, 2)}
_SKELETON = CwStructure(1, 1, (1,), (1,))
_RECORDS = [
    (CensusRecord, {"n": 5, "counts": _COUNTS, "failures": ()}),
    (CensusReport, {"family": "cwdd", "records": [CensusRecord(5, _COUNTS)]}),
    (Failure, {"check": "cwdd in c-plus", "kind": "containment",
               "sets": (NamedSet.CWDD, NamedSet.C_PLUS), "witness": (2, 9), "residue": 0}),
    (Check, {"kind": "containment", "on": (NamedSet.CWDD,), "first_n": 3, "find": len}),
    (CwStructure, {"m": 1, "p": 1, "s": (1,), "t": (1,)}),
    (RealizationResult, {"kind": RealizationKind.CM_DIAGONAL, "structure": _SKELETON}),
]


@pytest.mark.parametrize("cls, fields", _RECORDS, ids=[cls.__name__ for cls, _ in _RECORDS])
def test_records_are_immutable_values_with_a_field_order_repr(cls, fields):
    record = cls(*fields.values())
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert record == cls(**fields)
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({body})"
    assert CensusRecord(5, _COUNTS) == CensusRecord(5, _COUNTS, ())
    assert CwStructure(1, 1, [1], [1]).s == (1,)
