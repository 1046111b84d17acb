"""Census engine tests: verification runs, serialization, determinism."""

import pytest

from cwlattice import (
    CHECKS,
    CensusReport,
    DomainError,
    Failure,
    NamedSet,
    check,
    enumerate_ra_d,
    enumerate_set,
    run_census,
    sets,
)
from cwlattice.census import FAMILY_SETS

DISJOINTNESS = ("cwdd parts disjoint", "ra parts disjoint")
PROJECTIONS = ("ra projects into cwdd", "ra-a projects into cwdd-a")


def test_family_table_covers_twelve_sets():
    assert len(FAMILY_SETS["all"]) == 12
    assert FAMILY_SETS["all"] == FAMILY_SETS["cwdd"] + FAMILY_SETS["ra"] + FAMILY_SETS["bounds"]


def test_small_census_all_pass():
    report = run_census(5, 60, "all")
    assert len(report.records) == 56
    assert report.pass_count == 56
    assert report.fail_count == 0
    assert report.first_failure is None
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
    for n in (5, 7, 12, 40):
        for name in PROJECTIONS:
            assert check(name, n) is None
    for name in PROJECTIONS:
        assert check(name, 3) is None  # vacuous below 5


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


def test_checks_on_faulty_row_sources(monkeypatch):
    monkeypatch.setitem(sets.ROW_SOURCES, NamedSet.CWDD_C, lambda n: [])
    assert check("ra projects into cwdd", 12) == Failure(
        "ra projects into cwdd", "containment", (NamedSet.RA, NamedSet.CWDD), (3, 5), 0)
    monkeypatch.undo()
    rows_ra_b = sets.ROW_SOURCES[NamedSet.RA_B]
    repeated = sets.ROW_SOURCES[NamedSet.RA_D](12)[0]
    monkeypatch.setitem(sets.ROW_SOURCES, NamedSet.RA_B,
                        lambda n: sorted(rows_ra_b(n) + [repeated]))
    assert check("cwdd parts disjoint", 12) is None
    failure = check("ra parts disjoint", 12)
    assert failure == Failure("ra parts disjoint", "disjointness",
                              (NamedSet.RA_B, NamedSet.RA_D), (3, 4, 7, 7), 0)
    assert failure.witness == enumerate_ra_d(12)[0]
    assert str(failure) == "ra parts disjoint on ra-b, ra-d: witness (3, 4, 7, 7), n mod 6 = 0"
    record = run_census(12, 12, "ra").records[0]
    assert record.failures == (failure,)
    assert not record.disjointness_ok and record.containment_ok


def test_cwdd_disjointness_names_a_missing_shared_point(monkeypatch):
    # at n = 5 the check also fails when (2, 2) is no longer in both parts
    monkeypatch.setitem(sets.ROW_SOURCES, NamedSet.CWDD_B, lambda n: [])
    assert check("cwdd parts disjoint", 5) == Failure(
        "cwdd parts disjoint", "disjointness", (NamedSet.CWDD_A, NamedSet.CWDD_B), (2, 2), 5)


@pytest.mark.parametrize("family", ["cwdd", "bounds", "all"])
def test_short_c_plus_row_fails_containment(monkeypatch, family):
    rows_c_plus = sets.ROW_SOURCES[NamedSet.C_PLUS]

    def cut_short(n):
        rows = rows_c_plus(n)
        prefix, lo, hi = rows[1]  # the row a = 2 ends at n - 1; cut it to n - 4
        return [rows[0], (prefix, lo, hi - 3)] + rows[2:]

    monkeypatch.setitem(sets.ROW_SOURCES, NamedSet.C_PLUS, cut_short)
    record = run_census(12, 12, family).records[0]
    assert not record.containment_ok
    assert record.disjointness_ok and record.sandwich_ok
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


@pytest.mark.parametrize("family", sorted(FAMILY_SETS))
def test_csv_round_trip(family):
    report = run_census(3, 20, family)
    assert CensusReport.from_csv(report.to_csv()) == report


@pytest.mark.parametrize("family", sorted(FAMILY_SETS))
def test_json_round_trip(family):
    report = run_census(3, 20, family)
    assert CensusReport.from_json(report.to_json()) == report


def test_census_deterministic():
    a = run_census(5, 40, "all")
    b = run_census(5, 40, "all")
    assert a == b
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()


def test_csv_shape():
    report = run_census(5, 7, "ra")
    lines = report.to_csv().splitlines()
    assert lines[0].startswith("n,k,i,ra-a_enum,ra-a_closed,")
    assert lines[0].endswith("disjointness_ok,sandwich_ok,containment_ok")
    assert len(lines) == 4
    assert lines[1].split(",")[:3] == ["5", "0", "5"]
