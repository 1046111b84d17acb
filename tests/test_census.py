"""Census engine tests: verification runs, serialization, determinism."""

import pytest

from cwlattice import (
    CensusReport,
    DomainError,
    NamedSet,
    check_cross_projection,
    check_disjointness,
    enumerate_ra_d,
    enumerate_set,
    run_census,
    sets,
)
from cwlattice.census import FAMILY_SETS


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
    rep = check_disjointness(5)
    assert rep.cwdd_overlaps["ab"] == ((2, 2),)
    assert rep.cwdd_overlaps["ac"] == ()
    assert rep.cwdd_overlaps["bc"] == ()
    assert all(v == () for v in rep.ra_overlaps.values())
    assert rep.ok
    for n in (6, 60):
        rep = check_disjointness(n)
        assert all(v == () for v in rep.cwdd_overlaps.values())
        assert all(v == () for v in rep.ra_overlaps.values())
        assert rep.ok
    with pytest.raises(DomainError):
        check_disjointness(4)


def test_check_cross_projection():
    for n in (5, 7, 12, 40):
        assert check_cross_projection(n)
    assert check_cross_projection(3)  # vacuous below 5


def test_checks_on_faulty_row_sources(monkeypatch):
    monkeypatch.setitem(sets.ROW_SOURCES, NamedSet.CWDD_C, lambda n: [])
    assert not check_cross_projection(12)
    monkeypatch.undo()
    rows_ra_b = sets.ROW_SOURCES[NamedSet.RA_B]
    repeated = sets.ROW_SOURCES[NamedSet.RA_D](12)[0]
    monkeypatch.setitem(sets.ROW_SOURCES, NamedSet.RA_B,
                        lambda n: sorted(rows_ra_b(n) + [repeated]))
    rep = check_disjointness(12)
    assert all(v == () for v in rep.cwdd_overlaps.values())
    assert rep.ra_overlaps["bd"] == (enumerate_ra_d(12)[0],)
    assert [pair for pair, v in rep.ra_overlaps.items() if v] == ["bd"]
    assert not rep.ok


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
