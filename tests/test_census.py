"""Census engine tests: verification runs, serialization, determinism."""

import pytest

from cwlattice import (
    CensusReport,
    DomainError,
    check_cross_projection,
    check_disjointness,
    enumerate_cwdd_a,
    enumerate_cwdd_b,
    enumerate_ra_b,
    enumerate_ra_d,
    run_census,
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


def test_checks_on_prebuilt_component_sets():
    cw = {"a": set(enumerate_cwdd_a(12)), "b": set(enumerate_cwdd_b(12)), "c": set()}
    assert not check_cross_projection(12, cwdd_parts=cw)
    ra = {"b": set(enumerate_ra_b(12)), "d": set(enumerate_ra_d(12))}
    ra["b"].add(enumerate_ra_d(12)[0])
    rep = check_disjointness(12, cwdd_parts={}, ra_parts=ra)
    assert rep.cwdd_overlaps == {}
    assert rep.ra_overlaps == {"bd": (enumerate_ra_d(12)[0],)}
    assert not rep.ok
    assert check_disjointness(5, cwdd_parts={}).ok


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
