"""Acceptance suite: the binding exit criteria for this package.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) and then
asserts.  Criteria 2-4 share a single census run over n in [5, 300].
"""

import time
from fractions import Fraction

import pytest

from cwlattice import (
    Graph,
    RealizationKind,
    build_graph,
    check,
    edge_ideal_generators,
    enumerate_cwdd_a,
    enumerate_cwdd_b,
    enumerate_cwdd_c,
    enumerate_ra_d,
    induced_matching_number,
    is_cameron_walker,
    is_connected,
    matching_number,
    ratio_report,
    realize,
    run_census,
    sandwich_bounds_cwdd,
    size_cwdd,
    size_cwdd_c,
    size_ra,
    size_ra_d,
)

from conftest import CHORDED_HEXAGON_EDGES, CHORDED_HEXAGON_NAMES


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def full_census():
    start = time.monotonic()
    report_obj = run_census(5, 300, "all")
    elapsed = time.monotonic() - start
    return report_obj, elapsed


def test_criterion_1_golden_values():
    start = time.monotonic()
    checks = {
        "size_cwdd(5) == 2": size_cwdd(5) == 2,
        "size_cwdd(3) == 0": size_cwdd(3) == 0,
        "size_cwdd(4) == 0": size_cwdd(4) == 0,
        "size_ra(5) == 2": size_ra(5) == 2,
        "size_cwdd_c(5) == 0": size_cwdd_c(5) == 0,
        "size_ra_d(5) == 0": size_ra_d(5) == 0,
    }
    elapsed = time.monotonic() - start
    ok = all(checks.values()) and elapsed < 1.0
    report(1, ok, f"golden census values at tiny n ({elapsed:.3f}s)")
    assert ok, checks


def test_criterion_2_oracle_equivalence(full_census):
    census, elapsed = full_census
    mismatches = [
        (record.n, tag, pair)
        for record in census.records
        for tag, pair in record.counts.items()
        if pair[0] is not None and pair[0] != pair[1]
    ]
    ok = not mismatches and len(census.records) == 296 and elapsed < 60.0
    report(2, ok, f"enumerated == closed-form for 12 sets, n in [5,300] ({elapsed:.1f}s)")
    assert ok, mismatches[:10]


def test_criterion_3_disjointness(full_census):
    census, _ = full_census
    bad = [r.n for r in census.records if not r.ok("disjointness")]
    # None at n = 5: cwdd-a and cwdd-b share exactly {(2, 2)}, nothing else overlaps
    content_ok = check("cwdd parts disjoint", 5) is None and check("ra parts disjoint", 5) is None
    sample_ok = all(check(name, n) is None for n in range(5, 61)
                    for name in ("cwdd parts disjoint", "ra parts disjoint"))
    ok = not bad and content_ok and sample_ok
    report(3, ok, "component disjointness holds for n in [5,300], sole overlap {(2,2)} at n=5")
    assert ok, bad[:10]


def test_criterion_4_sandwich(full_census):
    census, _ = full_census
    flag_failures = [r.n for r in census.records if not r.ok("sandwich")]
    exact_failures = []
    for n in range(6, 301):
        lower, upper = sandwich_bounds_cwdd(n)
        value = Fraction(size_cwdd(n))
        if not lower <= value <= upper:
            exact_failures.append(n)
    ok = not flag_failures and not exact_failures
    report(4, ok, "(n-3)^2/6 + 1/2 <= |cwdd(n)| <= (n-3)^2/6 + 7/3 for 5 < n <= 300")
    assert ok, (flag_failures[:5], exact_failures[:5])


def test_criterion_5_asymptotics():
    start = time.monotonic()
    drift = [
        n for n in range(36, 3001)
        if abs(Fraction(size_cwdd(n), n * n) - Fraction(1, 6)) > Fraction(2, n)
    ]
    ratios = ratio_report(600)
    near_third = abs(ratios.cwdd_over_cplus - Fraction(1, 3)) <= Fraction(1, 50)
    near_four_ninths = abs(ratios.cwdd_over_cminus - Fraction(4, 9)) <= Fraction(1, 25)
    elapsed = time.monotonic() - start
    ok = not drift and near_third and near_four_ninths and elapsed < 1.0
    report(5, ok, f"density -> 1/6 within 2/n on [36,3000]; n=600 ratios in envelope ({elapsed:.3f}s)")
    assert ok, (drift[:5], ratios)


def test_criterion_6_example_graph():
    start = time.monotonic()
    idx = {name: i for i, name in enumerate(CHORDED_HEXAGON_NAMES)}
    graph = Graph(6, [(idx[a], idx[b]) for a, b in CHORDED_HEXAGON_EDGES])
    m = matching_number(graph)
    im = induced_matching_number(graph)
    generators = edge_ideal_generators(graph, CHORDED_HEXAGON_NAMES)
    got = {"".join(pair) for pair in generators}
    want = {"".join(sorted(e)) for e in [
        ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
        ("e", "f"), ("f", "a"), ("b", "f"), ("c", "e"),
    ]}
    elapsed = time.monotonic() - start
    ok = m == 3 and im == 2 and got == want and elapsed < 1.0
    report(6, ok, f"8-edge example graph: m=3, im=2, 8 generators ({elapsed:.3f}s)")
    assert ok, (m, im, sorted(got))


def test_criterion_7_realizer_suite():
    start = time.monotonic()
    failures = []
    for n in range(5, 15):
        supported = set(enumerate_cwdd_a(n)) | set(enumerate_cwdd_b(n))
        for point in sorted(supported):
            result = realize(n, point)
            if result.kind is RealizationKind.UNSUPPORTED:
                failures.append((n, point, "unsupported"))
                continue
            if result.structure.vertex_count != n:
                failures.append((n, point, "bad vertex total"))
                continue
            graph = build_graph(result.structure)
            if graph.vertex_count != n or not is_connected(graph):
                failures.append((n, point, "not connected"))
            elif matching_number(graph) != induced_matching_number(graph):
                failures.append((n, point, "matching mismatch"))
            elif not is_cameron_walker(graph):
                failures.append((n, point, "not Cameron-Walker"))
        for point in enumerate_cwdd_c(n):
            if realize(n, point).kind is not RealizationKind.UNSUPPORTED:
                failures.append((n, point, "staircase point should be unsupported"))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 30.0
    report(7, ok, f"all A and B points realize as CW graphs for n in [5,14] ({elapsed:.2f}s)")
    assert ok, failures[:10]


def test_criterion_8_full_box_cross_check():
    start = time.monotonic()
    bad = []
    for n in range(5, 41):
        naive = sorted(
            (a, r, d, d)
            for a in range(1, n + 1)
            for r in range(1, n + 1)
            for d in range(1, n + 1)
            if 3 <= a < r < d < n - r and n + 2 <= a + r + d
        )
        if naive != enumerate_ra_d(n):
            bad.append(n)
    elapsed = time.monotonic() - start
    ok = not bad
    report(8, ok, f"optimized loop box equals naive cube scan for n <= 40 ({elapsed:.2f}s)")
    assert ok, bad
