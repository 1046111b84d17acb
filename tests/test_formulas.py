"""Closed-form tests: frozen values, enumeration oracles, envelope facts."""

import random
from fractions import Fraction

import pytest

from cwlattice import (
    DomainError,
    InternalInconsistencyError,
    NamedSet,
    enumerate_set,
    ratio_report,
    sandwich_bounds_cwdd,
    size_beta,
    size_c_minus,
    size_c_plus,
    size_cwdd,
    size_cwdd_a,
    size_cwdd_b,
    size_cwdd_c,
    size_ra,
    size_ra_a,
    size_ra_b,
    size_ra_c,
    size_ra_d,
)
from cwlattice import formulas
from cwlattice.formulas import SIZE_BY_SET


def test_each_size_function_registers_itself():
    assert set(SIZE_BY_SET) == set(NamedSet)
    for set_id in NamedSet:
        name = "size_" + set_id.value.replace("-", "_")
        assert SIZE_BY_SET[set_id] is getattr(formulas, name)
        assert SIZE_BY_SET[set_id].__name__ == name


def test_size_examples():
    assert size_cwdd_a(5) == 2
    assert size_cwdd_a(8) == 2
    assert size_cwdd_a(9) == 3
    assert size_cwdd_a(4) == 0
    assert size_cwdd_b(12) == 1
    assert size_cwdd_b(5) == 1
    assert size_cwdd_b(6) == 0
    assert size_cwdd_c(5) == 0
    assert size_cwdd_c(12) == 11
    assert size_cwdd_c(7) == 1
    assert size_cwdd(5) == 2
    assert size_cwdd(4) == 0
    assert size_cwdd(12) == 14
    assert size_ra_d(5) == 0
    assert size_ra_d(12) == 3
    assert size_ra_b(12) == 3
    assert size_ra(5) == 2
    assert size_ra(6) == 2
    assert size_ra(12) == 17
    assert size_c_plus(6) == 15
    assert size_c_minus(6) == 10
    assert size_beta(6) == 9


def test_size_frozen_larger_values():
    # pinned from the enumeration oracle
    assert size_cwdd(60) == 542
    assert size_cwdd(300) == 14702
    assert [f(17) for f in (size_ra_a, size_ra_b, size_ra_c, size_ra_d)] == [3, 11, 21, 17]
    assert size_ra(17) == 52
    assert [f(60) for f in (size_ra_a, size_ra_b, size_ra_c, size_ra_d)] == [2, 135, 297, 2187]
    assert size_ra(60) == 2621
    assert size_ra(300) == 364121
    assert size_ra_c(8) == 2
    assert size_ra_c(11) == 7
    assert size_ra_d(16) == 14


@pytest.mark.parametrize("n", range(3, 121))
def test_sizes_match_enumeration(n):
    for set_id in NamedSet:
        try:
            expected = len(enumerate_set(set_id, n))
        except DomainError:
            with pytest.raises(DomainError):
                SIZE_BY_SET[set_id](n)
            continue
        assert SIZE_BY_SET[set_id](n) == expected, (set_id, n)


@pytest.mark.parametrize("n", range(5, 121))
def test_additivity(n):
    overlap = 1 if n == 5 else 0
    assert size_cwdd(n) == size_cwdd_a(n) + size_cwdd_b(n) + size_cwdd_c(n) - overlap
    assert size_ra(n) == size_ra_a(n) + size_ra_b(n) + size_ra_c(n) + size_ra_d(n)


def test_sandwich_frozen_values():
    assert sandwich_bounds_cwdd(12) == (Fraction(14), Fraction(95, 6))
    assert sandwich_bounds_cwdd(6) == (Fraction(2), Fraction(23, 6))
    assert sandwich_bounds_cwdd(7) == (Fraction(19, 6), Fraction(5))


def test_sandwich_holds_and_is_tight():
    hit_lower = hit_upper = False
    for n in range(6, 301):
        lo, hi = sandwich_bounds_cwdd(n)
        value = size_cwdd(n)
        assert lo <= value <= hi
        hit_lower |= value == lo
        hit_upper |= value == hi
    assert hit_lower and hit_upper


LARGE_N = [base + r for base in (10**9, 10**18) for r in range(6)]


def test_sandwich_is_the_envelope_sum():
    for n in [*range(6, 3001), *LARGE_N]:
        base = Fraction((n - 3) ** 2, 6)
        assert sandwich_bounds_cwdd(n) == (base + Fraction(1, 2), base + Fraction(7, 3))


def test_cwdd_offset_from_the_envelope_base_per_residue():
    offset = {0: Fraction(1, 2), 1: Fraction(7, 3), 2: Fraction(5, 6),
              3: Fraction(2), 4: Fraction(5, 6), 5: Fraction(7, 3)}
    for n in [*range(6, 301), *LARGE_N]:
        assert size_cwdd(n) - Fraction((n - 3) ** 2, 6) == offset[n % 6], n


def test_sandwich_domain_error():
    with pytest.raises(DomainError):
        sandwich_bounds_cwdd(5)


def test_ratio_report_frozen():
    rep = ratio_report(6)
    with pytest.raises(AttributeError):
        rep.n = 7
    assert rep.cwdd_over_nsq == Fraction(2, 36)
    assert rep.cwdd_over_cplus == Fraction(2, 15)
    assert rep.cwdd_over_cminus == Fraction(2, 10)
    with pytest.raises(DomainError):
        ratio_report(5)


def test_ratio_report_near_limits_at_600():
    rep = ratio_report(600)
    assert abs(rep.cwdd_over_nsq - Fraction(1, 6)) <= Fraction(1, 100)
    assert abs(rep.cwdd_over_cplus - Fraction(1, 3)) <= Fraction(1, 50)
    assert abs(rep.cwdd_over_cminus - Fraction(4, 9)) <= Fraction(1, 25)


def test_ratio_report_is_built_from_the_public_closed_forms():
    # ratio_report reads the unchecked size bodies; the checked sizes are the oracle
    rng = random.Random(6)
    large = [n + (residue - n) % 6 for residue in range(6)
             for n in [rng.randrange(6, 10**9 - 5) for _ in range(10)]]
    for n in [*range(6, 301), *large]:
        cw = size_cwdd(n)
        assert ratio_report(n) == (n, Fraction(cw, size_c_plus(n)), Fraction(cw, size_c_minus(n)),
                                   Fraction(cw, n * n)), n
    assert max(large) <= 10**9 and sorted(n % 6 for n in large) == sorted([*range(6)] * 10)


def test_census_density_converges_to_one_sixth():
    for n in range(36, 301):
        assert abs(Fraction(size_cwdd(n), n * n) - Fraction(1, 6)) <= Fraction(2, n)


def test_envelope_sizes_monotone():
    for n in range(4, 301):
        assert size_c_minus(n) == size_beta(n) + 1
        assert size_c_minus(n) <= size_c_plus(n)


def test_bound_domain_errors():
    with pytest.raises(DomainError):
        size_c_plus(2)
    with pytest.raises(DomainError):
        size_c_minus(2)
    with pytest.raises(DomainError):
        size_beta(3)


def test_inexact_table_entry_is_an_internal_error(monkeypatch):
    table = list(formulas._RA_B)
    table[1] = (0, 3, 1, -1, 2)  # 3k^2 + k - 1 is odd at k = 2
    monkeypatch.setattr(formulas, "_RA_B", tuple(table))
    with pytest.raises(InternalInconsistencyError, match="inexact division 13/2"):
        size_ra_b(13)
