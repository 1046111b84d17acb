"""Batch cross-verification of the lattice sets against closed forms.

For each n in a range the census builds the masks of the selected family
of lattice sets in one sets.MaskTable, counts their points by summing
popcounts (once per set), evaluates the matching closed-form sizes, and
runs the entries of CHECKS that the family switches on: component
disjointness, the sandwich envelope and containment (the projection of ra
onto cwdd among them), each returning, on a failure, the sets, a witness
point and n mod 6.  Every relation between sets is decided on the masks,
with int operations: a record sorts nothing and builds no rows.  A union's
parts share no point when its count is the sum of theirs
(sets.parts_overlap).  sub lies in sup when no mask of sub has a bit
outside sup's mask of the same prefix, and ra projects onto cwdd when the
OR of each depth's masks gives cwdd's table exactly.  A witness is the
lowest bit under the least prefix where the check fails.  Failures are
recorded and the run continues, so one bad polynomial branch produces a
complete diagnostic map across residues instead of a single abort.

Reports serialize to CSV (one row per n; the diffable golden format) and
JSON, with one boolean per kind of check.  Each family's CSV header line
is built once, from FAMILY_SETS, in _HEADER.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from functools import reduce
from operator import or_

from . import sets
from .errors import DomainError
from .formulas import SIZE_BY_SET, sandwich_bounds_cwdd, size_cwdd
from .sets import NamedSet

FAMILY_SETS: dict[str, tuple[NamedSet, ...]] = {
    union.value: (*parts, union) for union, parts in sets.UNION_PARTS.items()
}
FAMILY_SETS["bounds"] = (NamedSet.C_MINUS, NamedSet.C_PLUS, NamedSet.BETA)
FAMILY_SETS["all"] = FAMILY_SETS["cwdd"] + FAMILY_SETS["ra"] + FAMILY_SETS["bounds"]

KINDS = ("disjointness", "sandwich", "containment")  # of CHECKS; one boolean each
# each family's CSV header line: the one place its columns are named
_HEADER = {
    family: ",".join(["n", "k", "i",
                      *(f"{s.value}_{end}" for s in members for end in ("enum", "closed")),
                      *(f"{kind}_ok" for kind in KINDS)])
    for family, members in FAMILY_SETS.items()
}


@dataclass(frozen=True)
class CensusRecord:
    """Verification results for a single n.

    counts maps each set tag to (enumerated size, closed-form size); a
    (None, None) pair marks a set undefined at this n (see sets.FIRST_N;
    the census starts at n = 3, so only beta at n = 3).  failures holds the
    structural checks that failed.  The reports write, beside n, the k and i
    of n = 6k + i, and ok(kind) for each kind of KINDS.
    """

    n: int
    counts: dict[str, tuple[int | None, int | None]]
    failures: tuple[Failure, ...] = ()

    def ok(self, kind: str) -> bool:
        """No check of this kind failed: the census boolean of the kind."""
        return all(failure.kind != kind for failure in self.failures)

    @property
    def passed(self) -> bool:
        return not self.failures and all(e == c for e, c in self.counts.values())


@dataclass(frozen=True)
class CensusReport:
    """The records of one family, one per n in ascending order; run_census
    always builds at least one."""

    family: str
    records: list[CensusRecord]

    @property
    def pass_count(self) -> int:
        return sum(1 for r in self.records if r.passed)

    @property
    def fail_count(self) -> int:
        return len(self.records) - self.pass_count

    @property
    def first_failure(self) -> int | None:
        return next((r.n for r in self.records if not r.passed), None)

    @property
    def all_pass(self) -> bool:
        return self.fail_count == 0

    # -- serialization ------------------------------------------------------

    def to_csv(self) -> str:
        lines = [_HEADER[self.family]]
        for r in self.records:
            row = [str(r.n), str(r.n // 6), str(r.n % 6)]
            for member in FAMILY_SETS[self.family]:
                row += ["" if count is None else str(count) for count in r.counts[member.value]]
            row += ["true" if r.ok(kind) else "false" for kind in KINDS]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "family": self.family,
            "n_lo": self.records[0].n,
            "n_hi": self.records[-1].n,
            "records": [
                {
                    "n": r.n,
                    "k": r.n // 6,
                    "i": r.n % 6,
                    "counts": {tag: list(pair) for tag, pair in r.counts.items()},
                    **{f"{kind}_ok": r.ok(kind) for kind in KINDS},
                    "pass": r.passed,
                }
                for r in self.records
            ],
            "summary": {"pass": self.pass_count, "fail": self.fail_count},
            "first_failure": self.first_failure,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# structural checks, on the sets' masks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Failure:
    """A structural check that failed at one n: its name and kind, the sets
    involved, a witness point that breaks it (for the sandwich, the
    one-tuple (|cwdd|,) outside the envelope) and the residue n mod 6."""

    check: str
    kind: str
    sets: tuple[NamedSet, ...]
    witness: tuple[int, ...]
    residue: int

    def __str__(self) -> str:
        tags = ", ".join(s.value for s in self.sets)
        return f"{self.check} on {tags}: witness {self.witness}, n mod 6 = {self.residue}"


@dataclass(frozen=True)
class Check:
    """An entry of CHECKS: its kind (the census boolean it feeds), the family
    sets that switch it on, the first n it applies to, and find(n, table),
    which reads the sets' masks from a sets.MaskTable at n and returns None
    when the check holds, else (sets involved, witness)."""

    kind: str
    on: tuple[NamedSet, ...]
    first_n: int
    find: Callable[[int, sets.MaskTable], tuple[tuple[NamedSet, ...], tuple[int, ...]] | None]


def _parts_disjoint(union: NamedSet) -> Check:
    """No two parts of the union share a point, except where one is
    expected (sets.parts_overlap); it applies from n = 5, below which every
    CW set is empty."""
    return Check("disjointness", (union,), 5, lambda n, table: sets.parts_overlap(union, table))


def _sandwich(n, table):
    lo, hi = sandwich_bounds_cwdd(n)
    size = size_cwdd(n)
    return None if lo <= size <= hi else ((NamedSet.CWDD,), (size,))


def _inside(sub: NamedSet, sup: NamedSet) -> Check:
    """sub lies in sup: no mask of sub has a bit outside sup's mask of its
    prefix.  The witness is the least point of sub outside sup.  It applies
    from the census's first n, 3, or where a polytope is defined."""

    def find(n, table):
        outer = table[sup]
        outside = {(a,): extra for a, mask in table[sub].items()
                   if (extra := mask & ~outer.get(a, 0))}
        return ((sub, sup), sets._least_difference(outside, {})) if outside else None

    return Check("containment", (sub,), max(sets.FIRST_N.get(s, 3) for s in (sub, sup)), find)


def _ra_onto_cwdd(n, table):
    # the pairs (a, d) of the tuples (a, r, d, d) are exactly cwdd: no tuple
    # projects outside it, and every pair has a tuple above it.  Each depth's
    # masks over d, ORed, are its projection; the witness is the least pair
    # in one table and not the other.
    projected = {a: reduce(or_, inner.values()) for a, inner in table[NamedSet.RA].items()}
    if projected == table[NamedSet.CWDD]:
        return None
    return (NamedSet.RA, NamedSet.CWDD), sets._least_difference(
        sets._flat(projected, 2), sets._flat(table[NamedSet.CWDD], 2))


CHECKS = {
    "cwdd parts disjoint": _parts_disjoint(NamedSet.CWDD),
    "ra parts disjoint": _parts_disjoint(NamedSet.RA),
    "cwdd sandwich": Check("sandwich", (NamedSet.CWDD, NamedSet.C_PLUS), 6, _sandwich),
    "cwdd in c-plus": _inside(NamedSet.CWDD, NamedSet.C_PLUS),
    "c-minus in c-plus": _inside(NamedSet.C_MINUS, NamedSet.C_PLUS),
    "beta in c-minus": _inside(NamedSet.BETA, NamedSet.C_MINUS),
    "ra projects onto cwdd": Check("containment", (NamedSet.RA,), 3, _ra_onto_cwdd),
}


def _failure(name: str, n: int, table: sets.MaskTable) -> Failure | None:
    entry = CHECKS[name]
    found = entry.find(n, table)
    return None if found is None else Failure(name, entry.kind, *found, n % 6)


def check(name: str, n: int) -> Failure | None:
    """Run the named entry of CHECKS at n on freshly built masks: None when
    it holds, else its Failure.  Raises DomainError for an unknown name or
    an n below the check's first n, and TypeError unless n is an int."""
    sets._require_int(n)
    if name not in CHECKS:
        raise DomainError(f"unknown check {name!r}; choose from {sorted(CHECKS)}")
    if n < CHECKS[name].first_n:
        raise DomainError(f"{name} applies from n = {CHECKS[name].first_n}, got {n}")
    return _failure(name, n, sets.MaskTable(n))


# ---------------------------------------------------------------------------
# the census proper
# ---------------------------------------------------------------------------

def _compute_record(n: int, family: str) -> CensusRecord:
    members = FAMILY_SETS[family]
    table = sets.MaskTable(n)
    counts: dict[str, tuple[int | None, int | None]] = {
        member.value: (table.count(member), SIZE_BY_SET[member](n))
        if sets.is_defined(member, n) else (None, None)
        for member in members
    }
    failures = tuple(
        failure for name, entry in CHECKS.items()
        if n >= entry.first_n and any(s in members for s in entry.on)
        and (failure := _failure(name, n, table)) is not None
    )
    return CensusRecord(n, counts, failures)


def run_census(n_lo: int, n_hi: int, family: str = "all") -> CensusReport:
    """Cross-verify the family over n_lo..n_hi inclusive, in ascending n.

    Each record builds the masks of the family's sets at its n once, counts
    them and runs every structural check on them.
    """
    if family not in FAMILY_SETS:
        raise DomainError(f"unknown family {family!r}; choose from {sorted(FAMILY_SETS)}")
    if n_lo < 3:
        raise DomainError(f"census starts at n >= 3, got {n_lo}")
    if n_lo > n_hi:
        raise DomainError(f"empty range: {n_lo} > {n_hi}")
    records = [_compute_record(n, family) for n in range(n_lo, n_hi + 1)]
    return CensusReport(family, records)
