"""Batch cross-verification of the lattice sets against closed forms.

For each n in a range the census builds the masks of the selected family
of lattice sets in one sets.MaskTable, counts their points once per set
(sets.MaskTable.count: a base set's popcounts summed, a union's parts'
counts when no two share a point), evaluates the matching closed-form
sizes, and runs the entries of CHECKS that the family switches on,
chosen once per family at import (_FAMILY_CHECKS): component
disjointness, the sandwich envelope and containment (the projection of ra onto cwdd among them),
each returning, on a failure, the sets, a witness point and n mod 6.  A
check only names its relation: sets decides each one on the masks, with
int operations (sets.parts_overlap for the parts of a union, from the
points each pair shares, ANDed once per table by sets.MaskTable.overlaps;
sets.points_outside for containment, sets.ra_projection_mismatch for the
projection), and this module reads no mask.  Failures are recorded and
the run continues, so one bad polynomial branch produces a complete
diagnostic map across residues instead of a single abort.

Reports serialize to CSV (one row per n; the diffable golden format) and
JSON, with one boolean per kind of check.  Each family's CSV header line
is built once, from FAMILY_SETS, in _HEADER.

CensusRecord, CensusReport, Failure and Check are named tuples: immutable,
compared and hashed by value (a record's counts dict makes it unhashable),
iterable in field order, and equal to a plain tuple of the same values.  A
namedtuple class costs a small fraction of what a frozen dataclass costs to
define, since the dataclass writes and compiles its methods at every import.
"""

from __future__ import annotations

import json
from collections import namedtuple

from . import sets
from .errors import DomainError, require_int
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


class CensusRecord(namedtuple("CensusRecord", "n counts failures", defaults=((),))):
    """Verification results for a single n.

    counts maps each set tag to (enumerated size, closed-form size); a
    (None, None) pair marks a set undefined at this n (see sets.FIRST_N;
    the census starts at n = 3, so only beta at n = 3).  failures holds the
    structural checks that failed, a tuple of Failure.  The reports write,
    beside n, the k and i of n = 6k + i, and ok(kind) for each kind of
    KINDS.
    """

    __slots__ = ()

    def ok(self, kind: str) -> bool:
        """No check of this kind failed: the census boolean of the kind."""
        return all(failure.kind != kind for failure in self.failures)

    @property
    def passed(self) -> bool:
        return not self.failures and all(e == c for e, c in self.counts.values())


class CensusReport(namedtuple("CensusReport", "family records")):
    """The records of one family, a list of CensusRecord, one per n in
    ascending order; run_census always builds at least one."""

    __slots__ = ()

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.records)

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
        failed = [r.n for r in self.records if not r.passed]
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
            "summary": {"pass": len(self.records) - len(failed), "fail": len(failed)},
            "first_failure": failed[0] if failed else None,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# structural checks, on the sets' masks
# ---------------------------------------------------------------------------

class Failure(namedtuple("Failure", "check kind sets witness residue")):
    """A structural check that failed at one n: its name and kind, the sets
    involved (a tuple of NamedSet), a witness point that breaks it (for the
    sandwich, the one-tuple (|cwdd|,) outside the envelope) and the residue
    n mod 6."""

    __slots__ = ()

    def __str__(self) -> str:
        tags = ", ".join(s.value for s in self.sets)
        return f"{self.check} on {tags}: witness {self.witness}, n mod 6 = {self.residue}"


class Check(namedtuple("Check", "kind on first_n find")):
    """An entry of CHECKS: its kind (the census boolean it feeds), the family
    sets that switch it on, the first n it applies to, and find(table),
    which reads the sets from a sets.MaskTable and returns None when the
    check holds at the table's n, else (sets involved, witness)."""

    __slots__ = ()


def _parts_disjoint(union: NamedSet) -> Check:
    """No two parts of the union share a point, except where one is
    expected (sets.parts_overlap); it applies from n = 5, below which every
    CW set is empty."""
    return Check("disjointness", (union,), 5, lambda table: sets.parts_overlap(union, table))


def _sandwich(table):
    lo, hi = sandwich_bounds_cwdd(table.n)
    size = size_cwdd(table.n)
    return None if lo <= size <= hi else ((NamedSet.CWDD,), (size,))


def _inside(sub: NamedSet, sup: NamedSet) -> Check:
    """sub lies in sup (sets.points_outside).  It applies from the census's
    first n, 3, or where a polytope is defined."""
    return Check("containment", (sub,), max(sets.FIRST_N.get(s, 3) for s in (sub, sup)),
                 lambda table: sets.points_outside(sub, sup, table))


# each find looks its sets function up when it runs, so a wrapper or a
# test's patch on the sets module takes effect
CHECKS = {
    "cwdd parts disjoint": _parts_disjoint(NamedSet.CWDD),
    "ra parts disjoint": _parts_disjoint(NamedSet.RA),
    "cwdd sandwich": Check("sandwich", (NamedSet.CWDD, NamedSet.C_PLUS), 6, _sandwich),
    "cwdd in c-plus": _inside(NamedSet.CWDD, NamedSet.C_PLUS),
    "c-minus in c-plus": _inside(NamedSet.C_MINUS, NamedSet.C_PLUS),
    "beta in c-minus": _inside(NamedSet.BETA, NamedSet.C_MINUS),
    "ra projects onto cwdd": Check("containment", (NamedSet.RA,), 3,
                                   lambda table: sets.ra_projection_mismatch(table)),
}


# each family's checks, in CHECKS order: the entries its sets switch on
_FAMILY_CHECKS = {
    family: [(name, entry) for name, entry in CHECKS.items()
             if any(s in members for s in entry.on)]
    for family, members in FAMILY_SETS.items()
}


def _failure(name: str, entry: Check, table: sets.MaskTable) -> Failure | None:
    found = entry.find(table)
    return None if found is None else Failure(name, entry.kind, *found, table.n % 6)


def check(name: str, n: int) -> Failure | None:
    """Run the named entry of CHECKS at n on freshly built masks: None when
    it holds, else its Failure.  Raises DomainError for an unknown name or
    an n below the check's first n, and TypeError unless n is an int."""
    require_int(n)
    if name not in CHECKS:
        raise DomainError(f"unknown check {name!r}; choose from {sorted(CHECKS)}")
    if n < CHECKS[name].first_n:
        raise DomainError(f"{name} applies from n = {CHECKS[name].first_n}, got {n}")
    return _failure(name, CHECKS[name], sets.MaskTable(n))


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
    failures = tuple([
        failure for name, entry in _FAMILY_CHECKS[family]
        if n >= entry.first_n and (failure := _failure(name, entry, table)) is not None
    ])
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
