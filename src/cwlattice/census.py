"""Batch cross-verification of the lattice sets against closed forms.

For each n in a range the census builds the rows of the selected family of
lattice sets, counts their points by summing row lengths, evaluates the
matching closed-form sizes, and checks the structural facts (component
disjointness, the sandwich envelope on the pair census, and the
containment/projection relations between the sets) as interval tests on
the rows.  Failures are recorded and the run continues, so one bad
polynomial branch produces a complete diagnostic map across residues
instead of a single abort.

Reports serialize to CSV (one row per n; the diffable golden format) and
JSON, and parse back losslessly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import formulas, sets
from .errors import DomainError
from .formulas import SIZE_BY_SET, sandwich_bounds_cwdd, size_cwdd
from .sets import NamedSet

FAMILY_SETS: dict[str, tuple[NamedSet, ...]] = {
    union.value: (*parts, union) for union, parts in sets.UNION_PARTS.items()
}
FAMILY_SETS["bounds"] = (NamedSet.C_MINUS, NamedSet.C_PLUS, NamedSet.BETA)
FAMILY_SETS["all"] = FAMILY_SETS["cwdd"] + FAMILY_SETS["ra"] + FAMILY_SETS["bounds"]

_BOOL_FIELDS = ("disjointness_ok", "sandwich_ok", "containment_ok")


@dataclass(frozen=True)
class CensusRecord:
    """Verification results for a single n.

    counts maps each set tag to (enumerated size, closed-form size); a
    (None, None) pair marks a set undefined at this n (see sets.FIRST_N;
    the census starts at n = 3, so only beta at n = 3).
    """

    n: int
    k: int
    i: int
    counts: dict[str, tuple[int | None, int | None]]
    disjointness_ok: bool
    sandwich_ok: bool
    containment_ok: bool

    @property
    def passed(self) -> bool:
        return (
            self.disjointness_ok
            and self.sandwich_ok
            and self.containment_ok
            and all(e == c for e, c in self.counts.values())
        )


@dataclass(frozen=True)
class CensusReport:
    family: str
    n_lo: int
    n_hi: int
    records: list[CensusRecord] = field(default_factory=list)

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
        tags = [s.value for s in FAMILY_SETS[self.family]]
        header = ["n", "k", "i"]
        for tag in tags:
            header += [f"{tag}_enum", f"{tag}_closed"]
        header += list(_BOOL_FIELDS)
        lines = [",".join(header)]
        for r in self.records:
            row = [str(r.n), str(r.k), str(r.i)]
            for tag in tags:
                enum_count, closed_count = r.counts[tag]
                row += ["" if enum_count is None else str(enum_count),
                        "" if closed_count is None else str(closed_count)]
            row += [_fmt_bool(getattr(r, b)) for b in _BOOL_FIELDS]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "family": self.family,
            "n_lo": self.n_lo,
            "n_hi": self.n_hi,
            "records": [
                {
                    "n": r.n,
                    "k": r.k,
                    "i": r.i,
                    "counts": {tag: list(pair) for tag, pair in r.counts.items()},
                    "disjointness_ok": r.disjointness_ok,
                    "sandwich_ok": r.sandwich_ok,
                    "containment_ok": r.containment_ok,
                    "pass": r.passed,
                }
                for r in self.records
            ],
            "summary": {"pass": self.pass_count, "fail": self.fail_count},
            "first_failure": self.first_failure,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "CensusReport":
        lines = [ln for ln in text.splitlines() if ln]
        header = lines[0].split(",")
        tag_cols = header[3:-len(_BOOL_FIELDS)]
        tags = [c[: -len("_enum")] for c in tag_cols[0::2]]
        family = _family_for_tags(tags)
        records = []
        for line in lines[1:]:
            cells = line.split(",")
            n, k, i = int(cells[0]), int(cells[1]), int(cells[2])
            counts: dict[str, tuple[int | None, int | None]] = {}
            for idx, tag in enumerate(tags):
                enum_cell = cells[3 + 2 * idx]
                closed_cell = cells[4 + 2 * idx]
                counts[tag] = (
                    int(enum_cell) if enum_cell else None,
                    int(closed_cell) if closed_cell else None,
                )
            flags = [cell == "true" for cell in cells[-len(_BOOL_FIELDS):]]
            records.append(CensusRecord(n, k, i, counts, *flags))
        return cls(family=family, n_lo=records[0].n, n_hi=records[-1].n, records=records)

    @classmethod
    def from_json(cls, text: str) -> "CensusReport":
        payload = json.loads(text)
        records = [
            CensusRecord(
                n=r["n"],
                k=r["k"],
                i=r["i"],
                counts={
                    tag: (pair[0], pair[1]) for tag, pair in sorted(r["counts"].items(),
                         key=lambda kv: _TAG_ORDER[kv[0]])
                },
                disjointness_ok=r["disjointness_ok"],
                sandwich_ok=r["sandwich_ok"],
                containment_ok=r["containment_ok"],
            )
            for r in payload["records"]
        ]
        return cls(
            family=payload["family"],
            n_lo=payload["n_lo"],
            n_hi=payload["n_hi"],
            records=records,
        )


_TAG_ORDER = {s.value: idx for idx, s in enumerate(FAMILY_SETS["all"])}


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


def _family_for_tags(tags: list[str]) -> str:
    for family, members in FAMILY_SETS.items():
        if tags == [s.value for s in members]:
            return family
    raise ValueError(f"column set {tags} matches no census family")


# ---------------------------------------------------------------------------
# structural checks, on the sets' rows
# ---------------------------------------------------------------------------

class _Rows(dict):
    """The rows of the named sets at one n, each built on first use; a
    union's rows merge its components' rows, so no set is built twice."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, set_id: NamedSet) -> list[sets.Row]:
        rows = self[set_id] = (sets.union_rows(set_id, self) if set_id in sets.UNION_PARTS
                               else sets.rows(set_id, self.n))
        return rows


def _subset(xs: list[sets.Row], ys: list[sets.Row]) -> bool:
    return sets.count_rows(sets.intersect_rows(xs, ys)) == sets.count_rows(xs)


@dataclass(frozen=True)
class DisjointnessReport:
    """Pairwise intersections among the census components at one n.

    Keys are component pairs like "ab".  Passes when the pair census
    overlap is exactly {(2, 2)} at n = 5 (components a and b) and empty
    everywhere else, and every tuple-census intersection is empty.  A
    census left out of the check has no keys.
    """

    n: int
    cwdd_overlaps: dict[str, tuple[tuple[int, ...], ...]]
    ra_overlaps: dict[str, tuple[tuple[int, ...], ...]]

    @property
    def ok(self) -> bool:
        allowed = {"ab": ((2, 2),)} if self.n == 5 else {}
        return all(
            overlap == allowed.get(pair, ()) for pair, overlap in self.cwdd_overlaps.items()
        ) and not any(self.ra_overlaps.values())


def _disjointness(n: int, built: _Rows, members: tuple[NamedSet, ...]) -> DisjointnessReport:
    """The component intersections of the unions among members, from their rows."""

    def overlaps(union: NamedSet) -> dict[str, tuple[tuple[int, ...], ...]]:
        if union not in members:
            return {}
        return {pair: tuple(sets.expand_rows(common))
                for pair, common in sets.union_overlaps(union, built)}

    return DisjointnessReport(n, overlaps(NamedSet.CWDD), overlaps(NamedSet.RA))


def _projects(built: _Rows) -> bool:
    """check_cross_projection on built rows: a tuple row ((a, r), lo, hi)
    projects to the pair row ((a,), lo, hi)."""
    deep = sets.merge_rows(((a,), lo, hi) for (a, _), lo, hi in built[NamedSet.RA] if a >= 3)
    depth2 = sets.merge_rows(((a,), lo, hi) for (a, _), lo, hi in built[NamedSet.RA_A])
    return _subset(deep, built[NamedSet.CWDD]) and _subset(depth2, built[NamedSet.CWDD_A])


def check_disjointness(n: int) -> DisjointnessReport:
    """Report every pairwise component intersection at n (n >= 5)."""
    if n < 5:
        raise DomainError(f"disjointness checks need n >= 5, got {n}")
    return _disjointness(n, _Rows(n), (NamedSet.CWDD, NamedSet.RA))


def check_cross_projection(n: int) -> bool:
    """Consistency between the tuple census and the pair census.

    Every tuple (a, r, d, h) with a >= 3 must project to a pair (a, d) in
    the pair census, and every depth-2 tuple (component a) must project
    into the pair census's depth-2 component.  Vacuously true below n = 5.
    """
    return _projects(_Rows(n))


# ---------------------------------------------------------------------------
# the census proper
# ---------------------------------------------------------------------------

# (subset, superset) pairs checked whenever the subset is in the family
_SUBSETS = ((NamedSet.CWDD, NamedSet.C_PLUS), (NamedSet.C_MINUS, NamedSet.C_PLUS),
            (NamedSet.BETA, NamedSet.C_MINUS))


def _compute_record(n: int, family: str) -> CensusRecord:
    key = formulas.residue_decompose(n)
    members = FAMILY_SETS[family]
    defined = [m for m in members if sets.is_defined(m, n)]
    built = _Rows(n)
    counts: dict[str, tuple[int | None, int | None]] = {
        member.value: (sets.count_rows(built[member]), SIZE_BY_SET[member](n))
        if member in defined else (None, None)
        for member in members
    }

    # each census checks its own components; bounds has none
    disjointness_ok = n < 5 or _disjointness(n, built, members).ok

    # sandwich envelope on |cwdd| (defined for n > 5), a fact about the pair
    # census and its bounding polytopes
    sandwich_ok = True
    if n > 5 and (NamedSet.CWDD in members or NamedSet.C_PLUS in members):
        lo, hi = sandwich_bounds_cwdd(n)
        sandwich_ok = lo <= size_cwdd(n) <= hi

    containment_ok = all(
        _subset(built[sub], built[sup]) for sub, sup in _SUBSETS if sub in defined
    ) and (NamedSet.RA not in members or _projects(built))

    return CensusRecord(n=n, k=key.k, i=key.i, counts=counts,
                        disjointness_ok=disjointness_ok, sandwich_ok=sandwich_ok,
                        containment_ok=containment_ok)


def run_census(n_lo: int, n_hi: int, family: str = "all") -> CensusReport:
    """Cross-verify the family over n_lo..n_hi inclusive, in ascending n.

    Each record builds the rows of the family's sets at its n once, counts
    them and runs every structural check on them.
    """
    if family not in FAMILY_SETS:
        raise DomainError(f"unknown family {family!r}; choose from {sorted(FAMILY_SETS)}")
    if n_lo < 3:
        raise DomainError(f"census starts at n >= 3, got {n_lo}")
    if n_lo > n_hi:
        raise DomainError(f"empty range: {n_lo} > {n_hi}")
    records = [_compute_record(n, family) for n in range(n_lo, n_hi + 1)]
    return CensusReport(family=family, n_lo=n_lo, n_hi=n_hi, records=records)
