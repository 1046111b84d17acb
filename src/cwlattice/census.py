"""Batch cross-verification of enumerations against closed forms.

For each n in a range the census enumerates the selected family of lattice
sets, evaluates the matching closed-form sizes, and checks the structural
facts (component disjointness, the sandwich envelope on the pair census,
and the containment/projection relations between the sets).  Failures are
recorded and the run continues, so one bad polynomial branch produces a
complete diagnostic map across residues instead of a single abort.

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
    "cwdd": (NamedSet.CWDD_A, NamedSet.CWDD_B, NamedSet.CWDD_C, NamedSet.CWDD),
    "ra": (NamedSet.RA_A, NamedSet.RA_B, NamedSet.RA_C, NamedSet.RA_D, NamedSet.RA),
    "bounds": (NamedSet.C_MINUS, NamedSet.C_PLUS, NamedSet.BETA),
}
FAMILY_SETS["all"] = FAMILY_SETS["cwdd"] + FAMILY_SETS["ra"] + FAMILY_SETS["bounds"]

_BOOL_FIELDS = ("disjointness_ok", "sandwich_ok", "containment_ok")


@dataclass(frozen=True)
class CensusRecord:
    """Verification results for a single n.

    counts maps each set tag to (enumerated size, closed-form size); a
    (None, None) pair marks a set undefined at this n (only beta at n = 3).
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
# structural checks
# ---------------------------------------------------------------------------

# The components of each union set, keyed by the labels the reports use.
_UNION_PARTS = {
    NamedSet.CWDD: dict(zip("abc", FAMILY_SETS["cwdd"][:3])),
    NamedSet.RA: dict(zip("abcd", FAMILY_SETS["ra"][:4])),
}


class _PointSets(dict):
    """The named sets at one n as Python sets, each enumerated on first use.

    A union is built from its components, so no component is enumerated
    twice for the same n.
    """

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, set_id: NamedSet) -> set:
        if set_id in _UNION_PARTS:
            points = set().union(*self.parts(set_id).values())
        else:
            points = set(sets.ENUMERATORS[set_id](self.n))
        self[set_id] = points
        return points

    def parts(self, union: NamedSet) -> dict[str, set]:
        return {label: self[part] for label, part in _UNION_PARTS[union].items()}


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


def _pairwise_overlaps(parts: dict[str, set]) -> dict[str, tuple]:
    labels = sorted(parts)
    out = {}
    for x in range(len(labels)):
        for y in range(x + 1, len(labels)):
            key = labels[x] + labels[y]
            out[key] = tuple(sorted(parts[labels[x]] & parts[labels[y]]))
    return out


def check_disjointness(
    n: int,
    cwdd_parts: dict[str, set] | None = None,
    ra_parts: dict[str, set] | None = None,
) -> DisjointnessReport:
    """Report every pairwise component intersection at n (n >= 5).

    Called with n alone, it enumerates the components of both censuses.
    The census passes the component sets it has already built, keyed "a",
    "b", ... as in the report; an empty dict leaves that census out.
    """
    if n < 5:
        raise DomainError(f"disjointness checks need n >= 5, got {n}")
    points = _PointSets(n)
    return DisjointnessReport(
        n=n,
        cwdd_overlaps=_pairwise_overlaps(
            points.parts(NamedSet.CWDD) if cwdd_parts is None else cwdd_parts),
        ra_overlaps=_pairwise_overlaps(
            points.parts(NamedSet.RA) if ra_parts is None else ra_parts),
    )


def check_cross_projection(
    n: int,
    cwdd_parts: dict[str, set] | None = None,
    ra_parts: dict[str, set] | None = None,
) -> bool:
    """Consistency between the tuple census and the pair census.

    Every tuple (a, r, d, h) with a >= 3 must project to a pair (a, d) in
    the pair census, and every depth-2 tuple (component a) must project
    into the pair census's depth-2 component.  Vacuously true below n = 5.
    Called with n alone, it enumerates both censuses; the census passes
    the component sets it has already built, keyed as in
    check_disjointness.
    """
    if n < 5:
        return True
    points = _PointSets(n)
    cw = points.parts(NamedSet.CWDD) if cwdd_parts is None else cwdd_parts
    ra = points.parts(NamedSet.RA) if ra_parts is None else ra_parts
    cw_union = set().union(*cw.values())
    return all(
        (tup[0], tup[2]) in cw_union for part in ra.values() for tup in part if tup[0] >= 3
    ) and all((tup[0], tup[2]) in cw["a"] for tup in ra["a"])


# ---------------------------------------------------------------------------
# the census proper
# ---------------------------------------------------------------------------

def _compute_record(n: int, family: str) -> CensusRecord:
    key = formulas.residue_decompose(n)
    members = FAMILY_SETS[family]
    points = _PointSets(n)
    # Pair sets first, the O(n^3) tuple sets last: once those exist, every
    # garbage collection that a new allocation sets off traverses them.  The
    # tuple census's projection check reads the pair census.
    uses = members + FAMILY_SETS["cwdd"] if NamedSet.RA in members else members
    sizes = {
        set_id: len(points[set_id])
        for set_id in sorted(uses, key=lambda s: s.arity)
        if set_id is not NamedSet.BETA or n >= 4  # beta is undefined at n = 3
    }
    counts: dict[str, tuple[int | None, int | None]] = {
        member.value: (sizes[member], SIZE_BY_SET[member](n))
        if member in sizes else (None, None)
        for member in members
    }

    # each census checks its own components; bounds has none
    cwdd_parts = points.parts(NamedSet.CWDD) if NamedSet.CWDD in members else {}
    ra_parts = points.parts(NamedSet.RA) if NamedSet.RA in members else {}
    disjointness_ok = n < 5 or check_disjointness(n, cwdd_parts, ra_parts).ok

    # sandwich envelope on |cwdd| (defined for n > 5), a fact about the pair
    # census and its bounding polytopes
    sandwich_ok = True
    if n > 5 and (NamedSet.CWDD in members or NamedSet.C_PLUS in members):
        lo, hi = sandwich_bounds_cwdd(n)
        sandwich_ok = lo <= size_cwdd(n) <= hi

    containment_ok = (
        (NamedSet.CWDD not in members or points[NamedSet.CWDD] <= points[NamedSet.C_PLUS])
        and (NamedSet.RA not in members
             or check_cross_projection(n, points.parts(NamedSet.CWDD), ra_parts))
        and (NamedSet.C_MINUS not in members
             or points[NamedSet.C_MINUS] <= points[NamedSet.C_PLUS]
             and (n < 4 or points[NamedSet.BETA] <= points[NamedSet.C_MINUS]))
    )

    return CensusRecord(
        n=n,
        k=key.k,
        i=key.i,
        counts=counts,
        disjointness_ok=disjointness_ok,
        sandwich_ok=sandwich_ok,
        containment_ok=containment_ok,
    )


def run_census(n_lo: int, n_hi: int, family: str = "all") -> CensusReport:
    """Cross-verify the family over n_lo..n_hi inclusive, in ascending n.

    Each record enumerates the family's sets at its n once and runs every
    structural check on those sets.
    """
    if family not in FAMILY_SETS:
        raise DomainError(f"unknown family {family!r}; choose from {sorted(FAMILY_SETS)}")
    if n_lo < 3:
        raise DomainError(f"census starts at n >= 3, got {n_lo}")
    if n_lo > n_hi:
        raise DomainError(f"empty range: {n_lo} > {n_hi}")
    records = [_compute_record(n, family) for n in range(n_lo, n_hi + 1)]
    return CensusReport(family=family, n_lo=n_lo, n_hi=n_hi, records=records)
