"""Seeded workload generators.

A generator runs entirely in set-up.  It draws every input from the seeded
random source, writes any input files, and works out what each op must
return from oracles that do not share code with the path being timed.  It
returns one round: a list of ops that the benchmark repeats, closed loop
with a single caller, until its time is up.  The program never sees the
seed, only the generated inputs.

Sizes are drawn by stratified sampling: the range is cut into strata and
each stratum gets its own draw.  A round then always spans the whole range
and its total cost barely depends on the seed, which keeps runs with
different seeds comparable.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

ALL_SETS = ("cwdd-a", "cwdd-b", "cwdd-c", "cwdd", "ra-a", "ra-b", "ra-c", "ra-d", "ra",
            "c-minus", "c-plus", "beta")
RA_PARTS = ("ra-a", "ra-b", "ra-c", "ra-d")
CWDD_PARTS = ("cwdd-a", "cwdd-b", "cwdd-c")

# Column order of each census family in the golden CSV.
FAMILY_TAGS = {
    "cwdd": ("cwdd-a", "cwdd-b", "cwdd-c", "cwdd"),
    "ra": ("ra-a", "ra-b", "ra-c", "ra-d", "ra"),
    "bounds": ("c-minus", "c-plus", "beta"),
}
FAMILY_TAGS["all"] = FAMILY_TAGS["cwdd"] + FAMILY_TAGS["ra"] + FAMILY_TAGS["bounds"]


@dataclass
class Op:
    """One operation: either CLI invocations (run in order through
    cli.main) or one library call `module.func(*args)`."""

    kind: str
    check: Callable[[object], bool]
    argvs: tuple = ()
    module: str = ""
    func: str = ""
    args: tuple = ()


# ---------------------------------------------------------------------------
# stratified draws
# ---------------------------------------------------------------------------

def strata(lo: int, hi: int, count: int, power: float = 1.0) -> list[tuple[int, int]]:
    """Cut lo..hi into `count` contiguous integer strata of equal width in
    x**power, so power = 3 gives strata of equal cubic cost."""
    edges = [
        round((lo ** power + j / count * (hi ** power - lo ** power)) ** (1 / power))
        for j in range(count + 1)
    ]
    return [(edges[j] if j == 0 else edges[j] + 1, edges[j + 1]) for j in range(count)]


def draw_with_residue(rng, lo: int, hi: int, residue: int) -> int:
    """Uniform draw from lo..hi among values congruent to residue mod 6."""
    first = lo + (residue - lo) % 6
    if first > hi:
        return rng.randint(lo, hi)
    return first + 6 * rng.randrange((hi - first) // 6 + 1)


def residues(rng, count: int) -> list[int]:
    """`count` residues mod 6 in seeded order, each residue as often as
    possible, so every six consecutive draws cover all of them."""
    out = []
    while len(out) < count:
        block = list(range(6))
        rng.shuffle(block)
        out += block
    return out[:count]


def log_uniform(rng, lo: int, hi: int) -> int:
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def arity(tag: str) -> int:
    return 4 if tag.startswith("ra") else 2


def _size_fns(formulas) -> dict[str, Callable[[int], int]]:
    return {tag: getattr(formulas, "size_" + tag.replace("-", "_")) for tag in ALL_SETS}


def equals(expected) -> Callable[[object], bool]:
    return lambda result: result == expected


def _cli_ok(result, expect: Callable[[str], bool]) -> bool:
    (rc, out), = result
    return rc == 0 and expect(out)


# ---------------------------------------------------------------------------
# census-sweep
# ---------------------------------------------------------------------------

# Windows per round and family.  The cubic windows cost most; there are
# few enough of them that a run repeats the round several times.
CENSUS_CUBIC_WINDOWS = 6
CENSUS_QUADRATIC_WINDOWS = 38


def census_sweep(pkg, rng, workdir) -> list[Op]:
    """`census --from a --to b --family F` over short windows in 5..300.

    The all and ra families run the O(n^3) ra-d loop.  Their one-n windows
    sit in six strata of equal cubic cost each, so every op is a
    like-sized slice of the full 5..300 sweep; the seed draws n within the
    middle quarter of each stratum.  The top window of each is pinned at
    n = 298: the largest sets of a round set its peak memory, and Python
    sets grow in steps, so a few more n can add a sixth to it.  The
    quadratic cwdd and bounds families take 38 even strata each, with
    window lengths 1, 2, 3 in turn and starts that cycle through all six
    residues of n mod 6.  Window lengths are tied to strata, not drawn,
    because a long window on a top stratum would change a round's cost by
    a third.
    """
    size = _size_fns(pkg.formulas)
    windows = []
    for family in ("all", "ra"):
        cuts = strata(5, 298, 8 * CENSUS_CUBIC_WINDOWS, 3.0)
        for j in range(CENSUS_CUBIC_WINDOWS - 1):
            a = rng.randint(cuts[8 * j + 3][0], cuts[8 * j + 4][1])
            windows.append((family, a, a))
        windows.append((family, 298, 298))
    for family in ("cwdd", "bounds"):
        starts = residues(rng, CENSUS_QUADRATIC_WINDOWS)
        for j, (lo, hi) in enumerate(strata(5, 298, CENSUS_QUADRATIC_WINDOWS)):
            a = draw_with_residue(rng, lo, hi, starts[j])
            windows.append((family, a, a + j % 3))
    ops = []
    for family, a, b in windows:
        golden = _golden_census_csv(family, a, b, size)
        ops.append(Op(
            kind=f"census-{family}",
            argvs=(["census", "--from", str(a), "--to", str(b), "--family", family],),
            check=lambda result, golden=golden: _cli_ok(result, equals(golden)),
        ))
    rng.shuffle(ops)
    return ops


def _golden_census_csv(family: str, a: int, b: int, size) -> str:
    """The census CSV every correct program prints: each enumerated count
    equal to its closed form, and every structural check true."""
    tags = FAMILY_TAGS[family]
    header = ["n", "k", "i"]
    for tag in tags:
        header += [f"{tag}_enum", f"{tag}_closed"]
    header += ["disjointness_ok", "sandwich_ok", "containment_ok"]
    lines = [",".join(header)]
    for n in range(a, b + 1):
        k, i = divmod(n, 6)
        row = [str(n), str(k), str(i)]
        for tag in tags:
            row += [str(size[tag](n))] * 2
        lines.append(",".join(row + ["true"] * 3))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# point-queries
# ---------------------------------------------------------------------------

CONTAINS_WALKS = 12
SIZE_QUERIES_PER_FN = 50
BOUNDS_QUERIES = 80
MAX_N_LARGE = 10 ** 9


def point_queries(pkg, rng, workdir) -> list[Op]:
    """O(1) library calls: membership at and next to set boundaries for
    n <= 300, closed-form sizes, the sandwich and ratio reports at n up to
    10^9, and one `bounds --n` through the CLI per round.

    Membership answers come from enumerations built here, one set at a
    time.  The six membership n, one per residue, lie in the middle halves
    of six strata of equal cubic cost, so the largest enumeration, and with
    it peak memory, is nearly the same for every seed.
    """
    sets, formulas = pkg.sets, pkg.formulas
    size = _size_fns(formulas)
    ops = []
    cuts = strata(6, 300, 4 * 6, 3.0)
    for j, residue in enumerate(residues(rng, 6)):
        n = draw_with_residue(rng, cuts[4 * j + 1][0], cuts[4 * j + 2][1], residue)
        for tag in ALL_SETS:
            points = _enumeration(sets, tag, n)
            for point, member in _boundary_points(rng, points, set(points), tag, n):
                ops.append(Op(kind="contains", module="sets", func="contains",
                              args=(sets.NamedSet(tag), n, point),
                              check=equals(member)))
    for tag in ALL_SETS:
        for residue in residues(rng, SIZE_QUERIES_PER_FN):
            n = _large_n(rng, residue)
            ops.append(Op(kind="size", module="formulas", func=size[tag].__name__,
                          args=(n,), check=equals(_checked_size(size, tag, n))))
    for residue in residues(rng, BOUNDS_QUERIES):
        n = _large_n(rng, residue)
        envelope = _sandwich(n)
        ops.append(Op(kind="sandwich", module="formulas", func="sandwich_bounds_cwdd",
                      args=(n,), check=equals(envelope)))
    for residue in residues(rng, BOUNDS_QUERIES):
        n = _large_n(rng, residue)
        ops.append(_ratio_op(size, n))
    n = log_uniform(rng, 6, MAX_N_LARGE)
    line = f"size_cwdd = {_checked_size(size, 'cwdd', n)}"
    ops.append(Op(kind="cli-bounds", argvs=(["bounds", "--n", str(n)],),
                  check=lambda result: _cli_ok(result, lambda out: line in out.splitlines())))
    rng.shuffle(ops)
    return ops


def _large_n(rng, residue: int) -> int:
    """Log-uniform n in 6..10^9 with the given residue mod 6."""
    n = log_uniform(rng, 6, MAX_N_LARGE - 5)
    return n + (residue - n) % 6


def _enumeration(sets, tag: str, n: int) -> list:
    """The set's points, ra as the concatenation of its four parts."""
    if tag == "ra":
        return [p for part in RA_PARTS for p in _enumeration(sets, part, n)]
    return sets.enumerate_set(sets.NamedSet(tag), n)


def _boundary_points(rng, pool: list, members: set, tag: str, n: int):
    """Pairs (point, is member): walk from a random member along a seeded
    direction to the last member and the first non-member past it."""
    dims = arity(tag)
    directions = [tuple(s * (i == c) for i in range(dims)) for c in range(dims)
                  for s in (1, -1)]
    if dims == 4:
        directions += [(0, 0, 1, 1), (0, 0, -1, -1)]
    if not members:
        for _ in range(2 * CONTAINS_WALKS):
            yield tuple(rng.randint(1, n) for _ in range(dims)), False
        return
    for _ in range(CONTAINS_WALKS):
        point = rng.choice(pool)
        step = rng.choice(directions)
        nxt = tuple(x + d for x, d in zip(point, step))
        while nxt in members:
            point, nxt = nxt, tuple(x + d for x, d in zip(nxt, step))
        yield point, True
        yield nxt, False


_INVALID = object()  # expected value of an op whose oracle relation failed


def _checked_size(size, tag: str, n: int):
    """size[tag](n) if the closed forms at n pass their cross-checks: the
    components add up to the unions, |cwdd| lies in the sandwich envelope,
    |c-plus| = n(n-1)/2 and |c-minus| = |beta| + 1."""
    s = {t: size[t](n) for t in ALL_SETS}
    lo, hi = _sandwich(n)
    consistent = (
        s["ra"] == sum(s[t] for t in RA_PARTS)
        and s["cwdd"] == sum(s[t] for t in CWDD_PARTS)
        and lo <= s["cwdd"] <= hi
        and s["c-plus"] == n * (n - 1) // 2
        and s["c-minus"] == s["beta"] + 1
    )
    return s[tag] if consistent else _INVALID


def _sandwich(n: int) -> tuple[Fraction, Fraction]:
    base = Fraction((n - 3) ** 2, 6)
    return base + Fraction(1, 2), base + Fraction(7, 3)


def _ratio_op(size, n: int) -> Op:
    cw = _checked_size(size, "cwdd", n)
    expected = _INVALID if cw is _INVALID else (
        n, Fraction(cw, n * (n - 1) // 2),
        Fraction(cw, _checked_size(size, "c-minus", n)), Fraction(cw, n * n))

    def check(report) -> bool:
        return (report.n, report.cwdd_over_cplus, report.cwdd_over_cminus,
                report.cwdd_over_nsq) == expected

    return Op(kind="ratio", module="formulas", func="ratio_report", args=(n,), check=check)


# ---------------------------------------------------------------------------
# graph-recognize
# ---------------------------------------------------------------------------

EDGE_CAP = 32
CHORDED_HEXAGON = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
                   ("e", "f"), ("f", "a"), ("b", "f"), ("c", "e")]
# Graphs per round.  A round is large so that its upper percentiles rest on
# many graphs rather than on the single slowest one.
GRAPH_MIX = {"cw-realize": 256, "cw-random": 256, "odd-cycle": 64,
             "chorded-hexagon": 16, "sparse": 112}


def graph_recognize(pkg, rng, workdir) -> list[Op]:
    """`recognize` then `ideal` on edge-list files of at most 32 edges.

    Cameron-Walker graphs come from realize() points and from random
    skeletons (m = 1 with no triangles is a star and is skipped); known
    non-CW graphs are odd cycles C_{2k+1}, k >= 2, with k stratified, and
    the chorded hexagon; sparse connected random graphs are the slow case
    for the matching searches and carry no label.  The cycles run through
    k = 2..15 in turn, since their search cost grows steeply with k.
    """
    graphs = pkg.graphs
    os.makedirs(workdir, exist_ok=True)
    labelled = []
    for _ in range(GRAPH_MIX["cw-realize"]):
        labelled.append(("cw-realize", *_realized_cw(graphs, rng)))
    for _ in range(GRAPH_MIX["cw-random"]):
        labelled.append(("cw-random", *_random_cw(graphs, rng)))
    for index in range(GRAPH_MIX["odd-cycle"]):
        k = 2 + index % 14
        names = [f"c{i}" for i in range(2 * k + 1)]
        edges = [(names[i], names[(i + 1) % len(names)]) for i in range(len(names))]
        labelled.append(("odd-cycle", edges, (False, k, (2 * k + 1) // 3)))
    for _ in range(GRAPH_MIX["chorded-hexagon"]):
        labelled.append(("chorded-hexagon", list(CHORDED_HEXAGON), (False, 3, 2)))
    for _ in range(GRAPH_MIX["sparse"]):
        labelled.append(("sparse", _sparse_connected(rng), None))
    ops = []
    for index, (kind, edges, label) in enumerate(labelled):
        rng.shuffle(edges)
        lines = [f"{a} {b}" if rng.random() < 0.5 else f"{b} {a}" for a, b in edges]
        path = os.path.join(workdir, f"g{index:03d}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("# seeded benchmark graph\n" + "\n".join(lines) + "\n")
        generators = sorted(tuple(sorted(edge)) for edge in set(map(frozenset, edges)))
        ops.append(Op(
            kind=kind,
            argvs=(["recognize", "--input", path, "--format", "json"],
                   ["ideal", "--input", path, "--format", "json"]),
            check=_graph_check(label, [list(g) for g in generators]),
        ))
    rng.shuffle(ops)
    return ops


def _realized_cw(graphs, rng):
    while True:
        n = rng.randint(5, EDGE_CAP + 1)
        points = [(b, b) for b in range(1, n) if 3 * b > n and 2 * b < n]
        points += [(2, n - 2), (2, n - 3)] + ([(2, (n - 1) // 2)] if n % 2 else [])
        result = graphs.realize(n, rng.choice(points))
        if result.structure is not None:
            found = _structure_graph(graphs, result.structure)
            if found is not None:
                return found


def _random_cw(graphs, rng):
    while True:
        m, p = rng.randint(1, 4), rng.randint(1, 4)
        s = tuple(rng.randint(1, 3) for _ in range(m))
        t = tuple(rng.randint(0, 2) for _ in range(p))
        if m == 1 and not any(t):
            continue  # a star, not Cameron-Walker
        found = _structure_graph(graphs, graphs.CwStructure(m, p, s, t))
        if found is not None:
            return found


def _structure_graph(graphs, cw):
    """Named edge list of a skeleton within the cap, with its label: CW, and
    matching number = induced matching number = m + sum(t)."""
    if cw.m * cw.p + sum(cw.s) + 3 * sum(cw.t) > EDGE_CAP:
        return None
    graph = graphs.build_graph(cw)
    names = graphs.structure_vertex_names(cw)
    nu = cw.m + sum(cw.t)
    return [(names[u], names[v]) for u, v in graph.edges], (True, nu, nu)


def _sparse_connected(rng):
    vertices = rng.randint(18, 26)
    target = rng.randint(28, EDGE_CAP)
    edges = {(rng.randrange(i), i) for i in range(1, vertices)}
    while len(edges) < target:
        u, v = sorted(rng.sample(range(vertices), 2))
        edges.add((u, v))
    return [(f"x{u}", f"x{v}") for u, v in edges]


def _graph_check(label, generators):
    def check(result) -> bool:
        (rc1, out1), (rc2, out2) = result
        if rc1 != 0 or rc2 != 0:
            return False
        verdict = json.loads(out1)
        cw = verdict["cameron_walker"]
        m, im = verdict["matching_number"], verdict["induced_matching_number"]
        if label is None:
            labelled_ok = im <= m and (not cw or m == im)
        else:
            labelled_ok = (cw, m, im) == label
        return labelled_ok and json.loads(out2)["generators"] == generators

    return check


WORKLOADS = {
    "census-sweep": census_sweep,
    "point-queries": point_queries,
    "graph-recognize": graph_recognize,
}
