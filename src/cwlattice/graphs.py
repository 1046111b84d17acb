"""Cameron-Walker graph structures: construction, recognition, realization.

A Cameron-Walker graph is a finite connected simple graph whose maximum
matching number equals its maximum induced matching number and which is
neither a star nor a star triangle.  Structurally it is a connected
bipartite core on parts {u_1..u_m} and {v_1..v_p} with at least one leaf
hanging from every u_i and any number (possibly zero) of pendant triangles
hanging from each v_j.

This module models that skeleton (:class:`CwStructure`), builds explicit
graphs from it, decides matching invariants by exhaustive search, checks
the Cameron-Walker property, emits edge-ideal generators, and realizes
achievable (depth, dim) lattice points as skeletons.

Every graph algorithm here reads one table per graph,
``Graph.neighbour_masks``, built on first use: bit w of entry v is set
when vw is an edge, and a vertex's degree is its entry's bit count.
Connectivity is a flood fill over it.  A star K_{1,r} (r >= 0, so K_1
counts) is decided by degrees alone: n - 1 edges and a vertex of degree
n - 1.  So is a star triangle: n >= 3, one vertex of degree n - 1 and
every other vertex of degree 2, so the edges avoiding the centre form a
perfect matching.

Both matching numbers come from one exact branch and bound on bitmasks;
they differ only in what a chosen edge rules out.  A table ``reach``
holds, for each vertex v, ``1 << v`` for the matching number and v's
closed neighbourhood for the induced matching number, and taking vw
rules out ``reach[v] | reach[w]``.  A live vertex of least live degree
is matched to each live neighbour or dropped, pruned when the live
vertices cannot add enough pairs to beat the best so far, and three
exchange rules, proved in _largest_matching, skip branches that cannot
hold the only optimum.  The search is capped at MAX_BRUTE_FORCE_EDGES
edges; beyond the cap a GraphTooLargeError asks the caller to shrink the
instance.

CwStructure and RealizationResult are named tuples: immutable, compared and
hashed by value, and iterable in field order.  Each checks its fields in
__new__ and again in _make, which _replace calls and which skips __new__,
so no way of building one skips the checks.

Graph stays a frozen dataclass, because its neighbour_masks are built
lazily.  Eager masks grow quadratically with the vertex count: for a path
on 40,000 vertices they took 0.26 s and held 103 MiB (Python 3.11, 2-core
x86-64).  ideal reads inputs of up to 16 MB, over a million edges, and
realize --emit-graph writes up to 500,000, and neither reads the masks.
A named tuple could keep a lazy cache only in an instance dict, where any
caller could overwrite it; the frozen dataclass refuses the write.  The
masks are a cached_property, not a field, so equality, hashing and repr
ignore them.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import (ArityMismatchError, DomainError, EdgeListParseError, GraphTooLargeError,
                     require_int)

MAX_BRUTE_FORCE_EDGES = 32


@dataclass(frozen=True)
class Graph:
    """A finite simple graph: a vertex count and a set of unordered pairs.

    Graph(vertex_count, edges) takes any iterable of vertex pairs: it orders
    each pair, collapses duplicates and stores the edges as a frozenset of
    (u, v) with u < v.  A loop or a vertex outside 0 .. vertex_count - 1 is
    a ValueError, so loops and multi-edges cannot be represented.

    neighbour_masks is built on first use, by the first graph algorithm
    run on the graph, and kept: bit w of entry v is set when vw is an edge.
    A graph that is only written out, as by ideal or realize --emit-graph,
    never builds it.  It is not a field, so equality, hashing and repr
    ignore it.
    """

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("a graph needs at least one vertex")
        edges = {(u, v) if u < v else (v, u) for u, v in self.edges}
        for u, v in edges:
            if not 0 <= u < v < self.vertex_count:
                raise ValueError(f"loop edge at vertex {u}" if u == v else
                                 f"bad edge ({u}, {v}) for {self.vertex_count} vertices")
        object.__setattr__(self, "edges", frozenset(edges))

    @cached_property
    def neighbour_masks(self) -> tuple[int, ...]:
        """Bit w of entry v is set when vw is an edge."""
        masks = [0] * self.vertex_count
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)


def _bits(mask: int):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def is_connected(g: Graph) -> bool:
    """A flood fill from vertex 0 over the neighbour masks reaches every vertex."""
    nbrs = g.neighbour_masks
    reached = frontier = 1
    while frontier:
        grown = 0
        for v in _bits(frontier):
            grown |= nbrs[v]
        frontier = grown & ~reached
        reached |= frontier
    return reached == (1 << g.vertex_count) - 1


# ---------------------------------------------------------------------------
# matching numbers by branch and bound
# ---------------------------------------------------------------------------

def _check_size(g: Graph) -> None:
    if len(g.edges) > MAX_BRUTE_FORCE_EDGES:
        raise GraphTooLargeError(
            f"{len(g.edges)} edges exceeds the exhaustive-search cap of "
            f"{MAX_BRUTE_FORCE_EDGES}; shrink the instance"
        )


def _largest_matching(g: Graph, reach: list[int]) -> int:
    """Most edges that can be chosen when a chosen edge vw rules out the
    vertices reach[v] | reach[w] (each reach[v] holds v itself).

    Branch and bound over a bitmask of live vertices, those that may still
    end a chosen edge.  A node picks a live vertex v of least live degree
    and either takes each edge from v to a live neighbour w in turn, or
    drops v.  A node is pruned when even pairing off every live vertex
    cannot beat the incumbent, both before and after the scan for v drops
    the live vertices with no live neighbour.  Three exchange rules skip
    branches that cannot hold the only optimum.

    A matching (reach[v] == 1 << v) never drops v: if a largest matching
    leaves v unmatched, its neighbour u is matched to some x, or uv could
    be added, and swapping ux for uv keeps the size.

    When v has one live neighbour w, the search takes vw: if w ends a
    chosen edge wx instead, swapping wx for vw rules out no more.  Then the
    only other case is that neither v nor w ends a chosen edge, which is
    worth trying only when vw rules out two other live vertices, so when w
    has two live neighbours besides v in an induced matching, and never in
    a matching.  If w has at most one other, x, at most one edge of a
    largest induced matching M meets {v, w, x}, since each such edge ends
    at x; swapping it for vw keeps M induced and its size, and if none
    does, M + vw is larger.

    When v has two live neighbours, w and z, and w's are v and z, the
    three form a pendant triangle, and the search takes vw and nothing
    else: it neither takes vz nor drops v, in either search.  The only live
    vertices joined to v or w are v, w and z, so a chosen edge other than
    vw meets {v, w, z} only at z, and a largest matching M of either kind
    without vw has at most one edge meeting {v, w, z}.  Swapping that edge
    for vw keeps M a matching of its kind and its size, however many other
    neighbours z has, and if there is none, M + vw is larger.
    """
    adj = g.neighbour_masks
    n = g.vertex_count  # more than any degree
    best = 0

    def grow(live: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        elif size + live.bit_count() // 2 <= best:
            return  # pruned before the scan, which only shrinks live
        pick, pick_nbrs, least = -1, 0, n
        scan = live
        while scan:
            low = scan & -scan
            scan ^= low
            v = low.bit_length() - 1
            nbrs = adj[v] & live
            if not nbrs:
                live ^= low  # no live neighbour left: it ends no chosen edge
                continue
            degree = nbrs.bit_count()
            if degree < least:
                pick, pick_nbrs, least = v, nbrs, degree
                if degree == 1:
                    break
        if pick < 0 or size + live.bit_count() // 2 <= best:
            return
        triangle = False
        if least == 2:
            low = pick_nbrs & -pick_nbrs
            low_nbrs = adj[low.bit_length() - 1] & live
            if low_nbrs & pick_nbrs:  # v and its two live neighbours form a triangle
                high = pick_nbrs ^ low
                # pendant at the third when one of the two has no other live neighbour
                if low_nbrs.bit_count() == 2:
                    pick_nbrs, triangle = low, True
                elif (adj[high.bit_length() - 1] & live).bit_count() == 2:
                    pick_nbrs, triangle = high, True
        for w in _bits(pick_nbrs):
            ruled = reach[pick] | reach[w]
            grow(live & ~ruled, size + 1)
        if least == 1:
            if (live & ruled).bit_count() > 3:  # w has two other live neighbours
                grow(live & ~((1 << pick) | pick_nbrs), size)
        elif not triangle and reach[pick] != 1 << pick:  # a largest matching matches v
            grow(live ^ (1 << pick), size)

    grow((1 << n) - 1, 0)
    return best


def matching_number(g: Graph) -> int:
    """Maximum size of a set of pairwise vertex-disjoint edges (exact):
    a chosen edge rules out its two ends."""
    _check_size(g)
    return _largest_matching(g, [1 << v for v in range(g.vertex_count)])


def induced_matching_number(g: Graph) -> int:
    """Maximum matching whose edges are also pairwise unjoined by any edge
    (exact): a chosen edge rules out its ends and all their neighbours."""
    _check_size(g)
    return _largest_matching(
        g, [mask | 1 << v for v, mask in enumerate(g.neighbour_masks)]
    )


# ---------------------------------------------------------------------------
# recognition
# ---------------------------------------------------------------------------

def is_star(g: Graph) -> bool:
    """True for K_{1,r}, r >= 0: n - 1 edges and a vertex adjacent to every
    other, which then lies on every edge.  K_1 is the star K_{1,0}."""
    n = g.vertex_count
    return len(g.edges) == n - 1 and max(mask.bit_count() for mask in g.neighbour_masks) == n - 1


def is_star_triangle(g: Graph) -> bool:
    """True for a bouquet of triangles glued at one shared vertex.

    Characterization used: n >= 3, one centre is adjacent to every other
    vertex, and every other vertex has degree 2, so its one edge avoiding
    the centre matches it to another: those edges form a perfect matching,
    each pair closing a triangle through the centre.  A single triangle
    is the one-triangle case.
    """
    n = g.vertex_count
    degrees = sorted(mask.bit_count() for mask in g.neighbour_masks)
    return n >= 3 and degrees[-1] == n - 1 and all(d == 2 for d in degrees[:-1])


def not_cw_reason(g: Graph, m: int, im: int) -> str:
    """Why g, with matching number m and induced matching number im, is not
    Cameron-Walker: "disconnected", "m≠im", "star" or "star triangle",
    the first that applies; "" when it is Cameron-Walker."""
    if not is_connected(g):
        return "disconnected"
    if m != im:
        return "m≠im"
    if is_star(g):
        return "star"
    if is_star_triangle(g):
        return "star triangle"
    return ""


def is_cameron_walker(g: Graph) -> bool:
    """Connected, matching number equals induced matching number, and
    neither a star nor a star triangle."""
    if not is_connected(g):
        return False
    return not not_cw_reason(g, matching_number(g), induced_matching_number(g))


# ---------------------------------------------------------------------------
# skeletons and construction
# ---------------------------------------------------------------------------

class CwStructure(namedtuple("CwStructure", "m p s t")):
    """Skeleton of a Cameron-Walker graph.

    m, p are the bipartite part sizes; s[i] >= 1 counts the leaves on u_i;
    t[j] >= 0 counts the pendant triangles on v_j.  The built graph has
    m + p + sum(s) + 2 sum(t) vertices and mp + sum(s) + 3 sum(t) edges.
    s and t are kept as tuples, whatever sequences are passed.
    """

    __slots__ = ()

    def __new__(cls, m: int, p: int, s: tuple[int, ...], t: tuple[int, ...]) -> CwStructure:
        return cls._make((m, p, s, t))

    @classmethod
    def _make(cls, fields) -> CwStructure:
        m, p, s, t = fields
        s, t = tuple(s), tuple(t)
        if m < 1 or p < 1:
            raise ValueError("both bipartite parts need at least one vertex")
        if len(s) != m:
            raise ValueError(f"need {m} leaf counts, got {len(s)}")
        if len(t) != p:
            raise ValueError(f"need {p} triangle counts, got {len(t)}")
        if any(si < 1 for si in s):
            raise ValueError("every u-vertex needs at least one leaf (s_i >= 1)")
        if any(tj < 0 for tj in t):
            raise ValueError("triangle counts must be nonnegative")
        return tuple.__new__(cls, (m, p, s, t))

    @property
    def vertex_count(self) -> int:
        return self.m + self.p + sum(self.s) + 2 * sum(self.t)

    @property
    def edge_count(self) -> int:
        return self.m * self.p + sum(self.s) + 3 * sum(self.t)


def build_graph(cw: CwStructure) -> Graph:
    """Materialize a skeleton as an explicit graph.

    The bipartite core is the complete bipartite graph K_{m,p} (any
    connected core would do; the complete one guarantees connectivity with
    no case analysis).  Vertex labels: u-vertices 0..m-1, v-vertices
    m..m+p-1, then the leaves grouped by u_i in index order, then the
    triangle vertex pairs grouped by v_j.
    """
    m, p = cw.m, cw.p
    edges: list[tuple[int, int]] = [(ui, vj) for ui in range(m) for vj in range(m, m + p)]
    nxt = m + p
    for i in range(m):
        for _ in range(cw.s[i]):
            edges.append((i, nxt))
            nxt += 1
    for j in range(p):
        vj = m + j
        for _ in range(cw.t[j]):
            w0, w1 = nxt, nxt + 1
            edges.extend([(vj, w0), (vj, w1), (w0, w1)])
            nxt += 2
    return Graph(nxt, edges)


def structure_vertex_names(cw: CwStructure) -> list[str]:
    """Human-readable labels matching build_graph's vertex numbering:
    u0.., v0.., leaves l0.., triangle vertices w0.. in construction order."""
    names = [f"u{i}" for i in range(cw.m)] + [f"v{j}" for j in range(cw.p)]
    names += [f"l{i}" for i in range(sum(cw.s))]
    names += [f"w{i}" for i in range(2 * sum(cw.t))]
    return names


# ---------------------------------------------------------------------------
# edge ideal generators
# ---------------------------------------------------------------------------

def edge_ideal_generators(g: Graph, names: list[str]) -> list[tuple[str, str]]:
    """One generator per edge as a label pair, endpoints in label order,
    the list sorted lexicographically.  names labels the vertices, one each."""
    if len(names) != g.vertex_count:
        raise ValueError(
            f"got {len(names)} labels for {g.vertex_count} vertices"
        )
    gens = [tuple(sorted((names[u], names[v]))) for u, v in g.edges]
    return sorted(gens)


# ---------------------------------------------------------------------------
# realization of (depth, dim) points
# ---------------------------------------------------------------------------

class RealizationKind(Enum):
    CM_DIAGONAL = "CM_diagonal"
    DEPTH2_DIM_N_MINUS_2 = "depth2_dim_n_minus_2"
    DEPTH2_DIM_N_MINUS_3 = "depth2_dim_n_minus_3"
    DEPTH2_DIM_HALF = "depth2_dim_half"
    UNSUPPORTED = "unsupported"


class RealizationResult(namedtuple("RealizationResult", "kind structure")):
    """A RealizationKind and its CwStructure, which is None exactly when the
    kind is UNSUPPORTED."""

    __slots__ = ()

    def __new__(cls, kind: RealizationKind, structure: CwStructure | None) -> RealizationResult:
        return cls._make((kind, structure))

    @classmethod
    def _make(cls, fields) -> RealizationResult:
        kind, structure = fields
        if (structure is None) != (kind is RealizationKind.UNSUPPORTED):
            raise ValueError("structure must be present exactly when supported")
        return tuple.__new__(cls, (kind, structure))


def realize(n: int, point: tuple[int, int]) -> RealizationResult:
    """Produce a skeleton on n vertices achieving the (depth, dim) point.

    Supported points and canonical skeletons:

    * (b, b) with 3b > n and 2b < n: the Cohen-Macaulay skeleton with
      m = 3b - n, p = n - 2b and every s_i = t_j = 1 (so the bipartite part
      has exactly b vertices and 2m + 3p = n).
    * (2, n-2): m = 2, p = 1, no triangles, leaves split as evenly as
      possible (the point only forces m = 2 and t = 0; p = 1 and the
      balanced split are canonical tie-breaks).
    * (2, n-3): m = p = 1, one triangle, n - 4 leaves.
    * (2, (n-1)/2) for odd n >= 7: m = p = 1, one leaf, (n-3)/2 triangles.

    At n = 5 the point (2, 2) is simultaneously diagonal and depth-2; the
    diagonal (Cohen-Macaulay) skeleton is returned.  Any other point,
    including the whole staircase block, is reported unsupported: no
    structural characterization of its realizing graphs is implemented.
    Raises TypeError unless n, depth and dim are ints, DomainError for
    n < 5 and ArityMismatchError unless point is a pair.
    """
    require_int(n)
    if n < 5:
        raise DomainError(f"realization needs n >= 5, got {n}")
    if len(point) != 2:
        raise ArityMismatchError(f"expected a (depth, dim) pair, got {point!r}")
    a, b = point
    require_int(a, "depth")
    require_int(b, "dim")
    if a == b and 3 * b > n and 2 * b < n:
        m, p = 3 * b - n, n - 2 * b
        return RealizationResult(
            RealizationKind.CM_DIAGONAL, CwStructure(m, p, (1,) * m, (1,) * p)
        )
    if a == 2 and b == n - 2:
        hi, lo = (n - 2) // 2, (n - 3) // 2
        return RealizationResult(
            RealizationKind.DEPTH2_DIM_N_MINUS_2, CwStructure(2, 1, (hi, lo), (0,))
        )
    if a == 2 and b == n - 3:
        return RealizationResult(
            RealizationKind.DEPTH2_DIM_N_MINUS_3, CwStructure(1, 1, (n - 4,), (1,))
        )
    if a == 2 and n % 2 == 1 and 2 * b == n - 1:
        return RealizationResult(
            RealizationKind.DEPTH2_DIM_HALF, CwStructure(1, 1, (1,), ((n - 3) // 2,))
        )
    return RealizationResult(RealizationKind.UNSUPPORTED, None)


# ---------------------------------------------------------------------------
# edge-list text format
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> tuple[Graph, list[str]]:
    """Parse edge-list text into a graph plus the vertex labels.

    Format: UTF-8, one edge per line as two whitespace-separated vertex
    tokens; lines starting with '#' and blank lines are ignored.  Vertices
    are numbered in first-appearance order; duplicate edges collapse; a
    loop line is an error.
    """
    index: dict[str, int] = {}
    edges = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != 2:
            raise EdgeListParseError(
                f"expected two vertex tokens, got {len(tokens)}", line=lineno
            )
        a, b = tokens
        if a == b:
            raise EdgeListParseError(f"loop edge at vertex {a!r}", line=lineno)
        edges.add((index.setdefault(a, len(index)), index.setdefault(b, len(index))))
    if not index:
        raise EdgeListParseError("no edges found in input")
    return Graph(len(index), edges), list(index)


def format_edge_list(g: Graph, names: list[str]) -> str:
    """Canonical edge-list emission: per-line tokens in label order, lines
    sorted lexicographically, trailing newline."""
    return "".join(f"{a} {b}\n" for a, b in edge_ideal_generators(g, names))
