"""Graph machinery tests: matching brute force, recognition, realization."""

import ast
import dataclasses
import importlib
import random
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cwlattice
from cwlattice import (
    ArityMismatchError,
    CwStructure,
    DomainError,
    EdgeListParseError,
    Graph,
    GraphTooLargeError,
    MAX_BRUTE_FORCE_EDGES,
    RealizationKind,
    RealizationResult,
    build_graph,
    cw_matching_number,
    edge_ideal_generators,
    enumerate_cwdd_a,
    enumerate_cwdd_b,
    enumerate_cwdd_c,
    format_edge_list,
    graphs,
    induced_matching_number,
    is_cameron_walker,
    is_connected,
    is_star,
    is_star_triangle,
    matching_number,
    not_cw_reason,
    parse_edge_list,
    realize,
    structure_vertex_names,
)

from conftest import CHORDED_HEXAGON_EDGES


# ---------------------------------------------------------------------------
# subset-enumeration oracles (exponential, for tiny graphs only)
# ---------------------------------------------------------------------------

def oracle_matching(g: Graph) -> int:
    edges = sorted(g.edges)
    best = 0
    for r in range(len(edges), 0, -1):
        if r <= best:
            break
        for combo in combinations(edges, r):
            used = [v for e in combo for v in e]
            if len(used) == len(set(used)):
                best = max(best, r)
                break
    return best


def oracle_induced_matching(g: Graph) -> int:
    edges = sorted(g.edges)
    best = 0
    for r in range(len(edges), 0, -1):
        if r <= best:
            break
        for combo in combinations(edges, r):
            used = [v for e in combo for v in e]
            if len(used) != len(set(used)):
                continue
            joined = any(
                (min(s, t), max(s, t)) in g.edges
                for e, f in combinations(combo, 2)
                for s in e
                for t in f
            )
            if not joined:
                best = max(best, r)
                break
    return best


def oracle_by_subsets(g: Graph, induced: bool) -> int:
    """The most edges chosen in G[S] by a recursion on the lowest vertex v
    of S: f(S) = max(f(S - v), 1 + f(S - out(v, w)) for each neighbour w
    of v in S), where out(v, w) is {v, w} for a matching and N[v] | N[w]
    for an induced matching.  No pick rule, no bound, no exchange rule."""
    nbrs = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    out = [1 << v | (sum(1 << w for w in nbrs[v]) if induced else 0)
           for v in range(g.vertex_count)]
    memo = {0: 0}

    def f(s: int) -> int:
        if s not in memo:
            v = (s & -s).bit_length() - 1
            memo[s] = max([f(s ^ 1 << v)] + [1 + f(s & ~(out[v] | out[w]))
                                             for w in nbrs[v] if s >> w & 1])
        return memo[s]

    return f((1 << g.vertex_count) - 1)


# ---------------------------------------------------------------------------
# Graph basics
# ---------------------------------------------------------------------------

def test_from_edges_normalizes_and_deduplicates():
    assert Graph(3, [(1, 0), (0, 1), (1, 2)]).edges == frozenset({(0, 1), (1, 2)})


def test_from_edges_rejects_loops_and_bad_vertices():
    for n, edges, message in [(3, [(1, 1)], "loop edge at vertex 1"),
                              (2, [(2, 0)], r"bad edge \(0, 2\) for 2 vertices"),
                              (2, [(-1, 1)], r"bad edge \(-1, 1\) for 2 vertices"),
                              (0, [], "a graph needs at least one vertex")]:
        with pytest.raises(ValueError, match=message):
            Graph(n, edges)


def test_neighbour_masks_are_built_on_first_use_and_are_not_a_field():
    g = Graph(4, frozenset({(0, 1), (1, 2), (1, 3)}))
    assert "neighbour_masks" not in vars(g)
    assert g.neighbour_masks == (0b0010, 0b1101, 0b0010, 0b0010)
    assert vars(g)["neighbour_masks"] is g.neighbour_masks
    assert "neighbour_masks" not in {field.name for field in dataclasses.fields(Graph)}
    assert "neighbour_masks" not in repr(g)
    twin = Graph(4, [(3, 1), (2, 1), (1, 0)])
    assert twin == g and hash(twin) == hash(g)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.neighbour_masks = ()
    assert Graph(3, frozenset()).neighbour_masks == (0, 0, 0)
    # writing a graph out, as ideal and realize --emit-graph do, builds none
    parsed, names = parse_edge_list("a b\nb c\n")
    cw = CwStructure(1, 1, (1,), (1,))
    built = build_graph(cw)
    format_edge_list(parsed, names)
    format_edge_list(built, structure_vertex_names(cw))
    assert "neighbour_masks" not in vars(parsed) and "neighbour_masks" not in vars(built)


def test_graph_is_the_only_dataclass_among_the_public_names():
    # a dataclass writes and compiles its methods at every import, so the
    # records are named tuples; Graph's cached neighbour_masks is kept in an
    # instance dict, which their empty __slots__ leave out
    package = Path(graphs.__file__).parent
    modules = [cwlattice] + [importlib.import_module(f"cwlattice.{path.stem}")
                             for path in package.glob("*.py") if not path.stem.startswith("_")]
    found = {name for module in modules for name, value in vars(module).items()
             if not name.startswith("_") and dataclasses.is_dataclass(value)}
    assert found == {"Graph"}


def test_graphs_imports_only_errors_and_private_require_int_is_gone():
    # the graph half stays independent of the lattice half: graphs.py takes
    # nothing from the package but errors, whose int check every module shares
    package = Path(graphs.__file__).parent
    tree = ast.parse((package / "graphs.py").read_text("utf-8"))
    imported = [(node.level, node.module) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"]
    assert [module for level, module in imported if level] == ["errors"]
    assert all(level or not module.startswith("cwlattice") for level, module in imported)
    assert not any(isinstance(node, ast.Import) and any(
        alias.name.startswith("cwlattice") for alias in node.names) for node in ast.walk(tree))
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            # a def's and an imported alias's name, a Name's id, an attribute
            names = {getattr(node, key, None) for key in ("name", "id", "attr")}
            assert "_require_int" not in names, (path.name, getattr(node, "lineno", None))


def test_connectivity():
    assert is_connected(Graph(1, []))
    assert not is_connected(Graph(2, []))
    assert is_connected(Graph(3, [(0, 1), (1, 2)]))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))


# ---------------------------------------------------------------------------
# matching numbers
# ---------------------------------------------------------------------------

def test_matching_examples(chorded_hexagon):
    assert matching_number(chorded_hexagon) == 3
    assert induced_matching_number(chorded_hexagon) == 2
    single = Graph(2, [(0, 1)])
    assert matching_number(single) == 1
    assert induced_matching_number(single) == 1
    star4 = Graph(5, [(0, i) for i in range(1, 5)])
    assert matching_number(star4) == 1
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert induced_matching_number(p4) == 1
    assert matching_number(p4) == 2


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs), max_size=9))
    return Graph(n, edges)


@given(small_graphs())
@example(Graph(6, [(0, 1), (2, 3), (4, 5)]))
@example(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]))
@example(Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
@example(Graph(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6)]))
@settings(max_examples=120, deadline=None)
def test_matching_matches_subset_oracle(g):
    m = matching_number(g)
    im = induced_matching_number(g)
    assert m == oracle_matching(g)
    assert im == oracle_induced_matching(g)
    assert im <= m <= g.vertex_count // 2


def test_matching_matches_subset_oracle_up_to_14_edges():
    rng = random.Random(20051)
    for _ in range(120):
        n = rng.randint(4, 16)
        pairs = list(combinations(range(n), 2))
        g = Graph(n, rng.sample(pairs, rng.randint(1, min(14, len(pairs)))))
        assert matching_number(g) == oracle_matching(g)
        assert induced_matching_number(g) == oracle_induced_matching(g)


def test_matching_numbers_at_the_cap():
    cycle = Graph(31, [(i, (i + 1) % 31) for i in range(31)])
    assert (matching_number(cycle), induced_matching_number(cycle)) == (15, 10)
    path = Graph(33, [(i, i + 1) for i in range(32)])
    assert (matching_number(path), induced_matching_number(path)) == (16, 11)
    cw = CwStructure(2, 2, (3, 4), (3, 4))
    skeleton = build_graph(cw)
    assert len(skeleton.edges) == MAX_BRUTE_FORCE_EDGES
    nu = cw.m + sum(cw.t)
    assert (matching_number(skeleton), induced_matching_number(skeleton)) == (nu, nu)
    # a forest: a comb (spine 0..15, tooth 16 + i on spine vertex i) and one
    # more edge; every tooth is a leaf, so the search matches it outright
    comb = [(i, i + 1) for i in range(15)] + [(i, 16 + i) for i in range(16)]
    forest = Graph(34, comb + [(32, 33)])
    assert len(forest.edges) == MAX_BRUTE_FORCE_EDGES
    assert (matching_number(forest), induced_matching_number(forest)) == (17, 9)


def test_leaf_rule_examples():
    # the search takes a leaf's edge, and also tries dropping both its ends
    # when the leaf's neighbour has two other live neighbours: here 1 has
    # 2 and 3, and taking 0-1 outright would give im = 1
    spider = Graph(6, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 5)])
    assert (matching_number(spider), induced_matching_number(spider)) == (3, 2)
    edge_and_square = Graph(6, [(0, 1), (2, 3), (3, 4), (4, 5), (2, 5)])
    assert (matching_number(edge_and_square), induced_matching_number(edge_and_square)) == (3, 2)
    stars = Graph(40, [(5 * s, 5 * s + j) for s in range(8) for j in range(1, 5)])
    assert len(stars.edges) == MAX_BRUTE_FORCE_EDGES
    assert (matching_number(stars), induced_matching_number(stars)) == (8, 8)


def test_pendant_triangle_rule_examples():
    # v = 0 and w = 1 have live neighbourhoods {w, z} and {v, z}, z = 2: the
    # search takes vw alone, in both searches
    def numbers(edges):
        g = Graph(1 + max(v for e in edges for v in e), edges)
        assert matching_number(g) == oracle_by_subsets(g, False)
        assert induced_matching_number(g) == oracle_by_subsets(g, True)
        return matching_number(g), induced_matching_number(g)

    triangle = [(0, 1), (0, 2), (1, 2)]
    assert numbers(triangle) == (1, 1)
    # z has one other live neighbour, 3, which carries a second pendant
    # triangle 3-4-5; no vertex is a leaf, so the search picks 0 first
    assert numbers(triangle + [(2, 3), (3, 4), (3, 5), (4, 5)]) == (3, 2)
    # three triangles in a chain, 0-1-2, 2-3-6 and 3-4-5: z has two other
    # live neighbours, 3 and 6, and the largest induced matching {2-6, 4-5}
    # matches z outward; swapping 2-6 for 0-1, which rules out only 0, 1
    # and 2, keeps it induced
    chain = triangle + [(2, 3), (2, 6), (3, 6), (3, 4), (3, 5), (4, 5)]
    assert numbers(chain) == (3, 2)
    outward = Graph(7, [e for e in chain if not {0, 1, 2, 3, 6} & set(e)])
    assert 1 + oracle_by_subsets(outward, True) == 2


def _triangle_edges(rng):
    """A random connected graph on at most 8 vertices and 1-4 pendant
    triangles hung on its vertices, at most 32 edges, and the triangles."""
    n = rng.randint(1, 8)
    edges = {(rng.randrange(v), v) for v in range(1, n)}  # a spanning tree
    extra = sorted(set(combinations(range(n), 2)) - edges)
    edges = sorted(edges | set(rng.sample(extra, rng.randint(0, min(len(extra), 12)))))
    triangles = []
    for _ in range(rng.randint(1, 4)):
        z, v, w = rng.randrange(n), n + 2 * len(triangles), n + 2 * len(triangles) + 1
        edges += [(z, v), (z, w), (v, w)]
        triangles.append((v, w, z))
    return edges, triangles


def test_matching_numbers_match_the_subset_recursion_with_pendant_triangles():
    rng = random.Random(2005)
    for _ in range(300):
        edges, triangles = _triangle_edges(rng)
        n = 1 + max(v for e in edges for v in e)
        label = rng.sample(range(n), n)  # so the search meets v, w and z in any order
        g = Graph(n, [(label[u], label[v]) for u, v in edges])
        assert len(g.edges) <= MAX_BRUTE_FORCE_EDGES
        m, im = oracle_by_subsets(g, False), oracle_by_subsets(g, True)
        assert (matching_number(g), induced_matching_number(g)) == (m, im), sorted(g.edges)
        for v, w, z in triangles:
            # the swap: some largest matching of either kind takes vw
            ends = {label[v], label[w]}
            rest = Graph(n, frozenset(e for e in g.edges if not ends & set(e)))
            assert 1 + oracle_by_subsets(rest, False) == m
            ends.add(label[z])
            rest = Graph(n, frozenset(e for e in g.edges if not ends & set(e)))
            assert 1 + oracle_by_subsets(rest, True) == im


def _leafy_edges(rng):
    """The edges of a random forest, caterpillar or spider, at most 14."""
    shape = rng.choice(("forest", "caterpillar", "spider"))
    if shape == "forest":  # a vertex starts a new tree with probability 1/5
        return [(rng.randrange(v), v) for v in range(1, rng.randint(2, 15))
                if rng.random() < 0.8]
    if shape == "caterpillar":
        spine = rng.randint(1, 6)
        edges = [(v, v + 1) for v in range(spine - 1)]
        return edges + [(rng.randrange(spine), v)
                        for v in range(spine, spine + rng.randint(1, 15 - spine))]
    edges, nxt = [], 1
    while nxt < 14:
        length = rng.randint(1, min(4, 15 - nxt))
        edges += [(0 if step == 0 else nxt + step - 1, nxt + step) for step in range(length)]
        nxt += length
        if rng.random() < 0.25:
            break
    return edges


def test_matching_matches_subset_oracle_on_leafy_graphs():
    rng = random.Random(1505)
    for _ in range(200):
        edges = _leafy_edges(rng)
        n = 1 + max((v for e in edges for v in e), default=0)
        label = rng.sample(range(n), n)  # so the search meets leaves in any order
        g = Graph(n, [(label[u], label[v]) for u, v in edges])
        assert len(g.edges) <= 14
        assert matching_number(g) == oracle_matching(g), sorted(g.edges)
        assert induced_matching_number(g) == oracle_induced_matching(g), sorted(g.edges)


def _every_graph(n: int):
    """Every labelled graph on the vertices 0 .. n - 1."""
    pairs = list(combinations(range(n), 2))
    for chosen in range(1 << len(pairs)):
        yield Graph(n, [pair for i, pair in enumerate(pairs) if chosen >> i & 1])


def test_matching_numbers_match_the_subset_recursion_on_every_graph_up_to_6_vertices():
    count = 0
    for n in range(1, 7):
        for g in _every_graph(n):
            assert matching_number(g) == oracle_by_subsets(g, False), sorted(g.edges)
            assert induced_matching_number(g) == oracle_by_subsets(g, True), sorted(g.edges)
            count += 1
    assert count == 33867


def test_matching_numbers_match_the_subset_recursion_at_the_cap():
    rng = random.Random(3332)
    for _ in range(100):
        n = rng.randint(16, 33)
        edges = {(rng.randrange(v), v) for v in range(1, n)}  # a spanning tree
        edges |= set(rng.sample(sorted(set(combinations(range(n), 2)) - edges),
                                MAX_BRUTE_FORCE_EDGES - len(edges)))
        label = rng.sample(range(n), n)  # so the search meets vertices in any order
        g = Graph(n, [(label[u], label[v]) for u, v in edges])
        assert is_connected(g) and len(g.edges) == MAX_BRUTE_FORCE_EDGES
        assert matching_number(g) == oracle_by_subsets(g, False), sorted(g.edges)
        assert induced_matching_number(g) == oracle_by_subsets(g, True), sorted(g.edges)


def _search_calls(number, g: Graph) -> int:
    """The calls of _largest_matching's nested grow, the root call included,
    that number(g) makes."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "grow":
            calls += 1

    sys.setprofile(profile)
    try:
        number(g)
    finally:
        sys.setprofile(None)
    return calls


def test_search_calls_on_the_golden_graphs_and_sparse_graphs():
    # exact counts, so a change that slows the search but keeps every value
    # fails here, such as a post-scan prune that needs both of its tests
    # (`and` for `or`), a matching search that also drops v (`2 << pick`
    # in the drop test) or a search without the pendant-triangle rule; the
    # sparse graphs show the first two, the skeletons and the triangle on a
    # cycle the third
    data = Path(__file__).resolve().parent / "data"
    # (graph, (matching, induced) values, (matching, induced) calls)
    cases = [
        (parse_edge_list((data / f"{name}.edges").read_text(encoding="utf-8"))[0], values, calls)
        for name, values, calls in [("triangles-22", (8, 8), (9, 13)),
                                    ("triangles-23", (8, 8), (9, 14)),
                                    ("cycle-31", (15, 10), (17, 30))]]
    # v, w = 0, 1 come first, so the search picks v before any cycle vertex
    triangle_on_cycle = Graph(
        31, [(0, 1), (0, 2), (1, 2)] + [(2 + i, 2 + (i + 1) % 29) for i in range(29)])
    cases += [(Graph(33, [(i, i + 1) for i in range(32)]), (16, 11), (17, 12)),
              (triangle_on_cycle, (15, 10), (17, 11)),
              (build_graph(realize(20, (7, 7)).structure), (7, 7), (8, 12))]
    rng = random.Random(7)
    for values, calls in [((6, 4), (7, 16)), ((7, 3), (10, 36)), ((6, 4), (10, 18)),
                          ((8, 4), (12, 46)), ((6, 3), (7, 16)), ((11, 6), (12, 30))]:
        n = rng.randint(12, 24)
        edges = {(rng.randrange(v), v) for v in range(1, n)}  # a spanning tree
        extra = rng.randint(0, MAX_BRUTE_FORCE_EDGES - len(edges))
        edges |= set(rng.sample(sorted(set(combinations(range(n), 2)) - edges), extra))
        cases.append((Graph(n, edges), values, calls))
    for g, values, calls in cases:
        assert len(g.edges) <= MAX_BRUTE_FORCE_EDGES and is_connected(g)
        assert (_search_calls(matching_number, g),
                _search_calls(induced_matching_number, g)) == calls, sorted(g.edges)
        assert (matching_number(g), induced_matching_number(g)) == values, sorted(g.edges)


def test_matching_size_cap():
    g = Graph(34, [(i, i + 1) for i in range(33)])
    assert len(g.edges) == MAX_BRUTE_FORCE_EDGES + 1
    with pytest.raises(GraphTooLargeError):
        matching_number(g)
    with pytest.raises(GraphTooLargeError):
        induced_matching_number(g)
    with pytest.raises(GraphTooLargeError):
        cw_matching_number(g)
    with pytest.raises(GraphTooLargeError):
        is_cameron_walker(g)


# ---------------------------------------------------------------------------
# recognition
# ---------------------------------------------------------------------------

def test_star_and_star_triangle_shapes():
    star4 = Graph(5, [(0, i) for i in range(1, 5)])
    assert is_star(star4)
    assert not is_star_triangle(star4)
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert is_star_triangle(triangle)
    assert not is_star(triangle)
    # two triangles glued at vertex 0
    bouquet = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    assert is_star_triangle(bouquet)
    # triangle with one extra leaf is neither
    lollipop = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert not is_star(lollipop)
    assert not is_star_triangle(lollipop)


def test_one_vertex_graph_is_the_star_k_1_0():
    k1 = Graph(1, frozenset())
    assert is_connected(k1) and is_star(k1) and not is_star_triangle(k1)
    assert not_cw_reason(k1, matching_number(k1), induced_matching_number(k1)) == "star"
    assert not is_cameron_walker(k1)


def oracle_connected(g: Graph) -> bool:
    adj = {v: set() for v in range(g.vertex_count)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, queue = {0}, [0]
    for u in queue:
        for w in adj[u] - seen:
            seen.add(w)
            queue.append(w)
    return len(seen) == g.vertex_count


def oracle_star(g: Graph) -> bool:
    return oracle_connected(g) and any(
        all(c in edge for edge in g.edges) for c in range(g.vertex_count))


def oracle_star_triangle(g: Graph) -> bool:
    for c in range(g.vertex_count):
        if any(tuple(sorted((c, v))) not in g.edges for v in range(g.vertex_count) if v != c):
            continue
        matching = [edge for edge in g.edges if c not in edge]
        covered = sorted(v for edge in matching for v in edge)
        if matching and covered == [v for v in range(g.vertex_count) if v != c]:
            return True
    return False


def _graphs_for_predicates():
    """Every labelled graph on 1..5 vertices, then 2,000 seeded graphs on 6..9
    vertices: a third drawn edge by edge, the rest stars and bouquets of
    triangles, relabelled, half of them with one vertex pair toggled."""
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            yield Graph(n, [pair for i, pair in enumerate(pairs) if bits >> i & 1])
    rng = random.Random(20240607)
    for index in range(2000):
        n = rng.randint(6, 9)
        if index % 3 == 0:
            density = rng.random()
            edges = {pair for pair in combinations(range(n), 2) if rng.random() < density}
        else:
            edges = {(0, v) for v in range(1, n)}
            if index % 3 == 2:
                edges |= {(v, v + 1) for v in range(1, n - 1, 2)}
            label = rng.sample(range(n), n)
            edges = {tuple(sorted((label[u], label[v]))) for u, v in edges}
            if rng.random() < 0.5:
                edges ^= {tuple(sorted(rng.sample(range(n), 2)))}
        yield Graph(n, edges)


def test_connectivity_and_star_tests_match_definitional_oracles():
    seen = {"connected": 0, "star": 0, "star triangle": 0}
    for g in _graphs_for_predicates():
        connected, star, star_triangle = is_connected(g), is_star(g), is_star_triangle(g)
        assert connected == oracle_connected(g), g
        assert star == oracle_star(g), g
        assert star_triangle == oracle_star_triangle(g), g
        seen["connected"] += connected
        seen["star"] += star
        seen["star triangle"] += star_triangle and g.vertex_count > 5
    assert min(seen.values()) > 100, seen


def test_is_cameron_walker_examples(chorded_hexagon):
    assert is_cameron_walker(build_graph(CwStructure(1, 1, (1,), (1,))))
    assert not is_cameron_walker(Graph(5, [(0, i) for i in range(1, 5)]))
    assert not is_cameron_walker(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert not is_cameron_walker(chorded_hexagon)  # m=3 vs im=2
    assert not is_cameron_walker(Graph(4, [(0, 1), (2, 3)]))  # disconnected


def test_disconnected_graph_over_the_search_cap_is_not_cw_without_a_search():
    # two 17-edge paths on vertices 0-17 and 18-35, and four isolated vertices
    edges = [(i, i + 1) for start in (0, 18) for i in range(start, start + 17)]
    g = Graph(40, edges)
    assert len(g.edges) == 34 > MAX_BRUTE_FORCE_EDGES
    assert not is_cameron_walker(g)
    with pytest.raises(GraphTooLargeError):
        matching_number(g)


def oracle_cw(g: Graph) -> int | None:
    """m(G) when G is Cameron-Walker by the definition, None otherwise:
    connected, neither a star nor a star triangle, and m = im by the searches."""
    if not is_connected(g) or is_star(g) or is_star_triangle(g):
        return None
    m = matching_number(g)
    return m if m == induced_matching_number(g) else None


def _assert_structural_test_matches_the_definition(g: Graph) -> bool:
    """Assert that cw_matching_number and is_cameron_walker agree with the
    definition on g; return whether g is Cameron-Walker."""
    value = oracle_cw(g)
    assert cw_matching_number(g) == value, sorted(g.edges)
    assert is_cameron_walker(g) == (value is not None), sorted(g.edges)
    return value is not None


def test_structural_test_matches_the_definition_on_every_graph_up_to_6_vertices():
    accepted = sum(_assert_structural_test_matches_the_definition(g)
                   for n in range(1, 7) for g in _every_graph(n))
    assert accepted == 840


@pytest.mark.exhaustive
def test_structural_test_matches_the_definition_on_every_graph_on_7_vertices():
    accepted = sum(map(_assert_structural_test_matches_the_definition, _every_graph(7)))
    assert accepted == 6300


@st.composite
def skeleton_graphs(draw):
    """A relabelled Cameron-Walker skeleton on a random connected bipartite
    core, as built or with one edge added or removed."""
    m, p = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    core_u, core_v = [0], [m]
    edges = {(0, m)}
    for x in draw(st.permutations(list(range(1, m)) + list(range(m + 1, m + p)))):
        # each core vertex joins an earlier one on the other side: a spanning tree
        side, other = (core_u, core_v) if x < m else (core_v, core_u)
        edges.add((x, draw(st.sampled_from(other))))
        side.append(x)
    edges |= draw(st.sets(st.sampled_from([(u, v) for u in range(m) for v in range(m, m + p)])))
    n = m + p
    for u in range(m):
        for _ in range(draw(st.integers(1, 3))):
            edges.add((u, n))
            n += 1
    for v in range(m, m + p):
        for _ in range(draw(st.integers(0, 2))):
            edges |= {(v, n), (v, n + 1), (n, n + 1)}
            n += 2
    label = draw(st.permutations(range(n)))
    edges = {tuple(sorted((label[a], label[b]))) for a, b in edges}
    change = draw(st.sampled_from(["none", "add", "remove"]))
    if change == "add" and len(edges) < n * (n - 1) // 2:
        edges.add(draw(st.sampled_from(sorted(set(combinations(range(n), 2)) - edges))))
    elif change == "remove":
        edges.remove(draw(st.sampled_from(sorted(edges))))
    assume(len(edges) <= MAX_BRUTE_FORCE_EDGES)
    return Graph(n, edges)


@st.composite
def sparse_graphs(draw):
    """A graph on 2..16 vertices with at most n + 4 edges, connected or not."""
    n = draw(st.integers(2, 16))
    pairs = list(combinations(range(n), 2))
    return Graph(n, draw(st.sets(st.sampled_from(pairs), max_size=n + 4)))


@given(st.one_of(skeleton_graphs(), sparse_graphs()))
@example(build_graph(CwStructure(1, 1, (1,), (1,))))  # the smallest with a triangle
@settings(max_examples=300, deadline=None)
def test_structural_test_matches_the_definition_on_skeletons_and_sparse_graphs(g):
    _assert_structural_test_matches_the_definition(g)


def test_not_cw_reasons(chorded_hexagon):
    def reason(g):
        return not_cw_reason(g, matching_number(g), induced_matching_number(g))

    assert reason(build_graph(CwStructure(1, 1, (1,), (1,)))) == ""
    assert reason(Graph(4, [(0, 1), (2, 3)])) == "disconnected"
    assert reason(chorded_hexagon) == "m≠im"
    assert reason(Graph(5, [(0, i) for i in range(1, 5)])) == "star"
    assert reason(Graph(3, [(0, 1), (1, 2), (0, 2)])) == "star triangle"


# ---------------------------------------------------------------------------
# skeletons
# ---------------------------------------------------------------------------

def test_build_graph_five_vertex_examples():
    g = build_graph(CwStructure(1, 1, (1,), (1,)))
    assert g.vertex_count == 5
    assert g.edges == frozenset({(0, 1), (0, 2), (1, 3), (1, 4), (3, 4)})
    g = build_graph(CwStructure(2, 1, (1, 1), (0,)))
    assert g.vertex_count == 5
    assert g.edges == frozenset({(0, 2), (1, 2), (0, 3), (1, 4)})


def test_structure_invariants_rejected():
    with pytest.raises(ValueError):
        CwStructure(1, 1, (0,), (0,))
    with pytest.raises(ValueError):
        CwStructure(0, 1, (), (0,))
    with pytest.raises(ValueError):
        CwStructure(1, 0, (1,), ())
    with pytest.raises(ValueError):
        CwStructure(2, 1, (1,), (0,))
    with pytest.raises(ValueError, match="need 2 triangle counts, got 1"):
        CwStructure(1, 2, (1,), (0,))
    with pytest.raises(ValueError):
        CwStructure(1, 1, (1,), (-1,))


def test_structure_and_realization_checks_hold_through_replace_and_make():
    cw = CwStructure(1, 1, (1,), (1,))
    for bad in ({"s": (0,)}, {"m": 2}, {"t": (1, 1)}, {"p": 0}):
        with pytest.raises(ValueError):
            cw._replace(**bad)
        with pytest.raises(ValueError):
            CwStructure._make({**cw._asdict(), **bad}.values())
    assert cw._replace(s=[2]).s == (2,) and CwStructure._make((1, 1, [1], [0])).t == (0,)
    supported = RealizationResult(RealizationKind.CM_DIAGONAL, cw)
    for bad in ({"structure": None}, {"kind": RealizationKind.UNSUPPORTED}):
        with pytest.raises(ValueError):
            supported._replace(**bad)
        with pytest.raises(ValueError):
            RealizationResult._make({**supported._asdict(), **bad}.values())


def test_realization_result_has_a_structure_exactly_when_supported():
    cw = CwStructure(1, 1, (1,), (1,))
    with pytest.raises(ValueError):
        RealizationResult(RealizationKind.UNSUPPORTED, cw)
    for kind in RealizationKind:
        if kind is not RealizationKind.UNSUPPORTED:
            with pytest.raises(ValueError):
                RealizationResult(kind, None)


@st.composite
def small_structures(draw):
    m = draw(st.integers(min_value=1, max_value=3))
    p = draw(st.integers(min_value=1, max_value=3))
    s = tuple(draw(st.integers(min_value=1, max_value=3)) for _ in range(m))
    t = tuple(draw(st.integers(min_value=0, max_value=2)) for _ in range(p))
    return CwStructure(m, p, s, t)


@given(small_structures())
@settings(max_examples=80, deadline=None)
def test_built_graphs_have_equal_matching_numbers(cw):
    g = build_graph(cw)
    if cw.vertex_count > 16:
        return
    assert g.vertex_count == cw.vertex_count
    assert is_connected(g)
    assert matching_number(g) == induced_matching_number(g)
    degenerate_star = cw.m == 1 and sum(cw.t) == 0
    assert is_cameron_walker(g) == (not degenerate_star)


# ---------------------------------------------------------------------------
# edge ideal generators
# ---------------------------------------------------------------------------

def test_edge_ideal_generators_chorded_hexagon(chorded_hexagon):
    gens = edge_ideal_generators(chorded_hexagon, list("abcdef"))
    assert gens == [
        ("a", "b"), ("a", "f"), ("b", "c"), ("b", "f"),
        ("c", "d"), ("c", "e"), ("d", "e"), ("e", "f"),
    ]
    # unordered generator set matches the edge set regardless of spelling
    assert {frozenset(g) for g in gens} == {
        frozenset(e) for e in CHORDED_HEXAGON_EDGES
    }


def test_edge_ideal_generators_needs_one_label_per_vertex():
    single = Graph(2, [(0, 1)])
    with pytest.raises(TypeError):
        edge_ideal_generators(single)
    with pytest.raises(ValueError):
        edge_ideal_generators(single, ["only-one"])
    assert edge_ideal_generators(Graph(3, []), list("abc")) == []


def test_generators_round_trip_to_edges(chorded_hexagon):
    names = list("abcdef")
    gens = edge_ideal_generators(chorded_hexagon, names)
    assert len(gens) == len(chorded_hexagon.edges)
    idx = {name: i for i, name in enumerate(names)}
    rebuilt = Graph(6, [(idx[a], idx[b]) for a, b in gens])
    assert rebuilt.edges == chorded_hexagon.edges


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------

def test_realize_examples():
    r = realize(10, (4, 4))
    assert r.kind is RealizationKind.CM_DIAGONAL
    assert (r.structure.m, r.structure.p) == (2, 2)
    assert r.structure.s == (1, 1) and r.structure.t == (1, 1)
    assert r.structure.vertex_count == 10

    r = realize(10, (2, 8))
    assert r.kind is RealizationKind.DEPTH2_DIM_N_MINUS_2
    assert (r.structure.m, r.structure.p, r.structure.s, r.structure.t) == (2, 1, (4, 3), (0,))

    r = realize(11, (2, 5))
    assert r.kind is RealizationKind.DEPTH2_DIM_HALF
    assert (r.structure.m, r.structure.p, r.structure.s, r.structure.t) == (1, 1, (1,), (4,))

    r = realize(9, (2, 6))
    assert r.kind is RealizationKind.DEPTH2_DIM_N_MINUS_3
    assert (r.structure.m, r.structure.p, r.structure.s, r.structure.t) == (1, 1, (5,), (1,))


def test_realize_prefers_diagonal_at_n5():
    r = realize(5, (2, 2))
    assert r.kind is RealizationKind.CM_DIAGONAL
    assert (r.structure.m, r.structure.p, r.structure.s, r.structure.t) == (1, 1, (1,), (1,))


def test_realize_unsupported_and_errors():
    assert realize(12, (3, 5)).kind is RealizationKind.UNSUPPORTED
    assert realize(9, (3, 3)).kind is RealizationKind.UNSUPPORTED  # 3b = n fails 3b > n
    assert realize(12, (6, 6)).kind is RealizationKind.UNSUPPORTED  # 2b = n fails 2b < n
    with pytest.raises(DomainError):
        realize(4, (2, 2))
    with pytest.raises(ArityMismatchError):
        realize(10, (2, 8, 8))


def test_realize_rejects_non_int_depth_and_dim():
    # (2.0, 3.0) once realized the depth2_dim_half skeleton at n = 7, and
    # (4, 4.0) failed deep inside on a float; both are refused up front
    with pytest.raises(TypeError, match="depth must be an int, got 2.0"):
        realize(7, (2.0, 3.0))
    with pytest.raises(TypeError, match="dim must be an int, got 4.0"):
        realize(10, (4, 4.0))
    with pytest.raises(TypeError, match="n must be an int"):
        realize(10.0, (4, 4))


def test_diagonal_window_is_exactly_component_b():
    for n in range(5, 41):
        b_points = set(enumerate_cwdd_b(n))
        for b in range(1, n + 1):
            result = realize(n, (b, b))
            if (b, b) in b_points:
                assert result.kind is RealizationKind.CM_DIAGONAL
                assert result.structure.m >= 1 and result.structure.p >= 1
                assert result.structure.vertex_count == n
            else:
                assert result.kind is RealizationKind.UNSUPPORTED


def test_realized_structures_build_cameron_walker_graphs():
    for n in range(5, 15):
        points = set(enumerate_cwdd_a(n)) | set(enumerate_cwdd_b(n))
        for point in points:
            result = realize(n, point)
            assert result.kind is not RealizationKind.UNSUPPORTED
            assert result.structure.vertex_count == n
            g = build_graph(result.structure)
            assert g.vertex_count == n
            assert len(g.edges) == result.structure.edge_count
            assert is_connected(g)
            assert matching_number(g) == induced_matching_number(g)
            assert is_cameron_walker(g)
        for point in enumerate_cwdd_c(n):
            assert realize(n, point).kind is RealizationKind.UNSUPPORTED


# ---------------------------------------------------------------------------
# edge-list text format
# ---------------------------------------------------------------------------

def test_parse_edge_list_basic():
    g, names = parse_edge_list("a b\nb c\n")
    assert g.vertex_count == 3 and len(g.edges) == 2
    assert names == ["a", "b", "c"]


def test_parse_edge_list_comments_blanks_duplicates():
    text = "# heading\n\na b\nb a\n  \nb c\n"
    g, names = parse_edge_list(text)
    assert len(g.edges) == 2
    assert names == ["a", "b", "c"]


def test_parse_edge_list_errors():
    with pytest.raises(EdgeListParseError) as info:
        parse_edge_list("a a\n")
    assert info.value.line == 1
    with pytest.raises(EdgeListParseError) as info:
        parse_edge_list("a b\nc\n")
    assert info.value.line == 2
    with pytest.raises(EdgeListParseError):
        parse_edge_list("# nothing\n")


def test_format_parse_round_trip():
    cw = CwStructure(2, 2, (1, 2), (1, 0))
    g = build_graph(cw)
    names = structure_vertex_names(cw)
    text = format_edge_list(g, names)
    assert text == format_edge_list(*parse_edge_list(text))
    reparsed, _ = parse_edge_list(text)
    assert len(reparsed.edges) == len(g.edges)
    assert reparsed.vertex_count == g.vertex_count
