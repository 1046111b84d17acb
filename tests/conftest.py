import pytest

from cwlattice import Graph

# 6-cycle a-b-c-d-e-f plus the chords bf and ce; m(G) = 3 but im(G) = 2,
# so it is connected yet not Cameron-Walker.
CHORDED_HEXAGON_NAMES = list("abcdef")
CHORDED_HEXAGON_EDGES = [
    ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
    ("e", "f"), ("f", "a"), ("b", "f"), ("c", "e"),
]


@pytest.fixture
def chorded_hexagon() -> Graph:
    idx = {name: i for i, name in enumerate(CHORDED_HEXAGON_NAMES)}
    return Graph(6, [(idx[a], idx[b]) for a, b in CHORDED_HEXAGON_EDGES])


# Faults planted in mask form: a set's table is {a: mask over b} for a pair
# set and {a: {r: mask over d}} for a tuple set (see cwlattice.sets); a
# planted point, or a prefix's mask of points, is ORed in with sets._or.

def first_mask(table: dict) -> dict:
    """The table's least prefix with its mask, as a table of its own (empty
    for an empty table): the points of the set's least prefix, which for a
    tuple set is a depth and a regularity."""
    if not table:
        return {}
    a = min(table)
    if isinstance(table[a], dict):
        r = min(table[a])
        return {a: {r: table[a][r]}}
    return {a: table[a]}


def without_point(table: dict, point: tuple) -> dict:
    """A new table without the point, (a, b) or (a, r, d, d); a mask or a
    depth left empty is dropped, as a mask source never holds 0."""
    a, *rest = point
    if len(rest) == 1:
        inner = table.get(a, 0) & ~(1 << rest[0])
    else:
        inner = without_point(table.get(a, {}), tuple(rest[:2]))
    smaller = {key: value for key, value in table.items() if key != a}
    if inner:
        smaller[a] = inner
    return smaller
