"""NamedSet hashes by identity: the contract every dict keyed by a set relies on.

The checks use plain asserts and no pytest, so the file also runs as a
script on a Python without pytest installed:

    PYTHONPATH=src python tests/test_named_set_hash.py
"""

import copy
import pickle

from cwlattice import NamedSet, sets
from cwlattice.formulas import SIZE_BY_SET


def test_a_member_found_by_value_is_the_member_and_hashes_alike():
    assert len(NamedSet) == 12
    for member in NamedSet:
        by_value = NamedSet(member.value)
        assert by_value is member
        assert hash(by_value) == hash(member) == object.__hash__(member)
        assert by_value == member


def test_pickle_and_deepcopy_return_the_member():
    for member in NamedSet:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(member, protocol)) is member
        assert copy.deepcopy(member) is member
        assert copy.copy(member) is member
        twin = pickle.loads(pickle.dumps({member: member.value}))
        assert twin[member] == member.value


def test_registries_resolve_members_looked_up_by_value():
    registries = (sets.MASK_SOURCES, SIZE_BY_SET, sets._PREDICATES, sets.FIRST_N)
    for registry in registries:
        for member, value in registry.items():
            assert registry[NamedSet(member.value)] is value
    assert set(SIZE_BY_SET) == set(sets._PREDICATES) == set(NamedSet)


def test_row_table_resolves_members_looked_up_by_value():
    table = sets.MaskTable(12)
    for member in NamedSet:
        masks = table[member]
        assert table[NamedSet(member.value)] is masks
        assert table.count(pickle.loads(pickle.dumps(member))) == SIZE_BY_SET[member](12)
    assert len(table) == len(table.counts) == 12


if __name__ == "__main__":
    checks = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for check in checks:
        check()
    print(f"{len(checks)} checks passed")
