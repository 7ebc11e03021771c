"""The groups and lattices the tests sweep, defined once for every test module.

SMALL_GROUPS are the groups whose every subgroup of the plane the exhaustive sweeps visit: Z1-Z12 and the
rank-2 groups Z2^2, Z2 x Z4 and Z3^2. WIDE_GROUPS are the rank-2 and rank-3 groups whose planes have too
many subgroups (1983, 402, 2825) for the dense oracles; the split table's oracle and verify's sample sweep
them. BIG_RUNGS are the largest verify-ladder rungs.
"""

from heisenmod import FiniteAbelianGroup, MeasuredSubgroup, all_subgroups, subgroup_from_generators

SMALL_GROUPS = [FiniteAbelianGroup(orders) for orders in [(n,) for n in range(1, 13)] + [(2, 2), (2, 4), (3, 3)]]
WIDE_GROUPS = [FiniteAbelianGroup(orders) for orders in [(4, 4), (2, 6), (2, 2, 2)]]
# The largest verify-ladder rungs: Z6^2 at |Delta| = 72, Z8^2 at 64, Z80 at 160, Z96 at 96 (weight 3) and 192.
BIG_RUNGS = [
    ((6, 6), [((1, 0), (3, 3)), ((0, 1), (3, 4)), ((0, 0), (6, 0)), ((0, 0), (0, 3))], 1),
    ((8, 8), [((8, 0), (0, 0)), ((0, 1), (0, 1)), ((0, 0), (4, 0)), ((0, 0), (0, 2))], 1),
    ((80,), [((5,), (30,)), ((0,), (8,))], 1),
    ((96,), [((24,), (72,)), ((0,), (4,))], 3),
    ((96,), [((8,), (0,)), ((0,), (6,))], 1),
]


def every_subgroup(groups=SMALL_GROUPS):
    """Every subgroup of each group's plane at weight 1, in the order of all_subgroups."""
    for g in groups:
        for elems in all_subgroups(g):
            yield MeasuredSubgroup(g, elems, 1)


def big_rungs():
    """The big rungs at their weights."""
    for orders, gens, weight in BIG_RUNGS:
        yield subgroup_from_generators(FiniteAbelianGroup(orders), gens, weight)


def lattices():
    """Every subgroup of the small groups, then the big rungs."""
    yield from every_subgroup()
    yield from big_rungs()
