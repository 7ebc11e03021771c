"""Group arithmetic, characters, subgroup closure, adjoints, and measures."""

import collections
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from heisenmod import (
    FiniteAbelianGroup,
    MeasuredSubgroup,
    TFPoint,
    adjoint_subgroup,
    all_subgroups,
    character,
    character_vector,
    default_measures,
    full_plane,
    subgroup_from_generators,
    trivial_subgroup,
)
from heisenmod import groups as groups_impl
from sweeps import SMALL_GROUPS

Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))
Z4 = FiniteAbelianGroup((4,))
Z2xZ2 = FiniteAbelianGroup((2, 2))
Z2xZ3 = FiniteAbelianGroup((2, 3))


def test_group_constructor_rejects_bad_orders():
    with pytest.raises(ValueError):
        FiniteAbelianGroup((0,))
    with pytest.raises(ValueError):
        FiniteAbelianGroup(())


def test_element_enumeration_lexicographic_and_indexable():
    elems = Z2xZ3.elements()
    assert elems == sorted(elems)
    assert elems[0] == (0, 0)
    for i, e in enumerate(elems):
        assert Z2xZ3.index(e) == i
        assert Z2xZ3.element_at(i) == e


def test_group_axioms_exhaustive_small():
    for g in (Z4, Z2xZ3):
        elems = g.elements()
        zero = g.zero()
        for a in elems:
            assert g.add(a, zero) == a
            assert g.add(a, g.neg(a)) == zero
            for b in elems:
                assert g.add(a, b) == g.add(b, a)


def test_character_trivial():
    for x in Z4.elements():
        assert character(Z4, (0,), x) == pytest.approx(1.0)


def test_character_values():
    assert character(Z4, (3,), (1,)) == pytest.approx(-1j, abs=1e-15)
    expect = np.exp(2j * np.pi * 7 / 6)
    assert character(Z2xZ3, (1, 1), (1, 2)) == pytest.approx(expect, abs=1e-14)


def test_character_is_unimodular_bicharacter():
    for g in (Z4, Z2xZ2, Z2xZ3):
        elems = g.elements()
        for w in elems:
            for x in elems:
                val = character(g, w, x)
                assert abs(abs(val) - 1.0) < 1e-12
                for y in elems:
                    prod = character(g, w, x) * character(g, w, y)
                    assert abs(character(g, w, g.add(x, y)) - prod) < 1e-12
                    prod2 = character(g, x, w) * character(g, y, w)
                    assert abs(character(g, g.add(x, y), w) - prod2) < 1e-12


def test_character_vector_matches_pointwise():
    for w in Z2xZ3.elements():
        vec = character_vector(Z2xZ3, w)
        for i, x in enumerate(Z2xZ3.elements()):
            assert abs(vec[i] - character(Z2xZ3, w, x)) < 1e-12


def test_character_rejects_mismatched_coordinates():
    with pytest.raises(ValueError):
        character(Z4, (1, 2), (1,))


def test_subgroup_from_generators_fixture_2z_2z():
    sub = subgroup_from_generators(Z4, [((2,), (0,)), ((0,), (2,))], 1)
    assert len(sub) == 4
    assert sub.elements == (
        TFPoint((0,), (0,)),
        TFPoint((0,), (2,)),
        TFPoint((2,), (0,)),
        TFPoint((2,), (2,)),
    )
    assert sub.size == 1


def test_subgroup_from_generators_fixture_diagonal_two_torsion():
    sub = subgroup_from_generators(Z4, [((2,), (2,))], 1)
    assert len(sub) == 2
    assert sub.size == 2


def test_subgroup_from_empty_generators_is_trivial():
    sub = subgroup_from_generators(Z4, [], 1)
    assert sub.elements == (TFPoint((0,), (0,)),)
    assert sub.size == 4
    half = subgroup_from_generators(Z4, [], Fraction(1, 2))
    assert half.size == 8


def test_subgroup_closure_idempotent():
    sub = subgroup_from_generators(Z4, [((1,), (2,))], 1)
    again = subgroup_from_generators(Z4, [(z.x, z.w) for z in sub.elements], 1)
    assert again.elements == sub.elements


def test_weil_consistency_exact():
    for weight in (Fraction(1), Fraction(1, 2), Fraction(3, 7)):
        sub = subgroup_from_generators(Z4, [((2,), (0,))], weight)
        assert sub.size * sub.weight * len(sub) == Z4.order


def test_ragged_or_mixed_rank_point_lists_get_the_shape_message():
    for points in ([((0, 0), (0,))], [((0,), (0,)), ((0, 0), (0, 0))], [((0,), (0,)), ((2,),)]):
        with pytest.raises(ValueError, match="pairs of 1-coordinate tuples"):
            MeasuredSubgroup(Z4, points, 1)
    for points in ([((0,), (0,))], [((0, 0), (0, 0)), ((1,), (0,))]):
        with pytest.raises(ValueError, match="pairs of 2-coordinate tuples"):
            MeasuredSubgroup(Z2xZ2, points, 1)


def test_a_generator_a_tuple_and_a_list_of_points_give_the_same_lattice():
    # The constructor takes any iterable of points and reads it once: a generator of the trivial lattice's one
    # point, and of the points of Z4 (1, 0), (0, 2), builds what a tuple and a list of the same points build.
    for lattice in (trivial_subgroup(Z4, 1), subgroup_from_generators(Z4, [((1,), (0,)), ((0,), (2,))], 1)):
        points = lattice.elements
        built = [MeasuredSubgroup(Z4, form, 1) for form in (list(points), tuple(points), (z for z in points))]
        assert all(sub == lattice and np.array_equal(sub.plane, lattice.plane) for sub in built), lattice
    assert len(MeasuredSubgroup(Z4, (z for z in [((0,), (0,))]), 1)) == 1


def test_measured_subgroup_validation():
    with pytest.raises(ValueError):
        MeasuredSubgroup(Z4, (TFPoint((1,), (0,)),), 1)  # missing zero
    with pytest.raises(ValueError):
        MeasuredSubgroup(Z4, (TFPoint((0,), (0,)), TFPoint((1,), (0,))), 1)  # not closed
    with pytest.raises(ValueError):
        subgroup_from_generators(Z4, [], 0)  # weight must be positive


def test_adjoint_fixture_self_dual_lattice():
    sub = subgroup_from_generators(Z4, [((2,), (0,)), ((0,), (2,))], 1)
    adj = adjoint_subgroup(sub)
    assert adj.elements == sub.elements
    assert adj.weight == 1


def test_a_self_adjoint_point_set_shares_its_tables_with_its_adjoint():
    # Every subgroup of Z2, Z4, Z6 and Z2 x Z2: the adjoint of a self-adjoint point set is the subgroup
    # re-measured (weight 1 / size) on the same integer tables; any other adjoint has tables of its own.
    shared = 0
    for g in (Z2, Z4, FiniteAbelianGroup((6,)), Z2xZ2):
        for elems in all_subgroups(g):
            sub = MeasuredSubgroup(g, elems, 3)
            adj = adjoint_subgroup(sub)
            same = adj.elements == sub.elements
            assert (adj._tables is sub._tables) == same
            assert adj.weight == 1 / sub.size and adj == MeasuredSubgroup(g, adj.elements, 1 / sub.size)
            shared += same
    assert shared >= 4


def test_float_weight_is_the_weight_converted_once():
    sub = subgroup_from_generators(Z4, [((2,), (0,))], "2/3")
    assert sub.float_weight == float(Fraction(2, 3)) and sub.float_weight is sub.float_weight
    assert sub.with_weight(10**400).weight == 10**400  # no conversion until read
    with pytest.raises(OverflowError):
        sub.with_weight(10**400).float_weight


def test_adjoint_fixture_diagonal():
    sub = subgroup_from_generators(Z4, [((1,), (1,))], 1)
    adj = adjoint_subgroup(sub)
    assert adj.elements == tuple(TFPoint((y,), (y,)) for y in range(4))
    assert adj.weight == 1


def test_adjoint_fixture_full_plane_z2():
    adj = adjoint_subgroup(full_plane(Z2, 1))
    assert adj.elements == (TFPoint((0,), (0,)),)
    assert adj.weight == 2


def test_adjoint_of_trivial_is_full_plane():
    adj = adjoint_subgroup(trivial_subgroup(Z4, 1))
    assert len(adj) == 16
    assert adj.weight == Fraction(1, 4)


def test_adjoint_matches_exhaustive_commutation_and_is_involutive():
    for g in (Z2, Z3, Z4, Z2xZ2):
        for elems in all_subgroups(g):
            sub = MeasuredSubgroup(g, elems, 1)
            adj = adjoint_subgroup(sub)
            assert len(adj) * len(sub) == g.order**2
            back = adjoint_subgroup(MeasuredSubgroup(g, adj.elements, 1))
            assert back.elements == sub.elements
            # size reciprocity for counting weights on both sides
            counted = MeasuredSubgroup(g, adj.elements, 1)
            assert counted.size * sub.size == 1


def test_default_measures_plancherel_masses():
    table = default_measures(Z2)
    assert table["group"] == 1
    assert table["dual"] == Fraction(1, 2)
    assert 4 * table["plane"] == Z2.order
    plane = full_plane(Z4, Fraction(1, 4))
    assert plane.size == 1
    assert adjoint_subgroup(plane).weight == 1


def test_all_subgroups_counts_match_divisor_formula():
    # Subgroups of Z_N x Z_N in Hermite form (a, c; 0, b): count is
    # sum over a|N, b|N of gcd(N/a, b).
    for n in (1, 2, 3, 4, 5, 6, 8, 12):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        expect = sum(math.gcd(n // a, b) for a in divisors for b in divisors)
        got = all_subgroups(FiniteAbelianGroup((n,)))
        assert len(got) == expect
        for elems in got:
            MeasuredSubgroup(FiniteAbelianGroup((n,)), elems, 1)  # validates closure


def _fixed_point_subgroups(group):
    """The search all_subgroups replaced, as it stood: sums of the frontier subgroups with the cyclic ones until
    no new subgroup appears; one round for cyclic G, whose plane has rank two."""
    table = group._table
    # Row p lists k p for k < N; points generating the same cyclic subgroup give equal sorted rows.
    k = np.arange(table.modulus)[:, None]
    x, w = table.split(np.arange(table.size**2))
    rows = np.unique(np.sort(table.plane_index(x[:, None] * k, w[:, None] * k)), axis=0)
    cyclics = [np.unique(row) for row in rows]
    found = {tuple(c.tolist()): c for c in cyclics}
    frontier = list(found.values())
    while frontier:
        new = {}
        for h in frontier:
            hx, hw = table.split(h)
            for cx, cw in (table.split(c) for c in cyclics):
                total = np.unique(table.plane_index(hx[:, None] + cx[None], hw[:, None] + cw[None]))
                new.setdefault(tuple(total.tolist()), total)
        frontier = [total for key, total in new.items() if key not in found]
        found.update(new)
        if group.rank == 1:
            break
    return tuple(sorted(table.points(h) for h in found.values()))


def test_all_subgroups_equals_the_fixed_point_search():
    for orders in [(12,), (2, 2), (2, 4), (3, 3)]:
        g = FiniteAbelianGroup(orders)
        assert all_subgroups(g) == _fixed_point_subgroups(g), orders


def _gaussian(n, k, q):
    """[n, k]_q, the number of k-dimensional subspaces of F_q^n."""
    return math.prod(q ** (n - i) - 1 for i in range(k)) // math.prod(q ** (i + 1) - 1 for i in range(k))


def test_all_subgroups_product_group():
    # The subgroups of each plane by order. Z2^2: the plane is F_2^4, [4, k]_2 = 1, 15, 35, 15, 1 of order 2^k.
    # Z2^3: F_2^6, [6, k]_2 = 1, 63, 651, 1395, 651, 63, 1. Z3^2: F_3^4, [4, k]_3 = 1, 40, 130, 40, 1. Z2 x Z6:
    # the plane is F_2^4 x F_3^2 and subgroup counts multiply over coprime parts, [4, a]_2 [2, b]_3 of order
    # 2^a 3^b: 67 * 6. Z4^2: the plane is Z4^4, and the subgroups of type (4^b, 2^(a - b)) number
    # 2^(b (4 - a)) [4 - b, a - b]_2 [4, b]_2 (Birkhoff's formula), of order 2^(a + b): 1, 15, 155, 435, 771,
    # 435, 155, 15, 1; the fixed-point search agreed.
    z4_squared = collections.Counter()
    for a in range(5):
        for b in range(a + 1):
            z4_squared[2 ** (a + b)] += 2 ** (b * (4 - a)) * _gaussian(4 - b, a - b, 2) * _gaussian(4, b, 2)
    expect = [
        ((2, 2), 67, {2**k: _gaussian(4, k, 2) for k in range(5)}),
        ((2, 2, 2), 2825, {2**k: _gaussian(6, k, 2) for k in range(7)}),
        ((3, 3), 212, {3**k: _gaussian(4, k, 3) for k in range(5)}),
        ((2, 6), 402, {2**a * 3**b: _gaussian(4, a, 2) * _gaussian(2, b, 3) for a in range(5) for b in range(3)}),
        ((4, 4), 1983, z4_squared),
    ]
    for orders, total, counts in expect:
        got = all_subgroups(FiniteAbelianGroup(orders))
        assert len(set(got)) == len(got) == sum(counts.values()) == total, orders
        assert collections.Counter(map(len, got)) == counts, orders


def test_zero_is_position_zero_of_every_subgroup():
    # Plane indices are sorted and zero has plane index 0; twisted.trace relies on this.
    for g in SMALL_GROUPS:
        for elems in all_subgroups(g):
            assert MeasuredSubgroup(g, elems, 1).elements[0] == g.tf_zero()


def test_with_weight_shares_tables_and_equals_fresh_subgroup():
    g = FiniteAbelianGroup((2, 4))
    for elems in all_subgroups(g)[::10]:
        sub = MeasuredSubgroup(g, elems, 1)
        for weight in (Fraction(1, 2), 3, "5/7"):
            moved = sub.with_weight(weight)
            fresh = MeasuredSubgroup(g, elems, weight)
            assert moved._tables is sub._tables
            assert moved == fresh and hash(moved) == hash(fresh)
            assert (moved.weight, moved.size) == (fresh.weight, fresh.size)
            assert adjoint_subgroup(moved) == adjoint_subgroup(fresh)
        assert sub.weight == 1 and sub.size * len(sub) == g.order


def test_with_weight_rejects_non_positive_weights():
    sub = subgroup_from_generators(Z4, [((2,), (0,))], 1)
    for weight in (0, -1, "-1/2"):
        with pytest.raises(ValueError):
            sub.with_weight(weight)
    assert sub.weight == 1


def test_adjoint_cache_is_bounded():
    bound = adjoint_subgroup.cache_info().maxsize
    assert bound == 32
    g = FiniteAbelianGroup((12,))
    for elems in all_subgroups(g):  # 90 distinct lattices
        adjoint_subgroup(MeasuredSubgroup(g, elems, 1))
        assert adjoint_subgroup.cache_info().currsize <= bound


def test_public_and_private_constructors_agree_on_every_small_subgroup():
    # The private constructor takes sorted plane indices on trust; the builders use it.
    for g in SMALL_GROUPS:
        for elems in all_subgroups(g):
            public = MeasuredSubgroup(g, elems, 1)
            plane = np.array(sorted(g.index(x) * g.order + g.index(w) for x, w in elems), dtype=np.int64)
            private = MeasuredSubgroup._from_plane(g, plane, 1)
            spanned = subgroup_from_generators(g, [(z.x, z.w) for z in elems], 1)
            for sub in (private, spanned):
                assert np.array_equal(sub.plane, public.plane) and not sub.plane.flags.writeable
                assert sub.elements == public.elements == elems
                assert sub == public and hash(sub) == hash(public)
                assert adjoint_subgroup.__wrapped__(sub) == adjoint_subgroup.__wrapped__(public)


def test_builds_run_the_echelon_closure_once_or_not_at_all(monkeypatch):
    calls = []
    hermite = groups_impl._hermite

    def counted(orders, rows):
        calls.append(len(rows))
        return hermite(orders, rows)

    monkeypatch.setattr(groups_impl, "_hermite", counted)
    g = FiniteAbelianGroup((12,))
    sub = subgroup_from_generators(g, [((2,), (3,)), ((0,), (4,))], 1)
    assert calls == [2]
    adjoint_subgroup.__wrapped__(sub)
    sub.with_weight(3)
    full_plane(g)
    trivial_subgroup(g)
    assert calls == [2]


def test_a_large_lattice_holds_about_one_int64_per_point():
    g = FiniteAbelianGroup((64, 64))
    assert g._table.size == 4096  # the group's own table is built outside the measurement
    gens = [((2, 0), (0, 0)), ((0, 2), (0, 0)), ((0, 0), (4, 0)), ((0, 0), (0, 4))]
    tracemalloc.start()
    try:
        sub = subgroup_from_generators(g, gens, 1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(sub) == 262144
    assert held < 5 * 2**20, held


def test_crossed_product_table_builds_in_about_two_tables():
    # The twisted product's crossed-product table (twisted _crossed) on the verify-ladder's Z80 rung at
    # |Delta| = 160 and its Z6^2 rung at redundancy 2: an int64 gather index and complex phases of
    # |Delta| runs entries each, 24 |Delta| runs bytes, 60 KiB where the |Delta|^2 difference and cocycle
    # tables it replaced held 600 KiB on Z80. Its build holds at most about two such tables.
    for orders, gens in [((80,), [((5,), (30,)), ((0,), (8,))]),
                         ((6, 6), [((1, 0), (3, 3)), ((0, 1), (3, 4)), ((0, 0), (6, 0)), ((0, 0), (0, 3))])]:
        tables = subgroup_from_generators(FiniteAbelianGroup(orders), gens, 1)._tables
        assert tables.x.size and tables.w.size and tables.runs  # built outside the measurement
        tracemalloc.start()
        try:
            gather, phase = tables.crossed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = 24 * len(tables.plane) * len(tables.runs.minus)
        assert gather.nbytes + phase.nbytes == size
        assert peak <= 2.5 * size, (orders, peak, size)
