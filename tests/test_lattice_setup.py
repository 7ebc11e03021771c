"""The lattice set-up against the builders it replaced.

A lattice's closure comes from one echelon presentation of its generators, its adjoint from a join on
generator pairings, and its tables share their intermediates. The builders they replaced are kept here as
oracles, each as it stood: the closure span, the |G|^2 commutation mask and the table builders; every set
and every table must equal theirs exactly.
"""

import math
import tracemalloc

import numpy as np
import pytest

from heisenmod import FiniteAbelianGroup, MeasuredSubgroup, adjoint_subgroup, subgroup_from_generators
from heisenmod import groups as groups_impl
from heisenmod.groups import _member, _RunTable, _SplitTable, _uncoset
from sweeps import every_subgroup


def _span(table, points):
    """Sorted plane indices of the subgroup generated by points, the points kept as generators and their
    relative orders: a kept point g extends the span H by the disjoint cosets H + k g, 0 < k < m, m the order
    of g modulo H."""
    span = np.zeros(1, dtype=np.int64)
    kept, orders = [], []
    rest = np.asarray(points, dtype=np.int64)
    k = np.arange(table.modulus + 1)[:, None]
    while True:
        rest = rest[~_member(span, rest)]
        if not rest.size:
            return span, np.array(kept, dtype=np.int64), np.array(orders, dtype=np.int64)
        kept.append(rest[0])
        gx, gw = table.split(rest[0])
        mx, mw = k * gx, k * gw
        m = 1 + int(np.argmax(_member(span, table.plane_index(mx[1:], mw[1:]))))
        orders.append(m)
        sx, sw = table.split(span)
        span = np.sort(table.plane_index(sx[:, None] + mx[None, :m], sw[:, None] + mw[None, :m]).ravel())


def _mask_adjoint(sub):
    """The adjoint's plane indices from a |G| x |G| commutation mask on the closure span's kept points."""
    table = sub.ambient._table
    gx, gw = table.split(_span(table, sub.plane)[1])
    member = np.ones((table.size, table.size), dtype=bool)  # member[index(y), index(tau)]
    for x, w in zip(gx, gw):
        member &= table.pairing(w, table.coords)[:, None] == table.pairing(table.coords, x)[None, :]
    return np.flatnonzero(member)


def _runs(tables):
    g, d0 = tables.group, int(np.searchsorted(tables.plane, tables.group.size))
    x, w = g.split(tables.plane[::d0])
    v = g.index(g.coords[tables.plane % g.size] - np.repeat(w, d0, axis=0))
    pos = np.arange(len(tables.plane)) // d0 * d0 + np.searchsorted(tables.plane[:d0], v)
    zero = g.pairings(g.coords[tables.plane[:d0]], g.coords)
    frame = np.lexsort(zero).reshape(d0, -1)
    order = frame.ravel()
    minus = np.take(g.translates(x, g.coords), order, axis=1)
    return _RunTable(minus, g.roots[g.pairings(w, g.coords[order])], g.roots[zero[:, frame[:, 0]]], pos, frame)


def _echelon(g, coords):
    inside, rows, orders, bound = np.ones(len(coords), dtype=bool), [], [], g.orders.copy()
    for j, n in enumerate(g.orders.tolist()):
        column = np.where(inside & (coords[:, j] > 0), coords[:, j], n)
        k = int(np.argmin(column))
        if column[k] < n:
            rows.append(k)
            orders.append(n // int(column[k]))
            bound[j] = column[k]
        inside &= coords[:, j] == 0
    return np.array(rows[::-1], dtype=np.int64), np.array(orders[::-1], dtype=np.int64), bound


def _split_table(g, plane, frame):
    n, (blocks, size), flat = g.size, frame.shape, frame.ravel()
    starts = plane[::blocks]
    shifts, w = starts // n, g.coords[starts % n]
    h = np.flatnonzero(~g.pairings(g.coords[plane[:blocks]], g.coords[shifts]).any(axis=0))
    if len(h) > 1:
        commutators = g.pairings(w[h], g.coords[shifts[h]])
        h = h[~(commutators != commutators.T).any(axis=1)]
    count = len(h)
    if count == 1:
        one = np.ones((1, 1), dtype=np.complex128)
        return _SplitTable(np.arange(n), np.ones(n, dtype=np.complex128), one, np.arange(len(starts)))
    rows, m, bound = _echelon(g, g.coords[shifts[h]])
    gens, omega = g.coords[shifts[h[rows]]], w[h[rows]]
    digits = np.arange(count)[:, None] // (np.cumprod(m) // m) % m
    number = np.zeros(n, dtype=np.int64)
    number[g.index(digits @ gens)] = np.arange(count)
    rel, q = digits[number[g.index(m[:, None] * gens)]], g.pairings(omega, gens)
    lower, half = np.tril(q, -1).T, q.diagonal()

    def walk(j):
        return (j @ lower * j).sum(-1) + j * (j + 1) // 2 @ half

    t0 = g.coords.copy()
    for i, gen in zip(np.flatnonzero(bound < g.orders), gens[::-1]):
        t0 -= (t0[:, i] // bound[i])[:, None] * gen
    start, at = _uncoset(np.arange(n), frame)[g.index(t0)], number[g.index(g.coords - t0)]
    p, j = g.pairings(t0, omega), digits[at]
    up, moves = np.diag(m) - rel, walk(np.concatenate([np.diag(m), rel]))
    alpha = p @ up.T + (moves[: len(m)] - moves[len(m) :])
    big, lam, psi = g.modulus * count, np.zeros((n, len(m)), dtype=np.int64), np.zeros((count, len(m)), dtype=np.int64)
    for i, mi in enumerate(m):
        lam[:, i] = (alpha[:, i] * count + lam @ rel[i]) % big // mi
        psi[:, i] = ((psi @ rel[i]) % count // mi + digits[:, i] * (count // mi)) % count
    phase = ((lam - p * count) * j).sum(-1) - walk(j) * count
    order = np.argsort(((frame[start // size, 0] * n + start) * count + at)[flat])
    chars = np.exp(2j * np.pi * (psi @ digits.T % count) / count) / math.sqrt(count)
    reps = np.flatnonzero((g.coords[shifts] < bound).all(axis=1))
    return _SplitTable(order, np.exp(2j * np.pi * (phase % big) / big)[flat[order]], chars, reps)


def _rep(tables, runs):
    return np.argsort(_uncoset(runs.minus.min(axis=0), runs.frame), kind="stable").reshape(-1, len(runs.minus))


def _rep_gather(tables, runs):
    rep, minus, n = _rep(tables, runs), runs.minus, tables.group.size
    blocks, size = rep.shape
    at = _uncoset(np.tile(np.arange(size), blocks), rep)
    j = _uncoset(np.arange(n), runs.frame)[rep]
    gather = np.zeros((blocks, size, size), dtype=np.int64)
    gather[np.arange(blocks)[:, None], np.arange(size), at[minus[:, j]]] = np.arange(size)[:, None, None] * n + j
    return gather


def _neg(tables):
    g = tables.group
    x, w = g.split(tables.plane)
    return np.searchsorted(tables.plane, g.plane_index(-x, -w))


def _star(tables):
    g = tables.group
    x, w = g.split(tables.plane)
    phase = g.pairing(w, x)
    return g.roots[np.stack([-phase % g.modulus, phase])]


def _crossed(tables, runs):
    g = tables.group
    d0, count = len(runs.chi), len(runs.minus)
    xs, ws = g.split(tables.plane)
    x, w = xs[::d0], ws[::d0]
    s = np.searchsorted(g.index(x), g.index(x[:, None] - x[None]))
    delta = w[None] + w[s] - w[:, None]
    coset = _uncoset(np.repeat(np.arange(d0), runs.frame.shape[1]), runs.frame)
    shifted = coset[runs.minus[:, :: runs.frame.shape[1]]]
    phase = g.pairings(g.coords[runs.frame[:, 0]], delta.reshape(-1, g.orders.size)).reshape(d0, count, count)
    phase -= g.pairings(w, x)[s, np.arange(count)]
    gather = np.ascontiguousarray(shifted.T[:, None, :] * count + s)
    return gather, g.roots[np.remainder(phase, g.modulus, out=phase)]


Z4096 = (FiniteAbelianGroup((4096,)), [((64,), (0,)), ((0,), (64,))])


def _sweep(benchmark_jobs):
    """Every subgroup of the small groups, the verify-ladder rungs of round 0 for seeds 1 and 2, and Z4096."""
    yield from every_subgroup()
    for seed in (1, 2):
        for job in benchmark_jobs.round_jobs("verify-ladder", seed, 0):
            gens = [(tuple(x), tuple(w)) for x, w in job["generators"]]
            yield subgroup_from_generators(FiniteAbelianGroup(tuple(job["group"])), gens, 1)
    yield subgroup_from_generators(*Z4096, 1)


def test_echelon_closure_and_join_equal_the_span_and_mask_oracles(benchmark_jobs):
    # The closure of all of a subgroup's points, of a seeded handful of them and of its echelon generators
    # is the closure span's; the join's adjoint is the mask's, points and order.
    rng, count = np.random.default_rng(26), 0
    for lat in _sweep(benchmark_jobs):
        g, table = lat.ambient, lat.ambient._table
        assert np.array_equal(_span(table, lat.plane)[0], lat.plane)
        picks = lat.plane[rng.integers(0, len(lat), size=1 + count % 3)]
        for points in (picks, lat.plane if len(lat) <= 144 else picks[:1]):
            gens = [(tuple(x), tuple(w)) for x, w in zip(*(c.tolist() for c in table.split(points)))]
            assert np.array_equal(subgroup_from_generators(g, gens, 1).plane, _span(table, points)[0])
        echelon = lat._tables.gens
        assert len(echelon) <= 2 * g.rank
        closed = subgroup_from_generators(g, [(tuple(row[: g.rank]), tuple(row[g.rank :])) for row in echelon.tolist()])
        assert np.array_equal(closed.plane, lat.plane)
        adjoint = adjoint_subgroup.__wrapped__(lat)
        assert np.array_equal(adjoint.plane, _mask_adjoint(lat)), (g.orders, len(lat))
        assert np.array_equal(adjoint_subgroup.__wrapped__(adjoint).plane, lat.plane)
        count += 1
    assert count > 790, count
    # Seeded generator sets of up to four points on groups the sweep misses, rank 3 among them.
    rng = np.random.default_rng(27)
    for orders in [(6, 4), (9, 3), (2, 3, 4), (30,)]:
        g = FiniteAbelianGroup(orders)
        for k in range(40):
            points = rng.integers(0, g.order**2, size=k % 5)
            gens = [(tuple(x), tuple(w)) for x, w in zip(*(c.tolist() for c in g._table.split(points)))]
            lat = subgroup_from_generators(g, gens, 1)
            assert np.array_equal(lat.plane, _span(g._table, points)[0]), (orders, gens)
            assert np.array_equal(adjoint_subgroup.__wrapped__(lat).plane, _mask_adjoint(lat)), (orders, gens)


def test_every_table_equals_the_builders_it_replaced(benchmark_jobs):
    # runs, split, crossed, rep, rep_gather, neg and star of each lattice and its adjoint, bit for bit.
    count = 0
    for lat in _sweep(benchmark_jobs):
        for sub in (lat, adjoint_subgroup(lat)):
            tables = sub._tables
            runs = _runs(tables)
            label = (sub.ambient.orders, len(sub))
            split = _split_table(tables.group, tables.plane, runs.frame)
            for got, expect in [(tables.runs, runs), (tables.split, split), (tables.crossed, _crossed(tables, runs))]:
                assert all(np.array_equal(a, b) for a, b in zip(got, expect, strict=True)), label
            assert np.array_equal(tables.rep, _rep(tables, runs)), label
            assert np.array_equal(tables.rep_gather, _rep_gather(tables, runs)), label
            assert np.array_equal(tables.neg, _neg(tables)) and np.array_equal(tables.star, _star(tables)), label
            count += 1
    assert count > 1580, count


def test_a_point_set_listed_like_a_subgroup_but_not_closed_is_refused():
    # In Z8 the echelon rows (4, 1) and (0, 4) of these points, at relative orders 2 and 2, list them exactly,
    # but (4, 1) + (4, 1) = (0, 2) is not among them.
    g = FiniteAbelianGroup((8,))
    points = [((0,), (0,)), ((0,), (4,)), ((4,), (1,)), ((4,), (5,))]
    with pytest.raises(ValueError, match="generate"):
        MeasuredSubgroup(g, points, 1)
    assert len(subgroup_from_generators(g, points, 1)) == 8


def test_the_adjoint_of_a_z4096_lattice_needs_no_plane_mask():
    # Z4096 (64, 0), (0, 64): |Delta| = |adjoint| = 4096. The |G| x |G| mask alone held 16 MiB; the join holds
    # O(k |G| + |adjoint|) integers.
    lat = subgroup_from_generators(*Z4096, 1)
    lat._tables.gens, lat.ambient._table.coords  # built outside the measurement
    tracemalloc.start()
    try:
        adjoint = adjoint_subgroup.__wrapped__(lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(adjoint) * len(lat) == 4096**2
    assert peak < 4 * 2**20, peak


def test_join_keys_are_equal_exactly_where_the_rows_are():
    # The mixed-radix key overflows int64 past modulus^k = 2^62; it relabels densely there. With modulus 2^40 and
    # three columns the relabel runs twice; the rows take few distinct values, so equal rows are common.
    rng = np.random.default_rng(28)
    for modulus, columns in [(12, 2), (2**40, 3), (65536, 5)]:
        rows = rng.choice(rng.integers(0, modulus, size=(6, columns)), size=400)
        keys = groups_impl._keys(rows, modulus)
        same_rows = (rows[:, None] == rows[None]).all(axis=-1)
        assert np.array_equal(keys[:, None] == keys[None], same_rows), (modulus, columns)


def test_a_lattice_and_its_adjoint_share_one_h_prime_whichever_builds_it():
    # The adjoint's table is given its lattice's dict for H' (_commuting) when it is made, so the two share one
    # H' whether the lattice's split is built before the adjoint, after it, or not at all.
    g = FiniteAbelianGroup((6, 6))
    gens = [((1, 0), (3, 3)), ((0, 1), (3, 4)), ((0, 0), (6, 0)), ((0, 0), (0, 3))]
    for first in ("lattice", "adjoint", "neither"):
        lat = subgroup_from_generators(g, gens, 1)
        if first == "lattice":
            lat._tables.split
        adjoint = adjoint_subgroup.__wrapped__(lat)
        (adjoint if first == "adjoint" else lat)._tables.split
        assert adjoint._tables.commuting is lat._tables.commuting, first
        assert len(lat._tables.split.chars) > 1 and len(adjoint._tables.split.chars) > 1, first
