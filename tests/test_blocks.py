"""Fibre blocks: the coset tables of a lattice and the block-diagonal operators built on them.

rep(a) on a lattice is block diagonal over the cosets of its time shifts
X(Delta); the frame operator over the cosets of Delta_0^perp = X(adjoint).
The block kernels never see the entries between two cosets; the dense
routes (frame_operator, integrated_rep) still compute them, and these tests
hold the two together.
"""

import numpy as np
import pytest

from heisenmod import (
    FiniteAbelianGroup,
    GaborSystem,
    MeasuredSubgroup,
    adjoint_subgroup,
    all_subgroups,
    frame_operator,
    module_context,
    randn_window,
    spectrum,
    subgroup_from_generators,
    verify_suite,
)
from heisenmod import module as module_impl
from heisenmod.twisted import _rep, _rep_blocks

GROUPS = [FiniteAbelianGroup(orders) for orders in [(n,) for n in range(1, 13)] + [(2, 4), (3, 3)]]
# The largest verify-ladder rungs: Z6^2 at |Delta| = 72, Z8^2 at 64, Z80 at 160, Z96 at 96 (weight 3) and 192.
BIG_RUNGS = [
    ((6, 6), [((1, 0), (3, 3)), ((0, 1), (3, 4)), ((0, 0), (6, 0)), ((0, 0), (0, 3))], 1),
    ((8, 8), [((8, 0), (0, 0)), ((0, 1), (0, 1)), ((0, 0), (4, 0)), ((0, 0), (0, 2))], 1),
    ((80,), [((5,), (30,)), ((0,), (8,))], 1),
    ((96,), [((24,), (72,)), ((0,), (4,))], 3),
    ((96,), [((8,), (0,)), ((0,), (6,))], 1),
]


def _lattices():
    for g in GROUPS:
        for elems in all_subgroups(g):
            yield MeasuredSubgroup(g, elems, 1)
    for orders, gens, weight in BIG_RUNGS:
        yield subgroup_from_generators(FiniteAbelianGroup(orders), gens, weight)


def test_coset_tables_partition_the_group_into_cosets():
    count = 0
    for lat in _lattices():
        g, tables = lat.ambient, lat._tables
        table, n = g._table, g.order
        rep, frame = tables.cosets
        shifts = np.unique(table.index(tables.x), axis=None)  # X(Delta)
        zero_w = table.coords[tables.plane[tables.plane < n]]  # Delta_0: the points (0, w)
        perp = np.flatnonzero(np.all(table.pairing(zero_w[:, None], table.coords[None]) == 0, axis=0))
        assert rep.shape == (n // len(shifts), len(shifts)) and frame.shape == (len(zero_w), n // len(zero_w))
        assert len(perp) * len(zero_w) == n
        for cosets, subgroup in ((rep, shifts), (frame, perp)):
            assert np.array_equal(np.sort(cosets, axis=None), np.arange(n)), (g.orders, len(lat))
            assert np.all(np.diff(cosets, axis=1) > 0)  # each row sorted
            # row b is rep[b, 0] + subgroup
            expect = np.sort(table.index(table.coords[cosets[:, :1]] + table.coords[subgroup][None]), axis=1)
            assert np.array_equal(cosets, expect), (g.orders, len(lat))
        # X(adjoint) = Delta_0^perp: the frame cosets are the adjoint's rep cosets
        adj_rep = adjoint_subgroup(lat)._tables.cosets[0]
        assert np.array_equal(frame[np.argsort(frame[:, 0])], adj_rep[np.argsort(adj_rep[:, 0])])
        count += 1
    assert count > 740


@pytest.mark.parametrize("conjugated", [False, True], ids=["plain", "conjugated"])
def test_rep_blocks_scattered_back_are_the_dense_rep_bit_for_bit(conjugated):
    rng = np.random.default_rng(4)
    for lat in _lattices():
        n = lat.ambient.order
        rep = lat._tables.cosets[0]
        a = rng.standard_normal((2, len(lat))) + 1j * rng.standard_normal((2, len(lat)))
        blocks = _rep_blocks(lat, conjugated, a)
        dense = _rep(lat, conjugated, a)
        assert blocks.shape == (2,) + rep.shape + rep.shape[-1:]
        rows, cols = rep[:, :, None], rep[:, None, :]
        assert dense[:, rows, cols].tobytes() == blocks.tobytes(), (lat.ambient.orders, len(lat))
        off = np.ones((n, n), dtype=bool)
        off[rows, cols] = False
        assert np.all(dense[:, off] == 0), (lat.ambient.orders, len(lat))


def test_dense_frame_operator_vanishes_between_frame_cosets_and_its_spectrum_is_the_blocks():
    worst_off = worst_eig = 0.0
    for k, lat in enumerate(_lattices()):
        g, n = lat.ambient, lat.ambient.order
        sys = GaborSystem(lat, tuple(randn_window(g, 300 + 7 * k + j) for j in range(1 + k % 2)))
        dense = frame_operator(sys)
        frame = lat._tables.cosets[1]
        off = np.ones((n, n), dtype=bool)
        off[frame[:, :, None], frame[:, None, :]] = False
        scale = np.abs(dense).max()
        worst_off = max(worst_off, np.abs(dense[off]).max(initial=0.0) / scale)
        expect = np.linalg.eigvalsh(dense)[::-1]
        got = spectrum(sys)
        assert got.shape == (n,) and np.all(np.diff(got) <= 0)
        worst_eig = max(worst_eig, np.abs(got - expect).max() / max(abs(expect[0]), 1e-300))
    assert worst_off <= 1e-15, worst_off
    assert worst_eig <= 1e-14, worst_eig


def test_a_wrong_frame_coset_table_fails_verify(monkeypatch):
    # Z12 (2, 3), (0, 4): Delta_0 = {(0, 2 j)}, so the frame cosets are {t, t + 6}.
    lattice = subgroup_from_generators(FiniteAbelianGroup((12,)), [((2,), (3,)), ((0,), (4,))], 1)
    rep, frame = lattice._tables.cosets
    assert frame.shape == (6, 2) and np.all(frame[:, 1] - frame[:, 0] == 6)
    assert verify_suite(lattice, seed=2)["pass"]
    bad = frame.copy()
    bad[0, 1], bad[1, 1] = frame[1, 1], frame[0, 1]
    monkeypatch.setitem(lattice._tables.__dict__, "cosets", (rep, bad))
    report = {e["name"]: e for e in verify_suite(lattice, seed=2)["identities"]}
    assert not (report["norm-chain"]["pass"] and report["reconstruction"]["pass"]), report


def test_spectral_kernels_see_only_blocks_on_the_z96_weight_3_rung(monkeypatch):
    # 24 frame cosets and 24 rep cosets of 4; the lattice is its own adjoint. Dual-scaling runs only at
    # counting weight, so it runs on the same point set at weight 1.
    orders, gens, weight = BIG_RUNGS[3]
    lattice = subgroup_from_generators(FiniteAbelianGroup(orders), gens, weight)
    assert lattice._tables.cosets[0].shape == lattice._tables.cosets[1].shape == (24, 4)
    widths = []
    for name in ("eigvalsh", "svd", "solve"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda m, *args, _real=real, **kw: widths.append(m.shape[-1])
                            or _real(m, *args, **kw))
    ctx, counting = module_context(lattice), module_context(lattice.with_weight(1))
    module_impl._check_norm_chain(ctx, 3, 20)
    module_impl._check_generators(ctx, 3, 1e-9)
    module_impl._check_dual_scaling(counting, 3, 20)
    assert len(widths) > 10 and max(widths) == 4, widths
