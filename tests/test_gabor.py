"""Gabor frame operators, bounds, dual windows, and the Janssen form."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from heisenmod import (
    FiniteAbelianGroup,
    FrameBounds,
    GaborSystem,
    NotAFrameError,
    adjoint_subgroup,
    analysis,
    cstar_norm,
    delta_window,
    dual_window,
    frame_bounds,
    frame_like,
    frame_operator,
    full_plane,
    inner,
    is_frame,
    janssen_frame_operator,
    left_act,
    left_inner,
    module_context,
    module_frame_check,
    randn_window,
    reconstruction_residual,
    right_act,
    right_inner,
    shift_orbit,
    spectrum,
    subgroup_from_generators,
    synthesis,
    tf_shift,
    tf_shift_matrix,
)
from heisenmod import gabor as gabor_impl
from heisenmod.groups import _split
from sweeps import BIG_RUNGS, lattices

Z2 = FiniteAbelianGroup((2,))
Z4 = FiniteAbelianGroup((4,))
Z6 = FiniteAbelianGroup((6,))

LAT4 = subgroup_from_generators(Z4, [((2,), (0,)), ((0,), (2,))], 1)
DIAG4 = subgroup_from_generators(Z4, [((1,), (1,))], 1)
MOYAL4 = full_plane(Z4, Fraction(1, 4))
LAT6 = subgroup_from_generators(Z6, [((2,), (0,)), ((0,), (3,))], 1)


def test_system_validation():
    with pytest.raises(ValueError):
        GaborSystem(LAT4, ())
    with pytest.raises(ValueError):
        GaborSystem(LAT4, (delta_window(Z6, 0),))
    with pytest.raises(ValueError):
        FrameBounds(-1.0, 2.0)
    with pytest.raises(ValueError):
        FrameBounds(3.0, 2.0)


def test_shift_orbit_rows():
    orbit = shift_orbit(delta_window(Z4, 0), LAT4)
    assert orbit.shape == (4, 4)
    for i, z in enumerate(LAT4.elements):
        expect = tf_shift(z, delta_window(Z4, 0)).values
        assert np.allclose(orbit[i], expect, atol=1e-14)


def test_analysis_coefficients_are_window_inner_products():
    eta = randn_window(Z4, seed=1)
    xi = randn_window(Z4, seed=2)
    coeff = analysis(eta, LAT4) @ xi.values
    for i, z in enumerate(LAT4.elements):
        assert coeff[i] == pytest.approx(inner(xi, tf_shift(z, eta)), abs=1e-12)


def test_synthesis_is_weighted_adjoint_of_analysis():
    eta = randn_window(Z6, seed=3)
    syn = synthesis(eta, LAT6)
    ana = analysis(eta, LAT6)
    assert np.allclose(syn, float(LAT6.weight) * ana.conj().T, atol=1e-13)


def test_frame_operator_fixture_single_delta():
    sys1 = GaborSystem(LAT4, (delta_window(Z4, 0),))
    assert np.allclose(frame_operator(sys1), np.diag([2.0, 0, 2.0, 0]), atol=1e-13)
    b = frame_bounds(sys1)
    assert b.lower == pytest.approx(0.0, abs=1e-12)
    assert b.upper == pytest.approx(2.0, abs=1e-12)
    assert not is_frame(sys1)


def test_frame_operator_fixture_two_deltas_tight():
    sys2 = GaborSystem(LAT4, (delta_window(Z4, 0), delta_window(Z4, 1)))
    assert np.allclose(frame_operator(sys2), 2.0 * np.eye(4), atol=1e-13)
    b = frame_bounds(sys2)
    assert b.lower == pytest.approx(2.0, abs=1e-12)
    assert b.upper == pytest.approx(2.0, abs=1e-12)
    assert is_frame(sys2)


def test_frame_operator_moyal_identity():
    # Full plane with Plancherel weight: S = ||eta||^2 I for any window.
    eta = randn_window(Z4, seed=5)
    sys = GaborSystem(MOYAL4, (eta,))
    expect = (eta.norm() ** 2) * np.eye(4)
    assert np.allclose(frame_operator(sys), expect, atol=1e-11)


def test_frame_operator_hermitian_psd_and_shift_invariant():
    for lat in (LAT4, DIAG4, LAT6):
        g = lat.ambient
        eta = randn_window(g, seed=7)
        s = frame_operator(GaborSystem(lat, (eta,)))
        assert np.allclose(s, s.conj().T, atol=1e-12)
        eigs = np.linalg.eigvalsh(s)
        assert eigs.min() > -1e-12
        for z in lat.elements:
            mz = tf_shift_matrix(g, z)
            assert np.max(np.abs(mz @ s @ mz.conj().T - s)) < 1e-10


def test_frame_like_mixed_operator():
    eta = randn_window(Z4, seed=9)
    gamma = randn_window(Z4, seed=10)
    got = frame_like(eta, gamma, LAT4)
    expect = np.zeros((4, 4), dtype=complex)
    for z in LAT4.elements:
        pe = tf_shift(z, eta).values
        pg = tf_shift(z, gamma).values
        expect += float(LAT4.weight) * np.outer(pg, pe.conj())
    assert np.max(np.abs(got - expect)) < 1e-11
    # frame_like with gamma = eta is the frame operator of the singleton system
    same = frame_like(eta, eta, LAT4)
    assert np.allclose(same, frame_operator(GaborSystem(LAT4, (eta,))), atol=1e-12)


def test_is_frame_tolerance_validation():
    sys2 = GaborSystem(LAT4, (delta_window(Z4, 0), delta_window(Z4, 1)))
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            is_frame(sys2, tol=tol)
        with pytest.raises(ValueError):
            dual_window(sys2, tol=tol)


def test_dual_window_tight_frame_scales():
    sys2 = GaborSystem(LAT4, (delta_window(Z4, 0), delta_window(Z4, 1)))
    duals = dual_window(sys2)
    assert len(duals) == 2
    assert np.allclose(duals[0].values, delta_window(Z4, 0).values / 2.0, atol=1e-12)
    assert np.allclose(duals[1].values, delta_window(Z4, 1).values / 2.0, atol=1e-12)


def test_dual_window_rejects_non_frame_and_carries_bounds():
    sys1 = GaborSystem(LAT4, (delta_window(Z4, 0),))
    with pytest.raises(NotAFrameError) as exc:
        dual_window(sys1)
    assert exc.value.bounds.upper == pytest.approx(2.0, abs=1e-12)


def test_dual_window_reconstructs():
    for lat, seeds in ((LAT6, (11, 12)), (DIAG4, (13,)), (MOYAL4, (14,))):
        g = lat.ambient
        sys = GaborSystem(lat, tuple(randn_window(g, s) for s in seeds))
        if not is_frame(sys):
            continue
        duals = dual_window(sys)
        # operator identity: sum_j D_{gamma_j} C_{eta_j} = I
        total = np.zeros((g.order, g.order), dtype=complex)
        for eta, gam in zip(sys.windows, duals):
            total += synthesis(gam, lat) @ analysis(eta, lat)
        assert np.max(np.abs(total - np.eye(g.order))) < 1e-9
        xi = randn_window(g, seed=99)
        assert reconstruction_residual(sys, duals, xi) < 1e-9 * xi.norm()


def test_reconstruction_residual_takes_one_dual_per_window():
    # Z12 (2, 0), (0, 3) with two windows: both duals reconstruct; the first alone, or none, is an error,
    # not a residual of a different expansion.
    group = FiniteAbelianGroup((12,))
    sys = GaborSystem(subgroup_from_generators(group, [((2,), (0,)), ((0,), (3,))], 1),
                      (randn_window(group, 1), randn_window(group, 2)))
    duals, xi = dual_window(sys), randn_window(group, 9)
    assert reconstruction_residual(sys, duals, xi) < 1e-13 * xi.norm()
    for wrong in (duals[:1], [], duals + duals[:1]):
        with pytest.raises(ValueError, match="one per window"):
            reconstruction_residual(sys, wrong, xi)


def test_janssen_fixture_and_agreement():
    got = janssen_frame_operator(delta_window(Z4, 0), LAT4)
    assert np.allclose(got, np.diag([2.0, 0, 2.0, 0]), atol=1e-13)
    for lat in (LAT4, DIAG4, MOYAL4, LAT6, adjoint_subgroup(LAT6)):
        g = lat.ambient
        for seed in (21, 22):
            eta = randn_window(g, seed=seed)
            direct = frame_operator(GaborSystem(lat, (eta,)))
            jans = janssen_frame_operator(eta, lat)
            assert np.max(np.abs(direct - jans)) < 1e-10


def test_spectrum_descending_and_matches_bounds():
    sys2 = GaborSystem(LAT6, (randn_window(Z6, 31), randn_window(Z6, 32)))
    eigs = spectrum(sys2)
    assert eigs.shape == (6,)
    assert np.all(np.diff(eigs) <= 1e-12)
    b = frame_bounds(sys2)
    assert eigs[0] == pytest.approx(b.upper, abs=1e-11)
    assert eigs[-1] == pytest.approx(b.lower, abs=1e-11)


def _old_dual_window(sys, tol=1e-9):
    """dual_window as composed from parts: frame_bounds, then a second set of split factor blocks (gabor
    _factor), the windows into the split basis (groups _split), a block solve per split block, and the
    solutions back to G."""
    bounds = frame_bounds(sys)
    if not bounds.lower > tol * max(bounds.upper, 1.0):
        raise NotAFrameError(bounds)
    tables, n, k = sys.lattice._tables, sys.lattice.ambient.order, len(sys.windows)
    split, cosets = tables.split, len(tables.runs.chi)
    chars, order = len(split.chars), tables.runs.frame.ravel()
    order = order[split.order] if chars > 1 else order
    stacked = np.stack([eta.values for eta in sys.windows])
    blocks = gabor_impl._gram(*gabor_impl._factor(stacked, sys.lattice))
    rhs = _split(stacked[:, order], split) if chars > 1 else stacked[:, order]
    rhs = rhs.reshape(k, cosets, -1, chars).transpose(1, 3, 2, 0).reshape(blocks.shape[:-1] + (k,))
    solved = np.linalg.solve(blocks, rhs).reshape(cosets, chars, -1, k).transpose(3, 0, 2, 1).reshape(k, n)
    duals = np.empty_like(solved)
    duals[:, order] = _split(solved, split, back=True) if chars > 1 else solved
    return duals.T


def _split_blocks(dense, lattice):
    """The diagonal blocks of W^H dense W, W the split's basis built from its table (groups _SplitTable):
    column (coset, orbit, psi) holds conj(phase) conj(chars[psi, h]) at the orbit's member of h."""
    tables, n = lattice._tables, lattice.ambient.order
    split, cosets = tables.split, len(tables.runs.chi)
    chars = len(split.chars)
    members = tables.runs.frame.ravel()[split.order].reshape(-1, chars)  # one orbit per row
    basis = np.zeros((n, n), dtype=np.complex128)
    basis[members[:, :, None], np.arange(n).reshape(-1, 1, chars)] = (split.phase.conj().reshape(-1, chars, 1)
                                                                     * split.chars.T.conj())
    full = basis.conj().T @ dense @ basis
    index = np.arange(n).reshape(cosets, -1, chars).transpose(0, 2, 1).reshape(cosets * chars, -1)
    return full[index[:, :, None], index[:, None, :]]


def _dense_blocks(sys):
    """The frame blocks from the dense orbits: the Gram of each frame coset's orbit columns, per window."""
    cosets = sys.lattice._tables.runs.frame
    blocks = 0
    for eta in sys.windows:
        cols = shift_orbit(eta, sys.lattice)[:, cosets]  # (|Delta|, blocks, size)
        blocks = blocks + float(sys.lattice.weight) * np.einsum("kbi,kbj->bij", cols, cols.conj())
    return blocks


DUAL_CASES = [
    ((12,), [((2,), (0,)), ((0,), (3,))], 1),
    ((12,), [((3,), (4,)), ((0,), (2,))], 3),
    ((2, 4), [((1, 0), (0, 0)), ((0, 2), (1, 0)), ((0, 0), (0, 2))], 2),
    ((8, 8), [((8, 0), (0, 0)), ((0, 1), (4, 2)), ((0, 0), (4, 0)), ((0, 0), (0, 2))], 1),
]


@pytest.mark.parametrize("orders, gens, k", DUAL_CASES)
def test_dual_window_is_bit_identical_to_bounds_then_solve(orders, gens, k):
    group = FiniteAbelianGroup(orders)
    sys = GaborSystem(subgroup_from_generators(group, gens, 1), tuple(randn_window(group, s) for s in range(k)))
    duals = np.stack([gamma.values for gamma in dual_window(sys)], axis=1)
    assert duals.tobytes() == _old_dual_window(sys).tobytes()
    # Against the blocks of the dense orbit columns: Grams of the same sums in another order, so they differ
    # by a small multiple of eps * B, and the backward-stable solves by eps * kappa * |gamma|.
    eps, bounds, cosets = np.finfo(float).eps, frame_bounds(sys), sys.lattice._tables.runs.frame
    dense = _dense_blocks(sys)
    full = np.zeros((sys.lattice.ambient.order,) * 2, dtype=np.complex128)
    full[cosets[:, :, None], cosets[:, None, :]] = dense
    assert np.abs(gabor_impl._frame_blocks(sys) - _split_blocks(full, sys.lattice)).max() <= 64 * eps * bounds.upper
    stacked = np.stack([eta.values for eta in sys.windows])
    ref = np.empty_like(duals)
    ref[cosets] = np.linalg.solve(dense, np.moveaxis(stacked[:, cosets], 0, -1))
    assert np.abs(duals - ref).max() <= 64 * eps * bounds.upper / bounds.lower * np.abs(ref).max()


@pytest.mark.parametrize("orders, gens, k", DUAL_CASES)
def test_stacked_duals_equal_dual_window_bit_for_bit(orders, gens, k):
    # _duals takes and returns windows in the order of G; two systems on one lattice, stacked, give
    # each system's dual_window and frame bounds exactly.
    group = FiniteAbelianGroup(orders)
    lattice = subgroup_from_generators(group, gens, 1)
    systems = [GaborSystem(lattice, tuple(randn_window(group, s) for s in seeds))
               for seeds in (range(k), range(k, 2 * k))]
    windows = np.stack([gabor_impl._windows(sys) for sys in systems])
    bounds, frames, duals = gabor_impl._duals(gabor_impl._gram(*gabor_impl._factor(windows, lattice)), windows,
                                              lattice, 1e-9)
    assert frames.tolist() == [True, True]
    for sys, case_bounds, case_duals in zip(systems, bounds, duals):
        assert FrameBounds(*case_bounds.tolist()) == frame_bounds(sys)
        expect = np.stack([gamma.values for gamma in dual_window(sys)])
        assert case_duals.tobytes() == expect.tobytes()


@pytest.mark.parametrize("orders, gens, k", DUAL_CASES)
def test_block_duals_agree_with_the_dense_solve(orders, gens, k):
    # Error model of _check_generators: a backward-stable solve has relative error about
    # c * eps * sqrt(|G|) * kappa, kappa = B/A; here c = 4.
    group = FiniteAbelianGroup(orders)
    sys = GaborSystem(subgroup_from_generators(group, gens, 1), tuple(randn_window(group, s) for s in range(k)))
    stacked = np.stack([eta.values for eta in sys.windows], axis=1)
    dense = np.linalg.solve(frame_operator(sys), stacked)
    duals = np.stack([gamma.values for gamma in dual_window(sys)], axis=1)
    bounds = frame_bounds(sys)
    bound = 4 * np.finfo(float).eps * np.sqrt(group.order) * bounds.upper / bounds.lower
    assert np.linalg.norm(duals - dense) <= bound * np.linalg.norm(dense)


@pytest.mark.parametrize("order, tol", [(4, 1e-9), (8, 0.5)])
def test_dual_window_error_bounds_are_bit_identical(order, tol):
    # Z4: redundancy 1/2, never a frame; Z8: a frame at critical density, too ill-conditioned for tol 0.5
    group = FiniteAbelianGroup((order,))
    lattice = subgroup_from_generators(group, [((2,), (0,)), ((0,), (4,))], 1)
    sys = GaborSystem(lattice, (randn_window(group, 2),))
    with pytest.raises(NotAFrameError) as expect:
        _old_dual_window(sys, tol)
    with pytest.raises(NotAFrameError) as got:
        dual_window(sys, tol)
    assert got.value.bounds == expect.value.bounds


def test_orbit_multiplies_into_its_gather_bit_for_bit():
    # The reference allocates the phases, the gather and their product separately.
    for sub in lattices():
        n = sub.ambient.order
        perm, phase = sub._tables.group.gather(sub._tables.x, sub._tables.w)
        raw = np.stack([randn_window(sub.ambient, 80 + i).values for i in range(6)])
        for values in (raw[0], raw[:3], raw.reshape(2, 3, n)):
            expect = sub._tables.group.roots[phase] * np.take(values, perm, axis=-1)
            got = gabor_impl._orbit(values, sub)
            assert got.shape == values.shape[:-1] + (len(sub), n)
            assert got.tobytes() == expect.tobytes(), (sub.ambient.orders, len(sub), values.ndim)


def test_frame_rule_on_arrays_equals_the_scalar_rule():
    tol = 1e-9
    upper = np.array([0.0, 0.25, 0.5, 1.0, 1.0, 3.0, 3.0, 3.0, 1e12, 1e12])
    lower = np.array([0.0, tol, tol / 2, tol, 0.0, 3 * tol, np.nextafter(3 * tol, 1.0), 0.0, 1e3, 1e3 + 1e-6])
    expect = [a > tol * max(b, 1.0) for a, b in zip(lower.tolist(), upper.tolist())]
    assert expect == [False, False, False, False, False, False, True, False, False, True]
    assert gabor_impl._frame_test(lower, upper, tol).tolist() == expect
    assert [bool(gabor_impl._frame_test(a, b, tol)) for a, b in zip(lower.tolist(), upper.tolist())] == expect
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            gabor_impl._frame_test(lower, upper, bad)


def test_generating_check_holds_no_orbit_sized_array():
    # Z80 at |Delta| = 160: the two families' stacked orbits would hold 2 x 480 x 80 complex entries,
    # 1.17 MiB; their Zak-form factor holds 2 x 3 x 16 runs x 80, 0.12 MiB.
    sub = subgroup_from_generators(FiniteAbelianGroup((80,)), BIG_RUNGS[2][1], 1)
    windows = np.stack([randn_window(sub.ambient, s).values for s in range(6)]).reshape(2, 3, 80)
    gabor_impl._factor(windows, sub)  # builds the run table outside the measurement
    tracemalloc.start()
    try:
        verdicts = gabor_impl._factor_frames(*gabor_impl._factor(windows, sub), 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdicts.tolist() == [True, True]
    assert peak < 0.5 * 2**20, peak


@pytest.mark.parametrize("op", ["frame_bounds", "spectrum", "dual_window", "module_frame_check"])
def test_frame_ops_on_z2048_build_no_orbit_sized_array(op):
    # Z2048 (16, 0), (0, 32): |Delta| = 8192, so one |Delta| x |G| complex array is 256 MiB. The run table
    # holds 128 runs and 64 Delta_0 rows of |G| integers; each operation, table builds included, peaks
    # under 48 MiB.
    group = FiniteAbelianGroup((2048,))
    windows = (randn_window(group, 1), randn_window(group, 2))
    ctx = module_context(subgroup_from_generators(group, [((16,), (0,)), ((0,), (32,))], 1))
    sys = GaborSystem(ctx.lattice, windows)
    run = {"frame_bounds": frame_bounds, "spectrum": spectrum, "dual_window": dual_window,
           "module_frame_check": lambda _: module_frame_check(windows, ctx)}[op]
    assert len(ctx.lattice) == 8192 and "runs" not in ctx.lattice._tables.__dict__
    tracemalloc.start()
    try:
        run(sys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20, peak


def test_run_layer_tables_on_z2048_fit_the_zak_form_budget():
    # Z2048 (16, 0), (0, 32): |Delta| = 8192 in 128 runs, |Delta_0| = 64. After the frame operations, both
    # module actions and the C*-norm, the lattice's cached tables other than its points (plane, and the
    # generators its build supplied) and the twisted-algebra tables (crossed, neg, star) are the run
    # table, 24 runs |G| bytes plus its frame cosets, chi and pos, the rep cosets and rep_gather,
    # 8 |G| + 8 runs |G|, the intermediates the tables share, the run starts (16 runs bytes at rank 1) and
    # the frame-coset labels (8 |G|), H''s echelon presentation (the orbit index t0 + h_a, 8 |G|, the orbit
    # starts, 8 |G| / |H'|, the digits and walk coefficients, 16 |H'| + 8 bytes at one generator, and four
    # one-entry arrays; its characters are the split's), and the split, 24 |G| + 16 |H'|^2 + 8 runs / |H'|
    # with H' = 64 Z_2048, the time
    # shifts in Delta_0^perp (32 of them), and one run per coset of H' (4). None has the shape of a
    # Delta_0 x G phase table.
    group = FiniteAbelianGroup((2048,))
    eta, gamma, xi = (randn_window(group, s) for s in (1, 2, 3))
    ctx = module_context(subgroup_from_generators(group, [((16,), (0,)), ((0,), (32,))], 1))
    sys = GaborSystem(ctx.lattice, (eta, gamma))
    frame_bounds(sys)
    dual_window(sys)
    a, b = left_inner(xi, eta, ctx), right_inner(eta, gamma, ctx)
    left_act(a, gamma, ctx)
    right_act(xi, b, ctx)
    cstar_norm(a)
    tables, n, d0, h = ctx.lattice._tables, group.order, 64, 32
    runs = len(ctx.lattice) // d0
    assert tables.split.chars.shape == (h, h) and tables.split.reps.shape == (runs // h,)
    cached = {name: value for name, value in {**vars(tables), **tables.shared}.items()
              if name not in {"plane", "gens", "crossed", "neg", "star", "shared"}}
    arrays = list({id(v): v for value in cached.values() for v in (value if isinstance(value, tuple) else (value,))
                   if isinstance(v, np.ndarray)}.values())
    budget = 32 * runs * n + 16 * n + 8 * len(ctx.lattice) + 16 * d0**2 + 24 * n + 16 * h**2 + 8 * runs // h
    budget += 16 * runs + 8 * n + 8 * n + 8 * n // h + 16 * h + 40
    assert sum(v.nbytes for v in arrays) <= budget, (sum(v.nbytes for v in arrays), budget)
    assert all(v.shape != (d0, n) for v in arrays), [v.shape for v in arrays]
    assert {"runs", "rep", "rep_gather", "split"} <= set(cached), sorted(cached)
