"""Heisenberg-module structure: inner products, actions, norms, FIGA, verification."""

import traceback
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from heisenmod import (
    FiniteAbelianGroup,
    GaborSystem,
    MeasuredSubgroup,
    ModuleContext,
    TFPoint,
    adjoint_subgroup,
    all_subgroups,
    analysis,
    cstar_norm,
    delta_seq,
    delta_window,
    dual_lattice_norm_scaling,
    dual_window,
    figa_check,
    frame_bounds,
    frame_like,
    frame_operator,
    full_plane,
    heisenberg_cocycle,
    inner,
    integrated_rep,
    involution,
    janssen_frame_operator,
    left_act,
    left_inner,
    localization_check,
    module_context,
    module_expansion,
    module_frame_check,
    module_norm,
    randn_window,
    reconstruction_residual,
    right_act,
    right_inner,
    shift_orbit,
    splitmix64_stream,
    subgroup_from_generators,
    synthesis,
    tf_shift,
    tf_shift_matrix,
    theta_matrix,
    trivial_subgroup,
    twisted_convolve,
    verify_suite,
)
from heisenmod import gabor as gabor_impl
from heisenmod import module as module_impl
from heisenmod import shifts as shifts_impl
from heisenmod.module import VERIFY_TOLERANCES
from heisenmod.shifts import Window, _randn

Z2 = FiniteAbelianGroup((2,))
Z4 = FiniteAbelianGroup((4,))
Z6 = FiniteAbelianGroup((6,))

CTX4 = module_context(subgroup_from_generators(Z4, [((2,), (0,)), ((0,), (2,))], 1))
CTX6 = module_context(subgroup_from_generators(Z6, [((2,), (0,)), ((0,), (3,))], 1))
CTX_DIAG = module_context(subgroup_from_generators(Z4, [((2,), (2,))], 1))


def test_context_validation():
    lat = CTX4.lattice
    with pytest.raises(ValueError):
        ModuleContext(lat, trivial_subgroup(Z4, 1))
    ctx = module_context(lat)
    assert ctx.dual == adjoint_subgroup(lat)


def test_left_inner_values_and_flag():
    xi = randn_window(Z4, seed=1)
    eta = randn_window(Z4, seed=2)
    a = left_inner(xi, eta, CTX4)
    assert a.domain == CTX4.lattice
    assert a.conjugated is False
    for z in CTX4.lattice.elements:
        assert a.at(z) == pytest.approx(inner(xi, tf_shift(z, eta)), abs=1e-12)


def test_right_inner_values_and_flag():
    xi = randn_window(Z4, seed=3)
    eta = randn_window(Z4, seed=4)
    b = right_inner(xi, eta, CTX4)
    assert b.domain == CTX4.dual
    assert b.conjugated is True
    for w in CTX4.dual.elements:
        assert b.at(w) == pytest.approx(inner(tf_shift(w, eta), xi), abs=1e-12)


def test_inner_products_are_adjoint_symmetric():
    xi = randn_window(Z6, seed=5)
    eta = randn_window(Z6, seed=6)
    lhs = involution(left_inner(xi, eta, CTX6))
    rhs = left_inner(eta, xi, CTX6)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-11
    lhs_r = involution(right_inner(xi, eta, CTX6))
    rhs_r = right_inner(eta, xi, CTX6)
    assert np.max(np.abs(lhs_r.coeffs - rhs_r.coeffs)) < 1e-11


def test_left_inner_positivity():
    eta = randn_window(Z6, seed=7)
    rep = integrated_rep(left_inner(eta, eta, CTX6))
    eigs = np.linalg.eigvalsh(rep)
    assert eigs.min() > -1e-10


def test_left_act_delta_is_weighted_shift():
    xi = randn_window(Z4, seed=8)
    z = TFPoint((2,), (0,))
    got = left_act(delta_seq(CTX4.lattice, z), xi, CTX4)
    expect = float(CTX4.lattice.weight) * tf_shift(z, xi).values
    assert np.allclose(got.values, expect, atol=1e-12)


def test_action_compositions():
    xi = randn_window(Z6, seed=9)
    lat, adj = CTX6.lattice, CTX6.dual
    a1 = left_inner(randn_window(Z6, 10), randn_window(Z6, 11), CTX6)
    a2 = left_inner(randn_window(Z6, 12), randn_window(Z6, 13), CTX6)
    lhs = left_act(a1, left_act(a2, xi, CTX6), CTX6)
    rhs = left_act(twisted_convolve(a1, a2), xi, CTX6)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10
    b1 = right_inner(randn_window(Z6, 14), randn_window(Z6, 15), CTX6)
    b2 = right_inner(randn_window(Z6, 16), randn_window(Z6, 17), CTX6)
    lhs_r = right_act(right_act(xi, b1, CTX6), b2, CTX6)
    rhs_r = right_act(xi, twisted_convolve(b1, b2), CTX6)
    assert np.max(np.abs(lhs_r.values - rhs_r.values)) < 1e-10


def test_left_linearity_over_algebra():
    # <a . xi, eta> = a * <xi, eta> for the left inner product
    xi = randn_window(Z6, seed=18)
    eta = randn_window(Z6, seed=19)
    a = left_inner(randn_window(Z6, 20), randn_window(Z6, 21), CTX6)
    lhs = left_inner(left_act(a, xi, CTX6), eta, CTX6)
    rhs = twisted_convolve(a, left_inner(xi, eta, CTX6))
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-10


def test_imprimitivity_relation():
    # (xi <eta, .>_left acts) equals (right action by <eta, .>_right)
    for ctx in (CTX4, CTX6, CTX_DIAG):
        g = ctx.lattice.ambient
        xi = randn_window(g, seed=22)
        eta = randn_window(g, seed=23)
        gamma = randn_window(g, seed=24)
        lhs = left_act(left_inner(xi, eta, ctx), gamma, ctx)
        rhs = right_act(xi, right_inner(eta, gamma, ctx), ctx)
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10


def test_action_rejects_wrong_domain_or_flag():
    xi = randn_window(Z4, seed=25)
    a = left_inner(xi, xi, CTX4)
    b = right_inner(xi, xi, CTX4)
    with pytest.raises(ValueError):
        left_act(b, xi, CTX4)
    with pytest.raises(ValueError):
        right_act(xi, a, CTX4)


def test_module_norm_chain():
    for ctx in (CTX4, CTX6, CTX_DIAG):
        g = ctx.lattice.ambient
        eta = randn_window(g, seed=26)
        n = module_norm(eta, ctx)
        # via the C*-norm of the inner product
        assert n == pytest.approx(np.sqrt(cstar_norm(left_inner(eta, eta, ctx))), rel=1e-10)
        # via the largest singular value of the orbit matrix
        smax = np.linalg.svd(shift_orbit(eta, ctx.lattice), compute_uv=False)[0]
        assert n == pytest.approx(np.sqrt(float(ctx.lattice.weight)) * smax, rel=1e-10)
        # embedding bound
        assert eta.norm() <= np.sqrt(float(ctx.lattice.size)) * n + 1e-12


def test_module_norm_is_sup_of_rayleigh_quotients():
    ctx = CTX6
    eta = randn_window(Z6, seed=27)
    s = frame_operator(GaborSystem(ctx.lattice, (eta,)))
    bound = module_norm(eta, ctx) ** 2
    best = 0.0
    for k in range(200):
        v = randn_window(Z6, seed=1000 + k).values
        q = float(np.real(np.vdot(v, s @ v)) / np.real(np.vdot(v, v)))
        assert q <= bound + 1e-10
        best = max(best, q)
    # the top eigenvector attains the bound
    eigvals, eigvecs = np.linalg.eigh(s)
    v = eigvecs[:, -1]
    q = float(np.real(np.vdot(v, s @ v)) / np.real(np.vdot(v, v)))
    best = max(best, q)
    assert best == pytest.approx(bound, abs=1e-9)


def test_module_frame_check_fixtures():
    good = module_frame_check([delta_window(Z4, 0), delta_window(Z4, 1)], CTX4)
    assert good["generating"] is True
    assert good["bounds"].lower == pytest.approx(2.0, abs=1e-12)
    assert good["bounds"].upper == pytest.approx(2.0, abs=1e-12)
    bad = module_frame_check([delta_window(Z4, 0)], CTX_DIAG)
    assert bad["generating"] is False
    assert bad["bounds"].upper == pytest.approx(1.0, abs=1e-12)


def test_module_expansion_reconstructs():
    windows = [delta_window(Z4, 0), delta_window(Z4, 1)]
    xi = randn_window(Z4, seed=28)
    coeffs = module_expansion(xi, windows, CTX4)
    rebuilt = np.zeros(4, dtype=complex)
    for a, eta in zip(coeffs, windows):
        rebuilt += left_act(a, eta, CTX4).values
    assert np.max(np.abs(rebuilt - xi.values)) < 1e-10


def test_module_expansion_rejects_non_generating():
    with pytest.raises(ValueError):
        module_expansion(randn_window(Z4, 29), [delta_window(Z4, 0)], CTX_DIAG)


def test_module_expansion_takes_one_factor(monkeypatch):
    # The generating verdict and the duals come from one split factor of the family, as in
    # module_frame_check; the coefficients equal left_inner against dual_window's duals bit for bit.
    ctx = module_context(subgroup_from_generators(FiniteAbelianGroup((12,)), [((2,), (0,)), ((0,), (3,))], 1))
    windows, xi = [randn_window(ctx.lattice.ambient, s) for s in (1, 2)], randn_window(ctx.lattice.ambient, 9)
    expect = [left_inner(xi, gamma, ctx).coeffs for gamma in dual_window(GaborSystem(ctx.lattice, windows))]
    calls = {"_factor": 0}
    counted = _counting(calls, "_factor", module_impl._factor)
    monkeypatch.setattr(module_impl, "_factor", counted)
    monkeypatch.setattr(gabor_impl, "_factor", counted)
    coeffs = module_expansion(xi, windows, ctx)
    assert calls == {"_factor": 1}
    assert [a.coeffs.tobytes() for a in coeffs] == [e.tobytes() for e in expect]


def test_localization_fixture_and_random():
    d0 = delta_window(Z4, 0)
    res = localization_check(d0, d0, CTX4)
    assert res["lhs"] == pytest.approx(1.0, abs=1e-13)
    assert res["rhs"] == pytest.approx(1.0, abs=1e-13)
    assert res["via_right"] == pytest.approx(1.0, abs=1e-13)
    for ctx in (CTX4, CTX6, CTX_DIAG):
        g = ctx.lattice.ambient
        for seed in (30, 31):
            xi = randn_window(g, seed=seed)
            eta = randn_window(g, seed=seed + 50)
            res = localization_check(xi, eta, ctx)
            assert res["lhs"] == pytest.approx(res["rhs"], abs=1e-12)
            assert res["via_right"] == pytest.approx(res["rhs"], abs=1e-12)


def test_figa_fixture_z2():
    ctx = module_context(full_plane(Z2, 1))
    d0 = delta_window(Z2, 0)
    res = figa_check(d0, d0, d0, d0, ctx)
    assert res["lhs"] == pytest.approx(2.0, abs=1e-13)
    assert res["rhs"] == pytest.approx(2.0, abs=1e-13)
    assert res["abs_gap"] < 1e-13


def test_figa_random_windows():
    for ctx in (CTX4, CTX6, CTX_DIAG, module_context(trivial_subgroup(Z4, 1))):
        g = ctx.lattice.ambient
        wins = [randn_window(g, seed=40 + j) for j in range(4)]
        res = figa_check(*wins, ctx)
        assert res["rel_gap"] < 1e-11


def test_theta_matrix_equals_frame_like():
    for ctx in (CTX4, CTX6):
        g = ctx.lattice.ambient
        eta = randn_window(g, seed=44)
        gamma = randn_window(g, seed=45)
        theta = theta_matrix(eta, gamma, ctx)
        assert np.max(np.abs(theta - frame_like(eta, gamma, ctx.lattice))) < 1e-11


def test_dual_scaling_fixture_and_guards():
    ctx = module_context(full_plane(Z2, 1))
    res = dual_lattice_norm_scaling(randn_window(Z2, seed=46), ctx)
    assert res["ratio"] == pytest.approx(2.0 ** -0.5, rel=1e-12)
    assert res["exponent"] == pytest.approx(0.5, abs=1e-12)
    # window independence of the ratio
    other = dual_lattice_norm_scaling(randn_window(Z2, seed=47), ctx)
    assert other["ratio"] == pytest.approx(res["ratio"], rel=1e-12)
    # size-one lattices give no exponent and ratio one
    flat = dual_lattice_norm_scaling(randn_window(Z4, seed=48), CTX4)
    assert flat["exponent"] is None
    assert flat["ratio"] == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        dual_lattice_norm_scaling(
            randn_window(Z2, seed=49), module_context(full_plane(Z2, Fraction(1, 2)))
        )


def test_verify_suite_passes_and_is_deterministic():
    report = verify_suite(CTX4.lattice, seed=5)
    assert report["pass"] is True
    names = {entry["name"] for entry in report["identities"]}
    assert {
        "cocycle-identity",
        "projective-relation",
        "twisted-axioms",
        "localization",
        "norm-chain",
        "embedding-bound",
        "operator-extension",
        "janssen",
        "figa",
        "imprimitivity",
        "generator-equivalence",
        "reconstruction",
        "dual-scaling",
    } <= names
    for entry in report["identities"]:
        assert entry["pass"], entry
        assert entry["cases"] > 0 or entry["name"] == "dual-scaling"
    again = verify_suite(CTX4.lattice, seed=5)
    assert again == report


Z48_R2 = module_context(subgroup_from_generators(FiniteAbelianGroup((48,)), [((4,), (0,)), ((0,), (6,))], 1))
Z12_W3 = module_context(subgroup_from_generators(FiniteAbelianGroup((12,)), [((2,), (3,)), ((0,), (4,))], 3))
Z2X4_SWAP = module_context(subgroup_from_generators(
    FiniteAbelianGroup((2, 4)), [((0, 0), (0, 2)), ((0, 0), (1, 1)), ((0, 1), (0, 1))], 1))


def test_theta_matrix_matches_per_basis_vector_construction():
    # theta sums each run's analysis rows against the Delta_0 characters per frame coset, then takes one
    # product per coset; a lone _act sums the same |Delta| terms in another order, so each entry differs
    # by at most c * eps * w * |Delta| * max|eta| * max|gamma|. left_inner(delta_t, eta) takes the run-form
    # analysis, whose coefficients differ from the dense column by the rounding of a product of two unit
    # phases, a few eps * |eta| each, within the same bound.
    # On the Z2 x Z4 lattice pos is not the identity: it swaps points 6 and 7, so the rows are placed.
    eps = np.finfo(float).eps
    assert not np.array_equal(Z2X4_SWAP.lattice._tables.runs.pos, np.arange(16))
    for ctx in (CTX4, CTX6, CTX_DIAG, Z48_R2, Z12_W3, Z2X4_SWAP):
        g, lat = ctx.lattice.ambient, ctx.lattice
        eta = randn_window(g, seed=50)
        gamma = randn_window(g, seed=51)
        theta = theta_matrix(eta, gamma, ctx)
        bound = 8 * eps * float(lat.weight) * len(lat) * np.abs(eta.values).max() * np.abs(gamma.values).max()
        cols = analysis(eta, lat)
        lone = [module_impl._act(lat, False, cols[:, t], gamma.values) for t in range(g.order)]
        assert np.abs(theta - np.stack(lone, axis=1)).max() <= bound, g.orders
        via_module = [left_act(left_inner(delta_window(g, t), eta, ctx), gamma, ctx).values for t in range(g.order)]
        assert np.abs(theta - np.stack(via_module, axis=1)).max() <= bound, g.orders


def test_norms_from_the_smaller_gram_match_the_frame_operator_route():
    # With |Delta| < |G| the norms come from the |Delta| x |Delta| Gram; the reference is frame_bounds'
    # eigvalsh of the |G| x |G| frame operator.
    smaller = 0
    for g in [FiniteAbelianGroup((n,)) for n in range(1, 13)]:
        etas = [randn_window(g, seed=70 + i) for i in range(3)]
        for k, elems in enumerate(all_subgroups(g)):
            sub = MeasuredSubgroup(g, elems, Fraction(1, 1 + k % 3))
            smaller += len(sub) < g.order
            expect = np.sqrt([frame_bounds(GaborSystem(sub, (eta,))).upper for eta in etas])
            got = module_impl._norms(np.stack([eta.values for eta in etas]), sub)
            assert np.all(np.abs(got - expect) <= 1e-13 * expect), (g.orders, elems, got, expect)
    assert smaller > 50


def test_conjugated_analysis_stacks_and_meets_the_orbit_against_the_conjugate():
    # The adjoint-side coefficients <pi(w) eta, xi> were orbit(eta) @ conj(xi) on the dense orbit; they are
    # now conj of the run-form analysis, on each lattice and on its adjoint. Stacked cases equal lone calls
    # bit for bit. Error model against the dense product: both sum the |G| products eta(t - x) conj(xi(t))
    # times unit phases in different orders, so they differ by at most c * |G| * eps times the sum of the
    # products' moduli (Higham's gamma_n); c = 4.
    from heisenmod.gabor import _analyze, _orbit

    cases = 0
    for g in [FiniteAbelianGroup((n,)) for n in range(1, 13)] + [FiniteAbelianGroup((2, 4))]:
        xi = np.stack([randn_window(g, 90 + i).values for i in range(3)])
        eta = np.stack([randn_window(g, 95 + i).values for i in range(3)])
        for elems in all_subgroups(g):
            lattice = MeasuredSubgroup(g, elems, 1)
            for sub in (lattice, adjoint_subgroup(lattice)):
                got = _analyze(xi, eta, sub)
                assert got.flags.c_contiguous
                for i in range(3):
                    assert got[i].tobytes() == _analyze(xi[i], eta[i], sub).tobytes(), (g.orders, elems)
                orbit = _orbit(eta, sub)
                expect = (orbit @ xi.conj()[..., None])[..., 0]
                bound = 4 * g.order * np.finfo(float).eps * (np.abs(orbit) @ np.abs(xi)[..., None])[..., 0]
                assert np.all(np.abs(got.conj() - expect) <= bound), (g.orders, elems)
                cases += 1
    assert cases > 200


def test_monomial_gap_is_the_dense_max_difference():
    rng = np.random.default_rng(3)
    n = 6
    for _ in range(20):
        cols = rng.integers(0, n, size=(2, n))
        cols[1, ::2] = cols[0, ::2]  # half the rows agree on the column
        vals = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        dense = np.zeros((2, n, n), dtype=complex)
        for k in range(2):
            dense[k, np.arange(n), cols[k]] = vals[k]
        expect = float(np.abs(dense[0] - dense[1]).max())
        assert module_impl._monomial_gap(cols[0], vals[0], cols[1], vals[1]) == expect


def _dense_cocycle_reference(group, seed, cases):
    """The picks and both gaps by plane points, cocycle values and dense shift-matrix products."""
    plane = group.tf_points()
    picks = [plane[int(s % len(plane))] for s in splitmix64_stream(seed, 3 * cases)]
    coc_gap = 0.0
    proj_gap = 0.0
    for i in range(cases):
        z1, z2, z3 = picks[3 * i : 3 * i + 3]
        lhs = heisenberg_cocycle(group, z1, z2) * heisenberg_cocycle(group, group.tf_add(z1, z2), z3)
        rhs = heisenberg_cocycle(group, z1, group.tf_add(z2, z3)) * heisenberg_cocycle(group, z2, z3)
        coc_gap = max(coc_gap, abs(lhs - rhs))
        prod = tf_shift_matrix(group, z1) @ tf_shift_matrix(group, z2)
        twisted = heisenberg_cocycle(group, z1, z2) * tf_shift_matrix(group, group.tf_add(z1, z2))
        proj_gap = max(proj_gap, float(np.abs(prod - twisted).max()))
    return picks, coc_gap, proj_gap


COCYCLE_GROUPS = [FiniteAbelianGroup(o) for o in ((6,), (8,), (2, 4), (4, 4))]
COCYCLE_SEEDS = (0, 7, int(splitmix64_stream(0x5EED, 1)[0]))


@pytest.mark.parametrize("group", COCYCLE_GROUPS, ids=lambda g: "x".join(map(str, g.orders)))
def test_cocycle_check_matches_dense_reference(group):
    ctx = module_context(trivial_subgroup(group, 1))
    for seed in COCYCLE_SEEDS:
        picks, coc_ref, proj_ref = _dense_cocycle_reference(group, seed, 60)
        assert group._table.points(module_impl._plane_picks(group, splitmix64_stream(seed, 180))) == tuple(picks)
        coc, proj = module_impl._check_cocycle(ctx, splitmix64_stream(seed, 180))
        assert abs(coc["max_abs_gap"] - coc_ref) <= 1e-15
        assert abs(proj["max_abs_gap"] - proj_ref) <= 1e-15
        assert coc["pass"] and proj["pass"]


@pytest.mark.parametrize("group", COCYCLE_GROUPS, ids=lambda g: "x".join(map(str, g.orders)))
def test_cocycle_check_catches_conjugated_cocycle(group, monkeypatch):
    # conj(c) is a cocycle too, but pi(z1) pi(z2) = c(z1, z2) pi(z1 + z2) only holds for c itself.
    monkeypatch.setattr(module_impl, "_cocycle", lambda table, x, tau: table.roots[table.pairing(tau, x)])
    coc, proj = module_impl._check_cocycle(module_context(trivial_subgroup(group, 1)), splitmix64_stream(7, 180))
    assert coc["pass"]
    assert proj["max_abs_gap"] >= 0.5 and not proj["pass"]


# verify-ladder sizes: Z96 at |Delta| = 192 (counting weight), its weight-3
# rung and the Z80 |Delta| = 160 rung, with the benchmark's job seeds.
BENCH_SCALE = [
    ((96,), [((8,), (0,)), ((0,), (6,))], 1, 0, 192),
    ((96,), [((24,), (72,)), ((0,), (4,))], 3, 451659735, 96),
    ((80,), [((5,), (30,)), ((0,), (8,))], 1, 1252682883, 160),
]


@pytest.mark.parametrize("orders, gens, weight, seed, points", BENCH_SCALE)
def test_verify_suite_passes_at_benchmark_scale(orders, gens, weight, seed, points, monkeypatch):
    # Chunked checks keep the traced peak within a fixed 1 MiB plus 1.5 chunks of complex entries: about
    # 1.5 MB of 1.75 MiB at 2^15 entries a chunk and 3.2 MB of 4 MiB at the default 2^17 on the Z96
    # |Delta| = 192 rung.
    lattice = subgroup_from_generators(FiniteAbelianGroup(orders), gens, weight)
    assert len(lattice) == points
    for chunk in (module_impl._CHUNK, 2**15):
        monkeypatch.setattr(module_impl, "_CHUNK", chunk)
        tf_shift_matrix.cache_clear()
        tracemalloc.start()
        try:
            report = verify_suite(lattice, seed=seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["pass"], [entry for entry in report["identities"] if not entry["pass"]]
        assert tf_shift_matrix.cache_info().currsize == 0
        assert peak <= 2**20 + 1.5 * 16 * chunk, (chunk, peak)


def _drawn(ctx, salt, cases, slots):
    """The windows (slots, cases, |G|) of a check's cases drawn from the stream of salt, as verify_suite draws
    them: case i takes seeds slots * i to slots * (i + 1) - 1."""
    return module_impl._slots(_randn(splitmix64_stream(salt, slots * cases), ctx.lattice.ambient.order), slots)


def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


@pytest.mark.parametrize("orders, gens, weight", [
    ((12,), [((2,), (3,)), ((0,), (4,))], 1),
    ((4, 4), [((2, 0), (1, 3)), ((0, 2), (3, 2)), ((0, 0), (2, 0)), ((0, 0), (0, 2))], 1),
    BENCH_SCALE[1][:3],
], ids=["z12", "z4x4", "z96-weight-3"])
def test_a_suite_derives_its_seeds_in_one_call_and_draws_in_four(orders, gens, weight, monkeypatch):
    # One stream call gives the salts and one every check's derived seeds; _randn runs once for the
    # |G|-length windows of the small checks and once each for figa, localization and twisted-axioms'
    # coefficients, at every weight (dual-scaling draws its windows with the others).
    calls = {"splitmix64_stream": 0, "_randn": 0}
    for name in calls:
        monkeypatch.setattr(module_impl, name, _counting(calls, name, getattr(module_impl, name)))
    monkeypatch.setattr(shifts_impl, "splitmix64_stream",
                        _counting(calls, "splitmix64_stream", shifts_impl.splitmix64_stream))
    report = verify_suite(subgroup_from_generators(FiniteAbelianGroup(orders), gens, weight), seed=4)
    assert report["pass"]
    assert calls == {"splitmix64_stream": 2, "_randn": 4}, calls


def test_a_second_suite_reads_the_involution_phases_from_the_lattice(monkeypatch):
    # The involution's phases are built from the pairing once per lattice (groups, star), on first use.
    lattice = subgroup_from_generators(FiniteAbelianGroup((12,)), [((2,), (3,)), ((0,), (4,))], 1)
    table, callers = lattice.ambient._table, []
    real = table.pairing

    def pairing(*args):
        callers.append({frame.name for frame in traceback.extract_stack()})
        return real(*args)

    monkeypatch.setattr(table, "pairing", pairing)
    verify_suite(lattice, seed=3)
    assert any("_involve" in names for names in callers)
    callers.clear()
    verify_suite(lattice, seed=4)
    assert callers and not any("_involve" in names for names in callers)  # the cocycle check still pairs


@pytest.mark.parametrize("rung", [0, 1], ids=["z96-192", "z96-weight-3"])
def test_theta_matrix_takes_one_factor_and_no_act_call(rung, monkeypatch):
    # theta is one Delta_0-character product per run and one product per frame coset against gamma's
    # unsplit factor (gabor _by_block): no column goes through _act, and the split factor (_factor) is not built.
    orders, gens, weight, _, _ = BENCH_SCALE[rung]
    ctx = module_context(subgroup_from_generators(FiniteAbelianGroup(orders), gens, weight))
    calls = {"_act": 0, "_factor": 0, "_by_block": 0}
    for name in calls:
        monkeypatch.setattr(module_impl, name, _counting(calls, name, getattr(module_impl, name)))
    theta_matrix(randn_window(ctx.lattice.ambient, 1), randn_window(ctx.lattice.ambient, 2), ctx)
    assert calls == {"_act": 0, "_factor": 0, "_by_block": 1}, calls


@pytest.mark.parametrize("rung", [0, 2], ids=["z96-192", "z80-160"])
def test_figa_and_localization_run_in_one_chunk(rung, monkeypatch):
    # The default chunk counts run-form temporaries: 40 cases take one chunk on these rungs.
    orders, gens, weight, _, _ = BENCH_SCALE[rung]
    ctx = module_context(subgroup_from_generators(FiniteAbelianGroup(orders), gens, weight))
    calls = {"_figa": 0, "_localization": 0}
    for name in calls:
        monkeypatch.setattr(module_impl, name, _counting(calls, name, getattr(module_impl, name)))
    figa = module_impl._check_figa(ctx, *_drawn(ctx, 3, 40, 4))
    localization = module_impl._check_localization(ctx, *_drawn(ctx, 3, 40, 2))
    assert figa["cases"] == localization["cases"] == 40
    assert calls == {"_figa": 1, "_localization": 1}, calls


def test_the_benchmark_tail_rung_runs_each_check_in_one_chunk(benchmark_jobs, monkeypatch):
    # verify-ladder's tail op: the first Z6^2 redundancy-2 job of round 0 for seed 1, 36 runs of
    # |Delta_0| = 2. Every check's kernel runs once per suite, twisted-axioms once on each domain.
    job = next(job for job in benchmark_jobs.round_jobs("verify-ladder", 1, 0)
               if job["group"] == [6, 6] and job["size"]["redundancy"] == "2")
    gens = [(tuple(x), tuple(w)) for x, w in job["generators"]]
    lattice = subgroup_from_generators(FiniteAbelianGroup((6, 6)), gens, Fraction(job["weight"]))
    runs = lattice._tables.runs
    assert (lattice.ambient.order, len(lattice), len(runs.minus), len(runs.chi)) == (36, 72, 36, 2)
    passes = {}
    chunked = module_impl._per_case

    def counted(fn, ctx, *draws, per_case=0):
        check = traceback.extract_stack(limit=2)[0].name

        def kernel(*args):
            passes[check] = passes.get(check, 0) + 1
            return fn(*args)

        return chunked(kernel, ctx, *draws, per_case=per_case)

    monkeypatch.setattr(module_impl, "_per_case", counted)
    assert verify_suite(lattice, seed=job["seed"])["pass"]
    assert passes == {"_check_twisted_axioms": 2} | {f"_check_{name}": 1 for name in (
        "localization", "norm_chain", "operator_extension", "janssen", "figa", "imprimitivity", "generators",
        "dual_scaling")}, passes
    assert sum(passes.values()) == 10


@pytest.mark.parametrize("rung", [None, 0, 1, 2], ids=["z48-r2", "z96-192", "z96-weight-3", "z80-160"])
def test_operator_extension_runs_one_gather_per_chunk(rung, monkeypatch):
    # Each chunk of pairs gathers its stacked (eta, gamma) orbits once; theta reads the run tables.
    if rung is None:
        ctx = Z48_R2
    else:
        orders, gens, weight, _, _ = BENCH_SCALE[rung]
        ctx = module_context(subgroup_from_generators(FiniteAbelianGroup(orders), gens, weight))
    cases = 10
    step = max(1, module_impl._CHUNK // module_impl._extension_budget(ctx))
    table = type(ctx.lattice.ambient._table)
    calls = {"gather": 0}
    monkeypatch.setattr(table, "gather", _counting(calls, "gather", table.gather))
    entry = module_impl._check_operator_extension(ctx, *_drawn(ctx, 11, cases, 2))
    assert entry["pass"] and entry["cases"] == cases, entry
    assert calls["gather"] <= -(-cases // step), (calls, step)


def test_generator_check_makes_one_pass_over_its_six_families(monkeypatch):
    # Z24 at |Delta| = 24, frame blocks 6 x 6, split into 24 blocks of 1 x 1. Per window count k = 1, 2, 3:
    # one factor of its two families and one singular-value verdict from it, in closed form (no SVD). For
    # all six families: one eigvalsh and one solve (gabor._duals), one _analyze and one _act.
    ctx = module_context(subgroup_from_generators(FiniteAbelianGroup((24,)), [((4,), (0,)), ((0,), (6,))], 1))
    assert len(ctx.lattice) == 24 and ctx.lattice._tables.runs.frame.shape == (4, 6)
    lapack = {"svd": 0, "eigvalsh": 0, "solve": 0}
    for name in lapack:
        monkeypatch.setattr(np.linalg, name, _counting(lapack, name, getattr(np.linalg, name)))
    calls = {"_factor": 0, "_factor_frames": 0, "_analyze": 0, "_act": 0}
    for name in calls:
        monkeypatch.setattr(module_impl, name, _counting(calls, name, getattr(module_impl, name)))
    gen, recon = module_impl._check_generators(ctx, _randn(splitmix64_stream(5, 13), 24), 1e-9)
    assert gen["pass"] and recon["pass"] and recon["cases"] > 0
    assert calls == {"_factor": 3, "_factor_frames": 3, "_analyze": 1, "_act": 1}, calls
    assert lapack == {"svd": 0, "eigvalsh": 1, "solve": 1}, lapack


def test_generator_witness_gathers_in_window_chunks(monkeypatch):
    # The dense synthesis witness runs per window, _CHUNK // (|Delta| |G|) windows a chunk, one gather
    # each: on the Z80 |Delta| = 160 rung ten windows, two gathers for the twelve. One window a chunk
    # keeps both entries.
    orders, gens, weight, seed, _ = BENCH_SCALE[2]
    ctx = module_context(subgroup_from_generators(FiniteAbelianGroup(orders), gens, weight))
    n = ctx.lattice.ambient.order
    salt = splitmix64_stream(seed ^ 0x5EED, 16)[8]
    draws = _randn(splitmix64_stream(salt, 13), n)  # what verify_suite draws for the check
    table = type(ctx.lattice.ambient._table)
    calls = {"gather": 0}
    monkeypatch.setattr(table, "gather", _counting(calls, "gather", table.gather))
    full = module_impl._check_generators(ctx, draws, 1e-9)
    assert full[1]["cases"] > 0
    assert calls["gather"] <= -(-12 // max(1, module_impl._CHUNK // (len(ctx.lattice) * n))), calls
    monkeypatch.setattr(module_impl, "_CHUNK", 1)
    single = module_impl._check_generators(ctx, draws, 1e-9)
    for a, b in zip(single, full):
        assert (a["name"], a["pass"], a["cases"]) == (b["name"], b["pass"], b["cases"])
        assert abs(a["max_abs_gap"] - b["max_abs_gap"]) <= 1e-13, (a, b)
        assert abs(a["max_rel_gap"] - b["max_rel_gap"]) <= 1e-13, (a, b)


def test_verify_passes_no_block_of_min_dimension_two_to_lapack(monkeypatch):
    # Z20 (10, 0), (0, 2): 10 frame blocks and 10 rep blocks of 2 x 2. norm-chain, the generators' SVD
    # verdict and dual-scaling take the closed forms of twisted._svals and _top_eig; only the frame side
    # of the generators (gabor._bounds, the eigvalsh verdict) keeps LAPACK on such blocks.
    calls = set()
    for name in ("svd", "eigvalsh"):
        def wrapped(a, *args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls.add((_name, traceback.extract_stack(limit=2)[0].name, min(np.shape(a)[-2:])))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapped)
    lattice = subgroup_from_generators(FiniteAbelianGroup((20,)), [((10,), (0,)), ((0,), (2,))], 1)
    runs = lattice._tables.runs
    assert runs.frame.shape == (10, 2) and len(runs.minus) == 2
    assert verify_suite(lattice, seed=1)["pass"]
    assert {(name, caller) for name, caller, dim in calls if dim <= 2} == {("eigvalsh", "_bounds")}, calls


def test_verify_suite_passes_on_z240_with_720_points():
    # Z240 (8, 0), (0, 10): |Delta| = 720, |adjoint| = 80.
    lattice = subgroup_from_generators(FiniteAbelianGroup((240,)), [((8,), (0,)), ((0,), (10,))], 1)
    assert len(lattice) == 720
    report = verify_suite(lattice, seed=1)
    assert report["pass"], [entry for entry in report["identities"] if not entry["pass"]]


def test_verify_suite_passes_on_z16_squared_with_1024_points():
    # Z16^2, time step 2 and frequency step 4 on each axis: |Delta| = 1024, |adjoint| = 256. The gather
    # convolution's associativity gap, 1.39e-11, failed the absolute bound of 1e-11 here; the crossed-product
    # kernel's reads about 4e-12, and the norm model (_ASSOCIATIVITY) decides it at a ratio near 0.01.
    group = FiniteAbelianGroup((16, 16))
    gens = [((2, 0), (0, 0)), ((0, 2), (0, 0)), ((0, 0), (4, 0)), ((0, 0), (0, 4))]
    lattice = subgroup_from_generators(group, gens, 1)
    assert len(lattice) == 1024
    report = verify_suite(lattice, seed=1)
    assert report["pass"], [entry for entry in report["identities"] if not entry["pass"]]
    twisted = next(e for e in report["identities"] if e["name"] == "twisted-axioms")
    assert twisted["max_rel_gap"] <= 0.1 * VERIFY_TOLERANCES["twisted-axioms"], twisted


@pytest.mark.parametrize("rung", [0, 1, 2], ids=["z96-192", "z96-weight-3", "z80-160"])
def test_one_chunk_of_each_dense_check_stays_within_its_budget(rung):
    # twisted-axioms on the lattice and on the adjoint, janssen and operator-extension: one chunk of the cases
    # _per_case gives each, its traced peak within 1/2 to 3/2 of the chunk's cases times the check's own
    # estimate of the complex entries a case keeps alive (_twisted_budget, _janssen_budget, _extension_budget),
    # beside numpy's ufunc buffer, which a broadcast complex product allocates (np.getbufsize() entries, fixed
    # per call). A warm-up call builds the tables first. Operator-extension's gather tables, once per chunk,
    # take a chunk of one pair to about 4/3 of its estimate.
    orders, gens, weight, _, _ = BENCH_SCALE[rung]
    ctx = module_context(subgroup_from_generators(FiniteAbelianGroup(orders), gens, weight))
    n = ctx.lattice.ambient.order
    runs = []
    for domain, flag in ((ctx.lattice, False), (ctx.dual, True)):
        budget = module_impl._twisted_budget(domain)
        step = max(1, module_impl._CHUNK // budget)
        a, b, c = _randn(splitmix64_stream(1, 3 * step), len(domain)).reshape(3, step, -1)
        xi = _randn(splitmix64_stream(2, step), n)
        runs.append((budget * step, partial(module_impl._twisted_gaps, domain, flag, a, b, c, xi)))
    budget = module_impl._janssen_budget(ctx)
    step = max(1, module_impl._CHUNK // budget)
    runs.append((budget * step, partial(module_impl._janssen_gaps, _randn(splitmix64_stream(3, step), n), ctx)))
    budget = module_impl._extension_budget(ctx)
    step = max(1, module_impl._CHUNK // budget)
    eta, gamma = _randn(splitmix64_stream(4, 2 * step), n).reshape(2, step, n)
    runs.append((budget * step, partial(module_impl._extension_gaps, eta, gamma, ctx)))
    for entries, run in runs:
        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.5 * 16 * entries <= peak <= 1.5 * 16 * entries + 16 * np.getbufsize(), (run.func.__name__, peak, entries)


def _bench_rung(rung, weight):
    """A BENCH_SCALE lattice at the given weight, and the twisted-axioms draws of its seed (_twisted_draws).

    Rung 1 is the Z96 weight-3 rung. Its lattice is its own adjoint, so the
    cocycle is 1 on it; on the Z80 rung 2 the cocycle takes non-real values.
    """
    orders, gens, _, seed, _ = BENCH_SCALE[rung]
    ctx = module_context(subgroup_from_generators(FiniteAbelianGroup(orders), gens, weight))
    return ctx, _twisted_draws(ctx, int(splitmix64_stream(seed ^ 0x5EED, 2)[1]))


def _twisted_draws(ctx, salt, cases=8):
    """What verify_suite draws for twisted-axioms from the stream of salt: per case six seeds, a, b and c
    (one row each, as long as the larger domain), then xi on the lattice and on the adjoint."""
    seeds = splitmix64_stream(salt, 6 * cases).reshape(cases, 6)
    coeffs = _randn(seeds[:, :3], max(len(ctx.lattice), len(ctx.dual)))
    return coeffs, _randn(seeds[:, 3:5].T, ctx.lattice.ambient.order)


@pytest.mark.parametrize("weight", [3, Fraction(1, 3)], ids=["w3", "w1/3"])
def test_twisted_axioms_are_decided_on_the_weight_scaled_gap(weight):
    # Sub-gaps of degree d in the domain weight w are divided by max(1, w)^d, with d <= 2; associativity's
    # is its model's ratio, weight-free at every w.
    ctx, draws = _bench_rung(1, weight)
    assert ctx.lattice.weight == ctx.dual.weight == weight
    entry = module_impl._check_twisted_axioms(ctx, *draws)
    raw, scaled = entry["max_abs_gap"], entry["max_rel_gap"]
    assert entry["pass"] and scaled <= 0.2 * VERIFY_TOLERANCES["twisted-axioms"], entry
    if weight > 1:
        assert raw / weight**2 <= scaled < raw
    else:
        assert raw <= 0.2 * VERIFY_TOLERANCES["twisted-axioms"]


def test_associativity_is_decided_on_its_norm_model(monkeypatch):
    # On the Z80 rung the associativity gap reads a fraction of eps w^2 ||a||_2 ||b||_2 ||c||_1; the same
    # draws fail once the model's constant is a thousandth of that fraction, at every weight: the model, not an
    # absolute bound, decides the sub-gap, and it is homogeneous in w.
    for weight in (1, 10**6, Fraction(1, 1000)):
        ctx, draws = _bench_rung(2, weight)
        assert module_impl._check_twisted_axioms(ctx, *draws)["pass"]
        with monkeypatch.context() as patch:
            patch.setattr(module_impl, "_ASSOCIATIVITY", 1e-4)
            entry = module_impl._check_twisted_axioms(ctx, *draws)
        assert not entry["pass"] and entry["max_rel_gap"] > 10 * VERIFY_TOLERANCES["twisted-axioms"], entry


def _flipped(domain, h):
    """The transform (twisted _hat) of conj(x) from that of x: conj(chi_v(t)) = chi_v(-t), so it is conj of
    the transform at the frame coset of -t_beta."""
    tables = domain._tables
    frame, g = tables.runs.frame, tables.group
    coset = np.empty(g.size, dtype=np.int64)
    coset[frame] = np.arange(len(frame))[:, None]
    return np.conj(h[..., coset[g.index(-g.coords[frame[:, 0]])], :])


# Each mutation breaks an identity of the twisted algebra: the involution's phase with the wrong sign,
# the product twisted by the other cocycle while the representation keeps pi (conj(c) on the plain flag:
# conj of the product of conj(a), conj(b), taken between transforms), the product without its weight.
TWISTED_MUTATIONS = {
    "sign": ("_involve", lambda real: lambda domain, flag, a: real(domain, not flag, a)),
    "conjugated-cocycle": ("_crossed", lambda real: lambda domain, ah, bh: _flipped(
        domain, real(domain, _flipped(domain, ah), _flipped(domain, bh)))),
    "dropped-weight": ("_crossed", lambda real: lambda domain, ah, bh: real(domain, ah, bh)
                       / float(domain.weight)),
}


@pytest.mark.parametrize("weight", [3, Fraction(1, 3)], ids=["w3", "w1/3"])
@pytest.mark.parametrize("mutation", sorted(TWISTED_MUTATIONS))
def test_twisted_axioms_catch_mutations_at_any_weight(mutation, weight, monkeypatch):
    name, mutate = TWISTED_MUTATIONS[mutation]
    monkeypatch.setattr(module_impl, name, mutate(getattr(module_impl, name)))
    ctx, draws = _bench_rung(2, weight)
    entry = module_impl._check_twisted_axioms(ctx, *draws)
    assert not entry["pass"] and entry["max_rel_gap"] > 1e-3, entry


def test_flipped_transform_is_the_transform_of_the_conjugate():
    # The conjugated-cocycle mutation's premise, on the Z80 rung and on a small lattice whose runs start
    # off omega_r = 0.
    from heisenmod.twisted import _hat

    rng = np.random.default_rng(8)
    z12 = subgroup_from_generators(FiniteAbelianGroup((12,)), [((2,), (3,)), ((0,), (4,))], 1)
    assert np.any(z12._tables.w[:: len(z12._tables.runs.chi)] != 0)
    for domain in (_bench_rung(2, 1)[0].lattice, z12):
        a = rng.standard_normal((2, len(domain))) + 1j * rng.standard_normal((2, len(domain)))
        assert np.allclose(_flipped(domain, _hat(domain, False, a)), _hat(domain, True, a), atol=1e-12)


def test_janssen_is_decided_on_the_gap_over_the_operator_scale(monkeypatch):
    # Weight 1e6 scales S, and so the rounding of both sides, by 1e6; the decisive gap does not move.
    lattice = subgroup_from_generators(Z4, [((1,), (0,)), ((0,), (2,))], 10**6)
    eta = _randn(splitmix64_stream(5, 10), Z4.order)
    entry = module_impl._check_janssen(module_context(lattice), eta)
    assert entry["max_abs_gap"] > VERIFY_TOLERANCES["janssen"] >= 1e3 * entry["max_rel_gap"], entry
    assert entry["pass"]
    # The Janssen form without the adjoint's weight (2 / lattice weight here) is off by that factor.
    real = module_impl._rep_blocks
    monkeypatch.setattr(module_impl, "_rep_blocks", lambda dom, flag, a: real(dom, flag, a) / float(dom.weight))
    for weight in (10**6, 1, Fraction(1, 3)):
        entry = module_impl._check_janssen(module_context(lattice.with_weight(weight)), eta)
        assert not entry["pass"] and entry["max_rel_gap"] > 1e-3, entry


def test_extension_and_imprimitivity_are_decided_on_the_weight_scaled_gap():
    # Z4 (1, 0), (0, 2) at weight 1e6: both sides of both identities, and their rounding, scale by w.
    lattice = subgroup_from_generators(Z4, [((1,), (0,)), ((0,), (2,))], 10**6)
    report = {e["name"]: e for e in verify_suite(lattice, seed=5)["identities"]}
    for name in ("operator-extension", "imprimitivity"):
        entry = report[name]
        assert entry["max_abs_gap"] > VERIFY_TOLERANCES[name] >= 1e3 * entry["max_rel_gap"], entry
        assert entry["max_rel_gap"] == entry["max_abs_gap"] / 10**6 and entry["pass"], entry
    assert all(e["pass"] for e in report.values()), report


# A theta or an _act without its weight: on Z4 (1, 0), (0, 2) the adjoint's weight is twice the
# lattice's, so an _act that drops both still breaks imprimitivity. At w = 1e6 that leaves two
# weight-free sides, whose gap over w is still far above the tolerance.
EXTENSION_MUTATIONS = {  # (kernel, check, windows per case, mutation)
    "theta": ("_theta", "_check_operator_extension", 2,
              lambda real: lambda rows, gamma, ctx: real(rows, gamma, ctx) / float(ctx.lattice.weight)),
    "act": ("_act", "_check_imprimitivity", 3,
            lambda real: lambda domain, flag, a, xi: real(domain, flag, a, xi) / float(domain.weight)),
}


@pytest.mark.parametrize("weight", [3, Fraction(1, 3), 10**6], ids=["w3", "w1/3", "w1e6"])
@pytest.mark.parametrize("mutation", sorted(EXTENSION_MUTATIONS))
def test_extension_and_imprimitivity_catch_a_dropped_weight(mutation, weight, monkeypatch):
    name, check, slots, mutate = EXTENSION_MUTATIONS[mutation]
    ctx = module_context(subgroup_from_generators(Z4, [((1,), (0,)), ((0,), (2,))], weight))
    assert getattr(module_impl, check)(ctx, *_drawn(ctx, 5, 10, slots))["pass"]
    monkeypatch.setattr(module_impl, name, mutate(getattr(module_impl, name)))
    entry = getattr(module_impl, check)(ctx, *_drawn(ctx, 5, 10, slots))
    assert not entry["pass"] and entry["max_rel_gap"] > 1e4 * VERIFY_TOLERANCES[entry["name"]], entry


# The two Z8^2 jobs at critical density whose frames are ill-conditioned
# (kappa = B/A about 1e5): valid reconstructions that an absolute residual
# bound of 1e-9 rejected.
CRITICAL_Z8 = [
    ([[[8, 0], [0, 0]], [[0, 1], [4, 2]], [[0, 0], [4, 0]], [[0, 0], [0, 2]]], 639174198),
    ([[[8, 0], [0, 0]], [[0, 1], [1, 3]], [[0, 0], [4, 0]], [[0, 0], [0, 2]]], 1294990106),
]


@pytest.mark.parametrize("gens, seed", CRITICAL_Z8)
def test_reconstruction_passes_on_ill_conditioned_critical_frames(gens, seed):
    lattice = subgroup_from_generators(FiniteAbelianGroup((8, 8)), [(tuple(x), tuple(w)) for x, w in gens], 1)
    report = verify_suite(lattice, seed=seed)
    recon = next(e for e in report["identities"] if e["name"] == "reconstruction")
    assert recon["cases"] > 0
    # The premise: a one-window family of the check, drawn as _check_generators draws it from the suite's
    # ninth salt, is a frame with kappa = B/A about 1e5.
    salt = int(splitmix64_stream(seed ^ 0x5EED, 16)[8])
    draws = _randn(splitmix64_stream(salt, 13), 64)[:2]
    bounds = [frame_bounds(GaborSystem(lattice, (Window(lattice.ambient, v),))) for v in draws]
    assert max(b.upper / b.lower for b in bounds) > 1e4, bounds
    assert report["pass"], [e for e in report["identities"] if not e["pass"]]


@pytest.mark.parametrize("orders, gens, seed", [((8, 8),) + CRITICAL_Z8[0], ((6,), [[[2], [0]], [[0], [3]]], 4)])
def test_reconstruction_fails_with_a_wrong_dual(orders, gens, seed, monkeypatch):
    # gamma = eta / B reconstructs only for tight frames; residual / (kappa |xi|) stays large.
    # The check takes its duals, with the frame verdicts and the bounds, from gabor._duals.
    true_duals = module_impl._duals

    def wrong_dual(ops, windows, sub, tol):
        bounds, frames, _ = true_duals(ops, windows, sub, tol)
        return bounds, frames, windows[frames] / bounds[frames, 1, None, None]

    lattice = subgroup_from_generators(FiniteAbelianGroup(orders), [(tuple(x), tuple(w)) for x, w in gens], 1)
    monkeypatch.setattr(module_impl, "_duals", wrong_dual)
    recon = next(e for e in verify_suite(lattice, seed=seed)["identities"] if e["name"] == "reconstruction")
    assert recon["cases"] > 0
    assert not recon["pass"] and recon["max_rel_gap"] > 1e-6, recon


Z12_CTX = module_context(subgroup_from_generators(FiniteAbelianGroup((12,)), [((2,), (0,)), ((0,), (3,))], 1))
WINDOW_ENTRIES = {  # one call per window slot: bad in that slot, good in every other
    "left_inner-xi": lambda bad, good, ctx: left_inner(bad, good, ctx),
    "left_inner-eta": lambda bad, good, ctx: left_inner(good, bad, ctx),
    "right_inner-xi": lambda bad, good, ctx: right_inner(bad, good, ctx),
    "right_inner-eta": lambda bad, good, ctx: right_inner(good, bad, ctx),
    "left_act": lambda bad, good, ctx: left_act(left_inner(good, good, ctx), bad, ctx),
    "right_act": lambda bad, good, ctx: right_act(bad, right_inner(good, good, ctx), ctx),
    "theta_matrix-eta": lambda bad, good, ctx: theta_matrix(bad, good, ctx),
    "theta_matrix-gamma": lambda bad, good, ctx: theta_matrix(good, bad, ctx),
    "module_norm": lambda bad, good, ctx: module_norm(bad, ctx),
    **{f"figa_check-{slot}": (lambda slot: lambda bad, good, ctx: figa_check(
        *(bad if i == slot else good for i in range(4)), ctx))(slot) for slot in range(4)},
    "localization_check-xi": lambda bad, good, ctx: localization_check(bad, good, ctx),
    "localization_check-eta": lambda bad, good, ctx: localization_check(good, bad, ctx),
    "dual_lattice_norm_scaling": lambda bad, good, ctx: dual_lattice_norm_scaling(bad, ctx),
    "module_expansion-xi": lambda bad, good, ctx: module_expansion(bad, [good], ctx),
    "reconstruction_residual-dual": lambda bad, good, ctx: reconstruction_residual(
        GaborSystem(ctx.lattice, (good,)), [bad], good),
    "reconstruction_residual-xi": lambda bad, good, ctx: reconstruction_residual(
        GaborSystem(ctx.lattice, (good,)), [good], bad),
    "frame_like-eta": lambda bad, good, ctx: frame_like(bad, good, ctx.lattice),
    "frame_like-gamma": lambda bad, good, ctx: frame_like(good, bad, ctx.lattice),
    "analysis": lambda bad, good, ctx: analysis(bad, ctx.lattice),
    "synthesis": lambda bad, good, ctx: synthesis(bad, ctx.lattice),
    "shift_orbit": lambda bad, good, ctx: shift_orbit(bad, ctx.lattice),
    "janssen_frame_operator": lambda bad, good, ctx: janssen_frame_operator(bad, ctx.lattice),
}


@pytest.mark.parametrize("orders", [(24,), (3, 4)], ids=["z24", "z3xz4"])
@pytest.mark.parametrize("entry", sorted(WINDOW_ENTRIES))
def test_window_entries_reject_a_window_off_the_lattice_group(orders, entry):
    # On a Z12 lattice a Z24 window would be read at 12 of its entries, and a Z3 x Z4 one, of the same
    # order, at all 12 in the wrong group; every public entry that takes a window rejects both, in each slot.
    bad, good = randn_window(FiniteAbelianGroup(orders), 1), randn_window(Z12_CTX.lattice.ambient, 2)
    with pytest.raises(ValueError, match="window group does not match the subgroup's ambient group"):
        WINDOW_ENTRIES[entry](bad, good, Z12_CTX)


ACTION_CONTEXTS = [CTX4, CTX6, CTX_DIAG, module_context(subgroup_from_generators(Z6, [((2,), (3,))], Fraction(1, 3)))]


@pytest.mark.parametrize("ctx", ACTION_CONTEXTS, ids=["lat4", "lat6", "diag4", "z6-weight-1/3"])
def test_actions_apply_the_integrated_representation(ctx):
    g = ctx.lattice.ambient
    xi = randn_window(g, seed=60)
    a = left_inner(randn_window(g, 61), randn_window(g, 62), ctx)
    b = right_inner(randn_window(g, 63), randn_window(g, 64), ctx)
    left_bound = 1e-13 * np.abs(a.coeffs).sum() * xi.norm()
    right_bound = 1e-13 * np.abs(b.coeffs).sum() * xi.norm()
    assert np.abs(left_act(a, xi, ctx).values - integrated_rep(a) @ xi.values).max() <= left_bound
    assert np.abs(right_act(xi, b, ctx).values - integrated_rep(b) @ xi.values).max() <= right_bound


def test_public_names_are_the_imported_api():
    import heisenmod

    assert heisenmod.__all__ == sorted(
        """FiniteAbelianGroup GroupElement MeasuredSubgroup TFPoint adjoint_subgroup all_subgroups
        character character_vector default_measures full_plane subgroup_from_generators
        trivial_subgroup OperatorMatrix Window const_window delta_window gaussian_stream
        heisenberg_cocycle inner modulate parse_window randn_window splitmix64_stream tf_shift
        tf_shift_adjoint_matrix tf_shift_matrix tf_shift_values translate TwistedSeq cstar_norm
        delta_seq integrated_rep involution l2_localization_inner trace twisted_convolve unit_seq
        FrameBounds GaborSystem NotAFrameError analysis dual_window frame_bounds frame_like
        frame_operator is_frame janssen_frame_operator reconstruction_residual shift_orbit spectrum
        synthesis ModuleContext dual_lattice_norm_scaling figa_check left_act left_inner
        localization_check module_context module_expansion module_frame_check module_norm right_act
        right_inner theta_matrix verify_suite""".split()
    )
