"""Twisted convolution algebras: products, involution, trace, representation."""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heisenmod
from heisenmod import (
    FiniteAbelianGroup,
    MeasuredSubgroup,
    TFPoint,
    TwistedSeq,
    adjoint_subgroup,
    all_subgroups,
    cstar_norm,
    delta_seq,
    full_plane,
    heisenberg_cocycle,
    integrated_rep,
    involution,
    l2_localization_inner,
    splitmix64_stream,
    subgroup_from_generators,
    tf_shift_adjoint_matrix,
    tf_shift_matrix,
    trace,
    trivial_subgroup,
    twisted_convolve,
    unit_seq,
)
from heisenmod.twisted import _convolve
from sweeps import SMALL_GROUPS

Z2 = FiniteAbelianGroup((2,))
Z4 = FiniteAbelianGroup((4,))
Z6 = FiniteAbelianGroup((6,))

PLANE4 = full_plane(Z4, Fraction(1, 4))
LAT4 = subgroup_from_generators(Z4, [((2,), (0,)), ((0,), (2,))], 1)
DUAL2 = adjoint_subgroup(trivial_subgroup(Z2, 1))  # full plane, weight 1/2


def _random_seq(domain, conjugated, seed):
    raw = splitmix64_stream(seed, 2 * len(domain)).astype(np.float64)
    vals = (raw[0::2] - 2.0**63) / 2.0**62 + 1j * (raw[1::2] - 2.0**63) / 2.0**62
    return TwistedSeq(domain, conjugated, vals)


def test_seq_constructor_validation():
    with pytest.raises(ValueError):
        TwistedSeq(PLANE4, False, np.zeros(3))
    a = delta_seq(PLANE4, TFPoint((1,), (0,)))
    with pytest.raises((ValueError, RuntimeError)):
        a.coeffs[0] = 1.0


def test_delta_and_at():
    z = TFPoint((1,), (2,))
    a = delta_seq(PLANE4, z)
    assert a.at(z) == 1.0
    assert a.at(PLANE4.ambient.tf_zero()) == 0.0


def test_delta_convolution_single_cocycle_value():
    # On a counting-weight domain, delta_z * delta_w = kappa(z, w) delta_{z+w}.
    z = TFPoint((1,), (0,))
    w = TFPoint((0,), (1,))
    dom = full_plane(Z4, 1)
    prod = twisted_convolve(delta_seq(dom, z), delta_seq(dom, w))
    expect = heisenberg_cocycle(Z4, z, w)
    assert prod.at(Z4.tf_add(z, w)) == pytest.approx(expect, abs=1e-14)
    # reversed order picks up the conjugate phase: noncommutative
    rev = twisted_convolve(delta_seq(dom, w), delta_seq(dom, z))
    assert rev.at(Z4.tf_add(z, w)) == pytest.approx(heisenberg_cocycle(Z4, w, z), abs=1e-14)
    assert abs(prod.at(Z4.tf_add(z, w)) - rev.at(Z4.tf_add(z, w))) > 1.0


def test_delta_convolution_conjugated_flag():
    dom = full_plane(Z4, 1)
    z = TFPoint((1,), (0,))
    w = TFPoint((0,), (1,))
    prod = twisted_convolve(delta_seq(dom, z, True), delta_seq(dom, w, True))
    expect = np.conj(heisenberg_cocycle(Z4, z, w))
    assert prod.at(Z4.tf_add(z, w)) == pytest.approx(expect, abs=1e-14)


def test_weight_enters_product():
    # weight 1/4 scales each summand of the convolution.
    z = TFPoint((1,), (1,))
    prod = twisted_convolve(delta_seq(PLANE4, z), delta_seq(PLANE4, z))
    kappa = heisenberg_cocycle(Z4, z, z)
    assert prod.at(Z4.tf_add(z, z)) == pytest.approx(0.25 * kappa, abs=1e-14)


def test_unit_element_both_flags():
    for dom in (PLANE4, LAT4, DUAL2):
        for flag in (False, True):
            e = unit_seq(dom, flag)
            assert trace(twisted_convolve(e, e)) == pytest.approx(trace(e), abs=1e-12)
            a = _random_seq(dom, flag, 17)
            assert np.allclose(twisted_convolve(e, a).coeffs, a.coeffs, atol=1e-12)
            assert np.allclose(twisted_convolve(a, e).coeffs, a.coeffs, atol=1e-12)
            assert integrated_rep(e).shape == (dom.ambient.order,) * 2
            assert np.allclose(integrated_rep(e), np.eye(dom.ambient.order), atol=1e-12)


def test_associativity_exhaustive_deltas():
    for dom in (LAT4, DUAL2):
        for flag in (False, True):
            deltas = [delta_seq(dom, z, flag) for z in dom.elements]
            for a in deltas:
                for b in deltas:
                    ab = twisted_convolve(a, b)
                    for c in deltas:
                        lhs = twisted_convolve(ab, c)
                        rhs = twisted_convolve(a, twisted_convolve(b, c))
                        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-13


def test_involution_fixture():
    # (delta_z)^* = conj(kappa(z, -z)) delta_{-z}
    dom = full_plane(Z4, 1)
    z = TFPoint((1,), (1,))
    star = involution(delta_seq(dom, z))
    neg = Z4.tf_neg(z)
    expect = np.conj(heisenberg_cocycle(Z4, z, neg))
    assert star.at(neg) == pytest.approx(expect, abs=1e-14)
    assert star.at(z) == 0.0


def test_involution_laws_random():
    for dom in (PLANE4, LAT4, DUAL2):
        for flag in (False, True):
            a = _random_seq(dom, flag, 23)
            b = _random_seq(dom, flag, 29)
            assert np.allclose(involution(involution(a)).coeffs, a.coeffs, atol=1e-12)
            # (ab)^* = b^* a^*
            lhs = involution(twisted_convolve(a, b))
            rhs = twisted_convolve(involution(b), involution(a))
            assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-11


def test_trace_values():
    assert trace(delta_seq(PLANE4, Z4.tf_zero())) == 1.0
    assert trace(delta_seq(PLANE4, TFPoint((1,), (2,)))) == 0.0
    assert trace(unit_seq(PLANE4)) == 4.0  # 1 / weight
    assert trace(unit_seq(LAT4)) == 1.0


def test_trace_is_tracial_and_positive():
    for dom in (PLANE4, DUAL2):
        for flag in (False, True):
            a = _random_seq(dom, flag, 31)
            b = _random_seq(dom, flag, 37)
            ab = trace(twisted_convolve(a, b))
            ba = trace(twisted_convolve(b, a))
            assert ab == pytest.approx(ba, abs=1e-11)
            pos = trace(twisted_convolve(a, involution(a)))
            assert abs(pos.imag) < 1e-11
            assert pos.real > 0


def test_integrated_rep_fixture_diag():
    # coefficients at (0,0) and (0,2) on the Z_4 plane give diag(2, 0, 2, 0)
    dom = full_plane(Z4, 1)
    coeffs = np.zeros(len(dom), dtype=complex)
    coeffs[dom.index(Z4.tf_zero())] = 1.0
    coeffs[dom.index(TFPoint((0,), (2,)))] = 1.0
    rep = integrated_rep(TwistedSeq(dom, False, coeffs))
    assert np.allclose(rep, np.diag([2.0, 0.0, 2.0, 0.0]), atol=1e-13)
    assert cstar_norm(TwistedSeq(dom, False, coeffs)) == pytest.approx(2.0, abs=1e-12)


def test_integrated_rep_multiplicative_plain_flag():
    # flag False: rep(a * b) = rep(a) rep(b)
    for dom in (LAT4, full_plane(Z4, 1), PLANE4):
        a = _random_seq(dom, False, 41)
        b = _random_seq(dom, False, 43)
        lhs = integrated_rep(twisted_convolve(a, b))
        rhs = integrated_rep(a) @ integrated_rep(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_integrated_rep_reverses_order_conjugated_flag():
    # flag True: rep is built from adjoint shifts and reverses products.
    a = _random_seq(DUAL2, True, 47)
    b = _random_seq(DUAL2, True, 53)
    lhs = integrated_rep(twisted_convolve(a, b))
    rhs = integrated_rep(b) @ integrated_rep(a)
    assert np.max(np.abs(lhs - rhs)) < 1e-11
    # the same-order product genuinely fails on this non-isotropic domain
    wrong = integrated_rep(a) @ integrated_rep(b)
    assert np.max(np.abs(lhs - wrong)) > 1e-3


def test_integrated_rep_star_preserving_both_flags():
    for dom in (PLANE4, DUAL2, LAT4):
        for flag in (False, True):
            a = _random_seq(dom, flag, 59)
            lhs = integrated_rep(involution(a))
            rhs = integrated_rep(a).conj().T
            assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_cstar_norm_properties():
    zero = TwistedSeq(PLANE4, False, np.zeros(len(PLANE4), dtype=complex))
    assert cstar_norm(zero) == 0.0
    assert cstar_norm(unit_seq(PLANE4)) == pytest.approx(1.0, abs=1e-12)
    # faithfulness: nonzero sequences have nonzero norm
    for salt in range(6):
        a = _random_seq(PLANE4, False, 61 + salt)
        assert cstar_norm(a) > 1e-6
    # C*-identity: ||a^* a|| = ||a||^2
    a = _random_seq(DUAL2, True, 67)
    assert cstar_norm(twisted_convolve(involution(a), a)) == pytest.approx(
        cstar_norm(a) ** 2, rel=1e-10
    )


def test_localization_inner_fixtures():
    z = TFPoint((1,), (3,))
    a = delta_seq(PLANE4, z)
    assert l2_localization_inner(a, a) == pytest.approx(0.25, abs=1e-14)  # the weight
    other = delta_seq(PLANE4, TFPoint((2,), (0,)))
    assert l2_localization_inner(a, other) == pytest.approx(0.0, abs=1e-14)
    counting = delta_seq(full_plane(Z4, 1), z)
    assert l2_localization_inner(counting, counting) == pytest.approx(1.0, abs=1e-14)


def test_localization_inner_equals_weighted_pairing():
    for dom in (PLANE4, DUAL2):
        for flag in (False, True):
            a = _random_seq(dom, flag, 71)
            b = _random_seq(dom, flag, 73)
            lhs = l2_localization_inner(a, b)
            rhs = float(dom.weight) * np.sum(a.coeffs * np.conj(b.coeffs))
            assert lhs == pytest.approx(rhs, abs=1e-11)
            direct = trace(twisted_convolve(a, involution(b)))
            assert lhs == pytest.approx(direct, abs=1e-11)


def test_domain_and_flag_mismatch_rejected():
    a = delta_seq(PLANE4, Z4.tf_zero())
    b = delta_seq(full_plane(Z4, 1), Z4.tf_zero())
    flipped = delta_seq(PLANE4, Z4.tf_zero(), True)
    for bad in (b, flipped):
        with pytest.raises(ValueError):
            twisted_convolve(a, bad)
        with pytest.raises(ValueError):
            l2_localization_inner(a, bad)


def test_trace_is_the_coefficient_at_zero_on_every_subgroup():
    for g in SMALL_GROUPS:
        for k, elems in enumerate(all_subgroups(g)):
            dom = MeasuredSubgroup(g, elems, 1)
            a = _random_seq(dom, bool(k % 2), 1000 + k)
            assert trace(a) == a.at(g.tf_zero())


@pytest.mark.parametrize("weight", [Fraction(1), Fraction(1, 3)], ids=["w1", "w1/3"])
def test_fibre_action_matches_integrated_rep_on_every_subgroup(weight):
    from heisenmod.twisted import _act

    for g in SMALL_GROUPS:
        for k, elems in enumerate(all_subgroups(g)):
            dom = MeasuredSubgroup(g, elems, weight)
            raw = splitmix64_stream(500 + k, 2 * g.order).astype(np.float64) / 2.0**63 - 1.0
            xi = raw[0::2] + 1j * raw[1::2]
            for flag in (False, True):
                a = _random_seq(dom, flag, 3000 + k)
                bound = 1e-13 * np.abs(a.coeffs).sum() * np.linalg.norm(xi)
                got = _act(dom, flag, a.coeffs, xi)
                assert np.abs(got - integrated_rep(a) @ xi).max() <= bound, (g.orders, elems, flag)


@pytest.mark.parametrize("weight", [Fraction(1), Fraction(1, 3)], ids=["w1", "w1/3"])
def test_integrated_rep_is_the_weighted_sum_of_shift_matrices_on_every_subgroup(weight):
    # The definition, from the group's shift matrices alone (no lattice table): w sum_z a(z) pi(z) on the
    # plain flag and w sum_z a(z) pi(z)* on the conjugated one. Error model: each entry sums the terms of
    # one time fibre, |Delta_0| products of a coefficient and a unit phase that the run form takes as a
    # product of two roots, so it is off by a few eps * w * sum_z |a(z)|; here 8.
    eps = np.finfo(float).eps
    for g in SMALL_GROUPS:
        for k, elems in enumerate(all_subgroups(g)):
            dom = MeasuredSubgroup(g, elems, weight)
            for flag, shift in ((False, tf_shift_matrix), (True, tf_shift_adjoint_matrix)):
                a = _random_seq(dom, flag, 4000 + k)
                expect = float(weight) * np.tensordot(a.coeffs, np.stack([shift(g, z) for z in elems]), axes=1)
                bound = 8 * eps * float(weight) * np.abs(a.coeffs).sum()
                assert np.abs(integrated_rep(a) - expect).max() <= bound, (g.orders, elems, flag)


def test_fibre_runs_have_equal_length_on_every_subgroup():
    for g in SMALL_GROUPS:
        for elems in all_subgroups(g):
            tables = MeasuredSubgroup(g, elems, 1)._tables
            d0 = int(np.sum(tables.plane < g.order))  # |Delta_0|: points (0, w)
            runs = tables.x.reshape(-1, d0, g.rank)  # raises unless d0 divides |Delta|
            assert np.all(runs == runs[:, :1])  # one time shift per run
            assert len(np.unique(runs[:, 0], axis=0)) == len(runs)  # distinct shifts


def test_kernels_with_a_case_axis_equal_per_case_calls_bit_for_bit():
    from heisenmod.twisted import _act, _convolve, _involve, _rep

    lat = subgroup_from_generators(FiniteAbelianGroup((12,)), [((2,), (3,)), ((0,), (4,))], Fraction(1, 3))
    n = lat.ambient.order
    xi = np.stack([_random_seq(lat, False, 90 + i).coeffs[:n] for i in range(3)])  # |lat| = 36 > n
    for flag in (False, True):
        a = np.stack([_random_seq(lat, flag, 10 + i).coeffs for i in range(3)])
        b = np.stack([_random_seq(lat, flag, 20 + i).coeffs for i in range(3)])
        conv, inv = _convolve(lat, flag, a, b), _involve(lat, flag, a)
        rep, act = _rep(lat, flag, a), _act(lat, flag, a, xi)
        for i in range(3):
            one_a, one_b = TwistedSeq(lat, flag, a[i]), TwistedSeq(lat, flag, b[i])
            assert conv[i].tobytes() == twisted_convolve(one_a, one_b).coeffs.tobytes()
            assert inv[i].tobytes() == involution(one_a).coeffs.tobytes()
            assert rep[i].tobytes() == np.ascontiguousarray(integrated_rep(one_a)).tobytes()
            assert act[i].tobytes() == _act(lat, flag, a[i], xi[i]).tobytes()


def _gather_convolve(domain, conjugated, a, b):
    """The gather convolution, the oracle of the crossed-product kernel: the differences z_k - z_i and the
    cocycle c(z_i, z_k - z_i) = conj(character(tau_k, x_i)) character(tau_i, x_i) as |Delta| x |Delta|
    tables, b gathered by the one and scaled by the other, contracted with a; the conjugated product is conj
    of the plain product of conj(a), conj(b)."""
    tables = domain._tables
    grp, x, w = tables.group, tables.x, tables.w
    sub = np.searchsorted(tables.plane, grp.plane_index(x[None] - x[:, None], w[None] - w[:, None]))
    kappa = grp.roots[(grp.pairing(w, x)[:, None] - grp.pairings(x, w)) % grp.modulus]
    if conjugated:
        a, b = np.conj(a), np.conj(b)
    out = float(domain.weight) * (a[..., None, :] @ (np.take(b, sub, axis=-1) * kappa))[..., 0, :]
    return out.conj() if conjugated else out


def test_gather_oracle_is_the_add_neg_construction_on_every_subgroup():
    # The oracle's difference table is add[neg] of the sums z_i + z_j, and its cocycle the phases of
    # c(z_i, z_j) gathered there: on unit coefficients it is the table of the definition.
    for g in SMALL_GROUPS:
        for elems in all_subgroups(g):
            dom = MeasuredSubgroup(g, elems, 1)
            tables = dom._tables
            grp, x, w = tables.group, tables.x, tables.w
            add = np.searchsorted(tables.plane, grp.plane_index(x[:, None] + x[None], w[:, None] + w[None]))
            cocycle = -grp.pairing(w[None], x[:, None]) % grp.modulus
            sub = add[tables.neg]
            kappa = grp.roots[np.take_along_axis(cocycle, sub, axis=1)]
            eye = np.eye(len(dom))
            for i in range(len(dom)):  # delta_i * b puts kappa[i, k] b(z_k - z_i) at z_k
                b = np.arange(len(dom)) + 1.0
                assert np.array_equal(_gather_convolve(dom, False, eye[i], b), kappa[i] * b[sub[i]]), g.orders


@pytest.mark.parametrize("weight", [1, Fraction(1, 3)], ids=["w1", "w1/3"])
def test_crossed_kernel_matches_the_gather_oracle_on_every_subgroup(weight):
    # Every subgroup of the small groups (sweeps), both flags: non-cyclic Delta_0, runs off omega_r = 0 and the
    # conjugated flag among them. Both sum |Delta| products of unit phases and unit-free operands, so each
    # is within (|Delta| + 3) eps of the exact sum on the scale weight * sum |a| * max |b| (Higham's gamma_n);
    # the two agree to within twice that.
    eps = np.finfo(float).eps
    worst, count = 0.0, 0
    for g in SMALL_GROUPS:
        for k, elems in enumerate(all_subgroups(g)):
            dom = MeasuredSubgroup(g, elems, weight)
            for flag in (False, True):
                a = np.stack([_random_seq(dom, flag, 700 + 2 * k + i).coeffs for i in range(2)])
                b = np.stack([_random_seq(dom, flag, 900 + 2 * k + i).coeffs for i in range(2)])
                scale = float(dom.weight) * np.abs(a).sum(axis=-1) * np.abs(b).max(axis=-1)
                gap = np.abs(_convolve(dom, flag, a, b) - _gather_convolve(dom, flag, a, b)).max(axis=-1)
                assert np.all(gap <= 2 * (len(dom) + 3) * eps * scale), (g.orders, elems, flag, gap, scale)
                worst, count = max(worst, float((gap / scale).max())), count + 1
    assert count > 800 and worst <= 2e-15, (count, worst)


def test_crossed_table_has_delta_runs_entries_and_exact_phases():
    # Z80 at |Delta| = 160 (16 runs of 10) and Z6^2 at |Delta| = 72 (36 runs of 2): the gather index and the
    # phases are (|Delta_0|, runs, runs), |Delta| runs entries each, the phases exact roots of unity.
    for orders, gens, runs in [((80,), [((5,), (30,)), ((0,), (8,))], 16),
                               ((6, 6), [((1, 0), (3, 3)), ((0, 1), (3, 4)), ((0, 0), (6, 0)), ((0, 0), (0, 3))], 36)]:
        dom = subgroup_from_generators(FiniteAbelianGroup(orders), gens, 1)
        gather, phase = dom._tables.crossed
        d0 = len(dom._tables.runs.chi)
        assert gather.shape == phase.shape == (d0, runs, runs) and d0 * runs == len(dom)
        assert gather.min() >= 0 and gather.max() < len(dom)
        assert np.all(np.isin(phase, dom._tables.group.roots))


# The closed forms of _svals and _top_eig against LAPACK. Each singular value may differ from
# np.linalg.svd's by 4 eps times the block's largest: both are backward stable, so each is within a
# few eps of the exact value on that scale (Weyl), however small the other singular values are.
EPS = np.finfo(float).eps
SHAPES = [(1, 1), (5, 1), (1, 5), (2, 2), (6, 2), (2, 7)]  # 1 x 1, k x 1, 1 x k, 2 x 2, m x 2, 2 x n


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _assert_svals_match_lapack(blocks):
    from heisenmod.twisted import _svals

    got, ref = _svals(blocks), np.linalg.svd(blocks, compute_uv=False)
    assert got.shape == ref.shape and np.all(np.isfinite(got))
    bound = 4 * EPS * ref[..., :1]
    assert np.all(np.abs(got - ref) <= bound), np.max(np.abs(got - ref) / np.maximum(ref[..., :1], 1e-300))


def _with_ratio(rng, rows, ratio):
    """A rows x 2 block with singular values 1 and ratio: U[:, :2] diag(1, ratio) V^H, U and V unitary."""
    u, _ = np.linalg.qr(_complex(rng, (rows, rows)))
    v, _ = np.linalg.qr(_complex(rng, (2, 2)))
    return (u[:, :2] * [1.0, ratio]) @ v.conj().T


@pytest.mark.parametrize("shape", SHAPES, ids=[f"{m}x{n}" for m, n in SHAPES])
@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150, 1e200, 1e-200], ids=["1", "1e150", "1e-150", "1e200", "1e-200"])
def test_svals_match_lapack_on_seeded_stacks(shape, scale):
    rng = np.random.default_rng(sum(shape))
    blocks = scale * _complex(rng, (3, 4) + shape)
    blocks[0, 0] = 0.0  # a zero block
    blocks[0, 1] = 0.0
    blocks[0, 1, ..., 0, 0] = scale  # one nonzero entry
    if min(shape) == 2:
        long = np.swapaxes(blocks, -1, -2) if shape[0] < shape[1] else blocks
        long[1, 0, :, 1] = (0.5 - 2j) * long[1, 0, :, 0]  # exactly singular: parallel columns
        long[1, 1, :, 0] = 0.0  # a zero column beside a nonzero one
        for j, ratio in enumerate([1 - 1e-9, 1e-6, 1e-12, 1.0]):
            long[2, j] = scale * _with_ratio(rng, long.shape[-2], ratio)
    _assert_svals_match_lapack(blocks)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(SHAPES), st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.sampled_from([0, 150, -150, 200, -200]), st.sampled_from([None, 1 - 1e-9, 1e-6, 1e-12, 0.0]))
def test_svals_match_lapack_on_drawn_stacks(shape, rows, seed, exponent, ratio):
    rng = np.random.default_rng(seed)
    shape = tuple(rows if side > 2 else side for side in shape)  # the long side drawn, 1 or 2 kept
    blocks = _complex(rng, (2,) + shape)
    if ratio is not None and min(shape) == 2:
        block = _with_ratio(rng, max(shape), ratio)
        blocks[1] = block if shape[0] >= shape[1] else block.T
    _assert_svals_match_lapack(10.0**exponent * blocks)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_top_eig_matches_eigvalsh(n):
    from heisenmod.twisted import _top_eig

    rng = np.random.default_rng(n)
    rows = _complex(rng, (4, 5, n, 3))
    grams = rows @ np.swapaxes(rows, -1, -2).conj()  # positive semidefinite
    grams[0, 0] = 0.0
    grams[1] = grams[1] - 3 * np.eye(n)  # indefinite
    grams[2] *= 1e150
    grams[3] *= 1e-150
    got, ref = _top_eig(grams), np.linalg.eigvalsh(grams)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - ref[..., -1]) <= 4 * EPS * np.abs(ref).max(axis=-1))


def test_svd_appears_in_the_package_only_inside_svals():
    # Every singular value of the package goes through one kernel, which keeps LAPACK for blocks whose
    # closed form it does not have.
    sites = []
    for path in sorted(Path(heisenmod.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {id(node) for func in ast.walk(tree) if isinstance(func, ast.FunctionDef) and func.name == "_svals"
                  for node in ast.walk(func)}
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else node.name if isinstance(node, ast.alias) else ""
            if "svd" in name:
                sites.append((path.name, id(node) in inside))
    assert sites == [("twisted.py", True)]


def test_run_table_shift_appears_in_the_package_only_inside_base_rows():
    # One run-table shift: the gather by runs.minus, then the base phases, is _base_rows, which _act and
    # the frame factor call, the factor with its selection of runs. runs.minus in any form other than its
    # length or shape, a subscripted minus[...] included, is read there and where the tables are built
    # (groups: the run table, the rep cosets and their gather, and the crossed-product table), and by the dense
    # integrated_rep, which scatters the fibre sums to it (_rep). The Delta_0 characters are read as one
    # |Delta_0| x |Delta_0| table: no function gathers them per point through pos.
    shifts, reads, per_point = set(), set(), set()
    for path in sorted(Path(heisenmod.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {id(child): node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Call) and ast.unparse(node.func) == "np.take" and len(node.args) > 1
                        and "minus" in ast.unparse(node.args[1])):
                    shifts.add((path.name, func.name))
                if (isinstance(node, ast.Name) and node.id == "minus"
                        or isinstance(node, ast.Attribute) and node.attr == "minus"):
                    up = parent[id(node)]
                    sized = (isinstance(up, ast.Call) and ast.unparse(up.func) == "len"
                             or isinstance(up, ast.Attribute) and up.attr == "shape")
                    if not sized:
                        reads.add((path.name, func.name))
                if (isinstance(node, ast.Subscript) and ast.unparse(node.value).endswith("chi")
                        and "pos" in ast.unparse(node.slice)):
                    per_point.add((path.name, func.name))
    assert shifts == {("twisted.py", "_base_rows")}
    assert reads == {("twisted.py", "_base_rows"), ("twisted.py", "_rep"), ("groups.py", "runs"),
                     ("groups.py", "rep"), ("groups.py", "rep_gather"), ("groups.py", "crossed")}, reads
    assert not per_point


def test_split_has_one_definition_and_no_numerical_eigenbasis():
    # The split's basis is exact, read from integer tables: the package calls no eig or eigh. Its change of
    # basis is one function, groups._split, which the frame factor, the dual solve and the rep side call.
    definitions, callers, eig = [], set(), []
    for path in sorted(Path(heisenmod.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in {"eig", "eigh"}:
                eig.append((path.name, ast.unparse(node)))
            if isinstance(node, ast.FunctionDef) and node.name == "_split":
                definitions.append(path.name)
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                if any(isinstance(node, ast.Call) and ast.unparse(node.func) == "_split" for node in ast.walk(func)):
                    callers.add((path.name, func.name))
    assert not eig
    assert definitions == ["groups.py"]
    assert callers == {("gabor.py", "_factor"), ("gabor.py", "_duals"), ("twisted.py", "_split_rep_blocks")}
