"""Property tests of lattices, shifts and twisted algebras against naive references.

The references are written here from the definitions, with exact integer
phases: character(w, x) = exp(2 pi i m / L) with m = sum_j w_j x_j L / n_j
mod L and L the lcm of the factor orders. Hypothesis draws groups of rank at
most 3 with |G| <= 64 and random generator sets, derandomized so every run
sees the same examples. The twisted references loop over |Delta|^2 in Python,
so those properties draw |G| <= 16; the reference orbits loop over
|Delta| |G|, so the run-form property draws |G| <= 32.
"""

import cmath
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenmod import (
    FiniteAbelianGroup,
    GaborSystem,
    MeasuredSubgroup,
    TFPoint,
    TwistedSeq,
    Window,
    adjoint_subgroup,
    dual_window,
    frame_bounds,
    frame_operator,
    integrated_rep,
    involution,
    shift_orbit,
    spectrum,
    subgroup_from_generators,
    twisted_convolve,
)
from heisenmod import gabor
from heisenmod.twisted import _rep_blocks, _split_rep_blocks, _svals

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)


@st.composite
def lattices(draw, max_order=64):
    """A group of rank <= 3 with |G| <= max_order and the subgroup of a random generator set."""
    orders = []
    for _ in range(draw(st.integers(1, 3))):
        orders.append(draw(st.integers(1, max(1, max_order // math.prod(orders)))))
    group = FiniteAbelianGroup(tuple(orders))
    coord = st.tuples(*(st.integers(0, n - 1) for n in orders))
    gens = draw(st.lists(st.tuples(coord, coord), max_size=4))
    return group, gens


@st.composite
def sheared(draw, max_side=6):
    """Z_n^2 and a lattice {(x, T x + y)} as the benchmark's ladder draws them: x on time steps a, y on
    frequency steps b (divisors of n), T a random symmetric shear."""
    n = draw(st.integers(2, max_side))
    step = st.sampled_from([d for d in range(1, n + 1) if n % d == 0])
    a, b, (p, q, r) = (draw(step), draw(step)), (draw(step), draw(step)), (draw(st.integers(0, n - 1)) for _ in "pqr")
    gens = [((a[0], 0), (p * a[0] % n, q * a[0] % n)), ((0, a[1]), (q * a[1] % n, r * a[1] % n)),
            ((0, 0), (b[0], 0)), ((0, 0), (0, b[1]))]
    return FiniteAbelianGroup((n, n)), gens


def _modulus(group):
    return math.lcm(*group.orders)


def _phase(group, w, x):
    big = _modulus(group)
    return sum(wj * xj * (big // n) for wj, xj, n in zip(w, x, group.orders)) % big


def _char(group, w, x):
    return cmath.exp(2j * math.pi * _phase(group, w, x) / _modulus(group))


def _sub(group, a, b):
    return tuple((u - v) % n for u, v, n in zip(a, b, group.orders))


def _cocycle(group, z, u):
    return _char(group, u[1], z[0]).conjugate()


def _elements(group):
    return list(itertools.product(*(range(n) for n in group.orders)))


def _shift_ref(group, z, values):
    index = {t: i for i, t in enumerate(_elements(group))}
    return np.array([_char(group, z[1], t) * values[index[_sub(group, t, z[0])]] for t in _elements(group)])


def _closure_ref(group, gens):
    """Breadth-first closure of the generators in the plane."""
    zero = group.tf_zero()
    points = [TFPoint(group.reduce(x), group.reduce(w)) for x, w in gens]
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for z in frontier:
            for g in points:
                s = group.tf_add(z, g)
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return sorted(seen)


def _kappa(group, z, u, conjugated):
    c = _cocycle(group, z, u)
    return c.conjugate() if conjugated else c


def _random_coeffs(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@PROPERTY
@given(lattices())
def test_closure_matches_breadth_first_reference(case):
    group, gens = case
    sub = subgroup_from_generators(group, gens, 1)
    assert list(sub.elements) == _closure_ref(group, gens)
    assert sub.size * sub.weight * len(sub) == group.order


@PROPERTY
@given(lattices())
def test_adjoint_order_and_double_adjoint(case):
    group, gens = case
    sub = subgroup_from_generators(group, gens, 1)
    adj = adjoint_subgroup(sub)
    assert len(sub) * len(adj) == group.order**2
    assert adjoint_subgroup(adj).elements == sub.elements
    for y, tau in adj.elements[:4]:
        for x, w in sub.elements:
            assert _char(group, tau, x) == pytest.approx(_char(group, w, y), abs=1e-12)


@PROPERTY
@given(lattices(), st.integers(0, 2**31))
def test_shift_orbit_rows_match_definition(case, seed):
    group, gens = case
    sub = subgroup_from_generators(group, gens, 1)
    eta = Window(group, _random_coeffs(group.order, seed))
    orbit = shift_orbit(eta, sub)
    for k, z in enumerate(sub.elements[:16]):
        assert np.allclose(orbit[k], _shift_ref(group, z, eta.values), atol=1e-12)


def _basis(sub):
    """The split's basis W from its table (groups _SplitTable), rows in the order of G, columns by frame
    coset, orbit and character, and the columns of each split block (coset, psi) as rows of an index."""
    tables, n = sub._tables, sub.ambient.order
    split = tables.split
    chars = len(split.chars)
    members = tables.runs.frame.ravel()[split.order].reshape(-1, chars)
    basis = np.zeros((n, n), dtype=complex)
    basis[members[:, :, None], np.arange(n).reshape(-1, 1, chars)] = (split.phase.conj().reshape(-1, chars, 1)
                                                                     * split.chars.T.conj())
    blocks = len(tables.runs.chi)
    return basis, np.arange(n).reshape(blocks, -1, chars).transpose(0, 2, 1).reshape(blocks * chars, -1)


def _coset_leaders_ref(sub):
    """The least time shift of each coset of H' in X(Delta), in ascending order, and |H'|, from the
    definitions: H the time shifts x of Delta with character(v, x) = 1 for every (0, v) in Delta, H' those
    h in H whose shift pi(h, omega_h) commutes with pi(k, omega_k) for every k in H."""
    group, omega = sub.ambient, {}
    for x, w in sub.elements:
        omega.setdefault(x, w)
    zero = [w for x, w in sub.elements if x == group.zero()]
    h = [x for x in omega if all(_phase(group, v, x) == 0 for v in zero)]
    hp = [x for x in h if all(_phase(group, omega[x], k) == _phase(group, omega[k], x) for k in h)]
    leaders = {min((group.add(x, y) for y in hp), key=group.index) for x in omega}
    return sorted(leaders, key=group.index), len(hp)


@PROPERTY
@given(lattices(max_order=32), st.integers(0, 2**31))
def test_run_form_analysis_and_frame_blocks_match_reference_orbits(case, seed):
    # Error model: an analysis coefficient sums |G| products, a frame-block entry |Delta| products, each of
    # two window entries and unit phases; the run form sums them in another order and takes phases as
    # products of two roots, so by Higham's gamma_n bounds the gap is at most c * n * eps times the sum of
    # the products' moduli, n the number of terms; c = 4. The frame blocks are split (gabor _factor): the
    # reference orbit goes through the split's basis W, each entry a sum of |H'| terms more, counted in n
    # and in the moduli.
    group, gens = case
    sub = subgroup_from_generators(group, gens, 2)
    xi, eta = _random_coeffs(group.order, seed), _random_coeffs(group.order, seed + 1)
    orbit = np.array([_shift_ref(group, z, eta) for z in sub.elements])
    eps = np.finfo(float).eps
    gap = np.abs(gabor._analyze(xi, eta, sub) - orbit.conj() @ xi)
    assert np.all(gap <= 4 * group.order * eps * (np.abs(orbit) @ np.abs(xi))), gap.max()
    basis, index = _basis(sub)
    rows, moduli = orbit @ basis.conj(), np.abs(orbit) @ np.abs(basis)
    dense = 2 * (rows.T @ rows.conj())[index[:, :, None], index[:, None, :]]
    moduli = 2 * (moduli.T @ moduli)[index[:, :, None], index[:, None, :]]
    gap = np.abs(gabor._gram(*gabor._factor(eta[None], sub)) - dense)
    terms = len(sub) + 2 * len(sub._tables.split.chars)
    assert np.all(gap <= 4 * terms * eps * moduli), gap.max()


@PROPERTY
@given(st.one_of(lattices(max_order=32), sheared()), st.integers(0, 2**31))
def test_split_is_exact_on_the_lattice_and_its_adjoint(case, seed):
    # The split's basis is unitary and block-diagonalises the frame operator to rounding (the dense frame
    # operator through W leaks <= 1e-14 relative off the split blocks); the split's reps are the least run
    # of each coset of H'; the spectrum of the quotient frame blocks (gabor _factor) is the dense one, the
    # duals the dense solve within gabor's error model (4 eps sqrt|G| B / A), and the quotient rep blocks
    # have every singular value of the unsplit ones within 16 eps of the largest (a few eps on each side
    # and the change of basis's |H'| terms). Both the lattice and its adjoint, sheared ones included.
    group, gens = case
    lattice = subgroup_from_generators(group, gens, 1)
    eps, n = np.finfo(float).eps, group.order
    rng = np.random.default_rng(seed)
    for sub, dual in ((lattice, adjoint_subgroup(lattice)), (adjoint_subgroup(lattice), lattice)):
        leaders, count = _coset_leaders_ref(sub)
        runs = sub._tables.x[:: len(sub._tables.runs.chi)]  # the runs' time shifts, ascending
        assert [tuple(x) for x in runs[sub._tables.split.reps].tolist()] == leaders
        assert len(sub._tables.split.chars) == count
        basis, index = _basis(sub)
        assert np.abs(basis.conj().T @ basis - np.eye(n)).max() <= 1e-14
        windows = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        system = GaborSystem(sub, tuple(Window(group, v) for v in windows))
        dense = frame_operator(system)
        full = basis.conj().T @ dense @ basis
        inside = np.zeros((n, n), dtype=bool)
        inside[index[:, :, None], index[:, None, :]] = True
        assert np.abs(full[~inside]).max(initial=0.0) <= 1e-14 * np.abs(dense).max()
        expect = np.linalg.eigvalsh(dense)[::-1]
        assert np.abs(spectrum(system) - expect).max() <= 1e-14 * max(expect[0], 1e-300)
        bounds = frame_bounds(system)
        if bounds.lower > 1e-9 * max(bounds.upper, 1.0):
            solved = np.linalg.solve(dense, windows.T)
            duals = np.stack([gamma.values for gamma in dual_window(system)], axis=1)
            tol = 4 * eps * np.sqrt(n) * bounds.upper / bounds.lower
            assert np.linalg.norm(duals - solved) <= tol * np.linalg.norm(solved)
        a = rng.standard_normal(len(sub)) + 1j * rng.standard_normal(len(sub))
        expect = np.sort(np.linalg.svd(_rep_blocks(sub, False, a), compute_uv=False), axis=None)
        got = np.sort(_svals(_split_rep_blocks(sub, False, a, dual)), axis=None)
        assert np.abs(got - expect).max() <= 16 * eps * expect[-1]


@PROPERTY
@given(lattices(max_order=16), st.booleans(), st.integers(0, 2**31))
def test_twisted_convolve_and_involution_match_definition(case, conjugated, seed):
    group, gens = case
    sub = subgroup_from_generators(group, gens, 2)
    a = TwistedSeq(sub, conjugated, _random_coeffs(len(sub), seed))
    b = TwistedSeq(sub, conjugated, _random_coeffs(len(sub), seed + 1))
    pos = {z: i for i, z in enumerate(sub.elements)}
    conv = np.zeros(len(sub), dtype=complex)
    star = np.zeros(len(sub), dtype=complex)
    for z in sub.elements:
        for w in sub.elements:
            rest = TFPoint(_sub(group, z.x, w.x), _sub(group, z.w, w.w))
            conv[pos[z]] += 2 * _kappa(group, w, rest, conjugated) * a.coeffs[pos[w]] * b.coeffs[pos[rest]]
        neg = group.tf_neg(z)
        star[pos[z]] = (_kappa(group, z, neg, conjugated) * a.coeffs[pos[neg]]).conjugate()
    assert np.allclose(twisted_convolve(a, b).coeffs, conv, atol=1e-10)
    assert np.allclose(involution(a).coeffs, star, atol=1e-12)


@PROPERTY
@given(lattices(max_order=16), st.booleans(), st.integers(0, 2**31))
def test_integrated_rep_matches_definition(case, conjugated, seed):
    group, gens = case
    sub = subgroup_from_generators(group, gens, 3)
    a = TwistedSeq(sub, conjugated, _random_coeffs(len(sub), seed))
    index = {t: i for i, t in enumerate(_elements(group))}
    ref = np.zeros((group.order, group.order), dtype=complex)
    for k, (x, w) in enumerate(sub.elements):
        for t, i in index.items():
            # pi(z) has character(w, t) at row t, column t - x; pi(z)* is its conjugate transpose.
            j = index[_sub(group, t, x)]
            if conjugated:
                ref[j, i] += a.coeffs[k] * _char(group, w, t).conjugate()
            else:
                ref[i, j] += a.coeffs[k] * _char(group, w, t)
    assert np.allclose(integrated_rep(a), 3 * ref, atol=1e-10)


@PROPERTY
@given(lattices(), st.data())
def test_non_closed_point_sets_are_rejected(case, data):
    group, gens = case
    sub = subgroup_from_generators(group, gens, 1)
    elems = list(sub.elements)
    if len(sub) == 1:
        return  # {0, z} is a subgroup whenever 2z = 0
    drop = data.draw(st.integers(1, len(sub) - 1))
    with pytest.raises(ValueError):
        MeasuredSubgroup(group, tuple(elems[:drop] + elems[drop + 1 :]), 1)
    outside = sorted(set(group.tf_points()) - set(elems))
    if outside:
        extra = data.draw(st.sampled_from(outside))
        with pytest.raises(ValueError):
            MeasuredSubgroup(group, tuple(elems + [extra]), 1)


@pytest.mark.parametrize(
    "orders, a, b",
    [((240,), 4, 3), ((240,), 2, 1), ((16, 16), 2, 4), ((16, 16), 1, 2)],
)
def test_scale_lattices_build_and_adjoin_quickly(orders, a, b):
    # Steps a on every time axis and b on every frequency axis: |Delta| = prod (n/a)(n/b).
    group = FiniteAbelianGroup(orders)
    rank = len(orders)
    unit = [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
    zero = (0,) * rank
    gens = [(tuple(a * v for v in e), zero) for e in unit] + [(zero, tuple(b * v for v in e)) for e in unit]
    start = time.perf_counter()
    sub = subgroup_from_generators(group, gens, 1)
    adj = adjoint_subgroup(sub)
    elapsed = time.perf_counter() - start
    expect = math.prod((n // a) * (n // b) for n in orders)
    assert len(sub) == expect
    assert len(adj) == group.order**2 // expect
    assert elapsed < 1.0
