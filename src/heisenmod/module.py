"""The Heisenberg module on C^G: inner products, actions, norms, frames, and identity checks.

C^G is a bimodule: the twisted algebra on a lattice Delta acts on the left
through the integrated representation, the conjugate-twisted algebra on the
adjoint lattice acts on the right. The module inner products are correlation
functions,

    left_inner(xi, eta)(z) = <xi, pi(z) eta>        (z in Delta),
    right_inner(xi, eta)(w) = <pi(w) eta, xi>       (w in the adjoint),

and the module norm of a window is the square root of the largest
frame-operator eigenvalue. Both actions apply the integrated representation
in O(|Delta| |G|) through its time-fibre form, building no |G| x |G| matrix.
Every identity this layer exposes (localization, norm chain, operator
extension, imprimitivity, FIGA, generator/frame equivalence, adjoint-lattice
norm scaling) can be verified numerically through verify_suite, which reports
per-identity gap maxima. verify_suite derives every check's seeds in one
stream call and draws their windows in four (see verify_suite); each check
runs its cases, stacked, through the kernels the per-object functions run on
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gabor import (FrameBounds, GaborSystem, _analyze, _bounds, _by_block, _duals, _dual_window, _factor,
                    _factor_frames, _gram, _orbit, _require_windows, _windows, analysis)
from .groups import FiniteAbelianGroup, MeasuredSubgroup, adjoint_subgroup
from .shifts import Window, _randn, splitmix64_stream
from .twisted import (TwistedSeq, _act, _base_rows, _crossed, _hat, _involve, _rep_blocks, _split_rep_blocks, _svals,
                      _top_eig, _unhat)


@dataclass(frozen=True)
class ModuleContext:
    """A lattice together with its adjoint, fixing both module actions.

    The adjoint carries weight 1/size(lattice); the left algebra is the
    lattice with the plain cocycle, the right algebra the adjoint with the
    conjugated one.
    """

    lattice: MeasuredSubgroup
    dual: MeasuredSubgroup

    def __post_init__(self) -> None:
        expected = adjoint_subgroup(self.lattice)
        if self.dual != expected:
            raise ValueError("dual lattice does not match the adjoint of the primal lattice")


def module_context(lattice: MeasuredSubgroup) -> ModuleContext:
    return ModuleContext(lattice, adjoint_subgroup(lattice))


def left_inner(xi: Window, eta: Window, ctx: ModuleContext) -> TwistedSeq:
    """Lattice-side inner product: coefficient at z is <xi, pi(z) eta>."""
    _require_windows(ctx.lattice, xi, eta)
    return TwistedSeq(ctx.lattice, False, _analyze(xi.values, eta.values, ctx.lattice))


def right_inner(xi: Window, eta: Window, ctx: ModuleContext) -> TwistedSeq:
    """Adjoint-side inner product: coefficient at w is <pi(w) eta, xi>."""
    _require_windows(ctx.lattice, xi, eta)
    return TwistedSeq(ctx.dual, True, _analyze(xi.values, eta.values, ctx.dual).conj())


def left_act(a: TwistedSeq, xi: Window, ctx: ModuleContext) -> Window:
    """Left action of the lattice algebra: integrated_rep(a) @ xi in time-fibre form, no matrix built."""
    if a.conjugated or a.domain != ctx.lattice:
        raise ValueError("left action needs an unconjugated sequence on the lattice")
    _require_windows(ctx.lattice, xi)
    return Window(xi.group, _act(ctx.lattice, False, a.coeffs, xi.values))


def right_act(xi: Window, b: TwistedSeq, ctx: ModuleContext) -> Window:
    """Right action of the adjoint algebra (conjugated cocycle, adjoint shifts), in time-fibre form."""
    if not b.conjugated or b.domain != ctx.dual:
        raise ValueError("right action needs a conjugated sequence on the adjoint lattice")
    _require_windows(ctx.lattice, xi)
    return Window(xi.group, _act(ctx.dual, True, b.coeffs, xi.values))


def module_norm(eta: Window, ctx: ModuleContext) -> float:
    """Module norm: square root of the largest frame-operator eigenvalue."""
    _require_windows(ctx.lattice, eta)
    return float(_norms(eta.values, ctx.lattice))


def _norms(eta: np.ndarray, sub: MeasuredSubgroup) -> np.ndarray:
    """module_norm per case of (..., |G|) windows, from the stacked spectra of the frame-operator blocks."""
    return _factor_norms(*_factor(eta[..., None, :], sub))


def _factor_norms(factor: np.ndarray, scale: float) -> np.ndarray:
    """_norms from the windows' Zak-form factor (gabor _factor).

    Block b of the frame operator is scale * F_b^T conj(F_b), F_b the factor block; with fewer runs
    than columns the smaller scale * conj(F_b) F_b^T, which has the same nonzero spectrum, stands in.
    """
    if factor.shape[-2] < factor.shape[-1]:
        factor = np.swapaxes(factor, -1, -2).conj()  # _gram of F_b^H is scale * conj(F_b) F_b^T
    return np.sqrt(np.maximum(_top_eig(_gram(factor, scale)).max(axis=-1), 0.0))


def module_frame_check(
    windows: list[Window] | tuple[Window, ...],
    ctx: ModuleContext,
    tol: float = 1e-9,
) -> dict:
    """Generating-set verdict and frame bounds for a finite window family, from one Zak-form factor.

    The verdict comes from the factor's singular values (_factor_frames), the
    algebraic route; the bounds come from the eigenvalues of the frame blocks,
    its Gram, so the two answers are computed by different routes and must agree.
    """
    sys = GaborSystem(ctx.lattice, tuple(windows))
    factor, scale = _factor(_windows(sys)[None], sys.lattice)
    bounds = FrameBounds(*_bounds(_gram(factor, scale))[0].tolist())
    return {"generating": bool(_factor_frames(factor, scale, tol)[0]), "bounds": bounds}


def module_expansion(
    xi: Window,
    windows: list[Window] | tuple[Window, ...],
    ctx: ModuleContext,
    tol: float = 1e-9,
) -> list[TwistedSeq]:
    """Expansion coefficients a_j = left_inner(xi, S^{-1} eta_j) from one factor; error when not generating."""
    sys = GaborSystem(ctx.lattice, tuple(windows))
    _require_windows(ctx.lattice, xi)
    factor = _factor(_windows(sys)[None], sys.lattice)
    if not _factor_frames(*factor, tol)[0]:
        raise ValueError("window family does not generate the module; no expansion exists")
    return [left_inner(xi, gamma, ctx) for gamma in _dual_window(sys, tol, factor)[0]]


def localization_check(xi: Window, eta: Window, ctx: ModuleContext) -> dict:
    """Trace of the module inner products against the plain l2 pairing.

    All three returned values agree: the lattice-side trace, the direct
    pairing, and the adjoint-side trace.
    """
    _require_windows(ctx.lattice, xi, eta)
    lhs, rhs, via_right = (complex(v) for v in _localization(xi.values, eta.values, ctx))
    return {"lhs": lhs, "rhs": rhs, "via_right": via_right}


def _localization(xi: np.ndarray, eta: np.ndarray, ctx: ModuleContext) -> tuple[np.ndarray, ...]:
    """trace(left_inner(xi, eta)), <xi, eta> and trace(right_inner(eta, xi)) per case."""
    lhs = _analyze(xi, eta, ctx.lattice)[..., 0]
    via_right = _analyze(eta, xi, ctx.dual)[..., 0].conj()
    return lhs, (xi * eta.conj()).sum(axis=-1), via_right


def figa_check(eta: Window, gamma: Window, xi: Window, psi: Window, ctx: ModuleContext) -> dict:
    """Both sides of the fundamental identity of Gabor analysis.

    The lattice side carries the lattice weight; the adjoint side is a
    counting sum with the explicit 1/size prefactor.
    """
    _require_windows(ctx.lattice, eta, gamma, xi, psi)
    lhs, rhs = (complex(v) for v in _figa(eta.values, gamma.values, xi.values, psi.values, ctx))
    gap = abs(lhs - rhs)
    return {"lhs": lhs, "rhs": rhs, "abs_gap": gap, "rel_gap": gap / (1.0 + abs(lhs))}


def _figa(eta, gamma, xi, psi, ctx: ModuleContext) -> tuple[np.ndarray, np.ndarray]:
    """Lattice and adjoint sides of FIGA per case of (..., |G|) windows."""
    lat, adj = ctx.lattice, ctx.dual
    lhs = lat.float_weight * (_analyze(eta, gamma, lat) * _analyze(psi, xi, lat).conj()).sum(axis=-1)
    rhs = adj.float_weight * (_analyze(xi, gamma, adj) * _analyze(psi, eta, adj).conj()).sum(axis=-1)  # 1 / size
    return lhs, rhs


def theta_matrix(eta: Window, gamma: Window, ctx: ModuleContext) -> np.ndarray:
    """Matrix of xi -> left_act(left_inner(xi, eta), gamma).

    left_inner(delta_t, eta) is column t of the dense analysis matrix, and
    column t of theta is left_act's time-fibre form applied to it, the
    integrated-representation route that frame_like does not take. theta
    commutes with the lattice shifts, so it is block diagonal over the frame
    cosets: _theta gives its blocks, one case, and every other entry is zero.
    """
    _require_windows(ctx.lattice, eta, gamma)
    frame, n = ctx.lattice._tables.runs.frame, ctx.lattice.ambient.order
    rows = np.take(analysis(eta, ctx.lattice), frame.ravel(), axis=-1)
    theta = np.zeros((n, n), dtype=np.complex128)
    theta[frame[:, :, None], frame[:, None, :]] = _theta(rows[None], gamma.values[None], ctx)[0]
    return theta


def _theta(rows: np.ndarray, gamma: np.ndarray, ctx: ModuleContext) -> np.ndarray:
    """theta_matrix's blocks per case of (cases, |Delta|, |G|) analysis matrices of eta, columns in frame-coset
    order, and (cases, |G|) gammas: (cases, |Delta_0|, size, size), block b theta on the rows and columns of
    frame coset b, members in the order of runs.frame.

    Column t is _act of column t of rows: weight * sum_r roots[base_r] gamma(s - x_r) Z_r(s), with
    Z_r(s) = sum_v rows[(r, v), t] chi_v(s) over the run's points (x_r, omega_r + v). Each Delta_0
    character chi_v is constant on a frame coset (groups), so for s and t on coset b, Z[r, b, t] = sum_v
    chi[v, b] rows[(r, v), t]: the rows placed by pos, as _zero_sums places its coefficients, against chi's
    column b on coset b's own columns. Theta on coset b is then weight F_b(gamma)^T Z[:, b] (the unsplit
    factor, gabor _by_block): runs |G|^2 / |Delta_0| + |Delta| |G| products in all.
    """
    lat, runs = ctx.lattice, ctx.lattice._tables.runs
    cases, points, (blocks, size) = len(rows), len(ctx.lattice), runs.frame.shape
    placed = np.empty((cases, blocks, points, size), dtype=np.complex128)  # [case, b, (r, v), j]
    placed[:, :, runs.pos] = np.swapaxes(rows.reshape(cases, points, blocks, size), 1, 2)
    shape = (cases, blocks, len(runs.minus), len(runs.chi), size)
    zak = (runs.chi.T[:, None, None, :] @ placed.reshape(shape))[..., 0, :]  # (cases, blocks, runs, size)
    factor = _by_block(_base_rows(gamma[:, None, :], lat), blocks)  # (cases, blocks, runs, size), unsplit
    factor *= lat.float_weight
    return np.swapaxes(factor, -1, -2) @ zak


def dual_lattice_norm_scaling(eta: Window, ctx: ModuleContext) -> dict:
    """Module norms of one window over the lattice and over its adjoint.

    The adjoint is re-measured with counting weight, so its own adjoint comes
    back as the original lattice weighted by size(lattice). The ratio is
    window independent; the measured exponent log(ratio)/log(size) is
    reported rather than asserted, since size^(1/2) and size^(-1/2) are both
    candidate scalings and only the computation can settle the sign.
    """
    _require_windows(ctx.lattice, eta)
    if ctx.lattice.weight != 1:
        raise ValueError("norm scaling is defined for counting-weight lattices")
    norm_lat, norm_adj, ratio = (float(v) for v in _norm_ratios(eta.values, ctx))
    exponent = _exponent(ratio, ctx)
    return {"norm_lattice": norm_lat, "norm_adjoint": norm_adj, "ratio": ratio, "exponent": exponent}


def _norm_ratios(eta: np.ndarray, ctx: ModuleContext) -> tuple[np.ndarray, ...]:
    """Module norms over the lattice and the counting-weight adjoint, and their ratio (0 for norm 0).

    A counting-weight lattice that is its own adjoint (groups, adjoint_subgroup) is that adjoint, tables and
    weight alike, so its norms are taken once."""
    norm_lat, counting = _norms(eta, ctx.lattice), ctx.dual.with_weight(1)
    norm_adj = norm_lat if counting == ctx.lattice else _norms(eta, counting)
    with np.errstate(divide="ignore", invalid="ignore"):
        return norm_lat, norm_adj, np.where(norm_lat > 0, norm_adj / norm_lat, 0.0)


def _exponent(ratio: float, ctx: ModuleContext) -> float | None:
    if ratio > 0 and ctx.lattice.size != 1:
        return math.log(ratio) / math.log(float(ctx.lattice.size))
    return None


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------

VERIFY_TOLERANCES = {
    "cocycle-identity": 1e-12,
    "projective-relation": 1e-12,
    "twisted-axioms": 1e-11,
    "localization": 1e-12,
    "norm-chain": 1e-9,
    "embedding-bound": 1e-12,
    "operator-extension": 1e-10,
    "janssen": 1e-10,
    "figa": 1e-10,
    "imprimitivity": 1e-10,
    "generator-equivalence": 0.0,
    "reconstruction": 1e-12,
    "dual-scaling": 1e-9,
}


# A check evaluates its cases in chunks whose temporaries hold about this many complex entries: 2^17 is
# 2 MiB, the L2 cache of one core of the 2-core Xeon it was measured on. Every chunk pays the same fixed
# numpy calls, so fewer chunks are cheaper until a chunk's temporaries outgrow the cache: verify_suite on
# the Z6^2 redundancy-2 lattices of the benchmark's verify-ladder took 15% less time at 2^16 than at 2^15,
# 18% less at 2^17, 16% at 2^18 and 16% with no bound (median of 8 interleaved rounds, in process).
_CHUNK = 2**17
_EPS = np.finfo(np.float64).eps


def _slots(rows: np.ndarray, slots: int) -> np.ndarray:
    """The (slots, cases, ...) windows of rows drawn case by case: [j, i] is row slots * i + j."""
    return rows.reshape((-1, slots) + rows.shape[1:]).swapaxes(0, 1)


def _per_case(fn, ctx: ModuleContext, *draws: np.ndarray, per_case: int = 0) -> tuple[np.ndarray, ...]:
    """fn(*chunk, ctx) on chunks of the cases of draws, its per-case results joined.

    A chunk holds _CHUNK // per_case cases; per_case defaults to the entries of
    one case's largest run-form temporary on either domain, plus its
    coefficients on both, |G| max(runs, |G| / |Delta_0|) + |Delta| + |adjoint|:
    a factor, _act's terms and the rep blocks hold runs |G| entries, the frame
    blocks |G|^2 / |Delta_0|, and the adjoint has |G| / |Delta_0| runs and
    |Delta_0^adjoint| = |G| / runs, so both domains give the same two sizes.
    On the Z6^2 redundancy-2 lattices of the benchmark (36 runs, |Delta| = 72)
    every check runs all its cases in one chunk; a case above _CHUNK entries
    takes a chunk of its own, so memory stays bounded at scale.
    """
    lat, n, runs = ctx.lattice, ctx.lattice.ambient.order, ctx.lattice._tables.runs
    step = max(1, _CHUNK // (per_case or n * max(len(runs.minus), runs.frame.shape[1]) + len(lat) + len(ctx.dual)))
    parts = [fn(*(d[lo : lo + step] for d in draws), ctx) for lo in range(0, len(draws[0]), step)]
    return tuple(np.concatenate(col) for col in zip(*parts))


def _case_max(diff: np.ndarray) -> np.ndarray:
    """max |diff| of each case (leading axis)."""
    return np.abs(diff).reshape(len(diff), -1).max(axis=1)


def _entry(name: str, cases: int, abs_gap: float, rel_gap: float, use_rel: bool = False) -> dict:
    decisive = rel_gap if use_rel else abs_gap
    return {
        "name": name,
        "cases": cases,
        "max_abs_gap": float(abs_gap),
        "max_rel_gap": float(rel_gap),
        "pass": bool(decisive <= VERIFY_TOLERANCES[name]),
    }


def _plane_picks(group: FiniteAbelianGroup, seeds: np.ndarray) -> np.ndarray:
    """Plane indices s mod |G|^2 of SplitMix64 outputs s.

    These index the points tf_points()[s mod |G|^2] without building the plane.
    """
    return (seeds % np.uint64(group.order**2)).astype(np.int64)


def _cocycle(table, x: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """c((x, w), (y, tau)) = conj(character(tau, x)) on coordinate arrays (rank as last axis)."""
    return table.roots[table.pairing(tau, x)].conj()


def _monomial_gap(col_a: np.ndarray, val_a: np.ndarray, col_b: np.ndarray, val_b: np.ndarray) -> float:
    """Max entrywise |A - B| of monomial matrices: row t of A holds val_a[t] in column col_a[t], B likewise.

    A row whose columns agree contributes |val_a - val_b|, else the larger of |val_a| and |val_b|.
    """
    rows = np.where(col_a == col_b, np.abs(val_a - val_b), np.maximum(np.abs(val_a), np.abs(val_b)))
    return float(rows.max(initial=0.0))


def _check_cocycle(ctx: ModuleContext, seeds: np.ndarray) -> tuple[dict, dict]:
    """Cocycle identity and projective relation on random plane points, all cases at once: case i takes the
    plane points of seeds 3 i, 3 i + 1 and 3 i + 2 (_plane_picks).

    pi(z1) pi(z2) is monomial: row t holds roots[phase1[t]] * roots[phase2[perm1[t]]]
    in column perm2[perm1[t]], and c(z1, z2) pi(z1 + z2) holds c * roots[phase3[t]]
    in column perm3[t]. The projective gap is the max entrywise |difference| of
    the two matrices, read off their rows by _monomial_gap. Neither the plane
    nor a dense shift matrix is built.
    """
    group = ctx.lattice.ambient
    table = group._table
    x, w = table.split(_plane_picks(group, seeds).reshape(-1, 3))
    cases = len(x)
    x1, x2, _ = x.transpose(1, 0, 2)
    w1, w2, w3 = w.transpose(1, 0, 2)
    c12, c3, c1, c23 = _cocycle(table, np.stack([x1, x1 + x2, x1, x2]), np.stack([w2, w3, w2 + w3, w3]))
    lhs, rhs = c12 * c3, c1 * c23
    coc_gap = float(np.abs(lhs - rhs).max(initial=0.0))
    perm, phase = table.gather(np.concatenate([x1, x2, x1 + x2]), np.concatenate([w1, w2, w1 + w2]))
    perm1, perm2, perm3 = perm.reshape(3, cases, group.order)
    phase1, phase2, phase3 = phase.reshape(3, cases, group.order)
    prod = table.roots[phase1] * table.roots[np.take_along_axis(phase2, perm1, axis=1)]
    twisted = c12[:, None] * table.roots[phase3]
    proj_gap = _monomial_gap(np.take_along_axis(perm2, perm1, axis=1), prod, perm3, twisted)
    return (
        _entry("cocycle-identity", cases, coc_gap, coc_gap),
        _entry("projective-relation", cases, proj_gap, proj_gap),
    )


# Associativity's error model: (ab)c - a(bc) sums products of three operands, each at most w^2 |a(u)| |b(v)|
# |c(z)| in modulus, so its rounding error is about eps times the componentwise scale max((|a| * |b|) * |c|),
# with * the untwisted convolution of the moduli (Higham, Accuracy and Stability of Numerical Algorithms,
# ch. 3, without the worst-case factor |Delta|). By Cauchy-Schwarz (|a| * |b|)(v) <= w ||a||_2 ||b||_2, so that
# scale is at most w^2 ||a||_2 ||b||_2 ||c||_1, which costs O(|Delta|) per case where the componentwise scale
# costs two more products. The sub-gap is decided on gap <= _ASSOCIATIVITY eps w^2 ||a||_2 ||b||_2 ||c||_1.
# The ratio gap / (eps w^2 ||a||_2 ||b||_2 ||c||_1) falls with |Delta|. Over verify's draws on every subgroup of
# Z1-Z12 at six weights and of Z2 x Z4 it reads at most 2.2, on domains of at most 4 points, where the few
# roundings of each product do not average out (3.6 over 20000 random draws on each such domain); 1.8 on
# domains of 5 to 16 points and 0.6 above; on the verify-ladder rungs at most 1.9. The constant is twice the
# largest of these, rounded up.
_ASSOCIATIVITY = 8.0


def _twisted_budget(domain: MeasuredSubgroup) -> int:
    """Complex entries one case of _twisted_gaps keeps alive at its peak on domain, the larger of its two
    stages': the first crossed product's five gathered stacks of |Delta| runs terms (_crossed) beside the
    operands, their involutions and transforms and the stacked factors, 20 stacks of |Delta| entries; or the
    rep stage's _rep_blocks of four operands, which holds their fibre sums and their blocks, runs |G| each, at
    once, beside 16 coefficient stacks of |Delta| entries."""
    runs, points, n = len(domain._tables.runs.minus), len(domain), domain.ambient.order
    return max(runs * 5 * points + 20 * points, runs * 8 * n + 16 * points)


def _twisted_gaps(domain: MeasuredSubgroup, flag: bool, a, b, c, xi) -> tuple[np.ndarray, np.ndarray]:
    """Per-case max gap of the algebra axioms, the trace and the representation identities: raw and scaled.

    Error model: every term of an identity carries the domain weight w to a
    fixed degree d (a product of d convolutions or representations, w^d) and
    is multilinear in its o operands among a, b and c, so its rounding error
    is homogeneous of degree d in w and of degree o in the operands. The
    scaled gap is each sub-gap over max(1, w)^d: as it is for w <= 1, and
    weight-free above; associativity's is its model's ratio (_ASSOCIATIVITY)
    in the tolerance's units.

    The identities are evaluated on a, b and c over r = sqrt(max(1, w)), xi as
    it is: every term then lies within about max(1, w) of 1, and so does every
    product of two operands inside a convolution, which sums products of
    operands before it multiplies by w. A sub-gap g on the scaled operands is
    the raw one over r^o, so the raw gap is g r^o and the scaled one
    g r^(o - 2 d), its exponent 1, 0, -1 or -2; the decision stays finite up
    to about the largest float. At w <= 1, r is exactly 1 and nothing is
    rescaled.

    The products run in crossed-product form (twisted _crossed): one transform (_hat) of a, b, c, a* and b*;
    ab, a b*, b* a*, b* a and bc from one crossed product, then (ab)c and a(bc) from the first's transforms;
    one transform back (_unhat). The involution and the representation identities stay in coefficient space.
    The representation identities compare the rep blocks (twisted): every
    entry off them is a structural zero on both sides. The blocks applied to
    xi per rep coset are held against _act, which does not read the block table.
    """
    r, w = np.sqrt(max(1.0, domain.float_weight)), domain.float_weight
    norms = np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1) * np.abs(c).sum(axis=-1)  # unscaled
    a, b, c = a / r, b / r, c / r
    inv_a, inv_b = _involve(domain, flag, np.stack([a, b]))
    hats = _hat(domain, flag, np.stack([a, b, c, inv_a, inv_b]))
    products = _crossed(domain, hats[[0, 0, 4, 4, 1]], hats[[1, 4, 3, 0, 2]])  # ab, a b*, b* a*, b* a, bc
    ab_c, a_bc = _crossed(domain, np.stack([products[0], hats[0]]), np.stack([hats[2], products[4]]))
    products[4] = ab_c - a_bc
    ab, a_inv_b, inv_b_inv_a, inv_b_a, assoc = _unhat(domain, flag, products)
    del hats, products, ab_c, a_bc  # spent before the rep stage's peak
    inv_inv_a, inv_ab = _involve(domain, flag, np.stack([inv_a, ab]))
    subgaps = [  # (operands o, degree d, per-case gap)
        (1, 0, _case_max(inv_inv_a - a)),
        (2, 1, _case_max(inv_ab - inv_b_inv_a)),
        (2, 1, np.abs(a_inv_b[:, 0] - inv_b_a[:, 0])),
        (2, 1, np.abs(a_inv_b[:, 0] - w * (a * b.conj()).sum(axis=-1))),
    ]
    # The rep blocks last, those of a, b, ab and a* from one call: with the product of two, five stacks
    # alive after it. A difference is taken in place (|x - y| = |y - x| exactly), and the conjugate
    # transpose of rep(a) goes into the spent rep(b).
    rep_a, rep_b, rep_ab, rep_inv_a = _rep_blocks(domain, flag, np.stack([a, b, ab, inv_a]))
    cosets = domain._tables.rep
    applied = (rep_a @ np.take(xi, cosets, axis=-1)[..., None])[..., 0]
    subgaps.append((1, 1, _case_max(applied - np.take(_act(domain, flag, a, xi), cosets, axis=-1))))
    rep_ab -= rep_b @ rep_a if flag else rep_a @ rep_b
    rep_inv_a -= np.conjugate(np.swapaxes(rep_a, -1, -2), out=rep_b)
    subgaps.append((1, 1, _case_max(rep_inv_a)))
    subgaps.append((2, 2, _case_max(rep_ab)))
    operands, degree, gaps = (np.array(col) for col in zip(*subgaps))
    operands, degree = operands[:, None], degree[:, None]
    # associativity on the scaled operands: g r^3 raw; its model's scale eps w^2 N on the raw operands, N their
    # norms, is eps min(1, w)^2 r N over r^3, divided in steps so that no w^2 over- or underflows
    assoc, unit = _case_max(assoc), w / r**2
    model = assoc / unit / unit / (r * norms) / (_ASSOCIATIVITY * _EPS) * VERIFY_TOLERANCES["twisted-axioms"]
    return (np.maximum((gaps * r**operands).max(axis=0), assoc * r**3),
            np.maximum((gaps * r ** (operands - 2 * degree)).max(axis=0), model))


def _check_twisted_axioms(ctx: ModuleContext, coeffs: np.ndarray, xi: np.ndarray) -> dict:
    """Decided on the scaled gap (see _twisted_gaps); max_abs_gap reports the raw one.

    Case i draws a, b and c on both domains from coeffs[i] (cases, 3, max(|Delta|, |adjoint|)), each the
    prefix of its row as long as the domain, and xi[0, i] and xi[1, i] (2, cases, |G|) on the lattice and
    the adjoint; the chunks hold _twisted_budget's entries per case.
    """
    gaps = []
    for domain, flag, x in ((ctx.lattice, False, xi[0]), (ctx.dual, True, xi[1])):
        draws = coeffs[..., : len(domain)].swapaxes(0, 1)
        gaps.append(_per_case(lambda a, b, c, x, _: _twisted_gaps(domain, flag, a, b, c, x), ctx, *draws, x,
                              per_case=_twisted_budget(domain)))
    raw, scaled = np.max(gaps, axis=(0, 2))  # NaN, from sums that overflow, propagates and fails
    return _entry("twisted-axioms", len(xi[0]), raw, scaled, use_rel=True)


def _check_localization(ctx: ModuleContext, xi: np.ndarray, eta: np.ndarray) -> dict:
    lhs, rhs, via_right = _per_case(_localization, ctx, xi, eta)
    gap = float(np.maximum(np.abs(lhs - rhs), np.abs(via_right - rhs)).max())
    return _entry("localization", len(xi), gap, gap)


def _norm_routes(eta: np.ndarray, ctx: ModuleContext) -> tuple[np.ndarray, ...]:
    """Module norm per case via the frame-operator spectrum, the top orbit singular value, the C*-norm.

    The orbit's singular values are sqrt(scale / weight) times those of the factor blocks (gabor _factor),
    the C*-norm the largest singular value of the rep blocks split by the adjoint's table (_split_rep_blocks).
    """
    lat = ctx.lattice
    via_algebra = np.sqrt(_svals(_split_rep_blocks(lat, False, _analyze(eta, eta, lat), ctx.dual)).max(axis=(-2, -1)))
    factor, scale = _factor(eta[..., None, :], lat)  # made after the rep blocks are spent: one less alive
    via_analysis = math.sqrt(scale) * _svals(factor).max(axis=(-2, -1))
    return _factor_norms(factor, scale), via_analysis, via_algebra


def _check_norm_chain(ctx: ModuleContext, eta: np.ndarray) -> tuple[dict, dict]:
    cases = len(eta)
    via_spectrum, via_analysis, via_algebra = _per_case(_norm_routes, ctx, eta)
    rel = np.abs(via_spectrum - np.stack([via_analysis, via_algebra])) / np.maximum(via_spectrum, 1e-30)
    bound = math.sqrt(float(ctx.lattice.size)) * via_spectrum
    embed = max(float(np.max((np.linalg.norm(eta, axis=-1) - bound) / np.maximum(bound, 1.0))), 0.0)
    return _entry("norm-chain", cases, rel.max(), rel.max()), _entry("embedding-bound", cases, embed, embed)


def _extension_gaps(eta: np.ndarray, gamma: np.ndarray, ctx: ModuleContext) -> tuple[np.ndarray]:
    """Per pair of (pairs, |G|) windows: theta_matrix against frame_like on each frame coset's rows and
    columns; both commute with the lattice shifts, so every entry between two cosets is a structural zero of
    both. One gather of the stacked (eta, gamma) orbits at the cosets' members, in frame-coset order, serves
    both sides; frame_like's block b is weight Gamma_b^T conj(E_b), Gamma_b and E_b the orbits' columns on
    coset b, so that side reads the coset table and nothing else of the run table."""
    lat, frame = ctx.lattice, ctx.lattice._tables.runs.frame
    (blocks, size), pairs, points = frame.shape, len(eta), len(ctx.lattice)
    orbits = _orbit(np.stack([eta, gamma], axis=1), lat, frame.ravel())  # (pairs, 2, |Delta|, |G|)
    rows, synthesis = np.conjugate(orbits[:, 0], out=orbits[:, 0]), orbits[:, 1]
    synthesis *= lat.float_weight
    by_coset = (pairs, points, blocks, size)
    frame_like = synthesis.reshape(by_coset).transpose(0, 2, 3, 1) @ np.swapaxes(rows.reshape(by_coset), 1, 2)
    theta = _theta(rows, gamma, ctx)
    theta -= frame_like
    return (_case_max(theta),)


def _extension_budget(ctx: ModuleContext) -> int:
    """Complex entries one pair of _extension_gaps keeps alive at its peak: the two orbits and theta's placed
    rows, |Delta| |G| each; frame_like's blocks, |G|^2 / |Delta_0|; and theta's runs |G| factor, its copy by
    block and its Zak sums. The orbits' gather tables add 2 |Delta| |G| once per chunk (gabor _orbit), so a
    chunk of one pair peaks at up to about 4/3 of this."""
    lat, n = ctx.lattice, ctx.lattice.ambient.order
    runs = lat._tables.runs
    return 3 * len(lat) * n + n * n // len(runs.chi) + 3 * len(runs.minus) * n


def _check_operator_extension(ctx: ModuleContext, eta: np.ndarray, gamma: np.ndarray) -> dict:
    """theta_matrix against frame_like per pair, block for block (_extension_gaps), in chunks of
    _extension_budget's entries per pair.

    Decided on gap / max(1, w), w the lattice weight; max_abs_gap reports the raw gap. Error model: both
    sides are w times sums of |Delta| products of an eta and a gamma orbit entry, so their entries and
    their rounding errors, about c eps w |Delta| max|eta| max|gamma|, are of degree 1 in w, as in
    _twisted_gaps: the scaled gap is the raw one for w <= 1 and weight-free above.
    """
    (gaps,) = _per_case(_extension_gaps, ctx, eta, gamma, per_case=_extension_budget(ctx))
    return _entry("operator-extension", len(eta), gaps.max(), gaps.max() / max(1.0, ctx.lattice.float_weight),
                  use_rel=True)


def _janssen_gaps(eta: np.ndarray, ctx: ModuleContext) -> tuple[np.ndarray, np.ndarray]:
    """Per case: janssen_frame_operator against the frame operator S of the one-window system, block for
    block; raw and scaled gaps.

    The Janssen side is the adjoint's rep blocks (twisted _rep_blocks) on the cosets of X(adjoint) =
    Delta_0^perp, listed by least member (groups rep). Those are the lattice's frame cosets, members in the
    same order, so S's side is the lattice's unsplit frame blocks (gabor _factor: weight |Delta_0| times the
    Gram of the base rows on each coset), taken in the order of their least members. Both operators vanish
    between two cosets, so nothing else is compared. The two sides read different tables: the adjoint's
    rep blocks and the lattice's run table.

    Error model: both sides are weighted sums of products of two window
    entries, so their rounding errors grow with the entries of S itself
    (S is positive semidefinite: max|S| is its largest diagonal entry,
    weight * sum_z |pi(z) eta(t)|^2). The scaled gap divides by max(1, max|S|):
    the absolute gap for small operators, the relative one above.
    """
    lat, runs = ctx.lattice, ctx.lattice._tables.runs
    blocks = len(runs.chi)
    janssen = _rep_blocks(ctx.dual, False, _analyze(eta, eta, ctx.dual))
    frame = _gram(_by_block(_base_rows(eta[:, None, :], lat), blocks), lat.float_weight * blocks)
    janssen -= frame[:, np.argsort(runs.frame[:, 0])]
    gap = _case_max(janssen)
    return gap, gap / np.maximum(1.0, _case_max(np.diagonal(frame, axis1=-2, axis2=-1)))


def _janssen_budget(ctx: ModuleContext) -> int:
    """Complex entries one case of _janssen_gaps keeps alive at its peak: the adjoint's rep blocks,
    |G|^2 / |Delta_0| (the adjoint has |G| / |Delta_0| runs), kept while the lattice's side holds its
    base rows by block and their conjugate, runs |G| each, and its frame blocks, |G|^2 / |Delta_0|. The
    adjoint's side peaks lower: its fibre sums and its rep blocks, |G|^2 / |Delta_0| each."""
    lat, n = ctx.lattice, ctx.lattice.ambient.order
    runs = lat._tables.runs
    return 2 * len(runs.minus) * n + 2 * n * n // len(runs.chi) + 4 * n


def _check_janssen(ctx: ModuleContext, eta: np.ndarray) -> dict:
    """Decided on the scaled gap (see _janssen_gaps); max_abs_gap reports the raw one. Chunks hold
    _janssen_budget's entries per case."""
    gaps, scaled = _per_case(_janssen_gaps, ctx, eta, per_case=_janssen_budget(ctx))
    return _entry("janssen", len(eta), gaps.max(), scaled.max(), use_rel=True)


def _check_figa(ctx: ModuleContext, eta, gamma, xi, psi) -> dict:
    lhs, rhs = _per_case(_figa, ctx, eta, gamma, xi, psi)
    gaps = np.abs(lhs - rhs)
    return _entry("figa", len(eta), gaps.max(), np.max(gaps / (1.0 + np.abs(lhs))), use_rel=True)


def _imprimitivity_gaps(xi, eta, gamma, ctx: ModuleContext) -> tuple[np.ndarray]:
    """Per case: left_act(left_inner(xi, eta), gamma) against right_act(xi, right_inner(eta, gamma))."""
    lhs = _act(ctx.lattice, False, _analyze(xi, eta, ctx.lattice), gamma)
    return (_case_max(lhs - _act(ctx.dual, True, _analyze(eta, gamma, ctx.dual).conj(), xi)),)


def _check_imprimitivity(ctx: ModuleContext, xi: np.ndarray, eta: np.ndarray, gamma: np.ndarray) -> dict:
    """Decided on gap / max(1, w), w the lattice weight; max_abs_gap reports the raw gap. Error model: the
    left side is _act over the lattice (weight w), the right side _act over the adjoint (weight 1 / s =
    w |Delta| / |G|), each of weight-free analysis coefficients, so both sides and their rounding errors
    are of degree 1 in w, as in _check_operator_extension."""
    (gaps,) = _per_case(_imprimitivity_gaps, ctx, xi, eta, gamma)
    return _entry("imprimitivity", len(xi), gaps.max(), gaps.max() / max(1.0, ctx.lattice.float_weight),
                  use_rel=True)


def _synthesize(coeffs: np.ndarray, windows: np.ndarray, ctx: ModuleContext) -> tuple[np.ndarray]:
    """Frame synthesis weight * sum_z a(z) pi(z) eta per case of (cases, |Delta|) coefficients and (cases, |G|)
    windows, from the dense orbit (_orbit): the generators check's witness against _act."""
    lat = ctx.lattice
    return (lat.float_weight * (coeffs[:, None] @ _orbit(windows, lat))[:, 0],)


def _check_generators(ctx: ModuleContext, draws: np.ndarray, frame_tol: float) -> tuple[dict, dict]:
    """Generating verdict (orbit SVD) against the frame verdict (eigenvalues), and reconstruction.

    Six families from the 13 draws (13, |G|): family f holds the k = 1, 1, 2, 2, 3, 3 draws from
    ends[f] - k on and reconstructs draw ends[f], ends = 1, 2, 4, 6, 9, 12. The factor (_factor) of the two
    families of one k gives their generating verdicts (_factor_frames) and frame blocks (_gram), whose
    shapes do not depend on k; the rest is one pass over all six. The frame blocks go through one _duals,
    each family's windows zero-padded to 3 slots; a family that is generating and a frame is reconstructed
    from xi by left_act of left_inner(xi, gamma_j) and by frame synthesis, each summed over j: one
    _analyze and one _act of the 12 (xi, gamma_j) and (coefficients, eta_j) pairs, and the dense
    synthesis per window, in chunks of _CHUNK // (|Delta| |G|) windows. The larger residual is kept.

    Reconstruction is decided on residual / (kappa * |xi|), kappa = B/A the
    condition number of the frame operator. Its error model: applying the
    computed dual solves S gamma = eta, which backward-stable LU does with
    relative error about c * eps * sqrt(|G|) * kappa, so
    residual <= c * eps * sqrt(|G|) * kappa * |xi| with c of order one.
    The tolerance 1e-12 leaves c * sqrt(|G|) room up to about 4500; an
    absolute bound instead rejects valid frames near critical density,
    whose kappa reaches 1e5 while frame_tol accepts kappa up to 1e9.
    """
    lat, n = ctx.lattice, ctx.lattice.ambient.order
    counts = np.array([1, 1, 2, 2, 3, 3])
    ends = np.cumsum(counts)
    windows, xi = draws[: ends[-1]], draws[ends]
    generating, ops = [], []
    for k in (1, 2, 3):
        factor, scale = _factor(windows[k * (k - 1) : k * (k + 1)].reshape(2, k, n), lat)
        generating.append(_factor_frames(factor, scale, frame_tol))
        ops.append(_gram(factor, scale))
    generating = np.concatenate(generating)
    slots = np.arange(3) < counts[:, None]  # family f's windows fill its first counts[f] of 3 slots
    padded = np.zeros((len(counts), 3, n), dtype=windows.dtype)
    padded[slots] = windows
    bounds, frames, duals = _duals(np.concatenate(ops), padded, lat, frame_tol)
    gammas = np.zeros_like(padded)
    gammas[frames] = duals
    coeffs = _analyze(xi[np.repeat(np.arange(len(counts)), counts)], gammas[slots], lat)
    (synthesis,) = _per_case(_synthesize, ctx, coeffs, windows, per_case=len(lat) * n)
    starts = ends - counts
    synthesis = np.add.reduceat(synthesis, starts)
    via_module = np.add.reduceat(_act(lat, False, coeffs, windows), starts)
    recon = generating & frames
    residual = recon * np.maximum(*(np.linalg.norm(v - xi, axis=-1) for v in (synthesis, via_module)))
    kappa = np.divide(bounds[:, 1], bounds[:, 0], out=np.ones(len(counts)), where=recon)
    split, rel = generating != frames, residual / (kappa * np.linalg.norm(xi, axis=-1))
    return (_entry("generator-equivalence", len(counts), split.sum(), split.sum()),
            _entry("reconstruction", int(recon.sum()), residual.max(), rel.max(), use_rel=True))


def _check_dual_scaling(ctx: ModuleContext, eta: np.ndarray) -> dict:
    size, cases = str(ctx.lattice.size), len(eta)
    if ctx.lattice.weight != 1:
        return dict(_entry("dual-scaling", 0, 0.0, 0.0), exponent=None, size=size)
    _, _, ratios = _per_case(_norm_ratios, ctx, eta)
    spread = float(ratios.std() / ratios.mean()) if ratios.mean() > 0 else 0.0
    positive = ratios[ratios > 0]
    exponent = _exponent(float(positive[-1]), ctx) if positive.size else None
    return dict(_entry("dual-scaling", cases, spread, spread), exponent=exponent, size=size)


def verify_suite(lattice: MeasuredSubgroup, seed: int = 0, frame_tol: float = 1e-9) -> dict:
    """Run every identity check against one lattice; report per-identity gap maxima.

    Deterministic for a fixed (lattice, seed): all randomness comes from the
    documented SplitMix64 stream. The seed plan: 16 salts are the first
    outputs of the stream of seed ^ 0x5EED; check i takes its derived seeds
    from the stream of salt i, all in one call; a case of s windows takes s
    consecutive seeds, and a window of length m is randn_window's values of
    its seed on a group of order m. Each output is a function of (seed,
    index) alone, so the windows of the checks are drawn in four calls: the
    |G|-length windows of norm-chain, operator-extension, janssen,
    imprimitivity, generators, dual-scaling and twisted-axioms in one, and
    figa's, localization's and twisted-axioms' coefficients (one row per
    seed, as long as the larger domain) in one each.
    """
    ctx = module_context(lattice)
    n = lattice.ambient.order
    salts = splitmix64_stream(seed ^ 0x5EED, 16)
    seeds = splitmix64_stream(salts[:10], 180)  # row i: salt i's derived seeds, as many as the cocycle check's
    twisted = seeds[1, :48].reshape(8, 6)  # per case: a, b and c, then xi on the lattice and on the adjoint
    # norm-chain, operator-extension, janssen, imprimitivity, generators, dual-scaling: (salt, windows)
    small = ((3, 20), (4, 20), (5, 10), (7, 30), (8, 13), (9, 20))
    rows = [seeds[i, :count] for i, count in small] + [twisted[:, 3], twisted[:, 4]]
    norm, ext, janssen, imp, gen, dual, xi = np.split(_randn(np.concatenate(rows), n),
                                                     np.cumsum([count for _, count in small]))
    identities = [
        *_check_cocycle(ctx, seeds[0]),
        _check_twisted_axioms(ctx, _randn(twisted[:, :3], max(len(lattice), len(ctx.dual))),
                              xi.reshape(2, 8, n)),
        _check_localization(ctx, *_slots(_randn(seeds[2, :80], n), 2)),
        *_check_norm_chain(ctx, norm),
        _check_operator_extension(ctx, *_slots(ext, 2)),
        _check_janssen(ctx, janssen),
        _check_figa(ctx, *_slots(_randn(seeds[6, :160], n), 4)),
        _check_imprimitivity(ctx, *_slots(imp, 3)),
        *_check_generators(ctx, gen, frame_tol),
        _check_dual_scaling(ctx, dual),
    ]
    return {
        "group": list(lattice.ambient.orders),
        "lattice_points": len(lattice),
        "weight": str(lattice.weight),
        "size": str(lattice.size),
        "seed": seed,
        "identities": identities,
        "pass": all(entry["pass"] for entry in identities),
    }
