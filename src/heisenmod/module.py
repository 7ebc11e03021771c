"""The Heisenberg module on C^G: inner products, actions, norms, frames, and identity checks.

C^G is a bimodule: the twisted algebra on a lattice Delta acts on the left
through the integrated representation, the conjugate-twisted algebra on the
adjoint lattice acts on the right. The module inner products are correlation
functions,

    left_inner(xi, eta)(z) = <xi, pi(z) eta>        (z in Delta),
    right_inner(xi, eta)(w) = <pi(w) eta, xi>       (w in the adjoint),

and the module norm of a window is the square root of the largest
frame-operator eigenvalue. Every identity this layer exposes
(localization, norm chain, operator extension, imprimitivity, FIGA,
generator/frame equivalence, adjoint-lattice norm scaling) can be verified
numerically through verify_suite, which reports per-identity gap maxima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gabor import (
    GaborSystem,
    analysis,
    dual_window,
    frame_bounds,
    frame_operator,
    frame_like,
    is_frame,
    janssen_frame_operator,
    reconstruction_residual,
    shift_orbit,
)
from .groups import FiniteAbelianGroup, MeasuredSubgroup, adjoint_subgroup
from .shifts import (
    Window,
    gaussian_stream,
    inner,
    randn_window,
    splitmix64_stream,
)
from .twisted import (
    TwistedSeq,
    cstar_norm,
    integrated_rep,
    involution,
    l2_localization_inner,
    trace,
    twisted_convolve,
)


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
    return TwistedSeq(ctx.lattice, False, analysis(eta, ctx.lattice) @ xi.values)


def right_inner(xi: Window, eta: Window, ctx: ModuleContext) -> TwistedSeq:
    """Adjoint-side inner product: coefficient at w is <pi(w) eta, xi>."""
    coeffs = shift_orbit(eta, ctx.dual) @ xi.values.conj()
    return TwistedSeq(ctx.dual, True, coeffs)


def left_act(a: TwistedSeq, xi: Window, ctx: ModuleContext) -> Window:
    """Left action of the lattice algebra through its integrated representation."""
    if a.conjugated or a.domain != ctx.lattice:
        raise ValueError("left action needs an unconjugated sequence on the lattice")
    return Window(xi.group, integrated_rep(a) @ xi.values)


def right_act(xi: Window, b: TwistedSeq, ctx: ModuleContext) -> Window:
    """Right action of the adjoint algebra (conjugated cocycle, adjoint shifts)."""
    if not b.conjugated or b.domain != ctx.dual:
        raise ValueError("right action needs a conjugated sequence on the adjoint lattice")
    return Window(xi.group, integrated_rep(b) @ xi.values)


def module_norm(eta: Window, ctx: ModuleContext) -> float:
    """Module norm: square root of the largest frame-operator eigenvalue."""
    return math.sqrt(frame_bounds(GaborSystem(ctx.lattice, (eta,))).upper)


def module_frame_check(
    windows: list[Window] | tuple[Window, ...],
    ctx: ModuleContext,
    tol: float = 1e-9,
) -> dict:
    """Generating-set verdict and frame bounds for a finite window family.

    The verdict comes from the algebraic route: the family generates the
    module exactly when the stacked lattice orbits span C^G, decided here by
    singular values. The bounds come from the frame-operator spectrum, so the
    two answers are computed independently and must agree.
    """
    windows = tuple(windows)
    sys = GaborSystem(ctx.lattice, windows)
    stacked = np.vstack([shift_orbit(eta, ctx.lattice) for eta in windows])
    svals = np.linalg.svd(stacked, compute_uv=False)
    weight = float(ctx.lattice.weight)
    low = weight * float(svals[-1]) ** 2 if stacked.shape[0] >= stacked.shape[1] else 0.0
    high = weight * float(svals[0]) ** 2
    generating = low > tol * max(high, 1.0)
    return {"generating": generating, "bounds": frame_bounds(sys)}


def module_expansion(
    xi: Window,
    windows: list[Window] | tuple[Window, ...],
    ctx: ModuleContext,
    tol: float = 1e-9,
) -> list[TwistedSeq]:
    """Expansion coefficients a_j = left_inner(xi, S^{-1} eta_j); error when not generating."""
    windows = tuple(windows)
    check = module_frame_check(windows, ctx, tol)
    if not check["generating"]:
        raise ValueError("window family does not generate the module; no expansion exists")
    duals = dual_window(GaborSystem(ctx.lattice, windows), tol)
    return [left_inner(xi, gamma, ctx) for gamma in duals]


def localization_check(xi: Window, eta: Window, ctx: ModuleContext) -> dict:
    """Trace of the module inner products against the plain l2 pairing.

    All three returned values agree: the lattice-side trace, the direct
    pairing, and the adjoint-side trace.
    """
    lhs = trace(left_inner(xi, eta, ctx))
    rhs = inner(xi, eta)
    via_right = trace(right_inner(eta, xi, ctx))
    return {"lhs": lhs, "rhs": rhs, "via_right": via_right}


def figa_check(eta: Window, gamma: Window, xi: Window, psi: Window, ctx: ModuleContext) -> dict:
    """Both sides of the fundamental identity of Gabor analysis.

    The lattice side carries the lattice weight; the adjoint side is a
    counting sum with the explicit 1/size prefactor.
    """
    lat, adj = ctx.lattice, ctx.dual
    lhs_terms = (analysis(gamma, lat) @ eta.values) * (shift_orbit(xi, lat) @ psi.values.conj())
    lhs = complex(float(lat.weight) * lhs_terms.sum())
    rhs_terms = (analysis(gamma, adj) @ xi.values) * (shift_orbit(eta, adj) @ psi.values.conj())
    rhs = complex(float(1 / lat.size) * rhs_terms.sum())
    gap = abs(lhs - rhs)
    return {"lhs": lhs, "rhs": rhs, "abs_gap": gap, "rel_gap": gap / (1.0 + abs(lhs))}


def theta_matrix(eta: Window, gamma: Window, ctx: ModuleContext) -> np.ndarray:
    """Matrix of xi -> left_act(left_inner(xi, eta), gamma), column by column.

    left_inner(delta_t, eta) is analysis(eta, lattice) @ delta_t, which is
    column t of the analysis matrix, so that matrix is built once. Each
    column still goes through its own left_act, the integrated-representation
    route that frame_like does not take.
    """
    coeffs = analysis(eta, ctx.lattice)
    cols = [left_act(TwistedSeq(ctx.lattice, False, col), gamma, ctx).values for col in coeffs.T]
    return np.stack(cols, axis=1)


def dual_lattice_norm_scaling(eta: Window, ctx: ModuleContext) -> dict:
    """Module norms of one window over the lattice and over its adjoint.

    The adjoint is re-measured with counting weight, so its own adjoint comes
    back as the original lattice weighted by size(lattice). The ratio is
    window independent; the measured exponent log(ratio)/log(size) is
    reported rather than asserted, since size^(1/2) and size^(-1/2) are both
    candidate scalings and only the computation can settle the sign.
    """
    if ctx.lattice.weight != 1:
        raise ValueError("norm scaling is defined for counting-weight lattices")
    norm_lat = module_norm(eta, ctx)
    dual_ctx = module_context(ctx.dual.with_weight(1))
    norm_adj = module_norm(eta, dual_ctx)
    ratio = norm_adj / norm_lat if norm_lat > 0 else 0.0
    exponent = None
    if ratio > 0 and ctx.lattice.size != 1:
        exponent = math.log(ratio) / math.log(float(ctx.lattice.size))
    return {"norm_lattice": norm_lat, "norm_adjoint": norm_adj, "ratio": ratio, "exponent": exponent}


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
    "reconstruction": 1e-9,
    "dual-scaling": 1e-9,
}


def _derived_seeds(seed: int, count: int) -> list[int]:
    return [int(v) for v in splitmix64_stream(seed, count)]


def _random_seq(domain: MeasuredSubgroup, conjugated: bool, seed: int) -> TwistedSeq:
    vals = gaussian_stream(seed, 2 * len(domain))
    return TwistedSeq(domain, conjugated, vals[0::2] + 1j * vals[1::2])


def _entry(name: str, cases: int, abs_gap: float, rel_gap: float, use_rel: bool = False) -> dict:
    decisive = rel_gap if use_rel else abs_gap
    return {
        "name": name,
        "cases": cases,
        "max_abs_gap": float(abs_gap),
        "max_rel_gap": float(rel_gap),
        "pass": bool(decisive <= VERIFY_TOLERANCES[name]),
    }


def _plane_picks(group: FiniteAbelianGroup, seed: int, count: int) -> np.ndarray:
    """Plane indices s mod |G|^2 of the first ``count`` SplitMix64 outputs s.

    These index the points tf_points()[s mod |G|^2] without building the plane.
    """
    return (splitmix64_stream(seed, count) % np.uint64(group.order**2)).astype(np.int64)


def _cocycle(table, x: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """c((x, w), (y, tau)) = conj(character(tau, x)) on coordinate arrays (rank as last axis)."""
    return table.roots[table.pairing(tau, x)].conj()


def _monomial_gap(col_a: np.ndarray, val_a: np.ndarray, col_b: np.ndarray, val_b: np.ndarray) -> float:
    """Max entrywise |A - B| of monomial matrices: row t of A holds val_a[t] in column col_a[t], B likewise.

    A row whose columns agree contributes |val_a - val_b|, else the larger of |val_a| and |val_b|.
    """
    rows = np.where(col_a == col_b, np.abs(val_a - val_b), np.maximum(np.abs(val_a), np.abs(val_b)))
    return float(rows.max(initial=0.0))


def _check_cocycle(ctx: ModuleContext, seed: int, cases: int) -> tuple[dict, dict]:
    """Cocycle identity and projective relation on random plane points, all cases at once.

    pi(z1) pi(z2) is monomial: row t holds roots[phase1[t]] * roots[phase2[perm1[t]]]
    in column perm2[perm1[t]], and c(z1, z2) pi(z1 + z2) holds c * roots[phase3[t]]
    in column perm3[t]. The projective gap is the max entrywise |difference| of
    the two matrices, read off their rows by _monomial_gap. Neither the plane
    nor a dense shift matrix is built.
    """
    group = ctx.lattice.ambient
    table = group._table
    x, w = table.split(_plane_picks(group, seed, 3 * cases).reshape(cases, 3))
    x1, x2, _ = x.transpose(1, 0, 2)
    w1, w2, w3 = w.transpose(1, 0, 2)
    c12 = _cocycle(table, x1, w2)
    lhs = c12 * _cocycle(table, x1 + x2, w3)
    rhs = _cocycle(table, x1, w2 + w3) * _cocycle(table, x2, w3)
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


def _check_twisted_axioms(ctx: ModuleContext, seed: int, cases: int) -> dict:
    gap = 0.0
    seeds = _derived_seeds(seed, 6 * cases)
    for i in range(cases):
        for domain, flag in ((ctx.lattice, False), (ctx.dual, True)):
            a = _random_seq(domain, flag, seeds[6 * i])
            b = _random_seq(domain, flag, seeds[6 * i + 1])
            c = _random_seq(domain, flag, seeds[6 * i + 2])
            assoc = twisted_convolve(twisted_convolve(a, b), c).coeffs - twisted_convolve(
                a, twisted_convolve(b, c)
            ).coeffs
            gap = max(gap, float(np.abs(assoc).max()))
            invol = involution(involution(a)).coeffs - a.coeffs
            gap = max(gap, float(np.abs(invol).max()))
            prod_star = involution(twisted_convolve(a, b)).coeffs - twisted_convolve(
                involution(b), involution(a)
            ).coeffs
            gap = max(gap, float(np.abs(prod_star).max()))
            rep_ab = integrated_rep(twisted_convolve(a, b))
            ordered = integrated_rep(b) @ integrated_rep(a) if flag else integrated_rep(a) @ integrated_rep(b)
            gap = max(gap, float(np.abs(rep_ab - ordered).max()))
            rep_star = integrated_rep(involution(a)) - integrated_rep(a).conj().T
            gap = max(gap, float(np.abs(rep_star).max()))
            tracial = trace(twisted_convolve(a, involution(b))) - trace(
                twisted_convolve(involution(b), a)
            )
            gap = max(gap, abs(tracial))
            pairing = l2_localization_inner(a, b) - float(domain.weight) * complex(
                np.sum(a.coeffs * b.coeffs.conj())
            )
            gap = max(gap, abs(pairing))
    return _entry("twisted-axioms", cases, gap, gap)


def _check_localization(ctx: ModuleContext, seed: int, cases: int) -> dict:
    gap = 0.0
    seeds = _derived_seeds(seed, 2 * cases)
    group = ctx.lattice.ambient
    for i in range(cases):
        xi = randn_window(group, seeds[2 * i])
        eta = randn_window(group, seeds[2 * i + 1])
        res = localization_check(xi, eta, ctx)
        gap = max(gap, abs(res["lhs"] - res["rhs"]), abs(res["via_right"] - res["rhs"]))
    return _entry("localization", cases, gap, gap)


def _check_norm_chain(ctx: ModuleContext, seed: int, cases: int) -> tuple[dict, dict]:
    rel = 0.0
    embed = 0.0
    for s in _derived_seeds(seed, cases):
        eta = randn_window(ctx.lattice.ambient, s)
        via_spectrum = module_norm(eta, ctx)
        orbit_svals = np.linalg.svd(shift_orbit(eta, ctx.lattice), compute_uv=False)
        via_analysis = math.sqrt(float(ctx.lattice.weight)) * float(orbit_svals[0])
        via_algebra = math.sqrt(cstar_norm(left_inner(eta, eta, ctx)))
        scale = max(via_spectrum, 1e-30)
        rel = max(
            rel,
            abs(via_spectrum - via_analysis) / scale,
            abs(via_spectrum - via_algebra) / scale,
        )
        bound = math.sqrt(float(ctx.lattice.size)) * via_spectrum
        embed = max(embed, (eta.norm() - bound) / max(bound, 1.0))
    embed = max(embed, 0.0)
    return _entry("norm-chain", cases, rel, rel), _entry("embedding-bound", cases, embed, embed)


def _check_operator_extension(ctx: ModuleContext, seed: int, cases: int) -> dict:
    gap = 0.0
    seeds = _derived_seeds(seed, 2 * cases)
    group = ctx.lattice.ambient
    for i in range(cases):
        eta = randn_window(group, seeds[2 * i])
        gamma = randn_window(group, seeds[2 * i + 1])
        diff = theta_matrix(eta, gamma, ctx) - frame_like(eta, gamma, ctx.lattice)
        gap = max(gap, float(np.abs(diff).max()))
    return _entry("operator-extension", cases, gap, gap)


def _check_janssen(ctx: ModuleContext, seed: int, cases: int) -> dict:
    gap = 0.0
    for s in _derived_seeds(seed, cases):
        eta = randn_window(ctx.lattice.ambient, s)
        diff = janssen_frame_operator(eta, ctx.lattice) - frame_operator(
            GaborSystem(ctx.lattice, (eta,))
        )
        gap = max(gap, float(np.abs(diff).max()))
    return _entry("janssen", cases, gap, gap)


def _check_figa(ctx: ModuleContext, seed: int, cases: int) -> dict:
    abs_gap = 0.0
    rel_gap = 0.0
    seeds = _derived_seeds(seed, 4 * cases)
    group = ctx.lattice.ambient
    for i in range(cases):
        eta, gamma, xi, psi = (randn_window(group, s) for s in seeds[4 * i : 4 * i + 4])
        res = figa_check(eta, gamma, xi, psi, ctx)
        abs_gap = max(abs_gap, res["abs_gap"])
        rel_gap = max(rel_gap, res["rel_gap"])
    return _entry("figa", cases, abs_gap, rel_gap, use_rel=True)


def _check_imprimitivity(ctx: ModuleContext, seed: int, cases: int) -> dict:
    gap = 0.0
    seeds = _derived_seeds(seed, 3 * cases)
    group = ctx.lattice.ambient
    for i in range(cases):
        xi, eta, gamma = (randn_window(group, s) for s in seeds[3 * i : 3 * i + 3])
        lhs = left_act(left_inner(xi, eta, ctx), gamma, ctx).values
        rhs = right_act(xi, right_inner(eta, gamma, ctx), ctx).values
        gap = max(gap, float(np.abs(lhs - rhs).max()))
    return _entry("imprimitivity", cases, gap, gap)


def _check_generators(ctx: ModuleContext, seed: int, frame_tol: float) -> tuple[dict, dict]:
    disagreements = 0
    cases = 0
    recon_gap = 0.0
    recon_cases = 0
    seeds = _derived_seeds(seed, 18)
    group = ctx.lattice.ambient
    pos = 0
    for k in (1, 2, 3):
        for rep in range(2):
            base = seeds[pos : pos + k]
            pos += k
            windows = [randn_window(group, s) for s in base]
            verdict = module_frame_check(windows, ctx, frame_tol)
            gabor_verdict = is_frame(GaborSystem(ctx.lattice, tuple(windows)), frame_tol)
            cases += 1
            if verdict["generating"] != gabor_verdict:
                disagreements += 1
            if verdict["generating"] and gabor_verdict:
                recon_cases += 1
                xi = randn_window(group, seeds[pos % len(seeds)])
                sys = GaborSystem(ctx.lattice, tuple(windows))
                duals = dual_window(sys, frame_tol)
                recon_gap = max(recon_gap, reconstruction_residual(sys, duals, xi))
                coeffs = module_expansion(xi, windows, ctx, frame_tol)
                rebuilt = np.zeros(group.order, dtype=np.complex128)
                for a, eta in zip(coeffs, windows):
                    rebuilt += left_act(a, eta, ctx).values
                recon_gap = max(recon_gap, float(np.linalg.norm(rebuilt - xi.values)))
    gen_entry = _entry("generator-equivalence", cases, float(disagreements), float(disagreements))
    recon_entry = _entry("reconstruction", recon_cases, recon_gap, recon_gap)
    return gen_entry, recon_entry


def _check_dual_scaling(ctx: ModuleContext, seed: int, cases: int) -> dict:
    if ctx.lattice.weight != 1:
        entry = _entry("dual-scaling", 0, 0.0, 0.0)
        entry["exponent"] = None
        entry["size"] = str(ctx.lattice.size)
        return entry
    ratios = []
    exponent = None
    for s in _derived_seeds(seed, cases):
        eta = randn_window(ctx.lattice.ambient, s)
        res = dual_lattice_norm_scaling(eta, ctx)
        ratios.append(res["ratio"])
        if res["exponent"] is not None:
            exponent = res["exponent"]
    arr = np.asarray(ratios)
    spread = float(arr.std() / arr.mean()) if arr.mean() > 0 else 0.0
    entry = _entry("dual-scaling", cases, spread, spread)
    entry["exponent"] = exponent
    entry["size"] = str(ctx.lattice.size)
    return entry


def verify_suite(lattice: MeasuredSubgroup, seed: int = 0, frame_tol: float = 1e-9) -> dict:
    """Run every identity check against one lattice; report per-identity gap maxima.

    Deterministic for a fixed (lattice, seed): all randomness comes from the
    documented SplitMix64 stream.
    """
    ctx = module_context(lattice)
    salts = [int(v) for v in splitmix64_stream(seed ^ 0x5EED, 16)]
    identities: list[dict] = []
    coc, proj = _check_cocycle(ctx, salts[0], 60)
    identities += [coc, proj]
    identities.append(_check_twisted_axioms(ctx, salts[1], 8))
    identities.append(_check_localization(ctx, salts[2], 40))
    chain, embed = _check_norm_chain(ctx, salts[3], 20)
    identities += [chain, embed]
    identities.append(_check_operator_extension(ctx, salts[4], 10))
    identities.append(_check_janssen(ctx, salts[5], 10))
    identities.append(_check_figa(ctx, salts[6], 40))
    identities.append(_check_imprimitivity(ctx, salts[7], 10))
    gen_entry, recon_entry = _check_generators(ctx, salts[8], frame_tol)
    identities += [gen_entry, recon_entry]
    identities.append(_check_dual_scaling(ctx, salts[9], 20))
    return {
        "group": list(lattice.ambient.orders),
        "lattice_points": len(lattice),
        "weight": str(lattice.weight),
        "size": str(lattice.size),
        "seed": seed,
        "identities": identities,
        "pass": all(entry["pass"] for entry in identities),
    }
