"""The verify checks against their per-case reference loops.

Each check of verify_suite draws all its cases in one stream call and
evaluates them as stacked arrays, in chunks. The loops below compute the same
identities one case at a time through the per-object public functions, with
one stream call per window; they are the reference the stacked checks must
reproduce: the same verdicts and gaps within 1e-13.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from heisenmod import (
    FiniteAbelianGroup,
    GaborSystem,
    TwistedSeq,
    cstar_norm,
    dual_lattice_norm_scaling,
    dual_window,
    figa_check,
    frame_operator,
    gaussian_stream,
    integrated_rep,
    involution,
    is_frame,
    janssen_frame_operator,
    l2_localization_inner,
    left_act,
    left_inner,
    localization_check,
    module_context,
    module_expansion,
    module_frame_check,
    module_norm,
    randn_window,
    right_act,
    right_inner,
    shift_orbit,
    splitmix64_stream,
    subgroup_from_generators,
    theta_matrix,
    trace,
    twisted_convolve,
    verify_suite,
)
from heisenmod import module as module_impl
from heisenmod.module import VERIFY_TOLERANCES
from heisenmod.shifts import _randn


def _derived_seeds(seed, count):
    return [int(v) for v in splitmix64_stream(seed, count)]


def _random_seq(domain, conjugated, seed):
    vals = gaussian_stream(seed, 2 * len(domain))
    return TwistedSeq(domain, conjugated, vals[0::2] + 1j * vals[1::2])


def _ref_twisted_axioms(ctx, seed, cases):
    """Raw max gap, and the max of each sub-gap over max(1, w)^degree, w the domain weight, but
    associativity's: its gap over _ASSOCIATIVITY eps w^2 ||a||_2 ||b||_2 ||c||_1, in the tolerance's units."""
    gap = scaled = 0.0
    seeds = _derived_seeds(seed, 6 * cases)
    model = module_impl._ASSOCIATIVITY * np.finfo(float).eps / VERIFY_TOLERANCES["twisted-axioms"]
    for i in range(cases):
        for domain, flag in ((ctx.lattice, False), (ctx.dual, True)):
            a = _random_seq(domain, flag, seeds[6 * i])
            b = _random_seq(domain, flag, seeds[6 * i + 1])
            c = _random_seq(domain, flag, seeds[6 * i + 2])
            assoc = twisted_convolve(twisted_convolve(a, b), c).coeffs - twisted_convolve(
                a, twisted_convolve(b, c)
            ).coeffs
            invol = involution(involution(a)).coeffs - a.coeffs
            prod_star = involution(twisted_convolve(a, b)).coeffs - twisted_convolve(
                involution(b), involution(a)
            ).coeffs
            rep_ab = integrated_rep(twisted_convolve(a, b))
            ordered = integrated_rep(b) @ integrated_rep(a) if flag else integrated_rep(a) @ integrated_rep(b)
            rep_star = integrated_rep(involution(a)) - integrated_rep(a).conj().T
            tracial = trace(twisted_convolve(a, involution(b))) - trace(
                twisted_convolve(involution(b), a)
            )
            pairing = l2_localization_inner(a, b) - float(domain.weight) * complex(
                np.sum(a.coeffs * b.coeffs.conj())
            )
            scale = max(1.0, float(domain.weight))
            for degree, diff in ((0, invol), (1, prod_star), (2, rep_ab - ordered), (1, rep_star), (1, tracial),
                                 (1, pairing)):
                gap = max(gap, float(np.abs(diff).max()))
                scaled = max(scaled, float(np.abs(diff).max()) / scale**degree)
            norms = np.linalg.norm(a.coeffs) * np.linalg.norm(b.coeffs) * np.abs(c.coeffs).sum()
            gap = max(gap, float(np.abs(assoc).max()))
            scaled = max(scaled, float(np.abs(assoc).max()) / (model * float(domain.weight) ** 2 * norms))
    return {"twisted-axioms": (gap, scaled)}


def _ref_localization(ctx, seed, cases):
    gap = 0.0
    seeds = _derived_seeds(seed, 2 * cases)
    group = ctx.lattice.ambient
    for i in range(cases):
        xi = randn_window(group, seeds[2 * i])
        eta = randn_window(group, seeds[2 * i + 1])
        res = localization_check(xi, eta, ctx)
        gap = max(gap, abs(res["lhs"] - res["rhs"]), abs(res["via_right"] - res["rhs"]))
    return {"localization": (gap, gap)}


def _ref_norm_chain(ctx, seed, cases):
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
    return {"norm-chain": (rel, rel), "embedding-bound": (embed, embed)}


def _ref_operator_extension(ctx, seed, cases):
    """theta_matrix against Janssen's form of the same operator, the matrix of right_act by right_inner(eta,
    gamma): the raw max gap, and each gap over _EXTENSION eps sqrt(max diag S_gamma max diag S_eta), S_eta the
    frame operator of eta alone, in the tolerance's units."""
    gap = ratio = 0.0
    model = module_impl._EXTENSION * np.finfo(float).eps / VERIFY_TOLERANCES["operator-extension"]
    seeds = _derived_seeds(seed, 2 * cases)
    group = ctx.lattice.ambient
    for i in range(cases):
        eta = randn_window(group, seeds[2 * i])
        gamma = randn_window(group, seeds[2 * i + 1])
        diff = float(np.abs(theta_matrix(eta, gamma, ctx) - integrated_rep(right_inner(eta, gamma, ctx))).max())
        diagonals = [np.abs(np.diag(frame_operator(GaborSystem(ctx.lattice, (v,))))).max() for v in (eta, gamma)]
        gap = max(gap, diff)
        ratio = max(ratio, diff / (model * math.sqrt(diagonals[0] * diagonals[1])))
    return {"operator-extension": (gap, ratio)}


def _ref_janssen(ctx, seed, cases):
    """Raw max gap, and the max of each gap over max(1, max|S|), S the frame operator."""
    gap = scaled = 0.0
    for s in _derived_seeds(seed, cases):
        eta = randn_window(ctx.lattice.ambient, s)
        frame = frame_operator(GaborSystem(ctx.lattice, (eta,)))
        diff = float(np.abs(janssen_frame_operator(eta, ctx.lattice) - frame).max())
        gap = max(gap, diff)
        scaled = max(scaled, diff / max(1.0, float(np.abs(frame).max())))
    return {"janssen": (gap, scaled)}


def _ref_figa(ctx, seed, cases):
    abs_gap = 0.0
    rel_gap = 0.0
    seeds = _derived_seeds(seed, 4 * cases)
    group = ctx.lattice.ambient
    for i in range(cases):
        eta, gamma, xi, psi = (randn_window(group, s) for s in seeds[4 * i : 4 * i + 4])
        res = figa_check(eta, gamma, xi, psi, ctx)
        abs_gap = max(abs_gap, res["abs_gap"])
        rel_gap = max(rel_gap, res["rel_gap"])
    return {"figa": (abs_gap, rel_gap)}


def _ref_imprimitivity(ctx, seed, cases):
    """The raw gap and, per case, its ratio to eps (w ||a||_1 max|gamma| + w' ||b||_1 max|xi|) over the model's
    constant, in the tolerance's units."""
    gap = ratio = 0.0
    seeds = _derived_seeds(seed, 3 * cases)
    group = ctx.lattice.ambient
    for i in range(cases):
        xi, eta, gamma = (randn_window(group, s) for s in seeds[3 * i : 3 * i + 3])
        a, b = left_inner(xi, eta, ctx), right_inner(eta, gamma, ctx)
        lhs, rhs = left_act(a, gamma, ctx).values, right_act(xi, b, ctx).values
        scale = (float(ctx.lattice.weight) * np.abs(a.coeffs).sum() * np.abs(gamma.values).max()
                 + float(ctx.dual.weight) * np.abs(b.coeffs).sum() * np.abs(xi.values).max())
        case = float(np.abs(lhs - rhs).max())
        gap = max(gap, case)
        ratio = max(ratio, case / scale / (module_impl._IMPRIMITIVITY * np.finfo(float).eps))
    return {"imprimitivity": (gap, ratio * VERIFY_TOLERANCES["imprimitivity"])}


def _ref_generator_families(ctx, seed, frame_tol):
    """The per-case loop over the six families: whether the two verdicts disagree, and for a reconstructed
    family the larger of its residual and its Wexler-Raz gap, and the larger of the residual over kappa * |xi|
    and the gap over kappa * sum_j |gamma_j| |eta_j| (the decisive value), None for the others."""
    seeds = _derived_seeds(seed, 13)
    group = ctx.lattice.ambient
    pos = 0
    for k in (1, 2, 3):
        for rep in range(2):
            base = seeds[pos : pos + k]
            pos += k
            windows = [randn_window(group, s) for s in base]
            verdict = module_frame_check(windows, ctx, frame_tol)
            gabor_verdict = is_frame(GaborSystem(ctx.lattice, tuple(windows)), frame_tol)
            if not (verdict["generating"] and gabor_verdict):
                yield verdict["generating"] != gabor_verdict, None
                continue
            xi = randn_window(group, seeds[pos])
            kappa = verdict["bounds"].upper / verdict["bounds"].lower
            duals = dual_window(GaborSystem(ctx.lattice, tuple(windows)), frame_tol)
            coeffs = module_expansion(xi, windows, ctx, frame_tol)
            rebuilt = np.zeros(group.order, dtype=np.complex128)
            wexler_raz = np.zeros(len(ctx.dual), dtype=np.complex128)
            for a, eta, gamma in zip(coeffs, windows, duals):
                rebuilt += left_act(a, eta, ctx).values
                wexler_raz += right_inner(gamma, eta, ctx).coeffs
            wexler_raz[0] -= float(ctx.lattice.size)  # size delta_0: zero is position 0 of the adjoint
            residual, gap = float(np.linalg.norm(rebuilt - xi.values)), float(np.abs(wexler_raz).max())
            norms = sum(gamma.norm() * eta.norm() for gamma, eta in zip(duals, windows))
            yield False, (max(residual, gap), max(residual / xi.norm(), gap / norms) / kappa)


def _ref_generators(ctx, seed, frame_tol):
    families = list(_ref_generator_families(ctx, seed, frame_tol))
    disagreements = float(sum(split for split, _ in families))
    recon = [gaps for _, gaps in families if gaps is not None]
    return {
        "generator-equivalence": (disagreements, disagreements),
        "reconstruction": (max((g for g, _ in recon), default=0.0), max((r for _, r in recon), default=0.0)),
    }


def _ref_dual_scaling(ctx, seed, cases):
    if ctx.lattice.weight != 1:
        return {"dual-scaling": (0.0, 0.0)}
    ratios = []
    for s in _derived_seeds(seed, cases):
        eta = randn_window(ctx.lattice.ambient, s)
        ratios.append(dual_lattice_norm_scaling(eta, ctx)["ratio"])
    arr = np.asarray(ratios)
    spread = float(arr.std() / arr.mean()) if arr.mean() > 0 else 0.0
    return {"dual-scaling": (spread, spread)}


def _reference_suite(lattice, seed, frame_tol=1e-9):
    """Gaps (abs, rel) per identity, with verify_suite's salts and case counts."""
    ctx = module_context(lattice)
    salts = [int(v) for v in splitmix64_stream(seed ^ 0x5EED, 16)]
    gaps = {}
    gaps.update(_ref_twisted_axioms(ctx, salts[1], 8))
    gaps.update(_ref_localization(ctx, salts[2], 40))
    gaps.update(_ref_norm_chain(ctx, salts[3], 20))
    gaps.update(_ref_operator_extension(ctx, salts[4], 10))
    gaps.update(_ref_janssen(ctx, salts[5], 10))
    gaps.update(_ref_figa(ctx, salts[6], 40))
    gaps.update(_ref_imprimitivity(ctx, salts[7], 10))
    gaps.update(_ref_generators(ctx, salts[8], frame_tol))
    gaps.update(_ref_dual_scaling(ctx, salts[9], 20))
    return gaps


USE_REL = {"figa", "imprimitivity", "janssen", "operator-extension", "reconstruction", "twisted-axioms"}

REFERENCE_LATTICES = {
    "Z6": ((6,), [((2,), (0,)), ((0,), (3,))], 1),
    "Z8": ((8,), [((2,), (2,)), ((0,), (4,))], 1),
    "Z2xZ4": ((2, 4), [((1, 0), (0, 0)), ((0, 2), (1, 0)), ((0, 0), (0, 2))], 1),
    "Z4^2": ((4, 4), [((2, 0), (0, 2)), ((0, 1), (2, 1)), ((0, 0), (2, 0)), ((0, 0), (0, 2))], 1),
    "Z8 weight 2": ((8,), [((4,), (0,)), ((0,), (2,))], 2),
    # |Delta| = |G| / 2: no one-window family is a frame, so a generators chunk holds no frame
    "Z12 redundancy 1/2": ((12,), [((4,), (0,)), ((0,), (6,))], 1),
}


# The two Z8^2 jobs at critical density of test_module's CRITICAL_Z8: frames with kappa = B/A about 1e5.
CRITICAL_Z8 = [
    ([[[8, 0], [0, 0]], [[0, 1], [4, 2]], [[0, 0], [4, 0]], [[0, 0], [0, 2]]], 639174198),
    ([[[8, 0], [0, 0]], [[0, 1], [1, 3]], [[0, 0], [4, 0]], [[0, 0], [0, 2]]], 1294990106),
]


@pytest.mark.parametrize("gens, seed", CRITICAL_Z8)
def test_generator_pass_matches_per_case_reference_at_critical_density(gens, seed):
    # The six families in one pass (one _duals over their zero-padded windows) against one family at a
    # time: the same verdicts and reconstruction cases, gaps within 1e-13, on the suite's own draws.
    lattice = subgroup_from_generators(FiniteAbelianGroup((8, 8)), [(tuple(x), tuple(w)) for x, w in gens], 1)
    ctx = module_context(lattice)
    salt = int(splitmix64_stream(seed ^ 0x5EED, 16)[8])
    entries = module_impl._check_generators(ctx, _randn(splitmix64_stream(salt, 13), 64), 1e-9)
    families = list(_ref_generator_families(ctx, salt, 1e-9))
    reference = _ref_generators(ctx, salt, 1e-9)
    assert entries[0]["cases"] == 6 and entries[1]["cases"] == sum(gaps is not None for _, gaps in families) > 0
    for entry in entries:
        abs_gap, rel_gap = reference[entry["name"]]
        assert abs(entry["max_abs_gap"] - abs_gap) <= 1e-13, (entry, abs_gap)
        assert abs(entry["max_rel_gap"] - rel_gap) <= 1e-13, (entry, rel_gap)
        decisive = rel_gap if entry["name"] in USE_REL else abs_gap
        assert entry["pass"] == (decisive <= VERIFY_TOLERANCES[entry["name"]]), entry


@pytest.mark.parametrize("name", sorted(REFERENCE_LATTICES))
def test_stacked_checks_match_per_case_reference(name):
    orders, gens, weight = REFERENCE_LATTICES[name]
    lattice = subgroup_from_generators(FiniteAbelianGroup(orders), gens, Fraction(weight))
    for seed in (0, 7, 2**63 + 5):
        report = {e["name"]: e for e in verify_suite(lattice, seed=seed)["identities"]}
        reference = _reference_suite(lattice, seed)
        assert set(reference) <= set(report)
        for ident, (abs_gap, rel_gap) in reference.items():
            entry = report[ident]
            assert abs(entry["max_abs_gap"] - abs_gap) <= 1e-13, (ident, entry, abs_gap)
            if ident in ("twisted-axioms", "operator-extension"):
                # Each decisive gap is rounding over a scale of a few eps (_ASSOCIATIVITY, _EXTENSION), and the
                # check and the reference round differently: twisted-axioms forms (ab)c and a(bc) from transforms,
                # the reference from coefficients; operator-extension holds the frame blocks against the adjoint's
                # rep blocks, the reference theta_matrix against right_act's dense matrix. So the model's ratio is
                # held to within a factor of 4 (0.41 to 1.34 of the reference's on these lattices).
                assert rel_gap / 4 <= entry["max_rel_gap"] <= 4 * rel_gap, (ident, entry, rel_gap)
            else:
                assert abs(entry["max_rel_gap"] - rel_gap) <= 1e-13, (ident, entry, rel_gap)
            decisive = rel_gap if ident in USE_REL else abs_gap
            assert entry["pass"] == (decisive <= VERIFY_TOLERANCES[ident]), (ident, entry)


def test_chunk_size_does_not_change_the_report(monkeypatch):
    # One case per chunk against the default chunks: the same verdicts and gaps within rounding. On the
    # Z80 |Delta| = 160 rung of the benchmark the default operator-extension chunk holds 3 pairs, and
    # localization and figa run their 40 cases in one chunk (2^17 // (80 * 16 + 160 + 40) = 88). On its
    # Z6^2 redundancy-2 rung (the first of round 0 for seed 1) every check runs in one chunk, twisted-axioms
    # its 8 cases stacked on each domain.
    z6_squared = [((1, 0), (3, 3)), ((0, 1), (3, 4)), ((0, 0), (6, 0)), ((0, 0), (0, 3))]
    lattices = [
        (subgroup_from_generators(FiniteAbelianGroup((12,)), [((2,), (3,)), ((0,), (4,))], 1), 3),
        (subgroup_from_generators(FiniteAbelianGroup((80,)), [((5,), (30,)), ((0,), (8,))], 1), 1252682883),
        (subgroup_from_generators(FiniteAbelianGroup((6, 6)), z6_squared, 1), 1651873308),
    ]
    for lattice, seed in lattices:
        with monkeypatch.context() as patch:
            full = verify_suite(lattice, seed=seed)
            patch.setattr(module_impl, "_CHUNK", 1)
            single = verify_suite(lattice, seed=seed)
        assert [e["pass"] for e in single["identities"]] == [e["pass"] for e in full["identities"]]
        for a, b in zip(single["identities"], full["identities"]):
            assert a["cases"] == b["cases"]
            assert abs(a["max_abs_gap"] - b["max_abs_gap"]) <= 1e-13, (len(lattice), a, b)
            assert abs(a["max_rel_gap"] - b["max_rel_gap"]) <= 1e-13, (len(lattice), a, b)
