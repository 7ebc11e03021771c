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
    TwistedSeq,
    adjoint_subgroup,
    frame_operator,
    module_context,
    randn_window,
    spectrum,
    splitmix64_stream,
    subgroup_from_generators,
    dual_window,
    frame_bounds,
    frame_like,
    involution,
    theta_matrix,
    trace,
    twisted_convolve,
    verify_suite,
)
from heisenmod import gabor as gabor_impl
from heisenmod import groups as groups_impl
from heisenmod import module as module_impl
from heisenmod import module_frame_check
from heisenmod.shifts import _randn
from heisenmod.twisted import _act, _rep, _rep_blocks, _split_rep_blocks, _svals
from sweeps import BIG_RUNGS, SMALL_GROUPS, WIDE_GROUPS, big_rungs, every_subgroup, lattices
from test_lattice_setup import _split_table

# Two Z32^2 lattices, |G| = 1024: a separable one (|Delta| = 1024) and one whose runs start off zero
# (|Delta| = 2048).
Z32_LATTICES = [
    [((4, 0), (0, 0)), ((0, 4), (0, 0)), ((0, 0), (8, 0)), ((0, 0), (0, 8))],
    [((2, 0), (1, 3)), ((0, 2), (5, 2)), ((0, 0), (8, 0)), ((0, 0), (0, 16))],
]
# Two Z64^2 lattices, |G| = 4096: a separable one (|Delta| = 4096, |Delta_0| = 64) and one whose runs start off
# zero (|Delta| = 8192, |Delta_0| = 32). Their dense gather would hold |Delta| x |G| integers, so a seeded
# sample of 64 points is checked.
Z64_LATTICES = [
    ([((8, 0), (0, 0)), ((0, 8), (0, 0)), ((0, 0), (8, 0)), ((0, 0), (0, 8))], 4096, 64, False),
    ([((4, 0), (1, 3)), ((0, 4), (5, 2)), ((0, 0), (16, 0)), ((0, 0), (0, 8))], 8192, 32, True),
]


def _assert_run_table_on_gather(lat, points):
    """Exact equalities of the run table with the group's gather of the given points (positions k):
    in frame-coset order, the run gather is the point's perm, the base row is the roots of its run start's
    phase, and the point's phase less its run start's is the Delta_0 character that pos names, constant on
    each frame coset."""
    tables, n = lat._tables, lat.ambient.order
    g, runs = tables.group, tables.runs
    d0, order = len(runs.chi), runs.frame.ravel()
    starts = points // d0 * d0  # the run starts, (x_r, omega_r)
    assert np.array_equal(runs.pos[points] // d0, points // d0)  # pos keeps each point in its run
    perm, phase = g.gather(tables.x[points], tables.w[points])
    _, start_phase = g.gather(tables.x[starts], tables.w[starts])
    label = (lat.ambient.orders, len(lat))
    assert runs.minus.shape == runs.base.shape == (len(lat) // d0, n) and runs.chi.shape == (d0, d0), label
    assert np.array_equal(runs.minus[points // d0], perm[:, order]), label
    assert np.array_equal(runs.base[points // d0], g.roots[start_phase[:, order]]), label
    zero = g.roots[(phase - start_phase) % g.modulus][:, order]
    assert np.array_equal(zero, np.repeat(runs.chi[runs.pos[points] % d0], n // d0, axis=1)), label


def test_run_table_places_base_and_delta0_phases_on_the_dense_gather():
    # Every point of every small lattice and of the big rungs and two Z32^2 lattices.
    moved = 0
    z32 = FiniteAbelianGroup((32, 32))
    for lat in [*lattices(), *(subgroup_from_generators(z32, gens, 1) for gens in Z32_LATTICES)]:
        _assert_run_table_on_gather(lat, np.arange(len(lat)))
        moved += lat.ambient in SMALL_GROUPS and not np.array_equal(lat._tables.runs.pos, np.arange(len(lat)))
    assert moved == 11


@pytest.mark.parametrize("gens, points, zero, off_zero", Z64_LATTICES, ids=["separable", "off-zero"])
def test_run_table_on_z64_squared_matches_the_gather_of_a_sample(gens, points, zero, off_zero):
    lat = subgroup_from_generators(FiniteAbelianGroup((64, 64)), gens, 1)
    assert len(lat) == points and len(lat._tables.runs.chi) == zero
    assert bool(np.any(lat._tables.w[::zero] != 0)) == off_zero  # a run start (x_r, omega_r) off omega_r = 0
    _assert_run_table_on_gather(lat, (splitmix64_stream(64, 64) % np.uint64(points)).astype(np.int64))


def test_coset_tables_partition_the_group_into_cosets():
    count = 0
    for lat in lattices():
        g, tables = lat.ambient, lat._tables
        table, n = g._table, g.order
        rep, frame = tables.rep, tables.runs.frame
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
        adj_rep = adjoint_subgroup(lat)._tables.rep
        assert np.array_equal(frame[np.argsort(frame[:, 0])], adj_rep[np.argsort(adj_rep[:, 0])])
        count += 1
    assert count > 740


@pytest.mark.parametrize("conjugated", [False, True], ids=["plain", "conjugated"])
def test_rep_blocks_scattered_back_are_the_dense_rep_bit_for_bit(conjugated):
    rng = np.random.default_rng(4)
    for lat in lattices():
        n = lat.ambient.order
        rep = lat._tables.rep
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
    for k, lat in enumerate(lattices()):
        g, n = lat.ambient, lat.ambient.order
        sys = GaborSystem(lat, tuple(randn_window(g, 300 + 7 * k + j) for j in range(1 + k % 2)))
        dense = frame_operator(sys)
        frame = lat._tables.runs.frame
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


def test_adjoint_rep_cosets_are_the_frame_cosets_by_least_member():
    # janssen (module _janssen_gaps) holds the adjoint's rep block i against the lattice's frame block
    # argsort(frame[:, 0])[i]: the adjoint lists its rep cosets by least member, and each is a frame coset,
    # its members in the same ascending order.
    count = 0
    for lat in lattices():
        frame = lat._tables.runs.frame
        assert np.array_equal(adjoint_subgroup(lat)._tables.rep, frame[np.argsort(frame[:, 0])]), lat.ambient
        count += 1
    assert count > 740


def test_frame_like_and_theta_vanish_between_frame_cosets():
    # Both commute with the lattice shifts, so verify's operator-extension compares them on the frame cosets
    # alone. frame_like, the dense Gram of two orbits, and theta column by column, the time-fibre action of
    # each dense analysis column (one stacked _act), cancel between two cosets to rounding; theta_matrix is
    # built per coset, so its entries there are zero, and on the cosets it is both of them.
    worst_off = worst = 0.0
    for k, lat in enumerate(lattices()):
        g, n = lat.ambient, lat.ambient.order
        eta, gamma = randn_window(g, 700 + 2 * k), randn_window(g, 701 + 2 * k)
        like, theta = frame_like(eta, gamma, lat), theta_matrix(eta, gamma, module_context(lat))
        columns = _act(lat, False, gabor_impl.analysis(eta, lat).T, np.broadcast_to(gamma.values, (n, n))).T
        frame = lat._tables.runs.frame
        off = np.ones((n, n), dtype=bool)
        off[frame[:, :, None], frame[:, None, :]] = False
        scale = np.abs(like).max()
        assert np.all(theta[off] == 0), (g.orders, len(lat))
        worst_off = max(worst_off, np.abs(like[off]).max(initial=0.0) / scale,
                        np.abs(columns[off]).max(initial=0.0) / scale)
        worst = max(worst, np.abs(theta - like).max() / scale, np.abs(theta - columns).max() / scale)
    assert worst_off <= 1e-14 and worst <= 1e-14, (worst_off, worst)


MUTATION_RUNGS = [((12,), [((2,), (3,)), ((0,), (4,))]), BIG_RUNGS[0][:2]]


def _fresh(rung):
    """A lattice no suite has run on. Its tables are built on first use, so a table patched before the
    first suite reaches every table built from it (rep, rep_gather) as well as the kernels reading it."""
    return subgroup_from_generators(FiniteAbelianGroup(rung[0]), rung[1], 1)


def _failing(lattice) -> set:
    return {e["name"] for e in verify_suite(lattice, seed=2)["identities"] if not e["pass"]}


# The identities each mutation fails: the frame-coset swap on Z12, each run-table swap on both rungs.
FRAME_COSET_MUTATION = {"localization", "norm-chain", "operator-extension", "figa", "imprimitivity",
                        "reconstruction", "dual-scaling", "twisted-axioms"}
# janssen reads the lattice's run shift (twisted _base_rows) for its frame blocks, so it fails minus and base.
RUN_TABLE_MUTATIONS = {
    "pos": {"operator-extension", "reconstruction", "twisted-axioms"},
    "minus": {"localization", "norm-chain", "operator-extension", "janssen", "figa", "imprimitivity",
              "reconstruction", "dual-scaling", "twisted-axioms"},
    "base": {"localization", "norm-chain", "operator-extension", "janssen", "figa", "imprimitivity",
             "reconstruction", "dual-scaling", "twisted-axioms"},
    "chi": {"localization", "operator-extension", "reconstruction", "twisted-axioms"},
}


def test_a_wrong_frame_coset_table_fails_verify():
    # Z12 (2, 3), (0, 4): Delta_0 = {(0, 2 j)}, so the frame cosets are {t, t + 6}. Two of them swap a
    # member, so the run table's columns are read at the wrong points of G.
    assert not _failing(_fresh(MUTATION_RUNGS[0]))
    lattice = _fresh(MUTATION_RUNGS[0])
    runs = lattice._tables.runs
    assert runs.frame.shape == (6, 2) and np.all(runs.frame[:, 1] - runs.frame[:, 0] == 6)
    assert not {"rep", "rep_gather"} & set(lattice._tables.__dict__)
    bad = runs.frame.copy()
    bad[0, 1], bad[1, 1] = runs.frame[1, 1], runs.frame[0, 1]
    lattice._tables.__dict__["runs"] = runs._replace(frame=bad)
    assert _failing(lattice) == FRAME_COSET_MUTATION


@pytest.mark.parametrize("rung", MUTATION_RUNGS, ids=["z12", "z6x6"])
@pytest.mark.parametrize("field", sorted(RUN_TABLE_MUTATIONS))
def test_a_wrong_run_table_fails_verify(field, rung):
    # Two pos entries of one run, or two rows of the run gather, the base phases or the Delta_0 characters,
    # swapped.
    assert not _failing(_fresh(rung))
    lattice = _fresh(rung)
    runs = lattice._tables.runs
    assert not {"rep", "rep_gather"} & set(lattice._tables.__dict__)
    bad = getattr(runs, field).copy()
    i, j = (len(runs.chi), len(runs.chi) + 1) if field == "pos" else (0, 1)  # pos: the first two entries of run 1
    assert not np.array_equal(bad[i], bad[j])
    bad[[i, j]] = bad[[j, i]]
    lattice._tables.__dict__["runs"] = runs._replace(**{field: bad})
    assert _failing(lattice) == RUN_TABLE_MUTATIONS[field]


@pytest.mark.parametrize("rung", MUTATION_RUNGS, ids=["z12", "z6x6"])
@pytest.mark.parametrize("field", ["chi", "pos"])
def test_a_wrong_chi_or_pos_fails_the_trace_witness(field, rung):
    # The crossed-product kernel (twisted _crossed) reads chi and pos through its transforms, as the rep blocks
    # do. With two Delta_0 characters, or two positions of one run, swapped (as above) it is still an
    # associative product, that of a relabelled algebra; tr(a b*) = w sum a conj(b) reads neither table, so it
    # is the witness that fails.
    lattice = _fresh(rung)
    runs = lattice._tables.runs
    bad = getattr(runs, field).copy()
    i, j = (len(runs.chi), len(runs.chi) + 1) if field == "pos" else (0, 1)
    bad[[i, j]] = bad[[j, i]]
    lattice._tables.__dict__["runs"] = runs._replace(**{field: bad})
    a, b, c = (TwistedSeq(lattice, False, v) for v in _randn(splitmix64_stream(9, 3), len(lattice)))
    associativity = twisted_convolve(twisted_convolve(a, b), c).coeffs - twisted_convolve(a, twisted_convolve(b, c)).coeffs
    assert np.abs(associativity).max() <= 1e-12
    witness = trace(twisted_convolve(a, involution(b))) - float(lattice.weight) * np.sum(a.coeffs * b.coeffs.conj())
    assert abs(witness) > 0.1
    assert "twisted-axioms" in _failing(lattice)


def test_reversed_rep_blocks_fail_verify():
    # Z12 (2, 3), (0, 4): two rep cosets of 6; taking their blocks in reverse order leaves every
    # representation identity intact, and only the blocks applied to a vector against _act see it.
    assert not _failing(_fresh(MUTATION_RUNGS[0]))
    lattice = _fresh(MUTATION_RUNGS[0])
    assert lattice._tables.rep_gather.shape == (2, 6, 6)
    lattice._tables.__dict__["rep_gather"] = lattice._tables.rep_gather[::-1]
    assert _failing(lattice) == {"twisted-axioms"}


@pytest.mark.parametrize("rung", MUTATION_RUNGS, ids=["z12", "z6x6"])
def test_swapped_involution_phases_fail_twisted_axioms(rung):
    # The cached phases of a*(z) = conj(c(z, -z)) conj(a(-z)) at two points of different phase, swapped
    # for both cocycle flags: only the involution reads them.
    assert not _failing(_fresh(rung))
    lattice = _fresh(rung)
    star = lattice._tables.star.copy()
    k = int(np.flatnonzero(star[0] != star[0, 0])[0])
    star[:, [0, k]] = star[:, [k, 0]]
    lattice._tables.__dict__["star"] = star
    assert _failing(lattice) == {"twisted-axioms"}


def test_spectral_kernels_see_only_blocks_on_the_z96_weight_3_rung(monkeypatch):
    # 24 frame cosets and 24 rep cosets of 4; the lattice is its own adjoint. Dual-scaling runs only at
    # counting weight, so it runs on the same point set at weight 1. The split (groups, _SplitTable) takes
    # every block to 1 x 1, so the singular values take their closed form and LAPACK sees width 1 alone.
    orders, gens, weight = BIG_RUNGS[3]
    lattice = subgroup_from_generators(FiniteAbelianGroup(orders), gens, weight)
    assert lattice._tables.rep.shape == lattice._tables.runs.frame.shape == (24, 4)
    widths = []
    for name in ("eigvalsh", "svd", "solve"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda m, *args, _real=real, _name=name, **kw:
                            widths.append((_name, m.shape[-1])) or _real(m, *args, **kw))
    ctx, counting = module_context(lattice), module_context(lattice.with_weight(1))
    n = lattice.ambient.order
    module_impl._check_norm_chain(ctx, _randn(splitmix64_stream(3, 20), n))
    module_impl._check_generators(ctx, _randn(splitmix64_stream(3, 13), n), 1e-9)
    module_impl._check_dual_scaling(counting, _randn(splitmix64_stream(3, 20), n))
    assert {name for name, _ in widths} == {"eigvalsh", "solve"}, widths
    assert max(width for _, width in widths) == 1, widths


def _basis(lattice):
    """The split's basis W from its table (groups _SplitTable): rows in the order of G, columns by frame
    coset, orbit and character; and the columns of each split block (coset, psi) as the rows of an index."""
    tables, n = lattice._tables, lattice.ambient.order
    split, blocks = tables.split, len(tables.runs.chi)
    chars = len(split.chars)
    members = tables.runs.frame.ravel()[split.order].reshape(-1, chars)  # one orbit t0 + H' per row
    basis = np.zeros((n, n), dtype=np.complex128)
    basis[members[:, :, None], np.arange(n).reshape(-1, 1, chars)] = (split.phase.conj().reshape(-1, chars, 1)
                                                                     * split.chars.T.conj())
    return basis, np.arange(n).reshape(blocks, -1, chars).transpose(0, 2, 1).reshape(blocks * chars, -1)


def _assert_reps_are_coset_leaders(sub):
    """The split's reps hold the least run of each coset of H' in X(Delta), runs / |H'| of them: H' the time
    shifts in Delta_0^perp whose shifts commute with those of every other such time shift."""
    table, tables = sub.ambient._table, sub._tables
    d0 = len(tables.runs.chi)
    x, w = tables.x[::d0], tables.w[::d0]  # one point per run, the runs by ascending time shift
    inside = ~table.pairings(tables.w[:d0], x).any(axis=0)  # H: the points (0, v), v in Delta_0, come first
    commutators = table.pairings(w[inside], x[inside])
    shifts = x[inside][(commutators == commutators.T).all(axis=1)]  # H'
    reps = tables.split.reps
    assert len(shifts) == len(tables.split.chars) and len(reps) * len(shifts) == len(x)
    cosets = table.index(x[reps][:, None] + shifts[None])  # (reps, |H'|)
    assert np.array_equal(np.sort(cosets, axis=None), table.index(x))
    assert np.array_equal(cosets.min(axis=1), table.index(x[reps]))


def test_split_table_equals_its_oracle_on_more_lattices(benchmark_jobs):
    # Every array of the split table (order, phase, chars, reps) bit for bit against the builder it replaced
    # (test_lattice_setup's oracle, which that module runs on every small lattice), and its reps as the coset
    # leaders, on each lattice and its adjoint: the big rungs, every subgroup of the planes of Z4^2, Z2 x Z6 and
    # Z2^3, and the verify-ladder rungs of round 0 for seed 1.
    rungs = []
    for job in benchmark_jobs.round_jobs("verify-ladder", 1, 0):
        gens = [(tuple(x), tuple(w)) for x, w in job["generators"]]
        rungs.append(subgroup_from_generators(FiniteAbelianGroup(tuple(job["group"])), gens, 1))
    split = count = 0
    for lat in [*big_rungs(), *every_subgroup(WIDE_GROUPS), *rungs]:
        for sub in (lat, adjoint_subgroup(lat)):
            tables = sub._tables
            got = tables.split
            expect = _split_table(tables.group, tables.plane, tables.runs.frame)
            for field in got._fields:
                assert np.array_equal(getattr(got, field), getattr(expect, field)), (sub.ambient.orders, field)
            _assert_reps_are_coset_leaders(sub)
            split += len(got.chars) > 1
        count += 1
    assert count == 5 + 1983 + 402 + 2825 + len(rungs) and split > 7500, (count, split)


def test_split_is_exact_on_every_small_lattice():
    # Every subgroup of the small groups (sweeps) and the big rungs, each lattice and its adjoint: W is
    # unitary, W^H S W leaks <= 1e-14 relative off its split blocks, the spectrum of the quotient frame blocks
    # (one run per coset of H', gabor _factor) is the dense eigvalsh, the duals are the dense solve within
    # gabor's error model (4 eps sqrt|G| B / A), and the quotient rep blocks (_split_rep_blocks) have every
    # singular value of the unsplit ones, within 16 eps of the largest: a few eps of it on each side (twisted
    # _svals, LAPACK), and the change of basis's |H'| terms.
    eps = np.finfo(float).eps
    worst_unitary = worst_leak = worst_eig = worst_sv = 0.0
    rng, count, split = np.random.default_rng(6), 0, 0
    for k, lat in enumerate(lattices()):
        g, n = lat.ambient, lat.ambient.order
        adjoint = adjoint_subgroup(lat)
        for sub, dual in ((lat, adjoint), (adjoint, lat)):
            _assert_reps_are_coset_leaders(sub)
            basis, index = _basis(sub)
            worst_unitary = max(worst_unitary, np.abs(basis.conj().T @ basis - np.eye(n)).max())
            sys = GaborSystem(sub, tuple(randn_window(g, 500 + 7 * k + j) for j in range(1 + k % 2)))
            dense = frame_operator(sys)
            full = basis.conj().T @ dense @ basis
            inside = np.zeros((n, n), dtype=bool)
            inside[index[:, :, None], index[:, None, :]] = True
            worst_leak = max(worst_leak, np.abs(full[~inside]).max(initial=0.0) / np.abs(dense).max())
            expect = np.linalg.eigvalsh(dense)[::-1]
            worst_eig = max(worst_eig, np.abs(spectrum(sys) - expect).max() / max(expect[0], 1e-300))
            bounds = frame_bounds(sys)
            if bounds.lower > 1e-9 * max(bounds.upper, 1.0):
                solved = np.linalg.solve(dense, np.stack([eta.values for eta in sys.windows], axis=1))
                duals = np.stack([gamma.values for gamma in dual_window(sys)], axis=1)
                tol = 4 * eps * np.sqrt(n) * bounds.upper / bounds.lower
                assert np.linalg.norm(duals - solved) <= tol * np.linalg.norm(solved), (g.orders, len(sub))
            a = rng.standard_normal(len(sub)) + 1j * rng.standard_normal(len(sub))
            expect = np.sort(np.linalg.svd(_rep_blocks(sub, False, a), compute_uv=False), axis=None)
            got = np.sort(_svals(_split_rep_blocks(sub, False, a, dual)), axis=None)
            worst_sv = max(worst_sv, np.abs(got - expect).max() / expect[-1])
            split += len(sub._tables.split.chars) > 1
        count += 1
    assert count > 740 and split > 1000, (count, split)
    assert worst_unitary <= 1e-15 and worst_leak <= 1e-14, (worst_unitary, worst_leak)
    assert worst_eig <= 1e-14 and worst_sv <= 16 * eps, (worst_eig, worst_sv)


# The verify-ladder rungs' blocks before and after the split: (frame count, size) -> (count, size), likewise
# for the rep blocks, which the adjoint's table splits. The split reaches the irreducible size on each:
# sqrt(|adjoint| / |Delta cap adjoint|) for the frame blocks, sqrt(|Delta| / |Delta cap adjoint|) for the rep
# blocks.
Z6_R1 = ((6, 6), [((3, 0), (0, 0)), ((0, 1), (2, 3)), ((0, 0), (2, 0)), ((0, 0), (0, 6))], 1)
SPLIT_SIZES = [
    (BIG_RUNGS[0], (2, 18), (36, 1), (1, 36), (18, 2)),  # Z6^2 at redundancy 2
    (Z6_R1, (3, 12), (36, 1), (3, 12), (36, 1)),
    (BIG_RUNGS[2], (10, 8), (80, 1), (5, 16), (40, 2)),  # Z80
    (BIG_RUNGS[3], (24, 4), (96, 1), (24, 4), (96, 1)),  # Z96 at weight 3
    (BIG_RUNGS[1], (8, 8), (16, 4), (8, 8), (16, 4)),  # Z8^2, q = 4
]


@pytest.mark.parametrize("rung, frame, frame_split, rep, rep_split", SPLIT_SIZES,
                         ids=["z6x6-r2", "z6x6-r1", "z80", "z96-w3", "z8x8"])
def test_split_blocks_on_the_ladder_rungs(rung, frame, frame_split, rep, rep_split):
    orders, gens, weight = rung
    lattice = subgroup_from_generators(FiniteAbelianGroup(orders), gens, weight)
    adjoint = adjoint_subgroup(lattice)
    common = np.intersect1d(lattice.plane, adjoint.plane)
    assert lattice._tables.runs.frame.shape == frame and lattice._tables.rep.shape == rep
    eta = randn_window(lattice.ambient, 1).values
    assert gabor_impl._factor(eta[None], lattice)[0].shape[-3::2] == frame_split
    blocks = _split_rep_blocks(lattice, False, gabor_impl._analyze(eta, eta, lattice), adjoint)
    assert blocks.shape[-3:-1] == rep_split
    # q^2 |Delta cap adjoint| = |adjoint| for the frame operator (rep of the adjoint's algebra), |Delta| for rep
    assert frame_split[1] ** 2 * len(common) == len(adjoint) and rep_split[1] ** 2 * len(common) == len(lattice)


def test_density_rule_is_the_factor_block_shape(monkeypatch):
    # Z12 with Delta = <(2, 0)>: |Delta| = 6 < |G| = 12, so one window is no frame. H' = 2 Z_12 is every run's
    # time shift, one coset, so it splits the one frame coset into 6 blocks of 1 rep x 2 orbits: fewer rows
    # than columns, which sets the algebraic route's lower bound to 0.0 exactly.
    group = FiniteAbelianGroup((12,))
    ctx = module_context(subgroup_from_generators(group, [((2,), (0,))], 1))
    factor, _ = gabor_impl._factor(randn_window(group, 3).values[None, None], ctx.lattice)
    assert factor.shape == (1, 6, 1, 2)
    lowers = []
    real = gabor_impl._frame_test
    monkeypatch.setattr(gabor_impl, "_frame_test", lambda lower, *rest: lowers.append(lower.copy()) or real(lower, *rest))
    verdict = module_frame_check([randn_window(group, 3)], ctx)
    assert lowers[0].tolist() == [0.0] and not verdict["generating"]
    # k runs / |H'| rows against |G| / (|Delta_0| |H'|) columns: fewer rows exactly when k |Delta| < |G|, on
    # every small lattice and the big rungs, for k = 1, 2, 3.
    count = 0
    for lat in lattices():
        tables, n = lat._tables, lat.ambient.order
        d0, chars, runs = len(tables.runs.chi), len(tables.split.chars), len(tables.runs.minus)
        for k in (1, 2, 3):
            factor, _ = gabor_impl._factor(np.zeros((k, n), dtype=np.complex128), lat)
            assert factor.shape == (d0 * chars, k * runs // chars, n // d0 // chars)
            assert (factor.shape[-2] < factor.shape[-1]) == (k * len(lat) < n), (lat.ambient.orders, len(lat), k)
            count += 1
    assert count > 3 * 740


def _bumped_echelon(real):
    """groups._echelon with its first relative order one too high: a wrong polycyclic presentation of H'."""
    def echelon(*args):
        rows, orders, bound = real(*args)
        return rows, orders + (np.arange(len(orders)) == 0), bound

    return echelon


# The identities each split-table mutation fails. On the Z12 rung H' has two elements, so a swap of the two
# columns of its character table only negates the nontrivial character: the same basis, not a mutation. A phase
# swap on Z12 reaches the norm chain since the frame factor keeps one run per coset of H' (the split's reps):
# its Gram is |H'| times theirs only in a basis where U_h acts on each split block as one scalar, so a wrong
# phase moves the frame side's norms off the rep side's, which the adjoint's table splits. The rep side reads
# the orbit-start rows of each block, order[::|H'|]; reading row t0 + h instead multiplies each row of the split
# block by a unit phase, which leaves its singular values, so it is not a mutation either. A reps table that
# repeats one coset of H' and drops another doubles one row of every frame block and loses one. On the Z6^2 rung
# the split blocks are 1 x 1 and the lost run's row on block b is a unit times the kept run's row on another
# block b', so S'^-1 eta, S' the wrong blocks 2 |F_0|^2, is still a dual (not the canonical one): reconstruction
# holds, and the norms see the mutation.
SPLIT_MUTATIONS = {
    ("phase", 0): {"norm-chain", "reconstruction", "dual-scaling"},
    ("phase", 1): {"norm-chain", "reconstruction", "dual-scaling"},
    ("chars", 1): {"norm-chain", "reconstruction", "dual-scaling"},
    ("order", 0): {"norm-chain", "reconstruction", "dual-scaling"},
    ("order", 1): {"norm-chain", "reconstruction", "dual-scaling"},
    ("reps", 0): {"norm-chain", "reconstruction", "dual-scaling"},
    ("reps", 1): {"norm-chain", "dual-scaling"},
}


@pytest.mark.parametrize("field, rung", sorted(SPLIT_MUTATIONS), ids=lambda v: v if isinstance(v, str) else
                         ["z12", "z6x6"][v])
def test_a_wrong_split_table_fails_verify(field, rung, monkeypatch):
    # Two column phases of the lattice's split table (the second of the first orbit and the first of the
    # second), or two columns of its character table (two elements of H'), swapped; the second of the
    # lattice's reps made a copy of the first; or the first relative order of H''s generators one too high,
    # for the lattice's table and the adjoint's.
    assert not _failing(_fresh(MUTATION_RUNGS[rung]))
    lattice = _fresh(MUTATION_RUNGS[rung])
    split = lattice._tables.split
    if field == "order":
        monkeypatch.setattr(groups_impl, "_echelon", _bumped_echelon(groups_impl._echelon))
        del lattice._tables.__dict__["split"]
        lattice._tables.shared.clear()  # the cached H', whose presentation the patch bumps
    elif field == "reps":
        assert len(split.reps) > 1
        lattice._tables.__dict__["split"] = split._replace(reps=split.reps[[0, 0, *range(2, len(split.reps))]])
    else:
        bad = getattr(split, field).copy()
        i, j = (1, len(split.chars)) if field == "phase" else (0, 1)
        assert not np.array_equal(bad[..., i], bad[..., j])
        bad[..., [i, j]] = bad[..., [j, i]]
        lattice._tables.__dict__["split"] = split._replace(**{field: bad})
    assert _failing(lattice) == SPLIT_MUTATIONS[field, rung]
