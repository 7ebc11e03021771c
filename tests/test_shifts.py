"""Time-frequency shifts, the cocycle, windows, and the seeded random stream."""

import numpy as np
import pytest

from heisenmod import (
    FiniteAbelianGroup,
    TFPoint,
    Window,
    adjoint_subgroup,
    character_vector,
    const_window,
    delta_window,
    full_plane,
    gaussian_stream,
    heisenberg_cocycle,
    inner,
    modulate,
    parse_window,
    randn_window,
    splitmix64_stream,
    subgroup_from_generators,
    tf_shift,
    tf_shift_adjoint_matrix,
    tf_shift_matrix,
    tf_shift_values,
    translate,
)

Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))
Z4 = FiniteAbelianGroup((4,))
Z6 = FiniteAbelianGroup((6,))
Z2xZ2 = FiniteAbelianGroup((2, 2))


def test_window_constructor_checks_length_and_freezes():
    with pytest.raises(ValueError):
        Window(Z4, np.zeros(3))
    win = delta_window(Z4, 0)
    with pytest.raises((ValueError, RuntimeError)):
        win.values[0] = 5.0


def test_delta_const_values():
    d = delta_window(Z4, 2)
    assert d.values.tolist() == [0, 0, 1, 0]
    c = const_window(Z4)
    assert np.allclose(c.values, 1.0)
    assert c.norm() == pytest.approx(2.0)


def test_translate_fixture():
    # (T_1 delta_0)(t) = delta_0(t - 1) puts the spike at t = 1.
    d = delta_window(Z4, 0)
    assert translate((1,), d).values.tolist() == [0, 1, 0, 0]
    ramp = Window(Z4, np.arange(4, dtype=complex))
    assert translate((1,), ramp).values.tolist() == [3, 0, 1, 2]


def test_modulate_fixture():
    ramp = Window(Z4, np.arange(4, dtype=complex))
    got = modulate((1,), ramp).values
    expect = np.arange(4) * np.exp(2j * np.pi * np.arange(4) / 4)
    assert np.allclose(got, expect, atol=1e-14)


def test_tf_shift_is_modulate_after_translate():
    rng = np.random.default_rng(7)
    vals = rng.normal(size=6) + 1j * rng.normal(size=6)
    win = Window(Z6, vals)
    for x in range(6):
        for w in range(6):
            via = modulate((w,), translate((x,), win))
            got = tf_shift(TFPoint((x,), (w,)), win)
            assert np.allclose(got.values, via.values, atol=1e-13)


def test_tf_shift_fixture_z4_delta():
    got = tf_shift(TFPoint((1,), (1,)), delta_window(Z4, 0))
    expect = np.zeros(4, dtype=complex)
    expect[1] = 1j
    assert np.allclose(got.values, expect, atol=1e-14)


def test_tf_shift_fixture_z2_delta():
    got = tf_shift(TFPoint((1,), (1,)), delta_window(Z2, 0))
    assert np.allclose(got.values, [0, -1], atol=1e-14)


def test_tf_shift_preserves_norm():
    win = randn_window(Z6, seed=3)
    n0 = win.norm()
    for z in Z6.tf_points():
        assert tf_shift(z, win).norm() == pytest.approx(n0, abs=1e-12)


def test_tf_shift_matrix_is_unitary_and_matches_action():
    win = randn_window(Z4, seed=11)
    for z in Z4.tf_points():
        mat = tf_shift_matrix(Z4, z)
        assert np.allclose(mat @ mat.conj().T, np.eye(4), atol=1e-12)
        assert np.allclose(mat @ win.values, tf_shift(z, win).values, atol=1e-12)
        assert np.allclose(tf_shift_values(Z4, z, win.values), tf_shift(z, win).values)


def test_adjoint_matrix_identity():
    # pi(z)^* = conj(c(z, -z)) pi(-z)
    for g in (Z4, Z2xZ2):
        for z in g.tf_points():
            lhs = tf_shift_adjoint_matrix(g, z)
            neg = g.tf_neg(z)
            rhs = np.conj(heisenberg_cocycle(g, z, neg)) * tf_shift_matrix(g, neg)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_cocycle_normalization_and_values():
    assert heisenberg_cocycle(Z4, Z4.tf_zero(), Z4.tf_zero()) == 1.0
    z = TFPoint((1,), (1,))
    w = TFPoint((1,), (0,))
    # c(z, w) = conj(<w_2, x_1>) = conj(<0, 1>) = 1
    assert heisenberg_cocycle(Z4, z, w) == pytest.approx(1.0)
    # c(w, z) = conj(<1, 1>) = conj(i) = -i
    assert heisenberg_cocycle(Z4, w, z) == pytest.approx(-1j, abs=1e-14)


def test_cocycle_identity_exhaustive():
    for g in (Z2, Z3):
        pts = g.tf_points()
        for z1 in pts:
            for z2 in pts:
                for z3 in pts:
                    lhs = heisenberg_cocycle(g, z1, z2) * heisenberg_cocycle(
                        g, g.tf_add(z1, z2), z3
                    )
                    rhs = heisenberg_cocycle(g, z2, z3) * heisenberg_cocycle(
                        g, z1, g.tf_add(z2, z3)
                    )
                    assert abs(lhs - rhs) < 1e-12


def test_projective_relation_exhaustive_z4():
    pts = Z4.tf_points()
    mats = {z: tf_shift_matrix(Z4, z) for z in pts}
    for z in pts:
        for w in pts:
            lhs = mats[z] @ mats[w]
            rhs = heisenberg_cocycle(Z4, z, w) * mats[Z4.tf_add(z, w)]
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_commutation_characterizes_adjoint():
    # pi(w) commutes with every pi(z), z in the lattice, iff w is in the adjoint.
    lat = subgroup_from_generators(Z4, [((2,), (0,)), ((0,), (2,))], 1)
    adj = set(adjoint_subgroup(lat).elements)
    for w in Z4.tf_points():
        mw = tf_shift_matrix(Z4, w)
        commutes = all(
            np.allclose(mw @ tf_shift_matrix(Z4, z), tf_shift_matrix(Z4, z) @ mw, atol=1e-12)
            for z in lat.elements
        )
        assert commutes == (w in adj)


def test_splitmix64_reference_vector():
    got = splitmix64_stream(0, 3)
    assert got.tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_splitmix64_matches_scalar_reference():
    def scalar(seed, count):
        out = []
        state = seed & 0xFFFFFFFFFFFFFFFF
        for _ in range(count):
            state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
            out.append(z ^ (z >> 31))
        return out

    for seed in (0, 1, 42, 2**63, 0xDEADBEEF):
        assert splitmix64_stream(seed, 8).tolist() == scalar(seed, 8)


def test_gaussian_stream_recomputes_from_uniforms():
    seed, count = 9, 10
    raw = splitmix64_stream(seed, 10)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u[0::2]))
    theta = 2.0 * np.pi * u[1::2]
    expect = np.empty(10)
    expect[0::2] = r * np.cos(theta)
    expect[1::2] = r * np.sin(theta)
    assert np.allclose(gaussian_stream(seed, count), expect, atol=0)


def test_gaussian_stream_odd_count_and_determinism():
    a = gaussian_stream(5, 7)
    assert a.shape == (7,)
    assert np.array_equal(a, gaussian_stream(5, 7))
    assert not np.array_equal(gaussian_stream(5, 7), gaussian_stream(6, 7))


def test_randn_window_deterministic_and_interleaved():
    w1 = randn_window(Z4, seed=2)
    w2 = randn_window(Z4, seed=2)
    assert np.array_equal(w1.values, w2.values)
    flat = gaussian_stream(2, 8)
    assert np.allclose(w1.values, flat[0::2] + 1j * flat[1::2])


def test_inner_is_conjugate_linear_in_second_slot():
    xi = randn_window(Z6, seed=1)
    eta = randn_window(Z6, seed=2)
    assert inner(xi, eta) == pytest.approx(np.conj(inner(eta, xi)), abs=1e-13)
    assert inner(xi, xi).real == pytest.approx(xi.norm() ** 2, abs=1e-12)


def test_parse_window():
    assert parse_window(Z4, "delta:1").values.tolist() == [0, 1, 0, 0]
    # delta indices wrap around the group order
    assert parse_window(Z4, "delta:9").values.tolist() == [0, 1, 0, 0]
    assert np.allclose(parse_window(Z4, "const").values, 1.0)
    assert np.array_equal(parse_window(Z4, "randn:3").values, randn_window(Z4, 3).values)
    with pytest.raises(ValueError):
        parse_window(Z4, "bogus")
    with pytest.raises(ValueError):
        parse_window(Z4, "delta:x")


def test_full_plane_shift_family_spans_all_matrices():
    # Moyal: the |G|^2 shifts are an orthogonal basis of the matrix algebra.
    assert len(full_plane(Z3, 1)) == 9
    mats = [tf_shift_matrix(Z3, z) for z in Z3.tf_points()]
    gram = np.array([[np.trace(a.conj().T @ b) for b in mats] for a in mats])
    assert np.allclose(gram, 3.0 * np.eye(9), atol=1e-12)


@pytest.mark.parametrize("n", [240, 65536])
def test_phases_reduced_mod_n_before_rounding(n):
    # The phase w*t is reduced mod n in integers before it becomes a float.
    group = FiniteAbelianGroup((n,))
    w = n - 1
    t = np.arange(n)
    expect = np.exp(2j * np.pi * ((w * t) % n) / n)
    assert np.abs(character_vector(group, (w,)) - expect).max() <= 1e-15
    shifted = tf_shift_values(group, TFPoint((0,), (w,)), np.ones(n, dtype=complex))
    assert np.abs(shifted - expect).max() <= 1e-15


def test_tf_shift_matrix_cache_is_bounded():
    bound = tf_shift_matrix.cache_info().maxsize
    assert bound == 16
    g = FiniteAbelianGroup((8,))
    for z in g.tf_points():  # 64 distinct points
        tf_shift_matrix(g, z)
        assert tf_shift_matrix.cache_info().currsize <= bound


STREAM_SEEDS = [0, 1, 2**31, 2**63, 2**63 + 12345, 2**64 - 1, 0xDEADBEEF, -3, 2**70 + 9]


@pytest.mark.parametrize("count", [0, 1, 7, 8, 24, 191, 192])
def test_stream_rows_are_bit_identical_to_scalar_calls(count):
    rows = splitmix64_stream(STREAM_SEEDS, count)
    normals = gaussian_stream(STREAM_SEEDS, count)
    assert rows.shape == normals.shape == (len(STREAM_SEEDS), count)
    for seed, row, normal in zip(STREAM_SEEDS, rows, normals):
        assert np.array_equal(row, splitmix64_stream(seed, count))
        assert gaussian_stream(seed, count).tobytes() == normal.tobytes()
    # a uint64 seed array, as the derived seeds come, and a 2-d seed array
    derived = splitmix64_stream(11, 6)
    assert np.array_equal(splitmix64_stream(derived, count), splitmix64_stream([int(s) for s in derived], count))
    grid = gaussian_stream(derived.reshape(2, 3), count)
    assert grid.shape == (2, 3, count)
    assert grid.reshape(6, count).tobytes() == gaussian_stream(derived, count).tobytes()


def test_uint64_seed_arrays_are_taken_as_they_are():
    # every value of the array, those >= 2^63 included, seeds the same row as its Python int
    seeds = np.array([0, 1, 2**63 - 1, 2**63, 2**63 + 12345, 2**64 - 1, 0xDEADBEEF], dtype=np.uint64)
    assert (seeds >= np.uint64(2**63)).sum() == 3
    for shape in [(7,), (7, 1), (1, 7)]:
        grid = seeds.reshape(shape)
        rows = splitmix64_stream(grid, 5)
        assert rows.dtype == np.uint64 and rows.shape == shape + (5,)
        assert rows.tobytes() == splitmix64_stream(grid.tolist(), 5).tobytes()
    for seed in seeds:
        assert splitmix64_stream(np.array(seed), 5).tobytes() == splitmix64_stream(int(seed), 5).tobytes()


@pytest.mark.parametrize("order", [1, 4, 5, 96])
def test_randn_rows_are_bit_identical_to_randn_window(order):
    from heisenmod.shifts import _randn

    group = FiniteAbelianGroup((order,))
    rows = _randn(STREAM_SEEDS, order)
    assert rows.shape == (len(STREAM_SEEDS), order)
    for seed, row in zip(STREAM_SEEDS, rows):
        assert randn_window(group, seed).values.tobytes() == row.tobytes()


# SHA-256 of the bytes (dtype, shape, then data) of each stream function's outputs at counts 1, 7 and 96,
# recorded before the stream kernels were rewritten: any regrouping of the draws must keep every bit.
GOLDEN_SEEDS = {"0": 0, "1": 1, "-1": -1, "2**63": 2**63, "2**64+5": 2**64 + 5,
                "list": [3, 2**63 + 7, -2, 12345678901234567890],
                "uint64-2d": np.array([[0, 2**64 - 1, 5], [2**63, 77, 1]], dtype=np.uint64)}
GOLDEN_COUNTS = (1, 7, 96)
GOLDEN_DIGESTS = {
    ("splitmix64_stream", "0"): "603d59aa234a577ee84d589bf751142f2f9a2095b50ac554ba80f33c04ce2195",
    ("splitmix64_stream", "1"): "92dc1c2cea5071c963e303b81cf76a5232db650671a708ef36e61b651d007b34",
    ("splitmix64_stream", "-1"): "730ee8947f06fd25e80bada33d053722e81b363ffb705c2adc7b0c0342eb6e5a",
    ("splitmix64_stream", "2**63"): "ed38c8cfc17620a30738d2e4f7433eec0d2bcd75c3b1cfa66fa35822b5f58205",
    ("splitmix64_stream", "2**64+5"): "bd4efe7407f7b4eab99cc2efd10c457923de4be25a53cf1e2cfb85a48710e47b",
    ("splitmix64_stream", "list"): "b479da13292bd14bc5290eecf93e63143d28b1c9000e96e0663fc5d296e89627",
    ("splitmix64_stream", "uint64-2d"): "2ce572e2d3beab5ec8aa170583309ada859b9d485877c2d064cf8715a483c99e",
    ("gaussian_stream", "0"): "36f4bd125a104b90ffc66e4aa1ac096d20139da5551f837a33a8e584fa38518d",
    ("gaussian_stream", "1"): "4c73eb6032c054330ae2ea0a55d443e533c2d7c25111ef47c9d076e4e28a58fd",
    ("gaussian_stream", "-1"): "5d247663106c4c7c9fc732c7609f0a0b787ed80a58c7eaf8a78787d05fe726b0",
    ("gaussian_stream", "2**63"): "e79ccbb6dbeddc0a9609c300c7730fe6ffdf00c23ef1f2936e9c93c2cbc88272",
    ("gaussian_stream", "2**64+5"): "766f76e8a74d792a4704fcff2b25b30a8eff50600f370aaa38edea283bba25ee",
    ("gaussian_stream", "list"): "6067a5dcfa91f7886b1c88c89956897578c28a4ed79d7fd77081031dc361f4fa",
    ("gaussian_stream", "uint64-2d"): "1c7f79d6d3d490acf5a6f0751fce5f34f34a29af8b8893801ed6aefab6034693",
    ("_randn", "0"): "b9019776a9bf376d7384bfa38ee44ae78b656652af18186589d25a26eb06b3a6",
    ("_randn", "1"): "e529c33d65ce0e011055b657f275341aa0fc0a3aca45e33da1340dbeceea7612",
    ("_randn", "-1"): "6fb7aca74c428dd487e7118b18910e04dbbdb49d742158447104f250aa111707",
    ("_randn", "2**63"): "dff582b4132c4bb25872a5c614c7872eccf71a75b5a9c12ef64db342f3b44443",
    ("_randn", "2**64+5"): "1b71326cb5bbb5f69d0e785b3e3bce5107602bd8db57eb0c82bf9bae9eaeba53",
    ("_randn", "list"): "03e846bfe56c4f73421b7702a2bfe90d3d19d53df57b0ba188f0cb78ec3c9cfb",
    ("_randn", "uint64-2d"): "0ba9020f778ea0eddd162629c0b6b3ae57aa87cf16ed69f8d0ee381443fc9017",
    ("randn_window", "0"): "b9019776a9bf376d7384bfa38ee44ae78b656652af18186589d25a26eb06b3a6",
    ("randn_window", "1"): "e529c33d65ce0e011055b657f275341aa0fc0a3aca45e33da1340dbeceea7612",
    ("randn_window", "-1"): "6fb7aca74c428dd487e7118b18910e04dbbdb49d742158447104f250aa111707",
    ("randn_window", "2**63"): "dff582b4132c4bb25872a5c614c7872eccf71a75b5a9c12ef64db342f3b44443",
    ("randn_window", "2**64+5"): "1b71326cb5bbb5f69d0e785b3e3bce5107602bd8db57eb0c82bf9bae9eaeba53",
}


@pytest.mark.parametrize("fname, key", sorted(GOLDEN_DIGESTS), ids="/".join)
def test_stream_outputs_match_their_golden_digests(fname, key):
    import hashlib

    from heisenmod.shifts import _randn

    fns = {"splitmix64_stream": splitmix64_stream, "gaussian_stream": gaussian_stream, "_randn": _randn,
           "randn_window": lambda seed, n: randn_window(FiniteAbelianGroup((n,)), seed).values}
    digest = hashlib.sha256()
    for count in GOLDEN_COUNTS:
        out = fns[fname](GOLDEN_SEEDS[key], count)
        digest.update(f"{out.dtype.str}{out.shape}".encode())
        digest.update(np.ascontiguousarray(out).tobytes())
    assert digest.hexdigest() == GOLDEN_DIGESTS[fname, key]
