"""Time-frequency shifts on C^G and the Heisenberg cocycle.

The shift at a plane point z = (x, w) is pi(z) = M_w T_x: translate by x,
then multiply by the character w. Shifts compose projectively,

    pi(z) pi(u) = c(z, u) pi(z + u),    c((x, w), (y, tau)) = conj(character(tau, x)),

and the adjoint of pi(z) is conj(c(z, -z)) pi(-z). Operators are plain complex
|G| x |G| ndarrays; shifts act on vectors directly in O(|G|) and matrices are
materialized only on demand.

Phases are integers mod N, the lcm of the factor orders, made complex by one
lookup in the group's root table (see groups). Every shift, and every row of a
dense lattice orbit, is one gather: (pi(z) xi)(t) = roots[phase[t]] xi[perm[t]]
with perm[t] = index(t - x) and phase[t] = pairing(w, t).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .groups import FiniteAbelianGroup, GroupElement, TFPoint, character

OperatorMatrix = np.ndarray


@dataclass(eq=False)
class Window:
    """A complex signal indexed by the enumerated elements of a group."""

    group: FiniteAbelianGroup
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.complex128)
        if vals.shape != (self.group.order,):
            raise ValueError(
                f"window length {vals.shape} does not match group order {self.group.order}"
            )
        vals.setflags(write=False)
        self.values = vals

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


def inner(xi: Window, eta: Window) -> complex:
    """l2 pairing sum_t xi(t) conj(eta(t)), linear in the first slot."""
    if xi.group != eta.group:
        raise ValueError("windows live on different groups")
    return complex(np.vdot(eta.values, xi.values))


def delta_window(group: FiniteAbelianGroup, index: int) -> Window:
    vals = np.zeros(group.order, dtype=np.complex128)
    vals[int(index) % group.order] = 1.0
    return Window(group, vals)


def const_window(group: FiniteAbelianGroup) -> Window:
    return Window(group, np.ones(group.order, dtype=np.complex128))


def randn_window(group: FiniteAbelianGroup, seed: int) -> Window:
    """Seeded complex Gaussian window with a fixed, portable stream.

    Real and imaginary parts are independent standard normals produced by
    Box-Muller from SplitMix64 uniforms; see splitmix64_stream for the exact
    stream definition.
    """
    return Window(group, _randn(seed, group.order))


def _randn(seed, n: int) -> np.ndarray:
    """Values of randn_window on a group of order n: one row per seed when ``seed`` is a sequence.

    Normal pair j of gaussian_stream becomes entry j, real part r cos(theta) and imaginary part
    r sin(theta), each written into its view of one complex array. That equals a + 1j*b of the pair
    (a, b) bit for bit but in one corner, r = 0 exactly (u1 = 1, probability 2^-53 per pair): there
    a + 1j*b has imaginary part +0.0 and can turn a real -0.0 into +0.0, while here each zero keeps the
    sign that cos and sin give it.
    """
    seeds = _seeds(seed)
    # [0, ..., j] and [1, ..., j]: the states seed + (2j + 1) gamma and seed + (2j + 2) gamma of the stream's
    # outputs 2j and 2j + 1, each half contiguous, so every pass below runs over it in one inner loop.
    state = np.empty((2,) + seeds.shape + (n,), dtype=np.uint64)
    np.add(seeds[..., None], _GAMMA * np.arange(1, 2 * n, 2, dtype=np.uint64), out=state[0])
    np.add(state[0], _GAMMA, out=state[1])
    u = np.empty(state.shape, dtype=np.float64)
    _mix(state, spare=u.view(np.uint64))
    np.add(np.right_shift(state, _S11, out=state), 1.0, out=u)  # the uniforms ((output >> 11) + 1) 2^-53
    u *= 2.0**-53
    r, theta = u
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta *= 2.0 * np.pi
    out = np.empty(seeds.shape + (n,), dtype=np.complex128)
    np.multiply(np.cos(theta, out=out.real), r, out=out.real)
    np.multiply(np.sin(theta, out=out.imag), r, out=out.imag)
    return out


def parse_window(group: FiniteAbelianGroup, spec: str) -> Window:
    """Named window constructors: "delta:<index>", "const", "randn:<seed>"."""
    if spec == "const":
        return const_window(group)
    if spec.startswith("delta:"):
        return delta_window(group, int(spec.split(":", 1)[1]))
    if spec.startswith("randn:"):
        return randn_window(group, int(spec.split(":", 1)[1]))
    raise ValueError(f"unknown window spec {spec!r}")


_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = (np.uint64(k) for k in (11, 27, 30, 31))
_MASK = 0xFFFFFFFFFFFFFFFF


def splitmix64_stream(seed, count: int) -> np.ndarray:
    """First ``count`` outputs of SplitMix64 seeded with ``seed``, as uint64.

    Output i (0-based) mixes state seed + (i+1) * 0x9E3779B97F4A7C15 mod 2^64:
    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
    z *= 0x94D049BB133111EB; z ^= z >> 31.
    A sequence of seeds gives one row per seed, each equal to its scalar call;
    a uint64 array of seeds is taken as it is. Output i depends on (seed, i)
    alone, so any regrouping of the draws keeps every bit.
    """
    state = np.add(_seeds(seed)[..., None], _GAMMA * np.arange(1, count + 1, dtype=np.uint64))
    return _mix(state, spare=np.empty_like(state))


def _seeds(seed) -> np.ndarray:
    """Seeds as a uint64 array, each taken mod 2^64: a uint64 array as it is, a Python int directly,
    anything else through Python ints, exact for every seed, unlike int64 or float64."""
    if isinstance(seed, np.ndarray) and seed.dtype == np.uint64:
        return seed
    if isinstance(seed, int):
        return np.array(seed & _MASK, dtype=np.uint64)
    seeds = np.asarray(seed, dtype=object)
    return np.array([int(s) & _MASK for s in seeds.ravel()], dtype=np.uint64).reshape(seeds.shape)


def _mix(z: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """SplitMix64's output function on a uint64 array of states, in place; ``spare`` (uint64, z's shape)
    takes the shifts."""
    z ^= np.right_shift(z, _S30, out=spare)
    z *= _MIX1
    z ^= np.right_shift(z, _S27, out=spare)
    z *= _MIX2
    z ^= np.right_shift(z, _S31, out=spare)
    return z


def gaussian_stream(seed, count: int) -> np.ndarray:
    """Standard normals from SplitMix64 via Box-Muller; one row per seed for a sequence of seeds.

    Uniform i is ((output_i >> 11) + 1) * 2^-53, in (0, 1]. Consecutive
    uniform pairs (u1, u2) yield the normal pair
    (sqrt(-2 ln u1) cos(2 pi u2), sqrt(-2 ln u1) sin(2 pi u2)): the real and
    imaginary parts of _randn's entries, read as interleaved floats.
    """
    return _randn(seed, (count + 1) // 2).view(np.float64)[..., :count]


def _shift(group: FiniteAbelianGroup, z: TFPoint) -> tuple[np.ndarray, np.ndarray]:
    """The group's gather of the single point z = (x, w): perm[t] = index(t - x), phase[t] = pairing(w, t)."""
    perm, phase = group._table.gather(np.array([group.reduce(z[0])]), np.array([group.reduce(z[1])]))
    return perm[0], phase[0]


def translate(x: GroupElement, xi: Window) -> Window:
    """(T_x xi)(t) = xi(t - x)."""
    return tf_shift((x, xi.group.zero()), xi)


def modulate(w: GroupElement, xi: Window) -> Window:
    """(M_w xi)(t) = character(w, t) xi(t)."""
    return tf_shift((xi.group.zero(), w), xi)


def tf_shift(z: TFPoint, xi: Window) -> Window:
    """pi(z) xi = M_w T_x xi for z = (x, w)."""
    return Window(xi.group, tf_shift_values(xi.group, z, xi.values))


def tf_shift_values(group: FiniteAbelianGroup, z: TFPoint, values: np.ndarray) -> np.ndarray:
    """pi(z) applied to a bare coefficient vector."""
    perm, phase = _shift(group, z)
    return group._table.roots[phase] * values[perm]


@lru_cache(maxsize=16)
def tf_shift_matrix(group: FiniteAbelianGroup, z: TFPoint) -> OperatorMatrix:
    """pi(z) as a |G| x |G| matrix (read-only): row t holds roots[phase[t]] in column perm[t].

    Cached for the 16 most recently used (group, point) pairs, so the cache
    holds at most 16 dense matrices.
    """
    perm, phase = _shift(group, z)
    n = group.order
    mat = np.zeros((n, n), dtype=np.complex128)
    mat[np.arange(n), perm] = group._table.roots[phase]
    mat.setflags(write=False)
    return mat


def tf_shift_adjoint_matrix(group: FiniteAbelianGroup, z: TFPoint) -> OperatorMatrix:
    """pi(z)* = conj(c(z, -z)) pi(-z) as a matrix."""
    return tf_shift_matrix(group, TFPoint(group.reduce(z[0]), group.reduce(z[1]))).conj().T


def heisenberg_cocycle(group: FiniteAbelianGroup, z: TFPoint, u: TFPoint) -> complex:
    """c(z, u) = conj(character(tau, x)) for z = (x, w), u = (y, tau)."""
    return character(group, u[1], z[0]).conjugate()
