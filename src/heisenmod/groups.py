"""Finite abelian groups, characters, and measured subgroups of the time-frequency plane.

A group is a product of cyclic factors Z_{n_1} x ... x Z_{n_r}. Elements are
integer tuples with coordinate j reduced mod n_j, enumerated in lexicographic
order. The dual group is identified with the group itself through the pairing

    character(w, x) = exp(2 pi i * sum_j w_j x_j / n_j),

so points of the time-frequency plane G x G^ are pairs of coordinate tuples.

Phase convention: a phase is an integer m mod N, N the lcm of the factor
orders, made complex only by the root table roots[m] = exp(2 pi i m / N); the
pairing is m = sum_j (w_j x_j mod n_j) N / n_j mod N. Each group builds one
integer table on first use (coordinates, mixed-radix weights, N, roots). A
measured subgroup is stored as the sorted int64 plane indices
index(x) * |G| + index(w) of its points; its coordinates, run table (its
shifts in Zak form over the frame cosets: a runs x |G| gather and base
phase roots and the |Delta_0| x |Delta_0| characters, no |Delta| x |G| or
|Delta_0| x |G| table) and twisted-algebra tables (the involution's, and the
product's in crossed-product form, |Delta| runs entries: no |Delta| x |Delta|
table) are built from them on first use, and its points as TFPoint tuples
only when read.

Measure conventions: counting measure (weight 1) on G, weight 1/|G| per point
on the dual, hence weight 1/|G| per point of the plane. A subgroup carries an
explicit per-point rational weight; its size is s = |G| / (weight * |Delta|),
so that size * weight * |Delta| = |G| always holds exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple

import numpy as np

GroupElement = tuple[int, ...]


class TFPoint(NamedTuple):
    """A point (x, w) of the time-frequency plane: translation x, modulation w."""

    x: GroupElement
    w: GroupElement


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups Z_{n_1} x ... x Z_{n_r}."""

    orders: tuple[int, ...]
    order: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not self.orders or any(int(n) < 1 for n in self.orders):
            raise ValueError(f"cyclic factor orders must be >= 1, got {self.orders!r}")
        object.__setattr__(self, "orders", tuple(int(n) for n in self.orders))
        object.__setattr__(self, "order", math.prod(self.orders))

    @cached_property
    def _table(self) -> _GroupTable:
        return _GroupTable(self.orders)

    @property
    def rank(self) -> int:
        return len(self.orders)

    def zero(self) -> GroupElement:
        return (0,) * self.rank

    def reduce(self, coords: Iterable[int]) -> GroupElement:
        """Reduce coordinates mod the factor orders."""
        c = tuple(int(v) for v in coords)
        if len(c) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(c)}")
        return tuple(v % n for v, n in zip(c, self.orders))

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return tuple((u + v) % n for u, v, n in zip(a, b, self.orders))

    def neg(self, a: GroupElement) -> GroupElement:
        return tuple((-u) % n for u, n in zip(a, self.orders))

    def elements(self) -> list[GroupElement]:
        """All elements in lexicographic order."""
        return list(itertools.product(*(range(n) for n in self.orders)))

    def index(self, a: GroupElement) -> int:
        """Rank of an element in the lexicographic enumeration (mixed radix)."""
        return int(self._table.index(self.reduce(a)))

    def element_at(self, idx: int) -> GroupElement:
        if not 0 <= idx < self.order:
            raise ValueError(f"index {idx} out of range for group of order {self.order}")
        return tuple(self._table.coords[idx].tolist())

    # Time-frequency plane arithmetic: componentwise on (x, w) pairs.

    def tf_add(self, z: TFPoint, u: TFPoint) -> TFPoint:
        return TFPoint(self.add(z.x, u.x), self.add(z.w, u.w))

    def tf_neg(self, z: TFPoint) -> TFPoint:
        return TFPoint(self.neg(z.x), self.neg(z.w))

    def tf_zero(self) -> TFPoint:
        return TFPoint(self.zero(), self.zero())

    def tf_points(self) -> list[TFPoint]:
        """All |G|^2 points of the time-frequency plane, lexicographic."""
        return list(self._table.points(np.arange(self.order**2)))


class _GroupTable:
    """Integer index and phase arithmetic of one group on coordinate arrays (rank as last axis).

    An element's index is coordinates @ radix; a plane point (x, w) has plane
    index index(x) * |G| + index(w), so sorting plane indices sorts TFPoints.
    """

    def __init__(self, orders: tuple[int, ...]) -> None:
        self.orders = np.array(orders, dtype=np.int64)
        self.size = math.prod(orders)
        self.radix = np.array([math.prod(orders[j + 1 :]) for j in range(len(orders))], dtype=np.int64)
        self.coords = np.arange(self.size)[:, None] // self.radix % self.orders
        self.modulus = math.lcm(*orders)
        self.scale = self.modulus // self.orders
        self.roots = np.exp(2j * np.pi * np.arange(self.modulus) / self.modulus)

    def index(self, coords) -> np.ndarray:
        """coordinates @ radix, reduced per coordinate: one pass per factor over the leading axes."""
        coords = np.asarray(coords)
        index = coords[..., 0] % self.orders[0] * self.radix[0]
        for j in range(1, len(self.orders)):
            index += coords[..., j] % self.orders[j] * self.radix[j]
        return index

    def pairing(self, w, x) -> np.ndarray:
        """Integer phase m mod N with character(w, x) = roots[m]."""
        return np.asarray(w) * np.asarray(x) % self.orders @ self.scale % self.modulus

    def pairings(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """pairing(w_p, x_q) at [p, q] for coordinate arrays w (P, rank) and x (Q, rank): the sum of
        w_j x_j N / n_j taken mod N once, as one integer product of (P, rank) and (rank, Q) arrays
        ((a mod n) N / n = a N / n mod N)."""
        return (w * self.scale) @ x.T % self.modulus

    def translates(self, x: np.ndarray, at=slice(None)) -> np.ndarray:
        """index(t - x_p) at [p, t] for coordinates x (P, rank) and the elements t that at picks (all of G by
        default, in its order): (P, len(t)), one pass per factor."""
        t = self.coords[at]
        index = (t[:, 0] - x[:, 0, None]) % self.orders[0] * self.radix[0]
        for j in range(1, len(self.orders)):
            index += (t[:, j] - x[:, j, None]) % self.orders[j] * self.radix[j]
        return index

    def plane_index(self, x, w) -> np.ndarray:
        return self.index(x) * self.size + self.index(w)

    def split(self, plane) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates x and w of plane indices."""
        return self.coords[plane // self.size], self.coords[plane % self.size]

    def points(self, plane: np.ndarray) -> tuple[TFPoint, ...]:
        xs, ws = self.split(plane)
        return tuple(TFPoint(tuple(x), tuple(w)) for x, w in zip(xs.tolist(), ws.tolist()))

    def gather(self, x: np.ndarray, w: np.ndarray, at=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """Shifts of the points (x_k, w_k) at the elements t that at picks (all of G by default):
        perm[k, t] = index(t - x_k), phase[k, t] = pairing(w_k, t).

        (pi(z_k) xi)(t) = roots[phase[k, t]] * xi[perm[k, t]] (translates, pairings).
        """
        return self.translates(x, at), self.pairings(w, self.coords[at])


def _member(sorted_values: np.ndarray, values) -> np.ndarray:
    """Elementwise membership of values in a sorted nonempty array."""
    pos = np.searchsorted(sorted_values, values).clip(max=len(sorted_values) - 1)
    return sorted_values[pos] == values


def _span(table: _GroupTable, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted plane indices of the subgroup generated by ``points``, the points kept as generators and their
    relative orders.

    Points already in the span are dropped. A kept point g extends the span H
    by the disjoint cosets H + k g, 0 < k < m, where m is the order of g
    modulo H; so the span at least doubles per kept generator and at most
    log2 of its order are kept. The order of g divides N, so k runs up to N.
    """
    span = np.zeros(1, dtype=np.int64)
    kept, orders = [], []
    rest = np.asarray(points, dtype=np.int64)
    k = np.arange(table.modulus + 1)[:, None]
    while True:
        rest = rest[~_member(span, rest)]
        if not rest.size:
            return span, np.array(kept, dtype=np.int64), np.array(orders, dtype=np.int64)
        kept.append(rest[0])
        gx, gw = table.split(rest[0])
        mx, mw = k * gx, k * gw
        m = 1 + int(np.argmax(_member(span, table.plane_index(mx[1:], mw[1:]))))
        orders.append(m)
        sx, sw = table.split(span)
        span = np.sort(table.plane_index(sx[:, None] + mx[None, :m], sw[:, None] + mw[None, :m]).ravel())


class _RunTable(NamedTuple):
    """A lattice's shifts in Zak form (_LatticeTable.runs), columns in frame-coset order: coset b at b size
    to (b + 1) size, size = |G| / |Delta_0|; _uncoset maps them back to the order of G.

    minus index(t - x_r) and base roots[pairing(omega_r, t)] (runs, |G|); chi the Delta_0 characters,
    constant on each frame coset, roots[pairing(v, t)] for t in coset b at [v, b]; pos, which puts point
    (x_r, omega_r + v) at r |Delta_0| + the position of v in Delta_0; frame the frame cosets, the cosets of
    X(adjoint) = Delta_0^perp over which the frame operator is block diagonal, one sorted coset per row.
    """

    minus: np.ndarray
    base: np.ndarray
    chi: np.ndarray
    pos: np.ndarray
    frame: np.ndarray


def _uncoset(values: np.ndarray, cosets: np.ndarray) -> np.ndarray:
    """Vectors (..., |G|) in coset order (the rows of cosets, concatenated) back in the order of G."""
    out = np.empty_like(values)
    out[..., cosets.ravel()] = values
    return out


class _SplitTable(NamedTuple):
    """The exact joint eigenbasis W of the commuting shifts U_h = pi(h, omega_h), h in H', on the frame cosets
    (_LatticeTable.split), 24 |G| + 16 |H'|^2 + 8 runs / |H'| bytes: order the frame-coset positions by coset
    (by least member), orbit t0 + H' and h (h = 0 first); phase conj(D) there; chars psi(h) / sqrt(|H'|) at
    [psi, h]. Column (t0, psi) of W holds D(t0 + h) conj(psi(h)) / sqrt(|H'|) at t0 + h. reps: one run per
    coset of H' in X(Delta), the one whose time shift is least in its coset (gabor _factor reads their rows
    alone)."""

    order: np.ndarray
    phase: np.ndarray
    chars: np.ndarray
    reps: np.ndarray


def _split(values: np.ndarray, split: _SplitTable, back: bool = False) -> np.ndarray:
    """The split's change of basis on the last axis of (..., |G|) arrays: values v gathered by split.order
    give W^H v (v conj(W) for rows), the phases applied in place, by coset, orbit and character; back,
    coefficients c give W c in the order of split.order."""
    chars = split.chars.conj() if back else split.chars.T
    if not back:
        values *= split.phase
    out = (values.reshape(-1, len(chars)) @ chars).reshape(values.shape)
    return out * split.phase.conj() if back else out


def _echelon(g: _GroupTable, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A polycyclic presentation of a subgroup of G listed in full by its coordinates (count, rank), read off
    them in echelon form, a fixed number of array operations per coordinate.

    The members zero on the coordinates before j project onto d_j Z_{n_j} at j, and one whose coordinate
    j is d_j, the least positive there, generates them modulo those zero on j as well, with relative order
    n_j / d_j. Returns the generators' rows, last coordinate first, so that m_i g_i lies in the span of
    the generators before g_i; their relative orders m_i; and d, n_j where the projection is 0. A point
    is the least member of its coset exactly when its coordinate j is below d_j for every j.
    """
    inside, rows, orders, bound = np.ones(len(coords), dtype=bool), [], [], g.orders.copy()
    for j, n in enumerate(g.orders.tolist()):
        column = np.where(inside & (coords[:, j] > 0), coords[:, j], n)
        k = int(np.argmin(column))
        if column[k] < n:
            rows.append(k)
            orders.append(n // int(column[k]))
            bound[j] = column[k]
        inside &= coords[:, j] == 0
    return np.array(rows[::-1], dtype=np.int64), np.array(orders[::-1], dtype=np.int64), bound


def _split_table(g: _GroupTable, plane: np.ndarray, frame: np.ndarray) -> _SplitTable:
    """A lattice's split (_SplitTable) from its plane indices and frame cosets, by gathers on integer tables.

    H is the run time shifts in Delta_0^perp, H' those whose shifts commute with all of H's, one run per
    element; its echelon form (_echelon) gives generators g_i, relative orders m_i and m_i g_i =
    sum_{l<i} c_il g_l, and the least run of each coset of H' (reps). V_j = U_{g_d}^{j_d} ... U_{g_1}^{j_1}
    moves t0 to t0 + sum j_i g_i at the integer phase sum_i j_i pairing(omega_i, t0 + sum_{l<i} j_l g_l) +
    j_i (j_i + 1) / 2 pairing(omega_i, g_i) (walk). On coset b, U_{g_i}^{m_i} = roots[alpha_i] V_{c_i}, so
    mu_b(g_i) = lambda_i solves lambda_i^{m_i} = roots[alpha_i] prod_l lambda_l^{c_il} exactly as integers
    mod N |H'|. Each orbit starts at its least frame position.
    """
    n, (blocks, size), flat = g.size, frame.shape, frame.ravel()
    starts = plane[::blocks]
    shifts, w = starts // n, g.coords[starts % n]
    h = np.flatnonzero(~g.pairings(g.coords[plane[:blocks]], g.coords[shifts]).any(axis=0))  # H: runs in Delta_0^perp
    if len(h) > 1:
        commutators = g.pairings(w[h], g.coords[shifts[h]])  # [h, k]: pairing(omega_h, x_k), commuting where symmetric
        h = h[~(commutators != commutators.T).any(axis=1)]
    count = len(h)
    if count == 1:
        one = np.ones((1, 1), dtype=np.complex128)
        return _SplitTable(np.arange(n), np.ones(n, dtype=np.complex128), one, np.arange(len(starts)))
    rows, m, bound = _echelon(g, g.coords[shifts[h]])
    gens, omega = g.coords[shifts[h[rows]]], w[h[rows]]
    digits = np.arange(count)[:, None] // (np.cumprod(m) // m) % m  # h(j) in the normal form's order
    number = np.zeros(n, dtype=np.int64)
    number[g.index(digits @ gens)] = np.arange(count)
    rel, q = digits[number[g.index(m[:, None] * gens)]], g.pairings(omega, gens)  # q[i, l] pairing(omega_i, g_l)
    lower, half = np.tril(q, -1).T, q.diagonal()

    def walk(j):  # the walk phase less its sum_i j_i pairing(omega_i, t0)
        return (j @ lower * j).sum(-1) + j * (j + 1) // 2 @ half

    seen = _uncoset(np.arange(n), frame)[g.translates(g.coords[shifts[h]])]  # [k, t]: frame position of t - h_k
    start, at = seen.min(axis=0), number[shifts[h][seen.argmin(axis=0)]]  # t = t0 + h(at), t0 first in frame order
    p, j = g.pairings(g.coords[flat[start]], omega), digits[at]  # pairing(omega_i, t0), the digits of h
    up, moves = np.diag(m) - rel, walk(np.concatenate([np.diag(m), rel]))  # U_{g_i}^{m_i}, then V_{c_i}
    alpha = p @ up.T + (moves[: len(m)] - moves[len(m) :])
    big, lam, psi = g.modulus * count, np.zeros((n, len(m)), dtype=np.int64), np.zeros((count, len(m)), dtype=np.int64)
    for i, mi in enumerate(m):
        lam[:, i] = (alpha[:, i] * count + lam @ rel[i]) % big // mi
        psi[:, i] = ((psi @ rel[i]) % count // mi + digits[:, i] * (count // mi)) % count
    phase = ((lam - p * count) * j).sum(-1) - walk(j) * count
    order = np.argsort(((frame[start // size, 0] * n + start) * count + at)[flat])
    chars = np.exp(2j * np.pi * (psi @ digits.T % count) / count) / math.sqrt(count)
    reps = np.flatnonzero((g.coords[shifts] < bound).all(axis=1))
    return _SplitTable(order, np.exp(2j * np.pi * (phase % big) / big)[flat[order]], chars, reps)


class _LatticeTable:
    """Integer tables of one measured subgroup; all but ``plane`` are built on first use.

    Position k everywhere is the point with the k-th smallest plane index:
    ``plane`` holds the sorted read-only plane indices, ``x`` and ``w`` the
    coordinates, and ``gens`` generators of the subgroup: the points a
    closure span kept, supplied by a build that ran one.
    """

    def __init__(self, group: _GroupTable, plane: np.ndarray, gens: np.ndarray | None = None) -> None:
        plane.setflags(write=False)
        self.group = group
        self.plane = plane
        if gens is not None:
            self.gens = gens

    @cached_property
    def gens(self) -> np.ndarray:
        return _span(self.group, self.plane)[1]

    @cached_property
    def x(self) -> np.ndarray:
        return self.group.coords[self.plane // self.group.size]

    @cached_property
    def w(self) -> np.ndarray:
        return self.group.coords[self.plane % self.group.size]

    @cached_property
    def key(self) -> int:
        return hash(self.plane.tobytes())

    @cached_property
    def runs(self) -> _RunTable:
        """Sorted points come in runs, one per time shift x_r, each a coset omega_r + Delta_0 of
        Delta_0 = {w : (0, w) in Delta}, omega_r the run's first w. The pairing is additive in w, so point
        (x_r, omega_r + v) has the phase base[r] chi[v] at t. A stable sort of the columns of the Delta_0
        phases pairing(v, t), a temporary, lists each frame coset in one run of equal keys, ascending."""
        g, d0 = self.group, int(np.searchsorted(self.plane, self.group.size))
        x, w = g.split(self.plane[::d0])
        v = g.index(g.coords[self.plane % g.size] - np.repeat(w, d0, axis=0))
        pos = np.arange(len(self.plane)) // d0 * d0 + np.searchsorted(self.plane[:d0], v)
        zero = g.pairings(g.coords[self.plane[:d0]], g.coords)
        frame = np.lexsort(zero).reshape(d0, -1)
        order = frame.ravel()
        minus = np.take(g.translates(x), order, axis=1)
        return _RunTable(minus, g.roots[g.pairings(w, g.coords[order])], g.roots[zero[:, frame[:, 0]]], pos, frame)

    @cached_property
    def split(self) -> _SplitTable:
        """The frame cosets split over the commuting time shifts inside them (_SplitTable)."""
        return _split_table(self.group, self.plane, self.runs.frame)

    @cached_property
    def rep(self) -> np.ndarray:
        """The cosets of X(Delta), the time shifts of the runs, (|G| / runs, runs): rep(a) is block diagonal
        over them. Row t of rep(a) is nonzero only at the columns index(t - x), x in X(Delta): the coset
        of t. A stable sort by each coset's least member lists each coset in ascending order."""
        minus, frame = self.runs.minus, self.runs.frame
        return np.argsort(_uncoset(minus.min(axis=0), frame), kind="stable").reshape(-1, len(minus))

    @cached_property
    def rep_gather(self) -> np.ndarray:
        """Flat index r |G| + j into the fibre sums (runs, |G|, frame-coset order) at entry (i, k) of rep
        block b: row t = rep[b, i], at frame position j, holds m_r(t) at column index(t - x_r) = rep[b, k].
        Shape (|G| / runs, runs, runs). The entries start at zero: a valid table writes every one, and a
        corrupted frame-coset table leaves some at entry 0, wrong numbers that verify reports, not an index
        error."""
        rep, minus, n = self.rep, self.runs.minus, self.group.size
        blocks, size = rep.shape
        at = _uncoset(np.tile(np.arange(size), blocks), rep)  # the position of t in its rep coset
        j = _uncoset(np.arange(n), self.runs.frame)[rep]  # the frame positions of the rows
        gather = np.zeros((blocks, size, size), dtype=np.int64)
        gather[np.arange(blocks)[:, None], np.arange(size), at[minus[:, j]]] = np.arange(size)[:, None, None] * n + j
        return gather

    @cached_property
    def neg(self) -> np.ndarray:
        return np.searchsorted(self.plane, self.group.plane_index(-self.x, -self.w))

    @cached_property
    def star(self) -> np.ndarray:
        """The involution's phases, (2, |Delta|): a*(z) = star[flag, k] conj(a(-z)) at z = z_k, with
        star[0] = roots[-pairing(w, x)] for the plain cocycle and star[1] = roots[pairing(w, x)] for the
        conjugated one (conj(c(z, -z)) and c(z, -z), c(z, -z) = character(w, x))."""
        phase = self.group.pairing(self.w, self.x)
        return self.group.roots[np.stack([-phase % self.group.modulus, phase])]

    @cached_property
    def crossed(self) -> tuple[np.ndarray, np.ndarray]:
        """The twisted product in crossed-product form (twisted _crossed): a gather index and unit phases,
        each (|Delta_0|, runs, runs), [beta, t, r] for frame coset beta and runs t and r.

        Run r times run s = t - r (x_s = x_t - x_r) lands on run t, at delta = omega_r + omega_s - omega_t in
        Delta_0. The gather index is beta' runs + s, beta' the frame coset of t_beta - x_r (t_beta the first
        member of coset beta, read off the run gather); the phase is conj(character(omega_s, x_r))
        character(delta, t_beta), one roots lookup of its integer phase mod N."""
        g, runs = self.group, self.runs
        d0, count = len(runs.chi), len(runs.minus)
        x, w = self.x[::d0], self.w[::d0]  # one point per run, (x_r, omega_r), runs by ascending time shift
        s = np.searchsorted(g.index(x), g.index(x[:, None] - x[None]))  # [t, r]: the run of x_t - x_r
        delta = w[None] + w[s] - w[:, None]  # [t, r]: omega_r + omega_s - omega_t, in Delta_0
        coset = _uncoset(np.repeat(np.arange(d0), runs.frame.shape[1]), runs.frame)  # the frame coset of each t
        shifted = coset[runs.minus[:, :: runs.frame.shape[1]]]  # [r, beta]: the frame coset of t_beta - x_r
        phase = g.pairings(g.coords[runs.frame[:, 0]], delta.reshape(-1, g.orders.size)).reshape(d0, count, count)
        phase -= g.pairings(w, x)[s, np.arange(count)]  # [t, r]: pairing(omega_s, x_r)
        gather = np.ascontiguousarray(shifted.T[:, None, :] * count + s)
        return gather, g.roots[np.remainder(phase, g.modulus, out=phase)]


def character(group: FiniteAbelianGroup, w: GroupElement, x: GroupElement) -> complex:
    """Pairing <w, x> = exp(2 pi i sum_j w_j x_j / n_j), a unit complex number."""
    table = group._table
    return complex(table.roots[table.pairing(group.reduce(w), group.reduce(x))])


def character_vector(group: FiniteAbelianGroup, w: GroupElement) -> np.ndarray:
    """Values of the character w on all of G, in enumeration order."""
    table = group._table
    return table.roots[table.pairing(group.reduce(w), table.coords)]


class MeasuredSubgroup:
    """A subgroup of the time-frequency plane with a per-point measure weight; immutable.

    ``plane`` holds the sorted read-only plane indices of its points,
    ``weight`` the exact rational mass of each point, and ``size`` the derived
    covolume |G|/(weight*|Delta|). The constructor takes a point list and checks
    that it forms a subgroup; the builders below run no check but the weight's.
    """

    def __init__(self, ambient: FiniteAbelianGroup, elements: Iterable[TFPoint],
                 weight: Fraction | int | str) -> None:
        table = ambient._table
        coords = np.array(elements, dtype=np.int64)
        if coords.size and coords.shape[1:] != (2, ambient.rank):
            raise ValueError(f"subgroup points must be pairs of {ambient.rank}-coordinate tuples")
        coords = coords.reshape(-1, 2, ambient.rank)
        plane = np.sort(table.plane_index(coords[:, 0], coords[:, 1]))
        if np.any(plane[1:] == plane[:-1]):
            raise ValueError("subgroup element list contains duplicates")
        span, gens, _ = _span(table, plane)
        if len(span) != len(plane):
            outside = table.points(np.setdiff1d(span, plane)[:1])[0]
            raise ValueError(f"points do not form a subgroup: they generate {outside}, not among them")
        self._set(ambient, _LatticeTable(table, span, gens), weight)

    @classmethod
    def _from_plane(cls, ambient: FiniteAbelianGroup, plane: np.ndarray, weight, gens=None):
        """The subgroup whose sorted int64 plane indices are ``plane``, taken on trust: no closure check."""
        sub = cls.__new__(cls)
        sub._set(ambient, _LatticeTable(ambient._table, plane, gens), weight)
        return sub

    def _set(self, ambient: FiniteAbelianGroup, tables: _LatticeTable, weight: Fraction | int | str) -> None:
        weight = Fraction(weight)
        if weight <= 0:
            raise ValueError(f"subgroup weight must be positive, got {weight}")
        size = Fraction(ambient.order, 1) / (weight * len(tables.plane))
        self.__dict__.update(ambient=ambient, plane=tables.plane, _tables=tables, weight=weight, size=size)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("MeasuredSubgroup is immutable; with_weight gives a re-measured copy")

    @cached_property
    def float_weight(self) -> float:
        """The weight as a float, converted once; OverflowError for a weight past the float range."""
        return float(self.weight)

    @cached_property
    def elements(self) -> tuple[TFPoint, ...]:
        """The points as TFPoints, sorted by plane index; built on first read."""
        return self._tables.group.points(self.plane)

    def __len__(self) -> int:
        return len(self.plane)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MeasuredSubgroup):
            return NotImplemented
        return (self.ambient == other.ambient and self.weight == other.weight
                and (self._tables is other._tables or np.array_equal(self.plane, other.plane)))

    def __hash__(self) -> int:
        return hash((self.ambient, self._tables.key, self.weight))

    def __repr__(self) -> str:
        return f"MeasuredSubgroup({self.ambient!r}, <{len(self)} points>, weight={self.weight})"

    def _plane_index(self, z: TFPoint) -> int:
        return self.ambient.index(z[0]) * self.ambient.order + self.ambient.index(z[1])

    def __contains__(self, z: TFPoint) -> bool:
        return bool(_member(self.plane, self._plane_index(z)))

    def index(self, z: TFPoint) -> int:
        if z not in self:
            raise KeyError(z)
        return int(np.searchsorted(self.plane, self._plane_index(z)))

    def with_weight(self, weight: Fraction | int | str) -> MeasuredSubgroup:
        """Same point set under a different measure, sharing every integer table with this subgroup."""
        sub = MeasuredSubgroup.__new__(MeasuredSubgroup)
        sub._set(self.ambient, self._tables, weight)
        return sub


def subgroup_from_generators(
    group: FiniteAbelianGroup,
    gens: Iterable[tuple[Iterable[int], Iterable[int]]],
    weight: Fraction | int | str = 1,
) -> MeasuredSubgroup:
    """Smallest subgroup of G x G^ containing the generators, with the given weight."""
    points = [group.index(x) * group.order + group.index(w) for x, w in gens]
    span, kept, _ = _span(group._table, np.array(points, dtype=np.int64))
    return MeasuredSubgroup._from_plane(group, span, weight, kept)


def full_plane(group: FiniteAbelianGroup, weight: Fraction | int | str = 1) -> MeasuredSubgroup:
    """The whole time-frequency plane as a measured subgroup."""
    return MeasuredSubgroup._from_plane(group, np.arange(group.order**2, dtype=np.int64), weight)


def trivial_subgroup(group: FiniteAbelianGroup, weight: Fraction | int | str = 1) -> MeasuredSubgroup:
    return MeasuredSubgroup._from_plane(group, np.zeros(1, dtype=np.int64), weight)


@lru_cache(maxsize=32)
def adjoint_subgroup(sub: MeasuredSubgroup) -> MeasuredSubgroup:
    """Adjoint subgroup: all plane points whose shifts commute with every shift from the subgroup.

    Cached for the 32 most recently used subgroups, so a long-running
    process holds at most 32 lattices and their adjoints through it.

    Membership of (y, tau) amounts to character(tau, x) = character(w, y) for
    every (x, w) in the subgroup. Both sides are characters of (x, w), so the
    test runs on the generators the closure span kept, for the whole plane at
    once, in integer phases. The result carries weight 1/size per the
    induced-measure convention. A self-adjoint point set (aZ_n x bZ_n with
    ab = n is one) shares the subgroup's integer tables.
    """
    table = sub.ambient._table
    gx, gw = table.split(sub._tables.gens)
    member = np.ones((table.size, table.size), dtype=bool)  # member[index(y), index(tau)]
    for x, w in zip(gx, gw):
        member &= table.pairing(w, table.coords)[:, None] == table.pairing(table.coords, x)[None, :]
    plane = np.flatnonzero(member)
    if np.array_equal(plane, sub.plane):
        return sub.with_weight(1 / sub.size)
    return MeasuredSubgroup._from_plane(sub.ambient, plane, 1 / sub.size)


def default_measures(group: FiniteAbelianGroup) -> dict[str, Fraction]:
    """Per-point weights making Plancherel hold: counting on G, 1/|G| on the dual and the plane."""
    n = Fraction(group.order)
    return {
        "group": Fraction(1),
        "dual": 1 / n,
        "plane": 1 / n,
        "subgroup_default": Fraction(1),
    }


@lru_cache(maxsize=32)
def all_subgroups(group: FiniteAbelianGroup) -> tuple[tuple[TFPoint, ...], ...]:
    """Element sets of every subgroup of G x G^, each sorted, deduplicated.

    Built from sums of cyclic subgroups; for cyclic G the plane has rank two,
    so one round of pairwise sums is complete. Higher-rank ambients iterate to
    a fixed point. Cached for the 32 most recently used groups, as adjoint_subgroup is.
    """
    table = group._table
    # Row p lists k p for k < N; points generating the same cyclic subgroup give equal sorted rows.
    k = np.arange(table.modulus)[:, None]
    x, w = table.split(np.arange(table.size**2))
    rows = np.unique(np.sort(table.plane_index(x[:, None] * k, w[:, None] * k)), axis=0)
    cyclics = [np.unique(row) for row in rows]
    found = {tuple(c.tolist()): c for c in cyclics}
    frontier = list(found.values())
    while frontier:
        new = {}
        for h in frontier:
            hx, hw = table.split(h)
            for cx, cw in (table.split(c) for c in cyclics):
                total = np.unique(table.plane_index(hx[:, None] + cx[None], hw[:, None] + cw[None]))
                new.setdefault(tuple(total.tolist()), total)
        frontier = [total for key, total in new.items() if key not in found]
        found.update(new)
        if group.rank == 1:
            # Subgroups of a rank-two plane need at most two cyclic summands.
            break
    return tuple(sorted(table.points(h) for h in found.values()))
