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
        c = [int(v) for v in coords]
        if len(c) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(c)}")
        return tuple([v % n for v, n in zip(c, self.orders)])

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
        # the plane G x G^ as one group of rank 2 rank: coordinates x then w, its index the plane index
        self.plane_orders = np.concatenate([self.orders, self.orders])
        self.plane_radix = np.concatenate([self.radix * self.size, self.radix])

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

    def translates(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """index(t_q - x_p) at [p, q] for coordinate arrays x (P, rank) and t (Q, rank): one pass per factor."""
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
        t = self.coords[at]
        return self.translates(x, t), self.pairings(w, t)


def _member(sorted_values: np.ndarray, values) -> np.ndarray:
    """Elementwise membership of values in a sorted nonempty array."""
    pos = np.searchsorted(sorted_values, values).clip(max=len(sorted_values) - 1)
    return sorted_values[pos] == values


def _hermite(orders: list[int], rows) -> tuple[list[list[int]], list[int]]:
    """Echelon generators of the subgroup of Z_{n_1} x ... x Z_{n_m} that the integer rows generate, and their
    relative orders: a Hermite-form row reduction modulo the factor orders, in Python ints (Cohen, A Course in
    Computational Algebraic Number Theory, 1993, 2.4).

    Column j takes the rows zero on every column before j, which generate the members zero there. Euclid's
    algorithm on pairs of rows, unimodular at each step, gathers their entries at j into one pivot row p and
    leaves the others zero at j; u p, u p_j = d_j = gcd(p_j, n_j) mod n_j, is generator j, and (n_j / d_j) p,
    zero at j, joins the others, which then generate the members zero up to j. So every member is
    sum_i a_i g_i, a_i below the relative order n_j / d_j of g_i, in exactly one way: the form _echelon
    reads off a subgroup listed in full. At most len(rows) + m rows are alive at once.
    """
    rows = [[v % n for v, n in zip(row, orders)] for row in rows]
    echelon, relative = [], []
    for j, n in enumerate(orders):
        pivot, rest = None, []
        for row in rows:
            if row[j] and pivot is None:
                pivot = row
                continue
            while row[j]:
                q = pivot[j] // row[j]
                pivot, row = row, [(a - q * b) % k for a, b, k in zip(pivot, row, orders)]
            rest.append(row)
        if pivot is not None:
            d = math.gcd(pivot[j], n)
            u = pow(pivot[j] // d, -1, n // d)
            rest.append([n // d * p % k for p, k in zip(pivot, orders)])
            echelon.append([u * p % k for p, k in zip(pivot, orders)])
            relative.append(n // d)
        rows = [row for row in rest if any(row)]
    return echelon, relative


def _closure(table: _GroupTable, rows) -> tuple[np.ndarray, np.ndarray]:
    """Sorted plane indices and echelon generators, (k, 2 rank) coordinates x then w, of the subgroup of the
    plane that the integer rows (coordinates x then w) generate: _hermite's presentation, its members
    sum_i a_i g_i, a_i below m_i, listed by one mixed-radix broadcast of the digits a_i and one sort."""
    echelon, relative = _hermite(table.plane_orders.tolist(), rows)
    m = np.array(relative, dtype=np.int64)
    gens = np.array(echelon, dtype=np.int64).reshape(len(m), len(table.plane_orders))
    digits = np.arange(math.prod(relative))[:, None] // (np.cumprod(m) // m) % m
    plane = digits @ gens % table.plane_orders @ table.plane_radix
    plane.sort()
    return plane, gens


def _keys(rows: np.ndarray, modulus: int) -> np.ndarray:
    """One int64 per row of an integer array with entries below modulus, equal exactly where the rows are: the
    rows in mixed radix modulus, relabelled densely (np.unique) before a column that could pass 2^62."""
    key, bound = np.zeros(len(rows), dtype=np.int64), 1
    for column in rows.T:
        if bound * modulus > 2**62:
            key, bound = np.unique(key, return_inverse=True)[1], len(rows)
        key = key * modulus + column
        bound *= modulus
    return key


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


def _echelon(orders: np.ndarray, radix: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A polycyclic presentation of a subgroup of Z_{n_1} x ... x Z_{n_m} (orders; an element's index is its
    coordinates @ radix) listed in full by its indices, ascending, read off them in echelon form by one
    searchsorted.

    The members zero on the coordinates before j come first, below radix[j - 1]. They project onto d_j Z_{n_j}
    at j, and the first of them at or past radix[j], the least positive coordinate j among them, d_j,
    generates them modulo those zero on j as well, with relative order n_j / d_j. Returns the generators'
    positions, last coordinate first, so that m_i g_i lies in the span of the generators before g_i; their
    relative orders m_i; and d, n_j where the projection is 0. A point is the least member of its coset
    exactly when its coordinate j is below d_j for every j.
    """
    orders, radix = orders.tolist(), radix.tolist()
    ends = np.searchsorted(index, [orders[0] * radix[0], *radix]).tolist()
    rows, relative, bound = [], [], list(orders)
    for j, (n, step) in enumerate(zip(orders, radix)):
        if ends[j + 1] < ends[j]:
            bound[j] = int(index[ends[j + 1]]) // step % n
            rows.append(ends[j + 1])
            relative.append(n // bound[j])
    return np.array(rows[::-1], dtype=np.int64), np.array(relative[::-1], dtype=np.int64), np.array(bound)


class _Commuting(NamedTuple):
    """H' in echelon form (_commuting) and what the split (_split_table) reads of it: generators g_i (k, rank),
    relative orders m_i, the bound d (_echelon), the relations c_il (m_i g_i = sum_{l<i} c_il g_l), the
    characters psi(h_a) / sqrt(|H'|) at [psi, a], the orbit starts t0 (in the order of G), index(t0 + h_a) at
    [t0, a], the digits j_ai of h_a = sum_i j_ai g_i, and the walk phase's coefficients, one row per h_a, then
    one per relation. A lattice and its adjoint have the same H', so their tables share it."""

    gens: np.ndarray
    orders: np.ndarray
    bound: np.ndarray
    rel: np.ndarray
    chars: np.ndarray
    starts: np.ndarray
    orbits: np.ndarray
    digits: np.ndarray
    walks: np.ndarray


def _commuting(g: _GroupTable, x: np.ndarray, w: np.ndarray, zero: np.ndarray) -> _Commuting | None:
    """H' (_Commuting) from a lattice's run starts (x_r, omega_r) and Delta_0's coordinates; None when H' = 0.

    H is the run time shifts in Delta_0^perp, H' those whose shifts commute with all of H's, tested against
    H's echelon generators: the commutator is additive in each argument on H and alternating, so a cyclic H
    is H'. Both are listed by ascending time shift, as _echelon reads them. The characters solve
    psi(g_i)^{m_i} = prod_l psi(g_l)^{c_il} as integers mod |H'|. V_j = U_{g_d}^{j_d} ... U_{g_1}^{j_1} moves
    t0 to t0 + sum j_i g_i (the orbit starts t0 have every coordinate j below d_j) at the integer phase
    sum_i j_i pairing(omega_i, t0) plus the walk phase, sum_i j_i sum_{l<i} j_l q_il + j_i (j_i + 1) / 2 q_ii
    with q_il = pairing(omega_i, g_l): linear in q, so its coefficients do not depend on omega.
    """
    shifts = x @ g.radix  # ascending
    h = np.flatnonzero(~g.pairings(zero, x).any(axis=0))  # H
    if len(h) == 1:
        return None
    rows, m, bound = _echelon(g.orders, g.radix, shifts[h])
    if len(rows) > 1:
        e = h[rows]
        commuting = (g.pairings(w[h], x[e]) == g.pairings(x[h], w[e])).all(axis=1)
        if not commuting.all():
            h = h[commuting]
            rows, m, bound = _echelon(g.orders, g.radix, shifts[h])
    count, k = len(h), len(m)
    if count == 1:
        return None
    gens = x[h[rows]]
    digits = np.arange(count)[:, None] // (np.cumprod(m) // m) % m  # [a, i]: j_ai
    members = digits @ gens  # h_a, coordinates left unreduced
    rel = digits[np.argmax(g.index(members) == g.index(m[:, None] * gens)[:, None], axis=1)]  # [i, l]: c_il
    psi = np.zeros_like(digits)
    for i, mi in enumerate(m.tolist()):
        psi[:, i] = ((psi @ rel[i]) % count // mi + digits[:, i] * (count // mi)) % count
    roots = np.exp(2j * np.pi * np.arange(count) / count) / math.sqrt(count)
    starts = np.indices(bound).reshape(len(bound), -1).T
    j = np.concatenate([digits, np.diag(m), rel])
    walks = (j[:, :, None] * j[:, None, :] * (np.arange(k)[:, None] > np.arange(k))).reshape(len(j), k * k)  # l < i
    walks[:, :: k + 1] = j * (j + 1) // 2  # [i, i]
    walks[count : count + k] -= walks[count + k :]
    return _Commuting(gens, m, bound, rel, roots[psi @ digits.T % count], starts, g.index(starts[:, None] + members),
                      digits, walks[: count + k])


def _split_table(g: _GroupTable, x: np.ndarray, w: np.ndarray, commuting: _Commuting | None, frame: np.ndarray,
                 position: np.ndarray) -> _SplitTable:
    """A lattice's split (_SplitTable) from its run starts (x_r, omega_r), its H' (_commuting), its frame cosets
    and the frame position of each t.

    On coset b, U_{g_i}^{m_i} = roots[alpha_i] V_{c_i}, so mu_b(g_i) = lambda_i solves lambda_i^{m_i} =
    roots[alpha_i] prod_l lambda_l^{c_il} exactly as integers mod N |H'|. Each orbit t0 + H' lies in one frame
    coset, whose positions ascend in the order of G, so the rows, by coset (least member), orbit and h, are the
    orbit starts stably sorted by their coset's least member, each followed by t0 + h_a, a ascending.
    """
    n, size = g.size, frame.shape[1]
    if commuting is None:
        one = np.ones((1, 1), dtype=np.complex128)
        return _SplitTable(np.arange(n), np.ones(n, dtype=np.complex128), one, np.arange(len(x)))
    gens, m, bound, rel, chars, starts, orbits, digits, walks = commuting
    count = len(chars)
    omega = w[np.searchsorted(x @ g.radix, gens @ g.radix)]
    walk = walks @ g.pairings(omega, gens).ravel()  # the walk phases of the h_a, then of U_{g_i}^{m_i} less V_{c_i}
    rows = np.argsort(frame[position[orbits[:, 0]] // size, 0], kind="stable")
    p = g.pairings(starts[rows], omega)  # pairing(omega_i, t0)
    alpha = p @ (np.diag(m) - rel).T + walk[count:]
    big, lam = g.modulus * count, np.zeros_like(p)
    for i, mi in enumerate(m.tolist()):
        lam[:, i] = (alpha[:, i] * count + lam @ rel[i]) % big // mi
    phase = (lam - p * count) @ digits.T - walk[:count] * count  # [t0, a]
    reps = np.flatnonzero((x < bound).all(axis=1))
    return _SplitTable(position[orbits[rows]].ravel(), np.exp(2j * np.pi * (phase.ravel() % big) / big), chars, reps)


class _LatticeTable:
    """Integer tables of one measured subgroup; all but ``plane`` are built on first use.

    Position k everywhere is the point with the k-th smallest plane index:
    ``plane`` holds the sorted read-only plane indices, ``x`` and ``w`` the
    coordinates, and ``gens`` echelon generators of the subgroup, (count,
    2 rank) coordinates x then w: the rows of its echelon presentation,
    supplied by a build that made one. The tables share their intermediates:
    ``heads``, the run starts (x_r, omega_r), ``position``, the frame-coset
    labels, and ``commuting``, H' in echelon form, kept in ``shared``: the
    adjoint's table is given its lattice's dict (adjoint_subgroup), as the two
    have the same H'.
    """

    def __init__(self, group: _GroupTable, plane: np.ndarray, gens: np.ndarray | None = None,
                 shared: dict | None = None) -> None:
        plane.setflags(write=False)
        self.group = group
        self.plane = plane
        self.shared = {} if shared is None else shared
        if gens is not None:
            self.gens = gens

    @cached_property
    def gens(self) -> np.ndarray:
        rows = _echelon(self.group.plane_orders, self.group.plane_radix, self.plane)[0]
        return np.concatenate(self.group.split(self.plane[rows]), axis=1)

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
    def heads(self) -> tuple[np.ndarray, np.ndarray]:
        """The run starts (x_r, omega_r), one point per run, runs by ascending time shift: coordinates (runs,
        rank) each."""
        g = self.group
        return g.split(self.plane[:: int(np.searchsorted(self.plane, g.size))])

    @cached_property
    def runs(self) -> _RunTable:
        """Sorted points come in runs, one per time shift x_r, each a coset omega_r + Delta_0 of
        Delta_0 = {w : (0, w) in Delta}, omega_r the run's first w. The pairing is additive in w, so point
        (x_r, omega_r + v) has the phase base[r] chi[v] at t. A stable sort of the columns of the Delta_0
        phases pairing(v, t), a temporary, lists each frame coset in one run of equal keys, ascending."""
        g, (x, w) = self.group, self.heads
        d0, w_all = len(self.plane) // len(x), g.coords[self.plane % g.size]
        v = g.index(w_all - np.repeat(w, d0, axis=0))
        pos = np.arange(len(self.plane)) // d0 * d0 + np.searchsorted(self.plane[:d0], v)
        zero = g.pairings(w_all[:d0], g.coords)
        frame = np.lexsort(zero).reshape(d0, -1)
        minus, base = g.gather(x, w, frame.ravel())
        return _RunTable(minus, g.roots[base], g.roots[zero[:, frame[:, 0]]], pos, frame)

    @cached_property
    def position(self) -> np.ndarray:
        """The frame-coset labels: the frame position of each t of G, coset t // (|G| / |Delta_0|)."""
        return _uncoset(np.arange(self.group.size), self.runs.frame)

    @property
    def commuting(self) -> _Commuting | None:
        """H' (_commuting), built on first use into ``shared``."""
        if "commuting" not in self.shared:
            zero = self.group.coords[self.plane[: len(self.runs.chi)]]  # Delta_0
            self.shared["commuting"] = _commuting(self.group, *self.heads, zero)
        return self.shared["commuting"]

    @cached_property
    def split(self) -> _SplitTable:
        """The frame cosets split over the commuting time shifts inside them (_SplitTable)."""
        return _split_table(self.group, *self.heads, self.commuting, self.runs.frame, self.position)

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
        j = self.position[rep]  # the frame positions of the rows
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
        character(delta, t_beta), one roots lookup of its integer phase mod N, the pairing of t_beta with delta
        summed from its pairings with the run starts. The run gather at x_t gives s."""
        g, runs, position = self.group, self.runs, self.position
        (d0, size), count = runs.frame.shape, len(runs.minus)
        x, w = self.heads
        shifts = self.plane[::d0] // g.size
        run = np.zeros(g.size, dtype=np.int64)
        run[shifts] = np.arange(count)
        s = run[runs.minus[:, position[shifts]].T]  # [t, r]: the run of x_t - x_r
        p = g.pairings(g.coords[runs.frame[:, 0]], w)  # [beta, r]: pairing(omega_r, t_beta)
        phase = np.take(p, s, axis=1)
        phase += p[:, None, :]
        phase -= p[:, :, None]
        phase -= np.take(g.pairings(w, x), s * count + np.arange(count))  # [t, r]: pairing(omega_s, x_r)
        gather = (position[runs.minus[:, ::size].T] // size * count)[:, None, :] + s
        return gather, np.take(g.roots, np.remainder(phase, g.modulus, out=phase))


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
        shape = f"subgroup points must be pairs of {ambient.rank}-coordinate tuples"
        try:
            coords = np.array(elements, dtype=np.int64)
        except ValueError as ragged:  # points or coordinate tuples of different lengths
            raise ValueError(shape) from ragged
        if coords.size and coords.shape[1:] != (2, ambient.rank):
            raise ValueError(shape)
        coords = coords.reshape(-1, 2, ambient.rank)
        plane = np.sort(table.plane_index(coords[:, 0], coords[:, 1]))
        if np.any(plane[1:] == plane[:-1]):
            raise ValueError("subgroup element list contains duplicates")
        # generators read off the points as if they formed a subgroup, then closed: the closure is the point set
        # exactly when it is one
        coords = np.concatenate(table.split(plane), axis=1)
        span, gens = _closure(table, coords[_echelon(table.plane_orders, table.plane_radix, plane)[0]].tolist())
        if not np.array_equal(span, plane):
            outside = np.setdiff1d(_closure(table, coords.tolist())[0], plane)
            raise ValueError(f"points do not form a subgroup: they generate {table.points(outside[:1])[0]}, "
                             "not among them")
        self._set(ambient, _LatticeTable(table, span, gens), weight)

    @classmethod
    def _from_plane(cls, ambient: FiniteAbelianGroup, plane: np.ndarray, weight, gens=None, shared=None):
        """The subgroup whose sorted int64 plane indices are ``plane``, taken on trust: no closure check."""
        sub = cls.__new__(cls)
        sub._set(ambient, _LatticeTable(ambient._table, plane, gens, shared), weight)
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
    """Smallest subgroup of G x G^ containing the generators, with the given weight: the listing of their
    echelon presentation (_closure)."""
    plane, echelon = _closure(group._table, [group.reduce(x) + group.reduce(w) for x, w in gens])
    return MeasuredSubgroup._from_plane(group, plane, weight, echelon)


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
    every (x, w) in the subgroup. Both sides are characters of (x, w), so it
    is tested on the subgroup's echelon generators (x_i, w_i), as a join: each
    tau keyed by its pairings with the x_i, each y by the w_i's pairings with
    it (_keys), one stable sort of the tau keys and two searchsorted calls
    list the matching tau of each y, ascending. O(k |G| + |adjoint|) entries,
    no |G|^2 mask. Each fibre {tau : (y, tau) in the adjoint} is a coset of
    X(Delta)^perp, so it is as large as that of y = 0. The result carries
    weight 1/size per the induced-measure convention. A self-adjoint point
    set (aZ_n x bZ_n with ab = n is one) shares the subgroup's integer tables.
    """
    table = sub.ambient._table
    n = table.size
    phases = table.pairings(table.coords, sub._tables.gens.reshape(-1, table.orders.size))  # [t, 2i]: pairing(t, x_i)
    keys = _keys(np.concatenate([phases[:, ::2], phases[:, 1::2]]), table.modulus)  # the tau rows, then the y rows
    order = np.argsort(keys[:n], kind="stable")
    ranked, wanted = keys[order], keys[n:]
    lo, hi = np.searchsorted(ranked, wanted), np.searchsorted(ranked, wanted, side="right")
    y = np.flatnonzero(hi > lo)
    plane = (y[:, None] * n + order[lo[y, None] + np.arange(hi[0] - lo[0])]).ravel()
    if np.array_equal(plane, sub.plane):
        return sub.with_weight(1 / sub.size)
    return MeasuredSubgroup._from_plane(sub.ambient, plane, 1 / sub.size, shared=sub._tables.shared)  # the same H'


def default_measures(group: FiniteAbelianGroup) -> dict[str, Fraction]:
    """Per-point weights making Plancherel hold: counting on G, 1/|G| on the dual and the plane."""
    n = Fraction(group.order)
    return {
        "group": Fraction(1),
        "dual": 1 / n,
        "plane": 1 / n,
        "subgroup_default": Fraction(1),
    }


def all_subgroups(group: FiniteAbelianGroup) -> tuple[tuple[TFPoint, ...], ...]:
    """Element sets of every subgroup of G x G^, each sorted, the sets sorted.

    Each subgroup is listed once, by its echelon form (_echelon), built one plane coordinate at a time from the
    last (Cohen 1993, 2.4, as _hermite): a subgroup H of Z_n x A, A the coordinates after this one, is
    K = H cap (0 x A) when it projects to 0 on Z_n, and otherwise K + <(d, v)>, d Z_n its projection (d | n,
    d < n) and v the least member of its coset of K in A with (n / d) v in K. Distinct (K, d, v) give distinct H.
    """
    table = group._table
    orders, radix = table.plane_orders, table.plane_radix

    def digits(p):  # plane coordinates of plane indices, on a new last axis
        return p[..., None] // radix % orders

    subgroups = [np.zeros(1, dtype=np.int64)]
    for n, step in zip(orders.tolist()[::-1], radix.tolist()[::-1]):
        members, d = np.arange(step), np.array([d for d in range(1, n) if n % d == 0], dtype=np.int64)  # A
        found = []
        for k in subgroups:
            least = members[((digits(members[:, None]) + digits(k)) % orders @ radix).min(axis=1) == members]
            at = np.nonzero(_member(k, digits(least) * (n // d)[:, None, None] % orders @ radix))  # [d, v]
            found.append(k)
            for e, v in zip(d[at[0]].tolist(), least[at[1]].tolist()):  # H = K + <(e, v)>, listed in full
                multiples = np.arange(n // e)[:, None] * digits(np.int64(e * step + v)) % orders
                found.append(np.sort(((multiples[:, None] + digits(k)) % orders @ radix).ravel()))
        subgroups = found
    return tuple(sorted(table.points(h) for h in subgroups))
