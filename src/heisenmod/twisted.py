"""Twisted group algebras on measured subgroups of the time-frequency plane.

A sequence a on a measured subgroup, twisted by the Heisenberg cocycle c (flag
``conjugated`` False) or by its pointwise conjugate (flag True), multiplies by

    (a * b)(z) = weight * sum_w c(w, z - w) a(w) b(z - w)

and has involution a*(z) = conj(c(z, -z)) conj(a(-z)). The canonical trace
is evaluation at zero. The integrated representation realizes a as an operator
on C^G, sending z to pi(z) for the plain cocycle and to pi(z)* for the
conjugated one; it is faithful, so the C*-norm of a is the spectral norm of
its representing matrix.

With the conjugated cocycle the integrated representation reverses products,
rep(a * b) = rep(b) rep(a), exactly what a right module action requires; the
involution identity rep(a*) = rep(a)^H holds for both flags. As pi(z)* =
conj(c(z, -z)) pi(-z), rep(a) on the conjugated flag is the plain rep of the
plain involution of conj(a) (_plain): the representation kernels run one form.

Every product, involution and representation reads the domain's tables (see
groups): the neg index table and the involution's phases, the run table, and
the crossed-product table of the product; all are gathers, and the kernels
behind them take leading case axes.

C*(Delta, c) is a crossed product of the functions on Delta_0's dual by the
run shifts (Rieffel, Canad. J. Math. 1988), and the product runs in that
form. A run's coefficients against the Delta_0 characters, one value per
frame coset beta (_hat, the transform _zero_sums takes), multiply as
(a * b)^_t(beta) = weight * sum_r conj(character(omega_s, x_r))
character(delta_rs, t_beta) ah_r(beta) bh_s(beta - x_r), s = t - r and
delta_rs = omega_r + omega_s - omega_t in Delta_0: one gather and one phase
per (beta, t, r), |Delta| runs entries in all, against the |Delta|^2 of the
coefficient form (_crossed). _unhat transforms back. The conjugated product
is conj of the plain product of the conjugates, so both flags run one kernel.

The integrated representation sums over each time fibre,
m_x(t) = sum over (x, w) of a(x, w) roots[pairing(w, t)], and places m_x(t)
at row t, column index(t - x) of the |G| x |G| matrix; _act applies it to a
vector with no matrix, through the run table's one shift (_base_rows, which
gabor's frame factor shares). With w = omega_x + v, v in Delta_0, m_x is the
base phase row roots[pairing(omega_x, t)] times the run's coefficients
against the Delta_0 characters, constant on each frame coset: one
|Delta_0| x |Delta_0| product per run, broadcast over the cosets. Row t has
its entries at the columns of t + X(Delta), X(Delta) the time shifts, so the
matrix is block diagonal over the cosets of X(Delta); _rep_blocks gathers
only those blocks, |G| runs entries, for verify's identities. The adjoint's
shifts commute with rep(a), and the rep cosets are the adjoint's frame
cosets, so its split table (groups) splits each block for the spectral
norms (_split_rep_blocks): the C*-norm and the norm chain. Each split
block is read at its quotient by H', from one change of basis of the
orbit-start rows alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import MeasuredSubgroup, TFPoint, _split, _uncoset, adjoint_subgroup
from .shifts import OperatorMatrix


@dataclass(eq=False)
class TwistedSeq:
    """Coefficients on a measured subgroup, twisted by c or conj(c)."""

    domain: MeasuredSubgroup
    conjugated: bool
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.coeffs, dtype=np.complex128)
        if vals.shape != (len(self.domain),):
            raise ValueError(
                f"coefficient length {vals.shape} does not match subgroup order {len(self.domain)}"
            )
        vals.setflags(write=False)
        self.coeffs = vals

    def at(self, z: TFPoint) -> complex:
        return complex(self.coeffs[self.domain.index(z)])


def delta_seq(domain: MeasuredSubgroup, z: TFPoint, conjugated: bool = False) -> TwistedSeq:
    coeffs = np.zeros(len(domain), dtype=np.complex128)
    coeffs[domain.index(z)] = 1.0
    return TwistedSeq(domain, conjugated, coeffs)


def unit_seq(domain: MeasuredSubgroup, conjugated: bool = False) -> TwistedSeq:
    """Multiplicative unit: (1/weight) delta_0; zero is position 0 of every domain (see trace)."""
    coeffs = np.zeros(len(domain), dtype=np.complex128)
    coeffs[0] = 1.0 / domain.float_weight
    return TwistedSeq(domain, conjugated, coeffs)


def _require_same_algebra(a: TwistedSeq, b: TwistedSeq) -> None:
    if a.domain != b.domain or a.conjugated != b.conjugated:
        raise ValueError("sequences belong to different twisted algebras")


def twisted_convolve(a: TwistedSeq, b: TwistedSeq) -> TwistedSeq:
    """(a * b)(z) = weight * sum over w of c(w, z - w) a(w) b(z - w), in crossed-product form (_convolve)."""
    _require_same_algebra(a, b)
    return TwistedSeq(a.domain, a.conjugated, _convolve(a.domain, a.conjugated, a.coeffs, b.coeffs))


def _convolve(domain: MeasuredSubgroup, conjugated: bool, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """twisted_convolve per case of leading axes: the crossed product (_crossed) of the transforms (_hat) of
    a and b, transformed back (_unhat)."""
    ah, bh = _hat(domain, conjugated, np.stack(np.broadcast_arrays(a, b)))
    return _unhat(domain, conjugated, _crossed(domain, ah, bh))


def _hat(domain: MeasuredSubgroup, conjugated: bool, a: np.ndarray) -> np.ndarray:
    """The crossed-product transform per case: (..., |Delta|) give (..., |Delta_0|, runs), [beta, r] the run's
    coefficients against the Delta_0 characters on frame coset beta (_zero_sums), of a itself or, on the
    conjugated flag, of conj(a): the conjugated product is conj of the plain product of conj(a), conj(b)."""
    return np.swapaxes(_zero_sums(domain, a.conj() if conjugated else a), -1, -2)


def _unhat(domain: MeasuredSubgroup, conjugated: bool, h: np.ndarray) -> np.ndarray:
    """Coefficients (..., |Delta|) of transforms (_hat) (..., |Delta_0|, runs): chi chi^H = |Delta_0| I, so each
    run's coefficients are its transform times chi^H / |Delta_0|, placed by pos; conjugated back on that flag."""
    runs = domain._tables.runs
    coeffs = np.swapaxes(h, -1, -2) @ (runs.chi.conj().T / len(runs.chi))
    out = np.take(coeffs.reshape(coeffs.shape[:-2] + (-1,)), runs.pos, axis=-1)
    return np.conjugate(out, out=out) if conjugated else out


def _crossed(domain: MeasuredSubgroup, ah: np.ndarray, bh: np.ndarray) -> np.ndarray:
    """The plain product a * b between transforms (_hat), per case: (..., |Delta_0|, runs) give the same.

    C*(Delta, c) is a crossed product of the functions on Delta_0's dual, the frame cosets, by the run shifts:
    (a * b)^[beta, t] = weight * sum_r phase[beta, t, r] ah[beta, r] bh[beta - x_r, t - r], the crossed table
    (groups) giving the phase and the flat index of bh at frame coset beta - x_r and run t - r. One gather of
    bh, scaled by the phases in place, is contracted with ah as one matrix-vector product per coset:
    |Delta| runs products, where the coefficient form takes |Delta|^2.
    """
    gather, phase = domain._tables.crossed
    terms = np.take(bh.reshape(bh.shape[:-2] + (-1,)), gather, axis=-1)
    terms *= phase
    out = (terms @ ah[..., None])[..., 0]
    out *= domain.float_weight
    return out


def involution(a: TwistedSeq) -> TwistedSeq:
    """a*(z) = conj(c(z, -z)) conj(a(-z)), where c(z, -z) = character(w, x) for z = (x, w)."""
    return TwistedSeq(a.domain, a.conjugated, _involve(a.domain, a.conjugated, a.coeffs))


def _involve(domain: MeasuredSubgroup, conjugated: bool, a: np.ndarray) -> np.ndarray:
    """involution per case of leading axes, from the domain's cached phases (groups, star)."""
    tables = domain._tables
    return tables.star[int(conjugated)] * a[..., tables.neg].conj()


def trace(a: TwistedSeq) -> complex:
    """Canonical trace: the coefficient at the zero point.

    Zero has plane index 0 and a domain's points are sorted by plane index,
    so zero is position 0 of every domain.
    """
    return complex(a.coeffs[0])


def integrated_rep(a: TwistedSeq) -> OperatorMatrix:
    """weight * sum_z a(z) pi(z), with pi(z)* in place of pi(z) on the conjugated flag."""
    return _rep(a.domain, a.conjugated, a.coeffs)


def _plain(domain: MeasuredSubgroup, conjugated: bool, a: np.ndarray) -> np.ndarray:
    """Coefficients whose plain integrated representation is that of a on its flag: a itself, or on the
    conjugated flag the plain involution of conj(a). pi(z)* = conj(c(z, -z)) pi(-z) and c(-z, z) =
    c(z, -z), so sum_z a(z) pi(z)* = sum_z conj(c(z, -z)) a(-z) pi(z)."""
    return _involve(domain, False, a.conj()) if conjugated else a


def _rep(domain: MeasuredSubgroup, conjugated: bool, a: np.ndarray) -> np.ndarray:
    """integrated_rep with leading case axes: (..., |Delta|) give (..., |G|, |G|).

    Row t of the time-fibre form sum_x diag(m_x) T_x (see _act) holds m_x(t) in
    column index(t - x), one fibre sum of the plain coefficients (_plain) per entry.
    """
    runs = domain._tables.runs
    mat = np.zeros(a.shape[:-1] + (runs.minus.shape[-1],) * 2, dtype=np.complex128)
    mat[..., runs.frame.ravel(), runs.minus] = _fibre_sums(domain, _plain(domain, conjugated, a))
    mat *= domain.float_weight
    return mat


def _rep_blocks(domain: MeasuredSubgroup, conjugated: bool, a: np.ndarray) -> np.ndarray:
    """_rep per rep coset (groups), with no |G| x |G| matrix: (..., |Delta|) give (..., |G| / runs, runs,
    runs), block b the entries of _rep at the rows and columns rep[b]; every other entry is zero.

    The columns index(t - x) of row t are the coset of t, so each block entry
    is one fibre sum, gathered.
    """
    m = _fibre_sums(domain, _plain(domain, conjugated, a))
    blocks = np.take(m.reshape(m.shape[:-2] + (-1,)), domain._tables.rep_gather, axis=-1)
    blocks *= domain.float_weight
    return blocks


def _split_rep_blocks(domain: MeasuredSubgroup, conjugated: bool, a: np.ndarray, dual: MeasuredSubgroup) -> np.ndarray:
    """Blocks with the singular values of the rep blocks (_rep_blocks) split by the adjoint's table (groups
    _SplitTable): (..., blocks, size, size). Rep coset b is the adjoint's frame coset of the same least
    member, members alike in order, and the adjoint's shifts U_h, h in H', commute with R_b. So R_b W_psi
    = W_psi B_psi, B_psi = W_psi^H R_b W_psi, and row t0 of W_psi, t0 an orbit start, holds D(t0) /
    sqrt(|H'|) at column t0 alone: row t0 of R_b W_psi is D(t0) / sqrt(|H'|) times row t0 of B_psi. The
    orbit-start rows, order[::|H'|] (h = 0 first), conjugated and split (conj(R_b) conj(W)), times
    sqrt(|H'|), are conj(B_psi) up to unit row phases, which leave the singular values."""
    split = dual._tables.split
    chars = len(split.chars)
    if chars == 1:
        return _rep_blocks(domain, conjugated, a)
    m = _fibre_sums(domain, _plain(domain, conjugated, a))
    blocks, size = domain._tables.rep.shape
    at = (split.order % size).reshape(blocks, size)
    gather = domain._tables.rep_gather[np.arange(blocks)[:, None, None], at[:, ::chars, None], at[:, None]]
    rows = np.take(m.reshape(m.shape[:-2] + (-1,)), gather.swapaxes(0, 1).reshape(size // chars, -1), axis=-1)
    rows = _split(np.conjugate(rows, out=rows), split)  # (..., orbit start, block orbit psi)
    lead = rows.shape[:-2]
    out = rows.reshape(lead + (size // chars, blocks, size // chars, chars))
    out = out.transpose(*range(len(lead)), -3, -1, -4, -2).reshape(lead + (-1, size // chars, size // chars))
    return out * (domain.float_weight * math.sqrt(chars))


def _fibre_sums(domain: MeasuredSubgroup, a: np.ndarray) -> np.ndarray:
    """m_x(t) = sum over the points (x, w) of a(x, w) roots[pairing(w, t)], per case: (..., runs, |G|),
    columns in frame-coset order: the base phases times _zero_sums, broadcast over each coset."""
    runs = domain._tables.runs
    m = runs.base.reshape((len(runs.minus),) + runs.frame.shape) * _zero_sums(domain, a)[..., None]
    return m.reshape(m.shape[:-2] + (-1,))


def _zero_sums(domain: MeasuredSubgroup, a: np.ndarray) -> np.ndarray:
    """Each run's coefficients (placed by pos) against the Delta_0 characters, per case: (..., runs, |Delta_0|),
    one value per frame coset, on which each character is constant."""
    runs = domain._tables.runs
    coeffs = np.empty(a.shape[:-1] + (len(runs.minus), len(runs.chi)), dtype=np.complex128)
    coeffs.reshape(a.shape)[..., runs.pos] = a  # a view: the scatter fills coeffs
    # one matrix product for every case and run: a stacked product runs one small one per case
    return (coeffs.reshape(-1, len(runs.chi)) @ runs.chi).reshape(coeffs.shape)


def _base_rows(values: np.ndarray, domain: MeasuredSubgroup, select=slice(None)) -> np.ndarray:
    """The run table's shift base[r] * values(t - x_r) of (..., |G|) vectors: (..., runs, |G|), frame-coset
    order; the runs that select picks (all by default)."""
    runs = domain._tables.runs
    rows = np.take(values, runs.minus[select], axis=-1)
    return np.multiply(rows, runs.base[select], out=rows)


def _act(domain: MeasuredSubgroup, conjugated: bool, a: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """integrated_rep(a) @ xi per case of xi's leading axes (a's broadcast to them), in time-fibre form.

    rep(a) = weight * sum_x diag(m_x) T_x, m_x the fibre sums of the plain coefficients (_plain). The
    base phases and the weight fold into xi's side: weight times xi's base rows (_base_rows), scaled in
    place by one _zero_sums value per run and frame coset, summed over the runs, back in G order (_uncoset).
    """
    runs = domain._tables.runs
    shifted = _base_rows(xi, domain)
    shifted *= domain.float_weight
    terms = shifted.reshape(shifted.shape[:-1] + runs.frame.shape)
    terms *= _zero_sums(domain, _plain(domain, conjugated, a))[..., None]
    return _uncoset(terms.sum(axis=-3).reshape(shifted.shape[:-2] + (-1,)), runs.frame)


def cstar_norm(a: TwistedSeq) -> float:
    """C*-norm: the spectral norm of the faithful integrated representation, the largest over its split blocks."""
    blocks = _split_rep_blocks(a.domain, a.conjugated, a.coeffs, adjoint_subgroup(a.domain))
    return float(_svals(blocks)[:, 0].max())


_TINY = np.finfo(np.float64).tiny  # the least normal float: a floor for divisors that may be zero


def _svals(blocks: np.ndarray) -> np.ndarray:
    """Singular values, descending, per block of an (..., m, n) stack: those of np.linalg.svd, in closed form
    when min(m, n) <= 2, where LAPACK's fixed cost per block outweighs the arithmetic.

    The blocks are read by columns, the longer side down (A^T has the singular values of A), laid out
    (columns, rows, blocks) so that every step is one call over the whole stack, and scaled by their
    largest entry modulus, so that no square overflows or underflows. One column a: |a|. Two columns
    a, v: Gram-Schmidt with one reorthogonalisation pass gives R = [[f, r12], [0, h]], f = |a| and
    h = |v - (q^H v) q|, q = a / f; unit phases on its second row and column make r12 real, g = |r12|,
    and leave the singular values, which LAPACK's dlas2 gives as sigma_1 = (hypot(f + h, g) +
    hypot(f - h, g)) / 2 and sigma_2 = f h / sigma_1. A^H A is never formed, so sigma_2 keeps an absolute
    error of a few eps sigma_1, as LAPACK's does.
    """
    m, n = blocks.shape[-2:]
    if min(m, n) > 2:
        return np.linalg.svd(blocks, compute_uv=False)
    cols = blocks.reshape(-1, m, n).transpose((2, 1, 0) if m >= n else (1, 2, 0))  # (columns, rows, blocks)
    mags = np.abs(cols, order="C")
    unit = np.maximum(np.maximum.reduce(mags, axis=(0, 1)), _TINY)  # a zero block stays zero
    mags /= unit
    squares = np.add.reduce(np.square(mags, out=mags), axis=1)  # per column and block
    if min(m, n) == 1:
        return (unit * np.sqrt(squares[0])).reshape(blocks.shape[:-2] + (1,))
    a, v = np.divide(cols, unit, order="C")
    f = np.sqrt(squares[0])
    q = a / np.maximum(f, _TINY)
    qh = q.conj()
    r12 = np.add.reduce(qh * v)
    v = v - r12 * q
    again = np.add.reduce(qh * v)
    v -= again * q
    r12 += again
    h = np.sqrt(np.add.reduce(np.square(np.abs(v))))
    g = np.abs(r12)
    top = 0.5 * (np.hypot(f + h, g) + np.hypot(f - h, g))
    sigma = np.array([top, f * h / np.maximum(top, _TINY)])
    sigma *= unit
    return sigma.T.reshape(blocks.shape[:-2] + (2,))


def _top_eig(grams: np.ndarray) -> np.ndarray:
    """Largest eigenvalue per Hermitian block of an (..., n, n) stack, the last of np.linalg.eigvalsh, which
    reads the lower triangle: in closed form when n <= 2, a for [[a]] and (a + d) / 2 + hypot((a - d) / 2,
    |b|) for [[a, b*], [b, d]]."""
    n = grams.shape[-1]
    if n > 2:
        return np.linalg.eigvalsh(grams)[..., -1]
    a = grams[..., 0, 0].real
    if n == 1:
        return a
    d = grams[..., 1, 1].real
    return 0.5 * (a + d) + np.hypot(0.5 * (a - d), np.abs(grams[..., 1, 0]))


def l2_localization_inner(a: TwistedSeq, b: TwistedSeq) -> complex:
    """Localization pairing <a, b> = trace(a * involution(b))."""
    _require_same_algebra(a, b)
    return trace(twisted_convolve(a, involution(b)))
