"""Twisted group algebras on measured subgroups of the time-frequency plane.

A sequence a on a measured subgroup, twisted by the Heisenberg cocycle c (flag
``conjugated`` False) or by its pointwise conjugate (flag True), multiplies by

    (a * b)(z) = weight * sum_w kappa(w, z - w) a(w) b(z - w)

and has involution a*(z) = conj(kappa(z, -z)) conj(a(-z)). The canonical trace
is evaluation at zero. The integrated representation realizes a as an operator
on C^G, sending z to pi(z) for the plain cocycle and to pi(z)* for the
conjugated one; it is faithful, so the C*-norm of a is the spectral norm of
its representing matrix.

With the conjugated cocycle the integrated representation reverses products,
rep(a * b) = rep(b) rep(a), exactly what a right module action requires; the
involution identity rep(a*) = rep(a)^H holds for both flags.

Every product, involution and representation reads the domain's integer
tables (see groups): the add and neg index tables, the cocycle as integer
phases mod N with kappa = roots[phase] (roots[-phase] on the conjugated
flag), and the orbit gather. The integrated representation is one scatter
of |Delta| * |G| entries into the |G| x |G| matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import MeasuredSubgroup, TFPoint
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
    """Multiplicative unit: (1/weight) delta_0."""
    coeffs = np.zeros(len(domain), dtype=np.complex128)
    coeffs[domain.index(domain.ambient.tf_zero())] = 1.0 / float(domain.weight)
    return TwistedSeq(domain, conjugated, coeffs)


def _require_same_algebra(a: TwistedSeq, b: TwistedSeq) -> None:
    if a.domain != b.domain or a.conjugated != b.conjugated:
        raise ValueError("sequences belong to different twisted algebras")


def _scatter(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """out[i] = sum of the values whose index is i."""
    out = np.empty(size, dtype=np.complex128)
    out.real = np.bincount(index.ravel(), weights=values.real.ravel(), minlength=size)
    out.imag = np.bincount(index.ravel(), weights=values.imag.ravel(), minlength=size)
    return out


def twisted_convolve(a: TwistedSeq, b: TwistedSeq) -> TwistedSeq:
    """(a * b)(z) = weight * sum over w of kappa(w, z - w) a(w) b(z - w)."""
    _require_same_algebra(a, b)
    tables = a.domain._tables
    phase = -tables.cocycle % tables.group.modulus if a.conjugated else tables.cocycle
    contrib = float(a.domain.weight) * (a.coeffs[:, None] * tables.group.roots[phase] * b.coeffs[None, :])
    return TwistedSeq(a.domain, a.conjugated, _scatter(tables.add, contrib, len(a.domain)))


def involution(a: TwistedSeq) -> TwistedSeq:
    """a*(z) = conj(kappa(z, -z)) conj(a(-z)), where c(z, -z) = character(w, x) for z = (x, w)."""
    tables = a.domain._tables
    phase = tables.group.pairing(tables.w, tables.x)
    if not a.conjugated:
        phase = -phase % tables.group.modulus
    return TwistedSeq(a.domain, a.conjugated, tables.group.roots[phase] * a.coeffs[tables.neg].conj())


def trace(a: TwistedSeq) -> complex:
    """Canonical trace: the coefficient at the zero point.

    Zero has plane index 0 and a domain's points are sorted by plane index,
    so zero is position 0 of every domain.
    """
    return complex(a.coeffs[0])


def integrated_rep(a: TwistedSeq) -> OperatorMatrix:
    """weight * sum_z a(z) pi(z), with pi(z)* in place of pi(z) on the conjugated flag.

    One scatter of the domain's orbit gather, since pi(z) holds
    roots[phase[z, t]] at row t, column perm[z, t]. On the conjugated flag
    the result is the conjugate transpose of the plain scatter of conj(a).
    """
    tables = a.domain._tables
    perm, phase = tables.orbit
    n = tables.group.size
    coeffs = a.coeffs.conj() if a.conjugated else a.coeffs
    entries = _scatter(perm + n * np.arange(n), coeffs[:, None] * tables.group.roots[phase], n * n)
    mat = float(a.domain.weight) * entries.reshape(n, n)
    return mat.conj().T if a.conjugated else mat


def cstar_norm(a: TwistedSeq) -> float:
    """C*-norm, computed as the spectral norm of the faithful integrated representation."""
    return float(np.linalg.norm(integrated_rep(a), 2))


def l2_localization_inner(a: TwistedSeq, b: TwistedSeq) -> complex:
    """Localization pairing <a, b> = trace(a * involution(b))."""
    _require_same_algebra(a, b)
    return trace(twisted_convolve(a, involution(b)))
