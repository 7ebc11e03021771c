"""Gabor systems over measured subgroups: analysis, frame operators, bounds, duals.

For a window eta and a measured subgroup Delta, the analysis operator has one
row per lattice point z, evaluating xi -> <xi, pi(z) eta>; the squared norm on
the coefficient side weights each point by Delta's measure. The frame operator

    S = sum_j weight * sum_{z in Delta} <., pi(z) eta_j> pi(z) eta_j

is Hermitian positive semidefinite and commutes with every lattice shift. Its
extreme eigenvalues are the optimal frame bounds. The Janssen form rewrites S
as an adjoint-lattice sum s(Delta)^{-1} sum_{w} <eta, pi(w) eta> pi(w).

So S is the integrated representation of a sequence on the adjoint, block
diagonal over the cosets of the adjoint's time shifts X(adjoint) =
Delta_0^perp, Delta_0 = {w : (0, w) in Delta} (the frame cosets, groups).
Bounds, spectra, duals and the generating-set SVD run per block: a Gram of
the orbit's columns on each coset. frame_operator builds all of S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import MeasuredSubgroup, adjoint_subgroup
from .shifts import OperatorMatrix, Window
from .twisted import TwistedSeq, integrated_rep


@dataclass(frozen=True)
class GaborSystem:
    """A multi-window Gabor system: a lattice and k >= 1 windows on its ambient group."""

    lattice: MeasuredSubgroup
    windows: tuple[Window, ...]

    def __post_init__(self) -> None:
        if not self.windows:
            raise ValueError("a Gabor system needs at least one window")
        object.__setattr__(self, "windows", tuple(self.windows))
        for eta in self.windows:
            if eta.group != self.lattice.ambient:
                raise ValueError("window group does not match the lattice's ambient group")


@dataclass(frozen=True)
class FrameBounds:
    """Optimal lower and upper frame bounds (extreme frame-operator eigenvalues)."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lower <= self.upper:
            raise ValueError(f"frame bounds must satisfy 0 <= A <= B, got {self}")


class NotAFrameError(ValueError):
    """Raised when an operation needs an invertible frame operator but the system is not a frame."""

    def __init__(self, bounds: FrameBounds):
        super().__init__(f"system is not a frame: bounds A={bounds.lower}, B={bounds.upper}")
        self.bounds = bounds


def shift_orbit(eta: Window, sub: MeasuredSubgroup) -> np.ndarray:
    """|Delta| x |G| matrix whose row for z is pi(z) eta: one gather over the lattice's orbit table."""
    return _orbit(eta.values, sub)


def _orbit(values: np.ndarray, sub: MeasuredSubgroup, cols: np.ndarray | None = None) -> np.ndarray:
    """shift_orbit with leading case axes: values (..., |G|) give orbits (..., |Delta|, |G|), or only the
    columns cols of G in their order, (..., |Delta|, |cols|)."""
    perm, phase = sub._tables.orbit
    if cols is not None:  # contiguous index tables, one alive at a time: the gathers copy neither
        roots = sub._tables.group.roots[np.take(phase, cols, axis=1)]
        out = np.take(values, np.take(perm, cols, axis=1), axis=-1)
    else:
        roots, out = sub._tables.group.roots[phase], np.take(values, perm, axis=-1)
    return np.multiply(roots, out, out=out)  # reuses the gather's buffer: no third array


def _column_blocks(orbit: np.ndarray, cosets: np.ndarray) -> np.ndarray:
    """Orbits (..., rows, |G|) gathered at the columns cosets.ravel(), split into one block per coset:
    a view (..., blocks, rows, size) for cosets (blocks, size)."""
    return np.moveaxis(orbit.reshape(orbit.shape[:-1] + cosets.shape), -2, -3)


def _analyze(xi: np.ndarray, eta: np.ndarray, sub: MeasuredSubgroup) -> np.ndarray:
    """Analysis coefficients <xi, pi(z) eta> per case: (..., |G|) arrays give (..., |Delta|)."""
    return (_orbit(eta, sub).conj() @ xi[..., None])[..., 0]


def _gram(orbit: np.ndarray, weight) -> np.ndarray:
    """Frame-operator product weight * orbit^T conj(orbit), per case of an (..., |Delta|, |G|) stack."""
    return float(weight) * (np.swapaxes(orbit, -1, -2) @ orbit.conj())


def analysis(eta: Window, sub: MeasuredSubgroup) -> np.ndarray:
    """Analysis matrix: row for z is conj(pi(z) eta), so (A xi)_z = <xi, pi(z) eta>."""
    if eta.group != sub.ambient:
        raise ValueError("window group does not match the subgroup's ambient group")
    return shift_orbit(eta, sub).conj()


def synthesis(gamma: Window, sub: MeasuredSubgroup) -> np.ndarray:
    """Adjoint of analysis: coefficients a map to weight * sum_z a(z) pi(z) gamma."""
    return float(sub.weight) * shift_orbit(gamma, sub).T


def frame_like(eta: Window, gamma: Window, sub: MeasuredSubgroup) -> OperatorMatrix:
    """Cross frame operator: synthesis with gamma after analysis with eta."""
    return synthesis(gamma, sub) @ analysis(eta, sub)


def frame_operator(sys: GaborSystem) -> OperatorMatrix:
    """Sum of the per-window frame operators, as a |G| x |G| matrix: one block holding all of G."""
    return _frame_sum(_windows(sys), sys.lattice, np.arange(sys.lattice.ambient.order)[None])[0]


def _windows(sys: GaborSystem) -> np.ndarray:
    return np.stack([eta.values for eta in sys.windows])


def _frame_blocks(sys: GaborSystem) -> np.ndarray:
    """The frame operator's blocks over the lattice's frame cosets (groups): (blocks, size, size)."""
    return _frame_sum(_windows(sys), sys.lattice, sys.lattice._tables.cosets[1])


def _frame_sum(windows: np.ndarray, sub: MeasuredSubgroup, cosets: np.ndarray) -> np.ndarray:
    """Frame-operator blocks per case of (..., k, |G|) windows, (..., blocks, size, size) for cosets
    (blocks, size): the Gram of each coset's orbit columns, one orbit at a time, added in window order.

    Over the frame cosets these are all of S: it commutes with every lattice
    shift and is rep(adjoint) of its Janssen coefficients, so its entries
    between two cosets vanish.
    """
    total = np.zeros(windows.shape[:-2] + cosets.shape + cosets.shape[-1:], dtype=np.complex128)
    for j in range(windows.shape[-2]):
        total += _gram(_column_blocks(_orbit(windows[..., j, :], sub, cosets.ravel()), cosets), sub.weight)
    return total


def _extremes(values: np.ndarray) -> np.ndarray:
    """Least and greatest over the last two axes, (..., 2): extreme eigen- or singular values of blocks."""
    return np.stack([values.min(axis=(-2, -1)), values.max(axis=(-2, -1))], axis=-1)


def _bounds(ops: np.ndarray) -> np.ndarray:
    """Extreme eigenvalues (..., 2) of stacked frame-operator blocks (..., blocks, size, size); negative
    noise clamps to zero."""
    eigs = _extremes(np.linalg.eigvalsh(ops))
    return np.where(eigs < 0.0, 0.0, eigs)


def frame_bounds(sys: GaborSystem) -> FrameBounds:
    """Extreme eigenvalues of the frame operator; tiny negative noise clamps to zero."""
    return FrameBounds(*_bounds(_frame_blocks(sys)).tolist())


def _frame_test(lower, upper, tol: float) -> np.ndarray:
    """The frame rule, elementwise on bound arrays: A clears tol * max(B, 1), for a positive finite tol."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    return np.greater(lower, tol * np.maximum(upper, 1.0))


def is_frame(sys: GaborSystem, tol: float = 1e-9) -> bool:
    """True when the lower bound clears tol * max(B, 1)."""
    return bool(_frame_test(*_bounds(_frame_blocks(sys)), tol))


def dual_window(sys: GaborSystem, tol: float = 1e-9) -> list[Window]:
    """Canonical dual windows S^{-1} eta_j; NotAFrameError when S is singular. S is built once."""
    return _dual_window(sys, tol)[0]


def _dual_window(sys: GaborSystem, tol: float) -> tuple[list[Window], FrameBounds]:
    """dual_window and the frame bounds: _duals with one case."""
    cosets, windows = sys.lattice._tables.cosets[1], _windows(sys)
    ops = _frame_sum(windows, sys.lattice, cosets)
    (bounds,), (frame,), duals = _duals(ops[None], windows[None][..., cosets.ravel()], tol)
    bounds = FrameBounds(*bounds.tolist())
    if not frame:
        raise NotAFrameError(bounds)
    return [Window(sys.lattice.ambient, gamma) for gamma in _uncoset(duals[0], cosets)], bounds


def _duals(ops: np.ndarray, windows: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """Per case of (cases, blocks, size, size) frame-operator blocks and their (cases, k, |G|) windows in
    coset order (the entries of coset b at b size to (b + 1) size), from one eigvalsh and one solve: the
    bounds (cases, 2), the frame verdicts, and the duals (frames, k, |G|) of the frames, in coset order."""
    bounds = _bounds(ops)
    frames = _frame_test(bounds[:, 0], bounds[:, 1], tol)
    ops, windows = ops[frames], windows[frames]
    rhs = np.moveaxis(windows.reshape(windows.shape[:2] + ops.shape[1:3]), 1, -1)
    return bounds, frames, np.moveaxis(np.linalg.solve(ops, rhs), -1, 1).reshape(windows.shape)


def _uncoset(values: np.ndarray, cosets: np.ndarray) -> np.ndarray:
    """Vectors (..., |G|) in coset order back in the order of G."""
    out = np.empty_like(values)
    out[..., cosets.ravel()] = values
    return out


def _svd_frames(windows: np.ndarray, sub: MeasuredSubgroup, tol: float) -> np.ndarray:
    """The frame rule per case of (cases, k, |G|) windows, on bounds from the singular values of the
    stacked orbits (cases, k |Delta|, |G|), taken block by block over the frame cosets.

    The columns of different blocks are orthogonal (their Gram is the block-diagonal
    frame operator), so the singular values are those of the blocks together. The
    bounds are weight * s^2 of the extreme ones; the lower one is 0 with fewer rows than |G|.
    """
    cases, k, n = windows.shape
    cosets = sub._tables.cosets[1]
    orbits = _orbit(windows, sub, cosets.ravel()).reshape(cases, k * len(sub), n)
    svals = np.linalg.svd(_column_blocks(orbits, cosets), compute_uv=False)
    bounds = float(sub.weight) * _extremes(svals) ** 2
    if k * len(sub) < n:
        bounds[:, 0] = 0.0
    return _frame_test(bounds[:, 0], bounds[:, 1], tol)


def reconstruction_residual(sys: GaborSystem, duals: list[Window], xi: Window) -> float:
    """Residual of sum_j weight sum_z <xi, pi(z) gamma_j> pi(z) eta_j against xi."""
    rebuilt = np.zeros(sys.lattice.ambient.order, dtype=np.complex128)
    for eta, gamma in zip(sys.windows, duals):
        coeffs = analysis(gamma, sys.lattice) @ xi.values
        rebuilt += synthesis(eta, sys.lattice) @ coeffs
    return float(np.linalg.norm(rebuilt - xi.values))


def janssen_frame_operator(eta: Window, sub: MeasuredSubgroup) -> OperatorMatrix:
    """Adjoint-lattice form: s(Delta)^{-1} sum over the adjoint of <eta, pi(w) eta> pi(w).

    That is integrated_rep of the correlation sequence on the adjoint, whose weight is 1/s(Delta).
    """
    if eta.group != sub.ambient:
        raise ValueError("window group does not match the subgroup's ambient group")
    adj = adjoint_subgroup(sub)
    return integrated_rep(TwistedSeq(adj, False, _analyze(eta.values, eta.values, adj)))


def spectrum(sys: GaborSystem) -> np.ndarray:
    """Frame-operator eigenvalues, descending: those of its blocks, together."""
    return np.sort(np.linalg.eigvalsh(_frame_blocks(sys)), axis=None)[::-1].copy()
