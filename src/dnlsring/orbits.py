"""Numerical verification of the predicted bifurcations.

Periodic orbits of ``JJ du/dt = grad_V(u)`` with frequency nu are zeros of
the 2*pi-periodic residual ``F(x) = -nu JJ dx/dt + grad_V(x)``, represented
here by a truncated Fourier series with modes |l| <= p.  The module provides

* a conservative implicit-midpoint time integrator that solves each step
  for its stage increment, the midpoint less the state, with a Newton
  matrix banded in the interleaved ring order of :func:`_ring_order` and
  factored about once per step, started from the order-8 extrapolation of
  the last stage increments,
* the collocation residual and its exact linearization,
* a gauged Newton solver for periodic orbits,
* pseudo-arclength continuation of branches away from a bifurcation point,
  restricted to Fix(K) in the isotropy subspace of the bifurcating mode.

The solver and the continuation share one set of coordinates: the modes
l = 0..p of the oscillators they keep, with one coupling matrix K_l per mode
(all n oscillators in the full space; oscillator n alone in the isotropy
subspace of mode k, where the corrector's cost does not grow with n, though
expanding and certifying each accepted point does).  There the residual and
its closed-form Jacobian are written once, and one Newton loop solves it
bordered by an amplitude or arclength row.  Each iterate is sampled once,
and the residual, the Jacobian and its nu column read those samples.  Each
iteration that takes a step factors the system once: a dense LU in the
isotropy subspace, and in the full space a band LU, the sites ordered
around the ring so that each meets its neighbours within a bandwidth that
does not grow with n, the unknowns packed in that order and the border
eliminated around it.  Every trial residual is L2-orthogonal to the two
group tangents (time shift and rotation), and whether the space is the
full one decides the rest.  The
full space of :func:`newton_orbit` adds a gauge row and an unfolding
multiplier per live tangent, F + lambda_1 t_1 + lambda_2 t_2 = 0, which
make the system square and regular (Munoz-Almaraz, Freire, Galan, Doedel &
Vanderbauwhede, Physica D 181, 2003), with lambda = 0 at every solution,
and tests the condition of every factorization, the converged iterate's
too.  The continuation keeps only Fix(K), K x(t) = kappa x(-t) with the
ring reflection kappa: q_j -> conj(q_(n-j)) (Lamb & Roberts, Physica D
112, 1998): the residual maps Fix(K) into itself and both tangents are odd
under K, so they vanish there, and the system is square with no gauge, no
multiplier and no guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import blocks
from .model import (J2, RingSystem, _as_state, _hessian_apply_sites, _onsite,
                    _onsite_blocks)
from .symmetry import t_k_matrix

__all__ = [
    "NoConvergence",
    "SingularJacobian",
    "FourierOrbit",
    "BranchPoint",
    "ContinuationBranch",
    "integrate",
    "residual",
    "linearized_residual",
    "orbit_residual_norm",
    "newton_orbit",
    "continue_branch",
    "extrapolate_nu_to_zero",
]

_REALITY_TOL = 1e-14
_TAIL_TOL = 1e-12
_NEWTON_TOL = 1e-10     # residual norm of newton_orbit and of the continuation
_MAX_ITER = 50          # Newton iterations of newton_orbit
_P_MAX = 256            # Fourier order at which p-doubling gives up
_MIDPOINT_TOL = 1e-12   # inner Newton solve of one implicit-midpoint step
_MIDPOINT_ITER = 25
_PREDICTOR_ORDER = 8    # stage increments that the midpoint predictor extrapolates
_RCOND_MIN = 1e-10      # condition estimate below which newton_orbit reports a singularity
_AMPLITUDE_MAX = 10.0   # amplitude at which continue_branch stops
_EXTRAPOLATION_POINTS = 12   # smallest-amplitude points that extrapolate_nu_to_zero fits
_SWAP_SIGN = np.array([1.0, -1.0])              # -J2 v = (v_1, -v_0): swap, then this
# row m: the weights, oldest first, of the order-m extrapolation of the last
# m stage increments, z_k = sum_(j=1..m) (-1)^(j+1) C(m, j) z_(k-j)
_PREDICTOR_WEIGHTS = {
    m: np.array([(-1.0) ** (j + 1) * math.comb(m, j) for j in range(m, 0, -1)])
    for m in range(1, _PREDICTOR_ORDER + 1)}


class NoConvergence(RuntimeError):
    """A Newton iteration of :func:`newton_orbit` or :func:`integrate`
    failed to reach its tolerance.  :func:`continue_branch` does not raise
    it: a corrector that fails ends the branch with a termination."""


class SingularJacobian(RuntimeError):
    """The gauged Jacobian is rank deficient, as happens exactly at a
    bifurcation point."""


@dataclass
class FourierOrbit:
    """Truncated Fourier representation of a 2*pi-periodic orbit.

    ``coeffs`` has shape (2p+1, 2n) holding the modes l = -p..p of the real
    signal, so ``coeffs[p+l]`` is mode l and ``coeffs[p-l] = conj(coeffs[p+l])``.
    """

    nu: float
    coeffs: np.ndarray
    residual_norm: float | None = None
    newton_iterations: int | None = field(default=None, compare=False)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.ndim != 2 or self.coeffs.shape[0] % 2 != 1:
            raise ValueError("coeffs must have shape (2p+1, 2n)")
        if self.coeffs.shape[1] % 2 != 0:
            raise ValueError("coeffs must have an even number of columns")
        if not np.all(np.isfinite(self.coeffs.real)) \
                or not np.all(np.isfinite(self.coeffs.imag)):
            raise ValueError("coeffs contain non-finite entries")
        mismatch = np.abs(self.coeffs[::-1].conj() - self.coeffs).max()
        if mismatch > _REALITY_TOL:
            raise ValueError(
                f"reality condition x_-l = conj(x_l) violated by {mismatch:.3e}")

    @property
    def p(self) -> int:
        return (self.coeffs.shape[0] - 1) // 2

    @property
    def n(self) -> int:
        return self.coeffs.shape[1] // 2

    @property
    def amplitude(self) -> float:
        """l2 norm of all oscillating (l != 0) modes; group invariant."""
        mask = np.ones(self.coeffs.shape[0], dtype=bool)
        mask[self.p] = False
        return float(np.sqrt((np.abs(self.coeffs[mask]) ** 2).sum()))


def _default_samples(p: int) -> int:
    # >= 4p+1 keeps the retained gradient modes alias-free for a cubic h
    return max(4 * p + 1, 128)


def _to_samples(modes: np.ndarray, num: int) -> np.ndarray:
    """``num`` equispaced samples of the real signal with modes 0..m (axis 0)."""
    if num < 2 * len(modes) - 1:
        raise ValueError(f"need at least {2 * len(modes) - 1} samples, got {num}")
    return np.fft.irfft(modes, num, axis=0) * num


def _to_modes(samples: np.ndarray, m: int) -> np.ndarray:
    """Modes 0..m of the real signal with these equispaced samples (axis 0)."""
    if len(samples) < 2 * m + 1:
        raise ValueError(f"need at least {2 * m + 1} samples, got {len(samples)}")
    return np.fft.rfft(samples, axis=0)[:m + 1] / len(samples)


def _apply_iJJ(coeffs: np.ndarray) -> np.ndarray:
    """(i JJ) applied to every mode vector of shape (..., 2n)."""
    m = coeffs.shape[-1] // 2
    stacked = coeffs.reshape(coeffs.shape[:-1] + (m, 2))
    return 1j * (stacked @ J2.T).reshape(coeffs.shape)


def _check_sizes(ring: RingSystem, orbit: FourierOrbit) -> None:
    if orbit.n != ring.n:
        raise ValueError(f"the orbit has n = {orbit.n} oscillators, the ring n = {ring.n}")


def residual(ring: RingSystem, orbit: FourierOrbit) -> np.ndarray:
    """Per-mode residual F_l = -l nu (i JJ) x_l + g_l for |l| <= p, with g_l
    the Fourier modes of grad_V along the orbit (a dealiased transform of
    max(4p + 1, 128) time samples): the full-space residual that
    :func:`newton_orbit` solves, the modes l = 0..p of ``_FourierSpace``,
    shown over l = -p..p with F_-l = conj(F_l).

    Raises
    ------
    ValueError
        When the orbit and the ring have different numbers of oscillators.
    """
    _check_sizes(ring, orbit)
    p = orbit.p
    space = _FourierSpace(ring, p)
    F = space.modes(space.evaluate(orbit.coeffs[p:], orbit.nu))
    return np.concatenate([F[:0:-1].conj(), F])


def linearized_residual(ring: RingSystem, orbit: FourierOrbit,
                        dcoeffs: np.ndarray, dnu: float = 0.0) -> np.ndarray:
    """Exact derivative of :func:`residual` along (dcoeffs, dnu), in its
    layout and at its samples.

    ``dcoeffs`` has the shape of ``orbit.coeffs`` and must describe a real
    perturbation, i.e. be finite and satisfy the same reality condition.

    Raises
    ------
    ValueError
        When the orbit and ring sizes differ, or ``dcoeffs`` has another shape,
        has a non-finite entry or is not real.
    """
    _check_sizes(ring, orbit)
    if dcoeffs.shape != orbit.coeffs.shape:
        raise ValueError(f"dcoeffs has shape {dcoeffs.shape}, the orbit {orbit.coeffs.shape}")
    if not np.isfinite(dcoeffs).all():
        raise ValueError("dcoeffs contain non-finite entries")
    if np.abs(dcoeffs[::-1].conj() - dcoeffs).max() > 1e-12 * (1 + np.abs(dcoeffs).max()):
        raise ValueError("dcoeffs must satisfy the reality condition")
    p = orbit.p
    num = _default_samples(p)
    X = _to_samples(orbit.coeffs[p:], num).reshape(num, ring.n, 2)
    dX = _to_samples(dcoeffs[p:], num).reshape(num, ring.n, 2)
    dg = _to_modes(_hessian_apply_sites(ring, X, dX).reshape(num, 2 * ring.n), p)
    ls = np.arange(-p, p + 1)[:, None]
    return (-orbit.nu * ls * _apply_iJJ(dcoeffs)
            - dnu * ls * _apply_iJJ(orbit.coeffs) + np.concatenate([dg[:0:-1].conj(), dg]))


def orbit_residual_norm(F: np.ndarray) -> float:
    """l2 norm over all retained modes of a residual array."""
    return float(np.sqrt((np.abs(F) ** 2).sum()))


def _ring_order(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The site at each band position, the ring interleaved as 0, n-1, 1,
    n-2, ..., and the position of each site: each site's two neighbours are
    at most two positions away, so a ring operator has a bandwidth that does
    not grow with n (Golub & Van Loan, *Matrix Computations*, section 4.3)."""
    sites = np.arange(n)
    ring, position = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    ring[0::2], ring[1::2] = sites[:(n + 1) // 2], sites[:(n - 1) // 2:-1]
    position[ring] = sites
    return ring, position


def _band_at(kl: int, i, j):
    """Where A[i, j], ab[2 kl + i - j, j], sits in the flat LAPACK band
    storage, (3 kl + 1, N) in Fortran order, of a matrix with kl = ku."""
    return 2 * kl + i + 3 * kl * j


# ---------------------------------------------------------------------------
# coordinates on the half spectrum l = 0..p


class _FourierSpace:
    """The collocation system of one ring at Fourier order p, in the real
    coordinates of truncated orbits: the modes V_l, l = 0..p, of the kept
    oscillators, with one coupling matrix K_l per mode.

    The space holds its ``ring`` and its sample count ``num`` =
    max(4p + 1, 128), so every residual and Jacobian it builds is sampled
    alias-free for a cubic h; a test that needs another count sets ``num``
    on its instance.  The full space keeps all n oscillators, V_l = x_l
    (w = 2n), and K_l is the ring adjacency, applied by shifting the sites:
    no 2n x 2n matrix is built.  The Z~_n(k) fixed-point space keeps oscillator n
    alone, V_l = sqrt(n) x_(n,l) (w = 2): there x_(j,l) = e^(i k_l j zeta)
    R(j zeta) x_(n,l) with k_l = l k mod n, so mode l couples only to itself,
    through K_l = (2 cos zeta - alpha_(k_l)) I + gamma_(k_l) iJ, with the L2
    pairing of the whole orbit.  The full space packs points site by site in
    :func:`_ring_order`, each site's real parts [V_0, Re V_1, Im V_1, ...,
    Re V_p, Im V_p] x (x, y), then nu: its band order.  Residuals pack the
    same way without nu.  The Z~_n(k) space, one site, keeps the ``fixed``
    real parts of Fix(K), V_l = (x_l, y_l): Re x_0, Re x_l and Im y_l
    (l = 1..p) and nu, 2p + 2 unknowns in place of 2n(2p+1) + 1.
    :meth:`pack` and :meth:`unpack` move them through one index into the
    real view of V.  The residual is written once, in :meth:`modes`: Newton
    solves it packed, and the full space's modes are the public
    :func:`residual`, the certificate of every solved orbit.  The signals
    are real: every transform is :func:`_to_samples` / :func:`_to_modes`.

    A point is sampled once, by :meth:`evaluate`: its ``num`` samples, the
    site values s and w = omega + h(s) there, and iJJ V.  :meth:`modes` and
    :meth:`residual`, :meth:`_site_blocks` (with :meth:`jacobian` and
    :meth:`factor`) and :meth:`_nu_column` take that evaluation, so the
    residual and the Jacobian of one iterate share their samples and h, and
    h' is evaluated only for a Jacobian.  The space keeps no state between
    points.  ``k is None`` marks the full space, the one that :func:`_newton`
    gauges and guards; in Fix(K) both group tangents pack to zero.
    """

    def __init__(self, ring: RingSystem, p: int, k: int | None = None):
        n = ring.n
        self.ring, self.n, self.p, self.k = ring, n, p, k
        self.num = _default_samples(p)
        if k is None:
            self.width, self.scale = 2 * n, 1.0
            # the adjacency has zero blocks on the site diagonal
            self._onsite_coupling = np.zeros((1, 1, 2, 2))
            self.fixed, self.dim = slice(None), 2 * n * (2 * p + 1) + 1
        else:   # k_l in 1..n
            self.kl = [(l * k - 1) % n + 1 for l in range(p + 1)]
            cs = [blocks.coefficients(n, kl) for kl in self.kl]
            self.coupling = np.array([(2.0 * np.cos(2.0 * np.pi / n) - c.alpha) * np.eye(2)
                                      + c.gamma * blocks.IJ for c in cs])
            self.width, self.scale = 2, np.sqrt(n)
            self._onsite_coupling = self.coupling[:, None]
            self.maps = np.array([t_k_matrix(n, kl) for kl in self.kl])   # x_l = t_(k_l) V_l
            # Fix(K): Re x_0, then Re x_l and Im y_l, of all the real parts
            self.fixed = np.r_[0, (np.arange(2, 4 * p, 4)[:, None] + [0, 3]).ravel()]
            self.dim = 2 * p + 2

    @cached_property
    def _packed_at(self) -> np.ndarray:
        """Where each packed coordinate sits in ``V.view(float)``, flat: part
        q of [V_0, Re V_1, Im V_1, ..., Re V_p, Im V_p], component a, of the
        site at position r of :func:`_ring_order` at 2(2p + 1) r + 2q + a,
        the band order; the space keeps its ``fixed`` ones.  Worked out on
        first use, so a subclass may set ``fixed`` after this constructor."""
        w, p = self.width, self.p
        # Re V_l[c] at 2c of row l, Im V_l[c] at 2c + 1; part 2l - 1 is Re V_l, part 2l Im V_l
        parts = np.r_[0, 2 * w * np.repeat(np.arange(1, p + 1), 2) + np.tile([0, 1], p)]
        real = 2 * (2 * _ring_order(w // 2)[0][:, None] + np.arange(2))   # Re x, Re y by site
        return (real[:, None] + parts[:, None]).ravel()[self.fixed]

    def pack(self, V: np.ndarray, *tail: float) -> np.ndarray:
        """The kept real parts of the complex coordinates V (p+1, w), whose
        rows are contiguous, then ``tail``."""
        return np.concatenate([V.view(float).take(self._packed_at), tail])

    def unpack(self, z: np.ndarray) -> tuple[np.ndarray, float]:
        V = np.zeros((self.p + 1, self.width), dtype=complex)
        V.view(float).put(self._packed_at, z[:-1])
        return V, float(z[-1])

    def expand(self, V: np.ndarray) -> np.ndarray:
        """Coordinates (p+1, w) -> orbit coefficients (2p+1, 2n): all n
        oscillators, built once per corrected point, never inside Newton."""
        X = V if self.k is None else (self.maps @ V[:, :, None])[..., 0]
        coeffs = np.concatenate([X[:0:-1].conj(), X])
        coeffs[self.p] = coeffs[self.p].real
        return coeffs

    def _samples(self, V: np.ndarray) -> np.ndarray:
        """Time samples (num, w/2, 2) of the kept oscillators."""
        return _to_samples(V / self.scale, self.num).reshape(self.num, -1, 2)

    def evaluate(self, V: np.ndarray, nu: float) -> _Evaluation:
        """The point (V, nu) sampled once: its ``num`` samples X, s and
        w = omega + h(s) there by ``model._onsite``, and iJJ V.  The
        residual, the Jacobian and the nu column all read it."""
        X = self._samples(V)
        s, w = _onsite(self.ring, X)
        return _Evaluation(V, nu, X, s, w, _apply_iJJ(V))

    def modes(self, at: _Evaluation) -> np.ndarray:
        """F_l = (K_l - l nu iJJ) V_l + g_l, l = 0..p, g_l the modes of the samples of
        (omega + h - 2) x, kept oscillators in V coordinates: (p+1, w)."""
        V = at.V
        G = (at.w - 2.0)[..., None] * at.X
        onsite = _to_modes(G.reshape(self.num, -1), self.p) * self.scale
        ls = np.arange(self.p + 1)[:, None]
        if self.k is None:   # x_(j+1) + x_(j-1) at every site j
            sites = V.reshape(self.p + 1, -1, 2)
            coupled = (np.roll(sites, -1, axis=1) + np.roll(sites, 1, axis=1)).reshape(V.shape)
        else:
            coupled = (self.coupling @ V[:, :, None])[:, :, 0]
        return coupled - at.nu * ls * at.iJJV + onsite

    def residual(self, at: _Evaluation) -> np.ndarray:
        """The packed :meth:`modes`, the residual that Newton solves."""
        return self.pack(self.modes(at))

    def row(self, t: np.ndarray) -> np.ndarray:
        """Packed row r with r . dz = Re <dV_0, t_0> + 2 Re sum_{l>0} <dV_l, t_l>,
        the L2 pairing of the orbits whose coordinates are dV and t."""
        return self.pack(np.vstack([t[:1], 2.0 * t[1:]]), 0.0)

    def tangents(self, V: np.ndarray) -> list[np.ndarray]:
        """The group tangents at V: the time shift i l V_l and the rotation
        -J2 V_l (the rotation commutes with the symmetry pattern)."""
        rotation = -(V.reshape(self.p + 1, -1, 2) @ J2.T).reshape(V.shape)
        return [1j * np.arange(self.p + 1)[:, None] * V, rotation]

    def amplitude(self, V: np.ndarray) -> float:
        """l2 norm of the oscillating modes, as :attr:`FourierOrbit.amplitude`."""
        return float(np.sqrt(2.0 * (np.abs(V[1:]) ** 2).sum()))

    def grown(self, *zs: np.ndarray) -> tuple["_FourierSpace", list[np.ndarray]]:
        """The space with twice the modes, and ``zs`` padded with zero modes."""
        space = type(self)(self.ring, 2 * self.p, self.k)
        pad = np.zeros((self.p, self.width), dtype=complex)
        return space, [space.pack(np.vstack([V, pad]), nu) for V, nu in map(self.unpack, zs)]

    def _site_blocks(self, at: _Evaluation) -> np.ndarray:
        """The Jacobian of :meth:`residual` at ``at`` on the site diagonal, one real
        (parts, 2, parts, 2) block per kept oscillator: (sites, parts, 2,
        parts, 2), rows and columns in the packed order of the real parts.

        Closed form of the sampled linearization: with S_m the Fourier modes
        of the on-site Hessian blocks along the orbit, mode block (l, l') is
        S_(l-l'); the conjugate partner dV_-l' = conj(dV_l') adds S_(l+l'),
        and the diagonal mode block adds K_l - l nu iJJ (the full space's
        K_l has zero site-diagonal blocks).  This is the operator of
        :func:`linearized_residual`, not an approximation.  The blocks are
        real, so S_-m = conj(S_m): modes -2p..2p do not alias, since the
        space samples at ``num`` >= 4p + 1 by construction.  S stays
        compact, (4p+1, sites, 2, 2), and two index arrays gather every mode
        pair from it; the real rows of every mode and the imaginary rows of
        modes l >= 1 make the real parts.
        """
        p, sites, nu = self.p, self.width // 2, at.nu
        parts = 2 * p + 1
        # the on-site Hessian blocks (omega + h - 2) I + 2 mu^2 h' x x^T, h' only here
        hp = np.asarray(self.ring.potential.h_prime(at.s))
        H = _onsite_blocks(at.X, at.w - 2.0, 2.0 * self.ring.mu ** 2 * hp)
        # mode m = -2p..2p at row m + 2p; adding 0.0 stores a zero as +0.0, never -0.0
        S = _to_modes(H, 2 * p)
        S = np.concatenate([S[:0:-1].conj(), S]) + 0.0
        ls = np.arange(p + 1)
        # row mode l, column mode l': dV_l' = a + i b enters as
        # plus (a + i b) + minus (a - i b), l' > 0
        plus, minus = S[2 * p + ls[:, None] - ls], S[2 * p + ls[:, None] + ls[1:]]
        plus[ls, ls] += self._onsite_coupling - (ls * nu)[:, None, None, None] * blocks.IJ
        C = np.empty((p + 1, parts, sites, 2, 2), dtype=complex)  # row mode, column part
        C[:, 0] = plus[:, 0]
        C[:, 1::2] = plus[:, 1:] + minus
        C[:, 2::2] = 1j * (plus[:, 1:] - minus)
        C = C.transpose(2, 0, 3, 1, 4)    # site, row mode, a, column part, b
        R = np.empty((sites, parts, 2, parts, 2))
        R[:, 0] = C[:, 0].real   # mode 0 of a real signal is real
        R[:, 1::2] = C[:, 1:].real
        R[:, 2::2] = C[:, 1:].imag
        return R

    def _nu_column(self, at: _Evaluation) -> np.ndarray:
        """Packed derivative of :meth:`residual` in nu, -l iJJ V_l."""
        return self.pack(-np.arange(self.p + 1)[:, None] * at.iJJV)

    def jacobian(self, at: _Evaluation, border: np.ndarray) -> np.ndarray:
        """Packed Jacobian of the Z~_n(k) space's :meth:`residual` at ``at``,
        dense, with ``border`` rows below: the ``fixed`` rows and columns of
        :meth:`_site_blocks`, and the nu column.  Fix(K) has no unfolding
        columns.

        The columns are [coordinates | nu] and the array is in Fortran
        order, so dropping the nu column leaves a contiguous matrix that
        LAPACK factors in place.  The full space writes its Jacobian in band
        storage instead (:meth:`band`).
        """
        J = self._site_blocks(at)[0].reshape(self.width * (2 * self.p + 1), -1)
        rows = self.dim - 1
        A = np.zeros((rows + len(border), self.dim), order="F")
        A[rows:] = border
        A[:rows, -1] = self._nu_column(at)
        A[:rows, :-1] = J[self.fixed][:, self.fixed]
        return A

    @cached_property
    def band_layout(self) -> "_BandLayout":
        """Where the full space's Jacobian goes in LAPACK band storage,
        worked out once per space (and only when a Jacobian is factored).

        The band index of an unknown is its packed index (:attr:`_packed_at`),
        site-major in :func:`_ring_order`: a site's two neighbours are at
        most two sites away, so with b = 2(2p + 1) unknowns per site
        kl = ku = 2b.
        """
        n, parts = self.n, 2 * self.p + 1
        sites, kl = np.arange(n), 4 * parts
        ring, position = _ring_order(n)
        # band index of unknown (site, part, a), (sites, parts, 2)
        at = (2 * parts * position)[:, None, None] + 2 * np.arange(parts)[:, None] + np.arange(2)
        blocks_at = _band_at(kl, at[:, :, :, None, None], at[:, None, None]).ravel()
        ring_at = _band_at(kl, at, at[np.stack([(sites + 1) % n, sites - 1])]).ravel()
        return _BandLayout(kl, ring, blocks_at, ring_at)

    def band(self, blocks: np.ndarray) -> np.ndarray:
        """The full space's packed Jacobian of :meth:`residual` without the
        nu column, with the site blocks ``blocks`` of :meth:`_site_blocks`,
        in the LAPACK band storage of :attr:`band_layout`, whose order is the
        packed one: a zero (3 kl + 1, N) array in Fortran order, the kl rows
        that ``dgbtrf`` fills in first, then the site blocks and the identity
        between each site and its neighbours j +- 1 (the ring adjacency on
        the diagonal mode blocks)."""
        kl, _, blocks_at, ring_at = self.band_layout
        flat = np.zeros((3 * kl + 1) * (self.dim - 1))
        flat[blocks_at] = blocks.ravel()
        flat[ring_at] = 1.0
        return flat.reshape(3 * kl + 1, -1, order="F")

    def factor(self, at: _Evaluation, border: np.ndarray,
               unfold: list[np.ndarray], free_nu: bool):
        """LU factors of the square bordered Jacobian [J t c; B 0 d] at the
        evaluated point ``at``: the rows of the residual and the ``border``
        rows, the columns [unfold | coordinates | nu], the nu column c and the
        border's last column d only with ``free_nu``.  The full space factors
        its :meth:`band` with the border and its live tangents ``unfold``
        eliminated around it (:class:`_BorderedBandLU`, which estimates its
        condition); Fix(K), with no ``unfold``, its dense :meth:`jacobian`.

        Raises FloatingPointError when the Jacobian is not finite.
        """
        if self.k is not None:
            A = self.jacobian(at, border)
            return _DenseLU(A if free_nu else A[:, :-1])
        columns = unfold + ([self._nu_column(at)] if free_nu else [])
        E = np.reshape(columns, (len(columns), self.dim - 1)).T
        D = np.zeros((len(border), len(columns)))
        if free_nu:
            D[:, -1] = border[:, -1]
        blocks = self._site_blocks(at)
        magnitudes = np.abs(blocks)
        # the 1-norms of J's columns in the band order, each with two neighbour ones
        norms = magnitudes.sum(axis=(1, 2))[self.band_layout.ring].ravel() + 2.0
        return _BorderedBandLU(self.band_layout.kl, self.band(blocks), norms,
                               max(magnitudes.max(), 1.0), E, border[:, :-1], D, len(unfold))


class _Evaluation(NamedTuple):
    """One point of a :class:`_FourierSpace`, sampled once
    (:meth:`_FourierSpace.evaluate`)."""
    V: np.ndarray       # the coordinates (p+1, w)
    nu: float
    X: np.ndarray       # their num time samples (num, w/2, 2)
    s: np.ndarray       # mu^2 |x|^2 at the samples
    w: np.ndarray       # omega + h(s)
    iJJV: np.ndarray    # iJJ V_l, every mode


class _BandLayout(NamedTuple):
    kl: int                 # sub- and superdiagonals of the band, kl = ku
    ring: np.ndarray        # the site at each band position
    blocks_at: np.ndarray   # storage index of each entry of the site blocks
    ring_at: np.ndarray     # storage index of each neighbour identity entry


class _DenseLU:
    """LU factors of Fix(K)'s dense square Jacobian, factored in place by
    ``dgetrf``; Fix(K) is not guarded, so it has no condition estimate."""

    def __init__(self, A: np.ndarray):
        from scipy.linalg import lapack
        if not np.isfinite(A).all():
            raise FloatingPointError("non-finite Jacobian")
        self.lu, self.piv, _ = lapack.dgetrf(A, overwrite_a=True)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        from scipy.linalg import lapack
        return lapack.dgetrs(self.lu, self.piv, rhs)[0]


class _BorderedBandLU:
    """LU factors of the full space's bordered Jacobian M = [J E; B D]: J
    the core in band storage, E the unfolding columns and the nu column, B
    and D the s border rows on the coordinates and on E's unknowns.

    J is singular at every solution, its kernel the group tangents, and near
    a bifurcation a third singular value shrinks with the amplitude, so
    eliminating the border around J alone is unstable.  Each border row
    deflates one direction instead: Jh = J + sigma P P^T, sigma = max|J| and
    P the unit columns at the pivots of a column-pivoted QR of B, where B is
    far from orthogonal to the directions it pins down.  With w = P^T x,
    M [x; y] = [f; g] reads Jh x - sigma P w + E y = f, B x + D y = g and
    P^T x = w: one band solve with Jh, and a dense Schur complement S of
    order 2s <= 6 in u = (w, y) (block elimination, Govaerts & Pryce, IMA J.
    Numer. Anal. 13, 1993).  M^T is solved with Jh^T and S^T.  The
    condition estimate is Higham's estimate of the 1-norm of M^-1 from these
    solves, the iteration that ``dgecon`` runs on a dense LU.

    The rows are [residual | border] and the unknowns [unfold | coordinates
    | nu], the coordinates in the packed order, which is the band order.
    """

    def __init__(self, kl: int, ab: np.ndarray, norms: np.ndarray, sigma: float,
                 E: np.ndarray, B: np.ndarray, D: np.ndarray, m: int):
        """``ab`` holds J in band storage, kl = ku = ``kl``, ``norms`` its
        column 1-norms and ``sigma`` its largest |entry|; J is factored in ``ab``."""
        from scipy.linalg import lapack
        self.kl, self.m = kl, m
        # the 1-norm of M, nan or inf with any non-finite entry
        self.anorm = np.maximum((norms + np.abs(B).sum(axis=0)).max(),
                                np.abs(np.vstack([E, D])).sum(axis=0).max(initial=0.0))
        if not np.isfinite(self.anorm):
            raise FloatingPointError("non-finite Jacobian")
        self.E, self.B, self.sigma = E, B, sigma
        s = self.s = len(D)
        self.pivots = lapack.dgeqp3(self.B)[1][:s] - 1 if s else np.zeros(0, dtype=int)
        ab[2 * self.kl, self.pivots] += sigma
        self.lu, self.piv, info = lapack.dgbtrf(ab, self.kl, self.kl, overwrite_ab=True)
        # x = Jh^-1 f + Z u with Z = Jh^-1 [sigma P, -E], and S u = [g - B x; -P^T x]
        # for S = [B; P^T] Z + [0 D; -I 0]; a zero pivot of the band leaves Z non-finite
        rhs = np.zeros((len(E), 2 * s), order="F")
        rhs[self.pivots, np.arange(s)] = self.sigma
        rhs[:, s:] = -self.E
        with np.errstate(all="ignore"):
            self.Z = self._band_solve(rhs, 0)
            S = np.vstack([self.B @ self.Z, self.Z[self.pivots]])
        S[:s, s:] += D
        S[s:, :s] -= np.eye(s)
        self.schur = lapack.dgetrf(S) if s else (S, np.zeros(0, dtype=np.int32), 0)
        self.singular = info > 0 or self.schur[2] > 0
        self.Zt = None   # Jh^-T [B^T, P], for solves with M^T

    def _band_solve(self, rhs: np.ndarray, trans: int) -> np.ndarray:
        from scipy.linalg import lapack
        return lapack.dgbtrs(self.lu, self.kl, self.kl, rhs, self.piv, trans=trans)[0]

    def _schur_solve(self, u: np.ndarray, trans: int) -> np.ndarray:
        from scipy.linalg import lapack
        return lapack.dgetrs(*self.schur[:2], u, trans=trans)[0] if self.s else u

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """M^-1 rhs: rhs in the rows' layout, the result in the unknowns'."""
        N, m = len(self.E), self.m
        x = self._band_solve(rhs[:N], 0)
        u = self._schur_solve(np.concatenate([rhs[N:] - self.B @ x, -x[self.pivots]]), 0)
        y = u[self.s:]
        return np.concatenate([y[:m], x + self.Z @ u, y[m:]])

    def _solve_transposed(self, rhs: np.ndarray) -> np.ndarray:
        """M^-T rhs: rhs in the unknowns' layout, the result in the rows'.
        With x = Jh^-T f - Zt v, Zt = Jh^-T [B^T, P], the border rows' part of
        v = (y, v') solves S^T v = [sigma P^T x_f; g - E^T x_f]."""
        N, m, s = len(self.E), self.m, self.s
        if self.Zt is None:
            rhs_t = np.zeros((N, 2 * s), order="F")
            rhs_t[:, :s] = self.B.T
            rhs_t[self.pivots, s + np.arange(s)] = 1.0
            self.Zt = self._band_solve(rhs_t, 1)
        x = self._band_solve(rhs[m:m + N], 1)
        g = np.concatenate([rhs[:m], rhs[m + N:]])
        v = self._schur_solve(np.concatenate([self.sigma * x[self.pivots], g - self.E.T @ x]), 1)
        return np.concatenate([x - self.Zt @ v, v[:s]])

    def rcond(self) -> float:
        """1 / (||M||_1 est ||M^-1||_1), 0 when the band or the Schur
        complement has a zero pivot or the estimate is not finite."""
        if self.singular:
            return 0.0
        with np.errstate(all="ignore"):
            est = _inverse_norm_estimate(self.solve, self._solve_transposed,
                                         len(self.E) + self.s)
        return 1.0 / est / self.anorm if 0.0 < est < math.inf else 0.0


def _inverse_norm_estimate(solve, solve_transposed, size: int) -> float:
    """Higham's estimate of ||M^-1||_1 from solves with M and M^T, the
    iteration of LAPACK's ``dlacn2`` that ``dgecon`` runs (N. J. Higham, ACM
    TOMS 14, 1988)."""
    def sign(x):
        return np.where(x >= 0.0, 1.0, -1.0)
    x = solve(np.full(size, 1.0 / size))
    est, xi = np.abs(x).sum(), sign(x)
    j = int(np.argmax(np.abs(solve_transposed(xi))))
    for _ in range(4):   # iterations 2..5
        x = solve(np.eye(1, size, j)[0])
        old, est = est, np.abs(x).sum()
        if np.array_equal(sign(x), xi) or est <= old:
            break
        xi = sign(x)
        y = solve_transposed(xi)
        last, j = j, int(np.argmax(np.abs(y)))
        if y[last] == abs(y[j]):
            break
    alternating = (-1.0) ** np.arange(size) * (1.0 + np.arange(size) / (size - 1))
    return max(est, 2.0 * np.abs(solve(alternating)).sum() / (3.0 * size))


def _newton(space, z, constraints, ctol, max_iter, *, free_nu=True):
    """Newton iteration on [residual; constraints] = 0 in the packed
    coordinates of ``space``, whose ring and samples define the residual, to
    a residual norm of 1e-10 and constraint values of ``ctol``.

    Each iteration evaluates its iterate once (:meth:`_FourierSpace.evaluate`)
    and passes that evaluation to the residual and the factorization.
    ``constraints(z)`` gives the caller's border rows (amplitude or
    arclength, or none) and their values at z; only this loop makes gauge
    rows, and only in the full space (``space.k is None``): there each group
    tangent at the iterate that is not zero when packed (the time shift of a
    constant orbit is) adds its gauge row (value 0) to the border B and its
    unfolding column to t, each iteration solves the square system
    [J t; B 0] [dz; lambda] = -[F; c], and the condition estimate of its
    factorization is tested before convergence, so a singular system raises
    even at a solution.  In Fix(K) both tangents vanish: none is built, the
    system is [J; B], nothing is estimated and a converged iterate is not
    factored.  Each iteration factors the system once, as the space does it
    (:meth:`_FourierSpace.factor`).  Without ``free_nu`` the frequency
    column is dropped.  A non-finite residual, constraint value or Jacobian
    raises :class:`NoConvergence`.  Returns the solution and the iteration
    count.
    """
    cols = slice(None) if free_nu else slice(-1)
    full = space.k is None
    for iteration in range(max_iter + 1):
        at = space.evaluate(*space.unpack(z))
        res = space.residual(at)
        rows, values = constraints(z)
        if not (np.isfinite(res).all() and np.isfinite(values).all()):
            raise NoConvergence(f"non-finite residual at Newton iteration {iteration}")
        done = np.linalg.norm(res) <= _NEWTON_TOL and np.all(np.abs(values) <= ctol)
        if done and not full:
            return z, iteration
        # a tangent that packs to zero drops with its gauge row; every border row and
        # unfolding column has unit length, so rcond does not scale with the amplitude
        live = space.tangents(at.V) if full else []
        tangents = [(t, packed) for t in live if (packed := space.pack(t)).any()]
        rows = np.vstack([space.row(t) for t, _ in tangents] + [rows])
        values = np.concatenate([np.zeros(len(tangents)), values])
        size = np.linalg.norm(rows, axis=1)
        size[size == 0] = 1.0
        rows, values = rows / size[:, None], values / size
        unfold = [packed / np.linalg.norm(packed) for _, packed in tangents]
        try:
            lu = space.factor(at, rows, unfold, free_nu)
        except FloatingPointError:
            raise NoConvergence(f"non-finite Jacobian at Newton iteration {iteration}") from None
        if full and (rcond := lu.rcond()) < _RCOND_MIN:
            raise SingularJacobian(
                f"gauged Jacobian is singular (condition estimate rcond {rcond:.2e}); "
                f"expected exactly at a bifurcation point")
        if done:
            return z, iteration
        step = lu.solve(-np.concatenate([res, values]))
        del lu   # the next Jacobian is built without this one alive
        z = z.copy()
        z[cols] += step[len(unfold):]
    raise NoConvergence(f"no convergence after {max_iter} Newton iterations; "
                        f"residual {np.linalg.norm(res):.3e}")


def _orbit_constraints(space, z, amplitude):
    """The amplitude row at z and its value, or no row without ``amplitude``."""
    if amplitude is None:
        return np.zeros((0, space.dim)), np.zeros(0)
    V, _ = space.unpack(z)
    amp = space.amplitude(V)
    grad = np.zeros_like(V)
    if amp > 0:
        grad[1:] = V[1:] / amp
    return space.row(grad)[None], np.array([amp - amplitude])


# ---------------------------------------------------------------------------
# gauged Newton solver in the full coefficient space


def newton_orbit(ring: RingSystem, initial: FourierOrbit, *,
                 fix_nu: bool = True, amplitude: float | None = None,
                 adapt_p: bool = True) -> FourierOrbit:
    """Solve the truncated periodic-orbit system F = 0 by gauged Newton.

    The unknowns are the modes l = 0..p of the orbit (real and imaginary
    parts) and, unless ``fix_nu``, the frequency.  Two scalar gauge
    conditions remove the time-translation and rotation degeneracies: every
    update is orthogonal (in the L2 pairing) to the group tangents dx/dt and
    -JJ x at the current iterate.  With ``fix_nu=True`` the frequency stays
    at ``initial.nu``; passing ``amplitude`` instead frees nu and pins the
    oscillating-mode amplitude, which selects a nontrivial orbit near a
    bifurcation.  Each iteration builds the Jacobian in closed form from the
    Fourier modes of the sampled Hessian (the same operator as
    :func:`linearized_residual`), adds one unfolding multiplier per nonzero
    group tangent to make the gauged system square, and solves it by one
    band LU: ordered site by site as 0, n-1, 1, n-2, ... around the ring,
    the Jacobian has kl = ku = 4(2p+1) at every n, and the gauge and
    amplitude rows, the unfolding columns and the nu column are eliminated
    around it, so an iteration costs O(n p^3) time and O(n p^2) memory.  Its
    condition estimate (Higham's, of the whole bordered system) is tested
    before convergence.  The Fourier order doubles while the tail exceeds
    1e-12.

    Raises
    ------
    ValueError
        When ``amplitude`` and ``fix_nu`` disagree, or the orbit and the ring
        have different numbers of oscillators.
    SingularJacobian
        When the condition estimate of the gauged Jacobian is below 1e-10,
        as happens exactly at a critical frequency of the trivial solution.
    NoConvergence
        After 50 iterations above 1e-10, on a non-finite residual or
        Jacobian, or when the Fourier tail still exceeds 1e-12 at p = 256.
    """
    if amplitude is not None and fix_nu:
        raise ValueError("an amplitude constraint requires a free frequency")
    if amplitude is None and not fix_nu:
        raise ValueError("a free frequency requires an amplitude constraint")
    _check_sizes(ring, initial)
    space = _FourierSpace(ring, initial.p)
    z = space.pack(initial.coeffs[initial.p:], float(initial.nu))
    total_iters = 0
    while True:
        z, iters = _newton(space, z, lambda z: _orbit_constraints(space, z, amplitude),
                           _NEWTON_TOL, _MAX_ITER, free_nu=not fix_nu)
        total_iters += iters
        coeffs = space.expand(space.unpack(z)[0])
        tail = 0.0 if space.p == 0 else np.abs(coeffs[[0, -1]]).max()
        if not adapt_p or tail <= _TAIL_TOL:
            break
        if 2 * space.p > _P_MAX:
            raise NoConvergence(
                f"Fourier tail {tail:.2e} still above {_TAIL_TOL} at p = {space.p}")
        space, (z,) = space.grown(z)
    orbit = FourierOrbit(nu=float(z[-1]), coeffs=coeffs, newton_iterations=total_iters)
    orbit.residual_norm = orbit_residual_norm(residual(ring, orbit))
    return orbit


# ---------------------------------------------------------------------------
# continuation in the isotropy subspace of mode k


@dataclass(frozen=True)
class BranchPoint:
    orbit: FourierOrbit
    amplitude: float
    nu: float


@dataclass
class ContinuationBranch:
    """The accepted points of a branch and how it ended: ``reason`` is set
    exactly when the branch failed (every ``termination`` of
    :func:`continue_branch` but "steps" and "amplitude-bound")."""

    points: list[BranchPoint]
    termination: str = ""
    reason: str = ""


def continue_branch(ring: RingSystem, bif, steps: int, ds: float, *,
                    p: int = 8, p_max: int = _P_MAX) -> ContinuationBranch:
    """Pseudo-arclength continuation of the periodic branch born at ``bif``.

    The branch runs in Fix(K) of the Z~_n(k) fixed-point subspace, on
    oscillator n alone: per mode l = 0..p a real x_l and an imaginary y_l,
    2p + 1 reals with nu.  The first predictor leaves the trivial solution
    along the kernel vector of the singular block m_k(nu), turned so that
    its first entry is real: m_k(nu) has a real diagonal and an imaginary
    off-diagonal, so its second entry is imaginary, in Fix(K).  Later
    predictors follow secant tangents.  Both group tangents vanish in Fix(K),
    so every corrector is the square Newton loop of :func:`newton_orbit`
    without gauge rows, unfolding multipliers or the singularity guard, with
    the arclength row as its one border row.  The Fourier order doubles
    while the tail exceeds 1e-12, and every accepted point is checked against
    the full-space residual.  The branch ends, with its ``termination`` and,
    for every end but the first two, a ``reason``:

    - ``steps`` points are accepted ("steps");
    - the amplitude of a point exceeds 10 ("amplitude-bound");
    - a point has nu <= 0 ("frequency-zero"; the reason gives nu and the
      amplitude);
    - the corrector fails again after five consecutive step halvings, or
      the Fourier tail still exceeds 1e-12 when doubling p would pass
      ``p_max`` ("step-failure" once a point is accepted, "solver-error"
      before; the reason is the corrector's failure or the tail);
    - the full-space residual of a corrected point exceeds 1e-9 or is nan
      ("solver-error"; the points accepted before it are kept).

    Raises
    ------
    ValueError
        When ``steps`` < 1, ``ds`` is not a finite number > 0, ``p`` < 1 or
        ``p_max`` < ``p``, before any numerics; every numerical end is a
        termination.
    """
    if steps < 1 or not 0 < ds < math.inf:
        raise ValueError(f"need steps >= 1 and a finite ds > 0, got steps = {steps}, ds = {ds}")
    if p < 1:
        raise ValueError(f"the starting order p must be >= 1, got p = {p}")
    if p_max < p:
        raise ValueError(f"p_max must be >= the starting order p: need p_max >= {p}, "
                         f"got p_max = {p_max}")
    n, k = ring.n, bif.k
    space = _FourierSpace(ring, p, k)
    V0 = np.zeros((p + 1, 2), dtype=complex)
    V0[0] = np.sqrt(n) * np.array([1.0, 0.0])
    z_prev = space.pack(V0, bif.nu)
    dV = np.zeros((p + 1, 2), dtype=complex)
    w = blocks.kernel_vector(ring, k, bif.nu)
    dV[1] = w * np.exp(-1j * np.angle(w[0]))   # x_1 real, so y_1 imaginary: in Fix(K)
    tangent = space.pack(dV, 0.0)
    tangent /= np.linalg.norm(tangent)

    points = []

    def failed(reason):
        return ContinuationBranch(points, "step-failure" if points else "solver-error", reason)

    ds_target, halvings = ds, 0
    while len(points) < steps:
        border = tangent[None]

        def arclength(z):
            return border, border @ (z - z_prev) - ds
        try:
            z_new, _ = _newton(space, z_prev + ds * tangent, arclength, 10 * _NEWTON_TOL, 24)
        except NoConvergence as exc:
            halvings += 1
            if halvings > 5:
                return failed(f"corrector failed after 5 step halvings: {exc}")
            ds *= 0.5
            continue
        halvings = 0
        # spectral-tail control: refine p and redo the step if needed
        V, nu = space.unpack(z_new)
        coeffs = space.expand(V)
        tail = np.abs(coeffs[[0, -1]]).max()
        if tail > _TAIL_TOL:
            if 2 * space.p > p_max:
                return failed(f"Fourier tail {tail:.2e} still above {_TAIL_TOL} "
                              f"at p = {space.p} (p_max = {p_max})")
            space, (z_prev, tangent) = space.grown(z_prev, tangent)
            continue
        orbit = FourierOrbit(nu=nu, coeffs=coeffs)
        orbit.residual_norm = orbit_residual_norm(residual(ring, orbit))
        if not orbit.residual_norm <= 10 * _NEWTON_TOL:   # the certificate of the point
            return ContinuationBranch(points, "solver-error",
                                      f"full-space residual {orbit.residual_norm:.2e} "
                                      "leaves the symmetry subspace")
        amplitude = space.amplitude(V)
        points.append(BranchPoint(orbit=orbit, amplitude=amplitude, nu=nu))
        if nu <= 0:
            return ContinuationBranch(points, "frequency-zero",
                                      f"nu = {nu:.3g} <= 0 at amplitude {amplitude:.3g}: the "
                                      "frequency crossed zero, where the period is unbounded")
        if amplitude > _AMPLITUDE_MAX:
            return ContinuationBranch(points, "amplitude-bound")
        new_tangent = z_new - z_prev
        norm = np.linalg.norm(new_tangent)
        if norm > 0:
            tangent = new_tangent / norm
        z_prev = z_new
        ds = min(ds * 1.3, ds_target)
    return ContinuationBranch(points, "steps")


def extrapolate_nu_to_zero(branch: ContinuationBranch) -> float:
    """Frequency of the branch extrapolated to zero amplitude.

    Fits nu = c0 + c2 a^2 (+ c4 a^4 with five points or more) through the
    12 smallest-amplitude points; near a bifurcation the family is an even
    function of the amplitude, so c0 estimates the critical frequency.  The
    fit has no more coefficients than points: one point gives its own nu.
    """
    if not branch.points:
        raise ValueError("empty branch")
    pts = sorted(branch.points, key=lambda q: q.amplitude)[:_EXTRAPOLATION_POINTS]
    a = np.array([q.amplitude for q in pts])
    nu = np.array([q.nu for q in pts])
    cols = [np.ones_like(a)]
    if len(pts) >= 2:
        cols.append(a ** 2)
    if len(pts) >= 5:
        cols.append(a ** 4)
    c = np.linalg.lstsq(np.column_stack(cols), nu, rcond=None)[0]
    return float(c[0])


# ---------------------------------------------------------------------------
# conservative time integration


def integrate(ring: RingSystem, x0, T: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Advance du/dt = f(u) = -JJ grad_V(u) with the implicit midpoint rule.

    The scheme is second order and time symmetric; quadratic invariants
    (in particular the total power sum |u_j|^2) are conserved up to the
    inner solve tolerance per step.  It is the one-stage Gauss method, and
    each step solves for its stage increment z = m - u, m the midpoint,
    H(z) = z - (dt/2) f(u + z) = 0 by Newton's method, then sets
    u' = u + 2z (Hairer, Lubich & Wanner, *Geometric Numerical Integration*,
    2nd ed., 2006, sections VIII.5-6).  Steps 0 and 1 start from the Euler
    predictor z = (dt/2) f(u); step k from 2 on from the order-q
    extrapolation of the last q stage increments, q = min(k, 8),
    z_k = sum_(j=1..q) (-1)^(j+1) C(q, j) z_(k-j) (ibid., section VIII.6),
    one product of a row of ``_PREDICTOR_WEIGHTS`` with the last q rows of
    a ring buffer; it evaluates no f, its error is O(dt^(q+1)), and at
    q = 2 it is the quadratic through the last three states.  It
    extrapolates the increments, which are O(dt), and not the states,
    which are O(1): the weights sum to 1, but their magnitudes to
    2^8 - 1 = 255, and on the states their rounding, which grows like
    sqrt(2n) in |H|, misses the tolerance at large n.  A step has converged
    when |H| <= 1e-12 / 2 * sqrt(max(n, 6) / 6): the residual G = 2H of the
    new state u' meets 1e-12 at n <= 6, and above a bound per unknown that
    grows as the rounding of |H| does.  At dt = 0.01 the predictor's
    residual is about 1e-14, so most steps meet the tolerance at their
    predictor and factor once, for their polish; at n = 16384 (saturable,
    mu = 0.4) 7 of 50 steps polish through the factors of an earlier
    iterate (``dgbtrs``), against all 50 under 1e-12 / 2 at every n.

    The Newton matrix I - (dt/2) Df, Df = -JJ D2V, couples each site to its
    two ring neighbours only, so in the site order of :func:`_ring_order`
    it is banded with kl = ku = 5: a neighbour two positions away meets a
    site's other coordinate five band indices away.  It is held in LAPACK
    band storage and factored and solved by ``dgbsv``.  Its constant
    neighbour blocks (dt/2) J2 are written once per call; each factorization
    writes only the two on-site entries of each unknown.  The residual and those
    entries are formed per unknown, from s = mu^2 (x^2 + x_swap^2) with
    x_swap the other coordinate of the unknown's site.  A step factors
    while its residual is above tolerance, and at least once.  The update
    after the residual has met it polishes the step to machine precision,
    keeping quadratic invariants tight; it reuses the step's last factors
    (``dgbtrs``), or the one factorization of a step whose predictor
    already meets the tolerance.

    ``x0`` is validated once, here.  The loop holds the states in the band
    order; they go back to site order once, at the end, in place, so the
    states come back C-contiguous: a sum over each state (the power, say)
    then runs in numpy's pairwise order over contiguous rows, as for any
    state in site order, where a strided result would round it differently.

    Returns (times, states) with states of shape (steps+1, 2n).

    Raises
    ------
    ValueError
        When T or dt is not a finite number > 0, the step count T/dt is not
        finite, or x0 is not a finite state of shape (2n,).
    NoConvergence
        When the inner Newton solve stalls, its residual at a midpoint is
        not finite, or the midpoint matrix is singular (or its solution not
        finite); the message names the failing step and its time t.
    """
    from scipy.linalg import lapack   # scipy loads only when an orbit is integrated
    if not (0 < T < math.inf and 0 < dt < math.inf):
        raise ValueError(f"T and dt must be finite and positive, got T = {T}, dt = {dt}")
    if not T / dt < math.inf:
        raise ValueError(f"the step count T/dt must be finite, got T = {T}, dt = {dt}")
    x0 = _as_state(ring, x0)
    steps = int(round(T / dt))
    n, h, h_prime = ring.n, ring.potential.h, ring.potential.h_prime
    mu2, shift = ring.mu ** 2, ring.omega - 2.0
    tol = 0.5 * _MIDPOINT_TOL * math.sqrt(max(n, 6) / 6)   # per unknown; exact at n <= 6
    order, position = _ring_order(n)   # the site at each band position, and its inverse
    nxt, prv = position[(order + 1) % n], position[order - 1]
    unknowns = 2 * np.arange(n)[:, None] + np.arange(2)   # band indices at each position
    # each unknown's swap (its site's other coordinate) and the swaps of its
    # two ring neighbours
    swap = unknowns[:, ::-1].ravel()
    nxt_swap, prv_swap = unknowns[nxt][:, ::-1].ravel(), unknowns[prv][:, ::-1].ravel()
    # I - (dt/2) Df in band storage (ab is flat's view); a neighbour two
    # positions away meets a site's other coordinate five band indices away
    kl, size = 5, 2 * n
    flat = np.zeros((3 * kl + 1) * size)
    ab = flat.reshape(3 * kl + 1, size, order="F")
    for neighbour in (nxt, prv):
        flat[_band_at(kl, unknowns[:, :, None], unknowns[neighbour][:, None, :])] = 0.5 * dt * J2
    each = np.arange(size)
    diag_at, cross_at = _band_at(kl, each, each), _band_at(kl, each, swap)
    # -J2 v = (v_1, -v_0): f at an unknown is its sign times grad_V at its swap;
    # half carries dt/2 and that sign, half_hp also 2 mu^2 for h'
    half = 0.5 * dt * np.tile(_SWAP_SIGN, n)
    half_hp = 2.0 * mu2 * half

    def half_f(m):
        """(dt/2) f(m) at a state m in band order, with m's swap, s and
        w - 2 = omega + h(s) - 2 per unknown."""
        ms = m[swap]
        s = mu2 * (m * m + ms * ms)
        w2 = shift + np.asarray(h(s))
        return half * (w2 * ms + m[nxt_swap] + m[prv_swap]), ms, s, w2

    def fail(step, what):
        return NoConvergence(f"implicit midpoint {what} at step {step} "
                             f"(t = {step * dt:.3f}); try a smaller dt")

    out = np.empty((steps + 1, size))
    # the stage increments, each written at slot and slot + _PREDICTOR_ORDER,
    # so that past[end - depth:end] holds the last depth of them, oldest first
    past = np.empty((2 * _PREDICTOR_ORDER, size))
    u = out[0] = x0.reshape(n, 2)[order].reshape(-1)
    with np.errstate(all="ignore"):   # non-finite values end in NoConvergence
        for step in range(steps):
            slot = step % _PREDICTOR_ORDER
            if step < 2:
                z = half_f(u)[0]
            else:
                depth = min(step, _PREDICTOR_ORDER)
                end = slot + _PREDICTOR_ORDER
                z = _PREDICTOR_WEIGHTS[depth] @ past[end - depth:end]
            lu = None
            for _ in range(_MIDPOINT_ITER):
                m = u + z
                hf, ms, s, w2 = half_f(m)
                H = z - hf
                norm = math.sqrt(H @ H)   # np.linalg.norm's value, without its overhead
                # an overflowing square of a finite H is no failure
                if not math.isfinite(norm) and not np.isfinite(H).all():
                    raise fail(step, "residual is not finite")
                converged = norm <= tol
                if lu is None or not converged:
                    # the unknown's row of I - (dt/2) Df on its site: D2V's
                    # on-site block is (w - 2) I + 2 mu^2 h' x x^T
                    t = half_hp * np.asarray(h_prime(s)) * ms
                    flat[diag_at] = 1.0 - t * m
                    flat[cross_at] = -(half * w2 + t * ms)
                    lu, piv, delta, info = lapack.dgbsv(kl, kl, ab, H)
                    if info > 0:
                        raise fail(step, "matrix is singular")
                else:
                    delta = lapack.dgbtrs(lu, kl, kl, H, piv)[0]
                z = z - delta
                if converged:
                    break
            else:
                raise fail(step, "solve did not converge")
            if not math.isfinite(delta @ delta) and not np.isfinite(delta).all():
                raise fail(step, "update is not finite")
            past[slot] = past[slot + _PREDICTOR_ORDER] = z
            u = out[step + 1] = u + 2.0 * z
    # back to site order in place, 256 rows at a time, so that the copy the
    # permutation needs stays small next to the trajectory
    site_order = unknowns[position].ravel()
    for rows in range(0, steps + 1, 256):
        out[rows:rows + 256] = out[rows:rows + 256, site_order]
    return dt * np.arange(steps + 1), out
