"""Numerical verification of the predicted bifurcations.

Periodic orbits of ``JJ du/dt = grad_V(u)`` with frequency nu are zeros of
the 2*pi-periodic residual ``F(x) = -nu JJ dx/dt + grad_V(x)``, represented
here by a truncated Fourier series with modes |l| <= p.  The module provides

* a conservative implicit-midpoint time integrator,
* the collocation residual and its exact linearization,
* a gauged Newton solver for periodic orbits,
* pseudo-arclength continuation of branches away from a bifurcation point,
  restricted to the isotropy subspace of the bifurcating mode.

The solver and the continuation share one set of coordinates: the modes
l = 0..p of the oscillators they keep, with one coupling matrix K_l per mode
(all n oscillators in the full space; oscillator n alone in the isotropy
subspace of mode k, at a cost that does not grow with n).  There the
residual and its closed-form Jacobian are written once, and one Newton loop
solves the residual bordered by the caller's constraint rows (gauge
conditions plus an amplitude or arclength condition).  The residual of every
trial orbit is L2-orthogonal to the two group tangents (time shift and
rotation), so the bordered system has two more equations than unknowns;
one unfolding multiplier per tangent, F + lambda_1 t_1 + lambda_2 t_2 = 0,
makes it square and regular (Munoz-Almaraz, Freire, Galan, Doedel &
Vanderbauwhede, Physica D 181, 2003), and lambda = 0 at every solution.
Each Newton iteration is one LU factorization with a condition estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import lapack

from . import blocks
from .model import (_EYE2, J2, RingSystem, _as_state, _gradient_sites,
                    _hessian_apply_sites, _onsite_blocks, _onsite_hessian)
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
    "orthogonality_check",
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
_RCOND_MIN = 1e-10      # condition estimate below which newton_orbit reports a singularity
_AMPLITUDE_MAX = 10.0   # amplitude at which continue_branch stops
_EXTRAPOLATION_POINTS = 12   # smallest-amplitude points that extrapolate_nu_to_zero fits
_SWAP_SIGN = np.array([1.0, -1.0])              # -J2 v = (v_1, -v_0): swap, then this


class NoConvergence(RuntimeError):
    """A Newton iteration failed to reach its tolerance."""


class SingularJacobian(RuntimeError):
    """The gauged Jacobian is rank deficient, as happens exactly at a
    bifurcation point.  ``direction`` holds the near-null direction."""

    def __init__(self, message: str, direction: np.ndarray | None = None):
        super().__init__(message)
        self.direction = direction


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

    def sample(self) -> np.ndarray:
        """Real samples on a uniform grid of max(4p + 1, 128) points of [0, 2*pi)."""
        return _modes_to_samples(self.coeffs, _default_samples(self.p))

    def transformed(self, shift: int, theta: float, phi: float) -> "FourierOrbit":
        """Orbit moved by the group action (cyclic shift, rotation, time shift)."""
        from .symmetry import group_action
        moved = group_action(self.n, shift, theta, phi, self.coeffs, fourier=True)
        return replace(self, coeffs=moved)

    @classmethod
    def from_state(cls, state, nu: float, p: int) -> "FourierOrbit":
        """Constant-in-time orbit at the given state."""
        state = np.asarray(state, dtype=float)
        coeffs = np.zeros((2 * p + 1, state.size), dtype=complex)
        coeffs[p] = state
        return cls(nu=nu, coeffs=coeffs)

    @classmethod
    def from_samples(cls, samples, nu: float, p: int) -> "FourierOrbit":
        samples = np.asarray(samples, dtype=float)
        return cls(nu=nu, coeffs=_samples_to_modes(samples, p))


def _default_samples(p: int) -> int:
    # >= 4p+1 keeps the retained gradient modes alias-free for a cubic h
    return max(4 * p + 1, 128)


def _modes_to_samples(coeffs: np.ndarray, num: int) -> np.ndarray:
    p = (coeffs.shape[0] - 1) // 2
    if num < 2 * p + 1:
        raise ValueError("need at least 2p+1 samples")
    ls = np.arange(-p, p + 1)
    spread = np.zeros((num, coeffs.shape[1]), dtype=complex)
    spread[ls % num] = coeffs
    return (num * np.fft.ifft(spread, axis=0)).real


def _samples_to_modes(samples: np.ndarray, p: int) -> np.ndarray:
    num = samples.shape[0]
    F = np.fft.fft(samples, axis=0) / num
    ls = np.arange(-p, p + 1)
    return F[ls % num]


def _apply_iJJ(coeffs: np.ndarray) -> np.ndarray:
    """(i JJ) applied to every mode vector of shape (..., 2n)."""
    m = coeffs.shape[-1] // 2
    stacked = coeffs.reshape(coeffs.shape[:-1] + (m, 2))
    return 1j * (stacked @ J2.T).reshape(coeffs.shape)


def residual(ring: RingSystem, orbit: FourierOrbit,
             num_samples: int | None = None) -> np.ndarray:
    """Per-mode residual F_l = -l nu (i JJ) x_l + g_l for |l| <= p.

    ``g_l`` are the Fourier modes of grad_V along the orbit, computed by a
    dealiased discrete transform of the time-sampled gradient (at least
    4p+1 samples).
    """
    num = num_samples or _default_samples(orbit.p)
    X = _modes_to_samples(orbit.coeffs, num).reshape(num, ring.n, 2)
    g = _samples_to_modes(_gradient_sites(ring, X).reshape(num, 2 * ring.n), orbit.p)
    ls = np.arange(-orbit.p, orbit.p + 1)
    return -orbit.nu * ls[:, None] * _apply_iJJ(orbit.coeffs) + g


def linearized_residual(ring: RingSystem, orbit: FourierOrbit,
                        dcoeffs: np.ndarray, dnu: float = 0.0,
                        num_samples: int | None = None) -> np.ndarray:
    """Exact directional derivative of the residual along (dcoeffs, dnu).

    ``dcoeffs`` must describe a real perturbation, i.e. satisfy the same
    reality condition as orbit coefficients.
    """
    if np.abs(dcoeffs[::-1].conj() - dcoeffs).max() > 1e-12 * (1 + np.abs(dcoeffs).max()):
        raise ValueError("dcoeffs must satisfy the reality condition")
    num = num_samples or _default_samples(orbit.p)
    p = orbit.p
    X = _modes_to_samples(orbit.coeffs, num).reshape(num, ring.n, 2)
    dX = _modes_to_samples(dcoeffs, num).reshape(num, ring.n, 2)
    dG = _hessian_apply_sites(ring, X, dX).reshape(num, 2 * ring.n)
    dg = _samples_to_modes(dG, p)
    ls = np.arange(-p, p + 1)[:, None]
    return (-orbit.nu * ls * _apply_iJJ(dcoeffs)
            - dnu * ls * _apply_iJJ(orbit.coeffs) + dg)


def orbit_residual_norm(F: np.ndarray) -> float:
    """l2 norm over all retained modes of a residual array."""
    return float(np.sqrt((np.abs(F) ** 2).sum()))


def orthogonality_check(ring: RingSystem, orbit: FourierOrbit) -> tuple[float, float]:
    """Time integrals of <F(x), dx/dt> and <F(x), -JJ x> over one period.

    Both vanish for every 2*pi-periodic trial orbit, solution or not: the
    first because grad_V is a gradient, the second because V is rotation
    invariant.  Sampling is oversized so the quadrature error stays below
    the 1e-10 check level even for non-polynomial potentials.
    """
    num = max(8 * orbit.p + 1, 257)
    F = residual(ring, orbit, num)
    ls = np.arange(-orbit.p, orbit.p + 1)[:, None]
    xdot = 1j * ls * orbit.coeffs
    rot = -_apply_iJJ(orbit.coeffs) / 1j  # -JJ x per mode
    c1 = 2.0 * np.pi * np.sum(F * xdot.conj()).real
    c2 = 2.0 * np.pi * np.sum(F * rot.conj()).real
    return float(c1), float(c2)


# ---------------------------------------------------------------------------
# coordinates on the half spectrum l = 0..p


class _FourierSpace:
    """Real coordinates of truncated orbits: the modes V_l, l = 0..p, of the
    kept oscillators, with one coupling matrix K_l per mode.

    The full space keeps all n oscillators, V_l = x_l (w = 2n), and K_l is
    the ring adjacency, held as the index pairs of neighbouring sites: no
    2n x 2n matrix is built.  The Z~_n(k) fixed-point space keeps oscillator n
    alone, V_l = sqrt(n) x_(n,l) (w = 2): there x_(j,l) = e^(i k_l j zeta)
    R(j zeta) x_(n,l) with k_l = l k mod n, so mode l couples only to itself,
    through K_l = (2 cos zeta - alpha_(k_l)) I + gamma_(k_l) iJ; 4p + 3 real
    unknowns in place of 2n(2p+1) + 1, with the L2 pairing of the whole orbit.
    Points are packed as [V_0, Re V_1, Im V_1, ..., Re V_p, Im V_p, nu];
    residuals the same way without nu.
    """

    def __init__(self, n: int, p: int, k: int | None = None):
        self.n, self.p, self.k = n, p, k
        if k is None:
            self.width, self.scale = 2 * n, 1.0
            # the adjacency has zero blocks on the site diagonal, and the
            # identity between site j and its neighbours j + 1 and j - 1
            self._onsite_coupling = np.zeros((1, 1, 2, 2))
            sites = np.arange(n)
            self._neighbours = (np.tile(sites, 2),
                                np.concatenate([np.roll(sites, -1), np.roll(sites, 1)]))
        else:   # k_l in 1..n
            self.kl = [(l * k - 1) % n + 1 for l in range(p + 1)]
            cs = [blocks.coefficients(n, kl) for kl in self.kl]
            self.coupling = np.array([(2.0 * np.cos(2.0 * np.pi / n) - c.alpha) * np.eye(2)
                                      + c.gamma * blocks.IJ for c in cs])
            self.width, self.scale = 2, np.sqrt(n)
            self._onsite_coupling = self.coupling[:, None]
            self._neighbours = None
            self.maps = np.array([t_k_matrix(n, kl) for kl in self.kl])   # x_l = t_(k_l) V_l

    @property
    def dim(self) -> int:
        return self.width * (2 * self.p + 1) + 1

    def pack(self, V: np.ndarray, *tail: float) -> np.ndarray:
        return np.concatenate([V[0].real, np.stack([V[1:].real, V[1:].imag], 1).ravel(),
                               tail])

    def unpack(self, z: np.ndarray) -> tuple[np.ndarray, float]:
        w = self.width
        rest = z[w:-1].reshape(self.p, 2, w)
        return np.vstack([z[:w], rest[:, 0] + 1j * rest[:, 1]]), float(z[-1])

    def expand(self, V: np.ndarray) -> np.ndarray:
        """Coordinates (p+1, w) -> orbit coefficients (2p+1, 2n): all n
        oscillators, built once per corrected point, never inside Newton."""
        X = V if self.k is None else np.array([T @ v for T, v in zip(self.maps, V)])
        coeffs = np.concatenate([X[:0:-1].conj(), X])
        coeffs[self.p] = coeffs[self.p].real
        return coeffs

    def _samples(self, V: np.ndarray, num: int) -> np.ndarray:
        """Time samples (num, w/2, 2) of the kept oscillators."""
        coeffs = np.concatenate([V[:0:-1].conj(), V]) / self.scale
        return _modes_to_samples(coeffs, num).reshape(num, -1, 2)

    def residual(self, ring: RingSystem, V: np.ndarray, nu: float, num: int) -> np.ndarray:
        """F_l = (K_l - l nu iJJ) V_l + DFT[(omega + h - 2) x]_l over the kept
        oscillators, scaled back to V coordinates."""
        X = self._samples(V, num)
        s = ring.mu ** 2 * (X ** 2).sum(axis=-1)
        G = (ring.omega + ring.potential.h(s) - 2.0)[..., None] * X
        onsite = np.fft.fft(G.reshape(num, -1), axis=0)[:self.p + 1] * (self.scale / num)
        ls = np.arange(self.p + 1)[:, None]
        if self._neighbours is None:
            coupled = (self.coupling @ V[:, :, None])[:, :, 0]
        else:   # x_(j+1) + x_(j-1) at every site j
            near = V.reshape(self.p + 1, -1, 2)[:, self._neighbours[1]]
            coupled = (near[:, :self.n] + near[:, self.n:]).reshape(V.shape)
        return self.pack(coupled - nu * ls * _apply_iJJ(V) + onsite)

    def row(self, t: np.ndarray) -> np.ndarray:
        """Packed row r with r . dz = Re <dV_0, t_0> + 2 Re sum_{l>0} <dV_l, t_l>,
        the L2 pairing of the orbits whose coordinates are dV and t."""
        return self.pack(np.vstack([t[:1], 2.0 * t[1:]]), 0.0)

    def tangents(self, V: np.ndarray) -> list[np.ndarray]:
        """The group tangents at V: the time shift i l V_l and the rotation
        -J2 V_l (the rotation commutes with the symmetry pattern)."""
        rotation = -(V.reshape(self.p + 1, -1, 2) @ J2.T).reshape(V.shape)
        return [1j * np.arange(self.p + 1)[:, None] * V, rotation]

    def gauge_rows(self, V: np.ndarray) -> list[np.ndarray]:
        """L2 rows of the group tangents at V, in the order of :meth:`tangents`."""
        return [self.row(t) for t in self.tangents(V)]

    def amplitude(self, V: np.ndarray) -> float:
        """l2 norm of the oscillating modes, as :attr:`FourierOrbit.amplitude`."""
        return float(np.sqrt(2.0 * (np.abs(V[1:]) ** 2).sum()))

    def grown(self, *zs: np.ndarray) -> tuple["_FourierSpace", list[np.ndarray]]:
        """The space with twice the modes, and ``zs`` padded with zero modes."""
        space = _FourierSpace(self.n, 2 * self.p, self.k)
        pad = np.zeros(space.dim - self.dim)
        return space, [np.concatenate([z[:-1], pad, z[-1:]]) for z in zs]

    def jacobian(self, ring: RingSystem, V: np.ndarray, nu: float, num: int,
                 border: np.ndarray, unfold: list[np.ndarray]) -> np.ndarray:
        """Packed Jacobian of :meth:`residual`, with ``border`` rows below and
        the packed residual vectors ``unfold`` as leading columns.

        The columns are [unfold | coordinates | nu] and the array is in
        Fortran order, so dropping the nu column leaves a contiguous matrix
        that LAPACK factors in place.

        Closed form of the sampled linearization: with S_m the discrete
        Fourier modes of the on-site Hessian blocks along the orbit, one 2x2
        block per kept oscillator, mode block (l, l') is S_(l-l') on the site
        diagonal; the conjugate partner dV_-l' = conj(dV_l') adds S_(l+l'),
        the diagonal mode block adds K_l - l nu iJJ and the nu column is
        -l iJJ V_l.  This is the operator of :func:`linearized_residual`, not
        an approximation.  S stays compact, (4p+1, sites, 2, 2): two index
        arrays gather every mode pair from it, the real rows of every mode
        and the imaginary rows of modes l >= 1 are written through one
        site-diagonal fancy index into a (parts, site, 2, parts, site, 2)
        view of A, and in the full space one more indexed add puts the ring
        adjacency on the diagonal mode blocks.
        """
        p, w = self.p, self.width
        parts, sites = 2 * p + 1, w // 2
        # modes m = -2p..2p (row m + 2p), taken mod num as the sampled transform
        # takes them; adding 0.0 stores a zero mode as +0.0, never -0.0
        S = np.fft.fft(_onsite_hessian(ring, self._samples(V, num)), axis=0)
        S = S[np.arange(-2 * p, 2 * p + 1) % num] / num + 0.0
        ls = np.arange(p + 1)
        # row mode l, column mode l': dV_l' = a + i b enters as
        # plus (a + i b) + minus (a - i b), l' > 0
        plus, minus = S[2 * p + ls[:, None] - ls], S[2 * p + ls[:, None] + ls[1:]]
        plus[ls, ls] += self._onsite_coupling - (ls * nu)[:, None, None, None] * blocks.IJ
        C = np.empty((p + 1, parts, sites, 2, 2), dtype=complex)  # row mode, column part
        C[:, 0] = plus[:, 0]
        C[:, 1::2] = plus[:, 1:] + minus
        C[:, 2::2] = 1j * (plus[:, 1:] - minus)
        rows, m = w * parts, len(unfold)
        A = np.zeros((rows + len(border), m + self.dim), order="F")
        A[rows:, m:] = border
        for j, t in enumerate(unfold):
            A[:rows, j] = t
        A[:rows, -1] = self.pack(-ls[:, None] * _apply_iJJ(V))
        A6 = A[:rows, m:-1].reshape(parts, sites, 2, parts, sites, 2)   # a view of A
        site = np.arange(sites)
        C = C.transpose(2, 0, 3, 1, 4)    # site, row mode, a, column part, b
        A6[0, site, :, :, site, :] = C[:, 0].real   # mode 0 of a real signal is real
        A6[1::2, site, :, :, site, :] = C[:, 1:].real
        A6[2::2, site, :, :, site, :] = C[:, 1:].imag
        if self._neighbours is not None:
            at, nb = self._neighbours
            diag = np.arange(parts)[:, None]
            A6[diag, at, :, diag, nb, :] += _EYE2
        return A


def _newton(ring, space, z, constraints, tol, ctol, max_iter, num, *,
            free_nu=True, guard=False):
    """Newton iteration on [residual; constraints] = 0 in packed coordinates.

    ``constraints(z)`` gives the border rows and their values at z; its first
    two rows are the gauge rows of the time-shift and rotation tangents.
    Each iteration solves the square system [J t; B 0] [dz; lambda] =
    -[F; c], with one unfolding column t per group tangent at the iterate;
    a tangent that is exactly zero (the time shift of a constant orbit)
    drops out with its gauge row.  The system is factored once by LU, and
    with ``guard`` its condition estimate is tested before convergence, so
    a singular system raises even at a solution.  Without ``free_nu`` the
    frequency column is dropped.  A non-finite residual, constraint value or
    Jacobian raises :class:`NoConvergence`.  Returns the solution and the
    iteration count.
    """
    cols = slice(None) if free_nu else slice(-1)
    for iteration in range(max_iter + 1):
        V, nu = space.unpack(z)
        res = space.residual(ring, V, nu, num)
        rows, values = constraints(z)
        if not (np.isfinite(res).all() and np.isfinite(values).all()):
            raise NoConvergence(f"non-finite residual at Newton iteration {iteration}")
        done = np.linalg.norm(res) <= tol and np.abs(values).max() <= ctol
        if done and not guard:
            return z, iteration
        # a zero tangent drops with its gauge row; every border row and every
        # unfolding column has unit length, so that the condition estimate
        # does not scale with the amplitude of the orbit
        tangents = [space.pack(t) for t in space.tangents(V)]
        live = [i for i, t in enumerate(tangents) if t.any()]
        keep = live + list(range(len(tangents), len(rows)))
        size = np.linalg.norm(rows[keep], axis=1)
        size[size == 0] = 1.0
        rows, values = rows[keep] / size[:, None], values[keep] / size
        unfold = [tangents[i] / np.linalg.norm(tangents[i]) for i in live]
        A = space.jacobian(ring, V, nu, num, rows, unfold)[:, cols]
        anorm = lapack.dlange("1", A)   # nan or inf with any non-finite entry
        if not np.isfinite(anorm):
            raise NoConvergence(f"non-finite Jacobian at Newton iteration {iteration}")
        lu, piv, _ = lapack.dgetrf(A, overwrite_a=True)
        del A   # factored in place: lu holds the only reference
        rcond = lapack.dgecon(lu, anorm, norm="1")[0]   # 0 for an exactly singular A
        if guard and rcond < _RCOND_MIN:
            del lu
            A = space.jacobian(ring, V, nu, num, rows, unfold)[:, cols]
            raise SingularJacobian(
                f"gauged Jacobian is singular (condition estimate rcond {rcond:.2e}); "
                f"expected exactly at a bifurcation point",
                direction=np.linalg.svd(A)[2][-1][len(unfold):])
        if done:
            return z, iteration
        step = lapack.dgetrs(lu, piv, -np.concatenate([res, values]))[0]
        del lu   # the next Jacobian is built without this one alive
        z = z.copy()
        z[cols] += step[len(unfold):]
    raise NoConvergence(f"no convergence after {max_iter} Newton iterations; "
                        f"residual {np.linalg.norm(res):.3e}")


def _orbit_constraints(space, z, amplitude):
    """Gauge rows at z with value 0 and, if given, the amplitude row."""
    V, _ = space.unpack(z)
    rows, values = space.gauge_rows(V), [0.0, 0.0]
    if amplitude is not None:
        amp = space.amplitude(V)
        grad = np.zeros_like(V)
        if amp > 0:
            grad[1:] = V[1:] / amp
        rows.append(space.row(grad))
        values.append(amp - amplitude)
    return np.array(rows), np.array(values)


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
    group tangent to make the gauged system square, and solves it by one LU
    factorization; its condition estimate is tested before convergence.
    The Fourier order doubles while the tail exceeds 1e-12.

    Raises
    ------
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
    space = _FourierSpace(initial.n, initial.p)
    z = space.pack(initial.coeffs[initial.p:], float(initial.nu))
    total_iters = 0
    while True:
        num = _default_samples(space.p)
        z, iters = _newton(ring, space, z,
                           lambda z: _orbit_constraints(space, z, amplitude),
                           _NEWTON_TOL, _NEWTON_TOL, _MAX_ITER, num,
                           free_nu=not fix_nu, guard=True)
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
    orbit.residual_norm = orbit_residual_norm(residual(ring, orbit, num))
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
    origin: object                    # the BifurcationPoint this started from
    points: list[BranchPoint]
    termination: str = ""


def continue_branch(ring: RingSystem, bif, steps: int, ds: float, *,
                    p: int = 8, p_max: int = _P_MAX) -> ContinuationBranch:
    """Pseudo-arclength continuation of the periodic branch born at ``bif``.

    The first predictor leaves the trivial solution along the kernel vector
    of the singular block m_k(nu).  Correction and all subsequent steps run
    in the Z~_n(k) fixed-point subspace, with secant tangents: the corrector
    is the square Newton loop of :func:`newton_orbit` on oscillator n alone
    (one complex 2-vector per mode l = 0..p), with the gauge rows at the
    previous point and the arclength row as its border.  The trivial point
    has no time-shift tangent, so the first corrector takes its gauge rows
    at the iterate instead.  The Fourier order doubles
    while the tail exceeds 1e-12, and every accepted point is re-checked
    against the full-space residual.  The branch stops on the step count, on
    five consecutive step halvings, or when the amplitude exceeds 10.

    Raises
    ------
    ValueError
        When ``steps`` < 1, ``ds`` <= 0 or ``p_max`` < ``p``.
    NoConvergence
        When not a single point could be corrected, or when the full-space
        residual of a corrected point exceeds 1e-9 or is nan.
    """
    if steps < 1 or not ds > 0:
        raise ValueError(f"steps must be >= 1 and ds > 0, got steps = {steps}, ds = {ds}")
    if p_max < p:
        raise ValueError(f"p_max must be >= the starting order p = {p}, got {p_max}")
    n, k = ring.n, bif.k
    space = _FourierSpace(n, p, k)
    V0 = np.zeros((p + 1, 2), dtype=complex)
    V0[0] = np.sqrt(n) * np.array([1.0, 0.0])
    z_prev = space.pack(V0, bif.nu)
    dV = np.zeros((p + 1, 2), dtype=complex)
    dV[1] = blocks.kernel_vector(ring, k, bif.nu)
    tangent = space.pack(dV, 0.0)
    tangent /= np.linalg.norm(tangent)

    branch = ContinuationBranch(origin=bif, points=[])
    ds_target = ds
    halvings = 0
    while len(branch.points) < steps:
        num = _default_samples(space.p)
        target = np.array([0.0, 0.0, ds])

        def border_at(z):
            return np.vstack(space.gauge_rows(space.unpack(z)[0]) + [tangent])
        # the trivial point has no time-shift tangent: until a point is
        # accepted, the gauge rows are taken at the iterate
        anchored = border_at(z_prev) if branch.points else None

        def arclength(z):
            border = border_at(z) if anchored is None else anchored
            return border, border @ (z - z_prev) - target
        try:
            z_new, _ = _newton(ring, space, z_prev + ds * tangent, arclength,
                               _NEWTON_TOL, 10 * _NEWTON_TOL, 24, num)
        except NoConvergence:
            halvings += 1
            if halvings > 5:
                if not branch.points:
                    raise
                branch.termination = "step-failure"
                return branch
            ds *= 0.5
            continue
        halvings = 0
        # spectral-tail control: refine p and redo the step if needed
        V, nu = space.unpack(z_new)
        coeffs = space.expand(V)
        tail = np.abs(coeffs[[0, -1]]).max()
        if tail > _TAIL_TOL:
            if 2 * space.p > p_max:
                branch.termination = "step-failure"
                if not branch.points:
                    raise NoConvergence(f"tail {tail:.2e} above {_TAIL_TOL} at p_max")
                return branch
            space, (z_prev, tangent) = space.grown(z_prev, tangent)
            continue
        orbit = FourierOrbit(nu=nu, coeffs=coeffs)
        orbit.residual_norm = orbit_residual_norm(residual(ring, orbit, num))
        if not orbit.residual_norm <= 10 * _NEWTON_TOL:   # the certificate of the point
            raise NoConvergence(f"full-space residual {orbit.residual_norm:.2e} "
                                "leaves the symmetry subspace")
        branch.points.append(BranchPoint(orbit=orbit, amplitude=space.amplitude(V),
                                         nu=nu))
        new_tangent = z_new - z_prev
        norm = np.linalg.norm(new_tangent)
        if norm > 0:
            tangent = new_tangent / norm
        z_prev = z_new
        ds = min(ds * 1.3, ds_target)
        if branch.points[-1].amplitude > _AMPLITUDE_MAX:
            branch.termination = "amplitude-bound"
            return branch
    branch.termination = "steps"
    return branch


def extrapolate_nu_to_zero(branch: ContinuationBranch) -> float:
    """Frequency of the branch extrapolated to zero amplitude.

    Fits nu = c0 + c2 a^2 (+ c4 a^4 with five points or more) through the
    12 smallest-amplitude points; near a bifurcation the family is an even
    function of the amplitude, so c0 estimates the critical frequency.
    """
    if not branch.points:
        raise ValueError("empty branch")
    pts = sorted(branch.points, key=lambda q: q.amplitude)[:_EXTRAPOLATION_POINTS]
    a = np.array([q.amplitude for q in pts])
    nu = np.array([q.nu for q in pts])
    cols = [np.ones_like(a), a ** 2]
    if len(pts) >= 5:
        cols.append(a ** 4)
    c = np.linalg.lstsq(np.column_stack(cols), nu, rcond=None)[0]
    return float(c[0])


# ---------------------------------------------------------------------------
# conservative time integration


def integrate(ring: RingSystem, x0, T: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Advance du/dt = -JJ grad_V(u) with the implicit midpoint rule.

    The scheme is second order and time symmetric; quadratic invariants
    (in particular the total power sum |u_j|^2) are conserved up to the
    inner solve tolerance per step.  Each step starts from an Euler
    predictor and runs full Newton on the midpoint equation; the update
    after the residual reaches 1e-12 polishes the step.

    ``x0`` is validated once, here; the step loop works on site views with
    omega, mu^2 and the neighbour indices hoisted.  The Newton matrix
    I - dt/2 Df, Df = -JJ D2V, keeps its constant neighbour blocks
    (dt/2) J2 and gets new on-site blocks per iteration, built from the same
    h(mu^2 |x_j|^2) as the residual at that midpoint.

    Returns (times, states) with states of shape (steps+1, 2n).

    Raises
    ------
    ValueError
        When T or dt is not positive, or x0 is not a finite state of shape
        (2n,).
    NoConvergence
        When the inner Newton solve stalls, its residual at a midpoint is
        not finite, or the midpoint matrix is singular (or its solution not
        finite); the message names the failing step and its time t.
    """
    if dt <= 0 or T <= 0:
        raise ValueError("T and dt must be positive")
    x0 = _as_state(ring, x0)
    steps = int(round(T / dt))
    n, h, h_prime = ring.n, ring.potential.h, ring.potential.h_prime
    omega, mu2 = ring.omega, ring.mu ** 2
    hp_scale, half = 2.0 * mu2, 0.5 * dt
    sites = np.arange(n)
    nxt, prv = np.roll(sites, -1), np.roll(sites, 1)
    M = np.eye(2 * n)
    M4 = M.reshape(n, 2, n, 2)
    M4[sites, :, nxt, :] = half * J2
    M4[nxt, :, sites, :] = half * J2
    onsite_at = np.arange(M.size).reshape(n, 2, n, 2)[sites, :, sites, :].ravel()
    # dt/2 times the sign of -J2 = swap rows, negate the second
    half_sign = half * _SWAP_SIGN[:, None]

    def rhs(X, w):
        """-JJ grad_V at site views X, given w = omega + h(mu^2 |X|^2)."""
        grad = w[:, None] * X + (X[nxt] - 2.0 * X + X[prv])
        return (grad[:, ::-1] * _SWAP_SIGN).reshape(-1)

    def fail(step, what):
        return NoConvergence(f"implicit midpoint {what} at step {step} "
                             f"(t = {step * dt:.3f}); try a smaller dt")

    out = np.empty((steps + 1, 2 * n))
    out[0] = x0
    u = x0
    with np.errstate(all="ignore"):   # non-finite values end in NoConvergence
        for step in range(steps):
            X = u.reshape(n, 2)
            unew = u + dt * rhs(X, omega + np.asarray(h(mu2 * (X ** 2).sum(axis=-1))))
            for _ in range(_MIDPOINT_ITER):
                mid = 0.5 * (u + unew)
                X = mid.reshape(n, 2)
                s = mu2 * (X ** 2).sum(axis=-1)
                w = omega + np.asarray(h(s))
                G = unew - u - dt * rhs(X, w)
                norm = math.sqrt(G @ G)   # np.linalg.norm's value, without its overhead
                # an overflowing square of a finite G is no failure
                if not math.isfinite(norm) and not np.isfinite(G).all():
                    raise fail(step, "residual is not finite")
                # on-site blocks of D2V, then of -JJ D2V by a row swap and sign
                onsite = _onsite_blocks(X, w - 2.0, hp_scale * np.asarray(h_prime(s)))
                M.put(onsite_at, _EYE2 - onsite[:, ::-1, :] * half_sign)
                _, _, delta, info = lapack.dgesv(M, G)
                if info > 0:
                    raise fail(step, "matrix is singular")
                unew = unew - delta
                # the update after the tolerance is met polishes the step to
                # machine precision, keeping quadratic invariants tight
                if norm <= _MIDPOINT_TOL:
                    break
            else:
                raise fail(step, "solve did not converge")
            if not np.isfinite(delta).all():
                raise fail(step, "update is not finite")
            u = unew
            out[step + 1] = u
    return dt * np.arange(steps + 1), out
