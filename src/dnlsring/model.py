"""Ring of coupled discrete nonlinear Schrodinger oscillators in a rotating frame.

A state of the ring is a flat float array of length ``2*n``: oscillator ``j``
(sites are numbered 1..n) occupies entries ``2*(j-1)`` and ``2*(j-1)+1`` as a
planar pair ``(x, y)``, equivalently the complex value ``x + i*y``.

The dynamics in the rotating frame is the gradient system

    JJ * du/dt = grad_V(u),

where ``JJ`` is the block-diagonal symplectic matrix and

    grad_V(u)_j = omega*u_j + h(mu^2 |u_j|^2) u_j + (u_{j+1} - 2 u_j + u_{j-1})

with periodic indices.  The rotating wave ``a_j = (cos(j*zeta), sin(j*zeta))``,
``zeta = 2*pi/n``, is an equilibrium when ``omega = 4 sin^2(zeta/2) - h(mu^2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "J2",
    "PotentialModel",
    "RingSystem",
    "cubic_potential",
    "saturable_potential",
    "custom_potential",
    "standing_wave",
    "gradient_V",
    "hessian_V",
    "vector_field",
]

# planar realization of multiplication by i
J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
_EYE2 = np.eye(2)
# PotentialModel.validate: grid 0.05..4 of 25 points in s, relative tolerance
_VALIDATE_S_MAX = 4.0
_VALIDATE_NUM = 25
_VALIDATE_TOL = 1e-6


@dataclass(frozen=True)
class PotentialModel:
    """On-site nonlinearity evaluated on the squared modulus s = |q|^2 >= 0.

    ``h`` is the nonlinear response and ``h_prime`` its derivative.  ``G``,
    the antiderivative of ``h`` with ``G(0) = 0``, is optional: no
    computation reads it, and ``validate`` checks it only when it is given.
    All three must accept numpy arrays.
    """

    kind: str
    h: Callable[[np.ndarray], np.ndarray]
    h_prime: Callable[[np.ndarray], np.ndarray]
    G: Callable[[np.ndarray], np.ndarray] | None = None

    def validate(self) -> None:
        """Check h' against finite differences of h, and G' against h when G
        is given, on 25 points of s in [0.05, 4], to a relative 1e-6.

        Raises ValueError when the supplied derivatives are inconsistent,
        that is when the error at some point is a number above the tolerance;
        a point where it is nan (h undefined there, or h' overflowing) is
        skipped.  Intended for user-supplied potentials; cubic and saturable
        pass by construction.
        """
        s = np.linspace(0.05, _VALIDATE_S_MAX, _VALIDATE_NUM)
        step = 1e-6 * np.maximum(1.0, s)
        with np.errstate(all="ignore"):
            hp_fd = (self.h(s + step) - self.h(s - step)) / (2 * step)
            scale = np.maximum(1.0, np.abs(self.h_prime(s)))
            if np.any(np.abs(hp_fd - self.h_prime(s)) / scale > _VALIDATE_TOL):
                raise ValueError("h_prime is inconsistent with finite differences of h")
            if self.G is None:
                return
            g_fd = (self.G(s + step) - self.G(s - step)) / (2 * step)
            scale = np.maximum(1.0, np.abs(self.h(s)))
            if np.any(np.abs(g_fd - self.h(s)) / scale > _VALIDATE_TOL):
                raise ValueError("G is inconsistent with h (G' != h)")


def cubic_potential() -> PotentialModel:
    """Cubic Schrodinger nonlinearity h(s) = s."""
    return PotentialModel(
        kind="cubic",
        h=lambda s: np.asarray(s, dtype=float),
        h_prime=lambda s: np.ones_like(np.asarray(s, dtype=float)),
        G=lambda s: np.asarray(s, dtype=float) ** 2 / 2.0,
    )


def saturable_potential() -> PotentialModel:
    """Saturable nonlinearity h(s) = 1/(1+s)."""
    return PotentialModel(
        kind="saturable",
        h=lambda s: 1.0 / (1.0 + np.asarray(s, dtype=float)),
        h_prime=lambda s: -1.0 / (1.0 + np.asarray(s, dtype=float)) ** 2,
        G=lambda s: np.log1p(np.asarray(s, dtype=float)),
    )


def custom_potential(h, h_prime, G=None) -> PotentialModel:
    """User-supplied nonlinearity.  ``G`` is optional and stays None when
    omitted; ``validate`` checks it against h only when it is given."""
    return PotentialModel(kind="custom", h=h, h_prime=h_prime, G=G)


@dataclass(frozen=True)
class RingSystem:
    """Problem instance: n oscillators of amplitude mu with a given potential.

    ``zeta = 2*pi/n`` is the lattice angle.  The potential is evaluated at mu^2
    once, here: ``omega = 4 sin^2(zeta/2) - h(mu^2)`` (equilibrium condition)
    and ``h_prime_mu2 = h'(mu^2)`` are stored outside ``==``, hash and repr.
    """

    n: int
    mu: float
    potential: PotentialModel = field(default_factory=cubic_potential)
    omega: float = field(init=False, compare=False, repr=False)
    h_prime_mu2: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 3:
            raise ValueError(
                "n must be an integer >= 3 (the lattice is integrable for n=1 and n=2)")
        object.__setattr__(self, "n", int(self.n))
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu!r}")
        try:
            s = float(self.mu) ** 2
        except OverflowError:
            raise ValueError(f"mu = {self.mu!r} is too large: mu^2 overflows") from None
        h, h_prime = self.potential.h(s), self.potential.h_prime(s)
        if not np.isfinite([h, h_prime]).all():
            raise ValueError(f"h or h' is not finite at mu^2 = {s!r}")
        object.__setattr__(self, "omega", 4.0 * np.sin(self.zeta / 2) ** 2 - float(h))
        object.__setattr__(self, "h_prime_mu2", float(h_prime))

    @property
    def zeta(self) -> float:
        return 2.0 * np.pi / self.n


def _as_state(ring: RingSystem, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (2 * ring.n,):
        raise ValueError(f"state must have shape ({2 * ring.n},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("state contains non-finite entries")
    return x


def standing_wave(ring: RingSystem) -> tuple[np.ndarray, float]:
    """Rotating-wave equilibrium of the ring.

    Returns
    -------
    a_bar : ndarray, shape (2n,)
        Components ``a_j = (cos(j*zeta), sin(j*zeta))`` for j = 1..n.
    omega : float
        The rotating-frame frequency ``4 sin^2(zeta/2) - h(mu^2)``.
    """
    j = np.arange(1, ring.n + 1)
    a = np.empty(2 * ring.n)
    a[0::2] = np.cos(j * ring.zeta)
    a[1::2] = np.sin(j * ring.zeta)
    return a, ring.omega


def _site_view(x: np.ndarray) -> np.ndarray:
    """Reshape (..., 2n) into (..., n, 2)."""
    return x.reshape(x.shape[:-1] + (-1, 2))


def _onsite(ring: RingSystem, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = mu^2 |x|^2 and w = omega + h(s) at site views X (..., n, 2), the sites'
    one h call; x_1 x_1 + x_2 x_2 has the bits of (X ** 2).sum(-1) and is faster."""
    s = ring.mu ** 2 * (X[..., 0] * X[..., 0] + X[..., 1] * X[..., 1])
    return s, ring.omega + np.asarray(ring.potential.h(s))


def _gradient_sites(ring: RingSystem, X: np.ndarray) -> np.ndarray:
    """Gradient for stacked site views X of shape (..., n, 2)."""
    lap = np.roll(X, -1, axis=-2) - 2.0 * X + np.roll(X, 1, axis=-2)
    return _onsite(ring, X)[1][..., None] * X + lap


def gradient_V(ring: RingSystem, x) -> np.ndarray:
    """Gradient of the invariant potential
    V(x) = sum_j [ H(x_j) - |x_{j+1} - x_j|^2 / 2 ], with
    H(u) = (omega/2)|u|^2 + G(mu^2 |u|^2) / (2 mu^2) and indices mod n;
    component j is ``omega x_j + h(mu^2 |x_j|^2) x_j + (x_{j+1} - 2 x_j + x_{j-1})``.
    """
    x = _as_state(ring, x)
    return _gradient_sites(ring, _site_view(x)).reshape(x.shape)


def _hessian_apply_sites(ring: RingSystem, X: np.ndarray, dX: np.ndarray) -> np.ndarray:
    """Action of the Hessian at X on dX, both shaped (..., n, 2)."""
    s, w = _onsite(ring, X)
    hp = ring.potential.h_prime(s)
    dot = X[..., 0] * dX[..., 0] + X[..., 1] * dX[..., 1]
    lap = np.roll(dX, -1, axis=-2) - 2.0 * dX + np.roll(dX, 1, axis=-2)
    return w[..., None] * dX + (2.0 * ring.mu ** 2 * hp * dot)[..., None] * X + lap


def _onsite_blocks(X: np.ndarray, diag: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """2x2 blocks diag I + outer x x^T for site views X of shape (..., n, 2)."""
    return diag[..., None, None] * _EYE2 \
        + outer[..., None, None] * (X[..., :, None] * X[..., None, :])


def _onsite_hessian(ring: RingSystem, X: np.ndarray) -> np.ndarray:
    """On-site 2x2 Hessian blocks (omega + h - 2) I + 2 mu^2 h' x x^T, with h
    and h' at mu^2 |x|^2, for site views X of shape (..., n, 2)."""
    s, w = _onsite(ring, X)
    hp = np.asarray(ring.potential.h_prime(s))
    return _onsite_blocks(X, w - 2.0, 2.0 * ring.mu ** 2 * hp)


def hessian_V(ring: RingSystem, x) -> np.ndarray:
    """Symmetric 2n x 2n Hessian at x of the potential V whose gradient is
    :func:`gradient_V`."""
    x = _as_state(ring, x)
    n = ring.n
    H = np.zeros((n, 2, n, 2))
    j = np.arange(n)
    right = (j + 1) % n
    H[j, :, j, :] = _onsite_hessian(ring, _site_view(x))
    H[j, :, right, :] = _EYE2
    H[right, :, j, :] = _EYE2
    return H.reshape(2 * n, 2 * n)


def vector_field(ring: RingSystem, x) -> np.ndarray:
    """Right-hand side of du/dt = -JJ grad_V(u)."""
    x = _as_state(ring, x)
    g = _site_view(gradient_V(ring, x))
    return -(g @ J2.T).reshape(x.shape)
