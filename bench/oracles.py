"""Independent closed forms and dense references for checking dnlsring output.

Nothing here imports dnlsring: every quantity is rebuilt from the paper's
formulas so that a fault in the library cannot hide in its own check.

Ring of n sites, lattice angle zeta = 2 pi / n, amplitude mu, nonlinearity
h on s = |q|^2.  With x = mu^2 h'(mu^2):

* alpha_k = 4 cos(zeta) sin^2(k zeta / 2), gamma_k = 2 sin(k zeta) sin(zeta);
* the critical frequencies of mode k are nu_-+ = gamma_k -+ sqrt(R_k) with
  R_k = alpha_k (alpha_k - 2 x), real when R_k > 0;
* the Morse-index jump is eta = sigma sgn(T_k) (+1 at nu_-, -1 at nu_+),
  with sigma = sgn h'(mu^2) and T_k = 2 x - 2 alpha_k the block trace.
"""

from __future__ import annotations

import math

import numpy as np

_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
_IJ = np.array([[0.0, -1.0j], [1.0j, 0.0]])

# a radicand this close to zero is a double root, which carries no jump
DOUBLE_ROOT_TOL = 1e-12


def alpha(n: int, k: int) -> float:
    """alpha_k, exactly zero for n = 4 and for k = 0 mod n."""
    if n == 4 or k % n == 0:
        return 0.0
    zeta = 2.0 * math.pi / n
    return 4.0 * math.cos(zeta) * math.sin(k * zeta / 2.0) ** 2


def gamma(n: int, k: int) -> float:
    """gamma_k, exactly zero when 2k = 0 mod n."""
    if (2 * k) % n == 0:
        return 0.0
    zeta = 2.0 * math.pi / n
    return 2.0 * math.sin(k * zeta) * math.sin(zeta)


def critical_frequencies(n: int, k: int, x: float) -> tuple[float, float] | None:
    """(nu_-, nu_+) of mode k, or None when there is no simple real pair."""
    a = alpha(n, k)
    rad = a * (a - 2.0 * x)
    if rad <= DOUBLE_ROOT_TOL:
        return None
    root = math.sqrt(rad)
    g = gamma(n, k)
    return g - root, g + root


def eta(n: int, k: int, x: float, sigma: int, root: str) -> int:
    """Closed-form index jump at nu_- (root 'minus') or nu_+ ('plus')."""
    trace = 2.0 * x - 2.0 * alpha(n, k)
    sign = 1 if trace > 0 else -1
    return sigma * sign * (1 if root == "minus" else -1)


def enumerate_points(n: int, x: float, sigma: int) -> list[dict]:
    """Every positive critical frequency with nonzero jump, modes 1..n-1."""
    out = []
    for k in range(1, n):
        pair = critical_frequencies(n, k, x)
        if pair is None:
            continue
        for nu, root in zip(pair, ("minus", "plus")):
            if nu <= 0.0:
                continue
            out.append({"k": k, "root": root, "nu": nu,
                        "period": 2.0 * math.pi / nu,
                        "eta": eta(n, k, x, sigma, root)})
    return out


def block(n: int, k: int, x: float, nu: float) -> np.ndarray:
    """m_k(nu) = -nu iJ - alpha_k I + gamma_k iJ + 2 x diag(1, 0)."""
    return ((gamma(n, k) - nu) * _IJ - alpha(n, k) * np.eye(2)
            + np.diag([2.0 * x, 0.0]))


def mode_embedding(n: int, k: int, w: np.ndarray) -> np.ndarray:
    """t_k w: site j carries n^{-1/2} e^{i k j zeta} R(j zeta) w, as (2n,)."""
    j = np.arange(1, n + 1)
    theta = 2.0 * math.pi * j / n
    c, s = np.cos(theta), np.sin(theta)
    rot_w = np.column_stack([c * w[0] - s * w[1], s * w[0] + c * w[1]])
    phase = np.exp(2j * math.pi * ((k * j) % n) / n)
    return (phase[:, None] * rot_w).ravel() / math.sqrt(n)


def kernel_orbit(n: int, k: int, x: float, nu: float, eps: float, p: int) -> np.ndarray:
    """Fourier modes (2p+1, 2n) of a + eps Re(e^{it} t_k w), w the kernel
    vector of m_k(nu): the first-order branch at a critical frequency."""
    ev, vec = np.linalg.eigh(block(n, k, x, nu))
    w = vec[:, int(np.argmin(np.abs(ev)))]
    coeffs = np.zeros((2 * p + 1, 2 * n), dtype=complex)
    coeffs[p] = rotating_wave(n)
    coeffs[p + 1] = eps / 2.0 * mode_embedding(n, k, w)
    coeffs[p - 1] = np.conj(coeffs[p + 1])
    return coeffs


def stable(n: int, x: float) -> bool:
    """Linear stability of the rotating wave from the alpha_1 / 2 threshold."""
    if n == 4:
        return True
    half_alpha1 = alpha(n, 1) / 2.0
    return x > half_alpha1 if n == 3 else x < half_alpha1


def rotating_wave(n: int) -> np.ndarray:
    """a_j = (cos j zeta, sin j zeta), j = 1..n, flattened to (2n,)."""
    theta = 2.0 * math.pi * np.arange(1, n + 1) / n
    return np.column_stack([np.cos(theta), np.sin(theta)]).ravel()


def symplectic(n: int) -> np.ndarray:
    return np.kron(np.eye(n), _J2)


def hessian_at_wave(n: int, x: float) -> np.ndarray:
    """D^2 V at the rotating wave.

    On site j the block is (omega + h(mu^2) - 2) I + 2 x a_j a_j^T, and
    omega + h(mu^2) = 4 sin^2(zeta/2); neighbours couple through I.
    """
    a = rotating_wave(n).reshape(n, 2)
    diag = 4.0 * math.sin(math.pi / n) ** 2 - 2.0
    H = np.zeros((n, 2, n, 2))
    sites = np.arange(n)
    H[sites, :, sites, :] = diag * np.eye(2) + 2.0 * x * a[:, :, None] * a[:, None, :]
    H[sites, :, (sites + 1) % n, :] += np.eye(2)
    H[(sites + 1) % n, :, sites, :] += np.eye(2)
    return H.reshape(2 * n, 2 * n)


def linearization(n: int, x: float) -> np.ndarray:
    """Dense 2n x 2n linearization -JJ D^2V(a) of the flow at the wave."""
    return -symplectic(n) @ hessian_at_wave(n, x)


def gradient(X: np.ndarray, mu: float, omega: float, h) -> np.ndarray:
    """grad V for site arrays X of shape (..., n, 2)."""
    r2 = (X ** 2).sum(axis=-1)
    lap = np.roll(X, -1, axis=-2) - 2.0 * X + np.roll(X, 1, axis=-2)
    return (omega + h(mu * mu * r2))[..., None] * X + lap


def sampled_residual(coeffs: np.ndarray, nu: float, mu: float, h,
                     samples: int = 512) -> float:
    """max over t and coordinates of |-nu JJ dx/dt + grad V(x)| for the
    real Fourier orbit whose modes l = -p..p are the rows of ``coeffs``."""
    coeffs = np.asarray(coeffs, dtype=complex)
    p = (coeffs.shape[0] - 1) // 2
    n = coeffs.shape[1] // 2
    ls = np.arange(-p, p + 1)
    t = 2.0 * math.pi * np.arange(samples) / samples
    basis = np.exp(1j * np.outer(t, ls))
    xs = (basis @ coeffs).real.reshape(samples, n, 2)
    xdot = (basis @ (1j * ls[:, None] * coeffs)).real.reshape(samples, n, 2)
    omega = 4.0 * math.sin(math.pi / n) ** 2 - float(h(mu * mu))
    res = -nu * (xdot @ _J2.T) + gradient(xs, mu, omega, h)
    return float(np.abs(res).max())
