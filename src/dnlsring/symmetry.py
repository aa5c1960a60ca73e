"""Symmetry machinery for the oscillator ring.

The cyclic shift together with a simultaneous planar rotation by ``zeta``
fixes the rotating-wave equilibrium.  Its irreducible representation spaces
``W_k`` (k = 1..n) are two complex dimensional; each is the image of an
isometry ``t_k`` from C^2 into C^{2n}.  Stacking all the ``t_k`` columns
gives a unitary change of variables that block-diagonalizes every matrix
commuting with the group action, in particular the Hessian at the
equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ChangeOfVariables",
    "IsotropyLabel",
    "t_k_matrix",
    "t_k_apply",
    "assemble_P",
    "block_extract",
    "BlockDecomposition",
    "group_action",
    "symmetry_residual",
    "SymmetryResidual",
    "traveling_wave_residual",
]


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def t_k_matrix(n: int, k: int) -> np.ndarray:
    """2n x 2 complex matrix of the isometry onto the mode space W_k.

    The rows for oscillator j (j = 1..n) are
    ``n^{-1/2} exp(i k j zeta) R(j zeta)`` with R the planar rotation.
    """
    if not 1 <= k <= n:
        raise ValueError(f"mode index k must be in 1..{n}, got {k}")
    j = np.arange(1, n + 1)
    # reducing k*j mod n keeps the phase exact at multiples of 2*pi,
    # so the fully symmetric mode k = n comes out exactly real
    phase = np.exp(2j * np.pi * (k * j % n) / n)
    R = np.moveaxis(_rotation(j * (2.0 * np.pi / n)), -1, 0)   # (n, 2, 2)
    return (phase[:, None, None] * R).reshape(2 * n, 2) / np.sqrt(n)


def t_k_apply(n: int, k: int, w) -> np.ndarray:
    """Embed a complex 2-vector into C^{2n} along the mode space W_k."""
    w = np.asarray(w, dtype=complex)
    if w.shape != (2,):
        raise ValueError("w must be a complex 2-vector")
    return t_k_matrix(n, k) @ w


@dataclass(frozen=True)
class ChangeOfVariables:
    """Unitary 2n x 2n matrix assembled column-blockwise from t_1..t_n."""

    n: int
    P: np.ndarray


def assemble_P(n: int) -> ChangeOfVariables:
    """Unitary change of variables; block k occupies columns 2(k-1), 2(k-1)+1."""
    if n < 3:
        raise ValueError("n must be >= 3")
    P = np.hstack([t_k_matrix(n, k) for k in range(1, n + 1)])
    return ChangeOfVariables(n=n, P=P)


class BlockDecomposition(NamedTuple):
    blocks: list[np.ndarray]
    off_block_residual: float


def block_extract(P, M) -> BlockDecomposition:
    """Diagonal 2x2 blocks of P^* M P, in mode order k = 1..n.

    The Frobenius norm of the discarded off-block part is returned alongside;
    a large value signals that M does not commute with the group action.
    """
    P = P.P if isinstance(P, ChangeOfVariables) else np.asarray(P)
    M = np.asarray(M)
    if M.shape != P.shape:
        raise ValueError(f"M must be {P.shape}, got {M.shape}")
    C = P.conj().T @ M @ P
    n = P.shape[0] // 2
    blocks = [C[2 * k:2 * k + 2, 2 * k:2 * k + 2].copy() for k in range(n)]
    off = C.copy()
    for k in range(n):
        off[2 * k:2 * k + 2, 2 * k:2 * k + 2] = 0.0
    return BlockDecomposition(blocks, float(np.linalg.norm(off)))


@dataclass(frozen=True)
class IsotropyLabel:
    """Isotropy subgroup of a mode-k solution, generated by (zeta, zeta, -k*zeta)."""

    n: int
    k: int

    @property
    def generator(self) -> tuple[float, float, float]:
        zeta = 2.0 * np.pi / self.n
        return (zeta, zeta, (-self.k * zeta) % (2.0 * np.pi))

    @property
    def label(self) -> str:
        return f"Z~_{self.n}({self.k})"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label


def _time_translate_modes(coeffs: np.ndarray, phi: float) -> np.ndarray:
    p = (coeffs.shape[0] - 1) // 2
    ls = np.arange(-p, p + 1)
    return coeffs * np.exp(1j * ls * phi)[:, None]


def group_action(n: int, shift: int, theta: float, phi: float, x, *,
                 fourier: bool = False) -> np.ndarray:
    """Apply (cyclic shift, rotation by -theta, time translation by phi).

    ``x`` may be a single state of shape (2n,), an array of time samples of
    shape (N, 2n), or (with ``fourier=True``) a Fourier coefficient array of
    shape (2p+1, 2n) for modes -p..p.  The time translation only affects
    orbits; for sampled orbits it is applied by trigonometric interpolation.
    """
    x = np.asarray(x)
    if fourier:
        coeffs = np.asarray(x, dtype=complex)
        out = _time_translate_modes(coeffs, phi)
        return _spatial_action(n, shift, theta, out)
    if x.ndim == 1:
        return _spatial_action(n, shift, theta, x[None, :])[0]
    if x.ndim == 2:
        if phi != 0.0:
            N = x.shape[0]
            F = np.fft.fft(x, axis=0)
            ls = np.fft.fftfreq(N, d=1.0 / N)
            x = np.fft.ifft(F * np.exp(1j * ls * phi)[:, None], axis=0)
            if np.max(np.abs(x.imag)) > 1e-9:
                raise ValueError("time translation produced a non-real orbit")
            x = x.real
        return _spatial_action(n, shift, theta, x)
    raise ValueError("x must be a state, time samples, or Fourier coefficients")


def _spatial_action(n: int, shift: int, theta: float, rows: np.ndarray) -> np.ndarray:
    rows = rows.reshape(rows.shape[0], n, 2)
    # (rho(gamma) x)_j = x_{j+shift}
    out = np.roll(rows, -int(shift), axis=1)
    R = _rotation(-theta)
    out = out @ R.T
    return out.reshape(out.shape[0], 2 * n)


class SymmetryResidual(NamedTuple):
    pattern: float
    norms: float


def _orbit_modes(orbit) -> np.ndarray:
    """Fourier modes (2p+1, 2n) from a FourierOrbit-like object or samples."""
    coeffs = getattr(orbit, "coeffs", None)
    if coeffs is not None:
        return np.asarray(coeffs, dtype=complex)
    samples = np.asarray(orbit, dtype=float)
    if samples.ndim != 2:
        raise ValueError("expected an orbit with .coeffs or an array of time samples")
    N = samples.shape[0]
    p = (N - 1) // 2
    F = np.fft.fft(samples, axis=0) / N
    ls = np.arange(-p, p + 1)
    return F[ls % N]


def symmetry_residual(orbit, k: int, num_samples: int = 256) -> SymmetryResidual:
    """How far an orbit is from the mode-k pattern
    ``u_{j+1}(t) = e^{i j zeta} u_1(t + j k zeta)``.

    Returns the max pointwise mismatch of the complex pattern and of the
    norm relation ``r_{j+1}(t) = r_1(t + j k zeta)``, over all sites and a
    uniform time grid.  Accepts a FourierOrbit or an (N, 2n) sample array;
    time shifts use trigonometric interpolation.
    """
    coeffs = _orbit_modes(orbit)
    n = coeffs.shape[1] // 2
    p = (coeffs.shape[0] - 1) // 2
    zeta = 2.0 * np.pi / n
    t = 2.0 * np.pi * np.arange(num_samples) / num_samples
    ls = np.arange(-p, p + 1)
    # complex Fourier modes of the oscillator signals, shape (2p+1, n)
    c_modes = coeffs[:, 0::2] + 1j * coeffs[:, 1::2]
    base = np.exp(1j * np.outer(t, ls))  # evaluates sum_l (.) e^{ilt}
    c1 = c_modes[:, 0]
    pattern = 0.0
    norms = 0.0
    for j in range(1, n):
        shifted = (base * np.exp(1j * ls * (j * k * zeta))) @ c1  # u_1(t + j*k*zeta)
        actual = base @ c_modes[:, j]
        pattern = max(pattern, float(np.max(np.abs(actual - np.exp(1j * j * zeta) * shifted))))
        norms = max(norms, float(np.max(np.abs(np.abs(actual) - np.abs(shifted)))))
    return SymmetryResidual(pattern, norms)


def traveling_wave_residual(orbit, k: int, num_samples: int = 256) -> float:
    """Max mismatch of the full iterated pattern
    ``u_{j+m}(t) = e^{i m zeta} u_j(t + m k zeta)`` over all j, m.

    For k dividing n this exhibits the split into k equal traveling waves of
    n/k oscillators each.
    """
    coeffs = _orbit_modes(orbit)
    n = coeffs.shape[1] // 2
    p = (coeffs.shape[0] - 1) // 2
    zeta = 2.0 * np.pi / n
    t = 2.0 * np.pi * np.arange(num_samples) / num_samples
    ls = np.arange(-p, p + 1)
    c_modes = coeffs[:, 0::2] + 1j * coeffs[:, 1::2]
    base = np.exp(1j * np.outer(t, ls))
    signals = base @ c_modes  # (N, n)
    worst = 0.0
    for m in range(1, n):
        shift = base * np.exp(1j * ls * (m * k * zeta))
        predicted = np.exp(1j * m * zeta) * (shift @ c_modes)
        actual = np.roll(signals, -m, axis=1)
        worst = max(worst, float(np.max(np.abs(actual - predicted))))
    return worst
