"""Symmetry machinery for the oscillator ring.

The cyclic shift together with a simultaneous planar rotation by ``zeta``
fixes the rotating-wave equilibrium.  Its irreducible representation spaces
``W_k`` (k = 1..n) are two complex dimensional; each is the image of an
isometry ``t_k`` from C^2 into C^{2n}.  Stacking all the ``t_k`` columns
gives a unitary change of variables P that block-diagonalizes every matrix
commuting with the group action, in particular the Hessian at the
equilibrium.  ``block_extract`` forms the dense P^* M P of any M; it is the
reference for the O(n) reading of the Hessian's blocks off its rotated
block diagonals, ``blocks._rotated_diagonals``, which the CLI's ``blocks``
runs.

A branch born at a mode-k bifurcation point keeps the isotropy Z~_n(k).
``verify`` checks that pattern on every point by
``traveling_wave_residual``, a bound read off the Fourier modes in O(n p).
``symmetry_residual`` samples the pattern at every site and time instead;
it is the reference that the bound is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "IsotropyLabel",
    "t_k_matrix",
    "assemble_P",
    "block_extract",
    "BlockDecomposition",
    "symmetry_residual",
    "SymmetryResidual",
    "traveling_wave_residual",
]

_TIME_SAMPLES = 256   # uniform time grid of the pattern checks


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _mode_maps(n: int, k: np.ndarray) -> np.ndarray:
    """The t_k of every mode in the integer array k, as site blocks of
    shape k.shape + (n, 2, 2): site j's block is
    ``n^{-1/2} exp(i k j zeta) R(j zeta)``."""
    j = np.arange(1, n + 1)
    # reducing k*j mod n keeps the phase exact at multiples of 2*pi,
    # so the fully symmetric mode k = n comes out exactly real
    phase = np.exp(2j * np.pi * (k[..., None] * j % n) / n)
    R = np.moveaxis(_rotation(j * (2.0 * np.pi / n)), -1, 0)   # (n, 2, 2)
    return phase[..., None, None] * R / np.sqrt(n)


def t_k_matrix(n: int, k: int) -> np.ndarray:
    """2n x 2 complex matrix of the isometry onto the mode space W_k.

    The rows for oscillator j (j = 1..n) are
    ``n^{-1/2} exp(i k j zeta) R(j zeta)`` with R the planar rotation.
    """
    if not 1 <= k <= n:
        raise ValueError(f"mode index k must be in 1..{n}, got {k}")
    return _mode_maps(n, np.asarray(k)).reshape(2 * n, 2)


def assemble_P(n: int) -> np.ndarray:
    """The unitary 2n x 2n change of variables of the n-ring, whose column
    block k (columns 2(k-1), 2(k-1)+1) is t_k."""
    if n < 3:
        raise ValueError("n must be >= 3")
    # (mode k, site j, row, column) -> rows (j, row), columns (k, column)
    return np.moveaxis(_mode_maps(n, np.arange(1, n + 1)), 0, 2).reshape(2 * n, 2 * n)


class BlockDecomposition(NamedTuple):
    blocks: np.ndarray
    off_block_residual: float


def block_extract(P, M) -> BlockDecomposition:
    """Diagonal 2x2 blocks of P^* M P as an (n, 2, 2) array, mode k = 1..n
    at index k - 1, and the Frobenius norm of everything off those blocks;
    a large norm signals that M does not commute with the group action.
    P is the matrix of ``assemble_P(n)``, and the product is dense."""
    P, M = np.asarray(P), np.asarray(M)
    n = len(P) // 2 if P.ndim == 2 else 0
    if n < 3 or P.shape != (2 * n, 2 * n):
        raise ValueError(f"P must be (2n, 2n) with n >= 3, got {P.shape}")
    if M.shape != P.shape:
        raise ValueError(f"M must be {P.shape}, got {M.shape}")
    C = (P.conj().T @ M @ P).reshape(n, 2, n, 2)
    k = np.arange(n)
    blocks = C[k, :, k, :]
    C[k, :, k, :] = 0.0
    return BlockDecomposition(blocks, float(np.linalg.norm(C)))


@dataclass(frozen=True)
class IsotropyLabel:
    """Isotropy subgroup of a mode-k solution, generated by (zeta, zeta, -k*zeta)."""

    n: int
    k: int

    @property
    def label(self) -> str:
        return f"Z~_{self.n}({self.k})"


class SymmetryResidual(NamedTuple):
    pattern: float
    norms: float


def _oscillator_modes(orbit) -> np.ndarray:
    """The complex modes c_lj of the oscillator signals x_j + i y_j of a
    FourierOrbit, modes l = -p..p in rows and oscillators j in columns."""
    coeffs = np.asarray(orbit.coeffs, dtype=complex)
    return coeffs[:, 0::2] + 1j * coeffs[:, 1::2]


def symmetry_residual(orbit, k: int, num_samples: int = _TIME_SAMPLES) -> SymmetryResidual:
    """How far an orbit is from the mode-k pattern
    ``u_{j+1}(t) = e^{i j zeta} u_1(t + j k zeta)``.

    Returns the max pointwise mismatch of the complex pattern and of the
    norm relation ``r_{j+1}(t) = r_1(t + j k zeta)``, over all sites and a
    uniform time grid, from the Fourier modes of a FourierOrbit.  All sites
    j + 1 = 2..n are checked in one product: the shifted signals
    u_1(t + j k zeta) are ``base @ (c_1 e^(i l j k zeta))`` and the actual
    ones ``base @ c_(j+1)``.
    """
    c_modes = _oscillator_modes(orbit)
    n, p = c_modes.shape[1], (c_modes.shape[0] - 1) // 2
    zeta = 2.0 * np.pi / n
    t = 2.0 * np.pi * np.arange(num_samples) / num_samples
    ls = np.arange(-p, p + 1)
    j = np.arange(1, n)
    base = np.exp(1j * np.outer(t, ls))  # evaluates sum_l (.) e^{ilt}
    shifted = base @ (c_modes[:, :1] * np.exp(1j * np.outer(ls, j * k * zeta)))
    actual = base @ c_modes[:, 1:]
    norms = float(np.max(np.abs(np.abs(actual) - np.abs(shifted))))
    shifted *= np.exp(1j * j * zeta)
    actual -= shifted
    return SymmetryResidual(float(np.max(np.abs(actual))), norms)


def traveling_wave_residual(orbit, k: int) -> float:
    """A bound on the mismatch of the full iterated pattern
    ``u_{j+m}(t) = e^{i m zeta} u_j(t + m k zeta)`` over all j, m and every
    time t, from the modes c_lj of a FourierOrbit, in O(n p).

    In modes the pattern reads c_{l,j+m} = e^{i m (1 + l k) zeta} c_lj: it
    holds exactly when D_lj = c_lj e^{-i j (1 + l k) zeta} does not depend
    on j.  The mismatch at (j, m, t) is the modulus of
    sum_l e^{i l t} e^{i (j + m)(1 + l k) zeta} (D_{l,j+m} - D_lj), so it is
    at most the returned 2 sum_l max_j |D_lj - mean_j D_lj|.

    For k dividing n this exhibits the split into k equal traveling waves of
    n/k oscillators each.
    """
    c_modes = _oscillator_modes(orbit)
    n, p = c_modes.shape[1], (c_modes.shape[0] - 1) // 2
    l, j = np.arange(-p, p + 1)[:, None], np.arange(n)
    # j (1 + l k) reduced mod n keeps the phases exact at multiples of 2 pi
    D = c_modes * np.exp(-2j * np.pi * (j * (1 + l * k) % n) / n)
    return float(2.0 * np.abs(D - D.mean(axis=1, keepdims=True)).max(axis=1).sum())
