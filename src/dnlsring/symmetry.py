"""Symmetry machinery for the oscillator ring.

The cyclic shift together with a simultaneous planar rotation by ``zeta``
fixes the rotating-wave equilibrium.  Its irreducible representation spaces
``W_k`` (k = 1..n) are two complex dimensional; each is the image of an
isometry ``t_k`` from C^2 into C^{2n}.  Stacking all the ``t_k`` columns
gives a unitary change of variables P that block-diagonalizes every matrix
commuting with the group action, in particular the Hessian at the
equilibrium.

P factors as P = D_R (F ⊗ I_2): D_R is block diagonal with the site
rotations R(j zeta), and F_{jk} = n^{-1/2} e^{i k j zeta} is a discrete
Fourier matrix (sites j and modes k both run 1..n).  Rotated by D_R, a
matrix M that couples neighbours only has the block diagonals
d_m(j) = R_j^T M_{j,j+m} R_{j+m}, m = -1, 0, 1.  The diagonal blocks of
P^* M P are then sum_m e^{i k m zeta} mean_j d_m(j), and by Parseval the
norm of everything off them is that of the d_m(j) about their means.  When
M commutes with the group the d_m are constant in j, and the blocks are its
symbols.  The CLI's ``blocks`` reads the Hessian that way, in O(n), and
``blocks.full_spectrum_oracle`` checks the constancy.  ``block_extract``
forms the full P^* M P of any M through the factorisation, by a rotation of
each 2x2 block of M and two FFTs, without building P; it is the dense
reference for that reading.

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
    "ChangeOfVariables",
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


@dataclass(frozen=True)
class ChangeOfVariables:
    """The unitary 2n x 2n change of variables P = D_R (F ⊗ I_2), whose
    column block k (columns 2(k-1), 2(k-1)+1) is t_k.  ``block_extract``
    applies it by FFT; the dense P is never built."""

    n: int


def assemble_P(n: int) -> ChangeOfVariables:
    """Unitary change of variables of the n-ring; builds no matrix."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return ChangeOfVariables(n=n)


class BlockDecomposition(NamedTuple):
    blocks: np.ndarray
    off_block_residual: float


def block_extract(P: ChangeOfVariables, M) -> BlockDecomposition:
    """Diagonal 2x2 blocks of P^* M P as an (n, 2, 2) array, mode k = 1..n
    at index k - 1, and the Frobenius norm of everything off those blocks;
    a large norm signals that M does not commute with the group action.

    The full P^* M P is formed through P = D_R (F ⊗ I_2), in O(n^2 log n):
    each 2x2 block becomes X_{jj'} = R_j^T M_{jj'} R_{j'}, and then
    (P^* M P)_{kk'} = n^{-1} sum_{j,j'} e^{-i k j zeta} X_{jj'} e^{i k' j' zeta},
    a forward FFT over the row sites and an inverse one over the column
    sites, with mode k at FFT index k mod n.  The FFTs hold site j at index
    j - 1; that offset multiplies entry (k, k') by e^{i (k - k') zeta},
    which changes neither the diagonal blocks nor any modulus, so the
    blocks and the off-block norm are those of P^* M P.  The dense P is not
    built.
    """
    if not isinstance(P, ChangeOfVariables):
        raise TypeError(f"P must be the ChangeOfVariables of assemble_P, "
                        f"got {type(P).__name__}")
    n = P.n
    M = np.asarray(M)
    if M.shape != (2 * n, 2 * n):
        raise ValueError(f"M must be {(2 * n, 2 * n)}, got {M.shape}")
    import scipy.fft   # scipy loads only when a matrix is decomposed
    theta = np.arange(1, n + 1) * (2.0 * np.pi / n)
    c, s = np.cos(theta), np.sin(theta)
    M = M.reshape(n, 2, n, 2)
    # columns: Y = M R_{j'}, with R = [[c, -s], [s, c]]
    x, y = M[..., 0], M[..., 1]
    Y = np.stack([x * c + y * s, y * c - x * s], axis=-1)
    # rows: X = R_j^T Y
    cr, sr = c[:, None, None], s[:, None, None]
    x, y = Y[:, 0], Y[:, 1]
    X = np.stack([cr * x + sr * y, cr * y - sr * x], axis=1)
    C = scipy.fft.fft(scipy.fft.ifft(X, axis=2), axis=0, overwrite_x=True)
    k = np.arange(1, n + 1) % n                 # mode k = n at FFT index 0
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
