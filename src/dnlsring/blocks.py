"""Spectral theory of the 2x2 Hermitian mode blocks.

In the mode basis the Hessian at the rotating wave splits into blocks

    B_k = -alpha_k I + gamma_k (iJ) + 2 mu^2 h'(mu^2) diag(1, 0),

with ``alpha_k = 4 cos(zeta) sin^2(k zeta / 2)`` and
``gamma_k = 2 sin(k zeta) sin(zeta)``; the linearization block at frequency
nu is ``m_k(nu) = -nu (iJ) + B_k``.  Everything downstream (Morse indices,
index jumps, critical frequencies, degenerate amplitudes, linear stability)
is closed form in these coefficients, whose structural zeros are decided
by integer rules on (n, k).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack
from scipy.optimize import brentq

from .model import RingSystem, hessian_V, standing_wave

__all__ = [
    "SingularBlock",
    "SearchRangeExhausted",
    "BrokenReflection",
    "BlockCoefficients",
    "SpectralSummary",
    "CriticalFrequencies",
    "StabilityVerdict",
    "coefficients",
    "block_B",
    "block_m",
    "det_trace",
    "spectral_summary",
    "morse_index",
    "critical_frequencies",
    "sigma",
    "eta",
    "mu_h_prime",
    "degenerate_amplitudes",
    "kernel_vector",
    "full_spectrum_oracle",
    "spectrum_max_real",
    "linear_stability",
]

_SINGULAR_TOL = 1e-12   # |det| below this counts as a singular block
_DEGENERATE_TOL = 1e-12  # radicand below this counts as a double root
# the blocks of -JJ D2V(a) that the ring reflection forces to zero may reach
# this many ulps of the largest entry
_REFLECTION_TOL = 64.0 * np.finfo(float).eps
_S_RANGE = (0.0, 100.0)  # the range of s = mu^2 that custom potentials are scanned over
_CLUSTER_RADIUS = 1e-6   # eigenvalues this close form one cluster of spectrum_max_real

# Hermitian realization of the rotation generator
IJ = np.array([[0.0, -1.0j], [1.0j, 0.0]])


class SingularBlock(ArithmeticError):
    """Raised when a Morse index is requested at a singular block."""


class SearchRangeExhausted(RuntimeError):
    """Root search for a custom potential hit the end of its bracket range."""


class BrokenReflection(RuntimeError):
    """The stability oracle's premise check failed: the Hessian at the
    rotating wave is not finite, or not invariant under the ring reflection
    that the square reduction relies on."""


@dataclass(frozen=True)
class BlockCoefficients:
    """Closed-form coefficients of mode k; ``delta`` is None when alpha_k = 0."""

    k: int
    alpha: float
    gamma: float
    delta: float | None


def coefficients(n: int, k: int) -> BlockCoefficients:
    """Coefficients alpha_k, gamma_k and delta_k = (alpha^2-gamma^2)/(2 alpha).

    Exact zeros are decided on the integers: alpha_k = 0 iff n = 4 or k = n
    (delta is absent there), gamma_k = 0 iff 2k = 0 mod n, and delta_k = 0
    iff k in {2, n-2}, where alpha_k / gamma_k = tan(k zeta / 2) / tan(zeta)
    = +-1.  Every other value is the float formula, however small.
    """
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    zeta = 2.0 * np.pi / n
    alpha = gamma = 0.0
    if n != 4 and k != n:
        alpha = float(4.0 * np.cos(zeta) * np.sin(k * zeta / 2.0) ** 2)
    if 2 * k % n:
        gamma = float(2.0 * np.sin(k * zeta) * np.sin(zeta))
    if alpha == 0.0:
        delta = None
    elif k in (2, n - 2):
        delta = 0.0
    else:
        delta = (alpha ** 2 - gamma ** 2) / (2.0 * alpha)
    return BlockCoefficients(k=k, alpha=alpha, gamma=gamma, delta=delta)


class _CoefficientTable(NamedTuple):
    """``coefficients(n, k)`` of the modes k = 1..n-1, entry k - 1; delta is
    nan where ``has_delta`` is False (alpha_k = 0)."""

    alpha: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    has_delta: np.ndarray


@functools.lru_cache(maxsize=16)
def _coefficient_table(n: int) -> _CoefficientTable:
    """Read-only per-n table built from one ``coefficients`` call per mode.
    The scalar calls are kept on purpose: an array evaluation of
    sin(k zeta/2)**2 rounds differently from the scalar one in the last bit
    for a few hundred modes with n < 600."""
    cs = [coefficients(n, k) for k in range(1, n)]
    table = _CoefficientTable(
        alpha=np.array([c.alpha for c in cs]), gamma=np.array([c.gamma for c in cs]),
        delta=np.array([np.nan if c.delta is None else c.delta for c in cs]),
        has_delta=np.array([c.delta is not None for c in cs]))
    for column in table:
        column.flags.writeable = False
    return table


def mu_h_prime(ring: RingSystem) -> float:
    """The combination mu^2 h'(mu^2) that all regime conditions compare."""
    return ring.mu ** 2 * float(ring.potential.h_prime(ring.mu ** 2))


def block_B(ring: RingSystem, k: int) -> np.ndarray:
    """Time-independent Hermitian block of the Hessian on mode k."""
    c = coefficients(ring.n, k)
    B = -c.alpha * np.eye(2, dtype=complex) + c.gamma * IJ
    B[0, 0] += 2.0 * mu_h_prime(ring)
    return B


def block_m(ring: RingSystem, k: int, nu: float) -> np.ndarray:
    """Linearization block m_k(nu) = -nu (iJ) + B_k."""
    return -nu * IJ + block_B(ring, k)


def det_trace(ring: RingSystem, k: int, nu: float) -> tuple[float, float]:
    """Closed-form determinant and trace of m_k(nu):

    d = -2 alpha_k mu^2 h' + alpha_k^2 - (gamma_k - nu)^2,
    T = 2 mu^2 h' - 2 alpha_k.
    """
    c = coefficients(ring.n, k)
    x = mu_h_prime(ring)
    d = -2.0 * c.alpha * x + c.alpha ** 2 - (c.gamma - nu) ** 2
    return d, 2.0 * x - 2.0 * c.alpha


@dataclass(frozen=True)
class SpectralSummary:
    det: float
    trace: float
    eigenvalues: tuple[float, float]
    morse_index: int


def spectral_summary(m: np.ndarray) -> SpectralSummary:
    """Determinant, trace, real eigenvalues and Morse index of a Hermitian 2x2."""
    ev = np.linalg.eigvalsh(m)
    return SpectralSummary(
        det=float(ev[0] * ev[1]),
        trace=float(ev.sum()),
        eigenvalues=(float(ev[0]), float(ev[1])),
        morse_index=int((ev < 0).sum()),
    )


def morse_index(ring: RingSystem, k: int, nu: float) -> int:
    """Number of negative eigenvalues of m_k(nu).

    Raises
    ------
    SingularBlock
        When |det m_k(nu)| <= 1e-12; step off the critical value first.
    """
    d, T = det_trace(ring, k, nu)
    if abs(d) <= _SINGULAR_TOL:
        raise SingularBlock(f"m_{k}({nu}) is singular (det = {d:.3e})")
    if d < 0:
        return 1
    return 2 if T < 0 else 0


class CriticalFrequencies(NamedTuple):
    nus: tuple[float, ...]
    degenerate: bool


def critical_frequencies(ring: RingSystem, k: int) -> CriticalFrequencies:
    """Real roots of det m_k(nu) = 0, i.e. nu = gamma_k +- sqrt(radicand)
    with radicand = alpha_k (alpha_k - 2 mu^2 h').

    Empty when the radicand is negative; a double root (radicand within
    1e-12 of zero) is reported as a single degenerate value.  Mode k = n is
    rejected: its only root is nu = 0 and carries no bifurcation.
    """
    if not 1 <= k <= ring.n - 1:
        raise ValueError(f"k must be in 1..{ring.n - 1}; mode k = n is handled separately")
    c = coefficients(ring.n, k)
    rad = c.alpha * (c.alpha - 2.0 * mu_h_prime(ring))
    if rad < -_DEGENERATE_TOL:
        return CriticalFrequencies((), False)
    if rad <= _DEGENERATE_TOL:
        return CriticalFrequencies((c.gamma,), True)
    root = np.sqrt(rad)
    return CriticalFrequencies((c.gamma - root, c.gamma + root), False)


def sigma(ring: RingSystem) -> int:
    """Orientation sign sgn(h'(mu^2)) carried by the fully symmetric block."""
    return int(np.sign(ring.potential.h_prime(ring.mu ** 2)))


def eta(ring: RingSystem, k: int, nu0: float) -> int:
    """Signed Morse-index jump sigma * (n_k(nu0^-) - n_k(nu0^+)) at nu0, one of
    ``critical_frequencies(ring, k).nus``: +-sigma * sgn(T_k) at nu_-+, with
    T_k = 2 mu^2 h' - 2 alpha_k the block trace (nonzero at a real simple
    pair, where T_k = 0 would make the radicand -alpha_k^2).  The roots
    straddle gamma_k.  Degenerate and absent roots jump by zero.
    """
    cf = critical_frequencies(ring, k)
    if cf.degenerate or not cf.nus:
        return 0
    c = coefficients(ring.n, k)
    side = 1 if nu0 < c.gamma else -1
    return sigma(ring) * int(np.sign(mu_h_prime(ring) - c.alpha)) * side


@functools.lru_cache(maxsize=8)
def _scan_grid(potential, samples: int):
    """The union of ``samples`` points evenly in s over [0, 100] and 2001
    evenly in mu = sqrt(s) over [1e-6, 10], and x(s) = s h'(s) on it from one
    array call of h' (a scalar h' broadcasts); both read-only."""
    lo, hi = _S_RANGE
    s_mu = np.linspace(1e-6, 10.0, 2001) ** 2
    s = np.union1d(np.linspace(lo, hi, samples), s_mu[(s_mu >= lo) & (s_mu <= hi)])
    with np.errstate(invalid="ignore", divide="ignore"):
        x = s * np.asarray(potential.h_prime(s), dtype=float)
    s.flags.writeable = x.flags.writeable = False
    return s, x


def _level_set(potential, level: float, samples: int = 4096):
    """``(s, f, edge)``: the scan grid, f = s h'(s) - level on it (nan where
    not finite) and ``edge(i)``, where x meets the level in [s_i, s_{i+1}]:
    brentq to 1e-12 when both samples are finite, else s_{i+1}."""
    s, x = _scan_grid(potential, samples)
    f = np.where(np.isfinite(x), x - level, np.nan)

    def edge(i):
        if np.isnan(f[i]) or np.isnan(f[i + 1]):
            return float(s[i + 1])
        return brentq(lambda t: t * float(potential.h_prime(t)) - level, s[i], s[i + 1],
                      xtol=1e-12, rtol=8.9e-16)

    return s, f, edge


def degenerate_amplitudes(n: int, k: int, potential,
                          samples: int = 4096) -> tuple[float, ...]:
    """Amplitudes mu > 0 at which B_k is singular, i.e. mu^2 h'(mu^2) = delta_k.

    Cubic and saturable potentials are solved in closed form.  Others are
    scanned over s in [0, 100] on one grid per (potential, ``samples``),
    shared with ``classify.stability_interval``, and each sign change of
    s h'(s) - delta_k is refined by brentq to 1e-12.  A maximal run of
    samples exactly at delta_k is one root, at its last sample, unless it
    reaches the end of the grid (there the level is met only by underflow).
    Samples where s h'(s) is nan or infinite are never roots and bracket
    none.

    Raises
    ------
    SearchRangeExhausted
        For custom potentials, when no root was found but |s h'(s) -
        delta_k| is smallest at the right end of the range (the answer may
        lie beyond it).  An empty result means no root in the range with
        the function bounded away from zero.
    """
    c = coefficients(n, k)
    if c.delta is None:
        raise ValueError(f"delta_{k} is undefined (alpha_{k} = 0); no degenerate amplitude")
    delta = c.delta
    kind = getattr(potential, "kind", "custom")
    if kind == "cubic":
        return (float(np.sqrt(delta)),) if delta > 0 else ()
    if kind == "saturable":
        # s/(1+s)^2 = -delta  <=>  delta s^2 + (2 delta + 1) s + delta = 0
        if delta >= 0 or delta < -0.25:
            return ()
        if delta == -0.25:
            return (1.0,)
        disc = np.sqrt(4.0 * delta + 1.0)
        s_lo = (-(2.0 * delta + 1.0) + disc) / (2.0 * delta)
        s_hi = (-(2.0 * delta + 1.0) - disc) / (2.0 * delta)
        return tuple(sorted(float(np.sqrt(s)) for s in (s_lo, s_hi)))

    s, f, edge = _level_set(potential, delta, samples)
    roots = [edge(i) for i in np.flatnonzero(f[:-1] * f[1:] < 0.0)]
    roots += list(s[:-1][(f[:-1] == 0.0) & (f[1:] != 0.0)])  # one per run at the level
    if not roots and np.argmin(np.abs(np.nan_to_num(f, nan=np.inf))) == len(s) - 1:
        raise SearchRangeExhausted(
            f"no root of s*h'(s) = delta_{k} bracketed in {_S_RANGE}; "
            "|s*h'(s) - delta| is still shrinking at the range end")
    return tuple(sorted(float(np.sqrt(s)) for s in roots if s > 0))


def kernel_vector(ring: RingSystem, k: int, nu: float) -> np.ndarray:
    """Unit eigenvector of m_k(nu) for its smallest-magnitude eigenvalue."""
    m = block_m(ring, k, nu)
    ev, vec = np.linalg.eigh(m)
    i = int(np.argmin(np.abs(ev)))
    return vec[:, i]


@functools.lru_cache(maxsize=16)
def _reflection_basis(n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Orthonormal bases P, M of the +1 and -1 eigenspaces of the ring
    reflection R, as read-only index arithmetic: column c of Q = [P M] is
    ``weights[0, c] e_{index[0, c]} + weights[1, c] e_{index[1, c]}``
    (shape (2, 2n, 1) weights).  R takes coordinate c (site c // 2, counted
    from 0) to the same component of site (n - 2 - c // 2) mod n, negated for
    y, so R e_c = sign_c e_r.  A coordinate paired with its mirror r gives
    (e_c + sign_c e_r) / sqrt(2) in P and (e_c - sign_c e_r) / sqrt(2) in M;
    a coordinate that R fixes (x of a fixed site) or negates (its y) is e_c,
    written as (e_c + e_c) / 2.  Also the optimal LAPACK workspace of an
    n x n eigensolve (the minimal one costs 15 % at n = 256)."""
    c = np.arange(2 * n)
    mirror = 2 * ((n - 2 - c // 2) % n) + c % 2
    sign = 1 - 2 * (c % 2)
    fixed = c == mirror
    plus = np.flatnonzero((c < mirror) | (fixed & (sign > 0)))
    minus = np.flatnonzero((c < mirror) | (fixed & (sign < 0)))
    first = np.concatenate([plus, minus])
    index = np.stack([first, mirror[first]])
    w = np.where(fixed[first], 0.5, math.sqrt(0.5))
    weights = np.stack([w, np.concatenate([sign[plus], -sign[minus]]) * w])[:, :, None]
    index.flags.writeable = weights.flags.writeable = False
    return index, weights, int(lapack.dgeev_lwork(n, compute_vl=0, compute_vr=0)[0])


def _basis_rows(M: np.ndarray, index: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Q' M for the basis Q that ``index`` and ``weights`` describe."""
    X = M[index]
    X *= weights
    return X[0] + X[1]


def full_spectrum_oracle(ring: RingSystem) -> np.ndarray:
    """Eigenvalues (with multiplicity) of the 2n x 2n linearization
    A = -JJ D2V(a), by one n x n eigensolve.

    Independent cross-check for the block analysis: the spectrum should be
    the multiset {i nu : det m_k(nu) = 0, k = 1..n}.  It uses no Fourier
    reduction and no block coefficient, only the dense ``hessian_V`` and a
    symmetry that V has for every potential: the reflection
    kappa: q_j -> conj(q_{n-j}).  As the real map R (sites j -> n - j mod n,
    y -> -y) it fixes the rotating wave and commutes with D2V(a), while
    R JJ R = -JJ; so R A R = -A.  Sites n and, for even n, n/2 are fixed by
    it; every other site is paired with its mirror, and each eigenspace of
    R has dimension n.  In orthonormal bases P (+1) and M (-1), built by
    gathers and signed sums with weights 1/sqrt(2), A is [[0, B], [C, 0]]
    with B = P'AM and C = M'AP, so its characteristic polynomial is
    det(lambda^2 - B C): the spectrum is the multiset +-sqrt(eig(B C)),
    square roots taken in complex arithmetic.

    The premise is checked on every call: the discarded blocks P'AP and
    M'AM must stay within 64 eps of the largest entry of B and C (or of 1).
    Otherwise, or when the Hessian or those blocks are not finite,
    ``BrokenReflection`` is raised with the reason.  B and C are scaled by a
    power of two (at most 2^-1023) before their product, which is exact and
    keeps B C finite for any finite A.
    """
    a_bar, _ = standing_wave(ring)
    H = hessian_V(ring, a_bar)
    if not np.isfinite(H).all():
        raise BrokenReflection("the Hessian at the rotating wave is not finite")
    # -JJ H row by row, -J2 (v0, v1) = (v1, -v0)
    A = np.empty_like(H)
    A[0::2] = H[1::2]
    A[1::2] = -H[0::2]
    n = ring.n
    index, weights, lwork = _reflection_basis(n)
    # [[P'AP, P'AM], [M'AP, M'AM]]; entries near the float limit may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        Y = _basis_rows(_basis_rows(A, index, weights).T, index, weights).T
    (pp, pm), (mp, mm) = np.abs(Y).reshape(2, n, 2, n).max(axis=(1, 3)).tolist()
    if not all(map(math.isfinite, (pp, pm, mp, mm))):
        raise BrokenReflection("the blocks of -JJ D2V(a) in the reflection basis overflow")
    bound = _REFLECTION_TOL * max(1.0, pm, mp)
    if max(pp, mm) > bound:
        raise BrokenReflection(
            f"D2V(a) is not invariant under the ring reflection: the blocks "
            f"P'AP and M'AM reach {max(pp, mm):.3g} against a bound of {bound:.3g}")
    e = min(math.frexp(max(pm, mp))[1], 1023)   # 2^1024 is not a float
    Y = np.ldexp(Y, -e)
    # LAPACK directly: np.linalg.eigvals costs 15 us more a call, which at
    # n <= 8 is more than the halved eigensolve saves
    wr, wi, _, _, info = lapack.dgeev(Y[:n, n:] @ Y[n:, :n], compute_vl=0, compute_vr=0,
                                      lwork=lwork)
    if info > 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    lam = np.sqrt(wr + 1j * wi)
    lam *= math.ldexp(1.0, e)
    return np.concatenate((lam, -lam))


def spectrum_max_real(eigenvalues: np.ndarray) -> float:
    """Largest |real part| of the spectrum, measured on the means of clusters
    of radius 1e-6.

    Defective double eigenvalues (the rotation zero; every root when n = 4)
    split by O(sqrt(eps)) under rounding, so raw real parts of a stable
    spectrum can reach ~1e-7.  Averages of eigenvalue clusters perturb
    linearly, so comparing cluster means against a 1e-8 threshold is
    numerically sound.
    """
    ev = np.asarray(eigenvalues, dtype=complex)
    remaining = np.arange(len(ev))
    worst = 0.0
    while remaining.size:
        # greedy: the first remaining eigenvalue and all within the radius
        # of it, in index order
        near = np.abs(ev[remaining] - ev[remaining[0]]) < _CLUSTER_RADIUS
        near[0] = True
        worst = max(worst, abs(np.mean(ev[remaining[near]]).real))
        remaining = remaining[~near]
    return float(worst)


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    margin: float
    method: str


def linear_stability(ring: RingSystem) -> StabilityVerdict:
    """Closed-form linear stability of the rotating wave.

    n >= 5: stable iff mu^2 h'(mu^2) < alpha_1 / 2;
    n  = 3: stable iff alpha_1 / 2 < mu^2 h'(mu^2);
    n  = 4: every block determinant is -(gamma_k - nu)^2 with real double
            roots, so the spectrum is purely imaginary for every amplitude.
    The margin is the distance of mu^2 h'(mu^2) to the threshold.
    """
    x = mu_h_prime(ring)
    if ring.n == 4:
        return StabilityVerdict(stable=True, margin=np.inf, method="real-roots-n4")
    half_alpha1 = coefficients(ring.n, 1).alpha / 2.0
    if ring.n == 3:
        return StabilityVerdict(stable=bool(x > half_alpha1),
                                margin=float(x - half_alpha1), method="threshold-n3")
    return StabilityVerdict(stable=bool(x < half_alpha1),
                            margin=float(half_alpha1 - x), method="threshold")
