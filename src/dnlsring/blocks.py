"""Spectral theory of the 2x2 Hermitian mode blocks.

In the mode basis the Hessian at the rotating wave splits into blocks

    B_k = -alpha_k I + gamma_k (iJ) + 2 mu^2 h'(mu^2) diag(1, 0),

with ``alpha_k = 4 cos(zeta) sin^2(k zeta / 2)`` and
``gamma_k = 2 sin(k zeta) sin(zeta)``; the linearization block at frequency
nu is ``m_k(nu) = -nu (iJ) + B_k``.  Everything downstream (Morse indices,
index jumps, critical frequencies, degenerate amplitudes, linear stability)
is closed form in these coefficients, whose structural zeros are decided
by integer rules on (n, k).

``full_spectrum_oracle`` checks that analysis by the ring's rotation, the
shift by one site with a turn by zeta.  In the co-rotating frame the Hessian
has three block diagonals that the rotation makes constant
(``_rotated_diagonals``), so the linearization -JJ D2V(a) is block
circulant and splits into one 2x2 symbol -J2 H_k per mode, whose
eigenvalues are closed form.  The CLI's ``blocks`` reads the mode blocks off
the same diagonals.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import RingSystem, _onsite_hessian, _site_view, standing_wave

__all__ = [
    "SingularBlock",
    "SearchRangeExhausted",
    "BrokenReflection",
    "BlockCoefficients",
    "CriticalFrequencies",
    "StabilityVerdict",
    "coefficients",
    "block_B",
    "block_m",
    "det_trace",
    "morse_index",
    "critical_frequencies",
    "sigma",
    "eta",
    "mu_h_prime",
    "degenerate_amplitudes",
    "kernel_vector",
    "full_spectrum_oracle",
    "linear_stability",
]

_SINGULAR_TOL = 1e-12   # |det| below this counts as a singular block
_DEGENERATE_TOL = 1e-12  # radicand below this counts as a double root
# the spread along the ring of the rotated block diagonals of D2V(a), which
# the ring's rotation makes constant, may reach this many ulps of the largest entry
_SYMMETRY_TOL = 64.0 * np.finfo(float).eps
# rounding of -H00 H11 in the oracle's symbols, per unit of its terms' moduli
_ROUNDING = 8.0 * np.finfo(float).eps
_S_RANGE = (0.0, 100.0)  # the range of s = mu^2 that custom potentials are scanned over

# Hermitian realization of the rotation generator
IJ = np.array([[0.0, -1.0j], [1.0j, 0.0]])


class SingularBlock(ArithmeticError):
    """Raised when a Morse index is requested at a singular block."""


class SearchRangeExhausted(RuntimeError):
    """Root search for a custom potential hit the end of its bracket range."""


class BrokenReflection(RuntimeError):
    """The stability oracle's premise check failed: the Hessian at the
    rotating wave is not finite, or its block diagonals in the co-rotating
    frame are not constant along the ring, as the ring's rotation (the shift
    by one site with a turn by zeta) that splits it into symbols requires."""


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
    nan exactly where it is absent (alpha_k = 0)."""

    alpha: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray


@functools.lru_cache(maxsize=16)
def _coefficient_table(n: int) -> _CoefficientTable:
    """Read-only per-n table built from one ``coefficients`` call per mode.
    The scalar calls are kept on purpose: an array evaluation of
    sin(k zeta/2)**2 rounds differently from the scalar one in the last bit
    for a few hundred modes with n < 600."""
    cs = [coefficients(n, k) for k in range(1, n)]
    table = _CoefficientTable(
        alpha=np.array([c.alpha for c in cs]), gamma=np.array([c.gamma for c in cs]),
        delta=np.array([np.nan if c.delta is None else c.delta for c in cs]))
    for column in table:
        column.flags.writeable = False
    return table


def mu_h_prime(ring: RingSystem) -> float:
    """The combination mu^2 h'(mu^2) that all regime conditions compare."""
    return ring.mu ** 2 * ring.h_prime_mu2


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
    return int(np.sign(ring.h_prime_mu2))


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
    from scipy.optimize import brentq   # only custom potentials scan for a level

    s, x = _scan_grid(potential, samples)
    f = np.where(np.isfinite(x), x - level, np.nan)

    def edge(i):
        if np.isnan(f[i]) or np.isnan(f[i + 1]):
            return float(s[i + 1])
        return brentq(lambda t: t * float(potential.h_prime(t)) - level, s[i], s[i + 1],
                      xtol=1e-12, rtol=8.9e-16)

    return s, f, edge


def _level_amplitudes(potential, level: float) -> tuple[float, ...]:
    """The amplitudes mu > 0, ascending, with mu^2 h'(mu^2) = level, in closed
    form for the cubic (s) and saturable (-s/(1+s)^2) potentials."""
    if potential.kind == "cubic":
        return (float(np.sqrt(level)),) if level > 0 else ()
    # s/(1+s)^2 = -level  <=>  level s^2 + (2 level + 1) s + level = 0
    if level >= 0 or level < -0.25:
        return ()
    if level == -0.25:
        return (1.0,)
    # the large root has no cancellation; the roots' product is 1
    s_hi = (-(2.0 * level + 1.0) - np.sqrt(4.0 * level + 1.0)) / (2.0 * level)
    return float(np.sqrt(1.0 / s_hi)), float(np.sqrt(s_hi))


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
    if getattr(potential, "kind", "custom") in ("cubic", "saturable"):
        return _level_amplitudes(potential, delta)

    s, f, edge = _level_set(potential, delta, samples)
    with np.errstate(over="ignore"):   # an overflowing product keeps its sign
        bracketed = np.flatnonzero(f[:-1] * f[1:] < 0.0)
    roots = [edge(i) for i in bracketed]
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


def _rotated_diagonals(ring: RingSystem) -> np.ndarray:
    """The block diagonals d_m(j) = R_j' M_(j,j+m) R_(j+m), m = -1, 0, 1, of
    the Hessian M = D2V(a) at the rotating wave, as an array (3, 2, 2, n):
    diagonal m + 1, block entry, site j = 1..n, indices mod n.

    R_j is the rotation by j zeta, which takes e_1 to the wave's a_j.  d_0
    rotates the on-site blocks of ``model._onsite_hessian`` and d_(+-1) the
    neighbour blocks I.  The ring's rotation, the shift by one site with a
    turn by zeta, fixes a and commutes with D2V(a) for every potential, so
    each d_m is constant in j.  The sites run along the last, contiguous
    axis, where numpy sums pairwise; the products are einsum's loops, not
    the BLAS."""
    X = _site_view(standing_wave(ring)[0])
    c, s = X[:, 0], X[:, 1]
    R = np.array([[c, -s], [s, c]])
    D = np.moveaxis(_onsite_hessian(ring, X), 0, -1)
    return np.stack((np.einsum("apj,aqj->pqj", R, np.roll(R, 1, axis=-1)),
                     np.einsum("apj,abj,bqj->pqj", R, D, R),
                     np.einsum("apj,aqj->pqj", R, np.roll(R, -1, axis=-1))))


def full_spectrum_oracle(ring: RingSystem) -> np.ndarray:
    """Eigenvalues (with multiplicity) of the 2n x 2n linearization
    A = -JJ D2V(a), two for each mode k = 1..n, from its 2x2 symbols.

    Independent cross-check for the block analysis: the spectrum should be
    the multiset {i nu : det m_k(nu) = 0, k = 1..n}.  It uses no block
    coefficient and builds no matrix.  In the co-rotating frame x_j = R_j y_j
    the Hessian has the constant block diagonals d_m of
    ``_rotated_diagonals``, and J2 commutes with every R_j, so A is block
    circulant: on y_j = e^(i k j zeta) v it acts as -J2 H_k with the
    Hermitian symbol H_k = sum_m e^(i k m zeta) d_m, that is

        H_k = diag(4 sin^2(zeta/2) - 2 + 2 mu^2 h'(mu^2), 4 sin^2(zeta/2) - 2)
              + 2 cos(zeta) cos(k zeta) I + 2 sin(zeta) sin(k zeta) (iJ),

    by the equilibrium condition omega + h(mu^2) = 4 sin^2(zeta/2) and
    d_(+-1) = R(+-zeta).  H_k is evaluated by this formula: the rotation of
    the on-site blocks rounds their term 2 mu^2 h' into every entry of d_0,
    which would swamp H11 at large amplitude.  Its eigenvalues are
    i 2 sin(zeta) sin(k zeta) +- sqrt(-H00 H11), in closed form.  The root is
    taken as sqrt|H00| sqrt|H11|, real or imaginary by the signs, so it is
    finite wherever H_k is.  Each entry of H_k is summed from the terms
    above; with s00 and s11 the sums of their moduli, -H00 H11 is rounded by
    less than 8 eps (|H00| s11 + |H11| s00), and a pair within that bound is
    returned as its double root: the rotation zero (k = n) and, for n = 4,
    every pair.  A stable spectrum thus has real parts exactly 0, and an
    unstable one has its largest real part max_k sqrt(alpha_k (2 mu^2 h' -
    alpha_k)) to rounding, at any amplitude.

    The premise is checked on every call, on the rotated site blocks: the
    spread (max - min over the sites) of each entry of each d_m may reach 64
    eps times the largest entry, or 64 eps.  Otherwise, or when the Hessian
    is not finite, ``BrokenReflection`` is raised with the reason.
    """
    d = _rotated_diagonals(ring)
    if not np.isfinite(d).all():
        raise BrokenReflection("the Hessian at the rotating wave is not finite")
    spread = float(np.ptp(d, axis=-1).max())
    bound = _SYMMETRY_TOL * max(1.0, float(np.abs(d).max()))
    if spread > bound:
        raise BrokenReflection(f"D2V(a) is not invariant under the ring's rotation: its "
                               f"rotated block diagonals spread by {spread:.3g} against "
                               f"a bound of {bound:.3g}")
    theta = 2.0 * np.pi * (np.arange(1, ring.n + 1) % ring.n) / ring.n   # k zeta
    omega_h = 4.0 * np.sin(ring.zeta / 2.0) ** 2   # omega + h(mu^2)
    neighbour = 2.0 * np.cos(ring.zeta) * np.cos(theta)
    x2 = 2.0 * mu_h_prime(ring)
    H11 = omega_h - 2.0 + neighbour
    H00 = H11 + x2
    s11 = omega_h + 2.0 + np.abs(neighbour)
    s00 = s11 + abs(x2)
    root = np.sqrt(np.abs(H00)) * np.sqrt(np.abs(H11))
    # the factors are ordered so that the bound cannot overflow
    double = root <= np.sqrt(_ROUNDING * s11 * np.abs(H00) + _ROUNDING * s00 * np.abs(H11))
    lam = np.where(double, 0.0, root * np.where(np.signbit(H00) == np.signbit(H11), 1j, 1.0))
    i_gamma = 2j * np.sin(ring.zeta) * np.sin(theta)
    return np.concatenate((i_gamma + lam, i_gamma - lam))


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
