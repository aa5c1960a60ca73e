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
    "spectrum_max_real",
    "linear_stability",
]

_SINGULAR_TOL = 1e-12   # |det| below this counts as a singular block
_DEGENERATE_TOL = 1e-12  # radicand below this counts as a double root
# the parts of -JJ D2V(a) that the ring reflection and half-turn force to zero
# may reach this many ulps of the largest entry
_REFLECTION_TOL = 64.0 * np.finfo(float).eps
_S_RANGE = (0.0, 100.0)  # the range of s = mu^2 that custom potentials are scanned over
_CLUSTER_RADIUS = 1e-6   # clusters of spectrum_max_real, relative to max(1, max |ev|)

# Hermitian realization of the rotation generator
IJ = np.array([[0.0, -1.0j], [1.0j, 0.0]])


class SingularBlock(ArithmeticError):
    """Raised when a Morse index is requested at a singular block."""


class SearchRangeExhausted(RuntimeError):
    """Root search for a custom potential hit the end of its bracket range."""


class BrokenReflection(RuntimeError):
    """The stability oracle's premise check failed: the Hessian at the
    rotating wave is not finite, or not invariant under the ring reflection
    or (for even n) the half-turn that the sector reduction relies on."""


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


@functools.lru_cache(maxsize=16)
def _symmetry_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis Q of R^2n adapted to the symmetries of the rotating
    wave, as read-only index arithmetic.

    The group is {1, R} for odd n and the Klein group {1, R, S, RS} for even
    n.  R takes coordinate c (site c // 2, counted from 0) to the same
    component of site (n - 2 - c // 2) mod n, negated for y; S takes it to
    that of site c // 2 + n/2, negated; so g e_c = sign e_image for each
    element g.  A sector is a character of the group, a sign for R and, for
    even n, one for S; the sectors are ordered R's sign first: (+), (-) for
    odd n and (+, +), (+, -), (-, +), (-, -) for even n.  Column q of sector
    k is the normalized projection of e_c onto it, c the smallest coordinate
    of its orbit: sum_g weights[k, g, q] e_{index[k, g, q]}, arrays of shape
    (sectors, group order, 2n / sectors).  Its weights are +-1/sqrt(orbit
    size) (1/2 on an orbit of 4, 1/sqrt(2) on one of 2, 1 on a coordinate
    that R fixes for odd n) and 0 where an element repeats a coordinate.  An
    orbit smaller than the group has a column only in the sectors whose sign
    for its stabilizer is the sign the stabilizer multiplies it by.
    """
    c = np.arange(2 * n)
    site, y = c // 2, c % 2
    mirror = 2 * ((n - 2 - site) % n) + y
    flip = 1.0 - 2.0 * y
    if n % 2:
        image = np.stack((c, mirror))
        sign = np.stack((np.ones(2 * n), flip))
        characters = np.array([[1, 1], [1, -1]])
    else:
        turn = 2 * ((site + n // 2) % n) + y
        image = np.stack((c, mirror, turn, mirror[turn]))
        sign = np.stack((np.ones(2 * n), flip, -np.ones(2 * n), -flip))
        characters = np.array([[1, r, s, r * s] for r in (1, -1) for s in (1, -1)])
    rep = np.flatnonzero(image.min(axis=0) == c)
    image, sign = image[:, rep], sign[:, rep]
    repeat = np.array([(image[g] == image[:g]).any(axis=0) for g in range(len(image))])
    size = (~repeat).sum(axis=0)
    index, weights = [], []
    for character in characters:
        w = character[:, None] * sign
        # an element g with character(g) g e_c = -e_c annihilates the projection
        kept = ((image != rep) | (w == 1.0)).all(axis=0)
        index.append(image[:, kept])
        weights.append(np.where(repeat, 0.0, w * np.sqrt(1.0 / size))[:, kept])
    index, weights = np.array(index), np.array(weights)
    index.flags.writeable = weights.flags.writeable = False
    return index, weights


@functools.lru_cache(maxsize=16)
def _sector_gather(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(flat, weight, source)`` with which ``np.bincount(flat, weight *
    values[source])`` is Y, of shape (sectors, m, m) with m = 2n / sectors,
    where Y[k] = Q_k' A Q_l, Q_k the columns of sector k and l the sector of
    the other sign for R and the same for S, for A = -JJ D2V(a).  ``values``
    is the (n, 2, 2) array of A's on-site blocks, flattened, followed by 1
    and -1.  Row c of A (site i, component y) has its on-site entries in
    coordinates 2i, 2i + 1 and its neighbour entries, 1 - 2y, in 2(i +- 1) + 1
    - y mod 2n, so each weighted coordinate of a column of Q_k gives four
    terms, each kept where the partner sector has a column on its target."""
    index, weights = _symmetry_basis(n)
    sectors, _, m = index.shape
    column = np.zeros((sectors, 2 * n), dtype=np.intp)
    weight_of = np.zeros((sectors, 2 * n))
    for k in range(sectors):
        nonzero = weights[k] != 0.0
        column[k, index[k][nonzero]] = np.nonzero(nonzero)[1]
        weight_of[k, index[k][nonzero]] = weights[k][nonzero]
    i, y = index // 2, index % 2
    target = np.stack((2 * i, 2 * i + 1, 2 * ((i + 1) % n) + 1 - y,
                       2 * ((i - 1) % n) + 1 - y), axis=-1)
    source = np.stack((4 * i + 2 * y, 4 * i + 2 * y + 1, 4 * n + y, 4 * n + y), axis=-1)
    k = np.arange(sectors)[:, None, None, None]
    partner = (k + sectors // 2) % sectors
    weight = weights[..., None] * weight_of[partner, target]
    flat = (k * m + np.arange(m)[:, None]) * m + column[partner, target]
    kept = weight != 0.0
    return flat[kept], weight[kept], source[kept]


def full_spectrum_oracle(ring: RingSystem) -> np.ndarray:
    """Eigenvalues (with multiplicity) of the 2n x 2n linearization
    A = -JJ D2V(a), by n/2 x n/2 ``np.linalg.eigvals`` calls, two for even
    n, or one n x n call for odd n.

    Independent cross-check for the block analysis: the spectrum should be
    the multiset {i nu : det m_k(nu) = 0, k = 1..n}.  It uses no Fourier
    reduction, no block coefficient and no dense Hessian, only the on-site
    2x2 blocks of D2V(a) (those ``hessian_V`` writes), the constant
    neighbour blocks and symmetries that V has for every potential.  The
    reflection kappa: q_j -> conj(q_{n-j}), as the real map R (sites
    j -> n - j mod n, y -> -y), fixes the rotating wave and commutes with
    D2V(a), while R JJ R = -JJ; so R A R = -A.  For even n the half-turn
    (S x)_j = -x_{j+n/2} fixes the wave too (a_{j+n/2} = -a_j) and commutes
    with D2V(a), JJ and R.  The traces of R, S and RS vanish, so in the
    basis of ``_symmetry_basis`` (gathers and signed sums with weights 1/2
    or 1/sqrt(2)) each joint eigenspace, a sector, has dimension n/2 (two of
    dimension n for odd n).  A maps the sector (r, s) into (-r, s): in the
    basis [Q_{+,s}, Q_{-,s}] it is [[0, B_s], [C_s, 0]], so its
    characteristic polynomial is the product over s of det(lambda^2 - B_s
    C_s) and the spectrum is the multiset +-sqrt(eig(B_s C_s)), square
    roots taken in complex arithmetic.  B_s and C_s are gathered from the
    site blocks by index arithmetic; no array has 2n rows.

    The premise is checked on every call, on the site blocks: the parts of
    A that the reduction discards, E_R = (A + RAR)/2 (its entries are those
    of P'AP and M'AM in the basis of R alone, P and M its +1 and -1
    eigenspaces) and, for even n, E_S = (A - SAS)/2, must stay within 64 eps
    of the largest entry of the B_s and C_s (or of 1).  The neighbour blocks
    have both symmetries exactly; the discarded blocks in the group basis,
    P'AP and M'AM within each sector and the part odd under S, are those of
    E_R + (E_S - R E_S R)/2, and vanish with E_R and E_S.  Otherwise, or when
    a site block or B_s, C_s is not finite, ``BrokenReflection`` is raised
    with the reason, naming the symmetry that fails.  The B_s and C_s are
    scaled by a power of two (at most 2^-1023) before their product, which
    is exact and keeps B_s C_s finite for any finite A.
    """
    n = ring.n
    D = _onsite_hessian(ring, _site_view(standing_wave(ring)[0]))
    if not np.isfinite(D).all():
        raise BrokenReflection("the Hessian at the rotating wave is not finite")
    # the site blocks of A = -JJ D2V(a), -J2 (v0, v1) = (v1, -v0) row by row
    site_A = np.stack((D[:, 1], -D[:, 0]), axis=1)
    sectors, _, m = _symmetry_basis(n)[0].shape
    flat, weight, source = _sector_gather(n)
    values = np.concatenate((site_A.ravel(), (1.0, -1.0)))
    Y = np.bincount(flat, weight * values[source], minlength=sectors * m * m)
    Y = Y.reshape(sectors, m, m)
    big = float(np.abs(Y).max())
    if not math.isfinite(big):
        raise BrokenReflection("the blocks of -JJ D2V(a) in the symmetry basis overflow")
    bound = _REFLECTION_TOL * max(1.0, big)
    # halves of the blocks cannot overflow; R's sign pattern on a 2x2 block
    half = 0.5 * site_A
    mirror = (-2 - np.arange(n)) % n
    defects = [("the ring reflection: the blocks P'AP and M'AM",
                half + np.array([[0.5, -0.5], [-0.5, 0.5]]) * site_A[mirror])]
    if n % 2 == 0:
        defects.append(("the ring's half-turn: the blocks odd under S",
                        half - 0.5 * np.roll(site_A, n // 2, axis=0)))
    for name, E in defects:
        defect = float(np.abs(E).max())
        if defect > bound:
            raise BrokenReflection(f"D2V(a) is not invariant under {name} reach "
                                   f"{defect:.3g} against a bound of {bound:.3g}")
    e = min(math.frexp(big)[1], 1023)   # 2^1024 is not a float
    Y = np.ldexp(Y, -e)
    # eigvals is real when every eigenvalue is: the roots of the negative
    # ones are imaginary, so the cast comes before the square root
    lam = np.concatenate([np.linalg.eigvals(B @ C).astype(complex)
                          for B, C in zip(Y[:sectors // 2], Y[sectors // 2:])])
    lam = np.sqrt(lam)
    lam *= math.ldexp(1.0, e)
    return np.concatenate((lam, -lam))


def _lone(ev: np.ndarray, radius: float) -> np.ndarray:
    """Mask of eigenvalues with no other one within ``radius``.  On a grid
    of cells of side 2 radius, a pair within the radius lies in neighbouring
    cells however the coordinates round, so an eigenvalue alone in its 3 x 3
    block of cells is marked; some lone ones sharing a block with a farther
    one are not.  An eigenvalue that is not finite is within no radius of
    another, and a radius of 0 or nan holds nothing."""
    if not radius > 0.0:
        return np.ones(ev.shape, dtype=bool)
    lone = ~np.isfinite(ev)
    side = 2.0 * radius
    # |ev| <= radius / _CLUSTER_RADIUS, so the cell numbers stay small integers
    cx = np.floor(ev.real[~lone] / side).astype(np.int64)
    cy = np.floor(ev.imag[~lone] / side).astype(np.int64)
    cy -= cy.min(initial=0)
    width = cy.max(initial=0) + 3   # cy +- 1 never reaches the next column
    key = cx * width + cy
    ordered = np.sort(key)
    count = sum(np.searchsorted(ordered, key + dx + 1, "right")
                - np.searchsorted(ordered, key + dx - 1, "left")
                for dx in (-width, 0, width))
    lone[~lone] = count == 1
    return lone


def spectrum_max_real(eigenvalues: np.ndarray) -> float:
    """Largest |real part| of the spectrum, measured on the means of clusters
    of radius 1e-6 max(1, max |eigenvalue|).

    Defective double eigenvalues (the rotation zero; every root when n = 4)
    split under rounding by O(sqrt(eps)) times the norm of the
    linearization, which grows with the on-site term mu^2 h' faster than
    the spectrum does.  For cubic n = 3 at mu = 1..9 and for h = -s at
    n = 6 at mu = 0.5..40 the split stays below 3.3e-7 max(1, max
    |eigenvalue|), but it outgrows the radius from mu = 51 at cubic n = 3.
    An unstable pair +-lambda lies 2 |Re lambda| apart, far outside it.
    Averages of eigenvalue clusters perturb linearly, so comparing cluster
    means against a 1e-8 threshold is numerically sound.

    The clusters are greedy, in index order: the first remaining eigenvalue
    and every remaining one within the radius of it.  An eigenvalue with no
    other within the radius is a cluster of its own wherever it stands in
    that order, so these are found first on a grid (O(n log n) time, O(n)
    memory) and the greedy loop runs on the rest only; the result is the
    loop's over all eigenvalues, bit for bit.  A nan is a cluster of its own
    and never the largest; nan, +-inf and a zero radius raise no warning.
    """
    ev = np.asarray(eigenvalues, dtype=complex)
    # 0 * inf radius; differences of infinite or huge eigenvalues
    with np.errstate(invalid="ignore", over="ignore"):
        # fmax skips a nan eigenvalue
        radius = _CLUSTER_RADIUS * np.fmax.reduce(np.abs(ev), initial=1.0)
        lone = _lone(ev, radius)
        worst = np.fmax.reduce(np.abs(ev.real[lone]), initial=0.0)
        remaining = np.flatnonzero(~lone)
        while remaining.size:
            near = np.abs(ev[remaining] - ev[remaining[0]]) < radius
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
