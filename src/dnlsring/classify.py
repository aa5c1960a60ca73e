"""Per-instance bifurcation reports for the oscillator ring.

A nonzero Morse-index jump at a positive critical frequency nu forces a
global branch of periodic solutions of period 2*pi/nu with isotropy
Z~_n(k).  This module enumerates those points for a concrete (n, mu,
potential), and produces the amplitude-regime tables for the cubic and
saturable potentials.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import blocks
from .model import RingSystem, cubic_potential, saturable_potential
from .symmetry import IsotropyLabel

__all__ = [
    "DegenerateAmplitude",
    "BifurcationPoint",
    "RegimeEntry",
    "RegimeReport",
    "enumerate_bifurcations",
    "schrodinger_regimes",
    "saturable_regimes",
    "stability_interval",
    "ADMISSIBILITY_NOTE",
]

# attached to single-branch (condition (a)) points; the matching two-branch
# points carry no admissibility caveat
ADMISSIBILITY_NOTE = "non-admissible or connects to another equilibrium"

_DEGENERATE_MU_TOL = 1e-10


class DegenerateAmplitude(ValueError):
    """The requested amplitude coincides with a degenerate mu_k."""

    def __init__(self, mu: float, k: int):
        super().__init__(
            f"mu = {mu} is within {_DEGENERATE_MU_TOL} of the degenerate amplitude "
            f"mu_{k}; the bifurcation theorem hypotheses fail there")
        self.mu = mu
        self.k = k


@dataclass(frozen=True)
class BifurcationPoint:
    """A forced bifurcation of periodic orbits at frequency nu > 0."""

    k: int
    nu: float
    period: float
    eta: int
    isotropy: IsotropyLabel
    regime: str
    admissibility_note: str = ""
    root: str = "plus"  # which branch of nu = gamma_k +- sqrt(rad)


@dataclass(frozen=True)
class RegimeEntry:
    """Amplitude interval on which mode k satisfies condition (a) or (b)."""

    k: int
    condition: str                 # "a" (single nu_+) or "b" (both nu_+-)
    mu_interval: tuple[float, float]
    two_sided: bool                # positive frequencies actually occur here
    mirror_of: int | None = None   # partner mode carrying the positive pair


@dataclass(frozen=True)
class RegimeReport:
    n: int
    potential_kind: str
    entries: tuple[RegimeEntry, ...]
    excluded: tuple[tuple[int, float], ...]   # degenerate (k, mu_k)
    stability: tuple[tuple[float, float], ...]
    notes: tuple[str, ...] = ()


@functools.lru_cache(maxsize=8)
def _degenerate_table(n: int, potential) -> tuple[tuple[int, float], ...]:
    """Degenerate amplitudes (k, mu_k) of every mode; they depend on (n,
    potential) only, so a sweep over mu computes them once."""
    out = []
    for k in range(1, n):
        c = blocks.coefficients(n, k)
        if c.delta is None:
            continue
        for mu_k in blocks.degenerate_amplitudes(n, k, potential):
            out.append((k, mu_k))
    return tuple(out)


def _regime_tag(n: int, k: int, x: float) -> str | None:
    """Active condition for mode k at x = mu^2 h'(mu^2), or None."""
    c = blocks.coefficients(n, k)
    if c.delta is None:
        return None
    if n == 3:
        if x > 0.0:
            return "n3-a"
        if c.alpha / 2.0 < x < 0.0:
            return "n3-b"
        return None
    if x < c.delta:
        return "generic-a"
    if c.delta < x < c.alpha / 2.0:
        return "generic-b"
    return None


def enumerate_bifurcations(ring: RingSystem) -> list[BifurcationPoint]:
    """All forced bifurcation points of the rotating wave, ordered by (k, nu).

    Every positive critical frequency with a nonzero index jump is listed,
    for k = 1..n-1.  For n = 4 there is no Morse-index jump and the list is
    empty; mode k = n never contributes.

    Raises
    ------
    DegenerateAmplitude
        When mu is within 1e-10 of a degenerate amplitude mu_k.
    """
    n = ring.n
    for k, mu_k in _degenerate_table(n, ring.potential):
        if abs(ring.mu - mu_k) <= _DEGENERATE_MU_TOL:
            raise DegenerateAmplitude(ring.mu, k)
    points: list[BifurcationPoint] = []
    x = blocks.mu_h_prime(ring)
    for k in range(1, n):
        cf = blocks.critical_frequencies(ring, k)
        if cf.degenerate:
            continue
        tag = _regime_tag(n, k, x)
        for nu, root in zip(cf.nus, ("minus", "plus")):
            if nu <= 0.0:
                continue
            jump = blocks.eta(ring, k, nu)
            if jump == 0:
                continue
            note = ADMISSIBILITY_NOTE if tag in ("generic-a", "n3-a") else ""
            points.append(BifurcationPoint(
                k=k, nu=float(nu), period=float(2.0 * np.pi / nu), eta=jump,
                isotropy=IsotropyLabel(n=n, k=k), regime=tag or "",
                admissibility_note=note, root=root))
    points.sort(key=lambda pt: (pt.k, pt.nu))
    return points


def _interval(lo: float, hi: float) -> tuple[float, float] | None:
    return (lo, hi) if hi > lo else None


def schrodinger_regimes(n: int) -> RegimeReport:
    """Amplitude regimes for the cubic potential (mu^2 h' = mu^2 > 0).

    For n >= 5: modes 3..n-3 bifurcate one-sidedly on (0, sqrt(delta_k)) and
    two-sidedly on (sqrt(delta_k), sqrt(alpha_k/2)); modes {1, 2} and their
    mirrors are two-sided on (0, sqrt(alpha_k/2)).  For n = 3 condition (a)
    holds for every amplitude.  n = 4 has no bifurcations.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    potential = cubic_potential()
    entries: list[RegimeEntry] = []
    if n == 3:
        for k in (1, 2):
            entries.append(RegimeEntry(k=k, condition="a", mu_interval=(0.0, math.inf),
                                       two_sided=False))
        stability = ((0.0, math.inf),)
        return RegimeReport(n=3, potential_kind="cubic", entries=tuple(entries),
                            excluded=(), stability=stability)
    if n == 4:
        return RegimeReport(n=4, potential_kind="cubic", entries=(), excluded=(),
                            stability=((0.0, math.inf),),
                            notes=("every block has a degenerate double root; "
                                   "no Morse-index jump for n = 4",))
    for k in range(1, n):
        c = blocks.coefficients(n, k)
        mirror = n - k if k > n // 2 else None
        gamma_pos = c.gamma > 0.0
        if c.delta is not None and c.delta > 0.0:
            entries.append(RegimeEntry(k=k, condition="a",
                                       mu_interval=(0.0, math.sqrt(c.delta)),
                                       two_sided=False, mirror_of=mirror))
            iv = _interval(math.sqrt(c.delta), math.sqrt(c.alpha / 2.0))
            if iv is not None:
                entries.append(RegimeEntry(k=k, condition="b", mu_interval=iv,
                                           two_sided=gamma_pos, mirror_of=mirror))
        else:
            entries.append(RegimeEntry(k=k, condition="b",
                                       mu_interval=(0.0, math.sqrt(c.alpha / 2.0)),
                                       two_sided=gamma_pos, mirror_of=mirror))
    excluded = _degenerate_table(n, potential)
    half_alpha1 = blocks.coefficients(n, 1).alpha / 2.0
    return RegimeReport(n=n, potential_kind="cubic", entries=tuple(entries),
                        excluded=excluded,
                        stability=((0.0, math.sqrt(half_alpha1)),))


def saturable_regimes(n: int) -> RegimeReport:
    """Amplitude regimes for the saturable potential.

    mu^2 h'(mu^2) = -s/(1+s)^2 lies in [-1/4, 0), so modes with delta_k >= 0
    (k = 2..n-2) satisfy condition (a) for every amplitude.  Mode 1 (and its
    mirror) depends on delta_1 vs -1/4: for n >= 16 condition (a) holds on
    (mu_-, mu_+) and condition (b) outside; for 5 <= n <= 15, with the
    convention mu_- = mu_+ = 0, condition (b) holds for every amplitude.
    For n = 3 condition (b) holds for every amplitude on mode 1.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    potential = saturable_potential()
    if n == 3:
        entries = (
            RegimeEntry(k=1, condition="b", mu_interval=(0.0, math.inf), two_sided=True),
            RegimeEntry(k=2, condition="b", mu_interval=(0.0, math.inf),
                        two_sided=False, mirror_of=1),
        )
        return RegimeReport(n=3, potential_kind="saturable", entries=entries,
                            excluded=(), stability=((0.0, math.inf),))
    if n == 4:
        return RegimeReport(n=4, potential_kind="saturable", entries=(), excluded=(),
                            stability=((0.0, math.inf),),
                            notes=("every block has a degenerate double root; "
                                   "no Morse-index jump for n = 4",))
    entries = []
    notes: list[str] = []
    delta1 = blocks.coefficients(n, 1).delta
    boundary = blocks.degenerate_amplitudes(n, 1, potential) if delta1 > -0.25 else ()
    for k in range(1, n):
        mirror = n - k if k > n // 2 else None
        gamma_pos = blocks.coefficients(n, k).gamma > 0.0
        if k in (1, n - 1):
            if boundary:
                mu_lo, mu_hi = boundary
                entries.append(RegimeEntry(k=k, condition="b", mu_interval=(0.0, mu_lo),
                                           two_sided=gamma_pos, mirror_of=mirror))
                entries.append(RegimeEntry(k=k, condition="a", mu_interval=(mu_lo, mu_hi),
                                           two_sided=False, mirror_of=mirror))
                entries.append(RegimeEntry(k=k, condition="b", mu_interval=(mu_hi, math.inf),
                                           two_sided=gamma_pos, mirror_of=mirror))
            else:
                entries.append(RegimeEntry(k=k, condition="b", mu_interval=(0.0, math.inf),
                                           two_sided=gamma_pos, mirror_of=mirror))
        else:
            entries.append(RegimeEntry(k=k, condition="a", mu_interval=(0.0, math.inf),
                                       two_sided=False, mirror_of=mirror))
    if boundary:
        notes.append(f"mu_- = {boundary[0]:.6f}, mu_+ = {boundary[1]:.6f} solve "
                     "mu^2 h'(mu^2) = delta_1; their product is 1")
    else:
        notes.append("delta_1 <= -1/4 for this n, so with the convention "
                     "mu_- = mu_+ = 0 condition (b) holds for every amplitude of mode 1")
    excluded = _degenerate_table(n, potential)
    return RegimeReport(n=n, potential_kind="saturable", entries=tuple(entries),
                        excluded=excluded, stability=((0.0, math.inf),),
                        notes=tuple(notes))


def stability_interval(n: int, potential) -> tuple[tuple[float, float], ...]:
    """Amplitude intervals on which the rotating wave is linearly stable.

    Custom potentials compare s h'(s) with alpha_1/2 on the default scan grid
    of ``blocks.degenerate_amplitudes`` (one array call of h' serves both),
    with endpoints refined by brentq to 1e-12.  An interval starts at 0 when
    the first sample with s > 0 is stable and ends at inf when the last one
    is.  Samples where s h'(s) is nan or infinite are unstable; an endpoint
    next to one stays at the grid point.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    kind = getattr(potential, "kind", "custom")
    if n == 4:
        return ((0.0, math.inf),)
    half_alpha1 = blocks.coefficients(n, 1).alpha / 2.0
    # n = 3: stable iff mu^2 h'(mu^2) > alpha_1/2 = -3/4; n >= 5: iff below
    if kind == "saturable" or (kind == "cubic" and n == 3):
        return ((0.0, math.inf),)
    if kind == "cubic":
        return ((0.0, math.sqrt(half_alpha1)),)
    _, f, edge = blocks._level_set(potential, half_alpha1)
    stable = f > 0.0 if n == 3 else f < 0.0
    stable[0] = stable[1]  # s = 0 is mu = 0; the first sample with s > 0 decides
    edges = [edge(i) for i in np.flatnonzero(stable[1:] != stable[:-1])]
    if stable[0]:
        edges.insert(0, 0.0)
    if stable[-1]:
        edges.append(math.inf)
    return tuple((math.sqrt(lo), math.sqrt(hi)) for lo, hi in zip(edges[0::2], edges[1::2]))
