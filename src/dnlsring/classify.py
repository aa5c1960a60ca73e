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
from dataclasses import dataclass
from typing import NamedTuple

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
    has_delta = blocks._coefficient_table(n).has_delta
    return tuple((k, mu_k) for k in range(1, n) if has_delta[k - 1]
                 for mu_k in blocks.degenerate_amplitudes(n, k, potential))


# regime tags and the admissibility note of each, indexed by _Classification.regime
_REGIMES = ("", "generic-a", "generic-b", "n3-a", "n3-b")
_NOTES = ("", ADMISSIBILITY_NOTE, "", ADMISSIBILITY_NOTE, "")
_ROOTS = ("minus", "plus")


class _Classification(NamedTuple):
    """The classification of an amplitude grid mu_1..mu_m at one (n, potential).

    Per mu: ``stable`` (the ``blocks.linear_stability`` verdict) and
    ``degenerate_k``, the first mode in ``_degenerate_table`` order whose
    degenerate amplitude lies within 1e-10 of mu, or 0.  Per (mu, k - 1,
    root), root 0 = minus and 1 = plus: ``nu``, ``period`` and ``eta``,
    where eta is the nonzero index jump of a forced bifurcation point at
    nu > 0 and 0 where there is none (period is nan there).  In C order the
    points of one mu come in (k, nu) order.  Per (mu, k - 1): ``regime``,
    an index into ``_REGIMES`` and ``_NOTES``.
    """

    stable: np.ndarray
    degenerate_k: np.ndarray
    nu: np.ndarray
    period: np.ndarray
    eta: np.ndarray
    regime: np.ndarray

    def points(self, keep) -> tuple[list, ...]:
        """Columns i, k, root, nu, period, eta, regime, note (lists of Python
        values) of the points of the mus that are not degenerate which the
        (mu, k - 1, root) mask ``keep`` selects, in C order."""
        keep = keep & (self.eta != 0) & (self.degenerate_k == 0)[:, None, None]
        i, k, root = np.nonzero(keep)
        tags = self.regime[i, k].tolist()
        return (i.tolist(), (k + 1).tolist(), [_ROOTS[r] for r in root.tolist()],
                self.nu[keep].tolist(), self.period[keep].tolist(), self.eta[keep].tolist(),
                [_REGIMES[t] for t in tags], [_NOTES[t] for t in tags])


def _classify(n: int, potential, mus) -> _Classification:
    """One array pass over the (mu, k) pairs of an amplitude grid.

    x = mu^2 h'(mu^2) is formed per mu exactly as ``blocks.mu_h_prime`` forms
    it: s = mu ** 2 element by element and one scalar call of h' per mu.  An
    array ``mus ** 2`` rounds differently from ``mu ** 2`` for some mu, and
    so does an array call of h' (numpy squares an array where it calls pow
    on a scalar); either would change printed frequencies.  Everything after
    x is elementwise float arithmetic, so every value has the bits of the
    per-mode ``blocks.critical_frequencies`` and ``blocks.eta``.
    """
    table = blocks._coefficient_table(n)
    alpha, gamma, delta = table.alpha, table.gamma, table.delta
    s = [mu ** 2 for mu in mus]
    h_prime = np.array([float(potential.h_prime(si)) for si in s])
    x = np.array(s, dtype=float) * h_prime
    X = x[:, None]

    rad = alpha * (alpha - 2.0 * X)
    simple = rad > blocks._DEGENERATE_TOL
    root = np.sqrt(np.where(simple, rad, 0.0))
    nu = np.stack([gamma - root, gamma + root], axis=-1)
    side = np.where(nu < gamma[:, None], 1, -1)
    jump = (np.sign(h_prime)[:, None] * np.sign(X - alpha))[..., None] * side
    eta = np.where(simple[..., None] & (nu > 0.0), jump, 0.0).astype(int)
    period = np.divide(2.0 * np.pi, nu, out=np.full_like(nu, np.nan), where=eta != 0)

    if n == 3:
        regime = np.where(X > 0.0, 3, np.where((alpha / 2.0 < X) & (X < 0.0), 4, 0))
    else:
        regime = np.where(X < delta, 1, np.where((delta < X) & (X < alpha / 2.0), 2, 0))
    regime = np.where(table.has_delta, regime, 0)

    half_alpha1 = alpha[0] / 2.0   # the thresholds of blocks.linear_stability
    if n == 4:
        stable = np.full(len(x), True)
    else:
        stable = x > half_alpha1 if n == 3 else x < half_alpha1

    degenerate = _degenerate_table(n, potential)
    degenerate_k = np.zeros(len(x), dtype=int)
    if degenerate:
        ks, mu_ks = np.array(degenerate).T
        hit = np.abs(np.array(mus, dtype=float)[:, None] - mu_ks) <= _DEGENERATE_MU_TOL
        degenerate_k = np.where(hit.any(axis=1), ks[hit.argmax(axis=1)], 0).astype(int)
    return _Classification(stable=stable, degenerate_k=degenerate_k, nu=nu, period=period,
                           eta=eta, regime=regime)


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
    c = _classify(n, ring.potential, [ring.mu])
    if c.degenerate_k[0]:
        raise DegenerateAmplitude(ring.mu, int(c.degenerate_k[0]))
    return [BifurcationPoint(k=k, nu=nu, period=period, eta=eta,
                             isotropy=IsotropyLabel(n=n, k=k), regime=regime,
                             admissibility_note=note, root=root)
            for k, root, nu, period, eta, regime, note in zip(*c.points(True)[1:])]


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
    stability = stability_interval(n, potential)
    entries: list[RegimeEntry] = []
    if n == 3:
        for k in (1, 2):
            entries.append(RegimeEntry(k=k, condition="a", mu_interval=(0.0, math.inf),
                                       two_sided=False))
        return RegimeReport(n=3, potential_kind="cubic", entries=tuple(entries),
                            excluded=(), stability=stability)
    if n == 4:
        return RegimeReport(n=4, potential_kind="cubic", entries=(), excluded=(),
                            stability=stability,
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
    return RegimeReport(n=n, potential_kind="cubic", entries=tuple(entries),
                        excluded=_degenerate_table(n, potential), stability=stability)


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
    stability = stability_interval(n, potential)
    if n == 3:
        entries = (
            RegimeEntry(k=1, condition="b", mu_interval=(0.0, math.inf), two_sided=True),
            RegimeEntry(k=2, condition="b", mu_interval=(0.0, math.inf),
                        two_sided=False, mirror_of=1),
        )
        return RegimeReport(n=3, potential_kind="saturable", entries=entries,
                            excluded=(), stability=stability)
    if n == 4:
        return RegimeReport(n=4, potential_kind="saturable", entries=(), excluded=(),
                            stability=stability,
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
    return RegimeReport(n=n, potential_kind="saturable", entries=tuple(entries),
                        excluded=_degenerate_table(n, potential), stability=stability,
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
