import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from dnlsring import blocks, cli
from dnlsring.blocks import (BrokenReflection, SearchRangeExhausted, SingularBlock,
                             block_B, block_m, coefficients, critical_frequencies,
                             degenerate_amplitudes, det_trace, eta,
                             full_spectrum_oracle, kernel_vector,
                             linear_stability, morse_index, mu_h_prime, sigma,
                             spectral_summary, spectrum_max_real)
from dnlsring.classify import _degenerate_table, stability_interval
from dnlsring.model import (RingSystem, block_symplectic, cubic_potential,
                            custom_potential, hessian_V, saturable_potential,
                            standing_wave)

CUBIC = cubic_potential()
SAT = saturable_potential()


def probe_eta(ring, k, nu):
    """Reference index jump by counting Morse indices at nu -+ rho, with rho
    small enough never to straddle both roots."""
    nus = critical_frequencies(ring, k).nus
    rho = min(1e-4 * max(1.0, abs(nu)), (nus[-1] - nus[0]) / 10.0)
    return sigma(ring) * (morse_index(ring, k, nu - rho) - morse_index(ring, k, nu + rho))


def closed_form_roots(ring):
    """All 2n roots of the block determinants, as eigenvalues i*nu."""
    x = mu_h_prime(ring)
    out = []
    for k in range(1, ring.n + 1):
        c = coefficients(ring.n, k)
        s = np.sqrt(complex(c.alpha * (c.alpha - 2 * x)))
        out.extend([1j * (c.gamma + s), 1j * (c.gamma - s)])
    return np.array(out)


def cluster_match_error(analytic, numeric, radius=1e-5):
    """Multiset distance comparing means of multiplicity clusters.

    Defective eigenvalue pairs split by O(sqrt(eps)) under rounding while
    their mean perturbs linearly, so means are the numerically faithful
    comparison at tight tolerances.
    """
    analytic = np.asarray(analytic)
    pool = list(numeric)
    worst = 0.0
    used = np.zeros(len(analytic), dtype=bool)
    for i, z in enumerate(analytic):
        if used[i]:
            continue
        grp = np.where(np.abs(analytic - z) < radius)[0]
        used[grp] = True
        arr = np.array(pool)
        idx = np.argsort(np.abs(arr - z))[:len(grp)]
        worst = max(worst, abs(arr[idx].mean() - analytic[grp].mean()))
        for q in sorted(idx, reverse=True):
            pool.pop(q)
    return worst


# --- coefficients ----------------------------------------------------------

def test_coefficients_n3():
    c = coefficients(3, 1)
    assert abs(c.alpha - (-1.5)) < 1e-12
    assert abs(c.gamma - 1.5) < 1e-12
    assert abs(c.delta) < 1e-12
    c2 = coefficients(3, 2)
    assert abs(c2.delta) < 1e-12


def test_coefficients_n4_alpha_zero():
    for k in range(1, 5):
        c = coefficients(4, k)
        assert c.alpha == 0.0
        assert c.delta is None


def test_coefficients_n6_k3():
    c = coefficients(6, 3)
    assert abs(c.alpha - 2.0) < 1e-12
    assert c.gamma == 0.0
    assert abs(c.delta - 1.0) < 1e-12


def test_coefficients_mirror_relations():
    for n in (5, 8, 11):
        for k in range(1, n):
            c, cm = coefficients(n, k), coefficients(n, n - k)
            assert abs(cm.alpha - c.alpha) < 1e-12
            assert abs(cm.gamma + c.gamma) < 1e-12


def test_coefficients_structural_zeros_are_exact():
    # a coefficient is exactly 0.0 in the integer cases and nowhere else
    for n in range(3, 201):
        for k in range(1, n + 1):
            c = coefficients(n, k)
            assert (c.alpha == 0.0) == (n == 4 or k == n)
            assert (c.gamma == 0.0) == (2 * k % n == 0)
            assert (c.delta is None) == (c.alpha == 0.0)
            if c.delta is not None:
                assert (c.delta == 0.0) == (k in (2, n - 2))


def test_coefficients_large_ring_keeps_small_values():
    # alpha_1 ~ 3.9e-13 and gamma_1 ~ 7.9e-13 are below any snapping threshold
    c = coefficients(10 ** 7, 1)
    zeta = 2.0 * np.pi / 10 ** 7
    assert c.alpha > 0.0 and c.gamma > 0.0 and c.delta is not None
    assert abs(c.alpha - zeta ** 2) <= 1e-6 * zeta ** 2
    assert abs(c.gamma - 2.0 * zeta ** 2) <= 1e-6 * zeta ** 2


def test_coefficients_range_check():
    with pytest.raises(ValueError):
        coefficients(6, 0)
    with pytest.raises(ValueError):
        coefficients(6, 7)


# --- blocks ----------------------------------------------------------------

def test_block_B_n6_values():
    ring = RingSystem(n=6, mu=0.5)
    np.testing.assert_allclose(block_B(ring, 3), np.diag([-1.5, -2.0]), atol=1e-12)
    B1 = block_B(ring, 1)
    np.testing.assert_allclose(B1, [[0.0, -1.5j], [1.5j, -0.5]], atol=1e-12)
    assert abs(np.linalg.det(B1).real - (-2.25)) < 1e-12


def test_block_B_full_mode():
    for pot in (CUBIC, SAT):
        ring = RingSystem(n=7, mu=0.9, potential=pot)
        x = mu_h_prime(ring)
        np.testing.assert_allclose(block_B(ring, 7), np.diag([2 * x, 0.0]), atol=1e-12)
        # e_2 spans the kernel of m_n(0)
        assert np.abs(block_m(ring, 7, 0.0) @ np.array([0.0, 1.0])).max() < 1e-12


def test_blocks_hermitian():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(3, 12))
        ring = RingSystem(n=n, mu=float(rng.uniform(0.2, 2.0)),
                          potential=SAT if rng.integers(2) else CUBIC)
        k = int(rng.integers(1, n + 1))
        m = block_m(ring, k, float(rng.normal()))
        assert np.abs(m - m.conj().T).max() <= 1e-12


def test_block_m_at_zero_equals_B():
    ring = RingSystem(n=9, mu=1.3, potential=SAT)
    for k in (1, 4, 9):
        np.testing.assert_allclose(block_m(ring, k, 0.0), block_B(ring, k))


def test_block_m_conjugacy():
    rng = np.random.default_rng(1)
    for _ in range(8):
        n = int(rng.integers(3, 13))
        ring = RingSystem(n=n, mu=float(rng.uniform(0.2, 2.0)),
                          potential=SAT if rng.integers(2) else CUBIC)
        k = int(rng.integers(1, n))
        nu = float(rng.normal(scale=2.0))
        lhs = block_m(ring, n - k, nu)
        rhs = block_m(ring, k, -nu).conj()
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_block_m_root_example():
    ring = RingSystem(n=6, mu=0.5)
    d = np.linalg.det(block_m(ring, 3, np.sqrt(3.0)))
    assert abs(d) <= 1e-12


# --- determinant / trace ---------------------------------------------------

def test_det_trace_against_numeric():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(3, 13))
        ring = RingSystem(n=n, mu=float(rng.uniform(0.2, 2.0)),
                          potential=SAT if rng.integers(2) else CUBIC)
        k = int(rng.integers(1, n + 1))
        nu = float(rng.normal(scale=2.0))
        d, T = det_trace(ring, k, nu)
        m = block_m(ring, k, nu)
        assert abs(d - np.linalg.det(m).real) <= 1e-12 * max(1, abs(d))
        assert abs(T - np.trace(m).real) <= 1e-12


def test_det_n6_k3_closed_form():
    ring = RingSystem(n=6, mu=0.5)
    for nu in np.linspace(-3, 3, 13):
        d, _ = det_trace(ring, 3, nu)
        assert abs(d - (3 - nu ** 2)) < 1e-12


def test_det_full_mode_is_minus_nu_squared():
    ring = RingSystem(n=8, mu=1.1, potential=SAT)
    for nu in np.linspace(-5, 5, 20):
        d, _ = det_trace(ring, 8, nu)
        assert abs(d - (-nu ** 2)) <= 1e-12


def test_det_n4_perfect_square():
    ring = RingSystem(n=4, mu=0.8)
    for k in range(1, 4):
        g = coefficients(4, k).gamma
        for nu in np.linspace(-3, 3, 11):
            d, _ = det_trace(ring, k, nu)
            assert abs(d + (g - nu) ** 2) <= 1e-12


# --- Morse indices and jumps -----------------------------------------------

def test_morse_index_examples():
    ring = RingSystem(n=6, mu=0.5)
    assert morse_index(ring, 3, 0.0) == 2
    assert morse_index(ring, 3, 2.0) == 1
    ring3 = RingSystem(n=3, mu=1.0, potential=SAT)
    assert morse_index(ring3, 1, 1.5) == 0  # inside (nu_-, nu_+)


def test_morse_index_singular_raises():
    ring = RingSystem(n=6, mu=0.5)
    with pytest.raises(SingularBlock):
        morse_index(ring, 3, np.sqrt(3.0))


def test_morse_mirror_law():
    rng = np.random.default_rng(3)
    for _ in range(15):
        n = int(rng.integers(3, 13))
        ring = RingSystem(n=n, mu=float(rng.uniform(0.2, 1.8)),
                          potential=SAT if rng.integers(2) else CUBIC)
        k = int(rng.integers(1, n))
        nu = float(rng.normal(scale=2.0))
        try:
            assert morse_index(ring, n - k, nu) == morse_index(ring, k, -nu)
        except SingularBlock:
            pass


def test_critical_frequencies_examples():
    ring = RingSystem(n=6, mu=0.5)
    cf = critical_frequencies(ring, 3)
    assert not cf.degenerate
    np.testing.assert_allclose(cf.nus, [-np.sqrt(3), np.sqrt(3)], atol=1e-12)
    ring04 = RingSystem(n=6, mu=0.4)
    np.testing.assert_allclose(critical_frequencies(ring04, 1).nus, [1.2, 1.8],
                               atol=1e-12)


def test_critical_frequencies_empty_and_degenerate():
    ring = RingSystem(n=6, mu=0.6)
    cf = critical_frequencies(ring, 1)   # mu^2 = 0.36 > alpha_1/2 = 0.25
    assert cf.nus == () and not cf.degenerate
    ring4 = RingSystem(n=4, mu=0.9, potential=SAT)
    for k in range(1, 4):
        cf = critical_frequencies(ring4, k)
        assert cf.degenerate
        assert abs(cf.nus[0] - coefficients(4, k).gamma) < 1e-12
    with pytest.raises(ValueError):
        critical_frequencies(ring, 6)    # k = n rejected


def test_eta_examples():
    ring = RingSystem(n=6, mu=0.5)
    assert eta(ring, 3, np.sqrt(3.0)) == 1
    assert eta(ring, 3, -np.sqrt(3.0)) == -1
    ring3 = RingSystem(n=3, mu=1.0, potential=SAT)
    assert sigma(ring3) == -1
    nus = critical_frequencies(ring3, 1).nus
    assert eta(ring3, 1, nus[1]) == 1    # eta(nu_+) = -sigma
    assert eta(ring3, 1, nus[0]) == -1   # eta(nu_-) = +sigma
    ring4 = RingSystem(n=4, mu=0.9)
    assert eta(ring4, 2, coefficients(4, 2).gamma) == 0


def test_eta_sign_pattern_generic():
    # two real roots with jumps -sigma / +sigma whenever mu^2 h' < alpha_k/2
    rng = np.random.default_rng(4)
    for _ in range(12):
        n = int(rng.integers(5, 13))
        pot = SAT if rng.integers(2) else CUBIC
        ring = RingSystem(n=n, mu=float(rng.uniform(0.1, 2.0)), potential=pot)
        k = int(rng.integers(1, n))
        c = coefficients(n, k)
        if not mu_h_prime(ring) < c.alpha / 2 - 1e-6:
            continue
        cf = critical_frequencies(ring, k)
        assert len(cf.nus) == 2
        s = sigma(ring)
        assert eta(ring, k, cf.nus[0]) == -s
        assert eta(ring, k, cf.nus[1]) == s


def test_eta_closed_form_matches_morse_probe():
    pots = [CUBIC, SAT,
            custom_potential(lambda s: s + 0.1 * s * s, lambda s: 1.0 + 0.2 * s,
                             lambda s: s * s / 2.0 + 0.1 * s ** 3 / 3.0),
            custom_potential(lambda s: -s, lambda s: -np.ones_like(np.asarray(s, float)),
                             lambda s: -s * s / 2.0)]
    rng = np.random.default_rng(1303)
    roots = 0
    for n in range(3, 40):
        for mu in rng.uniform(0.02, 3.0, 60):
            for pot in pots:
                ring = RingSystem(n=n, mu=float(mu), potential=pot)
                for k in range(1, n):
                    cf = critical_frequencies(ring, k)
                    if cf.degenerate:
                        continue
                    for nu in cf.nus:
                        assert eta(ring, k, nu) == probe_eta(ring, k, nu), (n, mu, k, nu)
                        roots += 1
    assert roots > 50000


def test_positivity_cases_n_ge_5():
    # (a): nu_+ > 0 for every k when mu^2 h' < delta_k;
    # (b): both positive exactly for gamma_k > 0
    for n, mu, pot in [(6, 0.5, CUBIC), (9, 0.3, CUBIC), (7, 1.2, SAT)]:
        ring = RingSystem(n=n, mu=mu, potential=pot)
        x = mu_h_prime(ring)
        for k in range(1, n):
            c = coefficients(n, k)
            cf = critical_frequencies(ring, k)
            if cf.degenerate or not cf.nus:
                continue
            nu_minus, nu_plus = cf.nus
            if x < c.delta:
                assert nu_plus > 0 and nu_minus < 0
            elif x < c.alpha / 2:
                assert (nu_plus > 0 and nu_minus > 0) == (c.gamma > 0)


def test_positivity_cases_n3_reversed():
    # roots exist only for alpha_k/2 < mu^2 h'; with it positive both modes
    # give nu_+ > 0 > nu_-, with it in (alpha_1/2, 0) only gamma_k > 0 gives
    # a positive pair
    ring_a = RingSystem(n=3, mu=0.9)                 # mu^2 h' = 0.81 > 0
    for k in (1, 2):
        cf = critical_frequencies(ring_a, k)
        assert len(cf.nus) == 2
        assert cf.nus[1] > 0 > cf.nus[0]
    ring_b = RingSystem(n=3, mu=1.0, potential=SAT)  # mu^2 h' = -1/4 in (-3/4, 0)
    cf1 = critical_frequencies(ring_b, 1)
    assert cf1.nus[0] > 0 and cf1.nus[1] > 0
    cf2 = critical_frequencies(ring_b, 2)
    assert cf2.nus[0] < 0 and cf2.nus[1] < 0


# --- degenerate amplitudes --------------------------------------------------

def test_degenerate_amplitudes_cubic():
    assert degenerate_amplitudes(6, 3, CUBIC) == (1.0,)
    assert degenerate_amplitudes(6, 1, CUBIC) == ()   # delta_1 < 0


def test_degenerate_amplitudes_saturable_threshold():
    roots = degenerate_amplitudes(16, 1, SAT)
    assert len(roots) == 2
    np.testing.assert_allclose(roots, [0.7763109713574492, 1.288143587937976],
                               atol=1e-10)
    assert abs(roots[0] * roots[1] - 1.0) < 1e-10
    assert degenerate_amplitudes(15, 1, SAT) == ()    # delta_1 < -1/4


def test_degenerate_amplitudes_custom_matches_cubic():
    # h' may return an array or, for an array input, a plain float
    for hp in (lambda s: np.ones_like(np.asarray(s, float)), lambda s: 1.0):
        pot = custom_potential(h=lambda s: np.asarray(s, float), h_prime=hp,
                               G=lambda s: np.asarray(s, float) ** 2 / 2)
        roots = degenerate_amplitudes(6, 3, pot)
        assert len(roots) == 1
        assert abs(roots[0] - 1.0) < 1e-10


def test_degenerate_amplitudes_custom_range_exhaustion():
    # root of s / 200 = delta_3(6) = 1 lies beyond the scanned range s in [0, 100]
    pot = custom_potential(h=lambda s: np.asarray(s, float) / 200,
                           h_prime=lambda s: np.full_like(np.asarray(s, float), 1 / 200),
                           G=lambda s: np.asarray(s, float) ** 2 / 400)
    with pytest.raises(SearchRangeExhausted, match=re.escape("(0.0, 100.0)")):
        degenerate_amplitudes(6, 3, pot)
    # genuinely rootless: s*h'(s) = delta_1(6) = -2 with h' > 0
    assert degenerate_amplitudes(6, 1, pot) == ()


def test_degenerate_amplitudes_requires_delta():
    with pytest.raises(ValueError):
        degenerate_amplitudes(4, 2, CUBIC)


def scan_degenerate_amplitudes(n, k, potential, s_range=(0.0, 100.0), samples=4096):
    """Reference: a per-sample scalar scan of s h'(s) - delta_k on one
    evenly spaced grid in s, each sign change refined by brentq."""
    delta = coefficients(n, k).delta

    def f(s):
        return float(s * potential.h_prime(s) - delta)

    lo, hi = s_range
    grid = np.linspace(max(lo, 0.0), hi, samples)
    vals = np.array([f(s) for s in grid])
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0 and grid[i] > 0:
            roots.append(grid[i])
        elif vals[i] * vals[i + 1] < 0:
            roots.append(brentq(f, grid[i], grid[i + 1], xtol=1e-12, rtol=8.9e-16))
    if not roots:
        closest = int(np.argmin(np.abs(vals)))
        if closest == len(grid) - 1:
            raise SearchRangeExhausted(
                f"no root of s*h'(s) = delta_{k} bracketed in {s_range}; "
                "|s*h'(s) - delta| is still shrinking at the range end")
        return ()
    return tuple(sorted(float(np.sqrt(s)) for s in roots if s > 0))


def scan_intervals(potential, threshold, above, mu_max=10.0, samples=2001):
    """Reference: amplitudes where mu^2 h'(mu^2) - threshold is positive
    (``above``) or negative, from a per-sample scalar scan on an evenly
    spaced grid in mu, each sign change refined by brentq."""
    def f(m):
        return m * m * float(potential.h_prime(m * m)) - threshold

    mus = np.linspace(1e-6, mu_max, samples)
    vals = np.array([f(m) for m in mus])
    flags = vals > 0.0 if above else vals < 0.0
    edges = []
    for i in np.flatnonzero(flags[1:] != flags[:-1]):
        # without a sign change (h' is nan on one side) the grid point stays
        bracketed = vals[i] * vals[i + 1] <= 0.0
        edges.append(brentq(f, mus[i], mus[i + 1], xtol=1e-12, rtol=8.9e-16)
                     if bracketed else float(mus[i + 1]))
    # stability from the first sample on starts at 0; past the last, at inf
    if flags[0]:
        edges.insert(0, 0.0)
    if flags[-1]:
        edges.append(math.inf)
    return tuple(zip(edges[0::2], edges[1::2]))


def sweep_potentials(rng):
    """(name, potential) for the level-set sweep; coefficients drawn from rng."""
    b, c, a = rng.uniform(0.05, 0.15), rng.uniform(0.05, 0.15), rng.uniform(0.2, 0.4)
    laws = [("1/(1+s)", lambda s: 1 / (1 + s), lambda s: -1 / (1 + s) ** 2),
            ("s+b*s**2", lambda s: s + b * s * s, lambda s: 1 + 2 * b * s),
            ("1/(1+s)+c*s", lambda s: 1 / (1 + s) + c * s, lambda s: c - 1 / (1 + s) ** 2),
            ("-cos(s)", lambda s: -np.cos(s), np.sin),
            ("s-a*s**2", lambda s: s - a * s * s, lambda s: 1 - 2 * a * s),
            ("log1p(s)", np.log1p, lambda s: 1 / (1 + s)),
            ("tanh(s)", np.tanh, lambda s: 1 - np.tanh(s) ** 2)]
    return [(name, custom_potential(h, hp)) for name, h, hp in laws]


def test_level_set_scan_matches_scalar_scans():
    """Degenerate amplitudes and stability intervals of custom potentials
    agree with the scalar reference scans; tanh's level run at delta = 0
    (k in {2, n-2}, h' = 0.0 past s ~ 19) is one grid-end run, so no root."""
    rng = np.random.default_rng(11)
    checked = 0
    for name, pot in sweep_potentials(rng):
        sizes = (5, 8, 32, 96) if name in ("1/(1+s)", "s+b*s**2") else (5, 8, 32)
        for n in sizes:
            for k in range(1, n):
                try:
                    want = scan_degenerate_amplitudes(n, k, pot)
                except SearchRangeExhausted:
                    with pytest.raises(SearchRangeExhausted):
                        degenerate_amplitudes(n, k, pot)
                    continue
                got = degenerate_amplitudes(n, k, pot)
                if name == "tanh(s)" and k in (2, n - 2):
                    assert len(want) > 1000 and got == (), (n, k)
                    continue
                assert len(got) == len(want), (name, n, k)
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-12 * (1 + w), (name, n, k, g, w)
                checked += len(got)
            half_alpha1 = coefficients(n, 1).alpha / 2.0
            want = scan_intervals(pot, half_alpha1, above=n == 3)
            got = stability_interval(n, pot)
            assert len(got) == len(want), (name, n)
            assert all(g == w or abs(g - w) <= 1e-12 * (1 + w)
                       for gw in zip(got, want) for g, w in zip(*gw)), (name, n, got, want)
    assert checked > 100


def test_level_set_calls_h_prime_once_per_grid():
    """The whole degenerate table and the stability interval of one
    potential take one array evaluation of h' (n - 1 scalar scans before)."""
    calls = []

    def hp(s):
        calls.append(np.ndim(s))
        return -1 / (1 + np.asarray(s)) ** 2

    pot = custom_potential(lambda s: 1 / (1 + s), hp)
    n = 32
    table = _degenerate_table.__wrapped__(n, pot)
    stability_interval(n, pot)
    assert table and calls.count(1) == 1


def test_level_set_run_at_level():
    """A run of samples exactly at the level counts once, and not at all when
    it reaches the end of the grid; an isolated interior zero is one root."""
    tanh = custom_potential(np.tanh, lambda s: 1 - np.tanh(s) ** 2)
    assert degenerate_amplitudes(8, 2, tanh) == ()
    assert all(k not in (2, 6) for k, _ in _degenerate_table.__wrapped__(8, tanh))
    # x(s) = s (s0 - s)^2 touches delta_2 = 0 at the grid point s0
    s0 = np.linspace(0.0, 100.0, 4096)[123]
    touch = custom_potential(lambda s: s, lambda s: (s0 - np.asarray(s)) ** 2)
    assert degenerate_amplitudes(8, 2, touch) == (math.sqrt(s0),)
    # x crosses delta_2 = 0 through a run on [2, 3]: one root, at its last sample
    flat = custom_potential(lambda s: s, lambda s: (np.maximum(np.asarray(s) - 3, 0)
                                                    + np.minimum(np.asarray(s) - 2, 0)))
    s_grid, _ = blocks._scan_grid(flat, 4096)
    (root,) = degenerate_amplitudes(8, 2, flat)
    assert root == math.sqrt(s_grid[s_grid <= 3.0][-1])


# --- spectral oracle ---------------------------------------------------------

def test_full_spectrum_matches_block_roots():
    for n, mu, pot in [(6, 0.5, CUBIC), (4, 0.7, CUBIC), (3, 1.0, SAT),
                       (11, 1.4, SAT)]:
        ring = RingSystem(n=n, mu=mu, potential=pot)
        err = cluster_match_error(closed_form_roots(ring), full_spectrum_oracle(ring))
        assert err <= 1e-8


def test_full_spectrum_contains_double_zero():
    ring = RingSystem(n=7, mu=0.8, potential=SAT)
    ev = full_spectrum_oracle(ring)
    near_zero = np.sum(np.abs(ev) < 1e-6)
    assert near_zero >= 2


def test_full_spectrum_n4_doubled():
    ring = RingSystem(n=4, mu=0.9)
    ev = sorted(full_spectrum_oracle(ring), key=lambda z: z.imag)
    gammas = sorted([coefficients(4, k).gamma for k in range(1, 5)] * 2)
    for z, g in zip(ev, gammas):
        assert abs(z - 1j * g) < 1e-6


def reference_spectrum_oracle(ring):
    """Eigenvalues of the dense product -JJ D2V(a)."""
    a_bar, _ = standing_wave(ring)
    return np.linalg.eigvals(-block_symplectic(ring.n) @ hessian_V(ring, a_bar))


def reference_spectrum_max_real(eigenvalues, cluster_radius=1e-6):
    """Greedy clusters by a pairwise loop: each cluster is the first
    remaining eigenvalue and every later one within the radius of it."""
    ev = np.asarray(eigenvalues, dtype=complex)
    remaining = list(range(len(ev)))
    worst = 0.0
    while remaining:
        i = remaining.pop(0)
        cluster = [ev[i]]
        rest = []
        for j in remaining:
            if abs(ev[j] - ev[i]) < cluster_radius:
                cluster.append(ev[j])
            else:
                rest.append(j)
        remaining = rest
        worst = max(worst, abs(np.mean(cluster).real))
    return float(worst)


def test_spectrum_oracle_matches_reference(monkeypatch):
    """The reduced eigensolve gives the dense product's eigenvalues as a
    multiset, to within 1e-10 on cluster means, and array clustering gives
    the loop's verdict bit for bit, at the cluster radius and at a wider one;
    n = 4 has only defective double roots."""
    rng = np.random.default_rng(12)
    for n in (3, 4, 5, 6, 8, 16, 64):
        for pot in (CUBIC, SAT):
            for mu in rng.uniform(0.05, 2.0, size=3):
                ring = RingSystem(n=n, mu=float(mu), potential=pot)
                ev = full_spectrum_oracle(ring)
                assert cluster_match_error(reference_spectrum_oracle(ring), ev) <= 1e-10
                assert spectrum_max_real(ev) == reference_spectrum_max_real(ev), (n, mu)
                with monkeypatch.context() as patch:
                    patch.setattr(blocks, "_CLUSTER_RADIUS", 1e-3)
                    assert spectrum_max_real(ev) == reference_spectrum_max_real(ev, 1e-3)


# x = s h'(s) = s - s^2/2 rises to 1/2 at s = 1, then falls without bound, so
# mu^2 h'(mu^2) crosses alpha_1/2 for n = 3 (alpha_1 < 0) and every n >= 5
QUINTIC = custom_potential(lambda s: s - np.asarray(s) ** 2 / 4,
                           lambda s: 1 - np.asarray(s) / 2)


def test_spectrum_oracle_random_sweep():
    """Seeded amplitudes, odd and even n (n = 3 and n = 4 with defective
    roots), three potentials and, where mu^2 h'(mu^2) crosses the stability
    threshold alpha_1/2, mu just either side of it: the reduced oracle gives
    the 2n x 2n reference's multiset, its max real part and its verdict."""
    rng = np.random.default_rng(11)
    verdicts = set()
    for n in (3, 4, 5, 6, 7, 10, 33, 48):
        alpha1 = coefficients(n, 1).alpha
        # roots of x(mu^2) = alpha_1/2 (none for n = 4, where alpha_1 = 0)
        s_star = {CUBIC: alpha1 / 2 if alpha1 > 0 else None,
                  QUINTIC: 1 - math.copysign(math.sqrt(1 - alpha1), alpha1) if alpha1
                  else None,
                  SAT: None}
        for pot, s in s_star.items():
            mus = list(rng.uniform(0.05, 2.0, size=2))
            if s is not None:
                mus += [math.sqrt(s) * (1 - 1e-3), math.sqrt(s) * (1 + 1e-3)]
            for mu in mus:
                ring = RingSystem(n=n, mu=float(mu), potential=pot)
                ev, ref = full_spectrum_oracle(ring), reference_spectrum_oracle(ring)
                assert cluster_match_error(ref, ev) <= 1e-10, (n, pot.kind, mu)
                got, want = spectrum_max_real(ev), spectrum_max_real(ref)
                assert abs(got - want) <= 1e-11, (n, pot.kind, mu)
                assert (got <= 1e-8) == (want <= 1e-8) == linear_stability(ring).stable
                verdicts.add(got <= 1e-8)
    assert verdicts == {True, False}


@pytest.mark.parametrize("skew", [1e-6, np.nan])
def test_broken_reflection_is_a_numerical_failure(capsys, monkeypatch, skew):
    """A Hessian that the ring reflection does not fix (site 1 changed, its
    mirror n - 1 not) or that is not finite fails the premise check:
    BrokenReflection with the reason (the residual, or the non-finite
    Hessian), and exit 4 with it from the stability command."""
    def skewed(ring, x):
        H = hessian_V(ring, x)
        H[0, 0] += skew
        return H

    monkeypatch.setattr(blocks, "hessian_V", skewed)
    reason = ("D2V(a) is not invariant under the ring reflection: the blocks P'AP "
              "and M'AM reach 5e-07" if skew == 1e-6
              else "the Hessian at the rotating wave is not finite")
    with pytest.raises(BrokenReflection, match=re.escape(reason)):
        full_spectrum_oracle(RingSystem(n=6, mu=0.5))
    assert cli.main(["stability", "--n", "6", "--mu", "0.5"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + reason)


_OVERFLOW = "or their extraction from the Hessian overflow"


@pytest.mark.parametrize("command, mu, reason", [
    # 2 mu^2 h' = 1.62e308 is finite, the off-block norm of the extraction is not
    ("blocks", "9e153", f"the mode blocks at mu = 9e+153 {_OVERFLOW}"),
    # 2 mu^2 h' overflows: B_00 and the Hessian are infinite
    ("blocks", "1e154", f"the mode blocks at mu = 1e+154 {_OVERFLOW}"),
    ("stability", "1e154", "the Hessian at the rotating wave is not finite"),
    # the Hessian and its blocks in the reflection basis are finite: a report
    ("stability", "9e153", None),
])
def test_overflowing_amplitude(capsys, command, mu, reason):
    """Amplitudes near the float limit (cubic, n = 6) end in exit 4 with a
    one-line reason that names what overflowed, or in a valid report, and
    never in a warning or a nan in the output."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([command, "--n", "6", "--mu", mu])
    captured = capsys.readouterr()
    if reason is None:
        assert code == 0 and captured.err == ""
        report = json.loads(captured.out, parse_constant=pytest.fail)
        assert report["payload"]["stable"] is False
    else:
        assert code == 4 and captured.out == ""
        assert captured.err == f"error: {reason}\n"


def test_spectrum_max_real_edge_cases(monkeypatch):
    """A nan is a cluster of its own (and does not stall the loop); a zero
    radius makes every eigenvalue its own cluster."""
    ev = np.array([1e-9 + 1j, -1e-9 + 1j, np.nan, 0.5 - 2j, 0.5 - 2j + 1e-8])
    for radius in (1e-6, 0.0):
        monkeypatch.setattr(blocks, "_CLUSTER_RADIUS", radius)
        got, want = spectrum_max_real(ev), reference_spectrum_max_real(ev, radius)
        assert got == want or (math.isnan(got) and math.isnan(want))
    assert spectrum_max_real(np.array([])) == 0.0


def test_spectrum_max_real_builds_no_square_temporary():
    """Clustering 4096 eigenvalues allocates O(n), not an n x n table."""
    ev = np.exp(1j * np.linspace(0.0, 6.0, 4096)) + 1e-3 * np.arange(4096)
    tracemalloc.start()
    try:
        spectrum_max_real(ev)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("potential, mu, stable", [("saturable", "0.8", True),
                                                   ("cubic", "0.3", False)])
def test_stability_report_n256_matches_reference(capsys, monkeypatch, potential, mu, stable):
    """Every field of the report is the dense reference's, byte for byte,
    but the residual-type oracle_max_real_part, which agrees within 1e-11."""
    argv = ["stability", "--n", "256", "--potential", potential, "--mu", mu]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["payload"]["stable"] is stable
    monkeypatch.setattr(blocks, "full_spectrum_oracle", reference_spectrum_oracle)
    monkeypatch.setattr(blocks, "spectrum_max_real", reference_spectrum_max_real)
    assert cli.main(argv) == 0
    reference = json.loads(capsys.readouterr().out)
    got = report["payload"].pop("oracle_max_real_part")
    want = reference["payload"].pop("oracle_max_real_part")
    assert abs(got - want) <= 1e-11
    assert report == reference


def test_kernel_vector_is_in_kernel():
    ring = RingSystem(n=6, mu=0.5)
    w = kernel_vector(ring, 3, np.sqrt(3.0))
    assert np.abs(block_m(ring, 3, np.sqrt(3.0)) @ w).max() < 1e-12


def test_spectral_summary_consistency():
    ring = RingSystem(n=5, mu=0.6)
    for k in range(1, 6):
        m = block_m(ring, k, 0.3)
        s = spectral_summary(m)
        d, T = det_trace(ring, k, 0.3)
        assert abs(s.det - d) < 1e-12
        assert abs(s.trace - T) < 1e-12
        assert s.morse_index == sum(1 for e in s.eigenvalues if e < 0)


# --- stability ---------------------------------------------------------------

def test_linear_stability_n6_cubic_threshold():
    assert linear_stability(RingSystem(n=6, mu=0.49)).stable
    assert not linear_stability(RingSystem(n=6, mu=0.51)).stable
    v = linear_stability(RingSystem(n=6, mu=0.4))
    assert abs(v.margin - 0.09) < 1e-12


def test_linear_stability_always_stable_cases():
    for mu in (0.2, 1.0, 5.0):
        assert linear_stability(RingSystem(n=3, mu=mu)).stable
        assert linear_stability(RingSystem(n=3, mu=mu, potential=SAT)).stable
    for n in range(5, 13):
        assert linear_stability(RingSystem(n=n, mu=3.0, potential=SAT)).stable


def test_linear_stability_n4():
    v = linear_stability(RingSystem(n=4, mu=2.5))
    assert v.stable and v.margin == np.inf


def test_stability_agrees_with_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(3, 13))
        pot = SAT if rng.integers(2) else CUBIC
        ring = RingSystem(n=n, mu=float(rng.uniform(0.05, 2.0)), potential=pot)
        verdict = linear_stability(ring)
        oracle_stable = spectrum_max_real(full_spectrum_oracle(ring)) <= 1e-8
        assert verdict.stable == oracle_stable
