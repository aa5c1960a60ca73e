import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from dnlsring import blocks, cli, orbits
from dnlsring.blocks import (IJ, BrokenReflection, SearchRangeExhausted, SingularBlock,
                             block_B, block_m, coefficients, critical_frequencies,
                             degenerate_amplitudes, det_trace, eta,
                             full_spectrum_oracle, kernel_vector,
                             linear_stability, morse_index, mu_h_prime, sigma)
from dnlsring.classify import _degenerate_table, enumerate_bifurcations, stability_interval
from dnlsring.model import (RingSystem, cubic_potential, custom_potential, hessian_V,
                            saturable_potential, standing_wave)
from dnlsring.symmetry import assemble_P, block_extract, t_k_matrix
from references import block_symplectic, collocation_mode1_blocks

CUBIC = cubic_potential()
SAT = saturable_potential()


def probe_etas(ring, ks, nus, gaps):
    """Reference index jumps at the roots ``nus`` of the modes ``ks``, whose
    two roots lie ``gaps`` apart: sigma times the Morse index of
    m_k(nu) = B_k - nu (iJ) at nu - rho minus that at nu + rho, with rho small
    enough never to straddle both roots.  The blocks B_k come from one
    block_extract of the dense Hessian, and one eigvalsh call counts the
    negative eigenvalues of every stacked 2x2 block."""
    rho = np.minimum(1e-4 * np.maximum(1.0, np.abs(nus)), gaps / 10.0)
    B = block_extract(assemble_P(ring.n), hessian_V(ring, standing_wave(ring)[0])).blocks
    m = B[ks - 1] - np.stack([nus - rho, nus + rho])[..., None, None] * IJ
    below, above = (np.linalg.eigvalsh(m) < 0.0).sum(axis=-1)
    return sigma(ring) * (below - above)


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
                cases = [(k, nu, cf.nus[-1] - cf.nus[0]) for k in range(1, n)
                         for cf in [critical_frequencies(ring, k)] if not cf.degenerate
                         for nu in cf.nus]
                if not cases:
                    continue
                ks, nus, gaps = (np.array(column) for column in zip(*cases))
                got = [eta(ring, k, nu) for k, nu, _ in cases]
                want = probe_etas(ring, ks, nus, gaps).tolist()
                assert got == want, (n, mu, [c for c, g, w in zip(cases, got, want) if g != w])
                roots += len(cases)
    assert roots > 50000


def test_eta_matches_the_index_jump_of_the_collocation_jacobian():
    """At every positive critical frequency nu0 of a seeded sweep, the Morse
    index of the Newton Jacobian's mode-1 block at the rotating wave jumps by
    twice eta of the mode k with a root at nu0, as ``eta`` gives it and as the
    points of enumerate_bifurcations list it (no point where eta is zero).
    The jump's sign is sgn h'(mu^2) itself.  The block is exactly symmetric,
    and at a listed nu0 it annihilates the mode-k pattern of the kernel
    vector that continuation starts along: the spectrum cannot show the sign
    of the nu term (flipping it conjugates L), the kernel's mode can.  One
    check of the Jacobian's nu convention, the block theory and the
    classification."""
    pots = [CUBIC, SAT,
            custom_potential(lambda s: s + 0.1 * s * s, lambda s: 1.0 + 0.2 * s),
            custom_potential(lambda s: -s, lambda s: -np.ones_like(np.asarray(s, float)))]
    rng = np.random.default_rng(1087)
    checked = kernels = 0
    for n in [*range(3, 16), 32]:
        for pot in pots:
            for mu in rng.uniform(0.1, 2.0, 3):
                ring = RingSystem(n=n, mu=float(mu), potential=pot)
                listed = enumerate_bifurcations(ring)
                roots = [(k, nu) for k in range(1, n) for nu in critical_frequencies(ring, k).nus]
                every = np.array([nu for _, nu in roots])
                cases = [(k, nu, 1e-3 * min(1.0, np.abs(np.delete(every, i) - nu).min(), nu))
                         for i, (k, nu) in enumerate(roots) if nu > 0]
                if not cases:
                    assert listed == []
                    continue
                ks, nus, rhos = (np.array(column) for column in zip(*cases))
                at = [[pt for pt in listed if pt.k == k and abs(pt.nu - nu) < rho]
                      for k, nu, rho in cases]
                assert sum(map(len, at)) == len(listed)
                A = collocation_mode1_blocks(ring, np.concatenate([nus - rhos, nus + rhos, nus]))
                assert np.array_equal(A, A.transpose(0, 2, 1))
                sides, at_root = A[:-len(nus)], A[-len(nus):]
                below, above = (np.linalg.eigvalsh(sides) < 0.0).sum(axis=-1).reshape(2, -1)
                got = (np.sign(pot.h_prime(mu ** 2)) * (below - above)).astype(int).tolist()
                assert got == [2 * eta(ring, k, nu) for k, nu in zip(ks, nus)], (n, mu, pot.kind)
                assert got == [2 * sum(pt.eta for pt in pts) for pts in at], (n, mu, pot.kind)
                for k, nu, pts, block in zip(ks, nus, at, at_root):
                    if pts:   # L u = 0 for u = t_k kernel_vector, (Re u, Im u) in real form
                        u = t_k_matrix(n, k) @ kernel_vector(ring, k, nu)
                        x = np.concatenate([u.real, u.imag])
                        assert np.linalg.norm(block @ x) <= 1e-9 * np.abs(block).max(), (n, k)
                        kernels += 1
                checked += len(cases)
    assert checked > 1000 and kernels > 500, (checked, kernels)


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


def test_level_amplitudes_saturable_double_root():
    # at level -1/4 the two saturable roots meet at s = 1: one amplitude
    assert blocks._level_amplitudes(SAT, -0.25) == (1.0,)


def test_degenerate_amplitudes_custom_matches_cubic():
    # h' may return an array or, for an array input, a plain float
    for hp in (lambda s: np.ones_like(np.asarray(s, float)), lambda s: 1.0):
        pot = custom_potential(h=lambda s: np.asarray(s, float), h_prime=hp,
                               G=lambda s: np.asarray(s, float) ** 2 / 2)
        roots = degenerate_amplitudes(6, 3, pot)
        assert len(roots) == 1
        assert abs(roots[0] - 1.0) < 1e-10


def test_degenerate_amplitudes_overflowing_level_set_product():
    # s h'(s) reaches 1e271 on the scan grid, so the sign test's product of
    # neighbouring samples overflows; it warns of nothing (pytest turns a
    # RuntimeWarning into an error) and finds the roots of h' = 1
    steep = custom_potential(lambda s: s, lambda s: 1.0 + (np.asarray(s, float) / 4.5) ** 200)
    flat = custom_potential(lambda s: s, lambda s: np.ones_like(np.asarray(s, float)))
    for k in (1, 2, 3, 5, 6, 7):
        assert degenerate_amplitudes(8, k, steep) == degenerate_amplitudes(8, k, flat), k
    assert degenerate_amplitudes(8, 3, steep) == (1.0,)


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


@pytest.mark.parametrize("n", [*range(3, 17), 64, 256])
def test_symmetry_basis_splits_the_ring_group(capsys, monkeypatch, n):
    """The ring group's basis P = D_R (F ⊗ I_2) splits the Hessian into the
    mode blocks that the blocks command reads off its rotated block
    diagonals d_m(j).  At the wave they are constant in j within 8 eps.
    With the on-site blocks of two sites perturbed, the command's
    extract_residual and off_block_residual (the d_m(j) about their means,
    by Parseval) are those of the dense P^* H P of block_extract."""
    ring = RingSystem(n=n, mu=0.7, potential=SAT)
    d = blocks._rotated_diagonals(ring)
    assert d.shape == (3, 2, 2, n)
    assert np.ptp(d, axis=-1).max() <= 8 * np.finfo(float).eps * np.abs(d).max()
    skew = np.zeros((n, 2, 2))
    skew[0, 0, 0] = 1e-3
    skew[n // 2] = [[0.0, 2e-3], [2e-3, -1e-3]]
    onsite_hessian = blocks._onsite_hessian
    monkeypatch.setattr(blocks, "_onsite_hessian", lambda r, X: onsite_hessian(r, X) + skew)
    assert cli.main(["blocks", "--n", str(n), "--potential", "saturable", "--mu", "0.7"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    H = hessian_V(ring, standing_wave(ring)[0])
    j = np.arange(n)
    H.reshape(n, 2, n, 2)[j, :, j, :] += skew
    want = block_extract(assemble_P(n), H)
    B = np.array([rec["B"] for rec in payload["blocks"]])
    err = np.abs(B[..., 0] + 1j * B[..., 1] - want.blocks).max(axis=(1, 2))
    got = np.array([rec["extract_residual"] for rec in payload["blocks"]])
    assert np.abs(got - err).max() <= 1e-13
    assert abs(payload["off_block_residual"] - want.off_block_residual) <= 1e-13


def reference_spectrum_oracle(ring):
    """Eigenvalues of the dense product -JJ D2V(a)."""
    a_bar, _ = standing_wave(ring)
    return np.linalg.eigvals(-block_symplectic(ring.n) @ hessian_V(ring, a_bar))


def reference_spectrum_max_real(eigenvalues, cluster_radius=1e-6):
    """Largest |real part| of a dense spectrum, on the means of greedy
    clusters: defective double eigenvalues (the rotation zero; every root
    when n = 4) split under rounding by O(sqrt(eps)) times the norm of the
    linearization, while their mean perturbs linearly.  Each cluster is the
    first remaining eigenvalue and every later one within cluster_radius
    times the largest of 1 and the moduli that are not nan of it."""
    ev = np.asarray(eigenvalues, dtype=complex)
    cluster_radius *= max([1.0, *(abs(z) for z in ev if not math.isnan(abs(z)))])
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


def max_real(eigenvalues):
    """The largest |real part|, as the stability command reports it."""
    return float(np.abs(eigenvalues.real).max())


def test_spectrum_oracle_matches_reference():
    """The symbols' eigenvalues are the dense product's as a multiset, to
    within 1e-10 on cluster means, with the largest real part of its
    cluster means; n = 4 has only defective double roots."""
    rng = np.random.default_rng(12)
    for n in (3, 4, 5, 6, 8, 16, 64):
        for pot in (CUBIC, SAT):
            for mu in rng.uniform(0.05, 2.0, size=3):
                ring = RingSystem(n=n, mu=float(mu), potential=pot)
                ev, ref = full_spectrum_oracle(ring), reference_spectrum_oracle(ring)
                assert cluster_match_error(ref, ev) <= 1e-10
                assert abs(max_real(ev) - reference_spectrum_max_real(ref)) <= 1e-11, (n, mu)


# x = s h'(s) = s - s^2/2 rises to 1/2 at s = 1, then falls without bound, so
# mu^2 h'(mu^2) crosses alpha_1/2 for n = 3 (alpha_1 < 0) and every n >= 5
QUINTIC = custom_potential(lambda s: s - np.asarray(s) ** 2 / 4,
                           lambda s: 1 - np.asarray(s) / 2)


def random_sweep_rings(ns=(3, 4, 5, 6, 7, 10, 33, 48), seed=11):
    """Seeded amplitudes for each n, three potentials and, where mu^2 h'(mu^2)
    crosses the stability threshold alpha_1/2, mu just either side of it."""
    rng = np.random.default_rng(seed)
    for n in ns:
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
                yield RingSystem(n=n, mu=float(mu), potential=pot)


def assert_oracle_matches_reference(rings):
    """The oracle gives the 2n x 2n reference's multiset, the largest real
    part of its cluster means and its verdict, and the rings include stable
    and unstable ones."""
    verdicts = set()
    for ring in rings:
        n, kind, mu = ring.n, ring.potential.kind, ring.mu
        ev, ref = full_spectrum_oracle(ring), reference_spectrum_oracle(ring)
        assert cluster_match_error(ref, ev) <= 1e-10, (n, kind, mu)
        got, want = max_real(ev), reference_spectrum_max_real(ref)
        assert abs(got - want) <= 1e-11, (n, kind, mu)
        assert (got <= 1e-8) == (want <= 1e-8) == linear_stability(ring).stable
        verdicts.add(got <= 1e-8)
    assert verdicts == {True, False}


def test_spectrum_oracle_random_sweep():
    """Odd and even n (n = 3 and n = 4 with defective roots), three
    potentials and seeded amplitudes, some either side of the stability
    threshold: the oracle agrees with the 2n x 2n reference."""
    assert_oracle_matches_reference(random_sweep_rings())


def test_sector_oracle_random_sweep():
    """Even n, n = 0 and 2 mod 4, over seeded amplitudes and three
    potentials: the symbols agree with the 2n x 2n reference."""
    assert_oracle_matches_reference(
        random_sweep_rings(ns=(4, 6, 8, 10, 12, 16, 34, 64, 96), seed=25))


@pytest.mark.parametrize("n, mu", [(1024, 0.3), (1024, 1e3), (4096, 0.3), (4096, 1e3)])
def test_premise_check_holds_on_large_rings(n, mu):
    """The spread of the rotated block diagonals is measured per entry (max
    - min over the sites), which stays within a few eps at every n; a
    deviation from a mean summed along the strided site axis reached 80
    eps at n = 1024 and 450 eps at n = 4096.  Both verdicts hold."""
    for pot, stable in ((CUBIC, False), (SAT, True)):
        ev = full_spectrum_oracle(RingSystem(n=n, mu=mu, potential=pot))
        assert ev.shape == (2 * n,)
        assert (max_real(ev) == 0.0) is stable


def test_stability_report_bytes_do_not_depend_on_the_blas_thread_count():
    """The stability reports at n = 256 and 1024 and the blocks report at
    n = 1024 are the same bytes at one and at two OpenBLAS threads: the
    symbols and the rotated block diagonals are elementwise numpy, with no
    BLAS or LAPACK call.  (The oracle's former eigensolves were not, from
    n ~ 160 up.)"""
    src = os.path.dirname(os.path.dirname(blocks.__file__))
    for argv in (["stability", "--n", "256", "--mu", "0.7"],
                 ["stability", "--n", "1024", "--mu", "0.7"],
                 ["blocks", "--n", "1024", "--mu", "0.4"]):
        command = [sys.executable, "-m", "dnlsring.cli", *argv]
        reports = [subprocess.run(command, capture_output=True, check=True,
                                  env={**os.environ, "OPENBLAS_NUM_THREADS": threads,
                                       "PYTHONPATH": src}).stdout
                   for threads in ("1", "2")]
        assert reports[0] == reports[1], argv
        assert json.loads(reports[0])["payload"].get("stable") in (False, None)


_ROTATION_REASON = ("D2V(a) is not invariant under the ring's rotation: its rotated "
                    "block diagonals spread by ")


@pytest.mark.parametrize("skew", [1e-6, np.nan])
def test_broken_reflection_is_a_numerical_failure(capsys, monkeypatch, skew):
    """Site blocks of the Hessian that the ring's rotation does not carry
    into each other (site 1 changed, the others not) or that are not finite
    fail the premise check: BrokenReflection with the reason (the spread of
    the rotated diagonals, or the non-finite Hessian), and exit 4 with it
    from the stability command."""
    assert_premise_failure(capsys, monkeypatch, [0], skew,
                           _ROTATION_REASON + "7.5e-07" if skew == 1e-6
                           else "the Hessian at the rotating wave is not finite")


def test_broken_half_turn_is_a_numerical_failure(capsys, monkeypatch):
    """Site 1 and its mirror n - 1 changed alike, site 1 + n/2 not: the
    ring's reflection holds and its half-turn does not.  The check is on
    the rotation, which both break, and fails by its name."""
    assert_premise_failure(capsys, monkeypatch, [0, 4], 1e-6, _ROTATION_REASON + "8.66e-07")


def assert_premise_failure(capsys, monkeypatch, sites, skew, reason):
    """With the x x entry of the on-site blocks of ``sites`` (counted from 0)
    of the cubic n = 6 ring shifted by ``skew`` in the kernel the oracle
    calls, the oracle and the stability command fail with ``reason``."""
    onsite_hessian = blocks._onsite_hessian

    def skewed(ring, X):
        D = onsite_hessian(ring, X)
        D[sites, 0, 0] += skew
        return D

    monkeypatch.setattr(blocks, "_onsite_hessian", skewed)
    with pytest.raises(BrokenReflection, match=re.escape(reason)):
        full_spectrum_oracle(RingSystem(n=6, mu=0.5))
    assert cli.main(["stability", "--n", "6", "--mu", "0.5"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + reason)


_OVERFLOW = "or their extraction from the Hessian overflow"


@pytest.mark.parametrize("command, mu, reason", [
    # 2 mu^2 h' = 1.62e308 is finite, the mean of the rotated on-site blocks is not
    ("blocks", "9e153", f"the mode blocks at mu = 9e+153 {_OVERFLOW}"),
    # 2 mu^2 h' overflows: B_00 and the Hessian are infinite
    ("blocks", "1e154", f"the mode blocks at mu = 1e+154 {_OVERFLOW}"),
    ("stability", "1e154", "the Hessian at the rotating wave is not finite"),
    # the Hessian and the symbols are finite, and so is sqrt|H00| sqrt|H11|: a report
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
        assert report["payload"]["oracle_agrees"] is True
        # the closed form 2 mu of mode 3
        assert report["payload"]["oracle_max_real_part"] == pytest.approx(1.8e154, rel=1e-15)
    else:
        assert code == 4 and captured.out == ""
        assert captured.err == f"error: {reason}\n"


DEFOCUSING = custom_potential(lambda s: -np.asarray(s, dtype=float),
                              lambda s: -np.ones_like(np.asarray(s, dtype=float)),
                              lambda s: -np.asarray(s, dtype=float) ** 2 / 2)
LARGE = np.geomspace(1.0, 1e150, 151)


@pytest.mark.parametrize("n, potential, mus, stable",
                         [(3, CUBIC, np.linspace(1.0, 9.0, 801), True),
                          (6, DEFOCUSING, np.linspace(0.5, 40.0, 400), True),
                          (6, CUBIC, np.geomspace(1e3, 1e7, 41), False),
                          (3, CUBIC, LARGE, True), (4, CUBIC, LARGE, True),
                          (6, CUBIC, LARGE, False), (7, CUBIC, LARGE, False),
                          (8, CUBIC, LARGE, False)],
                         ids=["n3-cubic", "n6-defocusing", "n6-cubic-unstable",
                              "n3-cubic-large", "n4-cubic-large", "n6-cubic-large",
                              "n7-cubic-large", "n8-cubic-large"])
def test_oracle_verdict_agrees_as_the_on_site_term_grows(n, potential, mus, stable):
    """As |mu^2 h'| grows to 1e300 the oracle's verdict is the closed form's,
    and its largest real part is max_k sqrt(alpha_k (2 mu^2 h' - alpha_k))
    within 1e-12 relative, exactly 0 where no mode has a real root.  Dense
    eigensolves give rounding noise there: a defective pair splits by
    O(sqrt(eps)) times the norm of the linearization, which grows with
    |mu^2 h'| faster than the spectrum (at cubic n = 6 the former oracle was
    off by 2e-9 relative at mu = 1e4 and by a factor 27 at 1e10)."""
    alphas = [coefficients(n, k).alpha for k in range(1, n + 1)]
    for mu in mus:
        ring = RingSystem(n=n, mu=float(mu), potential=potential)
        assert linear_stability(ring).stable is stable
        got, x = max_real(full_spectrum_oracle(ring)), mu_h_prime(ring)
        want = max([math.sqrt(a * (2 * x - a)) for a in alphas if a * (2 * x - a) > 0],
                   default=0.0)
        assert abs(got - want) <= 1e-12 * want, mu
        assert (got <= 1e-8) is stable, mu


def test_oracle_reads_a_steep_custom_law(capsys):
    """h' = 1 + (s/4.5)^200 at n = 8, mu = 2.5 puts mu^2 h' at 2.1e29: the
    stability command's oracle agrees with the verdict and reads the closed
    form sqrt(alpha_4 (2 mu^2 h' - alpha_4)) = 1.0989e15 (a cluster radius
    scaled by the spectrum swallowed the unstable pair, reading 0)."""
    argv = ["stability", "--n", "8", "--potential", "custom", "--mu", "2.5",
            "--h-expr", "s + 4.5/201*(s/4.5)**201", "--h-prime-expr", "1 + (s/4.5)**200"]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["stable"] is False and payload["oracle_agrees"] is True
    x = 6.25 * (1.0 + (6.25 / 4.5) ** 200)
    alpha = coefficients(8, 4).alpha
    assert payload["oracle_max_real_part"] == pytest.approx(math.sqrt(alpha * (2 * x - alpha)),
                                                            rel=1e-12)
    assert payload["oracle_max_real_part"] == pytest.approx(1.0989e15, rel=1e-4)


@pytest.mark.parametrize("n, mu", [(6, 0.45), (6, 0.6), (7, 0.6), (3, 1.0)])
def test_oracle_growth_rate_is_the_flows(n, mu):
    """The oracle evaluates its symbols by formula, not from the Hessian's
    entries, so the flow checks it independently.  From the cubic wave
    perturbed by 1e-8, ``orbits.integrate`` (implicit midpoint, dt = 0.02)
    grows at the oracle's largest real part within 1 %, fitted on the second
    half of t = 0..30, or stays within 1e-5 of the wave when that part is 0
    (the rotation zero drifts only linearly); n = 6 straddles mu = 0.5."""
    ring = RingSystem(n=n, mu=mu)
    wave = standing_wave(ring)[0]
    x0 = wave + 1e-8 * np.random.default_rng(1).normal(size=2 * n)
    t, states = orbits.integrate(ring, x0, T=30.0, dt=0.02)
    dev = np.linalg.norm(states - wave, axis=1)
    rate = max_real(full_spectrum_oracle(ring))
    if rate == 0.0:
        assert dev.max() <= 1e-5
    else:
        half = len(t) // 2
        fit = math.log(dev[-1] / dev[half]) / (t[-1] - t[half])
        assert abs(fit - rate) <= 1e-2 * rate, (fit, rate)


def clustered_reference_oracle(ring):
    """The dense reference spectrum reduced to the largest real part of its
    cluster means, as a one-element spectrum."""
    return np.array([reference_spectrum_max_real(reference_spectrum_oracle(ring))])


@pytest.mark.parametrize("potential, mu, stable", [("saturable", "0.8", True),
                                                   ("cubic", "0.3", False)])
def test_stability_report_n256_matches_reference(capsys, monkeypatch, potential, mu, stable):
    """Every field of the report is the dense reference's, byte for byte,
    but the residual-type oracle_max_real_part, which agrees within 1e-11
    with the reference's largest cluster-mean real part."""
    argv = ["stability", "--n", "256", "--potential", potential, "--mu", mu]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["payload"]["stable"] is stable
    monkeypatch.setattr(blocks, "full_spectrum_oracle", clustered_reference_oracle)
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
    # the closed-form det, trace and Morse index of m_k against its eigenvalues
    ring = RingSystem(n=5, mu=0.6)
    for k in range(1, 6):
        ev = np.linalg.eigvalsh(block_m(ring, k, 0.3))
        d, T = det_trace(ring, k, 0.3)
        assert abs(ev[0] * ev[1] - d) < 1e-12
        assert abs(ev.sum() - T) < 1e-12
        assert morse_index(ring, k, 0.3) == (ev < 0).sum()


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
        oracle_stable = max_real(full_spectrum_oracle(ring)) <= 1e-8
        assert verdict.stable == oracle_stable
