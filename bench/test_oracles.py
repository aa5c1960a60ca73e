"""Quick tests of the benchmark's own oracles (no dnlsring import).

    python3 -m pytest -q bench/test_oracles.py      or      python3 bench/test_oracles.py
"""

import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402

block = oracles.block


def test_structural_zeros_and_paper_constants():
    assert all(oracles.alpha(4, k) == 0.0 for k in range(1, 5))
    assert oracles.alpha(7, 7) == 0.0 and oracles.gamma(8, 4) == 0.0
    for n in range(5, 20):
        assert abs(oracles.alpha(n, 2) - oracles.gamma(n, 2)) < 1e-14
    assert abs(oracles.alpha(3, 1) / 2 + 0.75) < 1e-15

    def delta(n):
        a, g = oracles.alpha(n, 1), oracles.gamma(n, 1)
        return (a * a - g * g) / (2 * a)
    assert abs(delta(15) + 0.26754) < 1e-4 and abs(delta(16) + 0.23463) < 1e-4


def test_critical_frequencies_are_roots_of_the_block():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(3, 30))
        k = int(rng.integers(1, n))
        x = float(rng.uniform(-0.3, 1.0))
        pair = oracles.critical_frequencies(n, k, x)
        if pair is None:
            continue
        for nu in pair:
            assert abs(np.linalg.det(block(n, k, x, nu))) < 1e-10


def test_eta_rule_matches_counted_morse_indices():
    rng = np.random.default_rng(2)
    checked = 0
    for _ in range(300):
        n = int(rng.integers(3, 40))
        k = int(rng.integers(1, n))
        x = float(rng.uniform(-0.25, 1.5))
        sigma = 1 if rng.integers(2) else -1
        pair = oracles.critical_frequencies(n, k, x)
        if pair is None or pair[1] - pair[0] < 1e-6:
            continue
        rho = (pair[1] - pair[0]) * 1e-3
        for nu, root in zip(pair, ("minus", "plus")):
            below = int((np.linalg.eigvalsh(block(n, k, x, nu - rho)) < 0).sum())
            above = int((np.linalg.eigvalsh(block(n, k, x, nu + rho)) < 0).sum())
            assert oracles.eta(n, k, x, sigma, root) == sigma * (below - above)
            checked += 1
    assert checked > 200


def test_dense_linearization_spectrum_is_the_block_roots():
    rng = np.random.default_rng(3)
    for n in range(3, 11):
        x = float(rng.uniform(-0.25, 0.8))
        roots = []
        for k in range(1, n + 1):
            a, g = oracles.alpha(n, k), oracles.gamma(n, k)
            s = np.sqrt(complex(a * (a - 2.0 * x)))
            roots += [1j * (g + s), 1j * (g - s)]
        ev = np.linalg.eigvals(oracles.linearization(n, x))
        # defective double roots split by O(sqrt(eps)) under rounding
        for z in roots:
            assert np.min(np.abs(ev - z)) < 1e-6
        stable = float(np.abs(ev.real).max()) <= 1e-6
        assert stable == oracles.stable(n, x) or abs(x - oracles.alpha(n, 1) / 2) < 1e-3


def test_hessian_is_the_derivative_of_the_gradient():
    n, mu = 7, 0.8

    def h(s):
        return 1.0 / (1.0 + s)
    x = mu * mu * (-1.0 / (1.0 + mu * mu) ** 2)
    omega = 4.0 * math.sin(math.pi / n) ** 2 - h(mu * mu)
    a = oracles.rotating_wave(n)
    H = oracles.hessian_at_wave(n, x)
    step = 1e-6
    for i in range(2 * n):
        e = np.zeros(2 * n)
        e[i] = step
        fd = (oracles.gradient((a + e).reshape(n, 2), mu, omega, h)
              - oracles.gradient((a - e).reshape(n, 2), mu, omega, h)).ravel() / (2 * step)
        assert np.abs(fd - H[:, i]).max() < 1e-8
    assert np.abs(oracles.gradient(a.reshape(n, 2), mu, omega, h)).max() < 1e-14


def test_sampled_residual_vanishes_on_the_wave_and_scales_quadratically():
    n, k, mu, p = 6, 3, 0.5, 4

    def h(s):
        return s
    x = mu * mu
    coeffs = np.zeros((2 * p + 1, 2 * n), dtype=complex)
    coeffs[p] = oracles.rotating_wave(n)
    assert oracles.sampled_residual(coeffs, 1.3, mu, h) < 1e-14
    nu = oracles.critical_frequencies(n, k, x)[1]
    res = [oracles.sampled_residual(oracles.kernel_orbit(n, k, x, nu, eps, p), nu, mu, h)
           for eps in (1e-3, 1e-4)]
    # the kernel direction cancels the linear term, leaving O(eps^2)
    assert 50 < res[0] / res[1] < 200


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")
