import time

import numpy as np
import pytest

from dnlsring.blocks import block_B
from dnlsring.model import (RingSystem, cubic_potential, custom_potential, hessian_V,
                            saturable_potential, standing_wave)
from dnlsring.orbits import FourierOrbit
from dnlsring.symmetry import (IsotropyLabel, assemble_P, block_extract, symmetry_residual,
                               t_k_matrix, traveling_wave_residual)
from references import constant_orbit, dense_P, group_action, traveling_wave_loop


def test_t_k_full_mode_is_pure_rotation_pattern():
    n = 5
    cols = t_k_matrix(n, n)
    # no phase factor: the embedding is real
    assert np.abs(cols.imag).max() == 0.0
    w = np.array([1.0, 0.0])
    out = (t_k_matrix(n, n) @ w).reshape(n, 2)
    for j in range(1, n + 1):
        ang = 2 * np.pi * j / n
        np.testing.assert_allclose(out[j - 1],
                                   [np.cos(ang) / np.sqrt(n), np.sin(ang) / np.sqrt(n)],
                                   atol=1e-14)


def loop_t_k_matrix(n, k):
    """Row-pair by row-pair construction of t_k, the reference of the array build."""
    T = np.empty((2 * n, 2), dtype=complex)
    for j in range(1, n + 1):
        c, s = np.cos(j * 2 * np.pi / n), np.sin(j * 2 * np.pi / n)
        T[2 * (j - 1):2 * j] = np.exp(2j * np.pi * ((k * j) % n) / n) \
            * np.array([[c, -s], [s, c]])
    return T / np.sqrt(n)


def test_t_k_matrix_matches_site_loop():
    # vectorized sin/cos/exp may round differently: a few ulp of O(1) entries
    tol = 4 * np.finfo(float).eps
    for n in list(range(3, 40)) + [96, 256]:
        for k in range(1, n + 1):
            assert np.abs(t_k_matrix(n, k) - loop_t_k_matrix(n, k)).max() <= tol


def test_t_k_isometry_and_orthogonality():
    rng = np.random.default_rng(0)
    n = 7
    for k in range(1, n + 1):
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert abs(np.linalg.norm(t_k_matrix(n, k) @ w) - np.linalg.norm(w)) < 1e-12
    for k in range(1, n + 1):
        for m in range(1, n + 1):
            if k == m:
                continue
            w = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            inner = np.vdot(t_k_matrix(n, k) @ w, t_k_matrix(n, m) @ v)
            assert abs(inner) < 1e-12


def test_t_k_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"mode index k must be in 1\.\.5, got 0"):
        t_k_matrix(5, 0)
    with pytest.raises(ValueError, match=r"mode index k must be in 1\.\.5, got 6"):
        t_k_matrix(5, 6)


def test_assemble_P_rejects_rings_below_three():
    with pytest.raises(ValueError, match="n must be >= 3"):
        assemble_P(2)


def test_block_extract_rejects_other_matrix_shape():
    with pytest.raises(ValueError, match=r"M must be \(8, 8\), got \(6, 6\)"):
        block_extract(assemble_P(4), np.eye(6))


@pytest.mark.parametrize("P, shape", [(np.eye(4), r"\(4, 4\)"), (np.eye(7), r"\(7, 7\)"),
                                      (np.eye(8)[:, :6], r"\(8, 6\)"),
                                      (np.ones(8), r"\(8,\)"), (np.float64(1.0), r"\(\)")])
def test_block_extract_rejects_other_P(P, shape):
    """P must be a 2n x 2n matrix with n >= 3, or block_extract names its shape."""
    with pytest.raises(ValueError, match=r"P must be \(2n, 2n\) with n >= 3, got " + shape):
        block_extract(P, np.eye(8))


def test_assemble_P_column_blocks_are_t_k_bit_for_bit():
    """Every column block k of the one-expression P is t_k_matrix(n, k), bit for bit."""
    for n in list(range(3, 81)) + [96, 97, 256]:
        P = assemble_P(n)
        assert P.shape == (2 * n, 2 * n)
        for k in range(1, n + 1):
            assert np.array_equal(P[:, 2 * k - 2:2 * k], t_k_matrix(n, k)), (n, k)


@pytest.mark.parametrize("n", [3, 12])
def test_assemble_P_unitary(n):
    P = dense_P(n)
    assert np.abs(P.conj().T @ P - np.eye(2 * n)).max() <= 1e-12


def test_assemble_P_unitary_sweep():
    for n in range(3, 65):
        P = dense_P(n)
        assert np.abs(P.conj().T @ P - np.eye(2 * n)).max() <= 1e-12


def test_block_extract_identity():
    P = assemble_P(4)
    blocks, off = block_extract(P, np.eye(8))
    assert off < 1e-13
    for b in blocks:
        np.testing.assert_allclose(b, np.eye(2), atol=1e-13)


def test_block_extract_hessian_n6():
    ring = RingSystem(n=6, mu=0.5)
    a, _ = standing_wave(ring)
    blocks, off = block_extract(assemble_P(6), hessian_V(ring, a))
    assert off <= 1e-10
    np.testing.assert_allclose(blocks[2], np.diag([-1.5, -2.0]), atol=1e-10)


def test_block_extract_reports_nonequivariant_matrix():
    rng = np.random.default_rng(1)
    M = rng.normal(size=(8, 8))
    _, off = block_extract(assemble_P(4), M)
    assert off > 0.1


def dense_block_extract(P, M):
    """The mode blocks and off-block norm of the dense product P^* M P, with
    P built mode by mode from the t_k: the reference of the one-expression P."""
    n = len(P) // 2
    Pd = dense_P(n)
    C = Pd.conj().T @ M @ Pd
    blocks = np.array([C[2 * k:2 * k + 2, 2 * k:2 * k + 2] for k in range(n)])
    for k in range(n):
        C[2 * k:2 * k + 2, 2 * k:2 * k + 2] = 0.0
    return blocks, float(np.linalg.norm(C))


def test_block_extract_matches_dense_product():
    rng = np.random.default_rng(12)
    potentials = [cubic_potential(), saturable_potential(),
                  custom_potential(lambda s: s - s * s / 4.0, lambda s: 1.0 - s / 2.0,
                                   lambda s: s * s / 2.0 - s ** 3 / 12.0)]
    for n in list(range(3, 65)) + [96, 97, 256]:
        P = assemble_P(n)
        for pot in potentials:
            ring = RingSystem(n=n, mu=rng.uniform(0.1, 1.9), potential=pot)
            H = hessian_V(ring, standing_wave(ring)[0])
            blocks, off = block_extract(P, H)
            want, want_off = dense_block_extract(P, H)
            assert blocks.shape == (n, 2, 2)
            assert np.abs(blocks - want).max() <= 1e-12 * (1.0 + np.abs(want).max())
            assert abs(off - want_off) <= 1e-12
        M = rng.normal(size=(2 * n, 2 * n))
        blocks, off = block_extract(P, M)
        want, want_off = dense_block_extract(P, M)
        assert np.abs(blocks - want).max() <= 1e-12 * (1.0 + np.abs(want).max())
        assert abs(off - want_off) <= 1e-12 * want_off


@pytest.mark.parametrize("n", range(3, 13))
@pytest.mark.parametrize("pot_name", ["cubic", "saturable"])
def test_schur_property_blocks_match_analytic(n, pot_name):
    pot = cubic_potential() if pot_name == "cubic" else saturable_potential()
    P = assemble_P(n)
    for mu in (0.3, 1.0, 2.0):
        ring = RingSystem(n=n, mu=mu, potential=pot)
        a, _ = standing_wave(ring)
        blocks, off = block_extract(P, hessian_V(ring, a))
        assert off <= 1e-10
        for k in range(1, n + 1):
            np.testing.assert_allclose(blocks[k - 1], block_B(ring, k), atol=1e-10)


def test_extracted_blocks_conjugacy():
    ring = RingSystem(n=9, mu=0.7, potential=saturable_potential())
    a, _ = standing_wave(ring)
    blocks, _ = block_extract(assemble_P(9), hessian_V(ring, a))
    for k in range(1, 9):
        np.testing.assert_allclose(blocks[9 - k - 1], blocks[k - 1].conj(), atol=1e-12)


def test_group_action_fixes_equilibrium():
    ring = RingSystem(n=8, mu=0.6)
    a, _ = standing_wave(ring)
    zeta = 2 * np.pi / 8
    assert np.abs(group_action(8, 1, zeta, 0.0, a) - a).max() < 1e-12


def test_group_action_phase_on_mode_space():
    # complexified vectors in W_k transform with the phase e^{ik zeta}
    n, k = 6, 2
    zeta = 2 * np.pi / n
    rng = np.random.default_rng(2)
    w = rng.normal(size=2) + 1j * rng.normal(size=2)
    x = t_k_matrix(n, k) @ w
    re = group_action(n, 1, zeta, 0.0, x.real)
    im = group_action(n, 1, zeta, 0.0, x.imag)
    np.testing.assert_allclose(re + 1j * im, np.exp(1j * k * zeta) * x, atol=1e-12)


def test_group_action_composition_law():
    rng = np.random.default_rng(3)
    x = rng.normal(size=10)
    once = group_action(5, 1, 0.0, 0.0, x)
    twice = group_action(5, 1, 0.0, 0.0, once)
    np.testing.assert_allclose(twice, group_action(5, 2, 0.0, 0.0, x), atol=1e-14)


def test_group_action_takes_a_state_or_fourier_coefficients():
    # a 2-D array is read as Fourier coefficients, and no other rank but a
    # state's is; at phi = 0 each row moves as a state does
    x = np.random.default_rng(4).normal(size=(5, 10))
    with pytest.raises(ValueError, match="got shape"):
        group_action(5, 1, 0.3, 0.0, x[None])
    moved = group_action(5, 1, 0.3, 0.0, x)
    np.testing.assert_allclose(moved, [group_action(5, 1, 0.3, 0.0, row) for row in x],
                               atol=1e-15)


def test_isotropy_label():
    lab = IsotropyLabel(n=6, k=3)
    assert lab.label == "Z~_6(3)"


def test_symmetry_residual_constant_orbit():
    ring = RingSystem(n=6, mu=0.5)
    a, _ = standing_wave(ring)
    orbit = constant_orbit(a, nu=1.0, p=4)
    res = symmetry_residual(orbit, 6)
    assert res.pattern <= 1e-12 and res.norms <= 1e-12


def test_symmetry_residual_synthetic_mode_orbit():
    # a_bar + eps Re(e^{it} t_k(w)) lies in the mode-k isotropy subspace
    ring = RingSystem(n=6, mu=0.5)
    a, _ = standing_wave(ring)
    k, eps = 3, 1e-3
    rng = np.random.default_rng(4)
    w = rng.normal(size=2) + 1j * rng.normal(size=2)
    coeffs = np.zeros((9, 12), dtype=complex)
    coeffs[4] = a
    coeffs[5] = eps / 2 * (t_k_matrix(6, k) @ w)
    coeffs[3] = np.conj(coeffs[5])
    orbit = FourierOrbit(nu=1.0, coeffs=coeffs)
    res = symmetry_residual(orbit, k)
    assert res.pattern <= 1e-12 and res.norms <= 1e-12


def test_symmetry_residual_detects_wrong_mode():
    ring = RingSystem(n=6, mu=0.5)
    a, _ = standing_wave(ring)
    eps = 1e-3
    rng = np.random.default_rng(5)
    w = rng.normal(size=2) + 1j * rng.normal(size=2)
    w /= np.linalg.norm(w)
    coeffs = np.zeros((9, 12), dtype=complex)
    coeffs[4] = a
    coeffs[5] = eps / 2 * (t_k_matrix(6, 2) @ w)   # mode 2 content
    coeffs[3] = np.conj(coeffs[5])
    orbit = FourierOrbit(nu=1.0, coeffs=coeffs)
    res = symmetry_residual(orbit, 3)          # checked against mode 3
    assert 0.1 * eps < res.pattern < 10 * eps


def test_traveling_wave_residual_on_mode_orbit():
    a, _ = standing_wave(RingSystem(n=6, mu=0.5))
    k = 3
    w = np.array([0.4 - 0.1j, 0.2 + 0.3j])
    coeffs = np.zeros((9, 12), dtype=complex)
    coeffs[4] = a
    coeffs[5] = 0.01 * (t_k_matrix(6, k) @ w)
    coeffs[3] = np.conj(coeffs[5])
    assert traveling_wave_residual(FourierOrbit(nu=1.0, coeffs=coeffs), k) <= 1e-12


def pattern_orbit(n, p, k, rng, eps=0.0):
    """A real orbit whose complex modes c_lj = D_l e^{i j (1 + l k) zeta}
    (random D_l) follow the mode-k pattern, each perturbed by eps times a
    complex normal."""
    l, j = np.arange(-p, p + 1)[:, None], np.arange(n)
    D = rng.normal(size=(2 * p + 1, 1)) + 1j * rng.normal(size=(2 * p + 1, 1))
    c = D * np.exp(2j * np.pi * (j * (1 + l * k) % n) / n)
    c = c + eps * (rng.normal(size=c.shape) + 1j * rng.normal(size=c.shape))
    # x + i y has the modes c when x_l = (c_l + conj c_-l)/2, y_l = (c_l - conj c_-l)/2i
    coeffs = np.empty((2 * p + 1, 2 * n), dtype=complex)
    coeffs[:, 0::2] = (c + c[::-1].conj()) / 2
    coeffs[:, 1::2] = (c - c[::-1].conj()) / 2j
    return FourierOrbit(nu=1.0, coeffs=coeffs)


def test_traveling_wave_residual_bounds_the_sampled_loop():
    """The closed form is at least the sampled mismatch of the shift loop,
    and at most 2 (2p + 1) times it: the sampled mismatch at (j, m) is at
    least each mode's |D_{l,j+m} - D_lj|, which is at least |D_lj - mean|."""
    rng = np.random.default_rng(19)
    for eps in np.logspace(-12, 0, 200):
        n = int(rng.integers(3, 13))
        p, k = int(rng.integers(1, 5)), int(rng.integers(1, n))
        orbit = pattern_orbit(n, p, k, rng, eps)
        loop = traveling_wave_loop(orbit, k)
        assert loop <= traveling_wave_residual(orbit, k) <= 2 * (2 * p + 1) * loop, (n, p, k)


def test_traveling_wave_residual_large_ring_within_budget():
    # O(n p): n = 1024, p = 8 within 0.1 s
    orbit = pattern_orbit(1024, 8, 512, np.random.default_rng(20))
    t0 = time.perf_counter()
    res = traveling_wave_residual(orbit, 512)
    elapsed = time.perf_counter() - t0
    assert res <= 1e-12
    assert elapsed <= 0.1, f"{elapsed:.3f} s"
