import numpy as np
import pytest

from dnlsring import symmetry
from dnlsring.blocks import block_B
from dnlsring.model import (RingSystem, cubic_potential, custom_potential, hessian_V,
                            saturable_potential, standing_wave)
from dnlsring.orbits import FourierOrbit
from dnlsring.symmetry import (IsotropyLabel, assemble_P, block_extract,
                               group_action, symmetry_residual, t_k_apply,
                               t_k_matrix, traveling_wave_residual)


def test_t_k_full_mode_is_pure_rotation_pattern():
    n = 5
    cols = t_k_matrix(n, n)
    # no phase factor: the embedding is real
    assert np.abs(cols.imag).max() == 0.0
    w = np.array([1.0, 0.0])
    out = t_k_apply(n, n, w).reshape(n, 2)
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
        assert abs(np.linalg.norm(t_k_apply(n, k, w)) - np.linalg.norm(w)) < 1e-12
    for k in range(1, n + 1):
        for m in range(1, n + 1):
            if k == m:
                continue
            w = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            inner = np.vdot(t_k_apply(n, k, w), t_k_apply(n, m, v))
            assert abs(inner) < 1e-12


def test_t_k_rejects_out_of_range():
    with pytest.raises(ValueError):
        t_k_apply(5, 0, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        t_k_apply(5, 6, np.array([1.0, 0.0]))


@pytest.mark.parametrize("n", [3, 12])
def test_assemble_P_unitary(n):
    P = assemble_P(n).P
    assert np.abs(P.conj().T @ P - np.eye(2 * n)).max() <= 1e-12


def test_assemble_P_unitary_sweep():
    for n in range(3, 65):
        P = assemble_P(n).P
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
    """The mode blocks and off-block norm of the dense product P^* M P: the
    reference of the FFT path."""
    n = P.n
    C = P.P.conj().T @ M @ P.P
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


def test_block_extract_needs_no_dense_P(monkeypatch):
    """block_extract builds no dense P, which is built from the t_k on first
    read, and takes no matrix in place of the ChangeOfVariables."""
    calls = []
    original = symmetry.t_k_matrix

    def counted(n, k):
        calls.append(k)
        return original(n, k)

    monkeypatch.setattr(symmetry, "t_k_matrix", counted)
    P = assemble_P(7)
    ring = RingSystem(n=7, mu=0.6)
    block_extract(P, hessian_V(ring, standing_wave(ring)[0]))
    assert calls == []
    assert P.P.shape == (14, 14) and len(calls) == 7
    with pytest.raises(TypeError):
        block_extract(P.P, np.eye(14))


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
    x = t_k_apply(n, k, w)
    re = group_action(n, 1, zeta, 0.0, x.real)
    im = group_action(n, 1, zeta, 0.0, x.imag)
    np.testing.assert_allclose(re + 1j * im, np.exp(1j * k * zeta) * x, atol=1e-12)


def test_group_action_composition_law():
    rng = np.random.default_rng(3)
    x = rng.normal(size=10)
    once = group_action(5, 1, 0.0, 0.0, x)
    twice = group_action(5, 1, 0.0, 0.0, once)
    np.testing.assert_allclose(twice, group_action(5, 2, 0.0, 0.0, x), atol=1e-14)


def test_isotropy_label():
    lab = IsotropyLabel(n=6, k=3)
    assert lab.label == "Z~_6(3)"
    zeta = 2 * np.pi / 6
    gen = lab.generator
    assert abs(gen[0] - zeta) < 1e-15
    assert abs(gen[2] - (2 * np.pi - 3 * zeta)) < 1e-14


def test_symmetry_residual_constant_orbit():
    ring = RingSystem(n=6, mu=0.5)
    a, _ = standing_wave(ring)
    orbit = FourierOrbit.from_state(a, nu=1.0, p=4)
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
    coeffs[5] = eps / 2 * t_k_apply(6, k, w)
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
    coeffs[5] = eps / 2 * t_k_apply(6, 2, w)   # mode 2 content
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
    coeffs[5] = 0.01 * t_k_apply(6, k, w)
    coeffs[3] = np.conj(coeffs[5])
    assert traveling_wave_residual(FourierOrbit(nu=1.0, coeffs=coeffs), k) <= 1e-12
