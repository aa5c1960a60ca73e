import numpy as np
import pytest

from dnlsring import model
from dnlsring.model import (RingSystem, block_symplectic, complex_view,
                            cubic_potential, custom_potential, gradient_V,
                            hessian_V, potential_V, real_view,
                            saturable_potential, standing_wave, vector_field)
from dnlsring.symmetry import group_action


def fd_gradient(f, x, step=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2 * step)
    return g


def test_potential_invariants_cubic():
    pot = cubic_potential()
    s = np.linspace(0.0, 5.0, 11)
    assert np.allclose(pot.h(s), s)
    assert np.allclose(pot.h_prime(s), 1.0)
    assert np.allclose(pot.G(s), s ** 2 / 2)
    pot.validate()


def test_potential_invariants_saturable():
    pot = saturable_potential()
    s = np.linspace(0.0, 5.0, 11)
    assert np.allclose(pot.h(s), 1 / (1 + s))
    assert np.allclose(pot.h_prime(s), -1 / (1 + s) ** 2)
    assert np.allclose(pot.G(s), np.log(1 + s))
    pot.validate()


def test_potential_derivatives_match_fd():
    for pot in (cubic_potential(), saturable_potential()):
        s = np.linspace(0.1, 4.0, 20)
        step = 1e-6
        hp_fd = (pot.h(s + step) - pot.h(s - step)) / (2 * step)
        assert np.max(np.abs(hp_fd - pot.h_prime(s))) < 1e-6
        g_fd = (pot.G(s + step) - pot.G(s - step)) / (2 * step)
        assert np.max(np.abs(g_fd - pot.h(s))) < 1e-6


def test_custom_potential_quadrature_matches_closed_form():
    # omit G: built by quadrature, must agree with the cubic closed form
    pot = custom_potential(h=lambda s: np.asarray(s, float),
                           h_prime=lambda s: np.ones_like(np.asarray(s, float)))
    s = np.array([0.0, 0.3, 1.7])
    assert np.allclose(pot.G(s), s ** 2 / 2, atol=1e-9)


def test_custom_potential_validate_rejects_bad_derivative():
    pot = custom_potential(h=lambda s: np.asarray(s, float),
                           h_prime=lambda s: 2 * np.ones_like(np.asarray(s, float)),
                           G=lambda s: np.asarray(s, float) ** 2 / 2)
    with pytest.raises(ValueError):
        pot.validate()


def test_custom_potential_validate_checks_supplied_g_only(monkeypatch):
    """A G that custom_potential integrates from h is G' = h by construction
    and costs no quadrature to validate; a supplied G is checked."""
    bad_g = custom_potential(h=lambda s: np.asarray(s, float),
                             h_prime=lambda s: np.ones_like(np.asarray(s, float)),
                             G=lambda s: np.asarray(s, float) ** 2)
    with pytest.raises(ValueError, match="G is inconsistent"):
        bad_g.validate()

    def no_quad(*args, **kwargs):
        raise AssertionError("validate integrated h")

    monkeypatch.setattr(model, "quad", no_quad)
    integrated = custom_potential(h=lambda s: np.asarray(s, float),
                                  h_prime=lambda s: np.ones_like(np.asarray(s, float)))
    integrated.validate()
    bad_hp = custom_potential(h=lambda s: np.asarray(s, float),
                              h_prime=lambda s: 2 * np.ones_like(np.asarray(s, float)))
    with pytest.raises(ValueError, match="h_prime"):
        bad_hp.validate()


def test_ring_system_rejects_small_n_and_bad_mu():
    for n in (1, 2):
        with pytest.raises(ValueError):
            RingSystem(n=n, mu=1.0)
    with pytest.raises(ValueError):
        RingSystem(n=5, mu=0.0)
    with pytest.raises(ValueError):
        RingSystem(n=5, mu=-0.3)
    # a potential that is not finite at mu^2 gives no ring
    root = custom_potential(lambda s: np.sqrt(1 - s), lambda s: -0.5 / np.sqrt(1 - s))
    RingSystem(n=8, mu=0.9, potential=root)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=r"mu\^2 = 2.25"):
        RingSystem(n=8, mu=1.5, potential=root)


def test_ring_system_rejects_overflowing_and_non_finite_mu():
    # mu ** 2 of a Python float raises OverflowError above ~1.34e154
    for mu in (1e200, np.float64(1e200), 10 ** 200):
        with pytest.raises(ValueError, match="mu\\^2 overflows"):
            RingSystem(n=5, mu=mu)
    # h and h' of the saturable law are finite at s = inf
    for mu in (np.inf, np.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            RingSystem(n=5, mu=mu, potential=saturable_potential())
    assert RingSystem(n=5, mu=1e150).mu == 1e150


def test_standing_wave_n4_components():
    ring = RingSystem(n=4, mu=0.7)
    a, omega = standing_wave(ring)
    np.testing.assert_allclose(complex_view(a), [1j, -1, -1j, 1], atol=1e-15)
    assert abs(omega - (2 - 0.49)) < 1e-14


@pytest.mark.parametrize("n,mu,pot,expected", [
    (6, 0.5, cubic_potential(), 0.75),
    (3, 1.0, saturable_potential(), 2.5),
])
def test_standing_wave_omega(n, mu, pot, expected):
    ring = RingSystem(n=n, mu=mu, potential=pot)
    a, omega = standing_wave(ring)
    assert abs(omega - expected) < 1e-14
    assert np.abs(gradient_V(ring, a)).max() <= 1e-12


def test_complex_real_views_roundtrip():
    rng = np.random.default_rng(0)
    x = rng.normal(size=10)
    np.testing.assert_allclose(real_view(complex_view(x)), x)


def test_potential_V_zero_at_origin():
    ring = RingSystem(n=5, mu=0.8, potential=saturable_potential())
    assert potential_V(ring, np.zeros(10)) == 0.0


def test_potential_V_anchor_n3_cubic():
    # independent naive summation oracle, plus the closed-form value -3/4
    ring = RingSystem(n=3, mu=1.0)
    a, omega = standing_wave(ring)
    total = 0.0
    for j in range(3):
        aj = a[2 * j:2 * j + 2]
        ajp = a[2 * ((j + 1) % 3):2 * ((j + 1) % 3) + 2]
        r2 = float(aj @ aj)
        onsite = omega / 2 * r2 + (r2 ** 2 / 2) / 2
        total += onsite - 0.5 * float((ajp - aj) @ (ajp - aj))
    V = potential_V(ring, a)
    assert abs(V - total) < 1e-12
    assert abs(V - (-0.75)) < 1e-12


@pytest.mark.parametrize("theta", [2 * np.pi / 6, 4 * np.pi / 6, np.pi / 7])
def test_potential_V_rotation_invariant(theta):
    ring = RingSystem(n=6, mu=0.9, potential=saturable_potential())
    rng = np.random.default_rng(1)
    x = rng.normal(size=12)
    rotated = group_action(6, 0, theta, 0.0, x)
    assert abs(potential_V(ring, x) - potential_V(ring, rotated)) < 1e-12


@pytest.mark.parametrize("pot", [cubic_potential(), saturable_potential()])
def test_gradient_matches_fd(pot):
    ring = RingSystem(n=5, mu=0.7, potential=pot)
    rng = np.random.default_rng(2)
    x = rng.normal(size=10)
    g_fd = fd_gradient(lambda y: potential_V(ring, y), x)
    g = gradient_V(ring, x)
    assert np.max(np.abs(g - g_fd)) / max(1.0, np.max(np.abs(g))) < 1e-6


def test_gradient_orthogonal_to_rotation_generator():
    ring = RingSystem(n=7, mu=1.1, potential=saturable_potential())
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.normal(size=14)
        Jx = (x.reshape(-1, 2) @ np.array([[0.0, 1.0], [-1.0, 0.0]])).ravel()
        assert abs(gradient_V(ring, x) @ Jx) < 1e-12 * max(1.0, np.abs(x).max() ** 4)


def test_hessian_symmetric_fd_and_kernel():
    ring = RingSystem(n=6, mu=0.5)
    rng = np.random.default_rng(4)
    x = rng.normal(size=12)
    H = hessian_V(ring, x)
    assert np.abs(H - H.T).max() <= 1e-12
    H_fd = np.column_stack([
        (gradient_V(ring, x + e) - gradient_V(ring, x - e)) / 2e-5
        for e in np.eye(12) * 1e-5])
    assert np.abs(H - H_fd).max() / max(1.0, np.abs(H).max()) < 1e-6
    a, _ = standing_wave(ring)
    Ja = block_symplectic(6) @ a
    assert np.abs(hessian_V(ring, a) @ Ja).max() <= 1e-10


def loop_hessian_V(ring, x):
    """Site-by-site assembly of the Hessian, the reference of the array build."""
    n, mu2 = ring.n, ring.mu ** 2
    X = x.reshape(n, 2)
    r2 = (X ** 2).sum(axis=-1)
    hval, hp = ring.potential.h(mu2 * r2), ring.potential.h_prime(mu2 * r2)
    H = np.zeros((2 * n, 2 * n))
    for j in range(n):
        H[2 * j:2 * j + 2, 2 * j:2 * j + 2] = (ring.omega + hval[j] - 2.0) * np.eye(2) \
            + 2.0 * mu2 * hp[j] * np.outer(X[j], X[j])
        jp = (j + 1) % n
        H[2 * j:2 * j + 2, 2 * jp:2 * jp + 2] += np.eye(2)
        H[2 * jp:2 * jp + 2, 2 * j:2 * j + 2] += np.eye(2)
    return H


def test_hessian_matches_site_loop():
    # same arithmetic in the same order, so the two builds agree bit for bit
    rng = np.random.default_rng(5)
    for n in (3, 4, 5, 6, 17, 256):
        for pot in (cubic_potential(), saturable_potential()):
            ring = RingSystem(n=n, mu=float(rng.uniform(0.1, 2.0)), potential=pot)
            x = rng.normal(size=2 * n)
            assert np.array_equal(hessian_V(ring, x), loop_hessian_V(ring, x))


def test_vector_field_properties():
    ring = RingSystem(n=6, mu=0.5)
    a, _ = standing_wave(ring)
    assert np.abs(vector_field(ring, a)).max() <= 1e-12
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.normal(size=12)
        f = vector_field(ring, x)
        assert abs(f @ gradient_V(ring, x)) < 1e-10 * max(1.0, np.abs(f).max() ** 2)
        # d/dt sum |u_j|^2 = <f, x> vanishes by the orthogonality identity
        assert abs(f @ x) < 1e-10 * max(1.0, np.abs(x).max() ** 4)


@pytest.mark.parametrize("shift,theta", [(1, 2 * np.pi / 6), (2, 0.0), (0, 0.83)])
def test_gradient_equivariance(shift, theta):
    ring = RingSystem(n=6, mu=0.8, potential=saturable_potential())
    rng = np.random.default_rng(6)
    x = rng.normal(size=12)
    lhs = gradient_V(ring, group_action(6, shift, theta, 0.0, x))
    rhs = group_action(6, shift, theta, 0.0, gradient_V(ring, x))
    assert np.abs(lhs - rhs).max() < 1e-12


def test_composed_generator_fixes_equilibrium():
    ring = RingSystem(n=6, mu=0.5)
    a, _ = standing_wave(ring)
    zeta = 2 * np.pi / 6
    moved = group_action(6, 1, zeta, 0.0, a)
    assert np.abs(moved - a).max() < 1e-12
    # V, grad_V and the Hessian respect the composed generator
    rng = np.random.default_rng(7)
    x = rng.normal(size=12)
    assert abs(potential_V(ring, x)
               - potential_V(ring, group_action(6, 1, zeta, 0.0, x))) < 1e-12
    R = np.column_stack([group_action(6, 1, zeta, 0.0, e) for e in np.eye(12)])
    lhs = hessian_V(ring, R @ x)
    rhs = R @ hessian_V(ring, x) @ R.T
    assert np.abs(lhs - rhs).max() < 1e-12


def test_state_validation():
    ring = RingSystem(n=4, mu=1.0)
    with pytest.raises(ValueError):
        gradient_V(ring, np.zeros(7))
    bad = np.zeros(8)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        potential_V(ring, bad)
