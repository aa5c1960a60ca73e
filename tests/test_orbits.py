import contextlib
import io
import json
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from dnlsring import cli, orbits
from dnlsring.blocks import block_m, full_spectrum_oracle, kernel_vector
from dnlsring.classify import enumerate_bifurcations
from dnlsring.cli import _expr_fn
from dnlsring.model import (RingSystem, _onsite_hessian, block_symplectic, cubic_potential,
                            custom_potential, hessian_V, potential_V, saturable_potential,
                            standing_wave, vector_field)
from dnlsring.orbits import (_MIDPOINT_ITER, _MIDPOINT_TOL, _NEWTON_TOL, ContinuationBranch,
                             FourierOrbit, NoConvergence, SingularJacobian, _apply_iJJ,
                             _default_samples, _FourierSpace, _newton, _orbit_constraints,
                             continue_branch,
                             extrapolate_nu_to_zero,
                             integrate, linearized_residual, newton_orbit,
                             orbit_residual_norm, orthogonality_check, residual)
from dnlsring.symmetry import (SymmetryResidual, symmetry_residual, t_k_matrix,
                               traveling_wave_residual)

SAT = saturable_potential()
CUSTOM = custom_potential(np.tanh, lambda s: 1.0 / np.cosh(s) ** 2)


def random_trig_orbit(rng, n, p, nu=0.9, scale=0.3):
    coeffs = scale * (rng.normal(size=(2 * p + 1, 2 * n))
                      + 1j * rng.normal(size=(2 * p + 1, 2 * n)))
    for l in range(1, p + 1):
        coeffs[p - l] = np.conj(coeffs[p + l])
    coeffs[p] = coeffs[p].real
    return FourierOrbit(nu=nu, coeffs=coeffs)


def mode_perturbed_orbit(ring, k, eps, nu, w=None, p=8):
    a, _ = standing_wave(ring)
    if w is None:
        w = kernel_vector(ring, k, nu)
    coeffs = np.zeros((2 * p + 1, 2 * ring.n), dtype=complex)
    coeffs[p] = a
    coeffs[p + 1] = eps / 2 * (t_k_matrix(ring.n, k) @ w)
    coeffs[p - 1] = np.conj(coeffs[p + 1])
    return FourierOrbit(nu=nu, coeffs=coeffs)


# --- FourierOrbit ------------------------------------------------------------

def test_orbit_reality_validation():
    bad = np.zeros((5, 6), dtype=complex)
    bad[3, 0] = 1.0   # no conjugate partner
    with pytest.raises(ValueError):
        FourierOrbit(nu=1.0, coeffs=bad)


def test_orbit_sample_roundtrip():
    rng = np.random.default_rng(0)
    orbit = random_trig_orbit(rng, n=4, p=5)
    samples = orbit.sample()
    back = FourierOrbit.from_samples(samples, nu=orbit.nu, p=5)
    assert np.abs(back.coeffs - orbit.coeffs).max() < 1e-12


def test_orbit_amplitude_excludes_mean():
    a, _ = standing_wave(RingSystem(n=5, mu=1.0))
    orbit = FourierOrbit.from_state(a, nu=1.0, p=3)
    assert orbit.amplitude == 0.0


# --- residual ----------------------------------------------------------------

def test_residual_zero_at_equilibrium():
    ring = RingSystem(n=6, mu=0.5)
    a, _ = standing_wave(ring)
    orbit = FourierOrbit.from_state(a, nu=1.3, p=6)
    F = residual(ring, orbit)
    assert np.abs(F).max() <= 1e-12


def test_residual_linearization_anchors_block():
    # the l=1 residual mode of a_bar + eps Re(e^{it} t_k(w)) is
    # (eps/2) t_k(m_k(nu) w) + O(eps^2)
    ring = RingSystem(n=6, mu=0.5)
    k, nu, eps = 3, 0.7, 1e-6
    rng = np.random.default_rng(1)
    w = rng.normal(size=2) + 1j * rng.normal(size=2)
    w /= np.linalg.norm(w)
    orbit = mode_perturbed_orbit(ring, k, eps, nu, w=w)
    F = residual(ring, orbit)
    predicted = eps / 2 * (t_k_matrix(6, k) @ (block_m(ring, k, nu) @ w))
    rel = np.abs(F[orbit.p + 1] - predicted).max() / np.abs(predicted).max()
    assert rel < 1e-4


def test_mode_block_correspondence():
    # per Fourier mode l, the Jacobian at a_bar in the mode basis is
    # blockdiag over k of m_k(l nu)
    ring = RingSystem(n=6, mu=0.5, potential=SAT)
    nu, p = 0.8, 3
    a, _ = standing_wave(ring)
    base = FourierOrbit.from_state(a, nu=nu, p=p)

    def apply_jacobian(l, vec):
        if l == 0:
            # mode 0 of a real signal is real: complexify by linearity
            parts = []
            for comp in (vec.real, vec.imag):
                d = np.zeros((2 * p + 1, 12), dtype=complex)
                d[p] = comp
                parts.append(linearized_residual(ring, base, d))
            return parts[0] + 1j * parts[1]
        d = np.zeros((2 * p + 1, 12), dtype=complex)
        d[p + l] = vec
        d[p - l] = np.conj(vec)
        return linearized_residual(ring, base, d)

    for l in (0, 1, 2):
        for k in (1, 3, 6):
            T = t_k_matrix(6, k)
            for col in range(2):
                dF = apply_jacobian(l, T[:, col])
                expected = T @ block_m(ring, k, l * nu)[:, col]
                assert np.abs(dF[p + l] - expected).max() <= 1e-10


@pytest.mark.parametrize("pot", [cubic_potential(), SAT])
def test_orthogonality_integrals_vanish(pot):
    ring = RingSystem(n=5, mu=1.0, potential=pot)
    rng = np.random.default_rng(2)
    for _ in range(5):
        orbit = random_trig_orbit(rng, n=5, p=4)
        c1, c2 = orthogonality_check(ring, orbit)
        assert abs(c1) <= 1e-10
        assert abs(c2) <= 1e-10


def test_orthogonality_at_equilibrium():
    ring = RingSystem(n=6, mu=0.5)
    a, _ = standing_wave(ring)
    c1, c2 = orthogonality_check(ring, FourierOrbit.from_state(a, nu=1.0, p=4))
    assert abs(c1) <= 1e-14 and abs(c2) <= 1e-14


# --- closed-form Jacobian ----------------------------------------------------

def space_maps(space):
    """The maps T_l with x_l = T_l V_l: the identity on the full space,
    t_(k_l), k_l = l k mod n, on the Z~_n(k) space."""
    n, p, k = space.n, space.p, space.k
    if k is None:
        return np.broadcast_to(np.eye(2 * n), (p + 1, 2 * n, 2 * n))
    return np.array([t_k_matrix(n, (l * k - 1) % n + 1) for l in range(p + 1)])


def map_expand(maps, V):
    X = (maps @ V[:, :, None])[:, :, 0]
    coeffs = np.concatenate([X[:0:-1].conj(), X])
    coeffs[len(V) - 1] = coeffs[len(V) - 1].real
    return coeffs


def map_project(maps, F):
    """Modes l = 0..p of a (2p+1, 2n) array, mapped by T_l^*."""
    return np.einsum("lia,li->la", maps.conj(), F[len(maps) - 1:])


def column_jacobian(ring, space, z, num):
    """Reference for the packed Jacobian: one linearized_residual call per
    packed unknown on the full orbit x_l = T_l V_l, projected by T_l^* and
    packed like the residual."""
    maps = space_maps(space)
    V, nu = space.unpack(z)
    orbit = FourierOrbit(nu=nu, coeffs=map_expand(maps, V))
    cols = []
    for e in np.eye(space.dim):
        dV, dnu = space.unpack(e)
        dF = linearized_residual(ring, orbit, map_expand(maps, dV), dnu, num)
        cols.append(space.pack(map_project(maps, dF)))
    return np.column_stack(cols)


def test_closed_form_jacobian_matches_column_assembly():
    # full space (k = None) and isotropy spaces over n, p and potentials; the
    # nu column is compared too, and fixing nu only drops that column.  The
    # unfolding columns lead and the border rows are zero under them.  The
    # space residual is T_l^* of the full residual of the expanded orbit.
    # 1024 samples: for a non-polynomial h the one-oscillator transform
    # aliases differently from the projected n-oscillator one.
    rng = np.random.default_rng(11)
    pots = [cubic_potential(), SAT, CUSTOM]
    cases = [(n, k) for n in (3, 4, 5, 6, 7, 8, 24)
             for k in (None, int(rng.integers(1, n)))]
    cases += [(n, int(rng.integers(1, n))) for n in (96, 97, 1024)]
    num = 1024
    for i, (n, k) in enumerate(cases):
        p = (1, 2, 5, 8)[i % 4]
        ring = RingSystem(n=n, mu=rng.uniform(0.3, 1.2), potential=pots[i % 3])
        space = _FourierSpace(n, p, k)
        w = space.width
        V = 0.3 * (rng.normal(size=(p + 1, w)) + 1j * rng.normal(size=(p + 1, w)))
        V[0] = V[0].real + (standing_wave(ring)[0] if k is None else [np.sqrt(n), 0.0])
        z = space.pack(V, rng.uniform(0.5, 2.0))
        maps = space_maps(space)
        coeffs = map_expand(maps, V)
        assert np.abs(space.expand(V) - coeffs).max() <= 1e-12, (n, k, p)
        res = space.residual(ring, V, z[-1], num)
        ref_res = space.pack(map_project(maps, residual(ring, FourierOrbit(z[-1], coeffs),
                                                        num)))
        assert np.abs(res - ref_res).max() <= 1e-12 * (1 + np.abs(res).max()), (n, k, p)
        border = rng.normal(size=(3, space.dim))
        unfold = [space.pack(t) for t in space.tangents(V)]
        A = space.jacobian(ring, V, z[-1], num, border, unfold)
        rows = A.shape[0] - 3
        assert np.array_equal(A[rows:, 2:], border) and not A[rows:, :2].any()
        assert np.array_equal(A[:rows, :2], np.transpose(unfold))
        ref = column_jacobian(ring, space, z, num)
        J = A[:rows, 2:]
        assert np.abs(J - ref).max() <= 1e-12 * (1 + np.abs(J).max()), (n, k, p)


def dense_coupling(space):
    """The coupling matrices K_l, l = 0..p, as (p+1, w, w): the dense ring
    adjacency in the full space, the isotropy space's own otherwise."""
    if space.k is not None:
        return space.coupling
    eye = np.eye(space.width)
    return np.broadcast_to(np.roll(eye, 2, 0) + np.roll(eye, -2, 0),
                           (space.p + 1,) + eye.shape)


def mode_loop_jacobian(space, ring, V, nu, num, border, unfold):
    """Reference for _FourierSpace.jacobian: the on-site spectrum expanded to
    block-diagonal w x w matrices, and one row mode l built at a time."""
    p, w = space.p, space.width
    coupling = dense_coupling(space)
    S = np.fft.fft(_onsite_hessian(ring, space._samples(V, num)), axis=0)
    S = np.einsum("mjab,jk->mjakb", S[np.arange(-2 * p, 2 * p + 1) % num] / num,
                  np.eye(w // 2)).reshape(-1, w, w)
    ls, iJJ = np.arange(p + 1), 1j * block_symplectic(w // 2)
    rows, m = w * (2 * p + 1), len(unfold)
    A = np.zeros((rows + len(border), m + space.dim), order="F")
    A[rows:, m:] = border
    for j, t in enumerate(unfold):
        A[:rows, j] = t
    A[:rows, -1] = space.pack(-ls[:, None] * _apply_iJJ(V))
    for l in range(p + 1):
        plus, minus = S[2 * p + l - ls], S[2 * p + l + ls[1:]]
        plus[l] += coupling[l] - l * nu * iJJ
        pairs = np.stack([plus[1:] + minus, 1j * (plus[1:] - minus)], 1)
        row = np.hstack([plus[0], pairs.transpose(2, 0, 1, 3).reshape(w, -1)])
        r = w * max(2 * l - 1, 0)
        A[r:r + w, m:-1] = row.real
        if l:
            A[r + w:r + 2 * w, m:-1] = row.imag
    return A


def test_jacobian_matches_mode_loop():
    # bit for bit, full and isotropy spaces over n, p and the three potential
    # kinds, with random orbits, frequencies, border rows and unfolding
    # columns; the trivial orbit and orbits with a zero component too
    rng = np.random.default_rng(13)
    pots = [cubic_potential(), SAT, CUSTOM]
    cases = [(n, k, p) for n in (3, 4, 5, 6, 7, 8, 24, 96)
             for k in (None, int(rng.integers(1, n)))
             for p in (0, 1, 2, 8, 16, 32)
             if (2 if k else 2 * n) * (2 * p + 1) <= 1100]   # A stays below 10 MB
    assert {p for _, k, p in cases if k is None} == {0, 1, 2, 8, 16, 32}
    for i, (n, k, p) in enumerate(cases):
        ring = RingSystem(n=n, mu=rng.uniform(0.3, 1.2), potential=pots[i % 3])
        space = _FourierSpace(n, p, k)
        w = space.width
        V = 0.3 * (rng.normal(size=(p + 1, w)) + 1j * rng.normal(size=(p + 1, w)))
        if i % 5 == 0:
            V[1:] = 0.0                 # a constant orbit
        elif i % 5 == 1:
            V[:, 1::2] = 0.0            # every oscillator on its real axis
        V[0] = V[0].real + (standing_wave(ring)[0] if k is None else [np.sqrt(n), 0.0])
        nu = rng.uniform(0.5, 2.0)
        num = _default_samples(p) + int(rng.integers(2)) * 64
        border = rng.normal(size=(int(rng.integers(4)), space.dim))
        unfold = list(rng.normal(size=(int(rng.integers(3)), space.dim - 1)))
        A = space.jacobian(ring, V, nu, num, border, unfold)
        ref = mode_loop_jacobian(space, ring, V, nu, num, border, unfold)
        assert A.flags.f_contiguous and A.shape == ref.shape, (n, k, p)
        assert A.tobytes() == ref.tobytes(), (n, k, p)


def dense_residual(space, ring, V, nu, num):
    """Reference for _FourierSpace.residual: the coupling term as the
    product with the dense K_l."""
    X = space._samples(V, num)
    s = ring.mu ** 2 * (X ** 2).sum(axis=-1)
    G = (ring.omega + ring.potential.h(s) - 2.0)[..., None] * X
    onsite = np.fft.fft(G.reshape(num, -1), axis=0)[:space.p + 1] * (space.scale / num)
    ls = np.arange(space.p + 1)[:, None]
    coupled = (dense_coupling(space) @ V[:, :, None])[:, :, 0]
    return space.pack(coupled - nu * ls * _apply_iJJ(V) + onsite)


def test_full_space_residual_matches_dense_adjacency():
    """The full-space residual adds the neighbours of each site by index and
    has the bytes of the product with the dense 2n x 2n adjacency, over n, p,
    the three potential kinds, constant orbits, orbits on the real axes and
    signed zeros; one residual at n = 512, p = 4 allocates no adjacency."""
    rng = np.random.default_rng(17)
    pots = [cubic_potential(), SAT, CUSTOM]
    cases = [(n, p) for n in (3, 4, 5, 6, 7, 8, 24, 96) for p in (0, 1, 2, 5, 16)]
    for i, (n, p) in enumerate(cases):
        ring = RingSystem(n=n, mu=rng.uniform(0.3, 1.2), potential=pots[i % 3])
        space = _FourierSpace(n, p)
        V = 0.3 * (rng.normal(size=(p + 1, 2 * n)) + 1j * rng.normal(size=(p + 1, 2 * n)))
        if i % 4 == 1:
            V[1:] = 0.0
        elif i % 4 == 2:
            V[:, 1::2] = 0.0
        elif i % 4 == 3:
            V[rng.random(V.shape) < 0.5] = complex(-0.0, -0.0)
        V[0] = V[0].real + standing_wave(ring)[0]
        nu, num = rng.uniform(0.5, 2.0), _default_samples(p)
        got = space.residual(ring, V, nu, num)
        assert got.tobytes() == dense_residual(space, ring, V, nu, num).tobytes(), (n, p)
    n, p = 512, 4
    ring, space = RingSystem(n=n, mu=0.5), _FourierSpace(n, p)
    V = 0.1 * (rng.normal(size=(p + 1, 2 * n)) + 1j * rng.normal(size=(p + 1, 2 * n)))
    V[0] = V[0].real + standing_wave(ring)[0]
    tracemalloc.start()
    try:
        space.residual(ring, V, 1.0, _default_samples(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000


def site_loop_symmetry_residual(orbit, k, num_samples=256):
    """Reference for symmetry_residual: one site j + 1 = 2..n at a time."""
    coeffs = np.asarray(orbit.coeffs)
    n, p = coeffs.shape[1] // 2, (coeffs.shape[0] - 1) // 2
    zeta = 2.0 * np.pi / n
    t = 2.0 * np.pi * np.arange(num_samples) / num_samples
    ls = np.arange(-p, p + 1)
    c_modes = coeffs[:, 0::2] + 1j * coeffs[:, 1::2]
    base = np.exp(1j * np.outer(t, ls))
    pattern = norms = 0.0
    for j in range(1, n):
        shifted = (base * np.exp(1j * ls * (j * k * zeta))) @ c_modes[:, 0]
        actual = base @ c_modes[:, j]
        pattern = max(pattern, float(np.max(np.abs(actual - np.exp(1j * j * zeta) * shifted))))
        norms = max(norms, float(np.max(np.abs(np.abs(actual) - np.abs(shifted)))))
    return SymmetryResidual(pattern, norms)


def test_symmetry_residual_matches_site_loop():
    # branch orbits, where both parts are rounding noise, and random orbits
    # off the pattern, where they are O(1)
    rng = np.random.default_rng(14)
    branches = []
    for n in (*range(3, 13), 96, 1023):
        ring = RingSystem(n=n, mu=rng.uniform(0.1, 0.6))
        points = [pt for pt in enumerate_bifurcations(ring) if pt.k != n]
        bif = points[int(rng.integers(len(points)))] if points else None
        orbits_k = [(random_trig_orbit(rng, n, int(rng.integers(0, 9))),
                     int(rng.integers(1, n + 1))) for _ in range(2)]
        if bif is not None:
            branch = continue_branch(ring, bif, steps=3, ds=0.03)
            orbits_k += [(bp.orbit, bif.k) for bp in branch.points]
            branches.append((n, len(branch.points)))
        for orbit, k in orbits_k:
            got, ref = symmetry_residual(orbit, k), site_loop_symmetry_residual(orbit, k)
            for a, b in zip(got, ref):
                assert abs(a - b) <= max(1e-14, 1e-12 * b), (n, k, orbit.p, a, b)
    assert (96, 3) in branches and (1023, 3) in branches


def test_symmetry_residual_large_ring_within_budget():
    # every site in one product: 6 points at n = 4096 within 0.5 s
    ring, k = RingSystem(n=4096, mu=0.1), 2048
    branch = continue_branch(ring, branch_point(ring, k, "plus"), steps=6, ds=0.03)
    assert len(branch.points) == 6
    t0 = time.perf_counter()
    sym = [symmetry_residual(bp.orbit, k) for bp in branch.points]
    elapsed = time.perf_counter() - t0
    assert max(bp.orbit.residual_norm for bp in branch.points) <= 1e-10
    assert max(max(s) for s in sym) <= 1e-8
    assert elapsed <= 0.5, f"{elapsed:.2f} s"


def test_verify_matches_reference_paths(monkeypatch):
    # the CLI report of a seeded run is byte-identical with the mode-loop
    # Jacobian; the site-loop symmetry residual is patched into both runs,
    # since symmetry_residual may differ from it in the last digits
    rng = np.random.default_rng(15)
    argv = ["verify", "--n", "7", "--k", "2", "--branch", "minus", "--steps", "8",
            "--mu", f"{rng.uniform(0.1, 0.4):.6f}"]

    def run(fmt):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv + ["--format", fmt]) == 0
        return buf.getvalue()
    plain = run("json")
    monkeypatch.setattr(cli, "symmetry_residual", site_loop_symmetry_residual)
    outputs = [run(fmt) for fmt in ("json", "csv")]
    monkeypatch.setattr(_FourierSpace, "jacobian", mode_loop_jacobian)
    assert [run(fmt) for fmt in ("json", "csv")] == outputs
    points = [json.loads(out)["payload"]["points"] for out in (plain, outputs[0])]
    assert len(points[0]) == 8
    for got, ref in zip(*points):
        assert abs(got.pop("symmetry_residual") - ref.pop("symmetry_residual")) <= 1e-14
        assert got == ref


def test_isotropy_maps_built_once_per_space(monkeypatch):
    # expand reads the t_(k_l) of its space: p + 1 calls, not p + 1 per point
    calls = []

    def counted(n, k):
        calls.append(k)
        return t_k_matrix(n, k)
    monkeypatch.setattr(orbits, "t_k_matrix", counted)
    ring = RingSystem(n=6, mu=0.5)
    branch = continue_branch(ring, branch_point(ring, 3, "plus"), steps=6, ds=0.04)
    assert [bp.orbit.p for bp in branch.points] == [8] * 6
    assert len(calls) == 9


# --- the square Newton solve -------------------------------------------------

def lstsq_newton(ring, space, z, constraints, tol, ctol, max_iter, num, *, free_nu=True):
    """Reference for the square solve: the Newton loop it replaced, which
    solves the bordered system (two more rows than unknowns, no unfolding
    columns) by least squares."""
    cols = slice(None) if free_nu else slice(-1)
    for iteration in range(max_iter + 1):
        V, nu = space.unpack(z)
        res = space.residual(ring, V, nu, num)
        rows, values = constraints(z)
        if np.linalg.norm(res) <= tol and np.abs(values).max() <= ctol:
            return z, iteration
        A = space.jacobian(ring, V, nu, num, rows, [])[:, cols]
        z = z.copy()
        z[cols] += np.linalg.lstsq(A, -np.concatenate([res, values]), rcond=None)[0]
    raise NoConvergence(f"no convergence after {max_iter} iterations")


def unfolding_multipliers(ring, space, z, constraints, num, free_nu):
    """lambda of the square system at z by a dense solve, for unit unfolding
    columns along the nonzero group tangents, each paired with its gauge row."""
    cols = slice(None) if free_nu else slice(-1)
    V, nu = space.unpack(z)
    rows, values = constraints(z)
    tangents = [space.pack(t) for t in space.tangents(V)]
    live = [i for i, t in enumerate(tangents) if t.any()]
    keep = live + list(range(2, len(rows)))
    unfold = [tangents[i] / np.linalg.norm(tangents[i]) for i in live]
    A = space.jacobian(ring, V, nu, num, rows[keep], unfold)[:, cols]
    rhs = -np.concatenate([space.residual(ring, V, nu, num), values[keep]])
    return np.linalg.solve(A, rhs)[:len(unfold)]


def newton_cases(rng, n, iso, p, potential):
    """The borders of the Newton loop on one ring, as (name, start, constraints,
    free_nu, guard, ctol): starts built from the kernel mode of a bifurcation
    point in the Z~_n(k) space, lifted to the full space unless ``iso``."""
    ring = RingSystem(n=n, mu=rng.uniform(0.3, 1.0), potential=potential)
    points = [pt for pt in enumerate_bifurcations(ring) if pt.k != n]
    # n = 4 has no bifurcation point (alpha_k = 0), and its full space a
    # singular static mode (k = 2): there only the trivial case, in Z~_4(1)
    bif = points[int(rng.integers(len(points)))] if points else None
    k, nu0 = (bif.k, bif.nu) if bif else (1, 1.3)
    kspace = _FourierSpace(n, p, k)
    space = kspace if iso else _FourierSpace(n, p)

    def point(scale, nu):   # trivial point + scale * kernel mode, packed in space
        V = np.zeros((p + 1, 2), dtype=complex)
        V[0, 0] = np.sqrt(n)
        V[1] = scale * kernel_vector(ring, k, nu0)
        return space.pack((V if iso else kspace.expand(V)[p:]), nu)

    num, tol = _default_samples(p), _NEWTON_TOL
    fixed = lambda z: _orbit_constraints(space, z, None)
    # fixed nu, off the critical frequency, from a small kernel mode back to the trivial orbit
    cases = [("fix_nu-trivial", point(5e-3, nu0 + 0.1), fixed, False, True, tol)]
    if bif is None:
        return ring, space, num, cases if iso else []
    # newton_orbit with an amplitude border and free nu
    amplitude = lambda z: _orbit_constraints(space, z, 0.05)
    cases.append(("amplitude", point(0.05, nu0), amplitude, True, True, tol))
    z_amp, _ = _newton(ring, space, point(0.05, nu0), amplitude, tol, tol, 50, num, guard=True)
    # fixed nu, from a larger kernel mode to that branch orbit
    cases.append(("fix_nu", point(0.06, z_amp[-1]), fixed, False, True, tol))
    # the first corrector of continue_branch: gauge rows at the iterate
    ds, trivial = 0.02, point(0.0, nu0)
    tangent = point(1.0, nu0) - trivial
    tangent /= np.linalg.norm(tangent)

    def first(z):
        rows = np.vstack(space.gauge_rows(space.unpack(z)[0]) + [tangent])
        return rows, rows @ (z - trivial) - [0.0, 0.0, ds]
    cases.append(("first-corrector", trivial + ds * tangent, first, True, False, 10 * tol))
    # a later corrector: gauge rows at the previous point, secant tangent
    secant = (z_amp - trivial) / np.linalg.norm(z_amp - trivial)
    border = np.vstack(space.gauge_rows(space.unpack(z_amp)[0]) + [secant])
    later = lambda z: (border, border @ (z - z_amp) - [0.0, 0.0, ds])
    cases.append(("corrector", z_amp + ds * secant, later, True, False, 10 * tol))
    return ring, space, num, cases


def test_square_newton_matches_lstsq_loop():
    # the unfolded square system reaches the solution of the least-squares
    # loop it replaced, in the same number of iterations, with multipliers 0
    rng = np.random.default_rng(12)
    pots = [cubic_potential(), SAT, CUSTOM]
    for i, (n, iso) in enumerate((n, iso) for n in (3, 4, 5, 6, 7, 8, 24, 96)
                                 for iso in (False, True)):
        p = 1 if (n, iso) == (96, False) else (1, 2, 5, 8)[i % 4]
        ring, space, num, cases = newton_cases(rng, n, iso, p, pots[i % 3])
        for name, z0, constraints, free_nu, guard, ctol in cases:
            label = (n, iso, p, i % 3, name)
            z, iters = _newton(ring, space, z0, constraints, _NEWTON_TOL, ctol, 50, num,
                               free_nu=free_nu, guard=guard)
            ref, ref_iters = lstsq_newton(ring, space, z0, constraints, _NEWTON_TOL, ctol,
                                          50, num, free_nu=free_nu)
            assert np.abs(z - ref).max() <= 1e-12 * (1 + np.abs(ref).max()), label
            assert abs(iters - ref_iters) <= 1, label
            lam = unfolding_multipliers(ring, space, z, constraints, num, free_nu)
            assert np.abs(lam).max() <= 1e-12, label


# --- newton_orbit ------------------------------------------------------------

def test_newton_trivial_solution_immediate():
    ring = RingSystem(n=6, mu=0.5)
    a, _ = standing_wave(ring)
    sol = newton_orbit(ring, FourierOrbit.from_state(a, nu=1.0, p=6))
    assert sol.newton_iterations <= 2
    assert sol.residual_norm <= 1e-12
    assert np.abs(sol.coeffs[sol.p] - a).max() < 1e-12


def test_newton_singular_at_critical_frequency():
    ring = RingSystem(n=6, mu=0.5)
    a, _ = standing_wave(ring)
    for nu in (np.sqrt(3.0), 1.5 + np.sqrt(1.5)):
        with pytest.raises(SingularJacobian) as err:
            newton_orbit(ring, FourierOrbit.from_state(a, nu=nu, p=6))
        assert err.value.direction is not None


def test_newton_regular_just_off_critical_frequency():
    # the other side of the singularity guard: 1e-6 off the root is regular
    ring = RingSystem(n=6, mu=0.5)
    a, _ = standing_wave(ring)
    sol = newton_orbit(ring, FourierOrbit.from_state(a, nu=np.sqrt(3.0) + 1e-6, p=6))
    assert sol.residual_norm <= 1e-12
    with pytest.raises(SingularJacobian, match="rcond"):
        newton_orbit(ring, FourierOrbit.from_state(a, nu=np.sqrt(3.0), p=6))


def test_newton_fixed_nu_returns_to_trivial_orbit():
    # near the trivial orbit the time-shift tangent is small but not zero;
    # its unfolding column and gauge row must not make the system singular
    rng = np.random.default_rng(6)
    for n, nu, p in [(6, 1.0, 4), (5, 0.7, 3), (8, 1.3, 6), (3, 2.2, 2)]:
        ring = RingSystem(n=n, mu=0.5)
        a, _ = standing_wave(ring)
        noise = 1e-3 * (rng.normal(size=(2 * p + 1, 2 * n))
                        + 1j * rng.normal(size=(2 * p + 1, 2 * n)))
        coeffs = FourierOrbit.from_state(a, nu=nu, p=p).coeffs + noise + noise[::-1].conj()
        sol = newton_orbit(ring, FourierOrbit(nu=nu, coeffs=coeffs), adapt_p=False)
        assert sol.nu == nu and sol.residual_norm <= 1e-10
        assert sol.amplitude <= 1e-10


def test_newton_non_finite_stops_with_no_convergence():
    # residual: h = sqrt(1 - s) is nan beyond s = 1
    root = custom_potential(lambda s: np.sqrt(1.0 - s), lambda s: -0.5 / np.sqrt(1.0 - s))
    ring = RingSystem(n=6, mu=0.95, potential=root)
    big = mode_perturbed_orbit(ring, 3, 1.0, 1.0, w=np.array([1.0, 0.0]), p=2)
    with pytest.warns(RuntimeWarning), pytest.raises(NoConvergence, match="non-finite residual"):
        newton_orbit(ring, big)
    # Jacobian: h is finite everywhere, h' only below s = 1.1
    kink = custom_potential(lambda s: s, lambda s: np.where(s < 1.1, 1.0, np.nan))
    ring = RingSystem(n=6, mu=1.0, potential=kink)
    big = mode_perturbed_orbit(ring, 3, 1.0, 1.0, w=np.array([1.0, 0.0]), p=2)
    with pytest.raises(NoConvergence, match="non-finite Jacobian"):
        newton_orbit(ring, big)
    # constraint value
    ring = RingSystem(n=6, mu=0.5)
    small = mode_perturbed_orbit(ring, 3, 0.01, np.sqrt(3.0))
    with pytest.raises(NoConvergence, match="non-finite residual"):
        newton_orbit(ring, small, fix_nu=False, amplitude=float("nan"))


def test_newton_gauge_config_validation():
    ring = RingSystem(n=6, mu=0.5)
    a, _ = standing_wave(ring)
    orbit = FourierOrbit.from_state(a, nu=1.0, p=4)
    with pytest.raises(ValueError):
        newton_orbit(ring, orbit, fix_nu=True, amplitude=0.1)
    with pytest.raises(ValueError):
        newton_orbit(ring, orbit, fix_nu=False)


def test_newton_amplitude_pinned_lyapunov_scaling():
    # frequency shift along the family is quadratic in the amplitude
    ring = RingSystem(n=6, mu=0.5)
    nu0 = np.sqrt(3.0)
    shifts = []
    for eps in (2e-2, 1e-2):
        initial = mode_perturbed_orbit(ring, 3, eps, nu0)
        sol = newton_orbit(ring, initial, fix_nu=False, amplitude=initial.amplitude)
        assert sol.residual_norm <= 1e-10
        assert sol.amplitude > 1e-3   # nontrivial orbit
        shifts.append(abs(sol.nu - nu0))
    ratio = shifts[0] / shifts[1]
    assert 2.5 < ratio < 6.0


def test_newton_tail_adaptation():
    # a large-amplitude start at p = 2 forces mode growth
    ring = RingSystem(n=6, mu=0.5)
    initial = mode_perturbed_orbit(ring, 3, 0.5, np.sqrt(3.0), p=2)
    sol = newton_orbit(ring, initial, fix_nu=False, amplitude=initial.amplitude)
    assert sol.p > 2
    assert np.abs(sol.coeffs[[0, -1]]).max() <= 1e-12
    assert sol.residual_norm <= 1e-10


def test_gauge_invariance_of_residual():
    ring = RingSystem(n=6, mu=0.5)
    initial = mode_perturbed_orbit(ring, 3, 0.05, np.sqrt(3.0))
    sol = newton_orbit(ring, initial, fix_nu=False, amplitude=initial.amplitude)
    moved = sol.transformed(shift=2, theta=0.7, phi=1.1)
    F0 = residual(ring, sol)
    F1 = residual(ring, moved)
    assert abs(orbit_residual_norm(F0) - orbit_residual_norm(F1)) <= 1e-12


# --- continuation ------------------------------------------------------------

def branch_point(ring, k, root):
    pts = enumerate_bifurcations(ring)
    return next(p for p in pts if p.k == k and p.root == root)


@pytest.mark.parametrize("n, mu, steps, ds", [(6, 0.5, 12, 0.04), (1024, 0.1, 6, 0.03)],
                         ids=["n6", "n1024"])
def test_continue_branch_n6_k3(n, mu, steps, ds):
    # k = n/2: gamma_k = 0, so the plus root is sqrt(alpha (alpha - 2 mu^2)),
    # alpha = 4 cos(zeta); sqrt(3) at n = 6, mu = 0.5
    ring, k = RingSystem(n=n, mu=mu), n // 2
    alpha = 4.0 * np.cos(2.0 * np.pi / n)
    bif = branch_point(ring, k, "plus")
    branch = continue_branch(ring, bif, steps=steps, ds=ds)
    assert branch.termination == "steps"
    assert len(branch.points) == steps
    for bp in branch.points:
        assert bp.orbit.residual_norm <= 1e-10
        sym = symmetry_residual(bp.orbit, k)
        assert max(sym) <= 1e-8
    amps = [bp.amplitude for bp in branch.points]
    assert all(a2 > a1 for a1, a2 in zip(amps, amps[1:]))
    expected = np.sqrt(alpha * (alpha - 2.0 * mu ** 2))
    assert abs(extrapolate_nu_to_zero(branch) - expected) <= 1e-4


def test_continue_branch_traveling_wave_pattern():
    # k = 3 divides n = 6: three equal traveling waves of two oscillators
    ring = RingSystem(n=6, mu=0.5)
    bif = branch_point(ring, 3, "plus")
    branch = continue_branch(ring, bif, steps=6, ds=0.05)
    for bp in branch.points:
        assert traveling_wave_residual(bp.orbit, 3) <= 1e-8


def test_continue_branch_amplitude_bound(monkeypatch):
    ring = RingSystem(n=6, mu=0.5)
    bif = branch_point(ring, 3, "plus")
    monkeypatch.setattr(orbits, "_AMPLITUDE_MAX", 0.3)
    branch = continue_branch(ring, bif, steps=40, ds=0.05)
    assert branch.termination == "amplitude-bound"
    assert branch.points[-1].amplitude > 0.3
    # a branch that cannot leave the trivial orbit is an input error
    for steps, ds in ((0, 0.05), (4, 0.0), (4, -0.03)):
        with pytest.raises(ValueError, match="ds > 0"):
            continue_branch(ring, bif, steps=steps, ds=ds)
    for p_max in (-5, 0, 7):
        with pytest.raises(ValueError, match="p_max must be >="):
            continue_branch(ring, bif, steps=4, ds=0.05, p_max=p_max)


def test_continue_branch_builds_border_once_per_step(monkeypatch):
    # after the first point the border (gauge rows at the previous point and
    # the tangent) is one array for every Newton iteration of a step; the
    # first corrector takes its gauge rows at the iterate
    borders = []
    newton = orbits._newton

    def spy(ring, space, z, constraints, *args, **kwargs):
        borders.append(constraints(z)[0] is constraints(z + 1e-3)[0])
        return newton(ring, space, z, constraints, *args, **kwargs)
    monkeypatch.setattr(orbits, "_newton", spy)
    ring = RingSystem(n=6, mu=0.5)
    continue_branch(ring, branch_point(ring, 3, "plus"), steps=4, ds=0.04)
    assert borders == [False, True, True, True]


def test_continue_branch_rejects_nan_certificate(monkeypatch):
    """A full-space residual that is nan fails the certificate of a point as
    one above the bound does: NoConvergence, not a branch of nan residuals."""
    ring = RingSystem(n=6, mu=0.5)
    bif = branch_point(ring, 3, "plus")
    monkeypatch.setattr(orbits, "residual",
                        lambda ring, orbit, num_samples=None: np.full(orbit.coeffs.shape, np.nan))
    with pytest.raises(NoConvergence, match="full-space residual nan"):
        continue_branch(ring, bif, steps=2, ds=0.05)


def test_extrapolate_empty_branch_raises():
    with pytest.raises(ValueError):
        extrapolate_nu_to_zero(ContinuationBranch(origin=None, points=[]))


# --- integration -------------------------------------------------------------

def test_integrate_equilibrium_constant():
    ring = RingSystem(n=6, mu=0.5)
    a, _ = standing_wave(ring)
    _, X = integrate(ring, a, T=10.0, dt=0.05)
    assert np.abs(X - a).max() <= 1e-10


def test_integrate_validates_arguments():
    ring = RingSystem(n=4, mu=1.0)
    a, _ = standing_wave(ring)
    with pytest.raises(ValueError):
        integrate(ring, a, T=1.0, dt=0.0)
    with pytest.raises(ValueError):
        integrate(ring, a, T=-1.0, dt=0.1)
    with pytest.raises(ValueError, match="shape"):
        integrate(ring, a[:-2], T=1.0, dt=0.1)
    with pytest.raises(ValueError, match="shape"):
        integrate(ring, np.stack([a, a]), T=1.0, dt=0.1)
    for bad in (np.nan, np.inf):
        x0 = a.copy()
        x0[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            integrate(ring, x0, T=1.0, dt=0.1)


def reference_integrate(ring, x0, T, dt):
    """The implicit midpoint loop on the public kernels: per step
    vector_field for the predictor, then per Newton iteration vector_field
    and the dense hessian_V at the midpoint and np.linalg.solve."""
    x0 = np.asarray(x0, dtype=float)
    steps = int(round(T / dt))
    JJ = block_symplectic(ring.n)
    eye = np.eye(2 * ring.n)
    out = np.empty((steps + 1, x0.size))
    out[0] = x0
    u = x0.copy()
    for step in range(steps):
        unew = u + dt * vector_field(ring, u)
        for _ in range(_MIDPOINT_ITER):
            mid = 0.5 * (u + unew)
            G = unew - u - dt * vector_field(ring, mid)
            Df = -JJ @ hessian_V(ring, mid)
            unew = unew - np.linalg.solve(eye - 0.5 * dt * Df, G)
            if np.linalg.norm(G) <= _MIDPOINT_TOL:
                break
        else:
            raise NoConvergence(f"step {step}")
        u = unew
        out[step + 1] = u
    return dt * np.arange(steps + 1), out


def test_integrate_matches_reference_loop():
    """The hoisted kernel gives the reference loop's trajectory bit for bit."""
    expr = custom_potential(_expr_fn("s / (1 + s**2)"), _expr_fn("(1 - s**2) / (1 + s**2)**2"))
    rng = np.random.default_rng(10)
    for n in (3, 4, 5, 6, 9):
        for pot in (cubic_potential(), SAT, expr):
            for dt in (0.01, 0.05):
                ring = RingSystem(n=n, mu=float(rng.uniform(0.2, 1.2)), potential=pot)
                a, _ = standing_wave(ring)
                x0 = a + 0.05 * rng.normal(size=2 * n)
                times, X = integrate(ring, x0, T=0.5, dt=dt)
                ref_times, ref_X = reference_integrate(ring, x0, T=0.5, dt=dt)
                assert np.array_equal(times, ref_times)
                assert np.array_equal(X, ref_X), (n, pot.kind, dt)


def test_integrate_non_finite_residual_no_convergence():
    """h = inf beyond s = 4 puts inf into the first midpoint residual: the
    run ends there with NoConvergence naming step and t, and no warning."""
    pot = custom_potential(lambda s: np.where(s < 4, s, np.inf), lambda s: np.ones_like(s))
    ring = RingSystem(n=6, mu=0.5, potential=pot)
    x0, _ = standing_wave(ring)
    x0[0] = 7.8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence, match=r"residual is not finite at step 0 \(t = 0.000\)"):
            integrate(ring, x0, T=1.0, dt=0.01)


def test_integrate_non_finite_update_no_convergence():
    """At the zero state the residual is 0, but h' is nan there, so the one
    (polishing) update is not finite."""
    pot = custom_potential(lambda s: s, lambda s: np.where(s > 0, 1.0, np.nan))
    ring = RingSystem(n=5, mu=0.5, potential=pot)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence, match=r"update is not finite at step 0 \(t = 0.000\)"):
            integrate(ring, np.zeros(10), T=1.0, dt=0.01)


def test_integrate_singular_matrix_no_convergence(monkeypatch):
    """dgesv reporting an exactly singular midpoint matrix (info > 0) ends
    the run at once."""
    ring = RingSystem(n=6, mu=0.5)
    a, _ = standing_wave(ring)
    calls = []

    def dgesv(A, b):
        calls.append(1)
        return A, None, b, 3 if len(calls) > 4 else 0

    monkeypatch.setattr(orbits, "lapack", SimpleNamespace(dgesv=dgesv))
    with pytest.raises(NoConvergence, match=r"matrix is singular at step \d+ \(t = "):
        integrate(ring, a + 0.01, T=1.0, dt=0.01)
    assert len(calls) == 5


@pytest.mark.parametrize("pot", [cubic_potential(), SAT])
def test_integrate_conserves_power_and_energy(pot):
    ring = RingSystem(n=6, mu=0.5, potential=pot)
    a, _ = standing_wave(ring)
    rng = np.random.default_rng(3)
    x0 = a + 0.05 * rng.normal(size=12)
    _, X = integrate(ring, x0, T=20.0, dt=0.01)
    power = (X ** 2).sum(axis=1)
    assert np.abs(power - power[0]).max() <= 1e-10
    V = np.array([potential_V(ring, x) for x in X[::50]])
    assert np.abs(V - V[0]).max() <= 1e-6


def test_integrate_stable_orbit_stays_close():
    ring = RingSystem(n=6, mu=0.3)   # stable: mu < 0.5
    a, _ = standing_wave(ring)
    rng = np.random.default_rng(4)
    x0 = a + 1e-4 * rng.normal(size=12)
    _, X = integrate(ring, x0, T=200.0, dt=0.05)
    assert np.abs(X - a).max() <= 1e-2


def test_integrate_unstable_orbit_departs():
    ring = RingSystem(n=6, mu=0.8)   # unstable block range
    assert np.abs(full_spectrum_oracle(ring).real).max() > 0.1
    a, _ = standing_wave(ring)
    rng = np.random.default_rng(5)
    x0 = a + 1e-4 * rng.normal(size=12)
    _, X = integrate(ring, x0, T=200.0, dt=0.05)
    assert np.abs(X - a).max() > 1e-2
