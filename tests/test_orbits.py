import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg.lapack

from dnlsring import cli, orbits
from dnlsring.blocks import block_m, full_spectrum_oracle, kernel_vector
from dnlsring.classify import enumerate_bifurcations, saturable_regimes, schrodinger_regimes
from dnlsring.cli import _expr_fn
from dnlsring.model import (RingSystem, _hessian_apply_sites, _onsite_hessian, cubic_potential,
                            custom_potential, hessian_V, saturable_potential, standing_wave,
                            vector_field)
from dnlsring.orbits import (_MIDPOINT_ITER, _MIDPOINT_TOL, _NEWTON_TOL, _PREDICTOR_ORDER,
                             _PREDICTOR_WEIGHTS, ContinuationBranch,
                             FourierOrbit, NoConvergence, SingularJacobian, _apply_iJJ,
                             _default_samples, _FourierSpace, _newton,
                             _orbit_constraints, _to_modes, _to_samples, continue_branch,
                             extrapolate_nu_to_zero,
                             integrate, linearized_residual, newton_orbit,
                             orbit_residual_norm, residual)
from dnlsring.symmetry import (SymmetryResidual, symmetry_residual, t_k_matrix,
                               traveling_wave_residual)
from references import (block_symplectic, bordered_jacobian, constant_orbit, dense_jacobian,
                        dense_newton, dense_rcond, gauged_continue_branch, group_action,
                        mode_major, modes_to_samples, orthogonality_check, potential_V,
                        sampled_residual, samples_to_modes)

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

@pytest.mark.parametrize("shape, bad, message", [
    ((4, 6), None, r"shape \(2p\+1, 2n\)"),
    ((6,), None, r"shape \(2p\+1, 2n\)"),
    ((5, 7), None, "even number of columns"),
    ((5, 6), np.nan, "non-finite"),
    ((5, 6), np.inf, "non-finite"),
    ((5, 6), complex(0.0, np.inf), "non-finite"),
], ids=["even-rows", "one-dim", "odd-columns", "nan", "inf", "imag-inf"])
def test_orbit_shape_and_finite_validation(shape, bad, message):
    coeffs = np.zeros(shape, dtype=complex)
    if bad is not None:
        coeffs[2, 0] = bad   # the middle row, mode l = 0
    with pytest.raises(ValueError, match=message):
        FourierOrbit(nu=1.0, coeffs=coeffs)


def test_orbit_reality_validation():
    bad = np.zeros((5, 6), dtype=complex)
    bad[3, 0] = 1.0   # no conjugate partner
    with pytest.raises(ValueError):
        FourierOrbit(nu=1.0, coeffs=bad)


def test_orbit_sample_roundtrip():
    rng = np.random.default_rng(0)
    orbit = random_trig_orbit(rng, n=4, p=5)
    samples = _to_samples(orbit.coeffs[5:], _default_samples(5))
    assert np.abs(_to_modes(samples, 5) - orbit.coeffs[5:]).max() < 1e-12


def test_real_transform_pair_matches_complex_pair():
    # modes 0..p through irfft/rfft against modes -p..p through the complex
    # pair with its mod-num gathers, down to num = 2p + 1 samples
    rng = np.random.default_rng(23)
    for n in (1, 3, 8):
        for p in (0, 1, 2, 5, 16):
            coeffs = random_trig_orbit(rng, n, p, scale=rng.uniform(0.1, 10.0)).coeffs
            for num in (2 * p + 1, 2 * p + 2, _default_samples(p), 4 * p + 7):
                X = _to_samples(coeffs[p:], num)
                ref = modes_to_samples(coeffs, num)
                assert np.abs(X - ref).max() <= 1e-13 * (1 + np.abs(ref).max()), (n, p, num)
                samples = rng.normal(size=(num, 2 * n))
                F, ref = _to_modes(samples, p), samples_to_modes(samples, p)[p:]
                assert np.abs(F - ref).max() <= 1e-13 * (1 + np.abs(ref).max()), (n, p, num)


@pytest.mark.parametrize("call", [
    lambda: _to_samples(np.ones((4, 2), dtype=complex), 6),
    lambda: _to_modes(np.ones((6, 2)), 3),
], ids=["to_samples", "to_modes"])
def test_real_transform_pair_needs_2p_plus_1_samples(call):
    with pytest.raises(ValueError, match="need at least 7 samples, got 6"):
        call()


def test_orbit_amplitude_excludes_mean():
    a, _ = standing_wave(RingSystem(n=5, mu=1.0))
    orbit = constant_orbit(a, nu=1.0, p=3)
    assert orbit.amplitude == 0.0


# --- residual ----------------------------------------------------------------

def test_residual_matches_sampled_reference():
    # the half-spectrum residual of the Newton solver, shown over -p..p,
    # against the whole-spectrum transform of the np.roll gradient
    rng = np.random.default_rng(19)
    pots = [cubic_potential(), SAT, CUSTOM]
    for i, (n, p) in enumerate([(n, p) for n in (3, 4, 5, 6, 7, 24, 129)
                                for p in (0, 1, 2, 5, 16)]):
        ring = RingSystem(n=n, mu=rng.uniform(0.3, 1.2), potential=pots[i % 3])
        orbit = random_trig_orbit(rng, n, p, nu=rng.uniform(0.5, 2.0))
        F = residual(ring, orbit)
        assert F.shape == (2 * p + 1, 2 * n)
        ref = sampled_residual(ring, orbit)
        assert np.abs(F - ref).max() <= 1e-12 * (1 + np.abs(ref).max()), (n, p)


@pytest.mark.parametrize("call", [
    lambda ring, orbit: residual(ring, orbit),
    lambda ring, orbit: linearized_residual(ring, orbit, orbit.coeffs),
    lambda ring, orbit: newton_orbit(ring, orbit),
], ids=["residual", "linearized_residual", "newton_orbit"])
def test_ring_and_orbit_sizes_must_agree(call):
    orbit = constant_orbit(standing_wave(RingSystem(n=5, mu=0.5))[0], nu=1.0, p=2)
    with pytest.raises(ValueError, match="the orbit has n = 5 oscillators, the ring n = 6"):
        call(RingSystem(n=6, mu=0.5), orbit)


@pytest.mark.parametrize("shape", [(1, 8), (9, 8), (5, 6)])
def test_linearized_residual_rejects_other_perturbation_shape(shape):
    # a (1, 8) perturbation was broadcast against the (5, 8) orbit
    ring = RingSystem(n=4, mu=0.5)
    orbit = constant_orbit(standing_wave(ring)[0], nu=1.0, p=2)
    dcoeffs = np.zeros(shape, dtype=complex)
    dcoeffs[shape[0] // 2] = 0.1
    message = f"dcoeffs has shape {shape}, the orbit (5, 8)"
    with pytest.raises(ValueError, match=re.escape(message)):
        linearized_residual(ring, orbit, dcoeffs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_linearized_residual_rejects_non_finite_perturbation(bad):
    # a nan entry passed the reality check, whose comparisons with nan are
    # false, and came back as a nan residual
    ring = RingSystem(n=4, mu=0.5)
    orbit = constant_orbit(standing_wave(ring)[0], nu=1.0, p=2)
    dcoeffs = np.zeros((5, 8), dtype=complex)
    dcoeffs[2, 3] = bad
    with pytest.raises(ValueError, match="dcoeffs contain non-finite entries"):
        linearized_residual(ring, orbit, dcoeffs)


def test_linearized_residual_rejects_non_real_perturbation():
    # mode 1 without its conjugate partner at mode -1 is not a real signal
    ring = RingSystem(n=4, mu=0.5)
    orbit = constant_orbit(standing_wave(ring)[0], nu=1.0, p=2)
    dcoeffs = np.zeros((5, 8), dtype=complex)
    dcoeffs[3, 0] = 0.1
    with pytest.raises(ValueError, match="dcoeffs must satisfy the reality condition"):
        linearized_residual(ring, orbit, dcoeffs)


def test_residual_zero_at_equilibrium():
    ring = RingSystem(n=6, mu=0.5)
    a, _ = standing_wave(ring)
    orbit = constant_orbit(a, nu=1.3, p=6)
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
    base = constant_orbit(a, nu=nu, p=p)

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
    c1, c2 = orthogonality_check(ring, constant_orbit(a, nu=1.0, p=4))
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


def stacked_linearized_residual(ring, orbit, dcoeffs, dnus, num, block=16):
    """Modes l = 0..p of :func:`linearized_residual` for a stack of
    directions dcoeffs (m, 2p+1, 2n) and dnus (m,), as (p+1, m, 2n).  The
    samples and their modes come from explicit real DFT matrices, ``block``
    samples at a time: every direction shares one product per block, and the
    samples of the whole stack never exist at once."""
    p, n = orbit.p, orbit.n
    lt = np.outer(np.arange(num), np.arange(p + 1)) * (2.0 * np.pi / num)
    cos, sin = np.cos(lt), np.sin(lt)
    # the real signal with modes c_l, l = -p..p, is c_0 + 2 Re sum_(l>0) c_l e^(ilt)
    w = np.r_[1.0, np.full(p, 2.0)][:, None]
    half = w * orbit.coeffs[p:]
    X = (cos @ half.real - sin @ half.imag).reshape(num, 1, n, 2)
    D = (w[:, None] * dcoeffs[:, p:].transpose(1, 0, 2)).reshape(p + 1, -1)
    dg = np.zeros(D.shape, dtype=complex)
    for start in range(0, num, block):
        c, s = cos[start:start + block], sin[start:start + block]
        dX = (c @ D.real - s @ D.imag).reshape(len(c), -1, n, 2)
        H = _hessian_apply_sites(ring, X[start:start + block], dX).reshape(len(c), -1)
        dg += c.T @ H - 1j * (s.T @ H)
    ls = np.arange(p + 1)[:, None, None]
    return (-orbit.nu * ls * _apply_iJJ(dcoeffs[:, p:].transpose(1, 0, 2))
            - dnus[:, None] * ls * _apply_iJJ(orbit.coeffs[p:])[:, None]
            + (dg / num).reshape(p + 1, -1, 2 * n))


def column_jacobian(space, z):
    """Reference for the packed Jacobian: the linearized residual of every
    packed unit direction on the full orbit x_l = T_l V_l, as one stack at
    the space's samples, projected by T_l^* and packed like the residual."""
    maps = space_maps(space)
    V, nu = space.unpack(z)
    orbit = FourierOrbit(nu=nu, coeffs=map_expand(maps, V))
    dVs, dnus = zip(*map(space.unpack, np.eye(space.dim)))
    dF = stacked_linearized_residual(
        space.ring, orbit, np.array([map_expand(maps, dV) for dV in dVs]), np.array(dnus),
        space.num)
    return np.column_stack([space.pack(F) for F in
                            np.einsum("lia,lmi->mla", maps.conj(), dF)])


def test_closed_form_jacobian_matches_column_assembly():
    # full space (k = None) and isotropy spaces over n, p and potentials; the
    # nu column is compared too, and fixing nu only drops that column.  The
    # unfolding columns lead and the border rows are zero under them.  The
    # space residual is T_l^* of the full residual of the expanded orbit; in
    # the isotropy space the orbit is in Fix(K), where that residual is too,
    # and both group tangents pack to zero.  The full space's Jacobian is its
    # band, expanded to the packed order.
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
        space = _FourierSpace(ring, p, k)
        space.num = num
        w = space.width
        V = 0.3 * (rng.normal(size=(p + 1, w)) + 1j * rng.normal(size=(p + 1, w)))
        V[0] = V[0].real + (standing_wave(ring)[0] if k is None else [np.sqrt(n), 0.0])
        z = space.pack(V, rng.uniform(0.5, 2.0))
        V = space.unpack(z)[0]
        maps = space_maps(space)
        coeffs = map_expand(maps, V)
        assert np.abs(space.expand(V) - coeffs).max() <= 1e-12, (n, k, p)
        res = space.residual(space.evaluate(V, z[-1]))
        modes = map_project(maps, sampled_residual(ring, FourierOrbit(z[-1], coeffs), num))
        ref_res = space.pack(modes)
        assert np.abs(res - ref_res).max() <= 1e-12 * (1 + np.abs(res).max()), (n, k, p)
        if k is not None:   # the parts that Fix(K) drops: Im x_l and Re y_l
            off = np.abs(np.r_[modes[:, 0].imag, modes[:, 1].real]).max()
            assert off <= 1e-12 * (1 + np.abs(modes).max()), (n, k, p)
        border = rng.normal(size=(3, space.dim))
        unfold = [space.pack(t) for t in space.tangents(V)]
        assert k is None or not np.any(unfold), (n, k, p)
        A = bordered_jacobian(space, V, z[-1], border, unfold)
        rows = A.shape[0] - 3
        assert np.array_equal(A[rows:, 2:], border) and not A[rows:, :2].any()
        assert np.array_equal(A[:rows, :2], np.transpose(unfold))
        ref = column_jacobian(space, z)
        J = A[:rows, 2:]
        assert np.abs(J - ref).max() <= 1e-12 * (1 + np.abs(J).max()), (n, k, p)
        # the stacked reference is linearized_residual, at the library's
        # samples: one column a case, the first, a middle one or the nu
        # column in turn
        j = (0, space.dim // 2, space.dim - 1)[i % 3]
        dV, dnu = space.unpack(np.eye(space.dim)[j])
        orbit, dcoeffs = FourierOrbit(z[-1], coeffs), map_expand(maps, dV)
        dF = linearized_residual(ring, orbit, dcoeffs, dnu)
        col = space.pack(map_project(maps, dF))
        ref_col = space.pack(np.einsum("lia,li->la", maps.conj(), stacked_linearized_residual(
            ring, orbit, dcoeffs[None], np.array([dnu]), _default_samples(p))[:, 0]))
        assert np.abs(ref_col - col).max() <= 1e-13 * (1 + np.abs(col).max()), (n, k, j)


def dense_coupling(space):
    """The coupling matrices K_l, l = 0..p, as (p+1, w, w): the dense ring
    adjacency in the full space, the isotropy space's own otherwise."""
    if space.k is not None:
        return space.coupling
    eye = np.eye(space.width)
    return np.broadcast_to(np.roll(eye, 2, 0) + np.roll(eye, -2, 0),
                           (space.p + 1,) + eye.shape)


def mode_loop_jacobian(space, at, border, unfold):
    """Reference for _FourierSpace.jacobian at the evaluated point ``at``:
    the orbit sampled again, the on-site spectrum expanded to block-diagonal
    w x w matrices, and one row mode l built at a time over every real part,
    mode-major, of which ``mode_major`` takes the packed rows and columns."""
    p, w, V, nu = space.p, space.width, at.V, at.nu
    coupling = dense_coupling(space)
    S = _to_modes(_onsite_hessian(space.ring, space._samples(V)), 2 * p)
    S = np.einsum("mjab,jk->mjakb", np.concatenate([S[:0:-1].conj(), S]),
                  np.eye(w // 2)).reshape(-1, w, w)
    ls, iJJ = np.arange(p + 1), 1j * block_symplectic(w // 2)
    J = np.zeros((w * (2 * p + 1), w * (2 * p + 1)))
    for l in range(p + 1):
        plus, minus = S[2 * p + l - ls], S[2 * p + l + ls[1:]]
        plus[l] += coupling[l] - l * nu * iJJ
        pairs = np.stack([plus[1:] + minus, 1j * (plus[1:] - minus)], 1)
        row = np.hstack([plus[0], pairs.transpose(2, 0, 1, 3).reshape(w, -1)])
        r = w * max(2 * l - 1, 0)
        J[r:r + w] = row.real
        if l:
            J[r + w:r + 2 * w] = row.imag
    rows, m = space.dim - 1, len(unfold)
    A = np.zeros((rows + len(border), m + space.dim), order="F")
    A[rows:, m:] = border
    for j, t in enumerate(unfold):
        A[:rows, j] = t
    A[:rows, -1] = space.pack(-ls[:, None] * _apply_iJJ(V))
    at = mode_major(space)
    A[:rows, m:-1] = J[np.ix_(at, at)]
    return A


def test_jacobian_matches_mode_loop():
    # bit for bit, full and isotropy spaces over n, p and the three potential
    # kinds, with random orbits, frequencies and border rows, and unfolding
    # columns in the full space (Fix(K) has none); the trivial orbit and
    # orbits with a zero component too.  The full space's band, expanded to
    # the packed order, and the dense assembly that the band replaced, are
    # both compared
    rng = np.random.default_rng(13)
    pots = [cubic_potential(), SAT, CUSTOM]
    cases = [(n, k, p) for n in (3, 4, 5, 6, 7, 8, 24, 96)
             for k in (None, int(rng.integers(1, n)))
             for p in (0, 1, 2, 8, 16, 32)
             if (2 if k else 2 * n) * (2 * p + 1) <= 1100]   # A stays below 10 MB
    assert {p for _, k, p in cases if k is None} == {0, 1, 2, 8, 16, 32}
    for i, (n, k, p) in enumerate(cases):
        ring = RingSystem(n=n, mu=rng.uniform(0.3, 1.2), potential=pots[i % 3])
        space = _FourierSpace(ring, p, k)
        w = space.width
        V = 0.3 * (rng.normal(size=(p + 1, w)) + 1j * rng.normal(size=(p + 1, w)))
        if i % 5 == 0:
            V[1:] = 0.0                 # a constant orbit
        elif i % 5 == 1:
            V[:, 1::2] = 0.0            # every oscillator on its real axis
        V[0] = V[0].real + (standing_wave(ring)[0] if k is None else [np.sqrt(n), 0.0])
        nu = rng.uniform(0.5, 2.0)
        space.num += int(rng.integers(2)) * 64
        border = rng.normal(size=(int(rng.integers(4)), space.dim))
        unfold = list(rng.normal(size=(int(rng.integers(3)), space.dim - 1))) if k is None else []
        A = bordered_jacobian(space, V, nu, border, unfold)
        ref = mode_loop_jacobian(space, space.evaluate(V, nu), border, unfold)
        assert A.flags.f_contiguous and A.shape == ref.shape, (n, k, p)
        assert A.tobytes() == ref.tobytes(), (n, k, p)
        if k is None:
            assert dense_jacobian(space, V, nu, border, unfold).tobytes() == ref.tobytes()
        else:
            assert space.jacobian(space.evaluate(V, nu), border).flags.f_contiguous, (n, k, p)


def test_full_space_packs_in_band_order():
    # part q (V_0, Re V_1, Im V_1, ...), component a of site s is packed at
    # 2(2p+1) position[s] + 2q + a, the sites at positions 0, 1, 2, ...
    # being 0, n-1, 1, n-2, ...: the order of the band, so the band LU
    # permutes nothing.  Fix(K) has one site and keeps its order
    # [Re x_0, Re x_1, Im y_1, ..., Re x_p, Im y_p, nu]
    rng = np.random.default_rng(37)
    for n, p in ((3, 0), (3, 2), (4, 1), (7, 3), (8, 2)):
        ring = RingSystem(n=n, mu=0.5)
        space, parts = _FourierSpace(ring, p), 2 * p + 1
        sites = [s for pair in zip(range(n), range(n - 1, -1, -1)) for s in pair][:n]
        position = np.argsort(sites)
        s, q, a = np.indices((n, parts, 2))
        value = 1.0 + a + 2 * q + 2 * parts * s   # distinct, labelled by site
        V = np.zeros((p + 1, 2 * n), dtype=complex)
        V.real[0] = value[:, 0].ravel()
        V.real[1:] = value[:, 1::2].transpose(1, 0, 2).reshape(p, 2 * n)
        V.imag[1:] = value[:, 2::2].transpose(1, 0, 2).reshape(p, 2 * n)
        z = space.pack(V, 0.7)
        assert len(z) == space.dim and z[-1] == 0.7, (n, p)
        assert np.array_equal(z[2 * parts * position[s] + 2 * q + a], value), (n, p)
        assert np.array_equal(space.unpack(z)[0], V), (n, p)
        iso = _FourierSpace(ring, p, 1)
        V = rng.normal(size=(p + 1, 2)) + 1j * rng.normal(size=(p + 1, 2))
        want = np.r_[V[0, 0].real, np.column_stack([V[1:, 0].real, V[1:, 1].imag]).ravel(), 0.7]
        assert np.array_equal(iso.pack(V, 0.7), want), (n, p)


def test_grown_pads_with_zero_modes_and_carries_nu():
    # both spaces: the grown space has order 2p, and each packed vector,
    # a point or a tangent, keeps its modes 0..p and its last entry (nu or
    # its nu part), with zero modes p+1..2p, so its orbit is the old one
    rng = np.random.default_rng(41)
    ring = RingSystem(n=5, mu=0.6)
    for k, p in ((None, 1), (None, 3), (2, 2), (3, 4)):
        space = _FourierSpace(ring, p, k)
        zs = [rng.normal(size=space.dim) for _ in range(2)]
        grown, padded = space.grown(*zs)
        assert (grown.p, grown.k, len(padded)) == (2 * p, k, 2), (k, p)
        for z, g in zip(zs, padded):
            V, nu = space.unpack(z)
            W, grown_nu = grown.unpack(g)
            assert len(g) == grown.dim and grown_nu == nu, (k, p)
            assert np.array_equal(W[:p + 1], V) and not W[p + 1:].any(), (k, p)
            want = np.zeros((4 * p + 1, 2 * ring.n), dtype=complex)
            want[p:3 * p + 1] = space.expand(V)
            assert np.array_equal(grown.expand(W), want), (k, p)


def dense_residual(space, V, nu):
    """Reference for _FourierSpace.residual: the coupling term as the
    product with the dense K_l."""
    ring, X = space.ring, space._samples(V)
    s = ring.mu ** 2 * (X ** 2).sum(axis=-1)
    G = (ring.omega + ring.potential.h(s) - 2.0)[..., None] * X
    onsite = _to_modes(G.reshape(space.num, -1), space.p) * space.scale
    ls = np.arange(space.p + 1)[:, None]
    coupled = (dense_coupling(space) @ V[:, :, None])[:, :, 0]
    return space.pack(coupled - nu * ls * _apply_iJJ(V) + onsite)


def test_full_space_residual_matches_dense_adjacency():
    """The full-space residual adds the neighbours of each site by shifting
    the sites and has the bytes of the product with the dense 2n x 2n
    adjacency, over n, p, the three potential kinds, constant orbits, orbits
    on the real axes and signed zeros; one residual at n = 512, p = 4
    allocates no adjacency."""
    rng = np.random.default_rng(17)
    pots = [cubic_potential(), SAT, CUSTOM]
    cases = [(n, p) for n in (3, 4, 5, 6, 7, 8, 24, 96) for p in (0, 1, 2, 5, 16)]
    for i, (n, p) in enumerate(cases):
        ring = RingSystem(n=n, mu=rng.uniform(0.3, 1.2), potential=pots[i % 3])
        space = _FourierSpace(ring, p)
        V = 0.3 * (rng.normal(size=(p + 1, 2 * n)) + 1j * rng.normal(size=(p + 1, 2 * n)))
        if i % 4 == 1:
            V[1:] = 0.0
        elif i % 4 == 2:
            V[:, 1::2] = 0.0
        elif i % 4 == 3:
            V[rng.random(V.shape) < 0.5] = complex(-0.0, -0.0)
        V[0] = V[0].real + standing_wave(ring)[0]
        nu = rng.uniform(0.5, 2.0)
        got = space.residual(space.evaluate(V, nu))
        assert got.tobytes() == dense_residual(space, V, nu).tobytes(), (n, p)
    n, p = 512, 4
    ring = RingSystem(n=n, mu=0.5)
    space = _FourierSpace(ring, p)
    V = 0.1 * (rng.normal(size=(p + 1, 2 * n)) + 1j * rng.normal(size=(p + 1, 2 * n)))
    V[0] = V[0].real + standing_wave(ring)[0]
    tracemalloc.start()
    try:
        space.residual(space.evaluate(V, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000


def test_sample_count_of_a_space_reaches_residual_and_jacobian():
    # a ``num`` set on the instance is the count of the one evaluation that
    # both the residual and the Jacobian read: at 4p + 1 samples a saturable
    # h aliases, so both differ from the default 128 samples, and each has
    # the bytes of its reference, which samples the orbit again
    rng = np.random.default_rng(19)
    ring, p, nu = RingSystem(n=5, mu=0.9, potential=SAT), 2, 1.3
    for k in (None, 2):
        space = _FourierSpace(ring, p, k)
        V = 0.3 * (rng.normal(size=(p + 1, space.width))
                   + 1j * rng.normal(size=(p + 1, space.width)))
        V[0] = V[0].real + (standing_wave(ring)[0] if k is None else [np.sqrt(5), 0.0])
        V = space.unpack(space.pack(V, nu))[0]
        border = np.zeros((0, space.dim))
        results = []
        for num in (4 * p + 1, space.num):
            space.num = num
            at = space.evaluate(V, nu)
            assert at.X.shape[0] == num
            res, A = space.residual(at), bordered_jacobian(space, V, nu, border, [])
            assert res.tobytes() == dense_residual(space, V, nu).tobytes(), (k, num)
            assert A.tobytes() == mode_loop_jacobian(space, at, border, []).tobytes(), (k, num)
            results.append((res, A))
        (res, A), (res_default, A_default) = results
        assert np.abs(res - res_default).max() > 1e-8, k
        assert np.abs(A - A_default).max() > 1e-8, k


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
    # Jacobian; the larger part of the site-loop symmetry residual is patched
    # into both runs in place of the invariant bound, since the two differ
    # in the last digits
    rng = np.random.default_rng(15)
    argv = ["verify", "--n", "7", "--k", "2", "--branch", "minus", "--steps", "8",
            "--mu", f"{rng.uniform(0.1, 0.4):.6f}"]

    def run(fmt):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv + ["--format", fmt]) == 0
        return buf.getvalue()
    plain = run("json")
    monkeypatch.setattr(cli, "traveling_wave_residual",
                        lambda orbit, k: max(site_loop_symmetry_residual(orbit, k)))
    outputs = [run(fmt) for fmt in ("json", "csv")]
    monkeypatch.setattr(_FourierSpace, "jacobian",
                        lambda space, at, border: mode_loop_jacobian(space, at, border, []))
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

def test_newton_samples_each_iterate_once(monkeypatch):
    # each Newton iterate is sampled once: the residual, the Jacobian and the
    # nu column read one evaluation, so a call of n iterations evaluates n + 1
    # iterates, with one _to_samples each; on a Fix(K) branch, where the last
    # iterate is not factored, and in the full space, where it is
    calls, counts = [], []
    to_samples, newton = orbits._to_samples, orbits._newton

    def counted_samples(*args):
        calls.append(args)
        return to_samples(*args)

    def counted_newton(*args, **kwargs):
        before = len(calls)
        z, iterations = newton(*args, **kwargs)
        counts.append((len(calls) - before, iterations))
        return z, iterations
    monkeypatch.setattr(orbits, "_to_samples", counted_samples)
    monkeypatch.setattr(orbits, "_newton", counted_newton)
    ring = RingSystem(n=6, mu=0.5)
    bif = branch_point(ring, 3, "plus")
    branch = continue_branch(ring, bif, steps=4, ds=0.03)
    assert len(branch.points) == 4 and len(counts) == 4
    start = mode_perturbed_orbit(ring, 3, 0.02, bif.nu, p=8)
    newton_orbit(ring, start, fix_nu=False, amplitude=start.amplitude)
    assert len(counts) >= 5
    assert all(iterations >= 1 for _, iterations in counts), counts
    assert all(samples == iterations + 1 for samples, iterations in counts), counts


def test_only_the_full_space_gauges_and_guards(monkeypatch):
    # whether the space is the full one decides: a Fix(K) branch builds no
    # group tangent and estimates no condition, and newton_orbit from a
    # converged orbit builds the tangents and tests the condition estimate
    # once per factorization, the converged iterate's included
    counts = {"tangents": 0, "factor": 0, "rcond": 0}

    def counted(cls, name):
        method = getattr(cls, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)
    counted(_FourierSpace, "tangents")
    counted(_FourierSpace, "factor")
    counted(orbits._BorderedBandLU, "rcond")
    ring = RingSystem(n=6, mu=0.5)
    bif = branch_point(ring, 3, "plus")
    branch = continue_branch(ring, bif, steps=4, ds=0.03)
    assert len(branch.points) == 4 and counts["factor"] >= 4, counts
    assert counts["tangents"] == counts["rcond"] == 0, counts
    start = mode_perturbed_orbit(ring, 3, 0.02, bif.nu, p=8)
    solved = newton_orbit(ring, start, fix_nu=False, amplitude=start.amplitude)
    counts.update(dict.fromkeys(counts, 0))
    again = newton_orbit(ring, solved, fix_nu=False, amplitude=solved.amplitude)
    assert again.residual_norm <= 1e-10
    assert counts["rcond"] == counts["tangents"] == counts["factor"] >= 1, counts


def lstsq_newton(space, z, constraints, tol, ctol, max_iter, *, free_nu=True):
    """Reference for the square solve: the Newton loop it replaced, which
    solves the system bordered by the gauge rows of both group tangents at
    the iterate and the caller's rows (two more rows than unknowns in the
    full space, no unfolding columns) by least squares.  In Fix(K) of the
    isotropy space the gauge rows are zero and the system is square."""
    cols = slice(None) if free_nu else slice(-1)
    for iteration in range(max_iter + 1):
        V, nu = space.unpack(z)
        res = space.residual(space.evaluate(V, nu))
        rows, values = constraints(z)
        if np.linalg.norm(res) <= tol and np.all(np.abs(values) <= ctol):
            return z, iteration
        gauge = [space.row(t) for t in space.tangents(V)]
        A = dense_jacobian(space, V, nu, np.vstack(gauge + [rows]), [])[:, cols]
        rhs = -np.concatenate([res, np.zeros(len(gauge)), values])
        z = z.copy()
        z[cols] += np.linalg.lstsq(A, rhs, rcond=None)[0]
    raise NoConvergence(f"no convergence after {max_iter} iterations")


def unfolding_multipliers(space, z, constraints, free_nu):
    """lambda of the square system at z by a dense solve, for unit unfolding
    columns along the group tangents that are not zero when packed, each
    paired with its gauge row."""
    cols = slice(None) if free_nu else slice(-1)
    V, nu = space.unpack(z)
    rows, values = constraints(z)
    live = [t for t in space.tangents(V) if space.pack(t).any()]
    unfold = [space.pack(t) / np.linalg.norm(space.pack(t)) for t in live]
    border = np.vstack([space.row(t) for t in live] + [rows])
    A = dense_jacobian(space, V, nu, border, unfold)[:, cols]
    rhs = -np.concatenate([space.residual(space.evaluate(V, nu)), np.zeros(len(live)), values])
    return np.linalg.solve(A, rhs)[:len(unfold)]


def newton_cases(rng, n, iso, p, potential):
    """The space of the Newton loop on one ring and its borders, as (name,
    start, constraints, free_nu, ctol): starts built from the kernel
    mode of a bifurcation point in the Z~_n(k) space, lifted to the full
    space unless ``iso``."""
    ring = RingSystem(n=n, mu=rng.uniform(0.3, 1.0), potential=potential)
    points = [pt for pt in enumerate_bifurcations(ring) if pt.k != n]
    # n = 4 has no bifurcation point (alpha_k = 0), and its full space a
    # singular static mode (k = 2): there only the trivial case, in Z~_4(1)
    bif = points[int(rng.integers(len(points)))] if points else None
    k, nu0 = (bif.k, bif.nu) if bif else (1, 1.3)
    kspace = _FourierSpace(ring, p, k)
    space = kspace if iso else _FourierSpace(ring, p)

    w = kernel_vector(ring, k, nu0)
    w *= np.exp(-1j * np.angle(w[0]))   # turned into Fix(K)

    def point(scale, nu):   # trivial point + scale * kernel mode, packed in space
        V = np.zeros((p + 1, 2), dtype=complex)
        V[0, 0] = np.sqrt(n)
        V[1] = scale * w
        return space.pack((V if iso else kspace.expand(V)[p:]), nu)

    tol = _NEWTON_TOL
    fixed = lambda z: _orbit_constraints(space, z, None)
    # fixed nu, off the critical frequency, from a small kernel mode back to the trivial orbit
    cases = [("fix_nu-trivial", point(5e-3, nu0 + 0.1), fixed, False, tol)]
    if bif is None:
        return space, cases if iso else []
    # newton_orbit with an amplitude border and free nu
    amplitude = lambda z: _orbit_constraints(space, z, 0.05)
    cases.append(("amplitude", point(0.05, nu0), amplitude, True, tol))
    z_amp, _ = _newton(space, point(0.05, nu0), amplitude, tol, 50)
    # fixed nu, from a larger kernel mode to that branch orbit
    cases.append(("fix_nu", point(0.06, z_amp[-1]), fixed, False, tol))
    # the correctors of continue_branch, bordered by the arclength row alone
    # (in the full space the Newton loop adds the gauge rows at the iterate):
    # the first one from the trivial point along the kernel mode, and a later
    # one from that branch orbit along the secant
    ds, trivial = 0.02, point(0.0, nu0)
    tangent = point(1.0, nu0) - trivial
    tangent /= np.linalg.norm(tangent)
    first = lambda z: (tangent[None], tangent[None] @ (z - trivial) - ds)
    cases.append(("first-corrector", trivial + ds * tangent, first, True, 10 * tol))
    secant = (z_amp - trivial) / np.linalg.norm(z_amp - trivial)
    later = lambda z: (secant[None], secant[None] @ (z - z_amp) - ds)
    cases.append(("corrector", z_amp + ds * secant, later, True, 10 * tol))
    return space, cases


def test_square_newton_matches_lstsq_loop():
    # the unfolded square system reaches the solution of the least-squares
    # loop it replaced, in the same number of iterations, with multipliers 0;
    # the full space is guarded by the loop itself.  In Fix(K) of the
    # isotropy space the system is square with no multiplier and no guard,
    # and the dense reference loop, guarded, reaches the same solution
    rng = np.random.default_rng(12)
    pots = [cubic_potential(), SAT, CUSTOM]
    for i, (n, iso) in enumerate((n, iso) for n in (3, 4, 5, 6, 7, 8, 24, 96)
                                 for iso in (False, True)):
        p = 1 if (n, iso) == (96, False) else (1, 2, 5, 8)[i % 4]
        space, cases = newton_cases(rng, n, iso, p, pots[i % 3])
        for name, z0, constraints, free_nu, ctol in cases:
            label = (n, iso, p, i % 3, name)
            z, iters = _newton(space, z0, constraints, ctol, 50, free_nu=free_nu)
            ref, ref_iters = lstsq_newton(space, z0, constraints, _NEWTON_TOL, ctol, 50,
                                          free_nu=free_nu)
            assert np.abs(z - ref).max() <= 1e-12 * (1 + np.abs(ref).max()), label
            assert abs(iters - ref_iters) <= 1, label
            lam = unfolding_multipliers(space, z, constraints, free_nu)
            if iso:
                assert lam.size == 0, label
                guarded, _ = dense_newton(space, z0, constraints, ctol, 50,
                                          free_nu=free_nu, guard=True)
                assert np.abs(z - guarded).max() <= 1e-12 * (1 + np.abs(z).max()), label
            else:
                assert np.abs(lam).max() <= 1e-12, label


# --- the bordered band solve of the full space -------------------------------

def band_cases(rng, n, p, potential):
    """Starts of the full-space Newton loop on one seeded ring, as (name,
    start, constraints, free_nu): the kernel mode of a bifurcation point,
    lifted from Fix(K), pinned at amplitude 1e-2, 1e-3 and 1e-4 with nu
    free; with nu fixed, a small kernel mode off the critical frequency
    (back to the trivial orbit), a larger one at the frequency of the branch
    orbit of amplitude 0.05, and the trivial orbit at the critical
    frequency; and the trivial orbit pinned at amplitude 0, whose amplitude
    row is zero.  n = 4 has no bifurcation point, and only the starts that
    need none."""
    ring = RingSystem(n=n, mu=rng.uniform(0.3, 1.0), potential=potential)
    points = [pt for pt in enumerate_bifurcations(ring) if pt.k != n]
    bif = points[int(rng.integers(len(points)))] if points else None
    k, nu0 = (bif.k, bif.nu) if bif else (1, 1.3)
    kspace, space = _FourierSpace(ring, p, k), _FourierSpace(ring, p)
    w = kernel_vector(ring, k, nu0)
    w *= np.exp(-1j * np.angle(w[0]))

    def point(scale, nu):
        V = np.zeros((p + 1, 2), dtype=complex)
        V[0, 0], V[1] = np.sqrt(n), scale * w
        return space.pack(kspace.expand(V)[p:], nu)

    def pinned(amplitude):
        return lambda z: _orbit_constraints(space, z, amplitude)
    fixed = pinned(None)
    cases = [("fix_nu-trivial", point(5e-3, nu0 + 0.1), fixed, False),
             ("amplitude-0", point(0.0, nu0 + 0.1), pinned(0.0), True)]
    if bif is not None:
        cases += [(f"amplitude-{a:g}", point(a, nu0), pinned(a), True) for a in (1e-2, 1e-3, 1e-4)]
        # with nu fixed, a branch orbit of amplitude a is isolated with rcond ~ a^2:
        # at 0.05 the solution is fixed to well below 1e-12
        z_amp, _ = _newton(space, point(0.05, nu0), pinned(0.05), _NEWTON_TOL, 50)
        cases += [("fix_nu-branch", point(0.06, z_amp[-1]), fixed, False),
                  ("fix_nu-critical", point(0.0, nu0), fixed, False)]
    return space, cases


def test_band_newton_matches_dense_oracle(monkeypatch):
    """The full-space Newton loop on the bordered band LU against the dense
    dgetrf/dgecon loop it replaced (``references.dense_newton``), over n, p,
    the three potential kinds and the starts of ``band_cases``: the same
    cases raise SingularJacobian, and the others reach the same z within
    1e-12 (1 + |z|) in as many iterations.  Each band condition estimate is
    within a factor of 2 of dgecon's for the same matrix, expanded dense,
    unless both are below 1e-12, the rounding noise of an exactly singular
    system and two orders below the guard's 1e-10, or dgecon's is itself more
    than a factor of 2 above the exact rcond: Higham's estimator follows
    another path through dgecon's row-permuted LU, and on nearly singular
    systems (around the constant orbit at n = 4 above all) either can miss
    the worst direction.  There the band estimate must still bound the
    exact rcond from above, and such estimates are at most 1 in 20."""
    estimates = []
    factor, rcond = _FourierSpace.factor, orbits._BorderedBandLU.rcond

    def recorded_factor(space, *args):
        lu = factor(space, *args)
        lu.args = (space, *args)
        return lu

    def recorded_rcond(lu):
        space, at, border, unfold, free_nu = lu.args
        A = dense_jacobian(space, at.V, at.nu, border, unfold)
        A = A if free_nu else A[:, :-1]
        estimates.append((rcond(lu), dense_rcond(A.copy(order="F")), A))
        return estimates[-1][0]
    monkeypatch.setattr(_FourierSpace, "factor", recorded_factor)
    monkeypatch.setattr(orbits._BorderedBandLU, "rcond", recorded_rcond)

    def outcome(solve, *args, **kwargs):
        try:
            return solve(*args, **kwargs)
        except SingularJacobian:
            return None

    rng = np.random.default_rng(29)
    pots = [cubic_potential(), SAT, CUSTOM]
    sizes = [(3, 1), (3, 16), (4, 2), (4, 8), (5, 4), (5, 16), (6, 8), (6, 16),
             (7, 1), (7, 4), (8, 2), (8, 16), (24, 4), (24, 8), (96, 1)]
    seen, compared, excused = set(), 0, []
    for i, (n, p) in enumerate(sizes):
        space, cases = band_cases(rng, n, p, pots[i % 3])
        for name, z0, constraints, free_nu in cases:
            label = (n, p, i % 3, name)
            ref = outcome(dense_newton, space, z0, constraints, _NEWTON_TOL, 50,
                          free_nu=free_nu, guard=True)
            estimates.clear()
            got = outcome(_newton, space, z0, constraints, _NEWTON_TOL, 50, free_nu=free_nu)
            assert (ref is None) == (got is None), label
            if ref is not None:
                assert np.abs(got[0] - ref[0]).max() <= 1e-12 * (1 + np.abs(ref[0]).max()), label
                assert got[1] == ref[1], label
            for band, dense, A in estimates:
                if 0.5 * dense <= band <= 2.0 * dense or max(band, dense) < 1e-12:
                    compared += 1
                    continue
                try:
                    inverse_norm = np.abs(np.linalg.inv(A)).sum(axis=0).max()
                    exact = 1.0 / inverse_norm / np.abs(A).sum(axis=0).max()
                except np.linalg.LinAlgError:
                    exact = 0.0
                assert dense > 2.0 * exact and band >= 0.5 * exact, (label, band, dense, exact)
                excused.append(label)
            seen.add((name, ref is None))
    assert seen >= {("amplitude-0.01", False), ("amplitude-0.001", False),
                    ("amplitude-0.0001", False), ("fix_nu-trivial", False),
                    ("fix_nu-branch", False), ("fix_nu-critical", True), ("amplitude-0", True)}
    assert compared >= 200 and len(excused) <= compared / 20, excused


@pytest.mark.parametrize("routine", ["dgbtrf", "dgetrf"])
def test_newton_zero_band_or_schur_pivot_is_singular(monkeypatch, routine):
    """A zero pivot of the band LU or of the border's Schur complement
    (LAPACK info > 0) makes the condition estimate 0: newton_orbit raises
    SingularJacobian naming rcond, at a start that is otherwise regular."""
    ring = RingSystem(n=6, mu=0.5)
    initial = mode_perturbed_orbit(ring, 3, 0.05, np.sqrt(3.0))
    factor = getattr(scipy.linalg.lapack, routine)

    def zero_pivot(a, *args, **kwargs):
        return *factor(a, *args, **kwargs)[:2], 3
    monkeypatch.setattr(scipy.linalg.lapack, routine, zero_pivot)
    with pytest.raises(SingularJacobian, match=r"rcond 0\.00e\+00"):
        newton_orbit(ring, initial, fix_nu=False, amplitude=initial.amplitude)


def test_newton_orbit_n96_within_budget():
    """newton_orbit at n = 96, p = 8, free nu and amplitude 0.01, started
    from its own solution, in a process with one OpenBLAS thread: the
    bordered band LU takes under 0.25 s (best of 3) and a tracemalloc peak
    under 16 MiB, where the dense LU of the 3267 x 3267 system took about
    0.5 s and 84 MiB."""
    script = textwrap.dedent("""
        import time, tracemalloc
        import numpy as np
        from dnlsring.blocks import kernel_vector
        from dnlsring.classify import enumerate_bifurcations
        from dnlsring.model import RingSystem, standing_wave
        from dnlsring.orbits import FourierOrbit, newton_orbit
        from dnlsring.symmetry import t_k_matrix
        ring, p, amplitude = RingSystem(n=96, mu=0.3), 8, 0.01
        nu = next(pt.nu for pt in enumerate_bifurcations(ring) if (pt.k, pt.root) == (48, "plus"))
        coeffs = np.zeros((2 * p + 1, 192), dtype=complex)
        coeffs[p] = standing_wave(ring)[0]
        coeffs[p + 1] = amplitude / 2 * (t_k_matrix(96, 48) @ kernel_vector(ring, 48, nu))
        coeffs[p - 1] = coeffs[p + 1].conj()
        solved = newton_orbit(ring, FourierOrbit(nu, coeffs), fix_nu=False, amplitude=amplitude)
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            again = newton_orbit(ring, solved, fix_nu=False, amplitude=amplitude)
            times.append(time.perf_counter() - t0)
        tracemalloc.start()
        newton_orbit(ring, solved, fix_nu=False, amplitude=amplitude)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(min(times), peak, again.residual_norm, again.p)
    """)
    src = os.path.dirname(os.path.dirname(orbits.__file__))
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src})
    elapsed, peak, res, p = map(float, done.stdout.split())
    assert res <= 1e-10 and p == 8
    assert elapsed < 0.25, f"{elapsed:.3f} s"
    assert peak < 16 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"


# --- newton_orbit ------------------------------------------------------------

def test_newton_trivial_solution_immediate():
    ring = RingSystem(n=6, mu=0.5)
    a, _ = standing_wave(ring)
    sol = newton_orbit(ring, constant_orbit(a, nu=1.0, p=6))
    assert sol.newton_iterations <= 2
    assert sol.residual_norm <= 1e-12
    assert np.abs(sol.coeffs[sol.p] - a).max() < 1e-12


def test_newton_singular_at_critical_frequency():
    ring = RingSystem(n=6, mu=0.5)
    a, _ = standing_wave(ring)
    for nu in (np.sqrt(3.0), 1.5 + np.sqrt(1.5)):
        with pytest.raises(SingularJacobian) as err:
            newton_orbit(ring, constant_orbit(a, nu=nu, p=6))


def test_newton_regular_just_off_critical_frequency():
    # the other side of the singularity guard: 1e-6 off the root is regular
    ring = RingSystem(n=6, mu=0.5)
    a, _ = standing_wave(ring)
    sol = newton_orbit(ring, constant_orbit(a, nu=np.sqrt(3.0) + 1e-6, p=6))
    assert sol.residual_norm <= 1e-12
    with pytest.raises(SingularJacobian, match="rcond"):
        newton_orbit(ring, constant_orbit(a, nu=np.sqrt(3.0), p=6))


def test_newton_fixed_nu_returns_to_trivial_orbit():
    # near the trivial orbit the time-shift tangent is small but not zero;
    # its unfolding column and gauge row must not make the system singular
    rng = np.random.default_rng(6)
    for n, nu, p in [(6, 1.0, 4), (5, 0.7, 3), (8, 1.3, 6), (3, 2.2, 2)]:
        ring = RingSystem(n=n, mu=0.5)
        a, _ = standing_wave(ring)
        noise = 1e-3 * (rng.normal(size=(2 * p + 1, 2 * n))
                        + 1j * rng.normal(size=(2 * p + 1, 2 * n)))
        coeffs = constant_orbit(a, nu=nu, p=p).coeffs + noise + noise[::-1].conj()
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


def test_isotropy_newton_non_finite_jacobian_stops_with_no_convergence():
    # Fix(K) factors a dense LU with no condition estimate: an h' that is
    # nan away from s = mu^2 makes its Jacobian non-finite, while h keeps
    # the residual finite and away from zero
    mu = 0.6
    pot = custom_potential(lambda s: s, lambda s: np.where(s == mu ** 2, 1.0, np.nan))
    ring = RingSystem(n=6, mu=mu, potential=pot)
    space = _FourierSpace(ring, 2, 3)
    V = np.zeros((3, 2), dtype=complex)
    V[0, 0], V[1] = np.sqrt(6.0), [0.1, 0.1j]   # x_1 real, y_1 imaginary: in Fix(K)
    z = space.pack(V, 1.0)

    def no_border(z):
        return np.zeros((0, space.dim)), np.zeros(0)
    with pytest.raises(NoConvergence, match="non-finite Jacobian at Newton iteration 0"):
        _newton(space, z, no_border, _NEWTON_TOL, 5, free_nu=False)


def test_newton_iteration_and_fourier_order_caps(monkeypatch):
    """newton_orbit raises NoConvergence when a Newton solve needs more than
    _MAX_ITER iterations, or when the Fourier tail is still above 1e-12 once
    doubling p would pass _P_MAX."""
    ring = RingSystem(n=6, mu=0.5)
    initial = mode_perturbed_orbit(ring, 3, 0.05, np.sqrt(3.0))
    iters = newton_orbit(ring, initial, fix_nu=False,
                         amplitude=initial.amplitude).newton_iterations
    monkeypatch.setattr(orbits, "_MAX_ITER", iters - 1)
    with pytest.raises(NoConvergence, match=f"no convergence after {iters - 1} Newton"):
        newton_orbit(ring, initial, fix_nu=False, amplitude=initial.amplitude)
    monkeypatch.setattr(orbits, "_MAX_ITER", 50)
    # the start of test_newton_tail_adaptation needs p = 8
    initial = mode_perturbed_orbit(ring, 3, 0.5, np.sqrt(3.0), p=2)
    monkeypatch.setattr(orbits, "_P_MAX", 4)
    with pytest.raises(NoConvergence, match="still above 1e-12 at p = 4"):
        newton_orbit(ring, initial, fix_nu=False, amplitude=initial.amplitude)


def test_newton_gauge_config_validation():
    ring = RingSystem(n=6, mu=0.5)
    a, _ = standing_wave(ring)
    orbit = constant_orbit(a, nu=1.0, p=4)
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
    moved = FourierOrbit(sol.nu, group_action(6, 2, 0.7, 1.1, sol.coeffs))
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
    for steps, ds in ((0, 0.05), (4, 0.0), (4, -0.03), (4, np.inf)):
        with pytest.raises(ValueError, match="ds > 0"):
            continue_branch(ring, bif, steps=steps, ds=ds)
    for p_max in (-5, 0, 7):
        with pytest.raises(ValueError, match="p_max must be >="):
            continue_branch(ring, bif, steps=4, ds=0.05, p_max=p_max)
    with pytest.raises(ValueError, match="p must be >= 1, got p = 0"):
        continue_branch(ring, bif, steps=4, ds=0.05, p=0)


@pytest.mark.parametrize("fail_from, accepted", [(1, 0), (2, 1)],
                         ids=["no-point", "one-point"])
def test_continue_branch_gives_up_after_failed_halvings(monkeypatch, fail_from, accepted):
    """A corrector that fails six times in a row, with ds halved after each of
    the first five failures, ends the branch: termination solver-error
    before any point is accepted, step-failure after one, with the
    corrector's failure in the reason of both."""
    starts = []
    newton = orbits._newton

    def failing(space, z, *args, **kwargs):
        starts.append(z)
        if len(starts) >= fail_from:
            raise NoConvergence("corrector failed")
        return newton(space, z, *args, **kwargs)
    monkeypatch.setattr(orbits, "_newton", failing)
    ring = RingSystem(n=6, mu=0.5)
    bif = branch_point(ring, 3, "plus")
    branch = continue_branch(ring, bif, steps=4, ds=0.04)
    assert len(branch.points) == accepted
    if accepted:
        assert branch.termination == "step-failure"
        assert "step halvings" in branch.reason
    else:
        assert branch.termination == "solver-error"
        assert "corrector failed" in branch.reason
    assert branch.reason == "corrector failed after 5 step halvings: corrector failed"
    assert len(starts) == accepted + 6
    # each predictor is z_prev + ds * tangent, with ds = 0.04 / 2^i
    gaps = [np.linalg.norm(a - b) for a, b in zip(starts[-6:], starts[-5:])]
    np.testing.assert_allclose(gaps, 0.04 * 0.5 ** np.arange(1, 6), rtol=1e-12)


def test_continue_branch_builds_border_once_per_step(monkeypatch):
    # the border is the arclength row alone, one array for every Newton
    # iteration of a step, the first step's as every other's
    borders = []
    newton = orbits._newton

    def spy(space, z, constraints, *args, **kwargs):
        rows = constraints(z)[0]
        borders.append((rows.shape == (1, space.dim), rows is constraints(z + 1e-3)[0]))
        return newton(space, z, constraints, *args, **kwargs)
    monkeypatch.setattr(orbits, "_newton", spy)
    ring = RingSystem(n=6, mu=0.5)
    continue_branch(ring, branch_point(ring, 3, "plus"), steps=4, ds=0.04)
    assert borders == [(True, True)] * 4


def test_continue_branch_does_not_depend_on_the_kernel_vector_phase(monkeypatch):
    # the kernel vector of m_k(nu) is unique up to a phase, which eigh does
    # not fix; turned by the phase of its first entry it lies in Fix(K), and
    # the branch is the same for every phase
    ring = RingSystem(n=7, mu=0.4)
    bif = branch_point(ring, 2, "plus")
    ref = [(q.nu, q.amplitude) for q in continue_branch(ring, bif, steps=4, ds=0.04).points]
    for phase in (np.exp(0.7j), 1j, -1j, -1.0):   # +-i leave nothing in Fix(K) unturned
        monkeypatch.setattr(orbits.blocks, "kernel_vector", lambda ring, k, nu, phase=phase:
                            kernel_vector(ring, k, nu) * phase)
        branch = continue_branch(ring, bif, steps=4, ds=0.04)
        got = [(q.nu, q.amplitude) for q in branch.points]
        np.testing.assert_allclose(got, ref, rtol=1e-12, err_msg=str(phase))


def regime_sweep():
    """(ring, bifurcation point) over the regime tables, cubic and saturable,
    n = 3..8: one amplitude per table entry, the middle of its interval or 1
    past its start when the interval is unbounded, and every bifurcation
    point of the entry's mode there."""
    for n in range(3, 9):
        for potential, regimes in ((cubic_potential(), schrodinger_regimes),
                                   (SAT, saturable_regimes)):
            for entry in regimes(n).entries:
                lo, hi = entry.mu_interval
                ring = RingSystem(n=n, mu=(lo + hi) / 2 if hi < np.inf else lo + 1.0,
                                  potential=potential)
                yield from ((ring, bif) for bif in enumerate_bifurcations(ring)
                            if bif.k == entry.k)


def test_reversible_corrector_matches_gauged_reference():
    """Every branch of the regime sweep, continued in Fix(K) and by the
    gauged corrector on every real part of the Z~_n(k) space, ends the same
    way with as many points, and extrapolates to the same frequency within
    1e-10.  The modes of oscillator n lie in Fix(K), x_l real and y_l
    imaginary, to 1e-12 relative; so do those of the gauged branch after
    the time shift that makes its x_1 real."""
    branches = 0
    for ring, bif in regime_sweep():
        label = (ring.n, ring.potential.kind, ring.mu, bif.k, bif.root)
        got = continue_branch(ring, bif, steps=12, ds=0.03)
        ref = gauged_continue_branch(ring, bif, steps=12, ds=0.03)
        assert (got.termination, len(got.points)) == (ref.termination, len(ref.points)), label
        assert abs(extrapolate_nu_to_zero(got) - extrapolate_nu_to_zero(ref)) <= 1e-10, label
        for bp, shifted in [(bp, False) for bp in got.points] + [(bp, True) for bp in ref.points]:
            modes = bp.orbit.coeffs[bp.orbit.p:, -2:]   # oscillator n, l = 0..p
            if shifted:
                modes = modes * np.exp(-1j * np.angle(modes[1, 0]) * np.arange(len(modes)))[:, None]
            off = np.abs(np.r_[modes[:, 0].imag, modes[:, 1].real]).max()
            assert off <= 1e-12 * np.abs(modes).max(), label
        branches += 1
    assert branches == 52


def test_continue_branch_rejects_nan_certificate(monkeypatch):
    """A full-space residual that is nan fails the certificate of a point as
    one above the bound does: solver-error, not a branch of nan residuals."""
    ring = RingSystem(n=6, mu=0.5)
    bif = branch_point(ring, 3, "plus")
    monkeypatch.setattr(orbits, "residual",
                        lambda ring, orbit: np.full(orbit.coeffs.shape, np.nan))
    branch = continue_branch(ring, bif, steps=2, ds=0.05)
    assert branch.termination == "solver-error"
    assert "full-space residual nan" in branch.reason
    assert branch.points == []


def test_extrapolate_empty_branch_raises():
    with pytest.raises(ValueError):
        extrapolate_nu_to_zero(ContinuationBranch(points=[]))


def test_extrapolate_fits_no_more_coefficients_than_points():
    # one point gives its own nu; two points the line in a^2 through both
    ring = RingSystem(n=6, mu=0.5)
    branch = continue_branch(ring, branch_point(ring, 3, "plus"), steps=2, ds=0.03)
    first = ContinuationBranch(points=branch.points[:1])
    assert extrapolate_nu_to_zero(first) == branch.points[0].nu
    (a1, nu1), (a2, nu2) = [(bp.amplitude ** 2, bp.nu) for bp in branch.points]
    line = (nu1 * a2 - nu2 * a1) / (a2 - a1)
    assert abs(extrapolate_nu_to_zero(branch) - line) <= 1e-12


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
    # inf T overflowed the step count, nan T failed to convert, and inf dt
    # came back as one row at time nan
    for T, dt in ((np.inf, 0.1), (np.nan, 0.1), (1.0, np.inf), (1.0, np.nan)):
        with pytest.raises(ValueError, match="T and dt must be finite and positive"):
            integrate(ring, a, T=T, dt=dt)
    # finite T and dt whose step count overflows raised OverflowError
    with pytest.raises(ValueError, match="step count T/dt must be finite"):
        integrate(ring, a, T=1e300, dt=1e-10)


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
    """The band solve in ring order, with its extrapolated predictor and
    its polish, gives the dense reference loop's trajectory to rounding:
    within 1e-13 over T = 0.5, and over T = 0.1 at n = 64 and 65, where the
    interleave and the band's wrap-around entries matter."""
    expr = custom_potential(_expr_fn("s / (1 + s**2)"), _expr_fn("(1 - s**2) / (1 + s**2)**2"))
    rng = np.random.default_rng(10)
    for n, T in [(3, 0.5), (4, 0.5), (5, 0.5), (6, 0.5), (9, 0.5), (64, 0.1), (65, 0.1)]:
        for pot in (cubic_potential(), SAT, expr):
            for dt in (0.01, 0.05):
                ring = RingSystem(n=n, mu=float(rng.uniform(0.2, 1.2)), potential=pot)
                a, _ = standing_wave(ring)
                x0 = a + 0.05 * rng.normal(size=2 * n)
                times, X = integrate(ring, x0, T=T, dt=dt)
                ref_times, ref_X = reference_integrate(ring, x0, T=T, dt=dt)
                assert np.array_equal(times, ref_times)
                assert X.flags.c_contiguous
                assert np.abs(X - ref_X).max() <= 1e-13, (n, pot.kind, dt)


def test_integrate_matches_reference_loop_on_the_benchmark_case():
    """All 1000 steps of the dense benchmark's case (n = 6, saturable, mu
    near 0.4, the rotating wave perturbed by 0.05, dt = 0.01, T = 10) give
    the dense reference loop's trajectory within 1e-13."""
    rng = np.random.default_rng(32)
    ring = RingSystem(n=6, mu=0.4 * (1.0 + 0.02 * rng.uniform(-1.0, 1.0)), potential=SAT)
    a, _ = standing_wave(ring)
    x0 = a + 0.05 * rng.normal(size=12)
    _, X = integrate(ring, x0, T=10.0, dt=0.01)
    _, ref_X = reference_integrate(ring, x0, T=10.0, dt=0.01)
    assert X.shape == (1001, 12)
    assert np.abs(X - ref_X).max() <= 1e-13


def test_integrate_steps_solve_the_midpoint_equation():
    """Every returned step solves the implicit midpoint equation through the
    public kernel, |x_(k+1) - x_k - dt vector_field((x_k + x_(k+1)) / 2)| <=
    1e-13, whatever unknown the solver iterates on: cubic, saturable and an
    expression potential at n = 3, 6 and 64."""
    expr = custom_potential(_expr_fn("s / (1 + s**2)"), _expr_fn("(1 - s**2) / (1 + s**2)**2"))
    rng = np.random.default_rng(33)
    dt = 0.01
    for n in (3, 6, 64):
        for pot in (cubic_potential(), SAT, expr):
            ring = RingSystem(n=n, mu=float(rng.uniform(0.2, 1.2)), potential=pot)
            a, _ = standing_wave(ring)
            _, X = integrate(ring, a + 0.05 * rng.normal(size=2 * n), T=1.0, dt=dt)
            f = np.array([vector_field(ring, mid) for mid in 0.5 * (X[1:] + X[:-1])])
            err = np.linalg.norm(X[1:] - X[:-1] - dt * f, axis=1).max()
            assert err <= 1e-13, (n, pot.kind, err)


def test_predictor_weights_extrapolate_polynomials():
    """Row m of the predictor's weights, applied to the last m values of a
    sequence oldest first, gives its next value exactly (to 1e-12 relative)
    when the sequence is a polynomial of degree < m in the step index; every
    row sums to 1, and row 2 is the linear (-1, 2)."""
    assert sorted(_PREDICTOR_WEIGHTS) == list(range(1, _PREDICTOR_ORDER + 1))
    assert np.array_equal(_PREDICTOR_WEIGHTS[2], [-1.0, 2.0])
    rng = np.random.default_rng(35)
    for m, row in _PREDICTOR_WEIGHTS.items():
        assert row.shape == (m,) and row.sum() == 1.0
        k = np.arange(m + 1) + float(rng.integers(0, 50))
        for degree in range(m):
            values = np.polynomial.polynomial.polyval(k, rng.normal(size=degree + 1))
            assert abs(row @ values[:-1] - values[-1]) <= 1e-12 * np.abs(values).max(), (m, degree)


def test_integrate_extrapolated_predictor_is_robust():
    """Where a high-order extrapolation is at its worst, large steps and
    large departures from the rotating wave, every case still integrates,
    and every step solves the midpoint equation through vector_field to
    1e-13: 96 seeded cases over n = 3..33, cubic, saturable and an
    expression potential, dt from 0.005 to 0.1 and perturbations up to 0.5,
    40 steps each, so that 32 steps start from the order-8 predictor."""
    expr = custom_potential(_expr_fn("s / (1 + s**2)"), _expr_fn("(1 - s**2) / (1 + s**2)**2"))
    rng = np.random.default_rng(36)
    for n in (3, 4, 5, 6, 7, 9, 16, 33):
        for pot in (cubic_potential(), SAT, expr):
            for _ in range(4):
                dt = float(rng.choice([0.005, 0.01, 0.02, 0.05, 0.1]))
                ring = RingSystem(n=n, mu=float(rng.uniform(0.2, 1.2)), potential=pot)
                a, _ = standing_wave(ring)
                x0 = a + rng.uniform(0.01, 0.5) * rng.normal(size=2 * n)
                _, X = integrate(ring, x0, T=40 * dt, dt=dt)
                f = np.array([vector_field(ring, mid) for mid in 0.5 * (X[1:] + X[:-1])])
                err = np.linalg.norm(X[1:] - X[:-1] - dt * f, axis=1).max()
                assert err <= 1e-13, (n, pot.kind, dt, err)


@pytest.mark.parametrize("n, pot, mu", [(6, SAT, 0.4), (64, cubic_potential(), 0.3)])
def test_integrate_is_time_reversible(n, pot, mu):
    """The flow is reversible under complex conjugation C, per site
    [1, -1], and so is the symmetric midpoint rule: integrating forward
    from C x(T) returns C x0 within 1e-9.  At the dense benchmark's case
    (n = 6, saturable, T = 10, dt = 0.01) and at n = 64, cubic."""
    rng = np.random.default_rng(34)
    ring = RingSystem(n=n, mu=mu, potential=pot)
    a, _ = standing_wave(ring)
    x0 = a + 0.05 * rng.normal(size=2 * n)
    flip = np.tile([1.0, -1.0], n)
    _, X = integrate(ring, x0, T=10.0, dt=0.01)
    _, back = integrate(ring, flip * X[-1], T=10.0, dt=0.01)
    assert np.abs(flip * back[-1] - x0).max() <= 1e-9


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
    """dgbsv reporting an exactly singular midpoint matrix (info > 0) ends
    the run at once.  The first four factorizations are real, since the
    polishing updates solve through them."""
    ring = RingSystem(n=6, mu=0.5)
    a, _ = standing_wave(ring)
    calls = []
    real = scipy.linalg.lapack.dgbsv

    def dgbsv(kl, ku, ab, b):
        calls.append(1)
        if len(calls) > 4:
            return ab, None, b, 3
        return real(kl, ku, ab, b)

    monkeypatch.setattr(scipy.linalg.lapack, "dgbsv", dgbsv)
    with pytest.raises(NoConvergence, match=r"matrix is singular at step \d+ \(t = "):
        integrate(ring, a + 0.01, T=1.0, dt=0.01)
    assert len(calls) == 5


def test_integrate_stalled_solve_no_convergence(monkeypatch):
    """With one inner iteration allowed, the first step, which starts from
    Euler's predictor with a residual of O(dt^2), cannot meet the tolerance
    and ends the run."""
    monkeypatch.setattr(orbits, "_MIDPOINT_ITER", 1)
    ring = RingSystem(n=6, mu=0.5)
    a, _ = standing_wave(ring)
    with pytest.raises(NoConvergence, match=r"solve did not converge at step 0 \(t = 0.000\)"):
        integrate(ring, a + 0.01, T=1.0, dt=0.01)


def test_integrate_factors_once_and_polishes_once_per_step(monkeypatch):
    """On the dense benchmark's case (n = 6, saturable, mu near 0.4, the
    rotating wave perturbed by 0.05, dt = 0.01, T = 10) every step polishes
    once, and every step from 2 on factors once (dgbsv).  A polish is the
    update applied at a converged residual, |H| <= 1e-12 / 2, which is each
    step's last solve.  Started from the extrapolation of the last stage
    increments, a step's first residual mostly meets the tolerance already,
    so the step's one factorization serves its polish, and at most 8 steps
    of the 1000 polish through the factors of an earlier iterate (dgbtrs).
    Steps 0 and 1 start from Euler's predictor, which can leave one more
    factorization each."""
    tol = 0.5 * _MIDPOINT_TOL
    counts = {}
    for name in ("dgbsv", "dgbtrs"):
        def counted(*args, _real=getattr(scipy.linalg.lapack, name), _name=name):
            counts[_name] += 1
            rhs = args[3]   # both take the right-hand side H fourth
            counts["polish"] += math.sqrt(rhs @ rhs) <= tol
            return _real(*args)
        monkeypatch.setattr(scipy.linalg.lapack, name, counted)

    def calls(ring, x0, T):
        counts.update(dgbsv=0, dgbtrs=0, polish=0)
        integrate(ring, x0, T=T, dt=0.01)
        return counts["dgbsv"], counts["dgbtrs"], counts["polish"]

    rng = np.random.default_rng(31)
    for _ in range(5):
        ring = RingSystem(n=6, mu=0.4 * (1.0 + 0.02 * rng.uniform(-1.0, 1.0)), potential=SAT)
        a, _ = standing_wave(ring)
        x0 = a + 0.05 * rng.normal(size=12)
        (head, _, head_polish), (full, through_factors, polish) = (
            calls(ring, x0, 0.02), calls(ring, x0, 10.0))
        assert (head_polish, polish) == (2, 1000)
        assert full - head == 998 and 2 <= head <= 4
        assert through_factors <= 8


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
