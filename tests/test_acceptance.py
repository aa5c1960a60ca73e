"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; all tolerances are asserted, so a plain ``pytest`` run is equivalent
apart from the printout.
"""

import time

import numpy as np

from dnlsring.blocks import (coefficients, degenerate_amplitudes, det_trace,
                             eta, full_spectrum_oracle, linear_stability,
                             mu_h_prime, sigma)
from dnlsring.classify import enumerate_bifurcations
from dnlsring.model import (RingSystem, cubic_potential, gradient_V, hessian_V,
                            saturable_potential, standing_wave)
from dnlsring.orbits import FourierOrbit, continue_branch, extrapolate_nu_to_zero, integrate
from dnlsring.symmetry import assemble_P, block_extract, symmetry_residual
from references import orthogonality_check, potential_V

CUBIC = cubic_potential()
SAT = saturable_potential()


def report(number, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}  [{detail}; {elapsed:.2f}s "
          f"of {budget:g}s budget]")
    assert ok, f"criterion {number} ({name}): {detail}"
    assert elapsed < budget, f"criterion {number} over budget: {elapsed:.2f}s"


def cluster_match_error(analytic, numeric, radius=1e-5):
    """Multiset distance on multiplicity-cluster means; defective pairs
    split by O(sqrt(eps)) under rounding but their means stay O(eps)."""
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


def block_roots(ring):
    out = []
    for k in range(1, ring.n + 1):
        c = coefficients(ring.n, k)
        s = np.sqrt(complex(c.alpha * (c.alpha - 2 * mu_h_prime(ring))))
        out.extend([1j * (c.gamma + s), 1j * (c.gamma - s)])
    return np.array(out)


def test_criterion_1_paper_constants():
    t0 = time.time()
    worst = 0.0
    c1 = coefficients(3, 1)
    worst = max(worst, abs(c1.alpha / 2 - (-0.75)))
    worst = max(worst, abs(c1.delta), abs(coefficients(3, 2).delta))
    ok = all(coefficients(4, k).alpha == 0.0 for k in range(1, 5))
    ring = RingSystem(n=7, mu=0.9, potential=SAT)
    for nu in np.linspace(-4.7, 4.7, 20):
        d, _ = det_trace(ring, 7, nu)
        worst = max(worst, abs(d - (-nu ** 2)))
    report(1, "paper constants", ok and worst <= 1e-12,
           f"max deviation {worst:.2e} vs 1e-12", time.time() - t0, 1.0)


def test_criterion_2_saturable_threshold():
    t0 = time.time()
    d15 = coefficients(15, 1).delta
    d16 = coefficients(16, 1).delta
    ok = d15 < -0.25 < d16
    ok = ok and abs(d15 - (-0.26754)) < 1e-4 and abs(d16 - (-0.23463)) < 1e-4
    worst = 0.0
    for n in (16, 20, 32):
        lo, hi = degenerate_amplitudes(n, 1, SAT)
        worst = max(worst, abs(lo ** 2 * hi ** 2 - 1.0))
    report(2, "saturable threshold",
           ok and worst <= 1e-10,
           f"delta_1(15)={d15:.5f}, delta_1(16)={d16:.5f}, "
           f"|mu-^2 mu+^2 - 1| <= {worst:.2e} vs 1e-10",
           time.time() - t0, 1.0)


def test_criterion_3_block_oracle_equivalence():
    t0 = time.time()
    worst_spec = 0.0
    worst_off = 0.0
    for n in range(3, 13):
        P = assemble_P(n)
        for pot in (CUBIC, SAT):
            degenerate = set()
            for k in range(1, n):
                if coefficients(n, k).delta is not None:
                    degenerate.update(degenerate_amplitudes(n, k, pot))
            for mu in (0.3, 0.7, 1.5):
                if any(abs(mu - m) < 1e-6 for m in degenerate):
                    continue
                ring = RingSystem(n=n, mu=mu, potential=pot)
                err = cluster_match_error(block_roots(ring),
                                          full_spectrum_oracle(ring))
                worst_spec = max(worst_spec, err)
                a, _ = standing_wave(ring)
                _, off = block_extract(P, hessian_V(ring, a))
                worst_off = max(worst_off, off)
    report(3, "block/oracle equivalence",
           worst_spec <= 1e-8 and worst_off <= 1e-10,
           f"spectrum mismatch {worst_spec:.2e} vs 1e-8, "
           f"off-block {worst_off:.2e} vs 1e-10", time.time() - t0, 10.0)


def test_criterion_4_morse_eta_table():
    t0 = time.time()
    ok = True
    for mu in (0.2, 0.4):
        ring = RingSystem(n=6, mu=mu)
        pts = enumerate_bifurcations(ring)
        pairs = {}
        for p in pts:
            pairs.setdefault(p.k, {})[p.root] = p
        two_sided = {k: v for k, v in pairs.items() if len(v) == 2}
        ok = ok and len(two_sided) > 0
        for k, v in two_sided.items():
            ok = ok and v["minus"].eta == -1 and v["plus"].eta == 1
    ring3 = RingSystem(n=3, mu=1.0, potential=SAT)
    ok = ok and sigma(ring3) == -1
    pts3 = {p.root: p for p in enumerate_bifurcations(ring3) if p.k == 1}
    ok = ok and pts3["plus"].eta == 1 and pts3["minus"].eta == -1
    report(4, "Morse/eta table", ok,
           "eta(nu-)=-1, eta(nu+)=+1 for n=6 cubic; eta(nu+-)=-+sigma for "
           "n=3 saturable", time.time() - t0, 1.0)


def test_criterion_5_stability_cross_validation():
    t0 = time.time()
    rng = np.random.default_rng(20260810)
    agreements = 0
    for _ in range(40):
        n = int(rng.integers(3, 13))
        pot = SAT if rng.integers(2) else CUBIC
        mu = float(rng.uniform(1e-3, 2.0))
        ring = RingSystem(n=n, mu=mu, potential=pot)
        closed = linear_stability(ring).stable
        oracle = np.abs(full_spectrum_oracle(ring).real).max() <= 1e-8
        agreements += closed == oracle
    report(5, "stability cross-validation", agreements == 40,
           f"{agreements}/40 samples agree", time.time() - t0, 10.0)


def _verify_branch(ring, k, root, expected_nu):
    pts = enumerate_bifurcations(ring)
    bif = next(p for p in pts if p.k == k and p.root == root)
    branch = continue_branch(ring, bif, steps=22, ds=0.03)
    ok = len(branch.points) >= 20
    worst_res = max(bp.orbit.residual_norm for bp in branch.points)
    worst_sym = max(max(symmetry_residual(bp.orbit, k)) for bp in branch.points)
    extrap = extrapolate_nu_to_zero(branch)
    ok = ok and worst_res <= 1e-10 and worst_sym <= 1e-8
    ok = ok and abs(extrap - expected_nu) <= 1e-4
    return ok, worst_res, worst_sym, abs(extrap - expected_nu)


def test_criterion_6_branch_verification():
    t0 = time.time()
    ring6 = RingSystem(n=6, mu=0.5)
    ok1, r1, s1, e1 = _verify_branch(ring6, 3, "plus", np.sqrt(3.0))
    ring3 = RingSystem(n=3, mu=1.0, potential=SAT)
    ok2, r2, s2, e2 = _verify_branch(ring3, 1, "plus", 1.5 + np.sqrt(1.5))
    ok3, r3, s3, e3 = _verify_branch(ring3, 1, "minus", 1.5 - np.sqrt(1.5))
    report(6, "branch verification", ok1 and ok2 and ok3,
           f"residual <= {max(r1, r2, r3):.2e} vs 1e-10, symmetry <= "
           f"{max(s1, s2, s3):.2e} vs 1e-8, extrapolation error <= "
           f"{max(e1, e2, e3):.2e} vs 1e-4", time.time() - t0, 60.0)


def test_criterion_7_variational_consistency():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst_fd = 0.0
    for i in range(20):
        n = int(rng.integers(3, 9))
        pot = SAT if i % 2 else CUBIC
        ring = RingSystem(n=n, mu=float(rng.uniform(0.3, 1.5)), potential=pot)
        x = rng.normal(size=2 * n)
        g = gradient_V(ring, x)
        scale = max(1.0, np.abs(g).max())
        step = 1e-5
        for idx in range(2 * n):
            e = np.zeros(2 * n)
            e[idx] = step
            fd = (potential_V(ring, x + e) - potential_V(ring, x - e)) / (2 * step)
            worst_fd = max(worst_fd, abs(g[idx] - fd) / scale)
        H = hessian_V(ring, x)
        hscale = max(1.0, np.abs(H).max())
        for idx in range(2 * n):
            e = np.zeros(2 * n)
            e[idx] = step
            fd = (gradient_V(ring, x + e) - gradient_V(ring, x - e)) / (2 * step)
            worst_fd = max(worst_fd, np.abs(H[:, idx] - fd).max() / hscale)
    worst_orth = 0.0
    for i in range(20):
        n = int(rng.integers(3, 9))
        pot = SAT if i % 2 else CUBIC
        ring = RingSystem(n=n, mu=float(rng.uniform(0.3, 1.5)), potential=pot)
        p = int(rng.integers(2, 6))
        coeffs = 0.3 * (rng.normal(size=(2 * p + 1, 2 * n))
                        + 1j * rng.normal(size=(2 * p + 1, 2 * n)))
        for l in range(1, p + 1):
            coeffs[p - l] = np.conj(coeffs[p + l])
        coeffs[p] = coeffs[p].real
        orbit = FourierOrbit(nu=float(rng.uniform(0.3, 2.0)), coeffs=coeffs)
        c1, c2 = orthogonality_check(ring, orbit)
        worst_orth = max(worst_orth, abs(c1), abs(c2))
    report(7, "variational consistency",
           worst_fd <= 1e-6 and worst_orth <= 1e-10,
           f"FD mismatch {worst_fd:.2e} vs 1e-6, orthogonality "
           f"{worst_orth:.2e} vs 1e-10", time.time() - t0, 5.0)


def test_criterion_8_conservation():
    t0 = time.time()
    rng = np.random.default_rng(8)
    worst_power = 0.0
    worst_V = 0.0
    for pot in (CUBIC, SAT):
        # linearly stable amplitude: the perturbed state stays in the
        # oscillation regime over the whole horizon
        ring = RingSystem(n=6, mu=0.4, potential=pot)
        a, _ = standing_wave(ring)
        x0 = a + 0.05 * rng.normal(size=12)
        _, X = integrate(ring, x0, T=100.0, dt=0.01)
        power = (X ** 2).sum(axis=1)
        worst_power = max(worst_power, np.abs(power - power[0]).max())
        V = np.array([potential_V(ring, x) for x in X[::20]])
        worst_V = max(worst_V, np.abs(V - V[0]).max())
    report(8, "conservation", worst_power <= 1e-8 and worst_V <= 1e-6,
           f"power drift {worst_power:.2e} vs 1e-8, V drift {worst_V:.2e} "
           f"vs 1e-6", time.time() - t0, 30.0)


def test_criterion_8_integrate_large_ring_within_budget():
    """100 implicit midpoint steps at n = 1024, one band solve per Newton
    update, within 1 s and with the power conserved to 1e-10."""
    t0 = time.time()
    rng = np.random.default_rng(31)
    ring = RingSystem(n=1024, mu=0.3)
    a, _ = standing_wave(ring)
    x0 = a + 0.05 * rng.normal(size=2048)
    _, X = integrate(ring, x0, T=1.0, dt=0.01)
    power = (X ** 2).sum(axis=1)
    drift = np.abs(power - power[0]).max()
    report(8, "conservation at n = 1024", X.shape == (101, 2048) and drift <= 1e-10,
           f"power drift {drift:.2e} vs 1e-10", time.time() - t0, 1.0)


def test_criterion_8_integrate_dense_case_within_budget():
    """The dense benchmark's integrate, 1000 implicit midpoint steps at
    n = 6 (saturable, mu = 0.4, the rotating wave perturbed by 0.05,
    dt = 0.01), within 0.5 s and with the power conserved to 1e-10."""
    t0 = time.time()
    rng = np.random.default_rng(33)
    ring = RingSystem(n=6, mu=0.4, potential=SAT)
    a, _ = standing_wave(ring)
    x0 = a + 0.05 * rng.normal(size=12)
    _, X = integrate(ring, x0, T=10.0, dt=0.01)
    power = (X ** 2).sum(axis=1)
    drift = np.abs(power - power[0]).max()
    report(8, "1000 steps at n = 6", X.shape == (1001, 12) and drift <= 1e-10,
           f"power drift {drift:.2e} vs 1e-10", time.time() - t0, 0.5)
