import math

import numpy as np
import pytest

from dnlsring.blocks import coefficients, det_trace, eta, mu_h_prime
from dnlsring.classify import (ADMISSIBILITY_NOTE, DegenerateAmplitude,
                               enumerate_bifurcations, saturable_regimes,
                               schrodinger_regimes, stability_interval)
from dnlsring.model import (RingSystem, cubic_potential, custom_potential,
                            saturable_potential)

CUBIC = cubic_potential()
SAT = saturable_potential()


def test_enumerate_n6_cubic_half():
    # at mu = 0.5 mode 1 sits exactly on its radicand-zero boundary and is
    # excluded as degenerate; modes 2 (pair) and 3 (single nu_+) remain
    ring = RingSystem(n=6, mu=0.5)
    pts = enumerate_bifurcations(ring)
    assert [(p.k, p.root) for p in pts] == [(2, "minus"), (2, "plus"), (3, "plus")]
    by = {(p.k, p.root): p for p in pts}
    np.testing.assert_allclose(by[(3, "plus")].nu, np.sqrt(3.0), atol=1e-12)
    np.testing.assert_allclose(by[(2, "minus")].nu, 1.5 - np.sqrt(1.5), atol=1e-12)
    np.testing.assert_allclose(by[(2, "plus")].nu, 1.5 + np.sqrt(1.5), atol=1e-12)
    assert by[(3, "plus")].eta == 1
    assert by[(2, "minus")].eta == -1
    assert by[(3, "plus")].regime == "generic-a"
    assert by[(3, "plus")].admissibility_note == ADMISSIBILITY_NOTE
    assert by[(2, "plus")].regime == "generic-b"
    assert by[(2, "plus")].admissibility_note == ""
    assert by[(3, "plus")].isotropy.label == "Z~_6(3)"


def test_enumerate_point_invariants():
    for ring in (RingSystem(n=6, mu=0.4), RingSystem(n=9, mu=0.7),
                 RingSystem(n=8, mu=1.5, potential=SAT),
                 RingSystem(n=3, mu=1.0, potential=SAT)):
        for pt in enumerate_bifurcations(ring):
            assert pt.nu > 0
            assert pt.eta != 0
            assert abs(pt.period - 2 * np.pi / pt.nu) <= 1e-12
            d, _ = det_trace(ring, pt.k, pt.nu)
            assert abs(d) <= 1e-10
            assert eta(ring, pt.k, pt.nu) == pt.eta


def test_enumerate_n4_empty():
    for pot in (CUBIC, SAT):
        assert enumerate_bifurcations(RingSystem(n=4, mu=0.8, potential=pot)) == []


def test_enumerate_n3_saturable():
    ring = RingSystem(n=3, mu=1.0, potential=SAT)
    pts = enumerate_bifurcations(ring)
    assert [(p.k, p.root) for p in pts] == [(1, "minus"), (1, "plus")]
    np.testing.assert_allclose([p.nu for p in pts],
                               [1.5 - np.sqrt(1.5), 1.5 + np.sqrt(1.5)], atol=1e-12)
    assert all(p.isotropy.label == "Z~_3(1)" for p in pts)
    assert all(p.regime == "n3-b" for p in pts)
    # eta(nu_+-) = -+ sigma with sigma = -1
    assert pts[0].eta == -1 and pts[1].eta == 1


def test_enumerate_n3_cubic_case_a():
    ring = RingSystem(n=3, mu=0.8)
    pts = enumerate_bifurcations(ring)
    assert [(p.k, p.root) for p in pts] == [(1, "plus"), (2, "plus")]
    assert all(p.regime == "n3-a" for p in pts)
    assert all(p.admissibility_note == ADMISSIBILITY_NOTE for p in pts)
    # sigma = +1, eta(nu_+) = -sigma for n = 3
    assert all(p.eta == -1 for p in pts)


def test_enumerate_degenerate_amplitude_raises():
    with pytest.raises(DegenerateAmplitude) as err:
        enumerate_bifurcations(RingSystem(n=6, mu=1.0))
    assert err.value.k == 3
    with pytest.raises(DegenerateAmplitude):
        enumerate_bifurcations(RingSystem(n=16, mu=1.2881435879379760,
                                          potential=SAT))


def test_enumerate_mirror_pairing():
    # single-branch points at k and n-k share the radicand; their nu_+ are
    # gamma_k + r and -gamma_k + r
    ring = RingSystem(n=9, mu=0.3)
    pts = enumerate_bifurcations(ring)
    singles = {p.k: p for p in pts if p.regime == "generic-a"}
    for k, p in singles.items():
        mirror = singles.get(ring.n - k)
        assert mirror is not None
        g = coefficients(ring.n, k).gamma
        assert abs((p.nu - g) - (mirror.nu + g)) < 1e-10


def test_regime_boundary_point_counts():
    # crossing sqrt(alpha_1/2) = 0.5 drops the mode-1 pair; crossing
    # sqrt(delta_3) = 1 removes the mode-3 single point
    counts = {mu: len(enumerate_bifurcations(RingSystem(n=6, mu=mu)))
              for mu in (0.499, 0.501, 0.865, 0.867, 0.999, 1.001)}
    assert counts[0.499] == 5   # k=1 pair, k=2 pair, k=3 single
    assert counts[0.501] == 3   # k=2 pair, k=3 single
    assert counts[0.865] == 3
    assert counts[0.867] == 1   # k=3 single only (sqrt(alpha_2/2) ~ 0.866)
    assert counts[0.999] == 1
    assert counts[1.001] == 0


# --- regime reports ----------------------------------------------------------

def entry_for(report, k, condition):
    matches = [e for e in report.entries if e.k == k and e.condition == condition]
    return matches[0] if matches else None


def test_schrodinger_regimes_n6():
    rep = schrodinger_regimes(6)
    e3a = entry_for(rep, 3, "a")
    np.testing.assert_allclose(e3a.mu_interval, (0.0, 1.0), atol=1e-12)
    assert entry_for(rep, 3, "b") is None        # (sqrt(delta_3), sqrt(alpha_3/2)) empty
    e1b = entry_for(rep, 1, "b")
    np.testing.assert_allclose(e1b.mu_interval, (0.0, 0.5), atol=1e-12)
    assert e1b.two_sided
    e5b = entry_for(rep, 5, "b")
    assert not e5b.two_sided and e5b.mirror_of == 1
    np.testing.assert_allclose(rep.stability[0], (0.0, 0.5), atol=1e-12)
    assert rep.excluded == ((3, 1.0),)


def test_schrodinger_regimes_n3():
    rep = schrodinger_regimes(3)
    assert [e.k for e in rep.entries] == [1, 2]
    for e in rep.entries:
        assert e.condition == "a"
        assert e.mu_interval == (0.0, math.inf)
    assert rep.stability == ((0.0, math.inf),)


def test_schrodinger_regimes_n4_empty():
    assert schrodinger_regimes(4).entries == ()


def test_saturable_regimes_n16():
    rep = saturable_regimes(16)
    e1a = entry_for(rep, 1, "a")
    np.testing.assert_allclose(e1a.mu_interval,
                               (0.7763109713574492, 1.288143587937976), atol=1e-9)
    bs = [e for e in rep.entries if e.k == 1 and e.condition == "b"]
    assert len(bs) == 2
    assert bs[0].mu_interval[0] == 0.0 and math.isinf(bs[1].mu_interval[1])
    for k in range(2, 15):
        e = entry_for(rep, k, "a")
        assert e.mu_interval == (0.0, math.inf)
    assert rep.stability == ((0.0, math.inf),)


def test_saturable_regimes_n15_convention():
    # delta_1 < -1/4: with mu_- = mu_+ = 0 the two-sided condition (b)
    # covers every amplitude of mode 1
    rep = saturable_regimes(15)
    e1 = entry_for(rep, 1, "b")
    assert e1.mu_interval == (0.0, math.inf)
    assert e1.two_sided
    assert entry_for(rep, 1, "a") is None
    assert any("mu_- = mu_+" in note or "convention" in note for note in rep.notes)


def test_saturable_regimes_n3():
    rep = saturable_regimes(3)
    e1 = entry_for(rep, 1, "b")
    assert e1.mu_interval == (0.0, math.inf) and e1.two_sided
    e2 = entry_for(rep, 2, "b")
    assert e2.mirror_of == 1 and not e2.two_sided


def test_regime_report_matches_enumeration():
    # inside every declared interval the enumeration produces points of the
    # declared kind for that mode
    for build, rep in [(lambda mu: RingSystem(n=6, mu=mu), schrodinger_regimes(6)),
                       (lambda mu: RingSystem(n=16, mu=mu, potential=SAT),
                        saturable_regimes(16))]:
        for e in rep.entries:
            lo, hi = e.mu_interval
            mu = 0.5 * (lo + min(hi, lo + 2.0)) if math.isinf(hi) else 0.5 * (lo + hi)
            if any(abs(mu - m) < 1e-6 for _, m in rep.excluded):
                mu += 1e-3
            pts = [p for p in enumerate_bifurcations(build(mu)) if p.k == e.k]
            if e.condition == "a":
                assert [p.root for p in pts] == ["plus"]
            elif e.two_sided:
                assert sorted(p.root for p in pts) == ["minus", "plus"]
            else:
                assert pts == []


def test_stability_interval_endpoints():
    assert stability_interval(6, CUBIC) == ((0.0, 0.5),)
    assert stability_interval(7, SAT) == ((0.0, math.inf),)
    assert stability_interval(3, CUBIC) == ((0.0, math.inf),)
    assert stability_interval(3, SAT) == ((0.0, math.inf),)
    assert stability_interval(4, CUBIC) == ((0.0, math.inf),)


def test_stability_interval_custom_scan():
    pot = custom_potential(h=lambda s: np.asarray(s, float),
                           h_prime=lambda s: np.ones_like(np.asarray(s, float)),
                           G=lambda s: np.asarray(s, float) ** 2 / 2)
    iv = stability_interval(6, pot)
    assert len(iv) == 1
    assert iv[0][0] == 0.0 and abs(iv[0][1] - 0.5) < 1e-10
    # h = s + b s^2: stable iff s + 2 b s^2 < alpha_1 / 2 with s = mu^2, so the
    # endpoint is sqrt(s*), s* = (-1 + sqrt(1 + 4 b alpha_1)) / (4 b)
    b = 0.1
    quintic = custom_potential(h=lambda s: s + b * s * s, h_prime=lambda s: 1.0 + 2.0 * b * s,
                               G=lambda s: s * s / 2.0 + b * s ** 3 / 3.0)
    for n in (5, 8, 12):
        s_star = (-1.0 + math.sqrt(1.0 + 4.0 * b * coefficients(n, 1).alpha)) / (4.0 * b)
        iv = stability_interval(n, quintic)
        assert len(iv) == 1
        assert iv[0][0] == 0.0 and abs(iv[0][1] - math.sqrt(s_star)) < 1e-10


def test_stability_interval_scalar_h_prime():
    pot = custom_potential(h=lambda s: s, h_prime=lambda s: 1.0, G=lambda s: s * s / 2)
    (iv,) = stability_interval(6, pot)
    assert iv[0] == 0.0 and abs(iv[1] - 0.5) < 1e-10


def test_stability_interval_nan_past_a_point():
    # h = sqrt(1 - s) is nan for s > 1 (and h' is -inf at s = 1): stable
    # below, where mu^2 h' < 0 < alpha_1/2, and unstable where not finite
    pot = custom_potential(h=lambda s: np.sqrt(1 - s), h_prime=lambda s: -0.5 / np.sqrt(1 - s))
    (iv,) = stability_interval(5, pot)
    cell = math.sqrt(1.0 + 100.0 / 4095) - 1.0   # widest grid cell next to mu = 1
    assert iv[0] == 0.0 and 1.0 <= iv[1] <= 1.0 + cell


def test_stability_interval_verified_by_oracle():
    from dnlsring.blocks import full_spectrum_oracle, spectrum_max_real
    lo, hi = stability_interval(6, CUBIC)[0]
    inside = spectrum_max_real(full_spectrum_oracle(RingSystem(n=6, mu=hi - 1e-3)))
    outside = spectrum_max_real(full_spectrum_oracle(RingSystem(n=6, mu=hi + 1e-3)))
    assert inside <= 1e-8
    assert outside > 1e-8
