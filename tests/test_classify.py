import dataclasses
import decimal
import math

import numpy as np
import pytest
import references

from dnlsring.blocks import (coefficients, critical_frequencies, det_trace, eta,
                             linear_stability, mu_h_prime)
from dnlsring.classify import (ADMISSIBILITY_NOTE, BifurcationPoint, DegenerateAmplitude,
                               _CONDITIONS, _classify, _degenerate_table, enumerate_bifurcations,
                               saturable_regimes, schrodinger_regimes, stability_interval)
from dnlsring.model import (RingSystem, cubic_potential, custom_potential,
                            saturable_potential)
from dnlsring.symmetry import IsotropyLabel

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
    assert [e.mirror_of for e in rep.entries] == [None, 1]
    assert rep.stability == ((0.0, math.inf),)


def test_schrodinger_regimes_n4_empty():
    assert schrodinger_regimes(4).entries == ()


def test_saturable_regimes_n4_empty():
    # as for the cubic table: no Morse-index jump, stable at every amplitude
    rep = saturable_regimes(4)
    assert rep.entries == () and rep.excluded == ()
    assert rep.stability == ((0.0, math.inf),)
    assert rep.notes == schrodinger_regimes(4).notes


@pytest.mark.parametrize("table", [schrodinger_regimes, saturable_regimes,
                                   lambda n: stability_interval(n, CUBIC)],
                         ids=["schrodinger", "saturable", "stability-interval"])
def test_regime_tables_need_three_sites(table):
    for n in (0, 1, 2):
        with pytest.raises(ValueError, match="n must be >= 3"):
            table(n)


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


@pytest.mark.parametrize("table, reference",
                         [(schrodinger_regimes, references.schrodinger_regimes),
                          (saturable_regimes, references.saturable_regimes)],
                         ids=["schrodinger", "saturable"])
def test_regime_tables_match_hand_written_reference(table, reference):
    """Every field of every report for n = 3..200 is the hand-written
    table's, but where a cubic mirror mode takes its partner's more accurate
    endpoints (within 1e-13 relative) and the n = 3 mirror, which the cubic
    table now names as the saturable one does."""
    for n in range(3, 201):
        got, want = table(n), reference(n)
        assert dataclasses.replace(got, entries=()) == dataclasses.replace(want, entries=())
        assert len(got.entries) == len(want.entries), n
        for e, w in zip(got.entries, want.entries):
            if table is schrodinger_regimes and n == 3 and e.k == 2:
                w = dataclasses.replace(w, mirror_of=1)
            if table is schrodinger_regimes and w.mirror_of is not None:
                np.testing.assert_allclose(e.mu_interval, w.mu_interval, rtol=1e-13, atol=0)
                w = dataclasses.replace(w, mu_interval=e.mu_interval)
            assert e == w, n


@pytest.mark.parametrize("table", [schrodinger_regimes, saturable_regimes],
                         ids=["schrodinger", "saturable"])
def test_regime_entries_of_a_mode_alternate(table):
    """No two consecutive entries of a mode share a condition, so the table
    needs no join of neighbouring pieces: delta_k <= alpha_k/2 for n >= 5
    orders the cuts, and n = 3 has one piece per mode."""
    for n in range(3, 401):
        entries = table(n).entries
        for e, f in zip(entries, entries[1:]):
            assert e.k != f.k or e.condition != f.condition, (n, e, f)


@pytest.mark.parametrize("table", [schrodinger_regimes, saturable_regimes],
                         ids=["schrodinger", "saturable"])
def test_regime_mirror_entries_equal_partner(table):
    """A mirror mode n - k has exactly the conditions and intervals of mode
    k, bit for bit, and is two-sided nowhere."""
    for n in (3, *range(5, 65), 100, 101, 256):
        entries = table(n).entries
        for e in entries:
            if e.mirror_of is None:
                continue
            assert e.mirror_of == n - e.k and not e.two_sided
        by_k = {}
        for e in entries:
            by_k.setdefault(e.k, []).append((e.condition, e.mu_interval))
        for k in range(n // 2 + 1, n):
            assert by_k.get(k) == by_k.get(n - k), (n, k)


@pytest.mark.parametrize("table, potential", [(schrodinger_regimes, CUBIC),
                                              (saturable_regimes, SAT)],
                         ids=["schrodinger", "saturable"])
def test_excluded_mirror_amplitudes_are_the_partners(table, potential):
    """A mirror mode n - k is excluded at its partner's degenerate amplitudes,
    bit for bit; for the cubic potential each is also an endpoint of the
    mirror's own table entries."""
    for n in (3, *range(5, 201)):
        report = table(n)
        by_k = {}
        for k, mu_k in report.excluded:
            by_k.setdefault(k, []).append(mu_k)
        for k in range(n // 2 + 1, n):
            assert by_k.get(k) == by_k.get(n - k), (n, k)
        if potential is CUBIC:
            ends = {(e.k, mu) for e in report.entries for mu in e.mu_interval}
            assert all((k, mu_k) in ends for k, mu_k in report.excluded), n


def test_saturable_small_root_to_rounding():
    """mu_- of mode 1, the small root of mu^2 h'(mu^2) = delta_1, is within
    1e-15 relative of a 50-digit evaluation at the same delta_1 for
    n = 16..400 (the quadratic formula for it cancels as delta_1 -> 0-), and
    so is the excluded amplitude of mode 1 there."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        for n in range(16, 401):
            level = decimal.Decimal(coefficients(n, 1).delta)
            s = (-(2 * level + 1) + (4 * level + 1).sqrt()) / (2 * level)
            report = saturable_regimes(n)
            (mu_lo, _), = [e.mu_interval for e in report.entries
                           if e.k == 1 and e.condition == "a"]
            assert abs(decimal.Decimal(mu_lo) / s.sqrt() - 1) <= decimal.Decimal("1e-15"), n
            assert (1, mu_lo) in report.excluded, n


@pytest.mark.parametrize("table, potential", [(schrodinger_regimes, CUBIC),
                                              (saturable_regimes, SAT)],
                         ids=["schrodinger", "saturable"])
def test_regime_of_a_mirror_mode_is_its_partners(table, potential):
    """Within 1e-15 relative of every finite table endpoint the amplitude
    pass tags a mirror mode n - k as mode k, since both use the partner's
    coefficients, from which the tables take their cuts.  The cuts are
    exact to that precision, so each tag is also the condition of the table
    entry that holds the amplitude."""
    for n in (3, *range(5, 201)):
        report = table(n)
        ends = {mu for e in report.entries for mu in e.mu_interval if 0.0 < mu < math.inf}
        mus = np.array([mu * (1.0 + side * 1e-15) for mu in ends for side in (-1, 1)])
        regime = _classify(n, potential, mus.tolist()).regime
        np.testing.assert_array_equal(regime[:, n // 2:], regime[:, (n - 1) // 2 - 1::-1])
        for e in report.entries:
            inside = (e.mu_interval[0] < mus) & (mus < e.mu_interval[1])
            tags = {_CONDITIONS[tag] for tag in regime[inside, e.k - 1].tolist()}
            assert tags <= {e.condition}, (n, e.k)


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
    from dnlsring.blocks import full_spectrum_oracle
    lo, hi = stability_interval(6, CUBIC)[0]
    inside, outside = (np.abs(full_spectrum_oracle(RingSystem(n=6, mu=mu)).real).max()
                       for mu in (hi - 1e-3, hi + 1e-3))
    assert inside <= 1e-8
    assert outside > 1e-8


# --- the array pass against the per-mode loop it replaced ---------------------

def reference_regime_tag(n, k, x):
    """Active condition for mode k at x = mu^2 h'(mu^2), or None."""
    c = coefficients(n, k)
    if c.delta is None:
        return None
    if n == 3:
        if x > 0.0:
            return "n3-a"
        if c.alpha / 2.0 < x < 0.0:
            return "n3-b"
        return None
    if x < c.delta:
        return "generic-a"
    if c.delta < x < c.alpha / 2.0:
        return "generic-b"
    return None


def reference_enumerate(ring):
    """Reference: the per-mode loop of critical_frequencies, eta and the
    regime tag that enumerate_bifurcations ran before the array pass."""
    n = ring.n
    for k, mu_k in _degenerate_table(n, ring.potential):
        if abs(ring.mu - mu_k) <= 1e-10:
            raise DegenerateAmplitude(ring.mu, k)
    points = []
    x = mu_h_prime(ring)
    for k in range(1, n):
        cf = critical_frequencies(ring, k)
        if cf.degenerate:
            continue
        tag = reference_regime_tag(n, k, x)
        for nu, root in zip(cf.nus, ("minus", "plus")):
            if nu <= 0.0:
                continue
            jump = eta(ring, k, nu)
            if jump == 0:
                continue
            note = ADMISSIBILITY_NOTE if tag in ("generic-a", "n3-a") else ""
            points.append(BifurcationPoint(
                k=k, nu=float(nu), period=float(2.0 * np.pi / nu), eta=jump,
                isotropy=IsotropyLabel(n=n, k=k), regime=tag or "",
                admissibility_note=note, root=root))
    points.sort(key=lambda pt: (pt.k, pt.nu))
    return points


def _fields(pt):
    return (pt.k, pt.nu, pt.period, pt.eta, pt.root, pt.regime, pt.admissibility_note)


def _grid_results(n, potential, mus):
    """Per mu of one _classify pass: (stable, degenerate k or 0, the fields
    of the points of a mu that is not degenerate)."""
    c = _classify(n, potential, mus)
    points = [[] for _ in mus]
    for i, k, root, nu, period, jump, regime, note in zip(*c.points(True)):
        points[i].append((k, nu, period, jump, root, regime, note))
    return list(zip(c.stable.tolist(), c.degenerate_k.tolist(), points))


def _reference_results(n, potential, mus):
    out = []
    for mu in mus:
        ring = RingSystem(n=n, mu=mu, potential=potential)
        try:
            fields = [_fields(pt) for pt in reference_enumerate(ring)]
            k = 0
        except DegenerateAmplitude as exc:
            fields, k = [], exc.k
        out.append((linear_stability(ring).stable, k, fields))
    return out


def test_array_pass_matches_per_mode_loop():
    """One _classify pass over a seeded grid per (n, potential) gives the
    per-mode loop's points (every field bit for bit), stable verdicts and
    degenerate-amplitude exclusions, for n = 3..40; so does
    enumerate_bifurcations at each mu."""
    b = 0.1
    potentials = {
        "cubic": CUBIC, "saturable": SAT,
        "quintic": custom_potential(lambda s: s + b * s * s, lambda s: 1.0 + 2.0 * b * s),
        "negative": custom_potential(lambda s: -s - b * s * s,
                                     lambda s: -1.0 - 2.0 * b * np.asarray(s)),
        "scalar-h'": custom_potential(lambda s: s, lambda s: 1.0),
    }
    rng = np.random.default_rng(8)
    # amplitudes where an array call of the saturable h' rounds differently
    # from the scalar call (numpy squares an array, pow()s a scalar)
    trial = rng.uniform(0.02, 2.5, size=20000)
    s = np.array([mu ** 2 for mu in trial.tolist()])
    scalar = np.array([float(SAT.h_prime(si)) for si in s.tolist()])
    traps = trial[SAT.h_prime(s) != scalar].tolist()
    seen = {"points": 0, "excluded": 0, "first-of-two": 0}
    for n in range(3, 41):
        for name, pot in potentials.items():
            mus = [float(m) for m in rng.uniform(0.02, 2.5, size=6)]
            mus.append(0.83513513513513515)   # mu ** 2 and the array mus ** 2 differ here
            mus += traps[n % len(traps)::len(traps) // 4 + 1] if traps else []
            table = _degenerate_table(n, pot)
            if table:   # a degenerate amplitude, and one just inside the tolerance
                mu_k = table[int(rng.integers(len(table)))][1]
                mus += [mu_k, mu_k + 5e-11]
            got = _grid_results(n, pot, mus)
            want = _reference_results(n, pot, mus)
            assert got == want, (n, name)
            for mu, (_, k, fields) in zip(mus, want):
                ring = RingSystem(n=n, mu=mu, potential=pot)
                if k:
                    with pytest.raises(DegenerateAmplitude) as err:
                        enumerate_bifurcations(ring)
                    assert err.value.k == k and err.value.mu == mu
                    seen["excluded"] += 1
                    seen["first-of-two"] += sum(abs(mu - m) <= 1e-10 for _, m in table) > 1
                else:
                    assert enumerate_bifurcations(ring) == reference_enumerate(ring)
                    seen["points"] += len(fields)
    assert seen["points"] > 10000 and seen["excluded"] > 100 and seen["first-of-two"] > 50
