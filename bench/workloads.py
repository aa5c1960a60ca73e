"""Workload inputs, the operations of one pass, and the output checks.

Every workload is a fixed list of operations: CLI invocations through
``dnlsring.cli.main`` (stdout captured) and direct library calls.  The seed
only jitters amplitudes and perturbations by a few per cent, so each seed
does the same amount of work while no run repeats another's inputs.

Checks compare against ``oracles`` (closed forms and dense references
written apart from dnlsring) or against properties the method must have;
none compares against stored output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from dnlsring import blocks, classify, cli, model, orbits, symmetry

import oracles

# the grid of classify._scan_intervals: 2001 samples of mu on [1e-6, 10]
SCAN_STEP = (10.0 - 1e-6) / 2000


class OpFailed(RuntimeError):
    """A CLI invocation returned a nonzero exit code."""


def _cli(argv):
    def op():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise OpFailed(f"exit code {code} from dnlsring {' '.join(argv)}")
        return buf.getvalue()
    return op


def _mu(rng, centre, rel=0.02):
    """centre jittered by up to +-rel, rounded so it prints short."""
    return round(centre * (1.0 + rel * rng.uniform(-1.0, 1.0)), 6)


def _range(rng, lo, hi, count):
    return f"{_mu(rng, lo)}:{_mu(rng, hi)}:{count}"


# ---------------------------------------------------------------------------
# potentials as the benchmark knows them: (h, h') as plain Python callables


def _h_cubic(s):
    return s


def _hp_cubic(s):
    return 1.0


def _h_sat(s):
    return 1.0 / (1.0 + s)


def _hp_sat(s):
    return -1.0 / (1.0 + s) ** 2


def _law(potential, b=None):
    if potential == "cubic":
        return _h_cubic, _hp_cubic
    if potential in ("saturable", "custom-saturable"):
        return _h_sat, _hp_sat
    return (lambda s: s + b * s * s), (lambda s: 1.0 + 2.0 * b * s)


def _x_sigma(hp, mu):
    d = hp(mu * mu)
    return mu * mu * d, (1 if d > 0 else -1)


SAT_EXPR = ["--h-expr", "1/(1+s)", "--h-prime-expr=-1/(1+s)**2", "--g-expr", "log1p(s)"]


def _quintic_expr(b):
    return ["--h-expr", f"s+{b!r}*s**2", f"--h-prime-expr=1+2*{b!r}*s",
            "--g-expr", f"s**2/2+{b!r}*s**3/3"]


# ---------------------------------------------------------------------------
# the cross-layer touch shared by every workload


def _presolved(ring, start, **kwargs):
    """``newton_orbit`` from a converged orbit.  The first call, made in the
    untimed warm-up pass, solves from ``start``; every call then solves again
    from that solution: one Jacobian assembly, its SVD and the convergence
    test, the work of one Newton iteration."""
    solved = []

    def op():
        if not solved:
            solved.append(orbits.newton_orbit(ring, start, **kwargs))
        return orbits.newton_orbit(ring, solved[0], **kwargs)
    return op


def _tour_inputs(rng):
    mu3 = _mu(rng, 1.0)
    ring3 = model.RingSystem(n=3, mu=mu3, potential=model.saturable_potential())
    ring5 = model.RingSystem(n=5, mu=_mu(rng, 0.4))
    cubic_as_custom = model.custom_potential(lambda s: s, lambda s: 1.0,
                                             lambda s: s * s / 2.0)
    x0 = oracles.rotating_wave(3) + 0.01 * rng.normal(size=6)
    nu = _nu_closed_form(3, mu3, _hp_sat, 1, "plus")
    x3, _ = _x_sigma(_hp_sat, mu3)
    small = orbits.FourierOrbit(nu=nu, coeffs=oracles.kernel_orbit(3, 1, x3, nu, 1e-3, 1))
    certify = _presolved(ring3, small, fix_nu=False, amplitude=1e-3, adapt_p=False)

    def tour():
        """Millisecond-sized calls into every layer.  Each function that a
        per-layer metric names is called here directly, so that its span
        exists on every workload whatever the functions above it call."""
        bif = next(pt for pt in classify.enumerate_bifurcations(ring3)
                   if pt.k == 1 and pt.root == "plus")
        branch = orbits.continue_branch(ring3, bif, steps=1, ds=1e-4, p=4)
        end = branch.points[-1].orbit
        sym = symmetry.symmetry_residual(end, 1, num_samples=32)
        solved = certify()
        _, states = orbits.integrate(ring3, x0, T=0.03, dt=0.01)
        spectrum = blocks.full_spectrum_oracle(ring5)
        wave = model.standing_wave(ring5)[0]
        decomp = symmetry.block_extract(symmetry.assemble_P(5),
                                        model.hessian_V(ring5, wave))
        interval = classify.stability_interval(5, cubic_as_custom)
        verdict = blocks.linear_stability(ring5)
        regimes = (classify.saturable_regimes(5), classify.schrodinger_regimes(5))
        direct = (blocks.coefficients(5, 2), blocks.critical_frequencies(ring5, 2),
                  blocks.morse_index(ring3, 1, bif.nu + 0.1), blocks.eta(ring3, 1, bif.nu),
                  blocks.degenerate_amplitudes(5, 2, cubic_as_custom, samples=256),
                  orbits.linearized_residual(ring3, end, end.coeffs).sum(),
                  symmetry.t_k_matrix(5, 2).sum(), model.vector_field(ring5, wave).sum())
        return (branch.points[-1].nu, max(sym), solved.nu, states[-1].sum(),
                np.sort_complex(spectrum)[-1], decomp.off_block_residual, interval,
                verdict, regimes, direct)

    return tour


# ---------------------------------------------------------------------------
# checks shared by the workloads


class Checker:
    """Collects failed checks and the quality figures of one run."""

    def __init__(self):
        self.failures: list[str] = []
        self.quality = {"quality.verify_max_residual": 0.0,
                        "quality.verify_extrap_err": 0.0,
                        "quality.integrate_power_drift": 0.0,
                        "quality.custom_nu_err": 0.0}

    def expect(self, ok, message):
        if not ok:
            self.failures.append(message)

    def worst(self, key, value):
        self.quality[key] = max(self.quality[key], float(value))

    def close(self, got, want, tol, what):
        ok = got is not None and abs(got - want) <= tol * max(1.0, abs(want))
        self.expect(ok, f"{what}: got {got!r}, closed form {want!r}")


def _points_against_oracle(chk, n, mu, points, hp, label):
    """Reported points at one mu against the independent enumeration."""
    x, sigma = _x_sigma(hp, mu)
    want = {(q["k"], q["root"]): q for q in oracles.enumerate_points(n, x, sigma)}
    got = {(q["k"], q["root"]): q for q in points}
    chk.expect(set(got) == set(want),
               f"{label} mu={mu}: (k, root) set differs from the closed form")
    for key in set(got) & set(want):
        chk.close(got[key]["nu"], want[key]["nu"], 1e-12, f"{label} mu={mu} {key} nu")
        chk.close(got[key]["period"], want[key]["period"], 1e-12,
                  f"{label} mu={mu} {key} period")
        chk.expect(got[key]["eta"] == want[key]["eta"],
                   f"{label} mu={mu} {key}: eta {got[key]['eta']} != {want[key]['eta']}")
    return x


def _in_spectrum(chk, n, x, nus, label):
    ev = np.linalg.eigvals(oracles.linearization(n, x))
    for nu in nus:
        gap = float(np.min(np.abs(ev - 1j * nu)))
        chk.expect(gap <= 1e-7 * max(1.0, nu),
                   f"{label}: i*{nu} is {gap:.2e} from the dense spectrum")


def _grid(spec):
    a, b, count = spec.split(":")
    return np.linspace(float(a), float(b), int(count))


def _check_json_points(chk, n, spec, text, hp, label, spectrum_mus=()):
    """JSON of `bifurcations` or `sweep`: every mu of the grid, every point."""
    payload = json.loads(text)["payload"]
    grid = _grid(spec)
    chk.expect(not payload["excluded"], f"{label}: unexpected degenerate exclusions")
    if "samples" in payload:
        samples = payload["samples"]
        by_mu = {s["mu"]: s["points"] for s in samples}
        chk.expect(len(samples) == len(grid), f"{label}: one sample per mu")
        for s in samples:
            x, _ = _x_sigma(hp, s["mu"])
            chk.expect(s["stable"] == oracles.stable(n, x), f"{label} mu={s['mu']}: stable")
            chk.expect(s["count"] == len(s["points"]), f"{label} mu={s['mu']}: count")
    else:
        by_mu = {}
        for q in payload["points"]:
            by_mu.setdefault(q["mu"], []).append(q)
    chk.expect(set(by_mu) <= {float(m) for m in grid}, f"{label}: mu values off the grid")
    for mu in (float(m) for m in grid):
        pts = by_mu.get(mu, [])
        x = _points_against_oracle(chk, n, mu, pts, hp, label)
        if mu in spectrum_mus:
            _in_spectrum(chk, n, x, [q["nu"] for q in pts], f"{label} mu={mu}")
    return by_mu


def _check_csv_rows(chk, n, spec, text, hp, label):
    lines = text.strip().split("\n")
    chk.expect(lines[0].split(",") == cli.CSV_COLUMNS, f"{label}: CSV header")
    rows = [line.split(",") for line in lines[1:]]
    grid = [float(m) for m in _grid(spec)]
    chk.expect(len(rows) == len(grid) * (n - 1), f"{label}: one row per (mu, k)")
    for row in rows:
        k, mu = int(row[1]), float(row[2])
        x, sigma = _x_sigma(hp, mu)
        chk.close(float(row[3]), oracles.alpha(n, k), 1e-12, f"{label} alpha_{k}")
        chk.close(float(row[4]), oracles.gamma(n, k), 1e-12, f"{label} gamma_{k}")
        pair = oracles.critical_frequencies(n, k, x) or (None, None)
        for col, root, nu in ((6, "minus", pair[0]), (7, "plus", pair[1])):
            if nu is None or nu <= 0.0:
                chk.expect(row[col] == "", f"{label} mu={mu} k={k}: spurious {root} root")
                continue
            chk.close(float(row[col]) if row[col] else None, nu, 1e-12,
                      f"{label} mu={mu} k={k} nu_{root}")
            chk.expect(row[col + 2] == str(oracles.eta(n, k, x, sigma, root)),
                       f"{label} mu={mu} k={k} eta_{root}")
        chk.expect(row[12] == ("true" if oracles.stable(n, x) else "false"),
                   f"{label} mu={mu}: stable column")


def _check_stability(chk, n, text, hp, mu, label, dense=False):
    payload = json.loads(text)["payload"]
    x, _ = _x_sigma(hp, mu)
    want = oracles.stable(n, x)
    chk.expect(payload["stable"] == want, f"{label}: verdict {payload['stable']} != {want}")
    chk.expect(payload["oracle_agrees"] is True, f"{label}: library oracle disagrees")
    if dense:
        ev = np.linalg.eigvals(oracles.linearization(n, x))
        max_re = float(np.abs(ev.real).max())
        chk.expect((max_re <= 1e-6) == want,
                   f"{label}: dense max |Re| {max_re:.2e} contradicts verdict {want}")
        if not want:
            chk.close(payload["oracle_max_real_part"], max_re, 1e-6,
                      f"{label}: oracle max real part")


# ---------------------------------------------------------------------------
# workloads


def build_classify(rng):
    specs = [
        ("sweep", 32, "cubic", _range(rng, 0.02, 1.1, 1000), "json"),
        ("bifurcations", 32, "saturable", _range(rng, 0.1, 2.5, 100), "json"),
        ("bifurcations", 32, "cubic", _range(rng, 0.05, 0.9, 100), "csv"),
    ]
    ops = []
    spectrum_mus = {}
    for i, (cmd, n, pot, spec, fmt) in enumerate(specs):
        argv = [cmd, "--n", str(n), "--potential", pot, "--mu-range", spec,
                "--format", fmt]
        ops.append((f"{cmd}-{i}", _cli(argv)))
        grid = _grid(spec)
        spectrum_mus[i] = {float(m) for m in rng.choice(grid, size=3, replace=False)}

    def check(outputs, chk):
        for i, (cmd, n, pot, spec, fmt) in enumerate(specs):
            text = outputs[f"{cmd}-{i}"]
            hp = _law(pot)[1]
            if fmt == "csv":
                _check_csv_rows(chk, n, spec, text, hp, f"{cmd}-{i}")
            else:
                _check_json_points(chk, n, spec, text, hp, f"{cmd}-{i}",
                                   spectrum_mus[i])

    return ops, check


def build_custom(rng):
    b = round(0.1 * (1.0 + 0.2 * rng.uniform(-1.0, 1.0)), 6)
    quintic = model.custom_potential(*_law("quintic", b),
                                     lambda s: s * s / 2.0 + b * s ** 3 / 3.0)
    sat_model = model.custom_potential(_h_sat, _hp_sat, np.log1p)
    specs = [
        ("bifurcations", 32, "custom-saturable", _range(rng, 0.1, 2.0, 5)),
        ("sweep", 8, "custom-saturable", _range(rng, 0.25, 1.5, 2)),
        ("bifurcations", 8, "quintic", _range(rng, 0.2, 0.6, 2)),
    ]
    stabs = [(32, "custom-saturable", _mu(rng, 0.9)), (8, "quintic", _mu(rng, 0.6)),
             (8, "quintic", _mu(rng, 0.35))]
    interval_n = 8

    def expr(pot):
        return SAT_EXPR if pot == "custom-saturable" else _quintic_expr(b)

    ops = []
    for i, (cmd, n, pot, spec) in enumerate(specs):
        argv = [cmd, "--n", str(n), "--potential", "custom", *expr(pot),
                "--mu-range", spec]
        ops.append((f"{cmd}-{i}", _cli(argv)))
    for i, (n, pot, mu) in enumerate(stabs):
        argv = ["stability", "--n", str(n), "--potential", "custom", *expr(pot),
                "--mu", str(mu)]
        ops.append((f"stability-{i}", _cli(argv)))
    ops.append(("stability_interval",
                lambda: (classify.stability_interval(interval_n, quintic),
                         classify.stability_interval(interval_n, sat_model))))

    def check(outputs, chk):
        for i, (cmd, n, pot, spec) in enumerate(specs):
            label = f"{cmd}-{i}"
            hp = _law(pot, b)[1]
            got = _check_json_points(chk, n, spec, outputs[label], hp, label)
            if pot != "custom-saturable":
                continue
            closed = _cli([cmd, "--n", str(n), "--potential", "saturable",
                           "--mu-range", spec])()
            want = _check_json_points(chk, n, spec, closed, hp, f"{label}-closed-form")
            for mu in want:
                a = {(q["k"], q["root"], q["eta"]): q["nu"] for q in got.get(mu, [])}
                c = {(q["k"], q["root"], q["eta"]): q["nu"] for q in want[mu]}
                chk.expect(set(a) == set(c), f"{label} mu={mu}: custom != saturable points")
                for key in set(a) & set(c):
                    chk.worst("quality.custom_nu_err", abs(a[key] - c[key]))
        chk.expect(chk.quality["quality.custom_nu_err"] <= 1e-10,
                   "custom saturable nu differs from the closed form by more than 1e-10")
        for i, (n, pot, mu) in enumerate(stabs):
            _check_stability(chk, n, outputs[f"stability-{i}"], _law(pot, b)[1], mu,
                             f"stability-{i}")
        quintic_iv, sat_iv = outputs["stability_interval"]
        # stable iff mu^2 + 2 b mu^4 < alpha_1 / 2, an increasing function of mu
        half = oracles.alpha(interval_n, 1) / 2.0
        s_star = (-1.0 + math.sqrt(1.0 + 8.0 * b * half)) / (4.0 * b)
        chk.expect(len(quintic_iv) == 1 and quintic_iv[0][0] == 0.0,
                   f"quintic stability intervals {quintic_iv}")
        chk.close(quintic_iv[0][1], math.sqrt(s_star), SCAN_STEP,
                  "quintic stability endpoint (scan grid)")
        chk.expect(sat_iv == ((0.0, math.inf),), f"saturable stability intervals {sat_iv}")

    return ops, check


def _nu_closed_form(n, mu, hp, k, root):
    x, _ = _x_sigma(hp, mu)
    pair = oracles.critical_frequencies(n, k, x)
    return pair[0 if root == "minus" else 1]


def build_verify(rng):
    runs = [(6, "cubic", _mu(rng, 0.5), 3, "plus", 24),
            (3, "saturable", _mu(rng, 1.0), 1, "minus", 8),
            (96, "cubic", _mu(rng, 0.3), 48, "plus", 3)]
    ops = []
    for i, (n, pot, mu, k, root, steps) in enumerate(runs):
        argv = ["verify", "--n", str(n), "--potential", pot, "--mu", str(mu),
                "--k", str(k), "--branch", root, "--steps", str(steps)]
        ops.append((f"verify-{i}", _cli(argv)))
    # full-space newton_orbit: (n, k, p, from a converged orbit)
    solves = [(24, 12, 8, True), (6, 3, 16, False)]
    newton = []
    for i, (n, k, p, presolved) in enumerate(solves):
        mu = _mu(rng, 0.5)
        amplitude = round(0.01 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0)), 6)
        nu = _nu_closed_form(n, mu, _hp_cubic, k, "plus")
        start = orbits.FourierOrbit(nu=nu, coeffs=oracles.kernel_orbit(n, k, mu ** 2, nu,
                                                                       amplitude, p))
        ring = model.RingSystem(n=n, mu=mu)
        if presolved:
            op = _presolved(ring, start, fix_nu=False, amplitude=amplitude)
        else:
            def op(ring=ring, start=start, amplitude=amplitude):
                return orbits.newton_orbit(ring, start, fix_nu=False, amplitude=amplitude)
        ops.append((f"newton_orbit-{i}", op))
        newton.append((mu, amplitude))

    def check(outputs, chk):
        for i, (n, pot, mu, k, root, steps) in enumerate(runs):
            payload = json.loads(outputs[f"verify-{i}"])["payload"]
            want = _nu_closed_form(n, mu, _law(pot)[1], k, root)
            label = f"verify-{i}"
            chk.close(payload["predicted_nu"], want, 1e-12, f"{label} predicted nu")
            chk.expect(payload["passed"] is True, f"{label}: passed is false")
            chk.expect(len(payload["points"]) == steps, f"{label}: branch points")
            err = abs(payload["extrapolated_nu"] - want)
            chk.worst("quality.verify_extrap_err", err)
            chk.expect(err <= 1e-4, f"{label}: extrapolation error {err:.2e}")
            for q in payload["points"]:
                chk.worst("quality.verify_max_residual", q["residual"])
                chk.expect(q["residual"] <= 1e-10, f"{label}: residual {q['residual']}")
                chk.expect(q["symmetry_residual"] <= 1e-8,
                           f"{label}: symmetry residual {q['symmetry_residual']}")
        for i, (mu, amplitude) in enumerate(newton):
            orbit = outputs[f"newton_orbit-{i}"]
            res = oracles.sampled_residual(orbit.coeffs, orbit.nu, mu, _h_cubic)
            chk.worst("quality.verify_max_residual", res)
            chk.expect(res <= 1e-10, f"newton_orbit-{i}: independent residual {res:.2e}")
            chk.close(orbit.amplitude, amplitude, 1e-10, f"newton_orbit-{i} amplitude")

    return ops, check


def build_dense(rng):
    stabs = [(256, "cubic", _mu(rng, 0.3)), (256, "saturable", _mu(rng, 0.8))]
    blocks_n, blocks_mu = 256, _mu(rng, 0.3)
    ops = []
    for i, (n, pot, mu) in enumerate(stabs):
        ops.append((f"stability-{i}", _cli(["stability", "--n", str(n), "--potential",
                                            pot, "--mu", str(mu)])))
    ops.append(("blocks", _cli(["blocks", "--n", str(blocks_n), "--mu", str(blocks_mu)])))
    int_n, int_mu = 6, _mu(rng, 0.4)
    ring = model.RingSystem(n=int_n, mu=int_mu, potential=model.saturable_potential())
    x0 = oracles.rotating_wave(int_n) + 0.05 * rng.normal(size=2 * int_n)
    T, dt = 10.0, 0.01
    ops.append(("integrate", lambda: orbits.integrate(ring, x0, T=T, dt=dt)))

    def check(outputs, chk):
        for i, (n, pot, mu) in enumerate(stabs):
            _check_stability(chk, n, outputs[f"stability-{i}"], _law(pot)[1], mu,
                             f"stability-{i}", dense=True)
        payload = json.loads(outputs["blocks"])["payload"]
        x = blocks_mu ** 2
        chk.expect(payload["off_block_residual"] <= 1e-10,
                   f"blocks: off-block residual {payload['off_block_residual']:.2e}")
        chk.expect(len(payload["blocks"]) == blocks_n, "blocks: one block per mode")
        for rec in payload["blocks"]:
            k = rec["k"]
            a, g = oracles.alpha(blocks_n, k), oracles.gamma(blocks_n, k)
            chk.close(rec["alpha"], a, 1e-12, f"blocks alpha_{k}")
            chk.close(rec["gamma"], g, 1e-12, f"blocks gamma_{k}")
            want = [[[-a + 2.0 * x, 0.0], [0.0, -g]], [[0.0, g], [-a, 0.0]]]
            err = float(np.abs(np.array(rec["B"]) - np.array(want)).max())
            chk.expect(err <= 1e-10, f"blocks B_{k} off the closed form by {err:.2e}")
            chk.expect(rec["extract_residual"] <= 1e-10, f"blocks extract_residual k={k}")
        _, states = outputs["integrate"]
        power = (states ** 2).sum(axis=1)
        drift = float(np.abs(power - power[0]).max())
        chk.worst("quality.integrate_power_drift", drift)
        chk.expect(drift <= 1e-8, f"integrate: power drift {drift:.2e}")
        # the flow is reversible under complex conjugation C: integrating
        # forward from C x(T) returns C x0
        flip = np.tile([1.0, -1.0], int_n)
        _, back = orbits.integrate(ring, flip * states[-1], T=T, dt=dt)
        err = float(np.abs(flip * back[-1] - x0).max())
        chk.expect(err <= 1e-9, f"integrate: time reversal misses x0 by {err:.2e}")

    return ops, check


WORKLOADS = {"classify": build_classify, "custom": build_custom,
             "verify": build_verify, "dense": build_dense}


def build(name, seed):
    """Operations and checker of one workload; the tour op is appended."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    ops, check = WORKLOADS[name](rng)
    ops.append(("tour", _tour_inputs(rng)))
    return ops, check
