import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from dnlsring import blocks, classify, cli
from dnlsring.cli import CSV_COLUMNS, main
from dnlsring.model import RingSystem, saturable_potential


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_equilibrium_report(capsys):
    doc = run_json(capsys, "equilibrium", "--n", "6", "--potential", "cubic",
                   "--mu", "0.5")
    assert doc["schema_version"] == "1"
    assert doc["config"]["n"] == 6
    payload = doc["payload"]
    assert abs(payload["omega"] - 0.75) < 1e-12
    assert payload["gradient_residual"] <= 1e-12
    assert len(payload["a_bar"]) == 6


def test_equilibrium_invalid_inputs(capsys):
    code, _, err = run_cli(capsys, "equilibrium", "--n", "2", "--potential",
                           "cubic", "--mu", "0.5")
    assert code == 2
    assert "n=1 and n=2" in err or "n >= 3" in err or ">= 3" in err
    code, _, _ = run_cli(capsys, "equilibrium", "--n", "6", "--potential",
                         "cubic", "--mu", "0")
    assert code == 2
    # h and h' are nan at mu^2 = 2.25, where the ring is set up
    with np.errstate(invalid="ignore"):
        code, _, err = run_cli(capsys, "stability", "--n", "8", "--potential", "custom",
                               "--h-expr", "sqrt(1-s)", "--h-prime-expr=-0.5/sqrt(1-s)",
                               "--mu", "1.5")
    assert code == 2 and "mu^2 = 2.25" in err


def test_blocks_n4_delta_markers(capsys):
    code, out, _ = run_cli(capsys, "blocks", "--n", "4", "--potential", "cubic",
                           "--mu", "0.7", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert all(row.split(",")[3] == "-" for row in rows)


def test_blocks_values(capsys):
    doc = run_json(capsys, "blocks", "--n", "3", "--potential", "cubic",
                   "--mu", "1.0")
    rows = {rec["k"]: rec for rec in doc["payload"]["blocks"]}
    assert abs(rows[1]["alpha"] - (-1.5)) < 1e-12
    assert abs(rows[1]["gamma"] - 1.5) < 1e-12
    assert abs(rows[1]["delta"]) < 1e-12
    doc6 = run_json(capsys, "blocks", "--n", "6", "--potential", "cubic",
                    "--mu", "0.5")
    b3 = doc6["payload"]["blocks"][2]["B"]
    assert abs(b3[0][0][0] - (-1.5)) < 1e-10 and abs(b3[1][1][0] - (-2.0)) < 1e-10
    assert doc6["payload"]["off_block_residual"] <= 1e-10


def test_bifurcations_n6(capsys):
    doc = run_json(capsys, "bifurcations", "--n", "6", "--potential", "cubic",
                   "--mu", "0.5")
    pts = doc["payload"]["points"]
    k3 = [p for p in pts if p["k"] == 3]
    assert len(k3) == 1
    assert abs(k3[0]["nu"] - np.sqrt(3)) < 1e-10
    assert k3[0]["eta"] == 1
    assert k3[0]["isotropy"] == "Z~_6(3)"
    keys = [(p["mu"], p["k"], p["nu"]) for p in pts]
    assert keys == sorted(keys)


def test_bifurcations_n4_empty_ok(capsys):
    code, out, _ = run_cli(capsys, "bifurcations", "--n", "4", "--potential",
                           "saturable", "--mu", "1.3")
    assert code == 0
    assert json.loads(out)["payload"]["points"] == []


def test_bifurcations_all_degenerate_exit_3(capsys):
    code, out, _ = run_cli(capsys, "bifurcations", "--n", "6", "--potential",
                           "cubic", "--mu", "1.0")
    assert code == 3
    doc = json.loads(out)
    assert doc["payload"]["excluded"] == [{"k": 3, "mu": 1.0}]


def test_bifurcations_n16_saturable(capsys):
    doc = run_json(capsys, "bifurcations", "--n", "16", "--potential",
                   "saturable", "--mu", "1.0")
    k1 = [p for p in doc["payload"]["points"] if p["k"] == 1]
    assert len(k1) == 1 and k1[0]["root"] == "plus"
    assert k1[0]["regime"] == "generic-a"


def test_bifurcations_csv_columns(capsys):
    code, out, _ = run_cli(capsys, "bifurcations", "--n", "6", "--potential",
                           "cubic", "--mu", "0.4", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == ",".join(CSV_COLUMNS)
    # one row per mode k = 1..n-1
    assert len(out.strip().splitlines()) == 1 + 5


def test_stability_report(capsys):
    doc = run_json(capsys, "stability", "--n", "6", "--potential", "cubic",
                   "--mu", "0.4")
    payload = doc["payload"]
    assert payload["stable"] is True
    assert abs(payload["margin"] - 0.09) < 1e-12
    assert payload["oracle_max_real_part"] <= 1e-8
    assert payload["oracle_agrees"] is True
    doc = run_json(capsys, "stability", "--n", "6", "--potential", "cubic",
                   "--mu", "0.6")
    assert doc["payload"]["stable"] is False
    doc = run_json(capsys, "stability", "--n", "5", "--potential", "saturable",
                   "--mu", "3.0")
    assert doc["payload"]["stable"] is True
    # the rotation zero splits to +-7.2e-7 here, wider than an absolute 1e-6
    doc = run_json(capsys, "stability", "--n", "3", "--potential", "cubic", "--mu", "8.2")
    assert doc["payload"]["stable"] is True and doc["payload"]["oracle_agrees"] is True


def test_verify_rejects_full_symmetry_mode(capsys):
    code, _, err = run_cli(capsys, "verify", "--n", "6", "--potential", "cubic",
                           "--mu", "0.5", "--k", "6", "--branch", "plus")
    assert code == 2
    assert "full symmetry" in err


def test_verify_requires_branch(capsys):
    code, _, _ = run_cli(capsys, "verify", "--n", "6", "--potential", "cubic",
                         "--mu", "0.5", "--k", "3")
    assert code == 2


def test_verify_solver_failure_exit_4(capsys, monkeypatch):
    # the report (with whatever branch prefix exists) is still emitted
    import dnlsring.cli as cli
    from dnlsring.orbits import NoConvergence

    def boom(*args, **kwargs):
        raise NoConvergence("synthetic failure")

    monkeypatch.setattr(cli.orbits, "_newton", boom)
    code, out, _ = run_cli(capsys, "verify", "--n", "6", "--potential", "cubic",
                           "--mu", "0.5", "--k", "3", "--branch", "plus")
    assert code == 4
    doc = json.loads(out)
    assert doc["payload"]["points"] == []
    assert doc["payload"]["passed"] is False
    assert "synthetic failure" in doc["payload"]["failure"]


def test_verify_certificate_failure_keeps_the_accepted_points(capsys, monkeypatch):
    # the full-space certificate of the 3rd point fails: the branch ends in
    # solver-error with the two points accepted before it, and the reason
    residual = cli.orbits.residual
    calls = []

    def nan_at_third(ring, orbit):
        calls.append(orbit)
        F = residual(ring, orbit)
        return np.full(F.shape, np.nan) if len(calls) == 3 else F

    monkeypatch.setattr(cli.orbits, "residual", nan_at_third)
    code, out, _ = run_cli(capsys, "verify", "--n", "6", "--potential", "cubic",
                           "--mu", "0.5", "--k", "3", "--branch", "plus")
    assert code == 4
    payload = json.loads(out)["payload"]
    assert len(calls) == 3 and len(payload["points"]) == 2
    assert payload["termination"] == "solver-error" and payload["passed"] is False
    assert "full-space residual nan" in payload["failure"]


def test_verify_stops_where_the_frequency_crosses_zero(capsys):
    # on this minus branch nu falls through 0 at the 11th point; the branch
    # stops there instead of doubling p up to 256 (about 6 s) for the tail
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "--n", "7", "--mu", "1.0657", "--k", "3",
                           "--branch", "minus")
    elapsed = time.perf_counter() - t0
    assert code == 4
    payload = json.loads(out)["payload"]
    assert payload["termination"] == "frequency-zero" and payload["passed"] is False
    nus = [q["nu"] for q in payload["points"]]
    assert min(nus[:-1]) > 0 >= nus[-1]
    assert "nu = " in payload["failure"]
    assert elapsed <= 1.0, f"verify took {elapsed:.2f} s"


def test_blocks_large_ring_within_budget(capsys):
    """The mode blocks at n = 1024 come from the Hessian's three rotated
    block diagonals, not from a dense P^* H P."""
    t0 = time.perf_counter()
    doc = run_json(capsys, "blocks", "--n", "1024", "--mu", "0.4")
    elapsed = time.perf_counter() - t0
    payload = doc["payload"]
    assert len(payload["blocks"]) == 1024
    assert payload["off_block_residual"] <= 1e-10
    assert all(rec["extract_residual"] <= 1e-10 for rec in payload["blocks"])
    assert elapsed <= 1.5, f"blocks --n 1024 took {elapsed:.2f} s"


def test_verify_non_finite_branch_exit_4(capsys):
    # h = sqrt(1 - s) is finite at mu^2 but nan further along the branch;
    # the nan ends the run with exit 4, and numpy does not warn of it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "verify", "--n", "6", "--potential", "custom",
                                 "--h-expr", "sqrt(1-s)", "--h-prime-expr=-0.5/sqrt(1-s)",
                                 "--mu", "0.95", "--k", "3", "--branch", "plus",
                                 "--steps", "30", "--ds", "0.1")
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code == 4
    payload = json.loads(out)["payload"]
    assert payload["failure"] and payload["passed"] is False
    assert payload["termination"] in ("step-failure", "solver-error")


def test_verify_names_the_fourier_tail_when_p_max_stops_the_branch(capsys):
    # no corrector fails: the tail still exceeds 1e-12 at p = p_max = 8
    code, out, _ = run_cli(capsys, "verify", "--n", "3", "--mu", "1.0", "--potential",
                           "saturable", "--k", "1", "--branch", "minus", "--steps", "200",
                           "--ds", "0.05", "--p-max", "8")
    assert code == 4
    payload = json.loads(out)["payload"]
    assert payload["termination"] == "step-failure" and payload["points"]
    assert "Fourier tail" in payload["failure"] and "p_max = 8" in payload["failure"]
    assert "halvings" not in payload["failure"]


def test_wrong_h_prime_overflowing_on_part_of_the_grid_exit_2(capsys):
    # h' = 1e308 s overflows above s ~ 1.8, where its error is nan; the
    # finite points still show it wrong, and numpy does not warn
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "stability", "--n", "6", "--potential", "custom",
                                 "--h-expr", "s", "--h-prime-expr", "1e308*s", "--mu", "0.5")
    assert code == 2 and out == "" and "h_prime is inconsistent" in err
    assert "RuntimeWarning" not in err and not caught


def test_input_too_large_to_allocate_exit_2(capsys, monkeypatch):
    def unable(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape "
                          "(100000000000,) and data type float64")

    monkeypatch.setattr(cli.np, "linspace", unable)
    code, out, err = run_cli(capsys, "sweep", "--n", "5", "--mu-range", "0.1:0.2:100000000000")
    assert code == 2 and out == "" and "error: Unable to allocate 745. GiB" in err


def test_import_loads_no_custom_potential_solver():
    """A fresh ``import dnlsring.cli`` loads no scipy module: brentq (custom
    potentials) and LAPACK (orbit solves and integration) are imported where
    they are called.  Neither do the stability and blocks commands, which
    read the Hessian's rotated block diagonals with numpy alone."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    loaded = "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))"
    for command in ("", "assert dnlsring.cli.main(['stability', '--n', '64', '--mu', '0.3']) == 0",
                    "assert dnlsring.cli.main(['blocks', '--n', '64', '--mu', '0.3']) == 0"):
        code = f"import sys, dnlsring.cli\n{command}\n{loaded}"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "[]", command


def test_main_builds_the_parser_once(capsys):
    cli._build_parser.cache_clear()
    for _ in range(2):
        assert main(["equilibrium", "--n", "5", "--mu", "0.4"]) == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert capsys.readouterr().out.count('"omega"') == 2


def test_every_public_name_resolves():
    """Each name in a layer's ``__all__`` and in ``dnlsring.__all__`` is an
    attribute of its module; bench/tracing.py looks up every one."""
    import dnlsring
    layers = [getattr(dnlsring, name) for name in
              ("model", "symmetry", "blocks", "classify", "orbits")]
    for mod in (dnlsring, *layers):
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == [], mod.__name__
    assert sorted(dnlsring.__all__) == sorted(name for mod in layers for name in mod.__all__)
    assert len(set(dnlsring.__all__)) == len(dnlsring.__all__)


def test_verify_small_run(capsys):
    doc = run_json(capsys, "verify", "--n", "6", "--potential", "cubic",
                   "--mu", "0.5", "--k", "3", "--branch", "plus",
                   "--steps", "6", "--ds", "0.05")
    payload = doc["payload"]
    assert payload["passed"] is True
    assert len(payload["points"]) == 6
    assert abs(payload["extrapolated_nu"] - payload["predicted_nu"]) <= 1e-4
    assert all(p["residual"] <= 1e-10 for p in payload["points"])
    assert all(p["symmetry_residual"] <= 1e-8 for p in payload["points"])


def test_sweep_counts_drop_across_thresholds(capsys):
    doc = run_json(capsys, "sweep", "--n", "6", "--potential", "cubic",
                   "--mu-range", "0.05:0.95:19")
    samples = {round(s["mu"], 4): s["count"] for s in doc["payload"]["samples"]}
    assert samples[0.45] > samples[0.55]       # mode-1 pair lost at 0.5
    assert samples[0.85] > samples[0.9]        # mode-2 pair lost at sqrt(3)/2
    regimes = doc["payload"]["regimes"]
    assert regimes["n"] == 6
    assert any(e["k"] == 3 and e["condition"] == "a" for e in regimes["entries"])


def test_sweep_n3_cubic_names_the_mirror(capsys):
    doc = run_json(capsys, "sweep", "--n", "3", "--potential", "cubic",
                   "--mu-range", "0.5:1.5:3")
    entries = doc["payload"]["regimes"]["entries"]
    assert [(e["k"], e["condition"], e["mirror_of"]) for e in entries] == [(1, "a", None),
                                                                         (2, "a", 1)]


def test_sweep_saturable_convention_difference(capsys):
    doc15 = run_json(capsys, "sweep", "--n", "15", "--potential", "saturable",
                     "--mu-range", "0.5:1.5:3")
    doc16 = run_json(capsys, "sweep", "--n", "16", "--potential", "saturable",
                     "--mu-range", "0.5:1.5:3")
    e15 = [e for e in doc15["payload"]["regimes"]["entries"] if e["k"] == 1]
    e16 = [e for e in doc16["payload"]["regimes"]["entries"] if e["k"] == 1]
    assert [e["condition"] for e in e15] == ["b"]
    assert sorted(e["condition"] for e in e16) == ["a", "b", "b"]
    # at mu = 1 mode 1 is two-sided for n = 15, one-sided for n = 16
    mid15 = [s for s in doc15["payload"]["samples"] if abs(s["mu"] - 1) < 1e-9][0]
    mid16 = [s for s in doc16["payload"]["samples"] if abs(s["mu"] - 1) < 1e-9][0]
    count15 = len([p for p in mid15["points"] if p["k"] == 1])
    count16 = len([p for p in mid16["points"] if p["k"] == 1])
    assert count15 == 2 and count16 == 1


def test_sweep_requires_range(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--n", "6", "--potential", "cubic",
                         "--mu", "0.5")
    assert code == 2
    code, _, _ = run_cli(capsys, "sweep", "--n", "6", "--potential", "cubic",
                         "--mu-range", "0.9:0.1:5")
    assert code == 2


@pytest.mark.parametrize("command", ["equilibrium", "blocks", "stability", "verify"])
def test_single_amplitude_command_requires_mu(capsys, command):
    """Commands without --mu-range ask for --mu alone."""
    code, out, err = run_cli(capsys, command, "--n", "6")
    assert code == 2 and out == ""
    assert err == "error: --mu is required\n"


def test_range_command_requires_mu_or_range(capsys):
    code, out, err = run_cli(capsys, "bifurcations", "--n", "6")
    assert code == 2 and out == ""
    assert err == "error: either --mu or --mu-range is required\n"


@pytest.mark.parametrize("command, reason", [
    ("bifurcations", "error: --mu and --mu-range are mutually exclusive\n"),
    ("sweep", "unrecognized arguments: --mu 0.5\n"),   # sweep takes no --mu
], ids=["bifurcations", "sweep"])
def test_mu_and_mu_range_are_exclusive(capsys, monkeypatch, command, reason):
    """Both amplitudes at once is an error before any classification."""
    def no_pass(*args, **kwargs):
        raise AssertionError("classified")

    monkeypatch.setattr(classify, "_classify", no_pass)
    code, out, err = run_cli(capsys, command, "--n", "6", "--mu", "0.5",
                             "--mu-range", "0.2:0.4:2")
    assert code == 2 and out == ""
    assert err.endswith(reason)


def test_report_determinism(capsys, tmp_path):
    args = ["bifurcations", "--n", "9", "--potential", "saturable", "--mu", "0.8"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    target = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, *args, "--out", str(target))
    assert code == 0
    first = target.read_text()
    run_cli(capsys, *args, "--out", str(target))
    assert target.read_text() == first
    # the payload does not depend on the output destination
    assert json.loads(first)["payload"] == json.loads(out1)["payload"]


def test_report_roundtrip_rederivable(capsys):
    doc = run_json(capsys, "bifurcations", "--n", "9", "--potential",
                   "saturable", "--mu-range", "0.3:1.5:5")
    pts = doc["payload"]["points"]
    rng = np.random.default_rng(0)
    picks = rng.choice(len(pts), size=min(10, len(pts)), replace=False)
    for i in picks:
        rec = pts[i]
        ring = RingSystem(n=9, mu=rec["mu"], potential=saturable_potential())
        d, _ = blocks.det_trace(ring, rec["k"], rec["nu"])
        assert abs(d) <= 1e-10
        assert blocks.eta(ring, rec["k"], rec["nu"]) == rec["eta"]
        match = [p for p in classify.enumerate_bifurcations(ring)
                 if p.k == rec["k"] and p.root == rec["root"]]
        assert len(match) == 1
        assert abs(match[0].nu - rec["nu"]) <= 1e-12


def test_config_file_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 6\npotential = cubic\nmu = 0.4\n# comment\nformat = json\n")
    doc = run_json(capsys, "stability", "--config", str(cfg))
    assert doc["config"]["mu"] == 0.4
    doc = run_json(capsys, "stability", "--config", str(cfg), "--mu", "0.6")
    assert doc["config"]["mu"] == 0.6
    assert doc["payload"]["stable"] is False


def test_config_file_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 1\n")
    code, _, err = run_cli(capsys, "stability", "--config", str(cfg),
                           "--n", "6", "--potential", "cubic", "--mu", "0.4")
    assert code == 2
    assert "unknown key" in err


def test_custom_potential_expressions(capsys):
    # h(s) = s reproduces the cubic equilibrium frequency
    doc = run_json(capsys, "equilibrium", "--n", "6", "--potential", "custom",
                   "--h-expr", "s", "--h-prime-expr", "1.0 + 0*s",
                   "--g-expr", "s**2/2", "--mu", "0.5")
    assert abs(doc["payload"]["omega"] - 0.75) < 1e-12


def test_control_characters_in_the_config_echo_parse(capsys):
    # the report echoes --h-expr in its config; a raw tab there is not JSON
    doc = run_json(capsys, "equilibrium", "--n", "5", "--mu", "0.4", "--potential", "custom",
                   "--h-expr", "s\t", "--h-prime-expr", "1")
    assert doc["config"]["h_expr"] == "s\t"


EXPR_PAYLOADS = ["().__class__.__base__.__subclasses__().__len__()+0*s",
                 "__import__('os')", "s.__class__", "lambda: s", "exp(x=s)",
                 "9**9**9**9"]


@pytest.mark.parametrize("payload", EXPR_PAYLOADS)
def test_potential_expression_code_is_rejected(capsys, tmp_path, payload):
    base = ["equilibrium", "--n", "5", "--mu", "1"]
    code, out, err = run_cli(capsys, *base, "--potential", "custom",
                             "--h-expr", payload, "--h-prime-expr", "0*s")
    assert code == 2 and out == ""
    assert "potential expression" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"potential = custom\nh_expr = {payload}\nh_prime_expr = 0*s\n")
    code, out, err = run_cli(capsys, *base, "--config", str(cfg))
    assert code == 2 and out == ""
    assert "potential expression" in err


def test_potential_expression_values():
    from dnlsring.cli import _expr_fn
    s = np.linspace(0.0, 4.0, 101)
    cases = [("1/(1+s)", 1 / (1 + s)), ("-1/(1+s)**2", -1 / (1 + s) ** 2),
             ("log1p(s)", np.log1p(s)), ("s+0.1*s**2", s + 0.1 * s ** 2),
             ("np.tanh(s)*pi - +abs(-s)", np.tanh(s) * np.pi - np.abs(s))]
    for text, want in cases:
        assert np.array_equal(_expr_fn(text)(s), want), text
        assert _expr_fn(text)(0.5) == _expr_fn(text)(np.array([0.5]))[0]


def test_degenerate_table_computed_once_per_command(capsys, monkeypatch):
    import dnlsring.cli as cli
    calls = []
    original = blocks.degenerate_amplitudes

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return original(*args, **kwargs)

    monkeypatch.setattr(blocks, "degenerate_amplitudes", counted)
    argv = ["bifurcations", "--n", "8", "--potential", "custom",
            "--h-expr", "1/(1+s)", "--h-prime-expr=-1/(1+s)**2", "--g-expr", "log1p(s)"]
    counts = []
    for mu_args in (["--mu", "0.1"], ["--mu-range", "0.1:2:5"]):
        calls.clear()
        code, cached, _ = run_cli(capsys, *argv, *mu_args)
        assert code == 0
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
    # the same bytes with the cache off, where the one array pass over the
    # grid still computes the table once
    monkeypatch.setattr(cli.classify, "_degenerate_table",
                        cli.classify._degenerate_table.__wrapped__)
    calls.clear()
    _, fresh, _ = run_cli(capsys, *argv, "--mu-range", "0.1:2:5")
    assert len(calls) == counts[0]
    assert fresh == cached


def test_bifurcations_h_prime_underflow_is_not_degenerate(capsys):
    # h' = 1 - tanh(s)^2 rounds to 0.0 past s ~ 19, where mu^2 h' meets
    # delta_2 = 0 only by underflow: no degenerate amplitude there
    payload = run_json(capsys, "bifurcations", "--n", "8", "--potential", "custom",
                       "--h-expr", "tanh(s)", "--h-prime-expr", "1-tanh(s)**2",
                       "--mu", "4.358758882844863")["payload"]
    assert payload["excluded"] == []


def test_classification_is_one_pass_per_grid(capsys, monkeypatch):
    """bifurcations and sweep classify a whole mu grid in one array pass:
    they call critical_frequencies, eta, mu_h_prime and linear_stability
    for no mu, and coefficients as often for 7 mus as for 1 (the regime
    report and the degenerate-amplitude table are per (n, potential))."""
    blocks._coefficient_table(12)   # built once per n, from coefficients
    calls = []
    for name in ("coefficients", "critical_frequencies", "eta", "mu_h_prime",
                 "linear_stability"):
        def counted(*args, _name=name, _original=getattr(blocks, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(blocks, name, counted)
    for command in ("bifurcations", "sweep"):
        for fmt in ("json", "csv"):
            counts = []
            for spec in ("0.3:0.3:1", "0.1:1.2:7"):
                calls.clear()
                code, _, _ = run_cli(capsys, command, "--n", "12", "--mu-range", spec,
                                     "--format", fmt)
                assert code == 0
                counts.append(sorted(calls))
            assert counts[0] == counts[1] and set(counts[0]) <= {"coefficients"}


@pytest.mark.parametrize("command", ["bifurcations", "sweep"])
def test_csv_rows_built_only_for_csv(capsys, monkeypatch, command):
    import dnlsring.cli as cli
    calls = []
    original = cli._bifurcation_rows

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(cli, "_bifurcation_rows", counted)
    argv = [command, "--n", "6", "--potential", "cubic", "--mu-range", "0.2:0.4:3"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and calls == [] and json.loads(out)["payload"]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0 and len(calls) == 3
    assert len(out.strip().splitlines()) == 1 + 3 * 5


@pytest.mark.parametrize("command", ["bifurcations", "sweep"])
def test_point_records_built_only_for_json(capsys, monkeypatch, command):
    calls = []
    original = cli._point_records

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(cli, "_point_records", counted)
    argv = [command, "--n", "6", "--potential", "cubic", "--mu-range", "0.2:0.4:3"]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0 and calls == [] and len(out.strip().splitlines()) == 1 + 3 * 5
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and len(calls) == 1 and json.loads(out)["payload"]


_BASE_ARGS = {
    "equilibrium": ["--mu", "0.4"],
    "blocks": ["--mu", "0.4"],
    "stability": ["--mu", "0.4"],
    "verify": ["--mu", "0.4", "--k", "3", "--branch", "plus", "--steps", "1"],
    "sweep": ["--mu-range", "0.2:0.5:4"],
}
_UNREAD_OPTIONS = [
    ("stability", "--dt", "0.1", "unrecognized"),
    ("stability", "--t-final", "10", "unrecognized"),
    ("stability", "--config", "dt = 0.1", "unknown key"),
    ("sweep", "--k", "3", "unrecognized"),
    ("sweep", "--nu-min", "5", "unrecognized"),
    ("sweep", "--nu-max", "6", "unrecognized"),
    ("verify", "--nu-min", "5", "unrecognized"),
    ("verify", "--nu-max", "6", "unrecognized"),
    ("verify", "--ds", "0", "ds > 0"),
    ("verify", "--ds", "-0.03", "ds > 0"),
    ("verify", "--ds", "inf", "finite ds > 0"),
    ("verify", "--steps", "0", "steps >= 1"),
    ("equilibrium", "--config", "n = 2.5", "run.cfg:1: n must be int, got '2.5'"),
    ("equilibrium", "--config", "mu = abc", "run.cfg:1: mu must be float, got 'abc'"),
    ("sweep", "--config", "k = 3", "run.cfg:1: sweep does not take k"),
    ("sweep", "--config", "nu_min = 5", "run.cfg:1: sweep does not take nu_min"),
    ("sweep", "--mu", "0.5", "unrecognized"),
    ("sweep", "--config", "mu = 0.5", "run.cfg:1: sweep does not take mu"),
    ("stability", "--pot", "saturable", "unrecognized"),   # no abbreviations
    ("stability", "--config", "steps = 3", "run.cfg:1: stability does not take steps"),
    ("stability", "--config", "branch = plus", "run.cfg:1: stability does not take branch"),
    ("equilibrium", "--config", "format = xml",
     "run.cfg:1: format must be one of json, csv, got 'xml'"),
    ("equilibrium", "--config", "potential = quartic",
     "run.cfg:1: potential must be one of cubic, saturable, custom, got 'quartic'"),
    ("verify", "--config", "branch = sideways",
     "run.cfg:1: branch must be one of plus, minus, got 'sideways'"),
    ("stability", "--config", "config = other.cfg", "run.cfg:1: config is given as the"),
    ("verify", "--p-max", "-5", "p_max >= 8"),
    ("verify", "--p-max", "0", "p_max >= 8"),
    ("verify", "--p-max", "7", "p_max >= 8"),
    ("blocks", "--config", "mu 0.4", "run.cfg:1: expected KEY=VALUE"),
    ("stability", "--potential", "custom", "custom potential needs --h-expr and --h-prime-expr"),
] + [(command, flag, value, message)
     for command in ("equilibrium", "blocks", "stability", "verify")
     for flag, value, message in (("--mu-range", "0.1:1.5:5", "unrecognized"),
                                  ("--config", "mu_range = 0.1:1.5:5",
                                   f"run.cfg:1: {command} does not take mu_range"))]


@pytest.mark.parametrize(
    "command, flag, value, message", _UNREAD_OPTIONS,
    ids=[f"{c} {f} {v.split()[0]}" if f in ("--config", "--ds", "--steps", "--p-max")
         else f"{c} {f}" for c, f, v, _ in _UNREAD_OPTIONS])
def test_stability_has_no_integration_options(capsys, tmp_path, command, flag, value,
                                              message):
    """An option a subcommand does not read, or a value it cannot use (a
    non-positive verify step or step count, a Fourier cap below the starting
    order, a config-file number that does not parse or a value outside the
    flag's choices), as a flag or a config-file key, is an error (exit 2)
    with a reason, not silently ignored or a traceback."""
    base = [command, "--n", "8", "--potential", "cubic", *_BASE_ARGS[command]]
    if flag == "--config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(value + "\n")
        value = str(cfg)
    code, _, err = run_cli(capsys, *base, flag, value)
    assert code == 2 and message in err
    doc = run_json(capsys, *base)
    assert "dt" not in doc["config"] and "t_final" not in doc["config"]


@pytest.mark.parametrize("argv, code, message", [
    (["equilibrium", "--mu", "0.5"], 2, "--n is required"),
    (["sweep", "--n", "6"], 2, "sweep needs --mu-range"),
    (["equilibrium", "--n", "6", "--mu", "0.5", "--config", "{tmp}/missing.cfg"], 2,
     "cannot read config file"),
    # cubic n = 6: delta_3 = 1, so mu = 1 is the degenerate amplitude mu_3
    (["verify", "--n", "6", "--mu", "1.0", "--k", "3", "--branch", "plus"], 3,
     "degenerate amplitude mu_3"),
], ids=["no-n", "sweep-no-mu-range", "unreadable-config", "verify-degenerate"])
def test_failure_exit_codes(capsys, tmp_path, argv, code, message):
    """A missing required option or an unreadable config file exits 2, and a
    verify run at a degenerate amplitude exits 3, each with its reason on
    stderr and no report."""
    got, out, err = run_cli(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert got == code and out == "" and message in err


@pytest.mark.parametrize("command", ["equilibrium", "blocks", "stability", "bifurcations",
                                     "verify"])
def test_overflowing_mu_exit_2(capsys, command):
    # mu^2 of a Python float overflows above ~1.34e154
    extra = ["--k", "1", "--branch", "plus"] if command == "verify" else []
    code, out, err = run_cli(capsys, command, "--n", "5", "--mu", "1e200", *extra)
    assert code == 2 and out == "" and "mu^2 overflows" in err
    code, out, err = run_cli(capsys, command, "--n", "5", "--potential", "saturable",
                             "--mu", "inf", *extra)
    assert code == 2 and out == "" and "positive and finite" in err


@pytest.mark.parametrize("spec", ["0.1:inf:3", "-inf:1:3", "nan:1:3", "0.1:nan:3"])
def test_mu_range_non_finite_endpoint_exit_2(capsys, spec):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "sweep", "--n", "6", f"--mu-range={spec}")
    assert code == 2 and out == ""
    assert f"--mu-range endpoints must be finite, got {spec}" in err


def test_bifurcations_csv_k_keeps_one_mode(capsys):
    base = ["bifurcations", "--n", "8", "--mu-range", "0.2:1.2:9", "--format", "csv"]
    _, every, _ = run_cli(capsys, *base)
    code, one, _ = run_cli(capsys, *base, "--k", "3")
    assert code == 0
    header, *rows = one.splitlines()
    assert header == ",".join(CSV_COLUMNS)
    assert rows == [row for row in every.splitlines()[1:] if row.split(",")[1] == "3"]
    assert len(rows) == 9


@pytest.mark.parametrize("k", ["0", "-1", "8", "40"])
def test_bifurcations_k_out_of_range_exit_2(capsys, k):
    for fmt in ("json", "csv"):
        code, out, err = run_cli(capsys, "bifurcations", "--n", "8", "--mu", "0.3",
                                 "--k", k, "--format", fmt)
        assert code == 2 and out == "" and f"--k must be in 1..7, got {k}" in err


def test_bifurcations_csv_nu_filter_blanks_roots(capsys):
    base = ["bifurcations", "--n", "8", "--mu-range", "0.2:0.6:3", "--format", "csv"]
    _, every, _ = run_cli(capsys, *base)
    _, cut, _ = run_cli(capsys, *base, "--nu-min", "1", "--nu-max", "3")
    every, cut = every.splitlines(), cut.splitlines()
    assert len(cut) == len(every) == 1 + 3 * 7
    blanked = 0
    for full, row in zip(every[1:], cut[1:]):
        full, row = full.split(","), row.split(",")
        for nu_col in (6, 7):   # nu_minus, nu_plus; their eta two columns on
            if full[nu_col] and not 1 <= float(full[nu_col]) <= 3:
                assert row[nu_col] == row[nu_col + 2] == ""
                full[nu_col] = full[nu_col + 2] = ""
                blanked += 1
        if not (full[6] or full[7]):
            full[11] = ""   # no root left: no regime
        assert row == full
    assert blanked > 5


# --- the writer against the recursive writer it replaced ----------------------

# JSON's string escapes: '"', the backslash, the short forms of \b \f \n \r \t
# and \u00XX for every other control character below 0x20
JSON_ESCAPES = {**{c: f"\\u{c:04x}" for c in range(0x20)},
                **{ord(c): "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')}}


def old_to_json(obj, indent: int = 0) -> str:
    """Reference: the recursive writer the one-walk ``cli._to_json`` replaced."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append(f'{pad}  "{key}": {old_to_json(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {old_to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if math.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return '"' + obj.translate(JSON_ESCAPES) + '"'
    raise TypeError(f"cannot serialize {type(obj)}")


def plain(obj):
    """The report as the recursive writer saw it: point records as dicts."""
    if isinstance(obj, cli._PointRecords):
        return [dict(zip(cli._PointRecords.KEYS, row)) for row in zip(*obj.columns)]
    if isinstance(obj, cli._Samples):   # each sample's points follow the last's
        points, ends = plain(obj.points), np.cumsum(obj.count, dtype=int).tolist()
        return [{"mu": mu, "stable": stable, "count": count,
                 "points": points[end - count:end]}
                for mu, stable, count, end in zip(obj.mu, obj.stable, obj.count, ends)]
    if isinstance(obj, dict):
        return {key: plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(value) for value in obj]
    return obj


_SAT_EXPR = ["--potential", "custom", "--h-expr", "1/(1+s)",
             "--h-prime-expr=-1/(1+s)**2", "--g-expr", "log1p(s)"]
_WRITER_RUNS = [
    ["equilibrium", "--n", "5", "--mu", "0.4"],
    ["blocks", "--n", "4", "--mu", "0.7"],                 # delta null
    ["blocks", "--n", "6", "--potential", "saturable", "--mu", "1.3"],
    ["stability", "--n", "4", "--mu", "0.7"],              # inf margin
    ["stability", "--n", "8", *_SAT_EXPR, "--mu", "0.9"],
    ["bifurcations", "--n", "4", "--mu", "0.8"],           # no points
    ["bifurcations", "--n", "6", "--mu", "1.0"],           # every mu excluded
    ["bifurcations", "--n", "6", "--mu-range", "0.5:1.0:6"],
    ["bifurcations", "--n", "9", "--potential", "saturable", "--mu-range", "0.3:1.5:5",
     "--k", "2"],
    ["bifurcations", "--n", "8", *_SAT_EXPR, "--mu-range", "0.2:1.9:4", "--nu-min", "0.5",
     "--nu-max", "2"],
    ["sweep", "--n", "3", "--mu-range", "0.2:2:4"],        # inf intervals
    ["sweep", "--n", "16", "--potential", "saturable", "--mu-range", "0.5:1.5:5"],
    ["sweep", "--n", "8", *_SAT_EXPR, "--mu-range", "0.25:1.5:3"],   # regimes null
    ["sweep", "--n", "6", "--mu-range", "0.5:1.0:6"],
    ["sweep", "--n", "32", "--mu-range", "0.02:1.1:120"],     # the benchmark's n and interval
    ["verify", "--n", "6", "--mu", "0.5", "--k", "3", "--branch", "plus", "--steps", "2"],
]


def test_writer_matches_recursive_writer():
    """Every subcommand's JSON report renders to the same bytes as with the
    recursive writer, and so do values of every kind it accepts."""
    for argv in _WRITER_RUNS:
        cfg = cli._merge_config(cli._build_parser().parse_args(argv))
        report = cli._COMMANDS[cfg.command][1](cfg)[0]
        assert cli._to_json(report) == old_to_json(plain(report)) + "\n", argv
    columns = (["", "q\"uote", "back\\slash"], [1, -1, 1], ["Z~_5(1)"] * 3, [1, 2, 3],
               [0.5, 0.5, 1e-300], [1.25, 2.0, 3.0], [5.0, 3.1, 2.0],
               ["generic-a", "tab\there", "new\nline\x01"],
               ["minus", "plus", "plus"])
    values = {"floats": [np.float32(0.1), np.float64(-2.5), 1e300, math.nan, -math.inf],
              "ints": [np.int64(3), np.int32(-4), 7, True, np.bool_(False)],
              "empty": [[], {}, (), [[]], ""], "none": None, "keys": {10: "ints", 2: "sort"},
              "control": ["\t", "a\nb", "\x01", "\x1f\r\b\f", "\x7f\u2028é"],
              "points": cli._PointRecords(columns),
              "inf points": cli._PointRecords(tuple(c[:2] for c in columns[:5])
                                              + ([math.inf, 2.0], [0.0, 3.1])
                                              + tuple(c[:2] for c in columns[7:])),
              # +-inf in nu and period (and mu) of the template, finite records between
              "signed inf points": cli._PointRecords(
                  tuple(c + c[:2] for c in columns[:4])
                  + ([0.5, 0.5, 1e-300, 0.75, math.inf], [math.inf, 2.0, 1.5, -math.inf, 0.25],
                     [0.0, -math.inf, 4.0, math.inf, -2.5])
                  + tuple(c + c[:2] for c in columns[7:])),
              "no points": cli._PointRecords(tuple([] for _ in columns)),
              # samples of +-inf and signed zero mu, one without points
              "samples": cli._Samples(
                  [0.5, -math.inf, -0.0, 0.0], [True, False, np.bool_(True), False],
                  [2, 0, 1, 2],
                  cli._PointRecords(tuple(c + c[:2] for c in columns[:4])
                                    + ([0.5, 0.5, -0.0, 0.0, 0.0],
                                       [math.inf, 2.0, 1.5, -math.inf, 0.25],
                                       [0.0, -math.inf, 4.0, math.inf, -2.5])
                                    + tuple(c + c[:2] for c in columns[7:]))),
              "no samples": cli._Samples([], [], [],
                                         cli._PointRecords(tuple([] for _ in columns)))}
    assert cli._to_json(values) == old_to_json(plain(values)) + "\n"
    with pytest.raises(TypeError, match="cannot serialize"):
        cli._to_json({"x": object()})


def old_bifurcation_rows(ring, points, stable):
    """Reference: the CSV rows of one ring, built per mode from its points."""
    rows = []
    by_root = {(pt.k, pt.root): pt for pt in points}
    for k in range(1, ring.n):
        c = blocks.coefficients(ring.n, k)
        minus, plus = by_root.get((k, "minus")), by_root.get((k, "plus"))
        some = plus or minus
        rows.append([
            ring.n, k, ring.mu, c.alpha, c.gamma,
            "-" if c.delta is None else cli._fmt(c.delta),
            minus.nu if minus else None, plus.nu if plus else None,
            minus.eta if minus else None, plus.eta if plus else None,
            f"Z~_{ring.n}({k})", some.regime if some else "", stable,
        ])
    return rows


def test_csv_rows_match_per_mode_rows():
    """The CSV of bifurcations and sweep, built from one array pass, equals
    rows built per mu from enumerate_bifurcations and per mode from
    blocks.coefficients, with the --nu-min/--nu-max filter applied to the
    points and the rows of the --k mode alone."""
    for argv in _WRITER_RUNS:
        if argv[0] not in ("bifurcations", "sweep"):
            continue
        cfg = cli._merge_config(cli._build_parser().parse_args([*argv, "--format", "csv"]))
        _, header, rows, _ = cli._COMMANDS[cfg.command][1](cfg)
        want = []
        potential = cli._build_potential(cfg)
        for ring in [RingSystem(n=cfg.n, mu=mu, potential=potential)
                     for mu in cli._mu_values(cfg)]:
            try:
                points = classify.enumerate_bifurcations(ring)
            except classify.DegenerateAmplitude:
                continue
            points = [pt for pt in points
                      if (cfg.nu_min is None or pt.nu >= cfg.nu_min)
                      and (cfg.nu_max is None or pt.nu <= cfg.nu_max)]
            want += [row for row in old_bifurcation_rows(ring, points,
                                                         blocks.linear_stability(ring).stable)
                     if cfg.k in (None, row[1])]
        want = [",".join(map(cli._csv_cell, row)) for row in want]
        assert cli._to_csv(header, rows) == cli._to_csv(CSV_COLUMNS, want), argv


# --- one option table: flags, config-file keys and the report echo ------------

def test_range_potential_not_finite_exit_2(capsys):
    """A range is checked at every mu, as a ring checks its one mu: the first
    mu whose h or h' is not finite, or whose square overflows, is named."""
    base = ["bifurcations", "--n", "8", "--potential", "custom", "--h-expr", "sqrt(1-s)",
            "--h-prime-expr=-0.5/sqrt(1-s)", "--g-expr", "(2/3)*(1-(1-s)**1.5)"]
    with np.errstate(all="ignore"):
        code, out, err = run_cli(capsys, *base, "--mu-range", "0.5:1.5:2")
        assert code == 2 and out == "" and "h or h' is not finite at mu^2 = 2.25" in err
        code, out, err = run_cli(capsys, *base, "--mu-range", "0.5:1.5:3")   # h' = -inf at 1
        assert code == 2 and out == "" and "h or h' is not finite at mu^2 = 1.0" in err
    code, out, err = run_cli(capsys, "sweep", "--n", "8", "--potential", "saturable",
                             "--mu-range", "1:1e200:3")
    assert code == 2 and out == "" and "mu = 5e+199 is too large: mu^2 overflows" in err


def test_unwritable_out_exit_2(capsys, tmp_path):
    base = ["stability", "--n", "6", "--mu", "0.4"]
    target = tmp_path / "missing_dir" / "x.json"
    code, out, err = run_cli(capsys, *base, "--out", str(target))
    assert code == 2 and out == ""
    assert f"error: cannot write {target}: No such file or directory" in err
    code, out, err = run_cli(capsys, *base, "--out", str(tmp_path))
    assert code == 2 and out == "" and f"error: cannot write {tmp_path}: " in err


# a complete run of each subcommand, as option -> value
_RUNS = {
    "equilibrium": {"n": "6", "mu": "0.5"},
    "blocks": {"n": "6", "mu": "0.5"},
    "bifurcations": {"n": "6", "mu_range": "0.2:0.5:3"},
    "stability": {"n": "6", "mu": "0.5"},
    "verify": {"n": "6", "mu": "0.5", "k": "3", "branch": "plus", "steps": "1"},
    "sweep": {"n": "6", "mu_range": "0.2:0.5:3"},
}
# per option: two values that a subcommand taking it accepts, then values it
# rejects ("out" values are file names in a scratch directory)
_VALUES = {
    "n": ("8", "6", "2.5", "2"),
    "potential": ("saturable", "cubic", "quartic"),
    "h_expr": ("s", "s*1.0"),
    "h_prime_expr": ("1+0*s", "1.0"),
    "g_expr": ("s**2/2", "s*s/2"),
    "mu": ("0.4", "0.5", "abc", "0"),
    "format": ("csv", "json", "xml"),
    "out": ("a.out", "b.out"),
    "config": ("other.cfg", "run.cfg"),
    "mu_range": ("0.3:0.6:2", "0.2:0.5:3", "0.1", "0.5:0.2:3"),
    "k": ("3", "2", "x"),
    "nu_min": ("1", "0.5", "x"),
    "nu_max": ("3", "2", "x"),
    "branch": ("minus", "plus", "sideways"),
    "steps": ("2", "1", "0", "1.5"),
    "ds": ("0.05", "0.03", "0", "x"),
    "p_max": ("32", "64", "7", "x"),
}


_EXCLUDES = {"mu": "mu_range", "mu_range": "mu"}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_flags_and_config_keys_agree(capsys, tmp_path, command):
    """Every option of the table, for every subcommand: a flag and a config
    line are accepted or rejected (exit 2) alike, an accepted file value
    gives the same report as the flag (its config echo included), and a flag
    overrides the file.  ``config`` itself is a flag only; --mu and
    --mu-range exclude each other, so each is tried without the other."""
    assert list(_VALUES) == list(cli._OPTIONS)
    cfg = tmp_path / "run.cfg"

    def outcome(argv, lines=()):
        cfg.write_text("".join(line + "\n" for line in lines))
        for path in tmp_path.glob("*.out"):
            path.unlink()
        code, out, _ = run_cli(capsys, command, *argv, "--config", str(cfg))
        return code, out, {p.name: p.read_text() for p in tmp_path.glob("*.out")}

    for key, values in _VALUES.items():
        flag = "--" + key.replace("_", "-")
        base = [arg for option, value in _RUNS[command].items()
                if option not in (key, _EXCLUDES.get(key))
                for arg in ("--" + option.replace("_", "-"), value)]
        if key == "out":
            values = [str(tmp_path / value) for value in values]
        if key == "config":
            code, _, _ = outcome(base, [f"config = {values[0]}"])
            assert code == 2
            continue
        for value in values:
            by_flag = outcome([*base, flag, value])
            by_file = outcome(base, [f"{key} = {value}"])
            assert (by_flag[0] == 2) == (by_file[0] == 2), (key, value)
            if by_flag[0] != 2:
                assert by_file == by_flag, (key, value)
        if command in cli._OPTIONS[key][2]:
            by_flag = outcome([*base, flag, values[1]])
            assert by_flag[0] != 2, key
            assert outcome([*base, flag, values[1]], [f"{key} = {values[0]}"]) == by_flag


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_help_lists_table_options(capsys, command):
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    want = {"--" + key.replace("_", "-") for key, (_, _, commands, _) in cli._OPTIONS.items()
            if command in commands}
    assert set(re.findall(r"--[a-z][a-z-]*", out)) == want | {"--help"}
