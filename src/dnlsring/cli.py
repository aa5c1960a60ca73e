"""Command-line front end.

Subcommands: equilibrium | blocks | bifurcations | stability | verify | sweep.
Reports are emitted as JSON (default) or CSV, with sorted keys and fixed
17-significant-digit float formatting so identical configurations produce
byte-identical output.  Each printed value is formatted once: the points of
bifurcations and sweep are rendered in one pass over their columns
(``_point_texts``), each mu, label, regime, note and root once per value and
only nu and period per point, and their CSV rows are built as text
(``_bifurcation_rows``, n, mu and stable once per mu) that ``_to_csv`` joins.

Every subcommand takes --n, --potential, --h-expr, --h-prime-expr, --g-expr,
--format, --out and --config, and every one but sweep takes --mu.  Only
bifurcations and sweep take a --mu-range (sweep requires one), which
excludes --mu; equilibrium, blocks, stability and verify report on one
amplitude.  bifurcations filters its
points with --k (1..n-1), --nu-min and --nu-max; its CSV then has the row of
mode k alone, and the roots that --nu-min and --nu-max remove are blank in
their rows.  verify takes --k, --branch, --steps, --ds and --p-max.  The
``symmetry_residual`` of each verify point is ``traveling_wave_residual``: a
bound on the mismatch of the mode-k pattern
u_{j+m}(t) = e^{i m zeta} u_j(t + m k zeta) at every site j, shift m and time
t, and so also on the mismatch of the moduli |u_{j+m}(t)| = |u_j(t + m k zeta)|.
``_OPTIONS`` declares every option once: its type, default, subcommands and
choices.

A config file (--config, a flag only) holds one ``KEY = VALUE`` per line,
with ``#`` comments and ``-`` or ``_`` in keys.  It takes the subcommand's own
options only, each checked as its flag is; a flag overrides the file, and
the file overrides the default.  Flags are never abbreviated.

Exit codes: 0 success (possibly with an empty payload), 2 invalid input
(also an input too large to allocate, such as a --mu-range count of 1e11),
3 every requested amplitude is degenerate, 4 numerical failure: a verify
branch that ended with a reason (the report's ``failure``, next to its
``termination``), or a block computation that failed or overflowed.
"""

from __future__ import annotations

import argparse
import ast
import functools
import itertools
import math
import re
import sys
from json.encoder import encode_basestring
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import blocks, classify, orbits
from .model import (RingSystem, cubic_potential, custom_potential,
                    gradient_V, saturable_potential, standing_wave)
from .symmetry import IsotropyLabel, traveling_wave_residual

SCHEMA_VERSION = "1"

CSV_COLUMNS = ["n", "k", "mu", "alpha", "gamma", "delta", "nu_minus", "nu_plus",
               "eta_minus", "eta_plus", "isotropy", "regime", "stable"]

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_ALL_DEGENERATE = 3
_EXIT_NUMERICAL = 4


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _json_float(x) -> str:
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return _fmt(x)


# a JSON string literal: escapes '"', '\\' and every control character below 0x20
_json_str = encode_basestring


class _PointRecords:
    """Bifurcation point records held as columns, one list per JSON key in
    key order.  The writer renders all of them in one pass (``_point_texts``):
    mu and the strings once per value, nu and period per record."""

    KEYS = ("admissibility_note", "eta", "isotropy", "k", "mu", "nu", "period",
            "regime", "root")
    __slots__ = ("columns",)

    def __init__(self, columns: tuple[list, ...]):
        self.columns = columns


class _Samples(NamedTuple):
    """The sweep's samples as columns: the mu, verdict and point count of
    each, whose point records (at that mu) follow one another in ``points``."""

    mu: list[float]
    stable: list[bool]
    count: list[int]
    points: _PointRecords


# the +-inf that %.17g prints for nu or period, neither of them the last key
_TEMPLATE_INF = re.compile(r'("(?:nu|period)": )(-?inf),')


def _render_once(render, *columns: list):
    """An iterator over ``render`` of the values of each row of ``columns``,
    called once per distinct row (of one column: once per row where a zero
    is among them, since -0.0 == 0.0 prints differently)."""
    text = {row: render(*row) for row in set(zip(*columns))}
    return map(render, *columns) if (0.0,) in text else map(text.__getitem__, zip(*columns))


def _point_texts(columns: tuple[list, ...], pad: str, mu=None):
    """The JSON texts of the records, indented from ``pad``, as they are
    taken from the iterator returned.  The template's head (note, eta,
    isotropy, k), its tail (regime, root) and mu, unless its texts are given,
    are rendered once per value; only nu and period go through %.17g per
    record."""
    note, eta, isotropy, k, mu_values, nu, period, regime, root = columns
    i = pad + "  "   # the keys in _PointRecords.KEYS order
    head = (f'{{\n{i}"admissibility_note": %s,\n{i}"eta": %d,\n{i}"isotropy": %s,\n'
            f'{i}"k": %d,\n')
    body = f'%s{i}"mu": %s,\n{i}"nu": %.17g,\n{i}"period": %.17g%s'
    tail = f',\n{i}"regime": %s,\n{i}"root": %s\n{pad}}}'
    heads = _render_once(lambda *row: head % (_json_str(row[0]), row[1], _json_str(row[2]),
                                              row[3]), note, eta, isotropy, k)
    tails = _render_once(lambda *row: tail % tuple(map(_json_str, row)), regime, root)
    mu = _render_once(_json_float, mu_values) if mu is None else mu
    records = map(body.__mod__, zip(heads, mu, nu, period, tails))
    if any(map(math.isinf, nu)) or any(map(math.isinf, period)):
        records = map(functools.partial(_TEMPLATE_INF.sub, r'\1"\2",'), records)
    return records


def _json_list(texts, count: int, pad: str, out: list) -> None:
    """Append the JSON list of the next ``count`` item ``texts``."""
    inner = pad + "  "
    out.append(f"[\n{inner}" + f",\n{inner}".join(itertools.islice(texts, count))
               + f"\n{pad}]" if count else "[]")


def _json_samples(samples: _Samples, pad: str, out: list) -> None:
    """Append the JSON list of the samples, their points rendered in one pass."""
    inner = pad + "  "
    mu = list(_render_once(_json_float, samples.mu))
    mu_of_points = itertools.chain.from_iterable(map(itertools.repeat, mu, samples.count))
    points = _point_texts(samples.points.columns, inner + "    ", mu_of_points)
    head = f'{{\n{inner}  "count": %d,\n{inner}  "mu": %s,\n{inner}  "points": '
    tail = f',\n{inner}  "stable": %s\n{inner}}}'
    sep = "[\n" + inner
    for mu_text, stable, count in zip(mu, samples.stable, samples.count):
        out.append(sep + head % (count, mu_text))
        _json_list(points, count, inner + "  ", out)
        out.append(tail % ("true" if stable else "false"))
        sep = ",\n" + inner
    out.append("\n" + pad + "]" if samples.mu else "[]")


def _json_write(obj, pad: str, out: list) -> None:
    """Append the JSON text of ``obj``, indented from ``pad``, to ``out``."""
    if isinstance(obj, dict):
        inner = pad + "  "
        sep = "{\n"
        for key in sorted(obj):
            out.append(f'{sep}{inner}"{key}": ')
            _json_write(obj[key], inner, out)
            sep = ",\n"
        out.append("\n" + pad + "}" if obj else "{}")
    elif isinstance(obj, _Samples):
        _json_samples(obj, pad, out)
    elif isinstance(obj, (list, tuple)):
        inner = pad + "  "
        sep = "[\n"
        for item in obj:
            out.append(sep + inner)
            _json_write(item, inner, out)
            sep = ",\n"
        out.append("\n" + pad + "]" if obj else "[]")
    elif isinstance(obj, _PointRecords):
        _json_list(_point_texts(obj.columns, pad + "  "), len(obj.columns[0]), pad, out)
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_json_float(obj))
    elif isinstance(obj, str):
        out.append(_json_str(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def _to_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits,
    +-inf as the strings "inf" and "-inf", two spaces per level, and a final
    newline, joined with the rest so that a large report is not copied to
    append it.  One walk tests each value's type; point records and the
    sweep's samples are rendered in one pass over their columns, a sample's
    mu once for it and its points."""
    out: list[str] = []
    _json_write(obj, "", out)
    out.append("\n")
    return "".join(out)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return _fmt(v)
    return str(v)


def _to_csv(header: list[str], rows: list[str]) -> str:
    """The CSV text of rows that are already text: each command renders its
    cells where it builds them (``_csv_cell``, or ``_bifurcation_rows``)."""
    return "\n".join([",".join(header), *rows]) + "\n"


def _build_potential(cfg: SimpleNamespace):
    if cfg.potential == "cubic":
        return cubic_potential()
    if cfg.potential == "saturable":
        return saturable_potential()
    if not cfg.h_expr or not cfg.h_prime_expr:
        raise ConfigError("custom potential needs --h-expr and --h-prime-expr")
    h = _expr_fn(cfg.h_expr)
    hp = _expr_fn(cfg.h_prime_expr)
    G = _expr_fn(cfg.g_expr) if cfg.g_expr else None
    pot = custom_potential(h, hp, G)
    try:
        pot.validate()
    except ArithmeticError as exc:
        raise ConfigError(f"potential expression cannot be evaluated: {exc}") from exc
    return pot


_EXPR_FUNCS = {name: getattr(np, name) for name in
               ("exp", "log", "log1p", "sin", "cos", "tan", "sqrt", "tanh", "abs")}
_EXPR_NAMESPACE = {"__builtins__": {}, "pi": np.pi, **_EXPR_FUNCS,
                   "np": SimpleNamespace(**_EXPR_FUNCS)}
_EXPR_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _check_expr(node) -> None:
    """Accept numbers, ``s``, ``pi``, + - * / ** and positional calls of the
    functions in ``_EXPR_FUNCS`` (bare or as ``np.<name>``); integer
    literals become floats, so no power of integers can run unbounded."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        node.value = float(node.value)
        return
    if isinstance(node, ast.Name) and node.id in ("s", "pi"):
        return
    if isinstance(node, ast.BinOp) and isinstance(node.op, _EXPR_BINOPS):
        _check_expr(node.left)
        _check_expr(node.right)
        return
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        _check_expr(node.operand)
        return
    if isinstance(node, ast.Call) and not node.keywords:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                and func.value.id == "np":
            name = func.attr
        else:
            name = func.id if isinstance(func, ast.Name) else None
        if name in _EXPR_FUNCS:
            for arg in node.args:
                _check_expr(arg)
            return
    raise ValueError(f"{ast.unparse(node)!r} is not a number, s, pi, + - * / ** "
                     "or a call of " + ", ".join(_EXPR_FUNCS))


def _expr_fn(expr: str):
    """Function of s for a potential expression, parsed and checked once."""
    try:
        tree = ast.parse(expr, "<potential-expr>", mode="eval")
        _check_expr(tree.body)
        code = compile(tree, "<potential-expr>", "eval")
    except (SyntaxError, ValueError, OverflowError, RecursionError) as exc:
        raise ConfigError(f"invalid potential expression {expr!r}: {exc}") from exc

    def fn(s, _code=code):
        # a value outside the expression's domain comes out non-finite, which
        # the ring's checks and the solvers report; numpy need not warn of it
        with np.errstate(all="ignore"):
            return eval(_code, _EXPR_NAMESPACE, {"s": np.asarray(s, dtype=float)})

    return fn


def _ring(cfg: SimpleNamespace, mus: list[float] | None = None) -> RingSystem:
    """The ring at the one --mu, or at the first of a grid's ``mus`` that
    ``RingSystem`` rejects (mu^2 overflows, or h or h' is not finite there),
    else at the first: one array call of h and h' checks the whole grid as a
    ring checks its one mu."""
    mus = mus or _mu_values(cfg)
    if cfg.n is None:
        raise ConfigError("--n is required")
    try:
        potential = _build_potential(cfg)
        s = []
        for mu in mus:   # a Python float, so that an overflow raises
            try:
                s.append(mu ** 2)
            except OverflowError:
                break
        with np.errstate(all="ignore"):
            finite = np.isfinite(potential.h(np.array(s))) \
                & np.isfinite(potential.h_prime(np.array(s)))
        i = next((i for i, ok in enumerate(np.broadcast_to(finite, len(s))) if not ok), len(s))
        # RingSystem raises at mus[i], unless no mu overflows (i = len(mus)) either
        return RingSystem(n=cfg.n, mu=mus[i if i < len(mus) else 0], potential=potential)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _mu_values(cfg: SimpleNamespace) -> list[float]:
    if cfg.mu is not None and cfg.mu_range:
        raise ConfigError("--mu and --mu-range are mutually exclusive")
    if cfg.mu_range:
        try:
            a, b, count = cfg.mu_range.split(":")
            a, b, count = float(a), float(b), int(count)
        except ValueError as exc:
            raise ConfigError("--mu-range must be start:stop:count") from exc
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ConfigError(f"--mu-range endpoints must be finite, got {cfg.mu_range}")
        if count < 1 or not (0 < a <= b):
            raise ConfigError("empty or invalid mu range")
        return [float(m) for m in np.linspace(a, b, count)]
    if cfg.mu is None:
        takes_range = cfg.command in _OPTIONS["mu_range"][2]
        raise ConfigError("either --mu or --mu-range is required" if takes_range
                          else "--mu is required")
    return [cfg.mu]


def _report(cfg: SimpleNamespace, payload) -> dict:
    return {"schema_version": SCHEMA_VERSION, "config": vars(cfg),
            "payload": payload}


def _point_records(n: int, mus: list[float], result, keep) -> _PointRecords:
    """The records of the points of a ``classify._classify`` result that its
    ``points(keep)`` selects, in the order of their mu."""
    i, k, root, nu, period, eta, regime, note = result.points(keep)
    label = [IsotropyLabel(n=n, k=kk).label for kk in range(n)]
    return _PointRecords((note, eta, list(map(label.__getitem__, k)), k,
                          list(map(mus.__getitem__, i)), nu, period, regime, root))


def _bifurcation_rows(n: int, cells: list[str], labels: list[str], mu: float, stable: bool,
                      nu, eta, regime, modes) -> list[str]:
    """The CSV rows of one mu as text, one per mode k in ``modes`` with both
    roots side by side, from the (n - 1, 2) ``nu`` and ``eta`` of a
    ``classify._classify`` result (eta 0 where no point is kept), the
    per-mode ``regime`` and each mode's alpha,gamma,delta text and label."""
    nus, etas, tags = nu.tolist(), eta.tolist(), regime.tolist()
    mu, stable = _fmt(mu), "true" if stable else "false"
    rows = []
    for k in modes:
        (nu_minus, nu_plus), (eta_minus, eta_plus) = nus[k - 1], etas[k - 1]
        roots = (f"{_fmt(nu_minus) if eta_minus else ''},{_fmt(nu_plus) if eta_plus else ''},"
                 f"{eta_minus or ''},{eta_plus or ''}")
        regime = classify._REGIMES[tags[k - 1]] if eta_minus or eta_plus else ""
        rows.append(f"{n},{k},{mu},{cells[k - 1]},{roots},{labels[k - 1]},{regime},{stable}")
    return rows


# ---------------------------------------------------------------------------
# subcommands


def cmd_equilibrium(cfg: SimpleNamespace):
    ring = _ring(cfg)
    a_bar, omega = standing_wave(ring)
    res = float(np.abs(gradient_V(ring, a_bar)).max())
    payload = {
        "a_bar": [[float(a_bar[2 * j]), float(a_bar[2 * j + 1])] for j in range(ring.n)],
        "omega": omega,
        "gradient_residual": res,
    }
    rows = [",".join(map(_csv_cell, (j + 1, a_bar[2 * j], a_bar[2 * j + 1])))
            for j in range(ring.n)]
    return _report(cfg, payload), ["j", "re", "im"], rows, _EXIT_OK


def cmd_blocks(cfg: SimpleNamespace):
    ring = _ring(cfg)
    n = ring.n
    # alpha, gamma and delta of k = 1..n: the table, then the full mode k = n
    table, full = blocks._coefficient_table(n), blocks.coefficients(n, n)
    alpha = table.alpha.tolist() + [full.alpha]
    gamma = table.gamma.tolist() + [full.gamma]
    delta = [None if math.isnan(d) else d for d in table.delta.tolist()] + [full.delta]
    # near the float limit the Hessian, its blocks or their check overflow;
    # that is reported as one numerical failure, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        # the mode blocks of P^* D2V(a) P are sum_m e^(i k m zeta) mean_j d_m(j)
        # (k zeta reduced mod 2 pi), and by Parseval the norm of everything
        # off them is that of the d_m(j) about their means
        d = blocks._rotated_diagonals(ring)
        mean = d.mean(axis=-1)
        turn = np.exp(2j * np.pi * (np.arange(1, n + 1) % n) / n)[:, None, None]
        extracted = mean[1] + turn * mean[2] + turn.conj() * mean[0]
        off_block = float(np.sqrt(((d - mean[..., None]) ** 2).sum()))
        # block_B of every mode, by its formula and with mu^2 h'(mu^2) evaluated once
        B = -np.array(alpha)[:, None, None] * np.eye(2, dtype=complex) \
            + np.array(gamma)[:, None, None] * blocks.IJ
        B[:, 0, 0] += 2.0 * blocks.mu_h_prime(ring)
        extract_err = np.abs(B - extracted).max(axis=(1, 2))
    if not (np.isfinite(B).all() and np.isfinite(extract_err).all()
            and math.isfinite(off_block)):
        raise FloatingPointError(f"the mode blocks at mu = {ring.mu!r} or their extraction "
                                 "from the Hessian overflow")
    extract_err = extract_err.tolist()
    records, rows = [], []
    for k, a, g, d, b_re, b_im, err in zip(range(1, n + 1), alpha, gamma, delta,
                                           B.real.tolist(), B.imag.tolist(), extract_err):
        records.append({
            "k": k, "alpha": a, "gamma": g, "delta": d,
            "B": [[[b_re[i][j], b_im[i][j]] for j in range(2)] for i in range(2)],
            "extract_residual": err,
        })
        if cfg.format == "csv":
            rows.append(",".join(map(_csv_cell, (k, a, g, "-" if d is None else d,
                                                 b_re[0][0], b_im[0][1], b_re[1][1], err))))
    payload = {"mu": ring.mu, "blocks": records, "off_block_residual": off_block}
    header = ["k", "alpha", "gamma", "delta", "B00_re", "B01_im", "B11_re",
              "extract_residual"]
    return _report(cfg, payload), header, rows, _EXIT_OK


def _classify_mus(cfg: SimpleNamespace):
    """The requested mus, their ``classify._classify`` result (one array pass
    over the grid), the {"mu", "k"} records of the degenerate ones and the
    exit code: 3 when every mu is degenerate.  The one amplitude pass of
    bifurcations and sweep."""
    mus = _mu_values(cfg)
    result = classify._classify(cfg.n, _ring(cfg, mus).potential, mus)
    excluded = [{"mu": mu, "k": k}
                for mu, k in zip(mus, result.degenerate_k.tolist()) if k]
    return mus, result, excluded, _EXIT_OK if len(excluded) < len(mus) \
        else _EXIT_ALL_DEGENERATE


def _csv_rows(cfg: SimpleNamespace, mus, result, keep, modes) -> list[str]:
    """The CSV rows of the amplitudes that are not degenerate, for the modes
    in ``modes``, with the points that the (mu, k - 1, root) mask ``keep``
    selects."""
    table = blocks._coefficient_table(cfg.n)
    cells = [f"{_fmt(alpha)},{_fmt(gamma)},{'-' if math.isnan(delta) else _fmt(delta)}"
             for alpha, gamma, delta in zip(*table)]
    labels = [IsotropyLabel(n=cfg.n, k=k).label for k in range(1, cfg.n)]
    eta = np.where(keep, result.eta, 0)
    return [row for i, (mu, stable) in enumerate(zip(mus, result.stable.tolist()))
            if not result.degenerate_k[i]
            for row in _bifurcation_rows(cfg.n, cells, labels, mu, stable, result.nu[i],
                                         eta[i], result.regime[i], modes)]


def cmd_bifurcations(cfg: SimpleNamespace):
    mus, result, excluded, code = _classify_mus(cfg)
    n = cfg.n
    if cfg.k is not None and not 1 <= cfg.k <= n - 1:
        raise ConfigError(f"--k must be in 1..{n - 1}, got {cfg.k}")
    keep = True
    if cfg.k is not None:
        keep = (np.arange(1, n) == cfg.k)[:, None]
    if cfg.nu_min is not None:
        keep = keep & (result.nu >= cfg.nu_min)
    if cfg.nu_max is not None:
        keep = keep & (result.nu <= cfg.nu_max)
    if cfg.format == "csv":
        modes = range(1, n) if cfg.k is None else [cfg.k]
        return None, CSV_COLUMNS, _csv_rows(cfg, mus, result, keep, modes), code
    payload = {"points": _point_records(n, mus, result, keep), "excluded": excluded}
    return _report(cfg, payload), CSV_COLUMNS, [], code


def cmd_stability(cfg: SimpleNamespace):
    ring = _ring(cfg)
    verdict = blocks.linear_stability(ring)
    oracle = float(np.abs(blocks.full_spectrum_oracle(ring).real).max())
    payload = {
        "stable": verdict.stable,
        "margin": verdict.margin,
        "method": verdict.method,
        "oracle_max_real_part": oracle,
        "oracle_agrees": verdict.stable == (oracle <= 1e-8),
    }
    rows = [",".join(map(_csv_cell, (ring.n, ring.mu, verdict.stable, verdict.margin,
                                     verdict.method, oracle)))]
    header = ["n", "mu", "stable", "margin", "method", "oracle_max_real_part"]
    return _report(cfg, payload), header, rows, _EXIT_OK


def cmd_verify(cfg: SimpleNamespace):
    ring = _ring(cfg)
    if cfg.k is None or cfg.branch is None:
        raise ConfigError("verify needs --k and --branch")
    if cfg.k == ring.n:
        raise ConfigError("k = n carries no bifurcation with full symmetry")
    points = classify.enumerate_bifurcations(ring)
    matches = [pt for pt in points if pt.k == cfg.k and pt.root == cfg.branch]
    if not matches:
        raise ConfigError(
            f"no {cfg.branch}-branch bifurcation point for k = {cfg.k} at mu = {ring.mu}")
    bif = matches[0]
    try:   # only the arguments raise; every numerical end is a termination
        branch = orbits.continue_branch(ring, bif, steps=cfg.steps, ds=cfg.ds,
                                        p_max=cfg.p_max)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    failure = branch.reason or None
    point_records = []
    rows = []
    for bp in branch.points:
        sym = traveling_wave_residual(bp.orbit, cfg.k)
        point_records.append({
            "amplitude": bp.amplitude, "nu": bp.nu,
            "residual": bp.orbit.residual_norm,
            "symmetry_residual": sym,
        })
        rows.append(",".join(map(_csv_cell, (bp.amplitude, bp.nu, bp.orbit.residual_norm,
                                             sym))))
    extrapolated = orbits.extrapolate_nu_to_zero(branch) if branch.points else None
    passed = (failure is None and extrapolated is not None
              and abs(extrapolated - bif.nu) <= 1e-4)
    payload = {
        "k": cfg.k, "branch": cfg.branch, "predicted_nu": bif.nu,
        "points": point_records,
        "extrapolated_nu": extrapolated,
        "tolerance": 1e-4,
        "passed": passed,
        "termination": branch.termination,
        "failure": failure,
    }
    header = ["amplitude", "nu", "residual", "symmetry_residual"]
    return _report(cfg, payload), header, rows, _EXIT_OK if failure is None else _EXIT_NUMERICAL


def _regimes_json(report: classify.RegimeReport) -> dict:
    return {
        "n": report.n,
        "potential": report.potential_kind,
        "entries": [{
            "k": e.k, "condition": e.condition,
            "mu_interval": e.mu_interval,
            "two_sided": e.two_sided, "mirror_of": e.mirror_of,
        } for e in report.entries],
        "excluded": [{"k": k, "mu": mu} for k, mu in report.excluded],
        "stability": report.stability,
        "notes": list(report.notes),
    }


def cmd_sweep(cfg: SimpleNamespace):
    if not cfg.mu_range:
        raise ConfigError("sweep needs --mu-range")
    mus, result, excluded, code = _classify_mus(cfg)
    if cfg.format == "csv":
        return None, CSV_COLUMNS, _csv_rows(cfg, mus, result, True, range(1, cfg.n)), code
    regimes = {"cubic": classify.schrodinger_regimes,
               "saturable": classify.saturable_regimes}.get(cfg.potential)
    kept, count = result.degenerate_k == 0, np.count_nonzero(result.eta, axis=(1, 2))
    samples = _Samples(*([value for value, keep in zip(column, kept.tolist()) if keep]
                         for column in (mus, result.stable.tolist(), count.tolist())),
                       _point_records(cfg.n, mus, result, True))
    payload = {"regimes": _regimes_json(regimes(cfg.n)) if regimes else None,
               "samples": samples, "excluded": excluded}
    return _report(cfg, payload), CSV_COLUMNS, [], code


# ---------------------------------------------------------------------------
# argument handling


_COMMANDS = {
    "equilibrium": ("rotating-wave equilibrium and residual", cmd_equilibrium),
    "blocks": ("mode-block coefficients and matrices", cmd_blocks),
    "bifurcations": ("forced bifurcation points", cmd_bifurcations),
    "stability": ("linear stability verdict with spectral cross-check", cmd_stability),
    "verify": ("continue a branch and verify the predicted frequency", cmd_verify),
    "sweep": ("regime report and bifurcation counts over a mu range", cmd_sweep),
}
_ALL = tuple(_COMMANDS)

# every option once, in --help order: (type, default, subcommands, choices)
_OPTIONS = {
    "n": (int, None, _ALL, None),
    "potential": (str, "cubic", _ALL, ("cubic", "saturable", "custom")),
    "h_expr": (str, None, _ALL, None),
    "h_prime_expr": (str, None, _ALL, None),
    "g_expr": (str, None, _ALL, None),
    "mu": (float, None, tuple(c for c in _ALL if c != "sweep"), None),
    "format": (str, "json", _ALL, ("json", "csv")),
    "out": (str, None, _ALL, None),
    "config": (str, None, _ALL, None),
    "mu_range": (str, None, ("bifurcations", "sweep"), None),
    "k": (int, None, ("bifurcations", "verify"), None),
    "nu_min": (float, None, ("bifurcations",), None),
    "nu_max": (float, None, ("bifurcations",), None),
    "branch": (str, None, ("verify",), ("plus", "minus")),
    "steps": (int, 24, ("verify",), None),
    "ds": (float, 0.03, ("verify",), None),
    "p_max": (int, 256, ("verify",), None),
}


@functools.cache   # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnlsring",
        description="Bifurcation analysis of a ring of coupled dNLS oscillators")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in _COMMANDS.items():
        # no prefix matching: sweep's --mu would otherwise be its --mu-range
        sp = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for key, (kind, _, commands, choices) in _OPTIONS.items():
            if command in commands:
                sp.add_argument("--" + key.replace("_", "-"), type=kind, choices=choices)
    return parser


def _load_config_file(path: str, command: str) -> dict:
    """A config file's options, each parsed and checked as its flag is."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                where = f"{path}:{line_no}"
                if "=" not in line:
                    raise ConfigError(f"{where}: expected KEY=VALUE")
                key, value = (part.strip() for part in line.split("=", 1))
                key = key.replace("-", "_")
                if key not in _OPTIONS:
                    raise ConfigError(f"{where}: unknown key {key!r}")
                kind, _, commands, choices = _OPTIONS[key]
                if key == "config":
                    raise ConfigError(f"{where}: config is given as the --config flag only")
                if command not in commands:
                    raise ConfigError(f"{where}: {command} does not take {key}")
                try:
                    values[key] = kind(value)
                except ValueError:
                    raise ConfigError(f"{where}: {key} must be {kind.__name__}, "
                                      f"got {value!r}") from None
                if choices and values[key] not in choices:
                    raise ConfigError(f"{where}: {key} must be one of "
                                      f"{', '.join(choices)}, got {value!r}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return values


def _merge_config(ns: argparse.Namespace) -> SimpleNamespace:
    """Each option from its flag, else the config file, else its default."""
    file_values = _load_config_file(ns.config, ns.command) if ns.config else {}
    flags = {key: getattr(ns, key, None) for key in _OPTIONS}
    return SimpleNamespace(command=ns.command, **{
        key: file_values.get(key, default) if flags[key] is None else flags[key]
        for key, (_, default, _, _) in _OPTIONS.items()})


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return _EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        cfg = _merge_config(ns)
        report, header, rows, code = _COMMANDS[ns.command][1](cfg)
        if cfg.format == "json":
            text = _to_json(report)
        else:
            text = _to_csv(header, rows)
        if cfg.out:
            try:
                with open(cfg.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write {cfg.out}: {exc.strerror}") from exc
        else:
            sys.stdout.write(text)
    except (ConfigError, MemoryError) as exc:   # an input too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except classify.DegenerateAmplitude as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ALL_DEGENERATE
    except (blocks.SearchRangeExhausted, blocks.BrokenReflection, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    return code


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
