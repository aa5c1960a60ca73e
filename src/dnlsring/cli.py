"""Command-line front end.

Subcommands: equilibrium | blocks | bifurcations | stability | verify | sweep.
Reports are emitted as JSON (default) or CSV, with sorted keys and fixed
17-significant-digit float formatting so identical configurations produce
byte-identical output.

Every subcommand takes --n, --potential, --h-expr, --h-prime-expr, --g-expr,
--format, --out and --config, and every one but sweep takes --mu.  Only
bifurcations and sweep take a --mu-range (sweep requires one), which
excludes --mu; equilibrium, blocks, stability and verify report on one
amplitude.  bifurcations filters its
points with --k (1..n-1), --nu-min and --nu-max; its CSV then has the row of
mode k alone, and the roots that --nu-min and --nu-max remove are blank in
their rows.  verify takes --k, --branch, --steps, --ds and --p-max.
``_OPTIONS`` declares every option once: its type, default, subcommands and
choices.

A config file (--config, a flag only) holds one ``KEY = VALUE`` per line,
with ``#`` comments and ``-`` or ``_`` in keys.  It takes the subcommand's own
options only, each checked as its flag is; a flag overrides the file, and
the file overrides the default.  Flags are never abbreviated.

Exit codes: 0 success (possibly with an empty payload), 2 invalid input,
3 every requested amplitude is degenerate, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import ast
import functools
import math
import sys
from types import SimpleNamespace

import numpy as np

from . import blocks, classify, orbits
from .model import (RingSystem, cubic_potential, custom_potential,
                    gradient_V, hessian_V, saturable_potential, standing_wave)
from .symmetry import IsotropyLabel, assemble_P, block_extract, symmetry_residual

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


@functools.lru_cache(maxsize=256)
def _json_str(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


class _PointRecords:
    """Bifurcation point records held as columns, one list per JSON key in
    key order; the writer renders every record from one template."""

    KEYS = ("admissibility_note", "eta", "isotropy", "k", "mu", "nu", "period",
            "regime", "root")
    __slots__ = ("columns",)

    def __init__(self, columns: tuple[list, ...]):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, rows: slice) -> _PointRecords:
        return _PointRecords(tuple(column[rows] for column in self.columns))

    def dicts(self) -> list[dict]:
        return [dict(zip(self.KEYS, row)) for row in zip(*self.columns)]


@functools.lru_cache(maxsize=8)
def _point_template(pad: str) -> str:
    inner = pad + "  "
    spec = {"eta": "%d", "k": "%d", "mu": "%.17g", "nu": "%.17g", "period": "%.17g"}
    return ("{\n" + ",\n".join(f'{inner}"{key}": {spec.get(key, "%s")}'
                                for key in _PointRecords.KEYS) + "\n" + pad + "}")


def _json_points(points: _PointRecords, pad: str, out: list) -> None:
    """``_json_list`` of ``points.dicts()`` in fewer steps: %.17g is ``_fmt``
    for every float but +-inf, which takes the long way."""
    note, eta, isotropy, k, mu, nu, period, regime, root = points.columns
    if not k or any(map(math.isinf, mu + nu + period)):
        _json_list(points.dicts(), pad, out)
        return
    inner = pad + "  "
    template = _point_template(inner)
    quoted = [list(map(_json_str, column)) for column in (note, isotropy, regime, root)]
    rows = zip(quoted[0], eta, quoted[1], k, mu, nu, period, quoted[2], quoted[3])
    out.append("[\n" + inner + (",\n" + inner).join([template % row for row in rows])
               + "\n" + pad + "]")


def _json_dict(obj: dict, pad: str, out: list) -> None:
    if not obj:
        out.append("{}")
        return
    inner = pad + "  "
    sep = "{\n"
    for key in sorted(obj):
        out.append(f'{sep}{inner}"{key}": ')
        _json_write(obj[key], inner, out)
        sep = ",\n"
    out.append("\n" + pad + "}")


def _json_list(obj, pad: str, out: list) -> None:
    if not obj:
        out.append("[]")
        return
    inner = pad + "  "
    sep = "[\n"
    for item in obj:
        out.append(sep + inner)
        _json_write(item, inner, out)
        sep = ",\n"
    out.append("\n" + pad + "]")


# (types, writer) in the order a value is matched
_JSON_KINDS = (
    (_PointRecords, _json_points),
    (dict, _json_dict),
    ((list, tuple), _json_list),
    ((bool, np.bool_), lambda obj, pad, out: out.append("true" if obj else "false")),
    (type(None), lambda obj, pad, out: out.append("null")),
    ((int, np.integer), lambda obj, pad, out: out.append(str(int(obj)))),
    ((float, np.floating), lambda obj, pad, out: out.append(_json_float(obj))),
    (str, lambda obj, pad, out: out.append(_json_str(obj))),
)


@functools.cache
def _json_writer(kind: type):
    for types, write in _JSON_KINDS:
        if issubclass(kind, types):
            return write
    raise TypeError(f"cannot serialize {kind}")


def _json_write(obj, pad: str, out: list) -> None:
    _json_writer(type(obj))(obj, pad, out)


def _to_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits,
    +-inf as the strings "inf" and "-inf", two spaces per level.  One walk
    dispatches on each value's type; point records render from one template."""
    out: list[str] = []
    _json_write(obj, "", out)
    return "".join(out)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return _fmt(v)
    return str(v)


def _to_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


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


def _point_records(n: int, mus: list[float], result, keep) -> tuple[list[int], _PointRecords]:
    """The points of a ``classify._classify`` result that its ``points(keep)``
    selects: the index of each one's mu, in non-decreasing order, and their
    records."""
    i, k, root, nu, period, eta, regime, note = result.points(keep)
    label = [IsotropyLabel(n=n, k=kk).label for kk in range(n)]
    return i, _PointRecords((note, eta, [label[kk] for kk in k], k, [mus[ii] for ii in i],
                             nu, period, regime, root))


def _bifurcation_rows(n: int, cells: list[list[str]], mu: float, stable: bool, nu, eta,
                      regime, modes) -> list[list]:
    """CSV rows of one mu, one per mode k in ``modes`` with both roots side
    by side, from the (n - 1, 2) ``nu`` and ``eta`` of a ``classify._classify``
    result (eta 0 where no point is kept), the per-mode ``regime`` and the
    alpha, gamma and delta cells of each mode."""
    nus, etas, tags = nu.tolist(), eta.tolist(), regime.tolist()
    rows = []
    for k in modes:
        (nu_minus, nu_plus), (eta_minus, eta_plus) = nus[k - 1], etas[k - 1]
        rows.append([
            n, k, mu, *cells[k - 1],
            nu_minus if eta_minus else None, nu_plus if eta_plus else None,
            eta_minus or None, eta_plus or None, f"Z~_{n}({k})",
            classify._REGIMES[tags[k - 1]] if eta_minus or eta_plus else "", stable,
        ])
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
    rows = [[j + 1, a_bar[2 * j], a_bar[2 * j + 1]] for j in range(ring.n)]
    return _report(cfg, payload), ["j", "re", "im"], rows, _EXIT_OK


def cmd_blocks(cfg: SimpleNamespace):
    ring = _ring(cfg)
    n = ring.n
    # alpha, gamma and delta of k = 1..n: the table, then the full mode k = n
    table, full = blocks._coefficient_table(n), blocks.coefficients(n, n)
    alpha = table.alpha.tolist() + [full.alpha]
    gamma = table.gamma.tolist() + [full.gamma]
    delta = [d if has else None for d, has
             in zip(table.delta.tolist(), table.has_delta.tolist())] + [full.delta]
    # near the float limit the Hessian, its blocks or their check overflow;
    # that is reported as one numerical failure, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        decomp = block_extract(assemble_P(n), hessian_V(ring, standing_wave(ring)[0]))
        # block_B of every mode, by its formula and with mu^2 h'(mu^2) evaluated once
        B = -np.array(alpha)[:, None, None] * np.eye(2, dtype=complex) \
            + np.array(gamma)[:, None, None] * blocks.IJ
        B[:, 0, 0] += 2.0 * blocks.mu_h_prime(ring)
        extract_err = np.abs(B - decomp.blocks).max(axis=(1, 2))
    if not (np.isfinite(B).all() and np.isfinite(extract_err).all()
            and math.isfinite(decomp.off_block_residual)):
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
        rows.append([k, a, g, "-" if d is None else _fmt(d),
                     _fmt(b_re[0][0]), _fmt(b_im[0][1]), _fmt(b_re[1][1]), err])
    payload = {"mu": ring.mu, "blocks": records,
               "off_block_residual": decomp.off_block_residual}
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


def _csv_rows(cfg: SimpleNamespace, mus, result, keep, modes) -> list[list]:
    """The CSV rows of the amplitudes that are not degenerate, for the modes
    in ``modes``, with the points that the (mu, k - 1, root) mask ``keep``
    selects; none for JSON output."""
    if cfg.format != "csv":
        return []
    table = blocks._coefficient_table(cfg.n)
    cells = [[_fmt(alpha), _fmt(gamma), _fmt(delta) if has_delta else "-"]
             for alpha, gamma, delta, has_delta in zip(*table)]
    eta = np.where(keep, result.eta, 0)
    return [row for i, (mu, stable) in enumerate(zip(mus, result.stable.tolist()))
            if not result.degenerate_k[i]
            for row in _bifurcation_rows(cfg.n, cells, mu, stable, result.nu[i], eta[i],
                                         result.regime[i], modes)]


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
    _, records = _point_records(n, mus, result, keep)
    payload = {"points": records, "excluded": excluded}
    modes = range(1, n) if cfg.k is None else [cfg.k]
    return _report(cfg, payload), CSV_COLUMNS, _csv_rows(cfg, mus, result, keep, modes), code


def cmd_stability(cfg: SimpleNamespace):
    ring = _ring(cfg)
    verdict = blocks.linear_stability(ring)
    spectrum = blocks.full_spectrum_oracle(ring)
    oracle = blocks.spectrum_max_real(spectrum)
    payload = {
        "stable": verdict.stable,
        "margin": verdict.margin,
        "method": verdict.method,
        "oracle_max_real_part": oracle,
        "oracle_agrees": verdict.stable == (oracle <= 1e-8),
    }
    rows = [[ring.n, ring.mu, verdict.stable, verdict.margin, verdict.method, oracle]]
    header = ["n", "mu", "stable", "margin", "method", "oracle_max_real_part"]
    return _report(cfg, payload), header, rows, _EXIT_OK


def cmd_verify(cfg: SimpleNamespace):
    ring = _ring(cfg)
    if cfg.k is None or cfg.branch is None:
        raise ConfigError("verify needs --k and --branch")
    if cfg.k == ring.n:
        raise ConfigError("k = n carries no bifurcation with full symmetry")
    # continue_branch starts at Fourier order 8
    if cfg.steps < 1 or not cfg.ds > 0 or cfg.p_max < 8:
        raise ConfigError("verify needs steps >= 1, ds > 0 and p_max >= 8, got "
                          f"{cfg.steps}, {cfg.ds}, {cfg.p_max}")
    points = classify.enumerate_bifurcations(ring)
    matches = [pt for pt in points if pt.k == cfg.k and pt.root == cfg.branch]
    if not matches:
        raise ConfigError(
            f"no {cfg.branch}-branch bifurcation point for k = {cfg.k} at mu = {ring.mu}")
    bif = matches[0]
    exit_code = _EXIT_OK
    try:
        branch = orbits.continue_branch(ring, bif, steps=cfg.steps, ds=cfg.ds,
                                        p_max=cfg.p_max)
        failure = None
    except (orbits.NoConvergence, orbits.SingularJacobian) as exc:
        branch = orbits.ContinuationBranch(origin=bif, points=[],
                                           termination="solver-error")
        failure = str(exc)
        exit_code = _EXIT_NUMERICAL
    if branch.termination == "step-failure":
        exit_code = _EXIT_NUMERICAL
        failure = "continuation stopped early after repeated step halvings"
    point_records = []
    rows = []
    for bp in branch.points:
        sym = symmetry_residual(bp.orbit, cfg.k)
        point_records.append({
            "amplitude": bp.amplitude, "nu": bp.nu,
            "residual": bp.orbit.residual_norm,
            "symmetry_residual": max(sym.pattern, sym.norms),
        })
        rows.append([bp.amplitude, bp.nu, bp.orbit.residual_norm,
                     max(sym.pattern, sym.norms)])
    extrapolated = orbits.extrapolate_nu_to_zero(branch) if branch.points else None
    passed = (extrapolated is not None
              and abs(extrapolated - bif.nu) <= 1e-4
              and exit_code == _EXIT_OK)
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
    return _report(cfg, payload), header, rows, exit_code


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
    regimes = {"cubic": classify.schrodinger_regimes,
               "saturable": classify.saturable_regimes}.get(cfg.potential)
    i, records = _point_records(cfg.n, mus, result, True)
    bounds = np.searchsorted(i, np.arange(len(mus) + 1)).tolist()
    samples = [{"mu": mu, "stable": stable, "count": hi - lo, "points": records[lo:hi]}
               for mu, stable, degenerate, lo, hi
               in zip(mus, result.stable.tolist(), result.degenerate_k.tolist(), bounds,
                      bounds[1:])
               if not degenerate]
    payload = {"regimes": _regimes_json(regimes(cfg.n)) if regimes else None,
               "samples": samples, "excluded": excluded}
    modes = range(1, cfg.n)
    return _report(cfg, payload), CSV_COLUMNS, _csv_rows(cfg, mus, result, True, modes), code


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
            text = _to_json(report) + "\n"
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except classify.DegenerateAmplitude as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ALL_DEGENERATE
    except (orbits.NoConvergence, orbits.SingularJacobian, blocks.SingularBlock,
            blocks.SearchRangeExhausted, blocks.BrokenReflection, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    return code


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
