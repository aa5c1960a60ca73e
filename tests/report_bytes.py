"""The report-bytes table: CLI invocations and the sha256 of what they print.

``report_bytes.json`` (next to this file) holds, for each invocation in
``INVOCATIONS``, the exit code of ``dnlsring.cli.main`` and the sha256 of
its stdout and its stderr, with the numpy version and the SIMD targets it
was made with: the printed frequencies go through numpy's vectorized sin,
cos and exp, whose last bits can differ between numpy builds and CPUs.
``test_report_bytes.py`` runs every invocation in process and names each
one whose bytes changed.

    python tests/report_bytes.py            # name the invocations that changed
    python tests/report_bytes.py --update   # the same, then rewrite the table

Each invocation runs with a fixed terminal width (argparse wraps its usage
text to it), and a warning it raises is written after its stderr as
``<category>: <message>``.  The exit status is 1 when an invocation changed
(without --update), else 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import warnings

import numpy as np

TABLE = pathlib.Path(__file__).with_name("report_bytes.json")

_SAT = ["--potential", "saturable"]
_SAT_EXPR = ["--potential", "custom", "--h-expr", "1/(1+s)", "--h-prime-expr=-1/(1+s)**2",
             "--g-expr", "log1p(s)"]
_QUINTIC = ["--potential", "custom", "--h-expr", "s+0.1*s**2", "--h-prime-expr", "1+0.2*s"]
_CSV = ["--format", "csv"]

INVOCATIONS = [
    ["equilibrium", "--n", "5", "--mu", "0.4"],
    ["equilibrium", "--n", "8", *_SAT, "--mu", "1.3", *_CSV],
    ["equilibrium", "--n", "6", *_SAT_EXPR, "--mu", "0.7"],
    ["blocks", "--n", "4", "--mu", "0.7"],                                 # delta null
    ["blocks", "--n", "6", *_SAT, "--mu", "1.3", *_CSV],
    ["blocks", "--n", "7", *_QUINTIC, "--mu", "0.9", *_CSV],
    ["blocks", "--n", "256", "--mu", "0.3"],
    ["stability", "--n", "3", "--mu", "0.5", *_CSV],
    ["stability", "--n", "4", "--mu", "0.7"],                              # inf margin
    ["stability", "--n", "8", *_SAT_EXPR, "--mu", "0.9"],
    ["stability", "--n", "8", *_QUINTIC, "--mu", "0.35", *_CSV],
    ["stability", "--n", "256", "--mu", "0.05", *_CSV],
    ["stability", "--n", "256", *_SAT, "--mu", "1.2"],
    ["bifurcations", "--n", "4", "--mu", "0.8"],                           # no points
    ["bifurcations", "--n", "3", "--mu-range", "0.2:2:4", *_CSV],
    ["bifurcations", "--n", "6", "--mu-range", "0.5:1.0:6"],
    ["bifurcations", "--n", "6", "--mu-range", "0.5:1.0:6", *_CSV],
    ["bifurcations", "--n", "9", *_SAT, "--mu-range", "0.3:1.5:5", "--k", "2"],
    ["bifurcations", "--n", "9", *_SAT, "--mu-range", "0.3:1.5:5", "--k", "7", *_CSV],
    ["bifurcations", "--n", "8", *_SAT_EXPR, "--mu-range", "0.2:1.9:4", "--nu-min", "0.5",
     "--nu-max", "2"],
    ["bifurcations", "--n", "8", *_SAT_EXPR, "--mu-range", "0.2:1.9:4", "--nu-min", "0.5",
     "--nu-max", "2", *_CSV],
    ["bifurcations", "--n", "8", *_QUINTIC, "--mu-range", "0.2:0.6:3"],
    ["bifurcations", "--n", "32", *_SAT, "--mu-range", "0.1:2.5:100"],
    ["bifurcations", "--n", "32", "--mu-range", "0.05:0.9:100", *_CSV],
    ["bifurcations", "--n", "12", "--mu-range", "0.1:1.5:30", "--k", "5", "--nu-min", "1",
     *_CSV],
    ["sweep", "--n", "3", "--mu-range", "0.2:2:4"],                        # inf intervals
    ["sweep", "--n", "6", "--mu-range", "0.5:1.0:6", *_CSV],
    ["sweep", "--n", "8", *_SAT_EXPR, "--mu-range", "0.25:1.5:3"],         # regimes null
    ["sweep", "--n", "16", *_SAT, "--mu-range", "0.5:1.5:5"],
    ["sweep", "--n", "32", "--mu-range", "0.02:1.1:250"],
    ["sweep", "--n", "32", *_SAT, "--mu-range", "0.1:2.5:40", *_CSV],
    ["verify", "--n", "6", "--mu", "0.5", "--k", "3", "--branch", "plus", "--steps", "2"],
    ["verify", "--n", "6", "--mu", "0.5", "--k", "2", "--branch", "minus", "--steps", "3",
     *_CSV],
    ["verify", "--n", "5", *_SAT, "--mu", "0.6", "--k", "1", "--branch", "plus", "--steps",
     "2"],
    ["verify", "--n", "6", "--mu", "0.5", "--k", "3", "--branch", "plus"],    # 24 steps
    ["verify", "--n", "3", *_SAT, "--mu", "1.0", "--k", "1", "--branch", "minus", "--steps",
     "8"],                                                                 # p 8 -> 16
    ["verify", "--n", "96", "--mu", "0.3", "--k", "48", "--branch", "plus", "--steps", "3"],
    # exit 2: invalid input, from argparse and from the commands
    ["equilibrium", "--n", "2", "--mu", "0.5"],
    ["stability", "--n", "6", "--mu", "0"],
    ["stability", "--n", "6", "--dt", "0.1"],
    ["sweep", "--n", "6"],
    ["bifurcations", "--n", "6", "--mu", "0.5", "--mu-range", "0.1:0.2:2"],
    ["bifurcations", "--n", "6", "--mu-range", "0.2:0.4:3", "--k", "9"],
    ["equilibrium", "--n", "6", "--potential", "custom", "--h-expr", "__import__('os')",
     "--h-prime-expr", "1", "--mu", "0.5"],
    ["verify", "--n", "6", "--mu", "0.5", "--k", "6", "--branch", "plus"],
    ["verify", "--n", "6", "--mu", "0.5", "--k", "3", "--branch", "plus", "--p-max", "4"],
    # exit 3: every amplitude degenerate
    ["bifurcations", "--n", "6", "--mu", "1.0"],
    ["verify", "--n", "6", "--mu", "1.0", "--k", "3", "--branch", "plus"],
    # exit 4: a numerical failure, or a verify branch that ended with a reason
    ["blocks", "--n", "6", "--mu", "1e154"],
    ["stability", "--n", "6", "--mu", "1e154"],
    ["verify", "--n", "7", "--mu", "1.0657", "--k", "3", "--branch", "minus"],   # nu crosses 0
    ["verify", "--n", "6", "--potential", "custom", "--h-expr", "sqrt(1-s)",
     "--h-prime-expr=-0.5/sqrt(1-s)", "--mu", "0.95", "--k", "3", "--branch", "plus",
     "--p-max", "8"],
]


def environment() -> dict:
    """The numpy version and the SIMD targets its kernels can run here."""
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:   # numpy < 2
        from numpy.core import _multiarray_umath as core
    return {"numpy": np.__version__,
            "simd": [*core.__cpu_baseline__,
                     *(t for t in core.__cpu_dispatch__ if core.__cpu_features__.get(t))]}


def run(argv: list[str]) -> dict:
    """The exit code and the sha256 of stdout and stderr of one in-process
    ``cli.main`` call."""
    from dnlsring import cli

    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(list(argv))
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    for w in caught:
        err.write(f"{w.category.__name__}: {w.message}\n")
    return {"exit": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def name(argv: list[str]) -> str:
    return " ".join(argv)


def changed(table: dict, results: dict) -> list[str]:
    """The invocations whose exit code or bytes differ from the table's,
    each with what differs."""
    lines = []
    for key, got in results.items():
        want = table["invocations"].get(key)
        if want != got:
            what = "not in the table" if want is None else \
                ", ".join(field for field in got if got[field] != want.get(field))
            lines.append(f"{key}: {what}")
    lines += [f"{key}: in the table, no longer run"
              for key in table["invocations"] if key not in results]
    return lines


def main(argv: list[str]) -> int:
    update = argv == ["--update"]
    if argv and not update:
        print(__doc__, file=sys.stderr)
        return 2
    table = json.loads(TABLE.read_text()) if TABLE.exists() else {"invocations": {}}
    results = {name(args): run(args) for args in INVOCATIONS}
    diff = changed(table, results)
    for line in diff:
        print(line)
    if table.get("environment", environment()) != environment():
        print(f"table made with {table['environment']}, this host has {environment()}")
    if update:
        TABLE.write_text(json.dumps({"environment": environment(), "invocations": results},
                                    indent=1) + "\n")
        print(f"wrote {len(results)} invocations to {TABLE.name}")
        return 0
    return 1 if diff else 0


if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main(sys.argv[1:]))
