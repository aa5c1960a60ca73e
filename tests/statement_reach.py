"""Statements of ``src/dnlsring`` that neither tier-1 nor a checked pass of
any benchmark workload reaches.

Not a test module: pytest collects ``test_*.py`` only.  Run it by hand from
the repository root, as ``report_bytes.py`` is run:

    python tests/statement_reach.py

It installs a ``sys.settrace`` line collector restricted to the package's
files, then runs the tier-1 suite in process (``pytest -q`` from the
repository root) and one pass of every workload of ``bench/workloads.py``
(``build(name, 1)``), each checked by the workload's own checker.  The
package is imported only after the collector is installed, so its
module-level statements count too.  A statement, as ``ast`` parses it (an
``except`` clause counts as one), is reached when a line event hits one of
its own lines that has bytecode, the lines it spans less those of the
statements nested in it; a statement with no such line (a docstring, say)
is not counted.  Each unreached statement is printed as ``path:line``.

The exit status is 1 when a statement other than the console-script hook
``cli.entry`` and the ``__main__`` guard is unreached, when the suite fails
or when a workload pass fails or its check does, else 0.
"""

from __future__ import annotations

import ast
import os
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dnlsring"
# the hooks that run only as a program: the console script and ``python -m``
HOOKS = {("cli.py", "entry"), ("cli.py", "__main__")}


def _code_lines(code) -> set[int]:
    """The lines that have bytecode in ``code`` and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _is_unit(node) -> bool:
    return isinstance(node, (ast.stmt, ast.excepthandler))


def _units(tree):
    """(node, own lines, hook name or None) of every statement in ``tree``."""
    def walk(node, hook):
        children = [c for field in ("body", "orelse", "finalbody", "handlers", "cases")
                    for c in getattr(node, field, []) if _is_unit(c)]
        if _is_unit(node):
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            own = set(range(start, node.end_lineno + 1))
            for c in children:
                own -= set(range(c.lineno, c.end_lineno + 1))
            yield node, own, hook
        for c in children:
            yield from walk(c, hook or _hook_name(c))
    for node in tree.body:
        yield from walk(node, _hook_name(node))


def _hook_name(node) -> str | None:
    if isinstance(node, ast.FunctionDef):
        return node.name
    if isinstance(node, ast.If) and "__main__" in ast.unparse(node.test):
        return "__main__"
    return None


def unreached(hits: set[tuple[str, int]]) -> list[tuple[pathlib.Path, int, bool]]:
    """(path, line, is a hook) of every statement of the package that has
    bytecode on its own lines and none of them in ``hits``."""
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = _code_lines(compile(source, str(path), "exec"))
        hit = {line for file, line in hits if file == str(path)}
        for node, own, hook in _units(ast.parse(source)):
            own &= lines
            if own and not own & hit:
                missed.append((path, node.lineno, (path.name, hook) in HOOKS))
    return missed


def _run_suite() -> int:
    import pytest
    os.chdir(ROOT)
    return int(pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]))


def _run_workloads() -> list[str]:
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    failures = []
    for name in workloads.WORKLOADS:
        ops, check = workloads.build(name, 1)
        outputs = {}
        for label, op in ops:
            try:
                outputs[label] = op()
            except Exception as exc:
                failures.append(f"{name} {label}: {type(exc).__name__}: {exc}")
        chk = workloads.Checker()
        try:
            check(outputs, chk)
        except Exception as exc:  # a missing or malformed output is a failed check
            chk.failures.append(f"check raised {type(exc).__name__}: {exc}")
        failures += [f"{name}: {message}" for message in chk.failures]
    return failures


def main() -> int:
    if any(name == "dnlsring" or name.startswith("dnlsring.") for name in sys.modules):
        raise RuntimeError("dnlsring was imported before the collector was installed")
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + os.sep
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def collector(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(collector)
    sys.settrace(collector)
    try:
        suite = _run_suite()
        failures = _run_workloads()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = unreached(hits)
    for path, line, hook in missed:
        print(f"{path.relative_to(ROOT)}:{line}{'  (hook)' if hook else ''}")
    for failure in failures:
        print(f"workload failure: {failure}")
    counted = [m for m in missed if not m[2]]
    print(f"{len(counted)} unreached statements, {len(missed) - len(counted)} hooks; "
          f"suite exit {suite}, {len(failures)} workload failures")
    return 1 if counted or suite or failures else 0


if __name__ == "__main__":
    sys.exit(main())
