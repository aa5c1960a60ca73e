"""One checked pass of every benchmark workload, and one traced pass.

Each workload's operations run once at seed 1, as ``bench/worker.py`` runs
its warm-up pass, and the workload's own checks must record no failure.
This catches a library change that breaks a direct benchmark call or its
check without starting the timed benchmark.  The traced pass catches a
change that renames or deletes a function named by a per-layer metric of
``BENCHMARK.json``, which would end a traced benchmark run.
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_pass_is_checked_clean(name):
    ops, check = workloads.build(name, 1)
    outputs = {label: op() for label, op in ops}
    chk = workloads.Checker()
    check(outputs, chk)
    assert chk.failures == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_measures_every_per_layer_metric(name):
    # quality.* comes from the checks and trace.* from the timed passes,
    # not from spans
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        wanted = [m["name"] for m in json.load(fh)["per_layer"]
                  if not m["name"].startswith(("quality.", "trace."))]
    ops, _ = workloads.build(name, 1)
    tracer = Tracer()
    tracer.install()
    try:
        for _, op in ops:
            op()
    finally:
        tracer.uninstall()
    measured = worker.per_layer(tracer, [0])
    assert [m for m in wanted if m not in measured] == []
