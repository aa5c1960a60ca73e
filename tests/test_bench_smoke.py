"""One checked pass of every benchmark workload.

Each workload's operations run once at seed 1, as ``bench/worker.py`` runs
its warm-up pass, and the workload's own checks must record no failure.
This catches a library change that breaks a direct benchmark call or its
check without starting the timed benchmark.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_pass_is_checked_clean(name):
    ops, check = workloads.build(name, 1)
    outputs = {label: op() for label, op in ops}
    chk = workloads.Checker()
    check(outputs, chk)
    assert chk.failures == []
