"""The report bytes of the CLI against the table in ``report_bytes.json``.

A change that alters report bytes on purpose regenerates the table with
``python tests/report_bytes.py --update``.  On a host whose numpy version or
SIMD targets differ from the table's, the test still runs every invocation:
it passes if the bytes agree, and otherwise fails with the changed
invocations and both environments, since the last bits of numpy's
vectorized sin, cos and exp may then differ.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import report_bytes


def test_report_bytes_match_the_table():
    table = json.loads(report_bytes.TABLE.read_text())
    results = {report_bytes.name(argv): report_bytes.run(argv)
               for argv in report_bytes.INVOCATIONS}
    changed = report_bytes.changed(table, results)
    here = report_bytes.environment()
    where = "" if table["environment"] == here else \
        f"\nthe table was made with {table['environment']}, this host has {here}"
    assert not changed, "report bytes changed:\n" + "\n".join(changed) + where


@pytest.mark.parametrize("threads", ["1", "2"])
def test_report_bytes_do_not_depend_on_the_blas_thread_count(threads):
    script = pathlib.Path(report_bytes.__file__)
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
    assert done.returncode == 0, done.stdout + done.stderr
