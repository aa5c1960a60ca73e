"""One workload run in one process: warm-up, timed passes, checks.

Started by run.py with one BLAS/OpenMP thread and ``src`` on the path;
prints one JSON object as its last line.  With ``--setup-only`` it imports
dnlsring, builds the workload's inputs and exits, which is what run.py
times as ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import workloads  # noqa: E402  (imports dnlsring)

MIN_PASSES = 3
MIN_TRACED_PASSES = 2  # and as many untraced passes before them
PROBE_EVERY = 0.25

_PROBE_RNG = np.random.default_rng(0)
_PROBE_MATRIX = _PROBE_RNG.normal(size=(96, 96))
_PROBE_SIGNAL = _PROBE_RNG.normal(size=(128, 384)) + 0j


def probe() -> tuple[float, float, float]:
    """Fixed host probe: seconds of (stdlib loop, LAPACK, FFT) work.

    None of it touches dnlsring, so a slow host period shows here and not as
    a change in the program.  The three parts stand for the interpreter,
    dense linear algebra and the memory-bound array work of the workloads.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(150000):
        acc += (i * 7) % 13
    t1 = time.perf_counter()
    for _ in range(3):
        np.linalg.eigvals(_PROBE_MATRIX)
        np.linalg.solve(_PROBE_MATRIX, _PROBE_MATRIX[0])
    t2 = time.perf_counter()
    for _ in range(10):
        np.fft.ifft(np.fft.fft(_PROBE_SIGNAL, axis=0), axis=0)
    t3 = time.perf_counter()
    return t1 - t0, t2 - t1, t3 - t2


def run_pass(ops, probes=None):
    """Run every operation once; returns (outputs, failure messages, wall
    seconds, CPU seconds, relative time of each operation).

    With a ``probes`` list, a probe is appended after the last operation and
    after any operation that ends PROBE_EVERY seconds or more after the last
    probe, so the host is sampled during long passes too.  An operation's
    relative time is its wall time over the mean of the probes either side
    of it.  Probe time is not counted in the pass's wall or CPU time.
    """
    outputs, failures, spans = {}, [], []
    wall = cpu = since_probe = 0.0
    for i, (label, op) in enumerate(ops):
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            outputs[label] = op()
        except Exception as exc:  # one failed operation must not end the run
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - w0
        wall += elapsed
        cpu += time.process_time() - c0
        since_probe += elapsed
        if probes is not None:
            # the probe before the operation, and the next one taken
            spans.append((label, elapsed, len(probes) - 1, len(probes)))
            if since_probe >= PROBE_EVERY or i == len(ops) - 1:
                probes.append(probe())
                since_probe = 0.0
    op_rel = {label: t / (0.5 * (sum(probes[a]) + sum(probes[b])))
              for label, t, a, b in spans}
    return outputs, failures, wall, cpu, op_rel


def _fingerprint(value):
    return value if isinstance(value, str) else pickle.dumps(value)


def timed_passes(ops, seconds, reference, min_passes, tracer=None):
    """Passes until ``seconds`` have elapsed.  Each pass's host speed is the
    mean of the probe before it and the probes taken during it; each
    operation's relative time is kept too.  Returns per-pass records, failed
    operations and outputs that differ from the reference pass."""
    records, failures, mismatches = [], [], []
    probes = [probe()]
    deadline = time.perf_counter() + seconds
    while len(records) < min_passes or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.run_id = len(records)
        first = len(probes) - 1
        outputs, failed, wall, cpu, op_rel = run_pass(ops, probes)
        failures += failed
        for label, value in outputs.items():
            if label in reference and _fingerprint(value) != reference[label]:
                mismatches.append(f"{label}: output differs from the warm-up pass")
        around = probes[first:]
        parts = [statistics.fmean(p[i] for p in around) for i in range(3)]
        records.append({"wall_s": wall, "cpu_s": cpu, "probe_s": sum(parts),
                        "probe_python_s": parts[0], "probe_lapack_s": parts[1],
                        "probe_fft_s": parts[2], "probes": len(around),
                        "op_rel": op_rel})
    return records, failures, mismatches


def _median(records, key):
    return statistics.median(r[key] for r in records)


# spans reported together under one name
SPAN_GROUPS = {"classify.regimes": ("classify.schrodinger_regimes",
                                    "classify.saturable_regimes")}
COUNTERS = ("orbits.newton_orbit.iterations", "orbits.branch_points")


def per_layer(tracer, runs):
    """Medians over traced passes of every span's ``.calls`` and ``.self_s``,
    of ``<module>.linalg_s`` / ``<module>.fft_s`` for numpy calls made from a
    dnlsring module, and of the result counters; counts are per pass."""
    samples: dict[str, list[float]] = {}
    for run_id in runs:
        stats = tracer.layer_stats(run_id)
        for group, spans in SPAN_GROUPS.items():
            if any(s in stats for s in spans):
                stats[group] = (0, 0.0, sum(stats[s][2] for s in spans if s in stats))
        # a counter exists once its function has returned, even if it adds 0
        values = {key: tracer.counters[(run_id, key)] for key in COUNTERS
                  if (run_id, key) in tracer.counters}
        for span, (calls, _, own) in stats.items():
            values[f"{span}.calls"] = calls
            values[f"{span}.self_s"] = own
            if span.endswith((".linalg", ".fft")):
                values[f"{span}_s"] = own
        for key, value in values.items():
            samples.setdefault(key, []).append(value)
    return {key: statistics.median(v) for key, v in samples.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ops, check = workloads.build(args.workload, args.seed)
    if args.setup_only:
        return 0

    first, warm_failures, _, _, _ = run_pass(ops)
    reference = {label: _fingerprint(v) for label, v in first.items()}
    timed_seconds = args.seconds / 2.0 if args.trace else args.seconds
    records, failures, mismatches = timed_passes(
        ops, timed_seconds, reference, MIN_TRACED_PASSES if args.trace else MIN_PASSES)
    result = {"passes": records, "ops_per_pass": len(ops)}

    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced, more_failures, more_mismatches = timed_passes(
                ops, args.seconds / 2.0, reference, MIN_TRACED_PASSES, tracer)
        finally:
            tracer.uninstall()
        failures += more_failures
        mismatches += more_mismatches
        layers = per_layer(tracer, range(len(traced)))
        layers["trace.overhead_s"] = _median(traced, "wall_s") - _median(records, "wall_s")
        result["traced_passes"] = traced
        result["per_layer"] = layers
        result["span_count"] = len(tracer.start)
        if args.trace_out:
            tracer.save(args.trace_out)
        records = records + traced

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    chk = workloads.Checker()
    try:
        check(first, chk)
    except Exception as exc:  # a missing or malformed output is a failed check
        chk.failures.append(f"check raised {type(exc).__name__}: {exc}")
    result.update({
        "attempted": len(ops) * (len(records) + 1),
        "failed": len(warm_failures) + len(failures),
        "failures": warm_failures + failures,
        "check_failures": chk.failures + mismatches,
        "quality": chk.quality,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
