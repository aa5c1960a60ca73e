"""Benchmark runner for dnlsring.

    python3 bench/run.py --workload classify --seed 1 --seconds 18 --trace 0

Run from the repository root.  It starts one worker process (one
BLAS/OpenMP thread, ``src`` on the path) that runs the workload's passes and
checks their outputs; an untraced run then times ``setup_s`` over fresh
interpreters.  It prints
every metric by name with its unit, writes a results file under
``bench/results/`` (schema version, machine, git revision, per-pass data)
and ends with one JSON line: correct, attempted, failed and metrics.
``--trace 1`` reports the per-layer metrics of BENCHMARK.json instead of the
end-to-end ones and writes the spans next to the results file.

Exit status is nonzero, with no result line, when the program cannot be
imported, a worker does not finish, or a traced run leaves a per-layer
metric of BENCHMARK.json unmeasured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SCHEMA_VERSION = 1
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 7
WORKER_TIMEOUT = 150.0


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, env, timeout):
    """Run the worker to completion; returns (wall seconds, stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, WORKER, *args], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return wall, proc.stdout


def setup_times(workload, seed, env):
    """Wall time of a fresh interpreter that imports dnlsring and builds the
    workload's inputs.  Called after the worker, whose imports have written
    the byte-code caches."""
    args = ["--workload", workload, "--seed", str(seed), "--setup-only"]
    return [spawn(args, env, 60.0)[0] for _ in range(SETUP_REPEATS)]


def versions() -> dict:
    out = {"python": platform.python_version()}
    try:
        import numpy
        out["numpy"] = numpy.__version__
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        out["blas"] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
        simd = config.get("SIMD Extensions", {})
        out["cpu_simd_found"] = simd.get("found", [])
    except Exception as exc:  # machine info is best effort
        out["numpy"] = f"unavailable: {exc}"
    try:
        import scipy
        out["scipy"] = scipy.__version__
    except ImportError:
        out["scipy"] = "unavailable"
    return out


def machine_info(env) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"platform": platform.platform(), "machine": platform.machine(),
            "processor": platform.processor(), "cpu_count": os.cpu_count(),
            "nproc": nproc, "versions": versions(),
            "threads": {var: env[var] for var in THREAD_VARS}}


def git_revision() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"),
                               "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def end_to_end(passes, setup, rss):
    """Every end-to-end figure of an untraced run, with its unit."""
    wall = [p["wall_s"] for p in passes]
    return {
        "wall_s": (statistics.median(wall), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        # per operation, the median over passes of its time over the probes
        # either side of it; summed over the operations of a pass
        "wall_rel": (sum(statistics.median(p["op_rel"][label] for p in passes)
                         for label in passes[0]["op_rel"]), "probe"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = worker_env()
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        worker_args += ["--trace-out", stem + "-spans.npz"]
    _, stdout = spawn(worker_args, env, WORKER_TIMEOUT)
    run = json.loads(stdout.strip().splitlines()[-1])
    setup = setup_times(args.workload, args.seed, env) if args.trace == 0 else []

    if args.trace:
        # every workload's tour calls each named function, so a metric with
        # no span means the tracer did not see the function: a renamed or
        # dropped function, or one called past the patched names
        measured = {**run["per_layer"], **run["quality"]}
        missing = [m["name"] for m in spec["per_layer"] if m["name"] not in measured]
        if missing:
            raise SystemExit(f"per-layer metrics not measured: {', '.join(missing)}")
        metrics = {m["name"]: (measured[m["name"]], m["unit"]) for m in spec["per_layer"]}
        timed = run["passes"] + run["traced_passes"]
    else:
        metrics = end_to_end(run["passes"], setup, run["peak_rss_mb"])
        timed = run["passes"]
    # the result line carries the metrics BENCHMARK.json names; the results
    # file and the lines above it keep every figure
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    reported = {m["name"]: metrics[m["name"]] for m in wanted}
    correct = not run["check_failures"]

    results = {
        "schema_version": SCHEMA_VERSION,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": git_revision(),
        "machine": machine_info(env),
        "correct": correct, "attempted": run["attempted"], "failed": run["failed"],
        "failures": run["failures"], "check_failures": run["check_failures"],
        "ops_per_pass": run["ops_per_pass"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "quality": run["quality"],
        "setup_runs_s": setup,
        "passes": run["passes"],
        "traced_passes": run.get("traced_passes", []),
        "probe_s": {"median": statistics.median(p["probe_s"] for p in timed),
                    "min": min(p["probe_s"] for p in timed),
                    "max": max(p["probe_s"] for p in timed)},
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
        fh.write("\n")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} passes {len(timed)} ops/pass {run['ops_per_pass']} "
          f"probe median {results['probe_s']['median'] * 1e3:.3f} ms")
    for message in run["failures"] + run["check_failures"]:
        print(f"{args.workload} FAILED {message}")
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"],
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in reported.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
