"""Closed-loop benchmark of the soficlab CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-g7 --seed 1 --seconds 30 --trace 0

One client in one process runs the workload's jobs in rounds, each job
after the previous one finished, and starts another round only while it
is expected to end within --seconds.  Every round runs the same inputs, all derived from --seed.
Before the loop, set-up is measured in fresh interpreters: process start,
``import soficlab`` and the PSL2 tables of the workload's moduli.

--trace 0 prints the end-to-end metrics; --trace 1 alternates traced
and untraced rounds and prints the per-layer metrics of the traced ones,
together with the tracing overhead.  The last stdout line is the JSON
result; the full record (environment, inputs, per-job timings, failures,
spans) goes to perfbench/out/.  Exit code 0: every job passed its
reference checks; 1: some job failed; 2: the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# What one CLI invocation pays before its command starts: interpreter
# start, the package import, and the PSL2 tables of G(p) and its partner
# group K for each level the workload uses.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import soficlab; "
    "from soficlab.algebra import next_prime, psl2_table; "
    "[psl2_table(q) for p in map(int, sys.argv[2:]) for q in (p, next_prime(p))]"
)


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def measure_setup(primes) -> list:
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, primes)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-400:]}")
    return times


def warm_tables(primes):
    from soficlab.algebra import next_prime, psl2_table

    for p in primes:
        psl2_table(p)
        psl2_table(next_prime(p))


def tail(samples):
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    ordered = sorted(samples)
    for q in range(99, 0, -1):
        rank = -(-q * n // 100)          # ceil(q n / 100): samples at or below
        if n - rank >= 10:
            return {"percentile": q, "value": ordered[rank - 1]}
    return None


def summary(samples):
    return {"median": statistics.median(samples), "n": len(samples),
            "tail": tail(samples), "samples": samples}


# -- environment record ---------------------------------------------------------

def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _commit():
    head = _read(ROOT / ".git" / "HEAD")
    if head and head.startswith("ref: "):
        ref = head[5:]
        found = _read(ROOT / ".git" / ref)
        if found:
            return found
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
        return None
    return head


def _source_digest():
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "soficlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(nproc: int, traced: bool) -> dict:
    import numpy
    import scipy

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and kind != "Instruction":
            caches[f"L{level}"] = size
    spectral_vector = 110_880 * 8
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "cache_sizes": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS + ("SOFICLAB_THREADS",)},
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "traced": traced,
        "note": (f"one p=7 spectral vector is 110,880 x 8 B = {spectral_vector} B and "
                 f"fits in cache ({caches}); spectral.matvec.bytes_computed and "
                 "perms.compose.exact.bytes_computed are computed from array sizes, "
                 "not measured bandwidth"),
    }


# -- the closed loop -------------------------------------------------------------

def run_loop(workload, seconds, scratch, tracer=None):
    """Run rounds of the workload's jobs; with a tracer, trace the even
    rounds (the first one included: a CLI user always starts cold).
    Returns the per-round records."""
    rounds = []
    min_rounds = 1 if tracer is None else 2     # a traced and an untraced one
    loop_start = time.perf_counter()
    while True:
        index = len(rounds)
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.install()
        record = {"traced": traced, "jobs": [], "cpu": [], "failures": []}
        round_start = time.perf_counter()
        for job in workload.jobs:
            usage = resource.getrusage(resource.RUSAGE_SELF)
            start = time.perf_counter()
            try:
                if traced:
                    tracer.job(f"r{index}:{job.name}", job.name, job.run, scratch)
                else:
                    job.run(scratch)
                ok = True
            except Exception as exc:        # a failed job is counted, not fatal
                ok = False
                record["failures"].append({
                    "job": job.name, "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(limit=8)})
            wall = time.perf_counter() - start
            after = resource.getrusage(resource.RUSAGE_SELF)
            record["jobs"].append((job.name, wall, ok))
            record["cpu"].append({"job": job.name,
                                  "user_s": after.ru_utime - usage.ru_utime,
                                  "sys_s": after.ru_stime - usage.ru_stime,
                                  "minor_faults": after.ru_minflt - usage.ru_minflt})
        record["wall_s"] = time.perf_counter() - round_start
        if traced:
            tracer.uninstall()
            record["bucket"] = tracer.new_bucket()
        rounds.append(record)
        elapsed = time.perf_counter() - loop_start
        typical = statistics.median(r["wall_s"] for r in rounds)
        if len(rounds) >= min_rounds and elapsed + typical > seconds:
            return rounds


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "soficlab" / "__init__.py").is_file():
        print(f"perfbench: no soficlab sources at {SRC}", file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](args.seed)

    setup_times = measure_setup(workload.primes)

    import soficlab

    if Path(soficlab.__file__).resolve().parent != (SRC / "soficlab").resolve():
        print(f"perfbench: imported soficlab from {soficlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.job_id = "setup"
        warm_tables(workload.primes)
        tracer.uninstall()
        setup_bucket = tracer.new_bucket()
    else:
        warm_tables(workload.primes)

    OUT.mkdir(parents=True, exist_ok=True)
    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir()
    try:
        rounds = run_loop(workload, args.seconds, scratch, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    jobs = [j for r in rounds for j in r["jobs"]]
    attempted = len(jobs)
    failed = sum(1 for _, _, ok in jobs if not ok)
    per_job = {}
    for r in rounds:
        if not r["traced"]:
            for name, seconds, _ in r["jobs"]:
                per_job.setdefault(name, []).append(seconds)
    untraced = [r["wall_s"] for r in rounds if not r["traced"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(nproc, bool(args.trace)),
        "inputs": workload.inputs,
        "loop": "closed, one client, one process",
        "rounds": len(rounds),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": [f for r in rounds for f in r["failures"]],
        "setup_s": summary(setup_times),
        "round_wall_s": summary(untraced),
        "jobs_s": {name: summary(v) for name, v in per_job.items()},
        "jobs_cpu": [c for r in rounds for c in r["cpu"]],
        "peak_rss_mb": peak_rss_mb,
    }

    if args.trace:
        from tracer import PER_LAYER, per_layer_values

        traced_rounds = [r for r in rounds if r["traced"]]
        values, unsteady = per_layer_values(setup_bucket,
                                            [r["bucket"] for r in traced_rounds])
        traced_wall = statistics.median(r["wall_s"] for r in traced_rounds)
        values["trace.overhead_s"] = traced_wall - statistics.median(untraced)
        record["traced_round_wall_s"] = summary([r["wall_s"] for r in traced_rounds])
        record["per_layer"] = dict(sorted(values.items()))
        record["unsteady_counts"] = unsteady
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit, _ in PER_LAYER}
        stem = f"{args.workload}-seed{args.seed}-trace1"
        with gzip.open(OUT / f"{stem}.spans.jsonl.gz", "wt") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(untraced), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        stem = f"{args.workload}-seed{args.seed}-trace0"
    record["metrics"] = metrics
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    for f in record["failures"]:
        print(f"FAILED {f['job']}: {f['error']}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
