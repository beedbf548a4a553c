"""Benchmark of glmmkit.  Run from the repository root:

    python3 bench/run.py --workload simstudy --seed 1 --seconds 30 --trace 0

Workloads: ``simstudy``, ``slope_agq``, ``cli_postest`` (see
``bench/README.md``).  The run sets up the workload several times, then
runs closed-loop rounds until ``--seconds`` have passed, checking every
output.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  The end-to-end times are adjusted to a nominal host speed
(see ``hostspeed.py``).  The line before it is a report with the
environment, the per-step figures, the raw times and any failures.

The program is imported from ``src/`` next to this directory, never from
an installed copy; without it the run exits with status 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("simstudy", "slope_agq", "cli_postest")
SETUP_REPEATS = 3
# The work is a closed loop over small matrices, which a second BLAS
# thread does not speed up; it would only wait on another shared core.
BLAS_THREADS = 1
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB",
                    "round_s_p50": "s", "postest_s_p50": "s"}
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Pin BLAS/OpenMP to one thread; numpy reads these variables once,
    when it is first imported."""
    threads = BLAS_THREADS
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    # with this set, glmmkit.cli.main re-executes the interpreter, which
    # would replace the benchmark process
    os.environ.pop("GLMMKIT_THREADS", None)
    return threads


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to run rounds for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="problem size; tiny is for the self-test")
    parser.add_argument("--record-fingerprint", action="store_true",
                        help="store the answer of this run as the "
                             "default-seed fingerprint")
    return parser.parse_args(argv)


def _git_commit():
    """HEAD of the checkout, read from .git without starting git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over the package sources, which identifies the code
    measured when the checkout is not a git repository."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "glmmkit")
    for folder, dirs, files in sorted(os.walk(package)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, package).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def environment(threads: int, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    uname = os.uname()
    return {
        "machine": f"{uname.sysname} {uname.release} {uname.machine}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in kilobytes on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, run, tracer, seconds: float):
    """Closed-loop rounds until ``seconds`` have passed and at least the
    workload's minimum number of rounds is done."""
    from workloads import Round

    rounds = []
    start = time.perf_counter()
    while (len(rounds) < workload.min_rounds
           or time.perf_counter() - start < seconds):
        rnd = Round()
        tracer.mark_round()
        try:
            workload.run_round(len(rounds), rnd, run)
        except Exception as exc:  # any escape is a failed operation
            run.fail(f"round {len(rounds)}: {type(exc).__name__}: {exc}")
        rounds.append(rnd)
    return rounds, time.perf_counter() - start


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    threads = pin_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "glmmkit", "__init__.py")):
        print(f"bench: no glmmkit sources under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    start = time.perf_counter()
    import glmmkit  # and with it numpy and scipy

    if not os.path.abspath(glmmkit.__file__).startswith(SRC + os.sep):
        print(f"bench: glmmkit imported from {glmmkit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import hostspeed
    import spans
    import workloads

    import_s = time.perf_counter() - start
    host = hostspeed.HostSpeed()
    import_adjusted_s = import_s * host.after(import_s, hostspeed.SETUP_SHARE)
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](seed, args.size, workdir)
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    run = workloads.Run(tracer, host)
    try:
        setups, setups_adjusted = [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
            setups_adjusted.append(setups[-1] * host.after(
                setups[-1], hostspeed.SETUP_SHARE))
        if args.trace:
            tracer.install()
        try:
            rounds, measured_s = measure(workload, run, tracer, args.seconds)
        finally:
            if args.trace:
                tracer.uninstall()
    finally:
        workload.close()

    fingerprint = [r.fingerprint for r in rounds[:workload.min_rounds]]
    fingerprint_status = "not checked (not the default seed at full size)"
    if args.record_fingerprint:
        table = workloads.load_fingerprints()
        table[args.workload] = {"seed": seed, "size": args.size,
                                "rounds": fingerprint}
        with open(workloads.FINGERPRINT_FILE, "w", encoding="utf-8") as handle:
            json.dump(table, handle, indent=1, sort_keys=True)
            handle.write("\n")
        fingerprint_status = "recorded"
    else:
        reference = workloads.load_fingerprints().get(args.workload)
        if (reference and reference["seed"] == seed
                and reference["size"] == args.size):
            problems = workloads.compare_fingerprints(reference["rounds"],
                                                      fingerprint)
            for problem in problems:
                run.fail(f"fingerprint {problem}")
            fingerprint_status = (f"mismatch in {len(problems)} entries"
                                  if problems else "matches")

    # times at the nominal host speed; the raw ones go in the report
    round_s_p50 = statistics.median(r.adjusted() for r in rounds)
    if args.trace:
        metrics = spans.layer_metrics(tracer, len(rounds), workload.min_rounds,
                                      measured_s, round_s_p50)
        spans_file = os.path.join(OUT_DIR,
                                  f"spans-{args.workload}-seed{seed}.json")
        tracer.write(spans_file)
    else:
        values = {
            "setup_s": import_adjusted_s + statistics.median(setups_adjusted),
            "peak_rss_mb": peak_rss_mb(),
            "round_s_p50": round_s_p50,
            "postest_s_p50": statistics.median(
                r.adjusted("postest") for r in rounds),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    attempted = max(run.attempted, 1)
    report = {
        "workload": args.workload, "size": args.size, "trace": args.trace,
        "rounds": len(rounds), "measured_s": measured_s,
        "import_s": import_s, "setup_runs_s": setups,
        "raw": {"setup_s": import_s + statistics.median(setups),
                "round_s_p50": statistics.median(r.seconds() for r in rounds),
                "postest_s_p50": statistics.median(r.seconds("postest")
                                                   for r in rounds)},
        "host": host.summary(),
        "skipped": run.skipped,
        "error_rate": run.failed / attempted,
        "steps": workload.step_metrics(rounds),
        "fingerprint": fingerprint_status,
        "failures": run.failures,
        "environment": environment(threads, seed),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": run.failed == 0, "attempted": attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
