"""Benchmark of vbvar: the time users wait for a diagnostics report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads are defined in workloads.py;
metric names and units in BENCHMARK.json.  One run:

1. caps BLAS threads at the number of usable CPUs, before numpy loads;
2. with --trace 0, measures set-up SETUP_PROBES times, each in a fresh
   interpreter (probe.py): imports, input generation and CSV writing;
3. generates the seeded inputs and the reference input;
4. runs the operation once on the reference input, untimed (warm-up), and
   compares its cells with the stored reference (reference/<workload>.json);
5. repeats the operation on the seeded input until --seconds have passed
   (at least MIN_OPS times); with --trace 1, untraced and traced
   operations alternate;
6. checks every operation's outputs, prints one line per metric and the
   environment, and prints the result JSON as the last line.

Operations form a closed loop: one caller, the next operation starts when
the previous one has returned.  End-to-end metrics (--trace 0) are medians
over operations; per-layer metrics (--trace 1) are medians over traced
operations, per operation.  Spans of the traced run are written to
perfbench/.work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = BENCH / ".work"
SETUP_PROBES = 5
MIN_OPS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable CPU count in this process's
    environment (inherited by probes); returns the cap."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(seed: int, nproc: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": nproc,
        "machine": platform.machine(),
        "seed": seed,
    }


def measure_setup(workload: str, seed: int, directory: Path) -> list:
    """Seconds from spawning a fresh interpreter to the point where it has
    imported vbvar, numpy and scipy and written the inputs."""
    times = []
    for i in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), workload, str(seed),
             str(directory / f"probe{i}")],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    return times


def cholesky_floor(n: int) -> float:
    """Median seconds of one n x n Cholesky, the factorisation a Gibbs
    draw cannot avoid."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    spd = a @ a.T + np.eye(n)
    times = []
    deadline = time.perf_counter() + 0.3
    while len(times) < 15 or (time.perf_counter() < deadline and len(times) < 2000):
        start = time.perf_counter()
        np.linalg.cholesky(spd)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Ledger:
    """Attempted and failed operation parts, by failed check."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()

    def record(self, part_failures: dict):
        for part in self.workload.part_names:
            self.attempted += 1
            checks = part_failures.get(part, [])
            if checks:
                self.failed += 1
                self.failures.update(checks)

    def correct(self, known) -> bool:
        return all(name in known for name in self.failures)


def check_outcome(workload, outcome, reference=None, expected=None, raised=None):
    """Failed checks per part.  `reference`: stored cells to compare with;
    `expected`: fingerprint the outputs must repeat byte for byte."""
    from workloads import compare_to_reference

    if raised is not None:
        return {part: [f"raised:{raised}"] for part in workload.part_names}
    failures = {}
    for part in workload.part_names:
        if part in outcome.errors:
            failures[part] = [f"raised:{outcome.errors[part]}"]
            continue
        try:
            failures[part] = workload.check_part(part, outcome.parts[part])
        except (KeyError, IndexError, ValueError, TypeError, OSError) as exc:
            failures[part] = [f"check_raised:{type(exc).__name__}: {exc}"]
    if reference is not None:
        try:
            ref_failures = compare_to_reference(workload.cells(outcome), reference)
        except (KeyError, IndexError, ValueError, TypeError, OSError) as exc:
            ref_failures = [f"reference_raised:{type(exc).__name__}: {exc}"]
        if ref_failures:
            # cells are not attributed to parts; charge the first part
            failures[workload.part_names[0]] = failures.get(
                workload.part_names[0], []) + ref_failures
    if expected is not None:
        got = workload.fingerprint(outcome)
        for part, data in expected.items():
            if got.get(part) != data:
                failures.setdefault(part, []).append("repeatable")
    return failures


def run_operation(workload, inputs, workdir):
    """(seconds, outcome, error message); an operation that raises is failed."""
    start = time.perf_counter()
    try:
        outcome = workload.operate(inputs, workdir)
    except Exception as exc:  # the benchmark must count, not die
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, outcome, None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "vbvar" / "__init__.py").is_file():
        print(f"error: no vbvar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads
    import tracing

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        return measure(args, workload, run_dir, nproc, workloads, tracing)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, workload, run_dir, nproc, workloads, tracing) -> int:
    env = environment(args.seed, nproc)
    setup_times = [] if args.trace else measure_setup(workload.name, args.seed, run_dir)
    inputs = workloads.make_inputs(workload, args.seed, run_dir / "inputs")
    ref_inputs = workloads.make_inputs(workload, workloads.REFERENCE_SEED, run_dir / "ref")
    with open(BENCH / "reference" / f"{workload.name}.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    ledger = Ledger(workload)

    _, outcome, err = run_operation(workload, ref_inputs, run_dir)
    ledger.record(check_outcome(workload, outcome, reference=reference, raised=err))

    floor = cholesky_floor(max(m.mp for m in workload.models)) if args.trace else None
    tracer = tracing.Tracer()
    plain_times, traced_times, layer_ops = [], [], []
    expected = None
    start = time.perf_counter()
    while len(plain_times) < MIN_OPS or time.perf_counter() - start < args.seconds:
        seconds, outcome, err = run_operation(workload, inputs, run_dir)
        plain_times.append(seconds)
        ledger.record(check_outcome(workload, outcome, expected=expected, raised=err))
        if expected is None and outcome is not None:
            expected = workload.fingerprint(outcome)
        if not args.trace:
            continue
        tracer.op_id = len(traced_times)
        tracer.install()
        try:
            seconds, outcome, err = run_operation(workload, inputs, run_dir)
        finally:
            tracer.uninstall()
        traced_times.append(seconds)
        # the traced result must equal the untraced one byte for byte
        ledger.record(check_outcome(workload, outcome, expected=expected, raised=err))
        layer_ops.append({"chol_floor_s": floor, "export_bytes":
                          workload.export_bytes(outcome) if outcome is not None else 0})

    if args.trace:
        totals = tracer.per_op_totals()
        metrics = tracing.median_metrics([
            tracing.layer_metrics(totals.get(i, {}), extra)
            for i, extra in enumerate(layer_ops)])
        metrics["trace.overhead_s"] = (statistics.median(traced_times)
                                       - statistics.median(plain_times))
        tracer.write(WORK / f"spans-{workload.name}-seed{args.seed}.jsonl.gz")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "report_s": statistics.median(plain_times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_kb * 1024 / 1e6,
            "passed_share": 1.0 - ledger.failed / ledger.attempted,
        }
    print("env " + json.dumps(env, sort_keys=True))
    print(f"operations {len(plain_times)} untraced, {len(traced_times)} traced; "
          f"setup probes {len(setup_times)}; "
          f"op seconds {[round(t, 4) for t in plain_times]}")
    report(ledger, metrics, workloads.KNOWN_FAILURES)
    return 0


def report(ledger, metrics, known):
    """Failed checks, one line per metric, and the result JSON last."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, count in sorted(ledger.failures.items()):
        tag = "known failure" if name in known else "FAILED"
        print(f"{tag}: {name} x{count}")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": ledger.correct(known),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
