"""Self-tests of the benchmark.

    python3 perfbench/selftest.py [WORKLOAD ...]

1. Tracing changes no result: an untraced and a traced operation with the
   same seed give byte-identical report JSON (and exports).
2. Counts repeat: two traced runs with the same seed report identical
   values for every count metric (.calls, .iterations, linalg work, bytes).
3. One command prints every metric by name with its unit: run.py prints a
   `metric NAME VALUE UNIT` line and a result entry for each metric of
   BENCHMARK.json, with the unit given there.
4. Without the program's sources, run.py exits non-zero and prints no result.

Exits 1 when any test fails.  Takes a few minutes for all workloads.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = BENCH / ".work"
SEED = 7
COUNT_UNITS = {"count", "bytes", "GFLOP"}

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def tracing_changes_nothing(workload_name) -> list:
    import tracing
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    directory = WORK / f"selftest-{workload_name}"
    try:
        inputs = workloads.make_inputs(workload, SEED, directory)
        plain = workload.fingerprint(workload.operate(inputs, directory))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = workload.fingerprint(workload.operate(inputs, directory))
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    errors = [f"part {p}: traced output differs" for p in plain if traced.get(p) != plain[p]]
    if not tracer.spans:
        errors.append("traced operation recorded no spans")
    return errors


def metrics_printed(proc, specs) -> tuple:
    """(errors, metrics) for one run.py invocation and the metrics it owes."""
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-500:]}"], {}
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    printed = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")
            printed[name] = unit
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        if printed.get(name) != unit:
            errors.append(f"no line 'metric {name} <value> {unit}'")
        entry = result["metrics"].get(name)
        if entry is None or entry["unit"] != unit or not isinstance(entry["value"], (int, float)):
            errors.append(f"result lacks {name} in {unit}")
    extra = set(result["metrics"]) - {s["name"] for s in specs}
    if extra:
        errors.append(f"unexpected metrics {sorted(extra)}")
    return errors, result["metrics"]


def counts_repeat(first, second, specs) -> list:
    return [f"{s['name']}: {first[s['name']]['value']} != {second[s['name']]['value']}"
            for s in specs if s["unit"] in COUNT_UNITS
            and first[s["name"]]["value"] != second[s["name"]]["value"]]


def bare_directory_fails() -> list:
    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns(".work"))
        proc = run_bench("fit-small-export", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    errors = []
    if proc.returncode == 0:
        errors.append("exit code 0")
    if any(line.startswith("{") for line in proc.stdout.splitlines()):
        errors.append("printed a result")
    return errors


def main(names):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = names or [w["name"] for w in spec["workloads"]]
    failures = 0

    def report(test, errors):
        nonlocal failures
        failures += bool(errors)
        print(f"{'FAIL' if errors else 'ok'}  {test}" + "".join(f"\n      {e}" for e in errors),
              flush=True)

    for name in names:
        report(f"{name}: traced and untraced outputs identical", tracing_changes_nothing(name))
        errors, _ = metrics_printed(run_bench(name, 0), spec["end_to_end"])
        report(f"{name}: end-to-end metrics printed with units", errors)
        errors, first = metrics_printed(run_bench(name, 1), spec["per_layer"])
        report(f"{name}: per-layer metrics printed with units", errors)
        errors_again, second = metrics_printed(run_bench(name, 1), spec["per_layer"])
        report(f"{name}: counts repeat across two traced runs",
               errors + errors_again or counts_repeat(first, second, spec["per_layer"]))
    report("bare directory: non-zero exit, no result", bare_directory_fails())
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
