"""Write the stored reference of each workload (perfbench/reference/).

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload's operation once on the input made from
workloads.REFERENCE_SEED and stores the cells that run.py compares the
warm-up operation with.  Regenerate only when a change is meant to alter
results, and say so in the change.
"""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def make(workload, directory: Path) -> dict:
    inputs = workloads.make_inputs(workload, workloads.REFERENCE_SEED, directory)
    outcome = workload.operate(inputs, directory)
    failed = {part: workload.check_part(part, outcome.parts[part])
              for part in workload.part_names}
    unknown = [c for checks in failed.values() for c in checks
               if c not in workloads.KNOWN_FAILURES]
    if outcome.errors or unknown:
        raise SystemExit(f"{workload.name}: reference run failed: {outcome.errors} {failed}")
    cells = workload.cells(outcome)
    return {"workload": workload.name, "seed": workloads.REFERENCE_SEED, **cells}


def main(names):
    for name in names or sorted(workloads.WORKLOADS):
        directory = ROOT / "perfbench" / ".work" / f"reference-{name}"
        try:
            ref = make(workloads.WORKLOADS[name], directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        path = ROOT / "perfbench" / "reference" / f"{name}.json"
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main(sys.argv[1:])
