"""Paired benchmark runs of a parent checkout against a change checkout.

Usage:
    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json
        [--seeds 901-910] [--trace-seeds 911] [--claim WORKLOAD:METRIC:RATIO]

For each workload and seed, perfbench/run.py runs once in each checkout,
one after the other; the parent goes first on the 1st, 3rd, ... seed and
the change on the others, so a slow phase of the machine does not always
fall on the same side.  Workloads and run length are the `workloads` and
`run_seconds` of the change's BENCHMARK.json.  Each side is recorded by its
commit, when the checkout is the top of a git work tree, and by a sha256 over
its src/vbvar/*.py, which also ties an exported or uncommitted tree to the
code it ran.  Each run's result JSON (its
last output line) is read, and the output file gets, per workload and
end-to-end metric, the runs, median and quartiles of each side, how many
pairs the change won (a tie counts for neither side), the median ratio
change/parent and the parent's interquartile range.  Runs with --trace 1 on the trace seeds give
per-layer medians for each side.  With --claim, the output states whether
the change won at least 9 in 10 pairs on that metric, with a median at
most RATIO times the parent's (at least RATIO times, for a metric whose
`better` is "higher") and a median gap wider than the parent's IQR.

The file is rewritten after every pair, so an interrupted session keeps
what it measured.  Plain standard library: no numpy is imported here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list:
    """'901-910' or '901,905' -> list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; its result JSON plus the environment line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), {})
    return {"result": result, "env": env}


def quartiles(runs: list) -> dict:
    q1, med, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                   if len(runs) > 1 else (runs[0],) * 3)
    return {"median": med, "q1": q1, "q3": q3, "runs": [round(r, 6) for r in runs]}


def compare(parent: list, change: list, better: str) -> dict:
    """Side summaries, change wins and the median ratio of paired runs."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    ps, cs = quartiles(parent), quartiles(change)
    return {
        "better": better,
        "parent": ps,
        "change": cs,
        "change_wins": wins,
        "ties": ties,
        "pairs": len(parent),
        "median_ratio": cs["median"] / ps["median"] if ps["median"] else None,
        "parent_iqr": ps["q3"] - ps["q1"],
    }


def claim_summary(doc: dict, workload: str, metric: str, ratio: float) -> dict:
    """Whether the claim on ``metric`` holds: the change wins 9 in 10 pairs,
    its median is at most ``ratio`` times the parent's (at least, when
    higher is better) and the medians differ by more than the parent's IQR."""
    m = doc["end_to_end"][workload]["metrics"][metric]
    gap = abs(m["parent"]["median"] - m["change"]["median"])
    lower = m["better"] == "lower"
    within = m["median_ratio"] is not None and (
        m["median_ratio"] <= ratio if lower else m["median_ratio"] >= ratio)
    met = m["change_wins"] >= 0.9 * m["pairs"] and within and gap > m["parent_iqr"]
    return {
        "metric": metric,
        "workload": workload,
        "rule": f"change wins >= 9 of 10 pairs, median {'<=' if lower else '>='} {ratio} "
                "x parent, and median gap > parent IQR",
        "wins": m["change_wins"],
        "pairs": m["pairs"],
        "median_ratio": m["median_ratio"],
        "parent_iqr": m["parent_iqr"],
        "met": bool(met),
    }


def git_head(checkout: Path):
    """The short commit of ``checkout`` when it is the top of a git work
    tree; None otherwise, also for an exported tree that lies inside another
    repository, whose HEAD is not the checkout's."""
    def git(*args):
        proc = subprocess.run(["git", "rev-parse", *args], cwd=checkout,
                              capture_output=True, text=True, check=False)
        return proc.stdout.strip() if proc.returncode == 0 else ""

    top = git("--show-toplevel")
    if not top or Path(top).resolve() != Path(checkout).resolve():
        return None
    return git("--short", "HEAD") or None


def source_digest(checkout: Path) -> str:
    """sha256 over the checkout's src/vbvar/*.py in name order: each file's
    name and the sha256 of its bytes."""
    digest = hashlib.sha256()
    for path in sorted((Path(checkout) / "src" / "vbvar").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def write(doc: dict, path: Path) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("901-910"))
    parser.add_argument("--trace-seeds", type=parse_seeds, default=[])
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC:RATIO")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {
        "parent_commit": git_head(sides["parent"]),
        "change_commit": git_head(sides["change"]),
        "parent_source_sha256": source_digest(sides["parent"]),
        "change_source_sha256": source_digest(sides["change"]),
        "environment": None,
        "method": (f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g}"
                   " in the parent and the change checkout. End to end (--trace 0): seeds "
                   f"{args.seeds[0]}-{args.seeds[-1]}, one pair per seed, the parent first "
                   "on the 1st, 3rd, ... seed. A pair is won when the change's value is "
                   "better; ties count for neither. Per layer (--trace 1): seeds "
                   f"{args.trace_seeds}, one run per side; values are medians over runs."),
        "end_to_end": {},
        "per_layer_traced": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                out = run_bench(sides[side], workload, seed, seconds, 0)
                doc["environment"] = doc["environment"] or out["env"]
                runs[side].append(out["result"])
                print(f"{workload} seed {seed} {side}: "
                      f"{out['result']['metrics']['report_s']['value']:.4f} s", flush=True)
            metrics = {
                name: compare([r["metrics"][name]["value"] for r in runs["parent"]],
                              [r["metrics"][name]["value"] for r in runs["change"]],
                              better[name])
                for name in runs["parent"][0]["metrics"]
            }
            doc["end_to_end"][workload] = {
                "seeds": args.seeds[:i + 1],
                "correct": {s: [r["correct"] for r in runs[s]] for s in runs},
                "metrics": metrics,
            }
            if args.claim:
                cw, cm, ratio = args.claim.split(":")
                if cw in doc["end_to_end"]:
                    doc["claim"] = claim_summary(doc, cw, cm, float(ratio))
            write(doc, args.out)

        if not args.trace_seeds:
            continue
        traced = {"parent": [], "change": []}
        for i, seed in enumerate(args.trace_seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                traced[side].append(
                    run_bench(sides[side], workload, seed, seconds, 1)["result"])
        layer = {"seeds": args.trace_seeds}
        for name in traced["parent"][0]["metrics"]:
            layer[name] = {s: statistics.median(r["metrics"][name]["value"]
                                                for r in traced[s]) for s in traced}
        layer["correct"] = {s: [r["correct"] for r in traced[s]] for s in traced}
        doc["per_layer_traced"][workload] = layer
        write(doc, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
