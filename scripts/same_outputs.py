"""Check that a change leaves every vbvar output byte-identical to its parent.

Usage:
    python3 scripts/same_outputs.py --parent DIR --change DIR

The three input series are written once, by perfbench's own simulator
(perfbench/workloads.simulate_var with seeds model_seed(7, i)), the models
of the vb-sweep workload, together with a copy of the first series with a
leading date column (read with --timestamps) and the JSON config files of
CONFIGS, each pointing at the series it names.  Each command in COMMANDS then
runs in both checkouts with PYTHONPATH=<checkout>/src, each run in its own
empty working directory, so relative output paths land there.  Exit code, stdout, stderr
and every file a run writes are compared byte for byte.  One line is
printed per command; the exit status is 1 when any output differs.  A
differing .json or .csv file whose two sides have the same shape and the
same non-numeric cells is named with the largest relative difference over
its numeric cells, where that cell is and its absolute difference, e.g.
"report.json: max rel 4.1e-12 at independent.kl_section.kl.value (abs
3.4e-13)" or "trace.csv: max rel 3.4e-16 at row 5 col elbo (abs 1.7e-14)":
a JSON cell by its keys and list indices joined with ".", a CSV cell by its
row (0 is the header) and its column's header.  A command whose exit
code, stdout and stderr match and whose differing files are all such files
within ROUND_OFF_REL gets the verdict "round-off" instead of "DIFFERENT";
the summary line counts those commands apart, and they still set the exit
status to 1.

Byte identity holds at one BLAS thread count only, except at small Mp:
with the same inputs and seeds, `vbvar compare` at M = 7, d = 4
(Mp = 203) moved 47-53 Gibbs and RIS cells of its independent report
between one and two OpenBLAS threads, by up to 2.2e-13 relative (1.3e-12
in the kl cell, where lnML - ELBO cancels), while at M = 3, d = 2
(Mp = 21) the bytes held.  Both checkouts run under
this script's environment, and the summary line ends with the variables of
BLAS_THREAD_VARS as they were set ("unset" when absent), so a summary says
which thread setting it holds for.

Plain standard library here; numpy is loaded only by perfbench, to write
the inputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> (M, d, T_raw); the i-th model is simulated with model_seed(7, i)
MODELS = {"m3": (3, 2, 200), "m7": (7, 4, 200), "m20": (20, 2, 300)}

# name -> config-file values that differ from the CLI defaults; "data" names
# a series of MODELS (m3 when absent) and is written as its path.  "cfg_all"
# gives every key the library configs own (the Minnesota hyperparameters and
# the VB stopping rule) a value of its own.  "cfg_m20" is Mp = 820 with
# lambda2 < 1: VB and the modes take the dense step, Gibbs the PCG draw on a
# non-separable V0^-1.
CONFIGS = {
    "cfg": {"prior": "independent", "lags": 2, "seed": 7, "lambda1": 0.3,
            "own_lag_mean": 0.5, "dof_offset": 3},
    "cfg_all": {"prior": "independent", "lags": 2, "seed": 7, "lambda1": 0.3, "lambda2": 0.5,
                "lambda3": 2.0, "lambda4": 50.0, "own_lag_mean": 0.5, "dof_offset": 3,
                "max_iters": 40, "tol": 1e-6},
    "cfg_m20": {"prior": "independent", "lags": 2, "seed": 7, "lambda2": 0.5, "data": "m20"},
}

# environment variables that set the BLAS thread count, named on the summary line
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# largest max rel of a differing .json or .csv file that counts as round-off
ROUND_OFF_REL = 1e-12

EXPORTS = ["--export-draws", "draws.csv", "--export-elbo-trace", "trace.csv"]

# (label, argv); "vbvar" runs the CLI, "demo" scripts/compare_methods.py,
# {m3}, {m7}, {m20} stand for the input CSV paths, {m3_dated} for the dated
# copy of {m3} and {cfg}, {cfg_all}, {cfg_m20} for the config files
COMMANDS = [
    ("compare Mp=21", ["vbvar", "compare", "--data", "{m3}", "--lags", "2", "--seed", "7",
                       "--out", "report.json"]),
    ("compare Mp=820", ["vbvar", "compare", "--data", "{m20}", "--lags", "2", "--seed", "7",
                        "--draws", "200", "--burn-in", "50", "--out", "report.json"]),
    ("compare unconverged, exports", ["vbvar", "compare", "--data", "{m3}", "--lags", "2",
                                      "--seed", "7", "--max-iters", "2",
                                      "--out", "report.json", *EXPORTS]),
    ("fit independent, exports", ["vbvar", "fit", "--prior", "independent", "--data", "{m3}",
                                  "--lags", "2", "--seed", "7",
                                  "--out", "report.json", *EXPORTS]),
    ("fit independent M=7 d=4, exports", ["vbvar", "fit", "--prior", "independent",
                                          "--data", "{m7}", "--lags", "4", "--seed", "7",
                                          "--draws", "600", "--burn-in", "100",
                                          "--out", "report.json", *EXPORTS]),
    ("fit conjugate M=7 d=4", ["vbvar", "fit", "--prior", "conjugate", "--data", "{m7}",
                               "--lags", "4", "--out", "report.json"]),
    ("kl", ["vbvar", "kl", "--M", "3", "--p", "13", "--T", "196", "--nu0", "5"]),
    # where the KL's closed form cancels; at T = 196 the printed 6 decimals cannot move
    ("kl at T=1e12", ["vbvar", "kl", "--M", "20", "--p", "41", "--T", "1000000000000",
                      "--nu0", "22"]),
    ("fit independent, no seed", ["vbvar", "fit", "--prior", "independent",
                                  "--data", "{m3}", "--lags", "2"]),
    ("compare --config", ["vbvar", "compare", "--config", "{cfg}", "--out", "report.json"]),
    ("compare --config, every library key", ["vbvar", "compare", "--config", "{cfg_all}",
                                             "--out", "report.json"]),
    ("fit --config, every library key", ["vbvar", "fit", "--config", "{cfg_all}",
                                         "--out", "report.json", *EXPORTS]),
    ("compare --config Mp=820 lambda2=0.5", ["vbvar", "compare", "--config", "{cfg_m20}",
                                             "--draws", "200", "--burn-in", "50",
                                             "--out", "report.json"]),
    ("fit --timestamps", ["vbvar", "fit", "--data", "{m3_dated}", "--timestamps",
                          "--lags", "2", "--out", "report.json"]),
    ("demo script", ["demo", "--t", "120", "--draws", "1500", "--burn-in", "300",
                     "--out", "report.json"]),
]


def write_inputs(directory: Path) -> dict:
    """Simulate and write each model's series, the dated copy of the first
    and each config file; name -> path, with "m3_dated" for the dated copy
    and the names of CONFIGS for the config files."""
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.workloads import Model, model_seed, simulate_var, write_series_csv

    paths = {}
    for i, (name, dims) in enumerate(MODELS.items()):
        paths[name] = directory / f"{name}.csv"
        write_series_csv(simulate_var(Model(*dims), model_seed(7, i)), paths[name])
    header, *rows = paths["m3"].read_text(encoding="utf-8").splitlines()
    dated = [f"date,{header}"] + [f"{1950 + i // 4}Q{i % 4 + 1},{row}"
                                  for i, row in enumerate(rows)]
    paths["m3_dated"] = directory / "m3_dated.csv"
    paths["m3_dated"].write_text("\n".join(dated) + "\n", encoding="utf-8")
    for name, config in CONFIGS.items():
        paths[name] = directory / f"{name}.json"
        series = paths[config.get("data", "m3")]
        paths[name].write_text(json.dumps({**config, "data": str(series)}), encoding="utf-8")
    return paths


def run(checkout: Path, argv: list, inputs: dict, workdir: Path) -> dict:
    """One command in one checkout: exit code, stdout, stderr and the bytes
    of every file written to ``workdir``."""
    workdir.mkdir(parents=True)
    head, *rest = argv
    prefix = ([sys.executable, "-m", "vbvar.cli"] if head == "vbvar"
              else [sys.executable, str(checkout / "scripts" / "compare_methods.py")])
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(prefix + [a.format(**inputs) for a in rest], cwd=workdir,
                          env=env, capture_output=True, check=False)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "files": files}


def _cells(name: str, data: bytes) -> list:
    """(position, value) for each cell of a .csv file (a float where the
    cell parses as one) or each node of a .json file (a container's type
    name, then its children)."""
    text = data.decode("utf-8")
    if name.endswith(".csv"):
        rows = csv.reader(io.StringIO(text))
        return [((i, j), _parse_float(cell))
                for i, row in enumerate(rows) for j, cell in enumerate(row)]
    cells = []

    def walk(path, node):
        children = (node.items() if isinstance(node, dict)
                    else enumerate(node) if isinstance(node, list) else None)
        cells.append((path, type(node).__name__ if children is not None else node))
        for key, child in children or ():
            walk(path + (key,), child)

    walk((), json.loads(text))
    return cells


def _parse_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def worst_cell(name: str, parent: bytes, change: bytes):
    """(max rel, where, abs) for the numeric cell of two versions of a .json
    or .csv file with the largest relative difference: ``where`` names the
    cell as the module docstring says, and is None when no numeric cell
    differs.  None when the two differ in shape or in any non-numeric or
    non-finite cell (or the file is of another kind)."""
    if not name.endswith((".json", ".csv")):
        return None
    try:
        cells = (_cells(name, parent), _cells(name, change))
    except ValueError:  # undecodable bytes or invalid JSON
        return None
    if len(cells[0]) != len(cells[1]):
        return None
    worst = (0.0, None, 0.0)
    for (pos_a, a), (pos_b, b) in zip(*cells):
        if pos_a != pos_b:
            return None
        if a == b and type(a) is type(b):
            continue
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      and math.isfinite(v) for v in (a, b))
        if not numbers:
            return None
        rel = abs(a - b) / max(abs(a), abs(b))
        if rel > worst[0]:
            worst = (rel, pos_a, abs(a - b))
    rel, pos, size = worst
    if pos is not None and name.endswith(".csv"):
        header = dict((j, v) for (i, j), v in cells[0] if i == 0)
        where = f"row {pos[0]} col {header.get(pos[1], pos[1])}"
    else:
        where = None if pos is None else ".".join(map(str, pos))
    return rel, where, size


def differences(parent: dict, change: dict) -> list:
    """(name, worst cell) for each stream and file that differs; the cell is
    :func:`worst_cell`'s, and None for a stream, a file on one side only, or
    a file it cannot measure."""
    diffs = [(key, None) for key in ("exit code", "stdout", "stderr")
             if parent[key] != change[key]]
    for name in sorted(set(parent["files"]) | set(change["files"])):
        a, b = parent["files"].get(name), change["files"].get(name)
        if a != b:
            diffs.append((name, None if a is None or b is None else worst_cell(name, a, b)))
    return diffs


def _label(name, cell):
    """One differing output, e.g. "report.json: max rel 4.1e-12 at kl.value (abs 3.4e-13)"."""
    if cell is None:
        return name
    rel, where, size = cell
    return (f"{name}: max rel {rel:.2g}" if where is None
            else f"{name}: max rel {rel:.2g} at {where} (abs {size:.2g})")


def verdict(parent: dict, change: dict) -> str:
    """"same", "round-off (...)" or "DIFFERENT (...)" for one command's outputs."""
    diffs = differences(parent, change)
    if not diffs:
        return "same"
    kind = ("round-off" if all(cell is not None and cell[0] <= ROUND_OFF_REL
                               for _, cell in diffs)
            else "DIFFERENT")
    return f"{kind} ({', '.join(_label(name, cell) for name, cell in diffs)})"


def summary(verdicts: list) -> tuple:
    """(summary line, exit status) over the verdicts of all commands; the
    status is 0 only when every command is byte-identical."""
    same = verdicts.count("same")
    round_off = sum(v.startswith("round-off") for v in verdicts)
    line = (f"{same} of {len(verdicts)} commands byte-identical, "
            f"{round_off} round-off (max rel <= {ROUND_OFF_REL:g})")
    return line, 0 if same == len(verdicts) else 1


def blas_threads(env) -> str:
    """The BLAS thread variables of BLAS_THREAD_VARS in ``env``, e.g.
    "OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=unset MKL_NUM_THREADS=unset"."""
    return " ".join(f"{name}={env.get(name, 'unset')}" for name in BLAS_THREAD_VARS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        inputs = {k: str(v) for k, v in write_inputs(work).items()}
        verdicts = []
        for i, (label, command) in enumerate(COMMANDS):
            out = {side: run(checkout.resolve(), command, inputs, work / side / str(i))
                   for side, checkout in (("parent", args.parent), ("change", args.change))}
            verdicts.append(verdict(out["parent"], out["change"]))
            files = ", ".join(out["change"]["files"]) or "no files"
            print(f"{verdicts[-1]:<10} exit {out['change']['exit code']}  {label}  [{files}]",
                  flush=True)
    line, status = summary(verdicts)
    print(f"{line}; {blas_threads(os.environ)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
