"""End-to-end demo on simulated data: write a simulated VAR series to a
temporary CSV and run `vbvar compare` on it, which fits the conjugate model
exactly and with closed-form VB, fits the independent model with
coordinate-ascent VB and Gibbs sampling (seed + 1), and prints both
diagnostics reports.

Usage:
    python3 scripts/compare_methods.py [--n-vars 3] [--lags 2] [--t 200]
                                       [--draws 10000] [--burn-in 2000]
                                       [--seed 1] [--out report.json]
"""

import argparse
import os
import sys
import tempfile

import numpy as np

from vbvar import cli
from vbvar.vardata import simulate_var


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-vars", type=int, default=3)
    parser.add_argument("--lags", type=int, default=2)
    parser.add_argument("--t", type=int, default=200)
    parser.add_argument("--draws", type=int, default=10_000)
    parser.add_argument("--burn-in", type=int, default=2_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="write both reports as JSON")
    args = parser.parse_args()

    values = simulate_var(args.n_vars, args.lags, args.t, args.seed)
    argv = ["compare", "--lags", args.lags, "--seed", args.seed + 1,
            "--draws", args.draws, "--burn-in", args.burn_in]
    if args.out:
        argv += ["--out", args.out]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "series.csv")
        # '%.18e' keeps 19 significant digits, so every value reads back exactly
        np.savetxt(path, values, delimiter=",",
                   header=",".join(f"y{j}" for j in range(args.n_vars)), comments="")
        status = cli.main([str(a) for a in argv + ["--data", path]])
    if args.out:
        print(f"\nwrote {args.out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
