"""End-to-end demo on simulated data: fit the conjugate model exactly and
with closed-form VB, fit the independent model with coordinate-ascent VB
and Gibbs sampling, and print both diagnostics reports.

Usage:
    python3 scripts/compare_methods.py [--n-vars 3] [--lags 2] [--t 200]
                                       [--draws 10000] [--burn-in 2000]
                                       [--seed 1] [--out report.json]
"""

import argparse
import json

import numpy as np

from vbvar import (
    GibbsConfig,
    MinnesotaConfig,
    build_design,
    conjugate_report,
    fit_vb_independent,
    gibbs_run,
    independent_report,
    minnesota_conjugate,
    minnesota_independent,
)
from vbvar.vardata import RawSeries


def simulate(n_vars, lags, t_raw, rng):
    """Stationary VAR draw: random companion matrix scaled inside the unit
    circle, correlated innovations, 50-step warmup."""
    p_lag = n_vars * lags
    companion = np.zeros((p_lag, p_lag))
    companion[:n_vars] = rng.normal(0.0, 0.3, size=(n_vars, p_lag))
    if lags > 1:
        companion[n_vars:, :-n_vars] = np.eye(p_lag - n_vars)
    rho = np.max(np.abs(np.linalg.eigvals(companion)))
    if rho >= 0.95:
        companion[:n_vars] *= 0.9 / rho
    chol = np.linalg.cholesky(0.5 * np.eye(n_vars) + 0.5)
    state = np.zeros(p_lag)
    out = np.empty((t_raw, n_vars))
    for t in range(-50, t_raw):
        shock = chol @ rng.standard_normal(n_vars)
        state = companion @ state
        state[:n_vars] += 0.1 + shock
        if t >= 0:
            out[t] = state[:n_vars]
    names = tuple(f"y{i}" for i in range(n_vars))
    return RawSeries(values=out, names=names, timestamps=None)


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

    rng = np.random.default_rng(args.seed)
    data = build_design(simulate(args.n_vars, args.lags, args.t, rng),
                        args.lags)
    mn = MinnesotaConfig()
    x_next = data.next_regressors()

    conj = conjugate_report(minnesota_conjugate(data, mn), data, x_next)
    prior = minnesota_independent(data, mn)
    draws = gibbs_run(prior, data, GibbsConfig(n_draws=args.draws, burn_in=args.burn_in,
                                               seed=args.seed + 1))
    indep = independent_report(prior, data, x_next, fit_vb_independent(prior, data), draws)

    print(conj.to_text())
    print()
    print(indep.to_text())

    if args.out:
        combined = {"conjugate": json.loads(conj.to_json()),
                    "independent": json.loads(indep.to_json())}
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(combined, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
