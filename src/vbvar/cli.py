"""Command-line interface: fit models, evaluate the KL constants, and run
exact/VB/Gibbs comparisons on one dataset.

Exit codes: 0 success, 1 input/domain error, 2 VB non-convergence (the
report is still written).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import conjugate_vb as cvb
from . import independent_mcmc as imc
from . import independent_vb as ivb
from .priors import MinnesotaConfig, minnesota_conjugate, minnesota_independent
from .report import conjugate_report, independent_report
from .vardata import build_design, load_csv

# every config-file key, with its default; flags override both
DEFAULTS = {
    "prior": "conjugate", "lags": 1, "seed": None, "draws": 2000, "burn_in": 500,
    "max_iters": 500, "tol": 1e-9, "lambda1": 0.2, "lambda2": 1.0,
    "lambda3": 1.0, "lambda4": 100.0, "own_lag_mean": 0.0,
    "dof_offset": 2, "timestamps": False, "out": None, "data": None,
    "export_draws": None, "export_elbo_trace": None,
}


class CliError(Exception):
    """Input error reported with exit status 1."""


def _build_parser():
    parser = argparse.ArgumentParser(prog="vbvar",
                                     description="Bayesian VAR estimation: "
                                     "exact, variational, and Gibbs posteriors")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit one model and write a report")
    _add_common(fit)
    fit.add_argument("--prior", choices=["conjugate", "independent"])

    kl = sub.add_parser("kl", help="print exact and Stirling KL for (M, p, T, nu0)")
    kl.add_argument("--M", type=int, required=True)
    kl.add_argument("--p", type=int, required=True)
    kl.add_argument("--T", type=int, required=True)
    kl.add_argument("--nu0", type=float, required=True)

    cmp_ = sub.add_parser("compare", help="conjugate and independent reports "
                          "on the same data")
    _add_common(cmp_)
    return parser


def _add_common(sp):
    sp.add_argument("--data", help="CSV input path")
    sp.add_argument("--lags", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", help="JSON report output path")
    sp.add_argument("--config", help="JSON config file; flags override its values")
    sp.add_argument("--draws", type=int, default=None)
    sp.add_argument("--burn-in", dest="burn_in", type=int, default=None)
    sp.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--timestamps", action="store_true", default=None,
                    help="first CSV column is a timestamp")
    sp.add_argument("--export-draws", dest="export_draws",
                    help="write Gibbs draws to this CSV path")
    sp.add_argument("--export-elbo-trace", dest="export_elbo_trace",
                    help="write the VB ELBO trace to this CSV path")


def _merge_config(args) -> dict:
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read config file {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CliError(f"config file {args.config} is not valid JSON: {exc}") from exc
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in cfg:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _load_design(cfg):
    if not cfg.get("data"):
        raise CliError("no data file given (--data or config 'data')")
    try:
        series = load_csv(cfg["data"], has_timestamps=bool(cfg["timestamps"]))
    except OSError as exc:
        raise CliError(f"cannot read data file {cfg['data']}: {exc}") from exc
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    try:
        return build_design(series, cfg["lags"])
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _minnesota_config(cfg) -> MinnesotaConfig:
    try:
        return MinnesotaConfig(
            overall_tightness=float(cfg["lambda1"]),
            cross_tightness=float(cfg["lambda2"]),
            lag_decay=float(cfg["lambda3"]),
            intercept_scale=float(cfg["lambda4"]),
            own_lag_mean=float(cfg["own_lag_mean"]),
            dof_offset=int(cfg["dof_offset"]),
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _require_seed(cfg):
    if cfg.get("seed") is None:
        raise CliError("a --seed is required for stochastic methods")
    return int(cfg["seed"])


def _fit_independent(data, mn, cfg):
    """Minnesota independent prior with its VB fit and its Gibbs chain;
    needs a seed."""
    gibbs_cfg = imc.GibbsConfig(n_draws=int(cfg["draws"]),
                                burn_in=int(cfg["burn_in"]), seed=_require_seed(cfg))
    vb_cfg = ivb.VbConfig(max_iters=int(cfg["max_iters"]),
                          elbo_rel_tol=float(cfg["tol"]))
    prior = minnesota_independent(data, mn)
    vb = ivb.fit_vb_independent(prior, data, vb_cfg)
    return prior, vb, imc.gibbs_run(prior, data, gibbs_cfg)


def _write_report(report, cfg):
    text = report.to_json()
    if cfg.get("out"):
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(report.to_text())


def _write_exports(cfg, vb, draws):
    """Write the VB ELBO trace and the Gibbs draws where the config asks."""
    if cfg.get("export_elbo_trace"):
        with open(cfg["export_elbo_trace"], "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "elbo"])
            for i, value in enumerate(vb.elbo_trace):
                writer.writerow([i, repr(float(value))])
    if cfg.get("export_draws"):
        with open(cfg["export_draws"], "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            m = draws.n_vars
            mp = draws.beta_draws.shape[1]
            header = [f"beta_{i}" for i in range(mp)]
            header += [f"prec_{i}_{j}" for i in range(m) for j in range(m)]
            writer.writerow(header)
            for b, w in zip(draws.beta_draws, draws.precision_draws):
                writer.writerow(list(b) + list(w.reshape(-1)))


def cmd_fit(args) -> int:
    cfg = _merge_config(args)
    data = _load_design(cfg)
    mn = _minnesota_config(cfg)
    x_next = data.next_regressors()

    status = 0
    if cfg["prior"] == "conjugate":
        report = conjugate_report(minnesota_conjugate(data, mn), data, x_next)
    else:
        prior, vb, draws = _fit_independent(data, mn, cfg)
        report = independent_report(prior, data, x_next, vb, draws)
        if not vb.converged:
            status = 2
        _write_exports(cfg, vb, draws)
    _write_report(report, cfg)
    return status


def cmd_kl(args) -> int:
    try:
        exact = cvb.kl_exact(args.M, args.p, args.T, args.nu0)
        stirling = cvb.kl_stirling(args.M, args.p, args.T, args.nu0)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    print(f"kl_exact    {exact:.6f}")
    print(f"kl_stirling {stirling:.6f}")
    return 0


def cmd_compare(args) -> int:
    cfg = _merge_config(args)
    data = _load_design(cfg)
    mn = _minnesota_config(cfg)
    x_next = data.next_regressors()
    conj = conjugate_report(minnesota_conjugate(data, mn), data, x_next)
    prior, vb, draws = _fit_independent(data, mn, cfg)
    indep = independent_report(prior, data, x_next, vb, draws)
    _write_exports(cfg, vb, draws)
    combined = {
        "conjugate": json.loads(conj.to_json()),
        "independent": json.loads(indep.to_json()),
    }
    text = json.dumps(combined, indent=2, sort_keys=True)
    if cfg.get("out"):
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(conj.to_text())
    print()
    print(indep.to_text())
    return 0 if vb.converged else 2


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"fit": cmd_fit, "kl": cmd_kl, "compare": cmd_compare}
    try:
        return handlers[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
