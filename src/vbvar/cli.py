"""Command-line interface: fit models, evaluate the KL constants, and run
exact/VB/Gibbs comparisons on one dataset.

Exit codes: 0 success, 1 input/domain error, 2 VB non-convergence (the
report is still written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import conjugate_vb as cvb
from . import independent_mcmc as imc
from . import independent_vb as ivb
from .priors import MinnesotaConfig, minnesota_conjugate, minnesota_independent
from .report import conjugate_report, independent_report
from .vardata import build_design, load_csv

# the library configs a config file sets, as {config key: field}; each class owns its defaults
LIBRARY_KEYS = {
    MinnesotaConfig: {"lambda1": "overall_tightness", "lambda2": "cross_tightness",
                      "lambda3": "lag_decay", "lambda4": "intercept_scale",
                      "own_lag_mean": "own_lag_mean", "dof_offset": "dof_offset"},
    ivb.VbConfig: {"max_iters": "max_iters", "tol": "elbo_rel_tol"},
}

# a config value must have its default's JSON type (float admits integers, only bool
# admits booleans); a key whose default is None has its type here and also admits null
UNSET_TYPES = {"seed": int, "out": str, "data": str, "export_draws": str, "export_elbo_trace": str}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}

# every config-file key, with its default; flags override both
DEFAULTS = {
    "prior": "conjugate", "lags": 1, "draws": 2000, "burn_in": 500, "timestamps": False,
    **dict.fromkeys(UNSET_TYPES),
    **{key: getattr(kind(), field) for kind, keys in LIBRARY_KEYS.items()
       for key, field in keys.items()},
}

PRIORS = ("conjugate", "independent")


class CliError(ValueError):
    """Input error reported with exit status 1."""


def _build_parser():
    parser = argparse.ArgumentParser(prog="vbvar",
                                     description="Bayesian VAR estimation: "
                                     "exact, variational, and Gibbs posteriors")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit one model and write a report")
    _add_common(fit)
    fit.add_argument("--prior", choices=PRIORS)

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
        if not isinstance(file_cfg, dict):
            raise CliError(f"config file {args.config} must hold a JSON object")
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            _check_type(key, value)
        cfg.update(file_cfg)
    for key in cfg:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    if cfg["prior"] not in PRIORS:
        raise CliError(f"unknown prior {cfg['prior']!r}: choose 'conjugate' or 'independent'")
    return cfg


def _check_type(key, value):
    if value is None and key in UNSET_TYPES:
        return
    kind = UNSET_TYPES.get(key, type(DEFAULTS[key]))
    if (isinstance(value, bool) != (kind is bool)
            or not isinstance(value, (int, float) if kind is float else kind)):
        raise CliError(f"config key {key!r} must be {_TYPE_NAMES[kind]}, got {json.dumps(value)}")


def _load_design(cfg):
    if not cfg.get("data"):
        raise CliError("no data file given (--data or config 'data')")
    try:
        values = load_csv(cfg["data"], has_timestamps=cfg["timestamps"])
    except OSError as exc:
        raise CliError(f"cannot read data file {cfg['data']}: {exc}") from exc
    return build_design(values, cfg["lags"])


def _library_config(kind, cfg):
    """``kind`` (a class of LIBRARY_KEYS) built from the config values of its keys."""
    return kind(**{field: cfg[key] for key, field in LIBRARY_KEYS[kind].items()})


def _csv_row(cells) -> str:
    """One CSV line of string cells, as csv.writer writes it when no cell
    needs quoting: no header here does, and csv.writer writes a float as its
    repr and never quotes one."""
    return ",".join(cells) + "\r\n"


def _write_exports(cfg, vb, draws):
    """Write the VB ELBO trace and the Gibbs draws where the config asks."""
    if cfg.get("export_elbo_trace"):
        with open(cfg["export_elbo_trace"], "w", newline="", encoding="utf-8") as fh:
            fh.write(_csv_row(["iteration", "elbo"]))
            fh.writelines(_csv_row([str(i), repr(float(value))])
                          for i, value in enumerate(vb.elbo_trace))
    if cfg.get("export_draws"):
        with open(cfg["export_draws"], "w", newline="", encoding="utf-8") as fh:
            m = draws.n_vars
            mp = draws.beta_draws.shape[1]
            header = [f"beta_{i}" for i in range(mp)]
            header += [f"prec_{i}_{j}" for i in range(m) for j in range(m)]
            fh.write(_csv_row(header))
            fh.writelines(_csv_row(map(repr, b.tolist() + w.ravel().tolist()))
                          for b, w in zip(draws.beta_draws, draws.precision_draws))


def _run(cfg, priors) -> int:
    """Load the design once and build one report per prior in ``priors``.

    The independent prior fits VB and a Gibbs chain (it needs a seed) and
    writes the exports.  One report goes to ``--out`` as is, several as one
    JSON object keyed by prior; the text reports are printed one blank line
    apart.  Returns 2 when VB did not converge, else 0.

    Every output path and the Gibbs chain's settings (kept draws, seed)
    are checked before the data are loaded, so none is found after fitting."""
    if "independent" in priors:
        if cfg["draws"] - cfg["burn_in"] < imc.MIN_PREDICTIVE_DRAWS:
            raise CliError(f"--draws minus --burn-in must be at least {imc.MIN_PREDICTIVE_DRAWS}")
        if cfg.get("seed") is None:
            raise CliError("a --seed is required for stochastic methods")
        gibbs_cfg = imc.GibbsConfig(n_draws=cfg["draws"], burn_in=cfg["burn_in"],
                                    seed=cfg["seed"])
    else:
        for key in ("export_draws", "export_elbo_trace"):
            if cfg.get(key):
                raise CliError(f"--{key.replace('_', '-')} needs the independent prior")
    for key in ("out", "export_draws", "export_elbo_trace"):
        path, flag = cfg.get(key) or "", f"--{key.replace('_', '-')}"
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise CliError(f"{flag}: no directory {directory!r}")
        if os.path.isdir(path):
            raise CliError(f"{flag}: {path!r} is a directory")
    data = _load_design(cfg)
    mn = _library_config(MinnesotaConfig, cfg)
    x_next = data.next_regressors()
    reports = {}
    status = 0
    for name in priors:
        if name == "conjugate":
            reports[name] = conjugate_report(minnesota_conjugate(data, mn), data, x_next)
            continue
        vb_cfg = _library_config(ivb.VbConfig, cfg)
        prior = minnesota_independent(data, mn)
        # through the module attributes, so a substituted fit is the one run
        vb = ivb.fit_vb_independent(prior, data, vb_cfg)
        draws = imc.gibbs_run(prior, data, gibbs_cfg)
        reports[name] = independent_report(prior, data, x_next, vb, draws)
        _write_exports(cfg, vb, draws)
        status = 0 if vb.converged else 2

    if len(reports) == 1:
        text = next(iter(reports.values())).to_json()
    else:
        text = json.dumps({name: json.loads(r.to_json()) for name, r in reports.items()},
                          indent=2, sort_keys=True)
    if cfg.get("out"):
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print("\n\n".join(r.to_text() for r in reports.values()))
    return status


def cmd_kl(args) -> int:
    exact = cvb.kl_exact(args.M, args.p, args.T, args.nu0)
    stirling = cvb.kl_stirling(args.M, args.p, args.T, args.nu0)
    print(f"kl_exact    {exact:.6f}")
    print(f"kl_stirling {stirling:.6f}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "kl":
            return cmd_kl(args)
        cfg = _merge_config(args)
        return _run(cfg, [cfg["prior"]] if args.command == "fit" else PRIORS)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
