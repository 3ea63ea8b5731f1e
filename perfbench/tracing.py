"""Span tracing of vbvar from outside the package.

`Tracer.install()` wraps the public callables of each vbvar module (its
`__all__`, with the public methods of the classes listed there; `main` for
the CLI) and the factorisation and solve functions the modules call:
`numpy.linalg.cholesky` and the `scipy.linalg` names `cholesky`,
`cho_factor`, `cho_solve` and `solve_triangular`.  Wrappers replace every
module-global binding that is the original object, found by identity, so
an alias or re-export introduced by a later refactor is still counted.
`uninstall()` restores every binding.

A span is (name, start, end, parent, operation id, work annotation); spans
stay in memory and are written out when the run ends.  Self time is a
span's duration minus the time its direct children cover (the program is
single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
from time import perf_counter

import numpy as np
import scipy.linalg

# Layers of the program: the vbvar modules, each named by its module.
LAYERS = ("cli", "conjugate_exact", "conjugate_vb", "independent_mcmc",
          "independent_vb", "mvdist", "priors", "report", "vardata")

# Modules without `__all__` expose these entry points.
ENTRY_POINTS = {"cli": ("main",)}


def _gibbs_work(args, kwargs, out):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return {"draws": cfg.n_draws}


def _ris_work(args, kwargs, out):
    draws = args[0] if args else kwargs["draws"]
    return {"draws": draws.n_kept, "ess": out["ess"]}


def _predictive_gibbs_work(args, kwargs, out):
    draws = args[0] if args else kwargs["draws"]
    return {"draws": draws.n_kept}


def _mc_elbo_work(args, kwargs, out):
    return {"draws": out["n_draws"]}


def _vb_work(args, kwargs, out):
    return {"iterations": out.iterations}


def _cholesky_work(args, kwargs, out):
    a = np.asarray(args[0] if args else kwargs["a"])
    n = a.shape[-1]
    batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
    return {"gflop": batch * n**3 / 3.0 / 1e9}


def _cho_solve_work(args, kwargs, out):
    b = np.asarray(args[1] if len(args) > 1 else kwargs["b"])
    return {"rhs_cols": b.shape[1] if b.ndim > 1 else 1}


# Work a span did, read from its arguments and result at the boundary.
WORK = {
    "independent_mcmc.gibbs_run": _gibbs_work,
    "independent_mcmc.lnml_ris": _ris_work,
    "independent_mcmc.predictive_gibbs": _predictive_gibbs_work,
    "conjugate_vb.mc_elbo_estimate": _mc_elbo_work,
    "independent_vb.fit_vb_independent": _vb_work,
    "linalg.cholesky": _cholesky_work,
    "linalg.cho_solve": _cho_solve_work,
}

# Linear-algebra originals and the span each is counted under.  All
# Cholesky factorisations count as one kind of work.
LINALG = (
    (np.linalg.cholesky, "linalg.cholesky"),
    (scipy.linalg.cholesky, "linalg.cholesky"),
    (scipy.linalg.cho_factor, "linalg.cholesky"),
    (scipy.linalg.cho_solve, "linalg.cho_solve"),
    (scipy.linalg.solve_triangular, "linalg.solve_triangular"),
)


def public_callables():
    """(owner, attribute, function, span name) for every traced callable."""
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"vbvar.{layer}")
        names = ENTRY_POINTS.get(layer) or module.__all__
        for name in names:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                found.append((module, name, obj, f"{layer}.{name}"))
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        found.append((obj, attr, member, f"{layer}.{name}.{attr}"))
    return found


class Tracer:
    """Collects spans while installed; one tracer per run."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, op id, work]
        self._stack = []
        self.op_id = -1
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, fn, name):
        spans, stack, work = self.spans, self._stack, WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if work is not None:
                rec[5] = work(args, kwargs, out)
            return out

        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for owner, attr, fn, name in public_callables():
            wrappers[id(fn)] = (fn, self._wrap(fn, name))
            if inspect.isclass(owner):
                self._patch(owner, attr, wrappers[id(fn)][1])
        for fn, name in LINALG:
            wrappers.setdefault(id(fn), (fn, self._wrap(fn, name)))
        # numpy.linalg.cholesky is reached as an attribute of numpy.linalg
        self._patch(np.linalg, "cholesky", wrappers[id(np.linalg.cholesky)][1])
        for layer in LAYERS:
            module = importlib.import_module(f"vbvar.{layer}")
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path):
        """Spans as gzipped JSON lines: name, start, end, parent, op, work."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def per_op_totals(self) -> dict:
        """op id -> span name -> {calls, s, self_s, work sums}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op, work in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {}
        for i, (name, start, end, parent, op, work) in enumerate(self.spans):
            agg = totals.setdefault(op, {}).setdefault(
                name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += (end - start) - child_time[i]
            for key, value in (work or {}).items():
                agg[key] = agg.get(key, 0) + value
        return totals


def layer_metrics(op: dict, extra: dict) -> dict:
    """Per-layer metrics of one traced operation from its span totals."""

    def get(name, key="s"):
        return op.get(name, {}).get(key, 0.0 if key in ("s", "self_s") else 0)

    def per(name, unit):
        count = get(name, unit)
        return get(name) / count if count else 0.0

    gibbs_s_per_draw = per("independent_mcmc.gibbs_run", "draws")
    floor = extra["chol_floor_s"]
    ris_draws = get("independent_mcmc.lnml_ris", "draws")
    m = {
        "independent_mcmc.gibbs_run.s_per_draw": gibbs_s_per_draw,
        "independent_mcmc.gibbs_run.calls": get("independent_mcmc.gibbs_run", "calls"),
        "independent_mcmc.lnml_ris.s_per_draw": per("independent_mcmc.lnml_ris", "draws"),
        "independent_mcmc.predictive_gibbs.s_per_draw":
            per("independent_mcmc.predictive_gibbs", "draws"),
        "independent_mcmc.summarize_draws.s": get("independent_mcmc.summarize_draws"),
        "independent_mcmc.chol_floor_s": floor,
        "independent_mcmc.gibbs_over_chol_floor": gibbs_s_per_draw / floor,
        "independent_mcmc.ris_ess_ratio":
            get("independent_mcmc.lnml_ris", "ess") / ris_draws if ris_draws else 0.0,
        "independent_vb.fit_vb_independent.s_per_iter":
            per("independent_vb.fit_vb_independent", "iterations"),
        "independent_vb.fit_vb_independent.iterations":
            get("independent_vb.fit_vb_independent", "iterations"),
        "independent_vb.fit_vb_independent.calls":
            get("independent_vb.fit_vb_independent", "calls"),
        "independent_vb.elbo_independent.s": get("independent_vb.elbo_independent"),
        "independent_vb.modes_vb_iterative.s": get("independent_vb.modes_vb_iterative"),
        "independent_vb.modes_exact_iterative.s": get("independent_vb.modes_exact_iterative"),
        "independent_vb.predictive_vb_independent.s":
            get("independent_vb.predictive_vb_independent"),
        "conjugate_exact.fit_exact.s": get("conjugate_exact.fit_exact"),
        "conjugate_exact.fit_exact.calls": get("conjugate_exact.fit_exact", "calls"),
        "conjugate_exact.log_marginal_likelihood.s":
            get("conjugate_exact.log_marginal_likelihood"),
        "conjugate_vb.mc_elbo_estimate.s_per_draw": per("conjugate_vb.mc_elbo_estimate", "draws"),
    }
    for cls in ("WishartDist", "MatricNormal"):
        for meth in ("sample", "logpdf"):
            name = f"mvdist.{cls}.{meth}"
            m[f"{name}.calls"] = get(name, "calls")
            m[f"{name}.self_s"] = get(name, "self_s")
    m.update({
        "priors.minnesota_independent.s": get("priors.minnesota_independent"),
        "priors.minnesota_conjugate.s": get("priors.minnesota_conjugate"),
        "vardata.load_csv.s": get("vardata.load_csv"),
        "vardata.build_design.s": get("vardata.build_design"),
        "report.independent_report.self_s": get("report.independent_report", "self_s"),
        "report.conjugate_report.self_s": get("report.conjugate_report", "self_s"),
        "report.DiagnosticsReport.to_json.s": get("report.DiagnosticsReport.to_json"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "cli.export_bytes": extra["export_bytes"],
        "linalg.cholesky.calls": get("linalg.cholesky", "calls"),
        "linalg.cholesky.gflop_computed": get("linalg.cholesky", "gflop"),
        "linalg.cholesky.self_s": get("linalg.cholesky", "self_s"),
        "linalg.cho_solve.calls": get("linalg.cho_solve", "calls"),
        "linalg.cho_solve.rhs_cols": get("linalg.cho_solve", "rhs_cols"),
        "linalg.cho_solve.self_s": get("linalg.cho_solve", "self_s"),
        "linalg.solve_triangular.calls": get("linalg.solve_triangular", "calls"),
        "linalg.solve_triangular.self_s": get("linalg.solve_triangular", "self_s"),
    })
    return m


def median_metrics(per_op: list) -> dict:
    return {k: statistics.median(op[k] for op in per_op) for k in per_op[0]}
