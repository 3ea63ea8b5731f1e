"""Diagnostics reports comparing exact, VB, and Gibbs posteriors:
mean/variance/mode ratio tables, lnML vs ELBO vs KL, predictive ratios.

Reports are deterministic given seeds: serializing the same report twice
yields identical JSON bytes, and the same inputs and seeds give identical
bytes at one BLAS thread count, and at Mp = 21 under one and two OpenBLAS
threads alike.  At larger Mp an independent report's Gibbs and RIS cells
can move in their last bits between thread counts: at Mp = 203, where VB
takes the closed-form Kronecker step and its cells held, ``ris_ess`` moved
by up to 2.2e-13 relative and ``kl`` by 1.3e-12, where lnML - ELBO cancels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import conjugate_exact as cex
from . import conjugate_vb as cvb
from . import independent_mcmc as imc
from . import independent_vb as ivb
from .priors import ConjugatePrior, IndependentPrior
from .vardata import DesignData, regressor_row

__all__ = ["DiagnosticsReport", "conjugate_report", "independent_report"]

# per report kind, the library functions behind each kl_section and
# ratio_section cell
_TRACE = {
    "conjugate": {
        "lnml": "log_marginal_likelihood",
        "elbo": "elbo_conjugate",
        "kl": "kl_exact",
        "kl_stirling": "kl_stirling",
        "identity_residual": "log_marginal_likelihood - elbo_conjugate - kl_exact",
        **dict.fromkeys(("coef_var_ratio", "prec_var_ratio_wishart", "prec_var_ratio_text",
                         "mode_ratio", "pred_var_ratio"), "moment_ratios"),
        "pred_mean_ratio": "1: predictive_vb_conjugate and predictive_exact share the mean",
        "pred_var_ratio_at_x": "predictive_vb_conjugate / predictive_exact",
    },
    "independent": {
        "lnml_ris": "lnml_ris",
        "elbo": "elbo_independent",
        "kl": "lnml_ris - elbo_independent",
        "precision_mean_ratio": "fit_vb_independent / summarize_draws",
        "precision_var_ratio": "fit_vb_independent / summarize_draws",
        "pred_mean_ratio": "predictive_vb_independent / predictive_gibbs",
        "pred_var_ratio": "predictive_vb_independent / predictive_gibbs",
    },
}


@dataclass(frozen=True)
class DiagnosticsReport:
    """Assembled comparison tables plus provenance (seeds, draw counts)."""

    model_meta: dict
    kl_section: dict
    ratio_section: dict
    provenance: dict

    def to_json(self) -> str:
        payload = {
            "meta": self.model_meta,
            "kl_section": self.kl_section,
            "ratio_section": self.ratio_section,
            "provenance": self.provenance,
            "traceability": _TRACE[self.model_meta["prior_type"]],
        }
        # ndarrays and numpy scalars become Python values (np.float64 is a float)
        return json.dumps(payload, indent=2, sort_keys=True, default=lambda x: x.tolist())

    def to_text(self) -> str:
        lines = []
        meta = self.model_meta
        lines.append(
            f"model: {meta.get('prior_type')} VAR  M={meta.get('M')} p={meta.get('p')}"
            f" T={meta.get('T')} d={meta.get('d')} prior_dof={meta.get('prior_dof')}"
        )
        lines.append("-" * 64)
        for section_name, section in (("kl", self.kl_section),
                                      ("ratios", self.ratio_section)):
            lines.append(f"[{section_name}]")
            for key, val in section.items():
                if isinstance(val, dict) and "value" in val:
                    se = val.get("se")
                    tail = f" +/- {_fmt(se)}" if se is not None else ""
                    lines.append(f"  {key:<28}{_fmt(val['value'])}{tail}")
                else:
                    lines.append(f"  {key:<28}{_fmt(val)}")
        prov = self.provenance
        if prov.get("ris_degenerate_weights"):
            lines.append(
                f"warning: degenerate RIS weights (ESS {prov['ris_ess']:.1f} of "
                f"{prov['n_draws'] - prov['burn_in']} kept draws); lnml_ris and kl "
                "rest on a few draws"
            )
        return "\n".join(lines)


def _fmt(v):
    if isinstance(v, (list, np.ndarray)):
        arr = np.asarray(v).reshape(-1)
        return "[" + ", ".join(f"{x:.6f}" for x in arr) + "]"
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def conjugate_report(prior: ConjugatePrior, data: DesignData, x_next) -> DiagnosticsReport:
    """Exact-vs-VB comparison for the conjugate prior; fully analytic."""
    x = regressor_row(x_next, prior.n_regressors)
    post = cex.fit_exact(prior, data)
    vb = cvb.ConjugateVbPosterior.from_exact(post)
    m, p, t = post.n_vars, post.n_regressors, post.n_obs
    c = float(x @ post.row_cov @ x)
    lnml = cex.log_marginal_likelihood(prior, post)
    elbo = cvb.elbo_conjugate(prior, vb)
    kl = cvb.kl_exact(m, p, t, prior.dof)
    ratios = cvb.moment_ratios(m, p, t, prior.dof, c=c)
    pred_exact = cex.predictive_exact(post, x)
    pred_vb = cvb.predictive_vb_conjugate(vb, x)
    mean_ratio = np.ones(m)  # VB and exact predictive means coincide exactly
    ratio_section = dict(ratios)
    ratio_section["pred_mean_ratio"] = mean_ratio
    ratio_section["pred_var_ratio_at_x"] = float(
        np.trace(pred_vb["variance"]) / np.trace(pred_exact["variance"])
    )
    return DiagnosticsReport(
        model_meta={"prior_type": "conjugate", "M": m, "p": p, "T": t,
                    "d": data.lag_order, "prior_dof": prior.dof},
        kl_section={
            "lnml": lnml,
            "elbo": elbo,
            "kl": kl,
            "kl_stirling": cvb.kl_stirling(m, p, t, prior.dof),
            "identity_residual": lnml - elbo - kl,
        },
        ratio_section=ratio_section,
        provenance={"stochastic": False, "tolerances": {"identity": 1e-8}},
    )


def _ratio(vb, mcmc, **extra) -> dict:
    """One Gibbs-vs-VB ratio cell: VB over Gibbs, both sides, and any
    ``extra`` entries such as a Monte-Carlo standard error."""
    return {"value": vb / mcmc, "vb": vb, "mcmc": mcmc, **extra}


def independent_report(
    prior: IndependentPrior,
    data: DesignData,
    x_next,
    vb: ivb.IndependentVbPosterior,
    draws: imc.GibbsDraws,
) -> DiagnosticsReport:
    """Gibbs-vs-VB comparison for the independent prior from the VB fit
    ``vb`` and the Gibbs chain ``draws`` of ``prior`` and ``data``;
    stochastic cells carry Monte-Carlo standard errors.

    The seed, burn-in and draw count in the provenance are the chain's, and
    the predictive simulation is seeded with the chain's seed + 1.  The
    ``elbo`` cell is ``vb.elbo_trace[-1]``, the closed form at the returned fit."""
    x = regressor_row(x_next, prior.n_regressors)
    if (vb.n_vars, vb.n_regressors) != (prior.n_vars, prior.n_regressors):
        raise ValueError("vb is not a fit of this prior's dimensions")
    if draws.n_vars != prior.n_vars or draws.beta_draws.shape[1] != prior.mean_b.size:
        raise ValueError("draws are not a chain of this prior's dimensions")
    summary = imc.summarize_draws(draws)
    m, p = vb.n_vars, vb.n_regressors
    t = data.effective_T

    q_prec = vb.precision_density()
    pred_mc = imc.predictive_gibbs(draws, x, np.random.default_rng(draws.seed + 1))
    pred_vb = ivb.predictive_vb_independent(vb, x)
    elbo = vb.elbo_trace[-1]
    ris = imc.lnml_ris(draws, vb, prior, data)

    return DiagnosticsReport(
        model_meta={"prior_type": "independent", "M": m, "p": p, "T": t,
                    "d": data.lag_order, "prior_dof": prior.dof},
        kl_section={
            "lnml_ris": {"value": ris["estimate"], "se": ris["std_error"]},
            "elbo": elbo,
            "kl": {"value": ris["estimate"] - elbo, "se": ris["std_error"]},
        },
        ratio_section={
            "precision_mean_ratio": _ratio(np.diag(q_prec.mean()),
                                           np.diag(summary["precision_mean"]),
                                           se=np.diag(summary["precision_mean_se"])),
            "precision_var_ratio": _ratio(np.diag(q_prec.var()),
                                          np.diag(summary["precision_var"])),
            "pred_mean_ratio": _ratio(pred_vb["mean"], pred_mc["mean"],
                                      se=pred_mc["mean_se"]),
            "pred_var_ratio": _ratio(np.diag(pred_vb["variance"]),
                                     np.diag(pred_mc["variance"])),
        },
        provenance={
            "stochastic": True,
            "seed": draws.seed,
            "n_draws": draws.burn_in + draws.n_kept,
            "burn_in": draws.burn_in,
            "vb_iterations": vb.iterations,
            "vb_converged": vb.converged,
            "ris_ess": ris["ess"],
            "ris_degenerate_weights": ris["degenerate_weights"],
        },
    )
