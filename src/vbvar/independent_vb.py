"""Coordinate-ascent mean-field VB for the independent-prior VAR, ELBO
monitoring, VB predictive moments, and iterative joint-mode schemes for
both the exact and the VB posterior.

Coordinate-ascent VB and both mode iterations run one coefficient step per
iteration, the Gaussian conditional of beta given Sigma^-1 = P
(:mod:`vbvar.conditional`, which describes its two routes), at
E_q[Sigma^-1] or at lambda * Sigma-hat^-1; each starts at the prior mean of
Sigma^-1.  The prior's V0^-1, S0^-1 and log-determinants are cached on the
prior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import multigammaln

from .conditional import _coefficient_step, _omega, _prior_trace
from .mvdist import (
    NotPositiveDefiniteError,
    UndefinedMomentError,
    WishartDist,
    check_fields,
    chol_logdet,
    normal_wishart_predictive,
    set_fields,
    spd_cholesky,
    spd_inverse,
)
from .priors import IndependentPrior
from .vardata import DesignData, regressor_row

__all__ = [
    "VbConfig",
    "IndependentVbPosterior",
    "fit_vb_independent",
    "elbo_independent",
    "predictive_vb_independent",
    "modes_exact_iterative",
    "modes_vb_iterative",
]


@dataclass(frozen=True)
class VbConfig:
    """Coordinate-ascent settings."""

    max_iters: int = 500
    elbo_rel_tol: float = 1e-9

    def __post_init__(self):
        check_fields(self)
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.elbo_rel_tol <= 0:
            raise ValueError("elbo_rel_tol must be positive")


@dataclass(frozen=True)
class IndependentVbPosterior:
    """q(beta) = N(mean_b, cov_b), q(Sigma^-1) = W(scale_q^-1, dof)."""

    mean_b: np.ndarray
    cov_b: np.ndarray
    scale_q: np.ndarray
    dof: float
    elbo_trace: tuple
    converged: bool

    def __post_init__(self):
        set_fields(self, mean_b=self.mean_b, cov_b=self.cov_b, scale_q=self.scale_q,
                   elbo_trace=tuple(self.elbo_trace))

    @property
    def iterations(self) -> int:
        return len(self.elbo_trace)

    @property
    def n_vars(self) -> int:
        return self.scale_q.shape[0]

    @property
    def n_regressors(self) -> int:
        return self.mean_b.size // self.n_vars

    def precision_density(self) -> WishartDist:
        return WishartDist(spd_inverse(self.scale_q, "scale_q")[0], self.dof)

    def coef_matrix(self) -> np.ndarray:
        """mean_b reshaped to the p x M coefficient layout."""
        return self.mean_b.reshape((self.n_regressors, self.n_vars), order="F")


# An ELBO step below -ELBO_FALL_TOL * max(1, |ELBO|) is a real decrease,
# not round-off; coordinate ascent cannot produce one at a correct update.
ELBO_FALL_TOL = 1e-11
# the most fixed-point steps a mode solver takes
MODE_MAX_ITERS = 1000


def fit_vb_independent(
    prior: IndependentPrior, data: DesignData, cfg: VbConfig | None = None
) -> IndependentVbPosterior:
    """Coordinate ascent: beta-block update given E[Sigma^-1], then scale
    update; stops when the relative increase of the closed-form ELBO, taken
    after each scale update, drops below tolerance.

    An ELBO decrease beyond round-off stops the iteration unconverged."""
    cfg = cfg or VbConfig()
    beta_step = _coefficient_step(prior, data)
    nub = data.effective_T + prior.dof
    e_prec = prior.precision_mean

    trace = []
    converged = False
    mean_b = scale_q = None
    for _ in range(cfg.max_iters):
        try:
            mean_b, logdet_cov_b, omega, trace_cov_b = beta_step.moments(e_prec)
            resid = data.residuals(mean_b)
            scale_q = prior.scale + resid.T @ resid + omega
            scale_q = (scale_q + scale_q.T) / 2.0
            scale_q_inv, logdet_scale_q = spd_inverse(scale_q, "scale_q")
        except (np.linalg.LinAlgError, NotPositiveDefiniteError) as exc:
            raise NotPositiveDefiniteError("Cholesky failure in VB update") from exc
        e_prec = nub * scale_q_inv
        trace.append(_elbo(prior, data, mean_b, logdet_cov_b, trace_cov_b, logdet_scale_q, nub))
        if len(trace) > 1:
            step = trace[-1] - trace[-2]
            if step < -ELBO_FALL_TOL * max(abs(trace[-2]), 1.0):
                break
            if step / max(abs(trace[-2]), 1.0) < cfg.elbo_rel_tol:
                converged = True
                break
    return IndependentVbPosterior(
        mean_b=mean_b,
        cov_b=beta_step.cov(),
        scale_q=scale_q,
        dof=nub,
        elbo_trace=tuple(trace),
        converged=converged,
    )


def elbo_independent(
    prior: IndependentPrior,
    vb_post: IndependentVbPosterior,
    data: DesignData,
) -> float:
    """Closed-form ELBO, valid after any scale update, not only at the fixed point.

    The leading constant is M*p/2, which the Monte-Carlo check confirms;
    the source display prints p/2, and the two coincide for M = 1.
    """
    return _elbo(prior, data, vb_post.mean_b,
                 chol_logdet(spd_cholesky(vb_post.cov_b, "cov_b")),
                 _prior_trace(prior, vb_post.cov_b),
                 chol_logdet(spd_cholesky(vb_post.scale_q, "scale_q")), vb_post.dof)


def _elbo(prior, data, mean_b, logdet_cov_b, trace_cov_b, logdet_scale_q, dof) -> float:
    """The closed-form ELBO from ln |cov_b|, tr(V0^-1 cov_b), ln |scale_q|
    and dof = T + prior dof; both coefficient routes supply the first two."""
    t, m, p = data.effective_T, data.n_vars, data.n_regressors
    db = mean_b - prior.mean_b
    tr_term = float(np.einsum("i,ij,j->", db, prior.cov_inv, db)) + trace_cov_b
    return (
        m * p / 2.0
        - m * t / 2.0 * np.log(np.pi)
        + multigammaln(dof / 2.0, m)
        - multigammaln(prior.dof / 2.0, m)
        + 0.5 * (logdet_cov_b - prior.logdet_cov)
        + 0.5 * (-dof * logdet_scale_q + prior.dof * prior.logdet_scale)
        - 0.5 * tr_term
    )


def predictive_vb_independent(vb_post: IndependentVbPosterior, x_next) -> dict:
    """One-step VB predictive moments: mean Z beta_q, normal part Z Vq Z'
    from q(beta) and t part from q(Sigma^-1) = W(scale_q^-1, dof), as the
    :func:`mvdist.normal_wishart_predictive` record."""
    m, p = vb_post.n_vars, vb_post.n_regressors
    x = regressor_row(x_next, p)
    return normal_wishart_predictive(x @ vb_post.coef_matrix(),
                                     _omega(vb_post.cov_b, np.outer(x, x), m, p),
                                     vb_post.scale_q, vb_post.dof)


def _iterate_modes(prior, data, tol, vb_corrected):
    beta_step = _coefficient_step(prior, data)
    m = data.n_vars
    dof_factor = data.effective_T + prior.dof - m - 1
    if dof_factor <= 0:
        raise UndefinedMomentError("mode iteration needs T + prior dof > M + 1")
    lam = 1.0 + (m + 1.0) / dof_factor if vb_corrected else 1.0
    prec = prior.precision_mean
    beta = np.asarray(prior.mean_b, dtype=float).copy()
    converged = False
    for it in range(MODE_MAX_ITERS):
        try:
            if vb_corrected:
                beta_new, _, omega, _ = beta_step.moments(lam * prec)
            else:
                beta_new = beta_step.mean(lam * prec)
            resid = data.residuals(beta_new)
            scale = prior.scale + resid.T @ resid
            if vb_corrected:
                scale = scale + omega
            prec_new = dof_factor * spd_inverse((scale + scale.T) / 2.0, "scale")[0]
        except (np.linalg.LinAlgError, NotPositiveDefiniteError) as exc:
            raise NotPositiveDefiniteError(f"Cholesky failure in mode iteration {it}") from exc
        delta = max(
            float(np.max(np.abs(beta_new - beta))) / max(float(np.max(np.abs(beta_new))), 1e-12),
            float(np.max(np.abs(prec_new - prec))) / max(float(np.max(np.abs(prec_new))), 1e-12),
        )
        beta, prec = beta_new, prec_new
        if delta < tol:
            converged = True
            break
    return {"beta": beta, "precision": prec, "converged": converged, "iterations": it + 1}


def modes_exact_iterative(prior: IndependentPrior, data: DesignData, tol: float = 1e-10) -> dict:
    """Joint mode of the exact independent-prior posterior by fixed-point
    iteration on the stationarity conditions, as {"beta", "precision",
    "converged", "iterations"}."""
    return _iterate_modes(prior, data, tol, vb_corrected=False)


def modes_vb_iterative(prior: IndependentPrior, data: DesignData, tol: float = 1e-10) -> dict:
    """Joint mode of the VB posterior via the lambda-corrected iteration,
    lambda = 1 + (M+1)/(T + prior dof - M - 1)."""
    return _iterate_modes(prior, data, tol, vb_corrected=True)
