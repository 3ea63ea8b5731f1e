"""Coordinate-ascent mean-field VB for the independent-prior VAR, ELBO
monitoring, VB predictive moments, and iterative joint-mode schemes for
both the exact and the VB posterior.

Coordinate-ascent VB and both mode iterations run one coefficient step per
iteration, the Gaussian conditional of beta given Sigma^-1 = P
(:mod:`vbvar.conditional`, which describes its two routes), at
E_q[Sigma^-1] or at lambda * Sigma-hat^-1, then the Sigma^-1 step that
the Gibbs sweep draws from; each starts at the prior mean of Sigma^-1.  The
prior's V0^-1, S0^-1 and log-determinants are cached on the prior.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import multigammaln

from .conditional import _coefficient_step, _precision_step, _prior_precision_rows
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
    """q(beta) = N(mean_b, cov_b), q(Sigma^-1) = W(scale_q^-1, dof).

    ``coef_state`` holds cov_b as the state the last step returned
    (:mod:`vbvar.conditional`, a factor of cov_b^-1 or a basis), with its
    ln |cov_b| and tr(V0^-1 cov_b): it scores q(beta), gives the predictive's
    normal part and the ELBO's terms with no dense cov_b and no factor of
    it.  :attr:`cov_b` forms it on first access, once, read-only, and
    :meth:`precision_density` builds q(Sigma^-1) on its first call, once."""

    mean_b: np.ndarray
    coef_state: object
    scale_q: np.ndarray
    dof: float
    elbo_trace: tuple
    converged: bool

    def __post_init__(self):
        set_fields(self, mean_b=self.mean_b, scale_q=self.scale_q,
                   elbo_trace=tuple(self.elbo_trace))

    @cached_property
    def cov_b(self) -> np.ndarray:
        """The dense covariance of q(beta), from ``coef_state``."""
        cov = self.coef_state.cov()
        cov.setflags(write=False)
        return cov

    @property
    def iterations(self) -> int:
        return len(self.elbo_trace)

    @property
    def n_vars(self) -> int:
        return self.scale_q.shape[0]

    @property
    def n_regressors(self) -> int:
        return self.mean_b.size // self.n_vars

    @cached_property
    def _precision_density(self) -> WishartDist:
        return WishartDist(spd_inverse(self.scale_q, "scale_q")[0], self.dof)

    def precision_density(self) -> WishartDist:
        """q(Sigma^-1) = W(scale_q^-1, dof), built on the first call and
        returned by every later one: the report and :func:`lnml_ris` share
        one inverse and one factor of scale_q."""
        return self._precision_density

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
    mean_b = scale_q = coef_state = None
    for _ in range(cfg.max_iters):
        # the last state goes before the step makes the next: one at a time
        coef_state = None
        try:
            mean_b, omega, coef_state = beta_step.moments(e_prec)
            scale_q, lower, root = _precision_step(prior, data, mean_b, omega)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError("Cholesky failure in VB update") from exc
        e_prec = nub * (root @ root.T)
        trace.append(_elbo(prior, data, mean_b, coef_state.logdet, coef_state.prior_trace,
                           chol_logdet(lower), nub))
        if len(trace) > 1:
            step = trace[-1] - trace[-2]
            if step < -ELBO_FALL_TOL * max(abs(trace[-2]), 1.0):
                break
            if step / max(abs(trace[-2]), 1.0) < cfg.elbo_rel_tol:
                converged = True
                break
    return IndependentVbPosterior(
        mean_b=mean_b,
        coef_state=coef_state,
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

    ln |cov_b| and tr(V0^-1 cov_b) are read from ``coef_state``, the state
    the last coefficient step returned, so no Mp x Mp matrix is formed or
    factored; only the M x M scale_q is.  For a posterior that
    :func:`fit_vb_independent` returned, the value equals its
    ``elbo_trace[-1]``.

    The leading constant is M*p/2, which the Monte-Carlo check confirms;
    the source display prints p/2, and the two coincide for M = 1.
    """
    state = vb_post.coef_state
    return _elbo(prior, data, vb_post.mean_b, state.logdet, state.prior_trace,
                 chol_logdet(spd_cholesky(vb_post.scale_q, "scale_q")), vb_post.dof)


def _elbo(prior, data, mean_b, logdet_cov_b, trace_cov_b, logdet_scale_q, dof) -> float:
    """The closed-form ELBO from ln |cov_b|, tr(V0^-1 cov_b), ln |scale_q|
    and dof = T + prior dof; both coefficient routes supply the first two."""
    t, m, p = data.effective_T, data.n_vars, data.n_regressors
    db = mean_b - prior.mean_b
    tr_term = float(_prior_precision_rows(prior, db) @ db) + trace_cov_b
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
    :func:`mvdist.normal_wishart_predictive` record.  The normal part comes
    from ``coef_state``, so the dense Vq is not formed."""
    x = regressor_row(x_next, vb_post.n_regressors)
    return normal_wishart_predictive(x @ vb_post.coef_matrix(),
                                     vb_post.coef_state.normal_part(x),
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
                beta_new, omega = beta_step.moments(lam * prec)[:2]
            else:
                beta_new, omega = beta_step.mean(lam * prec), None
            root = _precision_step(prior, data, beta_new, omega)[2]
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(f"Cholesky failure in mode iteration {it}") from exc
        prec_new = dof_factor * (root @ root.T)
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
