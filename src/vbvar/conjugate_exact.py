"""Exact posterior for the conjugate normal-Wishart VAR: fit, marginals,
moments, joint mode, log marginal likelihood, and predictive moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve
from scipy.special import multigammaln

from .mvdist import (
    MatricT,
    UndefinedMomentError,
    chol_inverse,
    chol_logdet,
    normal_wishart_predictive,
    set_fields,
    spd_cholesky,
    spd_inverse,
)
from .priors import ConjugatePrior
from .vardata import DesignData, regressor_row

__all__ = [
    "ConjugateExactPosterior",
    "fit_exact",
    "marginal_coefficients",
    "log_marginal_likelihood",
    "joint_mode",
    "predictive_exact",
]


@dataclass(frozen=True)
class ConjugateExactPosterior:
    """Gamma | Sigma, Y ~ MN(mean_G, Sigma, row_cov); Sigma^-1 | Y ~ W(scale^-1, dof)
    with dof = n_obs + prior_dof.

    ln |row_cov| and ln |scale| are cached properties, each from one
    factorisation on first access; :func:`fit_exact` sets ln |row_cov| from
    its factor of the posterior precision row_cov^-1 instead."""

    mean_G: np.ndarray
    row_cov: np.ndarray
    scale: np.ndarray
    n_obs: int
    prior_dof: float

    def __post_init__(self):
        set_fields(self, mean_G=self.mean_G, row_cov=self.row_cov, scale=self.scale)

    @cached_property
    def logdet_row_cov(self) -> float:
        """ln |row_cov|."""
        return chol_logdet(spd_cholesky(self.row_cov, "row_cov"))

    @cached_property
    def logdet_scale(self) -> float:
        """ln |scale|."""
        return chol_logdet(spd_cholesky(self.scale, "scale"))

    @property
    def n_vars(self) -> int:
        return self.mean_G.shape[1]

    @property
    def n_regressors(self) -> int:
        return self.mean_G.shape[0]

    @property
    def dof(self) -> float:
        """Posterior Wishart dof, T + prior dof."""
        return self.n_obs + self.prior_dof


def fit_exact(prior: ConjugatePrior, data: DesignData) -> ConjugateExactPosterior:
    """Closed-form normal-Wishart posterior update.

    Uses the prior's cached V0^-1; the posterior precision is factored once
    and that factor gives the mean (a solve), the row covariance and its
    log-determinant.
    """
    x, y = data.X, data.Y
    p, m = prior.mean_G.shape
    if x.shape[1] != p or y.shape[1] != m:
        raise ValueError("prior and data dimensions disagree")
    v0_inv = prior.row_cov_inv
    lower = spd_cholesky(v0_inv + x.T @ x, "posterior precision")
    mean_g = cho_solve((lower, True), v0_inv @ prior.mean_G + x.T @ y)
    resid = y - x @ mean_g
    dg = mean_g - prior.mean_G
    scale = resid.T @ resid + prior.scale + dg.T @ (v0_inv @ dg)
    post = ConjugateExactPosterior(
        mean_G=mean_g,
        row_cov=chol_inverse(lower),
        scale=(scale + scale.T) / 2.0,
        n_obs=data.effective_T,
        prior_dof=prior.dof,
    )
    # the cached property's slot, filled from the factor at hand
    vars(post)["logdet_row_cov"] = -chol_logdet(lower)
    return post


def marginal_coefficients(post: ConjugateExactPosterior) -> MatricT:
    """Marginal posterior of the coefficient matrix: MT(mean_G, scale, row_cov, dof)."""
    return MatricT(post.mean_G, post.scale, post.row_cov, post.dof)


def _log_evidence_head(prior: ConjugatePrior, post: ConjugateExactPosterior) -> float:
    """The leading terms shared by the log marginal likelihood and the
    conjugate ELBO: -MT/2 ln pi and the row-covariance and scale log-dets,
    read from the posterior's cached properties."""
    m = post.n_vars
    t = post.n_obs
    return (
        -m * t / 2.0 * np.log(np.pi)
        + m / 2.0 * (post.logdet_row_cov - prior.logdet_row_cov)
        - post.dof / 2.0 * post.logdet_scale
        + prior.dof / 2.0 * prior.logdet_scale
    )


def log_marginal_likelihood(prior: ConjugatePrior, post: ConjugateExactPosterior) -> float:
    """Closed-form log marginal likelihood of the conjugate VAR."""
    m = post.n_vars
    return (
        _log_evidence_head(prior, post)
        + multigammaln(post.dof / 2.0, m)
        - multigammaln(prior.dof / 2.0, m)
    )


def joint_mode(post: ConjugateExactPosterior) -> dict:
    """Joint posterior mode: coefficients at mean_G, precision at
    (T + p + prior_dof - M - 1) * scale^-1."""
    m, p = post.n_vars, post.n_regressors
    factor = post.n_obs + p + post.prior_dof - m - 1
    if factor <= 0:
        raise UndefinedMomentError("joint mode needs T + p + prior dof > M + 1")
    return {
        "coefficients": np.asarray(post.mean_G),
        "precision": factor * spd_inverse(post.scale, "scale")[0],
    }


def predictive_exact(post: ConjugateExactPosterior, x_next) -> dict:
    """One-step predictive: t with mean (x Gb)', shape (1 + x V x') * scale / dof
    and dof ``dof``, as the :func:`mvdist.normal_wishart_predictive` record
    with no normal part."""
    x = regressor_row(x_next, post.n_regressors)
    c = float(x @ post.row_cov @ x)
    return normal_wishart_predictive(x @ post.mean_G, np.zeros((post.n_vars, post.n_vars)),
                                     (1.0 + c) * post.scale, post.dof)
