"""Exact posterior for the conjugate normal-Wishart VAR: fit, marginals,
moments, joint mode, log marginal likelihood, and predictive t-density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .mvdist import (
    MatricT,
    MultivariateT,
    UndefinedMomentError,
    chol_inverse,
    chol_logdet,
    mv_log_gamma,
    set_fields,
    spd_cholesky,
    spd_inverse,
)
from .priors import ConjugatePrior
from .vardata import DesignData

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
    """Gamma | Sigma, Y ~ MN(mean_G, Sigma, row_cov); Sigma^-1 | Y ~ W(scale^-1, dof)."""

    mean_G: np.ndarray
    row_cov: np.ndarray
    scale: np.ndarray
    dof: float
    n_obs: int
    prior_dof: float

    def __post_init__(self):
        set_fields(self, mean_G=self.mean_G, row_cov=self.row_cov, scale=self.scale)

    @property
    def n_vars(self) -> int:
        return self.mean_G.shape[1]

    @property
    def n_regressors(self) -> int:
        return self.mean_G.shape[0]


def fit_exact(prior: ConjugatePrior, data: DesignData) -> ConjugateExactPosterior:
    """Closed-form normal-Wishart posterior update.

    Uses the prior's cached V0^-1; the posterior precision is factored once
    and that factor gives both the mean (a solve) and the row covariance.
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
    return ConjugateExactPosterior(
        mean_G=mean_g,
        row_cov=chol_inverse(lower),
        scale=(scale + scale.T) / 2.0,
        dof=data.effective_T + prior.dof,
        n_obs=data.effective_T,
        prior_dof=prior.dof,
    )


def marginal_coefficients(post: ConjugateExactPosterior) -> MatricT:
    """Marginal posterior of the coefficient matrix: MT(mean_G, scale, row_cov, dof)."""
    return MatricT(post.mean_G, post.scale, post.row_cov, post.dof)


def log_marginal_likelihood(prior: ConjugatePrior, post: ConjugateExactPosterior) -> float:
    """Closed-form log marginal likelihood of the conjugate VAR."""
    m = post.n_vars
    t = post.n_obs
    return (
        -m * t / 2.0 * np.log(np.pi)
        + m / 2.0 * (chol_logdet(spd_cholesky(post.row_cov, "row_cov")) - prior.logdet_row_cov)
        - post.dof / 2.0 * chol_logdet(spd_cholesky(post.scale, "scale"))
        + prior.dof / 2.0 * prior.logdet_scale
        + mv_log_gamma(m, post.dof / 2.0)
        - mv_log_gamma(m, prior.dof / 2.0)
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


def predictive_exact(post: ConjugateExactPosterior, x_next) -> MultivariateT:
    """One-step predictive density: t with mean (x Gb)' and
    Var = (1 + x V x') * scale / (dof - 2)."""
    x = np.asarray(x_next, dtype=float).reshape(-1)
    if x.size != post.n_regressors:
        raise ValueError(f"x_next must have p = {post.n_regressors} entries")
    if post.dof <= 2:
        raise UndefinedMomentError("predictive variance needs dof > 2")
    c = float(x @ post.row_cov @ x)
    mean = x @ post.mean_G
    # MultivariateT variance = dof * scale_param / (dof - 2)
    scale_param = (1.0 + c) * post.scale / post.dof
    return MultivariateT(mean, scale_param, post.dof)
