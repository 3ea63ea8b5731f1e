"""Closed-form mean-field VB for the conjugate normal-Wishart VAR, with
ELBO, exact and Stirling KL divergence, VB predictive moments, modes, and
a Monte-Carlo ELBO cross-check.

The KL divergence between the VB and exact posteriors depends only on
(M, p, T, prior dof), not on the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import multigammaln

from .conjugate_exact import ConjugateExactPosterior, _log_evidence_head, fit_exact
from .mvdist import (
    MatricNormal,
    UndefinedMomentError,
    WishartDist,
    chol_logdet,
    normal_wishart_predictive,
    spd_cholesky,
    spd_inverse,
)
from .priors import ConjugatePrior
from .vardata import DesignData, regressor_row

__all__ = [
    "ConjugateVbPosterior",
    "fit_vb_conjugate",
    "elbo_conjugate",
    "mc_elbo_estimate",
    "kl_exact",
    "kl_stirling",
    "predictive_vb_conjugate",
    "vb_modes",
    "moment_ratios",
]


@dataclass(frozen=True)
class ConjugateVbPosterior(ConjugateExactPosterior):
    """q(Gamma) = MN(mean_G, scale / dof, row_cov),
    q(Sigma^-1) = W(scale_q^-1, dof_q): the exact posterior's mean_G,
    row_cov and scale, with the dof raised by p."""

    @classmethod
    def from_exact(cls, post: ConjugateExactPosterior) -> ConjugateVbPosterior:
        """Closed-form VB posterior of a fitted exact posterior; no
        iteration.  Shares mean_G, row_cov and scale with ``post``."""
        return cls(post.mean_G, post.row_cov, post.scale, post.n_obs, post.prior_dof)

    @property
    def dof_q(self) -> float:
        """VB Wishart dof, T + p + prior dof."""
        return self.dof + self.n_regressors

    @property
    def scale_q(self) -> np.ndarray:
        """VB Wishart scale, (dof_q / dof) * scale."""
        return (self.dof_q / self.dof) * self.scale

    def coef_density(self) -> MatricNormal:
        return MatricNormal(self.mean_G, self.scale / self.dof, self.row_cov)

    def precision_density(self) -> WishartDist:
        return WishartDist(spd_inverse(self.scale_q, "scale_q")[0], self.dof_q)


def fit_vb_conjugate(prior: ConjugatePrior, data: DesignData) -> ConjugateVbPosterior:
    """Closed-form VB posterior: fits the exact posterior, then
    :meth:`ConjugateVbPosterior.from_exact`."""
    return ConjugateVbPosterior.from_exact(fit_exact(prior, data))


def _kl_dofs(n_vars, n_regressors, n_obs, prior_dof):
    """(M, p, T + prior dof, T + p + prior dof) for the KL formulas and the
    moment ratios, after checking M >= 1, p, T >= 0, a finite prior dof and
    T + prior dof > M - 1."""
    m, p, t, nu0 = int(n_vars), int(n_regressors), int(n_obs), float(prior_dof)
    if m < 1:
        raise ValueError(f"n_vars must be >= 1, got {m}")
    if p < 0 or t < 0:
        raise ValueError("n_regressors and n_obs must be nonnegative")
    if not np.isfinite(nu0):
        raise ValueError(f"prior_dof must be finite, got {nu0}")
    nub = t + nu0
    if nub <= m - 1:
        raise UndefinedMomentError(f"T + prior_dof = {nub} must exceed M-1 = {m - 1}")
    return m, p, nub, t + p + nu0


def kl_exact(n_vars: int, n_regressors: int, n_obs: int, prior_dof: float) -> float:
    """Exact KL(q || p) for the conjugate VAR; data-independent.

    Its terms cancel as T grows (ROADMAP item 2): relative error 1.2e-12 at (M, p, T, nu0)
    = (3, 13, 196, 5), 3.9e-5 at T = 1e6, and the wrong sign at T = 1e12.
    """
    m, p, nub, nuq = _kl_dofs(n_vars, n_regressors, n_obs, prior_dof)
    return (
        -m * p / 2.0 * (np.log(2.0) + 1.0)
        + m / 2.0 * (nuq * np.log(nuq) - nub * np.log(nub))
        - (multigammaln(nuq / 2.0, m) - multigammaln(nub / 2.0, m))
    )


def kl_stirling(n_vars: int, n_regressors: int, n_obs: int, prior_dof: float) -> float:
    """Stirling approximation to kl_exact."""
    m, _, nub, nuq = _kl_dofs(n_vars, n_regressors, n_obs, prior_dof)
    total = 0.0
    for j in range(1, m + 1):
        total += (
            (nub - j) * np.log(nub - j + 1)
            + nuq * np.log(nuq)
            - (nuq - j) * np.log(nuq - j + 1)
            - nub * np.log(nub)
        )
    return total / 2.0


def elbo_conjugate(prior: ConjugatePrior, vb_post: ConjugateVbPosterior) -> float:
    """Closed-form ELBO of the conjugate VB posterior.

    Satisfies lnML - ELBO = kl_exact(M, p, T, prior_dof) exactly; equals the
    Monte-Carlo estimate of E_q[ln p(Y, theta) - ln q(theta)].
    """
    m, p = vb_post.n_vars, vb_post.n_regressors
    nub, nuq, nu0 = vb_post.dof, vb_post.dof_q, vb_post.prior_dof
    return (
        _log_evidence_head(prior, vb_post)
        + m * p / 2.0 * (np.log(2.0) + 1.0)
        + m / 2.0 * (nub * np.log(nub) - nuq * np.log(nuq))
        + multigammaln(nuq / 2.0, m)
        - multigammaln(nu0 / 2.0, m)
    )


def _log_joint_conjugate(prior, data, coef, precision, prec_chol):
    """ln p(Y, Gamma, Sigma^-1) for given parameter values; the per-draw
    reference for :func:`_mc_elbo_terms`."""
    x, y = data.X, data.Y
    t, m = y.shape
    resid = y - x @ coef
    logdet_prec = 2.0 * np.sum(np.log(np.diag(prec_chol)))
    lp_y = (
        -m * t / 2.0 * np.log(2.0 * np.pi)
        + t / 2.0 * logdet_prec
        - 0.5 * float(np.sum(precision * (resid.T @ resid)))
    )
    # p(Gamma | Sigma) = MN(prior mean, Sigma, prior row_cov)
    sigma = cho_solve((prec_chol, True), np.eye(m))
    lp_g = MatricNormal(prior.mean_G, (sigma + sigma.T) / 2.0, prior.row_cov).logpdf(coef)
    s0_inv = cho_solve(cho_factor(prior.scale, lower=True), np.eye(m))
    lp_w = WishartDist((s0_inv + s0_inv.T) / 2.0, prior.dof).logpdf(precision)
    return lp_y + lp_g + lp_w


def _mc_elbo_terms(prior, data, q_coef, q_prec, coefs, precs) -> np.ndarray:
    """ln p(Y, theta_i) - ln q(theta_i) at each draw of an (n, p, M)
    coefficient stack and an (n, M, M) precision stack, all draws at once.

    The precision draws are validated and factored once; the prior's
    inverses and log-determinants are its cached ones.
    """
    p, m = coefs.shape[1:]
    log_2pi = np.log(2.0 * np.pi)
    lw = spd_cholesky(precs, "precision draw")
    logdet_w = chol_logdet(lw)
    lp_y = data.log_likelihood(coefs, precs, logdet_w)
    # p(Gamma | Sigma) = MN(prior mean, Sigma, prior row_cov), ln|Sigma| = -ln|W|
    dg = coefs - prior.mean_G
    quad = np.sum(precs * (dg.transpose(0, 2, 1) @ (prior.row_cov_inv @ dg)), axis=(1, 2))
    lp_g = (-m * p / 2.0 * log_2pi - m / 2.0 * prior.logdet_row_cov + p / 2.0 * logdet_w
            - 0.5 * quad)
    lp_w = WishartDist(prior.scale_inv, prior.dof).logpdf_chol(lw)
    return lp_y + lp_g + lp_w - q_coef.logpdf(coefs) - q_prec.logpdf_chol(lw)


def mc_elbo_estimate(
    prior: ConjugatePrior,
    vb_post: ConjugateVbPosterior,
    data: DesignData,
    n_draws: int,
    rng: np.random.Generator,
) -> dict:
    """Monte-Carlo ELBO: average of ln p(Y, theta) - ln q(theta) over q-draws.

    Draws are made one at a time, coefficients then precision, and their
    densities are evaluated over the whole stack.
    """
    if n_draws < 1000:
        raise ValueError("n_draws must be at least 1000")
    q_coef = vb_post.coef_density()
    q_prec = vb_post.precision_density()
    p, m = q_coef.shape
    coefs = np.empty((n_draws, p, m))
    precs = np.empty((n_draws, m, m))
    for i in range(n_draws):
        coefs[i] = q_coef.sample(rng)
        precs[i] = q_prec.sample(rng)
    vals = _mc_elbo_terms(prior, data, q_coef, q_prec, coefs, precs)
    return {
        "estimate": float(vals.mean()),
        "std_error": float(vals.std(ddof=1) / np.sqrt(n_draws)),
        "n_draws": int(n_draws),
    }


def predictive_vb_conjugate(vb_post: ConjugateVbPosterior, x_next) -> dict:
    """VB predictive moments: mean (x Gb)', normal part x V x' * scale / dof
    from q(Gamma) and t part from q(Sigma^-1) = W(scale_q^-1, dof_q), as the
    :func:`mvdist.normal_wishart_predictive` record."""
    x = regressor_row(x_next, vb_post.n_regressors)
    c = float(x @ vb_post.row_cov @ x)
    return normal_wishart_predictive(x @ vb_post.mean_G, c * vb_post.scale / vb_post.dof,
                                     vb_post.scale_q, vb_post.dof_q)


def vb_modes(vb_post: ConjugateVbPosterior) -> dict:
    """Modes of the VB posterior: coefficients at mean_G, precision at the
    mode (dof_q - M - 1) * scale_q^-1 of q(Sigma^-1)."""
    return {
        "coefficients": np.asarray(vb_post.mean_G),
        "precision": vb_post.precision_density().mode(),
    }


def moment_ratios(
    n_vars: int, n_regressors: int, n_obs: int, prior_dof: float, c: float = 0.0
) -> dict:
    """VB-to-exact ratio table row for the conjugate VAR.

    Both precision-variance conventions are reported: the Wishart-law ratio
    dof/dof_q implied by the posterior variance formulas, and the
    1 - (p+1)/(T + prior dof) factor quoted in the comparison discussion.
    The Monte-Carlo Wishart oracle labels the former "empirical".
    """
    m, p, nub, nuq = _kl_dofs(n_vars, n_regressors, n_obs, prior_dof)
    if nub <= m + 1:
        raise UndefinedMomentError("coefficient-variance ratio needs T + prior_dof > M+1")
    if nuq <= 2:
        raise UndefinedMomentError("predictive-variance ratio needs dof_q > 2")
    pred = (nub - 2.0) / nub * (nuq / (nuq - 2.0) + c) / (1.0 + c)
    return {
        "coef_var_ratio": (nub - m - 1.0) / nub,
        "prec_var_ratio_wishart": nub / nuq,
        "prec_var_ratio_text": (nub - p - 1.0) / nub,
        "mode_ratio": nub / nuq,
        "pred_var_ratio": pred,
    }
