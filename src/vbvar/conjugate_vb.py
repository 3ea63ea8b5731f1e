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

from .conjugate_exact import ConjugateExactPosterior, fit_exact
from .mvdist import (
    MatricNormal,
    MultivariateT,
    UndefinedMomentError,
    WishartDist,
    chol_logdet,
    mv_log_gamma,
    set_fields,
    spd_cholesky,
    spd_inverse,
)
from .priors import ConjugatePrior
from .vardata import DesignData

__all__ = [
    "ConjugateVbPosterior",
    "VbPredictive",
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
class ConjugateVbPosterior:
    """q(Gamma) = MN(mean_G, expected_precision^-1, row_cov),
    q(Sigma^-1) = W(scale_q^-1, dof_q), with scale_q = (dof_q/dof) * scale."""

    mean_G: np.ndarray
    row_cov: np.ndarray
    scale: np.ndarray       # exact-posterior scale (shared)
    scale_q: np.ndarray
    dof: float              # T + prior dof
    dof_q: float            # T + p + prior dof
    n_obs: int
    prior_dof: float

    def __post_init__(self):
        set_fields(self, mean_G=self.mean_G, row_cov=self.row_cov, scale=self.scale,
                   scale_q=self.scale_q)

    @property
    def n_vars(self) -> int:
        return self.mean_G.shape[1]

    @property
    def n_regressors(self) -> int:
        return self.mean_G.shape[0]

    @classmethod
    def from_exact(cls, post: ConjugateExactPosterior) -> ConjugateVbPosterior:
        """Closed-form VB posterior of a fitted exact posterior; no
        iteration.  Shares mean_G, row_cov and scale with ``post``."""
        dof_q = post.dof + post.n_regressors
        return cls(
            mean_G=post.mean_G,
            row_cov=post.row_cov,
            scale=post.scale,
            scale_q=(dof_q / post.dof) * post.scale,
            dof=post.dof,
            dof_q=dof_q,
            n_obs=post.n_obs,
            prior_dof=post.prior_dof,
        )

    def expected_precision(self) -> np.ndarray:
        """E_q(Sigma^-1) = dof_q * scale_q^-1 = dof * scale^-1."""
        return self.dof * spd_inverse(self.scale, "scale")[0]

    def expected_precision_inv(self) -> np.ndarray:
        """Column covariance of q(Gamma): scale / dof."""
        return self.scale / self.dof

    def coef_density(self) -> MatricNormal:
        return MatricNormal(self.mean_G, self.expected_precision_inv(), self.row_cov)

    def precision_density(self) -> WishartDist:
        return WishartDist(spd_inverse(self.scale_q, "scale_q")[0], self.dof_q)


def fit_vb_conjugate(prior: ConjugatePrior, data: DesignData) -> ConjugateVbPosterior:
    """Closed-form VB posterior: fits the exact posterior, then
    :meth:`ConjugateVbPosterior.from_exact`."""
    return ConjugateVbPosterior.from_exact(fit_exact(prior, data))


def kl_exact(n_vars: int, n_regressors: int, n_obs: int, prior_dof: float) -> float:
    """Exact KL(q || p) for the conjugate VAR; data-independent.

    Computed entirely in log space (the dof powers are never exponentiated).
    """
    m, p, t, nu0 = int(n_vars), int(n_regressors), int(n_obs), float(prior_dof)
    if p < 0 or t < 0:
        raise ValueError("n_regressors and n_obs must be nonnegative")
    nub = t + nu0
    nuq = t + p + nu0
    if nub <= m - 1:
        raise ValueError(f"posterior dof T + prior_dof = {nub} must exceed M-1 = {m - 1}")
    return (
        -m * p / 2.0 * (np.log(2.0) + 1.0)
        + m / 2.0 * (nuq * np.log(nuq) - nub * np.log(nub))
        - (mv_log_gamma(m, nuq / 2.0) - mv_log_gamma(m, nub / 2.0))
    )


def kl_stirling(n_vars: int, n_regressors: int, n_obs: int, prior_dof: float) -> float:
    """Stirling approximation to kl_exact."""
    m, p, t, nu0 = int(n_vars), int(n_regressors), int(n_obs), float(prior_dof)
    nub = t + nu0
    nuq = t + p + nu0
    if nub <= m - 1:
        raise ValueError(f"posterior dof T + prior_dof = {nub} must exceed M-1 = {m - 1}")
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
    m, p, t = vb_post.n_vars, vb_post.n_regressors, vb_post.n_obs
    nub, nuq, nu0 = vb_post.dof, vb_post.dof_q, vb_post.prior_dof
    return (
        -m * t / 2.0 * np.log(np.pi)
        + m / 2.0 * (chol_logdet(spd_cholesky(vb_post.row_cov, "row_cov"))
                     - prior.logdet_row_cov)
        - nub / 2.0 * chol_logdet(spd_cholesky(vb_post.scale, "scale"))
        + nu0 / 2.0 * prior.logdet_scale
        + m * p / 2.0 * (np.log(2.0) + 1.0)
        + m / 2.0 * (nub * np.log(nub) - nuq * np.log(nuq))
        + mv_log_gamma(m, nuq / 2.0)
        - mv_log_gamma(m, nu0 / 2.0)
    )


def _log_joint_conjugate(prior, data, coef, precision, prec_chol):
    """ln p(Y, Gamma, Sigma^-1) for given parameter values; the per-draw
    reference for :func:`_mc_elbo_values`."""
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


def _mc_elbo_values(prior, data, q_coef, q_prec, coefs, precs) -> np.ndarray:
    """ln p(Y, theta_i) - ln q(theta_i) at each draw of an (n, p, M)
    coefficient stack and an (n, M, M) precision stack, all draws at once.

    The precision draws are validated and factored once; the prior's
    inverses and log-determinants are its cached ones.
    """
    p, m = coefs.shape[1:]
    t = data.effective_T
    log_2pi = np.log(2.0 * np.pi)
    lw = spd_cholesky(precs, "precision draw")
    logdet_w = chol_logdet(lw)
    lp_y = (-m * t / 2.0 * log_2pi + t / 2.0 * logdet_w
            - 0.5 * np.sum(precs * data.residual_crossprod(coefs), axis=(1, 2)))
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
    vals = _mc_elbo_values(prior, data, q_coef, q_prec, coefs, precs)
    return {
        "estimate": float(vals.mean()),
        "std_error": float(vals.std(ddof=1) / np.sqrt(n_draws)),
        "n_draws": int(n_draws),
    }


@dataclass(frozen=True)
class VbPredictive:
    """VB one-step predictive: exact moments plus a seeded simulator.

    The density is the convolution of a normal (coefficient part) and a
    multivariate t (error part); only moments are closed-form.
    """

    mean: np.ndarray
    variance: np.ndarray
    normal_cov: np.ndarray
    t_component: MultivariateT

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        n = int(size)
        if np.abs(self.normal_cov).max() == 0.0:
            normal_part = 0.0  # degenerate coefficient part (zero leverage)
        else:
            l = spd_cholesky(self.normal_cov)
            normal_part = rng.standard_normal((n, len(self.mean))) @ l.T
        t_part = self.t_component.sample(rng, size=n)
        return self.mean + normal_part + t_part


def predictive_vb_conjugate(vb_post: ConjugateVbPosterior, x_next) -> VbPredictive:
    """VB predictive moments: mean (x Gb)',
    Var = (dof_q/(dof_q-2) + x V x') * scale / dof."""
    x = np.asarray(x_next, dtype=float).reshape(-1)
    if x.size != vb_post.n_regressors:
        raise ValueError(f"x_next must have p = {vb_post.n_regressors} entries")
    if vb_post.dof_q <= 2:
        raise UndefinedMomentError("VB predictive variance needs dof_q > 2")
    c = float(x @ vb_post.row_cov @ x)
    mean = x @ vb_post.mean_G
    variance = (vb_post.dof_q / (vb_post.dof_q - 2.0) + c) * vb_post.scale / vb_post.dof
    normal_cov = c * vb_post.scale / vb_post.dof
    t_comp = MultivariateT(
        np.zeros(vb_post.n_vars), vb_post.scale_q / vb_post.dof_q, vb_post.dof_q
    )
    return VbPredictive(mean=mean, variance=variance, normal_cov=normal_cov, t_component=t_comp)


def vb_modes(vb_post: ConjugateVbPosterior) -> dict:
    """Modes of the VB posterior: coefficients at mean_G, precision at
    (dof_q - M - 1) * scale_q^-1."""
    m = vb_post.n_vars
    if vb_post.dof_q <= m + 1:
        raise UndefinedMomentError("VB precision mode needs dof_q > M+1")
    return {
        "coefficients": np.asarray(vb_post.mean_G),
        "precision": (vb_post.dof_q - m - 1) * spd_inverse(vb_post.scale_q, "scale_q")[0],
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
    m, p, t, nu0 = int(n_vars), int(n_regressors), int(n_obs), float(prior_dof)
    nub = t + nu0
    nuq = t + p + nu0
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
