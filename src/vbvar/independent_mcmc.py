"""Gibbs sampler for the independent-prior VAR, draw summaries, a
simulation-based predictive density, and a reciprocal-importance-sampling
log-marginal-likelihood estimator.

Each Gibbs sweep (``_gibbs_sweep``) draws beta | Sigma^-1 from the
coefficient conditional shared with VB (:mod:`vbvar.conditional`), by its
dense Cholesky route or, for a diagonal V0^-1 at large Mp, by its PCG route;
the route is chosen once per chain from the prior.  The prior's inverse and
determinants are cached on the prior; none of them is refactored per draw.

Both routes then draw Sigma^-1 | beta the same way: numpy's Cholesky of the
scale, then LAPACK potri and potrf for the lower factor of its inverse,
through ``scipy.linalg.lapack`` rather than scipy's wrappers, which cost
several times the routine at small M p.  Every ``info`` is checked, and a
failure, or PCG missing its tolerance, raises
:class:`NotPositiveDefiniteError` naming the iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack, solve_triangular

from .conditional import _beta_draw
from .independent_vb import IndependentVbPosterior
from .mvdist import (
    NotPositiveDefiniteError,
    WishartDist,
    bartlett_draw,
    check_fields,
    chol_logdet,
    lapack_checked,
    set_fields,
    spd_cholesky,
)
from .priors import IndependentPrior
from .vardata import DesignData, regressor_row

__all__ = [
    "GibbsConfig",
    "GibbsDraws",
    "gibbs_run",
    "summarize_draws",
    "predictive_gibbs",
    "lnml_ris",
]

# predictive_gibbs needs this many kept draws (n_draws - burn_in)
MIN_PREDICTIVE_DRAWS = 100
# batches of the batch-means standard errors
BATCH_MEANS_BATCHES = 20


@dataclass(frozen=True)
class GibbsConfig:
    """Gibbs chain settings; the seed is mandatory for reproducibility."""

    n_draws: int
    burn_in: int
    seed: int

    def __post_init__(self):
        check_fields(self)
        if self.n_draws < 1:
            raise ValueError("n_draws must be >= 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.burn_in >= self.n_draws:
            raise ValueError("burn_in must be smaller than n_draws")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class GibbsDraws:
    """Retained draws: beta_draws (n_kept x Mp), precision_draws (n_kept x M x M)."""

    beta_draws: np.ndarray
    precision_draws: np.ndarray
    seed: int
    burn_in: int

    def __post_init__(self):
        b = np.asarray(self.beta_draws, dtype=float)
        w = np.asarray(self.precision_draws, dtype=float)
        if b.ndim != 2 or w.ndim != 3 or b.shape[0] != w.shape[0]:
            raise ValueError("draw arrays have inconsistent shapes")
        set_fields(self, beta_draws=b, precision_draws=w)

    @property
    def n_kept(self) -> int:
        return self.beta_draws.shape[0]

    @property
    def n_vars(self) -> int:
        return self.precision_draws.shape[1]


def gibbs_run(prior: IndependentPrior, data: DesignData, cfg: GibbsConfig) -> GibbsDraws:
    """Alternate beta | Sigma^-1 and Sigma^-1 | beta draws; deterministic given seed.

    beta is drawn by the dense Cholesky route, or by perturb-then-solve PCG
    when the prior's V0^-1 is diagonal and Mp is large (see
    :mod:`vbvar.conditional`).  A failed factorisation, or PCG missing its
    tolerance within its iteration cap, raises
    :class:`NotPositiveDefiniteError` naming the iteration."""
    beta_step = _beta_draw(prior, data)
    m = data.n_vars
    rng = np.random.default_rng(cfg.seed)

    prec = prior.precision_mean
    nub = data.effective_T + prior.dof
    n_kept = cfg.n_draws - cfg.burn_in
    beta_draws = np.empty((n_kept, prior.mean_b.size))
    prec_draws = np.empty((n_kept, m, m))
    for it in range(cfg.n_draws):
        try:
            beta, prec = _gibbs_sweep(beta_step, prior, data, prec, nub, rng)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                f"Gibbs conditional failed at iteration {it}: {exc}") from exc
        if it >= cfg.burn_in:
            beta_draws[it - cfg.burn_in] = beta
            prec_draws[it - cfg.burn_in] = prec
    return GibbsDraws(beta_draws=beta_draws, precision_draws=prec_draws,
                      seed=cfg.seed, burn_in=cfg.burn_in)


def _gibbs_sweep(beta_step, prior, data, prec, nub, rng):
    """One sweep from Sigma^-1 = prec: beta | Sigma^-1, Y by ``beta_step.draw``,
    then Sigma^-1 | beta, Y ~ W((S0 + E'E)^-1, nub).  Returns (beta, Sigma^-1);
    a failed factorisation or PCG solve raises np.linalg.LinAlgError."""
    beta = beta_step.draw(prec, rng)
    resid = data.residuals(beta)
    scale = prior.scale + resid.T @ resid
    # potri fills only the lower triangle of scale^-1, all that potrf reads
    scale_inv = lapack_checked(lapack.dpotri(np.linalg.cholesky(scale), lower=1), "potri")
    return beta, bartlett_draw(lapack_checked(lapack.dpotrf(scale_inv, lower=1, clean=1),
                                              "potrf"), nub, rng)


def _batch_means_se(series: np.ndarray) -> np.ndarray:
    """Batch-means standard error of the mean along axis 0, over BATCH_MEANS_BATCHES batches."""
    n = series.shape[0]
    k = min(BATCH_MEANS_BATCHES, n)
    usable = (n // k) * k
    batches = series[:usable].reshape(k, usable // k, *series.shape[1:]).mean(axis=1)
    return batches.std(axis=0, ddof=1) / np.sqrt(k)


def summarize_draws(draws: GibbsDraws) -> dict:
    """Sample moments of beta and Sigma^-1 with batch-means standard errors."""
    if draws.n_kept < 2:
        raise ValueError("need at least 2 kept draws to summarize")
    b = draws.beta_draws
    w = draws.precision_draws
    return {
        "beta_mean": b.mean(axis=0),
        "beta_var": b.var(axis=0, ddof=1),
        "precision_mean": w.mean(axis=0),
        "precision_var": w.var(axis=0, ddof=1),
        "beta_mean_se": _batch_means_se(b),
        "precision_mean_se": _batch_means_se(w),
    }


def predictive_gibbs(draws: GibbsDraws, x_next, rng: np.random.Generator) -> dict:
    """Simulation predictive: per kept draw, y = (x Gamma)' + eps with
    eps ~ N(0, Sigma) from the drawn precision."""
    m = draws.n_vars
    n = draws.n_kept
    x = regressor_row(x_next, draws.beta_draws.shape[1] // m)
    if n < MIN_PREDICTIVE_DRAWS:
        raise ValueError(f"need at least {MIN_PREDICTIVE_DRAWS} kept draws for prediction")
    # row j of draw i is column j of Gamma_i = beta_i.reshape((p, M), order="F")
    means = draws.beta_draws.reshape(n, m, x.size) @ x
    lw = np.linalg.cholesky(draws.precision_draws)
    # eps_i = L_i^-T z_i has covariance (L_i L_i')^-1 = Sigma_i; one call
    # draws the same stream as n calls of standard_normal(M)
    z = rng.standard_normal((n, m))
    ys = means + np.linalg.solve(lw.transpose(0, 2, 1), z[..., None])[..., 0]
    return {
        "mean": ys.mean(axis=0),
        "variance": np.cov(ys.T).reshape(m, m),
        "draws": ys,
        "mean_se": _batch_means_se(ys),
    }


def _prior_precision_rows(prior, db):
    """V0^-1 times each row of ``db`` (or db @ V0^-1 for a vector).  A
    diagonal V0^-1 scales by ``cov_inv_diag``: the dense product adds only
    exact zeros to the same products, so both give the same bits."""
    return db @ prior.cov_inv if prior.cov_inv_diag is None else db * prior.cov_inv_diag


def _log_joint_independent(prior, data, beta, prec, lw) -> float:
    """ln p(y | beta, Sigma^-1) + ln p(beta) + ln p(Sigma^-1) at one draw."""
    t, m, p = data.effective_T, data.n_vars, data.n_regressors
    resid = data.residuals(beta)
    lp_y = (
        -m * t / 2.0 * np.log(2.0 * np.pi)
        + t / 2.0 * chol_logdet(lw)
        - 0.5 * float(np.sum(prec * (resid.T @ resid)))
    )
    db = beta - prior.mean_b
    quad = float(_prior_precision_rows(prior, db) @ db)
    lp_b = -m * p / 2.0 * np.log(2.0 * np.pi) - 0.5 * prior.logdet_cov - 0.5 * quad
    lp_w = WishartDist(prior.scale_inv, prior.dof).logpdf(prec)
    return lp_y + lp_b + lp_w


def lnml_ris(
    draws: GibbsDraws,
    vb_post: IndependentVbPosterior,
    prior: IndependentPrior,
    data: DesignData,
) -> dict:
    """Reciprocal importance sampling: 1/ML is estimated by the posterior-draw
    average of q_vb(theta) / [p(y | theta) p(theta)], in log space.

    Returns the lnML estimate, a jackknife standard error, and the effective
    sample size of the weights.  A degenerate-weights warning flag is set
    when ESS falls below 5% of the draws.

    All draws are handled together; ln p(y | beta, Sigma^-1) comes from
    :meth:`DesignData.log_likelihood`.
    """
    n = draws.n_kept
    if n < 2:
        raise ValueError("need at least 2 kept draws for the RIS standard error")
    m, p = draws.n_vars, data.n_regressors
    mp = vb_post.mean_b.size
    beta = draws.beta_draws
    precs = draws.precision_draws
    log_2pi = np.log(2.0 * np.pi)

    # ln q(beta): one triangular solve with n right-hand sides
    lq = spd_cholesky(vb_post.cov_b, "cov_b")
    z = solve_triangular(lq, (beta - vb_post.mean_b).T, lower=True)
    lq_b = -mp / 2.0 * log_2pi - 0.5 * chol_logdet(lq) - 0.5 * np.sum(z * z, axis=0)
    lw = spd_cholesky(precs, "precision draw")
    lq_w = vb_post.precision_density().logpdf_chol(lw)

    # ln p(y | beta, Sigma^-1); Gamma_i = beta_i.reshape((p, M), order="F")
    lp_y = data.log_likelihood(beta.reshape(n, m, p).transpose(0, 2, 1), precs,
                               chol_logdet(lw))

    # ln p(beta) + ln p(Sigma^-1)
    db = beta - prior.mean_b
    quad = np.sum(_prior_precision_rows(prior, db) * db, axis=1)
    lp_b = -mp / 2.0 * log_2pi - 0.5 * prior.logdet_cov - 0.5 * quad
    lp_w = WishartDist(prior.scale_inv, prior.dof).logpdf_chol(lw)

    log_w = lq_b + lq_w - (lp_y + lp_b + lp_w)
    # lnML = -ln mean(exp(log_w))
    mx = log_w.max()
    shifted = np.exp(log_w - mx)
    total = shifted.sum()
    lnml = -(mx + np.log(total / n))
    # leave-one-out jackknife in the shifted space
    loo = -(mx + np.log((total - shifted) / (n - 1)))
    se = float(np.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2)))
    ess = float(total**2 / np.sum(shifted**2))
    return {
        "estimate": float(lnml),
        "std_error": se,
        "ess": ess,
        "degenerate_weights": bool(ess < 0.05 * n),
    }
