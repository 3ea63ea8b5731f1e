"""Shared fixtures and helpers: synthetic VAR designs and random priors, and
a dense grid quadrature oracle for the scalar (M=1) model."""

import numpy as np
import pytest

from vbvar.priors import ConjugatePrior, IndependentPrior
from vbvar.vardata import DesignData, build_design, simulate_var


def synthetic_design(n_vars, lag_order, t_raw, seed):
    return build_design(simulate_var(n_vars, lag_order, t_raw, seed), lag_order)


def random_conjugate_prior(n_vars, n_regressors, seed, dof_offset=2):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_regressors, n_regressors))
    row_cov = 0.5 * (a @ a.T) / n_regressors + np.eye(n_regressors)
    b = rng.standard_normal((n_vars, n_vars))
    scale = 0.5 * (b @ b.T) / n_vars + np.eye(n_vars)
    return ConjugatePrior(
        mean_G=0.1 * rng.standard_normal((n_regressors, n_vars)),
        row_cov=row_cov,
        scale=scale,
        dof=n_vars + dof_offset,
    )


def random_independent_prior(n_vars, n_regressors, seed, dof_offset=2):
    rng = np.random.default_rng(seed)
    mp = n_vars * n_regressors
    a = rng.standard_normal((mp, mp))
    cov = 0.5 * (a @ a.T) / mp + np.eye(mp)
    b = rng.standard_normal((n_vars, n_vars))
    scale = 0.5 * (b @ b.T) / n_vars + np.eye(n_vars)
    return IndependentPrior(
        mean_b=0.1 * rng.standard_normal(mp),
        cov=cov,
        scale=scale,
        dof=n_vars + dof_offset,
        n_vars=n_vars,
    )


def intercept_only_design(y):
    """Scalar intercept-only model: y_t = beta + e_t, p = 1."""
    y = np.asarray(y, dtype=float).reshape(-1, 1)
    return DesignData(Y=y, X=np.ones((y.shape[0], 1)), lag_order=0)


def grid_posterior_scalar(prior, data, n_grid=400, beta_span=8.0, h_factor=6.0):
    """Dense 2-D grid quadrature of the scalar (M=1, p=1) independent-prior
    posterior over (beta, precision).

    Returns posterior means/variances of beta and h, and the log marginal
    likelihood, all by trapezoidal integration of the exact joint density.
    """
    y = data.Y[:, 0]
    t = y.size
    b0 = float(prior.mean_b[0])
    v0 = float(np.asarray(prior.cov).reshape(-1)[0])
    s0 = float(np.asarray(prior.scale).reshape(-1)[0])
    nu0 = prior.dof

    ybar = y.mean()
    sd = max(y.std(ddof=1), 1e-3)
    betas = np.linspace(ybar - beta_span * sd, ybar + beta_span * sd, n_grid)
    ss = float(np.sum((y - ybar) ** 2)) + s0
    h_hat = (t + nu0) / ss
    hs = np.linspace(1e-6, h_factor * h_hat, n_grid)

    bb, hh = np.meshgrid(betas, hs, indexing="ij")
    resid_ss = np.sum((y[None, None, :] - bb[..., None]) ** 2, axis=-1)
    log_like = t / 2.0 * np.log(hh / (2 * np.pi)) - hh / 2.0 * resid_ss
    log_prior_b = -0.5 * np.log(2 * np.pi * v0) - (bb - b0) ** 2 / (2 * v0)
    # W(s0^-1, nu0) density in one dimension (gamma law in h)
    from scipy.special import gammaln

    log_prior_h = (
        (nu0 - 2) / 2.0 * np.log(hh)
        - s0 * hh / 2.0
        - nu0 / 2.0 * np.log(2.0 / s0)
        - gammaln(nu0 / 2.0)
    )
    log_joint = log_like + log_prior_b + log_prior_h
    mx = log_joint.max()
    dens = np.exp(log_joint - mx)
    norm = np.trapezoid(np.trapezoid(dens, hs, axis=1), betas)
    lnml = mx + np.log(norm)
    post = dens / norm
    marg_b = np.trapezoid(post, hs, axis=1)
    marg_h = np.trapezoid(post, betas, axis=0)
    e_b = np.trapezoid(betas * marg_b, betas)
    v_b = np.trapezoid((betas - e_b) ** 2 * marg_b, betas)
    e_h = np.trapezoid(hs * marg_h, hs)
    v_h = np.trapezoid((hs - e_h) ** 2 * marg_h, hs)
    return {
        "beta_mean": float(e_b),
        "beta_var": float(v_b),
        "h_mean": float(e_h),
        "h_var": float(v_h),
        "lnml": float(lnml),
    }


@pytest.fixture(scope="session")
def medium_design():
    """M=3, d=4, T=196 synthetic data matching the reference sample sizes."""
    return synthetic_design(3, 4, 200, seed=20260826)
