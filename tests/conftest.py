"""Shared fixtures and helpers: synthetic VAR designs and random priors, a
dense grid quadrature oracle for the scalar (M=1) model, a LAPACK
namespace without potri, a stacked compound matric-normal simulator, and
the ``--seed-offset`` option that ``scripts/seed_gate.py`` passes to the
stochastic checks."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

from vbvar.mvdist import MatricNormal
from vbvar.priors import ConjugatePrior, IndependentPrior
from vbvar.vardata import DesignData, build_design, simulate_var


def pytest_addoption(parser):
    parser.addoption(
        "--seed-offset", type=int, default=0,
        help="added to the Monte-Carlo seeds of the stochastic checks that "
             "scripts/seed_gate.py runs (criteria 4, 6 and 7, the predictive "
             "oracles, the joint-distribution test, the sampler and Monte-Carlo "
             "ELBO oracles); 0 runs them as committed")


@pytest.fixture(scope="session")
def seed_offset(request):
    return request.config.getoption("--seed-offset")


class LapackWithoutPotri:
    """scipy.linalg.lapack, except that dpotri raises."""

    def __getattr__(self, name):
        return getattr(lapack, name)

    @staticmethod
    def dpotri(*args, **kwargs):
        raise AssertionError("dpotri called")


def synthetic_design(n_vars, lag_order, t_raw, seed):
    return build_design(simulate_var(n_vars, lag_order, t_raw, seed), lag_order)


def perfbench_design(n_vars, lags, t_raw, monkeypatch):
    """The benchmark's own input for its first model at its reference seed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    wl = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while it is being executed
    monkeypatch.setitem(sys.modules, spec.name, wl)
    spec.loader.exec_module(wl)
    series = wl.simulate_var(wl.Model(n_vars, lags, t_raw), wl.model_seed(wl.REFERENCE_SEED, 0))
    return build_design(series, lags)


def compound_matric_normal(precision, mean, row_cov, n, rng):
    """n draws of vec(X), by columns, as an (n, p q) array, from the
    compound law Sigma^-1 ~ ``precision`` (a WishartDist) and
    X | Sigma ~ MN(mean, Sigma, row_cov).

    With W_i = C_i C_i' and Y_i ~ MN(0, I, row_cov), X_i = mean + Y_i C_i^-1
    has that law, because C_i^-T C_i^-1 = W_i^-1: two stacked draws and one
    stacked solve, with no inverse and no MatricNormal per draw."""
    p, q = mean.shape
    w = precision.sample(rng, n)
    y = MatricNormal(np.zeros((p, q)), np.eye(q), row_cov).sample(rng, n)
    # X_i' = mean' + C_i^-T Y_i', and vec(X_i) is X_i' read by rows
    xt = np.linalg.solve(np.linalg.cholesky(w).transpose(0, 2, 1), y.transpose(0, 2, 1))
    return (mean.T + xt).reshape(n, p * q)


def random_spd(n, rng):
    a = rng.standard_normal((n, n))
    return a @ a.T / n + 0.1 * np.eye(n)


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
