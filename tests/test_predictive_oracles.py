"""Compound-simulation oracles for the one-step predictive variances.

Each oracle draws Sigma^-1 from ``scipy.stats.wishart``, then the
coefficients from their conditional law, then y, so it shares no
parametrisation with the formula it checks (the normal-Wishart predictive:
Karlsson 2013, *Forecasting with Bayesian VARs*).  The diagonal of the
simulated variance must lie within 4 MC SE of the formula's.  At M = 1 the
formulas hold; at M > 1 they divide the error variance by dof - 2 where
the simulated law divides by dof - M - 1, so those cases fail until the
predictive t dof is corrected.
"""

import numpy as np
import pytest
from scipy import stats

from conftest import synthetic_design
from vbvar.conjugate_exact import fit_exact, predictive_exact
from vbvar.conjugate_vb import fit_vb_conjugate, predictive_vb_conjugate
from vbvar.independent_vb import fit_vb_independent, predictive_vb_independent
from vbvar.priors import MinnesotaConfig, minnesota_conjugate, minnesota_independent

N_DRAWS = 100_000
_DOF = pytest.mark.xfail(strict=True, raises=AssertionError,
                         reason="ROADMAP item 1: predictive t dof")
N_VARS = [1, pytest.param(3, marks=_DOF), pytest.param(7, marks=_DOF)]


def _design(m):
    """A VAR(1) on 40 simulated observations and its next regressor row."""
    data = synthetic_design(m, 1, 40, seed=7)
    return data, data.next_regressors()


def _sigma_factors(rng, scale_inv, dof):
    """Lower Cholesky factors of Sigma for N_DRAWS draws of
    Sigma^-1 ~ W(scale_inv, dof)."""
    m = scale_inv.shape[0]
    prec = stats.wishart(df=dof, scale=scale_inv).rvs(size=N_DRAWS, random_state=rng)
    return np.linalg.cholesky(np.linalg.inv(prec.reshape(N_DRAWS, m, m)))


def _draw_y(rng, coef_part, sigma_factors):
    """y = coefficient part + N(0, Sigma) error, one row per draw."""
    z = rng.standard_normal(coef_part.shape + (1,))
    return coef_part + (sigma_factors @ z)[..., 0]


def _assert_diag_variance(y, variance):
    dev2 = (y - y.mean(axis=0)) ** 2
    se = dev2.std(axis=0, ddof=1) / np.sqrt(len(y))
    want = np.diag(variance)
    z = (y.var(axis=0, ddof=1) - want) / se
    assert np.all(np.abs(z) < 4), f"simulated/formula {y.var(axis=0, ddof=1) / want}, z {z}"


def test_one_record():
    # the three closed-form predictives return the normal_wishart_predictive record
    data, x = _design(2)
    cprior = minnesota_conjugate(data, MinnesotaConfig())
    preds = [predictive_exact(fit_exact(cprior, data), x),
             predictive_vb_conjugate(fit_vb_conjugate(cprior, data), x),
             predictive_vb_independent(
                 fit_vb_independent(minnesota_independent(data, MinnesotaConfig()), data), x)]
    for pred in preds:
        assert set(pred) == {"mean", "variance", "normal_cov", "t_shape", "t_dof"}
        assert pred["mean"].shape == (2,)
        for key in ("variance", "normal_cov", "t_shape"):
            assert pred[key].shape == (2, 2), key


@pytest.mark.parametrize("m", N_VARS)
def test_predictive_exact(m, seed_offset):
    # Gamma | Sigma ~ MN(mean_G, Sigma, row_cov) under the exact posterior
    data, x = _design(m)
    post = fit_exact(minnesota_conjugate(data, MinnesotaConfig()), data)
    rng = np.random.default_rng(1100 + m + seed_offset)
    ls = _sigma_factors(rng, np.linalg.inv(post.scale), post.dof)
    z = rng.standard_normal((N_DRAWS, post.n_regressors, m))
    coefs = post.mean_G + np.linalg.cholesky(post.row_cov) @ z @ ls.transpose(0, 2, 1)
    y = _draw_y(rng, np.einsum("p,npm->nm", x, coefs), ls)
    _assert_diag_variance(y, predictive_exact(post, x)["variance"])


@pytest.mark.parametrize("m", N_VARS)
def test_predictive_vb_conjugate(m, seed_offset):
    # under q, Gamma ~ MN(mean_G, scale / dof, row_cov) independently of Sigma
    data, x = _design(m)
    vb = fit_vb_conjugate(minnesota_conjugate(data, MinnesotaConfig()), data)
    rng = np.random.default_rng(1200 + m + seed_offset)
    ls = _sigma_factors(rng, np.linalg.inv(vb.scale_q), vb.dof_q)
    z = rng.standard_normal((N_DRAWS, vb.n_regressors, m))
    coefs = (vb.mean_G + np.linalg.cholesky(vb.row_cov) @ z
             @ np.linalg.cholesky(vb.scale / vb.dof).T)
    y = _draw_y(rng, np.einsum("p,npm->nm", x, coefs), ls)
    _assert_diag_variance(y, predictive_vb_conjugate(vb, x)["variance"])


@pytest.mark.parametrize("m", N_VARS)
def test_predictive_vb_independent(m, seed_offset):
    # under q, beta ~ N(mean_b, cov_b) independently of Sigma
    data, x = _design(m)
    vb = fit_vb_independent(minnesota_independent(data, MinnesotaConfig()), data)
    rng = np.random.default_rng(1300 + m + seed_offset)
    ls = _sigma_factors(rng, np.linalg.inv(vb.scale_q), vb.dof)
    betas = vb.mean_b + rng.standard_normal((N_DRAWS, vb.mean_b.size)) @ \
        np.linalg.cholesky(vb.cov_b).T
    coefs = betas.reshape(N_DRAWS, m, vb.n_regressors)  # vec by columns: row a is equation a
    y = _draw_y(rng, coefs @ x, ls)
    _assert_diag_variance(y, predictive_vb_independent(vb, x)["variance"])
