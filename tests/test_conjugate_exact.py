"""Exact conjugate posterior: fit, marginals, lnML, mode, predictive."""

import numpy as np
import pytest
from scipy import optimize
from scipy.special import gammaln

from conftest import compound_matric_normal, random_conjugate_prior, synthetic_design
from vbvar.conjugate_exact import (
    ConjugateExactPosterior,
    fit_exact,
    joint_mode,
    log_marginal_likelihood,
    marginal_coefficients,
    predictive_exact,
)
from vbvar.conjugate_vb import ConjugateVbPosterior, fit_vb_conjugate, predictive_vb_conjugate
from vbvar.mvdist import UndefinedMomentError
from vbvar.priors import ConjugatePrior
from vbvar.vardata import DesignData


def _empty_design(m, p):
    return DesignData(Y=np.zeros((0, m)), X=np.zeros((0, p)),
                      lag_order=(p - 1) // m)


class TestFitExact:
    def test_no_data_identity(self):
        prior = random_conjugate_prior(2, 3, seed=0)
        post = fit_exact(prior, _empty_design(2, 3))
        np.testing.assert_allclose(post.mean_G, prior.mean_G, atol=1e-12)
        np.testing.assert_allclose(post.row_cov, prior.row_cov, atol=1e-10)
        np.testing.assert_allclose(post.scale, prior.scale, atol=1e-10)
        assert post.dof == prior.dof

    def test_orthonormal_design_averaging(self):
        # V0 = I and X'X = I: posterior mean is the simple average
        rng = np.random.default_rng(1)
        m, p = 2, 3
        y = rng.standard_normal((p, m))
        data = DesignData(Y=y, X=np.eye(p), lag_order=1)
        prior = ConjugatePrior(rng.standard_normal((p, m)), np.eye(p), np.eye(m), m + 2)
        post = fit_exact(prior, data)
        np.testing.assert_allclose(post.mean_G, (prior.mean_G + y) / 2.0, atol=1e-12)

    def test_matches_direct_reimplementation(self):
        # same formulas coded with plain dense inverses
        rng = np.random.default_rng(2)
        m, p, t = 2, 3, 12
        prior = random_conjugate_prior(m, p, seed=3)
        x = rng.standard_normal((t, p))
        y = rng.standard_normal((t, m))
        data = DesignData(Y=y, X=x, lag_order=1)
        post = fit_exact(prior, data)

        v0inv = np.linalg.inv(prior.row_cov)
        vbar = np.linalg.inv(v0inv + x.T @ x)
        gbar = vbar @ (v0inv @ prior.mean_G + x.T @ y)
        resid = y - x @ gbar
        dg = gbar - prior.mean_G
        sbar = resid.T @ resid + prior.scale + dg.T @ v0inv @ dg
        np.testing.assert_allclose(post.mean_G, gbar, atol=1e-10)
        np.testing.assert_allclose(post.row_cov, vbar, atol=1e-10)
        np.testing.assert_allclose(post.scale, sbar, atol=1e-8)
        assert post.dof == t + prior.dof

    def test_sequential_updating(self):
        # prior -> posterior on the first half used as prior for the second
        # half equals the single-shot fit
        data = synthetic_design(2, 1, 60, seed=4)
        prior = random_conjugate_prior(2, 3, seed=5)
        half = 29
        d1 = DesignData(Y=data.Y[:half], X=data.X[:half], lag_order=1)
        d2 = DesignData(Y=data.Y[half:], X=data.X[half:], lag_order=1)
        p1 = fit_exact(prior, d1)
        mid = ConjugatePrior(p1.mean_G, p1.row_cov, p1.scale, p1.dof)
        p2 = fit_exact(mid, d2)
        full = fit_exact(prior, data)
        np.testing.assert_allclose(p2.mean_G, full.mean_G, atol=1e-10)
        np.testing.assert_allclose(p2.row_cov, full.row_cov, atol=1e-10)
        np.testing.assert_allclose(p2.scale, full.scale, rtol=1e-8)
        assert p2.dof == full.dof

    def test_scale_summands_psd(self):
        data = synthetic_design(3, 1, 50, seed=6)
        prior = random_conjugate_prior(3, 4, seed=7)
        post = fit_exact(prior, data)
        resid = data.Y - data.X @ post.mean_G
        for part in (resid.T @ resid, np.asarray(prior.scale)):
            gap = post.scale - part
            assert np.min(np.linalg.eigvalsh((gap + gap.T) / 2.0)) > -1e-8


class TestMarginalCoefficients:
    def test_mean_and_variance_formula(self):
        data = synthetic_design(2, 1, 40, seed=8)
        prior = random_conjugate_prior(2, 3, seed=9)
        post = fit_exact(prior, data)
        mt = marginal_coefficients(post)
        np.testing.assert_allclose(mt.mean, post.mean_G)
        np.testing.assert_allclose(
            mt.vec_variance(),
            np.kron(post.scale, post.row_cov) / (post.dof - post.n_vars - 1),
        )

    def test_m1_reduces_to_multivariate_t(self):
        data = synthetic_design(1, 2, 40, seed=10)
        prior = random_conjugate_prior(1, 3, seed=11)
        post = fit_exact(prior, data)
        mt = marginal_coefficients(post)
        s = post.scale[0, 0]
        np.testing.assert_allclose(
            mt.vec_variance(), s * post.row_cov / (post.dof - 2.0)
        )

    def test_compound_moments(self, seed_offset):
        # Sigma^-1 ~ W(scale^-1, dof), Gamma | Sigma ~ MN: compound variance
        # matches the matricvariate-t closed form
        from vbvar.mvdist import WishartDist

        data = synthetic_design(2, 1, 60, seed=12)
        prior = random_conjugate_prior(2, 3, seed=13)
        post = fit_exact(prior, data)
        w = WishartDist(np.linalg.inv(post.scale), post.dof)
        rng = np.random.default_rng(14 + seed_offset)
        n = 100_000
        draws = compound_matric_normal(w, post.mean_G, post.row_cov, n, rng)
        target = marginal_coefficients(post).vec_variance()
        cov = np.cov(draws.T)
        dd = np.diag(target)
        se = np.sqrt(3.0 * (np.outer(dd, dd) + target**2) / n)
        assert np.all(np.abs(cov - target) < 5 * se)


class TestLogMarginalLikelihood:
    def test_scalar_quadrature_oracle(self):
        # M = 1, T = 1: integrate p(y | gamma, h) p(gamma | h) p(h) numerically
        prior = ConjugatePrior(np.array([[0.3]]), np.array([[0.8]]),
                               np.array([[1.2]]), 3.0)
        y = np.array([[0.7]])
        data = DesignData(Y=y, X=np.ones((1, 1)), lag_order=0)
        post = fit_exact(prior, data)
        lnml = log_marginal_likelihood(prior, post)

        from scipy import integrate

        def joint(g, h):
            ll = 0.5 * np.log(h / (2 * np.pi)) - h / 2.0 * (y[0, 0] - g) ** 2
            lpg = 0.5 * np.log(h / (2 * np.pi * 0.8)) - h / (2 * 0.8) * (g - 0.3) ** 2
            lph = ((3.0 - 2) / 2.0 * np.log(h) - 1.2 * h / 2.0
                   - 3.0 / 2.0 * np.log(2.0 / 1.2) - gammaln(1.5))
            return np.exp(ll + lpg + lph)

        val, _ = integrate.dblquad(joint, 1e-8, 60.0, -15.0, 15.0)
        assert lnml == pytest.approx(np.log(val), abs=1e-5)

    def test_log_dets_come_from_the_fit(self):
        # ln |row_cov| is -ln |V0^-1 + X'X| from the fit's factor: the
        # factor of row_cov gives it to round-off; the VB posterior shares both
        data = synthetic_design(3, 2, 80, seed=2201)
        prior = random_conjugate_prior(3, 7, seed=2202)
        post = fit_exact(prior, data)
        vb = ConjugateVbPosterior.from_exact(post)
        assert (vb.logdet_row_cov, vb.logdet_scale) == (post.logdet_row_cov, post.logdet_scale)
        rebuilt = ConjugateExactPosterior(post.mean_G, post.row_cov, post.scale, post.n_obs,
                                          post.prior_dof)
        assert post.logdet_row_cov == pytest.approx(rebuilt.logdet_row_cov, rel=1e-12)
        assert post.logdet_scale == rebuilt.logdet_scale

    def test_inflated_prior_scale_lowers_lnml(self):
        data = synthetic_design(2, 1, 80, seed=15)
        prior = random_conjugate_prior(2, 3, seed=16)
        inflated = ConjugatePrior(prior.mean_G, prior.row_cov,
                                  1e6 * np.asarray(prior.scale), prior.dof)
        base = log_marginal_likelihood(prior, fit_exact(prior, data))
        blown = log_marginal_likelihood(inflated, fit_exact(inflated, data))
        assert blown < base


class TestJointMode:
    def test_coefficients_at_posterior_mean(self):
        data = synthetic_design(2, 1, 40, seed=17)
        prior = random_conjugate_prior(2, 3, seed=18)
        post = fit_exact(prior, data)
        mode = joint_mode(post)
        np.testing.assert_allclose(mode["coefficients"], post.mean_G)

    def test_scalar_optimizer_oracle(self):
        # maximize the joint log posterior over (gamma, h) numerically
        rng = np.random.default_rng(19)
        y = 0.5 + 0.3 * rng.standard_normal((12, 1))
        data = DesignData(Y=y, X=np.ones((12, 1)), lag_order=0)
        prior = ConjugatePrior(np.array([[0.0]]), np.array([[2.0]]),
                               np.array([[0.5]]), 3.0)
        post = fit_exact(prior, data)
        mode = joint_mode(post)

        def neg_log_post(theta):
            g, logh = theta
            h = np.exp(logh)
            t = 12
            ll = t / 2.0 * np.log(h) - h / 2.0 * float(np.sum((y[:, 0] - g) ** 2))
            lpg = 0.5 * np.log(h) - h / (2 * 2.0) * g**2
            lph = (3.0 - 2) / 2.0 * np.log(h) - 0.5 * h / 2.0
            return -(ll + lpg + lph)

        res = optimize.minimize(neg_log_post,
                                [post.mean_G[0, 0], np.log(mode["precision"][0, 0])],
                                method="Nelder-Mead",
                                options={"xatol": 1e-10, "fatol": 1e-12})
        assert res.x[0] == pytest.approx(mode["coefficients"][0, 0], abs=1e-6)
        assert np.exp(res.x[1]) == pytest.approx(mode["precision"][0, 0], rel=1e-6)

    def test_homogeneity_in_scale(self):
        base = ConjugateExactPosterior(np.zeros((2, 2)), np.eye(2),
                                       np.array([[2.0, 0.3], [0.3, 1.0]]),
                                       6, 4.0)
        scaled = ConjugateExactPosterior(np.zeros((2, 2)), np.eye(2),
                                         3.0 * np.array([[2.0, 0.3], [0.3, 1.0]]),
                                         6, 4.0)
        np.testing.assert_allclose(joint_mode(scaled)["precision"],
                                   joint_mode(base)["precision"] / 3.0)

    def test_dof_bound(self):
        post = ConjugateExactPosterior(np.zeros((3, 1)), np.eye(3),
                                       np.eye(1) * 2.0, 0, 1.0)
        # factor = T + p + prior_dof - M - 1 = 0 + 3 + 1 - 1 - 1 = 2 > 0 is fine;
        # shrink until it is not
        bad = ConjugateExactPosterior(np.zeros((1, 1)), np.eye(1),
                                      np.eye(1), 0, 1.0)
        with pytest.raises(UndefinedMomentError):
            joint_mode(bad)
        joint_mode(post)


class TestPredictiveExact:
    def test_zero_location(self):
        post = ConjugateExactPosterior(np.zeros((3, 2)), np.eye(3),
                                       np.eye(2), 4, 4.0)
        pred = predictive_exact(post, np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(pred["mean"], 0.0)
        assert np.abs(pred["normal_cov"]).max() == 0.0

    def test_mean_equals_vb_mean(self):
        data = synthetic_design(2, 1, 60, seed=20)
        prior = random_conjugate_prior(2, 3, seed=21)
        post = fit_exact(prior, data)
        vb = fit_vb_conjugate(prior, data)
        x_next = np.concatenate([[1.0], data.Y[-1]])
        pe = predictive_exact(post, x_next)
        pv = predictive_vb_conjugate(vb, x_next)
        np.testing.assert_allclose(pe["mean"], pv["mean"], atol=1e-14)

    def test_dof_bound(self):
        post = ConjugateExactPosterior(np.zeros((2, 1)), np.eye(2),
                                       np.eye(1), 0, 2.0)
        with pytest.raises(UndefinedMomentError):
            predictive_exact(post, np.array([1.0, 0.0]))

    def test_dimension_check(self):
        post = ConjugateExactPosterior(np.zeros((2, 1)), np.eye(2),
                                       np.eye(1), 4, 4.0)
        with pytest.raises(ValueError, match="x_next must have p = 2 entries, got 3"):
            predictive_exact(post, np.array([1.0, 0.0, 0.0]))
