"""Coordinate-ascent VB for the independent-prior VAR: ELBO, predictive, modes."""

from dataclasses import replace

import numpy as np
import pytest
from scipy import optimize, stats

from conftest import (
    intercept_only_design,
    random_independent_prior,
    synthetic_design,
)
import vbvar.independent_vb as ivb
from vbvar.independent_mcmc import _log_joint_independent
from vbvar.independent_vb import (
    VbConfig,
    elbo_independent,
    fit_vb_independent,
    log_posterior_independent,
    modes_exact_iterative,
    modes_vb_iterative,
    predictive_vb_independent,
)
from vbvar.mvdist import NotPositiveDefiniteError, WishartDist
from vbvar.priors import IndependentPrior


@pytest.fixture(scope="module")
def scalar_case():
    rng = np.random.default_rng(200)
    y = 0.5 + 0.9 * rng.standard_normal(12)
    data = intercept_only_design(y)
    prior = IndependentPrior(np.array([0.2]), np.array([[1.7]]),
                             np.array([[1.1]]), 3.0, 1)
    return prior, data


def scalar_vb_fixed_point(prior, data):
    """Independent third path to the scalar VB fixed point: solve the
    one-dimensional fixed-point equation for E[h] with brentq."""
    y = data.Y[:, 0]
    t = y.size
    v0 = prior.cov[0, 0]
    b0 = prior.mean_b[0]
    s0 = prior.scale[0, 0]
    nub = t + prior.dof
    xx = float(t)  # intercept-only design
    xy = float(y.sum())

    def updated(e):
        w = 1.0 / (1.0 / v0 + e * xx)
        b = w * (b0 / v0 + e * xy)
        s_q = s0 + float(np.sum((y - b) ** 2)) + xx * w
        return nub / s_q, b, w, s_q

    root = optimize.brentq(lambda e: e - updated(e)[0], 1e-10, 1e6,
                           xtol=1e-14, rtol=1e-15)
    e, b, w, s_q = updated(root)
    return {"e_prec": e, "mean": b, "var": w, "scale_q": s_q}


class TestFitVb:
    def test_scalar_fixed_point_oracle(self, scalar_case):
        prior, data = scalar_case
        vb = fit_vb_independent(prior, data,
                                VbConfig(max_iters=5000, elbo_rel_tol=1e-16))
        want = scalar_vb_fixed_point(prior, data)
        assert vb.mean_b[0] == pytest.approx(want["mean"], rel=1e-8)
        assert vb.cov_b[0, 0] == pytest.approx(want["var"], rel=1e-8)
        assert vb.scale_q[0, 0] == pytest.approx(want["scale_q"], rel=1e-8)
        assert vb.dof == data.effective_T + prior.dof

    def test_monotone_trace_and_convergence(self):
        data = synthetic_design(3, 4, 200, seed=201)
        prior = random_independent_prior(3, 13, seed=202)
        vb = fit_vb_independent(prior, data)
        assert vb.converged
        diffs = np.diff(vb.elbo_trace)
        assert diffs.min() > -1e-10
        assert len(vb.elbo_trace) <= 500

    def test_dogmatic_coef_prior(self):
        data = synthetic_design(2, 1, 40, seed=203)
        base = random_independent_prior(2, 3, seed=204)
        tight = replace(base, cov=1e-12 * np.eye(6))
        vb = fit_vb_independent(tight, data)
        assert np.abs(vb.mean_b - base.mean_b).max() < 1e-4

    def test_dimension_mismatch(self):
        data = synthetic_design(2, 1, 40, seed=205)
        with pytest.raises(ValueError):
            fit_vb_independent(random_independent_prior(3, 4, seed=0), data)

    def test_non_convergence_flag(self):
        data = synthetic_design(3, 4, 200, seed=206)
        prior = random_independent_prior(3, 13, seed=207)
        vb = fit_vb_independent(prior, data, VbConfig(max_iters=1))
        assert not vb.converged

    def test_elbo_decrease_is_not_convergence(self, scalar_case, monkeypatch):
        prior, data = scalar_case
        values = iter([-10.0, -10.5, -11.0, -11.5])
        monkeypatch.setattr(ivb, "_elbo_value", lambda *args: next(values))
        vb = fit_vb_independent(prior, data, VbConfig(max_iters=4))
        assert not vb.converged
        assert vb.elbo_trace == (-10.0, -10.5)

    def test_round_off_decrease_still_converges(self, scalar_case, monkeypatch):
        prior, data = scalar_case
        values = iter([-10.0, -10.0 - 1e-13])
        monkeypatch.setattr(ivb, "_elbo_value", lambda *args: next(values))
        assert fit_vb_independent(prior, data, VbConfig(max_iters=2)).converged

    def test_factor_failure_raises(self, monkeypatch):
        data = synthetic_design(2, 1, 40, seed=205)
        prior = random_independent_prior(2, 3, seed=204)
        monkeypatch.setattr(IndependentPrior, "precision_mean", property(lambda _: -np.eye(2)))
        with pytest.raises(NotPositiveDefiniteError, match="VB update"):
            fit_vb_independent(prior, data)


class TestElbo:
    def test_closed_form_matches_trace(self, scalar_case):
        prior, data = scalar_case
        vb = fit_vb_independent(prior, data,
                                VbConfig(max_iters=5000, elbo_rel_tol=1e-16))
        closed = elbo_independent(prior, vb, data)
        assert closed == pytest.approx(vb.elbo_trace[-1], rel=1e-8)

    def test_closed_form_matches_trace_multivariate(self):
        data = synthetic_design(2, 2, 60, seed=208)
        prior = random_independent_prior(2, 5, seed=209)
        vb = fit_vb_independent(prior, data, VbConfig(elbo_rel_tol=1e-13))
        assert elbo_independent(prior, vb, data) == \
            pytest.approx(vb.elbo_trace[-1], rel=1e-8)

    def test_mc_oracle(self):
        data = synthetic_design(2, 1, 25, seed=210)
        prior = random_independent_prior(2, 3, seed=211)
        vb = fit_vb_independent(prior, data)
        rng = np.random.default_rng(212)
        q_prec = vb.precision_density()
        lb = np.linalg.cholesky(vb.cov_b)
        n = 30_000
        vals = np.empty(n)
        for i in range(n):
            beta = vb.mean_b + lb @ rng.standard_normal(vb.mean_b.size)
            prec = q_prec.sample(rng)
            vals[i] = (
                _log_joint_independent(prior, data, beta, prec,
                                       np.linalg.cholesky(prec))
                - stats.multivariate_normal.logpdf(beta, vb.mean_b, vb.cov_b)
                - q_prec.logpdf(prec)
            )
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - elbo_independent(prior, vb, data)) < 4 * se


class TestPredictive:
    def test_mean_and_variance_formulas(self):
        data = synthetic_design(2, 1, 60, seed=215)
        prior = random_independent_prior(2, 3, seed=216)
        vb = fit_vb_independent(prior, data)
        x = np.concatenate([[1.0], data.Y[-1]])
        pred = predictive_vb_independent(vb, x)
        np.testing.assert_allclose(pred["mean"], x @ vb.coef_matrix())
        np.testing.assert_allclose(
            pred["variance"],
            pred["normal_cov"] + vb.scale_q / (vb.dof - 2.0),
        )

    def test_simulation_oracle_scalar(self, scalar_case):
        prior, data = scalar_case
        vb = fit_vb_independent(prior, data)
        pred = predictive_vb_independent(vb, np.array([1.0]))
        draws = pred["sample"](np.random.default_rng(217), 400_000)
        se = draws.std(ddof=1) / np.sqrt(draws.shape[0])
        assert abs(draws.mean() - pred["mean"][0]) < 4 * se
        assert draws.var(ddof=1) == pytest.approx(pred["variance"][0, 0], rel=0.02)

    def test_zero_leverage(self, scalar_case):
        prior, data = scalar_case
        vb = fit_vb_independent(prior, data)
        pred = predictive_vb_independent(vb, np.array([0.0]))
        assert np.abs(pred["normal_cov"]).max() == 0.0

    def test_dimension_check(self, scalar_case):
        prior, data = scalar_case
        vb = fit_vb_independent(prior, data)
        with pytest.raises(ValueError):
            predictive_vb_independent(vb, np.array([1.0, 0.0]))


class TestModes:
    def test_exact_mode_optimizer_oracle(self, scalar_case):
        # 2-D numerical maximization of the log posterior kernel
        prior, data = scalar_case
        mode = modes_exact_iterative(prior, data)
        assert mode["converged"]

        def neg(z):
            return -log_posterior_independent(prior, data, [z[0]],
                                              np.array([[np.exp(z[1])]]))

        res = optimize.minimize(neg, [0.0, 0.0], method="Nelder-Mead",
                                options={"xatol": 1e-10, "fatol": 1e-12,
                                         "maxiter": 5000})
        assert res.x[0] == pytest.approx(mode["beta"][0], rel=1e-6)
        assert np.exp(res.x[1]) == pytest.approx(mode["precision"][0, 0], rel=1e-6)

    def test_exact_mode_stationarity(self):
        # one extra block update away from the reported fixed point moves
        # nothing
        data = synthetic_design(2, 1, 60, seed=218)
        prior = random_independent_prior(2, 3, seed=219)
        mode = modes_exact_iterative(prior, data, tol=1e-13)
        x, y = data.X, data.Y
        t, m = y.shape
        p = x.shape[1]
        v0_inv = np.linalg.inv(prior.cov)
        post_prec = v0_inv + np.kron(mode["precision"], x.T @ x)
        beta_new = np.linalg.solve(
            post_prec,
            v0_inv @ prior.mean_b + (x.T @ y @ mode["precision"]).flatten(order="F"),
        )
        resid = y - x @ beta_new.reshape((p, m), order="F")
        prec_new = (t + prior.dof - m - 1) * np.linalg.inv(prior.scale + resid.T @ resid)
        assert np.abs(beta_new - mode["beta"]).max() < 1e-8
        assert np.abs(prec_new - mode["precision"]).max() < 1e-6

    def test_exact_mode_beats_neighbors(self, scalar_case):
        prior, data = scalar_case
        mode = modes_exact_iterative(prior, data)
        lp = log_posterior_independent(prior, data, mode["beta"], mode["precision"])
        for db, dh in [(1e-3, 0.0), (-1e-3, 0.0), (0.0, 1e-3), (0.0, -1e-3)]:
            assert log_posterior_independent(
                prior, data, mode["beta"] + db, mode["precision"] + dh
            ) < lp

    def test_vb_mode_equals_vb_posterior_mode(self):
        # the corrected iteration lands exactly on the VB posterior's
        # {coefficient mean, precision-density mode}
        data = synthetic_design(2, 1, 60, seed=220)
        prior = random_independent_prior(2, 3, seed=221)
        vb = fit_vb_independent(prior, data, VbConfig(elbo_rel_tol=1e-16,
                                                      max_iters=5000))
        mode = modes_vb_iterative(prior, data, tol=1e-13)
        m = vb.n_vars
        np.testing.assert_allclose(mode["beta"], vb.mean_b, rtol=1e-8)
        np.testing.assert_allclose(
            mode["precision"],
            (vb.dof - m - 1) * np.linalg.inv(vb.scale_q),
            rtol=1e-6,
        )

    def test_vb_mode_is_wishart_mode(self):
        data = synthetic_design(2, 1, 60, seed=222)
        prior = random_independent_prior(2, 3, seed=223)
        vb = fit_vb_independent(prior, data, VbConfig(elbo_rel_tol=1e-16))
        mode = modes_vb_iterative(prior, data, tol=1e-13)
        np.testing.assert_allclose(
            mode["precision"],
            WishartDist(np.linalg.inv(vb.scale_q), vb.dof).mode(),
            rtol=1e-6,
        )

    def test_modes_agree_for_large_t(self):
        data = synthetic_design(2, 1, 10_000, seed=224)
        prior = random_independent_prior(2, 3, seed=225)
        exact = modes_exact_iterative(prior, data)
        vb = modes_vb_iterative(prior, data)
        assert np.abs(vb["beta"] - exact["beta"]).max() < 1e-2
        rel = np.abs(vb["precision"] - exact["precision"]).max() / \
            np.abs(exact["precision"]).max()
        assert rel < 1e-2

    @pytest.mark.parametrize("modes", [modes_exact_iterative, modes_vb_iterative])
    def test_dimension_mismatch(self, modes):
        data = synthetic_design(2, 1, 40, seed=205)
        with pytest.raises(ValueError, match="dimensions disagree"):
            modes(random_independent_prior(3, 4, seed=0), data)

    def test_vb_mode_below_exact_precision(self, scalar_case):
        # the VB precision mode shrinks toward zero relative to the exact one
        prior, data = scalar_case
        exact = modes_exact_iterative(prior, data)
        vb = modes_vb_iterative(prior, data)
        assert vb["precision"][0, 0] < exact["precision"][0, 0]
