"""Gibbs sampler for the independent-prior VAR and the RIS marginal likelihood."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from conftest import (
    grid_posterior_scalar,
    intercept_only_design,
    random_independent_prior,
    synthetic_design,
)
from vbvar.independent_mcmc import (
    GibbsConfig,
    _log_joint_independent,
    gibbs_run,
    lnml_ris,
    predictive_gibbs,
    summarize_draws,
)
from vbvar.independent_vb import elbo_independent, fit_vb_independent
from vbvar.mvdist import NotPositiveDefiniteError
from vbvar.priors import IndependentPrior, MinnesotaConfig, minnesota_independent


@pytest.fixture(scope="module")
def toy():
    rng = np.random.default_rng(100)
    y = 0.3 + 0.7 * rng.standard_normal(6)
    data = intercept_only_design(y)
    prior = IndependentPrior(
        mean_b=np.array([0.1]),
        cov=np.array([[2.0]]),
        scale=np.array([[0.8]]),
        dof=3.0,
    )
    return prior, data


@pytest.fixture(scope="module")
def toy_grid(toy):
    prior, data = toy
    return grid_posterior_scalar(prior, data)


@pytest.fixture(scope="module")
def toy_draws(toy):
    prior, data = toy
    return gibbs_run(prior, data, GibbsConfig(n_draws=60_000, burn_in=10_000, seed=7))


class TestGibbsRun:
    def test_shapes_and_counts(self, toy_draws):
        assert toy_draws.beta_draws.shape == (50_000, 1)
        assert toy_draws.precision_draws.shape == (50_000, 1, 1)
        assert toy_draws.n_kept == 50_000

    def test_deterministic(self, toy):
        prior, data = toy
        cfg = GibbsConfig(n_draws=500, burn_in=100, seed=42)
        a = gibbs_run(prior, data, cfg)
        b = gibbs_run(prior, data, cfg)
        np.testing.assert_array_equal(a.beta_draws, b.beta_draws)
        np.testing.assert_array_equal(a.precision_draws, b.precision_draws)

    def test_seed_changes_draws(self, toy):
        prior, data = toy
        a = gibbs_run(prior, data, GibbsConfig(n_draws=500, burn_in=100, seed=1))
        b = gibbs_run(prior, data, GibbsConfig(n_draws=500, burn_in=100, seed=2))
        assert not np.array_equal(a.beta_draws, b.beta_draws)

    def test_precision_draws_spd(self, toy_draws):
        eigs = np.linalg.eigvalsh(toy_draws.precision_draws[:200])
        assert eigs.min() > 0

    def test_dogmatic_coef_prior(self):
        # a near-degenerate coefficient prior pins beta at its prior mean
        data = synthetic_design(2, 1, 40, seed=101)
        base = random_independent_prior(2, 3, seed=102)
        from dataclasses import replace

        tight = replace(base, cov=1e-12 * np.eye(6))
        draws = gibbs_run(tight, data, GibbsConfig(n_draws=800, burn_in=200, seed=3))
        assert np.abs(draws.beta_draws - base.mean_b).max() < 1e-4

    def test_factor_failure_raises(self, monkeypatch):
        data = synthetic_design(2, 1, 40, seed=101)
        prior = random_independent_prior(2, 3, seed=102)
        monkeypatch.setattr(IndependentPrior, "precision_mean", property(lambda _: -np.eye(2)))
        with pytest.raises(NotPositiveDefiniteError, match="iteration 0"):
            gibbs_run(prior, data, GibbsConfig(n_draws=10, burn_in=0, seed=3))

    def test_indefinite_scale_raises(self, monkeypatch):
        # the coefficient step succeeds; the M x M chain on S0 + E'E must not
        data = synthetic_design(2, 1, 40, seed=101)
        prior = random_independent_prior(2, 3, seed=102)
        monkeypatch.setattr(IndependentPrior, "scale", property(lambda _: -1e6 * np.eye(2)),
                            raising=False)
        with pytest.raises(NotPositiveDefiniteError, match="iteration 0"):
            gibbs_run(prior, data, GibbsConfig(n_draws=10, burn_in=0, seed=3))

    def test_matches_quadrature(self, toy_draws, toy_grid):
        s = summarize_draws(toy_draws)
        assert abs(s["beta_mean"][0] - toy_grid["beta_mean"]) < 4 * s["beta_mean_se"][0]
        assert abs(s["precision_mean"][0, 0] - toy_grid["h_mean"]) < \
            4 * s["precision_mean_se"][0, 0]
        assert s["beta_var"][0] == pytest.approx(toy_grid["beta_var"], rel=0.05)
        assert s["precision_var"][0, 0] == pytest.approx(toy_grid["h_var"], rel=0.05)


class TestGibbsConfig:
    def test_burn_in_bound(self):
        with pytest.raises(ValueError):
            GibbsConfig(n_draws=100, burn_in=100, seed=0)

    def test_positive_draws(self):
        with pytest.raises(ValueError):
            GibbsConfig(n_draws=0, burn_in=0, seed=0)

    @pytest.mark.parametrize("field", ["n_draws", "burn_in", "seed"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True], ids=["fraction", "float", "bool"])
    def test_counts_and_seed_must_be_integers(self, field, value):
        settings = {"n_draws": 300, "burn_in": 0, "seed": 1, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            GibbsConfig(**settings)
        cfg = GibbsConfig(**{**settings, field: np.int64(1)})
        assert getattr(cfg, field) == 1

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            GibbsConfig(n_draws=10, burn_in=0, seed=-1)


class TestSummarize:
    def test_constant_series(self, toy):
        prior, data = toy
        draws = gibbs_run(prior, data, GibbsConfig(n_draws=2200, burn_in=200, seed=5))
        from dataclasses import replace

        draws = replace(draws, beta_draws=np.full_like(draws.beta_draws, 1.5))
        s = summarize_draws(draws)
        assert s["beta_mean"][0] == 1.5
        assert s["beta_var"][0] == 0.0
        assert s["beta_mean_se"][0] == 0.0

    def test_iid_se_matches_clt(self):
        # feed iid draws through the batch-means estimator: it should
        # recover sd / sqrt(n) closely
        rng = np.random.default_rng(103)
        data = intercept_only_design(rng.standard_normal(6))
        prior = IndependentPrior(np.array([0.0]), np.array([[1.0]]),
                                 np.array([[1.0]]), 3.0)
        draws = gibbs_run(prior, data, GibbsConfig(n_draws=40_100, burn_in=100, seed=6))
        iid = rng.standard_normal(40_000)
        from dataclasses import replace

        draws = replace(draws, beta_draws=iid[:, None])
        s = summarize_draws(draws)
        assert s["beta_mean_se"][0] == pytest.approx(
            iid.std(ddof=1) / np.sqrt(40_000), rel=0.35
        )


class TestPredictiveGibbs:
    def test_tower_property(self, toy, toy_draws, toy_grid):
        # predictive mean at x = [1] equals the posterior mean of beta
        pred = predictive_gibbs(toy_draws, np.array([1.0]), np.random.default_rng(8))
        assert abs(pred["mean"][0] - toy_grid["beta_mean"]) < 5 * pred["mean_se"][0]

    def test_law_of_total_variance(self, toy_draws):
        # Var(y) = Var(E[y|theta]) + E[Var(y|theta)], both sides from the
        # same draws
        x = np.array([1.0])
        pred = predictive_gibbs(toy_draws, x, np.random.default_rng(9))
        cond_means = toy_draws.beta_draws @ x
        cond_vars = 1.0 / toy_draws.precision_draws[:, 0, 0]
        want = cond_means.var(ddof=1) + cond_vars.mean()
        assert pred["variance"][0, 0] == pytest.approx(want, rel=0.05)

    @pytest.mark.parametrize("n_vars", [1, 3])
    def test_batched_matches_per_draw(self, n_vars):
        data = synthetic_design(n_vars, 2, 80, seed=120 + n_vars)
        prior = minnesota_independent(data, MinnesotaConfig())
        draws = gibbs_run(prior, data, GibbsConfig(n_draws=400, burn_in=100, seed=121))
        x = np.concatenate([[1.0], data.Y[-2:][::-1].reshape(-1)])
        pred = predictive_gibbs(draws, x, np.random.default_rng(122))

        # per-draw reference: y_i = (x Gamma_i)' + L_i^-T z_i, one z_i per draw
        rng = np.random.default_rng(122)
        p = x.size
        want = np.empty((draws.n_kept, n_vars))
        for i in range(draws.n_kept):
            coef = draws.beta_draws[i].reshape((p, n_vars), order="F")
            lw = np.linalg.cholesky(draws.precision_draws[i])
            want[i] = x @ coef + solve_triangular(lw, rng.standard_normal(n_vars),
                                                  lower=True, trans="T")
        np.testing.assert_allclose(pred["draws"], want, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(pred["mean"], want.mean(axis=0), rtol=1e-12)

    def test_needs_enough_draws(self, toy):
        prior, data = toy
        draws = gibbs_run(prior, data, GibbsConfig(n_draws=60, burn_in=10, seed=10))
        with pytest.raises(ValueError):
            predictive_gibbs(draws, np.array([1.0]), np.random.default_rng(0))

    def test_x_next_size_is_checked(self, toy_draws):
        with pytest.raises(ValueError, match="x_next must have p = 1 entries, got 2"):
            predictive_gibbs(toy_draws, np.array([1.0, 0.0]), np.random.default_rng(0))


class TestLnmlRis:
    def test_matches_quadrature(self, toy, toy_draws, toy_grid):
        prior, data = toy
        vb = fit_vb_independent(prior, data)
        out = lnml_ris(toy_draws, vb, prior, data)
        assert abs(out["estimate"] - toy_grid["lnml"]) < 4 * out["std_error"]
        assert not out["degenerate_weights"]
        assert out["ess"] > 1000

    def test_at_least_elbo(self, toy, toy_draws):
        prior, data = toy
        vb = fit_vb_independent(prior, data)
        out = lnml_ris(toy_draws, vb, prior, data)
        assert out["estimate"] >= elbo_independent(prior, vb, data) - 3 * out["std_error"]

    def test_needs_two_kept_draws(self, toy):
        # one kept draw gave std_error nan after a divide warning
        prior, data = toy
        draws = gibbs_run(prior, data, GibbsConfig(n_draws=2, burn_in=1, seed=11))
        with pytest.raises(ValueError, match="at least 2 kept draws"):
            lnml_ris(draws, fit_vb_independent(prior, data), prior, data)

    def test_deterministic(self, toy, toy_draws):
        prior, data = toy
        vb = fit_vb_independent(prior, data)
        a = lnml_ris(toy_draws, vb, prior, data)
        b = lnml_ris(toy_draws, vb, prior, data)
        assert a == b

    @pytest.mark.parametrize("n_vars", [1, 3])
    @pytest.mark.parametrize("kind", ["dense", "minnesota"])
    def test_batched_matches_per_draw(self, n_vars, kind):
        data = synthetic_design(n_vars, 2, 80, seed=110 + n_vars)
        if kind == "dense":
            prior = random_independent_prior(n_vars, data.X.shape[1], seed=111)
        else:
            prior = minnesota_independent(data, MinnesotaConfig())
        vb = fit_vb_independent(prior, data)
        draws = gibbs_run(prior, data, GibbsConfig(n_draws=400, burn_in=100, seed=112))
        out = lnml_ris(draws, vb, prior, data)

        # per-draw reference: one density evaluation per draw
        q_chol = cho_factor(vb.cov_b, lower=True)
        q_logdet = 2.0 * np.sum(np.log(np.diag(q_chol[0])))
        q_prec = vb.precision_density()
        mp = vb.mean_b.size
        log_w = np.empty(draws.n_kept)
        for i, (beta, prec) in enumerate(zip(draws.beta_draws, draws.precision_draws)):
            db = beta - vb.mean_b
            lq_b = (-mp / 2.0 * np.log(2.0 * np.pi) - 0.5 * q_logdet
                    - 0.5 * float(db @ cho_solve(q_chol, db)))
            log_w[i] = (lq_b + q_prec.logpdf(prec) - _log_joint_independent(
                prior, data, beta, prec, np.linalg.cholesky(prec)))
        mx = log_w.max()
        shifted = np.exp(log_w - mx)
        want = -(mx + np.log(shifted.mean()))
        assert out["estimate"] == pytest.approx(want, rel=1e-12)
        assert out["ess"] == pytest.approx(shifted.sum() ** 2 / np.sum(shifted**2), rel=1e-9)
