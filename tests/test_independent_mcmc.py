"""Gibbs sampler for the independent-prior VAR and the RIS marginal likelihood."""

import copy

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from conftest import (
    LapackWithoutPotri,
    grid_posterior_scalar,
    intercept_only_design,
    perfbench_design,
    random_independent_prior,
    random_spd,
    synthetic_design,
)
import vbvar.conditional as cond
import vbvar.independent_mcmc as imc
import vbvar.mvdist as mvdist
from vbvar.conditional import _beta_draw, _CoefficientStep, _KroneckerStep
from vbvar.independent_mcmc import (
    MIN_PREDICTIVE_DRAWS,
    GibbsConfig,
    GibbsDraws,
    _batch_means_se,
    _gibbs_sweep,
    _log_joint_independent,
    _ris_summary,
    gibbs_run,
    lnml_ris,
    predictive_gibbs,
    summarize_draws,
)
from vbvar.independent_vb import elbo_independent, fit_vb_independent
from vbvar.mvdist import NotPositiveDefiniteError, WishartDist
from vbvar.priors import IndependentPrior, MinnesotaConfig, minnesota_independent
from vbvar.vardata import DesignData


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

    @pytest.mark.parametrize("route", ["dense", "pcg"])
    def test_infinite_scale_raises(self, toy, route, monkeypatch):
        # potrf passes S0 + E'E = [[inf]] with an infinite diagonal; the
        # Sigma^-1 step must not
        prior, data = toy
        if route == "pcg":
            monkeypatch.setattr(cond, "_KRONECKER_MIN_MP", 0)
        assert isinstance(_beta_draw(prior, data), _KroneckerStep) == (route == "pcg")
        monkeypatch.setattr(IndependentPrior, "scale", property(lambda _: np.inf * np.eye(1)),
                            raising=False)
        with pytest.raises(NotPositiveDefiniteError, match="iteration 0"):
            gibbs_run(prior, data, GibbsConfig(n_draws=10, burn_in=0, seed=3))

    @pytest.mark.parametrize("route", ["dense", "pcg"])
    def test_sweep_calls_no_potri(self, route, monkeypatch):
        # the Sigma^-1 step is one potrf and one trtri: potri's lauum wakes
        # scipy's BLAS thread pool even at M = 20
        data = synthetic_design(2, 1, 40, seed=101)
        prior = random_independent_prior(2, 3, seed=102)
        if route == "pcg":
            prior = _diagonal_prior(prior, seed=103, decades=3)
            monkeypatch.setattr(cond, "_KRONECKER_MIN_MP", 0)
        assert isinstance(_beta_draw(prior, data), _KroneckerStep) == (route == "pcg")
        # the sweep reaches LAPACK only through these two modules
        assert not hasattr(imc, "lapack")
        for module in (cond, mvdist):
            monkeypatch.setattr(module, "lapack", LapackWithoutPotri())
        draws = gibbs_run(prior, data, GibbsConfig(n_draws=20, burn_in=0, seed=3))
        assert np.all(np.linalg.eigvalsh(draws.precision_draws) > 0)

    def test_matches_quadrature(self, toy_draws, toy_grid):
        s = summarize_draws(toy_draws)
        assert abs(s["beta_mean"][0] - toy_grid["beta_mean"]) < 4 * s["beta_mean_se"][0]
        assert abs(s["precision_mean"][0, 0] - toy_grid["h_mean"]) < \
            4 * s["precision_mean_se"][0, 0]
        assert s["beta_var"][0] == pytest.approx(toy_grid["beta_var"], rel=0.05)
        assert s["precision_var"][0, 0] == pytest.approx(toy_grid["h_var"], rel=0.05)


def _joint_distribution_chain(prior, x, n_steps, seed):
    """Geweke's (2004) successive-conditional simulator: from theta drawn
    from the prior, alternate Y ~ p(Y | theta) at fixed regressors X with
    one Gibbs sweep theta ~ K(theta, . | Y).  When the sweep leaves the
    posterior invariant, the prior is the chain's stationary law.  X, and
    so X'X and the step's basis, stay fixed: one coefficient step serves
    the chain, and only its X'Y follows each new Y."""
    rng = np.random.default_rng(seed)
    m, p = prior.n_vars, prior.n_regressors
    t = x.shape[0]
    step = _beta_draw(prior, DesignData(Y=np.zeros((t, m)), X=x, lag_order=(p - 1) // m))
    beta = prior.mean_b + np.linalg.cholesky(prior.cov) @ rng.standard_normal(m * p)
    prec = WishartDist(prior.scale_inv, prior.dof).sample(rng)
    betas, precs = np.empty((n_steps, m * p)), np.empty((n_steps, m, m))
    for k in range(n_steps):
        # rows of E are N(0, Sigma): e = L^-T z for Sigma^-1 = L L'
        e = np.linalg.solve(np.linalg.cholesky(prec).T, rng.standard_normal((m, t))).T
        data = DesignData(Y=x @ beta.reshape((p, m), order="F") + e, X=x,
                          lag_order=(p - 1) // m)
        step.xty = data.X.T @ data.Y
        beta, prec = _gibbs_sweep(step, prior, data, prec, t + prior.dof, rng)
        betas[k], precs[k] = beta, prec
    return betas, precs


def _diagonal_prior(base, seed, decades):
    """base with its coefficient covariance replaced by a random diagonal
    whose entries span about ``decades`` powers of ten."""
    rng = np.random.default_rng(seed)
    cov = np.diag(10.0 ** rng.uniform(-decades / 2, decades / 2, base.mean_b.size))
    return IndependentPrior(base.mean_b, cov, base.scale, base.dof)


class TestJointDistribution:
    """The Gibbs sweep against its prior by the joint-distribution test: the
    chain means of beta, beta^2, Sigma^-1 and its squared entries must match
    the prior's moments within Z_MAX batch-means standard errors.  A Wishart
    dof off by 2 or coefficient noise scaled by 1.15 gives |z| far above it
    on either route.  So does a Wishart error that keeps the mean (dof + 2,
    scale times dof / (dof + 2)), which at 20 000 steps read |z| 4.98 on the
    dense route.  The Sigma^-1 step is the same on both routes, so its
    M = 3 case runs on the dense route only."""

    N_STEPS = 40_000
    Z_MAX = 5.0

    # seeds of the data, the prior, its diagonal and the chain, fixed per M;
    # --seed-offset moves the chain's
    @pytest.mark.parametrize("route,n_vars,seeds", [
        pytest.param("dense", 2, (1301, 1302, 1303, 1304), id="dense"),
        pytest.param("pcg", 2, (1301, 1302, 1303, 1304), id="pcg"),
        pytest.param("dense", 3, (1305, 1306, 1307, 1308), id="dense-m3"),
    ])
    def test_chain_keeps_the_prior(self, route, n_vars, seeds, monkeypatch, seed_offset):
        data = synthetic_design(n_vars, 1, 11, seed=seeds[0])
        prior = random_independent_prior(n_vars, n_vars + 1, seed=seeds[1])
        if route == "pcg":
            prior = _diagonal_prior(prior, seed=seeds[2], decades=3)
            monkeypatch.setattr(cond, "_KRONECKER_MIN_MP", 0)
        assert isinstance(_beta_draw(prior, data), _KroneckerStep) == (route == "pcg")
        betas, precs = _joint_distribution_chain(prior, data.X, self.N_STEPS,
                                                  seed=seeds[3] + seed_offset)
        iu = np.triu_indices(n_vars)
        w = precs[:, iu[0], iu[1]]
        w_mean = prior.precision_mean[iu]
        w_var = WishartDist(prior.scale_inv, prior.dof).var()[iu]
        stats = np.column_stack((betas, betas**2, w, w**2))
        want = np.concatenate((prior.mean_b, prior.mean_b**2 + np.diag(prior.cov),
                               w_mean, w_var + w_mean**2))
        z = (stats.mean(axis=0) - want) / _batch_means_se(stats)
        assert np.abs(z).max() < self.Z_MAX, z


def _pcg_mean(prior, data, prec):
    """The PCG solution at zero noise, Q^-1 (V0^-1 b0 + vec(X'Y P)), as vec."""
    step = _KroneckerStep(prior, data, jacobi=False)
    _, r, shift = step.eig(prec)
    return step.pcg(step.rhs(prec), prec, r, shift).flatten(order="F")


class TestPcgDraw:
    """The perturb-then-solve draw of a diagonal-V0^-1 prior: its noise has
    covariance Q = V0^-1 + P kron X'X exactly, and its solve is the dense
    conditional mean to round-off."""

    @pytest.mark.parametrize("n_vars,lags", [(1, 1), (2, 1), (3, 2)])
    def test_noise_covariance_is_the_precision(self, n_vars, lags):
        data = synthetic_design(n_vars, lags, 40, seed=1310 + n_vars)
        prior = _diagonal_prior(random_independent_prior(n_vars, data.n_regressors, 1311),
                                seed=1312, decades=6)
        prec = random_spd(n_vars, np.random.default_rng(1313))
        step = _KroneckerStep(prior, data, jacobi=False)
        omega, r, _ = step.eig(prec)
        mp = prior.mean_b.size
        # column k of the linear map from the 2 Mp normals to vec(eta)
        basis = np.eye(2 * mp).reshape(2 * mp, 2, *step.d.shape)
        lmap = np.column_stack([step.noise(z, omega, r).flatten(order="F") for z in basis])
        q = prior.cov_inv + np.kron(prec, data.X.T @ data.X)
        assert np.abs(lmap @ lmap.T - q).max() <= 1e-12 * np.abs(q).max()

    @given(n_vars=st.integers(1, 4), lags=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_solve_matches_dense_mean(self, n_vars, lags, seed):
        rng = np.random.default_rng(seed)
        data = synthetic_design(n_vars, lags, 60, seed=int(rng.integers(2**31)))
        mp = n_vars * data.n_regressors
        # Minnesota's V0^-1 spans 5.8e-5 to 176 at the benchmark's Mp = 820
        prior = IndependentPrior(0.1 * rng.standard_normal(mp),
                                 np.diag(10.0 ** rng.uniform(-2.3, 4.3, mp)),
                                 random_spd(n_vars, rng), n_vars + 2.0)
        prec = random_spd(n_vars, rng)
        want = _CoefficientStep(prior, data)(prec)[1]
        got = _pcg_mean(prior, data, prec)
        assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)

    def test_solve_matches_dense_mean_at_mp_820(self, monkeypatch):
        data = perfbench_design(20, 2, 300, monkeypatch)
        prior = minnesota_independent(data, MinnesotaConfig())
        assert prior.mean_b.size == 820 and isinstance(_beta_draw(prior, data), _KroneckerStep)
        coef = np.linalg.lstsq(data.X, data.Y, rcond=None)[0]
        resid = data.Y - data.X @ coef
        prec = (data.effective_T + prior.dof) * np.linalg.inv(prior.scale + resid.T @ resid)
        prec = (prec + prec.T) / 2.0
        want = _CoefficientStep(prior, data)(prec)[1]
        got = _pcg_mean(prior, data, prec)
        assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)

    def test_indefinite_precision_raises(self, monkeypatch):
        data = synthetic_design(2, 1, 40, seed=101)
        prior = _diagonal_prior(random_independent_prior(2, 3, seed=102), seed=103, decades=6)
        monkeypatch.setattr(cond, "_KRONECKER_MIN_MP", 0)
        monkeypatch.setattr(IndependentPrior, "precision_mean", property(lambda _: -np.eye(2)))
        with pytest.raises(NotPositiveDefiniteError, match="iteration 0: Sigma"):
            gibbs_run(prior, data, GibbsConfig(n_draws=10, burn_in=0, seed=3))

    def test_iteration_cap_raises(self, monkeypatch):
        data = synthetic_design(2, 1, 40, seed=101)
        prior = _diagonal_prior(random_independent_prior(2, 3, seed=102), seed=103, decades=6)
        monkeypatch.setattr(cond, "_KRONECKER_MIN_MP", 0)
        monkeypatch.setattr(cond, "_PCG_MAX_ITERS", 1)
        with pytest.raises(NotPositiveDefiniteError,
                           match=r"iteration 0: PCG reached relative residual .* in 1 iter"):
            gibbs_run(prior, data, GibbsConfig(n_draws=10, burn_in=0, seed=3))


class TestRouting:
    """gibbs_run draws by PCG only for a diagonal V0^-1 at Mp >= _KRONECKER_MIN_MP."""

    def test_non_diagonal_prior_stays_dense(self):
        data = synthetic_design(10, 3, 80, seed=1320)
        prior = random_independent_prior(10, data.n_regressors, seed=1321)
        assert prior.mean_b.size >= cond._KRONECKER_MIN_MP and prior.cov_inv_diag is None
        assert not isinstance(_beta_draw(prior, data), _KroneckerStep)

    @pytest.mark.parametrize("n_vars,lags,t_raw,pcg", [
        (3, 2, 200, False),  # fit-small-export, Mp = 21
        (7, 4, 400, False),  # criterion 6 and `fit` at M = 7, d = 4, Mp = 203
        (12, 2, 200, True),  # Mp = 300
    ])
    def test_minnesota_route_by_size(self, n_vars, lags, t_raw, pcg):
        data = synthetic_design(n_vars, lags, t_raw, seed=1322)
        prior = minnesota_independent(data, MinnesotaConfig())
        assert isinstance(_beta_draw(prior, data), _KroneckerStep) == pcg


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


class TestPrecisionChol:
    def test_asymmetric_draws_raise_in_predictive_and_ris(self):
        # both read the one checked factor of the precision draws
        data = synthetic_design(2, 1, 60, seed=130)
        prior = minnesota_independent(data, MinnesotaConfig())
        n = MIN_PREDICTIVE_DRAWS
        draws = GibbsDraws(beta_draws=np.zeros((n, prior.mean_b.size)),
                           precision_draws=np.tile([[1.0, 0.5], [0.2, 1.0]], (n, 1, 1)),
                           seed=0, burn_in=0)
        x = np.concatenate([[1.0], data.Y[-1]])
        with pytest.raises(NotPositiveDefiniteError, match="precision draw is not symmetric"):
            predictive_gibbs(draws, x, np.random.default_rng(0))
        with pytest.raises(NotPositiveDefiniteError, match="precision draw is not symmetric"):
            lnml_ris(draws, fit_vb_independent(prior, data), prior, data)

    def test_factor_is_cached_and_read_only(self, toy_draws):
        lw = toy_draws.precision_chol
        assert lw is toy_draws.precision_chol and not lw.flags.writeable
        np.testing.assert_array_equal(lw, np.linalg.cholesky(toy_draws.precision_draws))


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

    @given(n=st.integers(2, 2000), offset=st.floats(-1e4, 1e4), spread=st.floats(0.1, 30.0),
           lift=st.floats(0.0, 60.0), seed=st.integers(0, 2**32 - 1))
    @example(n=1000, offset=9999.0, spread=1.0, lift=60.0, seed=0)  # one weight holds ~all
    # the others' shifted weights underflow to 0: a NaN SE before
    @example(n=3, offset=0.0, spread=1.0, lift=800.0, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_std_error_matches_mpmath(self, n, offset, spread, lift, seed):
        # the SE must not inherit the round-off of the shift max(log_w),
        # which is of lnML's size, 10^3 to 10^4 times the SE
        rng = np.random.default_rng(seed)
        log_w = offset + spread * rng.standard_normal(n)
        log_w[rng.integers(n)] += lift
        # the SE on the exact weights, with 60 digits left after 1 - w_i/total
        # cancels the digits that the weights' range spans
        with mpmath.workdps(60 + int((log_w.max() - log_w.min()) / np.log(10.0))):
            w = [mpmath.exp(mpmath.mpf(x)) for x in log_w]
            total = mpmath.fsum(w)
            d = [mpmath.log(1 - x / total) for x in w]
            mean = mpmath.fsum(d) / n
            spread_d = mpmath.sqrt(mpmath.fsum((x - mean) ** 2 for x in d))
            want = spread_d * mpmath.sqrt(mpmath.mpf(n - 1) / n)
            rel = float(abs((_ris_summary(log_w)["std_error"] - want) / want))
            # a few ulp in each d_i moves the SE by as many ulp times
            # ||d|| / ||d - mean d||, which is large only where the d_i are close
            cond = float(mpmath.sqrt(mpmath.fsum(x**2 for x in d)) / spread_d)
        assert rel <= 8 * np.finfo(float).eps * cond

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

    @pytest.mark.parametrize("shape", [(3, 2, 80), (20, 2, 300)])
    def test_diagonal_prior_quadratic_matches_dense(self, shape, monkeypatch):
        # cov_inv_diag = None forces the dense V0^-1 product in both functions
        n_vars, lags, t_raw = shape
        if n_vars == 20:
            data = perfbench_design(n_vars, lags, t_raw, monkeypatch)
        else:
            data = synthetic_design(n_vars, lags, t_raw, seed=113)
        prior = minnesota_independent(data, MinnesotaConfig())
        assert prior.cov_inv_diag is not None
        dense = copy.copy(prior)
        object.__setattr__(dense, "cov_inv_diag", None)
        vb = fit_vb_independent(prior, data)
        draws = gibbs_run(prior, data, GibbsConfig(n_draws=40, burn_in=10, seed=114))
        assert lnml_ris(draws, vb, prior, data) == lnml_ris(draws, vb, dense, data)
        for beta, prec in zip(draws.beta_draws[:5], draws.precision_draws):
            lw = np.linalg.cholesky(prec)
            assert (_log_joint_independent(prior, data, beta, prec, lw)
                    == _log_joint_independent(dense, data, beta, prec, lw))
