"""Closed-form VB for the conjugate VAR: ELBO, KL, predictive, modes, ratios."""

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.special import gammaln

from conftest import intercept_only_design, random_conjugate_prior, synthetic_design
from vbvar import conjugate_vb as cvb
from vbvar.conjugate_exact import fit_exact, joint_mode, log_marginal_likelihood
from vbvar.conjugate_vb import (
    _kl_closed,
    _kl_series,
    _log_joint_conjugate,
    _mc_elbo_terms,
    elbo_conjugate,
    fit_vb_conjugate,
    kl_exact,
    kl_stirling,
    mc_elbo_estimate,
    moment_ratios,
    predictive_vb_conjugate,
    vb_modes,
)
from vbvar.mvdist import UndefinedMomentError
from vbvar.priors import ConjugatePrior, MinnesotaConfig, minnesota_conjugate


class TestFitVb:
    def test_shares_exact_mean_and_row_cov(self):
        data = synthetic_design(3, 1, 60, seed=0)
        prior = random_conjugate_prior(3, 4, seed=1)
        post = fit_exact(prior, data)
        vb = fit_vb_conjugate(prior, data)
        np.testing.assert_array_equal(vb.mean_G, post.mean_G)
        np.testing.assert_array_equal(vb.row_cov, post.row_cov)

    def test_dof_gap_is_p(self):
        data = synthetic_design(2, 2, 50, seed=2)
        vb = fit_vb_conjugate(random_conjugate_prior(2, 5, seed=3), data)
        assert vb.dof_q - vb.dof == vb.n_regressors

    def test_scale_ratio(self):
        data = synthetic_design(2, 1, 50, seed=4)
        vb = fit_vb_conjugate(random_conjugate_prior(2, 3, seed=5), data)
        np.testing.assert_allclose(vb.scale_q / vb.scale, vb.dof_q / vb.dof)

    def test_coef_variance_ratio_elementwise(self):
        # Var_q(vec Gamma) / Var_p(vec Gamma) = (dof - M - 1) / dof
        from vbvar.conjugate_exact import marginal_coefficients

        data = synthetic_design(2, 1, 50, seed=8)
        prior = random_conjugate_prior(2, 3, seed=9)
        post = fit_exact(prior, data)
        vb = fit_vb_conjugate(prior, data)
        var_p = marginal_coefficients(post).vec_variance()
        var_q = np.kron(vb.coef_density().col_cov, vb.row_cov)
        np.testing.assert_allclose(
            var_q / var_p, (post.dof - 2 - 1) / post.dof, rtol=1e-10
        )


class TestKlExact:
    def test_reference_small(self):
        assert kl_exact(3, 13, 196, 5) == pytest.approx(0.189, abs=0.005)

    def test_reference_medium(self):
        assert kl_exact(7, 29, 196, 9) == pytest.approx(1.874, abs=0.005)

    def test_mc_divergence_oracle(self, seed_offset):
        # scalar instance: KL(q || p) estimated by averaging
        # ln q(theta) - [ln p(y, theta) - lnML] over q-draws
        rng = np.random.default_rng(10 + seed_offset)
        y = 0.4 + 0.8 * rng.standard_normal(3)
        data = intercept_only_design(y)
        prior = ConjugatePrior(np.array([[0.0]]), np.array([[1.5]]),
                               np.array([[0.9]]), 1.0)
        post = fit_exact(prior, data)
        vb = fit_vb_conjugate(prior, data)
        lnml = log_marginal_likelihood(prior, post)
        mc = mc_elbo_estimate(prior, vb, data, 40_000, rng)
        assert abs(lnml - mc["estimate"] - kl_exact(1, 1, 3, 1.0)) < 4 * mc["std_error"]

    def test_positive_and_data_free(self):
        for m, p, t, nu0 in [(1, 1, 5, 1.0), (2, 3, 30, 4.0), (4, 9, 120, 6.0)]:
            assert kl_exact(m, p, t, nu0) > 0

    def test_monotone_in_t_and_prior_dof(self):
        vals_t = [kl_exact(3, 13, t, 5) for t in (100, 300, 1000, 5000)]
        assert all(a > b for a, b in zip(vals_t, vals_t[1:]))
        vals_nu = [kl_exact(3, 13, 196, nu0) for nu0 in (5, 50, 500, 5000)]
        assert all(a > b for a, b in zip(vals_nu, vals_nu[1:]))

    def test_increasing_in_p(self):
        vals = [kl_exact(3, p, 196, 5) for p in (1, 5, 13, 25)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("kl", [kl_exact, kl_stirling])
    @pytest.mark.parametrize("args", [(5, 3, 0, 2.0), (3, -1, 100, 5), (3, 13, -1, 5)],
                             ids=["dof", "negative_p", "negative_T"])
    def test_domain_error(self, kl, args):
        with pytest.raises(ValueError):
            kl(*args)


class TestKlStirling:
    def test_close_to_exact(self):
        exact = kl_exact(3, 13, 196, 5)
        approx = kl_stirling(3, 13, 196, 5)
        assert abs(approx - exact) / exact < 0.05

    def test_ratio_approaches_one(self):
        ratios = [kl_stirling(3, 13, t, 5) / kl_exact(3, 13, t, 5)
                  for t in (10**3, 10**4, 10**5)]
        gaps = [abs(r - 1.0) for r in ratios]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3

    def test_positivity_grid(self):
        for m in (1, 2, 5):
            for p in (1, 4, 11):
                for t in (30, 196, 1000):
                    assert kl_stirling(m, p, t, m + 2.0) > 0


def _stirling(log):
    """Stirling's ln Gamma(z) without 1/2 ln 2pi, with the given ln."""
    return lambda z: (z - 0.5) * log(z) - z


def _kl_mpmath(m, p, t, nu0, log_gamma):
    """The conjugate KL closed form in 80-digit mpmath, ln Gamma by ``log_gamma``."""
    with mpmath.workdps(80):
        nub = mpmath.mpf(t) + mpmath.mpf(nu0)
        nuq = nub + p
        total = (-m * p * (mpmath.log(2) + 1) / 2
                 + m * (nuq * mpmath.log(nuq) - nub * mpmath.log(nub)) / 2)
        for j in range(1, m + 1):
            a = mpmath.mpf(1 - j) / 2
            total -= log_gamma(nuq / 2 + a) - log_gamma(nub / 2 + a)
        return total


def _on_series_branch(m, p, t, nu0):
    nub = t + nu0
    return max(p, m) / nub <= cvb._SERIES_MAX_X and nub >= cvb._SERIES_MIN_DOF


# (M, p, nu0) from the smallest model to Mp = 6440, and p << M, where the
# closed form loses the most digits
KL_GRID = [(1, 1, 1.5), (1, 2, 2.5), (2, 5, 3.5), (3, 7, 4.5), (3, 13, 5.0), (5, 11, 6.5),
           (7, 29, 9.0), (10, 21, 11.5), (10, 41, 11.5), (20, 41, 22.0), (20, 81, 21.5),
           (40, 161, 41.5), (40, 1, 41.5)]


def _grid_obs(m, p, nu0):
    """T from M (where max(p, M)/nub >= 0.4) up to 1e12, with T on each side of
    the series' bound on max(p, M)/nub and of its floor on nub."""
    ts = {m, 100, 196, 10**3, 10**4, 10**6, 10**9, 10**12}
    for nub in (max(p, m) / cvb._SERIES_MAX_X, cvb._SERIES_MIN_DOF):
        edge = int(np.ceil(nub - nu0))
        ts.update({edge - 1, edge})
    return sorted(t for t in ts if t >= 0 and t + nu0 > m - 1)


class TestKlAccuracy:
    @pytest.mark.parametrize("m,p,nu0", KL_GRID, ids=[f"M{m}p{p}" for m, p, _ in KL_GRID])
    @pytest.mark.parametrize("kl,log_gamma", [(kl_exact, mpmath.loggamma),
                                              (kl_stirling, _stirling(mpmath.log))],
                             ids=["exact", "stirling"])
    def test_mpmath_oracle(self, kl, log_gamma, m, p, nu0):
        # the closed form alone lost every digit by T = 1e12, with the wrong sign
        branches = set()
        for t in _grid_obs(m, p, nu0):
            series = _on_series_branch(m, p, t, nu0)
            branches.add(series)
            want = _kl_mpmath(m, p, t, nu0, log_gamma)
            rel = float(abs((kl(m, p, t, nu0) - want) / want))
            assert rel <= (5e-16 if series else 5e-13), (t, rel)
        assert branches == {True, False}

    @given(st.integers(1, 40).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, 4 * m + 1))),
           st.floats(0.3, 0.4))
    @settings(max_examples=200, deadline=None)
    def test_closed_and_series_agree_near_switch(self, dims, x):
        # x = max(p, M)/nub on both sides of the switch, _SERIES_MAX_X = 0.35
        m, p = dims
        nub = max(p, m) / x
        assume(nub >= cvb._SERIES_MIN_DOF)
        for log_gamma, bern in [(gammaln, cvb._BERNOULLI),
                                (_stirling(np.log), cvb._BERNOULLI[:2])]:
            series = _kl_series(m, p, nub, bern)
            assert _kl_closed(m, p, nub, log_gamma) == pytest.approx(series, rel=2e-12)

    def test_stirling_closed_branch_matches_per_j_loop(self):
        def per_j_loop(m, p, t, nu0):
            # kl_stirling's former evaluation, the same expression rearranged
            nub, nuq = t + nu0, t + p + nu0
            total = 0.0
            for j in range(1, m + 1):
                total += ((nub - j) * np.log(nub - j + 1) + nuq * np.log(nuq)
                          - (nuq - j) * np.log(nuq - j + 1) - nub * np.log(nub))
            return total / 2.0

        for m, p, nu0 in KL_GRID:
            for t in (m, 3 * max(p, m) // 2,
                      int(np.ceil(max(p, m) / cvb._SERIES_MAX_X - nu0)) - 1):
                assert not _on_series_branch(m, p, t, nu0)
                assert kl_stirling(m, p, t, nu0) == pytest.approx(per_j_loop(m, p, t, nu0),
                                                                  rel=1e-12)


class TestElbo:
    def test_identity_with_lnml(self):
        data = synthetic_design(2, 2, 80, seed=11)
        prior = random_conjugate_prior(2, 5, seed=12)
        post = fit_exact(prior, data)
        vb = fit_vb_conjugate(prior, data)
        lnml = log_marginal_likelihood(prior, post)
        elbo = elbo_conjugate(prior, vb)
        kl = kl_exact(2, 5, data.effective_T, prior.dof)
        assert abs(lnml - elbo - kl) <= 1e-8 * max(abs(lnml), 1.0)

    def test_lower_bound(self):
        data = synthetic_design(3, 1, 60, seed=13)
        prior = random_conjugate_prior(3, 4, seed=14)
        assert elbo_conjugate(prior, fit_vb_conjugate(prior, data)) < \
            log_marginal_likelihood(prior, fit_exact(prior, data))

    def test_matches_mc_estimate(self, seed_offset):
        data = synthetic_design(2, 1, 30, seed=15)
        prior = random_conjugate_prior(2, 3, seed=16)
        vb = fit_vb_conjugate(prior, data)
        mc = mc_elbo_estimate(prior, vb, data, 8000, np.random.default_rng(17 + seed_offset))
        assert abs(mc["estimate"] - elbo_conjugate(prior, vb)) < 4 * mc["std_error"]

    def test_mc_deterministic(self):
        data = synthetic_design(1, 1, 20, seed=18)
        prior = random_conjugate_prior(1, 2, seed=19)
        vb = fit_vb_conjugate(prior, data)
        a = mc_elbo_estimate(prior, vb, data, 1000, np.random.default_rng(20))
        b = mc_elbo_estimate(prior, vb, data, 1000, np.random.default_rng(20))
        assert a == b

    def test_mc_se_clt_rate(self, seed_offset):
        data = synthetic_design(1, 1, 20, seed=21)
        prior = random_conjugate_prior(1, 2, seed=22)
        vb = fit_vb_conjugate(prior, data)
        small = mc_elbo_estimate(prior, vb, data, 2000, np.random.default_rng(23 + seed_offset))
        big = mc_elbo_estimate(prior, vb, data, 32000, np.random.default_rng(24 + seed_offset))
        assert big["std_error"] == pytest.approx(small["std_error"] / 4.0, rel=0.2)

    @pytest.mark.parametrize("n_vars", [1, 3])
    @pytest.mark.parametrize("kind", ["random", "minnesota"])
    def test_mc_batched_matches_per_draw(self, n_vars, kind):
        data = synthetic_design(n_vars, 2, 60, seed=40 + n_vars)
        if kind == "random":
            prior = random_conjugate_prior(n_vars, data.X.shape[1], seed=41)
        else:
            prior = minnesota_conjugate(data, MinnesotaConfig())
        vb = fit_vb_conjugate(prior, data)
        out = mc_elbo_estimate(prior, vb, data, 1000, np.random.default_rng(42))

        # per-draw reference with the same stream: one density per draw
        rng = np.random.default_rng(42)
        q_coef, q_prec = vb.coef_density(), vb.precision_density()
        coefs, precs = q_coef.sample(rng, 1000), q_prec.sample(rng, 1000)
        want = np.empty(1000)
        for i in range(1000):
            want[i] = (_log_joint_conjugate(prior, data, coefs[i], precs[i],
                                            np.linalg.cholesky(precs[i]))
                       - q_coef.logpdf(coefs[i]) - q_prec.logpdf(precs[i]))
        got = _mc_elbo_terms(prior, data, q_coef, q_prec, coefs, precs)
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert out["estimate"] == pytest.approx(want.mean(), rel=1e-12)
        assert out["std_error"] == pytest.approx(want.std(ddof=1) / np.sqrt(1000), rel=1e-12)

    def test_mc_min_draws(self):
        data = synthetic_design(1, 1, 20, seed=25)
        prior = random_conjugate_prior(1, 2, seed=26)
        vb = fit_vb_conjugate(prior, data)
        with pytest.raises(ValueError):
            mc_elbo_estimate(prior, vb, data, 500, np.random.default_rng(0))


class TestPredictiveVb:
    def test_mean_equality_and_variance_ratio(self):
        from vbvar.conjugate_exact import predictive_exact

        data = synthetic_design(2, 1, 80, seed=27)
        prior = random_conjugate_prior(2, 3, seed=28)
        post = fit_exact(prior, data)
        vb = fit_vb_conjugate(prior, data)
        x = np.concatenate([[1.0], data.Y[-1]])
        pe = predictive_exact(post, x)
        pv = predictive_vb_conjugate(vb, x)
        np.testing.assert_allclose(pv["mean"], pe["mean"], atol=1e-14)
        c = float(x @ post.row_cov @ x)
        want = ((post.dof - 2) / post.dof
                * (vb.dof_q / (vb.dof_q - 2) + c) / (1 + c))
        np.testing.assert_allclose(pv["variance"] / pe["variance"], want, rtol=1e-10)

    def test_zero_leverage_sampling(self):
        # x with zero leverage: the normal component degenerates to zero
        vbp = fit_vb_conjugate(random_conjugate_prior(1, 2, seed=32),
                               synthetic_design(1, 1, 40, seed=33))
        x = np.zeros(2)
        pred = predictive_vb_conjugate(vbp, x)
        assert np.abs(pred["normal_cov"]).max() == 0.0

    def test_dimension_check(self):
        vbp = fit_vb_conjugate(random_conjugate_prior(1, 2, seed=32),
                               synthetic_design(1, 1, 40, seed=33))
        with pytest.raises(ValueError, match="x_next must have p = 2 entries, got 3"):
            predictive_vb_conjugate(vbp, np.ones(3))


class TestVbModes:
    def test_mode_ratio(self):
        data = synthetic_design(2, 1, 60, seed=35)
        prior = random_conjugate_prior(2, 3, seed=36)
        post = fit_exact(prior, data)
        vb = fit_vb_conjugate(prior, data)
        ratio = vb_modes(vb)["precision"] / joint_mode(post)["precision"]
        np.testing.assert_allclose(ratio, vb.dof / vb.dof_q, rtol=1e-10)

    def test_scalar_optimizer_oracle(self):
        # numerically maximize the q(Sigma^-1) Wishart density at M = 1
        data = synthetic_design(1, 1, 40, seed=37)
        vb = fit_vb_conjugate(random_conjugate_prior(1, 2, seed=38), data)
        q = vb.precision_density()
        res = optimize.minimize_scalar(lambda h: -q.logpdf([[h]]),
                                       bounds=(1e-6, 100.0), method="bounded",
                                       options={"xatol": 1e-10})
        assert res.x == pytest.approx(vb_modes(vb)["precision"][0, 0], rel=1e-6)

    def test_homogeneity(self):
        data = synthetic_design(2, 1, 60, seed=39)
        vb = fit_vb_conjugate(random_conjugate_prior(2, 3, seed=40), data)
        from dataclasses import replace

        scaled = replace(vb, scale=2.5 * np.asarray(vb.scale))
        np.testing.assert_allclose(vb_modes(scaled)["precision"],
                                   vb_modes(vb)["precision"] / 2.5)


class TestMomentRatios:
    def test_small(self):
        r = moment_ratios(3, 13, 196, 5)
        assert r["coef_var_ratio"] == pytest.approx(0.980, abs=1e-3)
        assert r["mode_ratio"] == pytest.approx(0.939, abs=1e-3)
        assert r["prec_var_ratio_text"] == pytest.approx(0.930, abs=1e-3)

    def test_medium(self):
        r = moment_ratios(7, 29, 196, 9)
        assert r["coef_var_ratio"] == pytest.approx(0.961, abs=1e-3)
        assert r["mode_ratio"] == pytest.approx(0.876, abs=1e-3)
        assert r["prec_var_ratio_text"] == pytest.approx(0.853, abs=1e-3)

    def test_large(self):
        # the reference values for the M=20 row are only reproducible with
        # prior dof M + 1 = 21 (dof 22 gives 0.904 / 0.729 / 0.624)
        r = moment_ratios(20, 81, 196, 21)
        assert r["coef_var_ratio"] == pytest.approx(0.903, abs=1e-3)
        assert r["mode_ratio"] == pytest.approx(0.728, abs=1e-3)
        assert r["prec_var_ratio_text"] == pytest.approx(0.622, abs=1e-3)

    def test_pred_var_ratio_band(self):
        # in the reference regimes (c <= 1, T >= 100) the predictive-variance
        # ratio stays within (0.95, 1.0)
        for m, p in [(3, 13), (7, 29), (20, 81)]:
            for c in (0.0, 0.3, 1.0):
                r = moment_ratios(m, p, 196, m + 2, c=c)
                assert 0.95 < r["pred_var_ratio"] < 1.0

    def test_dof_bounds(self):
        with pytest.raises(UndefinedMomentError):
            moment_ratios(5, 2, 1, 2.0)

    @pytest.mark.parametrize("args", [(3, -1, 196, 5), (3, 13, -2, 10)],
                             ids=["negative_p", "negative_T"])
    def test_negative_p_or_t(self, args):
        # (3, -1, 196, 5) once gave prec_var_ratio_wishart and mode_ratio 1.005
        with pytest.raises(ValueError, match="nonnegative"):
            moment_ratios(*args)


@pytest.mark.parametrize("m", [0, -2])
@pytest.mark.parametrize("fn", [kl_exact, kl_stirling, moment_ratios],
                         ids=lambda fn: fn.__name__)
def test_no_variables(fn, m):
    # scipy's multigammaln does not check M: unchecked, kl_exact gave 0 at M = 0
    # and -1.83 at M = -2, and moment_ratios(0, ...) gave a ratio row
    with pytest.raises(ValueError, match=f"n_vars must be >= 1, got {m}"):
        fn(m, 1, 10, 2.0)


@pytest.mark.parametrize("nu0", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("fn", [kl_exact, kl_stirling, moment_ratios],
                         ids=lambda fn: fn.__name__)
def test_non_finite_prior_dof(fn, nu0):
    # nan and inf once gave nan KL values and ratios
    with pytest.raises(ValueError, match="prior_dof must be finite"):
        fn(3, 13, 196, nu0)
