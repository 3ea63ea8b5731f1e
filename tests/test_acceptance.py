"""Acceptance suite.

Each test covers one release criterion and prints a single PASS/FAIL line
with the criterion's tolerance. Do not loosen tolerances here: a red test
means the library, not the test, is wrong.
"""

import sys

import numpy as np
import pytest
from scipy import stats

from conftest import (
    grid_posterior_scalar,
    intercept_only_design,
    random_conjugate_prior,
    synthetic_design,
)
from vbvar.conjugate_exact import (
    fit_exact,
    log_marginal_likelihood,
    predictive_exact,
)
from vbvar.conjugate_vb import (
    fit_vb_conjugate,
    elbo_conjugate,
    kl_exact,
    moment_ratios,
    predictive_vb_conjugate,
)
from vbvar.independent_mcmc import (
    GibbsConfig,
    gibbs_run,
    lnml_ris,
    summarize_draws,
)
from vbvar.independent_vb import (
    VbConfig,
    fit_vb_independent,
    predictive_vb_independent,
)
from vbvar.mvdist import MatricNormal, WishartDist
from vbvar.priors import (
    IndependentPrior,
    MinnesotaConfig,
    minnesota_independent,
)


def _verdict(label, checks):
    """Run the named checks; print one PASS/FAIL line; fail on first error."""
    try:
        for check in checks:
            check()
    except AssertionError:
        print(f"{label}: FAIL", file=sys.stderr)
        raise
    print(f"{label}: PASS", file=sys.stderr)


def _batch_se(series, n_batches=20):
    n = series.size - series.size % n_batches
    means = series[:n].reshape(n_batches, -1).mean(axis=1)
    return means.std(ddof=1) / np.sqrt(n_batches)


def test_criterion_1_kl_constants():
    def small():
        assert kl_exact(3, 13, 196, 5) == pytest.approx(0.189, abs=0.005)

    def medium():
        assert kl_exact(7, 29, 196, 9) == pytest.approx(1.874, abs=0.005)

    _verdict("criterion 1 (KL constants, tol 0.005)", [small, medium])


def test_criterion_2_ratio_tables():
    # reference rows: (M, p, prior dof, coef ratio, mode ratio)
    # the M=20 reference values are only consistent with prior dof 21
    # (dof 22 gives 0.904 / 0.729 / 0.624)
    rows = [
        (3, 13, 5, 0.980, 0.939),
        (7, 29, 9, 0.961, 0.876),
        (20, 81, 21, 0.903, 0.728),
    ]

    def formula_cells():
        for m, p, dof, coef, mode in rows:
            r = moment_ratios(m, p, 196, dof)
            assert r["coef_var_ratio"] == pytest.approx(coef, abs=1e-3)
            assert r["mode_ratio"] == pytest.approx(mode, abs=1e-3)

    def wishart_convention_adjudication():
        # which precision-variance convention is empirical: draw from the
        # two Wishart laws with a common identity posterior scale and
        # compare sample variances of a diagonal entry
        m, p, t, nu0 = 3, 13, 196, 5
        nu, nuq = t + nu0, t + p + nu0
        rng = np.random.default_rng(7)
        n = 1_000_000
        exact_d = stats.wishart.rvs(df=nu, scale=np.eye(m), size=n,
                                    random_state=rng)[:, 0, 0]
        vb_d = stats.wishart.rvs(df=nuq, scale=(nu / nuq) * np.eye(m),
                                 size=n, random_state=rng)[:, 0, 0]

        def var_se(x):
            xc = x - x.mean()
            m2 = (xc ** 2).mean()
            return np.sqrt(((xc ** 4).mean() - m2 ** 2) / x.size)

        va, vb = exact_d.var(ddof=1), vb_d.var(ddof=1)
        ratio = vb / va
        se = ratio * np.hypot(var_se(exact_d) / va, var_se(vb_d) / vb)
        r = moment_ratios(m, p, t, nu0)
        assert abs(ratio - r["prec_var_ratio_wishart"]) < 4 * se
        assert abs(ratio - r["prec_var_ratio_text"]) > 4 * se

    _verdict("criterion 2 (ratio tables tol 0.001; convention vs 1e6-draw "
             "Wishart oracle, 4 MC se)",
             [formula_cells, wishart_convention_adjudication])


def test_criterion_3_identity_suite():
    rng = np.random.default_rng(42)

    def instances():
        for k in range(20):
            m = int(rng.integers(1, 5))
            d = int(rng.integers(1, 3))
            t_raw = int(rng.integers(30, 201))
            p = m * d + 1
            data = synthetic_design(m, d, t_raw, seed=1000 + k)
            prior = random_conjugate_prior(m, p, seed=2000 + k)
            post = fit_exact(prior, data)
            vb = fit_vb_conjugate(prior, data)
            lnml = log_marginal_likelihood(prior, post)
            gap = lnml - elbo_conjugate(prior, vb)
            kl = kl_exact(m, p, data.effective_T, prior.dof)
            assert abs(gap - kl) <= 1e-8 * max(abs(lnml), 1.0)
            np.testing.assert_array_equal(vb.mean_G, post.mean_G)
            np.testing.assert_allclose(
                vb.precision_density().mean(),
                post.dof * np.linalg.inv(post.scale),
                rtol=1e-12,
            )
            x = np.concatenate([[1.0], data.Y[-d:][::-1].reshape(-1)])
            np.testing.assert_array_equal(
                predictive_vb_conjugate(vb, x)["mean"],
                predictive_exact(post, x)["mean"],
            )

    _verdict("criterion 3 (20-instance identity suite, 1e-8 relative)",
             [instances])


def test_criterion_4_toy_oracle(seed_offset):
    rng = np.random.default_rng(4)
    y = 0.4 + 0.8 * rng.standard_normal(6)
    data = intercept_only_design(y)
    prior = IndependentPrior(np.array([0.1]), np.array([[2.0]]),
                             np.array([[0.9]]), 3.0)
    grid = grid_posterior_scalar(prior, data)  # 400 x 400 quadrature
    draws = gibbs_run(prior, data,
                      GibbsConfig(n_draws=50_000, burn_in=5_000, seed=44 + seed_offset))
    s = summarize_draws(draws)
    beta = draws.beta_draws[:, 0]
    h = draws.precision_draws[:, 0, 0]

    def moments():
        assert abs(s["beta_mean"][0] - grid["beta_mean"]) < 4 * s["beta_mean_se"][0]
        assert abs(s["precision_mean"][0, 0] - grid["h_mean"]) < \
            4 * s["precision_mean_se"][0, 0]
        assert abs(beta.var(ddof=1) - grid["beta_var"]) < \
            4 * _batch_se((beta - beta.mean()) ** 2)
        assert abs(h.var(ddof=1) - grid["h_var"]) < \
            4 * _batch_se((h - h.mean()) ** 2)

    def marginal_likelihood():
        vb = fit_vb_independent(prior, data)
        ris = lnml_ris(draws, vb, prior, data)
        assert abs(ris["estimate"] - grid["lnml"]) < 4 * ris["std_error"]

    _verdict("criterion 4 (scalar toy vs 400x400 quadrature, 4 MC se, "
             "50k draws)", [moments, marginal_likelihood])


def test_criterion_5_independent_vb():
    def elbo_trace():
        data = synthetic_design(3, 4, 200, seed=5000)
        prior = minnesota_independent(data, MinnesotaConfig())
        vb = fit_vb_independent(prior, data)
        assert vb.converged and len(vb.elbo_trace) <= 500
        assert np.diff(vb.elbo_trace).min() > -1e-10

    def scalar_matches_conjugate():
        # at M=1 an independent prior built from the conjugate posterior
        # geometry shares the conjugate VB fixed point exactly
        data = synthetic_design(1, 2, 60, seed=500)
        cp = random_conjugate_prior(1, 3, seed=501)
        post = fit_exact(cp, data)
        vbc = fit_vb_conjugate(cp, data)
        s_bar, nu = post.scale[0, 0], post.dof
        cov_target = post.row_cov * s_bar / nu
        g = post.mean_G[:, 0]
        resid = data.Y[:, 0] - data.X @ g
        scale0 = (vbc.scale_q[0, 0] - float(resid @ resid)
                  - float(np.trace(data.X.T @ data.X @ cov_target)))
        assert scale0 > 0
        ip = IndependentPrior(
            mean_b=np.asarray(cp.mean_G[:, 0]),
            cov=np.asarray(cp.row_cov) * s_bar / nu,
            scale=np.array([[scale0]]),
            dof=cp.dof + 3,
        )
        vbi = fit_vb_independent(ip, data,
                                 VbConfig(max_iters=5000, elbo_rel_tol=1e-16))
        assert vbi.dof == vbc.dof_q
        np.testing.assert_allclose(vbi.mean_b, g, rtol=1e-8)
        np.testing.assert_allclose(vbi.cov_b, cov_target, rtol=1e-8)
        np.testing.assert_allclose(vbi.scale_q[0, 0], vbc.scale_q[0, 0],
                                   rtol=1e-8)

    _verdict("criterion 5 (monotone converged ELBO; M=1 conjugate match "
             "1e-8)", [elbo_trace, scalar_matches_conjugate])


def test_criterion_6_cross_method_pattern(seed_offset):
    data = synthetic_design(7, 4, 400, seed=600)
    prior = minnesota_independent(data, MinnesotaConfig())
    vb = fit_vb_independent(prior, data)
    draws = gibbs_run(prior, data,
                      GibbsConfig(n_draws=35_000, burn_in=5_000, seed=601 + seed_offset))
    s = summarize_draws(draws)
    q = vb.precision_density()
    i = np.arange(7)

    def mean_ratios():
        ratio = np.diag(q.mean()) / np.diag(s["precision_mean"])
        assert np.abs(ratio - 1.0).max() < 0.01

    def variance_ratios():
        ratio = np.diag(q.var()) / s["precision_var"][i, i]
        assert ratio.max() < 1.0

    def predictive_variance_ratios():
        x = np.concatenate(([1.0], data.Y[-4:][::-1].reshape(-1)))
        cond_means = np.einsum(
            "j,njm->nm", x,
            draws.beta_draws.reshape(draws.n_kept, 29, 7, order="F"),
        )
        cond_vars = np.einsum(
            "nii->ni", np.linalg.inv(draws.precision_draws))
        gibbs_var = cond_means.var(axis=0, ddof=1) + cond_vars.mean(axis=0)
        ratio = np.diag(predictive_vb_independent(vb, x)["variance"]) / gibbs_var
        assert ratio.min() > 0.97
        assert ratio.max() < 1.0

    _verdict("criterion 6 (M=7 pattern: means within 1%, variance ratios "
             "< 1, predictive ratios in (0.97, 1.0); 35k/5k draws)",
             [mean_ratios, variance_ratios, predictive_variance_ratios])


def test_criterion_7_sampler_moments(seed_offset):
    def wishart():
        rng = np.random.default_rng(71 + seed_offset)
        scale = np.array([[0.5, 0.1], [0.1, 0.3]])
        w = WishartDist(scale, 7.0)
        n = 200_000
        draws = w.sample(rng, n)
        for a in range(2):
            for b in range(2):
                cell = draws[:, a, b]
                se = cell.std(ddof=1) / np.sqrt(n)
                assert abs(cell.mean() - w.mean()[a, b]) < 4 * se
                se_var = np.sqrt((((cell - cell.mean()) ** 2).var(ddof=1)) / n)
                assert abs(cell.var(ddof=1) - w.var()[a, b]) < 4 * se_var

    def matric_normal():
        rng = np.random.default_rng(72 + seed_offset)
        col = np.array([[1.0, 0.4], [0.4, 0.8]])
        row = np.array([[2.0, -0.5, 0.0],
                        [-0.5, 1.0, 0.2],
                        [0.0, 0.2, 0.5]])
        mean = np.arange(6.0).reshape(3, 2)
        mn = MatricNormal(mean, col, row)
        n = 200_000
        target_cov = np.kron(col, row)  # vec by columns
        flat = mn.sample(rng, n).transpose(0, 2, 1).reshape(n, -1)
        se_mean = flat.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(flat.mean(axis=0) - mean.reshape(-1, order="F"))
                      < 4 * se_mean)
        emp_cov = np.cov(flat.T)
        centered = flat - flat.mean(axis=0)
        prods = centered[:, :, None] * centered[:, None, :]
        se_cov = prods.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(emp_cov - target_cov) < 4 * se_cov)

    _verdict("criterion 7 (sampler moments within 4 MC se at 2e5 draws)",
             [wishart, matric_normal])
