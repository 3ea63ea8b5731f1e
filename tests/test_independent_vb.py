"""Coordinate-ascent VB for the independent-prior VAR: ELBO, predictive, modes."""

from dataclasses import replace

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats
from scipy.linalg import lapack, solve_triangular

from conftest import (
    LapackWithoutPotri,
    intercept_only_design,
    perfbench_design,
    random_independent_prior,
    random_spd,
    synthetic_design,
)
import vbvar.conditional as cond
import vbvar.independent_vb as ivb
import vbvar.mvdist as mvdist
from vbvar.independent_mcmc import (
    GibbsConfig,
    _log_joint_independent,
    gibbs_run,
    lnml_ris,
)
from vbvar.independent_vb import (
    VbConfig,
    elbo_independent,
    fit_vb_independent,
    modes_exact_iterative,
    modes_vb_iterative,
    predictive_vb_independent,
)
from vbvar.mvdist import NotPositiveDefiniteError, WishartDist, chol_logdet, spd_cholesky
from vbvar.priors import IndependentPrior, MinnesotaConfig, minnesota_independent
from vbvar.vardata import z_block


@pytest.fixture(scope="module")
def scalar_case():
    rng = np.random.default_rng(200)
    y = 0.5 + 0.9 * rng.standard_normal(12)
    data = intercept_only_design(y)
    prior = IndependentPrior(np.array([0.2]), np.array([[1.7]]),
                             np.array([[1.1]]), 3.0)
    return prior, data


def log_posterior(prior, data, beta, precision) -> float:
    """ln p(y, beta, Sigma^-1): the log posterior kernel up to the lnML."""
    prec = np.asarray(precision, dtype=float)
    return _log_joint_independent(prior, data, np.asarray(beta, dtype=float).reshape(-1),
                                  prec, np.linalg.cholesky(prec))


def _route(prior, data):
    step = cond._coefficient_step(prior, data)
    return "kronecker" if isinstance(step, cond._KroneckerStep) else "dense"


def _gibbs_route(prior, data):
    return "pcg" if isinstance(cond._beta_draw(prior, data), cond._KroneckerStep) else "dense"


def _force_route(monkeypatch, prior, data, route):
    """Send VB and the mode iterations down ``route`` whatever Mp is; the
    Kronecker route still needs a separable diagonal V0^-1."""
    threshold = 0 if route == "kronecker" else 10**9
    for name in ("_KRONECKER_MIN_MP", "_SEPARABLE_MIN_MP"):
        monkeypatch.setattr(cond, name, threshold)
    assert _route(prior, data) == route


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

    @pytest.mark.parametrize("value", [2.5, 3.0, True], ids=["fraction", "float", "bool"])
    def test_max_iters_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            VbConfig(max_iters=value)
        assert VbConfig(max_iters=np.int64(3)).max_iters == 3

    def test_non_convergence_flag(self):
        data = synthetic_design(3, 4, 200, seed=206)
        prior = random_independent_prior(3, 13, seed=207)
        vb = fit_vb_independent(prior, data, VbConfig(max_iters=1))
        assert not vb.converged

    @pytest.mark.parametrize("route", ["dense", "kronecker"])
    def test_elbo_decrease_is_not_convergence(self, scalar_case, monkeypatch, route):
        prior, data = scalar_case
        _force_route(monkeypatch, prior, data, route)
        values = iter([-10.0, -10.5, -11.0, -11.5])
        monkeypatch.setattr(ivb, "_elbo", lambda *args: next(values))
        vb = fit_vb_independent(prior, data, VbConfig(max_iters=4))
        assert not vb.converged
        assert vb.elbo_trace == (-10.0, -10.5)

    @pytest.mark.parametrize("route", ["dense", "kronecker"])
    def test_round_off_decrease_still_converges(self, scalar_case, monkeypatch, route):
        prior, data = scalar_case
        _force_route(monkeypatch, prior, data, route)
        values = iter([-10.0, -10.0 - 1e-13])
        monkeypatch.setattr(ivb, "_elbo", lambda *args: next(values))
        assert fit_vb_independent(prior, data, VbConfig(max_iters=2)).converged

    def test_factor_failure_raises(self, monkeypatch):
        data = synthetic_design(2, 1, 40, seed=205)
        prior = random_independent_prior(2, 3, seed=204)
        monkeypatch.setattr(IndependentPrior, "precision_mean", property(lambda _: -np.eye(2)))
        with pytest.raises(NotPositiveDefiniteError, match="VB update"):
            fit_vb_independent(prior, data)


def _assert_closed_form_matches(prior, data, vb):
    """elbo_independent reads the kept state, forms no cov_b and equals the
    trace's last value; both match, to 1e-12 relative, the closed form
    evaluated on the dense cov_b, its Cholesky factor and tr(V0^-1 cov_b)
    as an elementwise sum."""
    closed = elbo_independent(prior, vb, data)
    assert "cov_b" not in vars(vb)
    assert closed == vb.elbo_trace[-1]
    dense = ivb._elbo(prior, data, vb.mean_b, chol_logdet(spd_cholesky(vb.cov_b, "cov_b")),
                      float(np.einsum("ij,ij->", prior.cov_inv, vb.cov_b)),
                      chol_logdet(spd_cholesky(vb.scale_q, "scale_q")), vb.dof)
    assert closed == pytest.approx(dense, rel=1e-12, abs=0.0)


class TestElbo:
    @pytest.mark.parametrize("route", ["dense", "kronecker"])
    def test_closed_form_matches_trace(self, scalar_case, route, monkeypatch):
        prior, data = scalar_case
        _force_route(monkeypatch, prior, data, route)
        vb = fit_vb_independent(prior, data,
                                VbConfig(max_iters=5000, elbo_rel_tol=1e-16))
        _assert_closed_form_matches(prior, data, vb)

    def test_closed_form_matches_trace_multivariate(self):
        # a non-diagonal V0^-1: only the dense route applies
        data = synthetic_design(2, 2, 60, seed=208)
        prior = random_independent_prior(2, 5, seed=209)
        vb = fit_vb_independent(prior, data, VbConfig(elbo_rel_tol=1e-13))
        assert _route(prior, data) == "dense"
        _assert_closed_form_matches(prior, data, vb)

    # the dense rows keep their non-diagonal prior; the Kronecker rows take
    # the Minnesota prior of the same data, and one the benchmark's Mp = 820
    @pytest.mark.parametrize("max_iters,route", [
        *(pytest.param(n, "dense", id=str(n)) for n in (1, 2, 3, 5, 50)),
        *(pytest.param(n, "kronecker", id=f"kronecker-{n}") for n in (1, 2, 3, 5, 50)),
        pytest.param(3, "mp820", id="kronecker-mp820"),
    ])
    def test_closed_form_matches_trace_at_any_stop(self, max_iters, route, monkeypatch):
        # the closed form needs only the scale update, which ends every
        # iteration, so it holds after an unconverged stop too
        if route == "mp820":
            data = perfbench_design(20, 2, 300, monkeypatch)
            prior = minnesota_independent(data, MinnesotaConfig())
            assert prior.mean_b.size == 820 and _route(prior, data) == "kronecker"
        else:
            data = synthetic_design(3, 2, 120, seed=5)
            prior = (random_independent_prior(3, 7, seed=6) if route == "dense"
                     else minnesota_independent(data, MinnesotaConfig()))
            _force_route(monkeypatch, prior, data, route)
        vb = fit_vb_independent(prior, data, VbConfig(max_iters=max_iters))
        assert vb.iterations <= max_iters
        _assert_closed_form_matches(prior, data, vb)

    @pytest.mark.parametrize("max_iters", [VbConfig.max_iters, 1],
                             ids=["default", "max_iters=1"])
    def test_mc_oracle(self, max_iters, seed_offset):
        # Monte-Carlo ELBO against both the trace and the closed form, also
        # after an unconverged stop
        data = synthetic_design(2, 1, 25, seed=210)
        prior = random_independent_prior(2, 3, seed=211)
        vb = fit_vb_independent(prior, data, VbConfig(max_iters=max_iters))
        rng = np.random.default_rng(212 + seed_offset)
        q_prec = vb.precision_density()
        lb = np.linalg.cholesky(vb.cov_b)
        n, m, p = 30_000, vb.n_vars, vb.n_regressors
        betas = vb.mean_b + rng.standard_normal((n, m * p)) @ lb.T
        precs = q_prec.sample(rng, n)
        # each term over the whole stack: ln p(y, beta, Sigma^-1) from the
        # library's likelihood and prior terms, ln q from scipy.stats alone
        lw = np.linalg.cholesky(precs)
        db = betas - prior.mean_b
        log_joint = (
            data.log_likelihood(betas.reshape(n, m, p).transpose(0, 2, 1), precs,
                                chol_logdet(lw))
            - m * p / 2.0 * np.log(2.0 * np.pi) - 0.5 * prior.logdet_cov
            - 0.5 * np.sum(cond._prior_precision_rows(prior, db) * db, axis=1)
            + WishartDist(prior.scale_inv, prior.dof).logpdf_chol(lw)
        )
        log_q = (stats.multivariate_normal.logpdf(betas, vb.mean_b, vb.cov_b)
                 + stats.wishart.logpdf(precs.transpose(1, 2, 0), df=vb.dof,
                                        scale=q_prec.scale))
        vals = log_joint - log_q
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - vb.elbo_trace[-1]) < 4 * se
        assert abs(vals.mean() - elbo_independent(prior, vb, data)) < 4 * se


class TestPredictive:
    def test_mean_and_variance_formulas(self):
        data = synthetic_design(2, 1, 60, seed=215)
        prior = random_independent_prior(2, 3, seed=216)
        vb = fit_vb_independent(prior, data)
        x = np.concatenate([[1.0], data.Y[-1]])
        pred = predictive_vb_independent(vb, x)
        np.testing.assert_allclose(pred["mean"], x @ vb.coef_matrix())
        z = z_block(x, 2)
        np.testing.assert_allclose(pred["normal_cov"], z @ vb.cov_b @ z.T, rtol=1e-12)
        np.testing.assert_allclose(
            pred["variance"],
            pred["normal_cov"] + vb.scale_q / (vb.dof - 2.0),
        )

    def test_zero_leverage(self, scalar_case):
        prior, data = scalar_case
        vb = fit_vb_independent(prior, data)
        pred = predictive_vb_independent(vb, np.array([0.0]))
        assert np.abs(pred["normal_cov"]).max() == 0.0

    def test_dimension_check(self, scalar_case):
        prior, data = scalar_case
        vb = fit_vb_independent(prior, data)
        with pytest.raises(ValueError, match="x_next must have p = 1 entries, got 2"):
            predictive_vb_independent(vb, np.array([1.0, 0.0]))


class TestModes:
    def test_exact_mode_optimizer_oracle(self, scalar_case):
        # 2-D numerical maximization of the log posterior kernel
        prior, data = scalar_case
        mode = modes_exact_iterative(prior, data)
        assert mode["converged"]

        def neg(z):
            return -log_posterior(prior, data, [z[0]], np.array([[np.exp(z[1])]]))

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
        lp = log_posterior(prior, data, mode["beta"], mode["precision"])
        for db, dh in [(1e-3, 0.0), (-1e-3, 0.0), (0.0, 1e-3), (0.0, -1e-3)]:
            assert log_posterior(
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

    @pytest.mark.parametrize("modes", [modes_exact_iterative, modes_vb_iterative])
    def test_factor_failure_raises(self, modes, monkeypatch):
        # reported as VB and Gibbs report theirs, not as a bare LAPACK error
        data = synthetic_design(2, 1, 40, seed=205)
        prior = random_independent_prior(2, 3, seed=204)
        monkeypatch.setattr(IndependentPrior, "precision_mean",
                            property(lambda _: -1e6 * np.eye(2)))
        with pytest.raises(NotPositiveDefiniteError, match="mode iteration 0"):
            modes(prior, data)

    def test_vb_mode_below_exact_precision(self, scalar_case):
        # the VB precision mode shrinks toward zero relative to the exact one
        prior, data = scalar_case
        exact = modes_exact_iterative(prior, data)
        vb = modes_vb_iterative(prior, data)
        assert vb["precision"][0, 0] < exact["precision"][0, 0]


# the Kronecker route equals the dense one to this relative error
ROUTES_RTOL = 1e-12
# the dense state's forms equal those of its dense V to this relative error
DENSE_RTOL = 1e-13


def _rel(got, want):
    want = np.asarray(want, dtype=float)
    return float(np.abs(np.asarray(got, dtype=float) - want).max() / np.abs(want).max())


def _zvz(cov, a):
    """sum_t Z_t V Z_t' over regressor rows with sum_t x_t x_t' = a, from the
    dense V: entries tr(V[m-block, n-block] a)."""
    p = a.shape[0]
    m = cov.shape[0] // p
    return np.einsum("akbl,kl->ab", cov.reshape(m, p, m, p), a)


def _dense_forms(cov, betas, mean, x):
    """ln N(beta_i; mean, V) for the rows of ``betas`` and Z V Z' at the
    regressor row x, from the dense V: its Cholesky factor and a triangular
    solve, and :func:`_zvz`."""
    lower = spd_cholesky(cov, "cov_b")
    z = solve_triangular(lower, (betas - mean).T, lower=True)
    lq = (-mean.size / 2.0 * np.log(2.0 * np.pi) - 0.5 * chol_logdet(lower)
          - 0.5 * np.sum(z * z, axis=0))
    return lq, _zvz(cov, np.outer(x, x))


def _assert_steps_agree(prior, data, prec):
    """The Kronecker step's mean and Omega, and its returned state's ln |V|,
    tr(V0^-1 V) and V, against the dense step's at P; on each route, the
    state's ln q(beta) over a stack of draws and its predictive normal part,
    and the dense step's Omega, against the dense forms of the dense state's
    V, to DENSE_RTOL on the dense route.  Neither step keeps the state."""
    dense = cond._CoefficientStep(prior, data)
    kron = cond._KroneckerStep(prior, data)
    (mean, omega, want), (got_mean, got_omega, got) = dense.moments(prec), kron.moments(prec)
    assert not hasattr(dense, "state") and not hasattr(kron, "state")
    for name, g, w in (("mean", got_mean, mean), ("Omega", got_omega, omega),
                       ("ln|V|", got.logdet, want.logdet),
                       ("tr(V0^-1 V)", got.prior_trace, want.prior_trace)):
        assert _rel(g, w) <= ROUTES_RTOL, name
    assert _rel(kron.mean(prec), mean) <= ROUTES_RTOL
    cov = got.cov()
    assert np.array_equal(cov, cov.T)
    assert _rel(cov, want.cov()) <= ROUTES_RTOL

    # draws of N(mean, c^2 V) for c from 0.5 to 3: at c = 1 alone, a
    # relative error in Delta would leave ln q(beta) nearly unchanged
    rng = np.random.default_rng(2101)
    betas = mean + np.linspace(0.5, 3.0, 8)[:, None] * (
        np.linalg.cholesky(want.cov()) @ rng.standard_normal((mean.size, 8))).T
    x = data.X[-1]
    lq, normal = _dense_forms(want.cov(), betas, mean, x)
    assert _rel(want.logpdf(betas, mean), lq) <= DENSE_RTOL
    assert _rel(want.normal_part(x), normal) <= DENSE_RTOL
    assert _rel(omega, _zvz(want.cov(), dense.xtx)) <= DENSE_RTOL
    assert _rel(got.logpdf(betas, mean), lq) <= ROUTES_RTOL, "ln q(beta)"
    assert _rel(got.normal_part(x), normal) <= ROUTES_RTOL, "Z V Z'"


def _fits(prior, data):
    return (fit_vb_independent(prior, data), modes_exact_iterative(prior, data),
            modes_vb_iterative(prior, data))


def _assert_fits_agree(dense, kron):
    """VB and both mode iterations, from :func:`_fits` on each route, agree to
    ROUTES_RTOL with the same iteration counts."""
    (vb_d, *modes_d), (vb_k, *modes_k) = dense, kron
    assert (vb_k.iterations, vb_k.converged) == (vb_d.iterations, vb_d.converged)
    for name in ("mean_b", "cov_b", "scale_q", "elbo_trace"):
        assert _rel(getattr(vb_k, name), getattr(vb_d, name)) <= ROUTES_RTOL, name
    for d, k in zip(modes_d, modes_k):
        assert (k["iterations"], k["converged"]) == (d["iterations"], d["converged"])
        assert _rel(k["beta"], d["beta"]) <= ROUTES_RTOL
        assert _rel(k["precision"], d["precision"]) <= ROUTES_RTOL


class TestKroneckerStep:
    """The closed-form step for a separable diagonal V0^-1 equals the dense
    Cholesky step, and VB and the mode iterations give the same fits on
    either route."""

    @given(n_vars=st.integers(1, 4), lags=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_dense_step(self, n_vars, lags, seed):
        rng = np.random.default_rng(seed)
        data = synthetic_design(n_vars, lags, 60, seed=int(rng.integers(2**31)))
        p = data.n_regressors
        # row and column effects each span up to 6 decades; Minnesota's D
        # spans 6.5 at the benchmark's Mp = 820
        d = np.outer(10.0 ** rng.uniform(-3, 3, p), 10.0 ** rng.uniform(-3, 3, n_vars))
        prior = IndependentPrior(0.1 * rng.standard_normal(n_vars * p),
                                 np.diag(1.0 / d.flatten(order="F")),
                                 random_spd(n_vars, rng), n_vars + 2.0)
        _assert_steps_agree(prior, data, random_spd(n_vars, rng))
        with pytest.MonkeyPatch.context() as monkeypatch:
            runs = {}
            for route in ("dense", "kronecker"):
                _force_route(monkeypatch, prior, data, route)
                runs[route] = _fits(prior, data)
        _assert_fits_agree(runs["dense"], runs["kronecker"])

    @staticmethod
    def _assert_minnesota_routes_agree(data, mp, monkeypatch):
        """Both steps at the OLS residuals' Sigma^-1, then VB and both mode
        iterations on each route, under the default Minnesota prior."""
        prior = minnesota_independent(data, MinnesotaConfig())
        assert prior.mean_b.size == mp and _route(prior, data) == "kronecker"
        coef = np.linalg.lstsq(data.X, data.Y, rcond=None)[0]
        resid = data.Y - data.X @ coef
        prec = (data.effective_T + prior.dof) * np.linalg.inv(prior.scale + resid.T @ resid)
        _assert_steps_agree(prior, data, (prec + prec.T) / 2.0)
        kron = _fits(prior, data)
        _force_route(monkeypatch, prior, data, "dense")
        _assert_fits_agree(_fits(prior, data), kron)

    def test_matches_dense_step_at_mp_820(self, monkeypatch):
        self._assert_minnesota_routes_agree(perfbench_design(20, 2, 300, monkeypatch), 820,
                                            monkeypatch)

    def test_matches_dense_step_at_mp_203(self, monkeypatch):
        # vb-sweep's M = 7 model, between _SEPARABLE_MIN_MP and _KRONECKER_MIN_MP
        self._assert_minnesota_routes_agree(perfbench_design(7, 4, 200, monkeypatch), 203,
                                            monkeypatch)

    def test_matches_dense_step_with_fewer_observations_than_regressors(self, monkeypatch):
        # T = 60 observations of p = 121 regressors: X'X is singular
        data = synthetic_design(3, 40, 100, seed=1805)
        prior = minnesota_independent(data, MinnesotaConfig())
        assert data.effective_T < data.n_regressors and _route(prior, data) == "kronecker"
        _assert_steps_agree(prior, data, prior.precision_mean)
        kron = _fits(prior, data)
        _force_route(monkeypatch, prior, data, "dense")
        _assert_fits_agree(_fits(prior, data), kron)

    def test_indefinite_precision_raises_in_vb(self, scalar_case, monkeypatch):
        prior, data = scalar_case
        _force_route(monkeypatch, prior, data, "kronecker")
        monkeypatch.setattr(IndependentPrior, "precision_mean", property(lambda _: -np.eye(1)))
        with pytest.raises(NotPositiveDefiniteError, match="^Cholesky failure in VB update$"):
            fit_vb_independent(prior, data)

    @pytest.mark.parametrize("modes", [modes_exact_iterative, modes_vb_iterative])
    def test_indefinite_precision_raises_in_modes(self, modes, scalar_case, monkeypatch):
        prior, data = scalar_case
        _force_route(monkeypatch, prior, data, "kronecker")
        monkeypatch.setattr(IndependentPrior, "precision_mean",
                            property(lambda _: -1e6 * np.eye(1)))
        with pytest.raises(NotPositiveDefiniteError,
                           match="^Cholesky failure in mode iteration 0$"):
            modes(prior, data)

    @pytest.mark.parametrize("s0", [-1e6, np.inf], ids=["indefinite", "infinite"])
    @pytest.mark.parametrize("route", ["dense", "kronecker"])
    def test_bad_scale_raises_in_vb_and_modes(self, route, s0, scalar_case, monkeypatch):
        # the coefficient step succeeds; the Sigma^-1 step on S0 + E'E (+ Omega)
        # must not, and potrf alone passes an infinite S0
        prior, data = scalar_case
        _force_route(monkeypatch, prior, data, route)
        monkeypatch.setattr(IndependentPrior, "scale", property(lambda _: s0 * np.eye(1)),
                            raising=False)
        with pytest.raises(NotPositiveDefiniteError, match="^Cholesky failure in VB update$"):
            fit_vb_independent(prior, data)
        for modes in (modes_exact_iterative, modes_vb_iterative):
            with pytest.raises(NotPositiveDefiniteError,
                               match="^Cholesky failure in mode iteration 0$"):
                modes(prior, data)

    @pytest.mark.parametrize("fit", [fit_vb_independent, modes_exact_iterative,
                                     modes_vb_iterative])
    def test_calls_no_potri(self, fit, monkeypatch):
        # the Sigma^-1 step is one potrf and one trtri, as in the Gibbs sweep:
        # potri's lauum wakes scipy's BLAS thread pool even at M = 20
        data = synthetic_design(3, 2, 200, seed=2110)
        prior = minnesota_independent(data, MinnesotaConfig())
        _force_route(monkeypatch, prior, data, "kronecker")
        assert not hasattr(ivb, "lapack")
        for module in (cond, mvdist):
            monkeypatch.setattr(module, "lapack", LapackWithoutPotri())
        result = fit(prior, data)
        assert result.converged if fit is fit_vb_independent else result["converged"]

    @pytest.mark.parametrize("call", ["fit_vb_independent", "modes_vb_iterative", "lnml_ris"])
    def test_dense_route_calls_no_potri(self, call, monkeypatch):
        # the dense state is L and trtri(L): V is not formed by potri, and
        # ln q(beta) whitens by L' with no factor of V
        data = synthetic_design(3, 2, 200, seed=2110)
        prior = minnesota_independent(data, MinnesotaConfig())
        _force_route(monkeypatch, prior, data, "dense")
        if call == "lnml_ris":
            vb = fit_vb_independent(prior, data)
            draws = gibbs_run(prior, data, GibbsConfig(n_draws=120, burn_in=20, seed=2111))
            # q(Sigma^-1)'s M x M scale inverse keeps its potri; it is not
            # the coefficient state's, so it is taken before the patch
            q_prec = vb.precision_density()
            monkeypatch.setattr(ivb.IndependentVbPosterior, "precision_density",
                                lambda _: q_prec)
        for module in (cond, mvdist):
            monkeypatch.setattr(module, "lapack", LapackWithoutPotri())
        if call == "lnml_ris":
            assert np.isfinite(lnml_ris(draws, vb, prior, data)["std_error"])
        elif call == "fit_vb_independent":
            assert fit_vb_independent(prior, data).converged
        else:
            assert modes_vb_iterative(prior, data)["converged"]


def _fit_keeping_step(prior, data):
    """(VB fit, the coefficient step it ran)."""
    steps = []

    def keep(*args):
        steps.append(cond._coefficient_step(*args))
        return steps[-1]

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(ivb, "_coefficient_step", keep)
        vb = fit_vb_independent(prior, data)
    return vb, steps[0]


class TestPosteriorState:
    """The VB posterior carries the state of V that the last coefficient
    step returned, not the dense cov_b: cov_b is formed on first access, once
    and read-only, and no later fit or step changes a fitted posterior."""

    @pytest.fixture(params=["dense", "kronecker"])
    def case(self, request, monkeypatch):
        # Mp = 21, fit-small-export's shape; the Minnesota prior is
        # separable, so either route applies
        data = synthetic_design(3, 2, 200, seed=2110)
        prior = minnesota_independent(data, MinnesotaConfig())
        _force_route(monkeypatch, prior, data, request.param)
        draws = gibbs_run(prior, data, GibbsConfig(n_draws=120, burn_in=20, seed=2111))
        return prior, data, draws

    def test_cov_b_is_formed_once_and_read_only(self, case):
        prior, data, _ = case
        vb = fit_vb_independent(prior, data)
        # what fit_vb_independent formed after its loop before cov_b was lazy
        eager = vb.coef_state.cov()
        cov = vb.cov_b
        assert vb.cov_b is cov and not cov.flags.writeable
        with pytest.raises(ValueError):
            cov[0, 0] = 1.0
        assert cov.dtype == eager.dtype and cov.tobytes() == eager.tobytes()

    def test_later_fits_and_steps_leave_it_alone(self, case):
        prior, data, draws = case
        vb, step = _fit_keeping_step(prior, data)
        x = data.X[-1]
        pred, ris = predictive_vb_independent(vb, x), lnml_ris(draws, vb, prior, data)
        fit_vb_independent(replace(prior, dof=prior.dof + 3.0), data)
        step.moments(2.0 * prior.precision_mean)
        cond._coefficient_step(prior, data).moments(0.5 * prior.precision_mean)
        again = predictive_vb_independent(vb, x)
        assert all(np.array_equal(again[k], pred[k]) for k in pred)
        assert lnml_ris(draws, vb, prior, data) == ris
        # formed only now, after the other calls, it is the V of the fit
        fresh = fit_vb_independent(prior, data)
        assert vb.cov_b.tobytes() == fresh.cov_b.tobytes()

    def test_lnml_ris_factors_no_mp_matrix(self, case, monkeypatch):
        # every Cholesky factorisation lnml_ris runs, through scipy, numpy or
        # raw LAPACK, is of an M x M matrix or a stack of them
        prior, data, draws = case
        vb = fit_vb_independent(prior, data)
        sizes = []

        def recorded(factor):
            def call(a, *args, **kwargs):
                sizes.append(np.shape(a)[-1])
                return factor(a, *args, **kwargs)
            return call

        class RecordingLapack:
            dpotrf = staticmethod(recorded(lapack.dpotrf))

            def __getattr__(self, name):
                return getattr(lapack, name)

        for module in (cond, mvdist):
            monkeypatch.setattr(module, "lapack", RecordingLapack())
        monkeypatch.setattr(mvdist, "cholesky", recorded(mvdist.cholesky))
        monkeypatch.setattr(np.linalg, "cholesky", recorded(np.linalg.cholesky))
        lnml_ris(draws, vb, prior, data)
        assert sizes and max(sizes) == data.n_vars

    @pytest.mark.parametrize("fit", [fit_vb_independent, modes_vb_iterative])
    def test_loop_holds_one_state(self, fit):
        # the dense state is two Mp x Mp arrays (L and L^-1) and the step
        # keeps a third, its precision buffer; a loop that keeps the last
        # state through the next step holds two more at its peak
        data = synthetic_design(7, 4, 400, seed=2901)
        prior = minnesota_independent(data, MinnesotaConfig(cross_tightness=0.5))
        mp = prior.mean_b.size
        assert mp == 203 and _route(prior, data) == "dense"
        tracemalloc.start()
        try:
            fit(prior, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * mp * mp * 8

    def test_dense_consumers_match_cov_b(self):
        # lnml_ris and the predictive at Mp = 21 agree with the explicit forms
        # on cov_b, spd_cholesky and a triangular solve for ln q(beta) and
        # _zvz for Z Vq Z', to DENSE_RTOL: the state holds the factor of
        # V^-1, not V
        data = synthetic_design(3, 2, 200, seed=2112)
        prior = minnesota_independent(data, MinnesotaConfig())
        assert prior.mean_b.size == 21 and _route(prior, data) == "dense"
        vb = fit_vb_independent(prior, data)
        draws = gibbs_run(prior, data, GibbsConfig(n_draws=200, burn_in=50, seed=2113))
        x = data.X[-1]
        lq, normal = _dense_forms(vb.cov_b, draws.beta_draws, vb.mean_b, x)
        assert _rel(vb.coef_state.logpdf(draws.beta_draws, vb.mean_b), lq) <= DENSE_RTOL
        assert _rel(predictive_vb_independent(vb, x)["normal_cov"], normal) <= DENSE_RTOL

        class Explicit:
            logpdf = staticmethod(lambda betas, mean: lq)
            normal_part = staticmethod(lambda row: normal)

        explicit = replace(vb, coef_state=Explicit())
        ris, want = lnml_ris(draws, vb, prior, data), lnml_ris(draws, explicit, prior, data)
        assert ris["degenerate_weights"] == want["degenerate_weights"]
        for key in ("estimate", "std_error", "ess"):
            assert _rel(ris[key], want[key]) <= DENSE_RTOL, key
        pred, want = predictive_vb_independent(vb, x), predictive_vb_independent(explicit, x)
        assert all(_rel(pred[k], want[k]) <= DENSE_RTOL for k in pred)


# (M, d, T_raw, lambda2, VB and mode route, Gibbs route)
ROUTES = [
    (12, 2, 200, 1.0, "kronecker", "pcg"),  # Mp = 300
    (12, 2, 200, 0.5, "dense", "pcg"),      # lambda2 < 1: D is not separable
    (3, 2, 200, 1.0, "dense", "dense"),     # Mp = 21, fit-small-export
    (4, 5, 400, 1.0, "dense", "dense"),     # Mp = 84, below _SEPARABLE_MIN_MP
    (4, 6, 400, 1.0, "kronecker", "dense"),  # Mp = 100, _SEPARABLE_MIN_MP
    (7, 4, 400, 1.0, "kronecker", "dense"),  # Mp = 203, criterion 6, vb-sweep
    (7, 4, 400, 0.5, "dense", "dense"),
]


class TestKroneckerRouting:
    """Both routers of the coefficient conditional: VB and the mode
    iterations take the Kronecker route only for a separable diagonal V0^-1
    at Mp >= _SEPARABLE_MIN_MP, and the Gibbs draw takes PCG for any
    diagonal V0^-1 at Mp >= _KRONECKER_MIN_MP."""

    # the ids name the VB route only
    @pytest.mark.parametrize("n_vars,lags,t_raw,cross,route,gibbs", ROUTES,
                             ids=["-".join(map(str, row[:5])) for row in ROUTES])
    def test_minnesota_route(self, n_vars, lags, t_raw, cross, route, gibbs):
        data = synthetic_design(n_vars, lags, t_raw, seed=1801)
        prior = minnesota_independent(data, MinnesotaConfig(cross_tightness=cross))
        assert (_route(prior, data), _gibbs_route(prior, data)) == (route, gibbs)

    def test_non_diagonal_prior_stays_dense(self):
        data = synthetic_design(10, 3, 80, seed=1802)
        prior = random_independent_prior(10, data.n_regressors, seed=1803)
        assert prior.mean_b.size >= cond._KRONECKER_MIN_MP and prior.cov_inv_diag is None
        assert (_route(prior, data), _gibbs_route(prior, data)) == ("dense", "dense")

    def test_separable_tolerance_sits_in_the_gap(self):
        # Minnesota with lambda2 = 1 fits to round-off over the
        # hyperparameter grid; lambda2 = 0.999 misses by far more than the
        # tolerance
        worst = 0.0
        for n_vars, lags in ((3, 40), (11, 3), (20, 2)):
            data = synthetic_design(n_vars, lags, 300, seed=1804)
            assert 363 <= n_vars * data.n_regressors <= 820
            for l1, l3, l4 in itertools.product((0.05, 0.2, 1.0), (0.0, 1.0, 2.0, 3.0),
                                                (1.0, 100.0, 1e4)):
                cfg = MinnesotaConfig(overall_tightness=l1, lag_decay=l3, intercept_scale=l4)
                prior = minnesota_independent(data, cfg)
                worst = max(worst, cond._KroneckerStep(prior, data).separable_error)
            near = minnesota_independent(data, MinnesotaConfig(cross_tightness=0.999))
            assert cond._KroneckerStep(near, data).separable_error >= 1e-3
        assert worst <= cond._SEPARABLE_RTOL / 10
