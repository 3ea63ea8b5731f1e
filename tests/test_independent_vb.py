"""Coordinate-ascent VB for the independent-prior VAR: ELBO, predictive, modes."""

from dataclasses import replace

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from conftest import (
    intercept_only_design,
    perfbench_design,
    random_independent_prior,
    random_spd,
    synthetic_design,
)
import vbvar.conditional as cond
import vbvar.independent_vb as ivb
from vbvar.independent_mcmc import _log_joint_independent
from vbvar.independent_vb import (
    VbConfig,
    elbo_independent,
    fit_vb_independent,
    modes_exact_iterative,
    modes_vb_iterative,
    predictive_vb_independent,
)
from vbvar.mvdist import NotPositiveDefiniteError, WishartDist
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
    monkeypatch.setattr(cond, "_KRONECKER_MIN_MP", 0 if route == "kronecker" else 10**9)
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

    @pytest.mark.parametrize("max_iters", [1, 2, 3, 5, 50])
    def test_closed_form_matches_trace_at_any_stop(self, max_iters):
        # the closed form needs only the scale update, which ends every
        # iteration, so it holds after an unconverged stop too
        data = synthetic_design(3, 2, 120, seed=5)
        prior = random_independent_prior(3, 7, seed=6)
        vb = fit_vb_independent(prior, data, VbConfig(max_iters=max_iters))
        assert vb.iterations <= max_iters
        assert elbo_independent(prior, vb, data) == \
            pytest.approx(vb.elbo_trace[-1], rel=1e-12)

    @pytest.mark.parametrize("max_iters", [VbConfig.max_iters, 1],
                             ids=["default", "max_iters=1"])
    def test_mc_oracle(self, max_iters):
        # Monte-Carlo ELBO against both the trace and the closed form, also
        # after an unconverged stop
        data = synthetic_design(2, 1, 25, seed=210)
        prior = random_independent_prior(2, 3, seed=211)
        vb = fit_vb_independent(prior, data, VbConfig(max_iters=max_iters))
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


def _rel(got, want):
    want = np.asarray(want, dtype=float)
    return float(np.abs(np.asarray(got, dtype=float) - want).max() / np.abs(want).max())


def _assert_steps_agree(prior, data, prec):
    """Each output of the Kronecker step, and its dense V, against the dense
    step's at P."""
    dense = cond._CoefficientStep(prior, data)
    kron = cond._KroneckerStep(prior, data)
    want, got = dense.moments(prec), kron.moments(prec)
    for name, g, w in zip(("mean", "ln|V|", "Omega", "tr(V0^-1 V)"), got, want):
        assert _rel(g, w) <= ROUTES_RTOL, name
    assert _rel(kron.mean(prec), want[0]) <= ROUTES_RTOL
    cov = kron.cov()
    assert np.array_equal(cov, cov.T)
    assert _rel(cov, dense.cov()) <= ROUTES_RTOL


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

    def test_matches_dense_step_at_mp_820(self, monkeypatch):
        data = perfbench_design(20, 2, 300, monkeypatch)
        prior = minnesota_independent(data, MinnesotaConfig())
        assert prior.mean_b.size == 820 and _route(prior, data) == "kronecker"
        coef = np.linalg.lstsq(data.X, data.Y, rcond=None)[0]
        resid = data.Y - data.X @ coef
        prec = (data.effective_T + prior.dof) * np.linalg.inv(prior.scale + resid.T @ resid)
        _assert_steps_agree(prior, data, (prec + prec.T) / 2.0)
        kron = _fits(prior, data)
        _force_route(monkeypatch, prior, data, "dense")
        _assert_fits_agree(_fits(prior, data), kron)

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


# (M, d, T_raw, lambda2, VB and mode route, Gibbs route)
ROUTES = [
    (12, 2, 200, 1.0, "kronecker", "pcg"),  # Mp = 300
    (12, 2, 200, 0.5, "dense", "pcg"),      # lambda2 < 1: D is not separable
    (3, 2, 200, 1.0, "dense", "dense"),     # Mp = 21, fit-small-export
    (7, 4, 400, 1.0, "dense", "dense"),     # Mp = 203, criterion 6
    (7, 4, 400, 0.5, "dense", "dense"),
]


class TestKroneckerRouting:
    """Both routers of the coefficient conditional: VB and the mode
    iterations take the Kronecker route only for a separable diagonal V0^-1
    at Mp >= _KRONECKER_MIN_MP, and the Gibbs draw takes PCG for any
    diagonal V0^-1 there."""

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
