"""Minnesota-style prior construction for both model families."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_independent_prior, synthetic_design
from vbvar.conjugate_exact import fit_exact
from vbvar.priors import (
    ConjugatePrior,
    IndependentPrior,
    MinnesotaConfig,
    _ar_residual_variances,
    minnesota_conjugate,
    minnesota_independent,
)
from vbvar.vardata import InsufficientObservationsError


class TestMinnesotaConfig:
    def test_bounds(self):
        with pytest.raises(ValueError):
            MinnesotaConfig(overall_tightness=0.0)
        with pytest.raises(ValueError):
            MinnesotaConfig(cross_tightness=1.5)
        with pytest.raises(ValueError):
            MinnesotaConfig(lag_decay=-1.0)
        with pytest.raises(ValueError):
            MinnesotaConfig(intercept_scale=0.0)
        with pytest.raises(ValueError):
            MinnesotaConfig(dof_offset=0)

    @pytest.mark.parametrize("value", [2.5, 2.0, True], ids=["fraction", "float", "bool"])
    def test_dof_offset_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="dof_offset must be an integer"):
            MinnesotaConfig(dof_offset=value)
        assert MinnesotaConfig(dof_offset=np.int64(3)).dof_offset == 3


class TestConjugateBuilder:
    def test_dof(self):
        data = synthetic_design(3, 1, 60, seed=1)
        prior = minnesota_conjugate(data, MinnesotaConfig(dof_offset=2))
        assert prior.dof == 5.0

    def test_diagonal_rule_m1_d2(self):
        # lambda1 = 0.2, lambda3 = 1: lag variances 0.04, 0.01 scaled by 1/s^2
        data = synthetic_design(1, 2, 80, seed=2)
        cfg = MinnesotaConfig(overall_tightness=0.2, lag_decay=1.0,
                              intercept_scale=10.0)
        prior = minnesota_conjugate(data, cfg)
        s2 = _ar_residual_variances(data)[0]
        np.testing.assert_allclose(
            np.diag(prior.row_cov), [100.0, 0.04 / s2, 0.01 / s2]
        )
        np.testing.assert_allclose(np.diag(prior.scale), [s2])

    def test_own_lag_mean_layout(self):
        data = synthetic_design(2, 2, 60, seed=3)
        prior = minnesota_conjugate(data, MinnesotaConfig(own_lag_mean=1.0))
        g = prior.mean_G
        assert g.shape == (5, 2)
        np.testing.assert_allclose(g[1:3, :], np.eye(2))
        np.testing.assert_allclose(g[[0, 3, 4], :], 0.0)

    def test_dogmatic_limit(self):
        # lambda1 -> 0 pins the lag coefficients at the prior mean
        data = synthetic_design(2, 1, 120, seed=4)
        cfg = MinnesotaConfig(overall_tightness=1e-8, own_lag_mean=1.0)
        prior = minnesota_conjugate(data, cfg)
        post = fit_exact(prior, data)
        np.testing.assert_allclose(post.mean_G[1:], prior.mean_G[1:], atol=1e-4)

    def test_spd_outputs(self):
        for seed in range(4):
            data = synthetic_design(3, 2, 60, seed=seed)
            prior = minnesota_conjugate(data, MinnesotaConfig())
            assert np.all(np.diag(prior.row_cov) > 0)
            assert np.all(np.diag(prior.scale) > 0)
            assert prior.dof > prior.n_vars - 1

    def test_insufficient_data(self):
        data = synthetic_design(1, 4, 9, seed=5)  # effective T = 5 < d + 2
        for build in (minnesota_conjugate, minnesota_independent):
            with pytest.raises(InsufficientObservationsError):
                build(data, MinnesotaConfig())


class TestIndependentBuilder:
    def test_mean_shape_and_zeros(self):
        data = synthetic_design(2, 2, 60, seed=6)
        prior = minnesota_independent(data, MinnesotaConfig(own_lag_mean=0.0))
        assert prior.mean_b.shape == (2 * 5,)
        np.testing.assert_allclose(prior.mean_b, 0.0)

    def test_blocks_differ_by_equation_scale(self):
        # with lambda2 = 1 block m equals the shared diagonal times s_m^2,
        # except the intercept entry which carries its own s_m^2 factor too
        data = synthetic_design(3, 1, 80, seed=7)
        prior = minnesota_independent(data, MinnesotaConfig(cross_tightness=1.0))
        s2 = _ar_residual_variances(data)
        p = 4
        d0 = np.diag(prior.cov[:p, :p])
        for eq in range(1, 3):
            deq = np.diag(prior.cov[eq * p:(eq + 1) * p, eq * p:(eq + 1) * p])
            np.testing.assert_allclose(deq, d0 * s2[eq] / s2[0], rtol=1e-12)

    def test_m1_block_is_scaled_conjugate_diagonal(self):
        # single-equation case: the block equals the conjugate diagonal
        # multiplied by the AR residual variance (the factor the conjugate
        # form delegates to its Wishart scale)
        data = synthetic_design(1, 2, 80, seed=8)
        cfg = MinnesotaConfig()
        conj = minnesota_conjugate(data, cfg)
        indep = minnesota_independent(data, cfg)
        s2 = _ar_residual_variances(data)[0]
        np.testing.assert_allclose(
            np.diag(indep.cov), np.diag(conj.row_cov) * s2, rtol=1e-12
        )

    def test_cross_tightness_discount(self):
        data = synthetic_design(2, 1, 80, seed=9)
        tight = minnesota_independent(data, MinnesotaConfig(cross_tightness=0.5))
        loose = minnesota_independent(data, MinnesotaConfig(cross_tightness=1.0))
        p = 3
        # equation 0, coefficient on variable 1's lag: entry index 2
        assert tight.cov[2, 2] == pytest.approx(0.25 * loose.cov[2, 2])
        # own-lag entry is undiscounted
        assert tight.cov[1, 1] == pytest.approx(loose.cov[1, 1])
        # equation 1, own lag (variable 1): entry p + 2
        assert tight.cov[p + 2, p + 2] == pytest.approx(loose.cov[p + 2, p + 2])


class TestMinnesotaRule:
    """Every entry of both builders against the module docstring's rule,
    evaluated one scalar at a time in the rule's own operation order."""

    M, D = 3, 3

    def _case(self, lag_decay):
        data = synthetic_design(self.M, self.D, 80, seed=10)
        cfg = MinnesotaConfig(overall_tightness=0.2, cross_tightness=0.6, lag_decay=lag_decay,
                              intercept_scale=50.0, own_lag_mean=-0.5)
        return data, cfg, [float(v) for v in _ar_residual_variances(data)]

    def _lag_terms(self):
        # (position in 0..p-1, lag l, variable j), lag blocks after the intercept
        return [(1 + (lag - 1) * self.M + j, lag, j)
                for lag in range(1, self.D + 1) for j in range(self.M)]

    def _mean(self):
        g = np.zeros((self.M * self.D + 1, self.M))
        for j in range(self.M):
            g[1 + j, j] = -0.5
        return g

    # lambda3 = 2 (an integer) takes the integer power path of the scalar rule
    @pytest.mark.parametrize("lag_decay", [1.3, 2])
    def test_conjugate_entries(self, lag_decay):
        data, cfg, s2 = self._case(lag_decay)
        prior = minnesota_conjugate(data, cfg)
        want = np.zeros(self.M * self.D + 1)
        want[0] = cfg.intercept_scale**2
        for k, lag, j in self._lag_terms():
            want[k] = cfg.overall_tightness**2 / (lag ** (2 * cfg.lag_decay) * s2[j])
        assert np.array_equal(prior.row_cov, np.diag(want))
        assert np.array_equal(prior.scale, np.diag(s2))
        assert np.array_equal(prior.mean_G, self._mean())
        assert prior.dof == self.M + cfg.dof_offset

    @pytest.mark.parametrize("lag_decay", [1.3, 2])
    def test_independent_entries(self, lag_decay):
        data, cfg, s2 = self._case(lag_decay)
        prior = minnesota_independent(data, cfg)
        p = self.M * self.D + 1
        want = np.zeros(self.M * p)
        for eq in range(self.M):
            want[eq * p] = cfg.intercept_scale**2 * s2[eq]
            for k, lag, j in self._lag_terms():
                cross = 1.0 if j == eq else cfg.cross_tightness
                want[eq * p + k] = (cfg.overall_tightness**2 * cross**2 * (s2[eq] / s2[j])
                                    / lag ** (2 * cfg.lag_decay))
        assert np.array_equal(prior.cov, np.diag(want))
        assert np.array_equal(prior.scale, np.diag(s2))
        assert np.array_equal(prior.mean_b, self._mean().flatten(order="F"))
        assert prior.dof == self.M + cfg.dof_offset

    def test_own_lag_variances_use_own_lag_columns(self):
        # the AR pre-fit of variable j regresses it on an intercept and its own d lags
        data, _, s2 = self._case(1.0)
        t = data.effective_T
        for j in range(self.M):
            xj = data.X[:, [0] + [1 + (lag - 1) * self.M + j for lag in range(1, self.D + 1)]]
            coef = np.linalg.lstsq(xj, data.Y[:, j], rcond=None)[0]
            resid = data.Y[:, j] - xj @ coef
            assert s2[j] == pytest.approx(resid @ resid / (t - self.D - 1), rel=1e-12)


class TestPriorTypes:
    def test_conjugate_validation(self):
        with pytest.raises(ValueError):
            ConjugatePrior(np.zeros((3, 2)), np.eye(3), np.eye(2), 0.5)
        with pytest.raises(ValueError):
            ConjugatePrior(np.zeros((3, 2)), np.eye(4), np.eye(2), 4.0)

    def test_independent_validation(self):
        with pytest.raises(ValueError):
            IndependentPrior(np.zeros(6), np.eye(5), np.eye(2), 4.0)
        with pytest.raises(ValueError):
            IndependentPrior(np.zeros(5), np.eye(5), np.eye(2), 4.0)
        prior = IndependentPrior(np.zeros(6), np.eye(6), np.eye(2), 4.0)
        assert prior.n_regressors == 3

    @pytest.mark.parametrize("dof", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_dof(self, dof):
        # nan passed the dof > M - 1 check
        with pytest.raises(ValueError, match="dof must be finite"):
            ConjugatePrior(np.zeros((3, 2)), np.eye(3), np.eye(2), dof)
        with pytest.raises(ValueError, match="dof must be finite"):
            IndependentPrior(np.zeros(6), np.eye(6), np.eye(2), dof)


class TestIndependentPriorCache:
    @given(
        n_vars=st.integers(min_value=1, max_value=3),
        n_regressors=st.integers(min_value=1, max_value=5),
        diagonal=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_cached_inverses_and_logdets(self, n_vars, n_regressors, diagonal, seed):
        rng = np.random.default_rng(seed)
        mp = n_vars * n_regressors

        def spd(n):
            if diagonal:
                return np.diag(np.exp(rng.uniform(-6.0, 6.0, n)))
            a = rng.standard_normal((n, n))
            return a @ a.T / n + 0.1 * np.eye(n)

        cov, scale, row_cov = spd(mp), spd(n_vars), spd(n_regressors)
        prior = IndependentPrior(rng.standard_normal(mp), cov, scale,
                                 n_vars + 2.0)
        conj = ConjugatePrior(rng.standard_normal((n_regressors, n_vars)), row_cov, scale,
                              n_vars + 2.0)
        for inv, logdet, a in ((prior.cov_inv, prior.logdet_cov, cov),
                               (prior.scale_inv, prior.logdet_scale, scale),
                               (conj.row_cov_inv, conj.logdet_row_cov, row_cov),
                               (conj.scale_inv, conj.logdet_scale, scale)):
            assert not inv.flags.writeable
            want = np.linalg.inv(a)
            np.testing.assert_allclose(inv, want, rtol=1e-9,
                                       atol=1e-12 * np.abs(want).max())
            sign, want_logdet = np.linalg.slogdet(a)
            assert sign == 1.0
            assert logdet == pytest.approx(want_logdet, abs=1e-10 * max(1.0, abs(want_logdet)))
        np.testing.assert_allclose(prior.cov_inv_mean, prior.cov_inv @ prior.mean_b)
        if diagonal or mp == 1:
            assert prior.cov_inv_diag.tobytes() == np.diag(prior.cov_inv).tobytes()
            assert not prior.cov_inv_diag.flags.writeable
        else:
            assert prior.cov_inv_diag is None

    @pytest.mark.parametrize("n_vars,lags", [(1, 1), (3, 2), (7, 4)])
    def test_cov_inv_diag_of_builders(self, n_vars, lags):
        # Minnesota's V0^-1 is diagonal; the tests' random prior is dense
        data = synthetic_design(n_vars, lags, 120, seed=1330)
        prior = minnesota_independent(data, MinnesotaConfig(cross_tightness=0.5))
        assert prior.cov_inv_diag.tobytes() == np.diag(prior.cov_inv).tobytes()
        dense = random_independent_prior(n_vars, data.n_regressors, seed=1331)
        assert dense.cov_inv_diag is None

    def test_diagonal_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive definite"):
            IndependentPrior(np.zeros(2), np.diag([1.0, 0.0]), np.eye(1), 3.0)
