"""Distribution layer: densities, moments, modes, the Wishart and
matric-normal samplers, and input checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.linalg import solve_triangular

from conftest import compound_matric_normal, perfbench_design
import vbvar.mvdist as mvdist
from vbvar.mvdist import (
    MatricNormal,
    MatricT,
    NotPositiveDefiniteError,
    UndefinedMomentError,
    WishartDist,
    bartlett_draw,
    chol_inverse,
    chol_logdet,
    normal_wishart_predictive,
    spd_cholesky,
    spd_inverse,
)
from vbvar.priors import IndependentPrior, MinnesotaConfig, minnesota_independent


def _rand_spd(rng, n, jitter=1.0):
    a = rng.standard_normal((n, n))
    return a @ a.T / n + jitter * np.eye(n)


class TestSpdCholesky:
    def test_rejects_asymmetric(self):
        with pytest.raises(NotPositiveDefiniteError, match="symmetric"):
            spd_cholesky(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError, match="positive definite"):
            spd_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(NotPositiveDefiniteError):
            spd_cholesky(np.ones((2, 3)))

    def test_stack_matches_single(self):
        rng = np.random.default_rng(2)
        xs = np.stack([_rand_spd(rng, 3) for _ in range(4)])
        np.testing.assert_allclose(spd_cholesky(xs), [spd_cholesky(x) for x in xs],
                                   rtol=1e-13, atol=1e-15)
        asym = xs.copy()
        asym[2, 0, 1] += 1e-3
        with pytest.raises(NotPositiveDefiniteError, match="symmetric"):
            spd_cholesky(asym)
        bad = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])])
        with pytest.raises(NotPositiveDefiniteError, match="positive definite"):
            spd_cholesky(bad)


def _factored(a, name="matrix"):
    """(A^-1, ln |A|) by the factorisation route."""
    lower = spd_cholesky(a, name)
    return chol_inverse(lower), chol_logdet(lower)


def _assert_same_inverse(got, want):
    """The same bytes on the diagonal and in ln |A|.  Off the diagonal both
    hold zeros: +0.0 on the diagonal route, where potri leaves some -0.0."""
    (inv, logdet), (want_inv, want_logdet) = got, want
    assert inv.shape == want_inv.shape and inv.flags.c_contiguous
    assert np.diagonal(inv).tobytes() == np.diagonal(want_inv).tobytes()
    assert np.array_equal(inv, want_inv)
    assert not np.signbit(inv).any()
    assert np.float64(logdet).tobytes() == np.float64(want_logdet).tobytes()


class TestSpdInverse:
    @given(st.lists(st.floats(min_value=-150.0, max_value=150.0), min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_diagonal_matches_factorisation(self, exponents):
        a = np.diag(10.0 ** np.array(exponents))
        _assert_same_inverse(spd_inverse(a), _factored(a))

    def test_diagonal_is_not_factored(self, monkeypatch):
        a = np.diag([4.0, 0.5, 3.0])
        want, want_1x1 = _factored(a), _factored([[2.0]])

        def factor(*args):
            raise AssertionError("a diagonal matrix was factored")

        monkeypatch.setattr(mvdist, "spd_cholesky", factor)
        _assert_same_inverse(spd_inverse(a), want)
        _assert_same_inverse(spd_inverse([[2.0]]), want_1x1)

    def test_non_diagonal_is_factored(self):
        a = np.diag([4.0, 0.5, 3.0])
        a[0, 2] = a[2, 0] = 1e-300
        inv, logdet = spd_inverse(a)
        want_inv, want_logdet = _factored(a)
        assert inv.tobytes() == want_inv.tobytes() and logdet == want_logdet

    def test_minnesota_prior_at_mp_820(self, monkeypatch):
        prior = minnesota_independent(perfbench_design(20, 2, 300, monkeypatch),
                                      MinnesotaConfig())
        assert prior.cov.shape == (820, 820)
        want_inv, want_logdet = _factored(prior.cov, "cov")
        _assert_same_inverse((prior.cov_inv, prior.logdet_cov), (want_inv, want_logdet))
        assert prior.cov_inv_diag.tobytes() == np.diag(want_inv).tobytes()
        assert prior.cov_inv_mean.tobytes() == (want_inv @ prior.mean_b).tobytes()

    # a nan or inf is caught before the symmetry check, which would warn
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_invalid_diagonal_raises_as_factorisation(self, bad):
        a = np.diag([2.0, bad, 3.0])
        with pytest.raises(ValueError) as want:
            _factored(a, "cov")
        with pytest.raises(want.type) as got:
            spd_inverse(a, "cov")
        assert type(got.value) is want.type and str(got.value) == str(want.value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_invalid_diagonal_errors(self):
        with pytest.raises(NotPositiveDefiniteError, match="cov is not positive definite"):
            spd_inverse(np.diag([2.0, -0.0]), "cov")
        for bad in (np.nan, np.inf):
            with pytest.raises(NotPositiveDefiniteError, match="^cov is not finite$"):
                spd_inverse(np.diag([2.0, bad]), "cov")
        stack = np.stack([np.eye(2), [[1.0, np.inf], [np.inf, 1.0]]])
        with pytest.raises(NotPositiveDefiniteError, match="^precision draw is not finite$"):
            spd_cholesky(stack, "precision draw")
        with pytest.raises(NotPositiveDefiniteError, match="^cov is not finite$"):
            IndependentPrior(np.zeros(2), np.diag([2.0, np.nan]), np.eye(1), 3.0)


class TestWishart:
    def test_mean_var_scalar(self):
        w = WishartDist(np.array([[2.0]]), 3.0)
        assert w.mean() == pytest.approx(np.array([[6.0]]))
        assert w.var() == pytest.approx(np.array([[24.0]]))

    def test_mode_identity(self):
        w = WishartDist(np.eye(2), 4.0)
        np.testing.assert_allclose(w.mode(), np.eye(2))

    def test_mode_undefined(self):
        w = WishartDist(np.eye(2), 3.0)  # dof <= M+1
        with pytest.raises(UndefinedMomentError):
            w.mode()

    def test_dof_bound(self):
        with pytest.raises(ValueError):
            WishartDist(np.eye(3), 1.5)

    def test_logpdf_matches_scipy(self):
        rng = np.random.default_rng(0)
        for m in (1, 2, 4):
            s = _rand_spd(rng, m)
            w = WishartDist(s, m + 3.5)
            x = _rand_spd(rng, m)
            ref = stats.wishart.logpdf(x, df=m + 3.5, scale=s)
            assert w.logpdf(x) == pytest.approx(ref, abs=1e-10)

    def test_logpdf_stack_matches_single(self):
        rng = np.random.default_rng(1)
        for m in (1, 3):
            w = WishartDist(_rand_spd(rng, m), m + 2.5)
            xs = np.stack([_rand_spd(rng, m) for _ in range(5)])
            np.testing.assert_allclose(w.logpdf(xs), [w.logpdf(x) for x in xs],
                                       rtol=1e-13)
        bad = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])])
        with pytest.raises(NotPositiveDefiniteError, match="positive definite"):
            WishartDist(np.eye(2), 4.0).logpdf(bad)

    def test_logpdf_integrates_to_one_scalar(self):
        w = WishartDist(np.array([[0.7]]), 4.5)
        val, _ = integrate.quad(lambda x: np.exp(w.logpdf([[x]])), 0, np.inf)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_sample_positive_scalar_and_deterministic(self):
        w = WishartDist(np.array([[1.0]]), 5.0)
        a = w.sample(np.random.default_rng(7))
        b = w.sample(np.random.default_rng(7))
        assert a[0, 0] > 0
        assert np.array_equal(a, b)

    @staticmethod
    def _bartlett_by_hand(root, dof, seed, n):
        # n draws W_i = (F A_i)(F A_i)' one matrix at a time, from the stream
        # of one (n, M) chi-square call, then one (n, M(M-1)/2) normal call
        m = root.shape[0]
        rng = np.random.default_rng(seed)
        chi = rng.chisquare(dof - np.arange(m), (n, m))
        z = rng.standard_normal((n, m * (m - 1) // 2))
        out = np.empty((n, m, m))
        for i in range(n):
            a = np.diag(np.sqrt(chi[i]))
            a[np.tril_indices(m, -1)] = z[i]
            fa = root @ a
            out[i] = fa @ fa.T
        return out

    def test_bartlett_draw_matches_sample(self):
        # one sampler serves the sweep's single draw from L^-T and
        # WishartDist's stacks from the scale's factor, to the bit
        rng = np.random.default_rng(13)
        for m in (1, 3, 20):
            s = _rand_spd(rng, m)
            dof = m + 1.5
            lower = spd_cholesky(s)
            upper = solve_triangular(spd_cholesky(np.linalg.inv(s)), np.eye(m), lower=True).T
            for size in (None, 1, 7):
                for root in (lower, upper):
                    want = self._bartlett_by_hand(root, dof, 14, size or 1)
                    got = bartlett_draw(root, dof, np.random.default_rng(14), size)
                    assert np.array_equal(got, want[0] if size is None else want)
                got = WishartDist(s, dof).sample(np.random.default_rng(14), size)
                want = bartlett_draw(lower, dof, np.random.default_rng(14), size)
                assert np.array_equal(got, want)

    def test_sampler_moments(self, seed_offset):
        # mean within 3 MC standard errors over a large seeded run
        w = WishartDist(np.eye(2), 7.0)
        rng = np.random.default_rng(11 + seed_offset)
        n = 200_000
        draws = w.sample(rng, n)
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean - 7.0 * np.eye(2)) < 3.5 * se)
        var = draws.var(axis=0, ddof=1)
        # relative tolerance generous: var of a sample variance
        np.testing.assert_allclose(var, w.var(), rtol=0.03)

    def test_sample_spd(self):
        rng = np.random.default_rng(12)
        w = WishartDist(_rand_spd(rng, 3), 5.0)
        for _ in range(50):
            d = w.sample(rng)
            np.linalg.cholesky(d)  # raises if not PD

    @pytest.mark.parametrize("m", [1, 3, 7, 20])
    def test_sample_size_contract(self, m):
        # one draw is the stack at n = 1; a stack holds n SPD draws
        rng = np.random.default_rng(15)
        w = WishartDist(_rand_spd(rng, m), m + 0.5)
        one = w.sample(np.random.default_rng(16))
        assert one.shape == (m, m)
        assert np.array_equal(one, w.sample(np.random.default_rng(16), 1)[0])
        stack = w.sample(rng, 500)
        assert stack.shape == (500, m, m)
        assert np.array_equal(stack, stack.transpose(0, 2, 1))
        np.linalg.cholesky(stack)  # raises unless every draw is PD


class TestMatricNormal:
    def test_logpdf_at_mean_identity(self):
        p, m = 3, 2
        d = MatricNormal(np.zeros((p, m)), np.eye(m), np.eye(p))
        assert d.logpdf(np.zeros((p, m))) == pytest.approx(
            -m * p / 2.0 * np.log(2 * np.pi)
        )

    def test_logpdf_matches_kronecker_normal(self):
        rng = np.random.default_rng(3)
        for p, m in [(2, 2), (4, 3), (3, 4)]:
            col = _rand_spd(rng, m)
            row = _rand_spd(rng, p)
            mean = rng.standard_normal((p, m))
            d = MatricNormal(mean, col, row)
            x = rng.standard_normal((p, m))
            ref = stats.multivariate_normal.logpdf(
                x.flatten(order="F"),
                mean=mean.flatten(order="F"),
                cov=np.kron(col, row),
            )
            assert d.logpdf(x) == pytest.approx(ref, abs=1e-10)

    def test_sample_covariance_is_kronecker(self, seed_offset):
        rng = np.random.default_rng(4 + seed_offset)
        col = np.array([[1.0, 0.4], [0.4, 2.0]])
        row = np.array([[0.5, -0.1], [-0.1, 0.8]])
        d = MatricNormal(np.zeros((2, 2)), col, row)
        n = 200_000
        draws = d.sample(rng, n).transpose(0, 2, 1).reshape(n, 4)  # vec by columns
        cov = np.cov(draws.T)
        target = np.kron(col, row)
        # variance of a sample covariance entry ~ (c_ii c_jj + c_ij^2)/n
        dd = np.diag(target)
        se = np.sqrt((np.outer(dd, dd) + target**2) / n)
        assert np.all(np.abs(cov - target) < 4 * se)

    @pytest.mark.parametrize("p,m", [(1, 1), (4, 3), (29, 7)])
    def test_sample_size_contract(self, p, m):
        # one draw is the stack at n = 1
        rng = np.random.default_rng(17)
        d = MatricNormal(rng.standard_normal((p, m)), _rand_spd(rng, m), _rand_spd(rng, p))
        one = d.sample(np.random.default_rng(18))
        assert one.shape == (p, m)
        assert np.array_equal(one, d.sample(np.random.default_rng(18), 1)[0])
        assert d.sample(rng, 5).shape == (5, p, m)

    def test_linear_map_mean(self):
        rng = np.random.default_rng(5)
        mean = rng.standard_normal((3, 2))
        d = MatricNormal(mean, _rand_spd(rng, 2), _rand_spd(rng, 3))
        a = rng.standard_normal((2, 3))
        n = 50_000
        acc = np.zeros((2, 2))
        for _ in range(n):
            acc += a @ d.sample(rng)
        np.testing.assert_allclose(acc / n, a @ mean, atol=0.05)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MatricNormal(np.zeros((3, 2)), np.eye(3), np.eye(3))
        d = MatricNormal(np.zeros((2, 2)), np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            d.logpdf(np.zeros((3, 2)))

    def test_logpdf_stack_matches_single(self):
        rng = np.random.default_rng(8)
        for p, m in [(2, 1), (4, 3)]:
            d = MatricNormal(rng.standard_normal((p, m)), _rand_spd(rng, m), _rand_spd(rng, p))
            xs = np.stack([d.sample(rng) for _ in range(6)])
            assert xs.shape == (6, p, m)
            got = d.logpdf(xs)
            assert got.shape == (6,)
            np.testing.assert_allclose(got, [d.logpdf(x) for x in xs], rtol=1e-13)
        with pytest.raises(ValueError):
            d.logpdf(np.zeros((2, 4, 2)))


class TestMatricT:
    def test_vec_variance_substitution(self):
        d = MatricT(np.zeros((3, 2)), np.eye(2), np.eye(3), 5.0)
        np.testing.assert_allclose(d.vec_variance(), np.eye(6) / 2.0)
        np.testing.assert_allclose(d.mean, np.zeros((3, 2)))

    def test_undefined_variance(self):
        d = MatricT(np.zeros((2, 2)), np.eye(2), np.eye(2), 3.0)
        with pytest.raises(UndefinedMomentError):
            d.vec_variance()

    def test_compound_sampling_oracle(self, seed_offset):
        # draw Sigma^-1 ~ W(S^-1, nu), then X ~ MN(mean, Sigma, V); the
        # compound variance must match (S kron V)/(nu - q - 1)
        rng = np.random.default_rng(6 + seed_offset)
        p, q, nu = 2, 2, 9.0
        s = _rand_spd(rng, q)
        v = _rand_spd(rng, p)
        d = MatricT(np.zeros((p, q)), s, v, nu)
        n = 150_000
        draws = compound_matric_normal(WishartDist(np.linalg.inv(s), nu), np.zeros((p, q)), v,
                                       n, rng)
        cov = np.cov(draws.T)
        target = d.vec_variance()
        dd = np.diag(target)
        se = np.sqrt(3.0 * (np.outer(dd, dd) + target**2) / n)  # heavy tails
        assert np.all(np.abs(cov - target) < 5 * se)


class TestNormalWishartPredictive:
    def test_variance_formula(self):
        # t dof 10, shape 0.1 I: t variance 10 * 0.1 / 8 = 0.125, plus the normal part
        normal_cov = np.array([[0.3, 0.1], [0.1, 0.2]])
        pred = normal_wishart_predictive(np.array([1.0, 2.0]), normal_cov,
                                         np.eye(2), 10.0)
        np.testing.assert_allclose(pred["variance"], normal_cov + 0.125 * np.eye(2))
        np.testing.assert_allclose(pred["t_shape"], 0.1 * np.eye(2))
        assert pred["t_dof"] == 10.0
        assert pred["normal_cov"] is normal_cov

    def test_dof_bound(self):
        with pytest.raises(UndefinedMomentError, match="exceed 2, got 2.0"):
            normal_wishart_predictive(np.zeros(2), np.zeros((2, 2)), np.eye(2), 2.0)


@pytest.mark.parametrize("dof", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "make", [lambda dof: WishartDist(np.eye(2), dof),
             lambda dof: normal_wishart_predictive(np.zeros(2), np.zeros((2, 2)), np.eye(2), dof)],
    ids=["WishartDist", "normal_wishart_predictive"])
def test_non_finite_dof(make, dof):
    # nan passed the dof bound, and WishartDist(I, inf).logpdf(I) was nan
    with pytest.raises(ValueError, match="dof must be finite"):
        make(dof)
