"""Coordinate-ascent mean-field VB for the independent-prior VAR, ELBO
monitoring, VB predictive moments, and iterative joint-mode schemes for
both the exact and the VB posterior.

Per-observation sums exploit Z_t = I_M kron x_t: the coefficient-update
precision is Q = V0^-1 + E[Sigma^-1] kron X'X and the scale-update
correction Omega has entries tr(V[m,n block] X'X), V = Q^-1.  The prior's
V0^-1, S0^-1 and log-determinants are cached on the prior.

Coordinate-ascent VB and both mode iterations run one coefficient step per
iteration, the Gaussian conditional of beta given Sigma^-1 = P, at
E_q[Sigma^-1] or at lambda * Sigma-hat^-1; each starts at the prior mean of
Sigma^-1.  A step returns the conditional mean, ln |V|, Omega and
tr(V0^-1 V), by one of two routes chosen once per call from the prior:

- dense (:class:`_CoefficientStep`): assembles Q, factors it by LAPACK
  potrf and inverts the factor by potri; O((Mp)^3) per step.  LAPACK is
  called directly, the routines under scipy's cho_factor and cho_solve, and
  a nonzero ``info`` raises np.linalg.LinAlgError, as cho_factor did.
- Kronecker (:class:`_KroneckerStep`): when V0^-1 = D is diagonal,
  Mp >= _KRONECKER_MIN_MP and D is separable, D = S^2 with
  S = S_M kron S_p (the Minnesota prior with lambda2 = 1), Q is
  diagonalised by the eigenvectors of X'X and P scaled by S
  (:class:`_KroneckerBasis`), and every output has a closed form in
  O(M^3 + p^3 + Mp(M + p)).  VB forms the dense V once, after its loop.

The dense route of the Gibbs sampler shares :class:`_CoefficientStep`, and
its PCG route (``independent_mcmc._PcgBetaDraw``) shares the basis and the
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack
from scipy.special import multigammaln

from .mvdist import (
    NotPositiveDefiniteError,
    UndefinedMomentError,
    WishartDist,
    check_fields,
    chol_inverse,
    chol_logdet,
    kron_add,
    lapack_checked,
    normal_wishart_predictive,
    set_fields,
    spd_cholesky,
    spd_inverse,
)
from .priors import IndependentPrior
from .vardata import DesignData, regressor_row

__all__ = [
    "VbConfig",
    "IndependentVbPosterior",
    "fit_vb_independent",
    "elbo_independent",
    "predictive_vb_independent",
    "modes_exact_iterative",
    "modes_vb_iterative",
]


@dataclass(frozen=True)
class VbConfig:
    """Coordinate-ascent settings."""

    max_iters: int = 500
    elbo_rel_tol: float = 1e-9

    def __post_init__(self):
        check_fields(self)
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.elbo_rel_tol <= 0:
            raise ValueError("elbo_rel_tol must be positive")


@dataclass(frozen=True)
class IndependentVbPosterior:
    """q(beta) = N(mean_b, cov_b), q(Sigma^-1) = W(scale_q^-1, dof)."""

    mean_b: np.ndarray
    cov_b: np.ndarray
    scale_q: np.ndarray
    dof: float
    elbo_trace: tuple
    converged: bool

    def __post_init__(self):
        set_fields(self, mean_b=self.mean_b, cov_b=self.cov_b, scale_q=self.scale_q,
                   elbo_trace=tuple(self.elbo_trace))

    @property
    def iterations(self) -> int:
        return len(self.elbo_trace)

    @property
    def n_vars(self) -> int:
        return self.scale_q.shape[0]

    @property
    def n_regressors(self) -> int:
        return self.mean_b.size // self.n_vars

    def precision_density(self) -> WishartDist:
        return WishartDist(spd_inverse(self.scale_q, "scale_q")[0], self.dof)

    def coef_matrix(self) -> np.ndarray:
        """mean_b reshaped to the p x M coefficient layout."""
        return self.mean_b.reshape((self.n_regressors, self.n_vars), order="F")


class _CoefficientStep:
    """beta | Sigma^-1 = P, Y ~ N(mean, (V0^-1 + P kron X'X)^-1) for one
    prior and data set, by dense Cholesky: X'X and X'Y are formed once and
    the Mp x Mp precision is assembled in one reused buffer.  The buffer is
    C-ordered, so potrf factors an F-ordered copy and leaves the buffer as
    it was.

    VB and the mode iterations use it unless the prior takes the Kronecker
    route (:func:`_coefficient_step`); Gibbs uses it only on its dense
    route."""

    def __init__(self, prior: IndependentPrior, data: DesignData):
        m, p = data.n_vars, data.n_regressors
        if prior.n_vars != m or prior.n_regressors != p:
            raise ValueError("prior and data dimensions disagree")
        self.prior = prior
        self.xtx = data.X.T @ data.X
        self.xty = data.X.T @ data.Y
        self._prec = np.empty((m * p, m * p))
        self._cov = None

    def __call__(self, prec):
        """(lower Cholesky factor of the conditional precision, conditional
        mean) at P, from LAPACK potrf and potrs; the strict upper triangle of
        the factor is not zeroed.  A precision that is not positive definite
        raises np.linalg.LinAlgError."""
        kron_add(self._prec, self.prior.cov_inv, prec, self.xtx)
        lower = lapack_checked(lapack.dpotrf(self._prec, lower=1, clean=0), "potrf")
        rhs = self.prior.cov_inv_mean + (self.xty @ prec).flatten(order="F")
        return lower, lapack_checked(lapack.dpotrs(lower, rhs, lower=1), "potrs")

    def mean(self, prec):
        """The conditional mean at P."""
        return self(prec)[1]

    def moments(self, prec):
        """(mean, ln |V|, Omega, tr(V0^-1 V)) at P, with V = Q^-1 from the
        factor; V is kept for :meth:`cov`."""
        lower, mean = self(prec)
        self._cov = chol_inverse(lower)
        return (mean, -chol_logdet(lower),
                _omega(self._cov, self.xtx, self.prior.n_vars, self.prior.n_regressors),
                _prior_trace(self.prior, self._cov))

    def cov(self):
        """The dense V of the last :meth:`moments` call."""
        return self._cov


# The Kronecker routes (the VB and mode step, and Gibbs' PCG draw) need a
# diagonal V0^-1 and Mp at least this; below it the dense routes are kept
_KRONECKER_MIN_MP = 300
# the VB and mode step take the Kronecker route only when the separable fit
# S^2 reproduces D to this relative error; Minnesota with lambda2 = 1 fits
# to about 1e-14, and lambda2 = 0.999 misses by 1e-3
_SEPARABLE_RTOL = 1e-12


def _kronecker_applies(prior) -> bool:
    """Whether V0^-1 is diagonal and Mp >= _KRONECKER_MIN_MP."""
    return prior.cov_inv_diag is not None and prior.mean_b.size >= _KRONECKER_MIN_MP


def _jacobi_gram(g):
    """(eigenvalues, eigenvectors) of G'G from the one-sided Jacobi SVD of G
    (LAPACK gejsv, JOBA = 'C'), accurate to round-off in every direction
    however widely the columns of G are scaled.  The left vectors are
    computed and dropped: asked for the right ones alone, gejsv takes a
    shortcut that lost up to 5e-11 relative on tight Minnesota priors."""
    sva, _, v, work, _, info = lapack.dgejsv(g, joba=0)
    lapack_checked((None, info), "gejsv")
    return (sva * (work[0] / work[1])) ** 2, v


class _KroneckerBasis:
    """The joint eigenbasis of a diagonal V0^-1 = D and P kron A, A = X'X.

    D, as a p x M table, is fitted by (s_p s_M')^2, the least-squares fit of
    ln D by row plus column effects; ``separable_error`` = max |S^2 / D - 1|
    is zero to round-off under the Minnesota rule with lambda2 = 1.  With
    S = diag(vec(s_p s_M')) and the eigendecompositions
    A / s_p s_p' = U Lambda U' (once) and P / s_M s_M' = R Omega R' (per
    step),

        S^2 + P kron A = S (R kron U) (I + Omega kron Lambda) (R kron U)' S.

    By default both come from Jacobi SVDs (:func:`_jacobi_gram`), of
    X S_p^-1 and of L' S_M^-1 with P = L L'.  Neither squares a scaled
    matrix, so the basis keeps its digits when s_p or s_M spreads over many
    decades, as under a tight Minnesota prior with a loose intercept.
    ``jacobi=False`` takes both from numpy's eigh of the scaled matrices
    instead, which loses up to 1e-5 relative there; the Gibbs PCG draw uses
    it, which keeps its stream bit for bit.  Every product is numpy's:
    mixing numpy's and scipy's BLAS makes single calls erratic."""

    def __init__(self, prior: IndependentPrior, data: DesignData, jacobi: bool = True):
        m, p = data.n_vars, data.n_regressors
        if prior.n_vars != m or prior.n_regressors != p:
            raise ValueError("prior and data dimensions disagree")
        self.d = prior.cov_inv_diag.reshape((p, m), order="F")
        log_d = np.log(self.d)
        self.logdet_d = float(np.sum(log_d))
        self.s_p = np.exp(log_d.mean(axis=1) / 2.0)
        self.s_m = np.exp((log_d.mean(axis=0) - log_d.mean()) / 2.0)
        self.s = np.outer(self.s_p, self.s_m)
        self.separable_error = float(np.max(np.abs(self.s**2 / self.d - 1.0)))
        self.prior_term = prior.cov_inv_mean.reshape((p, m), order="F")
        self.xtx = data.X.T @ data.X
        self.xty = data.X.T @ data.Y
        self.jacobi = jacobi
        if jacobi:
            # gejsv needs as many rows as columns; zero rows leave X'X as it is
            padding = np.zeros((max(p - data.X.shape[0], 0), p))
            self.lam, self.u = _jacobi_gram(np.vstack((data.X / self.s_p, padding)))
        else:
            lam, self.u = np.linalg.eigh(self.xtx / np.outer(self.s_p, self.s_p))
            # X'X is positive semi-definite; clip round-off below zero
            self.lam = np.maximum(lam, 0.0)

    def rhs(self, prec):
        """V0^-1 b0 + vec(X'Y P) as a p x M table."""
        return self.prior_term + self.xty @ prec

    def eig(self, prec):
        """(Omega, R, 1 + Lambda Omega') of P / s_M s_M' = R Omega R'; P not
        positive definite raises np.linalg.LinAlgError."""
        if self.jacobi:
            omega, r = _jacobi_gram(np.linalg.cholesky(prec).T / self.s_m)
        else:
            omega, r = np.linalg.eigh(prec / np.outer(self.s_m, self.s_m))
            if omega[0] <= 0.0:
                raise np.linalg.LinAlgError("Sigma^-1 is not positive definite")
        return omega, r, 1.0 + self.lam[:, None] * omega

    def solve(self, g, r, shift):
        """(S^2 + P kron A)^-1 g for a p x M table g."""
        u, s = self.u, self.s
        return u @ ((u.T @ (g / s) @ r) / shift) @ r.T / s


class _KroneckerStep:
    """The outputs of :meth:`_CoefficientStep.moments` in closed form for a
    separable V0^-1 = D = S^2, from a :class:`_KroneckerBasis`.  With
    delta_ji = 1 / (1 + lambda_j omega_i):

    - mean = S^-1 (R kron U) Delta (R kron U)' S^-1 r;
    - ln |V| = -ln |D| - sum ln(1 + lambda_j omega_i);
    - Omega = S_M^-1 R diag(sum_j lambda_j delta_ji) R' S_M^-1;
    - diag V = S^-2 o (U o U) Delta (R o R)', which gives tr(D V).

    O(M^3 + p^3 + Mp(M + p)) per step, and no Mp x Mp matrix until
    :meth:`cov`."""

    def __init__(self, basis: _KroneckerBasis):
        self.basis = basis
        self._last = None

    def mean(self, prec):
        """The conditional mean at P."""
        b = self.basis
        _, r, shift = b.eig(prec)
        return b.solve(b.rhs(prec), r, shift).flatten(order="F")

    def moments(self, prec):
        """(mean, ln |V|, Omega, tr(V0^-1 V)) at P; the basis state is kept
        for :meth:`cov`."""
        b = self.basis
        _, r, shift = b.eig(prec)
        delta = 1.0 / shift
        self._last = r, delta
        omega = (r * (b.lam @ delta)) @ r.T / np.outer(b.s_m, b.s_m)
        diag_v = (b.u * b.u) @ delta @ (r * r).T / b.s**2
        return (b.solve(b.rhs(prec), r, shift).flatten(order="F"),
                -b.logdet_d - float(np.sum(np.log(shift))), omega,
                float(np.sum(b.d * diag_v)))

    def cov(self):
        """The dense V of the last :meth:`moments` call, exactly symmetric:
        V[(a,k), (b,l)] = sum_i R_ai R_bi (U Delta_i U')_kl / (s_ka s_lb),
        with Delta_i the i-th column of Delta; O(M^3 p^2), not O((Mp)^3)."""
        b = self.basis
        r, delta = self._last
        p, m = b.s.shape
        blocks = (b.u * delta.T[:, None, :]) @ b.u.T
        pairs = (r[:, None, :] * r[None, :, :]).reshape(m * m, m)
        cov = (pairs @ blocks.reshape(m, p * p)).reshape(m, m, p, p).transpose(
            0, 2, 1, 3).reshape(m * p, m * p)
        inv_s = 1.0 / b.s.flatten(order="F")
        cov *= inv_s[:, None]
        cov *= inv_s
        return (cov + cov.T) / 2.0


def _coefficient_step(prior, data):
    """The step of VB and the mode iterations: :class:`_KroneckerStep` when
    V0^-1 is diagonal, Mp >= _KRONECKER_MIN_MP and the separable fit is
    within _SEPARABLE_RTOL, :class:`_CoefficientStep` otherwise."""
    if _kronecker_applies(prior):
        basis = _KroneckerBasis(prior, data)
        if basis.separable_error <= _SEPARABLE_RTOL:
            return _KroneckerStep(basis)
    return _CoefficientStep(prior, data)


def _omega(cov_b: np.ndarray, xtx: np.ndarray, m: int, p: int) -> np.ndarray:
    """Sum over t of Z_t cov_b Z_t': entries tr(cov_b[m-block, n-block] X'X)."""
    return np.einsum("akbl,kl->ab", cov_b.reshape(m, p, m, p), xtx)


# An ELBO step below -ELBO_FALL_TOL * max(1, |ELBO|) is a real decrease,
# not round-off; coordinate ascent cannot produce one at a correct update.
ELBO_FALL_TOL = 1e-11
# the most fixed-point steps a mode solver takes
MODE_MAX_ITERS = 1000


def _prior_trace(prior, cov_b) -> float:
    """tr(V0^-1 cov_b) as an elementwise sum with the cached V0^-1.  einsum
    keeps this product, and the quadratic form in :func:`_elbo`, off numpy's
    BLAS, whose thread pool would otherwise stall the next scipy
    factorisation (numpy and scipy each load their own OpenBLAS)."""
    return float(np.einsum("ij,ij->", prior.cov_inv, cov_b))


def fit_vb_independent(
    prior: IndependentPrior, data: DesignData, cfg: VbConfig | None = None
) -> IndependentVbPosterior:
    """Coordinate ascent: beta-block update given E[Sigma^-1], then scale
    update; stops when the relative increase of the closed-form ELBO, taken
    after each scale update, drops below tolerance.

    An ELBO decrease beyond round-off stops the iteration unconverged."""
    cfg = cfg or VbConfig()
    beta_step = _coefficient_step(prior, data)
    nub = data.effective_T + prior.dof
    e_prec = prior.precision_mean

    trace = []
    converged = False
    mean_b = scale_q = None
    for _ in range(cfg.max_iters):
        try:
            mean_b, logdet_cov_b, omega, trace_cov_b = beta_step.moments(e_prec)
            resid = data.residuals(mean_b)
            scale_q = prior.scale + resid.T @ resid + omega
            scale_q = (scale_q + scale_q.T) / 2.0
            scale_q_inv, logdet_scale_q = spd_inverse(scale_q, "scale_q")
        except (np.linalg.LinAlgError, NotPositiveDefiniteError) as exc:
            raise NotPositiveDefiniteError("Cholesky failure in VB update") from exc
        e_prec = nub * scale_q_inv
        trace.append(_elbo(prior, data, mean_b, logdet_cov_b, trace_cov_b, logdet_scale_q, nub))
        if len(trace) > 1:
            step = trace[-1] - trace[-2]
            if step < -ELBO_FALL_TOL * max(abs(trace[-2]), 1.0):
                break
            if step / max(abs(trace[-2]), 1.0) < cfg.elbo_rel_tol:
                converged = True
                break
    return IndependentVbPosterior(
        mean_b=mean_b,
        cov_b=beta_step.cov(),
        scale_q=scale_q,
        dof=nub,
        elbo_trace=tuple(trace),
        converged=converged,
    )


def elbo_independent(
    prior: IndependentPrior,
    vb_post: IndependentVbPosterior,
    data: DesignData,
) -> float:
    """Closed-form ELBO, valid after any scale update, not only at the fixed point.

    The leading constant is M*p/2, which the Monte-Carlo check confirms;
    the source display prints p/2, and the two coincide for M = 1.
    """
    return _elbo(prior, data, vb_post.mean_b,
                 chol_logdet(spd_cholesky(vb_post.cov_b, "cov_b")),
                 _prior_trace(prior, vb_post.cov_b),
                 chol_logdet(spd_cholesky(vb_post.scale_q, "scale_q")), vb_post.dof)


def _elbo(prior, data, mean_b, logdet_cov_b, trace_cov_b, logdet_scale_q, dof) -> float:
    """The closed-form ELBO from ln |cov_b|, tr(V0^-1 cov_b), ln |scale_q|
    and dof = T + prior dof; both coefficient routes supply the first two."""
    t, m, p = data.effective_T, data.n_vars, data.n_regressors
    db = mean_b - prior.mean_b
    tr_term = float(np.einsum("i,ij,j->", db, prior.cov_inv, db)) + trace_cov_b
    return (
        m * p / 2.0
        - m * t / 2.0 * np.log(np.pi)
        + multigammaln(dof / 2.0, m)
        - multigammaln(prior.dof / 2.0, m)
        + 0.5 * (logdet_cov_b - prior.logdet_cov)
        + 0.5 * (-dof * logdet_scale_q + prior.dof * prior.logdet_scale)
        - 0.5 * tr_term
    )


def predictive_vb_independent(vb_post: IndependentVbPosterior, x_next) -> dict:
    """One-step VB predictive moments: mean Z beta_q, normal part Z Vq Z'
    from q(beta) and t part from q(Sigma^-1) = W(scale_q^-1, dof), as the
    :func:`mvdist.normal_wishart_predictive` record."""
    m, p = vb_post.n_vars, vb_post.n_regressors
    x = regressor_row(x_next, p)
    return normal_wishart_predictive(x @ vb_post.coef_matrix(),
                                     _omega(vb_post.cov_b, np.outer(x, x), m, p),
                                     vb_post.scale_q, vb_post.dof)


def _iterate_modes(prior, data, tol, vb_corrected):
    beta_step = _coefficient_step(prior, data)
    m = data.n_vars
    dof_factor = data.effective_T + prior.dof - m - 1
    if dof_factor <= 0:
        raise UndefinedMomentError("mode iteration needs T + prior dof > M + 1")
    lam = 1.0 + (m + 1.0) / dof_factor if vb_corrected else 1.0
    prec = prior.precision_mean
    beta = np.asarray(prior.mean_b, dtype=float).copy()
    converged = False
    for it in range(MODE_MAX_ITERS):
        try:
            if vb_corrected:
                beta_new, _, omega, _ = beta_step.moments(lam * prec)
            else:
                beta_new = beta_step.mean(lam * prec)
            resid = data.residuals(beta_new)
            scale = prior.scale + resid.T @ resid
            if vb_corrected:
                scale = scale + omega
            prec_new = dof_factor * spd_inverse((scale + scale.T) / 2.0, "scale")[0]
        except (np.linalg.LinAlgError, NotPositiveDefiniteError) as exc:
            raise NotPositiveDefiniteError(f"Cholesky failure in mode iteration {it}") from exc
        delta = max(
            float(np.max(np.abs(beta_new - beta))) / max(float(np.max(np.abs(beta_new))), 1e-12),
            float(np.max(np.abs(prec_new - prec))) / max(float(np.max(np.abs(prec_new))), 1e-12),
        )
        beta, prec = beta_new, prec_new
        if delta < tol:
            converged = True
            break
    return {"beta": beta, "precision": prec, "converged": converged, "iterations": it + 1}


def modes_exact_iterative(prior: IndependentPrior, data: DesignData, tol: float = 1e-10) -> dict:
    """Joint mode of the exact independent-prior posterior by fixed-point
    iteration on the stationarity conditions, as {"beta", "precision",
    "converged", "iterations"}."""
    return _iterate_modes(prior, data, tol, vb_corrected=False)


def modes_vb_iterative(prior: IndependentPrior, data: DesignData, tol: float = 1e-10) -> dict:
    """Joint mode of the VB posterior via the lambda-corrected iteration,
    lambda = 1 + (M+1)/(T + prior dof - M - 1)."""
    return _iterate_modes(prior, data, tol, vb_corrected=True)
