"""Coordinate-ascent mean-field VB for the independent-prior VAR, ELBO
monitoring, VB predictive moments, and iterative joint-mode schemes for
both the exact and the VB posterior.

Per-observation sums exploit Z_t = I_M kron x_t: the coefficient-update
precision is V0^-1 + E[Sigma^-1] kron X'X and the scale-update correction
Omega has entries tr(Vq[m,n block] X'X).  The prior's V0^-1, S0^-1 and
log-determinants are cached on the prior; each iteration factors the
coefficient precision and the scale once each and inverts each factor once.

Coordinate-ascent VB, both mode iterations and the dense route of the Gibbs
sampler share one coefficient step, :class:`_CoefficientStep`: the Gaussian
conditional of beta given Sigma^-1 = P, at E_q[Sigma^-1], at
lambda * Sigma-hat^-1 or at a drawn P.
Each starts at the prior mean of Sigma^-1.  The step calls LAPACK potrf and
potrs directly, the routines under scipy's cho_factor and cho_solve, and
raises np.linalg.LinAlgError on a nonzero ``info``, as cho_factor did.
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
    prior and data set: X'X and X'Y are formed once and the Mp x Mp
    precision is assembled in one reused buffer.  The buffer is C-ordered,
    so potrf factors an F-ordered copy and leaves the buffer as it was.

    Gibbs uses it only on its dense route; a diagonal V0^-1 at large Mp is
    drawn without this buffer (``independent_mcmc._PcgBetaDraw``)."""

    def __init__(self, prior: IndependentPrior, data: DesignData):
        m, p = data.n_vars, data.n_regressors
        if prior.n_vars != m or prior.n_regressors != p:
            raise ValueError("prior and data dimensions disagree")
        self.prior = prior
        self.xtx = data.X.T @ data.X
        self.xty = data.X.T @ data.Y
        self._prec = np.empty((m * p, m * p))

    def __call__(self, prec):
        """(lower Cholesky factor of the conditional precision, conditional
        mean) at P, from LAPACK potrf and potrs; the strict upper triangle of
        the factor is not zeroed.  A precision that is not positive definite
        raises np.linalg.LinAlgError."""
        kron_add(self._prec, self.prior.cov_inv, prec, self.xtx)
        lower = lapack_checked(lapack.dpotrf(self._prec, lower=1, clean=0), "potrf")
        rhs = self.prior.cov_inv_mean + (self.xty @ prec).flatten(order="F")
        return lower, lapack_checked(lapack.dpotrs(lower, rhs, lower=1), "potrs")


def _omega(cov_b: np.ndarray, xtx: np.ndarray, m: int, p: int) -> np.ndarray:
    """Sum over t of Z_t cov_b Z_t': entries tr(cov_b[m-block, n-block] X'X)."""
    return np.einsum("akbl,kl->ab", cov_b.reshape(m, p, m, p), xtx)


# An ELBO step below -ELBO_FALL_TOL * max(1, |ELBO|) is a real decrease,
# not round-off; coordinate ascent cannot produce one at a correct update.
ELBO_FALL_TOL = 1e-11
# the most fixed-point steps a mode solver takes
MODE_MAX_ITERS = 1000


def _prior_quadratic(prior, db, cov_b):
    """(db' V0^-1 db, tr(V0^-1 cov_b)) as elementwise sums with the cached
    V0^-1.  einsum keeps these products off numpy's BLAS, whose thread pool
    would otherwise stall the next scipy factorisation (numpy and scipy each
    load their own OpenBLAS)."""
    v0_inv = prior.cov_inv
    return (float(np.einsum("i,ij,j->", db, v0_inv, db)),
            float(np.einsum("ij,ij->", v0_inv, cov_b)))


def fit_vb_independent(
    prior: IndependentPrior, data: DesignData, cfg: VbConfig | None = None
) -> IndependentVbPosterior:
    """Coordinate ascent: beta-block update given E[Sigma^-1], then scale
    update; stops when the relative increase of the closed-form ELBO, taken
    after each scale update, drops below tolerance.

    An ELBO decrease beyond round-off stops the iteration unconverged."""
    cfg = cfg or VbConfig()
    beta_step = _CoefficientStep(prior, data)
    m, p = data.n_vars, data.n_regressors
    nub = data.effective_T + prior.dof
    e_prec = prior.precision_mean

    trace = []
    converged = False
    mean_b = cov_b = scale_q = None
    for _ in range(cfg.max_iters):
        try:
            lq, mean_b = beta_step(e_prec)
            cov_b = chol_inverse(lq)
            resid = data.residuals(mean_b)
            omega = _omega(cov_b, beta_step.xtx, m, p)
            scale_q = prior.scale + resid.T @ resid + omega
            scale_q = (scale_q + scale_q.T) / 2.0
            scale_q_inv, logdet_scale_q = spd_inverse(scale_q, "scale_q")
        except (np.linalg.LinAlgError, NotPositiveDefiniteError) as exc:
            raise NotPositiveDefiniteError("Cholesky failure in VB update") from exc
        e_prec = nub * scale_q_inv
        trace.append(_elbo(prior, data, mean_b, cov_b, -chol_logdet(lq), logdet_scale_q, nub))
        if len(trace) > 1:
            step = trace[-1] - trace[-2]
            if step < -ELBO_FALL_TOL * max(abs(trace[-2]), 1.0):
                break
            if step / max(abs(trace[-2]), 1.0) < cfg.elbo_rel_tol:
                converged = True
                break
    return IndependentVbPosterior(
        mean_b=mean_b,
        cov_b=cov_b,
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
    return _elbo(prior, data, vb_post.mean_b, vb_post.cov_b,
                 chol_logdet(spd_cholesky(vb_post.cov_b, "cov_b")),
                 chol_logdet(spd_cholesky(vb_post.scale_q, "scale_q")), vb_post.dof)


def _elbo(prior, data, mean_b, cov_b, logdet_cov_b, logdet_scale_q, dof) -> float:
    """The closed-form ELBO from ln |cov_b|, ln |scale_q| and dof = T + prior dof."""
    t, m, p = data.effective_T, data.n_vars, data.n_regressors
    tr_term = sum(_prior_quadratic(prior, mean_b - prior.mean_b, cov_b))
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
    beta_step = _CoefficientStep(prior, data)
    m, p = data.n_vars, data.n_regressors
    dof_factor = data.effective_T + prior.dof - m - 1
    if dof_factor <= 0:
        raise UndefinedMomentError("mode iteration needs T + prior dof > M + 1")
    lam = 1.0 + (m + 1.0) / dof_factor if vb_corrected else 1.0
    prec = prior.precision_mean
    beta = np.asarray(prior.mean_b, dtype=float).copy()
    converged = False
    for it in range(MODE_MAX_ITERS):
        try:
            lq, beta_new = beta_step(lam * prec)
            resid = data.residuals(beta_new)
            scale = prior.scale + resid.T @ resid
            if vb_corrected:
                scale = scale + _omega(chol_inverse(lq), beta_step.xtx, m, p)
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
    return {"beta": beta, "precision": prec, "converged": converged}


def modes_exact_iterative(prior: IndependentPrior, data: DesignData, tol: float = 1e-10) -> dict:
    """Joint mode of the exact independent-prior posterior by fixed-point
    iteration on the stationarity conditions."""
    return _iterate_modes(prior, data, tol, vb_corrected=False)


def modes_vb_iterative(prior: IndependentPrior, data: DesignData, tol: float = 1e-10) -> dict:
    """Joint mode of the VB posterior via the lambda-corrected iteration,
    lambda = 1 + (M+1)/(T + prior dof - M - 1)."""
    return _iterate_modes(prior, data, tol, vb_corrected=True)
