"""Coordinate-ascent mean-field VB for the independent-prior VAR, ELBO
monitoring, VB predictive moments, and iterative joint-mode schemes for
both the exact and the VB posterior.

Per-observation sums exploit Z_t = I_M kron x_t: the coefficient-update
precision is V0^-1 + E[Sigma^-1] kron X'X and the scale-update correction
Omega has entries tr(Vq[m,n block] X'X).  The prior's V0^-1, S0^-1 and
log-determinants are cached on the prior; each iteration factors the
coefficient precision once and inverts that factor once.

Gibbs, coordinate-ascent VB and both mode iterations share one coefficient
step, :class:`_CoefficientStep`: the Gaussian conditional of beta given
Sigma^-1 = P, at a drawn P, at E_q[Sigma^-1] or at lambda * Sigma-hat^-1.
Each starts at the prior mean of Sigma^-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .mvdist import (
    MultivariateT,
    NotPositiveDefiniteError,
    UndefinedMomentError,
    WishartDist,
    chol_inverse,
    chol_logdet,
    kron_add,
    mv_log_gamma,
    set_fields,
    spd_cholesky,
    spd_inverse,
)
from .priors import IndependentPrior
from .vardata import DesignData

__all__ = [
    "VbConfig",
    "IndependentVbPosterior",
    "fit_vb_independent",
    "elbo_independent",
    "predictive_vb_independent",
    "modes_exact_iterative",
    "modes_vb_iterative",
    "log_posterior_independent",
]


@dataclass(frozen=True)
class VbConfig:
    """Coordinate-ascent settings."""

    max_iters: int = 500
    elbo_rel_tol: float = 1e-9

    def __post_init__(self):
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
    n_vars: int
    elbo_trace: tuple
    converged: bool

    def __post_init__(self):
        set_fields(self, mean_b=self.mean_b, cov_b=self.cov_b, scale_q=self.scale_q,
                   elbo_trace=tuple(self.elbo_trace))

    @property
    def iterations(self) -> int:
        return len(self.elbo_trace)

    @property
    def n_regressors(self) -> int:
        return self.mean_b.size // self.n_vars

    def expected_precision(self) -> np.ndarray:
        return self.dof * spd_inverse(self.scale_q, "scale_q")[0]

    def precision_density(self) -> WishartDist:
        return WishartDist(spd_inverse(self.scale_q, "scale_q")[0], self.dof)

    def coef_matrix(self) -> np.ndarray:
        """mean_b reshaped to the p x M coefficient layout."""
        return self.mean_b.reshape((self.n_regressors, self.n_vars), order="F")


class _CoefficientStep:
    """beta | Sigma^-1 = P, Y ~ N(mean, (V0^-1 + P kron X'X)^-1) for one
    prior and data set: X'X and X'Y are formed once and the Mp x Mp
    precision is assembled in one reused buffer."""

    def __init__(self, prior: IndependentPrior, data: DesignData):
        x, y = data.X, data.Y
        m, p = y.shape[1], x.shape[1]
        if prior.n_vars != m or prior.n_regressors != p:
            raise ValueError("prior and data dimensions disagree")
        self.prior = prior
        self.xtx = x.T @ x
        self.xty = x.T @ y
        self._prec = np.empty((m * p, m * p))

    def __call__(self, prec):
        """(cho_factor of the conditional precision, conditional mean) at P;
        the factor overwrites the buffer, so it lasts until the next call."""
        kron_add(self._prec, self.prior.cov_inv, prec, self.xtx)
        factor = cho_factor(self._prec, lower=True, overwrite_a=True, check_finite=False)
        rhs = self.prior.cov_inv_mean + (self.xty @ prec).flatten(order="F")
        return factor, cho_solve(factor, rhs, check_finite=False)


def _omega(cov_b: np.ndarray, xtx: np.ndarray, m: int, p: int) -> np.ndarray:
    """Sum over t of Z_t cov_b Z_t': entries tr(cov_b[m-block, n-block] X'X)."""
    return np.einsum("akbl,kl->ab", cov_b.reshape(m, p, m, p), xtx)


# An ELBO step below -ELBO_FALL_TOL * max(1, |ELBO|) is a real decrease,
# not round-off; coordinate ascent cannot produce one at a correct update.
ELBO_FALL_TOL = 1e-11


def _elbo_value(prior, data, mean_b, cov_b, logdet_cov_b, omega, q_prec) -> float:
    """ELBO E_q[ln p(y, theta)] + H[q], valid at any (q_beta, q_prec) pair."""
    x, y = data.X, data.Y
    t, m = y.shape
    p = x.shape[1]
    e_prec = q_prec.mean()
    e_logdet = q_prec.expected_logdet()
    resid = y - x @ mean_b.reshape((p, m), order="F")
    lp_y = (
        -m * t / 2.0 * np.log(2.0 * np.pi)
        + t / 2.0 * e_logdet
        - 0.5 * float(np.sum(e_prec * (resid.T @ resid + omega)))
    )
    db = mean_b - prior.mean_b
    quad, tr_vv = _prior_quadratic(prior, db, cov_b)
    lp_b = (-m * p / 2.0 * np.log(2.0 * np.pi) - 0.5 * prior.logdet_cov
            - 0.5 * (quad + tr_vv))
    lp_w = (
        -mv_log_gamma(m, prior.dof / 2.0)
        - prior.dof * m / 2.0 * np.log(2.0)
        + prior.dof / 2.0 * prior.logdet_scale
        + (prior.dof - m - 1) / 2.0 * e_logdet
        - 0.5 * float(np.sum(prior.scale * e_prec))
    )
    h_b = m * p / 2.0 * (1.0 + np.log(2.0 * np.pi)) + 0.5 * logdet_cov_b
    h_w = q_prec.entropy()
    return lp_y + lp_b + lp_w + h_b + h_w


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
    update; stops when the relative ELBO increase drops below tolerance.

    An ELBO decrease beyond round-off stops the iteration unconverged."""
    cfg = cfg or VbConfig()
    beta_step = _CoefficientStep(prior, data)
    x, y = data.X, data.Y
    t, m = y.shape
    p = x.shape[1]
    nub = t + prior.dof
    e_prec = prior.precision_mean

    trace = []
    converged = False
    mean_b = cov_b = scale_q = None
    for _ in range(cfg.max_iters):
        try:
            lq, mean_b = beta_step(e_prec)
            cov_b = chol_inverse(lq[0])
            resid = y - x @ mean_b.reshape((p, m), order="F")
            omega = _omega(cov_b, beta_step.xtx, m, p)
            scale_q = prior.scale + resid.T @ resid + omega
            scale_q = (scale_q + scale_q.T) / 2.0
            q_prec = WishartDist(spd_inverse(scale_q, "scale_q")[0], nub)
        except (np.linalg.LinAlgError, NotPositiveDefiniteError) as exc:
            raise NotPositiveDefiniteError("Cholesky failure in VB update") from exc
        e_prec = q_prec.mean()
        elbo = _elbo_value(prior, data, mean_b, cov_b, -chol_logdet(lq[0]), omega, q_prec)
        trace.append(elbo)
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
        n_vars=m,
        elbo_trace=tuple(trace),
        converged=converged,
    )


def elbo_independent(
    prior: IndependentPrior,
    vb_post: IndependentVbPosterior,
    data: DesignData,
) -> float:
    """Closed-form ELBO at the VB fixed point.

    The leading constant is M*p/2, which the Monte-Carlo check confirms;
    the source display prints p/2, and the two coincide for M = 1.
    """
    x, y = data.X, data.Y
    t, m = y.shape
    p = x.shape[1]
    nub = vb_post.dof
    logdet_vq = chol_logdet(spd_cholesky(vb_post.cov_b, "cov_b"))
    logdet_sq = chol_logdet(spd_cholesky(vb_post.scale_q, "scale_q"))
    tr_term = sum(_prior_quadratic(prior, vb_post.mean_b - prior.mean_b, vb_post.cov_b))
    return (
        m * p / 2.0
        - m * t / 2.0 * np.log(np.pi)
        + mv_log_gamma(m, nub / 2.0)
        - mv_log_gamma(m, prior.dof / 2.0)
        + 0.5 * (logdet_vq - prior.logdet_cov)
        + 0.5 * (-nub * logdet_sq + prior.dof * prior.logdet_scale)
        - 0.5 * tr_term
    )


def predictive_vb_independent(vb_post: IndependentVbPosterior, x_next) -> dict:
    """One-step VB predictive: mean Z beta_q, variance
    Z Vq Z' + scale_q / (dof - 2); density queries via seeded simulation
    from the normal + t sum."""
    if vb_post.dof <= 2:
        raise UndefinedMomentError("VB predictive variance needs dof > 2")
    x = np.asarray(x_next, dtype=float).reshape(-1)
    m, p = vb_post.n_vars, vb_post.n_regressors
    if x.size != p:
        raise ValueError(f"x_next must have p = {p} entries")
    mean = x @ vb_post.coef_matrix()
    # Z Vq Z' entries: x' Vq[m-block, n-block] x
    zvz = np.empty((m, m))
    for a in range(m):
        for b in range(a, m):
            blk = vb_post.cov_b[a * p:(a + 1) * p, b * p:(b + 1) * p]
            zvz[a, b] = zvz[b, a] = float(x @ blk @ x)
    t_comp = MultivariateT(np.zeros(m), vb_post.scale_q / vb_post.dof, vb_post.dof)
    variance = zvz + vb_post.scale_q / (vb_post.dof - 2.0)

    def sample(rng: np.random.Generator, size: int) -> np.ndarray:
        n = int(size)
        lz = np.linalg.cholesky(zvz + 1e-12 * np.trace(zvz) / m * np.eye(m)) \
            if np.abs(zvz).max() > 0 else np.zeros((m, m))
        normal_part = rng.standard_normal((n, m)) @ lz.T
        return mean + normal_part + t_comp.sample(rng, size=n)

    return {
        "mean": mean,
        "variance": variance,
        "normal_cov": zvz,
        "t_component": t_comp,
        "sample": sample,
    }


def log_posterior_independent(prior: IndependentPrior, data: DesignData,
                              beta, precision) -> float:
    """Log posterior kernel (up to the data constant) at (beta, Sigma^-1)."""
    x, y = data.X, data.Y
    t, m = y.shape
    p = x.shape[1]
    beta = np.asarray(beta, dtype=float).reshape(-1)
    resid = y - x @ beta.reshape((p, m), order="F")
    db = beta - prior.mean_b
    sign, logdet = np.linalg.slogdet(precision)
    if sign <= 0:
        return -np.inf
    return (
        0.5 * (t + prior.dof - m - 1) * logdet
        - 0.5 * float(db @ prior.cov_inv @ db)
        - 0.5 * float(np.sum(np.asarray(precision) * (prior.scale + resid.T @ resid)))
    )


def _iterate_modes(prior, data, tol, max_iters, vb_corrected):
    beta_step = _CoefficientStep(prior, data)
    x, y = data.X, data.Y
    t, m = y.shape
    p = x.shape[1]
    dof_factor = t + prior.dof - m - 1
    if dof_factor <= 0:
        raise UndefinedMomentError("mode iteration needs T + prior dof > M + 1")
    lam = 1.0 + (m + 1.0) / dof_factor if vb_corrected else 1.0
    prec = prior.precision_mean
    beta = np.asarray(prior.mean_b, dtype=float).copy()
    converged = False
    for _ in range(max_iters):
        lq, beta_new = beta_step(lam * prec)
        resid = y - x @ beta_new.reshape((p, m), order="F")
        scale = prior.scale + resid.T @ resid
        if vb_corrected:
            scale = scale + _omega(chol_inverse(lq[0]), beta_step.xtx, m, p)
        prec_new = dof_factor * spd_inverse((scale + scale.T) / 2.0, "scale")[0]
        delta = max(
            float(np.max(np.abs(beta_new - beta))) / max(float(np.max(np.abs(beta_new))), 1e-12),
            float(np.max(np.abs(prec_new - prec))) / max(float(np.max(np.abs(prec_new))), 1e-12),
        )
        beta, prec = beta_new, prec_new
        if delta < tol:
            converged = True
            break
    return {"beta": beta, "precision": prec, "converged": converged}


def modes_exact_iterative(prior: IndependentPrior, data: DesignData,
                          tol: float = 1e-10, max_iters: int = 1000) -> dict:
    """Joint mode of the exact independent-prior posterior by fixed-point
    iteration on the stationarity conditions."""
    return _iterate_modes(prior, data, tol, max_iters, vb_corrected=False)


def modes_vb_iterative(prior: IndependentPrior, data: DesignData,
                       tol: float = 1e-10, max_iters: int = 1000) -> dict:
    """Joint mode of the VB posterior via the lambda-corrected iteration,
    lambda = 1 + (M+1)/(T + prior dof - M - 1)."""
    return _iterate_modes(prior, data, tol, max_iters, vb_corrected=True)
