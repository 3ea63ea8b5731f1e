"""Prior construction for conjugate and independent normal-Wishart VARs,
including Minnesota-style defaults.

The Minnesota rule implemented here: the prior variance of the coefficient
on lag l of variable j in equation m is

    lambda1^2 * (lambda2 if j != m else 1)^2 * (s_m^2 / s_j^2) / l^(2*lambda3)

with s_j^2 the residual variance of a univariate AR(d) least-squares fit.
Conjugacy forces a Kronecker structure, so the conjugate row covariance
drops the equation index: its diagonal uses 1/s_j^2 only (the s_m^2 factor
is supplied by the Wishart scale S = diag(s_1^2, ..., s_M^2)), and the
cross-variable lambda2 discount cannot be represented and is dropped.  The
independent prior carries the full rule per equation block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mvdist import check_fields, check_wishart_dof, set_fields, spd_inverse
from .vardata import DesignData, InsufficientObservationsError, lag_columns

__all__ = [
    "ConjugatePrior",
    "IndependentPrior",
    "MinnesotaConfig",
    "minnesota_conjugate",
    "minnesota_independent",
]


@dataclass(frozen=True)
class ConjugatePrior:
    """Normal-Wishart conjugate prior: Gamma | Sigma ~ MN(mean_G, Sigma, row_cov),
    Sigma^-1 ~ W(scale^-1, dof).

    Construction validates both SPD blocks and caches, read-only,
    ``row_cov_inv`` (V0^-1), ``logdet_row_cov``, ``scale_inv`` (S0^-1) and
    ``logdet_scale``.
    """

    mean_G: np.ndarray
    row_cov: np.ndarray
    scale: np.ndarray
    dof: float
    row_cov_inv: np.ndarray = field(init=False, repr=False, compare=False)
    logdet_row_cov: float = field(init=False, repr=False, compare=False)
    scale_inv: np.ndarray = field(init=False, repr=False, compare=False)
    logdet_scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = np.asarray(self.mean_G, dtype=float)
        row_cov_inv, logdet_row_cov = spd_inverse(self.row_cov, "row_cov")
        scale_inv, logdet_scale = spd_inverse(self.scale, "scale")
        p, m = g.shape
        if np.asarray(self.row_cov).shape != (p, p) or np.asarray(self.scale).shape != (m, m):
            raise ValueError("prior block shapes are inconsistent with mean_G")
        check_wishart_dof(self.dof, m)
        set_fields(self, mean_G=g, row_cov=self.row_cov, scale=self.scale,
                   row_cov_inv=row_cov_inv, logdet_row_cov=logdet_row_cov,
                   scale_inv=scale_inv, logdet_scale=logdet_scale, dof=float(self.dof))

    @property
    def n_vars(self) -> int:
        return self.mean_G.shape[1]

    @property
    def n_regressors(self) -> int:
        return self.mean_G.shape[0]


@dataclass(frozen=True)
class IndependentPrior:
    """Independent prior: beta ~ N(mean_b, cov), Sigma^-1 ~ W(scale^-1, dof).

    M is the order of ``scale`` and p = Mp / M.

    Construction validates both SPD blocks and caches, read-only, what every
    fitting routine needs of them: ``cov_inv`` (V0^-1), ``cov_inv_mean``
    (V0^-1 b0), ``logdet_cov``, ``scale_inv`` (S0^-1) and ``logdet_scale``.
    ``cov_inv_diag`` is the diagonal of ``cov_inv`` when ``cov_inv`` has no
    off-diagonal nonzero, as under the Minnesota prior, and None otherwise.
    """

    mean_b: np.ndarray
    cov: np.ndarray
    scale: np.ndarray
    dof: float
    cov_inv: np.ndarray = field(init=False, repr=False, compare=False)
    cov_inv_mean: np.ndarray = field(init=False, repr=False, compare=False)
    logdet_cov: float = field(init=False, repr=False, compare=False)
    scale_inv: np.ndarray = field(init=False, repr=False, compare=False)
    logdet_scale: float = field(init=False, repr=False, compare=False)
    cov_inv_diag: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = np.asarray(self.mean_b, dtype=float).reshape(-1)
        cov_inv, logdet_cov = spd_inverse(self.cov, "cov")
        scale_inv, logdet_scale = spd_inverse(self.scale, "scale")
        m = np.asarray(self.scale).shape[0]
        if b.size % m != 0:
            raise ValueError(f"mean_b size {b.size} is not a multiple of M={m}")
        if np.asarray(self.cov).shape != (b.size, b.size):
            raise ValueError("cov shape inconsistent with mean_b")
        check_wishart_dof(self.dof, m)
        # an SPD matrix has no zero on its diagonal, so Mp nonzeros mean no
        # off-diagonal one; np.diag returns a read-only view
        diag = np.diag(cov_inv) if np.count_nonzero(cov_inv) == b.size else None
        set_fields(self, mean_b=b, cov=self.cov, scale=self.scale,
                   cov_inv=cov_inv, cov_inv_mean=cov_inv @ b, logdet_cov=logdet_cov,
                   scale_inv=scale_inv, logdet_scale=logdet_scale, dof=float(self.dof),
                   cov_inv_diag=diag)

    @property
    def n_vars(self) -> int:
        return self.scale.shape[0]

    @property
    def n_regressors(self) -> int:
        return self.mean_b.size // self.n_vars

    @property
    def precision_mean(self) -> np.ndarray:
        """Prior mean of Sigma^-1, dof * S0^-1: where Gibbs, VB and the mode
        iterations start."""
        return self.dof * self.scale_inv


@dataclass(frozen=True)
class MinnesotaConfig:
    """Minnesota shrinkage hyperparameters.

    own_lag_mean 0 suits growth-rate data; 1 suits levels (random walk).
    """

    overall_tightness: float = 0.2      # lambda1
    cross_tightness: float = 1.0        # lambda2 in (0, 1]
    lag_decay: float = 1.0              # lambda3
    intercept_scale: float = 100.0      # lambda4
    own_lag_mean: float = 0.0
    dof_offset: int = 2

    def __post_init__(self):
        check_fields(self)
        if self.overall_tightness <= 0:
            raise ValueError("overall_tightness must be positive")
        if not 0 < self.cross_tightness <= 1:
            raise ValueError("cross_tightness must be in (0, 1]")
        if self.lag_decay < 0:
            raise ValueError("lag_decay must be nonnegative")
        if self.intercept_scale <= 0:
            raise ValueError("intercept_scale must be positive")
        if self.dof_offset < 1:
            raise ValueError("dof_offset must be >= 1")


def _ar_residual_variances(data: DesignData) -> np.ndarray:
    """Per-variable residual variance from univariate AR(d) least squares.

    Needs T_raw >= 2d + 2 (effective T >= d + 2), so each fit of d + 1
    coefficients keeps at least one residual degree of freedom; falls back
    to the sample variance when the fit is singular.
    """
    t, m = data.Y.shape
    d = data.lag_order
    if t < d + 2:
        raise InsufficientObservationsError(f"need T_raw >= 2d+2 for AR({d}) pre-fits")
    var = lag_columns(m, d)[1]
    out = np.empty(m)
    for j in range(m):
        # the intercept and the own lags of variable j, lag 1 first
        cols = np.concatenate(([0], 1 + np.flatnonzero(var == j)))
        xj = data.X[:, cols]
        yj = data.Y[:, j]
        coef, _, rank, _ = np.linalg.lstsq(xj, yj, rcond=None)
        if rank < len(cols):
            out[j] = float(np.var(yj, ddof=1))
        else:
            resid = yj - xj @ coef
            out[j] = float(resid @ resid / (t - len(cols)))
        if out[j] <= 0:
            out[j] = 1.0
    return out


def _mean_coefficients(m: int, d: int, own_lag_mean: float) -> np.ndarray:
    g = np.zeros((m * d + 1, m))
    np.fill_diagonal(g[1:1 + m], own_lag_mean)
    return g


def minnesota_conjugate(data: DesignData, cfg: MinnesotaConfig) -> ConjugatePrior:
    """Minnesota-style conjugate prior: diagonal row covariance, AR-based scales."""
    m, d = data.n_vars, data.lag_order
    s2 = _ar_residual_variances(data)
    lag, var = lag_columns(m, d)
    lags = cfg.overall_tightness**2 / (lag ** (2.0 * cfg.lag_decay) * s2[var])
    return ConjugatePrior(
        mean_G=_mean_coefficients(m, d, cfg.own_lag_mean),
        row_cov=np.diag(np.concatenate(([cfg.intercept_scale**2], lags))),
        scale=np.diag(s2),
        dof=m + cfg.dof_offset,
    )


def minnesota_independent(data: DesignData, cfg: MinnesotaConfig) -> IndependentPrior:
    """Minnesota-style independent prior: block-diagonal coefficient covariance.

    Block m scales the conjugate diagonal by s_m^2 and applies the lambda2
    discount to cross-variable lag entries.
    """
    m, d = data.n_vars, data.lag_order
    s2 = _ar_residual_variances(data)
    lag, var = lag_columns(m, d)
    cross = np.where(var == np.arange(m)[:, None], 1.0, cfg.cross_tightness)
    # row eq: the diagonal of equation eq's block
    table = np.column_stack((cfg.intercept_scale**2 * s2,
                             cfg.overall_tightness**2 * cross**2 * (s2[:, None] / s2[var])
                             / lag ** (2.0 * cfg.lag_decay)))
    return IndependentPrior(
        mean_b=_mean_coefficients(m, d, cfg.own_lag_mean).flatten(order="F"),
        cov=np.diag(table.ravel()),
        scale=np.diag(s2),
        dof=m + cfg.dof_offset,
    )
