"""Raw-series ingestion and VAR(d) design-matrix construction.

Builds the effective-sample response matrix Y (T x M) and regressor matrix
X (T x p), p = M*d + 1, with rows x_t = (1, y'_{t-1}, ..., y'_{t-d});
also the stacked block form Z_t used by the independent-prior machinery,
and a seeded simulator of stable VAR(d) series for tests and demos.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .mvdist import set_fields

__all__ = [
    "CsvFormatError",
    "MissingValueError",
    "InsufficientObservationsError",
    "RawSeries",
    "DesignData",
    "load_csv",
    "build_design",
    "simulate_var",
    "z_block",
]


class CsvFormatError(ValueError):
    """Malformed CSV input (empty, ragged, or non-numeric cell)."""


class MissingValueError(CsvFormatError):
    """A data cell is empty; names the offending row and column."""


class InsufficientObservationsError(ValueError):
    """Too few raw observations for the requested lag order."""


@dataclass(frozen=True)
class RawSeries:
    """Multivariate series: values (T_raw x M), variable names, optional timestamps."""

    values: np.ndarray
    names: tuple
    timestamps: tuple | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("values must be a 2-D array")
        if v.shape[1] < 1:
            raise ValueError("need at least one variable")
        if not np.all(np.isfinite(v)):
            raise MissingValueError("values contain non-finite entries")
        if len(self.names) != v.shape[1]:
            raise ValueError("names length must equal number of columns")
        set_fields(self, values=v, names=tuple(self.names),
                   timestamps=None if self.timestamps is None else tuple(self.timestamps))

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def n_vars(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class DesignData:
    """Effective-sample design: Y (T x M), X (T x p) with intercept first."""

    Y: np.ndarray
    X: np.ndarray
    lag_order: int

    def __post_init__(self):
        y = np.asarray(self.Y, dtype=float)
        x = np.asarray(self.X, dtype=float)
        if y.ndim != 2 or x.ndim != 2 or y.shape[0] != x.shape[0]:
            raise ValueError("Y and X must be 2-D with equal row counts")
        m = y.shape[1]
        if x.shape[1] != m * self.lag_order + 1:
            raise ValueError(
                f"X has {x.shape[1]} columns, expected p = M*d+1 = {m * self.lag_order + 1}"
            )
        set_fields(self, Y=y, X=x)

    @property
    def effective_T(self) -> int:
        return self.Y.shape[0]

    @property
    def n_vars(self) -> int:
        return self.Y.shape[1]

    @property
    def n_regressors(self) -> int:
        return self.X.shape[1]

    def next_regressors(self) -> np.ndarray:
        """Regressor row x_{T+1} = (1, y_T', ..., y_{T-d+1}') of the one-step
        forecast: the last row of Y, then the first d-1 lag blocks of the
        last row of X."""
        lags = self.X[-1, 1:1 + self.n_vars * (self.lag_order - 1)]
        return np.concatenate(([1.0], self.Y[-1], lags))

    def residual_crossprod(self, coefs) -> np.ndarray:
        """(Y - X C_i)'(Y - X C_i) for each C_i of an (n, p, M) coefficient
        stack, as an (n, M, M) stack.

        One QR of X = QR gives E = Y - Q Q'Y and D_i = Q'Y - R C_i, and the
        cross-product is E'E + D_i'D_i: O(n p M) memory instead of a stack
        of n residual matrices.
        """
        q, r = np.linalg.qr(self.X)
        qty = q.T @ self.Y
        e = self.Y - q @ qty
        d = qty - r @ coefs
        return e.T @ e + d.transpose(0, 2, 1) @ d


def load_csv(path, has_timestamps: bool = False) -> RawSeries:
    """Read a UTF-8 comma-delimited file with a header row into a RawSeries.

    When ``has_timestamps`` is set the first column is kept as string
    metadata and the remaining columns become variables.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: file is empty") from None
        rows = list(reader)
    if not rows:
        raise CsvFormatError(f"{path}: no data rows below the header")
    start = 1 if has_timestamps else 0
    names = [h.strip() for h in header[start:]]
    if not names:
        raise CsvFormatError(f"{path}: no variable columns")
    timestamps = [] if has_timestamps else None
    data = np.empty((len(rows), len(names)))
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise CsvFormatError(
                f"{path}: row {i + 2} has {len(row)} fields, expected {len(header)}"
            )
        if has_timestamps:
            timestamps.append(row[0].strip())
        for j, cell in enumerate(row[start:]):
            text = cell.strip()
            if not text:
                raise MissingValueError(
                    f"{path}: empty cell at row {i + 2}, column '{names[j]}'"
                )
            try:
                data[i, j] = float(text)
            except ValueError:
                raise CsvFormatError(
                    f"{path}: non-numeric value {text!r} at row {i + 2}, "
                    f"column '{names[j]}'"
                ) from None
    return RawSeries(values=data, names=tuple(names),
                     timestamps=tuple(timestamps) if timestamps is not None else None)


def build_design(series: RawSeries, lag_order: int) -> DesignData:
    """Assemble VAR(d) design matrices from a raw series.

    Row t of X is (1, y'_{t-1}, ..., y'_{t-d}); Y keeps rows d+1..T_raw,
    so the effective sample size is T_raw - d.
    """
    d = int(lag_order)
    if d < 1:
        raise ValueError(f"lag order must be >= 1, got {d}")
    t_raw, m = series.values.shape
    if t_raw <= d:
        raise InsufficientObservationsError(
            f"need more than d={d} observations, have {t_raw}"
        )
    t_eff = t_raw - d
    y = series.values[d:]
    x = np.empty((t_eff, m * d + 1))
    x[:, 0] = 1.0
    for lag in range(1, d + 1):
        x[:, 1 + (lag - 1) * m: 1 + lag * m] = series.values[d - lag: t_raw - lag]
    return DesignData(Y=y, X=x, lag_order=d)


def z_block(x_row, n_vars: int) -> np.ndarray:
    """Block-diagonal Z_t (M x Mp) with x_row repeated in each diagonal block.

    With beta stacking the columns of Gamma equation by equation,
    Z_t @ beta reproduces (x_t Gamma)'.
    """
    x = np.asarray(x_row, dtype=float).reshape(-1)
    return np.kron(np.eye(int(n_vars)), x)


def simulate_var(n_vars: int, lag_order: int, t_raw: int, seed: int) -> RawSeries:
    """Simulate a stable VAR(d) series with mildly correlated innovations,
    after a 50-step warm-up; deterministic given seed."""
    rng = np.random.default_rng(seed)
    m, d = n_vars, lag_order
    coefs = []
    for lag in range(d):
        a = rng.standard_normal((m, m)) / np.sqrt(m)
        coefs.append(0.5 * a / (lag + 1) ** 2)
    # scale the lag matrices so the companion spectral radius is at most 0.9
    comp = np.zeros((m * d, m * d))
    for lag, a in enumerate(coefs):
        comp[:m, lag * m:(lag + 1) * m] = a
    if d > 1:
        comp[m:, :-m] = np.eye(m * (d - 1))
    rho = np.max(np.abs(np.linalg.eigvals(comp)))
    if rho > 0.9:
        coefs = [a * 0.9 / rho for a in coefs]
    intercept = 0.1 * rng.standard_normal(m)
    corr = 0.3 * rng.standard_normal((m, m))
    chol = np.linalg.cholesky(np.eye(m) + corr @ corr.T / m)
    warmup = 50
    values = np.zeros((t_raw + warmup, m))
    values[:d] = rng.standard_normal((d, m))
    for t in range(d, t_raw + warmup):
        mean = intercept.copy()
        for lag, a in enumerate(coefs):
            mean = mean + a @ values[t - lag - 1]
        values[t] = mean + chol @ rng.standard_normal(m)
    return RawSeries(values=values[warmup:], names=tuple(f"y{j}" for j in range(m)))
