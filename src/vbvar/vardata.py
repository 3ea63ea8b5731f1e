"""Raw-series ingestion and VAR(d) design-matrix construction.

Builds, from a raw (T_raw x M) float array, the effective-sample response
matrix Y (T x M) and regressor matrix X (T x p), p = M*d + 1, with rows
x_t = (1, y'_{t-1}, ..., y'_{t-d}), and rejects non-finite data; also the
stacked block form Z_t (``z_block``: no solver uses it, the tests check
``DesignData.residuals`` against it) and a seeded VAR(d) simulator.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .mvdist import set_fields

__all__ = [
    "CsvFormatError",
    "MissingValueError",
    "InsufficientObservationsError",
    "DesignData",
    "load_csv",
    "build_design",
    "lag_columns",
    "regressor_row",
    "simulate_var",
    "z_block",
]


class CsvFormatError(ValueError):
    """Malformed CSV input (empty, ragged, or non-numeric cell)."""


class MissingValueError(CsvFormatError):
    """A data cell is empty or not finite; names the offending row and column."""


class InsufficientObservationsError(ValueError):
    """Too few raw observations for the requested lag order."""


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
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
            raise ValueError("Y and X must be finite")
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
        last row of X; just (1,) at lag order 0."""
        if self.lag_order == 0:
            return np.ones(1)
        return np.concatenate(([1.0], self.Y[-1], self.X[-1, 1:-self.n_vars]))

    def residuals(self, beta) -> np.ndarray:
        """Y - X Gamma for beta = vec(Gamma), the p x M coefficient matrix
        stacked column by column (equation by equation)."""
        return self.Y - self.X @ np.reshape(beta, (self.n_regressors, self.n_vars), order="F")

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

    def log_likelihood(self, coefs, precs, logdet_precs) -> np.ndarray:
        """ln p(Y | C_i, W_i) of the Gaussian VAR, y_t ~ N(C_i' x_t, W_i^-1),
        for each C_i of an (n, p, M) coefficient stack and W_i of an
        (n, M, M) precision stack, given the n values ln |W_i|."""
        t, m = self.Y.shape
        return (-m * t / 2.0 * np.log(2.0 * np.pi) + t / 2.0 * logdet_precs
                - 0.5 * np.sum(precs * self.residual_crossprod(coefs), axis=(1, 2)))


def load_csv(path, has_timestamps: bool = False) -> np.ndarray:
    """Read a UTF-8 comma-delimited file with a header row into a
    (T_raw x M) float array, one column per variable.

    When ``has_timestamps`` is set the first column is skipped.
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
    data = np.empty((len(rows), len(names)))
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise CsvFormatError(
                f"{path}: row {i + 2} has {len(row)} fields, expected {len(header)}"
            )
        for j, cell in enumerate(row[start:]):
            text = cell.strip()
            if not text:
                raise MissingValueError(
                    f"{path}: empty cell at row {i + 2}, column '{names[j]}'"
                )
            try:
                value = float(text)
            except ValueError:
                raise CsvFormatError(
                    f"{path}: non-numeric value {text!r} at row {i + 2}, "
                    f"column '{names[j]}'"
                ) from None
            if not math.isfinite(value):
                raise MissingValueError(
                    f"{path}: non-finite value {text!r} at row {i + 2}, column '{names[j]}'"
                )
            data[i, j] = value
    return data


def build_design(values, lag_order: int) -> DesignData:
    """Assemble VAR(d) design matrices from a (T_raw x M) raw series.

    Row t of X is (1, y'_{t-1}, ..., y'_{t-d}); Y keeps rows d+1..T_raw,
    so the effective sample size is T_raw - d.
    """
    d = int(lag_order)
    if d < 1:
        raise ValueError(f"lag order must be >= 1, got {d}")
    values = np.array(values, dtype=float)  # a copy: Y shares no memory with the caller
    if values.ndim != 2 or values.shape[1] < 1:
        raise ValueError("the raw series must be a 2-D array with at least one column")
    t_raw, m = values.shape
    if t_raw <= d:
        raise InsufficientObservationsError(
            f"need more than d={d} observations, have {t_raw}"
        )
    lag, var = lag_columns(m, d)
    x = np.hstack((np.ones((t_raw - d, 1)), values[np.arange(d, t_raw)[:, None] - lag, var]))
    return DesignData(Y=values[d:], X=x, lag_order=d)


def lag_columns(n_vars: int, lag_order: int) -> tuple:
    """(lag, variable) index arrays of X's columns 1..p-1, the one statement
    of the regressor layout: column 1 + (l-1)*M + j holds lag l of variable j."""
    lag, var = np.divmod(np.arange(n_vars * lag_order), n_vars)
    return lag + 1, var


def regressor_row(x_next, p: int) -> np.ndarray:
    """x_next as a flat float row of the p regressors of a one-step forecast;
    raises ValueError when it has another number of entries."""
    x = np.asarray(x_next, dtype=float).reshape(-1)
    if x.size != p:
        raise ValueError(f"x_next must have p = {p} entries, got {x.size}")
    return x


def z_block(x_row, n_vars: int) -> np.ndarray:
    """Block-diagonal Z_t (M x Mp) with x_row repeated in each diagonal block.

    With beta stacking the columns of Gamma equation by equation,
    Z_t @ beta reproduces (x_t Gamma)'.
    """
    x = np.asarray(x_row, dtype=float).reshape(-1)
    return np.kron(np.eye(int(n_vars)), x)


def simulate_var(n_vars: int, lag_order: int, t_raw: int, seed: int) -> np.ndarray:
    """Simulate a stable (t_raw x n_vars) VAR(d) series with mildly
    correlated innovations, after a 50-step warm-up; deterministic given seed."""
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
    return values[warmup:]
