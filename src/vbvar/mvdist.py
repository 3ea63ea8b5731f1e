"""Matrix-variate distributions: matricvariate normal, Wishart, matricvariate t,
and the normal-Wishart one-step predictive moments.

The multivariate gamma ln Gamma_M(a) is ``scipy.special.multigammaln(a, M)``;
it does not check M >= 1, so its callers take M from a matrix shape or check it.

All types are immutable value objects.  Vectorization is column-major
throughout, so the covariance of vec(X) for a matricvariate normal with
column covariance ``Sigma`` and row covariance ``V`` is ``Sigma kron V``.
SPD inputs are validated by Cholesky factorization at construction; a
failure raises :class:`NotPositiveDefiniteError` instead of silently
regularizing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.linalg import cholesky, lapack, solve_triangular
from scipy.special import multigammaln

__all__ = [
    "NotPositiveDefiniteError",
    "UndefinedMomentError",
    "MatricNormal",
    "WishartDist",
    "MatricT",
    "normal_wishart_predictive",
]

_SYM_RTOL = 1e-12


class NotPositiveDefiniteError(ValueError):
    """A matrix required to be symmetric positive definite is not."""


class UndefinedMomentError(ValueError):
    """A requested moment does not exist at the given degrees of freedom."""


def _as_matrix(x, name):
    a = np.atleast_2d(np.asarray(x, dtype=float))
    if a.ndim != 2:
        raise ValueError(f"{name} must be a matrix, got ndim={a.ndim}")
    return a


def spd_cholesky(a, name="matrix"):
    """Lower Cholesky factor of a symmetric positive-definite matrix, or of
    each matrix of a (..., M, M) stack.

    Finiteness, then symmetry to relative tolerance 1e-12, is checked per
    matrix; either failing, or the factorization failing, raises
    :class:`NotPositiveDefiniteError`.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[-1] != a.shape[-2]:
        raise NotPositiveDefiniteError(f"{name} must be square, got {a.shape}")
    # the largest |entry| of each matrix is nan or inf when any entry is
    largest = np.abs(a).max(axis=(-2, -1))
    if not np.all(np.isfinite(largest)):
        raise NotPositiveDefiniteError(f"{name} is not finite")
    scale = np.maximum(largest, 1.0)
    if np.any(np.abs(a - np.swapaxes(a, -2, -1)).max(axis=(-2, -1)) > _SYM_RTOL * scale):
        raise NotPositiveDefiniteError(f"{name} is not symmetric")
    try:
        return cholesky(a, lower=True) if a.ndim == 2 else np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"{name} is not positive definite") from exc


def chol_logdet(lower):
    """ln |A| from the lower Cholesky factor of A; an array of them for a
    (..., M, M) stack of factors.  The array methods skip numpy's function
    wrappers, a few microseconds per call at M = 3, once per Gibbs draw."""
    return 2.0 * np.log(lower.diagonal(0, -2, -1)).sum(axis=-1)


def lapack_checked(result, routine):
    """The array of a raw LAPACK call's (array, info) result; a nonzero info
    raises np.linalg.LinAlgError naming ``routine``, as scipy's wrappers do."""
    out, info = result
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed with info={info}")
    return out


def chol_inverse(lower):
    """A^-1 from the lower Cholesky factor L of A, exactly symmetric.

    LAPACK potri inverts L and forms L^-T L^-1 in about a third of the work
    of two triangular solves against the identity.
    """
    inv = lapack_checked(lapack.dpotri(lower, lower=1), "potri")
    # potri fills the lower triangle; mirror it, then return the C-ordered view
    np.copyto(inv, inv.T, where=~np.tri(inv.shape[0], dtype=bool))
    return inv.T


def spd_inverse(a, name="matrix"):
    """(A^-1, ln |A|) for a symmetric positive-definite A, validated and
    factored by :func:`spd_cholesky`.

    A square A whose nonzeros are all on its diagonal d, each finite and
    positive, is not factored.  On such an A potrf returns sqrt(d), trtri
    inverts that and lauum squares it, each correctly rounded, and every
    other term they form is an exact zero.  The route takes the same three
    steps, so its inverse and its ln |A| = 2 sum ln sqrt(d) equal the
    factorisation's bit for bit; 1/d and sum ln d would not.  Only the sign
    of some off-diagonal zeros differs: potri leaves some as -0.0, in a
    pattern that changes with the BLAS thread count, where the route has
    +0.0.  Every other input, a zero, negative, nan or inf on the diagonal
    included, goes to :func:`spd_cholesky`, so it raises as that does.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.ndim == 2 and a.shape[0] == a.shape[1]:
        d = np.diagonal(a)
        if np.all(np.isfinite(d)) and np.all(d > 0) and np.count_nonzero(a) == d.size:
            root = np.sqrt(d)
            return np.diag((1.0 / root) ** 2), 2.0 * np.sum(np.log(root))
    lower = spd_cholesky(a, name)
    return chol_inverse(lower), chol_logdet(lower)


def kron_add(out, base, a, b):
    """out = base + kron(a, b), written in place into the preallocated
    (Mp x Mp) ``out`` for square a (M x M) and b (p x p); the products equal
    np.kron's bit for bit."""
    m, p = a.shape[0], b.shape[0]
    np.multiply(a[:, None, :, None], b[None, :, None, :], out=out.reshape(m, p, m, p))
    out += base
    return out


def set_fields(obj, **values):
    """Set fields of a frozen dataclass instance; a field annotated
    ``np.ndarray`` is stored as a read-only float array, any other as given."""
    types = {f.name: f.type for f in fields(obj)}
    for name, value in values.items():
        if types[name] in ("np.ndarray", np.ndarray):
            value = np.asarray(value, dtype=float)
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


def check_fields(obj):
    """Raise ValueError naming the first field of dataclass ``obj`` that is inf or nan,
    or is annotated int and holds no integer (a numpy integer is one, a bool is not)."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        if f.type in ("int", int) and not integer:
            raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if not np.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


def check_wishart_dof(dof, m):
    """Raise ValueError unless a Wishart dof is finite and exceeds M - 1."""
    if not (np.isfinite(dof) and dof > m - 1):
        raise ValueError(f"dof must be finite and exceed M-1 = {m - 1}, got {dof}")


@dataclass(frozen=True)
class MatricNormal:
    """Matricvariate normal MN(mean, col_cov, row_cov).

    mean is p x M, col_cov (Sigma) is M x M SPD, row_cov (V) is p x p SPD;
    vec(X) ~ N(vec(mean), Sigma kron V).
    """

    mean: np.ndarray
    col_cov: np.ndarray
    row_cov: np.ndarray
    _chol_col: np.ndarray = field(init=False, repr=False, compare=False)
    _chol_row: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = _as_matrix(self.mean, "mean")
        lc = spd_cholesky(self.col_cov, "col_cov")
        lr = spd_cholesky(self.row_cov, "row_cov")
        p, m = mean.shape
        if lc.shape[0] != m or lr.shape[0] != p:
            raise ValueError(
                f"shape mismatch: mean {mean.shape}, col_cov {lc.shape}, row_cov {lr.shape}"
            )
        set_fields(self, mean=mean, col_cov=_as_matrix(self.col_cov, "col_cov"),
                   row_cov=_as_matrix(self.row_cov, "row_cov"), _chol_col=lc, _chol_row=lr)

    @property
    def shape(self):
        return self.mean.shape

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """Draws mean + L_V Z_i L_Sigma' with each Z_i iid standard normal:
        one p x M matrix for ``size`` None, else an (n, p, M) stack of
        ``size`` = n, all from one (n, p, M) standard-normal call.  None is
        the stack at n = 1, so ``sample(rng)`` equals ``sample(rng, 1)[0]``."""
        p, m = self.mean.shape
        z = rng.standard_normal((1 if size is None else size, p, m))
        x = self.mean + self._chol_row @ z @ self._chol_col.T
        return x[0] if size is None else x

    def logpdf(self, x):
        """Log density at one p x M matrix (a float), or at each matrix of an
        (n, p, M) stack (an array of n values), computed without the
        Mp x Mp Kronecker covariance."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        p, m = self.mean.shape
        if x.shape[-2:] != (p, m) or x.ndim > 3:
            raise ValueError(f"x has shape {x.shape}, expected {(p, m)} or a stack of such")
        d = (x - self.mean).reshape(-1, p, m)
        n = d.shape[0]
        # tr(Sigma^-1 D_i' V^-1 D_i) = ||L_Sigma^-1 (L_V^-1 D_i)'||_F^2, two
        # triangular solves for the whole stack
        a = solve_triangular(self._chol_row, d.transpose(1, 0, 2).reshape(p, n * m),
                             lower=True)
        b = solve_triangular(self._chol_col, a.reshape(p * n, m).T, lower=True)
        quad = np.sum((b * b).reshape(m, p, n), axis=(0, 1))
        out = (
            -0.5 * m * p * np.log(2.0 * np.pi)
            - 0.5 * m * chol_logdet(self._chol_row)
            - 0.5 * p * chol_logdet(self._chol_col)
            - 0.5 * quad
        )
        return float(out[0]) if x.ndim < 3 else out


@dataclass(frozen=True)
class WishartDist:
    """Wishart W(scale, dof) over M x M SPD matrices, with mean dof * scale."""

    scale: np.ndarray
    dof: float
    _chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        l = spd_cholesky(self.scale, "scale")
        check_wishart_dof(self.dof, l.shape[0])
        set_fields(self, scale=_as_matrix(self.scale, "scale"), dof=float(self.dof), _chol=l)

    @property
    def dim(self) -> int:
        return self.scale.shape[0]

    def mean(self) -> np.ndarray:
        return self.dof * self.scale

    def var(self) -> np.ndarray:
        """Elementwise variance: var(w_ij) = dof * (s_ij^2 + s_ii s_jj)."""
        s = self.scale
        d = np.diag(s)
        return self.dof * (s**2 + np.outer(d, d))

    def mode(self) -> np.ndarray:
        """Mode (dof - M - 1) * scale, defined only when dof > M + 1."""
        m = self.dim
        if self.dof <= m + 1:
            raise UndefinedMomentError(f"Wishart mode needs dof > M+1 = {m + 1}, got {self.dof}")
        return (self.dof - m - 1) * self.scale

    def logpdf(self, w):
        """Log density at one M x M matrix (a float), or at each matrix of
        an (n, M, M) stack (an array of n values)."""
        w = np.atleast_2d(np.asarray(w, dtype=float))
        m = self.dim
        if w.shape[-2:] != (m, m) or w.ndim > 3:
            raise ValueError(f"w must be {m} x {m} or a stack of such, got {w.shape}")
        out = self.logpdf_chol(spd_cholesky(w.reshape(-1, m, m), "w"))
        return float(out[0]) if w.ndim < 3 else out

    def logpdf_chol(self, lw) -> np.ndarray:
        """Log density at each W_i = L_i L_i' of an (n, M, M) stack of lower
        Cholesky factors, for callers that already hold them."""
        n, m = lw.shape[0], self.dim
        nu = self.dof
        # tr(scale^-1 W_i) = ||L_S^-1 L_Wi||_F^2, one solve for the whole stack
        a = solve_triangular(self._chol, lw.transpose(1, 0, 2).reshape(m, n * m),
                             lower=True)
        tr = np.sum((a * a).reshape(m, n, m), axis=(0, 2))
        return (
            (nu - m - 1) / 2.0 * chol_logdet(lw)
            - 0.5 * tr
            - nu * m / 2.0 * np.log(2.0)
            - nu / 2.0 * chol_logdet(self._chol)
            - multigammaln(nu / 2.0, m)
        )

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """SPD draws by the Bartlett decomposition: :func:`bartlett_draw` on
        the scale's lower Cholesky factor, one M x M matrix for ``size``
        None, else an (n, M, M) stack of ``size`` = n."""
        return bartlett_draw(self._chol, self.dof, rng, size)


# the Gibbs sweep asks for (M, 1) once per draw, so its entry stays cached
@functools.lru_cache(maxsize=16)
def _bartlett_slots(m: int, n: int):
    """Offsets 0..m-1 and the flat indices of the diagonals, shape (n, m),
    and of the strict lower triangles, shape (n, m(m-1)/2), of an
    (n, m, m) stack, built once per (m, n)."""
    rows, cols = np.tril_indices(m, -1)
    offsets = np.arange(m)
    start = np.arange(n)[:, None] * (m * m)
    slots = (offsets, start + offsets * (m + 1), start + rows * m + cols)
    for a in slots:
        a.setflags(write=False)  # shared by every caller
    return slots


def bartlett_draw(root, dof: float, rng: np.random.Generator,
                  size: int | None = None) -> np.ndarray:
    """Wishart W(F F', dof) draws from any square root F of the scale, by
    the Bartlett decomposition W_i = (F A_i)(F A_i)': one M x M matrix for
    ``size`` None, else an (n, M, M) stack of ``size`` = n.

    F may be the lower Cholesky factor of the scale, as
    :meth:`WishartDist.sample` passes it, or L^-T for the factor L of the
    scale's inverse, as the Gibbs sweep passes it: each gives the same law,
    but not the same W from the same A.  Each A_i is lower triangular.  One
    chi-square call draws the (n, M) diagonals, sqrt(chi2(dof - j)) at
    entry j, then one standard-normal call the (n, M(M-1)/2) strict lower
    triangles; at M = 1 that call has size zero and leaves the generator
    as it was.  None is the stack at n = 1, so ``bartlett_draw(F, dof,
    rng)`` equals ``bartlett_draw(F, dof, rng, 1)[0]``.  The caller checks
    dof > M - 1.
    """
    m, n = root.shape[0], 1 if size is None else size
    offsets, diag, strict = _bartlett_slots(m, n)
    a = np.zeros(n * m * m)
    a[diag] = np.sqrt(rng.chisquare(dof - offsets, diag.shape))
    a[strict] = rng.standard_normal(strict.shape)
    fa = root @ a.reshape(n, m, m)
    w = fa @ fa.transpose(0, 2, 1)
    return w[0] if size is None else w


@dataclass(frozen=True)
class MatricT:
    """Matricvariate t MT(mean, col_scale, row_scale, dof).

    mean is p x q; Var[vec(X)] = (col_scale kron row_scale) / (dof - q - 1),
    defined for dof > q + 1.  Arises by compounding MN(mean, Sigma, row_scale)
    over Sigma with a Wishart law on Sigma^-1.
    """

    mean: np.ndarray
    col_scale: np.ndarray
    row_scale: np.ndarray
    dof: float

    def __post_init__(self):
        mean = _as_matrix(self.mean, "mean")
        lc = spd_cholesky(self.col_scale, "col_scale")
        lr = spd_cholesky(self.row_scale, "row_scale")
        p, q = mean.shape
        if lc.shape[0] != q or lr.shape[0] != p:
            raise ValueError("shape mismatch between mean, col_scale, row_scale")
        set_fields(self, mean=mean, col_scale=_as_matrix(self.col_scale, "col_scale"),
                   row_scale=_as_matrix(self.row_scale, "row_scale"), dof=float(self.dof))

    def vec_variance(self) -> np.ndarray:
        q = self.mean.shape[1]
        if self.dof <= q + 1:
            raise UndefinedMomentError(
                f"matricvariate-t variance needs dof > q+1 = {q + 1}, got {self.dof}"
            )
        return np.kron(self.col_scale, self.row_scale) / (self.dof - q - 1)


def normal_wishart_predictive(mean, normal_cov, error_scale, dof) -> dict:
    """One-step predictive moments of y = mean + u + e: u ~ N(0, normal_cov)
    from the coefficients, and e ~ N(0, Sigma) with
    Sigma^-1 ~ W(error_scale^-1, dof), a multivariate t.

    Returns the record every closed-form predictive returns: ``mean``,
    ``variance`` = normal_cov + t_dof * t_shape / (t_dof - 2), ``normal_cov``,
    ``t_shape`` = error_scale / t_dof and ``t_dof``.  The t rule lives here
    alone.  It takes t_dof = dof, the paper's rule; the compound law has t dof
    dof - M + 1, which the simulation oracles show at M > 1 (ROADMAP item 1).
    """
    t_dof = float(dof)
    if not (np.isfinite(t_dof) and t_dof > 2):
        raise UndefinedMomentError(f"t dof must be finite and exceed 2, got {t_dof}")
    t_shape = error_scale / t_dof
    return {
        "mean": mean,
        "variance": normal_cov + t_dof * t_shape / (t_dof - 2.0),
        "normal_cov": normal_cov,
        "t_shape": t_shape,
        "t_dof": t_dof,
    }
