"""The Gaussian conditional of the coefficients in the independent-prior VAR,

    beta | Sigma^-1 = P, Y ~ N(mean, V),  V^-1 = Q = V0^-1 + P kron X'X,

with mean = V (V0^-1 b0 + vec(X'Y P)), since Z_t = I_M kron x_t.  VB's
q(beta) update evaluates it at E_q[Sigma^-1], the mode iterations at
lambda * Sigma-hat^-1 and the Gibbs sweep draws from it at a drawn
Sigma^-1.  Each evaluation is one of two route classes, chosen once per
call from the prior; both give ``mean``, ``moments`` (mean, ln |V|, the
scale-update correction Omega with entries tr(V[m,n block] X'X), and
tr(V0^-1 V)), ``cov`` and ``draw(P, rng)``:

- dense (:class:`_CoefficientStep`): assembles Q, factors it by LAPACK
  potrf and inverts the factor by potri; O((Mp)^3) per step.  LAPACK is
  called directly, the routines under scipy's cho_factor and cho_solve, and
  a nonzero ``info`` raises np.linalg.LinAlgError, as cho_factor did.  A
  draw is mean + L^-T z with z ~ N(0, I_Mp), by trtrs.
- Kronecker (:class:`_KroneckerStep`), when V0^-1 = D is diagonal
  (``cov_inv_diag``, as under the Minnesota prior) and
  Mp >= _KRONECKER_MIN_MP.  Q is diagonalised by the eigenvectors of X'X
  and P scaled by a separable fit S^2 of D.  When D is separable to
  _SEPARABLE_RTOL (Minnesota with lambda2 = 1), the mean, ln |V|, Omega
  and tr(V0^-1 V) have closed forms in O(M^3 + p^3 + Mp(M + p)), and VB
  and the modes take this route; VB forms the dense V once, after its
  loop.  For any diagonal D, Gibbs draws by perturb-then-solve PCG on Q,
  with no Mp x Mp matrix and the exact separable solve as preconditioner.
  It draws 2 Mp normals where the dense draw takes Mp, so the two Gibbs
  routes give different streams.

The threshold, 300, is the measured crossover of the PCG draw.  Under the
Minnesota default lambda2 = 1, PCG converges in one or two iterations and
is the faster route from below Mp = 203.  A tighter lambda2 takes tens of
iterations, and 300 is the smallest Mp at which two-lag models are no
slower on PCG for every lambda2 down to 0.1.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .mvdist import chol_inverse, chol_logdet, kron_add, lapack_checked

# The Kronecker route needs a diagonal V0^-1 and Mp at least this; below it
# both routers take the dense route
_KRONECKER_MIN_MP = 300
# VB and the modes take the Kronecker route only when the separable fit S^2
# reproduces D to this relative error; Minnesota with lambda2 = 1 fits to
# about 1e-14, and lambda2 = 0.999 misses by 1e-3
_SEPARABLE_RTOL = 1e-12
# PCG stops at this relative residual, and raises after this many iterations
_PCG_RTOL = 1e-13
_PCG_MAX_ITERS = 500


def _kronecker_applies(prior) -> bool:
    """Whether V0^-1 is diagonal and Mp >= _KRONECKER_MIN_MP."""
    return prior.cov_inv_diag is not None and prior.mean_b.size >= _KRONECKER_MIN_MP


def _coefficient_step(prior, data):
    """The step of VB and the mode iterations: :class:`_KroneckerStep` when
    the Kronecker route applies and the separable fit is within
    _SEPARABLE_RTOL, :class:`_CoefficientStep` otherwise."""
    if _kronecker_applies(prior):
        step = _KroneckerStep(prior, data)
        if step.separable_error <= _SEPARABLE_RTOL:
            return step
    return _CoefficientStep(prior, data)


def _beta_draw(prior, data):
    """The beta | Sigma^-1 step of the Gibbs sweep: :class:`_KroneckerStep`
    on the eigh basis when the Kronecker route applies, whatever the
    separable fit, :class:`_CoefficientStep` otherwise."""
    if _kronecker_applies(prior):
        return _KroneckerStep(prior, data, jacobi=False)
    return _CoefficientStep(prior, data)


def _cross_products(prior, data):
    """(X'X, X'Y) once the prior and data dimensions are checked to agree."""
    if prior.n_vars != data.n_vars or prior.n_regressors != data.n_regressors:
        raise ValueError("prior and data dimensions disagree")
    return data.X.T @ data.X, data.X.T @ data.Y


def _omega(cov_b: np.ndarray, xtx: np.ndarray, m: int, p: int) -> np.ndarray:
    """Sum over t of Z_t cov_b Z_t': entries tr(cov_b[m-block, n-block] X'X)."""
    return np.einsum("akbl,kl->ab", cov_b.reshape(m, p, m, p), xtx)


def _prior_trace(prior, cov_b) -> float:
    """tr(V0^-1 cov_b) as an elementwise sum with the cached V0^-1.  einsum
    keeps this product, and the quadratic form of the ELBO, off numpy's
    BLAS, whose thread pool would otherwise stall the next scipy
    factorisation (numpy and scipy each load their own OpenBLAS)."""
    return float(np.einsum("ij,ij->", prior.cov_inv, cov_b))


def _jacobi_gram(g):
    """(eigenvalues, eigenvectors) of G'G from the one-sided Jacobi SVD of G
    (LAPACK gejsv, JOBA = 'C'), accurate to round-off in every direction
    however widely the columns of G are scaled.  The left vectors are
    computed and dropped: asked for the right ones alone, gejsv takes a
    shortcut that lost up to 5e-11 relative on tight Minnesota priors."""
    sva, _, v, work, _, info = lapack.dgejsv(g, joba=0)
    lapack_checked((None, info), "gejsv")
    return (sva * (work[0] / work[1])) ** 2, v


class _CoefficientStep:
    """The dense route: X'X and X'Y are formed once and the Mp x Mp
    precision is assembled in one reused buffer.  The buffer is C-ordered,
    so potrf factors an F-ordered copy and leaves the buffer as it was."""

    def __init__(self, prior, data):
        self.xtx, self.xty = _cross_products(prior, data)
        self.prior = prior
        self._prec = np.empty((prior.mean_b.size, prior.mean_b.size))
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

    def draw(self, prec, rng):
        """A draw at P: mean + L^-T z with z ~ N(0, I_Mp), L the factor of Q."""
        lower, mean = self(prec)
        return mean + lapack_checked(
            lapack.dtrtrs(lower, rng.standard_normal(mean.size), lower=1, trans=1), "trtrs")


class _KroneckerStep:
    """The Kronecker route for a diagonal V0^-1 = D and P kron A, A = X'X.

    D, as a p x M table, is fitted by (s_p s_M')^2, the least-squares fit of
    ln D by row plus column effects; ``separable_error`` = max |S^2 / D - 1|
    is zero to round-off under the Minnesota rule with lambda2 = 1.  With
    S = diag(vec(s_p s_M')) and the eigendecompositions
    A / s_p s_p' = U Lambda U' (once) and P / s_M s_M' = R Omega R' (per
    step),

        S^2 + P kron A = S (R kron U) (I + Omega kron Lambda) (R kron U)' S.

    For a separable D = S^2, with delta_ji = 1 / (1 + lambda_j omega_i),
    :meth:`mean`, :meth:`moments` and :meth:`cov` are closed forms:

    - mean = S^-1 (R kron U) Delta (R kron U)' S^-1 r;
    - ln |V| = -ln |D| - sum ln(1 + lambda_j omega_i);
    - Omega = S_M^-1 R diag(sum_j lambda_j delta_ji) R' S_M^-1;
    - diag V = S^-2 o (U o U) Delta (R o R)', which gives tr(D V).

    :meth:`draw` holds for any diagonal D.  It draws by perturb-then-solve
    (Papandreou & Yuille 2010): the two p x M slabs z1, Z2 of one
    standard-normal draw give

        eta = D^1/2 z1 + S_p U Lambda^1/2 Z2 Omega^1/2 R' S_M ~ N(0, Q),

    so the solution of Q beta = V0^-1 b0 + vec(X'Y P) + eta is the
    conditional draw.  The solve is preconditioned conjugate gradients on
    Q vec(B) = vec(D o B + A B P), O(p^2 M + p M^2) per product, with the
    exact separable solve as preconditioner, so CG stops after one or two
    iterations when D is separable.

    By default both eigendecompositions come from Jacobi SVDs
    (:func:`_jacobi_gram`), of X S_p^-1 and of L' S_M^-1 with P = L L'.
    Neither squares a scaled matrix, so the basis keeps its digits when s_p
    or s_M spreads over many decades, as under a tight Minnesota prior with
    a loose intercept.  ``jacobi=False`` takes both from numpy's eigh of the
    scaled matrices instead, which loses up to 1e-5 relative there.  The
    Gibbs draw keeps it, because the Jacobi basis changes its stream:
    ``compare`` at Mp = 820 moved by up to 0.25 relative, so the switch
    needs a seed gate over several seeds, not byte identity, and the
    per-draw ``eig`` took 170-220 us instead of 65-100 us (2 vCPUs).
    Every product is numpy's: mixing numpy's and scipy's BLAS makes single
    calls erratic."""

    def __init__(self, prior, data, jacobi=True):
        self.xtx, self.xty = _cross_products(prior, data)
        m, p = data.n_vars, data.n_regressors
        self.d = prior.cov_inv_diag.reshape((p, m), order="F")
        log_d = np.log(self.d)
        self.logdet_d = float(np.sum(log_d))
        self.s_p = np.exp(log_d.mean(axis=1) / 2.0)
        self.s_m = np.exp((log_d.mean(axis=0) - log_d.mean()) / 2.0)
        self.s = np.outer(self.s_p, self.s_m)
        self.separable_error = float(np.max(np.abs(self.s**2 / self.d - 1.0)))
        self.prior_term = prior.cov_inv_mean.reshape((p, m), order="F")
        self.jacobi = jacobi
        if jacobi:
            # gejsv needs as many rows as columns; zero rows leave X'X as it is
            padding = np.zeros((max(p - data.X.shape[0], 0), p))
            self.lam, self.u = _jacobi_gram(np.vstack((data.X / self.s_p, padding)))
        else:
            lam, self.u = np.linalg.eigh(self.xtx / np.outer(self.s_p, self.s_p))
            # X'X is positive semi-definite; clip round-off below zero
            self.lam = np.maximum(lam, 0.0)
        self.sqrt_d = np.sqrt(self.d)
        self.noise_left = self.s_p[:, None] * self.u * np.sqrt(self.lam)
        self._last = None

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

    def mean(self, prec):
        """The conditional mean at P."""
        _, r, shift = self.eig(prec)
        return self.solve(self.rhs(prec), r, shift).flatten(order="F")

    def moments(self, prec):
        """(mean, ln |V|, Omega, tr(V0^-1 V)) at P; the basis state is kept
        for :meth:`cov`."""
        _, r, shift = self.eig(prec)
        delta = 1.0 / shift
        self._last = r, delta
        omega = (r * (self.lam @ delta)) @ r.T / np.outer(self.s_m, self.s_m)
        diag_v = (self.u * self.u) @ delta @ (r * r).T / self.s**2
        return (self.solve(self.rhs(prec), r, shift).flatten(order="F"),
                -self.logdet_d - float(np.sum(np.log(shift))), omega,
                float(np.sum(self.d * diag_v)))

    def cov(self):
        """The dense V of the last :meth:`moments` call, exactly symmetric:
        V[(a,k), (b,l)] = sum_i R_ai R_bi (U Delta_i U')_kl / (s_ka s_lb),
        with Delta_i the i-th column of Delta; O(M^3 p^2), not O((Mp)^3)."""
        r, delta = self._last
        p, m = self.s.shape
        blocks = (self.u * delta.T[:, None, :]) @ self.u.T
        pairs = (r[:, None, :] * r[None, :, :]).reshape(m * m, m)
        cov = (pairs @ blocks.reshape(m, p * p)).reshape(m, m, p, p).transpose(
            0, 2, 1, 3).reshape(m * p, m * p)
        inv_s = 1.0 / self.s.flatten(order="F")
        cov *= inv_s[:, None]
        cov *= inv_s
        return (cov + cov.T) / 2.0

    def draw(self, prec, rng):
        """A draw at P by perturb-then-solve; PCG missing _PCG_RTOL within
        _PCG_MAX_ITERS raises np.linalg.LinAlgError."""
        omega, r, shift = self.eig(prec)
        eta = self.noise(rng.standard_normal((2, *self.sqrt_d.shape)), omega, r)
        return self.pcg(self.rhs(prec) + eta, prec, r, shift).flatten(order="F")

    def noise(self, z, omega, r):
        """eta = D^1/2 z1 + S_p U Lambda^1/2 Z2 Omega^1/2 R' S_M for z = (z1, Z2)."""
        return self.sqrt_d * z[0] + self.noise_left @ z[1] @ (
            self.s_m[:, None] * r * np.sqrt(omega)).T

    def pcg(self, rhs, prec, r, shift):
        """Q^-1 rhs for a p x M right-hand side, by preconditioned CG from 0;
        (r, shift) as returned by :meth:`eig` at P.  Missing the tolerance
        raises np.linalg.LinAlgError with the residual reached."""
        goal = _PCG_RTOL * np.linalg.norm(rhs)
        x = np.zeros_like(rhs)
        res = rhs.copy()
        direction = self.solve(res, r, shift)
        rz = np.vdot(res, direction)
        for _ in range(_PCG_MAX_ITERS):
            q = self.d * direction + self.xtx @ direction @ prec
            alpha = rz / np.vdot(direction, q)
            x += alpha * direction
            res -= alpha * q
            res_norm = np.linalg.norm(res)
            if res_norm <= goal:
                return x
            z = self.solve(res, r, shift)
            rz, rz_old = np.vdot(res, z), rz
            direction = z + (rz / rz_old) * direction
        raise np.linalg.LinAlgError(
            f"PCG reached relative residual {res_norm / np.linalg.norm(rhs):.2e}, not "
            f"{_PCG_RTOL:g}, in {_PCG_MAX_ITERS} iterations")
