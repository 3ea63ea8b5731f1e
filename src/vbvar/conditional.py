"""The Gaussian conditional of the coefficients in the independent-prior VAR,

    beta | Sigma^-1 = P, Y ~ N(mean, V),  V^-1 = Q = V0^-1 + P kron X'X,

with mean = V (V0^-1 b0 + vec(X'Y P)), since Z_t = I_M kron x_t.  VB's
q(beta) update evaluates it at E_q[Sigma^-1], the mode iterations at
lambda * Sigma-hat^-1 and the Gibbs sweep draws from it at a drawn
Sigma^-1.  Each evaluation is one of two route classes, chosen once per
call from the prior; both give ``mean``, ``moments`` (mean, the
scale-update correction Omega with entries tr(V[m,n block] X'X), and V as
a state) and ``draw(P, rng)``.  The step keeps nothing: each ``moments``
call returns a new state, a value object that nothing changes, and VB's
posterior carries the last one as the covariance of q(beta).  Each route's
state holds ln |V| and tr(V0^-1 V) (``logdet``, ``prior_trace``: the ELBO
reads them there) and gives ``cov`` (the dense V), ``logpdf`` (ln N(beta;
mean, V) over a stack of draws) and ``normal_part`` (Z V Z' for one
regressor row, the normal part of the predictive); only ``cov`` forms V.

- dense (:class:`_CoefficientStep`): assembles Q and factors it, Q = L L',
  by LAPACK potrf; O((Mp)^3) per step.  LAPACK is called directly, and a
  nonzero ``info`` raises np.linalg.LinAlgError.  A draw is mean + L^-T z
  with z ~ N(0, I_Mp), by trtrs.  Its state (:class:`_DenseCovariance`) is
  L and L^-1 by trtri: no potri forms V, and ``logpdf`` whitens by L'.
- Kronecker (:class:`_KroneckerStep`), when V0^-1 = D is diagonal
  (``cov_inv_diag``, as under the Minnesota prior) and Mp reaches the
  router's threshold.  Q is diagonalised by the eigenvectors of X'X
  and P scaled by a separable fit S^2 of D.  When D is separable to
  _SEPARABLE_RTOL (Minnesota with lambda2 = 1), the mean, ln |V|, Omega
  and tr(V0^-1 V) have closed forms in O(M^3 + p^3 + Mp(M + p)), and VB
  and the modes take this route from Mp = _SEPARABLE_MIN_MP.  Its state
  (:class:`_KroneckerCovariance`) is the basis and the last step's
  eigenvectors and eigenvalues, in which ``logpdf`` and ``normal_part``
  have closed forms too, with no factor.  For any diagonal D, Gibbs draws
  from Mp = _KRONECKER_MIN_MP by perturb-then-solve PCG on Q, with no
  Mp x Mp matrix and the exact separable solve as preconditioner.
  It draws 2 Mp normals where the dense draw takes Mp, so the two Gibbs
  routes give different streams.

The other half of each iteration is the Sigma^-1 | beta conditional,
W(S^-1, T + prior dof) with S = S0 + E'E (+ Omega), the same Wishart for
all three loops: VB takes E_q[Sigma^-1] = (T + prior dof) F F' and ln |S|
at E_q[beta] (with Omega), the modes (T + prior dof - M - 1) F F' at the
current beta (with Omega for the VB mode), and Gibbs a Bartlett draw from
F at a drawn beta.  :func:`_precision_step` returns S, its factor L,
S = L L', and F = L^-T, from one potrf and one trtri, so no loop runs
potri; only VB takes ln |S| from L.

Each router states its own threshold, measured on 2 vCPUs at 2 BLAS
threads under the Minnesota prior.  _KRONECKER_MIN_MP = 300 is the
crossover of the PCG draw.  Under the default lambda2 = 1, PCG converges in
one or two iterations and is the faster route from below Mp = 203.  A
tighter lambda2 takes tens of iterations, and 300 is the smallest Mp at
which two-lag models are no slower on PCG for every lambda2 down to 0.1.
_SEPARABLE_MIN_MP = 100 serves VB and the modes, whose Kronecker step is
taken only for a separable D and has no iterations, so lambda2 costs it
nothing.  VB plus both mode iterations took about as long on either route
at Mp = 55 (4.1 ms dense, 4.2 ms Kronecker), and 6.2 against 5.1 ms at
Mp = 84, 7.5 against 4.4 ms at Mp = 100 and 27 against 4.8 ms at Mp = 203;
100 sits above the crossover.  Between 100 and about 180 the Kronecker
state's ``logpdf`` over a chain is a few ms slower than the dense trmm, so
RIS gives back part of that saving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from .mvdist import chol_logdet, kron_add, lapack_checked

# The Gibbs draw takes the Kronecker route (PCG) for a diagonal V0^-1 at Mp
# at least this, and VB and the modes, whose step is a closed form for a
# separable V0^-1, at Mp at least the second; below each, the dense route
_KRONECKER_MIN_MP = 300
_SEPARABLE_MIN_MP = 100
# VB and the modes take the Kronecker route only when the separable fit S^2
# reproduces D to this relative error; Minnesota with lambda2 = 1 fits to
# about 1e-14, and lambda2 = 0.999 misses by 1e-3
_SEPARABLE_RTOL = 1e-12
# PCG stops at this relative residual, and raises after this many iterations
_PCG_RTOL = 1e-13
_PCG_MAX_ITERS = 500


def _kronecker_applies(prior, min_mp) -> bool:
    """Whether V0^-1 is diagonal and Mp >= ``min_mp``."""
    return prior.cov_inv_diag is not None and prior.mean_b.size >= min_mp


def _coefficient_step(prior, data):
    """The step of VB and the mode iterations: :class:`_KroneckerStep` for a
    diagonal V0^-1 at Mp >= _SEPARABLE_MIN_MP whose separable fit is within
    _SEPARABLE_RTOL, where every output is a closed form;
    :class:`_CoefficientStep` otherwise."""
    if _kronecker_applies(prior, _SEPARABLE_MIN_MP):
        step = _KroneckerStep(prior, data)
        if step.separable_error <= _SEPARABLE_RTOL:
            return step
    return _CoefficientStep(prior, data)


def _beta_draw(prior, data):
    """The beta | Sigma^-1 step of the Gibbs sweep: :class:`_KroneckerStep`
    on the eigh basis for a diagonal V0^-1 at Mp >= _KRONECKER_MIN_MP,
    whatever the separable fit, :class:`_CoefficientStep` otherwise."""
    if _kronecker_applies(prior, _KRONECKER_MIN_MP):
        return _KroneckerStep(prior, data, jacobi=False)
    return _CoefficientStep(prior, data)


def _cross_products(prior, data):
    """(X'X, X'Y) once the prior and data dimensions are checked to agree."""
    if prior.n_vars != data.n_vars or prior.n_regressors != data.n_regressors:
        raise ValueError("prior and data dimensions disagree")
    return data.X.T @ data.X, data.X.T @ data.Y


def _prior_precision_rows(prior, db):
    """V0^-1 times each row of ``db`` (or db @ V0^-1 for a vector).  A
    diagonal V0^-1 scales by ``cov_inv_diag``: the dense product adds only
    exact zeros to the same products, so both give the same bits."""
    return db @ prior.cov_inv if prior.cov_inv_diag is None else db * prior.cov_inv_diag


def _precision_step(prior, data, beta, omega=None):
    """The Sigma^-1 | beta conditional W(S^-1, T + prior dof) at ``beta``:
    (S, L, F) for the scale S = S0 + E'E (+ Omega), with E the residuals at
    beta, its lower Cholesky factor L, S = L L', and F = L^-T, so
    F F' = S^-1.  VB takes ln |S| from L; Gibbs and the modes need only F.
    E'E is symmetric as formed (numpy's A'A is one syrk); with Omega, which
    is symmetric only to round-off, S is symmetrised.  One potrf and one
    trtri give F; potri is not called, because its second half, lauum,
    wakes scipy's BLAS thread pool even at M = 20.  A failed factor, or a
    diagonal of L that is not finite (potrf passes an infinite one),
    raises np.linalg.LinAlgError."""
    resid = data.residuals(beta)
    scale = prior.scale + resid.T @ resid
    if omega is not None:
        scale = scale + omega
        scale = (scale + scale.T) / 2.0
    # trtri writes only the lower triangle; clean=1 leaves zeros above it, so
    # the whole array is L^-1
    lower = lapack_checked(lapack.dpotrf(scale, lower=1, clean=1), "potrf")
    if not np.isfinite(lower.diagonal()).all():
        raise np.linalg.LinAlgError("the Sigma^-1 conditional's scale is not finite")
    return scale, lower, lapack_checked(lapack.dtrtri(lower, lower=1), "trtri").T


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

    def __call__(self, prec):
        """(lower Cholesky factor L of the conditional precision, conditional
        mean) at P, from LAPACK potrf and potrs; the strict upper triangle of
        L is zeroed.  A precision that is not positive definite raises
        np.linalg.LinAlgError."""
        kron_add(self._prec, self.prior.cov_inv, prec, self.xtx)
        lower = lapack_checked(lapack.dpotrf(self._prec, lower=1, clean=1), "potrf")
        rhs = self.prior.cov_inv_mean + (self.xty @ prec).flatten(order="F")
        return lower, lapack_checked(lapack.dpotrs(lower, rhs, lower=1), "potrs")

    def mean(self, prec):
        """The conditional mean at P."""
        return self(prec)[1]

    def moments(self, prec):
        """(mean, Omega, state) at P, with the state a
        :class:`_DenseCovariance` of L, L^-1 by trtri, ln |V| = -2 sum ln L_kk
        and tr(V0^-1 V) = sum (L^-1 V0^-1) o L^-1."""
        lower, mean = self(prec)
        # trtri of L' (upper) gives L^-T in F order, which is L^-1 in C order,
        # each row one M x p block, with no second copy
        li = lapack_checked(lapack.dtrtri(lower.T, lower=0), "trtri").T
        state = _DenseCovariance(lower, li, -chol_logdet(lower), float(
            np.einsum("ij,ij->", _prior_precision_rows(self.prior, li), li)))
        return mean, state.zvz(self.xtx), state

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
    :meth:`mean` and :meth:`moments` are closed forms, as is every method of
    the returned :class:`_KroneckerCovariance`:

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
        """(mean, Omega, state) at P, with the state a
        :class:`_KroneckerCovariance` of V in the basis, ln |V| and tr(V0^-1 V)."""
        _, r, shift = self.eig(prec)
        delta = 1.0 / shift
        diag_v = (self.u * self.u) @ delta @ (r * r).T / self.s**2
        state = _KroneckerCovariance(self.u, self.s_p, self.s_m, r, delta,
                                     -self.logdet_d - float(np.sum(np.log(shift))),
                                     float(np.sum(self.d * diag_v)))
        return (self.solve(self.rhs(prec), r, shift).flatten(order="F"),
                state.zvz(self.lam), state)

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


@dataclass(frozen=True, eq=False)
class _DenseCovariance:
    """V as :meth:`_CoefficientStep.moments` returns it: the factor L of
    V^-1 = L L' and Li = L^-1 in C order, so V = Li' Li, with ln |V| and
    tr(V0^-1 V).  Besides :meth:`cov`, the products are scipy's trmm and
    stacks of M x p matmuls too small for OpenBLAS to thread, so none wakes
    numpy's thread pool."""

    lower: np.ndarray
    li: np.ndarray
    logdet: float
    prior_trace: float

    def cov(self):
        """The dense V = Li' Li."""
        return self.li.T @ self.li

    def logpdf(self, betas, mean):
        """ln N(beta_i; mean, V) for each row beta_i of ``betas``, whitened by
        z_i = L' (beta_i - mean), with every row in one trmm and no factor."""
        z = blas.dtrmm(1.0, self.lower, (betas - mean).T, lower=1, trans_a=1, overwrite_b=1)
        return -0.5 * (mean.size * np.log(2.0 * np.pi) + self.logdet + np.sum(z * z, axis=0))

    def normal_part(self, x):
        """Z V Z' for one regressor row x, Z = I_M kron x'."""
        return self.zvz(np.outer(x, x))

    def zvz(self, a):
        """sum_t Z_t V Z_t' over regressor rows x_t with sum_t x_t x_t' = a:
        sum_r G_r a G_r', with G_r the row r of Li as an M x p block.  Over
        the rows of X, a = X'X, which gives Omega; O(Mp M p (M + p))."""
        g = self.li.reshape(self.li.shape[0], -1, a.shape[0])
        return (g @ a @ g.transpose(0, 2, 1)).sum(axis=0)


@dataclass(frozen=True, eq=False)
class _KroneckerCovariance:
    """V as :meth:`_KroneckerStep.moments` returns it, in the step's basis:

        V = S^-1 (R kron U) Delta (R kron U)' S^-1,

    with U, s_p and s_M fixed per fit and R, Delta = 1 / (1 + Lambda Omega')
    from the step at P, and the ln |V| = -ln |D| - sum ln(1 + Lambda Omega')
    and tr(V0^-1 V) that ``moments`` computed with them.
    Only :meth:`cov` forms an Mp x Mp matrix."""

    u: np.ndarray
    s_p: np.ndarray
    s_m: np.ndarray
    r: np.ndarray
    delta: np.ndarray
    logdet: float
    prior_trace: float

    def cov(self):
        """The dense V, exactly symmetric:
        V[(a,k), (b,l)] = sum_i R_ai R_bi (U Delta_i U')_kl / (s_ka s_lb),
        with Delta_i the i-th column of Delta; O(M^3 p^2), not O((Mp)^3)."""
        r, delta = self.r, self.delta
        p, m = delta.shape
        blocks = (self.u * delta.T[:, None, :]) @ self.u.T
        pairs = (r[:, None, :] * r[None, :, :]).reshape(m * m, m)
        cov = (pairs @ blocks.reshape(m, p * p)).reshape(m, m, p, p).transpose(
            0, 2, 1, 3).reshape(m * p, m * p)
        inv_s = 1.0 / np.outer(self.s_p, self.s_m).flatten(order="F")
        cov *= inv_s[:, None]
        cov *= inv_s
        return (cov + cov.T) / 2.0

    def logpdf(self, betas, mean):
        """ln N(beta_i; mean, V) for each row beta_i of ``betas``, whitened in
        the basis with no factor: for the p x M tables B_i and B of beta_i and
        mean, W_i = U' (S o (B_i - B)) R gives the quadratic form
        sum W_i^2 / Delta, with the state's ln |V|; O(Mp(M + p)) per row."""
        p, m = self.delta.shape
        tables = (betas - mean).reshape(-1, m, p).transpose(0, 2, 1)
        w = self.u.T @ (np.outer(self.s_p, self.s_m) * tables) @ self.r
        return (-mean.size / 2.0 * np.log(2.0 * np.pi) - 0.5 * self.logdet
                - 0.5 * np.sum(w * w / self.delta, axis=(1, 2)))

    def normal_part(self, x):
        """Z V Z' for one regressor row x, Z = I_M kron x'."""
        c = self.u.T @ (x / self.s_p)
        return self.zvz(c * c)

    def zvz(self, weights):
        """sum_t Z_t V Z_t' over regressor rows x_t whose squared coordinates
        (U' x_t / s_p)^2 sum to ``weights``:
        S_M^-1 R diag(weights' Delta) R' S_M^-1.  Over the rows of X the
        weights are Lambda, which gives Omega."""
        return (self.r * (weights @ self.delta)) @ self.r.T / np.outer(self.s_m, self.s_m)
