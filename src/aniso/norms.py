"""Norms on R^d (d = 2 or 3), their derivatives, and dual (polar) norms.

A norm here is a positively 1-homogeneous convex gauge phi with phi(v) > 0 for
v != 0 and phi(-v) = phi(v).  The dual norm is

    phi_polar(u) = sup { u . v : phi(v) <= 1 },

which is what measures distances to Wulff shapes elsewhere in the package.
``norm.dual()`` is the family's closed-form polar, a Norm built once, with
``norm.dual().dual() is norm``.  ``DualNorm(norm)`` is the numeric oracle
(projected ascent plus Newton), also the polar of a family without one.

All evaluation methods are vectorized: they accept arrays of shape (..., d)
and return (...) for scalars, (..., d) for gradients and (..., d, d) for
Hessians.

Families
--------
euclidean          |v|
ellipse(Q)         sqrt(v^T Q v), Q symmetric positive definite
lp(p, weights)     (sum_i w_i |v_i|^p)^(1/p), p > 1
smoothmax(eps)     Minkowski gauge of a level set of
                   g(v) = eps*log(sum_i exp(v_i/eps) + exp(-v_i/eps));
                   smooth, uniformly convex, tends to linf as eps -> 0
l1, linf           crystalline norms (no Hessian, gradient off the
                   coordinate hyperplanes / off tie directions only)
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    ConvergenceError,
    InvalidArgumentError,
    NonUniqueMaximizerError,
    SingularPointError,
    UnsupportedOperationError,
)

_EPS_ZERO = 1e-300
# stationarity tolerance of the numeric dual-norm solver
_SOLVER_TOL = 1e-10


def _as_points(v, dim):
    v = np.asarray(v, dtype=float)
    if v.shape == () or v.shape[-1] != dim:
        raise InvalidArgumentError(f"expected vectors of dimension {dim}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidArgumentError("non-finite input vector")
    return v


def _newton(residual, x0, target, what):
    """Solve value(x) = target for a batch, point by point.

    ``residual(x, idx)`` gives (value, slope) of the points ``idx`` of the
    batch (a slice or an index array) at their iterates ``x``.  A point stops
    at the first step where its own value is within 1e-14 max(1, |target|)
    of the target, and takes that step too, so its result depends only on its
    own input, not on the batch it shares.  Stopped points are dropped from
    the working set only once fewer than half of it still runs.  Raises
    ConvergenceError after 64 steps, with ``best`` the iterates (final for the
    points that stopped) and ``stuck`` the flat indices of the points that did
    not.  Its users: `SmoothedMaxNorm._solve_sigma`,
    `_SmoothedMaxPolar._maximizer` and `shapes._TwoBubbleProfile._newton_exit`,
    which bisects the stuck rays alone.
    """
    tol = 1e-14 * max(1.0, abs(target))
    x = np.array(x0, dtype=float)
    idx = slice(None)
    run = np.ones(x.shape, dtype=bool)
    for _ in range(64):
        xs = x[idx]
        value, slope = residual(xs, idx)
        f = value - target
        x[idx] = np.where(run, xs - f / slope, xs)
        run &= ~(np.abs(f) < tol)
        left = np.count_nonzero(run)
        if left == 0:
            return x
        if 2 * left < run.size:
            idx = np.flatnonzero(run) if isinstance(idx, slice) else idx[run]
            f = f[run]
            run = np.ones(left, dtype=bool)
    stuck = np.flatnonzero(run) if isinstance(idx, slice) else idx[run]
    raise ConvergenceError(f"{what} Newton solve did not converge in 64 steps",
                           best=x, gap=float(np.max(np.abs(f[run]))), stuck=stuck)


def _bordered_solve(a, col, row, top, bottom=0.0):
    """The (N, d + 1, k) solutions z of the bordered (KKT) systems [[a, col], [row, 0]]
    z = [top; bottom]: a (N, d, d), col and row (N, d), top and bottom broadcast."""
    n, d = col.shape
    big = np.zeros((n, d + 1, d + 1))
    big[:, :d, :d] = a
    big[:, :d, d] = col
    big[:, d, :d] = row
    rhs = np.zeros((n, d + 1, np.shape(top)[-1]))
    rhs[:, :d] = top
    rhs[:, d] = bottom
    return np.linalg.solve(big, rhs)


# columns per block of a smoothmax solve: a block's working arrays stay
# within a 2 MB per-core cache, where batches of 10^5 points do not
_BLOCK = 16384


def _by_blocks(solve, rows):
    """solve applied to blocks of _BLOCK columns of the (d, N) array rows,
    joined along the last axis.  Exact because every column's solve depends
    only on that column (see `_newton`)."""
    n = rows.shape[-1]
    if n <= _BLOCK:
        return solve(rows)
    return np.concatenate([solve(np.ascontiguousarray(rows[:, i:i + _BLOCK]))
                           for i in range(0, n, _BLOCK)], axis=-1)


# The smoothmax kernels hold a batch as contiguous coordinate rows, (d, N),
# and reduce over the 2 or 3 coordinates by an explicit left-to-right fold,
# (x0 + x1) + x2.  That is numpy's own order for a short contiguous last axis,
# so every value is bit for bit what an axis=-1 sum or max gives; folding
# whole rows is vectorised, where a reduction along a length-2 or length-3
# axis runs a strided inner loop per point.
def _fold(op, rows):
    """op folded left to right over the rows of a (d, N) array."""
    out = op(rows[0], rows[1])
    for row in rows[2:]:
        op(out, row, out=out)
    return out


def _off_origin(value, v):
    """value of the contiguous (d, n) rows of v's points off the origin; 0 there."""
    out = np.zeros(v.shape[:-1])
    nz = _fold(np.maximum, np.abs(v.T)) > 0.0
    if np.any(nz):
        out[nz] = value(np.ascontiguousarray(v.T[:, nz]))
    return out


class Norm:
    """Base class.  Instances are immutable (but for the polar that dual()
    builds once) and safe for shared reads."""

    family = "abstract"
    smooth = True            # C^2 away from 0
    _polar = None            # set by dual()

    def __init__(self, dim):
        if dim not in (2, 3):
            raise InvalidArgumentError("only ambient dimensions 2 and 3 are supported")
        self.dim = dim

    # -- evaluation ------------------------------------------------------

    def eval(self, v):
        out = self._batched(self._eval, v, ())
        return float(out) if out.ndim == 0 else out

    __call__ = eval

    def grad(self, v):
        return self._batched(self._grad, v, (self.dim,), check=True)

    def hess(self, v):
        if not self.smooth:
            raise UnsupportedOperationError(f"{self.family} norm has no Hessian")
        return self._batched(self._hess, v, (self.dim, self.dim), check=True)

    def _batched(self, kernel, v, tail, check=False):
        """kernel on the (N, d) rows of points of shape (..., d), shaped back
        to (...) + tail."""
        v = _as_points(v, self.dim)
        flat = v.reshape(-1, self.dim)
        if check:
            self._check_grad_domain(flat)
        return kernel(flat).reshape(v.shape[:-1] + tail)

    def dual(self) -> "Norm":
        """The polar norm, built once; ``norm.dual().dual() is norm``."""
        if self._polar is None:
            polar = self._dual_partner()
            # a polar already linked to another norm keeps its link
            if polar._polar is None:
                polar._polar = self
            self._polar = polar
        return self._polar

    # -- hooks for subclasses -------------------------------------------

    def _eval(self, v):  # (N, d) -> (N,)
        raise NotImplementedError

    def _grad(self, v):
        raise NotImplementedError

    def _hess(self, v):
        raise NotImplementedError

    def _check_grad_domain(self, v):
        if np.any(np.all(np.abs(v) < _EPS_ZERO, axis=-1)):
            raise SingularPointError("gradient undefined at the origin")

    def _dual_partner(self):
        """A new polar norm: the family's closed form, else the numeric engine."""
        return DualNorm(self)

    @property
    def spec_string(self):
        raise NotImplementedError

    def __repr__(self):
        return f"<Norm {self.spec_string} dim={self.dim}>"


class EuclideanNorm(Norm):
    family = "euclidean"

    def _eval(self, v):
        return np.linalg.norm(v, axis=-1)

    def _grad(self, v):
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    def _hess(self, v):
        r = np.linalg.norm(v, axis=-1)
        u = v / r[..., None]
        eye = np.eye(self.dim)
        return (eye - u[..., :, None] * u[..., None, :]) / r[..., None, None]

    def _dual_partner(self):
        return EuclideanNorm(self.dim)

    @property
    def spec_string(self):
        return "euclidean"


class EllipseNorm(Norm):
    """phi(v) = sqrt(v^T Q v) with Q symmetric positive definite."""

    family = "ellipse"

    def __init__(self, Q):
        Q = np.asarray(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise InvalidArgumentError("Q must be a square matrix")
        super().__init__(Q.shape[0])
        if not np.all(np.isfinite(Q)):
            raise InvalidArgumentError(
                f"ellipse entries must be finite, got {float(Q[~np.isfinite(Q)][0])!r}")
        if not np.allclose(Q, Q.T, atol=1e-12):
            raise InvalidArgumentError("Q must be symmetric")
        try:
            np.linalg.cholesky(Q)
        except np.linalg.LinAlgError as exc:
            raise InvalidArgumentError("Q must be positive definite") from exc
        self.Q = 0.5 * (Q + Q.T)
        self.Q_inv = np.linalg.inv(self.Q)
        if not np.all(np.isfinite(self.Q_inv)):
            raise InvalidArgumentError(
                f"ellipse entries {', '.join(repr(float(x)) for x in Q.reshape(-1))} have no "
                "representable polar: the inverse of Q overflows")

    def _eval(self, v):
        # v^T Q v as a sum of (v_i Q_ij) v_j in row-major order, which is what
        # einsum gives for a large batch; einsum's order changes for batches
        # of one or two 2D points, so a point's value depended on its batch
        acc = np.zeros(v.shape[:-1])
        for i in range(self.dim):
            for j in range(self.dim):
                acc += (v[..., i] * self.Q[i, j]) * v[..., j]
        return np.sqrt(acc)

    def _grad(self, v):
        qv = v @ self.Q
        return qv / self._eval(v)[..., None]

    def _hess(self, v):
        qv = v @ self.Q
        phi = self._eval(v)
        return (self.Q[None, :, :] - qv[:, :, None] * qv[:, None, :] / (phi**2)[:, None, None]) / phi[:, None, None]

    def _dual_partner(self):
        return EllipseNorm(self.Q_inv)

    @property
    def spec_string(self):
        entries = ",".join(repr(float(x)) for x in self.Q.reshape(-1))
        return f"ellipse:{entries}"


class WeightedLpNorm(Norm):
    """phi(v) = (sum_i w_i |v_i|^p)^(1/p), p > 1, w_i > 0.

    C^1 away from 0 for every p > 1; C^2 away from the coordinate
    hyperplanes, and C^2 everywhere off 0 when p >= 2.
    """

    family = "lp"

    def __init__(self, dim, p, weights=None):
        super().__init__(dim)
        p = float(p)
        if not (math.isfinite(p) and p > 1.0):
            raise InvalidArgumentError(
                f"lp family requires a finite p > 1, got {p!r} "
                "(use l1/linf for the crystalline cases)")
        if not p / (p - 1.0) > 1.0:
            raise InvalidArgumentError(
                f"lp exponent {p!r} is too large: its polar exponent p/(p - 1) rounds to 1")
        self.p = p
        w = np.ones(dim) if weights is None else np.asarray(weights, dtype=float)
        if w.shape != (dim,):
            raise InvalidArgumentError(f"lp weights must have {dim} entries, one per coordinate")
        bad = w[~(np.isfinite(w) & (w > 0))]
        if bad.size:
            raise InvalidArgumentError(f"lp weights must be finite and positive, got {float(bad[0])!r}")
        # the polar's weights w^(1 - q) must be floats too: for p near 1, q is huge
        q = p / (p - 1.0)
        with np.errstate(over="ignore"):
            polar_w = w ** (1.0 - q)
        if not np.all(np.isfinite(polar_w) & (polar_w > 0)):
            raise InvalidArgumentError(
                f"lp exponent {p!r} with weights {', '.join(repr(float(x)) for x in w)} has "
                f"no representable polar: its weights w^(1 - q), q = p/(p - 1) = {q:.6g}, "
                "underflow to 0 or overflow")
        self.weights = w

    def _eval(self, v):
        av = np.abs(v)
        m = np.max(av, axis=-1, keepdims=True)
        m = np.where(m == 0.0, 1.0, m)
        # scale out the max to stay finite for very large p
        s = np.sum(self.weights * (av / m) ** self.p, axis=-1)
        out = m[..., 0] * s ** (1.0 / self.p)
        return np.where(np.max(av, axis=-1) == 0.0, 0.0, out)

    def _grad(self, v):
        phi = self._eval(v)
        av = np.abs(v)
        return (self.weights * np.sign(v) * av ** (self.p - 1.0)) * phi[..., None] ** (1.0 - self.p)

    def _hess(self, v):
        p = self.p
        av = np.abs(v)
        if p < 2.0 and np.any(np.min(av, axis=-1) < 1e-12 * np.max(av, axis=-1)):
            raise SingularPointError("lp Hessian with p < 2 is singular on coordinate hyperplanes")
        phi = self._eval(v)[:, None, None]
        w = self.weights
        g1 = w * np.sign(v) * av ** (p - 1.0)          # phi^(p-1) * grad
        diag = np.zeros((v.shape[0], self.dim, self.dim))
        idx = np.arange(self.dim)
        diag[:, idx, idx] = w * av ** (p - 2.0)
        return (p - 1.0) * (phi ** (1.0 - p) * diag - phi ** (1.0 - 2.0 * p) * g1[:, :, None] * g1[:, None, :])

    def _dual_partner(self):
        q = self.p / (self.p - 1.0)
        return WeightedLpNorm(self.dim, q, self.weights ** (1.0 - q))

    @property
    def spec_string(self):
        if np.allclose(self.weights, 1.0):
            return f"lp:{self.p!r}"
        return f"lp:{self.p!r}:" + ",".join(repr(float(w)) for w in self.weights)


class SmoothedMaxNorm(Norm):
    """Smooth uniformly convex approximation of the max norm.

    phi is the Minkowski gauge of K = { v : g(v) <= g(e1) } where
    g(v) = eps * log( sum_i exp(v_i/eps) + exp(-v_i/eps) ).  The level-set
    gauge keeps exact 1-homogeneity while inheriting the C-infinity
    smoothness and strict convexity of g; phi(e1) = 1 by construction and
    phi -> linf pointwise as eps -> 0.
    """

    family = "smoothmax"

    def __init__(self, dim, eps):
        super().__init__(dim)
        if not (0.0 < eps <= 0.5):
            raise InvalidArgumentError(f"smoothmax requires 0 < eps <= 0.5, got {eps!r}")
        self.eps = float(eps)
        m = dim
        # log(2*cosh(1/eps) + 2*(m-1)), evaluated without overflow
        self._log_level = 1.0 / eps + np.log1p(math.exp(-2.0 / eps) + 2.0 * (m - 1) * math.exp(-1.0 / eps))
        # log W with W = cosh(1/eps) + (m - 1); kept in log form to survive tiny eps
        self._log_w = self._log_level - math.log(2.0)

    # g is evaluated through sigma = 1/s; solve logsumexp(+-v_i*sigma/eps) = log-level.
    def _solve_sigma(self, vt):
        eps = self.eps
        target = self._log_level
        m = _fold(np.maximum, np.abs(vt))
        z = vt / eps

        def residual(sigma, idx):
            zi = z[:, idx]
            a = zi * sigma
            ep = np.abs(a)
            mx = _fold(np.maximum, ep)
            np.exp(np.subtract(a, mx, out=ep), out=ep)
            en = np.negative(a, out=a)
            np.exp(np.subtract(en, mx, out=en), out=en)
            both = ep + en
            ssum = _fold(np.add, both)
            np.multiply(zi, np.subtract(ep, en, out=both), out=both)
            return mx + np.log(ssum), _fold(np.add, both) / ssum

        # starts above the root: F(sigma0) >= 0
        return _newton(residual, target * eps / m, target, "smoothmax gauge")

    def _eval(self, v):
        return _off_origin(lambda vt: 1.0 / _by_blocks(self._solve_sigma, vt), v)

    def _g_grad_rows(self, ut):
        # gradient of g at coordinate rows ut near the gauge sphere, and the
        # diagonal (e^a + e^-a) / sum of its Hessian (before the 1/eps)
        a = ut / self.eps
        mx = _fold(np.maximum, np.abs(a))
        ep = np.exp(a - mx)
        en = np.exp(-a - mx)
        both = ep + en
        ssum = _fold(np.add, both)
        return (ep - en) / ssum, both / ssum

    def _g_grad_hess(self, u):
        # gradient and Hessian of g at points u, (N, d) -> (N, d), (N, d, d)
        gt, dt = self._g_grad_rows(u.T.copy())
        grad = gt.T.copy()
        idx = np.arange(self.dim)
        hess = -grad[:, :, None] * grad[:, None, :]
        hess[:, idx, idx] += dt.T
        return grad, hess / self.eps

    def _grad(self, v):
        ut = v.T.copy()
        ut /= self._eval(v)
        g, _ = self._g_grad_rows(ut)
        return (g / _fold(np.add, g * ut)).T.copy()

    def _hess(self, v):
        phi = self._eval(v)
        u = v / phi[..., None]
        g, hg = self._g_grad_hess(u)
        s = np.sum(g * u, axis=-1)[:, None, None]
        gradphi = (g / np.sum(g * u, axis=-1)[:, None])
        hu = np.einsum("nij,nj->ni", hg, u)
        uhu = np.einsum("ni,ni->n", u, hu)[:, None, None]
        h = hg - hu[:, :, None] * gradphi[:, None, :] - gradphi[:, :, None] * hu[:, None, :] \
            + uhu * gradphi[:, :, None] * gradphi[:, None, :]
        return h / (phi[:, None, None] * s)

    def _dual_partner(self):
        return _SmoothedMaxPolar(self)

    @property
    def spec_string(self):
        return f"smoothmax:{self.eps!r}"


def _asinh_of_exp(b):
    """asinh(e^b) elementwise, stable for arbitrarily large b (b may be -inf)."""
    small = b <= 30.0
    out = np.where(small, np.arcsinh(np.exp(np.minimum(b, 30.0))), b + math.log(2.0))
    return out


class _SmoothedMaxPolar(Norm):
    """Dual of SmoothedMaxNorm, via a scalar reduction.

    The support-function maximizer of u over { g <= g(e1) } satisfies
    x_i = eps * asinh(t u_i) with sum_i sqrt(1 + t^2 u_i^2) = cosh(1/eps) + m - 1.
    Solved as a monotone scalar equation in log(t), which stays finite for
    tiny eps where t itself would overflow.
    """

    family = "smoothmax-polar"

    def __init__(self, base: SmoothedMaxNorm):
        super().__init__(base.dim)
        self.base = base

    def _maximizer(self, ut):
        """The support-function maximizer of each column of ut, (d, N) -> (d, N)."""
        logw = self.base._log_w
        with np.errstate(divide="ignore"):
            lu = np.log(np.abs(ut))
        l1 = _fold(np.add, np.abs(ut))

        def residual(theta, idx):
            a = np.add(lu[:, idx], theta)
            np.multiply(a, 2.0, out=a)
            # term = log sqrt(1 + t^2 u_i^2) = softplus(a) / 2
            term = np.abs(a)
            np.log1p(np.exp(np.negative(term, out=term), out=term), out=term)
            w = np.maximum(a, 0.0)
            np.multiply(np.add(term, w, out=term), 0.5, out=term)
            mx = _fold(np.maximum, term)
            np.exp(np.subtract(term, mx, out=w), out=w)
            ssum = _fold(np.add, w)
            # w * sigmoid(a), the logistic clipped to stay finite
            sig = np.minimum(np.maximum(a, -700.0, out=a), 700.0, out=a)
            np.exp(np.negative(sig, out=sig), out=sig)
            np.divide(1.0, np.add(sig, 1.0, out=sig), out=sig)
            return mx + np.log(ssum), _fold(np.add, np.multiply(w, sig, out=sig)) / ssum

        # f(theta0) >= 0: start above the root
        theta = _newton(residual, logw - np.log(l1), logw, "smoothmax polar")
        return self.base.eps * np.sign(ut) * _asinh_of_exp(lu + theta)

    def _grad(self, u):
        # the gradient of a support function is its maximizer
        return _by_blocks(self._maximizer, u.T.copy()).T.copy()

    def _eval(self, v):
        return _off_origin(lambda ut: _fold(np.add, ut * _by_blocks(self._maximizer, ut)), v)

    def _hess(self, v):
        # implicit differentiation of the maximizer x(u):
        #   grad g(x) = mu * u,  g(x) = level   =>  bordered linear system
        x = self._grad(v)
        g, hg = self.base._g_grad_hess(x)
        mu = np.linalg.norm(g, axis=-1) / np.linalg.norm(v, axis=-1)
        return _bordered_solve(hg, -v, g, mu[:, None, None] * np.eye(self.dim))[:, :-1]

    def _dual_partner(self):
        return self.base

    @property
    def spec_string(self):
        return f"polar({self.base.spec_string})"


class L1Norm(Norm):
    family = "l1"
    smooth = False

    def _eval(self, v):
        return np.sum(np.abs(v), axis=-1)

    def _check_grad_domain(self, v):
        super()._check_grad_domain(v)
        scale = np.max(np.abs(v), axis=-1, keepdims=True)
        if np.any(np.abs(v) < 1e-14 * scale):
            raise NonUniqueMaximizerError(
                "l1 gradient undefined on coordinate hyperplanes: a whole face of "
                "the linf unit sphere attains the supremum")

    def _grad(self, v):
        return np.sign(v)

    def _dual_partner(self):
        return LinfNorm(self.dim)

    @property
    def spec_string(self):
        return "l1"


class LinfNorm(Norm):
    family = "linf"
    smooth = False

    def _eval(self, v):
        return np.max(np.abs(v), axis=-1)

    def _check_grad_domain(self, v):
        super()._check_grad_domain(v)
        av = np.abs(v)
        mx = np.max(av, axis=-1, keepdims=True)
        ties = np.sum(av > (1.0 - 1e-14) * mx, axis=-1)
        if np.any(ties > 1):
            raise NonUniqueMaximizerError(
                "linf gradient undefined where the max is tied: a whole face of "
                "the l1 unit sphere attains the supremum")

    def _grad(self, v):
        av = np.abs(v)
        mx = np.max(av, axis=-1, keepdims=True)
        out = np.where(av >= mx, np.sign(v), 0.0)
        return out

    def _dual_partner(self):
        return L1Norm(self.dim)

    @property
    def spec_string(self):
        return "linf"


# ---------------------------------------------------------------------------
# dual norms


def _fixed_restart_directions(dim):
    """Eight deterministic unit directions: simplex vertices and negatives."""
    if dim == 2:
        ang = np.arange(8) * (np.pi / 4.0) + 0.1
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    s = np.array([
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ]) / np.sqrt(3.0)
    return np.concatenate([s, -s], axis=0)


def _central_hess(norm, v):
    """Hessian by central differences of the gradient, each coordinate stepped
    by 1e-6 of its own size, so that no step crosses a coordinate hyperplane."""
    n, d = v.shape
    out = np.zeros((n, d, d))
    for j in range(d):
        e = np.zeros_like(v)
        e[:, j] = 1e-6 * np.abs(v[:, j])
        ok = e[:, j] > 0.0
        diff = norm._grad(v + e) - norm._grad(v - e)
        out[ok, :, j] = diff[ok] / (2.0 * e[ok, j])[:, None]
    return out


class DualNorm(Norm):
    """The polar of a C^2 base norm, by the numeric engine.

    ``norm.dual()`` is the closed form where the family has one; this class
    is the fallback for a family without one and the oracle the closed forms
    are checked against.  Evaluation runs projected gradient ascent on
    { phi = 1 } (linear objective, convex constraint) from eight
    deterministic restarts, followed by a Newton polish on the stationarity
    system; disagreeing restarts signal a non-unique maximizer.
    """

    family = "dual"
    partner = None           # no closed-form partner (perfbench labels by it)

    def __init__(self, base: Norm):
        if not base.smooth:
            raise UnsupportedOperationError(
                f"the numeric polar needs a C^2 base norm, {base.family} is not")
        super().__init__(base.dim)
        self.base = base

    def _eval(self, v):
        val, _ = self._maximize(v)
        return val

    def _grad(self, v):
        _, vmax = self._maximize(v, check_unique=True)
        return vmax

    def _hess(self, v):
        # implicit differentiation at the maximizer: u = mu * grad(phi)(v*)
        mu, vstar = self._maximize(v, check_unique=True)
        h = self.base._hess(vstar)
        g = self.base._grad(vstar)
        return _bordered_solve(mu[:, None, None] * h, g, g, np.eye(self.dim))[:, :-1]

    def dual(self):
        return self.base

    @property
    def spec_string(self):
        return f"dual({self.base.spec_string})"

    # -- numeric engine ----------------------------------------------------

    def _maximize(self, u, check_unique=False):
        """Maximize u . v over { phi(v) = 1 }; returns (values, maximizers).

        Solved at u / 2^k with |u| / 2^k in [1/2, 1), so that every step,
        residual and spread below is measured against a unit-scale u, and the
        value scaled back by 2^k; both scalings are exact.  So the value is
        1-homogeneous in u and the maximizer 0-homogeneous at every scale.
        """
        base = self.base
        n, d = u.shape
        scale = np.ldexp(1.0, np.frexp(np.linalg.norm(u, axis=-1))[1])
        u = u / scale[:, None]
        starts = _fixed_restart_directions(d)                # (R, d)
        r = starts.shape[0]
        v = np.broadcast_to(starts[None, :, :], (n, r, d)).reshape(n * r, d).copy()
        v /= base._eval(v)[:, None]
        uu = np.broadcast_to(u[:, None, :], (n, r, d)).reshape(n * r, d)
        alpha = np.full(n * r, 0.5)
        val = np.sum(uu * v, axis=-1)
        # each restart runs until its own step is below 1e-12 and takes that
        # step too, so a point's result does not depend on its batch
        act = np.arange(n * r)
        for _ in range(500):
            va, ua, aa = v[act], uu[act], alpha[act]
            g = base._grad(va)
            gn = g / np.linalg.norm(g, axis=-1, keepdims=True)
            tang = ua - np.sum(ua * gn, axis=-1, keepdims=True) * gn
            step = aa[:, None] * tang
            vn = va + step
            vn /= base._eval(vn)[:, None]
            valn = np.sum(ua * vn, axis=-1)
            better = valn >= val[act]
            v[act[better]] = vn[better]
            val[act[better]] = valn[better]
            alpha[act] = np.where(better, np.minimum(aa * 1.25, 4.0), aa * 0.5)
            act = act[np.linalg.norm(step, axis=-1) >= 1e-12]
            if act.size == 0:
                break
        # damped Newton polish on  u = mu * grad(phi)(v), phi(v) = 1
        mu = val.copy()

        def kkt_norm(rows, vv, mm):
            res = uu[rows] - mm[:, None] * base._grad(vv)
            cons = base._eval(vv) - 1.0
            return np.sqrt(np.sum(res**2, axis=-1) + cons**2)

        def newton_step(rows, vv, mm):
            # (dv, dmu) solving the bordered stationarity system at restarts
            # rows, the residual, and which systems are regular: if the stacked
            # solve fails, each row is solved alone and a singular one gets no
            # step (like `mesh._height_fit`), so it cannot stop the others
            g = base._grad(vv)
            try:
                h = base._hess(vv)
            except SingularPointError:
                h = _central_hess(base, vv)
            res = uu[rows] - mm[:, None] * g
            args = (mm[:, None, None] * h, g, g, res[..., None], (1.0 - base._eval(vv))[:, None])
            ok = np.ones(len(vv), dtype=bool)
            try:
                delta = _bordered_solve(*args)
            except np.linalg.LinAlgError:
                delta = np.zeros((len(vv), d + 1, 1))
                for k in range(len(vv)):
                    try:
                        delta[k] = _bordered_solve(*(a[k:k + 1] for a in args))[0]
                    except np.linalg.LinAlgError:
                        ok[k] = False
            return delta[..., 0], res, ok

        # likewise each restart stops once its own KKT norm is small against its u
        fnorm = kkt_norm(slice(None), v, mu)
        kkt_tol = 1e-13 * (1.0 + np.max(np.abs(uu), axis=-1))
        act = np.arange(n * r)
        for _ in range(40):
            delta, _, ok = newton_step(act, v[act], mu[act])
            # a restart with a singular system keeps its iterate and stops
            act, delta = act[ok], delta[ok]
            if act.size == 0:
                break
            va, ma, fa = v[act], mu[act], fnorm[act]
            step = np.ones(act.size)
            accepted = np.zeros(act.size, dtype=bool)
            for _bt in range(12):
                trial_v = va + step[:, None] * delta[:, :d]
                trial_mu = ma + step * delta[:, d]
                trial_f = kkt_norm(act, trial_v, trial_mu)
                good = ~accepted & (trial_f <= (1.0 - 0.25 * step) * fa + 1e-15)
                va[good] = trial_v[good]
                ma[good] = trial_mu[good]
                fa[good] = trial_f[good]
                accepted |= good
                if accepted.all():
                    break
                step = np.where(accepted, step, step * 0.5)
            v[act], mu[act], fnorm[act] = va, ma, fa
            act = act[fa >= kkt_tol[act]]
            if act.size == 0:
                break
        v /= base._eval(v)[:, None]
        val = np.sum(uu * v, axis=-1)
        resid_all = np.linalg.norm(uu - val[:, None] * base._grad(v), axis=-1)
        tol = 1e3 * _SOLVER_TOL
        stationary = resid_all <= tol * (1.0 + np.abs(val))
        # Near a crystalline limit grad(phi) turns over a width far below one
        # ulp of v, so no float v has a small residual there.  The restarts of
        # a point with no stationary restart take Newton steps accepted on the
        # value u.v, and are stationary once the squared Newton decrement,
        # dv . residual, is small against the value.
        stuck = ~stationary.reshape(n, r).any(axis=1)
        stiff = np.flatnonzero(np.repeat(stuck, r))
        if stiff.size:
            vk, uk, valk = v[stiff], uu[stiff], val[stiff]
            dec = np.full(stiff.size, np.inf)
            live = np.arange(stiff.size)
            for _ in range(60):
                delta, res, ok = newton_step(stiff[live], vk[live], valk[live])
                # a restart with a singular system keeps its iterate and decrement
                live, dv = live[ok], delta[ok, :d]
                dec[live] = np.abs(np.sum(dv * res[ok], axis=-1))
                vl, ul, vall = vk[live], uk[live], valk[live]
                moved = np.zeros(live.size, dtype=bool)
                step = np.ones(live.size)
                for _bt in range(40):
                    tv = vl + step[:, None] * dv
                    tv /= base._eval(tv)[:, None]
                    tval = np.sum(ul * tv, axis=-1)
                    good = ~moved & (tval > vall)
                    vl[good] = tv[good]
                    vall[good] = tval[good]
                    moved |= good
                    step = np.where(moved, step, 0.5 * step)
                vk[live], valk[live] = vl, vall
                if not moved.any():
                    break
            v[stiff], val[stiff] = vk, valk
            stationary[stiff] = dec <= tol * (1.0 + np.abs(valk))
        vals = val.reshape(n, r)
        vs = v.reshape(n, r, d)
        resid = resid_all.reshape(n, r)
        stationary = stationary.reshape(n, r)
        # select the best value among stationary restarts; a non-stationary
        # restart beating every stationary one means a genuine failure
        if not stationary.any(axis=1).all():
            worst = np.flatnonzero(~stationary.any(axis=1))
            raise ConvergenceError(
                "dual-norm ascent did not reach stationarity at any restart",
                best=vals[worst[0]].max(), gap=float(resid[worst[0]].min()),
            )
        masked = np.where(stationary, vals, -np.inf)
        best = np.argmax(masked, axis=1)
        out_val = masked[np.arange(n), best]
        out_v = vs[np.arange(n), best]
        loose = np.max(np.where(stationary, -np.inf, vals), axis=1)
        if np.any(loose > out_val + tol * (1.0 + np.abs(out_val))):
            raise ConvergenceError(
                "a non-stationary restart dominates the stationary maximizers",
                best=float(np.max(out_val)), gap=float(np.max(loose - out_val)),
            )
        if check_unique:
            near = stationary & (
                vals > out_val[:, None]
                - 10.0 * _SOLVER_TOL * (1.0 + np.abs(out_val))[:, None])
            for i in range(n):
                cand = vs[i, near[i]]
                if cand.shape[0] > 1:
                    spread = np.max(np.linalg.norm(cand - out_v[i], axis=-1))
                    if spread > 1e4 * _SOLVER_TOL:
                        raise NonUniqueMaximizerError(
                            f"ascent restarts disagree by {spread:.2e} at comparable objective values"
                        )
        return out_val * scale, out_v


# ---------------------------------------------------------------------------
# sphere samples and tangential Hessians


def unit_sphere_samples(dim, count):
    """Deterministic quasi-uniform sample of the unit sphere."""
    if dim == 2:
        ang = (np.arange(count) + 0.5) * (2.0 * np.pi / count)
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    i = np.arange(count) + 0.5
    golden = (1.0 + 5.0**0.5) / 2.0
    z = 1.0 - 2.0 * i / count
    theta = 2.0 * np.pi * i / golden
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=-1)


def tangent_basis(u):
    """Orthonormal basis of u-perp for unit vectors u, shape (..., d, d-1)."""
    u = np.asarray(u, dtype=float)
    d = u.shape[-1]
    if d == 2:
        t = np.stack([-u[..., 1], u[..., 0]], axis=-1)
        return t[..., :, None]
    a = np.zeros_like(u)
    k = np.argmin(np.abs(u), axis=-1)
    np.put_along_axis(a, k[..., None], 1.0, axis=-1)
    t1 = a - np.sum(a * u, axis=-1, keepdims=True) * u
    t1 /= np.linalg.norm(t1, axis=-1, keepdims=True)
    t2 = np.cross(u, t1)
    return np.stack([t1, t2], axis=-1)


def tangential_hessian_eigs(norm: Norm, samples):
    """Sphere sample u and the ascending eigenvalues of hess(phi)(u) on u-perp."""
    u = unit_sphere_samples(norm.dim, samples)
    t = tangent_basis(u)
    return u, np.linalg.eigvalsh(np.einsum("nik,nij,njl->nkl", t, norm.hess(u), t))


# ---------------------------------------------------------------------------
# norm grammar


def _number(text, what):
    """float(text), or an InvalidArgumentError naming the entry."""
    try:
        return float(text)
    except ValueError:
        raise InvalidArgumentError(f"{what} must be a number, got {text!r}") from None


def parse_norm(text, dim) -> Norm:
    """Parse a norm specification string.

    Grammar: ``euclidean`` | ``lp:<p>[:w1,w2,...]`` | ``ellipse:<q11,q12,...>``
    | ``smoothmax:<eps>`` | ``l1`` | ``linf``.
    """
    text = text.strip()
    head, _, rest = text.partition(":")
    if head == "euclidean":
        if rest:
            raise InvalidArgumentError("euclidean takes no parameters")
        return EuclideanNorm(dim)
    if head == "l1":
        return L1Norm(dim)
    if head == "linf":
        return LinfNorm(dim)
    if head == "lp":
        parts = rest.split(":")
        if not parts or not parts[0]:
            raise InvalidArgumentError("lp requires an exponent: lp:<p>[:w1,...]")
        p = _number(parts[0], "lp exponent")
        weights = None
        if len(parts) > 1:
            weights = [_number(x, "lp weight") for x in parts[1].split(",")]
            if len(weights) != dim:
                raise InvalidArgumentError(f"lp weights must have {dim} entries")
        return WeightedLpNorm(dim, p, weights)
    if head == "ellipse":
        if not rest:
            raise InvalidArgumentError("ellipse requires matrix entries")
        entries = np.array([_number(x, "ellipse entry") for x in rest.split(",")])
        n_diag, n_tri, n_full = dim, dim * (dim + 1) // 2, dim * dim
        if entries.size == n_diag:
            Q = np.diag(entries)
        elif entries.size == n_tri:
            Q = np.zeros((dim, dim))
            iu = np.triu_indices(dim)
            Q[iu] = entries
            Q = Q + np.triu(Q, 1).T
        elif entries.size == n_full:
            Q = entries.reshape(dim, dim)
            Q = 0.5 * (Q + Q.T)
        else:
            raise InvalidArgumentError(
                f"ellipse in dimension {dim} takes {n_diag} (diagonal), {n_tri} (upper triangle) "
                f"or {n_full} (full) entries, got {entries.size}"
            )
        return EllipseNorm(Q)
    if head == "smoothmax":
        if not rest:
            raise InvalidArgumentError("smoothmax requires an epsilon")
        return SmoothedMaxNorm(dim, _number(rest, "smoothmax eps"))
    raise InvalidArgumentError(f"unknown norm family {head!r}")
