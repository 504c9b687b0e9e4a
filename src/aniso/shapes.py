"""Deterministic generators of test geometries and norm sequences.

Every generator produces both a closed mesh (for surface quantities) and a
solid level function (for voxelization), built from the same analytic
radial data so the two representations agree to rounding:

* exact Wulff shapes;
* radially perturbed Wulff shapes, (1 + eps * Y(u)) * r * grad(phi)(u), an
  almost-constant-anisotropic-curvature family with Y a fixed low-order
  spherical-harmonic pattern;
* two-bubble dumbbells: two tangent Wulff shapes joined by a neck of
  prescribed waist width; the neck is the upper envelope of a cubic Hermite
  blend of the radial profiles and the two-ball union, so it is C^0 (not
  C^1) where the Hermite crosses the union;
* tangent unions of Wulff shapes with pairwise dual-norm center distance
  exactly 2r.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (ConvergenceError, GeometryError, InvalidArgumentError, MeshBudgetError,
                     UnsupportedOperationError)
from .mesh import TriSurface
from .norms import (Norm, SmoothedMaxNorm, WeightedLpNorm, _newton, parse_norm,
                    unit_sphere_samples)
from .wulff import WulffShape, _sphere_sample, check_radius, sphere_vertex_count
from .grid import Translate, Union


@dataclass(frozen=True)
class ShapeSpec:
    """Parameters of one generated geometry."""

    kind: str                     # wulff | perturbed-wulff | two-bubble | tangent-union
    norm: Norm
    r: float = 1.0
    eps: float = 0.0
    pattern: int = 0
    neck_width: float = 0.1
    count: int = 2
    centers: tuple = None

    def __post_init__(self):
        if self.kind not in ("wulff", "perturbed-wulff", "two-bubble", "tangent-union"):
            raise InvalidArgumentError(f"unknown shape kind {self.kind!r}")
        check_radius(self.norm, self.r)
        if self.norm.dim == 3 and self.pattern not in (0, 1, 2, 3):
            raise InvalidArgumentError(f"pattern index must be 0..3 in 3D, got {self.pattern!r}")
        if self.kind == "perturbed-wulff" and not (0.0 <= self.eps < 0.3):
            raise InvalidArgumentError("perturbation amplitude must satisfy 0 <= eps < 0.3")
        if self.kind == "two-bubble" and not (0.0 < self.neck_width < self.r / 2):
            raise InvalidArgumentError("neck width must lie in (0, r/2)")
        if self.count < 1:
            raise InvalidArgumentError(f"bubble count must be at least 1, got {self.count}")


@dataclass
class GeneratedShape:
    spec: ShapeSpec
    mesh: TriSurface
    solid: object                 # level_at / bounds, as rasterize reads them
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# perturbation patterns


def perturbation_pattern(dim, pattern):
    """(value, tangential gradient) of a fixed low-order pattern on the sphere."""
    if dim == 2:
        k = 2 + int(pattern)

        def value(u):
            th = np.arctan2(u[..., 1], u[..., 0])
            return np.cos(k * th)

        def sgrad(u):
            th = np.arctan2(u[..., 1], u[..., 0])
            t = np.stack([-u[..., 1], u[..., 0]], axis=-1)
            return -k * np.sin(k * th)[..., None] * t

        return value, sgrad

    tab = {
        0: (lambda u: u[..., 0] ** 2 - u[..., 1] ** 2,
            lambda u: np.stack([2 * u[..., 0], -2 * u[..., 1], np.zeros_like(u[..., 0])], axis=-1)),
        1: (lambda u: 1.5 * u[..., 2] ** 2 - 0.5,
            lambda u: np.stack([np.zeros_like(u[..., 0]), np.zeros_like(u[..., 0]),
                                3 * u[..., 2]], axis=-1)),
        2: (lambda u: 2 * u[..., 0] * u[..., 1],
            lambda u: np.stack([2 * u[..., 1], 2 * u[..., 0], np.zeros_like(u[..., 0])], axis=-1)),
        3: (lambda u: 3 * np.sqrt(3) * u[..., 0] * u[..., 1] * u[..., 2],
            lambda u: 3 * np.sqrt(3) * np.stack(
                [u[..., 1] * u[..., 2], u[..., 0] * u[..., 2], u[..., 0] * u[..., 1]], axis=-1)),
    }
    if int(pattern) not in tab:
        raise InvalidArgumentError("pattern index must be 0..3")
    value, raw_grad = tab[int(pattern)]

    def sgrad(u):
        g = raw_grad(u)
        return g - np.sum(g * u, axis=-1, keepdims=True) * u

    return value, sgrad


# ---------------------------------------------------------------------------
# solids


class PerturbedWulffSolid:
    """{ x : phi_polar(x) <= r (1 + eps Y(direction of x)) }."""

    def __init__(self, norm, r, eps, pattern):
        self.norm = norm
        self.r = float(r)
        self.eps = float(eps)
        self.dual = norm.dual()
        self.value, _ = perturbation_pattern(norm.dim, pattern)

    def level_at(self, pts):
        pts = np.asarray(pts, dtype=float)
        pol = self.dual.eval(pts)
        y = np.zeros_like(pol)
        far = pol > 0.05 * self.r
        if np.any(far):
            uhat = self.dual.grad(pts[far])
            uhat = uhat / np.linalg.norm(uhat, axis=-1, keepdims=True)
            y[far] = self.value(uhat)
        return pol - self.r * (1.0 + self.eps * y)

    def bounds(self):
        lo, hi = WulffShape(self.norm, self.r * (1 + self.eps)).bounds()
        return lo, hi


# ---------------------------------------------------------------------------
# two-bubble radial profile


def _row_groups(rows):
    """(first, inverse) of the distinct rows of a float array, rows compared
    bit for bit (so -0.0 and 0.0 differ): the first row of each group, and
    each row's group.  A stable lexsort of the rows' uint64 views, no float
    comparison and no sort of row records."""
    bits = np.ascontiguousarray(rows).view(np.uint64)
    order = np.lexsort(bits.T[::-1])
    ranked = bits[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


class _TwoBubbleProfile:
    """Radial function of two tangent Wulff shapes plus a neck.

    Inside the neck band the radius is max(Hermite, union): a cubic Hermite
    blend from the union's edge value and slope to the waist, raised to the
    two-ball union wherever it dips below it.  The envelope never cuts into
    the balls, and it is C^0, not C^1, where the Hermite crosses the union.

    Centered at the tangency point; the left/right centers are at
    -+ r * grad(phi)(axis), so phi_polar(c_right - c_left) = 2r exactly.

    The plane {x_axis = 0} supports both balls at the origin (<x, e_axis> <=
    phi(e_axis) phi_polar(x)), so a ray with u_axis > 0 leaves only the right
    ball and one with u_axis < 0 only the left; both are solved only when
    u_axis == 0.  Inside the neck band the blend's edge value and slope depend
    on the ray only through its meridian (u with the axis part removed,
    normalized) and its side of the equator, so they are solved once per
    distinct (meridian, side) pair, in the same union solve as the rays
    themselves (`_solve`).
    """

    def __init__(self, norm, r, neck_width, axis=0):
        self.norm = norm
        self.r = float(r)
        self.w = float(neck_width)
        self.dual = norm.dual()
        self.dim = norm.dim
        e1 = np.zeros(self.dim)
        e1[axis] = 1.0
        self.axis = axis
        self.center_offset = self.r * norm.grad(e1)
        self._phi_axis = float(norm.eval(e1))
        self.beta = float(np.clip(0.9 * np.sqrt(self.w / (2 * self.r)), 0.05, 0.6))
        self.radial_bound = 2.2 * self.r * float(np.max(np.abs(self.center_offset))) + self.r

    # the exit t of phi_polar(t u - c) = r (1 + 1e-13): the Newton root of
    # `_newton_exit`, started at the root of the ball's quadratic model about
    # the tangency point, so a ray that grazes that point costs few steps.  A
    # polar without a gradient everywhere, and a ray whose Newton solve does
    # not stop, takes `_bisect`'s exit instead.
    def _ball_exit(self, u, sign):
        c = sign * self.center_offset
        level = self.r * (1 + 1e-13)
        t_max = 2.0 * self.radial_bound
        if not self.dual.smooth:
            return self._bisect(u, c, level, t_max)
        t, stuck = self._newton_exit(u, c, level, t_max)
        if len(stuck):
            t[stuck] = self._bisect(u[stuck], c, level, t_max)
        return t

    def _newton_exit(self, u, c, level, t_max):
        """Newton roots of f(t) = phi_polar(t u - c) - level, and the indices
        of the rays whose solve did not stop.

        With x = grad phi_polar(y) at y = t u - c, phi_polar(y) = <y, x>, so one
        maximizer solve gives both f = <y, x> - level and f' = <x, u>.  f is
        convex with f(0) < 0, so Newton from any t with f(t) >= 0 falls
        monotonically to the exit (Dinkelbach, "On nonlinear fractional
        programming", 1967).  f and f' are taken once at `_newton_start`'s
        point: a ray on a rising slope takes that Newton step, which lands
        right of the exit, f being convex, and is clipped to t_max; any other
        ray starts at t_max.  `norms._newton` then runs every ray from there
        and stops each on its own residual, so a root depends only on its ray.
        If the solve does not converge, the rays that stopped keep their roots.
        """

        def residual(t, idx):
            ui = u[idx]
            y = t[:, None] * ui - c
            x = self.dual.grad(y)
            return np.sum(y * x, axis=-1), np.sum(x * ui, axis=-1)

        t = self._newton_start(u, c, level, t_max)
        f, s = residual(t, slice(None))
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(s > 0, np.fmin(t - (f - level) / s, t_max), t_max)
        try:
            return _newton(residual, t, level, "two-bubble ball exit"), ()
        except ConvergenceError as exc:
            return exc.best, exc.stuck

    def _newton_start(self, u, c, level, t_max):
        """min(t_max, t_q), with t_q the positive root of f's quadratic model
        f(0) + f'(0) t + f''(0) t^2 / 2, and t_max where it has none:
        f(0) = phi_polar(-c) - level, f'(0) = <grad phi_polar(-c), u> and
        f''(0) = u^T H u, with H the central differences of grad phi_polar at
        -c (no polar Hessian: it needs a linear solve)."""
        d = len(c)
        h = 1e-5 * float(np.sqrt(np.dot(c, c)))
        g = self.dual.grad(-c + h * np.concatenate([np.zeros((1, d)), np.eye(d), -np.eye(d)]))
        f0 = float(np.dot(-c, g[0])) - level
        hess = (g[1:d + 1] - g[d + 1:]) / (2 * h)
        b = u @ g[0]
        a = 0.5 * np.einsum("ni,ij,nj->n", u, hess, u)
        with np.errstate(divide="ignore", invalid="ignore"):
            disc = np.sqrt(b * b - 4 * a * f0)
            # the form without cancellation on each side of b = 0
            t_q = np.where(b > 0, -2 * f0 / (b + disc), (disc - b) / (2 * a))
        return np.where(t_q > 0, np.fmin(t_max, t_q), t_max)

    def _bisect(self, u, c, level, t_max):
        """The largest t on the 46-step bisection grid of [0, t_max] with
        phi_polar(t u - c) <= level, evaluating every step."""
        lo = np.zeros(len(u))
        hi = np.full(len(u), t_max)
        for _ in range(46):
            mid = 0.5 * (lo + hi)
            inside = self.dual.eval(mid[:, None] * u - c) <= level
            np.copyto(lo, mid, where=inside)
            np.copyto(hi, mid, where=~inside)
        return lo

    def union_rho(self, u):
        ua = u[:, self.axis]
        out = np.zeros(len(u))
        for sign, side in ((1.0, ua >= 0), (-1.0, ua <= 0)):
            if np.any(side):
                out[side] = np.maximum(out[side], self._ball_exit(u[side], sign))
        return out

    def waist_rho(self, u_perp):
        # waist cross-section is a scaled Wulff slice of dual radius w/2
        return 0.5 * self.w / self.dual.eval(u_perp)

    def __call__(self, u):
        return self._solve(np.atleast_2d(np.asarray(u, dtype=float)))[1]

    def _solve(self, u):
        """(union, profile, grads) at rays u, from one union solve.

        The neck's edge rays join that solve: one ray and its two
        finite-difference neighbours per distinct (meridian, side) of the band
        rays.  A union radius depends only on its own ray, so each is the one
        a separate call would give, bit for bit.  grads() gives the tangential
        gradients (grad_S union, grad_S profile) from the same solve, with no
        further ray: the union's by implicit differentiation of each exit, the
        blend's by differentiating the Hermite cubic and its edge data.
        """
        n = len(u)
        theta = np.arccos(np.clip(u[:, self.axis], -1.0, 1.0))
        band = np.abs(theta - np.pi / 2) < self.beta
        # meridian through each band ray: direction(t) = cos(t) e_axis + sin(t) m
        tb = theta[band]
        sa = np.sin(tb)
        m = u[band]
        m[:, self.axis] = 0.0
        m /= np.where(sa[:, None] > 1e-12, sa[:, None], 1.0)
        side = np.where(tb <= np.pi / 2, 1.0, -1.0)
        t_edge = np.pi / 2 - side * self.beta

        def direction(t, mer):
            d = np.zeros_like(mer)
            d[:, self.axis] = np.cos(t)
            d += np.sin(t)[:, None] * mer
            return d

        # edge data per distinct (meridian, side)
        first, inv = _row_groups(np.column_stack([m, side]))
        m_k, t_k = m[first], t_edge[first]
        dt = 1e-5
        t_rays = np.concatenate([t_k, t_k + dt, t_k - dt])
        rays = np.concatenate([u, direction(t_rays, np.concatenate([m_k, m_k, m_k]))])
        rho = self.union_rho(rays)
        union = rho[:n]
        rho_e, rho_p, rho_m = np.split(rho[n:], 3)
        rho_e_d = (rho_p - rho_m) / (2 * dt)
        waist = direction(np.full(len(m_k), np.pi / 2), m_k)
        rho_c = self.waist_rho(waist)
        # cubic Hermite on [t_edge, pi/2]: value/slope at the edge from the
        # union profile, waist value with zero slope at the equator
        span = np.pi / 2 - t_edge
        s = (tb - t_edge) / span

        def hermite(h00, h10, h01, e, e_d, c):
            return h00 * e[inv] + h10 * span * e_d[inv] + h01 * c[inv]

        basis = (2 * s**3 - 3 * s**2 + 1, s**3 - 2 * s**2 + s, -2 * s**3 + 3 * s**2)
        blended = hermite(*basis, rho_e, rho_e_d, rho_c)
        profile = union.copy()
        profile[band] = np.maximum(blended, union[band])

        def grads():
            # phi_polar(rho u - c) = r on the ball the ray leaves (the right
            # one on the tangency plane, which holds no band or edge ray), and
            # with x = grad phi_polar there, phi_polar(y) = <y, x>: so d rho =
            # -rho <x, du> / <x, u> (ray and edge exits, one dual.grad with
            # the waist rays)
            sign = np.where(rays[:, self.axis] >= 0, 1.0, -1.0)
            x = self.dual.grad(np.concatenate(
                [rho[:, None] * rays - sign[:, None] * self.center_offset, waist]))
            x, x_c = x[:len(rays)], x[len(rays):]
            xu = np.sum(x * rays, axis=-1)
            k = -rho / xu
            g_union = k[:n, None] * (x[:n] - xu[:n, None] * rays[:n])
            # the blend along its meridian, d u / d theta = -sin e_axis + cos m
            t_theta = np.cos(tb)[:, None] * m
            t_theta[:, self.axis] = -sa
            dh = (6 * s**2 - 6 * s, 3 * s**2 - 4 * s + 1, -6 * s**2 + 6 * s)
            g_blend = (hermite(*dh, rho_e, rho_e_d, rho_c) / span)[:, None] * t_theta
            if self.dim == 3:
                # and across meridians, d m / d psi = m' = e_axis x m: the edge
                # rays move at sin(t) m', the waist ray at m'
                m_psi = np.cross(np.eye(3)[self.axis], m_k)
                m_rays = np.concatenate([m_psi, m_psi, m_psi])
                d_edge = k[n:] * np.sum(x[n:] * (np.sin(t_rays)[:, None] * m_rays), axis=-1)
                d_e, d_p, d_m = np.split(d_edge, 3)
                d_c = -rho_c**2 * np.sum(x_c * m_psi, axis=-1) / (0.5 * self.w)
                g_blend += (hermite(*basis, d_e, (d_p - d_m) / (2 * dt), d_c)
                            / sa)[:, None] * m_psi[inv]
            g_profile = g_union.copy()
            g_profile[band] = np.where((blended > union[band])[:, None], g_blend,
                                       g_union[band])
            return g_union, g_profile

        return union, profile, grads

    def validate(self, rays=None):
        """Check the radii on 4,096 sphere samples and bound the neck pocket.

        Rays ``rays`` join the same solve; returns the profile's radii and
        tangential gradients grad_S rho (the solve's grads()) there.
        """
        u = unit_sphere_samples(self.dim, 4096)
        n = len(u)
        if rays is not None:
            u = np.concatenate([u, rays])
        _, profile, grads = self._solve(u)
        rho = profile[:n]
        # a radius below the bisection quantum meets no ball, only the 1e-13
        # slack of the exit level about the tangency point
        if not np.all(np.isfinite(rho)) or np.any(rho < 2.0 * self.radial_bound * 2.0**-46):
            raise GeometryError("two-bubble radial profile degenerate; widen the neck")
        theta = np.arccos(np.clip(u[:n, self.axis], -1, 1))
        band = np.abs(theta - np.pi / 2) < self.beta
        self._band_rho_bound = float(np.max(rho[band])) * 1.05 if np.any(band) else 0.0
        if rays is not None:
            return profile[n:], grads()[1][n:]

    # fast solid-level evaluation: the two balls dominate everywhere except a
    # small radial pocket around the waist, where the blend profile is added
    #
    # The ball on the point's side of {x_axis = 0} is always evaluated.  The
    # far one is skipped where it cannot win: x0 = +-e_axis / phi(e_axis) lies
    # in K, so phi_polar(y) >= <x0, y> bounds the far ball's value below by
    # (|x_axis| + c_axis) / phi(e_axis); where that exceeds the near value,
    # the minimum is the near value, bit for bit.
    def solid_level(self, pts):
        pts = np.asarray(pts, dtype=float)
        xa = pts[..., self.axis]
        c = np.where(xa >= 0, 1.0, -1.0)[..., None] * self.center_offset
        near = self.dual.eval(pts - c)
        bound = (np.abs(xa) + self.center_offset[self.axis]) / self._phi_axis
        far = ~(bound > near * (1 + 1e-12))
        lvl = near.copy()
        if np.any(far):
            lvl[far] = np.minimum(near[far], self.dual.eval(pts[far] + c[far]))
        lvl -= self.r
        cand, rr = self._pocket(pts)
        if np.any(cand):
            u = pts[cand] / rr[cand][..., None]
            neck = (rr[cand] - self(u)) * self.dual.eval(u)
            lvl[cand] = np.minimum(lvl[cand], neck)
        return lvl

    def _pocket(self, pts):
        # the pocket's points, where the blend may undercut the balls, and |x|
        rr, theta = self._polar_coords(pts)
        return (np.abs(theta - np.pi / 2) < self.beta) & (rr < self._pocket_rho()) & (rr > 0), rr

    def near_pocket(self, pts, radius):
        """Whether the ball of that radius about each point may meet the
        pocket: a point of the ball has |x| above |pts| - radius, and unless
        the ball holds the origin, a polar angle within arcsin(radius / |pts|)
        of the center's."""
        rr, theta = self._polar_coords(pts)
        with np.errstate(divide="ignore", invalid="ignore"):
            spread = np.arcsin(np.minimum(radius / rr, 1.0))
        return (rr < self._pocket_rho() + radius) & (
            (rr <= radius) | (np.abs(theta - np.pi / 2) < self.beta + spread))

    def _polar_coords(self, pts):
        # |x| and the angle between x and the axis (0 at the origin)
        rr = np.linalg.norm(pts, axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            ca = np.where(rr > 0, pts[..., self.axis] / np.where(rr == 0, 1, rr), 1.0)
        return rr, np.arccos(np.clip(ca, -1.0, 1.0))

    def _pocket_rho(self):
        if getattr(self, "_band_rho_bound", None) is None:
            self.validate()
        return self._band_rho_bound


# ---------------------------------------------------------------------------
# generators


def gen(spec: ShapeSpec, resolution=None) -> GeneratedShape:
    """Build the mesh and solid for a shape specification."""
    if spec.kind == "wulff":
        w = WulffShape(spec.norm, spec.r)
        return GeneratedShape(spec, w.boundary_mesh(resolution=resolution), w)
    return {"perturbed-wulff": _gen_perturbed, "two-bubble": _gen_two_bubble,
            "tangent-union": _gen_tangent_union}[spec.kind](spec, resolution)


def _gen_perturbed(spec, resolution):
    norm, r, eps = spec.norm, spec.r, spec.eps
    u, faces = _sphere_sample(norm.dim, resolution)
    value, sgrad = perturbation_pattern(norm.dim, spec.pattern)
    radial = (1.0 + eps * value(u)) * r
    verts = radial[:, None] * norm.grad(u)
    dual = norm.dual()
    # exact level-set normal: G(x) = phi_polar(x) - r (1 + eps Y(uhat(x))),
    # grad G = grad(phi_polar) - (r eps / |grad phi_polar|) hess(phi_polar) gradS_Y
    gp = dual.grad(verts)
    gpn = np.linalg.norm(gp, axis=-1, keepdims=True)
    uhat = gp / gpn
    corr = np.einsum("nij,nj->ni", dual.hess(verts), sgrad(uhat))
    nrm_raw = gp - (r * eps / gpn) * corr
    normals = nrm_raw / np.linalg.norm(nrm_raw, axis=-1, keepdims=True)
    mesh = TriSurface(verts, faces, normals=normals)
    solid = PerturbedWulffSolid(norm, r, eps, spec.pattern)
    return GeneratedShape(spec, mesh, solid, meta={"pattern": spec.pattern})


class TwoBubbleSolid:
    """Level adapter over the two-bubble radial profile."""

    def __init__(self, profile):
        self.profile = profile

    def level_at(self, pts):
        return self.profile.solid_level(pts)

    def lipschitz(self, pts, radius):
        # outside the neck pocket the level is the two balls' minimum
        p = self.profile
        return np.where(p.near_pocket(np.asarray(pts, float), radius), np.inf,
                        WulffShape(p.norm, p.r).lipschitz(pts, radius))

    def bounds(self):
        p = self.profile
        w = WulffShape(p.norm, p.r)
        lo, hi = w.bounds()
        return (np.minimum(lo - p.center_offset, lo + p.center_offset),
                np.maximum(hi - p.center_offset, hi + p.center_offset))


def _gen_two_bubble(spec, resolution):
    profile = _TwoBubbleProfile(spec.norm, spec.r, spec.neck_width)
    u, faces = _sphere_sample(spec.norm.dim, resolution)
    # validate's samples and the mesh rays in one solve, which also gives
    # grad_S rho; the outward normal of x = rho(u) u is along u - grad_S(rho) / rho
    rho, grad_s = profile.validate(u)
    nrm = u - grad_s / rho[:, None]
    mesh = TriSurface(rho[:, None] * u, faces,
                      normals=nrm / np.linalg.norm(nrm, axis=-1, keepdims=True))
    solid = TwoBubbleSolid(profile)
    centers = np.stack([-profile.center_offset, profile.center_offset])
    return GeneratedShape(spec, mesh, solid,
                          meta={"centers": centers, "beta": profile.beta})


# the most mesh vertices plus center pairs (each one checked) of a tangent union
_MAX_UNION_SIZE = 2**21


def check_union_budget(spec, resolution=None):
    """Raise MeshBudgetError, building nothing, if a tangent union's mesh at
    that resolution and its center pairs would exceed _MAX_UNION_SIZE."""
    if spec.kind != "tangent-union":
        return
    k = spec.count if spec.centers is None else len(spec.centers)
    vertices, pairs = k * sphere_vertex_count(spec.norm.dim, resolution), k * (k - 1) // 2
    if vertices + pairs > _MAX_UNION_SIZE:
        raise MeshBudgetError(
            f"a tangent union of {k} balls has {vertices:,} mesh vertices and {pairs:,} center "
            f"pairs, over the budget of {_MAX_UNION_SIZE:,}; use fewer balls or a coarser mesh")


def _gen_tangent_union(spec, resolution):
    check_union_budget(spec, resolution)
    norm, r = spec.norm, spec.r
    dual = norm.dual()
    if spec.centers is not None:
        centers = np.asarray(spec.centers, dtype=float)
    else:
        e1 = np.zeros(norm.dim)
        e1[0] = 1.0
        step = 2.0 * r * norm.grad(e1)
        centers = np.stack([k * step for k in range(spec.count)])
    for i, c in enumerate(centers[:-1]):
        if np.any(dual.eval(centers[i + 1:] - c) < 2 * r * (1 - 1e-12)):
            raise GeometryError("tangent-union centers closer than 2r in the dual norm")
    w = WulffShape(norm, r)
    base = w.boundary_mesh(resolution=resolution)
    verts = np.concatenate([base.vertices + c for c in centers])
    nrm = np.concatenate([base.normals] * len(centers))
    nf = len(base.vertices)
    faces = np.concatenate([base.faces + k * nf for k in range(len(centers))])
    mesh = TriSurface(verts, faces, normals=nrm)
    solid = Union(*[Translate(WulffShape(norm, r), c) for c in centers])
    return GeneratedShape(spec, mesh, solid, meta={"centers": centers})


# ---------------------------------------------------------------------------
# radial graphs x = rho(u) u
#
# The anisotropic area element of a star-shaped surface x = rho(u) u is
# phi(rho^(d-1) u - rho^(d-2) grad_S rho) dsigma(u) by 1-homogeneity of phi,
# and its outward normal is proportional to u - grad_S(rho) / rho.  One
# density (`_area_density`) serves every perimeter in both dimensions.  Every
# grad_S rho is analytic: the perturbed radius's in closed form
# (`perturbed_wulff_perimeter`), the two-bubble profile's by implicit
# differentiation of its one union solve (`_TwoBubbleProfile._solve`), for
# the mesh normals and the perimeter alike, with no probe ray.  The dense
# direction quadrature resolves near-crystalline norms far better than
# chordal meshes, whose slanted faces misreport phi(normal) around sharp edges.

_SPHERE_AREA = {2: 2 * np.pi, 3: 4 * np.pi}


def _area_density(norm, u, rho, grad_s):
    """phi(rho^(d-1) u - rho^(d-2) grad_S rho), the area element per dsigma(u)."""
    d = u.shape[-1]
    return norm.eval((rho**(d - 1))[..., None] * u - (rho**(d - 2))[..., None] * grad_s)


def radial_perimeter(norm, rho_fn, n_dirs=None):
    """Anisotropic perimeter of the radial graph rho(u) u by direction
    quadrature; rho_fn(u) gives (rho, grad_S rho) at the unit rays u, taken
    2^16 rays at a time."""
    dim = norm.dim
    u = unit_sphere_samples(dim, {2: 200_000, 3: 400_000}[dim] if n_dirs is None else n_dirs)
    total = sum(float(np.sum(_area_density(norm, b, *rho_fn(b))))
                for b in np.split(u, range(2**16, len(u), 2**16)))
    return total / len(u) * _SPHERE_AREA[dim]


def _wulff_ball_perimeter(dual, r, n_dirs):
    """P(W_r) = r^n * integral of phi_polar(u)^-(n+1) over the unit sphere.

    On the Wulff ball rho = r / phi_polar(u), the integrand of
    `radial_perimeter` is pointwise rho^(n+1) / r: phi(nu) dA = <x, nu> dA / r
    is the cone volume element over r.  One polar evaluation per direction,
    on the directions `radial_perimeter` uses, instead of 2n + 1.
    """
    n = dual.dim - 1
    u = unit_sphere_samples(dual.dim, n_dirs)
    return r**n * float(np.mean(dual.eval(u) ** -(n + 1))) * _SPHERE_AREA[dual.dim]


def _axis_rays(axis, theta, psi=None):
    """Rays at polar angle theta from e_axis (and azimuth psi about it in 3D),
    shape (..., d)."""
    d = 2 if psi is None else 3
    perp = [k for k in range(d) if k != axis]
    s = np.sin(theta)
    u = np.empty(theta.shape + (d,))
    u[..., axis] = np.cos(theta)
    if psi is None:
        u[..., perp[0]] = s
    else:
        u[..., perp[0]], u[..., perp[1]] = s * np.cos(psi), s * np.sin(psi)
    return u


def two_bubble_perimeter(profile: "_TwoBubbleProfile", n_ball=None, n_band=None):
    """P(two-bubble) = 2 P(ball) + band correction, by direction quadrature.

    Outside the neck band the dumbbell boundary coincides with the two ball
    boundaries, so the band integral of (blend - union) is the only
    correction to twice the one-ball perimeter.  The ball term takes n_ball
    directions (default 100,000 in 2D, 400,000 in 3D).  The bands are (band,
    theta, psi) grids of polar angle theta and azimuth psi about the axis: in
    2D two bands about theta = +-pi/2, of n_band = (n_theta,) angles each
    (default (4096,)); in 3D one band about pi/2, n_band = (n_theta, n_psi)
    (default (180, 256)).  Their rays and the neck's edge rays go through one
    solve, which also gives grad_S rho of the union and of the profile by
    implicit differentiation (`_TwoBubbleProfile._solve`): no probe ray, no
    difference step.  That needs a polar with a gradient everywhere, so a
    crystalline polar is refused with UnsupportedOperationError.
    """
    norm, dim, beta = profile.norm, profile.norm.dim, profile.beta
    if not profile.dual.smooth:
        raise UnsupportedOperationError(
            f"the two-bubble perimeter differentiates the ball exits, and the "
            f"{profile.dual.family} polar of {norm.family} has no gradient at its kinks")
    n_ball = {2: 100_000, 3: 400_000}[dim] if n_ball is None else n_ball
    n_band = {2: (4096,), 3: (180, 256)}[dim] if n_band is None else n_band
    if dim == 2:
        psi, dpsi = None, 1.0
        theta = np.stack([np.linspace(c - beta, c + beta, n_band[0])
                          for c in (np.pi / 2, -np.pi / 2)])[..., None]
    else:
        n_theta, n_psi = n_band
        dpsi = 2 * np.pi / n_psi
        theta, psi = np.meshgrid(np.linspace(np.pi / 2 - beta, np.pi / 2 + beta, n_theta),
                                 (np.arange(n_psi) + 0.5) * dpsi, indexing="ij")
        theta, psi = theta[None], psi[None]
    p_ball = _wulff_ball_perimeter(profile.dual, profile.r, n_ball)
    u = _axis_rays(profile.axis, theta, psi).reshape(-1, dim)
    union, blend, grads = profile._solve(u)
    dens_u, dens_b = (_area_density(norm, u, rho, g) for rho, g in zip((union, blend), grads()))
    # dsigma = sin(theta)^(d-2) dtheta dpsi
    diff = ((dens_b - dens_u) * np.sin(theta).ravel() ** (dim - 2)).reshape(theta.shape)
    corr = 0.0
    for band, th in zip(diff, theta):
        corr += float(np.sum(band) * (th[1, 0] - th[0, 0]) * dpsi)
    return 2 * p_ball + corr


def perturbed_wulff_perimeter(spec: ShapeSpec, n_dirs=None):
    """Dense-quadrature perimeter of the perturbed Wulff graph."""
    norm, r, eps = spec.norm, spec.r, spec.eps
    dual = norm.dual()
    value, sgrad = perturbation_pattern(norm.dim, spec.pattern)

    def rho(u):
        # rho = r (1 + eps Y(g)) / phi_polar(u) with g = grad phi_polar / |grad
        # phi_polar|, whose derivative D g = (I - g g^T) H / |grad phi_polar|
        # (H the polar Hessian) gives grad rho = (r eps D g^T grad_S Y(g) - rho
        # grad phi_polar) / phi_polar; grad_S Y(g) is tangent at g, so
        # D g^T grad_S Y(g) = H grad_S Y(g) / |grad phi_polar|
        pol, gp = dual.eval(u), dual.grad(u)
        gpn = np.linalg.norm(gp, axis=-1, keepdims=True)
        g = gp / gpn
        rho = r * (1.0 + eps * value(g)) / pol
        dy = np.einsum("nij,nj->ni", dual.hess(u), sgrad(g)) / gpn
        grad = (r * eps * dy - rho[:, None] * gp) / pol[:, None]
        return rho, grad - np.sum(grad * u, axis=-1, keepdims=True) * u

    return radial_perimeter(norm, rho, n_dirs=n_dirs)


# ---------------------------------------------------------------------------
# norm sequences


def norm_sequence(kind, h, dim=3) -> Norm:
    """Member h of a smooth uniformly convex sequence converging to linf."""
    if h < 1:
        raise InvalidArgumentError("sequence index must be >= 1")
    if kind == "smoothed-max-to-linf":
        return SmoothedMaxNorm(dim, 2.0 ** (-h))
    if kind == "lp-to-linf":
        try:
            return WeightedLpNorm(dim, 2.0 ** h)
        except OverflowError:
            raise InvalidArgumentError(f"lp exponent 2**{h} overflows a float") from None
    raise InvalidArgumentError(f"unknown sequence kind {kind!r}")


# ---------------------------------------------------------------------------
# grammar


def parse_shape(text, dim, default_norm=None) -> ShapeSpec:
    """Parse ``<kind> key=value ...`` shape strings.

    Example: ``two-bubble norm=smoothmax:0.1 r=1.5 neck=0.1``.
    """
    parts = text.strip().split()
    if not parts:
        raise InvalidArgumentError("empty shape specification")
    kind = parts[0]
    kw = {}
    for tok in parts[1:]:
        if "=" not in tok:
            raise InvalidArgumentError(f"malformed shape token {tok!r}")
        key, val = tok.split("=", 1)
        kw[key] = val
    norm = parse_norm(kw.pop("norm"), dim) if "norm" in kw else default_norm
    if norm is None:
        raise InvalidArgumentError("shape specification needs a norm")
    args = {"kind": kind, "norm": norm}
    fields = {"r": ("r", float), "eps": ("eps", float), "pattern": ("pattern", int),
              "neck": ("neck_width", float), "k": ("count", int)}
    for key, val in kw.items():
        if key not in fields:
            raise InvalidArgumentError(f"unknown shape key {key!r}")
        name, convert = fields[key]
        args[name] = convert(val)
    return ShapeSpec(**args)
