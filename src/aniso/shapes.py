"""Deterministic generators of test geometries and norm sequences.

Every generator produces both a closed mesh (for surface quantities) and a
solid membership object (for voxelization), built from the same analytic
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

from .errors import GeometryError, InvalidArgumentError
from .mesh import TriSurface
from .norms import (Norm, SmoothedMaxNorm, WeightedLpNorm, parse_norm, tangent_basis,
                    unit_sphere_samples)
from .wulff import WulffShape, _sphere_sample
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
        if not (np.isfinite(self.r) and self.r > 0):
            raise InvalidArgumentError(f"radius must be finite and positive, got {self.r!r}")
        if self.kind == "perturbed-wulff" and not (0.0 <= self.eps < 0.3):
            raise InvalidArgumentError("perturbation amplitude must satisfy 0 <= eps < 0.3")
        if self.kind == "two-bubble" and not (0.0 < self.neck_width < self.r / 2):
            raise InvalidArgumentError("neck width must lie in (0, r/2)")


@dataclass
class GeneratedShape:
    spec: ShapeSpec
    mesh: TriSurface
    solid: object                 # contains_points / bounds / level_at
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
    raw_value, raw_grad = tab[int(pattern)]

    def value(u):
        return raw_value(u)

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

    def contains_points(self, pts):
        return self.level_at(pts) <= 0.0

    def bounds(self):
        lo, hi = WulffShape(self.norm, self.r * (1 + self.eps)).bounds()
        return lo, hi


# ---------------------------------------------------------------------------
# two-bubble radial profile


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
    themselves (`_radii`).
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

    # largest t with phi_polar(t u - c) <= r (1 + 1e-13): a 46-step bisection
    # on [0, 2 radial_bound], guided by Newton roots so that only its steps
    # near the exit evaluate phi_polar.  A ray whose final bracket ends are not
    # both evaluated midpoints (or bracket ends) is bisected again unguided,
    # so every radius is the plain bisection's, bit for bit.
    def _ball_exit(self, u, sign):
        c = sign * self.center_offset
        level = self.r * (1 + 1e-13)
        t_max = 2.0 * self.radial_bound
        root, margin = self._newton_exit(u, c, level, t_max)
        lo, certified = self._bisect(u, c, level, t_max, root, margin)
        redo = ~certified
        if np.any(redo):
            lo[redo], _ = self._bisect(u[redo], c, level, t_max, root[redo], np.inf)
        return lo

    def _newton_exit(self, u, c, level, t_max):
        """Newton roots of f(t) = phi_polar(t u - c) - level, and guide margins.

        With x = grad phi_polar(y) at y = t u - c, phi_polar(y) = <y, x>, so one
        maximizer solve gives both f = <y, x> - level and f' = <x, u>.  f is
        convex with f(0) < 0, so Newton from t_max falls monotonically to the
        exit (Dinkelbach, "On nonlinear fractional programming", 1967).  A ray
        stops once its step is at most a quarter of the bisection quantum q, or
        not positive (only rounding puts an iterate left of the root).  Rays
        that do not converge in 64 steps or meet a slope that is not positive,
        and every ray of a dual without a gradient everywhere, keep margin inf:
        their bisection is unguided.
        """
        n = len(u)
        root = np.zeros(n)
        margin = np.full(n, np.inf)
        if not self.dual.smooth:
            return root, margin
        q = t_max * 2.0**-46
        t = np.full(n, t_max)
        active = np.arange(n)
        for _ in range(64):
            ua = u[active]
            y = t[active, None] * ua - c
            x = self.dual.grad(y)
            slope = np.sum(x * ua, axis=-1)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = (np.sum(y * x, axis=-1) - level) / slope
            t[active] -= step
            rising = slope > 0
            done = rising & (step <= 0.25 * q)
            root[active[done]] = t[active[done]]
            margin[active[done]] = np.maximum(4.0 * q, 1e-13 * self.r / slope[done])
            active = active[rising & ~done & np.isfinite(step)]
            if active.size == 0:
                break
        return root, margin

    def _bisect(self, u, c, level, t_max, root, margin):
        """The 46-step bisection; a step evaluates phi_polar only for rays whose
        midpoint lies within margin of root, the others take mid < root.

        Returns the radii and whether each ray's final lo and hi both came from
        evaluated midpoints or the bracket ends.
        """
        lo = np.zeros(len(u))
        hi = np.full(len(u), t_max)
        lo_seen = np.ones(len(u), dtype=bool)
        hi_seen = lo_seen.copy()
        for _ in range(46):
            mid = 0.5 * (lo + hi)
            inside = mid < root
            ev = np.abs(mid - root) <= margin
            if np.any(ev):
                inside[ev] = self.dual.eval(mid[ev, None] * u[ev] - c) <= level
            lo_seen = np.where(inside, ev, lo_seen)
            hi_seen = np.where(inside, hi_seen, ev)
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid)
        return lo, lo_seen & hi_seen

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
        return self._radii(np.atleast_2d(np.asarray(u, dtype=float)))[1]

    def _radii(self, u):
        """(union, profile) radii at rays u, from one union solve.

        The neck's edge rays join that solve: one ray and its two
        finite-difference neighbours per distinct (meridian, side) of the band
        rays.  A union radius depends only on its own ray, so each is the one
        a separate call would give, bit for bit.
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
        _, first, inv = np.unique(np.column_stack([m, side]), axis=0,
                                  return_index=True, return_inverse=True)
        inv = inv.ravel()                  # numpy 2.0.0 returns a column here
        m_k, t_k = m[first], t_edge[first]
        dt = 1e-5
        edge = direction(np.concatenate([t_k, t_k + dt, t_k - dt]),
                         np.concatenate([m_k, m_k, m_k]))
        rho = self.union_rho(np.concatenate([u, edge]))
        union = rho[:n]
        rho_e, rho_p, rho_m = np.split(rho[n:], 3)
        rho_e_d = (rho_p - rho_m) / (2 * dt)
        rho_c = self.waist_rho(direction(np.full(len(m_k), np.pi / 2), m_k))
        rho_e, rho_e_d, rho_c = rho_e[inv], rho_e_d[inv], rho_c[inv]
        # cubic Hermite on [t_edge, pi/2]: value/slope at the edge from the
        # union profile, waist value with zero slope at the equator
        span = np.pi / 2 - t_edge
        s = (tb - t_edge) / span
        h00 = 2 * s**3 - 3 * s**2 + 1
        h10 = s**3 - 2 * s**2 + s
        h01 = -2 * s**3 + 3 * s**2
        blended = h00 * rho_e + h10 * span * rho_e_d + h01 * rho_c
        profile = union.copy()
        profile[band] = np.maximum(blended, union[band])
        return union, profile

    def _radii_sets(self, sets):
        """_radii of each ray set, from one solve: (unions, profiles) lists."""
        union, profile = self._radii(np.concatenate(sets))
        cut = np.cumsum([len(s) for s in sets])[:-1]
        return np.split(union, cut), np.split(profile, cut)

    def validate(self, *more):
        """Check the radii on 4,096 sphere samples and bound the neck pocket.

        The ray sets ``more`` join the same solve; returns their profile radii.
        """
        u = unit_sphere_samples(self.dim, 4096)
        _, (rho, *rest) = self._radii_sets([u, *more])
        if not np.all(np.isfinite(rho)) or np.any(rho <= 0):
            raise GeometryError("two-bubble radial profile degenerate; widen the neck")
        theta = np.arccos(np.clip(u[:, self.axis], -1, 1))
        band = np.abs(theta - np.pi / 2) < self.beta
        self._band_rho_bound = float(np.max(rho[band])) * 1.05 if np.any(band) else 0.0
        return rest

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
        if getattr(self, "_band_rho_bound", None) is None:
            self.validate()
        rr = np.linalg.norm(pts, axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            ca = np.where(rr > 0, pts[..., self.axis] / np.where(rr == 0, 1, rr), 1.0)
        theta = np.arccos(np.clip(ca, -1.0, 1.0))
        cand = (np.abs(theta - np.pi / 2) < self.beta) & (rr < self._band_rho_bound) & (rr > 0)
        if np.any(cand):
            u = pts[cand] / rr[cand][..., None]
            neck = (rr[cand] - self(u)) * self.dual.eval(u)
            lvl[cand] = np.minimum(lvl[cand], neck)
        return lvl


# ---------------------------------------------------------------------------
# generators


def gen(spec: ShapeSpec, resolution=None) -> GeneratedShape:
    """Build the mesh and solid for a shape specification."""
    kind = spec.kind
    norm = spec.norm
    if kind == "wulff":
        w = WulffShape(norm, spec.r)
        return GeneratedShape(spec, w.boundary_mesh(resolution=resolution), w)
    if kind == "perturbed-wulff":
        return _gen_perturbed(spec, resolution)
    if kind == "two-bubble":
        return _gen_two_bubble(spec, resolution)
    if kind == "tangent-union":
        return _gen_tangent_union(spec, resolution)
    raise InvalidArgumentError(kind)


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
    """Membership/level adapter over the two-bubble radial profile."""

    def __init__(self, profile):
        self.profile = profile

    def level_at(self, pts):
        return self.profile.solid_level(pts)

    def contains_points(self, pts):
        return self.level_at(pts) <= 0.0

    def bounds(self):
        p = self.profile
        w = WulffShape(p.norm, p.r)
        lo, hi = w.bounds()
        return (np.minimum(lo - p.center_offset, lo + p.center_offset),
                np.maximum(hi - p.center_offset, hi + p.center_offset))


def _gen_two_bubble(spec, resolution):
    profile = _TwoBubbleProfile(spec.norm, spec.r, spec.neck_width)
    u, faces = _sphere_sample(spec.norm.dim, resolution)
    t, probes = _tangent_probes(u)
    # validate's samples, the mesh rays and the normals' probes in one solve
    rho, *probe_rho = profile.validate(u, *probes)
    verts = rho[:, None] * u
    mesh = TriSurface(verts, faces, normals=_radial_graph_normals(u, rho, t, probe_rho))
    solid = TwoBubbleSolid(profile)
    centers = np.stack([-profile.center_offset, profile.center_offset])
    return GeneratedShape(spec, mesh, solid,
                          meta={"centers": centers, "beta": profile.beta})


_NORMAL_STEP = 1e-5


def _tangent_probes(u):
    """The tangent basis t of u, (N, d, d-1), and the unit rays u +- dt t_k."""
    t = tangent_basis(u)
    probes = []
    for k in range(t.shape[-1]):
        for sgn in (1.0, -1.0):
            p = u + sgn * _NORMAL_STEP * t[..., k]
            probes.append(p / np.linalg.norm(p, axis=-1, keepdims=True))
    return t, probes


def _radial_graph_normals(u, rho, t, probe_rho):
    """Outward normals of x = rho(u) u: proportional to u - (grad_S rho)/rho,
    with probe_rho the radii at the rays of `_tangent_probes`."""
    grads = [(probe_rho[2 * k] - probe_rho[2 * k + 1]) / (2 * _NORMAL_STEP)
             for k in range(t.shape[-1])]
    nrm = u - sum(g[:, None] * t[..., k] for k, g in enumerate(grads)) / rho[:, None]
    return nrm / np.linalg.norm(nrm, axis=-1, keepdims=True)


def _gen_tangent_union(spec, resolution):
    norm, r = spec.norm, spec.r
    dual = norm.dual()
    if spec.centers is not None:
        centers = np.asarray(spec.centers, dtype=float)
    else:
        e1 = np.zeros(norm.dim)
        e1[0] = 1.0
        step = 2.0 * r * norm.grad(e1)
        centers = np.stack([k * step for k in range(spec.count)])
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            if dual.eval(centers[i] - centers[j]) < 2 * r * (1 - 1e-12):
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
# dense radial-graph perimeter quadrature
#
# For a star-shaped surface x = rho(u) u the anisotropic area element is
# phi(rho^2 u - rho grad_S rho) dsigma(u) in 3D (phi(rho u - rho' t) dalpha in
# 2D) by 1-homogeneity of phi, so the perimeter reduces to a quadrature over
# directions.  This resolves near-crystalline norms far better than chordal
# meshes, whose slanted faces misreport phi(normal) around sharp edges.


def radial_perimeter(norm, rho_fn, n_dirs=None):
    """Anisotropic perimeter of the radial graph rho(u) u by direction quadrature."""
    dim = norm.dim
    if dim == 2:
        n = 200_000 if n_dirs is None else n_dirs
        alpha = (np.arange(n) + 0.5) * (2 * np.pi / n)
        u = np.stack([np.cos(alpha), np.sin(alpha)], axis=-1)
        t = np.stack([-np.sin(alpha), np.cos(alpha)], axis=-1)
        rho = rho_fn(u)
        da = 2 * np.pi / n
        up = np.stack([np.cos(alpha + 1e-6), np.sin(alpha + 1e-6)], axis=-1)
        um = np.stack([np.cos(alpha - 1e-6), np.sin(alpha - 1e-6)], axis=-1)
        drho = (rho_fn(up) - rho_fn(um)) / 2e-6
        vec = rho[:, None] * u - drho[:, None] * t
        return float(np.sum(norm.eval(vec)) * da)
    n = 400_000 if n_dirs is None else n_dirs
    u = unit_sphere_samples(dim, n)
    t = tangent_basis(u)
    rho = rho_fn(u)
    grads = []
    dt = 1e-6
    for k in range(2):
        up = u + dt * t[..., k]
        up /= np.linalg.norm(up, axis=-1, keepdims=True)
        um = u - dt * t[..., k]
        um /= np.linalg.norm(um, axis=-1, keepdims=True)
        grads.append((rho_fn(up) - rho_fn(um)) / (2 * dt))
    vec = (rho**2)[:, None] * u - rho[:, None] * (
        grads[0][:, None] * t[..., 0] + grads[1][:, None] * t[..., 1])
    return float(np.mean(norm.eval(vec)) * 4 * np.pi)


def wulff_radial_rho(norm, r):
    """Radial function of the Wulff ball, r / phi_polar(u)."""
    dual = norm.dual()

    def rho(u):
        return r / dual.eval(u)

    return rho


def _wulff_ball_perimeter(dual, r, n_dirs):
    """P(W_r) = r^n * integral of phi_polar(u)^-(n+1) over the unit sphere.

    On the Wulff ball rho = r / phi_polar(u), the integrand of
    `radial_perimeter` is pointwise rho^(n+1) / r: phi(nu) dA = <x, nu> dA / r
    is the cone volume element over r.  One polar evaluation per direction,
    on the directions `radial_perimeter` uses, instead of 2n + 1.
    """
    n = dual.dim - 1
    u = unit_sphere_samples(dual.dim, n_dirs)
    sphere = 2 * np.pi if n == 1 else 4 * np.pi
    return r**n * float(np.mean(dual.eval(u) ** -(n + 1))) * sphere


def two_bubble_perimeter(profile: "_TwoBubbleProfile", n_ball=400_000, n_band=(180, 256)):
    """P(two-bubble) = 2 P(ball) + band correction, by direction quadrature.

    Outside the neck band the dumbbell boundary coincides with the two ball
    boundaries, so the band integral of (blend - union) is the only
    correction to twice the one-ball perimeter.
    """
    norm = profile.norm
    p_ball = _wulff_ball_perimeter(profile.dual, profile.r,
                                   n_ball if norm.dim == 3 else 100_000)
    if norm.dim == 2:
        # both bands' rays and their +-1e-6 neighbours go through one solve
        bands = [np.linspace(center - profile.beta, center + profile.beta, 4096)
                 for center in (np.pi / 2, -np.pi / 2)]
        rho_u, rho_b = profile._radii_sets(
            [_rot2(a) for alpha in bands for a in (alpha, alpha + 1e-6, alpha - 1e-6)])
        corr = 0.0
        for i, alpha in enumerate(bands):
            u = _rot2(alpha)
            t = np.stack([-np.sin(alpha), np.cos(alpha)], axis=-1)

            def vec_of(rho, rho_plus, rho_minus):
                drho = (rho_plus - rho_minus) / 2e-6
                return rho[:, None] * u - drho[:, None] * t

            vb = vec_of(*rho_b[3 * i:3 * i + 3])
            vu = vec_of(*rho_u[3 * i:3 * i + 3])
            corr += float(np.sum(norm.eval(vb) - norm.eval(vu)) * (alpha[1] - alpha[0]))
        return 2 * p_ball + corr
    n_theta, n_psi = n_band
    beta = profile.beta
    theta = np.linspace(np.pi / 2 - beta, np.pi / 2 + beta, n_theta)
    psi = (np.arange(n_psi) + 0.5) * (2 * np.pi / n_psi)
    tg, pg = np.meshgrid(theta, psi, indexing="ij")
    dt_h = theta[1] - theta[0]
    dp = 2 * np.pi / n_psi
    axis = profile.axis
    perp = [k for k in range(3) if k != axis]

    def dir_of(th, ps):
        u = np.empty(th.shape + (3,))
        u[..., axis] = np.cos(th)
        u[..., perp[0]] = np.sin(th) * np.cos(ps)
        u[..., perp[1]] = np.sin(th) * np.sin(ps)
        return u

    d = 1e-6
    probes = [dir_of(th, ps).reshape(-1, 3)
              for th, ps in ((tg, pg), (tg + d, pg), (tg - d, pg), (tg, pg + d), (tg, pg - d))]
    rho_u, rho_b = profile._radii_sets(probes)

    def vec_of(rhos):
        rho, rho_tp, rho_tm, rho_pp, rho_pm = (r.reshape(tg.shape) for r in rhos)
        drho_t = (rho_tp - rho_tm) / (2 * d)
        drho_p = (rho_pp - rho_pm) / (2 * d)
        that = np.empty(tg.shape + (3,))
        that[..., axis] = -np.sin(tg)
        that[..., perp[0]] = np.cos(tg) * np.cos(pg)
        that[..., perp[1]] = np.cos(tg) * np.sin(pg)
        phat = np.empty(tg.shape + (3,))
        phat[..., axis] = 0.0
        phat[..., perp[0]] = -np.sin(pg)
        phat[..., perp[1]] = np.cos(pg)
        grad_s = drho_t[..., None] * that + (drho_p / np.sin(tg))[..., None] * phat
        u3 = dir_of(tg, pg)
        return (rho**2)[..., None] * u3 - rho[..., None] * grad_s

    vb = vec_of(rho_b)
    vu = vec_of(rho_u)
    diff = (norm.eval(vb.reshape(-1, 3)) - norm.eval(vu.reshape(-1, 3))).reshape(tg.shape)
    corr = float(np.sum(diff * np.sin(tg)) * dt_h * dp)
    return 2 * p_ball + corr


def _rot2(alpha):
    return np.stack([np.cos(alpha), np.sin(alpha)], axis=-1)


def perturbed_wulff_perimeter(spec: ShapeSpec, n_dirs=None):
    """Dense-quadrature perimeter of the perturbed Wulff graph."""
    norm = spec.norm
    dual = norm.dual()
    value, _ = perturbation_pattern(norm.dim, spec.pattern)

    def rho(u):
        gp = dual.grad(u)
        uhat = gp / np.linalg.norm(gp, axis=-1, keepdims=True)
        return spec.r * (1.0 + spec.eps * value(uhat)) / dual.eval(u)

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
        return WeightedLpNorm(dim, 2.0 ** h)
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
    for key, val in kw.items():
        if key == "r":
            args["r"] = float(val)
        elif key == "eps":
            args["eps"] = float(val)
        elif key == "pattern":
            args["pattern"] = int(val)
        elif key == "neck":
            args["neck_width"] = float(val)
        elif key == "k":
            args["count"] = int(val)
        else:
            raise InvalidArgumentError(f"unknown shape key {key!r}")
    return ShapeSpec(**args)
