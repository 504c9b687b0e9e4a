import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aniso import (
    ConvergenceError,
    EllipseNorm,
    EuclideanNorm,
    GeometryError,
    InvalidArgumentError,
    ShapeSpec,
    SmoothedMaxNorm,
    UnsupportedOperationError,
    WulffShape,
    curvature,
    enclosed_volume,
    gen,
    lambda_of,
    lp_deviation,
    norm_sequence,
    parse_shape,
)
from aniso.errors import MeshBudgetError
from aniso.norms import Norm, WeightedLpNorm, parse_norm, tangent_basis, unit_sphere_samples
from aniso import shapes, wulff
from aniso.shapes import (
    TwoBubbleSolid,
    _row_groups,
    _TwoBubbleProfile,
    _wulff_ball_perimeter,
    perturbation_pattern,
    perturbed_wulff_perimeter,
    radial_perimeter,
    two_bubble_perimeter,
)
from conftest import wulff_ball_rho


class TestSpecValidation:
    def test_kinds(self):
        with pytest.raises(InvalidArgumentError):
            ShapeSpec("blob", EuclideanNorm(2))

    def test_eps_range(self):
        with pytest.raises(InvalidArgumentError):
            ShapeSpec("perturbed-wulff", EuclideanNorm(2), eps=0.5)

    def test_neck_range(self):
        with pytest.raises(InvalidArgumentError):
            ShapeSpec("two-bubble", EuclideanNorm(2), r=1.0, neck_width=0.6)


class TestGenerators:
    def test_wulff_kind_matches_boundary_mesh(self):
        norm = EllipseNorm(np.diag([1.0, 4.0]))
        g = gen(ShapeSpec("wulff", norm, r=1.5), resolution=256)
        m = WulffShape(norm, 1.5).boundary_mesh(resolution=256)
        assert np.max(np.abs(g.mesh.vertices - m.vertices)) < 1e-12

    def test_zero_perturbation_is_exact_wulff(self):
        norm = EllipseNorm(np.diag([1.0, 4.0, 2.0]))
        g = gen(ShapeSpec("perturbed-wulff", norm, r=1.5, eps=0.0), resolution=3)
        m = WulffShape(norm, 1.5).boundary_mesh(resolution=3)
        assert np.max(np.abs(g.mesh.vertices - m.vertices)) < 1e-12
        assert np.max(np.abs(g.mesh.normals - m.normals)) < 1e-10

    @pytest.mark.parametrize("dim,vertices", [(2, 2048), (3, 10242)])
    def test_one_default_resolution(self, dim, vertices):
        # every kind, and boundary_mesh itself, resolves a missing resolution
        # the same way
        norm = EuclideanNorm(dim)
        meshes = [gen(ShapeSpec("wulff", norm, r=1.5)).mesh,
                  gen(ShapeSpec("perturbed-wulff", norm, r=1.5, eps=0.0)).mesh,
                  WulffShape(norm, 1.5).boundary_mesh()]
        assert [len(m.vertices) for m in meshes] == [vertices] * 3

    def test_perturbed_solid_matches_mesh(self):
        norm = EllipseNorm(np.diag([1.0, 4.0]))
        g = gen(ShapeSpec("perturbed-wulff", norm, r=1.5, eps=0.1, pattern=1),
                resolution=512)
        lvl = g.solid.level_at(g.mesh.vertices)
        assert np.max(np.abs(lvl)) < 1e-10

    def test_perturbed_normals_match_finite_differences(self):
        # oracle: normals from central differences of the radial graph
        norm = EllipseNorm(np.diag([1.0, 4.0]))
        g = gen(ShapeSpec("perturbed-wulff", norm, r=1.0, eps=0.1, pattern=0),
                resolution=4096)
        v = g.mesh.vertices
        t = np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)
        t /= np.linalg.norm(t, axis=-1, keepdims=True)
        dots = np.abs(np.sum(t * g.mesh.normals, axis=-1))
        assert np.max(dots) < 2e-3

    def test_two_bubble_volume_approaches_two_wulff(self):
        # oracle: sum of the parts; the neck adds a strictly shrinking excess
        norm = EuclideanNorm(3)
        vols = []
        for neck in (0.3, 0.15, 0.075):
            g = gen(ShapeSpec("two-bubble", norm, r=1.0, neck_width=neck),
                    resolution=4)
            vols.append(enclosed_volume(g.mesh))
        assert vols[0] > vols[1] > vols[2]
        two_balls = 2 * enclosed_volume(WulffShape(norm, 1.0).boundary_mesh(resolution=5))
        assert abs(vols[2] - two_balls) / two_balls < 0.01

    def test_two_bubble_tangency_distance(self):
        norm = SmoothedMaxNorm(3, 0.2)
        g = gen(ShapeSpec("two-bubble", norm, r=1.2, neck_width=0.2), resolution=3)
        c = g.meta["centers"]
        assert norm.dual().eval(c[1] - c[0]) == pytest.approx(2 * 1.2, rel=1e-12)

    def test_two_bubble_solid_mesh_agreement(self):
        norm = EuclideanNorm(2)
        g = gen(ShapeSpec("two-bubble", norm, r=1.0, neck_width=0.2), resolution=512)
        lvl = g.solid.level_at(g.mesh.vertices)
        assert np.max(np.abs(lvl)) < 1e-9

    @pytest.mark.parametrize("dim,h", [(d, h) for d in (2, 3) for h in (1, 2, 3)])
    def test_two_bubble_normals_match_chord_probes(self, dim, h):
        # criterion 7's family: each mesh normal, from grad_S rho of the one
        # union solve, against u - grad_S(rho) / rho with grad_S rho from
        # fourth-order central differences of the profile along chord probes
        # u +- h t_k, u +- 2h t_k.  The probes' error is truncation at the
        # large steps near the near-crystalline corners and rounding at the
        # small ones (the neck's edge slope is itself a difference of radii),
        # so each vertex takes its best of three steps.  Vertices at the
        # tangency point, where the union radius is below 1e-6, are left out.
        spec = ShapeSpec("two-bubble", norm_sequence("smoothed-max-to-linf", h, dim), r=1.5,
                         neck_width=1.5 * (0.49 if h == 1 else 2.0**-h))
        res = None if dim == 2 else 4
        g = gen(spec, resolution=res)
        p = g.solid.profile
        u, _ = wulff._sphere_sample(dim, res)
        t = tangent_basis(u)

        def rho(v):
            return p(v / np.linalg.norm(v, axis=-1, keepdims=True))

        angles = []
        for step in (1e-3, 1e-4, 1e-5):
            grad = 0.0
            for k in range(dim - 1):
                d1, d2 = (rho(u + j * step * t[..., k]) - rho(u - j * step * t[..., k])
                          for j in (1, 2))
                grad = grad + ((8 * d1 - d2) / (12 * step))[:, None] * t[..., k]
            nrm = u - grad / p(u)[:, None]
            nrm /= np.linalg.norm(nrm, axis=-1, keepdims=True)
            angles.append(np.linalg.norm(nrm - g.mesh.normals, axis=-1))
        far = p.union_rho(u) > 1e-6
        assert np.sum(far) >= 0.95 * len(u)
        assert np.max(np.min(angles, axis=0)[far]) <= 1e-6

    def test_tangent_union_center_distances(self):
        norm = EllipseNorm(np.diag([1.0, 4.0]))
        g = gen(ShapeSpec("tangent-union", norm, r=1.0, count=3), resolution=128)
        c = g.meta["centers"]
        dual = norm.dual()
        for i in range(3):
            for j in range(i + 1, 3):
                assert dual.eval(c[i] - c[j]) >= 2.0 - 1e-12

    def test_tangent_union_budget_counts_vertices_and_pairs(self, monkeypatch):
        # 2D at resolution 3: k balls have 3k vertices and k(k - 1)/2 center
        # pairs, within 2^21 up to k = 2045; refused before any mesh is built
        norm = EuclideanNorm(2)
        shapes.check_union_budget(ShapeSpec("tangent-union", norm, count=2045), 3)
        monkeypatch.setattr(wulff, "circle_points", None)
        with pytest.raises(MeshBudgetError, match="2046 balls has 6,138 mesh vertices"):
            gen(ShapeSpec("tangent-union", norm, count=2046), resolution=3)
        with pytest.raises(MeshBudgetError):
            gen(ShapeSpec("tangent-union", norm, count=1024))  # 2,048 vertices per ball

    def test_tangent_union_rejects_close_centers(self):
        with pytest.raises(GeometryError):
            gen(ShapeSpec("tangent-union", EuclideanNorm(2), r=1.0,
                          centers=((0.0, 0.0), (1.0, 0.0))), resolution=64)

    def test_lambda_calibration(self):
        # lambda_of = n/r within 1 percent; the deviation stays below the
        # curvature discretization floor 2% * lambda * sqrt(area)
        norm = EllipseNorm(np.diag([1.0, 4.0, 2.0]))
        g = gen(ShapeSpec("wulff", norm, r=1.5), resolution=4)
        lam = lambda_of(g.mesh, norm)
        assert lam == pytest.approx(2 / 1.5, rel=0.01)
        f = curvature(g.mesh, norm)
        from aniso import aniso_area
        floor = 0.02 * lam * aniso_area(g.mesh, EuclideanNorm(3)) ** 0.5
        assert lp_deviation(f, g.mesh, lam, p=2) < floor

    def test_deviation_strictly_decreasing_in_eps(self):
        norm = EllipseNorm(np.diag([1.0, 4.0]))
        devs = []
        for eps in (0.1, 0.05, 0.025):
            g = gen(ShapeSpec("perturbed-wulff", norm, r=1.5, eps=eps, pattern=0),
                    resolution=1024)
            f = curvature(g.mesh, norm)
            devs.append(lp_deviation(f, g.mesh, lambda_of(g.mesh, norm), p=1))
        assert devs[0] > devs[1] > devs[2]


class TestPatterns:
    @pytest.mark.parametrize("dim,pattern", [(2, 0), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3)])
    def test_tangential_gradient_by_finite_differences(self, dim, pattern, rng):
        from aniso.norms import tangent_basis
        value, sgrad = perturbation_pattern(dim, pattern)
        u = unit_sphere_samples(dim, 64)
        t = tangent_basis(u)
        g = sgrad(u)
        for k in range(dim - 1):
            d = 1e-6
            up = u + d * t[..., k]
            up /= np.linalg.norm(up, axis=-1, keepdims=True)
            um = u - d * t[..., k]
            um /= np.linalg.norm(um, axis=-1, keepdims=True)
            fd = (value(up) - value(um)) / (2 * d)
            assert np.allclose(np.sum(g * t[..., k], axis=-1), fd, atol=1e-5)

    def test_bounded_by_one(self):
        for pattern in range(4):
            value, _ = perturbation_pattern(3, pattern)
            assert np.max(np.abs(value(unit_sphere_samples(3, 20000)))) <= 1.0 + 1e-9


def _probe_perimeter(spec, n_dirs, h):
    # the perturbed perimeter with grad_S rho from central differences of rho
    # along chord probes u +- h t_k over a unit tangent frame t
    norm, dual = spec.norm, spec.norm.dual()
    value, _ = perturbation_pattern(norm.dim, spec.pattern)

    def rho(u):
        u = u / np.linalg.norm(u, axis=-1, keepdims=True)
        gp = dual.grad(u)
        y = value(gp / np.linalg.norm(gp, axis=-1, keepdims=True))
        return spec.r * (1 + spec.eps * y) / dual.eval(u)

    u = unit_sphere_samples(norm.dim, n_dirs)
    t = tangent_basis(u)
    grad = sum(((rho(u + h * t[..., k]) - rho(u - h * t[..., k])) / (2 * h))[:, None] * t[..., k]
               for k in range(norm.dim - 1))
    radius = rho(u)
    dens = norm.eval((radius ** (norm.dim - 1))[:, None] * u
                     - (radius ** (norm.dim - 2))[:, None] * grad)
    return float(np.mean(dens)) * {2: 2 * np.pi, 3: 4 * np.pi}[norm.dim]


class TestRadialPerimeter:
    def test_sphere(self):
        dual = EuclideanNorm(3).dual()
        p = radial_perimeter(EuclideanNorm(3), wulff_ball_rho(dual, 1.5), n_dirs=100_000)
        assert p == pytest.approx(4 * np.pi * 1.5**2, rel=1e-6)

    _ELLIPSES = {2: [1.0, 4.0], 3: [1.0, 4.0, 2.0]}

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_mesh_for_smooth_norms(self, dim):
        norm = EllipseNorm(np.diag(self._ELLIPSES[dim]))
        dual = norm.dual()
        p = radial_perimeter(norm, wulff_ball_rho(dual, 1.0), n_dirs=100_000)
        from aniso.mesh import aniso_area
        mesh = WulffShape(norm, 1.0).boundary_mesh()  # 2,048 points, icosphere level 5
        assert p == pytest.approx(aniso_area(mesh, norm), rel=2e-3)

    def test_two_bubble_smooth_case_matches_mesh(self):
        from aniso.mesh import aniso_area
        norm = EuclideanNorm(3)
        g = gen(ShapeSpec("two-bubble", norm, r=1.0, neck_width=0.3), resolution=5)
        quad = two_bubble_perimeter(g.solid.profile, n_ball=100_000, n_band=(120, 128))
        mesh_val = aniso_area(g.mesh, norm)
        assert quad == pytest.approx(mesh_val, rel=5e-3)

    @pytest.mark.parametrize("dim,spec,pattern", [(3, "smoothmax:0.1", 1), (2, "smoothmax:0.1", 1),
                                                  (3, "ellipse:1,4,2", 1), (2, "ellipse:1,4", 0)])
    def test_perturbed_wulff_is_the_limit_of_chord_probes(self, dim, spec, pattern):
        # the closed-form grad_S rho is the limit of the probes' central
        # differences: their perimeter error falls as h^2, by about 100 per
        # decade of the step, down to rounding (1e-12 relative)
        spec = ShapeSpec("perturbed-wulff", parse_norm(spec, dim), r=1.5, eps=0.1,
                         pattern=pattern)
        exact = perturbed_wulff_perimeter(spec, n_dirs=20_000)
        gaps = [abs(_probe_perimeter(spec, 20_000, h) - exact) / exact for h in (1e-4, 1e-5, 1e-6)]
        for coarse, fine in zip(gaps, gaps[1:]):
            assert fine <= max(0.015 * coarse, 1e-12)
        assert gaps[0] > 1e-10

    @pytest.mark.parametrize("dim", [2, 3])
    def test_perturbed_wulff_smooth_case_matches_mesh(self, dim):
        from aniso.mesh import aniso_area
        norm = EllipseNorm(np.diag(self._ELLIPSES[dim]))
        spec = ShapeSpec("perturbed-wulff", norm, r=1.5, eps=0.1, pattern=0)
        g = gen(spec)
        assert perturbed_wulff_perimeter(spec, n_dirs=100_000) == pytest.approx(
            aniso_area(g.mesh, norm), rel=5e-3)


def _bisection_exit(p, u, sign):
    # the plain 46-step bisection for the largest t with
    # phi_polar(t u - c) <= r (1 + 1e-13), evaluating every step
    c = sign * p.center_offset
    lo = np.zeros(len(u))
    hi = np.full(len(u), 2.0 * p.radial_bound)
    for _ in range(46):
        mid = 0.5 * (lo + hi)
        inside = p.dual.eval(mid[:, None] * u - c) <= p.r * (1 + 1e-13)
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return lo


def _exit_margin(p, u, sign, t):
    # max(1.25 q, 1e-14 r / slope), with q = 2 radial_bound 2^-46 the
    # bisection quantum and slope = <grad phi_polar, u> at the exit t: the
    # bisection's bracket about the exit and the band in which rounding of
    # phi_polar (a few ulp of r) can move it
    q = 2.0 * p.radial_bound * 2.0**-46
    if not p.dual.smooth:
        return np.full(len(u), q)
    slope = np.abs(np.sum(p.dual.grad(t[:, None] * u - sign * p.center_offset) * u, axis=-1))
    with np.errstate(divide="ignore"):
        return np.maximum(1.25 * q, 1e-14 * p.r / slope)


def _union_ref(p, u):
    # reference union and its margin: the plain bisection exit of the ball on
    # the ray's side of the tangency plane, the larger of both on the plane
    ua = u[:, p.axis]
    out, margin = np.zeros(len(u)), np.zeros(len(u))
    for sign, side in ((1.0, ua >= 0), (-1.0, ua <= 0)):
        t = _bisection_exit(p, u[side], sign)
        out[side] = np.maximum(out[side], t)
        margin[side] = np.maximum(margin[side], _exit_margin(p, u[side], sign, t))
    return out, margin


def _blend_ref(p, u, theta, rho_union):
    # reference neck: edge value, slope and waist solved point by point
    sa = np.sin(theta)
    m = u.copy()
    m[:, p.axis] = 0.0
    m /= np.where(sa[:, None] > 1e-12, sa[:, None], 1.0)
    side = np.where(theta <= np.pi / 2, 1.0, -1.0)
    t_edge = np.pi / 2 - side * p.beta

    def direction(t):
        d = np.zeros_like(u)
        d[:, p.axis] = np.cos(t)
        d += np.sin(t)[:, None] * m
        return d

    rho_e = _union_ref(p, direction(t_edge))[0]
    dt = 1e-5
    rho_e_d = (_union_ref(p, direction(t_edge + dt))[0]
               - _union_ref(p, direction(t_edge - dt))[0]) / (2 * dt)
    rho_c = p.waist_rho(direction(np.full(len(u), np.pi / 2)))
    span = np.pi / 2 - t_edge
    s = (theta - t_edge) / span
    blended = ((2 * s**3 - 3 * s**2 + 1) * rho_e + (s**3 - 2 * s**2 + s) * span * rho_e_d
               + (-2 * s**3 + 3 * s**2) * rho_c)
    return np.maximum(blended, rho_union)


def _profile_ref(p, u):
    theta = np.arccos(np.clip(u[:, p.axis], -1.0, 1.0))
    out = _union_ref(p, u)[0]
    band = np.abs(theta - np.pi / 2) < p.beta
    out[band] = _blend_ref(p, u[band], theta[band], out[band])
    return out


def _exit_slope(p, u, rho, v):
    # d rho along the tangent v at the ray u, by implicit differentiation of
    # phi_polar(rho u - c) = r on the ball the ray leaves
    c = np.where(u[:, p.axis] >= 0, 1.0, -1.0)[:, None] * p.center_offset
    x = p.dual.grad(rho[:, None] * u - c)
    return -rho * np.sum(x * v, axis=-1) / np.sum(x * u, axis=-1)


def _band_correction_two_calls(p, n_band):
    # the perimeter's band correction with the union and the profile each
    # solved by its own call, and grad_S rho summed over the (theta, psi)
    # frame: the union's slopes by implicit differentiation of its exit, the
    # blend's by differentiating the Hermite cubic, its edge value, its edge
    # slope (a central difference over 2e-5, as the profile defines it) and
    # its waist value; the profile's gradient is the blend's where it lies
    # above the union (axis 0)
    norm, dim, beta = p.norm, p.dim, p.beta
    if dim == 2:
        alpha = np.concatenate([np.linspace(c - beta, c + beta, n_band[0])
                                for c in (np.pi / 2, -np.pi / 2)])
        u = np.stack([np.cos(alpha), np.sin(alpha)], axis=-1)
        weight = np.full(len(u), alpha[1] - alpha[0])
    else:
        th = np.linspace(np.pi / 2 - beta, np.pi / 2 + beta, n_band[0])
        ps = (np.arange(n_band[1]) + 0.5) * (2 * np.pi / n_band[1])
        tg, pg = (g.ravel() for g in np.meshgrid(th, ps, indexing="ij"))
        u = np.stack([np.cos(tg), np.sin(tg) * np.cos(pg), np.sin(tg) * np.sin(pg)], -1)
        weight = np.sin(tg) * (th[1] - th[0]) * (2 * np.pi / n_band[1])
    union, profile = p.union_rho(u), p(u)
    theta = np.arccos(np.clip(u[:, 0], -1.0, 1.0))
    sa = np.sin(theta)
    m = u.copy()
    m[:, 0] = 0.0
    m /= sa[:, None]

    def direction(t):
        d = np.sin(t)[:, None] * m
        d[:, 0] = np.cos(t)
        return d

    frame = [direction(theta + np.pi / 2)]
    if dim == 3:
        frame.append(np.stack([np.zeros_like(theta), -m[:, 2], m[:, 1]], -1))
    g_union = sum(_exit_slope(p, u, union, v)[:, None] * v for v in frame)
    side = np.where(theta <= np.pi / 2, 1.0, -1.0)
    t_e = np.pi / 2 - side * beta
    span = np.pi / 2 - t_e
    s = (theta - t_e) / span
    dt = 1e-5
    edge = [direction(t_e + k * dt) for k in (0, 1, -1)]
    rho_e, rho_p, rho_m = (p.union_rho(e) for e in edge)
    waist = direction(np.full(len(u), np.pi / 2))
    rho_c = p.waist_rho(waist)
    d_theta = ((6 * s**2 - 6 * s) * rho_e + (3 * s**2 - 4 * s + 1) * span * (rho_p - rho_m)
               / (2 * dt) + (-6 * s**2 + 6 * s) * rho_c) / span
    g_blend = d_theta[:, None] * frame[0]
    if dim == 3:
        mp = frame[1]
        d_e, d_p, d_m = (_exit_slope(p, e, rho, np.sin(t_e + k * dt)[:, None] * mp)
                         for e, rho, k in zip(edge, (rho_e, rho_p, rho_m), (0, 1, -1)))
        grad_w = p.dual.grad(waist)
        d_c = -0.5 * p.w * np.sum(grad_w * mp, axis=-1) / p.dual.eval(waist) ** 2
        d_psi = ((2 * s**3 - 3 * s**2 + 1) * d_e + (s**3 - 2 * s**2 + s) * span
                 * (d_p - d_m) / (2 * dt) + (-2 * s**3 + 3 * s**2) * d_c)
        g_blend = g_blend + (d_psi / sa)[:, None] * mp
    g_profile = np.where((profile > union)[:, None], g_blend, g_union)

    def density(rho, g):
        return norm.eval((rho**(dim - 1))[:, None] * u - (rho**(dim - 2))[:, None] * g)

    return float(np.sum((density(profile, g_profile) - density(union, g_union)) * weight))


_SMOOTH_PROFILE_NORMS = [(2, "euclidean"), (2, "ellipse:1,4"), (2, "smoothmax:0.5"),
                         (2, "smoothmax:0.125"), (3, "euclidean"), (3, "ellipse:1,4,2"),
                         (3, "smoothmax:0.5"), (3, "smoothmax:0.125")]
# the linf ball's polar (l1) has no gradient at its kinks: no Newton guide
_PROFILE_NORMS = _SMOOTH_PROFILE_NORMS + [(2, "linf"), (3, "linf")]


class _Rotated(Norm):
    """phi(R v) for a 2D norm phi and a rotation R by ``angle``; its polar is
    phi_polar(R y), the same construction on the polar.  R is applied point
    by point (a matmul's rounding can change with the batch), so a point's
    value does not depend on the batch it is evaluated in."""

    family = "rotated"

    def __init__(self, base, angle):
        super().__init__(2)
        self.base = base
        self.angle = angle
        self.cos, self.sin = np.cos(angle), np.sin(angle)

    def _turn(self, v, sin):
        x, y = v[..., 0], v[..., 1]
        return np.stack([self.cos * x - sin * y, sin * x + self.cos * y], axis=-1)

    def _eval(self, v):
        return self.base._eval(self._turn(v, self.sin))

    def _grad(self, v):
        return self._turn(self.base._grad(self._turn(v, self.sin)), -self.sin)

    def _dual_partner(self):
        return _Rotated(self.base._dual_partner(), self.angle)


class TestTwoBubbleProfileReference:
    """Each two-bubble ray solved once, against the per-ray definitions.

    Union radii lie within their exit margins (`_exit_margin`) of the plain
    bisection's, and equal it bit for bit for a polar without a gradient
    everywhere.  Blended radii are within q / 1e-5 of the reference blend
    built on those bisection exits, with q = 2 radial_bound 2^-46 the
    bisection quantum (the edge slope is a central difference over 2e-5).
    """

    @staticmethod
    def _profile(dim, spec):
        return _TwoBubbleProfile(parse_norm(spec, dim), 1.0, 0.3)

    @staticmethod
    def _rays(p):
        dim = p.dim
        band = np.linspace(-0.99 * p.beta, 0.99 * p.beta, 9)
        if dim == 2:
            alpha = np.concatenate([np.pi / 2 + band, -np.pi / 2 + band])
            rows = [np.stack([np.cos(alpha), np.sin(alpha)], -1), [[0.0, 1.0], [0.0, -1.0]]]
        else:
            th, ps = np.meshgrid(np.pi / 2 + band, np.linspace(0.1, 2 * np.pi, 7),
                                 indexing="ij")
            ps0 = np.array([0.0, 1.0, 2.5, 4.0])
            rows = [np.stack([np.cos(th), np.sin(th) * np.cos(ps), np.sin(th) * np.sin(ps)],
                             -1).reshape(-1, 3),
                    np.stack([np.zeros_like(ps0), np.cos(ps0), np.sin(ps0)], -1)]
        # rays just off the tangency plane: the exits are shallow crossings
        tiny = unit_sphere_samples(dim, 12)
        tiny[:, p.axis] = np.array([1e-9, -1e-9, 1e-12, -1e-12, 3e-10, -1e-15] * 2)
        tiny /= np.linalg.norm(tiny, axis=-1, keepdims=True)
        u = np.concatenate([unit_sphere_samples(dim, 128), tiny]
                           + [np.asarray(r) for r in rows])
        assert np.sum(u[:, p.axis] == 0.0) >= 2
        assert np.sum(u[:, p.axis] > 0) > 20 and np.sum(u[:, p.axis] < 0) > 20
        return u

    @pytest.mark.parametrize("dim,spec", _PROFILE_NORMS)
    def test_union_and_blend_match_per_ray_definitions(self, dim, spec):
        p = self._profile(dim, spec)
        u = self._rays(p)
        q = 2 * p.radial_bound * 2.0**-46
        rho = p.union_rho(u)
        ref, margin = _union_ref(p, u)
        if p.dual.smooth:
            assert np.all(np.abs(rho - ref) <= margin)
        else:
            assert np.array_equal(rho, ref)
        # off the plane the other ball's exit adds nothing; within 1e-9 of it
        # the level's 1e-13 slack can let it run a few hundred q longer, at
        # the tangency point, where the neck takes over
        both = np.maximum(_bisection_exit(p, u, 1.0), _bisection_exit(p, u, -1.0))
        ua = u[:, p.axis]
        off = (np.abs(ua) > 1e-9) | (ua == 0.0)
        assert np.all((np.abs(rho - both) <= np.maximum(margin, q))[off])
        assert np.max(np.abs(p(u) - _profile_ref(p, u))) <= q / 1e-5

    @pytest.mark.parametrize("dim", [2, 3])
    def test_guide_evaluates_few_steps(self, dim, monkeypatch):
        # the plain bisection evaluates phi_polar 46 times per ray; Newton
        # from the quadratic model's root takes a few polar gradients per ray
        # and no polar value
        p = self._profile(dim, "smoothmax:0.125")
        u = unit_sphere_samples(dim, 2000)
        points = {"eval": 0, "grad": 0}
        for op in points:
            def counted(v, op=op, call=getattr(p.dual, op)):
                points[op] += len(v)
                return call(v)
            monkeypatch.setattr(p.dual, op, counted)
        p.union_rho(u)
        assert points["eval"] == 0
        assert points["grad"] <= 10 * len(u)

    @staticmethod
    def _level_points(p, n, rng):
        # uniform in the box, a tenth on the tangency plane and a tenth within
        # 1e-9 of it, all outside the neck pocket
        p.validate()
        lo, hi = TwoBubbleSolid(p).bounds()
        pts = rng.uniform(lo, hi, size=(n, p.dim))
        pts[:n // 10, p.axis] = 0.0
        pts[n // 10:n // 5, p.axis] = rng.uniform(-1e-9, 1e-9, n // 10)
        rr = np.linalg.norm(pts, axis=-1)
        theta = np.arccos(np.clip(pts[:, p.axis] / rr, -1.0, 1.0))
        return pts[(np.abs(theta - np.pi / 2) >= p.beta) | (rr >= p._band_rho_bound)]

    @staticmethod
    def _both_balls(p, pts):
        return np.minimum(p.dual.eval(pts - p.center_offset),
                          p.dual.eval(pts + p.center_offset)) - p.r

    @pytest.mark.parametrize("dim,spec", [c for c in _PROFILE_NORMS if "smoothmax" not in c[1]]
                             + [(2, "ellipse:1,0.6,4"), (3, "ellipse:1,0.3,0.2,4,0.5,2")])
    def test_solid_level_is_min_of_both_balls(self, dim, spec, rng):
        # outside the neck pocket the level is the smaller ball value, though
        # the far ball is evaluated only where its lower bound allows it to
        # be smaller (the tilted ellipses put the centers off the axis)
        p = self._profile(dim, spec)
        pts = self._level_points(p, 20_000, rng)
        assert np.array_equal(p.solid_level(pts), self._both_balls(p, pts))

    def test_solid_level_where_the_far_ball_wins(self, rng):
        # for lattice norms and ellipses the ball on the point's side always
        # has the smaller value; for a rotated weighted lp norm it does not
        p = _TwoBubbleProfile(_Rotated(WeightedLpNorm(2, 1.3, [1.0, 2.0]), 0.8), 1.0, 0.3)
        pts = self._level_points(p, 20_000, rng)
        xa = pts[:, p.axis]
        near = p.dual.eval(pts - np.where(xa >= 0, 1.0, -1.0)[:, None] * p.center_offset)
        ref = self._both_balls(p, pts)
        assert np.sum(ref < near - p.r) > 100
        assert np.array_equal(p.solid_level(pts), ref)

    @pytest.mark.parametrize("dim,spec", [c for c in _PROFILE_NORMS if "smoothmax" in c[1]])
    def test_solid_level_is_min_of_both_balls_pointwise(self, dim, spec, rng):
        # each point stops its own smoothmax polar solve, so the far ball's
        # values on its subset are the whole batch's, bit for bit
        p = self._profile(dim, spec)
        pts = self._level_points(p, 20_000, rng)
        assert np.array_equal(p.solid_level(pts), self._both_balls(p, pts))

    @pytest.mark.parametrize("dim,spec", _PROFILE_NORMS)
    def test_concatenation_equals_per_set_calls(self, dim, spec):
        # a ray's radii depend only on the ray, so one solve over several ray
        # sets gives each set's own solve, bit for bit
        p = self._profile(dim, spec)
        u = self._rays(p)
        u = u[np.random.default_rng(0).permutation(len(u))]
        cuts = [1, 7, len(u) // 2]
        unions, profiles = (np.split(r, cuts) for r in p._solve(u)[:2])
        assert np.array_equal(p.union_rho(u), np.concatenate(unions))
        for rays, union, profile in zip(np.split(u, cuts), unions, profiles):
            assert np.array_equal(p.union_rho(rays), union)
            one_union, one_profile, _ = p._solve(rays)
            assert np.array_equal(one_union, union)
            assert np.array_equal(one_profile, profile)
            assert np.array_equal(p(rays), profile)

    @pytest.mark.parametrize("dim,spec", _SMOOTH_PROFILE_NORMS)
    def test_ball_term_matches_radial_perimeter(self, dim, spec):
        norm = parse_norm(spec, dim)
        dual = norm.dual()
        n_dirs = 20_000 if dim == 3 else 100_000
        assert _wulff_ball_perimeter(dual, 1.3, n_dirs) == pytest.approx(
            radial_perimeter(norm, wulff_ball_rho(dual, 1.3), n_dirs=n_dirs), rel=1e-12)

    @pytest.mark.parametrize("dim,spec", _SMOOTH_PROFILE_NORMS)
    def test_perimeter_matches_two_call_composition(self, dim, spec, monkeypatch):
        p = self._profile(dim, spec)
        n_ball, n_band = 20_000, (40, 32)[:dim - 1]
        p_ball = radial_perimeter(p.norm, wulff_ball_rho(p.dual, p.r), n_dirs=n_ball)
        ref = 2 * p_ball + _band_correction_two_calls(p, n_band)
        ball_dirs = []

        def ball_term(dual, r, n_dirs):
            ball_dirs.append(n_dirs)
            return _wulff_ball_perimeter(dual, r, n_dirs)

        monkeypatch.setattr(shapes, "_wulff_ball_perimeter", ball_term)
        assert two_bubble_perimeter(p, n_ball=n_ball, n_band=n_band) == pytest.approx(
            ref, rel=1e-9)
        assert ball_dirs == [n_ball]

    @pytest.mark.parametrize("dim,spec", [c for c in _PROFILE_NORMS if c[1] == "linf"])
    def test_perimeter_refuses_a_kinked_polar(self, dim, spec):
        # the l1 polar of linf has no gradient at its kinks, so its exits have
        # no implicit derivative
        with pytest.raises(UnsupportedOperationError):
            two_bubble_perimeter(self._profile(dim, spec), n_ball=2_000, n_band=(40, 32)[:dim - 1])


def _unique_groups(rows):
    """(first, inverse) of np.unique over the rows, as two-bubble edge rays
    were keyed before the lexsort."""
    _, first, inv = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    return first, inv.ravel()


class TestEdgeKeys:
    """Edge rays keyed by a lexsort of the (meridian, side) rows' bits."""

    def test_groups_equal_np_unique(self):
        rows = np.random.default_rng(3).choice([-1.5, 0.25, 1.0, 2.0], size=(500, 4))
        first, inv = _row_groups(rows)
        want_first, want_inv = _unique_groups(rows)
        assert len(first) == len(want_first) < 256
        # each row's group starts at the same row
        assert np.array_equal(first[inv], want_first[want_inv])

    def test_signed_zeros_stay_apart(self):
        first, inv = _row_groups(np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0]]))
        assert np.array_equal(first[inv], [0, 1, 0, 1])

    @pytest.mark.parametrize("dim,spec", _PROFILE_NORMS)
    def test_radii_equal_those_of_np_unique_keys(self, dim, spec, monkeypatch):
        p = TestTwoBubbleProfileReference._profile(dim, spec)
        u = np.concatenate([TestTwoBubbleProfileReference._rays(p),
                            unit_sphere_samples(dim, 4096)])
        got = p._solve(u)[:2]
        monkeypatch.setattr(shapes, "_row_groups", _unique_groups)
        want = p._solve(u)[:2]
        for g, w in zip(got, want):
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


class TestBallExitProperty:
    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from((2, 3)), st.floats(1.0, 8.0), st.integers(0, 2**32 - 1))
    def test_union_rho_is_the_plain_bisection(self, dim, k, seed):
        # random smoothmax eps in [2^-8, 0.5], random rays with a quarter on
        # or within 1e-9 of the tangency plane: the union radius is the plain
        # bisection's to within the ray's margin
        p = _TwoBubbleProfile(SmoothedMaxNorm(dim, 2.0**-k), 1.0, 0.3)
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(64, dim))
        u[:8, p.axis] = 0.0
        u[8:16, p.axis] = rng.uniform(-1e-9, 1e-9, 8)
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        ref, margin = _union_ref(p, u)
        assert np.all(np.abs(p.union_rho(u) - ref) <= margin)


def _exit_norm(family, dim, x, rng):
    # a random norm of the family; x in [0, 1] picks its parameter
    if family == "smoothmax":
        return SmoothedMaxNorm(dim, 2.0 ** -(1 + 7 * x))
    if family == "lp":
        return WeightedLpNorm(dim, 1.2 + 6.8 * x, rng.uniform(0.5, 2.0, dim))
    if family == "ellipse":
        rot, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        return EllipseNorm(rot @ np.diag(rng.uniform(0.25, 4.0, dim)) @ rot.T)
    return _Rotated(WeightedLpNorm(2, 1.2 + 6.8 * x, [1.0, 2.0]), rng.uniform(0.0, np.pi))


class TestGuidedBallExit:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(("smoothmax", "ellipse", "lp", "rotated")), st.sampled_from((2, 3)),
           st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_equals_the_unguided_bisection(self, family, dim, x, seed):
        # each ball's Newton exit equals the plain 46-step bisection to within
        # the ray's margin max(1.25 q, 1e-14 r / slope); a quarter of the rays
        # lie on the tangency plane and a quarter graze the tangency point,
        # with |u_axis| from 1e-3 down to 1e-12 (the rotated norm has no
        # Hessian: the solve must not need one)
        rng = np.random.default_rng(seed)
        dim = 2 if family == "rotated" else dim
        p = _TwoBubbleProfile(_exit_norm(family, dim, x, rng), 1.0, 0.3)
        u = rng.normal(size=(96, dim))
        u[72:, p.axis] = 0.0
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        graze = u[:24]
        graze[:, p.axis] = rng.choice([-1.0, 1.0], 24) * 10.0 ** rng.uniform(-12, -3, 24)
        graze /= np.linalg.norm(graze, axis=-1, keepdims=True)
        for sign in (1.0, -1.0):
            plain = _bisection_exit(p, u, sign)
            assert np.all(np.abs(p._ball_exit(u, sign) - plain)
                          <= _exit_margin(p, u, sign, plain))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_unconverged_newton_falls_back_to_the_unguided_bisection(self, dim, monkeypatch):
        # a Newton solve that stops none of its rays leaves every ray to the
        # plain bisection, as uint64
        p = _TwoBubbleProfile(SmoothedMaxNorm(dim, 0.125), 1.0, 0.3)
        u = TestTwoBubbleProfileReference._rays(p)

        def unconverged(residual, x0, target, what):
            residual(x0, slice(None))
            raise ConvergenceError(f"{what} Newton solve did not converge in 64 steps",
                                   best=np.array(x0), stuck=np.arange(len(x0)))

        monkeypatch.setattr(shapes, "_newton", unconverged)
        for sign in (1.0, -1.0):
            assert np.array_equal(p._ball_exit(u, sign).view(np.uint64),
                                  _bisection_exit(p, u, sign).view(np.uint64))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_a_stuck_ray_is_bisected_alone(self, dim, monkeypatch):
        # one ray's residual never reaches the level, so its Newton solve
        # cannot stop: that ray alone takes the plain bisection, and every
        # other ray keeps the bits it gets in a call of its own
        p = _TwoBubbleProfile(SmoothedMaxNorm(dim, 0.125), 1.0, 0.3)
        u = TestTwoBubbleProfileReference._rays(p)
        planted = len(u) // 3
        alone = {sign: np.concatenate([p._ball_exit(u[i:i + 1], sign) for i in range(len(u))])
                 for sign in (1.0, -1.0)}
        newton = shapes._newton

        def stuck_at_planted(residual, x0, target, what):
            def planted_residual(t, idx):
                value, slope = residual(t, idx)
                value[np.arange(len(x0))[idx] == planted] = target + 1.0
                return value, slope
            return newton(planted_residual, x0, target, what)

        monkeypatch.setattr(shapes, "_newton", stuck_at_planted)
        for sign in (1.0, -1.0):
            got = p._ball_exit(u, sign)
            want = alone[sign].copy()
            want[planted] = _bisection_exit(p, u[planted:planted + 1], sign)[0]
            assert got[planted] != alone[sign][planted]
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_default_3d_perimeter_solves_one_band(self, monkeypatch):
        # criterion 7's h = 1 profile: one union solve of the 180 x 256 band
        # and three edge rays per (meridian, side) key, and no band array
        # outlives the ball term's peak
        p = _TwoBubbleProfile(SmoothedMaxNorm(3, 0.5), 1.5, 0.735)
        p.validate()
        tracemalloc.start()
        _wulff_ball_perimeter(p.dual, p.r, 400_000)
        ball_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        solves = []
        union_rho = p.union_rho

        def counted(u):
            solves.append(u)
            return union_rho(u)

        monkeypatch.setattr(p, "union_rho", counted)
        tracemalloc.start()
        two_bubble_perimeter(p)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert len(solves) == 1
        u = solves[0][:180 * 256]
        theta = np.arccos(np.clip(u[:, 0], -1.0, 1.0))
        band = np.abs(theta - np.pi / 2) < p.beta
        m = u[band]
        m[:, 0] = 0.0
        m /= np.sin(theta[band])[:, None]
        keys = _row_groups(np.column_stack([m, np.where(theta[band] <= np.pi / 2, 1.0, -1.0)]))[0]
        assert len(solves[0]) == 180 * 256 + 3 * len(keys)
        assert peak <= 1.05 * ball_peak


class TestNormSequence:
    def test_smoothed_max_pointwise_bound(self):
        # |phi_h(v) - max|v_i|| <= 3 eps_h log 6 at the sampled direction
        v = np.array([1.0, 0.5, -0.2])
        for h in (5, 10, 20):
            norm = norm_sequence("smoothed-max-to-linf", h, dim=3)
            assert abs(norm.eval(v) - 1.0) <= 3 * 2.0**-h * np.log(6)

    def test_lp_monotone_decreasing(self):
        v = np.array([1.0, 1.0])
        vals = [norm_sequence("lp-to-linf", h, dim=2).eval(v) for h in range(1, 12)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-3)

    def test_cauchy_in_h(self):
        # tied leading coordinates keep the correction term visible
        v = np.array([1.0, 1.0, 0.3])
        vals = [norm_sequence("smoothed-max-to-linf", h, dim=3).eval(v)
                for h in (2, 4, 6, 8)]
        diffs = [abs(a - b) for a, b in zip(vals, vals[1:])]
        assert diffs[0] > diffs[1] > diffs[2] > 0

    def test_index_validated(self):
        with pytest.raises(InvalidArgumentError):
            norm_sequence("smoothed-max-to-linf", 0)


class TestShapeGrammar:
    def test_full_spec(self):
        spec = parse_shape("two-bubble norm=smoothmax:0.1 r=1.5 neck=0.1", dim=3)
        assert spec.kind == "two-bubble"
        assert spec.norm.family == "smoothmax"
        assert spec.r == 1.5
        assert spec.neck_width == 0.1

    def test_default_norm(self):
        spec = parse_shape("wulff r=2", dim=2, default_norm=EuclideanNorm(2))
        assert spec.r == 2.0 and spec.norm.family == "euclidean"

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidArgumentError):
            parse_shape("wulff radius=2", dim=2, default_norm=EuclideanNorm(2))

    def test_seed_key_rejected(self):
        # no generator is random, so a seed would be accepted and ignored
        with pytest.raises(InvalidArgumentError, match="seed"):
            parse_shape("wulff r=1 seed=3", dim=2, default_norm=EuclideanNorm(2))

    @pytest.mark.parametrize("r", ["0", "nan", "inf", "-inf"])
    def test_radius_must_be_finite_and_positive(self, r):
        with pytest.raises(InvalidArgumentError, match="radius must be finite and positive"):
            parse_shape(f"two-bubble r={r} neck=0.1", dim=2, default_norm=EuclideanNorm(2))

    def test_missing_norm_rejected(self):
        with pytest.raises(InvalidArgumentError):
            parse_shape("wulff r=2", dim=2)


class TestNearPocket:
    """The widened pocket test that lets rasterize skip two-bubble blocks."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 3]), st.floats(0.05, 0.45), st.floats(0.01, 0.5),
           st.integers(0, 2**32 - 1))
    def test_flags_every_ball_meeting_the_pocket(self, dim, neck, radius, seed):
        profile = _TwoBubbleProfile(EuclideanNorm(dim), 1.0, neck)
        rng = np.random.default_rng(seed)
        # centers in a box around the pocket, thin along the axis
        reach = profile._pocket_rho() + radius
        centers = rng.uniform(-reach, reach, size=(4000, dim))
        centers[:, 0] *= np.sin(profile.beta) + radius / reach
        off = rng.normal(size=(4000, dim))
        off *= radius * rng.uniform(0.0, 1.0, (4000, 1)) / np.linalg.norm(off, axis=-1,
                                                                            keepdims=True)
        hit, _ = profile._pocket(centers + off)
        assert hit.any()
        assert np.all(profile.near_pocket(centers, radius)[hit])
