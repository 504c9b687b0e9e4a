import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aniso import (
    EllipseNorm,
    EuclideanNorm,
    GeometryError,
    InvalidArgumentError,
    ShapeSpec,
    SmoothedMaxNorm,
    WulffShape,
    curvature,
    enclosed_volume,
    gen,
    lambda_of,
    lp_deviation,
    norm_sequence,
    parse_shape,
    wulff_volume,
)
from aniso.norms import Norm, WeightedLpNorm, parse_norm, unit_sphere_samples
from aniso.shapes import (
    TwoBubbleSolid,
    _TwoBubbleProfile,
    _wulff_ball_perimeter,
    perturbation_pattern,
    perturbed_wulff_perimeter,
    radial_perimeter,
    two_bubble_perimeter,
    wulff_radial_rho,
)


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
        two_balls = 2 * wulff_volume(WulffShape(norm, 1.0), resolution=5)
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

    def test_tangent_union_center_distances(self):
        norm = EllipseNorm(np.diag([1.0, 4.0]))
        g = gen(ShapeSpec("tangent-union", norm, r=1.0, count=3), resolution=128)
        c = g.meta["centers"]
        dual = norm.dual()
        for i in range(3):
            for j in range(i + 1, 3):
                assert dual.eval(c[i] - c[j]) >= 2.0 - 1e-12

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


class TestRadialPerimeter:
    def test_sphere(self):
        e3 = EuclideanNorm(3)
        p = radial_perimeter(e3, wulff_radial_rho(e3, 1.5), n_dirs=100_000)
        assert p == pytest.approx(4 * np.pi * 1.5**2, rel=1e-6)

    def test_matches_mesh_for_smooth_norms(self):
        norm = EllipseNorm(np.diag([1.0, 4.0, 2.0]))
        p = radial_perimeter(norm, wulff_radial_rho(norm, 1.0), n_dirs=100_000)
        from aniso import wulff_perimeter
        assert p == pytest.approx(wulff_perimeter(WulffShape(norm, 1.0), resolution=5),
                                  rel=2e-3)

    def test_two_bubble_smooth_case_matches_mesh(self):
        from aniso.mesh import aniso_area
        norm = EuclideanNorm(3)
        g = gen(ShapeSpec("two-bubble", norm, r=1.0, neck_width=0.3), resolution=5)
        quad = two_bubble_perimeter(g.solid.profile, n_ball=100_000, n_band=(120, 128))
        mesh_val = aniso_area(g.mesh, norm)
        assert quad == pytest.approx(mesh_val, rel=5e-3)

    def test_perturbed_wulff_smooth_case_matches_mesh(self):
        from aniso.mesh import aniso_area
        norm = EllipseNorm(np.diag([1.0, 4.0, 2.0]))
        spec = ShapeSpec("perturbed-wulff", norm, r=1.5, eps=0.1, pattern=0)
        g = gen(spec, resolution=5)
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


def _union_ref(p, u):
    # reference union: the plain bisection exit of the ball on the ray's side
    # of the tangency plane, the larger of both on the plane
    ua = u[:, p.axis]
    out = np.zeros(len(u))
    for sign, side in ((1.0, ua >= 0), (-1.0, ua <= 0)):
        out[side] = np.maximum(out[side], _bisection_exit(p, u[side], sign))
    return out


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

    rho_e = _union_ref(p, direction(t_edge))
    dt = 1e-5
    rho_e_d = (_union_ref(p, direction(t_edge + dt))
               - _union_ref(p, direction(t_edge - dt))) / (2 * dt)
    rho_c = p.waist_rho(direction(np.full(len(u), np.pi / 2)))
    span = np.pi / 2 - t_edge
    s = (theta - t_edge) / span
    blended = ((2 * s**3 - 3 * s**2 + 1) * rho_e + (s**3 - 2 * s**2 + s) * span * rho_e_d
               + (-2 * s**3 + 3 * s**2) * rho_c)
    return np.maximum(blended, rho_union)


def _profile_ref(p, u):
    theta = np.arccos(np.clip(u[:, p.axis], -1.0, 1.0))
    out = _union_ref(p, u)
    band = np.abs(theta - np.pi / 2) < p.beta
    out[band] = _blend_ref(p, u[band], theta[band], out[band])
    return out


def _band_correction_two_calls(p, n_band):
    # the perimeter's band correction with the profile and the union each
    # solved by its own call at every probe set
    norm = p.norm
    if norm.dim == 2:
        def rot(a):
            return np.stack([np.cos(a), np.sin(a)], axis=-1)

        corr = 0.0
        for center in (np.pi / 2, -np.pi / 2):
            alpha = np.linspace(center - p.beta, center + p.beta, 4096)
            u = rot(alpha)
            t = np.stack([-np.sin(alpha), np.cos(alpha)], axis=-1)

            def vec_of(fn):
                drho = (fn(rot(alpha + 1e-6)) - fn(rot(alpha - 1e-6))) / 2e-6
                return fn(u)[:, None] * u - drho[:, None] * t

            corr += float(np.sum(norm.eval(vec_of(p)) - norm.eval(vec_of(p.union_rho)))
                          * (alpha[1] - alpha[0]))
        return corr
    theta = np.linspace(np.pi / 2 - p.beta, np.pi / 2 + p.beta, n_band[0])
    psi = (np.arange(n_band[1]) + 0.5) * (2 * np.pi / n_band[1])
    tg, pg = np.meshgrid(theta, psi, indexing="ij")

    def dir_of(th, ps):
        return np.stack([np.cos(th), np.sin(th) * np.cos(ps), np.sin(th) * np.sin(ps)], -1)

    def vec_of(fn):
        def rho(th, ps):
            return fn(dir_of(th, ps).reshape(-1, 3)).reshape(tg.shape)
        d = 1e-6
        drho_t = (rho(tg + d, pg) - rho(tg - d, pg)) / (2 * d)
        drho_p = (rho(tg, pg + d) - rho(tg, pg - d)) / (2 * d)
        that = np.stack([-np.sin(tg), np.cos(tg) * np.cos(pg), np.cos(tg) * np.sin(pg)], -1)
        phat = np.stack([np.zeros_like(pg), -np.sin(pg), np.cos(pg)], -1)
        grad_s = drho_t[..., None] * that + (drho_p / np.sin(tg))[..., None] * phat
        r0 = rho(tg, pg)
        return (r0**2)[..., None] * dir_of(tg, pg) - r0[..., None] * grad_s

    vb, vu = vec_of(p), vec_of(p.union_rho)
    diff = (norm.eval(vb.reshape(-1, 3)) - norm.eval(vu.reshape(-1, 3))).reshape(tg.shape)
    return float(np.sum(diff * np.sin(tg)) * (theta[1] - theta[0]) * (2 * np.pi / n_band[1]))


_SMOOTH_PROFILE_NORMS = [(2, "euclidean"), (2, "ellipse:1,4"), (2, "smoothmax:0.5"),
                         (2, "smoothmax:0.125"), (3, "euclidean"), (3, "ellipse:1,4,2"),
                         (3, "smoothmax:0.5"), (3, "smoothmax:0.125")]
# the linf ball's polar (l1) has no gradient at its kinks: no Newton guide
_PROFILE_NORMS = _SMOOTH_PROFILE_NORMS + [(2, "linf"), (3, "linf")]


class _Rotated(Norm):
    """phi(R v) for a 2D norm phi and a rotation R by ``angle``; its polar is
    phi_polar(R y), the same construction on the polar."""

    family = "rotated"

    def __init__(self, base, angle):
        super().__init__(2)
        self.base = base
        self.angle = angle
        self.rot = np.array([[np.cos(angle), -np.sin(angle)],
                             [np.sin(angle), np.cos(angle)]])

    def _eval(self, v):
        return self.base._eval(v @ self.rot.T)

    def _grad(self, v):
        return self.base._grad(v @ self.rot.T) @ self.rot

    def _dual_partner(self):
        return _Rotated(self.base._dual_partner(), self.angle)


class TestTwoBubbleProfileReference:
    """Each two-bubble ray solved once, against the per-ray definitions.

    Union radii equal the plain bisection's bit for bit.  Blended radii are
    within q / 1e-5, with q = 2 radial_bound 2^-46 the bisection quantum (the
    edge slope is a central difference over 2e-5).
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
        assert np.array_equal(rho, _union_ref(p, u))
        # off the plane the other ball's exit adds nothing; within 1e-9 of it
        # the level's 1e-13 slack can let it run a few hundred q longer, at
        # the tangency point, where the neck takes over
        both = np.maximum(_bisection_exit(p, u, 1.0), _bisection_exit(p, u, -1.0))
        ua = u[:, p.axis]
        off = (np.abs(ua) > 1e-9) | (ua == 0.0)
        assert np.max(np.abs(rho - both)[off]) <= q
        assert np.max(np.abs(p(u) - _profile_ref(p, u))) <= q / 1e-5

    def test_certificate_catches_a_wrong_guide(self, monkeypatch):
        # roots moved by far more than the margin: the steps between the true
        # and the moved root are guessed wrong, and those rays must be bisected
        # again from scratch
        p = self._profile(2, "smoothmax:0.125")
        u = self._rays(p)
        newton = p._newton_exit

        def wrong_guide(u, c, level, t_max):
            root, margin = newton(u, c, level, t_max)
            return root * (1 - 1e-3), margin

        monkeypatch.setattr(p, "_newton_exit", wrong_guide)
        assert np.array_equal(p.union_rho(u), _union_ref(p, u))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_guide_evaluates_few_steps(self, dim, monkeypatch):
        # the plain bisection evaluates phi_polar 46 times per ray; guided, only
        # the steps within the margin of the Newton root do
        p = self._profile(dim, "smoothmax:0.125")
        u = unit_sphere_samples(dim, 2000)
        points = []
        evaluate = p.dual.eval

        def counted(v):
            points.append(len(v))
            return evaluate(v)

        monkeypatch.setattr(p.dual, "eval", counted)
        p.union_rho(u)
        assert sum(points) <= 8 * len(u)

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
        sets = np.split(u, [1, 7, len(u) // 2])
        unions, profiles = p._radii_sets(sets)
        assert np.array_equal(p.union_rho(u), np.concatenate(unions))
        for rays, union, profile in zip(sets, unions, profiles):
            assert np.array_equal(p.union_rho(rays), union)
            one_union, one_profile = p._radii(rays)
            assert np.array_equal(one_union, union)
            assert np.array_equal(one_profile, profile)
            assert np.array_equal(p(rays), profile)

    @pytest.mark.parametrize("dim,spec", _SMOOTH_PROFILE_NORMS)
    def test_ball_term_matches_radial_perimeter(self, dim, spec):
        norm = parse_norm(spec, dim)
        n_dirs = 20_000 if dim == 3 else 100_000
        assert _wulff_ball_perimeter(norm.dual(), 1.3, n_dirs) == pytest.approx(
            radial_perimeter(norm, wulff_radial_rho(norm, 1.3), n_dirs=n_dirs), rel=1e-12)

    @pytest.mark.parametrize("dim,spec", _PROFILE_NORMS)
    def test_perimeter_matches_two_call_composition(self, dim, spec):
        p = self._profile(dim, spec)
        n_ball, n_band = 20_000, (40, 32)
        p_ball = radial_perimeter(p.norm, wulff_radial_rho(p.norm, p.r),
                                  n_dirs=n_ball if dim == 3 else 100_000)
        ref = 2 * p_ball + _band_correction_two_calls(p, n_band)
        assert two_bubble_perimeter(p, n_ball=n_ball, n_band=n_band) == pytest.approx(
            ref, rel=1e-9)


class TestBallExitProperty:
    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from((2, 3)), st.floats(1.0, 8.0), st.integers(0, 2**32 - 1))
    def test_union_rho_is_the_plain_bisection(self, dim, k, seed):
        # random smoothmax eps in [2^-8, 0.5], random rays with a quarter on
        # or within 1e-9 of the tangency plane
        p = _TwoBubbleProfile(SmoothedMaxNorm(dim, 2.0**-k), 1.0, 0.3)
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(64, dim))
        u[:8, p.axis] = 0.0
        u[8:16, p.axis] = rng.uniform(-1e-9, 1e-9, 8)
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        assert np.array_equal(p.union_rho(u), _union_ref(p, u))


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
