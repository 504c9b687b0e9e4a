import numpy as np
import pytest

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
from aniso.shapes import (
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
        from aniso.norms import tangent_basis, unit_sphere_samples
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
        from aniso.norms import unit_sphere_samples
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


def _union_ref(p, u):
    # reference union: the larger of both balls' bisection exits, for every ray
    return np.maximum(p._ball_exit(u, 1.0), p._ball_exit(u, -1.0))


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


_PROFILE_NORMS = [(2, "euclidean"), (2, "ellipse:1,4"), (2, "smoothmax:0.5"),
                  (2, "smoothmax:0.125"), (3, "euclidean"), (3, "ellipse:1,4,2"),
                  (3, "smoothmax:0.5"), (3, "smoothmax:0.125")]


class TestTwoBubbleProfileReference:
    """Each two-bubble ray solved once, against the per-ray definitions.

    Tolerances are fixed from the bisection quantum q = 2 radial_bound 2^-46:
    q for union radii, q / 1e-5 for blended radii (the edge slope is a
    central difference over 2e-5).
    """

    @staticmethod
    def _profile(dim, spec):
        from aniso.shapes import _TwoBubbleProfile
        from aniso.norms import parse_norm
        return _TwoBubbleProfile(parse_norm(spec, dim), 1.0, 0.3)

    @staticmethod
    def _rays(p):
        from aniso.norms import unit_sphere_samples
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
        u = np.concatenate([unit_sphere_samples(dim, 128)] + [np.asarray(r) for r in rows])
        assert np.sum(u[:, p.axis] == 0.0) >= 2
        assert np.sum(u[:, p.axis] > 0) > 20 and np.sum(u[:, p.axis] < 0) > 20
        return u

    @pytest.mark.parametrize("dim,spec", _PROFILE_NORMS)
    def test_union_and_blend_match_per_ray_definitions(self, dim, spec):
        p = self._profile(dim, spec)
        u = self._rays(p)
        q = 2 * p.radial_bound * 2.0**-46
        assert np.max(np.abs(p.union_rho(u) - _union_ref(p, u))) <= q
        assert np.max(np.abs(p(u) - _profile_ref(p, u))) <= q / 1e-5

    @pytest.mark.parametrize("dim,spec", _PROFILE_NORMS)
    def test_perimeter_matches_two_call_composition(self, dim, spec):
        p = self._profile(dim, spec)
        n_ball, n_band = 20_000, (40, 32)
        p_ball = radial_perimeter(p.norm, wulff_radial_rho(p.norm, p.r),
                                  n_dirs=n_ball if dim == 3 else 100_000)
        ref = 2 * p_ball + _band_correction_two_calls(p, n_band)
        assert two_bubble_perimeter(p, n_ball=n_ball, n_band=n_band) == pytest.approx(
            ref, rel=1e-9)


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

    def test_missing_norm_rejected(self):
        with pytest.raises(InvalidArgumentError):
            parse_shape("wulff r=2", dim=2)
