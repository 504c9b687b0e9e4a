import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aniso import (
    EllipseNorm,
    EuclideanNorm,
    InvalidArgumentError,
    L1Norm,
    LinfNorm,
    SmoothedMaxNorm,
    UnsupportedOperationError,
    WeightedLpNorm,
    WulffShape,
    aniso_area,
    crystalline_polytope,
    enclosed_volume,
    monte_carlo_volume,
    parse_norm,
    polygon_svg,
)


@pytest.mark.parametrize("r", [0.0, -1.0, np.nan, np.inf])
def test_radius_must_be_finite_and_positive(r):
    with pytest.raises(InvalidArgumentError, match="radius must be finite and positive"):
        WulffShape(EuclideanNorm(2), r)


class TestLipschitz:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(("euclidean", "ellipse", "lp", "smoothmax")), st.sampled_from((2, 3)),
           st.integers(0, 2**32 - 1))
    def test_bounds_the_polar_on_random_vectors(self, family, dim, seed):
        rng = np.random.default_rng(seed)
        if family == "ellipse":
            rot, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
            norm = EllipseNorm(rot @ np.diag(10.0 ** rng.uniform(-2, 2, dim)) @ rot.T)
        elif family == "lp":
            norm = WeightedLpNorm(dim, rng.uniform(1.1, 10.0), rng.uniform(0.2, 5.0, dim))
        elif family == "smoothmax":
            norm = SmoothedMaxNorm(dim, rng.uniform(0.01, 0.5))
        else:
            norm = EuclideanNorm(dim)
        w = WulffShape(norm, rng.uniform(0.1, 10.0))
        v = rng.normal(size=(2000, dim)) * 10.0 ** rng.uniform(-3, 3, (2000, 1))
        bound = w.lipschitz(v, 0.1)
        assert np.all(bound >= w.dual.eval(v) / np.linalg.norm(v, axis=-1))

    @pytest.mark.parametrize("spec,bound", [("euclidean", 1.0), ("ellipse:1,4,2", 1.0),
                                            ("ellipse:0.25,1,4", 2.0)])
    def test_closed_form_for_euclidean_and_ellipse_polars(self, spec, bound):
        # max over |v| = 1 of phi_polar(v): sqrt(3) times that before
        w = WulffShape(parse_norm(spec, 3), 1.5)
        assert w.lipschitz(np.zeros((4, 3)), 0.1) == pytest.approx(np.full(4, bound), rel=1e-11)


class TestContains:
    def test_euclidean_boundary_point(self):
        w = WulffShape(EuclideanNorm(2), 1.0)
        assert w.level_at([0.6, 0.8]) <= 0
        assert not w.level_at([0.61, 0.8]) <= 0

    def test_linf_norm_gives_cross_polytope(self):
        # the dual of linf is l1, so membership is an l1-ball test
        w = WulffShape(LinfNorm(3), 1.0)
        assert not w.level_at([0.5, 0.5, 0.5]) <= 0
        assert w.level_at([0.3, 0.3, 0.3]) <= 0

    def test_ellipse_agrees_with_dual_values(self, rng):
        norm = EllipseNorm(np.diag([1.0, 4.0]))
        w = WulffShape(norm, 2.0)
        pts = rng.normal(scale=2.0, size=(500, 2))
        assert np.array_equal(w.level_at(pts) <= 0, norm.dual().eval(pts) <= 2.0)

    def test_minkowski_additivity_of_membership(self, rng):
        # triangle inequality for the dual norm: W_a + W_b = W_{a+b}
        norm = EllipseNorm(np.diag([1.0, 4.0]))
        dual = norm.dual()
        a, b = 0.7, 0.5
        pts_a = rng.normal(size=(200, 2))
        pts_a = a * pts_a / dual.eval(pts_a)[:, None]
        pts_b = rng.normal(size=(200, 2))
        pts_b = b * pts_b / dual.eval(pts_b)[:, None]
        assert np.all(WulffShape(norm, a + b).level_at(pts_a + pts_b) <= 0)


_MC_SPECS = {2: ["euclidean", "ellipse:1,4", "smoothmax:0.1", "l1", "linf"],
             3: ["euclidean", "ellipse:1,4,2", "smoothmax:0.1", "l1", "linf"]}


class TestLevelPredicate:
    """level_at(p) <= 0, i.e. fl(phi_polar(p) - r) <= 0, is phi_polar(p) <= r."""

    class _DualThreshold:
        """The Wulff shape with the dual-value membership test as its level."""

        def __init__(self, w):
            self.w = w

        def level_at(self, pts):
            return np.where(self.w.dual.eval(pts) <= self.w.r, -1.0, 1.0)

        def bounds(self):
            return self.w.bounds()

    @pytest.mark.parametrize("dim, spec", [(d, s) for d in (2, 3) for s in _MC_SPECS[d]])
    def test_monte_carlo_estimate_unchanged(self, dim, spec):
        w = WulffShape(parse_norm(spec, dim), 1.3)
        want = monte_carlo_volume(self._DualThreshold(w), samples=20_000, seed=3)
        assert monte_carlo_volume(w, samples=20_000, seed=3) == want

    @pytest.mark.parametrize("dim, spec", [(d, s) for d in (2, 3) for s in _MC_SPECS[d]])
    def test_points_scaled_onto_boundary(self, dim, spec, rng):
        w = WulffShape(parse_norm(spec, dim), 1.3)
        x = rng.normal(size=(2000, dim))
        on = w.r * x / w.dual.eval(x)[:, None]
        pts = np.concatenate([on, np.nextafter(on, 0.0), np.nextafter(on, 2 * on)])
        inside = w.dual.eval(pts) <= w.r
        assert inside.any() and not inside.all()
        assert np.array_equal(w.level_at(pts) <= 0, inside)


class TestBoundaryMesh:
    def test_sphere_area_converges(self):
        w = WulffShape(EuclideanNorm(3), 1.0)
        m = w.boundary_mesh(resolution=5)
        assert aniso_area(m, w.norm) == pytest.approx(4 * np.pi, rel=5e-3)

    def test_ellipse_vertices_on_level_set(self):
        norm = EllipseNorm(np.diag([1.0, 4.0]))
        w = WulffShape(norm, 1.0)
        m = w.boundary_mesh(resolution=512)
        assert np.max(np.abs(norm.dual().eval(m.vertices) - 1.0)) < 1e-8

    def test_smoothmax_vertices_approach_unit_max_coordinate(self):
        # cross-polytope limit: the extreme coordinate tends to r
        w = WulffShape(SmoothedMaxNorm(3, 0.05), 1.0)
        m = w.boundary_mesh(resolution=4)
        assert abs(np.max(np.abs(m.vertices)) - 1.0) < 0.1

    def test_normal_duality(self):
        # stored normal at r grad(phi)(u) is parallel to the dual gradient
        norm = EllipseNorm(np.diag([1.0, 4.0, 2.0]))
        w = WulffShape(norm, 1.5)
        m = w.boundary_mesh(resolution=3)
        nd = norm.dual().grad(m.vertices)
        nd /= np.linalg.norm(nd, axis=-1, keepdims=True)
        angles = np.arccos(np.clip(np.sum(nd * m.normals, axis=-1), -1, 1))
        assert np.max(angles) < 1e-3

    def test_crystalline_needs_polytope_path(self):
        with pytest.raises(UnsupportedOperationError):
            WulffShape(L1Norm(2), 1.0).boundary_mesh()


class TestCrystallinePolytope:
    """The polytopes are closed outward meshes, measured like every boundary."""

    def test_l1_gives_cube(self):
        mesh = crystalline_polytope(L1Norm(3), 1.0)
        assert enclosed_volume(mesh) == pytest.approx(8.0, abs=1e-12)
        assert aniso_area(mesh, L1Norm(3)) == pytest.approx(24.0, abs=1e-12)

    def test_linf_gives_cross_polytope_with_mc_oracle(self):
        vol = enclosed_volume(crystalline_polytope(LinfNorm(3), 1.0))
        assert vol == pytest.approx(4.0 / 3.0, abs=1e-12)
        mc, se = monte_carlo_volume(WulffShape(LinfNorm(3), 1.0), samples=2_000_000, seed=5)
        assert vol == pytest.approx(mc, rel=0.01)

    def test_l1_2d_square_perimeter(self):
        mesh = crystalline_polytope(L1Norm(2), 2.0)
        vol = enclosed_volume(mesh)
        assert vol == pytest.approx(16.0, abs=1e-12)
        # side 4 square, l1 norm of the axis normals is 1
        per = aniso_area(mesh, L1Norm(2))
        assert per == pytest.approx(16.0, abs=1e-12)
        # identity (n+1)|W_r| = r P(W_r)
        assert 2 * vol == pytest.approx(2.0 * per)

    def test_polytope_mesh_matches_exact_values(self):
        # |W| = (2r)^d for the cube and (2r)^d / d! for the cross-polytope,
        # both with P = d |W| / r; the mesh validates as closed and outward
        r = 1.25
        for dim, faces in ((2, (4, 4)), (3, (12, 8))):
            for norm, vol, count in ((L1Norm(dim), (2 * r) ** dim, faces[0]),
                                     (LinfNorm(dim), (2 * r) ** dim / math.factorial(dim),
                                      faces[1])):
                mesh = crystalline_polytope(norm, r)
                assert len(mesh.faces) == count
                assert enclosed_volume(mesh) == pytest.approx(vol, rel=1e-12)
                assert aniso_area(mesh, norm) == pytest.approx(dim * vol / r, rel=1e-12)

    def test_non_crystalline_rejected(self):
        with pytest.raises(UnsupportedOperationError):
            crystalline_polytope(EuclideanNorm(2))


class TestVolumePerimeter:
    def test_unit_ball_volume(self):
        w = WulffShape(EuclideanNorm(3), 1.0)
        assert enclosed_volume(w.boundary_mesh(resolution=5)) == pytest.approx(
            4 * np.pi / 3, rel=5e-3)

    def test_cube_volume_exact(self):
        cube = crystalline_polytope(L1Norm(3), 1.0)
        assert enclosed_volume(cube) == pytest.approx(8.0, abs=1e-12)

    def test_ellipse_2d_area_with_mc_oracle(self):
        # W = { x^2 + y^2/4 <= 1 }: semi-axes 1 and 2, area 2 pi
        norm = EllipseNorm(np.diag([1.0, 4.0]))
        w = WulffShape(norm, 1.0)
        vol = enclosed_volume(w.boundary_mesh(resolution=4096))
        mc, se = monte_carlo_volume(w, samples=2_000_000, seed=11)
        assert vol == pytest.approx(2 * np.pi, rel=5e-3)
        assert vol == pytest.approx(mc, rel=5e-3)

    def test_sphere_perimeter(self):
        w = WulffShape(EuclideanNorm(3), 1.0)
        assert aniso_area(w.boundary_mesh(resolution=5), w.norm) == pytest.approx(
            4 * np.pi, rel=5e-3)

    def test_cube_perimeter_identity_exact(self):
        norm = L1Norm(3)
        mesh = crystalline_polytope(norm, 1.0)
        assert aniso_area(mesh, norm) == pytest.approx(24.0, abs=1e-12)
        assert aniso_area(mesh, norm) == pytest.approx(3 * enclosed_volume(mesh), abs=1e-12)

    def test_smoothmax_perimeter_extrapolates_to_crystalline_limit(self):
        # oracle: refine eps and extrapolate; the linf limit is the
        # cross-polytope with P = (n+1)|W|/r = 4 at r = 1
        from aniso.shapes import radial_perimeter
        from conftest import wulff_ball_rho

        def perimeter(eps):
            norm = SmoothedMaxNorm(3, eps)
            return radial_perimeter(norm, wulff_ball_rho(norm.dual(), 1.0), n_dirs=200_000)

        p_fine, p_finer = perimeter(0.05), perimeter(0.025)
        extrapolated = 2 * p_finer - p_fine
        assert extrapolated == pytest.approx(4.0, rel=0.03)

    def test_scaling_laws(self):
        norm = EllipseNorm(np.diag([1.0, 4.0]))
        m1, m2 = (WulffShape(norm, r).boundary_mesh(resolution=1024) for r in (1.0, 2.0))
        v1, v2 = enclosed_volume(m1), enclosed_volume(m2)
        p1, p2 = aniso_area(m1, norm), aniso_area(m2, norm)
        assert v2 == pytest.approx(4 * v1, rel=1e-10)
        assert p2 == pytest.approx(2 * p1, rel=1e-10)


class TestExports:
    def test_mesh_text_round_trip(self, tmp_path):
        w = WulffShape(EllipseNorm(np.diag([1.0, 4.0, 2.0])), 1.0)
        m = w.boundary_mesh(resolution=2)
        path = tmp_path / "mesh.txt"
        m.save_text(path)
        from aniso import TriSurface
        back = TriSurface.load_text(path)
        assert np.allclose(back.vertices, m.vertices)
        assert np.array_equal(back.faces, m.faces)
        assert np.allclose(back.normals, m.normals)

    def test_svg_export(self, tmp_path):
        w = WulffShape(EllipseNorm(np.diag([1.0, 4.0])), 1.0)
        m = w.boundary_mesh(resolution=128)
        path = tmp_path / "wulff.svg"
        polygon_svg(m, path)
        text = path.read_text()
        assert text.startswith("<svg") and "polygon" in text
