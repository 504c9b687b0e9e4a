import numpy as np
import pytest

from aniso import (
    EllipseNorm,
    EuclideanNorm,
    InvalidArgumentError,
    L1Norm,
    LinfNorm,
    SmoothedMaxNorm,
    UnsupportedOperationError,
    WulffShape,
    aniso_area,
    crystalline_polytope,
    enclosed_volume,
    monte_carlo_volume,
    polygon_svg,
    wulff_perimeter,
    wulff_volume,
)


@pytest.mark.parametrize("r", [0.0, -1.0, np.nan, np.inf])
def test_radius_must_be_finite_and_positive(r):
    with pytest.raises(InvalidArgumentError, match="radius must be finite and positive"):
        WulffShape(EuclideanNorm(2), r)


class TestContains:
    def test_euclidean_boundary_point(self):
        w = WulffShape(EuclideanNorm(2), 1.0)
        assert w.contains([0.6, 0.8])
        assert not w.contains([0.61, 0.8])

    def test_linf_norm_gives_cross_polytope(self):
        # the dual of linf is l1, so membership is an l1-ball test
        w = WulffShape(LinfNorm(3), 1.0)
        assert not w.contains([0.5, 0.5, 0.5])
        assert w.contains([0.3, 0.3, 0.3])

    def test_ellipse_agrees_with_dual_values(self, rng):
        norm = EllipseNorm(np.diag([1.0, 4.0]))
        w = WulffShape(norm, 2.0)
        pts = rng.normal(scale=2.0, size=(500, 2))
        assert np.array_equal(w.contains_points(pts), norm.dual().eval(pts) <= 2.0)

    def test_minkowski_additivity_of_membership(self, rng):
        # triangle inequality for the dual norm: W_a + W_b = W_{a+b}
        norm = EllipseNorm(np.diag([1.0, 4.0]))
        dual = norm.dual()
        a, b = 0.7, 0.5
        pts_a = rng.normal(size=(200, 2))
        pts_a = a * pts_a / dual.eval(pts_a)[:, None]
        pts_b = rng.normal(size=(200, 2))
        pts_b = b * pts_b / dual.eval(pts_b)[:, None]
        assert np.all(WulffShape(norm, a + b).contains_points(pts_a + pts_b))


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
    def test_l1_gives_cube(self):
        poly = crystalline_polytope(L1Norm(3), 1.0)
        assert poly.volume() == pytest.approx(8.0, abs=1e-12)
        assert poly.aniso_perimeter(L1Norm(3)) == pytest.approx(24.0, abs=1e-12)

    def test_linf_gives_cross_polytope_with_mc_oracle(self):
        poly = crystalline_polytope(LinfNorm(3), 1.0)
        assert poly.volume() == pytest.approx(4.0 / 3.0, abs=1e-12)
        mc, se = monte_carlo_volume(poly, samples=2_000_000, seed=5)
        assert poly.volume() == pytest.approx(mc, rel=0.01)

    def test_l1_2d_square_perimeter(self):
        poly = crystalline_polytope(L1Norm(2), 2.0)
        assert poly.volume() == pytest.approx(16.0, abs=1e-12)
        # side 4 square, l1 norm of the axis normals is 1
        assert poly.aniso_perimeter(L1Norm(2)) == pytest.approx(16.0, abs=1e-12)
        # identity (n+1)|W_r| = r P(W_r)
        assert 2 * poly.volume() == pytest.approx(2.0 * poly.aniso_perimeter(L1Norm(2)))

    def test_polytope_mesh_matches_exact_values(self):
        for norm in (L1Norm(3), LinfNorm(3)):
            poly = crystalline_polytope(norm, 1.0)
            mesh = poly.to_trisurface()
            assert enclosed_volume(mesh) == pytest.approx(poly.volume(), rel=1e-12)
            assert aniso_area(mesh, norm) == pytest.approx(
                poly.aniso_perimeter(norm), rel=1e-12)

    def test_non_crystalline_rejected(self):
        with pytest.raises(UnsupportedOperationError):
            crystalline_polytope(EuclideanNorm(2))


class TestVolumePerimeter:
    def test_unit_ball_volume(self):
        w = WulffShape(EuclideanNorm(3), 1.0)
        assert wulff_volume(w, resolution=5) == pytest.approx(4 * np.pi / 3, rel=5e-3)

    def test_cube_volume_exact(self):
        assert wulff_volume(WulffShape(L1Norm(3), 1.0)) == pytest.approx(8.0, abs=1e-12)

    def test_ellipse_2d_area_with_mc_oracle(self):
        # W = { x^2 + y^2/4 <= 1 }: semi-axes 1 and 2, area 2 pi
        norm = EllipseNorm(np.diag([1.0, 4.0]))
        w = WulffShape(norm, 1.0)
        vol = wulff_volume(w, resolution=4096)
        mc, se = monte_carlo_volume(w, samples=2_000_000, seed=11)
        assert vol == pytest.approx(2 * np.pi, rel=5e-3)
        assert vol == pytest.approx(mc, rel=5e-3)

    def test_sphere_perimeter(self):
        w = WulffShape(EuclideanNorm(3), 1.0)
        assert wulff_perimeter(w, resolution=5) == pytest.approx(4 * np.pi, rel=5e-3)

    def test_cube_perimeter_identity_exact(self):
        w = WulffShape(L1Norm(3), 1.0)
        assert wulff_perimeter(w) == pytest.approx(24.0, abs=1e-12)
        assert wulff_perimeter(w) == pytest.approx(3 * wulff_volume(w), abs=1e-12)

    def test_smoothmax_perimeter_extrapolates_to_crystalline_limit(self):
        # oracle: refine eps and extrapolate; the linf limit is the
        # cross-polytope with P = (n+1)|W|/r = 4 at r = 1
        from aniso.shapes import radial_perimeter, wulff_radial_rho
        p_fine = radial_perimeter(SmoothedMaxNorm(3, 0.05),
                                  wulff_radial_rho(SmoothedMaxNorm(3, 0.05), 1.0),
                                  n_dirs=200_000)
        p_finer = radial_perimeter(SmoothedMaxNorm(3, 0.025),
                                   wulff_radial_rho(SmoothedMaxNorm(3, 0.025), 1.0),
                                   n_dirs=200_000)
        extrapolated = 2 * p_finer - p_fine
        assert extrapolated == pytest.approx(4.0, rel=0.03)

    def test_scaling_laws(self):
        norm = EllipseNorm(np.diag([1.0, 4.0]))
        v1 = wulff_volume(WulffShape(norm, 1.0), resolution=1024)
        v2 = wulff_volume(WulffShape(norm, 2.0), resolution=1024)
        p1 = wulff_perimeter(WulffShape(norm, 1.0), resolution=1024)
        p2 = wulff_perimeter(WulffShape(norm, 2.0), resolution=1024)
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
