import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aniso import (
    EllipseNorm,
    EuclideanNorm,
    InvalidArgumentError,
    InvalidMeshError,
    SmoothedMaxNorm,
    TriSurface,
    VectorField,
    WulffShape,
    aniso_area,
    curvature,
    enclosed_volume,
    first_variation,
    identity_field,
    lambda_of,
    lp_deviation,
    parse_norm,
)
from aniso.mesh import _fill_flagged
from aniso.norms import tangent_basis
from aniso.wulff import icosphere


@pytest.fixture(scope="module")
def sphere():
    return WulffShape(EuclideanNorm(3), 1.0).boundary_mesh(resolution=4)


@pytest.fixture(scope="module")
def ellipse3():
    return EllipseNorm(np.diag([1.0, 4.0, 2.0]))


class TestArea:
    def test_sphere_area(self, sphere):
        assert aniso_area(sphere, EuclideanNorm(3)) == pytest.approx(4 * np.pi, rel=5e-3)

    def test_monotone_in_integrand(self, sphere, ellipse3):
        # phi >= c |.| implies A_phi >= c * Euclidean area
        c = np.sqrt(np.min(np.linalg.eigvalsh(ellipse3.Q)))
        assert aniso_area(sphere, ellipse3) >= c * aniso_area(sphere, EuclideanNorm(3))



class TestVolume:
    def test_sphere_volume(self, sphere):
        assert enclosed_volume(sphere) == pytest.approx(4 * np.pi / 3, rel=5e-3)

    def test_translation_invariance(self, sphere):
        moved = TriSurface(sphere.vertices + [3.0, -2.0, 1.0], sphere.faces)
        assert enclosed_volume(moved) == pytest.approx(enclosed_volume(sphere), rel=1e-10)

    def test_scaling(self, sphere):
        scaled = TriSurface(2.0 * sphere.vertices, sphere.faces)
        assert enclosed_volume(scaled) == pytest.approx(8 * enclosed_volume(sphere), rel=1e-10)

    def test_inward_orientation_rejected(self, sphere):
        with pytest.raises(InvalidMeshError):
            TriSurface(sphere.vertices, sphere.faces[:, ::-1])


class TestAnisoNormal:
    """The anisotropic normal grad(phi)(nu) of a mesh's vertex normals."""

    def test_euclidean_identity(self, sphere):
        assert np.allclose(EuclideanNorm(3).grad(sphere.normals), sphere.normals)

    def test_wulff_mesh_normal_is_position_over_r(self, ellipse3):
        m = WulffShape(ellipse3, 2.0).boundary_mesh(resolution=3)
        nphi = ellipse3.grad(m.normals)
        assert np.allclose(nphi, m.vertices / 2.0, atol=1e-10)

    def test_values_on_unit_wulff_boundary(self, sphere, ellipse3):
        nphi = ellipse3.grad(sphere.normals)
        assert np.max(np.abs(ellipse3.dual().eval(nphi) - 1.0)) < 1e-8


class TestCurvature:
    def test_sphere_euclidean(self):
        m = WulffShape(EuclideanNorm(3), 2.0).boundary_mesh(resolution=5)
        f = curvature(m, EuclideanNorm(3))
        assert abs(f.mean.mean() - 1.0) < 0.02
        assert np.abs(f.kappa - 0.5).max() < 0.02
        assert np.all(f.kappa[:, 0] <= f.kappa[:, 1])

    def test_wulff_boundary_constant(self, ellipse3):
        m = WulffShape(ellipse3, 1.5).boundary_mesh(resolution=4)
        f = curvature(m, ellipse3)
        target = 2.0 / 1.5
        assert abs(f.mean.mean() - target) / target < 0.02
        assert np.abs(f.kappa - 1 / 1.5).max() / (1 / 1.5) < 0.05

    def test_ellipse_on_sphere_against_analytic_oracle(self, sphere, ellipse3):
        # oracle: trace of the tangential Hessian of phi at the normal
        f = curvature(sphere, ellipse3, method="quadratic")
        t = tangent_basis(sphere.normals)
        h = ellipse3.hess(sphere.normals)
        ht = np.einsum("nik,nij,njl->nkl", t, h, t)
        oracle = ht[:, 0, 0] + ht[:, 1, 1]
        assert np.max(np.abs(f.mean - oracle) / np.abs(oracle)) < 0.03

    def test_normal_fit_exact_on_wulff_boundary(self):
        norm = SmoothedMaxNorm(3, 0.1)
        m = WulffShape(norm, 1.5).boundary_mesh(resolution=4)
        f = curvature(m, norm, method="normal-fit")
        assert np.abs(f.mean - 2.0 / 1.5).max() < 1e-8

    def test_auto_selects_by_conditioning(self, ellipse3):
        from aniso.mesh import norm_conditioning
        assert norm_conditioning(EuclideanNorm(3)) == pytest.approx(1.0, abs=1e-9)
        assert norm_conditioning(SmoothedMaxNorm(3, 0.1)) > 100.0
        assert norm_conditioning(ellipse3) < 100.0

    def test_2d_circle(self):
        m = WulffShape(EuclideanNorm(2), 2.0).boundary_mesh(resolution=512)
        f = curvature(m, EuclideanNorm(2))
        assert np.abs(f.mean - 0.5).max() < 1e-6

    def test_2d_wulff_constant(self):
        norm = EllipseNorm(np.diag([1.0, 4.0]))
        m = WulffShape(norm, 1.5).boundary_mesh(resolution=1024)
        f = curvature(m, norm)
        assert np.abs(f.mean - 1 / 1.5).max() / (1 / 1.5) < 1e-3

    def test_nonnegative_on_convex_body(self, ellipse3):
        m = WulffShape(ellipse3, 1.0).boundary_mesh(resolution=4)
        f = curvature(m, ellipse3)
        assert np.min(f.kappa) > -0.02 * np.max(np.abs(f.kappa))

    def test_csv_export(self, tmp_path, sphere):
        f = curvature(sphere, EuclideanNorm(3))
        path = tmp_path / "curv.csv"
        f.save_csv(path)
        head = path.read_text().splitlines()
        assert head[0] == "vertex,kappa_1,kappa_2,H"
        assert len(head) == len(sphere.vertices) + 1


def _one_rings(s):
    """Sorted 1-ring of each vertex, from Python sets (independent of _ring_lists)."""
    nbr = [set() for _ in range(len(s.vertices))]
    for a, b, c in s.faces:
        nbr[a].update((b, c)); nbr[b].update((a, c)); nbr[c].update((a, b))
    return [np.fromiter(sorted(n), dtype=np.int64) for n in nbr]


def _reference_curvature(s, norm, method, ring=2):
    """The per-vertex loop that the stacked kernel replaced, kept as its oracle."""
    one = _one_rings(s)
    rings = one
    if ring == 2:
        rings = []
        for i, n1 in enumerate(one):
            nbrs = set(n1)
            for j in n1:
                nbrs.update(one[j])
            nbrs.discard(i)
            rings.append(np.fromiter(sorted(nbrs), dtype=np.int64))
    min_nbrs = 6 if method == "quadratic" else 3
    nv = len(s.vertices)
    frames = tangent_basis(s.normals)
    nphi_all = norm.grad(s.normals) if method == "normal-fit" else None
    kap = np.zeros((nv, 2))
    mean = np.zeros(nv)
    flagged = np.zeros(nv, dtype=bool)
    for i in range(nv):
        nb = rings[i]
        if len(nb) < min_nbrs:
            flagged[i] = True
            continue
        t1 = frames[i, :, 0]; t2 = frames[i, :, 1]; nu = s.normals[i]
        dx = s.vertices[nb] - s.vertices[i]
        xi1 = dx @ t1; xi2 = dx @ t2
        if method == "quadratic":
            z = dx @ nu
            cols = np.stack([0.5 * xi1**2, xi1 * xi2, 0.5 * xi2**2, xi1, xi2], axis=-1)
            scale = np.linalg.norm(dx, axis=-1).mean()
            try:
                coef = np.linalg.solve(cols.T @ cols + 1e-14 * scale**2 * np.eye(5),
                                       cols.T @ z)
            except np.linalg.LinAlgError:
                flagged[i] = True
                continue
            a, b, c, dcoef, e = coef
            w = np.sqrt(1.0 + dcoef**2 + e**2)
            first = np.array([[1.0 + dcoef**2, dcoef * e], [dcoef * e, 1.0 + e**2]])
            second = np.array([[a, b], [b, c]]) / w
            s_graph = -np.linalg.solve(first, second)
            hphi = norm.hess((nu - dcoef * t1 - e * t2) / w)
            v1 = t1 + dcoef * nu
            v2 = t2 + e * nu
            wv = np.stack([hphi @ v1, hphi @ v2], axis=-1)
            coords = np.stack([[v1 @ wv[:, 0], v1 @ wv[:, 1]],
                               [v2 @ wv[:, 0], v2 @ wv[:, 1]]])
            amat = np.linalg.solve(first, coords) @ s_graph
        else:
            dm = nphi_all[nb] - nphi_all[i]
            xi = np.stack([xi1, xi2], axis=-1)
            um = np.stack([dm @ t1, dm @ t2], axis=-1)
            gram = xi.T @ xi
            if np.linalg.cond(gram) > 1e12:
                flagged[i] = True
                continue
            amat = np.linalg.solve(gram, xi.T @ um).T
        tr = amat[0, 0] + amat[1, 1]
        det = amat[0, 0] * amat[1, 1] - amat[0, 1] * amat[1, 0]
        root = np.sqrt(max(tr * tr - 4.0 * det, 0.0))
        kap[i] = [(tr - root) / 2.0, (tr + root) / 2.0]
        mean[i] = tr
    _fill_flagged(kap, mean, flagged, s)
    return kap, mean, flagged


def _collapsed_ring_mesh(norm):
    # the whole 2-ring of vertex 0 moved onto it: that vertex's height fit
    # (or normal fit) is singular, its neighbours' fits stay solvable
    m = WulffShape(norm, 1.5).boundary_mesh(resolution=3)
    v = m.vertices.copy()
    one = _one_rings(m)
    v[np.concatenate([one[j] for j in one[0]])] = v[0]
    return TriSurface(v, m.faces, normals=m.normals, validate=False)


class TestStackedCurvature:
    """The blocked kernel against the per-vertex loop, vertex by vertex."""

    @pytest.mark.parametrize("spec, method, ring, collapse", [
        ("euclidean", "quadratic", 2, False),
        ("ellipse:1,4,2", "quadratic", 2, False),
        ("smoothmax:0.5", "quadratic", 2, False),
        ("smoothmax:0.1", "normal-fit", 2, False),
        ("ellipse:1,4,2", "quadratic", 1, False),     # valence-5 rings too short
        ("ellipse:1,4,2", "quadratic", 2, True),      # singular stacked solve
        ("smoothmax:0.1", "normal-fit", 2, True),     # rank test fails
    ])
    def test_matches_per_vertex_loop(self, spec, method, ring, collapse):
        norm = parse_norm(spec, 3)
        if collapse:
            m = _collapsed_ring_mesh(norm)
        else:
            m = WulffShape(norm, 1.5).boundary_mesh(resolution=3)
        f = curvature(m, norm, ring=ring)
        assert f.method == method
        kap, mean, flagged = _reference_curvature(m, norm, method, ring)
        np.testing.assert_array_equal(f.flagged, flagged)
        if ring == 1 or collapse:
            assert 0 < f.n_flagged < len(m.vertices)
        else:
            assert f.n_flagged == 0
        np.testing.assert_allclose(f.mean, mean, rtol=1e-12, atol=0)
        np.testing.assert_allclose(f.kappa.sum(-1), kap.sum(-1), rtol=1e-12, atol=0)
        np.testing.assert_allclose(f.kappa.prod(-1), kap.prod(-1), rtol=1e-10, atol=0)
        # the split of kappa goes through sqrt(tr^2 - 4 det): sqrt(eps)-stable
        assert np.max(np.abs(f.kappa - kap)) <= 1e-7 * np.max(np.abs(kap))

    def test_ring_validated(self, sphere):
        with pytest.raises(InvalidArgumentError):
            curvature(sphere, EuclideanNorm(3), ring=0)


class TestLpDeviation:
    def test_wulff_boundary_near_zero(self, ellipse3):
        m = WulffShape(ellipse3, 1.5).boundary_mesh(resolution=4)
        f = curvature(m, ellipse3)
        dev = lp_deviation(f, m, 2.0 / 1.5, p=2)
        # below the curvature discretization floor: 2% of lambda times sqrt(area)
        floor = 0.02 * (2.0 / 1.5) * aniso_area(m, EuclideanNorm(3)) ** 0.5
        assert dev < floor

    def test_constant_offset_equals_sqrt_area(self, sphere):
        f = curvature(sphere, EuclideanNorm(3))
        f.mean[:] = 3.0      # H = lambda + 1 with lambda = 2
        dev = lp_deviation(f, sphere, 2.0, p=2)
        assert dev == pytest.approx(np.sqrt(4 * np.pi), rel=5e-3)

    def test_perturbation_scaling_is_linear(self):
        # first-order curvature perturbation is linear in eps
        from aniso import ShapeSpec, gen
        norm = EllipseNorm(np.diag([1.0, 4.0, 2.0]))
        devs = []
        for eps in (0.1, 0.05):
            g = gen(ShapeSpec("perturbed-wulff", norm, r=1.5, eps=eps, pattern=0),
                    resolution=4)
            f = curvature(g.mesh, norm)
            devs.append(lp_deviation(f, g.mesh, 2.0 / 1.5, p=2))
        assert devs[0] / devs[1] == pytest.approx(2.0, rel=0.3)


class TestFirstVariation:
    def test_identity_field_gives_n_perimeter(self, sphere, ellipse3):
        for norm in (EuclideanNorm(3), ellipse3):
            fv = first_variation(sphere, norm, identity_field())
            assert fv == pytest.approx(2 * aniso_area(sphere, norm), rel=1e-12)

    def test_sphere_euclidean_value(self, sphere):
        fv = first_variation(sphere, EuclideanNorm(3), identity_field())
        assert fv == pytest.approx(8 * np.pi, rel=0.01)

    def test_constant_field_vanishes(self, sphere, ellipse3):
        c = np.array([1.0, -2.0, 0.5])
        shift = VectorField(value=lambda x: np.broadcast_to(c, x.shape),
                            jacobian=lambda x: np.zeros(x.shape + (x.shape[-1],)))
        fv = first_variation(sphere, ellipse3, shift)
        assert abs(fv) < 1e-8 * aniso_area(sphere, EuclideanNorm(3))

    def test_wulff_first_variation(self, ellipse3):
        m = WulffShape(ellipse3, 1.0).boundary_mesh(resolution=4)
        fv = first_variation(m, ellipse3, identity_field())
        assert fv == pytest.approx(2 * aniso_area(m, ellipse3), rel=0.01)

    def test_missing_jacobian_rejected(self, sphere):
        with pytest.raises(InvalidArgumentError):
            first_variation(sphere, EuclideanNorm(3),
                            VectorField(value=lambda x: x))


class TestLambdaOf:
    def test_wulff_boundary(self, ellipse3):
        m = WulffShape(ellipse3, 1.5).boundary_mesh(resolution=4)
        assert lambda_of(m, ellipse3) == pytest.approx(2.0 / 1.5, rel=0.01)

    def test_unit_sphere(self, sphere):
        assert lambda_of(sphere, EuclideanNorm(3)) == pytest.approx(2.0, rel=0.01)

    def test_two_disjoint_wulff_shapes(self, ellipse3):
        from aniso import ShapeSpec, gen
        g = gen(ShapeSpec("tangent-union", ellipse3, r=1.5, count=2), resolution=3)
        assert lambda_of(g.mesh, ellipse3) == pytest.approx(2.0 / 1.5, rel=0.01)


def _validate_by_unique_and_isin(mesh):
    """The 3D rule that the sort-based `TriSurface.validate` replaced: the
    error it raises, or None.  The oracle for the sorted-key comparison."""
    f = mesh.faces
    edges = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
    key = edges[:, 0] * len(mesh.vertices) + edges[:, 1]
    if len(np.unique(key)) != len(key):
        return "duplicated directed edge: inconsistent orientation"
    rkey = edges[:, 1] * len(mesh.vertices) + edges[:, 0]
    if not np.all(np.isin(key, rkey)):
        return "open mesh: boundary edge found"
    if enclosed_volume(mesh, _validate=False) <= 0.0:
        return "non-positive signed volume: orientation is not outward"
    return None


@st.composite
def _damaged_icospheres(draw):
    """An icosphere of level 0 to 3, possibly turned inside out, with random
    faces dropped, flipped or duplicated (any of them possibly none)."""
    verts, faces = icosphere(draw(st.integers(0, 3)))
    pick = st.lists(st.integers(0, len(faces) - 1), max_size=4, unique=True)
    drop, flip, dup = draw(pick), draw(pick), draw(pick)
    faces = faces[:, ::-1].copy() if draw(st.booleans()) else faces.copy()
    faces[flip] = faces[flip][:, ::-1]
    faces = np.concatenate([np.delete(faces, drop, axis=0), faces[dup]])
    return TriSurface(verts, faces, normals=verts, validate=False)


class TestWatertight:
    def test_open_mesh_rejected(self, sphere):
        with pytest.raises(InvalidMeshError):
            TriSurface(sphere.vertices, sphere.faces[:-1])

    @settings(max_examples=80, deadline=None)
    @given(_damaged_icospheres())
    def test_sorted_keys_match_unique_and_isin(self, mesh):
        want = _validate_by_unique_and_isin(mesh)
        if want is None:
            mesh.validate()
        else:
            with pytest.raises(InvalidMeshError) as info:
                mesh.validate()
            assert str(info.value) == want
