import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from aniso import (
    ConvergenceError,
    EllipseNorm,
    EuclideanNorm,
    InvalidArgumentError,
    MarginError,
    SmoothedMaxNorm,
    Translate,
    Union,
    VoxelSet,
    WeightedLpNorm,
    WulffShape,
    chamfer_factor,
    components,
    dilate,
    distance_transform,
    erode,
    rasterize,
    reach_along_batch,
    stencil_offsets,
)
from aniso import grid
from aniso.errors import VoxelBudgetError
from aniso.grid import DistanceField, _relax_to_fixpoint
from aniso.norms import L1Norm, LinfNorm, parse_norm
from aniso.shapes import TwoBubbleSolid, _TwoBubbleProfile


@pytest.fixture(scope="module")
def ball2d():
    w = WulffShape(EuclideanNorm(2), 1.0)
    vox = rasterize(w, 0.02)
    df = distance_transform(vox, EuclideanNorm(2).dual(), k=3)
    return w, vox, df


class TestRasterize:
    def test_unit_ball_volume(self, ball2d):
        _, vox, _ = ball2d
        assert vox.volume() == pytest.approx(np.pi, rel=0.015)

    def test_3d_ball(self):
        vox = rasterize(WulffShape(EuclideanNorm(3), 1.0), 0.02)
        assert vox.volume() == pytest.approx(4 * np.pi / 3, rel=0.015)

    def test_union_of_disjoint_balls(self):
        w = WulffShape(EuclideanNorm(2), 0.5)
        expr = Union(Translate(w, [-1.0, 0.0]), Translate(w, [1.0, 0.0]))
        vox = rasterize(expr, 0.01)
        assert vox.volume() == pytest.approx(2 * np.pi * 0.25, rel=0.015)

    def test_cube_via_polytope(self):
        # the l1 Wulff shape is the cube [-1, 1]^3, whose level is linf - 1
        vox = rasterize(WulffShape(L1Norm(3), 1.0), 0.02)
        assert vox.volume() == pytest.approx(8.0, rel=0.01)

    def test_voxel_budget_checked_before_allocating(self):
        # about 2.7e10 voxels: refused, naming count and budget, before any
        # array is made
        w = WulffShape(EuclideanNorm(3), 1.5)
        tracemalloc.start()
        try:
            with pytest.raises(VoxelBudgetError, match="26,964,009,000 voxels .* budget of"):
                rasterize(w, 0.001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert issubclass(VoxelBudgetError, InvalidArgumentError)

    def test_margin_enforced(self):
        w = WulffShape(EuclideanNorm(2), 1.0)
        with pytest.raises(MarginError):
            rasterize(w, 0.02, origin=np.array([-1.0, -1.0]), dims=(100, 100))

    def test_negative_margin_rejected(self):
        # a negative width would slice from the far end and inspect the whole grid
        vox = rasterize(WulffShape(EuclideanNorm(2), 1.0), 0.1, margin=2)
        vox.check_margin(0)
        vox.check_margin(2)
        with pytest.raises(InvalidArgumentError, match="margin must be nonnegative"):
            vox.check_margin(-1)


def _full_level(shape, vox):
    """The solid's level at every voxel center of vox's grid."""
    idx = np.indices(vox.dims).reshape(vox.dim, -1).T
    return np.asarray(shape.level_at(vox.origin + (idx + 0.5) * vox.spacing)).reshape(vox.dims)


def _random_norm(draw, dim, family):
    if family == "ellipse":
        a = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim * dim,
                                   max_size=dim * dim))).reshape(dim, dim)
        return EllipseNorm(a @ a.T + 0.2 * np.eye(dim))
    if family == "lp":
        weights = draw(st.lists(st.floats(0.3, 3.0), min_size=dim, max_size=dim))
        return WeightedLpNorm(dim, draw(st.floats(1.3, 6.0)), weights)
    if family == "smoothmax":
        return SmoothedMaxNorm(dim, 2.0 ** -draw(st.floats(1.0, 6.0)))
    return {"euclidean": EuclideanNorm, "l1": L1Norm, "linf": LinfNorm}[family](dim)


_SMOOTH = ["euclidean", "ellipse", "lp", "smoothmax"]


@st.composite
def _solids(draw):
    """A Wulff shape of any family, a union of translated ones or a two-bubble,
    with a coarse spacing and margin."""
    dim = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["wulff", "union", "two-bubble"]))
    r = draw(st.floats(0.5, 2.0))
    if kind == "two-bubble":
        norm = _random_norm(draw, dim, draw(st.sampled_from(_SMOOTH)))
        shape = TwoBubbleSolid(_TwoBubbleProfile(norm, r, draw(st.floats(0.05, 0.45)) * r))
    else:
        families = st.sampled_from(_SMOOTH + ["l1", "linf"])
        parts = [WulffShape(_random_norm(draw, dim, draw(families)), r * draw(st.floats(0.4, 1.0)))
                 for _ in range(1 if kind == "wulff" else draw(st.integers(2, 3)))]
        norm = parts[0].norm
        shape = parts[0] if kind == "wulff" else Union(*[
            Translate(w, draw(st.lists(st.floats(-r, r), min_size=dim, max_size=dim)))
            for w in parts])
    spacing = r / draw(st.floats(6.0, 12.0) if dim == 3 else st.floats(10.0, 40.0))
    return shape, norm, spacing, draw(st.integers(1, 3)), draw(st.sampled_from([1, 3]))


class TestNarrowBand:
    """Block-classified rasterization against the full per-voxel evaluation."""

    @settings(max_examples=40, deadline=None)
    @given(_solids())
    def test_matches_full_evaluation(self, case):
        shape, norm, h, margin, k = case
        vox = rasterize(shape, h, margin=margin)
        full = _full_level(shape, vox)
        assert np.array_equal(vox.occupancy, full <= 0)
        fin = np.isfinite(vox.level)
        assert np.array_equal(vox.level[fin], full[fin])
        # +-inf only beyond the seeding band, on the level's own side
        assert np.all(np.abs(full[~fin]) > 3 * h)
        assert np.array_equal(vox.level[~fin], np.copysign(np.inf, full[~fin]))
        ref = VoxelSet(vox.origin, h, full <= 0, level=full)
        dual = norm.dual()
        assert np.array_equal(distance_transform(vox, dual, k=k).values,
                              distance_transform(ref, dual, k=k).values)
        assert np.array_equal(grid._seeded_distance(vox, -1.0, dual, k).values,
                              grid._seeded_distance(ref, -1.0, dual, k).values)

    def test_far_blocks_skipped(self):
        # an ellipse 50 by 100 voxels: most blocks lie beyond the band
        w = WulffShape(EllipseNorm(np.diag([1.0, 4.0])), 1.0)
        calls = []
        level_at = w.level_at
        w.level_at = lambda pts: calls.append(len(pts)) or level_at(pts)
        vox = rasterize(w, 0.02)
        assert sum(calls) < 0.5 * vox.occupancy.size
        assert np.isneginf(vox.level).any() and np.isposinf(vox.level).any()

    def test_solid_without_bound_evaluated_everywhere(self):
        # the test solid has no lipschitz(): every voxel is evaluated
        vox = rasterize(_RingAndDisk(EuclideanNorm(2)), 0.08, margin=4)
        assert np.all(np.isfinite(vox.level))
        assert np.array_equal(vox.level, _full_level(_RingAndDisk(EuclideanNorm(2)), vox))

    @pytest.mark.parametrize("spec", ["euclidean", "ellipse:1,4,2", "smoothmax:0.1"])
    def test_peak_memory_per_voxel(self, spec):
        # the erosion-3d benchmark rasters (r = 1.5, spacing r/32): a full
        # evaluation peaked at 72 to 137 bytes per voxel, against the 9 bytes
        # of its level and occupancy
        shape = WulffShape(parse_norm(spec, 3), 1.5)
        tracemalloc.start()
        try:
            vox = rasterize(shape, 1.5 * (1 / 32))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * vox.occupancy.size


class TestDistanceTransform:
    def test_zero_on_complement(self, ball2d):
        _, vox, df = ball2d
        assert np.all(df.values[~vox.occupancy] == 0.0)

    def test_wulff_radial_structure(self, ball2d):
        # for a Wulff ball the distance to the complement is r - phi_polar(x)
        _, vox, df = ball2d
        centers = vox.centers(np.ones(vox.dims, bool)).reshape(vox.dims + (2,))
        exact = np.maximum(1.0 - np.linalg.norm(centers, axis=-1), 0.0)
        cham = df.chamfer_factor
        assert np.max(np.abs(df.values - exact)) <= (cham - 1.0) * 1.0 + 2 * vox.spacing

    def test_center_value_is_radius(self, ball2d):
        _, _, df = ball2d
        assert df.values.max() == pytest.approx(1.0, rel=0.015)

    def test_monotone_in_stencil_order_and_brute_force_oracle(self):
        # brute force: exact min over complement voxels of phi_polar(x - a)
        rng = np.random.default_rng(3)
        occ = np.zeros((32, 32), dtype=bool)
        occ[8:24, 8:24] = True
        occ[12:20, 4:28] = True
        occ[0:2, :] = False
        vox = VoxelSet(np.zeros(2), 0.1, occ)
        norm = EllipseNorm(np.diag([1.0, 4.0]))
        dual = norm.dual()
        centers = vox.centers(np.ones(vox.dims, bool))
        comp = vox.centers(~vox.occupancy)
        exact = np.min(dual.eval(centers[:, None, :] - comp[None, :, :]), axis=1)
        exact = np.where(vox.occupancy.reshape(-1), exact, 0.0).reshape(vox.dims)
        vals = {}
        for k in (1, 2, 3):
            vals[k] = distance_transform(vox, dual, k=k).values
        assert np.all(vals[2] <= vals[1] + 1e-12)
        assert np.all(vals[3] <= vals[2] + 1e-12)
        # shortest grid paths can only overestimate the free metric
        assert np.all(vals[3] >= exact - 1e-12)
        assert np.max(vals[3] - exact) <= (chamfer_factor(dual, 2, 3) - 1) * exact.max() + 1e-9

    def test_empty_complement_rejected(self):
        vox = VoxelSet(np.zeros(2), 0.1, np.ones((8, 8), dtype=bool))
        with pytest.raises(InvalidArgumentError):
            distance_transform(vox, EuclideanNorm(2).dual())

    def test_triangle_property_on_segments(self, ball2d, rng):
        _, vox, df = ball2d
        idx = rng.integers(0, np.prod(vox.dims), size=200)
        pts = vox.centers(np.ones(vox.dims, bool))
        a, b = pts[idx[:100]], pts[idx[100:]]
        da, db = df.sample(a), df.sample(b)
        dual = EuclideanNorm(2).dual()
        bound = dual.eval(a - b) * df.chamfer_factor + 2 * vox.spacing
        assert np.all(np.abs(da - db) <= bound + 1e-9)

    def test_lipschitz_bound_never_exceeded(self, ball2d):
        _, vox, df = ball2d
        # |delta(x) - delta(y)| <= chamfer * phi_polar(x - y) on neighbors
        d = df.values
        h = vox.spacing
        for axis in (0, 1):
            diff = np.abs(np.diff(d, axis=axis))
            assert diff.max() <= df.chamfer_factor * h * (1 + 1e-9) + 1e-12

    def test_peak_memory_per_voxel(self):
        # the erosion-3d ellipse raster (r = 1.5, spacing r/32), as criterion 3
        # uses it: seeding a copy of the raster's level peaked at 18.6 bytes
        # per voxel, and five erosions that each stored r - delta at 18.1,
        # against the 8 of the field and 1 of each occupancy
        norm = parse_norm("ellipse:1,4,2", 3)
        shape, dual = WulffShape(norm, 1.5), norm.dual()
        tracemalloc.start()
        try:
            vox = rasterize(shape, 1.5 * (1 / 32))
            df = distance_transform(vox, dual)
            field_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            volumes = [erode(df, f * 1.5).volume() for f in (0.2, 0.3, 0.4, 0.5, 0.6)]
            erosion_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert field_peak <= 12 * vox.occupancy.size
        assert erosion_peak <= 11 * vox.occupancy.size
        assert volumes == sorted(volumes, reverse=True) and volumes[-1] > 0
        assert df.voxels.level is None
        assert df.voxels.occupancy is vox.occupancy


def _per_offset_relax(dist, offsets, weights, max_rounds=128):
    """The per-offset raster sweep that the slab engine replaced; returns the
    number of rounds it ran, the last of which changed nothing."""
    d = dist.ndim
    lead = np.argmax(np.abs(offsets), axis=1)
    sweep_plan = []
    for axis in range(d):
        for sign in (1, -1):
            sel = (lead == axis) & (np.sign(offsets[:, axis]) == sign)
            if np.any(sel):
                sweep_plan.append((axis, sign, offsets[sel], weights[sel]))
    for rounds in range(1, max_rounds + 1):
        changed = False
        for axis, sign, offs, ws in sweep_plan:
            n = dist.shape[axis]
            perp = []
            for o, w in zip(offs, ws):
                tgt, src = [], []
                for j in range(d):
                    if j != axis:
                        tgt.append(slice(max(o[j], 0), dist.shape[j] + min(o[j], 0)))
                        src.append(slice(max(-o[j], 0), dist.shape[j] + min(-o[j], 0)))
                perp.append((int(o[axis]), tgt, src, w))
            for i in range(n) if sign > 0 else range(n - 1, -1, -1):
                for oa, tgt, src, w in perp:
                    if not 0 <= i - oa < n:
                        continue
                    cand = dist[tuple(src[:axis] + [i - oa] + src[axis:])] + w
                    tview = dist[tuple(tgt[:axis] + [i] + tgt[axis:])]
                    upd = cand < tview
                    if upd.any():
                        tview[upd] = cand[upd]
                        changed = True
        if not changed:
            return rounds
    raise AssertionError("reference sweep did not converge")


class _RingAndDisk:
    """A non-convex set of two components: an annulus around a disk (ball)."""

    def __init__(self, norm):
        self.outer, self.inner, self.disk = (WulffShape(norm, r) for r in (1.0, 0.6, 0.3))

    def level_at(self, pts):
        ring = np.maximum(self.outer.level_at(pts), -self.inner.level_at(pts))
        return np.minimum(ring, self.disk.level_at(pts))

    def bounds(self):
        return self.outer.bounds()


# ellipses whose axes are not the grid's: the weights of the shifts (oa, p)
# and (oa, -p) of one sweep differ, so a sweep reading x + p instead of x - p
# relaxes other fields
_ROTATED = {2: EllipseNorm([[2.0, 0.7], [0.7, 1.0]]),
            3: EllipseNorm([[1.0, 0.3, 0.2], [0.3, 2.0, -0.4], [0.2, -0.4, 1.5]])}


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestSlabEngine:
    """The dirty-slab engine against the per-offset sweep, bit for bit."""

    @pytest.mark.parametrize("case", ["ellipse-2d", "rotated-2d", "ring-2d", "smoothmax-3d",
                                      "ellipse-3d", "rotated-3d", "ring-3d", "eroded-3d"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fields_match_per_offset_sweep(self, case, k, monkeypatch):
        if case == "ellipse-2d":
            norm = EllipseNorm(np.diag([1.0, 4.0]))
            vox = rasterize(WulffShape(norm, 1.0), 0.08)
        elif case == "rotated-2d":
            norm = _ROTATED[2]
            vox = rasterize(WulffShape(norm, 1.0), 0.08)
        elif case == "ring-2d":
            norm = EuclideanNorm(2)
            vox = rasterize(_RingAndDisk(norm), 0.08, margin=4)
        elif case == "smoothmax-3d":
            norm = SmoothedMaxNorm(3, 0.1)
            vox = rasterize(WulffShape(norm, 1.0), 0.2, margin=3)
        elif case == "ellipse-3d":
            norm = EllipseNorm(np.diag([1.0, 4.0, 2.0]))
            vox = rasterize(WulffShape(norm, 1.0), 0.15)
        elif case == "rotated-3d":
            norm = _ROTATED[3]
            vox = rasterize(WulffShape(norm, 1.0), 0.15)
        elif case == "ring-3d":
            norm = EuclideanNorm(3)
            vox = rasterize(_RingAndDisk(norm), 0.15, margin=3)
        else:
            # an eroded set seeds its dilation from r - delta, as in criterion 4
            norm = EuclideanNorm(3)
            vox = rasterize(WulffShape(norm, 1.0), 0.1, margin=3)
            vox = erode(distance_transform(vox, norm.dual(), k=3), 0.3)
        assert vox.level is not None
        if case.startswith("ring"):
            assert components(vox)[1] == 2
        dual = norm.dual()

        def fields():
            # the capped dilation field relaxes a sub-box seeded above its cap
            capped = grid._seeded_distance(vox, -1.0, dual, k, cap=2 * vox.spacing)
            return [distance_transform(vox, dual, k=k).values,
                    grid._seeded_distance(vox, -1.0, dual, k).values,
                    capped.values]

        got = fields()
        rounds = []
        monkeypatch.setattr(grid, "_relax_to_fixpoint",
                            lambda *a, **kw: rounds.append(_per_offset_relax(*a, **kw)))
        want = fields()
        assert len(rounds) == 3
        for g, w in zip(got, want):
            assert _same_bits(g, w)

    @staticmethod
    def _assert_matches_per_offset_sweep(dim, k, seed, weights):
        # the seeds hold -0.0 and -band; weights(offsets, rng) draws the weights
        rng = np.random.default_rng(seed)
        shape = {2: (23, 29), 3: (9, 10, 11)}[dim]
        seeds = rng.random(shape) < 0.1
        dist = np.where(seeds, -rng.random(shape) * 0.3, np.inf)
        dist[seeds & (rng.random(shape) < 0.3)] = -0.0
        dist[seeds & (rng.random(shape) < 0.3)] = -0.3
        offs = stencil_offsets(dim, k)
        w = weights(offs, rng)
        want = dist.copy()
        _per_offset_relax(want, offs, w)
        _relax_to_fixpoint(dist, offs, w)
        assert np.signbit(dist).sum() > 0
        assert _same_bits(dist, want)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_tied_weights_match_per_offset_sweep(self, dim, k):
        # shifts with equal weights share one add; weights drawn from three
        # values tie in no symmetric pattern
        self._assert_matches_per_offset_sweep(
            dim, k, dim * 10 + k, lambda offs, rng: rng.choice([1.0, 1.5, 2.0], size=len(offs)))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_symmetric_tied_weights_match_per_offset_sweep(self, dim, k):
        # weights shared by each orbit of sign flips, as a symmetric norm has
        # them, so the shifts (p0, b) and (p0, -b) of one group read a pair
        # buffer; a fifth of the offsets then take another weight, which
        # splits their pairs across groups
        def weights(offs, rng):
            orbit = np.unique(np.abs(offs), axis=0, return_inverse=True)[1].ravel()
            w = rng.choice([1.0, 1.5, 2.0], size=orbit.max() + 1)[orbit]
            odd = rng.random(len(offs)) < 0.2
            w[odd] = rng.choice([1.0, 1.5, 2.0, 2.5], size=odd.sum())
            return w

        self._assert_matches_per_offset_sweep(dim, k, 100 + dim * 10 + k, weights)

    def test_many_round_field_matches(self):
        # cheap (1, +-2) steps zigzag across a strip three voxels wide, so each
        # round carries the path two rows further and the fixpoint needs many
        # rounds; every other offset is too expensive to compete
        offs = stencil_offsets(2, 2)
        w = np.where(np.abs(offs[:, 1]) == 2, 1.0, 100.0)
        dist = np.full((24, 3), np.inf)
        dist[0, 0] = 0.0
        dist[23, 2] = 5.0
        want = dist.copy()
        rounds = _per_offset_relax(want, offs, w)
        assert rounds >= 6
        _relax_to_fixpoint(dist, offs, w)
        assert _same_bits(dist, want)

    def test_round_limit_raises_convergence_error(self):
        occ = np.zeros((12, 12), dtype=bool)
        occ[2:10, 3:9] = True
        vox = VoxelSet(np.zeros(2), 0.1, occ)
        offs = stencil_offsets(2, 3)
        w = EuclideanNorm(2).dual().eval(offs * 0.1)
        seed = np.where(occ, np.inf, 0.0)
        assert _per_offset_relax(seed.copy(), offs, w) == 2
        _relax_to_fixpoint(seed.copy(), offs, w, max_rounds=2)
        with pytest.raises(ConvergenceError):
            _relax_to_fixpoint(seed.copy(), offs, w, max_rounds=1)


_PROPERTY_NORMS = {2: [EllipseNorm(np.diag([1.0, 4.0])), _ROTATED[2]],
                   3: [EllipseNorm(np.diag([1.0, 4.0, 2.0])), _ROTATED[3]]}


@st.composite
def _small_sets(draw):
    """Random occupancy with an empty one-voxel margin, stencil order and spacing."""
    dim = draw(st.sampled_from([2, 3]))
    shape = tuple(draw(st.integers(3, 12 if dim == 2 else 7)) + 2 for _ in range(dim))
    inner = tuple(n - 2 for n in shape)
    cells = draw(st.lists(st.booleans(), min_size=int(np.prod(inner)),
                          max_size=int(np.prod(inner))))
    occ = np.zeros(shape, dtype=bool)
    occ[tuple(slice(1, n - 1) for n in shape)] = np.reshape(cells, inner)
    k = draw(st.integers(1, 3))
    spacing = draw(st.sampled_from([0.1, 0.37]))
    return VoxelSet(np.zeros(dim), spacing, occ), k


def _brute_force(vox, dual, sources, targets):
    """min over source voxel centers of phi_polar(x - a), at target voxels, else 0."""
    pts = vox.centers(np.ones(vox.dims, dtype=bool))
    src = vox.centers(sources)
    exact = np.min(dual.eval(pts[:, None, :] - src[None, :, :]), axis=1).reshape(vox.dims)
    return np.where(targets, exact, 0.0)


class TestDistanceProperties:
    """Stencil distances lie between the free metric and chamfer times it."""

    @settings(max_examples=25, deadline=None)
    @given(_small_sets())
    def test_chamfer_bounds(self, case):
        vox, k = case
        occ = vox.occupancy
        assume(occ.any())
        for norm in _PROPERTY_NORMS[vox.dim]:
            dual = norm.dual()
            cham = chamfer_factor(dual, vox.dim, k)
            fields = [(distance_transform(vox, dual, k=k).values,
                       _brute_force(vox, dual, ~occ, occ)),
                      (grid._seeded_distance(vox, -1.0, dual, k).values,
                       _brute_force(vox, dual, occ, ~occ))]
            for vals, exact in fields:
                assert np.all(vals >= exact * (1 - 1e-12))
                assert np.all(vals <= cham * exact * (1 + 1e-12))

    @pytest.mark.parametrize("k", [2, 3])
    def test_chamfer_bounds_one_seed(self, k):
        # some 3D facet cones of the rotated ellipse's stencil hull do not
        # span the lattice, so the stencil metric exceeds the hull value
        # there: by 1.30% at (-1, -3, 1) for k = 2, 1.42% at (-1, -5, 1) for k = 3
        dual = _ROTATED[3].dual()
        occ = np.zeros((21, 21, 21), dtype=bool)
        occ[10, 10, 10] = True
        vox = VoxelSet(np.zeros(3), 0.1, occ)
        vals = grid._seeded_distance(vox, -1.0, dual, k).values
        exact = _brute_force(vox, dual, occ, ~occ)
        assert np.all(vals <= chamfer_factor(dual, 3, k) * exact * (1 + 1e-12))


class TestStencil:
    def test_counts(self):
        assert len(stencil_offsets(2, 1)) == 8
        assert len(stencil_offsets(2, 2)) == 16
        assert len(stencil_offsets(3, 2)) == 98
        assert len(stencil_offsets(3, 3)) == 290

    def test_primitive_only(self):
        offs = stencil_offsets(2, 3)
        g = np.gcd.reduce(np.abs(offs), axis=1)
        assert np.all(g == 1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_chamfer_factor_exact_euclidean_2d(self, k):
        # the stencil ball is the polygon on the unit circle through the
        # primitive directions; its worst ratio is 1/cos of half the widest gap
        offs = stencil_offsets(2, k)
        ang = np.sort(np.arctan2(offs[:, 1], offs[:, 0]))
        gap = np.max(np.diff(np.append(ang, ang[0] + 2 * np.pi)))
        assert chamfer_factor(EuclideanNorm(2).dual(), 2, k) == pytest.approx(
            1.0 / np.cos(gap / 2), abs=1e-12)

    def test_chamfer_factor_ordering(self):
        dual = EuclideanNorm(2).dual()
        f1 = chamfer_factor(dual, 2, 1)
        f2 = chamfer_factor(dual, 2, 2)
        f3 = chamfer_factor(dual, 2, 3)
        assert f1 > f2 > f3 > 1.0
        assert f3 < 1.02


class TestErode:
    def test_exact_wulff_law(self, ball2d):
        _, _, df = ball2d
        for r in (0.2, 0.4, 0.6):
            vol = erode(df, r).volume()
            assert vol == pytest.approx(np.pi * (1 - r) ** 2, rel=0.02)

    def test_r_zero_recovers_set(self, ball2d):
        _, vox, df = ball2d
        er = erode(df, 0.0)
        boundary_skin = np.sum(vox.occupancy ^ er.occupancy)
        assert boundary_skin <= np.sum(vox.occupancy) * 0.05
        assert np.all(er.occupancy <= vox.occupancy)

    def test_past_maximum_is_empty(self, ball2d):
        _, _, df = ball2d
        assert erode(df, 2.0).volume() == 0.0

    def test_nesting(self, ball2d):
        _, _, df = ball2d
        e1, e2 = erode(df, 0.3), erode(df, 0.5)
        assert np.all(e2.occupancy <= e1.occupancy)

    def test_negative_rejected(self, ball2d):
        with pytest.raises(InvalidArgumentError):
            erode(ball2d[2], -0.1)


class TestDilate:
    def test_minkowski_additivity_of_wulff_balls(self):
        norm = EllipseNorm(np.diag([1.0, 4.0]))
        dual = norm.dual()
        small = rasterize(WulffShape(norm, 0.5), 0.02, margin=50)
        grown = dilate(small, dual, 0.4, k=3)
        target = rasterize(WulffShape(norm, 0.9), 0.02,
                           origin=small.origin, dims=small.dims)
        # Hausdorff distance below two voxels: mismatch voxels lie within
        # a thin shell around the target boundary
        mism = grown.occupancy ^ target.occupancy
        lvl = np.abs(dual.eval(small.centers(mism)) - 0.9) if mism.any() else np.array([0.0])
        assert np.max(lvl) <= 2.5 * small.spacing

    def test_point_dilation_gives_wulff_ball(self):
        norm = EuclideanNorm(2)
        occ = np.zeros((120, 120), dtype=bool)
        occ[60, 60] = True
        vox = VoxelSet(np.array([-1.2, -1.2]), 0.02, occ)
        ball = dilate(vox, norm.dual(), 0.8)
        assert ball.volume() == pytest.approx(np.pi * 0.64, rel=0.03)

    def test_erode_dilate_volume_law(self, ball2d):
        _, _, df = ball2d
        r, s = 0.5, 0.3
        er = erode(df, r)
        dil = dilate(er, EuclideanNorm(2).dual(), s)
        assert dil.volume() == pytest.approx(np.pi * (1 - r + s) ** 2, rel=0.025)

    def test_margin_overflow(self):
        occ = np.zeros((20, 20), dtype=bool)
        occ[8:12, 8:12] = True
        vox = VoxelSet(np.zeros(2), 0.1, occ)
        with pytest.raises(MarginError):
            dilate(vox, EuclideanNorm(2).dual(), 1.0)


_DILATION_NORMS = {
    "euclidean": lambda dim: EuclideanNorm(dim),
    "ellipse": lambda dim: EllipseNorm(np.diag([1.0, 4.0, 2.0][:dim])),
    "lp": lambda dim: WeightedLpNorm(dim, 3.0, [1.0, 2.0, 0.5][:dim]),
    "smoothmax": lambda dim: SmoothedMaxNorm(dim, 0.2),
}


@st.composite
def _dilation_cases(draw):
    """A random set with a wide empty margin, eroded or not, a norm and a radius."""
    dim = draw(st.sampled_from([2, 3]))
    margin = draw(st.integers(1, 12 if dim == 2 else 8))
    inner = tuple(draw(st.integers(1, 8 if dim == 2 else 5)) for _ in range(dim))
    cells = draw(st.lists(st.booleans(), min_size=int(np.prod(inner)),
                          max_size=int(np.prod(inner))))
    occ = np.zeros(tuple(n + 2 * margin for n in inner), dtype=bool)
    occ[tuple(slice(margin, margin + n) for n in inner)] = np.reshape(cells, inner)
    h = draw(st.sampled_from([0.1, 0.37]))
    vox = VoxelSet(np.zeros(dim), h, occ)
    norm = _DILATION_NORMS[draw(st.sampled_from(sorted(_DILATION_NORMS)))](dim)
    k = draw(st.integers(1, 3))
    depth = draw(st.sampled_from([None, 0.0, 0.5, 1.5]))
    if depth is not None and occ.any():
        # an eroded set seeds its dilation from r - delta, down to -3h
        vox = erode(distance_transform(vox, norm.dual(), k=k), depth * h)
    t = draw(st.floats(0.0, 4.0)) * h
    return vox, norm.dual(), t, k


class TestCappedDilation:
    """dilate relaxes only up to t, and its level, when read, up to t + 3h;
    below that each is the full field."""

    @staticmethod
    def _assert_matches_full_field(vox, dual, t, k):
        vals = grid._seeded_distance(vox, -1.0, dual, k).values
        want = vals <= t
        probe = VoxelSet(vox.origin, vox.spacing, want)
        try:
            probe.check_margin(1)
        except MarginError:
            with pytest.raises(MarginError):
                dilate(vox, dual, t, k=k)
            return
        got = dilate(vox, dual, t, k=k)
        assert got._level is None
        assert np.array_equal(got.occupancy, want)
        assert np.array_equal(got.level,
                              np.where(vals <= t + 3 * vox.spacing, vals - t, np.inf))

    @settings(max_examples=40, deadline=None)
    @given(_dilation_cases())
    def test_matches_full_field_below_cap(self, case):
        vox, dual, t, k = case
        assume(vox.occupancy.any())
        self._assert_matches_full_field(vox, dual, t, k)

    def test_reach_box_is_anisotropic_and_starts_below_zero(self):
        # seeds at -3h near the low wall of the long-reach axis: at t = 1.2h
        # the field stays under the cap 14 voxels along axis 1 but only 7
        # along axis 0, so a pad shared by both axes, or one measured from 0
        # rather than -3h, cuts off finite levels on the far side
        norm = EllipseNorm(np.diag([1.0, 4.0]))
        h = 0.1
        occ = np.zeros((28, 34), dtype=bool)
        occ[12:15, 10:13] = True
        vox = VoxelSet(np.zeros(2), h, occ, level=np.where(occ, -1.0, 1.0))
        dual = norm.dual()
        assert np.array_equal(dual.eval(np.eye(2)), [1.0, 0.5])
        got = dilate(vox, dual, 1.2 * h)
        assert np.isfinite(got.level[13, 26]) and np.isinf(got.level[13, 27])
        assert np.isfinite(got.level[21, 11]) and np.isinf(got.level[22, 11])
        self._assert_matches_full_field(vox, dual, 1.2 * h, 3)

    @settings(max_examples=40, deadline=None)
    @given(_dilation_cases(), st.sampled_from([0.0, 1.0, 3.0]))
    def test_reach_box_holds_every_voxel_below_the_cap(self, case, band):
        # each seed widened by its own reach, not by the lowest seed's
        vox, dual, t, k = case
        occ = vox.occupancy
        assume(occ.any())
        cap = t + band * vox.spacing
        offs = stencil_offsets(vox.dim, k)
        w = dual.eval(offs * vox.spacing)
        seed = 0.0 if vox.level is None else -np.clip(-vox.level, 0.0, 3 * vox.spacing)
        start = np.where(occ, seed, np.inf)
        box = grid._reach_box(start, cap, offs, w)
        assert box == _seed_reach_box(occ, start, cap, offs, w)
        below = grid._seeded_distance(vox, -1.0, dual, k).values <= cap
        below[box] = False
        assert not below.any()

    def test_nan_radius_rejected(self, ball2d):
        with pytest.raises(InvalidArgumentError):
            dilate(ball2d[1], EuclideanNorm(2).dual(), float("nan"))


def _seed_reach_box(seeds, dist, cap, offs, w):
    """The union of the boxes y +- (ceil((cap - dist[y]) * rate) + 1) over the
    seeds y, clipped to the grid, rate the voxels per unit length per axis."""
    rate = np.max(np.abs(offs) / w[:, None], axis=0)
    ys = np.argwhere(seeds)
    pad = np.minimum(np.ceil((cap - dist[seeds])[:, None] * rate), seeds.shape).astype(int) + 1
    lo = np.maximum(np.min(ys - pad, axis=0), 0)
    hi = np.minimum(np.max(ys + 1 + pad, axis=0), seeds.shape)
    return tuple(slice(a, b) for a, b in zip(lo, hi))


def _gather_seeded(vox, sign, dual, k, cap=None):
    """Seeding by a gather of the seed voxels' levels, then the same relaxation:
    (relaxation input, field).  The oracle for the in-place seeding."""
    seeds = ~vox.occupancy if sign > 0 else vox.occupancy
    offs = stencil_offsets(vox.dim, k)
    w = dual.eval(offs * vox.spacing)
    dist = np.where(seeds, 0.0, np.inf)
    dist[seeds] = -np.clip(sign * vox.level[seeds], 0.0, 3.0 * vox.spacing)
    if cap is None:
        start = dist.copy()
        _relax_to_fixpoint(dist, offs, w)
    else:
        box = _seed_reach_box(seeds, dist, cap, offs, w)
        sub = dist[box]
        sub[~seeds[box]] = np.nextafter(cap, np.inf)
        start = sub.copy()
        _relax_to_fixpoint(sub, offs, w)
        sub[sub > cap] = np.inf
    np.maximum(dist, 0.0, out=dist)
    dist[seeds] = 0.0
    return start, dist


@st.composite
def _levelled_sets(draw):
    """A random occupancy with an empty margin and an independent level of
    +-inf, +-0.0, 0, +-3h and values in between, a norm and a stencil order."""
    dim = draw(st.sampled_from([2, 3]))
    inner = tuple(draw(st.integers(1, 8 if dim == 2 else 4)) for _ in range(dim))
    shape = tuple(n + 8 for n in inner)
    h = draw(st.sampled_from([0.1, 0.37]))
    special = st.sampled_from([np.inf, -np.inf, 0.0, -0.0, 0, 3 * h, -3 * h])
    level = draw(hnp.arrays(float, shape, elements=st.one_of(special, st.floats(-5 * h, 5 * h)),
                            fill=special))
    cells = draw(hnp.arrays(bool, inner))
    occ = np.zeros(shape, dtype=bool)
    occ[tuple(slice(4, 4 + n) for n in inner)] = cells
    norm = _DILATION_NORMS[draw(st.sampled_from(["euclidean", "ellipse"]))](dim)
    return VoxelSet(np.zeros(dim), h, occ, level=level), norm.dual(), draw(st.integers(1, 3))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestInPlaceSeeding:
    """Seeds written in place are the gathered seeds, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(_levelled_sets(), st.sampled_from([0.0, 0.5, 1.0]))
    def test_bitwise_equal_to_gathered_seeds(self, case, t_voxels):
        vox, dual, k = case
        starts = []

        def capture(dist, offsets, weights):
            starts.append(dist.copy())
            return _relax_to_fixpoint(dist, offsets, weights)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(grid, "_relax_to_fixpoint", capture)
            if not vox.occupancy.all():
                df = distance_transform(vox, dual, k=k)
                start, want = _gather_seeded(vox, 1.0, dual, k)
                assert np.array_equal(_bits(starts.pop()), _bits(start))
                assert np.array_equal(_bits(df.values), _bits(want))
            if vox.occupancy.any():
                # the occupancy relaxes each seed's reach up to t, the level
                # (when read) up to t + 3h
                t = t_voxels * vox.spacing
                start_occ, _ = _gather_seeded(vox, -1.0, dual, k, cap=t)
                start, want = _gather_seeded(vox, -1.0, dual, k, cap=t + 3 * vox.spacing)
                try:
                    VoxelSet(vox.origin, vox.spacing, want <= t).check_margin(1)
                except MarginError:
                    with pytest.raises(MarginError):
                        dilate(vox, dual, t, k=k)
                    return
                got = dilate(vox, dual, t, k=k)
                assert np.array_equal(_bits(starts.pop()), _bits(start_occ))
                assert np.array_equal(got.occupancy, want <= t)
                assert np.array_equal(_bits(got.level), _bits(want - t))
                assert np.array_equal(_bits(starts.pop()), _bits(start))


class TestLevelOwnership:
    """Seeding may take the level of a raster or an erosion, which reads back
    bit for bit, but never writes an array that a caller passed in or read."""

    @settings(max_examples=40, deadline=None)
    @given(_levelled_sets(), st.sampled_from([0.0, 0.5, 1.0]))
    def test_caller_level_never_written(self, case, t_voxels):
        vox, dual, k = case
        level = vox.level
        before = level.copy()
        if not vox.occupancy.all():
            distance_transform(vox, dual, k=k)
        if vox.occupancy.any():
            try:
                dilate(vox, dual, t_voxels * vox.spacing, k=k)
            except MarginError:
                pass
        assert vox.level is level
        assert np.array_equal(_bits(level), _bits(before))

    @settings(max_examples=30, deadline=None)
    @given(_solids())
    def test_raster_level_reads_back(self, case):
        shape, norm, h, margin, k = case
        want = _bits(rasterize(shape, h, margin=margin).level).copy()
        dual = norm.dual()
        vox = rasterize(shape, h, margin=margin)
        taken = vox._level
        assert distance_transform(vox, dual, k=k).values is taken
        assert np.array_equal(_bits(vox.level), want)
        # a level handed to a reader is copied by the next seeding
        read = vox.level
        try:
            dilate(vox, dual, 0.5 * h, k=k)
        except MarginError:
            pass
        assert vox.level is read
        assert np.array_equal(_bits(read), want)

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(st.just(0.0), st.floats(0.0, 0.9)))
    def test_erosion_level_is_built_from_the_field(self, ball2d, r):
        _, _, df = ball2d
        field = _bits(df.values).copy()
        want = _bits(r - df.values)
        er = erode(df, r)
        assert er._level is None
        if er.occupancy.any():
            dilate(er, EuclideanNorm(2).dual(), 0.5 * r)
        assert np.array_equal(_bits(er.level), want)
        assert np.array_equal(_bits(df.values), field)


class TestComponents:
    def test_two_disjoint_balls(self):
        w = WulffShape(EuclideanNorm(2), 0.4)
        vox = rasterize(Union(Translate(w, [-1, 0]), Translate(w, [1, 0])), 0.02)
        _, count = components(vox)
        assert count == 2

    def test_bridged_pair_is_one(self):
        from aniso import ShapeSpec, gen
        g = gen(ShapeSpec("two-bubble", EuclideanNorm(2), r=1.0, neck_width=0.4),
                resolution=512)
        vox = rasterize(g.solid, 0.02)
        assert components(vox)[1] == 1

    def test_erosion_splits_neck(self):
        # oracle: the neck half-width bounds the depth at which it survives
        from aniso import ShapeSpec, gen
        g = gen(ShapeSpec("two-bubble", EuclideanNorm(2), r=1.0, neck_width=0.3),
                resolution=512)
        vox = rasterize(g.solid, 0.01)
        df = distance_transform(vox, EuclideanNorm(2).dual(), k=3)
        assert components(erode(df, 0.4))[1] == 2

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 3]), st.floats(0.2, 0.6), st.integers(0, 2**32 - 1))
    def test_deterministic_scanline_labels(self, dim, density, seed):
        # random masks hold many components; labels are numbered 1, 2, ...
        # in the order each component first appears along the scan
        occ = np.random.default_rng(seed).random((20,) * dim) < density
        labels, count = components(VoxelSet(np.zeros(dim), 0.1, occ))
        flat = labels.reshape(-1)
        first_seen = list(dict.fromkeys(flat[flat > 0].tolist()))
        assert first_seen == list(range(1, count + 1))
        assert np.array_equal(labels > 0, occ)

    def test_union_additivity(self):
        w = WulffShape(EuclideanNorm(2), 0.3)
        a = rasterize(Translate(w, [-1, 0]), 0.02,
                      origin=np.array([-2.0, -2.0]), dims=(200, 200))
        b = rasterize(Translate(w, [1, 0.5]), 0.02,
                      origin=np.array([-2.0, -2.0]), dims=(200, 200))
        u = a.union(b)
        assert u.volume() == pytest.approx(a.volume() + b.volume(), rel=1e-12)


class TestReach:
    def test_wulff_center_rays(self, ball2d):
        w, vox, df = ball2d
        norm = EuclideanNorm(2)
        boundary = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0],
                             [np.sqrt(0.5), np.sqrt(0.5)]])
        eta = -boundary  # inward unit directions through the center
        tau = reach_along_batch(df, boundary, eta)
        assert np.all(np.abs(tau - 1.0) <= 2 * vox.spacing)

    def test_slab_half_thickness(self):
        # the reach from a slab face stops at the midplane (the cut locus),
        # where the other face becomes the nearest part of the complement
        occ = np.zeros((60, 200), dtype=bool)
        occ[20:40, 4:196] = True     # slab of thickness 20 voxels = 0.4
        vox = VoxelSet(np.zeros(2), 0.02, occ)
        df = distance_transform(vox, EuclideanNorm(2).dual(), k=3)
        a = np.array([20 * 0.02, 2.0])
        (tau,) = reach_along_batch(df, np.array([a]), np.array([[1.0, 0.0]]))
        assert abs(tau - 0.2) <= 2 * vox.spacing

    def test_perturbed_reach_bounded_by_curvature(self):
        # tau(a) <= n / H(a) + 5% wherever |H - lambda| <= lambda/2; the
        # h-band acceptance of the discrete reach overshoots near gracing
        # cut-locus approaches, so this needs a fine grid to be meaningful
        from aniso import ShapeSpec, curvature, gen
        norm = EllipseNorm(np.diag([1.0, 4.0]))
        g = gen(ShapeSpec("perturbed-wulff", norm, r=1.0, eps=0.1, pattern=0),
                resolution=1024)
        vox = rasterize(g.solid, 0.0025)
        df = distance_transform(vox, norm.dual(), k=3)
        f = curvature(g.mesh, norm)
        eta = -norm.grad(g.mesh.normals)
        tau = reach_along_batch(df, g.mesh.vertices, eta)
        mask = np.abs(f.mean - 1.0) <= 0.5
        assert np.all(tau[mask] <= 1.0 / f.mean[mask] * 1.05 + 2 * vox.spacing)

    def test_unreachable_tolerance_raises(self, ball2d, monkeypatch):
        # 32 bisections shrink a half-voxel bracket to ~1e-10 voxels, not 1e-12
        _, vox, df = ball2d
        monkeypatch.setattr(grid, "_REACH_TOL", 1e-12)
        with pytest.raises(ConvergenceError) as info:
            reach_along_batch(df, np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]]))
        assert 1e-12 * vox.spacing < info.value.gap < 1e-9 * vox.spacing
        assert abs(info.value.best[0] - 1.0) <= 2 * vox.spacing

    def test_non_unit_direction_rejected(self, ball2d):
        with pytest.raises(InvalidArgumentError):
            reach_along_batch(ball2d[2], np.array([[1.0, 0.0]]), np.array([[-2.0, 0.0]]))

    def test_outside_grid_rejected(self, ball2d):
        with pytest.raises(InvalidArgumentError):
            reach_along_batch(ball2d[2], np.array([[10.0, 0.0]]), np.array([[-1.0, 0.0]]))


def _assert_truncations_rejected(path, load):
    # cuts inside the header and a payload short of its last bytes
    raw = path.read_bytes()
    for cut in (8, 30, len(raw) - 3):
        path.write_bytes(raw[:cut])
        with pytest.raises(InvalidArgumentError):
            load(path)


class TestFileFormats:
    def test_voxel_round_trip_bit_exact(self, tmp_path, rng):
        occ = rng.random((23, 17, 9)) > 0.5
        occ[0] = occ[-1] = False
        vox = VoxelSet(np.array([0.5, -1.0, 2.0]), 0.03, occ)
        path = tmp_path / "set.vox"
        vox.save(path)
        back = VoxelSet.load(path)
        assert np.array_equal(back.occupancy, vox.occupancy)
        assert np.allclose(back.origin, vox.origin)
        assert back.spacing == vox.spacing
        _assert_truncations_rejected(path, VoxelSet.load)

    def test_non_finite_spacing_rejected(self, nan_spacing_vox):
        with pytest.raises(InvalidArgumentError, match="spacing must be positive and finite"):
            VoxelSet.load(nan_spacing_vox)
        occ = np.zeros((4, 4), dtype=bool)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(InvalidArgumentError):
                VoxelSet(np.zeros(2), bad, occ)
            with pytest.raises(InvalidArgumentError):
                rasterize(WulffShape(EuclideanNorm(2), 1.0), bad)

    def test_header_over_voxel_budget_refused(self, over_budget_vox):
        # refused on the header's count, before the missing payload is noticed
        with pytest.raises(VoxelBudgetError, match="67,108,864 voxels exceeds the budget"):
            VoxelSet.load(over_budget_vox)

    def test_distance_field_round_trip(self, tmp_path, ball2d):
        _, vox, df = ball2d
        path = tmp_path / "dist.bin"
        df.save(path)
        back = DistanceField.load(path)
        assert back.values.shape == df.values.shape
        assert np.allclose(back.values, df.values, atol=1e-6 * df.values.max())
        assert back.stencil_order == df.stencil_order
        _assert_truncations_rejected(path, DistanceField.load)
