"""Voxel sets, anisotropic distance transforms, erosion and Minkowski dilation.

The distance field delta(x) = inf { phi_polar(x - a) : a outside the set } is
computed as a shortest-path distance on the voxel graph with a k-ring stencil
(primitive integer offsets with Chebyshev norm <= k) and edge weight
phi_polar(offset * spacing).  Relaxation runs as vectorized directional sweeps
iterated to the unique Bellman fixpoint, so the result is the exact
stencil-restricted shortest-path distance: deterministic, and an overestimate
of the true metric distance by at most the stencil's chamfer factor, an upper
bound of the stencil metric over phi_polar on the lattice (`chamfer_factor`).
Shifts (p0, b) and (p0, -b) of equal weight read one pair buffer of minima.
A dilation by t relaxes only the box of its seeds' reaches, up to t, and
relaxes again up to t plus the seeding band only when its level is read.

Rasterization and thresholding are pure per-voxel operations; each relaxation
owns its field, and voxel sets are treated as immutable after construction.
A set may drop its level array and rebuild it, bit for bit, but never changes
it: a raster, an erosion or a dilation hands a level array that no reader
holds to the first seeding, which writes the field into it, and builds the
level again when it is next read.  Fields of distinct sets may be computed
concurrently; two threads seeding one set at once may both be handed its
level.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import ConvergenceError, InvalidArgumentError, MarginError, VoxelBudgetError
from .norms import Norm


# ---------------------------------------------------------------------------
# voxel sets


class VoxelSet:
    """Binary occupancy grid over a box; True marks interior voxels.

    Voxel (i, j, k) has center origin + (i + 0.5, j + 0.5, k + 0.5) * spacing.
    The occupied set must keep at least a one-voxel empty margin so the
    complement is never clipped by the box.

    ``level``, when present, samples a signed boundary-offset function of the
    source shape (negative inside, approximately the dual-norm distance to
    the boundary near it).  The distance transform uses it to seed the
    boundary band at sub-voxel accuracy; binary operations ignore it.  It is
    exact within the seeding band (_BAND voxels) and may be -inf or +inf
    beyond it, where seeding clips it to the band either way: `rasterize`
    stores +-inf in blocks of _STRIDE^d voxels that lie wholly beyond it.

    A ``level=`` array passed in is never written: seeding copies it.  The
    sets of `rasterize`, `erode` and `dilate` can rebuild their level bit for
    bit, so seeding takes their array, unless ``level`` has handed it to a
    reader, and the next read of ``level`` rebuilds it.
    """

    def __init__(self, origin, spacing, occupancy, level=None):
        self.origin = np.asarray(origin, dtype=float)
        self.spacing = spacing
        self.occupancy = np.asarray(occupancy, dtype=bool)
        if self.occupancy.ndim not in (2, 3):
            raise InvalidArgumentError("occupancy must be a 2D or 3D array")
        _check_spacing(spacing)
        if level is not None and level.shape != self.occupancy.shape:
            raise InvalidArgumentError("level array must match occupancy shape")
        self._level = level
        self._rebuild = None   # zero-argument callable returning the level anew
        self._lent = False     # whether ``level`` has handed its array to a reader

    @property
    def level(self):
        if self._level is None and self._rebuild is not None:
            self._level = self._rebuild()
        self._lent = True
        return self._level

    def _seed_level(self):
        """(level, whether the caller may write it): a set that can rebuild its
        level hands over an array that no reader holds, and drops it."""
        if self._rebuild is None or self._lent:
            return self.level, False
        level, self._level = self._level, None
        return (self._rebuild() if level is None else level), True

    @property
    def dim(self):
        return self.occupancy.ndim

    @property
    def dims(self):
        return self.occupancy.shape

    def check_margin(self, width=1):
        if width < 0:
            raise InvalidArgumentError(f"margin must be nonnegative, got {width}")
        occ = self.occupancy
        for axis in range(occ.ndim):
            sl_lo = [slice(None)] * occ.ndim
            sl_hi = [slice(None)] * occ.ndim
            sl_lo[axis] = slice(0, width)
            sl_hi[axis] = slice(occ.shape[axis] - width, None)
            if occ[tuple(sl_lo)].any() or occ[tuple(sl_hi)].any():
                raise MarginError("occupied voxels touch the grid boundary margin")

    def volume(self):
        return float(np.sum(self.occupancy)) * self.spacing**self.dim

    def centers(self, mask=None):
        """Coordinates of voxel centers (all, or where mask is True)."""
        mask = self.occupancy if mask is None else mask
        idx = np.argwhere(mask)
        return self.origin + (idx + 0.5) * self.spacing

    def same_grid(self, other):
        return (self.dims == other.dims and np.allclose(self.origin, other.origin)
                and math.isclose(self.spacing, other.spacing))

    def symmetric_difference_volume(self, other):
        if not self.same_grid(other):
            raise InvalidArgumentError("voxel sets live on different grids")
        return float(np.sum(self.occupancy ^ other.occupancy)) * self.spacing**self.dim

    def union(self, other):
        if not self.same_grid(other):
            raise InvalidArgumentError("voxel sets live on different grids")
        return VoxelSet(self.origin, self.spacing, self.occupancy | other.occupancy)

    # -- binary round trip --------------------------------------------------

    _MAGIC = b"AVOX\x01"

    def save(self, path):
        packed = np.packbits(np.ascontiguousarray(self.occupancy).reshape(-1))
        _save_grid(path, self._MAGIC, self, b"", packed.tobytes())

    @classmethod
    def load(cls, path):
        shape, origin, spacing, _, payload = _load_grid(
            path, cls._MAGIC, "voxel", "", lambda total: (total + 7) // 8)
        packed = np.frombuffer(payload, dtype=np.uint8)
        occ = np.unpackbits(packed, count=math.prod(shape)).astype(bool).reshape(shape)
        return cls(origin, spacing, occ)


def _check_spacing(spacing):
    if not (spacing > 0 and math.isfinite(spacing)):
        raise InvalidArgumentError(f"spacing must be positive and finite, got {spacing}")


def _save_grid(path, magic, vox, tail, payload):
    """Write a grid file: magic, the little-endian tag, dim, shape, origin and
    spacing of ``vox``, then the format's packed ``tail`` fields and payload."""
    d = vox.dim
    with open(path, "wb") as fh:
        fh.write(magic + b"<")
        fh.write(struct.pack(f"<B{d}q{d}dd", d, *vox.dims, *vox.origin, vox.spacing))
        fh.write(tail)
        fh.write(payload)


def _load_grid(path, magic, what, tail_fmt, payload_bytes):
    """(shape, origin, spacing, tail fields, payload) of a grid file.

    ``tail_fmt`` is the struct format of the fields after the spacing and
    ``payload_bytes(n)`` the payload length for n voxels.  A wrong magic or
    tag, a truncated header and a payload of any other length all raise
    InvalidArgumentError; a header of more than _MAX_VOXELS voxels raises
    VoxelBudgetError, before the payload is looked at.
    """
    with open(path, "rb") as fh:
        data = memoryview(fh.read())
    if data[:len(magic)] != magic:
        raise InvalidArgumentError(f"not a {what} file")
    pos = len(magic)
    if data[pos:pos + 1] != b"<":
        raise InvalidArgumentError("unsupported endianness tag")
    try:
        (dim,) = struct.unpack_from("<B", data, pos + 1)
        fmt = f"<{dim}q{dim}dd{tail_fmt}"
        fields = struct.unpack_from(fmt, data, pos + 2)
    except struct.error as exc:
        raise InvalidArgumentError(f"truncated {what} file header") from exc
    shape = fields[:dim]
    count = math.prod(shape)
    if count > _MAX_VOXELS:
        raise VoxelBudgetError(
            f"a {what} file of {count:,} voxels exceeds the budget of {_MAX_VOXELS:,}")
    payload = data[pos + 2 + struct.calcsize(fmt):]
    if min(shape, default=0) < 1 or len(payload) != payload_bytes(count):
        raise InvalidArgumentError(f"{what} payload does not match the grid shape")
    return shape, np.array(fields[dim:2 * dim]), fields[2 * dim], fields[2 * dim + 1:], payload


# ---------------------------------------------------------------------------
# set expressions for rasterization
#
# A solid is anything with level_at(pts), <= 0 exactly on the solid, and
# bounds() -> (lo, hi).  It may also have lipschitz(pts, radius): per point, a
# bound on |level(x) - level(y)| / |x - y| over the Euclidean ball of that
# radius about it (inf where there is none).  A solid without it has no bound.


def _lipschitz(shape, pts, radius):
    bound = getattr(shape, "lipschitz", None)
    return np.full(len(pts), np.inf) if bound is None else bound(pts, radius)


class Union:
    def __init__(self, *shapes):
        self.shapes = shapes

    def level_at(self, pts):
        return np.min([s.level_at(pts) for s in self.shapes], axis=0)

    def lipschitz(self, pts, radius):
        # a minimum of functions is as Lipschitz as the steepest of them
        return np.max([_lipschitz(s, pts, radius) for s in self.shapes], axis=0)

    def bounds(self):
        bs = [s.bounds() for s in self.shapes]
        return (np.min([b[0] for b in bs], axis=0), np.max([b[1] for b in bs], axis=0))


class Translate:
    def __init__(self, shape, offset):
        self.shape = shape
        self.offset = np.asarray(offset, dtype=float)

    def level_at(self, pts):
        return self.shape.level_at(np.asarray(pts, float) - self.offset)

    def lipschitz(self, pts, radius):
        return _lipschitz(self.shape, np.asarray(pts, float) - self.offset, radius)

    def bounds(self):
        lo, hi = self.shape.bounds()
        return lo + self.offset, hi + self.offset


# rasterize classifies blocks of _STRIDE^d voxels by the level at their centers
_STRIDE = 4
# voxels per level_at call on the blocks near the boundary
_CHUNK = 16384
# most voxels one raster may have: about 12 times the largest grid that a test
# or a default config builds (2.9M); its distance transform peaks near 360 MB
_MAX_VOXELS = 2**25


def rasterize(shape, spacing, margin=2, origin=None, dims=None):
    """Sample a solid's level at the voxel centers near its boundary;
    occupancy is level <= 0.

    ``shape`` must have level_at and bounds (WulffShape, Union, Translate and
    the generated solids of `aniso.shapes`); meshes are not accepted.  The
    grid box is the shape's bounding box padded by ``margin`` voxels; pass
    origin/dims to rasterize onto an explicit grid instead (several shapes on
    one grid stay comparable).

    The level is first evaluated at the center of each block of _STRIDE^d
    voxels.  With the solid's Lipschitz bound L there, a block whose center
    has |level| > L * (block half-diagonal) + _BAND voxels lies wholly beyond
    the seeding band on one side: it takes its occupancy from that sign and
    stores level -inf or +inf.  Every other block is evaluated voxel by voxel,
    so occupancy and every distance-transform seed are those of a full
    evaluation, bit for bit.

    A grid of more than _MAX_VOXELS voxels raises VoxelBudgetError before
    anything is allocated.
    """
    _check_spacing(spacing)
    if origin is None or dims is None:
        lo, hi = shape.bounds()
        lo = np.asarray(lo, float) - margin * spacing
        hi = np.asarray(hi, float) + margin * spacing
        dims = tuple(int(np.ceil((hi[k] - lo[k]) / spacing)) for k in range(len(lo)))
        origin = lo
    count = math.prod(int(n) for n in dims)
    if count > _MAX_VOXELS:
        raise VoxelBudgetError(
            f"a grid of {count:,} voxels at spacing {spacing!r} exceeds the budget "
            f"of {_MAX_VOXELS:,}; use a coarser spacing")
    origin = np.asarray(origin, float)
    d = len(dims)
    nblocks = [-(-n // _STRIDE) for n in dims]
    blocks = np.indices(nblocks).reshape(d, -1).T
    # voxel centers lie within this distance of their block's center (1e-9 covers rounding)
    half = 0.5 * (_STRIDE - 1) * spacing * math.sqrt(d) * (1 + 1e-9)
    centers = origin + (_STRIDE * blocks + 0.5 * _STRIDE) * spacing
    bound = _lipschitz(shape, centers, half)
    far = np.zeros(len(blocks), dtype=bool)
    fill = np.full(len(blocks), np.nan)
    if np.any(np.isfinite(bound)):
        at = np.asarray(shape.level_at(centers), dtype=float)
        far = np.abs(at) > bound * half + _BAND * spacing
        fill[far] = np.copysign(np.inf, at[far])
    lvl = fill.reshape(nblocks)[np.ix_(*[np.arange(n) // _STRIDE for n in dims])]
    near = blocks[~far]
    local = np.indices((_STRIDE,) * d).reshape(d, -1).T
    step = _CHUNK // len(local)
    for i in range(0, len(near), step):
        idx = (_STRIDE * near[i:i + step, None] + local).reshape(-1, d)
        idx = idx[np.all(idx < dims, axis=1)]
        lvl[tuple(idx.T)] = np.asarray(shape.level_at(origin + (idx + 0.5) * spacing),
                                       dtype=float)
    out = VoxelSet(origin, float(spacing), lvl <= 0.0, level=lvl)
    out.check_margin(1)
    out._rebuild = lambda: rasterize(shape, spacing, origin=origin, dims=dims)._level
    return out


def components(s: VoxelSet):
    """Face-connected components: (labels array, count), scanline label order."""
    structure = ndimage.generate_binary_structure(s.dim, 1)
    # ndimage.label already numbers components by first occurrence in scan order
    labels, count = ndimage.label(s.occupancy, structure=structure)
    return labels, int(count)


# ---------------------------------------------------------------------------
# stencils and the sweep engine


def stencil_offsets(dim, k):
    """Primitive integer offsets with Chebyshev norm <= k."""
    if k not in (1, 2, 3):
        raise InvalidArgumentError("stencil order must be 1, 2 or 3")
    rng = np.arange(-k, k + 1)
    grids = np.meshgrid(*([rng] * dim), indexing="ij")
    offs = np.stack(grids, axis=-1).reshape(-1, dim)
    offs = offs[np.any(offs != 0, axis=1)]
    g = np.gcd.reduce(np.abs(offs), axis=1)
    return offs[g == 1]


def _relax_to_fixpoint(dist, offsets, weights, max_rounds=128):
    """In-place Bellman relaxation with directional sweeps until no update.

    A sweep walks the slabs of one axis in one direction and relaxes the
    offsets whose largest component, ``oa``, lies on that axis with that sign.
    Slab i takes one min-plus filter per source slab i - oa.  The filter
    copies the source slab into the rows of a flat +inf-padded buffer, so the
    source of each perpendicular shift p (read at x - p) is one contiguous
    slice of it, and the candidates fill rows of the same width.  Shifts
    whose weights are equal share one add: min_p fl(d_p + w) = fl(min_p d_p
    + w), since rounding is monotone, so each candidate is exactly
    fl(dist[x - o] + w).  Within such a group the shifts (p0, b) and (p0, -b)
    read one slice of a column-pair buffer, min(S[y - b], S[y + b]), built
    once per source copy for each b that at least two pairs of the filter
    share (a single pair would trade one minimum for another).  A minimum is
    exact up to the sign of a zero, and w > 0 makes +-0 + w = w, so pairing
    changes no candidate.

    Clean slabs are skipped.  ``changed[axis][j]`` is the last sweep that
    lowered a voxel with index j on that axis, and ``visited[i]`` the last
    sweep that relaxed slab i in this sweep's direction; a source slab is
    filtered again only when it changed after that visit.  All weights are
    positive, so the floating-point Bellman equation has a unique solution
    and the order of visits cannot change a bit of it.
    """
    d = dist.ndim
    lead = np.argmax(np.abs(offsets), axis=1)
    reach = int(np.max(np.abs(offsets)))
    sweeps = []
    for axis in range(d):
        for sign in (1, -1):
            filters = []
            for oa in sign * np.arange(1, reach + 1):
                sel = (lead == axis) & (offsets[:, axis] == oa)
                if not sel.any():
                    continue
                # (row, column) shifts: a 2D slab is a single row
                perp = np.delete(offsets[sel], axis, axis=1)
                perp = np.column_stack([np.zeros(len(perp), dtype=int), perp])[:, -2:]
                groups = {}
                for shift, w in zip(perp.tolist(), weights[sel].tolist()):
                    groups.setdefault(w, []).append(tuple(shift))
                filters.append((int(oa), *_paired(list(groups.items()))))
            if filters:
                sweeps.append((axis, sign, filters, np.full(dist.shape[axis], -1)))
    changed = [np.zeros(n, dtype=int) for n in dist.shape]
    clock = 0
    for _ in range(max_rounds):
        any_change = False
        for axis, sign, filters, visited in sweeps:
            clock += 1
            n = dist.shape[axis]
            stamps = changed[axis]
            perp_axes = [j for j in range(d) if j != axis]
            # the source slab's rows in a flat buffer: reach +inf rows above and
            # below (in 3D), and reach +inf cells after each row, which also
            # pad the next row's start; the candidates fill rows of that width
            shape = dist.shape[:axis] + dist.shape[axis + 1:]
            rows, cols = shape if d == 3 else (1,) + shape
            pad = reach if d == 3 else 0
            width = cols + reach
            size = rows * width
            padded = np.full((rows + 2 * pad) * width + 2 * reach, np.inf)
            first = reach + pad * width
            source = padded[first:first + size].reshape(rows, width)[:, :cols].reshape(shape)
            flat, tmp = np.empty(size), np.empty(size)
            cand = flat.reshape(rows, width)[:, :cols].reshape(shape)
            upd = np.empty(shape, dtype=bool)
            # shift (p0, p1) reads the source at x - p: one slice of the buffer,
            # and the pair (p0, +-b) reads x - p0 rows in the pair buffer of b
            pairbuf = {b: np.empty(len(padded)) for _, _, rows_b in filters for b in rows_b}
            plan = []
            for oa, groups, rows_b in filters:
                builds = []
                for b, (lo, hi) in rows_b.items():
                    start, end = first - hi * width, first - lo * width + size
                    builds.append((padded[start - b:end - b], padded[start + b:end + b],
                                   pairbuf[b][start:end]))
                views = [(w, [padded[first - p0 * width - p1:][:size] for p0, p1 in shifts]
                          + [pairbuf[b][first - p0 * width:][:size] for p0, b in pairs])
                         for w, shifts, pairs in groups]
                plan.append((oa, builds, views))
            for i in range(n) if sign > 0 else range(n - 1, -1, -1):
                filled = False
                for oa, builds, groups in plan:
                    src = i - oa
                    if not (0 <= src < n and stamps[src] > visited[i]):
                        continue
                    np.copyto(source, dist[(slice(None),) * axis + (src,)])
                    for below, above, pair in builds:
                        np.minimum(below, above, out=pair)
                    for w, views in groups:
                        low = views[0]
                        if len(views) > 1:
                            low = np.minimum(low, views[1], out=tmp)
                            for view in views[2:]:
                                np.minimum(low, view, out=low)
                        if filled:
                            np.minimum(flat, np.add(low, w, out=tmp), out=flat)
                        else:
                            np.add(low, w, out=flat)
                            filled = True
                visited[i] = clock
                if not filled:
                    continue
                slab = dist[(slice(None),) * axis + (i,)]
                np.less(cand, slab, out=upd)
                if not upd.any():
                    continue
                np.minimum(cand, slab, out=slab)
                stamps[i] = clock
                for pos, j in enumerate(perp_axes):
                    others = tuple(q for q in range(d - 1) if q != pos)
                    changed[j][upd.any(axis=others)] = clock
                any_change = True
        if not any_change:
            return
    raise ConvergenceError(f"distance relaxation did not converge in {max_rounds} rounds",
                           best=dist)


def _paired(groups):
    """(groups, rows_b) of one filter: each weight group as (w, plain shifts,
    pairs (p0, b) standing for (p0, b) and (p0, -b)), and for each b that
    pairs use, the least and greatest p0 of its pairs.  Only a b that at
    least two pairs share gets a pair buffer."""
    found = {w: [(p0, b) for p0, b in shifts if b > 0 and (p0, -b) in shifts]
             for w, shifts in groups}
    counts = Counter(b for pairs in found.values() for _, b in pairs)
    out, rows_b = [], {}
    for w, shifts in groups:
        pairs = [(p0, b) for p0, b in found[w] if counts[b] > 1]
        taken = {(p0, s * b) for p0, b in pairs for s in (1, -1)}
        out.append((w, [p for p in shifts if p not in taken], pairs))
        for p0, b in pairs:
            lo, hi = rows_b.get(b, (p0, p0))
            rows_b[b] = (min(lo, p0), max(hi, p0))
    return out, rows_b


# ---------------------------------------------------------------------------
# distance fields

# Width of the seeding band in voxels: a seed starts at most _BAND * spacing
# below zero, and a dilation's level is kept up to that far past its radius.
_BAND = 3.0


@dataclass
class DistanceField:
    """Per-voxel anisotropic distance, zero exactly on the seed set.

    ``voxels`` carries the occupancy only (its ``level`` is None), so the
    field does not keep the seeding level alive.
    """

    voxels: VoxelSet
    values: np.ndarray
    dual: Norm
    stencil_order: int
    _chamfer: float = field(default=None, repr=False)

    @property
    def spacing(self):
        return self.voxels.spacing

    @property
    def origin(self):
        return self.voxels.origin

    @property
    def chamfer_factor(self):
        """A-priori bound of the stencil metric's overestimation ratio."""
        if self._chamfer is None:
            self._chamfer = chamfer_factor(self.dual, self.voxels.dim, self.stencil_order)
        return self._chamfer

    def sample(self, pts):
        """Multilinear interpolation at physical points."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        idx = (pts - self.origin[None, :]) / self.spacing - 0.5
        return ndimage.map_coordinates(self.values, idx.T, order=1, mode="nearest")

    _MAGIC = b"ADST\x01"

    def save(self, path):
        _save_grid(path, self._MAGIC, self.voxels,
                   struct.pack("<Bd", self.stencil_order, self.chamfer_factor),
                   np.ascontiguousarray(self.values, dtype="<f4").tobytes())

    @classmethod
    def load(cls, path, dual=None):
        shape, origin, spacing, (korder, cham), payload = _load_grid(
            path, cls._MAGIC, "distance-field", "Bd", lambda total: 4 * total)
        vals = np.frombuffer(payload, dtype="<f4").astype(float).reshape(shape)
        vox = VoxelSet(origin, spacing, vals > 0)
        return cls(vox, vals, dual, korder, cham)


def distance_transform(s: VoxelSet, dual: Norm, k=3) -> DistanceField:
    """delta(x) = stencil shortest-path distance from the complement of s.

    Values are exactly zero on the complement; inside, they overestimate the
    true phi_polar distance by at most the chamfer factor of the stencil.
    Larger k never increases any value.

    When the voxel set carries a sampled level function, complement voxels in
    a band near the boundary are seeded with their sub-voxel boundary offset
    (negated), which removes the first-order half-voxel skin from the field;
    the complement is clamped back to zero afterwards.
    """
    if s.occupancy.all():
        raise InvalidArgumentError("empty complement: distance would be infinite everywhere")
    s.check_margin(1)
    return _seeded_distance(s, 1.0, dual, k)


def _seeded_distance(s: VoxelSet, sign, dual, k, cap=None):
    """Stencil distance from the seed voxels, clamped to zero on them: the
    complement for sign 1, the occupied set itself for sign -1.

    With a level function, seeds start at -clip(sign * level, 0, band), band =
    _BAND voxels (the level is > 0 on the complement, <= 0 on the set).  They
    are written in place, by the same elementwise operations as a gather of
    the seed voxels, into a copy of the level or, when the set hands its level
    over, into that array itself, which becomes the field.

    With a ``cap``, values above it are +inf and all others exact.  Every
    voxel at or below the cap has an optimal path whose values all stay at or
    below it (weights are positive and fl(a + w) >= a), and that path lies
    within the reach of its seed y, a path of length cap - dist[y]
    (`_reach_box`).  So only the box of those reaches is relaxed, its non-seed
    voxels starting at the float just above the cap, where no candidate above
    the cap can land.
    """
    occ = s.occupancy
    seeds, rest = (~occ, occ) if sign > 0 else (occ, ~occ)
    offs = stencil_offsets(s.dim, k)
    w = dual.eval(offs * s.spacing)
    level, owned = s._seed_level()
    if level is None:
        dist = np.where(seeds, 0.0, np.inf)
    else:
        dist = np.multiply(level, sign, out=level if owned else None, dtype=float)
        np.clip(dist, 0.0, _BAND * s.spacing, out=dist)
        np.negative(dist, out=dist)
        np.copyto(dist, np.inf, where=rest)
    if cap is None:
        _relax_to_fixpoint(dist, offs, w)
    else:
        box = _reach_box(dist, cap, offs, w)
        sub = dist[box]
        np.copyto(sub, np.nextafter(cap, np.inf), where=rest[box])
        _relax_to_fixpoint(sub, offs, w)
        sub[sub > cap] = np.inf
    np.maximum(dist, 0.0, out=dist)
    np.copyto(dist, 0.0, where=seeds)
    return DistanceField(VoxelSet(s.origin, s.spacing, occ), dist, dual, k)


def _reach_box(dist, cap, offs, w):
    """Slices of the box that holds every seed's reach: seed y (a finite
    voxel; the others are +inf) widened on each axis by the voxels that a
    stencil path of length cap - dist[y] crosses along it, plus one.

    The pad grows with the length, so on each axis the lowest seed of each
    slab sets that slab's pad, and the box is the union of the slabs' spans.
    """
    rate = np.max(np.abs(offs) / w[:, None], axis=0)
    box = []
    for axis, n in enumerate(dist.shape):
        low = dist.min(axis=tuple(j for j in range(dist.ndim) if j != axis))
        hit = np.flatnonzero(low < np.inf)
        # an infinite length reaches the whole grid
        pad = np.minimum(np.ceil((cap - low[hit]) * rate[axis]), n).astype(int) + 1
        box.append(slice(max(int(np.min(hit - pad)), 0), min(int(np.max(hit + 1 + pad)), n)))
    return tuple(box)


def erode(df: DistanceField, r) -> VoxelSet:
    """Super-level set { delta >= r } (the occupied set itself at r = 0).

    The result's level function is r - delta, so later dilations keep
    sub-voxel boundary accuracy.  It is built from the field only when read
    or seeded, so a volume or component count never allocates it.
    """
    if r < 0:
        raise InvalidArgumentError("erosion depth must be nonnegative")
    occ = df.values >= r if r > 0 else df.values > 0
    out = VoxelSet(df.origin, df.spacing, occ)
    out._rebuild = lambda: r - df.values
    return out


def dilate(s: VoxelSet, dual: Norm, t, k=3) -> VoxelSet:
    """Minkowski dilation by the Wulff ball of radius t (distance from s <= t).

    The distance is relaxed only up to t, so the occupancy holds no float
    array.  The result's level function, delta - t where delta <= t + band
    (band = _BAND voxels) and +inf beyond, where a later seeding clips the
    level to the band either way, is built only when read or seeded: from a
    second relaxation of s, up to t + band.
    """
    if not t >= 0:
        raise InvalidArgumentError("dilation radius must be nonnegative")
    if not s.occupancy.any():
        return VoxelSet(s.origin, s.spacing, s.occupancy.copy())
    out = VoxelSet(s.origin, s.spacing, _seeded_distance(s, -1.0, dual, k, cap=t).values <= t)
    out.check_margin(1)

    def level():
        delta = _seeded_distance(s, -1.0, dual, k, cap=t + _BAND * s.spacing).values
        return np.subtract(delta, t, out=delta)

    out._rebuild = level
    return out


# ---------------------------------------------------------------------------
# chamfer factor


def chamfer_factor(dual: Norm, dim, k):
    """An upper bound of d / phi_polar on the lattice, d the stencil metric.

    d(z) is the least sum of phi_polar(o) over stencil paths from 0 to z, at
    least the gauge g of K = conv{ o / phi_polar(o) }.  On the cone of a
    facet a.x <= b of K, g <= H_f phi_polar with H_f = phi(a) / b.  A lattice
    point z of that cone is sum floor(mu_j) o_j + p over the facet's offsets
    o_j, with |p|_inf < dim k, so d(z) - g(z) <= d(p) - g(p) <= C_f, the
    largest excess on the cone's points of that box, and d / phi_polar <=
    H_f + C_f / phi_polar(z).  C_f = 0 where the o_j span the lattice (every
    2D stencil measured), and there the factor is the hull value max H_f.

    d comes from one relaxation from a single voxel over |z|_inf <= R = dim k
    (paths that stay in the box: at least d).  The factor is the largest
    ratio in the box and, beyond it, where phi_polar(z) >= (R + 1) /
    max_i phi(e_i), the largest H_f + C_f max_i phi(e_i) / (R + 1).
    """
    from scipy.spatial import ConvexHull

    offs = stencil_offsets(dim, k)
    w = dual.eval(offs.astype(float))
    eq = ConvexHull(offs / w[:, None]).equations
    norm = dual.dual()
    h_f = norm.eval(eq[:, :-1]) / -eq[:, -1]
    rad = dim * k
    dist = np.full((2 * rad + 1,) * dim, np.inf)
    dist[(rad,) * dim] = 0.0
    _relax_to_fixpoint(dist, offs, w)
    z = np.indices(dist.shape).reshape(dim, -1).T - rad
    d = dist.ravel()
    pol = dual.eval(z.astype(float))
    box = np.max(d[pol > 0] / pol[pol > 0])
    # each point of |p|_inf < R lies in the cones whose facet attains g(p)
    near = np.max(np.abs(z), axis=1) < rad
    g_f = z[near] @ (eq[:, :-1] / -eq[:, -1:]).T
    g = np.max(g_f, axis=1)
    cone = g_f >= g[:, None] - 1e-9 * np.abs(g[:, None])
    c_f = np.max(np.where(cone, (d[near] - g)[:, None], 0.0), axis=0)
    tail = np.max(h_f + c_f * np.max(norm.eval(np.eye(dim))) / (rad + 1))
    return max(1.0, float(box), float(tail))


# ---------------------------------------------------------------------------
# reach along rays


# bisection stops once every bracket is at most this many voxels wide
_REACH_TOL = 0.25


def reach_along_batch(df: DistanceField, a, eta):
    """Per ray, the largest s with |delta(a + s*eta) - s| <= spacing, by scan
    plus bisection.

    Each row of ``eta`` must satisfy phi_polar(eta) = 1 (a unit Wulff-boundary
    direction); each row of ``a`` should lie within one voxel of the occupied
    set's boundary.  Raises ConvergenceError when 32 bisections leave a
    bracket wider than _REACH_TOL voxels.
    """
    a = np.asarray(a, dtype=float)
    eta = np.asarray(eta, dtype=float)
    h = df.spacing
    vox = df.voxels
    lo = vox.origin
    hi = vox.origin + np.array(vox.dims) * h
    if np.any(a < lo - h) or np.any(a > hi + h):
        raise InvalidArgumentError("ray origin outside the grid box")
    if df.dual is not None:
        unit = df.dual.eval(eta)
        if np.any(np.abs(unit - 1.0) > 1e-6):
            raise InvalidArgumentError("eta must be unit in the dual norm")
    s_max = float(np.max(df.values[np.isfinite(df.values)])) + 2 * h
    n_steps = max(int(np.ceil(s_max / (0.5 * h))), 4)
    svals = np.linspace(0.0, s_max, n_steps + 1)
    nray = a.shape[0]
    s_lo = np.zeros(nray)
    s_hi = np.full(nray, np.nan)
    alive = np.ones(nray, dtype=bool)
    for j, sv in enumerate(svals):
        pts = a + sv * eta
        inside = np.all((pts >= lo) & (pts <= hi - 1e-9 * h), axis=1)
        vals = df.sample(pts)
        ok = inside & (np.abs(vals - sv) <= h)
        newly_dead = alive & ~ok & (j > 0)
        s_hi[newly_dead] = sv
        alive &= ok | (j == 0)
        s_lo[alive] = sv
    s_hi = np.where(np.isnan(s_hi), s_max, s_hi)
    # bisection refinement between last good and first bad sample
    tol = _REACH_TOL * h
    for _ in range(32):
        if np.max(s_hi - s_lo) <= tol:
            break
        mid = 0.5 * (s_lo + s_hi)
        vals = df.sample(a + mid[:, None] * eta)
        good = np.abs(vals - mid) <= h
        s_lo = np.where(good, mid, s_lo)
        s_hi = np.where(good, s_hi, mid)
    gap = float(np.max(s_hi - s_lo))
    if gap > tol:
        raise ConvergenceError(f"reach bisection ended {gap:.3g} above tol {tol:.3g}",
                               best=s_lo, gap=gap)
    return s_lo
