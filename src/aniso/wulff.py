"""Wulff shapes: unit balls of the dual norm, their meshes, volumes, perimeters.

W_r = { x : phi_polar(x) <= r }.  For smooth strictly convex norms the
boundary is parametrized by the gradient map u -> r * grad(phi)(u) over the
unit sphere, whose outward Euclidean normal at that point is u itself.  The
crystalline families (l1, linf) have polytopes, built as closed meshes whose
volume and anisotropic perimeter are `mesh.enclosed_volume` and
`mesh.aniso_area`, as for every other boundary.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InvalidArgumentError, UnsupportedOperationError
from .mesh import TriSurface
from .norms import EllipseNorm, EuclideanNorm, Norm, unit_sphere_samples


# ---------------------------------------------------------------------------
# sphere sampling


def icosphere(level):
    """Subdivided icosahedron on the unit sphere: (vertices, faces)."""
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=-1, keepdims=True)
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)
    for _ in range(level):
        verts, faces = _subdivide(verts, faces)
    return verts, faces


def _subdivide(verts, faces):
    """Split each face in four, numbering the new edge midpoints in order of
    first use (edges ab, bc, ca of each face in turn)."""
    n = len(verts)
    edges = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    keys = np.min(edges, axis=1) * n + np.max(edges, axis=1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    fresh = edges[first[order]]
    m = verts[fresh[:, 0]] + verts[fresh[:, 1]]
    # vecdot takes the same dot kernel as np.linalg.norm of one row, bit for bit
    m = m / np.sqrt(np.vecdot(m, m))[:, None]
    ab, bc, ca = (n + rank[inverse]).reshape(-1, 3).T
    a, b, c = faces.T
    out = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    return np.concatenate([verts, m]), out


def circle_points(count):
    ang = np.arange(count) * (2.0 * np.pi / count)
    return np.stack([np.cos(ang), np.sin(ang)], axis=-1)


def closed_loop_faces(count):
    idx = np.arange(count)
    return np.stack([idx, np.roll(idx, -1)], axis=-1)


# mesh resolutions per dimension, (least, default, greatest, unit): points on
# the circle in 2D, and an icosphere subdivision level in 3D (level 5 has
# 10,242 vertices, level 8 655,362)
_RESOLUTIONS = {2: (3, 2048, 2**20, "points"), 3: (0, 5, 8, "an icosphere level")}


def mesh_resolution(dim, resolution=None):
    """``resolution``, or its dimension's default for None, as an int; raises
    InvalidArgumentError unless it is within the range of its dimension: 3 to
    2^20 points in 2D, level 0 to 8 in 3D."""
    lo, default, hi, unit = _RESOLUTIONS[dim]
    resolution = default if resolution is None else resolution
    if not lo <= resolution <= hi:
        raise InvalidArgumentError(
            f"mesh resolution must be {lo} to {hi} ({unit}) in {dim}D, got {resolution}")
    return int(resolution)


def sphere_vertex_count(dim, resolution=None):
    """The number of directions of `_sphere_sample(dim, resolution)`, unbuilt."""
    n = mesh_resolution(dim, resolution)
    return 10 * 4**n + 2 if dim == 3 else n


def _sphere_sample(dim, resolution=None):
    """Unit directions and faces of a closed sphere mesh: ``resolution``
    points on the circle in 2D (default 2,048), an icosphere of that
    subdivision level in 3D (default 5), as `_RESOLUTIONS` holds them."""
    n = mesh_resolution(dim, resolution)
    return icosphere(n) if dim == 3 else (circle_points(n), closed_loop_faces(n))


# ---------------------------------------------------------------------------
# Wulff shapes


# Greatest extent r * max_i phi(e_i) of a Wulff ball along an axis.  Meshes,
# volumes, perimeters and Monte Carlo boxes form sums of products of up to
# 2 * dim coordinates (squared face normals in 3D): below 1e280 here, which
# leaves room for sums over 2^20 mesh points.
_MAX_EXTENT = {2: 1e70, 3: 1e45}


def check_radius(norm: Norm, r):
    """Raise InvalidArgumentError unless r is finite and positive and the
    Wulff ball of radius r stays within _MAX_EXTENT along every axis."""
    if not (np.isfinite(r) and r > 0):
        raise InvalidArgumentError(f"radius must be finite and positive, got {r!r}")
    extent = float(r) * float(np.max(norm.eval(np.eye(norm.dim))))
    if not extent <= _MAX_EXTENT[norm.dim]:
        raise InvalidArgumentError(
            f"radius {r!r} is too large: its Wulff ball reaches {extent:.3g} along an axis, "
            f"past {_MAX_EXTENT[norm.dim]:g}, beyond which its volume and perimeter overflow")


class WulffShape:
    """The dual-norm ball of radius r for a given norm."""

    def __init__(self, norm: Norm, r=1.0):
        check_radius(norm, r)
        self.norm = norm
        self.r = float(r)
        self.dual = norm.dual()

    @property
    def dim(self):
        return self.norm.dim

    def level_at(self, pts):
        """Signed boundary offset phi_polar(x) - r: negative inside, and equal
        to the dual-norm distance to the boundary (exactly, by homogeneity)."""
        return self.dual.eval(np.asarray(pts, dtype=float)) - self.r

    def lipschitz(self, pts, radius):
        """A Lipschitz bound of level_at, the same at every point: a bound of
        phi_polar(v) / |v|.  Exact for Euclidean and ellipse polars: 1, and
        the root of the polar matrix's largest eigenvalue (with 1e-12 for its
        rounding); otherwise sqrt(d) max_i phi_polar(e_i), by the triangle
        inequality."""
        dual = self.dual
        if isinstance(dual, EuclideanNorm):
            bound = 1.0
        elif isinstance(dual, EllipseNorm):
            bound = math.sqrt(np.linalg.eigvalsh(dual.Q)[-1]) * (1 + 1e-12)
        else:
            bound = math.sqrt(self.dim) * float(np.max(dual.eval(np.eye(self.dim))))
        return np.full(len(pts), bound)

    def bounds(self):
        """Axis-aligned bounding box (lo, hi) of the shape."""
        if self.norm.smooth:
            bd = self.support_points(unit_sphere_samples(self.dim, 512))
        else:
            bd = crystalline_polytope(self.norm, self.r).vertices
        lo = bd.min(axis=0) - 1e-9 * self.r
        hi = bd.max(axis=0) + 1e-9 * self.r
        return lo, hi

    def support_points(self, u):
        """Boundary points r * grad(phi)(u) for unit directions u."""
        return self.r * self.norm.grad(u)

    def boundary_mesh(self, resolution=None) -> TriSurface:
        """Closed oriented boundary mesh.

        Vertices sit at r * grad(phi)(u_k) over a quasi-uniform sphere sample,
        and u_k is stored as the exact outward normal.  ``resolution`` is
        that of `_sphere_sample`.
        """
        if not self.norm.smooth:
            raise UnsupportedOperationError(
                "crystalline Wulff shapes have no smooth boundary parametrization; "
                "use crystalline_polytope")
        u, faces = _sphere_sample(self.dim, resolution)
        return TriSurface(self.r * self.norm.grad(u), faces, normals=u)


# ---------------------------------------------------------------------------
# crystalline polytopes


def crystalline_polytope(norm: Norm, r=1.0) -> TriSurface:
    """The Wulff polytope of a crystalline family as a closed outward mesh:
    the cube [-r, r]^d for l1 (its dual is linf), the cross-polytope of
    radius r for linf (its dual is l1).  In 2D the faces are the facets; in
    3D a cube facet is two triangles and a cross-polytope facet one.
    """
    if norm.family not in ("l1", "linf"):
        raise UnsupportedOperationError("exact polytopes exist only for l1/linf")
    d = norm.dim
    if norm.family == "l1":
        verts = np.array(list(itertools.product((-r, r), repeat=d)), dtype=float)
        faces = []
        for k, side in itertools.product(range(d), (-r, r)):
            # a facet's corners in product order, so [0, 1, 3, 2] goes round it
            ids = np.flatnonzero(verts[:, k] == side)
            faces += [ids] if d == 2 else [ids[[0, 1, 3]], ids[[0, 3, 2]]]
    else:
        verts = np.concatenate([r * np.eye(d), -r * np.eye(d)])
        # one facet per orthant: the vertex +-r e_k on each axis k
        faces = [np.arange(d) + d * np.array(neg) for neg in itertools.product((0, 1), repeat=d)]
    faces = np.array(faces)
    tri = verts[faces]
    edge = tri[:, 1] - tri[:, 0]
    normal = (np.stack([edge[:, 1], -edge[:, 0]], axis=-1) if d == 2
              else np.cross(edge, tri[:, 2] - tri[:, 0]))
    # the polytope holds the origin, so an outward face faces its centroid
    inward = np.sum(normal * tri.mean(axis=1), axis=-1) < 0
    faces[inward] = faces[inward, ::-1]
    return TriSurface(verts, faces)


# ---------------------------------------------------------------------------
# Monte Carlo volume


def monte_carlo_volume(shape, samples=2_000_000, seed=0):
    """Volume of {level_at <= 0} sampled over its bounds: (value, standard error)."""
    lo, hi = shape.bounds()
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(samples, len(lo)))
    hits = shape.level_at(pts) <= 0.0
    frac = np.mean(hits)
    box = float(np.prod(hi - lo))
    stderr = box * np.sqrt(max(frac * (1 - frac), 0.0) / samples)
    return box * float(frac), float(stderr)


# ---------------------------------------------------------------------------
# 2D SVG export


def polygon_svg(surfaces, path, labels=None):
    """Write closed 2D boundary curves to a standalone 640-pixel SVG file."""
    size = 640
    surfaces = surfaces if isinstance(surfaces, (list, tuple)) else [surfaces]
    allv = np.concatenate([s.vertices for s in surfaces])
    lo = allv.min(axis=0); hi = allv.max(axis=0)
    span = max(hi - lo) * 1.1
    center = (lo + hi) / 2.0

    def to_px(p):
        q = (p - center) / span + 0.5
        return q[:, 0] * size, (1.0 - q[:, 1]) * size

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">']
    palette = ["black", "#b22", "#26b", "#282", "#a2a"]
    for k, s in enumerate(surfaces):
        order = _loop_order(s)
        for loop in order:
            x, y = to_px(s.vertices[loop])
            pts = " ".join(f"{xi:.2f},{yi:.2f}" for xi, yi in zip(x, y))
            lines.append(f'<polygon points="{pts}" fill="none" '
                         f'stroke="{palette[k % len(palette)]}" stroke-width="1.5"/>')
        if labels:
            lines.append(f'<text x="10" y="{20 * (k + 1)}" font-size="14" '
                         f'fill="{palette[k % len(palette)]}">{labels[k]}</text>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def _loop_order(s):
    """The closed loops of a 2D surface's edges, each from its first listed vertex."""
    nxt = {int(a): int(b) for a, b in s.faces}
    loops = []
    while nxt:
        loop = [next(iter(nxt))]
        while (cur := nxt.pop(loop[-1])) != loop[0]:
            loop.append(cur)
        loops.append(np.array(loop, dtype=np.int64))
    return loops
