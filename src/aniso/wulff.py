"""Wulff shapes: unit balls of the dual norm, their meshes, volumes, perimeters.

W_r = { x : phi_polar(x) <= r }.  For smooth strictly convex norms the
boundary is parametrized by the gradient map u -> r * grad(phi)(u) over the
unit sphere, whose outward Euclidean normal at that point is u itself.  The
crystalline families (l1, linf) are handled by exact polytope arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, UnsupportedOperationError
from .mesh import TriSurface, aniso_area, enclosed_volume
from .norms import Norm, unit_sphere_samples


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


def _sphere_sample(dim, resolution=None):
    """Unit directions and faces of a closed sphere mesh: ``resolution``
    points on the circle in 2D (default 2,048), an icosphere of that
    subdivision level in 3D (default 5, 10,242 vertices)."""
    if dim == 3:
        return icosphere(5 if resolution is None else int(resolution))
    count = 2048 if resolution is None else int(resolution)
    return circle_points(count), closed_loop_faces(count)


# ---------------------------------------------------------------------------
# Wulff shapes


class WulffShape:
    """The dual-norm ball of radius r for a given norm."""

    def __init__(self, norm: Norm, r=1.0):
        if not (np.isfinite(r) and r > 0):
            raise InvalidArgumentError(f"radius must be finite and positive, got {r!r}")
        self.norm = norm
        self.r = float(r)
        self.dual = norm.dual()

    @property
    def dim(self):
        return self.norm.dim

    @property
    def is_crystalline(self):
        return self.norm.family in ("l1", "linf")

    def contains(self, x):
        out = self.contains_points(x)
        return bool(out) if np.ndim(out) == 0 else out

    def contains_points(self, pts):
        return self.dual.eval(np.asarray(pts, dtype=float)) <= self.r

    def level_at(self, pts):
        """Signed boundary offset phi_polar(x) - r: negative inside, and equal
        to the dual-norm distance to the boundary (exactly, by homogeneity)."""
        return self.dual.eval(np.asarray(pts, dtype=float)) - self.r

    def bounds(self):
        """Axis-aligned bounding box (lo, hi) of the shape."""
        dirs = unit_sphere_samples(self.dim, 512)
        bd = self.support_points(dirs) if not self.is_crystalline else self.polytope().vertices
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
        if self.is_crystalline:
            raise UnsupportedOperationError(
                "crystalline Wulff shapes have no smooth boundary parametrization; "
                "use crystalline_polytope")
        if not self.norm.strictly_convex:
            raise UnsupportedOperationError("boundary mesh needs a strictly convex norm")
        u, faces = _sphere_sample(self.dim, resolution)
        return TriSurface(self.r * self.norm.grad(u), faces, normals=u)

    def polytope(self):
        return crystalline_polytope(self.norm, self.r)


# ---------------------------------------------------------------------------
# crystalline polytopes


@dataclass(frozen=True)
class Polytope:
    """Exact vertex plus halfspace representation ({x : A x <= b})."""

    vertices: np.ndarray
    halfspace_normals: np.ndarray
    halfspace_offsets: np.ndarray
    facet_vertex_ids: tuple      # tuple of index tuples, one per facet

    @property
    def dim(self):
        return self.vertices.shape[1]

    def contains_points(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.all(pts @ self.halfspace_normals.T <= self.halfspace_offsets + 1e-12, axis=-1)

    def bounds(self):
        pad = 1e-9 * max(1.0, float(np.max(np.abs(self.vertices))))
        return self.vertices.min(axis=0) - pad, self.vertices.max(axis=0) + pad

    def volume(self):
        # fan decomposition from the origin (interior by construction)
        total = 0.0
        for ids, nrm, off in zip(self.facet_vertex_ids, self.halfspace_normals,
                                 self.halfspace_offsets):
            area = self.facet_area(ids)
            h = off / np.linalg.norm(nrm)
            total += area * h / self.dim
        return float(total)

    def facet_area(self, ids):
        pts = self.vertices[list(ids)]
        if self.dim == 2:
            return float(np.linalg.norm(pts[1] - pts[0]))
        area = 0.0
        for k in range(1, len(pts) - 1):
            area += 0.5 * np.linalg.norm(np.cross(pts[k] - pts[0], pts[k + 1] - pts[0]))
        return float(area)

    def aniso_perimeter(self, norm: Norm):
        total = 0.0
        for ids, nrm in zip(self.facet_vertex_ids, self.halfspace_normals):
            unit = nrm / np.linalg.norm(nrm)
            total += self.facet_area(ids) * norm.eval(unit)
        return float(total)

    def to_trisurface(self):
        if self.dim == 2:
            order = np.argsort(np.arctan2(self.vertices[:, 1], self.vertices[:, 0]))
            verts = self.vertices[order]
            return TriSurface(verts, closed_loop_faces(len(verts)))
        tris = []
        for ids, nrm in zip(self.facet_vertex_ids, self.halfspace_normals):
            ids = list(ids)
            for k in range(1, len(ids) - 1):
                a, b, c = ids[0], ids[k], ids[k + 1]
                cr = np.cross(self.vertices[b] - self.vertices[a],
                              self.vertices[c] - self.vertices[a])
                if np.dot(cr, nrm) < 0:
                    a, b, c = a, c, b
                tris.append((a, b, c))
        return TriSurface(self.vertices, np.array(tris, dtype=np.int64))


def crystalline_polytope(norm: Norm, r=1.0) -> Polytope:
    """Exact Wulff polytope for the crystalline families.

    l1 norm  -> cube [-r, r]^d (its dual is linf);
    linf norm -> cross-polytope of radius r (its dual is l1).
    """
    if norm.family not in ("l1", "linf"):
        raise UnsupportedOperationError("exact polytopes exist only for l1/linf")
    d = norm.dim
    if norm.family == "l1":
        # cube
        corners = np.array(np.meshgrid(*([[-r, r]] * d), indexing="ij")).reshape(d, -1).T
        normals, offsets, facets = [], [], []
        for axis in range(d):
            for sgn in (1.0, -1.0):
                normals.append(sgn * np.eye(d)[axis])
                offsets.append(r)
                ids = np.flatnonzero(np.isclose(corners[:, axis], sgn * r))
                facets.append(tuple(_order_facet(corners[ids], np.eye(d)[axis] * sgn, ids)))
        return Polytope(np.asarray(corners, dtype=float), np.array(normals),
                        np.array(offsets), tuple(facets))
    # cross-polytope
    verts = np.concatenate([r * np.eye(d), -r * np.eye(d)])
    normals, offsets, facets = [], [], []
    for signs in np.array(np.meshgrid(*([[-1, 1]] * d), indexing="ij")).reshape(d, -1).T:
        normals.append(signs / 1.0)
        offsets.append(r)
        ids = [np.flatnonzero(np.all(np.isclose(verts, r * signs[k] * np.eye(d)[k]), axis=1))[0]
               for k in range(d)]
        facets.append(tuple(_order_facet(verts[ids], signs.astype(float), np.array(ids))))
    return Polytope(verts, np.array(normals, dtype=float), np.array(offsets, dtype=float),
                    tuple(facets))


def _order_facet(pts, normal, ids):
    """Order facet vertices counterclockwise as seen from outside."""
    if pts.shape[1] == 2:
        return [int(i) for i in ids] if len(ids) <= 2 else [int(i) for i in ids[:2]]
    center = pts.mean(axis=0)
    normal = normal / np.linalg.norm(normal)
    ref = pts[0] - center
    ref -= np.dot(ref, normal) * normal
    ref /= np.linalg.norm(ref)
    other = np.cross(normal, ref)
    ang = np.arctan2((pts - center) @ other, (pts - center) @ ref)
    return [int(ids[k]) for k in np.argsort(ang)]


# ---------------------------------------------------------------------------
# volume and perimeter


def wulff_volume(w: WulffShape, resolution=None):
    """|W_r| by mesh divergence, or exact polytope arithmetic when crystalline."""
    if w.is_crystalline:
        return w.polytope().volume()
    return enclosed_volume(w.boundary_mesh(resolution=resolution))


def monte_carlo_volume(shape, samples=2_000_000, seed=0):
    """Membership-sampling volume estimate: (value, standard error)."""
    lo, hi = shape.bounds()
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(samples, len(lo)))
    hits = shape.contains_points(pts)
    frac = np.mean(hits)
    box = float(np.prod(hi - lo))
    stderr = box * np.sqrt(max(frac * (1 - frac), 0.0) / samples)
    return box * float(frac), float(stderr)


def wulff_perimeter(w: WulffShape, resolution=None):
    """Anisotropic perimeter of the Wulff shape (exact for polytopes)."""
    if w.is_crystalline:
        return w.polytope().aniso_perimeter(w.norm)
    return aniso_area(w.boundary_mesh(resolution=resolution), w.norm)


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
    nxt = {int(a): int(b) for a, b in s.faces}
    seen = set()
    loops = []
    for start in nxt:
        if start in seen:
            continue
        loop = [start]
        seen.add(start)
        cur = nxt[start]
        while cur != start:
            loop.append(cur)
            seen.add(cur)
            cur = nxt[cur]
        loops.append(np.array(loop, dtype=np.int64))
    return loops
