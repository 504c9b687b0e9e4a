"""Closed oriented hypersurfaces: triangle meshes in 3D, closed polylines in 2D.

Carries the discrete versions of the surface quantities used everywhere else:
anisotropic area  integral of phi(normal), enclosed volume (divergence
theorem), per-vertex anisotropic principal/mean curvatures, L^p curvature
deviations, and the discrete first variation of the anisotropic area.

Surfaces are immutable once built; the lazy geometry caches only ever store
recomputable values, so concurrent shared reads are safe, and curvature
output is independent per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, InvalidMeshError
from .norms import Norm, tangent_basis, tangential_hessian_eigs


class TriSurface:
    """Closed oriented surface.

    3D: vertices (N, 3), faces (M, 3) index triples, consistently oriented
    (outward normals, positive signed volume).  2D: vertices (N, 2), faces
    (M, 2) directed edges forming closed loops traversed counterclockwise.

    ``normals`` are per-vertex outward unit normals; if omitted they are
    computed from the faces (angle-weighted in 3D, edge-averaged in 2D).
    """

    def __init__(self, vertices, faces, normals=None, validate=True):
        self.vertices = np.asarray(vertices, dtype=float)
        self.faces = np.asarray(faces, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] not in (2, 3):
            raise InvalidMeshError("vertices must be (N, 2) or (N, 3)")
        d = self.vertices.shape[1]
        if self.faces.ndim != 2 or self.faces.shape[1] != d:
            raise InvalidMeshError(f"faces must be (M, {d}) for dimension {d}")
        if not np.all(np.isfinite(self.vertices)):
            raise InvalidMeshError("non-finite vertex coordinates")
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= len(self.vertices)):
            raise InvalidMeshError("face index out of range")
        self._cache = {}
        if normals is not None:
            normals = np.asarray(normals, dtype=float)
            if normals.shape != self.vertices.shape:
                raise InvalidMeshError("normals must match vertices in shape")
            nrm = np.linalg.norm(normals, axis=-1)
            if np.any(np.abs(nrm - 1.0) > 1e-10):
                raise InvalidMeshError("vertex normals must be unit length")
            self.normals = normals
        else:
            self.normals = self._vertex_normals()
        if validate:
            self.validate()

    # -- basic metadata ----------------------------------------------------

    @property
    def dim(self):
        return self.vertices.shape[1]

    @property
    def n(self):
        """Dimension of the surface itself (1 for curves, 2 for surfaces)."""
        return self.dim - 1

    def _measures(self):
        if "measures" not in self._cache:
            self._cache["measures"] = _face_measures(self.vertices, self.faces)
        return self._cache["measures"]

    @property
    def face_areas(self):
        return self._measures()[0]

    @property
    def face_normals(self):
        return self._measures()[1]

    @property
    def face_centroids(self):
        return self.vertices[self.faces].mean(axis=1)

    @property
    def vertex_areas(self):
        """Barycentric area lumping: one third (3D) / one half (2D) of incident faces."""
        if "vertex_areas" not in self._cache:
            va = np.zeros(len(self.vertices))
            share = self.face_areas / self.faces.shape[1]
            for k in range(self.faces.shape[1]):
                np.add.at(va, self.faces[:, k], share)
            self._cache["vertex_areas"] = va
        return self._cache["vertex_areas"]

    def _vertex_normals(self):
        fa, fn = _face_measures(self.vertices, self.faces)
        vn = np.zeros_like(self.vertices)
        if self.dim == 3:
            # angle-weighted accumulation
            tri = self.vertices[self.faces]
            for k in range(3):
                a = tri[:, (k + 1) % 3] - tri[:, k]
                b = tri[:, (k + 2) % 3] - tri[:, k]
                cosang = np.sum(a * b, axis=-1) / (
                    np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1))
                ang = np.arccos(np.clip(cosang, -1.0, 1.0))
                np.add.at(vn, self.faces[:, k], fn * ang[:, None])
        else:
            for k in range(2):
                np.add.at(vn, self.faces[:, k], fn * fa[:, None])
        nrm = np.linalg.norm(vn, axis=-1, keepdims=True)
        if np.any(nrm == 0.0):
            raise InvalidMeshError("isolated vertex without incident faces")
        return vn / nrm

    def validate(self):
        """Check watertightness and consistent outward orientation."""
        f = self.faces
        if self.dim == 3:
            edges = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
            key = np.sort(edges[:, 0] * len(self.vertices) + edges[:, 1])
            if np.any(key[1:] == key[:-1]):
                raise InvalidMeshError("duplicated directed edge: inconsistent orientation")
            # distinct keys: every edge has its reverse exactly when both sets agree
            rkey = np.sort(edges[:, 1] * len(self.vertices) + edges[:, 0])
            if not np.array_equal(key, rkey):
                raise InvalidMeshError("open mesh: boundary edge found")
        else:
            starts = np.bincount(f[:, 0], minlength=len(self.vertices))
            ends = np.bincount(f[:, 1], minlength=len(self.vertices))
            if np.any(starts > 1) or np.any(ends > 1) or np.any(starts != ends):
                raise InvalidMeshError("2D surface must be a union of simple closed loops")
        if enclosed_volume(self, _validate=False) <= 0.0:
            raise InvalidMeshError("non-positive signed volume: orientation is not outward")

    # -- text round trip -------------------------------------------------------

    def save_text(self, path):
        with open(path, "w") as fh:
            fh.write(f"mesh {self.dim} {len(self.vertices)} {len(self.faces)}\n")
            for v in self.vertices:
                fh.write("v " + " ".join(repr(float(x)) for x in v) + "\n")
            for f in self.faces:
                fh.write("f " + " ".join(str(int(i)) for i in f) + "\n")
            for nv in self.normals:
                fh.write("n " + " ".join(repr(float(x)) for x in nv) + "\n")

    @classmethod
    def load_text(cls, path):
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 4 or header[0] != "mesh":
                raise InvalidMeshError("not a mesh text file")
            d, nv, nf = int(header[1]), int(header[2]), int(header[3])
            verts, faces, normals = [], [], []
            for line in fh:
                tag, *vals = line.split()
                if tag == "v":
                    verts.append([float(x) for x in vals])
                elif tag == "f":
                    faces.append([int(x) for x in vals])
                elif tag == "n":
                    normals.append([float(x) for x in vals])
        if len(verts) != nv or len(faces) != nf:
            raise InvalidMeshError("mesh text file truncated")
        return cls(np.array(verts), np.array(faces),
                   normals=np.array(normals) if normals else None)


def _face_measures(vertices, faces):
    """(areas, unit normals) per face; 2D edges use length and outward normal."""
    d = vertices.shape[1]
    tri = vertices[faces]
    if d == 3:
        cr = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        nrm = np.linalg.norm(cr, axis=-1)
        areas = 0.5 * nrm
        with np.errstate(invalid="ignore", divide="ignore"):
            normals = np.where(nrm[:, None] > 0, cr / np.where(nrm[:, None] == 0, 1, nrm[:, None]), 0.0)
        return areas, normals
    e = tri[:, 1] - tri[:, 0]
    lens = np.linalg.norm(e, axis=-1)
    # CCW loop: outward normal is the edge direction rotated by -90 degrees
    normals = np.stack([e[:, 1], -e[:, 0]], axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        normals = np.where(lens[:, None] > 0, normals / np.where(lens[:, None] == 0, 1, lens[:, None]), 0.0)
    return lens, normals


# ---------------------------------------------------------------------------
# surface integrals


def aniso_area(s: TriSurface, norm: Norm):
    """Anisotropic area: integral of phi(unit normal) over the surface."""
    return float(np.sum(s.face_areas * norm.eval(s.face_normals)))


def enclosed_volume(s: TriSurface, _validate=True):
    """Signed enclosed volume by the divergence theorem; positive when outward."""
    tri = s.vertices[s.faces]
    if s.dim == 3:
        vol = np.sum(np.einsum("ij,ij->i", tri[:, 0], np.cross(tri[:, 1], tri[:, 2]))) / 6.0
    else:
        vol = np.sum(tri[:, 0, 0] * tri[:, 1, 1] - tri[:, 1, 0] * tri[:, 0, 1]) / 2.0
    if _validate and vol <= 0.0:
        raise InvalidMeshError("negative enclosed volume: inward orientation")
    return float(vol)


def lambda_of(s: TriSurface, norm: Norm):
    """The constant n * P_phi / ((n+1) |E|) associated with a closed surface."""
    vol = enclosed_volume(s)
    if vol <= 0:
        raise InvalidMeshError("zero or negative volume")
    return s.n * aniso_area(s, norm) / ((s.n + 1) * vol)


# ---------------------------------------------------------------------------
# curvature


@dataclass
class CurvatureField:
    """Per-vertex anisotropic curvature data (kappa sorted ascending)."""

    kappa: np.ndarray          # (N, n) principal values
    mean: np.ndarray           # (N,) scalar mean curvature (trace)
    flagged: np.ndarray        # (N,) True where the local fit was rank deficient
    method: str = "quadratic"

    @property
    def n_flagged(self):
        return int(np.sum(self.flagged))

    def save_csv(self, path):
        n = self.kappa.shape[1]
        cols = ",".join(f"kappa_{i+1}" for i in range(n))
        with open(path, "w") as fh:
            fh.write(f"vertex,{cols},H\n")
            for i in range(len(self.mean)):
                ks = ",".join(repr(float(k)) for k in self.kappa[i])
                fh.write(f"{i},{ks},{self.mean[i]!r}\n")


def norm_conditioning(norm: Norm, samples=512):
    """Spread of the tangential Hessian eigenvalues of phi over the sphere.

    Large values mean the Wulff boundary mixes near-flat and near-singular
    regions, which defeats height-based curvature fits.
    """
    _, eig = tangential_hessian_eigs(norm, samples)
    lo = float(np.min(eig))
    hi = float(np.max(eig))
    return np.inf if lo <= 0 else hi / lo


# vertices per stacked fit: bounds the (block, ring, 5) temporaries; on a
# 10,242-vertex mesh one unblocked call peaked at 28.7 MB against 7.6 MB
_BLOCK = 256


def curvature(s: TriSurface, norm: Norm, method="auto", ring=2) -> CurvatureField:
    """Anisotropic principal and mean curvatures at every vertex.

    method="quadratic": least-squares quadratic height fit over the
    ``ring``-ring in the vertex tangent plane gives the Euclidean shape
    operator S, then the anisotropic operator is hess(phi)(nu) o S restricted
    to the tangent plane (diagonalizable with real eigenvalues).

    method="normal-fit": fits the derivative of the anisotropic normal
    grad(phi)(nu) directly against tangential position increments.  The
    height fit composes a huge shape operator with a tiny Hessian (or vice
    versa) wherever the norm is strongly anisotropic, which amplifies fit
    noise by the Hessian condition number; the normal fit estimates the
    composed operator in one step and stays stable.

    method="auto" (default) selects between the two from the measured
    tangential-Hessian conditioning of the norm (threshold 100).

    Each vertex's fit depends only on its own ring, so the results are
    per-vertex independent; they are computed in stacked blocks of vertices
    with equal ring length.  Vertices whose ring is too small or whose fit is
    rank deficient are flagged and take the mean of their unflagged
    neighbours.
    """
    if not norm.smooth:
        raise InvalidArgumentError("curvature needs a C^2 norm family")
    if ring < 1:
        raise InvalidArgumentError("ring must be at least 1")
    if method == "auto":
        method = "quadratic" if norm_conditioning(norm) <= 100.0 else "normal-fit"
    if s.dim == 2:
        return _curvature_2d(s, norm)
    indptr, indices = _ring_lists(s, ring)
    lengths = np.diff(indptr)
    min_nbrs = 6 if method == "quadratic" else 3
    nv = len(s.vertices)
    frames = tangent_basis(s.normals)            # (N, 3, 2)
    nphi_all = norm.grad(s.normals) if method == "normal-fit" else None
    kap = np.zeros((nv, 2))
    mean = np.zeros(nv)
    flagged = lengths < min_nbrs
    for length in np.unique(lengths[~flagged]):
        group = np.flatnonzero(lengths == length)
        for lo in range(0, len(group), _BLOCK):
            idx = group[lo:lo + _BLOCK]
            nb = indices[indptr[idx, None] + np.arange(length)]      # (B, L)
            dx = s.vertices[nb] - s.vertices[idx, None]              # (B, L, 3)
            xi = dx @ frames[idx]                                    # (B, L, 2)
            if method == "quadratic":
                ok, amat = _height_fit(dx, xi, s.normals[idx], frames[idx], norm)
            else:
                ok, amat = _normal_fit(xi, nphi_all[nb] - nphi_all[idx, None], frames[idx])
            flagged[idx[~ok]] = True
            idx = idx[ok]
            tr = amat[:, 0, 0] + amat[:, 1, 1]
            det = amat[:, 0, 0] * amat[:, 1, 1] - amat[:, 0, 1] * amat[:, 1, 0]
            root = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
            kap[idx] = np.stack([(tr - root) / 2.0, (tr + root) / 2.0], axis=-1)
            mean[idx] = tr
    _fill_flagged(kap, mean, flagged, s)
    return CurvatureField(kappa=kap, mean=mean, flagged=flagged, method=method)


def _ring_lists(s: TriSurface, ring):
    """CSR (indptr, indices) of each vertex's ``ring``-ring, itself excluded, sorted."""
    from scipy import sparse
    nv = len(s.vertices)
    f = s.faces
    rows = f[:, [0, 1, 2, 1, 2, 0]].ravel()
    cols = f[:, [1, 2, 0, 0, 1, 2]].ravel()
    # boolean entries: sums and products saturate where int8 would wrap
    adj = sparse.csr_array((np.ones(len(rows), dtype=bool), (rows, cols)), shape=(nv, nv))
    reach, step = adj, adj
    for _ in range(ring - 1):
        step = step @ adj
        reach = reach + step
    reach.setdiag(False)
    reach.eliminate_zeros()
    reach.sort_indices()
    return reach.indptr, reach.indices


def _height_fit(dx, xi, nu, frames, norm):
    """Quadratic height fits of one block: (fitted mask, anisotropic operators).

    A singular stacked solve is redone vertex by vertex; the vertices whose
    own solve is singular are left out of the operators and masked off.
    """
    x1, x2 = xi[..., 0], xi[..., 1]
    z = (dx @ nu[..., None])[..., 0]
    cols = np.stack([0.5 * x1**2, x1 * x2, 0.5 * x2**2, x1, x2], axis=-1)
    scale = np.linalg.norm(dx, axis=-1).mean(axis=-1)
    colst = cols.transpose(0, 2, 1)
    gram = colst @ cols + (1e-14 * scale**2)[:, None, None] * np.eye(5)
    rhs = (colst @ z[..., None])[..., 0]
    ok = np.ones(len(dx), dtype=bool)
    try:
        coef = np.linalg.solve(gram, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        coef = np.zeros_like(rhs)
        for k in range(len(dx)):
            try:
                coef[k] = np.linalg.solve(gram[k], rhs[k])
            except np.linalg.LinAlgError:
                ok[k] = False
        coef, nu, frames = coef[ok], nu[ok], frames[ok]
    a, b, c, d, e = coef.T
    w = np.sqrt(1.0 + d**2 + e**2)
    first = np.stack([1.0 + d**2, d * e, d * e, 1.0 + e**2], axis=-1).reshape(-1, 2, 2)
    second = np.stack([a, b, b, c], axis=-1).reshape(-1, 2, 2) / w[:, None, None]
    s_graph = -np.linalg.solve(first, second)
    # compose with hess(phi) at the fitted normal, in the graph basis
    t1, t2 = frames[..., 0], frames[..., 1]
    nhat = (nu - d[:, None] * t1 - e[:, None] * t2) / w[:, None]
    hphi = norm.hess(nhat)
    v = frames + nu[:, :, None] * coef[:, None, 3:]          # columns t1 + d nu, t2 + e nu
    coords = v.transpose(0, 2, 1) @ (hphi @ v)
    return ok, np.linalg.solve(first, coords) @ s_graph


def _normal_fit(xi, dm, frames):
    """Anisotropic-normal fits of one block: (fitted mask, anisotropic operators)."""
    um = dm @ frames
    xit = xi.transpose(0, 2, 1)
    gram = xit @ xi
    ok = np.linalg.cond(gram) <= 1e12
    amat = np.linalg.solve(gram[ok], (xit @ um)[ok])
    return ok, amat.transpose(0, 2, 1)


def _curvature_2d(s: TriSurface, norm: Norm):
    """Closed polyline: circumscribed-circle curvature composed with hess(phi)."""
    nv = len(s.vertices)
    nxt = np.full(nv, -1, dtype=np.int64)
    prv = np.full(nv, -1, dtype=np.int64)
    nxt[s.faces[:, 0]] = s.faces[:, 1]
    prv[s.faces[:, 1]] = s.faces[:, 0]
    p = s.vertices
    a = p[prv]; b = p; c = p[nxt]
    ab = b - a; bc = c - b; ac = c - a
    cross = ab[:, 0] * bc[:, 1] - ab[:, 1] * bc[:, 0]
    denom = (np.linalg.norm(ab, axis=-1) * np.linalg.norm(bc, axis=-1)
             * np.linalg.norm(ac, axis=-1))
    kappa_e = np.where(denom > 0, 2.0 * cross / np.where(denom == 0, 1, denom), 0.0)
    # CCW loop with outward normals: convex arcs give positive curvature
    t = ac / np.linalg.norm(ac, axis=-1, keepdims=True)
    h = norm.hess(s.normals)
    tdt = np.einsum("ni,nij,nj->n", t, h, t)
    kap = (kappa_e * tdt)[:, None]
    flagged = nxt < 0
    return CurvatureField(kappa=kap, mean=kap[:, 0].copy(), flagged=flagged,
                          method="circumcircle")


def _fill_flagged(kap, mean, flagged, s):
    if not np.any(flagged) or np.all(flagged):
        return
    indptr, indices = _ring_lists(s, 1)
    for i in np.flatnonzero(flagged):
        nbrs = indices[indptr[i]:indptr[i + 1]]
        good = nbrs[~flagged[nbrs]]
        if good.size:
            kap[i] = kap[good].mean(axis=0)
            mean[i] = mean[good].mean()
        else:
            mean[i] = mean[~flagged].mean()
            kap[i] = kap[~flagged].mean(axis=0)


def lp_deviation(f: CurvatureField, s: TriSurface, lam, p=None):
    """(sum_vertices area * |H - lam|^p)^(1/p) with barycentric vertex areas."""
    if p is None:
        p = s.n
    if p < 1:
        raise InvalidArgumentError("p must be >= 1")
    va = s.vertex_areas
    return float(np.sum(va * np.abs(f.mean - lam) ** p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# first variation


@dataclass
class VectorField:
    """Analytic vector field with an explicit Jacobian, both vectorized over points."""

    value: object
    jacobian: object = None

    def __call__(self, x):
        return self.value(x)


def identity_field():
    return VectorField(value=lambda x: np.asarray(x, float),
                       jacobian=lambda x: np.broadcast_to(np.eye(x.shape[-1]), x.shape + (x.shape[-1],)))


def first_variation(s: TriSurface, norm: Norm, g: VectorField):
    """Discrete first variation of the anisotropic area in direction g.

    Integrates Dg : B_phi(nu) over the surface, with
    B_phi(nu) = phi(nu) Id - nu (x) grad(phi)(nu); for g = identity this
    equals n * P_phi exactly.
    """
    if g.jacobian is None:
        raise InvalidArgumentError("vector field must supply a Jacobian")
    nu = s.face_normals
    areas = s.face_areas
    gphi = norm.grad(nu)
    phin = norm.eval(nu)
    jac = np.asarray(g.jacobian(s.face_centroids), dtype=float)
    d = s.dim
    bmat = phin[:, None, None] * np.eye(d) - nu[:, :, None] * gphi[:, None, :]
    return float(np.sum(areas * np.einsum("fij,fij->f", jac, bmat)))
