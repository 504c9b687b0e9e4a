"""Wulff shapes and the volume identity.

Builds the unit dual-norm ball for each norm family, checks the identity
(n+1)|W| = P(W) that characterizes them, and exports an SVG gallery of the
2D boundaries.  Run from the repository root:

    python demos/wulff_shapes.py
"""

import os

import numpy as np

from aniso import (
    WulffShape,
    aniso_area,
    check_wulff_identity,
    enclosed_volume,
    parse_norm,
    polygon_svg,
)

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

print("The Wulff shape of a norm phi is the unit ball of the dual norm.")
print("It satisfies (n+1)|W_r| = r * P_phi(W_r) exactly; the table shows the")
print("discrete residual of that identity per family.\n")

print(f"{'norm':<16}{'dim':>4}{'volume':>12}{'perimeter':>12}{'identity err':>14}")
for dim in (2, 3):
    for spec in ("euclidean", "ellipse:1,4" if dim == 2 else "ellipse:1,4,2",
                 "smoothmax:0.1", "l1", "linf"):
        rep = check_wulff_identity(parse_norm(spec, dim), r=1.0)
        row = rep.rows[0]
        print(f"{spec:<16}{dim:>4}{rep.extras['volume']:>12.6f}"
              f"{rep.extras['perimeter']:>12.6f}{row['rel_err']:>14.2e}")

print("\nNote the crystalline families: the l1 norm yields the cube, the linf")
print("norm the cross-polytope. Both are closed polytope meshes, measured like")
print("every other boundary, and their identity holds to rounding.")

shapes = []
labels = []
for spec in ("euclidean", "ellipse:1,4", "smoothmax:0.1", "smoothmax:0.3"):
    w = WulffShape(parse_norm(spec, 2), 1.0)
    shapes.append(w.boundary_mesh(resolution=512))
    labels.append(spec)
path = os.path.join(OUT, "wulff_gallery.svg")
polygon_svg(shapes, path, labels=labels)
print(f"\n2D boundary gallery written to {path}")

sphere = WulffShape(parse_norm("euclidean", 3), 1.0).boundary_mesh(resolution=4)
print(f"\nicosphere sanity: |area - 4 pi| = "
      f"{abs(aniso_area(sphere, parse_norm('euclidean', 3)) - 4 * np.pi):.2e}, "
      f"|volume - 4 pi / 3| = {abs(enclosed_volume(sphere) - 4 * np.pi / 3):.2e}")
