"""Bubbling along a norm sequence, desk-size preview (2D).

Two tangent Wulff shapes joined by a shrinking neck, with the norm tending
to the max norm: erosion components count the bubbles, the voxel symmetric
difference to the fitted union of limit Wulff shapes shrinks, and the
anisotropic perimeter tends to twice the limit Wulff perimeter.

The 3D version at acceptance scale runs through `aniso run` with
experiment=bubbling (about eight minutes); this preview uses 2D.

    python demos/bubbling_preview.py
"""

import os

from aniso import ShapeSpec, parse_norm, run_bubbling
from aniso.verify import plot_sequence

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

base = ShapeSpec("two-bubble", parse_norm("smoothmax:0.5", 2), r=1.5,
                 neck_width=0.49 * 1.5)
rep = run_bubbling(h_list=(1, 2, 3, 4), base_spec=base, dim=2)

rows = rep.extras["sequence_rows"]
print("h   count  stable   symdiff   perimeter   gap to 2 P(W)")
for row in rows:
    print(f"{row['h']:<4}{row['count']:<7}{str(row['stable']):<9}"
          f"{row['symdiff']:<10.4f}{row['per']:<12.4f}{row['per_gap']:.4f}")

print(f"\nlimit perimeter per bubble: {rep.extras['limit_perimeter_per_bubble']:.4f}")
print(f"all checks passed: {rep.passed}   flags: {rep.flags or 'none'}")

plot_sequence(os.path.join(OUT, "bubbling_symdiff.svg"), rows)
print(f"convergence plot written to {os.path.join(OUT, 'bubbling_symdiff.svg')}")
