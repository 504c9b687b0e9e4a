"""Anisotropic distance transforms and the erosion volume law.

Voxelizes a Wulff ball, computes the dual-metric distance to its complement
by stencil shortest paths, and measures the eroded volumes against the
closed-form law |E_r| = |W| (rbar - r)^(n+1) / rbar^(n+1).

    python demos/distance_and_erosion.py
"""

import os

import numpy as np

from aniso import (
    ShapeSpec,
    WulffShape,
    check_erosion_laws,
    distance_transform,
    erode,
    parse_norm,
    rasterize,
)

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

norm = parse_norm("ellipse:1,4", 2)
rbar = 1.5

print("Distance field of an elliptical Wulff ball (2D), dual-metric shortest")
print("paths on a 3-ring stencil with sub-voxel boundary seeding.\n")

vox = rasterize(WulffShape(norm, rbar), rbar / 100)
df = distance_transform(vox, norm.dual(), k=3)
print(f"grid {vox.dims}, spacing {vox.spacing:.4f}")
print(f"max distance {df.values.max():.4f} (the dual inradius is rbar = {rbar})")
print(f"stencil chamfer factor: {df.chamfer_factor:.4f} "
      "(a-priori worst-case overestimation ratio)\n")

print("erosion depths against the closed-form law:")
for frac in (0.2, 0.4, 0.6):
    r = frac * rbar
    vol = erode(df, r).volume()
    pred = vox.volume() * (1 - frac) ** 2
    print(f"  r = {frac:.1f} rbar: measured {vol:.5f}  predicted {pred:.5f}  "
          f"({(vol - pred) / pred:+.2%})")

print("\nThe full driver also fits the power law in (rbar - r):")
rep, fit = check_erosion_laws(ShapeSpec("wulff", norm, r=rbar))
print(f"  exponent {fit.exponent:.4f} (n+1 = 2), amplitude {fit.amplitude:.4f}, "
      f"all checks passed: {rep.passed}")

from aniso.verify import plot_erosion_fit

radii = np.asarray(rep.inputs["radii"])
plot_erosion_fit(os.path.join(OUT, "erosion_law.svg"), rep.extras["rbar"] - radii,
                 rep.extras["measured_volumes"], fit)
print(f"  log-log plot written to {os.path.join(OUT, 'erosion_law.svg')}")
