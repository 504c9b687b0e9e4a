"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance here is fixed up front:
  1. volume identity within 1% (2D) / 1.5% (3D), crystalline path exact to 1e-12,
     under 10 s per case;
  2. constant anisotropic mean curvature on Wulff boundaries: per-vertex mean
     within 1% of n/r and standard deviation at most 2% of the mean, at ten
     thousand vertices or more in 3D, for all three smooth norms;
  3. exact erosion law within 2.5% (3D) / 1.5% (2D) at r in {0.2, 0.4, 0.6} r,
     fitted exponent n+1 within 0.1, under 2 min per 3D run;
  4. Minkowski dilation law within 3% at (s, r) in {(0.2, 0.5), (0.1, 0.3)} r;
  5. curvature deviation strictly decreasing along eps in {0.1, 0.05, 0.025}
     and erosion error non-increasing up to the measured grid floor;
  6. ray-disintegration volume within 3% on exact Wulff shapes, 5% at eps=0.05;
  7. bubbling pipeline: stable bubble count 2 for h >= 3, symmetric difference
     and perimeter gap strictly decreasing along h = 1..5, under 10 min;
  8. duality suite: no Fenchel violations beyond 1e-10 at ten thousand pairs
     per norm, dual involution within 1e-8 on smooth families, and the
     identity-field first variation equal to n * perimeter within 1%.
"""

import time

import numpy as np

from aniso import (
    DualNorm,
    EuclideanNorm,
    ShapeSpec,
    WulffShape,
    aniso_area,
    check_disintegration,
    check_erosion_laws,
    check_minkowski_law,
    check_wulff_identity,
    curvature,
    first_variation,
    gen,
    identity_field,
    parse_norm,
    run_bubbling,
)
from conftest import record_acceptance

SMOOTH_NORMS = {2: ["euclidean", "ellipse:1,4", "smoothmax:0.1"],
                3: ["euclidean", "ellipse:1,4,2", "smoothmax:0.1"]}
CRYSTALLINE = ["l1", "linf"]
RBAR = 1.5


class TestCriterion1WulffIdentity:
    def test_identity_all_norms_both_dimensions(self):
        details = []
        ok = True
        for dim in (2, 3):
            tol = 0.01 if dim == 2 else 0.015
            for spec in SMOOTH_NORMS[dim]:
                rep = check_wulff_identity(parse_norm(spec, dim), r=1.0)
                err = rep.rows[0]["rel_err"]
                ok &= err <= tol and rep.wall_time <= 10.0
                details.append(f"{dim}D {spec} {err:.2e}")
            for spec in CRYSTALLINE:
                rep = check_wulff_identity(parse_norm(spec, dim), r=1.0)
                ok &= rep.rows[0]["rel_err"] <= 1e-12 and rep.wall_time <= 10.0
                details.append(f"{dim}D {spec} exact")
        record_acceptance("1 wulff identity", ok, "; ".join(details))
        assert ok

class TestCriterion2ConstantCurvature:
    def test_wulff_boundary_mean_curvature(self):
        ok = True
        details = []
        for spec in SMOOTH_NORMS[3]:
            norm = parse_norm(spec, 3)
            mesh = WulffShape(norm, RBAR).boundary_mesh(resolution=5)
            assert len(mesh.vertices) >= 10_000
            field = curvature(mesh, norm)
            target = 2.0 / RBAR
            mean = field.mean.mean()
            sd = field.mean.std()
            ok &= abs(mean - target) / target <= 0.01
            ok &= sd <= 0.02 * abs(mean)
            details.append(f"{spec}: mean {mean:.4f} (target {target:.4f}) sd/mean {sd/abs(mean):.2%}")
        record_acceptance("2 constant Wulff curvature", ok, "; ".join(details))
        assert ok

class TestCriterion3ExactErosionLaw:
    def test_erosion_both_dimensions_all_norms(self):
        ok = True
        details = []
        for dim in (2, 3):
            tol = 0.015 if dim == 2 else 0.025
            for spec in SMOOTH_NORMS[dim]:
                norm = parse_norm(spec, dim)
                t0 = time.perf_counter()
                rep, fit = check_erosion_laws(ShapeSpec("wulff", norm, r=RBAR))
                elapsed = time.perf_counter() - t0
                errs = [row["rel_err"] for row in rep.rows
                        if row["name"].startswith("erosion-volume")]
                ok &= max(errs) <= tol
                ok &= abs(fit.exponent - dim) <= 0.1
                if dim == 3:
                    ok &= elapsed <= 120.0
                details.append(f"{dim}D {spec}: max {max(errs):.2%} exp {fit.exponent:.3f} [{elapsed:.0f}s]")
        record_acceptance("3 exact erosion law", ok, "; ".join(details))
        assert ok

class TestCriterion4MinkowskiLaw:
    def test_dilated_erosions_match_prediction(self):
        norm = EuclideanNorm(3)
        rep = check_minkowski_law(ShapeSpec("wulff", norm, r=RBAR),
                                  pairs=[(0.2, 0.5), (0.1, 0.3)])
        errs = {row["name"]: row["rel_err"] for row in rep.rows}
        ok = all(err <= 0.03 for err in errs.values())
        record_acceptance("4 minkowski law", ok,
                          "; ".join(f"{k.split('minkowski-')[1]} {v:.2%}" for k, v in errs.items()))
        assert ok

class TestCriterion5DeviationMonotonicity:
    def test_perturbed_family_ordering(self):
        norm = parse_norm("ellipse:1,4", 2)
        devs, errs = [], []
        floor_rep, _ = check_erosion_laws(ShapeSpec("wulff", norm, r=RBAR))
        floor = max(row["rel_err"] for row in floor_rep.rows
                    if row["name"].startswith("erosion-volume"))
        for eps in (0.1, 0.05, 0.025):
            spec = ShapeSpec("perturbed-wulff", norm, r=RBAR, eps=eps, pattern=0)
            rep, _ = check_erosion_laws(spec)
            devs.append(rep.extras["dev_ln"])
            errs.append(max(row["rel_err"] for row in rep.rows
                            if row["name"].startswith("erosion-volume")))
        ok = devs[0] > devs[1] > devs[2]
        ok &= errs[1] <= errs[0] + floor and errs[2] <= errs[1] + floor
        record_acceptance(
            "5 deviation monotonicity", ok,
            f"dev {['%.4f' % d for d in devs]} err {['%.2%%' % 0 if False else '%.2f%%' % (100*e) for e in errs]} floor {floor:.2%}")
        assert ok

class TestCriterion6Disintegration:
    def test_quadrature_volume_agreement(self):
        ok = True
        details = []
        for spec in SMOOTH_NORMS[3]:
            norm = parse_norm(spec, 3)
            rep = check_disintegration(ShapeSpec("wulff", norm, r=RBAR))
            err = rep.rows[0]["rel_err"]
            ok &= err <= 0.03 and not rep.flags
            details.append(f"{spec} {err:.2%}")
        pert = ShapeSpec("perturbed-wulff", parse_norm("ellipse:1,4,2", 3),
                         r=RBAR, eps=0.05, pattern=0)
        rep = check_disintegration(pert)
        err = rep.rows[0]["rel_err"]
        ok &= err <= 0.05
        details.append(f"eps=0.05 {err:.2%}")
        record_acceptance("6 disintegration", ok, "; ".join(details))
        assert ok

class TestCriterion7Bubbling:
    def test_shrinking_neck_family(self):
        t0 = time.perf_counter()
        rep = run_bubbling(h_list=(1, 2, 3, 4, 5))
        elapsed = time.perf_counter() - t0
        rows = rep.extras["sequence_rows"]
        late = [row for row in rows if row["h"] >= 3]
        counts_ok = all(row["count"] == 2 and row["stable"] for row in late)
        sym = [row["symdiff"] for row in rows]
        gaps = [row["per_gap"] for row in rows]
        sym_ok = all(b < a for a, b in zip(sym, sym[1:]))
        gap_ok = all(b < a for a, b in zip(gaps, gaps[1:]))
        ok = counts_ok and sym_ok and gap_ok and elapsed <= 600.0 and not rep.flags
        record_acceptance(
            "7 bubbling pipeline", ok,
            f"counts {[row['count'] for row in rows]} symdiff {['%.3f' % s for s in sym]} "
            f"gaps {['%.3f' % g for g in gaps]} [{elapsed:.0f}s]")
        assert ok

class TestCriterion8DualitySuite:
    def test_fenchel_involution_first_variation(self, rng):
        ok = True
        details = []
        # Fenchel at ten thousand pairs for every built-in norm
        worst = 0.0
        for dim in (2, 3):
            for spec in SMOOTH_NORMS[dim] + CRYSTALLINE + ["lp:3"]:
                norm = parse_norm(spec, dim)
                dual = norm.dual()
                u = rng.normal(size=(10_000, dim))
                v = rng.normal(size=(10_000, dim))
                slack = np.sum(u * v, axis=-1) - dual.eval(u) * norm.eval(v)
                worst = max(worst, float(np.max(slack)))
        ok &= worst <= 1e-10
        details.append(f"fenchel worst slack {worst:.1e}")
        # dual involution through the numeric engine on smooth families
        worst_inv = 0.0
        for spec in ["euclidean", "ellipse:1,4,2", "lp:3", "smoothmax:0.1"]:
            norm = parse_norm(spec, 3)
            bidual = DualNorm(norm.dual())
            v = rng.normal(size=(300, 3))
            err = np.max(np.abs(bidual.eval(v) - norm.eval(v)) / norm.eval(v))
            worst_inv = max(worst_inv, float(err))
        ok &= worst_inv <= 1e-8
        details.append(f"involution worst {worst_inv:.1e}")
        # identity-field first variation on every generated closed mesh
        zoo = [
            (gen(ShapeSpec("wulff", parse_norm("ellipse:1,4,2", 3), r=RBAR), 4),
             parse_norm("ellipse:1,4,2", 3)),
            (gen(ShapeSpec("wulff", parse_norm("smoothmax:0.1", 3), r=1.0), 4),
             parse_norm("smoothmax:0.1", 3)),
            (gen(ShapeSpec("perturbed-wulff", parse_norm("ellipse:1,4,2", 3),
                           r=RBAR, eps=0.1, pattern=1), 4),
             parse_norm("ellipse:1,4,2", 3)),
            (gen(ShapeSpec("two-bubble", EuclideanNorm(3), r=1.0, neck_width=0.3), 4),
             EuclideanNorm(3)),
            (gen(ShapeSpec("tangent-union", parse_norm("ellipse:1,4", 2), r=1.0), 512),
             parse_norm("ellipse:1,4", 2)),
            (gen(ShapeSpec("wulff", EuclideanNorm(2), r=2.0), 1024), EuclideanNorm(2)),
        ]
        worst_fv = 0.0
        for g, norm in zoo:
            mesh = g.mesh if hasattr(g, "mesh") else g
            fv = first_variation(mesh, norm, identity_field())
            target = mesh.n * aniso_area(mesh, norm)
            worst_fv = max(worst_fv, abs(fv - target) / target)
        ok &= worst_fv <= 0.01
        details.append(f"first variation worst {worst_fv:.1e}")
        record_acceptance("8 duality suite", ok, "; ".join(details))
        assert ok
