import json

import numpy as np
import pytest

from aniso import (
    EllipseNorm,
    EuclideanNorm,
    InsufficientDataError,
    PowerLawFit,
    ShapeSpec,
    check_disintegration,
    check_erosion_laws,
    check_minkowski_law,
    check_wulff_identity,
    fit_power_law,
    parse_norm,
    run_bubbling,
)


class TestPowerLawFit:
    def test_exact_cubic(self):
        gaps = np.array([0.1, 0.2, 0.4, 0.8])
        fit = fit_power_law(gaps, gaps**3)
        assert fit.exponent == pytest.approx(3.0, abs=1e-10)
        assert fit.amplitude == pytest.approx(1.0, abs=1e-10)

    def test_multiplicative_noise(self, rng):
        # synthetic regression oracle: 2% noise keeps the slope within 0.15
        gaps = np.linspace(0.2, 1.0, 8)
        vals = gaps**3 * np.exp(rng.normal(scale=0.02, size=8))
        fit = fit_power_law(gaps, vals)
        assert fit.exponent == pytest.approx(3.0, abs=0.15)

    def test_nonpositive_dropped_and_counted(self):
        fit = fit_power_law([0.1, 0.2, 0.4, 0.8, 1.0], [1e-3, 8e-3, 6.4e-2, 0.512, -1.0])
        assert fit.dropped == 1
        assert fit.exponent == pytest.approx(3.0, abs=1e-9)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_power_law([0.1, 0.2, 0.4], [1, 2, 3])


class TestWulffIdentity:
    @pytest.mark.parametrize("spec,dim", [
        ("euclidean", 2), ("ellipse:1,4", 2), ("smoothmax:0.1", 2),
        ("euclidean", 3), ("ellipse:1,4,2", 3), ("smoothmax:0.1", 3),
    ])
    def test_smooth_families(self, spec, dim):
        rep = check_wulff_identity(parse_norm(spec, dim), r=1.0)
        assert rep.passed
        assert rep.wall_time < 10.0

    @pytest.mark.parametrize("spec,dim", [("l1", 2), ("linf", 2), ("l1", 3), ("linf", 3)])
    def test_crystalline_exact(self, spec, dim):
        rep = check_wulff_identity(parse_norm(spec, dim), r=1.0)
        assert rep.rows[0]["rel_err"] <= 1e-12

    def test_report_serialization(self, tmp_path):
        rep = check_wulff_identity(EuclideanNorm(2), r=1.0)
        p = tmp_path / "rep.json"
        rep.save_json(p)
        data = json.loads(p.read_text())
        assert data["passed"] is True
        assert all("law" in row for row in data["rows"])
        rep.save_csv(tmp_path / "rep.csv")
        assert (tmp_path / "rep.csv").read_text().startswith("name,law")


class TestErosion:
    def test_exact_wulff_2d(self):
        rep = check_erosion_laws(ShapeSpec("wulff", EuclideanNorm(2), r=1.5))
        fit = PowerLawFit(**rep.extras["power_law"])
        assert rep.passed
        assert fit.exponent == pytest.approx(2.0, abs=0.1)

    def test_predictions_only_from_closed_forms(self):
        rep = check_erosion_laws(ShapeSpec("wulff", EuclideanNorm(2), r=1.5))
        vol, rbar = rep.extras["volume"], rep.extras["rbar"]
        n = 1
        vol_rows = [row for row in rep.rows if row["name"].startswith("erosion-volume-r=")]
        for r, row in zip(rep.inputs["radii"], vol_rows):
            assert row["predicted"] == pytest.approx(
                vol * ((rbar - r) / rbar) ** (n + 1), rel=1e-12)

    def test_out_of_regime_flagged_not_enforced(self):
        # wide-neck two-bubble sits far from constant curvature: the
        # almost-CMC hypothesis dev <= 1 fails, rows recorded unenforced
        norm = EuclideanNorm(2)
        spec = ShapeSpec("two-bubble", norm, r=1.5, neck_width=0.7)
        rep = check_erosion_laws(spec, resolution=1024)
        assert "deviation-above-almost-cmc-domain" in rep.flags
        assert rep.extras["dev_ln"] > 1.0
        assert all(not row["enforced"] for row in rep.rows
                   if row["name"].startswith("erosion-"))

    def test_lambda_consistency_row_present(self):
        rep = check_erosion_laws(ShapeSpec("wulff", EuclideanNorm(2), r=1.5))
        rows = [r for r in rep.rows if r["name"] == "lambda-consistency"]
        assert len(rows) == 1 and rows[0]["passed"]


class TestMinkowski:
    def test_exact_wulff_2d(self):
        rep = check_minkowski_law(ShapeSpec("wulff", EuclideanNorm(2), r=1.5))
        assert rep.passed

    def test_tolerance_widens_near_rbar(self):
        rep = check_minkowski_law(ShapeSpec("wulff", EuclideanNorm(2), r=1.5),
                                  pairs=[(0.2, 0.5), (0.2, 0.9)])
        tols = {row["name"]: row["tol"] for row in rep.rows}
        near = [v for k, v in tols.items() if "r=0.9r" in k][0]
        far = [v for k, v in tols.items() if "r=0.5r" in k][0]
        assert near == pytest.approx(far * (0.5 / 0.1) ** 2, rel=1e-12)
        assert rep.passed


class TestDisintegration:
    def test_euclid_ball_2d(self):
        rep = check_disintegration(ShapeSpec("wulff", EuclideanNorm(2), r=1.5))
        assert rep.passed
        assert rep.rows[0]["rel_err"] < 0.03

    def test_ellipse_2d(self):
        norm = EllipseNorm(np.diag([1.0, 4.0]))
        rep = check_disintegration(ShapeSpec("wulff", norm, r=1.5))
        assert rep.passed

    def test_perturbed_within_five_percent(self):
        norm = EllipseNorm(np.diag([1.0, 4.0]))
        rep = check_disintegration(
            ShapeSpec("perturbed-wulff", norm, r=1.5, eps=0.05, pattern=0))
        assert rep.rows[0]["tol"] == 0.05
        assert rep.passed


class TestBubblingSmall:
    def test_single_perturbed_wulff_family(self):
        # N - 1 = 1 case: one bubble per step, perimeter tends to P(W).
        # Steps with eps > 0.15 would erode to nothing at the probe depth,
        # so the meaningful family starts at h = 3.
        base = ShapeSpec("perturbed-wulff", parse_norm("smoothmax:0.5", 2),
                         r=1.5, eps=0.25, pattern=0)
        rep = run_bubbling(h_list=(3, 4, 5, 6), base_spec=base, dim=2)
        rows = rep.extras["sequence_rows"]
        assert all(row["count"] == 1 for row in rows)
        gaps = [row["per_gap"] for row in rows]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_two_bubble_2d(self):
        base = ShapeSpec("two-bubble", parse_norm("smoothmax:0.5", 2),
                         r=1.5, neck_width=0.49 * 1.5)
        rep = run_bubbling(h_list=(1, 2, 3), base_spec=base, dim=2)
        rows = rep.extras["sequence_rows"]
        assert [row["count"] for row in rows] == [2, 2, 2]
        sym = [row["symdiff"] for row in rows]
        assert sym[0] > sym[1] > sym[2]
