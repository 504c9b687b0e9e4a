import json
import struct
import subprocess
import sys

import pytest

from aniso import (
    ConfigError,
    ConvergenceError,
    EuclideanNorm,
    InvalidArgumentError,
    WulffShape,
    rasterize,
)
from aniso.cli import EXIT_AMBIGUOUS, EXIT_CONFIG, EXIT_FAIL, EXIT_PASS, main, parse_config


class TestParseConfig:
    def test_valid_example(self):
        cfg = parse_config("experiment=erosion\nnorm=euclidean\nshape=wulff r=1.5\nspacing=0.02")
        assert cfg.experiment == "erosion"
        assert cfg.norm == "euclidean"
        assert cfg.spacing == 0.02
        assert cfg.shape_spec().r == 1.5

    def test_missing_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config("norm=smoothmax:0.1")

    def test_unknown_key_named(self):
        for text, key in (("experimnt=erosion", "experimnt"),
                          ("experiment=erosion\nmargin=2", "margin")):
            with pytest.raises(ConfigError, match=key):
                parse_config(text)

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nexperiment=wulff-identity  # trailing\n")
        assert cfg.experiment == "wulff-identity"

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("experiment=erosion\nexperiment=erosion")

    def test_invalid_norm_spec(self):
        with pytest.raises(ConfigError):
            parse_config("experiment=erosion\nnorm=banana")

    def test_bad_experiment_name(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config("experiment=explosion")


class TestRun:
    def test_wulff_identity_writes_artifacts(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            f"experiment=wulff-identity\nnorm=euclidean\ndim=2\noutdir={tmp_path}/out\n")
        status = main(["run", str(cfg_path)])
        assert status == EXIT_PASS
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["reports"][0]["passed"] is True
        assert (tmp_path / "out" / "tables" / "wulff-identity.csv").exists()
        assert (tmp_path / "out" / "runtime.json").exists()

    def test_byte_identical_reports(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            f"experiment=wulff-identity\nnorm=ellipse:1,4\ndim=2\nseed=7\noutdir={tmp_path}/out\n")
        main(["run", str(cfg_path)])
        first = (tmp_path / "out" / "report.json").read_bytes()
        main(["run", str(cfg_path)])
        second = (tmp_path / "out" / "report.json").read_bytes()
        assert first == second

    def test_erosion_writes_power_law_plot(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "experiment=erosion\nnorm=euclidean\ndim=2\nshape=wulff r=1.5\n"
            f"outdir={tmp_path}/out\n")
        status = main(["run", str(cfg_path)])
        assert status == EXIT_PASS
        svg = (tmp_path / "out" / "plots" / "erosion.svg").read_text()
        assert "polyline" in svg
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["reports"][0]["extras"]["power_law"]["exponent"] == pytest.approx(
            2.0, abs=0.1)

    def test_failing_tolerance_gives_exit_one(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "experiment=wulff-identity\nnorm=euclidean\ndim=2\ntol=1e-12\n"
            f"outdir={tmp_path}/out\n")
        assert main(["run", str(cfg_path)]) == EXIT_FAIL

    def test_ambiguous_count_gives_exit_two(self, tmp_path):
        # a perturbation too deep for the probe band makes the erosion
        # component count flip across the band: flagged, exit code 2
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "experiment=bubbling\ndim=2\nnorm=smoothmax:0.5\n"
            "shape=perturbed-wulff r=1.5 eps=0.1\nhsteps=2\n"
            f"outdir={tmp_path}/out\n")
        assert main(["run", str(cfg_path)]) == EXIT_AMBIGUOUS

    def test_config_error_exit(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("experimnt=erosion\n")
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("line", [
        "spacing=nan", "spacing=-1", "spacing=inf", "radii=0.3,nan", "radii=0,0.6",
        "pairs=0.2:-0.5", "pairs=0.3", "tol=0", "tol=nan", "resolution=0", "resolution=-3",
        "stencil_order=0", "stencil_order=7", "radii=0.1,0.2", "radii=0.1,0.2,0.3,0.4,5.0",
        "sequence=foo", "hsteps=0,1", "seed=x", "spacing=abc", "hsteps=a", "resolution=2.5",
        "tol=", "shape=wulff r=nan", "shape=wulff r=inf", "shape=wulff r=abc"])
    def test_bad_value_exits_config(self, tmp_path, line, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(f"experiment=erosion\ndim=2\n{line}\noutdir={tmp_path}/out\n")
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG
        assert line.split("=")[0] in capsys.readouterr().err

    def test_bad_value_names_line_and_key(self):
        with pytest.raises(ConfigError) as info:
            parse_config("experiment=erosion\n# two\nspacing=abc\n")
        assert str(info.value) == "line 3: spacing: could not convert string to float: 'abc'"

    def test_tol_rejudges_measured_rows_only(self, tmp_path, monkeypatch):
        # a failed condition row stays failed under any tol; a measured row is re-judged
        from aniso.verify import VerificationReport

        def driver(*args, **kwargs):
            rep = VerificationReport("minkowski", {})
            rep.add("measured", "law", 1.0, 1.5, 0.1)
            rep.add_condition("condition", "law", False, "detail")
            return rep

        monkeypatch.setattr("aniso.cli.check_minkowski_law", driver)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"experiment=minkowski\ndim=2\ntol=1\noutdir={tmp_path}/out\n")
        assert main(["run", str(cfg_path)]) == EXIT_FAIL
        measured, condition = json.loads(
            (tmp_path / "out" / "report.json").read_text())["reports"][0]["rows"]
        assert measured["tol"] == 1.0 and measured["passed"] is True
        assert condition["tol"] == 0.0 and condition["passed"] is False

    def test_radius_past_rbar_recorded(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("experiment=erosion\ndim=2\nradii=0.1,0.2,0.3,0.4,5.0\n"
                            f"outdir={tmp_path}/out\n")
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "rbar" in report["reports"][0]["error"]

    def test_pairs_out_of_order_recorded(self, tmp_path, capsys):
        # s > r is only checked by the driver; from the config it is a config error
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(f"experiment=minkowski\ndim=2\npairs=0.5:0.2\noutdir={tmp_path}/out\n")
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG
        assert "pairs" in capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "0 < s < r < rbar" in report["reports"][0]["error"]

    def test_missing_file_exit(self):
        assert main(["run", "/nonexistent/path.cfg"]) == EXIT_CONFIG

    def test_driver_error_with_config_radii_exits_fail(self, tmp_path, monkeypatch):
        # only the rbar checks are the config's fault, not every driver error
        def broken_driver(*args, **kwargs):
            raise InvalidArgumentError("spacing leaves no interior voxel")

        monkeypatch.setattr("aniso.cli.check_erosion_laws", broken_driver)
        cfg_path = tmp_path / "ok.cfg"
        cfg_path.write_text("experiment=erosion\ndim=2\nradii=0.1,0.2,0.3,0.4\n"
                            f"outdir={tmp_path}/out\n")
        assert main(["run", str(cfg_path)]) == EXIT_FAIL

    def test_unexpected_driver_exception_recorded(self, tmp_path, monkeypatch, capsys):
        # a non-package exception is recorded for its experiment, the other
        # experiments still run, and the run fails
        import numpy as np
        from aniso.verify import VerificationReport

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        def passing(experiment_id):
            def driver(*args, **kwargs):
                rep = VerificationReport(experiment_id, {})
                rep.add_condition("stub", "stub", True)
                return rep
            return driver

        monkeypatch.setattr("aniso.cli.check_wulff_identity", passing("wulff-identity"))
        monkeypatch.setattr("aniso.cli.check_erosion_laws", singular)
        monkeypatch.setattr("aniso.cli.check_minkowski_law", passing("minkowski"))
        monkeypatch.setattr("aniso.cli.check_disintegration", passing("disintegration"))
        monkeypatch.setattr("aniso.cli.run_bubbling", passing("bubbling"))
        cfg_path = tmp_path / "all.cfg"
        cfg_path.write_text(f"experiment=all\ndim=2\noutdir={tmp_path}/out\n")
        assert main(["run", str(cfg_path)]) == EXIT_FAIL
        reports = json.loads((tmp_path / "out" / "report.json").read_text())["reports"]
        assert [r["experiment_id"] for r in reports] == [
            "wulff-identity", "erosion", "minkowski", "disintegration", "bubbling"]
        assert reports[1] == {"experiment_id": "erosion", "passed": False,
                              "error": "LinAlgError: Singular matrix"}
        assert all(r["passed"] for i, r in enumerate(reports) if i != 1)
        assert "Traceback" in capsys.readouterr().err


class TestWulffCommand:
    def test_mesh_export(self, tmp_path):
        out = tmp_path / "mesh.txt"
        status = main(["wulff", "--norm", "ellipse:1,4", "--r", "1.0",
                       "--dim", "2", "--resolution", "128", "--out", str(out),
                       "--svg", str(tmp_path / "w.svg")])
        assert status == EXIT_PASS
        from aniso import TriSurface
        mesh = TriSurface.load_text(out)
        assert len(mesh.vertices) == 128
        assert (tmp_path / "w.svg").read_text().startswith("<svg")

    @pytest.mark.parametrize("extra", [["--out", "/nonexistent/dir/w.txt"],
                                       ["--r", "-1"], ["--norm", "bogus"],
                                       ["--dim", "3", "--svg", "w.svg"]],
                             ids=["out", "radius", "norm", "svg-3d"])
    def test_bad_input_exits_config(self, tmp_path, extra, capsys):
        args = ["wulff", "--norm", "euclidean", "--dim", "2", "--out", str(tmp_path / "w.txt")]
        assert main(args + extra) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("r", ["nan", "inf"])
    def test_non_finite_radius_named(self, tmp_path, r, capsys):
        out = tmp_path / "w.txt"
        assert main(["wulff", "--norm", "euclidean", "--dim", "2", "--r", r,
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: radius must be finite and positive, got {r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("dim,spec,message", [
        (2, "lp:abc", "lp exponent must be a number, got 'abc'"),
        (3, "lp:3:1,1,nan", "lp weights must be finite and positive, got nan"),
        (2, "lp:inf", "lp family requires a finite p > 1, got inf"),
        (2, "ellipse:1,inf", "ellipse entries must be finite, got inf")])
    def test_bad_norm_entry_named(self, tmp_path, dim, spec, message, capsys):
        out = tmp_path / "w.txt"
        assert main(["wulff", "--norm", spec, "--dim", str(dim), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("dim,resolution", [(2, 0), (2, 2), (2, -5), (3, -1)])
    def test_bad_resolution_exits_config(self, tmp_path, dim, resolution, capsys):
        out = tmp_path / "w.txt"
        args = ["wulff", "--norm", "euclidean", "--dim", str(dim),
                "--resolution", str(resolution), "--out", str(out)]
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: --resolution") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("dim,resolution,vertices", [(2, 3, 3), (3, 0, 12)])
    def test_smallest_resolution_accepted(self, tmp_path, dim, resolution, vertices):
        out = tmp_path / "w.txt"
        assert main(["wulff", "--norm", "euclidean", "--dim", str(dim),
                     "--resolution", str(resolution), "--out", str(out)]) == EXIT_PASS
        from aniso import TriSurface
        assert len(TriSurface.load_text(out).vertices) == vertices

    def test_crystalline_polytope_path(self, tmp_path):
        out = tmp_path / "cube.txt"
        status = main(["wulff", "--norm", "l1", "--dim", "3", "--out", str(out)])
        assert status == EXIT_PASS
        from aniso import TriSurface, enclosed_volume
        assert enclosed_volume(TriSurface.load_text(out)) == pytest.approx(8.0)


class TestDtCommand:
    def test_round_trip(self, tmp_path):
        vox = rasterize(WulffShape(EuclideanNorm(2), 1.0), 0.05)
        vox_path = tmp_path / "ball.vox"
        vox.save(vox_path)
        out = tmp_path / "dist.bin"
        status = main(["dt", "--in", str(vox_path), "--norm", "euclidean",
                       "--stencil-order", "2", "--out", str(out)])
        assert status == EXIT_PASS
        from aniso.grid import DistanceField
        df = DistanceField.load(out)
        assert df.values.max() == pytest.approx(1.0, rel=0.05)
        assert df.stencil_order == 2

    @pytest.mark.parametrize("case", ["missing", "spacing", "norm", "magic", "margin",
                                      "truncated", "overflow", "out"])
    def test_bad_input_exits_config(self, tmp_path, case, capsys):
        vox_path = tmp_path / "ball.vox"
        rasterize(WulffShape(EuclideanNorm(2), 1.0), 0.1, margin=1).save(vox_path)
        if case == "magic":
            vox_path.write_bytes(b"XVOX" + vox_path.read_bytes()[4:])
        if case == "truncated":
            vox_path.write_bytes(vox_path.read_bytes()[:-3])
        if case == "overflow":
            # header only, with dimensions whose product wraps past 2**63 in int64
            vox_path.write_bytes(b"AVOX\x01<" + struct.pack("<B2q3d", 2, 2**32, 2**32, 0, 0, 0.1))
        args = {"missing": ["--in", str(tmp_path / "missing.vox")],
                "spacing": ["--spacing", "-1"], "norm": ["--norm", "bogus"],
                "margin": ["--margin", "4"], "out": ["--out", "/nonexistent/dir/d.bin"]}
        argv = ["dt", "--in", str(vox_path), "--norm", "euclidean",
                "--out", str(tmp_path / "d.bin")] + args.get(case, [])
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("spec,message", [
        ("ellipse:1,x", "ellipse entry must be a number, got 'x'"),
        ("lp:2:1,nan", "lp weights must be finite and positive, got nan")])
    def test_bad_norm_entry_named(self, tmp_path, spec, message, capsys):
        vox_path = tmp_path / "ball.vox"
        rasterize(WulffShape(EuclideanNorm(2), 1.0), 0.1, margin=2).save(vox_path)
        assert main(["dt", "--in", str(vox_path), "--norm", spec,
                     "--out", str(tmp_path / "d.bin")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_negative_margin_exits_config(self, tmp_path, capsys):
        vox_path = tmp_path / "ball.vox"
        rasterize(WulffShape(EuclideanNorm(2), 1.0), 0.1, margin=2).save(vox_path)
        assert main(["dt", "--in", str(vox_path), "--norm", "euclidean", "--margin", "-1",
                     "--out", str(tmp_path / "d.bin")]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: margin must be nonnegative, got -1\n"

    def test_nan_spacing_exits_config(self, tmp_path, nan_spacing_vox, capsys):
        assert main(["dt", "--in", str(nan_spacing_vox), "--norm", "euclidean",
                     "--out", str(tmp_path / "d.bin")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "error: spacing must be positive and finite, got nan\n"

    def test_relaxation_failure_exits_fail(self, tmp_path, monkeypatch):
        vox_path = tmp_path / "ball.vox"
        rasterize(WulffShape(EuclideanNorm(2), 1.0), 0.1).save(vox_path)

        def no_fixpoint(*args, **kwargs):
            raise ConvergenceError("distance relaxation did not converge in 128 rounds")

        monkeypatch.setattr("aniso.cli.distance_transform", no_fixpoint)
        assert main(["dt", "--in", str(vox_path), "--norm", "euclidean",
                     "--out", str(tmp_path / "d.bin")]) == EXIT_FAIL

    def test_console_script_entry(self, tmp_path):
        result = subprocess.run([sys.executable, "-m", "aniso.cli", "--help"],
                                capture_output=True, text=True)
        assert result.returncode == 0
        assert "aniso" in result.stdout
