import contextlib
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
import time
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aniso import (
    ConfigError,
    ConvergenceError,
    EuclideanNorm,
    InvalidArgumentError,
    WulffShape,
    rasterize,
)
from aniso.cli import EXIT_AMBIGUOUS, EXIT_CONFIG, EXIT_FAIL, EXIT_PASS, main, parse_config


def _forbid_sphere_meshes(monkeypatch):
    from aniso import wulff

    def refuse(*args):
        raise AssertionError("a sphere mesh was built for an out-of-range resolution")

    monkeypatch.setattr(wulff, "icosphere", refuse)
    monkeypatch.setattr(wulff, "circle_points", refuse)


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


# a 3D perturbation pattern outside 0..3 (in 2D any integer is a frequency)
_PATTERN_3D = "shape=perturbed-wulff norm=ellipse:1,4,2 r=1.5 eps=0.1 pattern=9"


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

    def test_non_utf8_config_exits_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_bytes(b"\xff\xfe=1\n")
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error:") and "not UTF-8" in err[0]

    @pytest.mark.parametrize("line", [
        "spacing=nan", "spacing=-1", "spacing=inf", "radii=0.3,nan", "radii=0,0.6",
        "pairs=0.2:-0.5", "pairs=0.3", "tol=0", "tol=nan", "resolution=0", "resolution=-3",
        "stencil_order=0", "stencil_order=7", "radii=0.1,0.2", "radii=0.1,0.2,0.3,0.4,5.0",
        "sequence=foo", "hsteps=0,1", "seed=x", "spacing=abc", "hsteps=a", "resolution=2.5",
        "tol=", "shape=wulff r=nan", "shape=wulff r=inf", "shape=wulff r=abc",
        "norm=lp:1e300", "norm=lp:1.0000000000000002:2,1", "seed=-1",
        "shape=tangent-union r=0.5 k=0", "norm=ellipse:1,1e-320", _PATTERN_3D])
    def test_bad_value_exits_config(self, tmp_path, line, capsys):
        cfg_path = tmp_path / "bad.cfg"
        dim = 3 if line == _PATTERN_3D else 2
        cfg_path.write_text(f"experiment=erosion\ndim={dim}\n{line}\noutdir={tmp_path}/out\n")
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG
        assert line.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("dim,resolution", [(2, 2), (2, 2**20 + 1), (3, -1), (3, 9),
                                                (3, 12)])
    def test_resolution_out_of_range_exits_config(self, tmp_path, dim, resolution, capsys,
                                                  monkeypatch):
        # the rule of `aniso wulff --resolution`, checked before any mesh is built
        _forbid_sphere_meshes(monkeypatch)
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(f"experiment=all\ndim={dim}\nresolution={resolution}\n"
                            f"outdir={tmp_path}/out\n")
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: line 3: resolution: mesh resolution must be")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dim,resolution,k", [(2, None, 100_000), (2, 3, 100_000),
                                                  (2, None, 1024), (3, 8, 4)])
    def test_tangent_union_over_budget_exits_config(self, tmp_path, dim, resolution, k,
                                                    capsys, monkeypatch):
        # its mesh vertices plus center pairs, counted before any mesh is built
        _forbid_sphere_meshes(monkeypatch)
        cfg_path = tmp_path / "bad.cfg"
        res = "" if resolution is None else f"resolution={resolution}\n"
        cfg_path.write_text(f"experiment=erosion\ndim={dim}\n{res}"
                            f"shape=tangent-union r=0.5 k={k}\noutdir={tmp_path}/out\n")
        t0 = time.perf_counter()
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG
        assert time.perf_counter() - t0 < 10.0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: line {3 if resolution is None else 4}: shape: "
                                 f"a tangent union of {k} balls has")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dim,resolution", [(2, 3), (2, 2**20), (3, 0), (3, 8)])
    def test_resolution_range_ends_accepted(self, dim, resolution):
        cfg = parse_config(f"experiment=erosion\ndim={dim}\nresolution={resolution}\n")
        assert cfg.resolution == resolution

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

    def test_radius_whose_volume_overflows_exits_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "big.cfg"
        cfg_path.write_text("experiment=wulff-identity\ndim=2\nshape=wulff r=1e300\n"
                            f"outdir={tmp_path}/out\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: line 3: shape: radius 1e+300 is too large")
        assert not (tmp_path / "out").exists()

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

    def test_outdir_under_a_file_exits_config(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        outdir = tmp_path / "file" / "out"
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"experiment=wulff-identity\ndim=2\noutdir={outdir}\n")
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: outdir") and str(outdir) in err[0]

    def test_outdir_with_a_nul_character_exits_config(self, tmp_path, capsys):
        # no path holds a NUL: refused at parse time, not by os.makedirs
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"experiment=wulff-identity\ndim=2\noutdir={tmp_path}/a\x00b\n")
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: line 3: outdir") and "NUL" in err[0]

    def test_ball_thinner_than_its_sampling_box_is_low_confidence(self, tmp_path, capsys):
        # no Monte Carlo sample hits a ball 1e-150 r wide in a box padded by
        # 1e-9 r: the volume cross-check is not enforced and the run is flagged
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"experiment=wulff-identity\ndim=2\nnorm=ellipse:1e-300,1\n"
                            f"outdir={tmp_path}/out\n")
        assert main(["run", str(cfg_path)]) == EXIT_AMBIGUOUS
        assert capsys.readouterr().err == ""
        (report,) = json.loads((tmp_path / "out" / "report.json").read_text())["reports"]
        assert report["flags"] == ["monte-carlo-volume-unresolved"]
        row = next(r for r in report["rows"] if r["name"] == "volume-vs-monte-carlo")
        assert row["predicted"] == 0.0 and not row["enforced"]

    @pytest.mark.parametrize("name", ["report.json", "runtime.json", "report.json.tmp"])
    def test_output_that_is_a_directory_exits_config(self, tmp_path, capsys, monkeypatch, name):
        # refused before any experiment runs, in one line naming the path
        def never(*args, **kwargs):
            raise AssertionError("an experiment ran")

        monkeypatch.setattr("aniso.cli.check_wulff_identity", never)
        target = tmp_path / "out" / name
        target.mkdir(parents=True)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"experiment=wulff-identity\ndim=2\noutdir={tmp_path}/out\n")
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: output") and str(target) in err[0]

    def test_late_write_failure_is_one_error_line(self, tmp_path, capsys):
        # a table path that is a directory fails only once the experiment has run
        (tmp_path / "out" / "tables" / "wulff-identity.csv").mkdir(parents=True)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"experiment=wulff-identity\ndim=2\noutdir={tmp_path}/out\n")
        assert main(["run", str(cfg_path)]) == EXIT_FAIL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: could not write the outputs:")
        assert "wulff-identity.csv" in err[0]

    def test_grid_over_the_voxel_budget_exits_config(self, tmp_path, capsys):
        # about 2.7e10 voxels: refused when the raster is asked for, not after
        # allocating it
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"experiment=erosion\ndim=3\nspacing=0.001\noutdir={tmp_path}/out\n")
        start = time.perf_counter()
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG
        assert time.perf_counter() - start < 2.0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: erosion: a grid of")
        assert "budget" in err[0]

    @pytest.mark.parametrize("dim,sequence,h", [
        (2, "smoothed-max-to-linf", 1100),   # 2^-1100 underflows to eps = 0
        (2, "smoothed-max-to-linf", 40),     # the two-bubble member is degenerate
        (2, "smoothed-max-to-linf", 8),
        (3, "smoothed-max-to-linf", 7),
        (2, "lp-to-linf", 1100)])            # 2^1100 overflows
    def test_hsteps_the_sequence_cannot_run_exit_config(self, tmp_path, capsys, dim,
                                                       sequence, h):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"experiment=bubbling\ndim={dim}\nsequence={sequence}\n"
                            f"hsteps=1,{h}\noutdir={tmp_path}/out\n")
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: line 4: hsteps: step h={h} of {sequence}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dim,h", [(2, 7), (3, 6)])
    def test_last_hsteps_the_two_bubble_family_runs_are_accepted(self, dim, h):
        assert parse_config(f"experiment=bubbling\ndim={dim}\nhsteps={h}\n").hsteps == [h]

    @pytest.mark.parametrize("text,experiment,norm", [
        ("experiment=disintegration\nnorm=l1", "disintegration", "l1"),
        ("experiment=erosion\nshape=two-bubble neck=0.1 norm=l1", "erosion", "l1"),
        ("experiment=minkowski\nnorm=linf", "minkowski", "linf"),
        ("experiment=all\nnorm=l1", "all", "l1")])
    def test_crystalline_norm_for_meshed_experiment_exits_config(self, tmp_path, capsys,
                                                                 text, experiment, norm):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"{text}\ndim=2\noutdir={tmp_path}/out\n")
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: line 1: experiment: {experiment} cannot "
                                 f"run with the crystalline norm {norm}")

    @pytest.mark.parametrize("experiment", ["wulff-identity", "bubbling"])
    def test_crystalline_norm_accepted_where_it_runs(self, experiment):
        assert parse_config(f"experiment={experiment}\nnorm=l1\n").norm == "l1"

    @pytest.mark.parametrize("spacing", ["1.4", "100"])
    def test_spacing_coarser_than_the_shape_exits_config(self, tmp_path, capsys, spacing):
        # rbar = 1.5: at these spacings fewer than 4 of the 5 erosions keep a voxel
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"experiment=erosion\ndim=2\nspacing={spacing}\n"
                            f"outdir={tmp_path}/out\n")
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: erosion: spacing {spacing} keeps a voxel")
        assert "rbar = 1.5" in err[0] and "finer spacing" in err[0]

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

    @pytest.mark.parametrize("dim,r", [(2, "1e308"), (3, "1e110")])
    def test_radius_whose_volume_overflows_exits_config(self, tmp_path, dim, r, capsys):
        out = tmp_path / "w.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["wulff", "--norm", "euclidean", "--dim", str(dim), "--r", r,
                         "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: radius {float(r)!r} is too large") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("dim,spec,message", [
        (2, "lp:abc", "lp exponent must be a number, got 'abc'"),
        (3, "lp:3:1,1,nan", "lp weights must be finite and positive, got nan"),
        (2, "lp:inf", "lp family requires a finite p > 1, got inf"),
        (2, "lp:1e300", "lp exponent 1e+300 is too large"),
        (2, "lp:1.0000000000000002:2,1",
         "lp exponent 1.0000000000000002 with weights 2.0, 1.0 has no representable polar"),
        (2, "ellipse:1,inf", "ellipse entries must be finite, got inf")])
    def test_bad_norm_entry_named(self, tmp_path, dim, spec, message, capsys):
        out = tmp_path / "w.txt"
        assert main(["wulff", "--norm", spec, "--dim", str(dim), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("dim,resolution", [(2, 0), (2, 2), (2, -5), (3, -1),
                                                (2, 2**20 + 1), (3, 9), (3, 12)])
    def test_bad_resolution_exits_config(self, tmp_path, dim, resolution, capsys, monkeypatch):
        # icosphere(12) would build 168M vertices: the check must come first
        _forbid_sphere_meshes(monkeypatch)
        out = tmp_path / "w.txt"
        args = ["wulff", "--norm", "euclidean", "--dim", str(dim),
                "--resolution", str(resolution), "--out", str(out)]
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: --resolution") and err.count("\n") == 1
        assert f"got {resolution}" in err
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

    def test_over_budget_file_exits_config(self, tmp_path, over_budget_vox, capsys):
        assert main(["dt", "--in", str(over_budget_vox), "--norm", "euclidean",
                     "--out", str(tmp_path / "d.bin")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "exceeds the budget" in err
        assert err.count("\n") == 1

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


_AWKWARD = ["", "nan", "-inf", "inf", "1e308", "1e309", "-1e308", "9" * 25, "-1", "-0", "0",
            "0.5", "2", "3", "é", "１", "∞", "xéy", "1,2", ":", "\x00"]
# values that make sense for some key, so that parsing gets past the first check
_PLAUSIBLE = {
    "experiment": ["wulff-identity", "erosion", "minkowski", "disintegration", "bubbling",
                   "all"],
    "norm": ["euclidean", "linf", "smoothmax:0.1", "smoothmax:1e-300", "lp:3", "lp:1e300",
             "ellipse:1,4", "ellipse:1,4,2", "ellipse:1e-300,1", "lp:3:1,nan"],
    "dim": ["2", "3"],
    "spacing": ["0.05", "1e-300", "1e300"],
    "radii": ["0.2,0.4,0.6,0.8", "0.1,0.2,nan,0.4", "1e308,1,2,3"],
    "pairs": ["0.2:0.5", "0.1:-1", "1e308:1e308"],
    "outdir": ["out", "", "é", "a\x00b", "a" * 300],
    "seed": ["0", "7", "9" * 25],
    "resolution": ["3", "5", "64", "1000000000000"],
    "stencil_order": ["1", "3"],
    "tol": ["0.1", "1e-300"],
    "hsteps": ["1", "1,2", "8", "100000000000"],
    "sequence": ["smoothed-max-to-linf", "lp-to-linf", "é"],
    "r": ["1.5", "0.5", "1e-300", "1e300"],
    "eps": ["0.1", "0.29"],
    "pattern": ["0", "3", "9"],
    "neck": ["0.1", "0.7"],
    "k": ["2", "3", "100000"],
}
_SHAPE_KINDS = ("wulff", "perturbed-wulff", "two-bubble", "tangent-union", "blob", "")


@st.composite
def _config_texts(draw):
    """key=value config texts over every RunConfig key and every shape key,
    three values in four plausible for their key, the rest awkward."""
    from aniso.cli import _PARSERS

    def value(key):
        plausible = draw(st.integers(0, 3)) > 0
        return draw(st.sampled_from(_PLAUSIBLE[key] if plausible else _AWKWARD))

    lines = []
    for key in draw(st.lists(st.sampled_from(sorted(_PARSERS)), max_size=5, unique=True)):
        if key == "shape":
            fields = draw(st.lists(st.sampled_from(("norm", "r", "eps", "pattern", "neck", "k")),
                                   max_size=3, unique=True))
            text = " ".join([draw(st.sampled_from(_SHAPE_KINDS))]
                            + [f"{name}={value(name)}" for name in fields])
        else:
            text = value(key)
        lines.append(f"{key}={text}")
    if draw(st.integers(0, 3)) > 0:
        lines.insert(0, f"experiment={value('experiment')}")
    return "\n".join(lines) + "\n"


def _quick_wulff_identity(cfg):
    # the one driver that runs in well under a second at its default mesh
    small = {2: 4096, 3: 5}[cfg.dim]
    return cfg.resolution is None or cfg.resolution <= small


class TestGeneratedConfigs:
    @settings(max_examples=200, deadline=None)
    @given(_config_texts())
    def test_every_config_exits_cleanly(self, text):
        # any text: a known exit code, no traceback or RuntimeWarning on
        # stderr, and each config error on one line of its own; drivers other
        # than a quick wulff-identity are stubbed by what `_run_one` builds
        from aniso import cli
        from aniso.verify import VerificationReport

        real = cli._run_one

        def run_one(cfg, experiment):
            if experiment == "wulff-identity" and _quick_wulff_identity(cfg):
                return real(cfg, experiment)
            if experiment == "bubbling":
                cfg.bubbling_base()
            else:
                cfg.shape_spec()
            rep = VerificationReport(experiment, {})
            rep.add_condition("stub", "stub", True)
            return rep

        cwd = os.getcwd()
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_run_one", run_one), \
                warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            os.chdir(tmp)
            try:
                with open("run.cfg", "w", encoding="utf-8") as fh:
                    fh.write(text)
                status = main(["run", "run.cfg"])
            finally:
                os.chdir(cwd)
        assert status in (EXIT_PASS, EXIT_FAIL, EXIT_AMBIGUOUS, EXIT_CONFIG)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        lines = err.getvalue().split("\n")[:-1]
        assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
        assert all(line.startswith(("config error: ", "error: ")) for line in lines), lines
        if any(line.startswith("config error: ") for line in lines):
            assert status == EXIT_CONFIG
