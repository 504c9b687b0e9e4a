"""Command-line front end.

    aniso run <config>                  run experiments from a key=value file
    aniso wulff --norm <spec> --r <v>   build a Wulff boundary mesh
    aniso dt --in <voxfile> --norm <spec>   distance-transform a voxel file

Config files are UTF-8 ``key=value`` lines with ``#`` comments; unknown keys
are hard errors.  Exit codes: 0 all checks passed, 1 failure, 2 ambiguous or
low-confidence result, 64 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AnisoError,
    ConfigError,
    ConvergenceError,
    DepthRangeError,
    InvalidArgumentError,
)
from .grid import VoxelSet, distance_transform
from .norms import Norm, parse_norm
from .shapes import ShapeSpec, norm_sequence, parse_shape
from .verify import (
    PowerLawFit,
    VerificationReport,
    atomic_write,
    check_disintegration,
    check_erosion_laws,
    check_minkowski_law,
    check_wulff_identity,
    plot_erosion_fit,
    plot_sequence,
    run_bubbling,
)
from .wulff import WulffShape, polygon_svg

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_AMBIGUOUS = 2
EXIT_CONFIG = 64

_EXPERIMENTS = ("wulff-identity", "erosion", "minkowski", "disintegration",
                "bubbling", "all")


@dataclass
class RunConfig:
    experiment: str
    norm: str = "euclidean"
    shape: str = None
    dim: int = 3
    spacing: float = None
    radii: list = None
    pairs: list = None
    outdir: str = "aniso-out"
    seed: int = 0
    resolution: int = None
    stencil_order: int = 3
    tol: float = None
    hsteps: list = field(default_factory=lambda: [1, 2, 3, 4, 5])
    sequence: str = "smoothed-max-to-linf"

    def norm_obj(self) -> Norm:
        return parse_norm(self.norm, self.dim)

    def shape_spec(self) -> ShapeSpec:
        text = self.shape if self.shape else "wulff r=1.5"
        return parse_shape(text, self.dim, default_norm=self.norm_obj())


def _parser(convert, ok, rule):
    """Parser of one config value: convert its text, then require ok(value)."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise ValueError(f"{rule}, got {value!r}")
        return value
    return parse


def _split(item, sep=","):
    return lambda text: [item(part) for part in text.split(sep)]


_positive = _parser(float, lambda v: np.isfinite(v) and v > 0, "must be finite and positive")
_at_least_one = _parser(int, lambda v: v >= 1, "must be at least 1")

# one parser per RunConfig field, from the value's text to the field
_PARSERS = {
    "experiment": _parser(str, lambda v: v in _EXPERIMENTS,
                          f"unknown experiment (one of {', '.join(_EXPERIMENTS)})"),
    "norm": str,
    "shape": str,
    "dim": _parser(int, lambda v: v in (2, 3), "must be 2 or 3"),
    "spacing": _positive,
    "radii": _parser(_split(_positive), lambda v: len(v) >= 4,
                     "needs at least 4 values for the power-law fit"),
    "pairs": _parser(_split(_split(_positive, ":")), lambda v: all(len(p) == 2 for p in v),
                     "must be s:r pairs"),
    "outdir": str,
    "seed": int,
    "resolution": _at_least_one,
    "stencil_order": _parser(int, lambda v: v in (1, 2, 3), "must be 1, 2 or 3"),
    "tol": _positive,
    "hsteps": _split(_at_least_one),
    "sequence": str,
}


def _checked(lineno, key, fn, *args):
    try:
        return fn(*args)
    except (ValueError, AnisoError) as exc:
        raise ConfigError(f"line {lineno}: {key}: {exc}") from exc


def parse_config(text) -> RunConfig:
    """Parse key=value config text; unknown keys and bad values are errors."""
    values, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _checked(lineno, key, _PARSERS[key], val)
        lines[key] = lineno
    if "experiment" not in values:
        raise ConfigError("missing required key 'experiment'")
    cfg = RunConfig(**values)
    # specs that parse only under dim (and the shape also under norm)
    for key, check in (("norm", cfg.norm_obj),
                       ("sequence", lambda: norm_sequence(cfg.sequence, 1, cfg.dim)),
                       ("shape", cfg.shape_spec)):
        if key in lines:
            _checked(lines[key], key, check)
    return cfg


def _run_one(cfg: RunConfig, experiment) -> VerificationReport:
    if experiment == "wulff-identity":
        return check_wulff_identity(cfg.norm_obj(), r=cfg.shape_spec().r,
                                    resolution=cfg.resolution, seed=cfg.seed)
    if experiment == "bubbling":
        base = cfg.shape_spec() if cfg.shape else None
        if base is not None and base.kind not in ("two-bubble", "perturbed-wulff"):
            base = None          # fall back to the canonical two-bubble family
        return run_bubbling(seq_kind=cfg.sequence, h_list=cfg.hsteps,
                            base_spec=base, spacing=cfg.spacing,
                            resolution=cfg.resolution, dim=cfg.dim,
                            stencil_order=cfg.stencil_order)
    common = {"spacing": cfg.spacing, "resolution": cfg.resolution,
              "stencil_order": cfg.stencil_order}
    if experiment == "erosion":
        return check_erosion_laws(cfg.shape_spec(), radii=cfg.radii, **common)
    if experiment == "minkowski":
        return check_minkowski_law(cfg.shape_spec(), pairs=cfg.pairs, **common)
    if experiment == "disintegration":
        return check_disintegration(cfg.shape_spec(), **common)
    raise ConfigError(f"unknown experiment {experiment!r}")


def run(cfg: RunConfig):
    """Execute the configured experiments; write report, tables and plots.

    Returns the process exit status.  A driver that raises gets an error
    entry in place of its report, and the remaining experiments still run.
    report.json is byte-identical across runs with the same config and seed;
    wall-clock timings go to the runtime.json sidecar.
    """
    outdir = cfg.outdir
    os.makedirs(outdir, exist_ok=True)
    os.makedirs(os.path.join(outdir, "tables"), exist_ok=True)
    os.makedirs(os.path.join(outdir, "plots"), exist_ok=True)
    experiments = list(_EXPERIMENTS[:-1]) if cfg.experiment == "all" else [cfg.experiment]
    reports = []
    status = EXIT_PASS
    timings = {}
    for experiment in experiments:
        try:
            rep = _run_one(cfg, experiment)
        except Exception as exc:
            if isinstance(exc, AnisoError):
                error = str(exc)
            else:
                traceback.print_exc()
                error = f"{type(exc).__name__}: {exc}"
            reports.append({"experiment_id": experiment, "error": error, "passed": False})
            # radii and pairs meet rbar only once the shape is built; the
            # default ones never fall outside, so a DepthRangeError is the config's
            if isinstance(exc, (ConfigError, DepthRangeError)):
                print(f"config error: {experiment}: {exc}", file=sys.stderr)
                status = max(status, EXIT_CONFIG)
            else:
                status = max(status, EXIT_FAIL)
            continue
        if cfg.tol is not None:
            # re-judge measured rows only: a condition row (with "detail") is pass/fail
            for row in rep.rows:
                if "detail" not in row:
                    row["tol"] = cfg.tol
                    row["passed"] = (row["rel_err"] <= cfg.tol) or not row["enforced"]
        reports.append(rep.to_dict())
        timings[experiment] = rep.wall_time
        rep.save_csv(os.path.join(outdir, "tables", f"{experiment}.csv"))
        _plots_for(rep, os.path.join(outdir, "plots"))
        if rep.flags:
            status = max(status, EXIT_AMBIGUOUS)
        if not rep.passed:
            status = max(status, EXIT_FAIL)
    payload = json.dumps({"config": vars(cfg), "reports": reports},
                         sort_keys=True, indent=1)
    atomic_write(os.path.join(outdir, "report.json"), payload)
    atomic_write(os.path.join(outdir, "runtime.json"),
            json.dumps({"timings": timings, "written_at": time.time()}, indent=1))
    return status


def _plots_for(rep, plotdir):
    if rep.experiment_id == "erosion" and "measured_volumes" in rep.extras:
        plot_erosion_fit(os.path.join(plotdir, "erosion.svg"),
                         rep.extras["rbar"] - np.asarray(rep.inputs["radii"]),
                         rep.extras["measured_volumes"],
                         PowerLawFit(**rep.extras["power_law"]))
    if rep.experiment_id == "bubbling" and "sequence_rows" in rep.extras:
        plot_sequence(os.path.join(plotdir, "bubbling.svg"), rep.extras["sequence_rows"])


# ---------------------------------------------------------------------------
# subcommands


def _cmd_run(args):
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    status = run(cfg)
    print(f"report written to {cfg.outdir}/report.json (exit {status})")
    return status


def _cmd_wulff(args):
    try:
        if args.svg and args.dim != 2:
            raise InvalidArgumentError("SVG export is for 2D boundaries")
        if args.resolution is not None and args.resolution < (3 if args.dim == 2 else 0):
            raise InvalidArgumentError(
                f"--resolution must be at least 3 points in 2D and a level >= 0 in 3D, "
                f"got {args.resolution} in {args.dim}D")
        norm = parse_norm(args.norm, args.dim)
        w = WulffShape(norm, args.r)
        if w.is_crystalline:
            mesh = w.polytope().to_trisurface()
        else:
            mesh = w.boundary_mesh(resolution=args.resolution)
        mesh.save_text(args.out)
        print(f"mesh with {len(mesh.vertices)} vertices written to {args.out}")
        if args.svg:
            polygon_svg(mesh, args.svg)
            print(f"svg written to {args.svg}")
    except (AnisoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_PASS


def _cmd_dt(args):
    try:
        vox = VoxelSet.load(getattr(args, "in"))
        if args.spacing is not None:
            vox = VoxelSet(vox.origin, args.spacing, vox.occupancy, level=vox.level)
        vox.check_margin(args.margin)
        norm = parse_norm(args.norm, vox.dim)
        df = distance_transform(vox, norm.dual(), k=args.stencil_order)
        df.save(args.out)
    except (AnisoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # bad input is a config error; a relaxation that does not converge fails
        return EXIT_FAIL if isinstance(exc, ConvergenceError) else EXIT_CONFIG
    print(f"distance field written to {args.out} "
          f"(chamfer factor {df.chamfer_factor:.4f})")
    return EXIT_PASS


def main(argv=None):
    parser = argparse.ArgumentParser(prog="aniso",
                                     description="anisotropic geometry toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run experiments from a config file")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_w = sub.add_parser("wulff", help="export a Wulff boundary mesh")
    p_w.add_argument("--norm", required=True)
    p_w.add_argument("--r", type=float, default=1.0)
    p_w.add_argument("--dim", type=int, default=3, choices=(2, 3))
    p_w.add_argument("--resolution", type=int, default=None)
    p_w.add_argument("--out", default="wulff-mesh.txt")
    p_w.add_argument("--svg", default=None)
    p_w.set_defaults(func=_cmd_wulff)

    p_dt = sub.add_parser("dt", help="distance-transform a voxel file")
    p_dt.add_argument("--in", required=True)
    p_dt.add_argument("--norm", required=True)
    p_dt.add_argument("--stencil-order", dest="stencil_order", type=int,
                      default=3, choices=(1, 2, 3))
    p_dt.add_argument("--spacing", type=float, default=None,
                      help="override the stored voxel spacing")
    p_dt.add_argument("--margin", type=int, default=1,
                      help="required empty margin width to validate")
    p_dt.add_argument("--out", default="distance.bin")
    p_dt.set_defaults(func=_cmd_dt)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
