"""One benchmark pass in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED PASS_INDEX T_SPAWN MODE

T_SPAWN is the parent's CLOCK_MONOTONIC reading just before it started this
process, so set-up time runs from interpreter start to inputs built.  SEED and
PASS_INDEX pick the inputs (`workloads.build`).  MODE is
``setup`` (build the inputs and stop), ``pass`` (run every case untraced),
``trace`` (run every case with the layer wrappers installed) or ``record``
(run untraced and write the outputs as the workload's reference).
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import json  # noqa: E402
import resource  # noqa: E402

import workloads  # noqa: E402


def machine():
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {k: v for k, v in sorted(os.environ.items())
                             if k.endswith("_NUM_THREADS")}}


def main(argv):
    workload, seed, pass_index = argv[0], int(argv[1]), int(argv[2])
    t_spawn, mode = float(argv[3]), argv[4]
    cases = workloads.build(workload, seed, pass_index)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - t_spawn
    import aniso
    if not os.path.abspath(aniso.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported aniso from {aniso.__file__}, not from {SRC}")
    result = {"setup_s": setup_s}
    if mode == "setup":
        result["machine"] = machine()
        print(json.dumps(result))
        return
    rec = None
    if mode == "trace":
        import tracing
        rec = tracing.Recorder()
        tracing.install(rec)
    reference = workloads.load_reference(workload) if seed == 0 and mode != "record" else None
    case_s, failures, reports, recorded = [], [], [], {}
    failed = 0
    t0 = time.perf_counter()
    for case in cases:
        c0 = time.perf_counter()
        try:
            rep = workloads.run_case(case)
        except Exception as exc:  # a raising case counts as failed; keep going
            case_s.append(time.perf_counter() - c0)
            failed += 1
            failures.append(f"{case.name}: raised {exc!r}")
            continue
        case_s.append(time.perf_counter() - c0)
        reports.append(rep)
        got = workloads.outputs(rep)
        recorded[case.name] = got
        problems = [] if rep.passed else ["report did not pass"]
        if reference is not None:
            bad = workloads.mismatches(got, reference.get(case.name, {}))
            if bad:
                problems.append(f"differs from reference at {bad}")
        if problems:
            failed += 1
            failures.append(f"{case.name}: {'; '.join(problems)}")
    wall_s = time.perf_counter() - t0
    result.update({
        "wall_s": wall_s,
        "case_s": case_s,
        "attempted": len(cases),
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if rec is not None:
        result["layers"] = tracing.layer_metrics(rec, reports)
        result["spans"] = len(rec.spans)
    if mode == "record":
        if failures:
            raise SystemExit(f"not recording a failing pass: {failures}")
        with open(workloads.reference_path(workload), "w") as fh:
            json.dump(recorded, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
