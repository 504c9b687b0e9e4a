"""Benchmark of aniso: time to a verified result, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout holding `src/aniso`.  Every pass runs in a
fresh interpreter (`worker.py`), so no module or object cache carries over
between passes or workloads, and set-up time and peak memory belong to one
workload.  Each run:

* starts SETUPS interpreters that only import aniso and build the inputs,
  half before the passes and half after, and reports the median set-up
  time over those and the passes (import time varied by a third between
  consecutive interpreters on a 2-core KVM guest);
* with --trace 0, runs whole untraced passes, one after another (a closed
  loop, one thread of control), until the next would end after --seconds,
  at least one, and reports the medians of the end-to-end metrics;
* with --trace 1, runs pass 0 untraced and then traced and reports the
  traced pass's per-layer metrics plus the tracing overhead, traced wall
  time / untraced wall time - 1.

Seed 0 gives every pass the acceptance radius and checks every output
against `reference/<workload>.json`; other seeds jitter the inputs afresh
for each pass and rely on the drivers' own pass/fail.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  `--record` rewrites the seed-0 reference from one pass.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUPS = 6
DEADLINE_S = 170.0
# one thread of control per pass, whatever the caller's environment says
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END = (("wall_s", "s"), ("case_max_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def spawn(workload, seed, mode, deadline, pass_index=0):
    """Run one worker to completion and return its JSON result."""
    env = dict(os.environ, **THREAD_ENV)
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, workload, str(seed), str(pass_index), repr(t_spawn), mode],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "aniso", "__init__.py")):
        raise BenchError(f"no src/aniso under {ROOT}: run from a checkout of the repository")
    deadline = time.monotonic() + DEADLINE_S
    if args.record:
        res = spawn(args.workload, 0, "record", deadline)
        print(f"recorded reference for {args.workload}: failures {res['failures']}")
        return None
    setups = [spawn(args.workload, args.seed, "setup", deadline) for _ in range(SETUPS // 2)]
    machine = setups[0]["machine"]
    print("machine " + json.dumps(machine, sort_keys=True))
    passes = []
    t0 = time.monotonic()
    if args.trace:
        passes.append(spawn(args.workload, args.seed, "pass", deadline))
        passes.append(spawn(args.workload, args.seed, "trace", deadline))
    else:
        while True:
            passes.append(spawn(args.workload, args.seed, "pass", deadline, len(passes)))
            elapsed = time.monotonic() - t0
            if elapsed + (elapsed / len(passes)) > args.seconds:
                break
    setups += [spawn(args.workload, args.seed, "setup", deadline)
               for _ in range(SETUPS - SETUPS // 2)]
    for i, p in enumerate(passes):
        kind = "traced" if "layers" in p else "untraced"
        cases = ", ".join(f"{c:.3f}" for c in p["case_s"])
        print(f"pass {i} {kind}: wall_s {p['wall_s']:.3f} cases [{cases}] "
              f"setup_s {p['setup_s']:.3f} peak_rss_mb {p['peak_rss_mb']:.1f}")
        for msg in p["failures"]:
            print(f"  FAILED {msg}")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    untraced = [p for p in passes if "layers" not in p]
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "case_max_s": statistics.median(max(p["case_s"]) for p in untraced),
        "setup_s": statistics.median([s["setup_s"] for s in setups]
                                     + [p["setup_s"] for p in passes]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced pass(es), "
          f"{SETUPS} set-up-only interpreters")
    for name, unit in END_TO_END:
        print(f"  {name:<12} {values[name]:.6g} {unit}")
    print(f"  {'fail_ratio':<12} {failed / attempted:.6g} ({failed} of {attempted} cases)")
    if args.trace:
        import tracing
        traced = passes[-1]
        layers = dict(traced["layers"])
        layers["trace.overhead"] = traced["wall_s"] / passes[0]["wall_s"] - 1.0
        print(f"  tracing overhead {layers['trace.overhead']:+.2%} "
              f"({traced['spans']} spans, traced wall_s {traced['wall_s']:.3f})")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tracing.per_layer_names()}
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(f"verdict: {'correct' if failed == 0 else 'INCORRECT'}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite the workload's seed-0 reference outputs")
    args = ap.parse_args()
    # exit through SystemExit so subprocess.run kills and reaps a running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if result is not None:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
