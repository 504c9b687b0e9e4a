"""Self-test of the benchmark on a tiny 2D Euclidean erosion case.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
span self times plus child spans add up to the root span, that counts repeat
exactly across two traced passes, and that a perturbed reference marks the
case failed.  Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOAD = "selftest-2d"
COUNT_SUFFIXES = (".calls", ".points", ".rays", ".voxels", ".vertices")


def check(ok, what):
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def bench(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", WORKLOAD,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metrics_emitted(untraced, traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for result, group in ((untraced, "end_to_end"), (traced, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        check(got == want, f"{group} metrics emitted by name with their units")
        check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
              f"{group} metric values are numbers")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
              f"{group} run is correct")


def test_counts_repeat(first, second):
    counts = [n for n in first["metrics"] if n.endswith(COUNT_SUFFIXES)]
    same = all(first["metrics"][n]["value"] == second["metrics"][n]["value"] for n in counts)
    nonzero = [n for n in counts if first["metrics"][n]["value"] > 0]
    check(same and len(nonzero) >= 5, f"{len(counts)} counts repeat exactly across traced passes")


def test_self_times_sum_to_root():
    """Run the case traced in this process; return its report."""
    rec = tracing.Recorder()
    tracing.install(rec)
    (case,) = workloads.build(WORKLOAD, 0)
    report = workloads.run_case(case)
    own = rec.self_times()
    roots = [i for i, s in enumerate(rec.spans) if s[3] < 0]
    check(len(roots) == 1 and rec.spans[roots[0]][0] == "verify.check_erosion_laws",
          "one root span per driver call")
    root = rec.spans[roots[0]]
    check(all(o >= -1e-9 for o in own), "no span has negative self time")
    check(abs(sum(own) - (root[2] - root[1])) <= 1e-9,
          f"self times of {len(own)} spans sum to the root span")
    return report


def test_perturbed_reference_fails(report):
    got = workloads.outputs(report)
    (ref,) = workloads.load_reference(WORKLOAD).values()
    check(workloads.mismatches(got, ref) == [], "traced outputs match the committed reference")
    volume = next(k for k in ref if k.startswith("eroded volume"))
    fitted = next(k for k, (_, exact) in ref.items() if not exact)
    for key, scale in ((volume, 1 + 1e-15), (fitted, 1 + 1e-8)):
        bad = {k: list(v) for k, v in ref.items()}
        bad[key][0] *= scale
        check(workloads.mismatches(got, bad) == [key],
              f"reference perturbed by {scale - 1:.0e} at {key!r} fails the case")


def main():
    untraced = bench(0)
    traced = bench(1)
    test_metrics_emitted(untraced, traced)
    test_counts_repeat(traced, bench(1))
    test_perturbed_reference_fails(test_self_times_sum_to_root())
    print("selftest passed")


if __name__ == "__main__":
    main()
