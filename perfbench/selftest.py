"""Self-test of the benchmark: ``python3 perfbench/run.py --selftest``.

* ``BENCHMARK.json`` matches ``spec.py``.
* The checkers flag a perturbed count, a NaN, a Monte Carlo mean far from
  its reference and a digest change.
* A tiny-size run of every workload, untraced and traced, prints a result
  line with exactly the documented keys and metric names, and fails only
  its known-defect probes (which ones still fail is printed).
"""

import json
import math
import os
import sys

import run
import spec


def check(cond, what, problems):
    print("%s %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        problems.append(what)


def checker_cases(problems):
    sys.path.insert(0, "src")
    import workloads
    refs = workloads.load_references()
    ref = refs["real/free/1024"]["value"]
    tol = workloads.REAL_TOL
    check(workloads.check_count(ref, ref, tol).ok, "exact count passes", problems)
    check(not workloads.check_count(ref * (1 + 3 * tol), ref, tol).ok,
          "count perturbed by 3 tol is flagged", problems)
    check(not workloads.check_count(float("nan"), ref, tol).ok,
          "NaN count is flagged", problems)
    check(not workloads.check_own_bound(ref, float("nan"), tol, 2.0).ok,
          "NaN error estimate is flagged", problems)
    check(not workloads.check_close([1.0, float("nan")], [1.0, 1.0], 1e-8).ok,
          "NaN intensity point is flagged", problems)
    check(not workloads.check_close([1.0, 1.0 + 1e-6], [1.0, 1.0], 1e-8).ok,
          "intensity perturbed by 1e-6 is flagged", problems)
    check(not workloads.check_mc(3.0 + 6 * 0.01, 0.01, 3.0).ok,
          "Monte Carlo mean 6 SE off is flagged", problems)
    check(workloads.digest(1.0) != workloads.digest(math.nextafter(1.0, 2.0)),
          "digest sees a one-ulp change", problems)


def smoke(problems):
    end_names = [m[0] for m in spec.END_TO_END]
    layer_names = [m[0] for m in spec.PER_LAYER]
    for workload, _ in spec.WORKLOADS:
        for trace in (0, 1):
            result, doc = run.run(workload, 1, 0.0, trace, tiny=True)
            label = "%s trace=%d" % (workload, trace)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  label + ": result keys", problems)
            names = layer_names if trace else end_names
            check(list(result["metrics"]) == names, label + ": metric names", problems)
            check(all(isinstance(m["value"], float) and math.isfinite(m["value"])
                      for m in result["metrics"].values()),
                  label + ": finite metric values", problems)
            check(result["correct"], label + ": only known defects fail", problems)
            print("     known-defect probes failing: %s"
                  % sorted({f[1] for f in doc["failures"]}))
            json.loads(json.dumps(result))


def main():
    problems = []
    with open("BENCHMARK.json") as fh:
        check(json.load(fh) == spec.benchmark_json(), "BENCHMARK.json matches spec.py",
              problems)
    checker_cases(problems)
    smoke(problems)
    print("selftest: %s" % ("FAILED: " + "; ".join(problems) if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    sys.exit(main())
