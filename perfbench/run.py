"""Benchmark for opuczeros: one workload per call, measured from outside.

Run from the repository root:

    python3 perfbench/run.py --workload real_quad --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --write-spec        # regenerate BENCHMARK.json

Each call runs the workload in fresh worker processes pinned to one BLAS and
one library thread: ``SETUP_PROBES`` processes that only set up, then one
that sets up and measures.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  Every metric is printed
by name with its unit, after a provenance line; the last line of standard
output is the JSON result.  ``correct`` is true when every failed job is a
declared known-defect probe; ``failed`` counts the probes as well.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402

SETUP_PROBES = 6
DEADLINE_S = 170.0
THREAD_ENV = {"OPUCZEROS_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    return env


def run_worker(args, timeout):
    """Run worker.py to completion; returns its parsed last line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=worker_env(), text=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("worker %s exceeded %.0f s" % (" ".join(args), timeout))
    if proc.returncode != 0 or not out.strip():
        raise BenchError("worker %s failed (exit %s):\n%s"
                         % (" ".join(args), proc.returncode, err[-4000:]))
    return json.loads(out.strip().splitlines()[-1])


def provenance(seed):
    import numpy
    import scipy
    src = os.path.join("src", "opuczeros")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                lines += sum(1 for _ in fh)
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    sys.path.insert(0, "src")
    import opuczeros
    public = [n for n in dir(opuczeros) if not n.startswith("_")
              and not isinstance(getattr(opuczeros, n), type(os))]
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (dep.get("name"), dep.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {"git_sha": sha, "src_lines": lines, "public_names": len(public),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count(),
            "thread_env": THREAD_ENV, "seed": seed}


def end_to_end(doc, setups):
    return {"wall_s": statistics.median(doc["wall"]),
            "cpu_s": statistics.median(doc["cpu"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": doc["peak_rss_mb"],
            "pass_frac": 1.0 - len(doc["failures"]) / doc["attempted"]}


def run(workload, seed, seconds, trace, tiny=False):
    """Measure one workload; returns (result dict, worker document)."""
    started = time.monotonic()
    base = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            left = DEADLINE_S - (time.monotonic() - started)
            setups.append(run_worker(base + ["--setup-only"], left)["setup_s"])
    left = DEADLINE_S - (time.monotonic() - started)
    doc = run_worker(base + ["--seconds", str(seconds), "--trace", str(trace)], left)
    setups.append(doc["setup_s"])
    names = spec.PER_LAYER if trace else spec.END_TO_END
    values = doc["per_layer"] if trace else end_to_end(doc, setups)
    metrics = {m[0]: {"value": values[m[0]], "unit": m[1]} for m in names}
    unexpected = [f for f in doc["failures"] if f[1] not in doc["known_defects"]]
    result = {"correct": not unexpected, "attempted": doc["attempted"],
              "failed": len(doc["failures"]), "metrics": metrics}
    return result, doc


def report(workload, seed, result, doc):
    print("provenance: " + json.dumps(provenance(seed), sort_keys=True))
    print("workload %s: %d passes of %d jobs" % (workload, doc["passes"], doc["jobs"]))
    seen = set()
    for pass_no, name, why in doc["failures"]:
        if name in seen:
            continue
        seen.add(name)
        tag = doc["known_defects"].get(name)
        print("FAILED %s (pass %d): %s%s" % (name, pass_no, why.strip().splitlines()[-1],
                                            " [known defect: %s]" % tag if tag else ""))
    if "pass_frac" in result["metrics"]:
        print("failed_frac = %.6g frac" % (result["failed"] / result["attempted"]))
    for name, m in result["metrics"].items():
        print("%s = %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))


def check_layout():
    for path in (os.path.join("src", "opuczeros", "__init__.py"),
                 os.path.join(HERE, "references.json")):
        if not os.path.isfile(path):
            raise BenchError("run from the repository root: %s is missing" % path)


def main(argv=None):
    p = argparse.ArgumentParser(description="opuczeros benchmark")
    p.add_argument("--workload", choices=[w for w, _ in spec.WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--write-spec", action="store_true",
                   help="write BENCHMARK.json from spec.py")
    args = p.parse_args(argv)
    try:
        if args.write_spec:
            with open("BENCHMARK.json", "w") as fh:
                json.dump(spec.benchmark_json(), fh, indent=2)
                fh.write("\n")
            return 0
        check_layout()
        if args.selftest:
            import selftest
            return selftest.main()
        if args.workload is None:
            p.error("--workload is required")
        result, doc = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2
    report(args.workload, args.seed, result, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
