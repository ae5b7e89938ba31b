"""One workload in one fresh process; ``run.py`` starts it and reads its last line.

    python3 perfbench/worker.py --workload real_quad --seed 1 --seconds 20 --trace 0
    python3 perfbench/worker.py --workload real_quad --seed 1 --setup-only

Set-up (timed as ``setup_s``) imports opuczeros, materializes the ensembles,
loads the references and makes one warm-up call.  Then the worker repeats
passes over the job list while the next one is expected to end within
``--seconds`` (at least ``spec.MIN_PASSES``).  A pass times each job's compute step, then checks it;
from the second pass on, every result must also be bit-identical to the
first pass's.  With ``--trace 1`` the first pass is untraced and the rest run
under the tracer; the per-layer metrics come from the traced passes, and
``trace.overhead_frac`` compares their median wall time with the untraced
pass.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true",
                   help="only the jobs marked tiny (self-test)")
    return p.parse_args(argv)


def run_pass(jobs, first, diag):
    """Run every job once; returns (wall, cpu, failures)."""
    import workloads
    wall = cpu = 0.0
    failures = []
    for job in jobs:
        w0 = time.perf_counter()
        c0 = time.process_time()
        try:
            result = job.compute()
        except Exception:      # a raising job is a failed job
            failures.append((job.name, "raised:\n" + traceback.format_exc()))
            continue
        finally:
            wall += time.perf_counter() - w0
            cpu += time.process_time() - c0
        try:
            verdict = job.check(result)
            stamp = workloads.digest(result)
        except Exception:
            failures.append((job.name, "check raised:\n" + traceback.format_exc()))
            continue
        if job.known_defect is None:
            for key, value in verdict.diag.items():
                diag[key] = max(diag.get(key, 0.0), value)
        if not verdict.ok:
            failures.append((job.name, verdict.detail))
        elif job.name in first and first[job.name] != stamp:
            failures.append((job.name, "result differs from the first pass"))
        first.setdefault(job.name, stamp)
    return wall, cpu, failures


def main(argv=None):
    args = parse_args(argv)
    t0 = time.perf_counter()
    import opuczeros  # noqa: F401  (timed as part of set-up)
    import spec
    import workloads
    scratch = os.path.join(OUT, "cli-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    try:
        refs = workloads.load_references()
        jobs = workloads.build(args.workload, args.seed, refs, scratch)
        if args.tiny:
            jobs = [j for j in jobs if j.tiny]
        workloads.warm_up(args.workload)
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        doc = measure(args, jobs, spec)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    doc["setup_s"] = setup_s
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    doc["known_defects"] = {j.name: j.known_defect for j in jobs if j.known_defect}
    print(json.dumps(doc))
    return 0


def measure(args, jobs, spec):
    first = {}
    diag = {}
    walls, cpus, failures = [], [], []
    untraced = []
    tracer = None
    started = time.perf_counter()
    # start a pass only while it is expected to end within --seconds
    while len(cpus) < spec.MIN_PASSES or (time.perf_counter() - started
                                          + statistics.median(walls or untraced)
                                          <= args.seconds):
        if args.trace and untraced and tracer is None:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        wall, cpu, failed = run_pass(jobs, first, diag)
        (walls if tracer is not None or not args.trace else untraced).append(wall)
        cpus.append(cpu)
        failures.extend((len(cpus), name, why) for name, why in failed)
    doc = {"passes": len(cpus), "jobs": len(jobs), "attempted": len(cpus) * len(jobs),
           "failures": failures, "wall": walls, "cpu": cpus}
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics(len(walls), [n for n, _, _ in spec.PER_LAYER])
        layers["expectation.ref_err_max"] = diag.get("ref_err", 0.0)
        layers["montecarlo.ref_z_max"] = diag.get("mc_z", 0.0)
        layers["trace.overhead_frac"] = (statistics.median(walls)
                                         / statistics.median(untraced) - 1.0)
        tracer.write(os.path.join(OUT, "spans-%s-seed%d.json"
                                  % (args.workload, args.seed)))
        doc["per_layer"] = layers
    return doc


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.exit(main())
