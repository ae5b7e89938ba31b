"""Print a sha256 of every benchmark job's result, to check outputs byte for byte.

    python3 tools/job_digests.py --seed 101
    python3 tools/job_digests.py --seed 101 --root ../other-checkout

Each job of each workload in ``perfbench/workloads.py`` is built at the seed
and computed once, in this process; the line ``<workload> <job> <sha256>``
hashes ``workloads.digest`` of its result, the bytes of every number in it.
A last line per workload, ``<workload> * <sha256>``, hashes the job digests
in job order.  Two checkouts whose outputs are byte-identical print the same
lines, so a change meant to keep every bit is checked with ``diff`` of the
two outputs.  ``--root`` names the checkout whose ``src/`` and
``perfbench/`` are imported (default: the one holding this script);
nothing is written into the checkout (the CLI jobs write into a temporary
directory).  BLAS and the library run on one thread, with the
benchmark workers' ``run.THREAD_ENV``.  The four workloads take about 11 s
together on a 2-core host, most of it in ``mc_roots``.
"""

import argparse
import hashlib
import os
import sys
import tempfile


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   help="checkout whose src/ and perfbench/ are imported")
    args = p.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    import run  # the worker's thread settings, applied before numpy loads
    os.environ.update(run.THREAD_ENV)
    import workloads
    with tempfile.TemporaryDirectory() as outdir:
        for name in workloads.WORKLOADS:
            jobs = workloads.build(name, args.seed, workloads.load_references(), outdir)
            hexdigests = []
            for job in jobs:
                hexdigests.append(hashlib.sha256(workloads.digest(job.compute())).hexdigest())
                print("%s %s %s" % (name, job.name, hexdigests[-1]))
            total = hashlib.sha256("".join(hexdigests).encode()).hexdigest()
            print("%s * %s" % (name, total), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
