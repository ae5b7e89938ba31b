"""Print rounds, integrand points and stated errors of whole-line real counts.

    python3 tools/real_mesh.py
    python3 tools/real_mesh.py --root ../other-checkout
    python3 tools/real_mesh.py --quick

For each case of ``CASES`` and each tolerance of ``TOLS`` it runs one
``expected_real_zeros`` solve over the whole real line and prints the rounds
of the adaptive driver (calls of ``_quad._estimate``), the integrand calls,
the points handed to the integrand, the value and the stated error.  A solve
that raises prints the exception's type in place of the value.  Ensembles
are labels of ``ensembles.parse_ensemble``, plus ``seeded``: the decaying
draw of the benchmark's ``real_quad`` job ``seeded/1024`` at seed 101, and
``bernstein-szego``: a fixed draw of 20 coefficients with
|alpha_k| <= 0.5/sqrt(k + 1), zeros after (a Bernstein-Szegő measure).
``--root`` names the checkout whose ``src/`` and ``perfbench/`` are imported
(default: the one holding this script), so two meshes are compared with the
same harness; ``--quick`` runs the n = 64 cases at tol 1e-6 only, a smoke
test.  BLAS and the library run on one thread, with the benchmark workers'
``run.THREAD_ENV``.  The full table takes about 1 s on a 2-core host.
"""

import argparse
import os
import sys

TOLS = (1e-6, 1e-9, 1e-11)
CASES = ([("free", n) for n in (64, 256, 1024, 4096, 65536, 2 ** 20)]
         + [("bernstein-szego", n) for n in (4096, 65536)]
         + [("power_decay:0.3:2", n) for n in (64, 1024)]
         + [("geronimus:power_decay:0.3:2:0.5", 1024), ("seeded", 1024)]
         + [("constant:%s" % a, n) for a in ("0.5", "-0.5") for n in (64, 128, 256)])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   help="checkout whose src/ and perfbench/ are imported")
    p.add_argument("--quick", action="store_true", help="the n = 64 cases at tol 1e-6")
    args = p.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    import run  # the worker's thread settings, applied before numpy loads
    os.environ.update(run.THREAD_ENV)
    import numpy as np
    import workloads
    from opuczeros import _quad, ensembles, expectation

    counts = {"rounds": 0, "calls": 0, "points": 0}
    estimate, grid = _quad._estimate, expectation.real_intensity_grid

    def counting_estimate(*a):
        counts["rounds"] += 1
        return estimate(*a)

    def counting_grid(alpha, n, x):
        counts["calls"] += 1
        counts["points"] += len(x)
        return grid(alpha, n, x)

    _quad._estimate = counting_estimate
    expectation.real_intensity_grid = counting_grid
    cases = [c for c in CASES if c[1] == 64] if args.quick else CASES
    print("%-32s %6s %6s %6s %5s %6s %16s %9s"
          % ("ensemble", "n", "tol", "rounds", "calls", "points", "value", "error"))
    for label, n in cases:
        if label == "seeded":
            alpha = workloads._seeded(101, 1, n)
        elif label == "bernstein-szego":
            alpha = np.zeros(n)
            rng = np.random.default_rng(20)
            alpha[:20] = rng.uniform(-0.5, 0.5, 20) / np.sqrt(np.arange(20) + 1.0)
        else:
            alpha = ensembles.materialize(ensembles.parse_ensemble(label), n)
        for tol in TOLS[:1] if args.quick else TOLS:
            counts.update(rounds=0, calls=0, points=0)
            try:
                res = expectation.expected_real_zeros(alpha, n, tol=tol)
                shown = "%16.10f %9.2e" % (res.value, res.error)
            except Exception as exc:  # the table reports failures too
                shown = "%16s %9s" % (type(exc).__name__, "-")
            print("%-32s %6d %6.0e %6d %5d %6d %s"
                  % (label, n, tol, counts["rounds"], counts["calls"], counts["points"], shown),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
