"""Print ns per point-step of a bare Szegő sweep, the contour fold and the complex intensity.

    python3 tools/sweep_ns.py
    python3 tools/sweep_ns.py --root ../other-checkout
    python3 tools/sweep_ns.py --quick

Each case runs ``szego._sweep`` over n = 1024 degrees at a fixed grid and
discards the steps, so the time is the recurrence and its range checks
alone, with no fold.  The cases are the free (Kac) ensemble, whose steps
skip the mixing, and ``power_decay(0.3, 2)``, whose steps do all of it, at
1, 33, 957 and 4001 real points in (-1, 1) and at 800 and 7000 complex
points in the unit disk.  Two ``contour`` rows time the whole of
``intensity.log_derivative_grid`` (E[P'/P], the integrand of complex counts)
at the same 800 complex points and n = 1024, in ns per point-degree: the
free ensemble's rows past degree 0 are not swept but added as one block,
in closed form away from R and by doubling next to it (the spiral has
points of both kinds), while ``power_decay(0.3, 2)`` sweeps and folds all
1024 degrees.  The benchmark's tracer has no span for E[P'/P], so these
rows are where the fold layer's cost shows.  Two ``window`` rows time the
same call on 800 points of the ring |z| = 1 + 5/2048 with
pi/4 <= arg z <= 3 pi/4 (the outer edge of a scaling window at n = 1024),
where the free ensemble's block is in closed form at every point.  Two
``pair`` rows time ``intensity.log_derivative_pair_grid`` (E[P'/P] and the
reversed polynomial's E[P^*'/P^*] from one sweep, the integrand of the
whole-plane total) on 800 points of the two guard rays, arg u =
``GUARD_THETA`` and pi - ``GUARD_THETA`` with 0 < |u| < 1, at n = 1024:
the reversed half's low degrees underflow at small |u|, so these rows also
time the contour fold's start-up.  Two ``intensity`` rows time the whole of
``intensity.complex_intensity_grid`` (the kernel sums and the three-term
formula) the same way: the free ensemble's kernel sums take their rows past
degree 0 by doubling, ``power_decay(0.3, 2)`` sweeps all 1024 degrees.  The
benchmark's tracer counts ``kernels.kernel_bundle.point_steps`` as width
times n, which overstates the work where a zero tail is doubled; these rows
give its cost per point-degree.  A run repeats its case up to ``MAX_REPS``
times, until it has made about ``BUDGET`` point-steps; a case's figure is the
median over ``RUNS`` runs, and the runs of all cases interleave, so drift
of the host spreads over every case alike.  ``--root`` names the checkout
whose ``src/`` is imported (default: the one holding this script), so two
checkouts are compared with the same harness; ``--quick`` runs each case
once, a smoke test of the harness, not a measurement.  BLAS and the
library run on one thread, with the benchmark workers' ``run.THREAD_ENV``.
"""

import argparse
import collections
import os
import statistics
import sys
import time

DEGREES = 1024
BUDGET, MAX_REPS, RUNS = 2_000_000, 40, 9
CASES = [(ens, kind, m) for ens in ("free", "power_decay(0.3, 2)")
         for kind, m in (("real", 1), ("real", 33), ("real", 957), ("real", 4001),
                         ("complex", 800), ("complex", 7000), ("contour", 800),
                         ("window", 800), ("pair", 800), ("intensity", 800))]


def _grid(np, kind, m, guard):
    if kind == "pair":  # the two guard rays inside the unit disk, m/2 points each
        r = (np.arange(m // 2) + 0.5) / (m // 2)
        return np.concatenate([r * np.exp(1j * guard), r * np.exp(1j * (np.pi - guard))])
    if kind == "real":
        return np.linspace(-0.99, 0.99, m) if m > 1 else np.array([0.5])
    if kind == "window":  # the outer ring of a scaling window, away from R
        return (1.0 + 2.5 / DEGREES) * np.exp(1j * np.linspace(np.pi / 4, 3 * np.pi / 4, m))
    k = np.arange(m)
    # points spread over the disk on a spiral, none on the real line
    return np.sqrt((k + 0.5) / m) * np.exp(2.4j * (k + 0.5))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   help="checkout whose src/ is imported")
    p.add_argument("--quick", action="store_true", help="one short run per case")
    args = p.parse_args(argv)
    runs, max_reps = (1, 1) if args.quick else (RUNS, MAX_REPS)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    import run  # the worker's thread settings, applied before numpy loads
    os.environ.update(run.THREAD_ENV)
    import numpy as np
    from opuczeros import intensity, szego
    from opuczeros.ensembles import free, materialize, power_decay
    from opuczeros.expectation import GUARD_THETA

    alphas = {"free": materialize(free(), DEGREES).array(DEGREES),
              "power_decay(0.3, 2)": materialize(power_decay(0.3, 2), DEGREES).array(DEGREES)}

    def run_case(a, kind, z):
        if kind in ("contour", "window"):  # E[P'/P] over degrees 0..DEGREES-1
            intensity.log_derivative_grid(a, DEGREES, z)
        elif kind == "pair":  # both halves, from one sweep at u
            intensity.log_derivative_pair_grid(a, DEGREES, z)
        elif kind == "intensity":  # the complex intensity, same degrees
            intensity.complex_intensity_grid(a, DEGREES, z)
        else:
            collections.deque(szego._sweep(a, z), maxlen=0)

    times = collections.defaultdict(list)
    for _ in range(runs):
        for ens, kind, m in CASES:
            a, z = alphas[ens], _grid(np, kind, m, GUARD_THETA)
            reps = min(max_reps, max(1, BUDGET // (DEGREES * m)))
            t0 = time.perf_counter()
            for _ in range(reps):
                run_case(a, kind, z)
            times[ens, kind, m].append((time.perf_counter() - t0) / (reps * DEGREES * m))
    print("%-20s %-9s %6s %10s" % ("ensemble", "dtype", "points", "ns/pt-step"))
    for ens, kind, m in CASES:
        ns = 1e9 * statistics.median(times[ens, kind, m])
        print("%-20s %-9s %6d %10.2f" % (ens, kind, m, ns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
