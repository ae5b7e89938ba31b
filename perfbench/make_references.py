"""Compute the benchmark's reference values from oracles independent of opuczeros.

Nothing here imports opuczeros. Run from the repository root:

    OPENBLAS_NUM_THREADS=1 python3 perfbench/make_references.py

It rewrites ``perfbench/references.json`` (a few minutes on one core).

Oracles:

* ``real/free/<n>``: the Kac closed form of the real-zero density of
  sum_{i<n} eta_i x^i, integrated with ``mpmath.quad`` at 30 digits.  The
  whole-line count is twice the count on (-1, 1) (inversion symmetry of the
  Christoffel-Darboux kernel).
* ``real/<ensemble>/<n>`` for the other ensembles: the real intensity
  sqrt(K K11 - K10^2) / (pi K) from the Szegő recurrence run in 200-bit
  fixed point (Python integers, about 60 digits; checked against an mpmath
  ``mpf`` sweep below), integrated with ``mpmath.quad`` (Gauss-Legendre,
  30 digits) over panels split geometrically toward +-1 down to 1 - 2^-130,
  so the exponentially thin spike of gapped ensembles is resolved.
* ``grid/<ensemble>/<n>``: the same fixed-point intensity at every 20th point
  of ``linspace(-2, 2, 4001)``.
* ``annulus/free/<n>``: expected strictly nonreal zeros with
  0.7 < |z| < 1.3 and 0 < arg z < pi, by Monte Carlo over Kac polynomials
  (numpy Generator(PCG64(20171121)), roots from stacked companion-matrix
  eigenvalues), stored with the standard error of the mean.
"""

import json
import math
import os
import sys
import time

import mpmath
import numpy as np

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

FRAC_BITS = 200
ONE = 1 << FRAC_BITS
SPLIT_DEPTH = 130
GRID = (-2.0, 2.0, 4001)
GRID_STRIDE = 20
REAL_ROOT_TOL = 1e-8


def fixed(v):
    return int(mpmath.floor(mpmath.mpf(v) * ONE + mpmath.mpf(0.5)))


def power_decay_alphas(c, p, n):
    c = mpmath.mpf(c)
    return [c] + [c * mpmath.mpf(k) ** (-p) for k in range(1, n)]


def geronimus_alphas(base, t, n):
    """Point-mass update for t*nu + (1-t)*delta_1 (Geronimus), in mpmath."""
    ratio = mpmath.mpf(t) / (1 - mpmath.mpf(t))
    out = []
    phi = mpmath.mpf(1)
    ksum = mpmath.mpf(0)
    for m in range(n):
        a = base[m]
        ksum += phi * phi
        s = 1 - a * a
        phi_next = phi * (1 - a) / mpmath.sqrt(s)
        out.append(a + phi * phi_next * mpmath.sqrt(s) / (ratio + ksum))
        phi = phi_next
    return out


class FixedSweep:
    """Real intensity of the OPUC ensemble with coefficients alphas[:n-1]."""

    def __init__(self, alphas, n):
        with mpmath.workdps(70):
            self.a = [fixed(v) for v in alphas[:n - 1]]
            self.s = [fixed(1 / mpmath.sqrt(1 - v * v)) for v in alphas[:n - 1]]
        self.n = n

    def sums(self, x_mp):
        x = fixed(x_mp)
        p = ps = ONE
        dp = dps = 0
        k0 = k1 = k2 = 0
        for k in range(self.n):
            k0 += p * p
            k1 += p * dp
            k2 += dp * dp
            if k == self.n - 1:
                break
            a = self.a[k]
            s = self.s[k]
            xp = (x * p) >> FRAC_BITS
            q = p + ((x * dp) >> FRAC_BITS)
            p, ps, dp, dps = (
                ((xp - ((a * ps) >> FRAC_BITS)) * s) >> FRAC_BITS,
                ((ps - ((a * xp) >> FRAC_BITS)) * s) >> FRAC_BITS,
                ((q - ((a * dps) >> FRAC_BITS)) * s) >> FRAC_BITS,
                ((dps - ((a * q) >> FRAC_BITS)) * s) >> FRAC_BITS,
            )
        return k0, k1, k2

    def rho(self, x_mp):
        with mpmath.workdps(70):
            k0, k1, k2 = (mpmath.mpf(v) for v in self.sums(x_mp))
            return +(mpmath.sqrt(k0 * k2 - k1 * k1) / (mpmath.pi * k0))


def mpf_sweep_rho(alphas, n, x):
    """Plain mpmath sweep, used only to check FixedSweep."""
    with mpmath.workdps(70):
        x = mpmath.mpf(x)
        p = ps = mpmath.mpf(1)
        dp = dps = mpmath.mpf(0)
        k0 = k1 = k2 = mpmath.mpf(0)
        for k in range(n):
            k0 += p * p
            k1 += p * dp
            k2 += dp * dp
            if k == n - 1:
                break
            a = alphas[k]
            s = 1 / mpmath.sqrt(1 - a * a)
            xp = x * p
            q = p + x * dp
            p, ps, dp, dps = ((xp - a * ps) * s, (ps - a * xp) * s,
                              (q - a * dps) * s, (dps - a * q) * s)
        return mpmath.sqrt(k0 * k2 - k1 * k1) / (mpmath.pi * k0)


def kac_rho(n, x):
    with mpmath.workdps(60):
        x = mpmath.mpf(x)
        t = 1 / (1 - x * x) ** 2 - n * n * x ** (2 * n - 2) / (1 - x ** (2 * n)) ** 2
        return +(mpmath.sqrt(t) / mpmath.pi)


def geometric_splits(depth):
    pts = {mpmath.mpf(0), mpmath.mpf(-1), mpmath.mpf(1)}
    for j in range(1, depth + 1):
        edge = 1 - mpmath.mpf(2) ** -j
        pts.update((edge, -edge))
    return sorted(pts)


def whole_line_count(f, depth):
    with mpmath.workdps(30):
        val, err = mpmath.quad(f, geometric_splits(depth),
                               method="gauss-legendre", error=True)
    return 2 * float(val), 2 * float(err)


def ensemble_alphas(label, n):
    with mpmath.workdps(70):
        if label == "free":
            return [mpmath.mpf(0)] * n
        if label == "constant:0.5":
            return [mpmath.mpf("0.5")] * n
        if label == "power_decay:0.3:2":
            return power_decay_alphas("0.3", 2, n)
        if label == "geronimus:power_decay:0.3:2:0.5":
            return geronimus_alphas(power_decay_alphas("0.3", 2, n), "0.5", n)
    raise ValueError(label)


def annulus_mc(n, trials, rng, chunk=500):
    """Mean count of nonreal Kac-polynomial zeros in the upper half annulus."""
    counts = []
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        coef = rng.standard_normal((m, n))
        comp = np.zeros((m, n - 1, n - 1))
        comp[:, 0, :] = -coef[:, -2::-1] / coef[:, -1:]
        idx = np.arange(n - 2)
        comp[:, idx + 1, idx] = 1.0
        roots = np.linalg.eigvals(comp)
        r = np.abs(roots)
        nonreal = np.abs(roots.imag) > REAL_ROOT_TOL * (1.0 + r)
        inside = nonreal & (roots.imag > 0) & (r > 0.7) & (r < 1.3)
        counts.append(inside.sum(axis=1))
        done += m
    c = np.concatenate(counts).astype(float)
    return float(c.mean()), float(c.std(ddof=1) / math.sqrt(len(c)))


def main():
    refs = {}
    started = time.time()

    def note(key, entry):
        refs[key] = entry
        print("%-45s %s  (%.0f s)" % (key, entry.get("value", ""), time.time() - started),
              flush=True)

    # FixedSweep against a plain mpf sweep at a few points
    for label, n in (("power_decay:0.3:2", 64), ("constant:0.5", 64),
                     ("geronimus:power_decay:0.3:2:0.5", 48)):
        alphas = ensemble_alphas(label, n)
        sweep = FixedSweep(alphas, n)
        for x in (-0.93, 0.5, 0.999999, 1.7):
            a = sweep.rho(mpmath.mpf(x))
            b = mpf_sweep_rho(alphas, n, x)
            if abs(a - b) > mpmath.mpf(10) ** -40 * abs(b):
                raise SystemExit("fixed-point sweep disagrees at %s %s" % (label, x))

    for n in (32, 64, 128, 256, 1024, 4096):
        val, err = whole_line_count(lambda x, n=n: kac_rho(n, x), 40)
        note("real/free/%d" % n, {"value": val, "quad_err": err,
                                  "method": "Kac closed form, mpmath.quad"})
    # the Kac form and the fixed-point sweep agree on the free ensemble
    alt, _ = whole_line_count(FixedSweep(ensemble_alphas("free", 64), 64).rho, SPLIT_DEPTH)
    if abs(alt - refs["real/free/64"]["value"]) > 1e-12:
        raise SystemExit("Kac form and fixed-point sweep disagree at n = 64")

    jobs = [("power_decay:0.3:2", n) for n in (16, 32, 64, 256, 1024)]
    jobs += [("geronimus:power_decay:0.3:2:0.5", 1024),
             ("constant:0.5", 64), ("constant:0.5", 128)]
    for label, n in jobs:
        sweep = FixedSweep(ensemble_alphas(label, n), n)
        val, err = whole_line_count(sweep.rho, SPLIT_DEPTH)
        note("real/%s/%d" % (label, n),
             {"value": val, "quad_err": err,
              "method": "200-bit fixed-point Szegő sweep, mpmath.quad"})

    xs = np.linspace(*GRID)
    for label, n in (("free", 4096), ("power_decay:0.3:2", 512)):
        sweep = FixedSweep(ensemble_alphas(label, n), n)
        idx = list(range(0, len(xs), GRID_STRIDE))
        vals = [float(sweep.rho(mpmath.mpf(float(xs[i])))) for i in idx]
        note("grid/%s/%d" % (label, n),
             {"index": idx, "values": vals, "grid": list(GRID),
              "method": "200-bit fixed-point Szegő sweep"})

    rng = np.random.Generator(np.random.PCG64(20171121))
    for n, trials in ((32, 100000), (64, 100000), (128, 20000)):
        mean, se = annulus_mc(n, trials, rng)
        note("annulus/free/%d" % n,
             {"value": mean, "se": se, "trials": trials,
              "region": [0.0, math.pi, 0.3],
              "method": "Monte Carlo over Kac polynomials, companion eigenvalues"})

    with open(OUT, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s in %.0f s" % (OUT, time.time() - started))


if __name__ == "__main__":
    sys.exit(main())
