"""The benchmark's job lists and the checks that judge each result.

A job has a ``compute`` step, which is timed, and a ``check`` step, which is
not. ``check`` compares the result with an independent reference from
``references.json``, an identity (conservation, dual route, self-reciprocity)
or the quadrature's own error bound, and returns a ``Verdict``.  Jobs that
probe a known defect carry ``known_defect``; they are expected to fail until
the defect is fixed, and they still count as failed.

Library calls go through module attributes (``expectation.expected_real_zeros``
and so on) so that the tracer's patches apply to them.
"""

import json
import math
import os
import struct
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from opuczeros import cli, ensembles, expectation, intensity, montecarlo, para

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

Verdict = namedtuple("Verdict", ["ok", "detail", "diag"])

# largest Monte Carlo deviation, in standard errors, that still passes
MC_Z_LIMIT = 5.0
# the scaling-window count against its n -> infinity prediction; the finite-n
# deviation measured for the free ensemble is 1.3e-5 (n = 512), 5e-5 (n = 256)
WINDOW_REL = 1e-3
# pointwise agreement of two double-precision routes to the same intensity
ROUTE_REL = 1e-8
# the free ensemble is self-reciprocal, so rho = rho_rev on the disk; the
# kernel formula cancels where the density vanishes on R, so the grid keeps
# |arg z| >= 0.1 (1.7e-8 measured there at n = 256; 7.7e-5 at 0.01)
SELF_RECIPROCAL_REL = 1e-7

ANNULUS = (0.0, math.pi, 0.3)
WINDOW = (math.pi / 4.0, 3.0 * math.pi / 4.0, -5.0, 5.0)


@dataclass
class Job:
    name: str
    compute: Callable[[], object]
    check: Callable[[object], Verdict]
    known_defect: Optional[str] = None
    tiny: bool = False


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)


def seeded_alphas(seed, stream, n):
    """A decaying random Verblunsky sequence, alpha_k = 0.5 u_k / (k + 1)."""
    rng = np.random.default_rng([seed, stream])
    return 0.5 * rng.uniform(-1.0, 1.0, n) / (np.arange(n) + 1.0)


def digest(obj):
    """Bytes that change whenever any number in a result changes."""
    if isinstance(obj, bytes):
        return obj
    if isinstance(obj, np.ndarray):
        return obj.tobytes()
    if isinstance(obj, float):
        return struct.pack("<d", obj)
    if isinstance(obj, (int, str, type(None))):
        return repr(obj).encode()
    if isinstance(obj, dict):
        return b"".join(repr(k).encode() + digest(v) for k, v in sorted(obj.items()))
    if isinstance(obj, (list, tuple)):
        return b"(" + b",".join(digest(v) for v in obj) + b")"
    if hasattr(obj, "counts"):       # montecarlo.ZeroCountReport
        return digest((obj.mean_count, obj.std_error, obj.counts))
    raise TypeError("no digest for %r" % type(obj))


# ---------------------------------------------------------------- checks

def _finite(*values):
    return all(np.all(np.isfinite(np.asarray(v, dtype=complex))) for v in values)


def check_count(value, ref, tol):
    """A quadrature count against an oracle value, to the requested tolerance."""
    if not _finite(value):
        return Verdict(False, "non-finite count %r" % (value,), {})
    allowed = tol * max(abs(ref), 1.0)
    ratio = abs(value - ref) / allowed
    ok = ratio <= 1.0
    return Verdict(ok, "count %.12g vs reference %.12g (%.2f of tolerance)"
                   % (value, ref, ratio), {"ref_err": ratio})


def check_own_bound(value, err, tol, floor):
    """The stated error must meet the requested tol * max(|value|, floor)."""
    if not _finite(value, err):
        return Verdict(False, "non-finite value %r or error %r" % (value, err), {})
    allowed = tol * max(abs(value), floor) * (1.0 + 1e-12)
    ok = err <= allowed
    return Verdict(ok, "stated error %.3g vs allowed %.3g" % (err, allowed), {})


def check_mc(mean, se, ref, ref_se=0.0):
    """A Monte Carlo mean against a reference, in combined standard errors."""
    if not _finite(mean, se):
        return Verdict(False, "non-finite Monte Carlo mean %r" % (mean,), {})
    spread = math.hypot(se, ref_se)
    if spread <= 0.0:
        return Verdict(False, "zero standard error", {})
    z = abs(mean - ref) / spread
    return Verdict(z <= MC_Z_LIMIT, "mean %.5g vs reference %.5g (z = %.2f)"
                   % (mean, ref, z), {"mc_z": z})


def check_close(a, b, rel):
    """Pointwise agreement of two arrays, relative to the larger magnitude."""
    a = np.asarray(a)
    b = np.asarray(b)
    if not _finite(a, b):
        bad = int(np.count_nonzero(~(np.isfinite(a) & np.isfinite(b))))
        return Verdict(False, "%d non-finite points" % bad, {})
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    worst = float(np.max(np.abs(a - b) / scale))
    return Verdict(worst <= rel, "max relative difference %.3g (allowed %.1g)"
                   % (worst, rel), {})


def combine(*verdicts):
    """All sub-checks must pass; the first failure is reported."""
    diag = {}
    for v in verdicts:
        for key, val in v.diag.items():
            diag[key] = max(diag.get(key, val), val)
    for v in verdicts:
        if not v.ok:
            return Verdict(False, v.detail, diag)
    return Verdict(True, "; ".join(v.detail for v in verdicts), diag)


def window_prediction(n, window):
    """n |S| / (2 pi) (g(tau2) - g(tau1)), g(t) = 1/(1 - e^-t) - 1/t."""
    theta1, theta2, tau1, tau2 = window

    def g(t):
        return 1.0 / (1.0 - math.exp(-t)) - 1.0 / t

    return n * (theta2 - theta1) / (2.0 * math.pi) * (g(tau2) - g(tau1))


# ---------------------------------------------------------------- ensembles

PD = "power_decay:0.3:2"
GER = "geronimus:power_decay:0.3:2:0.5"
C5 = "constant:0.5"


def _alpha(label, n):
    return ensembles.materialize(ensembles.parse_ensemble(label), n)


def _seeded(seed, stream, n):
    return ensembles.materialize(ensembles.explicit(seeded_alphas(seed, stream, n)), n)


# ---------------------------------------------------------------- real_quad

REAL_TOL = 1e-6


def _real_job(name, alpha, n, ref, **kw):
    def compute():
        return expectation.expected_real_zeros(alpha, n, expectation.WholeRealLine(),
                                               tol=REAL_TOL)

    def check(res):
        parts = [check_own_bound(res.value, res.error, REAL_TOL, 2.0)]
        if ref is None:
            ok = 0.0 < res.value < n - 1
            parts.append(Verdict(ok, "count %.6g within (0, n - 1)" % res.value, {}))
        else:
            parts.append(check_count(res.value, ref, REAL_TOL))
        return combine(*parts)

    return Job(name, compute, check, **kw)


def real_quad(seed, refs):
    jobs = []
    for n in (256, 1024, 4096):
        jobs.append(_real_job("free/%d" % n, _alpha("free", n), n,
                              refs["real/free/%d" % n]["value"], tiny=n == 256))
    for n in (256, 1024):
        jobs.append(_real_job("%s/%d" % (PD, n), _alpha(PD, n), n,
                              refs["real/%s/%d" % (PD, n)]["value"]))
    jobs.append(_real_job("%s/1024" % GER, _alpha(GER, 1024), 1024,
                          refs["real/%s/1024" % GER]["value"]))
    jobs.append(_real_job("seeded/1024", _seeded(seed, 1, 1024), 1024, None))
    jobs.append(_real_job("%s/64" % C5, _alpha(C5, 64), 64,
                          refs["real/%s/64" % C5]["value"], tiny=True,
                          known_defect="ROADMAP item 4: the spike at x = 1 "
                                       "carries one zero the quadrature misses"))
    return jobs


def warm_real_quad():
    expectation.expected_real_zeros(_alpha("free", 16), 16, tol=REAL_TOL)


# ---------------------------------------------------------------- complex_quad

CONSERVATION_TOL = 1e-4


def _conservation_job(name, alpha, n, ref, slack=1.0, **kw):
    def compute():
        return expectation.conservation_check(alpha, n, tol=CONSERVATION_TOL)

    def check(res):
        # each part meets tol * max(|part|, 1) per panel set, and the parts sum
        # to about n - 1; the 3 covers the floors of the few panel sets
        allowed = slack * CONSERVATION_TOL * (n + 3)
        parts = [Verdict(_finite(res["total"]) and abs(res["defect"]) <= allowed,
                         "defect %.3g (allowed %.3g)" % (res["defect"], allowed), {})]
        if ref is not None:
            parts.append(check_count(res["expected_real"], ref, CONSERVATION_TOL))
        return combine(*parts)

    return Job(name, compute, check, **kw)


def _complex_job(name, alpha, n, region, tol, ref=None, ref_se=None, **kw):
    def compute():
        return expectation.expected_complex_zeros(alpha, n, region, tol=tol)

    def check(res):
        # one arc per region here; each arc meets tol * max(|v|, 1)
        parts = [check_own_bound(res.value, res.error, tol, 1.0)]
        if ref_se is not None:
            # a Monte Carlo reference; its z-score is not a Monte Carlo layer figure
            parts.append(check_mc(res.value, 0.0, ref, ref_se)._replace(diag={}))
        else:
            rel = abs(res.value - ref) / ref
            parts.append(Verdict(rel <= WINDOW_REL, "window %.8g vs prediction %.8g "
                                 "(rel %.2g)" % (res.value, ref, rel), {}))
        return combine(*parts)

    return Job(name, compute, check, **kw)


def complex_quad(seed, refs):
    jobs = [_conservation_job("conservation/%s/%d" % (PD, n), _alpha(PD, n), n,
                              refs["real/%s/%d" % (PD, n)]["value"], tiny=n == 16)
            for n in (16, 32, 64)]
    # total_complex_zeros can state half its true error: over 60 seeded draws
    # the defect reached 1.43 times the stated-tolerance allowance (draws 5
    # and 56).  The seeded job allows 3 times, so the seed does not decide
    # the verdict; the fixed draw below keeps the defect visible.
    jobs.append(_conservation_job("conservation/seeded/32", _seeded(seed, 2, 32), 32,
                                  None, slack=3.0))
    jobs.append(_conservation_job("conservation/draw5/32", _seeded(5, 2, 32), 32, None,
                                  known_defect="total_complex_zeros states an error "
                                               "of 0.0026 at tol 1e-4 but is off by "
                                               "0.0050"))
    ann = refs["annulus/free/64"]
    jobs.append(_complex_job("annulus/free/64", _alpha("free", 64), 64,
                             expectation.AnnularSector(*ANNULUS), 1e-6,
                             ann["value"], ann["se"]))
    win = expectation.ScalingWindow(*WINDOW)
    jobs.append(_complex_job("window/free/512", _alpha("free", 512), 512, win, 1e-6,
                             window_prediction(512, WINDOW)))
    readme = (0.8, 2.4, -5.0, 5.0)
    jobs.append(_complex_job("window/free/256/readme", _alpha("free", 256), 256,
                             expectation.ScalingWindow(*readme), 1e-8,
                             window_prediction(256, readme)))
    return jobs


def warm_complex_quad():
    expectation.conservation_check(_alpha("free", 8), 8, tol=CONSERVATION_TOL)


# ---------------------------------------------------------------- mc_roots

def _mc_job(name, alpha, n, trials, mc_seed, real_ref, ann_ref=None,
            window=False, **kw):
    batch = montecarlo.SampleBatch(n=n, alpha=alpha, seed=mc_seed, trials=trials)

    def compute():
        roots = montecarlo.sample_roots(batch)
        return (montecarlo.count_in_region(roots, expectation.WholeRealLine()),
                montecarlo.count_in_region(roots, expectation.AnnularSector(*ANNULUS)),
                montecarlo.count_in_scaling_window(
                    roots, expectation.ScalingWindow(*WINDOW), n))

    def check(res):
        real, ann, win = res
        parity = np.all(np.mod(real.counts - (n - 1), 2) == 0)
        parts = [check_mc(real.mean_count, real.std_error, real_ref),
                 Verdict(bool(parity), "real counts have the parity of n - 1", {})]
        if ann_ref is not None:
            parts.append(check_mc(ann.mean_count, ann.std_error,
                                  ann_ref["value"], ann_ref["se"]))
        if window:
            parts.append(check_mc(win.mean_count, win.std_error,
                                  window_prediction(n, WINDOW)))
        return combine(*parts)

    return Job(name, compute, check, **kw)


def _threads_job(seed):
    """One batch at one and at two worker threads; the roots must be identical."""
    batch = montecarlo.SampleBatch(n=32, alpha=_alpha("free", 32), seed=seed * 100 + 99,
                                   trials=500)

    def compute():
        return (montecarlo.sample_roots(batch, threads=1),
                montecarlo.sample_roots(batch, threads=2))

    def check(res):
        one, two = res
        same = len(one) == len(two) and all(
            a.tobytes() == b.tobytes() for a, b in zip(one, two))
        return Verdict(same, "threads=1 and threads=2 give %s roots"
                       % ("identical" if same else "different"), {})

    return Job("threads/free/32x500", compute, check, tiny=True)


def mc_roots(seed, refs):
    jobs = []
    for i, (n, trials) in enumerate(((32, 4000), (64, 1000), (128, 200))):
        jobs.append(_mc_job("free/%dx%d" % (n, trials), _alpha("free", n), n, trials,
                            seed * 100 + i, refs["real/free/%d" % n]["value"],
                            refs["annulus/free/%d" % n], window=True, tiny=n == 32))
    # the window prediction is the alpha -> 0 limit; power_decay(0.3, 2) is
    # still 1.5% off it at n = 64, so only its real count is checked
    jobs.append(_mc_job("%s/64x1000" % PD, _alpha(PD, 64), 64, 1000, seed * 100 + 3,
                        refs["real/%s/64" % PD]["value"]))
    jobs.append(_mc_job("%s/128x200" % C5, _alpha(C5, 128), 128, 200, seed * 100 + 4,
                        refs["real/%s/128" % C5]["value"],
                        known_defect="ROADMAP item 5: np.roots on the monomial "
                                     "expansion overcounts real zeros"))
    jobs.append(_threads_job(seed))
    return jobs


def warm_mc_roots():
    montecarlo.sample_roots(montecarlo.SampleBatch(n=8, alpha=_alpha("free", 8),
                                                   seed=0, trials=4))


# ---------------------------------------------------------------- grid_eval

GRID = np.linspace(-2.0, 2.0, 4001)


def _wide_real_job(label, n, ref, **kw):
    alpha = _alpha(label, n)
    idx = np.asarray(ref["index"])
    vals = np.asarray(ref["values"])

    def compute():
        return intensity.real_intensity_grid(alpha, n, GRID)

    def check(rho):
        return check_close(rho[idx], vals, ROUTE_REL)

    return Job("real_grid/%s/%d" % (label, n), compute, check, **kw)


def _interior_job():
    n = 256
    alpha = _alpha("free", n)
    r = np.linspace(0.05, 0.995, 70)
    theta = np.linspace(0.1, math.pi - 0.1, 100)
    z = (r[:, None] * np.exp(1j * theta[None, :])).ravel()

    def compute():
        return (intensity.complex_intensity_grid(alpha, n, z),
                intensity.complex_intensity_reversed_grid(alpha, n, z))

    def check(res):
        return check_close(res[0], res[1], SELF_RECIPROCAL_REL)

    return Job("complex_grid/free/256/self_reciprocal", compute, check)


def _dual_real_job(alpha, n):
    x = np.linspace(-3.0, 3.0, 601)
    x = x[np.abs(1.0 - x * x) > 1e-3]

    def compute():
        return (intensity.real_intensity_closed_grid(alpha, n, x),
                intensity.real_intensity_kernel_grid(alpha, n, x))

    def check(res):
        return check_close(res[0], res[1], ROUTE_REL)

    return Job("dual_route/real/seeded/%d" % n, compute, check, tiny=True)


def _dual_complex_job(alpha, n, seed):
    rng = np.random.default_rng([seed, 6])
    r = rng.uniform(0.3, 0.9, 40)
    theta = rng.uniform(0.25, math.pi - 0.25, 40)
    z = r * np.exp(1j * theta)

    def compute():
        kern = intensity.complex_intensity_grid(alpha, n, z)
        sig = np.array([intensity.complex_intensity(alpha, n, v,
                                                    route="sigma_decomposition").rho
                        for v in z])
        return kern, sig

    def check(res):
        return check_close(res[0], res[1], ROUTE_REL)

    return Job("dual_route/complex/seeded/%d" % n, compute, check)


def _para_job(name, alpha, n):
    points = (0.3 + 0.2j, -0.5 + 0.1j, 0.1 - 0.7j)

    def compute():
        spec = para.para_spectrum(alpha, n)
        rational = np.array([para.caratheodory(alpha, n, z) for z in points])
        integral = np.array([para.caratheodory(alpha, n, z, form="integral",
                                               spectrum=spec) for z in points])
        return spec.zeros, spec.weights, rational, integral

    def check(res):
        zeros, weights, rational, integral = res
        on_circle = float(np.max(np.abs(np.abs(zeros) - 1.0)))
        total = math.fsum(weights)
        return combine(
            Verdict(len(zeros) == n and on_circle <= 1e-12,
                    "%d zeros, max ||z| - 1| %.2g" % (len(zeros), on_circle), {}),
            Verdict(bool(np.all(weights > 0)) and abs(total - 1.0) <= 1e-12,
                    "weights positive, sum - 1 = %.2g" % (total - 1.0), {}),
            check_close(rational, integral, ROUTE_REL))

    return Job(name, compute, check, tiny=n <= 12)


class CliRunner:
    """Runs README commands through cli.main, writing into a scratch directory."""

    def __init__(self, outdir):
        self.outdir = outdir

    def job(self, name, argv, check_text, **kw):
        path = os.path.join(self.outdir, name + ".out")

        def compute():
            code = cli.main(argv + ["--out", path])
            with open(path, "rb") as fh:
                return code, fh.read()

        def check(res):
            code, data = res
            if code != 0:
                return Verdict(False, "exit code %d" % code, {})
            return check_text(data.decode())

        return Job("cli/" + name, compute, check, **kw)


def _csv_rows(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _check_intensity_csv(text):
    rows = np.array(_csv_rows(text), dtype=float)
    x, rk, rc = rows[:, 0], rows[:, 1], rows[:, 2]
    closed = np.abs(1.0 - x * x) > 1e-3
    return combine(Verdict(len(rows) == 401 and bool(np.all(np.isnan(rc[~closed]))),
                           "401 rows, closed column blank near +-1", {}),
                   check_close(rk[closed], rc[closed], ROUTE_REL))


def _check_para_csv(text):
    rows = np.array(_csv_rows(text), dtype=float)
    radius = np.hypot(rows[:, 0], rows[:, 1])
    total = math.fsum(rows[:, 3])
    ok = len(rows) == 12 and np.max(np.abs(radius - 1.0)) <= 1e-12 \
        and abs(total - 1.0) <= 1e-12
    return Verdict(bool(ok), "12 unimodular zeros, weights sum - 1 = %.2g"
                   % (total - 1.0), {})


def _check_scaling_csv(text):
    rows = np.array(_csv_rows(text), dtype=float)
    tau, dens = rows[:, 0], rows[:, 2]
    at0 = dens[np.argmin(np.abs(tau))]
    err = abs(at0 - 1.0 / (24.0 * math.pi))
    sym = float(np.max(np.abs(dens - dens[::-1])))
    return Verdict(len(rows) == 201 and err <= 1e-12 and sym <= 1e-12,
                   "density(0) - 1/(24 pi) = %.2g, asymmetry %.2g" % (err, sym), {})


def _check_geronimus_json(text):
    diff = json.loads(text)["max_abs_difference"]
    return Verdict(math.isfinite(diff) and diff <= 1e-10,
                   "update vs moment oracle %.2g" % diff, {})


def _check_conservation_json(text):
    doc = json.loads(text)
    allowed = 1e-4 * (doc["n"] + 3)
    return Verdict(math.isfinite(doc["defect"]) and abs(doc["defect"]) <= allowed,
                   "defect %.3g (allowed %.3g)" % (doc["defect"], allowed), {})


def _exterior_probe():
    n = 300
    alpha = _alpha("free", n)
    r = np.linspace(1.4, 2.0, 5)
    theta = np.linspace(0.1, math.pi - 0.1, 20)
    z = np.append((r[:, None] * np.exp(1j * theta[None, :])).ravel(),
                  1.4 * np.exp(0.5j))
    u = 1.0 / z

    def compute():
        with np.errstate(all="ignore"):
            return (intensity.complex_intensity_grid(alpha, n, z),
                    intensity.complex_intensity_reversed_grid(alpha, n, u))

    def check(res):
        rho, rho_rev = res
        return check_close(rho, np.abs(u) ** -4 * rho_rev, ROUTE_REL)

    return Job("exterior/free/300", compute, check, tiny=True,
               known_defect="K^2 overflows in intensity._bundle_intensity for "
                            "|z| > 1 at large n and yields nan")


def grid_eval(seed, refs, outdir):
    seeded = _seeded(seed, 4, 64)
    jobs = [_wide_real_job("free", 4096, refs["grid/free/4096"]),
            _wide_real_job(PD, 512, refs["grid/%s/512" % PD]),
            _interior_job(),
            _dual_real_job(seeded, 64),
            _dual_complex_job(seeded, 64, seed),
            _para_job("para/%s/12" % C5, _alpha(C5, 12), 12),
            _para_job("para/seeded/64", seeded, 64)]
    cli_ = CliRunner(outdir)
    jobs += [
        cli_.job("intensity", ["intensity", "--ensemble", PD, "--n", "64",
                               "--real-grid=-2:2:401"], _check_intensity_csv),
        cli_.job("para-spectrum", ["para-spectrum", "--ensemble", C5, "--n", "12"],
                 _check_para_csv, tiny=True),
        cli_.job("scaling-limit", ["scaling-limit", "--tau-grid=-10:10:201"],
                 _check_scaling_csv),
        cli_.job("geronimus-check", ["geronimus-check", "--base", PD, "--t", "0.5",
                                     "--count", "12"], _check_geronimus_json),
        cli_.job("conservation-check", ["conservation-check", "--n", "16",
                                        "--tolerance", "1e-4"],
                 _check_conservation_json),
        _exterior_probe(),
    ]
    return jobs


def warm_grid_eval():
    intensity.real_intensity_grid(_alpha("free", 8), 8, np.linspace(-2.0, 2.0, 9))


WORKLOADS = {
    "real_quad": (real_quad, warm_real_quad),
    "complex_quad": (complex_quad, warm_complex_quad),
    "mc_roots": (mc_roots, warm_mc_roots),
    "grid_eval": (grid_eval, warm_grid_eval),
}


def build(workload, seed, refs, outdir):
    """The workload's job list; ensembles are materialized here, in set-up."""
    make, _ = WORKLOADS[workload]
    if workload == "grid_eval":
        return make(seed, refs, outdir)
    return make(seed, refs)


def warm_up(workload):
    WORKLOADS[workload][1]()
