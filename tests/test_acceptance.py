"""Acceptance gate: one test per criterion, each printing PASS or FAIL.

Run with -s (or read captured output on failure) for the per-criterion
report lines.  Tolerances are pinned; see the README for the criteria.
"""

import math
import time

import numpy as np

from opuczeros import (AnnularSector, SampleBatch, VerblunskySequence,
                       WholeRealLine, caratheodory, complex_intensity,
                       conservation_check, count_in_region,
                       expected_complex_zeros, expected_real_zeros,
                       h_via_caratheodory, para_spectrum, sample_roots,
                       scaling_limit_density)
from opuczeros.ensembles import (geronimus_alphas, materialize,
                                 moments_from_verblunsky, power_decay,
                                 verblunsky_from_moments)
from opuczeros.expectation import ScalingWindow
from opuczeros.intensity import (complex_intensity_grid, growth_log_derivative,
                                 h_closed, h_kac, real_intensity_closed_grid,
                                 real_intensity_kernel_grid)


def free_seq():
    return VerblunskySequence(generator=lambda k: 0.0)


def _report(num, ok, detail):
    print("criterion %d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def test_criterion_01_kac_baseline_exactness():
    start = time.time()
    x = np.linspace(-0.99, 0.99, 200)
    worst = 0.0
    for n in (2, 5, 16, 64):
        a = h_closed(free_seq(), n, x)
        b = h_kac(n, x)
        worst = max(worst, np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))
    elapsed = time.time() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(1, ok, "worst rel %.2e, %.2fs" % (worst, elapsed))


def test_criterion_02_dual_route_real_intensity():
    start = time.time()
    rng = np.random.default_rng(201)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 129))
        al = VerblunskySequence(values=rng.uniform(-0.8, 0.8, n))
        while True:
            x = rng.uniform(-3.0, 3.0)
            if abs(1.0 - x * x) > 1e-3:
                break
        rk = real_intensity_kernel_grid(al, n, [x])[0]
        rc = real_intensity_closed_grid(al, n, [x])[0]
        worst = max(worst, abs(rk - rc) / max(abs(rk), abs(rc), 1e-300))
    elapsed = time.time() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(2, ok, "worst rel %.2e over 500 triples, %.2fs" % (worst, elapsed))


def test_criterion_03_dual_route_complex_intensity():
    start = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    count = 0
    while count < 200:
        n = int(rng.integers(3, 65))
        al = VerblunskySequence(values=rng.uniform(-0.8, 0.8, n))
        r = rng.uniform(0.1, 1.5)
        if abs(r - 1.0) < 0.1:
            continue
        theta = rng.uniform(0.1, math.pi - 0.1)
        z = r * math.cos(theta) + 1j * r * math.sin(theta)
        a = complex_intensity(al, n, z, route="kernel_form").rho
        b = complex_intensity(al, n, z, route="sigma_decomposition").rho
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-12))
        count += 1
    elapsed = time.time() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(3, ok, "worst rel %.2e over 200 points, %.2fs" % (worst, elapsed))


def test_criterion_04_exact_degree_one_count():
    val = expected_real_zeros(free_seq(), 2).value
    ok = abs(val - 1.0) <= 1e-8
    _report(4, ok, "E[N_2] = %.12f" % val)


def test_criterion_05_log_law_slope():
    start = time.time()
    ns = [64, 128, 256, 512, 1024, 2048, 4096]
    target = 2.0 / math.pi
    details = []
    ok = True
    for label, seq in (("free", free_seq()),
                       ("power_decay(0.3,2)", materialize(power_decay(0.3, 2), 4096))):
        counts = [expected_real_zeros(seq, n, tol=1e-4).value for n in ns]
        slope = np.polyfit(np.log(ns), counts, 1)[0]
        rel = abs(slope - target) / target
        ok = ok and rel <= 0.05
        details.append("%s slope %.4f (rel %.3f)" % (label, slope, rel))
    elapsed = time.time() - start
    ok = ok and elapsed < 300.0
    _report(5, ok, "; ".join(details) + ", %.1fs" % elapsed)


def test_criterion_06_complex_limit_value():
    seq = VerblunskySequence(generator=lambda k: 1.0 / (k + 2) ** 2)
    rho = complex_intensity_grid(seq, 512, [0.5j])[0]
    rel = abs(rho - 0.4527074) / 0.4527074
    ok = rel <= 0.02
    _report(6, ok, "rho_512(0.5i) = %.7f, rel %.2e" % (rho, rel))


def test_criterion_07_scaling_limit():
    start = time.time()
    n = 512
    win = ScalingWindow(math.pi / 4.0, 3.0 * math.pi / 4.0, -5.0, 5.0)
    res = expected_complex_zeros(free_seq(), n, win, tol=1e-6)
    g = growth_log_derivative
    pred = n * (math.pi / 2.0) / (2.0 * math.pi) * (g(5.0) - g(-5.0))
    rel = abs(res.value - pred) / pred
    dens0 = scaling_limit_density(0.0)
    d0_err = abs(dens0 - 1.0 / (24.0 * math.pi))
    ok = rel <= 0.05 and d0_err <= 1e-10
    elapsed = time.time() - start
    _report(7, ok, "window rel %.2e, density(0) err %.2e, %.1fs"
            % (rel, d0_err, elapsed))


def test_criterion_08_paraorthogonal_structure():
    rng = np.random.default_rng(208)
    worst_mod = worst_sum = worst_f = worst_h = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 33))
        al = VerblunskySequence(values=rng.uniform(-0.9, 0.9, n))
        spec = para_spectrum(al, n)
        worst_mod = max(worst_mod, np.max(np.abs(np.abs(spec.zeros) - 1.0)))
        assert np.all(spec.weights > 0.0)
        worst_sum = max(worst_sum, abs(math.fsum(spec.weights) - 1.0))
        z = rng.uniform(0.2, 0.8) * np.exp(1j * rng.uniform(0.3, 2.8))
        fr = caratheodory(al, n, z, form="rational")
        fi = caratheodory(al, n, z, form="integral", spectrum=spec)
        worst_f = max(worst_f, abs(fr - fi) / max(abs(fr), 1e-300))
        x = rng.uniform(-0.9, 0.9)
        ha = float(h_via_caratheodory(al, n, x))
        hb = float(h_closed(al, n, x))
        worst_h = max(worst_h, abs(ha - hb))
    ok = (worst_mod <= 1e-10 and worst_sum <= 1e-12
          and worst_f <= 1e-9 and worst_h <= 1e-10)
    _report(8, ok, "|zeta| %.1e, weight sum %.1e, F %.1e, h %.1e"
            % (worst_mod, worst_sum, worst_f, worst_h))


def test_criterion_09_point_mass_update():
    worst = 0.0
    for base_alpha in (free_seq(), materialize(power_decay(0.3, 2), 16)):
        mom = moments_from_verblunsky(base_alpha, 12)
        for t in (0.25, 0.5, 0.9):
            rec = geronimus_alphas(base_alpha, t, 12)
            mom_mu = t * mom + (1.0 - t)
            mom_mu[0] = 1.0
            oracle = verblunsky_from_moments(mom_mu)
            worst = max(worst, float(np.max(np.abs(rec - oracle))))
    half = geronimus_alphas(free_seq(), 0.5, 12)
    closed = np.array([1.0 / (k + 2) for k in range(12)])
    half_err = float(np.max(np.abs(half - closed)))
    ok = worst <= 1e-8 and half_err <= 1e-12
    _report(9, ok, "oracle diff %.2e, closed-form diff %.2e" % (worst, half_err))


def test_criterion_10_monte_carlo_concordance():
    start = time.time()
    seq = free_seq()
    expect = expected_real_zeros(seq, 32).value
    rep = count_in_region(
        sample_roots(SampleBatch(n=32, alpha=seq, seed=310, trials=10000)),
        WholeRealLine())
    dev = abs(rep.mean_count - expect)
    ok = dev <= 3.0 * rep.std_error
    sector = AnnularSector(0.0, math.pi, 0.2)
    discrepancies = []
    for n, trials in ((64, 2000), (256, 800)):
        roots = sample_roots(SampleBatch(n=n, alpha=seq, seed=n, trials=trials))
        frac = count_in_region(roots, sector).mean_count / (n - 1)
        discrepancies.append(abs(frac - 0.5))
    ok = ok and discrepancies[1] < discrepancies[0]
    elapsed = time.time() - start
    ok = ok and elapsed < 300.0
    _report(10, ok, "real dev %.3f (3se %.3f), discrepancy %.4f -> %.4f, %.1fs"
            % (dev, 3.0 * rep.std_error, discrepancies[0], discrepancies[1],
               elapsed))


def test_criterion_11_degree_conservation():
    rng = np.random.default_rng(211)
    worst = 0.0
    for n in (4, 8, 16, 32):
        al = VerblunskySequence(values=rng.uniform(-0.6, 0.6, n))
        rep = conservation_check(al, n)
        worst = max(worst, abs(rep["defect"]))
        roots = sample_roots(SampleBatch(n=n, alpha=al, seed=n, trials=50))
        assert all(len(r) == n - 1 for r in roots)
    # measured 4.3e-8 at n = 32: the nonreal zeros inside the guard band
    ok = worst <= 1e-6
    _report(11, ok, "worst conservation defect %.2e" % worst)
