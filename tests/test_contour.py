"""The contour route for complex counts against its oracles.

expected_complex_zeros integrates E[P'/P] around the region's boundary and
total_complex_zeros along two rays; the 2-D area route (_integrate_sector
over the complex intensity) and a high-precision evaluation of E[P'/P] are
the independent checks.
"""

import math

import numpy as np
import pytest

from opuczeros import (AnnularSector, OutOfDomainError, ScalingWindow,
                       VerblunskySequence, _quad, expectation,
                       expected_complex_zeros, intensity, szego, total_complex_zeros)
from opuczeros.ensembles import constant, free, materialize, power_decay
from opuczeros.expectation import GUARD_THETA, _clip_arcs, _integrate_sector
from opuczeros.intensity import (complex_intensity_grid,
                                 complex_intensity_reversed_grid,
                                 log_derivative_grid, log_derivative_pair_grid)

# the rounding floor every contour solve states at least
FLOOR = 1e-13


def _seeded(seed, n):
    rng = np.random.default_rng(seed)
    return VerblunskySequence(values=0.5 * rng.uniform(-1.0, 1.0, n) / (np.arange(n) + 1.0))


def _area_count(alpha, n, region, tol):
    """The region's count by the 2-D route, split as the area solve needs."""
    arcs = _clip_arcs(region.theta1, region.theta2, GUARD_THETA)
    if isinstance(region, AnnularSector):
        r1, r2 = 1.0 - region.delta, 1.0 + region.delta
        rsplits = (1.0 - 1.0 / n, 1.0, 1.0 + 1.0 / n)
    else:
        r1, r2 = 1.0 + region.tau1 / (2.0 * n), 1.0 + region.tau2 / (2.0 * n)
        rsplits = (1.0,) if r1 < 1.0 < r2 else ()
    return _integrate_sector(alpha, n, arcs, r1, r2, tol, rsplits)


@pytest.mark.parametrize("name, alpha, n, region", [
    ("free annulus", materialize(free(), 64), 64, AnnularSector(0.0, math.pi, 0.3)),
    ("power_decay full turn", materialize(power_decay(0.3, 2), 32), 32,
     AnnularSector(0.0, 2.0 * math.pi, 0.2)),
    ("seeded annulus", _seeded(3, 48), 48, AnnularSector(0.4, 2.9, 0.25)),
    ("free window across R", materialize(free(), 64), 64, ScalingWindow(-0.5, 0.5, -5.0, 5.0)),
    ("seeded window below R", _seeded(4, 32), 32, ScalingWindow(-2.5, -0.6, -3.0, 4.0)),
    ("power_decay window", materialize(power_decay(0.3, 2), 64), 64,
     ScalingWindow(math.pi / 4, 3 * math.pi / 4, -5.0, 5.0)),
])
def test_contour_route_matches_area_route(name, alpha, n, region):
    # an edge traversed the wrong way cancels on windows symmetric about the
    # imaginary axis but moves the n = 64 annulus by about 2
    got = expected_complex_zeros(alpha, n, region, tol=1e-8)
    area, area_err = _area_count(alpha, n, region, 1e-8)
    assert FLOOR * max(abs(got.value), 1.0) <= got.error <= 1e-8 * max(abs(got.value), 1.0)
    assert abs(got.value - area) <= got.error + area_err, name


def _draw(i):
    rng = np.random.default_rng([2026, i])
    n = int(round(2.0 ** rng.uniform(5.0, 9.0)))
    kind = i % 3
    if kind == 0:
        alpha = materialize(free(), n)
    elif kind == 1:
        alpha = materialize(power_decay(rng.uniform(0.1, 0.6), rng.uniform(0.5, 2.0)), n)
    else:
        alpha = _seeded([2026, i, 1], n)
    theta1 = rng.uniform(-math.pi, math.pi)
    theta2 = theta1 + rng.uniform(0.05, 2.0 * math.pi)
    if i % 2:
        region = AnnularSector(theta1, theta2, rng.uniform(0.05, 0.6))
    else:
        tau1 = rng.uniform(-10.0, 2.0)
        region = ScalingWindow(theta1, theta2, tau1, tau1 + rng.uniform(0.5, 10.0))
    return alpha, n, region, 10.0 ** -int(rng.integers(4, 9))


def test_stated_error_is_honest(monkeypatch):
    # 60 seeded draws: free, power_decay and random ensembles, n in 32..512,
    # random angular ranges, annuli and scaling windows, tol 1e-4..1e-8.
    # The reference is solved to 1e-10 from arc panels half as wide; the
    # 1e-13 floor covers the rounding of the two sums
    draws = [_draw(i) for i in range(60)]
    got = [expected_complex_zeros(alpha, n, region, tol=tol)
           for alpha, n, region, tol in draws]
    monkeypatch.setattr(expectation, "_ARC_PANEL", expectation._ARC_PANEL / 2.0)
    for (alpha, n, region, tol), res in zip(draws, got):
        ref = expected_complex_zeros(alpha, n, region, tol=1e-10).value
        floor = FLOOR * max(abs(res.value), 1.0)
        assert res.error <= tol * max(abs(res.value), 1.0)
        assert abs(res.value - ref) <= res.error + floor, (n, region, tol)


def test_window_512_within_its_stated_error():
    # the 2-D route stated 1.22e-5 here and was off by 6.2e-5
    got = expected_complex_zeros(materialize(free(), 512), 512,
                                 ScalingWindow(math.pi / 4, 3 * math.pi / 4, -5.0, 5.0),
                                 tol=1e-6)
    assert abs(got.value - 78.5356121950) <= got.error + 5e-11


def test_free_window_counts_approach_the_near_circle_prediction():
    # the paper's near-circle count n |S|/(2 pi) (g(tau2) - g(tau1)) is the
    # limit; the relative deviation falls about 16 times per 4 times in n
    # (measured -1.28e-5, -8.0e-7 and -5.0e-8 at n = 512, 2048 and 8192)
    window = ScalingWindow(math.pi / 4, 3 * math.pi / 4, -5.0, 5.0)
    dev = {}
    for n in (2048, 8192):
        got = expected_complex_zeros(materialize(free(), n), n, window, tol=1e-8)
        dev[n] = (got.value - got.prediction) / got.prediction
    assert abs(dev[8192]) <= 1e-7
    assert abs(dev[2048]) >= 10.0 * abs(dev[8192])


def test_degree_one_and_empty_regions_have_no_complex_zeros():
    got = expected_complex_zeros(materialize(free(), 1), 1, AnnularSector(0.0, math.pi, 0.3))
    assert (got.value, got.error) == (0.0, 0.0)
    # inside the guard band: no sector is left to count
    got = expected_complex_zeros(materialize(free(), 16), 16, AnnularSector(-1e-6, 1e-6, 0.3))
    assert (got.value, got.error) == (0.0, 0.0)


@pytest.mark.parametrize("n", [0, -3])
def test_total_needs_a_positive_degree(n):
    # n = 0 once raised ZeroDivisionError and n = -3 returned 0.0
    with pytest.raises(OutOfDomainError):
        total_complex_zeros(materialize(free(), 4), n)


def _area_total(alpha, n, tol):
    """The whole-plane total by the 2-D route: the complex intensity over the
    upper half disk plus the reversed intensity over it for |z| > 1."""
    arcs = _clip_arcs(0.0, math.pi, GUARD_THETA)
    rsplits = (0.5, 1.0 - 2.0 / n, 1.0 - 0.5 / n)
    parts = [_integrate_sector(alpha, n, arcs, 1e-6, 1.0, tol, rsplits=rsplits, rho=rho)
             for rho in (complex_intensity_grid, complex_intensity_reversed_grid)]
    return 2.0 * sum(v for v, _ in parts), 2.0 * sum(e for _, e in parts)


@pytest.mark.parametrize("name, alpha, n", [
    ("power_decay", materialize(power_decay(0.3, 2), 16), 16),
    ("power_decay", materialize(power_decay(0.3, 2), 32), 32),
    ("power_decay", materialize(power_decay(0.3, 2), 64), 64),
    ("seeded", _seeded([7, 2], 32), 32),
    # the 2-D route at tol 1e-4 stated 0.0026 here and was off by 0.0050
    ("draw5", _seeded([5, 2], 32), 32),
    ("free", materialize(free(), 64), 64),
])
def test_total_matches_area_route(name, alpha, n):
    got = total_complex_zeros(alpha, n, tol=1e-6)
    area, area_err = _area_total(alpha, n, 1e-6)
    assert FLOOR * max(got.value, 1.0) <= got.error <= 1e-6 * max(got.value, 1.0)
    assert abs(got.value - area) <= got.error + area_err, name


def test_total_solve_sweeps_once_per_round(monkeypatch):
    rounds, sweeps = [], []
    estimate, sweep = _quad._estimate, intensity._sweep

    def counting_estimate(*args):
        rounds.append(1)
        return estimate(*args)

    def counting_sweep(a, z):
        sweeps.append(np.size(z))
        return sweep(a, z)

    monkeypatch.setattr(_quad, "_estimate", counting_estimate)
    monkeypatch.setattr(intensity, "_sweep", counting_sweep)
    # constant(0.5) refines toward its real zero at x = 1 for several rounds
    for alpha, n in ((materialize(free(), 64), 64), (materialize(constant(0.5), 64), 64)):
        del rounds[:], sweeps[:]
        total_complex_zeros(alpha, n, tol=1e-6)
        assert len(sweeps) == len(rounds) >= 1
        assert max(sweeps) <= _quad._CHUNK
    assert len(rounds) > 1


def _log_derivative_mp(a, n, z, mpmath):
    """E[P'/P] from the four sums of a high-precision Szegő sweep."""
    z = mpmath.mpc(z)
    phi, phis, dphi, dphis = mpmath.mpf(1), mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)
    A = B = C = D = 0
    for k in range(n):
        A += abs(phi) ** 2
        B += phi * phi
        C += dphi * mpmath.conj(phi)
        D += dphi * phi
        if k < n - 1:
            ak = mpmath.mpf(float(a[k]))
            s = 1 / mpmath.sqrt(1 - ak * ak)
            zphi, zdphi = z * phi, phi + z * dphi
            phi, phis = (zphi - ak * phis) * s, (phis - ak * zphi) * s
            dphi, dphis = (zdphi - ak * dphis) * s, (dphis - ak * zdphi) * s
    det = A * A - abs(B) ** 2
    c = (C * A - D * mpmath.conj(B)) / det
    d = (D * A - C * B) / det
    return c + d * mpmath.conj(B) / (A + mpmath.sqrt(det))


def _head_and_tail(k, n):
    """k random coefficients, the last 0.3, then zeros: a Bernstein-Szegő measure."""
    rng = np.random.default_rng([23, k])
    a = np.zeros(n)
    a[:k] = 0.5 * rng.uniform(-1.0, 1.0, k) / np.sqrt(np.arange(k) + 1.0)
    a[k - 1] = 0.3
    return VerblunskySequence(values=a)


@pytest.mark.parametrize("k, n", [
    (0, 2), (0, 3), (0, 64), (0, 4096), (5, 64), (20, 512), (200, 1024),
])
def test_zero_tail_folds_match_high_precision(k, n):
    # past the last nonzero coefficient alpha_(k-1) the rows are z^i phi_k,
    # added by doubling, not swept (k = 0 is the free ensemble).  |z| = 0.3
    # and 1.3 make z^m underflow and overflow at n = 4096; 0.9i gives blocks
    # whose real part is 0.  The reversed fold's tail is the same block in u
    mpmath = pytest.importorskip("mpmath")
    seq = materialize(free(), n) if k == 0 else _head_and_tail(k, n)
    a, g = seq.array(n), GUARD_THETA
    z = [0.3 * np.exp(0.7j), 1.3 * np.exp(0.7j), 0.9j, np.exp(1j * (math.pi - g))]
    u = [0.9 * np.exp(2.5j)] + ([1e-20 * np.exp(0.7j)] if k == 0 else [])
    if n <= 64:
        z += [0.3 * np.exp(0.01j), np.exp(2.5j), 1.3 * np.exp(-2.5j), 0.9 * np.exp(1j * g)]
        u += [0.3 * np.exp(0.01j), np.exp(0.7j), 0.9 * np.exp(1j * g)]
    got = log_derivative_grid(seq, n, z)
    for zi, f in zip(z, got):
        with mpmath.workdps(60):
            want = complex(_log_derivative_mp(a, n, zi, mpmath))
        rel = 1e-9 if min(abs(np.angle(zi)), math.pi - abs(np.angle(zi))) < 0.01 else 1e-12
        assert abs(f - want) <= rel * abs(want), zi
    got = log_derivative_pair_grid(seq, n, u)[1]
    for ui, f in zip(u, got):
        with mpmath.workdps(120):
            v = mpmath.mpc(ui)
            want = complex((n - 1) / v - _log_derivative_mp(a, n, 1 / v, mpmath) / v ** 2)
        rel = 1e-9 if np.angle(ui) < 0.01 else 1e-12
        assert abs(f - want) <= rel * abs(want), ui


@pytest.mark.parametrize("k, n", [(0, 64), (0, 256), (0, 512), (0, 2048), (5, 256), (20, 512)])
def test_closed_form_tail_matches_high_precision(k, n):
    # away from R the tail block of E[P'/P] is taken in closed form: on the
    # window rings 1 -+ 5/(2n) (the direct moments), on and next to the
    # circle (the series for |N ln t| <= 3), and where allowed at 0.7 and
    # 1.3.  Measured against 60-digit sums: at most 3.4e-15 relative (the
    # doubling: 3.2e-14), as c = -ln|z|^2 comes from a compensated 1 - |z|^2
    mpmath = pytest.importorskip("mpmath")
    seq = materialize(free(), n) if k == 0 else _head_and_tail(k, n)
    a = seq.array(n)
    radii = (1.0 - 2.5 / n, 1.0 + 2.5 / n, 1.0, 1.0 + 0.25 / n, 0.7, 1.3)
    z = np.array([r * np.exp(1j * t) for r in radii for t in (math.pi / 4, 1.3, math.pi / 2, 2.4)])
    idx, _ = intensity._closed_tail(z, n - k)
    assert set(range(16)) <= set(idx.tolist())
    got = log_derivative_grid(seq, n, z)
    for zi, f in zip(z, got):
        with mpmath.workdps(60):
            want = complex(_log_derivative_mp(a, n, zi, mpmath))
        assert abs(f - want) <= 1e-14 * abs(want), zi


@pytest.mark.parametrize("name, n, r", [
    ("free", 64, 0.7), ("free", 1024, 1.3), ("constant(0.5)", 839, 1.0),
    ("power_decay(0.9, 0.5)", 1000, 0.7), ("power_decay(0.9, 0.5)", 1000, 1.3),
])
def test_log_derivative_at_the_guard_angle_matches_high_precision(name, n, r):
    # A^2 - |B|^2 vanishes on R; formed directly it loses digits at the
    # guard angle, and A^2 overflows at n = 1024, |z| = 1.3.  Measured
    # relative error of the residual form: at most 4e-11.
    mpmath = pytest.importorskip("mpmath")
    alpha = {"free": free(), "constant(0.5)": constant(0.5),
             "power_decay(0.9, 0.5)": power_decay(0.9, 0.5)}[name]
    seq = materialize(alpha, n)
    for z in (r * np.exp(1j * GUARD_THETA), r * np.exp(-1j * GUARD_THETA)):
        got = log_derivative_grid(seq, n, [z])[0]
        with mpmath.workdps(120):
            want = complex(_log_derivative_mp(seq.array(n), n, z, mpmath))
        assert abs(got - want) <= 1e-9 * abs(want), z


@pytest.mark.parametrize("name, n", [
    ("free", 32), ("constant(0.5)", 48), ("power_decay(0.9, 0.5)", 64),
])
def test_reversed_log_derivative_matches_high_precision(name, n):
    # reference: E[P^*'/P^*](u) = (n - 1)/u - E[P'/P](1/u)/u^2 at 120 digits,
    # which cancels 8 digits at |u| = 1e-6 that float64 cannot spare.
    # There, next to R, Re E[P^*'/P^*] keeps only about 5 digits (measured
    # 7e-6 relative): C/A - (D/A) conj(b)/(1 + sqrt(delta)) cancels to
    # sqrt(delta) ~ |u| g.  The totals integrate Im(e^(i theta) E), which
    # keeps 3e-11.  At |u| = 1e-12 and 1e-20 u^(n-1) underflows to 0, and
    # the power chain once carried that 0 to every degree ("too close to
    # R"); other ensembles than the free one lose digits there, see below.
    mpmath = pytest.importorskip("mpmath")
    alpha = {"free": free(), "constant(0.5)": constant(0.5),
             "power_decay(0.9, 0.5)": power_decay(0.9, 0.5)}[name]
    seq = materialize(alpha, n)
    tiny = (1e-12, 1e-20) if name == "free" else ()
    for x in (*tiny, 1e-6, 0.5, 1.0 - 1e-3):
        for theta in (GUARD_THETA, 1.0, math.pi - GUARD_THETA):
            e = np.exp(1j * theta)
            _, got = log_derivative_pair_grid(seq, n, [x * e])
            with mpmath.workdps(120):
                u = mpmath.mpc(x * e)
                want = complex((n - 1) / u - _log_derivative_mp(seq.array(n), n, 1 / u,
                                                                mpmath) / u ** 2)
            assert abs((e * (got[0] - want)).imag) <= 1e-9 * abs(want), (x, theta)
            rel = 1e-9 if x > 1e-3 else 1e-4
            assert abs(got[0] - want) <= rel * abs(want), (x, theta)


@pytest.mark.parametrize("seq, n, u", [
    (materialize(power_decay(0.3, 2), 64), 64, 0.999 * np.exp(1j * math.pi / 6)),
    (_head_and_tail(6, 64), 64, 0.999j),
    (_head_and_tail(20, 512), 512, 0.9995 * np.exp(1j * math.pi / 1022)),
    (materialize(constant(0.5), 48), 48, 0.99 * np.exp(1j * math.pi / 94)),
], ids=["power_decay(0.3, 2)", "head 6", "head 20", "constant(0.5)"])
def test_reversed_first_row_matches_high_precision(seq, n, u):
    # the reversed basis starts with the row u^(n-1) phi_0^*, nearly
    # imaginary at these points; a fold through the slope sum x y / sum x^2
    # of the rows' real and imaginary parts lost up to 5e-4 relative here.
    # The last case, whose first row is not nearly imaginary, is the control
    mpmath = pytest.importorskip("mpmath")
    _, got = log_derivative_pair_grid(seq, n, [u])
    with mpmath.workdps(120):
        v = mpmath.mpc(u)
        want = complex((n - 1) / v - _log_derivative_mp(seq.array(n), n, 1 / v, mpmath) / v ** 2)
    assert abs(got[0] - want) <= 1e-13 * abs(want)


@pytest.mark.xfail(strict=True, reason="E[P^*'/P^*] loses relative accuracy like "
                   "eps/|u| near u = 0 beyond the free ensemble")
@pytest.mark.parametrize("name, n", [("constant(0.5)", 48), ("power_decay(0.9, 0.5)", 64)])
def test_reversed_log_derivative_near_zero_beyond_the_free_ensemble(name, n):
    # measured relative error at arg u = 1: about 1e-4 at |u| = 1e-12 and
    # 1e3 to 1e4 at 1e-20, finite and unflagged.  The sweep is accurate
    # there; the rows of degree n - 1 and n - 2 take u^0 from the power
    # chain, whose phase error of about eps swamps imaginary parts of size |u|
    mpmath = pytest.importorskip("mpmath")
    seq = materialize({"constant(0.5)": constant(0.5),
                       "power_decay(0.9, 0.5)": power_decay(0.9, 0.5)}[name], n)
    for x in (1e-12, 1e-20):
        u = x * np.exp(1j)
        _, got = log_derivative_pair_grid(seq, n, [u])
        with mpmath.workdps(120):
            want = complex((n - 1) / mpmath.mpc(u) - _log_derivative_mp(
                seq.array(n), n, 1 / mpmath.mpc(u), mpmath) / mpmath.mpc(u) ** 2)
        assert abs(got[0] - want) <= 1e-4 * abs(want), x


def test_reversed_log_derivative_is_finite_at_high_degree_near_zero():
    # u^(n - 1) underflows at n = 512, |u| = 1e-6: the low degrees must be
    # skipped, not folded as 0/0
    u = 1e-6 * np.exp(1j * np.array([GUARD_THETA, math.pi - GUARD_THETA]))
    for alpha in (free(), power_decay(0.3, 2)):
        e, e_rev = log_derivative_pair_grid(materialize(alpha, 512), 512, u)
        assert np.all(np.isfinite(e)) and np.all(np.isfinite(e_rev))


def _same_bytes(got, want):
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_contour_fold_does_not_depend_on_the_grid():
    # each point's E[P'/P] swept alone equals its value inside a wide grid
    # byte for byte: in the grid the other points rescale at other degrees
    # (the fold divides this point's sums by 1 there), and in the reversed
    # basis they start K at other degrees (u^(n-1-i) underflows longer at
    # smaller |u|).  The window rings 1 -+ 5/1024 take the tail in closed
    # form away from R and by doubling next to it, in the same grid
    rng = np.random.default_rng(16)
    big = VerblunskySequence(values=rng.choice([-1.0, 1.0], 600) * rng.uniform(0.7, 0.9, 600))
    e = np.exp(1j * np.array([GUARD_THETA, 0.4, 1.5, 2.8, math.pi - GUARD_THETA, -0.7]))
    z = np.concatenate([r * e for r in (0.3, 0.9, 1.0, 1.1, 2.0, 1.0 - 5 / 1024, 1.0 + 5 / 1024)])
    u = np.concatenate([r * e for r in (1e-6, 1e-3, 0.5, 0.99, 1.0, 1.0 - 5 / 1024)])
    for points, n in ((z, 512), (z, 492), (u, 492)):
        closed = len(intensity._closed_tail(points, n)[0])
        assert 0 < closed < len(points)
    partial = 0
    for alpha, n in ((big, 600), (materialize(free(), 512), 512), (_head_and_tail(20, 512), 512)):
        for points in (z, u):
            partial += any(sc is not None and np.any(sc == 1.0) and np.any(sc != 1.0)
                           for _, _, sc in szego._sweep(alpha.array(n - 1), points))
        # the empty grid too, with no point on the closed-form route
        assert log_derivative_grid(alpha, n, z[:0]).shape == (0,)
        assert [f.shape for f in log_derivative_pair_grid(alpha, n, u[:0])] == [(0,), (0,)]
        wide = log_derivative_grid(alpha, n, z)
        for i in range(len(z)):
            assert _same_bytes(log_derivative_grid(alpha, n, z[i:i + 1]), wide[i:i + 1])
        wide = log_derivative_pair_grid(alpha, n, u)
        for i in range(len(u)):
            for alone, w in zip(log_derivative_pair_grid(alpha, n, u[i:i + 1]), wide):
                assert _same_bytes(alone, w[i:i + 1])
    # some sweep rescales some points at a degree and leaves others alone
    assert partial >= 2


def _direct_a_b(steps):
    """sum |v|^2 and sum v^2 added term by term over the rows of steps."""
    def add(state, V, S):
        a, b = state
        v = V[0]
        return a + (v.real * v.real + v.imag * v.imag), b + v * v

    (a, b), _ = szego._fold(steps, add, (0.0, 0.0), (2, 2))
    return a, b


@pytest.mark.parametrize("n", [16, 256, 1024])
def test_derived_a_and_b_match_direct_sums(n):
    # A = K (1 + mu^2) + R and B = K (1 + i mu)^2 - R from the regression
    # state, against the direct sums, in both bases: at the guard angle
    # (where A^2 - |B|^2 nearly vanishes), in the interior, and reversed
    # down to |u| = 1e-6, where the low degrees are skipped
    e = np.exp(1j * np.array([GUARD_THETA, math.pi - GUARD_THETA, 1.2]))
    z = np.concatenate([r * e for r in (0.5, 0.9, 1.0, 1.3)])
    u = np.concatenate([r * e for r in (1e-6, 0.5, 1.0 - 1e-3)])
    for spec in (free(), constant(0.5), power_decay(0.9, 0.5)):
        a = materialize(spec, n).array(n - 1)
        for points, rows, m in ((z, lambda s: s, len(z)),
                                (u, lambda s: intensity._pair_rows(s, n, u), 2 * len(u))):
            got_a, got_b, *_ = intensity._contour_sums(rows(szego._sweep(a, points)), m)
            want_a, want_b = _direct_a_b(rows(szego._sweep(a, points)))
            assert np.all(np.abs(got_a - want_a) <= 1e-13 * want_a)
            assert np.all(np.abs(got_b - want_b) <= 1e-13 * want_a)
