import math
import warnings

import numpy as np
import pytest

from opuczeros import OutOfDomainError, VerblunskySequence, evaluate
from opuczeros.ensembles import materialize, power_decay
from opuczeros.intensity import complex_intensity_grid
from opuczeros.szego import kappa_log
from opuczeros.kernels import (christoffel, kernel_bundle, kernel_cd,
                               kernel_direct, reversed_kernel_bundle)


def free():
    return VerblunskySequence(generator=lambda k: 0.0)


def test_direct_sum_free_case():
    r = kernel_direct(free(), 3, 0.5, 0.5)
    s = math.exp(r.log_scale)
    assert abs(r.k * s - 1.3125) < 1e-14
    assert abs(r.k11 * s - 2.0) < 1e-14
    # K10 = sum i z^{i-1} z^i = 0 + 0.5 + 2 * 0.125
    assert abs(r.k10 * s - (0.5 + 2 * 0.125)) < 1e-14


def test_degree_one_kernel_is_trivial():
    al = VerblunskySequence(values=[0.4, -0.3])
    r = kernel_direct(al, 1, 0.7 + 0.1j, -0.2)
    s = math.exp(r.log_scale)
    assert abs(r.k * s - 1.0) < 1e-15
    assert abs(r.k10 * s) < 1e-15
    assert abs(r.k11 * s) < 1e-15


def test_cd_form_free_values():
    r = kernel_cd(free(), 3, 0.5, 0.5)
    assert abs(r.k * math.exp(r.log_scale) - 1.3125) < 1e-13
    r = kernel_cd(free(), 2, 0.5, -0.5)
    assert abs(r.k * math.exp(r.log_scale) - 0.75) < 1e-13


def test_cd_equals_direct_random():
    rng = np.random.default_rng(10)
    for trial in range(60):
        n = int(rng.integers(1, 65))
        al = VerblunskySequence(values=rng.uniform(-0.9, 0.9, n))
        z = rng.uniform(0.2, 1.6) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        w = rng.uniform(0.2, 1.6) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        if abs(1.0 - z * np.conj(w)) <= 1e-3:
            continue
        a = kernel_direct(al, n, z, w)
        b = kernel_cd(al, n, z, w)
        va = a.k * math.exp(a.log_scale)
        vb = b.k * math.exp(b.log_scale)
        assert abs(va - vb) <= 1e-9 * max(abs(va), 1e-30)


def test_cd_raises_on_diagonal():
    with pytest.raises(OutOfDomainError):
        kernel_cd(free(), 4, 0.5, 2.0)  # z * conj(w) = 1 exactly


def test_diagonal_positivity():
    rng = np.random.default_rng(11)
    for trial in range(30):
        n = int(rng.integers(1, 40))
        al = VerblunskySequence(values=rng.uniform(-0.9, 0.9, n))
        z = rng.uniform(0, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        r = kernel_direct(al, n, z, z)
        assert r.k * math.exp(r.log_scale) >= 1.0 - 1e-12


def test_bundle_matches_direct_sums():
    rng = np.random.default_rng(12)
    for trial in range(25):
        n = int(rng.integers(1, 48))
        al = VerblunskySequence(values=rng.uniform(-0.9, 0.9, n))
        z = complex(rng.uniform(-1.4, 1.4), rng.uniform(0.05, 1.4))
        b = kernel_bundle(al, n, z)
        sb = math.exp(b.log_scale)
        dzz = kernel_direct(al, n, z, z)
        dzzb = kernel_direct(al, n, z, np.conj(z))
        assert abs(b.k_zz * sb - dzz.k * math.exp(dzz.log_scale)) <= 1e-12 * abs(b.k_zz * sb)
        ref = dzzb.k * math.exp(dzzb.log_scale)
        assert abs(b.k_zzbar * sb - ref) <= 1e-12 * max(abs(ref), 1e-30)
        assert abs(b.k11_zz * sb - dzz.k11 * math.exp(dzz.log_scale)) <= 1e-11 * max(abs(b.k11_zz * sb), 1e-30)


def test_conjugate_sweep_identity():
    # real coefficients: phi_i(conj z) = conj(phi_i(z))
    rng = np.random.default_rng(13)
    al = VerblunskySequence(values=rng.uniform(-0.8, 0.8, 12))
    z = 0.6 + 0.3j
    at_z = evaluate(al, 12, z)
    at_zb = evaluate(al, 12, np.conj(z))
    pz = at_z.unscaled()
    pzb = at_zb.unscaled()
    for a, b in zip(pz, pzb):
        assert abs(np.conj(a) - b) <= 1e-13 * max(abs(a), 1.0)


def test_cauchy_schwarz():
    rng = np.random.default_rng(14)
    for trial in range(40):
        n = int(rng.integers(1, 50))
        al = VerblunskySequence(values=rng.uniform(-0.9, 0.9, n))
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        b = kernel_bundle(al, n, z)
        assert abs(b.k_zzbar) <= b.k_zz * (1 + 1e-12)


def test_christoffel_values():
    assert christoffel(free(), 5, 0.0) == 1.0
    for n in (2, 7, 33):
        assert abs(christoffel(free(), n, 1.0) - 1.0 / n) < 1e-13
    # lambda_2(0.2) with alpha = [0.5, 0.3]: 1/(1 + |phi_1(0.2)|^2)
    al = VerblunskySequence(values=[0.5, 0.3])
    phi1 = (0.2 - 0.5) / math.sqrt(0.75)
    assert abs(christoffel(al, 2, 0.2) - 1.0 / (1.0 + phi1 ** 2)) < 1e-13
    assert abs(christoffel(al, 2, 0.2) - 0.8928571428571428) < 1e-7


def test_christoffel_extremal_property():
    # minimum of (1/2pi) int |p|^2 dtheta over polynomials of degree < n
    # with p(z0) = 1, evaluated by trapezoid on 4096 circle points, equals
    # the reciprocal kernel diagonal
    m = 4096
    theta = 2 * np.pi * np.arange(m) / m
    pts = np.exp(1j * theta)
    for n in (1, 2, 3, 4, 5):
        for z0 in (0.0, 0.3, 0.2 - 0.4j):
            V = np.vander(pts, n, increasing=True)  # columns 1, z, ..., z^{n-1}
            row0 = np.array([z0 ** k for k in range(n)])
            # minimize mean |V c|^2 subject to row0 . c = 1 via Lagrange:
            # c = G^{-1} conj(row0) / (row0 G^{-1} conj(row0)) with G the Gram
            G = (V.conj().T @ V) / m
            sol = np.linalg.solve(G, np.conj(row0))
            lam = 1.0 / np.real(row0 @ sol)
            assert abs(lam - christoffel(free(), n, z0)) < 1e-6


def _large_alphas(n, seed):
    # |alpha_k| in (0.7, 0.9): kappa_n, and with it phi_n^* inside the disk,
    # grows past the 1e100 mantissa bound long before degree 600
    rng = np.random.default_rng(seed)
    return VerblunskySequence(values=rng.choice([-1.0, 1.0], n)
                              * rng.uniform(0.7, 0.9, n))


def _rel_scaled(v, ls, ref, ref_ls):
    """Relative distance between v e^ls and ref e^ref_ls."""
    return abs(v * math.exp(ls - ref_ls) - ref) / abs(ref)


def test_kernel_sums_agree_through_rescale_events():
    n = 600
    for seed in (16, 17):
        al = _large_alphas(n, seed)
        for z in (1.6 * np.exp(0.7j), 1.6 * np.exp(2.5j)):
            b = kernel_bundle(al, n, z)
            assert b.log_scale > 0.0
            for w, k, k10 in ((z, b.k_zz, b.k10_zz),
                              (np.conj(z), b.k_zzbar, b.k10_zzbar)):
                for ref in (kernel_direct(al, n, z, w), kernel_cd(al, n, z, w)):
                    assert ref.log_scale > 0.0
                    assert _rel_scaled(k, b.log_scale, ref.k, ref.log_scale) < 1e-12
                    assert _rel_scaled(k10, b.log_scale, ref.k10, ref.log_scale) < 1e-12
                    if w == z:
                        assert _rel_scaled(b.k11_zz, b.log_scale,
                                           ref.k11, ref.log_scale) < 1e-12


def test_reversed_kernel_through_rescale_events():
    # psi_i(u) = u^(n-1) conj(phi_i(1/conj u)), so the reversed diagonal sum is
    # |u|^(2(n-1)) K_n(1/conj u, 1/conj u).  Zeros after 20 and after 450 of
    # the coefficients make zero tails: the forward sums past |z| = 1 carry the
    # doubling's scale, and after 450 the sweep of the head rescales (at
    # degree 414 or 396) before the reversed sums turn it by u^150
    n = 600
    cases = [(_large_alphas(n, seed), True) for seed in (16, 17)]
    cases += [(VerblunskySequence(values=np.concatenate([_large_alphas(n, 16).array(k),
                                                         np.zeros(n - k)])), k == 450)
              for k in (20, 450)]
    for al, head_rescales in cases:
        for r in (0.3, 0.6):
            u = r * np.exp(1.1j)
            rb = reversed_kernel_bundle(al, n, u)
            assert (rb.log_scale > 0.0) == head_rescales
            kb = kernel_bundle(al, n, 1.0 / np.conj(u))
            assert kb.log_scale > 0.0
            lhs = math.log(rb.k_zz) + rb.log_scale
            power = 2.0 * (n - 1) * math.log(r)
            rest = math.log(kb.k_zz) + kb.log_scale
            assert abs(lhs - (power + rest)) <= 1e-13 * (abs(power) + abs(rest))


def test_kernel_sums_reject_nonfinite_points():
    for z in ([np.inf, 0.5], [0.5j, np.nan + 1j]):
        with pytest.raises(OutOfDomainError):
            kernel_bundle(free(), 8, z)
        with pytest.raises(OutOfDomainError):
            reversed_kernel_bundle(free(), 8, z)
    with pytest.raises(OutOfDomainError):
        kernel_direct(free(), 8, complex(np.nan, 0.0), 0.5)


def _kernel_sums_mp(a, n, z, mpmath):
    """Sums (A, B, C, D, E) of |v|^2, v^2, v' conj v, v' v, |v'|^2 over the rows
    v_i = phi_i(z) and over v_i = psi_i(z) = z^(n-1-i) phi_i^*(z), from one
    high-precision Szegő sweep."""
    z = mpmath.mpc(z)
    pows = [mpmath.mpf(1)]
    for _ in range(n):
        pows.append(pows[-1] * z)
    phi, phis, dphi, dphis = mpmath.mpf(1), mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)
    sums = [[mpmath.mpf(0)] * 5 for _ in range(2)]
    for k in range(n):
        p = n - 1 - k
        dpsi = pows[p] * dphis + (p * pows[p - 1] * phis if p else 0)
        rows = ((phi, dphi), (pows[p] * phis, dpsi))
        for acc, (v, dv) in zip(sums, rows):
            for j, t in enumerate((abs(v) ** 2, v * v, dv * mpmath.conj(v), dv * v, abs(dv) ** 2)):
                acc[j] += t
        if k < n - 1:
            ak = mpmath.mpf(float(a[k]))
            s = 1 / mpmath.sqrt(1 - ak * ak)
            zphi, zdphi = z * phi, phi + z * dphi
            phi, phis = (zphi - ak * phis) * s, (phis - ak * zphi) * s
            dphi, dphis = (zdphi - ak * dphis) * s, (dphis - ak * zdphi) * s
    return sums


def _head_and_tail(k, n):
    """k random coefficients, the last 0.3, then zeros: a Bernstein-Szegő measure."""
    rng = np.random.default_rng([24, k])
    a = np.zeros(max(k, n))
    a[:k] = 0.5 * rng.uniform(-1.0, 1.0, k) / np.sqrt(np.arange(k) + 1.0)
    a[k - 1] = 0.3
    return VerblunskySequence(values=a)


@pytest.mark.parametrize("n, k", [(n, k) for n in (2, 3, 64, 4096) for k in (0, 5, 20)]
                         + [(64, 64)])
def test_zero_tail_kernel_sums_match_high_precision(k, n):
    # past the last nonzero coefficient the rows are z^i phi_K, added by
    # doubling, not swept (k = 0 is the free ensemble; k = n has no zero
    # among the n - 1 coefficients read, so every degree is swept and the
    # reversed rows are promoted by u).  Each sum is compared on its own
    # scale: A for A and B, sqrt(A E) for C and D, E for E
    mpmath = pytest.importorskip("mpmath")
    seq = free() if k == 0 else _head_and_tail(k, n)
    a = seq.array(n - 1)
    z = np.array([0.0, 0.3 * np.exp(0.7j), np.exp(0.3j), 0.999 * np.exp(0.01j),
                  1.3 * np.exp(2j), 0.9 * np.exp(1e-5j)])
    bundles = [kernel_bundle(seq, n, z), reversed_kernel_bundle(seq, n, z[np.abs(z) <= 1.0])]
    rev = 0
    for i, zi in enumerate(z):
        with mpmath.workdps(60):
            refs = _kernel_sums_mp(a, n, zi, mpmath)
            for b, j, want in zip(bundles, (i, rev), refs if abs(zi) <= 1.0 else refs[:1]):
                got = (b.k_zz[j], b.k_zzbar[j], b.k10_zz[j], b.k10_zzbar[j], b.k11_zz[j])
                s = mpmath.exp(b.log_scale[j])
                A, E = want[0], want[4]
                scale = [A, A, mpmath.sqrt(A * E), mpmath.sqrt(A * E), E]
                for g, w, sc in zip(got, want, scale):
                    assert abs(g * s - w) <= 1e-12 * sc, (b is bundles[1], zi)
        rev += abs(zi) <= 1.0


@pytest.mark.parametrize("r", [1e160, 1e300])
@pytest.mark.parametrize("tail", [False, True], ids=["full", "zero_tail"])
def test_kernel_sums_at_huge_points_raise_no_warning(tail, r):
    # past |z| ~ 1e154 a rescale factor's square overflows; the sums it
    # divides are negligible there, and dividing them by inf must not warn.
    # K_n(z, z) is |phi_(n-1)(z)|^2 = kappa_(n-1)^2 |z|^(2(n-1)) to rounding
    n = 64
    al = free() if tail else materialize(power_decay(0.3, 2), n)
    z = r * np.array([1.0 + 1.0j, -1.0 + 1.0j])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        b = kernel_bundle(al, n, z)
        want = 2.0 * (n - 1) * np.log(np.abs(z)) + 2.0 * kappa_log(al, n - 1)
        assert np.all(np.abs(np.log(b.k_zz) + b.log_scale - want) <= 1e-12 * want)
        rb = reversed_kernel_bundle(al, n, 1.0 / z)
        assert np.all(np.isfinite(rb.k_zz) & (rb.k_zz > 0.0))
        with pytest.raises(OutOfDomainError):
            complex_intensity_grid(al, n, z)


def test_zero_tail_kernel_sums_at_tiny_points():
    # z^m underflows, and below 2^-1022 so does z itself: the doubling must
    # not scale it up.  The sums are 1 + O(|z|^2), K^(1,0)(z, z) conj z + O(|z|^3)
    z = np.array([1e-310 + 1e-310j, 3e-200j, -2e-30 + 1e-30j])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for route in (kernel_bundle, reversed_kernel_bundle):
            b = route(free(), 64, z)
            assert np.all(b.log_scale == 0.0)
            assert np.all((b.k_zz == 1.0) & (b.k11_zz == 1.0))
            assert np.all(np.abs(b.k_zzbar - 1.0) <= 2.0 * np.abs(z) ** 2)
            assert np.all(np.abs(b.k10_zz - np.conj(z)) <= 1e-15 * np.abs(z))
