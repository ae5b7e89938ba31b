import math

import numpy as np
import pytest

from opuczeros import OutOfDomainError, VerblunskySequence, evaluate
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
    assert abs(christoffel(free(), 5, 0.0) - 1.0) < 1e-14
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
    # |u|^(2(n-1)) K_n(1/conj u, 1/conj u)
    n = 600
    for seed in (16, 17):
        al = _large_alphas(n, seed)
        for r in (0.3, 0.6):
            u = r * np.exp(1.1j)
            rb = reversed_kernel_bundle(al, n, u)
            assert rb.log_scale > 0.0
            kb = kernel_bundle(al, n, 1.0 / np.conj(u))
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
