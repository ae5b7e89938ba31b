import math

import numpy as np
import pytest

from opuczeros import (InvalidCoefficientError, VerblunskySequence, blaschke,
                       evaluate, kappa_log, regularity_epsilon)
from opuczeros.ensembles import materialize, power_decay


def test_free_case_is_monomial():
    al = VerblunskySequence(generator=lambda k: 0.0)
    ev = evaluate(al, 5, 0.3)
    phi, phis, dphi, dphis = ev.unscaled()
    assert abs(phi - 0.3 ** 5) < 1e-15
    assert abs(phis - 1.0) < 1e-15
    assert abs(dphi - 5 * 0.3 ** 4) < 1e-14
    assert abs(dphis) < 1e-15


def test_single_step_by_hand():
    # one recurrence step with alpha_0 = 0.5 at z = 1
    al = VerblunskySequence(values=[0.5])
    ev = evaluate(al, 1, 1.0)
    phi, phis, _, _ = ev.unscaled()
    expect = (1.0 - 0.5) / math.sqrt(0.75)
    assert abs(phi - expect) < 1e-14
    assert abs(phis - expect) < 1e-14


def test_reflection_on_circle():
    # |phi_n| = |phi_n^*| on the unit circle, free case and random case
    rng = np.random.default_rng(5)
    for n in (3, 7, 21, 64):
        al = VerblunskySequence(values=rng.uniform(-0.9, 0.9, n))
        for theta in rng.uniform(-np.pi, np.pi, 8):
            ev = evaluate(al, n, np.exp(1j * theta))
            phi, phis, _, _ = ev.unscaled()
            assert abs(abs(phi) - abs(phis)) <= 1e-12 * abs(phis)


def test_blaschke_free_and_hand_value():
    al = VerblunskySequence(generator=lambda k: 0.0)
    for z in (0.3, 0.5 + 0.2j, -0.8):
        assert abs(blaschke(al, 4, z) - z ** 4) < 1e-14
    # Phi_1 = z - 0.5, Phi_1^* = 1 - 0.5z
    al = VerblunskySequence(values=[0.5])
    assert abs(blaschke(al, 1, 0.0) - (-0.5)) < 1e-15


def test_blaschke_modulus():
    rng = np.random.default_rng(6)
    for trial in range(20):
        n = int(rng.integers(1, 32))
        al = VerblunskySequence(values=rng.uniform(-0.9, 0.9, n))
        z = rng.uniform(0, 0.95) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert abs(blaschke(al, n, z)) < 1.0
        zc = np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert abs(abs(blaschke(al, n, zc)) - 1.0) < 1e-12


def test_derivative_finite_difference():
    rng = np.random.default_rng(7)
    h = 1e-6
    for trial in range(25):
        n = int(rng.integers(1, 33))
        al = VerblunskySequence(values=rng.uniform(-0.9, 0.9, n))
        z = rng.uniform(0.2, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        ev = evaluate(al, n, z)
        phi, phis, dphi, dphis = ev.unscaled()
        pp = evaluate(al, n, z + h).unscaled()
        pm = evaluate(al, n, z - h).unscaled()
        fd_phi = (pp[0] - pm[0]) / (2 * h)
        fd_phis = (pp[1] - pm[1]) / (2 * h)
        scale = max(abs(dphi), abs(dphis), 1e-12)
        assert abs(fd_phi - dphi) < 1e-6 * scale
        assert abs(fd_phis - dphis) < 1e-6 * scale


def test_monic_recurrence_recovered():
    # Phi_{i+1} = z Phi_i - a_i Phi_i^* after multiplying back kappa
    rng = np.random.default_rng(8)
    for trial in range(10):
        n = int(rng.integers(2, 33))
        vals = rng.uniform(-0.9, 0.9, n)
        al = VerblunskySequence(values=vals)
        z = rng.uniform(0.3, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        monic = []
        for k in range(n + 1):
            ev = evaluate(al, k, z)
            phi, phis, _, _ = ev.unscaled()
            kl = kappa_log(al, k)
            monic.append((phi * math.exp(-kl), phis * math.exp(-kl)))
        for i in range(n):
            lhs = monic[i + 1][0]
            rhs = z * monic[i][0] - vals[i] * monic[i][1]
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
            lhs_s = monic[i + 1][1]
            rhs_s = monic[i][1] - vals[i] * z * monic[i][0]
            assert abs(lhs_s - rhs_s) <= 1e-12 * max(abs(lhs_s), 1.0)


def test_kappa_log_direct_product():
    rng = np.random.default_rng(9)
    vals = rng.uniform(-0.95, 0.95, 40)
    al = VerblunskySequence(values=vals)
    for n in (1, 5, 17, 40):
        direct = -0.5 * math.log(float(np.prod(1.0 - vals[:n] ** 2)))
        assert abs(kappa_log(al, n) - direct) < 1e-13


def test_regularity_epsilon_values():
    assert regularity_epsilon(VerblunskySequence(generator=lambda k: 0.0), 10) == 0.0
    al = VerblunskySequence(generator=lambda k: 0.5)
    expect = -0.5 * math.log(0.75)
    for n in (1, 4, 33):
        assert abs(regularity_epsilon(al, n) - expect) < 1e-13


def test_regularity_epsilon_decays_for_summable_tail():
    # quadratic-decay coefficients: epsilon_{2n} < epsilon_n in the tail
    al = materialize(power_decay(0.3, 2), 4096)
    prev = regularity_epsilon(al, 64)
    for n in (128, 256, 512, 1024, 2048):
        cur = regularity_epsilon(al, n)
        assert cur < prev
        prev = cur


def test_coefficient_validation():
    with pytest.raises(InvalidCoefficientError):
        VerblunskySequence(values=[0.2, 1.0])
    with pytest.raises(InvalidCoefficientError):
        VerblunskySequence(values=[-1.0])


def test_negative_coefficient_count_raises():
    al = VerblunskySequence(values=[0.5] * 3)
    with pytest.raises(InvalidCoefficientError):
        al.array(-1)
    with pytest.raises(InvalidCoefficientError):
        kappa_log(al, -1)


def test_generator_memoization_is_stable():
    calls = []

    def gen(k):
        calls.append(k)
        return 0.1 / (k + 1)

    al = VerblunskySequence(generator=gen)
    a1 = al.array(10).copy()
    a2 = al.array(10)
    assert np.array_equal(a1, a2)
    assert len(calls) == 10


def test_scalar_and_vector_evaluate_agree():
    al = VerblunskySequence(values=[0.3, -0.2, 0.5])
    zs = np.array([0.2 + 0.1j, -0.7, 1.3 + 0.4j])
    ev = evaluate(al, 3, zs)
    for i, z in enumerate(zs):
        single = evaluate(al, 3, complex(z))
        vp = ev.unscaled()
        sp = single.unscaled()
        for a, b in zip((vp[0][i], vp[1][i]), (sp[0], sp[1])):
            assert abs(a - b) <= 1e-13 * max(abs(b), 1.0)


def test_large_degree_outside_disk_does_not_overflow():
    # |phi_n| ~ |z|^n would overflow naively; scaled values stay finite
    al = VerblunskySequence(generator=lambda k: 0.2 * (-1) ** k)
    ev = evaluate(al, 5000, 3.0)
    assert np.isfinite(ev.phi).all() if isinstance(ev.phi, np.ndarray) else np.isfinite(ev.phi)
    assert ev.log_scale > 1000.0  # ~ 5000 log 3
