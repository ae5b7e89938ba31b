import cmath
import math
import warnings

import numpy as np
import pytest

from opuczeros import OutOfDomainError, VerblunskySequence, para_spectrum
from opuczeros.ensembles import constant, materialize
from opuczeros.para import caratheodory, h_via_caratheodory, para_poly
from opuczeros.intensity import h_closed
from opuczeros.szego import ggt_matrix


def free():
    return VerblunskySequence(generator=lambda k: 0.0)


def test_para_poly_small_free():
    # n = 1: z - 1, n = 2: z^2 - 1
    for z in (0.3, 1.2 - 0.4j, -2.0):
        assert abs(para_poly(free(), 1, 1.0, z) - (z - 1.0)) < 1e-13
        assert abs(para_poly(free(), 2, 1.0, z) - (z * z - 1.0)) < 1e-12


def test_para_poly_independent_of_last_alpha():
    # Phi_1(z; 1) = z - 1 regardless of alpha_0
    al = VerblunskySequence(values=[0.5])
    for z in (0.3, -1.1, 0.2 + 0.7j):
        assert abs(para_poly(al, 1, 1.0, z) - (z - 1.0)) < 1e-13


def test_para_poly_hand_expansion():
    # alpha = [0.5]: z Phi_1 - Phi_1^* = z(z - 0.5) - (1 - 0.5 z)
    al = VerblunskySequence(values=[0.5])
    for z in (0.4, -0.9, 1.3 + 0.2j):
        expect = z * (z - 0.5) - (1.0 - 0.5 * z)
        assert abs(para_poly(al, 2, 1.0, z) - expect) < 1e-12
    G, _ = ggt_matrix(np.array([0.5, 1.0]))
    assert np.allclose(np.poly(G)[::-1], [-1.0, 0.0, 1.0], atol=1e-13)


def test_spectrum_free_small():
    ps = para_spectrum(free(), 1)
    assert np.allclose(ps.zeros, [1.0], atol=1e-12)
    assert np.allclose(ps.weights, [1.0], atol=1e-12)
    ps = para_spectrum(free(), 2)
    assert np.allclose(sorted(ps.zeros.real), [-1.0, 1.0], atol=1e-12)
    assert np.allclose(ps.weights, [0.5, 0.5], atol=1e-12)


def test_spectrum_free_roots_of_unity():
    for n in (3, 8, 17):
        ps = para_spectrum(free(), n)
        angles = np.sort(np.mod(np.angle(ps.zeros), 2 * np.pi))
        expect = np.sort(np.mod(2 * np.pi * np.arange(n) / n, 2 * np.pi))
        assert np.allclose(angles, expect, atol=1e-10)
        assert np.allclose(ps.weights, 1.0 / n, atol=1e-12)


def test_spectrum_structure_random():
    rng = np.random.default_rng(30)
    for trial in range(50):
        n = int(rng.integers(1, 33))
        al = VerblunskySequence(values=rng.uniform(-0.9, 0.9, max(n - 1, 1)))
        ps = para_spectrum(al, n)
        assert len(ps.zeros) == n
        assert np.max(np.abs(np.abs(ps.zeros) - 1.0)) < 1e-10
        assert np.all(ps.weights > 0)
        assert abs(math.fsum(ps.weights) - 1.0) < 1e-12


@pytest.mark.parametrize("a, n", [(0.5, 128), (0.5, 256), (0.5, 512),
                                  (-0.9, 64), (-0.9, 256), (-0.9, 1024)])
def test_spectrum_of_gapped_ensembles(a, n):
    # np.roots on the monomial expansion strayed off the circle for these
    al = materialize(constant(a), n)
    ps = para_spectrum(al, n)
    assert len(ps.zeros) == n
    assert np.max(np.abs(np.abs(ps.zeros) - 1.0)) <= 1e-12
    assert np.all(ps.weights >= 0)
    assert abs(math.fsum(ps.weights) - 1.0) <= 1e-12
    for z in (0.3 + 0.2j, -0.5 + 0.1j, 0.1 - 0.7j):
        r = caratheodory(al, n, z, form="rational")
        assert abs(caratheodory(al, n, z, form="integral", spectrum=ps) - r) <= 1e-9 * abs(r)


def test_spectrum_raises_where_kernel_underflows():
    # K_n underflows against phi' next to z = 1 for constant(0.5) from n ~ 840
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OutOfDomainError, match="underflows"):
            para_spectrum(materialize(constant(0.5), 900), 900)


def test_caratheodory_free_forms():
    for z in (0.2, 0.3 - 0.4j, -0.5j):
        f1 = caratheodory(free(), 1, z, form="rational")
        assert abs(f1 - (1 + z) / (1 - z)) < 1e-12
        f2 = caratheodory(free(), 2, z, form="rational")
        assert abs(f2 - (1 + z * z) / (1 - z * z)) < 1e-12
        # partial fractions of the two-point measure at +-1
        pf = 0.5 * ((1 + z) / (1 - z) + (1 - z) / (1 + z))
        assert abs(f2 - pf) < 1e-12


def test_caratheodory_at_origin():
    rng = np.random.default_rng(31)
    for trial in range(10):
        n = int(rng.integers(1, 20))
        al = VerblunskySequence(values=rng.uniform(-0.9, 0.9, max(n - 1, 1)))
        assert abs(caratheodory(al, n, 0.0, form="rational") - 1.0) < 1e-12
        assert abs(caratheodory(al, n, 0.0, form="integral") - 1.0) < 1e-12


def test_caratheodory_form_agreement():
    rng = np.random.default_rng(32)
    checked = 0
    while checked < 100:
        n = int(rng.integers(1, 33))
        al = VerblunskySequence(values=rng.uniform(-0.9, 0.9, max(n - 1, 1)))
        ps = para_spectrum(al, n)
        z = rng.uniform(0, 1.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        if np.min(np.abs(z - ps.zeros)) < 1e-2:
            continue
        a = caratheodory(al, n, z, form="rational", spectrum=ps)
        b = caratheodory(al, n, z, form="integral", spectrum=ps)
        assert abs(a - b) <= 1e-9 * max(abs(a), 1.0)
        checked += 1


def test_positive_real_part_in_disk():
    rng = np.random.default_rng(33)
    for trial in range(200):
        n = int(rng.integers(1, 24))
        al = VerblunskySequence(values=rng.uniform(-0.9, 0.9, max(n - 1, 1)))
        z = rng.uniform(0, 0.98) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert caratheodory(al, n, z, form="rational").real > 0


def test_residues():
    # (z - zeta_k) F(z) -> -2 zeta_k w_k at each pole
    rng = np.random.default_rng(34)
    for trial in range(10):
        n = int(rng.integers(2, 16))
        al = VerblunskySequence(values=rng.uniform(-0.8, 0.8, max(n - 1, 1)))
        ps = para_spectrum(al, n)
        for zk, wk in zip(ps.zeros, ps.weights):
            eps = 1e-7 * cmath.exp(1j * 0.37)
            z = zk + eps
            res = eps * caratheodory(al, n, z, form="rational", spectrum=ps)
            assert abs(res - (-2.0 * zk * wk)) < 1e-5


def test_h_via_caratheodory_kac():
    # free case, n = 1: h identically 1 on (-1, 1)
    for x in (-0.8, -0.1, 0.0, 0.55):
        assert abs(h_via_caratheodory(free(), 1, x) - 1.0) < 1e-11
    assert abs(h_via_caratheodory(free(), 3, 0.5) - 4.0 / 7.0) < 1e-10


def test_h_via_caratheodory_matches_closed():
    rng = np.random.default_rng(35)
    for trial in range(40):
        n = int(rng.integers(1, 28))
        al = VerblunskySequence(values=rng.uniform(-0.9, 0.9, max(n, 1)))
        x = rng.uniform(-0.95, 0.95)
        a = h_via_caratheodory(al, n, x)
        b = h_closed(al, n, x)
        assert abs(a - b) <= 1e-10 * max(abs(b), 1.0)
