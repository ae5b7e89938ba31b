import cmath
import functools
import math
import warnings

import numpy as np
import pytest

from opuczeros import OutOfDomainError, VerblunskySequence, para_spectrum
from opuczeros.ensembles import constant, materialize, parse_ensemble
from opuczeros.para import caratheodory, h_via_caratheodory, para_poly
from opuczeros.intensity import h_closed
from opuczeros.szego import as_verblunsky, ggt_matrix


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


def _zero_and_weight_mp(a, z, mpmath):
    """The zero of Phi_n(z; 1) next to z by Newton at 50 digits, and its weight
    |phi_{n-1}|^2 / K_n there."""
    al = [mpmath.mpf(float(x)) for x in a]
    rho = [mpmath.sqrt(1 - x * x) for x in al]
    z = mpmath.mpc(z)
    for _ in range(3):  # from 1e-13 quadratically past 50 digits
        phi, phis, dphi, dphis = mpmath.mpc(1), mpmath.mpc(1), mpmath.mpc(0), mpmath.mpc(0)
        k = 0
        for x, r in zip(al, rho):
            k += abs(phi) ** 2
            zphi, zdphi = z * phi, phi + z * dphi
            phi, phis = (zphi - x * phis) / r, (phis - x * zphi) / r
            dphi, dphis = (zdphi - x * dphis) / r, (dphis - x * zdphi) / r
        k += abs(phi) ** 2
        step = (z * phi - phis) / (phi + z * dphi - dphis)
        z = (z - step) / abs(z - step)
    return z, abs(phi) ** 2 / k


@functools.lru_cache(maxsize=None)
def _weights_mp(label, n):
    """(50-digit weight, para_spectrum's weight) at five spread zeros and the
    two of smallest weight; each zero is checked against its refinement."""
    mpmath = pytest.importorskip("mpmath")
    if label == "seeded":
        al = VerblunskySequence(values=np.random.default_rng(37).uniform(-0.9, 0.9, n - 1))
    else:
        al = materialize(parse_ensemble(label), n)
    a = as_verblunsky(al).array(n - 1)
    ps = para_spectrum(al, n)
    picks = set(np.argsort(ps.weights)[:2]) | set(np.linspace(0, n - 1, 5).astype(int))
    out = []
    with mpmath.workdps(50):
        for i in sorted(picks):
            zeta, w = _zero_and_weight_mp(a, ps.zeros[i], mpmath)
            assert abs(complex(zeta) - ps.zeros[i]) <= 1e-13
            out.append((float(w), ps.weights[i]))
    return out


# Weights between 1e-12 and 1e-5 that the fold misses by more than 1e-11
# relative, with the bound each stays within (measured: 9.0e-9 at 1.6e-7,
# 2.8e-11 at 4.4e-7, 4.2e-8 at 1.1e-9, at one BLAS thread and at two).  The
# fold is evaluated at a float zero, and a weight far below its neighbours
# carries that zero's error.
_LOSSY_WEIGHTS = {("seeded", 64): 1e-7, ("constant:0.5", 512): 1e-10,
                  ("constant:-0.9", 1024): 1e-5}


@pytest.mark.parametrize("label, n", [("seeded", 64), ("constant:0.5", 12),
                                      ("constant:0.5", 512), ("constant:-0.9", 1024),
                                      ("power_decay:0.3:2", 1024), ("free", 1024)])
def test_weights_match_high_precision(label, n):
    # weights above 1e-12 within 1e-11 relative (measured at most 3.7e-12),
    # but for the _LOSSY_WEIGHTS; below 1e-12 (2.3e-15 for seeded, and
    # 1e-244 at z = 1 for constant(0.5), n = 512, where the fold returns 0)
    # no relative accuracy is claimed, only that the weight stays below 1e-12
    for w, got in _weights_mp(label, n):
        if w > 1e-12:
            bound = _LOSSY_WEIGHTS.get((label, n), 1e-11) if w < 1e-5 else 1e-11
            assert abs(got - w) <= bound * w, (w, got)
        else:
            assert 0.0 <= got <= 1e-12, (w, got)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: weights within 1e-10 relative "
                   "wherever they exceed 1e-12; the fold misses it at the _LOSSY_WEIGHTS")
@pytest.mark.parametrize("label, n", sorted(k for k, bound in _LOSSY_WEIGHTS.items()
                                             if bound > 1e-10))
def test_small_weights_within_1e_10_relative(label, n):
    small = [(w, got) for w, got in _weights_mp(label, n) if w > 1e-12]
    assert max(abs(got - w) / w for w, got in small) <= 1e-10


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
