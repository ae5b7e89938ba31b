import math

import numpy as np
import pytest

from opuczeros import (AnnularSector, OutOfDomainError, QuadratureError,
                       expectation, expected_complex_zeros, expected_real_zeros,
                       intensity, real_intensity_grid)
from opuczeros._quad import _CHUNK, _rule, adaptive_gl, adaptive_gl_2d
from opuczeros.ensembles import free, materialize


def _kronrod_nodes_mp(order, mpmath):
    """The 2*order + 1 Gauss-Kronrod nodes, ascending, to 50 digits.

    They are the zeros of P_order and of the Stieltjes polynomial
    E(x) = x^(order+1) + c_order x^order + ... + c_0, which is orthogonal to
    every x^j, j <= order, under the weight P_order(x) on [-1, 1].
    """
    with mpmath.workdps(50):
        prev, legendre = [mpmath.mpf(1)], [mpmath.mpf(0), mpmath.mpf(1)]
        for k in range(1, order):
            # (k + 1) P_(k+1) = (2k + 1) x P_k - k P_(k-1), ascending coefficients
            step = [mpmath.mpf(0)] + [(2 * k + 1) * c for c in legendre]
            for i, c in enumerate(prev):
                step[i] -= k * c
            prev, legendre = legendre, [c / (k + 1) for c in step]

        def moment(m):
            # integral of P_order(x) x^m over [-1, 1]
            return mpmath.fsum(c * 2 / (i + m + 1) for i, c in enumerate(legendre)
                               if (i + m) % 2 == 0)

        hankel = mpmath.matrix(order + 1, order + 1)
        rhs = mpmath.matrix(order + 1, 1)
        for j in range(order + 1):
            rhs[j] = -moment(order + 1 + j)
            for i in range(order + 1):
                hankel[j, i] = moment(i + j)
        c = mpmath.lu_solve(hankel, rhs)
        stieltjes = [mpmath.mpf(1)] + [c[i] for i in range(order, -1, -1)]
        roots = [*mpmath.polyroots(stieltjes, maxsteps=200, extraprec=200),
                 *mpmath.polyroots(legendre[::-1], maxsteps=200, extraprec=200)]
        return np.array(sorted(float(mpmath.re(r)) for r in roots))


@pytest.mark.parametrize("order", [8, 16])
def test_gauss_kronrod_rule(order):
    nodes, w_gauss, w_kronrod = _rule(order, 1)
    x = nodes[0]
    assert x.shape == (2 * order + 1,)
    # the Gauss rule is leggauss(order) on every other node
    gx, gw = np.polynomial.legendre.leggauss(order)
    assert np.array_equal(x[1::2], gx) and np.array_equal(w_gauss[1::2], gw)
    assert not np.any(w_gauss[0::2])
    # the Kronrod-only nodes interlace with the Gauss nodes
    assert np.all(x[0:-1:2] < gx) and np.all(gx < x[2::2])
    # Kronrod integrates x^k exactly up to degree 3 * order + 1
    for k in range(3 * order + 2):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(w_kronrod @ x ** k - exact) <= 1e-14, k
    mpmath = pytest.importorskip("mpmath")
    assert np.max(np.abs(x - _kronrod_nodes_mp(order, mpmath))) <= 1e-15


def test_non_finite_1d_estimate_raises():
    with np.errstate(all="ignore"), pytest.raises(QuadratureError):
        adaptive_gl(lambda x: 1 / x, 0, 1)


def test_non_finite_2d_estimate_raises():
    with np.errstate(all="ignore"), pytest.raises(QuadratureError):
        adaptive_gl_2d(lambda x, y: 1 / (x * x + y * y), (0, 1), (0, 1))


def test_unsplittable_panel_raises():
    # one ulp wide: the midpoint rounds onto an endpoint before convergence
    with np.errstate(all="ignore"), pytest.raises(QuadratureError):
        adaptive_gl(lambda x: 1 / (x - 1 + 1e-300), 1.0, np.nextafter(1.0, 2.0),
                    tol=1e-12)



def test_lorentzian_1d_against_closed_form():
    eps, tol = 1e-3, 1e-10
    exact = 2.0 / eps * math.atan(1.0 / eps)
    value, err = adaptive_gl(lambda x: 1.0 / (x * x + eps * eps), -1.0, 1.0, tol=tol)
    assert err <= tol * exact
    assert abs(value - exact) <= tol * exact


def _peak(x, y, s=0.02):
    return np.exp(-((x - 0.3) ** 2 + (y + 0.2) ** 2) / (2.0 * s * s))


def _peak_exact(s=0.02):
    def side(c):
        return s * math.sqrt(math.pi / 2.0) * (math.erf((1.0 - c) / (s * math.sqrt(2.0)))
                                               - math.erf((-1.0 - c) / (s * math.sqrt(2.0))))
    return side(0.3) * side(-0.2)


def test_peaked_gaussian_2d_against_closed_form():
    tol = 1e-8
    value, err = adaptive_gl_2d(_peak, (-1.0, 1.0), (-1.0, 1.0), tol=tol)
    assert err <= tol
    assert abs(value - _peak_exact()) <= tol


def test_integrand_calls_never_exceed_the_chunk():
    sizes = []

    def f(x, y):
        sizes.append(np.size(x))
        return _peak(x, y)

    # 20 x 20 starting rectangles of 289 nodes each: 28.2 chunks' worth
    cuts = np.linspace(-1.0, 1.0, 21)[1:-1]
    adaptive_gl_2d(f, (-1.0, 1.0), (-1.0, 1.0), tol=1e-10, xsplits=cuts, ysplits=cuts)
    points = 400 * _rule(8, 2)[0].shape[1]
    full = points // _CHUNK
    assert max(sizes) == _CHUNK
    assert sizes[:full + 1] == [_CHUNK] * full + [points - full * _CHUNK]


def _counting(monkeypatch, name):
    seen = {"calls": 0, "points": 0}
    rho = getattr(expectation, name)

    def counted(seq, n, z, *args, **kwargs):
        seen["calls"] += 1
        seen["points"] += np.size(z)
        return rho(seq, n, z, *args, **kwargs)

    monkeypatch.setattr(expectation, name, counted)
    return seen


def test_a_round_is_evaluated_in_few_integrand_calls(monkeypatch):
    # one Szegő sweep per integrand call: a whole level of panels shares it
    seen = _counting(monkeypatch, "real_intensity_grid")
    expected_real_zeros(materialize(free(), 4096), 4096, tol=1e-6)
    assert seen["calls"] <= 12

    # the 2-D area route, the contour route's oracle, on the free n = 64
    # annulus AnnularSector(0, pi, 0.3) with the radial splits it was given
    seen = _counting(monkeypatch, "complex_intensity_grid")
    n = 64
    arcs = expectation._clip_arcs(0.0, math.pi, expectation.GUARD_THETA)
    expectation._integrate_sector(materialize(free(), n), n, arcs, 0.7, 1.3, 1e-6,
                                  (1.0 - 1.0 / n, 1.0, 1.0 + 1.0 / n))
    assert seen["calls"] <= 60
    assert seen["points"] <= 1.25 * 115200

    # the contour route on the same annulus: one sweep of at most one chunk
    sweeps = []
    sweep = intensity._sweep

    def counting_sweep(a, z):
        sweeps.append(np.size(z))
        return sweep(a, z)

    monkeypatch.setattr(intensity, "_sweep", counting_sweep)
    expected_complex_zeros(materialize(free(), n), n,
                           AnnularSector(0.0, math.pi, 0.3), tol=1e-6)
    assert len(sweeps) <= 2
    assert sum(sweeps) <= _CHUNK


def test_panel_budget_exhaustion_raises():
    with pytest.raises(QuadratureError, match="panel budget"):
        adaptive_gl(lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)), 0.0, 1.0,
                    tol=1e-15, max_panels=8)
    with pytest.raises(QuadratureError, match="panel budget"):
        adaptive_gl_2d(_peak, (-1.0, 1.0), (-1.0, 1.0), tol=1e-12, max_rects=8)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_tolerance_that_cannot_converge_is_rejected(tol):
    with pytest.raises(OutOfDomainError):
        adaptive_gl(np.cos, 0.0, 1.0, tol=tol)
    with pytest.raises(OutOfDomainError):
        adaptive_gl_2d(_peak, (0.0, 1.0), (0.0, 1.0), tol=tol)


def test_repeated_calls_are_bit_identical():
    alpha = materialize(free(), 16)
    region = AnnularSector(0.0, math.pi, 0.3)
    first = expected_complex_zeros(alpha, 16, region, tol=1e-6)
    second = expected_complex_zeros(alpha, 16, region, tol=1e-6)
    assert (first.value, first.error) == (second.value, second.error)

    def f(x):
        return real_intensity_grid(alpha, 16, x)

    assert adaptive_gl(f, -1.0, 1.0, tol=1e-12) == adaptive_gl(f, -1.0, 1.0, tol=1e-12)
