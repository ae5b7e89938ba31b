"""Expected zero counts by quadrature of the intensity functions.

The whole-line real count reduces to 2 * integral over (-1, 1) through the
inversion symmetry rho(1/x) = x^2 rho(x); complex counts integrate the
complex intensity over annular sectors or near-circle scaling windows with
a guard band around the real axis.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ._quad import adaptive_gl, adaptive_gl_2d
from .errors import OutOfDomainError
from .intensity import (complex_intensity_grid,
                        complex_intensity_reversed_grid,
                        growth_log_derivative, real_intensity_grid)
from .szego import as_verblunsky

# the real-axis contribution is carried by the real intensity; the 2-D
# quadrature stays clear of the axis where the complex formula degenerates
GUARD_THETA = 1e-5

QuadResult = namedtuple("QuadResult", ["value", "error", "prediction"])


@dataclass(frozen=True)
class RealInterval:
    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise OutOfDomainError("real interval needs a < b")


@dataclass(frozen=True)
class WholeRealLine:
    pass


@dataclass(frozen=True)
class WholePlane:
    pass


@dataclass(frozen=True)
class AnnularSector:
    theta1: float
    theta2: float
    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise OutOfDomainError("annular sector needs 0 < delta < 1")
        if not self.theta1 < self.theta2:
            raise OutOfDomainError("annular sector needs theta1 < theta2")


@dataclass(frozen=True)
class ScalingWindow:
    theta1: float
    theta2: float
    tau1: float
    tau2: float

    def __post_init__(self):
        if not self.tau1 < self.tau2:
            raise OutOfDomainError("scaling window needs tau1 < tau2")
        if not self.theta1 < self.theta2:
            raise OutOfDomainError("scaling window needs theta1 < theta2")


def _check_degree(n):
    if n < 1:
        raise OutOfDomainError("expected zero counts need n >= 1, got %d" % n)


def _graded_splits(n):
    """Initial split points in (0, 1) for the real-line solves.

    The real intensity follows 1/(pi (1 - x^2)) between distance 1/n and
    distance 1 from x = +-1, so each dyadic shell 1 - 2^-(k-1) < x < 1 - 2^-k
    carries about the same count, ln 2/(2 pi): splits at 1 - 2^-k for
    k = 1..ceil(log2 n), then 1 - 1/n and 1 - 0.1/n inside the edge layer.
    """
    depth = (n - 1).bit_length()
    return sorted({*(1.0 - 2.0 ** -k for k in range(1, depth + 1)),
                   1.0 - 1.0 / n, 1.0 - 0.1 / n})


def expected_real_zeros(alpha, n, region=WholeRealLine(), tol=1e-9):
    """Expected number of real zeros of P_n over the region.

    The adaptive solve starts from a mesh graded toward x = +-1 (and, for an
    interval reaching past them, toward +-1 from outside through the
    inversion x -> 1/x), so typical ensembles converge in the first round:
    one integrand call, one Szegő sweep.
    """
    _check_degree(n)
    seq = as_verblunsky(alpha)

    def f(x):
        return real_intensity_grid(seq, n, x)

    inner = _graded_splits(n)
    if isinstance(region, WholeRealLine):
        val, err = adaptive_gl(f, -1.0, 1.0, tol=tol,
                               splits=[t * s for s in inner for t in (-1.0, 1.0)])
        return QuadResult(2.0 * val, 2.0 * err, None)
    if isinstance(region, RealInterval):
        marks = [1.0, *inner, *(1.0 / s for s in inner if s > 0.0)]
        splits = [t * s for s in marks for t in (-1.0, 1.0)]
        val, err = adaptive_gl(f, region.a, region.b, tol=tol, splits=splits)
        return QuadResult(val, err, None)
    raise OutOfDomainError("unsupported region for real-zero counting")


def _clip_arcs(theta1, theta2, guard):
    """Intersect (theta1, theta2) with {guard band around R removed}."""
    if theta2 - theta1 > 2 * math.pi:
        raise OutOfDomainError("arc longer than the full circle")
    axis = (0.0, math.pi, 2.0 * math.pi, -math.pi, -2.0 * math.pi)
    cuts = sorted({theta1, theta2,
                   *(a + s * guard for a in axis for s in (-1.0, 1.0)
                     if theta1 < a + s * guard < theta2),
                   *(a for a in axis if theta1 < a < theta2)})
    arcs = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        dist = min(abs(mid - a) for a in axis)
        if dist >= guard:
            arcs.append((lo, hi))
    return arcs


def _corner_splits(n, arcs):
    """Angular split points near the axis corners where the density peaks."""
    marks = []
    for a in (0.0, math.pi, -math.pi, 2.0 * math.pi, -2.0 * math.pi):
        for s in (2.0 / n, 0.2):
            marks.extend((a - s, a + s))
    return tuple(sorted(m for m in set(marks)
                        if any(lo < m < hi for lo, hi in arcs)))


def _integrate_sector(seq, n, arcs, r1, r2, tol, rsplits=(), rho=None):
    if rho is None:
        rho = complex_intensity_grid

    def f2(theta, r):
        z = r * np.exp(1j * theta)
        return rho(seq, n, z, degenerate="zero") * r

    xsplits = _corner_splits(n, arcs)
    total = 0.0
    toterr = 0.0
    for lo, hi in arcs:
        val, err = adaptive_gl_2d(f2, (lo, hi), (r1, r2), tol=tol,
                                  xsplits=[m for m in xsplits if lo < m < hi],
                                  ysplits=rsplits)
        total += val
        toterr += err
    return total, toterr


def expected_complex_zeros(alpha, n, region, tol=1e-6, guard=GUARD_THETA):
    """Expected number of complex zeros of P_n in the region.

    For a scaling window the asymptotic prediction
    n * |S|/(2 pi) * (H'/H(tau2) - H'/H(tau1)) is returned alongside.
    """
    _check_degree(n)
    seq = as_verblunsky(alpha)
    if isinstance(region, AnnularSector):
        arcs = _clip_arcs(region.theta1, region.theta2, guard)
        rsplits = (1.0 - 1.0 / n, 1.0, 1.0 + 1.0 / n)
        val, err = _integrate_sector(seq, n, arcs, 1.0 - region.delta,
                                     1.0 + region.delta, tol, rsplits)
        return QuadResult(val, err, None)
    if isinstance(region, ScalingWindow):
        arcs = _clip_arcs(region.theta1, region.theta2, guard)
        r1 = 1.0 + region.tau1 / (2.0 * n)
        r2 = 1.0 + region.tau2 / (2.0 * n)
        if r1 <= 0.0:
            raise OutOfDomainError("scaling window extends past the origin")
        val, err = _integrate_sector(seq, n, arcs, r1, r2, tol,
                                     rsplits=(1.0,) if r1 < 1.0 < r2 else ())
        span = region.theta2 - region.theta1
        pred = n * span / (2.0 * math.pi) * (
            growth_log_derivative(region.tau2) - growth_log_derivative(region.tau1))
        return QuadResult(val, err, pred)
    raise OutOfDomainError("unsupported region for complex-zero counting")


def total_complex_zeros(alpha, n, tol=1e-4, guard=GUARD_THETA):
    """Expected complex zeros over the whole plane (off R).

    Zeros outside the closed unit disk are counted as zeros of the reversed
    polynomial inside it, so both contributions are integrals over the unit
    disk; conjugation symmetry halves the angular range.
    """
    seq = as_verblunsky(alpha)
    arcs = _clip_arcs(0.0, math.pi, guard)
    rsplits = (0.5, 1.0 - 2.0 / n, 1.0 - 0.5 / n)
    total = 0.0
    toterr = 0.0
    for rho in (complex_intensity_grid, complex_intensity_reversed_grid):
        val, err = _integrate_sector(seq, n, arcs, 1e-6, 1.0, tol,
                                     rsplits=rsplits, rho=rho)
        total += val
        toterr += err
    return QuadResult(2.0 * total, 2.0 * toterr, None)


def conservation_check(alpha, n, tol=1e-4):
    """Real + complex expected counts against the almost-sure total n - 1."""
    real = expected_real_zeros(alpha, n, tol=tol)
    cplx = total_complex_zeros(alpha, n, tol=tol)
    total = real.value + cplx.value
    return {
        "n": n,
        "expected_real": real.value,
        "expected_complex": cplx.value,
        "total": total,
        "target": n - 1,
        "defect": total - (n - 1),
    }
