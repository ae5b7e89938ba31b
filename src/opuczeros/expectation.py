"""Expected zero counts by quadrature.

Real counts fold every region into (-1, 1) through the inversion symmetry
rho(1/x) = x^2 rho(x): the whole line is 2 * the integral over (-1, 1).

Complex counts over annular sectors and near-circle scaling windows leave
out a guard band of the fixed angle GUARD_THETA around the real axis: real
zeros, and nonreal ones that close to R, are not counted.  What remains is
a union of sectors between the region's radii at degree n (its radii
method, which Monte Carlo counting reads too), and their count is a 1-D
integral by the argument principle,
(1/2 pi i) times the integral of E[P'/P] dz around each sector's boundary
(the boundary form of the Shepp-Vanderbei area count; Edelman-Kostlan for
the circular case).

The whole-plane total off the band (total_complex_zeros, behind
conservation_check) is the same integral around the upper-half sector
g < arg z < pi - g, 0 < |z| < infinity (g = GUARD_THETA), doubled by
conjugation symmetry: the arc at infinity gives (n - 1)(pi - 2g)/(2 pi)
exactly, and along the two rays E[P'/P] beyond |z| = 1 comes from the
reversed polynomial at 1/z, so both rays need values inside the unit disk
only:

    N = (n - 1)(1 - 2g/pi) + (1/pi) sum_theta s_theta int_0^1
        Im(e^(i theta) (E[P'/P] + E[P^*'/P^*])(x e^(i theta))) dx,

theta = g (s = +1) and pi - g (s = -1), P^*(u) = u^(n-1) P(1/u).

The 2-D route, the complex intensity integrated over the same sectors
(_integrate_sector), is the independent check of both contour routes.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ._quad import adaptive_gl, adaptive_gl_2d
from .errors import OutOfDomainError, QuadratureError
from .intensity import (complex_intensity_grid, growth_log_derivative,
                        log_derivative_grid, log_derivative_pair_grid,
                        real_intensity_grid)
from .szego import as_verblunsky

# the real-axis contribution is carried by the real intensity; complex
# counts stay this angle clear of the axis, where the complex intensity and
# E[P'/P] degenerate
GUARD_THETA = 1e-5
# relative rounding floor of a stated count error (see _rounding_floor)
_ROUNDING = 1e-12

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
        if not 0.0 < self.theta2 - self.theta1 <= 2.0 * math.pi:
            raise OutOfDomainError("annular sector needs theta1 < theta2 <= theta1 + 2 pi")

    def radii(self, n):
        """Inner and outer radius, 1 -+ delta at every degree."""
        return 1.0 - self.delta, 1.0 + self.delta


@dataclass(frozen=True)
class ScalingWindow:
    theta1: float
    theta2: float
    tau1: float
    tau2: float

    def __post_init__(self):
        if not (math.isfinite(self.tau1) and math.isfinite(self.tau2)):
            raise OutOfDomainError("scaling window needs finite tau1 and tau2")
        if not self.tau1 < self.tau2:
            raise OutOfDomainError("scaling window needs tau1 < tau2")
        if not 0.0 < self.theta2 - self.theta1 <= 2.0 * math.pi:
            raise OutOfDomainError("scaling window needs theta1 < theta2 <= theta1 + 2 pi")

    def radii(self, n):
        """Inner and outer radius 1 + tau/(2n) at degree n; the inner one must be > 0."""
        r1 = 1.0 + self.tau1 / (2.0 * n)
        if r1 <= 0.0:
            raise OutOfDomainError("scaling window extends past the origin")
        return r1, 1.0 + self.tau2 / (2.0 * n)


def _check_request(n, tol):
    """Reject a degree below 1, and a tol no stated error can meet (_rounding_floor)."""
    if n < 1:
        raise OutOfDomainError("expected zero counts need n >= 1, got %d" % n)
    if 0.0 < tol < _ROUNDING:  # _quad rejects a tol <= 0 as bad input
        raise QuadratureError("tolerance %g is below the rounding floor %g of a stated "
                              "count error; no solve can meet it" % (tol, _ROUNDING))


def _graded_splits(n):
    """Initial split points in (0, 1) for the real-line solves.

    The real intensity follows 1/(pi (1 - x^2)) between distance 1/n and
    distance 1 from x = +-1, so each shell 1 - 4^-(k-1) < x < 1 - 4^-k
    carries about the same count, ln 4/(2 pi): splits at 1 - 4^-k for
    k = 1..ceil(log4 n), then 1 - 1/n and 1 - 0.1/n inside the edge layer.
    The singularity at x = 1 lies 5/3 half-widths from the middle of a shell
    [1 - 4e, 1 - e], so the Bernstein ellipse through it has rho = 3 and
    G16's error is about 3^-32 of the shell's share (factor 8: about 6e-11).
    """
    depth = ((n - 1).bit_length() + 1) // 2
    return sorted({*(1.0 - 4.0 ** -k for k in range(1, depth + 1)),
                   1.0 - 1.0 / n, 1.0 - 0.1 / n})


def _folded(a, b):
    """Pieces of [-1, 1] covering [a, b] folded by x -> 1/x: edges and weights.

    rho(1/x) = x^2 rho(x) for real coefficients, so the count over [c, d]
    past +-1 is the count over [1/d, 1/c]; each piece counts 0, 1 or 2
    times.  The pieces that count are contiguous; equal neighbours merge.
    """
    cuts = sorted({-1.0, 0.0, 1.0, *(t for t in (a, b) if abs(t) < 1.0),
                   *(1.0 / t for t in (a, b) if abs(t) > 1.0)})
    edges, weights = [], []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        m = 0.5 * (lo + hi)
        w = (a <= m <= b) + (a <= 1.0 / m <= b)
        if w and weights and weights[-1] == w:
            edges[-1] = hi
        elif w:
            edges += [hi] if edges else [lo, hi]
            weights.append(w)
    return edges, weights


def expected_real_zeros(alpha, n, region=WholeRealLine(), tol=1e-9):
    """Expected number of real zeros of P_n over the region.

    The region is folded into [-1, 1] by x -> 1/x (_folded): the whole line
    is (-1, 1) counted twice.  The adaptive solve starts from a mesh graded
    toward +-1, so typical ensembles converge in the first round: one
    integrand call, one Szegő sweep.  The stated error is at least the
    rounding floor (_rounding_floor), so a tol below _ROUNDING raises
    QuadratureError at once, as in the complex counts.
    """
    _check_request(n, tol)
    seq = as_verblunsky(alpha)
    if isinstance(region, WholeRealLine):
        region = RealInterval(-math.inf, math.inf)
    elif not isinstance(region, RealInterval):
        raise OutOfDomainError("unsupported region for real-zero counting")
    edges, weights = _folded(region.a, region.b)
    if not weights:  # the image of [a, b] under 1/x is no wider than a float
        return QuadResult(0.0, 0.0, None)
    # a lone piece integrates rho itself, scaled by its weight afterwards
    scale, w = (weights[0], None) if len(weights) == 1 else (1, np.array(weights, float))

    def f(u):
        rho = real_intensity_grid(seq, n, u)
        return rho if w is None else rho * w[np.searchsorted(edges, u) - 1]

    marks = [*edges, *(t * s for s in _graded_splits(n) for t in (-1.0, 1.0))]
    val, err = adaptive_gl(f, edges[0], edges[-1], tol=tol, splits=marks)
    return QuadResult(*_rounding_floor(scale * val, scale * err, 0.0), None)


def _clip_arcs(theta1, theta2, guard):
    """Intersect (theta1, theta2) with {guard band around R removed}."""
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


# arc panels span at most this many multiples of pi/n: K(z, conj z) turns
# at frequency up to 2n in theta, so a panel holds at most 8 of its periods,
# about 4 of the 33 Kronrod nodes each.  Wider panels alias: with 32 pi/n
# (8 panels on a quarter circle at n = 512) the Gauss and Kronrod sums miss
# alike and the stated error understates the true one.
_ARC_PANEL = 8.0


def _arc_splits(span, n):
    m = math.ceil(span * n / (_ARC_PANEL * math.pi))
    return [span * k / m for k in range(1, m)]


def _radial_splits(r1, r2, n):
    """Split radii in (r1, r2) graded toward the unit circle from both sides.

    Next to the real axis the radial edge follows half the real intensity,
    which grows like 1/(pi (1 - x^2)) up to distance 1/n from x = +-1, the
    shape _graded_splits resolves on the real line.
    """
    inner = _graded_splits(n)
    marks = (1.0, *inner, *(2.0 - x for x in inner))
    return sorted({r for r in marks if r1 < r < r2})


def _sector_edges(arcs, r1, r2):
    """Counter-clockwise boundary of each sector {r1 < |z| < r2, arg z in arc}.

    Rows (r, theta, dr, dtheta, length) give the edge
    z(s) = (r + s dr) exp(i (theta + s dtheta)) for 0 <= s <= length: the
    outer arc forward, the radial edge inward, the inner arc back and the
    radial edge outward.
    """
    rows = []
    for lo, hi in arcs:
        rows += [(r2, lo, 0.0, 1.0, hi - lo), (r2, hi, -1.0, 0.0, r2 - r1),
                 (r1, hi, 0.0, -1.0, hi - lo), (r1, lo, 1.0, 0.0, r2 - r1)]
    return np.array(rows)


def _rounding_floor(val, err, unit=1.0):
    """(val, err) with err raised to the rounding floor of a 1-D solve.

    The Gauss and Kronrod sums of a panel share their integrand points, so
    the rounding of the integrand cancels in their difference and a panel
    can agree with itself to the last bits while its value is off by more.
    No stated error is below _ROUNDING * max(|val|, unit), about twice the
    largest relative error of a real count measured against 200-bit
    references, with this rule pair or the disjoint GL(16)/GL(32) one
    (4.7e-13 at free n = 32, at every tolerance from 1e-6 to 1e-12).  The
    real intensity is nonnegative, so its rounding scales with the count
    and real counts pass unit = 0 (degree 0 keeps its exact 0); contour
    integrands change sign, so theirs is bounded in absolute terms as well.
    """
    return val, max(err, _ROUNDING * max(abs(val), unit))


def _contour_count(seq, n, arcs, r1, r2, tol):
    """Expected zeros in the sectors by the argument principle.

    The count is (1/2 pi i) times the integral of E[P'/P] dz around each
    sector's boundary, Im(E[P'/P] z'(s))/(2 pi) ds along every edge.  All
    edges lie end to end on one parameter line, integrated by one 1-D
    adaptive solve: each integrand call is one Szegő sweep, and the
    tolerance applies to the region's total.
    """
    if not arcs or n == 1:
        return 0.0, 0.0
    edges = _sector_edges(arcs, r1, r2)
    starts = np.concatenate(([0.0], np.cumsum(edges[:, 4])))
    splits = list(starts[1:-1])
    for (r, theta, dr, _, length), start in zip(edges, starts):
        local = (_arc_splits(length, n) if dr == 0.0 else
                 [abs(x - r) for x in _radial_splits(r1, r2, n)])
        splits += [start + x for x in local]

    def f(t):
        j = np.searchsorted(starts, t, side="right") - 1
        r, theta, dr, dtheta, _ = edges[j].T
        s = t - starts[j]
        rad = r + s * dr
        e = np.exp(1j * (theta + s * dtheta))
        dz = (dr + 1j * rad * dtheta) * e
        return (log_derivative_grid(seq, n, rad * e) * dz).imag / (2.0 * math.pi)

    return _rounding_floor(*adaptive_gl(f, 0.0, starts[-1], tol=tol, splits=splits))


def expected_complex_zeros(alpha, n, region, tol=1e-6):
    """Expected number of complex zeros of P_n in the region.

    The region is cut to the arcs at least GUARD_THETA away from the real
    axis (real zeros, and the nonreal ones within that fixed angle of R, are
    not counted), and the count is the contour integral of E[P'/P] around
    the sectors between its radii at degree n (_contour_count); the stated
    error bounds the whole region.  For a scaling window the asymptotic
    prediction n * |S|/(2 pi) * (H'/H(tau2) - H'/H(tau1)) comes alongside.
    """
    _check_request(n, tol)
    if not isinstance(region, (AnnularSector, ScalingWindow)):
        raise OutOfDomainError("unsupported region for complex-zero counting")
    r1, r2 = region.radii(n)
    arcs = _clip_arcs(region.theta1, region.theta2, GUARD_THETA)
    val, err = _contour_count(as_verblunsky(alpha), n, arcs, r1, r2, tol)
    pred = None
    if isinstance(region, ScalingWindow):
        span = region.theta2 - region.theta1
        pred = n * span / (2.0 * math.pi) * (
            growth_log_derivative(region.tau2) - growth_log_derivative(region.tau1))
    return QuadResult(val, err, pred)


def total_complex_zeros(alpha, n, tol=1e-4):
    """Expected complex zeros over the whole plane off the fixed guard band around R.

    By conjugation symmetry this is twice the count in the upper-half sector
    g < arg z < pi - g (g = GUARD_THETA), 0 < |z| < infinity, taken by the
    argument principle around its boundary.  The inner arc has zero length;
    on the arc at infinity E[P'/P] = (n - 1)/z + O(1/z^2) contributes
    (n - 1)(pi - 2g)/(2 pi); on the rays the (n - 1)/z part is real and
    drops out.  Beyond |z| = 1 the rays are mapped to u = 1/z inside the
    disk by E[P'/P](z) = (n - 1)/z - E[P^*'/P^*](1/z)/z^2, where
    P^*(u) = u^(n-1) P(1/u); with E[P^*'/P^*](conj u) = conj E[P^*'/P^*](u)
    for real coefficients, both rays need values at x e^(i theta) only:

        N = (n - 1)(1 - 2g/pi) + (1/pi) sum_theta s_theta int_0^1
            Im(e^(i theta) (E[P'/P] + E[P^*'/P^*])(x e^(i theta))) dx

    over theta = g (s = +1) and theta = pi - g (s = -1).  The two rays lie
    end to end on one parameter line, with splits graded toward x = 1, in
    one 1-D adaptive solve; each integrand call is one Szegő sweep
    (log_derivative_pair_grid).  The tolerance applies to the integral,
    whose size is about that of the real count.
    """
    _check_request(n, tol)
    if n == 1:
        return QuadResult(0.0, 0.0, None)
    seq = as_verblunsky(alpha)
    rays = np.exp(1j * np.array([GUARD_THETA, math.pi - GUARD_THETA]))
    inner = _graded_splits(n)

    def f(t):
        # t in (0, 1) is x = t on the first ray, t in (1, 2) x = 2 - t on the second
        second = t > 1.0
        e = rays[second.astype(int)]
        pair = log_derivative_pair_grid(seq, n, np.where(second, 2.0 - t, t) * e)
        return np.where(second, -1.0, 1.0) * (e * (pair[0] + pair[1])).imag / math.pi

    val, err = adaptive_gl(f, 0.0, 2.0, tol=tol,
                           splits=[*inner, 1.0, *(2.0 - x for x in inner)])
    return QuadResult(*_rounding_floor((n - 1) * (1.0 - 2.0 * GUARD_THETA / math.pi) + val,
                                       err), None)


def conservation_check(alpha, n, tol=1e-4):
    """Real + complex expected counts against the almost-sure total n - 1.

    real_error and complex_error are the two solves' stated errors.  Beyond
    them the total falls short of n - 1 by the nonreal zeros inside the
    guard band, which neither part counts.
    """
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
        "real_error": real.error,
        "complex_error": cplx.error,
    }
