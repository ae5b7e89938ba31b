"""Adaptive Gauss-Legendre quadrature with vectorized integrands.

Panel error = |GL(order) - GL(2*order)|; worst panels split first.  Panel
results are summed in position order with math.fsum, so the accumulation is
deterministic regardless of refinement history.
"""

import heapq
import math
from functools import lru_cache

import numpy as np

from .errors import QuadratureError


@lru_cache(maxsize=None)
def _gl_nodes(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _panel_estimate(f, a, b, order):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    xlo, wlo = _gl_nodes(order)
    xhi, whi = _gl_nodes(2 * order)
    pts = np.concatenate([mid + half * xlo, mid + half * xhi])
    vals = f(pts)
    lo = half * np.dot(wlo, vals[:order])
    hi = half * np.dot(whi, vals[order:])
    return hi, abs(hi - lo)


def _converged(heap, ival, ierr, tol):
    """Whether the panels' summed error meets tol; raises on a non-finite sum."""
    total_err = math.fsum(item[ierr] for item in heap)
    total_val = math.fsum(item[ival] for item in heap)
    if not (math.isfinite(total_val) and math.isfinite(total_err)):
        raise QuadratureError("integrand estimate is not finite (value %r, "
                              "error %r)" % (total_val, total_err))
    return total_err <= tol * max(abs(total_val), 1.0)


def adaptive_gl(f, a, b, tol=1e-9, splits=(), order=16, max_panels=4000):
    """Integrate vectorized f over [a, b]; returns (value, error_estimate)."""
    edges = sorted({float(a), float(b), *(float(s) for s in splits if a < s < b)})
    heap = []
    counter = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _panel_estimate(f, lo, hi, order)
        heapq.heappush(heap, (-err, counter, lo, hi, val, err))
        counter += 1
    while len(heap) < max_panels:
        if _converged(heap, 4, 5, tol):
            break
        _, _, lo, hi, _, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise QuadratureError("panel [%r, %r] cannot be split further"
                                  % (lo, hi))
        for p, q in ((lo, mid), (mid, hi)):
            val, err = _panel_estimate(f, p, q, order)
            heapq.heappush(heap, (-err, counter, p, q, val, err))
            counter += 1
    else:
        raise QuadratureError("1-D quadrature did not converge within the panel budget")
    panels = sorted(heap, key=lambda item: item[2])
    value = math.fsum(p[4] for p in panels)
    err = math.fsum(p[5] for p in panels)
    return value, err


def _rect_estimate(f2, rect, order):
    (a, b), (c, d) = rect
    hx = 0.5 * (b - a)
    hy = 0.5 * (d - c)
    mx = 0.5 * (a + b)
    my = 0.5 * (c + d)
    xlo, wlo = _gl_nodes(order)
    xhi, whi = _gl_nodes(2 * order)

    def tensor(xn, wn):
        gx = mx + hx * xn
        gy = my + hy * xn
        xx, yy = np.meshgrid(gx, gy, indexing="ij")
        vals = f2(xx.ravel(), yy.ravel()).reshape(xx.shape)
        return hx * hy * float(wn @ vals @ wn)

    lo = tensor(xlo, wlo)
    hi = tensor(xhi, whi)
    return hi, abs(hi - lo)


def adaptive_gl_2d(f2, xrange, yrange, tol=1e-6, xsplits=(), ysplits=(),
                   order=8, max_rects=2000):
    """Tensor-product adaptive GL over a rectangle; f2(x, y) vectorized flat."""
    a, b = map(float, xrange)
    c, d = map(float, yrange)
    xedges = sorted({a, b, *(float(s) for s in xsplits if a < s < b)})
    yedges = sorted({c, d, *(float(s) for s in ysplits if c < s < d)})
    heap = []
    counter = 0
    for xlo, xhi in zip(xedges[:-1], xedges[1:]):
        for ylo, yhi in zip(yedges[:-1], yedges[1:]):
            rect = ((xlo, xhi), (ylo, yhi))
            val, err = _rect_estimate(f2, rect, order)
            heapq.heappush(heap, (-err, counter, rect, val, err))
            counter += 1
    while len(heap) < max_rects:
        if _converged(heap, 3, 4, tol):
            break
        _, _, rect, _, _ = heapq.heappop(heap)
        (xlo, xhi), (ylo, yhi) = rect
        if xhi - xlo >= yhi - ylo:
            mid = 0.5 * (xlo + xhi)
            children = (((xlo, mid), (ylo, yhi)), ((mid, xhi), (ylo, yhi)))
        else:
            mid = 0.5 * (ylo + yhi)
            children = (((xlo, xhi), (ylo, mid)), ((xlo, xhi), (mid, yhi)))
        for child in children:
            val, err = _rect_estimate(f2, child, order)
            heapq.heappush(heap, (-err, counter, child, val, err))
            counter += 1
    else:
        raise QuadratureError("2-D quadrature did not converge within the panel budget")
    rects = sorted(heap, key=lambda item: item[2])
    value = math.fsum(r[3] for r in rects)
    err = math.fsum(r[4] for r in rects)
    return value, err
