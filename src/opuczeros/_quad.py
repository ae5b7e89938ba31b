"""Adaptive Gauss-Kronrod quadrature with vectorized integrands.

One level-synchronous driver serves intervals and rectangles, after
Shampine's vectorized adaptive quadrature (the quadgk design).  A box of
dimension d = 1 or 2 is sampled at the tensor Kronrod nodes of
Gauss(order)-Kronrod(2*order+1) (Kronrod 1965; QUADPACK), (2*order + 1)^d
points: 33 in 1-D at order 16, 289 in 2-D at order 8.  Its value is the
Kronrod rule and its error the difference from the Gauss rule, which lives
on the same points with zero weight on the Kronrod-only nodes.  Disjoint
GL(order) and GL(2*order) rules would give the same estimate, the error of
GL(order), from order + 2*order points per panel in 1-D; the nested pair
spends every integrand point on the value as well as on the estimate.

Each round estimates every new box in one batch, handing the integrand at
most _CHUNK points per call, so the work per call grows with the level
while memory stays bounded.  When the summed error misses
tol * max(|value|, 1), the boxes are ranked by error (ties by position)
and the fewest worst ones that leave at most half that target in the rest
are halved along their longer side (x on ties).  Totals are math.fsum
sums, correctly rounded whatever the order of the boxes, so a result is
bit-reproducible.
"""

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import OutOfDomainError, QuadratureError

# most points passed to the integrand in one call; it bounds the memory of
# one Szegő sweep however many boxes a round refines
_CHUNK = 4096


def _kronrod_jacobi(n):
    """Diagonal a and squared off-diagonal b of the Legendre Kronrod-Jacobi matrix.

    Laurie's modified-moment algorithm (Math. Comp. 66 (1997) 1133-1145)
    extends the Legendre recurrence a_k = 0, b_k = k^2/(4k^2 - 1), b_0 = 2,
    of which it reads k <= ceil(3n/2), to the 2n + 1 rows of the symmetric
    tridiagonal matrix whose eigenvalues are the Gauss(n)-Kronrod(2n+1)
    nodes.  s and t hold two consecutive rows of mixed moments, shifted by
    one so that s[0] is the zero moment at index -1.
    """
    a = np.zeros(2 * n + 1)
    b = np.zeros(2 * n + 1)
    k = np.arange(1, (3 * n + 1) // 2 + 1)
    b[0] = 2.0
    b[k] = k * k / (4.0 * k * k - 1.0)
    s = np.zeros(n // 2 + 2)
    t = np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        l = m - k
        s[k + 1] = np.cumsum((a[k + n + 1] - a[l]) * t[k + 1]
                             + b[k + n + 1] * s[k] - b[l] * s[k + 1])
        s, t = t, s
    j = np.arange(n // 2, -1, -1)
    s[j + 1] = s[j]
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        l = m - k
        j = n - 1 - l
        s[j + 1] = np.cumsum(-(a[k + n + 1] - a[l]) * t[j + 1]
                             - b[k + n + 1] * s[j + 1] + b[l] * s[j + 2])
        j = j[-1]
        k = (m + 1) // 2
        if m % 2 == 0:
            a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
        else:
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    return a, b


def _kronrod(order):
    """Ascending Kronrod nodes x (2*order + 1) and the Gauss and Kronrod weights.

    The Gauss nodes are x[1::2]; they and their weights are leggauss(order)'s,
    and the Gauss weights are zero at the Kronrod-only nodes.
    """
    a, b = _kronrod_jacobi(order)
    off = np.sqrt(b[1:])
    x, v = np.linalg.eigh(np.diag(a) + np.diag(off, 1) + np.diag(off, -1))
    w = b[0] * v[0] ** 2
    # the rule is symmetric about 0: impose it on the rounded eigenpairs
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    w_gauss = np.zeros_like(w)
    x[1::2], w_gauss[1::2] = np.polynomial.legendre.leggauss(order)
    return x, w_gauss, w


@lru_cache(maxsize=None)
def _rule(order, d):
    """Tensor Kronrod nodes (d, m) on [-1, 1]^d, the Gauss and the Kronrod weights."""
    x, w_lo, w_hi = _kronrod(order)
    grid = np.meshgrid(*[x] * d, indexing="ij")
    if d == 2:
        w_lo, w_hi = np.outer(w_lo, w_lo).ravel(), np.outer(w_hi, w_hi).ravel()
    return np.stack([g.ravel() for g in grid]), w_lo, w_hi


def _estimate(f, boxes, order):
    """Values and error estimates of the boxes (P, d, 2), sampled in chunks."""
    nodes, w_lo, w_hi = _rule(order, boxes.shape[1])
    mid = 0.5 * (boxes[:, :, 0] + boxes[:, :, 1])
    half = 0.5 * (boxes[:, :, 1] - boxes[:, :, 0])
    pts = mid[:, :, None] + half[:, :, None] * nodes
    pts = pts.transpose(1, 0, 2).reshape(len(nodes), -1)
    vals = np.empty(pts.shape[1])
    for i in range(0, len(vals), _CHUNK):
        vals[i:i + _CHUNK] = f(*pts[:, i:i + _CHUNK])
    vals = vals.reshape(len(boxes), -1)
    scale = np.prod(half, axis=1)
    lo = scale * (vals @ w_lo)
    hi = scale * (vals @ w_hi)
    return hi, np.abs(hi - lo)


def _adaptive(f, edges, tol, order, max_boxes):
    """Integrate f over the grid cells of edges (one sorted list per axis)."""
    if not (math.isfinite(tol) and tol > 0):
        raise OutOfDomainError("quadrature tolerance must be finite and > 0, "
                               "got %r" % tol)
    d = len(edges)
    spans = [list(zip(e[:-1], e[1:])) for e in edges]
    boxes = np.array(list(itertools.product(*spans)), dtype=float).reshape(-1, d, 2)
    val, err = _estimate(f, boxes, order)
    while True:
        bad = np.count_nonzero(~(np.isfinite(val) & np.isfinite(err)))
        if bad:
            raise QuadratureError("integrand estimate is not finite on %d of %d "
                                  "boxes" % (bad, len(boxes)))
        total, total_err = math.fsum(val), math.fsum(err)
        target = tol * max(abs(total), 1.0)
        if total_err <= target:
            return total, total_err
        if len(boxes) >= max_boxes:
            raise QuadratureError("%d-D quadrature did not converge within the "
                                  "panel budget" % d)
        # error descending, ties by lower corner (x first)
        rank = np.lexsort((*boxes[:, ::-1, 0].T, -err))
        rest = np.cumsum(err[rank][::-1])[::-1]
        k = min(np.count_nonzero(rest > 0.5 * target), max_boxes - len(boxes))
        split = rank[:k]
        worst = boxes[split]
        rows = np.arange(k)
        axis = np.argmax(worst[:, :, 1] - worst[:, :, 0], axis=1)
        lo, hi = worst[rows, axis, 0], worst[rows, axis, 1]
        mid = 0.5 * (lo + hi)
        stuck = np.flatnonzero((mid <= lo) | (mid >= hi))
        if stuck.size:
            raise QuadratureError("panel [%r, %r] cannot be split further"
                                  % (float(lo[stuck[0]]), float(hi[stuck[0]])))
        left, right = worst, worst.copy()
        left[rows, axis, 1] = mid
        right[rows, axis, 0] = mid
        children = np.concatenate([left, right])
        cval, cerr = _estimate(f, children, order)
        boxes = np.concatenate([np.delete(boxes, split, axis=0), children])
        val = np.concatenate([np.delete(val, split), cval])
        err = np.concatenate([np.delete(err, split), cerr])


def _edges(lo, hi, splits):
    return sorted({float(lo), float(hi), *(float(s) for s in splits if lo < s < hi)})


def adaptive_gl(f, a, b, tol=1e-9, splits=(), max_panels=4000):
    """Integrate vectorized f over [a, b] by G16/K33; returns (value, error_estimate)."""
    return _adaptive(f, [_edges(a, b, splits)], tol, 16, max_panels)


def adaptive_gl_2d(f2, xrange, yrange, tol=1e-6, xsplits=(), ysplits=(), max_rects=2000):
    """Tensor-product adaptive G8/K17 over a rectangle; f2(x, y) vectorized flat."""
    (a, b), (c, d) = xrange, yrange
    return _adaptive(f2, [_edges(a, b, xsplits), _edges(c, d, ysplits)], tol, 8, max_rects)
