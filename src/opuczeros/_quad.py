"""Adaptive Gauss-Legendre quadrature with vectorized integrands.

One level-synchronous driver serves intervals and rectangles, after
Shampine's vectorized adaptive quadrature (the quadgk design).  A box of
dimension d = 1 or 2 is estimated by the tensor GL(order) and GL(2*order)
rules, order + 2*order nodes in 1-D and order^2 + (2*order)^2 in 2-D; its
value is the finer rule and its error the difference of the two.

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


@lru_cache(maxsize=None)
def _rule(order, d):
    """Nodes (d, m) on [-1, 1]^d of GL(order) then GL(2*order), and both weights."""
    nodes, weights = [], []
    for k in (order, 2 * order):
        x, w = np.polynomial.legendre.leggauss(k)
        grid = np.meshgrid(*[x] * d, indexing="ij")
        nodes.append(np.stack([g.ravel() for g in grid]))
        weights.append(w if d == 1 else np.outer(w, w).ravel())
    return np.concatenate(nodes, axis=1), weights[0], weights[1]


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
    lo = scale * (vals[:, :len(w_lo)] @ w_lo)
    hi = scale * (vals[:, len(w_lo):] @ w_hi)
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


def adaptive_gl(f, a, b, tol=1e-9, splits=(), order=16, max_panels=4000):
    """Integrate vectorized f over [a, b]; returns (value, error_estimate)."""
    return _adaptive(f, [_edges(a, b, splits)], tol, order, max_panels)


def adaptive_gl_2d(f2, xrange, yrange, tol=1e-6, xsplits=(), ysplits=(),
                   order=8, max_rects=2000):
    """Tensor-product adaptive GL over a rectangle; f2(x, y) vectorized flat."""
    (a, b), (c, d) = xrange, yrange
    return _adaptive(f2, [_edges(a, b, xsplits), _edges(c, d, ysplits)], tol,
                     order, max_rects)
