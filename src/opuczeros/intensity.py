"""Real- and complex-zero intensity functions and their limiting densities.

The real intensity has two independent evaluation routes (kernel quotient
and closed Blaschke form); the complex intensity likewise (three-term kernel
formula and the sigma-decomposition).  Routes agree to near machine accuracy
away from their respective degeneracies and tests enforce this.  The kernel
route and E[P'/P] are term functions folded over one Szegő sweep by
``szego._fold``, which owns the rescale mirroring.  Where the coefficients
end in zeros, every route stops the sweep there and adds the tail in closed
form (``_zero_tail``; ``_closed_tail`` for E[P'/P] away from R) or by
``szego._doubling`` with their own block algebra.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomainError
from .kernels import CD_CUTOFF, kernel_bundle, reversed_kernel_bundle
from .szego import _doubling, _fold, _sweep, _tail_start, as_verblunsky, evaluate

# dispatch from the closed form to the kernel form near x = +-1
CLOSED_CUTOFF = 1e-3
# complex intensity denominator floor after unscaling (log scale)
_DEGENERACY_LOG_FLOOR = math.log(1e-300)
_TINY = np.finfo(float).tiny
# the block ([C, D], p, q, s, e) of the row w_0 = 1, w_0' = 0, broadcasting
_UNIT = (np.zeros((2, 1), dtype=complex), np.ones(1), np.zeros(1), np.zeros(1), 0.0)


@dataclass
class IntensityValue:
    """Zeros per unit length (real case) or per unit area (complex case)."""

    z: complex
    rho: float
    route: str


def _clamped_sqrt(r):
    return np.sqrt(np.maximum(r, 0.0))


def h_kac(n, x):
    """Kac-ensemble h_n(x) = n x^{n-1}(1 - x^2)/(1 - x^{2n})."""
    x = np.asarray(x, dtype=float)
    return n * x ** (n - 1) * (1.0 - x * x) / (1.0 - x ** (2 * n))


def _h(phi, phi_star, dphi, dphi_star, x):
    """(1 - x^2) b'(x) / (1 - b^2(x)) for b = phi/phi^*, from degree-n values."""
    # ratios of same-scale mantissas; the shared exponent cancels
    b = phi / phi_star
    db = (dphi * phi_star - phi * dphi_star) / (phi_star * phi_star)
    h = (1.0 - np.asarray(x) ** 2) * db / (1.0 - b * b)
    return np.real(h)


def h_closed(alpha, n, x):
    """h_n(x) = (1 - x^2) b_n'(x) / (1 - b_n^2(x)) for real x in (-1, 1)."""
    ev = evaluate(alpha, n, np.asarray(x, dtype=float))
    return _h(ev.phi, ev.phi_star, ev.dphi, ev.dphi_star, x)


def h_alt(alpha, n, x):
    """Alternative h_n via the shifted Blaschke product z*b_{n-1}(z)."""
    # g = x b_{n-1} = (x phi)/phi^* and g' = b + x b' through _h's quotient rule
    x = np.asarray(x, dtype=float)
    ev = evaluate(alpha, n - 1, x)
    return _h(x * ev.phi, ev.phi_star, ev.phi + x * ev.dphi, ev.dphi_star, x)


# degrees per block of the real kernel route; fixed, so the blocks a point's
# terms fall into depend on the degree alone, never on the grid
_BLOCK = 32


def _block_sum(t):
    """Sum the _BLOCK rows of t, overwriting t.

    Halving by elementwise adds gives every column the same order of
    additions at any width (numpy's own sum over rows goes pairwise for a
    single column and row by row for many).
    """
    h = len(t)
    while h > 1:
        h //= 2
        t[:h] += t[h:2 * h]
    return t[0]


def _merge(k, mu, r, rows):
    """Fold a block of terms rows = [[x_i, y_i], ...] into (K, mu, R).

    The pairwise update of Chan, Golub & LeVeque ("Algorithms for computing
    the sample variance", Amer. Stat. 37, 1983) for a regression through 0:
    with K' = K + sum x^2, mu' = (K mu + sum x y)/K' and e = y - mu' x,

        R' = R + K (mu' - mu)^2 + sum e^2,

    a sum of nonnegative terms (_join's update on the factor, which has no
    slope mu; here phi_0 = 1 gives K > 0).  The shift mu' - mu = sum x f / K'
    with f = y - mu x is formed directly, so it does not cancel, and
    e = f - (mu' - mu) x.
    """
    x, y = rows[:, 0], rows[:, 1]
    f = y - mu * x
    k_new = k + _block_sum(x * x)
    d = _block_sum(x * f) / k_new
    e = f - d * x
    return k_new, mu + d, r + k * (d * d) + _block_sum(e * e)


def _kernel_fold(steps):
    """The kernel route's regression state (K, mu, R) folded over real sweep steps.

    K = K_n(x, x) is the sum of squares of phi and R = K^(1,1) - (K^(1,0))^2/K
    the residual of phi' regressed on phi, a sum of nonnegative terms.
    K K^(1,1) - (K^(1,0))^2 from the three sums instead cancels every digit
    where the polynomials grow geometrically (19 at x = 1 - 1e-9 for
    constant(0.5), n = 839), and its products of mantissas overflow.  The
    fold stores the rows [phi_i, phi_i'] of _BLOCK degrees, dividing them by
    sc at a rescale as it divides K and R by sc^2, and merges each block
    with _merge; the last block is padded with zero rows, which add exact
    zeros.
    """
    def add(state, P, S):
        k, mu, r, rows, j = state
        if rows is None:
            rows = np.zeros((_BLOCK,) + P.shape)
        rows[j] = P
        if j + 1 < _BLOCK:
            return k, mu, r, rows, j + 1
        return _merge(k, mu, r, rows) + (rows, 0)

    # where K underflows to 0, the merge divides by 0; _real_rho raises
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        (k, mu, r, rows, j), _ = _fold(steps, add, (0.0, 0.0, 0.0, None, 0),
                                       (2, 0, 2, 1, 0))
        if j:
            rows[j:] = 0.0
            k, mu, r = _merge(k, mu, r, rows)
    return k, mu, r


# (sinh y - y)/y^3 and (y cosh y - sinh y)/y^3 in y^2, to eps for y <= 1.5
_SINH_SERIES = np.array([1.0 / math.factorial(2 * j + 3) for j in range(10, -1, -1)])
_COSH_SERIES = _SINH_SERIES * np.arange(22.0, 0.0, -2.0)


def _geometric_moments(c, t, n):
    """The moments of i < n under the weights t^i = e^-ci.

    Returns S0 = sum t^i and E/t, V/t for the mean E and variance V of i.
    For |n c| > 3 the truncated geometric law's direct forms lose at most two
    bits; else y = c/2, |Y| = |n y| <= 1.5 and the series of g = coth y - 1/y
    and f = sinh^-2 y - y^-2 give 2E = g(y) - n g(Y) + n - 1,
    4V = f(y) - n^2 f(Y).  Near t = 1 the moments are only as accurate as
    c = -ln t, so the callers form c from a 1 - t good to its last bits.  The
    real route's tail has t <= 1; the contour's also reads S0 and E/t past
    t = 1 (c < 0).
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a, b, p = -np.expm1(-c), -np.expm1(-n * c), np.exp(-(n - 1) * c)
        s0, e_t, v_t = b / a, 1.0 / a - n * p / b, 1.0 / (a * a) - n * n * p / (b * b)
        near = np.abs(n * c) <= 3.0
        if not near.any():
            return s0, e_t, v_t
        y = 0.5 * c[near] * np.array([[1.0], [n]])  # y and Y
        w = y * y
        s, q = np.polyval(_SINH_SERIES, w), np.polyval(_COSH_SERIES, w)
        sinhc = 1.0 + w * s  # sinh(y)/y
        g, f = y * q / sinhc, -s * (2.0 + w * s) / (sinhc * sinhc)
        s0[near] = n * np.exp(-(n - 1) * y[0]) * sinhc[1] / sinhc[0]
        e_t[near], v_t[near] = np.array([0.5 * (g[0] - n * g[1] + (n - 1)),
                                         0.25 * (f[0] - n * n * f[1])]) / t[near]
    return s0, e_t, v_t


def _zero_tail(k, mu, r, P, sc, u, n):
    """K and R of the kernel state (K, mu, R) after n zero coefficients.

    P = [phi_K, phi_K'] is the sweep's step of degree K, sc its rescale.  The
    rows u^i [phi_K, i phi_K/u + phi_K'], i < n, weigh t^i; with S0 = sum t^i
    and E, V the mean and variance of i (_geometric_moments), _merge's update
    gives K' = K + phi_K^2 S0, R' = R + phi_K^2 S0 V/t + K S0 d^2/K' with
    d = phi_K (E/u - mu) + phi_K': nonnegative terms, no division by phi_K.
    """
    a = np.abs(u)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # |u| - 1 is exact near |u| = 1
        s0, e_t, v_t = _geometric_moments(-2.0 * np.log1p(a - 1.0), a * a, n)
        if sc is not None:
            k, r = k / (sc * sc), r / (sc * sc)
        kt = P[0] * P[0] * s0
        d = P[0] * (u * e_t - mu) + P[1]
        return k + kt, r + kt * v_t + s0 * d * d * (k / (k + kt))


def real_intensity_kernel_grid(alpha, n, x):
    """Kernel-form real intensity on a grid, valid at x = +-1 too.

    sqrt(K K^(1,1) - (K^(1,0))^2)/(pi K) from the CD kernel sums over
    degrees 0..n-1 at u = _inverted(x), folded as in _kernel_fold, with a
    zero tail in closed form (_zero_tail).  Raises OutOfDomainError where
    K_n(x, x) underflows against K_n^(1,1)(x, x) (x = 1 for constant(0.5)
    from n = 840).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _real_rho(alpha, n, x, np.zeros(x.shape, dtype=bool))


def _inverted(x):
    """The points both routes sweep: x, or 1/x for |x| >= 1.

    Past +-1 the values grow geometrically, so a direct sweep rescales
    at nearly every step; at 1/x they stay in range.
    """
    outer = np.abs(x) >= 1.0
    u = x.copy()
    u[outer] = 1.0 / x[outer]
    return u


def _uninverted(rho, x):
    """rho at x from rho at u = _inverted(x), in place: rho(x) = rho(1/x)/x^2."""
    outer = np.abs(x) >= 1.0
    with np.errstate(over="ignore"):  # x^2 = inf past 1.3e154 gives the right 0
        rho[outer] = rho[outer] / (x[outer] * x[outer])
    return rho


def _closed_rho(P, S, x, u):
    """Closed-form intensity at x from the degree-n values P, S at u = _inverted(x)."""
    (phi, dphi), (phi_star, dphi_star) = P, S
    h = _h(phi, phi_star, dphi, dphi_star, u)
    return _uninverted(_clamped_sqrt(1.0 - h * h) / (np.pi * np.abs(1.0 - u * u)), x)


def real_intensity_closed_grid(alpha, n, x):
    """Closed-form real intensity on a grid with |1 - x^2| > CLOSED_CUTOFF.

    For |x| > 1 the value is obtained from 1/x in (-1, 1) through the
    inversion identity rho(1/x) = x^2 rho(x).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    with np.errstate(over="ignore"):  # x^2 = inf is far from +-1
        if n > 1 and np.any(np.abs(1.0 - x * x) <= CLOSED_CUTOFF):
            raise OutOfDomainError("closed form unstable near x = +-1; use the kernel form")
    return real_intensity_grid(alpha, n, x)


def real_intensity_grid(alpha, n, x):
    """Real intensity on a grid, dispatching each point to one of the two routes.

    Points with |1 - x^2| > CLOSED_CUTOFF take the closed form, the rest
    the kernel form; both evaluate at 1/x for |x| > 1.  Both routes are
    folds over one Szegő sweep of all the points: the kernel sums over
    degrees 0..n-1 on the kernel points, then the closed form from the
    degree-n values of the closed points; where the coefficients a route
    reads end in N >= 2 zeros from index K on, only to degree K, with the
    tail in closed form (_zero_tail; phi_n = u^N phi_K).  Per-point
    arithmetic and rescale degrees do not depend on which points share a
    sweep, so the values are bit-identical to real_intensity_closed_grid and
    real_intensity_kernel_grid applied to the two subsets.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    with np.errstate(over="ignore"):  # x^2 = inf takes the closed route
        closed = np.abs(1.0 - x * x) > CLOSED_CUTOFF
    return _real_rho(alpha, n, x, closed)


def _real_rho(alpha, n, x, closed):
    """The closed form at x[closed] and the kernel form at the rest, from one sweep."""
    if n <= 1:
        return np.zeros(x.shape)
    u = _inverted(x)
    m = np.count_nonzero(closed)
    # the kernel sums stop at degree n - 1; only the closed form needs n
    a = as_verblunsky(alpha).array(n if m else n - 1)
    kk = _tail_start(a[:n - 1], n)
    kc = _tail_start(a, n) if m else kk  # kc >= kk: the closed points sweep on
    steps = _sweep(a[:kc], np.concatenate([u[closed], u[~closed]]))
    out = np.empty(x.shape)
    if m < len(x):
        k = mu = r = 0.0
        if kk:
            k, mu, r = _kernel_fold((P[:, m:], None, None if sc is None else sc[m:])
                                    for P, S, sc in itertools.islice(steps, kk))
        if kk < n:  # degree K, where the zero tail starts
            P, S, sc = next(steps)
            k, r = _zero_tail(k, mu, r, P[:, m:], None if sc is None else sc[m:],
                              u[~closed], n - kk)
        with np.errstate(all="ignore"):  # an inf or nan quotient raises below
            q = r / k
        if not np.all((k > 0.0) & np.isfinite(q)):
            raise OutOfDomainError("K_n(x, x) underflowed against K_n^(1,1)(x, x) "
                                   "at the requested point; too close to x = +-1 "
                                   "for this n")
        out[~closed] = _uninverted(np.sqrt(q) / np.pi, x[~closed])
    if m:
        for P, S, _ in steps:  # on to degree kc (none left if the kernel took it)
            pass
        (phi, dphi), v = P[:, :m], u[closed]
        if kc < n:  # phi_n = v^N phi_K; phi^*_n = phi^*_K
            phi, dphi = v ** (n - kc) * phi, v ** (n - kc - 1) * ((n - kc) * phi + v * dphi)
        out[closed] = _closed_rho((phi, dphi), S[:, :m], x[closed], v)
    return out


def _bundle_intensity(b, degenerate):
    """Complex intensity from a kernel bundle (three-term formula).

    The formula is homogeneous of degree 0 in the five kernel sums, so they
    are divided by K_n(z, z) first: K_n^2 itself overflows for |z| > 1 at
    large n even though every sum is a finite mantissa.
    """
    k = np.atleast_1d(b.k_zz)
    kb = np.atleast_1d(b.k_zzbar) / k
    k10 = np.atleast_1d(b.k10_zz) / k
    k10b = np.atleast_1d(b.k10_zzbar) / k
    k11 = np.atleast_1d(b.k11_zz) / k
    ls = np.atleast_1d(b.log_scale)
    # d = (K^2 - |K(z, conj z)|^2) / K^2; the floor applies to the unscaled
    # K^2 d, compared in logs
    d = 1.0 - (kb.real ** 2 + kb.imag ** 2)
    with np.errstate(divide="ignore"):
        bad = (d <= 0.0) | (np.log(np.maximum(d, 1e-320)) + 2.0 * (np.log(k) + ls)
                            < _DEGENERACY_LOG_FLOOR)
    if np.any(bad):
        if degenerate != "zero":
            raise OutOfDomainError("K_n^2 - |K_n(z, conj z)|^2 degenerate at "
                                   "the requested point; too close to R or T "
                                   "for this n")
        d = np.where(bad, 1.0, d)
    d12 = np.sqrt(d)
    d32 = d * d12
    t1 = k11 / d12
    t2 = ((k10.real ** 2 + k10.imag ** 2) + (k10b.real ** 2 + k10b.imag ** 2)) / d32
    t3 = 2.0 * np.real(kb * k10 * np.conj(k10b)) / d32
    rho = np.maximum(t1 - t2 + t3, 0.0) / np.pi
    if np.any(bad):
        rho = np.where(bad, 0.0, rho)
    return rho


def complex_intensity_grid(alpha, n, z, degenerate="raise"):
    """Three-term kernel-form complex intensity on a grid off R and T.

    The kernel sums stop the sweep at a zero tail and add the tail by doubling.
    degenerate="zero" returns 0 where the denominator underflows instead of
    raising; quadrature integrands use that, since the density is negligible
    on the offending sliver along the real axis.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if n <= 1:
        return np.zeros(z.shape)
    if np.any(z.imag == 0.0):
        raise OutOfDomainError("complex intensity is undefined on the real line")
    return _bundle_intensity(kernel_bundle(alpha, n, z), degenerate)


def complex_intensity_reversed_grid(alpha, n, u, degenerate="raise"):
    """Complex intensity of the reversed polynomial u^(n-1) P_n(1/u).

    Equal to |u|^(-4) times the intensity of P_n at 1/u, but evaluated
    stably for small |u|, so exterior zero counts reduce to an integral
    over the unit disk in the u variable.
    """
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    if n <= 1:
        return np.zeros(u.shape)
    if np.any(u.imag == 0.0):
        raise OutOfDomainError("complex intensity is undefined on the real line")
    return _bundle_intensity(reversed_kernel_bundle(alpha, n, u), degenerate)


def _turn(block, v, dv, de=0.0):
    """The block of the rows v w_i, v w_i' + dv w_i from that of the w_i, at e + de.

    A block ([C, D], p, q, s, e) holds C, D / 4^e and the factor (p, q, s) of
    _contour_sums / 2^e: the rows p + i q and i s have its A and B.  Both
    turn by v and are triangularised again with s' = |v|^2 p s/p', a product
    (A^2 - |B|^2 = 4 p^2 s^2 is never formed); where both turned rows are
    imaginary (p' = 0), s' holds all of them.
    """
    cd, p, q, s, e = block
    w = p + 1j * q
    ab = np.stack([p * p + q * q + s * s, w * w - s * s])
    cd = np.stack([np.conj(v), v]) * (v * cd + dv * ab)
    w, x2, y2 = v * w, -s * v.imag, s * v.real  # and the row v (i s)
    p2 = np.hypot(w.real, x2)
    d = np.where(p2 == 0.0, 1.0, p2)
    s2 = np.where(p2 == 0.0, np.hypot(w.imag, y2), (v.real * v.real + v.imag * v.imag) * p * s / d)
    return cd, p2, (w.real * w.imag + x2 * y2) / d, s2, e + de


def _join(b1, b2):
    """Both blocks' rows, at the larger scale: _merge's update on the factors,
    p = hypot(p1, p2), q = (p1 q1 + p2 q2)/p, s = hypot(s1, s2, (p1 q2 - p2 q1)/p)."""
    e = np.maximum(b1[4], b2[4])
    (cd1, p1, q1, s1), (cd2, p2, q2, s2) = ((b[0] * (f * f), b[1] * f, b[2] * f, b[3] * f)
                                            for b, f in ((b, np.exp2(b[4] - e)) for b in (b1, b2)))
    p = np.hypot(p1, p2)
    return (cd1 + cd2, p, (p1 * q1 + p2 * q2) / p,
            np.hypot(np.hypot(s1, s2), (p1 * q2 - p2 * q1) / p), e)


def _one_minus_abs2(z):
    """1 - |z|^2 within a few ulps of itself, however near |z| is to 1: the
    squares split exactly (Dekker's products) and 1 - s is exact for s in [1/2, 2]."""
    x = np.stack([z.real, z.imag])
    h = 134217729.0 * x  # 2^27 + 1
    h -= h - x  # x's high half, x = h + l
    l = x - h
    sq = x * x
    err = ((h * h - sq) + 2.0 * h * l) + l * l  # x^2 = sq + err
    s = sq[0] + sq[1]
    bb = s - sq[0]
    return ((1.0 - s) - ((sq[0] - (s - bb)) + (sq[1] - bb))) - (err[0] + err[1])


def _closed_tail(z, n):
    """The indices of the points z where the block ([C, D], p, q, s, e) of the
    rows z^i, i z^(i-1), i < n, is well conditioned in closed form, and that block.

    With t = |z|^2: A = S0 = sum t^i and C = sum i z^(i-1) conj z^i
    = conj(z) S0 E/t (_geometric_moments, as in the real route's tail),
    B = (1 - z^(2n))/(1 - z^2) and D = sum i z^(2i-1) = (z B - n z^(2n-1))/(1 - z^2)
    with z^(2n) by binary powering; then K = (A + Re B)/2, p = sqrt(K),
    q = Im B/(2p) and s^2 = R = (A^2 - |B|^2)/(4K), a product of (A -+ |B|)/(2p).
    c = -ln t comes from _one_minus_abs2: from a rounded |z|, A and C would
    lose a factor 1/|1 - t| in accuracy.
    The points are those with |1 - z^2| >= 1/2 and |B| <= A/2, so that
    A^2 - |B|^2 >= 3 A^2/4 does not cancel (next to R, B nears A), and with
    t^n < e^100, so that the block at e = 0 stays far inside the float range
    when a head's mantissas turn it.  As |B| >= |1 - t^n|/|1 - z^2| and
    A = (1 - t^n)/(1 - t), |B| <= A/2 needs |1 - z^2| >= 2 |1 - t|, which
    screens the points first.  The choice reads z and n alone, so a point's
    bytes do not depend on its grid.
    """
    with np.errstate(over="ignore"):  # |z| past 1e154 fails the screen
        one_z2 = 1.0 - z * z
        w, t = np.abs(one_z2), z.real * z.real + z.imag * z.imag
    idx = np.flatnonzero((w >= np.maximum(0.5, 2.0 * np.abs(1.0 - t))) & (t < math.exp(100.0 / n)))
    if not len(idx):
        return idx, None
    v, d1 = z[idx], one_z2[idx]
    s0, e_t, _ = _geometric_moments(-np.log1p(-_one_minus_abs2(v)), t[idx], n)
    z2n, sq, m = None, v, 2 * n  # z^(2n) by binary powering: no complex log or exp
    while True:
        if m & 1:
            z2n = sq if z2n is None else z2n * sq
        m >>= 1
        if not m:
            break
        sq = sq * sq
    b = (1.0 - z2n) / d1
    ab = np.abs(b)
    ok = ab <= 0.5 * s0
    if not ok.all():
        idx, v, d1, z2n, b, ab, s0, e_t = (x[ok] for x in (idx, v, d1, z2n, b, ab, s0, e_t))
    p = np.sqrt(0.5 * (s0 + b.real))
    p2 = 2.0 * p
    return idx, (np.stack([(s0 * e_t) * np.conj(v), (v * b - n * (z2n / v)) / d1]), p,
                 b.imag / p2, np.sqrt(((s0 - ab) / p2) * ((s0 + ab) / p2)), np.zeros(len(idx)))


def _unit_tail(z, n):
    """The block of the rows z^i, i z^(i-1), i < n: in closed form where
    _closed_tail allows, by szego._doubling at the other points."""
    idx, block = _closed_tail(z, n)
    if not len(idx):  # an empty grid included
        return _doubling(z, n, _UNIT, _turn, _join)[0]
    if len(idx) == len(z):
        return block
    rest = np.ones(len(z), dtype=bool)
    rest[idx] = False
    rest = np.flatnonzero(rest)
    doubled = _doubling(z[rest], n, _UNIT, _turn, _join)[0]
    cd, pqse = np.empty((2, len(z)), complex), np.zeros((4, len(z)))
    cd[:, idx], cd[:, rest] = block[0], doubled[0]
    pqse[:3, idx], pqse[:, rest] = block[1:4], doubled[1:]
    return (cd,) + tuple(pqse)


def _contour_sums(steps, m, tail=None):
    """The sums A, B, C, D of E[P'/P], and p^2, s^2, folded over one sweep.

    X = P(z) = sum eta_i v_i(z) is a complex Gaussian with
    E|X|^2 = A = sum |v_i|^2 and E X^2 = B = sum v_i^2; Y = P'(z) has
    E[Y conj X] = C = sum v_i' conj v_i and E[Y X] = D = sum v_i' v_i (for
    v_i = phi_i: K(z, z), K(z, conj z), K^(1,0)(z, z), K^(1,0)(z, conj z)).
    steps yields (V, S, sc) per degree with V = [v_i, v_i'] at m points, as
    the sweep does (S is not read).  In place, the fold adds C and D and
    appends each row v = x + iy by a Givens rotation to the factor (p, q, s)
    that _turn and _join hold: p' = sqrt(p^2 + x^2), q' = (p q + x y)/p' and
    s'^2 = s^2 + ((p y - x q)/p')^2, with no slope to blow up where the
    first rows are nearly imaginary.  A = p^2 + q^2 + s^2, B = (p + iq)^2 - s^2
    and A^2 - |B|^2 = 4 p^2 s^2.  Until every point's p' reaches 1e-150 (the
    reversed basis underflows at low degrees, see _pair_rows), two guards
    read each point alone: below it p' comes from hypot, and where p' = 0
    the row adds y to s alone.  With tail = (k, unit), only the first k
    steps are rows; unit() gives the block of the N rows z^i, i z^(i-1)
    (_unit_tail), which, turned by the next step V = [v, v'] into the rows
    z^i v, z^i v' + i z^(i-1) v, joins the state after the fold mirrored its
    rescale (the scale of the sums drops out of E[P'/P]).
    """
    vv, dvv = np.empty((2, 2, m), dtype=complex)
    t, g = np.empty((2, m))

    def add(state, V, S):
        cd, p, q, s2, p2, started = state
        v, x, y = V[0], V[0].real, V[0].imag
        # [C, D] += v' [conj v, v], v' first as in the kernel sums
        np.conjugate(v, out=vv[0])
        vv[1] = v
        cd += np.multiply(V[1], vv, out=dvv)
        # p' goes into the spare buffer p2, which takes p's place
        np.sqrt(np.add(np.multiply(p, p, out=p2), np.multiply(x, x, out=t), out=p2), out=p2)
        if not started:
            low = p2 < 1e-150  # where p^2 + x^2 may underflow
            p2[low] = np.hypot(p[low], x[low])
            started = not low.any()
        zero = None if started else p2 == 0.0  # there p = x = q = 0: divide by 1
        d = p2 if zero is None else p2 + zero
        np.divide(np.subtract(np.multiply(p, y, out=t), np.multiply(x, q, out=g), out=t), d, out=t)
        if zero is not None:
            t[zero] = y[zero]
        q *= p
        q += np.multiply(x, y, out=g)
        q /= d
        s2 += np.multiply(t, t, out=t)
        return cd, p2, q, s2, p, started

    state = (np.zeros((2, m), dtype=complex),) + tuple(np.zeros((4, m))) + (False,)
    powers = (2, 1, 1, 2, 0, 0)
    if tail is not None:
        rows, unit = tail
        if rows:
            state, _ = _fold(itertools.islice(steps, rows), add, state, powers)

        def add(state, V, S):  # the sums leave the fold at the joined scale
            cd, p, q, s2, p2, _ = state
            cd, p, q, s, _ = _join((cd, p, q, np.sqrt(s2), 0.0), _turn(unit(), V[0], V[1]))
            return cd, p, q, s * s, p2, True
    ((c, d), p, q, s2, *_), _ = _fold(steps, add, state, powers)
    pp, qq = p * p, q * q
    return pp + qq + s2, (pp - qq - s2) + 2j * (p * q), c, d, pp, s2


def _log_derivative(steps, m, tail=None):
    """E[P'/P] from _contour_sums: regressing Y on X and conj X gives

        E[P'/P] = (C/A - (D/A) conj(b)/(1 + sqrt(delta))) / sqrt(delta)

    with b = B/A and delta = (A^2 - |B|^2)/A^2 = 4 (p^2/A)(s^2/A), which
    vanishes on R (E[conj X / X] = conj B/(A + sqrt(A^2 - |B|^2))).
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a, b, c, d, pp, s2 = _contour_sums(steps, m, tail)
        root = np.sqrt(4.0 * (pp / a) * (s2 / a))
        f = (c / a - (d / a) * np.conj(b / a) / (1.0 + root)) / root
    if not np.all(np.isfinite(f)):
        raise OutOfDomainError("K_n^2 - |K_n(z, conj z)|^2 degenerate at the "
                               "requested point; too close to R for this n")
    return f


def log_derivative_grid(alpha, n, z):
    """E[P_n'(z)/P_n(z)] on a grid off R, the contour integrand of zero counts.

    By the argument principle the expected number of zeros inside a closed
    contour G is (1/2 pi i) times the integral of this function along G.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if n <= 1:
        return np.zeros(z.shape, dtype=complex)
    if np.any(z.imag == 0.0):
        raise OutOfDomainError("E[P'/P] is singular on the real line")
    a = as_verblunsky(alpha).array(n - 1)
    kk = _tail_start(a, n)  # rows K.. are z^i phi_K: sweep to degree K only
    return _log_derivative(_sweep(a[:kk], z), len(z),
                           (kk, lambda: _unit_tail(z, n - kk)) if kk < n else None)


# the reversed basis recomputes its power of u from log u this often (in
# degrees) and multiplies by 1/u in between
_POWER_ANCHOR = 32


def _pair_rows(steps, n, u):
    """[phi_i, psi_i] beside [phi_i', psi_i'] per degree of one sweep at u.

    psi_i = u^(n-1-i) phi_i^* is the basis of the reversed polynomial
    P^*(u) = u^(n-1) P(1/u) = sum eta_i psi_i(u) (real coefficients), and
    psi_i' = u^(n-1-i) (phi_i^*' + (n-1-i) phi_i^* / u).  The power shrinks
    with the degree gap, so for small |u| the low degrees underflow (see
    _contour_sums).  It is recomputed from log u every
    _POWER_ANCHOR degrees, and at every degree where it is below the
    smallest normal float, so that no chain carries an underflowed power's
    lost digits (or its 0) into the terms that count; with |u| <= 1 the
    power grows with the degree, so a point leaves that set for good.  The
    rows go into one (2, 2m) buffer that every degree overwrites.
    """
    m = len(u)
    V = np.empty((2, 2 * m), dtype=complex)
    t = np.empty(m, dtype=complex)
    v = 1.0 / u
    log_u = np.log(u)
    low = np.arange(m)
    for i, (P, S, sc) in enumerate(steps):
        p = n - 1 - i
        w = np.exp(p * log_u) if i % _POWER_ANCHOR == 0 else w * v
        if low.size:
            w[low] = np.exp(p * log_u[low])
            low = low[np.abs(w[low]) < _TINY]
        phis, dphis = S
        V[:, :m] = P
        np.multiply(w, phis, out=V[0, m:])
        # no complex product overwrites an operand (see szego._sweep)
        np.add(np.multiply(np.multiply(p, v, out=t), phis, out=V[1, m:]), dphis, out=t)
        np.multiply(w, t, out=V[1, m:])
        yield V, None, None if sc is None else np.concatenate([sc, sc])


def log_derivative_pair_grid(alpha, n, u):
    """E[P_n'/P_n] and E[P_n^*'/P_n^*] at points u off R, from one sweep.

    P_n^*(u) = u^(n-1) P_n(1/u) is the reversed polynomial, so the second
    gives E[P_n'/P_n] at z = 1/u through

        E[P_n'/P_n](z) = (n - 1)/z - E[P_n^*'/P_n^*](1/z)/z^2

    without the cancellation of forming it at z: inside the closed unit
    disk both are folds over the same Szegő sweep at u.
    """
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    if n <= 1:
        return np.zeros(u.shape, dtype=complex), np.zeros(u.shape, dtype=complex)
    if np.any(u.imag == 0.0):
        raise OutOfDomainError("E[P'/P] is singular on the real line")
    if np.any(np.abs(u) > 1.0):
        raise OutOfDomainError("the reversed fold needs |u| <= 1")
    a = as_verblunsky(alpha).array(n - 1)
    kk = _tail_start(a, n)
    # psi_(n-1-j) = u^j phi_K^* for j < N: the tail in u, from (phi_K^*, phi_K^*')
    steps = _sweep(a[:kk], u)
    rows = itertools.chain(_pair_rows(itertools.islice(steps, kk), n, u),
                           ((np.concatenate([P, S], axis=1), None, None if sc is None
                             else np.concatenate([sc, sc])) for P, S, sc in steps))
    tail = None
    if kk < n:  # one block in u serves both halves of the rows
        tail = (kk, lambda: tuple(np.concatenate([x, x], axis=-1) for x in _unit_tail(u, n - kk)))
    f = _log_derivative(rows, 2 * len(u), tail)
    return f[:len(u)], f[len(u):]


def _sigma_intensity(alpha, n, z):
    """Sigma-decomposition route; identical value through different algebra.

    Its kernels are Christoffel-Darboux quotients by 1 - |z|^2 and 1 - z^2,
    so it raises OutOfDomainError next to T, as kernel_cd does.
    """
    zc = complex(z)
    if n <= 1:
        return 0.0
    if zc.imag == 0.0:
        raise OutOfDomainError("complex intensity is undefined on the real line")
    az2 = abs(zc) ** 2
    one_m_az2 = 1.0 - az2
    one_m_z2 = 1.0 - zc * zc
    if min(abs(one_m_az2), abs(one_m_z2)) < CD_CUTOFF * (1.0 + az2):
        raise OutOfDomainError("the sigma route's quotients lose digits next to "
                               "T; use the kernel form")
    ev = evaluate(alpha, n, zc)
    # Work with the scaled mantissas: every term below is homogeneous of
    # degree six in the polynomial values, as is d**1.5, so the scale
    # factor cancels in the final ratio.
    p, ps, dp, dps = ev.phi, ev.phi_star, ev.dphi, ev.dphi_star
    a1m = one_m_az2 * one_m_az2
    a2m = abs(one_m_z2) ** 2
    k = (abs(ps) ** 2 - abs(p) ** 2) / one_m_az2
    kb = (ps * ps - p * p) / one_m_z2
    d = k * k - abs(kb) ** 2
    if d <= 0.0:
        raise OutOfDomainError("degenerate denominator in the sigma route")
    w = dps * p - dp * ps
    sigma1 = k ** 3 / a1m - k * abs(kb) ** 2 * (2.0 / a1m - 1.0 / a2m)
    sigma3 = k * abs(w) ** 2 * (1.0 / a2m - 1.0 / a1m)
    # Cross group, combined from the mixed derivative terms.  The first
    # piece couples the rotation-breaking part of the kernel with the
    # z-derivative pairing, the second with its reflected counterpart.
    s_mixed = dps * np.conj(ps) - dp * np.conj(p)
    s_refl = dps * ps - dp * p
    zcb = np.conj(zc)
    one_m_zb2 = 1.0 - zcb * zcb
    cross = 2.0 * abs(kb) ** 2 * (
        (zcb * s_mixed / one_m_zb2).real / one_m_az2
        - (zc * s_mixed).real / a1m
    ) + 2.0 * k * (
        (zcb * kb * np.conj(s_refl) / one_m_zb2).real / one_m_az2
        - (zc * kb * np.conj(s_refl)).real / a2m
    )
    return max(sigma1 + cross + sigma3, 0.0) / (math.pi * d ** 1.5)


def complex_intensity(alpha, n, z, route="kernel_form"):
    """Expected complex zeros per unit area at z, off R union T."""
    if route == "kernel_form":
        rho = complex_intensity_grid(alpha, n, [complex(z)])[0]
    elif route == "sigma_decomposition":
        rho = _sigma_intensity(alpha, n, z)
    else:
        raise OutOfDomainError("unknown route %r" % (route,))
    return IntensityValue(complex(z), float(rho), route)


def limit_complex_density(z):
    """Large-n limit of the complex intensity for ensembles with alpha_k -> 0."""
    zc = complex(z)
    if zc.imag == 0.0 or abs(abs(zc) - 1.0) < 1e-15:
        raise OutOfDomainError("limit density is defined off R union T")
    az2 = abs(zc) ** 2
    ratio = abs((1.0 - az2) / (1.0 - zc * zc)) ** 2
    rad = max(1.0 - ratio, 0.0)
    return math.sqrt(rad) / (math.pi * (1.0 - az2) ** 2)


def limit_real_density(x, b=None, db=None):
    """Limit of the real intensity when b_n -> b in the unit disk.

    With b None (the Nevai case, alpha_k -> 0) this is 1/(pi |1 - x^2|).
    Otherwise b and db are callables giving the limit function and its
    derivative on (-1, 1).
    """
    xf = float(x)
    if abs(1.0 - xf * xf) < 1e-15:
        raise OutOfDomainError("limit density diverges at x = +-1")
    if b is None:
        return 1.0 / (math.pi * abs(1.0 - xf * xf))
    bv = b(xf)
    h = db(xf) * (1.0 - xf * xf) / (1.0 - bv * bv)
    return math.sqrt(max(1.0 - h * h, 0.0)) / (math.pi * abs(1.0 - xf * xf))


_SMALL_TAU = 1e-2


def growth_log_derivative(tau):
    """g(tau) = H'(tau)/H(tau) for H(tau) = (e^tau - 1)/tau.

    Stable form 1/(1 - e^{-tau}) - 1/tau, with a series for small tau.
    """
    t = float(tau)
    if abs(t) < _SMALL_TAU:
        # g = 1/2 + t/12 - t^3/720 + t^5/30240 - ...
        return 0.5 + t / 12.0 - t ** 3 / 720.0 + t ** 5 / 30240.0
    if t > 0:
        return 1.0 / (1.0 - math.exp(-t)) - 1.0 / t
    return math.exp(t) / (math.exp(t) - 1.0) - 1.0 / t


def scaling_limit_density(tau):
    """Near-circle scaling limit (1/2pi) d/dtau [H'(tau)/H(tau)].

    Equals g'(tau)/(2 pi) with g'(tau) = 1/tau^2 - 1/(4 sinh^2(tau/2));
    a series expansion handles the 0/0 at tau = 0.
    """
    t = float(tau)
    if abs(t) < _SMALL_TAU:
        u = t * t / 12.0 + t ** 4 / 360.0 + t ** 6 / 20160.0
        gp = (1.0 / 12.0 + t * t / 360.0 + t ** 4 / 20160.0) / (1.0 + u)
        return gp / (2.0 * math.pi)
    gp = 1.0 / (t * t)
    if abs(t) <= 1400.0:  # beyond, 1/(4 sinh^2(tau/2)) is 0 in double precision
        sh = math.sinh(0.5 * t)  # and sinh overflows from |tau| = 1421 on
        gp -= 1.0 / (4.0 * sh * sh)
    return gp / (2.0 * math.pi)
