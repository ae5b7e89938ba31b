"""Szegő recurrence evaluation of orthonormal polynomials on the unit circle.

One engine, ``_sweep``, propagates the orthonormalized quadruple
(phi_k, phi_k^*, phi_k', (phi_k^*)') jointly and yields it at every degree;
``evaluate``, the kernel sums and the intensities are folds over it through
``_fold``, which owns the rescale mirroring.  Real points sweep in float64.
Stored values are mantissas; true values equal stored values times
exp(log_scale), with a shared exponent per evaluation point so that
downstream ratio formulas never see the scale.

The quadruple is stacked as P = [phi, phi'] and S = [phi^*, (phi^*)'], so a
step is five array operations with s = 1/sqrt(1 - a^2): Q = z P,
Q[1] += P[0], T = a X[::-1] and X = (X - T) s on the pair X = [Q, S] (or
[S, Q]), all in place in one (3, 2, m) buffer and T.  With a = 0 a step
is the first two alone: s = 1 and the mixing changes no finite value, so
the free (Kac) ensemble and Bernstein-Szegő tails skip it.  On narrow
grids those two cost a numpy call each, so they take no broadcast and no
indexing: z is stacked once to P's (2, m) shape, and the rows Q[1] and P[0]
are views built once per slot.  P alternates between two slots, so
Q = z P never overwrites its operand: numpy rounds a complex product
written over a length-1 operand differently than at other lengths, so a
lone point's bits would differ from its bits in a grid.  The product keeps
its order, z P: swapped operands round differently too.
Every element sees the arithmetic of four separate updates (phi + z phi'
only becomes z phi' + phi).

A fold divides each accumulator by sc^p at a rescale, where p is its power
in the sweep values: sums of squares p = 2, stored rows p = 1 (the real
kernel route keeps the rows of a block of degrees and merges them at once,
see ``intensity._kernel_fold``), ratios p = 0.  The kernel sums and
``evaluate`` add one degree at a time, bit-identical to a per-step
reference; the kernel sums and E[P'/P] stop at a zero tail and add it by
``_doubling``, each with its own block algebra, and E[P'/P] derives two of
its sums (``intensity._contour_sums``).

The range check ``_rescale`` runs only when a mantissa could leave
[1e-100, 1e100].  Per step the largest of the four moduli grows by at most
the factor (1 + max|z| + |a|) s, and max(|phi|, |phi^*|) shrinks by at most
(1 + |a|) s, no more than that (invert the step; |phi| <= |phi^*| on the
closed disk).  Inverting the step also bounds the shrink of the four-max
itself, by (1 + |a|) s (1 + r)/r^2 with r = min(1, smallest nonzero |z|),
so the four-max keeps the schedule going after phi and phi^* underflow (they
do at x = +-1 for constant(0.5), while the derivatives stay large).  A point
at 0 needs no such bound: there phi_k^*(0) = kappa_k never shrinks and the
other three values stay within a factor k + 1 of it, so the four-max at 0
stays far above 1e-100.  Each check measures the headroom in bits, less one
bit for rounding, and finds in prefix sums of the log2 bounds the first
degree that could use it up; a shrink is safe until either of its two bounds
says otherwise.  A check can come early but never late, so every rescale lands
on the same degree with the same power of 2 as checking every step would:
outputs, log scales included, are bit-identical.

Each check also flushes underflow: every mantissa whose modulus is below
2^-1022, the smallest normal float, becomes 0 (times 0, so it keeps its
sign).  Where the four values at a point span more than the float range
the small one underflows; with alpha = 0, phi_k(x) = x^k falls below
2^-1022 near degree 1022/log2(1/|x|) while phi^* = 1.  Gradual underflow
never takes it to 0: for 1/2 < |x| < 1, x times the smallest subnormal
rounds back to itself, so phi_4096(0.6) would stick at 5e-324 where the
true value, about 1e-909, rounds to 0.  That stuck value is a rounding
artifact, and every step carrying it runs the slow subnormal path of the
floating-point unit.  The flush waits for the scheduled check rather than
running every step, which keeps the normal-range values: through the sums
of a step a value below 2^-1022 can change the rounding of another element
only when that element is below about 2^-968 (half an ulp of it).  The
tests' reference sweep flushes after every step and matches bit for bit,
up to the sign of an exact zero: a step with a = 0 keeps a -0.0 mantissa
where the full step turns it into +0.0 wherever a X[::-1] is -0.0 (the
kernel sums and log scales match exactly).
Compared with not flushing, only raw mantissas below 2^-968 change: the
subnormals become 0, and a derivative still in that band while phi
underflows loses the phi terms (phi_n' of the free ensemble at n = 4096,
x = 0.84, is about 3.4e-307 and moves by 0.8%).  Rescale degrees, powers of
2 and log scales stay the same, and so do the kernel sums, intensities and
counts folded from the sweep on the benchmark grids.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCoefficientError, OutOfDomainError

ALPHA_BOUND = 1.0 - 1e-12

_MAG_HIGH = 1e100
_MAG_LOW = 1e-100
_TINY = np.finfo(float).tiny


def _validate_block(arr, offset=0):
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 1:
        raise InvalidCoefficientError("coefficient array must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise InvalidCoefficientError("coefficients must be finite reals")
    bad = np.abs(arr) >= ALPHA_BOUND
    if np.any(bad):
        k = offset + int(np.argmax(bad))
        raise InvalidCoefficientError(
            "|alpha_%d| >= 1 - 1e-12; coefficients must lie strictly in (-1, 1)" % k
        )
    return arr


class VerblunskySequence:
    """Real recurrence coefficients alpha_0, alpha_1, ... in (-1, 1).

    Backed either by a finite array or by a generator ``f(k) -> alpha_k``.
    Generator values are memoized up to the largest index requested; the
    memo is guarded by a lock so concurrent readers are safe.
    """

    def __init__(self, values=None, generator=None):
        if (values is None) == (generator is None):
            raise InvalidCoefficientError("provide exactly one of values/generator")
        self._lock = threading.Lock()
        self._gen = generator
        if values is not None:
            self._buf = _validate_block(values)
        else:
            self._buf = np.empty(0, dtype=float)

    def array(self, n):
        """First n coefficients as a read-only ndarray."""
        if n < 0:
            raise InvalidCoefficientError("requested %d coefficients" % n)
        if n <= len(self._buf):
            return self._buf[:n]
        if self._gen is None:
            raise InvalidCoefficientError(
                "requested %d coefficients but only %d are available" % (n, len(self._buf))
            )
        with self._lock:
            if n > len(self._buf):
                start = len(self._buf)
                block = _validate_block([self._gen(k) for k in range(start, n)], offset=start)
                self._buf = np.concatenate([self._buf, block])
        return self._buf[:n]


def as_verblunsky(alpha):
    if isinstance(alpha, VerblunskySequence):
        return alpha
    return VerblunskySequence(values=alpha)


@dataclass
class SzegoEval:
    """Values of (phi_n, phi_n^*, phi_n', (phi_n^*)') at a point or grid.

    True values are the stored fields times exp(log_scale); kappa_log is
    log of the leading coefficient of phi_n.
    """

    n: int
    z: complex
    phi: complex
    phi_star: complex
    dphi: complex
    dphi_star: complex
    log_scale: float
    kappa_log: float

    def unscaled(self):
        s = np.exp(self.log_scale)
        return self.phi * s, self.phi_star * s, self.dphi * s, self.dphi_star * s


def _headroom(ratio):
    return math.log2(ratio) - 1.0 if ratio > 0 else -1.0


def _rescale(P, S):
    """Pull the stacked mantissas back into [1e-100, 1e100] by a power of 2.

    First zeroes, in place, every mantissa whose modulus is below the
    smallest normal float (2^-1022): it underflowed against the larger
    values at its point, and a subnormal left in the state only costs slow
    arithmetic (see the module docstring).  Then divides P and S in place.
    Returns the applied factor (ones where untouched; None when no point
    needed it) and the bits of headroom left, less one bit for rounding: how
    far the four-max may grow, how far max(|phi|, |phi^*|) may shrink, and
    how far the four-max may shrink before a mantissa could leave the range.
    """
    aP, aS = np.abs(P), np.abs(S)
    P[aP < _TINY] *= 0.0
    S[aS < _TINY] *= 0.0
    m = np.maximum(aP.max(0), aS.max(0))
    low = np.maximum(aP[0], aS[0])
    mask = (m > _MAG_HIGH) | ((m > 0) & (m < _MAG_LOW))
    sc = None
    if np.any(mask):
        sc = np.where(mask, np.exp2(np.floor(np.log2(np.where(mask, m, 1.0)))), 1.0)
        P /= sc
        S /= sc
        m, low = m / sc, low / sc
    return (sc, _headroom(_MAG_HIGH / m.max(initial=1.0)),
            _headroom(low.min(initial=1.0) / _MAG_LOW),
            _headroom(m.min(initial=1.0) / _MAG_LOW))


def _points(z):
    """z as a 1-d float64 or complex128 array (ints and float32 promote)."""
    zz = np.atleast_1d(np.asarray(z))
    return zz.astype(np.promote_types(zz.dtype, np.float64), copy=False)


def _sweep(a, z):
    """Run the Szegő recurrence with coefficients a at the points array z.

    Yields (P, S, sc) for degrees k = 0..len(a): P = [phi_k, phi_k'] and
    S = [phi_k^*, (phi_k^*)'] are the stacked mantissas in z's dtype, and sc
    the power-of-2 factor the step into degree k divided them by (None when
    no point was rescaled).  P and S are views of one (3, 2, m) buffer
    that every step overwrites, so a consumer copies what it keeps past the
    next step.  Consumers fold the steps with ``_fold``.
    """
    if not np.all(np.isfinite(z)):
        raise OutOfDomainError("evaluation point must be finite")
    # P alternates between slots 0 and 2 of B, S stays in slot 1, and Q goes
    # into the free slot beside S (see the module docstring)
    B = np.zeros((3, 2) + z.shape, dtype=z.dtype)
    B[:2, 0] = 1.0
    T = np.empty_like(B[:2])
    # per parity: P, Q, the pair X and its reverse, and the rows Q[1], P[0]
    layouts = [(P, Q, X, Xr, Q[1], P[0]) for P, Q, X, Xr in
               ((B[0], B[2], B[1:], B[:0:-1]), (B[2], B[0], B[:2], B[1::-1]))]
    zz = np.stack([z, z])  # z to P's shape: Q = z P multiplies like shapes
    s = 1.0 / np.sqrt(1.0 - a * a)
    # prefix sums over degrees 0..k of log2 bounds per step: the growth of
    # the four-max, which also bounds the shrink of max(|phi|, |phi^*|), and
    # the shrink of the four-max
    az = np.abs(z)
    grow = _prefix(np.log2((1.0 + np.max(az, initial=0.0) + np.abs(a)) * s))
    # phi^* never shrinks at z = 0, so a point there leaves the bound to the rest
    r = float(np.min(az[az > 0.0], initial=1.0))
    # log2 of the factor (1 + r)/r^2 taken apart: it overflows for tiny r
    shrink = _prefix(np.log2((1.0 + np.abs(a)) * s)
                     + (math.log2(1.0 + r) - 2.0 * math.log2(r)))
    due = 1
    S = B[1]
    yield B[0], S, None
    for k, (ak, s) in enumerate(zip(a.tolist(), s.tolist()), 1):
        P, Q, X, Xr, Q1, P0 = layouts[k % 2 == 0]  # Q ends as the new P
        np.multiply(zz, P, out=Q)
        np.add(Q1, P0, out=Q1)
        if ak:  # with a = 0, s = 1 and the mixing changes no finite value
            np.multiply(ak, Xr, out=T)
            X -= T
            X *= s
        sc = None
        if k == due:
            sc, up, low, four = _rescale(Q, S)
            # a shrink is safe until both of its bounds could be used up
            down = max(_first(grow, k, low), _first(shrink, k, four))
            due = max(k + 1, min(_first(grow, k, up), down))
        yield Q, S, sc


def _fold(steps, add, state, powers):
    """Fold state = add(state, P, S) over sweep steps (P, S, sc).

    Every rescale by sc is mirrored before the next term: an accumulator of
    power p in the sweep values is divided by sc^p (sums of squares p = 2,
    stored rows p = 1, ratios p = 0).  sc is a power of 2, and 1 at the
    points it leaves alone, so the division is exact and a point's bits do
    not depend on which points share its sweep.  Returns the final state and
    the summed log(sc) per point, the log scale of the last P and S.
    """
    log_scale = 0.0
    for P, S, sc in steps:
        if sc is not None:
            log_scale = log_scale + np.log(sc)
            with np.errstate(over="ignore"):  # sc^2 = inf past |z| ~ 1e154 gives the right 0
                factor = (None, sc, sc * sc)
            state = tuple(v / factor[p] if p else v for v, p in zip(state, powers))
        state = add(state, P, S)
    return state, log_scale + np.zeros(P.shape[1:])


def _tail_start(a, n):
    """K, the index after the last nonzero of a, if N = n - K >= 2 zeros follow; else n."""
    k = len(a) if len(a) and a[-1] else int(np.flatnonzero(a)[-1]) + 1 if np.any(a) else 0
    return k if k <= n - 2 else n


def _scaled(v, w, e):
    """v, w, e with v 2^e, w 2^e kept and v moved into [1/2, 1) as far as e >= 0 allows."""
    k = np.maximum(np.frexp(np.abs(v))[1], -e)
    f = np.exp2(-k)
    return v * f, w * f, e + k


def _doubling(z, n, unit, turn, join):
    """The block of the rows z^i, i z^(i-1), i < n, by binary doubling, and z^n, z^(n-1) at 2^pe.

    A block ends in its power-of-2 exponent e; unit is row 0, (1, 0), at e = 0,
    in fields that broadcast against z.  turn(block, v, dv, de) holds the rows
    v w_i, v w_i' + dv w_i at e + de, join(b1, b2) both blocks' rows (it may
    write into b2).  Rows m..2m-1 are rows 0..m-1 turned by lam = z^m and m mu,
    mu = z^(m-1) (not lam/z), at 2^le: scaled past |z| = 1 only, z = 0 and
    subnormal z need no case.
    """
    zero, one = np.zeros(z.shape), np.ones(z.shape, z.dtype)
    block, out = unit, None
    (lam, mu, le), (pw, pw1, pe), m = _scaled(z, one, zero), (one, one, zero), 1
    while True:
        if n & m:  # out, the n mod m rows so far, moves on past this block
            out = block if out is None else join(block, turn(out, lam, m * mu, le))
            pw, pw1, pe = _scaled(pw * lam, pw * mu, pe + le)
        if 2 * m > n:
            return out, (pw, pw1, pe)
        block = join(block, turn(block, lam, m * mu, le))
        lam, mu, le = _scaled(lam * lam, lam * mu, 2.0 * le)
        m *= 2


def _prefix(log2_steps):
    return np.concatenate(([0.0], np.cumsum(log2_steps)))


def _first(bits, k, room):
    """First degree whose bound, counted from degree k, could exceed room."""
    return int(np.searchsorted(bits, bits[k] + room, side="right"))


def monic_step(c, a):
    """Phi_{k+1} = z Phi_k - a Phi_k^* on ascending monomial coefficients.

    For real coefficients Phi_k^* is Phi_k reversed, so c alone carries both.
    """
    return np.concatenate([[0.0], c]) - a * np.concatenate([c[::-1], [0.0]])


def ggt_matrix(a):
    """GGT matrix G (m x m) of multiplication by z on phi_0..phi_{m-1}, and rho_{m-1}.

    From the real a = alpha_0..alpha_{m-1}, G is upper Hessenberg with
    G[k, j] = -alpha_j alpha_{k-1} prod_{l=k}^{j-1} rho_l (k <= j, alpha_{-1} = -1)
    and G[j+1, j] = rho_j = sqrt(1 - alpha_j^2); its characteristic
    polynomial is Phi_m (Simon, OPUC vol. 1, ch. 4).  alpha_{m-1} = 1 makes
    G unitary, with the paraorthogonal Phi_m(z; 1) as characteristic polynomial.
    """
    m = len(a)
    rho = np.sqrt(1.0 - a * a)
    # prod_{l=k}^{j-1} rho_l = exp(L_j - L_k) <= 1 for k <= j; the clamp keeps
    # the discarded lower triangle from overflowing
    L = np.concatenate([[0.0], np.cumsum(np.log(rho[:-1]))])
    prev = np.concatenate([[-1.0], a[:-1]])
    G = np.triu(-np.outer(prev, a) * np.exp(np.minimum(L[None, :] - L[:, None], 0.0)))
    G[np.arange(1, m), np.arange(m - 1)] = rho[:-1]
    return G, rho[-1]


def kappa_log(alpha, n):
    """log kappa_n = -(1/2) sum_{k<n} log(1 - alpha_k^2)."""
    a = as_verblunsky(alpha).array(n)
    return -0.5 * math.fsum(math.log1p(-x * x) for x in a)


def evaluate(alpha, n, z):
    """Evaluate (phi_n, phi_n^*, phi_n', (phi_n^*)') at z; real arrays stay real."""
    if n < 0:
        raise InvalidCoefficientError("degree must be nonnegative")
    seq = as_verblunsky(alpha)
    zz = _points(z)
    # the last values the sweep yields are those of degree n
    ((phi, dphi), (phis, dphis)), log_scale = _fold(
        _sweep(seq.array(n), zz), lambda state, P, S: (P, S), (None, None), (0, 0))
    kl = kappa_log(seq, n)
    if np.ndim(z) == 0:
        return SzegoEval(n, complex(zz[0]), complex(phi[0]), complex(phis[0]),
                         complex(dphi[0]), complex(dphis[0]), float(log_scale[0]), kl)
    return SzegoEval(n, zz, phi, phis, dphi, dphis, log_scale, kl)


_DENOM_TOL = 1e-280


def blaschke(alpha, n, z):
    """b_n(z) = phi_n(z)/phi_n^*(z); |b_n| <= 1 on the closed unit disk.

    For |z| > 1 callers should use b_n(1/z) = 1/b_n(z) instead; phi_n^* can
    vanish outside the closed disk.
    """
    ev = evaluate(alpha, n, z)
    denom = np.abs(ev.phi_star)
    if np.any(np.atleast_1d(denom) < _DENOM_TOL):
        raise OutOfDomainError("phi_n^* vanished; b_n undefined at this point")
    return ev.phi / ev.phi_star


def regularity_epsilon(alpha, n):
    """Regularity diagnostic (1/n) log kappa_n, nonnegative, -> 0 iff regular."""
    if n < 1:
        raise InvalidCoefficientError("n must be >= 1")
    return kappa_log(alpha, n) / n
