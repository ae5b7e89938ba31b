"""Szegő recurrence evaluation of orthonormal polynomials on the unit circle.

One engine, ``_sweep``, propagates the orthonormalized quadruple
(phi_k, phi_k^*, phi_k', (phi_k^*)') jointly and yields it at every degree;
``evaluate`` and the kernel sums are folds over it.  Real points sweep in
float64.  Stored values are mantissas; true values equal stored values times
exp(log_scale), with a shared exponent per evaluation point so that
downstream ratio formulas never see the scale.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCoefficientError, OutOfDomainError

ALPHA_BOUND = 1.0 - 1e-12

_MAG_HIGH = 1e100
_MAG_LOW = 1e-100


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


def _rescale(phi, phis, dphi, dphis):
    """Pull the four mantissas back into [1e-100, 1e100] by a power of 2.

    Divides in place and returns the applied factor (ones where untouched),
    or None when no point needed it.
    """
    m = np.maximum(np.maximum(np.abs(phi), np.abs(phis)),
                   np.maximum(np.abs(dphi), np.abs(dphis)))
    mask = (m > _MAG_HIGH) | ((m > 0) & (m < _MAG_LOW))
    if not np.any(mask):
        return None
    sc = np.where(mask, np.exp2(np.floor(np.log2(np.where(mask, m, 1.0)))), 1.0)
    phi /= sc
    phis /= sc
    dphi /= sc
    dphis /= sc
    return sc


def _step(a, z, phi, phis, dphi, dphis):
    """One orthonormalized Szegő step with joint derivative propagation."""
    s = 1.0 / math.sqrt(1.0 - a * a)
    zphi = z * phi
    new_phi = (zphi - a * phis) * s
    new_dphi = (phi + z * dphi - a * dphis) * s
    new_phis = (phis - a * zphi) * s
    new_dphis = (dphis - a * (phi + z * dphi)) * s
    return new_phi, new_phis, new_dphi, new_dphis


def _points(z):
    """z as a 1-d float64 or complex128 array (ints and float32 promote)."""
    zz = np.atleast_1d(np.asarray(z))
    return zz.astype(np.promote_types(zz.dtype, np.float64), copy=False)


def _sweep(a, z):
    """Run the Szegő recurrence with coefficients a at the points array z.

    Yields (phi, phis, dphi, dphis, sc) for degrees k = 0..len(a): the
    mantissas of phi_k, phi_k^*, phi_k', (phi_k^*)' in z's dtype, and the
    power-of-2 factor the step into degree k divided them by (None when no
    point was rescaled).  A consumer adds log(sc) to its log scale and
    divides by sc whatever it accumulated from lower degrees.
    """
    phi = np.ones_like(z)
    phis = np.ones_like(z)
    dphi = np.zeros_like(z)
    dphis = np.zeros_like(z)
    yield phi, phis, dphi, dphis, None
    for ak in a:
        phi, phis, dphi, dphis = _step(ak, z, phi, phis, dphi, dphis)
        yield phi, phis, dphi, dphis, _rescale(phi, phis, dphi, dphis)


def monic_step(c, a):
    """Phi_{k+1} = z Phi_k - a Phi_k^* on ascending monomial coefficients.

    For real coefficients Phi_k^* is Phi_k reversed, so c alone carries both.
    """
    return np.concatenate([[0.0], c]) - a * np.concatenate([c[::-1], [0.0]])


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
    if not np.all(np.isfinite(zz)):
        raise OutOfDomainError("evaluation point must be finite")
    log_scale = np.zeros(zz.shape)
    # the last values the sweep yields are those of degree n
    for phi, phis, dphi, dphis, sc in _sweep(seq.array(n), zz):
        if sc is not None:
            log_scale += np.log(sc)
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
