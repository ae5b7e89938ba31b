"""Christoffel-Darboux kernels by direct summation and by the closed form.

Direct sums accumulate the kernel terms over one ``szego._sweep``; the
fold ``szego._fold`` mirrors every rescale event of the sweep on the
accumulators, so every returned quantity shares one log-scale exponent.
Real points sweep in float64, so their sums come back real.  Where the
coefficients end in zeros the sweep stops there, and the rows past it,
z^i times the last swept row, are added by ``szego._doubling`` (O(log n)).
"""

import itertools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomainError
from .szego import as_verblunsky, evaluate, _doubling, _fold, _points, _sweep, _tail_start

# CD quotients have a 0/0 structure on z*conj(w) = 1; below this cutoff the
# direct sum must be used.
CD_CUTOFF = 1e-4

ScaledKernel = namedtuple("ScaledKernel", ["k", "k10", "k11", "log_scale"])

# the block (A, B, C, D, E, e) of the row w_0 = 1, w_0' = 0
_UNIT_SUMS = (1.0, 1.0, 0.0, 0.0, 0.0, 0.0)


def _abs2(v, out=None, t=None):
    """|v|^2 as v.real^2 + v.imag^2, into out through t when given."""
    return np.add(np.multiply(v.real, v.real, out=out), np.multiply(v.imag, v.imag, out=t),
                  out=out)


@dataclass
class KernelBundle:
    """The five kernel quantities entering the complex intensity at a point z.

    True values are the stored fields times exp(log_scale).  For real
    coefficients one sweep at z suffices: phi_i(conj z) = conj(phi_i(z)).
    """

    n: int
    z: complex
    k_zz: float          # K_n(z, z), real positive
    k_zzbar: complex     # K_n(z, conj z)
    k10_zz: complex      # K_n^{(1,0)}(z, z)
    k10_zzbar: complex   # K_n^{(1,0)}(z, conj z)
    k11_zz: float        # K_n^{(1,1)}(z, z), real nonnegative
    log_scale: float


def _complex_terms(zz):
    """Zeroed stacked complex kernel sums at zz and the fold adding to them.

    sums = ([K(z, z), K^(1,1)(z, z)], [K(z, conj z), K^(1,0)(z, conj z)],
    K^(1,0)(z, z)): the first pair is one _abs2 of P = [phi, phi'], the
    second one P * phi, so each element sees the arithmetic of five
    separate sums.  add writes into the sums it is given and returns them.
    """
    t, t2 = np.empty((2, 2) + zz.shape)
    c2 = np.empty((2,) + zz.shape, zz.dtype)

    def add(sums, P, S):
        s1, s2, k10 = sums
        phi, dphi = P
        s1 += _abs2(P, t, t2)
        s2 += np.multiply(P, phi, out=c2)
        k10 += np.multiply(dphi, np.conjugate(phi, out=c2[0]), out=c2[1])
        return sums

    return add, (np.zeros_like(t), np.zeros_like(c2), np.zeros_like(c2[0]))


def _unpack_complex(sums):
    (k, k11), (kb, k10b), k10 = sums
    return k, kb, k10, k10b, k11


def _turn_sums(block, v, dv, de=0.0):
    """Block (A, B, C, D, E, e) of the rows v w_i, v w_i' + dv w_i from that of the
    w_i, at e + de; a block holds the sums over 4^e."""
    a, b, c, d, e = block[:5]
    av, v2, w = _abs2(v), v * v, dv * np.conj(v)
    return (av * a, v2 * b, av * c + w * a, v2 * d + dv * v * b,
            av * e + _abs2(dv) * a + 2.0 * np.real(np.conj(w) * c), block[5] + de)


def _join_sums(b1, b2):
    """The sums of both blocks' rows, at the larger scale, into b2."""
    e = np.maximum(b1[-1], b2[-1])
    f1, f2 = np.exp2(2.0 * (b1[-1] - e)), np.exp2(2.0 * (b2[-1] - e))
    return tuple(np.add(x * f1, np.multiply(y, f2, out=y), out=y)
                 for x, y in zip(b1[:-1], b2[:-1])) + (e,)


def _kernel_sums(alpha, n, z, terms, unpack, reverse=False):
    """KernelBundle of the sums over i = 0..n-1, folded over one sweep at z.

    terms(zz) returns (add, sums): add(sums, P, S) folds the degree-i term
    of the stacked sweep values into the zeroed sums; unpack(sums) returns
    the five sums (K(z, z), K(z, conj z), K^{(1,0)}(z, z),
    K^{(1,0)}(z, conj z), K^{(1,1)}(z, z)).  Every sum is quadratic in the
    sweep values.  Where alpha_k = 0 from k = K on and N = n - K >= 2, the
    sweep stops at K: the rows past K are _doubling's block turned by [phi_K,
    phi_K'] (reverse: by [phi^*_K, phi^*_K'], and the rows below K by u^N).
    """
    if n < 1:
        raise OutOfDomainError("kernel sums need n >= 1")
    a = as_verblunsky(alpha).array(n - 1)
    kk = _tail_start(a, n)
    zz = _points(z)
    add, sums = terms(zz)
    steps, log_scale = _sweep(a[:kk], zz), 0.0
    if kk:
        sums, log_scale = _fold(itertools.islice(steps, kk), add, sums, (2,) * len(sums))
    sums = unpack(sums)
    if kk < n:  # degree K, copied: the terms' and the sweep's buffers go before the tail
        add = lambda st, P, S: st[:5] + ((S if reverse else P).copy(),)
        (*h, v), ls = _fold(steps, add, sums + (None,), (2,) * 5 + (0,))
        g, (pw, pw1, pe) = _doubling(zz, n - kk, _UNIT_SUMS, _turn_sums, _join_sums)
        h = _turn_sums((*h, 0.0), pw, (n - kk) * pw1, pe) if reverse else (*h, 0.0)
        *sums, e = _join_sums(h, _turn_sums(g, v[0], v[1]))
        log_scale = log_scale + ls + e * np.log(2.0)
    k, kb, k10, k10b, k11 = sums
    ls = 2.0 * log_scale
    if np.ndim(z) == 0:
        return KernelBundle(n, complex(zz[0]), float(k[0]), complex(kb[0]),
                            complex(k10[0]), complex(k10b[0]), float(k11[0]),
                            float(ls[0]))
    return KernelBundle(n, zz, k, kb, k10, k10b, k11, ls)


def kernel_bundle(alpha, n, z):
    """All diagonal/anti-diagonal kernel sums over i = 0..n-1 at z."""
    return _kernel_sums(alpha, n, z, _complex_terms, _unpack_complex)


def reversed_kernel_bundle(alpha, n, u):
    """Kernel sums for the reversed basis psi_i(u) = u^(n-1-i) phistar_i(u).

    Zeros of P_n outside the closed unit disk are zeros of the reversed
    polynomial u^(n-1) P_n(1/u) inside it, and that polynomial is the same
    Gaussian vector expressed in the psi basis.  Summing with a running
    multiply-by-u update keeps every accumulator at the scale of the local
    basis values, so the exterior intensity can be evaluated without the
    catastrophic 1/|u|^4 amplification of the naive change of variables.
    """
    def terms(uu):
        au2 = _abs2(uu)
        u2 = uu * uu
        ub = np.conj(uu)
        t, t2 = np.empty((2,) + uu.shape)
        c, c2 = np.empty((2,) + uu.shape, uu.dtype)

        def add(sums, P, S):
            # promote every previous term from u^(i-1-j) psi to u^(i-j) psi;
            # the derivative picks up the undifferentiated sums from one stage
            # back, then the fresh degree-i term enters with no power of u.
            # Each sum is updated after the last read of its old value, and
            # no complex product overwrites an operand (see szego._sweep)
            k, kb, k10, k10b, k11 = sums
            phis, dphis = S
            np.add(np.multiply(2.0, np.multiply(uu, k10, out=c).real, out=t), k, out=t)
            np.add(np.multiply(au2, k11, out=k11), t, out=k11)
            k11 += _abs2(dphis, t, t2)
            np.add(np.multiply(ub, k, out=c), np.multiply(au2, k10, out=c2), out=k10)
            k10 += np.multiply(dphis, np.conjugate(phis, out=c), out=c2)
            np.add(np.multiply(au2, k, out=k), _abs2(phis, t, t2), out=k)
            np.add(np.multiply(uu, kb, out=c), np.multiply(u2, k10b, out=c2), out=k10b)
            k10b += np.multiply(dphis, phis, out=c)
            np.add(np.multiply(u2, kb, out=c), np.multiply(phis, phis, out=c2), out=kb)
            return sums

        return add, (np.zeros(uu.shape), np.zeros_like(c), np.zeros_like(c),
                     np.zeros_like(c), np.zeros(uu.shape))

    return _kernel_sums(alpha, n, u, terms, tuple, reverse=True)


def kernel_direct(alpha, n, z, w):
    """(K_n, K_n^{(1,0)}, K_n^{(1,1)})(z, w) by direct summation."""
    if n < 1:
        raise OutOfDomainError("kernel sums need n >= 1")
    a = as_verblunsky(alpha).array(n - 1)
    k = k10 = k11 = 0j
    log_scale = np.zeros(2)
    # one joint sweep at z and w; each term pairs a value at z with one at
    # w, so a rescale divides the sums by the product of both factors
    for (phi, dphi), _, sc in _sweep(a, np.array([complex(z), complex(w)])):
        if sc is not None:
            log_scale += np.log(sc)
            f = sc[0] * sc[1]
            k /= f
            k10 /= f
            k11 /= f
        cw = np.conj(phi[1])
        k += phi[0] * cw
        k10 += dphi[0] * cw
        k11 += dphi[0] * np.conj(dphi[1])
    return ScaledKernel(k, k10, k11, float(log_scale[0] + log_scale[1]))


def kernel_cd(alpha, n, z, w):
    """Closed-form (K_n, K_n^{(1,0)}, K_n^{(1,1)})(z, w) from degree-n values.

    Raises OutOfDomainError near the diagonal z*conj(w) = 1, where the
    quotients lose digits and the caller should fall back to kernel_direct.
    """
    zc = complex(z)
    wc = complex(w)
    wb = np.conj(wc)
    d = 1.0 - zc * wb
    if abs(d) < CD_CUTOFF * (1.0 + abs(zc) * abs(wc)):
        raise OutOfDomainError("too close to the CD diagonal; use kernel_direct")
    evz = evaluate(alpha, n, zc)
    evw = evaluate(alpha, n, wc)
    # values at conj(w) from real coefficients: phi_n(conj w) = conj(phi_n(w))
    pwb, pswb, dpwb, dpswb = (np.conj(evw.phi), np.conj(evw.phi_star),
                              np.conj(evw.dphi), np.conj(evw.dphi_star))
    k = (evz.phi_star * pswb - evz.phi * pwb) / d
    k10 = (evz.dphi_star * pswb - evz.dphi * pwb) / d + wb * k / d
    k11 = ((evz.dphi_star * dpswb - evz.dphi * dpwb) / d
           + zc * (evz.dphi_star * pswb - evz.dphi * pwb) / (d * d)
           + wb * (evz.phi_star * dpswb - evz.phi * dpwb) / (d * d)
           + (1.0 + zc * wb) * k / (d * d))
    return ScaledKernel(k, k10, k11, evz.log_scale + evw.log_scale)


def christoffel(alpha, n, z):
    """Christoffel function lambda_n(z) = 1/K_n(z, z), positive."""
    b = kernel_bundle(alpha, n, z)
    return np.exp(-b.log_scale) / b.k_zz
