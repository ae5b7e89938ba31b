"""Christoffel-Darboux kernels by direct summation and by the closed form.

Direct sums accumulate the kernel terms over one ``szego._sweep``; the
fold ``szego._fold`` mirrors every rescale event of the sweep on the
accumulators, so every returned quantity shares one log-scale exponent.
Real points sweep in float64, so their sums come back real.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomainError
from .szego import as_verblunsky, evaluate, _fold, _points, _sweep

# CD quotients have a 0/0 structure on z*conj(w) = 1; below this cutoff the
# direct sum must be used.
CD_CUTOFF = 1e-4

ScaledKernel = namedtuple("ScaledKernel", ["k", "k10", "k11", "log_scale"])


def _abs2(v):
    return v.real * v.real + v.imag * v.imag


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


def _complex_terms(sums, P, S):
    """Add the degree-i terms to the stacked complex kernel sums.

    sums = ([K(z, z), K^(1,1)(z, z)], [K(z, conj z), K^(1,0)(z, conj z)],
    K^(1,0)(z, z)): the first pair is one _abs2 of P = [phi, phi'], the
    second one P * phi, so each element sees the arithmetic of five
    separate sums.
    """
    s1, s2, k10 = sums
    phi, dphi = P
    return s1 + _abs2(P), s2 + P * phi, k10 + dphi * np.conj(phi)


def _unpack_complex(sums):
    (k, k11), (kb, k10b), k10 = sums
    return k, kb, k10, k10b, k11


def _kernel_sums(alpha, n, z, add, sums, unpack):
    """KernelBundle of the sums over i = 0..n-1, folded over one sweep at z.

    add(sums, P, S) folds the degree-i term of the stacked sweep values into
    sums, which start as given; unpack(sums) returns the five sums
    (K(z, z), K(z, conj z), K^{(1,0)}(z, z), K^{(1,0)}(z, conj z),
    K^{(1,1)}(z, z)).  Every sum is quadratic in the sweep values.
    """
    if n < 1:
        raise OutOfDomainError("kernel sums need n >= 1")
    a = as_verblunsky(alpha).array(n - 1)
    zz = _points(z)
    sums, log_scale = _fold(_sweep(a, zz), add, sums, (2,) * len(sums))
    k, kb, k10, k10b, k11 = unpack(sums)
    ls = 2.0 * log_scale
    if np.ndim(z) == 0:
        return KernelBundle(n, complex(zz[0]), float(k[0]), complex(kb[0]),
                            complex(k10[0]), complex(k10b[0]), float(k11[0]),
                            float(ls[0]))
    return KernelBundle(n, zz, k, kb, k10, k10b, k11, ls)


def kernel_bundle(alpha, n, z):
    """All diagonal/anti-diagonal kernel sums over i = 0..n-1 at z."""
    return _kernel_sums(alpha, n, z, _complex_terms, (0.0, 0.0, 0.0),
                        _unpack_complex)


def reversed_kernel_bundle(alpha, n, u):
    """Kernel sums for the reversed basis psi_i(u) = u^(n-1-i) phistar_i(u).

    Zeros of P_n outside the closed unit disk are zeros of the reversed
    polynomial u^(n-1) P_n(1/u) inside it, and that polynomial is the same
    Gaussian vector expressed in the psi basis.  Summing with a running
    multiply-by-u update keeps every accumulator at the scale of the local
    basis values, so the exterior intensity can be evaluated without the
    catastrophic 1/|u|^4 amplification of the naive change of variables.
    """
    uu = _points(u)
    au2 = _abs2(uu)
    u2 = uu * uu
    ub = np.conj(uu)

    def add(sums, P, S):
        # promote every previous term from u^(i-1-j) psi to u^(i-j) psi;
        # the derivative picks up the undifferentiated sums from one stage
        # back, then the fresh degree-i term enters with no power of u
        k, kb, k10, k10b, k11 = sums
        phis, dphis = S
        return (au2 * k + _abs2(phis),
                u2 * kb + phis * phis,
                ub * k + au2 * k10 + dphis * np.conj(phis),
                uu * kb + u2 * k10b + dphis * phis,
                k + 2.0 * np.real(uu * k10) + au2 * k11 + _abs2(dphis))

    return _kernel_sums(alpha, n, u, add, (0.0,) * 5, tuple)


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
