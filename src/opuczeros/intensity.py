"""Real- and complex-zero intensity functions and their limiting densities.

The real intensity has two independent evaluation routes (kernel quotient
and closed Blaschke form); the complex intensity likewise (three-term kernel
formula and the sigma-decomposition).  Routes agree to near machine accuracy
away from their respective degeneracies and tests enforce this.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomainError
from .kernels import kernel_bundle, reversed_kernel_bundle
from .szego import evaluate

# dispatch from the closed form to the kernel form near x = +-1
CLOSED_CUTOFF = 1e-3
# complex intensity denominator floor after unscaling (log scale)
_DEGENERACY_LOG_FLOOR = math.log(1e-300)


@dataclass
class IntensityValue:
    """Zeros per unit length (real case) or per unit area (complex case)."""

    z: complex
    rho: float
    route: str
    raw_radicand: float = None


def _clamped_sqrt(r):
    return np.sqrt(np.maximum(r, 0.0))


def h_kac(n, x):
    """Kac-ensemble h_n(x) = n x^{n-1}(1 - x^2)/(1 - x^{2n})."""
    x = np.asarray(x, dtype=float)
    return n * x ** (n - 1) * (1.0 - x * x) / (1.0 - x ** (2 * n))


def h_closed(alpha, n, x):
    """h_n(x) = (1 - x^2) b_n'(x) / (1 - b_n^2(x)) for real x in (-1, 1)."""
    ev = evaluate(alpha, n, np.asarray(x, dtype=float))
    # ratios of same-scale mantissas; the shared exponent cancels
    b = ev.phi / ev.phi_star
    db = (ev.dphi * ev.phi_star - ev.phi * ev.dphi_star) / (ev.phi_star * ev.phi_star)
    h = (1.0 - np.asarray(x) ** 2) * db / (1.0 - b * b)
    return np.real(h)


def h_alt(alpha, n, x):
    """Alternative h_n via the shifted Blaschke product z*b_{n-1}(z)."""
    x = np.asarray(x, dtype=float)
    ev = evaluate(alpha, n - 1, x)
    b = ev.phi / ev.phi_star
    db = (ev.dphi * ev.phi_star - ev.phi * ev.dphi_star) / (ev.phi_star * ev.phi_star)
    g = x * b
    dg = b + x * db
    return np.real((1.0 - x * x) * dg / (1.0 - g * g))


def real_intensity_kernel_grid(alpha, n, x):
    """Kernel-form real intensity on a grid; finite everywhere, incl. x = +-1."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if n <= 1:
        return np.zeros(x.shape)
    b = kernel_bundle(alpha, n, x)
    rad = b.k_zz * b.k11_zz - b.k10_zz * b.k10_zz
    return _clamped_sqrt(rad) / (np.pi * b.k_zz)


def real_intensity_closed_grid(alpha, n, x):
    """Closed-form real intensity on a grid with |1 - x^2| > CLOSED_CUTOFF.

    For |x| > 1 the value is obtained from 1/x in (-1, 1) through the
    inversion identity rho(1/x) = x^2 rho(x).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if n <= 1:
        return np.zeros(x.shape)
    if np.any(np.abs(1.0 - x * x) <= CLOSED_CUTOFF):
        raise OutOfDomainError("closed form unstable near x = +-1; use the kernel form")
    out = np.empty(x.shape)
    inner = np.abs(x) < 1.0
    if np.any(inner):
        xi = x[inner]
        h = h_closed(alpha, n, xi)
        out[inner] = _clamped_sqrt(1.0 - h * h) / (np.pi * np.abs(1.0 - xi * xi))
    if np.any(~inner):
        xo = x[~inner]
        u = 1.0 / xo
        h = h_closed(alpha, n, u)
        rho_u = _clamped_sqrt(1.0 - h * h) / (np.pi * np.abs(1.0 - u * u))
        out[~inner] = rho_u / (xo * xo)
    return out


def real_intensity_grid(alpha, n, x):
    """Real intensity on a grid, auto-dispatching between the two routes."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if n <= 1:
        return np.zeros(x.shape)
    out = np.empty(x.shape)
    closed = np.abs(1.0 - x * x) > CLOSED_CUTOFF
    if np.any(closed):
        out[closed] = real_intensity_closed_grid(alpha, n, x[closed])
    if np.any(~closed):
        out[~closed] = real_intensity_kernel_grid(alpha, n, x[~closed])
    return out


def real_intensity_kernel(alpha, n, x):
    rho = real_intensity_kernel_grid(alpha, n, [float(x)])[0]
    return IntensityValue(float(x), float(rho), "kernel_form")


def real_intensity_closed(alpha, n, x):
    rho = real_intensity_closed_grid(alpha, n, [float(x)])[0]
    return IntensityValue(float(x), float(rho), "closed_form")


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


def _sigma_intensity(alpha, n, z):
    """Sigma-decomposition route; identical value through different algebra."""
    zc = complex(z)
    if zc.imag == 0.0:
        raise OutOfDomainError("complex intensity is undefined on the real line")
    ev = evaluate(alpha, n, zc)
    # Work with the scaled mantissas: every term below is homogeneous of
    # degree six in the polynomial values, as is d**1.5, so the scale
    # factor cancels in the final ratio.
    p, ps, dp, dps = ev.phi, ev.phi_star, ev.dphi, ev.dphi_star
    az2 = abs(zc) ** 2
    one_m_az2 = 1.0 - az2
    one_m_z2 = 1.0 - zc * zc
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
        raise ValueError("unknown route %r" % (route,))
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
    sh = math.sinh(0.5 * t)
    gp = 1.0 / (t * t) - 1.0 / (4.0 * sh * sh)
    return gp / (2.0 * math.pi)
