"""Paraorthogonal polynomials, their unimodular zeros, and the measure sigma_n.

Phi_n(z; beta) = z Phi_{n-1}(z) - beta Phi_{n-1}^*(z) with beta = +-1 here.
All zeros are simple and lie on the unit circle; the attached weights
|phi_{n-1}(zeta)|^2 / K_n(zeta, zeta) sum to one.
"""

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import OutOfDomainError, RootFindingError
from .kernels import kernel_bundle
from .szego import as_verblunsky, evaluate, monic_step

_CIRCLE_TOL = 1e-8


@dataclass
class ParaSpectrum:
    n: int
    beta: float
    zeros: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def para_coeffs(alpha, n, beta=1.0):
    """Ascending monomial coefficients of Phi_n(z; beta)."""
    if n < 1:
        raise OutOfDomainError("paraorthogonal polynomials need n >= 1")
    # Phi_n(z; beta) is the monic recurrence's last step with alpha_{n-1} = beta
    a = np.append(as_verblunsky(alpha).array(n - 1), beta)
    return reduce(monic_step, a, np.array([1.0]))


def para_poly(alpha, n, beta, z):
    """Monic value Phi_n(z; beta) from one recurrence sweep."""
    if n < 1:
        raise OutOfDomainError("paraorthogonal polynomials need n >= 1")
    ev = evaluate(alpha, n - 1, z)
    val = (np.asarray(z, dtype=complex) * ev.phi - beta * ev.phi_star)
    return val * np.exp(ev.log_scale - ev.kappa_log)


def para_spectrum(alpha, n):
    """Zeros of Phi_n(z; 1) on the unit circle with sigma_n weights."""
    if n < 1:
        raise OutOfDomainError("paraorthogonal polynomials need n >= 1")
    seq = as_verblunsky(alpha)
    coeffs = para_coeffs(seq, n, beta=1.0)
    roots = np.roots(coeffs[::-1])
    if len(roots) != n:
        raise RootFindingError("expected %d roots, found %d" % (n, len(roots)))
    # Newton polish through the recurrence: the monomial representation
    # behind np.roots loses digits for larger n, the recurrence does not
    for _ in range(3):
        ev = evaluate(seq, n - 1, roots)
        pv = roots * ev.phi - ev.phi_star
        dv = ev.phi + roots * ev.dphi - ev.dphi_star
        roots = roots - pv / dv
    radii = np.abs(roots)
    if np.any(np.abs(radii - 1.0) > _CIRCLE_TOL):
        raise RootFindingError("root strayed from the unit circle by %.3g"
                               % float(np.max(np.abs(radii - 1.0))))
    zeros = roots / radii
    order = np.argsort(np.angle(zeros))
    zeros = zeros[order]
    if n > 1 and np.min(np.abs(np.diff(np.concatenate(
            [np.angle(zeros), [np.angle(zeros[0]) + 2 * np.pi]])))) < 1e-9:
        raise RootFindingError("zeros are not numerically distinct")
    ev = evaluate(seq, n - 1, zeros)
    phi_abs2 = np.abs(ev.phi) ** 2
    kb = kernel_bundle(seq, n, zeros)
    # true ratio |phi_{n-1}|^2 e^{2 L_phi} / (K e^{L_K})
    weights = phi_abs2 * np.exp(2.0 * ev.log_scale - kb.log_scale) / kb.k_zz
    return ParaSpectrum(n=n, beta=1.0, zeros=zeros, weights=np.real(weights))


def caratheodory(alpha, n, z, form="rational", spectrum=None):
    """Caratheodory function F_n(z) = -Phi_n(z; -1)/Phi_n(z; 1).

    form="integral" instead sums w_k (zeta_k + z)/(zeta_k - z) over the
    sigma_n spectrum (computed on demand unless passed in).
    """
    zc = np.asarray(z, dtype=complex)
    if form == "rational":
        ev = evaluate(alpha, n - 1, zc)
        num = zc * ev.phi + ev.phi_star
        den = ev.phi_star - zc * ev.phi
        if np.any(np.abs(np.atleast_1d(den)) < 1e-280):
            raise OutOfDomainError("z is (numerically) a pole of F_n")
        return num / den
    if form == "integral":
        spec = spectrum if spectrum is not None else para_spectrum(alpha, n)
        zeta = spec.zeros[:, None]
        w = spec.weights[:, None]
        zz = np.atleast_1d(zc)[None, :]
        if np.min(np.abs(zeta - zz)) < 1e-12:
            raise OutOfDomainError("z coincides with a pole of F_n")
        vals = np.sum(w * (zeta + zz) / (zeta - zz), axis=0)
        return vals if np.ndim(z) else complex(vals[0])
    raise ValueError("unknown form %r" % (form,))


def h_via_caratheodory(alpha, n, x):
    """h_n(x) = (1 - x^2)/2 * F_n'(x)/F_n(x) on (-1, 1).

    Uses the rational representation with analytic derivatives; independent
    of the closed-form route through b_n.
    """
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(np.atleast_1d(x)) >= 1.0):
        raise OutOfDomainError("h via F_n is defined on (-1, 1)")
    ev = evaluate(alpha, n - 1, x)
    num = x * ev.phi + ev.phi_star
    den = x * ev.phi - ev.phi_star
    dnum = ev.phi + x * ev.dphi + ev.dphi_star
    dden = ev.phi + x * ev.dphi - ev.dphi_star
    h = 0.5 * (1.0 - x * x) * (dnum / num - dden / den)
    return np.real(h)
