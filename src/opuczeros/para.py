"""Paraorthogonal polynomials, their unimodular zeros, and the measure sigma_n.

Phi_n(z; beta) = z Phi_{n-1}(z) - beta Phi_{n-1}^*(z) with beta = +-1 here.
All zeros are simple and lie on the unit circle; the attached weights
|phi_{n-1}(zeta)|^2 / K_n(zeta, zeta) sum to one.

The zeros are the eigenvalues of the unitary GGT matrix with alpha_{n-1} = 1
from ``szego.ggt_matrix``, the builder the Monte Carlo sampler uses, after
one Newton step, and the weights one fold over one Szegő sweep at the zeros.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfDomainError, RootFindingError
from .szego import _TINY, _fold, _sweep, as_verblunsky, evaluate, ggt_matrix

_CIRCLE_TOL = 1e-8


@dataclass
class ParaSpectrum:
    n: int
    beta: float
    zeros: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


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
    a = seq.array(n - 1)
    roots = np.asarray(np.linalg.eigvals(ggt_matrix(np.append(a, 1.0))[0]), dtype=complex)
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
    # one Newton step on Phi_n(z; 1) = z phi_{n-1} - phi_{n-1}^*, back onto T:
    # the weight fold amplifies a zero's error, and eigvals' depends on the BLAS threads
    ev = evaluate(seq, n - 1, zeros)
    zeros = zeros - (zeros * ev.phi - ev.phi_star) / (ev.phi + zeros * ev.dphi - ev.dphi_star)
    zeros /= np.abs(zeros)
    # K_n(zeta, zeta) sums squares (power 2); phi_{n-1}(zeta) is the last
    # step's value, never divided (power 0), so both end at one scale
    (k, phi), _ = _fold(_sweep(a, zeros),
                        lambda state, P, S: (state[0] + np.abs(P[0]) ** 2, P[0]),
                        (0.0, None), (2, 0))
    if np.any(k < _TINY):
        raise OutOfDomainError("K_%d(zeta, zeta) underflows against the derivatives "
                               "at a zero of Phi_%d(z; 1)" % (n, n))
    return ParaSpectrum(n=n, beta=1.0, zeros=zeros, weights=np.abs(phi) ** 2 / k)


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
    raise OutOfDomainError("unknown form %r" % (form,))


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
