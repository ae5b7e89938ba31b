"""Named Verblunsky coefficient generators and the point-mass update.

The geronimus kind realizes the measure t*nu + (1-t)*delta_1 through an
incremental coefficient update driven by running values of phi_k(1; nu) and
K_k(1, 1; nu).  A Toeplitz/moment recursion provides an independent oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCoefficientError
from .szego import VerblunskySequence, as_verblunsky, monic_step


@dataclass(frozen=True)
class EnsembleSpec:
    kind: str
    params: tuple = ()

    def label(self):
        if not self.params:
            return self.kind
        return self.kind + ":" + ":".join(str(p) for p in self.params)


def free():
    return EnsembleSpec("free")


def constant(a):
    if not -1.0 < a < 1.0:
        raise InvalidCoefficientError("constant ensemble needs |a| < 1")
    return EnsembleSpec("constant", (float(a),))


def power_decay(c, p):
    """alpha_0 = c, alpha_k = c * k^{-p} for k >= 1."""
    if p <= 0:
        raise InvalidCoefficientError("power_decay needs p > 0")
    if not -1.0 < c < 1.0:
        raise InvalidCoefficientError("power_decay needs |c| < 1")
    return EnsembleSpec("power_decay", (float(c), float(p)))


def explicit(values):
    return EnsembleSpec("explicit", tuple(float(v) for v in values))


def geronimus(base, t):
    if not 0.0 < t < 1.0:
        raise InvalidCoefficientError("geronimus ensemble needs t in (0, 1)")
    if not isinstance(base, EnsembleSpec):
        raise InvalidCoefficientError("geronimus base must be an EnsembleSpec")
    return EnsembleSpec("geronimus", (base, float(t)))


def geronimus_alphas(base_alpha, t, n):
    """Point-mass coefficient update for mu = t*nu + (1-t)*delta_1.

    alpha_{m}(mu) = alpha_m(nu)
        + phi_m(1;nu) phi_{m+1}(1;nu) sqrt(1-alpha_m(nu)^2)
          / (t/(1-t) + K_{m+1}(1,1;nu))
    computed with O(1) state per step.
    """
    base = as_verblunsky(base_alpha).array(n)
    ratio = t / (1.0 - t)
    out = np.empty(n)
    phi = 1.0         # phi_m(1; nu); phi^*(1) = phi(1) for real coefficients
    ksum = 0.0        # K_m(1,1; nu) accumulates phi_i(1)^2
    for m in range(n):
        a = base[m]
        ksum += phi * phi
        s = 1.0 - a * a
        phi_next = phi * (1.0 - a) / math.sqrt(s)
        out[m] = a + phi * phi_next * math.sqrt(s) / (ratio + ksum)
        phi = phi_next
    return out


def materialize(spec, n):
    """Realize the first n coefficients of an ensemble as a VerblunskySequence."""
    if n < 1:
        raise InvalidCoefficientError("n must be >= 1")
    if spec.kind == "free":
        return VerblunskySequence(values=np.zeros(n))
    if spec.kind == "constant":
        return VerblunskySequence(values=np.full(n, spec.params[0]))
    if spec.kind == "power_decay":
        c, p = spec.params
        k = np.arange(n, dtype=float)
        vals = np.empty(n)
        vals[0] = c
        vals[1:] = c * k[1:] ** (-p)
        return VerblunskySequence(values=vals)
    if spec.kind == "explicit":
        if n > len(spec.params):
            raise InvalidCoefficientError(
                "explicit ensemble has %d coefficients, %d requested"
                % (len(spec.params), n))
        return VerblunskySequence(values=np.asarray(spec.params[:n]))
    if spec.kind == "geronimus":
        base, t = spec.params
        return VerblunskySequence(values=geronimus_alphas(materialize(base, n), t, n))
    raise InvalidCoefficientError("unknown ensemble kind %r" % (spec.kind,))


def parse_ensemble(text):
    """Parse CLI ensemble syntax.

    Examples: "free", "constant:0.5", "power_decay:0.3:2",
    "explicit:0.1,0.2,-0.3", "geronimus:power_decay:0.3:2:0.5" (the last
    numeric field of a geronimus spec is the mass parameter t).
    """
    parts = text.strip().split(":")
    kind = parts[0]
    try:
        if kind == "free":
            return free()
        if kind == "constant":
            return constant(float(parts[1]))
        if kind == "power_decay":
            return power_decay(float(parts[1]), float(parts[2]))
        if kind == "explicit":
            return explicit(float(v) for v in parts[1].split(","))
        if kind == "geronimus":
            t = float(parts[-1])
            return geronimus(parse_ensemble(":".join(parts[1:-1])), t)
    except (IndexError, ValueError) as exc:
        raise InvalidCoefficientError("cannot parse ensemble %r: %s" % (text, exc))
    raise InvalidCoefficientError("unknown ensemble %r" % (text,))


def moments_from_verblunsky(alpha, m):
    """Trigonometric moments m_0..m_m of the measure defined by alpha.

    Exact inverse of the orthogonality conditions: with Phi_n monic and
    orthogonal to 1, m_n = -sum_{j<n} c_j m_j given the monic coefficients.
    """
    a = as_verblunsky(alpha).array(m)
    moments = np.empty(m + 1)
    moments[0] = 1.0
    c = np.array([1.0])        # Phi_0
    for k in range(m):
        c = monic_step(c, a[k])
        # c holds Phi_{k+1}; its top coefficient is 1
        moments[k + 1] = -math.fsum(c[j] * moments[j] for j in range(k + 1))
    return moments


def verblunsky_from_moments(moments):
    """Recover alpha_0..alpha_{m-1} from trigonometric moments m_0..m_m.

    Levinson-type recursion with compensated summation; rejects moment
    sequences that are not positive definite.
    """
    moments = np.asarray(moments, dtype=float)
    if abs(moments[0] - 1.0) > 1e-12:
        raise InvalidCoefficientError("moments must be normalized, m_0 = 1")
    m = len(moments) - 1
    alphas = np.empty(m)
    b = np.array([1.0])        # Phi_k ascending
    norm2 = 1.0
    for k in range(m):
        num = math.fsum(b[j] * moments[j + 1] for j in range(k + 1))
        a = num / norm2
        if not -1.0 < a < 1.0 or not math.isfinite(a):
            raise InvalidCoefficientError(
                "moment sequence is not positive definite at index %d" % k)
        b = monic_step(b, a)
        norm2 *= (1.0 - a * a)
        alphas[k] = a
    return alphas
