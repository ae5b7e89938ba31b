"""Monte Carlo sampling of random polynomials in the orthonormal basis.

Trials are independent; trial k draws its Gaussian vector from
PCG64(SeedSequence(seed, spawn_key=(k, attempt))), so parallel and serial
runs produce identical streams.  Normals come from the inverse CDF applied
to 53-bit uniforms in (0, 1), which ports across languages at the
distribution level.
"""

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .errors import OutOfDomainError, RootFindingError
from .expectation import (AnnularSector, RealInterval, ScalingWindow,
                          WholePlane, WholeRealLine)
from .szego import as_verblunsky, monic_step

log = logging.getLogger(__name__)

REAL_ROOT_TOL = 1e-8
_UNDERFLOW = 1e-250
_MAX_ATTEMPTS = 8


@dataclass(frozen=True)
class SampleBatch:
    n: int
    alpha: object            # VerblunskySequence or array-like
    seed: int
    trials: int

    def __post_init__(self):
        if self.trials < 1:
            raise OutOfDomainError("trials must be >= 1")
        if self.n < 2:
            raise OutOfDomainError("sampling needs n >= 2")


@dataclass
class ZeroCountReport:
    region: object
    mean_count: float
    std_error: float
    trials: int
    counts: np.ndarray = field(repr=False)


def basis_matrix(alpha, n):
    """Rows i < n hold the ascending monomial coefficients of phi_i."""
    a = as_verblunsky(alpha).array(max(n - 1, 0))
    # phi_i = kappa_i Phi_i with kappa_i = prod_{k<i} (1 - alpha_k^2)^(-1/2)
    kappa = np.cumprod(np.concatenate([[1.0], 1.0 / np.sqrt(1.0 - a * a)]))
    B = np.zeros((n, n))
    B[0, 0] = 1.0
    c = np.array([1.0])
    for i in range(n - 1):
        c = monic_step(c, a[i])
        B[i + 1, :i + 2] = kappa[i + 1] * c
    return B


def _normals(seed, trial, size, attempt=0):
    key = (trial,) if attempt == 0 else (trial, attempt)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
    u = rng.integers(1, 1 << 53, size=size) / float(1 << 53)
    return ndtri(u)


def _default_threads():
    """Worker count from OPUCZEROS_THREADS (default 1, serial)."""
    try:
        return max(1, int(os.environ.get("OPUCZEROS_THREADS", "1")))
    except ValueError:
        return 1


def _one_trial(B, batch, trial):
    for attempt in range(_MAX_ATTEMPTS):
        eta = _normals(batch.seed, trial, batch.n, attempt)
        coeffs = eta @ B
        lead = coeffs[-1]
        scale = np.max(np.abs(coeffs))
        if scale > 0 and abs(lead) > _UNDERFLOW * scale:
            break
        log.warning("leading coefficient underflow in trial %d; resampling", trial)
    else:
        raise RootFindingError("persistent leading-coefficient underflow")
    roots = np.roots(coeffs[::-1])
    if len(roots) != batch.n - 1:
        raise RootFindingError("trial %d produced %d roots, expected %d"
                               % (trial, len(roots), batch.n - 1))
    return roots


def sample_roots(batch, threads=None):
    """Root multisets (each of size n-1) for every trial in the batch.

    Trials are independent and seeded individually, so the result does not
    depend on the worker count (threads, or the OPUCZEROS_THREADS variable).
    """
    B = basis_matrix(batch.alpha, batch.n)
    workers = threads if threads is not None else _default_threads()
    if workers > 1 and batch.trials > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda t: _one_trial(B, batch, t),
                                 range(batch.trials)))
    return [_one_trial(B, batch, trial) for trial in range(batch.trials)]


def is_real_root(roots):
    return np.abs(roots.imag) <= REAL_ROOT_TOL * (1.0 + np.abs(roots))


def _count_in_sector(roots, theta1, theta2, r1, r2):
    """Strictly nonreal roots with r1 < |z| < r2 and arg z in the arc.

    Planar regions count strictly nonreal zeros, matching the
    complex-intensity quadrature; real zeros belong to line regions.
    """
    roots = roots[~is_real_root(roots)]
    r = np.abs(roots)
    lo = np.mod(theta1, 2.0 * np.pi)
    rel = np.mod(np.mod(np.angle(roots), 2.0 * np.pi) - lo, 2.0 * np.pi)
    return int(np.count_nonzero((r > r1) & (r < r2) & (rel < theta2 - theta1)))


def _count_one(roots, region):
    if isinstance(region, WholePlane):
        return len(roots)
    if isinstance(region, WholeRealLine):
        return int(np.count_nonzero(is_real_root(roots)))
    if isinstance(region, RealInterval):
        mask = is_real_root(roots)
        xr = roots.real[mask]
        return int(np.count_nonzero((region.a <= xr) & (xr <= region.b)))
    if isinstance(region, AnnularSector):
        return _count_in_sector(roots, region.theta1, region.theta2,
                                1.0 - region.delta, 1.0 + region.delta)
    if isinstance(region, ScalingWindow):
        # radial window scales with the batch degree, carried on the region
        raise ValueError("use count_in_scaling_window with an explicit n")
    raise ValueError("unsupported region %r" % (region,))


def _report(region, counts):
    counts = np.array(counts, dtype=float)
    mean = float(np.mean(counts))
    se = float(np.std(counts, ddof=1) / math.sqrt(len(counts))) if len(counts) > 1 else 0.0
    return ZeroCountReport(region=region, mean_count=mean, std_error=se,
                           trials=len(counts), counts=counts)


def count_in_region(roots_list, region):
    """Per-trial counts with mean and standard error."""
    return _report(region, [_count_one(r, region) for r in roots_list])


def count_in_scaling_window(roots_list, window, n):
    """Counts in {r e^{i theta}: r in (1 + tau1/2n, 1 + tau2/2n), theta in arc}."""
    r1 = 1.0 + window.tau1 / (2.0 * n)
    r2 = 1.0 + window.tau2 / (2.0 * n)
    return _report(window, [_count_in_sector(r, window.theta1, window.theta2, r1, r2)
                            for r in roots_list])
