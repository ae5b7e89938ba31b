"""Monte Carlo sampling of random polynomials in the orthonormal basis.

Trial k draws its Gaussian vector eta = (eta_0, ..., eta_{n-1}) from its own
stream PCG64(SeedSequence(seed, spawn_key=(k,))): 53-bit uniforms in (0, 1)
mapped through the inverse normal CDF, which ports across languages at the
distribution level.  ``_ndtri`` is a numpy port of the cephes routine that
scipy.special wraps (three rational approximations).  On 4e6 draws it
agrees with scipy bit for bit on all but 6 in 10^5, and within 5 ulp on
those, where numpy's vectorized log differs from the C library's.

The roots of P = sum_i eta_i phi_i (degree m = n - 1) are the eigenvalues of
its comrade matrix, built from the recurrence coefficients and never from the
monomial expansion, whose coefficients span many orders of magnitude
(Simon, OPUC vol. 1, ch. 4): the GGT matrix of multiplication by z on
phi_0, ..., phi_{m-1}, with characteristic polynomial Phi_m, from
``szego.ggt_matrix``, which also gives ``para.para_spectrum`` its zeros.
Modulo P, phi_m = -sum_{i<m} eta_i phi_i / eta_m, so per trial only the last
column changes: it gains -rho_{m-1} eta_{0:m} / eta_m.  A trial whose
|eta_m| <= _UNDERFLOW max|eta| is redrawn from the stream with spawn_key
(k, attempt).

Trials go through in chunks of max(1, 2^17 // m^2) matrices, about 1 MB:
one ``_ndtri`` call and one stacked ``eigvals`` call per chunk.  Chunk sizes
depend on n only, never on the worker count, and worker threads
(OPUCZEROS_THREADS) map over whole chunks, so results are bit-identical at
any thread count.
"""

import logging
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfDomainError, RootFindingError
from .expectation import (AnnularSector, RealInterval, ScalingWindow,
                          WholePlane, WholeRealLine)
from .szego import as_verblunsky, ggt_matrix, monic_step

log = logging.getLogger(__name__)

REAL_ROOT_TOL = 1e-8
_UNDERFLOW = 1e-250
_MAX_ATTEMPTS = 8
_CHUNK_ENTRIES = 1 << 17     # matrix entries per eigvals call (1 MB of float64)
_COUNT_ENTRIES = 1 << 14     # roots per stacked counting block (256 kB of complex128)

# cephes ndtri: y - 1/2 rational in (y - 1/2)^2 on [e^-2, 1 - e^-2], and
# rational corrections in 1/x, x = sqrt(-2 log y), on the tails (x < 8 and
# x >= 8).  Coefficients run from the highest power down; each Q is monic.
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _ndtri(u):
    """Inverse standard normal CDF on an array of u in (0, 1)."""
    u = np.asarray(u, dtype=float)
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    out = np.empty_like(y)
    mid = y > _EXP_M2
    d = y[mid] - 0.5
    d2 = d * d
    out[mid] = (d + d * (d2 * np.polyval(_P0, d2) / np.polyval(_Q0, d2))) * _SQRT_2PI
    x = np.sqrt(-2.0 * np.log(y[~mid]))
    z = 1.0 / x
    tail = x - np.log(x) / x - np.where(x < 8.0, z * np.polyval(_P1, z) / np.polyval(_Q1, z),
                                        z * np.polyval(_P2, z) / np.polyval(_Q2, z))
    out[~mid] = np.where(upper[~mid], tail, -tail)
    return out


@dataclass(frozen=True)
class SampleBatch:
    n: int
    alpha: object            # VerblunskySequence or array-like
    seed: int
    trials: int

    def __post_init__(self):
        for name in ("n", "seed", "trials"):  # numpy integers are Integral too
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise OutOfDomainError("%s must be an integer, not %r" % (name, value))
        if self.trials < 1:
            raise OutOfDomainError("trials must be >= 1")
        if self.n < 2:
            raise OutOfDomainError("sampling needs n >= 2")
        if self.seed < 0:
            raise OutOfDomainError("seed must be >= 0")


@dataclass
class ZeroCountReport:
    region: object
    mean_count: float
    std_error: float
    trials: int
    counts: np.ndarray = field(repr=False)


def basis_matrix(alpha, n):
    """Rows i < n hold the ascending monomial coefficients of phi_i.

    The sampler does not use it (see the module docstring); it is the
    monomial reference that tests check the comrade matrix against.
    """
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


def _uniforms(seed, trial, size, attempt=0):
    key = (trial,) if attempt == 0 else (trial, attempt)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
    return rng.integers(1, 1 << 53, size=size) / float(1 << 53)


def _draw(batch, trials, attempt):
    """ndtri of the uniforms of every trial in ``trials``, one row each."""
    return _ndtri(np.stack([_uniforms(batch.seed, t, batch.n, attempt) for t in trials]))


def _underflows(eta):
    return np.abs(eta[:, -1]) <= _UNDERFLOW * np.max(np.abs(eta), axis=1)


def _default_threads():
    """Worker count from OPUCZEROS_THREADS (default 1, serial)."""
    try:
        return max(1, int(os.environ.get("OPUCZEROS_THREADS", "1")))
    except ValueError:
        return 1


def _chunk_roots(G, rho, batch, trials):
    """Roots of every trial in ``trials`` from one stacked eigvals call."""
    eta = _draw(batch, trials, 0)
    for attempt in range(1, _MAX_ATTEMPTS + 1):
        redo = np.flatnonzero(_underflows(eta))
        if len(redo) == 0:
            break
        for i in redo:
            log.warning("leading coefficient underflow in trial %d; resampling", trials[i])
        if attempt == _MAX_ATTEMPTS:
            raise RootFindingError("persistent leading-coefficient underflow")
        eta[redo] = _draw(batch, trials[redo], attempt)
    mats = np.repeat(G[None], len(trials), axis=0)
    mats[:, :, -1] -= rho * eta[:, :-1] / eta[:, -1:]
    try:
        roots = np.asarray(np.linalg.eigvals(mats), dtype=complex)
    except np.linalg.LinAlgError as exc:
        raise RootFindingError("eigenvalues of trials %d..%d: %s"
                               % (trials[0], trials[-1], exc)) from exc
    finite = np.count_nonzero(np.isfinite(roots), axis=1)
    if np.any(finite != batch.n - 1):
        i = int(np.argmax(finite != batch.n - 1))
        raise RootFindingError("trial %d produced %d finite roots, expected %d"
                               % (trials[i], finite[i], batch.n - 1))
    return list(roots)


def sample_roots(batch, threads=None):
    """Root multisets (each of size n-1) for every trial in the batch.

    Trials are independent and seeded individually, and chunked by n alone,
    so the result does not depend on the worker count (threads, or the
    OPUCZEROS_THREADS variable).
    """
    m = batch.n - 1
    G, rho = ggt_matrix(as_verblunsky(batch.alpha).array(m))
    size = max(1, _CHUNK_ENTRIES // (m * m))
    chunks = [np.arange(s, min(s + size, batch.trials))
              for s in range(0, batch.trials, size)]
    workers = threads if threads is not None else _default_threads()
    if workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda t: _chunk_roots(G, rho, batch, t), chunks))
    else:
        parts = [_chunk_roots(G, rho, batch, t) for t in chunks]
    return [r for part in parts for r in part]


def is_real_root(roots):
    return np.abs(roots.imag) <= REAL_ROOT_TOL * (1.0 + np.abs(roots))


def _count_in_sector(roots, theta1, theta2, r1, r2):
    """Per trial (row), strictly nonreal roots with r1 < |z| < r2 and arg z in the arc.

    Planar regions count strictly nonreal zeros, matching the
    complex-intensity quadrature; real zeros belong to line regions.
    """
    r = np.abs(roots)
    lo = np.mod(theta1, 2.0 * np.pi)
    rel = np.mod(np.mod(np.angle(roots), 2.0 * np.pi) - lo, 2.0 * np.pi)
    inside = ~is_real_root(roots) & (r > r1) & (r < r2) & (rel < theta2 - theta1)
    return np.count_nonzero(inside, axis=-1)


def _counts(roots, region):
    """Per-trial counts in region from the stacked (trials, n - 1) roots."""
    if isinstance(region, WholePlane):
        return np.full(len(roots), roots.shape[-1])
    if isinstance(region, (WholeRealLine, RealInterval)):
        a, b = ((-np.inf, np.inf) if isinstance(region, WholeRealLine)
                else (region.a, region.b))
        x = roots.real
        return np.count_nonzero(is_real_root(roots) & (a <= x) & (x <= b), axis=-1)
    if isinstance(region, (AnnularSector, ScalingWindow)):
        # the radii scale with the degree n, one more than the roots per trial
        r1, r2 = region.radii(roots.shape[-1] + 1)
        return _count_in_sector(roots, region.theta1, region.theta2, r1, r2)
    raise OutOfDomainError("unsupported region for zero counting")


def _report(region, counts):
    counts = np.array(counts, dtype=float)
    mean = float(np.mean(counts))
    se = float(np.std(counts, ddof=1) / math.sqrt(len(counts))) if len(counts) > 1 else 0.0
    return ZeroCountReport(region=region, mean_count=mean, std_error=se,
                           trials=len(counts), counts=counts)


def _stacked(roots_list, count):
    """count(rows) over row blocks of the stacked roots, about _COUNT_ENTRIES each.

    roots_list holds one root array per trial, all of one length, as
    sample_roots returns them.  Blocks keep the temporaries of the count
    small next to the roots themselves.
    """
    if not len(roots_list):
        raise OutOfDomainError("no trials to count: the roots list is empty")
    step = max(1, _COUNT_ENTRIES // max(1, len(roots_list[0])))
    return np.concatenate([count(np.stack(roots_list[s:s + step]))
                           for s in range(0, len(roots_list), step)])


def count_in_region(roots_list, region):
    """Per-trial counts with mean and standard error."""
    return _report(region, _stacked(roots_list, lambda rows: _counts(rows, region)))


def count_in_scaling_window(roots_list, window, n):
    """Counts in the window's arc between its radii at degree n (ScalingWindow.radii).

    n must be the degree the roots come from, n - 1 roots per trial.
    """
    if len(roots_list) and n != len(roots_list[0]) + 1:
        raise OutOfDomainError("scaling window for n = %d, but the roots come from "
                               "n = %d" % (n, len(roots_list[0]) + 1))
    return count_in_region(roots_list, window)
