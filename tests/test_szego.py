import math
from fractions import Fraction

import numpy as np
import pytest

from opuczeros import InvalidCoefficientError, VerblunskySequence, evaluate, szego
from opuczeros.szego import blaschke, kappa_log, regularity_epsilon
from opuczeros.ensembles import constant, free, materialize, power_decay
from opuczeros.intensity import (_BLOCK, CLOSED_CUTOFF, _UNIT, _closed_rho, _inverted,
                                 _join, _kernel_fold, _turn,
                                 real_intensity_grid, real_intensity_kernel_grid)
from opuczeros.kernels import (_UNIT_SUMS, _join_sums, _turn_sums, kernel_bundle,
                               kernel_direct, reversed_kernel_bundle)

_TINY = np.finfo(float).tiny


def test_free_case_is_monomial():
    al = VerblunskySequence(generator=lambda k: 0.0)
    ev = evaluate(al, 5, 0.3)
    phi, phis, dphi, dphis = ev.unscaled()
    assert abs(phi - 0.3 ** 5) < 1e-15
    assert abs(phis - 1.0) < 1e-15
    assert abs(dphi - 5 * 0.3 ** 4) < 1e-14
    assert abs(dphis) < 1e-15


def test_single_step_by_hand():
    # one recurrence step with alpha_0 = 0.5 at z = 1
    al = VerblunskySequence(values=[0.5])
    ev = evaluate(al, 1, 1.0)
    phi, phis, _, _ = ev.unscaled()
    expect = (1.0 - 0.5) / math.sqrt(0.75)
    assert abs(phi - expect) < 1e-14
    assert abs(phis - expect) < 1e-14


def test_reflection_on_circle():
    # |phi_n| = |phi_n^*| on the unit circle, free case and random case
    rng = np.random.default_rng(5)
    for n in (3, 7, 21, 64):
        al = VerblunskySequence(values=rng.uniform(-0.9, 0.9, n))
        for theta in rng.uniform(-np.pi, np.pi, 8):
            ev = evaluate(al, n, np.exp(1j * theta))
            phi, phis, _, _ = ev.unscaled()
            assert abs(abs(phi) - abs(phis)) <= 1e-12 * abs(phis)


def test_blaschke_free_and_hand_value():
    al = VerblunskySequence(generator=lambda k: 0.0)
    for z in (0.3, 0.5 + 0.2j, -0.8):
        assert abs(blaschke(al, 4, z) - z ** 4) < 1e-14
    # Phi_1 = z - 0.5, Phi_1^* = 1 - 0.5z
    al = VerblunskySequence(values=[0.5])
    assert abs(blaschke(al, 1, 0.0) - (-0.5)) < 1e-15


def test_blaschke_modulus():
    rng = np.random.default_rng(6)
    for trial in range(20):
        n = int(rng.integers(1, 32))
        al = VerblunskySequence(values=rng.uniform(-0.9, 0.9, n))
        z = rng.uniform(0, 0.95) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert abs(blaschke(al, n, z)) < 1.0
        zc = np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert abs(abs(blaschke(al, n, zc)) - 1.0) < 1e-12


def test_derivative_finite_difference():
    rng = np.random.default_rng(7)
    h = 1e-6
    for trial in range(25):
        n = int(rng.integers(1, 33))
        al = VerblunskySequence(values=rng.uniform(-0.9, 0.9, n))
        z = rng.uniform(0.2, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        ev = evaluate(al, n, z)
        phi, phis, dphi, dphis = ev.unscaled()
        pp = evaluate(al, n, z + h).unscaled()
        pm = evaluate(al, n, z - h).unscaled()
        fd_phi = (pp[0] - pm[0]) / (2 * h)
        fd_phis = (pp[1] - pm[1]) / (2 * h)
        scale = max(abs(dphi), abs(dphis), 1e-12)
        assert abs(fd_phi - dphi) < 1e-6 * scale
        assert abs(fd_phis - dphis) < 1e-6 * scale


def test_monic_recurrence_recovered():
    # Phi_{i+1} = z Phi_i - a_i Phi_i^* after multiplying back kappa
    rng = np.random.default_rng(8)
    for trial in range(10):
        n = int(rng.integers(2, 33))
        vals = rng.uniform(-0.9, 0.9, n)
        al = VerblunskySequence(values=vals)
        z = rng.uniform(0.3, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        monic = []
        for k in range(n + 1):
            ev = evaluate(al, k, z)
            phi, phis, _, _ = ev.unscaled()
            kl = kappa_log(al, k)
            monic.append((phi * math.exp(-kl), phis * math.exp(-kl)))
        for i in range(n):
            lhs = monic[i + 1][0]
            rhs = z * monic[i][0] - vals[i] * monic[i][1]
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
            lhs_s = monic[i + 1][1]
            rhs_s = monic[i][1] - vals[i] * z * monic[i][0]
            assert abs(lhs_s - rhs_s) <= 1e-12 * max(abs(lhs_s), 1.0)


def test_kappa_log_direct_product():
    rng = np.random.default_rng(9)
    vals = rng.uniform(-0.95, 0.95, 40)
    al = VerblunskySequence(values=vals)
    for n in (1, 5, 17, 40):
        direct = -0.5 * math.log(float(np.prod(1.0 - vals[:n] ** 2)))
        assert abs(kappa_log(al, n) - direct) < 1e-13


def test_regularity_epsilon_values():
    assert regularity_epsilon(VerblunskySequence(generator=lambda k: 0.0), 10) == 0.0
    al = VerblunskySequence(generator=lambda k: 0.5)
    expect = -0.5 * math.log(0.75)
    for n in (1, 4, 33):
        assert abs(regularity_epsilon(al, n) - expect) < 1e-13


def test_regularity_epsilon_decays_for_summable_tail():
    # quadratic-decay coefficients: epsilon_{2n} < epsilon_n in the tail
    al = materialize(power_decay(0.3, 2), 4096)
    prev = regularity_epsilon(al, 64)
    for n in (128, 256, 512, 1024, 2048):
        cur = regularity_epsilon(al, n)
        assert cur < prev
        prev = cur


def test_coefficient_validation():
    with pytest.raises(InvalidCoefficientError):
        VerblunskySequence(values=[0.2, 1.0])
    with pytest.raises(InvalidCoefficientError):
        VerblunskySequence(values=[-1.0])


def test_negative_coefficient_count_raises():
    al = VerblunskySequence(values=[0.5] * 3)
    with pytest.raises(InvalidCoefficientError):
        al.array(-1)
    with pytest.raises(InvalidCoefficientError):
        kappa_log(al, -1)


def test_generator_memoization_is_stable():
    calls = []

    def gen(k):
        calls.append(k)
        return 0.1 / (k + 1)

    al = VerblunskySequence(generator=gen)
    a1 = al.array(10).copy()
    a2 = al.array(10)
    assert np.array_equal(a1, a2)
    assert len(calls) == 10


def test_scalar_and_vector_evaluate_agree():
    al = VerblunskySequence(values=[0.3, -0.2, 0.5])
    zs = np.array([0.2 + 0.1j, -0.7, 1.3 + 0.4j])
    ev = evaluate(al, 3, zs)
    for i, z in enumerate(zs):
        single = evaluate(al, 3, complex(z))
        vp = ev.unscaled()
        sp = single.unscaled()
        for a, b in zip((vp[0][i], vp[1][i]), (sp[0], sp[1])):
            assert abs(a - b) <= 1e-13 * max(abs(b), 1.0)


def test_large_degree_outside_disk_does_not_overflow():
    # |phi_n| ~ |z|^n would overflow naively; scaled values stay finite
    al = VerblunskySequence(generator=lambda k: 0.2 * (-1) ** k)
    ev = evaluate(al, 5000, 3.0)
    assert np.isfinite(ev.phi).all() if isinstance(ev.phi, np.ndarray) else np.isfinite(ev.phi)
    assert ev.log_scale > 1000.0  # ~ 5000 log 3


def _oracle_sweep(a, z, flush=True):
    """Reference sweep: four separate arrays, a rescale check after every step.

    flush=True zeroes every value whose modulus is below the smallest normal
    float before the check, as the engine's checks do.
    """
    v = [np.ones_like(z), np.ones_like(z), np.zeros_like(z), np.zeros_like(z)]
    yield v, None
    for ak in a:
        s = 1.0 / math.sqrt(1.0 - ak * ak)
        phi, phis, dphi, dphis = v
        zphi = z * phi
        v = [(zphi - ak * phis) * s, (phis - ak * zphi) * s,
             (phi + z * dphi - ak * dphis) * s, (dphis - ak * (phi + z * dphi)) * s]
        if flush:
            v = [np.where(np.abs(x) < _TINY, x * 0.0, x) for x in v]
        m = np.maximum(np.maximum(np.abs(v[0]), np.abs(v[1])),
                       np.maximum(np.abs(v[2]), np.abs(v[3])))
        mask = (m > 1e100) | ((m > 0) & (m < 1e-100))
        sc = None
        if np.any(mask):
            sc = np.where(mask, np.exp2(np.floor(np.log2(np.where(mask, m, 1.0)))), 1.0)
            v = [x / sc for x in v]
        yield v, sc


def _abs2(v):
    return v.real * v.real + v.imag * v.imag


def _oracle_sums(a, z, add, pair=False):
    """Fold add over the reference sweep, mirroring rescales on the sums."""
    ls = np.zeros(z.shape)
    sums = [0.0] * 5
    for v, sc in _oracle_sweep(a, z):
        if sc is not None:
            ls += np.log(sc)
            f = sc[0] * sc[1] if pair else sc * sc
            sums = [t / f for t in sums]
        sums = add(sums, *v)
    return sums, ls


def _bundle_terms(sums, phi, phis, dphi, dphis):
    k, kb, k10, k10b, k11 = sums
    return [k + _abs2(phi), kb + phi * phi, k10 + dphi * np.conj(phi),
            k10b + dphi * phi, k11 + _abs2(dphi)]


def _reversed_terms(u):
    au2, u2, ub = _abs2(u), u * u, np.conj(u)

    def add(sums, phi, phis, dphi, dphis):
        k, kb, k10, k10b, k11 = sums
        return [au2 * k + _abs2(phis), u2 * kb + phis * phis,
                ub * k + au2 * k10 + dphis * np.conj(phis),
                u * kb + u2 * k10b + dphis * phis,
                k + 2.0 * np.real(u * k10) + au2 * k11 + _abs2(dphis)]

    return add


def _direct_terms(sums, phi, phis, dphi, dphis):
    k, k10, k11 = sums[:3]
    cw = np.conj(phi[1])
    return [k + phi[0] * cw, k10 + dphi[0] * cw, k11 + dphi[0] * np.conj(dphi[1]),
            0.0, 0.0]


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _large_alphas(n, seed):
    rng = np.random.default_rng(seed)
    return rng.choice([-1.0, 1.0], n) * rng.uniform(0.7, 0.9, n)


def test_sweep_bit_identical_to_reference():
    # the scheduled rescale checks and the stacked state must reproduce the
    # every-step reference exactly, rescale events and log scales included
    rng = np.random.default_rng(21)
    disk2 = 2.0 * np.sqrt(rng.uniform(0, 1, 24)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 24))
    cases = [
        (_large_alphas(600, 16), disk2),
        (_large_alphas(600, 16), np.linspace(-2.0, 2.0, 17)),
        (_large_alphas(600, 17), 0.8 * np.exp(1j * np.linspace(0.1, 3.0, 9))),
        (_large_alphas(600, 17), np.array([0.0, 1e-8, 1e-6 * np.exp(0.3j)])),
        (np.zeros(4096), np.concatenate([[0.0, 1e-8], np.linspace(-0.999, 0.999, 16)])),
        # phi and phi^* underflow to 0 at x = 1 near degree 839 while phi' stays ~1
        (materialize(constant(0.5), 2000).array(2000), np.array([1.0, -1.0])),
        # a point at 0 leaves the shrink bound to the nonzero points
        (materialize(constant(0.5), 2000).array(2000), np.array([0.0, 1.0])),
        # blocks of 50 equal coefficients: at x = 1 the mantissas pass 1e100
        # twice, then fall below 1e-100 near degree 648
        (np.repeat([-0.944, 0.697, -0.55, 0.805, -0.634, -0.605, -0.964,
                    0.972, 0.61, 0.917, 0.814, -0.82, -0.999, 0.754], 50),
         np.array([1.0, -1.0])),
    ]
    # zero coefficients, whose steps skip the mixing: interleaved with large
    # ones, a Bernstein-Szego tail, and -0.0 entries of both kinds
    interleaved = _large_alphas(600, 18)
    interleaved[::3] = 0.0
    tail = np.concatenate([_large_alphas(200, 18), np.zeros(400)])
    negative = -np.concatenate([interleaved[:300], tail[300:]])
    grid = np.linspace(-2.0, 2.0, 17)  # 0 and +-1 among them
    # the reference's full step turns an exact -0.0 into +0.0 where
    # a X[::-1] is -0.0, and a skipped step keeps it; so in these cases the
    # raw values are compared with -0.0 mapped to +0.0 (x + 0.0), while the
    # sums and log scales below stay byte-identical
    cases = [(a, z, False) for a, z in cases]
    cases += [(a, z, True) for a in (interleaved, tail, negative) for z in (grid, disk2)]
    saw_rescale = saw_upward = 0
    for a, z, unsigned in cases:
        n = len(a)
        al = VerblunskySequence(values=a)
        ev = evaluate(al, n, z)
        (phi, phis, dphi, dphis), ls = _oracle_sums(a, z, lambda s, *v: list(v))
        for got, want in zip((ev.phi, ev.phi_star, ev.dphi, ev.dphi_star),
                             (phi, phis, dphi, dphis)):
            if unsigned:
                got, want = got + 0.0, want + 0.0
            assert _same_bytes(got, want)
        assert _same_bytes(ev.log_scale, ls)
        saw_rescale += bool(np.any(ls != 0.0))
        saw_upward += any(sc is not None and np.any(sc < 1.0) for _, sc in _oracle_sweep(a, z))
        # where a ends in zeros from K on, the kernel sums fold degrees 0..K-1
        # and add the rows past K by doubling: the fold up to degree K keeps
        # the reference's bytes, and the whole sums its values within rounding
        m = szego._tail_start(a, n + 1)
        tailed = m < n + 1
        routes = [(kernel_bundle, z, _bundle_terms)]
        if np.iscomplexobj(z):
            inside = z[np.abs(z) <= 1.0]
            routes.append((reversed_kernel_bundle, inside, _reversed_terms(inside)))
        for route, pts, terms in routes:
            for k in ([m, n] if tailed else [n]):
                b = route(al, k + 1, pts)
                sums, ls = _oracle_sums(a[:k], pts, terms)
                got = (b.k_zz, b.k_zzbar, b.k10_zz, b.k10_zzbar, b.k11_zz, b.log_scale)
                if k == m or not tailed:
                    assert all(_same_bytes(g, w) for g, w in zip(got, sums + [2.0 * ls]))
                    continue
                f = np.exp(b.log_scale - 2.0 * ls)
                ae = np.sqrt(sums[0]) * np.sqrt(sums[4])
                scale = np.array([sums[0], sums[0], ae, ae, sums[4]]).real
                err = np.abs(np.array(got[:5]) * f - np.array(sums))
                assert np.all(err <= 1e-12 * scale)
        zw = np.array([complex(z[-1]), complex(z[0])])
        d = kernel_direct(al, n + 1, zw[0], zw[1])
        sums, ls = _oracle_sums(a, zw, _direct_terms, pair=True)
        for got, want in zip(d, sums[:3] + [ls[0] + ls[1]]):
            assert _same_bytes(got, want)
    assert saw_rescale >= 5 and saw_upward >= 1


def test_rescale_checks_are_scheduled(monkeypatch):
    # free at n = 4096 on (-1, 1): the growth bound allows hundreds of steps
    # between checks, where checking every step took 4096
    calls = []
    check = szego._rescale

    def counting(P, S):
        calls.append(1)
        return check(P, S)

    monkeypatch.setattr(szego, "_rescale", counting)
    al = VerblunskySequence(generator=lambda k: 0.0)
    evaluate(al, 4096, np.linspace(-0.995, 0.995, 192))
    assert 0 < len(calls) <= 64
    # constant(0.5) at x = +-1: phi and phi^* underflow to 0 from degree 839
    # while phi' grows; the shrink bound on the four-max keeps the schedule
    # (max(|phi|, |phi^*|) alone would call for 1591 checks for 4 rescales)
    calls.clear()
    evaluate(materialize(constant(0.5), 2000), 2000, np.array([1.0, -1.0]))
    assert 0 < len(calls) <= 100
    # phi^*(0) never shrinks, so a point at 0 keeps the four-max bound
    # (it took 1591 checks when 0 dropped the bound for the whole grid)
    calls.clear()
    evaluate(materialize(constant(0.5), 2000), 2000, np.array([0.0, 1.0]))
    assert 0 < len(calls) <= 100


@pytest.mark.parametrize("x", [0.6, 0.75])
def test_free_underflow_reads_zero(x):
    # phi_4096 = x^4096 and phi' = 4096 x^4095 round to 0; without the flush
    # u * (one subnormal unit) rounds back to itself and stays at 5e-324
    ev = evaluate(VerblunskySequence(generator=lambda k: 0.0), 4096, np.array([x]))
    assert _same_bytes(ev.phi, np.array([x ** 4096]))
    assert _same_bytes(ev.dphi, np.array([0.0]))
    assert ev.phi_star[0] == 1.0 and ev.log_scale[0] == 0.0


def _fold_rho(steps):
    """The kernel route's block fold over every step, with no zero tail."""
    k, _, r = _kernel_fold(steps)
    return np.sqrt(r / k) / np.pi


def test_real_intensity_grid_matches_unflushed_reference():
    # the values the engine flushes reach the closed form only through
    # b = phi/phi^* and its derivative, whose squares round to 0 either way.
    # alpha_{n-1} != 0 leaves the closed route no zero tail, so it sweeps
    # through the 4095 zero steps before it; the kernel route reads only
    # those zeros and takes them in closed form, within rounding of the
    # unflushed fold over every degree
    n = 4096
    a = np.zeros(n)
    a[-1] = 0.5
    x = np.concatenate([np.linspace(-2.0, 2.0, 401), [-0.9998, 0.9998]])
    closed = np.abs(1.0 - x * x) > CLOSED_CUTOFF
    xc = x[closed]
    u = _inverted(xc)
    for v, _ in _oracle_sweep(a, u, flush=False):
        pass
    got = real_intensity_grid(VerblunskySequence(values=a), n, x)
    want = _closed_rho(np.array([v[0], v[2]]), np.array([v[1], v[3]]), xc, u)
    assert _same_bytes(got[closed], want)
    steps = _oracle_sweep(a[:n - 1], x[~closed], flush=False)
    want = _fold_rho((np.array([v[0], v[2]]), None, sc) for v, sc in steps)
    assert np.count_nonzero(~closed) == 4
    assert np.max(np.abs(got[~closed] - want) / want) <= 1e-14


def _near_one():
    """x = +-(1 - 10^-k), k = 4..12, and the four CLOSED_CUTOFF edges."""
    xs = [s * (1.0 - 10.0 ** -k) for k in range(4, 13) for s in (1.0, -1.0)]
    xs += [s * math.sqrt(1.0 + d) for d in (-CLOSED_CUTOFF, CLOSED_CUTOFF) for s in (1.0, -1.0)]
    return np.array(xs)


def _residual_step(k, mu, r, x, y, scratch):
    """Fold one term into K = sum x^2 and the residual R of y on x, in place.

    mu = sum x y / K is the regression coefficient; with e = y - mu x and
    K' = K + x^2 the residual gains e^2 K/K', a nonnegative term.
    """
    e, k_new, g = scratch
    np.subtract(y, np.multiply(mu, x, out=e), out=e)
    np.add(np.multiply(x, x, out=k_new), k, out=k_new)
    np.divide(e, k_new, out=g)
    r += np.multiply(e, np.multiply(g, k, out=k), out=k)
    mu += np.multiply(x, g, out=g)
    np.copyto(k, k_new)


def _per_degree_rho(steps, m):
    """The kernel route folded one degree at a time by _residual_step."""
    scratch = np.empty((3, m))

    def add(state, P, S):
        _residual_step(*state, *P, scratch)
        return state

    (k, _, r), _ = szego._fold(steps, add, tuple(np.zeros((3, m))), (2, 0, 2))
    return np.sqrt(r / k) / np.pi


@pytest.mark.parametrize("n", [64, 256, 1000])
@pytest.mark.parametrize("spec", [free(), power_decay(0.3, 2), constant(0.5)],
                         ids=["free", "power_decay(0.3, 2)", "constant(0.5)"])
def test_kernel_merge_rounding_against_high_precision(spec, n):
    # the block merge on the reference sweep's float rows against the exact
    # regression of those rows, sum y^2 - (sum x y)^2 / sum x^2 in 80 digits.
    # Any double fold forms y - mu x and so loses eps * cond, with
    # cond = sqrt(sum y^2 / R): up to 2e12 for constant(0.5) next to x = 1,
    # where phi' is nearly a multiple of phi; elsewhere cond is about 2
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    xs = _near_one()
    steps = [(np.array([v[0], v[2]]), None, sc)
             for v, sc in _oracle_sweep(materialize(spec, n).array(n - 1), xs)]
    got = _fold_rho(iter(steps))
    old = _per_degree_rho(iter(steps), len(xs))
    # relative errors, in units of eps * cond
    units_got, units_old = [], []
    with mpmath.workdps(80):
        for i in range(len(xs)):
            scale, kx, kxy, ky = mpmath.mpf(1), 0, 0, 0
            for rows, _, sc in steps:
                if sc is not None:
                    scale *= float(sc[i])
                x, y = mpmath.mpf(float(rows[0, i])) * scale, mpmath.mpf(float(rows[1, i])) * scale
                kx, kxy, ky = kx + x * x, kxy + x * y, ky + y * y
            r = ky - kxy * kxy / kx
            want = mpmath.sqrt(r / kx) / mpmath.pi
            cond = float(mpmath.sqrt(ky / r))
            err = float(abs(got[i] - want) / want)
            assert err <= 1e-13 + eps * cond
            units_got.append(err / (eps * cond))
            units_old.append(float(abs(old[i] - want) / want) / (eps * cond))
    # no worse than the per-degree fold at the worst point of the case
    assert max(units_got) <= max(units_old)


def test_complex_sweep_does_not_depend_on_the_grid():
    # a lone complex point sweeps through length-1 rows; numpy rounds a
    # complex product written over a length-1 operand differently, so each
    # point's values, kernel sums and log scale swept alone must equal its
    # values inside the wide grid byte for byte, also where zero
    # coefficients skip the mixing of the step (a Bernstein-Szego tail)
    rng = np.random.default_rng(21)
    z = 2.0 * np.sqrt(rng.uniform(0, 1, 24)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 24))
    inside = z[np.abs(z) <= 1.0]
    fields = ("k_zz", "k_zzbar", "k10_zz", "k10_zzbar", "k11_zz", "log_scale")
    for a in (_large_alphas(600, 16), np.concatenate([_large_alphas(200, 16), np.zeros(400)])):
        al = VerblunskySequence(values=a)
        ev, b = evaluate(al, 600, z), kernel_bundle(al, 601, z)
        rb = reversed_kernel_bundle(al, 601, inside)
        for i in range(len(z)):
            alone = evaluate(al, 600, z[i:i + 1])
            for f in ("phi", "phi_star", "dphi", "dphi_star", "log_scale"):
                assert _same_bytes(getattr(alone, f), getattr(ev, f)[i:i + 1])
            alone = kernel_bundle(al, 601, z[i:i + 1])
            assert all(_same_bytes(getattr(alone, f), getattr(b, f)[i:i + 1]) for f in fields)
        for i in range(len(inside)):
            alone = reversed_kernel_bundle(al, 601, inside[i:i + 1])
            assert all(_same_bytes(getattr(alone, f), getattr(rb, f)[i:i + 1]) for f in fields)


def test_kernel_route_does_not_depend_on_the_grid():
    # each point's kernel-route value swept alone equals its value inside a
    # wide grid byte for byte: in the grid the other points rescale at other
    # degrees (the fold divides this point's rows and sums by 1 there), and
    # the blocks split the degrees the same way at any width; the same holds
    # for the dispatching grid, and where zero coefficients skip the mixing
    # or end the sequence (the routes then stop the sweep at the zero tail)
    near = [-1.0, 1.0 - 1e-4, -(1.0 - 1e-4), 0.9996, -0.9996, 1.0004, -1.0004,
            1.0 - 1e-9, -(1.0 - 1e-9)]
    x = np.concatenate([near, [1.0], np.linspace(-2.0, 2.0, 17)])
    large = _large_alphas(600, 16)
    # 150 zero coefficients after 450 large ones: as a Bernstein-Szego tail
    # they are taken in closed form from degree 450, whose step rescales two
    # points (mirrored on their K and R first); with alpha_598 != 0 after
    # them, 148 of them are swept
    tail = np.concatenate([large[:450], np.zeros(150)])
    swept = tail.copy()
    swept[598] = 0.3
    cases = [(VerblunskySequence(values=large), 600, x),
             (VerblunskySequence(values=tail), 600, x),
             (VerblunskySequence(values=swept), 600, x),
             # phi and phi^* vanish at x = 1 near degree 839, so 1 itself raises
             (materialize(constant(0.5), 2000), 2000, np.array(near + [0.5, -2.0, 3.0]))]
    # the tail in closed form agrees with the fold over every degree away
    # from +-1, where both lose eps * cond in the head's fold
    # (test_kernel_merge_rounding_against_high_precision)
    far = np.abs(1.0 - x * x) > CLOSED_CUTOFF
    outer = np.abs(x) >= 1.0
    full = _fold_rho(szego._sweep(tail[:599], _inverted(x)))
    full[outer] /= x[outer] ** 2
    got = real_intensity_kernel_grid(VerblunskySequence(values=tail), 600, x)
    assert np.max(np.abs(got - full)[far] / full[far]) <= 1e-13
    for al, n, x in cases:
        # some point the route sweeps (1/x past +-1) rescales inside a
        # block, not at its first degree
        events = [k for k, (_, sc) in enumerate(_oracle_sweep(al.array(n - 1), _inverted(x)))
                  if sc is not None]
        assert any(k % _BLOCK for k in events)
        wide = real_intensity_kernel_grid(al, n, x)
        fused = real_intensity_grid(al, n, x)
        kernel = np.abs(1.0 - x * x) <= CLOSED_CUTOFF
        for i, xi in enumerate(x):
            alone = real_intensity_kernel_grid(al, n, [xi])
            assert _same_bytes(wide[i:i + 1], alone)
            if kernel[i]:
                assert _same_bytes(fused[i:i + 1], alone)
            assert _same_bytes(fused[i:i + 1], real_intensity_grid(al, n, [xi]))


def test_kernel_route_past_one_rescales_rarely(monkeypatch):
    # past +-1 the values grow geometrically: swept at x itself this grid
    # needs a range check at 2619 of its 4095 steps; at 1/x the growth
    # bound spaces the checks out
    calls = []
    check = szego._rescale

    def counting(P, S):
        calls.append(1)
        return check(P, S)

    monkeypatch.setattr(szego, "_rescale", counting)
    # alpha_4094 != 0: the route sweeps the zeros before it (a free zero
    # tail would take no step at all)
    a = np.zeros(4096)
    a[4094] = 0.5
    real_intensity_kernel_grid(VerblunskySequence(values=a), 4096, np.linspace(-2.0, 2.0, 401))
    assert 0 < len(calls) <= 64


@pytest.mark.parametrize("n", [64, 4096])
@pytest.mark.parametrize("spec", [free(), power_decay(0.3, 2)],
                         ids=["free", "power_decay(0.3, 2)"])
def test_kernel_route_past_one_matches_the_direct_sweep(spec, n):
    # rho(x) = rho(1/x)/x^2 agrees with the kernel sums swept at x itself
    al = materialize(spec, n)
    x = np.linspace(-2.0, 2.0, 401)
    direct = _fold_rho(szego._sweep(al.array(n - 1), x))
    got = real_intensity_kernel_grid(al, n, x)
    assert np.max(np.abs(got - direct) / direct) <= 1e-11


@pytest.mark.parametrize("tail", [False, True], ids=["full", "zero_tail"])
@pytest.mark.parametrize("dtype", ["real", "complex"])
def test_sweep_does_not_depend_on_the_grid_width(dtype, tail):
    # numpy's loops take a vector body and a scalar remainder whose lengths
    # depend on the row width; z stacked to P's shape makes the product run
    # over 2m elements, not m twice.  Each point's evaluate fields and kernel
    # sums, swept alone, equal its bytes inside grids of every remainder
    # width, at its first and last 17 positions
    n = 300
    rng = np.random.default_rng(43)
    a = _large_alphas(n, 43)
    if tail:
        a[n // 3:] = 0.0
    al = VerblunskySequence(values=a)
    if dtype == "real":
        pool = rng.uniform(-2.0, 2.0, 4001)
    else:
        r, t = np.sqrt(rng.uniform(0, 1, 4001)), rng.uniform(-np.pi, np.pi, 4001)
        pool = 2.0 * r * np.exp(1j * t)
    fields = ("phi", "phi_star", "dphi", "dphi_star", "log_scale")
    sums = ("k_zz", "k_zzbar", "k10_zz", "k10_zzbar", "k11_zz", "log_scale")
    alone = {}
    for w in (1, 2, 3, 7, 8, 9, 16, 17, 4001):
        z = pool[:w]
        ev, b = evaluate(al, n, z), kernel_bundle(al, n + 1, z)
        for i in sorted(set(range(min(w, 17))) | set(range(max(w - 17, 0), w))):
            if i not in alone:
                alone[i] = evaluate(al, n, z[i:i + 1]), kernel_bundle(al, n + 1, z[i:i + 1])
            one, b1 = alone[i]
            assert all(_same_bytes(getattr(one, f), getattr(ev, f)[i:i + 1]) for f in fields)
            assert all(_same_bytes(getattr(b1, f), getattr(b, f)[i:i + 1]) for f in sums)
    # the grids reach values that rescale
    assert np.any(ev.log_scale != 0.0)


def _direct_tail(z, n):
    """Exact sums (A, B, C, D, E), factor (p, q, s) and (z^n, z^(n-1)) of the
    rows z^i, i z^(i-1), i < n.

    z is an exact number (a Fraction, or a complex with integer parts on the
    unit circle), so the sums and powers are exact; p = sqrt(K),
    q = sum x y/sqrt(K) and s = sqrt(R) of the regression of y on x,
    v = x + iy, round once.
    """
    v, dv = [z ** 0], [0 * z]
    for i in range(1, n + 1):  # complex ** int is inexact past 100
        v.append(v[-1] * z)
        dv.append(i * v[-2])
    power = (complex(v[n]), complex(v[n - 1]))
    v, dv = v[:n], dv[:n]
    cv, cdv = [w.conjugate() for w in v], [w.conjugate() for w in dv]
    sums = [sum(a * b for a, b in zip(x, y)) for x, y in
            ((v, cv), (v, v), (dv, cv), (dv, v), (dv, cdv))]
    k = sum(w.real ** 2 for w in v)
    kxy = sum(w.real * w.imag for w in v)
    r = sum(w.imag ** 2 for w in v) - kxy * kxy / k
    return ([complex(x) for x in sums],
            (math.sqrt(k), float(kxy) / math.sqrt(k), math.sqrt(r)), power)


@pytest.mark.parametrize("algebra", ["raw_sums", "factored"])
def test_doubling_matches_direct_sums_at_every_tail_length(algebra):
    # every tail length N = 2..200 takes its own path through the binary
    # digits of N.  At 0, 1, -1 and 1j every sum is a small integer and every
    # power of 2 is exact, so the raw sums must come back exact and the
    # factor within a few ulps; 2 and 0.5 scale past and inside the disk
    exact = (0, 1, -1, 1j, Fraction(2), Fraction(1, 2))
    z = np.array([complex(x) for x in exact])
    if algebra == "raw_sums":
        unit, turn, join = _UNIT_SUMS, _turn_sums, _join_sums
    else:
        unit, turn, join = _UNIT, _turn, _join
    eps = np.finfo(float).eps
    for n in range(2, 201):
        block, (pw, pw1, pe) = szego._doubling(z, n, unit, turn, join)
        e = block[-1]
        if algebra == "raw_sums":
            got = [x * np.exp2(2.0 * e) for x in block[:5]]
        else:
            (c, d), p, q, s = block[:4]
            got = [x * np.exp2(2.0 * e) for x in (c, d)] + [x * np.exp2(e) for x in (p, q, s)]
        for j, x in enumerate(exact):
            sums, factor, power = _direct_tail(x, n)
            a, e2 = sums[0].real, sums[4].real
            if algebra == "raw_sums":
                want, scale = sums, [a, a, math.sqrt(a * e2), math.sqrt(a * e2), e2]
            else:
                want = sums[2:4] + list(factor)
                scale = [math.sqrt(a * e2)] * 2 + [math.sqrt(a)] * 3
            if j < 4:
                tol = 0.0 if algebra == "raw_sums" else 4.0 * eps
            else:
                tol = 1e-15
            for g, w, sc in zip(got, want, scale):
                assert abs(g[j] - w) <= tol * sc, (algebra, n, x, g[j], w)
            for g, w in zip((pw[j], pw1[j]), power):
                g = g * np.exp2(pe[j])
                assert abs(g - w) <= (0.0 if j < 4 else 1e-15) * abs(w), (n, x)
