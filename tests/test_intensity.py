import math

import numpy as np
import pytest

from opuczeros import (OutOfDomainError, VerblunskySequence, complex_intensity,
                       growth_log_derivative, limit_complex_density,
                       limit_real_density, scaling_limit_density)
from opuczeros.intensity import (CLOSED_CUTOFF, complex_intensity_grid,
                                 complex_intensity_reversed_grid,
                                 h_alt, h_closed, h_kac,
                                 real_intensity_closed_grid,
                                 real_intensity_grid, real_intensity_kernel_grid)
from opuczeros.ensembles import constant, free as free_spec, materialize, power_decay
from opuczeros.kernels import kernel_bundle
from opuczeros._quad import adaptive_gl


def free():
    return VerblunskySequence(generator=lambda k: 0.0)


def test_h_closed_matches_kac():
    xs = np.linspace(-0.99, 0.99, 200)
    for n in (2, 5, 16, 64):
        al = free()
        for x in xs:
            hk = h_kac(n, x)
            hc = h_closed(al, n, x)
            assert abs(hk - hc) <= 1e-12 * max(abs(hk), 1.0)


def test_kac_n2_at_origin():
    assert abs(real_intensity_kernel_grid(free(), 2, [0.0])[0] - 1.0 / math.pi) < 1e-13


def test_degree_zero_has_no_zeros():
    al = VerblunskySequence(values=[0.4])
    for x in (-0.5, 0.0, 0.7, 2.0):
        assert real_intensity_kernel_grid(al, 1, [x])[0] == 0.0


def test_kac_n2_density_is_cauchy():
    # degree-1 polynomial: density 1/(pi (1+x^2)), one real zero in total
    for x in (-3.0, -0.4, 0.0, 0.2, 5.0):
        expect = 1.0 / (math.pi * (1.0 + x * x))
        assert abs(real_intensity_kernel_grid(free(), 2, [x])[0] - expect) < 1e-13
    val, err = adaptive_gl(lambda x: real_intensity_grid(free(), 2, x),
                           -1.0, 1.0, tol=1e-12)
    # half the mass is inside (-1,1) by the inversion symmetry
    assert abs(2 * val - 1.0) < 1e-9


def test_kac_n3_value():
    h = h_kac(3, 0.5)
    assert abs(h - 4.0 / 7.0) < 1e-13
    rho = real_intensity_closed_grid(free(), 3, [0.5])[0]
    expect = math.sqrt(1 - (4 / 7) ** 2) / (math.pi * 0.75)
    assert abs(rho - expect) < 1e-13
    assert abs(rho - 0.3482954) < 5e-7


def test_inversion_symmetry():
    rng = np.random.default_rng(20)
    for trial in range(30):
        n = int(rng.integers(2, 64))
        al = VerblunskySequence(values=rng.uniform(-0.9, 0.9, n))
        x = rng.uniform(0.05, 0.95) * rng.choice([-1.0, 1.0])
        lhs = real_intensity_kernel_grid(al, n, [1.0 / x])[0]
        rhs = x * x * real_intensity_kernel_grid(al, n, [x])[0]
        assert abs(lhs - rhs) <= 1e-10 * max(rhs, 1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("route", [real_intensity_grid, real_intensity_kernel_grid,
                                   real_intensity_closed_grid])
def test_real_intensity_far_past_one_is_zero_without_warnings(route):
    # x^2 overflows past 1.3e154; rho(x) = rho(1/x)/x^2 is then 0, and the
    # finite values sharing the grid keep their bits
    far = [-1e308, -1e200, 1e200, 1e308]
    for al, n in ((free(), 64), (materialize(power_decay(0.3, 2), 64), 64)):
        rho = route(al, n, [*far, 2.0, -3.0])
        assert np.all(rho[:4] == 0.0)
        assert np.array_equal(rho[4:], route(al, n, [2.0, -3.0]))


def test_real_route_agreement():
    rng = np.random.default_rng(21)
    for trial in range(120):
        n = int(rng.integers(2, 129))
        al = VerblunskySequence(values=rng.uniform(-0.9, 0.9, n))
        x = rng.uniform(-2.0, 2.0)
        if abs(1.0 - x * x) <= 1e-3:
            continue
        a = real_intensity_kernel_grid(al, n, [x])[0]
        b = real_intensity_closed_grid(al, n, [x])[0]
        assert abs(a - b) <= 1e-8 * max(a, 1e-15)


def test_dispatch_grid_is_continuous_at_cutoff():
    al = VerblunskySequence(values=np.linspace(-0.5, 0.5, 16))
    xs = np.linspace(0.9985, 1.0015, 31)
    rho = real_intensity_grid(al, 16, xs)
    assert np.all(np.isfinite(rho))
    assert np.all(rho > 0)


def test_h_two_route_identity():
    # h from the Blaschke quotient of degree n equals the expression through
    # x * b_{n-1}(x)
    rng = np.random.default_rng(22)
    for trial in range(25):
        n = int(rng.integers(2, 40))
        al = VerblunskySequence(values=rng.uniform(-0.9, 0.9, n))
        x = rng.uniform(-0.95, 0.95)
        a = h_closed(al, n, x)
        b = h_alt(al, n, x)
        assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)


def test_complex_conjugation_symmetry():
    rng = np.random.default_rng(23)
    for trial in range(15):
        n = int(rng.integers(2, 32))
        al = VerblunskySequence(values=rng.uniform(-0.9, 0.9, n))
        z = complex(rng.uniform(-1.2, 1.2), rng.uniform(0.1, 1.2))
        a = complex_intensity(al, n, z).rho
        b = complex_intensity(al, n, np.conj(z)).rho
        assert a == b


def test_complex_routes_agree_in_annulus():
    rng = np.random.default_rng(24)
    done = 0
    while done < 50:
        al = VerblunskySequence(values=rng.uniform(-0.9, 0.9, 8))
        z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        if not (0.3 < abs(z) < 0.9 and abs(z.imag) > 0.2):
            continue
        a = complex_intensity(al, 8, z, route="kernel_form").rho
        b = complex_intensity(al, 8, z, route="sigma_decomposition").rho
        assert abs(a - b) <= 1e-8 * max(a, 1e-15)
        done += 1


def test_complex_intensity_rejects_real_points():
    with pytest.raises(OutOfDomainError):
        complex_intensity(free(), 8, 0.5 + 0.0j)


def test_intensities_reject_nonfinite_points():
    with pytest.raises(OutOfDomainError):
        complex_intensity_grid(free(), 8, [np.nan + 1j, 0.5j], degenerate="zero")
    with pytest.raises(OutOfDomainError):
        real_intensity_grid(free(), 8, [np.nan])
    # the closed route evaluates x = inf at 1/x = 0, where the density is 0
    assert real_intensity_grid(free(), 8, [np.inf])[0] == 0.0


def test_complex_limit_value():
    # free ensemble at 0.5i approaches the limit density
    target = limit_complex_density(0.5j)
    assert abs(target - 0.8 / (0.5625 * math.pi)) < 1e-12
    rho = complex_intensity(free(), 512, 0.5j).rho
    assert abs(rho - target) <= 0.02 * target


def test_limit_complex_density_properties():
    assert abs(limit_complex_density(0.5j) - 0.4527074) < 5e-8
    # vanishes as z approaches the real axis
    assert limit_complex_density(0.4 + 1e-9j) < 1e-3
    # value at 2i computed independently: |1-|z|^2| = 3, |1-z^2| = 5
    expect = math.sqrt(1 - 9.0 / 25.0) / (math.pi * 9.0)
    assert abs(limit_complex_density(2j) - expect) < 1e-14
    rng = np.random.default_rng(25)
    for trial in range(40):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z.imag) < 1e-3 or abs(abs(z) - 1) < 1e-3:
            continue
        assert limit_complex_density(z) >= 0.0


def test_limit_real_density():
    assert abs(limit_real_density(0.0) - 1.0 / math.pi) < 1e-15
    assert abs(limit_real_density(3.0) - 1.0 / (8 * math.pi)) < 1e-15
    # quadratic-decay coefficients converge toward the same limit
    al = materialize(power_decay(0.3, 2), 512)
    rho = real_intensity_closed_grid(al, 512, [0.5])[0]
    assert abs(rho - 4.0 / (3.0 * math.pi)) <= 0.02 * 4.0 / (3.0 * math.pi)


def _constant_limit(a):
    """b = lim phi_n/phi_n^* and b' on (-1, 1) for alpha_k = a, in closed form.

    The step is (phi, phi^*) -> s [[z, -a], [-a z, 1]] (phi, phi^*); its
    eigenvalues solve l^2 - (1 + z) l + (1 - a^2) z = 0, real on (-1, 1),
    and the eigenvector of the larger one, l+, gives b(z) = a/(z - l+(z)).
    """
    def root(x):
        return 0.5 * (1.0 + x + math.sqrt((1.0 - x) ** 2 + 4.0 * a * a * x))

    def b(x):
        return a / (x - root(x))

    def db(x):
        lp = root(x)
        dl = (lp - (1.0 - a * a)) / (2.0 * lp - (1.0 + x))
        return -a * (1.0 - dl) / (x - lp) ** 2

    return b, db


@pytest.mark.parametrize("a", [0.5, -0.5, 0.9])
def test_constant_coefficients_reach_their_closed_form_limit(a):
    # the eigenvalue ratio is at most 0.45 on |x| <= 0.5 (0.23 for a = 0.9),
    # so b_n = b to rounding from n = 64 on; what remains grows with n
    # through the derivatives (measured 5.9e-12 at n = 512 and 1.7e-10 at
    # n = 4096 for a = 0.9, 1.1e-12 or less for a = +-0.5)
    b, db = _constant_limit(a)
    x = np.linspace(-0.5, 0.5, 21)
    want = np.array([limit_real_density(xi, b, db) for xi in x])
    for n in (64, 512, 4096):
        got = real_intensity_grid(materialize(constant(a), n), n, x)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-10 * max(1.0, n / 512)


@pytest.mark.parametrize("n", [64, 512])
def test_constant_mass_point_weight(n):
    # constant(a > 0) has a mass point at z = 1 of weight 1/sum phi_k(1)^2 =
    # 2a/(1 + a), since phi_k(1) = ((1 - a)/(1 + a))^(k/2); by n = 512
    # phi_k'(1) has grown past 1e100, so K_n(1, 1) is stored rescaled
    kb = kernel_bundle(materialize(constant(0.5), n), n, np.array([1.0]))
    weight = 1.0 / (kb.k_zz[0] * math.exp(kb.log_scale[0]))
    assert abs(weight - 2.0 * 0.5 / 1.5) <= 1e-12


def test_growth_log_derivative():
    # H(tau) = (e^tau - 1)/tau
    assert abs(growth_log_derivative(0.0) - 0.5) < 1e-15
    for tau in (-7.0, -1.0, -1e-4, 1e-4, 0.3, 2.0, 9.0):
        g = growth_log_derivative(tau)
        assert abs(g + growth_log_derivative(-tau) - 1.0) < 1e-13
    assert growth_log_derivative(-40.0) < 0.03
    assert abs(growth_log_derivative(-200.0)) < 0.006
    # direct ratio check away from zero
    tau = 1.7
    direct = (math.exp(tau) * (tau - 1) + 1) / (tau * (math.exp(tau) - 1))
    assert abs(growth_log_derivative(tau) - direct) < 1e-14


def test_scaling_limit_density():
    assert abs(scaling_limit_density(0.0) - 1.0 / (24 * math.pi)) < 1e-12
    # series branch and closed branch meet smoothly
    a = scaling_limit_density(0.0099)
    b = scaling_limit_density(0.0101)
    assert abs(a - b) < 1e-8
    # matches a finite difference of the log-derivative
    h = 1e-5
    for tau in (-2.0, 0.5, 3.0):
        fd = (growth_log_derivative(tau + h) - growth_log_derivative(tau - h)) / (2 * h)
        assert abs(scaling_limit_density(tau) - fd / (2 * math.pi)) < 1e-9
    # past |tau| = 1400, 1/(4 sinh^2(tau/2)) is 0 in double precision, and
    # math.sinh itself overflows from 1421 on
    for tau in (1e3, 1e4, 1e300):
        for t in (tau, -tau):
            want = 1.0 / (2.0 * math.pi * t * t)
            assert abs(scaling_limit_density(t) - want) <= 1e-15 * want


def test_grid_matches_scalar():
    al = VerblunskySequence(values=[0.3, -0.4, 0.2, 0.1])
    xs = np.array([-0.7, 0.1, 0.6])
    grid = real_intensity_closed_grid(al, 4, xs)
    for x, g in zip(xs, grid):
        assert abs(g - real_intensity_closed_grid(al, 4, [x])[0]) < 1e-14
    gridk = real_intensity_kernel_grid(al, 4, xs)
    for x, g in zip(xs, gridk):
        assert abs(g - real_intensity_kernel_grid(al, 4, [x])[0]) < 1e-14


def test_exterior_intensity_is_finite_and_self_consistent():
    # zeros of P_n at z are zeros of the reversed polynomial at u = 1/z, so
    # rho(z) = |u|^4 rho_rev(u); the direct sums reach K_n^2 ~ n^2 1e200
    r = np.linspace(1.4, 2.0, 7)
    theta = np.linspace(0.3, math.pi - 0.3, 15)
    z = (r[:, None] * np.exp(1j * theta[None, :])).ravel()
    # free n = 4096 and the Bernstein-Szego head of power_decay(0.3, 2) with
    # 236 zeros after it take the rows past the head by doubling; the
    # forward sums reach |z|^8190 ~ 1e2465 there
    head = materialize(power_decay(0.3, 2), 20).array(20)
    cases = [(materialize(free_spec(), 300), 300), (materialize(power_decay(0.3, 2), 256), 256),
             (VerblunskySequence(values=np.concatenate([head, np.zeros(236)])), 256),
             (materialize(free_spec(), 4096), 4096)]
    for al, n in cases:
        rho = complex_intensity_grid(al, n, z)
        assert np.all(np.isfinite(rho)) and np.all(rho > 0.0)
        ref = np.abs(z) ** -4 * complex_intensity_reversed_grid(al, n, 1.0 / z)
        assert np.max(np.abs(rho - ref) / ref) < 1e-6


def test_fused_grid_is_bit_identical_to_the_two_routes():
    # one sweep serves both routes; per-point arithmetic does not depend on
    # which points share it, so the bytes match the separate routes
    c = CLOSED_CUTOFF
    edges = [math.sqrt(1.0 - c), math.sqrt(1.0 + c)]
    edges += [np.nextafter(e, 0.0) for e in edges] + [np.nextafter(e, 2.0) for e in edges]
    rng = np.random.default_rng(24)
    base = [0.0, -1.0, 1.0 - 1e-9, -(1.0 - 1e-9), 0.3, -0.7, 0.9999, -1.0005,
            1.5, -3.0, 40.0, *edges, *(-e for e in edges)]
    large = rng.choice([-1.0, 1.0], 600) * rng.uniform(0.7, 0.9, 600)
    cases = ((free(), 4096, [1.0]), (materialize(constant(0.5), 2000), 2000, []),
             (VerblunskySequence(values=large), 600, [1.0]))
    for al, n, extra in cases:
        x = rng.permutation(base + extra)
        closed = np.abs(1.0 - x * x) > c
        assert 0 < np.count_nonzero(closed) < len(x)
        rho = real_intensity_grid(al, n, x)
        assert np.all(np.isfinite(rho))
        assert rho[closed].tobytes() == real_intensity_closed_grid(al, n, x[closed]).tobytes()
        assert rho[~closed].tobytes() == real_intensity_kernel_grid(al, n, x[~closed]).tobytes()
    # constant(0.5): phi and phi^* vanish at x = 1 from degree 839, and K_n
    # underflows against K_n^(1,1) there, so both routes refuse the point
    al = materialize(constant(0.5), 2000)
    for route in (real_intensity_grid, real_intensity_kernel_grid):
        with pytest.raises(OutOfDomainError):
            route(al, 2000, [0.5, 1.0])


def test_kernel_route_near_a_spike_matches_high_precision():
    # constant(0.5), n = 839: K K^(1,1) and (K^(1,0))^2 overflow as products
    # of mantissas and agree to 19 digits at 1 - 1e-9
    mpmath = pytest.importorskip("mpmath")
    n = 839
    xs = [0.9999, 1.0 - 1e-9, 1.0 + 1e-9, -(1.0 - 1e-9)]
    got = real_intensity_grid(materialize(constant(0.5), n), n, xs)
    with mpmath.workdps(50):
        a = mpmath.mpf("0.5")
        s = 1 / mpmath.sqrt(1 - a * a)
        for x, g in zip(xs, got):
            x = mpmath.mpf(x)
            p, ps, dp, dps = mpmath.mpf(1), mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)
            k = k10 = k11 = 0
            for _ in range(n):
                k, k10, k11 = k + p * p, k10 + p * dp, k11 + dp * dp
                xp, q = x * p, p + x * dp
                p, ps, dp, dps = ((xp - a * ps) * s, (ps - a * xp) * s,
                                  (q - a * dps) * s, (dps - a * q) * s)
            want = float(mpmath.sqrt(k * k11 - k10 * k10) / (mpmath.pi * k))
            assert abs(g - want) <= 1e-6 * want


def _mp_rho(mpmath, a, n, x):
    """The real intensity at x from 60-digit kernel sums over degrees 0..n-1."""
    with mpmath.workdps(60):
        x = mpmath.mpf(x)
        p, ps, dp, dps = mpmath.mpf(1), mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)
        k = k10 = k11 = 0
        for i in range(n):
            k, k10, k11 = k + p * p, k10 + p * dp, k11 + dp * dp
            xp, q = x * p, p + x * dp
            if i < n - 1 and a[i]:
                c = mpmath.mpf(float(a[i]))
                s = 1 / mpmath.sqrt(1 - c * c)
                p, ps, dp, dps = ((xp - c * ps) * s, (ps - c * xp) * s,
                                  (q - c * dps) * s, (dps - c * q) * s)
            else:
                p, dp = xp, q
        return mpmath.sqrt(k * k11 - k10 * k10) / (mpmath.pi * k)


def _head_and_tail(n, head):
    """head coefficients with |alpha_k| <= 0.5/sqrt(k + 1), the last 0.3, then zeros."""
    a = np.zeros(n)
    rng = np.random.default_rng(head)
    a[:head] = rng.uniform(-0.5, 0.5, head) / np.sqrt(np.arange(head) + 1.0)
    a[head - 1:head] = 0.3
    return a


@pytest.mark.parametrize("n, head", [(2, 0), (3, 0), (64, 0), (4096, 0),
                                     (3, 1), (64, 3), (4096, 20)])
def test_zero_tail_kernel_route_matches_high_precision(n, head):
    # free (head 0) and Bernstein-Szego sequences: the kernel route sweeps
    # the head and adds the zero tail in closed form, at and past +-1 too.
    # Past +-1 the reference is taken at 1/u for the swept u = fl(1/x):
    # that rounding alone moves rho by up to n eps near +-1 (5e-14 at
    # x = 1.0005, n = 4096), the problem's conditioning, not the route's
    mpmath = pytest.importorskip("mpmath")
    a = _head_and_tail(n, head)
    xs = [0.0, 1.0, -1.0, 1.0 - 2.0 ** -53, 1.0 - 1.0 / n, -(1.0 - 1.0 / n), 0.6,
          -0.3, 1.0005, 3.0, -1e10]
    got = real_intensity_kernel_grid(VerblunskySequence(values=a), n, xs)
    for x, g in zip(xs, got):
        with mpmath.workdps(60):
            at = 1 / mpmath.mpf(1.0 / x) if abs(x) > 1.0 else x
        want = _mp_rho(mpmath, a, n, at)
        assert abs(g - want) <= 1e-14 * want, x


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the closed route loses up to 5e-8 "
                                       "relative just outside CLOSED_CUTOFF")
@pytest.mark.parametrize("n, x", [(2, 1.0005), (2, 0.999), (3, 1.0005), (8, 1.0005),
                                  (64, 1.0005)])
def test_closed_route_near_the_cutoff_matches_high_precision(n, x):
    # free ensemble, where the kernel route is within 7.6e-16 at these points
    mpmath = pytest.importorskip("mpmath")
    got = real_intensity_grid(materialize(free_spec(), n), n, [x])[0]
    want = _mp_rho(mpmath, np.zeros(n), n, x)
    assert abs(got - want) <= 1e-12 * want
