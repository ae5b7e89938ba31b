import math

import numpy as np
import pytest

from opuczeros import (AnnularSector, OutOfDomainError, QuadratureError,
                       RealInterval, ScalingWindow, VerblunskySequence,
                       conservation_check, expected_complex_zeros,
                       expected_real_zeros, growth_log_derivative,
                       total_complex_zeros)
from opuczeros import expectation, intensity, kernels, szego
from opuczeros.ensembles import (constant, free, materialize, parse_ensemble,
                                 power_decay)


def free_seq():
    return VerblunskySequence(generator=lambda k: 0.0)


def test_degree_one_polynomial_has_one_real_zero():
    res = expected_real_zeros(free_seq(), 2)
    assert abs(res.value - 1.0) < 1e-10


def test_degree_zero_has_none():
    res = expected_real_zeros(free_seq(), 1)
    assert res.value == 0.0


def test_log_growth_difference():
    # E[N_256] - E[N_64] ~ (2/pi) log 4
    a = expected_real_zeros(free_seq(), 64).value
    b = expected_real_zeros(free_seq(), 256).value
    expect = (2.0 / math.pi) * math.log(4.0)
    assert abs((b - a) - expect) <= 0.05 * expect


def test_real_interval_region():
    whole = expected_real_zeros(free_seq(), 8).value
    inner = expected_real_zeros(free_seq(), 8, RealInterval(-1.0, 1.0)).value
    # inversion symmetry puts exactly half the real zeros inside (-1, 1)
    assert abs(2 * inner - whole) < 1e-8


def test_monotone_in_degree():
    prev = -1.0
    for n in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
        cur = expected_real_zeros(free_seq(), n).value
        assert cur > prev - 1e-6
        prev = cur


def test_quadrature_error_is_honest():
    al = VerblunskySequence(values=np.linspace(-0.4, 0.6, 16))
    coarse = expected_real_zeros(al, 16, tol=1e-6)
    fine = expected_real_zeros(al, 16, tol=5e-7)
    assert abs(fine.value - coarse.value) <= max(coarse.error, 1e-12)


# perfbench/references.json real/<ensemble>/<n>: the Kac closed form (free)
# and a 200-bit Szegő sweep (power_decay(0.3, 2)), both under mpmath.quad
REAL_REFERENCES = [
    ("free", 32, 2.8318547983211206),
    ("free", 64, 3.2733037721694775),
    ("free", 4096, 5.920990196408062),
    ("power_decay", 32, 2.896492020719212),
    ("power_decay", 64, 3.3101927775433406),
    ("power_decay", 1024, 5.041459639222816),
]


@pytest.mark.parametrize("ensemble, n, ref", REAL_REFERENCES)
@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_real_count_within_stated_error_of_reference(ensemble, n, ref, tol):
    # free n = 32 was off by 1.3e-12 while stating 5.9e-13 before the
    # rounding floor: the integrand's rounding, not the rule's error
    alpha = free_seq() if ensemble == "free" else materialize(power_decay(0.3, 2), n)
    res = expected_real_zeros(alpha, n, tol=tol)
    assert abs(res.value - ref) <= res.error <= tol * max(res.value, 1.0)


def test_full_annulus_complements_real_line():
    # almost surely n - 1 zeros; the whole-plane complex count complements
    # the real count up to the nonreal zeros inside the guard band (1.8e-8
    # here), and the delta = 0.5 annulus holds most of it, short only of the
    # near-axis wings outside (0.5, 1.5)
    n = 64
    real = expected_real_zeros(free_seq(), n).value
    total = total_complex_zeros(free_seq(), n, tol=1e-6).value
    assert abs(real + total - (n - 1)) < 1e-7
    sector = AnnularSector(0.0, 2.0 * math.pi, 0.5)
    cplx = expected_complex_zeros(free_seq(), n, sector, tol=1e-6).value
    assert cplx < total
    assert total - cplx < 1.0


def test_scaling_window_prediction_interior_tail():
    # window (-20, 0): the interior side carries H'/H(0) - H'/H(-20)
    win = ScalingWindow(0.3, 1.1, -20.0, 0.0)
    res = expected_complex_zeros(free_seq(), 128, win, tol=1e-7)
    span = 1.1 - 0.3
    g = growth_log_derivative
    expect = 128 * span / (2 * math.pi) * (g(0.0) - g(-20.0))
    assert abs(res.prediction - expect) <= 1e-12 * expect
    assert abs(res.value - res.prediction) <= 0.05 * res.prediction


def test_scaling_window_quadrature_vs_prediction():
    win = ScalingWindow(math.pi / 4, 3 * math.pi / 4, -5.0, 5.0)
    n = 256
    res = expected_complex_zeros(free_seq(), n, win, tol=1e-7)
    g = growth_log_derivative
    expect = n * (math.pi / 2) / (2 * math.pi) * (g(5.0) - g(-5.0))
    assert abs(res.prediction - expect) < 1e-12
    assert abs(res.value - res.prediction) <= 0.05 * res.prediction


def test_conservation_small_degrees():
    rng = np.random.default_rng(50)
    for n in (4, 8):
        al = VerblunskySequence(values=rng.uniform(-0.6, 0.6, n))
        rep = conservation_check(al, n, tol=1e-6)
        # measured 6.2e-10 at n = 8: the guard band's nonreal zeros
        assert abs(rep["defect"]) < 1e-8
        assert rep["target"] == n - 1


def test_degree_one_checks_tolerance():
    assert tuple(expected_real_zeros(free_seq(), 1)) == (0.0, 0.0, None)
    for tol in (math.nan, -1.0, 0.0, math.inf):
        with pytest.raises(OutOfDomainError):
            expected_real_zeros(free_seq(), 1, tol=tol)


def test_tolerance_below_the_rounding_floor_raises():
    # no stated error is below 1e-12 |value| (_rounding_floor): at tol 1e-13
    # free n = 64 stated 3.3e-12, ten times tol |value|, and returned
    alpha = materialize(free(), 64)
    solves = (lambda tol: expected_real_zeros(alpha, 64, tol=tol),
              lambda tol: expected_complex_zeros(alpha, 64, AnnularSector(0.1, 1.0, 0.5),
                                                 tol=tol),
              lambda tol: total_complex_zeros(alpha, 64, tol=tol))
    for solve in solves:
        with pytest.raises(QuadratureError, match="rounding floor"):
            solve(1e-13)
        assert solve(1e-12).value > 0.0


# Kac's constant C in E N = (2/pi) ln d + C + 2/(pi d) + O(d^-2), d = n - 1
# (Edelman & Kostlan, Bull. AMS 32, 1995, Cor. 3.2)
KAC_C = 0.6257358072


def test_free_count_follows_the_kac_expansion():
    # the zero tail makes a free count cost milliseconds at any n; the
    # O(d^-2) term is about 2e-9 at n = 2^14 and 2e-12 at n = 2^20
    for n in (2 ** 14, 2 ** 20):
        res = expected_real_zeros(materialize(free(), n), n)
        d = n - 1
        kac = 2.0 / math.pi * math.log(d) + KAC_C + 2.0 / (math.pi * d)
        bound = 1e-8 if n == 2 ** 14 else res.error + 1e-11
        assert abs(res.value - kac) <= bound, n


def test_total_complex_zeros_free_small():
    # degree-3 free case: 3 zeros total, real part via quadrature
    real = expected_real_zeros(free_seq(), 4).value
    cplx = total_complex_zeros(free_seq(), 4, tol=1e-6).value
    assert abs(real + cplx - 3.0) < 1e-9


def test_region_validation():
    with pytest.raises(OutOfDomainError):
        RealInterval(1.0, -1.0)
    with pytest.raises(OutOfDomainError):
        AnnularSector(0.0, 1.0, 1.5)
    with pytest.raises(OutOfDomainError):
        ScalingWindow(0.0, 1.0, 5.0, -5.0)
    # an infinite window end once passed here and crashed the contour count
    for tau1, tau2 in ((-1.0, math.inf), (-math.inf, 1.0), (-math.inf, math.inf)):
        with pytest.raises(OutOfDomainError, match="finite tau1 and tau2"):
            ScalingWindow(0.5, 1.0, tau1, tau2)
    with pytest.raises(OutOfDomainError):
        expected_real_zeros(free_seq(), 4, AnnularSector(0.0, 1.0, 0.2))
    # an arc longer than the circle is rejected by the region itself
    with pytest.raises(OutOfDomainError, match="theta2 <= theta1 \\+ 2 pi"):
        AnnularSector(0.0, 7.0, 0.5)
    with pytest.raises(OutOfDomainError, match="theta2 <= theta1 \\+ 2 pi"):
        ScalingWindow(-1.0, 6.0, -5.0, 5.0)
    AnnularSector(0.0, 2.0 * math.pi, 0.5)


def test_power_decay_real_count_close_to_free():
    # Nevai-class coefficients follow the same logarithmic law
    al = materialize(power_decay(0.3, 2), 128)
    a = expected_real_zeros(al, 128).value
    b = expected_real_zeros(free_seq(), 128).value
    assert abs(a - b) < 1.0


def _kac_count(n):
    """Expected real zeros of the free (Kac) ensemble from its closed-form density."""
    mpmath = pytest.importorskip("mpmath")

    def rho(x):
        with mpmath.workdps(60):
            t = 1 / (1 - x * x) ** 2 - n * n * x ** (2 * n - 2) / (1 - x ** (2 * n)) ** 2
            return +(mpmath.sqrt(t) / mpmath.pi)

    with mpmath.workdps(20):
        pts = [0, *(1 - mpmath.mpf(2) ** -k for k in range(1, 30)), 1]
        # even density and the inversion symmetry: four times (0, 1)
        return float(4 * mpmath.quad(rho, pts, method="gauss-legendre"))


@pytest.fixture
def real_solve_calls(monkeypatch):
    """Points of each integrand call of the real-count solves, one Szegő sweep each."""
    sweeps, calls = [], []
    sweep, grid = szego._sweep, expectation.real_intensity_grid

    def counting_sweep(*args):
        sweeps.append(1)
        return sweep(*args)

    def counting_grid(alpha, n, x):
        before = len(sweeps)
        rho = grid(alpha, n, x)
        assert len(sweeps) == before + 1
        calls.append(len(x))
        return rho

    for module in (szego, intensity, kernels):
        monkeypatch.setattr(module, "_sweep", counting_sweep)
    monkeypatch.setattr(expectation, "real_intensity_grid", counting_grid)
    return calls


# most integrand points of a whole-line solve: 33 per panel, the panels cut
# at +-(1 - 4^-k) for k = 1..ceil(log4 n), +-(1 - 1/n) and +-(1 - 0.1/n)
MESH_POINTS = {64: 297, 256: 363, 1024: 429, 4096: 495, 65536: 627}


def test_real_line_solve_is_one_round(real_solve_calls):
    # the graded mesh settles the free ensemble in its first round: one
    # integrand call, one Szegő sweep
    for tol in (1e-6, 1e-9):
        for n, most in MESH_POINTS.items():
            res = expected_real_zeros(free_seq(), n, tol=tol)
            assert len(real_solve_calls) == 1 and real_solve_calls[0] <= most, (n, tol)
            assert res.error <= tol * res.value
            if n == 4096:
                assert abs(res.value - _kac_count(4096)) <= tol * res.value
            real_solve_calls.clear()
        # an interval reaching past x = 1 folds into one piece graded toward 1
        res = expected_real_zeros(free_seq(), 4096, RealInterval(0.5, 2.0), tol=tol)
        assert 0.0 < res.value < 4095 and res.error <= tol * res.value
        assert len(real_solve_calls) == 1
        real_solve_calls.clear()


# perfbench/references.json real/<ensemble>/1024, 200-bit Szegő sweeps
GAPLESS_REFERENCES = [("power_decay:0.3:2", 5.041459639222816),
                      ("geronimus:power_decay:0.3:2:0.5", 5.575706539349305)]


@pytest.mark.parametrize("label, ref", GAPLESS_REFERENCES)
@pytest.mark.parametrize("tol", [1e-6, 1e-9])
def test_decaying_ensembles_count_in_one_round(real_solve_calls, label, ref, tol):
    res = expected_real_zeros(materialize(parse_ensemble(label), 1024), 1024, tol=tol)
    assert real_solve_calls == [MESH_POINTS[1024]]
    assert abs(res.value - ref) <= res.error <= tol * res.value


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("tol", [1e-6, 1e-9])
def test_gapped_ensemble_counts_in_one_round(real_solve_calls, n, tol):
    # constant(-0.5) has a gap around z = 1 but no mass point; it has no
    # 200-bit reference, so its own tol-1e-11 solve serves
    alpha = materialize(constant(-0.5), n)
    res = expected_real_zeros(alpha, n, tol=tol)
    assert real_solve_calls == [MESH_POINTS[n]]
    fine = expected_real_zeros(alpha, n, tol=1e-11)
    assert abs(res.value - fine.value) <= res.error <= tol * res.value


@pytest.mark.parametrize("far", [1e3, 1e12, 1e15, 1e300, math.inf])
def test_interval_past_one_folds_in_by_inversion(far):
    # rho(1/x) = x^2 rho(x): the count over [1, X] is the count over [1/X, 1];
    # the free density is even too, so [1, inf) holds a quarter of the line
    tol = 1e-9
    res = expected_real_zeros(free_seq(), 64, RealInterval(1.0, far), tol=tol)
    inner = expected_real_zeros(free_seq(), 64, RealInterval(1.0 / far, 1.0), tol=tol)
    assert abs(res.value - inner.value) <= tol * inner.value
    assert res.error <= tol * res.value
    if far >= 1e12:
        quarter = expected_real_zeros(free_seq(), 64, tol=tol).value / 4.0
        assert abs(res.value - quarter) <= tol * quarter


def test_unbounded_interval_is_the_whole_line():
    for alpha, n in ((free_seq(), 64), (materialize(power_decay(0.3, 2), 256), 256)):
        assert (expected_real_zeros(alpha, n, RealInterval(-math.inf, math.inf))
                == expected_real_zeros(alpha, n))


def test_interval_counts_add_up_across_the_fold():
    # pieces beyond +-1 fold onto (-1, 1) with weight 0, 1 or 2
    alpha = materialize(power_decay(0.3, 2), 64)
    cuts = [-math.inf, -3.0, -0.5, 0.7, 2.0, math.inf]
    parts = [expected_real_zeros(alpha, 64, RealInterval(a, b), tol=1e-11)
             for a, b in zip(cuts[:-1], cuts[1:])]
    whole = expected_real_zeros(alpha, 64, tol=1e-11)
    total = math.fsum(p.value for p in parts)
    assert abs(total - whole.value) <= whole.error + math.fsum(p.error for p in parts)
    # an interval whose image under 1/x is no wider than one float counts 0
    assert expected_real_zeros(alpha, 64, RealInterval(7.3, math.nextafter(7.3, 8.0))).value == 0.0
