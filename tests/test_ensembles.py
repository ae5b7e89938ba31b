import warnings

import numpy as np
import pytest

from opuczeros import InvalidCoefficientError
from opuczeros.ensembles import (constant, explicit, free, geronimus,
                                 geronimus_alphas, materialize,
                                 moments_from_verblunsky, parse_ensemble,
                                 power_decay, verblunsky_from_moments)


def test_free_is_zero():
    al = materialize(free(), 5)
    assert np.array_equal(al.array(5), np.zeros(5))


def test_constant_and_power_decay():
    al = materialize(constant(0.4), 6)
    assert np.allclose(al.array(6), 0.4)
    al = materialize(power_decay(0.3, 2), 5)
    expect = [0.3, 0.3, 0.3 / 4, 0.3 / 9, 0.3 / 16]
    assert np.allclose(al.array(5), expect, atol=1e-15)


def test_explicit_roundtrip():
    vals = [0.1, -0.7, 0.3]
    al = materialize(explicit(vals), 3)
    assert np.allclose(al.array(3), vals)


def test_parse_ensemble():
    assert np.array_equal(materialize(parse_ensemble("free"), 3).array(3), np.zeros(3))
    assert np.allclose(materialize(parse_ensemble("constant:0.2"), 2).array(2), 0.2)
    assert np.allclose(materialize(parse_ensemble("power_decay:0.3:2"), 3).array(3),
                       [0.3, 0.3, 0.075])
    assert np.allclose(materialize(parse_ensemble("explicit:0.1,-0.2"), 2).array(2),
                       [0.1, -0.2])
    g = parse_ensemble("geronimus:free:0.5")
    assert np.allclose(materialize(g, 3).array(3), [1 / 2, 1 / 3, 1 / 4], atol=1e-14)
    with pytest.raises(InvalidCoefficientError):
        parse_ensemble("mystery:1:2")


def test_label_parses_back_to_the_spec():
    specs = [free(), constant(0.5), constant(-1 / 3), power_decay(0.3, 2),
             explicit([0.1, -0.2, 1 / 3]), explicit([0.25]),
             geronimus(free(), 0.5), geronimus(power_decay(0.3, 2), 0.5),
             geronimus(explicit([0.1, 0.2, 0.3]), 0.25),
             geronimus(geronimus(constant(-0.5), 0.5), 0.7)]
    for spec in specs:
        assert parse_ensemble(spec.label()) == spec, spec.label()
    assert geronimus(free(), 0.5).label() == "geronimus:free:0.5"
    assert explicit([0.1, 0.2, 0.3]).label() == "explicit:0.1,0.2,0.3"


def test_parse_ensemble_rejects_surplus_and_missing_fields():
    # explicit:0.1:0.2:0.3 once read as the single coefficient 0.1
    for text in ("free:3", "constant", "constant:0.5:7", "power_decay:0.3",
                 "power_decay:0.3:2:9", "explicit:0.1:0.2:0.3", "geronimus:0.5",
                 "geronimus:constant:0.5:7:0.5"):
        with pytest.raises(InvalidCoefficientError):
            parse_ensemble(text)


def test_geronimus_update_survives_growing_phi():
    # phi_m(1; nu) grows like sqrt(3)^m for constant(-0.5): K_m overflowed
    # before n = 1000; the rescaled update matches the same update in 80 digits
    mpmath = pytest.importorskip("mpmath")
    n = 1000
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = materialize(geronimus(constant(-0.5), 0.5), n).array(n)
    with mpmath.workdps(80):
        a = mpmath.mpf(-0.5)
        ratio, phi, ksum, ref = mpmath.mpf(1), mpmath.mpf(1), mpmath.mpf(0), []
        for m in range(n):
            ksum += phi * phi
            s = 1 - a * a
            phi_next = phi * (1 - a) / mpmath.sqrt(s)
            ref.append(float(a + phi * phi_next * mpmath.sqrt(s) / (ratio + ksum)))
            phi = phi_next
    assert np.max(np.abs(got - np.array(ref))) <= 4e-15


def test_geronimus_free_closed_form():
    # adding mass 1/2 at z = 1 to arclength: alpha_{n-1} = 1/(n+1)
    for n in range(1, 40):
        vals = geronimus_alphas(materialize(free(), n), 0.5, n)
        assert abs(vals[n - 1] - 1.0 / (n + 1)) < 1e-12


def test_geronimus_general_t_closed_form():
    # base arclength: alpha_{n-1} = (1-t)/(t + n(1-t))
    for t in (0.25, 0.9):
        vals = geronimus_alphas(materialize(free(), 12), t, 12)
        for n in range(1, 13):
            expect = (1 - t) / (t + n * (1 - t))
            assert abs(vals[n - 1] - expect) < 1e-12


def test_moments_of_arclength():
    al = materialize(free(), 8)
    m = moments_from_verblunsky(al, 8)
    assert abs(m[0] - 1.0) < 1e-15
    assert np.max(np.abs(m[1:])) < 1e-15
    rec = verblunsky_from_moments(np.concatenate([[1.0], np.zeros(7)]))
    assert np.max(np.abs(rec)) < 1e-14


def test_point_mass_mixture_moments():
    # c_k = 1/2 [k=0] + 1/2 gives the 1/(k+1) ladder
    m = np.full(9, 0.5)
    m[0] = 1.0
    rec = verblunsky_from_moments(m)
    expect = 1.0 / np.arange(2, 10)
    assert np.allclose(rec, expect, atol=1e-12)


def test_bernstein_szego_from_quadrature():
    # measure with alpha = (a, 0, 0, ...): density (1 - a^2)/(2 pi |1 - a e^{i t}|^2);
    # trapezoid moments on a fine grid feed the moment recursion
    a = 0.5
    m = 1 << 14
    theta = 2 * np.pi * np.arange(m) / m
    dens = (1 - a * a) / (2 * np.pi * np.abs(1 - a * np.exp(1j * theta)) ** 2)
    moments = np.array([np.real(np.sum(np.exp(-1j * k * theta) * dens)) * 2 * np.pi / m
                        for k in range(8)])
    rec = verblunsky_from_moments(moments)
    assert abs(rec[0] - 0.5) < 1e-10
    assert np.max(np.abs(rec[1:])) < 1e-10


def test_geronimus_matches_moment_oracle():
    for base in (free(), power_decay(0.3, 2)):
        for t in (0.25, 0.5, 0.9):
            base_alpha = materialize(base, 12)
            rec = geronimus_alphas(base_alpha, t, 12)
            mom = moments_from_verblunsky(base_alpha, 12)
            mixed = t * mom + (1.0 - t)
            mixed[0] = 1.0
            oracle = verblunsky_from_moments(mixed)
            assert np.max(np.abs(rec - oracle)) < 1e-8


def test_geronimus_tail_asymptotics():
    # n * alpha_{n-1} settles down: Cauchy within 2% between consecutive
    # doublings; the decaying base approaches its limit like 1 - c/n with a
    # larger c, so its window sits one doubling later
    for base, lo in ((free(), 200), (power_decay(0.3, 2), 400)):
        al = materialize(geronimus(base, 0.5), 2 * lo)
        vlo = lo * al.array(lo)[lo - 1]
        vhi = 2 * lo * al.array(2 * lo)[2 * lo - 1]
        assert abs(vhi - vlo) <= 0.02 * abs(vlo)


def test_generated_coefficients_stay_admissible():
    rng = np.random.default_rng(40)
    for trial in range(10):
        base = explicit(rng.uniform(-0.9, 0.9, 50))
        t = rng.uniform(0.05, 0.95)
        vals = geronimus_alphas(materialize(base, 50), t, 50)
        assert np.max(np.abs(vals)) < 1.0


def test_moment_roundtrip_random():
    rng = np.random.default_rng(41)
    for trial in range(10):
        vals = rng.uniform(-0.8, 0.8, 12)
        m = moments_from_verblunsky(explicit_seq(vals), 12)
        rec = verblunsky_from_moments(m)
        assert np.max(np.abs(rec - vals)) < 1e-8


def explicit_seq(vals):
    return materialize(explicit(vals), len(vals))
