import math
import os
import subprocess
import sys

import numpy as np
import pytest

from opuczeros import (AnnularSector, RealInterval, SampleBatch,
                       VerblunskySequence, WholePlane, WholeRealLine,
                       complex_intensity, count_in_region, count_in_scaling_window,
                       expected_complex_zeros, expected_real_zeros,
                       sample_roots)
from opuczeros import montecarlo
from opuczeros.expectation import ScalingWindow
from opuczeros.errors import OutOfDomainError, RootFindingError
from opuczeros.montecarlo import (_EXP_M2, _ndtri, _uniforms, basis_matrix,
                                  is_real_root)
from opuczeros.para import caratheodory
from opuczeros.szego import ggt_matrix

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def free_seq():
    return VerblunskySequence(generator=lambda k: 0.0)


def pd_seq():
    return VerblunskySequence(generator=lambda k: 0.3 / max(k, 1) ** 2 if k else 0.3)


def _normals(seed, trial, size, attempt=0):
    return _ndtri(_uniforms(seed, trial, size, attempt))


def test_package_import_loads_no_scipy():
    code = ("import sys; sys.path.insert(0, %r); import opuczeros, opuczeros.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))" % SRC)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.strip() == "[]"


def _ndtri_points():
    rng = np.random.default_rng(8)
    return np.concatenate([[2.0 ** -53, 1.0 - 2.0 ** -53, _EXP_M2, 1.0 - _EXP_M2, 0.5],
                           rng.integers(1, 1 << 53, size=200) / float(1 << 53)])


def test_ndtri_matches_high_precision():
    mpmath = pytest.importorskip("mpmath")
    u = _ndtri_points()
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(x) - 1))
                        for x in u])
    assert np.all(np.abs(_ndtri(u) - ref) <= 4 * np.spacing(np.abs(ref)))


def test_ndtri_is_odd():
    u = _ndtri_points()
    # 1 - u is exact for u = k / 2^53; the branches are odd in u - 1/2 and
    # mirror each other across the tails, up to where 1 - e^-2 rounds
    assert np.array_equal(_ndtri(1.0 - u[5:]), -_ndtri(u[5:]))
    np.testing.assert_array_max_ulp(_ndtri(1.0 - u), -_ndtri(u), maxulp=1)


def test_ndtri_matches_scipy():
    special = pytest.importorskip("scipy.special")
    u = np.random.default_rng(9).integers(1, 1 << 53, size=100000) / float(1 << 53)
    np.testing.assert_array_max_ulp(_ndtri(u), special.ndtri(u), maxulp=8)


def test_ggt_characteristic_polynomial_is_monic_szego():
    rng = np.random.default_rng(4)
    for m in (1, 2, 5, 12):
        a = rng.uniform(-0.8, 0.8, m)
        G, rho = ggt_matrix(a)
        B = basis_matrix(a, m + 1)
        assert np.allclose(np.poly(G)[::-1], B[m] / B[m, m], atol=1e-12)
        assert rho == math.sqrt(1.0 - a[-1] ** 2)


def test_basis_matrix_free_is_monomials():
    B = basis_matrix(free_seq(), 5)
    assert np.allclose(B, np.eye(5))


def test_basis_matrix_single_coefficient():
    # alpha_0 = 0.5: phi_1(z) = (z - 0.5) / sqrt(0.75)
    B = basis_matrix(VerblunskySequence(values=[0.5]), 2)
    s = 1.0 / math.sqrt(0.75)
    assert np.allclose(B[1], [-0.5 * s, s])


def test_degree_one_root_is_coefficient_ratio():
    batch = SampleBatch(n=2, alpha=free_seq(), seed=11, trials=50)
    roots = sample_roots(batch)
    for trial, rr in enumerate(roots):
        eta = _normals(11, trial, 2)
        assert len(rr) == 1
        assert abs(rr[0] - (-eta[0] / eta[1])) < 1e-12 * (1 + abs(rr[0]))


def test_roots_satisfy_sampled_polynomial():
    n = 12
    batch = SampleBatch(n=n, alpha=pd_seq(), seed=3, trials=20)
    B = basis_matrix(pd_seq(), n)
    for trial, rr in enumerate(sample_roots(batch)):
        coeffs = _normals(3, trial, n) @ B
        vals = np.polyval(coeffs[::-1], rr)
        scale = np.max(np.abs(coeffs)) * np.maximum(1.0, np.abs(rr)) ** (n - 1)
        assert np.all(np.abs(vals) <= 1e-8 * scale)


def test_nonreal_roots_come_in_conjugate_pairs():
    batch = SampleBatch(n=16, alpha=free_seq(), seed=7, trials=30)
    for rr in sample_roots(batch):
        cplx = rr[~is_real_root(rr)]
        up = np.sort_complex(cplx[cplx.imag > 0])
        dn = np.sort_complex(np.conj(cplx[cplx.imag < 0]))
        assert len(up) == len(dn)
        assert np.allclose(up, dn, atol=1e-7)


def test_sampling_is_deterministic():
    batch = SampleBatch(n=9, alpha=pd_seq(), seed=123, trials=25)
    a = sample_roots(batch)
    b = sample_roots(batch)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra, rb)


def test_multi_chunk_sampling_is_independent_of_threads_and_batch_size():
    # m = 63: 2^17 // 63^2 = 33 matrices per chunk, so 100 trials are 4 chunks
    batch = SampleBatch(n=64, alpha=pd_seq(), seed=5, trials=100)
    serial = sample_roots(batch, threads=1)
    threaded = sample_roots(batch, threads=3)
    longer = sample_roots(SampleBatch(n=64, alpha=pd_seq(), seed=5, trials=150))
    assert len(serial) == len(threaded) == 100
    for a, b, c in zip(serial, threaded, longer):
        assert a.tobytes() == b.tobytes() == c.tobytes()


def test_underflowing_draws_are_resampled(monkeypatch, caplog):
    import opuczeros.montecarlo as mc
    batch = SampleBatch(n=6, alpha=pd_seq(), seed=12, trials=30)
    # a threshold this high makes redraws common; 1.0 rejects every draw
    monkeypatch.setattr(mc, "_UNDERFLOW", 0.25)
    roots = sample_roots(batch)
    B = basis_matrix(pd_seq(), 6)
    redrawn = 0
    for trial, rr in enumerate(roots):
        for attempt in range(mc._MAX_ATTEMPTS):
            eta = _normals(12, trial, 6, attempt)
            if abs(eta[-1]) > 0.25 * np.max(np.abs(eta)):
                break
        redrawn += attempt
        assert np.allclose(np.sort_complex(rr), np.sort_complex(np.roots((eta @ B)[::-1])))
    assert redrawn > 0
    assert len([r for r in caplog.records if "resampling" in r.getMessage()]) == redrawn
    monkeypatch.setattr(mc, "_UNDERFLOW", 1.0)
    with pytest.raises(RootFindingError):
        sample_roots(batch)


def test_threaded_sampling_matches_serial():
    batch = SampleBatch(n=14, alpha=free_seq(), seed=77, trials=40)
    serial = sample_roots(batch, threads=1)
    threaded = sample_roots(batch, threads=4)
    for ra, rb in zip(serial, threaded):
        assert np.array_equal(ra, rb)


def test_constant_half_real_count_matches_reference():
    # 3.296284168653697 is perfbench/references.json real/constant:0.5/128, a
    # 200-bit reference; the monomial expansion overcounted it by 10-14 se
    n = 128
    batch = SampleBatch(n=n, alpha=VerblunskySequence(generator=lambda k: 0.5),
                        seed=n, trials=200)
    rep = count_in_region(sample_roots(batch), WholeRealLine())
    assert np.all(np.mod(rep.counts - (n - 1), 2) == 0)
    assert abs(rep.mean_count - 3.296284168653697) <= 5.0 * rep.std_error


def test_whole_plane_count_is_degree_minus_one():
    batch = SampleBatch(n=10, alpha=free_seq(), seed=2, trials=40)
    rep = count_in_region(sample_roots(batch), WholePlane())
    assert rep.mean_count == 9.0
    assert rep.std_error == 0.0


def test_mean_real_count_matches_quadrature():
    for seq, n, trials in ((free_seq(), 8, 4000), (free_seq(), 32, 1500),
                           (pd_seq(), 16, 2500)):
        expect = expected_real_zeros(seq, n).value
        batch = SampleBatch(n=n, alpha=seq, seed=n, trials=trials)
        rep = count_in_region(sample_roots(batch), WholeRealLine())
        assert abs(rep.mean_count - expect) <= 3.0 * rep.std_error


def test_mean_interval_count_matches_quadrature():
    seq = free_seq()
    region = RealInterval(-0.5, 0.5)
    expect = expected_real_zeros(seq, 12, region).value
    batch = SampleBatch(n=12, alpha=seq, seed=4, trials=4000)
    rep = count_in_region(sample_roots(batch), region)
    assert abs(rep.mean_count - expect) <= 3.0 * rep.std_error


def test_annular_sector_count_matches_quadrature():
    seq = free_seq()
    sector = AnnularSector(0.4, 2.0, 0.3)
    expect = expected_complex_zeros(seq, 16, sector, tol=1e-6).value
    batch = SampleBatch(n=16, alpha=seq, seed=9, trials=3000)
    rep = count_in_region(sample_roots(batch), sector)
    assert abs(rep.mean_count - expect) <= 3.0 * rep.std_error


def test_scaling_window_count_matches_quadrature():
    seq = free_seq()
    n = 32
    win = ScalingWindow(0.5, 2.5, -4.0, 4.0)
    expect = expected_complex_zeros(seq, n, win, tol=1e-6).value
    batch = SampleBatch(n=n, alpha=seq, seed=21, trials=3000)
    rep = count_in_scaling_window(sample_roots(batch), win, n)
    assert abs(rep.mean_count - expect) <= 3.0 * rep.std_error


def test_angular_bins_match_quadrature():
    # bin the upper half circle; per-bin means against sector quadrature
    seq = free_seq()
    n = 16
    trials = 2000
    roots = sample_roots(SampleBatch(n=n, alpha=seq, seed=33, trials=trials))
    edges = np.linspace(0.0, math.pi, 9)
    for lo, hi in zip(edges[:-1], edges[1:]):
        sector = AnnularSector(lo, hi, 0.5)
        expect = expected_complex_zeros(seq, n, sector, tol=1e-6).value
        rep = count_in_region(roots, sector)
        assert abs(rep.mean_count - expect) <= 4.0 * max(rep.std_error, 1e-3)


def test_batch_validation():
    with pytest.raises(ValueError):
        SampleBatch(n=1, alpha=free_seq(), seed=0, trials=5)
    with pytest.raises(ValueError):
        SampleBatch(n=4, alpha=free_seq(), seed=0, trials=0)
    with pytest.raises(ValueError):
        SampleBatch(n=4, alpha=free_seq(), seed=-1, trials=5)


def _sector_count_one(roots, theta1, theta2, r1, r2):
    roots = roots[~is_real_root(roots)]
    r = np.abs(roots)
    lo = np.mod(theta1, 2.0 * np.pi)
    rel = np.mod(np.mod(np.angle(roots), 2.0 * np.pi) - lo, 2.0 * np.pi)
    return int(np.count_nonzero((r > r1) & (r < r2) & (rel < theta2 - theta1)))


def _count_one(roots, region):
    """Per-trial reference count: one call per root array."""
    if isinstance(region, WholePlane):
        return len(roots)
    real = roots.real[is_real_root(roots)]
    if isinstance(region, WholeRealLine):
        return len(real)
    if isinstance(region, RealInterval):
        return int(np.count_nonzero((region.a <= real) & (real <= region.b)))
    return _sector_count_one(roots, region.theta1, region.theta2,
                             1.0 - region.delta, 1.0 + region.delta)


@pytest.mark.parametrize("block", [montecarlo._COUNT_ENTRIES, 100])
def test_stacked_counts_match_per_trial_counts(monkeypatch, block):
    # block = 100 counts 4 trials per stacked block, the last one partial
    monkeypatch.setattr(montecarlo, "_COUNT_ENTRIES", block)
    n = 24
    roots = sample_roots(SampleBatch(n=n, alpha=pd_seq(), seed=5, trials=301))
    # exact real roots, roots on region edges and a root within the real tolerance
    roots[0] = np.concatenate([[-0.5, 0.5, 1.0, -1.0, 0.3 + 1e-10j, 1.2j, -1.2j],
                               roots[0][7:]])
    regions = [WholePlane(), WholeRealLine(), RealInterval(-0.5, 0.5),
               RealInterval(-3.0, -0.9), AnnularSector(0.0, math.pi, 0.3),
               AnnularSector(-1.0, 1.5, 0.5), AnnularSector(5.5, 7.0, 0.2),
               AnnularSector(math.pi / 2.0, math.pi / 2.0 + 1e-3, 0.25)]
    for region in regions:
        rep = count_in_region(roots, region)
        want = [_count_one(r, region) for r in roots]
        assert rep.counts.tolist() == want, region
    for win in (ScalingWindow(0.5, 2.5, -4.0, 4.0), ScalingWindow(-2.0, 1.0, -20.0, 0.0)):
        want = [_sector_count_one(r, win.theta1, win.theta2, 1.0 + win.tau1 / (2.0 * n),
                                  1.0 + win.tau2 / (2.0 * n)) for r in roots]
        assert count_in_scaling_window(roots, win, n).counts.tolist() == want, win
        # the window's radii come from the roots, n - 1 per trial
        assert count_in_region(roots, win).counts.tolist() == want, win


def test_scaling_window_degree_must_match_roots():
    # free n = 16 roots once counted 4.1 with n = 16 and 0.14 with n = 1000
    roots = sample_roots(SampleBatch(n=16, alpha=free_seq(), seed=3, trials=20))
    win = ScalingWindow(0.5, 2.5, -4.0, 4.0)
    assert count_in_scaling_window(roots, win, 16).counts.tolist() == \
        count_in_region(roots, win).counts.tolist()
    with pytest.raises(OutOfDomainError, match="n = 1000"):
        count_in_scaling_window(roots, win, 1000)


def test_quadrature_and_monte_carlo_reject_the_same_regions():
    # both read a region's radii from the region: a window reaching past the
    # origin at n = 16 (1 - 40/32 < 0) fails alike, and so does a region
    # neither route knows (Monte Carlo once raised a plain ValueError)
    n = 16
    roots = sample_roots(SampleBatch(n=n, alpha=free_seq(), seed=3, trials=4))
    for region, match in ((ScalingWindow(0.5, 2.5, -40.0, 4.0), "extends past the origin"),
                          (object(), "unsupported region")):
        with pytest.raises(OutOfDomainError, match=match):
            expected_complex_zeros(free_seq(), n, region)
        with pytest.raises(OutOfDomainError, match=match):
            count_in_region(roots, region)


def test_unknown_intensity_route_raises_out_of_domain():
    # like every other bad input, an unknown route raises the library's error,
    # which is still a ValueError
    for route in ("typo", "kernel", None):
        with pytest.raises(OutOfDomainError, match="unknown route"):
            complex_intensity(free_seq(), 16, 0.5 + 0.5j, route=route)
    assert issubclass(OutOfDomainError, ValueError)


def test_unknown_caratheodory_form_raises_out_of_domain():
    with pytest.raises(OutOfDomainError, match="unknown form"):
        caratheodory(free_seq(), 8, 0.5j, form="x")


def test_non_integral_batch_fields_raise_out_of_domain():
    # these were accepted, and sample_roots then raised bare TypeErrors
    for field in ("n", "seed", "trials"):
        kw = dict(n=8, seed=1, trials=2)
        for bad in (kw[field] + 0.5, float(kw[field])):
            kw[field] = bad
            with pytest.raises(OutOfDomainError, match=field):
                SampleBatch(alpha=free_seq(), **kw)
    batch = SampleBatch(n=np.int64(8), alpha=free_seq(), seed=np.int32(1), trials=np.int16(2))
    assert [len(r) for r in sample_roots(batch)] == [7, 7]


def test_counting_no_trials_raises_out_of_domain():
    # an empty roots list has no first row to read the degree from, whatever the region
    win = ScalingWindow(0.5, 2.5, -4.0, 4.0)
    for roots in ([], np.empty((0, 15), complex)):
        for region in (WholePlane(), win, object()):
            with pytest.raises(OutOfDomainError, match="no trials"):
                count_in_region(roots, region)
        with pytest.raises(OutOfDomainError, match="no trials"):
            count_in_scaling_window(roots, win, 16)
