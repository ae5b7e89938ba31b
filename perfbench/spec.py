"""What the benchmark measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this module by
``python3 perfbench/run.py --write-spec``; the self-test checks that the two
agree.
"""

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20
# every run makes at least this many passes, so the determinism checks
# (bit-identical results, byte-identical CLI output) always have a baseline
MIN_PASSES = 2

WORKLOADS = [
    ("real_quad",
     "1-D adaptive quadrature of the real intensity: narrow 48-point Szego "
     "sweeps plus the kernel route near +-1; no Monte Carlo"),
    ("complex_quad",
     "2-D quadrature on 320-point rectangles: kernel_bundle and "
     "reversed_kernel_bundle dominate; conservation and window checks"),
    ("mc_roots",
     "Monte Carlo root sampling (np.roots) and region counting; bypasses "
     "the sweep and the quadrature, so quadrature work must not move it"),
    ("grid_eval",
     "wide one-call intensity sweeps, para_spectrum, the light CLI commands "
     "and the exterior-overflow probe"),
]

# (name, unit, better, bound)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("pass_frac", "frac", "higher", 0.05),
]


def _layer(prefix, fields):
    return [("%s.%s" % (prefix, f), u, b) for f, u, b in fields]


_SWEEP = [("calls", "count", "lower"), ("point_steps", "count", "lower"),
          ("mean_width", "count", "higher"), ("self_s", "s", "lower"),
          ("ns_per_point_step", "ns", "lower")]
_QUAD = [("solves", "count", "lower"), ("integrand_calls", "count", "lower"),
         ("points", "count", "lower"), ("points_per_call", "count", "higher"),
         ("self_s", "s", "lower"), ("budget_exhausted", "count", "lower")]

# (name, unit, better); counts and times are per pass
PER_LAYER = (
    _layer("szego.evaluate", _SWEEP)
    + _layer("kernels.kernel_bundle", _SWEEP)
    + _layer("kernels.reversed_kernel_bundle",
             [f for f in _SWEEP if f[0] != "mean_width"])
    + _layer("intensity.real_grid", [("calls", "count", "lower"),
                                     ("points", "count", "lower"),
                                     ("self_s", "s", "lower")])
    + _layer("intensity.complex_grid", [("calls", "count", "lower"),
                                        ("points", "count", "lower"),
                                        ("self_s", "s", "lower")])
    + [("intensity.nonfinite_points", "count", "lower")]
    + _layer("quad.gl1d", _QUAD)
    + _layer("quad.gl2d", _QUAD)
    + [("quad.err_ratio_max", "ratio", "lower")]
    + [("expectation.%s.s" % f, "s", "lower")
       for f in ("expected_real_zeros", "expected_complex_zeros",
                 "total_complex_zeros", "conservation_check")]
    + [("expectation.ref_err_max", "ratio", "lower")]
    + _layer("montecarlo", [("trials", "count", "lower"),
                            ("ms_per_trial", "ms", "lower"),
                            ("basis_matrix_s", "s", "lower"),
                            ("roots_s", "s", "lower"),
                            ("count_s", "s", "lower"),
                            ("resamples", "count", "lower"),
                            ("ref_z_max", "sigma", "lower")])
    + [("para.para_spectrum.calls", "count", "lower"),
       ("para.para_spectrum.s", "s", "lower"),
       ("ensembles.materialize.s", "s", "lower"),
       ("ensembles.geronimus_alphas.s", "s", "lower"),
       ("cli.main.calls", "count", "lower"),
       ("cli.main.s", "s", "lower"),
       ("cli.main.bytes_written", "B", "lower"),
       ("trace.overhead_frac", "frac", "lower")]
)


def benchmark_json():
    """The content of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
