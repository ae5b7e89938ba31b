import inspect
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs():
    # the README's library example must keep running against the public API
    text = README.read_text()
    tour = text[text.index("## Library quick tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert abs(namespace["val"] - 3.27) < 0.01
    assert namespace["rep"]["target"] == 31


def test_public_api_size():
    # the public API is tracked next to the timings: a change adds a public
    # name on purpose, and updates this count with it
    import opuczeros
    assert len(opuczeros.__all__) == 27
    assert all(hasattr(opuczeros, name) for name in opuczeros.__all__)


def test_public_signatures():
    # each public callable's parameters with their defaults: a new keyword
    # option changes this list on purpose, in review (11 options today)
    import opuczeros
    got = {}
    for name in opuczeros.__all__:
        obj = getattr(opuczeros, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            continue
        got[name] = tuple(p.name if p.default is p.empty else "%s=%r" % (p.name, p.default)
                          for p in inspect.signature(obj).parameters.values())
    assert got == {
        "VerblunskySequence": ("values=None", "generator=None"),
        "evaluate": ("alpha", "n", "z"),
        "real_intensity_grid": ("alpha", "n", "x"),
        "complex_intensity": ("alpha", "n", "z", "route='kernel_form'"),
        "limit_real_density": ("x", "b=None", "db=None"),
        "limit_complex_density": ("z",),
        "scaling_limit_density": ("tau",),
        "growth_log_derivative": ("tau",),
        "AnnularSector": ("theta1", "theta2", "delta"),
        "RealInterval": ("a", "b"),
        "ScalingWindow": ("theta1", "theta2", "tau1", "tau2"),
        "WholePlane": (),
        "WholeRealLine": (),
        "expected_real_zeros": ("alpha", "n", "region=WholeRealLine()", "tol=1e-09"),
        "expected_complex_zeros": ("alpha", "n", "region", "tol=1e-06"),
        "total_complex_zeros": ("alpha", "n", "tol=0.0001"),
        "conservation_check": ("alpha", "n", "tol=0.0001"),
        "para_spectrum": ("alpha", "n"),
        "SampleBatch": ("n", "alpha", "seed", "trials"),
        "sample_roots": ("batch", "threads=None"),
        "count_in_region": ("roots_list", "region"),
        "count_in_scaling_window": ("roots_list", "window", "n"),
    }
