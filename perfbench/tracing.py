"""Outside-in tracing of opuczeros: spans around the public call of each layer.

``Tracer.install()`` replaces each traced function by a wrapper in every
``opuczeros`` module that holds it, i.e. where callers look the name up
(``opuczeros.intensity.evaluate``, ``opuczeros.expectation.adaptive_gl``, ...).
``np.roots`` is traced only as ``opuczeros.montecarlo`` sees it, through a
proxy for that module's ``np``.  Spans (name, start, end, parent) stay in
memory; ``write`` saves them when the run ends and ``layer_metrics`` turns
them into the per-layer numbers named in ``spec.PER_LAYER``.
"""

import inspect
import json
import logging
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

from opuczeros import cli, ensembles, expectation, intensity, kernels, montecarlo, para
from opuczeros import _quad, szego
from opuczeros.errors import QuadratureError


class _NumpyProxy:
    """numpy as montecarlo sees it, with ``roots`` replaced."""

    def __init__(self, roots):
        self.roots = roots

    def __getattr__(self, name):
        return getattr(np, name)


def _width(args, index):
    return int(np.size(args[index])) if len(args) > index else 1


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        self._log_handler = None

    # ------------------------------------------------------------ spans

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, group, fn, args, kwargs, before=None, after=None):
        stack = self._stack()
        # a layer that calls itself (materialize, the real-grid dispatch,
        # conservation_check -> expected_real_zeros) is one span
        if stack and stack[-1][1] == group:
            return fn(*args, **kwargs)
        with self._lock:
            index = len(self.spans)
            parent = stack[-1][0] if stack else -1
            self.spans.append([name, 0.0, 0.0, parent])
        stack.append((index, group))
        if before is not None:
            args, kwargs = before(args, kwargs)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except QuadratureError as exc:
            if "panel budget" in str(exc):
                self.count(name + ".budget_exhausted")
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index][1] = start
            self.spans[index][2] = end
        if after is not None:
            after(args, kwargs, result)
        return result

    def count(self, key, value=1.0):
        with self._lock:
            self.counts[key] += value

    def maximum(self, key, value):
        with self._lock:
            self.maxima[key] = max(self.maxima[key], float(value))

    # ------------------------------------------------------------ patching

    def _patch_everywhere(self, original, wrapper):
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "opuczeros"
                                      or modname.startswith("opuczeros.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _trace(self, module, attr, name, group=None, before=None, after=None):
        original = getattr(module, attr)
        group = group or name

        def wrapper(*args, **kwargs):
            return self.span(name, group, original, args, kwargs, before, after)

        wrapper.__wrapped__ = original
        self._patch_everywhere(original, wrapper)

    def install(self):
        def sweep(name):
            def after(args, kwargs, result):
                width = _width(args, 2)
                self.count(name + ".calls")
                self.count(name + ".points", width)
                self.count(name + ".point_steps", width * int(args[1]))
            return after

        self._trace(szego, "evaluate", "szego.evaluate", after=sweep("szego.evaluate"))
        for attr in ("kernel_bundle", "reversed_kernel_bundle"):
            name = "kernels." + attr
            self._trace(kernels, attr, name, after=sweep(name))

        def grid(name):
            def after(args, kwargs, result):
                self.count(name + ".calls")
                self.count(name + ".points", _width(args, 2))
                bad = np.count_nonzero(~np.isfinite(np.asarray(result)))
                self.count("intensity.nonfinite_points", bad)
            return after

        for attr in ("real_intensity_grid", "real_intensity_closed_grid",
                     "real_intensity_kernel_grid"):
            self._trace(intensity, attr, "intensity.real_grid",
                        after=grid("intensity.real_grid"))
        for attr in ("complex_intensity_grid", "complex_intensity_reversed_grid"):
            self._trace(intensity, attr, "intensity.complex_grid",
                        after=grid("intensity.complex_grid"))

        for attr, name in (("adaptive_gl", "quad.gl1d"), ("adaptive_gl_2d", "quad.gl2d")):
            self._trace_quad(attr, name)

        for attr in ("expected_real_zeros", "expected_complex_zeros",
                     "total_complex_zeros", "conservation_check"):
            self._trace(expectation, attr, "expectation." + attr, group="expectation")

        def batch(args, kwargs, result):
            self.count("montecarlo.trials", args[0].trials)

        self._trace(montecarlo, "sample_roots", "montecarlo.sample_roots", after=batch)
        self._trace(montecarlo, "basis_matrix", "montecarlo.basis_matrix")
        for attr in ("count_in_region", "count_in_scaling_window"):
            self._trace(montecarlo, attr, "montecarlo.count")
        roots = np.roots

        def traced_roots(*args, **kwargs):
            return self.span("montecarlo.roots", "montecarlo.roots", roots, args, kwargs)

        self._patches.append((montecarlo, "np", montecarlo.np))
        montecarlo.np = _NumpyProxy(traced_roots)

        self._trace(para, "para_spectrum", "para.para_spectrum",
                    after=lambda a, k, r: self.count("para.para_spectrum.calls"))
        self._trace(ensembles, "materialize", "ensembles.materialize")
        self._trace(ensembles, "geronimus_alphas", "ensembles.geronimus_alphas")

        def cli_after(args, kwargs, result):
            argv = list(args[0]) if args else list(kwargs.get("argv") or [])
            self.count("cli.main.calls")
            if "--out" in argv:
                path = argv[argv.index("--out") + 1]
                if os.path.exists(path):
                    self.count("cli.main.bytes_written", os.path.getsize(path))

        self._trace(cli, "main", "cli.main", after=cli_after)

        tracer = self

        class _Resamples(logging.Handler):
            def emit(self, record):
                if "resampling" in record.getMessage():
                    tracer.count("montecarlo.resamples")

        self._log_handler = _Resamples()
        montecarlo.log.addHandler(self._log_handler)

    def _trace_quad(self, attr, name):
        signature = inspect.signature(getattr(_quad, attr))

        def before(args, kwargs):
            f = args[0]

            def integrand(*xs):
                self.count(name + ".integrand_calls")
                self.count(name + ".points", np.size(xs[0]))
                return f(*xs)

            return (integrand,) + tuple(args[1:]), kwargs

        def after(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            tol = bound.arguments["tol"]
            value, err = result
            self.count(name + ".solves")
            self.maximum("quad.err_ratio_max", err / (tol * max(abs(value), 1.0)))

        self._trace(_quad, attr, name, before=before, after=after)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []
        if self._log_handler is not None:
            montecarlo.log.removeHandler(self._log_handler)
            self._log_handler = None

    # ------------------------------------------------------------ results

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)

    def times(self):
        """Inclusive and self seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive = defaultdict(float)
        own = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            inclusive[name] += end - start
            own[name] += end - start - child[i]
        return inclusive, own

    def layer_metrics(self, passes, names):
        """Per-pass values for every per-layer metric name in ``names``."""
        inclusive, own = self.times()
        c = {k: v / passes for k, v in self.counts.items()}
        out = dict.fromkeys(names, 0.0)

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        for layer in ("szego.evaluate", "kernels.kernel_bundle",
                      "kernels.reversed_kernel_bundle"):
            self_s = own[layer] / passes
            out[layer + ".calls"] = c.get(layer + ".calls", 0.0)
            out[layer + ".point_steps"] = c.get(layer + ".point_steps", 0.0)
            out[layer + ".mean_width"] = per(c.get(layer + ".points", 0.0),
                                             c.get(layer + ".calls", 0.0))
            out[layer + ".self_s"] = self_s
            out[layer + ".ns_per_point_step"] = per(self_s,
                                                    c.get(layer + ".point_steps", 0.0),
                                                    1e9)
        for layer in ("intensity.real_grid", "intensity.complex_grid"):
            out[layer + ".calls"] = c.get(layer + ".calls", 0.0)
            out[layer + ".points"] = c.get(layer + ".points", 0.0)
            out[layer + ".self_s"] = own[layer] / passes
        out["intensity.nonfinite_points"] = c.get("intensity.nonfinite_points", 0.0)
        for layer in ("quad.gl1d", "quad.gl2d"):
            for field in ("solves", "integrand_calls", "points", "budget_exhausted"):
                out[layer + "." + field] = c.get(layer + "." + field, 0.0)
            out[layer + ".points_per_call"] = per(c.get(layer + ".points", 0.0),
                                                  c.get(layer + ".integrand_calls", 0.0))
            out[layer + ".self_s"] = own[layer] / passes
        out["quad.err_ratio_max"] = self.maxima.get("quad.err_ratio_max", 0.0)
        for attr in ("expected_real_zeros", "expected_complex_zeros",
                     "total_complex_zeros", "conservation_check"):
            out["expectation.%s.s" % attr] = inclusive["expectation." + attr] / passes
        trials = c.get("montecarlo.trials", 0.0)
        out["montecarlo.trials"] = trials
        out["montecarlo.ms_per_trial"] = per(inclusive["montecarlo.sample_roots"] / passes,
                                             trials, 1e3)
        out["montecarlo.basis_matrix_s"] = inclusive["montecarlo.basis_matrix"] / passes
        out["montecarlo.roots_s"] = inclusive["montecarlo.roots"] / passes
        out["montecarlo.count_s"] = inclusive["montecarlo.count"] / passes
        out["montecarlo.resamples"] = c.get("montecarlo.resamples", 0.0)
        out["para.para_spectrum.calls"] = c.get("para.para_spectrum.calls", 0.0)
        out["para.para_spectrum.s"] = inclusive["para.para_spectrum"] / passes
        out["ensembles.materialize.s"] = inclusive["ensembles.materialize"] / passes
        out["ensembles.geronimus_alphas.s"] = \
            inclusive["ensembles.geronimus_alphas"] / passes
        out["cli.main.calls"] = c.get("cli.main.calls", 0.0)
        out["cli.main.s"] = inclusive["cli.main"] / passes
        out["cli.main.bytes_written"] = c.get("cli.main.bytes_written", 0.0)
        return out
