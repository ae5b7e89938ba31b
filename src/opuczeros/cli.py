"""Command-line surface: reproducible experiments emitting CSV/JSON artifacts.

Every output file starts with a header block recording the full resolved
configuration, the library version, and the seed, so each artifact can be
re-run from its own header.  Identical configurations produce byte-identical
files (no timestamps).

Exit codes: 0 success, 2 input error, 3 numerical failure.
"""

import argparse
import json
import sys

import numpy as np

from . import __version__
from .errors import (InvalidCoefficientError, OpuczError, OutOfDomainError,
                     QuadratureError, RootFindingError)
from .ensembles import (geronimus, materialize, moments_from_verblunsky,
                        parse_ensemble, verblunsky_from_moments)
from .expectation import (AnnularSector, RealInterval, ScalingWindow,
                          WholeRealLine, conservation_check,
                          expected_complex_zeros, expected_real_zeros)
from .intensity import (CLOSED_CUTOFF, growth_log_derivative,
                        real_intensity_closed_grid, real_intensity_kernel_grid,
                        scaling_limit_density)
from .montecarlo import SampleBatch, count_in_region, sample_roots
from .para import para_spectrum

EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _parse_number(text, what, kind=int):
    """kind(text), or an input error naming the field that did not parse."""
    try:
        return kind(text)
    except (TypeError, ValueError):
        raise InvalidCoefficientError("%s must be %s, got %r" % (
            what, "an integer" if kind is int else "a number", text)) from None


def _parse_grid(text):
    """Inclusive grid syntax start:end:count."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidCoefficientError("grid syntax is start:end:count")
    start = _parse_number(parts[0], "grid start", float)
    end = _parse_number(parts[1], "grid end", float)
    count = _parse_number(parts[2], "grid count")
    if not np.all(np.isfinite([start, end, end - start])):
        raise InvalidCoefficientError("grid start, end and end - start must be finite")
    if count < 1:
        raise InvalidCoefficientError("grid count must be >= 1")
    return np.linspace(start, end, count)


# numeric fields after the kind: real takes none (whole line) or a:b
_REGION_FIELDS = {"real": (0, 2), "annulus": (3,), "window": (4,)}


def _parse_region(text):
    kind, *fields = text.split(":")
    if kind not in _REGION_FIELDS:
        raise InvalidCoefficientError("unknown region %r" % (text,))
    if len(fields) not in _REGION_FIELDS[kind]:
        raise InvalidCoefficientError(
            "region %r: %s takes %s numeric fields" % (
                text, kind, " or ".join(map(str, _REGION_FIELDS[kind]))))
    vals = [_parse_number(f, "region field", float) for f in fields]
    if kind == "annulus":
        return AnnularSector(*vals)
    if kind == "window":
        return ScalingWindow(*vals)
    return RealInterval(*vals) if vals else WholeRealLine()


def _header_lines(config):
    return ["# opuczeros %s" % __version__,
            "# config: %s" % json.dumps(config, sort_keys=True)]


def _write_csv(path, config, columns, rows):
    lines = _header_lines(config)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join("%.17g" % v if isinstance(v, float) else str(v)
                              for v in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_json(path, config, payload):
    doc = {"version": __version__, "config": config, **payload}
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _read_config(path):
    """The --config file, a flat JSON object."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidCoefficientError("cannot read --config %r: %s"
                                      % (path, exc.strerror)) from None
    except UnicodeDecodeError:
        raise InvalidCoefficientError("--config %r is not UTF-8 text" % path) from None
    if not isinstance(data, dict):
        raise InvalidCoefficientError("--config %r must hold a JSON object" % path)
    return data


def _resolve_flags(args):
    """Fill the flags left unset from --config, then check the required ones.

    Explicit flags override the file.  A file key that names no flag of the
    command is an input error, so a misspelt key is not silently dropped;
    the required flags are checked only here, so the file can supply them.
    """
    if args.config:
        flags = set(vars(args)) - {"command", "func", "needs", "config"}
        for key, value in _read_config(args.config).items():
            attr = key.replace("-", "_")
            if attr not in flags:
                raise InvalidCoefficientError("--config %r: %r is not a flag of %s"
                                              % (args.config, key, args.command))
            # a string or number reads as the text of the flag would
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                raise InvalidCoefficientError("--config %r: %r must be a string or a "
                                              "number" % (args.config, key))
            if getattr(args, attr) is None:
                setattr(args, attr, str(value))
    for attr in args.needs:
        if getattr(args, attr) is None:
            raise InvalidCoefficientError("%s needs --%s, as a flag or in --config"
                                          % (args.command, attr.replace("_", "-")))
    return args


def _cmd_intensity(args):
    spec = parse_ensemble(args.ensemble or "free")
    n = _parse_number(args.n, "--n")
    xs = _parse_grid(args.real_grid)
    alpha = materialize(spec, n)
    rho_kernel = real_intensity_kernel_grid(alpha, n, xs)
    rho_closed = np.full(xs.shape, np.nan)
    ok = np.abs(1.0 - xs * xs) > CLOSED_CUTOFF
    if np.any(ok):
        rho_closed[ok] = real_intensity_closed_grid(alpha, n, xs[ok])
    config = {"command": "intensity", "ensemble": spec.label(), "n": n,
              "real_grid": args.real_grid}
    rows = [(float(x), float(rk), float(rc))
            for x, rk, rc in zip(xs, rho_kernel, rho_closed)]
    _write_csv(args.out, config, ["x", "rho_kernel", "rho_closed"], rows)


def _cmd_expected_zeros(args):
    spec = parse_ensemble(args.ensemble or "free")
    ns = [_parse_number(v, "--n") for v in str(args.n).split(",")]
    region_text = args.region or "real"
    region = _parse_region(region_text)
    tol = (_parse_number(args.tolerance, "--tolerance", float)
           if args.tolerance is not None else 1e-8)
    config = {"command": "expected-zeros", "ensemble": spec.label(),
              "n": args.n, "region": region_text, "tolerance": tol}
    rows = []
    for n in ns:
        alpha = materialize(spec, max(n, 1))
        if isinstance(region, (WholeRealLine, RealInterval)):
            res = expected_real_zeros(alpha, n, region, tol=tol)
        else:
            res = expected_complex_zeros(alpha, n, region, tol=tol)
        rows.append((n, float(res.value), float(res.error),
                     float(res.prediction) if res.prediction is not None else float("nan")))
    _write_csv(args.out, config, ["n", "value", "error", "prediction"], rows)


def _cmd_para_spectrum(args):
    spec = parse_ensemble(args.ensemble or "free")
    n = _parse_number(args.n, "--n")
    alpha = materialize(spec, max(n - 1, 1))
    ps = para_spectrum(alpha, n)
    config = {"command": "para-spectrum", "ensemble": spec.label(), "n": n}
    rows = [(float(z.real), float(z.imag), float(np.angle(z)), float(w))
            for z, w in zip(ps.zeros, ps.weights)]
    _write_csv(args.out, config, ["re", "im", "theta", "weight"], rows)


def _cmd_mc(args):
    spec = parse_ensemble(args.ensemble or "free")
    n = _parse_number(args.n, "--n")
    seed = _parse_number(args.seed, "--seed") if args.seed is not None else 0
    trials = _parse_number(args.trials, "--trials") if args.trials is not None else 1000
    region_text = args.region or "real"
    region = _parse_region(region_text)
    alpha = materialize(spec, n)
    batch = SampleBatch(n=n, alpha=alpha, seed=seed, trials=trials)
    roots = sample_roots(batch)
    report = count_in_region(roots, region)
    config = {"command": "mc", "ensemble": spec.label(), "n": n,
              "seed": seed, "trials": trials, "region": region_text}
    payload = {"region": region_text, "mean_count": report.mean_count,
               "std_error": report.std_error, "trials": report.trials,
               "seed": seed}
    _write_json(args.out, config, payload)
    if args.roots_csv:
        rows = [(t, float(z.real), float(z.imag))
                for t, rs in enumerate(roots) for z in rs]
        _write_csv(args.roots_csv, config, ["trial", "re", "im"], rows)


def _cmd_scaling_limit(args):
    taus = _parse_grid(args.tau_grid)
    config = {"command": "scaling-limit", "tau_grid": args.tau_grid}
    rows = [(float(t), float(growth_log_derivative(t)), float(scaling_limit_density(t)))
            for t in taus]
    _write_csv(args.out, config, ["tau", "h_ratio", "density"], rows)


def _cmd_geronimus_check(args):
    base = parse_ensemble(args.base or "free")
    t = _parse_number(args.t, "--t", float)
    count = _parse_number(args.count, "--count") if args.count is not None else 12
    alpha_rec = materialize(geronimus(base, t), count).array(count)
    base_alpha = materialize(base, count)
    mom_nu = moments_from_verblunsky(base_alpha, count)
    mom_mu = t * mom_nu + (1.0 - t)
    mom_mu[0] = 1.0
    alpha_oracle = verblunsky_from_moments(mom_mu)
    diff = float(np.max(np.abs(alpha_rec - alpha_oracle)))
    config = {"command": "geronimus-check", "base": base.label(), "t": t,
              "count": count}
    _write_json(args.out, config, {
        "alphas_update": [float(v) for v in alpha_rec],
        "alphas_moment_oracle": [float(v) for v in alpha_oracle],
        "max_abs_difference": diff,
    })


def _cmd_conservation_check(args):
    spec = parse_ensemble(args.ensemble or "free")
    n = _parse_number(args.n, "--n")
    tol = (_parse_number(args.tolerance, "--tolerance", float)
           if args.tolerance is not None else 1e-4)
    alpha = materialize(spec, n)
    result = conservation_check(alpha, n, tol=tol)
    config = {"command": "conservation-check", "ensemble": spec.label(),
              "n": n, "tolerance": tol}
    _write_json(args.out, config, result)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="opuczeros",
        description="Zero densities of random polynomials in the OPUC basis")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ensemble=True):
        if ensemble:
            p.add_argument("--ensemble", help="defaults to free")
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output path (stdout when omitted)")

    p = sub.add_parser("intensity", help="real intensity on a grid (CSV)")
    common(p)
    p.add_argument("--n")
    p.add_argument("--real-grid", help="start:end:count")
    p.set_defaults(func=_cmd_intensity, needs=("n", "real_grid"))

    p = sub.add_parser("expected-zeros", help="quadrature zero counts (CSV)")
    common(p)
    p.add_argument("--n", help="degree or comma list")
    p.add_argument("--region")
    p.add_argument("--tolerance")
    p.set_defaults(func=_cmd_expected_zeros, needs=("n",))

    p = sub.add_parser("para-spectrum", help="paraorthogonal zeros/weights (CSV)")
    common(p)
    p.add_argument("--n")
    p.set_defaults(func=_cmd_para_spectrum, needs=("n",))

    p = sub.add_parser("mc", help="Monte Carlo zero counts (JSON)")
    common(p)
    p.add_argument("--n")
    p.add_argument("--trials")
    p.add_argument("--seed")
    p.add_argument("--region")
    p.add_argument("--roots-csv", help="optional per-root CSV dump")
    p.set_defaults(func=_cmd_mc, needs=("n",))

    p = sub.add_parser("scaling-limit", help="near-circle limit density (CSV)")
    common(p, ensemble=False)
    p.add_argument("--tau-grid", help="start:end:count")
    p.set_defaults(func=_cmd_scaling_limit, needs=("tau_grid",))

    p = sub.add_parser("geronimus-check", help="point-mass update vs moment oracle (JSON)")
    common(p, ensemble=False)
    p.add_argument("--base")
    p.add_argument("--t")
    p.add_argument("--count")
    p.set_defaults(func=_cmd_geronimus_check, needs=("t",))

    p = sub.add_parser("conservation-check", help="real+complex count vs n-1 (JSON)")
    common(p)
    p.add_argument("--n")
    p.add_argument("--tolerance")
    p.set_defaults(func=_cmd_conservation_check, needs=("n",))

    return parser


_parser = None


def main(argv=None):
    global _parser
    if _parser is None:  # built once, on the first call, and reused
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        args = _resolve_flags(args)
        args.func(args)
    # MemoryError: a degree too large for an array of its length
    except (InvalidCoefficientError, OutOfDomainError, FileNotFoundError,
            json.JSONDecodeError, MemoryError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except (QuadratureError, RootFindingError, OpuczError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC
    return 0


if __name__ == "__main__":
    sys.exit(main())
