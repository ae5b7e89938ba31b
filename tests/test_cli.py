import json
import math

import numpy as np

from opuczeros.cli import main


def read_csv(path):
    header = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    while lines and lines[0].startswith("#"):
        header.append(lines.pop(0))
    cols = lines.pop(0).split(",")
    rows = [line.split(",") for line in lines]
    return header, cols, rows


def test_intensity_csv_columns_and_values(tmp_path):
    out = tmp_path / "rho.csv"
    rc = main(["intensity", "--n", "8", "--real-grid=-0.9:0.9:7",
               "--out", str(out)])
    assert rc == 0
    header, cols, rows = read_csv(out)
    assert header[0].startswith("# opuczeros")
    assert header[1].startswith("# config:")
    assert cols == ["x", "rho_kernel", "rho_closed"]
    assert len(rows) == 7
    for row in rows:
        assert abs(float(row[1]) - float(row[2])) < 1e-8


def test_reruns_are_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["intensity", "--ensemble", "power_decay:0.3:2", "--n", "16",
            "--real-grid=-2:2:21"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_expected_zeros_degree_one(tmp_path):
    out = tmp_path / "ez.csv"
    rc = main(["expected-zeros", "--n", "2", "--out", str(out)])
    assert rc == 0
    _, cols, rows = read_csv(out)
    assert cols == ["n", "value", "error", "prediction"]
    assert rows[0][0] == "2"
    assert abs(float(rows[0][1]) - 1.0) < 1e-9


def test_expected_zeros_comma_list_and_region(tmp_path):
    out = tmp_path / "ez2.csv"
    rc = main(["expected-zeros", "--n", "4,8", "--region", "real:-0.5:0.5",
               "--tolerance", "1e-9", "--out", str(out)])
    assert rc == 0
    _, _, rows = read_csv(out)
    assert [r[0] for r in rows] == ["4", "8"]
    assert float(rows[0][1]) < float(rows[1][1])


def test_para_spectrum_weights_sum_to_one(tmp_path):
    out = tmp_path / "ps.csv"
    rc = main(["para-spectrum", "--ensemble", "power_decay:0.3:2",
               "--n", "9", "--out", str(out)])
    assert rc == 0
    _, cols, rows = read_csv(out)
    assert cols == ["re", "im", "theta", "weight"]
    assert len(rows) == 9
    total = math.fsum(float(r[3]) for r in rows)
    assert abs(total - 1.0) < 1e-12
    for r in rows:
        assert abs(math.hypot(float(r[0]), float(r[1])) - 1.0) < 1e-10


def test_mc_json_and_roots_csv(tmp_path):
    out = tmp_path / "mc.json"
    roots = tmp_path / "roots.csv"
    rc = main(["mc", "--n", "6", "--trials", "40", "--seed", "5",
               "--region", "real", "--out", str(out),
               "--roots-csv", str(roots)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["trials"] == 40
    assert doc["seed"] == 5
    assert 0.0 < doc["mean_count"] < 5.0
    _, cols, rows = read_csv(roots)
    assert cols == ["trial", "re", "im"]
    assert len(rows) == 40 * 5


def test_gapped_para_spectrum_runs(tmp_path):
    # exited 3 when the zeros came from np.roots on the monomial expansion
    out = tmp_path / "ps.csv"
    assert main(["para-spectrum", "--ensemble", "constant:0.5", "--n", "128",
                 "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert len(rows) == 128
    assert abs(math.fsum(float(r[3]) for r in rows) - 1.0) <= 1e-12


def _header_config(path):
    text = path.read_text()
    if text.startswith("{"):
        return json.loads(text)["config"]
    line = next(ln for ln in text.splitlines() if ln.startswith("# config: "))
    return json.loads(line[len("# config: "):])


def test_artifacts_rerun_from_their_own_header(tmp_path):
    cases = [["intensity", "--ensemble", "geronimus:free:0.5", "--n", "8",
              "--real-grid=-0.9:0.9:5"],
             ["para-spectrum", "--ensemble", "explicit:0.1,0.2,0.3", "--n", "4"],
             ["mc", "--ensemble", "geronimus:explicit:0.1,-0.2,0.3,0.05,0.2:0.5",
              "--n", "5", "--trials", "20", "--seed", "3",
              "--region", "window:0.5:2.5:-4:4"],
             ["expected-zeros", "--ensemble", "explicit:0.1,0.2,0.3,0.4", "--n", "4",
              "--region", "annulus:0.3:2:0.4", "--tolerance", "1e-6"]]
    for i, argv in enumerate(cases):
        first, again, cfg = (tmp_path / ("%s%d" % (name, i)) for name in ("a", "b", "cfg"))
        assert main(argv + ["--out", str(first)]) == 0, argv
        config = _header_config(first)
        assert config.pop("command") == argv[0]
        cfg.write_text(json.dumps(config))
        assert main([argv[0], "--config", str(cfg), "--out", str(again)]) == 0, config
        assert again.read_bytes() == first.read_bytes(), argv


def test_arc_longer_than_the_circle_is_input_error(capsys):
    # Monte Carlo once counted 11.84 zeros in this sector and exited 0
    for argv in (["mc", "--n", "8", "--trials", "10", "--region", "annulus:0:7:0.5"],
                 ["expected-zeros", "--n", "8", "--region", "annulus:0:7:0.5"],
                 ["mc", "--n", "8", "--trials", "10", "--region", "window:0:7:-1:1"],
                 ["expected-zeros", "--n", "8", "--region", "window:0:7:-1:1"]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1, (argv, err)
        assert "theta2 <= theta1 + 2 pi" in err, err


def test_mc_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["mc", "--n", "8", "--trials", "25", "--seed", "42"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scaling_limit_density_at_zero(tmp_path):
    out = tmp_path / "sl.csv"
    rc = main(["scaling-limit", "--tau-grid=-1:1:5", "--out", str(out)])
    assert rc == 0
    _, cols, rows = read_csv(out)
    assert cols == ["tau", "h_ratio", "density"]
    mid = rows[2]
    assert float(mid[0]) == 0.0
    assert abs(float(mid[2]) - 1.0 / (24.0 * math.pi)) < 1e-12


def test_scaling_limit_at_huge_tau(tmp_path):
    # math.sinh overflows past |tau| = 1421; this grid once ended in a traceback
    out = tmp_path / "scaling.csv"
    assert main(["scaling-limit", "--tau-grid=0:1e300:3", "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert [float(r[2]) for r in rows[1:]] == [0.0, 0.0]


def test_geronimus_check(tmp_path):
    out = tmp_path / "g.json"
    rc = main(["geronimus-check", "--base", "free", "--t", "0.5",
               "--count", "12", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["max_abs_difference"] < 1e-8
    expect = [1.0 / (k + 2) for k in range(12)]
    assert np.allclose(doc["alphas_update"], expect, atol=1e-12)


def test_conservation_check(tmp_path):
    out = tmp_path / "c.json"
    rc = main(["conservation-check", "--ensemble", "power_decay:0.3:2",
               "--n", "16", "--tolerance", "1e-5", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["target"] == 15
    assert abs(doc["total"] - 15.0) < 1e-8
    assert 0.0 < doc["real_error"] < 1e-5 and 0.0 < doc["complex_error"] < 1e-5


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ensemble": "constant:0.4", "n": 8,
                               "real_grid": "-0.5:0.5:3"}))
    out = tmp_path / "o.csv"
    rc = main(["intensity", "--n", "8", "--real-grid=-0.5:0.5:3",
               "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    _, _, rows = read_csv(out)
    direct = tmp_path / "d.csv"
    main(["intensity", "--ensemble", "constant:0.4", "--n", "8",
          "--real-grid=-0.5:0.5:3", "--out", str(direct)])
    _, _, rows2 = read_csv(direct)
    assert [r[1] for r in rows] == [r[1] for r in rows2]


def test_input_error_exit_code(capsys):
    cases = [
        ["intensity", "--ensemble", "nonsense", "--n", "8", "--real-grid=-1:1:5"],
        ["intensity", "--n", "8", "--real-grid", "badgrid"],
        ["expected-zeros", "--n", "4", "--region", "mystery"],
        ["expected-zeros", "--n", "0"],
        ["expected-zeros", "--n", "-3"],
        ["expected-zeros", "--n", "abc"],
        ["expected-zeros", "--n", "4", "--region", "annulus:0:1"],
        ["expected-zeros", "--n", "4", "--region", "real:0"],
        ["mc", "--n", "1"],
        ["mc", "--n", "8", "--trials", "0"],
        ["mc", "--n", "8", "--trials", "x"],
        # the window's inner radius 1 + tau1/2n is below 0 at n = 16
        ["mc", "--n", "16", "--trials", "50", "--region", "window:0.5:2.5:-40:4"],
        ["expected-zeros", "--n", "16", "--region", "window:0.5:2.5:-40:4"],
        # an infinite window end once crashed the contour count with a traceback
        ["expected-zeros", "--n", "16", "--region", "window:0.5:1:-1:inf"],
        ["mc", "--n", "16", "--trials", "50", "--region", "window:0.5:1:-inf:1"],
        ["scaling-limit", "--tau-grid", "0:1:x"],
        # non-finite grid ends once wrote nan rows with exit 0, and a span
        # end - start that overflows printed numpy warnings first
        ["scaling-limit", "--tau-grid=nan:1:3"],
        ["scaling-limit", "--tau-grid=-inf:1:3"],
        ["scaling-limit", "--tau-grid=0:inf:3"],
        ["intensity", "--n", "8", "--real-grid=-1e308:1e308:3"],
    ]
    for command in ("expected-zeros", "conservation-check"):
        cases += [[command, "--n", "4", "--tolerance", tol]
                  for tol in ("x", "0", "-1", "nan", "inf")]
    for argv in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1, (argv, err)


def test_degree_too_large_to_allocate_is_input_error(capsys):
    # 10^13 coefficients are 80 TB: numpy refuses the array outright, so
    # nothing is allocated, and the MemoryError is reported in one line
    assert main(["expected-zeros", "--n", str(10 ** 13)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1, err


def test_tolerance_from_config_file_is_checked(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerance": "x"}))
    for command in ("expected-zeros", "conservation-check"):
        assert main([command, "--n", "4", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1, err


def test_config_values_parse_as_flag_text(tmp_path, capsys):
    # numbers read as the flag's text; arrays, objects, booleans and null are
    # rejected by key instead of reaching a parser as the wrong type
    cases = [("expected-zeros", {"region": 5}, "unknown region '5'"),
             ("intensity", {"ensemble": 5}, "unknown ensemble '5'"),
             ("expected-zeros", {"region": ["real"]}, "'region'"),
             ("intensity", {"ensemble": {"a": 1}}, "'ensemble'"),
             ("expected-zeros", {"tolerance": True}, "'tolerance'"),
             ("expected-zeros", {"region": None}, "'region'")]
    for i, (command, data, message) in enumerate(cases):
        cfg = tmp_path / ("cfg%d.json" % i)
        cfg.write_text(json.dumps(data))
        grid = ["--real-grid=-1:1:3"] if command == "intensity" else []
        assert main([command, "--n", "4", "--config", str(cfg)] + grid) == 2, data
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1, (data, err)
        assert message in err, (data, err)
    cfg = tmp_path / "numbers.json"
    cfg.write_text(json.dumps({"n": 8, "trials": 5, "seed": 3}))
    assert main(["mc", "--n", "8", "--config", str(cfg),
                 "--out", str(tmp_path / "a.json")]) == 0
    assert main(["mc", "--n", "8", "--trials", "5", "--seed", "3",
                 "--out", str(tmp_path / "b.json")]) == 0
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()


def test_config_key_that_names_no_flag_is_input_error(tmp_path, capsys):
    # a misspelt key once left the default tolerance 1e-4 in force, exit 0
    cfg = tmp_path / "cfg.json"
    for data, command in [({"tolerence": "x"}, "conservation-check"),
                          ({"trials": 5}, "conservation-check"),
                          ({"config": "other.json"}, "conservation-check")]:
        cfg.write_text(json.dumps(data))
        assert main([command, "--n", "8", "--config", str(cfg)]) == 2, data
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1, (data, err)
        assert repr(next(iter(data))) in err and command in err, err


def test_config_file_supplies_required_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 16}))
    assert main(["conservation-check", "--config", str(cfg),
                 "--out", str(tmp_path / "a.json")]) == 0
    assert main(["conservation-check", "--n", "16",
                 "--out", str(tmp_path / "b.json")]) == 0
    a = json.loads((tmp_path / "a.json").read_text())
    assert a == json.loads((tmp_path / "b.json").read_text())
    for data, command in [({"t": 0.5}, "geronimus-check"),
                          ({"tau-grid": "0:1:2"}, "scaling-limit"),
                          ({"n": 4, "real_grid": "-1:1:3"}, "intensity")]:
        cfg.write_text(json.dumps(data))
        assert main([command, "--config", str(cfg)]) == 0, data
    capsys.readouterr()


def test_required_flag_missing_from_flags_and_file_is_input_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ensemble": "free"}))
    cases = [(["conservation-check"], "--n"),
             (["conservation-check", "--config", str(cfg)], "--n"),
             (["intensity", "--n", "4", "--config", str(cfg)], "--real-grid"),
             (["scaling-limit"], "--tau-grid"),
             (["geronimus-check"], "--t")]
    for argv, flag in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1, (argv, err)
        assert "needs %s," % flag in err, (argv, err)


def test_missing_config_file_is_input_error(tmp_path, capsys):
    rc = main(["intensity", "--n", "4", "--real-grid=-1:1:3",
               "--config", str(tmp_path / "absent.json")])
    assert rc == 2
    capsys.readouterr()


def test_bad_seed_and_config_files_are_input_errors(tmp_path, capsys):
    array_cfg = tmp_path / "array.json"
    array_cfg.write_text(json.dumps([{"n": 8}]))
    binary_cfg = tmp_path / "binary.json"
    binary_cfg.write_bytes(b"\xff\xfe{")
    grid = ["intensity", "--n", "4", "--real-grid=-1:1:3", "--config"]
    cases = [["mc", "--n", "8", "--trials", "4", "--seed", "-1"],
             grid + [str(array_cfg)],
             grid + [str(tmp_path)],
             grid + [str(binary_cfg)]]
    for argv in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1, (argv, err)


def test_numerical_failure_exit_code(capsys):
    # an impossible quadrature budget surfaces as a numerical failure
    rc = main(["expected-zeros", "--n", "2", "--tolerance", "1e-18"])
    assert rc == 3
    capsys.readouterr()


def test_stdout_when_no_out(capsys):
    rc = main(["scaling-limit", "--tau-grid", "0:1:2"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert captured.startswith("# opuczeros")
