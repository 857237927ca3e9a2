import contextlib
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracharm import cli
from fracharm.cli import ConfigError, main, parse_config
from fracharm.commutators import CATALOG, _range_ends
from grid_helpers import mention_sites


def _write_config(path, **kwargs):
    data = {
        "grid": {"n": 1, "N": 64, "L": 1.0},
        "t_levels": {"M": 16},
        "estimates": [{"id": "crw-bmo"}],
    }
    data.update(kwargs)
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="config root"):
        parse_config({"grid": {}, "estimates": [], "mystery": 1})
    with pytest.raises(ConfigError, match="grid"):
        parse_config({"grid": {"n": 1, "spacing": 0.1}, "estimates": []})
    with pytest.raises(ConfigError, match=r"estimates\[0\]"):
        parse_config({"estimates": [{"id": "crw-bmo", "extra": 1}]})
    with pytest.raises(ConfigError, match="missing 'id'"):
        parse_config({"estimates": [{"params": {}}]})
    with pytest.raises(ConfigError, match="unknown estimate id"):
        parse_config({"estimates": [{"id": "nope"}]})


def test_parse_config_defaults_and_overrides():
    cfg = parse_config({"estimates": [{"id": "crw-bmo", "params": {"p": 3.0}}]},
                       overrides={"grid_N": 128, "out": "elsewhere"})
    assert cfg.grid.N == 128
    assert cfg.out == "elsewhere"
    assert cfg.estimates[0].params["p"] == 3.0


def test_falsy_overrides_are_kept(tmp_path, monkeypatch):
    cfg = parse_config({"seed": 5, "tolerance_scale": 2.0, "estimates": []},
                       overrides={"seed": 0, "tolerance_scale": 0.0})
    assert cfg.seed == 0
    assert cfg.tolerance_scale == 0.0
    with pytest.raises(ConfigError, match="out"):
        parse_config({"estimates": []}, overrides={"out": ""})
    seeds = []
    real_family = cli.standard_family

    def recording_family(arity, spec, n_members, seed):
        seeds.append(seed)
        return real_family(arity, spec, n_members, seed)

    monkeypatch.setattr(cli, "standard_family", recording_family)
    path = _write_config(tmp_path / "cfg.json", seed=5,
                         out=str(tmp_path / "reports"))
    assert main(["run", path, "--seed", "0"]) == 0
    assert seeds == [0]


def test_invalid_tolerance_scale_is_a_config_error(tmp_path, capsys):
    for scale in (-1.0, float("nan"), float("inf"), "abc"):
        with pytest.raises(ConfigError, match="tolerance_scale"):
            parse_config({"estimates": [], "tolerance_scale": scale})
    path = _write_config(tmp_path / "cfg.json", out=str(tmp_path / "reports"))
    for arg in ("-1", "nan", "inf"):
        assert main(["run", path, "--tolerance-scale", arg]) == 2
        assert "tolerance_scale" in capsys.readouterr().err
    assert not (tmp_path / "reports").exists()


def _assert_config_error(path, tmp_path, capsys, *flags):
    reports = tmp_path / "reports"
    assert main(["run", str(path), "--out", str(reports), *flags]) == 2
    assert "config error" in capsys.readouterr().err
    assert not reports.exists()


def test_non_numeric_config_values_exit_two(tmp_path, capsys):
    # a fractional or boolean count is refused, not truncated
    for section, key, value in (("grid", "N", "abc"), ("t_levels", "M", "abc"),
                                ("grid", "N", 64.9), ("grid", "n", True),
                                ("t_levels", "M", 16.5), (None, "seed", 64.9),
                                (None, "seed", True)):
        path = tmp_path / f"{section}-{key}.json"
        _write_config(path)
        data = json.loads(path.read_text())
        (data[section] if section else data)[key] = value
        path.write_text(json.dumps(data))
        _assert_config_error(path, tmp_path, capsys)
    for key in ("seed", "grid_N", "t_levels_M"):
        with pytest.raises(ConfigError, match="expected an integer"):
            parse_config({"estimates": []}, overrides={key: 64.5})
    # integral floats stay accepted
    cfg = parse_config({"grid": {"N": 64.0}, "t_levels": {"M": 16.0},
                        "seed": 7.0, "estimates": []})
    assert (cfg.grid.N, cfg.levels.M, cfg.seed) == (64, 16, 7)
    with pytest.raises(ConfigError, match="grid.N"):
        parse_config({"grid": {"N": "abc"}, "estimates": []})
    with pytest.raises(ConfigError, match="t_levels.t_min"):
        parse_config({"t_levels": {"t_min": "abc"}, "estimates": []})
    with pytest.raises(ConfigError, match="grid must be a JSON object"):
        parse_config({"grid": 3, "estimates": []})
    # test functions draw from numpy generators, which reject negative seeds
    with pytest.raises(ConfigError, match="seed"):
        parse_config({"estimates": []}, overrides={"seed": -1})


@pytest.mark.parametrize("key,value", [
    ("grid.n", "1"), ("grid.N", "64"), ("grid.L", "1.5"),
    ("t_levels.t_min", "0.01"), ("t_levels.t_max", "1.0"),
    ("t_levels.M", "16"), ("seed", "7"), ("tolerance_scale", "1.5")])
def test_numeric_strings_exit_two(tmp_path, capsys, key, value):
    # a JSON string is not a number, even one that int() or float() reads
    path = tmp_path / "cfg.json"
    _write_config(path)
    data = json.loads(path.read_text())
    *section, name = key.split(".")
    (data[section[0]] if section else data)[name] = value
    path.write_text(json.dumps(data))
    assert main(["run", str(path), "--out", str(tmp_path / "reports")]) == 2
    _assert_one_config_error_line(
        capsys, f"{key}: expected a number, got {value!r}")
    assert not (tmp_path / "reports").exists()


def test_estimate_params_must_be_an_object(tmp_path, capsys):
    # a list of pairs would otherwise pass through dict()
    for params in ([], [["p", 3.0]]):
        with pytest.raises(ConfigError, match=r"estimates\[0\]: params must "
                           "be a JSON object"):
            parse_config({"estimates": [{"id": "crw-bmo", "params": params}]})
        path = _write_config(tmp_path / "cfg.json",
                             estimates=[{"id": "crw-bmo", "params": params}])
        assert main(["run", path, "--out", str(tmp_path / "reports")]) == 2
        _assert_one_config_error_line(capsys, "params")
    assert not (tmp_path / "reports").exists()


def test_run_config_fields_have_no_defaults():
    # parse_config sets every field, and nothing else builds a RunConfig
    assert all(f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING
               for f in dataclasses.fields(cli.RunConfig))


def test_too_few_t_levels_exit_two(tmp_path, capsys):
    path = _write_config(tmp_path / "cfg.json", t_levels={"M": 8})
    _assert_config_error(path, tmp_path, capsys)
    with pytest.raises(ConfigError, match="M >= 16"):
        parse_config({"estimates": []}, overrides={"t_levels_M": 15})


def test_non_positive_t_max_exits_two_with_one_line(tmp_path):
    # a subprocess, so that a numpy warning would reach stderr too
    import os
    import subprocess
    import sys

    import fracharm
    src = os.path.dirname(os.path.dirname(fracharm.__file__))
    path = _write_config(tmp_path / "cfg.json",
                         t_levels={"M": 16, "t_max": -1.0})
    out = subprocess.run(
        [sys.executable, "-m", "fracharm.cli", "run", path, "--out",
         str(tmp_path / "reports")], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 2
    assert out.stderr.startswith("config error: ")
    assert out.stderr.count("\n") == 1
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("grid,estimate", [
    ({"n": 1, "N": 64, "L": 4e-152},
     {"id": "hardy-duality", "params": {"s": 1}}),
    ({"n": 2, "N": 64, "L": 3e-153}, {"id": "leibniz-lorentz"})])
def test_numerical_failure_at_an_extreme_period_exits_three(tmp_path, grid,
                                                             estimate):
    # admitted periods whose estimate cannot be evaluated: a sampled
    # function, or a symbol, overflows to a non-finite value, which raises a
    # ValueError inside the estimate.  A subprocess, so that a numpy warning
    # would reach stderr too; such warnings may come before the error line.
    import os
    import subprocess
    import sys

    import fracharm
    src = os.path.dirname(os.path.dirname(fracharm.__file__))
    path = _write_config(tmp_path / "cfg.json", grid=grid,
                         estimates=[estimate], out=str(tmp_path / "reports"))
    out = subprocess.run(
        [sys.executable, "-m", "fracharm.cli", "run", path],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 3
    assert "Traceback" not in out.stderr
    last = out.stderr.splitlines()[-1]
    assert last.startswith(f"numerical error in estimate {estimate['id']}: ")


@pytest.mark.parametrize("error", [ArithmeticError, ValueError, MemoryError])
@pytest.mark.parametrize("target,argv,stage", [
    ("verify_estimate", ["run"], "estimate crw-bmo"),
    ("_write_profiles", ["run"], "diagnostics"),
    ("_identity_checks", ["ops-check", "--grid-N", "64"], "ops-check")])
def test_every_numerical_failure_exits_three_with_one_line(
        tmp_path, capsys, monkeypatch, error, target, argv, stage):
    def failing(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(cli, target, failing)
    if argv == ["run"]:
        argv = ["run", _write_config(tmp_path / "cfg.json",
                                     out=str(tmp_path / "reports"))]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == f"numerical error in {stage}: injected\n"


def test_only_main_writes_to_stderr():
    # every error of a command reaches main, which alone turns it into one
    # line on stderr and an exit code
    assert mention_sites({"stderr"}) == {("cli", "main")}


def test_estimate_outside_its_dimension_exits_two(tmp_path, capsys):
    # the default chanillo exponents satisfy 1/q = 1/p - s/n only for n = 1
    path = _write_config(tmp_path / "cfg.json",
                         grid={"n": 2, "N": 32, "L": 1.0},
                         estimates=[{"id": "crw-bmo"}, {"id": "chanillo"}])
    _assert_config_error(path, tmp_path, capsys)
    with pytest.raises(ConfigError, match="1/q = 1/p - s/n"):
        parse_config({"grid": {"n": 2, "N": 32},
                      "estimates": [{"id": "chanillo"}]})
    with pytest.raises(ConfigError, match="requires n in"):
        parse_config({"estimates": [{"id": "jacobian-bmo"}]})


def test_run_zero_grid_value_is_not_replaced(tmp_path, capsys):
    path = _write_config(tmp_path / "cfg.json")
    _assert_config_error(path, tmp_path, capsys, "--grid-n", "0")


def test_profile_files_hold_plain_floats(tmp_path):
    cfg = parse_config({"grid": {"n": 1, "N": 64}, "t_levels": {"M": 16},
                        "estimates": []})
    cli._write_profiles(cfg, str(tmp_path))
    for name in ("decay_profile.txt", "boundary_trace.txt"):
        rows = [line.split() for line in
                (tmp_path / name).read_text().splitlines()
                if not line.startswith("#")]
        assert len(rows) >= 8
        for row in rows:
            assert len(row) == 2
            assert all(np.isfinite(float(tok)) for tok in row)


def test_run_writes_reports_and_exits_zero(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", out=str(tmp_path / "reports"))
    rc = main(["run", cfg])
    assert rc == 0
    out = tmp_path / "reports"
    report = json.loads((out / "crw-bmo.json").read_text())
    expected_keys = {
        "estimate_id", "grid", "t_truncation", "fitted_constant",
        "validation_max_ratio", "max_ratio", "dilation_ratios",
        "dilation_stability", "zero_rhs_samples", "samples", "pass",
        "metadata",
    }
    assert set(report) == expected_keys
    assert report["pass"] is True
    assert report["fitted_constant"] > 0
    csv_lines = (out / "samples.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "estimate_id,index,lhs,rhs,ratio"
    assert len(csv_lines) == 1 + len(report["samples"])
    assert (out / "decay_profile.txt").exists()
    assert (out / "boundary_trace.txt").exists()


def test_run_is_deterministic(tmp_path):
    cfg1 = _write_config(tmp_path / "a.json", out=str(tmp_path / "r1"))
    cfg2 = _write_config(tmp_path / "b.json", out=str(tmp_path / "r2"))
    assert main(["run", cfg1]) == 0
    assert main(["run", cfg2]) == 0
    for name in ("crw-bmo.json", "samples.csv", "decay_profile.txt",
                 "boundary_trace.txt"):
        a = (tmp_path / "r1" / name).read_bytes()
        b = (tmp_path / "r2" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_run_config_errors_exit_two(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    unknown = _write_config(tmp_path / "unknown.json")
    with open(unknown) as fh:
        data = json.load(fh)
    data["estimates"][0]["id"] = "imaginary"
    with open(unknown, "w") as fh:
        json.dump(data, fh)
    assert main(["run", unknown]) == 2
    assert "config error" in capsys.readouterr().err


def test_unreadable_config_text_exits_two(tmp_path, capsys):
    # bytes that are not UTF-8, and JSON nested past the recursion limit
    for name, text in (("binary.json", b"\xff\xfe{"),
                       ("deep.json", b"[" * 100_000)):
        path = tmp_path / name
        path.write_bytes(text)
        assert main(["run", str(path)]) == 2
        _assert_one_config_error_line(capsys, f"cannot read {path}")


def test_ops_check_passes(capsys):
    rc = main(["ops-check", "--grid-N", "128"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert "oracle_equivalence_s=0.3" in out
    assert "hilbert_involution" in out


def test_ops_check_bad_grid_exits_two(capsys):
    for arg in ("0", "3", "100", "-4"):
        assert main(["ops-check", "--grid-N", arg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: --grid-N")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


def test_run_out_is_an_existing_file_exits_two(tmp_path, capsys, monkeypatch):
    def no_estimate_runs(*args, **kwargs):
        raise AssertionError("an estimate ran before the output check")

    monkeypatch.setattr(cli, "verify_estimate", no_estimate_runs)
    target = tmp_path / "taken"
    target.write_text("keep")
    path = _write_config(tmp_path / "cfg.json", out=str(target))
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create output directory")
    assert "Traceback" not in err
    assert target.read_text() == "keep"


def test_unwritable_report_exits_two(tmp_path, capsys):
    # the output directory exists, but a report's name is taken by a
    # directory, so writing the report fails after the estimate ran
    (tmp_path / "reports" / "crw-bmo.json").mkdir(parents=True)
    path = _write_config(tmp_path / "cfg.json", out=str(tmp_path / "reports"))
    assert main(["run", path]) == 2
    _assert_one_config_error_line(capsys, "crw-bmo.json")


def test_run_path_loads_no_scipy(tmp_path):
    # the package imports no scipy (test_package_imports_no_scipy); this
    # checks that nothing a command loads does either, since importing any
    # of it costs every command about 0.3 s.  chanillo and crw-bmo reach the
    # Riesz-potential quadrature and the symbol, the run writes the decay
    # profile and boundary trace, and ops-check reaches the 1-D periodized
    # (Hurwitz-zeta) weights.  Nor is numpy.ma loaded, which a bare
    # np.unique imports (about 15 ms); the BMO search reaches np.unique.
    import os
    import subprocess
    import sys

    import fracharm
    src = os.path.dirname(os.path.dirname(fracharm.__file__))
    path = _write_config(tmp_path / "cfg.json",
                         estimates=[{"id": "chanillo"}, {"id": "crw-bmo"}],
                         out=str(tmp_path / "reports"))
    code = (
        "import sys, fracharm.cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('scipy')\n"
        "                  or m == 'numpy.ma' or m.startswith('numpy.ma.'))\n"
        "print(loaded())\n"
        f"rc = fracharm.cli.main(['run', {path!r}])\n"
        "print(rc, loaded())\n"
        "rc = fracharm.cli.main(['ops-check'])\n"
        "print(rc, loaded())\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "[]"
    assert lines[-2].startswith("PASS")  # the last line ops-check printed
    assert lines[-1] == "0 []"
    assert "0 []" in lines[1:-1]  # after the run
    assert (tmp_path / "reports" / "boundary_trace.txt").exists()


def _assert_one_config_error_line(capsys, *words):
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    for word in words:
        assert word in err


def test_config_shape_refusals_exit_two_with_one_line(tmp_path, capsys):
    cases = [({"estimates": {}}, "estimates must be a list"),
             ({"estimates": [3]}, "estimates[0] must be an object"),
             ({"grid": {"n": 1, "N": None, "L": 1.0}},
              "grid.N: expected a value, got null"),
             ({"seed": None}, "seed: expected a value, got null")]
    for i, (kwargs, message) in enumerate(cases):
        path = _write_config(tmp_path / f"cfg{i}.json", **kwargs)
        assert main(["run", path, "--out", str(tmp_path / "reports")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "reports").exists()


def test_unrepresentable_period_exits_two(tmp_path, capsys):
    # L^2 underflows, or L^2 overflows, past the normal float64 range
    for L in (1e-200, 1e300):
        path = _write_config(tmp_path / "cfg.json", grid={"n": 1, "N": 64,
                                                          "L": L})
        assert main(["run", path, "--out", str(tmp_path / "reports")]) == 2
        _assert_one_config_error_line(capsys, "period L")
        assert not (tmp_path / "reports").exists()
    path = _write_config(tmp_path / "cfg.json", grid={"n": 1, "N": 64,
                                                      "L": 1e-100},
                         out=str(tmp_path / "small"))
    assert main(["run", path]) == 0


def test_tiny_period_gives_the_unit_period_verdict(tmp_path, capsys):
    # the zero-RHS and zero-LHS cuts are relative to the family, so at
    # L = 1e-100 no sample is zeroed for its scale alone
    reports = {}
    for L in (1.0, 1e-100):
        out = tmp_path / f"L{L:g}"
        path = _write_config(tmp_path / "cfg.json",
                             grid={"n": 1, "N": 64, "L": L}, out=str(out))
        rc = main(["run", path])
        if rc == 3:
            assert "degenerate" in capsys.readouterr().err
            continue
        assert rc == 0
        reports[L] = json.loads((out / "crw-bmo.json").read_text())
        assert len(reports[L]["samples"]) == 20
        assert reports[L]["zero_rhs_samples"] == []
    if 1e-100 in reports:
        assert reports[1e-100]["pass"] == reports[1.0]["pass"]
        assert reports[1e-100]["fitted_constant"] == pytest.approx(
            reports[1.0]["fitted_constant"], rel=1e-12)


def test_huge_period_runs_like_the_unit_period(tmp_path):
    # the estimates are dilation-invariant and the norms scale-safe, so every
    # estimate the grid admits gives its L = 1 verdict at any period; the
    # boundary-trace diagnostics are scale-free: no spurious degeneracy and
    # the same extrapolated constant.  All estimates share one run per period.
    for n in (1, 2):
        estimates = [{"id": eid, "params": {"q": 2.0} if eid == "chanillo"
                      and n == 2 else {}} for eid in sorted(CATALOG)
                     if n in CATALOG[eid].get("dims", (1, 2))
                     and eid != "jacobian-sobolev"]
        assert len(estimates) == 8
        runs = {}
        for L in (1.0, 1e-100, 1e150):
            out = tmp_path / f"{n}d-L{L:g}"
            path = _write_config(tmp_path / "cfg.json",
                                 grid={"n": n, "N": 64, "L": L},
                                 estimates=estimates, out=str(out))
            rc = main(["run", path])
            assert rc in (0, 1), (n, L)
            trace = (out / "boundary_trace.txt").read_text().splitlines()
            runs[L] = (rc, float(trace[0].split("=")[1]),
                       {e["id"]: json.loads((out / f"{e['id']}.json")
                                            .read_text()) for e in estimates})
        rc0, c0, reports0 = runs.pop(1.0)
        assert reports0["crw-bmo"]["pass"], n
        for L, (rc, c, reports) in runs.items():
            assert rc == rc0, (n, L)
            assert c == pytest.approx(c0, rel=0, abs=1e-12)
            for eid, report in reports.items():
                report0 = reports0[eid]
                assert report["pass"] == report0["pass"], (n, L, eid)
                for key in ("fitted_constant", "validation_max_ratio",
                            "dilation_stability"):
                    assert abs(report[key] - report0[key]) <= 1e-12 * max(
                        abs(report0[key]), 1.0), (n, L, eid, key)


def test_large_exponent_quotient_runs_at_every_period(tmp_path):
    # Lorentz step edges in units of the cell would reach N^(q/p), about
    # 2^1330 for q/p = 133 at N = 1024, and make the norm NaN at any period
    estimates = [{"id": "hardy-duality", "params": {"p": 1.5, "q": 200.0}},
                 {"id": "crw-lorentz", "params": {
                     "p1": 3.0, "p2": 6.0, "q1": 400.0,
                     "q2": 1 / (0.5 - 1 / 400)}}]
    runs = {}
    for L in (1.0, 1e150):
        out = tmp_path / f"L{L:g}"
        path = _write_config(tmp_path / "cfg.json",
                             grid={"n": 1, "N": 1024, "L": L},
                             estimates=estimates, out=str(out))
        assert main(["run", path]) == 0, L
        runs[L] = {e["id"]: json.loads((out / f"{e['id']}.json").read_text())
                   for e in estimates}
    for eid, report0 in runs[1.0].items():
        report = runs[1e150][eid]
        assert report["pass"] == report0["pass"], eid
        for key in ("fitted_constant", "validation_max_ratio",
                    "dilation_stability"):
            assert abs(report[key] - report0[key]) <= 1e-12 * max(
                abs(report0[key]), 1.0), (eid, key)


def test_huge_primary_exponent_gives_a_verdict(tmp_path):
    # for p above about 1e16 the conjugate p/(p-1) rounds to 1.0, which the
    # Lorentz exponents reject; the float above 1 stands in for it
    stability = {}
    for p in (1e15, 1e17, 1e300):
        out = tmp_path / f"p{p:g}"
        path = _write_config(tmp_path / "cfg.json",
                             grid={"n": 1, "N": 1024, "L": 1.0}, seed=1000,
                             estimates=[{"id": "hardy-duality",
                                         "params": {"p": p}}], out=str(out))
        assert main(["run", path]) == 0, p
        report = json.loads((out / "hardy-duality.json").read_text())
        assert report["pass"], p
        stability[p] = report["dilation_stability"]
    for p in (1e17, 1e300):
        assert abs(stability[p] - stability[1e15]) <= 1e-14, p


def test_huge_secondary_exponent_gives_the_verdict_of_q_200(tmp_path):
    # f*^q times a step's weight underflows for q in the hundreds; summed in
    # the log domain, the norm tends to its L^(p,inf) value and the verdict
    # stays that of q = 200
    verdicts = {}
    for q in (200.0, 400.0, 800.0, 1e300):
        out = tmp_path / f"q{q:g}"
        path = _write_config(tmp_path / "cfg.json",
                             grid={"n": 1, "N": 1024, "L": 1.0}, seed=1000,
                             estimates=[{"id": "hardy-duality",
                                         "params": {"q": q}}], out=str(out))
        assert main(["run", path]) == 0, q
        report = json.loads((out / "hardy-duality.json").read_text())
        verdicts[q] = report["pass"]
    assert set(verdicts.values()) == {verdicts[200.0]}


def test_run_rejects_grids_below_the_family_band(tmp_path, capsys):
    # the band-limited members reach mode 6 * 2 * 2 = 24 under the harness
    # dilations, which needs 24 <= N/2 - 1
    for n in (1, 2):
        for N in (8, 16, 32):
            path = _write_config(tmp_path / "cfg.json",
                                 grid={"n": n, "N": N, "L": 1.0},
                                 out=str(tmp_path / "reports"))
            assert main(["run", path]) == 2
            _assert_one_config_error_line(capsys, f"N = {N}", "N >= 64")
            assert not (tmp_path / "reports").exists()


def test_cold_and_warm_caches_write_identical_reports(tmp_path):
    # crw-bmo and leibniz-bmo share their phi members; the second run takes
    # every test function and every BMO seminorm from the caches
    from fracharm import grid, norms
    grid._cached_function.cache_clear()
    norms._BMO_MEMO.clear()
    trees, filled = [], []
    for name in ("cold", "warm"):
        path = _write_config(
            tmp_path / "cfg.json",
            estimates=[{"id": "crw-bmo"}, {"id": "leibniz-bmo"}],
            out=str(tmp_path / name))
        assert main(["run", path]) == 0
        trees.append({p.name: p.read_bytes()
                      for p in sorted((tmp_path / name).iterdir())})
        filled.append((grid._cached_function.cache_info().misses,
                       len(norms._BMO_MEMO)))
    # 20 samples of 2 slots at 3 dilation states, plus the profile gaussian;
    # phi is shared, so 3 stacks of 20 rows, one per dilation state, serve
    # the 2 * 3 BMO calls
    assert filled == [(121, 3)] * 2
    assert len(trees[0]) == 5
    assert trees[0] == trees[1]


def test_non_numeric_estimate_parameter_exits_two(tmp_path, capsys):
    for value in ("x", None, True):
        path = _write_config(tmp_path / "cfg.json",
                             estimates=[{"id": "crw-bmo",
                                         "params": {"p": value}}])
        assert main(["run", path, "--out", str(tmp_path / "reports")]) == 2
        _assert_one_config_error_line(capsys, "estimates[0]", "'p'",
                                      "real number")
        assert not (tmp_path / "reports").exists()
    # an integer is a real number
    cfg = parse_config({"estimates": [{"id": "crw-bmo", "params": {"p": 3}}]})
    assert cfg.estimates[0].params["p"] == 3
    # a zero exponent is refused by its range before 1/p1 + 1/p2 = 1/p
    # divides by it
    path = _write_config(tmp_path / "cfg.json",
                         estimates=[{"id": "crw-lorentz",
                                     "params": {"p1": 0}}])
    assert main(["run", path, "--out", str(tmp_path / "reports")]) == 2
    _assert_one_config_error_line(capsys,
                                  "estimates[0]: crw-lorentz requires p1 in")
    assert not (tmp_path / "reports").exists()


def test_jacobian_sobolev_outside_its_range_exits_two(tmp_path, capsys):
    # its Slobodeckij right-hand side takes 2-D grids up to N = 96 and
    # exponents in [1, inf); a negative p0 still sums 1/p_i to 1
    for grid, params, words in (
            ({"n": 2, "N": 128, "L": 1.0}, {}, ("N <= 96",)),
            ({"n": 2, "N": 64, "L": 1.0},
             {"p0": -3.0, "p1": 1.5, "p2": 1.5}, ("p0 in (1, inf)",))):
        path = _write_config(tmp_path / "cfg.json", grid=grid,
                             estimates=[{"id": "jacobian-sobolev",
                                         "params": params}])
        assert main(["run", path, "--out", str(tmp_path / "reports")]) == 2
        _assert_one_config_error_line(capsys, "estimates[0]",
                                      "jacobian-sobolev", *words)
        assert not (tmp_path / "reports").exists()


@settings(max_examples=40, deadline=None)
@given(N=st.one_of(st.integers(-8, 300),
                   st.sampled_from([2**k for k in range(9)])))
def test_ops_check_grid_N_never_raises(N):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(["ops-check", "--grid-N", str(N)])
    assert rc in (0, 1, 2, 3)


# `fracharm run` grammar: per key, values that parse_config accepts and
# values it must refuse.  Valid values keep a run small: 1-D estimates need
# N = 64, and a 2-D config carries no estimates.
_ABSENT = object()
_NAN, _INF = float("nan"), float("inf")
_IDS_1D = ["crw-bmo", "crw-lorentz", "fl-comm-lorentz", "chanillo",
           "leibniz-lorentz", "leibniz-bmo", "double-comm-1d",
           "hardy-duality"]
_RUN_KEYS = {
    ("grid", "n"): ([1, 2], [0, 3, -1, 1.5, "1", None, True, [1]]),
    ("grid", "N"): ([64], [8, 32, 0, 63, 100, -64, 4, 64.5, "64", None,
                           False, 1e300]),
    ("grid", "L"): ([1.0, 3.0, 1e-100, 1e150],
                    [0.0, -1.0, _NAN, _INF, 1e-200, 1e300, "1", None, {}]),
    ("t_levels", "t_min"): ([0.01, 0.005], [0.0, -1.0, 1e-9, _NAN, "x",
                                            100.0, []]),
    ("t_levels", "t_max"): ([1.0, 4.0], [0.0, -1.0, 100.0, _NAN, "x"]),
    ("t_levels", "M"): ([16, 24, 40], [0, 4, -3, 16.5, "16", None, True]),
    ("seed",): ([0, 7, 1000, 2**64], [-1, 1.5, "x", True, None, []]),
    ("tolerance_scale",): ([1.0, 0.0, 10.0], [-1.0, _NAN, _INF, "x", None]),
    ("estimates",): ([[], [{"id": "crw-bmo"}], [{"id": "chanillo"},
                                                 {"id": "hardy-duality"}]]
                     + [[{"id": i}] for i in _IDS_1D],
                     [[{"id": "jacobian-bmo"}], [{"id": "nope"}], [{}],
                      [{"id": "crw-bmo", "params": {"p": "x"}}],
                      [{"id": "crw-bmo", "params": {"p": -1.0}}],
                      [{"id": "crw-bmo", "params": {"zzz": 1}}],
                      [{"id": "crw-bmo", "params": "x"}], ["crw-bmo"],
                      {}, "x", None]),
    ("out",): (["{tmp}/reports"], ["", "{tmp}/file", None, 5]),
    ("mystery",): ([_ABSENT], [1]),
}
_RUN_OVERRIDES = {
    "--grid-n": (["1"], ["0", "3", "x", "1.5", ""]),
    "--grid-N": (["64"], ["0", "63", "-64", "x", "1e3"]),
    "--period": (["1.0", "2.5", "1e-100"], ["0", "-1", "nan", "inf", "1e-200",
                                            "x"]),
    "--t-min": (["0.01"], ["0", "-1", "nan", "1e-9", "x"]),
    "--t-max": (["2.0"], ["0", "100", "nan", "x"]),
    "--t-levels": (["16", "20"], ["0", "4", "-1", "x", "16.5"]),
    "--seed": (["0", "3"], ["-1", "x", "1.5"]),
    "--out": (["{tmp}/over"], ["{tmp}/file", ""]),
    "--tolerance-scale": (["1.0", "0.5"], ["-1", "nan", "inf", "x"]),
}


@st.composite
def _run_invocations(draw):
    """(config text, argv after the config path) for one `fracharm run`, with
    "{tmp}" standing for a scratch directory.  Up to two keys, overrides or
    the JSON text itself take a broken value; the rest are valid or absent."""
    keys = [*_RUN_KEYS, *_RUN_OVERRIDES, "text"]
    broken = draw(st.lists(st.sampled_from(keys), max_size=2))

    def value(key, valid, bad):
        return draw(st.sampled_from(bad if key in broken
                                    else [*valid, _ABSENT]))

    data: dict = {}
    for key, (valid, bad) in _RUN_KEYS.items():
        v = value(key, valid, bad)
        if v is not _ABSENT:
            section = data
            for part in key[:-1]:
                section = section.setdefault(part, {})
            section[key[-1]] = v
    if data.get("grid", {}).get("n") == 2:
        data["estimates"] = []
    text = value("text", [json.dumps(data)], ["{", "[]", "null"])
    if text is _ABSENT:
        text = json.dumps(data)
    argv = []
    for flag, (valid, bad) in _RUN_OVERRIDES.items():
        v = value(flag, valid, bad)
        if v is not _ABSENT and (flag in broken or draw(st.booleans())):
            argv += [flag, v]
    return text, argv


@settings(max_examples=40, deadline=None)
@given(_run_invocations())
def test_run_exit_codes_never_raise(invocation):
    import os
    import tempfile

    text, argv = invocation
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # the default out, "reports", is relative to the working directory
        os.chdir(tmp)
        try:
            with open("file", "w") as fh:
                fh.write("keep")
            with open("cfg.json", "w") as fh:
                fh.write(text.replace("{tmp}", tmp))
            argv = [a.replace("{tmp}", tmp) for a in argv]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = main(["run", "cfg.json", *argv])
        finally:
            os.chdir(cwd)
    assert rc in (0, 1, 2, 3)


def _declared_values(lo, hi):
    """A declared range's ends, one ulp either side of them, and values far
    outside it."""
    near = [float(np.nextafter(e, d)) for e in (lo, hi) for d in (-_INF, _INF)]
    return [lo, hi, *near, 0.0, -1.0, 1e-300, 1e300, _NAN, _INF]


_PARAMETRIZED = sorted(e for e in CATALOG if CATALOG[e]["defaults"])


@st.composite
def _declared_parameters(draw):
    """(estimate id, parameters): one or two parameters of an estimate, each
    drawn from _declared_values of its declared range."""
    eid = draw(st.sampled_from(_PARAMETRIZED))
    ranges = CATALOG[eid]["ranges"]
    merged = dict(CATALOG[eid]["defaults"])
    params = {}
    for key in draw(st.lists(st.sampled_from(list(ranges)), min_size=1,
                             max_size=2, unique=True)):
        lo, _, hi, _ = _range_ends(ranges[key], merged)
        merged[key] = params[key] = draw(st.sampled_from(
            _declared_values(lo, hi)))
    return eid, params


def _run_declared(tmp, eid, params):
    """Exit code and stderr of fracharm run on one estimate at 1-D N=64."""
    path = _write_config(tmp / "cfg.json", estimates=[{"id": eid,
                                                       "params": params}],
                         out=str(tmp / "reports"))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main(["run", path])
    return rc, err.getvalue()


@settings(max_examples=40, deadline=None)
@given(_declared_parameters())
def test_run_exit_codes_never_raise_at_declared_parameters(tmp_path_factory,
                                                           case):
    # the sibling of test_run_exit_codes_never_raise with the estimate's
    # parameters at and around its declared ranges: parse_config refuses a
    # value (exit 2), or the run gives a verdict (0 or 1) or a numerical
    # error (3), never a traceback
    rc, err = _run_declared(tmp_path_factory.mktemp("run"), *case)
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err


_SINGLE_KEY_CASES = [
    (eid, key, value) for eid in _PARAMETRIZED
    for key, text in CATALOG[eid]["ranges"].items()
    for value in _declared_values(
        *_range_ends(text, dict(CATALOG[eid]["defaults"]))[::2])]


@pytest.mark.parametrize("eid,key,value", _SINGLE_KEY_CASES)
def test_run_exit_codes_never_raise_at_each_declared_value(tmp_path, eid,
                                                           key, value):
    # every single-key draw of _declared_parameters, which the 40 examples
    # above meet only by chance (456 runs, about 3 s in all)
    rc, err = _run_declared(tmp_path, eid, {key: value})
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err


@settings(max_examples=200, deadline=None)
@given(_declared_parameters(), st.sampled_from([1, 2]))
def test_parse_config_accepts_or_refuses_every_declared_parameter(case, n):
    eid, params = case
    data = {"grid": {"n": n, "N": 64},
            "estimates": [{"id": eid, "params": params}]}
    try:
        cfg = parse_config(data)
    except ConfigError as exc:
        # refused by a declared range or relation, or by the grid
        assert str(exc).startswith(f"estimates[0]: {eid} requires ")
        return
    assert cfg.estimates[0].params == {**CATALOG[eid]["defaults"], **params}
