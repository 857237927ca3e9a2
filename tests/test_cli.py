import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracharm import cli
from fracharm.cli import ConfigError, main, parse_config


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


def test_too_few_t_levels_exit_two(tmp_path, capsys):
    path = _write_config(tmp_path / "cfg.json", t_levels={"M": 8})
    _assert_config_error(path, tmp_path, capsys)
    with pytest.raises(ConfigError, match="M >= 16"):
        parse_config({"estimates": []}, overrides={"t_levels_M": 15})


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


def test_import_does_not_load_scipy_integrate():
    # scipy.integrate serves only the lambda-quadrature symbol oracle, and
    # loading it would add about 0.2 s to every command
    import os
    import subprocess
    import sys

    import fracharm
    src = os.path.dirname(os.path.dirname(fracharm.__file__))
    code = "import sys, fracharm.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def _assert_one_config_error_line(capsys, *words):
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    for word in words:
        assert word in err


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


def test_huge_period_runs_like_the_unit_period(tmp_path):
    # the boundary-trace diagnostics are scale-free: no spurious degeneracy
    # and the same extrapolated constant
    cs = []
    for L in (1.0, 1e150):
        out = tmp_path / f"L{L:g}"
        path = _write_config(tmp_path / "cfg.json",
                             grid={"n": 1, "N": 64, "L": L}, out=str(out))
        assert main(["run", path]) == 0
        head = (out / "boundary_trace.txt").read_text().splitlines()[0]
        cs.append(float(head.split("=")[1]))
    assert cs[1] == pytest.approx(cs[0], rel=0, abs=1e-12)


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
    # phi is shared, so 3 * 20 BMO searches serve 2 * 3 * 20 calls
    assert filled == [(121, 60)] * 2
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


@settings(max_examples=40, deadline=None)
@given(N=st.one_of(st.integers(-8, 300),
                   st.sampled_from([2**k for k in range(9)])))
def test_ops_check_grid_N_never_raises(N):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(["ops-check", "--grid-N", str(N)])
    assert rc in (0, 1, 2, 3)
