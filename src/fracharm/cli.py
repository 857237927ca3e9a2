"""
Command-line entry point: config-driven estimate runs and an operator
identity check.

Subcommands
-----------
run <config.json>   Verify the configured estimates; write one JSON report
                    per estimate, a CSV of per-sample ratios, and plain-text
                    (t, value) diagnostic profiles into the output directory.
ops-check           Run the spectral-identity and oracle-equivalence suites
                    without a config and print a pass/fail table.

Exit codes: 0 pass, 1 validation failure, 2 config error, 3 numerical error.
Every config error, including a parameter set that does not fit the grid
dimension, is detected by parse_config before any estimate runs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .commutators import (STANDARD_FAMILY_MIN_N, EstimateDescriptor,
                          standard_family, verify_estimate)
from .extension import (TLevels, boundary_limit_check, decay_profile,
                        extend_field, make_tlevels)
from .grid import (GridSpec, TestFunctionDescriptor, make_function,
                   spectral_gradient)
from .multiplier_ops import (frac_laplacian, l2_norm, mean_projected,
                             riesz_potential, riesz_transform)
from .singular_ops import QuadratureConfig, frac_laplacian_quadrature


class ConfigError(ValueError):
    """Invalid run configuration."""


_GRID_KEYS = {"n", "N", "L"}
_TLEVEL_KEYS = {"t_min", "t_max", "M"}
_ESTIMATE_KEYS = {"id", "params"}
_TOP_KEYS = {"grid", "t_levels", "estimates", "seed", "out", "tolerance_scale"}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; unknown keys are rejected."""

    grid: GridSpec
    levels: TLevels
    estimates: tuple[EstimateDescriptor, ...]
    seed: int
    out: str
    tolerance_scale: float


def _reject_unknown(d: dict, allowed: set, where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _section(data: dict, key: str) -> dict:
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object")
    return value


def _integer(value) -> int:
    """int(value) for an integral value; booleans and fractions are refused
    rather than truncated."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _convert(kind, value, where: str, optional: bool = False):
    """kind(value) of a JSON number, with a failed conversion reported as a
    ConfigError.  A string, numeric or not, is refused; None (a JSON null)
    passes through for an optional key and is refused for any other."""
    if value is None:
        if optional:
            return None
        raise ConfigError(f"{where}: expected a value, got null")
    if isinstance(value, str):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config(data: dict, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from a parsed JSON object plus CLI overrides."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(data, _TOP_KEYS, "config root")
    overrides = overrides or {}

    def pick(override: str, section: dict, key: str, default):
        # an override replaces the config value unless it is None, so falsy
        # overrides such as --seed 0 are kept
        value = overrides.get(override)
        return section.get(key, default) if value is None else value

    grid = _section(data, "grid")
    _reject_unknown(grid, _GRID_KEYS, "grid")
    n = _convert(_integer, pick("grid_n", grid, "n", 1), "grid.n")
    N = _convert(_integer, pick("grid_N", grid, "N", 256), "grid.N")
    L = _convert(float, pick("period", grid, "L", 1.0), "grid.L")
    try:
        spec = GridSpec(n=n, N=N, L=L)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc

    tl = _section(data, "t_levels")
    _reject_unknown(tl, _TLEVEL_KEYS, "t_levels")
    t_min = _convert(float, pick("t_min", tl, "t_min", None), "t_levels.t_min",
                     optional=True)
    t_max = _convert(float, pick("t_max", tl, "t_max", None), "t_levels.t_max",
                     optional=True)
    M = _convert(_integer, pick("t_levels_M", tl, "M", 32), "t_levels.M")
    try:
        levels = make_tlevels(spec, t_min, t_max, M)
    except ValueError as exc:
        raise ConfigError(f"t_levels: {exc}") from exc

    ests = data.get("estimates", [])
    if not isinstance(ests, list):
        raise ConfigError("estimates must be a list")
    descriptors = []
    for i, e in enumerate(ests):
        if not isinstance(e, dict):
            raise ConfigError(f"estimates[{i}] must be an object")
        _reject_unknown(e, _ESTIMATE_KEYS, f"estimates[{i}]")
        if "id" not in e:
            raise ConfigError(f"estimates[{i}] is missing 'id'")
        try:
            d = EstimateDescriptor(id=e["id"], params=_section(e, "params"))
            d.check_grid(spec)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"estimates[{i}]: {exc}") from exc
        descriptors.append(d)
    if descriptors and N < STANDARD_FAMILY_MIN_N:
        raise ConfigError(
            f"grid: N = {N} does not resolve the dilated test family; "
            f"the estimates need N >= {STANDARD_FAMILY_MIN_N}")
    tolerance_scale = _convert(
        float, pick("tolerance_scale", data, "tolerance_scale", 1.0),
        "tolerance_scale")
    if not (math.isfinite(tolerance_scale) and tolerance_scale >= 0):
        raise ConfigError(
            f"tolerance_scale must be finite and >= 0, got {tolerance_scale}")
    seed = _convert(_integer, pick("seed", data, "seed", 1000), "seed")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    out = pick("out", data, "out", "reports")
    if not isinstance(out, str) or not out:
        raise ConfigError(f"out must be a non-empty path, got {out!r}")
    return RunConfig(grid=spec, levels=levels, estimates=tuple(descriptors),
                     seed=seed, out=out, tolerance_scale=tolerance_scale)


def _report_dict(report, cfg: RunConfig) -> dict:
    out = asdict(report)
    out["pass"] = out.pop("passed")
    # str keys before json sorts them: as floats, 2.0 would sort before 10.0
    out["dilation_ratios"] = {str(k): v for k, v in
                              report.dilation_ratios.items()}
    ts = cfg.levels.ts
    out["grid"] = {"n": cfg.grid.n, "N": cfg.grid.N, "L": cfg.grid.L}
    out["t_truncation"] = {"t_min": float(ts[0]), "t_max": float(ts[-1]),
                           "M": len(ts)}
    return out


def _write_profiles(cfg: RunConfig, out: str) -> None:
    """Decay and boundary-trace diagnostics for a reference gaussian."""
    spec = cfg.grid
    desc = TestFunctionDescriptor(
        kind="gaussian", center=(spec.L / 2,) * spec.n, width=spec.L / 16
    )
    f = make_function(desc, spec)
    F = extend_field(f, 0.5, cfg.levels, with_derivatives=())
    prof = decay_profile(F, k=0)
    with open(os.path.join(out, "decay_profile.txt"), "w") as fh:
        fh.write("# t sup_x |F(x,t)|\n")
        fh.writelines(f"{float(t)!r} {float(v)!r}\n"
                      for t, v in zip(prof["t"], prof["sup"]))
    small_ts = np.geomspace(spec.h / 2, 4 * spec.h, 8)
    trace = boundary_limit_check(f, 0.5, small_ts)
    with open(os.path.join(out, "boundary_trace.txt"), "w") as fh:
        fh.write(f"# extrapolated c = {trace.c!r}\n# t c_t\n")
        fh.writelines(f"{float(t)!r} {float(c)!r}\n"
                      for t, c in zip(trace.small_ts, trace.c_ts))


@contextlib.contextmanager
def _stage(name: str):
    """Tag an exception leaving the block with the stage main names."""
    try:
        yield
    except Exception as exc:
        exc.stage = name
        raise


def cmd_run(config_path: str, overrides: dict) -> int:
    # not JSON or not UTF-8 is a ValueError, nesting too deep a RecursionError
    try:
        with open(config_path) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read {config_path}: {exc}") from exc
    cfg = parse_config(data, overrides)
    try:
        os.makedirs(cfg.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc
    all_pass = True
    rows = []
    for d in cfg.estimates:
        with _stage(f"estimate {d.id}"):
            family = standard_family(d.arity, cfg.grid, 20, cfg.seed)
            report = verify_estimate(
                d, family, cfg.grid, slack=1.5 * cfg.tolerance_scale
            )
        all_pass = all_pass and report.passed
        with open(os.path.join(cfg.out, f"{d.id}.json"), "w") as fh:
            json.dump(_report_dict(report, cfg), fh, indent=2, sort_keys=True)
            fh.write("\n")
        for s in report.samples:
            rows.append([d.id, s["index"], s["lhs"], s["rhs"], s["ratio"]])
        print(
            f"{d.id}: fitted={report.fitted_constant:.4g} "
            f"validation_max={report.validation_max_ratio:.4g} "
            f"stability={report.dilation_stability:.3f} "
            f"{'PASS' if report.passed else 'FAIL'}"
        )
    with open(os.path.join(cfg.out, "samples.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["estimate_id", "index", "lhs", "rhs", "ratio"])
        writer.writerows(rows)
    with _stage("diagnostics"):
        _write_profiles(cfg, cfg.out)
    return 0 if all_pass else 1


# Relative L-infinity tolerance for the quadrature-vs-multiplier oracle
# comparison as a function of grid size.
ORACLE_TOLERANCE_SCHEDULE = {
    8: 0.5, 16: 0.3, 32: 0.2, 64: 0.1, 128: 6e-2,
    256: 4e-2, 512: 3e-2, 1024: 2.5e-2, 2048: 2e-2, 4096: 2e-2,
}


def _identity_checks(N: int) -> list[tuple[str, float, float]]:
    """(name, error, tolerance) triples for the operator identity suite."""
    checks = []
    spec1 = GridSpec(n=1, N=max(N, 64), L=1.0)
    f = make_function(TestFunctionDescriptor(
        kind="random-bandlimited", seed=7, max_k=min(12, spec1.N // 4)), spec1)
    f, _ = mean_projected(f)
    nf = l2_norm(f)

    hh = riesz_transform(riesz_transform(f, 1), 1)
    checks.append(("hilbert_involution", l2_norm(hh + f) / nf, 1e-10))

    g1 = frac_laplacian(frac_laplacian(f, 0.4), 0.7)
    g2 = frac_laplacian(f, 1.1)
    checks.append(("semigroup", l2_norm(g1 - g2) / l2_norm(g2), 1e-10))

    inv = riesz_potential(frac_laplacian(f, 0.6), 0.6)
    checks.append(("potential_inverse", l2_norm(inv - f) / nf, 1e-10))

    spec2 = GridSpec(n=2, N=64, L=1.0)
    w = make_function(TestFunctionDescriptor(
        kind="random-bandlimited", seed=8, max_k=6), spec2)
    w, _ = mean_projected(w)
    rr = riesz_transform(riesz_transform(w, 1), 1) + riesz_transform(
        riesz_transform(w, 2), 2)
    checks.append(("riesz_sum_of_squares", l2_norm(rr + w) / l2_norm(w), 1e-10))

    d1 = spectral_gradient(w)
    d12 = spectral_gradient(d1[0])[1]
    lap = frac_laplacian(w, 2.0)
    rhs = riesz_transform(riesz_transform(lap, 1), 2)
    checks.append(
        ("mixed_partials_via_riesz", l2_norm(d12 - rhs) / l2_norm(d12), 1e-10))
    return checks


def cmd_ops_check(N: int) -> int:
    try:
        spec = GridSpec(n=1, N=N, L=1.0)
    except ValueError as exc:
        raise ConfigError(f"--grid-N: {exc}") from exc
    with _stage("ops-check"):
        checks = _identity_checks(N)
        f = make_function(TestFunctionDescriptor(
            kind="gaussian", center=(spec.L / 2,), width=spec.L / 20), spec)
        tol = ORACLE_TOLERANCE_SCHEDULE.get(N, 2e-2)
        # the periodized kernel realizes the same torus operator as the
        # multiplier, so the discrepancy is pure quadrature error
        qcfg = QuadratureConfig(treat_as_compact=False)
        for s in (0.3, 0.7, 1.5):
            a = frac_laplacian(f, s).values
            b = frac_laplacian_quadrature(f, s, qcfg).values
            err = float(np.max(np.abs(a - b)) / np.max(np.abs(a)))
            checks.append((f"oracle_equivalence_s={s}", err, tol))
    ok = True
    for name, err, tol in checks:
        passed = err <= tol
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'}  {name:<28} "
              f"error={err:.3e}  tolerance={tol:.1e}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracharm",
        description="Verification harness for fractional-Laplacian "
                    "commutator estimates on periodic grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a JSON config of estimates")
    p_run.add_argument("config")
    p_run.add_argument("--grid-n", type=int, default=None, dest="grid_n")
    p_run.add_argument("--grid-N", type=int, default=None, dest="grid_N")
    p_run.add_argument("--period", type=float, default=None)
    p_run.add_argument("--t-min", type=float, default=None, dest="t_min")
    p_run.add_argument("--t-max", type=float, default=None, dest="t_max")
    p_run.add_argument("--t-levels", type=int, default=None, dest="t_levels_M")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", type=str, default=None)
    p_run.add_argument("--tolerance-scale", type=float, default=None,
                       dest="tolerance_scale")

    p_ops = sub.add_parser("ops-check", help="operator identity suite")
    p_ops.add_argument("--grid-N", type=int, default=512, dest="grid_N")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error, reported by argparse, or --help
        return exc.code
    try:
        if args.command == "run":
            overrides = {k: v for k, v in vars(args).items()
                         if k not in ("command", "config") and v is not None}
            return cmd_run(args.config, overrides)
        return cmd_ops_check(args.grid_N)
    except (ConfigError, OSError) as exc:
        # a ConfigError is a ValueError, so it is caught first; an OSError
        # can only come from writing into the output directory
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError, MemoryError) as exc:
        # once parse_config has accepted a config, a ValueError is numerical,
        # and a refused allocation is the memory fault numpy reports
        where = f" in {exc.stage}" if hasattr(exc, "stage") else ""
        print(f"numerical error{where}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
