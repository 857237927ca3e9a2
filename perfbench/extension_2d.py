"""The `extension-2d` workload: library calls with no BMO work.

Run as ``python3 perfbench/extension_2d.py --seed N --out results.json`` with
``src`` on ``PYTHONPATH``.  It writes the numbers the benchmark checks:

* for s in {0.5, 1, 1.5} on a 2-D N=256 gaussian with M=32 levels: the
  extrapolated boundary-trace constant and its per-t constants, the largest
  s-harmonicity residual, and the L2 norm of the regular square function;
* the Jacobian pairing at N=128 by the boundary and the extension route, on
  80 levels reaching h/128 as in acceptance criterion 8;
* the relative sup error of the periodized quadrature fractional Laplacian
  against the multiplier one in 2-D at N=64, for s in {0.3, 0.7, 1.5}.

All inputs derive from the seed.  Library functions are looked up on the
``fracharm`` package at call time, so a tracer that rebinds them sees every
call.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

import fracharm as fh
from fracharm.cli import ORACLE_TOLERANCE_SCHEDULE

TRACE_ORDERS = (0.5, 1.0, 1.5)
ORACLE_ORDERS = (0.3, 0.7, 1.5)


def _inputs(seed: int) -> dict:
    """Deterministic input parameters drawn from the seed."""
    rng = np.random.default_rng(seed)
    return {
        "gaussian_center": tuple(float(c) for c in rng.uniform(0.4, 0.6, 2)),
        "gaussian_width": float(rng.uniform(0.05, 0.08)),
        "bump_center": tuple(float(c) for c in rng.uniform(0.42, 0.55, 2)),
        "bump_radius": float(rng.uniform(0.2, 0.3)),
        "u_seeds": tuple(int(k) for k in rng.integers(0, 2**31, 2)),
        "oracle_center": tuple(float(c) for c in rng.uniform(0.4, 0.6, 2)),
        "oracle_width": float(rng.uniform(0.06, 0.08)),
    }


def run(seed: int) -> dict:
    p = _inputs(seed)
    numbers: dict = {}

    spec = fh.GridSpec(n=2, N=256, L=1.0)
    f = fh.make_function(fh.TestFunctionDescriptor(
        kind="gaussian", center=p["gaussian_center"],
        width=p["gaussian_width"]), spec)
    levels = fh.make_tlevels(spec, M=32)
    small_ts = np.geomspace(spec.h / 2, 4 * spec.h, 8)
    for s in TRACE_ORDERS:
        F = fh.extend_field(f, s, levels)
        resid = fh.s_harmonicity_residual(F)
        trace = fh.boundary_limit_check(f, s, small_ts)
        S = fh.square_function(F)
        key = f"extension.s{s}"
        numbers[f"{key}.trace_c"] = trace.c
        numbers[f"{key}.trace_c_ts"] = [float(c) for c in trace.c_ts]
        numbers[f"{key}.residual_max"] = max(r for _, r in resid)
        numbers[f"{key}.square_l2"] = fh.lp_norm(S, 2.0)

    spec = fh.GridSpec(n=2, N=128, L=1.0)
    jlevels = fh.TLevels(np.geomspace(spec.h / 128, 4 * spec.L, 80))
    phi = fh.make_function(fh.TestFunctionDescriptor(
        kind="smooth-bump", center=p["bump_center"],
        radius=p["bump_radius"]), spec)
    u = tuple(fh.make_function(fh.TestFunctionDescriptor(
        kind="random-bandlimited", seed=k, max_k=4), spec)
        for k in p["u_seeds"])
    numbers["jacobian.boundary"] = fh.jacobian_pairing(phi, u, method="boundary")
    numbers["jacobian.extension"] = fh.jacobian_pairing(
        phi, u, method="extension", levels=jlevels)

    spec = fh.GridSpec(n=2, N=64, L=1.0)
    g = fh.make_function(fh.TestFunctionDescriptor(
        kind="gaussian", center=p["oracle_center"],
        width=p["oracle_width"]), spec)
    cfg = fh.QuadratureConfig(treat_as_compact=False)
    for s in ORACLE_ORDERS:
        a = fh.frac_laplacian(g, s).values
        b = fh.frac_laplacian_quadrature(g, s, cfg).values
        numbers[f"oracle.s{s}.error"] = float(
            np.max(np.abs(a - b)) / np.max(np.abs(a)))

    return {
        "exit_code": 0,
        "verdicts": {},
        "numbers": numbers,
        "limits": {"oracle_tolerance": ORACLE_TOLERANCE_SCHEDULE[spec.N]},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    result = run(args.seed)
    with open(args.out, "w") as fh_out:
        json.dump(result, fh_out, indent=1, sort_keys=True)
        fh_out.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
