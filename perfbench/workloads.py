"""Workload definitions: the command each one runs, and how its outputs are
read back into a result the checks compare.

A result is a dict with
  ``exit_code``  the process exit code,
  ``verdicts``   name -> bool (estimate pass/fail),
  ``numbers``    name -> float or list of floats,
  ``limits``     invariant limits the program itself states (optional),
  ``missing``    output files that were expected but absent.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

ESTIMATES_1D = ("crw-bmo", "crw-lorentz", "fl-comm-lorentz", "chanillo",
                "leibniz-lorentz", "leibniz-bmo", "double-comm-1d",
                "hardy-duality")
ESTIMATES_2D = ("jacobian-bmo", "crw-bmo", "leibniz-lorentz", "hardy-duality")

CLI_CONFIGS = {
    "run-1d": {"grid": {"n": 1, "N": 1024, "L": 1.0}, "t_levels": {"M": 32},
               "estimates": ESTIMATES_1D},
    "run-2d": {"grid": {"n": 2, "N": 64, "L": 1.0}, "t_levels": {"M": 32},
               "estimates": ESTIMATES_2D},
}
WORKLOADS = ("run-1d", "run-2d", "extension-2d")
# Workloads whose symbol cache is filled by one untimed run before timing,
# as on a user's repeat run.  The others start from an empty cache each time.
WARM_CACHE = {"run-1d": True, "run-2d": True, "extension-2d": False}
# Every estimate id any workload verifies, for the per-estimate trace metric.
ALL_ESTIMATES = tuple(dict.fromkeys(ESTIMATES_1D + ESTIMATES_2D))


def program_args(workload: str, seed: int, out_dir: str) -> tuple[str, list[str]]:
    """(module, argv) of one workload execution writing into out_dir.

    The module is run as ``python3 -m fracharm.cli`` or as the script
    ``perfbench/extension_2d.py``; its ``main(argv)`` takes the same argv."""
    if workload in CLI_CONFIGS:
        cfg = dict(CLI_CONFIGS[workload])
        cfg["estimates"] = [{"id": e} for e in cfg["estimates"]]
        # the seed goes into the config rather than `--seed`, so every seed,
        # 0 included, reaches the run
        cfg["seed"] = seed
        path = os.path.join(out_dir, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=1)
        return "fracharm.cli", ["run", path, "--out",
                                os.path.join(out_dir, "reports")]
    if workload == "extension-2d":
        return "extension_2d", ["--seed", str(seed), "--out",
                                os.path.join(out_dir, "results.json")]
    raise ValueError(f"unknown workload {workload!r}")


def untraced_command(module: str, argv: list[str]) -> list[str]:
    if module == "fracharm.cli":
        return [sys.executable, "-m", module, *argv]
    return [sys.executable, os.path.join(HERE, f"{module}.py"), *argv]


def traced_command(module: str, argv: list[str], trace_out: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "traced.py"),
            "--trace-out", trace_out, module, *argv]


def _number(token: str) -> float:
    """A float written as ``repr`` of a Python or a numpy float."""
    if token.startswith("np.float64(") and token.endswith(")"):
        token = token[len("np.float64("):-1]
    return float(token)


def _read_profile(path: str) -> tuple[list[str], list[list[float]]]:
    """Comment lines and numeric rows of a plain-text profile."""
    comments, rows = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line)
            elif line.strip():
                rows.append([_number(x) for x in line.split()])
    return comments, rows


def collect(workload: str, out_dir: str, exit_code: int) -> dict:
    """Read one execution's outputs into a result."""
    result = {"exit_code": exit_code, "verdicts": {}, "numbers": {},
              "limits": {}, "missing": []}
    if workload == "extension-2d":
        path = os.path.join(out_dir, "results.json")
        if not os.path.exists(path):
            result["missing"].append("results.json")
            return result
        with open(path) as fh:
            data = json.load(fh)
        result.update({k: data[k] for k in ("verdicts", "numbers", "limits")})
        return result

    reports = os.path.join(out_dir, "reports")
    nums = result["numbers"]
    for est in CLI_CONFIGS[workload]["estimates"]:
        path = os.path.join(reports, f"{est}.json")
        if not os.path.exists(path):
            result["missing"].append(f"{est}.json")
            continue
        with open(path) as fh:
            rep = json.load(fh)
        result["verdicts"][est] = rep["pass"]
        for key in ("fitted_constant", "validation_max_ratio",
                    "dilation_stability"):
            nums[f"{est}.{key}"] = rep[key]
    decay = os.path.join(reports, "decay_profile.txt")
    trace = os.path.join(reports, "boundary_trace.txt")
    if os.path.exists(decay):
        _, rows = _read_profile(decay)
        nums["profile.decay_sup"] = [r[1] for r in rows]
    else:
        result["missing"].append("decay_profile.txt")
    if os.path.exists(trace):
        comments, rows = _read_profile(trace)
        nums["profile.trace_c"] = _number(comments[0].split("=")[1].strip())
        nums["profile.trace_c_ts"] = [r[1] for r in rows]
    else:
        result["missing"].append("boundary_trace.txt")
    return result
