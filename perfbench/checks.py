"""Correctness checks of one workload execution.

With a recorded reference (``reference/<workload>-seed<seed>.json``) every
exit code and verdict must match exactly and every number must lie within
the tolerance of its kind, the last component of its name:

  kind                      rtol   atol   why
  fitted_constant           1e-9   1e-12  no planned change touches these
  validation_max_ratio      1e-9   1e-12  beyond ~1e-13 rewrites (pruned BMO,
  boundary                  1e-9   1e-12  rfft engine, FFT-applied quadrature)
  dilation_stability        1e-9   1e-9   a drift |r/r0 - 1|, often ~1e-16
  error                     1e-6   1e-12  quadrature error ~1e-3 of |a|, so a
                                          1e-12 change in b moves it ~1e-9
  decay_sup, trace_c,       1e-4   1e-12  depend on the extension symbol; the
  trace_c_ts, residual_max,               closed-form symbol moves them by at
  square_l2, extension                    most 4e-6 here (its table error is
                                          3e-7 on m_s and 8e-5 on m_s')

Scaling the order s of ``frac_laplacian`` by 1.001 moves fitted constants
by 1.7e-5 or more, trace constants by 1.3e-3 or more and oracle errors by
25% or more, far outside these tolerances, so a wrong operator fails.

Every execution is also held to invariants, which are all a seed with no
reference gets: exit code 0 or 1 with no traceback (0 for extension-2d),
every number finite, the two Jacobian routes within 5% of each other, and
each oracle error within the program's ``ORACLE_TOLERANCE_SCHEDULE``.
"""

from __future__ import annotations

import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

TOLERANCES = {
    "fitted_constant": (1e-9, 1e-12),
    "validation_max_ratio": (1e-9, 1e-12),
    "boundary": (1e-9, 1e-12),
    "dilation_stability": (1e-9, 1e-9),
    "error": (1e-6, 1e-12),
    "decay_sup": (1e-4, 1e-12),
    "trace_c": (1e-4, 1e-12),
    "trace_c_ts": (1e-4, 1e-12),
    "residual_max": (1e-4, 1e-12),
    "square_l2": (1e-4, 1e-12),
    "extension": (1e-4, 1e-12),
}
JACOBIAN_AGREEMENT = 0.05


def reference_path(workload: str, seed: int) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}-seed{seed}.json")


def load_reference(workload: str, seed: int) -> dict | None:
    path = reference_path(workload, seed)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def _values(x) -> list:
    return list(x) if isinstance(x, list) else [x]


def _close(name: str, got, want) -> bool:
    rtol, atol = TOLERANCES[name.rsplit(".", 1)[1]]
    got, want = _values(got), _values(want)
    return len(got) == len(want) and all(
        abs(g - w) <= rtol * abs(w) + atol for g, w in zip(got, want))


def check(workload: str, result: dict, stderr: str,
          reference: dict | None) -> list[tuple[str, bool]]:
    """(check name, passed) for every check made on one execution."""
    out = []
    code = result["exit_code"]
    if reference is not None:
        code_ok = code == reference["exit_code"]
    else:
        code_ok = code in ((0,) if workload == "extension-2d" else (0, 1))
    out.append(("process", code_ok and not result["missing"]
                and "Traceback (most recent call last)" not in stderr))

    nums = result["numbers"]
    for name, value in sorted(nums.items()):
        out.append((f"{name}:finite",
                     all(math.isfinite(v) for v in _values(value))))
    if "jacobian.boundary" in nums and "jacobian.extension" in nums:
        a, b = nums["jacobian.boundary"], nums["jacobian.extension"]
        out.append(("jacobian:routes_agree",
                    a != 0 and abs(b / a - 1.0) <= JACOBIAN_AGREEMENT))
    limit = result["limits"].get("oracle_tolerance")
    for name in sorted(n for n in nums if n.startswith("oracle.")):
        out.append((f"{name}:within_schedule",
                    limit is not None and nums[name] <= limit))

    if reference is not None:
        for name, want in sorted(reference["verdicts"].items()):
            out.append((f"{name}:verdict", result["verdicts"].get(name) == want))
        for name, want in sorted(reference["numbers"].items()):
            out.append((f"{name}:reference",
                        name in nums and _close(name, nums[name], want)))
    return out
