"""Every number of the canonical outputs, pinned within stated bounds.

The gate runs in-process, at seed 1000:

* ``fracharm run`` on the benchmark's run-1d config (1-D N=1024, the eight
  1-D estimates) and run-2d config (2-D N=64, four estimates), reading the
  JSON reports, ``samples.csv``, ``decay_profile.txt`` and
  ``boundary_trace.txt``;
* ``run(1000)`` of ``perfbench/extension_2d.py``, loaded by path;
* the ``fracharm ops-check`` table.

Exit codes, verdicts, integers and strings must match the checked-in
fixture exactly.  Floats must match within 1e-13 relative, except:

* ``dilation_stability``, a drift r/r0 - 1 that rounding alone moves near
  0: 1e-13 absolute;
* the five identity-suite errors of ``ops-check``, rounding residues:
  1e-13 absolute;
* ``residual_max`` of extension-2d, which amplifies the fields' rounding
  about 1e5-fold: 1e-9 relative.

A change that moves a number on purpose rewrites the fixture with

    PYTHONPATH=src python tests/test_canonical_numbers.py --record

and lists each moved number.
"""

import contextlib
import csv
import importlib.util
import io
import json
import math
import sys
import tempfile
from pathlib import Path

from fracharm import cli

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "canonical_numbers.json"
SEED = 1000
RUNS = ("run-1d", "run-2d")
PROFILES = ("decay_profile.txt", "boundary_trace.txt")
IDENTITY_CHECKS = ("hilbert_involution", "semigroup", "potential_inverse",
                   "riesz_sum_of_squares", "mixed_partials_via_riesz")


def _perfbench(name: str):
    """A perfbench script as a module, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _token(text: str):
    """A token of a text output: an int, a float, or the string itself."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of cli.main(argv)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _run(workload: str, out_dir: str) -> dict:
    _, argv = _perfbench("workloads").program_args(workload, SEED, out_dir)
    code, _ = _cli(argv)
    reports = Path(argv[argv.index("--out") + 1])
    files = {p.name: json.loads(p.read_text())
             for p in sorted(reports.glob("*.json"))}
    with open(reports / "samples.csv", newline="") as fh:
        files["samples.csv"] = [[_token(t) for t in row]
                                for row in csv.reader(fh)]
    for name in PROFILES:
        files[name] = [[_token(t) for t in line.split()]
                       for line in (reports / name).read_text().splitlines()]
    return {"exit_code": code, "files": files}


def _ops_check() -> dict:
    code, table = _cli(["ops-check"])
    # PASS  <name>  error=<e>  tolerance=<t>
    rows = {}
    for line in table.splitlines():
        verdict, name, error, tolerance = line.split()
        rows[name] = {"pass": verdict == "PASS",
                      "error": float(error.removeprefix("error=")),
                      "tolerance": float(tolerance.removeprefix("tolerance="))}
    return {"exit_code": code, "table": rows}


def canonical_numbers() -> dict:
    """Everything the gate compares, as the fixture holds it."""
    out = {}
    for workload in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            out[workload] = _run(workload, tmp)
    out["extension-2d"] = _perfbench("extension_2d").run(SEED)
    out["ops-check"] = _ops_check()
    return json.loads(json.dumps(out))


def _bound(path: tuple) -> tuple[float, float]:
    """(relative, absolute) tolerance of the float at path."""
    if path[-1] == "dilation_stability":
        return 0.0, 1e-13
    if path[0] == "ops-check" and path[-2] in IDENTITY_CHECKS:
        return 0.0, 1e-13
    if path[-1].endswith(".residual_max"):
        return 1e-9, 0.0
    return 1e-13, 0.0


def _mismatches(path: tuple, want, got):
    """(path, wanted, got) of every value of got out of its bound."""
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            yield path, sorted(want), sorted(got)
        else:
            for k in want:
                yield from _mismatches(path + (k,), want[k], got[k])
    elif isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            yield path + ("len",), len(want), len(got)
        else:
            for i, (w, g) in enumerate(zip(want, got)):
                yield from _mismatches(path + (str(i),), w, g)
    elif type(want) is float and type(got) is float:
        rel, abs_ = _bound(path)
        if not (want == got or math.isclose(want, got, rel_tol=rel,
                                            abs_tol=abs_)):
            yield path, want, got
    elif type(want) is not type(got) or want != got:
        yield path, want, got


def test_canonical_numbers_match_the_fixture():
    want = json.loads(FIXTURE.read_text())
    moved = list(_mismatches((), want, canonical_numbers()))
    assert not moved, (
        f"{len(moved)} canonical numbers out of bound, the first: "
        + "; ".join(f"{'/'.join(p)}: {w!r} -> {g!r}" for p, w, g in moved[:10])
        + f". To refresh on purpose: PYTHONPATH=src python "
          f"tests/{Path(__file__).name} --record")


def test_the_gate_sees_a_moved_float():
    want = json.loads(FIXTURE.read_text())
    got = json.loads(FIXTURE.read_text())
    ratio = got["run-1d"]["files"]["crw-bmo.json"]["samples"][3]
    ratio["ratio"] *= 1 + 1e-12
    got["run-1d"]["exit_code"] += 1
    assert [p[-1] for p, _, _ in _mismatches((), want, got)] == [
        "exit_code", "ratio"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(canonical_numbers(), indent=1,
                                  sort_keys=True) + "\n")
