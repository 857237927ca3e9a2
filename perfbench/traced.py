"""Run one workload execution under the per-layer tracer.

    python3 perfbench/traced.py --trace-out trace.json MODULE ARGS...

imports MODULE (``fracharm.cli`` or ``extension_2d``) after wrapping the
functions of each ``fracharm`` layer listed in ``REPORTED``, calls
``MODULE.main(ARGS)``, writes the trace to ``--trace-out`` and exits with the code ``main`` gave.
The wrappers only time and count; they pass arguments and results through
untouched, so the execution writes the same outputs as an untraced one.

A span is one call of a wrapped function.  Its self time is its duration
minus the durations of the spans it directly encloses.  FFT calls (the
``numpy.fft`` and ``scipy.fft`` entry points) and ``numpy.roll`` calls are
counted, each charged to the layer of the innermost open span.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("grid", "multiplier_ops", "singular_ops", "extension", "norms",
          "commutators", "cli")
# The wrapped functions of each layer.  A layer's self time is the sum of
# theirs; a name a later version no longer defines is reported as absent.
REPORTED = {
    "grid": ("make_function", "fft_forward", "spectral_gradient"),
    "multiplier_ops": ("apply_symbol", "frac_laplacian", "riesz_transform",
                       "riesz_potential"),
    "singular_ops": ("frac_laplacian_quadrature", "riesz_potential_quadrature",
                     "hilbert_pv_quadrature"),
    "extension": ("get_symbol", "s_poisson_symbol", "extend_field",
                  "boundary_limit_check", "s_harmonicity_residual"),
    "norms": ("bmo_seminorm", "lorentz_norm", "lp_norm", "maximal_function",
              "square_function"),
    "commutators": ("verify_estimate", "jacobian_pairing"),
    "cli": ("parse_config", "main"),
}
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


class Tracer:
    """Span stack plus per-function and per-layer accumulators."""

    def __init__(self) -> None:
        # each open span is [layer, time spent in directly enclosed spans]
        self.stack: list[list] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        # plain dicts keyed by every layer keep the counting wrappers cheap
        self.fft_calls = dict.fromkeys(LAYERS, 0)
        self.roll_calls = dict.fromkeys(LAYERS, 0)
        self.verify_s: defaultdict = defaultdict(float)
        self.in_spans_s = 0.0
        self.absent: list[str] = []

    def span(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.calls[key] += 1
                self.self_s[key] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                else:
                    self.in_spans_s += dt
                if key == "commutators.verify_estimate":
                    est = args[0] if args else kwargs["d"]
                    self.verify_s[est.id] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, counts: dict, fn):
        stack = self.stack

        def wrapper(*args, **kwargs):
            if stack:
                counts[stack[-1][0]] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap the reported functions of each layer and the FFT and roll
        entry points, then rebind each wrapped object under every name that
        any ``fracharm`` module (the package ``__init__`` included) holds it
        by, so calls through ``from ... import`` names are seen as well."""
        import numpy
        import numpy.fft

        wrappers: dict = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"fracharm.{layer}")
            for name in REPORTED[layer]:
                obj = getattr(mod, name, None)
                if inspect.isfunction(obj):
                    wrappers[obj] = self.span(layer, name, obj)
                else:
                    self.absent.append(f"{layer}.{name}")

        sources = [(numpy, ("roll",), self.roll_calls),
                   (numpy.fft, FFT_NAMES, self.fft_calls)]
        if "scipy.fft" in sys.modules:
            sources.append((sys.modules["scipy.fft"], FFT_NAMES, self.fft_calls))
        for mod, names, counts in sources:
            for name in names:
                fn = getattr(mod, name, None)
                if fn is not None and fn not in wrappers:
                    wrappers[fn] = self.counter(counts, fn)
                    setattr(mod, name, wrappers[fn])

        for modname, mod in list(sys.modules.items()):
            if modname != "fracharm" and not modname.startswith("fracharm."):
                continue
            for name, obj in list(vars(mod).items()):
                try:
                    wrapped = wrappers.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapped is not None:
                    setattr(mod, name, wrapped)

    def report(self) -> dict:
        functions = {
            f"{layer}.{fn}": {"calls": self.calls[f"{layer}.{fn}"],
                              "self_s": self.self_s[f"{layer}.{fn}"]}
            for layer in LAYERS for fn in REPORTED[layer]
        }
        layers = {
            layer: {
                "self_s": sum(v for k, v in self.self_s.items()
                              if k.startswith(layer + ".")),
                "fft_calls": self.fft_calls[layer],
                "roll_calls": self.roll_calls[layer],
            }
            for layer in LAYERS
        }
        return {"functions": functions, "layers": layers,
                "verify_s": dict(self.verify_s),
                "in_spans_s": self.in_spans_s, "absent": self.absent}


def main() -> int:
    ap = argparse.ArgumentParser(description="Run a workload module traced.")
    ap.add_argument("--trace-out", required=True)
    ap.add_argument("module")
    ap.add_argument("args", nargs=argparse.REMAINDER)
    ns = ap.parse_args()

    tracer = Tracer()
    tracer.install()
    module = importlib.import_module(ns.module)
    try:
        code = module.main(ns.args)
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(ns.trace_out, "w") as fh:
            json.dump(tracer.report(), fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
