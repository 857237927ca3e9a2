"""
Fourier-multiplier operators on periodic grid functions.

Symbols act on the physical frequency xi = k/L.  The Riesz transform carries
the symbol -i*xi_j/|xi| (Hilbert transform in 1-D), the fractional Laplacian
(2*pi*|xi|)^s, and the Riesz potential (2*pi*|xi|)^{-s}.  All three declare
the value 0 at xi = 0: on the torus the mean mode is the obstruction to the
decaying-function setting and is handled explicitly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import (GridFunction, GridSpec, _per_row, _rows, hermitian_asymmetry,
                   spectral_apply)


@dataclass(frozen=True)
class SymbolDescriptor:
    """
    A frequency multiplier.

    fn maps the tuple of frequency arrays (xi_1, ..., xi_n) to a complex
    array of the same shape; at_zero is the declared finite value at xi = 0
    (substituted after evaluation, so fn may be singular there).
    """

    fn: Callable[..., np.ndarray]
    at_zero: complex = 0.0
    name: str = "symbol"


def _multiplier_array(spec: GridSpec, m: SymbolDescriptor) -> np.ndarray:
    xis = spec.frequencies()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        arr = np.asarray(m.fn(*xis), dtype=complex)
    if arr.shape != spec.shape:
        arr = np.broadcast_to(arr, spec.shape).astype(complex)
    zero = (0,) * spec.n
    arr = arr.copy()
    arr[zero] = m.at_zero
    if not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(
            f"symbol {m.name!r} is not finite at lattice index {tuple(bad)}"
        )
    # Hermitian compatibility: m(-xi) must equal conj(m(xi)), or
    # spectral_apply, which reads half the lattice, would silently symmetrise
    # the symbol.  Nyquist rows are their own negatives, so the multiplier
    # must be real there; the imaginary part is dropped (this zeroes odd
    # symbols at k = -N/2).
    nyq = spec.nyquist_mask()
    arr[nyq] = arr[nyq].real
    mismatch = hermitian_asymmetry(arr)
    scale = max(float(np.max(np.abs(arr))), 1e-300)
    if mismatch > 1e-10 * scale:
        raise ValueError(
            f"symbol {m.name!r} is not Hermitian-compatible: "
            f"max |m(-xi) - conj(m(xi))| = {mismatch:.3e}"
        )
    return arr


def l2_norm(f: GridFunction) -> float:
    """Discrete L2 norm (sum |f|^2 h^n)^(1/2); one per row of a stack."""
    return _per_row(np.sqrt(np.sum(_rows(f.spec, f.values) ** 2, axis=-1)
                            * f.spec.cell_volume))


def apply_symbol(f: GridFunction, m: SymbolDescriptor) -> GridFunction:
    """Apply a Fourier multiplier; a symbol that is not Hermitian-compatible
    is rejected with ValueError, since its output would not be real."""
    arr = _multiplier_array(f.spec, m)
    return GridFunction(f.spec, spectral_apply(f.spec, f.values, arr))


def _magnitude(xis) -> np.ndarray:
    return np.sqrt(sum(x**2 for x in xis))


@functools.lru_cache(maxsize=16)
def _builtin_multiplier(spec: GridSpec, op: str, param) -> np.ndarray:
    """Read-only real-FFT half [..., :N//2+1] of a built-in multiplier.

    The key is (grid, operator, order or axis).  Each entry is built once by
    _multiplier_array, so its finiteness and Hermitian checks run once per
    key; a failed build raises and stores nothing."""
    def riesz(*xis):
        return -1j * xis[param - 1] / _magnitude(xis)

    def frac_lap(*xis):
        return (2 * np.pi * _magnitude(xis)) ** param

    def potential(*xis):
        return (2 * np.pi * _magnitude(xis)) ** (-param)

    fn, name = {"riesz_transform": (riesz, f"riesz_{param}"),
                "frac_laplacian": (frac_lap, f"fracLap_{param}"),
                "riesz_potential": (potential, f"rieszPot_{param}")}[op]
    full = _multiplier_array(spec, SymbolDescriptor(fn, at_zero=0.0, name=name))
    half = full[..., : spec.N // 2 + 1].copy()
    half.flags.writeable = False
    return half


def _apply_builtin(f: GridFunction, op: str, param) -> GridFunction:
    mult = _builtin_multiplier(f.spec, op, param)
    return GridFunction(f.spec, spectral_apply(f.spec, f.values, mult))


def riesz_transform(f: GridFunction, j: int) -> GridFunction:
    """Riesz transform along axis j (1-based); the Hilbert transform in 1-D."""
    if not (1 <= j <= f.spec.n):
        raise ValueError(f"axis j must be in 1..{f.spec.n}, got {j}")
    return _apply_builtin(f, "riesz_transform", j)


def frac_laplacian(f: GridFunction, s: float) -> GridFunction:
    """Fractional Laplacian (-Delta)^{s/2}, symbol (2*pi*|xi|)^s."""
    if not (s > 0):
        raise ValueError(f"order s must be positive, got {s}")
    return _apply_builtin(f, "frac_laplacian", s)


def riesz_potential(f: GridFunction, s: float, tol: float = 1e-8) -> GridFunction:
    """Riesz potential I^s, symbol (2*pi*|xi|)^{-s}; requires negligible mean."""
    if not (0 < s < f.spec.n):
        raise ValueError(f"order s must lie in (0, n) = (0, {f.spec.n}), got {s}")
    scales = np.maximum(np.ravel(l2_norm(f)), 1e-300)
    for mean, scale in zip(np.ravel(f.mean()), scales):
        if abs(mean) * f.spec.L ** (f.spec.n / 2) > tol * scale:
            raise ValueError(
                f"riesz_potential requires negligible mean: mean = {mean:.3e}, "
                f"tolerance {tol:.1e} * ||f||_2 = {tol * scale:.3e}"
            )
    return _apply_builtin(f, "riesz_potential", s)


def mean_projected(f: GridFunction) -> tuple[GridFunction, float]:
    """Subtract the mean; returns (projected function, removed mass).  A
    stack has its row means subtracted and removes their array."""
    mean = f.mean()
    shift = np.reshape(mean, np.shape(mean) + (1,) * f.spec.n)
    return GridFunction(f.spec, f.values - shift), mean
