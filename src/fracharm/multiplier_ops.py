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


def _settled(spec: GridSpec, arr: np.ndarray, at_zero: complex,
             name: str) -> np.ndarray:
    """A complex copy of the multiplier arr (full lattice or real-FFT half),
    at_zero at xi = 0, refused if not finite, and real on the Nyquist rows,
    their own negatives (this zeroes odd symbols at k = -N/2)."""
    arr = np.array(arr, dtype=complex)
    arr[(0,) * spec.n] = at_zero
    if not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(
            f"symbol {name!r} is not finite at lattice index {tuple(bad)}"
        )
    nyq = spec.nyquist_mask()[..., : arr.shape[-1]]
    arr[nyq] = arr[nyq].real
    return arr


def _multiplier_array(spec: GridSpec, m: SymbolDescriptor) -> np.ndarray:
    xis = spec.frequencies()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        arr = np.asarray(m.fn(*xis), dtype=complex)
    arr = _settled(spec, np.broadcast_to(arr, spec.shape), m.at_zero, m.name)
    # m(-xi) must equal conj(m(xi)): spectral_apply reads half the lattice,
    # so it would silently symmetrise any other symbol
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


@functools.lru_cache(maxsize=16)
def _builtin_multiplier(spec: GridSpec, op: str, param) -> np.ndarray:
    """Read-only real-FFT half [..., :N//2+1] of a built-in multiplier.

    The key is (grid, operator, order or axis).  Each entry is evaluated on
    the half lattice alone, the symbols being Hermitian by construction, and
    checked for finiteness once; a failed build raises and stores nothing."""
    cut = (..., slice(spec.N // 2 + 1))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        mag = spec.frequency_magnitude()[cut]
        if op == "riesz_transform":
            name, arr = "riesz", -1j * spec.frequencies()[param - 1][cut] / mag
        elif op == "frac_laplacian":
            name, arr = "fracLap", (2 * np.pi * mag) ** param
        else:
            name, arr = "rieszPot", (2 * np.pi * mag) ** (-param)
    arr = _settled(spec, arr, 0.0, f"{name}_{param}")
    arr.flags.writeable = False
    return arr


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


def riesz_potential(f: GridFunction, s: float) -> GridFunction:
    """Riesz potential I^s, symbol (2*pi*|xi|)^{-s}; requires negligible
    mean: the L2 norm of the mean part, |mean| L^(n/2), at most 1e-8 ||f||_2
    (per row of a stack)."""
    if not (0 < s < f.spec.n):
        raise ValueError(f"order s must lie in (0, n) = (0, {f.spec.n}), got {s}")
    scales = np.maximum(np.ravel(l2_norm(f)), 1e-300)
    for mean, scale in zip(np.ravel(f.mean()), scales):
        mass = abs(mean) * f.spec.L ** (f.spec.n / 2)
        if mass > 1e-8 * scale:
            raise ValueError(
                f"riesz_potential requires negligible mean: |mean| L^(n/2) = "
                f"{mass:.3e} exceeds 1e-8 * ||f||_2 = {1e-8 * scale:.3e}"
            )
    return _apply_builtin(f, "riesz_potential", s)


def mean_projected(f: GridFunction) -> tuple[GridFunction, float]:
    """Subtract the mean; returns (projected function, removed mass).  A
    stack has its row means subtracted and removes their array."""
    mean = f.mean()
    shift = np.reshape(mean, np.shape(mean) + (1,) * f.spec.n)
    return GridFunction(f.spec, f.values - shift), mean
