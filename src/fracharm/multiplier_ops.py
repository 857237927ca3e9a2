"""
Fourier-multiplier operators on periodic grid functions.

Symbols act on the physical frequency xi = k/L.  The Riesz transform carries
the symbol -i*xi_j/|xi| (Hilbert transform in 1-D), the fractional Laplacian
(2*pi*|xi|)^s, and the Riesz potential (2*pi*|xi|)^{-s}.  All three declare
the value 0 at xi = 0: on the torus the mean mode is the obstruction to the
decaying-function setting and is handled explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import GridFunction, GridSpec, hermitian_asymmetry, spectral_apply


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
    with np.errstate(divide="ignore", invalid="ignore"):
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
    """Discrete L2 norm (sum |f|^2 h^n)^(1/2)."""
    return float(np.sqrt(np.sum(f.values**2) * f.spec.cell_volume))


def apply_symbol(f: GridFunction, m: SymbolDescriptor) -> GridFunction:
    """Apply a Fourier multiplier; a symbol that is not Hermitian-compatible
    is rejected with ValueError, since its output would not be real."""
    arr = _multiplier_array(f.spec, m)
    return GridFunction(f.spec, spectral_apply(f.spec, f.values, arr))


def riesz_transform(f: GridFunction, j: int) -> GridFunction:
    """Riesz transform along axis j (1-based); the Hilbert transform in 1-D."""
    if not (1 <= j <= f.spec.n):
        raise ValueError(f"axis j must be in 1..{f.spec.n}, got {j}")

    def fn(*xis):
        mag = np.sqrt(sum(x**2 for x in xis))
        return -1j * xis[j - 1] / mag

    return apply_symbol(f, SymbolDescriptor(fn, at_zero=0.0, name=f"riesz_{j}"))


def frac_laplacian(f: GridFunction, s: float) -> GridFunction:
    """Fractional Laplacian (-Delta)^{s/2}, symbol (2*pi*|xi|)^s."""
    if not (s > 0):
        raise ValueError(f"order s must be positive, got {s}")

    def fn(*xis):
        mag = np.sqrt(sum(x**2 for x in xis))
        return (2 * np.pi * mag) ** s

    return apply_symbol(f, SymbolDescriptor(fn, at_zero=0.0, name=f"fracLap_{s}"))


def riesz_potential(f: GridFunction, s: float, tol: float = 1e-8) -> GridFunction:
    """Riesz potential I^s, symbol (2*pi*|xi|)^{-s}; requires negligible mean."""
    if not (0 < s < f.spec.n):
        raise ValueError(f"order s must lie in (0, n) = (0, {f.spec.n}), got {s}")
    mean = f.mean()
    scale = max(l2_norm(f), 1e-300)
    if abs(mean) * f.spec.L ** (f.spec.n / 2) > tol * scale:
        raise ValueError(
            f"riesz_potential requires negligible mean: mean = {mean:.3e}, "
            f"tolerance {tol:.1e} * ||f||_2 = {tol * scale:.3e}"
        )

    def fn(*xis):
        mag = np.sqrt(sum(x**2 for x in xis))
        return (2 * np.pi * mag) ** (-s)

    return apply_symbol(f, SymbolDescriptor(fn, at_zero=0.0, name=f"rieszPot_{s}"))


def mean_projected(f: GridFunction) -> tuple[GridFunction, float]:
    """Subtract the mean; returns (projected function, removed mass)."""
    mean = f.mean()
    return GridFunction(f.spec, f.values - mean), mean
