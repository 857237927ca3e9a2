"""
Classical and generalized Poisson extensions to the upper half-space.

The extension F(x,t) of f is computed spectrally: F(.,t) applies the radial
symbol m_s(t|xi|) where

    m_s(r) = (1/Gamma(s/2)) * int_0^inf lambda^{s/2} e^{-lambda - (pi r)^2/lambda}
             dlambda/lambda
           = 2 (pi r)^{s/2} K_{s/2}(2 pi r) / Gamma(s/2),

normalized so m_s(0) = 1; for s = 1 this reduces to e^{-2 pi r}.  The
t-derivative field uses m_s'(r) = -4 pi (pi r)^{s/2} K_{1-s/2}(2 pi r) /
Gamma(s/2) (Caffarelli-Silvestre, Comm. PDE 2007).  PoissonSymbol evaluates
the Bessel forms in log space; the lambda-integral form is kept as the
quadrature oracle symbol_value / symbol_derivative_value.

Fields are produced level by level by extension_levels: the boundary values
(one function or a stack) are transformed forward once, and each level
builds its multipliers on the real-FFT half lattice from one symbol
evaluation on the distinct |xi| and synthesizes the requested fields.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma, gammaln, kve

from .grid import (GridFunction, GridSpec, gradient_multipliers,
                   spectral_apply, spectral_forward, spectral_synthesis)
from .multiplier_ops import frac_laplacian, l2_norm

_LOG_FLOOR = -690.0  # symbol values below e^-690 are returned as hard zero
# From x = 2 pi r = 1400 on, log m_s and log |m_s'| / (4 pi) lie below
# _LOG_FLOOR without evaluating K_nu: e^x K_nu(x) decreases in x and
# increases in nu, so kve(nu, x) <= kve(1, 1) < 1.7 for nu <= 1 and x >= 1,
# and Gamma(s/2) >= 1, which bound the log by log(x/2) + 0.6 - x < -690.
_BESSEL_CUTOFF = 1400.0


def _lambda_integral(a: float, b: float, rtol: float = 1e-12) -> float:
    """int_0^inf lambda^a e^{-lambda - b/lambda} dlambda/lambda for b > 0.

    Integrated in v = log(lambda) with the peak magnitude factored out so the
    quadrature stays well-scaled for all b."""
    from scipy.integrate import quad  # deferred: ~0.2 s of import time
    if b <= 0:
        raise ValueError("b must be positive")
    e0 = a * 0.5 * math.log(b) - 2.0 * math.sqrt(b)
    if e0 < _LOG_FLOOR:
        return 0.0

    def g(v: float) -> float:
        return math.exp(a * v - math.exp(v) - b * math.exp(-v) - e0)

    lo = math.log(b / 750.0)
    hi = math.log(750.0)
    val, err = quad(g, lo, hi, epsabs=1e-300, epsrel=rtol, limit=400)
    if not np.isfinite(val) or (val > 0 and err > 1e-6 * val):
        raise ArithmeticError(
            f"symbol quadrature did not converge (a={a}, b={b}, "
            f"value={val}, error={err})"
        )
    return val * math.exp(e0)


def symbol_value(s: float, r: float, rtol: float = 1e-12) -> float:
    """m_s(r), the normalized radial Fourier symbol of the Poisson kernel."""
    if r == 0.0:
        return 1.0
    b = (math.pi * r) ** 2
    return _lambda_integral(s / 2, b, rtol) / gamma(s / 2)


def symbol_derivative_value(s: float, r: float, rtol: float = 1e-12) -> float:
    """m_s'(r) by differentiation under the integral sign."""
    if r == 0.0:
        return 0.0
    b = (math.pi * r) ** 2
    return -2 * math.pi**2 * r * _lambda_integral(s / 2 - 1, b, rtol) / gamma(s / 2)


@dataclass(frozen=True)
class PoissonSymbol:
    """Closed-form radial symbol m_s(r) and its derivative m_s'(r).

    Values whose logarithm lies below _LOG_FLOOR are returned as exact 0
    without being exponentiated, so large radii give 0 with no floating-point
    underflow and no subnormals."""

    s: float

    def __post_init__(self) -> None:
        if not (0 < self.s < 2):
            raise ValueError(f"order s must lie in (0, 2), got {self.s}")

    def _eval(self, r: np.ndarray, nu: float, c: float,
              at_zero: float) -> np.ndarray:
        """c (pi r)^{s/2} K_nu(2 pi r) / Gamma(s/2) for r > 0, at_zero at 0."""
        r = np.asarray(r, dtype=float)
        out = np.full(r.shape, at_zero)
        x = 2 * np.pi * r[r > 0]
        vals = np.zeros(x.shape)
        near = np.flatnonzero(x < _BESSEL_CUTOFF)
        x = x[near]
        # in log space, with K_nu(x) = kve(nu, x) e^{-x}
        logv = (self.s / 2 * np.log(x / 2) + np.log(kve(nu, x)) - x
                - gammaln(self.s / 2))
        keep = logv >= _LOG_FLOOR
        vals[near[keep]] = c * np.exp(logv[keep])
        out[r > 0] = vals
        return out

    def eval_m(self, r: np.ndarray) -> np.ndarray:
        """m_s at arbitrary radii r >= 0; r = 0 gives exactly 1."""
        return self._eval(r, self.s / 2, 2.0, 1.0)

    def eval_dm(self, r: np.ndarray) -> np.ndarray:
        """m_s' at arbitrary radii r >= 0; r = 0 gives 0 by convention (it
        only ever multiplies |xi| = 0)."""
        return self._eval_dm(np.asarray(r, dtype=float), None)

    def _eval_dm(self, r: np.ndarray, m: np.ndarray | None) -> np.ndarray:
        """eval_dm(r), given m = eval_m(r) when the caller holds it.

        At s = 1 both Bessel orders are 1/2, so m' = -2 pi m, and this holds
        exactly in binary floating point: (-4 pi) e = (-2 pi) (2 e).  There
        m' is taken from m, keeping +0 at r = 0 and where m is floored."""
        if self.s != 1:
            return self._eval(r, 1 - self.s / 2, -4 * math.pi, 0.0)
        m = self.eval_m(r) if m is None else m
        return np.where((r > 0) & (m > 0), -2 * math.pi * m, 0.0)


def s_poisson_symbol(s: float, r_grid: np.ndarray,
                     tolerance: float = 1e-8) -> PoissonSymbol:
    """The Poisson symbol of order s.  The closed form holds at every radius
    to rounding, so r_grid and tolerance select nothing."""
    return PoissonSymbol(s)


def get_symbol(s: float, r_min: float, r_max: float,
               tolerance: float = 1e-8) -> PoissonSymbol:
    """The Poisson symbol of order s; the range and tolerance select nothing.
    Kept because the benchmark's tracer reports it by name."""
    return PoissonSymbol(s)


# ---------------------------------------------------------------------------
# t-levels and extension fields


@dataclass(frozen=True)
class TLevels:
    """Ascending log-spaced heights with log-trapezoid weights for dt/t."""

    ts: np.ndarray

    def __post_init__(self) -> None:
        ts = np.asarray(self.ts, dtype=float)
        if ts.ndim != 1 or len(ts) < 3:
            raise ValueError("need at least 3 t-levels")
        if np.any(ts <= 0) or np.any(np.diff(ts) <= 0):
            raise ValueError("t-levels must be positive and increasing")
        object.__setattr__(self, "ts", ts)

    @property
    def M(self) -> int:
        return len(self.ts)

    def log_trapezoid_weights(self) -> np.ndarray:
        """Weights w_i so that sum w_i g(t_i) approximates int g(t) dt/t."""
        u = np.log(self.ts)
        w = np.zeros_like(u)
        w[0] = (u[1] - u[0]) / 2
        w[-1] = (u[-1] - u[-2]) / 2
        w[1:-1] = (u[2:] - u[:-2]) / 2
        return w


def make_tlevels(spec: GridSpec, t_min: float | None = None,
                 t_max: float | None = None, M: int = 32) -> TLevels:
    """Standard log-spaced levels respecting t_1 >= h/8, t_M <= 4L, M >= 16."""
    t_min = spec.h / 8 if t_min is None else t_min
    t_max = 4 * spec.L if t_max is None else t_max
    # written so that a NaN bound fails too
    if not t_min >= spec.h / 8 * (1 - 1e-12):
        raise ValueError(f"t_min {t_min} below h/8 = {spec.h / 8}")
    if not t_max <= 4 * spec.L * (1 + 1e-12):
        raise ValueError(f"t_max {t_max} above 4L = {4 * spec.L}")
    if M < 16:
        raise ValueError(f"need M >= 16 levels, got {M}")
    return TLevels(np.geomspace(t_min, t_max, M))


@dataclass(frozen=True)
class ExtensionField:
    """Values of F(x,t) = P^s_t f(x) and optional derivative fields.

    F has shape (M, *grid); dF_dt likewise when present; dF_dx is a list of
    per-axis arrays of the same shape."""

    spec: GridSpec
    s: float
    levels: TLevels
    F: np.ndarray
    dF_dt: np.ndarray | None = None
    dF_dx: tuple[np.ndarray, ...] | None = None
    boundary: GridFunction | None = None

    def __post_init__(self) -> None:
        want = (self.levels.M, *self.spec.shape)
        if self.F.shape != want:
            raise ValueError(f"F has shape {self.F.shape}, expected {want}")
        for arr in (self.dF_dt, *(self.dF_dx or ())):
            if arr is not None and arr.shape != want:
                raise ValueError("derivative field shape mismatch")


def extension_levels(spec: GridSpec, values: np.ndarray, s: float,
                     levels: TLevels, fields: tuple[str, ...],
                     symbol: PoissonSymbol | None = None
                     ) -> Iterator[np.ndarray]:
    """Yield, level by level, fields of the extensions of boundary values.

    values has shape (*stack, *spec.shape) and is transformed forward once.
    fields names some of "F", "t" and "x"; each level yields a new array of
    shape (k, *stack, *spec.shape) holding, in this order, F, dF/dt and
    dF/dx_1..dF/dx_n for those named.  Per level the symbol is evaluated once
    on the distinct |xi|, and the multipliers [m, |xi| m', 2 pi i xi_j m] are
    gathered onto the real-FFT half lattice."""
    sym = symbol if symbol is not None else PoissonSymbol(s)
    half = spec.frequency_magnitude()[..., : spec.N // 2 + 1]
    radii, inv = np.unique(half, return_inverse=True)
    inv = inv.reshape(half.shape)
    coeffs = spectral_forward(spec, values)
    k = ("F" in fields) + ("t" in fields) + spec.n * ("x" in fields)
    mults = np.empty((k, *half.shape), dtype=complex)
    # the multipliers broadcast over the stack axes of coeffs
    stacked = mults.reshape((k,) + (1,) * (values.ndim - spec.n) + half.shape)
    for t in levels.ts:
        m = sym.eval_m(t * radii)
        m_half = m[inv]
        j = 0
        if "F" in fields:
            mults[j] = m_half
            j += 1
        if "t" in fields:
            mults[j] = (radii * sym._eval_dm(t * radii, m))[inv]
            j += 1
        if "x" in fields:
            np.multiply(gradient_multipliers(spec), m_half, out=mults[j:])
        yield spectral_synthesis(spec, coeffs, stacked)


def extend_field(f: GridFunction, s: float, levels: TLevels,
                 with_derivatives: tuple[str, ...] = ("t", "x"),
                 symbol: PoissonSymbol | None = None) -> ExtensionField:
    """Compute F(.,t) = m_s(t|xi|) f^(xi) on every level, plus requested
    derivative fields (t from the differentiated symbol, x spectrally)."""
    spec = f.spec
    shape = (levels.M, *spec.shape)
    F = np.empty(shape)
    dF_dt = np.empty(shape) if "t" in with_derivatives else None
    dF_dx = (tuple(np.empty(shape) for _ in range(spec.n))
             if "x" in with_derivatives else None)
    outs = [F, *([] if dF_dt is None else [dF_dt]), *(dF_dx or ())]
    fields = ("F", *with_derivatives)
    for i, level in enumerate(extension_levels(spec, f.values, s, levels,
                                               fields, symbol)):
        for out, g in zip(outs, level):
            out[i] = g
    return ExtensionField(
        spec=spec, s=s, levels=levels, F=F, dF_dt=dF_dt, dF_dx=dF_dx, boundary=f
    )


@dataclass(frozen=True)
class BoundaryTraceResult:
    """Fitted constant in lim_{t->0} -t^{1-s} dF/dt = c (-Delta)^{s/2} f."""

    c: float
    small_ts: np.ndarray
    c_ts: np.ndarray
    residuals: np.ndarray


def boundary_limit_check(f: GridFunction, s: float,
                         small_ts: np.ndarray) -> BoundaryTraceResult:
    """Least-squares constants c_t between -t^{1-s} dF/dt and (-Delta)^{s/2} f,
    extrapolated to t = 0 with the basis {1, u^{2-s}, u^2} in u = t/h;
    small_ts ascend and number at least 3.

    Both tests are scale-free: f counts as degenerate when
    ||(-Delta)^{s/2} f|| <= 1e-14 (2 pi/L)^s ||f||, the lowest mode's gain,
    and the fit in u stays well scaled for any period."""
    spec = f.spec
    small_ts = np.asarray(small_ts, dtype=float)
    if np.any(small_ts < spec.h / 4 * (1 - 1e-12)) or np.any(
        small_ts > 8 * spec.h * (1 + 1e-12)
    ):
        raise ValueError("small_ts must lie within [h/4, 8h]")
    w = frac_laplacian(f, s)
    if l2_norm(w) <= 1e-14 * (2 * np.pi / spec.L) ** s * l2_norm(f):
        raise ValueError("degenerate input: (-Delta)^{s/2} f vanishes")
    w, ww = w.values, np.sum(w.values**2)
    dF_dt = extend_field(f, s, TLevels(small_ts), with_derivatives=("t",)).dF_dt
    c_ts, residuals = [], []
    for t, dF in zip(small_ts, dF_dt):
        g = -(t ** (1 - s)) * dF
        ct = float(np.sum(g * w) / ww)
        c_ts.append(ct)
        residuals.append(float(np.sqrt(np.sum((g - ct * w) ** 2)) / np.sqrt(ww)))
    c_ts = np.array(c_ts)
    u = small_ts / spec.h
    basis = np.stack([np.ones_like(u), u ** (2 - s), u**2], axis=1)
    sol, *_ = np.linalg.lstsq(basis, c_ts, rcond=None)
    return BoundaryTraceResult(
        c=float(sol[0]), small_ts=small_ts, c_ts=c_ts,
        residuals=np.array(residuals),
    )


def s_harmonicity_residual(F: ExtensionField) -> list[tuple[float, float]]:
    """Relative L2 residual of div(t^{1-s} grad F) = 0 per interior level.

    Written as t^{1-s} (F_tt + Lap_x F) + (1-s) t^{-s} F_t; F_t comes from the
    differentiated symbol, F_tt from a second-order non-uniform 3-point
    stencil across levels, and Lap_x F is spectral."""
    if F.dF_dt is None:
        raise ValueError("extension field must carry the t-derivative")
    ts = F.levels.ts  # a TLevels holds at least 3 levels
    s = F.s
    spec = F.spec
    mag2 = (2 * np.pi * spec.frequency_magnitude()) ** 2
    out = []
    for i in range(1, len(ts) - 1):
        t = ts[i]
        h1 = ts[i] - ts[i - 1]
        h2 = ts[i + 1] - ts[i]
        Ftt = (
            -h2 / (h1 * (h1 + h2)) * F.dF_dt[i - 1]
            + (h2 - h1) / (h1 * h2) * F.dF_dt[i]
            + h1 / (h2 * (h1 + h2)) * F.dF_dt[i + 1]
        )
        lap = -spectral_apply(spec, F.F[i], mag2)
        resid = t ** (1 - s) * (Ftt + lap) + (1 - s) * t ** (-s) * F.dF_dt[i]
        grad2 = F.dF_dt[i] ** 2
        if F.dF_dx is not None:
            for g in F.dF_dx:
                grad2 = grad2 + g[i] ** 2
        scale = t ** (1 - s) * math.sqrt(float(np.sum(grad2)))
        norm = math.sqrt(float(np.sum(resid**2)))
        out.append((float(t), norm / max(scale, 1e-300)))
    return out


def decay_profile(F: ExtensionField, k: int = 0) -> dict[str, np.ndarray]:
    """Per-level sup values: sup_x t^{n+k} |grad^k F| and sup_x t^k |grad^k F|."""
    if k not in (0, 1):
        raise ValueError("k must be 0 or 1")
    ts = F.levels.ts
    n = F.spec.n
    if k == 0:
        sup = np.max(np.abs(F.F), axis=tuple(range(1, F.F.ndim)))
    else:
        if F.dF_dt is None or F.dF_dx is None:
            raise ValueError("k = 1 requires both derivative fields")
        g2 = F.dF_dt**2
        for g in F.dF_dx:
            g2 = g2 + g**2
        sup = np.max(np.sqrt(g2), axis=tuple(range(1, g2.ndim)))
    return {
        "t": ts,
        "sup": sup,
        "weighted_l1": ts ** (n + k) * sup,
        "weighted_linf": ts**k * sup,
    }
