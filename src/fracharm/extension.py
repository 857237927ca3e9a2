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
the Bessel forms in log space, with e^x K_nu(x) from the trapezoid rule on its
integral representation (_kve).

Fields come from one forward transform of the boundary values (one function,
or a stack streamed by _levels); each level gathers its multipliers onto the
real-FFT half lattice from one symbol evaluation on the distinct |xi|.
extend_field returns an ExtensionField, which synthesizes each field on its
first read; its level_values(selector) is the one reader of a field component
level by level, and one table, _FIELD_KEYS, names each field's stream key.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .grid import (GridFunction, GridSpec, gradient_multipliers,
                   spectral_forward, spectral_synthesis)

_LOG_FLOOR = -690.0  # symbol values below e^-690 are returned as hard zero
# From x = 2 pi r = 1400 on, log m_s and log |m_s'| / (4 pi) lie below
# _LOG_FLOOR without evaluating K_nu: e^x K_nu(x) decreases in x and
# increases in nu, so e^x K_nu(x) <= e K_1(1) < 1.7 for nu <= 1 and x >= 1,
# and Gamma(s/2) >= 1, which bound the log by log(x/2) + 0.6 - x < -690.
_BESSEL_CUTOFF = 1400.0
# The trapezoid nodes of _kve reach u_max with x (cosh u_max - 1) >= _KV_TAIL
# for every x of a bucket, where the integrand has fallen by e^-38 < 4e-17.
_KV_TAIL = 38.0
# Cells of one exp grid of _kve (128 KB of float64): a larger bucket of x is
# evaluated in chunks of whole rows, one row per x
_KV_CELLS = 2**14


# One rule per dyadic bucket and pair of orders: a canonical run keeps at most
# 64 (1-D 35, 2-D 28, extension-2d 64), and 128, about 0.15 MB, hold that
# twice where a sweep over many orders s grew the cache without bound.
@functools.lru_cache(maxsize=128)
def _kve_rule(k: int, nus: tuple[float, ...]
              ) -> tuple[int, np.ndarray, np.ndarray]:
    """Trapezoid rule (q, c, W) for e^x K_nu(x), nu in nus, on the bucket
    2^k <= x < 2^(k+1).

    The nodes u_j run from 0 to u_max = acosh(1 + 38 / 2^k) with a step of at
    most min(0.2, 0.5 / sqrt(2^(k+1))), which resolves the integrand's width
    min(1, 1/sqrt(x)).  c_j = 2^-q (cosh u_j - 1) and W[i, j] = 2^-q times the
    step times cosh(nus[i] u_j), both found in longdouble and rounded once.
    The scale q is 0 unless x < 2^-1000, where cosh(u_max) leaves the float64
    range; then x is scaled by 2^q and the sum by 2^q in turn."""
    if k >= -1000:
        # acosh(1 + t), written so that it neither overflows nor rounds to 0
        t = _KV_TAIL * 2.0**-k
        q, u_max = 0, math.log1p(t + math.sqrt(t) * math.sqrt(t + 2))
    else:  # 38 / 2^k and cosh(u_max) would overflow
        q, u_max = 64, math.log(2 * _KV_TAIL) - k * math.log(2)
    n = math.ceil(u_max / min(0.2, 0.5 / math.sqrt(2.0) ** (k + 1)))
    step = u_max / n
    u = np.arange(n + 1) * np.longdouble(step)
    c = 2 * np.ldexp(np.sinh(u / 2), -q // 2) ** 2
    W = np.stack([np.ldexp(np.cosh(np.longdouble(nu) * u), -q) for nu in nus])
    W *= step
    W[:, 0] /= 2
    return q, c.astype(float), W.astype(float)


def _kve(nus: tuple[float, ...], x: np.ndarray,
         log: bool = False) -> list[np.ndarray]:
    """e^x K_nu(x), or its logarithm if log, at each x > 0 of the 1-D array
    x for each nu in nus, 0 < nu <= 1.  The logarithm stays finite where the
    value overflows.

    The trapezoid rule on e^x K_nu(x) = int_0^inf exp(-x (cosh u - 1))
    cosh(nu u) du converges exponentially in the step (Trefethen and
    Weideman, SIAM Review 2014); with the nodes of _kve_rule it agrees with
    the exact value to about 1e-15 relative.  Each dyadic bucket of x costs
    one exp grid, which the orders share, taken in chunks of at most
    _KV_CELLS cells.  Every value depends on its own x alone, whatever else
    x holds."""
    k = np.frexp(x)[1] - 1
    outs = [np.empty(x.shape) for _ in nus]
    # a bare np.unique would import numpy.ma (about 15 ms)
    for kb in np.unique(k, return_inverse=True)[0]:
        bucket = np.flatnonzero(k == kb)
        q, c, W = _kve_rule(int(kb), nus)
        step = max(1, _KV_CELLS // c.size)
        for lo in range(0, bucket.size, step):
            sel = bucket[lo:lo + step]
            grid = np.exp(np.multiply.outer(np.ldexp(x[sel], q), -c))
            for out, w in zip(outs, W):
                # a row sum of the contiguous grid, summed pairwise, per x
                v = (grid * w).sum(axis=1)
                out[sel] = (np.log(v) + q * math.log(2) if log
                            else np.ldexp(v, q))
    return outs


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

    def eval_m(self, r: np.ndarray) -> np.ndarray:
        """m_s at arbitrary radii r >= 0; r = 0 gives exactly 1."""
        return self._eval(r, dm=False)[0]

    def eval_dm(self, r: np.ndarray) -> np.ndarray:
        """m_s' at arbitrary radii r >= 0; r = 0 gives 0 by convention (it
        only ever multiplies |xi| = 0)."""
        return self._eval(r, m=False)[0]

    def eval_m_dm(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(eval_m(r), eval_dm(r)) from one shared evaluation."""
        return tuple(self._eval(r))

    def _eval(self, r: np.ndarray, m: bool = True,
              dm: bool = True) -> list[np.ndarray]:
        """[m_s(r)] if m, then [m_s'(r)] if dm: c (pi r)^{s/2} K_nu(2 pi r) /
        Gamma(s/2) for r > 0 with (nu, c) = (s/2, 2) and (1 - s/2, -4 pi),
        and 1 and 0 at r = 0.

        At s = 1 both orders are 1/2, and 2 (pi r)^{1/2} K_{1/2}(2 pi r) /
        Gamma(1/2) = e^{-2 pi r}: there m = e^{-x} and m' = -2 pi e^{-x} with
        x = 2 pi r, with no Bessel function, so m' = -2 pi m bit for bit."""
        r = np.asarray(r, dtype=float)
        terms = [t for t, want in (((self.s / 2, 2.0, 1.0), m),
                                   ((1 - self.s / 2, -4 * math.pi, 0.0), dm))
                 if want]
        pos = r > 0
        x_pos = 2 * np.pi * r[pos]
        near = np.flatnonzero(x_pos < _BESSEL_CUTOFF)
        x = x_pos[near]
        if self.s == 1:
            # (pi r)^{1/2} K_{1/2}(2 pi r) / Gamma(1/2) = e^{-x} / 2, so each
            # value is (c / 2) exp(-x)
            terms = [(nu, c / 2, at_zero) for nu, c, at_zero in terms]
            logvs = [-x] * len(terms)
        else:
            # in log space, with K_nu(x) = (e^x K_nu(x)) e^{-x}
            log_kves = _kve(tuple(nu for nu, _, _ in terms), x, log=True)
            logvs = [self.s / 2 * np.log(x / 2) + log_kv - x
                     - math.lgamma(self.s / 2) for log_kv in log_kves]
        outs = []
        for (_, c, at_zero), logv in zip(terms, logvs):
            keep = logv >= _LOG_FLOOR
            vals = np.zeros(x_pos.shape)
            vals[near[keep]] = c * np.exp(logv[keep])
            out = np.full(r.shape, at_zero)
            out[pos] = vals
            outs.append(out)
        return outs


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
        if not np.all(np.isfinite(ts)):
            raise ValueError(f"t-levels must be finite, got {ts}")
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
    if not 0 < t_min < t_max:  # before geomspace takes their logarithms
        raise ValueError(f"need 0 < t_min < t_max, got {t_min}, {t_max}")
    return TLevels(np.geomspace(t_min, t_max, M))


# each field's key in the stream _levels
_FIELD_KEYS = {"F": "F", "dF_dt": "t", "dF_dx": "x"}
# each selector of ExtensionField.level_values, and the fields it reads
_SELECTORS = {"value": ("F",), "dt": ("dF_dt",), "dx": ("dF_dx",),
              "gradient": ("dF_dt", "dF_dx")}


@dataclass(frozen=True, repr=False, eq=False)
class ExtensionField:
    """F(x,t) = P^s_t f(x) and the derivative fields extend_field was asked
    for, from the half spectrum coeffs of f and radial, per level m and
    |xi| m' on the distinct |xi|.

    F and dF_dt have shape (M, *grid) and dF_dx is a tuple of spec.n such
    arrays.  Each is None when absent, else synthesized on its first read
    and kept.  level_values(selector) is the one streaming reader: it
    synthesizes the fields of its selector per level and keeps nothing.
    carries, repr and == (identity) compute nothing."""

    spec: GridSpec
    s: float
    levels: TLevels
    coeffs: np.ndarray
    radial: list[tuple[np.ndarray, np.ndarray | None]]
    fields: tuple[str, ...]

    def __repr__(self) -> str:
        states = (k + ("=absent" if not self.carries(k) else "=held"
                       if k in self.__dict__ else "=deferred")
                  for k in _FIELD_KEYS)
        return (f"ExtensionField({self.spec}, s={self.s}, shape="
                f"{(self.levels.M, *self.spec.shape)}, {', '.join(states)})")

    def carries(self, name: str) -> bool:
        """Whether the field name ("F", "dF_dt" or "dF_dx") is present."""
        return name in self.fields

    def level_values(self, selector: str) -> Iterator[np.ndarray]:
        """The selected component level by level, each of shape grid: F
        ("value"), dF/dt ("dt"), |grad_x F| ("dx") or |grad_{x,t} F|
        ("gradient"), from one stream per field it reads, synthesized per
        level whether or not the field was read whole."""
        if selector not in _SELECTORS:
            raise ValueError(f"selector must be one of {tuple(_SELECTORS)}, "
                             f"got {selector!r}")
        # every field carries F, so only a derivative can be missing
        for name in _SELECTORS[selector]:
            if not self.carries(name):
                raise ValueError(f"selector {selector!r} needs the "
                                 f"{_FIELD_KEYS[name]}-derivative field")
        streams = [_levels(self.spec, self.coeffs, self.radial,
                           (_FIELD_KEYS[name],))
                   for name in _SELECTORS[selector]]
        if selector == "dx":
            return (np.sqrt(sum(g**2 for g in dx)) for dx in streams[0])
        if selector == "gradient":
            return (np.sqrt(dt[0]**2 + sum(g**2 for g in dx))
                    for dt, dx in zip(*streams))
        return (level[0] for level in streams[0])

    def _whole(self, name: str):
        """The field name of every level in one array, None if absent."""
        if not self.carries(name):
            return None
        out = np.empty((self.spec.n if name == "dF_dx" else 1, self.levels.M,
                        *self.spec.shape))
        for i, level in enumerate(_levels(self.spec, self.coeffs, self.radial,
                                          (_FIELD_KEYS[name],))):
            out[:, i] = level
        return tuple(out) if name == "dF_dx" else out[0]

    F = functools.cached_property(lambda self: self._whole("F"))
    dF_dt = functools.cached_property(lambda self: self._whole("dF_dt"))
    dF_dx = functools.cached_property(lambda self: self._whole("dF_dx"))


@dataclass(frozen=True)
class _RadialLayout:
    """The distinct |xi| of a grid's real-FFT half lattice.

    radii are the distinct |xi| in ascending order and inv, of half-lattice
    shape, the index of each point's radius.  weight is each point's
    Parseval weight: 1 on the last-axis columns 0 and N/2, which hold their
    own conjugates, and 2 elsewhere, over N^n, so that sum_x g(x)^2 =
    sum weight |g^|^2 for g^ from spectral_forward.  grad_weight is weight
    times sum_j (2 pi xi_j)^2, zeroed on the Nyquist rows as
    gradient_multipliers is, so that it weighs |grad g|^2 the same way."""

    radii: np.ndarray
    inv: np.ndarray
    weight: np.ndarray
    grad_weight: np.ndarray


@functools.lru_cache(maxsize=16)
def _radial_layout(spec: GridSpec) -> _RadialLayout:
    half = spec.frequency_magnitude()[..., : spec.N // 2 + 1]
    radii, inv = np.unique(half, return_inverse=True)
    weight = np.full(half.shape, 2.0 / spec.N**spec.n)
    weight[..., [0, -1]] /= 2
    grad_weight = weight * np.sum(gradient_multipliers(spec).imag ** 2, axis=0)
    layout = _RadialLayout(radii=radii, inv=inv.reshape(half.shape),
                           weight=weight, grad_weight=grad_weight)
    for arr in (radii, layout.inv, weight, grad_weight):
        arr.flags.writeable = False
    return layout


def _radial_power(layout: _RadialLayout, coeffs: np.ndarray,
                  weight: np.ndarray) -> np.ndarray:
    """The radial power P(r): the sum of weight |coeffs|^2 over the
    half-lattice points of radius r.  With weight = layout.weight,
    sum_x g(x)^2 = sum_r a(r)^2 P(r) for g the multiplier a(|xi|) applied to
    the values of coeffs."""
    p = weight * (coeffs.real**2 + coeffs.imag**2)
    return np.bincount(layout.inv.ravel(), weights=p.ravel(),
                       minlength=layout.radii.size)


def _radial_symbols(spec: GridSpec, sym: PoissonSymbol, levels: TLevels,
                    with_t: bool) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """Per level, m and |xi| m' (None unless with_t) on the distinct radii."""
    radii = _radial_layout(spec).radii
    for t in levels.ts:
        if with_t:
            m, dm = sym.eval_m_dm(t * radii)
            yield m, radii * dm
        else:
            yield sym.eval_m(t * radii), None


def _levels(spec: GridSpec, coeffs: np.ndarray, radial, fields: tuple[str, ...]
            ) -> Iterator[np.ndarray]:
    """Per (m, |xi| m') of radial, the named fields ("F", "t", "x") of the
    half spectrum coeffs: an array (k, *stack, *spec.shape) of F, dF/dt and
    dF/dx_1..dF/dx_n for those named, in this order."""
    inv = _radial_layout(spec).inv
    stack = tuple(range(1, coeffs.ndim - spec.n + 1))
    for m, tdm in radial:
        m_half = m[inv]
        parts = [m_half[None]] if "F" in fields else []
        if "t" in fields:
            parts.append(tdm[inv][None])
        if "x" in fields:
            parts.append(gradient_multipliers(spec) * m_half)
        yield spectral_synthesis(spec, coeffs, np.expand_dims(
            np.concatenate(parts, dtype=complex), stack))


def _harmonicity(ts: np.ndarray, i: int, s: float, tdm: list[np.ndarray],
                 m: np.ndarray, lap: np.ndarray, power: np.ndarray,
                 grad_power: np.ndarray | None) -> float:
    """Relative L2 residual of div(t^{1-s} grad F) = 0 at interior level i,
    by Parseval on the distinct radii.  tdm holds |xi| m' at levels i - 1,
    i and i + 1, m is m at level i and lap the symbol (2 pi |xi|)^2 of
    -Lap_x; power weighs |f^|^2 and grad_power (if the x-gradient counts in
    the scale) sum_j (2 pi xi_j)^2 |f^|^2, per radius."""
    t = ts[i]
    h1 = ts[i] - ts[i - 1]
    h2 = ts[i + 1] - ts[i]
    Ftt = (-h2 / (h1 * (h1 + h2)) * tdm[0]
           + (h2 - h1) / (h1 * h2) * tdm[1]
           + h1 / (h2 * (h1 + h2)) * tdm[2])
    resid = t ** (1 - s) * (Ftt - lap * m) + (1 - s) * t ** (-s) * tdm[1]
    grad2 = float(np.sum(tdm[1] ** 2 * power))
    if grad_power is not None:
        grad2 += float(np.sum(m**2 * grad_power))
    scale = t ** (1 - s) * math.sqrt(grad2)
    norm = math.sqrt(float(np.sum(resid**2 * power)))
    return norm / max(scale, 1e-300)


def extend_field(f: GridFunction, s: float, levels: TLevels,
                 with_derivatives: tuple[str, ...] = ("t", "x")
                 ) -> ExtensionField:
    """F(.,t) = m_s(t|xi|) f^(xi) on every level, plus requested derivative
    fields (t from the differentiated symbol, x spectrally), each synthesized
    on its first read (see ExtensionField) from one forward transform and one
    symbol evaluation per level on the distinct |xi|, from which
    s_harmonicity_residual also takes its sums when dF/dt is present.
    The levels must top out at or below 4L, as make_tlevels makes them for
    f's grid; levels made for a larger period raise ValueError, as do a
    stack and a derivative other than "t" and "x"."""
    spec = f.spec
    if f.values.ndim != spec.n:
        raise ValueError("extend_field takes one function, not a stack")
    if not set(with_derivatives) <= {"t", "x"}:
        raise ValueError(f"unknown with_derivatives {with_derivatives!r}")
    if not levels.ts[-1] <= 4 * spec.L * (1 + 1e-12):
        raise ValueError(f"top level {levels.ts[-1]} above 4L = {4 * spec.L} "
                         f"of the grid: the levels were made for another grid")
    coeffs = spectral_forward(spec, f.values)
    radial = list(_radial_symbols(spec, PoissonSymbol(s), levels,
                                  "t" in with_derivatives))
    fields = tuple(name for name, key in _FIELD_KEYS.items()
                   if key in ("F", *with_derivatives))
    return ExtensionField(spec, s, levels, coeffs, radial, fields)


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

    Both sides are radial multipliers of f^, -t^{1-s} |xi| m_s'(t|xi|) and
    (2 pi |xi|)^s, so their L2 inner products are sums over the distinct
    |xi| of the radial power of f (Parseval): one forward transform, and no
    field is synthesized.  Both tests are scale-free: f counts as degenerate
    when ||(-Delta)^{s/2} f|| <= 1e-14 (2 pi/L)^s ||f||, the lowest mode's
    gain, the sums are taken in units of the period, and the fit in u stays
    well scaled for any period."""
    spec = f.spec
    small_ts = np.asarray(small_ts, dtype=float)
    if (np.any(small_ts < spec.h / 4 * (1 - 1e-12))
            or np.any(small_ts > 8 * spec.h * (1 + 1e-12))):
        raise ValueError("small_ts must lie within [h/4, 8h]")
    layout = _radial_layout(spec)
    power = _radial_power(layout, spectral_forward(spec, f.values),
                          layout.weight)
    # both sides in units of the period, k = L |xi| and t / L, which scales
    # each by L^s, so that no period overflows or underflows them
    k = spec.L * layout.radii
    w = (2 * np.pi * k) ** s  # the frac_laplacian multiplier
    ww = float(np.sum(w**2 * power))
    if math.sqrt(ww) <= (1e-14 * (2 * np.pi) ** s
                         * math.sqrt(float(np.sum(power)))):
        raise ValueError("degenerate input: (-Delta)^{s/2} f vanishes")
    sym = PoissonSymbol(s)
    c_ts, residuals = [], []
    for t in small_ts:
        tau = t / spec.L
        g = -(tau ** (1 - s)) * (k * sym.eval_dm(tau * k))
        ct = float(np.sum(g * w * power) / ww)
        c_ts.append(ct)
        residuals.append(math.sqrt(float(np.sum((g - ct * w) ** 2 * power)))
                         / math.sqrt(ww))
    c_ts = np.array(c_ts)
    u = small_ts / spec.h
    basis = np.stack([np.ones_like(u), u ** (2 - s), u**2], axis=1)
    sol, *_ = np.linalg.lstsq(basis, c_ts, rcond=None)
    return BoundaryTraceResult(c=float(sol[0]), small_ts=small_ts, c_ts=c_ts,
                               residuals=np.array(residuals))


def s_harmonicity_residual(F: ExtensionField) -> list[tuple[float, float]]:
    """Relative L2 residual of div(t^{1-s} grad F) = 0 per interior level,
    as (t, residual) pairs.

    Written as t^{1-s} (F_tt + Lap_x F) + (1-s) t^{-s} F_t; F_t comes from the
    differentiated symbol, F_tt from a second-order non-uniform 3-point
    stencil across levels, and Lap_x F from the symbol -(2 pi |xi|)^2.  The
    residual is relative to t^{1-s} ||grad F||, with the x-gradient counted
    when the field carries it.  It is taken in units of the period (t / L
    and L |xi|), so it is dimensionless, L times the quotient in units of
    length, and a configuration reads the same at every period.  Every term
    is a radial multiplier of f^, so each call takes the L2 norms by
    Parseval from extend_field's symbol values, and no field is synthesized
    for them."""
    if not F.carries("dF_dt"):
        raise ValueError("extension field must carry the t-derivative")
    spec, radial = F.spec, F.radial
    layout = _radial_layout(spec)
    power = _radial_power(layout, F.coeffs, layout.weight)
    grad_power = (None if not F.carries("dF_dx") else spec.L**2
                  * _radial_power(layout, F.coeffs, layout.grad_weight))
    lap = (2 * np.pi * spec.L * layout.radii) ** 2
    taus = F.levels.ts / spec.L
    return [(float(F.levels.ts[i]), float(_harmonicity(
        taus, i, F.s, [spec.L * tdm for _, tdm in radial[i - 1: i + 2]],
        radial[i][0], lap, power, grad_power)))
        for i in range(1, F.levels.M - 1)]


def decay_profile(F: ExtensionField, k: int = 0) -> dict[str, np.ndarray]:
    """Per-level sup values: sup_x t^{n+k} |grad^k F| and sup_x t^k |grad^k F|."""
    if k not in (0, 1):
        raise ValueError("k must be 0 or 1")
    ts, n = F.levels.ts, F.spec.n
    if k == 1 and not (F.carries("dF_dt") and F.carries("dF_dx")):
        raise ValueError("k = 1 requires both derivative fields")
    levels = (map(np.abs, F.level_values("value")) if k == 0
              else F.level_values("gradient"))
    sup = np.array([np.max(v) for v in levels])
    return {
        "t": ts,
        "sup": sup,
        "weighted_l1": ts ** (n + k) * sup,
        "weighted_linf": ts**k * sup,
    }
