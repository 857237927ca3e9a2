"""
Scalar functionals on grid functions and extension fields.

Lebesgue, Lorentz, Slobodeckij, BMO, and Hoelder (semi)norms; the
Hardy-Littlewood maximal function; continuous Besov / Triebel-Lizorkin
functionals built from the extension; regular and nontangential square
functions; Carleson tent suprema; and the tent pairing bound.

Suprema over balls and tents range over a dyadic-radius TentFamily and are
therefore lower bounds of the continuum suprema; comparisons elsewhere are
made like-for-like over the same family.  All dt/t integrals use log-spaced
trapezoid weights over the truncated level range [t_1, t_M].
"""

from __future__ import annotations

import functools
import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .extension import ExtensionField, TLevels, extend_field
from .grid import (GridFunction, GridSpec, spectral_apply, spectral_forward,
                   spectral_gradient, spectral_synthesis)
from .multiplier_ops import frac_laplacian
from .singular_ops import _offsets

_INF = float("inf")


@dataclass(frozen=True)
class LorentzExponents:
    """Lorentz space exponents (p, q); the convention L^(inf,inf) = L^inf."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (self.p > 1):
            raise ValueError(f"primary exponent p must lie in (1, inf], got {self.p}")
        if not (self.q >= 1):
            raise ValueError(f"secondary exponent q must lie in [1, inf], got {self.q}")
        if math.isinf(self.p) and not math.isinf(self.q):
            raise ValueError("p = inf requires q = inf (L^(inf,inf) = L^inf)")


@dataclass(frozen=True)
class TentFamily:
    """Dyadic ball/tent family: radii {2^m h} up to L/2, centers on a stride."""

    spec: GridSpec
    radii: tuple[float, ...]
    center_stride: int = 1

    def __post_init__(self) -> None:
        if self.center_stride < 1:
            raise ValueError("center_stride must be >= 1")
        radii = tuple(float(r) for r in self.radii)
        if not radii or any(r <= 0 for r in radii):
            raise ValueError("radii must be positive")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("radii must be strictly increasing")
        if radii[-1] > self.spec.L / 2 * (1 + 1e-12):
            raise ValueError("radii must not exceed L/2")
        object.__setattr__(self, "radii", radii)

    @staticmethod
    def standard(spec: GridSpec, center_stride: int = 1) -> "TentFamily":
        radii = []
        r = spec.h
        while r <= spec.L / 2 * (1 + 1e-12):
            radii.append(r)
            r *= 2
        return TentFamily(spec=spec, radii=tuple(radii),
                          center_stride=center_stride)


# ---------------------------------------------------------------------------
# Ball machinery (shared by BMO, maximal function, cones, and tents)


def _ball_kernel(spec: GridSpec, r: float, strict: bool = False
                 ) -> tuple[np.ndarray, int]:
    """Indicator of the ball of radius r around the origin and its cell count."""
    dist = _offsets(spec)[1].reshape(spec.shape)
    mask = dist < r if strict else dist <= r * (1 + 1e-12)
    return mask.astype(float), int(np.count_nonzero(mask))


def _ball_sum(spec: GridSpec, values: np.ndarray,
              kernel: np.ndarray) -> np.ndarray:
    """Circular convolution sum over the ball at each center; kernel is an
    even indicator on the grid, or a stack of them."""
    axes = tuple(range(-spec.n, 0))
    return spectral_apply(spec, values, np.fft.fftn(kernel, axes=axes))


# Cells one gather of the BMO search holds (256 KB of float64 values and as
# many int64 indices), or one ball where a single ball is larger
_GATHER_CELLS = 2**15


@dataclass(frozen=True)
class _BallGeometry:
    """Grid-constant data of a TentFamily's balls, one row per radius.

    counts are the cell counts, spectrum the real-FFT half of the ball
    indicators (a stack for spectral_apply).  For gathers from a copy of the
    grid padded by N/2 on every side, offsets[i] holds the flat offsets of
    the cells of ball i and centers the flat indices of the centres."""

    counts: np.ndarray
    spectrum: np.ndarray
    offsets: tuple[np.ndarray, ...]
    centers: np.ndarray


@functools.lru_cache(maxsize=8)
def _ball_geometry(tents: TentFamily) -> _BallGeometry:
    spec = tents.spec
    offsets, dist = _offsets(spec)
    inside = np.stack([dist <= r * (1 + 1e-12) for r in tents.radii])
    kernels = inside.reshape((-1,) + spec.shape).astype(float)
    axes = tuple(range(-spec.n, 0))
    spectrum = np.fft.fftn(kernels, axes=axes)[..., : spec.N // 2 + 1].copy()
    # the minimum-image offset y of a centre x is the flat index of x + y
    place = (2 * spec.N) ** np.arange(spec.n - 1, -1, -1)
    balls = tuple((offsets[m] + spec.N // 2) @ place for m in inside)
    centers = np.indices((len(range(0, spec.N, tents.center_stride)),)
                         * spec.n).reshape(spec.n, -1).T
    centers = (centers * tents.center_stride) @ place
    counts = inside.sum(axis=1)
    for arr in (counts, spectrum, *balls, centers):
        arr.flags.writeable = False
    return _BallGeometry(counts=counts, spectrum=spectrum, offsets=balls,
                         centers=centers)


def _oscillations(padded: np.ndarray, ball: np.ndarray, centers: np.ndarray,
                  means: np.ndarray, count: int) -> np.ndarray:
    """Mean oscillations of one ball around each of the flat centres, given
    the ball means; one 2-D gather whose rows sum pairwise as a 1-D sum
    would."""
    cells = padded[centers[:, None] + ball[None, :]]
    return np.abs(cells - means[:, None]).sum(axis=1) / count


def _decimate(arr: np.ndarray, stride: int) -> np.ndarray:
    if stride == 1:
        return arr
    sl = (slice(None, None, stride),) * arr.ndim
    return arr[sl]


# ---------------------------------------------------------------------------
# Lebesgue and Lorentz norms


def lp_norm(f: GridFunction, p: float) -> float:
    """L^p norm as a Riemann sum with cell volume h^n; p = inf is max |f|."""
    if not (p >= 1):
        raise ValueError(f"exponent p must lie in [1, inf], got {p}")
    a = np.abs(f.values)
    if math.isinf(p):
        return float(np.max(a))
    return float((np.sum(a**p) * f.spec.cell_volume) ** (1 / p))


def lorentz_norm(f: GridFunction, e: LorentzExponents) -> float:
    """Lorentz quasi-norm via the decreasing rearrangement f*.

    |f| sorted descending defines the step function f* with steps of measure
    h^n; the integral of (t^(1/p) f*(t))^q dt/t is evaluated in closed form
    per step, so the result is exact for the step function and invariant
    under permutations of the cell values.
    """
    if math.isinf(e.p):
        return lp_norm(f, _INF)
    vals = np.sort(np.abs(f.values).ravel())[::-1]
    cell = f.spec.cell_volume
    edges = np.arange(len(vals) + 1, dtype=float) * cell
    if math.isinf(e.q):
        return float(np.max(vals * edges[1:] ** (1 / e.p)))
    p, q = e.p, e.q
    pieces = (p / q) * (edges[1:] ** (q / p) - edges[:-1] ** (q / p))
    return float(np.sum(vals**q * pieces) ** (1 / q))


# ---------------------------------------------------------------------------
# Smoothness seminorms


def slobodeckij_seminorm(f: GridFunction, nu: float, p: float) -> float:
    """Gagliardo double integral (II |f(x)-f(y)|^p / |x-y|^(n+nu p))^(1/p)
    with the periodic minimum-image metric; diagonal cells excluded."""
    if not (0 < nu < 1):
        raise ValueError(f"smoothness nu must lie in (0, 1), got {nu}")
    if not (1 <= p < _INF):
        raise ValueError(f"exponent p must lie in [1, inf), got {p}")
    spec = f.spec
    if spec.n == 2 and spec.N > 96:
        raise ValueError("slobodeckij_seminorm in 2-D requires N <= 96")
    if spec.n == 1 and spec.N > 4096:
        raise ValueError("slobodeckij_seminorm in 1-D requires N <= 4096")
    offsets, dist = _offsets(spec)
    v = f.values
    acc = 0.0
    for off, d in zip(offsets, dist):
        if d == 0.0:
            continue
        shift = [-int(o) for o in off]
        diff = np.roll(v, shift=shift, axis=tuple(range(spec.n))) - v
        acc += float(np.sum(np.abs(diff) ** p)) * d ** (-(spec.n + nu * p))
    return (acc * spec.cell_volume**2) ** (1 / p)


# Bound on the entries of the bmo_seminorm memo; each holds one float and a
# 32-byte digest, and one harness run makes 120 distinct calls.
_BMO_MEMO_SIZE = 1024
_BMO_MEMO: OrderedDict[tuple, float] = OrderedDict()


def bmo_seminorm(f: GridFunction, tents: TentFamily | None = None) -> float:
    """Supremum over the ball family of the mean oscillation
    |B|^(-1) int_B |f - f_B|.

    The result is ``_bmo_pruned``, memoised per process in an LRU of 1024
    floats keyed by the grid, the family and a blake2b digest of the values'
    bytes, so estimates that share a test function search it once."""
    tents = tents if tents is not None else TentFamily.standard(f.spec)
    key = (f.spec, tents,
           hashlib.blake2b(f.values.tobytes(), digest_size=32).digest())
    value = _BMO_MEMO.get(key)
    if value is None:
        value = _BMO_MEMO[key] = _bmo_pruned(f, tents)
        if len(_BMO_MEMO) > _BMO_MEMO_SIZE:
            _BMO_MEMO.popitem(last=False)
    else:
        _BMO_MEMO.move_to_end(key)
    return value


def _bmo_pruned(f: GridFunction, tents: TentFamily | None = None) -> float:
    """The mean-oscillation sup of ``bmo_seminorm`` without the memo.

    The result is the exact sup over the family, found by pruning.  By
    Cauchy-Schwarz the mean oscillation of a ball is at most its standard
    deviation sqrt(E_B[f^2] - f_B^2), and FFT ball sums of f and f^2 give
    that bound at every (radius, center) pair; 1e-12 max|f|^2 under the root
    keeps it an upper bound despite rounding.  Pairs are visited in
    descending order of the bound, in blocks of doubling size, and a block
    drops the pairs whose bound no longer exceeds the best value found
    before the L^1 oscillation is summed over the cells of the rest.
    ``_bmo_direct``, the full sum at every pair, is the test oracle.
    """
    spec = f.spec
    tents = tents if tents is not None else TentFamily.standard(spec)
    v = f.values
    scale = float(np.max(np.abs(v)))
    if scale == 0.0:
        return 0.0
    geo = _ball_geometry(tents)
    cnt = geo.counts
    # the moments of f and of f / max|f| (which cannot overflow) in one apply
    sums = spectral_apply(spec, np.stack([v, (v / scale) ** 2])[:, None],
                          geo.spectrum)
    centers_only = (slice(None),) * 2 + (slice(None, None, tents.center_stride),
                                         ) * spec.n
    mean, mean2 = sums[centers_only].reshape(2, len(cnt), -1) / cnt[:, None]
    var = mean2 - (mean / scale) ** 2
    bound = scale * np.sqrt(np.maximum(var, 0.0) + 1e-12).ravel()
    padded = np.pad(v, spec.N // 2, mode="wrap").ravel()

    def block_max(block: np.ndarray) -> float:
        """Largest oscillation over the flat (radius, center) pairs."""
        radius, center = np.divmod(block, len(geo.centers))
        top = 0.0
        for i in np.unique(radius):
            cs = center[radius == i]
            step = max(1, _GATHER_CELLS // int(cnt[i]))
            for lo in range(0, len(cs), step):
                c = cs[lo:lo + step]
                osc = _oscillations(padded, geo.offsets[i], geo.centers[c],
                                    mean[i, c], cnt[i])
                top = max(top, float(np.max(osc)))
        return top

    best = block_max(np.argmax(bound)[None])
    candidates = np.flatnonzero(bound > best)
    candidates = candidates[np.argsort(bound[candidates])[::-1]]
    start, size = 0, 2
    while start < len(candidates):
        block = candidates[start:start + size]
        block = block[bound[block] > best]
        if not block.size:
            break
        best = max(best, block_max(block))
        start, size = start + size, 2 * size
    return best


def _bmo_direct(f: GridFunction, tents: TentFamily | None = None) -> float:
    """Mean-oscillation sup summed at every (radius, center) pair by one
    full-grid roll per ball offset; the test oracle of ``bmo_seminorm``."""
    spec = f.spec
    tents = tents if tents is not None else TentFamily.standard(spec)
    v = f.values
    offsets, dist = _offsets(spec)
    axes = tuple(range(spec.n))
    best = 0.0
    for r in tents.radii:
        kernel, cnt = _ball_kernel(spec, r)
        mean = _ball_sum(spec, v, kernel) / cnt
        osc = np.zeros_like(v)
        for off, d in zip(offsets, dist):
            if d > r * (1 + 1e-12):
                continue
            osc += np.abs(np.roll(v, shift=[-int(o) for o in off], axis=axes)
                          - mean)
        osc /= cnt
        best = max(best, float(np.max(_decimate(osc, tents.center_stride))))
    return best


def holder_seminorm(f: GridFunction, nu: float) -> float:
    """Hoelder seminorm: sup pairs |f(x)-f(y)| / d(x,y)^nu for nu < 1;
    for nu = 1 the Lipschitz bound sup |grad f| with the spectral gradient."""
    if not (0 < nu <= 1):
        raise ValueError(f"smoothness nu must lie in (0, 1], got {nu}")
    spec = f.spec
    if nu == 1.0:
        grads = spectral_gradient(f)
        mag = np.sqrt(sum(g.values**2 for g in grads))
        return float(np.max(mag))
    offsets, dist = _offsets(spec)
    v = f.values
    best = 0.0
    for off, d in zip(offsets, dist):
        if d == 0.0:
            continue
        diff = np.roll(v, shift=[-int(o) for o in off],
                       axis=tuple(range(spec.n))) - v
        best = max(best, float(np.max(np.abs(diff))) / d**nu)
    return best


def maximal_function(f: GridFunction,
                     tents: TentFamily | None = None) -> GridFunction:
    """Hardy-Littlewood maximal function over the dyadic ball family; the
    smallest ball is the cell itself, so Mf >= |f| pointwise."""
    spec = f.spec
    tents = tents if tents is not None else TentFamily.standard(spec)
    a = np.abs(f.values)
    out = a.copy()
    geo = _ball_geometry(tents)
    for sums, cnt in zip(spectral_apply(spec, a, geo.spectrum), geo.counts):
        np.maximum(out, sums / cnt, out=out)
    return GridFunction(spec, out)


# ---------------------------------------------------------------------------
# Extension-based functionals


_SELECTORS = ("value", "dt", "dx", "gradient")


def _field_stack(F: ExtensionField, selector: str) -> np.ndarray:
    """Per-level arrays of the selected field component (shape (M, *grid))."""
    if selector not in _SELECTORS:
        raise ValueError(f"selector must be one of {_SELECTORS}, got {selector!r}")
    if selector == "value":
        return F.F
    if selector in ("dt", "gradient") and F.dF_dt is None:
        raise ValueError(f"selector {selector!r} needs the t-derivative field")
    if selector in ("dx", "gradient") and F.dF_dx is None:
        raise ValueError(f"selector {selector!r} needs the x-derivative field")
    if selector == "dt":
        return F.dF_dt
    if selector == "dx":
        return np.sqrt(sum(g**2 for g in F.dF_dx))
    return np.sqrt(F.dF_dt**2 + sum(g**2 for g in F.dF_dx))


_DERIVATIVES = ("frac-laplacian", "dt", "dx")


def space_functional(f: GridFunction, kind: str, alpha: float, beta: float,
                     p: float, q: float, s: float, levels: TLevels,
                     derivative: str = "frac-laplacian") -> float:
    """Continuous Besov / Triebel-Lizorkin functional of smoothness alpha.

    The level function is G_t = P^s_t (-Delta)^(beta/2) f (derivative
    "frac-laplacian"), d/dt P^s_t f ("dt", effective beta = 1), or
    |grad_x P^s_t f| ("dx", effective beta = 1), weighted by t^(beta - alpha).
    kind "besov" composes L^q(dt/t) of L^p(dx) norms; "triebel" composes
    L^p(dx) of the pointwise L^q(dt/t) integral.
    """
    if kind not in ("besov", "triebel"):
        raise ValueError(f"kind must be 'besov' or 'triebel', got {kind!r}")
    if derivative not in _DERIVATIVES:
        raise ValueError(
            f"derivative must be one of {_DERIVATIVES}, got {derivative!r}")
    if not (0 < s < 2):
        raise ValueError(f"extension order s must lie in (0, 2), got {s}")
    if not (p >= 1) or not (q >= 1):
        raise ValueError(f"exponents must lie in [1, inf], got p={p}, q={q}")
    spec = f.spec
    if derivative == "frac-laplacian":
        if not beta > max(alpha, 0.0):
            raise ValueError(
                f"derivative 'frac-laplacian' requires beta > max(alpha, 0); "
                f"got alpha={alpha}, beta={beta}")
        g = frac_laplacian(f, beta)
        G = extend_field(g, s, levels, with_derivatives=()).F
        beta_eff = beta
    elif derivative == "dt":
        if not alpha < s:
            raise ValueError(
                f"derivative 'dt' requires alpha < s; got alpha={alpha}, s={s}")
        G = extend_field(f, s, levels, with_derivatives=("t",)).dF_dt
        beta_eff = 1.0
    else:
        if not alpha < 1:
            raise ValueError(
                f"derivative 'dx' requires alpha < 1; got alpha={alpha}")
        Ffield = extend_field(f, s, levels, with_derivatives=("x",))
        G = np.sqrt(sum(gj**2 for gj in Ffield.dF_dx))
        beta_eff = 1.0
    ts = levels.ts
    wlog = levels.log_trapezoid_weights()
    wt = ts ** (beta_eff - alpha)

    if kind == "besov":
        per_level = np.array(
            [lp_norm(GridFunction(spec, G[i]), p) for i in range(levels.M)]
        )
        vals = wt * per_level
        if math.isinf(q):
            return float(np.max(vals))
        return float(np.sum(wlog * vals**q) ** (1 / q))

    absG = np.abs(G)
    if math.isinf(q):
        inner = np.max(wt.reshape((-1,) + (1,) * spec.n) * absG, axis=0)
    else:
        weighted = (wt.reshape((-1,) + (1,) * spec.n) * absG) ** q
        inner = np.tensordot(wlog, weighted, axes=(0, 0)) ** (1 / q)
    return lp_norm(GridFunction(spec, inner), p)


def square_function(F: ExtensionField, mode: str = "regular",
                    weight: float = 1.0,
                    selector: str = "dt") -> GridFunction:
    """Square function of the selected field component.

    mode "regular":  S(x)^2 = int (t^w |G(x,t)|)^2 dt/t.
    mode "nontangential": the cone integral
        S(x)^2 = int int_{|y-x| < t} (t^w |G(y,t)|)^2 dy dt / t^(n+1).
    """
    if mode not in ("regular", "nontangential"):
        raise ValueError(
            f"mode must be 'regular' or 'nontangential', got {mode!r}")
    spec = F.spec
    G = _field_stack(F, selector)
    ts = F.levels.ts
    wlog = F.levels.log_trapezoid_weights()
    if mode == "regular":
        weighted = (ts.reshape((-1,) + (1,) * spec.n) ** weight * G) ** 2
        s2 = np.tensordot(wlog, weighted, axes=(0, 0))
    else:
        s2 = np.zeros(spec.shape)
        for i, t in enumerate(ts):
            kernel, _ = _ball_kernel(spec, t, strict=True)
            cone = _ball_sum(spec, G[i] ** 2, kernel)
            s2 += wlog[i] * t ** (2 * weight - spec.n) * cone * spec.cell_volume
    return GridFunction(spec, np.sqrt(np.maximum(s2, 0.0)))


def carleson_sup(F: ExtensionField, weight: float = 1.0,
                 selector: str = "gradient",
                 tents: TentFamily | None = None) -> float:
    """Supremum over tents T(B) = {(y,t) : |y - x| < r - t} of
    (|B|^(-1) int_T t^w |G|^2 dy dt)^(1/2); |G|^2 is transformed forward
    once, as one stack of levels, for all (radius, level) pairs."""
    spec = F.spec
    tents = tents if tents is not None else TentFamily.standard(spec)
    G = _field_stack(F, selector)
    ts = F.levels.ts
    wlog = F.levels.log_trapezoid_weights()
    g2_hat = spectral_forward(spec, G**2)
    best = 0.0
    for r, cnt in zip(tents.radii, _ball_geometry(tents).counts):
        measure = cnt * spec.cell_volume
        acc = np.zeros(spec.shape)
        for i, t in enumerate(ts):
            if t >= r:
                continue
            kernel, _ = _ball_kernel(spec, r - t, strict=True)
            acc += wlog[i] * t ** (1 + weight) * spectral_synthesis(
                spec, g2_hat[i], np.fft.fftn(kernel))
        acc *= spec.cell_volume / measure
        top = float(np.max(_decimate(acc, tents.center_stride)))
        best = max(best, math.sqrt(max(top, 0.0)))
    return best


def tent_pairing_bound_check(Phi: ExtensionField, G: ExtensionField,
                             phi_selector: str = "dt",
                             g_selector: str = "dt",
                             tents: TentFamily | None = None) -> float:
    """Ratio int int t^2 |Phi G| dy dt/t over the product
    carleson_sup(Phi, w=1) * ||nontangential square of G (w=1)||_1.

    Both fields enter through the stated selector.  Returns 0 when the
    pairing vanishes and inf when only the bound side vanishes.
    """
    if Phi.spec != G.spec or not np.array_equal(Phi.levels.ts, G.levels.ts):
        raise ValueError("fields must share the same grid and t-levels")
    spec = Phi.spec
    P = _field_stack(Phi, phi_selector)
    Q = _field_stack(G, g_selector)
    ts = Phi.levels.ts
    wlog = Phi.levels.log_trapezoid_weights()
    lhs = float(sum(
        w * t**2 * np.sum(np.abs(P[i] * Q[i]))
        for i, (t, w) in enumerate(zip(ts, wlog))
    ) * spec.cell_volume)
    if lhs == 0.0:
        return 0.0
    c = carleson_sup(Phi, weight=1.0, selector=phi_selector, tents=tents)
    a = lp_norm(square_function(G, "nontangential", weight=1.0,
                                selector=g_selector), 1)
    denom = c * a
    if denom == 0.0:
        return _INF
    return lhs / denom
