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

from .extension import ExtensionField, TLevels, _field_levels, extend_field
from .grid import (GridFunction, GridSpec, _per_row, _rows, spectral_apply,
                   spectral_forward, spectral_gradient, spectral_synthesis)
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


def _balls(spec: GridSpec, counts):
    """Yield, for each cell count c in counts, the indicator of grid shape
    of the ball of c cells around the origin: the c offsets nearest it, in
    whole distance shells.  An open ball {|y| < r} and a closed ball
    {|y| <= r} are the balls of their cell counts."""
    dist = _offsets(spec)[1].reshape(spec.shape)
    shells = np.sort(dist, axis=None)
    for c in counts:
        yield (dist <= shells[c - 1]).astype(float)


def _open_ball_spectra(spec: GridSpec, radii_per_level):
    """Yield, level by level, the real-FFT half spectra of the open balls
    {|y| < r} for the radii r > 0 of that level.  Each distinct ball is
    transformed once, and held only until the last level that uses it."""
    dist = np.sort(_offsets(spec)[1])
    counts = [np.searchsorted(dist, radii).tolist()  # cells with |y| < r
              for radii in radii_per_level]
    last = {c: i for i, level in enumerate(counts) for c in level}
    balls = _balls(spec, last)  # in the order of first use
    held: dict[int, np.ndarray] = {}
    for i, level in enumerate(counts):
        for c in level:
            if c not in held:
                held[c] = spectral_forward(spec, next(balls))
        yield [held[c] for c in level]
        held = {c: b for c, b in held.items() if last[c] > i}


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
    counts = np.searchsorted(  # cells with |y| <= r (1 + 1e-12)
        np.sort(dist), np.multiply(tents.radii, 1 + 1e-12), side="right")
    kernels = np.stack(list(_balls(spec, counts)))
    spectrum = spectral_forward(spec, kernels)
    # the minimum-image offset y of a centre x is the flat index of x + y
    place = (2 * spec.N) ** np.arange(spec.n - 1, -1, -1)
    balls = tuple((offsets[m.ravel() > 0] + spec.N // 2) @ place
                  for m in kernels)
    centers = np.indices((len(range(0, spec.N, tents.center_stride)),)
                         * spec.n).reshape(spec.n, -1).T
    centers = (centers * tents.center_stride) @ place
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


def _root(total, p: float):
    """total ** (1/p) by scalar pow, as one function's norm (not array pow)."""
    return _per_row(np.reshape([t ** (1 / p) for t in np.ravel(total)],
                               np.shape(total)))


def _decimate(arr: np.ndarray, stride: int) -> np.ndarray:
    if stride == 1:
        return arr
    sl = (slice(None, None, stride),) * arr.ndim
    return arr[sl]


# ---------------------------------------------------------------------------
# Lebesgue and Lorentz norms


def lp_norm(f: GridFunction, p: float) -> float:
    """L^p norm as a Riemann sum with cell volume h^n; p = inf is max |f|.
    A stack gives one norm per row."""
    if not (p >= 1):
        raise ValueError(f"exponent p must lie in [1, inf], got {p}")
    a = np.abs(_rows(f.spec, f.values))
    top = np.max(a, axis=-1)
    if math.isinf(p):
        return _per_row(top)
    # max|f| h^(n/p) (sum (|f|/max|f|)^p)^(1/p): no period or p overflows
    a = a / np.where(top > 0, top, 1.0)[..., None]
    return (_per_row(top) * f.spec.cell_volume ** (1 / p)
            * _root(np.sum(a**p, axis=-1), p))


def lorentz_norm(f: GridFunction, e: LorentzExponents) -> float:
    """Lorentz quasi-norm via the decreasing rearrangement f*.

    |f| sorted descending defines the step function f* with steps of measure
    h^n; the integral of (t^(1/p) f*(t))^q dt/t is evaluated in closed form
    per step, so the result is exact for the step function and invariant
    under permutations of the cell values.  A stack gives one norm per row.
    """
    if math.isinf(e.p):
        return lp_norm(f, _INF)
    vals = np.sort(np.abs(_rows(f.spec, f.values)), axis=-1)[..., ::-1]
    top = vals[..., 0]
    vals = vals / np.where(top > 0, top, 1.0)[..., None]  # as in lp_norm
    # edges as fractions of the row (measure L^n): no period or q/p overflows
    scale = _per_row(top) * f.spec.L ** (f.spec.n / e.p)
    edges = np.arange(vals.shape[-1] + 1) / vals.shape[-1]
    if math.isinf(e.q):
        return scale * _per_row(np.max(vals * edges[1:] ** (1 / e.p), axis=-1))
    p, q = e.p, e.q
    pieces = (p / q) * (edges[1:] ** (q / p) - edges[:-1] ** (q / p))
    # row by row: a whole reversed stack takes a pow loop that rounds apart
    powers = [row**q for row in vals.reshape(-1, vals.shape[-1])]
    return scale * _root(np.sum(np.reshape(powers, vals.shape) * pieces,
                                axis=-1), q)


# ---------------------------------------------------------------------------
# Smoothness seminorms


def slobodeckij_seminorm(f: GridFunction, nu: float, p: float) -> float:
    """Gagliardo double integral (II |f(x)-f(y)|^p / |x-y|^(n+nu p))^(1/p)
    with the periodic minimum-image metric; diagonal cells excluded.  A
    stack gives one seminorm per row."""
    if not (0 < nu < 1):
        raise ValueError(f"smoothness nu must lie in (0, 1), got {nu}")
    if not (1 <= p < _INF):
        raise ValueError(f"exponent p must lie in [1, inf), got {p}")
    spec = f.spec
    if spec.n == 2 and spec.N > 96:
        raise ValueError("slobodeckij_seminorm in 2-D requires N <= 96")
    if spec.n == 1 and spec.N > 4096:
        raise ValueError("slobodeckij_seminorm in 1-D requires N <= 4096")
    if f.values.ndim > spec.n:
        return np.array([slobodeckij_seminorm(GridFunction(spec, v), nu, p)
                         for v in f.values])
    top = float(np.max(np.abs(f.values)))  # in units of max|f| and h
    v = f.values / (top if top > 0 else 1.0)
    acc = 0.0
    for off in _offsets(spec)[0]:
        d = math.hypot(*off)
        if d == 0.0:
            continue
        shift = [-int(o) for o in off]
        diff = np.roll(v, shift=shift, axis=tuple(range(spec.n))) - v
        acc += float(np.sum(np.abs(diff) ** p)) * d ** (-(spec.n + nu * p))
    return top * spec.h ** (spec.n / p - nu) * acc ** (1 / p)


# Bound on the entries of the bmo_seminorm memo; each holds one float and a
# 32-byte digest, and one harness run makes 120 distinct calls.
_BMO_MEMO_SIZE = 1024
_BMO_MEMO: OrderedDict[tuple, float] = OrderedDict()


def bmo_seminorm(f: GridFunction, tents: TentFamily | None = None) -> float:
    """Supremum over the ball family of the mean oscillation
    |B|^(-1) int_B |f - f_B|.

    The result is ``_bmo_pruned``, memoised per process in an LRU of 1024
    floats keyed by the grid, the family and a blake2b digest of the values'
    bytes, so estimates that share a test function search it once.  The
    rows of a stack are looked up in turn."""
    if f.values.ndim > f.spec.n:
        return np.array([bmo_seminorm(GridFunction(f.spec, v), tents)
                         for v in f.values])
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
    before the L^1 oscillation is summed over the cells of the rest.  Its
    test oracle, the full sum at every pair, is ``_bmo_direct`` in
    tests/test_norms.py.
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
        # the radii present, ascending (np.unique would import numpy.ma)
        for i in np.flatnonzero(np.bincount(radius)):
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
        g, derivs, selector, beta_eff = frac_laplacian(f, beta), (), "value", beta
    elif derivative == "dt":
        if not alpha < s:
            raise ValueError(
                f"derivative 'dt' requires alpha < s; got alpha={alpha}, s={s}")
        g, derivs, selector, beta_eff = f, ("t",), "dt", 1.0
    else:
        if not alpha < 1:
            raise ValueError(
                f"derivative 'dx' requires alpha < 1; got alpha={alpha}")
        g, derivs, selector, beta_eff = f, ("x",), "dx", 1.0
    # only the field read is synthesized, one level at a time
    F = extend_field(g, s, levels, derivs)
    wlog = levels.log_trapezoid_weights()
    terms = zip(wlog, levels.ts ** (beta_eff - alpha), _field_levels(F, selector))

    if kind == "besov":
        vals = np.array([tw * lp_norm(GridFunction(spec, G), p)
                         for _, tw, G in terms])
        if math.isinf(q):
            return float(np.max(vals))
        return float(np.sum(wlog * vals**q) ** (1 / q))

    # the pointwise L^q(dt/t) integral, summed in level order
    inner = np.zeros(spec.shape)
    for w, tw, G in terms:
        if math.isinf(q):
            np.maximum(inner, tw * np.abs(G), out=inner)
        else:
            inner += w * (tw * np.abs(G)) ** q
    if not math.isinf(q):
        inner **= 1 / q
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
    spec, ts = F.spec, F.levels.ts
    wlog, levels = F.levels.log_trapezoid_weights(), _field_levels(F, selector)
    s2 = np.zeros(spec.shape)
    # one level at a time, summed in level order
    if mode == "regular":
        for tw, w, G in zip(ts**weight, wlog, levels):
            s2 += w * (tw * G) ** 2
    else:
        balls = _open_ball_spectra(spec, ts[:, None])
        for t, w, G, (ball,) in zip(ts, wlog, levels, balls):
            cone = spectral_apply(spec, G**2, ball)
            s2 += w * t ** (2 * weight - spec.n) * cone * spec.cell_volume
    return GridFunction(spec, np.sqrt(np.maximum(s2, 0.0)))


def carleson_sup(F: ExtensionField, weight: float = 1.0,
                 selector: str = "gradient",
                 tents: TentFamily | None = None) -> float:
    """Supremum over tents T(B) = {(y,t) : |y - x| < r - t} of
    (|B|^(-1) int_T t^w |G|^2 dy dt)^(1/2).  Level by level, |G|^2 is
    transformed forward once if some radius exceeds t, and added to the
    accumulator of each such radius; each distinct ball {|y| < r - t} is
    transformed once, and held until its last level."""
    spec = F.spec
    tents = tents if tents is not None else TentFamily.standard(spec)
    ts = F.levels.ts
    accs = np.zeros((len(tents.radii), *spec.shape))
    # the levels ascend, so those below the largest radius come first; the
    # radii ascend, so those above t are the last ones
    below = ts[ts < tents.radii[-1]]
    balls = _open_ball_spectra(spec, [[r - t for r in tents.radii if t < r]
                                      for t in below])
    for t, w, G, level in zip(below, F.levels.log_trapezoid_weights(),
                              _field_levels(F, selector), balls):
        g2_hat = spectral_forward(spec, G**2)
        for acc, ball in zip(accs[-len(level):], level):
            acc += w * t ** (1 + weight) * spectral_synthesis(spec, g2_hat,
                                                              ball)
    # a positive factor commutes with the max, and sqrt with max over radii
    top = max(float(np.max(_decimate(acc, tents.center_stride)))
              * (spec.cell_volume / (cnt * spec.cell_volume))
              for acc, cnt in zip(accs, _ball_geometry(tents).counts))
    return math.sqrt(max(top, 0.0))


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
    lhs = float(sum(
        w * t**2 * np.sum(np.abs(P * Q)) for t, w, P, Q in zip(
            Phi.levels.ts, Phi.levels.log_trapezoid_weights(),
            _field_levels(Phi, phi_selector), _field_levels(G, g_selector))
    ) * Phi.spec.cell_volume)
    if lhs == 0.0:
        return 0.0
    c = carleson_sup(Phi, weight=1.0, selector=phi_selector, tents=tents)
    a = lp_norm(square_function(G, "nontangential", weight=1.0,
                                selector=g_selector), 1)
    denom = c * a
    if denom == 0.0:
        return _INF
    return lhs / denom
