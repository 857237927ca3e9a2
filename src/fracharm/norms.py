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
from .grid import (_FFT_CELLS, GridFunction, GridSpec, _per_row, _rows,
                   spectral_apply, spectral_forward, spectral_gradient,
                   spectral_synthesis)
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
    """Ball/tent family: balls of the given radii (the standard family's are
    {2^m h} up to L/2) centred at every cell of the grid."""

    spec: GridSpec
    radii: tuple[float, ...]

    def __post_init__(self) -> None:
        radii = tuple(float(r) for r in self.radii)
        # written so that a NaN radius fails too
        if not radii or not all(r > 0 for r in radii):
            raise ValueError(f"radii must be positive, got {radii}")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("radii must be strictly increasing")
        if radii[-1] > self.spec.L / 2 * (1 + 1e-12):
            raise ValueError("radii must not exceed L/2")
        object.__setattr__(self, "radii", radii)

    @staticmethod
    def standard(spec: GridSpec) -> "TentFamily":
        radii = []
        r = spec.h
        while r <= spec.L / 2 * (1 + 1e-12):
            radii.append(r)
            r *= 2
        return TentFamily(spec=spec, radii=tuple(radii))


def _tent_family(spec: GridSpec, tents: TentFamily | None) -> TentFamily:
    """tents, by default the standard family of spec, built for spec."""
    tents = tents if tents is not None else TentFamily.standard(spec)
    if tents.spec != spec:
        raise ValueError("the tent family was built for another grid")
    return tents


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


# Cells one gather of the BMO search holds, or one ball where a single ball
# is larger: a float64 value and an int64 index per cell are the 512 KB of
# a transform block
_GATHER_CELLS = _FFT_CELLS // 2


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


def _closed_counts(tents: TentFamily) -> np.ndarray:
    """Cell counts of the closed balls, |y| <= r (1 + 1e-12) per radius r."""
    return np.searchsorted(np.sort(_offsets(tents.spec)[1]),
                           np.multiply(tents.radii, 1 + 1e-12), side="right")


@functools.lru_cache(maxsize=8)
def _ball_geometry(tents: TentFamily) -> _BallGeometry:
    spec = tents.spec
    offsets = _offsets(spec)[0]
    counts = _closed_counts(tents)
    kernels = np.stack(list(_balls(spec, counts)))
    spectrum = spectral_forward(spec, kernels)
    # the minimum-image offset y of a centre x is the flat index of x + y
    place = (2 * spec.N) ** np.arange(spec.n - 1, -1, -1)
    balls = tuple((offsets[m.ravel() > 0] + spec.N // 2) @ place
                  for m in kernels)
    centers = np.indices(spec.shape).reshape(spec.n, -1).T @ place
    for arr in (counts, spectrum, *balls, centers):
        arr.flags.writeable = False
    return _BallGeometry(counts=counts, spectrum=spectrum, offsets=balls,
                         centers=centers)


def _oscillations(padded: np.ndarray, ball: np.ndarray, centers: np.ndarray,
                  means: np.ndarray, count: int) -> np.ndarray:
    """Mean oscillations of one ball around each of the flat centres, given
    the ball means; padded is one padded copy or a stack of them, flattened,
    and a centre's flat index picks its copy.  One 2-D gather, subtracted
    in place, whose rows sum pairwise as a 1-D sum would."""
    cells = np.take(padded, centers[:, None] + ball[None, :])
    cells -= means[:, None]
    return np.abs(cells, out=cells).sum(axis=1) / count


def _log_lq(u: np.ndarray, q: float):
    """log (sum_k e^(q u_k))^(1/q) over the last axis, row by row, with the
    largest term factored out (log-sum-exp: Blanchard, Higham and Mary, IMA
    J. Numer. Anal. 2021), so that no q underflows or overflows the sum.
    q = inf gives max u, and a row of -inf gives -inf."""
    m = np.max(u, axis=-1)
    if math.isinf(q):
        return m
    terms = u - np.where(m > -_INF, m, 0.0)[..., None]
    # a row's sum is at least its largest term, 1, unless the row is -inf
    with np.errstate(over="ignore", divide="ignore"):
        np.exp(np.multiply(terms, q, out=terms), out=terms)
        return m + np.log(np.sum(terms, axis=-1)) / q


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
            * _per_row(np.power(np.sum(a**p, axis=-1), 1 / p)))


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
    # (p/q)^(1/q) times the q-th root of sum_k f*_k^q (e_(k+1)^(q/p) -
    # e_k^(q/p)); the log of a step's weight over q is log e_(k+1)^(1/p) +
    # log1p(-(k / (k + 1))^(q/p)) / q, so that no edge power underflows
    with np.errstate(divide="ignore", over="ignore"):
        log_piece = np.log(edges[1:]) / p + np.log(-np.expm1(
            -(q / p) * np.log1p(1 / np.arange(vals.shape[-1])))) / q
        u = np.log(vals, out=vals)  # in place, as every row is held at once
    u += log_piece
    # beyond the float range the norm is inf, which callers report
    with np.errstate(over="ignore"):
        return scale * (p / q) ** (1 / q) * _per_row(np.exp(_log_lq(u, q)))


# ---------------------------------------------------------------------------
# Smoothness seminorms


# The largest N of slobodeckij_seminorm per dimension, which sums N^(2n) / 2
_SLOBODECKIJ_MAX_N = {1: 4096, 2: 96}


def _pair_seminorm(f: GridFunction, nu: float, q: float):
    """The l^q norm over pairs of cells x != y, with the minimum-image
    metric, of |f(x) - f(y)| / d(x,y)^(n/q + nu), times h^(2n/q); a stack
    gives one value per row.  The norm over the cells of each offset y is a
    term of the norm over the offsets, both in the log domain and in units
    of max|f| and of cells.  y and -y give equal terms, so one of each pair
    is visited, and counted twice unless y = -y."""
    spec = f.spec
    top = np.max(np.abs(_rows(spec, f.values)), axis=-1)
    v = f.values / np.where(top > 0, top, 1.0)[(...,) + (None,) * spec.n]
    offsets = _offsets(spec)[0]
    mirror = np.ravel_multi_index(tuple(-offsets.T % spec.N), spec.shape)
    terms = []
    with np.errstate(divide="ignore"):
        for i, (off, j) in enumerate(zip(offsets, mirror)):
            if i == 0 or j < i:  # the diagonal, or the mirror was visited
                continue
            diff = np.abs(np.roll(v, tuple(-off), tuple(range(-spec.n, 0))) - v)
            terms.append(_log_lq(np.log(_rows(spec, diff)), q)
                         - (spec.n / q + nu) * math.log(math.hypot(*off))
                         + (math.log(2) / q if j > i else 0.0))
    total = _log_lq(np.stack(terms, axis=-1), q)
    return (_per_row(top) * spec.h ** (spec.n / q - nu)
            * _per_row(np.exp(total)))


def slobodeckij_seminorm(f: GridFunction, nu: float, p: float) -> float:
    """Gagliardo double integral (II |f(x)-f(y)|^p / |x-y|^(n+nu p))^(1/p)
    with the periodic minimum-image metric; diagonal cells excluded.  A
    stack gives one seminorm per row."""
    if not (0 < nu < 1):
        raise ValueError(f"smoothness nu must lie in (0, 1), got {nu}")
    if not (1 <= p < _INF):
        raise ValueError(f"exponent p must lie in [1, inf), got {p}")
    if f.spec.N > (cap := _SLOBODECKIJ_MAX_N[f.spec.n]):
        raise ValueError(
            f"slobodeckij_seminorm in {f.spec.n}-D requires N <= {cap}")
    return _pair_seminorm(f, nu, p)


# Bound on the stacks the bmo_seminorm memo holds, each entry one value per
# row and a 32-byte digest.  One harness run stores 6 stacks, its BMO test
# families, and repeats only whole stacks; 16 hold the stacks of a 1-D and
# a 2-D run made in one process, with room to spare.
_BMO_MEMO_SIZE = 16
_BMO_MEMO: OrderedDict[tuple, np.ndarray | float] = OrderedDict()


def bmo_seminorm(f: GridFunction, tents: TentFamily | None = None) -> float:
    """Supremum over the ball family of the mean oscillation
    |B|^(-1) int_B |f - f_B|.

    The result is ``_bmo_pruned``, memoised per process in an LRU of 16
    stacks keyed by the grid, the family, the shape and a blake2b digest of
    the stack's bytes, so estimates that share a test family search it
    once.  A stack gives one value per row, a hit a fresh copy of them."""
    tents = _tent_family(f.spec, tents)
    # digested in place: a freed bytes copy of a stack over 128 KB raises
    # glibc's mmap threshold, which cost run-1d 0.8 MB of peak RSS
    key = (f.spec, tents, f.values.shape, hashlib.blake2b(
        np.ascontiguousarray(f.values), digest_size=32).digest())
    if key in _BMO_MEMO:
        _BMO_MEMO.move_to_end(key)
    else:
        _BMO_MEMO[key] = _bmo_pruned(f, tents)
        if len(_BMO_MEMO) > _BMO_MEMO_SIZE:
            _BMO_MEMO.popitem(last=False)
    return _per_row(np.copy(_BMO_MEMO[key]))


def _bmo_pruned(f: GridFunction, tents: TentFamily | None = None) -> float:
    """The mean-oscillation sup of ``bmo_seminorm`` without the memo; a
    stack gives one value per row.

    The result is the exact sup over the family, found by pruning.  By
    Cauchy-Schwarz the mean oscillation of a ball is at most its standard
    deviation sqrt(E_B[f^2] - f_B^2), and FFT ball sums of f and f^2 give
    that bound at every (radius, center) pair; 1e-12 max|f|^2 under the root
    keeps it an upper bound despite rounding.  Each row evaluates the pair
    of its largest bound, and keeps the pairs whose bound exceeds that value
    as its candidates.  Then one pass sums the L^1 oscillation of every
    candidate of every row, in gathers per radius of at most _GATHER_CELLS
    cells, and each row takes the max.  A pair left out has a value at most
    its bound, so at most the top pair's value, and the max is the sup.
    Rows are searched in groups whose wrap-padded copies fit in _FFT_CELLS
    cells.  Every pair's value is computed as for a row alone, so a stack's
    values equal its rows'.  Its test oracle, the full sum at every pair,
    is ``_bmo_direct`` in tests/test_norms.py.
    """
    spec = f.spec
    tents = _tent_family(spec, tents)
    rows = f.values.reshape((-1,) + spec.shape)
    width = (2 * spec.N) ** spec.n  # cells of a padded copy
    group = max(1, _FFT_CELLS // width)
    # an empty stack has no group, and gives an empty array
    best = np.concatenate([np.zeros(0)] + [
        _bmo_group(spec, tents, rows[i:i + group])
        for i in range(0, len(rows), group)])
    return _per_row(best.reshape(f.values.shape[: f.values.ndim - spec.n]))


def _bmo_candidates(spec: GridSpec, tents: TentFamily, v: np.ndarray,
                    padded: np.ndarray):
    """The value of the pair of a row's largest bound, and the pairs (flat
    radius * centres + centre) whose bound exceeds it, with their ball
    means; a zero row has none.  The row's moments and bounds are dropped
    on return, before the next row's are made."""
    geo = _ball_geometry(tents)
    cnt = geo.counts
    scale = float(np.max(np.abs(v)))
    if scale == 0.0:
        return 0.0, np.zeros(0, int), np.zeros(0)
    # the moments of f and of f / max|f| (which cannot overflow) in one apply
    sums = spectral_apply(spec, np.stack([v, (v / scale) ** 2])[:, None],
                          geo.spectrum)
    mean, mean2 = sums.reshape(2, len(cnt), -1) / cnt[:, None]
    var = mean2 - (mean / scale) ** 2
    bound = scale * np.sqrt(np.maximum(var, 0.0) + 1e-12).ravel()
    mean = mean.ravel()
    top = int(np.argmax(bound))
    i, c = divmod(top, len(geo.centers))
    best = max(0.0, float(_oscillations(padded, geo.offsets[i],
                                        geo.centers[c:c + 1],
                                        mean[top:top + 1], cnt[i])[0]))
    pairs = np.flatnonzero(bound > best)
    return best, pairs, mean[pairs]


def _bmo_group(spec: GridSpec, tents: TentFamily,
               rows: np.ndarray) -> np.ndarray:
    """The pruned search of ``_bmo_pruned`` over a stack of rows, which it
    holds wrap-padded at once."""
    geo = _ball_geometry(tents)
    padded = np.pad(rows, ((0, 0),) + ((spec.N // 2,) * 2,) * spec.n,
                    mode="wrap").reshape(len(rows), -1)
    best, pairs, means = zip(*[_bmo_candidates(spec, tents, v, p)
                               for v, p in zip(rows, padded)])
    best = np.array(best)
    row = np.repeat(np.arange(len(rows)), [len(p) for p in pairs])
    mean = np.concatenate(means)
    radius, center = np.divmod(np.concatenate(pairs), len(geo.centers))
    # flat indices into the padded stack
    center = row * padded.shape[1] + geo.centers[center]
    # the radii present, ascending (np.unique would import numpy.ma)
    for i in np.flatnonzero(np.bincount(radius)):
        at = radius == i
        rs, cs, ms = row[at], center[at], mean[at]
        step = max(1, _GATHER_CELLS // int(geo.counts[i]))
        for lo in range(0, len(cs), step):
            np.maximum.at(best, rs[lo:lo + step], _oscillations(
                padded, geo.offsets[i], cs[lo:lo + step], ms[lo:lo + step],
                geo.counts[i]))
    return best


def holder_seminorm(f: GridFunction, nu: float) -> float:
    """Hoelder seminorm: sup pairs |f(x)-f(y)| / d(x,y)^nu for nu < 1;
    for nu = 1 the Lipschitz bound sup |grad f| with the spectral gradient.
    A stack gives one seminorm per row."""
    if not (0 < nu <= 1):
        raise ValueError(f"smoothness nu must lie in (0, 1], got {nu}")
    if nu == 1.0:
        mag = np.sqrt(sum(g.values**2 for g in spectral_gradient(f)))
        return _per_row(np.max(_rows(f.spec, mag), axis=-1))
    return _pair_seminorm(f, nu, _INF)


def maximal_function(f: GridFunction,
                     tents: TentFamily | None = None) -> GridFunction:
    """Hardy-Littlewood maximal function over the dyadic ball family; the
    smallest ball is the cell itself, so Mf >= |f| pointwise."""
    spec = f.spec
    tents = _tent_family(spec, tents)
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
    terms = zip(wlog, levels.ts ** (beta_eff - alpha), F.level_values(selector))

    if kind == "besov":
        vals = np.array([tw * lp_norm(GridFunction(spec, G), p)
                         for _, tw, G in terms])
        with np.errstate(divide="ignore"):
            return math.exp(_log_lq(np.log(vals) + np.log(wlog) / q, q))

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
    wlog, levels = F.levels.log_trapezoid_weights(), F.level_values(selector)
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
    tents = _tent_family(spec, tents)
    ts = F.levels.ts
    accs = np.zeros((len(tents.radii), *spec.shape))
    # the levels ascend, so those below the largest radius come first; the
    # radii ascend, so those above t are the last ones
    below = ts[ts < tents.radii[-1]]
    balls = _open_ball_spectra(spec, [[r - t for r in tents.radii if t < r]
                                      for t in below])
    for t, w, G, level in zip(below, F.levels.log_trapezoid_weights(),
                              F.level_values(selector), balls):
        g2_hat = spectral_forward(spec, G**2)
        for acc, ball in zip(accs[-len(level):], level):
            acc += w * t ** (1 + weight) * spectral_synthesis(spec, g2_hat,
                                                              ball)
    # a positive factor commutes with the max, and sqrt with max over radii
    top = max(float(np.max(acc))
              * (spec.cell_volume / (cnt * spec.cell_volume))
              for acc, cnt in zip(accs, _closed_counts(tents)))
    return math.sqrt(max(top, 0.0))


def tent_pairing_bound_check(Phi: ExtensionField, G: ExtensionField,
                             phi_selector: str = "dt",
                             g_selector: str = "dt") -> float:
    """Ratio int int t^2 |Phi G| dy dt/t over the product
    carleson_sup(Phi, w=1) * ||nontangential square of G (w=1)||_1, the
    Carleson sup taken over the standard tent family of the grid.

    Both fields enter through the stated selector.  Returns 0 when the
    pairing vanishes and inf when only the bound side vanishes.
    """
    if Phi.spec != G.spec or not np.array_equal(Phi.levels.ts, G.levels.ts):
        raise ValueError("fields must share the same grid and t-levels")
    lhs = float(sum(
        w * t**2 * np.sum(np.abs(P * Q)) for t, w, P, Q in zip(
            Phi.levels.ts, Phi.levels.log_trapezoid_weights(),
            Phi.level_values(phi_selector), G.level_values(g_selector))
    ) * Phi.spec.cell_volume)
    if lhs == 0.0:
        return 0.0
    c = carleson_sup(Phi, weight=1.0, selector=phi_selector)
    a = lp_norm(square_function(G, "nontangential", weight=1.0,
                                selector=g_selector), 1)
    denom = c * a
    if denom == 0.0:
        return _INF
    return lhs / denom
