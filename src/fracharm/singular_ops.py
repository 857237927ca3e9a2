"""
Direct quadrature realizations of the singular-integral operator definitions.

These serve as oracles independent of the multiplier symbols: the fractional
Laplacian in second-difference form, the 1-D Hilbert transform as a principal
value, and the Riesz potential as convolution with C_{n,s}|y|^{s-n}.  Their
real-space weights depend only on the lattice offset, so each is applied as
one circular convolution through grid.spectral_apply.

Two kernel treatments are supported.  With treat_as_compact=True the input is
modeled as compactly supported on R^n inside one period: the kernel is
integrated over |y| < L/2 against the sampled values, and the exactly known
remainder (where f vanishes and only the -2f(x) term of the second difference
survives) is added in closed form.  With treat_as_compact=False the kernel is
summed over its periodic images, realizing the operator of the periodized
function; discrepancies against the multiplier path then shrink with grid
refinement.  In both cases the periodization residual of the compact model
is reported (never silently added) through frac_laplacian_tail_bound.  Each
quadrature has the one singular-cell treatment its integrand needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, GridSpec, spectral_apply, spectral_forward


@dataclass(frozen=True)
class QuadratureConfig:
    """The kernel treatment of the singular-integral oracles: the compact
    model (True) or the sum over periodic images (False)."""

    treat_as_compact: bool = True


def frac_laplacian_constant(n: int, s: float) -> float:
    """Normalization 2^s Gamma((n+s)/2) / (pi^(n/2) |Gamma(-s/2)|)."""
    return (2**s * math.gamma((n + s) / 2)
            / (np.pi ** (n / 2) * abs(math.gamma(-s / 2))))


def riesz_potential_constant(n: int, s: float) -> float:
    """Normalization Gamma((n-s)/2) / (2^s pi^(n/2) Gamma(s/2))."""
    return math.gamma((n - s) / 2) / (2**s * np.pi ** (n / 2) * math.gamma(s / 2))


def _offsets(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Signed minimum-image lattice offsets and their |y| distances."""
    N, h = spec.N, spec.h
    d1 = np.arange(N)
    d1 = np.where(d1 >= N // 2, d1 - N, d1)
    if spec.n == 1:
        dist = np.abs(d1) * h
        return d1.reshape(-1, 1), dist
    DX, DY = np.meshgrid(d1, d1, indexing="ij")
    pairs = np.stack([DX.ravel(), DY.ravel()], axis=1)
    dist = np.sqrt((pairs[:, 0] * h) ** 2 + (pairs[:, 1] * h) ** 2)
    return pairs, dist


def _circulant_apply(spec: GridSpec, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_y w(y) v(x - y) for weights w in _offsets order, as the multiplier
    spectral_forward(w) through spectral_apply, so leading axes of v are a
    stack.  Summed in longdouble: these kernels are large against the
    result, which in float64 loses up to 3e-13 of sup."""
    w_hat = spectral_forward(spec, np.longdouble(w).reshape(spec.shape))
    return spectral_apply(spec, np.longdouble(v), w_hat).astype(float)


def _singular_cell_kernel_integral(n: int, power: float, h: float) -> float:
    """Exact integral of |y|^power over the cell at the origin, with the 2-D
    cell replaced by the disc of equal area."""
    if n == 1:
        return 2 * (h / 2) ** (power + 1) / (power + 1)
    rho = h / np.sqrt(np.pi)
    return 2 * np.pi * rho ** (power + 2) / (power + 2)


def _surface(n: int) -> float:
    return 2.0 if n == 1 else 2 * np.pi


# B_2, B_4, ..., B_16 over (2j)!: the Euler-Maclaurin corrections
_BERNOULLI_TERMS = tuple(b / math.factorial(2 * j) for j, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
     -3617 / 510), start=1))


def _hurwitz_zeta(a: float, q: np.ndarray) -> np.ndarray:
    """Hurwitz zeta sum_{k >= 0} (q + k)^-a for a > 1 and q > 0.

    Euler-Maclaurin: the first 12 terms directly, then with x = q + 12 the
    integral x^(1-a) / (a-1), the half term x^-a / 2 and the corrections
    B_2j / (2j)! a (a+1) ... (a+2j-2) x^(1-a-2j), j = 1..8.  The first
    omitted correction is below 1e-18 of the sum for 1 < a <= 3 and
    0 < q <= 1."""
    x = q + 12.0
    total = x ** (1 - a) / (a - 1) + x**-a / 2
    term = a * x ** (-a - 1)  # a (a+1) ... (a+2j-2) x^(1-a-2j) at j = 1
    for j, b in enumerate(_BERNOULLI_TERMS, start=1):
        total += b * term
        term *= (a + 2 * j - 1) * (a + 2 * j) / (x * x)
    for k in range(11, -1, -1):  # the largest terms last
        total += (q + k) ** -a
    return total


def _periodized_weights(spec: GridSpec, offsets: np.ndarray, power: float,
                        images: int) -> np.ndarray:
    """Kernel sum_k |y + kL|^power over periodic images at each of the
    offsets of _offsets(spec).

    In 1-D with power < -1 the lattice sum is exact via the Hurwitz zeta
    function.  Otherwise the sum is truncated at `images` shells; for
    power < -n the remainder is added as the equal-area disc integral
    (a constant in y), while for -n <= power < 0 the remainder couples only
    to the mean of the data and is dropped (callers require mean-zero input).
    """
    L = spec.L
    if spec.n == 1 and power < -1:
        q = (offsets[:, 0] % spec.N) / spec.N
        w = np.empty(len(q))
        zero = q == 0.0
        # at the origin offset only the k = 0 singular term is excluded
        w[zero] = 2 * L**power * _hurwitz_zeta(-power, np.ones(1))
        w[~zero] = L**power * (_hurwitz_zeta(-power, q[~zero])
                               + _hurwitz_zeta(-power, 1 - q[~zero]))
        return w
    k1 = np.arange(-images, images + 1) * L
    if spec.n == 1:
        y = (offsets[:, 0] * spec.h) % L
        d = np.abs(y[:, None] + k1[None, :])
        with np.errstate(divide="ignore"):
            w = np.where(d > 0, d**power, 0.0).sum(axis=1)
    else:
        # offset (i, j) with images (a, b) lies at distance
        # sqrt(sq[i, a] + sq[j, b]), so the image block of (j, i) is the
        # transpose of that of (i, j); the power is taken for i <= j only,
        # and each row is summed in the image order (a, b) of offset (i, j)
        N = spec.N
        # the second components of the first N offsets run over one axis
        sq = (((offsets[:N, 1] * spec.h) % L)[:, None] + k1[None, :]) ** 2
        w = np.empty((N, N))
        for i in range(N):
            d = np.sqrt(sq[i, None, :, None] + sq[i:, None, :])
            with np.errstate(divide="ignore"):
                terms = np.where(d > 0, d**power, 0.0)
            w[i, i:] = terms.reshape(-1, k1.size**2).sum(axis=1)
            swapped = np.ascontiguousarray(terms[1:].transpose(0, 2, 1))
            w[i + 1:, i] = swapped.reshape(-1, k1.size**2).sum(axis=1)
        w = w.ravel()
    if power < -spec.n:
        # remainder beyond the truncated shells, as the integral over the
        # complement of the equal-area disc (2-D only: a 1-D power below -1
        # took the Hurwitz-zeta branch)
        R = (2 * images + 1) * L / math.sqrt(np.pi)
        w = w + _surface(spec.n) * R ** (power + spec.n) / (-(power + spec.n))
    return w


def _kernel_weights(spec: GridSpec, offsets: np.ndarray, dist: np.ndarray,
                    power: float, compact: bool, images: int):
    """Kernel weights at the offsets of _offsets(spec), and the count of the
    cells with |y| < L/2 or None: |y|^power on those cells but the origin in
    the compact model, else _periodized_weights over `images` shells."""
    if not compact:
        return _periodized_weights(spec, offsets, power, images), None
    keep = dist < spec.L / 2 * (1 - 1e-12)
    with np.errstate(divide="ignore"):
        weights = np.where(keep & (dist > 0), dist**power, 0.0)
    return weights, int(np.count_nonzero(keep))


def frac_laplacian_tail_bound(f: GridFunction, s: float) -> float:
    """Bound on the periodization residual of the compact-support model:
    2 C_{n,s} ||f||_inf * surface * R^{-s} / s with R = L/2."""
    spec = f.spec
    R = spec.L / 2
    C = frac_laplacian_constant(spec.n, s)
    return float(
        2 * C * np.max(np.abs(f.values)) * _surface(spec.n) * R ** (-s) / s
    )


def frac_laplacian_quadrature(
    f: GridFunction, s: float, cfg: QuadratureConfig = QuadratureConfig()
) -> GridFunction:
    """Fractional Laplacian via the second-difference singular integral
    -(1/2) C_{n,s} int (f(x+y) + f(x-y) - 2 f(x)) / |y|^{n+s} dy.  On the
    singular cell the second difference is f''(x)|y|^2 to leading order: the
    cell contributes the exact integral of the bounded |y|^{2-n-s} against
    the nearest-neighbour second difference of f."""
    if not (0 < s < 2):
        raise ValueError(f"order s must lie in (0, 2), got {s}")
    spec = f.spec
    h, n = spec.h, spec.n
    C = frac_laplacian_constant(n, s)
    offsets, dist = _offsets(spec)
    v = f.values

    weights, cnt = _kernel_weights(spec, offsets, dist, -(n + s),
                                   cfg.treat_as_compact, 16)

    # sum_{y != 0} w(y) (v(x+y) + v(x-y) - 2 v(x)) is the circulant with the
    # plus/minus pair w(y) + w(-y) off the origin and -2 sum_y w(y) at it
    w = np.where(dist > 0, weights, 0.0).astype(np.longdouble).reshape(spec.shape)
    kernel = w + w[np.ix_(*[(-np.arange(spec.N)) % spec.N] * n)]
    kernel[(0,) * n] = -2 * w.sum()
    result = -0.5 * C * _circulant_apply(spec, v, kernel) * spec.cell_volume

    if cfg.treat_as_compact:
        # Exact remainder of the compact-support model: beyond the covered
        # region f vanishes, so the second difference reduces to -2 f(x) and
        # the kernel integrates in closed form over |y| > R_eff, with R_eff
        # the equal-measure radius of the covered cells.
        R_eff = cnt * h / 2 if n == 1 else math.sqrt(cnt * h**2 / np.pi)
        result = result + C * v * _surface(n) * R_eff ** (-s) / s

    cell = _singular_cell_kernel_integral(n, 2 - n - s, h)
    second_diff = sum((np.roll(v, -1, axis=ax) + np.roll(v, 1, axis=ax)
                       - 2 * v) / h**2 for ax in range(n))
    # The angular average of y^T H y over |y| = r is (tr H) r^2 / n.
    result += -0.5 * C * (second_diff / n) * cell
    return GridFunction(spec, result)


def hilbert_pv_quadrature(f: GridFunction) -> GridFunction:
    """1-D Hilbert transform as a symmetric-pair principal value:
    sum over y > 0 of (f(x-y) - f(x+y)) K(y) h with the kernel 1/(pi y)
    summed over periodic images, K(y) = (1/L) cot(pi y / L); the y = 0 cell
    is excluded (the kernel is odd)."""
    spec = f.spec
    if spec.n != 1:
        raise ValueError("hilbert_pv_quadrature supports n = 1 only")
    N, h, L = spec.N, spec.h, spec.L
    # odd kernel K(m) = -K(N - m); m = 0 and m = N/2 (cot(pi/2) = 0) carry 0
    K = np.zeros(N)
    K[1:N // 2] = [math.cos(math.pi * m / N) / math.sin(math.pi * m / N) / L
                   for m in range(1, N // 2)]
    K[N // 2 + 1:] = -K[N // 2 - 1:0:-1]
    return GridFunction(spec, _circulant_apply(spec, f.values, K) * h)


def riesz_potential_quadrature(
    f: GridFunction, s: float, cfg: QuadratureConfig = QuadratureConfig()
) -> GridFunction:
    """Riesz potential via convolution with C_{n,s} |y|^{s-n}; the singular
    cell contributes f(x) times the exact cell integral of the kernel.

    The periodized treatment requires mean-negligible input, since the
    dropped image-sum remainder couples only to the mean.  The compact
    treatment accepts any input: the kernel truncated at |y| = L/2 is
    integrable, and the result is the whole-space potential of the data
    modeled as compactly supported in one period.
    """
    spec = f.spec
    if not (0 < s < spec.n):
        raise ValueError(f"order s must lie in (0, n) = (0, {spec.n}), got {s}")
    n, h = spec.n, spec.h
    C = riesz_potential_constant(n, s)
    offsets, dist = _offsets(spec)

    # periodized, the k != 0 images still weight the origin offset; only the
    # k = 0 singular term is left to the cell average below
    weights, _ = _kernel_weights(spec, offsets, dist, s - n,
                                 cfg.treat_as_compact, 512 if n == 1 else 12)

    result = C * _circulant_apply(spec, f.values, weights) * spec.cell_volume
    result += C * f.values * _singular_cell_kernel_integral(n, s - n, h)
    return GridFunction(spec, result)
