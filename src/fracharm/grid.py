"""
Periodic grids, sampled functions, spectra, and reproducible test-function
families.

Functions on R^n are modeled on a torus of period L per axis, with test
functions supported well inside one period so that periodization error is
negligible.  All multiplier operators downstream act on the integer frequency
lattice k in [-N/2, N/2)^n with physical frequency xi = k/L, following the
Fourier convention exp(-2*pi*i*x.xi).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """
    A periodic grid on the n-torus of period L.

    Parameters
    ----------
    n : int
        Dimension, 1 or 2.
    N : int
        Points per axis; power of two, >= 8.
    L : float
        Period per axis, > 0, with L^2 and (N/(2L))^2 normal float64 numbers.
    """

    n: int
    N: int
    L: float

    def __post_init__(self) -> None:
        if self.n not in (1, 2):
            raise ValueError(f"dimension n must be 1 or 2, got {self.n}")
        if not (self.N >= 8 and self.N & (self.N - 1) == 0):
            raise ValueError(f"N must be a power of two >= 8, got {self.N}")
        if not (0 < self.L < np.inf):
            raise ValueError(f"period L must be positive and finite, got {self.L}")
        # the symbols and norms square lengths and frequencies; past this
        # range the squares overflow to inf or underflow to subnormals or 0
        fin = np.finfo(float)
        if not all(fin.tiny <= x * x <= fin.max
                   for x in (self.L, self.N / (2 * self.L))):
            raise ValueError(
                f"period L = {self.L} is out of range: L^2 and the squared top "
                f"frequency (N/(2L))^2 must be normal float64 numbers")

    @property
    def h(self) -> float:
        """Grid spacing L/N."""
        return self.L / self.N

    @property
    def cell_volume(self) -> float:
        """Volume h^n of one grid cell."""
        return self.h**self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    def wavenumbers(self) -> list[np.ndarray]:
        """Integer frequency arrays k_j of full grid shape."""
        k1 = np.fft.fftfreq(self.N) * self.N
        return list(np.meshgrid(*[k1] * self.n, indexing="ij"))

    def frequencies(self) -> list[np.ndarray]:
        """Physical frequency arrays xi_j = k_j / L of full grid shape."""
        return [k / self.L for k in self.wavenumbers()]

    def frequency_magnitude(self) -> np.ndarray:
        """|xi| on the full grid."""
        xs = self.frequencies()
        return np.sqrt(sum(x**2 for x in xs))

    def nyquist_mask(self) -> np.ndarray:
        """Boolean mask of lattice points with k_j = -N/2 on any axis."""
        return functools.reduce(
            np.logical_or, [k == -self.N // 2 for k in self.wavenumbers()])


def _rows(spec: GridSpec, values: np.ndarray) -> np.ndarray:
    """values with their last n axes flattened into one."""
    return values.reshape(values.shape[: values.ndim - spec.n] + (-1,))


def _per_row(x):
    """A float for one function, the array of row values for a stack."""
    return float(x) if np.ndim(x) == 0 else x


@dataclass(frozen=True)
class GridFunction:
    """Real samples of a function on a GridSpec; value index j is x = j*h.
    Leading axes in front of spec.shape make a stack, a function per row."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.values):
            raise ValueError("GridFunction values must be real")
        v = np.asarray(self.values, dtype=float)
        if v.shape[-self.spec.n:] != self.spec.shape:
            if v.size == self.spec.N**self.spec.n:
                v = v.reshape(self.spec.shape)
            else:
                raise ValueError(
                    f"values must have {self.spec.N ** self.spec.n} entries, "
                    f"got shape {v.shape}"
                )
        if not np.all(np.isfinite(v)):
            raise ValueError("GridFunction values must all be finite")
        object.__setattr__(self, "values", v)

    def _other_values(self, other: "GridFunction") -> np.ndarray:
        if other.spec != self.spec:
            raise ValueError(
                f"grid mismatch: {self.spec} combined with {other.spec}")
        return other.values

    def __add__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.spec, self.values + self._other_values(other))

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.spec, self.values - self._other_values(other))

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            return GridFunction(self.spec, self.values * self._other_values(other))
        return GridFunction(self.spec, self.values * float(other))

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.spec, -self.values)

    def mean(self) -> float:
        """Mean value; for a stack, an array of the row means."""
        return _per_row(np.mean(_rows(self.spec, self.values), axis=-1))


def hermitian_asymmetry(coeffs: np.ndarray) -> float:
    """Max |c(k) - conj(c(-k))| over the lattice."""
    flipped = coeffs
    for ax in range(coeffs.ndim):
        flipped = np.roll(np.flip(flipped, axis=ax), 1, axis=ax)
    return float(np.max(np.abs(coeffs - np.conj(flipped))))


def fft_forward(f: GridFunction) -> np.ndarray:
    """Complex Fourier coefficients in numpy FFT layout: coefficient k is
    (1/N^n) sum f(x_j) e^{-2pi i k.j/N}.  Kept only because the benchmark's
    tracer reports it by name."""
    return np.fft.fftn(f.values) / f.values.size


# Real cells one transform call takes (512 KB of float64 samples): a larger
# stack is transformed in blocks along its first axis, so its temporaries
# (the product with the multiplier, numpy's complex intermediate) stay
# block-sized.  Each row's 1-D transforms are the same pocketfft calls in a
# block as in the whole stack, so the values are bit-identical.
_FFT_CELLS = 2**16


def _blocks(spec: GridSpec, real: np.ndarray, *arrays: np.ndarray):
    """Blocks of the real samples real and of the arrays that go with them,
    along real's first axis, each of as many rows as keep it within
    _FFT_CELLS cells, and at least one: views, an array that broadcasts
    along that axis whole.  A single function is one block."""
    rows = (max(1, _FFT_CELLS // math.prod(real.shape[1:]))
            if real.ndim > spec.n else len(real))
    for i in range(0, len(real), rows):
        yield tuple(a[i:i + rows] if a.ndim == real.ndim and len(a) > 1 else a
                    for a in (real, *arrays))


def spectral_forward(spec: GridSpec, values: np.ndarray) -> np.ndarray:
    """Real-FFT half spectrum of values over their last n axes, the forward
    half of spectral_apply; leading axes are a stack, transformed in blocks
    of at most _FFT_CELLS cells, in the precision of values."""
    out = np.empty(values.shape[:-1] + (spec.N // 2 + 1,),
                   dtype=np.result_type(values, 1j))
    for v, o in _blocks(spec, values, out):
        np.fft.rfftn(v, axes=tuple(range(-spec.n, 0)), out=o)
    return out


def spectral_synthesis(spec: GridSpec, coeffs: np.ndarray,
                       mult: np.ndarray) -> np.ndarray:
    """Real samples of the multiplier mult applied to a half spectrum coeffs
    from spectral_forward, the synthesis half of spectral_apply.  mult is
    taken as in spectral_apply, and leading axes broadcast; the stack is
    multiplied and transformed in blocks of at most _FFT_CELLS cells."""
    mult = mult[..., : spec.N // 2 + 1]
    out = np.empty(np.broadcast(coeffs, mult).shape[:-1] + (spec.N,),
                   dtype=np.finfo(np.result_type(coeffs, mult)).dtype)
    for o, c, m in _blocks(spec, out, coeffs, mult):
        np.fft.irfftn(c * m, s=spec.shape, axes=tuple(range(-spec.n, 0)),
                      out=o)
    return out


def spectral_apply(spec: GridSpec, values: np.ndarray,
                   mult: np.ndarray) -> np.ndarray:
    """Real samples of the multiplier mult applied to real values.

    mult is given on the full lattice of spec.frequencies() and must be
    Hermitian-compatible, m(-xi) = conj(m(xi)): only its real-FFT half
    mult[..., :N//2+1] is used, so that half alone is accepted unchanged as
    well.  Leading axes of values and mult broadcast, so one forward
    transform serves a stack of multipliers.  This is spectral_synthesis of
    spectral_forward; a caller applying many multipliers to the same values
    in turn can transform once with spectral_forward."""
    return spectral_synthesis(spec, spectral_forward(spec, values), mult)


@functools.lru_cache(maxsize=16)
def gradient_multipliers(spec: GridSpec) -> np.ndarray:
    """Read-only real-FFT half of the n gradient multipliers 2*pi*i*xi_j,
    stacked along the first axis and zeroed on the Nyquist rows."""
    full = np.where(spec.nyquist_mask(),
                    0.0, 2j * np.pi * np.stack(spec.frequencies()))
    half = full[..., : spec.N // 2 + 1].copy()
    half.flags.writeable = False
    return half


def spectral_gradient(f: GridFunction) -> list[GridFunction]:
    """Gradient components via multipliers 2*pi*i*xi_j; Nyquist rows zeroed.
    The components of a stack are stacks."""
    axis = -f.spec.n - 1
    grads = spectral_apply(f.spec, np.expand_dims(f.values, axis),
                           gradient_multipliers(f.spec))
    return [GridFunction(f.spec, g) for g in np.moveaxis(grads, axis, 0)]


@dataclass(frozen=True)
class TestFunctionDescriptor:
    """
    Deterministic recipe for a test function.

    kind is one of:
      - "gaussian": params center (n-tuple), width
      - "smooth-bump": params center (n-tuple), radius
      - "sine": params kvec (integer n-tuple)
      - "random-bandlimited": params seed, max_k
      - "constant": the value amplitude everywhere

    Modifiers: translate tau (n-tuple, () for none), dilate lam > 0 (shrinks support by the
    factor lam about the center; multiplies sine/bandlimited frequencies by
    lam), amplitude a.
    """

    kind: str
    center: tuple[float, ...] | None = None
    width: float | None = None
    radius: float | None = None
    kvec: tuple[int, ...] | None = None
    seed: int | None = None
    max_k: int | None = None
    translate: tuple[float, ...] = ()
    dilate: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        # tuples, so that every descriptor hashes
        for name in ("center", "kvec", "translate"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(getattr(self, name)))

    def dilated(self, lam: float) -> "TestFunctionDescriptor":
        return replace(self, dilate=self.dilate * lam)


def _axis_coords(spec: GridSpec) -> tuple[np.ndarray, ...]:
    """The coordinates j*h of each axis, shaped to broadcast over the grid."""
    return np.ix_(*[np.arange(spec.N) * spec.h] * spec.n)


def _wrapped_displacement(spec: GridSpec, center: tuple[float, ...],
                          tau: tuple[float, ...]) -> list[np.ndarray]:
    """Minimum-image displacement of each grid point from center+tau, one
    broadcasting vector per axis."""
    return [(x - center[j] - tau[j] + spec.L / 2) % spec.L - spec.L / 2
            for j, x in enumerate(_axis_coords(spec))]


def _lattice_modes(spec: GridSpec, lam: float, modes) -> np.ndarray:
    """The integer frequencies lam*k of the modes k, one per row.  A
    dilation must keep every mode on the lattice and within the resolvable
    band |k_j| <= N/2 - 1; the first mode that leaves either is named."""
    modes = np.asarray(modes)
    k = np.round(lam * modes)
    off = ~np.all(np.abs(lam * modes - k) <= 1e-9, axis=1)
    bad = np.flatnonzero(off | np.any(np.abs(k) > spec.N // 2 - 1, axis=1))
    if bad.size:
        where = ("off the lattice" if off[bad[0]] else
                 f"beyond the resolvable band |k_j| <= {spec.N // 2 - 1} "
                 f"of N={spec.N}")
        raise ValueError(
            f"dilate {lam} maps mode {tuple(modes[bad[0]].tolist())} {where}")
    return k.astype(int)


def _bandlimited_values(desc: TestFunctionDescriptor, spec: GridSpec,
                        tau: tuple[float, ...]) -> np.ndarray:
    # one mode of each +-k pair, in lexicographic order, with coefficient
    # (a + ib) for a, b halves of two standard normal draws
    band = range(-desc.max_k, desc.max_k + 1)
    modes = np.array([m for m in itertools.product(band, repeat=spec.n)
                      if m > (0,) * spec.n], dtype=int).reshape(-1, spec.n)
    k = _lattice_modes(spec, desc.dilate, modes)
    a, b = np.random.default_rng(desc.seed).standard_normal((len(k), 2)).T / 2
    e = np.exp(-2j * np.pi * (k * tau).sum(axis=1) / spec.L)
    # c = (a + ib) e in real arithmetic, which rounds as a scalar product
    # does; a mode with k_n < 0 enters as its conjugate mirror
    sign = np.where(k[:, -1] < 0, -1, 1)
    c = np.empty(len(k), dtype=complex)
    c.real, c.imag = a * e.real - b * e.imag, sign * (a * e.imag + b * e.real)
    k *= sign[:, None]
    coeffs = np.zeros(spec.shape[:-1] + (spec.N // 2 + 1,), dtype=complex)
    coeffs[tuple((k % spec.N).T)] = c
    # the k_n = 0 column holds both halves of each pair
    edge = k[:, -1] == 0
    coeffs[tuple((-k[edge] % spec.N).T)] = np.conj(c[edge])
    # unnormalized: the scale is a power of two, divided out exactly below
    values = spectral_synthesis(spec, coeffs, np.ones(1))
    peak = np.max(np.abs(values))
    if peak > 0:
        values = values / peak
    return desc.amplitude * values


# Test functions of at most this many cells (32 KB: 1-D N <= 4096, 2-D
# N <= 64) are cached, 256 of them, so the cache holds at most 8 MB; one
# harness run samples 181 distinct functions.
_CACHED_FUNCTION_CELLS = 2**12


def make_function(desc: TestFunctionDescriptor, spec: GridSpec) -> GridFunction:
    """Sample a test function; bit-identical output for equal (desc, spec).

    The values are read-only.  On grids of at most 2^12 cells the result
    comes from a process-wide LRU cache of 256 entries keyed by (desc, spec),
    so equal descriptors return the same object."""
    if spec.N**spec.n <= _CACHED_FUNCTION_CELLS:
        return _cached_function(desc, spec)
    return _sampled(desc, spec)


def _sampled(desc: TestFunctionDescriptor, spec: GridSpec) -> GridFunction:
    f = GridFunction(spec, _sample_values(desc, spec))
    f.values.flags.writeable = False
    return f


_cached_function = functools.lru_cache(maxsize=256)(_sampled)


# The fields each kind reads; center and kvec are vectors of n entries
_KIND_FIELDS = {"gaussian": ("center", "width"),
                "smooth-bump": ("center", "radius"), "sine": ("kvec",),
                "random-bandlimited": ("seed", "max_k"), "constant": ()}


def _sample_values(desc: TestFunctionDescriptor, spec: GridSpec) -> np.ndarray:
    lam = desc.dilate
    if not (lam > 0):
        raise ValueError(f"dilate must be positive, got {lam}")
    if desc.kind not in _KIND_FIELDS:
        raise ValueError(f"unknown test-function kind: {desc.kind!r}")
    fields = _KIND_FIELDS[desc.kind]
    if any(getattr(desc, name) is None for name in fields):
        raise ValueError(f"{desc.kind} requires {' and '.join(fields)}")
    tau = desc.translate or (0.0,) * spec.n
    for name in [f for f in fields if f in ("center", "kvec")] + ["translate"]:
        v = tau if name == "translate" else getattr(desc, name)
        if len(v) != spec.n:
            raise ValueError(f"{name} must have n = {spec.n} entries, got {v}")

    if desc.kind == "gaussian":
        w_eff = desc.width / lam
        if w_eff > spec.L / 12:
            raise ValueError(
                f"gaussian effective width {w_eff:.4g} too large for period "
                f"{spec.L} (must be <= L/12 to keep support inside one period)"
            )
        d = _wrapped_displacement(spec, desc.center, tau)
        r2 = sum((lam * dj) ** 2 for dj in d)
        return desc.amplitude * np.exp(-r2 / (2 * desc.width**2))

    if desc.kind == "smooth-bump":
        r_eff = desc.radius / lam
        if r_eff > spec.L / 2.5:
            raise ValueError(
                f"bump effective radius {r_eff:.4g} too large for period "
                f"{spec.L} (support must stay inside one period)"
            )
        d = _wrapped_displacement(spec, desc.center, tau)
        rho2 = sum((lam * dj / desc.radius) ** 2 for dj in d)
        values = np.zeros(spec.shape)
        inside = rho2 < 1.0
        values[inside] = np.exp(1.0 - 1.0 / (1.0 - rho2[inside]))
        return desc.amplitude * values

    if desc.kind == "sine":
        kl = _lattice_modes(spec, lam, [desc.kvec])[0].tolist()
        axes = zip(kl, _axis_coords(spec), tau)
        phase = sum((k * (x - t) for k, x, t in axes), np.zeros(spec.shape))
        return desc.amplitude * np.sin(2 * np.pi * phase / spec.L)

    if desc.kind == "random-bandlimited":
        return _bandlimited_values(desc, spec, tau)

    return np.full(spec.shape, desc.amplitude)
