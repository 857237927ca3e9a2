import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracharm
from fracharm import grid
from fracharm import (GridFunction, GridSpec, TestFunctionDescriptor,
                      fft_forward, fft_inverse, hermitian_asymmetry,
                      make_function, spectral_apply, spectral_gradient)


@pytest.mark.parametrize("n,N,L", [(1, 64, 1.0), (1, 256, 2.5), (2, 32, 1.0)])
def test_spec_geometry(n, N, L):
    spec = GridSpec(n=n, N=N, L=L)
    assert spec.h == pytest.approx(L / N)
    assert spec.cell_volume == pytest.approx((L / N) ** n)
    assert spec.shape == (N,) * n
    for ax in spec.axes():
        assert ax[0] == 0.0
        assert ax[-1] == pytest.approx(L - L / N)


@pytest.mark.parametrize("n,N,L", [(3, 64, 1.0), (1, 100, 1.0), (1, 4, 1.0),
                                   (1, 64, 0.0), (1, 64, -2.0),
                                   (1, 64, float("inf")), (1, 64, float("nan"))])
def test_spec_rejects_bad_parameters(n, N, L):
    with pytest.raises(ValueError):
        GridSpec(n=n, N=N, L=L)


def test_grid_function_shape_check():
    spec = GridSpec(n=2, N=16, L=1.0)
    with pytest.raises(ValueError):
        GridFunction(spec, np.zeros(17))
    g = GridFunction(spec, np.zeros(256))
    assert g.values.shape == (16, 16)


def test_grid_function_arithmetic_rejects_mismatched_grids():
    a = GridFunction(GridSpec(n=1, N=16, L=1.0), np.ones(16))
    b = GridFunction(GridSpec(n=1, N=16, L=2.0), np.ones(16))
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: b * a):
        with pytest.raises(ValueError, match="grid mismatch"):
            op()
    same = GridFunction(GridSpec(n=1, N=16, L=1.0), np.full(16, 2.0))
    assert np.array_equal((a + same).values, np.full(16, 3.0))
    assert np.array_equal((2.0 * a).values, np.full(16, 2.0))


@pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
def test_fft_roundtrip_and_parseval(n, N):
    spec = GridSpec(n=n, N=N, L=1.5)
    rng = np.random.default_rng(42)
    f = GridFunction(spec, rng.standard_normal(spec.shape))
    S = fft_forward(f)
    assert hermitian_asymmetry(S.coeffs) <= 1e-12 * np.max(np.abs(S.coeffs))
    back = fft_inverse(S)
    assert np.max(np.abs(back.values - f.values)) <= 1e-12
    # Parseval with the 1/N^n forward normalization:
    # mean of |f|^2 equals sum of |coeff|^2
    assert np.mean(f.values**2) == pytest.approx(
        np.sum(np.abs(S.coeffs) ** 2), rel=1e-12)


def test_forward_convention_single_mode():
    spec = GridSpec(n=1, N=32, L=1.0)
    x = spec.coords()[0]
    f = GridFunction(spec, np.cos(2 * np.pi * 3 * x))
    c = fft_forward(f).coeffs
    assert c[3] == pytest.approx(0.5)
    assert c[-3] == pytest.approx(0.5)
    others = np.delete(c, [3, 32 - 3])
    assert np.max(np.abs(others)) <= 1e-14


def test_fft_inverse_rejects_non_hermitian():
    spec = GridSpec(n=1, N=16, L=1.0)
    coeffs = np.zeros(16, dtype=complex)
    coeffs[1] = 1.0j  # no conjugate partner at k = -1
    from fracharm.grid import Spectrum
    with pytest.raises(ValueError, match="Hermitian"):
        fft_inverse(Spectrum(spec, coeffs))


@pytest.mark.parametrize("n,N", [(1, 1024), (2, 64)])
def test_spectral_apply_matches_complex_fft(n, N):
    spec = GridSpec(n=n, N=N, L=1.0)
    v = np.random.default_rng(7).standard_normal(spec.shape)
    xis = spec.frequencies()
    mag = spec.frequency_magnitude()
    nyq = spec.nyquist_mask()
    with np.errstate(divide="ignore", invalid="ignore"):
        riesz = np.where(nyq | (mag == 0), 0.0, -1j * xis[0] / mag)
    even = (2 * np.pi * mag) ** 0.7
    grad = np.where(nyq, 0.0, 2j * np.pi * xis[-1] * np.exp(-0.01 * mag))

    def check(got, mult, values=v):
        want = np.fft.ifftn(mult * np.fft.fftn(values)).real
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    # single multipliers, the odd ones zeroed on the Nyquist rows
    for mult in (even, riesz, grad):
        check(spectral_apply(spec, v, mult), mult)
    # one transform of v serves a stack of multipliers
    stack = np.stack([even, riesz, grad])
    got = spectral_apply(spec, v, stack)
    assert got.shape == (3, *spec.shape)
    for g, mult in zip(got, stack):
        check(g, mult)
    # and one multiplier serves a stack of values
    vs = np.stack([v, v**2])
    for g, values in zip(spectral_apply(spec, vs, riesz), vs):
        check(g, riesz, values)


def test_inverse_transforms_only_in_spectral_path():
    # every multiplier goes through grid.spectral_synthesis; fft_inverse is the
    # inverse of the Spectrum API.  Any mention of an inverse transform
    # counts: a call, an alias or an import.
    inverse = {"ifft", "ifft2", "ifftn", "irfft", "irfft2", "irfftn"}
    sites = set()
    for path in sorted(Path(fracharm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            names = {getattr(node, "attr", None), getattr(node, "id", None)}
            names |= {a.name for a in getattr(node, "names", ())
                      if isinstance(a, ast.alias)}
            if not names & inverse:
                continue
            owners = [f for f in funcs
                      if f.lineno <= node.lineno <= f.end_lineno]
            owner = max(owners, key=lambda f: f.lineno, default=None)
            sites.add((path.stem, owner.name if owner else "<module>"))
    assert sites == {("grid", "spectral_synthesis"), ("grid", "fft_inverse")}


@pytest.mark.parametrize("k", [1, 3, 7])
def test_spectral_gradient_on_sine(k):
    spec = GridSpec(n=1, N=128, L=2.0)
    x = spec.coords()[0]
    f = GridFunction(spec, np.sin(2 * np.pi * k * x / spec.L))
    (g,) = spectral_gradient(f)
    exact = (2 * np.pi * k / spec.L) * np.cos(2 * np.pi * k * x / spec.L)
    assert np.max(np.abs(g.values - exact)) <= 1e-10 * np.max(np.abs(exact))


def test_spectral_gradient_2d_mixed():
    spec = GridSpec(n=2, N=32, L=1.0)
    X, Y = spec.coords()
    f = GridFunction(spec, np.sin(2 * np.pi * X) * np.cos(4 * np.pi * Y))
    gx, gy = spectral_gradient(f)
    ex = 2 * np.pi * np.cos(2 * np.pi * X) * np.cos(4 * np.pi * Y)
    ey = -4 * np.pi * np.sin(2 * np.pi * X) * np.sin(4 * np.pi * Y)
    assert np.max(np.abs(gx.values - ex)) <= 1e-9
    assert np.max(np.abs(gy.values - ey)) <= 1e-9


@pytest.mark.parametrize("kind,kwargs", [
    ("gaussian", {"center": (0.5,), "width": 0.05}),
    ("smooth-bump", {"center": (0.4,), "radius": 0.2}),
    ("sine", {"kvec": (3,)}),
    ("random-bandlimited", {"seed": 5, "max_k": 6}),
    ("constant", {}),
])
def test_make_function_kinds(kind, kwargs):
    spec = GridSpec(n=1, N=128, L=1.0)
    f = make_function(TestFunctionDescriptor(kind=kind, amplitude=1.3, **kwargs), spec)
    assert f.values.shape == spec.shape
    assert np.all(np.isfinite(f.values))
    if kind == "constant":
        assert np.all(f.values == 1.3)
    if kind in ("sine", "random-bandlimited"):
        assert abs(np.mean(f.values)) <= 1e-12


def test_make_function_deterministic():
    spec = GridSpec(n=1, N=64, L=1.0)
    d = TestFunctionDescriptor(kind="random-bandlimited", seed=11, max_k=5)
    a = make_function(d, spec).values
    b = make_function(d, spec).values
    assert np.array_equal(a, b)


def test_make_function_caches_read_only_functions():
    spec = GridSpec(n=1, N=128, L=1.0)
    desc = TestFunctionDescriptor(kind="gaussian", center=(0.5,), width=0.05)
    f = make_function(desc, spec)
    assert not f.values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        f.values[0] = 1.0
    equal = TestFunctionDescriptor(kind="gaussian", center=(0.5,), width=0.05)
    assert make_function(equal, spec) is f
    assert np.array_equal(grid._sampled(desc, spec).values, f.values)
    other = GridSpec(n=1, N=128, L=2.0)
    assert make_function(desc, other) is not f
    # a list-valued field is sampled afresh, to the same values
    listed = make_function(TestFunctionDescriptor(
        kind="gaussian", center=[0.5], width=0.05), spec)
    assert listed is not f and not listed.values.flags.writeable
    assert np.array_equal(listed.values, f.values)
    # grids of more than 2^12 cells bypass the cache
    big = GridSpec(n=2, N=128, L=1.0)
    centred = TestFunctionDescriptor(kind="gaussian", center=(0.5, 0.5),
                                     width=0.05)
    g = make_function(centred, big)
    assert not g.values.flags.writeable
    assert make_function(centred, big) is not g


def test_bump_support_and_positivity():
    spec = GridSpec(n=1, N=256, L=1.0)
    d = TestFunctionDescriptor(kind="smooth-bump", center=(0.5,), radius=0.2,
                               amplitude=2.0)
    f = make_function(d, spec).values
    x = spec.coords()[0]
    outside = np.abs(x - 0.5) >= 0.2
    assert np.all(f[outside] == 0.0)
    assert np.all(f >= 0.0)
    assert np.max(f) == pytest.approx(2.0, rel=1e-12)


def test_dilate_shrinks_support_about_center():
    spec = GridSpec(n=1, N=256, L=1.0)
    d = TestFunctionDescriptor(kind="smooth-bump", center=(0.5,), radius=0.2)
    f2 = make_function(d.dilated(2.0), spec).values
    x = spec.coords()[0]
    assert np.all(f2[np.abs(x - 0.5) >= 0.1] == 0.0)
    assert f2[np.argmin(np.abs(x - 0.5))] == pytest.approx(1.0, rel=1e-12)


def test_dilate_rejects_off_lattice_modes():
    spec = GridSpec(n=1, N=64, L=1.0)
    d = TestFunctionDescriptor(kind="sine", kvec=(3,), dilate=0.5)
    with pytest.raises(ValueError, match="non-integer|off the lattice"):
        make_function(d, spec)
    d2 = TestFunctionDescriptor(kind="random-bandlimited", seed=1, max_k=4,
                                dilate=16.0)
    with pytest.raises(ValueError, match="band"):
        make_function(d2, spec)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), amp=st.floats(0.1, 10.0))
def test_fft_linearity_property(seed, amp):
    spec = GridSpec(n=1, N=64, L=1.0)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(64)
    a = fft_forward(GridFunction(spec, amp * v)).coeffs
    b = amp * fft_forward(GridFunction(spec, v)).coeffs
    assert np.max(np.abs(a - b)) <= 1e-12 * max(np.max(np.abs(b)), 1.0)
