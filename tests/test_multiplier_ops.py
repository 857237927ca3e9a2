import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracharm import (GridFunction, GridSpec, SymbolDescriptor,
                      TestFunctionDescriptor, apply_symbol, frac_laplacian,
                      l2_norm, make_function, mean_projected, riesz_potential,
                      riesz_transform)
from fracharm.multiplier_ops import _builtin_multiplier, _multiplier_array
from grid_helpers import coords


def _bandlimited(spec, seed=3, max_k=8):
    f = make_function(TestFunctionDescriptor(
        kind="random-bandlimited", seed=seed, max_k=max_k), spec)
    return mean_projected(f)[0]


@pytest.mark.parametrize("k", [1, 4, 9])
@pytest.mark.parametrize("s", [0.3, 1.0, 1.7])
def test_frac_laplacian_on_sine(k, s):
    spec = GridSpec(n=1, N=128, L=2.0)
    x = coords(spec)[0]
    f = GridFunction(spec, np.sin(2 * np.pi * k * x / spec.L))
    g = frac_laplacian(f, s)
    exact = (2 * np.pi * k / spec.L) ** s * f.values
    assert np.max(np.abs(g.values - exact)) <= 1e-10 * np.max(np.abs(exact))


def test_hilbert_of_sine_is_minus_cosine():
    spec = GridSpec(n=1, N=64, L=1.0)
    x = coords(spec)[0]
    f = GridFunction(spec, np.sin(2 * np.pi * 3 * x))
    h = riesz_transform(f, 1)
    assert np.max(np.abs(h.values + np.cos(2 * np.pi * 3 * x))) <= 1e-12


def test_hilbert_involution():
    spec = GridSpec(n=1, N=256, L=1.0)
    f = _bandlimited(spec)
    hh = riesz_transform(riesz_transform(f, 1), 1)
    assert l2_norm(GridFunction(spec, hh.values + f.values)) <= 1e-10 * l2_norm(f)


def test_riesz_sum_of_squares_2d():
    spec = GridSpec(n=2, N=32, L=1.0)
    f = _bandlimited(spec, seed=9, max_k=6)
    rr = sum(
        (riesz_transform(riesz_transform(f, j), j).values for j in (1, 2)),
        start=np.zeros(spec.shape),
    )
    assert l2_norm(GridFunction(spec, rr + f.values)) <= 1e-10 * l2_norm(f)


@pytest.mark.parametrize("s1,s2", [(0.4, 0.7), (0.5, 0.5), (1.2, 0.3)])
def test_frac_laplacian_semigroup(s1, s2):
    spec = GridSpec(n=1, N=128, L=1.0)
    f = _bandlimited(spec)
    a = frac_laplacian(frac_laplacian(f, s1), s2)
    b = frac_laplacian(f, s1 + s2)
    assert l2_norm(GridFunction(spec, a.values - b.values)) <= 1e-10 * l2_norm(b)


@pytest.mark.parametrize("s", [0.3, 0.6, 0.9])
def test_potential_inverts_frac_laplacian(s):
    spec = GridSpec(n=1, N=128, L=1.0)
    f = _bandlimited(spec)
    inv = riesz_potential(frac_laplacian(f, s), s)
    assert l2_norm(GridFunction(spec, inv.values - f.values)) <= 1e-10 * l2_norm(f)


def test_riesz_potential_rejects_nonzero_mean():
    spec = GridSpec(n=1, N=64, L=1.0)
    bump = make_function(TestFunctionDescriptor(
        kind="smooth-bump", center=(0.5,), radius=0.2), spec)
    with pytest.raises(ValueError, match="mean"):
        riesz_potential(bump, 0.5)
    f0, mass = mean_projected(bump)
    assert mass == pytest.approx(np.mean(bump.values))
    assert abs(np.mean(f0.values)) <= 1e-15
    riesz_potential(f0, 0.5)  # projected input is accepted


def test_frac_laplacian_of_constant_is_zero():
    spec = GridSpec(n=2, N=16, L=1.0)
    c = GridFunction(spec, np.full(spec.shape, 3.7))
    g = frac_laplacian(c, 0.8)
    assert np.max(np.abs(g.values)) <= 1e-12


def test_overflowing_symbol_is_an_error_not_a_warning():
    # (2 pi |xi|)^1000 overflows at every nonzero mode: with warnings as
    # errors the "not finite" ValueError is still what surfaces
    spec = GridSpec(n=1, N=16, L=1.0)
    f = GridFunction(spec, np.sin(2 * np.pi * coords(spec)[0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            frac_laplacian(f, 1e3)


def test_frac_laplacian_rejects_nonpositive_order():
    spec = GridSpec(n=1, N=16, L=1.0)
    f = GridFunction(spec, np.zeros(16))
    with pytest.raises(ValueError):
        frac_laplacian(f, 0.0)
    with pytest.raises(ValueError):
        riesz_potential(f, 1.0)  # s must be < n
    with pytest.raises(ValueError):
        riesz_transform(f, 2)  # no second axis in 1-D


def test_nyquist_energy_is_handled():
    # odd symbols must vanish on the Nyquist row for the output to be real
    spec = GridSpec(n=1, N=32, L=1.0)
    x = coords(spec)[0]
    f = GridFunction(spec, np.cos(2 * np.pi * 16 * x))  # pure Nyquist mode
    h = riesz_transform(f, 1)
    assert np.max(np.abs(h.values)) <= 1e-12


def test_apply_symbol_custom_multiplier():
    spec = GridSpec(n=1, N=64, L=1.0)
    f = _bandlimited(spec)
    doubled = apply_symbol(f, SymbolDescriptor(
        lambda xi: np.full_like(xi, 2.0), at_zero=2.0, name="double"))
    assert np.max(np.abs(doubled.values - 2 * f.values)) <= 1e-12


def test_apply_symbol_rejects_non_hermitian_symbol():
    spec = GridSpec(n=1, N=64, L=1.0)
    f = _bandlimited(spec)
    times_i = SymbolDescriptor(lambda xi: np.full_like(xi, 1j, dtype=complex),
                               at_zero=1j, name="times_i")
    with pytest.raises(ValueError, match="Hermitian"):
        apply_symbol(f, times_i)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), s=st.floats(0.2, 1.5))
def test_multipliers_commute_property(seed, s):
    spec = GridSpec(n=1, N=64, L=1.0)
    f = _bandlimited(spec, seed=seed, max_k=10)
    a = riesz_transform(frac_laplacian(f, s), 1)
    b = frac_laplacian(riesz_transform(f, 1), s)
    scale = max(l2_norm(a), 1e-12)
    assert l2_norm(GridFunction(spec, a.values - b.values)) <= 1e-10 * scale


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_parseval_l2_norm_property(seed):
    spec = GridSpec(n=1, N=64, L=2.0)
    rng = np.random.default_rng(seed)
    f = GridFunction(spec, rng.standard_normal(64))
    from fracharm import fft_forward
    coeff_norm = np.sqrt(np.sum(np.abs(fft_forward(f)) ** 2) * spec.L)
    assert l2_norm(f) == pytest.approx(coeff_norm, rel=1e-12)


def _magnitude(xis):
    return np.sqrt(sum(x**2 for x in xis))


def _builtin_symbols(n):
    """(operator, order or axis, the operator's symbol) for each built-in."""
    out = [("riesz_transform", j, SymbolDescriptor(
        lambda *xis, j=j: -1j * xis[j - 1] / _magnitude(xis)))
        for j in range(1, n + 1)]
    for s in (0.3, 1.0, 1.7):
        out.append(("frac_laplacian", s, SymbolDescriptor(
            lambda *xis, s=s: (2 * np.pi * _magnitude(xis)) ** s)))
        if s < n:
            out.append(("riesz_potential", s, SymbolDescriptor(
                lambda *xis, s=s: (2 * np.pi * _magnitude(xis)) ** (-s))))
    return out


@pytest.mark.parametrize("n,N", [(1, 128), (2, 32)])
def test_cached_multipliers_equal_uncached_half(n, N):
    spec = GridSpec(n=n, N=N, L=1.7)
    f = _bandlimited(spec, max_k=5)
    public = {"riesz_transform": riesz_transform,
              "frac_laplacian": frac_laplacian,
              "riesz_potential": riesz_potential}
    for op, param, symbol in _builtin_symbols(n):
        cached = _builtin_multiplier(spec, op, param)
        expect = _multiplier_array(spec, symbol)[..., : N // 2 + 1]
        assert cached.shape == expect.shape
        assert np.array_equal(cached, expect)
        assert np.array_equal(public[op](f, param).values,
                              apply_symbol(f, symbol).values)


def test_cached_multiplier_is_read_only_and_reused():
    spec = GridSpec(n=1, N=64, L=1.0)
    f = _bandlimited(spec)
    frac_laplacian(f, 0.45)
    before = _builtin_multiplier.cache_info()
    frac_laplacian(f, 0.45)
    after = _builtin_multiplier.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    arr = _builtin_multiplier(spec, "frac_laplacian", 0.45)
    with pytest.raises(ValueError, match="read-only"):
        arr[1] = 0.0
    # per-call checks still run on a cached key
    with pytest.raises(ValueError, match="mean"):
        riesz_potential(f + GridFunction(spec, np.ones(64)), 0.45)


def test_constant_symbol_broadcasts_over_the_lattice():
    # a symbol that returns a scalar is broadcast to the grid's shape
    spec = GridSpec(n=2, N=32, L=1.0)
    f = _bandlimited(spec)
    two = SymbolDescriptor(lambda *xis: 2.0, at_zero=2.0, name="two")
    assert _multiplier_array(spec, two).shape == spec.shape
    g = apply_symbol(f, two)
    assert np.max(np.abs(g.values - 2 * f.values)) <= 1e-15 * np.max(
        np.abs(f.values))
