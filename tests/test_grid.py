import ast
import importlib
import inspect
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracharm
from fracharm import grid
from fracharm import (EstimateDescriptor, GridFunction, GridSpec,
                      TestFunctionDescriptor, fft_forward, hermitian_asymmetry,
                      make_function, spectral_apply, spectral_gradient,
                      standard_family, verify_estimate)
from grid_helpers import coords, mention_sites


def _fft_inverse(spec: GridSpec, coeffs: np.ndarray) -> GridFunction:
    """Complex inverse transform of fft_forward's coefficients back to real
    samples: the test oracle of the real-FFT synthesis."""
    return GridFunction(spec, np.fft.ifftn(coeffs * coeffs.size).real)


@pytest.mark.parametrize("n,N,L", [(1, 64, 1.0), (1, 256, 2.5), (2, 32, 1.0)])
def test_spec_geometry(n, N, L):
    spec = GridSpec(n=n, N=N, L=L)
    assert spec.h == pytest.approx(L / N)
    assert spec.cell_volume == pytest.approx((L / N) ** n)
    assert spec.shape == (N,) * n
    for axis, x in enumerate(coords(spec)):
        assert x.shape == spec.shape
        assert np.all(np.take(x, 0, axis=axis) == 0.0)
        assert np.take(x, -1, axis=axis) == pytest.approx(
            np.full(spec.shape[1:], L - L / N))


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
    # leading axes in front of the grid shape make a stack of functions
    assert GridFunction(spec, np.zeros((3, 16, 16))).values.shape == (3, 16, 16)
    for values in (np.zeros((3, 17)), np.zeros((3, 256)), np.zeros((3, 16, 17))):
        with pytest.raises(ValueError, match="entries"):
            GridFunction(spec, values)
    with pytest.raises(ValueError, match="finite"):
        GridFunction(spec, np.stack([np.zeros((16, 16)), np.full((16, 16), np.nan)]))


def test_grid_function_rejects_complex_values():
    # casting would drop the imaginary part with only a ComplexWarning
    spec = GridSpec(n=1, N=16, L=1.0)
    for values in (np.ones(16) + 1j, np.ones(16, dtype=complex), [1j] * 16,
                   np.ones((3, 16), dtype=complex)):
        with pytest.raises(ValueError, match="real"):
            GridFunction(spec, values)


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
    c = fft_forward(f)
    assert isinstance(c, np.ndarray) and c.shape == spec.shape
    assert hermitian_asymmetry(c) <= 1e-12 * np.max(np.abs(c))
    back = _fft_inverse(spec, c)
    assert np.max(np.abs(back.values - f.values)) <= 1e-12
    # Parseval with the 1/N^n forward normalization:
    # mean of |f|^2 equals sum of |coeff|^2
    assert np.mean(f.values**2) == pytest.approx(
        np.sum(np.abs(c) ** 2), rel=1e-12)


def test_forward_convention_single_mode():
    spec = GridSpec(n=1, N=32, L=1.0)
    x = coords(spec)[0]
    f = GridFunction(spec, np.cos(2 * np.pi * 3 * x))
    c = fft_forward(f)
    assert c[3] == pytest.approx(0.5)
    assert c[-3] == pytest.approx(0.5)
    others = np.delete(c, [3, 32 - 3])
    assert np.max(np.abs(others)) <= 1e-14


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
    # every synthesis goes through grid.spectral_synthesis
    inverse = {"ifft", "ifft2", "ifftn", "irfft", "irfft2", "irfftn"}
    assert mention_sites(inverse) == {("grid", "spectral_synthesis")}


def test_forward_transforms_only_in_spectral_path():
    # every forward transform goes through grid.spectral_forward;
    # fft_forward stays for the benchmark's tracer, which reports it by name
    forward = {"fft", "fftn", "fft2", "rfft", "rfft2", "rfftn"}
    assert mention_sites(forward) == {("grid", "spectral_forward"),
                                         ("grid", "fft_forward")}


def test_every_traced_name_is_a_function_of_its_layer():
    # the benchmark's tracer wraps functions by name; one it cannot find is
    # reported absent, so a deleted name must show here
    path = Path(__file__).parents[1] / "perfbench" / "traced.py"
    body = ast.parse(path.read_text()).body
    reported = next(ast.literal_eval(node.value) for node in body
                    if isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets]
                    == ["REPORTED"])
    assert "fft_forward" in reported["grid"]
    for layer, names in reported.items():
        module = importlib.import_module(f"fracharm.{layer}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), (layer,
                                                                     name)


def _whole_stack_synthesis(spec, coeffs, mult):
    # numpy's one call on the whole stack: the oracle of the blocked path
    return np.fft.irfftn(coeffs * mult[..., : spec.N // 2 + 1],
                         s=spec.shape, axes=tuple(range(-spec.n, 0)))


# (spec, values shape, multiplier shape, forward calls, synthesis calls).  A
# block takes as many rows of the first axis as keep it within 2^16 cells,
# and at least one.
_BLOCK_CASES = {
    # exactly the budget: one call each way
    "1d-at-budget": (GridSpec(n=1, N=1024, L=1.0), (64, 1024), (1024,), 1, 1),
    # 80 rows over the budget, blocks of 64 rows
    "1d-over-budget": (GridSpec(n=1, N=1024, L=1.0), (80, 1024), (1024,),
                       2, 2),
    # one function over the budget is one block
    "2d-one-function": (GridSpec(n=2, N=512, L=1.0), (512, 512), (512, 257),
                        1, 1),
    # spectral_gradient's broadcast (S, 1, *half) x (n, *half): blocks of 4
    # rows forward, 2 rows of both components back
    "2d-gradient": (GridSpec(n=2, N=128, L=1.0), (20, 1, 128, 128),
                    (2, 128, 65), 5, 10),
    # the Jacobian extension route's levels: three functions forward in one
    # call, each (3, 128, 128) multiplier row back in a block of its own
    "jacobian-levels": (GridSpec(n=2, N=128, L=1.0), (3, 128, 128),
                        (3, 1, 128, 65), 1, 3),
}


@pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
def test_blocked_transforms_equal_the_whole_stack_call(case, monkeypatch):
    spec, shape, mult_shape, n_forward, n_synthesis = _BLOCK_CASES[case]
    rng = np.random.default_rng(11)
    values = rng.standard_normal(shape)
    mult = rng.standard_normal(mult_shape) + 1j * rng.standard_normal(mult_shape)
    axes = tuple(range(-spec.n, 0))
    want_coeffs = np.fft.rfftn(values, axes=axes)
    want = _whole_stack_synthesis(spec, want_coeffs, mult)
    calls = {"rfftn": 0, "irfftn": 0}
    for name in calls:
        def counting(*args, _real=getattr(np.fft, name), _name=name, **kw):
            calls[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(np.fft, name, counting)
    coeffs = grid.spectral_forward(spec, values)
    got = grid.spectral_synthesis(spec, coeffs, mult)
    assert calls == {"rfftn": n_forward, "irfftn": n_synthesis}
    assert np.array_equal(coeffs, want_coeffs)
    assert np.array_equal(got, want)


def test_package_imports_no_scipy():
    # the package needs numpy alone; scipy serves the tests only.  Every
    # import statement counts, a deferred one inside a function included.
    sites = []
    for path in sorted(Path(fracharm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            sites += [(path.stem, node.lineno, m) for m in modules
                      if m == "scipy" or m.startswith("scipy.")]
    assert sites == []


@pytest.mark.parametrize("k", [1, 3, 7])
def test_spectral_gradient_on_sine(k):
    spec = GridSpec(n=1, N=128, L=2.0)
    x = coords(spec)[0]
    f = GridFunction(spec, np.sin(2 * np.pi * k * x / spec.L))
    (g,) = spectral_gradient(f)
    exact = (2 * np.pi * k / spec.L) * np.cos(2 * np.pi * k * x / spec.L)
    assert np.max(np.abs(g.values - exact)) <= 1e-10 * np.max(np.abs(exact))


def test_spectral_gradient_2d_mixed():
    spec = GridSpec(n=2, N=32, L=1.0)
    X, Y = coords(spec)
    f = GridFunction(spec, np.sin(2 * np.pi * X) * np.cos(4 * np.pi * Y))
    gx, gy = spectral_gradient(f)
    ex = 2 * np.pi * np.cos(2 * np.pi * X) * np.cos(4 * np.pi * Y)
    ey = -4 * np.pi * np.sin(2 * np.pi * X) * np.sin(4 * np.pi * Y)
    assert np.max(np.abs(gx.values - ex)) <= 1e-9
    assert np.max(np.abs(gy.values - ey)) <= 1e-9
    # a stack's gradient components are the stacks of the rows' components
    stack = GridFunction(spec, np.stack([f.values, f.values.T, 2 * f.values]))
    grads = spectral_gradient(stack)
    rows = [spectral_gradient(GridFunction(spec, v)) for v in stack.values]
    for j in range(2):
        assert np.array_equal(grads[j].values,
                              np.stack([r[j].values for r in rows]))


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


def _full_grid_values(desc, spec):
    """Bumps, gaussians and sines sampled from the full-grid coordinates of
    coords(spec), the oracle of make_function's per-axis sampling."""
    lam, axes = desc.dilate, coords(spec)
    tau = desc.translate if desc.translate else (0.0,) * spec.n
    if desc.kind == "sine":
        kl = [round(lam * k) for k in desc.kvec]
        phase = sum(k * (x - t) for k, x, t in zip(kl, axes, tau))
        return desc.amplitude * np.sin(2 * np.pi * phase / spec.L)
    d = []
    for j in range(spec.n):
        dj = axes[j] - desc.center[j] - tau[j]
        d.append((dj + spec.L / 2) % spec.L - spec.L / 2)
    if desc.kind == "gaussian":
        r2 = sum((lam * dj) ** 2 for dj in d)
        return desc.amplitude * np.exp(-r2 / (2 * desc.width**2))
    rho2 = sum((lam * dj / desc.radius) ** 2 for dj in d)
    values = np.zeros(spec.shape)
    inside = rho2 < 1.0
    values[inside] = np.exp(1.0 - 1.0 / (1.0 - rho2[inside]))
    return desc.amplitude * values


@pytest.mark.parametrize("n,N", [(1, 256), (2, 64)])
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_per_axis_sampling_equals_full_grid_coordinates(n, N, lam):
    spec = GridSpec(n=n, N=N, L=1.3)
    centers = {1: ((0.61,), (1.22,)), 2: ((0.61, 0.7), (1.22, 0.05))}[n]
    translates = {1: ((), (0.17,)), 2: ((), (0.17, -0.4))}[n]
    descs = []
    for center in centers:  # the second wraps round the period
        for tau in translates:
            descs += [
                TestFunctionDescriptor(kind="gaussian", center=center,
                                       width=0.05, translate=tau,
                                       amplitude=1.7),
                TestFunctionDescriptor(kind="smooth-bump", center=center,
                                       radius=0.2, translate=tau,
                                       amplitude=0.6)]
    for tau in translates:
        descs.append(TestFunctionDescriptor(
            kind="sine", kvec=(6, -4)[:n], translate=tau, amplitude=1.1))
    for desc in descs:
        desc = desc.dilated(lam)
        want = _full_grid_values(desc, spec)
        got = make_function(desc, spec).values
        assert got.shape == spec.shape
        assert np.array_equal(got, want), desc


def _bandlimited_full_lattice(desc, spec):
    """Band-limited members built on the full lattice and synthesized by a
    complex inverse transform: the oracle of the half-lattice synthesis."""
    rng = np.random.default_rng(desc.seed)
    coeffs = np.zeros(spec.shape, dtype=complex)
    kmax = desc.max_k
    modes = ([(k,) for k in range(1, kmax + 1)] if spec.n == 1 else
             [(kx, ky) for kx in range(-kmax, kmax + 1)
              for ky in range(-kmax, kmax + 1) if (kx, ky) > (0, 0)])
    tau = desc.translate if desc.translate else (0.0,) * spec.n
    for mode in modes:
        re, im = rng.standard_normal(2)
        idx = [round(desc.dilate * m) for m in mode]
        c = (re + 1j * im) / 2 * np.exp(
            -2j * np.pi * sum(i * t for i, t in zip(idx, tau)) / spec.L)
        coeffs[tuple(i % spec.N for i in idx)] += c
        coeffs[tuple(-i % spec.N for i in idx)] += np.conj(c)
    values = _fft_inverse(spec, coeffs / coeffs.size).values
    return desc.amplitude * values / np.max(np.abs(values))


@pytest.mark.parametrize("n,N", [(1, 1024), (2, 64)])
def test_bandlimited_half_lattice_matches_full_lattice(n, N):
    spec = GridSpec(n=n, N=N, L=1.0)
    worst = 0.0
    for seed in range(1000, 1010):
        for lam in (1.0, 2.0, 4.0):
            for tau in ((), (0.31, -0.07)[:n]):
                desc = TestFunctionDescriptor(
                    kind="random-bandlimited", seed=seed, max_k=6,
                    dilate=lam, translate=tau, amplitude=1.4)
                want = _bandlimited_full_lattice(desc, spec)
                got = make_function(desc, spec).values
                worst = max(worst, float(np.max(np.abs(got - want))
                                         / np.max(np.abs(want))))
    assert worst <= 1e-15


def _bandlimited_per_mode(desc, spec):
    """Band-limited members drawn, phased and placed on the half lattice one
    mode at a time: the bit-exact oracle of the array path."""
    lam = desc.dilate
    rng = np.random.default_rng(desc.seed)
    coeffs = np.zeros(spec.shape[:-1] + (spec.N // 2 + 1,), dtype=complex)
    band = range(-desc.max_k, desc.max_k + 1)
    modes = [m for m in itertools.product(band, repeat=spec.n)
             if m > (0,) * spec.n]
    tau = desc.translate if desc.translate else (0.0,) * spec.n
    for mode in modes:
        re, im = rng.standard_normal(2)
        idx = [round(lam * m) for m in mode]
        c = (re + 1j * im) / 2 * np.exp(
            -2j * np.pi * sum(i * t for i, t in zip(idx, tau)) / spec.L)
        if idx[-1] < 0:
            idx, c = [-i for i in idx], np.conj(c)
        coeffs[tuple(i % spec.N for i in idx)] = c
        if idx[-1] == 0:
            coeffs[tuple(-i % spec.N for i in idx)] = np.conj(c)
    values = grid.spectral_synthesis(spec, coeffs, np.ones(1))
    peak = np.max(np.abs(values))
    if peak > 0:
        values = values / peak
    return desc.amplitude * values


@pytest.mark.parametrize("n,N", [(1, 64), (1, 1024), (2, 64), (2, 128)])
def test_bandlimited_members_equal_the_per_mode_loop(n, N):
    spec = GridSpec(n=n, N=N, L=1.0)
    members = [t for sample in standard_family(3, spec) for t in sample
               if t.kind == "random-bandlimited"]
    # the family's members in the three dilation states of the harness
    descs = [t.dilated(lam) for t in members for lam in (0.5, 1.0, 2.0)]
    descs += [TestFunctionDescriptor(kind="random-bandlimited", seed=seed,
                                     max_k=6, dilate=2.0, amplitude=1.4,
                                     translate=(0.31, -0.07)[:n])
              for seed in (1000, 1001)]
    descs.append(TestFunctionDescriptor(kind="random-bandlimited", seed=3,
                                        max_k=0))
    assert len(descs) == 48
    for desc in descs:
        got = grid._sampled(desc, spec).values
        assert np.array_equal(got, _bandlimited_per_mode(desc, spec)), desc
    # max_k = 0 has no modes: the zero function
    assert not np.any(got)


@pytest.mark.parametrize("eid,n,N", [("crw-lorentz", 1, 256),
                                     ("hardy-duality", 1, 256),
                                     ("jacobian-bmo", 2, 64)])
def test_reports_move_by_rounding_from_full_lattice_members(eid, n, N,
                                                            monkeypatch):
    # the half-lattice synthesis moves a report only by rounding: every
    # number stays within 1e-13 of max(|x|, 1) and the verdict is the same
    spec = GridSpec(n=n, N=N, L=1.0)
    d = EstimateDescriptor(eid)
    family = standard_family(d.arity, spec)

    def report():
        grid._cached_function.cache_clear()
        r = verify_estimate(d, family, spec)
        rows = [(s["lhs"], s["rhs"], s["ratio"]) for s in r.samples]
        return r.passed, np.array([r.fitted_constant, r.validation_max_ratio,
                                   r.dilation_stability, *np.ravel(rows)])

    passed, got = report()
    # the oracle reads the translation from the descriptor itself
    monkeypatch.setattr(grid, "_bandlimited_values",
                        lambda desc, spec, tau:
                        _bandlimited_full_lattice(desc, spec))
    passed0, want = report()
    monkeypatch.undo()
    grid._cached_function.cache_clear()
    assert passed == passed0
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) <= 1e-13


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
    # a list-valued field is stored as a tuple: the same cache entry
    listed = TestFunctionDescriptor(kind="gaussian", center=[0.5], width=0.05)
    assert listed == desc and hash(listed) == hash(desc)
    assert make_function(listed, spec) is f
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
    x = coords(spec)[0]
    outside = np.abs(x - 0.5) >= 0.2
    assert np.all(f[outside] == 0.0)
    assert np.all(f >= 0.0)
    assert np.max(f) == pytest.approx(2.0, rel=1e-12)


def test_dilate_shrinks_support_about_center():
    spec = GridSpec(n=1, N=256, L=1.0)
    d = TestFunctionDescriptor(kind="smooth-bump", center=(0.5,), radius=0.2)
    f2 = make_function(d.dilated(2.0), spec).values
    x = coords(spec)[0]
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


@pytest.mark.parametrize("n", [1, 2])
def test_one_lattice_check_names_the_first_bad_mode(n):
    # sines and band-limited members share one check and its two messages
    spec = GridSpec(n=n, N=64, L=1.0)
    sine = TestFunctionDescriptor(kind="sine", kvec=(3, 2)[:n])
    limited = TestFunctionDescriptor(kind="random-bandlimited", seed=1,
                                     max_k=3)
    first = (1,) if n == 1 else (0, 1)
    nan = TestFunctionDescriptor(kind="sine", kvec=(float("nan"),) * n)
    off = [(sine, 0.5, (3, 2)[:n]), (limited, 0.5, first),
           (nan, 1.0, (float("nan"),) * n)]
    for desc, lam, mode in off:
        with pytest.raises(ValueError, match="off the lattice") as err:
            make_function(desc.dilated(lam), spec)
        assert f"mode {mode} " in str(err.value)
    # lam = 12 keeps every mode on the lattice and takes k = 3 to 36 > 31
    wide = [(sine, (3, 2)[:n]), (limited, (3,) if n == 1 else (0, 3))]
    for desc, mode in wide:
        with pytest.raises(ValueError, match="beyond the resolvable band "
                           r"\|k_j\| <= 31 of N=64") as err:
            make_function(desc.dilated(12.0), spec)
        assert f"mode {mode} " in str(err.value)
    assert mention_sites({"_lattice_modes"}) == {
        ("grid", "_bandlimited_values"), ("grid", "_sample_values")}


@pytest.mark.parametrize("n", [1, 2])
def test_descriptor_vectors_must_have_n_entries(n):
    # every vector a kind reads, and the translation, is checked against the
    # grid's dimension before sampling; a short or long one is refused by name
    spec = GridSpec(n=n, N=16, L=1.0)
    kinds = {"gaussian": {"center": (0.5,) * n, "width": 0.05},
             "smooth-bump": {"center": (0.5,) * n, "radius": 0.2},
             "sine": {"kvec": (1,) * n},
             "random-bandlimited": {"seed": 3, "max_k": 2},
             "constant": {}}
    refused = 0
    for kind, kw in kinds.items():
        vectors = [name for name in kw if name in ("center", "kvec")]
        for name in vectors + ["translate"]:
            entry = 1 if name == "kvec" else 0.25
            make_function(TestFunctionDescriptor(
                kind, **{**kw, name: (entry,) * n}), spec)
            for length in (n - 1, n + 1):
                if name == "translate" and length == 0:
                    continue  # an empty translation is no translation
                v = (entry,) * length
                desc = TestFunctionDescriptor(kind, **{**kw, name: v})
                with pytest.raises(ValueError) as err:
                    make_function(desc, spec)
                assert str(err.value) == (
                    f"{name} must have n = {n} entries, got {v}"), desc
                refused += 1
    assert refused == {1: 11, 2: 16}[n]


def test_sampler_refusals_name_their_fault():
    spec = GridSpec(n=1, N=16, L=1.0)
    cases = [
        ({"kind": "constant", "dilate": 0.0},
         "dilate must be positive, got 0.0"),
        ({"kind": "sine", "kvec": (1,), "dilate": -2.0},
         "dilate must be positive, got -2.0"),
        ({"kind": "gaussian", "center": (0.5,)},
         "gaussian requires center and width"),
        ({"kind": "gaussian", "width": 0.05},
         "gaussian requires center and width"),
        ({"kind": "smooth-bump", "radius": 0.2},
         "smooth-bump requires center and radius"),
        ({"kind": "smooth-bump", "center": (0.5,)},
         "smooth-bump requires center and radius"),
        ({"kind": "sine"}, "sine requires kvec"),
        ({"kind": "random-bandlimited", "seed": 1},
         "random-bandlimited requires seed and max_k"),
        ({"kind": "random-bandlimited", "max_k": 2},
         "random-bandlimited requires seed and max_k"),
        ({"kind": "gaussian", "center": (0.5,), "width": 0.1},
         "gaussian effective width 0.1 too large for period 1.0 (must be "
         "<= L/12 to keep support inside one period)"),
        ({"kind": "smooth-bump", "center": (0.5,), "radius": 0.2,
          "dilate": 0.4},
         "bump effective radius 0.5 too large for period 1.0 (support must "
         "stay inside one period)"),
        ({"kind": "wavelet"}, "unknown test-function kind: 'wavelet'"),
    ]
    for kw, message in cases:
        with pytest.raises(ValueError) as err:
            make_function(TestFunctionDescriptor(**kw), spec)
        assert str(err.value) == message, kw


def test_negation_equals_scaling_by_minus_one():
    spec = GridSpec(n=2, N=16, L=1.0)
    f = make_function(TestFunctionDescriptor(
        kind="random-bandlimited", seed=5, max_k=3), spec)
    neg = -f
    assert neg.spec == spec
    assert np.array_equal(neg.values, ((-1) * f).values)
    assert np.array_equal(neg.values, -f.values)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), amp=st.floats(0.1, 10.0))
def test_fft_linearity_property(seed, amp):
    spec = GridSpec(n=1, N=64, L=1.0)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(64)
    a = fft_forward(GridFunction(spec, amp * v))
    b = amp * fft_forward(GridFunction(spec, v))
    assert np.max(np.abs(a - b)) <= 1e-12 * max(np.max(np.abs(b)), 1.0)
