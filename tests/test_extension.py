import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma, kv, kve

import fracharm.extension
from fracharm import (GridFunction, GridSpec, PoissonSymbol,
                      TLevels,
                      TestFunctionDescriptor, boundary_limit_check,
                      carleson_sup, decay_profile, extend_field,
                      frac_laplacian, get_symbol, make_function, make_tlevels,
                      s_harmonicity_residual, s_poisson_symbol, spectral_apply,
                      spectral_gradient, square_function)
from grid_helpers import coords


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# The lambda-integral form of the extension symbol, the quadrature oracle of
# the closed form that PoissonSymbol evaluates:
#   m_s(r) = (1/Gamma(s/2)) int_0^inf lambda^{s/2} e^{-lambda - (pi r)^2/lambda}
#            dlambda/lambda


def _lambda_integral(a: float, b: float, rtol: float = 1e-12) -> float:
    """int_0^inf lambda^a e^{-lambda - b/lambda} dlambda/lambda for b > 0.

    Integrated in v = log(lambda) with the peak magnitude factored out so the
    quadrature stays well-scaled for all b."""
    if b <= 0:
        raise ValueError("b must be positive")
    e0 = a * 0.5 * math.log(b) - 2.0 * math.sqrt(b)
    if e0 < fracharm.extension._LOG_FLOOR:
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
    return _lambda_integral(s / 2, b, rtol) / math.gamma(s / 2)


def symbol_derivative_value(s: float, r: float, rtol: float = 1e-12) -> float:
    """m_s'(r) by differentiation under the integral sign."""
    if r == 0.0:
        return 0.0
    b = (math.pi * r) ** 2
    return (-2 * math.pi**2 * r * _lambda_integral(s / 2 - 1, b, rtol)
            / math.gamma(s / 2))


def _bessel_oracle(s, r):
    # closed form of the extension symbol: 2 (pi r)^{s/2} K_{s/2}(2 pi r) / Gamma(s/2)
    return 2 * (np.pi * r) ** (s / 2) * kv(s / 2, 2 * np.pi * r) / gamma(s / 2)


def test_symbol_value_s1_is_poisson_kernel():
    for r in (0.1, 0.5, 1.0, 3.0):
        assert symbol_value(1.0, r) == pytest.approx(np.exp(-2 * np.pi * r),
                                                     rel=1e-10)


@pytest.mark.parametrize("s", [0.3, 0.5, 1.4])
def test_symbol_value_matches_bessel_form(s):
    for r in (0.05, 0.4, 1.2):
        assert symbol_value(s, r) == pytest.approx(_bessel_oracle(s, r),
                                                   rel=1e-9)


def test_symbol_table_interpolation_accuracy():
    sym = s_poisson_symbol(0.6, np.geomspace(1e-3, 10.0, 400))
    assert sym.eval_m(np.array([0.0]))[0] == 1.0
    # probe strictly between table nodes
    rs = np.geomspace(2e-3, 8.0, 37) * 1.0371
    approx = sym.eval_m(rs)
    exact = np.array([symbol_value(0.6, r) for r in rs])
    mask = exact > 1e-12
    assert np.max(np.abs(approx[mask] / exact[mask] - 1.0)) <= 1e-6


def test_symbol_is_monotone_decreasing():
    sym = s_poisson_symbol(0.8, np.geomspace(1e-3, 5.0, 300))
    vals = sym.eval_m(np.geomspace(1e-3, 5.0, 100))
    assert np.all(np.diff(vals) < 0)
    assert np.all(sym.eval_dm(np.geomspace(1e-2, 1.0, 20)) < 0)


@pytest.mark.parametrize("s", [0.01, 0.3, 0.5, 1.0, 1.5, 1.99])
def test_closed_form_symbol_matches_quadrature(s):
    sym = s_poisson_symbol(s, np.geomspace(1e-2, 1.0, 10))
    rs = np.geomspace(1e-4, 400.0, 48)
    for approx, oracle in ((sym.eval_m(rs), symbol_value),
                           (sym.eval_dm(rs), symbol_derivative_value)):
        exact = np.array([oracle(s, r) for r in rs])
        # below about e^-690 both forms return hard zero, at slightly
        # different radii
        live = np.abs(exact) > 1e-290
        assert np.count_nonzero(live) >= 30
        assert np.max(np.abs(approx[live] / exact[live] - 1.0)) <= 1e-12
        assert np.all(np.abs(approx[~live]) <= 1e-290)


@pytest.mark.parametrize("s", [0.01, 0.5, 1.0, 1.99])
def test_closed_form_symbol_shape(s):
    sym = PoissonSymbol(s)
    rs = np.geomspace(1e-4, 100.0, 400)
    m, dm = sym.eval_m(rs), sym.eval_dm(rs)
    assert np.all(np.diff(m[m > 0]) < 0)
    assert np.all(m[dm < 0] > 0)
    assert np.all(dm[rs < 50] < 0)
    assert sym.eval_m(np.array([0.0]))[0] == 1.0
    assert sym.eval_dm(np.array([0.0]))[0] == 0.0
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        far = np.array([400.0, 1e6])
        assert np.all(sym.eval_m(far) == 0.0)
        assert np.all(sym.eval_dm(far) == 0.0)


def _unskipped_eval(s, r, nu, c, at_zero):
    # PoissonSymbol._eval without its cutoff: the kernel, or at s = 1 the
    # closed form c e^{-x} / 2, at every r > 0
    out = np.full(r.shape, at_zero)
    x = 2 * np.pi * r[r > 0]
    if s == 1:
        c, logv = c / 2, -x
    else:
        logv = (s / 2 * np.log(x / 2)
                + fracharm.extension._kve((nu,), x, log=True)[0] - x
                - math.lgamma(s / 2))
    vals = np.zeros(x.shape)
    keep = logv >= -690.0
    vals[keep] = c * np.exp(logv[keep])
    out[r > 0] = vals
    return out


@pytest.mark.parametrize("s", [0.01, 0.5, 1.0, 1.5, 1.99])
def test_symbol_shortcuts_are_exact(s, monkeypatch):
    # radii from 0 past the Bessel cutoff x = 2 pi r = 1400, with its
    # neighbours on both sides
    rc = 1400.0 / (2 * np.pi)
    rs = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, 300),
                         rc * (1 + np.linspace(-1e-2, 1e-2, 41)),
                         np.nextafter(rc, [0.0, np.inf]), [rc]])
    sym = PoissonSymbol(s)
    seen = []
    real_kve = fracharm.extension._kve

    def recording_kve(nus, x, log=False):
        seen.append(np.max(x, initial=0.0))
        return real_kve(nus, x, log)

    monkeypatch.setattr(fracharm.extension, "_kve", recording_kve)
    m, dm = sym.eval_m(rs), sym.eval_dm(rs)
    # at s = 1 the closed form needs no Bessel function
    assert (not seen) if s == 1.0 else max(seen) < 1400.0
    monkeypatch.undo()
    assert _same_bits(m, _unskipped_eval(s, rs, s / 2, 2.0, 1.0))
    assert _same_bits(dm, _unskipped_eval(s, rs, 1 - s / 2, -4 * math.pi, 0.0))
    assert np.count_nonzero(m) > 100
    joint = sym.eval_m_dm(rs)
    assert _same_bits(joint[0], m) and _same_bits(joint[1], dm)
    if s == 1.0:
        pos = rs > 0
        assert np.array_equal(dm[pos], -2 * np.pi * m[pos])
        live = pos & (m > 0)
        assert _same_bits(dm[live], -2 * np.pi * m[live])


def _kve_oracle_points():
    # x in [1e-12, 1400), with the dyadic bucket edges of _kve and their
    # lower neighbours
    edges = 2.0 ** np.arange(-39, 11)
    xs = np.concatenate([np.geomspace(1e-12, 1399.0, 60), edges,
                         np.nextafter(edges, 0.0), [np.nextafter(1400.0, 0.0)]])
    return np.sort(xs)


@pytest.mark.parametrize("nu", [0.01, 0.25, 0.5, 0.75, 0.99, 1.0])
def test_kve_matches_mpmath(nu):
    mpmath = pytest.importorskip("mpmath")
    xs = _kve_oracle_points()
    got = fracharm.extension._kve((nu,), xs)[0]
    with mpmath.workdps(40):
        exact = np.array([float(mpmath.besselk(nu, x) * mpmath.exp(x))
                          for x in map(mpmath.mpf, xs)])
    assert np.max(np.abs(got / exact - 1)) <= 2e-15


def test_kve_matches_scipy():
    xs = _kve_oracle_points()
    nus = (0.01, 0.3, 0.5, 0.7, 0.99, 1.0)
    for nu, got in zip(nus, fracharm.extension._kve(nus, xs)):
        assert np.max(np.abs(got / kve(nu, xs) - 1)) <= 1e-13


def test_kve_orders_are_independent_of_their_company():
    # one evaluation of several orders equals one per order, and a value
    # depends on its own x only
    xs = np.geomspace(1e-6, 1399.0, 501)
    both = fracharm.extension._kve((0.2, 0.8), xs)
    assert _same_bits(both[0], fracharm.extension._kve((0.2,), xs)[0])
    assert _same_bits(both[1][::7],
                      fracharm.extension._kve((0.8,), xs[::7])[0])
    logs = fracharm.extension._kve((0.2, 0.8), xs, log=True)
    assert _same_bits(logs[0], np.log(both[0]))


def test_kve_bucket_over_one_chunk_equals_each_x_alone():
    # the bucket [1, 2) with more x than one exp grid of _KV_CELLS cells
    # holds: chunked, every value is that of its x evaluated alone
    nus = (0.2, 0.8)
    _, c, _ = fracharm.extension._kve_rule(0, nus)
    rows = fracharm.extension._KV_CELLS // c.size
    xs = np.linspace(1.0, 2.0, 2 * rows + 7, endpoint=False)
    for log in (False, True):
        got = fracharm.extension._kve(nus, xs, log)
        alone = [fracharm.extension._kve(nus, xs[i:i + 1], log)
                 for i in range(xs.size)]
        for j in range(len(nus)):
            assert _same_bits(got[j], np.concatenate([a[j] for a in alone]))


def test_kve_at_extreme_arguments():
    # e^x K_{1/2}(x) = sqrt(pi / (2 x)) down to the least subnormal; the
    # node count and u_max stay finite, and the logarithm stays finite where
    # K_1 overflows
    xs = np.array([5e-324, 1e-310, 2.0**-1001, 2.0**-1000, 1e-300, 1e-200,
                   1e-100, 1e-30, 1e-12])
    got = fracharm.extension._kve((0.5,), xs)[0]
    assert np.max(np.abs(got * np.sqrt(xs) / np.sqrt(np.pi / 2) - 1)) <= 1e-14
    for k in (-1074, -1001, -1000, -40):
        q, c, W = fracharm.extension._kve_rule(k, (0.5, 1.0))
        assert len(c) <= 4000
        assert np.all(np.isfinite(c)) and np.all(np.isfinite(W))
    log_k1 = fracharm.extension._kve((1.0,), xs, log=True)[0]
    assert np.all(np.isfinite(log_k1))
    # e^x K_1(x) = e^x / x + O(x log x) for small x
    assert np.max(np.abs(log_k1 / (xs - np.log(xs)) - 1)) <= 1e-14
    sym = PoissonSymbol(1.5)
    m = sym.eval_m(xs / (2 * np.pi))
    assert np.all(np.isfinite(m)) and np.all(np.abs(m - 1) <= 1e-3)
    # e^x K_nu(x) = sqrt(pi / (2 x)) (1 + (4 nu^2 - 1) / (8 x) + O(x^-2))
    big = np.array([1e8, 1e20, 1e300])
    for nu, got in zip((0.3, 1.0), fracharm.extension._kve((0.3, 1.0), big)):
        want = np.sqrt(np.pi / 2) / np.sqrt(big) * (1 + (4 * nu**2 - 1)
                                                    / (8 * big))
        assert np.max(np.abs(got / want - 1)) <= 1e-14


def test_symbol_arguments_select_nothing():
    rs = np.geomspace(1e-3, 20.0, 50)
    ref = PoissonSymbol(0.7)
    for sym in (s_poisson_symbol(0.7, np.array([5.0, 6.0]), tolerance=1e-2),
                get_symbol(0.7, 5.0, 6.0, tolerance=1e-2)):
        assert np.array_equal(sym.eval_m(rs), ref.eval_m(rs))
        assert np.array_equal(sym.eval_dm(rs), ref.eval_dm(rs))
    with pytest.raises(ValueError):
        s_poisson_symbol(2.0, rs)


def test_extension_symbol_evaluated_per_distinct_radius(monkeypatch):
    spec = GridSpec(n=2, N=32, L=1.0)
    f = make_function(TestFunctionDescriptor(
        kind="random-bandlimited", seed=3, max_k=5), spec)
    lv = TLevels(np.geomspace(0.01, 0.5, 4))
    sizes = []
    real_eval = PoissonSymbol._eval

    def counting_eval(self, r, *args, **kwargs):
        sizes.append(np.size(r))
        return real_eval(self, r, *args, **kwargs)

    # one joint evaluation of m and m' per level
    monkeypatch.setattr(PoissonSymbol, "_eval", counting_eval)
    F = extend_field(f, 0.6, lv)
    radii = np.unique(spec.frequency_magnitude())
    assert sizes == [radii.size] * lv.M
    assert radii.size < spec.N ** 2 // 4
    # gathering from the distinct radii equals evaluating at every point
    monkeypatch.undo()
    sym = s_poisson_symbol(0.6, radii)
    mag = spec.frequency_magnitude()
    inv = np.searchsorted(radii, mag)
    coeffs = np.fft.fftn(f.values)
    for i, t in enumerate(lv.ts):
        m_arr = sym.eval_m(t * mag)
        assert np.array_equal(sym.eval_m(t * radii)[inv], m_arr)
        direct = np.fft.ifftn(m_arr * coeffs).real
        assert np.max(np.abs(F.F[i] - direct)) <= 1e-14 * np.max(np.abs(direct))


def _extend_field_loop(f, s, levels, with_derivatives):
    # the per-level route extend_field replaced: full-lattice multipliers and
    # one spectral_apply, so one forward transform, per level.  Returns the
    # fields [F, dF/dt, dF/dx_j] that were requested, each of shape (M, *grid).
    spec = f.spec
    sym = PoissonSymbol(s)
    radii, inv = np.unique(spec.frequency_magnitude(), return_inverse=True)
    inv = inv.reshape(spec.shape)
    nyq = spec.nyquist_mask()
    out = []
    for t in levels.ts:
        m_arr = sym.eval_m(t * radii)[inv]
        mults = [m_arr]
        if "t" in with_derivatives:
            mults.append((radii * sym.eval_dm(t * radii))[inv])
        if "x" in with_derivatives:
            mults += [np.where(nyq, 0.0, 2j * np.pi * xi * m_arr)
                      for xi in spec.frequencies()]
        out.append(spectral_apply(spec, f.values, np.stack(mults)))
    return list(np.stack(out, axis=1))


@pytest.mark.parametrize("n,N", [(1, 256), (2, 128)])
@pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("derivs", [(), ("t",), ("x",), ("t", "x")],
                         ids=["F", "t", "x", "tx"])
def test_extend_field_equals_per_level_loop(n, N, s, derivs, monkeypatch):
    # the top levels reach 2 pi t |xi| > 1400, past the Bessel cutoff
    spec = GridSpec(n=n, N=N, L=1.0)
    f = make_function(TestFunctionDescriptor(
        kind="gaussian", center=(0.45,) * n, width=0.05), spec)
    lv = make_tlevels(spec, M=16)
    calls = _count_transforms(monkeypatch)
    F = extend_field(f, s, lv, with_derivatives=derivs)
    # one forward transform, and no field synthesized yet
    assert calls == ["rfftn"]
    got = []
    for name, key in (("F", "F"), ("dF_dt", "t"), ("dF_dx", "x")):
        if key != "F" and key not in derivs:
            assert not F.carries(name)
            assert getattr(F, name) is None
            continue
        assert F.carries(name)
        calls.clear()
        # the first read synthesizes this field alone, one inverse transform
        # per level (stacked over the axes for dF/dx); a second read, none
        field = getattr(F, name)
        assert calls == ["irfftn"] * lv.M
        assert getattr(F, name) is field
        assert calls == ["irfftn"] * lv.M
        got += list(field) if key == "x" else [field]
    monkeypatch.undo()
    want = _extend_field_loop(f, s, lv, derivs)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert _same_bits(a, b)


def test_extend_field_holds_no_field_until_read():
    # extend_field and a read of dF/dt stay below two fields of memory: the
    # read synthesizes dF/dt alone, and F and dF/dx are never built
    spec = GridSpec(n=2, N=128, L=1.0)
    f = make_function(TestFunctionDescriptor(
        kind="gaussian", center=(0.45, 0.55), width=0.06), spec)
    lv = make_tlevels(spec, M=16)
    one_field = lv.M * spec.N**2 * 8  # one (16, 128, 128) float64 array
    # a first run keeps the imports and caches of a first call out of the count
    extend_field(f, 0.5, lv).dF_dt
    tracemalloc.start()
    try:
        F = extend_field(f, 0.5, lv)
        assert F.dF_dt.shape == (lv.M, *spec.shape)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * one_field


def test_extend_field_rejects_levels_of_another_grid():
    # the default levels of L = 1 reach t = 4 on a grid of period 1e-3,
    # where every level above about 4e-3 is the mean of f
    spec = GridSpec(n=1, N=64, L=1e-3)
    f = make_function(TestFunctionDescriptor(
        kind="gaussian", center=(0.5e-3,), width=0.05e-3), spec)
    with pytest.raises(ValueError, match="above 4L"):
        extend_field(f, 0.5, make_tlevels(GridSpec(n=1, N=64, L=1.0)))
    # the grid's own levels, which top out at 4L exactly, are accepted
    own = make_tlevels(spec)
    assert own.ts[-1] == 4 * spec.L
    assert extend_field(f, 0.5, own).F.shape == (own.M, *spec.shape)


def test_extend_field_rejects_unknown_derivatives():
    # ("dt",) would otherwise return a field without dF/dt
    spec = GridSpec(n=1, N=64, L=1.0)
    f = make_function(TestFunctionDescriptor(
        kind="gaussian", center=(0.5,), width=0.05), spec)
    for derivs in (("dt",), ("t", "y"), ("x", "F")):
        with pytest.raises(ValueError, match="unknown with_derivatives"):
            extend_field(f, 0.5, make_tlevels(spec), with_derivatives=derivs)
    F = extend_field(f, 0.5, make_tlevels(spec), with_derivatives=("t",))
    assert F.carries("dF_dt") and not F.carries("dF_dx")


def test_extend_field_rejects_a_stack():
    # a stack's whole fields, residual and decay profile would not hold
    # together; the stacked stream is extension._levels
    spec = GridSpec(n=2, N=16, L=1.0)
    f = make_function(TestFunctionDescriptor(
        kind="gaussian", center=(0.5, 0.5), width=0.05), spec)
    stack = GridFunction(spec, np.stack([f.values, 2 * f.values]))
    with pytest.raises(ValueError, match="one function, not a stack"):
        extend_field(stack, 0.5, make_tlevels(spec))


def test_extension_field_repr_and_equality_synthesize_nothing(monkeypatch):
    spec = GridSpec(n=2, N=64, L=1.0)
    f = make_function(TestFunctionDescriptor(
        kind="gaussian", center=(0.45, 0.55), width=0.06), spec)
    lv = make_tlevels(spec, M=16)
    F, G = extend_field(f, 0.5, lv), extend_field(f, 0.5, lv)
    calls = _count_transforms(monkeypatch)
    text = repr(F)
    assert len(text) < 300
    assert text.count("deferred") == 3
    assert "(16, 64, 64)" in text
    assert F != G and F == F
    assert calls == []
    # nothing is computed or kept before its first read
    assert not {"F", "dF_dt", "dF_dx"} & F.__dict__.keys()
    assert all(F.carries(k) for k in ("F", "dF_dt", "dF_dx"))
    held = extend_field(f, 0.5, lv, with_derivatives=())
    held.F
    assert "F=held" in repr(held) and "dF_dx=absent" in repr(held)
    # an absent field reads None and cannot be streamed
    assert held.dF_dx is None
    with pytest.raises(ValueError,
                       match="selector 'dx' needs the x-derivative field"):
        held.level_values("dx")


@pytest.mark.parametrize("n,N", [(1, 256), (2, 64)])
@pytest.mark.parametrize("derivs", [("t", "x"), ("t",)], ids=["tx", "t"])
def test_level_values_are_their_expression_over_the_whole_fields(n, N,
                                                                 derivs):
    # each selector's stream, read before any whole field, is bit for bit
    # its expression over F.F, F.dF_dt and F.dF_dx in the reader's order
    spec = GridSpec(n=n, N=N, L=1.0)
    f = make_function(TestFunctionDescriptor(
        kind="random-bandlimited", seed=4, max_k=6), spec)
    F = extend_field(f, 0.5, make_tlevels(spec), with_derivatives=derivs)
    selectors = ("value", "dt", "dx", "gradient") if "x" in derivs else (
        "value", "dt")
    got = {sel: list(F.level_values(sel)) for sel in selectors}
    want = {"value": list(F.F), "dt": list(F.dF_dt)}
    if "x" in derivs:
        dx2 = [sum(g[i]**2 for g in F.dF_dx) for i in range(F.levels.M)]
        want["dx"] = [np.sqrt(d) for d in dx2]
        want["gradient"] = [np.sqrt(dt**2 + d) for dt, d in zip(F.dF_dt, dx2)]
    else:
        for sel in ("dx", "gradient"):
            with pytest.raises(ValueError, match="needs the x-derivative"):
                F.level_values(sel)
    assert got.keys() == want.keys()
    for sel in selectors:
        assert len(got[sel]) == F.levels.M
        assert all(_same_bits(a, b) for a, b in zip(got[sel], want[sel])), sel


def test_tlevels_validation():
    with pytest.raises(ValueError):
        TLevels(np.array([0.1, 0.2]))  # too few
    with pytest.raises(ValueError):
        TLevels(np.array([0.1, 0.3, 0.2]))  # not increasing
    with pytest.raises(ValueError):
        TLevels(np.array([-0.1, 0.2, 0.3]))  # not positive


def test_tlevels_reject_non_finite_levels():
    # a NaN level gave NaN residuals, and an infinite one failed later in
    # extend_field as levels "made for another grid"
    for ts in ([0.01, np.nan, 0.1, 1.0], [0.01, 0.1, np.inf]):
        with pytest.raises(ValueError, match="t-levels must be finite"):
            TLevels(np.array(ts))


def test_make_tlevels_defaults_and_bounds():
    spec = GridSpec(n=1, N=64, L=1.0)
    lv = make_tlevels(spec)
    assert lv.ts[0] == pytest.approx(spec.h / 8)
    assert lv.ts[-1] == pytest.approx(4 * spec.L)
    assert lv.M >= 16
    with pytest.raises(ValueError):
        make_tlevels(spec, t_min=spec.h / 100)
    with pytest.raises(ValueError):
        make_tlevels(spec, t_max=10 * spec.L)
    with pytest.raises(ValueError):
        make_tlevels(spec, M=4)
    # refused before np.geomspace takes the logarithm of a bound
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t_min, t_max in ((None, -1.0), (None, 0.0), (None, spec.h / 8),
                             (0.5, 0.25), (0.5, 0.5)):
            with pytest.raises(ValueError, match="t_min < t_max"):
                make_tlevels(spec, t_min=t_min, t_max=t_max)


def test_log_trapezoid_weights_integrate_dt_over_t():
    lv = TLevels(np.geomspace(0.01, 1.0, 25))
    w = lv.log_trapezoid_weights()
    # sum w_i g(t_i) approximates int g dt/t; with g = 1 it is log(tM/t1)
    assert np.sum(w) == pytest.approx(np.log(100.0), rel=1e-12)


def test_extend_field_s1_matches_exact_mode_decay():
    spec = GridSpec(n=1, N=128, L=1.0)
    k = 3
    x = coords(spec)[0]
    f = GridFunction(spec, np.sin(2 * np.pi * k * x))
    lv = TLevels(np.geomspace(0.01, 0.5, 20))
    F = extend_field(f, 1.0, lv)
    for i, t in enumerate(lv.ts):
        exact = np.exp(-2 * np.pi * k * t) * f.values
        assert np.max(np.abs(F.F[i] - exact)) <= 1e-6 * max(
            np.max(np.abs(exact)), 1e-12)


def test_extend_field_approaches_boundary_data():
    spec = GridSpec(n=1, N=128, L=1.0)
    f = make_function(TestFunctionDescriptor(
        kind="gaussian", center=(0.5,), width=0.06), spec)
    lv = make_tlevels(spec, M=24)
    F = extend_field(f, 0.5, lv, with_derivatives=())
    err0 = np.max(np.abs(F.F[0] - f.values))
    assert err0 <= 0.15 * np.max(np.abs(f.values))
    # further levels are further from the data
    err_mid = np.max(np.abs(F.F[lv.M // 2] - f.values))
    assert err0 < err_mid


def test_spatial_derivative_fields_match_spectral_gradient():
    spec = GridSpec(n=1, N=64, L=1.0)
    f = make_function(TestFunctionDescriptor(
        kind="random-bandlimited", seed=7, max_k=6), spec)
    lv = TLevels(np.geomspace(0.02, 0.2, 8))
    F = extend_field(f, 0.7, lv)
    i = 3
    level = GridFunction(spec, F.F[i])
    (g,) = spectral_gradient(level)
    assert np.max(np.abs(F.dF_dx[0][i] - g.values)) <= 1e-8 * max(
        np.max(np.abs(g.values)), 1e-12)


@pytest.mark.parametrize("s", [0.5, 1.0])
def test_boundary_trace_recovers_frac_laplacian(s):
    spec = GridSpec(n=1, N=256, L=1.0)
    f = make_function(TestFunctionDescriptor(
        kind="gaussian", center=(0.5,), width=0.05), spec)
    res = boundary_limit_check(f, s, np.geomspace(spec.h / 4, spec.h, 6))
    # expansion m_s(r) = 1 + Gamma(-s/2)/Gamma(s/2) (pi r)^s + ... gives
    # the normalization of the boundary flux limit in closed form
    c_exact = 2 ** (1 - s) * gamma(1 - s / 2) / gamma(s / 2)
    assert res.c == pytest.approx(c_exact, rel=2e-3)
    # the residual column quantifies the fit quality level by level
    assert np.all(np.isfinite(res.residuals))
    df = frac_laplacian(f, s)
    assert np.max(np.abs(df.values)) > 0  # sanity on the comparison target


def test_boundary_trace_rejects_out_of_range_levels():
    spec = GridSpec(n=1, N=64, L=1.0)
    f = make_function(TestFunctionDescriptor(
        kind="gaussian", center=(0.5,), width=0.08), spec)
    with pytest.raises(ValueError):
        boundary_limit_check(f, 0.5, np.geomspace(spec.h / 100, spec.h / 50, 4))
    with pytest.raises(ValueError):
        boundary_limit_check(f, 0.5, np.geomspace(spec.h, 100 * spec.h, 4))


def test_boundary_trace_is_scale_free():
    cs = []
    for L in (1e-100, 1.0, 1e150):
        spec = GridSpec(n=1, N=64, L=L)
        f = make_function(TestFunctionDescriptor(
            kind="gaussian", center=(L / 2,), width=L / 16), spec)
        small_ts = np.geomspace(spec.h / 2, 4 * spec.h, 8)
        cs.append(boundary_limit_check(f, 0.5, small_ts).c)
        constant = GridFunction(spec, np.full(spec.shape, 3.0))
        with pytest.raises(ValueError, match="degenerate"):
            boundary_limit_check(constant, 0.5, small_ts)
    assert cs[0] == pytest.approx(cs[1], rel=0, abs=1e-12)
    assert cs[2] == pytest.approx(cs[1], rel=0, abs=1e-12)


@pytest.mark.parametrize("s", [0.3, 1.0, 1.5, 1.9])
def test_boundary_trace_is_scale_free_at_every_order(s):
    # at s >= 1.5 the sums of squares of (-Delta)^{s/2} f in physical units
    # leave the float64 range at these periods
    cs = []
    for L in (1e-100, 1.0, 1e150):
        spec = GridSpec(n=1, N=64, L=L)
        f = make_function(TestFunctionDescriptor(
            kind="gaussian", center=(L / 2,), width=L / 16), spec)
        small_ts = np.geomspace(spec.h / 2, 4 * spec.h, 8)
        cs.append(boundary_limit_check(f, s, small_ts).c)
    assert cs[0] == pytest.approx(cs[1], rel=1e-13)
    assert cs[2] == pytest.approx(cs[1], rel=1e-13)


@pytest.mark.parametrize("s", [0.5, 1.5])
def test_s_harmonicity_residual_is_dimensionless(s):
    # one configuration at five periods; a residual in units of length
    # would read 1/L: 5.05e101 at L = 1e-100 (inf at s = 1.5), 0 at 1e150
    def recorded(L):
        spec = GridSpec(n=1, N=128, L=L)
        f = make_function(TestFunctionDescriptor(
            kind="gaussian", center=(L / 2,), width=L / 16), spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            F = extend_field(f, s, make_tlevels(spec, M=32))
            res = np.array([r for _, r in s_harmonicity_residual(F)])
        return f, F.levels, res

    f, lv, ref = recorded(1.0)
    # at L = 1 the units of the period change no bit: the residual equals
    # the one summed from t and |xi| themselves
    ext = fracharm.extension
    spec = f.spec
    layout = ext._radial_layout(spec)
    coeffs = ext.spectral_forward(spec, f.values)
    power = ext._radial_power(layout, coeffs, layout.weight)
    grad_power = ext._radial_power(layout, coeffs, layout.grad_weight)
    lap = (2 * np.pi * layout.radii) ** 2
    sym = PoissonSymbol(s)
    m, dm = zip(*(sym.eval_m_dm(t * layout.radii) for t in lv.ts))
    tdm = [layout.radii * d for d in dm]
    unscaled = [ext._harmonicity(lv.ts, i, s, tdm[i - 1:i + 2], m[i], lap,
                                 power, grad_power)
                for i in range(1, lv.M - 1)]
    assert _same_bits(ref, np.array(unscaled))
    for L in (1e-100, 1e-3, 2.0, 1e150):
        got = recorded(L)[2]
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got / ref - 1)) <= 1e-12


def test_s_harmonicity_residual_is_small():
    spec = GridSpec(n=1, N=128, L=1.0)
    f = make_function(TestFunctionDescriptor(
        kind="random-bandlimited", seed=4, max_k=4), spec)
    worst = {}
    for M in (16, 32, 64):
        lv = TLevels(np.geomspace(0.05, 0.5, M))
        F = extend_field(f, 0.6, lv)
        res = s_harmonicity_residual(F)
        assert len(res) == lv.M - 2
        worst[M] = max(r for _, r in res)
    # F_tt is a cross-level stencil, so the relative residual shrinks as
    # the level grid refines
    assert worst[32] < 0.5 * worst[16]
    assert worst[64] < 0.5 * worst[32]
    assert worst[64] <= 5e-2


def test_s_harmonicity_residual_needs_dt_field():
    spec = GridSpec(n=1, N=32, L=1.0)
    f = GridFunction(spec, np.cos(2 * np.pi * coords(spec)[0]))
    lv = TLevels(np.geomspace(0.05, 0.5, 8))
    F = extend_field(f, 0.5, lv, with_derivatives=())
    with pytest.raises(ValueError):
        s_harmonicity_residual(F)
    # a field with dF/dt has a residual, one per interior level
    F = extend_field(f, 0.5, lv, with_derivatives=("t",))
    assert len(s_harmonicity_residual(F)) == lv.M - 2


def test_extension_readers_refuse_a_missing_field():
    spec = GridSpec(n=1, N=64, L=1.0)
    f = make_function(TestFunctionDescriptor(
        kind="gaussian", center=(0.5,), width=0.05), spec)
    lv = make_tlevels(spec, M=16)
    bare = extend_field(f, 0.5, lv, with_derivatives=())
    only_t = extend_field(f, 0.5, lv, with_derivatives=("t",))
    cases = [
        (lambda: square_function(only_t, selector="bogus"),
         "selector must be one of ('value', 'dt', 'dx', 'gradient'), "
         "got 'bogus'"),
        (lambda: square_function(bare),
         "selector 'dt' needs the t-derivative field"),
        (lambda: carleson_sup(only_t),
         "selector 'gradient' needs the x-derivative field"),
        (lambda: decay_profile(bare, k=1),
         "k = 1 requires both derivative fields"),
        (lambda: decay_profile(only_t, k=1),
         "k = 1 requires both derivative fields"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


def _harmonicity_by_arrays(F):
    # the grid route s_harmonicity_residual replaced: F_tt and Lap_x F as
    # arrays per level, with Lap_x F transformed from F[i] again
    spec, s, ts = F.spec, F.s, F.levels.ts
    mag2 = (2 * np.pi * spec.frequency_magnitude()) ** 2
    out = []
    for i in range(1, len(ts) - 1):
        t = ts[i]
        h1 = ts[i] - ts[i - 1]
        h2 = ts[i + 1] - ts[i]
        Ftt = (-h2 / (h1 * (h1 + h2)) * F.dF_dt[i - 1]
               + (h2 - h1) / (h1 * h2) * F.dF_dt[i]
               + h1 / (h2 * (h1 + h2)) * F.dF_dt[i + 1])
        lap = -spectral_apply(spec, F.F[i], mag2)
        resid = t ** (1 - s) * (Ftt + lap) + (1 - s) * t ** (-s) * F.dF_dt[i]
        grad2 = F.dF_dt[i] ** 2
        for g in F.dF_dx or ():
            grad2 = grad2 + g[i] ** 2
        scale = t ** (1 - s) * math.sqrt(float(np.sum(grad2)))
        out.append(math.sqrt(float(np.sum(resid**2))) / max(scale, 1e-300))
    return np.array(out)


def _trace_by_arrays(f, s, small_ts):
    # the grid route boundary_limit_check replaced: the field dF/dt and
    # (-Delta)^{s/2} f as arrays, and their dot products on the grid.
    # Returns c_ts and the residuals.
    w = frac_laplacian(f, s).values
    ww = np.sum(w**2)
    dF_dt = extend_field(f, s, TLevels(small_ts), with_derivatives=("t",)).dF_dt
    c_ts, residuals = [], []
    for t, dF in zip(small_ts, dF_dt):
        g = -(t ** (1 - s)) * dF
        ct = float(np.sum(g * w) / ww)
        c_ts.append(ct)
        residuals.append(float(np.sqrt(np.sum((g - ct * w) ** 2)) / np.sqrt(ww)))
    return np.array(c_ts), np.array(residuals)


_FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
              "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


def _count_transforms(monkeypatch):
    """Record the name of every numpy.fft call from now on."""
    calls = []
    for name in _FFT_NAMES:
        real = getattr(np.fft, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    return calls


def _diagnostic_inputs(n, N):
    # white noise puts power on the Nyquist rows, which the gaussian and the
    # band-limited function leave empty
    spec = GridSpec(n=n, N=N, L=1.0)
    return spec, [
        make_function(TestFunctionDescriptor(
            kind="gaussian", center=(0.47,) * n, width=0.06), spec),
        make_function(TestFunctionDescriptor(
            kind="random-bandlimited", seed=3, max_k=5), spec),
        GridFunction(spec, np.random.default_rng(5).standard_normal(spec.shape))]


_DIAGNOSTIC_ORDERS = (0.3, 0.5, 1.0, 1.5, 1.9)


@pytest.mark.parametrize("n,N", [(1, 128), (1, 1024), (2, 64)])
def test_s_harmonicity_residual_equals_array_route(n, N, monkeypatch):
    # Parseval over the distinct |xi| against the grid route.  The grid
    # route cancels F_tt against Lap_x F on the grid: it is up to 6.2e-9
    # (relative, 1-D N=1024, s=0.3) off both the Parseval values and an
    # extended-precision grid route, which the Parseval values meet to
    # 2e-14.  At s = 1 the residual of the low levels is about 1e-5 of the
    # scale, and the two routes differ by up to 3.8e-8 of it, 6e-13
    # absolute.
    spec, fs = _diagnostic_inputs(n, N)
    lv = make_tlevels(spec, M=32)
    # the noise only adds the Nyquist rows, at two orders
    cases = [(f, s) for f in fs[:2] for s in _DIAGNOSTIC_ORDERS]
    cases += [(fs[2], 0.5), (fs[2], 1.5)]
    for k, (f, s) in enumerate(cases):
        # each input meets both scales, with and without the x-gradient
        derivs = (("t",), ("t", "x"))[k % 2]
        F = extend_field(f, s, lv, with_derivatives=derivs)
        calls = _count_transforms(monkeypatch)
        got = s_harmonicity_residual(F)
        assert calls == []
        monkeypatch.undo()
        assert [t for t, _ in got] == list(lv.ts[1:-1])
        got = np.array([r for _, r in got])
        want = _harmonicity_by_arrays(F)
        assert np.all(np.abs(got - want) <= 2e-8 * want + 2e-12)


@pytest.mark.parametrize("n,N", [(1, 128), (1, 1024), (2, 64)])
def test_boundary_trace_equals_array_route(n, N, monkeypatch):
    # c_t moves by at most 6.1e-16 relative; the residuals, which are small
    # differences of the two sides, by at most 1.1e-13
    spec, fs = _diagnostic_inputs(n, N)
    small_ts = np.geomspace(spec.h / 2, 4 * spec.h, 8)
    for f in fs:
        for s in _DIAGNOSTIC_ORDERS:
            calls = _count_transforms(monkeypatch)
            got = boundary_limit_check(f, s, small_ts)
            assert calls == ["rfftn"]
            monkeypatch.undo()
            c_ts, residuals = _trace_by_arrays(f, s, small_ts)
            assert np.all(np.abs(got.c_ts - c_ts) <= 2e-15 * np.abs(c_ts))
            assert np.all(np.abs(got.residuals - residuals)
                          <= 3e-13 * residuals)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="longdouble is no wider than float64 here")
def test_s_harmonicity_residual_meets_extended_precision_route():
    # the grid route with the fields and every sum in longdouble, from the
    # same float64 symbol values: the float64 grid route is 1.5e-9 off it
    spec, (f, *_) = _diagnostic_inputs(1, 1024)
    s, lv = 0.5, make_tlevels(spec, M=32)
    sym, ld = PoissonSymbol(s), np.longdouble
    radii, inv = np.unique(spec.frequency_magnitude()[: spec.N // 2 + 1],
                           return_inverse=True)
    coeffs = np.fft.rfft(f.values.astype(ld))
    F, dF_dt = [], []
    for t in lv.ts:
        m, dm = sym.eval_m_dm(t * radii)
        F.append(np.fft.irfft(coeffs * m.astype(ld)[inv], spec.N))
        dF_dt.append(np.fft.irfft(coeffs * (radii * dm).astype(ld)[inv], spec.N))
    mag2 = (2 * np.pi * ld(1) * radii.astype(ld)[inv]) ** 2
    ts, s = lv.ts.astype(ld), ld(s)
    want = []
    for i in range(1, lv.M - 1):
        t, h1, h2 = ts[i], ts[i] - ts[i - 1], ts[i + 1] - ts[i]
        Ftt = (-h2 / (h1 * (h1 + h2)) * dF_dt[i - 1]
               + (h2 - h1) / (h1 * h2) * dF_dt[i]
               + h1 / (h2 * (h1 + h2)) * dF_dt[i + 1])
        lap = -np.fft.irfft(np.fft.rfft(F[i]) * mag2, spec.N)
        resid = t ** (1 - s) * (Ftt + lap) + (1 - s) * t ** (-s) * dF_dt[i]
        want.append(np.sqrt(np.sum(resid**2))
                    / (t ** (1 - s) * np.sqrt(np.sum(dF_dt[i] ** 2))))
    want = np.array(want)
    got = np.array([r for _, r in s_harmonicity_residual(
        extend_field(f, 0.5, lv, with_derivatives=("t",)))])
    assert np.max(np.abs(got - want) / want) <= 1e-13


def test_decay_profile_decays_at_large_times():
    spec = GridSpec(n=1, N=64, L=1.0)
    f = make_function(TestFunctionDescriptor(
        kind="random-bandlimited", seed=2, max_k=5), spec)
    lv = make_tlevels(spec, M=32)
    F = extend_field(f, 0.5, lv)
    prof = decay_profile(F, k=0)
    assert set(prof) >= {"t", "sup", "weighted_l1", "weighted_linf"}
    sup = prof["sup"]
    assert sup[-1] < 1e-3 * sup[0]
    prof1 = decay_profile(F, k=1)
    assert np.all(np.isfinite(prof1["sup"]))
    # streamed level by level from the deferred fields, and again from the
    # held ones, the sups are those of the stacked arrays bit for bit
    g2 = F.dF_dt**2
    for g in F.dF_dx:
        g2 = g2 + g**2
    want = {0: np.max(np.abs(F.F), axis=1), 1: np.max(np.sqrt(g2), axis=1)}
    for k, got in ((0, sup), (1, prof1["sup"])):
        assert _same_bits(got, want[k])
        assert _same_bits(decay_profile(F, k=k)["sup"], want[k])
    with pytest.raises(ValueError):
        decay_profile(F, k=2)
    # in 2-D the k = 1 level adds dt^2 to the sum of the dx^2, which orders
    # the sum apart from the stacked route: the two agree to rounding
    spec = GridSpec(n=2, N=64, L=1.0)
    f = make_function(TestFunctionDescriptor(
        kind="random-bandlimited", seed=2, max_k=5), spec)
    for s in (0.5, 1.5):
        F = extend_field(f, s, make_tlevels(spec, M=32))
        got = decay_profile(F, k=1)["sup"]
        g2 = F.dF_dt**2 + F.dF_dx[0]**2 + F.dF_dx[1]**2
        want = np.max(np.sqrt(g2), axis=(1, 2))
        assert np.all(want > 0)
        assert np.max(np.abs(got - want) / want) <= 1e-15


def test_kve_rule_cache_stays_bounded_over_many_orders():
    # each order adds a rule per dyadic bucket of 2 pi r, 29 here, so
    # 40 orders need more rules than the cache keeps; an evicted rule is
    # rebuilt bit for bit
    rule = fracharm.extension._kve_rule
    r = np.geomspace(1e-6, 200.0, 64)
    orders = np.linspace(0.05, 1.95, 40)
    rule.cache_clear()
    cold = {}
    for s in orders[::13]:
        cold[s] = PoissonSymbol(float(s)).eval_m_dm(r)
        rule.cache_clear()
    warm = {s: PoissonSymbol(float(s)).eval_m_dm(r) for s in orders}
    info = rule.cache_info()
    assert info.misses > 2 * info.maxsize
    assert info.currsize == info.maxsize == 128
    for s, values in cold.items():
        assert all(_same_bits(a, b) for a, b in zip(values, warm[s]))
        again = PoissonSymbol(float(s)).eval_m_dm(r)
        assert all(_same_bits(a, b) for a, b in zip(values, again))
