import math
import warnings

import numpy as np
import pytest
import scipy.fft
from scipy.special import gamma, gammaln, kv, kve

import fracharm.extension
from fracharm import (GridFunction, GridSpec, PoissonSymbol, TLevels,
                      TestFunctionDescriptor, boundary_limit_check,
                      decay_profile, extend_field, frac_laplacian, get_symbol,
                      make_function, make_tlevels,
                      s_harmonicity_residual, s_poisson_symbol, spectral_apply,
                      spectral_gradient, symbol_derivative_value, symbol_value)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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
    # PoissonSymbol._eval without its shortcuts: K_nu at every r > 0
    out = np.full(r.shape, at_zero)
    x = 2 * np.pi * r[r > 0]
    logv = s / 2 * np.log(x / 2) + np.log(kve(nu, x)) - x - gammaln(s / 2)
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
    real_kve = fracharm.extension.kve

    def recording_kve(nu, x):
        seen.append(np.max(x, initial=0.0))
        return real_kve(nu, x)

    monkeypatch.setattr(fracharm.extension, "kve", recording_kve)
    m, dm = sym.eval_m(rs), sym.eval_dm(rs)
    assert seen and max(seen) < 1400.0
    monkeypatch.undo()
    assert _same_bits(m, _unskipped_eval(s, rs, s / 2, 2.0, 1.0))
    assert _same_bits(dm, _unskipped_eval(s, rs, 1 - s / 2, -4 * math.pi, 0.0))
    assert np.count_nonzero(m) > 100
    if s == 1.0:
        pos = rs > 0
        assert np.array_equal(dm[pos], -2 * np.pi * m[pos])
        live = pos & (m > 0)
        assert _same_bits(dm[live], -2 * np.pi * m[live])


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
    real_eval_m = PoissonSymbol.eval_m

    def counting_eval_m(self, r):
        sizes.append(np.size(r))
        return real_eval_m(self, r)

    monkeypatch.setattr(PoissonSymbol, "eval_m", counting_eval_m)
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
    forward = []
    real_rfftn = scipy.fft.rfftn

    def counting_rfftn(*args, **kwargs):
        forward.append(1)
        return real_rfftn(*args, **kwargs)

    monkeypatch.setattr(scipy.fft, "rfftn", counting_rfftn)
    F = extend_field(f, s, lv, with_derivatives=derivs)
    assert len(forward) == 1
    monkeypatch.undo()
    assert (F.dF_dt is None) == ("t" not in derivs)
    assert (F.dF_dx is None) == ("x" not in derivs)
    got = [F.F, *([F.dF_dt] if "t" in derivs else []), *(F.dF_dx or ())]
    want = _extend_field_loop(f, s, lv, derivs)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert _same_bits(a, b)


def test_tlevels_validation():
    with pytest.raises(ValueError):
        TLevels(np.array([0.1, 0.2]))  # too few
    with pytest.raises(ValueError):
        TLevels(np.array([0.1, 0.3, 0.2]))  # not increasing
    with pytest.raises(ValueError):
        TLevels(np.array([-0.1, 0.2, 0.3]))  # not positive


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


def test_log_trapezoid_weights_integrate_dt_over_t():
    lv = TLevels(np.geomspace(0.01, 1.0, 25))
    w = lv.log_trapezoid_weights()
    # sum w_i g(t_i) approximates int g dt/t; with g = 1 it is log(tM/t1)
    assert np.sum(w) == pytest.approx(np.log(100.0), rel=1e-12)


def test_extend_field_s1_matches_exact_mode_decay():
    spec = GridSpec(n=1, N=128, L=1.0)
    k = 3
    x = spec.coords()[0]
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
    f = GridFunction(spec, np.cos(2 * np.pi * spec.coords()[0]))
    lv = TLevels(np.geomspace(0.05, 0.5, 8))
    F = extend_field(f, 0.5, lv, with_derivatives=())
    with pytest.raises(ValueError):
        s_harmonicity_residual(F)


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
    with pytest.raises(ValueError):
        decay_profile(F, k=2)
