import importlib.util
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracharm import (CATALOG, EstimateDescriptor, GridFunction, GridSpec,
                      TestFunctionDescriptor, TLevels, crw_commutator,
                      double_commutator_1d, extend_field, fl_commutator,
                      frac_laplacian, hardy_duality_check, jacobian_pairing,
                      l2_norm, leibniz_defect, make_function, make_tlevels,
                      mean_projected, riesz_potential_commutator,
                      standard_family, verify_estimate)
from fracharm import commutators
from fracharm.commutators import _column, _dilated_about, _evaluate_family
from fracharm.multiplier_ops import riesz_potential
from grid_helpers import coords


def _bandlimited(spec, seed, max_k=6):
    return make_function(TestFunctionDescriptor(
        kind="random-bandlimited", seed=seed, max_k=max_k), spec)


def _bump(spec, center, radius):
    return make_function(TestFunctionDescriptor(
        kind="smooth-bump", center=center, radius=radius), spec)


SPEC1 = GridSpec(n=1, N=128, L=1.0)


def test_commutators_vanish_for_constant_multiplier():
    c = GridFunction(SPEC1, np.full(128, 2.5))
    f = _bandlimited(SPEC1, 4)
    assert l2_norm(crw_commutator(c, f, 1)) <= 1e-12
    assert l2_norm(fl_commutator(c, f, 0.5)) <= 1e-12
    u = mean_projected(f)[0]
    assert l2_norm(riesz_potential_commutator(c, u, 0.5)) <= 1e-12
    assert l2_norm(leibniz_defect(c, f, 0.5)) <= 1e-12
    d1, d2 = double_commutator_1d(c, f)
    assert l2_norm(d1) <= 1e-11
    assert l2_norm(d2) <= 1e-11


def test_fl_commutator_on_unit_function_is_frac_laplacian():
    phi = _bump(SPEC1, (0.5,), 0.2)
    one = GridFunction(SPEC1, np.ones(128))
    out = fl_commutator(phi, one, 0.7)
    exact = frac_laplacian(phi, 0.7)
    assert l2_norm(GridFunction(SPEC1, out.values - exact.values)) <= (
        1e-12 * l2_norm(exact))


def test_order_validation():
    phi = _bump(SPEC1, (0.5,), 0.2)
    f = _bandlimited(SPEC1, 1)
    with pytest.raises(ValueError):
        fl_commutator(phi, f, 1.0)
    with pytest.raises(ValueError):
        leibniz_defect(phi, f, 1.5)


def test_potential_commutator_records_masses():
    phi = _bump(SPEC1, (0.5,), 0.2)
    u = _bandlimited(SPEC1, 8)
    masses: list = []
    riesz_potential_commutator(phi, u, 0.5, masses=masses)
    assert len(masses) == 2
    assert masses[0] == pytest.approx(np.mean(phi.values * u.values))
    assert masses[1] == pytest.approx(np.mean(u.values))


def test_leibniz_defect_is_symmetric():
    f = _bandlimited(SPEC1, 2)
    g = _bump(SPEC1, (0.4,), 0.25)
    a = leibniz_defect(f, g, 0.6)
    b = leibniz_defect(g, f, 0.6)
    assert np.max(np.abs(a.values - b.values)) <= 1e-12


def test_double_commutator_symmetries():
    phi = _bump(SPEC1, (0.45,), 0.2)
    f = _bandlimited(SPEC1, 5)
    d1, d2 = double_commutator_1d(phi, f)
    e1, e2 = double_commutator_1d(f, phi)
    assert np.max(np.abs(d1.values + e1.values)) <= 1e-10
    assert np.max(np.abs(d2.values - e2.values)) <= 1e-10
    z1, _ = double_commutator_1d(phi, phi)
    assert l2_norm(z1) <= 1e-12
    spec2 = GridSpec(n=2, N=16, L=1.0)
    zero2 = GridFunction(spec2, np.zeros(spec2.shape))
    with pytest.raises(ValueError, match="n = 1"):
        double_commutator_1d(zero2, zero2)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5000), a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
def test_commutator_bilinearity_property(seed, a, b):
    phi = _bump(SPEC1, (0.5,), 0.2)
    f1 = _bandlimited(SPEC1, seed)
    f2 = _bandlimited(SPEC1, seed + 1)
    combo = GridFunction(SPEC1, a * f1.values + b * f2.values)
    lhs = crw_commutator(phi, combo, 1).values
    rhs = (a * crw_commutator(phi, f1, 1).values
           + b * crw_commutator(phi, f2, 1).values)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(np.max(np.abs(rhs)), 1.0)


def test_jacobian_pairing_structure():
    spec = GridSpec(n=2, N=64, L=1.0)
    phi = _bump(spec, (0.5, 0.5), 0.25)
    u1 = _bandlimited(spec, 3, max_k=4)
    u2 = _bandlimited(spec, 9, max_k=4)
    # det(grad u) integrates to zero, so constant multipliers pair to zero
    const = GridFunction(spec, np.full(spec.shape, 1.7))
    assert abs(jacobian_pairing(const, (u1, u2))) <= 1e-10
    # equal (or parallel) components give a vanishing determinant
    assert abs(jacobian_pairing(phi, (u1, u1))) <= 1e-12
    # antisymmetry in the pair
    ab = jacobian_pairing(phi, (u1, u2))
    ba = jacobian_pairing(phi, (u2, u1))
    assert ab == pytest.approx(-ba, rel=1e-12)
    with pytest.raises(ValueError, match="method"):
        jacobian_pairing(phi, (u1, u2), method="volume")
    with pytest.raises(ValueError, match="n = 2"):
        jacobian_pairing(GridFunction(SPEC1, np.zeros(128)),
                         (GridFunction(SPEC1, np.zeros(128)),) * 2)


def test_jacobian_pairing_refuses_other_grids_and_undecayed_levels():
    spec = GridSpec(n=2, N=32, L=1.0)
    phi = _bump(spec, (0.5, 0.5), 0.25)
    u1 = _bandlimited(spec, 3, max_k=4)
    u2 = _bandlimited(spec, 9, max_k=4)
    other = _bandlimited(GridSpec(n=2, N=16, L=1.0), 3, max_k=4)
    for u in ((other, u2), (u1, other)):
        with pytest.raises(ValueError) as err:
            jacobian_pairing(phi, u)
        assert str(err.value) == "all three functions must share the grid"
    # levels that top out at 0.05 leave the integrand far from decayed
    low = TLevels(np.geomspace(spec.h / 8, 0.05, 16))
    with pytest.raises(ValueError, match="extension integrand has not "
                       "decayed at t_M: last level .* exceeds 1e-6 of peak "
                       ".*; enlarge t_max"):
        jacobian_pairing(phi, (u1, u2), method="extension", levels=low)


def test_jacobian_two_routes_agree():
    spec = GridSpec(n=2, N=64, L=1.0)
    phi = _bump(spec, (0.5, 0.5), 0.25)
    u1 = _bandlimited(spec, 3, max_k=4)
    u2 = _bandlimited(spec, 9, max_k=4)
    boundary = jacobian_pairing(phi, (u1, u2), method="boundary")
    details: dict = {}
    ext = jacobian_pairing(phi, (u1, u2), method="extension",
                           levels=make_tlevels(spec, M=48), details=details)
    assert ext == pytest.approx(boundary, rel=0.10)
    assert details["per_level"].shape == (48,)
    assert details["tail_estimate"] <= 1e-6 * np.max(np.abs(details["per_level"]))


def _jacobian_by_three_fields(phi, u, levels):
    # the extension route jacobian_pairing replaced: three full extend_field
    # arrays, reduced level by level afterwards
    spec = phi.spec
    fields = [extend_field(g, 1.0, levels, with_derivatives=("t", "x"))
              for g in (phi, *u)]
    per_level = np.zeros(levels.M)
    for i in range(levels.M):
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = [
            (F.dF_dx[0][i], F.dF_dx[1][i], F.dF_dt[i]) for F in fields]
        det3 = (a0 * (b1 * c2 - b2 * c1)
                - a1 * (b0 * c2 - b2 * c0)
                + a2 * (b0 * c1 - b1 * c0))
        per_level[i] = float(np.sum(det3) * spec.cell_volume)
    ts, wlog = levels.ts, levels.log_trapezoid_weights()
    tail = float(wlog[-1] * ts[-1] * abs(per_level[-1]))
    return -float(np.sum(wlog * ts * per_level)), per_level, tail


def _jacobian_inputs(N):
    spec = GridSpec(n=2, N=N, L=1.0)
    # levels as in acceptance criterion 8
    levels = TLevels(np.geomspace(spec.h / 128, 4 * spec.L, 80))
    return (_bump(spec, (0.5, 0.45), 0.25),
            (_bandlimited(spec, 3, max_k=4), _bandlimited(spec, 9, max_k=4)),
            levels)


def test_jacobian_extension_route_equals_three_fields(monkeypatch):
    phi, u, levels = _jacobian_inputs(64)
    forward = []
    real_rfftn = np.fft.rfftn

    def counting_rfftn(*args, **kwargs):
        forward.append(1)
        return real_rfftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", counting_rfftn)
    details: dict = {}
    got = jacobian_pairing(phi, u, method="extension", levels=levels,
                           details=details)
    # one forward transform for the stack of all three functions
    assert len(forward) == 1
    monkeypatch.undo()
    want, per_level, tail = _jacobian_by_three_fields(phi, u, levels)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert details["per_level"].tobytes() == per_level.tobytes()
    assert np.float64(details["tail_estimate"]).tobytes() == \
        np.float64(tail).tobytes()


def test_jacobian_extension_route_holds_one_level():
    phi, u, levels = _jacobian_inputs(64)
    one_field = levels.M * 64 * 64 * 8  # one (80, 64, 64) float64 array
    tracemalloc.start()
    try:
        jacobian_pairing(phi, u, method="extension", levels=levels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < one_field


def test_stacked_2d_family_holds_ten_stacks_at_most():
    # one 20-member jacobian-bmo family at 2-D N=128 peaks holding the three
    # argument stacks, both gradients of the boundary pairing (two stacks
    # each) and its product, nine stacks; the spectral path transforms in
    # blocks, so its temporaries stay block-sized
    spec = GridSpec(n=2, N=128, L=1.0)
    d = EstimateDescriptor("jacobian-bmo")
    family = standard_family(d.arity, spec, seed=1000)
    stack = len(family) * spec.N**2 * 8  # one (20, 128, 128) float64 stack
    # a first run keeps the caches of a first call out of the count
    _evaluate_family(d, family, spec, {})
    tracemalloc.start()
    try:
        _evaluate_family(d, family, spec, {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 * stack


def test_jacobian_bmo_synthesizes_each_gradient_once(monkeypatch):
    # the boundary pairing and the right-hand side share the gradient
    # stacks of u1 and u2: two syntheses per family
    spec = GridSpec(n=2, N=32, L=1.0)
    d = EstimateDescriptor("jacobian-bmo")
    family = standard_family(d.arity, spec)
    want = _evaluate_family(d, family, spec, {})
    calls = []
    real = commutators.spectral_gradient

    def counting(f):
        calls.append(f.values.shape)
        return real(f)

    monkeypatch.setattr(commutators, "spectral_gradient", counting)
    assert _evaluate_family(d, family, spec, {}) == want
    assert calls == [(len(family), *spec.shape)] * 2


def test_hardy_duality_check_values():
    phi = _bump(SPEC1, (0.45,), 0.2)
    f = _bandlimited(SPEC1, 6)
    g = _bandlimited(SPEC1, 7)
    ratio = hardy_duality_check(phi, f, g)
    assert 0 < ratio < 10
    # constant g has zero BMO norm and zero pairing (the integrand has mean 0)
    const = GridFunction(SPEC1, np.full(128, 3.0))
    assert hardy_duality_check(phi, f, const) == 0.0
    with pytest.raises(ValueError):
        hardy_duality_check(phi, f, g, p=1.0)
    # every parameter is the estimate's: the catalogue's evaluation of the
    # same triple gives the same ratio, bit for bit
    d = EstimateDescriptor("hardy-duality", {"s": 0.7, "p": 3.0, "q": 1.5})
    lhs, rhs = CATALOG[d.id]["evaluate"](SPEC1, (phi, f, g), d.params, {})
    assert hardy_duality_check(phi, f, g, s=0.7, p=3.0, q=1.5) == lhs / rhs


def test_hardy_duality_zero_cut_is_relative():
    # the pairing with constant g cancels to about 1e-17 of the sum of its
    # absolute terms at every amplitude and period, and is cut to 0; a
    # band-limited g keeps its ratio
    want = None
    for L in (1e-3, 1.0, 1e3):
        spec = GridSpec(n=1, N=128, L=L)
        phi = _bump(spec, (0.45 * L,), 0.2 * L)
        f, g = _bandlimited(spec, 6), _bandlimited(spec, 7)
        for amp in (1.0, 1e4, 1e8):
            phi_a, f_a, g_a = (GridFunction(spec, amp * h.values)
                               for h in (phi, f, g))
            const = GridFunction(spec, np.full(128, 3.0 * amp))
            assert hardy_duality_check(phi_a, f_a, const) == 0.0
            ratio = hardy_duality_check(phi_a, f_a, g_a)
            want = ratio if want is None else want
            assert abs(ratio - want) <= 1e-13 * want


def test_hardy_duality_zero_rhs_evaluates_the_defect_once(monkeypatch):
    # three applies for H_s(phi,f) and one for its (-Delta)^{s/2}; the zero
    # RHS scale reuses that integrand
    calls = []

    def counted(f, s):
        calls.append(s)
        return frac_laplacian(f, s)

    monkeypatch.setattr(commutators, "frac_laplacian", counted)
    phi = _bump(SPEC1, (0.45,), 0.2)
    const = GridFunction(SPEC1, np.full(128, 3.0))
    assert hardy_duality_check(phi, _bandlimited(SPEC1, 6), const) == 0.0
    assert len(calls) == 4


def test_estimate_descriptor_validation():
    with pytest.raises(ValueError, match="unknown estimate id"):
        EstimateDescriptor(id="not-an-estimate")
    with pytest.raises(ValueError, match="unknown parameters"):
        EstimateDescriptor(id="crw-bmo", params={"bogus": 1.0})
    # defaults are merged into the stored parameter set
    d = EstimateDescriptor(id="fl-comm-lorentz", params={"s": 0.4})
    assert d.params["s"] == 0.4
    assert d.params["sigma"] == 0.75
    assert d.arity == 2
    # inconsistent exponent relations are rejected by the validator
    with pytest.raises(ValueError, match="s1 \\+ s2"):
        EstimateDescriptor(id="double-comm-1d", params={"s1": 0.5, "s2": 0.7})


_INF = float("inf")
_BELOW_0, _ABOVE_1 = np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0)
# (estimate, parameters, the text after "<estimate> requires "): per range
# end and per relation a parameter set that breaks that check, alone where
# the other checks allow it and otherwise first in both the old and the
# declared order; double-comm-1d's 1/p1 + 1/p2 = 1 ties p2's ends to p1's,
# so p2 has no rows
_VALIDATION_MESSAGES = [
    ("crw-bmo", {"p": 1.0}, "p in (1, inf)"),
    ("crw-bmo", {"p": _INF}, "p in (1, inf)"),
    ("crw-lorentz", {"sigma": _BELOW_0}, "sigma in [0, 1)"),
    ("crw-lorentz", {"sigma": 1.0}, "sigma in [0, 1)"),
    ("crw-lorentz", {"p": 1.0, "p1": 2.0, "p2": 2.0, "q1": 2.0, "q2": 2.0},
     "p in (1, inf)"),
    ("crw-lorentz", {"p": _INF, "p1": 1e300, "p2": 1e300, "q1": 1e300,
                     "q2": 1e300}, "p in (1, inf)"),
    ("crw-lorentz", {"p1": _INF, "p2": 2.0}, "p1 in (1, inf)"),
    ("crw-lorentz", {"p2": _INF, "p1": 2.0}, "p2 in (1, inf)"),
    ("crw-lorentz", {"q1": _INF, "q2": 2.0}, "q1 in (1, inf)"),
    ("crw-lorentz", {"q2": _INF, "q1": 2.0}, "q2 in (1, inf)"),
    ("crw-lorentz", {"p1": 3.0}, "1/p1 + 1/p2 = 1/p"),
    ("crw-lorentz", {"q1": 3.0}, "1/q1 + 1/q2 = 1/p"),
    ("fl-comm-lorentz", {"s": 0.0}, "s in (0, 1)"),
    ("fl-comm-lorentz", {"s": 1.0}, "s in (0, 1)"),
    ("fl-comm-lorentz", {"sigma": np.nextafter(0.5, 0.0)}, "sigma in [s, 1)"),
    ("fl-comm-lorentz", {"sigma": 1.0}, "sigma in [s, 1)"),
    ("fl-comm-lorentz", {"p": 1.0, "q1": 2.0, "q2": 2.0}, "p in (1, inf)"),
    ("fl-comm-lorentz", {"p": _INF, "q1": 1e300, "q2": 1e300},
     "p in (1, inf)"),
    ("fl-comm-lorentz", {"q1": _INF, "q2": 2.0}, "q1 in (1, inf)"),
    ("fl-comm-lorentz", {"q2": _INF, "q1": 2.0}, "q2 in (1, inf)"),
    ("fl-comm-lorentz", {"q1": 3.0}, "1/q1 + 1/q2 = 1/p"),
    ("chanillo", {"s": 0.0}, "s in (0, 1)"),
    ("chanillo", {"s": 1.0}, "s in (0, 1)"),
    ("chanillo", {"p": 1.0}, "p in (1, inf)"),
    ("chanillo", {"p": _INF}, "p in (1, inf)"),
    ("chanillo", {"q": 1.0}, "q > 1"),
    ("leibniz-lorentz", {"s": 0.0}, "s in (0, 1]"),
    ("leibniz-lorentz", {"s": _ABOVE_1}, "s in (0, 1]"),
    ("leibniz-lorentz", {"sigma": 0.0}, "sigma in (0, s)"),
    ("leibniz-lorentz", {"sigma": 0.8}, "sigma in (0, s)"),
    ("leibniz-lorentz", {"p1": 1.0}, "p1 in (1, inf)"),
    ("leibniz-lorentz", {"p1": _INF}, "p1 in (1, inf)"),
    ("leibniz-lorentz", {"p2": 1.0}, "p2 in (1, inf)"),
    ("leibniz-lorentz", {"p2": _INF}, "p2 in (1, inf)"),
    ("leibniz-lorentz", {"q1": 1.0}, "q1 in (1, inf)"),
    ("leibniz-lorentz", {"q1": _INF}, "q1 in (1, inf)"),
    ("leibniz-lorentz", {"q2": 1.0}, "q2 in (1, inf)"),
    ("leibniz-lorentz", {"q2": _INF}, "q2 in (1, inf)"),
    ("leibniz-lorentz", {"p1": 2.0, "p2": 2.0},
     "target p = (1/p1 + 1/p2)^-1 > 1"),
    ("leibniz-lorentz", {"q1": _ABOVE_1},
     "target q = (1/q1 + 1/q2)^-1 >= 1"),
    ("leibniz-bmo", {"s": 0.0}, "s in (0, 1]"),
    ("leibniz-bmo", {"s": _ABOVE_1}, "s in (0, 1]"),
    ("leibniz-bmo", {"p": 1.0}, "p in (1, inf)"),
    ("leibniz-bmo", {"p": _INF}, "p in (1, inf)"),
    ("double-comm-1d", {"s1": 0.0, "s2": 1.0}, "s1, s2 in (0, 1)"),
    ("double-comm-1d", {"s1": 1.0, "s2": 0.0}, "s1, s2 in (0, 1)"),
    ("double-comm-1d", {"s2": 0.0}, "s1, s2 in (0, 1)"),
    ("double-comm-1d", {"s2": 1.0}, "s1, s2 in (0, 1)"),
    ("double-comm-1d", {"p1": 1.0, "p2": _INF}, "p1 in (1, inf)"),
    ("double-comm-1d", {"p1": _INF, "p2": 1.0}, "p1 in (1, inf)"),
    ("double-comm-1d", {"q1": 1.0}, "q1 in (1, inf)"),
    ("double-comm-1d", {"q1": _INF}, "q1 in (1, inf)"),
    ("double-comm-1d", {"q2": 1.0}, "q2 in (1, inf)"),
    ("double-comm-1d", {"q2": _INF}, "q2 in (1, inf)"),
    ("double-comm-1d", {"s1": 0.4}, "s1 + s2 = 1"),
    ("double-comm-1d", {"p1": 3.0}, "1/p1 + 1/p2 = 1"),
    ("jacobian-sobolev", {"s0": 0.0}, "each s_i in (0, 1)"),
    ("jacobian-sobolev", {"s1": 1.0}, "each s_i in (0, 1)"),
    ("jacobian-sobolev", {"p0": 1.0}, "p0 in (1, inf)"),
    ("jacobian-sobolev", {"p0": _INF, "p1": 2.0, "p2": 2.0}, "p0 in (1, inf)"),
    ("jacobian-sobolev", {"p1": 1.0}, "p1 in (1, inf)"),
    ("jacobian-sobolev", {"p1": _INF, "p0": 2.0, "p2": 2.0}, "p1 in (1, inf)"),
    ("jacobian-sobolev", {"p2": 1.0}, "p2 in (1, inf)"),
    ("jacobian-sobolev", {"p2": _INF, "p0": 2.0, "p1": 2.0}, "p2 in (1, inf)"),
    ("jacobian-sobolev", {"s0": 0.5}, "s0 + s1 + s2 = 2"),
    ("jacobian-sobolev", {"p0": 2.0}, "1/p0 + 1/p1 + 1/p2 = 1"),
    ("hardy-duality", {"s": 0.0}, "s in (0, 1]"),
    ("hardy-duality", {"s": _ABOVE_1}, "s in (0, 1]"),
    ("hardy-duality", {"p": 1.0}, "p, q in (1, inf)"),
    ("hardy-duality", {"p": _INF}, "p, q in (1, inf)"),
    ("hardy-duality", {"q": 1.0}, "p, q in (1, inf)"),
    ("hardy-duality", {"q": _INF}, "p, q in (1, inf)"),
    # a zero exponent is out of range before any relation divides by it
    ("crw-lorentz", {"p1": 0.0}, "p1 in (1, inf)"),
    ("crw-lorentz", {"p": 0.0}, "p in (1, inf)"),
    ("fl-comm-lorentz", {"q1": 0.0}, "q1 in (1, inf)"),
    ("double-comm-1d", {"p1": 0.0}, "p1 in (1, inf)"),
]


def test_every_validation_message_is_pinned():
    assert {eid for eid, _, _ in _VALIDATION_MESSAGES} == {
        eid for eid, entry in CATALOG.items() if entry["defaults"]}
    for eid, params, words in _VALIDATION_MESSAGES:
        with pytest.raises(ValueError) as info:
            EstimateDescriptor(eid, params)
        assert str(info.value) == f"{eid} requires {words}", (eid, params)


def test_jacobian_sobolev_evaluates_on_the_family():
    # the catalogue's evaluate on two members of the 2-D family, a bump and
    # a band-limited one; a 20-member verify_estimate is too slow for Tier-1
    spec = GridSpec(n=2, N=32, L=1.0)
    d = EstimateDescriptor(id="jacobian-sobolev")
    evaluate = CATALOG["jacobian-sobolev"]["evaluate"]
    family = standard_family(d.arity, spec)
    const_phi = make_function(
        TestFunctionDescriptor(kind="constant", amplitude=2.0), spec)
    for i in (0, 15):
        phi, u1, u2 = (make_function(t, spec) for t in family[i])
        lhs, rhs = evaluate(spec, (phi, u1, u2), d.params, {})
        assert np.isfinite(lhs) and lhs >= 0
        assert np.isfinite(rhs) and rhs > 0
        # both sides are homogeneous of degree one in phi
        lhs2, rhs2 = evaluate(
            spec, (GridFunction(spec, 2 * phi.values), u1, u2), d.params, {})
        assert lhs2 / rhs2 == pytest.approx(lhs / rhs, rel=1e-14, abs=0.0)
        # det(grad u) integrates to zero, so a constant phi pairs to zero
        zero, _ = evaluate(spec, (const_phi, u1, u2), d.params, {})
        assert zero <= 1e-12 * lhs
        # both sides are dilation-invariant at the default exponents, and
        # the Slobodeckij sums are scale-safe, so no period overflows them
        for L in (1e-100, 1e150):
            spec_L = GridSpec(n=2, N=32, L=L)
            funcs = [make_function(t, spec_L)
                     for t in standard_family(d.arity, spec_L)[i]]
            lhs_L, rhs_L = evaluate(spec_L, funcs, d.params, {})
            for x, x0 in ((lhs_L, lhs), (rhs_L, rhs)):
                assert abs(x - x0) <= 1e-12 * max(abs(x0), 1.0), (i, L)
    with pytest.raises(ValueError, match="s0 \\+ s1 \\+ s2 = 2"):
        EstimateDescriptor(id="jacobian-sobolev", params={"s0": 0.5})
    with pytest.raises(ValueError, match="1/p0 \\+ 1/p1 \\+ 1/p2 = 1"):
        EstimateDescriptor(id="jacobian-sobolev", params={"p0": 2.0})
    with pytest.raises(ValueError, match="each s_i in \\(0, 1\\)"):
        EstimateDescriptor(id="jacobian-sobolev",
                           params={"s0": 1.0, "s1": 0.5, "s2": 0.5})


def test_standard_family_shape_and_determinism():
    fam = standard_family(2, SPEC1, n_members=12)
    assert len(fam) == 12
    assert all(len(tup) == 2 for tup in fam)
    fam2 = standard_family(2, SPEC1, n_members=12)
    assert fam == fam2
    # members are realizable on the grid
    for tup in fam:
        for t in tup:
            make_function(t, SPEC1)


def test_verify_estimate_requires_enough_samples():
    d = EstimateDescriptor(id="crw-bmo")
    fam = standard_family(2, SPEC1, n_members=4)
    with pytest.raises(ValueError, match="at least 8"):
        verify_estimate(d, fam, SPEC1)


def test_verify_estimate_report_and_determinism():
    d = EstimateDescriptor(id="crw-bmo")
    fam = standard_family(2, SPEC1, n_members=10)
    r1 = verify_estimate(d, fam, SPEC1)
    r2 = verify_estimate(d, fam, SPEC1)
    assert r1.passed
    assert r1.fitted_constant > 0
    assert r1.validation_max_ratio <= 1.5 * r1.fitted_constant
    assert set(r1.dilation_ratios) == {0.5, 2.0}
    assert r1.dilation_stability < 0.25
    assert r1.fitted_constant == r2.fitted_constant
    assert r1.dilation_ratios == r2.dilation_ratios
    assert [s["ratio"] for s in r1.samples] == [s["ratio"] for s in r2.samples]


def test_verify_estimate_zero_rhs_protocol():
    d = EstimateDescriptor(id="crw-bmo")
    fam = standard_family(2, SPEC1, n_members=10)
    # replace one multiplier by a constant: BMO RHS vanishes and the
    # commutator LHS must vanish with it
    const_phi = TestFunctionDescriptor(kind="constant", amplitude=2.0)
    fam[3] = (const_phi, fam[3][1])
    report = verify_estimate(d, fam, SPEC1)
    assert len(report.zero_rhs_samples) == 1
    assert report.zero_rhs_samples[0]["index"] == 3
    assert report.passed


def test_verify_estimate_zero_cuts_are_relative():
    d = EstimateDescriptor(id="crw-bmo")
    fam = standard_family(2, SPEC1, n_members=10)
    const_phi = TestFunctionDescriptor(kind="constant", amplitude=2.0)
    fam[3] = (const_phi, fam[3][1])
    ref = verify_estimate(d, fam, SPEC1)
    # scaling every f scales every LHS and RHS alike, and changes nothing
    tiny = [(b, replace(f, amplitude=1e-30)) for b, f in fam]
    report = verify_estimate(d, tiny, SPEC1)
    assert [z["index"] for z in report.zero_rhs_samples] == [3]
    assert report.passed == ref.passed
    assert report.fitted_constant == pytest.approx(ref.fitted_constant,
                                                   rel=1e-12)
    # a family whose every RHS is zero has nothing to verify
    flat = [(const_phi, f) for _, f in fam]
    with pytest.raises(ArithmeticError, match="degenerate"):
        verify_estimate(d, flat, SPEC1)


def test_catalog_entries_are_well_formed():
    for eid, entry in CATALOG.items():
        assert entry["arity"] in (2, 3)
        # every parameter has a declared range, and the defaults pass them
        assert entry.get("ranges", {}).keys() == entry["defaults"].keys()
        d = EstimateDescriptor(id=eid)
        assert d.params.keys() == entry["defaults"].keys()


def test_dilation_remaps_centres_about_midpoint_and_the_rest_about_origin():
    spec = GridSpec(n=1, N=256, L=2.0)
    lam = 2.0
    bump = TestFunctionDescriptor(kind="gaussian", center=(0.5,), width=0.1,
                                  translate=(0.2,))
    d = _dilated_about(bump, lam, spec)
    # the reference point center + translate moves to a + (c + tau - a)/lam
    assert d.center[0] == pytest.approx(1.0 + (0.5 - 1.0) / lam)
    assert d.translate == pytest.approx((0.2 / lam,))
    assert d.dilate == lam
    assert _dilated_about(replace(bump, translate=()), lam, spec).translate == ()
    # centre-less members become x -> f(lam x), a dilation about the origin
    x = coords(spec)[0]
    for member in (TestFunctionDescriptor(kind="sine", kvec=(3,)),
                   TestFunctionDescriptor(kind="sine", kvec=(3,),
                                          translate=(0.3,)),
                   TestFunctionDescriptor(kind="random-bandlimited", seed=4,
                                          max_k=5)):
        got = make_function(_dilated_about(member, lam, spec), spec).values
        if member.kind == "sine":
            tau = member.translate[0] if member.translate else 0.0
            want = np.sin(2 * np.pi * 3 * (lam * x - tau) / spec.L)
        else:
            # every second sample of the undilated member, tiled twice and
            # scaled to unit peak as every band-limited member is
            want = np.tile(make_function(member, spec).values[::2], 2)
            want /= np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-12


def _evaluate_family_per_sample(d, family, spec, meta):
    # _evaluate_family one sample at a time, as it was before it evaluated
    # each family as one stack; the oracle of the stacked evaluation
    evaluate = CATALOG[d.id]["evaluate"]
    values = []
    for i, tup in enumerate(family):
        if len(tup) != d.arity:
            raise ValueError(
                f"estimate {d.id} needs {d.arity} functions per sample, "
                f"got {len(tup)}")
        funcs = tuple(make_function(t, spec) for t in tup)
        lhs, rhs = evaluate(spec, funcs, d.params, meta)
        if not (np.isfinite(lhs) and np.isfinite(rhs)):
            raise ArithmeticError(
                f"estimate {d.id} sample {i} produced a non-finite value")
        values.append((lhs, rhs))
    rhs_scale = max(rhs for _, rhs in values)
    if not rhs_scale > 0:
        raise ArithmeticError(
            f"estimate {d.id}: degenerate family, every sample has a zero "
            f"right-hand side on this grid")
    samples, zeros = [], []
    for i, (lhs, rhs) in enumerate(values):
        if rhs <= commutators._ZERO_RHS_TOL * rhs_scale:
            zeros.append({"index": i, "lhs": lhs, "rhs": rhs})
        else:
            samples.append({"index": i, "lhs": lhs, "rhs": rhs,
                            "ratio": lhs / rhs})
    return samples, zeros, max(lhs for lhs, _ in values)


def _both_evaluations(d, family, spec):
    # (samples, zeros, lhs_scale, metadata) of the stacked evaluation and of
    # its per-sample oracle
    out = []
    for evaluate in (_evaluate_family, _evaluate_family_per_sample):
        meta: dict = {}
        out.append((*evaluate(d, family, spec, meta), meta))
    return out


_ORACLE_SPECS = (GridSpec(n=1, N=256, L=1.0), GridSpec(n=2, N=32, L=1.0))


@pytest.mark.parametrize("eid,spec", [
    pytest.param(eid, spec, id=f"{eid}-{spec.n}d-{spec.N}")
    for spec in _ORACLE_SPECS for eid in sorted(CATALOG)
    if spec.n in CATALOG[eid].get("dims", (1, 2))])
def test_stacked_family_equals_per_sample_oracle(eid, spec):
    # 1/q = 1/p - s/n fixes chanillo's q per dimension
    d = EstimateDescriptor(eid, {"q": 2.0} if eid == "chanillo" and spec.n == 2
                           else {})
    family = standard_family(d.arity, spec)
    # a constant multiplier gives sample 3 a zero right-hand side: every
    # right-hand side has a factor in phi's oscillation or derivative
    family[3] = (TestFunctionDescriptor(kind="constant", amplitude=2.0),
                 *family[3][1:])
    # the band of N=32 holds the dilation lambda = 2 of no band-limited
    # member; jacobian-sobolev's Slobodeckij sums are slow, so it checks the
    # undilated family only
    lams = (1.0, 0.5) if spec.n == 2 else (1.0, 0.5, 2.0)
    for lam in lams[:1] if eid == "jacobian-sobolev" else lams:
        fam = [tuple(_dilated_about(t, lam, spec) for t in tup)
               for tup in family]
        stacked, oracle = _both_evaluations(d, fam, spec)
        # bit for bit (a float's JSON text round-trips it), metadata key
        # order included
        assert json.dumps(stacked) == json.dumps(oracle)
        assert [z["index"] for z in stacked[1]] == [3]
    assert stacked[0] and stacked[2] > 0


def test_stacked_family_failures_name_the_per_sample_cause(monkeypatch):
    spec = SPEC1
    d = EstimateDescriptor(id="crw-bmo")
    family = standard_family(2, spec, n_members=10)
    const = TestFunctionDescriptor(kind="constant", amplitude=2.0)
    huge = replace(family[6][1], amplitude=1e200)
    # the norms are scale-safe, so an evaluator that squares both sides
    # makes the overflow: (1e200)^2 is inf
    unsquared = CATALOG["crw-bmo"]["evaluate"]
    monkeypatch.setitem(CATALOG["crw-bmo"], "evaluate", lambda *args: tuple(
        np.square(side) for side in unsquared(*args)))
    cases = (
        # an arity mismatch in a late sample is found before any evaluation
        (ValueError, "needs 2 functions per sample, got 1",
         family[:7] + [family[7][:1]] + family[8:]),
        # both sides of samples 6 and 8 overflow to inf
        (ArithmeticError, "sample 6 produced a non-finite value",
         [(a, huge if i in (6, 8) else b) for i, (a, b) in enumerate(family)]),
        # constant multipliers have a zero BMO norm
        (ArithmeticError, "degenerate family",
         [(const, b) for _, b in family]),
    )
    for error, words, fam in cases:
        messages = []
        for evaluate in (_evaluate_family, _evaluate_family_per_sample):
            with np.errstate(over="ignore"), pytest.raises(error) as info:
                evaluate(d, fam, spec, {})
            messages.append(str(info.value))
        assert words in messages[0]
        assert messages[0] == messages[1]


def test_riesz_potential_of_a_stack_reports_the_first_row_with_a_mean():
    family = standard_family(1, SPEC1, n_members=6)
    rows = [make_function(t, SPEC1) for (t,) in family]
    # rows 0 and 1 are projected, rows 2 on keep their mean
    rows[:2] = [mean_projected(f)[0] for f in rows[:2]]
    stack = GridFunction(SPEC1, np.stack([f.values for f in rows]))
    with pytest.raises(ValueError, match="negligible mean") as info:
        riesz_potential(stack, 0.5)
    with pytest.raises(ValueError) as first:
        riesz_potential(rows[2], 0.5)
    assert str(info.value) == str(first.value)
    projected = GridFunction(SPEC1, stack.values[:2])
    assert np.array_equal(
        riesz_potential(projected, 0.5).values,
        np.stack([riesz_potential(f, 0.5).values for f in rows[:2]]))


@pytest.mark.parametrize("eid", ["leibniz-lorentz", "double-comm-1d",
                                 "crw-lorentz"])
def test_family_makes_as_many_transforms_at_any_size(eid, monkeypatch):
    # one forward transform per operator per family, not per sample
    d = EstimateDescriptor(id=eid)
    real_rfftn = np.fft.rfftn
    forward = []

    def counting_rfftn(*args, **kwargs):
        forward.append(1)
        return real_rfftn(*args, **kwargs)

    counts = []
    for members in (8, 20):
        family = standard_family(d.arity, SPEC1, n_members=members)
        forward.clear()
        monkeypatch.setattr(np.fft, "rfftn", counting_rfftn)
        _evaluate_family(d, family, SPEC1, {})
        monkeypatch.undo()
        counts.append(len(forward))
    assert counts[0] == counts[1] > 0


def _constants(first, rows=20):
    """A column of constant members with amplitudes first, first + 1, ..."""
    return tuple(TestFunctionDescriptor(kind="constant", amplitude=first + i)
                 for i in range(rows))


def test_family_columns_are_stored_read_only_stacks():
    commutators._COLUMNS.clear()
    column = tuple(t for t, _ in standard_family(2, SPEC1))
    f = _column(SPEC1, column)
    assert np.array_equal(f.values, np.stack(
        [make_function(t, SPEC1).values for t in column]))
    # an equal column gives the same stack, also one written with lists
    assert _column(SPEC1, tuple(replace(t) for t in column)) is f
    listed = tuple(TestFunctionDescriptor(
        kind=t.kind, center=list(t.center), radius=t.radius,
        amplitude=t.amplitude, dilate=t.dilate) for t in column[:10])
    assert _column(SPEC1, listed + column[10:]) is f
    # the same column on another grid is another entry
    other = GridSpec(n=1, N=128, L=2.0)
    g = _column(other, column)
    assert g is not f and g.spec == other
    assert list(commutators._COLUMNS) == [(SPEC1, column), (other, column)]
    with pytest.raises(ValueError, match="read-only"):
        f.values[0, 0] = 1.0


def test_family_column_store_stays_within_its_bound():
    commutators._COLUMNS.clear()
    spec = GridSpec(n=2, N=64, L=1.0)
    # 20 columns of 20 rows of 32 KB; the bound holds 12 of them
    columns = [_constants(20 * j) for j in range(20)]
    for column in columns:
        _column(spec, column)
        held = sum(f.values.nbytes for f in commutators._COLUMNS.values())
        assert held <= commutators._COLUMN_BYTES
    assert list(commutators._COLUMNS) == [(spec, c) for c in columns[-12:]]
    # a hit makes a column the most recent, so the next miss evicts another
    _column(spec, columns[-12])
    _column(spec, _constants(-20))
    assert (spec, columns[-12]) in commutators._COLUMNS
    assert (spec, columns[-11]) not in commutators._COLUMNS
    # 17 rows at 2-D N=256 (8.5 MB) are returned, not held, and evict none
    kept = list(commutators._COLUMNS)
    big, wide = _constants(0, rows=17), GridSpec(n=2, N=256, L=1.0)
    f = _column(wide, big)
    assert f.values.nbytes > commutators._COLUMN_BYTES
    assert not f.values.flags.writeable and f.values[16, 0, 0] == 16.0
    assert list(commutators._COLUMNS) == kept
    assert _column(wide, big) is not f


def _workloads():
    """perfbench/workloads.py, loaded from its path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_1d_config_samples_each_family_column_once(monkeypatch):
    # the benchmark's run-1d estimates share one family: 9 distinct columns
    # (3 argument positions at 3 dilation states) of 20 members each; one
    # stack per estimate and dilation state made 1020 samples of them
    cfg = _workloads().CLI_CONFIGS["run-1d"]
    spec = GridSpec(**cfg["grid"])
    commutators._COLUMNS.clear()
    sampled, stacks, sample = [], [], commutators.make_function

    def counting(desc, spec):
        sampled.append(desc)
        return sample(desc, spec)

    def keeping(evaluate):
        # the stacks are kept, so no two of them share an id
        def kept(spec, funcs, *rest):
            stacks.extend(funcs)
            return evaluate(spec, funcs, *rest)
        return kept

    monkeypatch.setattr(commutators, "make_function", counting)
    for eid in cfg["estimates"]:
        d = EstimateDescriptor(eid)
        monkeypatch.setitem(CATALOG[eid], "evaluate",
                            keeping(CATALOG[eid]["evaluate"]))
        verify_estimate(d, standard_family(d.arity, spec), spec)
    assert len(sampled) == 180
    assert len({id(f.values) for f in stacks}) == 9
