import math

import numpy as np
import pytest

from fracharm import singular_ops
from fracharm import (GridFunction, GridSpec, QuadratureConfig,
                      TestFunctionDescriptor, frac_laplacian,
                      frac_laplacian_constant, frac_laplacian_quadrature,
                      frac_laplacian_tail_bound, hilbert_pv_quadrature,
                      make_function, mean_projected, riesz_potential,
                      riesz_potential_constant, riesz_potential_quadrature,
                      riesz_transform)
from fracharm.singular_ops import _offsets, _periodized_weights
from grid_helpers import coords

PERIODIZED = QuadratureConfig(treat_as_compact=False)
needs_extended = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18,
    reason="needs an extended-precision longdouble")


def _gaussian(spec, width_frac=20.0):
    return make_function(TestFunctionDescriptor(
        kind="gaussian", center=(spec.L / 2,) * spec.n,
        width=spec.L / width_frac), spec)


def test_normalization_constants_closed_form():
    # n = 1, s = 1: the half Laplacian kernel is 1/(pi y^2)
    assert frac_laplacian_constant(1, 1.0) == pytest.approx(1 / np.pi, rel=1e-12)
    # n = 1, s = 1/2: potential constant Gamma(1/4)/(2^{1/2} pi^{1/2} Gamma(1/4))
    assert riesz_potential_constant(1, 0.5) == pytest.approx(
        1 / math.sqrt(2 * np.pi), rel=1e-12)


@pytest.mark.parametrize("s", [0.3, 0.7, 1.5])
def test_periodized_quadrature_matches_multiplier(s):
    spec = GridSpec(n=1, N=512, L=1.0)
    f = _gaussian(spec)
    a = frac_laplacian(f, s).values
    b = frac_laplacian_quadrature(f, s, PERIODIZED).values
    assert np.max(np.abs(a - b)) <= 4e-3 * np.max(np.abs(a))


@pytest.mark.parametrize("s", [0.3, 0.7])
def test_periodized_error_decreases_with_refinement(s):
    errs = []
    for N in (128, 256, 512):
        spec = GridSpec(n=1, N=N, L=1.0)
        f = _gaussian(spec)
        a = frac_laplacian(f, s).values
        b = frac_laplacian_quadrature(f, s, PERIODIZED).values
        errs.append(np.max(np.abs(a - b)) / np.max(np.abs(a)))
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("s", [0.7, 1.5])
def test_compact_treatment_agrees_at_moderate_order(s):
    spec = GridSpec(n=1, N=1024, L=1.0)
    f = _gaussian(spec)
    a = frac_laplacian(f, s).values
    b = frac_laplacian_quadrature(f, s).values
    assert np.max(np.abs(a - b)) <= 5e-2 * np.max(np.abs(a))


def test_compact_treatment_2d_sanity():
    spec = GridSpec(n=2, N=64, L=1.0)
    f = _gaussian(spec, width_frac=12.0)
    a = frac_laplacian(f, 1.0).values
    b = frac_laplacian_quadrature(f, 1.0).values
    assert np.max(np.abs(a - b)) <= 0.1 * np.max(np.abs(a))


def test_quadrature_of_constant_is_zero_periodized():
    spec = GridSpec(n=1, N=64, L=1.0)
    c = GridFunction(spec, np.full(64, 2.5))
    out = frac_laplacian_quadrature(c, 0.6, PERIODIZED).values
    assert np.max(np.abs(out)) <= 1e-12


def test_singular_rule_improves_on_exclusion():
    spec = GridSpec(n=1, N=256, L=1.0)
    f = _gaussian(spec)
    a = frac_laplacian(f, 1.5).values
    scale = np.max(np.abs(a))
    errs = {}
    for rule in ("exclude", "second-difference-regular"):
        cfg = QuadratureConfig(treat_as_compact=False, singular_rule=rule)
        b = frac_laplacian_quadrature(f, 1.5, cfg).values
        errs[rule] = np.max(np.abs(a - b)) / scale
    assert errs["second-difference-regular"] < errs["exclude"]


def test_tail_bound_reported_not_added():
    spec = GridSpec(n=1, N=128, L=1.0)
    f = _gaussian(spec)
    bound = frac_laplacian_tail_bound(f, 0.5)
    assert bound > 0
    # doubling the data doubles the bound; it is an estimate, not a term
    f2 = GridFunction(spec, 2 * f.values)
    assert frac_laplacian_tail_bound(f2, 0.5) == pytest.approx(2 * bound)
    a = frac_laplacian_quadrature(f, 0.5).values
    b = frac_laplacian_quadrature(f2, 0.5).values
    assert np.max(np.abs(b - 2 * a)) <= 1e-10 * np.max(np.abs(a))


def test_quadrature_rejects_bad_parameters():
    spec = GridSpec(n=1, N=32, L=1.0)
    f = GridFunction(spec, np.zeros(32))
    with pytest.raises(ValueError, match="singular rule"):
        QuadratureConfig(singular_rule="bogus")
    with pytest.raises(ValueError):
        frac_laplacian_quadrature(f, 2.0)
    with pytest.raises(ValueError):
        riesz_potential_quadrature(f, 1.0)


def test_quadratures_refuse_a_singular_rule_that_does_not_apply():
    # a rule that does not apply is refused, not read as "exclude", which
    # puts the periodized Riesz potential 41% off its multiplier at 1-D
    # N=256, s = 0.3 (1.0% with the cell average)
    spec = GridSpec(n=1, N=32, L=1.0)
    f = GridFunction(spec, np.zeros(32))
    cases = [(frac_laplacian_quadrature, "analytic-cell-average",
              ("exclude", "second-difference-regular")),
             (riesz_potential_quadrature, "second-difference-regular",
              ("exclude", "analytic-cell-average"))]
    for quadrature, rule, rules in cases:
        for compact in (True, False):
            cfg = QuadratureConfig(treat_as_compact=compact, singular_rule=rule)
            with pytest.raises(ValueError) as err:
                quadrature(f, 0.5, cfg)
            assert str(err.value) == (f"singular rule {rule!r} does not apply "
                                      f"to this quadrature; use one of {rules}")
        for rule in rules:
            quadrature(f, 0.5, QuadratureConfig(singular_rule=rule))
    with pytest.raises(ValueError, match="does not apply"):
        riesz_potential_quadrature(f, 0.5, PERIODIZED)


def test_hilbert_quadrature_matches_multiplier():
    spec = GridSpec(n=1, N=1024, L=1.0)
    x = coords(spec)[0]
    cos = GridFunction(spec, np.cos(2 * np.pi * 2 * x))
    err_cos = np.max(np.abs(
        hilbert_pv_quadrature(cos).values - riesz_transform(cos, 1).values))
    assert err_cos <= 5e-3
    g = _gaussian(spec)
    hm = riesz_transform(g, 1).values
    hq = hilbert_pv_quadrature(g).values
    assert np.max(np.abs(hq - hm)) <= 1e-2 * np.max(np.abs(hm))


def test_hilbert_quadrature_first_order_convergence():
    errs = []
    for N in (256, 512, 1024):
        spec = GridSpec(n=1, N=N, L=1.0)
        g = _gaussian(spec)
        hm = riesz_transform(g, 1).values
        hq = hilbert_pv_quadrature(g).values
        errs.append(np.max(np.abs(hq - hm)) / np.max(np.abs(hm)))
    assert errs[1] <= 0.6 * errs[0]
    assert errs[2] <= 0.6 * errs[1]


def test_hilbert_quadrature_rejects_2d():
    spec = GridSpec(n=2, N=16, L=1.0)
    f = GridFunction(spec, np.zeros(spec.shape))
    with pytest.raises(ValueError, match="n = 1"):
        hilbert_pv_quadrature(f)


@pytest.mark.parametrize("s", [0.3, 0.5])
def test_potential_quadrature_matches_multiplier(s):
    spec = GridSpec(n=1, N=256, L=1.0)
    f = mean_projected(make_function(TestFunctionDescriptor(
        kind="random-bandlimited", seed=21, max_k=5), spec))[0]
    a = riesz_potential(f, s).values
    cfg = QuadratureConfig(treat_as_compact=False,
                           singular_rule="analytic-cell-average")
    b = riesz_potential_quadrature(f, s, cfg).values
    assert np.max(np.abs(a - b)) <= 2e-2 * np.max(np.abs(a))


def test_compact_potential_positive_kernel():
    spec = GridSpec(n=1, N=128, L=1.0)
    bump = make_function(TestFunctionDescriptor(
        kind="smooth-bump", center=(0.5,), radius=0.1), spec)
    out = riesz_potential_quadrature(bump, 0.5).values
    assert np.all(out >= 0)
    assert np.max(out) > 0


def test_periodized_weights_match_direct_image_sum():
    from fracharm.singular_ops import _offsets, _periodized_weights
    spec = GridSpec(n=1, N=32, L=1.0)
    offsets, _ = _offsets(spec)
    power = -1.5
    w = _periodized_weights(spec, offsets, power, images=16)
    # brute-force lattice sum plus the analytic tail of the truncated part
    kmax = 200_000
    k = np.arange(-kmax, kmax + 1) * spec.L
    tail = 2 * (kmax * spec.L) ** (power + 1) / (-(power + 1))
    for idx in (1, 5, 16, 31):
        y = (offsets[idx, 0] * spec.h) % spec.L
        d = np.abs(y + k)
        direct = np.sum(np.where(d > 0, d, np.inf) ** power) + tail
        assert w[idx] == pytest.approx(direct, rel=1e-8)


def test_hurwitz_zeta_matches_scipy_and_mpmath():
    from scipy.special import zeta

    from fracharm.singular_ops import _hurwitz_zeta
    # the orders a = 1 + s of the periodized 1-D fractional Laplacian, at q
    # on the N=1024 lattice and near the ends of (0, 1]
    q = np.concatenate([np.arange(1, 1025) / 1024, [1e-9, 1 - 1e-9]])
    for a in (1.0001, 1.05, 1.3, 1.6, 2.0, 2.5, 2.99, 3.0):
        want = zeta(a, q)
        assert np.max(np.abs(_hurwitz_zeta(a, q) - want) / want) <= 2e-15
    mpmath = pytest.importorskip("mpmath")
    q = q[::64]
    with mpmath.workdps(40):
        for a in (1.05, 1.3, 2.0, 2.7, 2.99):
            want = np.array([float(mpmath.zeta(a, mpmath.mpf(x))) for x in q])
            assert np.max(np.abs(_hurwitz_zeta(a, q) - want) / want) <= 1e-15


def _periodized_weights_2d_loop(spec, offsets, power, images):
    """Chunked image sum over all (offset, image) pairs, with the disc
    remainder for power < -2: the oracle of the 2-D _periodized_weights."""
    L = spec.L
    k1 = np.arange(-images, images + 1) * L
    KX, KY = np.meshgrid(k1, k1, indexing="ij")
    kx, ky = KX.ravel(), KY.ravel()
    y = (offsets * spec.h) % L
    w = np.zeros(len(offsets))
    chunk = 2048
    for lo in range(0, len(offsets), chunk):
        dx = y[lo:lo + chunk, 0:1] + kx[None, :]
        dy = y[lo:lo + chunk, 1:2] + ky[None, :]
        d = np.sqrt(dx**2 + dy**2)
        with np.errstate(divide="ignore"):
            w[lo:lo + chunk] = np.where(d > 0, d**power, 0.0).sum(axis=1)
    if power < -2:
        R = (2 * images + 1) * L / math.sqrt(np.pi)
        w = w + 2 * np.pi * R ** (power + 2) / (-(power + 2))
    return w


@pytest.mark.parametrize("N,power,images", [
    (16, -2.3, 16), (64, -2.3, 16), (64, -3.5, 16), (64, -1.5, 12),
    (32, -2.7, 5)])
def test_periodized_weights_2d_equal_chunked_image_sum(N, power, images):
    spec = GridSpec(n=2, N=N, L=1.0)
    offsets, _ = _offsets(spec)
    assert np.array_equal(
        _periodized_weights(spec, offsets, power, images),
        _periodized_weights_2d_loop(spec, offsets, power, images))


def _circulant_direct(spec, v, w):
    """Roll-loop oracle for sum_y w(y) v(x - y), with w in _offsets order,
    summed in the dtype of v and w."""
    offsets, _ = _offsets(spec)
    acc = np.zeros(spec.shape, np.result_type(v, w))
    for off, wy in zip(offsets, np.ravel(w)):
        if wy != 0:
            acc += np.roll(v, list(off), axis=tuple(range(spec.n))) * wy
    return acc


def _by_roll_loop(monkeypatch, dtype, quadrature, *args):
    """quadrature(*args) with its circulant summed by the roll loop in dtype."""
    with monkeypatch.context() as m:
        m.setattr(singular_ops, "_circulant_apply", lambda spec, v, w:
                  _circulant_direct(spec, np.asarray(v, dtype),
                                    np.asarray(w, dtype)))
        return quadrature(*args).values


def _oracle_inputs(spec):
    noise = np.random.default_rng(5).standard_normal(spec.shape)
    return [_gaussian(spec), GridFunction(spec, noise - noise.mean())]


@needs_extended
@pytest.mark.parametrize("n,N", [(1, 64), (1, 1024), (2, 16), (2, 64)])
def test_quadratures_match_roll_loop(n, N, monkeypatch):
    spec = GridSpec(n=n, N=N, L=1.0)
    # each case runs up to three times; compute its image sums once
    memo = {}

    def memo_weights(spec, offsets, power, images):
        if (power, images) not in memo:
            memo[power, images] = _periodized_weights(spec, offsets, power,
                                                      images)
        return memo[power, images]

    monkeypatch.setattr(singular_ops, "_periodized_weights", memo_weights)
    cases = []
    for f in _oracle_inputs(spec):
        for compact in (True, False):
            for s in (0.3, 0.7, 1.5):
                cases.append((frac_laplacian_quadrature, f, s,
                              QuadratureConfig(treat_as_compact=compact)))
                if s < n:
                    cases.append((riesz_potential_quadrature, f, s, QuadratureConfig(
                        treat_as_compact=compact,
                        singular_rule="analytic-cell-average")))
        if n == 1:
            cases.append((hilbert_pv_quadrature, f))
    for quadrature, *args in cases:
        fast = quadrature(*args).values
        exact = _by_roll_loop(monkeypatch, np.longdouble, quadrature, *args)
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(fast - exact)) <= 1e-13 * scale, (quadrature, args[1:])
        # The float64 loop is held to the same bound where its own rounding
        # allows.  Not for the periodized Riesz potential: its image sum has a
        # large constant part (w ~ 225 +- 4 in 1-D at s = 0.7), which costs
        # that loop up to 1.2e-12 of sup on mean-zero data.  Not for the
        # second-difference kernel either, which carries -2 sum w at the
        # origin; its float64 loop is the pairwise one, tested below.
        periodized_riesz = (quadrature is riesz_potential_quadrature
                            and not args[2].treat_as_compact)
        if quadrature is not frac_laplacian_quadrature and not periodized_riesz:
            loop = _by_roll_loop(monkeypatch, np.float64, quadrature, *args)
            assert np.max(np.abs(fast - loop)) <= 1e-13 * scale, (quadrature, args[1:])


def _second_difference_loop(spec, v, w):
    """sum_{y != 0} w(y) (v(x+y) + v(x-y) - 2 v(x)), one pair of rolls per
    offset, summed in the dtype of v and w."""
    offsets, dist = _offsets(spec)
    axes = tuple(range(spec.n))
    acc = np.zeros(spec.shape, np.result_type(v, w))
    for off, d, wy in zip(offsets, dist, w):
        if d > 0:
            shift = [int(o) for o in off]
            plus = np.roll(v, [-o for o in shift], axis=axes)
            acc += (plus + np.roll(v, shift, axis=axes) - 2 * v) * wy
    return acc


@needs_extended
@pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
def test_frac_laplacian_matches_longdouble_second_difference(n, N):
    # The periodized weights are not even in y, so this checks the folding of
    # the plus/minus pair into one kernel, not just the circulant apply.  The
    # float64 loop (the form the quadrature had before the FFT) is held to the
    # same bound.
    spec = GridSpec(n=n, N=N, L=1.0)
    offsets, _ = _offsets(spec)
    cfg = QuadratureConfig(treat_as_compact=False, singular_rule="exclude")
    for f in _oracle_inputs(spec):
        for s in (0.3, 0.7, 1.5):
            w = _periodized_weights(spec, offsets, -(n + s), images=16)
            scale = -0.5 * frac_laplacian_constant(n, s) * spec.cell_volume
            exact = scale * _second_difference_loop(
                spec, f.values.astype(np.longdouble), w.astype(np.longdouble))
            loop = scale * _second_difference_loop(spec, f.values, w)
            out = frac_laplacian_quadrature(f, s, cfg).values
            sup = np.max(np.abs(exact))
            assert np.max(np.abs(out - exact)) <= 1e-13 * sup
            assert np.max(np.abs(out - loop)) <= 1e-13 * sup


@pytest.mark.parametrize("n,N", [(1, 1024), (2, 16)])
def test_quadratures_make_no_roll_loop(n, N, monkeypatch):
    spec = GridSpec(n=n, N=N, L=1.0)
    f = _oracle_inputs(spec)[1]
    rolls = []
    real_roll = np.roll

    def counting_roll(*args, **kwargs):
        rolls.append(1)
        return real_roll(*args, **kwargs)

    monkeypatch.setattr(np, "roll", counting_roll)
    for compact in (True, False):
        rolls.clear()
        riesz_potential_quadrature(f, 0.5, QuadratureConfig(
            treat_as_compact=compact, singular_rule="analytic-cell-average"))
        assert len(rolls) == 0
        # only the singular-cell second difference rolls, once per direction
        rolls.clear()
        frac_laplacian_quadrature(f, 0.7, QuadratureConfig(treat_as_compact=compact))
        assert len(rolls) <= 2 * n
    if n == 1:
        rolls.clear()
        hilbert_pv_quadrature(f)
        assert len(rolls) == 0
