import gc
import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from fracharm import (GridFunction, GridSpec, LorentzExponents, TLevels,
                      TentFamily, TestFunctionDescriptor, bmo_seminorm,
                      carleson_sup, decay_profile, extend_field,
                      holder_seminorm, l2_norm,
                      lorentz_norm, lp_norm, make_function, make_tlevels,
                      maximal_function, slobodeckij_seminorm, space_functional,
                      square_function, standard_family,
                      spectral_apply, tent_pairing_bound_check)
from fracharm import extension, norms
from grid_helpers import coords, mention_sites


def _ball_sum(spec, values, kernel):
    """Circular convolution sum over the ball at each center; kernel is an
    even indicator on the grid, or a stack of them."""
    axes = tuple(range(-spec.n, 0))
    return spectral_apply(spec, values, np.fft.fftn(kernel, axes=axes))


def _open_ball_sum(spec, values, r):
    """Sum over the open ball {|y| < r} at each center, with the real-FFT
    spectrum of the ball's own indicator."""
    mask = norms._offsets(spec)[1].reshape(spec.shape) < r
    return spectral_apply(spec, values, np.fft.rfftn(mask.astype(float)))


def _bmo_direct(f, tents=None):
    """Mean-oscillation sup summed at every (radius, center) pair by one
    full-grid roll per ball offset, over the closed balls
    {|y| <= r (1 + 1e-12)} of the family: the test oracle of
    ``bmo_seminorm``.  A stack rolls whole and gives one value per row."""
    spec = f.spec
    tents = tents if tents is not None else TentFamily.standard(spec)
    v = f.values
    offsets, dist = norms._offsets(spec)
    axes = tuple(range(-spec.n, 0))
    centers = (...,) + (slice(None, None, tents.center_stride),) * spec.n
    best = np.zeros(v.shape[: v.ndim - spec.n])
    for r in tents.radii:
        inside = dist <= r * (1 + 1e-12)
        kernel = inside.reshape(spec.shape).astype(float)
        cnt = int(np.count_nonzero(inside))
        mean = _ball_sum(spec, v, kernel) / cnt
        osc = np.zeros_like(v)
        for off in offsets[inside]:
            osc += np.abs(np.roll(v, shift=[-int(o) for o in off], axis=axes)
                          - mean)
        osc /= cnt
        best = np.maximum(best, np.max(
            osc[centers].reshape(best.shape + (-1,)), axis=-1))
    return best if v.ndim > spec.n else float(best)


def _bump(spec, radius, center=None, dilate=1.0):
    c = center if center is not None else (spec.L / 2,) * spec.n
    return make_function(TestFunctionDescriptor(
        kind="smooth-bump", center=c, radius=radius, dilate=dilate), spec)


def test_lorentz_exponent_validation():
    with pytest.raises(ValueError, match="primary"):
        LorentzExponents(p=1.0, q=2.0)
    with pytest.raises(ValueError, match="secondary"):
        LorentzExponents(p=2.0, q=0.5)
    with pytest.raises(ValueError):
        LorentzExponents(p=np.inf, q=2.0)


def test_lp_norm_constant_and_inf():
    spec = GridSpec(n=2, N=16, L=2.0)
    c = GridFunction(spec, np.full(spec.shape, 3.0))
    assert lp_norm(c, 4.0) == pytest.approx(3.0 * 2.0 ** (2 / 4), rel=1e-12)
    assert lp_norm(c, np.inf) == 3.0
    with pytest.raises(ValueError):
        lp_norm(c, 0.5)


def test_lorentz_indicator_closed_form():
    # for the indicator of a set of measure m,
    # ||1_E||_{p,q} = (p/q)^{1/q} m^{1/p}
    spec = GridSpec(n=1, N=64, L=1.0)
    vals = np.zeros(64)
    vals[:16] = 1.0  # measure m = 16 h = 0.25
    f = GridFunction(spec, vals)
    m = 0.25
    for p, q in ((2.0, 1.0), (2.0, 2.0), (4.0, 1.5)):
        exact = (p / q) ** (1 / q) * m ** (1 / p)
        assert lorentz_norm(f, LorentzExponents(p, q)) == pytest.approx(
            exact, rel=1e-12)
    # weak norm: sup_t t^{1/p} f*(t) = m^{1/p}
    assert lorentz_norm(f, LorentzExponents(2.0, np.inf)) == pytest.approx(
        np.sqrt(m), rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_lorentz_diagonal_equals_lebesgue(p):
    spec = GridSpec(n=1, N=128, L=1.0)
    rng = np.random.default_rng(0)
    f = GridFunction(spec, rng.standard_normal(128))
    assert lorentz_norm(f, LorentzExponents(p, p)) == pytest.approx(
        lp_norm(f, p), rel=1e-12)


def test_lorentz_rearrangement_invariance():
    spec = GridSpec(n=1, N=64, L=1.0)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(64)
    a = lorentz_norm(GridFunction(spec, v), LorentzExponents(3.0, 1.5))
    b = lorentz_norm(GridFunction(spec, np.sort(v)), LorentzExponents(3.0, 1.5))
    assert a == pytest.approx(b, rel=1e-12)


def test_lorentz_holder_duality_bound():
    # ||f g||_1 <= ||f||_{2,1} ||g||_{2,inf} with constant 1
    spec = GridSpec(n=1, N=128, L=1.0)
    rng = np.random.default_rng(7)
    for _ in range(20):
        f = GridFunction(spec, rng.standard_normal(128))
        g = GridFunction(spec, rng.standard_normal(128))
        lhs = lp_norm(GridFunction(spec, f.values * g.values), 1.0)
        rhs = (lorentz_norm(f, LorentzExponents(2.0, 1.0))
               * lorentz_norm(g, LorentzExponents(2.0, np.inf)))
        assert lhs <= rhs * (1 + 1e-12)


_EXPONENTS = (1 + 2**-52, 2.0, 400.0, 1e300, np.inf)


@pytest.mark.parametrize("p,q", [(p, q) for p in _EXPONENTS
                                 for q in _EXPONENTS  # L^(inf,inf) alone
                                 if math.isfinite(p) or math.isinf(q)])
def test_lorentz_norm_is_finite_positive_and_homogeneous(p, q):
    # f*^q and a step's weight both underflow for large q, and the weights
    # for q/p tiny; summed in the log domain every norm is a positive float
    e = LorentzExponents(p, q)
    for spec in (GridSpec(n=1, N=128, L=1.0), GridSpec(n=2, N=16, L=3.0)):
        v = np.random.default_rng(5).standard_normal(spec.shape)
        a = lorentz_norm(GridFunction(spec, v), e)
        assert math.isfinite(a) and a > 0, (spec.n, p, q, a)
        for c in (3.0, 1e-200, 1e200):
            b = lorentz_norm(GridFunction(spec, c * v), e)
            assert b == pytest.approx(c * a, rel=1e-13), (spec.n, p, q, c)


@pytest.mark.parametrize("p", [p for p in _EXPONENTS if math.isfinite(p)])
@pytest.mark.parametrize("nu", [0.01, 0.5, 0.99])
def test_pair_seminorms_are_finite_positive_and_homogeneous(p, nu):
    # |f(x) - f(y)|^p overflows and the distance weights underflow for large
    # p; summed in the log domain every seminorm is a positive float
    for spec in (GridSpec(n=1, N=128, L=1.0), GridSpec(n=2, N=16, L=3.0)):
        v = np.random.default_rng(5).standard_normal(spec.shape)
        for norm, args in ((slobodeckij_seminorm, (nu, p)),
                           (holder_seminorm, (nu,))):
            a = norm(GridFunction(spec, v), *args)
            assert math.isfinite(a) and a > 0, (norm, spec.n, p, nu, a)
            for c in (3.0, 1e-200, 1e200):
                b = norm(GridFunction(spec, c * v), *args)
                assert b == pytest.approx(c * a, rel=1e-13), (norm, spec.n, c)


@pytest.mark.parametrize("n,N", [(1, 128), (2, 16)])
def test_norms_of_a_stack_are_the_row_norms(n, N):
    # bit for bit, at the exponents of the tests above, on 32 rows (numpy's
    # array pow rounds about 5% of roots differently from its scalar pow);
    # rows 1 and 2 are sorted both ways, and the last is constant, 0 then 3
    cases = ([(lp_norm, (p,)) for p in (1.0, 1.5, 2.0, 3.0, 4.0, np.inf)]
             + [(lorentz_norm, (LorentzExponents(p, q),)) for p, q in
                ((2.0, 1.0), (2.0, 2.0), (4.0, 1.5), (2.0, np.inf),
                 (1.5, 1.5), (3.0, 3.0), (3.0, 1.5), (np.inf, np.inf))]
             + [(l2_norm, ()), (bmo_seminorm, ()),
                (slobodeckij_seminorm, (0.5, 2.0)),
                (slobodeckij_seminorm, (0.3, 1100.0)),
                (holder_seminorm, (0.5,)), (holder_seminorm, (1.0,))])
    spec = GridSpec(n=n, N=N, L=2.0)
    v = np.random.default_rng(11).standard_normal((32,) + spec.shape)
    v[1] = np.sort(v[1], axis=None).reshape(spec.shape)
    v[2] = np.sort(v[2], axis=None)[::-1].reshape(spec.shape)
    for last in (0.0, 3.0):
        v[-1] = last
        stack = GridFunction(spec, v)
        rows = [GridFunction(spec, row) for row in v]
        for norm, args in cases:
            got = norm(stack, *args)
            want = [norm(row, *args) for row in rows]
            assert all(isinstance(w, float) for w in want)
            assert got.shape == (32,)
            assert got.tobytes() == np.array(want).tobytes(), (norm, args)
    assert np.array_equal(stack.mean(), [row.mean() for row in rows])


@pytest.mark.parametrize("nu,p", [(0.3, 2.0), (0.5, 2.0), (0.7, 3.0)])
def test_slobodeckij_dilation_homogeneity(nu, p):
    # shrinking the function and the torus together by lambda rescales the
    # seminorm by exactly lambda^{nu - n/p}; the sampled values coincide,
    # so only the distance weights and cell volumes change
    big = GridSpec(n=1, N=1024, L=1.0)
    small = GridSpec(n=1, N=1024, L=0.5)
    base = _bump(big, radius=0.2)
    half = make_function(TestFunctionDescriptor(
        kind="smooth-bump", center=(0.25,), radius=0.1), small)
    ratio = slobodeckij_seminorm(half, nu, p) / slobodeckij_seminorm(base, nu, p)
    assert ratio == pytest.approx(2.0 ** (nu - 1 / p), rel=1e-10)


def test_slobodeckij_validation():
    spec = GridSpec(n=1, N=32, L=1.0)
    f = GridFunction(spec, np.zeros(32))
    with pytest.raises(ValueError):
        slobodeckij_seminorm(f, 1.2, 2.0)
    with pytest.raises(ValueError):
        slobodeckij_seminorm(f, 0.5, np.inf)
    big = GridSpec(n=2, N=128, L=1.0)
    with pytest.raises(ValueError, match="N <= 96"):
        slobodeckij_seminorm(GridFunction(big, np.zeros(big.shape)), 0.5, 2.0)


def _slobodeckij_roll(f, nu, p):
    """The Gagliardo double sum by one full-grid roll per offset, in units
    of max|f| and h: the test oracle of ``slobodeckij_seminorm``."""
    spec = f.spec
    top = float(np.max(np.abs(f.values)))
    v = f.values / (top if top > 0 else 1.0)
    acc = 0.0
    for off in norms._offsets(spec)[0]:
        d = math.hypot(*off)
        if d == 0.0:
            continue
        diff = np.roll(v, shift=[-int(o) for o in off],
                       axis=tuple(range(spec.n))) - v
        acc += float(np.sum(np.abs(diff) ** p)) * d ** (-(spec.n + nu * p))
    return top * spec.h ** (spec.n / p - nu) * acc ** (1 / p)


def _holder_roll(f, nu):
    """The sup of |f(x) - f(y)| / d(x,y)^nu by one full-grid roll per
    offset: the test oracle of ``holder_seminorm`` for nu < 1."""
    spec = f.spec
    best = 0.0
    for off, d in zip(*norms._offsets(spec)):
        if d == 0.0:
            continue
        diff = np.roll(f.values, shift=[-int(o) for o in off],
                       axis=tuple(range(spec.n))) - f.values
        best = max(best, float(np.max(np.abs(diff))) / d**nu)
    return best


@pytest.mark.parametrize("n,N", [(1, 256), (2, 16), (2, 32)])
def test_pair_seminorms_equal_the_roll_loops(n, N):
    # the pair kernel visits one offset of each +-y pair, in the log domain
    spec = GridSpec(n=n, N=N, L=1.7)
    rows = np.stack([np.random.default_rng(2).standard_normal(spec.shape),
                     _bump(spec, radius=0.4).values])
    stack = GridFunction(spec, rows)
    for nu in (0.3, 0.5, 0.9):
        want = [_holder_roll(GridFunction(spec, v), nu) for v in rows]
        assert holder_seminorm(stack, nu) == pytest.approx(want, rel=1e-13)
        for p in (1.0, 1.5, 2.0, 3.0, 7.5):
            want = [_slobodeckij_roll(GridFunction(spec, v), nu, p)
                    for v in rows]
            assert slobodeckij_seminorm(stack, nu, p) == pytest.approx(
                want, rel=1e-13, abs=0.0), (nu, p)


def test_slobodeckij_of_a_sine_at_large_exponents():
    # 2^p overflowed above p = 1024 and the distance weights underflowed
    # below it; the seminorm tends to the Hoelder seminorm as p grows
    spec = GridSpec(n=1, N=64, L=1.0)
    f = GridFunction(spec, np.sin(2 * np.pi * coords(spec)[0]))
    for p in (900.0, 1100.0):
        value = slobodeckij_seminorm(f, 0.5, p)
        assert math.isfinite(value) and value > 0, (p, value)
    assert slobodeckij_seminorm(f, 0.5, 1e300) == pytest.approx(
        holder_seminorm(f, 0.5), rel=1e-13)


def test_one_pair_loop_in_norms():
    # the Slobodeckij and Hoelder seminorms share the one loop over offsets
    rolls = {site for site in mention_sites({"roll"}) if site[0] == "norms"}
    assert rolls == {("norms", "_pair_seminorm")}


def test_bmo_of_constant_is_zero_and_bounded_by_sup():
    spec = GridSpec(n=1, N=64, L=1.0)
    assert bmo_seminorm(GridFunction(spec, np.full(64, 5.0))) <= 1e-14
    rng = np.random.default_rng(1)
    f = GridFunction(spec, rng.standard_normal(64))
    assert bmo_seminorm(f) <= 2 * lp_norm(f, np.inf) + 1e-12


def test_bmo_brute_force_oracle():
    spec = GridSpec(n=1, N=64, L=1.0)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(64)
    f = GridFunction(spec, v)
    tents = TentFamily.standard(spec)
    # direct evaluation: every ball of the family around every center
    d = np.arange(64)
    d = np.where(d >= 32, d - 64, d) * spec.h
    best = 0.0
    for r in tents.radii:
        for c in range(64):
            dist = np.abs(d[(np.arange(64) - c) % 64])
            members = v[dist <= r * (1 + 1e-12)]
            best = max(best, float(np.mean(np.abs(members - members.mean()))))
    assert bmo_seminorm(f, tents) == pytest.approx(best, rel=1e-10)


def _noise(spec, seed):
    """Band-limited noise of a few low modes: many large balls have a
    standard deviation near the top one, so the pruned search evaluates
    hundreds of pairs, many to a gather."""
    return make_function(TestFunctionDescriptor(
        kind="random-bandlimited", seed=seed, max_k=2), spec)


def _bmo_families(spec):
    return [TentFamily.standard(spec),
            TentFamily.standard(spec, center_stride=2),
            TentFamily(spec, radii=(spec.h, 3 * spec.h, 0.21))]


@pytest.mark.parametrize("n,N", [(1, 1024), (2, 64)])
def test_bmo_pruned_equals_direct(n, N):
    # each family's whole member stack in one call of each
    spec = GridSpec(n=n, N=N, L=1.0)
    members = [make_function(desc, spec).values
               for (desc,) in standard_family(1, spec)]
    members += [_noise(spec, seed).values for seed in (4, 5)]
    stack = GridFunction(spec, np.stack(members))
    for tents in _bmo_families(spec):
        assert bmo_seminorm(stack, tents) == pytest.approx(
            _bmo_direct(stack, tents), rel=1e-13, abs=0.0)
    # f^2 exceeds the float range; the bound must still hold
    huge = GridFunction(spec, 1e160 * members[0])
    assert bmo_seminorm(huge) == pytest.approx(_bmo_direct(huge), rel=1e-13)
    zero = GridFunction(spec, np.zeros(spec.shape))
    assert bmo_seminorm(zero) == 0.0
    assert _bmo_direct(zero) == 0.0


@pytest.mark.parametrize("n,N", [(1, 1024), (2, 64)])
def test_bmo_stack_equals_each_row_searched_alone(n, N):
    # at 2-D N=64 the search takes four padded rows at once, so this stack
    # spans three groups, and its repeated rows fall in different ones
    spec = GridSpec(n=n, N=N, L=1.0)
    noise = [_noise(spec, seed).values for seed in (4, 5, 6, 7)]
    bump = _bump(spec, radius=0.15).values
    stack = np.stack([noise[0], np.zeros(spec.shape), bump, 1e160 * noise[1],
                      noise[2], noise[0], noise[3], bump, 3.0 * noise[2]])
    for tents in _bmo_families(spec):
        alone = [norms._bmo_pruned(GridFunction(spec, v), tents)
                 for v in stack]
        assert all(isinstance(a, float) for a in alone)
        assert np.array_equal(
            norms._bmo_pruned(GridFunction(spec, stack), tents), alone)
        norms._BMO_MEMO.clear()
        assert np.array_equal(
            bmo_seminorm(GridFunction(spec, stack), tents), alone)
    # leading axes beyond the first
    grid = GridFunction(spec, stack[:8].reshape((2, 4) + spec.shape))
    assert np.array_equal(bmo_seminorm(grid), np.reshape(
        [bmo_seminorm(GridFunction(spec, v)) for v in stack[:8]], (2, 4)))


def test_bmo_stack_searches_each_distinct_row_once(monkeypatch):
    spec = GridSpec(n=1, N=256, L=1.0)
    a, b = _noise(spec, 4).values, _noise(spec, 5).values
    norms._BMO_MEMO.clear()
    searched = []
    real = norms._bmo_pruned

    def recording(f, tents=None):
        searched.append(len(f.values))
        return real(f, tents)

    monkeypatch.setattr(norms, "_bmo_pruned", recording)
    stack = np.stack([a, b, a, a, b])
    first = bmo_seminorm(GridFunction(spec, stack))
    assert searched == [5] and len(norms._BMO_MEMO) == 1
    assert first[0] == first[2] == first[3] and first[1] == first[4]
    # a stack that hits the memo gathers nothing
    gathered = []
    monkeypatch.setattr(norms, "_oscillations",
                        lambda *args: gathered.append(args))
    again = bmo_seminorm(GridFunction(spec, stack.copy()))
    assert searched == [5] and not gathered
    assert np.array_equal(again, first)


def test_bmo_memo_keys_whole_stacks(monkeypatch):
    spec = GridSpec(n=1, N=256, L=1.0)
    rows = np.stack([_noise(spec, seed).values for seed in range(10, 18)])
    norms._BMO_MEMO.clear()
    first = bmo_seminorm(GridFunction(spec, rows))
    # an equal stack held in another array hits, and gathers nothing
    real = norms._oscillations
    gathered = []
    monkeypatch.setattr(norms, "_oscillations",
                        lambda *args: gathered.append(args))
    again = bmo_seminorm(GridFunction(spec, rows.copy()))
    assert np.array_equal(again, first) and not gathered
    # the result is a copy: editing it leaves the memo as it was
    again[0] = -1.0
    assert np.array_equal(bmo_seminorm(GridFunction(spec, rows)), first)
    assert len(norms._BMO_MEMO) == 1
    monkeypatch.setattr(norms, "_oscillations", real)
    nudged = rows.copy()
    nudged[3, 17] = np.nextafter(nudged[3, 17], np.inf)
    for g, tents in (
            (GridFunction(spec, rows[::-1]), None),
            (GridFunction(spec, nudged), None),
            (GridFunction(spec, rows), TentFamily.standard(spec,
                                                           center_stride=2)),
            (GridFunction(GridSpec(n=1, N=256, L=2.0), rows), None),
            (GridFunction(spec, rows.reshape(2, 4, spec.N)), None)):
        size = len(norms._BMO_MEMO)
        assert np.array_equal(bmo_seminorm(g, tents),
                              norms._bmo_pruned(g, tents))
        assert len(norms._BMO_MEMO) == size + 1
    empty = bmo_seminorm(GridFunction(spec, np.zeros((0, spec.N))))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    one = bmo_seminorm(GridFunction(spec, rows[0]))
    assert isinstance(one, float) and one == first[0]


def test_bmo_gathers_stay_under_the_cell_cap(monkeypatch):
    gathered = []
    real = norms._oscillations

    def recording(padded, ball, centers, means, count):
        rows = np.unique(centers // (2 * spec.N) ** spec.n)
        gathered.append((len(centers), len(centers) * len(ball), len(rows)))
        return real(padded, ball, centers, means, count)

    monkeypatch.setattr(norms, "_oscillations", recording)
    for n, N in ((1, 1024), (2, 64)):
        spec = GridSpec(n=n, N=N, L=1.0)
        f = GridFunction(spec, np.stack([_noise(spec, seed).values
                                         for seed in (4, 5, 6, 7, 8)]))
        for tents in (TentFamily.standard(spec),
                      TentFamily.standard(spec, center_stride=2)):
            # earlier tests searched the same functions; a memo hit gathers
            # nothing
            norms._BMO_MEMO.clear()
            gathered.clear()
            assert bmo_seminorm(f, tents) == pytest.approx(
                _bmo_direct(f, tents), rel=1e-13, abs=0.0)
            assert max(cells for _, cells, _ in gathered) <= norms._GATHER_CELLS
            # candidates are taken many to a gather, not one by one, and
            # from several rows at once
            assert max(centers for centers, _, _ in gathered) > 1
            assert max(rows for _, _, rows in gathered) > 1


def test_bmo_stack_search_holds_one_padded_row_at_2d_128():
    # at 2-D N=128 a padded row fills the cell budget, so a 20-row search
    # holds one row's search at a time; row by row, one search of this stack
    # peaked at 6.64 MiB
    spec = GridSpec(n=2, N=128, L=1.0)
    stack = GridFunction(spec, np.stack([_noise(spec, seed).values
                                         for seed in range(20)]))
    # a first search keeps the ball geometry out of the count
    norms._bmo_pruned(_noise(spec, 20))
    tracemalloc.start()
    try:
        norms._bmo_pruned(stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2**20


@pytest.mark.parametrize("functional", ["bmo", "maximal", "carleson"])
def test_functionals_refuse_a_family_of_another_grid(functional):
    spec = GridSpec(n=1, N=64, L=1.0)
    f = _bump(spec, radius=0.15)
    tents = TentFamily.standard(GridSpec(n=1, N=128, L=1.0))
    call = {"bmo": lambda: bmo_seminorm(f, tents),
            "maximal": lambda: maximal_function(f, tents),
            "carleson": lambda: carleson_sup(
                extend_field(f, 1.0, make_tlevels(spec, M=16)), tents=tents)}
    with pytest.raises(ValueError, match="another grid"):
        call[functional]()


def test_bmo_memo_hits_equal_the_search_and_misses_on_any_change(
        monkeypatch):
    spec = GridSpec(n=1, N=256, L=1.0)
    f = _noise(spec, 9)
    norms._BMO_MEMO.clear()
    first = bmo_seminorm(f)
    # a hit: equal values in another array
    assert bmo_seminorm(GridFunction(spec, f.values.copy())) == first
    assert len(norms._BMO_MEMO) == 1
    assert first == norms._bmo_pruned(f)
    nudged = f.values.copy()
    nudged[17] = np.nextafter(nudged[17], np.inf)
    rescaled = GridSpec(n=1, N=256, L=2.0)
    for g, tents in ((GridFunction(spec, nudged), None),
                     (f, TentFamily.standard(spec, center_stride=2)),
                     (GridFunction(rescaled, f.values), None)):
        size = len(norms._BMO_MEMO)
        assert bmo_seminorm(g, tents) == norms._bmo_pruned(g, tents)
        assert len(norms._BMO_MEMO) == size + 1
    # the memo is a bounded LRU of stacks: a hit refreshes, the oldest goes
    monkeypatch.setattr(norms, "_BMO_MEMO_SIZE", 2)
    norms._BMO_MEMO.clear()
    a, b, c = (GridFunction(spec, np.stack([k * f.values, f.values]))
               for k in (2.0, 3.0, 4.0))
    for g in (a, b, a, c):
        bmo_seminorm(g)
    kept = {key[3] for key in norms._BMO_MEMO}
    assert kept == {hashlib.blake2b(g.values.tobytes(), digest_size=32)
                    .digest() for g in (a, c)}


def test_bmo_monotone_under_family_enrichment():
    spec = GridSpec(n=1, N=128, L=1.0)
    f = _bump(spec, radius=0.15)
    coarse = TentFamily(spec, radii=(spec.h, 8 * spec.h, 0.5))
    fine = TentFamily.standard(spec)
    assert bmo_seminorm(f, coarse) <= bmo_seminorm(f, fine) + 1e-14


def test_holder_seminorm_sine():
    spec = GridSpec(n=1, N=256, L=1.0)
    x = coords(spec)[0]
    f = GridFunction(spec, np.sin(2 * np.pi * 3 * x))
    # nu = 1 is the Lipschitz constant, max |f'| = 2 pi 3
    assert holder_seminorm(f, 1.0) == pytest.approx(6 * np.pi, rel=1e-10)
    # nu < 1: bounded below by any single pair quotient
    h01 = holder_seminorm(f, 0.5)
    pair = abs(f.values[10] - f.values[40]) / (30 * spec.h) ** 0.5
    assert h01 >= pair
    with pytest.raises(ValueError):
        holder_seminorm(f, 1.5)


def test_maximal_function_dominates_and_oracle():
    spec = GridSpec(n=1, N=32, L=1.0)
    rng = np.random.default_rng(9)
    v = rng.standard_normal(32)
    f = GridFunction(spec, v)
    Mf = maximal_function(f).values
    assert np.all(Mf >= np.abs(v) - 1e-14)
    # brute-force oracle over the same dyadic ball family
    tents = TentFamily.standard(spec)
    d = np.arange(32)
    d = np.where(d >= 16, d - 32, d) * spec.h
    expect = np.abs(v).copy()
    for r in tents.radii:
        for c in range(32):
            dist = np.abs(d[(np.arange(32) - c) % 32])
            members = np.abs(v)[dist <= r * (1 + 1e-12)]
            expect[c] = max(expect[c], float(np.mean(members)))
    assert np.max(np.abs(Mf - expect)) <= 1e-10


def test_tent_family_validation():
    spec = GridSpec(n=1, N=32, L=1.0)
    with pytest.raises(ValueError, match="increasing"):
        TentFamily(spec, radii=(0.2, 0.1))
    with pytest.raises(ValueError, match="exceed"):
        TentFamily(spec, radii=(0.7,))
    with pytest.raises(ValueError, match="stride"):
        TentFamily(spec, radii=(0.1,), center_stride=0)


def test_tent_family_rejects_nan_radius_and_fractional_stride():
    # a NaN radius read as the whole-period ball, and a fractional stride
    # failed later in bmo_seminorm with a TypeError
    spec = GridSpec(n=1, N=64, L=1.0)
    with pytest.raises(ValueError, match="positive"):
        TentFamily(spec, radii=(spec.h, math.nan, 0.25))
    with pytest.raises(ValueError, match="positive"):
        TentFamily(spec, radii=(math.nan,))
    with pytest.raises(ValueError, match="center_stride must be an integer"):
        TentFamily(spec, radii=(0.1,), center_stride=1.5)


def test_space_functional_validation():
    spec = GridSpec(n=1, N=64, L=1.0)
    f = _bump(spec, radius=0.2)
    lv = make_tlevels(spec)
    with pytest.raises(ValueError, match="kind"):
        space_functional(f, "sobolev", 0.5, 1.0, 2.0, 2.0, 1.0, lv)
    with pytest.raises(ValueError, match="beta"):
        space_functional(f, "besov", 0.5, 0.4, 2.0, 2.0, 1.0, lv)
    with pytest.raises(ValueError, match="alpha < s"):
        space_functional(f, "besov", 0.9, 1.0, 2.0, 2.0, 0.5, lv,
                         derivative="dt")
    with pytest.raises(ValueError, match="alpha < 1"):
        space_functional(f, "besov", 1.2, 2.0, 2.0, 2.0, 0.5, lv,
                         derivative="dx")


def test_space_functional_refuses_its_arguments():
    spec = GridSpec(n=1, N=64, L=1.0)
    f = _bump(spec, radius=0.2)
    lv = make_tlevels(spec)
    cases = [
        ({"derivative": "dxx"}, "derivative must be one of "
         "('frac-laplacian', 'dt', 'dx'), got 'dxx'"),
        ({"s": 2.5}, "extension order s must lie in (0, 2), got 2.5"),
        ({"p": 0.5}, "exponents must lie in [1, inf], got p=0.5, q=2.0"),
    ]
    for kw, message in cases:
        args = {"alpha": 0.2, "beta": 1.0, "p": 2.0, "q": 2.0, "s": 0.5,
                **kw}
        derivative = args.pop("derivative", "frac-laplacian")
        with pytest.raises(ValueError) as err:
            space_functional(f, "besov", args["alpha"], args["beta"],
                             args["p"], args["q"], args["s"], lv,
                             derivative=derivative)
        assert str(err.value) == message


def test_space_functional_dt_computes_no_harmonicity(monkeypatch):
    # space_functional never computes the residual; only
    # s_harmonicity_residual does
    spec = GridSpec(n=1, N=64, L=1.0)
    f = _bump(spec, radius=0.2)
    lv = make_tlevels(spec)
    calls = []
    monkeypatch.setattr(extension, "_harmonicity",
                        lambda *args: calls.append(args) or 0.0)
    for kind in ("besov", "triebel"):
        space_functional(f, kind, 0.2, 1.0, 2.0, 2.0, 0.5, lv,
                         derivative="dt")
    assert calls == []
    extension.s_harmonicity_residual(extension.extend_field(f, 0.5, lv))
    assert len(calls) == lv.M - 2


def test_space_functional_is_homogeneous_in_amplitude():
    spec = GridSpec(n=1, N=128, L=1.0)
    f = _bump(spec, radius=0.15)
    g = GridFunction(spec, 3.0 * f.values)
    lv = make_tlevels(spec)
    for kind in ("besov", "triebel"):
        a = space_functional(f, kind, 0.4, 1.0, 2.0, 2.0, 1.0, lv)
        b = space_functional(g, kind, 0.4, 1.0, 2.0, 2.0, 1.0, lv)
        assert b == pytest.approx(3.0 * a, rel=1e-10)
        assert a > 0


def test_space_functional_besov_qinf_is_sup_over_levels():
    spec = GridSpec(n=1, N=64, L=1.0)
    f = _bump(spec, radius=0.2)
    lv = make_tlevels(spec)
    v_inf = space_functional(f, "besov", 0.3, 1.0, 2.0, np.inf, 1.0, lv)
    v_2 = space_functional(f, "besov", 0.3, 1.0, 2.0, 2.0, 1.0, lv)
    assert 0 < v_inf
    # the sup is attained by one level of the q = 2 composition
    assert v_inf <= v_2 * np.sqrt(np.sum(lv.log_trapezoid_weights()))


def test_space_functional_besov_at_huge_q_is_near_the_sup():
    # w_t vals_t^q underflowed to 0 for a huge q; in the log domain the sum
    # tends to the sup over the levels
    spec = GridSpec(n=1, N=256, L=1.0)
    f = make_function(TestFunctionDescriptor(
        kind="gaussian", center=(0.5,), width=0.06), spec)
    lv = make_tlevels(spec)
    v_inf = space_functional(f, "besov", 0.3, 1.0, 2.0, np.inf, 1.0, lv)
    v_huge = space_functional(f, "besov", 0.3, 1.0, 2.0, 1e300, 1.0, lv)
    assert math.isfinite(v_huge)
    assert v_huge == pytest.approx(v_inf, rel=1e-3)


@pytest.mark.parametrize("derivative,alpha,beta,field",
                         [("frac-laplacian", 0.3, 0.6, "F"),
                          ("dt", 0.2, 1.0, "dt"), ("dx", 0.4, 1.0, "dx")])
def test_space_functional_streams_only_its_field(derivative, alpha, beta,
                                                 field, monkeypatch):
    spec = GridSpec(n=2, N=32, L=1.0)
    f = _bump(spec, radius=0.2)
    lv = make_tlevels(spec, M=16)
    synthesized = []
    real = np.fft.irfftn

    def counting(*args, **kwargs):
        if args[0].ndim > spec.n:  # not the apply of (-Delta)^{beta/2}
            synthesized.append(args[0].shape[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfftn", counting)
    got = {kind: space_functional(f, kind, alpha, beta, 2.0, 2.0, 0.5, lv,
                                  derivative)
           for kind in ("besov", "triebel")}
    monkeypatch.undo()
    # F and dF/dt are one array per level, dF/dx one per axis
    per_level = spec.n if derivative == "dx" else 1
    assert synthesized == [per_level] * (2 * lv.M)
    # the values of the extend_field route, bit for bit
    g = norms.frac_laplacian(f, beta) if field == "F" else f
    F = extend_field(g, 0.5, lv)
    G = {"F": F.F, "dt": F.dF_dt,
         "dx": np.sqrt(sum(gj**2 for gj in F.dF_dx))}[field]
    ts, wlog = lv.ts, lv.log_trapezoid_weights()
    wt = ts ** ((beta if field == "F" else 1.0) - alpha)
    vals = wt * [lp_norm(GridFunction(spec, Gi), 2.0) for Gi in G]

    def besov(q):  # the log-domain l^q(dt/t) sum of the level norms
        return math.exp(norms._log_lq(np.log(vals) + np.log(wlog) / q, q))

    weighted = (wt.reshape(-1, 1, 1) * np.abs(G)) ** 2.0
    inner = np.tensordot(wlog, weighted, axes=(0, 0)) ** 0.5
    assert got["besov"] == besov(2.0)
    assert got["besov"] == pytest.approx(np.sum(wlog * vals**2.0) ** 0.5,
                                         rel=1e-14)
    assert got["triebel"] == lp_norm(GridFunction(spec, inner), 2.0)
    # q = inf: the sup over the levels of the stacked field, bit for bit
    assert besov(np.inf) == pytest.approx(np.max(vals), rel=1e-14)
    sup_inner = np.max(wt.reshape(-1, 1, 1) * np.abs(G), axis=0)
    for kind, want in (("besov", besov(np.inf)),
                       ("triebel", lp_norm(GridFunction(spec, sup_inner),
                                           2.0))):
        assert space_functional(f, kind, alpha, beta, 2.0, np.inf, 0.5, lv,
                                derivative) == want


_SPACE_CASES = [(derivative, kind, q)
                for derivative in ("frac-laplacian", "dt", "dx")
                for kind in ("besov", "triebel") for q in (2.0, np.inf)]


@pytest.mark.parametrize("derivative,kind,q", _SPACE_CASES)
def test_space_functional_holds_no_stacked_field(derivative, kind, q):
    # space_functional reduces its one field level by level, so it stays
    # within a field of memory, where the stacked route took 2 to 4
    spec = GridSpec(n=2, N=128, L=1.0)
    lv = make_tlevels(spec, M=32)
    one_field = lv.M * spec.N**2 * 8  # one (32, 128, 128) float64 array
    f = make_function(TestFunctionDescriptor(
        kind="gaussian", center=(0.45, 0.55), width=0.06), spec)
    alpha, beta = (0.3, 0.6) if derivative == "frac-laplacian" else (0.2, 1.0)
    args = (f, kind, alpha, beta, 2.0, q, 0.5, lv, derivative)
    # a first run keeps the imports and caches of a first call out of the count
    space_functional(*args)
    tracemalloc.start()
    try:
        space_functional(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= one_field


def test_square_function_littlewood_paley_identity():
    # for s = 1, int_0^inf (t |dF/dt|)^2 dt/t = ||f||_2^2 / 4 mode by mode,
    # so the regular square function with weight 1 satisfies ||S||_2 = ||f||_2/2
    spec = GridSpec(n=1, N=128, L=1.0)
    x = coords(spec)[0]
    f = GridFunction(spec, np.sin(2 * np.pi * 2 * x))
    lv = TLevels(np.geomspace(1e-4, 4.0, 300))
    F = extend_field(f, 1.0, lv)
    S = square_function(F, mode="regular", weight=1.0, selector="dt")
    assert l2_norm(S) == pytest.approx(0.5 * l2_norm(f), rel=2e-3)


def test_square_function_modes_are_comparable():
    spec = GridSpec(n=1, N=64, L=1.0)
    f = _bump(spec, radius=0.2)
    lv = make_tlevels(spec, M=24)
    F = extend_field(f, 0.8, lv)
    reg = l2_norm(square_function(F, "regular", 1.0, "dt"))
    nt = l2_norm(square_function(F, "nontangential", 1.0, "dt"))
    assert reg > 0 and nt > 0
    assert 1 / 4 <= nt / reg <= 4
    with pytest.raises(ValueError, match="mode"):
        square_function(F, "diagonal")


@pytest.mark.parametrize("n,N", [(1, 256), (2, 32)])
def test_regular_square_function_sums_the_levels_in_order(n, N):
    # the levels are summed one at a time in level order, where np.tensordot
    # over the stacked field leaves the order to BLAS: the two agree to
    # rounding, and a dropped level would show
    spec = GridSpec(n=n, N=N, L=1.0)
    lv = make_tlevels(spec, M=32)
    # a nonzero mean, so that the top level (where F is the mean) counts
    f = GridFunction(spec, 1.0 + make_function(TestFunctionDescriptor(
        kind="random-bandlimited", seed=5, max_k=6), spec).values)
    for s in (0.5, 1.5):
        F = extend_field(f, s, lv)
        for weight in (1.0, 0.5):
            for selector in extension._SELECTORS:
                got = square_function(F, "regular", weight, selector).values
                G = _field_stack(F, selector)
                weighted = (lv.ts.reshape((-1,) + (1,) * n) ** weight * G) ** 2
                want = np.sqrt(np.tensordot(lv.log_trapezoid_weights(),
                                            weighted, axes=(0, 0)))
                assert np.all(want > 0)
                assert np.max(np.abs(got - want) / want) <= 1e-15


_READERS = {  # name: (reader, fields it reads, bound in fields)
    "square-dt": (
        lambda F: square_function(F, "regular", 1.0, "dt"), 1, 1.0),
    "square-gradient": (
        lambda F: square_function(F, "regular", 1.0, "gradient"), 1, 1.0),
    "decay-k1": (lambda F: decay_profile(F, k=1), 1, 1.0),
    "nontangential": (
        lambda F: square_function(F, "nontangential", 1.0, "dt"), 1, 0.9),
    "carleson": (carleson_sup, 1, 1.7),
    "tent-pairing": (tent_pairing_bound_check, 2, 1.7),
}


@pytest.mark.parametrize("name", list(_READERS))
def test_extension_readers_hold_no_stacked_field(name):
    # the readers reduce a field level by level: with extend_field they stay
    # within a field of memory, where the stacked route took 2.1 to 7.8.
    # The ball spectra are held only until their last level: the
    # nontangential square function peaks at 0.64 fields and the tents at
    # 1.45, so their bounds are those peaks plus a quarter field
    reader, arity, bound = _READERS[name]
    spec = GridSpec(n=2, N=128, L=1.0)
    lv = make_tlevels(spec, M=32)
    one_field = lv.M * spec.N**2 * 8  # one (32, 128, 128) float64 array
    fs = [make_function(TestFunctionDescriptor(
        kind="gaussian", center=c, width=0.06), spec)
        for c in ((0.45, 0.55), (0.6, 0.4))[:arity]]
    # a first run keeps the imports and caches of a first call out of the count
    reader(*(extend_field(f, 0.5, lv) for f in fs))
    tracemalloc.start()
    try:
        reader(*(extend_field(f, 0.5, lv) for f in fs))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * one_field


def test_carleson_sup_vanishes_for_constants():
    spec = GridSpec(n=1, N=64, L=1.0)
    c = GridFunction(spec, np.full(64, 2.0))
    F = extend_field(c, 0.5, make_tlevels(spec, M=16))
    assert carleson_sup(F) <= 1e-10


def test_carleson_sup_comparable_to_bmo():
    spec = GridSpec(n=1, N=128, L=1.0)
    lv = make_tlevels(spec, M=24)
    ratios = []
    for i, radius in enumerate((0.10, 0.15, 0.22)):
        f = _bump(spec, radius=radius, center=(0.3 + 0.1 * i,))
        F = extend_field(f, 1.0, lv)
        ratios.append(carleson_sup(F) / bmo_seminorm(f))
    ratios = np.array(ratios)
    assert np.all(ratios > 0)
    assert np.max(ratios) / np.min(ratios) <= 3.0


def _field_stack(F, selector):
    """The selected field component of every level, one (M, *grid) array
    built from attribute reads: the materialized route of the readers that
    stream the levels."""
    if selector == "value":
        return F.F
    if selector == "dt":
        return F.dF_dt
    dx2 = sum(g**2 for g in F.dF_dx)
    return np.sqrt(dx2 if selector == "dx" else F.dF_dt**2 + dx2)


def _carleson_per_pair(F, weight, selector, tents):
    """carleson_sup with |G|^2 transformed again for every (radius, level)
    pair: the oracle of its one forward transform per level."""
    spec = F.spec
    G = _field_stack(F, selector)
    ts, wlog = F.levels.ts, F.levels.log_trapezoid_weights()
    g2 = G**2
    best = 0.0
    for r, cnt in zip(tents.radii, norms._ball_geometry(tents).counts):
        measure = cnt * spec.cell_volume
        acc = np.zeros(spec.shape)
        for i, t in enumerate(ts):
            if t >= r:
                continue
            acc += wlog[i] * t ** (1 + weight) * _open_ball_sum(
                spec, g2[i], r - t)
        acc *= spec.cell_volume / measure
        top = float(np.max(acc[(slice(None, None, tents.center_stride),)
                               * spec.n]))
        best = max(best, math.sqrt(max(top, 0.0)))
    return best


@pytest.mark.parametrize("n,N", [(1, 256), (2, 32)])
def test_carleson_sup_transforms_once_and_equals_per_pair_loop(n, N,
                                                              monkeypatch):
    spec = GridSpec(n=n, N=N, L=1.0)
    F = extend_field(_bump(spec, radius=0.2), 0.5, make_tlevels(spec, M=32))
    calls = []
    real = np.fft.rfftn

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", counting)
    ts = F.levels.ts
    dist = norms._offsets(spec)[1]
    for selector, tents in (("gradient", TentFamily.standard(spec)),
                            ("dt", TentFamily.standard(spec, center_stride=2))):
        calls.clear()
        got = carleson_sup(F, 1.0, selector, tents)
        # one transform per level below the largest radius and none above:
        # 24 of 32 levels at 1-D N=256, 22 of 32 at 2-D N=32
        below = int(np.count_nonzero(ts < tents.radii[-1]))
        assert below == {1: 24, 2: 22}[n]
        # and one per distinct ball {|y| < r - t}: 51 of 128 pairs at
        # 1-D N=256, 36 of 80 at 2-D N=32
        balls = [int(np.count_nonzero(dist < r - t))
                 for r in tents.radii for t in ts if t < r]
        assert (len(set(balls)), len(balls)) == {1: (51, 128), 2: (36, 80)}[n]
        assert calls == [spec.shape] * (below + len(set(balls)))
        assert got == _carleson_per_pair(F, 1.0, selector, tents)


def test_carleson_sup_builds_no_ball_geometry():
    # it reads the closed balls' cell counts alone, so an extension-only
    # caller builds none of the BMO's ball spectra and gather offsets
    spec = GridSpec(n=2, N=32, L=1.0)
    F = extend_field(_bump(spec, radius=0.2), 0.5, make_tlevels(spec, M=16))
    tents = TentFamily(spec, radii=(0.07, 0.15, 0.4), center_stride=3)
    before = norms._ball_geometry.cache_info()
    got = carleson_sup(F, 1.0, "gradient", tents)
    assert norms._ball_geometry.cache_info() == before
    assert got == _carleson_per_pair(F, 1.0, "gradient", tents)


def _nontangential_per_level(F, weight, selector):
    """The nontangential square function with the ball indicator of every
    level transformed: the oracle of its one transform per distinct ball."""
    spec = F.spec
    G = _field_stack(F, selector)
    ts, wlog = F.levels.ts, F.levels.log_trapezoid_weights()
    s2 = np.zeros(spec.shape)
    for i, t in enumerate(ts):
        cone = _open_ball_sum(spec, G[i] ** 2, t)
        s2 += wlog[i] * t ** (2 * weight - spec.n) * cone * spec.cell_volume
    return np.sqrt(np.maximum(s2, 0.0))


@pytest.mark.parametrize("n,N", [(1, 256), (2, 32)])
def test_nontangential_square_transforms_each_ball_once(n, N, monkeypatch):
    spec = GridSpec(n=n, N=N, L=1.0)
    F = extend_field(_bump(spec, radius=0.2), 0.5, make_tlevels(spec, M=32))
    calls = []
    real = np.fft.rfftn

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", counting)
    got = square_function(F, "nontangential", 1.0, "gradient").values
    monkeypatch.undo()
    # one transform of |G|^2 per level, and one per distinct ball {|y| < t}
    dist = norms._offsets(spec)[1]
    balls = {int(np.count_nonzero(dist < t)) for t in F.levels.ts}
    assert len(balls) < F.levels.M
    assert calls == [spec.shape] * (F.levels.M + len(balls))
    assert np.array_equal(got, _nontangential_per_level(F, 1.0, "gradient"))
    # a radius equal to a lattice distance leaves that shell out of the
    # open ball, and the spectrum stays that of the ball's own indicator
    shells = np.unique(dist)[:6]
    radii = sorted([*shells[1:], *(shells[1:] + shells[:-1]) / 2])
    (spectra,) = norms._open_ball_spectra(spec, [radii])
    for r, spectrum in zip(radii, spectra):
        mask = dist.reshape(spec.shape) < r
        assert np.array_equal(spectrum, np.fft.rfftn(mask.astype(float)))


def test_ball_spectra_are_held_until_their_last_level(monkeypatch):
    # each distinct ball is transformed at its first level and dropped
    # after its last one, so the spectra held stay those still to be read
    spec = GridSpec(n=1, N=64, L=1.0)
    h = spec.h
    radii_per_level = [[0.5 * h, 2.5 * h], [2.5 * h], [1.5 * h, 2.6 * h],
                       [1.5 * h], [0.6 * h]]
    live = []
    real = norms.spectral_forward

    def tracking(spec_, values):
        out = real(spec_, values)
        live.append(weakref.ref(out))
        return out

    monkeypatch.setattr(norms, "spectral_forward", tracking)
    held = []
    for level in norms._open_ball_spectra(spec, radii_per_level):
        del level
        gc.collect()
        held.append(sum(ref() is not None for ref in live))
    # the balls of 1, 5 and 3 cells (2.5 h and 2.6 h make the same ball,
    # 0.5 h and 0.6 h too), last read at levels 4, 2 and 3
    assert len(live) == 3
    assert held == [2, 2, 3, 2, 1]


def test_tent_pairing_bound_check(monkeypatch):
    spec = GridSpec(n=1, N=64, L=1.0)
    lv = make_tlevels(spec, M=16)
    Phi = extend_field(_bump(spec, radius=0.2), 1.0, lv)
    G = extend_field(make_function(TestFunctionDescriptor(
        kind="random-bandlimited", seed=12, max_k=6), spec), 1.0, lv)
    ratio = tent_pairing_bound_check(Phi, G)
    assert 0 < ratio < 50
    zero = extend_field(GridFunction(spec, np.zeros(64)), 1.0, lv)
    assert tent_pairing_bound_check(zero, G) == 0.0
    other = extend_field(_bump(spec, radius=0.2), 1.0, make_tlevels(spec, M=20))
    with pytest.raises(ValueError, match="same grid"):
        tent_pairing_bound_check(Phi, other)
    # the pairing side alone, with the bound side set to 1, is the sum over
    # the stacked fields bit for bit: for deferred, mixed and held fields
    monkeypatch.setattr(norms, "carleson_sup", lambda *args, **kwargs: 1.0)
    monkeypatch.setattr(norms, "lp_norm", lambda *args: 1.0)
    ts, wlog = lv.ts, lv.log_trapezoid_weights()
    for selector in ("value", "dt", "gradient"):
        lhs = tent_pairing_bound_check(Phi, G, selector, selector)
        P, Q = _field_stack(Phi, selector), _field_stack(G, selector)
        assert lhs == float(sum(
            w * t**2 * np.sum(np.abs(P[i] * Q[i]))
            for i, (t, w) in enumerate(zip(ts, wlog))) * spec.cell_volume)
        assert tent_pairing_bound_check(Phi, G, selector, selector) == lhs
