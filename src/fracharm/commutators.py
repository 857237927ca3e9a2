"""
Commutator expressions and the estimate-verification harness.

The commutator [T, phi]f = T(phi f) - phi T f of a singular operator with a
pointwise multiplier gains from cancellation: its norms are controlled by
weaker norms of phi than either term alone.  This module implements the
commutator expressions, a catalogue of such estimates with admissible
parameter sets, and verify_estimate, which evaluates LHS/RHS ratios over a
deterministic test family, fits the unspecified constant on the even-indexed
half, validates on the odd-indexed half with a x1.5 slack factor, and re-runs
the family under dilations lambda in {1/2, 2} to confirm scale stability.

Riesz potentials only act on mean-negligible data on the torus, so every
potential argument is mean-projected first and the removed mass is recorded
in the report metadata.
"""

from __future__ import annotations

import math
import numbers
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

# extend_field is no longer called here, but perfbench/test_benchmark.py
# checks that the tracer rebinds it in this namespace
from .extension import (PoissonSymbol, TLevels, extend_field,  # noqa: F401
                        _levels, _radial_symbols, make_tlevels)
from .grid import (GridFunction, GridSpec, TestFunctionDescriptor, _per_row,
                   _rows, make_function, spectral_forward, spectral_gradient)
from .multiplier_ops import (frac_laplacian, l2_norm, mean_projected,
                             riesz_potential, riesz_transform)
from .norms import (_SLOBODECKIJ_MAX_N, LorentzExponents, bmo_seminorm,
                    lorentz_norm, lp_norm, slobodeckij_seminorm)
from .singular_ops import riesz_potential_quadrature

_INF = float("inf")


# ---------------------------------------------------------------------------
# Commutator expressions


def crw_commutator(phi: GridFunction, f: GridFunction, j: int = 1) -> GridFunction:
    """[R_j, phi]f = R_j(phi f) - phi R_j f."""
    return riesz_transform(phi * f, j) - phi * riesz_transform(f, j)


def fl_commutator(phi: GridFunction, f: GridFunction, s: float) -> GridFunction:
    """[(-Delta)^{s/2}, phi]f for s in (0, 1)."""
    if not (0 < s < 1):
        raise ValueError(f"order s must lie in (0, 1), got {s}")
    return frac_laplacian(phi * f, s) - phi * frac_laplacian(f, s)


def riesz_potential_commutator(phi: GridFunction, u: GridFunction, s: float,
                               masses: list | None = None) -> GridFunction:
    """[I^s, phi]u = I^s(phi u) - phi I^s u with mean-projected arguments.

    Both potential arguments are projected to mean zero (the torus has no
    Riesz potential of constants); the removed masses are appended to the
    optional masses list.
    """
    pu, m1 = mean_projected(phi * u)
    u0, m2 = mean_projected(u)
    if masses is not None:
        masses.extend([m1, m2])
    return riesz_potential(pu, s) - phi * riesz_potential(u0, s)


def leibniz_defect(f: GridFunction, g: GridFunction, s: float) -> GridFunction:
    """Three-term defect of the fractional Leibniz rule:
    H_s(f,g) = (-Delta)^{s/2}(fg) - (-Delta)^{s/2}f . g - f . (-Delta)^{s/2}g."""
    return _leibniz_terms(f, g, s)[0]


def _leibniz_terms(f: GridFunction, g: GridFunction, s: float):
    """H_s(f,g) of ``leibniz_defect``, with the (-Delta)^{s/2} f and
    (-Delta)^{s/2} g it subtracts, for estimates that norm them too."""
    if not (0 < s <= 1):
        raise ValueError(f"order s must lie in (0, 1], got {s}")
    lap_f, lap_g = frac_laplacian(f, s), frac_laplacian(g, s)
    return frac_laplacian(f * g, s) - lap_f * g - f * lap_g, lap_f, lap_g


def double_commutator_1d(phi: GridFunction, f: GridFunction
                         ) -> tuple[GridFunction, GridFunction]:
    """1-D double-commutator pair built on the Hilbert transform:

    D1 = [H, phi]((-Delta)^{1/2} f) - [H, f]((-Delta)^{1/2} phi)
    D2 = H([H, phi]((-Delta)^{1/2} f) + [H, f]((-Delta)^{1/2} phi))

    D1 is antisymmetric and D2 symmetric in (phi, f).
    """
    if phi.spec.n != 1:
        raise ValueError("double_commutator_1d supports n = 1 only")
    a = crw_commutator(phi, frac_laplacian(f, 1.0), 1)
    b = crw_commutator(f, frac_laplacian(phi, 1.0), 1)
    return a - b, riesz_transform(a + b, 1)


def _integral(spec: GridSpec, values: np.ndarray):
    """Riemann sum h^n sum(values) over the last n axes, one per row."""
    return _per_row(np.sum(_rows(spec, values), axis=-1) * spec.cell_volume)


def jacobian_pairing(phi: GridFunction,
                     u: tuple[GridFunction, GridFunction],
                     method: str = "boundary",
                     levels: TLevels | None = None,
                     details: dict | None = None) -> float:
    """Pairing int phi det(grad u) dx in 2-D, by two routes.

    method "boundary" evaluates the Riemann sum directly with spectral
    gradients.  method "extension" evaluates the equivalent upper-half-space
    integral -int det(grad_3 Phi, grad_3 U1, grad_3 U2) dx dt of the three
    classical (s = 1) extensions, using Stokes' theorem with outward normal
    -e_t on the boundary t = 0; the t-integral is truncated to the level
    range, and the last-level remainder estimate is reported in details.
    The boundary route takes stacks and gives one pairing per row.
    """
    spec = phi.spec
    if spec.n != 2:
        raise ValueError("jacobian_pairing requires n = 2")
    u1, u2 = u
    if u1.spec != spec or u2.spec != spec:
        raise ValueError("all three functions must share the grid")
    if method == "boundary":
        return _boundary_pairing(phi, spectral_gradient(u1),
                                 spectral_gradient(u2))
    if method != "extension":
        raise ValueError(f"method must be 'boundary' or 'extension', got {method!r}")
    levels = levels if levels is not None else make_tlevels(spec)
    ts = levels.ts
    wlog = levels.log_trapezoid_weights()
    per_level = np.zeros(levels.M)
    # the three extensions share one forward transform and one symbol table
    # per level (three extend_field calls would make three of each), and
    # each level is reduced as soon as it exists
    stack = spectral_forward(spec, np.stack([phi.values, u1.values, u2.values]))
    radial = _radial_symbols(spec, PoissonSymbol(1.0), levels, True)
    for i, (dt, dx0, dx1) in enumerate(_levels(spec, stack, radial, ("t", "x"))):
        # columns a, b, c: grad_3 of Phi, U1, U2 as (d/dx_1, d/dx_2, d/dt)
        (a0, b0, c0), (a1, b1, c1), (a2, b2, c2) = dx0, dx1, dt
        det3 = (a0 * (b1 * c2 - b2 * c1)
                - a1 * (b0 * c2 - b2 * c0)
                + a2 * (b0 * c1 - b1 * c0))
        per_level[i] = float(np.sum(det3) * spec.cell_volume)
    peak = float(np.max(np.abs(per_level)))
    tail = abs(per_level[-1])
    if peak > 0 and tail > 1e-6 * peak:
        raise ValueError(
            f"extension integrand has not decayed at t_M: last level "
            f"{tail:.3e} exceeds 1e-6 of peak {peak:.3e}; enlarge t_max"
        )
    total = float(np.sum(wlog * ts * per_level))
    if details is not None:
        details["per_level"] = per_level
        details["t"] = ts
        details["tail_estimate"] = float(wlog[-1] * ts[-1] * tail)
    return -total


def _boundary_pairing(phi: GridFunction, grad1: list[GridFunction],
                      grad2: list[GridFunction]):
    """The boundary route of jacobian_pairing, given the spectral gradients
    of u1 and u2."""
    (a0, a1), (b0, b1) = grad1, grad2
    return _integral(phi.spec, phi.values * (a0.values * b1.values
                                             - a1.values * b0.values))


def hardy_duality_check(phi: GridFunction, f: GridFunction, g: GridFunction,
                        s: float = 0.5, p: float = 2.0, q: float = 2.0) -> float:
    """Ratio |int (-Delta)^{s/2} H_s(phi,f) . g| over
    ||fL^s phi||_(p,q) ||fL^s f||_(p',q') [g]_BMO, conjugate exponents.

    A zero RHS (constant g) gives 0 if the LHS is at most 1e-12 of the
    pairing without cancellation, int |(-Delta)^{s/2} H_s(phi,f) . g|."""
    d = EstimateDescriptor("hardy-duality", {"s": s, "p": p, "q": q})
    integrand, rhs = _hardy_terms((phi, f, g), d.params)
    lhs = abs(_integral(phi.spec, integrand))
    if rhs == 0.0:
        scale = np.sum(np.abs(integrand)) * phi.spec.cell_volume
        return 0.0 if lhs <= 1e-12 * scale else _INF
    return lhs / rhs


# ---------------------------------------------------------------------------
# Estimate catalogue


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)


def _range_ends(text: str, params: dict) -> tuple[float, bool, float, bool]:
    """(lo, lo_closed, hi, hi_closed) of a declared range such as
    "p in (1, inf)", "sigma in [s, 1)", whose end names another parameter,
    or "q > 1", which reaches inf."""
    if " > " in text:
        return float(text.split(" > ")[1]), False, _INF, True
    ends = text.rsplit(" in ", 1)[1]
    lo, hi = (params[e] if e in params else float(e)
              for e in ends[1:-1].split(", "))
    return lo, ends[0] == "[", hi, ends[-1] == "]"


def _exponents(*keys: str) -> dict:
    return {k: f"{k} in (1, inf)" for k in keys}


def _check_chanillo_grid(p: dict, spec: GridSpec) -> None:
    if not _close(1 / p["q"], 1 / p["p"] - p["s"] / spec.n):
        raise ValueError(
            f"chanillo requires 1/q = 1/p - s/n; got p={p['p']}, q={p['q']}, "
            f"s={p['s']}, n={spec.n}")


def _check_jacobian_sobolev_grid(p: dict, spec: GridSpec) -> None:
    # the Slobodeckij double sums of the right-hand side
    if spec.N > (cap := _SLOBODECKIJ_MAX_N[spec.n]):
        raise ValueError(
            f"jacobian-sobolev requires N <= {cap}, got N = {spec.N}")


# ---------------------------------------------------------------------------
# Per-estimate LHS/RHS evaluation


def _eval_crw_bmo(spec, funcs, prm, meta):
    phi, f = funcs
    lhs = lp_norm(crw_commutator(phi, f, 1), prm["p"])
    rhs = bmo_seminorm(phi) * lp_norm(f, prm["p"])
    return lhs, rhs


def _eval_crw_lorentz(spec, funcs, prm, meta):
    phi, f = funcs
    f0, mass = mean_projected(f)
    meta.setdefault("projected_masses", []).extend(np.ravel(mass).tolist())
    lhs = lp_norm(crw_commutator(phi, f0, 1), prm["p"])
    sigma = prm["sigma"]
    pot = f0 if sigma == 0.0 else riesz_potential(f0, sigma)
    deriv = phi if sigma == 0.0 else frac_laplacian(phi, sigma)
    rhs = (lorentz_norm(deriv, LorentzExponents(prm["p1"], prm["q1"]))
           * lorentz_norm(pot, LorentzExponents(prm["p2"], prm["q2"])))
    return lhs, rhs


def _eval_fl_comm(spec, funcs, prm, meta):
    phi, f = funcs
    s, sigma = prm["s"], prm["sigma"]
    f0, mass = mean_projected(f)
    meta.setdefault("projected_masses", []).extend(np.ravel(mass).tolist())
    lhs = lp_norm(fl_commutator(phi, f0, s), prm["p"])
    pot = f0 if sigma == s else riesz_potential(f0, sigma - s)
    rhs = (lp_norm(frac_laplacian(phi, sigma), prm["q1"])
           * lp_norm(pot, prm["q2"]))
    return lhs, rhs


def _eval_chanillo(spec, funcs, prm, meta):
    phi, u = funcs
    s, p, q = prm["s"], prm["p"], prm["q"]
    # The compact model's truncated whole-space kernel realizes the potential
    # on data with nonzero mean, so the commutator stays dilation-covariant
    # for localized inputs; the spectral route would need a mean projection
    # whose constant does not scale with the family.
    c = (riesz_potential_quadrature(phi * u, s)
         - phi * riesz_potential_quadrature(u, s))
    meta.setdefault("input_masses", []).extend(
        np.ravel(_integral(spec, u.values)).tolist())
    lhs = lp_norm(c, q)
    rhs = bmo_seminorm(phi) * lp_norm(u, p)
    return lhs, rhs


def _eval_leibniz_lorentz(spec, funcs, prm, meta):
    phi, f = funcs
    s, sigma = prm["s"], prm["sigma"]
    p = 1 / (1 / prm["p1"] + 1 / prm["p2"])
    q = 1 / (1 / prm["q1"] + 1 / prm["q2"])
    lhs = lorentz_norm(leibniz_defect(phi, f, s), LorentzExponents(p, q))
    rhs = (lorentz_norm(frac_laplacian(phi, sigma),
                        LorentzExponents(prm["p1"], prm["q1"]))
           * lorentz_norm(frac_laplacian(f, s - sigma),
                          LorentzExponents(prm["p2"], prm["q2"])))
    return lhs, rhs


def _eval_leibniz_bmo(spec, funcs, prm, meta):
    phi, f = funcs
    s, p = prm["s"], prm["p"]
    defect, _, lap_f = _leibniz_terms(phi, f, s)
    lhs = lp_norm(defect, p)
    rhs = bmo_seminorm(phi) * lp_norm(lap_f, p)
    return lhs, rhs


def _eval_double_comm(spec, funcs, prm, meta):
    phi, f = funcs
    d1, _ = double_commutator_1d(phi, f)
    lhs = lp_norm(d1, 1.0)
    rhs = (lorentz_norm(frac_laplacian(phi, prm["s1"]),
                        LorentzExponents(prm["p1"], prm["q1"]))
           * lorentz_norm(frac_laplacian(f, prm["s2"]),
                          LorentzExponents(prm["p2"], prm["q2"])))
    return lhs, rhs


def _eval_jacobian_bmo(spec, funcs, prm, meta):
    phi, u1, u2 = funcs
    # each gradient stack is synthesized once, for the pairing and its norm,
    # and dropped before the BMO search
    grads = [spectral_gradient(u1), spectral_gradient(u2)]
    lhs = abs(_boundary_pairing(phi, *grads))
    n1, n2 = (_per_row(np.sqrt(sum(l2_norm(g) ** 2 for g in gj)))
              for gj in grads)
    del grads
    return lhs, bmo_seminorm(phi) * n1 * n2


def _eval_jacobian_sobolev(spec, funcs, prm, meta):
    phi, u1, u2 = funcs
    lhs = abs(jacobian_pairing(phi, (u1, u2), method="boundary"))
    rhs = (slobodeckij_seminorm(phi, prm["s0"], prm["p0"])
           * slobodeckij_seminorm(u1, prm["s1"], prm["p1"])
           * slobodeckij_seminorm(u2, prm["s2"], prm["p2"]))
    return lhs, rhs


def _hardy_terms(funcs, prm):
    """The pairing's integrand (-Delta)^{s/2} H_s(phi,f) . g, and the RHS."""
    phi, f, g = funcs
    s, p, q = prm["s"], prm["p"], prm["q"]
    defect, lap_phi, lap_f = _leibniz_terms(phi, f, s)
    # for p above about 1e16 the conjugate rounds to 1.0; the float above 1
    # is the one nearest 1 + 1/(p - 1)
    pc, qc = max(p / (p - 1), math.nextafter(1.0, 2.0)), q / (q - 1)
    rhs = (lorentz_norm(lap_phi, LorentzExponents(p, q))
           * lorentz_norm(lap_f, LorentzExponents(pc, qc)) * bmo_seminorm(g))
    # last, so the RHS's norms and BMO search do not hold it beside the defect
    return frac_laplacian(defect, s).values * g.values, rhs


def _eval_hardy_duality(spec, funcs, prm, meta):
    integrand, rhs = _hardy_terms(funcs, prm)
    return abs(_integral(spec, integrand)), rhs


# "ranges" give each parameter its interval, as the message that refuses it;
# "relations" pair a message with its predicate.  EstimateDescriptor checks
# every range first, so no relation divides by an inadmissible value.
CATALOG = {
    "crw-bmo": {
        "arity": 2,
        "defaults": {"p": 2.0},
        "ranges": _exponents("p"),
        "evaluate": _eval_crw_bmo,
    },
    "crw-lorentz": {
        "arity": 2,
        "defaults": {"sigma": 0.5, "p": 2.0, "p1": 4.0, "q1": 4.0,
                     "p2": 4.0, "q2": 4.0},
        "ranges": {"sigma": "sigma in [0, 1)",
                   **_exponents("p", "p1", "p2", "q1", "q2")},
        "relations": (
            ("1/p1 + 1/p2 = 1/p",
             lambda p: _close(1 / p["p1"] + 1 / p["p2"], 1 / p["p"])),
            ("1/q1 + 1/q2 = 1/p",
             lambda p: _close(1 / p["q1"] + 1 / p["q2"], 1 / p["p"]))),
        "evaluate": _eval_crw_lorentz,
    },
    "fl-comm-lorentz": {
        "arity": 2,
        "defaults": {"s": 0.5, "sigma": 0.75, "p": 2.0, "q1": 4.0, "q2": 4.0},
        "ranges": {"s": "s in (0, 1)", "sigma": "sigma in [s, 1)",
                   **_exponents("p", "q1", "q2")},
        "relations": (
            ("1/q1 + 1/q2 = 1/p",
             lambda p: _close(1 / p["q1"] + 1 / p["q2"], 1 / p["p"])),),
        "evaluate": _eval_fl_comm,
    },
    "chanillo": {
        "arity": 2,
        "defaults": {"s": 0.5, "p": 4.0 / 3.0, "q": 4.0},
        # 1/q = 1/p - s/n depends on the dimension, so check_grid holds it
        "ranges": {"s": "s in (0, 1)", **_exponents("p"), "q": "q > 1"},
        "evaluate": _eval_chanillo,
        "check_grid": _check_chanillo_grid,
    },
    "leibniz-lorentz": {
        "arity": 2,
        "defaults": {"s": 0.8, "sigma": 0.4, "p1": 4.0, "q1": 4.0,
                     "p2": 4.0, "q2": 4.0},
        "ranges": {"s": "s in (0, 1]", "sigma": "sigma in (0, s)",
                   **_exponents("p1", "p2", "q1", "q2")},
        "relations": (("target p = (1/p1 + 1/p2)^-1 > 1",
                       lambda p: 1 / p["p1"] + 1 / p["p2"] < 1),
                      ("target q = (1/q1 + 1/q2)^-1 >= 1",
                       lambda p: 1 / p["q1"] + 1 / p["q2"] <= 1)),
        "evaluate": _eval_leibniz_lorentz,
    },
    "leibniz-bmo": {
        "arity": 2,
        "defaults": {"s": 0.5, "p": 2.0},
        "ranges": {"s": "s in (0, 1]", **_exponents("p")},
        "evaluate": _eval_leibniz_bmo,
    },
    "double-comm-1d": {
        "arity": 2,
        "defaults": {"s1": 0.5, "s2": 0.5, "p1": 2.0, "q1": 2.0,
                     "p2": 2.0, "q2": 2.0},
        "ranges": {**dict.fromkeys(("s1", "s2"), "s1, s2 in (0, 1)"),
                   **_exponents("p1", "p2", "q1", "q2")},
        "relations": (
            ("s1 + s2 = 1", lambda p: _close(p["s1"] + p["s2"], 1.0)),
            ("1/p1 + 1/p2 = 1",
             lambda p: _close(1 / p["p1"] + 1 / p["p2"], 1.0))),
        "evaluate": _eval_double_comm,
        "dims": (1,),
    },
    "jacobian-bmo": {
        "arity": 3,
        "defaults": {},
        "evaluate": _eval_jacobian_bmo,
        "dims": (2,),
    },
    "jacobian-sobolev": {
        "arity": 3,
        "defaults": {"s0": 2.0 / 3.0, "s1": 2.0 / 3.0, "s2": 2.0 / 3.0,
                     "p0": 3.0, "p1": 3.0, "p2": 3.0},
        "ranges": {**dict.fromkeys(("s0", "s1", "s2"), "each s_i in (0, 1)"),
                   **_exponents("p0", "p1", "p2")},
        "relations": (
            ("s0 + s1 + s2 = 2",
             lambda p: _close(p["s0"] + p["s1"] + p["s2"], 2.0)),
            ("1/p0 + 1/p1 + 1/p2 = 1",
             lambda p: _close(1 / p["p0"] + 1 / p["p1"] + 1 / p["p2"], 1.0))),
        "evaluate": _eval_jacobian_sobolev,
        "check_grid": _check_jacobian_sobolev_grid,
        "dims": (2,),
    },
    "hardy-duality": {
        "arity": 3,
        "defaults": {"s": 0.5, "p": 2.0, "q": 2.0},
        "ranges": {"s": "s in (0, 1]",
                   **dict.fromkeys(("p", "q"), "p, q in (1, inf)")},
        "evaluate": _eval_hardy_duality,
    },
}


@dataclass(frozen=True)
class EstimateDescriptor:
    """An estimate id from the catalogue plus an admissible parameter set."""

    id: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.id not in CATALOG:
            raise ValueError(
                f"unknown estimate id {self.id!r}; known: {sorted(CATALOG)}")
        entry = CATALOG[self.id]
        unknown = set(self.params) - set(entry["defaults"])
        if unknown:
            raise ValueError(
                f"unknown parameters for {self.id}: {sorted(unknown)}")
        for key, value in self.params.items():
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"parameter {key!r} of {self.id} must be a "
                                 f"real number, got {value!r}")
        merged = {**entry["defaults"], **self.params}
        for key, text in entry.get("ranges", {}).items():
            lo, lo_closed, hi, hi_closed = _range_ends(text, merged)
            x = merged[key]
            if not ((lo <= x if lo_closed else lo < x)
                    and (x <= hi if hi_closed else x < hi)):
                raise ValueError(f"{self.id} requires {text}")
        for text, holds in entry.get("relations", ()):
            if not holds(merged):
                raise ValueError(f"{self.id} requires {text}")
        object.__setattr__(self, "params", merged)

    @property
    def arity(self) -> int:
        return CATALOG[self.id]["arity"]

    def check_grid(self, spec: GridSpec) -> None:
        """Raise ValueError if the estimate does not fit the grid."""
        entry = CATALOG[self.id]
        if spec.n not in entry.get("dims", (1, 2)):
            raise ValueError(f"{self.id} requires n in {entry['dims']}, "
                             f"got n = {spec.n}")
        if "check_grid" in entry:
            entry["check_grid"](self.params, spec)


@dataclass(frozen=True)
class RatioReport:
    """Per-family LHS/RHS ratios of one estimate with the fit/validate verdict."""

    estimate_id: str
    samples: tuple
    zero_rhs_samples: tuple
    fitted_constant: float
    validation_max_ratio: float
    max_ratio: float
    dilation_ratios: dict
    dilation_stability: float
    passed: bool
    metadata: dict


# The joint dilations verify_estimate applies, its relative cuts for a zero
# RHS and a zero LHS, and the band limit and baked-in dilate factor of the
# band-limited members of standard_family.
_DILATIONS = (0.5, 2.0)
_ZERO_RHS_TOL = 1e-11
_ZERO_LHS_TOL = 1e-12
_FAMILY_MAX_K = 6
_FAMILY_DILATE = 2.0
# Smallest grid size N on which standard_family and its dilations resolve:
# the top mode max_k * dilate * max(_DILATIONS) must be at most N/2 - 1.
STANDARD_FAMILY_MIN_N = 2 ** math.ceil(math.log2(
    2 * (_FAMILY_MAX_K * _FAMILY_DILATE * max(_DILATIONS) + 1)))


def standard_family(arity: int, spec: GridSpec, n_members: int = 20,
                    seed: int = 1000) -> list[tuple[TestFunctionDescriptor, ...]]:
    """Deterministic family: 10 smooth bumps, 5 gaussians, 5 random
    band-limited members, each sample a tuple of `arity` distinct functions.

    All members carry a baked-in dilate factor 2, so the harness dilations
    lambda in {1/2, 2} keep band-limited modes on the integer lattice.  The
    localized members cluster near the period midpoint, so the lambda = 1/2
    copies (dilated about that midpoint) still fit inside one period and the
    configuration dilation stays faithful to the whole-space one.
    """
    L = spec.L
    out = []
    for i in range(n_members):
        tup = []
        for k in range(arity):
            center = tuple(
                L / 2 + 0.10 * L
                * (2 * ((0.23 + 0.137 * i + 0.311 * k + 0.071 * ax) % 1.0) - 1)
                for ax in range(spec.n))
            if i < 10:
                kw = {"kind": "smooth-bump", "center": center,
                      "radius": (0.14 + 0.008 * i + 0.010 * k) * L}
            elif i < 15:
                kw = {"kind": "gaussian", "center": center,
                      "width": (0.040 + 0.004 * (i - 10) + 0.003 * k) * L}
            else:
                kw = {"kind": "random-bandlimited", "max_k": _FAMILY_MAX_K,
                      "seed": seed + 37 * i + 11 * k}
            tup.append(TestFunctionDescriptor(
                **kw, amplitude=1.0 + 0.2 * k, dilate=_FAMILY_DILATE))
        out.append(tuple(tup))
    return out


def _dilated_about(t: TestFunctionDescriptor, lam: float,
                   spec: GridSpec) -> TestFunctionDescriptor:
    """Dilate a descriptor by lam as part of a joint dilation of a sample.

    Dilating each member about its own reference point would leave the
    inter-function separations unchanged and break the configuration's
    scaling.  Centred members (gaussian, bump) are therefore remapped about
    the period midpoint a, c -> a + (c - a)/lambda, with the translation, a
    displacement, scaled by 1/lambda.  Centre-less members (sine,
    band-limited) are dilated about the origin; on the torus that differs
    from a dilation about the midpoint only by a translation, a symmetry of
    every catalogue estimate.
    """
    kw: dict = {"dilate": t.dilate * lam,
                "translate": tuple(x / lam for x in t.translate)}
    if t.center is not None:
        a = spec.L / 2
        kw["center"] = tuple((a + (c - a) / lam) % spec.L for c in t.center)
    return replace(t, **kw)


# The store of family columns, the descriptors at one argument position, each
# sampled once into a read-only stack and held least-recently-used in 8 MB.
_COLUMN_BYTES = 2**23
_COLUMNS: OrderedDict[tuple, GridFunction] = OrderedDict()


def _column(spec: GridSpec, column: tuple) -> GridFunction:
    """The read-only stack of column's test functions on spec, row i the
    i-th's; a stack over the bound is returned and not held."""
    key = (spec, column)
    if key not in _COLUMNS:
        values = np.empty((len(column),) + spec.shape)
        # a stack within the bound makes room first, so what leaves is freed
        while values.nbytes <= _COLUMN_BYTES < values.nbytes + sum(
                f.values.nbytes for f in _COLUMNS.values()):
            _COLUMNS.popitem(last=False)
        for row, t in zip(values, column):
            row[...] = make_function(t, spec).values
        values.flags.writeable = False
        if values.nbytes > _COLUMN_BYTES:
            return GridFunction(spec, values)
        _COLUMNS[key] = GridFunction(spec, values)
    _COLUMNS.move_to_end(key)
    return _COLUMNS[key]


def _evaluate_family(d: EstimateDescriptor, family, spec: GridSpec,
                     meta: dict):
    """(samples, zeros, lhs_scale): a sample is zero when its RHS is at most
    _ZERO_RHS_TOL times the family's largest RHS; lhs_scale is the family's
    largest LHS.  A family whose every RHS is zero is an ArithmeticError.
    The family is evaluated once, on the store's stack of each argument
    position (sample i is row i); the tests hold a per-sample oracle."""
    for tup in family:
        if len(tup) != d.arity:
            raise ValueError(
                f"estimate {d.id} needs {d.arity} functions per sample, "
                f"got {len(tup)}")
    funcs = tuple(_column(spec, col) for col in zip(*family))
    lhs, rhs = CATALOG[d.id]["evaluate"](spec, funcs, d.params, meta)
    values = list(zip(np.ravel(lhs).tolist(), np.ravel(rhs).tolist()))
    for i, (lhs, rhs) in enumerate(values):
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            raise ArithmeticError(
                f"estimate {d.id} sample {i} produced a non-finite value")
    rhs_scale = max(rhs for _, rhs in values)
    if not rhs_scale > 0:
        raise ArithmeticError(
            f"estimate {d.id}: degenerate family, every sample has a zero "
            f"right-hand side on this grid")
    samples, zeros = [], []
    for i, (lhs, rhs) in enumerate(values):
        if rhs <= _ZERO_RHS_TOL * rhs_scale:
            zeros.append({"index": i, "lhs": lhs, "rhs": rhs})
        else:
            samples.append({"index": i, "lhs": lhs, "rhs": rhs,
                            "ratio": lhs / rhs})
    return samples, zeros, max(lhs for lhs, _ in values)


def verify_estimate(d: EstimateDescriptor, family, spec: GridSpec,
                    slack: float = 1.5) -> RatioReport:
    """Fit/validate verification of one estimate over a test family.

    The constant is fitted as the max ratio over even-indexed samples and
    validated on odd-indexed samples against slack * fitted.  Zero-RHS
    samples (for example constant multipliers), those with an RHS at most
    1e-11 times the family's largest, pass only if their LHS is at most
    1e-12 times the family's largest LHS; both cuts are relative, so they
    hold at any period.  A family whose every RHS is zero raises
    ArithmeticError.  The whole family is re-run at the joint dilations
    lambda in {1/2, 2} and the relative drift of its max ratio is reported
    as dilation_stability.
    """
    if len(family) < 8:
        raise ValueError(f"family must have at least 8 samples, got {len(family)}")
    d.check_grid(spec)
    meta: dict = {"grid": {"n": spec.n, "N": spec.N, "L": spec.L},
                  "slack": slack, "zero_rhs_tol": _ZERO_RHS_TOL,
                  "zero_lhs_tol": _ZERO_LHS_TOL}
    samples, zeros, lhs_scale = _evaluate_family(d, family, spec, meta)
    even = [s["ratio"] for s in samples if s["index"] % 2 == 0]
    odd = [s["ratio"] for s in samples if s["index"] % 2 == 1]
    fitted = max(even) if even else 0.0
    validation_max = max(odd) if odd else 0.0
    max_ratio = max(fitted, validation_max)
    fit_ok = validation_max <= slack * fitted or validation_max == 0.0
    zeros_ok = all(z["lhs"] <= _ZERO_LHS_TOL * lhs_scale for z in zeros)

    dilation_ratios: dict = {}
    stability = 0.0
    for lam in _DILATIONS:
        dil_family = [tuple(_dilated_about(t, lam, spec) for t in tup)
                      for tup in family]
        dsamples, _, _ = _evaluate_family(d, dil_family, spec, {})
        dilation_ratios[lam] = max((s["ratio"] for s in dsamples), default=0.0)
        if max_ratio > 0:
            # stability of the constant estimate: relative drift of the
            # family max ratio under joint dilation
            stability = max(stability,
                            abs(dilation_ratios[lam] / max_ratio - 1.0))
    return RatioReport(
        estimate_id=d.id,
        samples=tuple(samples),
        zero_rhs_samples=tuple(zeros),
        fitted_constant=fitted,
        validation_max_ratio=validation_max,
        max_ratio=max_ratio,
        dilation_ratios=dilation_ratios,
        dilation_stability=stability,
        passed=bool(fit_ok and zeros_ok),
        metadata=meta,
    )
