"""
Numerical harmonic analysis on periodic grids: fractional Laplacians, Riesz
transforms and potentials, Poisson-type extensions to the upper half-space,
function-space functionals, and a commutator-estimate verification harness.
"""

from .commutators import (CATALOG, EstimateDescriptor, RatioReport,
                          crw_commutator, double_commutator_1d, fl_commutator,
                          hardy_duality_check, jacobian_pairing,
                          leibniz_defect, riesz_potential_commutator,
                          standard_family, verify_estimate)
from .extension import (BoundaryTraceResult, ExtensionField, PoissonSymbol,
                        TLevels, boundary_limit_check, decay_profile,
                        extend_field, get_symbol, make_tlevels,
                        s_harmonicity_residual, s_poisson_symbol)
from .grid import (GridFunction, GridSpec, TestFunctionDescriptor,
                   fft_forward, hermitian_asymmetry, make_function,
                   spectral_apply, spectral_gradient)
from .multiplier_ops import (SymbolDescriptor, apply_symbol, frac_laplacian,
                             l2_norm, mean_projected, riesz_potential,
                             riesz_transform)
from .norms import (LorentzExponents, TentFamily, bmo_seminorm, carleson_sup,
                    holder_seminorm, lorentz_norm, lp_norm, maximal_function,
                    slobodeckij_seminorm, space_functional, square_function,
                    tent_pairing_bound_check)
from .singular_ops import (QuadratureConfig, frac_laplacian_constant,
                           frac_laplacian_quadrature, frac_laplacian_tail_bound,
                           hilbert_pv_quadrature, riesz_potential_constant,
                           riesz_potential_quadrature)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
