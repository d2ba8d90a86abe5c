"""fibrecount: desk-scale verification of fibre-counting asymptotics for
conic bundles over hypersurfaces.

The library computes, for a pair of even-degree forms (f1, f2), every
ingredient of the leading constant in the count of hypersurface points
whose fibre conic x0^2 + x1^2 = f1(t) x2^2 has a rational point: exact
box/projective counts, the sums-of-two-squares sieve, Birch exponential
sums, the half-dimensional-sieve arc factor, p-adic densities, the real
density, and the assembled constant by two independent routes.
"""

from .arith import (ArithConstants, DomainError, Factorization,
                    conic_soluble_global, conic_soluble_local, euler_phi,
                    factor, landau_constants, mertens_3mod4,
                    only_1mod4_factors, ramanujan_sum, residue_class_parts)
from .archimedean import (McEstimate, oscillatory_box_integral, real_density,
                          real_density_coarea)
from .blocks import BudgetExceededError
from .constant import (ConstantBreakdown, LocalFactor, error_exponent,
                       leading_constant_series, leading_constant_tamagawa,
                       local_product, predicted_count, route_agreement,
                       singular_series_factored, tamagawa_factor, zeta_direct)
from .counting import (CountRecord, count_soluble_fibre_points,
                       mobius_residual, progression_count, projective_count,
                       two_squares_count)
from .expsums import (TruncatedValue, arc_factor_row, gcd_phase_sum,
                      local_series_odd, local_series_two, singular_series,
                      twisted_two_squares_row)
from .forms import (Form, FormError, Instance, form_from_records,
                    load_instance, parse_instance)
from .padic import LocalDensity, hypersurface_density, soluble_density

__version__ = "0.1.0"
