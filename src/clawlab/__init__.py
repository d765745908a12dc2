"""clawlab: a desk-scale laboratory for entropy solutions of scalar
conservation laws with space-dependent flux f(x, u)."""

from .errors import (BadWindow, BlowUp, CFLViolation, ClawError, ConfigError,
                     EmptyCone, FieldFileError, GridMismatch,
                     LipschitzNonConvergent, MissingTimeLevels, NonFiniteFlux,
                     QuadratureNonConvergent, SampleNearShock, SingularPoint,
                     SupportExceedsDomain, UnknownFlux)
from .flux import (FluxSpec, catalog_lookup, catalog_names, lipschitz_constant,
                   uniform_diffquot_deficit)
from .entropy import (EntropyPair, SmoothEntropy, default_k0_sweep,
                      kruzkov_div, kruzkov_div_deficit, kruzkov_flux,
                      kruzkov_limit_deficit, leibniz_check, make_kruzkov_pair,
                      make_smooth_pair, q_build_ibp, q_build_quadrature,
                      sqrt_entropy)
from .mollifiers import (ConeSpec, Mollifier, TestFunction, bump_test_function,
                         chi_epsilon, contraction_test_function, kernel_cdf,
                         kernel_cdf_quadrature, mollifier_constant,
                         omega_value)
from .grids import (GridField, InitialData, box_data, constant_data, file_data,
                    load_field, riemann_data, sine_data, write_slabs)
from .solver import (SchemeConfig, discrete_entropy_max_violation,
                     exact_riemann_burgers, solve)
from .verifier import (ResidualReport, cone_contraction_profile,
                       doubling_diagnostics, entropy_residual,
                       entropy_residual_sweep, find_smooth_samples,
                       global_contraction_check, jump_threshold, kato_lhs,
                       l1_masses, uniqueness_experiment, write_profile_csv)

__version__ = "0.1.0"
