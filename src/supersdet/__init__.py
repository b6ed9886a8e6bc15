"""supersdet: exact verification of super circle geometry, zeta-regularized
superdeterminants, and the signature genus.

The package is pure exact arithmetic end to end: Gaussian rationals,
finite Grassmann algebras, truncated rational power series and graded
polynomials.  Floating point appears only in numeric cross-checks inside the
test suite.
"""

from .gaussian import GaussianRational, I
from .grassmann import GrassmannElement, even, odd, scalar
from .sections import apply_Q, is_supersymmetric, monomial, section, to_cocycle
from .series import (
    GradedPolynomial,
    TruncatedSeries,
    bernoulli,
    l_polynomials,
    l_series,
    multiplicative_sequence,
    zeta_even,
)
from .superspace import (
    SuperPoint,
    TimeReversal,
    act_time_reversal,
    action_on_fields,
    apply_D,
    descend_check,
    induced_base_map,
    mu_R,
    multiply_r12,
    proj_R,
)
from .linearization import berezin_integrate, expand_linearized_action
from .manifolds import (
    CohomologyModel,
    PontryaginData,
    builtin,
    l_genus,
    load_manifold,
    product_manifold,
    pushforward,
)
from .zeta import (
    BoundaryCondition,
    CurvatureMatrix,
    KineticOperator,
    curvature_to_ph,
    demo_curvature,
    regularized_product_power,
    sdet,
    sdet_formal,
    trace_inv_power,
    zeta_det,
    zeta_pf,
)

__version__ = "0.1.0"
