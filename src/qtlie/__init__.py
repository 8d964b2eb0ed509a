"""Exact computational algebra for rational quantum tori and their modules."""

from .cyclo import CycloField, CycloNum, make_field, parse_cyclonum
from .matrices import ExactMatrix
from .torus import (
    Monomial,
    TorusSpec,
    canonical_rep,
    class_representatives,
    decompose,
    in_R,
    load_torus,
    make_torus,
    monomial,
    multiply_monomials,
    sigma_hat,
)
from .xmatrix import glN_bracket, span_dimension, verify_product_relation, x_power
from .derivations import (
    DElement,
    WdElement,
    bracket_d,
    bracket_witt,
    deriv,
    deriv_along,
    derivations_to_witt,
    inner,
    is_generic,
    solenoidal_span_check,
    witt,
    witt_along,
)
from .jetalg import (
    JetElement,
    bracket_jets,
    commutator_span_dims,
    filtration_degree,
    gamma_class,
    in_plus_ideal,
    project_quotient,
    xd,
    xt,
)
from .repn import (
    GLdGLNModule,
    GRepresentation,
    GradedOperator,
    GradedSpace,
    commutant,
    decompose_tensor,
    graded_regular_glN,
    is_absolutely_irreducible,
    natural_gld,
    pullback,
    scramble_representation,
    trivial_gld,
    truncated_polynomial_rep,
    verify_representation,
)
from .cuspidal import (
    CuspidalModule,
    OperatorFamily,
    TensorFieldModule,
    build_module,
    coefficients_to_representation,
    extract_coefficients,
    modules_equal,
    verify_module_axioms,
    weight_multiplicities,
)

__version__ = "0.1.0"
