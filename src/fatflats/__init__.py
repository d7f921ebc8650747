"""Exact-arithmetic toolkit for fat flat subschemes of projective space:
initial degrees of symbolic powers, certified Waldschmidt-constant
bounds, and the classification of non-reduced planar configurations
below 5/2."""

__version__ = "0.1.0"

from .bounds import (  # noqa: F401
    BoundReport,
    LowerBound,
    check_linear_alpha,
    closed_form_star,
    monotone_lower,
    noncontainment_witness,
    upper_bounds,
)
from .classify import Classification, classify  # noqa: F401
from .divisors import (  # noqa: F401
    ComponentClass,
    DivisorClass,
    NefCertificate,
    intersect,
    lower_bound,
    validate_component,
    verify_nef,
)
from .interpolation import (  # noqa: F401
    AlphaRecord,
    Form,
    ProductWitness,
    alpha_symbolic,
    alpha_table,
    form_product,
    membership,
    multiply_forms,
)
from .projective import (  # noqa: F401
    LinForm,
    Subspace,
    collinear,
    intersect_hyperplanes,
    random_general_hyperplanes,
    subspace_contains,
)
from .schemes import (  # noqa: F401
    FatComponent,
    FatFlatScheme,
    FatPointsP2,
    StarData,
    build_fat_flat,
    build_quasi_star,
    build_rational_target,
    build_theorem_a,
    build_theorem_b_family,
    scale_multiplicities,
    star_configuration,
    symbolic_multiplicities,
)
