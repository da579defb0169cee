"""cohomkit: exact finite group cohomology at desk scale.

Smith/Howell linear algebra over Z and Z/L, table groups and their modules,
cohomology with explicit cocycle representatives, Shapiro quasi-inverses and
their compatibility squares, crossed-product central extensions with twisted
connecting maps, and Bogomolov-multiplier computations with an independent
definitional oracle.
"""

from .abelian import (
    AbElement,
    AbHom,
    DualPairing,
    ExteriorSquare,
    FinAbGroup,
    TensorProduct,
    cokernel,
    invariant_factors,
    is_cyclic,
    kernel,
    same_invariants,
    solve_preimage,
)
from .brauer import (
    b0_closed_form,
    b0_closed_form_cp,
    b0_oracle,
    br_nr_bk,
    cyclic_span_detect,
    global_span_membership,
    lambda_map,
    not_supersolvable_probe,
    sha_cyclic,
)
from .cochain import (
    Cochain,
    conjugation_action,
    cup,
    differential,
    shapiro_forward,
    shapiro_inverse_1,
    shapiro_inverse_2,
    sh_prime,
)
from .cohomology import (
    BoundExceeded,
    CohomologyClass,
    CohomologyGroup,
    ShortExactSequence,
    connecting_cochain,
    connecting_map,
    cyclic_cohomology_size,
)
from .crossed import (
    BKDatum,
    CrossedProduct,
    TwistedForm,
    build_bk,
    center_equals_embedded_Z,
    cohomologous_witness,
    delta_twisted_definitional,
    delta_twisted_formula,
    is_nondegenerate,
    q_power_and_relevable,
)
from .groups import (
    CosetSection,
    FiniteGroup,
    GModule,
    LocalizationContext,
    OmegaDecomposition,
    Subgroup,
    VarsigmaDecomposition,
    induced_module,
    named_abelian,
    named_group,
    quotient_group,
)
from .intmat import SmithDecomposition, smith_normal_form
from .nonab import Neutrality, NonabTwoCocycle, is_neutral_bruteforce, neutrality_via_delta
from .squares import ShapiroSquares, verify_shapiro_squares

__version__ = "0.1.0"
