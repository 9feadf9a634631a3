"""Exact-arithmetic graph Lie algebras and their rigidity classification.

Construct the k-step nilpotent Lie algebra of a finite simple graph over
the rationals, compute its slot-two nil-cohomology, search for deformation
witnesses, and classify rigidity, all without floating point.
"""

__version__ = "0.1.0"

from .errors import InternalInvariantError
from .graphs import (
    SimpleGraph,
    canonical_form,
    enumerate_graphs,
    from_graph6,
    parse_graph,
    to_graph6,
)
from .linalg import (
    RatMatrix,
    frac,
    frac_str,
    kernel_basis,
)
from .basis import (
    BasisElement,
    GradedBasis,
    TraceContext,
    clique_polynomial,
    dimension_oracle,
    graded_basis,
    lyndon_words,
    standard_bracketing,
    structure_constants,
)
from .liealg import (
    BasisLabel,
    GradedLieAlgebra,
    LieAlgebra,
    algebra_from_json_dict,
    algebra_to_json_dict,
    center,
    jacobi_report,
    lower_central_series,
)
from .cohomology import (
    CochainCoordinates,
    H2Report,
    delta1_matrix,
    delta2_matrix,
    eta2_matrix,
    h2_nil,
)
from .rigidity import (
    DeformationCocycle,
    DeformedAlgebra,
    RigidityVerdict,
    build_sigma,
    certify_2step_witness,
    certify_graded_witness,
    classify,
    deform_check,
    find_witness,
    sweep,
)
