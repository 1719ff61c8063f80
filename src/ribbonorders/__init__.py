"""Complete gentle quivers, ribbon graph orders and Brauer graph algebras.

Exact combinatorics and linear algebra: successor permutations, ribbon
graphs with cyclic orders, polarizations and their involutions, the
canonical basis and Frobenius form of the order, twisted and untwisted
finite-dimensional quotients, and the six-condition symmetry decision
procedure.
"""

from .corpus import CORPUS_NAMES, corpus, corpus_quiver
from .decide import SymmetryReport, batch, decide
from .fdalg import (
    FdAlgebra,
    SymmetryVerdict,
    build_quotient_algebra,
    check_canonical_bimodule_twist,
    construct_psi_isomorphism,
    is_symmetric_oracle,
    nakayama_involution_bar,
    plain_quotient,
    socle,
    socle_certificate,
)
from .fields import (
    GF2,
    GF3,
    GF5,
    QQ,
    Field,
    FieldSpecError,
    PolyRing,
    PrimeField,
    RationalField,
    parse_field,
)
from .order import (
    CanonicalBasis,
    OrderElement,
    canonical_basis,
    cartan_matrix,
    cartan_rank,
    cartan_report,
    central_element_z,
    check_nu_symmetry,
    frobenius_eval,
    multiply,
    normalize_multiplicity,
    rank_formula_check,
    to_canonical_coordinates,
    verify_theta_psi,
)
from .polarize import (
    Involution,
    Polarization,
    default_polarization,
    enumerate_polarizations,
    find_sigma_stable,
    involution_of,
    quotient_polarization,
)
from .quiver import (
    Cycle,
    GentleQuiver,
    Path,
    QuiverError,
    idempotent_subquiver,
    quiver_isomorphism,
    validate_complete_gentle,
)
from .ribbon import (
    BipartiteCertificate,
    RibbonGraph,
    circular_subgraphs,
    connected_components,
    graph_of_quiver,
    is_bipartite,
    quiver_from_ribbon_graph,
    ribbon_isomorphic,
)
from .specfile import ParsedSpec, SpecFileError, parse_spec, serialize_quiver

__version__ = "0.1.0"
