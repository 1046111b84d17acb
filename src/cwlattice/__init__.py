"""Exact lattice-point censuses for edge ideals of Cameron-Walker graphs.

The package enumerates the achievable (depth, dim) pairs and
(depth, reg, dim, deg h) tuples on n vertices, evaluates their piecewise
closed-form counts in exact integer arithmetic, cross-verifies the two,
checks the structural facts between the sets (one table of named checks,
``CHECKS``, run one at a time by ``check(name, n)``), and realizes
achievable points as explicit graph skeletons.
"""

__version__ = "0.1.0"

from .census import (
    CHECKS,
    CensusRecord,
    CensusReport,
    FAMILY_SETS,
    Failure,
    check,
    run_census,
)
from .errors import (
    ArityMismatchError,
    DomainError,
    EdgeListParseError,
    GraphTooLargeError,
    InternalInconsistencyError,
)
from .formulas import (
    RatioReport,
    ratio_report,
    sandwich_bounds_cwdd,
    size_beta,
    size_c_minus,
    size_c_plus,
    size_cwdd,
    size_cwdd_a,
    size_cwdd_b,
    size_cwdd_c,
    size_ra,
    size_ra_a,
    size_ra_b,
    size_ra_c,
    size_ra_d,
)
from .graphs import (
    CwStructure,
    Graph,
    MAX_BRUTE_FORCE_EDGES,
    RealizationKind,
    RealizationResult,
    build_graph,
    cw_matching_number,
    edge_ideal_generators,
    format_edge_list,
    induced_matching_number,
    is_cameron_walker,
    is_connected,
    is_star,
    is_star_triangle,
    matching_number,
    not_cw_reason,
    parse_edge_list,
    realize,
    structure_vertex_names,
)
from .sets import (
    NamedSet,
    contains,
    enumerate_beta,
    enumerate_c_minus,
    enumerate_c_plus,
    enumerate_cwdd,
    enumerate_cwdd_a,
    enumerate_cwdd_b,
    enumerate_cwdd_c,
    enumerate_ra,
    enumerate_ra_a,
    enumerate_ra_b,
    enumerate_ra_c,
    enumerate_ra_d,
    enumerate_set,
)
