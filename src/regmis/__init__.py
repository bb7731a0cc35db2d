"""regmis: degree-regularizing reductions for maximum independent set.

Transforms bounded-degree graphs into d-regular graphs (and planar graphs
into 5-regular planar graphs) with a machine-checkable certificate
relating the independence numbers, plus exact solvers used as
verification oracles.  Everything else lives in the submodules
(``regmis.graph``, ``regmis.gadgets``, ``regmis.reduction``, ...).
"""

from .graph import Graph, GraphError, InfeasibleError
from .io import parse_graph, serialize_graph
from .reduction import (
    ReductionCertificate,
    forward_map,
    normalize,
    recover,
    reduce_to_regular,
    regularize_planar,
)
from .solvers import (
    ResourceLimitError,
    SolveResult,
    SolverLimits,
    has_clique_k,
    min_vertex_cover,
    solve_mis,
)
from .verify import VerificationReport, check_sandwich, verify_all

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "GraphError",
    "InfeasibleError",
    "ReductionCertificate",
    "ResourceLimitError",
    "SolveResult",
    "SolverLimits",
    "VerificationReport",
    "check_sandwich",
    "forward_map",
    "has_clique_k",
    "min_vertex_cover",
    "normalize",
    "parse_graph",
    "recover",
    "reduce_to_regular",
    "regularize_planar",
    "serialize_graph",
    "solve_mis",
    "verify_all",
]
