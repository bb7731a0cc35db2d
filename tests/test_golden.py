"""Byte-identity oracle for the reduction pipeline.

Each case pins the SHA-256 of the reduced graph's DIMACS text followed by
the certificate JSON.  A refactor of gadgets or reductions must leave every
digest unchanged; a deliberate change of the output format must update
them and say so.
"""

import hashlib
import random

import pytest

from regmis.graph import Graph, complete_graph
from regmis.io import serialize_graph
from regmis.reduction import reduce_to_regular, regularize, regularize_planar

from conftest import (
    cycle_graph,
    empty_graph,
    grid_with_diagonals,
    path_graph,
    random_graph_max_degree,
    sparse_max_degree_graph,
)

K4_MINUS_EDGE = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
MAX_DEGREE_4 = random_graph_max_degree(random.Random(3), 12, 4)
MEDIUM_MAX_DEGREE_4 = sparse_max_degree_graph(random.Random(11), 2000, 3000, 4)
GRID_12 = grid_with_diagonals(random.Random(12), 12)

CASES = {
    "k4e-regularize-3": (
        lambda: regularize(K4_MINUS_EDGE, 3),
        "ccfb359defafabcff22996dd0102cac9105542e7fd376b038fc4840738f75b0e",
    ),
    "c4-reduce-5": (
        lambda: reduce_to_regular(cycle_graph(4), 5),
        "9a4f9346a04b8da18da5da23f7f17a61e7affe6076d1f951d5a188d7c058c62c",
    ),
    "p3-reduce-5": (
        lambda: reduce_to_regular(path_graph(3), 5),
        "02d4787e63500261cc831030b05a3ca7452cc2b8e84b5b8643c8b3ae98d8e2be",
    ),
    "empty-reduce-3": (
        lambda: reduce_to_regular(empty_graph(0), 3),
        "57c22219c09c0d0da563e64db678431880007fb0d1310f8c3d91cafda7d17837",
    ),
    "max-degree-4-reduce-7": (
        lambda: reduce_to_regular(MAX_DEGREE_4, 7),
        "9e81b1b9daf85fd8a0f7ff91df9b285e6ae1d042d3bd798713498d8335ded609",
    ),
    "k4-planar": (
        lambda: regularize_planar(complete_graph(4)),
        "99d8fd3085606a16999f8f5f65cc27ef17c4100a1a7529455d13f38f5be0f0d2",
    ),
    "medium-max-degree-4-reduce-5": (
        lambda: reduce_to_regular(MEDIUM_MAX_DEGREE_4, 5),
        "9659176558f25597d81ce0e8874052959ce39779ce33003f15b8cb95b074b28f",
    ),
    "grid-12-planar": (
        lambda: regularize_planar(GRID_12),
        "33d0aa64150bdb0f4d62d70fcc4372aeaf863a165d99a117c587bfc8c091d444",
    ),
    "k4-reduce-7": (  # star padding only: one 8-vertex star, 58 gadgets
        lambda: reduce_to_regular(complete_graph(4), 7),
        "4e06c5c3afee623c349da895d3dccfc71ba40c9752a6759c18c51e523971e957",
    ),
    "empty-3-reduce-3": (  # an edgeless source gets K2, then a star with 3 leaves
        lambda: reduce_to_regular(empty_graph(3), 3),
        "777c034b0454ac994d3c66e9f06199d497c9edcb7d80d2c229a02c0ac94b4753",
    ),
}


def test_max_degree_case_is_what_it_says():
    assert MAX_DEGREE_4.max_degree() == 4
    assert MEDIUM_MAX_DEGREE_4.max_degree() == 4
    assert (GRID_12.n, GRID_12.max_degree()) == (144, 5)
    assert GRID_12.m > 2 * 12 * 11  # some diagonals were added


@pytest.mark.parametrize("name", sorted(CASES))
def test_reduction_bytes_are_pinned(name):
    reduce, digest = CASES[name]
    gp, cert = reduce()
    text = serialize_graph(gp, "dimacs-col") + cert.to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
