"""Degree-raising gadgets with labeled vertex roles.

Two attachable gadget kinds exist:

* ``general-odd``: for odd target degree Δ, a stack of (Δ-1)/2 complete
  bipartite blocks K_{Δ-1,Δ-1}, one hub per block side, and a single port
  vertex joined to every hub.  Every vertex has degree Δ except the port
  (degree Δ-1); the port carries the attachment edge.
* ``planar5``: two copies of the ``icosa-block`` gadget, the
  icosahedron minus an edge, plus a port joined to the two degree-4
  vertices of each copy.  Planar, and every vertex has degree 5 except the
  port (degree 4), so it attaches at target degree 5 only.  It is built
  from :func:`build_icosa_gadget`, the one place the block's labels become ids.

The builders construct only the graph, the roles, the port and a
canonical port-free maximum independent set; they never run a solver.
Which kinds attach at which target degree, and at what size, is decided
once, by :func:`gadget_size`, before any blueprint is built.
:func:`build_gadget` builds each blueprint once per process, and every
caller shares that immutable build.
Each gadget's independence number is computed exactly by the solvers on
first use and cached per gadget shape, the kind and the delta its builder
records (:func:`_exact_alpha`); the closed form quoted alongside the
construction in the literature overcounts (see :func:`alpha_report`), so
the solver value is authoritative everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Dict, FrozenSet, Optional, Tuple

from .graph import Graph, GraphError
from .solvers import SolverLimits, mis_branch_bound

GENERAL = "general-odd"
PLANAR5 = "planar5"
ICOSA = "icosa-block"


@dataclass(frozen=True)
class GadgetLayout:
    kind: str
    delta: Optional[int]  # target degree for general-odd, else None
    roles: Tuple[str, ...]  # role string per vertex id
    port: Optional[int]
    canonical_mis: FrozenSet[int]  # port-free maximum independent set

    @property
    def internal_alpha(self) -> int:
        """Exact independence number, solved on first use and cached."""
        return _exact_alpha(self.kind, self.delta)


def _require_odd_delta(delta: int) -> None:
    if delta < 3 or delta % 2 == 0:
        raise GraphError(f"gadget target degree must be odd and >= 3, got {delta}")


def gadget_size(kind: str, degree: int) -> int:
    """The vertex count of the ``kind`` gadget attached at target degree
    ``degree``, in closed form; raises where no such gadget attaches:
    ``planar5`` at any degree but 5, ``general-odd`` at an even one or below 3."""
    if kind == PLANAR5 and degree == 5:
        return 25  # two icosahedron-minus-an-edge blocks and the port
    if kind == GENERAL and degree >= 3 and degree % 2:
        return (degree - 1) ** 2 + degree
    raise GraphError(f"no closed-form gadget size for a {kind!r} gadget at degree {degree}")


def build_general_gadget(delta: int) -> Tuple[Graph, GadgetLayout]:
    """Gadget for odd target degree ``delta``.

    Vertex id order: block 1 part A, block 1 part B, block 2 part A, ...,
    then hubs a_1..a_k, b_1..b_k, then the port (last id).  With s = delta - 1
    and k = s/2, part p holds ids p*s..p*s+s-1, side A of block p//2+1 when
    p is even and its side B when odd; hub a_i is id s² + i - 1, hub b_i is
    id s² + k + i - 1 and the port is id s² + s.
    """
    _require_odd_delta(delta)
    s = delta - 1
    k, hubs, port = s // 2, s * s, s * s + s
    parts = [range(p * s, p * s + s) for p in range(s)]
    roles = [f"part_{'ab'[p % 2]}:{p // 2 + 1}:{t}" for p in range(s) for t in range(s)]
    roles += [f"hub_{side}:{i}" for side in "ab" for i in range(1, k + 1)] + ["port"]
    edges = [(u, v) for a, b in zip(parts[::2], parts[1::2]) for u in a for v in b]
    edges += [(hubs + p % 2 * k + p // 2, v) for p, part in enumerate(parts) for v in part]
    edges += [(port, h) for h in range(hubs, port)]
    # constructive witness: all A-part vertices plus all b hubs; port-free
    canonical = frozenset(v for part in parts[::2] for v in part) | frozenset(range(hubs + k, port))
    layout = GadgetLayout(GENERAL, delta, tuple(roles), port, canonical)
    return Graph.from_edges(port + 1, edges), layout


# Icosahedron with the {a, b} edge removed, transcribed label by label.
# a and b have degree 4; every other vertex degree 5; alpha = 4 with the
# unique maximum independent set {a, b, k, f}.
ICOSA_LABELS = "abcdefghijkl"
ICOSA_EDGES_BY_LABEL = (
    "ac", "bc", "de", "ef", "fg", "gh", "hi", "id",
    "bd", "bi", "be", "ia", "ha", "ga", "ec", "fc", "gc",
    "lk", "jk", "jl", "je", "jf", "jd", "lf", "lg", "lh",
    "kh", "ki", "kd",
)
ICOSA_MIS_LABELS = frozenset("abkf")


def build_icosa_gadget() -> Tuple[Graph, GadgetLayout]:
    """The 12-vertex planar block: icosahedron minus one edge."""
    idx = {c: i for i, c in enumerate(ICOSA_LABELS)}
    g = Graph.from_edges(12, [(idx[u], idx[v]) for u, v in ICOSA_EDGES_BY_LABEL])
    layout = GadgetLayout(
        kind=ICOSA,
        delta=None,
        roles=tuple(f"icosa:{c}" for c in ICOSA_LABELS),
        port=None,
        canonical_mis=frozenset(idx[c] for c in ICOSA_MIS_LABELS),
    )
    return g, layout


def build_planar_gadget() -> Tuple[Graph, GadgetLayout]:
    """Planar degree-5 gadget: two icosa blocks, on ids 0..11 and 12..23,
    and the port, id 24, joined to the degree-4 vertices a and b of each."""
    block, icosa = build_icosa_gadget()
    shifts, port = (0, block.n), 2 * block.n
    ab = [icosa.roles.index(f"icosa:{c}") for c in "ab"]
    edges = [(u + s, v + s) for s in shifts for u, v in block.edges()]
    edges += [(port, x + s) for s in shifts for x in ab]
    roles = tuple(r.replace("icosa:", f"icosa{i}:") for i in (1, 2) for r in icosa.roles)
    layout = GadgetLayout(
        kind=PLANAR5,
        delta=None,
        roles=roles + ("port",),
        port=port,
        canonical_mis=frozenset(v + s for s in shifts for v in icosa.canonical_mis),
    )
    return Graph.from_edges(port + 1, edges), layout


def build_gadget(kind: str, delta: Optional[int] = None) -> Tuple[Graph, GadgetLayout]:
    """The ``kind`` gadget for target degree ``delta``, which kinds without
    one ignore; the layout's ``delta`` is what the builder used.  Built
    once per process for each kind and the builder's delta, so
    ``build_gadget(PLANAR5, 5) is build_gadget(PLANAR5)``."""
    if kind not in (GENERAL, PLANAR5, ICOSA):
        raise GraphError(f"unknown gadget kind {kind!r}")
    if kind == GENERAL and delta is None:
        raise GraphError("general gadget needs a target degree")
    return _built(kind, delta if kind == GENERAL else None)


@cache
def _built(kind: str, delta: Optional[int]) -> Tuple[Graph, GadgetLayout]:
    """:func:`build_gadget`'s one build of each (kind, builder's delta)."""
    if kind == GENERAL:
        return build_general_gadget(delta)
    return build_planar_gadget() if kind == PLANAR5 else build_icosa_gadget()


# ---------------------------------------------------------------------------
# independence constants (exact, cached)


@cache
def _exact_alpha(kind: str, delta: Optional[int]) -> int:
    """The exact independence number of the ``kind`` gadget with the
    builder's ``delta`` (a layout's), solved once per gadget shape."""
    return mis_branch_bound(build_gadget(kind, delta)[0], SolverLimits()).alpha


def gadget_alpha(delta: int) -> int:
    """Exact independence number of the general gadget for odd ``delta``."""
    return _exact_alpha(GENERAL, delta)


def planar_gadget_alpha() -> int:
    return _exact_alpha(PLANAR5, None)


def stated_alpha_formula(delta: int) -> int:
    """Closed form quoted for the general gadget's independence number in
    the construction's published analysis.  It disagrees with the exact
    solver (the constructive witness itself is smaller); kept only so
    reports can surface the difference."""
    _require_odd_delta(delta)
    return (delta - 1) ** 2 // 2 + delta - 1


def alpha_report(kind: str, delta: Optional[int] = None) -> Dict[str, object]:
    """Exact alpha next to the published claim, flagging any mismatch; the
    published offset counts 4 per gadget of another kind, one icosahedron
    block's worth."""
    exact = _exact_alpha(kind, delta)
    claimed = stated_alpha_formula(delta) if kind == GENERAL else 4
    return {
        "kind": kind,
        "delta": delta,
        "alpha_exact": exact,
        "alpha_published_claim": claimed,
        "claim_matches_exact": exact == claimed,
    }
