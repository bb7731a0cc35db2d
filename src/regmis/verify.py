"""Independent re-verification of reduction outputs against certificates.

Gadget blueprints are rebuilt from the kind and the target degree and
compared edge by edge, rather than trusting anything embedded in the
certificate, so a buggy or forged construction cannot vouch for itself.
Structural checks never run a solver on the reduced graph; only the
alpha-relation and port-exclusion checks do.  The gadget-alpha check reads
the cached exact alpha of the one gadget blueprint, and only once the
blocks have matched it.

One model of G' serves every check (:func:`_model`).  G's sorted edges,
the steps, the target degree d and the gadget kind fix it: the padded
edges, one gadget per unit of deficiency in the canonical layout (owners
ascending, ``index`` 1..deficiency, blocks contiguous from ``padded_n``,
the port last), the gadget size and the one blueprint; there is none
unless :func:`~regmis.gadgets.gadget_size` attaches the kind at d
(``planar5`` at 5 only), and it is d-regular iff the blueprint is
(:func:`_regular`).  The gadget list is compared with that layout whole:
only the canonical layout, which every regmis certificate lists, is
accepted.  Untrusted fields are bounded against G' first: a step's end
and edge count before its rows, and the deficiencies' sum, with it the
blocks' vertices and edges, before any list per padded vertex or the
blueprint.

The model's edges are G''s one description, :class:`~regmis.graph.Pieces`,
of its own merge of the padded edges and its port edges (the
constructor's is not shared), blueprint, first block and block count;
the blocks repeat the blueprint and place no port.  :func:`verify_canonical`
matches their text with the file (:func:`~regmis.io.match`) and hashes
it in the same pass, so it builds no G' and its memory is O(|G| +
#gadgets + blueprint).  That text copies each long run of G's edges
between the model's own ports from G's text, so G's edges are rendered
once, for G's content hash, or not at all; the file's length
(:func:`~regmis.io.edge_capacity`) bounds the steps and the layout
before any of their rows are built.  It answers whenever the file is a
d-regular model's text and both hashes match, whatever the certificate's
gadget list says; any other file goes to :func:`verify_edges`.  A G'
with a d-regular model's vertex count and edges needs no degree count
on either path; any other has its degrees counted and each edge that
differs from the pieces placed by its ends, naming the failing checks (:func:`_faults`).
The cost is linear in |V'| + |E'|, in memory that follows |E'|, not a
declared |V'|.

The triangle and planarity checks are derived from that structural result
and the model's one blueprint, and walk neither G nor G' again.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import Counter
from dataclasses import asdict, dataclass
from heapq import merge
from itertools import chain, compress, islice
from operator import attrgetter
from typing import BinaryIO, Callable, Iterable, List, NamedTuple, Optional, Tuple

from . import gadgets
from .graph import (
    Graph,
    GraphError,
    Pieces,
    Row,
    SortedEdges,
    content_digest,
    ends_of,
    is_independent_set,
    triangle_count,
)
from .io import NotCanonical, canonical_header, edge_capacity, match
from .reduction import PARITY_FIX, STAR_PAD, ReductionCertificate, forward_map
from .solvers import ResourceLimitError, SolverLimits, solve_mis

PASS, FAIL, SKIP = "pass", "fail", "skipped"


@dataclass(frozen=True)
class Check:
    name: str
    status: str
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    checks: Tuple[Check, ...]

    @property
    def overall(self) -> str:
        return FAIL if any(c.status == FAIL for c in self.checks) else PASS

    def to_json(self) -> str:
        doc = {"overall": self.overall, "checks": [asdict(c) for c in self.checks]}
        return json.dumps(doc, indent=2) + "\n"


def _check(name: str, ok: bool, detail: str) -> Check:
    return Check(name, PASS if ok else FAIL, detail)


# ---------------------------------------------------------------------------
# the edges and rows G' must have


def _step_rows(kind: str, start: int, size: int) -> List[Row]:
    """A padding step's rows on ids [start, start + size): a clique, or a
    star with its centre first."""
    ids = tuple(range(start, start + size))
    if kind == PARITY_FIX:
        return [ids[:i] + ids[i + 1 :] for i in range(size)]
    return [ids[1:]] + [(start,)] * (size - 1)


def _padded_edges(g: SortedEdges, cert: ReductionCertificate, n: int, m: int) -> Tuple[int, List[int]]:
    """The padded vertex count, and G's edges then each step's, built once
    the step is contiguous, of a known kind, adds at least one vertex (a
    star two), ends inside G' and keeps the steps' edges within |E'|; else raises."""
    count, padding, edges = g.n, [], 0
    for step in cert.steps:
        k = step.size
        if step.start != count:
            raise GraphError("certificate step ranges are not contiguous")
        if step.kind not in (PARITY_FIX, STAR_PAD):
            raise GraphError(f"unknown reduction step kind {step.kind!r}")
        least = 1 if step.kind == PARITY_FIX else 2
        if k < least:
            raise GraphError(f"step {step.kind} adds {k} vertices, fewer than {least}")
        if step.end > n:
            raise GraphError(f"step {step.kind} ends at {step.end}, past |V'|={n}")
        edges += k * (k - 1) // 2 if step.kind == PARITY_FIX else k - 1
        if edges > m:
            raise GraphError(f"padding steps need {edges} edges, more than |E'|={m}")
        padding += ends_of(_step_rows(step.kind, step.start, k), step.start)
        count = step.end
    return count, g.ends + padding if padding else g.ends  # G's own list unless a step follows it


_GADGET_FIELDS = attrgetter("owner", "index", "kind", "delta", "id_offset", "size")
_NO_FAULTS = ([], False, False, -1, -1)  # G' is the model, and the model is d-regular (_regular)


class _Model(NamedTuple):
    """The G' that G, the padded edges, the target degree and the gadget
    kind fix: its edges in G''s one description (``pieces``, which copies
    G's text between the model's own ports), the canonical gadget layout
    as ``_GADGET_FIELDS`` tuples, the blueprint and its layout (empty and
    None without gadgets), and the closed-form gadget size."""

    pieces: Pieces
    layout: List[Tuple[int, int, str, Optional[int], int, int]]
    blueprint: Graph
    gadget: Optional[gadgets.GadgetLayout]
    size: int


def _model(g: SortedEdges, padded: Tuple[int, List[int]], cert: ReductionCertificate, n: int, m: int) -> _Model:
    """The model of a G' of ``n`` vertices and ``m`` edges over G and its
    ``padded`` edges: one gadget per unit of deficiency, owners ascending,
    ``index`` 1..deficiency, blocks contiguous from the padded ids, the port
    last in each.  The deficiencies' sum, and with it the blocks' vertices
    and their internal edges, is bounded by ``n`` and ``m`` before any list
    per padded vertex or the blueprint is built, so a declared vertex count
    costs nothing; raises :class:`GraphError` when there is no such model."""
    d, kind = cert.target_degree, cert.gadget_kind
    size = gadgets.gadget_size(kind, d)
    count, ends = padded
    above, error = f"a padded vertex has degree above {d}", ""
    total = d * count - len(ends)  # the deficiencies' sum, unless a degree is above d
    if total and size * d > 2 * m:
        error = f"a gadget of {size} vertices needs more edges than the reduced graph has"
    elif count + total * size > n:
        error = f"{total} gadgets of {size} vertices do not fit in |V'|={n}"
    elif total * (size * d - 1) > 2 * m:
        error = f"{total} gadgets of {size} vertices need more edges than |E'|={m}"
    if error:  # a degree above d is named first, as the list below would
        raise GraphError(above if max(Counter(ends).values(), default=0) > d else error)
    degree = [0] * count
    for x in ends:
        degree[x] += 1
    deficiency = [d - k for k in degree]
    if min(deficiency, default=0) < 0:
        raise GraphError(above)
    blueprint, gadget = gadgets.build_gadget(kind, d) if total else (Graph(0, ()), None)
    layout, ported, cuts, off, lows = [], [], [0, 0], count, ends[::2]
    for v, k in compress(enumerate(deficiency), deficiency):
        at = 2 * bisect_right(lows, v, cuts[-2] // 2)  # v's edges end here; its ports go next
        ported += ends[cuts[-2] : at]
        for j in range(1, k + 1):
            layout.append((v, j, kind, gadget.delta, off, size))
            ported += v, off + size - 1
            off += size
        cuts += at, len(ported)
    ported += ends[cuts[-2] :]
    return _Model(Pieces(ported, blueprint.adjacency, count, len(layout), g, cuts), layout, blueprint, gadget, size)


def _regular(model: _Model, d: int) -> bool:
    """The model is d-regular: its blueprint, if any, has degree d but at the port, the last id, d - 1."""
    degrees = list(map(len, model.blueprint.adjacency))
    return not degrees or degrees == [d] * (len(degrees) - 1) + [d - 1]


def _faults(
    gp: SortedEdges, d: int, source_n: int, base: Tuple[int, List[int]], model: Optional[_Model]
) -> Tuple[List[int], bool, bool, int, int]:
    """Where a G' other than a d-regular model deviates from it (or from
    ``base``, the padded count and edges, without one): the first vertices
    off degree ``d``, whether an edge differs below ``source_n`` and below
    the padded count, and the last block (by layout place, else -1) with a
    differing edge in it and one leaving it."""
    ends, n = gp.ends, gp.n
    degree = Counter(ends)
    missing = (v for v in range(n) if v not in degree) if d else ()
    irregular = list(islice(merge(sorted(v for v, k in degree.items() if k != d), missing), 5))
    count, reference = base
    origin, padding, block, attachment = n < source_n, n < count, -1, -1
    reference = reference if model is None else list(chain.from_iterable(model.pieces.all_ends()))
    edges = [set(zip(e[::2], e[1::2])) for e in (ends, reference)]
    for u, v in edges[0] ^ edges[1]:
        if v < count:
            origin, padding = origin or v < source_n, True
        elif model is not None:
            i, j = ((x - count) // model.size if count <= x < model.pieces.n else -1 for x in (u, v))
            if i == j:
                block = max(block, i)
            else:
                attachment = max(attachment, i, j)
    return irregular, origin, padding, block, attachment


def _is_model(ends: List[int], model: _Model) -> bool:
    """``ends`` are the model's sorted edges, compared a piece at a time."""
    at = 0
    for piece in model.pieces.all_ends():
        if ends[at : at + len(piece)] != piece:
            return False
        at += len(piece)
    return at == len(ends)


def _block_checks(block: int, attachment: int, model: _Model) -> List[Check]:
    """gadget-blueprints and port-attachment, naming the last failing block (a layout place, or -1)."""
    inside, leaving = "all gadget blocks match their blueprint", "every port attaches to exactly its owner"
    if block >= 0:
        inside = "gadget at {4} (owner {0}) deviates from the blueprint".format(*model.layout[block])
    if attachment >= 0:
        leaving = f"gadget at {model.layout[attachment][4]} does not hang off one port-owner edge to a padded vertex"
    return [_check("gadget-blueprints", block < 0, inside), _check("port-attachment", attachment < 0, leaving)]


def _check_gadget_list(cert: ReductionCertificate, layout: List[tuple]) -> Check:
    """gadget-counts: the certificate's gadget list is the canonical layout,
    compared whole; a difference names the first entry that differs."""
    listed = list(map(_GADGET_FIELDS, cert.gadgets))
    i = next((i for i, (a, b) in enumerate(zip(listed, layout)) if a != b), min(len(listed), len(layout)))
    got, want = (str(e[i]) if i < len(e) else "none" for e in (listed, layout))
    return _check(
        "gadget-counts",
        listed == layout,
        "the gadget list is the canonical layout, degree-deficiency many per vertex"
        if listed == layout
        else f"gadgets[{i}] is {got}, the canonical layout has {want} (owner, index, kind, delta, id_offset, size)",
    )


def _check_gadget_alpha(cert: ReductionCertificate, model: Optional[_Model]) -> Check:
    """``per_gadget_alpha`` equals the exact alpha of the model's gadget.
    ``model`` is None unless G''s blocks passed their check: the cached
    solver runs only on a blueprint that the model bounded and the blocks matched."""
    if model is None:
        return Check("gadget-alpha", SKIP, "gadget blocks did not pass their blueprint check")
    gadget = model.gadget
    if gadget is None:
        return Check("gadget-alpha", PASS, "no gadgets attached")
    exact = gadget.internal_alpha
    return _check(
        "gadget-alpha",
        cert.per_gadget_alpha == exact,
        f"per_gadget_alpha {cert.per_gadget_alpha} vs exact {exact} for {gadget.kind}"
        + (f" at degree {gadget.delta}" if gadget.delta is not None else ""),
    )


_Verdict = Tuple[Tuple[Check, ...], Optional[_Model]]


def check_certificate(g: Graph, g_prime: Graph, cert: ReductionCertificate) -> VerificationReport:
    """Pure-structure verification; no solver runs on either graph."""
    return VerificationReport(_checks(SortedEdges.of(g), SortedEdges.of(g_prime), cert)[0])


def _checks(g: SortedEdges, gp: SortedEdges, cert: ReductionCertificate) -> _Verdict:
    """check_certificate's checks on G and G' as their sorted edges, and their model (None without one)."""
    if cert.source_hash != g.digest:
        raise GraphError("certificate source hash does not match the source graph")
    if cert.result_hash != gp.digest:
        raise GraphError("certificate result hash does not match the reduced graph")
    n, m = gp.n, len(gp.ends) // 2
    padded: Optional[Tuple[int, List[int]]] = None
    model: Optional[_Model] = None
    try:
        padded = _padded_edges(g, cert, n, m)
        model, error = _model(g, padded, cert, n, m), ""
    except GraphError as exc:
        error = str(exc)
    d = cert.target_degree
    same = model is not None and n == model.pieces.n and _regular(model, d) and _is_model(gp.ends, model)
    faults = _NO_FAULTS if same else _faults(gp, d, g.n, padded or (g.n, g.ends), model)
    return _structure(g, cert, n, faults, padded, model, error), model


def _structure(
    g: SortedEdges, cert: ReductionCertificate, n: int, faults: Tuple[List[int], bool, bool, int, int],
    padded: Optional[Tuple[int, List[int]]], model: Optional[_Model], error: str,
) -> Tuple[Check, ...]:
    """check_certificate's checks for a G' of ``n`` vertices that deviates
    from the model as ``faults`` says, given the padded edges and the model
    (each None when it could not be built, and ``error`` why)."""
    d = cert.target_degree
    irregular, origin, padding, block, attachment = faults
    detail = f"all {n} degrees equal {d}" if not irregular else f"vertices {irregular} deviate from degree {d}"
    checks = [_check("regular", not irregular, detail)]

    # originals induce exactly the source graph
    if cert.source_n != g.n:
        same, detail = False, f"source_n {cert.source_n} is not the source graph's {g.n} vertices"
    else:
        same = not origin
        detail = "edges among original vertices " + ("unchanged" if same else "were added or removed")
    checks.append(_check("origin-induced", same, detail))

    # padding steps regenerate the padded prefix, and each step's offset is
    # the alpha of what it adds: 1 for a clique, the leaves of a star
    if padded is None:
        pad_ok, pad_detail = False, error
    else:
        pad_ok, pad_detail = True, "padding steps reconstruct"
        count = padded[0]
        if count != cert.padded_n:
            pad_ok, pad_detail = False, f"padded_n {cert.padded_n} is not |V(G)| plus the steps, {count}"
        for step in cert.steps:
            expected = 1 if step.kind == PARITY_FIX else step.size - 1
            if step.alpha_offset != expected:
                pad_ok, pad_detail = False, f"step {step.kind} has offset {step.alpha_offset}, expected {expected}"
        if pad_ok and padding:
            pad_ok, pad_detail = False, "padded prefix of the reduced graph disagrees with the steps"
    checks.append(_check("padding-steps", pad_ok, pad_detail))

    # G''s gadget blocks, the certificate's gadget list and |V'| against the model
    matched: Optional[_Model] = None
    if model is None:  # skipped without padded rows; else the blueprints and |V'| fail
        status, why = (SKIP, "padded graph unavailable") if padded is None else (FAIL, error)
        checks += [Check("gadget-blueprints", status, why), Check("port-attachment", SKIP, why)]
        checks += [Check("gadget-counts", SKIP, why), Check("size-bound", status, why)]
    else:
        blocks = _block_checks(block, attachment, model)
        matched = model if blocks[0].status == PASS else None
        # vertex count: closed form and the cubic-in-degree blowup bound
        bound, closed = padded[0] * (1 + d * model.size), model.pieces.n
        size_ok = n == closed and n <= bound
        detail = f"|V'|={n}, closed form {closed}, bound {bound}"
        if size_ok:
            detail = f"|V'|={n} equals closed form {closed}, within bound {bound}"
        checks += blocks + [_check_gadget_list(cert, model.layout), _check("size-bound", size_ok, detail)]

    # offset arithmetic, over the model's gadgets whenever there is a model
    gadget_count = len(cert.gadgets if model is None else model.layout)
    expected = sum(s.alpha_offset for s in cert.steps) + gadget_count * cert.per_gadget_alpha
    detail = f"total_offset {cert.total_offset} vs recomputed {expected}"
    checks += [_check("offset-arithmetic", cert.total_offset == expected, detail), _check_gadget_alpha(cert, matched)]
    return tuple(checks)


def check_alpha_relation(
    g: Graph,
    g_prime: Graph,
    cert: ReductionCertificate,
    limits: Optional[SolverLimits] = None,
) -> Check:
    """Solve both sides exactly and compare against the certified offset."""
    limits = limits or SolverLimits()
    try:
        a = solve_mis(g, limits, "auto").alpha if g.n else 0
        a_prime = solve_mis(g_prime, limits, "auto").alpha if g_prime.n else 0
    except ResourceLimitError as exc:
        return Check("alpha-relation", SKIP, f"solver budget exhausted: {exc}")
    ok = a_prime == a + cert.total_offset
    return _check(
        "alpha-relation",
        ok,
        f"alpha'={a_prime}, alpha={a}, offset={cert.total_offset}",
    )


def check_sandwich(
    g: Graph,
    g_prime: Graph,
    cert: ReductionCertificate,
    members: Iterable[int],
) -> Check:
    """Certify alpha of the reduced graph from a claimed-maximum set of the
    source graph, with no solve of the reduced graph.

    The lifted set gives the lower bound |I| + offset.  The matching upper
    bound needs the structural facts re-checked here: gadgets meet the rest
    of the graph only through their ports, so any independent set of the
    reduced graph splits into an independent set of the padded source plus
    one independent set per gadget, each at most the gadget's alpha.  The
    two bounds meet exactly when the supplied set is maximum in the source.
    The structural checks run first, so the lifting only ever builds the
    witness of a gadget shape those checks bounded against the reduced graph.
    """
    s = set(members)
    try:
        if check_certificate(g, g_prime, cert).overall != PASS:
            return Check("sandwich", FAIL, "structural certificate checks failed")
        lifted = forward_map(g, s, cert)
    except GraphError as exc:
        return Check("sandwich", FAIL, str(exc))
    if not is_independent_set(g_prime, lifted):
        return Check("sandwich", FAIL, "lifted set is not independent in the reduced graph")
    certified = len(s) + cert.total_offset
    if len(lifted) != certified:
        return Check("sandwich", FAIL, f"lifted set has {len(lifted)} vertices, expected {certified}")
    return Check(
        "sandwich",
        PASS,
        f"alpha of the reduced graph is {certified}, conditional on the "
        f"supplied size-{len(s)} set being maximum in the source graph",
    )


def _derived_triangles(cert: ReductionCertificate, structure: Callable[[], _Verdict]) -> Check:
    """Triangle preservation from the structural checks and the model that
    ``structure`` returns, called only when the check applies.  Once G' is
    the model, it has the triangles of G, C(k, 3) per parity clique of k
    vertices and the model's blueprint's per gadget (a port-owner bridge
    closes none), so the claim holds iff that blueprint, empty without
    gadgets, is triangle-free."""
    if cert.gadgets and cert.gadget_kind != gadgets.GENERAL:
        return Check("triangle-preservation", SKIP, f"applies to {gadgets.GENERAL} gadgets only")
    try:
        checks, model = structure()
    except GraphError as exc:  # a hash mismatch
        return Check("triangle-preservation", FAIL, str(exc))
    passed = {c.name for c in checks if c.status == PASS}
    if not passed >= {"padding-steps", "gadget-blueprints", "port-attachment", "size-bound"}:
        return Check("triangle-preservation", FAIL, "not derivable: structural checks failed")
    inside = triangle_count(model.blueprint)  # the blueprint checks passed, so there is a model
    cliques = sum(s.size * (s.size - 1) * (s.size - 2) // 6 for s in cert.steps if s.kind == PARITY_FIX)
    return _check(
        "triangle-preservation",
        not inside,
        f"derived: G' has the triangles of G plus {cliques} in parity cliques; no triangle touches a gadget"
        if not inside
        else f"the gadget blueprint for degree {cert.target_degree} has {inside} triangles",
    )


def check_triangle_preservation(
    g: Graph, g_prime: Graph, cert: ReductionCertificate
) -> Check:
    """General gadgets are triangle-free and attachment edges close no
    triangle, so the only new triangles come from parity cliques.  Derived
    from :func:`check_certificate`; a hash mismatch fails the check."""
    return _derived_triangles(cert, lambda: _checks(SortedEdges.of(g), SortedEdges.of(g_prime), cert))


def check_port_exclusion(
    kind: str, delta: Optional[int] = None, limits: Optional[SolverLimits] = None
) -> Check:
    """The best independent set through a gadget's port, m2 = 1 + α(H −
    N[port]), never beats the port-free optimum m1 = α(H − port), so some
    maximum independent set of the gadget H avoids its port; m1 equals
    α(H) whenever the check passes (strictly worse for all but the
    smallest gadget).  H is :func:`~regmis.gadgets.build_gadget`'s one
    build, so in a report it is the model's blueprint."""
    graph, layout = gadgets.build_gadget(kind, delta)
    port = layout.port
    if port is None:
        return Check("port-exclusion", SKIP, f"gadget kind {layout.kind} has no port")
    try:
        m1 = solve_mis(_without(graph, {port}), limits, "bb").alpha
        m2 = 1 + solve_mis(_without(graph, {port, *graph.neighbors(port)}), limits, "bb").alpha
    except ResourceLimitError as exc:
        return Check("port-exclusion", SKIP, f"solver budget exhausted: {exc}")
    if m2 > m1:
        return Check("port-exclusion", FAIL, f"port-free alpha={m1}, best-with-port={m2}: the port is in every maximum set")
    return Check("port-exclusion", PASS, f"alpha={m1}, best-with-port={m2} ({'strict' if m2 < m1 else 'tie'})")


def _without(graph: Graph, drop: set[int]) -> Graph:
    """``graph`` less the vertices ``drop``, the rest renumbered in order."""
    keep = {v: i for i, v in enumerate(v for v in range(graph.n) if v not in drop)}
    return Graph.from_edges(len(keep), ((keep[u], keep[v]) for u, v in graph.edges() if u in keep and v in keep))


def _derived_planarity(n: int, m: int, cert: ReductionCertificate, structure: Callable[[], _Verdict]) -> Check:
    """Euler's bound on a G' of ``n`` vertices and ``m`` edges, and one cut
    edge per gadget as the gadget-blueprints and port-attachment checks
    ``structure`` returns establish.  Necessary conditions only: the source
    graph's planarity is not tested."""
    if cert.gadget_kind != gadgets.PLANAR5:
        return Check("planarity-necessary", SKIP, "not a planar-gadget reduction")
    if n >= 3 and m > 3 * n - 6:
        return Check("planarity-necessary", FAIL, f"m={m} exceeds 3n-6={3 * n - 6}")
    try:
        passed = {c.name for c in structure()[0] if c.status == PASS}
    except GraphError as exc:  # a hash mismatch
        return Check("planarity-necessary", FAIL, str(exc))
    if not passed >= {"gadget-blueprints", "port-attachment"}:
        return Check("planarity-necessary", FAIL, "gadgets are not blueprint blocks on single cut edges")
    return Check(
        "planarity-necessary",
        PASS,
        f"m={m} <= 3n-6={3 * n - 6}; every gadget hangs off one cut edge; source planarity: not certified",
    )


def check_planarity_necessary(g: Graph, g_prime: Graph, cert: ReductionCertificate) -> Check:
    """Euler's necessary condition plus the cut-edge attachment structure
    that preserves planarity of a planar input.  Derived from
    :func:`check_certificate`; a hash mismatch fails the check."""
    structure = lambda: _checks(SortedEdges.of(g), SortedEdges.of(g_prime), cert)  # noqa: E731
    return _derived_planarity(g_prime.n, g_prime.m, cert, structure)


def verify_all(
    g: Graph, g_prime: Graph, cert: ReductionCertificate, with_oracle: bool = False, limits: Optional[SolverLimits] = None
) -> VerificationReport:
    """Run the full check battery; solver-backed checks only with
    ``with_oracle``."""
    return verify_edges(SortedEdges.of(g), SortedEdges.of(g_prime), cert, with_oracle, limits)


def verify_edges(
    g: SortedEdges, g_prime: SortedEdges, cert: ReductionCertificate, with_oracle: bool = False,
    limits: Optional[SolverLimits] = None,
) -> VerificationReport:
    """:func:`verify_all` on G and G' as their sorted edges; their graphs
    are built only for the oracle."""
    graphs = lambda: (g.graph(), g_prime.graph())  # noqa: E731
    return _report(cert, _checks(g, g_prime, cert), g_prime.n, len(g_prime.ends) // 2, graphs, with_oracle, limits)


def _report(
    cert: ReductionCertificate,
    verdict: _Verdict,
    n: int,
    m: int,
    graphs: Callable[[], Tuple[Graph, Graph]],
    with_oracle: bool,
    limits: Optional[SolverLimits],
) -> VerificationReport:
    """The structural checks and their model (``verdict``), then the derived
    and the solver-backed checks, for a G' of ``n`` vertices and ``m``
    edges; ``graphs`` gives G and G' themselves, called only for the oracle."""
    checks = list(verdict[0])
    passed = {c.name for c in checks if c.status == PASS}
    checks.append(_derived_triangles(cert, lambda: verdict))
    checks.append(_derived_planarity(n, m, cert, lambda: verdict))
    if with_oracle:
        checks.append(check_alpha_relation(*graphs(), cert, limits))
        if cert.gadgets and not passed >= {"gadget-blueprints", "gadget-counts"}:
            checks.append(Check("port-exclusion", SKIP, "the gadget blocks or the gadget list failed their check"))
        elif cert.gadgets:  # the blocks copy the model's blueprint, the one build_gadget returns
            checks.append(check_port_exclusion(cert.gadget_kind, cert.target_degree, limits))
    else:
        checks.append(Check("alpha-relation", SKIP, "oracle checks disabled"))
    return VerificationReport(tuple(checks))


# ---------------------------------------------------------------------------
# verification by regeneration


def verify_canonical(
    g: SortedEdges,
    reduced: BinaryIO,
    fmt: str,
    cert: ReductionCertificate,
    with_oracle: bool = False,
    limits: Optional[SolverLimits] = None,
) -> Optional[VerificationReport]:
    """:func:`verify_all`'s report on G (its sorted edges) and the G' in the
    file ``reduced``, when that file is byte for byte the canonical
    ``fmt`` text of a d-regular model's G' and both hashes match; None for any other
    file, which the caller then parses and hands to :func:`verify_edges`;
    a file that cannot seek (a pipe) gets None with nothing read.

    Past its header the file is never parsed: the model's pieces are
    matched with it as it is read, stopping at the first difference, and
    hashed in that pass.  Every edge and row comparison of
    :func:`check_certificate` then holds by construction, and the rest of
    the report comes from G, the certificate and the model."""
    d = cert.target_degree
    if not reduced.seekable() or d < 1 or cert.source_hash != g.digest:
        return None
    edges = edge_capacity(reduced, fmt)  # a canonical G' is d-regular, so this bounds |V'| too
    try:
        padded = _padded_edges(g, cert, 2 * edges // d, edges)
        model = _model(g, padded, cert, 2 * edges // d, edges)
    except GraphError:
        return None
    n = model.pieces.n
    m = n * d // 2
    try:  # an edge list's header has no m; an irregular model's G' is parsed, its degrees counted
        if not _regular(model, d) or canonical_header(reduced, fmt) not in ((n, m), (n, None)):
            return None
        digest = content_digest(n, match(reduced, fmt, model.pieces))
    except NotCanonical:
        return None
    if digest != cert.result_hash:
        return None

    graphs = lambda: (g.graph(), Graph.from_sorted(n, chain.from_iterable(model.pieces.all_ends())))  # noqa: E731
    structure = _structure(g, cert, n, _NO_FAULTS, padded, model, "")
    return _report(cert, (structure, model), n, m, graphs, with_oracle, limits)
