"""Degree-regularizing reductions and their machine-checkable certificates.

Pipeline order is fixed: parity fix (disjoint K_{Δ+2} when the maximum
degree is even), star padding (when targeting a degree above the current
maximum), then gadget attachment on every deficient vertex.  Original
vertices always occupy ids 0..source_n-1 of the result, padding vertices
come next, and gadget blocks are allocated in (owner id, gadget index)
order, so results are reproducible byte for byte.  The pipeline reads G's
sorted edges and ends at a :class:`Plan`, whose description of G'
(:class:`~regmis.graph.Pieces`) is both written and built from.

Every block copies one blueprint, so the solution maps find blocks by
geometry (:func:`_blocks`), never by the certificate's gadget entries:
block i is the ``size`` ids from ``padded_n + i * size``, its port last.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import chain, compress
from operator import and_
from typing import BinaryIO, Callable, FrozenSet, Iterable, Iterator, NamedTuple, Optional, Sequence, Set, TextIO, Tuple

from . import gadgets
from .graph import (
    HASH_LINE,
    Graph,
    GraphError,
    InfeasibleError,
    Pieces,
    Row,
    SortedEdges,
    check_ids,
    complete_graph,
    content_digest,
    ends_of,
    is_independent_set,
    render,
    star_graph,
)
from .io import NotCanonical, canonical_header, canonical_prefix, edge_capacity, header, match, texts

PARITY_FIX = "parity-clique"
STAR_PAD = "star-pad"
_GADGET_KEYS = ("delta", "id_offset", "index", "kind", "owner", "port", "size")  # sorted
_GADGET_JSON = "    {\n%s\n    }" % ",\n".join(f'      "{key}": %s' for key in _GADGET_KEYS)


@dataclass(frozen=True)
class ReductionStep:
    kind: str  # PARITY_FIX | STAR_PAD
    start: int  # first added vertex id
    end: int  # one past the last added vertex id
    alpha_offset: int

    @property
    def size(self) -> int:
        return self.end - self.start

    def witness(self) -> FrozenSet[int]:
        """An independent set of the added component realizing alpha_offset."""
        if self.kind == PARITY_FIX:
            return frozenset((self.start,))
        # star: center first, then the leaves
        return frozenset(range(self.start + 1, self.end))


@dataclass(frozen=True)
class GadgetInstance:
    owner: int  # vertex the gadget is attached to (in the padded graph)
    index: int  # 1-based, per owner
    kind: str
    delta: Optional[int]  # target degree for general-odd gadgets
    id_offset: int  # base id of the gadget block in the reduced graph
    size: int

    @property
    def port(self) -> int:
        return self.id_offset + self.size - 1  # port is always the last id


@dataclass(frozen=True)
class ReductionCertificate:
    target_degree: int
    source_n: int
    steps: Tuple[ReductionStep, ...]
    gadgets: Tuple[GadgetInstance, ...]
    per_gadget_alpha: int
    total_offset: int
    source_hash: str
    result_hash: str

    @property
    def origin_range(self) -> Tuple[int, int]:
        return (0, self.source_n)

    @property
    def padded_n(self) -> int:
        return self.source_n + sum(s.size for s in self.steps)

    @property
    def gadget_kind(self) -> str:
        return self.gadgets[0].kind if self.gadgets else gadgets.GENERAL

    def to_json(self) -> str:
        """The fields, each gadget with its port, and ``origin_range``, as ``json.dumps(indent=2,
        sort_keys=True)`` renders them; the gadgets skip its pure-Python encoder, a template each."""
        doc = dict(vars(self), steps=[vars(s) for s in self.steps], gadgets=[], origin_range=list(self.origin_range))
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        kinds = {kind: json.dumps(kind) for kind in {gi.kind for gi in self.gadgets}}
        entries = ",\n".join([_GADGET_JSON % (
            "null" if gi.delta is None else gi.delta, gi.id_offset, gi.index, kinds[gi.kind], gi.owner, gi.port, gi.size
        ) for gi in self.gadgets])
        return text.replace('"gadgets": []', f'"gadgets": [\n{entries}\n  ]', 1) if entries else text

    @staticmethod
    def from_json(text: str) -> "ReductionCertificate":
        try:
            doc = json.loads(text)
            cert = ReductionCertificate(
                target_degree=_of(int, doc["target_degree"]),
                source_n=_of(int, doc["source_n"]),
                steps=tuple(
                    ReductionStep(_of(str, s["kind"]), _of(int, s["start"]), _of(int, s["end"]), _of(int, s["alpha_offset"]))
                    for s in _of(list, doc["steps"])
                ),
                gadgets=tuple(
                    GadgetInstance(
                        _of(int, g["owner"]), _of(int, g["index"]), _of(str, g["kind"]),
                        None if g["delta"] is None else _of(int, g["delta"]),
                        _of(int, g["id_offset"]), _of(int, g["size"]),
                    )
                    for g in _of(list, doc["gadgets"])
                ),
                per_gadget_alpha=_of(int, doc["per_gadget_alpha"]),
                total_offset=_of(int, doc["total_offset"]),
                source_hash=_of(str, doc["source_hash"]),
                result_hash=_of(str, doc["result_hash"]),
            )
            ports = [_of(int, g["port"]) for g in doc["gadgets"]]
        except (KeyError, TypeError, ValueError, RecursionError) as exc:  # json.loads recurses per nesting level
            raise GraphError(f"malformed certificate: {exc}") from exc
        if ports != [gi.port for gi in cert.gadgets]:
            raise GraphError("certificate gadget port disagrees with its id range")
        return cert


_JSON_TYPES = {int: "an integer", str: "a string", list: "a list"}


def _of(kind: type, value: object):
    """``value`` if its type is exactly ``kind``, one of ``_JSON_TYPES`` (so
    a bool is no integer); raises TypeError otherwise."""
    if type(value) is not kind:
        raise TypeError(f"expected {_JSON_TYPES[kind]}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# the pipeline


class Plan(NamedTuple):
    """A reduction before G' exists: G''s edges in their one description
    (:class:`~regmis.graph.Pieces`), which copies G's text between the
    ports, and the certificate with an empty ``result_hash``."""

    pieces: Pieces
    cert: ReductionCertificate

    def build(self) -> Tuple[Graph, ReductionCertificate]:
        """G' as a :class:`Graph`, and its certificate."""
        pieces = self.pieces
        result = Graph.from_sorted(pieces.n, chain.from_iterable(pieces.all_ends()))
        return result, replace(self.cert, result_hash=pieces.digest())

    def write(self, out: TextIO, fmt: str) -> ReductionCertificate:
        """Write ``serialize_graph(G', fmt)`` to ``out`` and return the
        certificate, never building G': each piece of G''s text
        (:func:`~regmis.io.texts`) is written and hashed as it is rendered."""
        pieces = self.pieces
        n = pieces.n
        m = len(pieces.ends) // 2 + pieces.count * sum(map(len, pieces.rows)) // 2  # n·d/2 when G' is d-regular
        out.write(header(fmt, n, m))

        def written() -> Iterator[str]:
            for text, hashed in texts(fmt, pieces):
                out.write(text)
                yield hashed

        return replace(self.cert, result_hash=content_digest(n, written()))


def _reduce(source: SortedEdges, delta: int, kind: str, pad: bool = False, strict: bool = False) -> Plan:
    """The one reduction pipeline behind every entry point.

    Checks the target against the source's maximum degree Δ, counted once
    from its edges.  When ``pad`` is set and the source is not empty, the
    padding components' edges follow the source's: a K_{Δ+2} when Δ is
    even (its degree Δ+1 is odd and at most ``delta``; offset 1), then a
    star with ``delta`` leaves (offset ``delta``) when the maximum is still
    below ``delta``.  One gadget of ``kind`` is then planned per unit of
    deficiency: each padded vertex's port edges are merged in after its
    last edge (a ``Pieces`` cut), and each block will be the blueprint shifted to its offset.
    """
    if delta < 3 or delta % 2 == 0:
        raise GraphError(f"target degree must be odd and >= 3, got {delta}")
    degree = [0] * source.n
    for x in source.ends:
        degree[x] += 1
    top = max(degree, default=0)
    if top > delta:
        raise InfeasibleError(f"maximum degree {top} exceeds target degree {delta}")
    steps, padding = [], []
    if pad and source.n:
        if top % 2 == 0 and strict:
            raise InfeasibleError("input has even maximum degree and strict mode is on")
        pads = [(PARITY_FIX, complete_graph(top + 2), 1)] if top % 2 == 0 else []
        if top + len(pads) < delta:  # a parity clique raises the maximum by one
            pads.append((STAR_PAD, star_graph(delta), delta))
        for step_kind, component, alpha_offset in pads:  # each component's ids follow the ids before it
            start = steps[-1].end if steps else source.n
            steps.append(ReductionStep(step_kind, start, start + component.n, alpha_offset))
            padding += [x + start for x in ends_of(component.adjacency)]
    first = nid = steps[-1].end if steps else source.n  # a padded vertex's ports are ascending and above every padded id
    degree += [0] * (nid - source.n)
    for x in padding:
        degree[x] += 1
    ends = source.ends + padding if padding else source.ends  # G's own list, copied only to append padding

    blueprint, layout = gadgets.build_gadget(kind, delta)
    size = blueprint.n
    deficiency = [delta - k for k in degree]
    instances, ported, cuts, us = [], [], [0, 0], ends[::2]  # cuts[-2]: where the padded edges resume
    for v, k in compress(enumerate(deficiency), deficiency):
        at = 2 * bisect_right(us, v, cuts[-2] // 2)  # past v's last edge
        ported += ends[cuts[-2] : at]  # in place: a concatenation would copy ``ported`` again
        ported += [x for port in range(nid + size - 1, nid + k * size, size) for x in (v, port)]
        cuts += at, len(ported)
        instances += [GadgetInstance(v, j, kind, layout.delta, nid + (j - 1) * size, size) for j in range(1, k + 1)]
        nid += k * size
    ported += ends[cuts[-2] :]

    per_gadget_alpha = layout.internal_alpha
    return Plan(Pieces(ported, blueprint.adjacency, first, len(instances), source, cuts), ReductionCertificate(
        target_degree=delta,
        source_n=source.n,
        steps=tuple(steps),
        gadgets=tuple(instances),
        per_gadget_alpha=per_gadget_alpha,
        total_offset=sum(s.alpha_offset for s in steps) + len(instances) * per_gadget_alpha,
        source_hash=source.digest,
        result_hash="",
    ))


def plan_reduction(source: SortedEdges, delta: Optional[int], planar: bool = False, strict: bool = False) -> Plan:
    """The plan of :func:`regularize_planar` when ``planar`` (``delta`` is
    then unused), else of :func:`reduce_to_regular`."""
    if planar:
        return _reduce(source, 5, gadgets.PLANAR5)
    return _reduce(source, delta, gadgets.GENERAL, pad=True, strict=strict)


def regularize(g: Graph, delta: int) -> Tuple[Graph, ReductionCertificate]:
    """Attach gadgets until every vertex has degree exactly ``delta``.

    Adds no padding, so the input's maximum degree must be at most
    ``delta``; use :func:`reduce_to_regular` for the full pipeline.
    """
    return _reduce(SortedEdges.of(g), delta, gadgets.GENERAL).build()


def regularize_planar(g: Graph) -> Tuple[Graph, ReductionCertificate]:
    """5-regularize with the planar gadget; planarity of the input is the
    caller's responsibility and is preserved structurally (each gadget is
    planar and hangs off a single cut edge)."""
    return plan_reduction(SortedEdges.of(g), 5, planar=True).build()


def reduce_to_regular(
    g: Graph, delta: int, strict: bool = False
) -> Tuple[Graph, ReductionCertificate]:
    """Full pipeline: parity fix, star padding, gadget attachment."""
    return plan_reduction(SortedEdges.of(g), delta, strict=strict).build()


# ---------------------------------------------------------------------------
# solution maps


def _blocks(cert: ReductionCertificate, n: int, edges: int) -> Tuple[int, Graph, Optional[gadgets.GadgetLayout]]:
    """The gadget blocks of a G' of ``n`` vertices and at most ``edges``
    edges: their count, the blueprint each repeats and its layout (an empty
    graph and None without blocks).  Raises :class:`GraphError`, having built
    nothing, unless blocks of the closed-form size tile ``padded_n..n``."""
    first, d, kind = cert.padded_n, cert.target_degree, cert.gadget_kind
    if n == first >= 0:
        return 0, Graph(0, ()), None
    size = gadgets.gadget_size(kind, d)
    count, rest = divmod(n - first, size)
    if not 0 <= first < n or rest or size * d > 2 * edges + 1:  # or a blueprint with more edges than G'
        raise GraphError(f"gadgets of {size} vertices at degree {d} do not tile ids {first}..{n} of G'")
    return (count, *gadgets.build_gadget(kind, d))


def forward_map(g: Graph, members: Iterable[int], cert: ReductionCertificate) -> FrozenSet[int]:
    """Lift an independent set of the source graph to one of the reduced
    graph; the result gains exactly ``cert.total_offset`` vertices.  Raises
    :class:`GraphError` if ``cert`` was not issued for ``g``."""
    if cert.source_hash != g.content_hash():
        raise GraphError("certificate source hash does not match the source graph")
    s = set(members)
    if any(v >= cert.source_n or v < 0 for v in s):
        raise GraphError("vertex id outside the source graph")
    if not is_independent_set(g, s):
        raise GraphError("input set is not independent in the source graph")
    out = s.union(*(step.witness() for step in cert.steps))
    first, d = cert.padded_n, cert.target_degree
    n = first + (len(cert.gadgets) * gadgets.gadget_size(cert.gadget_kind, d) if cert.gadgets else 0)
    count, blueprint, layout = _blocks(cert, n, n * d // 2)  # G' is d-regular
    out.update(first + i * blueprint.n + v for i in range(count) for v in layout.canonical_mis)
    return frozenset(out)


def recover(g_prime: Graph, members: Iterable[int], cert: ReductionCertificate) -> FrozenSet[int]:
    """Restrict an independent set of the reduced graph to the original
    vertices; loses at most ``cert.total_offset`` vertices.  Raises
    :class:`GraphError` if ``cert`` was not issued for ``g_prime``."""
    return recover_edges(SortedEdges.of(g_prime), members, cert)


def recover_edges(g_prime: SortedEdges, members: Iterable[int], cert: ReductionCertificate) -> FrozenSet[int]:
    """:func:`recover` on the reduced graph as its sorted edges."""
    s = set(members)
    return _restrict(s, cert, g_prime.digest, g_prime.n, lambda: not _joins(s, g_prime.ends))


def _joins(s: Set[int], ends: Sequence[int]) -> bool:
    """True iff an edge of the sorted ``ends`` joins two of ``s``."""
    return any(map(and_, map(s.__contains__, ends[::2]), map(s.__contains__, ends[1::2])))


def recover_canonical(
    reduced: BinaryIO, fmt: str, members: Iterable[int], cert: ReductionCertificate
) -> Optional[FrozenSet[int]]:
    """:func:`recover` on the G' whose canonical ``fmt`` text is the binary
    file ``reduced``, which is never built.  None, with nothing read, when
    the file cannot seek (a pipe), and None when it deviates from the
    split below, which need not be a deviation from canonical text; the
    caller then parses it and calls :func:`recover_edges`, which raises
    what this would.

    The header gives |V'| and the edge count (in an edge list, the
    d-regular one), ``cert`` the first block, the target degree and the
    gadget kind.  The ``k`` edge lines below the blocks, the edge count
    less the blocks' edges, go through the canonical reader a chunk at a
    time, each chunk hashed and looked up in the set of members; the rest
    is the blocks' text, rendered from the blueprint and matched with the
    file unparsed (:func:`match`).  The members in blocks are checked
    against the blueprint's rows.  Memory is one chunk, and a byte per block
    vertex, beyond the set of members."""
    if not reduced.seekable():
        return None
    s = set(members)
    clash = []  # [True] once an edge joins two members
    edges = edge_capacity(reduced, fmt)
    first = cert.padded_n
    try:
        n, m = canonical_header(reduced, fmt)
        count, blueprint, _ = _blocks(cert, n, edges)
    except (NotCanonical, GraphError):  # no canonical header, or no blocks that fit the file
        return None
    k = (n * cert.target_degree // 2 if m is None else m) - count * blueprint.m
    rows = blueprint.adjacency
    if k < 0:
        return None

    def prefix() -> Iterator[str]:
        ends = None
        for ends in canonical_prefix(reduced, fmt, n, k):
            if s and not clash and _joins(s, ends):
                clash.append(True)
            yield render(ends, *HASH_LINE)
        if ends is not None and ends[-2] >= first:  # the blocks' edges must sort after it
            raise NotCanonical

    try:
        digest = content_digest(n, chain(prefix(), match(reduced, fmt, Pieces([], rows, first, count))))
    except NotCanonical:
        return None
    return _restrict(s, cert, digest, n, lambda: not clash and _independent_in_blocks(s, first, n, rows))


def _independent_in_blocks(s: Set[int], first: int, n: int, rows: Sequence[Row]) -> bool:
    """No edge of the blueprint ``rows``, repeated in the blocks from
    ``first`` to ``n``, joins two of ``s``: each member there is marked,
    and each blueprint edge (x, y) ANDs the marks of x and of y over all blocks."""
    size, marks = len(rows), bytearray(n - first)
    for v in s:
        if v >= first:
            marks[v - first] = 1
    column = [int.from_bytes(marks[x::size], "little") for x in range(size)]
    return not any(column[x] & column[y] for x, row in enumerate(rows) for y in row if y > x)


def _restrict(
    s: Set[int], cert: ReductionCertificate, digest: str, n: int, independent: Callable[[], bool]
) -> FrozenSet[int]:
    """The members ``s`` below ``cert.source_n``, once G' (``n`` vertices,
    content hash ``digest``) is the certificate's, every member is a
    vertex of it and ``independent()`` says no edge joins two members."""
    if cert.result_hash != digest:
        raise GraphError("certificate result hash does not match the reduced graph")
    check_ids(s, n)
    if not independent():
        raise GraphError("input set is not independent in the reduced graph")
    return frozenset(v for v in s if v < cert.source_n)


def normalize(g_prime: Graph, members: Iterable[int], cert: ReductionCertificate) -> FrozenSet[int]:
    """Rewrite an independent set of the reduced graph so no gadget port is
    used, never losing cardinality: in each block whose port is a member,
    the members are replaced by the gadget's canonical port-free maximum
    independent set.  The swap is checked, not assumed safe; raises
    :class:`GraphError` if ``cert`` was not issued for ``g_prime`` or the
    result is not independent in it."""
    if cert.result_hash != g_prime.content_hash():
        raise GraphError("certificate result hash does not match the reduced graph")
    s = set(members)
    if not is_independent_set(g_prime, s):
        raise GraphError("input set is not independent in the reduced graph")
    _, blueprint, layout = _blocks(cert, g_prime.n, g_prime.m)
    first, size, out = cert.padded_n, blueprint.n, set(s)
    for port in [v for v in s if v >= first and (v - first) % size == layout.port]:  # none without blocks
        start = port - layout.port
        out.difference_update(range(start, start + size))
        out.update(start + v for v in layout.canonical_mis)
    if not is_independent_set(g_prime, out):
        raise GraphError("normalized set is not independent in the reduced graph")
    return frozenset(out)
