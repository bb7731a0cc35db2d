"""Independent re-verification of reduction outputs against certificates.

Gadget blueprints are rebuilt from (kind, delta) and compared edge by
edge, rather than trusting anything embedded in the certificate, so a
buggy or forged construction cannot vouch for itself.  Structural checks
never run a solver on the reduced graph; only the alpha-relation and
port-exclusion checks do.  The gadget-alpha check reads the memoized exact
alpha of the one gadget blueprint, and only once the blocks have matched it.

Cost: :func:`check_certificate` is linear in |V'| + |E'|.  It compares
G''s rows in place with the rows regenerated from G, the certificate's
steps and the one gadget blueprint (:func:`_padded_rows`,
:func:`_block_rows`), and builds no other graph.  Untrusted fields are
bounded against G' first: a step's end and edge count before its rows,
and the gadgets' kind, degree, size and id range before the blueprint.

:func:`verify_canonical` needs no G' at all.  It regenerates the canonical
text of G' from G, the steps and the blueprint (the padded rows with their
ports, then the blueprint at each block) and compares it with the file as
the file is read, taking the content hash in the same pass; memory is
O(|G| + #gadgets + blueprint).  Its work is bounded by the file's length:
a canonical G' is d-regular and each edge line has a least length, so
steps and the gadget layout that claim more than the file can hold are
refused before any of their rows are built.  It answers only when the
file is the canonical text, the certificate's gadget list is the canonical
layout and both hashes match; any other input (another edge order, a
difference, a hash mismatch, malformed text) goes to :func:`verify_all`
on the parsed G', which also names the failing check.

The triangle and planarity checks are derived from that structural result
and walk neither G nor G' again.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from operator import attrgetter
from typing import BinaryIO, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import gadgets
from .graph import (
    Graph,
    GraphError,
    Row,
    EdgeLines,
    content_digest,
    edge_runs,
    hash_text,
    is_independent_set,
    triangle_count,
)
from .io import edge_text, header
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
        doc = {
            "overall": self.overall,
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail}
                for c in self.checks
            ],
        }
        return json.dumps(doc, indent=2) + "\n"


def _check(name: str, ok: bool, detail: str) -> Check:
    return Check(name, PASS if ok else FAIL, detail)


def _regular(n: int, d: int, bad: Sequence[int]) -> Check:
    return _check(
        "regular",
        not bad,
        f"all {n} degrees equal {d}" if not bad else f"vertices {bad[:5]} deviate from degree {d}",
    )


def check_regular(g: Graph, d: int) -> Check:
    return _regular(g.n, d, [v for v, a in enumerate(g.adjacency) if len(a) != d])


# ---------------------------------------------------------------------------
# the rows G' must have


def _step_rows(kind: str, start: int, size: int) -> List[Row]:
    """A padding step's rows on ids [start, start + size): a clique, or a
    star with its centre first."""
    ids = tuple(range(start, start + size))
    if kind == PARITY_FIX:
        return [ids[:i] + ids[i + 1 :] for i in range(size)]
    return [ids[1:]] + [(start,)] * (size - 1)


def _padded_rows(g: Graph, cert: ReductionCertificate, n: int, m: int) -> List[Row]:
    """G's rows, then each step's rows, built only once the step is
    contiguous, of a known kind, adds at least one vertex (a star two),
    ends inside G' and keeps the steps' edges within |E'|; else raises."""
    rows, edges = list(g.adjacency), 0
    for step in cert.steps:
        k = step.size
        if step.start != len(rows):
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
        rows += _step_rows(step.kind, step.start, k)
    return rows


def _block_rows(blueprint: Sequence[Row], off: int, owner: int) -> List[Row]:
    """The blueprint's rows shifted to the gadget block at ``off``, with
    the owner first in the port's (last) row."""
    rows = [tuple(map(off.__add__, r)) for r in blueprint]
    rows[-1] = (owner,) + rows[-1]
    return rows


def _split(row: Row, off: int, end: int) -> Tuple[List[int], List[int]]:
    """The ids of ``row`` inside the block [off, end), and those leaving it."""
    return [x for x in row if off <= x < end], [x for x in row if not off <= x < end]


def _rows_match_below(adjacency: Sequence[Row], expected: Sequence[Row], cut: int) -> bool:
    """True iff each expected row (ids below ``cut``) is G''s row of its id cut at ``cut``."""
    return len(expected) <= len(adjacency) and all(
        row == want or (row[: len(want)] == want and row[len(want)] >= cut)
        for row, want in zip(adjacency, expected)
    )


_BLOCKS_MATCH = "all gadget blocks match their blueprint"
_PORTS_ATTACH = "every port attaches to exactly its owner"


def _gadget_delta(cert: ReductionCertificate) -> Optional[int]:
    return cert.target_degree if cert.gadget_kind == gadgets.GENERAL else None


def _gadget_size(cert: ReductionCertificate) -> int:
    """The closed-form size of the certificate's gadget kind at its target
    degree; raises :class:`GraphError` when there is none."""
    kind = cert.gadget_kind
    if kind == gadgets.GENERAL:
        return gadgets.general_gadget_size(cert.target_degree)
    if kind == gadgets.PLANAR5:
        return gadgets.PLANAR_GADGET_SIZE
    raise GraphError(f"unknown gadget kind {kind!r}")


def _check_gadget_blocks(
    g_prime: Graph, cert: ReductionCertificate
) -> Tuple[Check, Check, Optional[int]]:
    """The gadget-blueprints and port-attachment checks, and the closed-form
    gadget size (None when the certificate's kind or degree has none).

    Each gadget must carry the certificate's (kind, delta), the closed-form
    size and an id range inside [padded_n, |V'|) before the one blueprint
    is built.  A block's rows are then compared whole with
    :func:`_block_rows`; a row that differs is split into its in-block part
    (blueprint) and its leaving part (attachment).
    """
    kind, delta = cert.gadget_kind, _gadget_delta(cert)
    n, lo = g_prime.n, cert.padded_n
    blocks_ok, attach_ok = True, True
    detail_blocks, detail_attach = _BLOCKS_MATCH, _PORTS_ATTACH
    try:
        size: Optional[int] = _gadget_size(cert)
    except GraphError as exc:
        size, blocks_ok, detail_blocks = None, False, str(exc)
    if blocks_ok and cert.gadgets and size * cert.target_degree > 2 * g_prime.m:
        blocks_ok, detail_blocks = False, f"a gadget of {size} vertices needs more edges than the reduced graph has"

    owned = bytearray(n)  # 1 for every id of the padded graph or of a gadget so far
    if 0 <= lo <= n:
        owned[:lo] = b"\x01" * lo
    blueprint: Optional[Sequence[Row]] = None
    for gi in cert.gadgets if blocks_ok else ():
        off, end = gi.id_offset, gi.id_offset + size
        if (gi.kind, gi.delta) != (kind, delta):
            blocks_ok, detail_blocks = False, f"gadget at {off} is not a {kind} gadget for degree {cert.target_degree}"
            break
        if gi.size != size:
            blocks_ok, detail_blocks = False, f"gadget at {off} has wrong size"
            break
        if not (0 <= lo <= off and end <= n):
            blocks_ok, detail_blocks = False, f"gadget at {off} lies outside the gadget ids [{lo}, {n})"
            break
        if 1 in owned[off:end]:
            blocks_ok, detail_blocks = False, f"gadget at {off} overlaps other ids"
            break
        owned[off:end] = b"\x01" * size
        if blueprint is None:
            blueprint = gadgets.build_gadget(kind, delta)[0].adjacency
        internal_ok, leaving_ok = True, 0 <= gi.owner < lo
        for row, want in zip(g_prime.adjacency[off:end], _block_rows(blueprint, off, gi.owner)):
            if row != want:
                (inside, leaving), (want_inside, want_leaving) = _split(row, off, end), _split(want, off, end)
                internal_ok = internal_ok and inside == want_inside
                leaving_ok = leaving_ok and leaving == want_leaving
        if not internal_ok:
            blocks_ok = False
            detail_blocks = f"gadget at {off} (owner {gi.owner}) deviates from the blueprint"
        if not leaving_ok:
            attach_ok = False
            detail_attach = f"gadget at {off} does not hang off one port-owner edge to a padded vertex"
    if blocks_ok and (not 0 <= lo <= n or 0 in owned):
        blocks_ok, detail_blocks = False, "gadget ranges do not tile the reduced graph"
    return (
        _check("gadget-blueprints", blocks_ok, detail_blocks),
        _check("port-attachment", attach_ok, detail_attach),
        size,
    )


def _check_gadget_alpha(cert: ReductionCertificate, blocks_ok: bool) -> Check:
    """``per_gadget_alpha`` equals the exact alpha of the one (kind, delta)
    every gadget shares.  The memoized solver runs only on a blueprint
    whose blocks passed their check."""
    shapes = {(gi.kind, gi.delta) for gi in cert.gadgets}
    if not shapes:
        return Check("gadget-alpha", PASS, "no gadgets attached")
    if len(shapes) > 1:
        return Check("gadget-alpha", FAIL, f"gadgets mix {len(shapes)} (kind, delta) pairs")
    if not blocks_ok:
        return Check("gadget-alpha", SKIP, "gadget blocks failed their blueprint check")
    kind, delta = shapes.pop()
    exact = gadgets.gadget_alpha(delta) if kind == gadgets.GENERAL else gadgets.planar_gadget_alpha()
    return _check(
        "gadget-alpha",
        cert.per_gadget_alpha == exact,
        f"per_gadget_alpha {cert.per_gadget_alpha} vs exact {exact} for {kind}"
        + (f" at degree {delta}" if delta is not None else ""),
    )


def check_certificate(
    g: Graph, g_prime: Graph, cert: ReductionCertificate
) -> VerificationReport:
    """Pure-structure verification; no solver runs on either graph."""
    if cert.source_hash != g.content_hash():
        raise GraphError("certificate source hash does not match the source graph")
    if cert.result_hash != g_prime.content_hash():
        raise GraphError("certificate result hash does not match the reduced graph")
    try:
        padded, pad_error = _padded_rows(g, cert, g_prime.n, g_prime.m), ""
    except GraphError as exc:
        padded, pad_error = None, str(exc)
    blocks = _check_gadget_blocks(g_prime, cert)
    return VerificationReport(_structure(g, cert, g_prime.n, g_prime.adjacency, padded, pad_error, blocks))


def _structure(
    g: Graph,
    cert: ReductionCertificate,
    n: int,
    rows: Optional[Sequence[Row]],
    padded: Optional[List[Row]],
    pad_error: str,
    blocks: Tuple[Check, Check, Optional[int]],
) -> Tuple[Check, ...]:
    """check_certificate's checks for a G' of ``n`` vertices with the rows
    ``rows``, given the padded rows (or why there are none) and the
    gadget-block checks.  ``rows`` is None when G' is known to be the
    regeneration of G, the steps and the blueprint: its row comparisons
    then hold by construction."""
    d = cert.target_degree
    checks: List[Check] = [_regular(n, d, [] if rows is None else [v for v, a in enumerate(rows) if len(a) != d])]

    # originals induce exactly the source graph
    if cert.source_n != g.n:
        same, detail = False, f"source_n {cert.source_n} is not the source graph's {g.n} vertices"
    else:
        same = rows is None or _rows_match_below(rows, g.adjacency, g.n)
        detail = "edges among original vertices " + ("unchanged" if same else "were added or removed")
    checks.append(_check("origin-induced", same, detail))

    # padding steps regenerate the padded prefix, and each step's offset is
    # the alpha of what it adds: 1 for a clique, the leaves of a star
    if padded is None:
        pad_ok, pad_detail = False, pad_error
    else:
        pad_ok, pad_detail = True, "padding steps reconstruct"
        if len(padded) != cert.padded_n:
            pad_ok, pad_detail = False, f"padded_n {cert.padded_n} is not |V(G)| plus the steps, {len(padded)}"
        for step in cert.steps:
            expected = 1 if step.kind == PARITY_FIX else step.size - 1
            if step.alpha_offset != expected:
                pad_ok, pad_detail = False, f"step {step.kind} has offset {step.alpha_offset}, expected {expected}"
        if pad_ok and rows is not None and not _rows_match_below(rows, padded, len(padded)):
            pad_ok, pad_detail = False, "padded prefix of the reduced graph disagrees with the steps"
    checks.append(_check("padding-steps", pad_ok, pad_detail))

    blueprints, attachment, gadget_size = blocks
    checks += [blueprints, attachment]

    # gadget counts equal the deficiency of each padded vertex, and each
    # owner's gadgets are numbered 1..k in order
    if padded is None:
        checks.append(Check("gadget-counts", SKIP, "padded graph unavailable"))
    else:
        counts, misnumbered = [0] * len(padded), []
        for gi in cert.gadgets:
            if 0 <= gi.owner < len(padded):
                counts[gi.owner] += 1
                if gi.index != counts[gi.owner]:
                    misnumbered.append(gi.owner)
        bad = [v for v, a in enumerate(padded) if counts[v] != d - len(a)]
        if bad:
            counts_detail = f"vertices {bad[:5]} have the wrong number of gadgets"
        elif misnumbered:
            counts_detail = f"gadgets of vertices {misnumbered[:5]} are not numbered 1..k in order"
        else:
            counts_detail = "every vertex has degree-deficiency many gadgets"
        checks.append(_check("gadget-counts", not (bad or misnumbered), counts_detail))

    # vertex count: closed form and the cubic-in-degree blowup bound
    if gadget_size is None:
        checks.append(Check("size-bound", FAIL, f"no closed-form gadget size: {blueprints.detail}"))
    else:
        expected_n = cert.padded_n + len(cert.gadgets) * gadget_size
        bound = cert.padded_n * (1 + d * gadget_size)
        size_ok = n == expected_n and n <= bound
        checks.append(
            _check(
                "size-bound",
                size_ok,
                f"|V'|={n} equals closed form {expected_n}, within bound {bound}"
                if size_ok
                else f"|V'|={n}, closed form {expected_n}, bound {bound}",
            )
        )

    # offset arithmetic
    expected_offset = (
        sum(s.alpha_offset for s in cert.steps)
        + len(cert.gadgets) * cert.per_gadget_alpha
    )
    checks.append(
        _check(
            "offset-arithmetic",
            cert.total_offset == expected_offset,
            f"total_offset {cert.total_offset} vs recomputed {expected_offset}",
        )
    )
    checks.append(_check_gadget_alpha(cert, blueprints.status == PASS))
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
    if len(lifted) != len(s) + cert.total_offset:
        return Check(
            "sandwich",
            FAIL,
            f"lifted set has {len(lifted)} vertices, expected {len(s) + cert.total_offset}",
        )
    certified = len(s) + cert.total_offset
    return Check(
        "sandwich",
        PASS,
        f"alpha of the reduced graph is {certified}, conditional on the "
        f"supplied size-{len(s)} set being maximum in the source graph",
    )


def _derived_triangles(cert: ReductionCertificate, structure: Callable[[], Iterable[Check]]) -> Check:
    """Triangle preservation from the structural checks ``structure``
    returns, called only when the check applies.  Once they pass, G' has
    the triangles of G, C(k, 3) per parity clique of k vertices and
    #gadgets times the blueprint's (a port-owner bridge closes none), so
    the claim holds iff the blueprint is triangle-free."""
    if cert.gadgets and cert.gadget_kind != gadgets.GENERAL:
        return Check("triangle-preservation", SKIP, f"applies to {gadgets.GENERAL} gadgets only")
    try:
        passed = {c.name for c in structure() if c.status == PASS}
    except GraphError as exc:  # a hash mismatch
        return Check("triangle-preservation", FAIL, str(exc))
    if not passed >= {"padding-steps", "gadget-blueprints", "port-attachment"}:
        return Check("triangle-preservation", FAIL, "not derivable: structural checks failed")
    inside = triangle_count(gadgets.build_gadget(gadgets.GENERAL, cert.target_degree)[0]) if cert.gadgets else 0
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
    return _derived_triangles(cert, lambda: check_certificate(g, g_prime, cert).checks)


def check_port_exclusion(
    kind: str, delta: Optional[int] = None, limits: Optional[SolverLimits] = None
) -> Check:
    """The best independent set through a gadget's port never beats the
    port-free optimum (strictly worse for all but the smallest gadget)."""
    limits = limits or SolverLimits()
    graph, layout = gadgets.build_gadget(kind, delta)
    if layout.port is None:
        return Check("port-exclusion", SKIP, f"gadget kind {kind} has no port")
    try:
        m1 = solve_mis(graph, limits, "bb").alpha
        closed = set(graph.neighbors(layout.port)) | {layout.port}
        keep = [v for v in range(graph.n) if v not in closed]
        relabel = {v: i for i, v in enumerate(keep)}
        residual = Graph.from_edges(
            len(keep),
            [
                (relabel[u], relabel[v])
                for u, v in graph.edges()
                if u in relabel and v in relabel
            ],
        )
        m2 = 1 + solve_mis(residual, limits, "bb").alpha
    except ResourceLimitError as exc:
        return Check("port-exclusion", SKIP, f"solver budget exhausted: {exc}")
    ok = m2 <= m1
    strictness = "strict" if m2 < m1 else "tie"
    return _check(
        "port-exclusion",
        ok,
        f"alpha={m1}, best-with-port={m2} ({strictness})",
    )


def _derived_planarity(
    n: int, m: int, cert: ReductionCertificate, structure: Callable[[], Iterable[Check]]
) -> Check:
    """Euler's bound on a G' of ``n`` vertices and ``m`` edges, and one cut
    edge per gadget as the gadget-blueprints and port-attachment checks
    ``structure`` returns establish.  Necessary conditions only: the source
    graph's planarity is not tested."""
    if cert.gadget_kind != gadgets.PLANAR5:
        return Check("planarity-necessary", SKIP, "not a planar-gadget reduction")
    if n >= 3 and m > 3 * n - 6:
        return Check("planarity-necessary", FAIL, f"m={m} exceeds 3n-6={3 * n - 6}")
    try:
        passed = {c.name for c in structure() if c.status == PASS}
    except GraphError as exc:  # a hash mismatch
        return Check("planarity-necessary", FAIL, str(exc))
    if not passed >= {"gadget-blueprints", "port-attachment"}:
        return Check("planarity-necessary", FAIL, "gadgets are not blueprint blocks on single cut edges")
    return Check(
        "planarity-necessary",
        PASS,
        f"m={m} <= 3n-6={3 * n - 6}; every gadget hangs off one cut edge; source planarity: not certified",
    )


def check_planarity_necessary(g_prime: Graph, cert: ReductionCertificate) -> Check:
    """Euler necessary condition plus the cut-edge attachment structure that
    preserves planarity of a planar input, from the gadget-block checks; a
    hash mismatch fails the check."""

    def structure() -> Tuple[Check, Check]:
        if cert.result_hash != g_prime.content_hash():
            raise GraphError("certificate result hash does not match the reduced graph")
        return _check_gadget_blocks(g_prime, cert)[:2]

    return _derived_planarity(g_prime.n, g_prime.m, cert, structure)


def verify_all(
    g: Graph,
    g_prime: Graph,
    cert: ReductionCertificate,
    with_oracle: bool = False,
    limits: Optional[SolverLimits] = None,
) -> VerificationReport:
    """Run the full check battery; solver-backed checks only with
    ``with_oracle``."""
    structure = check_certificate(g, g_prime, cert).checks
    return _report(g, cert, structure, g_prime.n, g_prime.m, lambda: g_prime, with_oracle, limits)


def _report(
    g: Graph,
    cert: ReductionCertificate,
    structure: Tuple[Check, ...],
    n: int,
    m: int,
    g_prime: Callable[[], Graph],
    with_oracle: bool,
    limits: Optional[SolverLimits],
) -> VerificationReport:
    """The structural checks, then the derived and the solver-backed ones,
    for a G' of ``n`` vertices and ``m`` edges; ``g_prime`` gives G' itself,
    called only for the oracle."""
    checks = list(structure)
    blocks_ok = next(c.status == PASS for c in checks if c.name == "gadget-blueprints")
    checks.append(_derived_triangles(cert, lambda: structure))
    checks.append(_derived_planarity(n, m, cert, lambda: structure))
    if with_oracle:
        checks.append(check_alpha_relation(g, g_prime(), cert, limits))
        if cert.gadgets and not blocks_ok:
            checks.append(Check("port-exclusion", SKIP, "gadget blocks failed their blueprint check"))
        elif cert.gadgets:
            gi = cert.gadgets[0]
            checks.append(check_port_exclusion(gi.kind, gi.delta, limits))
    else:
        checks.append(Check("alpha-relation", SKIP, "oracle checks disabled"))
    return VerificationReport(tuple(checks))


# ---------------------------------------------------------------------------
# verification by regeneration

_BLOCKS_PER_RENDER = 64  # gadget blocks rendered, compared and hashed at a time


def verify_canonical(
    g: Graph,
    reduced: BinaryIO,
    fmt: str,
    cert: ReductionCertificate,
    with_oracle: bool = False,
    limits: Optional[SolverLimits] = None,
) -> Optional[VerificationReport]:
    """:func:`verify_all`'s report on G and the G' in the seekable file
    ``reduced``, when that file is byte for byte the canonical ``fmt`` text
    of the G' that G, the certificate's steps and the gadget blueprint
    determine; None for any other file, which the caller then parses and
    hands to :func:`verify_all`.

    The file is never parsed.  Its text is regenerated a piece at a time
    and compared as it is read, stopping at the first difference, and the
    content hash of the same rows is taken in that pass.  Once the file
    equals the regeneration and the hashes match, every row comparison of
    :func:`check_certificate` holds by construction, and the rest of the
    report comes from G, the certificate and the blueprint."""
    model = _regeneration(g, cert, reduced, fmt)
    if model is None:
        return None
    padded, ported, blueprint, size = model
    n, d = len(ported) + len(cert.gadgets) * size, cert.target_degree
    m = n * d // 2
    matched: List[bool] = []

    def compared() -> Iterator[str]:
        for text, hashed in _canonical_text(fmt, ported, blueprint, len(cert.gadgets), m):
            data = text.encode()
            if reduced.read(len(data)) != data:
                return
            yield hashed
        matched.append(not reduced.read(1))

    if content_digest(n, compared()) != cert.result_hash or matched != [True]:
        return None

    def g_prime() -> Graph:
        rows = list(ported)
        for gi in cert.gadgets:
            rows += _block_rows(blueprint, gi.id_offset, gi.owner)
        return Graph(n, tuple(rows))

    blocks = (Check("gadget-blueprints", PASS, _BLOCKS_MATCH), Check("port-attachment", PASS, _PORTS_ATTACH), size)
    structure = _structure(g, cert, n, None, padded, "", blocks)
    return _report(g, cert, structure, n, m, g_prime, with_oracle, limits)


def _regeneration(
    g: Graph, cert: ReductionCertificate, reduced: BinaryIO, fmt: str
) -> Optional[Tuple[List[Row], List[Row], Sequence[Row], int]]:
    """The padded rows, the same rows with their ports, the blueprint and
    the gadget size of the G' that G and the certificate determine, when
    it is d-regular and the certificate's gadget list is its canonical
    layout; else None.

    A canonical G' is d-regular and each of its edge lines is at least as
    long as the shortest one, so the file's length bounds |E'| and |V'|.
    The steps are bounded by that before their rows are built, and the
    layout before the blueprint is."""
    d = cert.target_degree
    if d < 1 or cert.source_n != g.n or cert.source_hash != g.content_hash():
        return None
    try:
        size = _gadget_size(cert)
        reduced.seek(0, os.SEEK_END)
        edges = reduced.tell() // len(edge_text(fmt, EdgeLines(((1,), (0,)))))
        reduced.seek(0)
        padded = _padded_rows(g, cert, 2 * edges // d, edges)
    except GraphError:
        return None
    deficiency = [d - len(row) for row in padded]
    if min(deficiency, default=0) < 0 or len(cert.gadgets) != sum(deficiency):
        return None
    if (len(padded) + len(cert.gadgets) * size) * d > 2 * edges:
        return None

    kind, delta = cert.gadget_kind, _gadget_delta(cert)
    blueprint: Sequence[Row] = ()
    if cert.gadgets:
        blueprint = gadgets.build_gadget(kind, delta)[0].adjacency
        *inner, port = blueprint
        if len(blueprint) != size or len(port) != d - 1 or any(len(r) != d for r in inner):
            return None

    # the canonical layout: owners ascending, index 1..deficiency, blocks
    # contiguous from padded_n, the port last in each
    layout, ported, off = [], [], len(padded)
    for v, (row, k) in enumerate(zip(padded, deficiency)):
        ported.append(row + tuple(range(off + size - 1, off + k * size, size)) if k else row)
        for j in range(1, k + 1):
            layout.append((v, j, kind, delta, off, size))
            off += size
    if list(map(_GADGET_FIELDS, cert.gadgets)) != layout:
        return None
    return padded, ported, blueprint, size


_GADGET_FIELDS = attrgetter("owner", "index", "kind", "delta", "id_offset", "size")


def _canonical_text(
    fmt: str, ported: List[Row], blueprint: Sequence[Row], count: int, m: int
) -> Iterator[Tuple[str, str]]:
    """The canonical G' as (file text, content-hash text) pieces: the
    header, the padded rows with their ports, then the blueprint's rows at
    each of the ``count`` contiguous blocks, a group of blocks at a time."""
    size = len(blueprint)
    n = len(ported) + count * size
    yield header(fmt, n, m), ""
    for lines in edge_runs(ported):
        yield edge_text(fmt, lines), hash_text(lines)
    off = len(ported)
    full, rest = divmod(count, _BLOCKS_PER_RENDER)
    for blocks, times in ((_BLOCKS_PER_RENDER, full), (rest, 1)):
        if not blocks * times:
            continue
        tile = EdgeLines([tuple(b * size + x for x in row) for b in range(blocks) for row in blueprint])
        for _ in range(times):
            yield edge_text(fmt, tile, off), hash_text(tile, off)
            off += blocks * size
