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

The triangle and planarity checks are derived from that structural result
and walk neither G nor G' again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from . import gadgets
from .graph import Graph, GraphError, is_independent_set, triangle_count
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


def check_regular(g: Graph, d: int) -> Check:
    bad = [v for v, a in enumerate(g.adjacency) if len(a) != d]
    return _check(
        "regular",
        not bad,
        f"all {g.n} degrees equal {d}" if not bad else f"vertices {bad[:5]} deviate from degree {d}",
    )


# ---------------------------------------------------------------------------
# the rows G' must have

Row = Tuple[int, ...]


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
    kind = cert.gadget_kind
    delta = cert.target_degree if kind == gadgets.GENERAL else None
    n, lo = g_prime.n, cert.padded_n
    blocks_ok, attach_ok = True, True
    detail_blocks, detail_attach = "all gadget blocks match their blueprint", "every port attaches to exactly its owner"
    if kind == gadgets.GENERAL:
        try:
            size = gadgets.general_gadget_size(cert.target_degree)
        except GraphError as exc:
            size, blocks_ok, detail_blocks = None, False, str(exc)
    elif kind == gadgets.PLANAR5:
        size = gadgets.PLANAR_GADGET_SIZE
    else:
        size, blocks_ok, detail_blocks = None, False, f"unknown gadget kind {kind!r}"
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

    checks: List[Check] = [check_regular(g_prime, cert.target_degree)]

    # originals induce exactly the source graph
    if cert.source_n != g.n:
        same, detail = False, f"source_n {cert.source_n} is not the source graph's {g.n} vertices"
    else:
        same = _rows_match_below(g_prime.adjacency, g.adjacency, g.n)
        detail = "edges among original vertices " + ("unchanged" if same else "were added or removed")
    checks.append(_check("origin-induced", same, detail))

    # padding steps regenerate the padded prefix, and each step's offset is
    # the alpha of what it adds: 1 for a clique, the leaves of a star
    try:
        padded: Optional[List[Row]] = _padded_rows(g, cert, g_prime.n, g_prime.m)
        pad_ok, pad_detail = True, "padding steps reconstruct"
        if len(padded) != cert.padded_n:
            pad_ok, pad_detail = False, f"padded_n {cert.padded_n} is not |V(G)| plus the steps, {len(padded)}"
        for step in cert.steps:
            expected = 1 if step.kind == PARITY_FIX else step.size - 1
            if step.alpha_offset != expected:
                pad_ok, pad_detail = False, f"step {step.kind} has offset {step.alpha_offset}, expected {expected}"
        if pad_ok and not _rows_match_below(g_prime.adjacency, padded, len(padded)):
            pad_ok, pad_detail = False, "padded prefix of the reduced graph disagrees with the steps"
    except GraphError as exc:
        padded, pad_ok, pad_detail = None, False, str(exc)
    checks.append(_check("padding-steps", pad_ok, pad_detail))

    blueprints, attachment, gadget_size = _check_gadget_blocks(g_prime, cert)
    checks += [blueprints, attachment]

    # gadget counts equal the deficiency of each padded vertex
    if padded is None:
        checks.append(Check("gadget-counts", SKIP, "padded graph unavailable"))
    else:
        counts = [0] * len(padded)
        for gi in cert.gadgets:
            if 0 <= gi.owner < len(padded):
                counts[gi.owner] += 1
        bad = [v for v, a in enumerate(padded) if counts[v] != cert.target_degree - len(a)]
        checks.append(_check("gadget-counts", not bad, f"vertices {bad[:5]} have the wrong number of gadgets"
                             if bad else "every vertex has degree-deficiency many gadgets"))

    # vertex count: closed form and the cubic-in-degree blowup bound
    if gadget_size is None:
        checks.append(Check("size-bound", FAIL, f"no closed-form gadget size: {blueprints.detail}"))
    else:
        expected_n = cert.padded_n + len(cert.gadgets) * gadget_size
        bound = cert.padded_n * (1 + cert.target_degree * gadget_size)
        size_ok = g_prime.n == expected_n and g_prime.n <= bound
        checks.append(
            _check(
                "size-bound",
                size_ok,
                f"|V'|={g_prime.n} equals closed form {expected_n}, within bound {bound}"
                if size_ok
                else f"|V'|={g_prime.n}, closed form {expected_n}, bound {bound}",
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
    return VerificationReport(tuple(checks))


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
    g_prime: Graph, cert: ReductionCertificate, structure: Callable[[], Iterable[Check]]
) -> Check:
    """Euler's bound, and one cut edge per gadget as the gadget-blueprints
    and port-attachment checks ``structure`` returns establish.  Necessary
    conditions only: the source graph's planarity is not tested."""
    if cert.gadget_kind != gadgets.PLANAR5:
        return Check("planarity-necessary", SKIP, "not a planar-gadget reduction")
    n, m = g_prime.n, g_prime.m
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

    return _derived_planarity(g_prime, cert, structure)


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
    checks = list(structure)
    blocks_ok = next(c.status == PASS for c in checks if c.name == "gadget-blueprints")
    checks.append(_derived_triangles(cert, lambda: structure))
    checks.append(_derived_planarity(g_prime, cert, lambda: structure))
    if with_oracle:
        checks.append(check_alpha_relation(g, g_prime, cert, limits))
        if cert.gadgets and not blocks_ok:
            checks.append(Check("port-exclusion", SKIP, "gadget blocks failed their blueprint check"))
        elif cert.gadgets:
            gi = cert.gadgets[0]
            checks.append(check_port_exclusion(gi.kind, gi.delta, limits))
    else:
        checks.append(Check("alpha-relation", SKIP, "oracle checks disabled"))
    return VerificationReport(tuple(checks))
