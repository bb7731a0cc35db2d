"""The benchmark's own view of graphs and reductions, written without
regmis so that it can judge regmis's outputs.

Expected values follow from the construction, not from the program: the
general gadget for odd target degree d has (d-1)^2 + d vertices and
independence number d(d-1)/2; the planar gadget has 25 vertices and
independence number 8.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Set, Tuple

Edges = List[Tuple[int, int]]

GENERAL, PLANAR = "general-odd", "planar5"


def parse_dimacs(text: str) -> Tuple[int, Edges]:
    lines = text.split("\n")
    head = lines[0].split()
    if head[:2] != ["p", "edge"]:
        raise ValueError(f"not a DIMACS edge file: {lines[0]!r}")
    edges = []
    for line in lines[1:]:
        if line:
            _, u, v = line.split()
            edges.append((int(u) - 1, int(v) - 1))
    return int(head[2]), edges


def content_hash(n: int, edges: Edges) -> str:
    """SHA-256 of ``n=<n>`` and the lexicographically sorted edge list,
    one ``u v`` per line: the encoding certificates bind to."""
    body = "".join(f"{u} {v}\n" for u, v in sorted(edges))
    return hashlib.sha256(f"n={n}\n{body}".encode()).hexdigest()


def adjacency(n: int, edges: Edges) -> List[Set[int]]:
    adj: List[Set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def is_independent(adj: List[Set[int]], members: Iterable[int]) -> bool:
    s = set(members)
    return all(0 <= v < len(adj) for v in s) and all(not (adj[v] & s) for v in s)


def greedy_independent_set(adj: List[Set[int]]) -> List[int]:
    """Maximal independent set, taking vertices in id order."""
    taken: List[int] = []
    blocked = bytearray(len(adj))
    for v in range(len(adj)):
        if not blocked[v]:
            taken.append(v)
            blocked[v] = 1
            for w in adj[v]:
                blocked[w] = 1
    return taken


def gadget_size(kind: str, d: int) -> int:
    return (d - 1) ** 2 + d if kind == GENERAL else 25


def gadget_alpha(kind: str, d: int) -> int:
    return d * (d - 1) // 2 if kind == GENERAL else 8


def expected_reduction(n: int, edges: Edges, kind: str, d: int) -> Dict[str, int]:
    """|V'|, gadget count and total offset the reduction must produce:
    parity clique K_{D+2} when the maximum degree D is even (offset 1),
    then a star with d leaves when d exceeds the maximum degree (offset d),
    then one gadget per missing unit of degree."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    top = max(deg, default=0)
    offset = 0
    if kind == GENERAL:
        if top % 2 == 0:
            deg += [top + 1] * (top + 2)
            offset += 1
            top += 1
        if d > top:
            deg += [d] + [1] * d
            offset += d
    gadgets = sum(d - x for x in deg)
    return {
        "vprime": len(deg) + gadgets * gadget_size(kind, d),
        "gadgets": gadgets,
        "total_offset": offset + gadgets * gadget_alpha(kind, d),
    }


def reduction_problems(
    n: int, edges: Edges, kind: str, d: int, reduced_text: str, cert: dict
) -> Tuple[List[str], Optional[Tuple[int, Edges]]]:
    """Judge a reduced graph and its certificate.  Returns the problems
    found (empty when correct) and the parsed reduced graph."""
    try:
        n2, edges2 = parse_dimacs(reduced_text)
    except ValueError as exc:
        return [f"reduced graph does not parse: {exc}"], None
    want = expected_reduction(n, edges, kind, d)
    problems = []
    if n2 != want["vprime"]:
        problems.append(f"|V'|={n2}, expected {want['vprime']}")
    deg = [0] * n2
    for u, v in edges2:
        deg[u] += 1
        deg[v] += 1
    if any(x != d for x in deg):
        problems.append(f"reduced graph is not {d}-regular")
    if sorted((u, v) for u, v in edges2 if v < n) != sorted(edges):
        problems.append("original vertices do not induce the source graph")
    if len(cert.get("gadgets", ())) != want["gadgets"]:
        problems.append(f"{len(cert.get('gadgets', ()))} gadgets, expected {want['gadgets']}")
    if cert.get("per_gadget_alpha") != gadget_alpha(kind, d):
        problems.append(f"per_gadget_alpha {cert.get('per_gadget_alpha')}, expected {gadget_alpha(kind, d)}")
    if cert.get("total_offset") != want["total_offset"]:
        problems.append(f"total_offset {cert.get('total_offset')}, expected {want['total_offset']}")
    if cert.get("source_hash") != content_hash(n, edges):
        problems.append("source_hash does not match the source graph")
    if cert.get("result_hash") != content_hash(n2, edges2):
        problems.append("result_hash does not match the reduced graph")
    return problems, (n2, edges2)
