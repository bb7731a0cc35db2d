"""Graph file formats: DIMACS .col and plain edge lists.

DIMACS .col: header ``p edge <n> <m>``, edges ``e <u> <v>`` 1-indexed,
``c`` comment lines ignored.  Edge list: one ``u v`` per line, 0-indexed,
with an optional ``# n=<n>`` header so isolated vertices survive the round
trip.  Serialization is byte-stable: edges are emitted in lexicographic
order.
"""

from __future__ import annotations

import warnings

from .graph import Graph, GraphError

FORMATS = ("dimacs-col", "edge-list")


def parse_graph(text: str, fmt: str) -> Graph:
    if fmt == "dimacs-col":
        return _parse_dimacs(text)
    if fmt == "edge-list":
        return _parse_edge_list(text)
    raise GraphError(f"unknown graph format {fmt!r}")


def serialize_graph(g: Graph, fmt: str) -> str:
    if fmt == "dimacs-col":
        lines = [f"p edge {g.n} {g.m}"]
        lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
        return "\n".join(lines) + "\n"
    if fmt == "edge-list":
        lines = [f"# n={g.n}"]
        lines += [f"{u} {v}" for u, v in g.edges()]
        return "\n".join(lines) + "\n"
    raise GraphError(f"unknown graph format {fmt!r}")


def sniff_format(path: str) -> str:
    return "dimacs-col" if path.endswith(".col") else "edge-list"


def _add_edge(edges: set, n: int, u: int, v: int, where: str) -> None:
    if u == v:
        raise GraphError(f"{where}: self-loop at vertex {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise GraphError(f"{where}: edge ({u}, {v}) out of range for n={n}")
    key = (u, v) if u < v else (v, u)
    if key in edges:
        warnings.warn(f"{where}: duplicate edge {key}, ignoring", stacklevel=3)
    edges.add(key)


def _parse_dimacs(text: str) -> Graph:
    n = None
    edges: set = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphError(f"line {lineno}: repeated problem line")
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise GraphError(f"line {lineno}: malformed problem line {line!r}")
            try:
                n = int(parts[2])
            except ValueError as exc:
                raise GraphError(f"line {lineno}: bad vertex count") from exc
            if n < 0:
                raise GraphError(f"line {lineno}: negative vertex count")
        elif parts[0] == "e":
            if n is None:
                raise GraphError(f"line {lineno}: edge before problem line")
            try:
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
            except (IndexError, ValueError) as exc:
                raise GraphError(f"line {lineno}: malformed edge line {line!r}") from exc
            _add_edge(edges, n, u, v, f"line {lineno}")
        else:
            raise GraphError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise GraphError("missing 'p edge <n> <m>' header")
    return Graph.from_edges(n, edges)


def _parse_edge_list(text: str) -> Graph:
    declared_n = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("n="):
                try:
                    declared_n = int(body[2:])
                except ValueError as exc:
                    raise GraphError(f"line {lineno}: bad vertex count in {line!r}") from exc
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphError(f"line {lineno}: non-integer vertex id in {line!r}") from exc
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: negative vertex id in {line!r}")
        pairs.append((lineno, u, v))

    max_id = max((max(u, v) for _, u, v in pairs), default=-1)
    n = declared_n if declared_n is not None else max_id + 1
    edges: set = set()
    for lineno, u, v in pairs:
        _add_edge(edges, n, u, v, f"line {lineno}")
    return Graph.from_edges(n, edges)
