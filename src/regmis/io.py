"""Graph file formats: DIMACS .col and plain edge lists.

DIMACS .col: header ``p edge <n> <m>``, edges ``e <u> <v>`` 1-indexed,
``c`` comment lines ignored.  Edge list: one ``u v`` per line, 0-indexed,
with an optional ``# n=<n>`` header so isolated vertices survive the round
trip.  Serialization is byte-stable: edges are emitted in lexicographic
order.  :func:`header` and :func:`edge_text` define each format's text;
the serializer and the verifier's regeneration of G' both emit through them.

Parsing is a single pass into per-vertex neighbour sets: each edge line is
checked (self-loop, range, duplicate) and added as it is read, and the
sets become the graph's sorted adjacency tuples.  The edge list collects
its id pairs first, since its vertex count is known only at the end.
"""

from __future__ import annotations

import warnings

from .graph import EdgeLines, Graph, GraphError, edge_runs

FORMATS = ("dimacs-col", "edge-list")
# per format: an edge line's template and the id of vertex 0 in it
_LINES = {"dimacs-col": ("e %d %d\n", 1), "edge-list": ("%d %d\n", 0)}


def parse_graph(text: str, fmt: str) -> Graph:
    if fmt == "dimacs-col":
        return _parse_dimacs(text)
    if fmt == "edge-list":
        return _parse_edge_list(text)
    raise GraphError(f"unknown graph format {fmt!r}")


def header(fmt: str, n: int, m: int) -> str:
    """The first line of a graph of ``n`` vertices and ``m`` edges in ``fmt``."""
    if fmt == "dimacs-col":
        return f"p edge {n} {m}\n"
    if fmt == "edge-list":
        return f"# n={n}\n"
    raise GraphError(f"unknown graph format {fmt!r}")


def edge_text(fmt: str, lines: EdgeLines, shift: int = 0) -> str:
    """The ``fmt`` edge lines of ``lines``, every id ``shift`` higher."""
    if fmt not in _LINES:
        raise GraphError(f"unknown graph format {fmt!r}")
    line, base = _LINES[fmt]
    return lines.render(line, shift + base)


def serialize_graph(g: Graph, fmt: str) -> str:
    return "".join([header(fmt, g.n, g.m), *(edge_text(fmt, lines) for lines in edge_runs(g.adjacency))])


def sniff_format(path: str) -> str:
    return "dimacs-col" if path.endswith(".col") else "edge-list"


def _check_edge(adj: list, n: int, u: int, v: int, lineno: int) -> None:
    """Raise on a self-loop or an out-of-range edge read on line ``lineno``;
    warn if ``{u, v}`` is already in the neighbour sets ``adj``."""
    if u == v:
        raise GraphError(f"line {lineno}: self-loop at vertex {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise GraphError(f"line {lineno}: edge ({u}, {v}) out of range for n={n}")
    if v in adj[u]:
        key = (u, v) if u < v else (v, u)
        warnings.warn(f"line {lineno}: duplicate edge {key}, ignoring", stacklevel=3)


def _graph(adj: list) -> Graph:
    """The graph whose vertex ``v`` has the neighbour set ``adj[v]``."""
    return Graph(len(adj), tuple(map(tuple, map(sorted, adj))))


def _parse_dimacs(text: str) -> Graph:
    n, adj = 0, None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        tag = parts[0]
        if tag == "e":
            if adj is None:
                raise GraphError(f"line {lineno}: edge before problem line")
            try:
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
            except (IndexError, ValueError) as exc:
                raise GraphError(f"line {lineno}: malformed edge line {raw.strip()!r}") from exc
            if u == v or not (0 <= u < n and 0 <= v < n) or v in adj[u]:
                _check_edge(adj, n, u, v, lineno)  # raises, or warns of a duplicate
            adj[u].add(v)
            adj[v].add(u)
        elif tag.startswith("c"):
            continue
        elif tag == "p":
            if adj is not None:
                raise GraphError(f"line {lineno}: repeated problem line")
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise GraphError(f"line {lineno}: malformed problem line {raw.strip()!r}")
            try:
                n = int(parts[2])
            except ValueError as exc:
                raise GraphError(f"line {lineno}: bad vertex count") from exc
            if n < 0:
                raise GraphError(f"line {lineno}: negative vertex count")
            adj = [set() for _ in range(n)]
        else:
            raise GraphError(f"line {lineno}: unrecognized line {raw.strip()!r}")
    if adj is None:
        raise GraphError("missing 'p edge <n> <m>' header")
    return _graph(adj)


def _parse_edge_list(text: str) -> Graph:
    """Two passes over the lines: the vertex count is known only once every
    line is read (the ``# n=`` header may come last, and without one it is
    the largest id + 1), and every syntax error outranks a range error."""
    declared_n = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if parts[0].startswith("#"):
            line = raw.strip()
            body = line.lstrip("#").strip()
            if body.startswith("n="):
                try:
                    declared_n = int(body[2:])
                except ValueError as exc:
                    raise GraphError(f"line {lineno}: bad vertex count in {line!r}") from exc
            continue
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got {raw.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphError(f"line {lineno}: non-integer vertex id in {raw.strip()!r}") from exc
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: negative vertex id in {raw.strip()!r}")
        pairs.append((lineno, u, v))

    max_id = max((max(u, v) for _, u, v in pairs), default=-1)
    n = declared_n if declared_n is not None else max_id + 1
    if n < 0:
        raise GraphError(f"negative vertex count {n}")
    adj = [set() for _ in range(n)]
    for lineno, u, v in pairs:
        if u == v or u >= n or v >= n or v in adj[u]:  # ids are >= 0 here
            _check_edge(adj, n, u, v, lineno)
        adj[u].add(v)
        adj[v].add(u)
    return _graph(adj)
