"""Graph file formats: DIMACS .col and plain edge lists.

DIMACS .col: header ``p edge <n> <m>``, edges ``e <u> <v>`` 1-indexed,
``c`` comment lines ignored.  Edge list: one ``u v`` per line, 0-indexed,
with an optional ``# n=<n>`` header so isolated vertices survive the round
trip.  Serialization is byte-stable: edges are emitted in lexicographic
order.  :func:`header` and each format's edge line define its text.  A
graph's edge lines, serialized, written as G' by the constructor or
compared with a file by :func:`match`, are its :class:`~regmis.graph.Pieces`
rendered (:meth:`~regmis.graph.Pieces.texts`); a plain graph has no blocks,
and G''s runs of G's edges are copied from the text that
:func:`parse_edges` kept with G.

Every parse ends at one form: the vertex count and the sorted ends
(:func:`sorted_ends`), which :func:`parse_edges` hashes and keeps with
their text as :class:`SortedEdges` and from which :func:`parse_graph`
builds rows (:meth:`Graph.from_sorted`).  Ids and
counts are ASCII decimal integers in both readers.  *Canonical text* is exactly what
:func:`serialize_graph` emits: the header, then one edge line per edge
with ``u < v``, strictly increasing, every id in range, and in DIMACS a
header ``m`` equal to the number of edge lines.  It is read a chunk of
whole lines at a time with C-level passes: split, ``int``, re-render
with the format's line template and compare, then order and range
checks that carry the last edge across chunks.  A binary file can be
read so a part at a time: its header (:func:`canonical_header`), then
its next edge lines (:func:`canonical_prefix`).
Text known in advance, a reduced graph's :class:`~regmis.graph.Pieces`
rendered by :func:`texts`, is compared with the file unparsed
(:func:`match`), and :func:`edge_capacity` bounds the edge lines a file can hold.

At the first deviation the text goes to the line parser, which accepts
comments, blank lines, any edge order and duplicates, and names the line
of a fault.  It builds no neighbour sets: each edge line is checked
(syntax, range, self-loop) and kept as one key u * n + v (u < v) and its
line's number; the edge list checks ranges once every line is read, as
its vertex count is known only then.  The keys are sorted once, so a
repeated edge lands next to its first copy, and only then are the
repeats warned of, in line order, and dropped.  A declared n costs
nothing on either path until :func:`parse_graph` builds its rows.
"""

from __future__ import annotations

import os
import warnings
from array import array
from itertools import chain, islice, repeat
from operator import add, eq, lt, mul
from typing import BinaryIO, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .graph import HASH_LINE, Graph, GraphError, Line, Pieces, SortedEdges, ends_of, render

FORMATS = ("dimacs-col", "edge-list")
# per format: an edge line's template and the id of vertex 0 in it
_LINES = {"dimacs-col": ("e %d %d\n", 1), "edge-list": ("%d %d\n", 0)}
_CHUNK = 1 << 16  # a text is read in pieces at least this long (text_chunks), a file at most (file_chunks)


def parse_graph(text: str, fmt: str) -> Graph:
    """The graph of ``text``, read as :func:`parse_edges` reads it, in rows."""
    return Graph.from_sorted(*sorted_ends(text, fmt))


def parse_edges(text: str, fmt: str) -> SortedEdges:
    """The graph of ``text`` as :class:`SortedEdges`, kept with its text for
    a G' of it to copy; no graph is built.  The edge lines of canonical
    text are its text in the format's edge line, which in an edge list is
    the content encoding's, and that one is rendered otherwise."""
    n, ends, canonical = _read(text, fmt)
    return SortedEdges.hashed(n, ends, {_LINES[fmt]: text[text.index("\n") + 1 :]} if canonical else {})


def sorted_ends(text: str, fmt: str) -> Tuple[int, List[int]]:
    """The vertex count of ``text`` and its sorted edges, read as
    :func:`parse_edges` reads them, but neither hashed nor kept with text."""
    return _read(text, fmt)[:2]


def _read(text: str, fmt: str) -> Tuple[int, List[int], bool]:
    """The vertex count of ``text``, its sorted edges, and whether it is
    canonical text: read as canonical text, its header line and then the
    rest a chunk at a time (:func:`text_chunks`), or else by the line parser."""
    _line(fmt)  # raises on an unknown format
    chunks = text_chunks(text)
    first = next(chunks, "")
    cut = first.find("\n") + 1
    try:
        n, m = _counts(first[:cut], fmt)
        runs = _canonical_runs(chain((first[cut:],), chunks), fmt, n, m)
        return n, list(chain.from_iterable(runs)), True
    except NotCanonical:
        return (*(_parse_dimacs(text) if fmt == "dimacs-col" else _parse_edge_list(text)), False)


def header(fmt: str, n: int, m: int) -> str:
    """The first line of a graph of ``n`` vertices and ``m`` edges in ``fmt``."""
    if fmt == "dimacs-col":
        return f"p edge {n} {m}\n"
    if fmt == "edge-list":
        return f"# n={n}\n"
    raise GraphError(f"unknown graph format {fmt!r}")


def _line(fmt: str) -> Line:
    """The edge line of ``fmt``: its template and the id of vertex 0 in it."""
    if fmt not in _LINES:
        raise GraphError(f"unknown graph format {fmt!r}")
    return _LINES[fmt]


def serialize_graph(g: Graph, fmt: str) -> str:
    ends = ends_of(g.adjacency)
    texts = Pieces(ends, (), g.n, 0).texts(_line(fmt))
    return "".join([header(fmt, g.n, len(ends) // 2), *(text for text, in texts)])


def sniff_format(path: str) -> str:
    return "dimacs-col" if path.endswith(".col") else "edge-list"


# -- canonical text ---------------------------------------------------------


class NotCanonical(Exception):
    """Raised by the canonical reader at the first deviation from canonical text."""


def canonical_header(f: BinaryIO, fmt: str) -> Tuple[int, Optional[int]]:
    """The vertex count, and in DIMACS the edge count, of the canonical
    ``fmt`` header that the binary file ``f`` starts with, read as
    :func:`parse_edges` reads it; ``f`` is left at the line after it.
    Raises :class:`NotCanonical` on any other first line."""
    _line(fmt)  # raises on an unknown format
    return _counts(_ascii(f.readline(_CHUNK)), fmt)


def canonical_prefix(f: BinaryIO, fmt: str, n: int, count: int) -> Iterator[List[int]]:
    """The next ``count`` edge lines of the binary file ``f``, read as the
    canonical ``fmt`` edges of a graph on ``n`` vertices a chunk at a time,
    as :func:`parse_edges` reads them; ``f`` is left at the line after
    them once they are iterated.  Raises :class:`NotCanonical` at the first
    deviation, and when the file has fewer lines."""
    return _canonical_runs(_first_lines(f, count), fmt, n, count)


def texts(fmt: str, pieces: Pieces) -> Iterator[Tuple[str, str]]:
    """The ``fmt`` edge lines and the content encoding's text
    (:data:`~regmis.graph.HASH_LINE`) of ``pieces``, a piece at a time
    (:meth:`~regmis.graph.Pieces.texts`); where the format's edge line is
    the content encoding's, one text is both."""
    line = _line(fmt)
    if line == HASH_LINE:
        return ((text, text) for text, in pieces.texts(HASH_LINE))
    return pieces.texts(line, HASH_LINE)


def match(f: BinaryIO, fmt: str, pieces: Pieces) -> Iterator[str]:
    """The content encoding's text of each piece of ``pieces`` once its
    ``fmt`` edge lines are the next bytes of the binary file ``f``
    (:func:`texts`).  Raises :class:`NotCanonical` at the first difference,
    and when bytes remain after the last piece."""
    for text, hashed in texts(fmt, pieces):
        data = text.encode()
        if f.read(len(data)) != data:
            raise NotCanonical
        yield hashed
    if f.read(1):
        raise NotCanonical


def edge_capacity(f: BinaryIO, fmt: str) -> int:
    """The most ``fmt`` edge lines the binary file ``f`` can hold, each at
    least as long as the shortest; ``f`` is left at offset 0."""
    size = f.seek(0, os.SEEK_END)
    f.seek(0)
    return size // len(render([0, 1], *_line(fmt)))


def _counts(line: str, fmt: str) -> Tuple[int, Optional[int]]:
    """``n``, and in DIMACS ``m``, of the header ``line``, if it is the canonical one."""
    words = line.split()
    try:
        if fmt == "dimacs-col":
            n, m = int(words[2]), int(words[3])
        else:
            n, m = int(words[1][2:]), None
    except (IndexError, ValueError):
        raise NotCanonical from None
    if n < 0 or header(fmt, n, m) != line:
        raise NotCanonical
    return n, m


def _canonical_runs(chunks: Iterable[str], fmt: str, n: int, m: Optional[int]) -> Iterator[List[int]]:
    """The 0-based edges of the canonical ``fmt`` edge lines that ``chunks``,
    split after newlines, join to, a chunk at a time, below the header of
    ``n`` and ``m``.  Raises :class:`NotCanonical` at the first deviation."""
    line, base = _LINES[fmt]
    last, count = -1, 0  # the key of the edge before the chunk, and the edges so far
    for chunk in chunks:
        if not chunk:
            continue
        tokens = chunk.split()
        if fmt == "dimacs-col":
            del tokens[::3]  # each line's "e", which the rendering below checks
        try:
            ends = list(map(int, tokens))
        except ValueError:
            raise NotCanonical from None
        k = len(ends) // 2
        if len(ends) % 2 or (line * k) % tuple(ends) != chunk:
            raise NotCanonical
        if base:
            ends = [x - base for x in ends]
        us, vs = ends[::2], ends[1::2]
        if min(us) < 0 or max(vs) >= n or not all(map(lt, us, vs)):
            raise NotCanonical
        keys = list(map(add, map(mul, us, repeat(n)), vs))  # u * n + v, in the order of (u, v)
        if not (last < keys[0] and all(map(lt, keys, islice(keys, 1, None)))):
            raise NotCanonical
        last, count = keys[-1], count + k
        yield ends
    if m is not None and count != m:
        raise NotCanonical


def text_chunks(text: str) -> Iterator[str]:
    """``text`` in pieces that each run to the first newline at least
    ``_CHUNK`` characters in, so pieces end where lines do; only the last
    may lack a final newline."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        yield text[start:end]
        start = end


def file_chunks(f: BinaryIO) -> Iterator[str]:
    """The binary file ``f`` in pieces of whole lines of at most ``_CHUNK``
    bytes, or of part of a longer line, each decoded as ASCII; raises
    :class:`NotCanonical` on any other byte."""
    rest = b""
    while True:
        block = f.read(_CHUNK - len(rest))
        if not block:
            break
        data = rest + block
        cut = data.rfind(b"\n") + 1 or len(data)
        yield _ascii(data[:cut])
        rest = data[cut:]
    if rest:
        yield _ascii(rest)


def _first_lines(f: BinaryIO, count: int) -> Iterator[str]:
    """:func:`file_chunks` of ``f`` up to the end of its next ``count``
    lines, then ``f`` is put there.  Newlines are counted a chunk at a
    time, and only the chunk that holds the last line is split."""
    at = f.tell()
    for chunk in file_chunks(f):
        lines = chunk.count("\n")
        if lines >= count:
            chunk = chunk[: len(chunk) - len(chunk.split("\n", count)[-1])]
        yield chunk
        at += len(chunk)  # ASCII, so characters are bytes
        count -= lines
        if count <= 0:
            break
    f.seek(at)


def _ascii(piece: bytes) -> str:
    try:
        return piece.decode("ascii")
    except UnicodeDecodeError:
        raise NotCanonical from None


# -- the line parser ----------------------------------------------------------


def int_parser(text: str) -> Callable[[str], int]:
    """The ``int`` that reads only ASCII decimal integers in ``text``: ``int``
    itself when ``text`` is ASCII without a ``_``, else one that also
    raises ValueError on ``_`` separators and on other digits."""
    return int if text.isascii() and "_" not in text else _ascii_int


def _ascii_int(word: str) -> int:
    if "_" in word or not word.strip().isascii():
        raise ValueError(f"not an ASCII decimal integer: {word!r}")
    return int(word)


def _check_edge(n: int, u: int, v: int, lineno: int) -> None:
    """Raise on a self-loop or an out-of-range edge read on line ``lineno``."""
    if u == v:
        raise GraphError(f"line {lineno}: self-loop at vertex {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise GraphError(f"line {lineno}: edge ({u}, {v}) out of range for n={n}")


def _sorted_ends(n: int, keys: List[int], lines: Sequence[int]) -> List[int]:
    """The distinct edges of ``keys`` (u * n + v, u < v, for an edge read on
    line ``lines[i]``), as sorted ends; only when two keys
    are equal are the repeated lines looked for and warned of, in line order."""
    ordered = sorted(keys)
    if any(map(eq, ordered, islice(ordered, 1, None))):
        seen = set()
        for key, lineno in zip(keys, lines):
            if key in seen:
                warnings.warn(f"line {lineno}: duplicate edge {divmod(key, n)}, ignoring", stacklevel=3)
            seen.add(key)
        ordered = sorted(seen)
    return list(chain.from_iterable(map(divmod, ordered, repeat(n))))


def _parse_dimacs(text: str) -> Tuple[int, List[int]]:
    n, problem = 0, None  # the problem line's number and edge count
    to_int = int_parser(text)
    keys, lines = [], array("q")  # each edge line's key and its number
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            parts = raw.split()
            if not parts:
                continue
            tag = parts[0]
            if tag == "e":
                if problem is None:
                    raise GraphError(f"line {lineno}: edge before problem line")
                try:
                    u, v = to_int(parts[1]) - 1, to_int(parts[2]) - 1
                except (IndexError, ValueError) as exc:
                    raise GraphError(f"line {lineno}: malformed edge line {raw.strip()!r}") from exc
                if u == v or not (0 <= u < n and 0 <= v < n):
                    _check_edge(n, u, v, lineno)
                keys.append(u * n + v if u < v else v * n + u)
                lines.append(lineno)
            elif tag.startswith("c"):
                continue
            elif tag == "p":
                if problem is not None:
                    raise GraphError(f"line {lineno}: repeated problem line")
                if len(parts) != 4 or parts[1] not in ("edge", "col"):
                    raise GraphError(f"line {lineno}: malformed problem line {raw.strip()!r}")
                try:
                    n = to_int(parts[2])
                except ValueError as exc:
                    raise GraphError(f"line {lineno}: bad vertex count") from exc
                if n < 0:
                    raise GraphError(f"line {lineno}: negative vertex count")
                problem = (lineno, parts[3])
            else:
                raise GraphError(f"line {lineno}: unrecognized line {raw.strip()!r}")
    except GraphError:
        _sorted_ends(n, keys, lines)  # the repeats before the fault warn first
        raise
    if problem is None:
        raise GraphError("missing 'p edge <n> <m>' header")
    distinct = _sorted_ends(n, keys, lines)
    _check_edge_count(problem, len(lines), len(distinct) // 2)
    return n, distinct


def _check_edge_count(problem: Tuple[int, str], edge_lines: int, distinct: int) -> None:
    """Warn when the problem line's edge count is neither the number of
    edge lines nor the number of distinct edges.  A warning, not an error:
    some files count each edge in both directions."""
    lineno, declared = problem
    try:
        m: Optional[int] = int_parser(declared)(declared)
    except ValueError:
        m = None
    if m not in (edge_lines, distinct):
        warnings.warn(
            f"line {lineno}: problem line declares {declared} edges, "
            f"but the file has {edge_lines} edge lines and {distinct} distinct edges",
            stacklevel=3,
        )


def _parse_edge_list(text: str) -> Tuple[int, List[int]]:
    """Two passes: the vertex count is known only once every line is read
    (the ``# n=`` header may come last, and without one it is the largest
    id + 1), and every syntax error outranks a range error."""
    declared_n, to_int = None, int_parser(text)
    ends, lines = [], array("q")  # each edge line's ids and its number
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if parts[0].startswith("#"):
            line = raw.strip()
            body = line.lstrip("#").strip()
            if body.startswith("n="):
                try:
                    declared_n = to_int(body[2:])
                except ValueError as exc:
                    raise GraphError(f"line {lineno}: bad vertex count in {line!r}") from exc
            continue
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got {raw.strip()!r}")
        try:
            u, v = to_int(parts[0]), to_int(parts[1])
        except ValueError as exc:
            raise GraphError(f"line {lineno}: non-integer vertex id in {raw.strip()!r}") from exc
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: negative vertex id in {raw.strip()!r}")
        ends += (u, v)
        lines.append(lineno)

    n = declared_n if declared_n is not None else max(ends, default=-1) + 1
    if n < 0:
        raise GraphError(f"negative vertex count {n}")
    us, vs = ends[::2], ends[1::2]
    keys = list(map(add, map(mul, map(min, us, vs), repeat(n)), map(max, us, vs)))
    if any(map(eq, us, vs)) or max(ends, default=-1) >= n:  # ids are >= 0 here
        i = next(i for i, (u, v) in enumerate(zip(us, vs)) if u == v or max(u, v) >= n)
        _sorted_ends(n, keys[:i], lines)  # the repeats before the fault warn first
        _check_edge(n, us[i], vs[i], lines[i])
    return n, _sorted_ends(n, keys, lines)
