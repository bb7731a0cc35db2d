"""Immutable undirected simple graph with dense 0-based vertex ids.

An edge sequence has one form: a flat list of sorted ``ends``,
``[u0, v0, u1, v1, ...]``, each edge (u, v) with u < v once, in (u, v)
order (:func:`ends_of` takes it from rows).  A parsed graph is
:class:`SortedEdges` (see ``io``), and :meth:`Graph.from_sorted` is the one
builder of rows from sorted ends; :meth:`Graph.from_edges` is for the small
named graphs, the padding components and the gadget blueprints.  The CLI's
regularize, verify (but for the oracle) and recover build no graph of G or
G', and stats one of G's vertices with edges only.  The whole-graph queries
below each make one pass over the adjacency.

A reduced graph G' is its sorted ends below the first gadget block, then
the blocks, and :class:`Pieces` is its one description: the constructor
writes and builds G' from it, and the verifier regenerates G' from its own
edges and blueprint.  A plain graph is a :class:`Pieces` with no blocks, so
every graph's text and content hash come from :meth:`Pieces.texts`: ends
through the one emitter, :func:`render`, and blocks a window of ids at a
time, most windows a template of their phase in the block pattern with the
id prefixes filled in (:func:`block_texts`).  G keeps its canonical text,
when it was read from one, and the text it was hashed from
(:class:`SortedEdges`), and each long run of its edges in G' between two
port insertions (:func:`splice`) is sliced from them, so with few ports a
command renders each edge of G once, for its content hash, or not at all.
:meth:`Pieces.all_ends` gives the integer ends, for a :class:`Graph` of G'
and for comparing edges.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from itertools import compress, repeat
from math import gcd
from operator import le, sub
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple


class GraphError(ValueError):
    """Raised on malformed graph input (bad ids, bad format, bad arguments)."""


class InfeasibleError(GraphError):
    """Raised when a well-formed request cannot be satisfied, e.g. a target
    degree below the input's maximum degree."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph.

    ``adjacency[v]`` is the strictly increasing tuple of neighbors of ``v``.
    Instances are immutable and safe to share between threads; all
    transformations return new graphs.
    """

    n: int
    adjacency: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError(f"negative vertex count {self.n}")
        if len(self.adjacency) != self.n:
            raise GraphError("adjacency length does not match vertex count")

    @staticmethod
    def from_edges(n: int, edges: Iterable[Tuple[int, int]]) -> "Graph":
        """Build a graph from an edge iterable; duplicates are collapsed."""
        if n < 0:
            raise GraphError(f"negative vertex count {n}")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        return Graph(n, tuple(tuple(sorted(s)) for s in adj))

    @staticmethod
    def from_sorted(n: int, ends: Iterable[int]) -> "Graph":
        """The graph on ``n`` vertices with the sorted edges ``ends``, its rows built by appending."""
        adj = defaultdict(list)
        ends = iter(ends)
        for u, v in zip(ends, ends):
            adj[u].append(v)
            adj[v].append(u)
        rows: List[Row] = [()] * n
        for v, row in adj.items():
            rows[v] = tuple(row)
        return Graph(n, tuple(rows))

    # -- queries ---------------------------------------------------------

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self.adjacency[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    def neighbors(self, v: int) -> Tuple[int, ...]:
        self._check_vertex(v)
        return self.adjacency[v]

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, lexicographic order."""
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise GraphError(f"vertex {v} out of range for n={self.n}")

    def content_hash(self) -> str:
        """SHA-256 of the canonical (n, sorted edge list) encoding."""
        return SortedEdges.of(self).digest


# -- edges as sorted ends, and their text -----------------------------------

Row = Tuple[int, ...]


def ends_of(rows: Sequence[Row], first: int = 0) -> List[int]:
    """The sorted ends of the edges of ``rows``, row i being vertex ``first + i``."""
    return [x for u, row in enumerate(rows, first) for v in row if v > u for x in (u, v)]


def render(ends: List[int], line: str, shift: int) -> str:
    """``line % (u + shift, v + shift)`` for each edge (u, v) of ``ends``, joined."""
    return (line * (len(ends) // 2)) % tuple([x + shift for x in ends] if shift else ends)


_RUN = 4096  # edges, or block ids, per piece, so the text and ends of a whole graph come in pieces


def end_runs(ends: List[int], start: int = 0, stop: Optional[int] = None) -> Iterator[List[int]]:
    """``ends[start:stop]`` a run of ``_RUN`` edges at a time."""
    stop = len(ends) if stop is None else stop
    return (ends[first : min(first + 2 * _RUN, stop)] for first in range(start, stop, 2 * _RUN))


Line = Tuple[str, int]  # an edge line's template and the id of vertex 0 in it
HASH_LINE: Line = ("%d %d\n", 0)  # the content encoding's

_WINDOW = 100  # ids per window of block text; a power of ten, so an id is a prefix and its last digits
_MARKS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"  # a template's prefixes, characters no edge line has


def block_texts(rows: Sequence[Row], first: int, count: int, lines: Sequence[Line]) -> Iterator[Tuple[str, ...]]:
    """The edges inside ``count`` consecutive blocks of the blueprint
    ``rows`` from id ``first``, as :func:`render` gives them in
    each (line, base) of ``lines``, a piece of about ``_RUN`` ids at a time.

    Windows of ``_WINDOW`` ids at its multiples cut the blocks.  From the
    second window on, an id renders as a prefix, the window's number or
    one of the next few, and its last digits, and the edges whose lower end
    lies in a window depend only on its phase, where it starts in a block.
    So the first window of a phase that recurs renders a template with a
    marker for each prefix, and each window of that phase is the template
    with its markers replaced.  The other windows, the partial ones at both
    ends, the first, and every window when one reaches more prefixes than
    ``_MARKS`` has, are rendered from their ends."""
    if not count:
        return
    size, width = len(rows), _WINDOW
    end, block = first + count * size, ends_of(rows)
    starts = block[::2]
    low, high = max(1, -(-first // width)), end // width  # the whole windows from the second, by number
    period = size // gcd(size, width)  # windows from one of a phase to the next
    reach = width + size + max(base for _, base in lines)  # past the highest offset from a window's start
    prefixes = -(-reach // width)
    if prefixes > len(_MARKS):
        period = high  # more prefixes than markers: no phase recurs
    step = width * max(1, _RUN // width)
    made = {}  # per phase, each line's template and the markers in it
    digits = len(str(width)) - 1
    tokens = [_MARKS[x // width] + "%0*d" % (digits, x % width) for x in range(reach)] if high - low > period else []

    def span(lo: int, hi: int) -> List[int]:
        """The ends of the edges whose lower end is in ``lo..hi-1``."""
        last = (hi - 1 - first) // size
        ends = [x + at for at in range(first + (lo - first) // size * size, hi, size) for x in block]
        below = bisect_left(starts, (lo - first) % size)
        above = len(starts) - bisect_left(starts, hi - first - last * size)
        return ends[2 * below : len(ends) - 2 * above]

    def plain(lo: int, hi: int) -> Iterator[Tuple[int, Tuple[str, ...]]]:
        for at in range(lo, hi, step):
            ends = span(at, min(at + step, hi))
            yield min(step, hi - at), tuple(render(ends, line, base) for line, base in lines)

    def window(k: int) -> Tuple[str, ...]:
        at = k * width
        phase = (at - first) % size
        if phase not in made:
            offsets = [x - at for x in span(at, at + width)]
            made[phase] = []
            for line, base in lines:
                text = line.replace("%d", "%s") * (len(offsets) // 2) % tuple(map(tokens[base:].__getitem__, offsets))
                made[phase].append((text, [j for j in range(prefixes) if _MARKS[j] in text]))
        return tuple(_fill(text, marks, k) for text, marks in made[phase])

    def units() -> Iterator[Tuple[int, Tuple[str, ...]]]:
        at = first
        for k in range(low, high):
            if k + period < high or k - period >= low:  # its phase recurs
                yield from plain(at, k * width)
                yield width, window(k)
                at = (k + 1) * width
        yield from plain(at, end)

    held, texts = 0, []
    for ids, unit in units():
        held += ids
        texts.append(unit)
        if held >= step:
            yield tuple(map("".join, zip(*texts)))
            held, texts = 0, []
    if texts:
        yield tuple(map("".join, zip(*texts)))


def _fill(template: str, marks: List[int], k: int) -> str:
    """A window's text: ``template`` with each marker j of ``marks`` replaced by the prefix ``k + j``."""
    for j in marks:
        template = template.replace(_MARKS[j], str(k + j))
    return template


_COPY = 32  # G's edges in a run between two port insertions, at least, for Pieces.texts to copy their text, not render it


def _slicer(text: str, line: Line, ends: List[int]) -> Callable[[int, int], str]:
    """``cut(a, b)``, the part of ``text``, the sorted ``ends`` rendered in
    ``line``, that holds ``ends[a:b]``, for calls with ascending ``a`` and
    ``b``.  Each edge is located by its own line, preceded by the newline
    that ends the one before, searched for from the last edge located."""
    template, base = line
    last = [0, 0]  # the last edge located, as an index into ``ends``, and its offset in ``text``

    def offset(x: int) -> int:
        if x == len(ends):
            return len(text)
        if x != last[0]:
            last[:] = x, text.index("\n" + template % (ends[x] + base, ends[x + 1] + base), last[1]) + 1
        return last[1]

    return lambda a, b: text[offset(a) : offset(b)]


class Pieces(NamedTuple):
    """A reduced graph G' in its one description: its sorted ``ends``
    below its first gadget block, then ``count`` blocks of the blueprint
    ``rows`` from the id ``first``.  The edges come a piece at a time, as
    integer ends or as text.

    ``source``, when given, is G, whose edges lead the list that
    :func:`splice` made ``ends`` from, and ``cuts`` that splice's record of
    where each run of that list between two insertions went.  Then the
    text of a run of at least ``_COPY`` of G's edges is copied from G's
    own text in each line G has one for (:attr:`SortedEdges.texts`)."""

    ends: List[int]
    rows: Sequence[Row]
    first: int
    count: int
    source: Optional["SortedEdges"] = None
    cuts: Sequence[int] = (0, 0)

    @property
    def n(self) -> int:
        return self.first + self.count * len(self.rows)

    def all_ends(self) -> Iterator[List[int]]:
        """The ends of every edge in order, a piece at a time: the ends a run
        at a time, then the blocks a tile of about ``_RUN`` ids at a time,
        each tile the first one shifted."""
        yield from end_runs(self.ends)
        size, count = len(self.rows), self.count
        per, block = max(1, _RUN // max(1, size)), ends_of(self.rows)
        tile = [x + b * size for b in range(min(count, per)) for x in block]
        for b in range(0, count, per):
            shift = self.first + b * size
            yield [x + shift for x in tile[: len(block) * (count - b)]]

    def texts(self, *lines: Line) -> Iterator[Tuple[str, ...]]:
        """The text of the edges in order in each (line, base) of ``lines``,
        a piece at a time, then the blocks' :func:`block_texts`.  The ends
        are rendered a run at a time, but for the runs of G's edges that
        :meth:`_copied` picks, which come a run at a time from G's text in
        each line that G has one for."""
        ends, done = self.ends, 0
        copied = self._copied(lines)
        if copied:
            source = self.source
            slicers = [_slicer(source.texts[line], line, source.ends) if line in source.texts else None for line in lines]
        for first, stop, at in copied:
            for run in end_runs(ends, done, at):
                yield tuple(render(run, line, base) for line, base in lines)
            for a in range(first, stop, 2 * _RUN):
                b = min(a + 2 * _RUN, stop)
                yield tuple(cut(a, b) if cut else render(source.ends[a:b], *line) for cut, line in zip(slicers, lines))
            done = at + stop - first
        for run in end_runs(ends, done):
            yield tuple(render(run, line, base) for line, base in lines)
        yield from block_texts(self.rows, self.first, self.count, lines)

    def _copied(self, lines: Sequence[Line]) -> List[Tuple[int, int, int]]:
        """The runs of G's edges in ``ends`` between two insertions that are
        at least ``_COPY`` edges long, as (first, stop, at): G's ends
        first..stop-1 are those of ``ends`` from ``at``.  None without a
        text of G in one of ``lines``."""
        source, cuts = self.source, self.cuts
        if source is None or not any(line in source.texts for line in lines):
            return []
        firsts, m = cuts[::2], len(source.ends)
        stops = firsts[1 : bisect_left(firsts, m)] + [m]  # the runs that start among G's ends, each cut at their end
        return list(compress(zip(firsts, stops, cuts[1::2]), map(le, repeat(2 * _COPY), map(sub, stops, firsts))))

    def digest(self) -> str:
        """:func:`content_digest` of these edges."""
        return content_digest(self.n, (text for text, in self.texts(HASH_LINE)))


def splice(ends: List[int], ports: Iterable[Tuple[int, Iterable[int]]]) -> Tuple[List[int], List[int]]:
    """The sorted ``ends`` with each edge (u, w), w in ``ws``, after its last
    (x, y) with x <= u, per ``(u, ws)`` of ``ports``: u and w ascending, w
    above ``ends``.  With it, where each run of ``ends`` between two
    insertions went, as the flat pairs ``[0, 0, j1, i1, j2, i2, ...]``: the
    run from ``ends[j]`` is in the result from its index ``i``."""
    us, out, done, cuts = ends[::2], [], 0, [0, 0]
    for u, ws in ports:
        at = 2 * bisect_right(us, u, done // 2)
        out += ends[done:at]  # in place: a concatenation would copy ``out`` again
        out += [x for w in ws for x in (u, w)]
        cuts += at, len(out)
        done = at
    out += ends[done:]
    return out, cuts


class SortedEdges(NamedTuple):
    """A graph as its vertex count, its sorted ``ends``, its
    :meth:`Graph.content_hash`, and ``texts``: per edge line, the text that
    the ends render to in it, kept for a G' of this G to copy its lines
    from (:class:`Pieces`), the content encoding's (:data:`HASH_LINE`)
    among them if any are kept."""

    n: int
    ends: List[int]
    digest: str
    texts: Mapping[Line, str] = MappingProxyType({})

    @classmethod
    def hashed(cls, n: int, ends: List[int], texts: Optional[Mapping[Line, str]] = None) -> "SortedEdges":
        """The graph on ``n`` vertices with the sorted ``ends``, hashed as a
        :class:`Pieces` with no blocks.  Given ``texts``, its text in some
        lines (maybe none), it keeps them and its text in the content
        encoding's line, rendered unless given, which it hashes; without,
        it hashes the text a run at a time and keeps none."""
        if texts is None:
            return cls(n, ends, Pieces(ends, (), n, 0).digest())
        texts = dict(texts)
        if HASH_LINE not in texts:
            texts[HASH_LINE] = "".join(text for text, in Pieces(ends, (), n, 0).texts(HASH_LINE))
        return cls(n, ends, content_digest(n, (texts[HASH_LINE],)), texts)

    @classmethod
    def of(cls, g: Graph) -> "SortedEdges":
        return cls.hashed(g.n, ends_of(g.adjacency))

    def graph(self) -> Graph:
        return Graph.from_sorted(self.n, self.ends)


def content_digest(n: int, texts: Iterable[str]) -> str:
    """SHA-256 of the content encoding of a graph on ``n`` vertices:
    ``n=<n>``, then ``texts``, its edges as :data:`HASH_LINE` renders them, in order."""
    sha = hashlib.sha256(f"n={n}\n".encode())
    for text in texts:
        sha.update(text.encode())
    return sha.hexdigest()


def is_independent_set(g: Graph, members: Iterable[int]) -> bool:
    """True iff no edge of ``g`` has both endpoints in ``members``."""
    s = set(members)
    check_ids(s, g.n)
    adjacency = g.adjacency
    return all(s.isdisjoint(adjacency[v]) for v in s)


def check_ids(ids: Iterable[int], n: int) -> None:
    """Raise :class:`GraphError` on the first of ``ids`` outside 0..n-1."""
    for v in ids:
        if not 0 <= v < n:
            raise GraphError(f"vertex {v} out of range for n={n}")


def triangle_count(g: Graph) -> int:
    """Number of vertex triples inducing a triangle."""
    return sum(1 for _ in triangles(g))


def triangles(g: Graph) -> Iterator[Tuple[int, int, int]]:
    """Yield every triangle (u, v, w) with u < v < w, in lexicographic order."""
    forward = [set(a[bisect_right(a, u):]) for u, a in enumerate(g.adjacency)]
    for u, v in g.edges():
        common = forward[u] & forward[v]
        if common:
            for w in sorted(common):
                yield (u, v, w)


# -- small named graphs used by the pipelines ---------------------------


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    """Star with center 0 and ``leaves`` leaves (total leaves + 1 vertices)."""
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
