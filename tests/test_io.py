import inspect
import random
import tracemalloc
import warnings
from io import BytesIO
from itertools import chain

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from regmis import graph, io
from regmis.graph import Graph, GraphError, SortedEdges, complete_graph
from regmis.io import parse_graph, serialize_graph
from regmis.reduction import plan_reduction

from conftest import TEXT_EDITS, edit_canonical, path_graph, random_graph


def test_parse_dimacs_path():
    g = parse_graph("p edge 3 2\ne 1 2\ne 2 3\n", "dimacs-col")
    assert g.adjacency == path_graph(3).adjacency


def test_serialize_edge_list_k3():
    text = serialize_graph(complete_graph(3), "edge-list")
    assert text.splitlines()[1:] == ["0 1", "0 2", "1 2"]


def test_dimacs_out_of_range_edge():
    with pytest.raises(GraphError):
        parse_graph("p edge 2 1\ne 1 3\n", "dimacs-col")


def test_dimacs_comments_and_missing_header():
    g = parse_graph("c hello\np edge 2 1\ne 1 2\n", "dimacs-col")
    assert g.m == 1
    with pytest.raises(GraphError):
        parse_graph("e 1 2\n", "dimacs-col")


def test_duplicate_edge_warns_and_dedups():
    with pytest.warns(UserWarning):
        g = parse_graph("p edge 2 2\ne 1 2\ne 2 1\n", "dimacs-col")
    assert g.m == 1
    with pytest.warns(UserWarning):
        g = parse_graph("0 1\n1 0\n", "edge-list")
    assert g.m == 1


def test_edge_list_header_keeps_isolated_vertices():
    g = parse_graph("# n=5\n0 1\n", "edge-list")
    assert g.n == 5 and g.m == 1


def test_edge_list_empty_graph():
    assert parse_graph("", "edge-list").n == 0
    assert parse_graph("# n=3\n", "edge-list").n == 3


def test_malformed_edge_list():
    with pytest.raises(GraphError):
        parse_graph("0 1 2\n", "edge-list")
    with pytest.raises(GraphError):
        parse_graph("a b\n", "edge-list")


def test_unknown_format():
    with pytest.raises(GraphError):
        parse_graph("", "gml")


@pytest.mark.parametrize("fmt", ["dimacs-col", "edge-list"])
def test_round_trip_random(fmt):
    rng = random.Random(3)
    for _ in range(25):
        g = random_graph(rng, rng.randint(0, 12), 0.4)
        back = parse_graph(serialize_graph(g, fmt), fmt)
        assert back.n == g.n
        assert back.adjacency == g.adjacency


@pytest.mark.parametrize("fmt", ["dimacs-col", "edge-list"])
def test_serialization_is_byte_stable(fmt):
    g = Graph.from_edges(5, [(3, 1), (0, 4), (1, 0)])
    assert serialize_graph(g, fmt) == serialize_graph(
        Graph.from_edges(5, [(0, 1), (1, 3), (4, 0)]), fmt
    )


# -- the single-pass parsers against Graph.from_edges ----------------------


def noisy_text(rng, n, edges, fmt, header=True):
    """``edges`` as ``fmt`` text with comments, blank lines, surrounding
    whitespace, reversed edges and repeated edges; returns the text and the
    number of repeats."""
    repeats = [rng.choice(edges) for _ in range(rng.randint(0, 3))] if edges else []
    listed = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges + repeats]
    rng.shuffle(listed)
    if fmt == "dimacs-col":
        head = [f"p {rng.choice(['edge', 'col'])} {n} {len(edges)}"]
        body = [f"e {u + 1} {v + 1}" for u, v in listed]
        comment = "c a comment"
    else:
        head = [f"# n={n}"] if header else []
        body = [f"{u} {v}" for u, v in listed]
        comment = "# a comment"
    lines = [comment] * rng.randint(0, 2) + head
    for line in body:
        if rng.random() < 0.3:
            lines.append(rng.choice(["", "  ", comment]))
        lines.append(rng.choice(["", " ", "\t"]) + line + rng.choice(["", "  ", "\t "]))
    return "\n".join(lines) + rng.choice(["", "\n", "\n\n"]), len(repeats)


@pytest.mark.parametrize("fmt, header", [("dimacs-col", True), ("edge-list", True), ("edge-list", False)])
def test_parse_equals_from_edges(fmt, header):
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 14)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        text, repeats = noisy_text(rng, n, edges, fmt, header)
        if not header:
            n = max((v for _, v in edges), default=-1) + 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            g = parse_graph(text, fmt)
        assert g == Graph.from_edges(n, edges)
        assert len(caught) == repeats
        assert all("duplicate edge" in str(w.message) for w in caught)


MALFORMED = [
    ("dimacs-col", "e 1 2\np edge 2 1\n", "line 1: edge before problem line"),
    ("dimacs-col", "p edge 2 1\np edge 2 1\n", "line 2: repeated problem line"),
    ("dimacs-col", "p edge 2 1\n  e 1 \t\n", "line 2: malformed edge line 'e 1'"),
    ("dimacs-col", "p edge 2 1\ne a b\n", "line 2: malformed edge line 'e a b'"),
    ("dimacs-col", "p edge 2 1\ne 2 2\n", "line 2: self-loop at vertex 1"),
    ("dimacs-col", "p edge 2 1\ne 1 3\n", "line 2: edge (0, 2) out of range for n=2"),
    ("dimacs-col", "p edge 2 1\ne 0 1\n", "line 2: edge (-1, 0) out of range for n=2"),
    ("dimacs-col", "p edge -1 0\n", "line 1: negative vertex count"),
    ("dimacs-col", "p edge x 0\n", "line 1: bad vertex count"),
    ("dimacs-col", "p edge 3\n", "line 1: malformed problem line 'p edge 3'"),
    ("dimacs-col", "  p col 2 1  \n\n x 1 2 \n", "line 3: unrecognized line 'x 1 2'"),
    ("dimacs-col", "c only a comment\n", "missing 'p edge <n> <m>' header"),
    # ids are ASCII decimal: int() alone would read 1_0 as 10 and ١٠ as 10
    ("dimacs-col", "p edge 20 1\ne 1_0 2\n", "line 2: malformed edge line 'e 1_0 2'"),
    ("dimacs-col", "p edge ١٠ 0\n", "line 1: bad vertex count"),
    ("edge-list", "# n=abc\n0 1\n", "line 1: bad vertex count in '# n=abc'"),
    ("edge-list", "0 1 2\n", "line 1: expected 'u v', got '0 1 2'"),
    ("edge-list", "1 1\n0 1 2\n", "line 2: expected 'u v', got '0 1 2'"),
    ("edge-list", "a b\n", "line 1: non-integer vertex id in 'a b'"),
    ("edge-list", "0 -1\n", "line 1: negative vertex id in '0 -1'"),
    ("edge-list", "1 1\n", "line 1: self-loop at vertex 1"),
    ("edge-list", "# n=5\n0 1\n# n=1\n", "line 2: edge (0, 1) out of range for n=1"),
    ("edge-list", "# n=-1\n", "negative vertex count -1"),
    ("edge-list", "# n=-1\n0 1\n", "negative vertex count -1"),
    ("edge-list", "0 ٣\n", "line 1: non-integer vertex id in '0 ٣'"),
    ("edge-list", "# n=1_0\n0 1\n", "line 1: bad vertex count in '# n=1_0'"),
]


@pytest.mark.parametrize("fmt, text, message", MALFORMED)
def test_malformed_input_message(fmt, text, message):
    with pytest.raises(GraphError) as info:
        parse_graph(text, fmt)
    assert str(info.value) == message


def test_duplicate_warned_before_a_later_error():
    with pytest.warns(UserWarning, match=r"line 3: duplicate edge \(0, 1\)"):
        with pytest.raises(GraphError, match=r"line 4: edge \(0, 3\) out of range"):
            parse_graph("p edge 3 2\ne 1 2\ne 2 1\ne 1 4\n", "dimacs-col")


# -- duplicate edges ----------------------------------------------------------


def caught_while(parse):
    """The warnings of ``parse()`` as (message, file, line), and its result or error message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse()
        except GraphError as exc:
            result = str(exc)
    return [(str(w.message), w.filename, w.lineno) for w in caught], result


def line_parser_call():
    """Where the line parsers are called from: the frame their warnings name."""
    source, first = inspect.getsourcelines(io._read)
    return io.__file__, first + next(i for i, line in enumerate(source) if "_parse_dimacs(" in line)


@pytest.mark.parametrize(
    "fmt, text",
    [
        ("dimacs-col", "p edge 4 3\ne 3 4\ne 1 2\nc a note\ne 4 3\ne 2 1\ne 2 3\ne 1 2\n"),
        ("edge-list", "# n=4\n2 3\n0 1\n# a note\n3 2\n1 0\n1 2\n0 1\n"),
    ],
)
def test_duplicates_warn_in_line_order_from_the_line_parsers_caller(fmt, text):
    """Repeats of edges read in another order warn in the order of their
    lines, and each warning names the line parser's caller."""
    caught, g = caught_while(lambda: parse_graph(text, fmt))
    messages = [f"line {n}: duplicate edge {e}, ignoring" for n, e in ((5, (2, 3)), (6, (0, 1)), (8, (0, 1)))]
    assert caught == [(m, *line_parser_call()) for m in messages]
    assert g == Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


@pytest.mark.parametrize(
    "fmt, text, warned, message",
    [
        ("dimacs-col", "p edge 3 2\ne 1 2\ne 2 1\ne x y\n", [3], "line 4: malformed edge line 'e x y'"),
        ("dimacs-col", "p edge 3 2\ne 1 2\ne 2 1\nx\n", [3], "line 4: unrecognized line 'x'"),
        ("dimacs-col", "p edge 3 2\ne 1 2\ne 2 1\ne 3 3\n", [3], "line 4: self-loop at vertex 2"),
        ("edge-list", "0 1\n1 0\n2 2\n", [2], "line 3: self-loop at vertex 2"),
        ("edge-list", "# n=3\n0 1\n1 0\n0 3\n", [3], "line 4: edge (0, 3) out of range for n=3"),
        # every syntax error of an edge list outranks its duplicates and range errors
        ("edge-list", "0 1\n1 0\n2 2\nx y\n", [], "line 4: non-integer vertex id in 'x y'"),
    ],
)
def test_duplicates_before_a_fault_warn_first(fmt, text, warned, message):
    caught, error = caught_while(lambda: parse_graph(text, fmt))
    assert (caught, error) == ([(f"line {n}: duplicate edge (0, 1), ignoring", *line_parser_call()) for n in warned], message)


def test_dimacs_edge_count_warning_counts_lines_and_distinct_edges():
    text = "p edge 3 7\ne 1 2\ne 2 1\ne 2 3\ne 3 2\ne 1 2\n"
    caught, g = caught_while(lambda: parse_graph(text, "dimacs-col"))
    messages = [f"line {n}: duplicate edge {e}, ignoring" for n, e in ((3, (0, 1)), (5, (1, 2)), (6, (0, 1)))]
    messages.append("line 1: problem line declares 7 edges, but the file has 5 edge lines and 2 distinct edges")
    assert caught == [(m, *line_parser_call()) for m in messages]
    assert g.m == 2


# -- the header's edge count ------------------------------------------------


@pytest.mark.parametrize(
    "text, message",
    [
        ("p edge 2 5\ne 1 2\n", "line 1: problem line declares 5 edges, but the file has 1 edge lines and 1 distinct edges"),
        ("c first\np edge 3 x\ne 1 2\n", "line 2: problem line declares x edges, but the file has 1 edge lines and 1 distinct edges"),
        ("p edge 3 0\ne 1 2\ne 2 3\n", "line 1: problem line declares 0 edges, but the file has 2 edge lines and 2 distinct edges"),
        ("p edge 3 ٢\ne 1 2\ne 2 3\n", "line 1: problem line declares ٢ edges, but the file has 2 edge lines and 2 distinct edges"),
    ],
)
def test_dimacs_edge_count_off_warns(text, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = parse_graph(text, "dimacs-col")
    assert [str(w.message) for w in caught] == [message]
    assert g.m == text.count("\ne ")


@pytest.mark.parametrize("m", [1, 2])
def test_dimacs_edge_count_of_lines_or_of_distinct_edges_is_quiet(m):
    """Some files count each edge once per direction: both counts are kept
    quiet, and only the duplicate line warns."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = parse_graph(f"p edge 2 {m}\ne 1 2\ne 2 1\n", "dimacs-col")
    assert g.m == 1
    assert [str(w.message) for w in caught] == ["line 3: duplicate edge (0, 1), ignoring"]


# -- a declared vertex count without edges ------------------------------------


@pytest.mark.parametrize(
    "text, fmt, path",
    [
        ("p edge 200000 0\n", "dimacs-col", "canonical"),
        ("c no edges\np edge 200000 0\n", "dimacs-col", "line"),
        ("# n=200000\n", "edge-list", "canonical"),
        ("# no edges\n# n=200000\n", "edge-list", "line"),
    ],
)
def test_vertices_without_edges_share_one_empty_row(monkeypatch, text, fmt, path):
    line_parses = []
    for name in ("_parse_dimacs", "_parse_edge_list"):
        real = getattr(io, name)
        monkeypatch.setattr(io, name, lambda t, real=real: line_parses.append(t) or real(t))
    tracemalloc.start()
    try:
        g = parse_graph(text, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (g.n, g.m) == (200000, 0)
    assert peak < 8 * 2**20
    assert bool(line_parses) == (path == "line")


# -- canonical text: the bulk path against the line parser ---------------------

def built(parse):
    """The line parser ``parse`` with its vertex count and sorted edges built into a graph."""
    return lambda text: SortedEdges(*parse(text), "").graph()


LINE_PARSERS = {"dimacs-col": built(io._parse_dimacs), "edge-list": built(io._parse_edge_list)}


def outcome(parse, text):
    """The graph (or the error message) and the warnings of ``parse(text)``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(text)
        except GraphError as exc:
            result = str(exc)
    return result, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("fmt", ["dimacs-col", "edge-list"])
@pytest.mark.parametrize("chunk", [24, 1 << 16])
def test_canonical_text_takes_the_bulk_path(monkeypatch, fmt, chunk):
    """Serialized graphs never reach the line parser, whatever the chunk
    size, and give back the graph."""
    monkeypatch.setattr(io, "_CHUNK", chunk)
    for name in ("_parse_dimacs", "_parse_edge_list"):
        monkeypatch.setattr(io, name, lambda text: pytest.fail("canonical text reached the line parser"))
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 14), rng.random())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parse_graph(serialize_graph(g, fmt), fmt) == g


@pytest.mark.parametrize("fmt", ["dimacs-col", "edge-list"])
@pytest.mark.parametrize("chunk", [24, 1 << 16])
def test_a_canonical_file_reads_in_parts(monkeypatch, fmt, chunk):
    """The header, then any number of edge lines, leaving the file at the
    next line; more lines than the file has is a deviation."""
    monkeypatch.setattr(io, "_CHUNK", chunk)
    g = random_graph(random.Random(3), 12, 0.4)
    text = serialize_graph(g, fmt)
    lines = text.splitlines(keepends=True)
    edges = [x for u, v in g.edges() for x in (u, v)]
    for count in range(g.m + 1):
        f = BytesIO(text.encode())
        assert io.canonical_header(f, fmt) == (g.n, g.m if fmt == "dimacs-col" else None)
        read = [x for run in io.canonical_prefix(f, fmt, g.n, count) for x in run]
        assert read == edges[: 2 * count]
        assert f.tell() == len("".join(lines[: count + 1]))
    f = BytesIO(text.encode())
    io.canonical_header(f, fmt)
    with pytest.raises(io.NotCanonical):
        list(io.canonical_prefix(f, fmt, g.n, g.m + 1))


def test_a_file_chunk_ends_with_a_last_line_that_has_no_newline():
    assert list(io.file_chunks(BytesIO(b"e 1 2\ne 2"))) == ["e 1 2\n", "e 2"]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    fmt=st.sampled_from(["dimacs-col", "edge-list"]),
    edit=st.sampled_from(TEXT_EDITS),
    index=st.integers(0, 10**6),
    seed=st.integers(0, 10**6),
    chunk=st.sampled_from([24, 1 << 16]),
)
def test_edited_canonical_text_parses_as_the_line_parser_does(monkeypatch, fmt, edit, index, seed, chunk):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 12), rng.random())
    text = edit_canonical(serialize_graph(g, fmt), fmt, edit, index)
    with monkeypatch.context() as patch:
        patch.setattr(io, "_CHUNK", chunk)
        got = outcome(lambda t: parse_graph(t, fmt), text)
    assert got == outcome(LINE_PARSERS[fmt], text)


@pytest.mark.parametrize(
    "fmt, text",
    [
        ("dimacs-col", "x edge 3 1\ne 1 2\n"),
        ("dimacs-col", "p edge 3 2\ne 1 2\nx 1 3\n"),
        ("dimacs-col", "p edge 3 1\ne 1\n2\n"),
        ("dimacs-col", "p edge 3 1\ne 1 3 \n"),
        ("edge-list", "# x=4\n0 1\n"),
        ("edge-list", "# n=4\n0 1 2 3\n"),
        ("edge-list", "# n=4\n0 1\t\n"),
    ],
)
def test_canonical_ids_in_other_lines_go_to_the_line_parser(fmt, text, monkeypatch):
    assert outcome(lambda t: parse_graph(t, fmt), text) == outcome(LINE_PARSERS[fmt], text)
    # the canonical pass refuses the text: the line parser is what answers
    parser = "_parse_dimacs" if fmt == "dimacs-col" else "_parse_edge_list"
    monkeypatch.setattr(io, parser, lambda t: (0, []))
    assert io._read(text, fmt) == (0, [], False)


def planned_pieces():
    """G''s description for a 40-vertex path reduced to degree 5: the
    edges below the first block, then 150 blocks of 21 ids, whose windows'
    phases recur."""
    return plan_reduction(SortedEdges.of(path_graph(40)), 5).pieces


@pytest.mark.parametrize("fmt", io.FORMATS)
def test_texts_are_the_edge_lines_and_the_content_encoding(monkeypatch, fmt):
    monkeypatch.setattr(graph, "_RUN", 1000)
    pieces = planned_pieces()
    parts = list(io.texts(fmt, pieces))
    assert len(parts) == 5  # a run below the blocks, then 3,150 block ids 1,000 at a time
    g = Graph.from_sorted(pieces.n, chain.from_iterable(pieces.all_ends()))
    assert "".join(text for text, _ in parts) == serialize_graph(g, fmt).split("\n", 1)[1]
    assert "".join(hashed for _, hashed in parts) == serialize_graph(g, "edge-list").split("\n", 1)[1]
    assert graph.content_digest(g.n, [hashed for _, hashed in parts]) == g.content_hash()


@pytest.mark.parametrize("fmt", io.FORMATS)
def test_match_yields_each_pieces_hash_text(monkeypatch, fmt):
    monkeypatch.setattr(graph, "_RUN", 1000)
    pieces = planned_pieces()
    parts = list(io.texts(fmt, pieces))
    f = BytesIO(b"head\n" + "".join(text for text, _ in parts).encode())
    f.readline()
    assert list(io.match(f, fmt, pieces)) == [hashed for _, hashed in parts]


@pytest.mark.parametrize("fmt", io.FORMATS)
@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text[:-2] + str((int(text[-2]) + 1) % 10) + "\n",  # one byte changed in the last piece
        lambda text: text[:-1],
        lambda text: text + "\n",
    ],
    ids=["changed", "short", "long"],
)
def test_match_raises_at_a_difference(fmt, edit):
    pieces = planned_pieces()
    text = "".join(text for text, _ in io.texts(fmt, pieces))
    with pytest.raises(io.NotCanonical):
        list(io.match(BytesIO(edit(text).encode()), fmt, pieces))


def test_match_of_no_pieces_needs_an_empty_file():
    empty = graph.Pieces([], (), 0, 0)
    assert list(io.match(BytesIO(b""), "edge-list", empty)) == []
    with pytest.raises(io.NotCanonical):
        list(io.match(BytesIO(b"\n"), "edge-list", empty))


@pytest.mark.parametrize(
    "fmt, size, edges",
    [("dimacs-col", 0, 0), ("dimacs-col", 5, 0), ("dimacs-col", 6, 1), ("dimacs-col", 12, 2), ("edge-list", 3, 0), ("edge-list", 4, 1)],
)
def test_edge_capacity_counts_the_shortest_lines(fmt, size, edges):
    f = BytesIO(b"x" * size)
    f.seek(size)
    assert io.edge_capacity(f, fmt) == edges
    assert f.tell() == 0
