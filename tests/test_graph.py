import random
from io import StringIO
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from regmis import graph, io
from regmis.gadgets import GENERAL, PLANAR5, build_gadget
from regmis.graph import (
    Graph,
    GraphError,
    Pieces,
    SortedEdges,
    complete_graph,
    is_independent_set,
    star_graph,
    triangle_count,
)
from regmis.reduction import plan_reduction

from conftest import cycle_graph, disjoint_union, empty_graph, path_graph, random_graph


def edge_lists(max_n=12):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=30,
            ),
        )
    )


class TestConstruction:
    def test_degree_examples(self):
        assert all(complete_graph(4).degree(v) == 3 for v in range(4))
        assert empty_graph(1).degree(0) == 0
        assert path_graph(3).degree(1) == 2

    def test_degree_out_of_range(self):
        with pytest.raises(GraphError):
            path_graph(3).degree(3)

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 2)])

    @pytest.mark.parametrize(
        "n, adjacency, error",
        [(-1, (), "negative vertex count -1"), (2, ((),), "adjacency length does not match vertex count")],
    )
    def test_rejects_rows_that_are_not_a_graph(self, n, adjacency, error):
        with pytest.raises(GraphError) as raised:
            Graph(n, adjacency)
        assert str(raised.value) == error

    @given(edge_lists())
    def test_invariants_hold(self, case):
        n, edges = case
        g = Graph.from_edges(n, edges)
        for v in range(g.n):
            adj = g.adjacency[v]
            assert v not in adj
            assert list(adj) == sorted(set(adj))
            for u in adj:
                assert v in g.adjacency[u]

    @given(edge_lists())
    def test_handshake(self, case):
        n, edges = case
        g = Graph.from_edges(n, edges)
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


class TestIndependentSet:
    def test_examples(self):
        assert is_independent_set(cycle_graph(5), {0, 2})
        assert not is_independent_set(complete_graph(3), {0, 1})
        assert is_independent_set(complete_graph(3), set())

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            is_independent_set(complete_graph(3), {0, 5})


class TestDisjointUnion:
    def test_counts(self):
        g = disjoint_union(complete_graph(3), complete_graph(3))
        assert (g.n, g.m) == (6, 6)
        g = disjoint_union(path_graph(2), path_graph(2))
        assert (g.n, g.m) == (4, 2)

    def test_identity_with_empty(self):
        g = cycle_graph(5)
        assert disjoint_union(g, empty_graph(0)).adjacency == g.adjacency

    def test_no_cross_edges_and_shift(self):
        g = disjoint_union(complete_graph(2), complete_graph(2))
        assert list(g.edges()) == [(0, 1), (2, 3)]

    def test_triangle_count_additive(self):
        rng = random.Random(7)
        for _ in range(20):
            g1 = random_graph(rng, 8, 0.4)
            g2 = random_graph(rng, 6, 0.5)
            assert triangle_count(disjoint_union(g1, g2)) == triangle_count(
                g1
            ) + triangle_count(g2)


class TestTriangles:
    def test_examples(self):
        assert triangle_count(complete_graph(4)) == 4
        assert triangle_count(cycle_graph(5)) == 0
        k22 = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert triangle_count(k22) == 0

    def test_against_naive(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_graph(rng, 9, 0.4)
            naive = sum(
                1
                for u in range(g.n)
                for v in range(u + 1, g.n)
                for w in range(v + 1, g.n)
                if v in g.neighbors(u) and w in g.neighbors(v) and w in g.neighbors(u)
            )
            assert triangle_count(g) == naive


class TestMisc:
    def test_star(self):
        g = star_graph(5)
        assert g.n == 6 and g.degree(0) == 5
        assert all(g.degree(v) == 1 for v in range(1, 6))

    def test_content_hash_ignores_edge_order(self):
        a = Graph.from_edges(3, [(0, 1), (1, 2)])
        b = Graph.from_edges(3, [(1, 2), (0, 1)])
        assert a.content_hash() == b.content_hash()
        c = Graph.from_edges(3, [(0, 1)])
        assert a.content_hash() != c.content_hash()


# ---------------------------------------------------------------------------
# the text of gadget blocks, a window at a time

BLOCK_GADGETS = [(GENERAL, d) for d in (3, 5, 7, 9, 11, 13)] + [(PLANAR5, None)]


def block_rows(kind, d):
    return build_gadget(kind, d)[0].adjacency


def block_texts(fmt, rows, first, count):
    """io.texts of ``count`` blocks from ``first``, joined: the file's and the content encoding's."""
    parts = list(io.texts(fmt, Pieces([], rows, first, count)))
    return "".join(text for text, _ in parts), "".join(hashed for _, hashed in parts)


def rendered_blocks(fmt, rows, first, count):
    """The same two texts, rendered block by block from the blueprint's edges."""
    block, size, (line, base) = graph.ends_of(rows), len(rows), io._LINES[fmt]
    return (
        "".join(graph.render(block, line, base + first + b * size) for b in range(count)),
        "".join(graph.render(block, graph.HASH_LINE[0], first + b * size) for b in range(count)),
    )


@settings(max_examples=120, deadline=None)
@given(
    gadget=st.sampled_from(BLOCK_GADGETS),
    fmt=st.sampled_from(io.FORMATS),
    top=st.sampled_from([100, 1000, 10_000, 100_000]),
    below=st.integers(1, 200),
    width=st.sampled_from([10, 100, 1000]),
    data=st.data(),
)
def test_block_texts_are_the_blocks_rendered_one_by_one(gadget, fmt, top, below, width, data):
    """First ids just below 100, 1,000, 10,000 and 100,000, from none to
    two full phase periods of blocks at the default width, both gadget
    kinds and formats, at three window widths."""
    rows = block_rows(*gadget)
    count = data.draw(st.integers(0, 2 * 100 // gcd(len(rows), 100)), label="count")
    first = max(0, top - below)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "_WINDOW", width)
        assert block_texts(fmt, rows, first, count) == rendered_blocks(fmt, rows, first, count)


def count_fills(monkeypatch):
    """The templates the block renderer fills, as a list that grows."""
    filled, real = [], graph._fill
    monkeypatch.setattr(graph, "_fill", lambda *args: filled.append(args[2]) or real(*args))
    return filled


@pytest.mark.parametrize("gadget", BLOCK_GADGETS)
@pytest.mark.parametrize("fmt", io.FORMATS)
def test_block_texts_fill_a_template_per_window_of_a_recurring_phase(monkeypatch, gadget, fmt):
    rows = block_rows(*gadget)
    size = len(rows)
    period = 100 // gcd(size, 100) * size  # ids from one window of a phase to the next
    filled = count_fills(monkeypatch)
    # at 999, every whole window from 1000 on has a later one of its phase or an earlier one
    count = (2 * period + 250) // size
    assert block_texts(fmt, rows, 999, count) == rendered_blocks(fmt, rows, 999, count)
    windows = range(10, (999 + count * size) // 100)
    assert sorted(set(filled)) == list(windows)
    assert len(filled) == (2 if fmt == "dimacs-col" else 1) * len(windows)


@pytest.mark.parametrize("gadget", BLOCK_GADGETS)
def test_block_texts_without_a_recurring_phase_fill_no_template(monkeypatch, gadget):
    rows = block_rows(*gadget)
    size = len(rows)
    count = (100 // gcd(size, 100) * size + 99) // size  # one period of whole windows, and not two
    filled = count_fills(monkeypatch)
    for first in (0, 50, 100):
        assert block_texts("dimacs-col", rows, first, count) == rendered_blocks("dimacs-col", rows, first, count)
    assert filled == []


def test_block_texts_with_more_prefixes_than_markers_fill_no_template(monkeypatch):
    rows = block_rows(GENERAL, 17)  # 273 ids: a window of 10 reaches 29 prefixes
    monkeypatch.setattr(graph, "_WINDOW", 10)
    filled = count_fills(monkeypatch)
    assert block_texts("dimacs-col", rows, 95, 30) == rendered_blocks("dimacs-col", rows, 95, 30)
    assert filled == []


def test_an_edge_list_write_renders_each_piece_once(monkeypatch):
    """The edge list's edge line is the content encoding's, so each piece of
    G' is rendered once where DIMACS renders it for the file and the hash."""
    plan = plan_reduction(SortedEdges.of(path_graph(40)), 5)  # 150 blocks: some windows filled, some rendered
    renders, real = [], graph.render
    monkeypatch.setattr(graph, "render", lambda ends, *args: renders.append(args) or real(ends, *args))
    filled = count_fills(monkeypatch)
    counts = {}
    for fmt in io.FORMATS:
        del renders[:], filled[:]
        plan.write(StringIO(), fmt)
        counts[fmt] = (len(renders), len(filled))
    assert counts["edge-list"][0] and counts["edge-list"][1]
    assert counts["dimacs-col"] == tuple(2 * k for k in counts["edge-list"])
