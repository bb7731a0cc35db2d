import random

import pytest
from hypothesis import given, strategies as st

from regmis.graph import (
    Graph,
    GraphError,
    complete_graph,
    is_independent_set,
    star_graph,
    triangle_count,
)

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
                if g.has_edge(u, v) and g.has_edge(v, w) and g.has_edge(u, w)
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
