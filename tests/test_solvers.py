import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from regmis.gadgets import build_general_gadget, build_icosa_gadget, build_planar_gadget, gadget_alpha
from regmis.graph import (
    Graph,
    GraphError,
    complete_graph,
    is_independent_set,
)
from regmis.reduction import reduce_to_regular, regularize_planar
from regmis.solvers import (
    RULES,
    ResourceLimitError,
    SolverLimits,
    _clique_cover_bound,
    _exhaust,
    _greedy_cover,
    _Kernel,
    _reject,
    _take,
    _twin_or_dominated,
    has_clique_k,
    min_vertex_cover,
    mis_branch_bound,
    mis_bruteforce,
    solve_mis,
)

from conftest import (
    alpha_by_enumeration,
    check_result,
    cycle_graph,
    disjoint_union,
    path_graph,
    random_cubic_graph,
    random_graph,
)

PETERSEN = Graph.from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
)


class TestBruteForce:
    def test_small_examples(self):
        assert mis_bruteforce(cycle_graph(5)).alpha == 2
        assert mis_bruteforce(complete_graph(6)).alpha == 1
        assert mis_bruteforce(Graph.from_edges(0, [])).alpha == 0

    def test_icosa_gadget(self):
        g, layout = build_icosa_gadget()
        result = mis_bruteforce(g)
        assert result.alpha == 4
        assert result.witness == layout.canonical_mis

    def test_vertex_cap(self):
        with pytest.raises(ResourceLimitError, match="^brute force capped at 26 vertices, got 27$"):
            mis_bruteforce(complete_graph(27))

    def test_matches_enumeration(self):
        rng = random.Random(1)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 10), rng.choice([0.2, 0.5]))
            result = mis_bruteforce(g)
            check_result(g, result)
            assert result.alpha == alpha_by_enumeration(g)


class TestBranchBound:
    def test_petersen(self):
        assert mis_branch_bound(PETERSEN).alpha == 4

    def test_gadget_21_vertices(self):
        g, _ = build_general_gadget(5)
        assert mis_branch_bound(g).alpha == 10

    def test_time_budget(self):
        with pytest.raises(ResourceLimitError, match="^time budget exhausted$"):
            mis_branch_bound(PETERSEN, SolverLimits(time_budget=1e-9))

    def test_witness_always_valid(self):
        rng = random.Random(2)
        for _ in range(60):
            g = random_graph(rng, rng.randint(0, 14), rng.choice([0.1, 0.3, 0.6]))
            result = mis_branch_bound(g)
            check_result(g, result)

    def test_agrees_with_brute_force(self):
        rng = random.Random(3)
        for _ in range(120):
            g = random_graph(rng, rng.randint(1, 14), rng.choice([0.1, 0.3, 0.5]))
            assert mis_branch_bound(g).alpha == mis_bruteforce(g).alpha

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_agrees_with_brute_force_hypothesis(self, data):
        n = data.draw(st.integers(1, 12))
        edges = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=40,
            )
        )
        g = Graph.from_edges(n, edges)
        assert mis_branch_bound(g).alpha == mis_bruteforce(g).alpha

    def test_node_budget_error_carries_lower_bound(self):
        rng = random.Random(4)
        g = random_graph(rng, 40, 0.2)
        with pytest.raises(ResourceLimitError) as info:
            mis_branch_bound(g, SolverLimits(node_budget=2))
        assert info.value.best_so_far >= 0

    def test_witness_of_a_long_fold_chain(self):
        # the cycle folds into one vertex whose inset is nested 1,499 folds
        # deep, deeper than the interpreter's recursion limit
        g = cycle_graph(3001)
        result = mis_branch_bound(g)
        check_result(g, result)
        assert result.alpha == 1500 and result.stats["fired"]["fold"] == 1499

    def test_components_are_searched_apart(self):
        # 50 Petersen graphs and a path the root's reductions solve: a
        # search of 3 nodes per Petersen graph, not one of 2^51 - 1 nodes
        g = path_graph(3)
        for _ in range(50):
            g = disjoint_union(g, PETERSEN)
        result = mis_branch_bound(g)
        check_result(g, result)
        assert result.alpha == 202 and result.nodes_explored <= 200
        # the root, then 25 components solved: the path's 2 and 25 times 4
        with pytest.raises(ResourceLimitError) as info:
            mis_branch_bound(g, SolverLimits(node_budget=76))
        assert info.value.best_so_far == 102

    def test_twin_collapse_shrinks_gadget(self):
        # the gadgets are solved at the root, by twin merges among others
        for delta in (5, 7, 9):
            result = mis_branch_bound(build_general_gadget(delta)[0])
            assert result.nodes_explored == 1
            assert result.stats["root_kernel"] == 0
            assert result.stats["fired"]["twin"] > 0

    def test_stats(self):
        g = random_cubic_graph(random.Random(8), 100)
        stats = mis_branch_bound(g).stats
        assert set(stats) == {"bound_prunes", "bound_conflicts", "max_depth", "root_kernel", "full_sweeps", "fired"}
        assert tuple(stats["fired"]) == RULES
        assert stats["root_kernel"] == 100  # no rule applies at this graph's root
        assert 0 < stats["bound_prunes"] and 0 < stats["bound_conflicts"] and 0 < stats["max_depth"]
        assert stats["full_sweeps"] == 122  # of 107 nodes, each ends on a quiet one
        assert mis_bruteforce(PETERSEN).stats == {}


def _witness_digest(witness) -> str:
    return hashlib.sha256(",".join(map(str, sorted(witness))).encode()).hexdigest()


# (id, graph, alpha, nodes_explored, SHA-256 of the sorted witness): the search
# tree of a fixed graph is part of the solver's contract; a faster node must
# not change the rules, their order, the branching vertex or the search
# order.  The order: the degree-0, -1 and -2 rules to a fixpoint, then a
# sweep with every rule per vertex, repeated until that sweep fires nothing.
# The bound may only get tighter and must stay sound: it then never cuts the
# subtree of the first optimal leaf before that leaf is found, so alpha and
# the witness stay and the node counts can only fall.  The planar entries
# are solved by dominance.
PINNED_TREES = [
    ("cubic-40-seed1", lambda: random_cubic_graph(random.Random(1), 40), 17, 11,
     "42a1f60ec3f4f8550c8c63e13c3c0167165519f30ed4db6d71c7fe2f0681b92e"),
    ("cubic-50-seed2", lambda: random_cubic_graph(random.Random(2), 50), 22, 13,
     "40c001d102590dd31622c1de5adce6f347df0ea61d978190f2bdf004a083f7a0"),
    ("cubic-60-seed3", lambda: random_cubic_graph(random.Random(3), 60), 26, 19,
     "8a8f4b66e98849d1048f482e99986b62e7efb7b3fdf0fb4fa67b942510d1b3db"),
    ("cubic-70-seed4", lambda: random_cubic_graph(random.Random(4), 70), 31, 23,
     "60dfc1d237741c5ef1faaa268432357cd6fa669151d082b90051be49359d1d4d"),
    ("cubic-80-seed5", lambda: random_cubic_graph(random.Random(5), 80), 35, 57,
     "5a2b586ee02b9f6e685588ba29f31163517585317bb569fedf9678d3177c8571"),
    ("cubic-90-seed6", lambda: random_cubic_graph(random.Random(6), 90), 39, 57,
     "990cafe4f0dd86cf4c4fed28c54cf05ff55eb55961304555f64d588650f94896"),
    ("cubic-100-seed7", lambda: random_cubic_graph(random.Random(7), 100), 45, 61,
     "447358c245b3e6e7e1514159f51712556cc14f76a556cf723bc8775fe7d5a6bf"),
    ("cubic-100-seed8", lambda: random_cubic_graph(random.Random(8), 100), 44, 107,
     "66edda519b88fee020f8e5c0641024b97865c8f4b9b9b357a21e05919bb451dc"),
    ("petersen", lambda: PETERSEN, 4, 3,
     "65beb880c01c1e7dcdecd361888ffdb563e41120135231bf6f750121b77c18fa"),
    ("general-5", lambda: build_general_gadget(5)[0], 10, 1,
     "01fd58e35b9e6d63ca9b523cf072759dfa5a46c4e94cd13ece0028f2d35b1aca"),
    ("general-7", lambda: build_general_gadget(7)[0], 21, 1,
     "a8798898e7ca69152238ba628dd4ea1c4b0b030f94ad45f2dfef19be1fd99cf1"),
    ("general-9", lambda: build_general_gadget(9)[0], 36, 1,
     "e5281d607a1315338bb48bb9f9f3cbc864ddf83db730f10e93f59824dba5fcdd"),
    ("planar-gadget", lambda: build_planar_gadget()[0], 8, 5,
     "6465d6488fc70993a40dfc9894a6adf4c1b2ef907fce63a55fc2976f25855d2a"),
    ("planar-reduction-1", lambda: regularize_planar(Graph.from_edges(1, []))[0], 41, 193,
     "130aeed33899649a50d27cad958badd01b370d381323895c2c91c6c235118593"),
]


@pytest.mark.parametrize(
    "build,alpha,nodes,digest", [p[1:] for p in PINNED_TREES], ids=[p[0] for p in PINNED_TREES]
)
def test_pinned_search_tree(build, alpha, nodes, digest):
    result = mis_branch_bound(build())
    assert (result.alpha, result.nodes_explored, _witness_digest(result.witness)) == (alpha, nodes, digest)


def milp_alpha(g: Graph) -> int:
    """α(g) by a second exact method, for graphs above brute force's cap: the
    0/1 program max Σ x_v with one row x_u + x_v ≤ 1 per edge, solved by
    scipy's HiGHS.  Skips the test where scipy is missing."""
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    ends = [x for edge in g.edges() for x in edge]
    per_edge = sparse.coo_array(([1] * len(ends), ([i // 2 for i in range(len(ends))], ends)), shape=(len(ends) // 2, g.n))
    rows = optimize.LinearConstraint(per_edge, ub=1)
    result = optimize.milp([-1] * g.n, integrality=[1] * g.n, bounds=optimize.Bounds(0, 1), constraints=rows)
    assert result.success, result.message
    return round(-result.fun)


@pytest.mark.parametrize("build", [p[1] for p in PINNED_TREES], ids=[p[0] for p in PINNED_TREES])
def test_a_milp_agrees_with_bb_on_every_pinned_tree(build):
    g = build()
    assert milp_alpha(g) == mis_branch_bound(g).alpha


@pytest.mark.parametrize("delta", range(7, 22, 2))
def test_a_milp_agrees_with_the_general_gadget_alpha(delta):
    """From Δ = 7 (43 vertices) to Δ = 21 (421), above brute force's cap."""
    assert milp_alpha(build_general_gadget(delta)[0]) == gadget_alpha(delta)


@pytest.mark.parametrize("n", [10, 20, 40, 60])
def test_reduced_graph_kernelizes_to_its_source(n):
    """``verify --with-oracle`` solves G' at the cost of G: on a cubic source
    reduced to degree 5, the root's reductions strip every gadget and the
    star, leaving a kernel as large as G's and the same search."""
    g = random_cubic_graph(random.Random(n), n)
    gp, cert = reduce_to_regular(g, 5)
    source, reduced = mis_branch_bound(g), mis_branch_bound(gp)
    assert reduced.stats["root_kernel"] == source.stats["root_kernel"]
    assert reduced.nodes_explored == source.nodes_explored
    assert reduced.alpha == source.alpha + cert.total_offset


def subdivided_graph(rng: random.Random, k: int, p: float) -> Graph:
    """Random graph on ``k`` vertices with most edges (while the total stays
    at 20 vertices or fewer) replaced by a path through a new midpoint: each
    midpoint has degree 2 and non-adjacent neighbors, so it folds."""
    n, edges = k, []
    for u, v in random_graph(rng, k, p).edges():
        if n < 20 and rng.random() < 0.7:
            edges += [(u, n), (n, v)]
            n += 1
        else:
            edges.append((u, v))
    return Graph.from_edges(n, edges)


def planted_k2k_graph(rng: random.Random, n: int, k: int) -> Graph:
    """Vertices 0 and 1 joined to the same ``k`` vertices 2..k+1 (a K_{2,k})
    and to nothing else, the other pairs random: 1 is a twin of 0."""
    edges = [(a, c) for a in (0, 1) for c in range(2, 2 + k)]
    edges += [(u, v) for u in range(2, n) for v in range(u + 1, n) if rng.random() < 0.25]
    return Graph.from_edges(n, edges)


class TestWeightedKernel:
    """Folds and twin merges leave vertices of weight above 1; these graphs
    make both fire, so the weighted rule and bound paths are checked
    against brute force."""

    def test_agrees_with_brute_force(self):
        rng = random.Random(9)
        fired = dict.fromkeys(RULES, 0)
        for _ in range(150):
            for g in (
                subdivided_graph(rng, rng.randint(4, 9), rng.choice([0.3, 0.5, 0.8])),
                planted_k2k_graph(rng, rng.randint(8, 20), rng.randint(3, 5)),
            ):
                assert g.n <= 20
                result = mis_branch_bound(g)
                check_result(g, result)
                assert result.alpha == mis_bruteforce(g).alpha
                for rule, count in result.stats["fired"].items():
                    fired[rule] += count
        assert fired["fold"] > 0 and fired["twin"] > 0


def _applicable(k: _Kernel) -> list:
    """Every (rule, vertex) of kernel ``k`` that a reduction rule would
    fire on, read from the rules' conditions, not from the solver's code."""
    adj, weight = k.adj, k.weight
    found = []
    for v, nv in adj.items():
        wv = weight[v]
        if not nv:
            found.append(("isolated", v))
        elif len(nv) <= 2 and all(wv >= weight[u] for u in nv):
            found.append(("degree1" if len(nv) == 1 else "degree2 or fold", v))
        if nv and any(u != v and nu == nv for u, nu in adj.items()):
            found.append(("twin", v))
        if any(weight[u] >= wv and adj[u] <= nv | {v} for u in nv):
            found.append(("dominance", v))
    return found


def test_exhaust_reaches_a_fixpoint_of_every_rule():
    """Down one path of the search (the maximum-degree vertex taken and
    rejected in turn), each kernel ``_exhaust`` leaves is one that no rule
    applies to."""
    rng = random.Random(10)
    graphs = [random_cubic_graph(rng, n) for n in (20, 40, 60)]
    graphs += [subdivided_graph(rng, rng.randint(4, 9), 0.5) for _ in range(10)]
    graphs += [planted_k2k_graph(rng, rng.randint(8, 20), rng.randint(3, 5)) for _ in range(10)]
    graphs += [build_general_gadget(delta)[0] for delta in (5, 7, 9)] + [build_planar_gadget()[0]]
    fired = dict.fromkeys(RULES, 0)
    kernels = 0
    for g in graphs:
        k = _Kernel.from_graph(g)
        for depth in range(8):
            _exhaust(k, fired)
            assert _applicable(k) == []
            kernels += 1
            if not k.adj:
                break
            v = max(k.adj, key=lambda x: len(k.adj[x]))
            (_take if depth % 2 else _reject)(k, v)
    assert kernels > len(graphs) and fired["twin"] > 0 and fired["dominance"] > 0


def test_a_pendant_neighbor_dominates():
    # N[0] = {0, 1} ⊆ N[1], though 0 shares no neighbor with 1
    k = _Kernel.from_graph(path_graph(3))
    fired = dict.fromkeys(RULES, 0)
    assert _twin_or_dominated(k, 1, k.adj[1], fired)
    assert fired["dominance"] == 1 and list(k.adj) == [0, 2]


class TestCliqueCoverBound:
    """Unit propagation over the greedy cover's cliques proves that some
    sets of cliques cannot all contribute; each such conflict lowers the
    cover's sum by the least heaviest weight of its cliques."""

    @pytest.mark.parametrize("g,bound,conflicts", [
        (cycle_graph(5), 2, 1),  # the cover's sum is 3
        (disjoint_union(cycle_graph(5), cycle_graph(5)), 4, 2),
        (PETERSEN, 5, 0),
    ], ids=["C5", "two-C5", "petersen"])
    def test_values(self, g, bound, conflicts):
        assert _clique_cover_bound(_Kernel.from_graph(g)) == (bound, conflicts)

    def test_weighted_kernels_lie_between_alpha_and_the_cover(self):
        """On weighted kernels built directly, brute-force α ≤ the bound ≤
        the greedy cover's sum; the bound is below the sum exactly when a
        conflict was found, which happens on 194 of them."""
        rng = random.Random(39)
        tightened = 0
        for i in range(3000):
            g = random_graph(rng, rng.randint(3, 12), rng.choice([0.2, 0.35, 0.5]))
            weight = {v: rng.choice([1, 1, 1, 2, 3]) for v in range(g.n)}
            k = _Kernel(
                {v: set(g.adjacency[v]) for v in range(g.n)},
                weight,
                {v: ((v,), ()) for v in range(g.n)},
                0,
                [],
                g.n,
            )
            bound, conflicts = _clique_cover_bound(k)
            cover = sum(_greedy_cover(k)[2])
            assert _weighted_alpha(g, weight) <= bound <= cover, i
            assert (bound < cover) == (conflicts > 0), i
            tightened += bound < cover
        assert tightened == 194


def _weighted_alpha(g: Graph, weight) -> int:
    """The heaviest independent set's weight, by include/exclude on bit masks."""
    nbr = [sum(1 << u for u in g.adjacency[v]) for v in range(g.n)]

    def best(free: int) -> int:
        if not free:
            return 0
        v = (free & -free).bit_length() - 1
        rest = free & ~(1 << v)
        return max(best(rest), weight[v] + best(rest & ~nbr[v]))

    return best((1 << g.n) - 1)


class TestVertexCover:
    def test_examples(self):
        assert min_vertex_cover(complete_graph(4))[0] == 3
        assert min_vertex_cover(cycle_graph(5))[0] == 3
        size, witness = min_vertex_cover(path_graph(3))
        assert size == 1 and witness == {1}

    def test_complement_identity_and_coverage(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 12), 0.4)
            size, cover = min_vertex_cover(g)
            assert size + mis_bruteforce(g).alpha == g.n
            assert all(u in cover or v in cover for u, v in g.edges())


class TestCliques:
    def test_examples(self):
        assert has_clique_k(complete_graph(5), 5)[0]
        assert not has_clique_k(cycle_graph(6), 3)[0]

    def test_gadgets_are_triangle_free(self):
        for delta in (3, 5, 7):
            g, _ = build_general_gadget(delta)
            assert not has_clique_k(g, 3)[0]

    def test_witness_is_a_clique(self):
        found, witness = has_clique_k(PETERSEN, 3)
        assert not found and witness is None
        rng = random.Random(6)
        for _ in range(30):
            g = random_graph(rng, 10, 0.6)
            for k in (3, 4, 5):
                found, witness = has_clique_k(g, k)
                if found:
                    assert len(witness) == k
                    assert all(
                        v in g.neighbors(u)
                        for i, u in enumerate(witness)
                        for v in witness[i + 1:]
                    )

    def test_k_out_of_range(self):
        with pytest.raises(GraphError):
            has_clique_k(complete_graph(3), 2)
        with pytest.raises(GraphError):
            has_clique_k(complete_graph(3), 6)


class TestReductionRuleSoundness:
    def test_rules_never_change_alpha(self):
        # every graph the reducer can see is solved both ways
        rng = random.Random(7)
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 16), rng.choice([0.15, 0.35]))
            bb = mis_branch_bound(g)
            assert bb.alpha == mis_bruteforce(g).alpha
            check_result(g, bb)


def test_solve_mis_method_dispatch():
    g = cycle_graph(5)
    assert solve_mis(g, method="brute").method == "brute-force"
    assert solve_mis(g, method="bb").method == "branch-bound"
    assert solve_mis(g, method="auto").alpha == 2
    with pytest.raises(GraphError):
        solve_mis(g, method="magic")
