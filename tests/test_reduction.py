import dataclasses
import io
import json
import random
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from regmis import gadgets, graph, reduction, solvers, verify
from regmis.gadgets import (
    GENERAL,
    ICOSA,
    PLANAR5,
    build_gadget,
    build_general_gadget,
    build_icosa_gadget,
    build_planar_gadget,
    gadget_alpha,
)
from regmis.graph import (
    Graph,
    GraphError,
    InfeasibleError,
    SortedEdges,
    complete_graph,
    is_independent_set,
    star_graph,
    triangle_count,
)
from regmis.io import FORMATS, parse_graph, serialize_graph
from regmis.reduction import (
    ReductionCertificate,
    forward_map,
    normalize,
    plan_reduction,
    recover,
    reduce_to_regular,
    regularize,
    regularize_planar,
)
from regmis.solvers import mis_branch_bound, mis_bruteforce
from regmis.verify import PASS, verify_all

from conftest import cycle_graph, fresh_alpha_cache, grid_with_diagonals, path_graph, random_graph_max_degree

K4_MINUS_EDGE = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def padding(g, delta):
    """``cert.steps`` of ``reduce_to_regular(g, delta)`` as (kind, start,
    end, offset) tuples, and the rows of G' past the source's, up to and
    cut at the padded prefix."""
    gp, cert = reduce_to_regular(g, delta)
    steps = [(s.kind, s.start, s.end, s.alpha_offset) for s in cert.steps]
    rows = [tuple(w for w in row if w < cert.padded_n) for row in gp.adjacency[g.n:cert.padded_n]]
    return steps, rows


class TestEnsureOddDelta:
    """The parity-clique step of ``reduce_to_regular``."""

    def test_even_degree_gets_clique(self):
        steps, rows = padding(cycle_graph(4), 3)
        assert steps == [("parity-clique", 4, 8, 1)]
        assert rows == [tuple(w + 4 for w in row) for row in complete_graph(4).adjacency]

    def test_odd_degree_unchanged(self):
        gp, cert = reduce_to_regular(complete_graph(4), 3)
        assert cert.steps == () and gp.adjacency == complete_graph(4).adjacency

    def test_star_k14(self):
        steps, rows = padding(star_graph(4), 5)
        assert steps == [("parity-clique", 5, 11, 1)]  # K6 brings the maximum to 5
        assert {len(row) for row in rows} == {5}


class TestPadToTarget:
    """The star-pad step of ``reduce_to_regular``."""

    def test_pads_with_star(self):
        steps, rows = padding(path_graph(2), 5)
        assert steps == [("star-pad", 2, 8, 5)]
        assert rows == [tuple(w + 2 for w in row) for row in star_graph(5).adjacency]

    def test_already_at_target(self):
        gp, cert = reduce_to_regular(complete_graph(6), 5)
        assert cert.steps == () and cert.gadgets == ()

    def test_target_below_max_degree(self):
        with pytest.raises(InfeasibleError, match="maximum degree 4 exceeds target degree 3"):
            reduce_to_regular(complete_graph(5), 3)


def test_padding_walks_the_degrees_once_and_joins_no_graphs(monkeypatch):
    """The padding steps append edges: one count of the source's degrees,
    from its edges, and no intermediate padded graph."""
    calls = []

    def count(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.append(name) or real(*args))

    class Ends(list):
        def __iter__(self):
            calls.append("walk G's edges")
            return super().__iter__()

    count(Graph, "max_degree")
    for owner in (graph, reduction):
        if hasattr(owner, "disjoint_union"):
            count(owner, "disjoint_union")
    source = SortedEdges.of(path_graph(3))  # even maximum degree 2
    plan = plan_reduction(source._replace(ends=Ends(source.ends)), 5)
    assert [s.kind for s in plan.cert.steps] == ["parity-clique", "star-pad"]
    assert calls == ["walk G's edges"]


class TestRegularize:
    def test_k4_minus_edge(self):
        gp, cert = regularize(K4_MINUS_EDGE, 3)
        assert gp.n == 18
        assert all(gp.degree(v) == 3 for v in range(gp.n))
        assert cert.total_offset == 6
        assert len(cert.gadgets) == 2
        assert {gi.owner for gi in cert.gadgets} == {2, 3}

    def test_single_vertex(self):
        gp, cert = regularize(Graph.from_edges(1, []), 3)
        assert gp.n == 22
        assert len(cert.gadgets) == 3
        assert cert.total_offset == 9
        assert mis_bruteforce(gp).alpha == 10

    def test_already_regular_is_identity(self):
        gp, cert = regularize(complete_graph(4), 3)
        assert gp.adjacency == complete_graph(4).adjacency
        assert cert.gadgets == () and cert.total_offset == 0

    def test_rejects_bad_delta(self):
        with pytest.raises(GraphError):
            regularize(K4_MINUS_EDGE, 4)
        with pytest.raises(InfeasibleError):
            regularize(complete_graph(6), 3)

    def test_vertex_count_closed_form(self):
        rng = random.Random(0)
        for delta in (3, 5, 7):
            g = random_graph_max_degree(rng, 12, delta)
            gp, cert = regularize(g, delta)
            deficiency = sum(delta - g.degree(v) for v in range(g.n))
            assert gp.n == g.n + deficiency * ((delta - 1) ** 2 + delta)
            assert all(gp.degree(v) == delta for v in range(gp.n))

    def test_deterministic_bytes(self):
        a = regularize(K4_MINUS_EDGE, 3)
        b = regularize(K4_MINUS_EDGE, 3)
        assert serialize_graph(a[0], "dimacs-col") == serialize_graph(b[0], "dimacs-col")
        assert a[1].to_json() == b[1].to_json()


class TestRegularizePlanar:
    def test_k4(self):
        gp, cert = regularize_planar(complete_graph(4))
        assert gp.n == 4 + 8 * 25 == 204
        assert all(gp.degree(v) == 5 for v in range(gp.n))
        assert cert.total_offset == 64
        assert cert.per_gadget_alpha == 8

    def test_c5_counts(self):
        gp, cert = regularize_planar(cycle_graph(5))
        assert len(cert.gadgets) == 15
        assert gp.n == 380

    def test_five_regular_input_unchanged(self):
        # icosahedron itself is 5-regular and planar
        from regmis.gadgets import build_icosa_gadget

        icosa_minus, _ = build_icosa_gadget()
        full = Graph.from_edges(12, list(icosa_minus.edges()) + [(0, 1)])
        gp, cert = regularize_planar(full)
        assert gp.adjacency == full.adjacency and cert.total_offset == 0

    def test_rejects_degree_above_five(self):
        with pytest.raises(InfeasibleError):
            regularize_planar(complete_graph(7))

    def test_euler_necessary_condition(self):
        gp, _ = regularize_planar(complete_graph(4))
        assert gp.m <= 3 * gp.n - 6


class TestFullPipeline:
    def test_even_degree_input(self):
        gp, cert = reduce_to_regular(cycle_graph(4), 3)
        assert [s.kind for s in cert.steps] == ["parity-clique"]
        assert all(gp.degree(v) == 3 for v in range(gp.n))
        a = mis_branch_bound(gp).alpha
        assert a == 2 + cert.total_offset  # alpha(C4) = 2

    def test_padding_to_higher_degree(self):
        gp, cert = reduce_to_regular(path_graph(3), 5)
        kinds = [s.kind for s in cert.steps]
        assert kinds == ["parity-clique", "star-pad"]  # P3 has even max degree 2
        assert all(gp.degree(v) == 5 for v in range(gp.n))

    def test_strict_mode(self):
        with pytest.raises(InfeasibleError):
            reduce_to_regular(cycle_graph(4), 3, strict=True)
        gp, cert = reduce_to_regular(complete_graph(4), 3, strict=True)
        assert cert.steps == ()

    def test_empty_graph(self):
        gp, cert = reduce_to_regular(Graph.from_edges(0, []), 3)
        assert gp.n == 0 and cert.total_offset == 0

    @pytest.mark.parametrize("delta", [3, 5, 7])
    def test_regularity_on_random_graphs(self, delta):
        rng = random.Random(delta)
        for _ in range(8):
            g = random_graph_max_degree(rng, rng.randint(1, 40), delta)
            gp, cert = reduce_to_regular(g, delta)
            assert all(gp.degree(v) == delta for v in range(gp.n))
            assert gp.n <= cert.padded_n * (1 + delta * ((delta - 1) ** 2 + delta))


def reference_reduction(g, d, kind):
    """G' from the paper's definition, as adjacency sets, with no regmis
    helper but the gadget's graph: G; in the general pipeline on a
    non-empty G, a parity clique K_{Δ+2} when G's maximum degree Δ is even,
    then a star with d leaves, its centre first, when the maximum is still
    below d; then one gadget per unit of deficiency, owners ascending, each
    joined to its owner by its port, the gadget's one vertex of degree d - 1."""
    adj = [set(row) for row in g.adjacency]
    if kind == GENERAL and adj:
        top = max(map(len, adj))
        if top % 2 == 0:
            clique = range(len(adj), len(adj) + top + 2)
            adj += [set(clique) - {v} for v in clique]
            top += 1
        if top < d:
            centre = len(adj)
            adj += [set(range(centre + 1, centre + d + 1))] + [{centre} for _ in range(d)]
    blueprint, _ = build_gadget(kind, d)
    (port,) = [x for x, row in enumerate(blueprint.adjacency) if len(row) == d - 1]
    for v in range(len(adj)):
        for _ in range(d - len(adj[v])):
            base = len(adj)
            adj += [{base + y for y in row} for row in blueprint.adjacency]
            adj[base + port].add(v)
            adj[v].add(base + port)
    return adj


@st.composite
def bounded_sources(draw):
    """A graph of at most 12 vertices and maximum degree at most 4 and the
    target degree, and a target degree of 3, 5 or 7."""
    d = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(0, 12))
    cap = min(draw(st.integers(0, 4)), d)
    pairs = draw(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=30))
    degree, edges = [0] * n, set()
    for u, v in pairs:
        if u < v < n and (u, v) not in edges and max(degree[u], degree[v]) < cap:
            edges.add((u, v))
            degree[u] += 1
            degree[v] += 1
    return Graph.from_edges(n, sorted(edges)), d


@settings(max_examples=150, deadline=None)
@given(source=bounded_sources(), planar=st.booleans())
def test_reduced_graph_is_the_first_principles_one(source, planar):
    """The plan's G' and the verifier's model are the paper's G': the same
    rows, and the same sorted edges, in the pieces' order."""
    g, d = source
    if planar:
        d, kind = 5, PLANAR5
    else:
        kind = GENERAL
    reference = reference_reduction(g, d, kind)
    ends = [x for u, row in enumerate(reference) for v in sorted(row) if v > u for x in (u, v)]
    sg = SortedEdges.of(g)
    plan = plan_reduction(sg, d, planar=planar)
    gp, cert = plan.build()
    assert [set(row) for row in gp.adjacency] == reference
    assert list(chain.from_iterable(plan.pieces.all_ends())) == ends
    n, m = len(reference), len(ends) // 2
    model = verify._model(sg, verify._padded_edges(sg, cert, n, m), cert, n, m)
    assert list(chain.from_iterable(model.pieces.all_ends())) == ends


class TestSolutionMaps:
    def test_forward_map_size_and_validity(self):
        gp, cert = regularize(K4_MINUS_EDGE, 3)
        lifted = forward_map(K4_MINUS_EDGE, {2, 3}, cert)
        assert len(lifted) == 2 + 6
        assert is_independent_set(gp, lifted)
        assert mis_bruteforce(gp).alpha == 8  # the lift is maximum here

    def test_forward_map_empty_set(self):
        gp, cert = regularize(K4_MINUS_EDGE, 3)
        assert len(forward_map(K4_MINUS_EDGE, set(), cert)) == cert.total_offset

    def test_forward_map_planar(self):
        g = complete_graph(4)
        gp, cert = regularize_planar(g)
        lifted = forward_map(g, {0}, cert)
        assert len(lifted) == 65
        assert is_independent_set(gp, lifted)

    def test_forward_map_rejects_dependent_set(self):
        gp, cert = regularize(K4_MINUS_EDGE, 3)
        with pytest.raises(GraphError):
            forward_map(K4_MINUS_EDGE, {0, 1}, cert)
        with pytest.raises(GraphError):
            forward_map(K4_MINUS_EDGE, {17}, cert)

    def test_recover_round_trip(self):
        gp, cert = reduce_to_regular(cycle_graph(4), 3)
        g = cycle_graph(4)
        for members in (set(), {0}, {0, 2}, {1, 3}):
            assert recover(gp, forward_map(g, members, cert), cert) == members

    def test_recover_size_bound(self):
        gp, cert = regularize(K4_MINUS_EDGE, 3)
        best = mis_bruteforce(gp).witness
        recovered = recover(gp, best, cert)
        assert len(recovered) >= len(best) - cert.total_offset
        assert is_independent_set(K4_MINUS_EDGE, recovered)

    def test_recover_empty(self):
        gp, cert = regularize(K4_MINUS_EDGE, 3)
        assert recover(gp, set(), cert) == frozenset()

    def test_normalize_fixed_point_when_port_free(self):
        gp, cert = regularize(K4_MINUS_EDGE, 3)
        lifted = forward_map(K4_MINUS_EDGE, {2, 3}, cert)
        assert normalize(gp, lifted, cert) == lifted

    def test_normalize_swaps_port_at_same_size(self):
        gp, cert = regularize(K4_MINUS_EDGE, 3)
        gi = cert.gadgets[0]
        # A-part vertices plus the port: independent, size 3, uses the port
        with_port = {gi.id_offset, gi.id_offset + 1, gi.port}
        assert is_independent_set(gp, with_port)
        swapped = normalize(gp, with_port, cert)
        assert gi.port not in swapped
        assert len(swapped) == 3
        assert is_independent_set(gp, swapped)

    def test_normalize_gains_at_delta5(self):
        g = Graph.from_edges(1, [])
        gp, cert = regularize(g, 5)
        gi = cert.gadgets[0]
        # best gadget set through the port has size 9 < alpha = 10
        gadget_graph, layout = build_general_gadget(5)
        closed = set(gadget_graph.neighbors(layout.port)) | {layout.port}
        keep = [v for v in range(gadget_graph.n) if v not in closed]
        relabel = {v: i for i, v in enumerate(keep)}
        residual = Graph.from_edges(
            len(keep),
            [
                (relabel[u], relabel[v])
                for u, v in gadget_graph.edges()
                if u in relabel and v in relabel
            ],
        )
        inner = mis_bruteforce(residual).witness
        with_port = {gi.id_offset + keep[i] for i in inner} | {gi.port}
        for other in cert.gadgets[1:]:
            with_port |= forward_map(g, set(), cert) & set(range(other.id_offset, other.id_offset + other.size))
        assert is_independent_set(gp, with_port)
        normalized = normalize(gp, with_port, cert)
        assert len(normalized) == len(with_port) + 1
        assert is_independent_set(gp, normalized)
        assert all(gi.port not in normalized for gi in cert.gadgets)

    def test_gadget_witness_built_once_per_shape(self, monkeypatch):
        g = cycle_graph(50)
        gp, cert = regularize(g, 3)
        ports = {gi.port for gi in cert.gadgets}
        builds = []
        real_build = gadgets.build_gadget
        monkeypatch.setattr(gadgets, "build_gadget", lambda *a: builds.append(a) or real_build(*a))
        lifted = forward_map(g, set(), cert)
        normalized = normalize(gp, ports, cert)
        assert len(builds) == 2  # one per call, not one per gadget
        assert len(lifted) == cert.total_offset
        assert len(normalized) == cert.total_offset and not ports & normalized

    def test_normalize_rejects_a_foreign_certificate(self):
        """C5 at degree 3 (|V'| = 44) with the certificate of C7: bound to G' by the result hash."""
        gp, cert = reduce_to_regular(cycle_graph(5), 3)
        foreign = reduce_to_regular(cycle_graph(7), 3)[1]
        assert gp.n == 44
        with pytest.raises(GraphError, match="certificate result hash does not match the reduced graph"):
            normalize(gp, {gi.port for gi in cert.gadgets}, foreign)

    def test_normalize_rejects_a_dependent_input(self):
        gp, cert = reduce_to_regular(cycle_graph(5), 3)
        with pytest.raises(GraphError) as raised:
            normalize(gp, {0, 1}, cert)
        assert str(raised.value) == "input set is not independent in the reduced graph"

    def test_forward_map_rejects_a_foreign_certificate(self):
        """C5 with the certificate of C7: bound to G by the source hash."""
        foreign = reduce_to_regular(cycle_graph(7), 3)[1]
        with pytest.raises(GraphError, match="certificate source hash does not match the source graph"):
            forward_map(cycle_graph(5), {0}, foreign)

    @staticmethod
    def spy_builds(monkeypatch):
        builds, real = [], gadgets.build_gadget

        def spy(kind, delta=None):
            builds.append((kind, delta))
            assert delta != 301, "a gadget of degree 301 was built"
            return real(kind, delta)

        monkeypatch.setattr(gadgets, "build_gadget", spy)
        return builds

    def test_normalize_ignores_a_forged_gadget_delta(self, monkeypatch):
        """Blocks are found by the certificate's geometry, so an entry's
        delta is never built: the output is the honest one."""
        gp, cert = reduce_to_regular(cycle_graph(5), 3)
        ports = {gi.port for gi in cert.gadgets}
        honest = normalize(gp, ports, cert)
        forged = dataclasses.replace(cert, gadgets=(dataclasses.replace(cert.gadgets[0], delta=301),) + cert.gadgets[1:])
        builds = self.spy_builds(monkeypatch)
        assert normalize(gp, ports, forged) == honest
        assert builds == [(GENERAL, 3)]

    @pytest.mark.parametrize(
        "source, degree, forged, error, built",
        [
            (5, 3, 301, "do not tile", []),  # blocks of 90,301 vertices: neither the tiling nor the edge bound holds
            (5, 3, 5, "do not tile", []),  # blocks of 21 within the edge bound cannot tile C5's 35 block vertices
            (4, 5, 3, "not independent", [(GENERAL, 3)]),  # blocks of 7 tile C4's blocks of 21, but the swap is wrong
        ],
        ids=["too-large", "no-tiling", "wrong-swap"],
    )
    def test_normalize_rejects_a_forged_target_degree(self, monkeypatch, source, degree, forged, error, built):
        gp, cert = reduce_to_regular(cycle_graph(source), degree)
        builds = self.spy_builds(monkeypatch)
        with pytest.raises(GraphError, match=error):
            normalize(gp, {gi.port for gi in cert.gadgets}, dataclasses.replace(cert, target_degree=forged))
        assert builds == built

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_recover_canonical_builds_no_blueprint_with_more_edges_than_the_file(self, monkeypatch, fmt):
        """A header whose |V'| one degree-301 block would tile, over a file
        far shorter than that block's edges: None, with no build."""
        gp, cert = reduce_to_regular(cycle_graph(5), 3)
        n = cert.padded_n + gadgets.gadget_size(GENERAL, 301)
        head = f"p edge {n} {gp.m}\n" if fmt == "dimacs-col" else f"# n={n}\n"
        text = head + serialize_graph(gp, fmt).split("\n", 1)[1]
        builds = self.spy_builds(monkeypatch)
        forged = dataclasses.replace(cert, target_degree=301)
        assert reduction.recover_canonical(io.BytesIO(text.encode()), fmt, {0}, forged) is None
        assert builds == []

    def test_recover_canonical_reads_no_edge_line_under_a_header_short_of_the_blocks_edges(self, monkeypatch):
        """A DIMACS header whose edge count is below the gadget blocks' own
        edges: None, with no edge line read."""
        gp, cert = reduce_to_regular(cycle_graph(5), 3)
        text = serialize_graph(gp, "dimacs-col").replace(f"p edge {gp.n} {gp.m}\n", f"p edge {gp.n} 1\n")
        reads = []
        real = reduction.canonical_prefix
        monkeypatch.setattr(reduction, "canonical_prefix", lambda *args: reads.append(args) or real(*args))
        assert reduction.recover_canonical(io.BytesIO(text.encode()), "dimacs-col", {0}, cert) is None
        assert reads == []


class TestNoSolverOutsideTheAlphaMemo:
    """Building gadgets and mapping solutions never solves a gadget; only
    reading ``internal_alpha`` does, once per gadget shape."""

    def test_builders_and_solution_maps_run_no_solver(self, monkeypatch):
        g = cycle_graph(4)
        gp, cert = reduce_to_regular(g, 5)
        planar = complete_graph(4)
        planar_gp, planar_cert = regularize_planar(planar)

        def refuse(*args, **kwargs):
            raise AssertionError("a solver ran")

        fresh_alpha_cache(monkeypatch)
        for owner in (gadgets, solvers):
            monkeypatch.setattr(owner, "mis_branch_bound", refuse)
        monkeypatch.setattr(solvers, "mis_bruteforce", refuse)
        monkeypatch.setattr(solvers, "solve_mis", refuse)

        for kind, delta in ((GENERAL, 3), (GENERAL, 11), (PLANAR5, None), (ICOSA, None)):
            build_gadget(kind, delta)
        build_general_gadget(13)
        build_planar_gadget()
        _, layout = build_icosa_gadget()
        for source, reduced, c in ((g, gp, cert), (planar, planar_gp, planar_cert)):
            assert len(forward_map(source, {0}, c)) == 1 + c.total_offset
            ports = {gi.port for gi in c.gadgets}
            assert not ports & normalize(reduced, ports, c)
        with pytest.raises(AssertionError, match="a solver ran"):
            layout.internal_alpha


class TestSinglePassConstruction:
    """Work guards: on the parse, regularize, verify and recover path no
    graph of 100 or more vertices goes through ``Graph.from_edges``; only
    the gadget blueprints, the parity clique and the star do."""

    def test_large_graphs_never_built_from_edges(self, monkeypatch):
        source = grid_with_diagonals(random.Random(5), 18, cap=4)  # 324 vertices
        assert source.max_degree() == 4
        texts = {fmt: serialize_graph(source, fmt) for fmt in FORMATS}
        real = Graph.from_edges
        built = []

        def small_only(n, edges):
            assert n < 100, f"Graph.from_edges({n}, ...) called"
            built.append(n)
            return real(n, edges)

        monkeypatch.setattr(Graph, "from_edges", staticmethod(small_only))
        for fmt, text in texts.items():
            assert parse_graph(text, fmt) == source
        for gp, cert in (
            reduce_to_regular(source, 5),
            reduce_to_regular(source, 7),
            regularize_planar(source),
        ):
            assert verify_all(source, gp, cert).overall == PASS
            for fmt in FORMATS:
                assert parse_graph(serialize_graph(gp, fmt), fmt) == gp
            assert recover(gp, {0}, cert) == {0}
        assert {6, 8} <= set(built)  # the parity clique K6 and the 7-leaf star


class TestCertificateSerialization:
    def test_json_round_trip(self):
        _, cert = reduce_to_regular(cycle_graph(4), 5)
        back = ReductionCertificate.from_json(cert.to_json())
        assert back == cert

    def test_malformed_json_rejected(self):
        with pytest.raises(GraphError):
            ReductionCertificate.from_json("{}")

    @pytest.mark.parametrize("name", ["no-gadgets", "planar", "padded", "escaped-kind"])
    def test_to_json_is_the_indented_encoders_text(self, name):
        """to_json renders each gadget from a template; the text is still
        that of json.dumps(indent=2, sort_keys=True), a kind that needs
        escaping included."""
        if name == "escaped-kind":
            doc = json.loads(regularize(K4_MINUS_EDGE, 3)[1].to_json())
            for entry in doc["gadgets"]:
                entry["kind"] = 'odd "é" kind'
            cert = ReductionCertificate.from_json(json.dumps(doc))
        else:
            reduce = {
                "no-gadgets": lambda: reduce_to_regular(complete_graph(6), 5),
                "planar": lambda: regularize_planar(complete_graph(4)),
                "padded": lambda: reduce_to_regular(cycle_graph(4), 5),
            }[name]
            cert = reduce()[1]
        assert bool(cert.gadgets) == (name != "no-gadgets") and bool(cert.steps) == (name == "padded")
        doc = dict(
            vars(cert),
            steps=[vars(s) for s in cert.steps],
            gadgets=[{**vars(gi), "port": gi.port} for gi in cert.gadgets],
            origin_range=list(cert.origin_range),
        )
        assert cert.to_json() == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "field, value",
        [("owner", "x"), ("id_offset", "7"), ("size", 2.5), ("delta", True), ("port", None)],
    )
    def test_non_integer_gadget_field_rejected(self, field, value):
        _, cert = regularize(K4_MINUS_EDGE, 3)
        doc = json.loads(cert.to_json())
        doc["gadgets"][0][field] = value
        with pytest.raises(GraphError, match="malformed certificate"):
            ReductionCertificate.from_json(json.dumps(doc))

    def test_invariants(self):
        _, cert = reduce_to_regular(cycle_graph(4), 5)
        assert cert.total_offset == sum(
            s.alpha_offset for s in cert.steps
        ) + len(cert.gadgets) * cert.per_gadget_alpha
        ranges = [set(range(gi.id_offset, gi.id_offset + gi.size)) for gi in cert.gadgets]
        ranges.append(set(range(cert.padded_n)))
        for i, r1 in enumerate(ranges):
            for r2 in ranges[i + 1:]:
                assert not (r1 & r2)

    def test_gadget_kind_and_alpha_recorded(self):
        _, cert = regularize_planar(complete_graph(4))
        assert cert.gadget_kind == PLANAR5
        _, cert = regularize(K4_MINUS_EDGE, 3)
        assert cert.gadget_kind == GENERAL
        assert cert.per_gadget_alpha == gadget_alpha(3)


def test_triangle_preservation_general_pipeline():
    g = complete_graph(4)
    gp, cert = reduce_to_regular(g, 5)  # star pad only, no parity clique
    assert triangle_count(gp) == triangle_count(g) == 4
