import pytest

from regmis.gadgets import (
    GENERAL,
    ICOSA,
    ICOSA_LABELS,
    PLANAR5,
    alpha_report,
    build_gadget,
    build_general_gadget,
    build_icosa_gadget,
    build_planar_gadget,
    gadget_alpha,
    gadget_size,
    planar_gadget_alpha,
    stated_alpha_formula,
)
from regmis.graph import GraphError, is_independent_set, triangle_count
from regmis.solvers import mis_bruteforce

from conftest import all_maximum_independent_sets


class TestGeneralGadget:
    def test_delta3_counts(self):
        g, layout = build_general_gadget(3)
        assert (g.n, g.m) == (7, 10)
        assert g.degree(layout.port) == 2

    def test_delta5_counts(self):
        g, layout = build_general_gadget(5)
        assert (g.n, g.m) == (21, 52)

    def test_even_delta_rejected(self):
        with pytest.raises(GraphError):
            build_general_gadget(4)
        with pytest.raises(GraphError):
            build_general_gadget(1)

    @pytest.mark.parametrize("delta", [3, 5, 7, 9])
    def test_degree_profile(self, delta):
        g, layout = build_general_gadget(delta)
        assert g.n == gadget_size(GENERAL, delta) == (delta - 1) ** 2 + delta
        deficient = [v for v in range(g.n) if g.degree(v) != delta]
        assert deficient == [layout.port]
        assert g.degree(layout.port) == delta - 1

    @pytest.mark.parametrize("delta", [3, 5, 7])
    def test_roles_cover_all_vertices(self, delta):
        g, layout = build_general_gadget(delta)
        assert len(layout.roles) == g.n
        assert layout.roles.count("port") == 1
        k = (delta - 1) // 2
        hubs = [r for r in layout.roles if r.startswith("hub_")]
        assert len(hubs) == 2 * k

    def test_structure_matches_description(self):
        # A_i complete to B_i, hubs complete to their side, port to all hubs
        g, layout = build_general_gadget(5)
        by_role = {r: v for v, r in enumerate(layout.roles)}
        for i in (1, 2):
            a_ids = [v for v, r in enumerate(layout.roles) if r.startswith(f"part_a:{i}:")]
            b_ids = [v for v, r in enumerate(layout.roles) if r.startswith(f"part_b:{i}:")]
            assert all(v in g.neighbors(u) for u in a_ids for v in b_ids)
            assert all(v in g.neighbors(by_role[f"hub_a:{i}"]) for v in a_ids)
            assert all(v in g.neighbors(by_role[f"hub_b:{i}"]) for v in b_ids)
            assert by_role[f"hub_a:{i}"] in g.neighbors(layout.port)
            assert by_role[f"hub_b:{i}"] in g.neighbors(layout.port)


class TestGadgetAlpha:
    def test_delta3_by_exhaustive_enumeration(self):
        g, _ = build_general_gadget(3)
        sets = all_maximum_independent_sets(g)  # all 2^7 subsets
        assert len(sets[0]) == 3
        assert gadget_alpha(3) == 3

    def test_delta5_oracle(self):
        g, _ = build_general_gadget(5)
        assert mis_bruteforce(g).alpha == 10
        assert gadget_alpha(5) == 10

    @pytest.mark.parametrize("delta", [3, 5, 7])
    def test_closed_form_conjecture(self, delta):
        assert gadget_alpha(delta) == delta * (delta - 1) // 2

    @pytest.mark.parametrize("delta", [3, 5, 7])
    def test_published_formula_disagrees(self, delta):
        # the quoted closed form overcounts; the report must surface it
        assert stated_alpha_formula(delta) != gadget_alpha(delta)
        report = alpha_report(GENERAL, delta)
        assert report["alpha_exact"] == gadget_alpha(delta)
        assert report["claim_matches_exact"] is False

    @pytest.mark.parametrize("delta", [3, 5, 7])
    def test_canonical_witness_is_maximum_and_port_free(self, delta):
        g, layout = build_general_gadget(delta)
        assert layout.port not in layout.canonical_mis
        assert is_independent_set(g, layout.canonical_mis)
        assert len(layout.canonical_mis) == layout.internal_alpha

    @pytest.mark.parametrize("delta", [3, 5, 7, 9])
    def test_triangle_free(self, delta):
        g, _ = build_general_gadget(delta)
        assert triangle_count(g) == 0


class TestIcosaGadget:
    def test_counts_and_degrees(self):
        g, layout = build_icosa_gadget()
        assert (g.n, g.m) == (12, 29)
        idx = {c: i for i, c in enumerate(ICOSA_LABELS)}
        assert g.degree(idx["a"]) == 4
        assert g.degree(idx["b"]) == 4
        assert g.degree(idx["c"]) == 5
        assert sorted(g.degree(v) for v in range(12)) == [4, 4] + [5] * 10

    def test_unique_maximum_independent_set(self):
        g, layout = build_icosa_gadget()
        sets = all_maximum_independent_sets(g)  # all 2^12 subsets
        assert sets == [layout.canonical_mis]
        idx = {c: i for i, c in enumerate(ICOSA_LABELS)}
        assert layout.canonical_mis == {idx[c] for c in "abkf"}

    def test_contains_triangles(self):
        g, _ = build_icosa_gadget()
        assert triangle_count(g) > 0


class TestPlanarGadget:
    def test_counts(self):
        g, layout = build_planar_gadget()
        assert g.n == 25
        assert g.degree(layout.port) == 4
        others = [v for v in range(25) if v != layout.port]
        assert all(g.degree(v) == 5 for v in others)

    def test_alpha_by_oracle(self):
        assert planar_gadget_alpha() == 8

    def test_best_with_port_is_seven(self):
        g, layout = build_planar_gadget()
        closed = set(g.neighbors(layout.port)) | {layout.port}
        keep = [v for v in range(g.n) if v not in closed]
        relabel = {v: i for i, v in enumerate(keep)}
        from regmis.graph import Graph

        residual = Graph.from_edges(
            len(keep),
            [(relabel[u], relabel[v]) for u, v in g.edges() if u in relabel and v in relabel],
        )
        assert 1 + mis_bruteforce(residual).alpha == 7

    def test_canonical_witness(self):
        g, layout = build_planar_gadget()
        assert layout.port not in layout.canonical_mis
        assert is_independent_set(g, layout.canonical_mis)
        assert len(layout.canonical_mis) == 8


def test_port_containing_sets_never_beat_alpha():
    # best set through the port: ties alpha at delta 3, strictly worse at 5
    from regmis.graph import Graph

    for delta, expect_m1, expect_m2 in ((3, 3, 3), (5, 10, 9)):
        g, layout = build_general_gadget(delta)
        m1 = mis_bruteforce(g).alpha
        closed = set(g.neighbors(layout.port)) | {layout.port}
        keep = [v for v in range(g.n) if v not in closed]
        relabel = {v: i for i, v in enumerate(keep)}
        residual = Graph.from_edges(
            len(keep),
            [(relabel[u], relabel[v]) for u, v in g.edges() if u in relabel and v in relabel],
        )
        best_with_port = 1 + mis_bruteforce(residual).alpha
        assert (m1, best_with_port) == (expect_m1, expect_m2)


def test_build_gadget_dispatch():
    assert build_gadget(GENERAL, 3)[0].n == 7
    assert build_gadget(PLANAR5)[0].n == 25
    assert build_gadget(ICOSA)[0].n == 12
    with pytest.raises(GraphError):
        build_gadget("hexagon")
    with pytest.raises(GraphError):
        build_gadget(GENERAL)
    with pytest.raises(GraphError, match="unknown gadget kind"):
        build_gadget([])  # an unhashable kind is refused before the build cache


def test_one_build_per_kind_and_builders_delta():
    """Kinds without a target degree ignore the one asked for: one build
    serves every delta, and a general gadget one build per delta."""
    assert build_gadget(PLANAR5, 5) is build_gadget(PLANAR5) is build_gadget(PLANAR5, 7)
    assert build_gadget(ICOSA, 5) is build_gadget(ICOSA)
    assert build_gadget(GENERAL, 5) is build_gadget(GENERAL, 5) is not build_gadget(GENERAL, 7)


@pytest.mark.parametrize("kind, degree, size", [(PLANAR5, 5, 25), (GENERAL, 3, 7), (GENERAL, 5, 21), (GENERAL, 9, 73)])
def test_gadget_size_is_the_blueprints(kind, degree, size):
    assert gadget_size(kind, degree) == size == build_gadget(kind, degree if kind == GENERAL else None)[0].n


@pytest.mark.parametrize(
    "kind, degree", [(PLANAR5, 3), (PLANAR5, 7), (GENERAL, 4), (GENERAL, 2), (GENERAL, 1), (ICOSA, 5), ("hexagon", 3)]
)
def test_gadget_size_refuses_what_does_not_attach(kind, degree):
    with pytest.raises(GraphError) as raised:
        gadget_size(kind, degree)
    assert str(raised.value) == f"no closed-form gadget size for a {kind!r} gadget at degree {degree}"


@pytest.mark.parametrize("kind, degree", [(GENERAL, d) for d in range(3, 22, 2)] + [(PLANAR5, 5)])
def test_every_gadget_that_attaches_is_regular_but_for_its_port(kind, degree):
    """Where gadget_size admits a gadget, its blueprint has degree ``degree``
    at every vertex but the port, the last id, which has one less: the
    verifier reads a G' equal to its model as regular on this alone."""
    blueprint, layout = build_gadget(kind, degree)
    assert layout.port == blueprint.n - 1 == gadget_size(kind, degree) - 1
    assert [blueprint.degree(v) for v in range(blueprint.n)] == [degree] * (blueprint.n - 1) + [degree - 1]
