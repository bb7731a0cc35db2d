import ast
import dataclasses
import io
import json
import tracemalloc
from pathlib import Path

import pytest

from regmis import gadgets, graph, reduction, verify
from regmis.cli import main
from regmis.gadgets import GENERAL, ICOSA, PLANAR5
from regmis.graph import (
    Graph,
    GraphError,
    SortedEdges,
    complete_graph,
    star_graph,
)
from regmis.reduction import (
    PARITY_FIX,
    STAR_PAD,
    ReductionCertificate,
    ReductionStep,
    forward_map,
    plan_reduction,
    reduce_to_regular,
    regularize,
    regularize_planar,
)
from regmis.solvers import SolverLimits, mis_branch_bound, mis_bruteforce
from regmis.verify import (
    FAIL,
    PASS,
    SKIP,
    check_alpha_relation,
    check_certificate,
    check_planarity_necessary,
    check_port_exclusion,
    check_sandwich,
    check_triangle_preservation,
    verify_all,
    verify_canonical,
)
from regmis.io import parse_graph, serialize_graph

from conftest import cycle_graph, disjoint_union, empty_graph, fresh_alpha_cache, path_graph

K4_MINUS_EDGE = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def rehash(cert, g=None, g_prime=None):
    """Refresh certificate hashes after a deliberate mutation."""
    updates = {}
    if g is not None:
        updates["source_hash"] = g.content_hash()
    if g_prime is not None:
        updates["result_hash"] = g_prime.content_hash()
    return dataclasses.replace(cert, **updates)


def drop_edge(g, u, v):
    return Graph.from_edges(g.n, [e for e in g.edges() if e != (min(u, v), max(u, v))])


def add_edge(g, u, v):
    return Graph.from_edges(g.n, list(g.edges()) + [(u, v)])


def replace_gadget(cert, i, **changes):
    """The certificate with fields of its ``i``-th gadget changed."""
    forged = list(cert.gadgets)
    forged[i] = dataclasses.replace(forged[i], **changes)
    return dataclasses.replace(cert, gadgets=tuple(forged))


def certify_as_step(g, cert, kind, size, offset):
    """``cert``, issued for ``g`` plus a component of ``size`` vertices,
    recast as a certificate for ``g`` padded by one ``kind`` step."""
    return dataclasses.replace(
        cert,
        source_n=g.n,
        source_hash=g.content_hash(),
        steps=(ReductionStep(kind, g.n, g.n + size, offset),),
        total_offset=cert.total_offset + offset,
    )


@pytest.fixture(scope="module")
def pipeline():
    gp, cert = regularize(K4_MINUS_EDGE, 3)
    return K4_MINUS_EDGE, gp, cert


@pytest.fixture(scope="module")
def planar_pipeline():
    g = complete_graph(4)
    gp, cert = regularize_planar(g)
    return g, gp, cert


class TestRegularEntry:
    """The report's ``regular`` entry: every vertex of G' has the target degree."""

    @staticmethod
    def regular(g, gp, cert):
        return next(c for c in check_certificate(g, gp, cert).checks if c.name == "regular")

    def test_examples(self):
        g = complete_graph(4)
        assert self.regular(g, *regularize(g, 3)) == verify.Check("regular", PASS, "all 4 degrees equal 3")
        g = path_graph(3)
        gp, cert = regularize(g, 3)
        gi = cert.gadgets[0]
        mutated = drop_edge(gp, gi.port, gi.owner)
        check = self.regular(g, mutated, rehash(cert, g_prime=mutated))
        assert check == verify.Check("regular", FAIL, f"vertices {sorted([gi.owner, gi.port])} deviate from degree 3")

    def test_pipeline_output(self, pipeline):
        assert self.regular(*pipeline).status == PASS

    @pytest.mark.parametrize(
        "reduce",
        [lambda g: regularize(g, 3), lambda g: reduce_to_regular(g, 5), regularize_planar],
        ids=["general", "padded", "planar"],
    )
    def test_a_g_prime_that_is_its_model_is_not_counted(self, reduce, monkeypatch):
        """Every model is regular by construction, so a parsed G' equal to
        its model passes with no degree count (_faults never runs)."""

        def refuse(*args):
            raise AssertionError("G' was compared with its model edge by edge")

        monkeypatch.setattr(verify, "_faults", refuse)
        g = cycle_graph(4)
        assert verify_all(g, *reduce(g)).overall == PASS

    def test_the_models_edges_and_an_isolated_vertex_are_counted(self, pipeline):
        """The model's edges on one vertex more are not the model: the
        extra vertex is counted, and named."""
        g, gp, cert = pipeline
        mutated = Graph.from_edges(gp.n + 1, gp.edges())
        check = self.regular(g, mutated, rehash(cert, g_prime=mutated))
        assert check == verify.Check("regular", FAIL, f"vertices [{gp.n}] deviate from degree 3")


class TestCheckCertificate:
    def test_honest_pipeline_passes(self, pipeline):
        g, gp, cert = pipeline
        report = check_certificate(g, gp, cert)
        assert report.overall == PASS
        assert all(c.status == PASS for c in report.checks)

    def test_hash_mismatch_is_input_error(self, pipeline):
        g, gp, cert = pipeline
        with pytest.raises(GraphError):
            check_certificate(cycle_graph(4), gp, cert)

    def test_full_pipeline_with_padding_passes(self):
        g = cycle_graph(4)
        gp, cert = reduce_to_regular(g, 5)
        assert check_certificate(g, gp, cert).overall == PASS


def failed_checks(report):
    """The failing checks of ``report``, by name, with their details."""
    return {c.name: c.detail for c in report.checks if c.status == FAIL}


def first_difference(forged, cert, i):
    """gadget-counts' detail when ``forged``'s gadget list first differs
    from ``cert``'s canonical one at entry ``i``."""
    got, want = (str(verify._GADGET_FIELDS(c.gadgets[i])) if i < len(c.gadgets) else "none" for c in (forged, cert))
    return f"gadgets[{i}] is {got}, the canonical layout has {want} (owner, index, kind, delta, id_offset, size)"


class TestMutationDetection:
    """Every verifier check must fail under its designated single-edit
    mutation (100% kill rate on this set)."""

    def test_deleted_gadget_edge_kills_regular_and_blueprint(self, pipeline):
        g, gp, cert = pipeline
        gi = cert.gadgets[0]
        mutated = drop_edge(gp, gi.id_offset, gi.id_offset + 2)
        report = check_certificate(g, mutated, rehash(cert, g_prime=mutated))
        by_name = {c.name: c.status for c in report.checks}
        assert by_name["regular"] == FAIL
        assert by_name["gadget-blueprints"] == FAIL

    def test_offset_plus_one_kills_arithmetic(self, pipeline):
        g, gp, cert = pipeline
        forged = dataclasses.replace(cert, total_offset=cert.total_offset + 1)
        report = check_certificate(g, gp, forged)
        by_name = {c.name: c.status for c in report.checks}
        assert by_name["offset-arithmetic"] == FAIL

    def test_port_rewire_kills_attachment(self, pipeline):
        g, gp, cert = pipeline
        gi = cert.gadgets[0]
        other_owner = 1 if gi.owner != 1 else 0
        mutated = add_edge(drop_edge(gp, gi.port, gi.owner), gi.port, other_owner)
        report = check_certificate(g, mutated, rehash(cert, g_prime=mutated))
        assert {c.name: c.status for c in report.checks}["port-attachment"] == FAIL

    def test_edge_among_originals_kills_induced_check(self, pipeline):
        g, gp, cert = pipeline
        mutated = add_edge(gp, 2, 3)
        report = check_certificate(g, mutated, rehash(cert, g_prime=mutated))
        assert {c.name: c.status for c in report.checks}["origin-induced"] == FAIL

    def test_mutated_offset_kills_alpha_relation(self, pipeline):
        g, gp, cert = pipeline
        forged = dataclasses.replace(cert, total_offset=cert.total_offset + 1)
        assert check_alpha_relation(g, gp, forged).status == FAIL

    def test_gadget_chord_kills_cut_edge_check(self, planar_pipeline):
        g, gp, cert = planar_pipeline
        g1, g2 = cert.gadgets[0], cert.gadgets[1]
        mutated = add_edge(gp, g1.id_offset, g2.id_offset)
        forged = rehash(cert, g_prime=mutated)
        assert check_planarity_necessary(g, mutated, forged).status == FAIL

    def test_overlapping_ranges_kill_gadget_counts(self, pipeline):
        g, gp, cert = pipeline
        forged = replace_gadget(cert, 1, id_offset=cert.gadgets[0].id_offset)
        report = check_certificate(g, gp, forged)
        assert failed_checks(report) == {"gadget-counts": first_difference(forged, cert, 1)}

    def test_range_past_reduced_graph_kills_gadget_counts(self, pipeline):
        g, gp, cert = pipeline
        forged = replace_gadget(cert, 1, id_offset=gp.n - 1)
        report = check_certificate(g, gp, forged)
        assert failed_checks(report) == {"gadget-counts": first_difference(forged, cert, 1)}

    def test_dropped_gadget_kills_gadget_counts(self, pipeline):
        """A list one gadget short, with ``total_offset`` lowered to match,
        fails offset-arithmetic too: the offset is recomputed from the
        model's gadgets, not from the untrusted list's length."""
        g, gp, cert = pipeline
        forged = dataclasses.replace(
            cert,
            gadgets=cert.gadgets[:-1],
            total_offset=cert.total_offset - cert.per_gadget_alpha,
        )
        report = check_certificate(g, gp, forged)
        assert failed_checks(report) == {
            "gadget-counts": first_difference(forged, cert, 1),
            "offset-arithmetic": f"total_offset {forged.total_offset} vs recomputed {cert.total_offset}",
        }

    def test_ports_joined_to_each_other_kill_attachment(self, pipeline):
        g, gp, cert = pipeline
        g1, g2 = cert.gadgets[0], cert.gadgets[1]
        mutated = drop_edge(drop_edge(gp, g1.port, g1.owner), g2.port, g2.owner)
        mutated = add_edge(add_edge(mutated, g1.port, g2.port), g1.owner, g2.owner)
        forged = replace_gadget(replace_gadget(cert, 0, owner=g2.port), 1, owner=g1.port)
        report = check_certificate(g, mutated, rehash(forged, g_prime=mutated))
        assert {c.name: c.status for c in report.checks}["port-attachment"] == FAIL

    @pytest.mark.parametrize("index", [99, 0, 2])
    def test_misnumbered_gadget_kills_counts(self, pipeline, index):
        g, gp, cert = pipeline
        forged = replace_gadget(cert, 0, index=index)
        report = verify_all(g, gp, forged)
        assert failed_checks(report) == {"gadget-counts": first_difference(forged, cert, 0)}

    def test_edge_between_gadgets_kills_attachment(self, pipeline):
        g, gp, cert = pipeline
        g1, g2 = cert.gadgets[0], cert.gadgets[1]
        mutated = add_edge(gp, g1.id_offset, g2.id_offset)
        report = check_certificate(g, mutated, rehash(cert, g_prime=mutated))
        assert {c.name: c.status for c in report.checks}["port-attachment"] == FAIL

    @pytest.mark.parametrize("which", ["pipeline", "planar_pipeline"])
    def test_forged_gadget_alpha_kills_gadget_alpha(self, which, request):
        g, gp, cert = request.getfixturevalue(which)
        forged = dataclasses.replace(
            cert,
            per_gadget_alpha=cert.per_gadget_alpha + 1,
            total_offset=cert.total_offset + len(cert.gadgets),
        )
        report = check_certificate(g, gp, forged)
        assert report.overall == FAIL
        assert [c.name for c in report.checks if c.status != PASS] == ["gadget-alpha"]

    def test_mixed_deltas_kill_gadget_counts(self):
        g = K4_MINUS_EDGE
        gp, cert = regularize(g, 5)
        forged = replace_gadget(cert, 0, delta=3)
        report = check_certificate(g, gp, forged)
        assert failed_checks(report) == {"gadget-counts": first_difference(forged, cert, 0)}

    @pytest.mark.parametrize(
        "forge",
        [
            lambda cert: dataclasses.replace(cert, target_degree=4),
            lambda cert: dataclasses.replace(
                cert, gadgets=tuple(dataclasses.replace(gi, kind="foo") for gi in cert.gadgets)
            ),
        ],
        ids=["even-degree", "unknown-kind"],
    )
    def test_gadget_shape_without_size_kills_blueprints_and_size_bound(self, pipeline, forge):
        g, gp, cert = pipeline
        report = verify_all(g, gp, forge(cert))
        by_name = {c.name: c for c in report.checks}
        assert by_name["gadget-blueprints"].status == FAIL
        assert by_name["size-bound"].status == FAIL
        assert "no closed-form gadget size" in by_name["size-bound"].detail

    def test_extra_triangle_kills_triangle_preservation(self, pipeline):
        g, gp, cert = pipeline
        gi = cert.gadgets[0]
        # close a triangle inside a (triangle-free) gadget block
        mutated = add_edge(gp, gi.id_offset, gi.id_offset + 1)
        forged = rehash(cert, g_prime=mutated)
        assert check_triangle_preservation(g, mutated, forged).status == FAIL

    def test_source_longer_than_reduced_graph_kills_induced_check(self):
        g = disjoint_union(complete_graph(4), empty_graph(1))
        gp, cert = regularize(complete_graph(4), 3)  # G' = K4, one vertex short
        forged = rehash(dataclasses.replace(cert, source_n=5), g=g)
        report = check_certificate(g, gp, forged)
        assert {c.name: c.status for c in report.checks}["origin-induced"] == FAIL

    def test_zero_vertex_parity_step_kills_padding_steps(self, pipeline):
        g, gp, cert = pipeline
        forged = certify_as_step(g, cert, PARITY_FIX, 0, 1)
        report = verify_all(g, gp, forged)
        assert {c.name: c.status for c in report.checks}["padding-steps"] == FAIL
        assert check_sandwich(g, gp, forged, {2, 3}).status == FAIL

    def test_one_vertex_star_step_kills_padding_steps(self):
        g = K4_MINUS_EDGE
        gp, cert = regularize(disjoint_union(g, empty_graph(1)), 3)
        forged = certify_as_step(g, cert, STAR_PAD, 1, 0)
        report = verify_all(g, gp, forged)
        assert {c.name: c.status for c in report.checks}["padding-steps"] == FAIL
        assert check_sandwich(g, gp, forged, {2, 3}).status == FAIL


SWEEP_COMPONENTS = {
    "empty": empty_graph(0),
    "K1": empty_graph(1),
    "2K1": empty_graph(2),
    "K2": complete_graph(2),
    "K3": complete_graph(3),
    "P3": path_graph(3),
    "K1,3": star_graph(3),
    "C4": cycle_graph(4),
}


class TestSoundnessSweep:
    """Every small component certified as either step kind with every
    offset in [-1, |C| + 1]: whenever verify_all passes without the
    oracle, alpha(G') = alpha(G) + total_offset holds."""

    @pytest.mark.parametrize(
        "g", [K4_MINUS_EDGE, cycle_graph(5), path_graph(3)], ids=["K4-e", "C5", "P3"]
    )
    def test_passing_certificates_hold(self, g):
        alpha = mis_branch_bound(g).alpha
        passed = []
        for name, c in SWEEP_COMPONENTS.items():
            gp, cert = regularize(disjoint_union(g, c), 3)
            for kind in (PARITY_FIX, STAR_PAD):
                for offset in range(-1, c.n + 2):
                    forged = certify_as_step(g, cert, kind, c.n, offset)
                    if verify_all(g, gp, forged).overall == PASS:
                        assert mis_branch_bound(gp).alpha == alpha + forged.total_offset
                        passed.append((name, kind, offset))
        assert passed == [  # the honest certificates, so the sweep is not vacuous
            ("K1", PARITY_FIX, 1),
            ("K2", PARITY_FIX, 1),
            ("K2", STAR_PAD, 1),
            ("K3", PARITY_FIX, 1),
            ("K1,3", STAR_PAD, 3),
        ]


def regenerated(g, gp, cert, fmt="dimacs-col", **kwargs):
    """verify_canonical on the canonical text of ``gp``."""
    return verify_canonical(SortedEdges.of(g), io.BytesIO(serialize_graph(gp, fmt).encode()), fmt, cert, **kwargs)


@pytest.mark.parametrize("fmt", ["dimacs-col", "edge-list"])
@pytest.mark.parametrize(
    "g, reduce, with_oracle",
    [
        (empty_graph(0), lambda g: reduce_to_regular(g, 3), True),
        (empty_graph(3), lambda g: reduce_to_regular(g, 3), True),
        (complete_graph(4), lambda g: regularize(g, 3), True),
        (K4_MINUS_EDGE, lambda g: regularize(g, 3), True),
        (complete_graph(4), lambda g: reduce_to_regular(g, 7), False),
        (path_graph(3), lambda g: reduce_to_regular(g, 5), False),
        (cycle_graph(5), regularize_planar, False),
        (cycle_graph(130), lambda g: regularize(g, 3), False),
    ],
    ids=["empty", "edgeless", "already-regular", "k4e-oracle", "star-only", "parity", "planar", "130-gadgets"],
)
def test_canonical_input_is_answered_by_regeneration(g, reduce, with_oracle, fmt):
    gp, cert = reduce(g)
    report = regenerated(g, gp, cert, fmt, with_oracle=with_oracle)
    assert report is not None and report == verify_all(g, gp, cert, with_oracle=with_oracle)


class TestSoundnessSweepByRegeneration:
    """The sweep's certificates on canonical files: the regeneration path
    either declines or gives verify_all's report, and it answers for the
    honest ones."""

    @pytest.mark.parametrize("g", [K4_MINUS_EDGE, cycle_graph(5)], ids=["K4-e", "C5"])
    def test_same_report_as_the_parse_path(self, g):
        answered = []
        for name, c in SWEEP_COMPONENTS.items():
            gp, cert = regularize(disjoint_union(g, c), 3)
            for kind in (PARITY_FIX, STAR_PAD):
                for offset in range(-1, c.n + 2):
                    forged = certify_as_step(g, cert, kind, c.n, offset)
                    report = regenerated(g, gp, forged)
                    if report is not None:
                        assert report == verify_all(g, gp, forged)
                        answered.append((name, kind, offset, report.overall))
        assert {(name, kind, offset) for name, kind, offset, overall in answered if overall == PASS} == {
            ("K1", PARITY_FIX, 1), ("K2", PARITY_FIX, 1), ("K2", STAR_PAD, 1), ("K3", PARITY_FIX, 1), ("K1,3", STAR_PAD, 3),
        }

    def test_chorded_blueprint_is_left_to_the_parse_path(self, monkeypatch):
        real = gadgets.build_gadget

        def chorded(kind, delta=None):
            blueprint, layout = real(kind, delta)
            return Graph.from_edges(blueprint.n, list(blueprint.edges()) + [(0, 1)]), layout

        monkeypatch.setattr(gadgets, "build_gadget", chorded)
        fresh_alpha_cache(monkeypatch)
        g = cycle_graph(4)
        gp, cert = reduce_to_regular(g, 5)
        assert regenerated(g, gp, cert) is None  # its blocks are not 5-regular: the header's m is not 5|V'|/2


def refuse_degree(fn, delta):
    """``fn``, failing the test if it is ever called for degree ``delta``."""

    def guarded(*args):
        assert delta not in args, f"{fn.__name__} called for degree {delta}"
        return fn(*args)

    return guarded


def with_degree(cert, delta):
    """The certificate with every gadget, and the target, set to ``delta``."""
    size = gadgets.gadget_size(gadgets.GENERAL, delta)
    return dataclasses.replace(
        cert,
        target_degree=delta,
        gadgets=tuple(dataclasses.replace(gi, delta=delta, size=size) for gi in cert.gadgets),
    )


def empty_certificate(g, gp_digest, d=5):
    """A certificate that G, with no steps, reduces to degree ``d`` with
    no gadgets listed, and hashes ``g.digest`` and ``gp_digest``."""
    return ReductionCertificate(d, g.n, (), (), 10, 0, g.digest, gp_digest)


def traced_peak(call):
    """``call()`` and the peak bytes it allocated."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDeclaredCounts:
    """A vertex count that G or G' only declares costs nothing before the
    model's bounds: the layout, the blocks' internal edges and every list
    per padded vertex wait for them."""

    def test_many_declared_vertices_over_few_edges(self):
        """G declares 500 vertices and no edge; G' declares room for their
        2,500 gadgets of 21 vertices but has 60 edges, far fewer than
        those blocks' 130,000."""
        n = 500
        g = SortedEdges.hashed(n, [])
        gp = SortedEdges.hashed(n + 5 * n * 21 + 10, [x for i in range(60) for x in (i, i + 1)])
        report, peak = traced_peak(lambda: verify.verify_edges(g, gp, empty_certificate(g, gp.digest)))
        assert peak < 1 << 20
        detail = {c.name: c.detail for c in report.checks}["gadget-blueprints"]
        assert (report.overall, detail) == (FAIL, "2500 gadgets of 21 vertices need more edges than |E'|=60")

    def test_many_declared_vertices_over_a_small_canonical_file(self):
        """G declares 10**6 vertices and no edge; G' is a K6, 15 edge lines."""
        g = SortedEdges.hashed(10**6, [])
        k6 = complete_graph(6)
        text = serialize_graph(k6, "dimacs-col").encode()
        cert = empty_certificate(g, SortedEdges.of(k6).digest)
        answer, peak = traced_peak(lambda: verify_canonical(g, io.BytesIO(text), "dimacs-col", cert))
        assert answer is None and peak < 1 << 20

    @pytest.mark.parametrize("spare", [0, 10**4], ids=["bounds-fail", "bounds-hold"])
    def test_a_degree_above_the_target_is_named_first(self, spare):
        """K_{1,7} at degree 5, whether or not G' has room for its gadgets."""
        g = SortedEdges.of(star_graph(7))
        gp = SortedEdges.hashed(8 + spare, g.ends + [x for v in range(8, 8 + spare - 1) for x in (v, v + 1)])
        report = verify.verify_edges(g, gp, empty_certificate(g, gp.digest))
        assert {c.name: c.detail for c in report.checks}["gadget-blueprints"] == "a padded vertex has degree above 5"


class TestEdgesPlacedByTheirEnds:
    """Each edge of G' that differs from the model fails the check that
    its ends belong to, as the comparison of rows did."""

    def test_dropped_padding_edge_fails_padding_steps(self):
        g = cycle_graph(4)
        gp, cert = reduce_to_regular(g, 5)
        u, v = next((u, v) for u, v in gp.edges() if g.n <= u and v < cert.padded_n)
        mutated = drop_edge(gp, u, v)
        failed = failed_checks(check_certificate(g, mutated, rehash(cert, g_prime=mutated)))
        assert failed.pop("padding-steps") == "padded prefix of the reduced graph disagrees with the steps"
        assert set(failed) == {"regular"}

    def test_edge_past_the_model_fails_port_attachment(self, pipeline):
        """An edge from a gadget block to a vertex past the model's |V'|
        is seen from the block's side."""
        g, gp, cert = pipeline
        gi = cert.gadgets[0]
        mutated = Graph.from_edges(gp.n + 1, list(gp.edges()) + [(gi.id_offset, gp.n)])
        failed = failed_checks(check_certificate(g, mutated, rehash(cert, g_prime=mutated)))
        detail = f"gadget at {gi.id_offset} does not hang off one port-owner edge to a padded vertex"
        assert failed.pop("port-attachment") == detail
        assert set(failed) == {"regular", "size-bound"}


class TestUntrustedCertificate:
    def test_huge_degree_rejected_without_building_it(self, pipeline, monkeypatch):
        g, gp, cert = pipeline
        huge = 10001
        forged = with_degree(cert, huge)
        for name in ("build_gadget", "_exact_alpha"):
            monkeypatch.setattr(gadgets, name, refuse_degree(getattr(gadgets, name), huge))
        report = verify_all(g, gp, forged, with_oracle=True)
        by_name = {c.name: c.status for c in report.checks}
        assert report.overall == FAIL
        assert by_name["gadget-blueprints"] == FAIL
        assert by_name["gadget-alpha"] == SKIP
        assert by_name["port-exclusion"] == SKIP

    def test_gadget_with_more_edges_than_reduced_graph_not_built(self, pipeline, monkeypatch):
        g, gp, cert = pipeline
        sparse = disjoint_union(gp, empty_graph(100))
        gi = cert.gadgets[0]
        forged = dataclasses.replace(
            rehash(cert, g_prime=sparse),
            target_degree=7,
            gadgets=(dataclasses.replace(gi, delta=7, size=gadgets.gadget_size(gadgets.GENERAL, 7)),),
        )
        monkeypatch.setattr(gadgets, "build_gadget", refuse_degree(gadgets.build_gadget, 7))
        by_name = {c.name: c for c in check_certificate(g, sparse, forged).checks}
        assert by_name["gadget-blueprints"].status == FAIL
        assert "more edges" in by_name["gadget-blueprints"].detail

    def test_sandwich_checks_structure_before_lifting(self, pipeline, monkeypatch):
        g, gp, cert = pipeline
        huge = 10001
        monkeypatch.setattr(gadgets, "build_gadget", refuse_degree(gadgets.build_gadget, huge))
        check = check_sandwich(g, gp, with_degree(cert, huge), {0})
        assert check.status == FAIL
        assert "structural" in check.detail

    def test_sandwich_hash_mismatch_fails(self, pipeline):
        _, gp, cert = pipeline
        check = check_sandwich(cycle_graph(4), gp, cert, set())
        assert check.status == FAIL
        assert "source hash" in check.detail

    @pytest.mark.parametrize("k, cause", [(100, "edges"), (2000, "past |V'|")])
    def test_oversized_parity_step_fails_before_rebuild(self, k, cause, monkeypatch):
        g = cycle_graph(4)
        gp, cert = reduce_to_regular(g, 5)  # parity K4, then a 6-vertex star
        assert (gp.n, gp.m) == (854, 2135)
        parity = dataclasses.replace(cert.steps[0], end=cert.steps[0].start + k)
        forged = dataclasses.replace(cert, steps=(parity,) + cert.steps[1:])
        real, built = verify._step_rows, []

        def bounded_first(kind, start, size):
            assert size < k, f"rows of a {size}-vertex {kind} built before its bounds"
            built.append(size)
            return real(kind, start, size)

        monkeypatch.setattr(verify, "_step_rows", bounded_first)
        by_name = {c.name: c for c in check_certificate(g, gp, forged).checks}
        assert by_name["padding-steps"].status == FAIL
        assert cause in by_name["padding-steps"].detail
        assert by_name["gadget-counts"].status == SKIP
        assert built == []
        assert check_certificate(g, gp, cert).overall == PASS
        assert built == [4, 6]  # the parity clique and the star

    def test_planar_range_past_reduced_graph_fails(self, planar_pipeline):
        g, gp, cert = planar_pipeline
        forged = replace_gadget(cert, 1, id_offset=gp.n - 1)
        report = verify_all(g, gp, forged)
        assert failed_checks(report) == {"gadget-counts": first_difference(forged, cert, 1)}
        # G' itself is the model, so its planarity conditions hold
        assert {c.name: c.status for c in report.checks}["planarity-necessary"] == PASS


class TestSoundnessChecksEachFailTheirForgery:
    """A forgery per check that, were the check deleted, would pass every
    other check and still be unsound or wrongly reported."""

    def test_a_step_over_a_source_vertex_fails_padding_steps(self):
        """C4's degree-5 certificate with its parity clique moved onto ids
        3..6, over G's vertex 3, and G' the model of those steps: padded_n
        still adds up and the star stays at 8..13, but alpha(G') is 409,
        not alpha(G) + total_offset = 408."""
        g = cycle_graph(4)
        _, cert = reduce_to_regular(g, 5)
        clique, star = [(u, v) for u in range(3, 7) for v in range(u + 1, 7)], [(8, v) for v in range(9, 14)]
        gp, listed = hang(Graph.from_edges(14, list(g.edges()) + clique + star), GENERAL, 5)
        steps = (ReductionStep(PARITY_FIX, 3, 7, 1), cert.steps[1])
        forged = rehash(dataclasses.replace(cert, steps=steps, gadgets=listed), g_prime=gp)
        assert (forged.padded_n, forged.total_offset, mis_branch_bound(gp).alpha) == (14, 406, 409)
        failed = failed_checks(verify_all(g, gp, forged))
        assert failed == {
            "padding-steps": "certificate step ranges are not contiguous",
            "triangle-preservation": "not derivable: structural checks failed",
        }

    def test_a_step_of_an_unknown_kind_fails_padding_steps(self):
        g = cycle_graph(4)
        gp, cert = reduce_to_regular(g, 5)
        forged = dataclasses.replace(cert, steps=(cert.steps[0], dataclasses.replace(cert.steps[1], kind="foo")))
        assert failed_checks(verify_all(g, gp, forged)) == {
            "padding-steps": "unknown reduction step kind 'foo'",
            "triangle-preservation": "not derivable: structural checks failed",
        }

    def test_more_edges_than_eulers_bound_fail_planarity(self, planar_pipeline):
        g, _, cert = planar_pipeline
        k30 = complete_graph(30)
        check = check_planarity_necessary(g, k30, rehash(cert, g_prime=k30))
        assert check == verify.Check("planarity-necessary", FAIL, "m=435 exceeds 3n-6=84")

    @pytest.mark.parametrize("wrong", ["dependent", "short"])
    def test_a_wrong_canonical_witness_fails_the_sandwich(self, pipeline, monkeypatch, wrong):
        """The lifting reads each gadget's canonical witness, which the
        structural checks do not see: one joined to a neighbour inside its
        gadget is not independent, one a vertex short is too small."""
        real = gadgets.build_gadget

        def witness(kind, delta=None):
            blueprint, layout = real(kind, delta)
            members = layout.canonical_mis
            first = min(members)
            members = members - {first} if wrong == "short" else members | {blueprint.neighbors(first)[0]}
            return blueprint, dataclasses.replace(layout, canonical_mis=members)

        monkeypatch.setattr(gadgets, "build_gadget", witness)
        fresh_alpha_cache(monkeypatch)
        g, gp, cert = pipeline
        certified = 2 + cert.total_offset
        detail = {
            "dependent": "lifted set is not independent in the reduced graph",
            "short": f"lifted set has {certified - len(cert.gadgets)} vertices, expected {certified}",
        }[wrong]
        assert check_sandwich(g, gp, cert, {2, 3}) == verify.Check("sandwich", FAIL, detail)


class TestLinearWork:
    """Deterministic work guards: counts of whole-graph walks, no timing."""

    @staticmethod
    def count_calls(monkeypatch, owner, name):
        calls = []
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args[0] if args else None)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    @pytest.mark.parametrize("n", [10, 200])
    def test_certificate_walks_do_not_grow_with_gadgets(self, n, monkeypatch):
        g = cycle_graph(n)
        gp, cert = regularize(g, 3)
        assert len(cert.gadgets) == n
        edge_walks = self.count_calls(monkeypatch, Graph, "edges")
        row_walks = self.count_calls(monkeypatch, graph, "ends_of")
        builds = self.count_calls(monkeypatch, gadgets, "build_gadget")
        assert check_certificate(g, gp, cert).overall == PASS
        assert edge_walks == []
        text_walks = [rows for rows in row_walks if rows is g.adjacency or rows is gp.adjacency]
        assert len(text_walks) == 2  # the two content hashes, one rows walk per graph
        assert all(len(rows) == gadgets.gadget_size(gadgets.GENERAL, 3) for rows in row_walks if rows not in text_walks)
        assert len(builds) == 1

    @staticmethod
    def count_builds(monkeypatch):
        """The builds of each gadget, counted at its builder, in an empty build cache."""
        fresh_alpha_cache(monkeypatch)
        return {kind: TestLinearWork.count_calls(monkeypatch, gadgets, name) for kind, name in (
            (GENERAL, "build_general_gadget"), (PLANAR5, "build_planar_gadget"),
        )}

    def test_one_blueprint_per_verify(self, monkeypatch):
        """A reduction, verify_all and verify_canonical build the gadget
        blueprint once in all: the plan, the cached solve, the model and
        the derived triangle check share one build."""
        builds = self.count_builds(monkeypatch)
        g = cycle_graph(4)
        gp, cert = reduce_to_regular(g, 5)
        text = serialize_graph(gp, "dimacs-col")
        assert verify_all(g, gp, cert).overall == PASS
        report = verify_canonical(SortedEdges.of(g), io.BytesIO(text.encode()), "dimacs-col", cert)
        assert report.overall == PASS
        assert builds == {GENERAL: [5], PLANAR5: []}

    def test_one_blueprint_per_planar_verify(self, monkeypatch):
        """The plan asks for the planar gadget at degree 5 and its solve for
        the builder's delta, None: one build serves both, and the model."""
        builds = self.count_builds(monkeypatch)
        g = cycle_graph(4)
        gp, cert = regularize_planar(g)
        assert verify_all(g, gp, cert).overall == PASS
        assert builds == {GENERAL: [], PLANAR5: [None]}

    def test_one_blueprint_per_oracle_verify(self, monkeypatch):
        """With the oracle too, a reduction, verify_all and verify_canonical
        build the blueprint once in all: port exclusion runs on the model's."""
        builds = self.count_builds(monkeypatch)
        g = cycle_graph(4)
        gp, cert = reduce_to_regular(g, 5)
        text = serialize_graph(gp, "dimacs-col")
        blueprint = verify._checks(SortedEdges.of(g), SortedEdges.of(gp), cert)[1].blueprint
        excluded = self.count_calls(monkeypatch, verify, "_without")  # port exclusion's two solves
        report = verify_all(g, gp, cert, with_oracle=True)
        assert report.overall == PASS and "port-exclusion" in {c.name for c in report.checks}
        report = verify_canonical(SortedEdges.of(g), io.BytesIO(text.encode()), "dimacs-col", cert, with_oracle=True)
        assert report.overall == PASS and "port-exclusion" in {c.name for c in report.checks}
        assert len(excluded) == 4 and all(h is blueprint for h in excluded)
        assert builds == {GENERAL: [5], PLANAR5: []}

    def test_certificate_builds_no_padded_graph(self, monkeypatch):
        g = cycle_graph(4)
        gp, cert = reduce_to_regular(g, 5)

        def refuse(*args):
            raise AssertionError("the verifier built a padded Graph")

        # disjoint_union is no longer library code (it lives in conftest)
        for name in ("complete_graph", "star_graph"):
            monkeypatch.setattr(graph, name, refuse)
        for name in ("complete_graph", "star_graph"):
            monkeypatch.setattr(reduction, name, refuse)
        assert check_certificate(g, gp, cert).overall == PASS

    def test_triangle_check_walks_each_graph_once(self, monkeypatch):
        g = complete_graph(4)
        gp, cert = reduce_to_regular(g, 5)
        walks = self.count_calls(monkeypatch, Graph, "edges")
        row_walks = self.count_calls(monkeypatch, graph, "ends_of")
        enumerated = self.count_calls(monkeypatch, graph, "triangles")
        assert check_triangle_preservation(g, gp, cert).status == PASS
        # each graph is walked once, by its content hash; the other rows walked are the blueprint's
        text_walks = [rows for rows in row_walks if rows is g.adjacency or rows is gp.adjacency]
        assert sorted(map(len, text_walks)) == sorted([g.n, gp.n])
        assert all(len(rows) == gadgets.gadget_size(gadgets.GENERAL, 5) for rows in row_walks if rows not in text_walks)
        assert all(w.n <= gadgets.gadget_size(gadgets.GENERAL, 5) for w in walks)
        assert not any(t is g or t is gp for t in enumerated)

    @pytest.mark.parametrize(
        "g, reduce",
        [
            (complete_graph(4), lambda g: reduce_to_regular(g, 5)),
            (K4_MINUS_EDGE, lambda g: regularize(g, 3)),
            (complete_graph(4), regularize_planar),
        ],
        ids=["padded", "general", "planar"],
    )
    def test_verify_all_enumerates_no_triangles_of_either_graph(self, g, reduce, monkeypatch):
        gp, cert = reduce(g)
        enumerated = self.count_calls(monkeypatch, graph, "triangles")
        assert verify_all(g, gp, cert).overall == PASS
        assert not any(t is g or t is gp for t in enumerated)


def chord_the_blueprint(monkeypatch, chorded_kind=GENERAL, chord=(0, 1)):
    """Patch ``build_gadget`` to give the ``chorded_kind`` gadget an extra
    edge ``chord``, so the verifier's model, built from the same blueprint,
    is not d-regular."""
    real = gadgets.build_gadget

    def chorded(kind, delta=None):
        blueprint, layout = real(kind, delta)
        if kind == chorded_kind:
            blueprint = Graph.from_edges(blueprint.n, list(blueprint.edges()) + [chord])
        return blueprint, layout

    monkeypatch.setattr(gadgets, "build_gadget", chorded)
    fresh_alpha_cache(monkeypatch)


@pytest.mark.parametrize(
    "kind, chord, reduce, irregular",
    [
        (GENERAL, (0, 1), lambda g: reduce_to_regular(g, 5), [14, 15, 35, 36, 56]),  # blocks of 21 from 14
        (PLANAR5, (2, 14), regularize_planar, [6, 18, 31, 43, 56]),  # blocks of 25 from 4; no other check fails
    ],
    ids=["general", "planar"],
)
def test_a_chorded_blueprint_fails_regular_on_both_paths(tmp_path, capsys, monkeypatch, kind, chord, reduce, irregular):
    """A G' equal to a model that is not d-regular has its degrees counted:
    in :func:`verify_all`, and through the CLI, where the canonical file is
    refused by :func:`verify_canonical` and parsed.  Both ends of the chord
    have degree 6 in every block."""
    chord_the_blueprint(monkeypatch, kind, chord)
    g = cycle_graph(4)
    gp, cert = reduce(g)
    detail = f"vertices {irregular} deviate from degree 5"
    regular = {c.name: c for c in verify_all(g, gp, cert).checks}["regular"]
    assert (regular.status, regular.detail) == (FAIL, detail)

    files = {"graph": ("g.col", serialize_graph(g, "dimacs-col")), "reduced": ("gp.col", serialize_graph(gp, "dimacs-col"))}
    files["cert"] = ("cert.json", cert.to_json())
    for name, text in files.values():
        (tmp_path / name).write_text(text)
    reduced = io.BytesIO(files["reduced"][1].encode())
    assert verify_canonical(SortedEdges.of(g), reduced, "dimacs-col", cert) is None
    assert main(["verify"] + [x for flag, (name, _) in files.items() for x in (f"--{flag}", str(tmp_path / name))]) == 1
    report = json.loads(capsys.readouterr().out)
    regular = {c["name"]: c for c in report["checks"]}["regular"]
    assert (regular["status"], regular["detail"]) == (FAIL, detail)


def test_verifier_shares_only_allowlisted_names():
    """Every name the verifier takes from the graph, constructor and gadget
    modules, by ``from`` import (relative or absolute) or as an attribute of
    the imported module, is on this list, and none of them places port
    edges: the verifier merges its own."""
    modules = ("graph", "reduction", "gadgets")
    tree = ast.parse(Path(verify.__file__).read_text())
    aliases, shared = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "regmis" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "regmis"):
            module = node.module if node.level else node.module.partition(".")[2] or None
            if module in modules:
                shared |= {f"{module}.{alias.name}" for alias in node.names}
            elif module is None:
                aliases.update((alias.asname or alias.name, alias.name) for alias in node.names if alias.name in modules)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            shared.add(f"{aliases[node.value.id]}.{node.attr}")
    assert shared == {
        "graph.Graph", "graph.GraphError", "graph.Pieces", "graph.Row", "graph.SortedEdges",
        "graph.content_digest", "graph.ends_of", "graph.is_independent_set", "graph.triangle_count",
        "reduction.PARITY_FIX", "reduction.STAR_PAD", "reduction.ReductionCertificate", "reduction.forward_map",
        "gadgets.GENERAL", "gadgets.PLANAR5", "gadgets.GadgetLayout", "gadgets.build_gadget", "gadgets.gadget_size",
    }


class TestAlphaRelation:
    def test_k4_minus_edge(self, pipeline):
        g, gp, cert = pipeline
        check = check_alpha_relation(g, gp, cert)
        assert check.status == PASS
        assert "alpha'=8" in check.detail

    def test_single_vertex(self):
        g = Graph.from_edges(1, [])
        gp, cert = regularize(g, 3)
        check = check_alpha_relation(g, gp, cert)
        assert check.status == PASS and "alpha'=10" in check.detail

    def test_budget_exhaustion_skips(self):
        from test_solvers import PETERSEN

        # three disjoint Petersen graphs: more than 20 vertices, so bb solves them
        g = Graph.from_edges(30, [(u + 10 * c, v + 10 * c) for c in range(3) for u, v in PETERSEN.edges()])
        gp, cert = regularize(g, 3)  # already 3-regular, identity
        check = check_alpha_relation(g, gp, cert, SolverLimits(node_budget=1))
        assert check.status == SKIP


class TestSandwich:
    def test_planar_k4_certified_without_solving(self, planar_pipeline):
        g, gp, cert = planar_pipeline
        check = check_sandwich(g, gp, cert, {0})
        assert check.status == PASS
        assert "65" in check.detail

    def test_general_pipeline_with_oracle_max(self):
        g = disjoint_union(cycle_graph(5), complete_graph(4))
        best = mis_bruteforce(g).witness
        assert len(best) == 3
        gp, cert = regularize(g, 3)
        assert check_sandwich(g, gp, cert, best).status == PASS

    def test_non_maximum_input_reports_conditional(self, planar_pipeline):
        g, gp, cert = planar_pipeline
        check = check_sandwich(g, gp, cert, set())
        assert check.status == PASS
        assert "conditional" in check.detail

    def test_dependent_input_fails(self, planar_pipeline):
        g, gp, cert = planar_pipeline
        assert check_sandwich(g, gp, cert, {0, 1}).status == FAIL


class TestTrianglePreservation:
    def test_k4_at_degree_five(self):
        g = complete_graph(4)
        gp, cert = reduce_to_regular(g, 5)
        check = check_triangle_preservation(g, gp, cert)
        assert check.status == PASS

    def test_triangle_free_input(self, ):
        g = cycle_graph(5)
        gp, cert = regularize(g, 3)
        assert check_triangle_preservation(g, gp, cert).status == PASS

    def test_parity_clique_triangles_accounted(self):
        g = cycle_graph(4)
        gp, cert = reduce_to_regular(g, 3)
        assert check_triangle_preservation(g, gp, cert).status == PASS

    def test_planar_pipeline_skipped(self, planar_pipeline):
        g, gp, cert = planar_pipeline
        assert check_triangle_preservation(g, gp, cert).status == SKIP

    def test_hash_mismatch_fails(self, pipeline):
        _, gp, cert = pipeline
        check = check_triangle_preservation(cycle_graph(4), gp, cert)
        assert check.status == FAIL and "source hash" in check.detail

    def test_skip_does_no_structural_work(self, pipeline, planar_pipeline, monkeypatch):
        def refuse(*args):
            raise AssertionError("a graph was read as its sorted edges")

        monkeypatch.setattr(SortedEdges, "of", refuse)  # every structural check reads both graphs so first
        g, gp, cert = planar_pipeline
        assert check_triangle_preservation(g, gp, cert).status == SKIP
        g, gp, cert = pipeline
        assert check_planarity_necessary(g, gp, cert).status == SKIP

    def test_reads_the_blueprint(self, monkeypatch):
        """A general gadget with a chord between two vertices of one side
        closes triangles; the blocks still match (the same chorded
        blueprint), so the blueprint and attachment checks pass, and the
        derived triangle check sees it (as ``regular`` sees the degrees)."""
        chord_the_blueprint(monkeypatch)
        g = cycle_graph(4)
        gp, cert = reduce_to_regular(g, 5)
        by_name = {c.name: c for c in verify_all(g, gp, cert).checks}
        assert by_name["gadget-blueprints"].status == PASS
        assert by_name["port-attachment"].status == PASS
        assert by_name["triangle-preservation"].status == FAIL
        assert "blueprint" in by_name["triangle-preservation"].detail


class TestOneSolvePerGadgetShape:
    def test_regularize_verify_and_verify_all_share_each_solve(self, monkeypatch):
        """The constructor's ``per_gadget_alpha`` and the verifier's
        gadget-alpha check read one cached solve per gadget shape, keyed by
        the delta its builder records (None for the planar gadget), not by
        the target degree, whichever path reads it."""
        fresh_alpha_cache(monkeypatch)
        real, solved = gadgets.mis_branch_bound, []
        monkeypatch.setattr(gadgets, "mis_branch_bound", lambda g, limits: solved.append(g.n) or real(g, limits))
        for g, planar in ((complete_graph(4), True), (cycle_graph(4), False)):
            edges, out = SortedEdges.of(g), io.StringIO()
            cert = plan_reduction(edges, 5, planar).write(out, "dimacs-col")
            text = out.getvalue()
            assert verify_canonical(edges, io.BytesIO(text.encode()), "dimacs-col", cert).overall == PASS
            assert verify_all(g, parse_graph(text, "dimacs-col"), cert).overall == PASS
        assert sorted(solved) == [gadgets.gadget_size(GENERAL, 5), gadgets.gadget_size(PLANAR5, 5)]


class TestPortExclusion:
    def test_delta3_tie(self):
        check = check_port_exclusion(GENERAL, 3)
        assert check.status == PASS and "tie" in check.detail

    def test_delta5_strict(self):
        check = check_port_exclusion(GENERAL, 5)
        assert check.status == PASS and "strict" in check.detail
        assert "alpha=10" in check.detail and "9" in check.detail

    def test_planar_strict(self):
        check = check_port_exclusion(PLANAR5)
        assert check.status == PASS and "strict" in check.detail
        assert "alpha=8" in check.detail and "7" in check.detail

    def test_portless_kind_skipped(self):
        assert check_port_exclusion(ICOSA).status == SKIP

    @pytest.mark.parametrize(
        "edges, n, port",
        [
            ([(0, 1)], 3, 2),  # an edge and an isolated port
            ([(0, 1), (1, 2)], 3, 0),  # a path with the port at one end
        ],
    )
    def test_a_port_in_every_maximum_set_fails(self, monkeypatch, edges, n, port):
        """alpha(H - port) = 1 < 2 = alpha(H): every maximum set holds the port."""
        layout = gadgets.GadgetLayout(GENERAL, 3, ("x",) * n, port, frozenset())
        monkeypatch.setattr(gadgets, "build_gadget", lambda kind, delta=None: (Graph.from_edges(n, edges), layout))
        check = check_port_exclusion(GENERAL, 3)
        assert check.status == FAIL and "tie" not in check.detail
        assert "best-with-port=2" in check.detail


class TestPlanarityNecessary:
    def test_planar_k4(self, planar_pipeline):
        g, gp, cert = planar_pipeline
        check = check_planarity_necessary(g, gp, cert)
        assert check.status == PASS
        assert "510" in check.detail and "606" in check.detail

    def test_pass_does_not_claim_source_planarity(self, planar_pipeline):
        g, gp, cert = planar_pipeline
        assert "source planarity: not certified" in check_planarity_necessary(g, gp, cert).detail
        planarity = [c for c in verify_all(g, gp, cert).checks if c.name == "planarity-necessary"]
        assert planarity[0].status == PASS and "not certified" in planarity[0].detail

    def test_hash_mismatch_fails(self, planar_pipeline):
        g, gp, cert = planar_pipeline
        check = check_planarity_necessary(g, gp, rehash(cert, g_prime=complete_graph(4)))
        assert check.status == FAIL and "result hash" in check.detail

    def test_general_pipeline_skipped(self, pipeline):
        g, gp, cert = pipeline
        assert check_planarity_necessary(g, gp, cert).status == SKIP


class TestVerifyAll:
    def test_honest_general_with_oracle(self, pipeline):
        g, gp, cert = pipeline
        report = verify_all(g, gp, cert, with_oracle=True)
        assert report.overall == PASS
        assert any(c.name == "alpha-relation" and c.status == PASS for c in report.checks)

    def test_honest_planar_without_oracle(self, planar_pipeline):
        g, gp, cert = planar_pipeline
        report = verify_all(g, gp, cert)
        assert report.overall == PASS
        assert any(c.status == SKIP for c in report.checks)

    def test_report_json(self, pipeline):
        import json

        g, gp, cert = pipeline
        doc = json.loads(verify_all(g, gp, cert).to_json())
        assert doc["overall"] == "pass"
        assert {c["name"] for c in doc["checks"]} >= {"regular", "offset-arithmetic"}


def _general():
    return (K4_MINUS_EDGE, *regularize(K4_MINUS_EDGE, 3))


def _planar():
    return (complete_graph(4), *regularize_planar(complete_graph(4)))


def _edited_graph(make, edit):
    g, gp, cert = make()
    mutated = edit(gp, cert.gadgets)
    return g, mutated, rehash(cert, g_prime=mutated)


def _forged_cert(make, forge):
    g, gp, cert = make()
    return g, gp, forge(cert, gp)


def _ports_joined():
    g, gp, cert = _general()
    g1, g2 = cert.gadgets[0], cert.gadgets[1]
    mutated = drop_edge(drop_edge(gp, g1.port, g1.owner), g2.port, g2.owner)
    mutated = add_edge(add_edge(mutated, g1.port, g2.port), g1.owner, g2.owner)
    forged = replace_gadget(replace_gadget(cert, 0, owner=g2.port), 1, owner=g1.port)
    return g, mutated, rehash(forged, g_prime=mutated)


def _forged_alpha(cert, gp):
    return dataclasses.replace(
        cert,
        per_gadget_alpha=cert.per_gadget_alpha + 1,
        total_offset=cert.total_offset + len(cert.gadgets),
    )


# The honest reductions and every mutation of TestMutationDetection, each
# as a whole verify_all input.
REPORT_INPUTS = {
    "honest-general": _general,
    "honest-padded": lambda: (cycle_graph(4), *reduce_to_regular(cycle_graph(4), 5)),
    "honest-planar": _planar,
    "deleted-gadget-edge": lambda: _edited_graph(
        _general, lambda gp, gs: drop_edge(gp, gs[0].id_offset, gs[0].id_offset + 2)
    ),
    "offset-plus-one": lambda: _forged_cert(
        _general, lambda c, gp: dataclasses.replace(c, total_offset=c.total_offset + 1)
    ),
    "port-rewire": lambda: _edited_graph(
        _general,
        lambda gp, gs: add_edge(
            drop_edge(gp, gs[0].port, gs[0].owner), gs[0].port, 1 if gs[0].owner != 1 else 0
        ),
    ),
    "edge-among-originals": lambda: _edited_graph(_general, lambda gp, gs: add_edge(gp, 2, 3)),
    "planar-gadget-chord": lambda: _edited_graph(
        _planar, lambda gp, gs: add_edge(gp, gs[0].id_offset, gs[1].id_offset)
    ),
    "overlapping-ranges": lambda: _forged_cert(
        _general, lambda c, gp: replace_gadget(c, 1, id_offset=c.gadgets[0].id_offset)
    ),
    "range-past-reduced-graph": lambda: _forged_cert(
        _general, lambda c, gp: replace_gadget(c, 1, id_offset=gp.n - 1)
    ),
    "planar-range-past-reduced-graph": lambda: _forged_cert(
        _planar, lambda c, gp: replace_gadget(c, 1, id_offset=gp.n - 1)
    ),
    "dropped-gadget": lambda: _forged_cert(
        _general,
        lambda c, gp: dataclasses.replace(
            c, gadgets=c.gadgets[:-1], total_offset=c.total_offset - c.per_gadget_alpha
        ),
    ),
    "ports-joined": _ports_joined,
    "edge-between-gadgets": lambda: _edited_graph(
        _general, lambda gp, gs: add_edge(gp, gs[0].id_offset, gs[1].id_offset)
    ),
    "forged-gadget-alpha-general": lambda: _forged_cert(_general, _forged_alpha),
    "forged-gadget-alpha-planar": lambda: _forged_cert(_planar, _forged_alpha),
    "mixed-deltas": lambda: _forged_cert(
        lambda: (K4_MINUS_EDGE, *regularize(K4_MINUS_EDGE, 5)),
        lambda c, gp: replace_gadget(c, 0, delta=3),
    ),
    "even-degree": lambda: _forged_cert(
        _general, lambda c, gp: dataclasses.replace(c, target_degree=4)
    ),
    "unknown-kind": lambda: _forged_cert(
        _general,
        lambda c, gp: dataclasses.replace(
            c, gadgets=tuple(dataclasses.replace(gi, kind="foo") for gi in c.gadgets)
        ),
    ),
    "extra-triangle": lambda: _edited_graph(
        _general, lambda gp, gs: add_edge(gp, gs[0].id_offset, gs[0].id_offset + 1)
    ),
}

REPORT_LAYOUT = (
    "regular", "origin-induced", "padding-steps", "gadget-blueprints",
    "port-attachment", "gadget-counts", "size-bound", "offset-arithmetic",
    "gadget-alpha", "triangle-preservation", "planarity-necessary",
    "alpha-relation", "port-exclusion",
)

# (input, with_oracle) -> status initials (pass, fail, skipped) in
# REPORT_LAYOUT order, recorded when triangle-preservation still
# enumerated the triangles of G and G'.  The inputs whose certificate lists
# a non-canonical gadget layout or names a gadget without a closed-form
# size were recorded again once the gadget list was compared whole with
# the verifier's model of G', and the dropped gadget once offset-arithmetic
# counted the model's gadgets instead of the list's.
ENUMERATED_REPORTS = {
    ("honest-general", False): "ppppppppppss",
    ("honest-general", True): "ppppppppppspp",
    ("honest-padded", False): "ppppppppppss",
    ("honest-planar", False): "pppppppppsps",
    ("deleted-gadget-edge", False): "fppfppppspss",
    ("offset-plus-one", False): "pppppppfppss",
    ("offset-plus-one", True): "pppppppfppsfp",
    ("port-rewire", False): "fpppfpppppss",
    ("edge-among-originals", False): "fffppppppfss",
    ("planar-gadget-chord", False): "fpppfppppsfs",
    ("overlapping-ranges", False): "pppppfppppss",
    ("range-past-reduced-graph", False): "pppppfppppss",
    ("planar-range-past-reduced-graph", False): "pppppfpppsps",
    ("dropped-gadget", False): "pppppfpfppss",
    ("ports-joined", False): "pffpffpppfss",
    ("edge-between-gadgets", False): "fpppfpppppss",
    ("forged-gadget-alpha-general", False): "ppppppppfpss",
    ("forged-gadget-alpha-planar", False): "ppppppppfsps",
    ("mixed-deltas", False): "pppppfppppss",
    ("even-degree", False): "fppfssfpspss",
    ("unknown-kind", False): "pppfssfpssss",
    ("extra-triangle", False): "fppfppppsfss",
}


def derived_statuses(enumerated):
    """The enumerating check's report with triangle preservation derived:
    it fails wherever padding-steps, gadget-blueprints, port-attachment or
    size-bound did not pass, since G' then is not known to be the model
    the triangle count is derived from."""
    t = REPORT_LAYOUT.index("triangle-preservation")
    structure = enumerated[2:5] + enumerated[REPORT_LAYOUT.index("size-bound")]
    if enumerated[t] == "p" and structure != "pppp":  # padding-steps .. port-attachment, size-bound
        return enumerated[:t] + "f" + enumerated[t + 1 :]
    return enumerated


class TestReportLayout:
    """The names, order and statuses of verify_all's checks are pinned on
    the honest reductions and on every mutation; only the derived
    triangle check may turn from pass to fail, and only where the
    structure it is derived from failed."""

    @pytest.mark.parametrize("name, with_oracle", sorted(ENUMERATED_REPORTS))
    def test_pinned(self, name, with_oracle):
        report = verify_all(*REPORT_INPUTS[name](), with_oracle=with_oracle)
        expected = derived_statuses(ENUMERATED_REPORTS[name, with_oracle])
        assert [c.name for c in report.checks] == list(REPORT_LAYOUT[: len(expected)])
        assert "".join(c.status[0] for c in report.checks) == expected

    def test_every_input_pinned(self):
        assert {name for name, _ in ENUMERATED_REPORTS} == set(REPORT_INPUTS)


# The inputs of REPORT_INPUTS that forge only the certificate: their G' is
# the honest reduction.  Two have no closed-form gadget size, so there is
# no model of G' to regenerate, and the parse path answers for them.
CERT_ONLY_INPUTS = (
    "offset-plus-one", "overlapping-ranges", "range-past-reduced-graph",
    "planar-range-past-reduced-graph", "dropped-gadget", "forged-gadget-alpha-general",
    "forged-gadget-alpha-planar", "mixed-deltas", "even-degree", "unknown-kind",
)
WITHOUT_MODEL = {"even-degree", "unknown-kind"}


def _padded():
    return (cycle_graph(4), *reduce_to_regular(cycle_graph(4), 5))


def _owner_swap(cert, gp):
    """The first gadget and the first gadget of another owner swap owners."""
    first = cert.gadgets[0]
    i = next(i for i, gi in enumerate(cert.gadgets) if gi.owner != first.owner)
    return replace_gadget(replace_gadget(cert, 0, owner=cert.gadgets[i].owner), i, owner=first.owner)


def _step_offset(cert, gp):
    """The first step's offset and the total offset, each one higher."""
    first = dataclasses.replace(cert.steps[0], alpha_offset=cert.steps[0].alpha_offset + 1)
    return dataclasses.replace(cert, steps=(first,) + cert.steps[1:], total_offset=cert.total_offset + 1)


# the three forgeries of the benchmark's verify runs, each on honest G'
BENCH_FORGERIES = {
    "owner-swap-general": lambda: _forged_cert(_general, _owner_swap),
    "owner-swap-padded": lambda: _forged_cert(_padded, _owner_swap),
    "owner-swap-planar": lambda: _forged_cert(_planar, _owner_swap),
    "step-offset-padded": lambda: _forged_cert(_padded, _step_offset),
    "per-gadget-alpha-padded": lambda: _forged_cert(_padded, _forged_alpha),
}


@pytest.mark.parametrize("fmt", ["dimacs-col", "edge-list"])
@pytest.mark.parametrize("name", CERT_ONLY_INPUTS + tuple(BENCH_FORGERIES))
def test_certificate_only_forgery_gets_the_parse_paths_report(name, fmt):
    """On canonical G' text the regeneration path answers whatever the
    certificate's gadget list says, with verify_all's report."""
    g, gp, cert = {**REPORT_INPUTS, **BENCH_FORGERIES}[name]()
    report = regenerated(g, gp, cert, fmt)
    if name in WITHOUT_MODEL:
        assert report is None
    else:
        assert report is not None and report == verify_all(g, gp, cert)
        assert report.overall == FAIL


def hang(g, kind, d, entries=None):
    """``g`` with a ``kind`` gadget block for degree ``d`` per (owner, index)
    of ``entries`` (by default each vertex's deficiency below ``d`` many),
    the blocks in that order from ``g.n`` and each hanging off its owner by
    its port, and the gadget list naming them so."""
    blueprint, layout = gadgets.build_gadget(kind, d)
    if entries is None:
        entries = [(v, j) for v in range(g.n) for j in range(1, d - g.degree(v) + 1)]
    size, edges, listed = blueprint.n, list(g.edges()), []
    for j, (owner, index) in enumerate(entries):
        off = g.n + j * size
        edges += [(off + u, off + v) for u, v in blueprint.edges()] + [(owner, off + layout.port)]
        listed.append(reduction.GadgetInstance(owner, index, kind, layout.delta, off, size))
    return Graph.from_edges(g.n + len(entries) * size, edges), tuple(listed)


def with_layout(g, d, entries):
    """``g`` with general gadget blocks for degree ``d`` as :func:`hang`
    places them, and regularize's certificate listing them so."""
    gp, listed = hang(g, GENERAL, d, entries)
    _, cert = regularize(g, d)
    return g, gp, rehash(dataclasses.replace(cert, gadgets=listed), g_prime=gp)


# P3 at degree 3: deficiencies 2, 1, 2
CANONICAL_LAYOUT = [(0, 1), (0, 2), (1, 1), (2, 1), (2, 2)]
GADGET_ORDERS = {
    "index-order": [(0, 2), (0, 1), (1, 1), (2, 1), (2, 2)],
    "owners-descending": [(2, 1), (2, 2), (1, 1), (0, 1), (0, 2)],
}


class TestCanonicalLayoutTradeOff:
    """The verifier accepts only the canonical gadget layout: a G' built with
    its gadget blocks in another order, and a certificate that lists that
    order, fail even where the alpha relation holds."""

    def test_canonical_layout_is_regularize_output(self):
        g = path_graph(3)
        assert with_layout(g, 3, CANONICAL_LAYOUT) == (g, *regularize(g, 3))

    @pytest.mark.parametrize("layout", sorted(GADGET_ORDERS))
    def test_correct_reduction_in_another_order_fails(self, layout):
        g, gp, cert = with_layout(path_graph(3), 3, GADGET_ORDERS[layout])
        assert mis_branch_bound(gp).alpha == mis_branch_bound(g).alpha + cert.total_offset
        _, _, canonical = with_layout(g, 3, CANONICAL_LAYOUT)
        failed = failed_checks(verify_all(g, gp, cert))
        assert failed.pop("gadget-counts") == first_difference(cert, canonical, 0)
        if layout == "index-order":  # the same G': blocks of one owner are alike
            assert failed == {}
        else:  # each block hangs off another owner than the model's
            assert set(failed) == {"port-attachment", "triangle-preservation"}
