import argparse
import bisect
import dataclasses
import io
import json
import os
import random
import re
import tracemalloc
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from regmis import cli, gadgets, graph, reduction, verify
from regmis import io as graph_io
from regmis.cli import main
from regmis.graph import Graph, GraphError, SortedEdges, complete_graph
from regmis.io import FORMATS, parse_graph, serialize_graph
from regmis.reduction import ReductionCertificate, reduce_to_regular, regularize, regularize_planar
from regmis.verify import verify_all

from conftest import TEXT_EDITS, cycle_graph, disjoint_union, edit_canonical, empty_graph, grid_with_diagonals, path_graph
from test_golden import CASES as GOLDEN_CASES, GRID_12, MAX_DEGREE_4, MEDIUM_MAX_DEGREE_4
from test_verify import ENUMERATED_REPORTS, GADGET_ORDERS, REPORT_INPUTS, hang, with_layout

K4_MINUS_EDGE = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


@pytest.fixture
def k4e_file(tmp_path):
    path = tmp_path / "k4e.col"
    path.write_text(serialize_graph(K4_MINUS_EDGE, "dimacs-col"))
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRegularize:
    def test_k4_minus_edge(self, tmp_path, k4e_file, capsys):
        out = tmp_path / "gp.col"
        cert = tmp_path / "cert.json"
        code, _, _ = run(
            capsys, "regularize", k4e_file, "--degree", "3",
            "--output", out, "--cert", cert,
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == "p edge 18 27"
        doc = json.loads(cert.read_text())
        assert doc["total_offset"] == 6
        assert doc["target_degree"] == 3

    def test_deterministic_output(self, tmp_path, k4e_file, capsys):
        outputs = []
        for i in range(2):
            out = tmp_path / f"gp{i}.col"
            cert = tmp_path / f"cert{i}.json"
            code, _, _ = run(
                capsys, "regularize", k4e_file, "--degree", "5",
                "--output", out, "--cert", cert,
            )
            assert code == 0
            outputs.append(out.read_bytes() + cert.read_bytes())
        assert outputs[0] == outputs[1]

    def test_even_degree_rejected(self, k4e_file, capsys, tmp_path):
        out = tmp_path / "x.col"
        code, _, err = run(
            capsys, "regularize", k4e_file, "--degree", "4",
            "--output", out, "--cert", tmp_path / "x.json",
        )
        assert code == 2
        assert not out.exists()

    def test_strict_mode_rejects_even_max_degree(self, tmp_path, capsys):
        c4 = tmp_path / "c4.col"
        c4.write_text("p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n")
        out = tmp_path / "x.col"
        code, _, _ = run(
            capsys, "regularize", c4, "--degree", "3", "--strict",
            "--output", out, "--cert", tmp_path / "x.json",
        )
        assert code == 1
        assert not out.exists()

    def test_degree_below_max_degree_rejected(self, tmp_path, capsys):
        k5 = tmp_path / "k5.col"
        k5.write_text(serialize_graph(complete_graph(5), "dimacs-col"))
        out = tmp_path / "x.col"
        code, _, err = run(
            capsys, "regularize", k5, "--degree", "3", "--output", out, "--cert", tmp_path / "x.json",
        )
        assert code == 1
        assert err == "error: maximum degree 4 exceeds target degree 3\n"
        assert not out.exists()

    def test_degree_or_planar_required(self, k4e_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run(
                capsys, "regularize", k4e_file,
                "--output", tmp_path / "x.col", "--cert", tmp_path / "x.json",
            )
        assert info.value.code == 2

    def test_empty_graph(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# n=0\n")
        code, _, _ = run(
            capsys, "regularize", empty, "--degree", "3",
            "--output", tmp_path / "o.col", "--cert", tmp_path / "c.json",
        )
        assert code == 0

    def test_single_vertex(self, tmp_path, capsys):
        one = tmp_path / "one.txt"
        one.write_text("# n=1\n")
        code, _, _ = run(
            capsys, "regularize", one, "--degree", "3",
            "--output", tmp_path / "o.col", "--cert", tmp_path / "c.json",
        )
        assert code == 0

    def test_planar_strict_is_input_error(self, tmp_path, capsys):
        c4 = tmp_path / "c4.col"
        c4.write_text("p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n")
        out = tmp_path / "x.col"
        code, _, err = run(
            capsys, "regularize", c4, "--planar", "--strict", "--output", out, "--cert", tmp_path / "x.json",
        )
        assert code == 2
        assert err.startswith("error: ") and "--strict" in err
        assert not out.exists()

    def test_planar(self, tmp_path, capsys):
        k4 = tmp_path / "k4.col"
        k4.write_text(serialize_graph(complete_graph(4), "dimacs-col"))
        out = tmp_path / "gp.col"
        cert = tmp_path / "cert.json"
        code, _, _ = run(
            capsys, "regularize", k4, "--planar", "--output", out, "--cert", cert,
        )
        assert code == 0
        assert json.loads(cert.read_text())["total_offset"] == 64


# the source and flags of each golden case as `regmis regularize` is given them;
# K4 minus an edge has odd maximum degree 3, so --degree 3 adds no padding
GOLDEN_SOURCES = {
    "k4e-regularize-3": (K4_MINUS_EDGE, ["--degree", "3"]),
    "c4-reduce-5": (cycle_graph(4), ["--degree", "5"]),
    "p3-reduce-5": (path_graph(3), ["--degree", "5"]),
    "empty-reduce-3": (empty_graph(0), ["--degree", "3"]),
    "max-degree-4-reduce-7": (MAX_DEGREE_4, ["--degree", "7"]),
    "k4-planar": (complete_graph(4), ["--planar"]),
    "medium-max-degree-4-reduce-5": (MEDIUM_MAX_DEGREE_4, ["--degree", "5"]),
    "grid-12-planar": (GRID_12, ["--planar"]),
    "k4-reduce-7": (complete_graph(4), ["--degree", "7"]),
    "empty-3-reduce-3": (empty_graph(3), ["--degree", "3"]),
}


def test_every_golden_case_has_a_cli_source():
    assert GOLDEN_SOURCES.keys() == GOLDEN_CASES.keys()


@pytest.mark.parametrize("output", ["file", "-", None])
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(GOLDEN_SOURCES))
def test_cli_bytes_equal_library_bytes(tmp_path, capsys, name, fmt, output):
    """The G' that `regmis regularize` streams, to a file or to stdout, is
    the library's G' serialized, and its certificate the library's."""
    source, flags = GOLDEN_SOURCES[name]
    gp, cert = GOLDEN_CASES[name][0]()
    src, out, cert_path = tmp_path / "g.col", tmp_path / "gp", tmp_path / "cert.json"
    src.write_text(serialize_graph(source, "dimacs-col"))
    target = {"file": ["--output", out], "-": ["--output", "-"], None: []}[output]
    code, stdout, err = run(capsys, "regularize", src, *flags, "--out-format", fmt, *target, "--cert", cert_path)
    assert (code, err) == (0, "")
    written = out.read_bytes() if output == "file" else stdout.encode()
    assert written == serialize_graph(gp, fmt).encode()
    assert stdout == ("" if output == "file" else written.decode())
    assert cert_path.read_bytes() == cert.to_json().encode()


def test_regularize_builds_no_reduced_graph(tmp_path, capsys, monkeypatch):
    """`regmis regularize` writes G' from the reduction plan: no graph with
    more vertices than the source is built and nothing is serialized; the
    output still verifies and recovers."""
    source = grid_with_diagonals(random.Random(5), 18, cap=4)  # the 324 vertices of TestSinglePassConstruction
    src = tmp_path / "g.col"
    src.write_text(serialize_graph(source, "dimacs-col"))
    real_init = Graph.__post_init__

    def no_larger_graph(self):
        assert self.n <= source.n, f"a graph of {self.n} vertices was built"
        real_init(self)

    def no_serialize(g, fmt):
        raise AssertionError("serialize_graph called")

    sol = tmp_path / "sol.txt"
    sol.write_text("0\n")
    for flags in (["--degree", "5"], ["--degree", "7"], ["--planar"]):
        red, cert = tmp_path / "gp.col", tmp_path / "cert.json"
        with monkeypatch.context() as patch:
            patch.setattr(Graph, "__post_init__", no_larger_graph)
            patch.setattr(cli, "serialize_graph", no_serialize)
            patch.setattr(graph_io, "serialize_graph", no_serialize)
            assert run(capsys, "regularize", src, *flags, "--output", red, "--cert", cert) == (0, "", "")
        code, out, _ = run(capsys, "verify", "--graph", src, "--reduced", red, "--cert", cert)
        assert (code, json.loads(out)["overall"]) == (0, "pass")
        code, out, _ = run(capsys, "recover", "--reduced", red, "--cert", cert, "--solution", sol)
        assert (code, json.loads(out)["recovered"]) == (0, [0])


def source_texts(g, fmt):
    """G in ``fmt`` written four ways: canonical text, with a comment line,
    with its edge lines reversed, and (when it has an edge) with its first
    edge line repeated at the end."""
    head, *edges = serialize_graph(g, fmt).splitlines(keepends=True)
    comment = "c a comment\n" if fmt == "dimacs-col" else "# a comment\n"
    texts = {
        "canonical": head + "".join(edges),
        "comment": head + comment + "".join(edges),
        "reversed": head + "".join(reversed(edges)),
    }
    if edges:
        texts["duplicate"] = head + "".join(edges) + edges[0]
    return texts


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(GOLDEN_SOURCES))
def test_every_reading_of_the_source_gives_the_same_outputs(tmp_path, capsys, name, fmt):
    """G is read as sorted edges when it is canonical text and parsed
    otherwise; either way regularize writes the same bytes, verify prints
    the same report and recover the same output, and a duplicate edge
    keeps its warning."""
    source, flags = GOLDEN_SOURCES[name]
    suffix = ".col" if fmt == "dimacs-col" else ".txt"
    sol = tmp_path / "sol.txt"
    sol.write_text("")
    outputs = {}
    for how, text in source_texts(source, fmt).items():
        src, red, cert = (tmp_path / f"{stem}-{how}{suffix}" for stem in ("g", "gp", "cert"))
        src.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            regularized = run(capsys, "regularize", src, *flags, "--out-format", fmt, "--output", red, "--cert", cert)
            verified = run(capsys, "verify", "--graph", src, "--reduced", red, "--cert", cert)
        recovered = run(capsys, "recover", "--reduced", red, "--cert", cert, "--solution", sol)
        duplicates = [str(w.message) for w in caught if "duplicate edge" in str(w.message)]
        assert len(duplicates) == (2 if how == "duplicate" else 0), duplicates
        assert (regularized[0], verified[0], recovered[0]) == (0, 0, 0)
        outputs[how] = (red.read_bytes(), cert.read_bytes(), verified[1], recovered[1])
    assert all(out == outputs["canonical"] for out in outputs.values())


def test_regularize_and_verify_read_the_source_as_edges(tmp_path, capsys, monkeypatch):
    """On canonical text, regularize and verify (without the oracle) never
    run the line parser on G and build no graph as large as G; G' is not
    built either."""
    source = grid_with_diagonals(random.Random(5), 18, cap=4)  # 324 vertices
    src = tmp_path / "g.col"
    src.write_text(serialize_graph(source, "dimacs-col"))
    real_init = Graph.__post_init__

    def smaller_than_the_source(self):
        assert self.n < source.n, f"a graph of {self.n} vertices was built"
        real_init(self)

    def no_parse(text, *fmt):
        raise AssertionError("a graph was parsed")

    for flags in (["--degree", "5"], ["--degree", "7"], ["--planar"]):
        red, cert = tmp_path / "gp.col", tmp_path / "cert.json"
        with monkeypatch.context() as patch:
            patch.setattr(Graph, "__post_init__", smaller_than_the_source)
            patch.setattr(cli, "parse_graph", no_parse)
            patch.setattr(graph_io, "parse_graph", no_parse)
            patch.setattr(graph_io, "_parse_dimacs", no_parse)
            assert run(capsys, "regularize", src, *flags, "--output", red, "--cert", cert) == (0, "", "")
            code, out, err = run(capsys, "verify", "--graph", src, "--reduced", red, "--cert", cert)
        assert (code, json.loads(out)["overall"], err) == (0, "pass", "")


def circulant(n, less=()):
    """The 5-regular circulant on ``n`` (even) vertices, each joined to the
    next two and the opposite one, less the edges ``less``."""
    edges = {tuple(sorted((u, (u + k) % n))) for u in range(n) for k in (1, 2, n // 2)}
    assert edges >= set(less)
    return Graph.from_edges(n, edges - set(less))


# sources for G''s text copied from G's: few ports (long runs of G's edges
# between them), dense ports, each padding step, isolated vertices, and
# ports after G's first and last vertex
COPY_SOURCES = {
    "few-ports": (circulant(1000, [(100, 101), (200, 700), (400, 402)]), 5),
    "dense-ports": (path_graph(40), 5),
    "parity-clique": (Graph.from_edges(60, [(u, (u + k) % 60) for u in range(60) for k in (1, 2)]), 5),
    "star-pad": (circulant(60, [(20, 21)]), 7),
    "isolated": (disjoint_union(circulant(60, [(5, 6)]), empty_graph(4)), 5),
    "first-and-last-deficient": (circulant(100, [(0, 1), (98, 99)]), 5),
    "empty": (empty_graph(0), 3),
}


def reading(g, how):
    """G's file name and text: canonical DIMACS or edge list, or with a
    comment line and its edge lines reversed, which is not canonical text."""
    fmt = "dimacs-col" if how.startswith("dimacs") else "edge-list"
    head, *edges = serialize_graph(g, fmt).splitlines(keepends=True)
    if how.endswith("edited"):
        edges = ["c a comment\n" if fmt == "dimacs-col" else "# a comment\n", *reversed(edges)]
    return ("g.col" if fmt == "dimacs-col" else "g.txt"), head + "".join(edges)


@pytest.mark.parametrize("copy", ["every-run", "no-run"])
@pytest.mark.parametrize("out_fmt", FORMATS)
@pytest.mark.parametrize("how", ["dimacs", "edge-list", "dimacs-edited", "edge-list-edited"])
@pytest.mark.parametrize("name", sorted(COPY_SOURCES))
def test_g_prime_copied_from_g_is_the_library_bytes(tmp_path, capsys, monkeypatch, name, how, out_fmt, copy):
    """However G is read and whichever runs of its edges are copied from
    its text, regularize writes the library's G' and certificate, which
    render every edge, and verify prints the library's report; with every
    run copied, G's text is sliced whenever G has an edge, and with none, never."""
    g, d = COPY_SOURCES[name]
    monkeypatch.setattr(graph, "_COPY", 1 if copy == "every-run" else g.m + 1)
    real_slicer, slicers = graph._slicer, []
    monkeypatch.setattr(graph, "_slicer", lambda *args: slicers.append(args[1]) or real_slicer(*args))
    gp, cert = reduce_to_regular(g, d)
    filename, text = reading(g, how)
    src, red, cert_path = tmp_path / filename, tmp_path / ("gp.col" if out_fmt == "dimacs-col" else "gp.txt"), tmp_path / "c.json"
    src.write_text(text)
    code = run(capsys, "regularize", src, "--degree", d, "--out-format", out_fmt, "--output", red, "--cert", cert_path)
    assert code == (0, "", "")
    assert red.read_bytes() == serialize_graph(gp, out_fmt).encode()
    assert cert_path.read_bytes() == cert.to_json().encode()
    code, out, err = run(capsys, "verify", "--graph", src, "--reduced", red, "--cert", cert_path)
    assert (code, out, err) == (0, verify_all(g, gp, cert).to_json(), "")
    assert bool(slicers) == (copy == "every-run" and g.m > 0)


def test_g_prime_renders_the_edges_of_g_once(tmp_path, capsys, monkeypatch):
    """regularize and verify on a few-port G in DIMACS render G's edges once,
    for its content hash: what else passes through ``render`` is G''s
    DIMACS and content texts of the edges outside the copied runs, the
    runs of fewer than ``_COPY`` of G's edges between two ports."""
    g = COPY_SOURCES["few-ports"][0]
    gp, cert = reduce_to_regular(g, 5)
    ends = graph.ends_of(g.adjacency)
    cuts = [bisect.bisect_right(ends[::2], v) for v in sorted({v for v in range(g.n) if g.degree(v) < 5})]
    runs = [b - a for a, b in zip([0, *cuts], [*cuts, g.m])]
    outside = gp.m - g.m + sum(k for k in runs if k < graph._COPY)
    src, red, cert_path = tmp_path / "g.col", tmp_path / "gp.col", tmp_path / "c.json"
    src.write_text(serialize_graph(g, "dimacs-col"))
    rendered = []
    monkeypatch.setattr(graph, "render", lambda ends, *line, real=graph.render: rendered.append(len(ends) // 2) or real(ends, *line))
    for argv in (["regularize", src, "--degree", 5, "--output", red, "--cert", cert_path],
                 ["verify", "--graph", src, "--reduced", red, "--cert", cert_path]):
        rendered.clear()
        assert run(capsys, *argv)[0] == 0
        assert g.m < sum(rendered) <= g.m + 2 * outside, argv[0]
    assert red.read_bytes() == serialize_graph(gp, "dimacs-col").encode()


@pytest.mark.parametrize("command", ["regularize --output", "regularize input", "verify --reduced"])
def test_os_error_is_an_input_error(tmp_path, k4e_file, capsys, command):
    """A path that cannot be opened as a file (here a directory) exits 2
    with an error line, not a traceback."""
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = {
        "regularize --output": ["regularize", k4e_file, "--degree", "5", "--output", folder],
        "regularize input": ["regularize", folder, "--degree", "5", "--output", tmp_path / "gp.col"],
        "verify --reduced": ["verify", "--graph", k4e_file, "--reduced", folder, "--cert", tmp_path / "cert.json"],
    }[command]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(folder) in err


class TestSolve:
    def test_icosa_gadget_brute(self, tmp_path, capsys):
        from regmis.gadgets import build_icosa_gadget

        path = tmp_path / "icosa.col"
        path.write_text(serialize_graph(build_icosa_gadget()[0], "dimacs-col"))
        code, out, _ = run(capsys, "solve", path, "--method", "brute")
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha"] == 4
        assert doc["method"] == "brute-force"
        assert doc["stats"] == {}

    def test_bb_prints_stats(self, tmp_path, capsys):
        from regmis.gadgets import build_general_gadget

        path = tmp_path / "gadget.col"
        path.write_text(serialize_graph(build_general_gadget(5)[0], "dimacs-col"))
        code, out, _ = run(capsys, "solve", path, "--method", "bb")
        assert code == 0
        doc = json.loads(out)
        assert (doc["alpha"], doc["nodes"], doc["method"]) == (10, 1, "branch-bound")
        assert doc["stats"]["root_kernel"] == 0 and doc["stats"]["fired"]["twin"] > 0

    def test_budget_exhaustion_exit_code(self, tmp_path, capsys):
        import random

        from conftest import random_graph

        g = random_graph(random.Random(1), 40, 0.2)
        path = tmp_path / "g.col"
        path.write_text(serialize_graph(g, "dimacs-col"))
        code, _, err = run(capsys, "solve", path, "--method", "bb", "--budget-nodes", "1")
        assert code == 3
        assert "lower bound" in err

    @pytest.mark.parametrize("budget", ["0", "-1", "nan"])
    def test_time_budget_that_is_not_positive_is_an_input_error(self, tmp_path, capsys, budget):
        """NaN compares false with everything, so it is refused as not positive, not run as no limit."""
        path = tmp_path / "g.col"
        path.write_text(serialize_graph(cycle_graph(5), "dimacs-col"))
        code, out, err = run(capsys, "solve", path, "--budget-secs", budget)
        assert (code, out) == (2, "")
        assert err.startswith("error: time_budget must be positive")

    def test_empty_graph(self, tmp_path, capsys):
        path = tmp_path / "e.txt"
        path.write_text("")
        code, out, _ = run(capsys, "solve", path)
        assert code == 0 and json.loads(out)["alpha"] == 0


# Malformed untrusted input, each a change to one file of the K4-e reduction.
# A certificate change applies to the parsed document; ``verify`` and
# ``recover`` both reject it.
MALFORMED = {
    "cert-gadget-without-port": ("cert", lambda doc: doc["gadgets"][0].pop("port")),
    "cert-owner-not-integer": ("cert", lambda doc: doc["gadgets"][0].update(owner="x")),
    "cert-id-offset-string": ("cert", lambda doc: doc["gadgets"][0].update(id_offset="7")),
    "cert-gadget-kind-list": ("cert", lambda doc: doc["gadgets"][0].update(kind=[])),
    "cert-step-kind-number": ("cert", lambda doc: doc["steps"].append(dict(kind=1, start=0, end=1, alpha_offset=1))),
    "cert-steps-object": ("cert", lambda doc: doc.update(steps={})),
    "cert-gadgets-object": ("cert", lambda doc: doc.update(gadgets={})),
    "cert-source-hash-list": ("cert", lambda doc: doc.update(source_hash=[])),
    "cert-result-hash-number": ("cert", lambda doc: doc.update(result_hash=0)),
    "solution-two-ids-on-a-line": ("solution", "0 1\n"),
    "solution-not-a-number": ("solution", "abc\n"),
    "edge-list-bad-vertex-count": ("graph", "# n=abc\n0 1\n"),
}


class TestVerifyAndRecover:
    @pytest.fixture
    def reduced(self, tmp_path, k4e_file, capsys):
        out = tmp_path / "gp.col"
        cert = tmp_path / "cert.json"
        code, _, _ = run(
            capsys, "regularize", k4e_file, "--degree", "3",
            "--output", out, "--cert", cert,
        )
        assert code == 0
        return out, cert

    def test_verify_honest_passes(self, k4e_file, reduced, capsys):
        out, cert = reduced
        code, stdout, _ = run(
            capsys, "verify", "--graph", k4e_file, "--reduced", out,
            "--cert", cert, "--with-oracle",
        )
        assert code == 0
        assert json.loads(stdout)["overall"] == "pass"

    def test_verify_tampered_fails(self, k4e_file, reduced, capsys):
        out, cert = reduced
        doc = json.loads(cert.read_text())
        doc["total_offset"] += 1
        cert.write_text(json.dumps(doc))
        code, stdout, _ = run(
            capsys, "verify", "--graph", k4e_file, "--reduced", out, "--cert", cert,
        )
        assert code == 1
        assert json.loads(stdout)["overall"] == "fail"

    def test_verify_wrong_graph_is_input_error(self, tmp_path, reduced, capsys):
        out, cert = reduced
        other = tmp_path / "other.col"
        other.write_text(serialize_graph(complete_graph(4), "dimacs-col"))
        code, _, _ = run(
            capsys, "verify", "--graph", other, "--reduced", out, "--cert", cert,
        )
        assert code == 2

    def test_verify_even_degree_certificate_fails(self, k4e_file, reduced, capsys):
        out, cert = reduced
        doc = json.loads(cert.read_text())
        doc["target_degree"] = 4
        cert.write_text(json.dumps(doc))
        code, stdout, err = run(
            capsys, "verify", "--graph", k4e_file, "--reduced", out, "--cert", cert,
        )
        assert code == 1 and "Traceback" not in err
        status = {c["name"]: c["status"] for c in json.loads(stdout)["checks"]}
        assert status["gadget-blueprints"] == status["size-bound"] == "fail"

    @pytest.mark.parametrize("source_n", [10**6, -1])
    def test_verify_forged_source_n_fails(self, k4e_file, reduced, capsys, source_n):
        out, cert = reduced
        doc = json.loads(cert.read_text())
        doc["source_n"] = source_n
        cert.write_text(json.dumps(doc))
        code, stdout, err = run(
            capsys, "verify", "--graph", k4e_file, "--reduced", out, "--cert", cert,
        )
        assert code == 1 and err == ""
        checks = {c["name"]: c for c in json.loads(stdout)["checks"]}
        assert checks["origin-induced"]["status"] == "fail"
        assert checks["padding-steps"]["status"] == "fail"
        assert checks["padding-steps"]["detail"] != "padding steps reconstruct"

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_input_is_input_error(self, tmp_path, k4e_file, reduced, capsys, case):
        out, cert = reduced
        what, change = MALFORMED[case]
        if what == "cert":
            doc = json.loads(cert.read_text())
            change(doc)
            cert.write_text(json.dumps(doc))
            sol = tmp_path / "sol.txt"
            sol.write_text("0\n")
            code, stdout, err = run(capsys, "recover", "--reduced", out, "--cert", cert, "--solution", sol)
            assert (code, stdout) == (2, "")
            assert err.startswith("error: malformed certificate") and "Traceback" not in err
            argv = ["verify", "--graph", k4e_file, "--reduced", out, "--cert", cert]
        elif what == "solution":
            sol = tmp_path / "sol.txt"
            sol.write_text(change)
            argv = ["recover", "--reduced", out, "--cert", cert, "--solution", sol]
        else:
            graph = tmp_path / "g.txt"
            graph.write_text(change)
            argv = ["regularize", graph, "--degree", "3", "--output", tmp_path / "o.col"]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: malformed certificate" if what == "cert" else "error: ") and "Traceback" not in err

    @pytest.mark.parametrize("bad", ["0 1", "abc", "1.0"])
    def test_a_bad_solution_line_is_named(self, tmp_path, reduced, capsys, bad):
        out, cert = reduced
        sol = tmp_path / "sol.txt"
        sol.write_text(f"0\n\n 2 \n{bad}\n3\n")
        code, stdout, err = run(capsys, "recover", "--reduced", out, "--cert", cert, "--solution", sol)
        assert (code, stdout, err) == (2, "", f"error: line 4: expected one vertex id, got {bad!r}\n")

    def test_a_deeply_nested_certificate_is_an_input_error(self, tmp_path, reduced, capsys):
        out, _ = reduced
        cert, sol = tmp_path / "deep.json", tmp_path / "sol.txt"
        cert.write_text("[" * 100_000 + "]" * 100_000)
        sol.write_text("0\n")
        code, stdout, err = run(capsys, "recover", "--reduced", out, "--cert", cert, "--solution", sol)
        assert (code, stdout) == (2, "")
        assert err.startswith("error: malformed certificate: ")

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 1 << 16])
    @pytest.mark.parametrize(
        "text",
        [
            "0\n\n 2 \n3\n",
            "0\r\n2\r\n\r\n3",
            "0\r2\x0c3\x1c\n+4\n 5\t\n",
            "0\n1\n2 3\n4\n",
            "0\n1\n2\nx\n",
            "0\n1\n2\x1f3\n",
            "0" + " " * 9 + "1\n",
            "0\n1_0\n2\n",
            "0\n٣\n",
        ],
    )
    def test_a_solution_is_read_as_its_lines_whatever_the_chunk(self, tmp_path, monkeypatch, chunk, text):
        """Chunks end at a newline, so the ids and the line of a fault are
        those of the whole text's lines; an id is ASCII decimal."""
        sol = tmp_path / "sol.txt"
        sol.write_bytes(text.encode())
        lines = [(i, line) for i, line in enumerate(text.splitlines(), 1) if line.strip()]
        digits = lambda line: line.strip().lstrip("+")  # noqa: E731
        bad = next(((i, line) for i, line in lines if not (digits(line).isascii() and digits(line).isdigit())), None)
        monkeypatch.setattr(graph_io, "_CHUNK", chunk)
        if bad is None:
            assert cli._read_solution(str(sol)) == [int(line) for _, line in lines]
        else:
            with pytest.raises(GraphError) as exc:
                cli._read_solution(str(sol))
            assert str(exc.value) == f"line {bad[0]}: expected one vertex id, got {bad[1]!r}"

    def test_recover(self, tmp_path, k4e_file, reduced, capsys):
        out, cert = reduced
        code, stdout, _ = run(capsys, "solve", out, "--method", "brute")
        witness = json.loads(stdout)["witness"]
        sol = tmp_path / "sol.txt"
        sol.write_text("\n".join(str(v) for v in witness) + "\n")
        code, stdout, _ = run(
            capsys, "recover", "--reduced", out, "--cert", cert, "--solution", sol,
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["recovered_size"] >= doc["input_size"] - doc["offset"]
        assert doc["recovered_size"] == 2  # alpha of K4 minus an edge

    def test_recover_with_another_reductions_certificate(self, tmp_path, reduced, capsys):
        out, _ = reduced
        other = tmp_path / "p3.col"
        other.write_text(serialize_graph(Graph.from_edges(3, [(0, 1), (1, 2)]), "dimacs-col"))
        other_cert = tmp_path / "p3.json"
        code, _, _ = run(
            capsys, "regularize", other, "--degree", "3",
            "--output", tmp_path / "p3_reduced.col", "--cert", other_cert,
        )
        assert code == 0
        sol = tmp_path / "sol.txt"
        sol.write_text("0\n")
        code, stdout, err = run(
            capsys, "recover", "--reduced", out, "--cert", other_cert, "--solution", sol,
        )
        assert code == 2 and stdout == ""
        assert err.startswith("error: ") and "result hash" in err and "Traceback" not in err


# file name, text, `regmis stats` output and warnings
STATS_CORPUS = {
    "dimacs": (
        "g.col", "c a comment\np edge 9 7\ne 1 2\ne 2 3\nc another\ne 3 1\ne 2 1\ne 5 6\ne 6 8\ne 8 5\n",
        {"n": 9, "m": 6, "max_degree": 2, "degree_histogram": {"0": 3, "2": 6}, "triangles": 2},
        ["line 7: duplicate edge (0, 1), ignoring"],
    ),
    "dimacs-isolated": (
        "g.col", "p edge 3 0\n", {"n": 3, "m": 0, "max_degree": 0, "degree_histogram": {"0": 3}, "triangles": 0}, [],
    ),
    "dimacs-empty": (
        "g.col", "p edge 0 0\n", {"n": 0, "m": 0, "max_degree": 0, "degree_histogram": {}, "triangles": 0}, [],
    ),
    "dimacs-k5": (
        "g.col", "p edge 6 10\n" + "".join(f"e {u} {v}\n" for u in range(2, 7) for v in range(u + 1, 7)),
        {"n": 6, "m": 10, "max_degree": 4, "degree_histogram": {"0": 1, "4": 5}, "triangles": 10}, [],
    ),
    "edge-list": (
        "g.txt", "# a comment\n0 1\n1 2\n\n2 0\n1 0\n4 5\n5 7\n7 4\n7 8\n# n=10\n",
        {"n": 10, "m": 7, "max_degree": 3, "degree_histogram": {"0": 3, "1": 1, "2": 5, "3": 1}, "triangles": 2},
        ["line 6: duplicate edge (0, 1), ignoring"],
    ),
    "edge-list-no-header": (
        "g.txt", "3 1\n1 2\n", {"n": 4, "m": 2, "max_degree": 2, "degree_histogram": {"0": 1, "1": 2, "2": 1}, "triangles": 0},
        [],
    ),
    "edge-list-isolated": (
        "g.txt", "# n=4\n", {"n": 4, "m": 0, "max_degree": 0, "degree_histogram": {"0": 4}, "triangles": 0}, [],
    ),
}


class TestGadgetAndStats:
    def test_gadget_dump(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        roles = tmp_path / "roles.json"
        code, _, _ = run(
            capsys, "gadget", "--kind", "general-odd", "--delta", "3",
            "--output", out, "--roles", roles,
        )
        assert code == 0
        doc = json.loads(roles.read_text())
        assert doc["internal_alpha"] == 3
        assert doc["roles"]["6"] == "port"
        assert doc["alpha_report"]["claim_matches_exact"] is False

    def test_gadget_needs_delta(self, capsys):
        code, _, _ = run(capsys, "gadget", "--kind", "general-odd")
        assert code == 2

    @pytest.mark.parametrize("kind", [gadgets.PLANAR5, gadgets.ICOSA])
    def test_a_gadget_without_a_degree_reports_none_for_delta(self, tmp_path, capsys, kind):
        """--delta is ignored by these kinds, so neither place echoes it."""
        roles = tmp_path / "roles.json"
        code, _, _ = run(capsys, "gadget", "--kind", kind, "--delta", "7", "--output", tmp_path / "g.txt", "--roles", roles)
        doc = json.loads(roles.read_text())
        assert (code, doc["delta"], doc["alpha_report"]["delta"]) == (0, None, None)

    def test_stats(self, k4e_file, capsys):
        code, out, _ = run(capsys, "stats", k4e_file)
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "n": 4,
            "m": 5,
            "max_degree": 3,
            "degree_histogram": {"2": 2, "3": 2},
            "triangles": 2,
        }

    @pytest.mark.parametrize("name", sorted(STATS_CORPUS))
    def test_stats_output_is_pinned(self, tmp_path, capsys, name):
        """Comment lines, isolated vertices (between and after the others),
        triangles and a duplicate edge, in both formats."""
        filename, text, doc, warned = STATS_CORPUS[name]
        path = tmp_path / filename
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(capsys, "stats", path) == (0, json.dumps(doc, indent=2) + "\n", "")
        assert [str(w.message) for w in caught] == warned

    @pytest.mark.parametrize("name", sorted(STATS_CORPUS))
    def test_stats_hashes_nothing(self, tmp_path, capsys, monkeypatch, name):
        """stats never reads G's content hash, so it computes none, on
        canonical text and through the line parser alike."""
        filename, text, doc, _ = STATS_CORPUS[name]
        path = tmp_path / filename
        path.write_text(text)
        monkeypatch.setattr(graph, "content_digest", lambda *args: pytest.fail("content_digest called"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # duplicate edges warn
            assert run(capsys, "stats", path) == (0, json.dumps(doc, indent=2) + "\n", "")



# ---------------------------------------------------------------------------
# verify by regeneration: the canonical fast path against the parse path


def reversed_dimacs(gp):
    """G' in DIMACS with its edge lines in reverse order: the same graph in
    a file that is not the canonical text."""
    header, *edges = serialize_graph(gp, "dimacs-col").splitlines(keepends=True)
    return header + "".join(reversed(edges))


LAYOUTS = {
    "canonical": ("gp.col", lambda gp: serialize_graph(gp, "dimacs-col")),
    "reversed": ("gp.col", reversed_dimacs),
    "edge-list": ("gp.txt", lambda gp: serialize_graph(gp, "edge-list")),
}


def write_inputs(tmp_path, g, reduced_text, cert_text, reduced_name="gp.col"):
    paths = tmp_path / "g.col", tmp_path / reduced_name, tmp_path / "cert.json"
    for path, text in zip(paths, (serialize_graph(g, "dimacs-col"), reduced_text, cert_text)):
        path.write_text(text)
    return paths


def verify_files(capsys, paths, *flags):
    src, red, cert = paths
    return run(capsys, "verify", "--graph", src, "--reduced", red, "--cert", cert, *flags)


def parse_path(g, reduced_text, fmt, cert_text):
    """Exit code and stdout of verify when G' is parsed: verify_all on the
    parsed file, or exit 2 with no output when an input is malformed."""
    try:
        g_prime = parse_graph(reduced_text, fmt)
        report = verify_all(g, g_prime, ReductionCertificate.from_json(cert_text))
    except GraphError:
        return 2, ""
    return (0 if report.overall == "pass" else 1), report.to_json()


class TestVerifyByRegeneration:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("name, with_oracle", sorted(ENUMERATED_REPORTS))
    def test_report_layout_inputs_agree_in_every_layout(self, tmp_path, capsys, name, with_oracle, layout):
        g, gp, cert = REPORT_INPUTS[name]()
        reduced_name, text = LAYOUTS[layout]
        paths = write_inputs(tmp_path, g, text(gp), cert.to_json(), reduced_name)
        code, out, err = verify_files(capsys, paths, *(["--with-oracle"] if with_oracle else []))
        report = verify_all(g, gp, cert, with_oracle=with_oracle)
        assert (code, out, err) == (0 if report.overall == "pass" else 1, report.to_json(), "")

    @pytest.mark.parametrize("fmt, reduced_name", [("dimacs-col", "gp.col"), ("edge-list", "gp.txt")])
    @pytest.mark.parametrize(
        "g, reduce",
        [
            (K4_MINUS_EDGE, lambda g: regularize(g, 3)),
            (cycle_graph(4), lambda g: reduce_to_regular(g, 5)),
            (complete_graph(4), regularize_planar),
        ],
        ids=["general", "padded", "planar"],
    )
    def test_honest_canonical_input_parses_only_the_source(
        self, tmp_path, capsys, monkeypatch, g, reduce, fmt, reduced_name
    ):
        gp, cert = reduce(g)
        paths = write_inputs(tmp_path, g, serialize_graph(gp, fmt), cert.to_json(), reduced_name)
        parsed, built = [], []
        real_read, real_init = graph_io._read, Graph.__post_init__
        monkeypatch.setattr(graph_io, "_read", lambda text, f: parsed.append(text) or real_read(text, f))
        monkeypatch.setattr(Graph, "__post_init__", lambda self: built.append(self.n) or real_init(self))
        code, out, _ = verify_files(capsys, paths)
        assert code == 0 and json.loads(out)["overall"] == "pass"
        assert parsed == [serialize_graph(g, "dimacs-col")]  # G is read as its sorted edges, G' is regenerated
        assert gp.n not in built

    @pytest.mark.parametrize("k, cause", [(100, "edges"), (2000, "past |V'|")])
    def test_oversized_step_builds_no_rows(self, tmp_path, capsys, monkeypatch, k, cause):
        g = cycle_graph(4)
        gp, cert = reduce_to_regular(g, 5)  # parity K4, then a 6-vertex star
        parity = dataclasses.replace(cert.steps[0], end=cert.steps[0].start + k)
        forged = dataclasses.replace(cert, steps=(parity,) + cert.steps[1:])
        paths = write_inputs(tmp_path, g, serialize_graph(gp, "dimacs-col"), forged.to_json())
        real, built = verify._step_rows, []

        def bounded_first(kind, start, size):
            assert size < k, f"rows of a {size}-vertex {kind} built before its bounds"
            built.append(size)
            return real(kind, start, size)

        monkeypatch.setattr(verify, "_step_rows", bounded_first)
        code, out, err = verify_files(capsys, paths)
        assert (code, err) == (1, "")
        padding = {c["name"]: c for c in json.loads(out)["checks"]}["padding-steps"]
        assert padding["status"] == "fail" and cause in padding["detail"]
        assert built == []

    @pytest.mark.parametrize("fmt, head", [("dimacs-col", "p edge 1000000000 1000000000\n"), ("edge-list", "# n=1000000000\n")])
    def test_forged_header_and_step_build_no_rows(self, monkeypatch, fmt, head):
        g = cycle_graph(4)
        gp, cert = reduce_to_regular(g, 5)
        huge = 10**6
        star = dataclasses.replace(cert.steps[1], end=cert.steps[1].start + huge)
        forged = dataclasses.replace(cert, steps=(cert.steps[0], star))
        text = head + serialize_graph(gp, fmt).split("\n", 1)[1]
        real, built = verify._step_rows, []
        monkeypatch.setattr(verify, "_step_rows", lambda *a: built.append(a[2]) or real(*a))
        assert verify.verify_canonical(SortedEdges.of(g), io.BytesIO(text.encode()), fmt, forged) is None
        assert max(built, default=0) < 100

    def test_huge_degree_layout_builds_no_gadget(self, tmp_path, capsys, monkeypatch):
        from test_verify import refuse_degree, with_degree

        g, gp, cert = REPORT_INPUTS["honest-general"]()
        forged = with_degree(cert, 10001)
        paths = write_inputs(tmp_path, g, serialize_graph(gp, "dimacs-col"), forged.to_json())
        for name in ("build_gadget", "_exact_alpha"):
            monkeypatch.setattr(gadgets, name, refuse_degree(getattr(gadgets, name), 10001))
        code, out, err = verify_files(capsys, paths)
        assert (code, err) == (1, "")
        assert {c["name"]: c["status"] for c in json.loads(out)["checks"]}["gadget-blueprints"] == "fail"

    @pytest.mark.parametrize("order", sorted(GADGET_ORDERS))
    def test_gadget_blocks_in_another_order_fail_gadget_counts(self, tmp_path, capsys, order):
        g, gp, cert = with_layout(path_graph(3), 3, GADGET_ORDERS[order])
        paths = write_inputs(tmp_path, g, serialize_graph(gp, "dimacs-col"), cert.to_json())
        code, out, err = verify_files(capsys, paths)
        assert (code, out, err) == (1, verify_all(g, gp, cert).to_json(), "")
        failed = {c["name"] for c in json.loads(out)["checks"] if c["status"] == "fail"}
        expected = {"gadget-counts"} | (set() if order == "index-order" else {"port-attachment", "triangle-preservation"})
        assert failed == expected

    @pytest.mark.parametrize(
        "reduced_text, cert_text, flags, expected",
        [
            ("p edge 2 1\ne 1 1\n", "{", [], "line 2: self-loop"),
            ("p edge 2 1\ne 1 1\n", None, ["--budget-secs", "-1"], "line 2: self-loop"),
            (None, "{", [], "malformed certificate"),
            (None, "[" * 100_000 + "]" * 100_000, [], "malformed certificate"),
            (None, None, ["--budget-nodes", "0"], "node_budget must be positive"),
            (None, None, ["--with-oracle", "--budget-secs", "nan"], "time_budget must be positive"),
        ],
        ids=["graph-then-cert", "graph-then-budget", "cert", "deeply-nested-cert", "budget", "nan-budget"],
    )
    def test_input_faults_keep_their_order(self, tmp_path, capsys, reduced_text, cert_text, flags, expected):
        g, gp, cert = REPORT_INPUTS["honest-general"]()
        paths = write_inputs(
            tmp_path,
            g,
            serialize_graph(gp, "dimacs-col") if reduced_text is None else reduced_text,
            cert.to_json() if cert_text is None else cert_text,
        )
        code, out, err = verify_files(capsys, paths, *flags)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and expected in err


def mutate_line(text, rng_index, edit):
    """``text`` with one line edited: the header's vertex count or an edge
    line's second endpoint raised by one, an edge line dropped, or a
    self-loop inserted.  Each changes the parsed graph (a repeated line
    would not: the parser drops duplicate edges)."""
    lines = text.splitlines(keepends=True)
    i = 1 + rng_index % (len(lines) - 1)
    if edit == "header-n":
        head = lines[0].split(" ")
        if head[0] == "p":
            head[2] = str(int(head[2]) + 1)
        else:  # "# n=<n>"
            head = [f"# n={int(head[1][2:]) + 1}\n"]
        lines[0] = " ".join(head)
    elif edit == "endpoint":
        *rest, last = lines[i].split(" ")
        lines[i] = " ".join(rest + [f"{int(last) + 1}\n"])
    elif edit == "drop":
        del lines[i]
    else:  # "self-loop"
        *rest, _ = lines[i].split(" ")
        lines.insert(i, " ".join(rest + [rest[-1] + "\n"]))
    return "".join(lines)


# certificate fields whose change the verifier must see
CERT_FIELDS = (
    "target_degree", "source_n", "per_gadget_alpha", "total_offset", "source_hash", "result_hash",
    "steps.start", "steps.end", "steps.alpha_offset",
    "gadgets.owner", "gadgets.index", "gadgets.kind", "gadgets.delta", "gadgets.id_offset", "gadgets.size",
    "gadgets.port",
)

DIFFERENTIAL_CASES = {
    "general": lambda: (K4_MINUS_EDGE, *regularize(K4_MINUS_EDGE, 3)),
    "padded": lambda: (cycle_graph(4), *reduce_to_regular(cycle_graph(4), 5)),
    "planar": lambda: (complete_graph(4), *regularize_planar(complete_graph(4))),
}


def mutate_cert(doc, field, index, delta):
    if "." in field:
        group, key = field.split(".")
        if not doc[group]:
            return False
        target = doc[group][index % len(doc[group])]
    else:
        target, key = doc, field
    value = target[key]
    if isinstance(value, bool) or value is None:
        target[key] = delta
    elif isinstance(value, int):
        target[key] = value + delta
    else:
        target[key] = value[:-1] + ("0" if value[-1] != "0" else "1")
    return True


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    case=st.sampled_from(sorted(DIFFERENTIAL_CASES)),
    fmt=st.sampled_from(["dimacs-col", "edge-list"]),
    what=st.sampled_from(["graph", "cert"]),
    edit=st.sampled_from(["header-n", "endpoint", "drop", "self-loop"]),
    field=st.sampled_from(CERT_FIELDS),
    index=st.integers(0, 10**6),
    delta=st.sampled_from([-2, -1, 1, 2, 7]),
)
def test_mutated_canonical_input_fails_as_on_the_parse_path(
    tmp_path, capsys, case, fmt, what, edit, field, index, delta
):
    g, gp, cert = DIFFERENTIAL_CASES[case]()
    reduced_text, doc = serialize_graph(gp, fmt), json.loads(cert.to_json())
    if what == "graph":
        reduced_text = mutate_line(reduced_text, index, edit)
    elif not mutate_cert(doc, field, index, delta):
        return
    cert_text = json.dumps(doc)
    paths = write_inputs(tmp_path, g, reduced_text, cert_text, "gp.col" if fmt == "dimacs-col" else "gp.txt")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # duplicate edges warn on both paths
        code, out, err = verify_files(capsys, paths)
        expected = parse_path(g, reduced_text, fmt, cert_text)
    assert code in (1, 2) and "Traceback" not in err
    assert (code, out) == expected


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
@pytest.mark.parametrize("field", ["source_n", "target_degree"])
@pytest.mark.parametrize("delta", [-4, -2, -1, 1, 2, 4, 7])
def test_edited_source_n_or_target_degree_fails_as_on_the_parse_path(tmp_path, capsys, fmt, case, field, delta):
    """Every such edit fails with the parse path's report; the regeneration
    path itself answers each edit of ``source_n``, which only the
    origin-induced check reads."""
    g, gp, cert = DIFFERENTIAL_CASES[case]()
    doc = json.loads(cert.to_json())
    doc[field] += delta
    reduced_text, cert_text = serialize_graph(gp, fmt), json.dumps(doc)
    paths = write_inputs(tmp_path, g, reduced_text, cert_text, "gp.col" if fmt == "dimacs-col" else "gp.txt")
    code, out, err = verify_files(capsys, paths)
    assert code == 1 and (code, out) == parse_path(g, reduced_text, fmt, cert_text)
    if field == "source_n":
        with open(paths[1], "rb") as reduced:
            report = verify.verify_canonical(SortedEdges.of(g), reduced, fmt, ReductionCertificate.from_json(cert_text))
        assert report is not None and report.to_json() == out


def planar5_blocks_at_degree_3():
    """P3, a G' of planar5 blocks laid out as a degree-3 model would be (two
    on each end of the path, one in the middle, each hanging off its owner
    by its port) and regularize_planar's certificate forged to match it:
    target degree 3, those blocks, their offset and G''s hash.  Only the
    degrees give it away: the blocks' vertices have degree 5."""
    g = path_graph(3)
    _, cert = regularize_planar(g)
    gp, listed = hang(g, gadgets.PLANAR5, 3)
    offset = len(listed) * cert.per_gadget_alpha
    forged = dataclasses.replace(cert, target_degree=3, gadgets=listed, total_offset=offset)
    return g, gp, dataclasses.replace(forged, result_hash=gp.content_hash())


def test_planar5_blocks_at_degree_3_fail_in_every_layout(tmp_path, capsys):
    """planar5 gadgets attach at degree 5 only, so the forgery has no model:
    verify fails it on its canonical text, with the header ``p edge 128
    192`` of a 3-regular G', in either format and with its lines reversed,
    with one report, whose blueprint and size checks name the rule."""
    g, gp, cert = planar5_blocks_at_degree_3()
    assert (gp.n, gp.m) == (128, 317)
    reports = set()
    for name, text in LAYOUTS.values():
        paths = write_inputs(tmp_path, g, text(gp).replace("p edge 128 317\n", "p edge 128 192\n"), cert.to_json(), name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the parser warns of the header's edge count
            code, out, err = verify_files(capsys, paths)
        assert (code, err) == (1, "")
        reports.add(out)
    (report,) = reports
    failed = {c["name"]: c["detail"] for c in json.loads(report)["checks"] if c["status"] == "fail"}
    rule = "no closed-form gadget size for a 'planar5' gadget at degree 3"
    assert failed.pop("regular") == "vertices [3, 4, 5, 6, 7] deviate from degree 3"
    assert failed == {
        "gadget-blueprints": rule,
        "size-bound": rule,
        "planarity-necessary": "gadgets are not blueprint blocks on single cut edges",
    }


# ---------------------------------------------------------------------------
# recover reads a canonical G' once and never builds it


def greedy_independent(gp):
    chosen = set()
    for v in range(gp.n):
        if chosen.isdisjoint(gp.neighbors(v)):
            chosen.add(v)
    return sorted(chosen)


def recover_files(capsys, red, cert, sol):
    """Exit code, stdout, stderr and warnings of ``regmis recover``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "recover", "--reduced", red, "--cert", cert, "--solution", sol)
    return code, out, err, [str(w.message) for w in caught]


@pytest.mark.parametrize("fmt, reduced_name", [("dimacs-col", "gp.col"), ("edge-list", "gp.txt")])
@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CASES))
def test_recover_on_canonical_input_builds_no_reduced_graph(tmp_path, capsys, monkeypatch, name, fmt, reduced_name):
    g, gp, cert = DIFFERENTIAL_CASES[name]()
    _, red, cert_path = write_inputs(tmp_path, g, serialize_graph(gp, fmt), cert.to_json(), reduced_name)
    solution = greedy_independent(gp)
    sol = tmp_path / "sol.txt"
    sol.write_text("".join(f"{v}\n" for v in solution))
    parsed, built = [], []
    real_read, real_init = graph_io._read, Graph.__post_init__
    monkeypatch.setattr(graph_io, "_read", lambda text, f: parsed.append(f) or real_read(text, f))
    monkeypatch.setattr(Graph, "__post_init__", lambda self: built.append(self.n) or real_init(self))
    code, out, err, caught = recover_files(capsys, red, cert_path, sol)
    assert (code, err, caught) == (0, "", [])
    assert json.loads(out)["recovered"] == [v for v in solution if v < g.n]
    assert parsed == [] and gp.n not in built


@pytest.mark.parametrize("fmt, reduced_name", [("dimacs-col", "gp.col"), ("edge-list", "gp.txt")])
@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CASES))
def test_a_g_prime_in_another_order_is_read_as_edges_and_never_built(
    tmp_path, capsys, monkeypatch, name, fmt, reduced_name
):
    """A G' that is not canonical text goes through the line parser, once
    for verify and once for recover, and neither builds a graph of it."""
    g, gp, cert = DIFFERENTIAL_CASES[name]()
    head, *edges = serialize_graph(gp, fmt).splitlines(keepends=True)
    paths = write_inputs(tmp_path, g, head + "".join(reversed(edges)), cert.to_json(), reduced_name)
    sol = tmp_path / "sol.txt"
    sol.write_text("".join(f"{v}\n" for v in greedy_independent(gp)))
    parsed, built = [], []
    for name in ("_parse_dimacs", "_parse_edge_list"):
        real = getattr(graph_io, name)
        monkeypatch.setattr(graph_io, name, lambda text, real=real, name=name: parsed.append(name) or real(text))
    real_init = Graph.__post_init__
    monkeypatch.setattr(Graph, "__post_init__", lambda self: built.append(self.n) or real_init(self))
    code, out, err = verify_files(capsys, paths)
    assert (code, json.loads(out)["overall"], err) == (0, "pass", "")
    code, out, err, caught = recover_files(capsys, paths[1], paths[2], sol)
    assert (code, err, caught) == (0, "", [])
    line_parser = "_parse_dimacs" if fmt == "dimacs-col" else "_parse_edge_list"
    assert parsed == [line_parser, line_parser] and gp.n not in built


def refuse_per_vertex(monkeypatch):
    """Fail any graph or rows of 1000 or more vertices."""
    real_init, real_rows = Graph.__post_init__, Graph.from_sorted

    def small(n):
        assert n < 1000, f"a graph or rows of {n} vertices were built"

    monkeypatch.setattr(Graph, "__post_init__", lambda self: small(self.n) or real_init(self))
    monkeypatch.setattr(Graph, "from_sorted", staticmethod(lambda n, ends: small(n) or real_rows(n, ends)))


def traced_peak(call):
    """What ``call()`` returns, and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt, text", [("dimacs-col", "p edge 10000000 0\n"), ("edge-list", "# n=10000000\n")])
def test_a_declared_vertex_count_costs_nothing(tmp_path, capsys, monkeypatch, fmt, text):
    """A G' of 10^7 vertices and no edges, with a certificate whose hash
    binds it: verify fails and names the first vertices off the degree,
    recover answers as usual, and neither builds rows or a graph of G', or
    anything else with an entry per vertex."""
    g, _, cert = DIFFERENTIAL_CASES["general"]()
    forged = dataclasses.replace(cert, result_hash=graph.content_digest(10**7, []))
    paths = write_inputs(tmp_path, g, text, forged.to_json(), "gp.col" if fmt == "dimacs-col" else "gp.txt")
    sol = tmp_path / "sol.txt"
    sol.write_text("0\n")
    refuse_per_vertex(monkeypatch)
    (verified, recovered), peak = traced_peak(
        lambda: (verify_files(capsys, paths), recover_files(capsys, paths[1], paths[2], sol))
    )
    code, out, err = verified
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert (code, err, checks["size-bound"]["status"]) == (1, "", "fail")
    assert checks["regular"]["detail"] == "vertices [0, 1, 2, 3, 4] deviate from degree 3"
    code, out, err, caught = recovered
    assert (code, json.loads(out)["recovered"], err, caught) == (0, [0], "", [])
    assert peak < 16 * 2**20  # an entry per vertex would take 80 MB


@pytest.mark.parametrize(
    "name, text",
    [("g.col", "p edge 10000000 1\ne 9999999 10000000\n"), ("g.txt", "# n=10000000\n9999998 9999999\n")],
    ids=FORMATS,
)
def test_stats_costs_nothing_per_declared_vertex(tmp_path, capsys, monkeypatch, name, text):
    """stats on 10^7 declared vertices, two of them joined, builds no rows
    or graph of them, nor anything else with an entry per vertex."""
    path = tmp_path / name
    path.write_text(text)
    refuse_per_vertex(monkeypatch)
    (code, out, err), peak = traced_peak(lambda: run(capsys, "stats", path))
    assert (code, err) == (0, "")
    histogram = {"0": 10**7 - 2, "1": 2}
    assert json.loads(out) == {"n": 10**7, "m": 1, "max_degree": 1, "degree_histogram": histogram, "triangles": 0}
    assert peak < 16 * 2**20


SOLUTIONS = {
    "independent": lambda gp: greedy_independent(gp),
    "dependent": lambda gp: greedy_independent(gp) + [gp.neighbors(0)[0]],
    "dependent-in-a-block": lambda gp: greedy_independent(gp) + list(gp.neighbors(gp.n - 1)[-1:]) + [gp.n - 1],
    "out-of-range": lambda gp: [0, gp.n, -1],
    "empty": lambda gp: [],
}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    case=st.sampled_from(sorted(DIFFERENTIAL_CASES)),
    fmt=st.sampled_from(["dimacs-col", "edge-list"]),
    edit=st.sampled_from(TEXT_EDITS),
    index=st.integers(0, 10**6),
    solution=st.sampled_from(sorted(SOLUTIONS)),
    cert_kind=st.sampled_from(["honest", "foreign", "malformed"]),
    chunk=st.sampled_from([24, 1 << 16]),
)
def test_recover_on_edited_canonical_input_matches_the_parse_path(
    tmp_path, capsys, monkeypatch, case, fmt, edit, index, solution, cert_kind, chunk
):
    """Every edit of a canonical G' gives the output, exit code and
    warnings that parsing G' and recovering on the built graph give."""
    g, gp, cert = DIFFERENTIAL_CASES[case]()
    cert_text = {
        "honest": cert.to_json(),
        "foreign": regularize(cycle_graph(4), 3)[1].to_json(),
        "malformed": "{",
    }[cert_kind]
    reduced_text = edit_canonical(serialize_graph(gp, fmt), fmt, edit, index)
    _, red, cert_path = write_inputs(tmp_path, g, reduced_text, cert_text, "gp.col" if fmt == "dimacs-col" else "gp.txt")
    sol = tmp_path / "sol.txt"
    sol.write_text("".join(f"{v}\n" for v in SOLUTIONS[solution](gp)))
    with monkeypatch.context() as patch:
        patch.setattr(graph_io, "_CHUNK", chunk)
        got = recover_files(capsys, red, cert_path, sol)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "recover_canonical", lambda *args: None)
        expected = recover_files(capsys, red, cert_path, sol)
    assert got == expected
    assert "Traceback" not in got[2]


def prefix_edges(gp, cert):
    """The number of G''s edges below its first gadget block."""
    return sum(1 for u, _ in gp.edges() if u < cert.padded_n)


@pytest.mark.parametrize("fmt, reduced_name", [("dimacs-col", "gp.col"), ("edge-list", "gp.txt")])
@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CASES))
@pytest.mark.parametrize("solution", ["independent", "dependent-in-a-block"])
def test_recover_on_canonical_input_parses_only_the_edges_below_the_blocks(
    tmp_path, capsys, monkeypatch, name, fmt, reduced_name, solution
):
    """The gadget blocks are compared with their regeneration, not parsed,
    and a member pair inside a block is still found."""
    g, gp, cert = DIFFERENTIAL_CASES[name]()
    _, red, cert_path = write_inputs(tmp_path, g, serialize_graph(gp, fmt), cert.to_json(), reduced_name)
    sol = tmp_path / "sol.txt"
    sol.write_text("".join(f"{v}\n" for v in SOLUTIONS[solution](gp)))
    parsed, real = [], graph_io._canonical_runs

    def runs(*args):
        for lines in real(*args):
            parsed.append(len(lines) // 2)
            yield lines

    monkeypatch.setattr(graph_io, "_canonical_runs", runs)
    monkeypatch.setattr(graph_io, "_CHUNK", 24)
    code, _, err, _ = recover_files(capsys, red, cert_path, sol)
    assert sum(parsed) == prefix_edges(gp, cert) < gp.m
    if solution == "independent":
        assert (code, err) == (0, "")
    else:
        assert (code, err) == (2, "error: input set is not independent in the reduced graph\n")


def edit_at_the_boundary(text, gp, cert, edit):
    """Canonical G' text with its lines edited where its first gadget block starts."""
    lines = text.splitlines(keepends=True)
    k = 1 + prefix_edges(gp, cert)  # the index of the first line of the blocks
    if edit == "swap-across":
        lines[k - 1], lines[k] = lines[k], lines[k - 1]
    elif edit == "drop-last-below":
        del lines[k - 1]
    elif edit == "drop-first-block-line":
        del lines[k]
    elif edit == "block-line-for-last-below":  # sorted on either side, not across
        lines[k - 1] = lines[k]
    elif edit == "drop-last-line":
        del lines[-1]
    elif edit == "append-a-line":
        lines.append(lines[-1])
    return "".join(lines)


def move_padded_n(doc, by):
    doc["steps"][-1]["end"] += by


def empty_gadget_list(doc):
    doc["gadgets"] = []


@pytest.mark.parametrize("chunk", [24, 1 << 16])
@pytest.mark.parametrize("fmt", ["dimacs-col", "edge-list"])
@pytest.mark.parametrize("solution", ["independent", "dependent-in-a-block"])
@pytest.mark.parametrize(
    "case, edit, cert_edit",
    [
        *(
            (case, edit, None)
            for case in sorted(DIFFERENTIAL_CASES)
            for edit in (
                "swap-across", "drop-last-below", "drop-first-block-line", "block-line-for-last-below",
                "drop-last-line", "append-a-line",
            )
        ),
        ("padded", None, lambda doc: move_padded_n(doc, 1)),
        ("padded", None, lambda doc: move_padded_n(doc, -1)),
        ("planar", None, empty_gadget_list),
    ],
)
def test_recover_falls_back_as_the_parse_path_when_g_prime_leaves_the_plan(
    tmp_path, capsys, monkeypatch, case, edit, cert_edit, solution, fmt, chunk
):
    """A G' or a certificate that does not split as the certificate plans
    gives the output, exit code and warnings of the parse path."""
    g, gp, cert = DIFFERENTIAL_CASES[case]()
    doc = json.loads(cert.to_json())
    if cert_edit is not None:
        cert_edit(doc)
    reduced_text = serialize_graph(gp, fmt)
    if edit is not None:
        reduced_text = edit_at_the_boundary(reduced_text, gp, cert, edit)
    _, red, cert_path = write_inputs(
        tmp_path, g, reduced_text, json.dumps(doc), "gp.col" if fmt == "dimacs-col" else "gp.txt"
    )
    sol = tmp_path / "sol.txt"
    sol.write_text("".join(f"{v}\n" for v in SOLUTIONS[solution](gp)))
    with monkeypatch.context() as patch:
        patch.setattr(graph_io, "_CHUNK", chunk)
        got = recover_files(capsys, red, cert_path, sol)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "recover_canonical", lambda *args: None)
        expected = recover_files(capsys, red, cert_path, sol)
    assert got == expected
    assert "Traceback" not in got[2]


@pytest.mark.parametrize("fmt, reduced_name", [("dimacs-col", "gp.col"), ("edge-list", "gp.txt")])
@pytest.mark.parametrize("solution", ["independent", "dependent"])
def test_recover_on_canonical_input_with_no_blocks_reads_it_canonically(
    tmp_path, capsys, monkeypatch, fmt, reduced_name, solution
):
    """A G' with no gadget blocks is all prefix: every edge goes through the
    canonical reader, and the parser is never called."""
    g = complete_graph(4)
    gp, cert = regularize(g, 3)
    assert cert.gadgets == () and gp.n == cert.padded_n
    _, red, cert_path = write_inputs(tmp_path, g, serialize_graph(gp, fmt), cert.to_json(), reduced_name)
    sol = tmp_path / "sol.txt"
    sol.write_text("".join(f"{v}\n" for v in SOLUTIONS[solution](gp)))
    parsed, edges, real = [], [], graph_io._canonical_runs

    def runs(*args):
        for lines in real(*args):
            edges.append(len(lines) // 2)
            yield lines

    monkeypatch.setattr(graph_io, "_canonical_runs", runs)
    monkeypatch.setattr(graph_io, "_read", lambda text, f: parsed.append(f))
    code, out, err, _ = recover_files(capsys, red, cert_path, sol)
    assert parsed == [] and sum(edges) == gp.m
    if solution == "independent":
        assert (code, err) == (0, "")
        assert json.loads(out)["recovered"] == SOLUTIONS[solution](gp)
    else:
        assert (code, err) == (2, "error: input set is not independent in the reduced graph\n")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CASES))
def test_recover_reads_g_prime_from_a_pipe(tmp_path, capsys, name):
    """``--reduced`` may name a pipe, as in ``<(zcat gp.col.gz)``: it is
    parsed, with the output of the same G' read from a file."""
    g, gp, cert = DIFFERENTIAL_CASES[name]()
    text = serialize_graph(gp, "dimacs-col")
    _, red, cert_path = write_inputs(tmp_path, g, text, cert.to_json())
    sol = tmp_path / "sol.txt"
    sol.write_text("".join(f"{v}\n" for v in greedy_independent(gp)))
    expected = run(capsys, "recover", "--reduced", red, "--cert", cert_path, "--solution", sol)
    read_end, write_end = os.pipe()
    try:
        with os.fdopen(write_end, "wb") as w:
            w.write(text.encode())  # within one pipe buffer, so no writer thread is needed
        got = run(
            capsys, "recover", "--reduced", f"/dev/fd/{read_end}", "--format", "dimacs-col",
            "--cert", cert_path, "--solution", sol,
        )
    finally:
        os.close(read_end)
    assert got == expected and expected[0] == 0


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CASES))
def test_verify_reads_g_prime_from_a_pipe(tmp_path, capsys, name):
    """``verify --reduced`` may name a pipe as ``recover --reduced`` may:
    it is parsed, with the report of the same G' read from a file."""
    g, gp, cert = DIFFERENTIAL_CASES[name]()
    text = serialize_graph(gp, "dimacs-col")
    src, red, cert_path = write_inputs(tmp_path, g, text, cert.to_json())
    expected = verify_files(capsys, (src, red, cert_path))
    read_end, write_end = os.pipe()
    try:
        with os.fdopen(write_end, "wb") as w:
            w.write(text.encode())  # within one pipe buffer, so no writer thread is needed
        got = verify_files(capsys, (src, f"/dev/fd/{read_end}", cert_path), "--format", "dimacs-col")
    finally:
        os.close(read_end)
    assert got == expected and expected[0] == 0


# ---------------------------------------------------------------------------
# hostile input to stats, regularize, solve and gadget

FUZZ_TOKENS = ["p", "edge", "col", "e", "c", "#", "n=", "# n=", "0", "1", "2", "3", "-1", "+2", "1_0", "٣", "x", "999", "\t"]


LINE_EDITS = ("header-n", "endpoint", "drop", "self-loop")  # mutate_line's


@st.composite
def source_edits(draw, edits=LINE_EDITS):
    """A small graph in either format: its file name, its canonical text,
    and that text with one of ``edits``, by :func:`mutate_line` or else
    :func:`~conftest.edit_canonical`."""
    n = draw(st.integers(2, 12))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]), min_size=1))
    fmt = draw(st.sampled_from(FORMATS))
    text = serialize_graph(Graph.from_edges(n, edges), fmt)
    edit, index = draw(st.sampled_from(edits)), draw(st.integers(0, 10**6))
    edited = mutate_line(text, index, edit) if edit in LINE_EDITS else edit_canonical(text, fmt, edit, index)
    return "g.col" if fmt == "dimacs-col" else "g.txt", text, edited


def edited_sources():
    """A small graph's canonical text in either format with one line edited (:func:`mutate_line`)."""
    return source_edits().map(lambda source: (source[0], source[2]))


# a file name, and arbitrary text or lines of the formats' tokens
ARBITRARY_SOURCES = st.tuples(
    st.sampled_from(["g.col", "g.txt"]),
    st.one_of(st.text(max_size=300), st.lists(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=5).map(" ".join), max_size=12).map("\n".join)),
)


def run_hostile(tmp_path, capsys, source, command, *options):
    """``regmis <command> <file> <options>`` on the file named and holding
    ``source``'s (name, text); a non-zero exit must print an ``error:`` line."""
    name, text = source
    path = tmp_path / name
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # duplicate edges and edge counts warn
        code, out, err = run(capsys, command, path, *options)
    assert code == 0 or err.startswith("error: ")
    return code, out, err


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["stats", "regularize"]), arbitrary=ARBITRARY_SOURCES, edited=edited_sources())
def test_stats_and_regularize_on_hostile_input_exit_with_their_codes(tmp_path, capsys, command, arbitrary, edited):
    """stats on arbitrary text, and regularize --degree 5 on an edited
    canonical text: exit 0, 1 or 2 and no exception; exit 1 only for a
    maximum degree above the target."""
    if command == "stats":
        code, _, err = run_hostile(tmp_path, capsys, arbitrary, "stats")
    else:
        code, _, err = run_hostile(tmp_path, capsys, edited, "regularize", "--degree", "5", "--output", tmp_path / "out", "--cert", tmp_path / "cert")
    assert code in (0, 1, 2)
    if code == 1:
        assert re.fullmatch(r"error: maximum degree \d+ exceeds target degree 5\n", err)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(source=source_edits(LINE_EDITS + ("reverse", "swap", "crlf", "comment")), reduced_fmt=st.sampled_from(FORMATS))
def test_verify_on_an_edited_source_passes_only_for_the_same_graph(tmp_path, capsys, source, reduced_fmt):
    """verify of the honest G' and certificate of a G whose text was
    edited: exit 0 exactly when the edited text is a graph with G's content
    hash, with G's own report, and otherwise exit 2 with an error line."""
    name, text, edited = source
    fmt = graph_io.sniff_format(name)
    g = parse_graph(text, fmt)
    d = max(3, g.max_degree() | 1)  # odd, and at least the degree of a parity clique
    gp, cert = reduce_to_regular(g, d)
    red, cert_path = tmp_path / ("gp.col" if reduced_fmt == "dimacs-col" else "gp.txt"), tmp_path / "c.json"
    red.write_text(serialize_graph(gp, reduced_fmt))
    cert_path.write_text(cert.to_json())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # duplicate edges and edge counts warn
        try:
            same = parse_graph(edited, fmt).content_hash() == cert.source_hash
        except GraphError:
            same = False
        src = tmp_path / name
        src.write_text(edited, newline="")  # CRLF stays CRLF
        code, out, err = run(capsys, "verify", "--graph", src, "--reduced", red, "--cert", cert_path)
    if same:
        assert (code, out, err) == (0, verify_all(g, gp, cert).to_json(), "")
    else:
        assert code == 2 and err.startswith("error: ") and "Traceback" not in err


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    source=st.one_of(ARBITRARY_SOURCES, edited_sources()),
    method=st.sampled_from(["auto", "brute", "bb"]),
    budget=st.one_of(
        st.just(()),
        st.tuples(st.just("--budget-nodes"), st.sampled_from(["0", "-1", "1", "1000"])),
        st.tuples(st.just("--budget-secs"), st.sampled_from(["0", "-1", "nan", "1e-9", "inf", "10"])),
    ),
)
def test_solve_on_hostile_input_exits_with_its_codes(tmp_path, capsys, source, method, budget):
    """solve on arbitrary or edited text, with any method and budget: exit
    0, 2 or 3 and no exception; exit 2 for a budget that is not positive,
    NaN included; exit 0 with a witness of the reported size."""
    code, out, _ = run_hostile(tmp_path, capsys, source, "solve", "--method", method, *budget)
    assert code in (0, 2, 3)
    if budget[1:] and budget[1] in ("0", "-1", "nan"):
        assert code == 2
    if code == 0:
        doc = json.loads(out)
        assert len(doc["witness"]) == doc["alpha"]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    kind=st.sampled_from([gadgets.GENERAL, gadgets.PLANAR5, gadgets.ICOSA]),
    delta=st.one_of(st.just(()), st.integers(-15, 15).map(lambda d: ("--delta", str(d)))),
    fmt=st.sampled_from(FORMATS),
)
def test_gadget_on_any_kind_and_delta_exits_with_its_codes(tmp_path, capsys, kind, delta, fmt):
    """gadget for each kind, with no --delta or one of at most 15 either
    way, in either format: exit 0 or 2 and no exception; exit 0 with the
    builder's delta in the role map."""
    argv = ["gadget", "--kind", kind, *delta, "--out-format", fmt, "--output", tmp_path / "g", "--roles", tmp_path / "roles"]
    code, _, err = run(capsys, *argv)
    assert code in (0, 2)
    assert code == 0 or err.startswith("error: ")
    if code == 0:
        doc = json.loads((tmp_path / "roles").read_text())
        assert doc["delta"] == (int(delta[1]) if kind == gadgets.GENERAL else None)


# ---------------------------------------------------------------------------
# bytes that are not UTF-8


@pytest.mark.parametrize(
    "command, kind",
    [
        ("stats", "graph"),
        ("regularize", "graph"),
        ("verify", "graph"),
        ("verify", "reduced"),
        ("verify", "cert"),
        ("recover", "reduced"),
        ("recover", "cert"),
        ("recover", "solution"),
    ],
)
def test_bytes_that_are_not_utf8_are_an_input_error(tmp_path, capsys, monkeypatch, command, kind):
    monkeypatch.setattr(graph_io, "_CHUNK", 32)  # the byte lies past the reader's first chunk
    g, gp, cert = DIFFERENTIAL_CASES["general"]()
    files = dict(zip(("graph", "reduced", "cert"), write_inputs(tmp_path, g, serialize_graph(gp, "dimacs-col"), cert.to_json())))
    files["solution"] = tmp_path / "sol.txt"
    files["solution"].write_text("0\n")
    files[kind].write_bytes(files[kind].read_bytes() + b"\xff\n")
    argv = {
        "stats": ["stats", files["graph"]],
        "regularize": ["regularize", files["graph"], "--degree", "3", "--output", tmp_path / "out.col"],
        "verify": ["verify", "--graph", files["graph"], "--reduced", files["reduced"], "--cert", files["cert"]],
        "recover": ["recover", "--reduced", files["reduced"], "--cert", files["cert"], "--solution", files["solution"]],
    }[command]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {files[kind]}: not UTF-8 text") and "Traceback" not in err


# ---------------------------------------------------------------------------
# the gadget tile size changes no output


def with_deficiency(d, k):
    """A graph of maximum degree ``d`` (odd) whose degrees fall short of
    ``d`` by ``k`` in all: a K_{d+1}, one K_{d+2} less edges (short by 1)
    when ``k`` is odd, then K_{d+1}s less a matching (short by 2 per edge)."""
    edges, n = [], 0

    def clique(size, removed):
        nonlocal n
        edges.extend((n + i, n + j) for i in range(size) for j in range(i + 1, size) if (i, j) not in removed)
        n += size

    clique(d + 1, ())
    if k % 2:
        clique(d + 2, {(0, 1), (0, 2)} | {(i, i + 1) for i in range(3, d + 2, 2)})
        k -= 1
    while k:
        j = min(k // 2, (d + 1) // 2)
        clique(d + 1, {(2 * i, 2 * i + 1) for i in range(j)})
        k -= 2 * j
    return Graph.from_edges(n, edges)


def rehashed(cert_text, reduced_text, fmt):
    """The certificate with its result hash that of ``reduced_text``."""
    doc = json.loads(cert_text)
    doc["result_hash"] = graph_io.parse_edges(reduced_text, fmt).digest
    return json.dumps(doc)


def tile_outputs(tmp_path, capsys, monkeypatch, g, flags):
    """regularize's G' and certificate, verify's reports on canonical,
    reversed and edited G' and with the oracle, and recover's output, each
    with its exit code and stderr; then the library's G' (its rows) and
    certificate from the same source."""
    src, red, cert = tmp_path / "g.col", tmp_path / "gp.col", tmp_path / "cert.json"
    src.write_text(serialize_graph(g, "dimacs-col"))
    outputs = [run(capsys, "regularize", src, *flags, "--output", red, "--cert", cert), red.read_text(), cert.read_text()]
    text, cert_text = outputs[1:]
    head, *edges = text.splitlines(keepends=True)
    reversed_text = head + "".join(reversed(edges))
    # the last edge line lies inside the last block, so in the last tile
    n, m = map(int, head.split()[2:])
    edited = f"p edge {n} {m - 1}\n" + "".join(edges[:-1])
    for reduced_text, cert_text in ((text, cert_text), (reversed_text, cert_text), (edited, rehashed(cert_text, edited, "dimacs-col"))):
        paths = write_inputs(tmp_path, g, reduced_text, cert_text)
        outputs.append(verify_files(capsys, paths))
    oracle_graphs = []
    real = verify.check_alpha_relation
    monkeypatch.setattr(verify, "check_alpha_relation", lambda g, gp, *a: oracle_graphs.append(gp.content_hash()) or real(g, gp, *a))
    paths = write_inputs(tmp_path, g, text, outputs[2])
    outputs.append(verify_files(capsys, paths, "--with-oracle", "--budget-nodes", "1"))
    assert oracle_graphs == [json.loads(outputs[2])["result_hash"]]  # the oracle solves G' itself
    sol = tmp_path / "sol.txt"
    sol.write_text("".join(f"{v}\n" for v in greedy_independent(parse_graph(text, "dimacs-col"))))
    outputs.append(run(capsys, "recover", "--reduced", red, "--cert", cert, "--solution", sol))
    library = reduce_to_regular(g, int(flags[1])) if flags[0] == "--degree" else regularize_planar(g)
    outputs.append((library[0].adjacency, library[1]))
    return outputs


@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 129])
@pytest.mark.parametrize("flags", [("--degree", "3"), ("--planar",)], ids=["general", "planar"])
def test_the_tile_size_changes_no_output(tmp_path, capsys, monkeypatch, flags, count):
    g = with_deficiency(3 if flags[0] == "--degree" else 5, count)
    expected = tile_outputs(tmp_path, capsys, monkeypatch, g, flags)
    assert len(json.loads(expected[2])["gadgets"]) == count
    assert [out[0] for out in expected[3:6]] == [0, 0, 1]
    assert expected[-2][0] == 0
    rows, library_cert = expected[-1]  # the library's G' and certificate are the CLI's
    assert (serialize_graph(Graph(len(rows), rows), "dimacs-col"), library_cert.to_json()) == (expected[1], expected[2])
    size = gadgets.gadget_size(gadgets.GENERAL, 3) if flags[0] == "--degree" else gadgets.gadget_size(gadgets.PLANAR5, 5)
    for name, sizes in (("_RUN", [k * size for k in (1, 2, 3, 7)]), ("_WINDOW", (10, 1000))):  # _RUN: k blocks per tile
        for value in sizes:
            with monkeypatch.context() as patch:
                patch.setattr(graph, name, value)
                assert tile_outputs(tmp_path, capsys, patch, g, flags) == expected, (name, value)


# ---------------------------------------------------------------------------
# main builds one command's parser, with the full parser's texts

PARSER_INPUTS = [
    [], ["-h"], ["bogus"], ["--graph", "x"], ["solve", "--help"],
    *[[command, "-h"] for command in cli._COMMANDS],
    *[[command] for command in cli._COMMANDS],
    ["regularize", "g.col"],
    ["regularize", "g.col", "--degree", "5", "--planar"],
    ["regularize", "g.col", "--degree", "x"],
    ["regularize", "g.col", "--degree", "5", "--format", "bogus"],
    ["regularize", "g.col", "--degree", "5", "--bogus"],
    ["regularize", "g.col", "--deg", "5", "--out-f", "edge-list", "--str"],
    ["regularize", "g.col", "--degree", "5", "--out", "x"],
    ["solve", "g.col", "--method", "bogus"],
    ["solve", "g.col", "--bogus", "1"],
    ["solve", "g.col", "--meth", "bb", "--budget-n", "7", "--budget-s", "0.5"],
    ["solve", "g.col", "--budget", "7"],
    ["solve", "g.col", "extra"],
    ["verify", "--graph", "g.col"],
    ["verify", "--graph", "g.col", "--reduced", "gp.col", "--cert", "c.json", "--format", "bogus"],
    ["verify", "--graph", "g.col", "--reduced", "gp.col", "--cert", "c.json", "--bogus"],
    ["verify", "--grap", "g.col", "--red", "gp.col", "--ce", "c.json", "--with", "--budget-nodes=3"],
    ["verify", "--graph", "g.col", "--reduced", "gp.col", "--cert", "c.json", "--budget-nodes", "x"],
    ["recover", "--reduced", "gp.col", "--cert", "c.json"],
    ["recover", "--reduced", "gp.col", "--cert", "c.json", "--solution", "s.txt", "--format", "bogus"],
    ["recover", "--reduced", "gp.col", "--cert", "c.json", "--solution", "s.txt", "--bogus"],
    ["recover", "--red", "gp.col", "--ce", "c.json", "--sol", "s.txt", "--form", "edge-list"],
    ["recover", "--reduced", "gp.col", "--cert", "c.json", "--solution", "s.txt", "extra"],
    ["gadget", "--delta"],
    ["gadget", "--kind", "bogus"],
    ["gadget", "--bogus"],
    ["gadget", "--ki", "planar5", "--del", "5", "--rol", "r.json"],
    ["stats", "g.col", "--format", "bogus"],
    ["stats", "g.col", "--bogus"],
    ["stats", "g.col", "--form", "edge-list"],
    ["stats", "--", "g.col"],
]


def parse_outcome(capsys, parse, argv):
    """What ``parse(argv)`` returns, or its exit code, and its stdout and stderr."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = ("exit", exc.code)
    out = capsys.readouterr()
    return result, out.out, out.err


@pytest.mark.parametrize("argv", PARSER_INPUTS, ids=" ".join)
def test_main_parses_as_the_full_parser(capsys, monkeypatch, argv):
    """Every input reaches its command with the arguments of the full
    parser, or stops with its usage, error and exit code."""
    called = []
    for command, (_, summary) in cli._COMMANDS.items():
        monkeypatch.setitem(cli._COMMANDS, command, (lambda args: called.append(vars(args)) or 0, summary))
    expected = parse_outcome(capsys, lambda a: vars(cli.build_parser().parse_args(a)), argv)
    assert parse_outcome(capsys, lambda a: main(a) or called.pop(), argv) == expected
    assert called == []


def test_a_command_builds_one_parser(tmp_path, capsys, monkeypatch):
    g, gp, cert = DIFFERENTIAL_CASES["general"]()
    _, red, cert_path = write_inputs(tmp_path, g, serialize_graph(gp, "dimacs-col"), cert.to_json())
    sol = tmp_path / "sol.txt"
    sol.write_text("0\n")
    built = []
    real = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda self, *a, **k: built.append(k.get("prog")) or real(self, *a, **k))
    code, out, err = run(capsys, "recover", "--reduced", red, "--cert", cert_path, "--solution", sol)
    assert (code, err, built) == (0, "", ["regmis recover"])
    assert json.loads(out)["recovered"] == [0]


def test_id_lists_print_as_the_json_encoder_does(capsys):
    for ids in ([], [0], [3, 17, 1000000]):
        doc = {"before": 1, "ids": ids, "stats": {"ids": []}, "after": True}
        cli._print_ids(doc, "ids")
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"
