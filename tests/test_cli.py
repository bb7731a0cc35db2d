import json

import pytest

from regmis.cli import main
from regmis.graph import Graph, complete_graph
from regmis.io import serialize_graph

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
        code, _, err = run(
            capsys, "regularize", k4e_file, "--degree", "4",
            "--output", tmp_path / "x.col", "--cert", tmp_path / "x.json",
        )
        assert code == 2

    def test_strict_mode_rejects_even_max_degree(self, tmp_path, capsys):
        c4 = tmp_path / "c4.col"
        c4.write_text("p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n")
        code, _, _ = run(
            capsys, "regularize", c4, "--degree", "3", "--strict",
            "--output", tmp_path / "x.col", "--cert", tmp_path / "x.json",
        )
        assert code == 1

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

    def test_empty_graph(self, tmp_path, capsys):
        path = tmp_path / "e.txt"
        path.write_text("")
        code, out, _ = run(capsys, "solve", path)
        assert code == 0 and json.loads(out)["alpha"] == 0


# Malformed untrusted input, each a change to one file of the K4-e reduction.
MALFORMED = {
    "cert-gadget-without-port": ("cert", lambda gadget: gadget.pop("port")),
    "cert-owner-not-integer": ("cert", lambda gadget: gadget.update(owner="x")),
    "cert-id-offset-string": ("cert", lambda gadget: gadget.update(id_offset="7")),
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
            change(doc["gadgets"][0])
            cert.write_text(json.dumps(doc))
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
        assert err.startswith("error: ") and "Traceback" not in err

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
