"""Acceptance battery: every constructive guarantee of the reduction,
verified at desk scale with exact oracles.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import random

from regmis.gadgets import (
    GENERAL,
    PLANAR5,
    build_general_gadget,
    build_icosa_gadget,
    gadget_alpha,
    stated_alpha_formula,
)
from regmis.graph import (
    Graph,
    complete_graph,
    is_independent_set,
    triangle_count,
)
from regmis.reduction import (
    forward_map,
    recover,
    reduce_to_regular,
    regularize,
    regularize_planar,
)
from regmis.solvers import has_clique_k, mis_branch_bound, mis_bruteforce
from regmis.verify import PASS, check_port_exclusion, check_sandwich

from conftest import all_maximum_independent_sets, random_graph, random_graph_max_degree

K4_MINUS_EDGE = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def report(number, name, detail=""):
    print(f"[acceptance] criterion {number:2d} PASS  {name}" + (f"  ({detail})" if detail else ""))


def test_criterion_01_gadget_structure():
    for delta in (3, 5, 7):
        g, layout = build_general_gadget(delta)
        assert g.n == (delta - 1) ** 2 + delta
        deficient = [v for v in range(g.n) if g.degree(v) != delta]
        assert deficient == [layout.port]
        assert g.degree(layout.port) == delta - 1
    report(1, "gadget structure", "delta 3/5/7: one port of degree delta-1, rest delta")


def test_criterion_02_gadget_independence_constant():
    g3, _ = build_general_gadget(3)
    sets = all_maximum_independent_sets(g3)  # exhaustive 2^7 enumeration
    assert len(sets[0]) == 3 and gadget_alpha(3) == 3
    g5, _ = build_general_gadget(5)
    assert mis_bruteforce(g5).alpha == 10
    assert mis_branch_bound(g5).alpha == 10 and gadget_alpha(5) == 10
    for delta in (3, 5):
        assert gadget_alpha(delta) == delta * (delta - 1) // 2
        assert gadget_alpha(delta) != stated_alpha_formula(delta)  # claim overcounts
    report(2, "gadget independence constant",
           "alpha(3)=3, alpha(5)=10; published closed form 4/12 disagrees and is flagged")


def test_criterion_03_port_exclusion():
    c5 = check_port_exclusion(GENERAL, 5)
    assert c5.status == PASS and "alpha=10, best-with-port=9 (strict)" in c5.detail
    cp = check_port_exclusion(PLANAR5)
    assert cp.status == PASS and "alpha=8, best-with-port=7 (strict)" in cp.detail
    c3 = check_port_exclusion(GENERAL, 3)
    assert c3.status == PASS and "alpha=3, best-with-port=3 (tie)" in c3.detail
    report(3, "port exclusion", "10 vs 9, 8 vs 7 strict; 3 vs 3 tie")


def test_criterion_04_icosahedron_gadget():
    g, layout = build_icosa_gadget()
    sets = all_maximum_independent_sets(g)  # all 2^12 subsets
    assert len(sets) == 1 and len(sets[0]) == 4
    assert sets[0] == layout.canonical_mis  # the a, b, k, f vertices
    report(4, "icosahedron-minus-edge gadget", "alpha=4, unique witness {a,b,k,f}")


def test_criterion_05_offset_relation_by_oracle():
    gp, cert = regularize(K4_MINUS_EDGE, 3)
    assert mis_bruteforce(gp).alpha == 8 == 2 + cert.total_offset
    gp1, cert1 = regularize(Graph.from_edges(1, []), 3)
    assert mis_bruteforce(gp1).alpha == 10 == 1 + cert1.total_offset

    rng = random.Random(42)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 12)
        g = random_graph_max_degree(rng, n, 3)
        gp, cert = reduce_to_regular(g, 3)
        alpha = mis_branch_bound(g).alpha
        alpha_prime = mis_branch_bound(gp).alpha
        assert alpha_prime == alpha + cert.total_offset, (n, list(g.edges()))
        checked += 1
    report(5, "offset relation by oracle",
           "K4-e: 8=2+6; K1: 10=1+9; 100 random pipelines exact")


def test_criterion_06_sandwich_certification_at_scale():
    g = complete_graph(4)
    gp, cert = regularize_planar(g)
    assert gp.n == 204
    assert all(gp.degree(v) == 5 for v in range(gp.n))
    witness = forward_map(g, {0}, cert)
    assert is_independent_set(gp, witness) and len(witness) == 65
    check = check_sandwich(g, gp, cert, {0})
    assert check.status == PASS and "65" in check.detail
    report(6, "sandwich certification at scale",
           "alpha(G')=65 certified on 204 vertices with no large solve")


def test_criterion_07_round_trip():
    rng = random.Random(7)
    instances = [
        (K4_MINUS_EDGE, 3), (complete_graph(4), 5),
        (Graph.from_edges(1, []), 3),
    ]
    for _ in range(20):
        instances.append((random_graph_max_degree(rng, rng.randint(1, 10), 3), 3))
    for g, delta in instances:
        gp, cert = reduce_to_regular(g, delta)
        best = mis_branch_bound(g).witness
        for members in (set(), set(best)):
            lifted = forward_map(g, members, cert)
            assert recover(gp, lifted, cert) == members
        best_prime = mis_branch_bound(gp).witness
        recovered = recover(gp, best_prime, cert)
        assert len(recovered) >= len(best_prime) - cert.total_offset
    report(7, "round trip", "recover∘forward = id; size bound on all instances")


def test_criterion_08_triangle_and_clique_preservation():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        delta = max(3, g.max_degree() | 1)  # next odd >= max degree
        gp, cert = regularize(g, delta)
        assert triangle_count(gp) == triangle_count(g)
        for k in (3, 4):
            assert has_clique_k(gp, k)[0] == has_clique_k(g, k)[0]
    report(8, "triangle/clique preservation", "100 random general pipelines, k in {3,4}")


def padded_prefix(gp, n):
    """The first ``n`` vertices of G': its rows below ``n``, cut at ``n``."""
    return Graph(n, tuple(tuple(w for w in row if w < n) for row in gp.adjacency[:n]))


def check_padding_offsets(g, gp, cert):
    """alpha(G' cut after each step) = alpha(G) + the offsets so far."""
    alpha = mis_bruteforce(g).alpha
    for step in cert.steps:
        assert step.end <= 18  # within brute-force reach
        alpha += step.alpha_offset
        assert mis_bruteforce(padded_prefix(gp, step.end)).alpha == alpha


def test_criterion_09_parity_and_star_padding():
    rng = random.Random(9)
    checked = 0
    while checked < 12:
        g = random_graph(rng, rng.randint(2, 8), 0.4)
        delta = g.max_degree()
        if delta % 2 == 1 or delta == 0:
            continue
        gp, cert = reduce_to_regular(g, delta + 1)
        (step,) = cert.steps
        assert step.kind == "parity-clique" and step.size == delta + 2
        assert step.alpha_offset == 1
        assert padded_prefix(gp, step.end).max_degree() == delta + 1
        check_padding_offsets(g, gp, cert)
        checked += 1
    for target in (3, 5):
        g = random_graph(rng, 6, 0.3)
        if g.max_degree() > target:
            continue
        gp, cert = reduce_to_regular(g, target)
        for step in cert.steps:
            if step.kind == "star-pad":
                assert step.alpha_offset == target and step.size == target + 1
        check_padding_offsets(g, gp, cert)
    report(9, "parity and star padding", "offsets 1 and d verified by oracle on the padded prefix of G'")


def test_criterion_10_mutation_detection():
    # the designated single-edit mutations all flip pass to fail
    import pathlib
    import subprocess
    import sys

    target = pathlib.Path(__file__).with_name("test_verify.py")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", f"{target}::TestMutationDetection", "-q"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout
    report(10, "mutation detection", "100% kill rate on the designated mutation set")


def test_criterion_11_solver_cross_validation():
    rng = random.Random(11)
    for i in range(500):
        n = rng.randint(1, 18)
        p = rng.choice([0.1, 0.3, 0.5])
        g = random_graph(rng, n, p)
        assert mis_branch_bound(g).alpha == mis_bruteforce(g).alpha, (n, p, i)
    report(11, "solver cross-validation", "branch-and-bound = brute force on 500 graphs")
