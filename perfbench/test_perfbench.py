"""Self-test of the benchmark at its smallest size.

    python3 -m pytest perfbench/test_perfbench.py -q

Runs every workload, plain and traced, on the smallest inputs for a moment
and checks the result line against BENCHMARK.json; checks the generators
and the benchmark's own graph hash against regmis; and checks that the
benchmark refuses to run where there are no sources.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def degrees(n, edges):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def test_generators_are_seeded_simple_and_shaped():
    for seed in range(3):
        graphs = {
            "max-degree": gen.max_degree_graph(random.Random(seed), 60, 70, 3),
            "near-regular": gen.near_regular_graph(random.Random(seed), 400, 5, 10),
            "cubic": gen.cubic_graph(random.Random(seed), 40),
            "planar": gen.planar_grid_graph(random.Random(seed), 8, 8, 20),
        }
        again = gen.max_degree_graph(random.Random(seed), 60, 70, 3)
        assert again == graphs["max-degree"]
        for n, edges in graphs.values():
            assert len(set(edges)) == len(edges)
            assert all(0 <= u < v < n for u, v in edges)
        n, edges = graphs["max-degree"]
        assert len(edges) == 70 and max(degrees(n, edges)) <= 3
        n, edges = graphs["near-regular"]
        assert sum(5 - d for d in degrees(n, edges)) == 10
        n, edges = graphs["cubic"]
        assert set(degrees(n, edges)) == {3}
        n, edges = graphs["planar"]
        assert len(edges) == 2 * 8 * 7 + 20 and max(degrees(n, edges)) <= 5


def test_own_hash_and_expected_reduction_agree_with_regmis():
    from regmis.graph import Graph
    from regmis.reduction import reduce_to_regular, regularize_planar

    n, edges = gen.max_degree_graph(random.Random(1), 30, 36, 3)
    g = Graph.from_edges(n, edges)
    assert checks.content_hash(n, edges) == g.content_hash()
    gp, cert = reduce_to_regular(g, 5)
    want = checks.expected_reduction(n, edges, checks.GENERAL, 5)
    assert (gp.n, len(cert.gadgets), cert.total_offset) == (want["vprime"], want["gadgets"], want["total_offset"])
    n, edges = gen.planar_grid_graph(random.Random(1), 4, 4, 5)
    gp, cert = regularize_planar(Graph.from_edges(n, edges))
    want = checks.expected_reduction(n, edges, checks.PLANAR, 5)
    assert (gp.n, len(cert.gadgets), cert.total_offset) == (want["vprime"], want["gadgets"], want["total_offset"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_at_smallest_size(workload, trace):
    result = run.run_workload(workload, seed=0, seconds=0.01, trace=trace, scale="smoke")
    record = result.pop("_record")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["failures"]
    assert result["attempted"] >= 1
    # the only failures allowed are the known defect's
    assert result["failed"] == record["failures"].count(run.KNOWN_DEFECT)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    json.dumps(result, allow_nan=False)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert all(rec.get("result_hash") for rec in record["instances"])


def test_operation_counts_repeat_for_a_seed():
    """The instance count is fixed before the run, so attempted and failed
    do not depend on how fast the host happens to be."""
    counts = []
    for _ in range(2):
        result = run.run_workload("gadget-heavy", seed=3, seconds=5, trace=False, scale="smoke")
        counts.append((result["attempted"], result["failed"], len(result["_record"]["instances"])))
    assert counts[0] == counts[1]
    assert counts[0][2] == 2 * run.instance_count(run.WORKLOADS["gadget-heavy"](), 5, False)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
