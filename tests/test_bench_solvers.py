"""Smoke gate for ``tools/bench_solvers.py``: the fixed families at n = 20,
one round in a fresh process."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_solvers.py"


def test_bench_solvers_smoke(tmp_path):
    out = tmp_path / "bench.json"
    cmd = [sys.executable, str(TOOL), "--rounds", "1", "--sizes", "20", "--output", str(out)]
    subprocess.run(cmd, check=True, timeout=120)
    report = json.loads(out.read_text())
    assert set(report) == {"revision", "against", "nproc", "python", "graphs", "mismatches", "node_rises", "runs"}
    assert report["against"] is None
    assert report["mismatches"] == [] and report["node_rises"] == []
    names = [f"cubic-20-seed{s}" for s in range(5)] + ["planar-vertex", "planar-edge"]
    assert list(report["graphs"]) == names
    (run,) = report["runs"]
    assert run["side"] == "working" and [rec["graph"] for rec in run["graphs"]] == names
    assert set(run["graphs"][0]) == {
        "graph", "alpha", "nodes", "bound_prunes", "bound_conflicts", "full_sweeps", "seconds", "witness_sha256"
    }


def test_summary_flags_differing_witnesses_and_node_counts():
    sys.path.insert(0, str(TOOL.parent))
    try:
        import bench_solvers
    finally:
        sys.path.remove(str(TOOL.parent))
    rec = {"graph": "g", "alpha": 2, "nodes": 3, "bound_prunes": 0, "seconds": 0.1, "witness_sha256": "a"}

    def summary(*extra):
        runs = [{"side": "working", "round": 0, "graphs": [rec]},
                {"side": "against", "round": 0, "graphs": [dict(rec, nodes=5, seconds=0.3)]}]
        return bench_solvers._summary(runs + [{"side": s, "round": 1, "graphs": [r]} for s, r in extra])

    fewer = summary()
    assert (fewer["mismatches"], fewer["node_rises"]) == ([], [])
    assert fewer["graphs"]["g"]["against"] == {"nodes": 5, "seconds": 0.3}
    assert summary(("against", dict(rec, nodes=5, witness_sha256="b")))["mismatches"] == ["g"]
    assert summary(("working", dict(rec, nodes=4)))["mismatches"] == ["g"]
    rises = bench_solvers._summary([{"side": "working", "round": 0, "graphs": [dict(rec, nodes=6)]},
                                    {"side": "against", "round": 0, "graphs": [rec]}])
    assert (rises["mismatches"], rises["node_rises"]) == ([], ["g"])
