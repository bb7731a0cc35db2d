"""Smoke gate for ``tools/bench_solvers.py``: the fixed families at n = 20,
one round in a fresh process."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_solvers.py"
KEYS = {"revision", "against", "nproc", "python", "graphs", "mismatches", "node_rises", "counter_changes", "runs"}


def bench_solvers():
    sys.path.insert(0, str(TOOL.parent))
    try:
        import bench_solvers
    finally:
        sys.path.remove(str(TOOL.parent))
    return bench_solvers


def test_bench_solvers_smoke(tmp_path):
    out = tmp_path / "bench.json"
    cmd = [sys.executable, str(TOOL), "--rounds", "1", "--sizes", "20", "--output", str(out)]
    subprocess.run(cmd, check=True, timeout=120)
    report = json.loads(out.read_text())
    assert set(report) == KEYS
    assert report["against"] is None
    assert report["mismatches"] == report["node_rises"] == report["counter_changes"] == []
    names = [f"cubic-20-seed{s}" for s in range(5)] + ["planar-vertex", "planar-edge"]
    assert list(report["graphs"]) == names
    (run,) = report["runs"]
    assert run["side"] == "working" and [rec["graph"] for rec in run["graphs"]] == names
    assert set(run["graphs"][0]) == {
        "graph", "alpha", "nodes", "bound_prunes", "bound_conflicts", "full_sweeps", "seconds", "witness_sha256"
    }


def test_without_git_the_commit_is_null_and_against_is_refused(tmp_path, monkeypatch, capsys):
    """With git failing (as outside a work tree, here through a GIT_DIR that
    does not exist), a run records a null commit and ``dirty``, and
    ``--against`` exits 2 before solving anything."""
    tool = bench_solvers()
    monkeypatch.setenv("GIT_DIR", str(tmp_path / "no-repository"))
    assert tool._git("rev-parse", "HEAD") is None
    with pytest.raises(SystemExit) as refused:
        tool.main(["--against", "HEAD", "--rounds", "1", "--sizes", "20"])
    assert refused.value.code == 2
    assert "--against HEAD: no git work tree here" in capsys.readouterr().err
    out = tmp_path / "bench.json"
    assert tool.main(["--rounds", "1", "--sizes", "20", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == KEYS and report["revision"] == {"commit": None, "dirty": None}


def test_an_unknown_revision_is_refused(monkeypatch, capsys):
    """In a work tree (here a ``_git`` whose HEAD resolves, with or without
    a ``.git``) a revision that does not resolve exits 2 before solving."""
    tool = bench_solvers()
    monkeypatch.setattr(tool, "_git", lambda *argv: "0" * 40 if argv == ("rev-parse", "HEAD") else None)
    with pytest.raises(SystemExit) as refused:
        tool.main(["--against", "no-such-revision", "--rounds", "1", "--sizes", "20"])
    assert refused.value.code == 2
    assert "--against no-such-revision: no such revision" in capsys.readouterr().err


def test_summary_flags_differing_witnesses_and_node_counts():
    tool = bench_solvers()
    counters = {"nodes": 3, "bound_prunes": 0, "bound_conflicts": 1, "full_sweeps": 2}
    rec = {"graph": "g", "alpha": 2, **counters, "seconds": 0.1, "witness_sha256": "a"}

    def summary(*extra):
        runs = [{"side": "working", "round": 0, "graphs": [rec]},
                {"side": "against", "round": 0, "graphs": [dict(rec, nodes=5, seconds=0.3)]}]
        return tool._summary(runs + [{"side": s, "round": 1, "graphs": [r]} for s, r in extra])

    fewer = summary()
    assert (fewer["mismatches"], fewer["node_rises"], fewer["counter_changes"]) == ([], [], [])
    assert fewer["graphs"]["g"]["against"] == dict(counters, nodes=5, seconds=0.3)
    assert summary(("against", dict(rec, nodes=5, witness_sha256="b")))["mismatches"] == ["g"]
    assert summary(("working", dict(rec, nodes=4)))["mismatches"] == ["g"]
    for key in ("bound_prunes", "bound_conflicts", "full_sweeps"):  # between two rounds of one side
        assert summary(("working", dict(rec, **{key: 7})))["mismatches"] == ["g"]
        assert summary(("against", dict(rec, nodes=5, **{key: 7})))["mismatches"] == ["g"]
    rises = tool._summary([{"side": "working", "round": 0, "graphs": [dict(rec, nodes=6)]},
                           {"side": "against", "round": 0, "graphs": [rec]}])
    assert (rises["mismatches"], rises["node_rises"], rises["counter_changes"]) == ([], ["g"], [])
    for key in ("bound_prunes", "bound_conflicts", "full_sweeps"):  # between the sides: reported, not failed
        changed = tool._summary([{"side": "working", "round": 0, "graphs": [dict(rec, **{key: 7})]},
                                 {"side": "against", "round": 0, "graphs": [rec]}])
        assert (changed["mismatches"], changed["node_rises"], changed["counter_changes"]) == ([], [], ["g"])
