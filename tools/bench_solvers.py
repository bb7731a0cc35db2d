"""Branch-and-bound on fixed graph families: nodes, prunes and seconds.

Usage::

    python tools/bench_solvers.py [--against REV] [--rounds R] [--output FILE]
                                  [--sizes N ...]

Solves each graph with ``mis_branch_bound`` and records, per graph, α, the
nodes explored, ``bound_prunes``, ``bound_conflicts``, ``full_sweeps``,
the seconds of the solve and the SHA-256 of the sorted witness.  The
families are ``perfbench/gen.py``'s ``cubic_graph`` (``--sizes``, default
100 120 140 160, × seeds 0–4) and ``regularize_planar`` of a one-vertex
graph and of an edge.

Every round runs each revision in a fresh process.  ``--against REV``
unpacks REV with ``git archive`` into a temporary directory and solves the
same graphs with its ``src``, alternating which side goes first from round
to round.  The graphs come from this checkout's generator on both sides.
The exit status is 1 if α or the witness of a graph differs between two
runs, or one of its counters (the nodes, ``bound_prunes``,
``bound_conflicts``, ``full_sweeps``) between two rounds of one side
(``mismatches``), 0 otherwise.  ``node_rises`` lists the graphs whose
working tree takes more nodes than REV, and ``counter_changes`` those
whose other counters differ between the sides; they are reported, not
failed.  The JSON written to ``--output`` (stdout by default) holds the
revision, ``nproc``, the Python version, every run, and per graph the
counters and median seconds of each side.  Outside a git work tree the
commit and ``dirty`` are null, and ``--against`` is refused (exit 2), as
it is for a revision git does not know.  Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(5)
COUNTERS = ("nodes", "bound_prunes", "bound_conflicts", "full_sweeps")  # deterministic, per graph and side


def _graphs(sizes: List[int]):
    """(name, graph) for every graph of the families."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from gen import cubic_graph
    from regmis.graph import Graph
    from regmis.reduction import regularize_planar

    for n in sizes:
        for seed in SEEDS:
            yield f"cubic-{n}-seed{seed}", Graph.from_edges(*cubic_graph(random.Random(seed), n))
    yield "planar-vertex", regularize_planar(Graph.from_edges(1, []))[0]
    yield "planar-edge", regularize_planar(Graph.from_edges(2, [(0, 1)]))[0]


def _worker(args: argparse.Namespace) -> None:
    """Solve every graph with the regmis of ``args.worker``'s ``src``; print
    one JSON list."""
    sys.path.insert(0, str(Path(args.worker) / "src"))
    from regmis.solvers import mis_branch_bound

    records = []
    for name, g in _graphs(args.sizes):
        start = time.perf_counter()
        result = mis_branch_bound(g)
        seconds = time.perf_counter() - start
        witness = ",".join(map(str, sorted(result.witness))).encode()
        records.append({
            "graph": name,
            "alpha": result.alpha,
            "nodes": result.nodes_explored,
            "bound_prunes": result.stats["bound_prunes"],
            "bound_conflicts": result.stats["bound_conflicts"],
            "full_sweeps": result.stats["full_sweeps"],
            "seconds": round(seconds, 6),
            "witness_sha256": hashlib.sha256(witness).hexdigest(),
        })
    json.dump(records, sys.stdout)


def _run_side(tree: Path, args: argparse.Namespace) -> List[Dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree)]
    cmd += ["--sizes", *map(str, args.sizes)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(cmd, env=env, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out)


def _unpack(rev: str, into: Path) -> None:
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(into, filter="data")
        else:
            archive.extractall(into)


def _git(*argv: str) -> Optional[str]:
    """git's output in this checkout, or None where git fails (no work tree, no git)."""
    try:
        run = subprocess.run(["git", *argv], cwd=ROOT, check=True, capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return run.stdout.strip()


def _summary(runs: List[Dict]) -> Dict:
    """Per graph and side: α, the witness digest, the ``COUNTERS`` and the
    median seconds.  ``mismatches`` lists the graphs whose α or witness
    differ between any two runs, or whose counters differ between two
    rounds of one side; ``node_rises`` those whose working nodes exceed the
    against side's, and ``counter_changes`` those whose other counters
    differ between the sides."""
    per: Dict[str, Dict] = {}
    mismatches = set()
    for run in runs:
        for rec in run["graphs"]:
            entry = per.setdefault(rec["graph"], {"alpha": rec["alpha"], "witness_sha256": rec["witness_sha256"]})
            side = entry.setdefault(run["side"], {**{key: rec[key] for key in COUNTERS}, "seconds": []})
            same = all(entry[key] == rec[key] for key in ("alpha", "witness_sha256"))
            if not same or any(side[key] != rec[key] for key in COUNTERS):
                mismatches.add(rec["graph"])
            side["seconds"].append(rec["seconds"])
    for entry in per.values():
        for key in ("working", "against"):
            if key in entry:
                entry[key]["seconds"] = statistics.median(entry[key]["seconds"])
    both = {name: (e["working"], e["against"]) for name, e in per.items() if "against" in e}
    rises = [name for name, (w, a) in both.items() if w["nodes"] > a["nodes"]]
    changes = [name for name, (w, a) in both.items() if any(w[key] != a[key] for key in COUNTERS[1:])]
    return {
        "graphs": per, "mismatches": sorted(mismatches), "node_rises": sorted(rises), "counter_changes": sorted(changes)
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="also solve with this git revision's src")
    parser.add_argument("--rounds", type=int, default=3, help="fresh processes per side (default 3)")
    parser.add_argument("--sizes", type=int, nargs="+", default=[100, 120, 140, 160])
    parser.add_argument("--output", help="JSON file to write (default stdout)")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker(args)
        return 0
    if args.rounds < 1:
        parser.error("--rounds must be positive")
    commit = _git("rev-parse", "HEAD")
    against = _git("rev-parse", "--verify", f"{args.against}^{{commit}}") if args.against else None
    if args.against and against is None:
        parser.error(f"--against {args.against}: " + ("no git work tree here" if commit is None else "no such revision"))

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        sides = [("working", ROOT)]
        if against:
            _unpack(against, Path(tmp))
            sides.append(("against", Path(tmp)))
        for r in range(args.rounds):
            for side, tree in sides[r % 2:] + sides[:r % 2]:
                runs.append({"side": side, "round": r, "graphs": _run_side(tree, args)})
    report = {
        # "dirty": the working tree's src differs from its commit; both null outside a work tree
        "revision": {"commit": commit, "dirty": commit and bool(_git("status", "--porcelain", "--", "src"))},
        "against": against,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **_summary(runs),
        "runs": runs,
    }
    text = json.dumps(report, indent=1) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    if report["node_rises"]:
        print(f"more nodes than {args.against} on {', '.join(report['node_rises'])}", file=sys.stderr)
    if report["counter_changes"]:
        changed = ", ".join(report["counter_changes"])
        print(f"bound_prunes, bound_conflicts or full_sweeps differ from {args.against} on {changed}", file=sys.stderr)
    if report["mismatches"]:
        print(f"alpha, witness or counters differ on {', '.join(report['mismatches'])}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
