"""Benchmark for regmis: regularize -> verify -> recover, and the exact solvers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; regmis is imported from ``src/``.
Inputs are generated from ``--seed`` with the stdlib (``gen.py``) and
written as DIMACS files to a temporary directory under ``.perfbench/``.
Every command goes through ``regmis.cli.main`` in this one process: one
caller, closed loop, no threads.  The loop makes as many instances as
fill ``--seconds`` at the workload's measured pace, a count fixed before
the run.  Every output is checked (``checks.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each input
twice, once plain and once with spans around the library's public
functions (``spans.py``), alternating which goes first, then calls the
library functions that the command line does not reach ("probes"); it
prints per-layer self times and counts.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Per-instance
result hashes, failures and (traced) spans go to ``.perfbench/out/``.

Workloads, metrics and the layer map are described in ``README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
from checks import GENERAL, PLANAR  # noqa: E402
from spans import LAYER_SPANS, Tracer, self_times  # noqa: E402

SETUP_REPEATS = 5
SOLVER_BUDGET = ["--budget-secs", "30"]
PIPELINE = ("regularize", "verify", "recover")

# The one open defect the forgery set is known to hit: the verifier never
# compares per_gadget_alpha with the gadget's exact alpha, so a certificate
# that raises it and total_offset together passes.  Its acceptance is
# counted in ``failed``; any other failure also makes ``correct`` false.
KNOWN_DEFECT = "forgery per_gadget_alpha accepted"


# ---------------------------------------------------------------------------
# in-process command runner


@dataclass
class Call:
    command: str
    shape: str  # which kind of input, e.g. "general-odd-5" or "cubic-140"
    seconds: float
    vertices: int  # reduced-graph vertices the call handled (0 if none)


@dataclass
class Session:
    """Runs regmis commands through ``cli.main`` and keeps the record."""

    main: Callable
    tmp: Path
    tracer: Optional[Tracer] = None  # spans around each command when set
    shape: str = ""  # the input the next calls belong to
    calls: List[Call] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    forgeries_attempted: int = 0
    forgeries_rejected: int = 0

    def path(self, name: str) -> str:
        return str(self.tmp / name)

    def write(self, name: str, text: str) -> str:
        path = self.path(name)
        Path(path).write_text(text)
        return path

    def run(
        self, command: str, argv: List[str], vertices: int = 0, expect: Optional[int] = 0
    ) -> Tuple[Optional[int], str]:
        """One command; a traceback, or an exit code other than ``expect``
        when that is given, is a failure."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if self.tracer is None:
                    code = self.main([command] + argv)
                else:
                    with self.tracer.span("cli." + command):
                        code = self.main([command] + argv)
        except Exception:  # a traceback is a failure of the command, not of the run
            code = None
            err.write(traceback.format_exc())
        self.calls.append(Call(command, self.shape, time.perf_counter() - start, vertices))
        if code is None:
            self.fail(f"{command}: traceback: {err.getvalue().strip().splitlines()[-1]}")
        elif expect is not None and code != expect:
            self.fail(f"{command}: exit {code}: {err.getvalue().strip()[:200]}")
        return code, out.getvalue()

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    def expect(self, ok: bool, reason: str) -> None:
        if not ok:
            self.fail(reason)

    def read_json(self, text: str, what: str) -> Optional[dict]:
        try:
            return json.loads(text)
        except ValueError:
            self.fail(f"{what}: output is not JSON: {text[:100]!r}")
            return None

    def library(self, label: str, fn: Callable, ok: Callable) -> None:
        """One library call made by a probe, judged by ``ok(result)``."""
        self.attempted += 1
        try:
            result = fn()
        except Exception as exc:  # a raise is a failed operation, not a failed run
            self.fail(f"probe {label}: {exc!r}")
            return
        self.expect(ok(result), f"probe {label}: unexpected result {str(result)[:120]}")


# ---------------------------------------------------------------------------
# the command sequences


@dataclass
class Reduction:
    """A source graph to push through regularize -> verify -> recover."""

    kind: str
    degree: int
    n: int
    edges: gen.Edges
    forgery: Optional[str] = None  # forged certificate to verify as well
    # filled in by the pipeline
    reduced: Optional[Tuple[int, gen.Edges]] = None
    cert: Optional[dict] = None
    solution: Optional[List[int]] = None

    @property
    def shape(self) -> str:
        return f"{self.kind}-{self.degree}"


@dataclass
class Solve:
    """A graph for ``solve``; with two methods the answers are compared."""

    label: str
    methods: Tuple[str, ...]
    n: int
    edges: gen.Edges


def solve(session: Session, path: str, method: str, n: int, edges: gen.Edges, what: str) -> Optional[dict]:
    code, out = session.run("solve", [path, "--method", method] + SOLVER_BUDGET)
    doc = session.read_json(out, what) if code == 0 else None
    if doc is None:
        return None
    witness = doc.get("witness", [])
    session.expect(
        len(set(witness)) == doc.get("alpha") and checks.is_independent(checks.adjacency(n, edges), witness),
        f"{what}: witness is not an independent set of size alpha",
    )
    return doc


def forge(cert: dict, how: str) -> dict:
    """A certificate whose own arithmetic still adds up, with one claim
    changed.  The hashes stay valid, so only a semantic check rejects it."""
    doc = json.loads(json.dumps(cert))
    if how == "per_gadget_alpha":
        doc["per_gadget_alpha"] += 1
        doc["total_offset"] += len(doc["gadgets"])
    elif how == "owner_swap":
        first = doc["gadgets"][0]
        other = next(g for g in doc["gadgets"] if g["owner"] != first["owner"])
        first["owner"], other["owner"] = other["owner"], first["owner"]
    elif how == "step_offset":
        doc["steps"][0]["alpha_offset"] += 1
        doc["total_offset"] += 1
    else:
        raise ValueError(how)
    return doc


def pipeline(session: Session, r: Reduction, oracle: bool) -> None:
    """regularize -> verify (-> verify a forgery) -> recover on one source.
    With ``oracle`` the verify solves both sides, and the solution handed
    to recover is an exact one of the reduced graph; otherwise it is a
    greedy maximal independent set."""
    session.shape = r.shape
    src = session.write("g.col", gen.dimacs(r.n, r.edges))
    red, cert_path = session.path("gp.col"), session.path("cert.json")
    flags = ["--planar"] if r.kind == PLANAR else ["--degree", str(r.degree)]
    vprime = checks.expected_reduction(r.n, r.edges, r.kind, r.degree)["vprime"]

    code, _ = session.run("regularize", [src, *flags, "--output", red, "--cert", cert_path], vprime)
    cert = session.read_json(Path(cert_path).read_text(), "certificate") if code == 0 else None
    if cert is None:
        return
    problems, reduced = checks.reduction_problems(
        r.n, r.edges, r.kind, r.degree, Path(red).read_text(), cert
    )
    for p in problems:
        session.fail(f"regularize {r.shape}: {p}")
    if reduced is None:
        return
    r.reduced, r.cert = reduced, cert

    oracle_flags = ["--with-oracle"] + SOLVER_BUDGET if oracle else []
    code, out = session.run(
        "verify", ["--graph", src, "--reduced", red, "--cert", cert_path] + oracle_flags, vprime
    )
    report = session.read_json(out, "verify") if code == 0 else None
    if report is not None:
        session.expect(report.get("overall") == "pass", f"verify {r.shape}: honest certificate fails")
        if oracle:
            status = {c["name"]: c["status"] for c in report.get("checks", [])}
            session.expect(status.get("alpha-relation") == "pass", "verify --with-oracle: alpha-relation not passed")

    if r.forgery:
        forged = session.write("forged.json", json.dumps(forge(cert, r.forgery)))
        session.forgeries_attempted += 1
        code, _ = session.run(
            "verify", ["--graph", src, "--reduced", red, "--cert", forged], vprime, expect=None
        )
        if code == 1:
            session.forgeries_rejected += 1
        elif code == 0:
            session.fail(f"forgery {r.forgery} accepted")
        elif code is not None:
            session.fail(f"forgery {r.forgery}: exit {code}, expected 1")

    source = None
    if oracle:
        solved = solve(session, red, "bb", *reduced, "solve reduced")
        source = solve(session, src, "brute", r.n, r.edges, "solve source")
        if solved is None or source is None:
            return
        session.expect(
            solved["alpha"] == source["alpha"] + cert["total_offset"],
            f"certified alpha: alpha'={solved['alpha']}, alpha={source['alpha']}, offset={cert['total_offset']}",
        )
        solution = solved["witness"]
    else:
        solution = checks.greedy_independent_set(checks.adjacency(*reduced))
    r.solution = solution
    sol = session.write("solution.txt", "".join(f"{v}\n" for v in solution))
    code, out = session.run("recover", ["--reduced", red, "--cert", cert_path, "--solution", sol], vprime)
    doc = session.read_json(out, "recover") if code == 0 else None
    if doc is not None:
        kept = sorted(v for v in solution if v < r.n)
        session.expect(doc.get("size_bound_met") is True, "recover: size bound not met")
        session.expect(doc.get("recovered") == kept, "recover: result is not the solution's original vertices")
        if source is not None:
            session.expect(len(kept) == source["alpha"], "recover: an optimal solution did not map to an optimal one")


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Instance:
    index: int
    reductions: List[Reduction]
    solves: List[Solve] = field(default_factory=list)


class Workload:
    name = ""
    oracle = False  # verify --with-oracle; recover an exact solution
    # Wall seconds one full-size instance takes, its set-up included,
    # (plain, traced), on a 2-vCPU shared x86-64 host with CPython 3.11.
    pace: Tuple[float, float]

    def __init__(self, scale: str = "full") -> None:
        self.full = scale == "full"

    def instance(self, rng: random.Random, index: int) -> Instance:
        raise NotImplementedError

    def execute(self, session: Session, inst: Instance) -> None:
        for s in inst.solves:
            session.shape = s.label
            path = session.write("solve.col", gen.dimacs(s.n, s.edges))
            docs = [solve(session, path, m, s.n, s.edges, f"solve {s.label} {m}") for m in s.methods]
            if len(docs) == 2 and all(docs):
                session.expect(
                    docs[0]["alpha"] == docs[1]["alpha"],
                    f"solve {s.label}: {s.methods[0]} alpha {docs[0]['alpha']} "
                    f"!= {s.methods[1]} {docs[1]['alpha']}",
                )
        for r in inst.reductions:
            pipeline(session, r, self.oracle)

    def warmup(self) -> Instance:
        """The smallest input of every shape, without forgeries."""
        inst = type(self)("smoke").instance(random.Random(0), 0)
        for r in inst.reductions:
            r.forgery = None
        return inst


class GadgetHeavy(Workload):
    """Each instance: a random max-degree-3 graph to degree 5 (general
    gadget) and a grid-with-diagonals planar graph (planar gadget), each
    verify of an honest certificate followed by one of a forged one.  One of
    the two forgeries per instance is the per_gadget_alpha one, alternating
    between the gadget kinds; the other is one the verifier rejects."""

    name = "gadget-heavy"
    pace = (12.0, 26.0)

    def instance(self, rng: random.Random, index: int) -> Instance:
        general = gen.max_degree_graph(rng, *((180, 216) if self.full else (12, 14)), 3)
        planar = gen.planar_grid_graph(rng, *((30, 30, 320) if self.full else (3, 3, 2)))
        if index % 2 == 0:
            forgeries = ("per_gadget_alpha", "owner_swap")
        else:
            forgeries = (("owner_swap", "step_offset")[index // 2 % 2], "per_gadget_alpha")
        return Instance(index, [
            Reduction(GENERAL, 5, *general, forgeries[0]),
            Reduction(PLANAR, 5, *planar, forgeries[1]),
        ])


class NearRegular(Workload):
    """Pairing-model graphs, 5-regular but for ten one-short vertices."""

    name = "near-regular"
    pace = (3.0, 6.0)

    def instance(self, rng: random.Random, index: int) -> Instance:
        n, edges = gen.near_regular_graph(rng, 30_000 if self.full else 40, 5, 10)
        return Instance(index, [Reduction(GENERAL, 5, n, edges)])


class Oracle(Workload):
    """Each instance: bb on random cubic graphs of 120, 140 and 160
    vertices, bb and brute force on one 24-vertex graph, and a 14-vertex
    graph reduced to degree 5 and verified with the oracle."""

    name = "oracle"
    oracle = True
    pace = (1.6, 3.0)

    def instance(self, rng: random.Random, index: int) -> Instance:
        solves = [
            Solve(f"cubic-{n}", ("bb",), *gen.cubic_graph(rng, n))
            for n in ((120, 140, 160) if self.full else (8, 10, 12))
        ]
        pair = gen.max_degree_graph(rng, *((24, 40) if self.full else (10, 14)), 6)
        solves.append(Solve("pair", ("bb", "brute"), *pair))
        source = gen.max_degree_graph(rng, *((14, 17) if self.full else (8, 9)), 3)
        return Instance(index, [Reduction(GENERAL, 5, *source)], solves)


WORKLOADS = {w.name: w for w in (GadgetHeavy, NearRegular, Oracle)}


# ---------------------------------------------------------------------------
# probes: library functions the command line does not reach


def probe(session: Session, tracer: Tracer, index: int, r: Reduction) -> None:
    """Library-only calls on a source the pipeline has just reduced:
    forward_map, normalize and the sandwich check on it; port exclusion
    and the gadget's alpha by both solvers; and the alpha relation on the
    reduction of the source's first ten vertices.  The last runs for the
    general gadget only: branch and bound does not split components, and
    ten planar gadgets already exhaust a 10 s budget."""
    # modules, not names: the calls must resolve to the tracer's wrappers
    from regmis import gadgets, reduction, solvers, verify
    from regmis.graph import Graph

    if r.cert is None or r.solution is None:
        return
    g = Graph.from_edges(r.n, r.edges)
    gp = Graph.from_edges(*r.reduced)
    cert = reduction.ReductionCertificate.from_json(json.dumps(r.cert))
    members = checks.greedy_independent_set(checks.adjacency(r.n, r.edges))
    delta = r.degree if r.kind == GENERAL else None
    blueprint = gadgets.build_gadget(r.kind, delta)[0]
    limits = solvers.SolverLimits(time_budget=30)
    small = None
    if r.kind == GENERAL:
        k = min(r.n, 10)
        piece = Graph.from_edges(k, [(u, v) for u, v in r.edges if v < k])
        small = (piece, *reduction.reduce_to_regular(piece, r.degree))
    passed = lambda check: check.status == "pass"  # noqa: E731

    with tracer.installed(index), tracer.span("probe"):
        session.library(
            "forward_map",
            lambda: reduction.forward_map(g, members, cert),
            lambda lifted: len(lifted) == len(members) + cert.total_offset,
        )
        session.library(
            "normalize",
            lambda: reduction.normalize(gp, r.solution, cert),
            lambda out: len(out) >= len(set(r.solution)),
        )
        session.library("sandwich", lambda: verify.check_sandwich(g, gp, cert, members), passed)
        session.library("port-exclusion", lambda: verify.check_port_exclusion(r.kind, delta, limits), passed)
        for method in (solvers.mis_branch_bound, solvers.mis_bruteforce):
            session.library(
                f"{method.__name__} gadget alpha",
                lambda: method(blueprint).alpha,
                lambda alpha: alpha == checks.gadget_alpha(r.kind, r.degree),
            )
        if small is not None:
            session.library("alpha-relation", lambda: verify.check_alpha_relation(*small, limits), passed)


# ---------------------------------------------------------------------------
# set-up and the measured loop


def fresh_cli(tmp: Path, workload: Workload) -> Tuple[float, Session]:
    """Import regmis anew and push the smallest input of every shape the
    workload uses through it, so that lazy set-up (the gadget constants) is
    paid here.  Returns the program's time (the import plus the calls) and
    the session, whose ``main`` the measured calls then use."""
    warmup = workload.warmup()
    for name in [m for m in sys.modules if m == "regmis" or m.startswith("regmis.")]:
        del sys.modules[name]
    gc.collect()
    start = time.perf_counter()
    main = importlib.import_module("regmis.cli").main
    imported = time.perf_counter() - start
    session = Session(main, tmp)
    workload.execute(session, warmup)
    return imported + sum(c.seconds for c in session.calls), session


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=base))
    try:
        return measure(WORKLOADS[name](scale), tmp, seed, seconds, trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def instance_count(workload: Workload, seconds: float, trace: bool) -> int:
    """The number of instances that fill ``seconds`` at the workload's
    pace, at least one.  It is fixed before the run rather than read off
    the clock, so that every run of a seed makes the same operations and
    fails the same ones, however fast the host is at the moment."""
    return max(1, math.ceil(seconds / workload.pace[trace]))


def measure(workload: Workload, tmp: Path, seed: int, seconds: float, trace: bool) -> dict:
    """Closed loop: one instance after another, as many as
    ``instance_count`` gives.  Traced, each instance runs plain and under
    the tracer, the order alternating, and then through the probes.
    Set-up is timed a few times before the loop and again before every
    instance, so that its median samples the whole run rather than its
    first second."""
    setups: List[float] = []
    warmups: List[Session] = []

    def set_up() -> Callable:
        elapsed, session = fresh_cli(tmp, workload)
        setups.append(elapsed)
        warmups.append(session)
        return session.main

    for _ in range(SETUP_REPEATS):
        main = set_up()
    rng = random.Random(seed)
    tracer = Tracer() if trace else None
    plain, traced = Session(main, tmp), Session(main, tmp, tracer=tracer)
    totals: Dict[str, List[float]] = {"plain": [], "traced": []}
    rates: List[float] = []  # reduced vertices per second, per plain instance
    records: List[dict] = []
    for index in range(instance_count(workload, seconds, trace)):
        if index:
            plain.main = traced.main = set_up()
        inst = workload.instance(rng, index)
        gc.collect()
        passes = ("plain", "traced") if index % 2 == 0 else ("traced", "plain")
        for which in passes if trace else ("plain",):
            session = plain if which == "plain" else traced
            before = len(session.calls)
            with tracer.installed(index) if which == "traced" else contextlib.nullcontext():
                workload.execute(session, inst)
            totals[which].append(sum(c.seconds for c in session.calls[before:]))
            pipe = [c for c in session.calls[before:] if c.command in PIPELINE]
            if which == "plain" and pipe:
                rates.append(sum(c.vertices for c in pipe) / sum(c.seconds for c in pipe))
        for r in inst.reductions:
            if trace:
                probe(traced, tracer, index, r)
            records.append(reduction_record(index, r))

    sessions = [plain, traced] + warmups
    failures = [f for session in sessions for f in session.failures]
    attempted = sum(session.attempted for session in sessions)
    if trace:
        first = [rec for rec in records if rec["index"] == 0]
        metrics, accounting = layer_metrics(tracer, plain, traced, totals, first)
    else:
        metrics, accounting = end_to_end_metrics(plain, totals["plain"], rates, setups), {}
    return {
        "correct": all(f == KNOWN_DEFECT for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "_record": {
            "instances": records,
            "failures": failures,
            "accounting": accounting,
            "spans": tracer.spans if tracer else [],
        },
    }


def reduction_record(index: int, r: Reduction) -> dict:
    record = {"index": index, "shape": r.shape, "n": r.n, "m": len(r.edges)}
    if r.cert is not None:
        record.update(
            source_hash=r.cert["source_hash"],
            result_hash=r.cert["result_hash"],
            vprime=r.reduced[0],
            eprime=len(r.reduced[1]),
            gadgets=len(r.cert["gadgets"]),
        )
    return record


def per_shape_median(calls: List[Call]) -> float:
    """Median seconds per call within each input shape, averaged over the
    shapes, so that a mix of small and large inputs does not make the
    median jump between them."""
    by_shape: Dict[str, List[float]] = {}
    for c in calls:
        by_shape.setdefault(c.shape, []).append(c.seconds)
    return statistics.mean(statistics.median(v) for v in by_shape.values()) if by_shape else 0.0


def end_to_end_metrics(plain: Session, totals: List[float], rates: List[float], setups: List[float]) -> dict:
    pipe = [c for c in plain.calls if c.command in PIPELINE]
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "instance_s": (statistics.median(totals), "s"),
        **{
            f"{command}_s": (per_shape_median([c for c in pipe if c.command == command]), "s")
            for command in PIPELINE
        },
        "pipeline_kvps": (statistics.median(rates) / 1000 if rates else 0.0, "kvertex/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ops_ok_frac": (1 - len(plain.failures) / plain.attempted, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def layer_metrics(tracer: Tracer, plain: Session, traced: Session,
                  totals: Dict[str, List[float]], first: List[dict]) -> dict:
    """Seconds per instance for each span name: self time on the command
    line's path, plus the whole time of each probe call (what a probe call
    does inside is charged to it, so probes never inflate the command-line
    layers).  Counts come from the first instance, which the seed fixes."""
    count = len(totals["traced"])
    own: Dict[str, float] = dict.fromkeys(LAYER_SPANS, 0.0)
    cli = on_cli_path = 0.0
    spans = tracer.spans
    for i, (name, seconds, root, _) in enumerate(self_times(spans)):
        if spans[root][0] == "probe":
            if spans[i][3] == root:
                own[name] += spans[i][2] - spans[i][1]
        elif name.startswith("cli."):
            cli += seconds
        else:
            own[name] += seconds
            on_cli_path += seconds
    counts = tracer.counts[0]
    values = {f"{name}_s": (total / count, "s") for name, total in own.items()}
    values.update({
        "io.bytes": (counts["io.bytes"], "bytes"),
        "solvers.bb_nodes": (counts["solvers.bb_nodes"], "count"),
        "solvers.brute_nodes": (counts["solvers.brute_nodes"], "count"),
        **{f"reduction.{k}": (sum(rec.get(k, 0) for rec in first), "count") for k in ("vprime", "eprime", "gadgets")},
        "verify.forgeries_attempted": (plain.forgeries_attempted + traced.forgeries_attempted, "count"),
        "verify.forgeries_rejected": (plain.forgeries_rejected + traced.forgeries_rejected, "count"),
        "cli.overhead_s": (cli / count, "s"),
        "trace.overhead_s": ((sum(totals["traced"]) - sum(totals["plain"])) / count, "s"),
    })
    # plain = layers + cli - tracing overhead holds by construction; what
    # the record shows is how the plain time splits
    accounting = {
        "plain_s": sum(totals["plain"]) / count,
        "layers_on_cli_path_s": on_cli_path / count,
        "cli_s": cli / count,
        "trace_overhead_s": values["trace.overhead_s"][0],
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, accounting


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "regmis" / "cli.py").is_file():
        print(f"error: no regmis sources at {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record = result.pop("_record")
    out = ROOT / ".perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, **record, **result}) + "\n")
    for reason in sorted(set(record["failures"])):
        print(f"failure x{record['failures'].count(reason)}: {reason}", file=sys.stderr)
    if record["accounting"]:
        print("per instance: " + ", ".join(f"{k} {v:.4f}" for k, v in record["accounting"].items()))
    print(f"{len({r['index'] for r in record['instances']})} instances; hashes and failures in {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
