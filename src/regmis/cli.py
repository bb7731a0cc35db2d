"""Command-line front end.

Exit codes: 0 success / verification pass, 1 verification fail or
infeasible request, 2 malformed input or a file that cannot be opened,
3 solver budget exhausted.  A run builds only the parser of the command
it names; no command, an unknown one and unrecognized arguments go
through the full parser, so every usage and error text is its own.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from typing import ContextManager, Optional, Sequence, TextIO

from . import gadgets
from .graph import Graph, GraphError, InfeasibleError, SortedEdges, triangle_count
from .io import FORMATS, int_parser, parse_edges, parse_graph, serialize_graph, sniff_format, sorted_ends, text_chunks
from .reduction import ReductionCertificate, plan_reduction, recover_canonical, recover_edges
from .solvers import ResourceLimitError, SolverLimits, solve_mis
from .verify import verify_canonical, verify_edges

EXIT_OK, EXIT_FAIL, EXIT_INPUT, EXIT_BUDGET = 0, 1, 2, 3


def _read_text(path: str) -> str:
    """The file at ``path`` as UTF-8 text; other bytes are an input error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _read_edges(path: str, fmt: str) -> SortedEdges:
    """G, kept with its text for G' to copy."""
    return parse_edges(_read_text(path), _format(path, fmt))


def _read_reduced(path: str, fmt: str) -> SortedEdges:
    """G', hashed a run at a time, and no text kept."""
    return SortedEdges.hashed(*sorted_ends(_read_text(path), _format(path, fmt)))


def _format(path: str, fmt: str) -> str:
    return fmt if fmt != "auto" else sniff_format(path)


def _read_solution(path: str) -> list[int]:
    """One ASCII decimal vertex id per non-blank line, read in one pass over
    the text a chunk of lines at a time, so no list of every line is held.
    A fault is looked for only in its chunk, whose lines follow the
    ``before`` lines of the chunks ahead of it."""
    text, ids, before = _read_text(path), [], 0
    to_int = int_parser(text)
    for chunk in text_chunks(text):  # chunks end where lines do
        lines = chunk.splitlines()
        try:
            ids += map(to_int, filter(str.strip, lines))
        except ValueError:
            for lineno, line in enumerate(lines, before + 1):
                try:
                    if line.strip():
                        to_int(line)
                except ValueError as exc:
                    raise GraphError(f"line {lineno}: expected one vertex id, got {line!r}") from exc
        before += len(lines)
    return ids


def _output(path: Optional[str]) -> ContextManager[TextIO]:
    """The text file at ``path`` opened for writing, or stdout (left open)."""
    return nullcontext(sys.stdout) if path is None or path == "-" else open(path, "w")


def _write(path: Optional[str], text: str) -> None:
    with _output(path) as out:
        out.write(text)


def _print_ids(doc: dict, key: str) -> None:
    """``print(json.dumps(doc, indent=2))``, the int list ``doc[key]`` spliced
    into the text of ``doc`` with that list empty, as the encoder lays it out."""
    ids = ",\n    ".join(map(str, doc[key]))
    text = json.dumps({**doc, key: []}, indent=2)
    print(text.replace(f'"{key}": []', f'"{key}": [\n    {ids}\n  ]', 1) if ids else text)


def _limits(args: argparse.Namespace) -> SolverLimits:
    return SolverLimits(
        node_budget=getattr(args, "budget_nodes", None),
        time_budget=getattr(args, "budget_secs", None),
    )


def _cmd_regularize(args: argparse.Namespace) -> int:
    """G is read as its sorted edges, and G' is written from the plan as it
    is rendered; neither is built.  A rejected request opens no output."""
    if args.planar and args.strict:
        raise GraphError("--strict applies to --degree only; the planar pipeline never parity-fixes")
    plan = plan_reduction(_read_edges(args.input, args.format), args.degree, args.planar, args.strict)
    with _output(args.output) as out:
        cert = plan.write(out, args.out_format)
    _write(args.cert, cert.to_json())
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    g = parse_graph(_read_text(args.input), _format(args.input, args.format))
    start = time.monotonic()
    result = solve_mis(g, _limits(args), args.method)
    doc = {
        "alpha": result.alpha,
        "witness": sorted(result.witness),
        "nodes": result.nodes_explored,
        "millis": round((time.monotonic() - start) * 1000, 3),
        "method": result.method,
        "stats": result.stats,
    }
    _print_ids(doc, "witness")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    """G is read as its sorted edges and G' compared with its regeneration
    unparsed; a G' that is not the canonical text is read as its sorted
    edges and compared with the model's.  No graph is built but for the
    oracle.  Input faults are reported in the order G, G', certificate, budget."""
    g = _read_edges(args.graph, args.format)
    with open(args.reduced, "rb") as reduced:
        try:
            cert = ReductionCertificate.from_json(_read_text(args.cert))
            limits = _limits(args)
        except (GraphError, OSError, ValueError):
            _read_reduced(args.reduced, args.format)  # a fault of G' comes first
            raise
        report = verify_canonical(g, reduced, _format(args.reduced, args.format), cert, args.with_oracle, limits)
    if report is None:
        report = verify_edges(g, _read_reduced(args.reduced, args.format), cert, args.with_oracle, limits)
    print(report.to_json(), end="")
    return EXIT_OK if report.overall == "pass" else EXIT_FAIL


def _cmd_recover(args: argparse.Namespace) -> int:
    """G' is read once as canonical text; a file that is not canonical text
    is read as its sorted edges.  G' is never built.  Input faults are
    reported in the order G', certificate, solution."""
    with open(args.reduced, "rb") as reduced:
        try:
            cert = ReductionCertificate.from_json(_read_text(args.cert))
            ids = _read_solution(args.solution)
        except (GraphError, OSError, ValueError):
            _read_reduced(args.reduced, args.format)  # a fault of G' comes first
            raise
        recovered = recover_canonical(reduced, _format(args.reduced, args.format), ids, cert)
    if recovered is None:
        recovered = recover_edges(_read_reduced(args.reduced, args.format), ids, cert)
    input_size = len(set(ids))
    doc = {
        "recovered": sorted(recovered),
        "recovered_size": len(recovered),
        "input_size": input_size,
        "offset": cert.total_offset,
        "size_bound_met": len(recovered) >= input_size - cert.total_offset,
    }
    _print_ids(doc, "recovered")
    return EXIT_OK if doc["size_bound_met"] else EXIT_FAIL


def _cmd_gadget(args: argparse.Namespace) -> int:
    delta = args.delta
    if args.kind == gadgets.GENERAL and delta is None:
        raise GraphError("the general gadget needs --delta")
    g, layout = gadgets.build_gadget(args.kind, delta)
    _write(args.output, serialize_graph(g, args.out_format))
    doc = {
        "kind": layout.kind,
        "delta": layout.delta,
        "port": layout.port,
        "internal_alpha": layout.internal_alpha,
        "roles": {str(v): r for v, r in enumerate(layout.roles)},
        "alpha_report": gadgets.alpha_report(layout.kind, layout.delta),
    }
    _write(args.roles, json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    """G is read as its sorted edges, which are not hashed, and only its
    vertices with edges make a graph, for the triangles; nothing is built
    per isolated vertex."""
    n, ends = sorted_ends(_read_text(args.input), _format(args.input, args.format))
    degree = Counter(ends)
    histogram = Counter(degree.values())
    if n > len(degree):
        histogram[0] = n - len(degree)
    ids = {v: i for i, v in enumerate(sorted(degree))}  # in id order, so the edges stay sorted
    core = Graph.from_sorted(len(ids), map(ids.__getitem__, ends))
    doc = {
        "n": n,
        "m": len(ends) // 2,
        "max_degree": max(degree.values(), default=0),
        "degree_histogram": {str(d): c for d, c in sorted(histogram.items())},
        "triangles": triangle_count(core),
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


_COMMANDS = {
    "regularize": (_cmd_regularize, "transform a graph into a regular one"),
    "solve": (_cmd_solve, "exact maximum independent set"),
    "verify": (_cmd_verify, "check a reduction against its certificate"),
    "recover": (_cmd_recover, "map a reduced-graph solution back to the source"),
    "gadget": (_cmd_gadget, "dump a gadget and its role map"),
    "stats": (_cmd_stats, "basic instance statistics"),
}


def _add_arguments(command: str, p: argparse.ArgumentParser) -> None:
    """Define ``command``'s arguments on ``p``, its parser."""
    if command in ("regularize", "solve", "stats"):
        p.add_argument("input", help="graph file (- reads nothing; use a path)")
        p.add_argument("--format", choices=("auto",) + FORMATS, default="auto")
    if command == "regularize":
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--degree", type=int, help="odd target degree")
        group.add_argument("--planar", action="store_true", help="5-regular planar pipeline")
        p.add_argument(
            "--strict", action="store_true",
            help="with --degree, reject even-maximum-degree inputs instead of parity-fixing",
        )
        p.add_argument("--output", help="reduced graph output path (default stdout)")
        p.add_argument("--cert", help="certificate JSON output path")
        p.add_argument("--out-format", choices=FORMATS, default="dimacs-col")
    elif command == "solve":
        p.add_argument("--method", choices=("auto", "brute", "bb"), default="auto")
    elif command == "verify":
        p.add_argument("--graph", required=True)
        p.add_argument("--reduced", required=True)
        p.add_argument("--cert", required=True)
        p.add_argument("--format", choices=("auto",) + FORMATS, default="auto")
        p.add_argument("--with-oracle", action="store_true")
    elif command == "recover":
        p.add_argument("--reduced", required=True)
        p.add_argument("--cert", required=True)
        p.add_argument("--solution", required=True, help="newline-separated 0-indexed vertex ids")
        p.add_argument("--format", choices=("auto",) + FORMATS, default="auto")
    elif command == "gadget":
        p.add_argument("--kind", choices=(gadgets.GENERAL, gadgets.PLANAR5, gadgets.ICOSA), default=gadgets.GENERAL)
        p.add_argument("--delta", type=int, help="odd target degree (general gadget)")
        p.add_argument("--out-format", choices=FORMATS, default="edge-list")
        p.add_argument("--output", help="graph output path (default stdout)")
        p.add_argument("--roles", help="role map JSON output path (default stdout)")
    if command in ("solve", "verify"):  # brute force's one limit is its 26-vertex cap
        p.add_argument("--budget-nodes", type=int, help="search nodes for branch and bound; brute force ignores it")
        p.add_argument("--budget-secs", type=float, help="seconds for branch and bound; brute force ignores it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regmis",
        description="Degree-regularizing reductions for maximum independent set, "
        "with certificates, exact solvers, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary) in _COMMANDS.items():
        _add_arguments(command, sub.add_parser(command, help=summary))
    return parser


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building only the named
    command's parser unless the full one is needed for its usage or error."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"regmis {argv[0]}")
        _add_arguments(argv[0], parser)
        args, rest = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:  # else the full parser reports them as unrecognized
            return args
    return build_parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimitError as exc:
        print(f"error: {exc} (best lower bound {exc.best_so_far})", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
