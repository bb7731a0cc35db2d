from __future__ import annotations

import functools
import random
import re
from itertools import combinations

from regmis import gadgets
from regmis.graph import Graph, GraphError, is_independent_set
from regmis.solvers import SolveResult


def empty_graph(n: int) -> Graph:
    return Graph.from_edges(n, [])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; ``g2``'s vertex ids are shifted up by ``g1.n``."""
    shifted = tuple(tuple(w + g1.n for w in a) for a in g2.adjacency)
    return Graph(g1.n + g2.n, g1.adjacency + shifted)


def fresh_alpha_cache(monkeypatch) -> None:
    """Empty gadget-alpha and gadget-build caches for one test, so that no
    value solved or built on a patched builder outlives it, or is read from
    before it."""
    for name in ("_exact_alpha", "_built"):
        monkeypatch.setattr(gadgets, name, functools.cache(getattr(gadgets, name).__wrapped__))


def check_result(g: Graph, result: SolveResult) -> None:
    """Assert the witness is independent and matches the reported size."""
    if len(result.witness) != result.alpha:
        raise AssertionError("witness size disagrees with alpha")
    if not is_independent_set(g, result.witness):
        raise AssertionError("witness is not independent")


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_graph_max_degree(rng: random.Random, n: int, dmax: int, p: float = 0.5) -> Graph:
    """Random graph whose maximum degree never exceeds dmax."""
    candidates = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(candidates)
    deg = [0] * n
    edges = []
    for u, v in candidates:
        if deg[u] < dmax and deg[v] < dmax and rng.random() < p:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph.from_edges(n, edges)


def sparse_max_degree_graph(rng: random.Random, n: int, m: int, dmax: int) -> Graph:
    """``m`` random edges on ``n`` vertices, none raising a degree past ``dmax``."""
    deg = [0] * n
    edges: set = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u != v and deg[u] < dmax and deg[v] < dmax and key not in edges:
            edges.add(key)
            deg[u] += 1
            deg[v] += 1
    return Graph.from_edges(n, sorted(edges))


def random_cubic_graph(rng: random.Random, n: int) -> Graph:
    """Random simple 3-regular graph on ``n`` (even) vertices by the pairing
    model: pair up three points per vertex at random and start over while
    the pairing has a loop or a repeated edge."""
    if n % 2:
        raise ValueError(f"a cubic graph needs an even vertex count, got {n}")
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges: set = set()
        for u, v in zip(points[::2], points[1::2]):
            key = (min(u, v), max(u, v))
            if u == v or key in edges:
                break
            edges.add(key)
        else:
            return Graph.from_edges(n, sorted(edges))


def grid_with_diagonals(rng: random.Random, side: int, cap: int = 5) -> Graph:
    """``side`` x ``side`` grid plus at most one diagonal per cell (cells in
    seeded order, random direction), kept only while both endpoints stay at
    degree ``cap`` or below; planar by construction."""
    vid = lambda r, c: r * side + c  # noqa: E731
    edges = [(vid(r, c), vid(r, c + 1)) for r in range(side) for c in range(side - 1)]
    edges += [(vid(r, c), vid(r + 1, c)) for r in range(side - 1) for c in range(side)]
    deg = [0] * side * side
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    cells = [(r, c) for r in range(side - 1) for c in range(side - 1)]
    rng.shuffle(cells)
    for r, c in cells:
        if rng.random() < 0.5:
            u, v = vid(r, c), vid(r + 1, c + 1)
        else:
            u, v = vid(r, c + 1), vid(r + 1, c)
        if deg[u] < cap and deg[v] < cap:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph.from_edges(side * side, edges)


def alpha_by_enumeration(g: Graph) -> int:
    """Dead-simple independent oracle: try subsets largest first."""
    for size in range(g.n, -1, -1):
        for comb in combinations(range(g.n), size):
            if is_independent_set(g, comb):
                return size
    return 0


def all_maximum_independent_sets(g: Graph) -> list[frozenset[int]]:
    """Every maximum independent set, by full subset enumeration."""
    best = -1
    out: list[frozenset[int]] = []
    for mask in range(1 << g.n):
        s = [v for v in range(g.n) if mask >> v & 1]
        if not is_independent_set(g, s):
            continue
        if len(s) > best:
            best = len(s)
            out = [frozenset(s)]
        elif len(s) == best:
            out.append(frozenset(s))
    return out


# one deviation each from canonical graph text (regmis.io); "m-1"/"m+1"
# and "p-col" apply to DIMACS only
TEXT_EDITS = (
    "swap", "duplicate", "reverse", "digit", "leading-zero", "plus", "non-ascii-digit", "comment",
    "blank", "trailing-space", "crlf", "p-col", "n-1", "n+1", "m-1", "m+1", "no-final-newline",
)


def edit_canonical(text: str, fmt: str, edit: str, index: int) -> str:
    """Canonical ``fmt`` text with one ``edit`` at a place ``index`` picks;
    unchanged when the text has no place for the edit.  Some edits keep
    the graph (a comment, CRLF, a swap), others change it or make the
    text malformed."""
    lines = text.splitlines(keepends=True)
    edges = len(lines) - 1
    if edit == "swap" and edges >= 2:
        i = 1 + index % (edges - 1)
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    elif edit == "duplicate" and edges:
        i = 1 + index % edges
        lines.insert(i, lines[i])
    elif edit == "reverse":
        lines[1:] = reversed(lines[1:])
    elif edit in ("digit", "leading-zero", "plus", "non-ascii-digit"):
        spans = [m.span() for m in re.finditer(r"\d+", text)]
        a, b = spans[index % len(spans)]
        last = int(text[b - 1])
        new = {
            "digit": text[a : b - 1] + str((last + 1) % 10),
            "leading-zero": "0" + text[a:b],
            "plus": "+" + text[a:b],
            "non-ascii-digit": text[a : b - 1] + chr(0x0660 + last),  # the same value in Arabic-Indic
        }[edit]
        return text[:a] + new + text[b:]
    elif edit in ("comment", "blank"):
        comment = "c a comment\n" if fmt == "dimacs-col" else "# a comment\n"
        lines.insert(index % (len(lines) + 1), comment if edit == "comment" else "\n")
    elif edit == "trailing-space":
        i = index % len(lines)
        lines[i] = lines[i][:-1] + " \n"
    elif edit == "crlf":
        return text.replace("\n", "\r\n")
    elif edit == "p-col":
        return text.replace("p edge", "p col", 1)
    elif edit in ("n-1", "n+1", "m-1", "m+1"):
        step = 1 if edit[1] == "+" else -1
        words = lines[0].split()
        if fmt == "dimacs-col":
            at = 2 if edit[0] == "n" else 3
            words[at] = str(int(words[at]) + step)
            lines[0] = " ".join(words) + "\n"
        elif edit[0] == "n":
            lines[0] = f"# n={int(words[1][2:]) + step}\n"
    elif edit == "no-final-newline":
        return text[:-1]
    return "".join(lines)
