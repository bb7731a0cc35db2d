"""Seeded stdlib graph generators for the benchmark.

Every generator takes a ``random.Random`` and returns ``(n, edges)`` with
0-based ids and each edge as ``(u, v)`` with ``u < v``; the same seed gives
the same graph.  Sizes are chosen by the workloads so that the reduced
graph's vertex count is fixed by ``n`` and ``len(edges)``.
"""

from __future__ import annotations

import random
from typing import List, Tuple

Edges = List[Tuple[int, int]]


def _key(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


def max_degree_graph(rng: random.Random, n: int, m: int, d: int) -> Tuple[int, Edges]:
    """Sparse random simple graph with exactly ``m`` edges and maximum
    degree at most ``d`` (edges drawn uniformly among vertices with spare
    degree).  ``m`` must stay well below ``n * d / 2``."""
    if m > n * d // 2:
        raise ValueError(f"{m} edges cannot fit under maximum degree {d} on {n} vertices")
    deg = [0] * n
    open_ids = list(range(n))  # vertices with degree < d
    pos = list(range(n))
    edges: set = set()
    tries = 0
    while len(edges) < m:
        tries += 1
        if tries > 100 * m + 1000:
            raise RuntimeError("max_degree_graph: sampling stalled; lower m")
        u, v = rng.choice(open_ids), rng.choice(open_ids)
        if u == v or _key(u, v) in edges:
            continue
        edges.add(_key(u, v))
        for w in (u, v):
            deg[w] += 1
            if deg[w] == d:  # swap-remove w from the open list
                last = open_ids[-1]
                open_ids[pos[w]] = last
                pos[last] = pos[w]
                open_ids.pop()
    return n, sorted(edges)


def _pair_stubs(rng: random.Random, stubs: List[int]) -> Edges:
    """Configuration model: pair shuffled stubs, then repair self-loops and
    multi-edges by random double-edge switches.  Pairs that cannot be
    repaired are dropped, so a few vertices may end below their stub count."""
    rng.shuffle(stubs)
    pairs = [[stubs[i], stubs[i + 1]] for i in range(0, len(stubs) - 1, 2)]
    seen: dict = {}
    for i, (u, v) in enumerate(pairs):
        seen.setdefault(_key(u, v), []).append(i)

    def bad(i: int) -> bool:
        u, v = pairs[i]
        return u == v or len(seen[_key(u, v)]) > 1

    def move(i: int, u: int, v: int) -> None:
        old = seen[_key(*pairs[i])]
        old.remove(i)
        if not old:
            del seen[_key(*pairs[i])]
        pairs[i] = [u, v]
        seen.setdefault(_key(u, v), []).append(i)

    for i in range(len(pairs)):
        for _ in range(50):
            if not bad(i):
                break
            j = rng.randrange(len(pairs))
            (a, b), (c, e) = pairs[i], pairs[j]
            if a == c or b == e or _key(a, c) == _key(b, e):
                continue
            if _key(a, c) in seen or _key(b, e) in seen:
                continue
            move(i, a, c)
            move(j, b, e)
    return sorted({_key(u, v) for u, v in pairs if u != v})


def near_regular_graph(rng: random.Random, n: int, d: int, deficient: int) -> Tuple[int, Edges]:
    """Pairing-model graph that is ``d``-regular except ``deficient``
    vertices with one stub fewer (plus any pair the switches could not
    repair).  ``n * d - deficient`` must be even."""
    if (n * d - deficient) % 2:
        raise ValueError("stub count must be even")
    short = set(rng.sample(range(n), deficient))
    stubs = [v for v in range(n) for _ in range(d - (v in short))]
    return n, _pair_stubs(rng, stubs)


def cubic_graph(rng: random.Random, n: int) -> Tuple[int, Edges]:
    """Simple random 3-regular graph on ``n`` (even) vertices; pairings that
    leave a vertex short are redrawn, so the result is exactly cubic."""
    if n % 2 or n < 4:
        raise ValueError("a cubic graph needs an even n >= 4")
    while True:
        edges = _pair_stubs(rng, [v for v in range(n) for _ in range(3)])
        if len(edges) * 2 == 3 * n:
            return n, edges


def planar_grid_graph(
    rng: random.Random, rows: int, cols: int, diagonals: int, cap: int = 5
) -> Tuple[int, Edges]:
    """Grid plus up to ``diagonals`` cell diagonals, cells in seeded order,
    each in a random direction and only where both endpoints stay at degree
    ``cap`` or below.  At most one diagonal per cell keeps the graph planar."""
    n = rows * cols
    vid = lambda r, c: r * cols + c  # noqa: E731
    edges = set()
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.add((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.add((vid(r, c), vid(r + 1, c)))
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    cells = [(r, c) for r in range(rows - 1) for c in range(cols - 1)]
    rng.shuffle(cells)
    added = 0
    for r, c in cells:
        if added == diagonals:
            break
        if rng.random() < 0.5:
            u, v = vid(r, c), vid(r + 1, c + 1)
        else:
            u, v = vid(r, c + 1), vid(r + 1, c)
        if deg[u] < cap and deg[v] < cap:
            edges.add(_key(u, v))
            deg[u] += 1
            deg[v] += 1
            added += 1
    return n, sorted(edges)


def dimacs(n: int, edges: Edges) -> str:
    lines = [f"p edge {n} {len(edges)}"] + [f"e {u + 1} {v + 1}" for u, v in edges]
    return "\n".join(lines) + "\n"
