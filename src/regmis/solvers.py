"""Exact solvers: brute-force MIS, branch-and-bound MIS with reduction
rules, minimum vertex cover via complementation, and small-clique search.

Both MIS solvers are exact.  When a budget runs out they raise
:class:`ResourceLimitError` carrying the best lower bound found so far;
they never return an inexact value labeled exact.  ``node_budget`` and
``time_budget`` bound branch and bound; brute force has only its vertex cap.

Branch and bound reduces each node's kernel in two tiers: the cheap
degree-0, -1 and -2 rules until they fire nothing, then one sweep that
adds the twin and dominance tests, repeated until such a sweep fires
nothing.  A merged vertex keeps its original vertices as nested tuples,
joined into a witness only at a leaf that beats the best.  A disconnected
root kernel is searched one component at a time.

A node is pruned when its value plus a clique-cover bound cannot beat the
best.  An independent set takes at most one vertex per clique of a greedy
cover.  Unit propagation from each single-vertex clique {s} lowers the sum
of their heaviest weights: take s, let each taken vertex drop its
neighbors from their cliques, and take a vertex left alone in its clique.
When a clique empties, a set meeting every clique touched would hold s and
every vertex taken, so not that clique: it misses a touched clique, and
their least heaviest weight is subtracted.  The touched cliques are then
spent, skipped by later propagations, so the subtractions add up.

``SolveResult.stats`` holds the branch-and-bound search counters (the
brute-force solver leaves it empty): ``bound_prunes``, the nodes cut by
the bound; ``bound_conflicts``, the sets of cliques that propagation
proved cannot all contribute, summed over the search; ``max_depth``, the
deepest node (the root is 0); ``root_kernel``, the vertices left after
the root's reductions; ``full_sweeps``, the sweeps that ran the twin and
dominance tests; and ``fired``, firings per reduction rule keyed by the
names in ``RULES``.  They are counted when a sweep runs, a rule fires, a
conflict is found or a node is pruned, never per check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from .graph import Graph, GraphError


class ResourceLimitError(RuntimeError):
    """A solver budget (vertex cap, node count, wall clock) was exhausted."""

    def __init__(self, message: str, best_so_far: int = 0):
        super().__init__(message)
        self.best_so_far = best_so_far  # valid lower bound, not exact


MAX_BRUTE_N = 26  # brute force's vertex cap


@dataclass(frozen=True)
class SolverLimits:
    node_budget: Optional[int] = None
    time_budget: Optional[float] = None  # seconds

    def __post_init__(self) -> None:
        if self.node_budget is not None and self.node_budget <= 0:
            raise GraphError("node_budget must be positive")
        if self.time_budget is not None and not self.time_budget > 0:  # NaN too
            raise GraphError("time_budget must be positive")


@dataclass(frozen=True)
class SolveResult:
    alpha: int
    witness: FrozenSet[int]
    nodes_explored: int
    method: str  # "brute-force" | "branch-bound"
    stats: Dict[str, Any] = field(default_factory=dict)  # branch-bound counters


# ---------------------------------------------------------------------------
# brute force


def mis_bruteforce(g: Graph) -> SolveResult:
    """Exact MIS by include/exclude enumeration in fixed id order.

    Prunes only on the trivial remaining-vertex bound; deliberately shares
    no machinery with the branch-and-bound solver so the two can
    cross-check each other.
    """
    if g.n > MAX_BRUTE_N:
        raise ResourceLimitError(f"brute force capped at {MAX_BRUTE_N} vertices, got {g.n}")
    nbr_mask = [0] * g.n
    for u in range(g.n):
        for v in g.adjacency[u]:
            nbr_mask[u] |= 1 << v

    best = 0
    best_mask = 0
    nodes = 0

    def rec(idx: int, chosen: int, count: int, blocked: int) -> None:
        nonlocal best, best_mask, nodes
        nodes += 1
        if count + (g.n - idx) <= best:
            return
        if idx == g.n:
            if count > best:
                best, best_mask = count, chosen
            return
        if not blocked & (1 << idx):
            rec(idx + 1, chosen | (1 << idx), count + 1, blocked | nbr_mask[idx])
        rec(idx + 1, chosen, count, blocked)

    rec(0, 0, 0, 0)
    witness = frozenset(v for v in range(g.n) if best_mask & (1 << v))
    return SolveResult(best, witness, nodes, "brute-force")


# ---------------------------------------------------------------------------
# branch and bound on a weighted kernel
#
# Reduction rules (twin collapse, degree-2 folding) merge vertices, so the
# kernel is a weighted graph where each surviving vertex carries the
# original vertices to include when it is chosen ("inset") and when it is
# rejected ("outset").

RULES = ("isolated", "degree1", "degree2", "fold", "twin", "dominance")

# A nested tuple of original vertices: (v,) for v itself, else a tuple of
# nests.  Merges nest their parts instead of joining them.
_Nest = Tuple[Any, ...]


@dataclass(slots=True)
class _Kernel:
    """Weighted kernel of one search node.

    ``adj`` lists the vertices in ascending id order: ids are never reused,
    and a folded vertex takes the next unused id.  ``sets[v]`` is v's
    (inset, outset).  ``taken`` lists the insets of the vertices taken and
    the outsets of those rejected; ``_members`` joins them into one set."""

    adj: Dict[int, Set[int]]
    weight: Dict[int, int]
    sets: Dict[int, Tuple[_Nest, _Nest]]
    base: int
    taken: List[_Nest]
    next_id: int

    @staticmethod
    def from_graph(g: Graph) -> "_Kernel":
        return _Kernel(
            {v: set(g.adjacency[v]) for v in range(g.n)},
            dict.fromkeys(range(g.n), 1),
            {v: ((v,), ()) for v in range(g.n)},
            0,
            [],
            g.n,
        )

    def copy(self) -> "_Kernel":
        return _Kernel(
            {v: s.copy() for v, s in self.adj.items()},
            self.weight.copy(),
            self.sets.copy(),
            self.base,
            self.taken.copy(),
            self.next_id,
        )


def _members(taken: List[_Nest]) -> Set[int]:
    """The original vertices in ``taken``.  A stack, not recursion, walks
    the nests: a chain of folds nests as deep as it is long."""
    members: Set[int] = set()
    stack = list(taken)
    while stack:
        item = stack.pop()
        if type(item) is int:
            members.add(item)
        else:
            stack.extend(item)
    return members


def _take(k: _Kernel, v: int) -> None:
    """Include v, rejecting N(v)."""
    adj, weight, sets, taken = k.adj, k.weight, k.sets, k.taken
    nv = adj.pop(v)
    k.base += weight.pop(v)
    taken.append(sets.pop(v)[0])
    for u in nv:
        taken.append(sets.pop(u)[1])
        del weight[u]
        for x in adj.pop(u):
            if x != v and x not in nv:
                adj[x].discard(u)


def _reject(k: _Kernel, v: int) -> None:
    adj = k.adj
    k.taken.append(k.sets.pop(v)[1])
    del k.weight[v]
    for x in adj.pop(v):
        adj[x].discard(v)


def _fold(k: _Kernel, v: int, u: int, w: int) -> None:
    """Degree-2 fold: v with non-adjacent neighbors u, w collapses into one
    vertex; choosing it later means {u, w}, rejecting it means {v}."""
    adj, weight, sets = k.adj, k.weight, k.sets
    fid = k.next_id
    k.next_id += 1
    del adj[v]
    nu, nw = adj.pop(u), adj.pop(w)
    for x in nu:
        if x != v:
            adj[x].discard(u)
    for x in nw:
        if x != v:
            adj[x].discard(w)
    new_nbrs = nu | nw
    new_nbrs.discard(v)
    for x in new_nbrs:
        adj[x].add(fid)
    adj[fid] = new_nbrs
    wv = weight.pop(v)
    k.base += wv
    weight[fid] = weight.pop(u) + weight.pop(w) - wv
    (vi, vo), (ui, uo), (wi, wo) = sets.pop(v), sets.pop(u), sets.pop(w)
    sets[fid] = ((ui, wi, vo), (uo, wo, vi))


def _merge_twin(k: _Kernel, v: int, u: int) -> None:
    """Merge v into its non-adjacent twin u (same open neighborhood)."""
    adj, weight, sets = k.adj, k.weight, k.sets
    weight[u] += weight.pop(v)
    (vi, vo), (ui, uo) = sets.pop(v), sets[u]
    sets[u] = ((ui, vi), (uo, vo))
    for x in adj.pop(v):
        adj[x].discard(v)


def _low_degree(k: _Kernel, v: int, nv: Set[int], fired: Dict[str, int]) -> bool:
    """The rules for a vertex v of degree at most 2, ``nv`` its neighbors:
    take v if isolated; take a pendant v at least as heavy as its neighbor;
    take a degree-2 v if its neighbors are adjacent and v is at least as
    heavy as each, or if v outweighs both together, and else fold it if it
    is at least as heavy as each.  True if a rule fired."""
    weight = k.weight
    wv = weight[v]
    deg = len(nv)
    if deg == 0:
        _take(k, v)
        fired["isolated"] += 1
        return True
    if deg == 1:
        for u in nv:
            break
        if wv >= weight[u]:
            _take(k, v)
            fired["degree1"] += 1
            return True
        return False
    u, w = nv
    if u > w:
        u, w = w, u
    wu, ww = weight[u], weight[w]
    if w in k.adj[u]:
        # N[v] is a triangle: taking v is never worse
        if wv >= wu and wv >= ww:
            _take(k, v)
            fired["degree2"] += 1
            return True
    elif wv >= wu + ww:
        _take(k, v)
        fired["degree2"] += 1
        return True
    elif wv >= wu and wv >= ww:
        _fold(k, v, u, w)
        fired["fold"] += 1
        return True
    return False


def _twin_or_dominated(k: _Kernel, v: int, nv: Set[int], fired: Dict[str, int]) -> bool:
    """Merge v into the smallest lower-id twin; else reject v if a neighbor
    u at least as heavy has N[u] ⊆ N[v].  True if a rule fired."""
    adj, weight = k.adj, k.weight
    # every twin of v lies in the row of any neighbor of v
    for x in nv:
        break
    twin = v
    for u in adj[x]:
        if u < twin and adj[u] == nv:
            twin = u
    if twin != v:
        _merge_twin(k, v, twin)
        fired["twin"] += 1
        return True

    # u is in N(v), so N[u] ⊆ N[v] is adj[u] ⊆ N[v]: u is a pendant or
    # shares a neighbor with v
    wv, deg = weight[v], len(nv)
    closed = None
    for u in nv:
        nu = adj[u]
        if weight[u] >= wv and len(nu) <= deg and (len(nu) == 1 or not nu.isdisjoint(nv)):
            if closed is None:
                closed = nv | {v}
            if nu <= closed:
                _reject(k, v)
                fired["dominance"] += 1
                return True
    return False


def _exhaust(k: _Kernel, fired: Dict[str, int]) -> int:
    """Apply the reduction rules to exhaustion, in sweeps over the vertices
    in ascending id order; a rule that fires ends that vertex's turn.
    Returns the number of full sweeps; ``fired`` counts firings per rule.

    Two tiers in one loop: sweeps with the rules of ``_low_degree`` alone,
    until one fires nothing and makes the next sweep full, which tries per
    vertex those rules and, if none fired, the twin and dominance rules of
    ``_twin_or_dominated``.  A full sweep that fired goes back to the first
    tier; one that fired nothing ends the call, so every rule is exhausted.
    """
    adj = k.adj
    full = False
    full_sweeps = 0
    while True:
        full_sweeps += full
        changed = False
        for v in list(adj):
            nv = adj.get(v)
            if nv is None:
                continue
            if len(nv) <= 2 and _low_degree(k, v, nv, fired):
                changed = True
            elif full and _twin_or_dominated(k, v, nv, fired):
                changed = True
        if full and not changed:
            return full_sweeps
        full = not changed


def _split(k: _Kernel) -> List[_Kernel]:
    """The kernels of k's connected components, ordered by their smallest
    vertex, each with k's vertices in their order and nothing taken; empty
    if k has fewer than two components."""
    adj = k.adj
    comp: Dict[int, int] = {}
    count = 0
    for s in adj:
        if s not in comp:
            comp[s] = count
            stack = [s]
            while stack:
                for x in adj[stack.pop()]:
                    if x not in comp:
                        comp[x] = count
                        stack.append(x)
            count += 1
    if count < 2:
        return []
    parts = [_Kernel({}, {}, {}, 0, [], k.next_id) for _ in range(count)]
    for v, nv in adj.items():
        part = parts[comp[v]]
        part.adj[v] = nv
        part.weight[v] = k.weight[v]
        part.sets[v] = k.sets[v]
    return parts


_Cover = Tuple[Dict[int, int], List[List[int]], List[int]]


def _greedy_cover(k: _Kernel) -> _Cover:
    """Greedy clique cover: each vertex's clique, each clique's members and
    its heaviest weight.  Vertices are placed by increasing degree, ties in
    id order, each into the first clique (in creation order) that lies
    inside its neighborhood.  Such a clique holds a neighbor of the vertex,
    so only the cliques of its neighbors are looked at: a clique fits when
    every one of its members is a neighbor."""
    adj, weight = k.adj, k.weight
    clique_of: Dict[int, int] = {}
    members: List[List[int]] = []
    heaviest: List[int] = []
    for v in sorted(adj, key=lambda x: len(adj[x])):
        nv = adj[v]
        fit = -1
        for x in nv:
            c = clique_of.get(x)
            if c is not None and (fit < 0 or c < fit) and nv.issuperset(members[c]):
                fit = c
        wv = weight[v]
        if fit < 0:
            clique_of[v] = len(members)
            members.append([v])
            heaviest.append(wv)
        else:
            clique_of[v] = fit
            members[fit].append(v)
            if wv > heaviest[fit]:
                heaviest[fit] = wv
    return clique_of, members, heaviest


def _conflict(adj: Dict[int, Set[int]], cover: _Cover, spent: Set[int], s: int) -> int:
    """Unit propagation from {s} over the cliques not in ``spent``, as in
    the module docstring.  When a clique empties, the cliques touched join
    ``spent`` and the least of their heaviest weights is returned; else 0."""
    clique_of, members, heaviest = cover
    left = {clique_of[s]: 1}  # touched clique -> members not dropped
    dropped: Set[int] = set()
    stack = [s]  # taken vertices not yet propagated, the latest first
    while stack:
        for x in adj[stack.pop()]:
            c = clique_of[x]
            if c in spent or x in dropped:
                continue
            dropped.add(x)
            n = left[c] = left.get(c, len(members[c])) - 1
            if n == 0:
                spent.update(left)
                return min(heaviest[d] for d in left)
            if n == 1:
                for y in members[c]:
                    if y not in dropped:
                        stack.append(y)
                        break
    return 0


def _clique_cover_bound(k: _Kernel) -> Tuple[int, int]:
    """The bound of the module docstring on the kernel's weight, and the
    number of conflicts that lowered it: the greedy cover's sum, less one
    ``_conflict`` per single-vertex clique not yet spent, in creation order."""
    cover = _greedy_cover(k)
    bound, conflicts = sum(cover[2]), 0
    spent: Set[int] = set()
    for c, m in enumerate(cover[1]):
        if len(m) == 1 and c not in spent:
            loss = _conflict(k.adj, cover, spent, m[0])
            bound -= loss
            conflicts += loss > 0
    return bound, conflicts


def mis_branch_bound(g: Graph, limits: Optional[SolverLimits] = None) -> SolveResult:
    """Exact MIS by branch and bound with kernelization.

    Rules applied to exhaustion at every node (see ``_exhaust``): isolated
    take, pendant take, degree-2 take and folding first, then twin
    collapse and neighborhood dominance.  A root kernel of several
    components is searched one component at a time, and their values
    summed.  Branches on a maximum-degree vertex (smallest id on ties),
    pruned by a greedy clique-cover bound tightened by unit propagation
    (see the module docstring).  The witness is joined from the
    kernel's nests only at a leaf that beats the best.  The result's
    ``stats`` are described in the module docstring; in ``fired``,
    ``degree2`` counts degree-2 vertices taken and ``fold`` those folded.
    """
    limits = limits or SolverLimits()
    deadline = time.monotonic() + limits.time_budget if limits.time_budget else None
    nodes = 0
    fired = dict.fromkeys(RULES, 0)
    stats = {"bound_prunes": 0, "bound_conflicts": 0, "max_depth": 0, "root_kernel": 0,
             "full_sweeps": 0, "fired": fired}
    # the value fixed outside the kernel being searched: the root's takes
    # and the root components already solved
    secured = 0
    best_value = -1
    best_witness: Set[int] = set()

    def visit(k: _Kernel, depth: int) -> None:
        nonlocal nodes, secured, best_value, best_witness
        nodes += 1
        if limits.node_budget is not None and nodes > limits.node_budget:
            raise ResourceLimitError("node budget exhausted", secured + max(best_value, 0))
        if deadline is not None and time.monotonic() > deadline:
            raise ResourceLimitError("time budget exhausted", secured + max(best_value, 0))
        if depth > stats["max_depth"]:
            stats["max_depth"] = depth

        stats["full_sweeps"] += _exhaust(k, fired)
        adj = k.adj
        if depth == 0:
            stats["root_kernel"] = len(adj)
            parts = _split(k)
            if parts:
                secured, witness = k.base, _members(k.taken)
                for part in parts:
                    best_value = -1
                    visit(part, 1)
                    secured += best_value
                    witness |= best_witness
                best_value, best_witness = secured, witness
                return
        if not adj:
            if k.base > best_value:
                best_value, best_witness = k.base, _members(k.taken)
            return
        bound, found = _clique_cover_bound(k)
        stats["bound_conflicts"] += found
        if k.base + bound <= best_value:
            stats["bound_prunes"] += 1
            return

        v = max(adj, key=lambda x: len(adj[x]))  # first in id order on ties
        branch = k.copy()
        _take(branch, v)
        visit(branch, depth + 1)
        _reject(k, v)
        visit(k, depth + 1)

    visit(_Kernel.from_graph(g), 0)
    return SolveResult(best_value, frozenset(best_witness), nodes, "branch-bound", stats)


# ---------------------------------------------------------------------------
# derived problems


def solve_mis(
    g: Graph, limits: Optional[SolverLimits] = None, method: str = "auto"
) -> SolveResult:
    if method == "brute":
        return mis_bruteforce(g)
    if method == "bb":
        return mis_branch_bound(g, limits)
    if method == "auto":
        return mis_bruteforce(g) if g.n <= 20 else mis_branch_bound(g, limits)
    raise GraphError(f"unknown solve method {method!r}")


def min_vertex_cover(
    g: Graph, limits: Optional[SolverLimits] = None, method: str = "auto"
) -> Tuple[int, FrozenSet[int]]:
    """Minimum vertex cover via the complement of a maximum independent set."""
    result = solve_mis(g, limits, method)
    cover = frozenset(range(g.n)) - result.witness
    return g.n - result.alpha, cover


def has_clique_k(g: Graph, k: int) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """Does g contain a clique on k vertices, for k in 3..5?"""
    if not 3 <= k <= 5:
        raise GraphError(f"clique order {k} outside supported range [3, 5]")
    nbr = [set(a) for a in g.adjacency]

    def extend(clique: Tuple[int, ...], candidates: Set[int]) -> Optional[Tuple[int, ...]]:
        if len(clique) == k:
            return clique
        for v in sorted(candidates):
            found = extend(clique + (v,), {u for u in candidates if u > v and u in nbr[v]})
            if found:
                return found
        return None

    for u, v in g.edges():
        witness = extend((u, v), {w for w in nbr[u] & nbr[v] if w > v})
        if witness:
            return True, witness
    return False, None

