"""Spectrum search kernel.

Exhaustive backtracking over cycle spines in the shadow, with an
incremental injective edge assignment maintained by augmenting paths.
Spines are enumerated once per rotation/reflection class: the smallest
vertex comes first and the second vertex is smaller than the last.

A spine is a cycle of the shadow, so it lies in one shadow component, and
in a bipartite component it alternates sides: its length is even and at
most 2*min(side sizes). When every edge is a pair, each component is
2-coloured once per call and a start vertex whose component cannot hold
the length being searched is skipped. Only subtrees without a witness are
cut, so the first witness found for each length stays the same. An edge
of 3 or more vertices spans a triangle of the shadow, so such inputs are
not coloured and their search and node counts are unchanged.

Anchored mode (`through`). When a caller knows that `edges` without one
edge e has no Berge cycle of any searched length, a cycle of `edges` must
assign e to one of its spine pairs, and that pair lies inside e. So the
search starts each spine at a pair (a, b) of e, in `combinations` order:
the pair is pushed first and the path is fixed to begin a, b. Every vertex
may then follow, so the smallest-vertex-first and reflection rules are
dropped and the closing pair is normalised. A hit is always a real cycle of
`edges`; finding one exactly when the full search does holds only under
that free-prefix invariant, which the exact Turán search keeps by adding
an edge only to a family already checked free.

Set-up. The pair covers, the sorted shadow adjacency, the count of edges
that are not pairs and one `Matcher` over the covers live in a
`KernelState` that follows pushes and pops of edges. A call syncs it to
`edges` by their longest common prefix, so a caller whose calls differ by
a few trailing edges (the Turán search, one state per search) pays only
for those edges; a caller without a state gets a fresh one. Every length
searches with the state's matcher, which each search leaves empty; a
search stopped by the budget leaves pairs pushed, so the state gets a new
matcher then. Nodes are counted in a plain local.
"""

from __future__ import annotations

from bisect import insort
from itertools import combinations
from typing import Optional, Sequence

from .certify import Matcher


class _Budget(Exception):
    pass


class KernelState:
    """The kernel's view of an edge list, kept current under push and pop:
    `edges` (a stack), `covers` (pair -> positions in `edges` of the edges
    covering it, in edge order, as `cover_lists(edges, 2)` gives), `adj`
    (per vertex, its sorted shadow neighbours), `wide` (how many edges are
    not pairs) and `matcher`, the one `Matcher` over `covers` that every
    call searches with. The matcher is empty between calls."""

    def __init__(self, n: int):
        self.edges: list[tuple[int, ...]] = []
        self.covers: dict[tuple[int, ...], list[int]] = {}
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.wide = 0
        self.matcher = Matcher(self.covers)

    def push(self, e: tuple[int, ...]) -> None:
        i = len(self.edges)
        self.edges.append(e)
        if len(e) != 2:
            self.wide += 1
        for p in combinations(e, 2):
            ids = self.covers.get(p)
            if ids is None:
                self.covers[p] = [i]
                u, v = p
                insort(self.adj[u], v)
                insort(self.adj[v], u)
            else:
                ids.append(i)

    def pop(self) -> None:
        e = self.edges.pop()
        if len(e) != 2:
            self.wide -= 1
        for p in combinations(e, 2):
            ids = self.covers[p]
            ids.pop()  # the top edge's position is the last of each list
            if not ids:
                del self.covers[p]
                u, v = p
                self.adj[u].remove(v)
                self.adj[v].remove(u)

    def sync(self, edges: Sequence[tuple[int, ...]]) -> None:
        """Make `self.edges` equal `edges`: pop down to the longest common
        prefix, then push the rest."""
        have = self.edges
        k = 0
        top = min(len(have), len(edges))
        while k < top and have[k] == edges[k]:
            k += 1
        for _ in range(len(have) - k):
            self.pop()
        for e in edges[k:]:
            self.push(e)


def _bipartite_caps(n: int, adj: list[list[int]]) -> list[int]:
    """Per vertex, 2*min(side sizes) of its shadow component when that
    component is bipartite, else 0."""
    side = [-1] * n
    caps = [0] * n
    for s in range(n):
        if side[s] >= 0:
            continue
        side[s] = 0
        comp = [s]
        sizes = [1, 0]
        bipartite = True
        for u in comp:  # grows while iterated: breadth-first order
            for w in adj[u]:
                if side[w] < 0:
                    side[w] = 1 - side[u]
                    sizes[side[w]] += 1
                    comp.append(w)
                elif side[w] == side[u]:
                    bipartite = False
        if bipartite:
            cap = 2 * min(sizes)
            for u in comp:
                caps[u] = cap
    return caps


def spectrum_search(
    n: int,
    edges: Sequence[tuple[int, ...]],
    min_len: int,
    max_len: int,
    budget: int,
    through: Optional[tuple[int, ...]] = None,
    live: Optional[KernelState] = None,
):
    """Search one witness per spine length in [min_len, max_len].

    Returns (hits, nodes, exhausted) where hits is a list of
    (length, spine, assignment) triples sorted by length. A node is one
    attempted pair push (path extension or closure, or an anchor pair).
    With `through`, an edge of `edges`, only spines starting at a pair of
    it are searched (anchored mode, see the module docstring). `live`, an
    n-vertex `KernelState` from an earlier call, is synced to `edges` and
    searched instead of a fresh one.
    """
    if live is None:
        live = KernelState(n)
    live.sync(edges)
    cov = live.covers
    adj = live.adj
    m = live.matcher
    push, pop, assign = m.push, m.pop, m.assign
    caps = None if live.wide else _bipartite_caps(n, adj)
    anchors = list(combinations(through, 2)) if through is not None else None
    nodes = 0
    hits = []

    def search_length(L: int):
        nonlocal nodes

        def can_start(v: int) -> bool:
            # two shadow neighbours, and room for L when v's component is
            # bipartite (caps[v] == 0 exactly when it is not)
            return len(adj[v]) >= 2 and (
                caps is None or not caps[v] or (L % 2 == 0 and L <= caps[v])
            )

        path = [0] * L
        used = [False] * n
        floor = -1  # later spine vertices exceed it: path[0] unless anchored

        def dfs(depth: int):
            nonlocal nodes
            last = path[depth - 1]
            if depth == L:
                v1 = path[0]
                if anchors is not None:
                    closing = (v1, last) if v1 < last else (last, v1)
                elif path[1] < last:
                    closing = (v1, last)
                else:
                    return None
                if closing in cov:
                    nodes += 1
                    if nodes > budget:
                        raise _Budget
                    if push(closing):
                        result = (tuple(path), tuple(assign))  # copy now
                        pop()
                        return result
                return None
            for w in adj[last]:
                if w <= floor or used[w]:
                    continue
                nodes += 1
                if nodes > budget:
                    raise _Budget
                if not push((last, w) if last < w else (w, last)):
                    continue
                path[depth] = w
                used[w] = True
                found = dfs(depth + 1)
                used[w] = False
                pop()
                if found:
                    return found
            return None

        # dfs calls itself through its closure cell, a cycle that would keep
        # this search's state for the cyclic collector; emptying the cell on
        # the way out leaves it all to reference counting
        try:
            if anchors is not None:
                for a, b in anchors:
                    if not can_start(a):
                        continue
                    nodes += 1
                    if nodes > budget:
                        raise _Budget
                    if not push((a, b)):
                        continue
                    path[0], path[1] = a, b
                    used[a] = used[b] = True
                    found = dfs(2)
                    used[a] = used[b] = False
                    pop()
                    if found:
                        return found
                return None
            for v1 in range(n):
                if not can_start(v1):
                    continue
                floor = v1
                path[0] = v1
                used[v1] = True
                found = dfs(1)
                used[v1] = False
                if found:
                    return found
            return None
        finally:
            del dfs

    exhausted = False
    try:
        for L in range(max(min_len, 3), max_len + 1):
            if L > n or L > len(edges):
                break
            found = search_length(L)
            if found:
                hits.append((L, *found))
    except _Budget:
        exhausted = True
        live.matcher = Matcher(cov)  # the search left pairs pushed
    return hits, nodes, exhausted
