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
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Sequence

from .certify import Matcher
from .hypergraph import cover_lists


class _Budget(Exception):
    pass


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
):
    """Search one witness per spine length in [min_len, max_len].

    Returns (hits, nodes, exhausted) where hits is a list of
    (length, spine, assignment) triples sorted by length. A node is one
    attempted pair push (path extension or closure, or an anchor pair).
    With `through`, an edge of `edges`, only spines starting at a pair of
    it are searched (anchored mode, see the module docstring).
    """
    cov = cover_lists(edges, 2)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in cov:
        adj[u].append(v)
        adj[v].append(u)
    for lst in adj:
        lst.sort()
    starts = [v for v in range(n) if len(adj[v]) >= 2]
    caps = _bipartite_caps(n, adj) if all(len(e) == 2 for e in edges) else None
    anchors = list(combinations(through, 2)) if through is not None else None

    state = {"nodes": 0, "exhausted": False}
    limit = budget

    def spend() -> None:
        state["nodes"] += 1
        if state["nodes"] > limit:
            state["exhausted"] = True
            raise _Budget

    hits = []

    def search_length(L: int, firsts: list[int]):
        m = Matcher(cov)
        path = [0] * L
        used = [False] * n
        floor = -1  # later spine vertices exceed it: path[0] unless anchored

        def dfs(depth: int):
            last = path[depth - 1]
            v1 = path[0]
            if depth == L:
                if anchors is not None:
                    closing = (v1, last) if v1 < last else (last, v1)
                elif path[1] < last:
                    closing = (v1, last)
                else:
                    return None
                if closing in cov:
                    spend()
                    if m.push(closing):
                        result = (tuple(path), tuple(m.assign))  # copy now
                        m.pop()
                        return result
                return None
            for w in adj[last]:
                if w <= floor or used[w]:
                    continue
                spend()
                pair = (last, w) if last < w else (w, last)
                if not m.push(pair):
                    continue
                path[depth] = w
                used[w] = True
                found = dfs(depth + 1)
                used[w] = False
                m.pop()
                if found:
                    return found
            return None

        if anchors is not None:
            for a, b in anchors:
                if a not in firsts:
                    continue
                spend()
                if not m.push((a, b)):
                    continue
                path[0], path[1] = a, b
                used[a] = used[b] = True
                found = dfs(2)
                used[a] = used[b] = False
                m.pop()
                if found:
                    return found
            return None
        for v1 in firsts:
            floor = v1
            path[0] = v1
            used[v1] = True
            found = dfs(1)
            used[v1] = False
            if found:
                return found
        return None

    lo = max(min_len, 3)
    try:
        for L in range(lo, max_len + 1):
            if L > n or L > len(edges):
                break
            firsts = starts
            if caps is not None:
                # a start v has caps[v] == 0 exactly when its component is not bipartite
                firsts = [v for v in starts if not caps[v] or (L % 2 == 0 and L <= caps[v])]
            found = search_length(L, firsts)
            if found:
                spine, assign = found
                hits.append((L, spine, assign))
    except _Budget:
        pass
    return hits, state["nodes"], state["exhausted"]
