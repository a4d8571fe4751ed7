"""Spectrum search kernel.

Exhaustive backtracking over cycle spines in the shadow, with an
incremental injective edge assignment maintained by augmenting paths.
Spines are enumerated once per rotation/reflection class: the smallest
vertex comes first and the second vertex is smaller than the last.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .certify import Matcher


class _Budget(Exception):
    pass


def _pair_covers(edges: Sequence[tuple[int, ...]]) -> dict[tuple[int, int], list[int]]:
    cov: dict[tuple[int, int], list[int]] = {}
    for i, e in enumerate(edges):
        for p in combinations(e, 2):
            cov.setdefault(p, []).append(i)
    return cov


def spectrum_search(
    n: int,
    edges: Sequence[tuple[int, ...]],
    min_len: int,
    max_len: int,
    budget: int,
):
    """Search one witness per spine length in [min_len, max_len].

    Returns (hits, nodes, exhausted) where hits is a list of
    (length, spine, assignment) triples sorted by length. A node is one
    attempted pair push (path extension or closure).
    """
    cov = _pair_covers(edges)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in cov:
        adj[u].append(v)
        adj[v].append(u)
    for lst in adj:
        lst.sort()

    state = {"nodes": 0, "exhausted": False}
    limit = budget

    def spend() -> None:
        state["nodes"] += 1
        if state["nodes"] > limit:
            state["exhausted"] = True
            raise _Budget

    hits = []

    def search_length(L: int):
        m = Matcher(cov)
        path = [0] * L
        used = [False] * n

        def dfs(depth: int):
            last = path[depth - 1]
            v1 = path[0]
            if depth == L:
                if path[1] < path[L - 1] and (v1, last) in cov:
                    spend()
                    if m.push((v1, last)):
                        result = (tuple(path), tuple(m.assign))  # copy now
                        m.pop()
                        return result
                return None
            for w in adj[last]:
                if w <= v1 or used[w]:
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

        for v1 in range(n):
            if len(adj[v1]) < 2:
                continue
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
            found = search_length(L)
            if found:
                spine, assign = found
                hits.append((L, spine, assign))
    except _Budget:
        pass
    return hits, state["nodes"], state["exhausted"]
