"""Independent brute-force reference implementations used only by tests.

These deliberately share no code with the package's search paths: spines
are enumerated by raw permutation, assignments by exhaustive recursion.
The exceptions are `naive_sweep`, the skeleton sweep's loop as it was before
its components were kept under deletion: it recomputes every component on
every iteration and reuses the package's per-skeleton steps; and
`naive_turan`, the exact Turán search as it was before freeness answers
were filed: it calls the package's kernel for every check; and
`naive_split_by_codegree`, the co-degree split with every (edge, subset)
entry on one heap, as it was before the initial entries were walked by a
cursor.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import combinations, permutations


def naive_extend(edges, pairs):
    """Exhaustive injective assignment search; None if impossible."""
    pairs = sorted({tuple(sorted(p)) for p in pairs})

    def rec(i, taken):
        if i == len(pairs):
            return {}
        u, v = pairs[i]
        for ei, e in enumerate(edges):
            if ei in taken or u not in e or v not in e:
                continue
            rest = rec(i + 1, taken | {ei})
            if rest is not None:
                rest[pairs[i]] = ei
                return rest
        return None

    return rec(0, frozenset())


def naive_spectrum(n, edges, max_len):
    """All Berge-cycle lengths in 3..max_len by raw enumeration."""
    found = set()
    for L in range(3, min(max_len, n, len(edges)) + 1):
        hit = False
        for verts in combinations(range(n), L):
            for perm in permutations(verts[1:]):
                spine = (verts[0],) + perm
                if spine[1] > spine[-1]:
                    continue
                cyc_pairs = [
                    tuple(sorted((spine[i], spine[(i + 1) % L]))) for i in range(L)
                ]
                if len(set(cyc_pairs)) != L:
                    continue
                if naive_extend(edges, cyc_pairs) is not None:
                    found.add(L)
                    hit = True
                    break
            if hit:
                break
    return sorted(found)


def naive_shortest_cycle(adj_pairs, n):
    """Girth of a 2-graph given as a set of sorted vertex pairs."""
    import collections

    adj = collections.defaultdict(set)
    for u, v in adj_pairs:
        adj[u].add(v)
        adj[v].add(u)
    best = None
    for s in range(n):
        dist = {s: 0}
        parent = {s: -1}
        q = collections.deque([s])
        while q:
            u = q.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    q.append(w)
                elif parent[u] != w:
                    cand = dist[u] + dist[w] + 1
                    if best is None or cand < best:
                        best = cand
    return best


def naive_sweep(H, k):
    """Skeleton sweep that recomputes the shadow components of all alive
    edges on every iteration; Theta(iterations * m)."""
    from bergelab import finder as fd
    from bergelab.errors import InternalProofFailure
    from bergelab.hypergraph import average_degree, covered_vertices, edge_components

    guaranteed = average_degree(H) >= 21 * (k + 1)
    alive = set(range(len(H.edges)))
    while alive:
        comps = edge_components(H, sorted(alive))
        comp_ids = max(
            comps,
            key=lambda ids: (
                Fraction(3 * len(ids), len(covered_vertices(H, ids))),
                -min(covered_vertices(H, ids)),
            ),
        )
        root = min(covered_vertices(H, comp_ids))
        sk = fd.build_skeleton(H, root, active_edges=comp_ids)
        classes = fd.classify_levels(H, sk, active_edges=comp_ids)
        run = fd._levels_once(H, sk, k, classes)
        if run is not None:
            return run
        vt = sk.tree_vertices()
        incident = {ei for ei in alive if set(H.edges[ei]) & vt}
        if len(incident) >= 7 * (k + 1) * len(vt):
            raise InternalProofFailure("sweep counting", "naive")
        alive -= incident
    if guaranteed:
        raise InternalProofFailure("sweep exhaustion", "naive")
    return None


def naive_split_by_codegree(H, k):
    """`finder.split_by_codegree` with all initial entries heapified up front
    and one heap serving them and the later pushes; the slice map is a
    second `cover_lists` over the slice edges, and each entry's largest
    co-degree is read from it."""
    from bergelab import finder as fd
    from bergelab.hypergraph import cover_lists

    r = H.uniformity
    members = cover_lists(H.edges, r - 1)
    count = {sub: len(ids) for sub, ids in members.items()}
    alive = set(range(len(H.edges)))
    heap = [
        (ei, sub)
        for ei, e in enumerate(H.edges)
        for sub in combinations(e, r - 1)
        if count[sub] <= k
    ]
    heapq.heapify(heap)
    slice_entries = []
    while heap:
        ei, sub = heapq.heappop(heap)
        if ei not in alive or count[sub] > k or count[sub] < 1:
            continue
        slice_entries.append((ei, sub))
        for dead in members[sub]:
            if dead not in alive:
                continue
            alive.discard(dead)
            for s2 in combinations(H.edges[dead], r - 1):
                count[s2] -= 1
                if count[s2] == k:
                    for cand in members[s2]:
                        if cand in alive:
                            heapq.heappush(heap, (cand, s2))
    if alive:
        return fd.DenseCore(edge_ids=tuple(sorted(alive)))
    slice_entries.sort()
    covers = cover_lists([H.edges[ei] for ei, _ in slice_entries], r - 1)
    out = []
    for ei, sub0 in slice_entries:
        fresh = [s for s in combinations(H.edges[ei], r - 1) if len(covers[s]) == 1]
        out.append((ei, fresh[0], True) if fresh else (ei, sub0, False))
    top = tuple(
        max(len(covers[s]) for s in combinations(H.edges[ei], r - 1)) for ei, _ in slice_entries
    )
    return fd.MarkedSlice(entries=tuple(out), covers=covers, max_codegree=top)


def naive_turan(n, r, ell, budget=10**8):
    """The exact Turán search with one kernel call per freeness check and no
    cache; returns (value, nodes, exact, extremal edges)."""
    from math import comb

    from bergelab._spectrum import spectrum_search
    from bergelab.hypergraph import no_pair_twice

    def free(edges, through):
        if ell == 2:
            return no_pair_twice(edges)
        hits, _, exhausted = spectrum_search(n, tuple(edges), ell, ell, 10**7, through)
        assert not exhausted
        return not hits

    universe = list(combinations(range(n), r))
    per_edge_pairs = comb(r, 2)
    total_pairs = comb(n, 2)
    best = []
    nodes = 0
    exhausted = False
    chosen = []

    def dfs(pos, frontier, used_pairs):
        nonlocal best, nodes, exhausted
        if exhausted:
            return
        nodes += 1
        if nodes > budget:
            exhausted = True
            return
        if len(chosen) > len(best):
            best = list(chosen)
        if pos == len(universe):
            return
        remaining = len(universe) - pos
        if ell == 2:
            cap = (total_pairs - used_pairs) // per_edge_pairs
            if len(chosen) + min(cap, remaining) <= len(best):
                return
        elif len(chosen) + remaining <= len(best):
            return
        e = universe[pos]
        fresh = [v for v in e if v >= frontier]
        if fresh == list(range(frontier, frontier + len(fresh))):
            chosen.append(e)
            if free(chosen, e):
                dfs(pos + 1, frontier + len(fresh), used_pairs + per_edge_pairs)
            chosen.pop()
        dfs(pos + 1, frontier, used_pairs)

    dfs(0, 0, 0)
    return len(best), nodes, not exhausted, sorted(best)
