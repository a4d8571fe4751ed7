"""Independent brute-force reference implementations used only by tests.

These deliberately share no code with the package's search paths: spines
are enumerated by raw permutation, assignments by exhaustive recursion.
The exception is `naive_sweep`, the skeleton sweep's loop as it was before
its components were kept under deletion: it recomputes every component on
every iteration and reuses the package's per-skeleton steps.
"""

from __future__ import annotations

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
        run = fd._levels_once(H, sk, k, comp_ids, classes)
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
