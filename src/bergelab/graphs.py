"""2-graph toolkit: density-driven long paths and cycles, blocks, BFS
trees, components and shortest paths.

The long-path/long-cycle extractors realize the classical density bounds
constructively: peel low-degree vertices (the bound is preserved), recurse
into a component/block that still satisfies it, then grow a maximal path
and close it through crossing chords. A cycle rotation can stall: no
closure exists. The block then has minimum degree at least (m+1)/2 and
at least m+1 vertices and is 2-connected, so Dirac's theorem (1952)
gives it a cycle of length at least min(n, 2*delta) >= m+1. The
spectrum kernel finds the shortest such cycle exactly, one length at a
time from m+1, under a fixed node budget; InternalProofFailure surfaces
a budget spent first.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from ._spectrum import KernelState, spectrum_search
from .errors import InternalProofFailure, PreconditionUnmet

Pair = tuple[int, int]


def norm_edge(u: int, v: int) -> Pair:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on an explicit (not necessarily dense) vertex set.

    `build` is the one validating constructor. Every `Graph` keeps the
    invariant it establishes: `vertices` sorted and unique, `edges`
    normalised (u < v), sorted and unique, with both ends in `vertices`.
    Derived views (`subgraph`, components, peeled cores) rely on it and
    call the plain constructor on already-valid data.
    """

    vertices: tuple[int, ...]
    edges: tuple[Pair, ...]
    # Built once by adjacency(); a declared field left out of __init__, ==,
    # hash and repr, like the indexes on `Hypergraph`.
    _adjacency: Optional[dict[int, list[int]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @staticmethod
    def build(vertices: Iterable[int], edges: Iterable[Pair]) -> "Graph":
        vs = tuple(sorted(set(vertices)))
        vset = set(vs)
        es = sorted({norm_edge(u, v) for u, v in edges})
        for u, v in es:
            if u == v or u not in vset or v not in vset:
                raise PreconditionUnmet(f"bad edge ({u},{v})")
        return Graph(vs, tuple(es))

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def e(self) -> int:
        return len(self.edges)

    def average_degree(self) -> Fraction:
        return Fraction(2 * self.e, self.n) if self.n else Fraction(0)

    def adjacency(self) -> dict[int, list[int]]:
        """Each vertex -> its sorted neighbours; built once, shared, not to
        be mutated."""
        if self._adjacency is None:
            adj: dict[int, list[int]] = {v: [] for v in self.vertices}
            for u, v in self.edges:
                adj[u].append(v)
                adj[v].append(u)
            for lst in adj.values():
                lst.sort()
            object.__setattr__(self, "_adjacency", adj)
        return self._adjacency

    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """The graph on `vertices` (kept even when outside this graph) with
        this graph's edges that have both ends among them."""
        keep = set(vertices)
        return Graph(
            tuple(sorted(keep)),
            tuple(e for e in self.edges if e[0] in keep and e[1] in keep),
        )


def connected_components(G: Graph) -> list[Graph]:
    """Components in order of their smallest vertex (for sorted vertices)."""
    label: dict[int, int] = {}
    verts: list[list[int]] = []
    for s in G.vertices:
        if s not in label:
            order = bfs_tree(G, s)[2]
            if len(order) == G.n:
                return [G]  # connected: G itself, with its adjacency
            for v in order:
                label[v] = len(verts)
            verts.append(sorted(order))
    edges: list[list[Pair]] = [[] for _ in verts]
    for e in G.edges:  # sorted, so each component's list is too
        edges[label[e[0]]].append(e)
    return [Graph(tuple(vs), tuple(es)) for vs, es in zip(verts, edges)]


def densest_component(G: Graph) -> Graph:
    """The component of largest average degree, ties to the smallest vertex."""
    if G.n == 0:
        raise PreconditionUnmet("the graph has no vertices")
    return max(connected_components(G), key=lambda c: (c.average_degree(), -c.vertices[0]))


def bfs_tree(G: Graph, root: int):
    """Deterministic BFS: returns (parent, level, order); parent[root] = -1."""
    adj = G.adjacency()
    parent = {root: -1}
    level = {root: 0}
    order = [root]
    q = deque([root])
    while q:
        u = q.popleft()
        for w in adj[u]:
            if w not in level:
                parent[w] = u
                level[w] = level[u] + 1
                order.append(w)
                q.append(w)
    return parent, level, order


def bipartition(G: Graph) -> Optional[dict[int, int]]:
    """2-coloring of each component by BFS level parity, or None when an
    edge joins two vertices of one parity (an odd cycle exists)."""
    side: dict[int, int] = {}
    for s in G.vertices:
        if s not in side:
            for v, lvl in bfs_tree(G, s)[1].items():
                side[v] = lvl & 1
    if any(side[u] == side[v] for u, v in G.edges):
        return None
    return side


def shortest_path(
    adj: dict[int, list[int]], sources: Iterable[int], targets: Iterable[int]
) -> Optional[list[int]]:
    """Shortest source-target path by BFS over `adj`, as a vertex list, or
    None. The path meets the sources only at its start; sources missing
    from `adj` are skipped. Ties go to the smallest source, then to
    adjacency order."""
    goal = set(targets)
    prev: dict[int, int] = {}
    q: deque[int] = deque()
    for s in sorted(set(sources)):
        if s in adj:
            prev[s] = -1
            q.append(s)
    while q:
        u = q.popleft()
        if u in goal:
            path = [u]
            while prev[path[-1]] != -1:
                path.append(prev[path[-1]])
            return path[::-1]
        for w in adj[u]:
            if w not in prev:
                prev[w] = u
                q.append(w)
    return None


def blocks(G: Graph) -> list[tuple[Pair, ...]]:
    """Biconnected components as tuples of G's own edges, each sorted.

    One iterative lowpoint search (Hopcroft and Tarjan) with a vertex
    stack: when a tree edge (p, u) closes a block, the vertices from u up
    the stack are popped into it. Every vertex but a search root is popped
    exactly once, and an edge lies in the block of its later-discovered
    end, so one final pass over `G.edges` (sorted) fills each block in
    sorted order without an edge stack or a sort. Blocks come in the order
    they complete in the search, which takes roots in vertex order and
    neighbours in adjacency order; `long_cycle_from_density` takes the
    first block that meets its bound, so that order is part of the result.
    """
    adj = G.adjacency()
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    block_of: dict[int, int] = {}
    vstack: list[int] = []
    nblocks = 0
    for root in G.vertices:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        stack = [(root, None, iter(adj[root]))]  # vertex, parent, neighbours left
        while stack:
            u, pu, nbrs = stack[-1]
            for w in nbrs:
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    vstack.append(w)
                    stack.append((w, u, iter(adj[w])))
                    break
                if disc[w] < low[u] and w != pu:
                    low[u] = disc[w]
            else:
                stack.pop()
                if pu is None:
                    continue
                if low[u] < low[pu]:
                    low[pu] = low[u]
                if low[u] >= disc[pu]:
                    v = None
                    while v != u:
                        v = vstack.pop()
                        block_of[v] = nblocks
                    nblocks += 1
    if nblocks == 1:
        return [G.edges]
    out: list[list[Pair]] = [[] for _ in range(nblocks)]
    for e in G.edges:
        a, b = e
        out[block_of[a] if disc[a] > disc[b] else block_of[b]].append(e)
    return [tuple(blk) for blk in out]


# ---------------------------------------------------------------------------
# density peeling


def _peel(G: Graph, threshold: Fraction) -> Graph:
    """Repeatedly delete a vertex of degree < threshold; the survivors do
    not depend on the deletion order. A vertex is marked dead when queued,
    so each edge lowers only the degree of an end still alive."""
    adj = G.adjacency()
    deg = {v: len(ns) for v, ns in adj.items()}
    stack = [v for v in G.vertices if deg[v] < threshold]
    dead = set(stack)
    while stack:
        for w in adj[stack.pop()]:
            if w not in dead:
                deg[w] -= 1
                if deg[w] < threshold:
                    dead.add(w)
                    stack.append(w)
    if not dead:
        return G
    return G.subgraph(v for v in G.vertices if v not in dead)


def min_degree_core(G: Graph) -> Graph:
    """Subgraph with average degree >= d(G) and min degree >= d(G)/2."""
    if G.e == 0:
        return G
    return _peel(G, G.average_degree() / 2)


# ---------------------------------------------------------------------------
# maximal paths, closures, rotation


def _maximal_extend(adj: dict[int, list[int]], path: list[int]) -> list[int]:
    """Grow `path` in place at its tail, then at its head, each step taking
    the end's first neighbour in `adj` order that is off the path, until
    neither end has one; return it. The head grows as the tail of the
    reversed path, which is then reversed back."""
    inpath = set(path)
    for _ in range(2):
        while True:
            for w in adj[path[-1]]:
                if w not in inpath:
                    path.append(w)
                    inpath.add(w)
                    break
            else:
                break
        path.reverse()
    return path


def _close(adj: dict[int, list[int]], path: list[int]) -> Optional[list[int]]:
    """Cycle on all of V(path) via the closing edge or a crossing pair."""
    x, y = path[0], path[-1]
    nx, ny = set(adj[x]), set(adj[y])
    if y in nx:
        return list(path)
    for i in range(len(path) - 1):
        if path[i] in ny and path[i + 1] in nx:
            return path[: i + 1] + path[: i : -1]
    return None


def _reopen(adj: dict[int, list[int]], cycle: list[int]) -> list[int]:
    """Longer path from a cycle plus an outside attachment. Both rotations
    reopen only a closure shorter than their bound, and such a closure
    never spans the connected graph it lies in."""
    cset = set(cycle)
    for idx, u in enumerate(cycle):
        for w in adj[u]:
            if w not in cset:
                return [w] + cycle[idx:] + cycle[:idx]
    raise InternalProofFailure("rotation", "spanning closure below the bound")


def _cycle_is_valid(adj, cyc: list[int]) -> bool:
    if len(cyc) < 3 or len(set(cyc)) != len(cyc):
        return False
    return all(cyc[(i + 1) % len(cyc)] in adj[cyc[i]] for i in range(len(cyc)))


# ---------------------------------------------------------------------------
# density-guaranteed long paths and cycles

# Kernel nodes a stalled rotation may spend (see long_cycle_from_density);
# the stalls met in tests and stress draws took at most a few hundred.
_STALL_BUDGET = 1_000_000


def _any_cycle(G: Graph) -> Optional[list[int]]:
    """Some simple cycle (a fundamental cycle of a spanning forest), or None."""
    adj = G.adjacency()
    seen: set[int] = set()
    for root in G.vertices:
        if root in seen:
            continue
        parent, depth, order = bfs_tree(G, root)
        seen.update(depth)
        for u, v in G.edges:
            if u not in depth or v not in depth:
                continue
            if parent.get(u) == v or parent.get(v) == u:
                continue
            au, av = [u], [v]
            pu, pv = u, v
            while depth[pu] > depth[pv]:
                pu = parent[pu]
                au.append(pu)
            while depth[pv] > depth[pu]:
                pv = parent[pv]
                av.append(pv)
            while pu != pv:
                pu = parent[pu]
                pv = parent[pv]
                au.append(pu)
                av.append(pv)
            # the climbs meet only at the common ancestor, which lies above both ends of
            # a BFS edge off the tree: the cycle is simple and has at least 3 vertices
            cyc = au + av[::-1][1:]
            if not _cycle_is_valid(adj, cyc):
                raise InternalProofFailure("fundamental cycle", f"{cyc} is not a cycle")
            return cyc
    return None


def _best_component(G: Graph, bound) -> Graph:
    """A component with 2e_c > bound(n_c); exists by the counting, asserted."""
    for comp in connected_components(G):
        if comp.e and Fraction(2 * comp.e) > bound(comp.n):
            return comp
    raise InternalProofFailure("component selection", "no component meets the bound")


def long_path_from_density(G: Graph, m: int) -> list[int]:
    """A path with at least m+1 edges, given e(G) > m*n/2. Vertex list."""
    if not (2 * G.e > m * G.n):
        raise PreconditionUnmet(f"need e > m*n/2 = {Fraction(m * G.n, 2)}, have {G.e}")
    if m < 0:
        raise PreconditionUnmet("m must be nonnegative")
    core = _peel(G, Fraction(m + 1, 2))  # degree <= m/2
    comp = _best_component(core, lambda n: Fraction(m * n))
    adj = comp.adjacency()
    path = _maximal_extend(adj, [comp.vertices[0]])
    for _ in range(comp.n + 1):
        if len(path) - 1 >= m + 1:
            return path
        cyc = _close(adj, path)
        if cyc is None:
            # stuck: endpoint degrees force len(path)-1 >= 2*delta >= m+1
            raise InternalProofFailure(
                "path rotation", f"stuck below bound at length {len(path) - 1}"
            )
        # cyc runs through exactly the path's vertices, so it is short too;
        # the density gives comp more than m+1 vertices, so cyc cannot span it
        path = _maximal_extend(adj, _reopen(adj, cyc))
    raise InternalProofFailure("path rotation", "no progress")


def long_cycle_from_density(G: Graph, m: int) -> list[int]:
    """A cycle with at least m+1 edges, given e(G) > m*(n-1)/2. Vertex list.

    The closing edge (last vertex back to first) is implicit. The rotation
    on the narrowed block H returns its first closure of length >= m+1.
    When it stalls, the result is the spectrum kernel's first cycle of the
    least length >= m+1 in H: Dirac's theorem guarantees one, and only the
    `_STALL_BUDGET` node budget can fail (InternalProofFailure).
    """
    if G.n == 0:
        raise PreconditionUnmet("the graph has no vertices")
    if not (2 * G.e > m * (G.n - 1)):
        raise PreconditionUnmet(
            f"need e > m*(n-1)/2 = {Fraction(m * (G.n - 1), 2)}, have {G.e}"
        )
    if m < 2:
        cyc = _any_cycle(G)
        if cyc is None:
            raise PreconditionUnmet(
                "the cycle bound needs m >= 2; this graph is acyclic"
            )
        return cyc
    work = G
    H: Optional[Graph] = None
    for _ in range(G.n + 2):
        peeled = _peel(work, Fraction(m + 1, 2))  # degree <= m/2
        comp = _best_component(peeled, lambda n: Fraction(m * (n - 1)))
        blks = blocks(comp)
        if len(blks) == 1:
            H = comp  # 2-connected with min degree > m/2
            break
        for blk in blks:
            verts = {v for e in blk for v in e}
            if 2 * len(blk) > m * (len(verts) - 1):
                break
        else:
            raise InternalProofFailure("block selection", "no block meets the bound")
        work = Graph(tuple(sorted(verts)), blk)  # blocks hold sorted edges of comp
    if H is None:
        raise InternalProofFailure("core narrowing", "did not stabilize")
    adj = H.adjacency()
    path = _maximal_extend(adj, [H.vertices[0]])
    for _ in range(H.n + 1):
        cyc = _close(adj, path)
        if cyc is None:
            break  # stalled: no closure
        if len(cyc) >= m + 1:  # a spanning closure has length H.n >= m+1
            return cyc
        path = _maximal_extend(adj, _reopen(adj, cyc))
    return _shortest_long_cycle(H, m)


def _shortest_long_cycle(H: Graph, m: int) -> list[int]:
    """The kernel's first cycle of the least length >= m+1 in H, searched
    one length at a time on one `KernelState` within `_STALL_BUDGET` nodes."""
    index = {v: i for i, v in enumerate(H.vertices)}  # increasing: edges stay sorted
    edges = [(index[u], index[v]) for u, v in H.edges]
    live = KernelState(H.n)
    left = _STALL_BUDGET
    for L in range(m + 1, H.n + 1):
        hits, nodes, exhausted = spectrum_search(H.n, edges, L, L, left, live=live)
        if hits:
            cyc = [H.vertices[i] for i in hits[0][1]]
            if not _cycle_is_valid(H.adjacency(), cyc):
                raise InternalProofFailure("cycle extraction", "kernel spine is not a cycle")
            return cyc
        if exhausted:
            break
        left -= nodes
    raise InternalProofFailure(
        "cycle extraction",
        f"bound m+1={m + 1} unmet within {_STALL_BUDGET} kernel nodes (n={H.n})",
    )
