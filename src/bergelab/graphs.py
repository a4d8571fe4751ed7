"""2-graph toolkit: density-driven long paths and cycles, blocks,
disjoint paths, BFS trees, components and shortest paths.

The long-path/long-cycle extractors realize the classical density bounds
constructively: peel low-degree vertices (the bound is preserved), recurse
into a component/block that still satisfies it, then grow a maximal path
and close it through crossing chords. For cycles, a stuck state (no
closure) is resolved from chord candidates: the two end cycles, the best
"straddle" cycle through both endpoints, and a cycle merging the end
cycles through two disjoint connectors. These meet the m+1 bound for all
m <= 6, which covers every caller here; an exact DP backs up small stuck
instances and InternalProofFailure surfaces anything else.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .errors import InternalProofFailure, PreconditionUnmet

Pair = tuple[int, int]


def norm_edge(u: int, v: int) -> Pair:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on an explicit (not necessarily dense) vertex set."""

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
        keep = set(vertices)
        return Graph.build(
            keep, [e for e in self.edges if e[0] in keep and e[1] in keep]
        )

    def edge_subgraph(self, edges: Iterable[Pair]) -> "Graph":
        es = sorted({norm_edge(u, v) for u, v in edges})
        vs = sorted({v for e in es for v in e})
        return Graph.build(vs, es)


def connected_components(G: Graph) -> list[Graph]:
    """Components in order of their smallest vertex (for sorted vertices)."""
    seen: set[int] = set()
    comps: list[Graph] = []
    for s in G.vertices:
        if s not in seen:
            order = bfs_tree(G, s)[2]
            seen.update(order)
            comps.append(G.subgraph(order))
    return comps


def densest_component(G: Graph) -> Graph:
    """The component of largest average degree, ties to the smallest vertex."""
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
    adj: dict[int, list[int]],
    sources: Iterable[int],
    targets: Iterable[int],
    avoid: Iterable[int] = (),
) -> Optional[list[int]]:
    """Shortest source-target path by BFS over `adj`, as a vertex list, or
    None. The path meets the sources only at its start and never meets
    `avoid`; sources in `avoid` or missing from `adj` are skipped. Ties go
    to the smallest source, then to adjacency order."""
    goal, bad = set(targets), set(avoid)
    prev: dict[int, int] = {}
    q: deque[int] = deque()
    for s in sorted(set(sources) - bad):
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
            if w not in prev and w not in bad:
                prev[w] = u
                q.append(w)
    return None


def blocks(G: Graph) -> list[tuple[Pair, ...]]:
    """Biconnected components as edge tuples (iterative lowpoint algorithm)."""
    adj = G.adjacency()
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    out: list[tuple[Pair, ...]] = []
    estack: list[Pair] = []
    timer = 0
    for root in G.vertices:
        if root in disc:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [[root, -1, 0, False]]  # vertex, parent, next-neighbor ptr, parent seen
        while stack:
            frame = stack[-1]
            u, pu, ptr, _ = frame
            nbrs = adj[u]
            pushed = False
            while ptr < len(nbrs):
                w = nbrs[ptr]
                ptr += 1
                if w == pu and not frame[3]:
                    frame[3] = True
                    continue
                if w not in disc:
                    disc[w] = low[w] = timer
                    timer += 1
                    estack.append(norm_edge(u, w))
                    frame[2] = ptr
                    stack.append([w, u, 0, False])
                    pushed = True
                    break
                if disc[w] < disc[u]:
                    estack.append(norm_edge(u, w))
                    if disc[w] < low[u]:
                        low[u] = disc[w]
            if pushed:
                continue
            frame[2] = ptr
            stack.pop()
            if pu != -1:
                if low[u] < low[pu]:
                    low[pu] = low[u]
                if low[u] >= disc[pu]:
                    blk: list[Pair] = []
                    tree_edge = norm_edge(pu, u)
                    while estack:
                        e = estack.pop()
                        blk.append(e)
                        if e == tree_edge:
                            break
                    out.append(tuple(sorted(blk)))
    return out


# ---------------------------------------------------------------------------
# density peeling


def _peel(G: Graph, threshold: Fraction) -> Graph:
    """Repeatedly delete the smallest vertex of degree < threshold."""
    adj = {v: set(ns) for v, ns in G.adjacency().items()}
    import heapq

    def low(v: int) -> bool:
        return len(adj[v]) < threshold

    heap = [v for v in G.vertices if low(v)]
    heapq.heapify(heap)
    dead: set[int] = set()
    while heap:
        v = heapq.heappop(heap)
        if v in dead or not low(v):
            continue
        dead.add(v)
        for w in adj[v]:
            adj[w].discard(v)
            if w not in dead and low(w):
                heapq.heappush(heap, w)
        adj[v] = set()
    alive = [v for v in G.vertices if v not in dead]
    return Graph.build(alive, [e for e in G.edges if e[0] not in dead and e[1] not in dead])


def min_degree_core(G: Graph) -> Graph:
    """Subgraph with average degree >= d(G) and min degree >= d(G)/2."""
    if G.e == 0:
        return G
    return _peel(G, G.average_degree() / 2)


# ---------------------------------------------------------------------------
# maximal paths, closures, rotation


def _maximal_extend(adj: dict[int, list[int]], path: list[int]) -> list[int]:
    inpath = set(path)
    grown = True
    while grown:
        grown = False
        for w in adj[path[-1]]:
            if w not in inpath:
                path.append(w)
                inpath.add(w)
                grown = True
                break
    grown = True
    while grown:
        grown = False
        for w in adj[path[0]]:
            if w not in inpath:
                path.insert(0, w)
                inpath.add(w)
                grown = True
                break
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


def _reopen(adj: dict[int, list[int]], cycle: list[int]) -> Optional[list[int]]:
    """Longer path from a spanning cycle plus an outside attachment."""
    cset = set(cycle)
    for idx, u in enumerate(cycle):
        for w in adj[u]:
            if w not in cset:
                return [w] + cycle[idx:] + cycle[:idx]
    return None


def _cycle_arcs(cycle_path: list[int], u: int, v: int) -> tuple[list[int], list[int]]:
    """Both arcs between u and v around the cycle v_0..v_k (chord closing it)."""
    iu, iv = cycle_path.index(u), cycle_path.index(v)
    if iu > iv:
        iu, iv = iv, iu
    inner = cycle_path[iu : iv + 1]
    outer = cycle_path[iv:] + cycle_path[: iu + 1]
    return inner, outer


def _longer_arc(cycle_path: list[int], u: int, v: int) -> list[int]:
    a, b = _cycle_arcs(cycle_path, u, v)
    arc = a if len(a) >= len(b) else b
    if arc[0] != u:
        arc = arc[::-1]
    return arc


def two_disjoint_paths(G: Graph, A: Iterable[int], B: Iterable[int]):
    """Two vertex-disjoint A-B paths with interiors outside A and B, or None.

    Unit-vertex-capacity max flow with two BFS augmentations.
    """
    Aset, Bset = set(A), set(B)
    if Aset & Bset:
        raise PreconditionUnmet("A and B must be disjoint")
    adj = G.adjacency()
    # residual graph over nodes ('in', v) / ('out', v) plus 'S', 'T'
    cap: dict[tuple, dict[tuple, int]] = {}

    def add(u, v, c):
        cap.setdefault(u, {})[v] = cap.setdefault(u, {}).get(v, 0) + c
        cap.setdefault(v, {}).setdefault(u, 0)

    for v in G.vertices:
        add(("in", v), ("out", v), 1)
    for u, v in G.edges:
        add(("out", u), ("in", v), 1)
        add(("out", v), ("in", u), 1)
    for a in sorted(Aset):
        add("S", ("in", a), 1)
    for b in sorted(Bset):
        add(("out", b), "T", 1)

    def bfs_augment() -> bool:
        prev: dict = {"S": None}
        q = deque(["S"])
        while q:
            u = q.popleft()
            if u == "T":
                break
            for w in sorted(cap.get(u, {}), key=str):
                if w not in prev and cap[u][w] > 0:
                    prev[w] = u
                    q.append(w)
        if "T" not in prev:
            return False
        node = "T"
        while prev[node] is not None:
            p = prev[node]
            cap[p][node] -= 1
            cap[node][p] += 1
            node = p
        return True

    if not (bfs_augment() and bfs_augment()):
        return None
    # extract the two paths by walking saturated vertex capacities
    succ: dict[int, int] = {}
    for v in G.vertices:
        if cap[("in", v)][("out", v)] == 0:  # used vertex
            for w in sorted(adj[v]):
                if cap.get(("out", v), {}).get(("in", w), 1) == 0:
                    succ[v] = w
                    break
    paths = []
    starts = [a for a in sorted(Aset) if cap["S"][("in", a)] == 0]
    for a in starts:
        path = [a]
        while path[-1] not in Bset:
            path.append(succ[path[-1]])
        # trim so interiors avoid A and B
        last_a = max(i for i, v in enumerate(path) if v in Aset)
        path = path[last_a:]
        first_b = next(i for i, v in enumerate(path) if v in Bset)
        paths.append(path[: first_b + 1])
    if len(paths) != 2 or len({p[0] for p in paths}) != 2 or len({p[-1] for p in paths}) != 2:
        return None
    return paths[0], paths[1]


def _stuck_candidates(G: Graph, adj, path: list[int]) -> list[list[int]]:
    """Cycle candidates from a maximal path with no closure."""
    x, y = path[0], path[-1]
    p = len(path) - 1
    pos = {v: i for i, v in enumerate(path)}
    I = sorted(pos[w] for w in adj[x] if w in pos)
    J = sorted(pos[w] for w in adj[y] if w in pos)
    cands: list[list[int]] = []
    i_star, j_star = max(I), min(J)
    if i_star >= 2:
        cands.append(path[: i_star + 1])
    if p - j_star >= 2:
        cands.append(path[j_star:])
    # straddle cycles: a in I, c in J with c < a, closed through both ends
    bmax = max(J)
    jset = set(J)
    best: Optional[tuple[int, int]] = None
    ci = 0
    # minimize a - c over c in J, a in I, c < a <= bmax
    for a in I:
        if a > bmax:
            break
        cs = [c for c in J if c < a]
        if cs:
            c = max(cs)
            if best is None or a - c < best[0] - best[1]:
                best = (a, c)
    if best is not None:
        a, c = best
        cyc = [x] + path[a : bmax + 1] + [y] + path[c:0:-1]
        if len(cyc) >= 3 and len(set(cyc)) == len(cyc):
            cands.append(cyc)
    # merge the two end cycles through disjoint connectors
    if i_star <= j_star and i_star >= 1 and j_star <= p - 1:
        c0 = path[: i_star + 1]
        cp = path[j_star:]
        if i_star < j_star:
            dp = two_disjoint_paths(G, c0, cp)
            if dp:
                q1, q2 = dp
                arc0 = _longer_arc(c0, q1[0], q2[0])
                arcp = _longer_arc(cp, q2[-1], q1[-1])
                cyc = arc0 + q2[1:-1] + arcp + q1[::-1][1:-1]
                if len(set(cyc)) == len(cyc) and len(cyc) >= 3:
                    cands.append(cyc)
        else:
            t = path[i_star]
            r = shortest_path(adj, [v for v in c0 if v != t], [v for v in cp if v != t], {t})
            if r:
                arc0 = _longer_arc(c0, r[0], t)
                arcp = _longer_arc(cp, t, r[-1])
                cyc = arc0 + arcp[1:] + r[::-1][1:-1]
                if len(set(cyc)) == len(cyc) and len(cyc) >= 3:
                    cands.append(cyc)
    return cands


def _cycle_is_valid(adj, cyc: list[int]) -> bool:
    if len(cyc) < 3 or len(set(cyc)) != len(cyc):
        return False
    return all(cyc[(i + 1) % len(cyc)] in adj[cyc[i]] for i in range(len(cyc)))


def longest_cycle_exact(G: Graph) -> Optional[list[int]]:
    """Exact longest cycle by bitmask DP over anchored paths; for n <= 12."""
    vs = list(G.vertices)
    idx = {v: i for i, v in enumerate(vs)}
    n = len(vs)
    adjm = [0] * n
    for u, v in G.edges:
        adjm[idx[u]] |= 1 << idx[v]
        adjm[idx[v]] |= 1 << idx[u]
    best: Optional[list[int]] = None
    for a in range(n):
        # cycles whose smallest vertex index is a
        allowed = -1 << a
        start = 1 << a
        prev: dict[tuple[int, int], int] = {(start, a): -1}
        frontier = [(start, a)]
        depth = 1
        while frontier:
            nxt: list[tuple[int, int]] = []
            for mask, v in frontier:
                m = adjm[v] & allowed & ~mask
                while m:
                    b = m & -m
                    w = b.bit_length() - 1
                    key = (mask | b, w)
                    if key not in prev:
                        prev[key] = v
                        nxt.append(key)
                    m ^= b
            depth += 1
            frontier = nxt
            if depth < 3:
                continue
            for mask, v in sorted(frontier):
                if adjm[v] & (1 << a) and (best is None or depth > len(best)):
                    seq = [v]
                    mk = mask
                    while seq[-1] != a:
                        p = prev[(mk, seq[-1])]
                        mk ^= 1 << seq[-1]
                        seq.append(p)
                    best = [vs[i] for i in reversed(seq)]
    return best


# ---------------------------------------------------------------------------
# density-guaranteed long paths and cycles

_DP_LIMIT = 12


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
            # au ends at the meet; drop it from one side
            cyc = au + av[::-1][1:] if au[-1] == av[-1] else None
            if cyc and len(cyc) >= 3 and len(set(cyc)) == len(cyc):
                if _cycle_is_valid(adj, cyc):
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
        if len(cyc) - 1 >= m + 1:
            return cyc
        reopened = _reopen(adj, cyc)
        if reopened is None:
            # spanning cycle: component order exceeds m+1, open it anywhere
            if len(cyc) - 1 >= m + 1:
                return cyc
            raise InternalProofFailure("path rotation", "spanning cycle below bound")
        path = _maximal_extend(adj, reopened)
    raise InternalProofFailure("path rotation", "no progress")


def long_cycle_from_density(G: Graph, m: int) -> list[int]:
    """A cycle with at least m+1 edges, given e(G) > m*(n-1)/2. Vertex list.

    The closing edge (last vertex back to first) is implicit.
    """
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
        blk = None
        for cand in blks:
            nb = len({v for e in cand for v in e})
            if 2 * len(cand) > m * (nb - 1):
                blk = cand
                break
        if blk is None:
            raise InternalProofFailure("block selection", "no block meets the bound")
        work = comp.edge_subgraph(blk)
    if H is None:
        raise InternalProofFailure("core narrowing", "did not stabilize")
    adj = H.adjacency()
    path = _maximal_extend(adj, [H.vertices[0]])
    best: Optional[list[int]] = None
    for _ in range(H.n + 1):
        cyc = _close(adj, path)
        if cyc is not None:
            if len(cyc) >= m + 1:
                return cyc
            best = cyc if best is None or len(cyc) > len(best) else best
            reopened = _reopen(adj, cyc)
            if reopened is None:
                break  # spanning cycle below bound; fall through to candidates
            path = _maximal_extend(adj, reopened)
            continue
        for cand in _stuck_candidates(H, adj, path):
            if _cycle_is_valid(adj, cand) and (best is None or len(cand) > len(best)):
                best = cand
        break
    if best is not None and len(best) >= m + 1:
        return best
    if H.n <= _DP_LIMIT:
        exact = longest_cycle_exact(H)
        if exact is not None and len(exact) >= m + 1:
            return exact
    raise InternalProofFailure(
        "cycle extraction",
        f"bound m+1={m + 1} unmet (best {len(best) if best else 0}, n={H.n})",
    )
