"""Independent brute-force reference implementations used only by tests.

These deliberately share no code with the package's search paths: spines
are enumerated by raw permutation, assignments by exhaustive recursion.
The exceptions are `naive_sweep`, the skeleton sweep as a from-scratch
loop: it looks for each root, the smallest vertex with an alive edge, and
for the tree's incident edges by scanning every alive edge, and reuses the
package's skeleton build; and `naive_levels_once`, its per-skeleton step,
the sweep's level loop as it was before levels with empty within and up
classes skipped the level dichotomy, calling the package's routes; and
`naive_turan`, the exact Turán search as it was before freeness answers
were filed: it calls the package's kernel for every check; and
`naive_split_by_codegree`, the co-degree split with its initial entries
heapified rather than trusted to come out sorted, and each entry's mark
and largest co-degree read by separate scans of the slice map; and
`naive_build_skeleton` / `naive_classify_levels`, the skeleton build and
level classification with the generic per-edge loops
they had before they unpacked each edge's three vertices; and
`naive_parse`, the `.hg` reader's per-line loop as it was before canonical
documents were read in bulk; and `naive_from_edges`, `Hypergraph.from_edges`
as the per-edge loop it was before edges of one size were checked in bulk;
and `naive_derandomized_good_set`, the good-set choice computed with
`Fraction` probabilities, as it was before they became integer weights;
and `naive_blocks`, the biconnected components by the lowpoint search with
an edge stack and a sort per block, as they were before the search kept a
vertex stack; and `naive_steiner_triple`, `naive_permuted`,
`naive_serialize` and `naive_bulk_edges`, the Steiner triple constructions
(a q x q quasigroup table, each triple sorted), the relabelling through
`from_edges`, the per-edge writer and the bulk edge check (each edge sorted
first), as they were before instances were built and written in bulk; and
`naive_linear_xy_path`, the shortest-lift linear path with its full
linearity scan and whole shadow graph, as it was before its BFS read a
shadow built on demand; and `naive_frame`, the common-ancestor frame with
its anchor found by intersecting ancestor sets instead of walking the
root-to-w paths in step; and `naive_pair_projection`, the pair projection
of 3-edges with each edge's kept vertices found by sorting, as each route
wrote it before they shared one routine.
`tree_vertices` and `color_class` are the one-line views the package's
`Skeleton` and `ColoredGraph` no longer carry.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from fractions import Fraction
from itertools import chain, combinations, permutations
from operator import eq, lt


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
    """Skeleton sweep that roots each skeleton at the smallest vertex with an
    alive edge and finds the tree's incident edges by scanning every alive
    edge; Theta(iterations * m)."""
    from bergelab import finder as fd
    from bergelab.errors import InternalProofFailure
    from bergelab.hypergraph import average_degree

    guaranteed = average_degree(H) >= 21 * (k + 1)
    alive = set(range(len(H.edges)))
    while alive:
        root = min(v for ei in alive for v in H.edges[ei])
        live = bytearray(len(H.edges))
        for ei in alive:
            live[ei] = 1
        sk = fd.build_skeleton(H, root, live)
        run = naive_levels_once(H, sk, k)
        if run is not None:
            return run
        vt = tree_vertices(sk)
        incident = {ei for ei in alive if set(H.edges[ei]) & vt}
        if len(incident) >= 7 * (k + 1) * len(vt):
            raise InternalProofFailure("sweep counting", "naive")
        alive -= incident
    if guaranteed:
        raise InternalProofFailure("sweep exhaustion", "naive")
    return None


def naive_levels_once(H, sk, k):
    """`finder._levels_once` running the level dichotomy at every level."""
    from bergelab.finder import (
        ConsecutiveRun,
        classify_levels,
        cycles_from_down_edges,
        cycles_or_level_bound,
    )

    down = classify_levels(H, sk).down
    for i in range(1, sk.height + 1):
        if len(down[i]) >= (k + 2) * len(sk.levels[i]):
            return cycles_from_down_edges(H, sk, i, k)
    for i in range(1, sk.height + 1):
        res = cycles_or_level_bound(H, sk, i, k)
        if isinstance(res, ConsecutiveRun):
            return res
    return None


def naive_derandomized_good_set(H, entries):
    """`finder._derandomized_good_set` with exact `Fraction` probabilities."""
    from bergelab.hypergraph import cover_lists

    info = [(mark, next(v for v in H.edges[ei] if v not in mark)) for ei, mark in entries]
    touch = cover_lists([H.edges[ei] for ei, _ in entries], 1)
    state = {}

    def prob(idx):
        mark, t = info[idx]
        p = Fraction(1)
        for v in mark:
            if v in state:
                if not state[v]:
                    return Fraction(0)
            else:
                p *= Fraction(2, 3)
        if t in state:
            if state[t]:
                return Fraction(0)
        else:
            p *= Fraction(1, 3)
        return p

    for (v,), idxs in sorted(touch.items()):
        gain_in = gain_out = Fraction(0)
        for idx in idxs:
            base = prob(idx)
            state[v] = True
            gain_in += prob(idx) - base
            state[v] = False
            gain_out += prob(idx) - base
            del state[v]
        state[v] = gain_in >= gain_out
    out = []
    for idx, (ei, mark) in enumerate(entries):
        t = info[idx][1]
        if all(state.get(v, False) for v in mark) and not state.get(t, False):
            out.append((ei, mark))
    return out


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


def naive_build_skeleton(H, root, live=None):
    """`skeleton.build_skeleton` with its list-building per-edge loop, and
    its classes by `naive_classify_levels`. The edges with a set byte in
    `live` (default: all) are active; the mask is read, never changed."""
    from bergelab.errors import PreconditionUnmet
    from bergelab.graphs import norm_edge
    from bergelab.hypergraph import incidence
    from bergelab.skeleton import Skeleton

    if H.uniformity != 3:
        raise PreconditionUnmet("skeletons are built on 3-graphs")
    if not (0 <= root < H.n):
        raise PreconditionUnmet(f"root {root} out of range")
    m = len(H.edges)
    active = set(range(m)) if live is None else {ei for ei in range(m) if live[ei]}
    inc = incidence(H)
    parent = {root: -1}
    level = {root: 0}
    edge_for = {}
    processed = []
    q = deque([root])
    while q:
        u = q[0]
        for ei in inc[u]:
            if ei in processed or ei not in active:
                continue
            others = [w for w in H.edges[ei] if w != u]
            fresh = [w for w in others if w not in parent]
            if fresh:
                v = min(fresh)
                parent[v] = u
                level[v] = level[u] + 1
                edge_for[norm_edge(u, v)] = ei
                q.append(v)
            processed.append(ei)
        q.popleft()
    levels = [[] for _ in range(max(level.values()) + 1)]
    for v, l in level.items():
        levels[l].append(v)
    return Skeleton(
        root=root,
        parent=parent,
        edge_for=edge_for,
        levels=tuple(tuple(sorted(lv)) for lv in levels),
        level_of=level,
        classes=naive_classify_levels(H, level, set(edge_for.values()), active),
        read=processed,
    )


def naive_classify_levels(H, level_of, tree_images, active):
    """The level classes with a sorted level list per edge, over every
    active edge that meets the tree and is no tree image."""
    from bergelab.errors import ClassificationFailure
    from bergelab.hypergraph import incidence
    from bergelab.skeleton import LevelEdgeClasses

    inc = incidence(H)
    meeting = sorted({ei for v in level_of for ei in inc[v] if ei in active})
    h = max(level_of.values())
    down = [[] for _ in range(h + 2)]
    within = [[] for _ in range(h + 2)]
    up = [[] for _ in range(h + 2)]
    residual = []
    for ei in meeting:
        if ei in tree_images:
            continue
        lv = [level_of.get(v) for v in H.edges[ei]]
        if None in lv:
            residual.append(ei)
            continue
        lv.sort()
        if lv[0] == lv[1] == lv[2]:
            within[lv[0]].append(ei)
        elif lv[0] + 1 == lv[1] == lv[2]:
            down[lv[1]].append(ei)
        elif lv[0] == lv[1] == lv[2] - 1:
            up[lv[0]].append(ei)
        else:
            residual.append(ei)
    if residual:
        raise ClassificationFailure(
            f"{len(residual)} incident edges fit no class: {residual[:5]}"
        )
    return LevelEdgeClasses(
        down=tuple(tuple(x) for x in down),
        within=tuple(tuple(x) for x in within),
        up=tuple(tuple(x) for x in up),
    )


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


def naive_parse(text):
    """The `.hg` reader as one per-line loop: same accepted documents, same
    hypergraph, same exception and message for the first bad line."""
    from bergelab.errors import (
        DuplicateEdge,
        EdgeSizeMismatch,
        MalformedLine,
        VertexOutOfRange,
    )
    from bergelab.hypergraph import Hypergraph

    lines = text.splitlines()
    if not lines:
        raise MalformedLine("empty document")
    head = lines[0].split()
    if len(head) != 3:
        raise MalformedLine(f"header must be 'r n m', got {lines[0]!r}")
    try:
        r, n, m = (int(tok) for tok in head)
    except ValueError:
        raise MalformedLine(f"non-integer header field in {lines[0]!r}") from None
    if r < 0 or n < 0 or m < 0:
        raise MalformedLine("negative header field")
    if r == 1:
        raise MalformedLine("uniformity 1 is not a hypergraph of edges")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != m:
        raise MalformedLine(f"header promises {m} edges, found {len(body)}")
    edges = []
    seen = set()
    for ln in body:
        try:
            verts = [int(tok) for tok in ln.split()]
        except ValueError:
            raise MalformedLine(f"non-integer vertex id in {ln!r}") from None
        e = tuple(sorted(set(verts)))
        if r > 0:
            if len(verts) != r or len(e) != r:
                raise EdgeSizeMismatch(f"edge {ln!r} is not a {r}-set")
        else:
            if len(e) != len(verts):
                raise MalformedLine(f"edge {ln!r} repeats a vertex")
            if len(e) < 2:
                raise EdgeSizeMismatch(f"edge {ln!r} has fewer than 2 vertices")
        if e and (e[0] < 0 or e[-1] >= n):
            raise VertexOutOfRange(f"edge {ln!r} leaves 0..{n - 1}")
        if e in seen:
            raise DuplicateEdge(f"edge {e} appears twice")
        seen.add(e)
        edges.append(e)
    edges.sort()
    if r == 0:
        sizes = {len(e) for e in edges}
        r = sizes.pop() if len(sizes) == 1 else 0
    return Hypergraph(n=n, edges=tuple(edges), uniformity=r or None)


def naive_from_edges(n, edges, uniformity=None):
    """`Hypergraph.from_edges` as one per-edge loop: same hypergraph, same
    exception and message for the first bad edge."""
    from bergelab.errors import (
        DuplicateEdge,
        EdgeSizeMismatch,
        MalformedLine,
        VertexOutOfRange,
    )
    from bergelab.hypergraph import Hypergraph

    canon = []
    seen = set()
    for raw in edges:
        raw = tuple(raw)
        e = tuple(sorted(set(raw)))
        if len(e) != len(raw):
            raise MalformedLine(f"edge {raw} repeats a vertex")
        if len(e) < 2:
            raise EdgeSizeMismatch(f"edge {e} has fewer than 2 vertices")
        if e[0] < 0 or e[-1] >= n:
            raise VertexOutOfRange(f"edge {e} leaves 0..{n - 1}")
        if e in seen:
            raise DuplicateEdge(f"edge {e} appears twice")
        seen.add(e)
        canon.append(e)
    canon.sort()
    sizes = {len(e) for e in canon}
    if uniformity is not None and sizes - {uniformity}:
        raise EdgeSizeMismatch(
            f"declared uniformity {uniformity}, edges have sizes {sorted(sizes)}"
        )
    if sizes:
        uniformity = sizes.pop() if len(sizes) == 1 else None
    return Hypergraph(n=n, edges=tuple(canon), uniformity=uniformity)


def naive_blocks(G):
    """`graphs.blocks` with an edge stack: same blocks, same order (by
    completion), each block's edges sorted."""
    from bergelab.graphs import norm_edge

    adj = G.adjacency()
    disc = {}
    low = {}
    out = []
    estack = []
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
                    blk = []
                    tree_edge = norm_edge(pu, u)
                    while estack:
                        e = estack.pop()
                        blk.append(e)
                        if e == tree_edge:
                            break
                    out.append(tuple(sorted(blk)))
    return out


def naive_frame(parent, W):
    """`skeleton.frame_from_parent` by ancestor sets: the anchor is the
    deepest vertex that is an ancestor of every member of W, or a member
    itself. None when W is empty or the anchor is in W; otherwise (colour,
    anchor .. w path for each w), where each path below the anchor takes
    colour 1 if it passes through the smallest anchor child any path uses,
    and 2 otherwise."""

    def up(v):  # v .. root
        out = [v]
        while parent[out[-1]] != -1:
            out.append(parent[out[-1]])
        return out

    W = set(W)
    if not W:
        return None
    common = set.intersection(*(set(up(w)) for w in W))
    anchor = max(common, key=lambda v: len(up(v)))
    if anchor in W:
        return None
    below = {w: up(w)[: up(w).index(anchor)] for w in W}  # w .. the anchor's child
    first = min(p[-1] for p in below.values())
    color = {v: 1 if p[-1] == first else 2 for p in below.values() for v in p}
    return color, {w: [anchor] + p[::-1] for w, p in below.items()}


def tree_vertices(sk):
    """The vertices of a skeleton's tree."""
    return set(sk.parent)


def color_class(cg, c):
    """The edges of a two-coloured graph that have colour c, in edge order."""
    return [e for e in cg.graph.edges if cg.edge_color[e] == c]


def naive_steiner_triple(n):
    """STS(n) via Bose (n = 6t+3) or Skolem (n = 6t+1), with the quasigroup
    as a q x q table and every triple sorted."""
    from bergelab.hypergraph import Hypergraph

    def vid(x, j):
        return 3 * x + j

    if n % 6 == 3:
        t = (n - 3) // 6
        q = 2 * t + 1
        inv2 = (t + 1) % q
        triples = [tuple(sorted((vid(x, 0), vid(x, 1), vid(x, 2)))) for x in range(q)]
        table = [[((x + y) * inv2) % q for y in range(q)] for x in range(q)]
    else:
        assert n % 6 == 1 and n >= 7
        t = (n - 1) // 6
        q = 2 * t

        def g(s):
            return s // 2 if s % 2 == 0 else t + (s - 1) // 2

        table = [[g((x + y) % q) for y in range(q)] for x in range(q)]
        for row in table:
            assert sorted(row) == list(range(q))
        infinity = n - 1
        triples = [tuple(sorted((vid(x, 0), vid(x, 1), vid(x, 2)))) for x in range(t)]
        for x in range(t, q):
            triples.append(tuple(sorted((infinity, vid(x, 0), vid(x - t, 1)))))
            triples.append(tuple(sorted((infinity, vid(x, 1), vid(x - t, 2)))))
            triples.append(tuple(sorted((infinity, vid(x, 2), vid(x - t, 0)))))
    for j in range(3):
        for x in range(q):
            for y in range(x + 1, q):
                z = table[x][y]
                triples.append(tuple(sorted((vid(x, j), vid(y, j), vid(z, (j + 1) % 3)))))
    return Hypergraph.from_edges(n, triples)


def naive_permuted(H, seed):
    """H relabelled by the seeded permutation, through `from_edges`."""
    from bergelab.hypergraph import Hypergraph

    rng = random.Random(seed)
    perm = list(range(H.n))
    rng.shuffle(perm)
    return Hypergraph.from_edges(
        H.n, [tuple(sorted(perm[v] for v in e)) for e in H.edges], H.uniformity
    )


def naive_serialize(H):
    """The canonical writer, one join per edge."""
    r = H.uniformity if H.uniformity is not None else 0
    out = [f"{r} {H.n} {len(H.edges)}"]
    out.extend(" ".join(str(v) for v in e) for e in H.edges)
    return "\n".join(out) + "\n"


def naive_bulk_edges(n, raws):
    """The bulk edge check with every edge sorted first: the sorted edge
    list, or None for mixed sizes, a size below 2, a repeated vertex, an id
    outside 0..n-1, a duplicate edge or ids that do not compare."""
    if not raws:
        return []
    r = len(raws[0])
    if r < 2 or len(set(map(len, raws))) != 1:
        return None
    try:
        canon = list(map(tuple, map(sorted, raws)))
        flat = list(chain.from_iterable(canon))
        distinct = all(all(map(lt, flat[i::r], flat[i + 1 :: r])) for i in range(r - 1))
        if not distinct or min(flat[0::r]) < 0 or max(flat[r - 1 :: r]) >= n:
            return None
        canon.sort()
    except TypeError:
        return None
    if any(map(eq, canon, canon[1:])):
        return None
    return canon


def naive_linear_xy_path(H, X, Y, edge_ids):
    """The shortest-lift linear path as it was before its BFS read a lazy
    view shadow: every view pair scanned for linearity, then the view's
    whole shadow `Graph` and adjacency built for the BFS."""
    from bergelab.errors import Disconnected, InternalProofFailure, NotLinear, PreconditionUnmet
    from bergelab.graphs import Graph, norm_edge, shortest_path
    from bergelab.hypergraph import cover_lists
    from bergelab.pathtools import LinearPathWitness, check_linear_path

    ids = sorted(edge_ids)
    Xs, Ys = set(X), set(Y)
    if not Xs or not Ys or Xs & Ys:
        raise PreconditionUnmet("X and Y must be disjoint and nonempty")
    view = [H.edges[i] for i in ids]
    cov = cover_lists(view, 2)
    for j, e in enumerate(view):
        for p in combinations(e, 2):
            if cov[p][0] != j:
                raise NotLinear(f"pair {p} has co-degree above 1")
    shadow = Graph(tuple(sorted({v for e in view for v in e})), tuple(sorted(cov)))
    spine = shortest_path(shadow.adjacency(), Xs, Ys)
    if spine is None:
        raise Disconnected("no shadow path between X and Y")
    eids = [ids[cov[norm_edge(a, b)][0]] for a, b in zip(spine, spine[1:])]
    dedup = []
    for e in eids:
        if not dedup or dedup[-1] != e:
            dedup.append(e)
    if not check_linear_path(H, dedup):
        raise InternalProofFailure("shortest-lift", "lifted path is not linear")
    return LinearPathWitness(edges=tuple(dedup), endpoints=(spine[0], spine[-1]))


def naive_pair_projection(H, ids, keep):
    """`pathtools.pair_projection` by sorting each edge's vertices in `keep`:
    the pair graph, built by `Graph.build`, `edge_of` and `third`. An edge
    with three or with fewer than two kept vertices raises PreconditionUnmet
    and a pair met twice NotLinear, each at the first edge in `ids` order
    that shows it."""
    from bergelab.errors import NotLinear, PreconditionUnmet
    from bergelab.graphs import Graph

    edge_of, third = {}, {}
    for ei in ids:
        e = H.edges[ei]
        pair = tuple(sorted(v for v in e if v in keep))
        if len(pair) == 3:
            raise PreconditionUnmet(f"edge {e} has three vertices in keep")
        if len(pair) < 2:
            raise PreconditionUnmet(f"edge {e} has fewer than two vertices in keep")
        if pair in edge_of:
            raise NotLinear(f"projection pair {pair} repeats")
        edge_of[pair] = ei
        (third[pair],) = (v for v in e if v not in keep)
    return Graph.build({v for p in edge_of for v in p}, edge_of), edge_of, third
