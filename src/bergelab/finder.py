"""Consecutive-run finders.

The linear-3-graph engine classifies each skeleton level's incident edges
and either extracts k Berge cycles of consecutive lengths (through the
ancestor frame and the path machinery) or certifies the level is sparse;
sweeping skeletons off the hypergraph turns the per-level dichotomy into
the density guarantees. Reduction routes (one 3-subset per edge, co-degree
splitting, tight paths) bring general r-graphs down to that engine.

Runs are certificates: every cycle is re-verified before a run is
returned, and dichotomies surface their counting as exact inequalities.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence, Union

from .certify import BergeCycleWitness, verify_cycle
from .errors import (
    InternalProofFailure,
    NotLinear,
    PreconditionUnmet,
)
from .graphs import Graph, densest_component, long_path_from_density, norm_edge
from .hypergraph import (
    Hypergraph,
    average_degree,
    cover_lists,
    covered_vertices,
    edge_components,
    incidence,
    is_linear,
    prefix_3graph,
)
from .pathtools import (
    ColoredGraph,
    consecutive_even_cycles,
    edges_along,
    pair_projection,
    special_linear_path,
    special_path,
    tripartite_ladder,
)
from .skeleton import (
    Frame,
    Skeleton,
    build_skeleton,
    classify_levels,
    frame_from_parent,
)


@dataclass(frozen=True)
class ConsecutiveRun:
    """k verified Berge cycles whose lengths fill [a, a+k-1], a <= shortest_bound."""

    k: int
    cycles: tuple[BergeCycleWitness, ...]
    shortest_bound: int

    def lengths(self) -> tuple[int, ...]:
        return tuple(w.length for w in self.cycles)


def validate_run(H: Hypergraph, run: ConsecutiveRun) -> None:
    lens = run.lengths()
    if len(lens) != run.k or sorted(lens) != list(lens):
        raise InternalProofFailure("run shape", f"lengths {lens}")
    if any(b - a != 1 for a, b in zip(lens, lens[1:])):
        raise InternalProofFailure("run shape", f"not consecutive: {lens}")
    if lens and lens[0] > run.shortest_bound:
        raise InternalProofFailure(
            "run bound", f"shortest {lens[0]} exceeds {run.shortest_bound}"
        )
    for w in run.cycles:
        res = verify_cycle(H, w)
        if not res:
            raise InternalProofFailure("run witness", res.reason or "")


@dataclass(frozen=True)
class LevelEdgeBound:
    """Certified sparsity of one level's within/up classes."""

    level: int
    counted: int
    bound: Fraction

    def __post_init__(self):
        if self.counted > self.bound:
            raise InternalProofFailure(
                "level bound", f"counted {self.counted} above bound {self.bound}"
            )


@dataclass(frozen=True)
class TightPath:
    """Vertex sequence whose every r-window is an edge."""

    vertices: tuple[int, ...]
    r: int

    @property
    def length(self) -> int:
        return len(self.vertices) - self.r + 1

    def windows(self) -> list[tuple[int, ...]]:
        return [
            tuple(sorted(self.vertices[i : i + self.r])) for i in range(self.length)
        ]


@dataclass(frozen=True)
class DenseCore:
    edge_ids: tuple[int, ...]


@dataclass(frozen=True)
class MarkedSlice:
    """Greedy slice: (representative edge, marked (r-1)-subset, subset has
    co-degree 1 within the slice) triples, in representative order; marked
    subsets are distinct and each is contained in its representative.
    `covers` maps each (r-1)-subset inside a representative to the
    positions in `entries` of the representatives covering it, in
    ascending order. `max_codegree[j]` is the largest slice co-degree,
    `len(covers[s])`, over the (r-1)-subsets s of entry j's
    representative."""

    entries: tuple[tuple[int, tuple[int, ...], bool], ...]
    covers: dict[tuple[int, ...], list[int]]
    max_codegree: tuple[int, ...]


# ---------------------------------------------------------------------------
# assembly helpers


def _close_through_tree(
    H: Hypergraph,
    sk: Skeleton,
    frame: Frame,
    path_vertices: Sequence[int],
    path_edges: Sequence[int],
) -> BergeCycleWitness:
    """Close an extendable path between two members of the frame's W through
    the tree paths from the anchor down to them."""
    X = frame.paths[path_vertices[0]][frame.top :]  # anchor .. x
    Y = frame.paths[path_vertices[-1]][frame.top :]  # anchor .. y
    tree = sk.edge_for
    edges = edges_along(tree, X) + list(path_edges) + edges_along(tree, Y[::-1])
    w = BergeCycleWitness(tuple(frame.close(path_vertices)), tuple(edges))
    res = verify_cycle(H, w)
    if not res:
        raise InternalProofFailure("tree closure", f"{res.reason}: {res.detail}")
    return w


# ---------------------------------------------------------------------------
# the two per-level routes


def cycles_from_down_edges(H: Hypergraph, sk: Skeleton, i: int, k: int) -> ConsecutiveRun:
    """Run of k consecutive lengths from a heavy down-class at level i
    (edges with two vertices in L_i and one in L_{i-1}); shortest <= 2i."""
    if k < 1 or i < 1 or i > sk.height:
        raise PreconditionUnmet("need k >= 1 and a level inside the tree")
    down = classify_levels(H, sk).down[i]
    li = len(sk.levels[i])
    if len(down) < (k + 2) * li:
        raise PreconditionUnmet(f"need |down_{i}| >= {(k + 2) * li}, have {len(down)}")
    # a down edge has two vertices in L_i and its third in L_{i-1}
    proj, edge_of, third = pair_projection(H, down, set(sk.levels[i]))
    comp = densest_component(proj)
    if comp.average_degree() < 2 * k + 4:
        raise InternalProofFailure("component density", f"d = {comp.average_degree()}")
    per_conbr = Counter(map(third.__getitem__, comp.edges))
    if len(per_conbr) < 2:
        raise InternalProofFailure("co-neighbors", "a single link must be a matching")
    frame = frame_from_parent(sk.parent, per_conbr)
    if frame is None:
        raise InternalProofFailure("ancestor frame", "co-neighbors on a single branch")
    color_of = frame.color
    # an edge takes its co-neighbour's colour; colour 1 names the larger class
    twos = sum(cnt for t, cnt in per_conbr.items() if color_of[t] == 2)
    if 2 * twos > comp.e:
        color_of = {t: 3 - color_of[t] for t in per_conbr}
    cg = ColoredGraph(comp, {e: color_of[third[e]] for e in comp.edges})
    try:  # a component by `densest_component`'s BFS, so connected
        sp = special_path(cg, k + 1, connected=True)
    except PreconditionUnmet as exc:
        raise InternalProofFailure("special path", str(exc)) from exc
    walk = sp.vertices
    along = edges_along(edge_of, walk[: k + 2])
    x = third[norm_edge(walk[0], walk[1])]
    cycles = []
    for l in range(1, k + 1):
        y = third[norm_edge(walk[l], walk[l + 1])]
        pathv = [x, *walk[1 : l + 1], y]
        cycles.append(_close_through_tree(H, sk, frame, pathv, along[: l + 1]))
    run = ConsecutiveRun(k=k, cycles=tuple(cycles), shortest_bound=2 * i)
    validate_run(H, run)
    return run


def cycles_or_level_bound(
    H: Hypergraph, sk: Skeleton, i: int, k: int
) -> Union[ConsecutiveRun, LevelEdgeBound]:
    """The level dichotomy: either a run with shortest length <= 2i+2, or a
    certificate that the within/up classes at level i are sparse."""
    if k < 1 or i < 1 or i > sk.height:
        raise PreconditionUnmet("need k >= 1 and a level inside the tree")
    classes = classify_levels(H, sk)
    within, up = classes.within[i], classes.up[i]
    ids = [*within, *up]
    li = len(sk.levels[i])
    li1 = len(sk.levels[i + 1]) if i + 1 <= sk.height else 0
    # (7k/2 + 1) li + (5k/2 + 2) li1, over one denominator
    bound = Fraction(7 * k * li + 2 * li + (5 * k + 4) * li1, 2)
    level_of, up_ids = sk.level_of, set(up)
    for comp_ids in edge_components(H, ids):
        run = _bc_component_routes(H, sk, i, k, comp_ids, up_ids, level_of)
        if run is not None:
            validate_run(H, run)
            return run
    return LevelEdgeBound(level=i, counted=len(ids), bound=bound)


def _bc_component_routes(H, sk, i, k, ids, up_ids, level_of):
    verts = covered_vertices(H, ids)
    n_i = sum(1 for v in verts if level_of.get(v) == i)
    n_i1 = len(verts) - n_i
    frame = frame_from_parent(sk.parent, verts)
    if frame is None:
        raise InternalProofFailure("bc frame", "the component holds its anchor")
    color_of = frame.color
    mono, poly = [], []
    for ei in ids:
        cs = {color_of[v] for v in H.edges[ei]}
        (mono if len(cs) == 1 else poly).append(ei)
    if not poly:
        raise InternalProofFailure("bc coloring", "component has no two-colored edge")

    if len(mono) > (2 * k + 2) * (n_i + n_i1):
        return _bc_mono_route(H, sk, i, k, ids, mono, frame, level_of)

    s1 = {v for v in verts if level_of.get(v) == i and color_of[v] == 1}
    s2 = {v for v in verts if level_of.get(v) == i and color_of[v] == 2}
    n1, n2, n3 = [], [], []
    for ei in poly:
        e = H.edges[ei]
        a, b = len(set(e) & s1), len(set(e) & s2)
        if a == 2:
            n1.append(ei)
        elif b == 2:
            n2.append(ei)
        elif a == 1 and b == 1 and ei in up_ids:
            n3.append(ei)
    for cls, own in ((n1, s1), (n2, s2)):
        if 2 * len(cls) > (k - 1) * n_i:
            return _bc_pair_route(H, sk, i, k, cls, own, frame)
    if n3 and 2 * len(n3) > k * len(covered_vertices(H, n3)):  # d(n3) > 3k/2
        return _bc_ladder_route(H, sk, i, k, n3, s1, s2, frame, level_of)
    return None


def _bc_mono_route(H, sk, i, k, ids, mono, frame, level_of):
    colors = [0] * len(H.edges)
    for ei in ids:
        colors[ei] = 2
    for ei in mono:
        colors[ei] = 1
    try:  # a component by `cycles_or_level_bound`'s `edge_components`
        w = special_linear_path(H, colors, k + 1, edge_ids=ids, connected=True)
    except PreconditionUnmet as exc:
        raise InternalProofFailure("bc mono route", str(exc)) from exc
    P = list(w.edges[: k + 1])
    rest_colors = {frame.color[v] for ei in P[1:] for v in H.edges[ei]}
    if len(rest_colors) != 1:
        raise InternalProofFailure("bc mono route", "tail is not single-colored")
    cc = rest_colors.pop()
    e1, e2 = set(H.edges[P[0]]), set(H.edges[P[1]])
    endpoints = sorted(e1 - e2)
    off = [v for v in endpoints if frame.color[v] != cc]
    if not off:
        raise InternalProofFailure("bc mono route", "first edge is single-colored")
    x = min(off)
    shared = [min(set(H.edges[a]) & set(H.edges[b])) for a, b in zip(P, P[1:])]

    def spine_to(l: int, y: int) -> tuple[list[int], list[int]]:
        return [x] + shared[: l - 1] + [y], P[:l]

    cycles = []
    first = 1 if level_of[x] == i + 1 else 2
    for l in range(first, first + k):
        if l == 1:
            pool = [v for v in e1 if level_of.get(v) == i and frame.color[v] == cc]
        else:
            ends = set(H.edges[P[l - 1]]) - set(H.edges[P[l - 2]])
            pool = [v for v in ends if level_of.get(v) == i]
        if not pool:
            raise InternalProofFailure("bc mono route", f"no level-i endpoint at {l}")
        pv, pe = spine_to(l, min(pool))
        cycles.append(_close_through_tree(H, sk, frame, pv, pe))
    return ConsecutiveRun(k=k, cycles=tuple(cycles), shortest_bound=2 * i + 2)


def _bc_pair_route(H, sk, i, k, cls, own, frame):
    # each class edge has two vertices in `own`, the level-i vertices of one
    # colour, and its third, of the other colour, elsewhere
    proj, edge_of, third = pair_projection(H, cls, own)
    # proj's vertices lie on level i: by the caller's gate d(comp) >= 2|cls|/n_i > k - 1
    comp = densest_component(proj)
    path = long_path_from_density(comp, k - 1)[: k + 1]
    along = edges_along(edge_of, path)
    x = third[norm_edge(path[0], path[1])]
    cycles = []
    for l in range(1, k + 1):
        cycles.append(_close_through_tree(H, sk, frame, [x, *path[1 : l + 1]], along[:l]))
    return ConsecutiveRun(k=k, cycles=tuple(cycles), shortest_bound=2 * i + 2)


def _bc_ladder_route(H, sk, i, k, n3, s1, s2, frame, level_of):
    cov = covered_vertices(H, n3)
    parts = (cov & s1, cov & s2, {v for v in cov if level_of.get(v) == i + 1})
    try:
        _, wits = tripartite_ladder(H, parts, k, edge_ids=n3)
    except PreconditionUnmet as exc:
        raise InternalProofFailure("bc ladder route", str(exc)) from exc
    cycles = []
    for w in wits:
        cycles.append(_close_through_tree(H, sk, frame, w.spine, w.edges))
    return ConsecutiveRun(k=k, cycles=tuple(cycles), shortest_bound=2 * i + 2)


# ---------------------------------------------------------------------------
# sweeps and reductions


def skeleton_sweep(H: Hypergraph, k: int) -> Optional[ConsecutiveRun]:
    """Take roots in increasing vertex order; at each vertex with an alive
    edge build a skeleton over the alive edges, try every level, and delete
    every edge the build read (the tree's incident edges). The alive edges
    are one byte mask, one byte per edge, that each build consumes: it
    clears an edge's byte as it reads the edge, so the deletion is done
    when the build returns.

    Guaranteed to find a run when the average degree is at least 21(k+1),
    whatever the order of roots: a skeleton whose levels all certify has
    fewer than 7(k+1)|T| incident edges, and deleting them all leaves the
    trees vertex-disjoint, so a sweep with no run has m < 7(k+1)n. Alive
    degrees only fall and a root ends with none, so one pass over the
    vertices deletes every edge.

    A tree whose build read only its own |T| - 1 tree edges filed no edge
    in any class, so every level certifies at count 0 (no down class
    reaches (k+2)|L_i|, no level has a within or up edge), and |T| - 1
    edges are below the count 7(k+1)|T|. Neither the level checks nor the
    counting check run for it: on sparse inputs such a skeleton costs its
    BFS alone."""
    if H.uniformity != 3:
        raise PreconditionUnmet("sweep needs a 3-graph")
    if not is_linear(H):
        raise NotLinear("sweep needs a linear 3-graph")
    if k < 1:
        raise PreconditionUnmet("k must be at least 1")
    guaranteed = average_degree(H) >= 21 * (k + 1)
    inc = incidence(H)
    alive = bytearray(b"\x01") * len(H.edges)
    for root in range(H.n):
        for ei in inc[root]:
            if alive[ei]:
                break
        else:  # no alive edge at root
            continue
        sk = build_skeleton(H, root, alive)
        nt = len(sk.parent)
        if len(sk.read) >= nt:  # the build filed an edge; a tree alone certifies at 0
            run = _levels_once(H, sk, k)
            if run is not None:
                return run
            if len(sk.read) >= 7 * (k + 1) * nt:
                raise InternalProofFailure(
                    "sweep counting",
                    f"{len(sk.read)} incident edges on a {nt}-vertex tree "
                    f"despite certified levels",
                )
    if guaranteed:
        raise InternalProofFailure(
            "sweep exhaustion", "edges ran out above the density threshold"
        )
    return None


def _levels_once(H, sk, k) -> Optional[ConsecutiveRun]:
    classes = classify_levels(H, sk)
    for i in range(1, sk.height + 1):
        if len(classes.down[i]) >= (k + 2) * len(sk.levels[i]):
            return cycles_from_down_edges(H, sk, i, k)
    # a level with no within or up edge has no component and certifies at 0
    for i in range(1, sk.height + 1):
        if classes.within[i] or classes.up[i]:
            res = cycles_or_level_bound(H, sk, i, k)
            if isinstance(res, ConsecutiveRun):
                return res
    return None


def find_linear_r(H: Hypergraph, k: int) -> Optional[ConsecutiveRun]:
    """Reduce a linear r-graph to a linear 3-graph (the least 3-subset of
    each edge), sweep, and lift the witnesses back."""
    if H.uniformity is None or H.uniformity < 3:
        raise PreconditionUnmet("need a uniform hypergraph with r >= 3")
    if not is_linear(H):
        raise NotLinear("input must be linear")
    # edge i of H3 is the 3-prefix of edge i of H, so H3's witnesses are H's
    r = H.uniformity
    H3 = prefix_3graph(H)
    run = skeleton_sweep(H3, k)
    if run is not None and H3 is not H:  # the sweep validated it on H3
        validate_run(H, run)
    if run is None and average_degree(H) >= 7 * r * (k + 1):
        raise InternalProofFailure("linear reduction", "no run above the threshold")
    return run


# ---------------------------------------------------------------------------
# co-degree splitting and dense-core cycles


def split_by_codegree(H: Hypergraph, k: int) -> Union[DenseCore, MarkedSlice]:
    """Greedy dichotomy: either a subgraph in which every (r-1)-subset of an
    edge has co-degree >= k+1, or a slice of >= |H|/k edges with distinct
    marked (r-1)-subsets, one per edge."""
    if H.uniformity is None:
        raise PreconditionUnmet("uniform hypergraph required")
    if k < 1:
        raise PreconditionUnmet("k must be at least 1")
    r = H.uniformity
    members = cover_lists(H.edges, r - 1)
    count = {sub: len(ids) for sub, ids in members.items()}
    alive = set(range(len(H.edges)))
    # edges are sorted tuples, so the entries come out sorted: already a heap
    heap = [
        (ei, sub)
        for ei, e in enumerate(H.edges)
        for sub in combinations(e, r - 1)
        if count[sub] <= k
    ]
    slice_entries: list[tuple[int, tuple[int, ...]]] = []
    while heap:
        ei, sub = heapq.heappop(heap)
        if ei not in alive or count[sub] < 1:
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
        return DenseCore(edge_ids=tuple(sorted(alive)))
    if len(slice_entries) * k < len(H.edges):
        raise InternalProofFailure("slice count", "fewer than |H|/k representatives")
    # re-mark with slice-co-degree-1 subsets when available
    slice_entries.sort()
    covers = cover_lists([H.edges[ei] for ei, _ in slice_entries], r - 1)
    out = []
    top = []
    for ei, sub0 in slice_entries:
        subs = list(combinations(H.edges[ei], r - 1))
        codeg = [len(covers[s]) for s in subs]
        top.append(max(codeg))
        if 1 in codeg:
            out.append((ei, subs[codeg.index(1)], True))
        else:
            out.append((ei, sub0, False))
    if len({m for _, m, _ in out}) != len(out):
        raise InternalProofFailure("slice marks", "marked subsets collide")
    return MarkedSlice(entries=tuple(out), covers=covers, max_codegree=tuple(top))


def tight_path_cycles(P: TightPath) -> list[BergeCycleWitness]:
    """Berge cycles of every length 3..m-1 from a tight path of length m,
    by the explicit zigzag spines. Edge indices refer to window positions."""
    m = P.length
    if m < 4:
        raise PreconditionUnmet("need a tight path of length at least 4")
    out = []
    v = P.vertices
    for L in range(3, m):
        t = L + 1  # 1-based construction parameter
        if t % 2 == 0:
            spine1 = list(range(2, t + 1, 2)) + list(range(t - 1, 2, -2))
            edges1 = list(range(2, t - 1, 2)) + [t - 1] + list(range(t - 3, 2, -2)) + [1]
        else:
            spine1 = list(range(2, t, 2)) + [t] + list(range(t - 2, 2, -2))
            edges1 = list(range(2, t - 2, 2)) + [t - 1] + list(range(t - 2, 2, -2)) + [1]
        spine = tuple(v[j - 1] for j in spine1)
        edges = tuple(j - 1 for j in edges1)
        out.append(BergeCycleWitness(spine, edges))
    return out


def min_codegree_cycles(H: Hypergraph, k: int) -> list[BergeCycleWitness]:
    """Berge cycles of all lengths 3..k+2 when every (r-1)-subset of an edge
    lies in at least k+1 edges. Greedy maximal tight path plus the two
    top-length completions."""
    if H.uniformity is None or H.uniformity < 3:
        raise PreconditionUnmet("need r >= 3")
    if k < 1:
        raise PreconditionUnmet("k must be at least 1")
    r = H.uniformity
    covers = cover_lists(H.edges, r - 1)
    if not covers or min(len(ids) for ids in covers.values()) < k + 1:
        raise PreconditionUnmet(f"minimum nonzero co-degree below {k + 1}")
    index_of = {e: i for i, e in enumerate(H.edges)}
    # grow the tail, then the head as the tail of the reversed path; a tail
    # lies on the path, so an edge covering it offers only the vertex it adds
    path = list(H.edges[0])
    onpath = set(path)
    for _ in range(2):
        while True:
            tail = tuple(sorted(path[-(r - 1) :]))
            w = min(
                (x for i in covers.get(tail, ()) for x in H.edges[i] if x not in onpath),
                default=None,
            )
            if w is None:
                break
            path.append(w)
            onpath.add(w)
        path.reverse()
    m = len(path) - r + 1
    if m < k + 1:
        raise InternalProofFailure("tight path", f"maximal length {m} below k+1")
    tp = TightPath(tuple(path), r)
    win = [index_of[w] for w in tp.windows()]
    zig = tight_path_cycles(tp) if m >= 4 else []
    by_len: dict[int, BergeCycleWitness] = {}
    for w in zig:
        if 3 <= w.length <= k + 2:
            by_len[w.length] = BergeCycleWitness(
                w.spine, tuple(win[e] for e in w.edges)
            )
    S = tuple(sorted(path[m:]))
    if m <= k + 2:
        flank = {}
        for j in range(m):
            f = tuple(sorted(S + (path[j],)))
            if f in index_of:
                flank[j] = index_of[f]
        if m == k + 1:
            if len(flank) != m:
                raise InternalProofFailure("top lengths", "missing flank edges")
            by_len[k + 2] = BergeCycleWitness(
                tuple(path[: k + 2]), tuple(win[: k + 1]) + (flank[0],)
            )
            by_len[k + 1] = BergeCycleWitness(
                tuple(path[1 : k + 2]), tuple(win[1 : k + 1]) + (flank[1],)
            )
        else:  # m == k + 2
            missing = [j for j in range(m) if j not in flank]
            if len(missing) > 1:
                raise InternalProofFailure("top lengths", f"{len(missing)} flanks missing")
            i0 = missing[0] if missing else k + 1
            keep = [j for j in range(k + 2) if j != i0]
            j0, j1 = keep[0], keep[1]
            spine2 = [path[j] for j in range(k + 3) if j != i0]
            edges2 = [win[j] for j in keep] + [flank[j0]]
            by_len[k + 2] = BergeCycleWitness(tuple(spine2), tuple(edges2))
            spine1 = [path[j] for j in range(k + 3) if j not in (i0, j0)]
            edges1 = [win[j] for j in keep[1:]] + [flank[j1]]
            by_len[k + 1] = BergeCycleWitness(tuple(spine1), tuple(edges1))
    out = []
    for L in range(3, k + 3):
        if L not in by_len:
            raise InternalProofFailure("length coverage", f"no cycle of length {L}")
        w = by_len[L]
        res = verify_cycle(H, w)
        if not res:
            raise InternalProofFailure("codegree cycle", f"{res.reason} at length {L}")
        out.append(w)
    return out


# ---------------------------------------------------------------------------
# general finders


def _lift_run(H: Hypergraph, lift: Sequence[int], run: ConsecutiveRun) -> ConsecutiveRun:
    """A run found in a hypergraph whose edge j stands for edge lift[j] of H,
    carried over to H and re-verified there."""
    cycles = tuple(
        BergeCycleWitness(w.spine, tuple(lift[e] for e in w.edges)) for w in run.cycles
    )
    lifted = ConsecutiveRun(k=run.k, cycles=cycles, shortest_bound=run.shortest_bound)
    validate_run(H, lifted)
    return lifted


def _run_from_core(H: Hypergraph, core_ids: Sequence[int], k: int) -> ConsecutiveRun:
    sub, idx = H.restrict(core_ids)
    cycles = tuple(min_codegree_cycles(sub, k))
    return _lift_run(H, idx, ConsecutiveRun(k=k, cycles=cycles, shortest_bound=3))


def general_3_threshold(k: int) -> int:
    return 105 * k * k + 63 * k


def find_general_3(H: Hypergraph, k: int) -> Optional[ConsecutiveRun]:
    """k consecutive lengths in any 3-graph of average degree at least
    105k^2+63k; below the threshold absence is permitted."""
    if H.uniformity != 3:
        raise PreconditionUnmet("need a 3-graph")
    if k < 1:
        raise PreconditionUnmet("k must be at least 1")
    if is_linear(H):  # no high pair, and the low family is all of H
        run = _gated_sweep(H, k)
    else:
        split = split_by_codegree(H, k)
        if isinstance(split, DenseCore):
            return _run_from_core(H, split.edge_ids, k)
        run = _case_high_pairs(H, split, k)
        if run is None:
            run = _case_low_pairs(H, split, k)
    if run is None and average_degree(H) >= general_3_threshold(k):
        raise InternalProofFailure("general 3-graph", "no run above the threshold")
    return run


def _case_high_pairs(H: Hypergraph, sl: MarkedSlice, k: int) -> Optional[ConsecutiveRun]:
    good_entries = [
        (ei, mark)
        for (ei, mark, c1), top in zip(sl.entries, sl.max_codegree)
        if c1 and top >= 3
    ]
    if Fraction(3 * len(good_entries), H.n) < 42 * k:  # H is not linear, so n > 0
        return None
    chosen = _derandomized_good_set(H, good_entries)
    if 27 * len(chosen) < 4 * len(good_entries):
        raise InternalProofFailure("good set", "conditional expectation under 4/27")
    # a chosen edge's mark lies in S and its third vertex outside, so each
    # edge's two vertices in the marks' union are its mark
    keep = {v for _, mark in chosen for v in mark}
    G1, edge_of, third = pair_projection(H, [ei for ei, _ in chosen], keep)
    bip = _greedy_bipartite_subgraph(G1)
    k_even = (k + 1) // 2
    # Not dead code. The gate 3|good|/n >= 42k, the 4/27 good set and the
    # greedy half give bip only average degree >= 56k/27, about 2.07k, while
    # the lemma needs 6*ceil(k/2) >= 3k: nothing above proves its precondition.
    try:
        even_run = consecutive_even_cycles(bip, k_even)
    except PreconditionUnmet:
        return None
    by_len: dict[int, BergeCycleWitness] = {}
    for cyc in even_run.cycles:
        eids = edges_along(edge_of, (*cyc, cyc[0]))
        by_len[len(cyc)] = BergeCycleWitness(tuple(cyc), tuple(eids))
        by_len[len(cyc) + 1] = _augment_through_high_pair(H, sl, edge_of, third, cyc)
    lens = sorted(by_len)
    lo = lens[0]
    want = list(range(lo, lo + k))
    if any(L not in by_len for L in want):
        raise InternalProofFailure("augmented run", f"lengths {lens} missing from {want}")
    run = ConsecutiveRun(
        k=k,
        cycles=tuple(by_len[L] for L in want),
        shortest_bound=max(even_run.shortest_bound, lo),
    )
    validate_run(H, run)
    return run


def _augment_through_high_pair(H, sl, edge_of, third, cyc):
    """Insert the third vertex of the first cycle edge's hyperedge, rerouting
    through a high pair; lengthens the Berge cycle by exactly one. The high
    pair beside b is the high pair beside a on the cycle read backwards from
    b, so one spine serves both."""
    a, b = cyc[0], cyc[1]
    key = norm_edge(a, b)
    base = edge_of[key]
    w = third[key]
    # rest runs round the cycle from the mark's other vertex to hi's other neighbour
    for hi, rest in ((a, cyc[1:]), (b, [a, *reversed(cyc[2:])])):
        covers = sl.covers.get(norm_edge(hi, w), ())
        if len(covers) >= 3:
            break
    else:
        raise InternalProofFailure("augmentation", "no high pair beside the mark")
    banned = {rest[0], rest[-1]}
    cand = None
    for j in covers:
        ei = sl.entries[j][0]
        z = next(v for v in H.edges[ei] if v not in (hi, w))
        if z not in banned and ei != base:
            cand = ei
            break
    if cand is None:
        raise InternalProofFailure("augmentation", "high pair lost its edges")
    spine = [hi, w, *rest]
    edges = [cand, base, *edges_along(edge_of, [*rest, hi])]
    return BergeCycleWitness(tuple(spine), tuple(edges))


def _derandomized_good_set(H: Hypergraph, entries):
    """Choose S by conditional expectation so that at least 4/27 of the
    entries become good (marked pair inside S, third vertex outside)."""
    info = [(mark, next(v for v in H.edges[ei] if v not in mark)) for ei, mark in entries]
    touch = cover_lists([H.edges[ei] for ei, _ in entries], 1)
    state: dict[int, bool] = {}

    def weight(idx) -> int:
        """27 times the chance that entry idx ends good, 2^a * 3^(3-a-b)
        with a (b) its undecided mark (third) vertices, or 0."""
        mark, t = info[idx]
        w = 27
        for v in mark:
            if v in state:
                if not state[v]:
                    return 0
            else:
                w = w // 3 * 2
        if t in state:
            if state[t]:
                return 0
        else:
            w //= 3
        return w

    for (v,), idxs in sorted(touch.items()):
        gain_in = gain_out = 0
        for idx in idxs:
            base = weight(idx)
            state[v] = True
            gain_in += weight(idx) - base
            state[v] = False
            gain_out += weight(idx) - base
            del state[v]
        state[v] = gain_in >= gain_out
    out = []
    for idx, (ei, mark) in enumerate(entries):
        t = info[idx][1]
        if all(state.get(v, False) for v in mark) and not state.get(t, False):
            out.append((ei, mark))
    return out


def _greedy_bipartite_subgraph(G: Graph) -> Graph:
    """Spanning bipartite subgraph keeping at least half the edges."""
    adj = G.adjacency()
    side: dict[int, int] = {}
    for v in G.vertices:
        zero = sum(1 for w in adj[v] if side.get(w) == 0)
        one = sum(1 for w in adj[v] if side.get(w) == 1)
        side[v] = 1 if zero >= one else 0
    edges = [e for e in G.edges if side[e[0]] != side[e[1]]]
    return Graph.build(G.vertices, edges)


def _case_low_pairs(H: Hypergraph, sl: MarkedSlice, k: int) -> Optional[ConsecutiveRun]:
    """Greedy linear subfamily of the slice edges whose pairs all have
    slice co-degree at most 2, swept as a linear 3-graph."""
    low = [j for j, top in enumerate(sl.max_codegree) if top <= 2]
    if not low:
        return None
    chosen: list[int] = []
    banned: set[int] = set()
    for j in low:
        if j in banned:
            continue
        ei = sl.entries[j][0]
        chosen.append(ei)
        if sl.max_codegree[j] > 1:  # else entry j alone covers its pairs
            for p in combinations(H.edges[ei], 2):
                banned.update(sl.covers[p])
    sub, idx = H.restrict(chosen)  # linear, so never all of the non-linear H
    run3 = _gated_sweep(sub, k)
    return None if run3 is None else _lift_run(H, idx, run3)


def _gated_sweep(H: Hypergraph, k: int) -> Optional[ConsecutiveRun]:
    """The sweep on a linear 3-graph of average degree at least 21(k+1),
    where it is guaranteed a run; None below."""
    if average_degree(H) < 21 * (k + 1):
        return None
    return skeleton_sweep(H, k)


def general_r_threshold(r: int, k: int) -> int:
    return r * (35 * k ** (r - 1) + 21 * k ** (r - 2))


def find_general_r(H: Hypergraph, k: int) -> Optional[ConsecutiveRun]:
    """Induction on r: split by co-degree; a dense core yields lengths
    3..k+2 directly, otherwise the marked (r-1)-graph recurses and the
    witnesses lift through the representatives."""
    r = H.uniformity
    if r is None or r < 3:
        raise PreconditionUnmet("need a uniform hypergraph with r >= 3")
    if k < 1:
        raise PreconditionUnmet("k must be at least 1")
    if r == 3:
        return find_general_3(H, k)
    split = split_by_codegree(H, k)
    if isinstance(split, DenseCore):
        return _run_from_core(H, split.edge_ids, k)
    marks = sorted(m for _, m, _ in split.entries)
    rep_of = {m: ei for ei, m, _ in split.entries}
    G = Hypergraph.from_edges(H.n, marks, uniformity=r - 1)
    sub_run = find_general_r(G, k)
    if sub_run is None:
        if average_degree(H) >= general_r_threshold(r, k):
            raise InternalProofFailure("general r-graph", "no run above the threshold")
        return None
    return _lift_run(H, [rep_of[m] for m in G.edges], sub_run)
