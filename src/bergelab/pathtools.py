"""Path machinery: two-colored special paths in graphs and linear hypergraphs,
shortest-lift linear paths, the tripartite ladder, and consecutive even
cycles in bipartite graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .certify import BergePathWitness, verify_path
from .errors import (
    Disconnected,
    InternalProofFailure,
    NotLinear,
    PreconditionUnmet,
)
from .graphs import (
    Graph,
    bfs_tree,
    bipartition,
    connected_components,
    densest_component,
    long_cycle_from_density,
    long_path_from_density,
    min_degree_core,
    norm_edge,
    shortest_path,
)
from .hypergraph import (
    Hypergraph,
    cover_lists,
    covered_vertices,
    edge_components,
    incidence,
    peel,
)
from .oracle import cycle_of_length
from .skeleton import frame_from_parent, path_to_root


@dataclass(frozen=True)
class GraphPath:
    vertices: tuple[int, ...]
    edge_colors: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


@dataclass(frozen=True)
class ColoredGraph:
    graph: Graph
    edge_color: dict[tuple[int, int], int]  # 1 or 2 per edge

    def color_class(self, c: int) -> list[tuple[int, int]]:
        return [e for e in self.graph.edges if self.edge_color[e] == c]


@dataclass(frozen=True)
class LinearPathWitness:
    """Hyperedge indices forming a linear path, with designated endpoints."""

    edges: tuple[int, ...]
    endpoints: tuple[int, int]

    @property
    def length(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class EvenCycleRun:
    """k vertex cycles of consecutive even lengths in a 2-graph."""

    k: int
    cycles: tuple[tuple[int, ...], ...]
    shortest_bound: int

    def lengths(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cycles)


# ---------------------------------------------------------------------------
# linear-path plumbing


def check_linear_path(H: Hypergraph, edge_ids: Sequence[int]) -> bool:
    es = [set(H.edges[i]) for i in edge_ids]
    if len(set(edge_ids)) != len(edge_ids):
        return False
    for i in range(len(es)):
        for j in range(i + 1, len(es)):
            want = 1 if j == i + 1 else 0
            if len(es[i] & es[j]) != want:
                return False
    return True


def linear_xy_path(
    H: Hypergraph,
    X: Iterable[int],
    Y: Iterable[int],
    edge_ids: Optional[Sequence[int]] = None,
) -> LinearPathWitness:
    """Linear path whose first edge meets X and last meets Y, lifted from a
    shortest shadow path (shortestness is what makes the lift linear)."""
    ids = list(range(len(H.edges))) if edge_ids is None else sorted(edge_ids)
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
    # collapse accidental repeats (consecutive spine pairs inside one edge)
    dedup: list[int] = []
    for e in eids:
        if not dedup or dedup[-1] != e:
            dedup.append(e)
    if not check_linear_path(H, dedup):
        raise InternalProofFailure("shortest-lift", "lifted path is not linear")
    return LinearPathWitness(edges=tuple(dedup), endpoints=(spine[0], spine[-1]))


# ---------------------------------------------------------------------------
# two-colored special paths


def special_path(cg: ColoredGraph, p: int) -> GraphPath:
    """Path of length >= p whose first edge has color 2 and the rest color 1.

    For p >= 2 this needs d(G_1) >= p+1; the construction extracts a long
    cycle in the color-1 graph minus one endpoint of a color-2 edge and
    splices the shortest connector onto it. For p <= 1, and for p = 2 when
    that graph is a forest, a color-2 edge extended greedily with color-1
    edges suffices.
    """
    G = cg.graph
    ones = cg.color_class(1)
    twos = cg.color_class(2)
    if not ones or not twos:
        raise PreconditionUnmet("both colors must appear")
    if len(bfs_tree(G, G.vertices[0])[2]) != G.n:
        raise PreconditionUnmet("graph must be connected")
    adj = G.adjacency()
    if p <= 1:
        u, v = twos[0]

        def grow(a: int, b: int) -> list[int]:
            path, inpath = [a, b], {a, b}
            while True:
                nxt = [
                    w
                    for w in adj[path[-1]]
                    if w not in inpath and cg.edge_color[norm_edge(path[-1], w)] == 1
                ]
                if not nxt:
                    return path
                path.append(min(nxt))
                inpath.add(path[-1])

        best = max((grow(u, v), grow(v, u)), key=lambda s: (len(s), s))
        return GraphPath(tuple(best), (2,) + (1,) * (len(best) - 2))

    if 2 * len(ones) < (p + 1) * G.n:
        raise PreconditionUnmet(
            f"need d(G_1) >= {p + 1}, have {Fraction(2 * len(ones), G.n)}"
        )
    x, y = twos[0]
    g1p = Graph(  # a filter of G's valid vertices and edges, so no re-validation
        tuple(v for v in G.vertices if v != x),
        tuple(e for e in ones if x not in e),
    )
    if p == 2 and g1p.e == g1p.n - len(connected_components(g1p)):
        # a forest: d(G_1) >= 3 asks G_1 - x for no cycle. It has at most
        # n - 2 edges then, so x has color-1 degree at least 3n/2 - (n - 2)
        # > 0, and the greedy path through the color-2 edge (x, y) and x
        # has length >= 2
        out = special_path(cg, 1)
        if out.length < 2:
            raise InternalProofFailure("special path", "postcondition violated")
        return out
    cyc = long_cycle_from_density(g1p, p - 1)
    connector = shortest_path(adj, (x, y), cyc)  # starts at x or y, ends on the cycle
    if connector is None:
        raise InternalProofFailure("special path", "cycle unreachable in a connected graph")
    z = connector[-1]
    zi = cyc.index(z)
    rot = cyc[zi:] + cyc[:zi]
    walk = rot  # z .. around the cycle, omitting the closing edge back to z
    conn_colors = [
        cg.edge_color[norm_edge(a, b)] for a, b in zip(connector, connector[1:])
    ]
    if 2 not in conn_colors:
        other = y if connector[0] == x else x
        seq = [other] + connector + walk[1:]
        colors = [2] + conn_colors + [1] * (len(walk) - 1)
    else:
        t = max(i for i, c in enumerate(conn_colors) if c == 2)
        seq = connector[t:] + walk[1:]
        colors = conn_colors[t:] + [1] * (len(walk) - 1)
    if len(set(seq)) != len(seq):
        raise InternalProofFailure("special path", "assembled walk repeats a vertex")
    out = GraphPath(tuple(seq), tuple(colors))
    if out.length < p or colors[0] != 2 or any(c != 1 for c in colors[1:]):
        raise InternalProofFailure("special path", "postcondition violated")
    return out


def special_linear_path(
    H: Hypergraph,
    colors: Sequence[int],
    p: int,
    edge_ids: Optional[Sequence[int]] = None,
) -> LinearPathWitness:
    """Linear path of length >= p, first edge color 2, rest color 1.

    Construction: strip the other vertices of a color-2 edge from the
    color-1 subgraph, pass to its min-degree core, seed a good path via the
    shortest lift, then extend greedily at the core endpoint. Densities are
    measured over covered vertices, so edge-subset views work unchanged.
    """
    ids = list(range(len(H.edges))) if edge_ids is None else sorted(edge_ids)
    r = H.uniformity
    if r is None:
        raise PreconditionUnmet("uniform hypergraph required")
    if p < 1:
        raise PreconditionUnmet("p must be at least 1")
    ones = [i for i in ids if colors[i] == 1]
    twos = [i for i in ids if colors[i] == 2]
    if not ones or not twos:
        raise PreconditionUnmet("both colors must appear")
    covered = covered_vertices(H, ids)
    n_cov = len(covered)
    if len(edge_components(H, ids)) > 1:
        raise PreconditionUnmet("hypergraph must be connected")
    need = Fraction(r * (r - 1) * (p - 1) + 2 * r)
    have = Fraction(r * len(ones), n_cov)
    if have < need:
        raise PreconditionUnmet(f"need d(H_1) >= {need}, have {have}")

    h = twos[0]
    u0 = min(H.edges[h])
    stripped = set(H.edges[h]) - {u0}
    ones_p = [i for i in ones if not stripped & set(H.edges[i])]
    core_deg, core_ids = peel_view(H, ones_p)
    core_v = set(core_deg)
    core_min = min(core_deg.values())
    if core_min < (r - 1) * (p - 1) + 2:
        raise InternalProofFailure(
            "core degree", f"min degree {core_min} below {(r - 1) * (p - 1) + 2}"
        )

    vh = set(H.edges[h])
    touch = vh & core_v
    if touch:
        good = [h]
        z = min(touch)
    else:
        seed = linear_xy_path(H, vh, core_v, edge_ids=ids)
        seed_ids = list(seed.edges)
        z = seed.endpoints[1]
        if all(colors[i] == 1 for i in seed_ids):
            good = [h] + seed_ids
        else:
            t = max(j for j, i in enumerate(seed_ids) if colors[i] == 2)
            good = seed_ids[t:]
        if not check_linear_path(H, good):
            raise InternalProofFailure("good path seed", "seed is not linear")

    core_set = set(core_ids)
    inc = incidence(H)
    while len(good) < p:
        blocked = covered_vertices(H, good) - {z}
        for ei in inc[z]:
            if ei not in core_set or ei in good:
                continue
            if not blocked & set(H.edges[ei]):
                good.append(ei)
                z = min(set(H.edges[ei]) - {z})
                break
        else:
            raise InternalProofFailure("good path extension", f"stuck at {len(good)}")
    first = good[0]
    if len(good) == 1:
        start = min(set(H.edges[first]) - {z})
    else:
        start = min(set(H.edges[first]) - set(H.edges[good[1]]))
    out = LinearPathWitness(edges=tuple(good), endpoints=(start, z))
    if not check_linear_path(H, out.edges):
        raise InternalProofFailure("good path", "not linear")
    if colors[out.edges[0]] != 2 or any(colors[i] != 1 for i in out.edges[1:]):
        raise InternalProofFailure("good path", "color pattern violated")
    return out


def peel_view(H: Hypergraph, edge_ids: Sequence[int]) -> tuple[dict[int, int], list[int]]:
    """Label-preserving min-degree core of an edge-subset view: `peel` at
    the view's |edges|/|covered vertices|."""
    ids = sorted(edge_ids)
    if not ids:
        raise InternalProofFailure("peeling", "empty view")
    return peel(H, ids, Fraction(len(ids), len(covered_vertices(H, ids))))


# ---------------------------------------------------------------------------
# tripartite ladder


def tripartite_ladder(
    H: Hypergraph,
    parts: tuple[Iterable[int], Iterable[int], Iterable[int]],
    p: int,
    edge_ids: Optional[Sequence[int]] = None,
):
    """A start vertex u in part 1 plus, for each l in 1..p, an extendable
    path of length l from u ending in part 2.

    Built from a long path in the (part1, part3) projection, closed into
    part 2 through the unique covering edges.
    """
    ids = list(range(len(H.edges))) if edge_ids is None else sorted(edge_ids)
    V1, V2, V3 = (set(x) for x in parts)
    if p < 1:
        raise PreconditionUnmet("p must be at least 1")
    if not ids:
        raise PreconditionUnmet("no edges")
    if V1 & V2 or V1 & V3 or V2 & V3:
        raise PreconditionUnmet("parts must be disjoint")
    for i in ids:
        e = H.edges[i]
        if len(e) != 3 or not (
            len(set(e) & V1) == 1 and len(set(e) & V2) == 1 and len(set(e) & V3) == 1
        ):
            raise PreconditionUnmet(f"edge {e} is not transversal to the parts")
    covered = covered_vertices(H, ids)
    if 2 * len(ids) < p * len(covered):
        raise PreconditionUnmet(
            f"need d >= {Fraction(3 * p, 2)}, have {Fraction(3 * len(ids), len(covered))}"
        )
    pair_to_edge: dict[tuple[int, int], int] = {}
    for i in ids:
        e = H.edges[i]
        a = next(v for v in e if v in V1)
        b = next(v for v in e if v in V3)
        key = norm_edge(a, b)
        if key in pair_to_edge:
            raise NotLinear(f"projection pair {key} repeats")
        pair_to_edge[key] = i
    proj = Graph.build({v for k in pair_to_edge for v in k}, pair_to_edge.keys())
    path = long_path_from_density(proj, p)
    if path[0] in V3:
        path = path[1:]
    if path[0] not in V1:
        raise InternalProofFailure("ladder", "projection path failed to start in part 1")

    def edge_of(a: int, b: int) -> int:
        return pair_to_edge[norm_edge(a, b)]

    def v2_vertex(ei: int) -> int:
        return next(v for v in H.edges[ei] if v in V2)

    wits: list[BergePathWitness] = []
    for l in range(1, p + 1):
        if l % 2 == 1:
            s = (l + 1) // 2
            hop = edge_of(path[2 * s - 2], path[2 * s - 1])
            spine = list(path[: 2 * s - 1]) + [v2_vertex(hop)]
            assigned = [edge_of(path[j], path[j + 1]) for j in range(2 * s - 2)] + [hop]
        else:
            s = l // 2
            hop = edge_of(path[2 * s - 1], path[2 * s])
            spine = list(path[: 2 * s]) + [v2_vertex(hop)]
            assigned = [edge_of(path[j], path[j + 1]) for j in range(2 * s - 1)] + [hop]
        w = BergePathWitness(tuple(spine), tuple(assigned))
        res = verify_path(H, w)
        if not res:
            raise InternalProofFailure("ladder witness", res.reason or "")
        if spine[-1] not in V2:
            raise InternalProofFailure("ladder witness", "endpoint outside part 2")
        wits.append(w)
    return path[0], wits


# ---------------------------------------------------------------------------
# consecutive even cycles in bipartite graphs


def _ladder_cycles(parent, level, anchor, walk, positions):
    """Close tree paths through sub-walks at the given end positions."""
    out = []
    for l in positions:
        w0, wl = walk[0], walk[l]
        X = path_to_root(parent, w0)  # w0 .. root
        Y = path_to_root(parent, wl)
        if anchor not in X or anchor not in Y:
            return None
        X = X[: X.index(anchor) + 1]  # w0 .. anchor
        Y = Y[: Y.index(anchor) + 1]
        cyc = X[::-1] + list(walk[1 : l + 1]) + Y[1:-1]
        if len(set(cyc)) != len(cyc) or len(cyc) < 3 or len(cyc) % 2 == 1:
            return None
        out.append(tuple(cyc))
    return out


def consecutive_even_cycles(G: Graph, k: int) -> EvenCycleRun:
    """k cycles of consecutive even lengths in a bipartite graph with
    average degree >= 6k; the shortest has length at most twice the height
    of the breadth-first tree used.

    Per level of the tree, components of the cross-level edges are tried
    against three routes: a monochromatic-heavy special path, or a long
    path inside either bichromatic class. Outputs are verified; if no route
    fires, a direct verified search completes the run.
    """
    if k < 1:
        raise PreconditionUnmet("k must be at least 1")
    if bipartition(G) is None:
        raise PreconditionUnmet("graph must be bipartite")
    if G.n == 0 or 2 * G.e < 6 * k * G.n:
        raise PreconditionUnmet(
            f"need average degree >= {6 * k}, have {G.average_degree()}"
        )
    core = min_degree_core(G)
    comp = densest_component(core)
    degs = {v: len(ns) for v, ns in comp.adjacency().items()}
    root = min(v for v in comp.vertices if degs[v] == max(degs.values()))
    parent, level, _ = bfs_tree(comp, root)
    h = max(level.values())

    for i in range(h):
        cross = [
            e
            for e in comp.edges
            if {level[e[0]], level[e[1]]} == {i, i + 1}
        ]
        if not cross:
            continue
        level_graph = Graph.build({v for e in cross for v in e}, cross)
        for F in connected_components(level_graph):
            if F.e < k:
                continue
            run = _routes_for_component(comp, parent, level, F, i, k)
            if run is not None and _valid_even_run(comp, run, k, 2 * h):
                return EvenCycleRun(k=k, cycles=tuple(run), shortest_bound=2 * h)

    run = _even_run_by_search(comp, k, h)
    if run is not None and _valid_even_run(comp, run, k, 2 * h):
        return EvenCycleRun(k=k, cycles=tuple(run), shortest_bound=2 * h)
    raise InternalProofFailure(
        "even cycle run", f"no verified run with shortest <= {2 * h}"
    )


def _valid_even_run(G: Graph, run, k: int, bound: int) -> bool:
    if len(run) != k:
        return False
    adj = G.adjacency()
    lengths = []
    for cyc in run:
        if len(set(cyc)) != len(cyc) or len(cyc) % 2 or len(cyc) < 4:
            return False
        if not all(cyc[(j + 1) % len(cyc)] in adj[cyc[j]] for j in range(len(cyc))):
            return False
        lengths.append(len(cyc))
    lengths.sort()
    return (
        all(b - a == 2 for a, b in zip(lengths, lengths[1:]))
        and lengths[0] <= bound
    )


def _routes_for_component(comp, parent, level, F: Graph, i: int, k: int):
    frame = frame_from_parent(parent, F.vertices)
    if frame is None:
        return None
    anchor, color, _kids = frame
    if anchor in set(F.vertices):
        return None
    mono = [e for e in F.edges if color[e[0]] == color[e[1]]]
    poly = [e for e in F.edges if color[e[0]] != color[e[1]]]
    # monochromatic-heavy: special path, first edge bichromatic
    if mono and poly and 2 * len(mono) >= 2 * k * F.n:
        ec = {}
        for e in F.edges:
            ec[e] = 1 if color[e[0]] == color[e[1]] else 2
        try:
            sp = special_path(ColoredGraph(F, ec), 2 * k - 1)
            walk = list(sp.vertices)
            run = _ladder_cycles(parent, level, anchor, walk, range(1, 2 * k, 2))
            if run is not None:
                return run
        except PreconditionUnmet:
            pass
    # bichromatic classes, split by which side of the level pair is color 1
    for want in (1, 2):
        cls = [
            e
            for e in poly
            if color[e[0] if level[e[0]] == i else e[1]] == want
        ]
        if not cls:
            continue
        sub = Graph.build({v for e in cls for v in e}, cls)
        for piece in connected_components(sub):
            if 2 * piece.e <= (2 * k - 2) * piece.n:
                continue
            try:
                path = long_path_from_density(piece, 2 * k - 2)
            except PreconditionUnmet:
                continue
            run = _ladder_cycles(parent, level, anchor, path, range(1, 2 * k, 2))
            if run is not None:
                return run
    return None


def _even_run_by_search(comp: Graph, k: int, h: int):
    H2 = Hypergraph.from_edges(max(comp.vertices) + 1, comp.edges)
    found: dict[int, tuple[int, ...]] = {}
    for a in range(4, 2 * h + 1, 2):
        ok = True
        for L in range(a, a + 2 * k, 2):
            if L in found:
                continue
            if L > len(comp.vertices):
                ok = False
                break
            w, _ = cycle_of_length(H2, L)
            if w is None:
                ok = False
                break
            found[L] = w.spine
        if ok:
            return [found[L] for L in range(a, a + 2 * k, 2)]
    return None
