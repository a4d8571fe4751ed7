"""Path machinery: pair projections of 3-edges, two-colored special paths
in graphs and linear hypergraphs, shortest-lift linear paths, the
tripartite ladder, and consecutive even cycles in bipartite graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .certify import BergePathWitness, verify_path
from .errors import (
    Disconnected,
    InternalProofFailure,
    NotLinear,
    PreconditionUnmet,
)
from .graphs import (
    Graph,
    Pair,
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
    is_linear,
    peel,
)
from .skeleton import frame_from_parent


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
# pair projections


def pair_projection(
    H: Hypergraph, ids: Iterable[int], keep: set[int]
) -> tuple[Graph, dict[Pair, int], dict[Pair, int]]:
    """Project each 3-edge in `ids` onto the pair of its vertices in `keep`.

    Every edge must have exactly two vertices in `keep`; one with three, or
    with fewer than two, raises PreconditionUnmet. Returns the graph of the
    pairs, `edge_of[pair]` (the edge projected onto it) and `third[pair]`
    (that edge's vertex outside `keep`). A pair met twice raises NotLinear.
    """
    edges = H.edges
    edge_of: dict[Pair, int] = {}
    third: dict[Pair, int] = {}
    for ei in ids:
        a, b, c = edges[ei]  # sorted, so each pair below is increasing
        if a not in keep:
            t, key = a, (b, c)
        elif b not in keep:
            t, key = b, (a, c)
        elif c not in keep:
            t, key = c, (a, b)
        else:
            raise PreconditionUnmet(f"edge {edges[ei]} has three vertices in keep")
        if key in edge_of:
            raise NotLinear(f"projection pair {key} repeats")
        edge_of[key] = ei
        third[key] = t
    vs = {v for key in edge_of for v in key}
    if not vs <= keep:  # an edge with fewer than two vertices in keep
        ei = next(ei for key, ei in edge_of.items() if not keep.issuperset(key))
        raise PreconditionUnmet(f"edge {edges[ei]} has fewer than two vertices in keep")
    # the pairs are increasing and distinct, so no re-validation; with
    # 0 <= b < n, a * n + b orders them as the tuples do, and faster
    n = H.n
    pairs = sorted(edge_of, key=lambda p: p[0] * n + p[1])
    return Graph(tuple(sorted(vs)), tuple(pairs)), edge_of, third


def edges_along(edge_of: Mapping[Pair, int], walk: Sequence[int]) -> list[int]:
    """The edge `edge_of` assigns to each consecutive pair of a walk."""
    return [edge_of[norm_edge(a, b)] for a, b in zip(walk, walk[1:])]


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
    edge_ids: Sequence[int],
) -> LinearPathWitness:
    """Linear path whose first edge meets X and last meets Y, lifted from a
    shortest shadow path (shortestness is what makes the lift linear).

    The view must be linear. When `is_linear(H)` holds and no id repeats,
    it is; otherwise the view's pairs are scanned in edge order and the
    first pair met twice raises NotLinear. The BFS reads the view's shadow
    through `_ViewShadow`, which builds a vertex's neighbours only when the
    search reaches it. Ids outside 0..|H|-1 raise PreconditionUnmet.
    """
    ids = sorted(edge_ids)
    Xs, Ys = set(X), set(Y)
    if not Xs or not Ys or Xs & Ys:
        raise PreconditionUnmet("X and Y must be disjoint and nonempty")
    if ids and (ids[0] < 0 or ids[-1] >= len(H.edges)):
        raise PreconditionUnmet(f"edge ids must lie in 0..{len(H.edges) - 1}")
    id_set = set(ids)
    if len(id_set) != len(ids) or not is_linear(H):
        view = [H.edges[i] for i in ids]
        cov = cover_lists(view, 2)
        for j, e in enumerate(view):
            for p in combinations(e, 2):
                if cov[p][0] != j:
                    raise NotLinear(f"pair {p} has co-degree above 1")
    shadow = _ViewShadow(H, id_set)
    spine = shortest_path(shadow, Xs, Ys)
    if spine is None:
        raise Disconnected("no shadow path between X and Y")
    # a shortest shadow path puts no two consecutive pairs in one edge (the
    # edge would cover a shortcut), so each step lifts to its own edge
    eids = [shadow.via[a][b] for a, b in zip(spine, spine[1:])]
    if not check_linear_path(H, eids):
        raise InternalProofFailure("shortest-lift", "lifted path is not linear")
    return LinearPathWitness(edges=tuple(eids), endpoints=(spine[0], spine[-1]))


class _ViewShadow:
    """The shadow of a linear edge-subset view, as `shortest_path` reads an
    adjacency: `v in shadow` when a view edge holds v, and `shadow[u]` is
    u's sorted neighbours, built on first use. `via[u][w]` is the one view
    edge covering the pair (u, w), for each u built so far."""

    def __init__(self, H: Hypergraph, ids: set[int]) -> None:
        self._edges = H.edges
        self._inc = incidence(H)
        self._ids = ids
        self._nbrs: dict[int, list[int]] = {}
        self.via: dict[int, dict[int, int]] = {}

    def __contains__(self, v: int) -> bool:
        return 0 <= v < len(self._inc) and not self._ids.isdisjoint(self._inc[v])

    def __getitem__(self, u: int) -> list[int]:
        nbrs = self._nbrs.get(u)
        if nbrs is None:
            ids, edges = self._ids, self._edges
            via = self.via[u] = {
                w: i for i in self._inc[u] if i in ids for w in edges[i] if w != u
            }
            nbrs = self._nbrs[u] = sorted(via)
        return nbrs


# ---------------------------------------------------------------------------
# two-colored special paths


def special_path(cg: ColoredGraph, p: int, *, connected: bool = False) -> GraphPath:
    """Path of length >= p whose first edge has color 2 and the rest color 1.

    For p >= 2 this needs d(G_1) >= p+1; the construction extracts a long
    cycle in the color-1 graph minus one endpoint of a color-2 edge and
    splices the shortest connector onto it. For p <= 1, and for p = 2 when
    that graph is a forest, a color-2 edge extended greedily with color-1
    edges suffices.

    The graph must be connected, which a BFS checks unless the caller
    passes `connected=True` for a graph it has just found as a component.
    """
    G = cg.graph
    ones: list[tuple[int, int]] = []
    twos: list[tuple[int, int]] = []
    for e in G.edges:
        c = cg.edge_color[e]
        if c == 1:
            ones.append(e)
        elif c == 2:
            twos.append(e)
    if not ones or not twos:
        raise PreconditionUnmet("both colors must appear")
    if not connected and len(bfs_tree(G, G.vertices[0])[2]) != G.n:
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
        # has length >= 2. Connectivity is already checked or vouched for,
        # and the p <= 1 branch does not use it
        out = special_path(cg, 1, connected=True)
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
    edge_ids: Sequence[int],
    *,
    connected: bool = False,
) -> LinearPathWitness:
    """Linear path of length >= p, first edge color 2, rest color 1.

    Construction: strip the other vertices of a color-2 edge from the
    color-1 subgraph, pass to its min-degree core, seed a good path via the
    shortest lift, then extend greedily at the core endpoint. Densities are
    measured over covered vertices, so edge-subset views work unchanged.

    The view must be shadow-connected, which `edge_components` checks
    unless the caller passes `connected=True` for ids it has just found as
    one component.
    """
    ids = sorted(edge_ids)
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
    if not connected and len(edge_components(H, ids)) > 1:
        raise PreconditionUnmet("hypergraph must be connected")
    need = Fraction(r * (r - 1) * (p - 1) + 2 * r)
    have = Fraction(r * len(ones), n_cov)
    if have < need:
        raise PreconditionUnmet(f"need d(H_1) >= {need}, have {have}")

    h = twos[0]
    u0 = min(H.edges[h])
    stripped = set(H.edges[h]) - {u0}
    ones_p = [i for i in ones if not stripped & set(H.edges[i])]
    core_deg, core_ids = peel(H, ones_p)
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


# ---------------------------------------------------------------------------
# tripartite ladder


def tripartite_ladder(
    H: Hypergraph,
    parts: tuple[Iterable[int], Iterable[int], Iterable[int]],
    p: int,
    edge_ids: Sequence[int],
):
    """A start vertex u in part 1 plus, for each l in 1..p, an extendable
    path of length l from u ending in part 2.

    Built from a long path in the (part1, part3) projection, closed into
    part 2 through the unique covering edges.
    """
    ids = sorted(edge_ids)
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
    proj, edge_of, third = pair_projection(H, ids, V1 | V3)
    path = long_path_from_density(proj, p)  # at least p + 1 edges
    # proj joins V1 to V3 only, so a path that starts in V3 starts in V1 one
    # step on and still has p edges
    if path[0] in V3:
        path = path[1:]
    along = edges_along(edge_of, path[: p + 1])

    wits: list[BergePathWitness] = []
    for l in range(1, p + 1):
        # path[:l], then the vertex in V2 of the edge on the walk's l-th step
        walk = path[: l + 1]
        spine = (*walk[:-1], third[norm_edge(walk[-2], walk[-1])])
        w = BergePathWitness(spine, tuple(along[:l]))
        res = verify_path(H, w)
        if not res:
            raise InternalProofFailure("ladder witness", res.reason or "")
        wits.append(w)
    return path[0], wits


# ---------------------------------------------------------------------------
# consecutive even cycles in bipartite graphs


def _ladder_cycles(frame, walk, positions):
    """Close sub-walks at the given end positions through the frame's tree
    paths, or None when a closed walk repeats a vertex or is odd or short."""
    out = []
    for l in positions:
        cyc = frame.close(walk[: l + 1])  # the walk lies in F, the frame's W
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
    path inside either bichromatic class. The first run a route gives is
    verified and returned. A run that fails verification, or no run from
    any component, means the construction has a gap, and
    InternalProofFailure is raised.
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

    # comp is connected and bipartite, so every edge joins levels i and i + 1,
    # and each level i < h holds the tree edge into every vertex of level i + 1
    cross: list[list[tuple[int, int]]] = [[] for _ in range(h)]
    for a, b in comp.edges:
        cross[min(level[a], level[b])].append((a, b))
    for i, edges in enumerate(cross):
        level_graph = Graph.build({v for e in edges for v in e}, edges)
        for F in connected_components(level_graph):
            # no size check: at k = 1 every component has an edge, and at k >= 2
            # one with F.e < k passes no route's gate, as the monochromatic gate
            # needs |mono| >= k|F| >= 2k > F.e and a bichromatic piece has
            # 2e <= 2k - 2 <= (2k - 2)n, so the routes return None for it
            run = _routes_for_component(parent, level, F, i, k)
            if run is None:
                continue
            if not _valid_even_run(comp, run, k, 2 * h):
                raise InternalProofFailure("even cycle run", "a route's run failed verification")
            return EvenCycleRun(k=k, cycles=tuple(run), shortest_bound=2 * h)
    raise InternalProofFailure(
        "even cycle run", f"no route gave a verified run with shortest <= {2 * h}"
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


def _routes_for_component(parent, level, F: Graph, i: int, k: int):
    frame = frame_from_parent(parent, F.vertices)
    if frame is None:
        return None
    color = frame.color
    mono = [e for e in F.edges if color[e[0]] == color[e[1]]]
    poly = [e for e in F.edges if color[e[0]] != color[e[1]]]
    # monochromatic-heavy: special path, first edge bichromatic
    if mono and poly and 2 * len(mono) >= 2 * k * F.n:
        ec = {}
        for e in F.edges:
            ec[e] = 1 if color[e[0]] == color[e[1]] else 2
        # gate: d(G_1) >= p + 1 at odd p = 2k - 1; both colours appear; F is connected
        try:
            sp = special_path(ColoredGraph(F, ec), 2 * k - 1, connected=True)
        except PreconditionUnmet as exc:
            raise InternalProofFailure("even mono route", str(exc)) from exc
        run = _ladder_cycles(frame, sp.vertices, range(1, 2 * k, 2))
        if run is not None:  # wl's parent may lie on the walk
            return run
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
            path = long_path_from_density(piece, 2 * k - 2)  # the gate above is its own
            # level-i walk vertices have colour `want`, level-(i+1) ones the other, and w0
            # and wl lie on different levels: the tree paths miss the walk and each other
            run = _ladder_cycles(frame, path, range(1, 2 * k, 2))
            if run is None:
                raise InternalProofFailure("even ladder", "a bichromatic closure repeats")
            return run
    return None

