"""The hand-written graph primitives against networkx on small random inputs."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergelab import graphs as gr
from bergelab._spectrum import spectrum_search
from bergelab.certify import extend
from bergelab.errors import Disconnected, NotLinear
from bergelab.graphs import (
    Graph,
    bipartition,
    blocks,
    connected_components,
    densest_component,
    norm_edge,
    shortest_path,
)
from bergelab.hypergraph import Hypergraph, edge_components, pair_covers
from bergelab.generators import random_linear_r
from bergelab.oracle import oracle_spectrum
from bergelab.pathtools import linear_xy_path
from test_graphs import at_cycle_bound

nx = pytest.importorskip("networkx")


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 11))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.build(range(n), chosen)


@st.composite
def hypergraphs(draw):
    """Edges of 2 to 4 vertices on at most 11 vertices."""
    n = draw(st.integers(2, 11))
    edge = st.lists(st.integers(0, n - 1), min_size=2, max_size=min(4, n), unique=True)
    edges = draw(st.lists(edge.map(lambda e: tuple(sorted(e))), unique=True, max_size=12))
    return Hypergraph.from_edges(n, edges)


@st.composite
def sparse_uniform(draw, max_n=20):
    """Random r-graphs, r in {2, 3, 4}, with between cap/2 and cap edges,
    where cap keeps the vertex-edge incidence graph at most 8 edges above
    its vertex count: few cycles in all, yet most draws carry some."""
    r = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(r + 1, max_n))
    cap = min(comb(n, r), (n + 8) // (r - 1))
    m = draw(st.integers(cap // 2, cap))
    rnd = draw(st.randoms(use_true_random=False))
    return n, sorted(rnd.sample(list(combinations(range(n), r)), m))


def incidence_lengths(n, edges, max_len):
    """Lengths 3..max_len of the Berge cycles, read off the 2L-cycles of the
    vertex-edge incidence graph."""
    g = nx.Graph()
    g.add_nodes_from(("v", v) for v in range(n))
    for i, e in enumerate(edges):
        g.add_edges_from((("e", i), ("v", v)) for v in e)
    return {len(c) // 2 for c in nx.simple_cycles(g, length_bound=2 * max_len) if len(c) >= 6}


def to_nx(G: Graph):
    g = nx.Graph()
    g.add_nodes_from(G.vertices)
    g.add_edges_from(G.edges)
    return g


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_connected_components(G):
    ours = [c.vertices for c in connected_components(G)]
    theirs = sorted(tuple(sorted(c)) for c in nx.connected_components(to_nx(G)))
    assert sorted(ours) == theirs
    assert sorted(e for c in connected_components(G) for e in c.edges) == list(G.edges)


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_bipartition(G):
    side = bipartition(G)
    assert (side is not None) == nx.is_bipartite(to_nx(G))
    if side is not None:
        assert all(side[u] != side[v] for u, v in G.edges)


@given(graphs(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_shortest_path(G, rnd):
    A = [v for v in G.vertices if rnd.random() < 0.3]
    B = [v for v in G.vertices if v not in A and rnd.random() < 0.3]
    path = shortest_path(G.adjacency(), A, B)
    dist = nx.multi_source_dijkstra_path_length(to_nx(G), set(A)) if A else {}
    reach = [dist[b] for b in B if b in dist]
    if not reach:
        assert path is None
        return
    assert path is not None
    assert path[0] in A and path[-1] in B
    assert not (set(A) | set(B)) & set(path[1:-1])
    assert len(set(path)) == len(path)
    assert all(norm_edge(u, v) in G.edges for u, v in zip(path, path[1:]))
    assert len(path) - 1 == min(reach)


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_densest_component(G):
    g = to_nx(G)
    best = max(
        nx.connected_components(g),
        key=lambda c: (Fraction(2 * g.subgraph(c).number_of_edges(), len(c)), -min(c)),
    )
    comp = densest_component(G)
    assert comp.vertices == tuple(sorted(best))
    assert comp.edges == tuple(sorted(norm_edge(u, v) for u, v in g.subgraph(best).edges))


def test_linear_xy_path_names_the_first_pair_met_twice():
    # (1, 2) is seen first, but (0, 3) is the first pair met a second time
    # in edge order; a view without edge 1 meets (1, 2) twice instead
    H = Hypergraph.from_edges(7, [(0, 1, 2), (0, 3, 4), (0, 3, 5), (1, 2, 6)])
    with pytest.raises(NotLinear, match=r"^pair \(0, 3\) has co-degree above 1$"):
        linear_xy_path(H, [0], [6], range(len(H.edges)))
    with pytest.raises(NotLinear, match=r"^pair \(1, 2\) has co-degree above 1$"):
        linear_xy_path(H, [0], [6], edge_ids=[3, 2, 0])


@given(st.integers(0, 10**6), st.sampled_from((3, 4)))
@settings(max_examples=150, deadline=None)
def test_linear_xy_path_is_a_shortest_lift(seed, r):
    # consecutive pairs of a shortest shadow path lie in distinct edges, so
    # the lift has one edge per step of the least X-Y distance
    rng = random.Random(seed)
    n = rng.randrange(2 * r, 30)
    H, _ = random_linear_r(n, r, rng.randrange(1, n), seed=seed)
    ids = [i for i in range(len(H.edges)) if rng.random() < 0.7]
    shadow = nx.Graph()
    for i in ids:
        shadow.add_edges_from(combinations(H.edges[i], 2))
    X = set(rng.sample(range(n), rng.choice((1, 1, 2))))
    Y = set(rng.sample([v for v in range(n) if v not in X], rng.choice((1, 1, 2))))
    starts = X & set(shadow)
    dist = nx.multi_source_dijkstra_path_length(shadow, starts) if starts else {}
    reach = [dist[y] for y in Y if y in dist]
    if not reach:
        with pytest.raises(Disconnected):
            linear_xy_path(H, X, Y, ids)
        return
    w = linear_xy_path(H, X, Y, ids)
    assert len(w.edges) == min(reach)
    assert set(w.edges) <= set(ids)
    assert w.endpoints[0] in X and w.endpoints[1] in Y


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_blocks(G):
    theirs = [
        tuple(sorted(norm_edge(u, v) for u, v in blk))
        for blk in nx.biconnected_component_edges(to_nx(G))
    ]
    assert sorted(blocks(G)) == sorted(theirs)


@given(hypergraphs(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_edge_components(H, rnd):
    ids = [i for i in range(len(H.edges)) if rnd.random() < 0.7]
    rnd.shuffle(ids)
    shadow = nx.Graph()
    for i in ids:
        shadow.add_nodes_from(H.edges[i])
        shadow.add_edges_from(combinations(H.edges[i], 2))
    comps = sorted(nx.connected_components(shadow), key=min)
    want = [sorted(i for i in ids if H.edges[i][0] in comp) for comp in comps]
    assert edge_components(H, ids) == want


@given(hypergraphs(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_extend_matches_maximum_matching(H, rnd):
    shadow_pairs = list(pair_covers(H))
    pairs = [p for p in shadow_pairs if rnd.random() < 0.5]
    B = nx.Graph()
    top = [("pair", p) for p in pairs]
    B.add_nodes_from(top)
    B.add_nodes_from(("edge", i) for i in range(len(H.edges)))
    for p in pairs:
        B.add_edges_from((("pair", p), ("edge", i)) for i in pair_covers(H)[p])
    matching = nx.algorithms.bipartite.maximum_matching(B, top_nodes=top)
    covers_all = all(node in matching for node in top)
    ext = extend(H, pairs)
    assert (ext is not None) == covers_all
    if ext is not None:
        got = dict(ext.mapping)
        assert sorted(got) == sorted(pairs)
        assert len(set(got.values())) == len(got)
        assert all(set(p) <= set(H.edges[i]) for p, i in got.items())


@given(sparse_uniform())
@settings(max_examples=100, deadline=None)
def test_oracle_spectrum_matches_incidence_cycles(drawn):
    n, edges = drawn
    H = Hypergraph.from_edges(n, edges)
    max_len = min(n, 9)
    assert set(oracle_spectrum(H, max_len).lengths) == incidence_lengths(n, edges, max_len)


@given(sparse_uniform(max_n=12), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_anchored_search_matches_full_search(drawn, rnd):
    # greedily keep the edges that leave the family free of every searched
    # length; adding one more edge e, every cycle runs through e, so the
    # search anchored at e finds what the full search finds
    n, candidates = drawn
    max_len = min(n, 6)
    free: list[tuple[int, ...]] = []
    closing: list[tuple[int, ...]] = []
    for e in candidates:
        (closing if incidence_lengths(n, free + [e], max_len) else free).append(e)
    anchor = rnd.choice(closing or candidates)
    edges = tuple(e for e in free if e != anchor) + (anchor,)
    full, _, exhausted = spectrum_search(n, edges, 3, max_len, 10**6)
    anchored, _, exhausted_a = spectrum_search(n, edges, 3, max_len, 10**6, anchor)
    assert not exhausted and not exhausted_a
    want = incidence_lengths(n, edges, max_len)
    assert {L for L, _, _ in full} == want
    assert {L for L, _, _ in anchored} == want


@given(at_cycle_bound(ms=(2, 5), ns=(20, 40), small_pocket=True))
@settings(max_examples=150, deadline=None)
def test_stalled_rotation_returns_the_least_long_cycle(drawn):
    # about two in five of these stall the rotation; the kernel then searches
    # the narrowed block, and its cycle has the least length >= m+1 there
    G, m = drawn
    blocks_searched = []
    real = gr.spectrum_search

    def spy(n, edges, min_len, max_len, budget, live=None):
        blocks_searched.append(edges)
        return real(n, edges, min_len, max_len, budget, live=live)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gr, "spectrum_search", spy)
        cyc = gr.long_cycle_from_density(G, m)
    assert len(set(cyc)) == len(cyc) >= m + 1
    assert all(to_nx(G).has_edge(u, v) for u, v in zip(cyc, cyc[1:] + cyc[:1]))
    if not blocks_searched:
        return
    block = nx.Graph(blocks_searched[0])
    lengths = {len(c) for c in nx.simple_cycles(block, length_bound=len(cyc))}
    assert len(cyc) == min(L for L in lengths if L >= m + 1)
