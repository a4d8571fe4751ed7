"""The hand-written graph primitives against networkx on small random inputs."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergelab.certify import extend
from bergelab.errors import NotLinear
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
from bergelab.pathtools import linear_xy_path

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
    avoid = [v for v in G.vertices if v not in A and v not in B and rnd.random() < 0.2]
    path = shortest_path(G.adjacency(), A, B, avoid)
    g = to_nx(G).subgraph(set(G.vertices) - set(avoid))
    dist = nx.multi_source_dijkstra_path_length(g, set(A)) if A else {}
    reach = [dist[b] for b in B if b in dist]
    if not reach:
        assert path is None
        return
    assert path is not None
    assert path[0] in A and path[-1] in B
    assert not (set(A) | set(B) | set(avoid)) & set(path[1:-1])
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
        linear_xy_path(H, [0], [6])
    with pytest.raises(NotLinear, match=r"^pair \(1, 2\) has co-degree above 1$"):
        linear_xy_path(H, [0], [6], edge_ids=[3, 2, 0])


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
        got = ext.as_dict()
        assert sorted(got) == sorted(pairs)
        assert len(set(got.values())) == len(got)
        assert all(set(p) <= set(H.edges[i]) for p, i in got.items())
