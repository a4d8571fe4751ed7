"""The hand-written graph primitives against networkx on small random inputs."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergelab.certify import extend
from bergelab.graphs import Graph, bipartition, blocks, connected_components, norm_edge
from bergelab.hypergraph import Hypergraph, edge_components, pair_covers

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
