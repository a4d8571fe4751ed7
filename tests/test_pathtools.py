import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bergelab import pathtools as pt
from bergelab.certify import verify_path
from bergelab.errors import Disconnected, InternalProofFailure, NotLinear, PreconditionUnmet
from bergelab.generators import complete_bipartite_incidence, random_linear_r, steiner_triple
from bergelab.graphs import Graph, norm_edge
from bergelab.hypergraph import Hypergraph

from naive import naive_extend


def colored(edges, twos):
    """Build a ColoredGraph; `twos` lists the color-2 edges."""
    G = Graph.build({v for e in edges for v in e}, edges)
    t = {norm_edge(*e) for e in twos}
    return pt.ColoredGraph(G, {e: (2 if e in t else 1) for e in G.edges})


def check_special(cg, out, p):
    assert out.length >= p
    assert out.edge_colors[0] == 2
    assert all(c == 1 for c in out.edge_colors[1:])
    adj = cg.graph.adjacency()
    seq = out.vertices
    assert len(set(seq)) == len(seq)
    for (a, b), c in zip(zip(seq, seq[1:]), out.edge_colors):
        assert b in adj[a]
        assert cg.edge_color[norm_edge(a, b)] == c


class TestSpecialPath:
    def test_two_edge_example(self):
        cg = colored([(0, 1), (1, 2)], twos=[(0, 1)])
        out = pt.special_path(cg, 1)
        assert out.vertices == (0, 1, 2)
        assert out.edge_colors == (2, 1)

    def test_k5_with_pendant(self):
        edges = list(combinations(range(5), 2)) + [(0, 5)]
        cg = colored(edges, twos=[(0, 5)])
        out = pt.special_path(cg, 2)
        check_special(cg, out, 2)
        # G_1 minus x = 0 keeps the 4-clique's cycles: spliced, not greedy
        assert out.vertices == (5, 0, 1, 3, 2)

    def test_matching_precondition(self):
        cg = colored([(0, 1), (2, 3), (4, 5), (0, 2)], twos=[(0, 2)])
        with pytest.raises(PreconditionUnmet):
            pt.special_path(cg, 2)

    def test_both_colors_required(self):
        cg = colored([(0, 1), (1, 2)], twos=[])
        with pytest.raises(PreconditionUnmet):
            pt.special_path(cg, 1)

    def test_p2_forest_after_deleting_x(self):
        # d(G_1) = 3 exactly, and G_1 minus x = 0 (the first end of the
        # color-2 edge) is the path 1-2-...-7: no cycle to splice onto
        path = [(v, v + 1) for v in range(1, 7)]
        star = [(0, v) for v in range(2, 8)]
        cg = colored(path + star + [(0, 1)], twos=[(0, 1)])
        assert 2 * len(cg.color_class(1)) == 3 * cg.graph.n
        out = pt.special_path(cg, 2)
        check_special(cg, out, 2)
        assert out.vertices == (1, 0, 2, 3, 4, 5, 6, 7)
        with pytest.raises(PreconditionUnmet):
            pt.special_path(cg, 3)  # d(G_1) = 3 < 4

    @given(st.integers(0, 10**6), st.integers(2, 4))
    @example(seed=31885, p=2)  # G_1 - x is a tree
    @settings(max_examples=120, deadline=None)
    def test_postcondition_random(self, seed, p):
        rng = random.Random(seed)
        n = rng.randrange(p + 3, 12)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.8]
        G = Graph.build(range(n), edges)
        from bergelab.graphs import connected_components

        if len(connected_components(G)) != 1:
            return
        twos = [e for e in G.edges if rng.random() < 0.15] or [G.edges[0]]
        cg = pt.ColoredGraph(G, {e: (2 if e in set(twos) else 1) for e in G.edges})
        ones = cg.color_class(1)
        if not ones or 2 * len(ones) < (p + 1) * G.n:
            return
        out = pt.special_path(cg, p)
        check_special(cg, out, p)


class TestLinearXYPath:
    def test_two_triples(self):
        H = Hypergraph.from_edges(5, [(0, 1, 2), (2, 3, 4)])
        w = pt.linear_xy_path(H, [0], [4])
        assert w.edges == (0, 1)
        assert w.endpoints == (0, 4)

    def test_inside_one_edge(self):
        H = Hypergraph.from_edges(5, [(0, 1, 2), (2, 3, 4)])
        w = pt.linear_xy_path(H, [0], [2])
        assert w.edges == (0,)

    def test_disconnected(self):
        H = Hypergraph.from_edges(6, [(0, 1, 2), (3, 4, 5)])
        with pytest.raises(Disconnected):
            pt.linear_xy_path(H, [0], [5])

    def test_not_linear(self):
        H = Hypergraph.from_edges(4, [(0, 1, 2), (0, 1, 3)])
        with pytest.raises(NotLinear):
            pt.linear_xy_path(H, [2], [3])

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_lift_is_linear_random(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(8, 18)
        H, _ = random_linear_r(n, 3, rng.randrange(4, n), seed=seed)
        if not H.edges:
            return
        from bergelab.hypergraph import covered_vertices, edge_components

        ids = list(range(len(H.edges)))
        if len(edge_components(H, ids)) > 1:
            return
        cov = sorted(covered_vertices(H, ids))
        if len(cov) < 4:
            return
        X = {cov[0]}
        Y = {cov[-1]}
        if X & Y:
            return
        w = pt.linear_xy_path(H, X, Y)
        assert pt.check_linear_path(H, w.edges)
        assert w.endpoints[0] in X and w.endpoints[1] in Y
        first, last = set(H.edges[w.edges[0]]), set(H.edges[w.edges[-1]])
        assert w.endpoints[0] in first and w.endpoints[1] in last


class TestSpecialLinearPath:
    def test_p1_trivial(self):
        H = steiner_triple(15)  # d(H_1) = 3*34/15 = 6.8 >= 6
        colors = [1] * len(H.edges)
        colors[0] = 2
        w = pt.special_linear_path(H, colors, 1)
        assert w.length >= 1
        assert colors[w.edges[0]] == 2

    def test_p2_dense(self):
        H = steiner_triple(43)
        colors = [1] * len(H.edges)
        colors[0] = 2
        # d(H_1) = 3*(301-1)/43 ~ 20.9 >= 6*(2-1)+6 = 12
        w = pt.special_linear_path(H, colors, 2)
        assert w.length >= 2
        assert pt.check_linear_path(H, w.edges)
        assert colors[w.edges[0]] == 2
        assert all(colors[i] == 1 for i in w.edges[1:])

    def test_disconnected(self):
        H = Hypergraph.from_edges(12, [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)])
        colors = [2, 1, 1, 1]
        with pytest.raises(PreconditionUnmet):
            pt.special_linear_path(H, colors, 1)

    @given(st.integers(0, 200), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_postcondition_random(self, seed, p):
        H = steiner_triple(43 if p < 3 else 61)
        rng = random.Random(seed)
        colors = [1] * len(H.edges)
        for i in range(len(colors)):
            if rng.random() < 0.02:
                colors[i] = 2
        if 2 not in colors:
            colors[0] = 2
        ones = sum(1 for c in colors if c == 1)
        if 3 * ones < (6 * (p - 1) + 6) * H.n:
            return
        w = pt.special_linear_path(H, colors, p)
        assert w.length >= p
        assert pt.check_linear_path(H, w.edges)
        assert colors[w.edges[0]] == 2
        assert all(colors[i] == 1 for i in w.edges[1:])


def tripartite_fixture(t, seed=0):
    """Linear 3-partite 3-graph on parts of size t with ~t^2/2 transversal edges."""
    rng = random.Random(seed)
    V1 = list(range(t))
    V2 = list(range(t, 2 * t))
    V3 = list(range(2 * t, 3 * t))
    used = set()
    edges = []
    for a in V1:
        for c in V3:
            b = V2[(a + c) % t]
            cand = (a, b, c)
            pairs = list(combinations(sorted(cand), 2))
            if any(p in used for p in pairs):
                continue
            used.update(pairs)
            edges.append(cand)
    H = Hypergraph.from_edges(3 * t, edges, uniformity=3)
    return H, (V1, V2, V3)


class TestTripartiteLadder:
    def test_p1(self):
        H, parts = tripartite_fixture(3)
        u, wits = pt.tripartite_ladder(H, parts, 1)
        assert u in set(parts[0])
        assert len(wits) == 1
        assert verify_path(H, wits[0])

    def test_not_tripartite(self):
        H = Hypergraph.from_edges(4, [(0, 1, 2), (0, 1, 3)])
        with pytest.raises(PreconditionUnmet):
            pt.tripartite_ladder(H, ([0, 1], [2], [3]), 1)

    @pytest.mark.parametrize("p", range(1, 13))
    def test_ladder_up_to_12(self, p):
        # desk-scale validation of the ladder construction for p <= 12,
        # cross-checked against the injective-assignment oracle
        t = max(6, (3 * p + 1) // 2 + 1)
        H, parts = tripartite_fixture(t)
        covered = {v for e in H.edges for v in e}
        assert 2 * len(H.edges) >= p * len(covered)
        u, wits = pt.tripartite_ladder(H, parts, p)
        assert len(wits) == p
        for l, w in enumerate(wits, start=1):
            assert w.length == l
            assert w.spine[0] == u and w.spine[-1] in set(parts[1])
            assert verify_path(H, w)
            pairs = [tuple(sorted(x)) for x in zip(w.spine, w.spine[1:])]
            assert naive_extend(H.edges, pairs) is not None


class TestConsecutiveEvenCycles:
    def test_k2_complete_bipartite(self):
        H = complete_bipartite_incidence(12, 12)
        G = Graph.build(range(24), H.edges)
        run = pt.consecutive_even_cycles(G, 2)
        assert run.lengths() in ((4, 6), (6, 8))
        assert run.cycles[0] and run.lengths()[0] <= run.shortest_bound
        # independent simple-cycle check on every emitted cycle
        adj = G.adjacency()
        for cyc in run.cycles:
            assert len(set(cyc)) == len(cyc) and len(cyc) % 2 == 0
            for j in range(len(cyc)):
                assert cyc[(j + 1) % len(cyc)] in adj[cyc[j]]

    def test_c6_below_threshold(self):
        G = Graph.build(range(6), [(i, (i + 1) % 6) for i in range(6)])
        with pytest.raises(PreconditionUnmet):
            pt.consecutive_even_cycles(G, 1)

    def test_empty_graph(self):
        with pytest.raises(PreconditionUnmet, match="average degree"):
            pt.consecutive_even_cycles(Graph.build([], []), 1)

    def test_k1(self):
        H = complete_bipartite_incidence(6, 6)
        G = Graph.build(range(12), H.edges)
        run = pt.consecutive_even_cycles(G, 1)
        assert len(run.cycles) == 1
        assert run.lengths()[0] % 2 == 0

    def test_odd_cycle_rejected(self):
        G = Graph.build(range(3), [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(PreconditionUnmet):
            pt.consecutive_even_cycles(G, 1)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_random_dense_bipartite(self, seed):
        rng = random.Random(seed)
        k = rng.choice((1, 2))
        a = rng.randrange(6 * k, 6 * k + 6)
        edges = [
            (i, a + j)
            for i in range(a)
            for j in range(a)
            if rng.random() < 0.9
        ]
        G = Graph.build(range(2 * a), edges)
        if 2 * G.e < 6 * k * G.n:
            return
        run = pt.consecutive_even_cycles(G, k)
        lens = run.lengths()
        assert len(lens) == k
        assert all(b - a2 == 2 for a2, b in zip(lens, lens[1:]))
        assert lens[0] <= run.shortest_bound

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_sparse_near_threshold(self, seed):
        # density barely above 6k: whichever of the routes or the verified
        # search completes the run, the contract must hold
        rng = random.Random(seed)
        k = rng.choice((1, 2))
        a = rng.randrange(6 * k + 1, 6 * k + 8)
        p = min(1.0, (6 * k + rng.uniform(0.0, 0.8)) / a)
        edges = [
            (i, a + j) for i in range(a) for j in range(a) if rng.random() < p
        ]
        G = Graph.build(range(2 * a), edges)
        if 2 * G.e < 6 * k * G.n:
            return
        run = pt.consecutive_even_cycles(G, k)
        lens = run.lengths()
        assert len(lens) == k and lens[0] <= run.shortest_bound
        assert all(b - x == 2 for x, b in zip(lens, lens[1:]))

    @pytest.mark.parametrize("route, p", [("special_path", 0.7), ("long_path_from_density", 0.9)])
    def test_route_proof_failure_propagates(self, monkeypatch, route, p):
        # at each density the random(0) subgraph of K_16,16 reaches the
        # patched route; its InternalProofFailure must not fall to the search
        rng = random.Random(0)
        edges = [(i, 16 + j) for i in range(16) for j in range(16) if rng.random() < p]
        G = Graph.build(range(32), edges)

        def fail(*args):
            raise InternalProofFailure(route, "planted")

        monkeypatch.setattr(pt, route, fail)
        with pytest.raises(InternalProofFailure, match="planted"):
            pt.consecutive_even_cycles(G, 1)

    def test_fallback_search_direct(self):
        # the verified fallback must find {4, 6} inside K_6,6 on its own
        H = complete_bipartite_incidence(6, 6)
        G = Graph.build(range(12), H.edges)
        run = pt._even_run_by_search(G, 2, h=3)
        assert run is not None
        adj = G.adjacency()
        lens = sorted(len(c) for c in run)
        assert lens == [4, 6]
        for cyc in run:
            assert len(set(cyc)) == len(cyc)
            for j in range(len(cyc)):
                assert cyc[(j + 1) % len(cyc)] in adj[cyc[j]]
