import random
import re
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bergelab import pathtools as pt
from bergelab.certify import verify_path
from bergelab.errors import Disconnected, InternalProofFailure, NotLinear, PreconditionUnmet
from bergelab.generators import complete_bipartite_incidence, random_linear_r, steiner_triple
from bergelab.graphs import Graph, long_path_from_density, norm_edge
from bergelab.hypergraph import Hypergraph, covered_vertices

from naive import color_class, naive_extend, naive_linear_xy_path, naive_pair_projection


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

    def test_connector_holds_a_colour_2_edge(self):
        # G_1 - x is the 6-clique on 2..7 plus the path 1-8, and the colour-2
        # edge (8, 9) lies on the shortest connector 1-8-9-2 from the colour-2
        # edge (0, 1) to the cycle 3-2-4: the path starts at the connector's
        # last colour-2 edge
        clique = list(combinations(range(2, 8), 2))
        cg = colored(clique + [(0, 1), (1, 8), (8, 9), (2, 9)], twos=[(0, 1), (8, 9)])
        out = pt.special_path(cg, 2)
        check_special(cg, out, 2)
        assert out.vertices == (8, 9, 2, 4, 3)

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

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_disconnected_rejected(self, p):
        # two 6-cliques: d(G_1) >= p + 1 holds, so only the connectivity
        # check can refuse
        left = list(combinations(range(6), 2))
        cg = colored(left + [(u + 6, v + 6) for u, v in left], twos=[(0, 1)])
        assert 2 * len(color_class(cg, 1)) >= (p + 1) * cg.graph.n
        with pytest.raises(PreconditionUnmet, match="graph must be connected"):
            pt.special_path(cg, p)

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
        assert 2 * len(color_class(cg, 1)) == 3 * cg.graph.n
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
        ones = color_class(cg, 1)
        if not ones or 2 * len(ones) < (p + 1) * G.n:
            return
        out = pt.special_path(cg, p)
        check_special(cg, out, p)


def outcome(f, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def projection_views(draw):
    """(H, ids, keep) on a random linear 3-graph: keep is a random vertex
    set and ids, shuffled, the edges with exactly two vertices in it. Some
    draws add one defect: a twin edge through the kept pair of a view edge,
    making H non-linear, or one edge with three or with fewer than two
    vertices in keep."""
    seed = draw(st.integers(0, 10**6))
    defect = draw(st.sampled_from((None, None, "twin", "three", "fewer")))
    rng = random.Random(seed)
    n = rng.randrange(4, 30)
    H, _ = random_linear_r(n, 3, rng.randrange(1, 2 * n), seed=seed)
    keep = {v for v in range(n) if rng.random() < 0.7}

    def kept(e):
        return len(keep.intersection(e))

    ids = [i for i, e in enumerate(H.edges) if kept(e) == 2]
    if defect == "twin" and ids:  # shares the pair (a, b) with a view edge
        e = H.edges[rng.choice(ids)]
        a, b = (v for v in e if v in keep)
        outside = [v for v in range(n) if v not in keep and v not in e]
        if outside:
            twin = tuple(sorted((a, b, rng.choice(outside))))
            H = Hypergraph.from_edges(n, H.edges + (twin,), 3)
            ids = [i for i, e in enumerate(H.edges) if kept(e) == 2]
    elif defect in ("three", "fewer"):
        bad = [
            i
            for i, e in enumerate(H.edges)
            if (kept(e) == 3 if defect == "three" else kept(e) < 2)
        ]
        if bad:
            ids.append(rng.choice(bad))
    rng.shuffle(ids)
    return H, ids, keep


class TestPairProjection:
    @given(projection_views())
    @settings(max_examples=300, deadline=None)
    def test_matches_sorting_reference(self, drawn):
        # the same graph and maps, or the same exception type and message
        H, ids, keep = drawn
        want = outcome(naive_pair_projection, H, ids, keep)
        assert outcome(pt.pair_projection, H, ids, keep) == want

    def test_example(self):
        H = Hypergraph.from_edges(6, [(0, 1, 4), (1, 2, 5), (0, 3, 5)])
        G, edge_of, third = pt.pair_projection(H, [2, 0, 1], {0, 1, 2, 3})
        assert G == Graph((0, 1, 2, 3), ((0, 1), (0, 3), (1, 2)))
        assert edge_of == {(0, 1): 0, (0, 3): 1, (1, 2): 2}
        assert third == {(0, 1): 4, (0, 3): 5, (1, 2): 5}
        assert pt.edges_along(edge_of, [3, 0, 1, 2]) == [1, 0, 2]

    def test_repeated_pair(self):
        H = Hypergraph.from_edges(4, [(0, 1, 2), (0, 1, 3)])
        with pytest.raises(NotLinear, match=r"^projection pair \(0, 1\) repeats$"):
            pt.pair_projection(H, [0, 1], {0, 1})

    @pytest.mark.parametrize(
        "keep, count",
        [({0, 1, 2}, "three"), ({2}, "fewer than two"), (set(), "fewer than two")],
    )
    def test_other_than_two_kept(self, keep, count):
        H = Hypergraph.from_edges(3, [(0, 1, 2)])
        with pytest.raises(
            PreconditionUnmet, match=rf"^edge \(0, 1, 2\) has {count} vertices in keep$"
        ):
            pt.pair_projection(H, [0], keep)


@st.composite
def xy_views(draw):
    """(H, X, Y, ids) on a random linear 3- or 4-graph: a random id subset,
    X and Y drawn from -2..n+1, so they may hold uncovered or out-of-range
    vertices. Some draws add a twin edge through a pair of an edge, making
    H non-linear, or repeat an id; a few leave X or Y empty or let them
    meet."""
    r = draw(st.sampled_from((3, 4)))
    seed = draw(st.integers(0, 10**6))
    twin = draw(st.sampled_from((False, False, True)))
    repeat = draw(st.sampled_from((False, False, True)))
    xy = draw(st.sampled_from(("disjoint",) * 8 + ("empty", "meet")))
    rng = random.Random(seed)
    n = rng.randrange(2 * r, 30)
    H, _ = random_linear_r(n, r, rng.randrange(1, n), seed=seed)
    if twin:  # shares the pair (a, b) with edge e
        e = rng.choice(H.edges)
        a, b = rng.sample(e, 2)
        rest = rng.sample([v for v in range(n) if v not in e], r - 2)
        H = Hypergraph.from_edges(n, H.edges + (tuple(sorted((a, b, *rest))),), r)
    ids = [i for i in range(len(H.edges)) if rng.random() < 0.7]
    if ids and repeat:
        ids.append(rng.choice(ids))
    rng.shuffle(ids)
    vs = range(-2, n + 2)
    X = set(rng.sample(vs, rng.choice((1, 1, 2, 3))))
    Y = set(rng.sample([v for v in vs if v not in X], rng.choice((1, 1, 2, 3))))
    if xy == "empty":
        (X if rng.random() < 0.5 else Y).clear()
    elif xy == "meet":
        Y.add(min(X))
    return H, X, Y, ids


class TestLinearXYPath:
    def test_two_triples(self):
        H = Hypergraph.from_edges(5, [(0, 1, 2), (2, 3, 4)])
        w = pt.linear_xy_path(H, [0], [4], range(len(H.edges)))
        assert w.edges == (0, 1)
        assert w.endpoints == (0, 4)

    def test_inside_one_edge(self):
        H = Hypergraph.from_edges(5, [(0, 1, 2), (2, 3, 4)])
        w = pt.linear_xy_path(H, [0], [2], range(len(H.edges)))
        assert w.edges == (0,)

    def test_disconnected(self):
        H = Hypergraph.from_edges(6, [(0, 1, 2), (3, 4, 5)])
        with pytest.raises(Disconnected):
            pt.linear_xy_path(H, [0], [5], range(len(H.edges)))

    def test_not_linear(self):
        H = Hypergraph.from_edges(4, [(0, 1, 2), (0, 1, 3)])
        with pytest.raises(NotLinear):
            pt.linear_xy_path(H, [2], [3], range(len(H.edges)))

    @given(xy_views())
    @settings(max_examples=300, deadline=None)
    def test_matches_full_shadow(self, drawn):
        # same witness, or the same exception type and message, as the
        # lift over the view's whole shadow graph
        H, X, Y, ids = drawn
        want = outcome(naive_linear_xy_path, H, X, Y, ids)
        assert outcome(pt.linear_xy_path, H, X, Y, ids) == want

    def test_twin_outside_the_view(self):
        # H is not linear, yet the view without edge 1 is
        H = Hypergraph.from_edges(7, [(0, 1, 2), (0, 1, 3), (2, 4, 5), (3, 5, 6)])
        w = pt.linear_xy_path(H, [0], [6], [0, 2, 3])
        assert w == naive_linear_xy_path(H, [0], [6], [0, 2, 3])
        assert w.edges == (0, 2, 3)
        with pytest.raises(NotLinear, match=r"^pair \(0, 1\) has co-degree above 1$"):
            pt.linear_xy_path(H, [0], [6], [0, 1, 2, 3])

    def test_repeated_id(self):
        H = Hypergraph.from_edges(5, [(0, 1, 2), (2, 3, 4)])
        with pytest.raises(NotLinear, match=r"^pair \(2, 3\) has co-degree above 1$"):
            pt.linear_xy_path(H, [0], [4], [1, 0, 1])

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_out_of_range_ids(self, bad):
        H = Hypergraph.from_edges(5, [(0, 1, 2), (2, 3, 4)])
        with pytest.raises(PreconditionUnmet, match=r"^edge ids must lie in 0\.\.1$"):
            pt.linear_xy_path(H, [0], [4], [0, 1, bad])

    def test_linear_input_skips_the_pair_scan(self, monkeypatch):
        H = steiner_triple(15)

        def refuse(*args):
            raise AssertionError("a linear H with distinct ids needs no pair scan")

        monkeypatch.setattr(pt, "cover_lists", refuse)
        w = pt.linear_xy_path(H, [0], [14], range(len(H.edges)))
        assert w.endpoints[0] == 0 and w.endpoints[1] == 14

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
        w = pt.linear_xy_path(H, X, Y, range(len(H.edges)))
        assert pt.check_linear_path(H, w.edges)
        assert w.endpoints[0] in X and w.endpoints[1] in Y
        first, last = set(H.edges[w.edges[0]]), set(H.edges[w.edges[-1]])
        assert w.endpoints[0] in first and w.endpoints[1] in last


class TestSpecialLinearPath:
    def test_p1_trivial(self):
        H = steiner_triple(15)  # d(H_1) = 3*34/15 = 6.8 >= 6
        colors = [1] * len(H.edges)
        colors[0] = 2
        w = pt.special_linear_path(H, colors, 1, range(len(H.edges)))
        assert w.length >= 1
        assert colors[w.edges[0]] == 2

    def test_p2_dense(self):
        H = steiner_triple(43)
        colors = [1] * len(H.edges)
        colors[0] = 2
        # d(H_1) = 3*(301-1)/43 ~ 20.9 >= 6*(2-1)+6 = 12
        w = pt.special_linear_path(H, colors, 2, range(len(H.edges)))
        assert w.length >= 2
        assert pt.check_linear_path(H, w.edges)
        assert colors[w.edges[0]] == 2
        assert all(colors[i] == 1 for i in w.edges[1:])

    def test_disconnected(self):
        H = Hypergraph.from_edges(12, [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)])
        colors = [2, 1, 1, 1]
        with pytest.raises(PreconditionUnmet):
            pt.special_linear_path(H, colors, 1, range(len(H.edges)))

    @given(st.integers(0, 10**6), st.sampled_from(((1, 15, 4), (2, 27, 8))))
    @settings(max_examples=60, deadline=None)
    def test_at_the_density_bound(self, seed, case):
        # STS(n) minus `drop` edges, one kept edge colour 2: d(H_1) is exactly
        # r(r-1)(p-1) + 2r = 6p over all n vertices, which stay covered
        p, n, drop = case
        rng = random.Random(seed)
        H = steiner_triple(n)
        ids = sorted(rng.sample(range(len(H.edges)), len(H.edges) - drop))
        colors = [1] * len(H.edges)
        colors[rng.choice(ids)] = 2
        ones = [i for i in ids if colors[i] == 1]
        assert len(covered_vertices(H, ids)) == n and 3 * len(ones) == 6 * p * n
        w = pt.special_linear_path(H, colors, p, ids)
        assert w.length >= p
        assert set(w.edges) <= set(ids)
        assert pt.check_linear_path(H, w.edges)
        assert colors[w.edges[0]] == 2
        assert all(colors[i] == 1 for i in w.edges[1:])
        a, b = w.endpoints
        assert a in H.edges[w.edges[0]] and b in H.edges[w.edges[-1]]
        assert pt.special_linear_path(H, colors, p, ids, connected=True) == w
        gone = rng.choice(ones)
        fewer = [i for i in ids if i != gone]
        assert len(covered_vertices(H, fewer)) == n
        with pytest.raises(PreconditionUnmet, match=f"^need d\\(H_1\\) >= {6 * p}, have "):
            pt.special_linear_path(H, colors, p, fewer)

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
        w = pt.special_linear_path(H, colors, p, range(len(H.edges)))
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
        u, wits = pt.tripartite_ladder(H, parts, 1, range(len(H.edges)))
        assert u in set(parts[0])
        assert len(wits) == 1
        assert verify_path(H, wits[0])

    def test_not_linear(self):
        # transversal, but (0, 1, 3) and (0, 2, 3) project onto one pair
        H = Hypergraph.from_edges(4, [(0, 1, 3), (0, 2, 3)])
        with pytest.raises(NotLinear, match=r"^projection pair \(0, 3\) repeats$"):
            pt.tripartite_ladder(H, ([0], [1, 2], [3]), 1, range(len(H.edges)))

    def test_projection_path_from_part_3(self, monkeypatch):
        # the fixture with its labels reversed gives part 3 the smallest ids,
        # and the projection's long path 0-6-1-7-2-8 starts there: the ladder
        # starts one step on, at 6
        H0, parts0 = tripartite_fixture(3)
        H = Hypergraph.from_edges(9, [tuple(8 - v for v in e) for e in H0.edges], 3)
        parts = tuple([8 - v for v in part] for part in parts0)
        paths = []

        def spy(G, m):
            paths.append(long_path_from_density(G, m))
            return paths[-1]

        monkeypatch.setattr(pt, "long_path_from_density", spy)
        u, wits = pt.tripartite_ladder(H, parts, 2, range(len(H.edges)))
        assert paths == [[0, 6, 1, 7, 2, 8]] and paths[0][0] in parts[2]
        assert u == 6
        assert [w.spine for w in wits] == [(6, 5), (6, 1, 3)]
        for l, w in enumerate(wits, start=1):
            assert w.length == l and w.spine[-1] in parts[1]
            assert verify_path(H, w)

    def test_not_tripartite(self):
        H = Hypergraph.from_edges(4, [(0, 1, 2), (0, 1, 3)])
        with pytest.raises(PreconditionUnmet):
            pt.tripartite_ladder(H, ([0, 1], [2], [3]), 1, range(len(H.edges)))

    @pytest.mark.parametrize("p", range(1, 13))
    def test_ladder_up_to_12(self, p):
        # desk-scale validation of the ladder construction for p <= 12,
        # cross-checked against the injective-assignment oracle
        t = max(6, (3 * p + 1) // 2 + 1)
        H, parts = tripartite_fixture(t)
        covered = {v for e in H.edges for v in e}
        assert 2 * len(H.edges) >= p * len(covered)
        u, wits = pt.tripartite_ladder(H, parts, p, range(len(H.edges)))
        assert len(wits) == p
        for l, w in enumerate(wits, start=1):
            assert w.length == l
            assert w.spine[0] == u and w.spine[-1] in set(parts[1])
            assert verify_path(H, w)
            pairs = [tuple(sorted(x)) for x in zip(w.spine, w.spine[1:])]
            assert naive_extend(H.edges, pairs) is not None


@st.composite
def bipartite_at_bound(draw):
    """(G, k) with k in 1..4 and exactly 2e = 6kn, relabelled at random:
    a balanced or an unbalanced random bipartite graph, or a complete
    K_s,s pocket a little above the bound whose pendant periphery pulls
    the average back down to 6k."""
    k = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(("balanced", "unbalanced", "pocket")))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if shape == "balanced":
        a = b = rng.randint(6 * k, 6 * k + 6)
    elif shape == "unbalanced":
        # (a - 3k)(b - 3k) >= 9k^2 is ab >= 3k(a + b): room for 3kn edges
        t = rng.randint(1, 3 * k)
        a, b = 3 * k + t, 3 * k + -(-9 * k * k // t) + rng.randint(0, 3)
    if shape != "pocket":
        n = a + b
        pairs = [(i, a + j) for i in range(a) for j in range(b)]
        edges = rng.sample(pairs, 3 * k * n)
    else:
        d = rng.randint(1, 4)
        s = 6 * k + d
        # after K_s,s and one edge per pendant vertex, 3kn leaves p(3k - 1) - sd >= 0
        # edges, which join the periphery to the pocket or to itself
        p = -(-s * d // (3 * k - 1)) + rng.randint(0, 5)
        n = 2 * s + p
        side = [rng.random() < 0.5 for _ in range(p)]  # True: on the pocket's first side
        edges = [(i, s + j) for i in range(s) for j in range(s)]
        for x, first in enumerate(side):
            v = 2 * s + x
            edges.append((v, s + rng.randrange(s)) if first else (rng.randrange(s), v))
        A = list(range(s)) + [2 * s + x for x in range(p) if side[x]]
        B = list(range(s, 2 * s)) + [2 * s + x for x in range(p) if not side[x]]
        spare = sorted({(u, v) for u in A for v in B if u >= 2 * s or v >= 2 * s} - set(edges))
        edges += rng.sample(spare, 3 * k * n - len(edges))
    perm = list(range(n))
    rng.shuffle(perm)
    G = Graph.build(range(n), [(perm[u], perm[v]) for u, v in edges])
    assert 2 * G.e == 6 * k * G.n
    return G, k


def random_bipartite(a, p, seed):
    """The random(seed) subgraph of K_a,a keeping each edge with probability p."""
    rng = random.Random(seed)
    edges = [(i, a + j) for i in range(a) for j in range(a) if rng.random() < p]
    return Graph.build(range(2 * a), edges)


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
        # density barely above 6k: whichever route completes the run, the
        # contract must hold
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

    @given(bipartite_at_bound())
    @settings(max_examples=200, deadline=None)
    def test_at_the_bound(self, drawn):
        # exactly at average degree 6k a route must give the run: there is
        # no search behind them, so a gap raises InternalProofFailure here
        G, k = drawn
        run = pt.consecutive_even_cycles(G, k)
        assert run.k == k and len(run.cycles) == k
        adj = G.adjacency()
        for cyc in run.cycles:
            assert len(set(cyc)) == len(cyc) >= 4 and len(cyc) % 2 == 0
            assert all(cyc[(j + 1) % len(cyc)] in adj[cyc[j]] for j in range(len(cyc)))
        lens = sorted(run.lengths())
        assert all(b - a == 2 for a, b in zip(lens, lens[1:]))
        assert lens[0] <= run.shortest_bound

    @pytest.mark.parametrize("route, p", [("special_path", 0.7), ("long_path_from_density", 0.9)])
    def test_route_proof_failure_propagates(self, monkeypatch, route, p):
        # at each density the random(0) subgraph of K_16,16 reaches the
        # patched route; its InternalProofFailure must propagate
        G = random_bipartite(16, p, 0)

        def fail(*args, **kwargs):
            raise InternalProofFailure(route, "planted")

        monkeypatch.setattr(pt, route, fail)
        with pytest.raises(InternalProofFailure, match="planted"):
            pt.consecutive_even_cycles(G, 1)

    def test_mono_route_precondition_failure_is_a_proof_failure(self, monkeypatch):
        # the monochromatic gate proves special_path's preconditions, so a
        # PreconditionUnmet from it is a gap in the proof, not a route to skip
        def fail(*args, **kwargs):
            raise PreconditionUnmet("planted")

        monkeypatch.setattr(pt, "special_path", fail)
        with pytest.raises(InternalProofFailure, match="planted"):
            pt.consecutive_even_cycles(random_bipartite(16, 0.7, 0), 1)

    def test_invalid_route_run_is_a_proof_failure(self, monkeypatch):
        # the first component's routes hand back a run that is not a cycle run.
        # A later component of this draw gives a valid run, but a route whose
        # run fails verification is a gap in the proof, not a component to skip
        real = pt._routes_for_component
        calls = []

        def once(*args):
            calls.append(args)
            return [(0, 1)] if len(calls) == 1 else real(*args)

        monkeypatch.setattr(pt, "_routes_for_component", once)
        with pytest.raises(InternalProofFailure, match="failed verification"):
            pt.consecutive_even_cycles(random_bipartite(16, 0.7, 0), 1)
        assert len(calls) == 1

    def test_mono_route_gives_the_run(self, monkeypatch):
        # on this k = 2 draw the monochromatic route's run is the one returned:
        # its j-th cycle runs along the special path's first 2j + 2 vertices
        walks = []
        real = pt.special_path

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            walks.append(out.vertices)
            return out

        monkeypatch.setattr(pt, "special_path", spy)
        run = pt.consecutive_even_cycles(random_bipartite(16, 0.75, 2), 2)
        assert run.lengths() == (4, 6)
        assert len(walks) == 1
        for j, cyc in enumerate(run.cycles):
            seg = walks[0][: 2 * j + 2]
            at = cyc.index(seg[0])
            assert (cyc + cyc)[at : at + len(seg)] == seg


class TestPostconditionChecks:
    """The checks a route's output must pass, each `False` branch planted
    directly: no correct route reaches them."""

    # the loose path (0,1,2), (2,3,4), (4,5,6), closed back to 0 by (0,6,7)
    PATH_H = Hypergraph.from_edges(8, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 6, 7)])

    @pytest.mark.parametrize(
        "edges, want",
        [
            ([(0, 1, 2), (2, 3, 4), (4, 5, 6)], True),
            ([(0, 1, 2), (2, 3, 4), (0, 1, 2)], False),  # a repeated id
            ([(0, 1, 2), (4, 5, 6)], False),  # consecutive edges disjoint
            ([(0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 6, 7)], False),  # first meets last
        ],
    )
    def test_check_linear_path(self, edges, want):
        H = self.PATH_H
        assert pt.check_linear_path(H, [H.edges.index(e) for e in edges]) is want

    # K_3,3 on {0, 1, 2} | {3, 4, 5}, plus the edge (0, 1) closing the triangle 0-1-3
    EVEN_G = Graph.build(range(6), [(a, b) for a in range(3) for b in range(3, 6)] + [(0, 1)])

    @pytest.mark.parametrize(
        "run, want",
        [
            ([[0, 3, 1, 4], [0, 3, 1, 4, 2, 5]], True),
            ([[0, 3, 1, 4]], False),  # one cycle for k = 2
            ([[0, 3, 0, 4], [0, 3, 1, 4, 2, 5]], False),  # a repeated vertex
            ([[0, 1, 3], [0, 3, 1, 4]], False),  # an odd cycle
            ([[0, 3], [0, 3, 1, 4]], False),  # a 2-cycle
            ([[0, 3, 2, 1], [0, 3, 1, 4, 2, 5]], False),  # 2-1 is no edge
        ],
    )
    def test_valid_even_run(self, run, want):
        assert pt._valid_even_run(self.EVEN_G, run, 2, 4) is want


# one transversal edge over the parts {0} | {1} | {2}, a loose path of three
# edges and a 6-cycle
ONE_EDGE = Hypergraph.from_edges(3, [(0, 1, 2)])
LOOSE = Hypergraph.from_edges(7, [(0, 1, 2), (2, 3, 4), (4, 5, 6)])
HEXAGON = Graph.build(range(6), [(i, (i + 1) % 6) for i in range(6)])


class TestArgumentChecks:
    """Each public entry point refuses arguments outside its hypothesis."""

    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(
                lambda: pt.special_linear_path(
                    Hypergraph.from_edges(4, [(0, 1), (1, 2, 3)]), [1, 2], 1, [0, 1]
                ),
                "uniform hypergraph required",
                id="special-mixed-sizes",
            ),
            pytest.param(
                lambda: pt.special_linear_path(LOOSE, [2, 1, 1], 0, [0, 1, 2]),
                "p must be at least 1",
                id="special-p-0",
            ),
            pytest.param(
                lambda: pt.special_linear_path(LOOSE, [1, 1, 1], 1, [0, 1, 2]),
                "both colors must appear",
                id="special-one-color",
            ),
            pytest.param(
                lambda: pt.tripartite_ladder(ONE_EDGE, ([0], [1], [2]), 0, [0]),
                "p must be at least 1",
                id="ladder-p-0",
            ),
            pytest.param(
                lambda: pt.tripartite_ladder(ONE_EDGE, ([0], [1], [2]), 1, []),
                "no edges",
                id="ladder-no-ids",
            ),
            pytest.param(
                lambda: pt.tripartite_ladder(ONE_EDGE, ([0, 1], [1], [2]), 1, [0]),
                "parts must be disjoint",
                id="ladder-overlapping-parts",
            ),
            pytest.param(
                lambda: pt.tripartite_ladder(ONE_EDGE, ([0], [1], [2]), 1, [0]),
                "need d >= 3/2, have 1",
                id="ladder-below-3p/2",
            ),
            pytest.param(
                lambda: pt.consecutive_even_cycles(HEXAGON, 0),
                "k must be at least 1",
                id="even-k-0",
            ),
        ],
    )
    def test_table(self, call, message):
        with pytest.raises(PreconditionUnmet, match=f"^{re.escape(message)}$"):
            call()
