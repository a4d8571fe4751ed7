import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergelab import skeleton as sk
from bergelab.errors import PreconditionUnmet
from bergelab.generators import random_linear_r
from bergelab.hypergraph import Hypergraph

from naive import naive_build_skeleton, naive_frame, tree_vertices

FANO = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]


def random_3graph(n, m, seed):
    rng = random.Random(seed)
    universe = list(combinations(range(n), 3))
    rng.shuffle(universe)
    return Hypergraph.from_edges(n, universe[: min(m, len(universe))], uniformity=3)


class TestBuild:
    def test_single_edge_attaches_smaller(self):
        H = Hypergraph.from_edges(3, [(0, 1, 2)])
        S = sk.build_skeleton(H, 0)
        assert S.levels == [[0], [1]]
        assert S.edge_for == {(0, 1): 0}
        assert 2 not in tree_vertices(S)

    def test_two_edges(self):
        H = Hypergraph.from_edges(4, [(0, 1, 2), (0, 1, 3)])
        S = sk.build_skeleton(H, 0)
        assert S.levels[1] == [1, 3]

    def test_linear_edge_map_matches_covers(self):
        H = Hypergraph.from_edges(7, FANO)
        S = sk.build_skeleton(H, 0)
        for (u, v), ei in S.edge_for.items():
            assert u in H.edges[ei] and v in H.edges[ei]

    def test_tree_shape(self):
        H = random_3graph(9, 12, 5)
        S = sk.build_skeleton(H, 0)
        assert len(S.edge_for) == len(tree_vertices(S)) - 1
        # psi injective
        assert len(set(S.edge_for.values())) == len(S.edge_for)

    @given(st.integers(0, 10**6), st.sampled_from(("linear", "random")))
    @settings(max_examples=200, deadline=None)
    def test_levels_in_attach_order(self, seed, kind):
        # the levels list the vertices as the BFS attached them, which is the
        # level map's insertion order, and the classes hold one list per level
        rng = random.Random(seed)
        H = random_input(rng, seed, kind)
        S = sk.build_skeleton(H, rng.randrange(H.n), random_active(rng, len(H.edges)))
        assert [v for lv in S.levels for v in lv] == list(S.level_of)
        cl = S.classes
        assert len(cl.down) == len(cl.within) == len(cl.up) == S.height + 1

    def test_attach_levels_monotone(self):
        H = random_3graph(10, 20, 11)
        S = sk.build_skeleton(H, 0)
        assert S.level_of[S.root] == 0
        for v, u in S.parent.items():
            if v != S.root:
                assert S.level_of[v] == S.level_of[u] + 1


class TestClassify:
    def test_fano_partitions(self):
        H = Hypergraph.from_edges(7, FANO)
        for root in range(7):
            S = sk.build_skeleton(H, root)
            cl = sk.classify_levels(H, S)
            used = {e for grp in (cl.down, cl.within, cl.up) for lv in grp for e in lv}
            assert used | set(S.edge_for.values()) == set(range(7))
            assert S.read == set(range(7))

    def test_star_classes(self):
        H = Hypergraph.from_edges(7, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5)])
        S = sk.build_skeleton(H, 0)
        cl = sk.classify_levels(H, S)
        total = sum(len(v) for g in (cl.down, cl.within, cl.up) for v in g)
        assert total == len(H.edges) - len(S.edge_for)

    @given(st.integers(5, 10), st.integers(1, 25), st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_partition_random(self, n, m, seed):
        H = random_3graph(n, m, seed)
        if not H.edges:
            return
        root = seed % n
        S = sk.build_skeleton(H, root)
        cl = sk.classify_levels(H, S)
        assert len(S.edge_for) == len(tree_vertices(S)) - 1
        classified = [e for grp in (cl.down, cl.within, cl.up) for lv in grp for e in lv]
        assert len(classified) == len(set(classified))
        expect = {
            ei
            for ei in range(len(H.edges))
            if ei not in S.edge_for.values()
            and set(H.edges[ei]) & tree_vertices(S)
        }
        assert set(classified) == expect


    @given(st.integers(5, 10), st.integers(1, 25), st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_active_subset(self, n, m, seed):
        H = random_3graph(n, m, seed)
        rng = random.Random(seed)
        active = rng.sample(range(len(H.edges)), rng.randint(1, len(H.edges)))
        S = sk.build_skeleton(H, H.edges[active[0]][0], active)
        cl = sk.classify_levels(H, S)
        again = sk.build_skeleton(H, H.edges[active[0]][0], set(active))
        assert sk.classify_levels(H, again) == cl
        classified = [e for grp in (cl.down, cl.within, cl.up) for lv in grp for e in lv]
        assert all(len(grp) == S.height + 1 for grp in (cl.down, cl.within, cl.up))
        expect = {
            ei
            for ei in active
            if ei not in S.edge_for.values() and set(H.edges[ei]) & tree_vertices(S)
        }
        assert sorted(classified) == sorted(expect)
        assert S.read == expect | set(S.edge_for.values())

    def test_active_set_used_as_given(self):
        class Probed(set):
            hits = 0

            def __contains__(self, ei):
                Probed.hits += 1
                return set.__contains__(self, ei)

        H = Hypergraph.from_edges(7, FANO)
        S = sk.build_skeleton(H, 0, Probed(range(6)))
        assert Probed.hits > 0
        assert 6 not in S.edge_for.values()

    @given(st.integers(0, 10**6), st.sampled_from(("linear", "random")))
    @settings(max_examples=200, deadline=None)
    def test_each_edge_has_its_class_levels(self, seed, kind):
        # down_l: levels (l-1, l, l); within_l: (l, l, l); up_l: (l, l, l+1)
        rng = random.Random(seed)
        H = random_input(rng, seed, kind)
        S = sk.build_skeleton(H, rng.randrange(H.n), random_active(rng, len(H.edges)))
        cl = sk.classify_levels(H, S)
        level_of = S.level_of
        for l in range(S.height + 1):
            for ei, shape in (
                [(ei, (l - 1, l, l)) for ei in cl.down[l]]
                + [(ei, (l, l, l)) for ei in cl.within[l]]
                + [(ei, (l, l, l + 1)) for ei in cl.up[l]]
            ):
                assert tuple(sorted(level_of[v] for v in H.edges[ei])) == shape

    def test_one_edge_in_each_class(self):
        # root 0 attaches 1, 3, 5 (level 1); head 1 attaches 4 and head 3
        # attaches 2 (level 2), so level 2 holds 4 before 2. Edge 3 = (1, 3, 5)
        # is read from 1 with both others on level 1, edge 7 = (3, 4, 5) from 3
        # with 5 on level 1 and 4 on level 2, edge 6 = (2, 4, 5) from 5 with
        # both on level 2.
        H = Hypergraph.from_edges(7, FANO + [(3, 4, 5)])
        S = sk.build_skeleton(H, 0)
        assert S.levels == [[0], [1, 3, 5], [4, 2]]
        assert list(S.level_of) == [0, 1, 3, 5, 4, 2]
        cl = sk.classify_levels(H, S)
        assert cl.within == [[], [3], []]
        assert cl.up == [[], [7], []]
        assert cl.down == [[], [], [6]]
        assert S.read == set(range(8))
        assert cl is S.classes  # filed once, by the build


def random_input(rng, seed, kind):
    if kind == "linear":
        n = rng.randrange(5, 40)
        return random_linear_r(n, 3, rng.randrange(1, 3 * n), seed=seed)[0]
    return random_3graph(rng.randrange(5, 12), rng.randrange(1, 40), seed)


def random_active(rng, m):
    ids = rng.sample(range(m), rng.randint(0, m))
    return rng.choice((None, set(ids), ids, frozenset(ids)))


class TestMatchesGenericLoops:
    @given(st.integers(0, 10**6), st.sampled_from(("linear", "random")))
    @settings(max_examples=200, deadline=None)
    def test_same_active_edges(self, seed, kind):
        rng = random.Random(seed)
        H = random_input(rng, seed, kind)
        root = rng.randrange(H.n)
        active = random_active(rng, len(H.edges))
        want = naive_build_skeleton(H, root, active)
        got = sk.build_skeleton(H, root, active)
        assert got.root == want.root
        assert list(got.parent.items()) == list(want.parent.items())
        assert list(got.edge_for.items()) == list(want.edge_for.items())
        # the reference sorts each level and class and pads the classes by one level
        assert tuple(tuple(sorted(lv)) for lv in got.levels) == want.levels
        for name in ("down", "within", "up"):
            mine, ref = getattr(got.classes, name), getattr(want.classes, name)
            assert tuple(tuple(sorted(lv)) for lv in mine) + ((),) == ref
        assert got.read == want.read  # the edges the generic loop read
        assert got.level_of == {v: i for i, lv in enumerate(got.levels) for v in lv}

    def test_classify_needs_3_graph(self):
        S = sk.build_skeleton(Hypergraph.from_edges(3, [(0, 1, 2)]), 0)
        with pytest.raises(PreconditionUnmet):
            sk.classify_levels(Hypergraph.from_edges(4, [(0, 1, 2, 3)]), S)


class TestFrameFromParent:
    def test_two_branches(self):
        H = Hypergraph.from_edges(7, [(0, 1, 2), (0, 3, 4), (1, 5, 6)])
        S = sk.build_skeleton(H, 0)
        color_of, paths, top = sk.frame_from_parent(S.parent, [1, 3])
        assert paths == {1: [0, 1], 3: [0, 3]} and top == 0
        assert color_of == {1: 1, 3: 2}

    def test_pushed_down(self):
        # all of W under one child of the root: the anchor moves down
        H = Hypergraph.from_edges(8, [(0, 1, 2), (1, 3, 4), (1, 5, 6)])
        S = sk.build_skeleton(H, 0)
        color_of, paths, top = sk.frame_from_parent(S.parent, [3, 5])
        assert paths == {3: [0, 1, 3], 5: [0, 1, 5]} and top == 1
        assert color_of == {3: 1, 5: 2}

    def test_degenerate_one_branch(self):
        H = Hypergraph.from_edges(6, [(0, 1, 2), (1, 3, 4)])
        S = sk.build_skeleton(H, 0)
        assert sk.frame_from_parent(S.parent, [1, 3]) is None

    def test_w_holds_its_anchor(self):
        # W spans two branches below 1, but 1 itself is in W: no frame
        H = Hypergraph.from_edges(8, [(0, 1, 2), (1, 3, 4), (1, 5, 6)])
        S = sk.build_skeleton(H, 0)
        assert sk.frame_from_parent(S.parent, [1, 3, 5]) is None
        assert sk.frame_from_parent(S.parent, [0, 3, 5]) is None
        assert sk.frame_from_parent(S.parent, [3]) is None

    def test_empty_w(self):
        S = sk.build_skeleton(Hypergraph.from_edges(3, [(0, 1, 2)]), 0)
        assert sk.frame_from_parent(S.parent, []) is None


def random_parent(rng):
    """A random rooted tree on shuffled labels; a chain-heavy one half the time."""
    n = rng.randrange(1, 30)
    label = rng.sample(range(n), n)
    chainy = rng.random() < 0.5
    parent = {label[0]: -1}
    for v in range(1, n):
        lo = v - 1 if chainy and rng.random() < 0.7 else 0
        parent[label[v]] = label[rng.randrange(lo, v)]
    return parent


class TestFrameDifferential:
    @given(st.integers(0, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_matches_ancestor_sets(self, seed):
        rng = random.Random(seed)
        parent = random_parent(rng)
        W = rng.sample(sorted(parent), rng.randint(0, min(len(parent), 6)))
        want = naive_frame(parent, W)
        got = sk.frame_from_parent(parent, W)
        if want is None:
            assert got is None
            return
        color_of, anchor_to = want
        assert got is not None
        assert got.color == color_of
        assert set(got.paths) == set(W)
        root = next(v for v, p in parent.items() if p == -1)
        for w in W:
            assert got.paths[w][0] == root
            assert got.paths[w][got.top :] == anchor_to[w]
