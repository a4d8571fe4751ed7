import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergelab import skeleton as sk
from bergelab.errors import PreconditionUnmet, WNotInTree
from bergelab.hypergraph import Hypergraph

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
        assert S.levels == ((0,), (1,))
        assert S.edge_for == {(0, 1): 0}
        assert 2 not in S.tree_vertices()

    def test_two_edges(self):
        H = Hypergraph.from_edges(4, [(0, 1, 2), (0, 1, 3)])
        S = sk.build_skeleton(H, 0)
        assert S.levels[1] == (1, 3)

    def test_linear_edge_map_matches_covers(self):
        H = Hypergraph.from_edges(7, FANO)
        S = sk.build_skeleton(H, 0)
        for (u, v), ei in S.edge_for.items():
            assert u in H.edges[ei] and v in H.edges[ei]

    def test_tree_shape(self):
        H = random_3graph(9, 12, 5)
        S = sk.build_skeleton(H, 0)
        assert len(S.edge_for) == len(S.tree_vertices()) - 1
        # psi injective
        assert len(set(S.edge_for.values())) == len(S.edge_for)

    def test_attach_levels_monotone(self):
        H = random_3graph(10, 20, 11)
        S = sk.build_skeleton(H, 0)
        lv = [l for (_, l, _) in S.attach_log]
        assert lv == sorted(lv)


class TestClassify:
    def test_fano_partitions(self):
        H = Hypergraph.from_edges(7, FANO)
        for root in range(7):
            S = sk.build_skeleton(H, root)
            cl = sk.classify_levels(H, S)
            used = {e for grp in (cl.down, cl.within, cl.up) for lv in grp for e in lv}
            assert used | S.tree_edge_images() == set(range(7))

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
        assert len(S.edge_for) == len(S.tree_vertices()) - 1
        classified = [e for grp in (cl.down, cl.within, cl.up) for lv in grp for e in lv]
        assert len(classified) == len(set(classified))
        expect = {
            ei
            for ei in range(len(H.edges))
            if ei not in S.tree_edge_images()
            and set(H.edges[ei]) & S.tree_vertices()
        }
        assert set(classified) == expect


    @given(st.integers(5, 10), st.integers(1, 25), st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_active_subset(self, n, m, seed):
        H = random_3graph(n, m, seed)
        rng = random.Random(seed)
        active = rng.sample(range(len(H.edges)), rng.randint(1, len(H.edges)))
        S = sk.build_skeleton(H, H.edges[active[0]][0], active)
        cl = sk.classify_levels(H, S, active)
        assert sk.classify_levels(H, S, set(active)) == cl
        classified = [e for grp in (cl.down, cl.within, cl.up) for lv in grp for e in lv]
        assert all(list(lv) == sorted(lv) for grp in (cl.down, cl.within, cl.up) for lv in grp)
        expect = {
            ei
            for ei in active
            if ei not in S.tree_edge_images() and set(H.edges[ei]) & S.tree_vertices()
        }
        assert sorted(classified) == sorted(expect)

    def test_active_set_used_as_given(self):
        class Probed(set):
            hits = 0

            def __contains__(self, ei):
                Probed.hits += 1
                return set.__contains__(self, ei)

        H = Hypergraph.from_edges(7, FANO)
        S = sk.build_skeleton(H, 0, Probed(range(6)))
        after_build = Probed.hits
        sk.classify_levels(H, S, Probed(range(6)))
        assert 0 < after_build < Probed.hits
        assert 6 not in S.tree_edge_images()


class TestAncestorFrame:
    def test_two_branches(self):
        H = Hypergraph.from_edges(7, [(0, 1, 2), (0, 3, 4), (1, 5, 6)])
        S = sk.build_skeleton(H, 0)
        fr = sk.ancestor_frame(S, [1, 3])
        assert fr.anchor == 0
        assert fr.color_of[1] != fr.color_of[3]

    def test_pushed_down(self):
        # all of W under one child of the root: the anchor moves down
        H = Hypergraph.from_edges(8, [(0, 1, 2), (1, 3, 4), (1, 5, 6)])
        S = sk.build_skeleton(H, 0)
        fr = sk.ancestor_frame(S, [3, 5])
        assert fr.anchor == 1

    def test_w_not_in_tree(self):
        H = Hypergraph.from_edges(4, [(0, 1, 2)])
        S = sk.build_skeleton(H, 0)
        with pytest.raises(WNotInTree):
            sk.ancestor_frame(S, [1, 3])

    def test_degenerate_one_branch(self):
        H = Hypergraph.from_edges(6, [(0, 1, 2), (1, 3, 4)])
        S = sk.build_skeleton(H, 0)
        with pytest.raises(PreconditionUnmet):
            sk.ancestor_frame(S, [1, 3])
