import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergelab import skeleton as sk
from bergelab.errors import PreconditionUnmet
from bergelab.generators import permuted, random_linear_r, steiner_triple
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
        S = sk.build_skeleton(H, rng.randrange(H.n), random_live(rng, len(H.edges)))
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
            live = bytearray(b"\x01") * 7
            S = sk.build_skeleton(H, root, live)
            cl = sk.classify_levels(H, S)
            used = {e for grp in (cl.down, cl.within, cl.up) for lv in grp for e in lv}
            assert used | set(S.edge_for.values()) == set(range(7))
            assert sorted(S.read) == list(range(7))  # every edge, once
            assert live == bytearray(7)  # and each one cleared
            assert sk.build_skeleton(H, root).read == S.read  # as with no mask

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
        root = H.edges[active[0]][0]
        live = live_mask(len(H.edges), active)
        S = sk.build_skeleton(H, root, live)
        cl = sk.classify_levels(H, S)
        # the same mask built in another order gives the same skeleton
        again = sk.build_skeleton(H, root, live_mask(len(H.edges), active[::-1]))
        assert sk.classify_levels(H, again) == cl and again.read == S.read
        classified = [e for grp in (cl.down, cl.within, cl.up) for lv in grp for e in lv]
        assert all(len(grp) == S.height + 1 for grp in (cl.down, cl.within, cl.up))
        expect = {
            ei
            for ei in active
            if ei not in S.edge_for.values() and set(H.edges[ei]) & tree_vertices(S)
        }
        assert sorted(classified) == sorted(expect)
        assert sorted(S.read) == sorted(expect | set(S.edge_for.values()))
        # the build cleared exactly what it read: from the same root, the
        # mask it left reads nothing more
        assert live == live_mask(len(H.edges), set(active) - set(S.read))
        assert sk.build_skeleton(H, root, live).read == []

    def test_active_set_used_as_given(self):
        # the build reads and clears the caller's own mask, not a copy
        class Probed(bytearray):
            hits = 0

            def __getitem__(self, ei):
                Probed.hits += 1
                return bytearray.__getitem__(self, ei)

        H = Hypergraph.from_edges(7, FANO)
        live = Probed(b"\x01" * 6 + b"\x00")
        S = sk.build_skeleton(H, 0, live)
        assert Probed.hits > 0
        assert 6 not in S.edge_for.values() and 6 not in S.read
        assert live == bytearray(7)

    @given(st.integers(0, 10**6), st.sampled_from(("linear", "random")))
    @settings(max_examples=200, deadline=None)
    def test_each_edge_has_its_class_levels(self, seed, kind):
        # down_l: levels (l-1, l, l); within_l: (l, l, l); up_l: (l, l, l+1)
        rng = random.Random(seed)
        H = random_input(rng, seed, kind)
        S = sk.build_skeleton(H, rng.randrange(H.n), random_live(rng, len(H.edges)))
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
        # read order: the root's three tree edges, then head 1's 3 and 4,
        # head 3's 5 and 7, head 5's 6
        assert S.read == [0, 1, 2, 3, 4, 5, 7, 6]
        assert cl is S.classes  # filed once, by the build


def random_input(rng, seed, kind):
    if kind == "linear":
        n = rng.randrange(5, 40)
        return random_linear_r(n, 3, rng.randrange(1, 3 * n), seed=seed)[0]
    return random_3graph(rng.randrange(5, 12), rng.randrange(1, 40), seed)


def live_mask(m, ids):
    """The byte mask over m edges with a set byte at each of `ids`."""
    live = bytearray(m)
    for ei in ids:
        live[ei] = 1
    return live


def random_live(rng, m):
    """None (every edge) or a mask over a random subset of the m edges."""
    if rng.random() < 0.25:
        return None
    return live_mask(m, rng.sample(range(m), rng.randint(0, m)))


class TestMatchesGenericLoops:
    @given(st.integers(0, 10**6), st.sampled_from(("linear", "random")))
    @settings(max_examples=200, deadline=None)
    def test_same_active_edges(self, seed, kind):
        rng = random.Random(seed)
        H = random_input(rng, seed, kind)
        root = rng.randrange(H.n)
        live = random_live(rng, len(H.edges))
        given = None if live is None else bytes(live)
        want = naive_build_skeleton(H, root, given)
        got = sk.build_skeleton(H, root, live)
        assert got.root == want.root
        assert list(got.parent.items()) == list(want.parent.items())
        assert list(got.edge_for.items()) == list(want.edge_for.items())
        # the reference sorts each level and class and pads the classes by one level
        assert tuple(tuple(sorted(lv)) for lv in got.levels) == want.levels
        for name in ("down", "within", "up"):
            mine, ref = getattr(got.classes, name), getattr(want.classes, name)
            assert tuple(tuple(sorted(lv)) for lv in mine) + ((),) == ref
        assert got.read == want.read  # the edges the generic loop read, in its order
        assert len(set(got.read)) == len(got.read)
        if live is not None:  # the build cleared exactly the bytes of the edges it read
            kept = {i for i, byte in enumerate(given) if byte} - set(got.read)
            assert live == live_mask(len(H.edges), kept)
        assert got.level_of == {v: i for i, lv in enumerate(got.levels) for v in lv}

    def test_classify_needs_3_graph(self):
        S = sk.build_skeleton(Hypergraph.from_edges(3, [(0, 1, 2)]), 0)
        with pytest.raises(PreconditionUnmet):
            sk.classify_levels(Hypergraph.from_edges(4, [(0, 1, 2, 3)]), S)


def stop_input(rng, seed, kind):
    """A random linear 3-graph, a relabelled Steiner triple system, or a
    relabelled union of loose paths, loose cycles and small systems."""
    if kind == "linear":
        return random_input(rng, seed, kind)
    if kind == "steiner":
        return permuted(steiner_triple(rng.choice((7, 9, 13, 15, 19, 21, 25, 27, 31))), seed)
    edges, base = [], 0
    for _ in range(rng.randint(2, 5)):
        shape, size = rng.choice(("path", "cycle", "steiner")), rng.randint(1, 12)
        if shape == "steiner":
            part = steiner_triple(rng.choice((7, 9, 13)))
            n, part_edges = part.n, part.edges
        elif shape == "path":
            n, part_edges = 2 * size + 1, [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(size)]
        else:
            n = 2 * size + 4
            part_edges = [(2 * i, 2 * i + 1, (2 * i + 2) % n) for i in range(size + 2)]
        edges.extend(tuple(sorted(v + base for v in e)) for e in part_edges)
        base += n
    return permuted(Hypergraph.from_edges(base, edges, uniformity=3), seed)


class TestHeavyStop:
    @given(
        st.integers(0, 10**6),
        st.sampled_from(("linear", "steiner", "union")),
        st.one_of(st.none(), st.integers(0, 6)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_full_build_cut(self, seed, kind, heavy):
        # The build told `heavy` is the whole build cut at the first level
        # i >= 1 with |down_i| >= heavy * |L_i|: levels 0..i and their tree,
        # down_0..down_i, within and up below i (empty at i), and the edges
        # the heads above level i read, which are the bytes it cleared.
        rng = random.Random(seed)
        H = stop_input(rng, seed, kind)
        root = rng.randrange(H.n)
        live = random_live(rng, len(H.edges))
        given = bytes(live) if live is not None else b"\x01" * len(H.edges)
        full = sk.build_skeleton(H, root, bytearray(given))
        got = sk.build_skeleton(H, root, live, heavy)
        cl = full.classes
        i = next(
            (
                l
                for l in range(1, full.height + 1)
                if heavy is not None and len(cl.down[l]) >= heavy * len(full.levels[l])
            ),
            None,
        )
        if i is None:  # no level is heavy: the whole build
            assert got == full and got.level_of == full.level_of
            assert got.classes == cl and got.read == full.read
        else:
            kept = {v for lv in full.levels[: i + 1] for v in lv}
            assert got.root == root
            assert got.levels == full.levels[: i + 1]
            assert list(got.parent.items()) == [(v, p) for v, p in full.parent.items() if v in kept]
            assert list(got.level_of.items()) == [
                (v, l) for v, l in full.level_of.items() if v in kept
            ]
            assert list(got.edge_for.items()) == [
                (pair, ei) for pair, ei in full.edge_for.items() if kept.issuperset(pair)
            ]
            assert got.classes.down == cl.down[: i + 1]
            assert got.classes.within == cl.within[:i] + [[]]
            assert got.classes.up == cl.up[:i] + [[]]
            assert got.read == full.read[: len(got.read)]
            filed = cl.within[:i] + cl.up[:i] + cl.down[: i + 1]
            assert sorted(got.read) == sorted([*got.edge_for.values(), *sum(filed, [])])
        if live is not None:
            kept_edges = {ei for ei, byte in enumerate(given) if byte} - set(got.read)
            assert live == live_mask(len(H.edges), kept_edges)

    def test_stops_before_the_heavy_level_reads(self):
        # STS(13) from 0: |L_2| = 6 and down_2 holds 9 edges. Told heavy = 1,
        # the build stops before level 2's heads read, so the one within_2
        # edge, 14, keeps its byte.
        H = steiner_triple(13)
        full = sk.build_skeleton(H, 0)
        assert [len(c) for c in full.classes.down] == [0, 0, 9]
        live = bytearray(b"\x01") * len(H.edges)
        S = sk.build_skeleton(H, 0, live, heavy=1)
        assert S.levels == full.levels and S.read == full.read[:-1]
        assert full.classes.within[2] == [14] and S.classes.within[2] == []
        assert [ei for ei, byte in enumerate(live) if byte] == [14]
        # 9 < 2 * 6, so told heavy = 2 the build runs to the end
        assert sk.build_skeleton(H, 0, heavy=2).read == full.read
        # told heavy = 0, the empty down_1 stops it: the root's edges alone
        S = sk.build_skeleton(H, 0, heavy=0)
        assert S.levels == [[0], [1, 3, 4, 5, 8, 9]] and S.read == [0, 1, 2, 3, 4, 5]


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
