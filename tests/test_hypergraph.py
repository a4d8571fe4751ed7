import gc
import random
import weakref
from fractions import Fraction
from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergelab import finder as fd
from bergelab import hypergraph as hg
from bergelab.errors import (
    DuplicateEdge,
    EdgeSizeMismatch,
    MalformedLine,
    PreconditionUnmet,
    VertexOutOfRange,
)
from bergelab.generators import random_linear_r

FANO = [
    (0, 1, 2),
    (0, 3, 4),
    (0, 5, 6),
    (1, 3, 5),
    (1, 4, 6),
    (2, 3, 6),
    (2, 4, 5),
]


def fano():
    return hg.Hypergraph.from_edges(7, FANO)


def complete3(n):
    return hg.Hypergraph.from_edges(n, combinations(range(n), 3))


class TestParse:
    def test_basic(self):
        H = hg.parse("3 4 2\n0 1 2\n0 1 3\n")
        assert H.n == 4
        assert H.edges == ((0, 1, 2), (0, 1, 3))
        assert H.uniformity == 3

    def test_duplicate_edge_any_order(self):
        with pytest.raises(DuplicateEdge):
            hg.parse("3 3 2\n0 1 2\n2 1 0\n")

    def test_fano_parses_linear(self):
        text = "3 7 7\n" + "\n".join(" ".join(map(str, e)) for e in FANO) + "\n"
        H = hg.parse(text)
        # independent linearity check: all 21 edge pairs intersect in <= 1 vertex
        for a, b in combinations(H.edges, 2):
            assert len(set(a) & set(b)) <= 1
        assert hg.profile(H).is_linear

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            hg.parse("3 3 1\n0 1 3\n")

    def test_ragged_uniform(self):
        with pytest.raises(EdgeSizeMismatch):
            hg.parse("3 5 1\n0 1 2 3\n")

    def test_malformed(self):
        with pytest.raises(MalformedLine):
            hg.parse("3 3\n")
        with pytest.raises(MalformedLine):
            hg.parse("3 3 1\n0 x 2\n")
        with pytest.raises(MalformedLine):
            hg.parse("3 3 2\n0 1 2\n")

    def test_non_uniform(self):
        H = hg.parse("0 5 2\n0 1\n0 1 2 3\n")
        assert H.uniformity is None
        assert H.edges == ((0, 1), (0, 1, 2, 3))

    def test_header_zero_derives_uniformity(self):
        text = "0 7 7\n" + "".join(f"{a} {b} {c}\n" for a, b, c in FANO)
        H = hg.parse(text)
        assert H == hg.Hypergraph.from_edges(7, FANO)
        assert H.uniformity == 3
        assert hg.parse("0 4 0\n").uniformity is None


class TestFromEdges:
    def test_one_shot_edge_iterables(self):
        H = hg.Hypergraph.from_edges(4, [iter((0, 1, 2)), (v for v in (3, 1, 2))])
        assert H == hg.Hypergraph.from_edges(4, [(0, 1, 2), (1, 2, 3)])

    def test_one_shot_repeat_reported(self):
        with pytest.raises(MalformedLine, match=r"edge \(0, 0, 1\) repeats"):
            hg.Hypergraph.from_edges(3, [iter((0, 0, 1))])

    def test_declared_uniformity_rejects_mixed_sizes(self):
        with pytest.raises(EdgeSizeMismatch, match="declared uniformity 3"):
            hg.Hypergraph.from_edges(4, [(0, 1, 2), (0, 3)], uniformity=3)
        assert hg.Hypergraph.from_edges(4, [(0, 1, 2), (0, 3)]).uniformity is None


class TestSerialize:
    def test_round_trip_examples(self):
        for H in (fano(), complete3(5), hg.parse("0 5 2\n0 1\n0 1 2 3\n")):
            assert hg.parse(hg.serialize(H)) == H

    def test_exact_bytes(self):
        H = hg.Hypergraph.from_edges(4, [(0, 1, 3), (0, 1, 2)])
        assert hg.serialize(H) == "3 4 2\n0 1 2\n0 1 3\n"

    @given(st.integers(3, 7), st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, n, triples):
        edges = {tuple(sorted(t)) for t in triples if len(set(t)) == 3 and max(t) < n}
        H = hg.Hypergraph.from_edges(n, sorted(edges))
        assert hg.parse(hg.serialize(H)) == H


class TestProfile:
    def test_complete_3_graph_on_5(self):
        p = hg.profile(complete3(5))
        assert p.per_vertex_degree == (6,) * 5
        assert p.average_degree == Fraction(6)
        assert not p.is_linear

    def test_fano(self):
        p = hg.profile(fano())
        assert p.per_vertex_degree == (3,) * 7
        assert p.is_linear

    def test_single_edge(self):
        p = hg.profile(hg.Hypergraph.from_edges(3, [(0, 1, 2)]))
        assert p.average_degree == Fraction(1)
        assert p.min_degree == 1
        assert p.is_linear


def edge_size_average(H):
    return Fraction(sum(len(e) for e in H.edges), H.n) if H.n else Fraction(0)


class TestAverageDegree:
    @given(st.integers(0, 10**6), st.sampled_from(("uniform", "mixed", "empty")))
    @settings(max_examples=120, deadline=None)
    def test_matches_edge_sizes(self, seed, kind):
        rng = random.Random(seed)
        n = rng.randrange(0, 4) if kind == "empty" else rng.randrange(5, 11)
        sizes = {"uniform": [rng.randrange(2, 5)], "mixed": [2, 3, 4], "empty": []}[kind]
        universe = [s for size in sizes for s in combinations(range(n), size)]
        edges = rng.sample(universe, rng.randrange(1, min(len(universe), 30))) if universe else []
        H = hg.Hypergraph.from_edges(n, edges)
        header = H.uniformity if H.uniformity is not None and rng.random() < 0.5 else 0
        body = "".join(" ".join(map(str, rng.sample(e, len(e)))) + "\n" for e in edges)
        parsed = hg.parse(f"{header} {n} {len(edges)}\n{body}")
        keep = [i for i in range(len(H.edges)) if rng.random() < 0.5]
        sub, _ = H.restrict(keep)
        assert (H.uniformity is None) == (len({len(e) for e in edges}) != 1)
        for G in (H, parsed, sub):
            assert hg.average_degree(G) == edge_size_average(G)

    def test_empty_view_keeps_uniformity(self):
        sub, _ = fano().restrict([])
        assert sub.uniformity == 3 and not sub.edges
        assert hg.average_degree(sub) == 0
        assert hg.average_degree(hg.Hypergraph(0, (), 3)) == 0

    @given(st.integers(0, 10**6), st.integers(4, 5))
    @settings(max_examples=30, deadline=None)
    def test_linear_prefix_graph(self, seed, r):
        rng = random.Random(seed)
        n = rng.randrange(r + 2, 40)
        H, _ = random_linear_r(n, r, rng.randrange(1, 3 * n), seed=seed)
        with mock.patch.object(fd, "skeleton_sweep", wraps=fd.skeleton_sweep) as sweep:
            fd.find_linear_r(H, 1)
        H3 = sweep.call_args.args[0]
        assert H3.uniformity == 3 and len(H3.edges) == len(H.edges)
        assert hg.average_degree(H3) == edge_size_average(H3)
        assert hg.average_degree(H) == edge_size_average(H)


class TestIsLinear:
    @given(st.integers(3, 8), st.sets(st.lists(st.integers(0, 7), min_size=2, max_size=4)
                                      .map(lambda e: tuple(sorted(set(e)))), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_matches_pair_cover_definition(self, n, edges):
        edges = {e for e in edges if len(e) >= 2 and e[-1] < n}
        H = hg.Hypergraph.from_edges(n, sorted(edges))
        want = all(len(ids) <= 1 for ids in hg.pair_covers(H).values())
        twin = hg.Hypergraph.from_edges(n, sorted(edges))
        assert hg.is_linear(twin) is want
        assert hg.profile(twin).is_linear is want

    def test_builds_no_pair_index(self):
        H, K = fano(), complete3(5)
        assert hg.is_linear(H) and not hg.is_linear(K)
        hg.profile(H)
        assert H._pair_covers is None and K._pair_covers is None

    def test_scanned_once_per_instance(self, monkeypatch):
        H = fano()
        assert hg.is_linear(H)
        monkeypatch.setattr(hg, "no_pair_twice", lambda edges: pytest.fail("rescanned"))
        assert hg.is_linear(H) and hg.profile(H).is_linear


class TestShadow:
    """The k-shadow as cover_lists and pair_covers build it."""

    def test_single_edge(self):
        cov = hg.pair_covers(hg.Hypergraph.from_edges(3, [(0, 1, 2)]))
        assert list(cov) == [(0, 1), (0, 2), (1, 2)]
        assert list(cov.values()) == [(0,), (0,), (0,)]

    def test_codegree_two(self):
        cov = hg.pair_covers(hg.Hypergraph.from_edges(4, [(0, 1, 2), (0, 1, 3)]))
        assert cov[(0, 1)] == (0, 1)

    def test_fano_all_pairs_once(self):
        cov = hg.pair_covers(fano())
        assert len(cov) == 21
        assert all(len(c) == 1 for c in cov.values())

    @given(st.integers(4, 7), st.integers(1, 2), st.sets(st.integers(0, 34), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_cover_count_identity(self, n, k, idxs):
        universe = list(combinations(range(n), 3))
        edges = [universe[i % len(universe)] for i in sorted(idxs)]
        H = hg.Hypergraph.from_edges(n, set(edges))
        if not H.edges:
            return
        cov = hg.cover_lists(H.edges, k)
        assert sum(len(c) for c in cov.values()) == len(H.edges) * comb(3, k)


class TestCoverLists:
    def test_positions_in_edge_order(self):
        cov = hg.cover_lists([(0, 1, 2), (0, 1, 3), (1, 3)], 2)
        assert cov == {(0, 1): [0, 1], (0, 2): [0], (1, 2): [0], (0, 3): [1], (1, 3): [1, 2]}
        assert list(cov) == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]

    def test_vertices(self):
        assert hg.cover_lists([(0, 2), (1, 2)], 1) == {(0,): [0], (2,): [0, 1], (1,): [1]}


def naive_peel(edges, threshold):
    """Delete any vertex of degree below threshold until none is left;
    `edges` maps edge ids to edges."""
    alive = set(edges)
    while True:
        deg = {}
        for i in alive:
            for v in edges[i]:
                deg[v] = deg.get(v, 0) + 1
        low = [v for v, d in deg.items() if d < threshold]
        if not low:
            return deg, sorted(alive)
        alive = {i for i in alive if low[-1] not in edges[i]}


class TestPeel:
    @given(st.sets(st.integers(0, 34), min_size=1, max_size=20), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_fixed_point(self, idxs, rnd):
        universe = list(combinations(range(7), 3))
        H = hg.Hypergraph.from_edges(8, {universe[i] for i in idxs})
        ids = [i for i in range(len(H.edges)) if rnd.random() < 0.8] or [0]
        covered = hg.covered_vertices(H, ids)
        threshold = Fraction(len(ids), len(covered))
        assert hg.peel(H, ids, threshold) == naive_peel(
            {i: H.edges[i] for i in ids}, threshold
        )


class TestDerivedIndex:
    def test_built_once_per_instance(self):
        H = fano()
        assert hg.incidence(H) is hg.incidence(H)
        assert hg.pair_covers(H) is hg.pair_covers(H)

    def test_equal_instance_gets_equal_index(self):
        H, twin = fano(), fano()
        assert H == twin and H is not twin
        inc, cov = hg.incidence(H), hg.pair_covers(H)
        assert hg.incidence(twin) == inc and hg.incidence(twin) is not inc
        assert hg.pair_covers(twin) == cov and hg.pair_covers(twin) is not cov
        assert hash(H) == hash(twin)

    def test_index_values(self):
        H = hg.Hypergraph.from_edges(4, [(0, 1, 2), (1, 2, 3)])
        assert hg.incidence(H) == ((0,), (0, 1), (0, 1), (1,))
        assert hg.pair_covers(H) == {
            (0, 1): (0,), (0, 2): (0,), (1, 2): (0, 1), (1, 3): (1,), (2, 3): (1,)
        }

    def test_index_does_not_outlive_instance(self):
        # an instance no other test builds, so no equal value is indexed
        H = hg.Hypergraph.from_edges(11, [(0, 4, 9), (1, 4, 10), (2, 3, 10)])
        hg.incidence(H)
        hg.pair_covers(H)
        ref = weakref.ref(H)
        del H
        gc.collect()
        assert ref() is None


class TestRestrict:
    def test_subset_reindexed(self):
        H = fano()
        sub, idx = H.restrict([5, 1, 3])
        assert idx == (1, 3, 5)
        assert sub.edges == (FANO[1], FANO[3], FANO[5])
        assert sub.n == 7 and sub.uniformity == 3

    @pytest.mark.parametrize("ids", [range(7), [6, 2, 0, 4, 1, 5, 3]])
    def test_every_edge_is_self(self, ids):
        H = fano()
        hg.incidence(H)
        sub, idx = H.restrict(ids)
        assert sub is H
        assert idx == tuple(range(7))

    def test_repeated_id_rejected(self):
        # as long as the edge list, yet not every edge
        H = hg.Hypergraph.from_edges(5, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])
        with pytest.raises(PreconditionUnmet):
            H.restrict([0, 0, 2])

    @pytest.mark.parametrize("ids", [[-1], [0, -7], [7], [0, 1, 2, 3, 4, 5, 6, 7]])
    def test_out_of_range_rejected(self, ids):
        with pytest.raises(PreconditionUnmet):
            fano().restrict(ids)
