import gc
import weakref
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergelab import hypergraph as hg
from bergelab.errors import (
    ArityTooLarge,
    DuplicateEdge,
    EdgeSizeMismatch,
    MalformedLine,
    PreconditionUnmet,
    VertexOutOfRange,
)

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


class TestFromEdges:
    def test_one_shot_edge_iterables(self):
        H = hg.Hypergraph.from_edges(4, [iter((0, 1, 2)), (v for v in (3, 1, 2))])
        assert H == hg.Hypergraph.from_edges(4, [(0, 1, 2), (1, 2, 3)])

    def test_one_shot_repeat_reported(self):
        with pytest.raises(MalformedLine, match=r"edge \(0, 0, 1\) repeats"):
            hg.Hypergraph.from_edges(3, [iter((0, 0, 1))])


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
    def test_single_edge(self):
        S = hg.shadow(hg.Hypergraph.from_edges(3, [(0, 1, 2)]), 2)
        assert S.edges == ((0, 1), (0, 2), (1, 2))
        assert S.covers == ((0,), (0,), (0,))

    def test_codegree_two(self):
        S = hg.shadow(hg.Hypergraph.from_edges(4, [(0, 1, 2), (0, 1, 3)]), 2)
        assert S.covers_map()[(0, 1)] == (0, 1)

    def test_fano_all_pairs_once(self):
        S = hg.shadow(fano(), 2)
        assert len(S.edges) == 21
        assert all(len(c) == 1 for c in S.covers)

    def test_arity_too_large(self):
        with pytest.raises(ArityTooLarge):
            hg.shadow(fano(), 3)

    @given(st.integers(4, 7), st.integers(1, 2), st.sets(st.integers(0, 34), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_cover_count_identity(self, n, k, idxs):
        universe = list(combinations(range(n), 3))
        edges = [universe[i % len(universe)] for i in sorted(idxs)]
        H = hg.Hypergraph.from_edges(n, set(edges))
        if not H.edges:
            return
        S = hg.shadow(H, k)
        assert sum(len(c) for c in S.covers) == len(H.edges) * comb(3, k)


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


class TestMinDegreeSubgraph:
    def test_empty_rejected(self):
        with pytest.raises(PreconditionUnmet):
            hg.min_degree_subgraph(hg.Hypergraph.from_edges(3, []))

    def test_k4_returned_unchanged(self):
        H = complete3(4)
        assert hg.min_degree_subgraph(H) is H

    def test_pendant_survives_at_threshold(self):
        # K_4^(3) plus one extra edge {0,1,4}: d(H) = 3, threshold 1,
        # vertex 4 has degree 1 >= 1, so H is returned whole.
        H = hg.Hypergraph.from_edges(5, list(combinations(range(4), 3)) + [(0, 1, 4)])
        assert hg.min_degree_subgraph(H) is H

    def test_star_postcondition(self):
        star = hg.Hypergraph.from_edges(
            11, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (0, 7, 8), (0, 9, 10)]
        )
        out = hg.min_degree_subgraph(star)
        d_in = hg.average_degree(star)
        assert hg.average_degree(out) >= d_in
        assert min(hg.profile(out).per_vertex_degree) >= d_in / 3

    @given(st.sets(st.integers(0, 34), min_size=1, max_size=20), st.integers(7, 8))
    @settings(max_examples=80, deadline=None)
    def test_postconditions_random(self, idxs, n):
        universe = list(combinations(range(7), 3))
        H = hg.Hypergraph.from_edges(n, {universe[i % len(universe)] for i in idxs})
        out = hg.min_degree_subgraph(H)
        assert hg.average_degree(out) >= hg.average_degree(H)
        p = hg.profile(out)
        assert p.min_degree >= hg.average_degree(H) / 3


class TestRPartite:
    def test_single_edge(self):
        H = hg.Hypergraph.from_edges(3, [(0, 1, 2)])
        sub, parts = hg.r_partite_subgraph(H)
        assert len(sub.edges) == 1
        assert len(parts) == 3

    def test_k4_bound(self):
        H = complete3(4)
        sub, parts = hg.r_partite_subgraph(H)
        # conditional expectation must keep at least ceil((2/9) * 4) = 1
        assert len(sub.edges) >= 1
        # independent check over all 3^4 part assignments: the best keeps 2
        best = 0
        for code in range(81):
            assign = [(code // 3**v) % 3 for v in range(4)]
            kept = sum(
                1 for e in H.edges if len({assign[v] for v in e}) == 3
            )
            best = max(best, kept)
        assert best == 2
        assert len(sub.edges) <= best

    def test_empty(self):
        H = hg.Hypergraph.from_edges(4, [], uniformity=3)
        sub, parts = hg.r_partite_subgraph(H)
        assert sub.edges == ()

    @given(st.sets(st.integers(0, 34), max_size=25), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_partite_and_bound_random(self, idxs, seed):
        universe = list(combinations(range(7), 3))
        H = hg.Hypergraph.from_edges(
            7, {universe[i % len(universe)] for i in idxs}, uniformity=3
        )
        sub, parts = hg.r_partite_subgraph(H, seed=seed)
        part_of = {}
        for j, part in enumerate(parts):
            for v in part:
                part_of[v] = j
        for e in sub.edges:
            assert len({part_of[v] for v in e}) == 3
        assert len(sub.edges) * 27 >= factorial(3) * len(H.edges)


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
