from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergelab.certify import (
    BergeCycleWitness,
    BergePathWitness,
    extend,
    verify_cycle,
    verify_path,
)
from bergelab.errors import EdgeNotInShadow
from bergelab.hypergraph import Hypergraph

from naive import naive_extend


def H3():
    return Hypergraph.from_edges(4, [(0, 1, 2), (0, 1, 3), (1, 2, 3)])


class TestVerifyCycle:
    def test_valid_triangle(self):
        # spine (0,1,2) with edges {0,1,3},{1,2,3},{0,1,2}: hand-checked
        # containments (0,1)⊆013, (1,2)⊆123, (2,0)⊆012.
        H = H3()
        w = BergeCycleWitness((0, 1, 2), (1, 2, 0))
        assert verify_cycle(H, w)

    def test_needs_distinct_edges(self):
        H = Hypergraph.from_edges(3, [(0, 1, 2)])
        w = BergeCycleWitness((0, 1, 2), (0, 0, 0))
        res = verify_cycle(H, w)
        assert not res and res.reason == "EdgesNotDistinct"

    def test_repeated_spine_vertex(self):
        H = H3()
        res = verify_cycle(H, BergeCycleWitness((0, 1, 0), (0, 1, 2)))
        assert not res and res.reason == "SpineNotDistinct"

    def test_containment_violation(self):
        H = H3()
        res = verify_cycle(H, BergeCycleWitness((0, 1, 2), (0, 1, 2)))
        assert not res and res.reason == "ContainmentViolated"

    def test_two_cycle_allowed(self):
        H = Hypergraph.from_edges(4, [(0, 1, 2), (0, 1, 3)])
        assert verify_cycle(H, BergeCycleWitness((0, 1), (0, 1)))

    def test_index_out_of_range(self):
        res = verify_cycle(H3(), BergeCycleWitness((0, 1, 2), (9, 1, 0)))
        assert not res and res.reason == "EdgeIndexOutOfRange"


class TestVerifyPath:
    def test_valid(self):
        H = H3()
        assert verify_path(H, BergePathWitness((0, 1, 2), (0, 2)))

    def test_length_mismatch(self):
        res = verify_path(H3(), BergePathWitness((0, 1, 2), (0,)))
        assert not res and res.reason == "LengthMismatch"


class TestExtend:
    def test_triangle_extension_exists(self):
        ext = extend(H3(), [(0, 1), (1, 2), (0, 2)])
        assert ext is not None
        mapping = dict(ext.mapping)
        assert len(set(mapping.values())) == 3
        for (u, v), ei in mapping.items():
            assert u in H3().edges[ei] and v in H3().edges[ei]

    def test_pigeonhole_failure(self):
        H = Hypergraph.from_edges(3, [(0, 1, 2)])
        assert extend(H, [(0, 1), (1, 2), (0, 2)]) is None

    def test_linear_unique_covers(self):
        H = Hypergraph.from_edges(5, [(0, 1, 2), (2, 3, 4)])
        ext = extend(H, [(0, 1), (2, 3)])
        assert dict(ext.mapping) == {(0, 1): 0, (2, 3): 1}

    def test_edge_not_in_shadow(self):
        H = Hypergraph.from_edges(4, [(0, 1, 2)])
        with pytest.raises(EdgeNotInShadow):
            extend(H, [(0, 3)])

    @given(
        st.sets(st.integers(0, 19), min_size=1, max_size=6),
        st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=8),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_exhaustive_search(self, eidx, raw_pairs):
        universe = list(combinations(range(6), 3))
        H = Hypergraph.from_edges(6, {universe[i] for i in eidx})
        from bergelab.hypergraph import pair_covers

        cov = pair_covers(H)
        pairs = sorted(
            {tuple(sorted(p)) for p in raw_pairs if len(set(p)) == 2}
            & set(cov)
        )
        if not pairs:
            return
        got = extend(H, pairs)
        ref = naive_extend(H.edges, pairs)
        assert (got is None) == (ref is None)
        if got is not None:
            mapping = dict(got.mapping)
            assert sorted(mapping) == pairs
            assert len(set(mapping.values())) == len(pairs)
            for (u, v), ei in mapping.items():
                assert u in H.edges[ei] and v in H.edges[ei]
