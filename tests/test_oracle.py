from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergelab.certify import verify_cycle
from bergelab.errors import PreconditionUnmet
from bergelab.generators import complete_bipartite_incidence
from bergelab.hypergraph import Hypergraph
from bergelab.oracle import oracle_spectrum

from naive import naive_spectrum

FANO = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]


def complete3(n):
    return Hypergraph.from_edges(n, combinations(range(n), 3))


class TestSpectrum:
    def test_k5(self):
        spec = oracle_spectrum(complete3(5), max_len=5)
        assert spec.lengths == (3, 4, 5)
        assert not spec.budget_exhausted

    def test_k5_matches_naive(self):
        H = complete3(5)
        assert list(oracle_spectrum(H, 5).lengths) == naive_spectrum(5, H.edges, 5)

    def test_fano(self):
        H = Hypergraph.from_edges(7, FANO)
        spec = oracle_spectrum(H, max_len=7)
        assert 3 in spec.lengths
        assert list(spec.lengths) == naive_spectrum(7, H.edges, 7)

    def test_tight_path_spectrum(self):
        # tight path of length 5 on 7 vertices: guaranteed lengths {3, 4};
        # the full spectrum also holds a 5-cycle, e.g. spine (1,2,4,5,3).
        edges = [tuple(range(i, i + 3)) for i in range(5)]
        H = Hypergraph.from_edges(7, edges)
        spec = oracle_spectrum(H, max_len=7)
        assert {3, 4} <= set(spec.lengths)
        assert list(spec.lengths) == naive_spectrum(7, H.edges, 7)

    def test_witnesses_verify(self):
        spec = oracle_spectrum(complete3(6), max_len=6)
        H = complete3(6)
        for w in spec.witnesses:
            assert verify_cycle(H, w)

    def test_precondition(self):
        with pytest.raises(PreconditionUnmet):
            oracle_spectrum(complete3(4), max_len=5)

    def test_negative_budget(self):
        with pytest.raises(PreconditionUnmet):
            oracle_spectrum(complete3(5), max_len=5, budget=-1)

    def test_nodes_kept(self):
        H = complete3(6)
        full = oracle_spectrum(H, 6)
        assert 0 < full.nodes <= 10**7
        tiny = oracle_spectrum(H, 6, budget=2)
        assert tiny.nodes == 3  # the push past the budget is counted

    def test_budget_monotone(self):
        H = complete3(6)
        prev: set[int] = set()
        for budget in (1, 10, 100, 1000, 100000):
            got = set(oracle_spectrum(H, 6, budget=budget).lengths)
            assert prev <= got
            prev = got

    def test_budget_flag(self):
        H = complete3(6)
        tiny = oracle_spectrum(H, 6, budget=2)
        assert tiny.budget_exhausted
        full = oracle_spectrum(H, 6, budget=10**7)
        assert not full.budget_exhausted

    @given(st.sets(st.integers(0, 34), max_size=14), st.integers(5, 7))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_random(self, idxs, n):
        universe = list(combinations(range(n), 3))
        H = Hypergraph.from_edges(n, {universe[i % len(universe)] for i in idxs})
        spec = oracle_spectrum(H, max_len=min(n, 6))
        assert list(spec.lengths) == naive_spectrum(n, H.edges, min(n, 6))

    def test_linear_lengths_start_at_three(self):
        H = Hypergraph.from_edges(7, FANO)
        spec = oracle_spectrum(H, 7)
        assert all(L >= 3 for L in spec.lengths)


@st.composite
def _pair_graphs(draw):
    """Random 2-graphs on at most 7 vertices: a random bipartite part,
    optionally an odd cycle on the remaining vertices, a few extra random
    pairs; the parts are disconnected unless an extra pair joins them."""
    n = draw(st.integers(3, 7))
    a = draw(st.integers(1, n - 1))
    b = draw(st.integers(1, n - a))
    edges = {(i, a + j) for i in range(a) for j in range(b) if draw(st.booleans())}
    rest = list(range(a + b, n))
    if len(rest) >= 3 and draw(st.booleans()):
        k = len(rest) if len(rest) % 2 else len(rest) - 1
        cyc = rest[:k]
        edges |= {tuple(sorted((cyc[i], cyc[(i + 1) % k]))) for i in range(k)}
    edges |= set(draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), max_size=2)))
    return Hypergraph.from_edges(n, edges, uniformity=2)


class TestBipartiteCut:
    """Lengths a bipartite shadow component cannot hold are skipped per
    component: odd lengths and even lengths above 2*min(side sizes)."""

    @given(_pair_graphs())
    @settings(max_examples=60, deadline=None)
    def test_pair_graphs_match_naive(self, H):
        spec = oracle_spectrum(H, max_len=H.n)
        assert list(spec.lengths) == naive_spectrum(H.n, H.edges, H.n)
        for w in spec.witnesses:
            assert verify_cycle(H, w)

    def test_odd_cycle_beside_bipartite_component(self):
        # C_5 on 0..4 and K_3,3 on 5..10: 5 comes from the odd component
        # only, 4 and 6 from the bipartite one, nothing longer from either.
        c5 = [(i, (i + 1) % 5) for i in range(5)]
        k33 = [(5 + i, 8 + j) for i in range(3) for j in range(3)]
        H = Hypergraph.from_edges(11, c5 + k33)
        spec = oracle_spectrum(H, max_len=11)
        assert spec.lengths == (4, 5, 6)
        assert not spec.budget_exhausted
        # Searching K_3,3 start vertices at every length costs 438 nodes.
        assert spec.nodes == 120

    def test_k16_16_within_small_budget(self):
        spec = oracle_spectrum(complete_bipartite_incidence(16, 16), 12, budget=10**4)
        assert spec.lengths == (4, 6, 8, 10, 12)
        assert not spec.budget_exhausted

    @pytest.mark.parametrize("a,b", [(1, 5), (2, 2), (2, 5), (3, 4), (4, 4), (4, 9), (5, 7), (6, 6)])
    def test_complete_bipartite_closed_form(self, a, b):
        H = complete_bipartite_incidence(a, b)
        spec = oracle_spectrum(H, max_len=a + b)
        assert list(spec.lengths) == list(range(4, 2 * min(a, b) + 1, 2))
        assert not spec.budget_exhausted
        # each possible length is found without backtracking, and no
        # impossible one costs a node
        assert spec.nodes == sum(spec.lengths)
        for w in spec.witnesses:
            assert verify_cycle(H, w)

