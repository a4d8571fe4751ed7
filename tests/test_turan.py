from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergelab import turan
from bergelab._spectrum import spectrum_search
from bergelab.certify import BergeCycleWitness, verify_cycle
from bergelab.errors import PreconditionUnmet
from bergelab.hypergraph import Hypergraph, profile
from bergelab.turan import turan_exhaustive

from naive import naive_spectrum


def bruteforce_turan(n, r, ell):
    """Rule-free reference: scan all edge subsets."""
    universe = list(combinations(range(n), r))
    best = 0
    for mask in range(1 << len(universe)):
        edges = [universe[i] for i in range(len(universe)) if mask >> i & 1]
        if len(edges) <= best:
            continue
        if ell == 2:
            pairs = [p for e in edges for p in combinations(e, 2)]
            if len(set(pairs)) != len(pairs):
                continue
        elif ell in naive_spectrum(n, edges, ell):
            continue
        best = len(edges)
    return best


class TestPinnedValues:
    """Values computed once by the exhaustive search and pinned."""

    def test_fano_extremal(self):
        rec = turan_exhaustive(7, 3, 2)
        assert rec.exact and rec.value == 7
        p = profile(rec.extremal)
        assert p.is_linear
        assert set(p.per_vertex_degree) == {3}
        assert len(rec.extremal.edges) == 7

    @pytest.mark.parametrize(
        "n,value",
        [(4, 2), (5, 3), (6, 4)],
    )
    def test_bc3_small(self, n, value):
        rec = turan_exhaustive(n, 3, 3, budget=10**8)
        assert rec.exact
        assert rec.value == value
        assert 3 not in naive_spectrum(n, rec.extremal.edges, 3)

    def test_5_3_2_refutes_guess(self):
        # the n(n-1)/6 packing guess would be 3; no third triple fits
        rec = turan_exhaustive(5, 3, 2)
        assert rec.exact and rec.value == 2

    @pytest.mark.parametrize(
        "n,r,ell,value,nodes,extremal",
        [
            (7, 3, 3, 6, 978, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 5, 6), (3, 5, 6), (4, 5, 6)]),
            (7, 3, 4, 6, 4057, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 4, 5), (0, 4, 6), (0, 5, 6)]),
            (
                8, 3, 3, 8, 4444,
                [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (2, 6, 7), (3, 6, 7), (4, 6, 7), (5, 6, 7)],
            ),
            (6, 3, 5, 6, 2222, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 2, 3), (1, 2, 3)]),
        ],
    )
    def test_pinned_rows(self, n, r, ell, value, nodes, extremal):
        # value, search nodes and extremal example are the whole `turan`
        # output, so these rows hold it byte for byte
        rec = turan_exhaustive(n, r, ell)
        assert rec.exact
        assert (rec.value, rec.nodes) == (value, nodes)
        assert list(rec.extremal.edges) == extremal


_KERNEL_BUDGET = 10**6


def _has_cycle(n, edges, ell, through=None):
    hits, _, exhausted = spectrum_search(n, edges, ell, ell, _KERNEL_BUDGET, through)
    assert not exhausted
    return hits


@st.composite
def _free_family_plus_edge(draw):
    """(n, ell, edges, last): edges is sorted and holds last; edges minus
    last has no Berge ell-cycle. Triples only, or pairs and triples mixed,
    on at most 7 vertices."""
    n = draw(st.integers(4, 7))
    ell = draw(st.integers(3, 6))
    sizes = (3,) if draw(st.booleans()) else (2, 3)
    universe = [e for k in sizes for e in combinations(range(n), k)]
    drawn = draw(st.lists(st.sampled_from(universe), min_size=1, max_size=14, unique=True))
    family: list[tuple[int, ...]] = []
    for e in drawn[:-1]:
        if not _has_cycle(n, sorted(family + [e]), ell):
            family.append(e)
    last = drawn[-1]
    return n, ell, sorted(family + [last]), last


class TestAnchoredSearch:
    """The in-search freeness check only looks at spines through the new
    edge; with a free rest it must agree with the full search."""

    @given(_free_family_plus_edge())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_full_search(self, case):
        n, ell, edges, last = case
        anchored = _has_cycle(n, edges, ell, last)
        assert bool(anchored) == bool(_has_cycle(n, edges, ell))
        H = Hypergraph.from_edges(n, edges)
        for L, spine, assign in anchored:
            assert L == ell
            assert verify_cycle(H, BergeCycleWitness(spine=spine, edges=assign))
            assert H.edges.index(last) in assign


class TestExactness:
    @pytest.mark.parametrize("n,r,ell", [(4, 3, 3), (5, 3, 2)])
    def test_matches_ruleless_bruteforce(self, n, r, ell):
        rec = turan_exhaustive(n, r, ell)
        assert rec.exact
        assert rec.value == bruteforce_turan(n, r, ell)

    def test_budget_flag(self):
        rec = turan_exhaustive(6, 3, 3, budget=10)
        assert not rec.exact
        full = turan_exhaustive(6, 3, 3)
        assert rec.value <= full.value

    def test_negative_budget(self):
        with pytest.raises(PreconditionUnmet):
            turan_exhaustive(5, 3, 3, budget=-1)

    def test_exhausted_extremal_check_raises(self, monkeypatch):
        # budget 0 stops the search at once, so the only kernel call is the
        # final check of the (empty) extremal example; it must not pass
        # unsearched when the kernel runs out.
        monkeypatch.setattr(turan, "spectrum_search", lambda *a: ([], 1, True))
        with pytest.raises(PreconditionUnmet):
            turan_exhaustive(5, 3, 3, budget=0)

    @pytest.mark.parametrize("r", [1, 0, -1])
    def test_r_below_2_rejected_before_any_edge(self, monkeypatch, r):
        def no_edges(*args):
            raise AssertionError("an edge was built")

        monkeypatch.setattr(turan, "combinations", no_edges)
        with pytest.raises(PreconditionUnmet, match=f"edge size r = {r} is below 2"):
            turan_exhaustive(6, r, 3)

    def test_ceiling(self):
        with pytest.raises(PreconditionUnmet):
            turan_exhaustive(10, 3, 2)
