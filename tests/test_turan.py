from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergelab import turan
from bergelab._spectrum import KernelState, spectrum_search
from bergelab.certify import BergeCycleWitness, verify_cycle
from bergelab.errors import InternalProofFailure, PreconditionUnmet
from bergelab.hypergraph import Hypergraph, cover_lists, incidence, is_linear
from bergelab.turan import turan_exhaustive

from naive import naive_spectrum, naive_turan


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
        assert is_linear(rec.extremal)
        assert set(map(len, incidence(rec.extremal))) == {3}
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
            (7, 3, 3, 6, 377, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 5, 6), (3, 5, 6), (4, 5, 6)]),
            (7, 3, 4, 6, 1542, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 4, 5), (0, 4, 6), (0, 5, 6)]),
            (
                8, 3, 3, 8, 1211,
                [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (2, 6, 7), (3, 6, 7), (4, 6, 7), (5, 6, 7)],
            ),
            (6, 3, 5, 6, 1969, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 2, 3), (1, 2, 3)]),
            (
                10, 3, 3, 12, 14103,
                [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 1, 6), (0, 1, 7),
                 (2, 8, 9), (3, 8, 9), (4, 8, 9), (5, 8, 9), (6, 8, 9), (7, 8, 9)],
            ),
            (
                # value and example taken from the search without the degree
                # bound, which spends 844,853 nodes here
                10, 3, 4, 10, 94148,
                [(0, 1, 2), (0, 1, 3), (0, 4, 5), (1, 4, 5), (2, 3, 6),
                 (2, 3, 7), (4, 8, 9), (5, 8, 9), (6, 7, 8), (6, 7, 9)],
            ),
            (
                9, 3, 5, 10, 735305,
                [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 2, 3),
                 (0, 6, 7), (0, 6, 8), (0, 7, 8), (1, 2, 3), (6, 7, 8)],
            ),
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


@st.composite
def _state_script(draw):
    """(n, ops): ops push an edge, pop the top edge or sync to an edge list,
    over pairs, triples or both on at most 7 vertices."""
    n = draw(st.integers(3, 7))
    sizes = draw(st.sampled_from([(2,), (3,), (2, 3)]))
    edge = st.sampled_from([e for k in sizes for e in combinations(range(n), k)])
    op = st.one_of(
        st.tuples(st.just("push"), edge),
        st.tuples(st.just("pop"), st.none()),
        st.tuples(st.just("sync"), st.lists(edge, max_size=8, unique=True)),
    )
    return n, draw(st.lists(op, max_size=30))


def _matcher_empty(live):
    m = live.matcher
    return m.covers is live.covers and not (m.pair_at or m.assign or m.owner or m.trails)


class TestKernelState:
    """The live state the Turán search hands the kernel equals a fresh
    build of its edge list after every push, pop and sync. Every call
    searches with the state's one matcher and leaves it empty: after a
    found cycle, a free answer and a call the budget stops, the next call
    returns what a fresh state returns."""

    @given(_state_script())
    @settings(max_examples=150, deadline=None)
    def test_matches_fresh_build(self, script):
        n, ops = script
        live = KernelState(n)
        edges: list[tuple[int, ...]] = []
        for kind, arg in ops:
            if kind == "push" and arg not in edges:
                live.push(arg)
                edges.append(arg)
            elif kind == "pop" and edges:
                live.pop()
                edges.pop()
            elif kind == "sync":
                live.sync(arg)
                edges = list(arg)
            assert live.edges == edges
            assert live.covers == cover_lists(edges, 2)
            assert live.adj == [
                sorted({w for e in edges if v in e for w in e if w != v}) for v in range(n)
            ]
            assert live.wide == sum(len(e) != 2 for e in edges)
        fresh = spectrum_search(n, edges, 3, n, _KERNEL_BUDGET)
        assert spectrum_search(n, edges, 3, n, _KERNEL_BUDGET, None, live) == fresh
        assert _matcher_empty(live)

    # K_5^(3) has Berge cycles of every length 3..5, the loose path on 7
    # vertices has none
    CYCLIC = list(combinations(range(5), 3))
    ACYCLIC = [(0, 1, 2), (2, 3, 4), (4, 5, 6)]

    def test_empty_after_each_kind_of_call(self):
        live = KernelState(7)
        calls = [
            (self.CYCLIC, 3, 5, 10**6),  # found cycles
            (self.ACYCLIC, 3, 7, 10**6),  # free
            (self.CYCLIC, 3, 5, 2),  # the budget stops it mid-search
            (self.CYCLIC, 3, 5, 10**6),
            (self.CYCLIC[:4], 3, 5, 3),
            (self.ACYCLIC, 3, 7, 10**6),
        ]
        for edges, lo, hi, budget in calls:
            got = spectrum_search(7, edges, lo, hi, budget, None, live)
            assert got == spectrum_search(7, edges, lo, hi, budget)
            assert _matcher_empty(live)
        hits, _, exhausted = spectrum_search(7, self.CYCLIC, 3, 5, 2, None, live)
        assert exhausted and not hits

    def test_anchored_calls_leave_it_empty(self):
        live = KernelState(7)
        for budget in (10**6, 1, 10**6):
            got = spectrum_search(7, self.CYCLIC, 3, 3, budget, (2, 3, 4), live)
            assert got == spectrum_search(7, self.CYCLIC, 3, 3, budget, (2, 3, 4))
            assert _matcher_empty(live)


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
        with pytest.raises(PreconditionUnmet, match="n <= 10 for r = 3"):
            turan_exhaustive(11, 3, 2)


def _row(rec):
    return rec.value, rec.nodes, rec.exact, list(rec.extremal.edges)


def _counting_kernel(monkeypatch, n=None):
    """Count the kernel calls turan_exhaustive makes and the kernel nodes
    they spend; returns [calls, nodes]. With n, only calls on n vertices
    count: row n's own search, not the rows below."""
    calls = [0, 0]

    def counted(*args):
        hits, nodes, exhausted = spectrum_search(*args)
        if n is None or args[0] == n:
            calls[0] += 1
            calls[1] += nodes
        return hits, nodes, exhausted

    monkeypatch.setattr(turan, "spectrum_search", counted)
    return calls


class TestCheckCache:
    """Freeness answers filed from earlier checks decide exactly as the
    kernel would: the search is the uncached one, with fewer kernel calls."""

    @pytest.mark.parametrize("ell", [3, 4, 5, 6])
    @pytest.mark.parametrize("r", [2, 3])
    def test_matches_uncached_search(self, r, ell):
        # the reference has neither the cache nor the degree bound: the
        # bound may only cut nodes, never move the value or the example
        for n in range(r, 8):
            if (n, r, ell) == (7, 3, 6):
                continue  # the uncached reference takes 11 s; see below
            value, nodes, exact, extremal = _row(turan_exhaustive(n, r, ell))
            ref_value, ref_nodes, ref_exact, ref_extremal = naive_turan(n, r, ell)
            assert (value, exact, extremal) == (ref_value, ref_exact, ref_extremal), n
            assert nodes <= ref_nodes, n

    def test_7_3_6_pinned_from_uncached_search(self):
        # value and example from naive_turan(7, 3, 6), run once; it spends
        # 181,265 nodes, the degree bound fewer
        extremal = [
            (0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 1, 6), (0, 2, 3),
            (0, 2, 4), (0, 3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4),
        ]
        assert _row(turan_exhaustive(7, 3, 6)) == (12, 170878, True, extremal)

    # Under these budgets every row below row n finishes, so row n runs with
    # the degree bound; under the others some row below runs out first.
    # Nodes of rows r .. n with the bound: (8,3,3) 3, 11, 43, 159, 377, 1211;
    # (7,3,4) 3, 8, 105, 523, 1542; (7,2,5) 3, 7, 13, 92, 300, 377.
    BOUNDED_UNDER_BUDGET = {(8, 3, 3, 1000), (7, 3, 4, 1000), (7, 2, 5, 1000)}

    @pytest.mark.parametrize("budget", [10, 100, 1000])
    @pytest.mark.parametrize("n,r,ell", [(8, 3, 3), (7, 3, 4), (7, 3, 5), (7, 3, 6), (7, 2, 5)])
    def test_matches_uncached_search_under_budget(self, n, r, ell, budget):
        rec = turan_exhaustive(n, r, ell, budget=budget)
        ref = naive_turan(n, r, ell, budget=budget)
        if (n, r, ell, budget) not in self.BOUNDED_UNDER_BUDGET:
            # a row below ran out, so row n is the search without the bound
            assert _row(rec) == ref
            return
        # the bounded search visits a subsequence of the reference's nodes
        # in the same order, so it gets at least as far
        assert not ref[2] and rec.value >= ref[0]
        if rec.exact:
            full = naive_turan(n, r, ell)
            assert (rec.value, list(rec.extremal.edges)) == (full[0], full[3])
        else:
            assert rec.nodes == budget + 1

    @pytest.mark.parametrize("n,r,ell,row_below_nodes", [(7, 3, 4, 523), (7, 2, 4, 354)])
    def test_row_below_out_of_budget_drops_the_bound(self, n, r, ell, row_below_nodes):
        # row n - 1 takes row_below_nodes with the bound. One node fewer and
        # it runs out, so row n is the search without the bound under the
        # same budget. With enough for it, row n is bounded and gets further:
        # (7,3,4) reaches its 6 edges by node 493 with the bound, 577
        # without; (7,2,4) finishes in 280 nodes with the bound, 2,482 without.
        short = row_below_nodes - 1
        rec = turan_exhaustive(n, r, ell, budget=short)
        assert _row(rec) == naive_turan(n, r, ell, budget=short)
        rec = turan_exhaustive(n, r, ell, budget=row_below_nodes)
        ref = naive_turan(n, r, ell, budget=row_below_nodes)
        full = naive_turan(n, r, ell)
        assert (rec.value, rec.exact) > (ref[0], ref[2])
        assert (rec.value, list(rec.extremal.edges)) == (full[0], full[3])

    def test_kernel_calls_bounded_and_reported(self, monkeypatch):
        # the uncached search makes 3,608 kernel calls here
        calls = _counting_kernel(monkeypatch, 8)
        rec = turan_exhaustive(8, 3, 3)
        assert rec.kernel_calls == calls[0] <= 1000
        assert rec.cache_hits > 0

    def test_9_3_3_kernel_calls(self, monkeypatch):
        # the uncached search makes 22,076 kernel calls here, the cache
        # without the degree bound 2,868
        calls = _counting_kernel(monkeypatch, 9)
        rec = turan_exhaustive(9, 3, 3)
        assert (rec.value, rec.nodes) == (10, 3788)
        assert rec.kernel_calls == calls[0] < 600

    @pytest.mark.parametrize("n,r,ell,kernel_nodes", [(9, 3, 3, 3826), (8, 3, 4, 47835)])
    def test_kernel_nodes_pinned(self, monkeypatch, n, r, ell, kernel_nodes):
        # the kernel's own nodes, summed over the search's calls: its live
        # state and the matcher's direct pushes must not move them
        calls = _counting_kernel(monkeypatch, n)
        rec = turan_exhaustive(n, r, ell)
        assert rec.kernel_calls == calls[0]
        assert calls[1] == kernel_nodes

    @pytest.mark.parametrize(
        "n,r,ell,counters",
        [(9, 3, 3, (586, 2631)), (8, 3, 4, (4490, 18872)), (7, 3, 5, (2747, 8100))],
    )
    def test_cache_counters_pinned(self, n, r, ell, counters):
        # the filed lists keep every mask they are given; a mask a later one
        # makes redundant must not change which checks reach the kernel
        rec = turan_exhaustive(n, r, ell)
        assert (rec.kernel_calls, rec.cache_hits) == counters

    @pytest.mark.parametrize(
        "n,r,ell,row",
        [(8, 3, 5, (9, 114704, True, 15525, 88735)), (9, 3, 4, (7, 75746, True, 8647, 59422))],
    )
    def test_deep_rows_pinned(self, n, r, ell, row):
        # over 68,000 freeness checks each, nearly all decided by the
        # watched cycle nogoods and the free masks
        rec = turan_exhaustive(n, r, ell)
        assert (rec.value, rec.nodes, rec.exact, rec.kernel_calls, rec.cache_hits) == row

    def test_ell_2_calls_no_kernel(self, monkeypatch):
        calls = _counting_kernel(monkeypatch)
        rec = turan_exhaustive(7, 3, 2)
        assert rec.kernel_calls == calls[0] == rec.cache_hits == 0

    def test_bad_witness_is_not_filed(self, monkeypatch):
        # a witness that uses one edge for every spine pair must stop the
        # search instead of deciding later checks
        def one_edge(*args):
            hits, nodes, exhausted = spectrum_search(*args)
            return [(L, spine, (assign[0],) * L) for L, spine, assign in hits], nodes, exhausted

        monkeypatch.setattr(turan, "spectrum_search", one_edge)
        with pytest.raises(InternalProofFailure, match="not a Berge 3-cycle"):
            turan_exhaustive(6, 3, 3)
