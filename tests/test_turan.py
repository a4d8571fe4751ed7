from collections import defaultdict
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import example, given, settings
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
        # output, so these rows hold it byte for byte. `nodes` is row n's
        # own search; the printed count adds the rows below it.
        rec = turan_exhaustive(n, r, ell)
        assert rec.exact
        assert (rec.value, rec.nodes) == (value, self.ROWS_BELOW[n, r, ell] + nodes)
        assert list(rec.extremal.edges) == extremal

    # nodes of the rows r .. n-1, searched before row n in the same call
    ROWS_BELOW = {
        (7, 3, 3): 216,
        (7, 3, 4): 639,
        (8, 3, 3): 593,
        (6, 3, 5): 157,
        (10, 3, 3): 5592,
        (10, 3, 4): 104465,
        (9, 3, 5): 129028,
    }


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
        for budget in (10**6, 1, 0, 10**6):
            got = spectrum_search(7, self.CYCLIC, 3, 3, budget, (2, 3, 4), live)
            assert got == spectrum_search(7, self.CYCLIC, 3, 3, budget, (2, 3, 4))
            assert _matcher_empty(live)
            if budget == 0:
                # the first anchor push is over the budget
                assert got == ([], 1, True)


@lru_cache(maxsize=None)
def _uncached_turan(n, r, ell):
    return naive_turan(n, r, ell)


@st.composite
def _small_row(draw):
    """(n, r, ell, budget): a row on at most 7 vertices, whose uncached
    search takes under half a second; budget None is the default."""
    r = draw(st.sampled_from([2, 3]))
    ell = draw(st.integers(3, 6))
    n = draw(st.integers(r, 6 if (r, ell) == (3, 6) else 7))
    return n, r, ell, draw(st.one_of(st.none(), st.integers(0, 3000)))


class TestSharedNogoods:
    """A cycle found for a new edge is filed for every later position whose
    edge holds the new edge's spine pair. Every check must still answer as
    the kernel would, so the search finds what the uncached search, one
    kernel call per check, finds."""

    # the two deepest rows the strategy draws, where most nogoods are shared
    @example((7, 3, 5, None))
    @example((7, 2, 6, None))
    @given(_small_row())
    @settings(max_examples=120, deadline=None)
    def test_matches_uncached_search(self, row):
        n, r, ell, budget = row
        if budget is None:
            rec = turan_exhaustive(n, r, ell)
        else:
            rec = turan_exhaustive(n, r, ell, budget=budget)
        value, _, exact, extremal = _uncached_turan(n, r, ell)
        if budget is None or rec.exact:
            assert (rec.value, rec.exact, list(rec.extremal.edges)) == (value, exact, extremal)
        else:
            # out of budget: a free family no larger than the maximum
            assert rec.nodes == budget + 1
            assert rec.value == len(rec.extremal.edges) <= value
            assert ell not in naive_spectrum(n, rec.extremal.edges, ell)


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


def _counting_kernel(monkeypatch):
    """Count the kernel calls turan_exhaustive makes and the kernel nodes
    they spend, per row: returns {m: [calls, nodes]}, row m being the
    calls on m vertices."""
    calls = defaultdict(lambda: [0, 0])

    def counted(*args):
        hits, nodes, exhausted = spectrum_search(*args)
        calls[args[0]][0] += 1
        calls[args[0]][1] += nodes
        return hits, nodes, exhausted

    monkeypatch.setattr(turan, "spectrum_search", counted)
    return calls


def _total(calls):
    return [sum(c[i] for c in calls.values()) for i in (0, 1)]


class TestCheckCache:
    """Freeness answers filed from earlier checks decide exactly as the
    kernel would: the search is the uncached one, with fewer kernel calls."""

    @pytest.mark.parametrize("ell", [3, 4, 5, 6])
    @pytest.mark.parametrize("r", [2, 3])
    def test_matches_uncached_search(self, r, ell):
        # the reference has neither the cache nor the degree bound: the
        # bound may only cut nodes, never move the value or the example
        below = 0  # nodes of the rows below row n: the call for n - 1
        for n in range(r, 8):
            if (n, r, ell) == (7, 3, 6):
                continue  # the uncached reference takes 11 s; see below
            value, nodes, exact, extremal = _row(turan_exhaustive(n, r, ell))
            ref_value, ref_nodes, ref_exact, ref_extremal = naive_turan(n, r, ell)
            assert (value, exact, extremal) == (ref_value, ref_exact, ref_extremal), n
            assert nodes - below <= ref_nodes, n
            below = nodes

    def test_7_3_6_pinned_from_uncached_search(self):
        # value and example from naive_turan(7, 3, 6), run once; it spends
        # 181,265 nodes, row 7 with the degree bound 170,878 of these 175,590
        extremal = [
            (0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 1, 6), (0, 2, 3),
            (0, 2, 4), (0, 3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4),
        ]
        assert _row(turan_exhaustive(7, 3, 6)) == (12, 175590, True, extremal)

    # Nodes of rows r .. n with the bound: (8,3,3) 3, 11, 43, 159, 377,
    # 1211; (7,3,4) 3, 8, 105, 523, 1542; (7,3,5) 3, 9, 145, 1969, 12198;
    # (7,3,6) 3, 9, 21, 4679, 170878; (7,2,5) 3, 7, 13, 92, 300, 377. A
    # budget of 1000 lets every row below row n finish for (8,3,3) and
    # (7,3,4), and the whole of (7,2,5); the others run out in a row below.
    @pytest.mark.parametrize("budget", [10, 100, 1000])
    @pytest.mark.parametrize("n,r,ell", [(8, 3, 3), (7, 3, 4), (7, 3, 5), (7, 3, 6), (7, 2, 5)])
    def test_matches_uncached_search_under_budget(self, n, r, ell, budget):
        rec = turan_exhaustive(n, r, ell, budget=budget)
        if rec.exact:
            full = naive_turan(n, r, ell)
            assert (rec.value, list(rec.extremal.edges)) == (full[0], full[3])
            assert rec.nodes <= budget
            return
        assert rec.nodes == budget + 1
        # the best found is a free family of `value` edges on n vertices
        assert (rec.extremal.n, len(rec.extremal.edges)) == (n, rec.value)
        assert ell not in naive_spectrum(n, rec.extremal.edges, ell)
        # row n gets what the rows below leave; where that is anything,
        # its bounded search visits a subsequence of the reference's nodes
        # in the same order under that budget, so it gets at least as far
        below = turan_exhaustive(n - 1, r, ell).nodes
        if below <= budget:
            assert rec.value >= naive_turan(n, r, ell, budget=budget - below)[0]

    @pytest.mark.parametrize("n,r,ell,below", [(7, 3, 4, 639), (7, 2, 4, 419)])
    def test_row_below_out_of_budget_ends_the_call(self, n, r, ell, below):
        # the rows below row n take `below` nodes. One node fewer and row
        # n - 1 runs out: row n is not searched, and the call returns the
        # largest family a row found, on n vertices. With just enough, row
        # n gets one node and runs out at once, so the call returns row
        # n - 1's maximum. With row n's own count on top, it finishes.
        short = turan_exhaustive(n, r, ell, budget=below - 1)
        row_below = naive_turan(n - 1, r, ell)
        assert (short.exact, short.nodes) == (False, below)
        assert (short.extremal.n, short.value) == (n, len(short.extremal.edges))
        assert naive_turan(n - 2, r, ell)[0] <= short.value <= row_below[0]
        rec = turan_exhaustive(n, r, ell, budget=below)
        assert (rec.exact, rec.nodes, rec.extremal.n) == (False, below + 1, n)
        assert (rec.value, list(rec.extremal.edges)) == (row_below[0], row_below[3])
        full = turan_exhaustive(n, r, ell)
        ref = naive_turan(n, r, ell)
        assert _row(turan_exhaustive(n, r, ell, budget=full.nodes)) == _row(full)
        assert (full.value, full.exact, list(full.extremal.edges)) == (ref[0], True, ref[3])

    @pytest.mark.parametrize("budget", [0, 1, 2, 5, 30, 215, 216, 217, 1000])
    @pytest.mark.parametrize("n,r,ell", [(6, 3, 3), (7, 2, 4), (6, 3, 2)])
    def test_one_budget_per_call(self, n, r, ell, budget):
        # all rows share the budget: a call spends at most budget + 1
        # nodes, and is exact when it needs no more than the budget
        full = turan_exhaustive(n, r, ell)
        rec = turan_exhaustive(n, r, ell, budget=budget)
        assert rec.nodes == min(budget + 1, full.nodes) <= budget + 1
        assert rec.exact == (full.nodes <= budget)

    def test_kernel_calls_bounded_and_reported(self, monkeypatch):
        # the uncached search makes 3,608 kernel calls in row 8 alone
        calls = _counting_kernel(monkeypatch)
        rec = turan_exhaustive(8, 3, 3)
        assert rec.kernel_calls == _total(calls)[0] <= 1000
        assert rec.cache_hits > 0

    def test_9_3_3_kernel_calls(self, monkeypatch):
        # in row 9 the uncached search makes 22,076 kernel calls, the cache
        # without the degree bound 2,868, with it 586, and with each cycle
        # filed for its spine pair 359
        calls = _counting_kernel(monkeypatch)
        rec = turan_exhaustive(9, 3, 3)
        assert (rec.value, rec.nodes) == (10, 5592)
        assert rec.kernel_calls == _total(calls)[0] < 700
        assert calls[9][0] < 400

    @pytest.mark.parametrize("n,r,ell,kernel_nodes", [(9, 3, 3, 4582), (8, 3, 4, 39657)])
    def test_kernel_nodes_pinned(self, monkeypatch, n, r, ell, kernel_nodes):
        # the kernel's own nodes, summed over the calls of every row: its
        # live state and the matcher's direct pushes must not move them
        calls = _counting_kernel(monkeypatch)
        rec = turan_exhaustive(n, r, ell)
        assert [rec.kernel_calls, kernel_nodes] == _total(calls)

    @pytest.mark.parametrize(
        "n,r,ell,counters",
        [(9, 3, 3, (638, 4032)), (8, 3, 4, (3628, 21574)), (7, 3, 5, (2171, 10397))],
    )
    def test_cache_counters_pinned(self, n, r, ell, counters):
        # the filed lists keep every mask they are given; a mask a later one
        # makes redundant must not change which checks reach the kernel
        rec = turan_exhaustive(n, r, ell)
        assert (rec.kernel_calls, rec.cache_hits) == counters

    @pytest.mark.parametrize(
        "n,r,ell,row",
        [(8, 3, 5, (9, 129028, True, 10865, 105963)), (9, 3, 4, (7, 104465, True, 9473, 83798))],
    )
    def test_deep_rows_pinned(self, n, r, ell, row):
        # over 68,000 freeness checks each, nearly all decided by the
        # watched cycle nogoods and the free masks
        rec = turan_exhaustive(n, r, ell)
        assert (rec.value, rec.nodes, rec.exact, rec.kernel_calls, rec.cache_hits) == row

    def test_ell_2_calls_no_kernel(self, monkeypatch):
        calls = _counting_kernel(monkeypatch)
        rec = turan_exhaustive(7, 3, 2)
        assert rec.kernel_calls == _total(calls)[0] == rec.cache_hits == 0

    def test_bad_witness_is_not_filed(self, monkeypatch):
        # a witness that uses one edge for every spine pair must stop the
        # search instead of deciding later checks
        def one_edge(*args):
            hits, nodes, exhausted = spectrum_search(*args)
            return [(L, spine, (assign[0],) * L) for L, spine, assign in hits], nodes, exhausted

        monkeypatch.setattr(turan, "spectrum_search", one_edge)
        with pytest.raises(InternalProofFailure, match="not a Berge 3-cycle"):
            turan_exhaustive(6, 3, 3)
