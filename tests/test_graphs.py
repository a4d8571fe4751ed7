import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergelab import graphs as gr
from bergelab.finder import skeleton_sweep
from bergelab.generators import steiner_triple
from bergelab.errors import InternalProofFailure, PreconditionUnmet

from naive import naive_blocks, naive_shortest_cycle


def complete_graph(n):
    return gr.Graph.build(range(n), combinations(range(n), 2))


def cycle_graph(n):
    return gr.Graph.build(range(n), [(i, (i + 1) % n) for i in range(n)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return gr.Graph.build(range(10), outer + spokes + inner)


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return gr.Graph.build(
        range(n), [e for e in combinations(range(n), 2) if rng.random() < p]
    )


@st.composite
def glued_blocks(draw):
    """Cycles with chords and single edges (bridges), each glued at a cut
    vertex or starting a new component, plus isolated vertices, relabelled."""
    edges = []
    n = 0
    for _ in range(draw(st.integers(0, 6))):
        size = draw(st.integers(2, 5))
        if n and draw(st.booleans()):
            vs = [draw(st.integers(0, n - 1))]
        else:
            vs = [n]
            n += 1
        vs += range(n, n + size - 1)
        n += size - 1
        edges += zip(vs, vs[1:] + vs[:1]) if size > 2 else [tuple(vs)]
        if size > 3:
            edges += draw(st.lists(st.sampled_from(list(combinations(vs, 2))), max_size=3))
    n += draw(st.integers(0, 3))
    perm = draw(st.permutations(range(n)))
    return gr.Graph.build(range(n), [(perm[u], perm[v]) for u, v in edges])


@st.composite
def dense_or_sparse(draw):
    n = draw(st.integers(1, 12))
    p = draw(st.sampled_from([0.15, 0.3, 0.6]))
    return random_graph(n, p, draw(st.integers(0, 10**6)))


def check_cycle(G, cyc):
    adj = G.adjacency()
    assert len(cyc) >= 3 and len(set(cyc)) == len(cyc)
    for i in range(len(cyc)):
        assert cyc[(i + 1) % len(cyc)] in adj[cyc[i]]


def check_path(G, path):
    adj = G.adjacency()
    assert len(set(path)) == len(path)
    for a, b in zip(path, path[1:]):
        assert b in adj[a]


@st.composite
def graphs_and_picks(draw):
    """A graph on scattered labels and a vertex set reaching outside it."""
    vs = draw(st.sets(st.integers(0, 40), max_size=14))
    pairs = list(combinations(sorted(vs), 2))
    es = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    G = gr.Graph.build(vs, es)
    S = draw(st.sets(st.integers(0, 45)) | st.sets(st.sampled_from(sorted(vs) or [0])))
    return G, S


def reference_components(G):
    """Components by repeated closure over the edge list."""
    left, comps = set(G.vertices), []
    while left:
        part = {min(left)}
        grown = True
        while grown:
            grown = False
            for u, v in G.edges:
                if (u in part) != (v in part):
                    part |= {u, v}
                    grown = True
        left -= part
        comps.append(gr.Graph.build(part, [e for e in G.edges if e[0] in part]))
    return comps


class TestDerivedViews:
    """Views built on the plain constructor equal what the validating
    `Graph.build` gives on the same vertices and edges."""

    @given(graphs_and_picks())
    @settings(max_examples=200, deadline=None)
    def test_views_equal_build(self, case):
        G, S = case
        assert G.subgraph(S) == gr.Graph.build(
            S, [e for e in G.edges if e[0] in S and e[1] in S]
        )
        assert G.subgraph(()) == gr.Graph.build((), ())
        comps = gr.connected_components(G)
        assert comps == reference_components(G)
        if len(comps) == 1:
            assert comps[0] is G
        alive = set(G.vertices)
        while G.e:  # the core is unique, so peeling all low vertices at once agrees
            kept = [e for e in G.edges if set(e) <= alive]
            low = {v for v in alive if sum(v in e for e in kept) < G.average_degree() / 2}
            if not low:
                break
            alive -= low
        assert gr.min_degree_core(G) == gr.Graph.build(
            alive, [e for e in G.edges if set(e) <= alive]
        )

    def test_empty_graph_preconditions(self):
        empty = gr.Graph.build([], [])
        with pytest.raises(PreconditionUnmet):
            gr.densest_component(empty)
        with pytest.raises(PreconditionUnmet):
            gr.long_cycle_from_density(empty, 2)


class TestBlocks:
    def test_two_triangles_at_cut(self):
        G = gr.Graph.build(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        blks = gr.blocks(G)
        assert sorted(len(b) for b in blks) == [3, 3]

    def test_bridge(self):
        G = gr.Graph.build(range(4), [(0, 1), (1, 2), (2, 3)])
        assert sorted(len(b) for b in gr.blocks(G)) == [1, 1, 1]

    def test_edge_partition(self):
        G = random_graph(12, 0.3, 7)
        blks = gr.blocks(G)
        flat = [e for b in blks for e in b]
        assert sorted(flat) == list(G.edges)

    # The edge-stack search is the reference, list order included:
    # long_cycle_from_density takes the first block that meets its bound.
    @given(st.one_of(glued_blocks(), dense_or_sparse()))
    @settings(max_examples=300, deadline=None)
    def test_matches_edge_stack_search(self, G):
        assert gr.blocks(G) == naive_blocks(G)

    def test_matches_edge_stack_search_on_sts127_down_class(self, monkeypatch):
        # the graphs long_cycle_from_density splits on the way to the
        # special path: the peeled colour-1 projection of a down class
        seen = []
        real = gr.blocks

        def spy(G):
            seen.append(G)
            return real(G)

        monkeypatch.setattr(gr, "blocks", spy)
        assert skeleton_sweep(steiner_triple(127), 2) is not None
        assert seen and seen[0].e > 1000
        for G in seen:
            assert real(G) == naive_blocks(G)


def _pocket_first(draw, n, pocket, count):
    """`count` pairs on 0..n-1: a random clique pocket on `pocket` vertices
    is filled first, then random pairs, under a relabelling."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    inside = list(combinations(range(pocket), 2))
    outside = [p for p in combinations(range(n), 2) if p[1] >= pocket]
    rng.shuffle(inside)
    rng.shuffle(outside)
    relabel = list(range(n))
    rng.shuffle(relabel)
    return [(relabel[a], relabel[b]) for a, b in (inside + outside)[:count]]


@st.composite
def at_path_bound(draw):
    """(n, m, edges) with exactly floor(mn/2) + 1 edges, the fewest
    `long_path_from_density` accepts, pocket first. n starts at m+2, the
    least with room for that many edges."""
    m = draw(st.integers(0, 12))
    n = draw(st.integers(m + 2, m + 14))
    return n, m, _pocket_first(draw, n, draw(st.integers(0, n)), m * n // 2 + 1)


class TestLongPath:
    def test_k4(self):
        path = gr.long_path_from_density(complete_graph(4), 2)
        check_path(complete_graph(4), path)
        assert len(path) - 1 >= 3

    def test_matching_m0(self):
        G = gr.Graph.build(range(6), [(0, 1), (2, 3), (4, 5)])
        path = gr.long_path_from_density(G, 0)
        assert len(path) - 1 >= 1

    def test_two_triangles(self):
        G = gr.Graph.build(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        path = gr.long_path_from_density(G, 1)
        check_path(G, path)
        assert len(path) - 1 >= 2

    def test_precondition(self):
        with pytest.raises(PreconditionUnmet):
            gr.long_path_from_density(cycle_graph(6), 2)

    def test_rotation(self, monkeypatch):
        # the first maximal path closes into a short cycle, which is reopened
        # through an outside neighbour once before the path is long enough
        G = gr.Graph.build(
            range(11),
            [(0, 3), (0, 4), (1, 2), (1, 5), (1, 6), (1, 7), (1, 9), (2, 5), (2, 6),
             (2, 7), (3, 4), (3, 6), (5, 6), (5, 7), (6, 7), (8, 9), (8, 10), (9, 10)],
        )
        reopen, reopened = gr._reopen, []

        def counting(adj, cycle):
            reopened.append(cycle)
            return reopen(adj, cycle)

        monkeypatch.setattr(gr, "_reopen", counting)
        path = gr.long_path_from_density(G, 2)
        assert len(reopened) == 1
        assert path == [7, 5, 2, 1, 6, 3, 4, 0]
        check_path(G, path)
        assert len(path) - 1 >= 3

    @given(at_path_bound())
    @settings(max_examples=300, deadline=None)
    def test_exactly_at_bound(self, drawn):
        n, m, edges = drawn
        G = gr.Graph.build(range(n), edges)
        assert G.e == m * n // 2 + 1
        path = gr.long_path_from_density(G, m)
        check_path(G, path)
        assert len(path) - 1 >= m + 1

    @given(at_path_bound())
    @settings(max_examples=100, deadline=None)
    def test_one_edge_below_bound(self, drawn):
        # floor(mn/2) edges: its own density check refuses, before any helper runs
        n, m, edges = drawn
        with pytest.raises(PreconditionUnmet, match=r"need e > m\*n/2"):
            gr.long_path_from_density(gr.Graph.build(range(n), edges[:-1]), m)

    @given(st.integers(5, 11), st.integers(0, 10**6), st.integers(1, 5))
    @settings(max_examples=120, deadline=None)
    def test_bound_random(self, n, seed, m):
        G = random_graph(n, 0.55, seed)
        if not (2 * G.e > m * G.n):
            return
        path = gr.long_path_from_density(G, m)
        check_path(G, path)
        assert len(path) - 1 >= m + 1


@st.composite
def at_cycle_bound(draw, ms=(2, 12), ns=None, small_pocket=False):
    """(G, m) with exactly floor(m(n-1)/2) + 1 edges: a random clique pocket
    is filled first, then random pairs, under a relabelling. m is drawn
    from the closed range `ms` and n from `ns` (default m+1..m+12); the
    pocket has at most n vertices, or at most m+3 with `small_pocket`."""
    m = draw(st.integers(*ms))
    n = draw(st.integers(*ns) if ns else st.integers(m + 1, m + 12))
    pocket = draw(st.integers(0, min(n, m + 3) if small_pocket else n))
    return gr.Graph.build(range(n), _pocket_first(draw, n, pocket, m * (n - 1) // 2 + 1)), m


@st.composite
def short_closure_first(draw):
    """(G, m) with floor(m(n-1)/2) + 1 edges whose first maximal path closes
    below m+1: a clique on 0..s-1, s <= m, whose ends 0 and s-1 have no
    other neighbour, then random pairs. About a third of these draws then
    stall the rotation."""
    m = draw(st.integers(3, 8))
    s = draw(st.integers(m // 2 + 2, m))
    n = draw(st.integers(s + m + 2, s + 3 * m + 10))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    outside = [p for p in combinations(range(1, n), 2) if p[1] >= s and p[0] != s - 1]
    rng.shuffle(outside)
    edges = list(combinations(range(s), 2)) + outside
    return gr.Graph.build(range(n), edges[: m * (n - 1) // 2 + 1]), m


class TestCycleIsValid:
    # the check behind every fundamental cycle: a correct BFS never fails it
    @pytest.mark.parametrize(
        "cyc, want",
        [
            ([0, 1, 2, 3], True),
            ([0, 1], False),  # shorter than 3
            ([0, 1, 0, 3], False),  # a repeated vertex
        ],
    )
    def test_table(self, cyc, want):
        assert gr._cycle_is_valid(cycle_graph(4).adjacency(), cyc) is want


class TestArgumentChecks:
    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(
                lambda: gr.Graph.build(range(3), [(0, 5)]),
                "bad edge (0,5)",
                id="build-edge-off-the-vertices",
            ),
            pytest.param(
                lambda: gr.long_path_from_density(gr.Graph.build(range(3), [(0, 1)]), -1),
                "m must be nonnegative",
                id="long-path-m-negative",
            ),
        ],
    )
    def test_table(self, call, message):
        with pytest.raises(PreconditionUnmet, match=f"^{re.escape(message)}$"):
            call()


class TestLongCycle:
    def test_k4_hamilton(self):
        cyc = gr.long_cycle_from_density(complete_graph(4), 3)
        check_cycle(complete_graph(4), cyc)
        assert len(cyc) >= 4

    def test_c5_m1(self):
        cyc = gr.long_cycle_from_density(cycle_graph(5), 1)
        check_cycle(cycle_graph(5), cyc)
        assert len(cyc) == 5

    def test_m1_off_tree_edge_deeper_end(self):
        # the 4-cycle 0-1-3-2: BFS from 0 puts 1 and 2 on depth 1 and 3 below
        # 1, so the off-tree edge (2, 3) has its deeper end second and the
        # fundamental cycle climbs from 3 first
        G = gr.Graph.build(range(4), [(0, 1), (1, 3), (2, 3), (0, 2)])
        cyc = gr.long_cycle_from_density(G, 1)
        check_cycle(G, cyc)
        assert cyc == [2, 0, 1, 3]

    def test_m1_tree_component_first(self):
        # the path 0-1-2 comes before the triangle 3-4-5, so the search for a
        # fundamental cycle from root 3 skips the path's edges, which lie
        # outside that root's component
        G = gr.Graph.build(range(6), [(0, 1), (1, 2), (3, 4), (3, 5), (4, 5)])
        cyc = gr.long_cycle_from_density(G, 1)
        check_cycle(G, cyc)
        assert cyc == [4, 3, 5]

    def test_petersen_m2(self, monkeypatch):
        # girth 5 (independently verified): the rotation stalls below it and
        # the kernel, searching lengths 3 and 4 in vain, returns a 5-cycle
        G = petersen()
        assert naive_shortest_cycle(G.edges, 10) == 5
        calls = []
        real = gr.spectrum_search

        def spy(n, edges, min_len, max_len, budget, live=None):
            calls.append(min_len)
            return real(n, edges, min_len, max_len, budget, live=live)

        monkeypatch.setattr(gr, "spectrum_search", spy)
        cyc = gr.long_cycle_from_density(G, 2)
        check_cycle(G, cyc)
        assert len(cyc) == 5
        assert calls == [3, 4, 5]

    def test_stall_budget_spent(self, monkeypatch):
        monkeypatch.setattr(gr, "_STALL_BUDGET", 0)
        with pytest.raises(InternalProofFailure, match="cycle extraction"):
            gr.long_cycle_from_density(petersen(), 2)

    def test_acyclic_m1(self):
        G = gr.Graph.build(range(5), [(i, i + 1) for i in range(4)])
        with pytest.raises(PreconditionUnmet):
            gr.long_cycle_from_density(G, 1)

    def test_precondition(self):
        with pytest.raises(PreconditionUnmet):
            gr.long_cycle_from_density(cycle_graph(8), 3)

    @given(st.integers(5, 11), st.integers(0, 10**6), st.integers(2, 5))
    @settings(max_examples=120, deadline=None)
    def test_bound_random(self, n, seed, m):
        G = random_graph(n, 0.6, seed)
        if not (2 * G.e > m * (G.n - 1)):
            return
        cyc = gr.long_cycle_from_density(G, m)
        check_cycle(G, cyc)
        assert len(cyc) >= m + 1

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_sparse_structured(self, seed):
        # two dense pockets joined by two disjoint paths; stresses stuck states
        rng = random.Random(seed)
        edges = list(combinations(range(5), 2)) + list(combinations(range(9, 14), 2))
        a1, a2 = rng.sample(range(5), 2)
        b1, b2 = rng.sample(range(9, 14), 2)
        edges += [(a1, 5), (5, 6), (6, b1), (a2, 7), (7, 8), (8, b2)]
        G = gr.Graph.build(range(14), edges)
        m = 3
        assert 2 * G.e > m * (G.n - 1)
        cyc = gr.long_cycle_from_density(G, m)
        check_cycle(G, cyc)
        assert len(cyc) >= m + 1

    @given(st.integers(0, 10**6), st.integers(2, 6))
    @settings(max_examples=150, deadline=None)
    def test_bound_up_to_m6(self, seed, m):
        # random densities for small m; no internal failure may surface
        rng = random.Random(seed)
        n = rng.randrange(6, 15)
        G = random_graph(n, rng.uniform(0.3, 0.95), seed)
        if not (2 * G.e > m * (G.n - 1)):
            return
        cyc = gr.long_cycle_from_density(G, m)
        check_cycle(G, cyc)
        assert len(cyc) >= m + 1

    @given(at_cycle_bound())
    @settings(max_examples=300, deadline=None)
    def test_exactly_at_bound(self, drawn):
        # e = floor(m(n-1)/2) + 1, the fewest edges the bound accepts; callers
        # pass m = k and m = 2k - 2, so `find --k 7` reaches m = 12
        G, m = drawn
        assert 2 * G.e > m * (G.n - 1) >= 2 * (G.e - 1)
        cyc = gr.long_cycle_from_density(G, m)
        check_cycle(G, cyc)
        assert len(cyc) >= m + 1
        with pytest.raises(PreconditionUnmet):  # one edge fewer is below it
            gr.long_cycle_from_density(gr.Graph.build(G.vertices, G.edges[1:]), m)

    @given(at_cycle_bound(ms=(4, 12), ns=(60, 250), small_pocket=True))
    @settings(max_examples=60, deadline=None)
    def test_large_at_bound(self, drawn):
        # about two thirds of these stall the rotation, so the kernel
        # finishes them
        G, m = drawn
        cyc = gr.long_cycle_from_density(G, m)
        check_cycle(G, cyc)
        assert len(cyc) >= m + 1

    @given(short_closure_first())
    @settings(max_examples=100, deadline=None)
    def test_stall_after_short_closure(self, drawn):
        # a closure below m+1 is never the answer, also when the rotation
        # stalls after it
        G, m = drawn
        cyc = gr.long_cycle_from_density(G, m)
        check_cycle(G, cyc)
        assert len(cyc) >= m + 1

    @given(st.integers(0, 10**5), st.integers(1, 4), st.integers(2, 6))
    @settings(max_examples=80, deadline=None)
    def test_barbell_double_bars(self, seed, bar, m):
        rng = random.Random(seed)
        a = rng.randrange(4, 8)
        lo, hi = list(range(a)), list(range(a + bar * 2, 2 * a + bar * 2))
        mids = list(range(a, a + bar * 2))
        edges = list(combinations(lo, 2)) + list(combinations(hi, 2))
        for j in range(bar):
            u, w = rng.choice(lo), rng.choice(hi)
            edges += [(u, mids[2 * j]), (mids[2 * j], mids[2 * j + 1]), (mids[2 * j + 1], w)]
        G = gr.Graph.build(range(2 * a + 2 * bar), set(edges))
        if not (2 * G.e > m * (G.n - 1)):
            return
        cyc = gr.long_cycle_from_density(G, m)
        check_cycle(G, cyc)
        assert len(cyc) >= m + 1
