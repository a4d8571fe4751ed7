import math
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergelab import finder as fd
from bergelab import hypergraph as hg
from bergelab.certify import verify_cycle
from bergelab.cli import main as cli_main
from bergelab.errors import InternalProofFailure, NotLinear, PreconditionUnmet
from bergelab.generators import (
    complete_r,
    permuted,
    random_linear_r,
    steiner_triple,
    tight_path_hypergraph,
)
from bergelab.hypergraph import (
    Hypergraph,
    average_degree,
    cover_lists,
    edge_components,
    parse,
    serialize,
)
from bergelab.oracle import oracle_spectrum
from bergelab.skeleton import LevelEdgeClasses, Skeleton, build_skeleton, classify_levels

from naive import naive_derandomized_good_set, naive_split_by_codegree, naive_sweep


def down_heavy_fixture(seed=0):
    """Two-level fixture whose level-2 down class meets the (k+2)|L_i| bound
    for k = 2: 8 co-neighbor parents each a perfect matching over 12 leaves."""
    rng = random.Random(seed)
    root = 0
    l1 = list(range(1, 11))        # 1..10; 1 and 2 parent the leaves
    l2 = list(range(11, 23))       # 12 leaves
    aux = iter(range(23, 200))
    edges = [(root, j, next(aux)) for j in l1]
    edges += [(1, v, next(aux)) for v in l2[:6]]
    edges += [(2, v, next(aux)) for v in l2[6:]]
    # 1-factorization of K_12 via the round-robin rotation
    m = len(l2)
    rounds = []
    circle = l2[1:]
    for _ in range(m - 1):
        pairs = [(l2[0], circle[0])]
        for t in range(1, m // 2):
            pairs.append((circle[t], circle[-t]))
        rounds.append(pairs)
        circle = circle[1:] + circle[:1]
    rng.shuffle(rounds)
    for p, matching in zip(range(3, 11), rounds):
        for u, w in matching:
            edges.append(tuple(sorted((u, w, p))))
    n = max(max(e) for e in edges) + 1
    return Hypergraph.from_edges(n, edges, uniformity=3)


def case1_grid_fixture(g):
    """g^2 slice edges {u_i, v_j, c_i}: marked pair (u_i, v_j) has co-degree 1,
    the apex pair (u_i, c_i) has co-degree g (high)."""
    edges = []
    for i in range(g):
        for j in range(g):
            edges.append((i, g + j, 2 * g + i))
    return Hypergraph.from_edges(3 * g, edges, uniformity=3)


def check_run(H, run, k):
    lens = run.lengths()
    assert len(lens) == k
    assert all(b - a == 1 for a, b in zip(lens, lens[1:]))
    assert lens[0] <= run.shortest_bound
    for w in run.cycles:
        assert verify_cycle(H, w)


class TestTightPathCycles:
    @pytest.mark.parametrize("r", (3, 4, 5))
    @pytest.mark.parametrize("m", range(3, 13))
    def test_exact_lengths(self, r, m):
        H = tight_path_hypergraph(m + 1, r)
        tp = fd.TightPath(tuple(range(m + r)), r)
        wits = fd.tight_path_cycles(tp)
        assert sorted(w.length for w in wits) == list(range(3, m + 1))
        for w in wits:
            assert verify_cycle(H, w)

    def test_smallest(self):
        H = tight_path_hypergraph(4, 3)
        tp = fd.TightPath(tuple(range(6)), 3)
        wits = fd.tight_path_cycles(tp)
        assert [w.length for w in wits] == [3]
        assert verify_cycle(H, wits[0])

    def test_too_short(self):
        with pytest.raises(PreconditionUnmet):
            fd.tight_path_cycles(fd.TightPath(tuple(range(5)), 3))


class TestSplitByCodegree:
    def test_k5_dense(self):
        H = complete_r(5, 3)
        out = fd.split_by_codegree(H, 1)
        assert isinstance(out, fd.DenseCore)
        assert out.edge_ids == tuple(range(10))

    def test_fano_slice(self):
        H = steiner_triple(7)
        out = fd.split_by_codegree(H, 1)
        assert isinstance(out, fd.MarkedSlice)
        assert len(out.entries) == 7
        marks = [m for _, m, _ in out.entries]
        assert len(set(marks)) == 7
        assert all(c1 for _, _, c1 in out.entries)
        for ei, m, _ in out.entries:
            assert set(m) <= set(H.edges[ei])

    def test_ledger_counterexample_slice_is_paper_faithful(self):
        # lex-least greedy can leave an edge with no slice-co-degree-1 pair
        H = Hypergraph.from_edges(
            9,
            [
                (0, 1, 2),  # abc
                (0, 1, 3),  # abd
                (0, 1, 6),  # abg
                (0, 2, 4),  # ace
                (0, 2, 7),  # acx
                (1, 2, 5),  # bcf
                (1, 2, 8),  # bcy
            ],
        )
        out = fd.split_by_codegree(H, 2)
        assert isinstance(out, fd.MarkedSlice)
        marks = [m for _, m, _ in out.entries]
        assert len(set(marks)) == len(marks)
        assert len(out.entries) * 2 >= len(H.edges)
        assert any(not c1 for _, _, c1 in out.entries)

    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(3, 4))
    @settings(max_examples=120, deadline=None)
    def test_dichotomy_random(self, seed, k, r):
        rng = random.Random(seed)
        n = rng.randrange(r + 2, 10)
        universe = list(combinations(range(n), r))
        rng.shuffle(universe)
        H = Hypergraph.from_edges(
            n, universe[: rng.randrange(1, len(universe))], uniformity=r
        )
        out = fd.split_by_codegree(H, k)
        if isinstance(out, fd.DenseCore):
            sub, _ = H.restrict(out.edge_ids)
            assert min(map(len, cover_lists(sub.edges, r - 1).values())) >= k + 1
        else:
            assert len(out.entries) * k >= len(H.edges)
            marks = [m for _, m, _ in out.entries]
            assert len(set(marks)) == len(marks)
            for ei, m, _ in out.entries:
                assert set(m) <= set(H.edges[ei])

    @given(
        st.integers(0, 10**6),
        st.integers(1, 3),
        st.integers(3, 4),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_dichotomy_by_brute_force(self, seed, k, r, planted):
        # the stated dichotomy, every co-degree counted afresh over every
        # (r-1)-subset of the vertex set
        rng = random.Random(seed)
        n = rng.randrange(r + 1, 9)
        universe = list(combinations(range(n), r))
        rng.shuffle(universe)
        edges = set(universe[: rng.randrange(1, len(universe) + 1)])
        if planted:  # a complete r-graph whose co-degrees exceed k
            edges |= set(combinations(range(min(n, r + k)), r))
        H = Hypergraph.from_edges(n, sorted(edges), uniformity=r)
        subsets = list(combinations(range(n), r - 1))

        def codegree(s, ids):
            return sum(1 for i in ids if set(s) <= set(H.edges[i]))

        out = fd.split_by_codegree(H, k)
        if isinstance(out, fd.DenseCore):
            core = out.edge_ids
            assert core and list(core) == sorted(set(core))
            for s in subsets:
                if any(set(s) <= set(H.edges[i]) for i in core):
                    assert codegree(s, core) >= k + 1
            return
        reps = [ei for ei, _, _ in out.entries]
        assert len(reps) * k >= len(H.edges)
        assert reps == sorted(set(reps))
        marks = [m for _, m, _ in out.entries]
        assert len(set(marks)) == len(marks)
        covers = {}
        for s in subsets:
            at = [j for j, ei in enumerate(reps) if set(s) <= set(H.edges[ei])]
            if at:
                covers[s] = at
        assert out.covers == covers
        for (ei, m, once), top in zip(out.entries, out.max_codegree):
            assert len(m) == r - 1 and set(m) < set(H.edges[ei])
            own = [codegree(s, reps) for s in subsets if set(s) < set(H.edges[ei])]
            assert top == max(own)
            assert once == (1 in own)
            if once:
                assert codegree(m, reps) == 1

    @given(
        st.integers(0, 10**6),
        st.integers(1, 3),
        st.integers(3, 5),
        st.sampled_from(("linear", "near-linear", "random", "planted")),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_single_heap(self, seed, k, r, kind):
        rng = random.Random(seed)
        if kind in ("linear", "near-linear"):
            n = rng.randrange(r + 2, 40)
            H, _ = random_linear_r(n, r, rng.randrange(1, 3 * n), seed=seed)
            if not H.edges:
                return
            if kind == "near-linear":
                # one more edge through an (r-1)-subset of an edge: that
                # subset alone has co-degree 2
                covered = cover_lists(H.edges, r - 1)
                e = rng.choice(H.edges)
                sub = tuple(rng.sample(e, r - 1))
                fits = [
                    w
                    for w in range(n)
                    if w not in e
                    and all(
                        tuple(sorted(s + (w,))) not in covered for s in combinations(sub, r - 2)
                    )
                ]
                if not fits:
                    return
                H = Hypergraph.from_edges(n, H.edges + (sub + (rng.choice(fits),),), uniformity=r)
                assert len(cover_lists(H.edges, r - 1)) == r * len(H.edges) - 1
        else:
            n = rng.randrange(r + k + 1, 11)
            universe = list(combinations(range(n), r))
            rng.shuffle(universe)
            edges = set(universe[: rng.randrange(1, len(universe))])
            if kind == "planted":  # a complete r-graph whose co-degrees exceed k
                edges |= set(combinations(range(r + k), r))
            H = Hypergraph.from_edges(n, sorted(edges), uniformity=r)
        assert fd.split_by_codegree(H, k) == naive_split_by_codegree(H, k)

    def test_matches_single_heap_both_outcomes(self):
        H = steiner_triple(31)
        for k in (1, 2, 3):
            out = fd.split_by_codegree(H, k)
            assert isinstance(out, fd.MarkedSlice)
            assert out == naive_split_by_codegree(H, k)
        H = complete_r(7, 3)
        out = fd.split_by_codegree(H, 3)
        assert isinstance(out, fd.DenseCore)
        assert out == naive_split_by_codegree(H, 3)


class TestMinCodegreeCycles:
    def test_k7_k3(self):
        H = complete_r(7, 3)
        wits = fd.min_codegree_cycles(H, 3)
        assert sorted(w.length for w in wits) == [3, 4, 5]
        for w in wits:
            assert verify_cycle(H, w)

    def test_k6_k3(self):
        H = complete_r(6, 3)
        wits = fd.min_codegree_cycles(H, 3)
        assert sorted(w.length for w in wits) == [3, 4, 5]

    def test_k1(self):
        H = complete_r(5, 3)
        wits = fd.min_codegree_cycles(H, 1)
        assert [w.length for w in wits] == [3]

    def test_precondition(self):
        H = steiner_triple(7)
        with pytest.raises(PreconditionUnmet):
            fd.min_codegree_cycles(H, 1)

    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(3, 4))
    @settings(max_examples=60, deadline=None)
    def test_disjoint_cliques(self, seed, k, r):
        rng = random.Random(seed)
        sizes = [rng.randrange(r + k, r + k + 3) for _ in range(rng.randrange(1, 3))]
        edges, base = [], 0
        for s in sizes:
            edges += [
                tuple(sorted(base + x for x in e))
                for e in combinations(range(s), r)
            ]
            base += s
        H = Hypergraph.from_edges(base, edges, uniformity=r)
        wits = fd.min_codegree_cycles(H, k)
        assert sorted(w.length for w in wits) == list(range(3, k + 3))
        for w in wits:
            assert verify_cycle(H, w)


class TestDownEdges:
    def test_fixture_fires(self):
        H = down_heavy_fixture()
        sk = build_skeleton(H, 0)
        cls = classify_levels(H, sk)
        assert len(cls.down[2]) == 48
        assert len(sk.levels[2]) == 12
        run = fd.cycles_from_down_edges(H, sk, 2, 2)
        check_run(H, run, 2)
        assert run.shortest_bound == 4
        assert run.lengths() == (4, 5)

    def test_precondition(self):
        H = steiner_triple(7)
        sk = build_skeleton(H, 0)
        with pytest.raises(PreconditionUnmet):
            fd.cycles_from_down_edges(H, sk, 1, 5)

    def test_repeated_down_pair_is_not_linear(self):
        # 1..6 hang off the root, and 1 attaches 13 and 14 through edges whose
        # other vertex is already on level 1; then each of 1..6 reads (j, 13, 14):
        # six down edges at level 2, (k + 2)|L_2| for k = 1, all on one pair
        edges = [(0, j, 6 + j) for j in range(1, 7)] + [(1, 2, 13), (1, 3, 14)]
        edges += [(j, 13, 14) for j in range(1, 7)]
        H = Hypergraph.from_edges(15, edges, uniformity=3)
        sk = build_skeleton(H, 0)
        assert sk.levels[2] == [13, 14]
        assert len(classify_levels(H, sk).down[2]) == 6
        with pytest.raises(NotLinear, match=r"^projection pair \(13, 14\) repeats$"):
            fd.cycles_from_down_edges(H, sk, 2, 1)

    @pytest.mark.parametrize("seed", range(50))
    def test_heavy_seeds(self, seed):
        H = down_heavy_fixture(seed)
        sk = build_skeleton(H, 0)
        run = fd.cycles_from_down_edges(H, sk, 2, 2)
        check_run(H, run, 2)
        assert run.lengths()[0] <= 4  # a <= 2i with i = 2


def forest_special_path_fixture():
    """Three-level fixture whose level-3 down class meets the (k+2)|L_i|
    bound for k = 1 exactly: 24 pairs on the 8 leaves 20..27, through six
    co-neighbors under vertex 1 (color 1) and five under vertex 2 (color 2).
    The color-1 graph is a star from 20 plus the path 21-...-27, and the
    first color-2 pair is (20, 21), so the color-1 graph minus 20 is a tree."""
    aux = iter(range(30, 100))
    ones = {
        4: [(20, 22), (23, 24), (25, 26)],
        5: [(20, 23), (21, 22), (24, 25), (26, 27)],
        6: [(20, 24), (22, 23)],
        7: [(20, 25)],
        8: [(20, 26)],
        9: [(20, 27)],
    }
    twos = {
        10: [(20, 21), (22, 24), (23, 25)],
        11: [(21, 23), (22, 25), (24, 26)],
        12: [(21, 24), (22, 26), (25, 27)],
        13: [(21, 25), (23, 26)],
        14: [(21, 26)],
    }
    edges = [(0, 1, next(aux)), (0, 2, next(aux)), (1, 3, next(aux))]
    edges += [(1, c, next(aux)) for c in ones] + [(2, c, next(aux)) for c in twos]
    edges += [(3, v, next(aux)) for v in range(20, 28)]  # the leaves hang under 3
    for c, matching in {**ones, **twos}.items():
        edges += [(c, u, w) for u, w in matching]
    return Hypergraph.from_edges(100, edges, uniformity=3)


class TestDownEdgesForest:
    """find --k 1 asks special_path for p = 2 where the color-1 graph minus
    x is a forest; the greedy path from the color-2 edge serves."""

    def test_sweep_finds_run(self):
        H = forest_special_path_fixture()
        sk = build_skeleton(H, 0)
        cls = classify_levels(H, sk)
        assert sk.levels[3] == list(range(20, 28)) and len(cls.down[3]) == 24
        assert all(len(cls.down[i]) < 3 * len(sk.levels[i]) for i in (1, 2))
        run = fd.skeleton_sweep(H, 1)
        check_run(H, run, 1)
        assert run.shortest_bound == 6

    def test_find_k1(self, tmp_path, capsys):
        path = tmp_path / "forest.hg"
        path.write_text(serialize(forest_special_path_fixture()))
        wit = tmp_path / "w.jsonl"
        argv = ["find", "--k", "1", "--input", str(path), "--emit-witnesses", str(wit)]
        assert cli_main(argv) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[1:] and err == ""
        assert cli_main(["verify", "--input", str(path), "--witnesses", str(wit)]) == 0


def pair_route_fixture(swap=False):
    """Level-2 component whose bichromatic mass sits in one color class:
    12 within-level edges pairing one branch's leaves through the other's.
    With swap=True the paired leaves hang under the second branch, driving
    the second color class instead."""
    aux = iter(range(100, 200))
    A = list(range(3, 9))     # paired leaves
    B = list(range(9, 13))    # third vertices
    pa, pb = (2, 1) if swap else (1, 2)
    edges = [(0, 1, next(aux)), (0, 2, next(aux))]
    edges += [(pa, a, next(aux)) for a in A]
    edges += [(pb, b, next(aux)) for b in B]
    matchings = [
        [(3, 4), (5, 6), (7, 8)],
        [(3, 5), (4, 7), (6, 8)],
        [(3, 6), (4, 8), (5, 7)],
        [(3, 7), (4, 6), (5, 8)],
    ]
    for b, matching in zip(B, matchings):
        for u, w in matching:
            edges.append(tuple(sorted((u, w, b))))
    n = max(max(e) for e in edges) + 1
    return Hypergraph.from_edges(n, edges, uniformity=3)


def deep_anchor_fixture(seed=0):
    """The down-heavy gadget hung below a two-edge stalk, so the common
    ancestor of the co-neighbors sits at level 2 rather than at the root."""
    rng = random.Random(seed)
    aux = iter(range(300, 500))
    edges = [(0, 1, next(aux)), (1, 2, next(aux))]
    parents = list(range(3, 13))    # children of 2 (level 3)
    leaves = list(range(13, 25))    # level 4
    edges += [(2, p, next(aux)) for p in parents]
    edges += [tuple(sorted((parents[0], v, next(aux)))) for v in leaves[:6]]
    edges += [tuple(sorted((parents[1], v, next(aux)))) for v in leaves[6:]]
    m = len(leaves)
    rounds = []
    circle = leaves[1:]
    for _ in range(m - 1):
        pairs = [(leaves[0], circle[0])]
        for t in range(1, m // 2):
            pairs.append((circle[t], circle[-t]))
        rounds.append(pairs)
        circle = circle[1:] + circle[:1]
    rng.shuffle(rounds)
    for p, matching in zip(parents[2:], rounds):
        for u, w in matching:
            edges.append(tuple(sorted((u, w, p))))
    n = max(max(e) for e in edges) + 1
    return Hypergraph.from_edges(n, edges, uniformity=3)


def mono_route_upper_fixture():
    """Mono-heavy component whose bridging edge reaches into the next
    level, so the two-colored endpoint of the good path sits in L_{i+1}."""
    sts = steiner_triple(43)
    aux = iter(range(300, 400))
    shift = 6
    edges = [(0, 1, next(aux)), (0, 2, next(aux))]
    edges += [(1, 3, next(aux)), (1, 5, next(aux))]   # y1 = 3 and b = 5
    edges += [(3, 4, next(aux))]                      # x3 = 4 at level 3
    edges += [(2, v + shift, next(aux)) for v in range(43)]
    edges += [tuple(v + shift for v in e) for e in sts.edges]
    edges.append((4, 5, shift))                       # bridge into level 3
    n = max(max(e) for e in edges) + 1
    return Hypergraph.from_edges(n, edges, uniformity=3)


def ladder_route_fixture(t=6):
    """Level-2 component of transversal edges joining the two branches into
    level 3: exactly one vertex in each of S1, S2, and the next level."""
    aux = iter(range(400, 600))
    C = list(range(3, 3 + t))                 # children of 1, parents of W
    A = list(range(3 + t, 3 + 2 * t))         # children of 1, color 1
    B = list(range(3 + 2 * t, 3 + 3 * t))     # children of 2, color 2
    W = list(range(3 + 3 * t, 3 + 4 * t))     # level 3
    edges = [(0, 1, next(aux)), (0, 2, next(aux))]
    edges += [(1, c, next(aux)) for c in C]
    edges += [(1, a, next(aux)) for a in A]
    edges += [(2, b, next(aux)) for b in B]
    edges += [(c, w, next(aux)) for c, w in zip(C, W)]
    for i in range(t):
        for j in range(t):
            edges.append(tuple(sorted((A[i], B[j], W[(i + j) % t]))))
    n = max(max(e) for e in edges) + 1
    return Hypergraph.from_edges(n, edges, uniformity=3)


def mono_route_fixture():
    """An STS(43) embedded inside one branch's level 2 plus a single
    two-colored bridge edge: the monochromatic mass exceeds the bound."""
    sts = steiner_triple(43)
    aux = iter(range(300, 400))
    shift = 3
    edges = [(0, 1, next(aux)), (0, 2, next(aux))]
    edges += [(1, v + shift, next(aux)) for v in range(43)]
    edges += [(2, 46, next(aux)), (2, 47, next(aux))]
    edges += [tuple(v + shift for v in e) for e in sts.edges]
    edges.append((3, 46, 47))
    n = max(max(e) for e in edges) + 1
    return Hypergraph.from_edges(n, edges, uniformity=3)


class TestDichotomyRoutes:
    def test_pair_route(self):
        H = pair_route_fixture()
        sk = build_skeleton(H, 0)
        out = fd.cycles_or_level_bound(H, sk, 2, 2)
        assert isinstance(out, fd.ConsecutiveRun)
        check_run(H, out, 2)
        assert out.shortest_bound == 6

    def test_pair_route_second_class(self):
        H = pair_route_fixture(swap=True)
        sk = build_skeleton(H, 0)
        out = fd.cycles_or_level_bound(H, sk, 2, 2)
        assert isinstance(out, fd.ConsecutiveRun)
        check_run(H, out, 2)

    def test_ladder_route(self):
        H = ladder_route_fixture()
        sk = build_skeleton(H, 0)
        out = fd.cycles_or_level_bound(H, sk, 2, 2)
        assert isinstance(out, fd.ConsecutiveRun)
        check_run(H, out, 2)

    def test_mono_route(self):
        H = mono_route_fixture()
        sk = build_skeleton(H, 0)
        out = fd.cycles_or_level_bound(H, sk, 2, 2)
        assert isinstance(out, fd.ConsecutiveRun)
        check_run(H, out, 2)

    def test_mono_route_upper_endpoint(self):
        H = mono_route_upper_fixture()
        sk = build_skeleton(H, 0)
        assert sk.level_of[4] == 3  # the bridge endpoint sits one level up
        out = fd.cycles_or_level_bound(H, sk, 2, 2)
        assert isinstance(out, fd.ConsecutiveRun)
        check_run(H, out, 2)
        assert out.lengths()[0] <= 6

    @pytest.mark.parametrize("seed", range(8))
    def test_deep_anchor_down_route(self, seed):
        H = deep_anchor_fixture(seed)
        sk = build_skeleton(H, 0)
        cls = classify_levels(H, sk)
        assert len(cls.down[4]) >= 4 * len(sk.levels[4])
        run = fd.cycles_from_down_edges(H, sk, 4, 2)
        check_run(H, run, 2)
        # the common ancestor sits at level 2, so the run starts at 2(4-2)
        assert run.lengths() == (4, 5)
        assert run.shortest_bound == 8


class TestLevelDichotomy:
    def test_sparse_certificate(self):
        H = steiner_triple(7)
        sk = build_skeleton(H, 0)
        out = fd.cycles_or_level_bound(H, sk, 1, 3)
        if isinstance(out, fd.LevelEdgeBound):
            assert out.counted <= out.bound
        else:
            check_run(H, out, 3)

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_dichotomy_random(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(9, 26)
        H, _ = random_linear_r(n, 3, rng.randrange(3, 2 * n), seed=seed)
        if not H.edges:
            return
        root = min(H.edges[0])
        sk = build_skeleton(H, root)
        k = rng.choice((1, 2, 3))
        for i in range(1, sk.height + 1):
            out = fd.cycles_or_level_bound(H, sk, i, k)
            if isinstance(out, fd.ConsecutiveRun):
                check_run(H, out, k)
                assert out.shortest_bound == 2 * i + 2
            else:
                assert out.counted <= out.bound


def _bound_only_skeleton(li, li1):
    """A skeleton with |L_1| = li, |L_2| = li1 (none when 0) and no edge in
    any level class, so the dichotomy at level 1 only states its bound."""
    levels = [(0,), tuple(range(1, li + 1))]
    if li1:
        levels.append(tuple(range(li + 1, li + li1 + 1)))
    empty = ((),) * (len(levels) + 1)
    return Skeleton(
        root=0, parent={0: -1}, edge_for={}, levels=tuple(levels), level_of={},
        classes=LevelEdgeClasses(empty, empty, empty), read=[],
    )


class TestLevelEdgeBound:
    def test_bound_matches_three_term_form(self):
        H = steiner_triple(7)
        for li in range(1, 41):
            for li1 in range(41):
                sk = _bound_only_skeleton(li, li1)
                for k in range(1, 7):
                    out = fd.cycles_or_level_bound(H, sk, 1, k)
                    old = Fraction(7 * k, 2) * li + li + (Fraction(5 * k, 2) + 2) * li1
                    assert (out.counted, out.bound) == (0, old)
                    top = math.floor(old)
                    fd.LevelEdgeBound(level=1, counted=top, bound=out.bound)  # accepted
                    with pytest.raises(InternalProofFailure, match="level bound"):
                        fd.LevelEdgeBound(level=1, counted=top + 1, bound=out.bound)


class TestSkeletonSweep:
    def test_sts127_guaranteed(self):
        H = steiner_triple(127)
        assert average_degree(H) == 63
        run = fd.skeleton_sweep(H, 2)
        assert run is not None
        check_run(H, run, 2)

    def test_fano_below_threshold(self):
        H = steiner_triple(7)
        run = fd.skeleton_sweep(H, 2)
        if run is not None:
            check_run(H, run, 2)

    def test_not_linear(self):
        H = complete_r(5, 3)
        with pytest.raises(NotLinear):
            fd.skeleton_sweep(H, 1)

    def test_parse_and_sweep_memory(self):
        # A relabelled STS(255) read and swept as `find` does. With a byte per
        # pair in the linearity scan and one byte mask for the sweep's live
        # edges, the Python heap peaks near 2.3 MiB (CPython 3.11, x86-64);
        # with a set of pair keys and sets of alive and read edge ids it
        # peaked near 3.7 MiB. The bound leaves at least 25 % on either side.
        text = serialize(permuted(steiner_triple(255), 7))
        tracemalloc.start()
        try:
            H = parse(text)
            run = fd.skeleton_sweep(H, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        check_run(H, run, 2)
        assert peak < 2.92 * 2**20


def _union(parts, seed):
    """Disjoint union of hypergraphs, relabelled by a seeded permutation."""
    edges, base = [], 0
    for P in parts:
        edges.extend(tuple(v + base for v in e) for e in P.edges)
        base += P.n
    return permuted(Hypergraph.from_edges(base, edges, uniformity=3), seed)


def _loose_cycle(L):
    return Hypergraph.from_edges(
        2 * L, [(2 * i, 2 * i + 1, (2 * i + 2) % (2 * L)) for i in range(L)], uniformity=3
    )


def _chorded_cycle(L):
    """A loose cycle of length L >= 4 plus the L chords (2i, 2i+3, 2i+5) mod 2L,
    which keep it linear and give every vertex degree 3. A tree T then reads
    at least |T| edges (each of its vertices brings 3, an edge holds at most
    3), one more than its tree edges: the first tree in the cycle files one."""
    n = 2 * L
    chords = [(2 * i, (2 * i + 3) % n, (2 * i + 5) % n) for i in range(L)]
    return Hypergraph.from_edges(n, list(_loose_cycle(L).edges) + chords, uniformity=3)


def _chorded_parts(rng, top):
    """One chorded cycle and up to five more cycles, each chorded or not."""
    return [_chorded_cycle(rng.randint(4, top))] + [
        _chorded_cycle(rng.randint(4, top)) if rng.random() < 0.5 else _loose_cycle(rng.randint(3, top))
        for _ in range(rng.randint(0, 5))
    ]


def _loose_path(m):
    return Hypergraph.from_edges(
        2 * m + 1, [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(m)], uniformity=3
    )


def _sweep_trace(monkeypatch, sweep, H, k):
    """(root, levels, edges read) per skeleton the sweep builds, and its
    result or the repr of the error it raised."""
    seq = []
    build = fd.build_skeleton

    def recording(H_, root, live=None, heavy=None):
        sk = build(H_, root, live, heavy)
        seq.append((root, tuple(map(tuple, sk.levels)), tuple(sk.read)))
        return sk

    with monkeypatch.context() as mp:
        mp.setattr(fd, "build_skeleton", recording)
        try:
            out = sweep(H, k)
        except Exception as exc:  # compared by value against the reference
            out = repr(exc)
    return seq, out


def _assert_same_sweep(got, want):
    """`_sweep_trace` of the sweep against that of `naive_sweep`: the same
    result and the same skeletons from the same roots, tree by tree, except
    that the sweep's last build may stop at the heavy down class that gives
    the run, so its levels and the edges it read are prefixes of the full
    skeleton's."""
    (trees, out), (ref_trees, ref_out) = got, want
    assert out == ref_out
    assert len(trees) == len(ref_trees)
    assert trees[:-1] == ref_trees[:-1]
    if out is None:  # no run, so no build stopped
        assert trees == ref_trees
    elif trees:
        (root, levels, read), (ref_root, ref_levels, ref_read) = trees[-1], ref_trees[-1]
        assert root == ref_root
        assert levels == ref_levels[: len(levels)] and read == ref_read[: len(read)]


def _sparse_union(seed):
    rng = random.Random(seed)
    parts = []
    for j in range(rng.randint(2, 5)):
        if rng.random() < 0.25:
            parts.append(steiner_triple(rng.choice((7, 9, 13))))
        else:
            n = rng.randint(6, 40)
            parts.append(random_linear_r(n, 3, rng.randint(1, 2 * n), 100 * seed + j)[0])
    return _union(parts, seed)


class TestSweepIdentity:
    """The sweep builds the same skeletons, from the same roots in the same
    order, as the from-scratch loop that scans every alive edge."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_sparse_unions(self, monkeypatch, seed):
        H = _sparse_union(seed)
        assert len(edge_components(H, range(len(H.edges)))) >= 2
        for k in (1, 2):
            got = _sweep_trace(monkeypatch, fd.skeleton_sweep, H, k)
            _assert_same_sweep(got, _sweep_trace(monkeypatch, naive_sweep, H, k))
            assert got[0]

    @pytest.mark.parametrize("seed", range(20))
    def test_permuted_loose_paths(self, monkeypatch, seed):
        m = random.Random(seed).randint(1, 150)
        H = permuted(_loose_path(m), seed)
        got = _sweep_trace(monkeypatch, fd.skeleton_sweep, H, 2)
        _assert_same_sweep(got, _sweep_trace(monkeypatch, naive_sweep, H, 2))
        assert got[1] is None

    @pytest.mark.parametrize("seed", range(20))
    def test_loose_cycle_unions(self, monkeypatch, seed):
        rng = random.Random(seed)
        H = _union([_loose_cycle(rng.randint(3, 40)) for _ in range(rng.randint(1, 6))], seed)
        for k in (1, 2):
            got = _sweep_trace(monkeypatch, fd.skeleton_sweep, H, k)
            _assert_same_sweep(got, _sweep_trace(monkeypatch, naive_sweep, H, k))

    @pytest.mark.parametrize("seed", range(20))
    def test_chorded_cycle_unions(self, monkeypatch, seed):
        # plain loose cycles file no edge; a chorded one does, so here the
        # level checks run, and both sweeps still agree
        H = _union(_chorded_parts(random.Random(seed), 40), seed)
        checked = []
        levels_once = fd._levels_once

        def levels_recording(H_, sk, k_):
            checked.append(sk)
            return levels_once(H_, sk, k_)

        for k in (1, 2):
            checked.clear()
            with monkeypatch.context() as mp:
                mp.setattr(fd, "_levels_once", levels_recording)
                got = _sweep_trace(monkeypatch, fd.skeleton_sweep, H, k)
            _assert_same_sweep(got, _sweep_trace(monkeypatch, naive_sweep, H, k))
            assert checked and all(len(sk.read) >= len(sk.parent) for sk in checked)

    def test_run_found_after_sparse_components(self, monkeypatch):
        # only the STS(13) part yields a run; both sweeps reach it by the same roots
        H = _union([_loose_path(30), steiner_triple(13), _loose_cycle(9)], 5)
        got = _sweep_trace(monkeypatch, fd.skeleton_sweep, H, 1)
        _assert_same_sweep(got, _sweep_trace(monkeypatch, naive_sweep, H, 1))
        assert isinstance(got[1], fd.ConsecutiveRun)

    def test_build_stops_at_the_heavy_level(self, monkeypatch):
        # A Steiner triple system's skeletons have two levels, and the run's
        # down_2 is heavy, so the sweep's build stops before level 2's heads
        # read their within edges; with a loose path hanging off the system,
        # some runs' skeletons also lose the path's levels below. Both cuts
        # leave the run as the whole skeleton gives it.
        fewer_reads = fewer_levels = 0
        for n, tail, seed, k in product((15, 19, 31), (0, 3), range(3), (1, 2)):
            edges, v = list(steiner_triple(n).edges), n - 1
            for j in range(n, n + 2 * tail, 2):
                edges.append((v, j, j + 1))
                v = j + 1
            H = permuted(Hypergraph.from_edges(n + 2 * tail, edges, uniformity=3), seed)
            got = _sweep_trace(monkeypatch, fd.skeleton_sweep, H, k)
            want = _sweep_trace(monkeypatch, naive_sweep, H, k)
            _assert_same_sweep(got, want)
            if isinstance(got[1], fd.ConsecutiveRun):
                (_, levels, read), (_, ref_levels, ref_read) = got[0][-1], want[0][-1]
                fewer_reads += len(read) < len(ref_read)
                fewer_levels += len(levels) < len(ref_levels)
        assert fewer_reads > 0 and fewer_levels > 0


@st.composite
def sweep_inputs(draw):
    """(H, k): a loose path, a loose-cycle union, a union of loose cycles at
    least one of them chorded, a sparse random linear 3-graph or one beside
    a planted STS(7) or STS(9) block, relabelled. From the chorded kind on,
    some skeleton files an edge; in the last two, skeletons after the first
    reach levels with within or up edges, and some of those levels give the
    run."""
    kind = draw(st.sampled_from(("path", "cycles", "chorded", "random", "planted")))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    if kind == "path":
        parts = [_loose_path(rng.randint(1, 200))]
    elif kind == "cycles":
        parts = [_loose_cycle(rng.randint(3, 30)) for _ in range(rng.randint(1, 6))]
    elif kind == "chorded":
        parts = _chorded_parts(rng, 30)
    else:
        n = rng.randint(6, 60 if kind == "random" else 40)
        parts = [random_linear_r(n, 3, rng.randint(1, 2 * n), seed)[0]]
        if kind == "planted":
            parts.append(steiner_triple(rng.choice((7, 9))))
    return _union(parts, seed), draw(st.sampled_from((1, 2)))


def _outcome(sweep, H, k):
    try:
        return sweep(H, k)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


class TestSweepDifferential:
    """Skipping the dichotomy on levels with empty within and up classes
    changes nothing: the sweep gives the run, the None or the error that
    the loop running it at every level gives."""

    @given(sweep_inputs())
    @settings(max_examples=200, deadline=None)
    def test_matches_every_level_loop(self, drawn):
        H, k = drawn
        assert _outcome(fd.skeleton_sweep, H, k) == _outcome(naive_sweep, H, k)


class TestSweepGuarantee:
    """The 21(k+1) count holds for any order of roots: the sparse parts on
    the low labels are swept first, by vertex-disjoint trees whose incident
    edges all go, and the STS(127) part on the highest labels still yields
    the run the average degree guarantees."""

    @pytest.mark.parametrize(
        "sparse",
        [
            [_loose_path(8), _loose_cycle(6), _loose_cycle(9)],
            [_loose_path(20), _loose_path(5)],
            [_loose_cycle(3)] * 6,
        ],
    )
    def test_dense_part_last(self, monkeypatch, sparse):
        parts = sparse + [steiner_triple(127)]
        edges, base = [], 0
        for P in parts:
            edges.extend(tuple(v + base for v in e) for e in P.edges)
            base += P.n
        H = Hypergraph.from_edges(base, edges, uniformity=3)
        assert average_degree(H) >= 21 * (1 + 1)
        trees, run = _sweep_trace(monkeypatch, fd.skeleton_sweep, H, 1)
        assert isinstance(run, fd.ConsecutiveRun)  # not the "sweep exhaustion" repr
        check_run(H, run, 1)
        roots = [root for root, _, _ in trees]
        assert max(roots[:-1]) < roots[-1] == base - 127  # the STS part comes last
        seen = set()
        for _, levels, _ in trees:
            tree = {v for lv in levels for v in lv}
            assert seen.isdisjoint(tree)
            seen.update(tree)


class TestSweepWorkBound:
    """Deterministic cost check: one skeleton per edge on a loose path, and
    what the sweep's levels hand to the shadow primitives totals O(m), not
    O(iterations * m)."""

    def test_natural_loose_path(self, monkeypatch):
        m = 3000
        H = _loose_path(m)
        handed = {"edge_components": 0, "covered_vertices": 0, "skeletons": 0, "level_checks": 0}

        def counting(name, fn):
            def wrapper(H_, ids, *rest):
                ids = list(ids)
                handed[name] += len(ids)
                return fn(H_, ids, *rest)

            return wrapper

        build, levels_once = fd.build_skeleton, fd._levels_once

        def build_counted(*args, **kwargs):
            handed["skeletons"] += 1
            return build(*args, **kwargs)

        def levels_counted(*args):
            handed["level_checks"] += 1
            return levels_once(*args)

        monkeypatch.setattr(fd, "edge_components", counting("edge_components", fd.edge_components))
        monkeypatch.setattr(fd, "covered_vertices", counting("covered_vertices", fd.covered_vertices))
        monkeypatch.setattr(fd, "build_skeleton", build_counted)
        monkeypatch.setattr(fd, "_levels_once", levels_counted)
        assert fd.skeleton_sweep(H, 2) is None
        # one skeleton per edge: each tree is {2i, 2i+1} and removes edge i
        assert handed["skeletons"] == m
        assert handed["edge_components"] + handed["covered_vertices"] <= 4 * m
        # each of those trees reads only its tree edge, so no level is checked
        assert handed["level_checks"] == 0

    def test_level_checks_only_on_filing_trees(self, monkeypatch):
        # A loose cycle's trees never file an edge (each edge has a vertex of
        # degree 1, reached through that edge alone); the random linear part
        # beside them gives trees that do. The level checks run on exactly
        # the trees whose build read more than its |T| - 1 tree edges.
        built, checked = [], []
        build, levels_once = fd.build_skeleton, fd._levels_once

        def recording(H_, root, live=None, heavy=None):
            sk = build(H_, root, live, heavy)
            built.append(sk)
            return sk

        def levels_recording(H_, sk, k_):
            checked.append(sk)
            return levels_once(H_, sk, k_)

        seen = {"tree_only": 0, "filing": 0}
        for seed in range(20):
            rng = random.Random(seed)
            parts = [_loose_cycle(rng.randint(3, 40)) for _ in range(rng.randint(1, 6))]
            n = rng.randint(8, 30)
            parts.append(random_linear_r(n, 3, rng.randint(n // 2, n), seed)[0])
            H = _union(parts, seed)
            for k in (1, 2):
                built.clear()
                checked.clear()
                with monkeypatch.context() as mp:
                    mp.setattr(fd, "build_skeleton", recording)
                    mp.setattr(fd, "_levels_once", levels_recording)
                    out = fd.skeleton_sweep(H, k)
                assert out == naive_sweep(H, k)
                filing = [sk for sk in built if len(sk.read) >= len(sk.parent)]
                assert list(map(id, checked)) == list(map(id, filing))
                seen["filing"] += len(filing)
                seen["tree_only"] += len(built) - len(filing)
        assert seen["filing"] > 0 and seen["tree_only"] > 0


class TestFindLinearR:
    def test_lifted_4graph(self):
        H3 = down_heavy_fixture()
        fresh = iter(range(H3.n, H3.n + len(H3.edges)))
        quads = [e + (next(fresh),) for e in H3.edges]
        H4 = Hypergraph.from_edges(H3.n + len(H3.edges), quads, uniformity=4)
        run = fd.find_linear_r(H4, 2)
        assert run is not None
        check_run(H4, run, 2)
        # spines must come from the 3-graph engine verbatim
        run3 = fd.skeleton_sweep(H3, 2)
        assert run3 is not None
        assert tuple(w.spine for w in run.cycles) == tuple(w.spine for w in run3.cycles)

    def test_not_linear(self):
        with pytest.raises(NotLinear):
            fd.find_linear_r(complete_r(6, 4), 1)

    @pytest.mark.parametrize("n", [31, 63])
    def test_3graph_is_the_sweep(self, n):
        H = steiner_triple(n)
        outcomes = set()
        for k in (1, 2, 3):
            run = fd.find_linear_r(H, k)
            assert run == fd.skeleton_sweep(H, k)
            outcomes.add(run is None)
        assert outcomes == {False}  # both systems carry runs for k <= 3

    def test_3graph_is_the_sweep_random(self):
        rng = random.Random(1005)
        nones = 0
        for seed in range(40):
            n = rng.randrange(8, 40)
            H, _ = random_linear_r(n, 3, rng.randrange(3, 3 * n), seed=seed)
            run = fd.find_linear_r(H, 1)
            assert run == fd.skeleton_sweep(H, 1)
            nones += run is None
        assert 0 < nones < 40  # both outcomes are compared


class TestFindGeneral3:
    def test_dense_core_route(self):
        H = complete_r(35, 3)
        assert average_degree(H) >= fd.general_3_threshold(2)
        run = fd.find_general_3(H, 2)
        assert run is not None
        check_run(H, run, 2)
        assert run.lengths() == (3, 4)

    def test_case2_linear_slice(self):
        H = steiner_triple(127)
        run = fd.find_general_3(H, 2)
        assert run is not None
        check_run(H, run, 2)

    def test_linear_slice_returns_sweep_run(self, monkeypatch):
        # a linear input goes straight to the sweep, so the sweep's run,
        # already validated on H, comes back as it is
        runs = []
        real = fd.skeleton_sweep

        def recorded(H, k):
            runs.append(real(H, k))
            return runs[-1]

        monkeypatch.setattr(fd, "skeleton_sweep", recorded)
        H = steiner_triple(127)
        run = fd.find_general_3(H, 2)
        assert run is not None and run is runs[-1]
        check_run(H, run, 2)

    def test_case1_high_pairs(self):
        H = case1_grid_fixture(84)
        run = fd.find_general_3(H, 2)
        assert run is not None
        check_run(H, run, 2)

    def test_slice_pair_map_built_once(self, monkeypatch):
        # a linear input skips the co-degree split and builds no pair map; a
        # non-linear one splits once, building the members map and the
        # slice map, and the routes read the latter from the MarkedSlice
        calls = []
        real = fd.cover_lists

        def counted(edges, k):
            calls.append(k)
            return real(edges, k)

        monkeypatch.setattr(fd, "cover_lists", counted)
        monkeypatch.setattr(hg, "cover_lists", counted)
        split = mock.Mock(wraps=fd.split_by_codegree)
        monkeypatch.setattr(fd, "split_by_codegree", split)
        H = steiner_triple(31)
        fd.find_general_3(H, 2)
        assert split.call_count == 0 and calls == []
        H = Hypergraph.from_edges(32, H.edges + ((0, 1, 31),), uniformity=3)
        fd.find_general_3(H, 2)
        assert split.call_count == 1 and calls == [2, 2]

    def test_linear_sweep_gated(self, monkeypatch):
        # a linear 3-graph is swept from average degree 21(k+1) on, and not
        # below it, though the sweep would find a run there
        H = steiner_triple(127)  # average degree 63 = 21 * 3
        assert fd.skeleton_sweep(H, 3) is not None
        sweep = mock.Mock(wraps=fd.skeleton_sweep)
        monkeypatch.setattr(fd, "skeleton_sweep", sweep)
        assert fd.find_general_3(H, 3) is None
        assert sweep.call_count == 0
        run = fd.find_general_3(H, 2)
        assert sweep.call_count == 1
        check_run(H, run, 2)

    def test_low_pairs_lifts_subgraph_run(self, monkeypatch):
        # two edges through pairs of STS(127) and a new vertex: the greedy
        # low family drops an edge, and its run is lifted back to H
        H0 = steiner_triple(127)
        H = Hypergraph.from_edges(128, H0.edges + ((0, 1, 127), (2, 3, 127)), uniformity=3)
        lift = mock.Mock(wraps=fd._lift_run)
        monkeypatch.setattr(fd, "_lift_run", lift)
        run = fd.find_general_3(H, 1)
        assert lift.call_count == 1
        assert run.lengths() == (4,)
        check_run(H, run, 1)

    def test_small_absent_ok(self):
        H = steiner_triple(7)
        run = fd.find_general_3(H, 2)
        if run is not None:
            check_run(H, run, 2)

    def test_oracle_agreement_small(self):
        for n in (5, 6, 7):
            H = complete_r(n, 3)
            run = fd.find_general_3(H, 1)
            if run is None:
                continue
            spec = oracle_spectrum(H, H.n)
            for L in run.lengths():
                assert L in spec.lengths


@st.composite
def marked_entries(draw):
    """A random 3-graph and a random list of (edge, marked pair) entries."""
    n = draw(st.integers(3, 9))
    edges = draw(
        st.lists(st.sampled_from(list(combinations(range(n), 3))), unique=True, min_size=1)
    )
    H = Hypergraph.from_edges(n, edges, uniformity=3)
    picks = st.tuples(st.integers(0, len(H.edges) - 1), st.integers(0, 2))
    entries = [
        (ei, tuple(p for j, p in enumerate(H.edges[ei]) if j != drop))
        for ei, drop in draw(st.lists(picks, max_size=25))
    ]
    return H, entries


class TestDerandomizedGoodSet:
    @given(marked_entries())
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_probabilities(self, case):
        H, entries = case
        assert fd._derandomized_good_set(H, entries) == naive_derandomized_good_set(H, entries)

    def test_meets_four_in_27(self):
        # a star of edges {0, v, v+1}, each marked {0, v}: the chosen set keeps
        # at least 4/27 of the entries good
        H = Hypergraph.from_edges(40, [(0, v, v + 1) for v in range(1, 39, 2)], uniformity=3)
        entries = [(ei, e[:2]) for ei, e in enumerate(H.edges)]
        chosen = fd._derandomized_good_set(H, entries)
        assert 27 * len(chosen) >= 4 * len(entries)


class TestAugmentThroughHighPair:
    def test_high_pair_beside_b(self):
        # the 4-cycle 0-1-2-3 with mark edge {0, 1, 4}: the pair {0, 4} lies in
        # one slice edge and {1, 4} in three, so the spine starts at b = 1 and
        # reads the cycle backwards. Edge 2 = {1, 2, 4} would close at 2, the
        # last vertex of that reading, so edge 4 = {1, 4, 8} is taken instead.
        edges = [(0, 1, 4), (0, 3, 7), (1, 2, 4), (1, 2, 5), (1, 4, 8), (2, 3, 6)]
        H = Hypergraph.from_edges(9, edges)
        assert list(H.edges) == edges
        entries = tuple((ei, e[1:], True) for ei, e in enumerate(edges))
        sl = fd.MarkedSlice(entries, cover_lists(edges, 2), (1,) * len(edges))
        assert sl.covers[(0, 4)] == [0] and sl.covers[(1, 4)] == [0, 2, 4]
        pair_to_edge = {(0, 1): 0, (1, 2): 3, (2, 3): 5, (0, 3): 1}
        third = {(0, 1): 4, (1, 2): 5, (2, 3): 6, (0, 3): 7}
        w = fd._augment_through_high_pair(H, sl, pair_to_edge, third, (0, 1, 2, 3))
        assert w.spine == (1, 4, 0, 3, 2)
        assert w.edges == (4, 0, 1, 5, 3)
        assert verify_cycle(H, w)


class TestFindGeneralR:
    def test_dense_core_r4(self):
        H = complete_r(23, 4)
        assert average_degree(H) >= fd.general_r_threshold(4, 2)
        run = fd.find_general_r(H, 2)
        assert run is not None
        check_run(H, run, 2)
        assert run.lengths() == (3, 4)

    def test_slice_recursion_r4(self):
        # one shared fourth vertex keeps the marked 3-graph dense enough
        # for the high-pair branch after the slice recursion
        g = 85
        H3 = case1_grid_fixture(g)
        quads = [e + (3 * g,) for e in H3.edges]
        H4 = Hypergraph.from_edges(3 * g + 1, quads, uniformity=4)
        run = fd.find_general_r(H4, 2)
        assert run is not None
        check_run(H4, run, 2)

    def test_absent_below_threshold(self):
        # a loose 4-uniform path: the marked 3-graph is a sparse linear one,
        # whose route finds nothing, and H is far below the threshold
        edges = [tuple(range(3 * i, 3 * i + 4)) for i in range(10)]
        H = Hypergraph.from_edges(31, edges, uniformity=4)
        assert average_degree(H) < fd.general_r_threshold(4, 1)
        assert fd.find_general_r(H, 1) is None

    def test_r3_delegates(self):
        H = complete_r(10, 3)
        run = fd.find_general_r(H, 1)
        assert run is not None
        check_run(H, run, 1)


# the Fano plane and its skeleton from root 0, for the argument checks
FANO = steiner_triple(7)
FANO_SKELETON = build_skeleton(FANO, 0)
LEVEL_CHECK = "need k >= 1 and a level inside the tree"


class TestArgumentChecks:
    """Each public entry point refuses arguments outside its hypothesis."""

    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(
                lambda: fd.skeleton_sweep(complete_r(5, 4), 2),
                "sweep needs a 3-graph",
                id="sweep-4-graph",
            ),
            pytest.param(lambda: fd.skeleton_sweep(FANO, 0), "k must be at least 1", id="sweep-k-0"),
            pytest.param(
                lambda: fd.cycles_from_down_edges(FANO, FANO_SKELETON, 0, 1),
                LEVEL_CHECK,
                id="down-level-0",
            ),
            pytest.param(
                lambda: fd.cycles_from_down_edges(FANO, FANO_SKELETON, FANO_SKELETON.height + 1, 1),
                LEVEL_CHECK,
                id="down-above-top",
            ),
            pytest.param(
                lambda: fd.cycles_or_level_bound(FANO, FANO_SKELETON, 0, 1),
                LEVEL_CHECK,
                id="dichotomy-level-0",
            ),
            pytest.param(
                lambda: fd.cycles_or_level_bound(FANO, FANO_SKELETON, FANO_SKELETON.height + 1, 1),
                LEVEL_CHECK,
                id="dichotomy-above-top",
            ),
            pytest.param(
                lambda: fd.find_linear_r(complete_r(4, 2), 1),
                "need a uniform hypergraph with r >= 3",
                id="linear-r-2-graph",
            ),
            pytest.param(
                lambda: fd.split_by_codegree(Hypergraph.from_edges(4, [(0, 1), (1, 2, 3)]), 1),
                "uniform hypergraph required",
                id="split-mixed-sizes",
            ),
            pytest.param(
                lambda: fd.split_by_codegree(FANO, 0), "k must be at least 1", id="split-k-0"
            ),
            pytest.param(
                lambda: fd.min_codegree_cycles(complete_r(4, 2), 1),
                "need r >= 3",
                id="codegree-2-graph",
            ),
            pytest.param(
                lambda: fd.min_codegree_cycles(complete_r(5, 3), 0),
                "k must be at least 1",
                id="codegree-k-0",
            ),
            pytest.param(
                lambda: fd.find_general_3(complete_r(5, 4), 1),
                "need a 3-graph",
                id="general-3-4-graph",
            ),
            pytest.param(
                lambda: fd.find_general_3(FANO, 0), "k must be at least 1", id="general-3-k-0"
            ),
            pytest.param(
                lambda: fd.find_general_r(complete_r(4, 2), 1),
                "need a uniform hypergraph with r >= 3",
                id="general-r-2-graph",
            ),
            pytest.param(
                lambda: fd.find_general_r(complete_r(5, 4), 0),
                "k must be at least 1",
                id="general-r-k-0",
            ),
        ],
    )
    def test_table(self, call, message):
        with pytest.raises(PreconditionUnmet, match=f"^{re.escape(message)}$"):
            call()
