"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import random
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

from bergelab import finder as fd
from bergelab.certify import verify_cycle
from bergelab.errors import InternalProofFailure
from bergelab.generators import (
    complete_r,
    permuted,
    random_linear_r,
    steiner_triple,
    tight_path_hypergraph,
)
from bergelab.hypergraph import Hypergraph, average_degree, cover_lists, is_linear
from bergelab.lengthcontrol import length_controlled_search, threshold_met
from bergelab.oracle import oracle_spectrum
from bergelab.skeleton import build_skeleton, classify_levels
from bergelab.turan import turan_exhaustive

PKG = str(Path(__file__).resolve().parent.parent / "src")


def random_3graph(n, m, seed):
    rng = random.Random(seed)
    universe = list(combinations(range(n), 3))
    rng.shuffle(universe)
    return Hypergraph.from_edges(n, universe[: min(m, len(universe))], uniformity=3)


def clique_union(r, k, seed):
    """Disjoint complete r-graphs, each of order >= r+k, relabeled."""
    rng = random.Random(seed)
    sizes = [rng.randrange(r + k, r + k + 3) for _ in range(rng.randrange(1, 3))]
    edges, base = [], 0
    for s in sizes:
        edges += [tuple(base + x for x in e) for e in combinations(range(s), r)]
        base += s
    H = Hypergraph.from_edges(base, edges, uniformity=r)
    return permuted(H, seed)


def fixture_corpus():
    """(name, hypergraph, runner) triples driving every finder."""
    from test_finder import (
        case1_grid_fixture,
        deep_anchor_fixture,
        down_heavy_fixture,
        ladder_route_fixture,
        mono_route_fixture,
        mono_route_upper_fixture,
        pair_route_fixture,
    )

    corpus = []
    for seed in range(4):
        H = permuted(steiner_triple(127), seed)
        corpus.append((f"sts127/{seed}", H, lambda H: fd.skeleton_sweep(H, 2)))
    for seed in range(2):
        H = permuted(steiner_triple(169), seed)
        corpus.append((f"sts169/{seed}", H, lambda H: fd.skeleton_sweep(H, 3)))
    for seed in range(4):
        H = down_heavy_fixture(seed)
        corpus.append(
            (f"down/{seed}", H, lambda H: fd.skeleton_sweep(H, 2))
        )
    for seed in range(2):
        H = deep_anchor_fixture(seed)
        corpus.append((f"deep/{seed}", H, lambda H: fd.skeleton_sweep(H, 2)))
    for name, fx in (
        ("route-pair", pair_route_fixture),
        ("route-pair-2", lambda: pair_route_fixture(swap=True)),
        ("route-ladder", ladder_route_fixture),
        ("route-mono", mono_route_fixture),
        ("route-mono-upper", mono_route_upper_fixture),
    ):
        H = fx()
        def runner(H):
            sk = build_skeleton(H, 0)
            out = fd.cycles_or_level_bound(H, sk, 2, 2)
            return out if isinstance(out, fd.ConsecutiveRun) else None
        corpus.append((name, H, runner))
    corpus.append(("k35-general3", complete_r(35, 3), lambda H: fd.find_general_3(H, 2)))
    corpus.append(("grid-case1", case1_grid_fixture(84), lambda H: fd.find_general_3(H, 2)))
    corpus.append(("sts127-case2", steiner_triple(127), lambda H: fd.find_general_3(H, 2)))
    corpus.append(("k23-general4", complete_r(23, 4), lambda H: fd.find_general_r(H, 2)))
    g = 85
    H3 = case1_grid_fixture(g)
    quads = [e + (3 * g,) for e in H3.edges]
    H4 = Hypergraph.from_edges(3 * g + 1, quads, uniformity=4)
    corpus.append(("grid-lift-r4", H4, lambda H: fd.find_general_r(H, 2)))
    return corpus


class TestAcceptance:
    def test_criterion_01_witness_soundness(self):
        t0 = time.time()
        witnesses = 0
        runs = 0
        for name, H, runner in fixture_corpus():
            run = runner(H)  # InternalProofFailure would propagate and fail
            if run is None:
                continue
            runs += 1
            lens = run.lengths()
            assert len(lens) == run.k
            assert all(b - a == 1 for a, b in zip(lens, lens[1:])), name
            assert lens[0] <= run.shortest_bound, name
            for w in run.cycles:
                assert verify_cycle(H, w), name
                witnesses += 1
        dt = time.time() - t0
        assert runs >= 15
        print(
            f"\nACCEPTANCE 1: PASS - {witnesses} witnesses from {runs} runs all "
            f"verify, zero InternalProofFailure, corpus {dt:.1f}s"
        )

    def test_criterion_02_oracle_equivalence(self):
        rng = random.Random(20260808)
        checked = 0
        for i in range(200):
            n = rng.randrange(4, 8)
            m = rng.randrange(1, min(len(list(combinations(range(n), 3))), 20))
            H = random_3graph(n, m, rng.randrange(10**9))
            spec = oracle_spectrum(H, n)
            claimed = set()
            for k in (1, 2):
                run = fd.find_general_3(H, k)
                if run is not None:
                    claimed.update(run.lengths())
            if is_linear(H):
                run = fd.skeleton_sweep(H, 1)
                if run is not None:
                    claimed.update(run.lengths())
            covers = cover_lists(H.edges, 2)
            if covers and min(map(len, covers.values())) >= 2:
                for w in fd.min_codegree_cycles(H, 1):
                    claimed.add(w.length)
            assert claimed <= set(spec.lengths), (H.edges, claimed, spec.lengths)
            checked += 1
        for n in range(4, 8):
            spec = oracle_spectrum(complete_r(n, 3), n)
            assert spec.lengths == tuple(range(3, n + 1)), n
        print(
            f"\nACCEPTANCE 2: PASS - {checked} random instances, finder lengths "
            f"inside the oracle spectrum; K_n spectra exactly 3..n for n=4..7"
        )

    def test_criterion_03_tight_path_exactness(self):
        cases = 0
        for r in (3, 4, 5):
            for m in range(3, 13):
                H = tight_path_hypergraph(m + 1, r)
                tp = fd.TightPath(tuple(range(m + r)), r)
                wits = fd.tight_path_cycles(tp)
                assert sorted(w.length for w in wits) == list(range(3, m + 1)), (r, m)
                for w in wits:
                    assert verify_cycle(H, w), (r, m, w.length)
                cases += 1
        print(
            f"\nACCEPTANCE 3: PASS - {cases} (r, m) pairs yield exactly the "
            f"lengths 3..m, all verified"
        )

    def test_criterion_04_min_codegree(self):
        done = 0
        for i in range(50):
            r = 3 if i % 2 == 0 else 4
            k = (i % 3) + 1
            H = clique_union(r, k, seed=1000 + i)
            wits = fd.min_codegree_cycles(H, k)
            assert sorted(w.length for w in wits) == list(range(3, k + 3)), (r, k, i)
            for w in wits:
                assert verify_cycle(H, w)
            done += 1
        print(
            f"\nACCEPTANCE 4: PASS - {done} seeded instances with guaranteed "
            f"co-degree return verified cycles of all lengths 3..k+2"
        )

    def test_criterion_05_sweep_falsifiability(self):
        absences = 0
        total = 0
        for seed in range(15):
            H = permuted(steiner_triple(127), seed)
            assert average_degree(H) >= 21 * 3
            run = fd.skeleton_sweep(H, 2)
            total += 1
            if run is None:
                absences += 1
            else:
                for w in run.cycles:
                    assert verify_cycle(H, w)
        for seed in range(15):
            H = permuted(steiner_triple(169), seed)
            assert average_degree(H) >= 21 * 4
            run = fd.skeleton_sweep(H, 3)
            total += 1
            if run is None:
                absences += 1
            else:
                for w in run.cycles:
                    assert verify_cycle(H, w)
        assert absences == 0
        print(
            f"\nACCEPTANCE 5: PASS - {total} above-threshold linear 3-graphs, "
            f"zero absences, all runs verified"
        )

    def test_criterion_06_length_control(self):
        checked = 0
        for h in (2, 3):
            for seed in range(3):
                H = permuted(steiner_triple(127), seed)
                assert threshold_met(H, 2, h) is False  # desk-scale vacuity, exact
                run, report = length_controlled_search(H, 2, h)
                assert report.h == h and report.threshold_met is False
                if run is not None:
                    assert run.lengths()[0] <= 2 * h, (h, seed, run.lengths())
                    for w in run.cycles:
                        assert verify_cycle(H, w)
                    checked += 1
        assert checked >= 1
        print(
            f"\nACCEPTANCE 6: PASS - thresholds evaluated exactly (vacuously "
            f"unmet at desk scale, see ledger); {checked} machinery-engaged "
            f"runs all meet shortest <= 2h"
        )

    def test_criterion_07_skeleton_invariants(self):
        rng = random.Random(7)
        for i in range(500):
            n = rng.randrange(4, 12)
            m = rng.randrange(1, 3 * n)
            H = random_3graph(n, m, rng.randrange(10**9))
            if not H.edges:
                continue
            root = rng.randrange(n)
            sk = build_skeleton(H, root)  # an edge in no class: ClassificationFailure
            classify_levels(H, sk)
            assert len(sk.edge_for) == len(sk.tree_vertices()) - 1
        print(
            "\nACCEPTANCE 7: PASS - 500 random 3-graphs: empty residual and "
            "|E_T| = |V(T)|-1 everywhere"
        )

    def test_criterion_08_turan_values(self):
        rec = turan_exhaustive(7, 3, 2)
        assert rec.exact and rec.value == 7
        from bergelab.hypergraph import profile

        p = profile(rec.extremal)
        assert p.is_linear and set(p.per_vertex_degree) == {3}
        pinned = {4: 2, 5: 3, 6: 4}
        for n, val in pinned.items():
            r2 = turan_exhaustive(n, 3, 3, budget=10**8)
            assert r2.exact, n
            assert r2.value == val, (n, r2.value)
        print(
            "\nACCEPTANCE 8: PASS - turan(7,3,2) = 7 with a Steiner extremal "
            "example; turan(n,3,3) = 2, 3, 4 for n = 4, 5, 6, all exact in budget"
        )

    def test_criterion_09_dichotomy_totality(self):
        rng = random.Random(99)
        bc_calls = 0
        while bc_calls < 1000:
            n = rng.randrange(9, 22)
            H, _ = random_linear_r(n, 3, rng.randrange(3, 2 * n), seed=rng.randrange(10**9))
            if not H.edges:
                continue
            sk = build_skeleton(H, rng.choice(sorted({v for e in H.edges for v in e})))
            k = rng.choice((1, 2, 3))
            for i in range(1, sk.height + 1):
                out = fd.cycles_or_level_bound(H, sk, i, k)
                if isinstance(out, fd.ConsecutiveRun):
                    for w in out.cycles:
                        assert verify_cycle(H, w)
                else:
                    assert out.counted <= out.bound
                bc_calls += 1
                if bc_calls >= 1000:
                    break
        split_calls = 0
        while split_calls < 1000:
            r = rng.choice((3, 4))
            n = rng.randrange(r + 2, 10)
            universe = list(combinations(range(n), r))
            rng.shuffle(universe)
            H = Hypergraph.from_edges(
                n, universe[: rng.randrange(1, len(universe))], uniformity=r
            )
            k = rng.choice((1, 2, 3))
            out = fd.split_by_codegree(H, k)
            if isinstance(out, fd.DenseCore):
                sub, _ = H.restrict(out.edge_ids)
                assert min(map(len, cover_lists(sub.edges, r - 1).values())) >= k + 1
            else:
                marks = [m for _, m, _ in out.entries]
                assert len(set(marks)) == len(marks)
                assert len(out.entries) * k >= len(H.edges)
            split_calls += 1
        print(
            f"\nACCEPTANCE 9: PASS - {bc_calls} level dichotomies and "
            f"{split_calls} co-degree splits, exactly one variant each, no failures"
        )

    def test_criterion_10_determinism(self, tmp_path):
        script = (
            "import sys; sys.path.insert(0, %r); "
            "from bergelab.cli import main; sys.exit(main(sys.argv[1:]))" % PKG
        )
        hg = tmp_path / "in.hg"
        gen = subprocess.run(
            [sys.executable, "-c", script, "gen", "--family", "steinerTriple",
             "--n", "127", "--seed", "0", "--out", str(hg)],
            capture_output=True,
        )
        assert gen.returncode == 0
        artifacts = []
        for trial in range(2):
            wfile = tmp_path / f"w{trial}.jsonl"
            res = subprocess.run(
                [sys.executable, "-c", script, "find", "--k", "2",
                 "--mode", "linear3", "--input", str(hg),
                 "--emit-witnesses", str(wfile)],
                capture_output=True,
            )
            assert res.returncode == 0
            artifacts.append((res.stdout, wfile.read_bytes(), hg.read_bytes()))
        assert artifacts[0] == artifacts[1]
        print(
            "\nACCEPTANCE 10: PASS - repeated runs produce byte-identical "
            "CSV reports and witness files"
        )
