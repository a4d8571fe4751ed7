import random

import pytest

from bergelab.errors import NotLinear, PreconditionUnmet
from bergelab.generators import complete_r, permuted, steiner_triple
from bergelab.hypergraph import Hypergraph
from bergelab.lengthcontrol import LevelGrowthReport, length_controlled_search, threshold_met
from bergelab.certify import verify_cycle


class TestThreshold:
    def test_exact_comparison(self):
        # 18k n^(1+1/h) + 42k n is far beyond any linear 3-graph at desk
        # scale: n(n-1)/6 < 18k n^1.5 up to n ~ 4.7e4 for k=2, h=2
        for n in (7, 127, 169):
            H = steiner_triple(n)
            assert not threshold_met(H, 2, 2)
            assert not threshold_met(H, 2, 3)

    def test_threshold_algebra(self):
        # fabricated counts drive the integer comparison both ways
        H = Hypergraph.from_edges(4, [(0, 1, 2)])
        assert not threshold_met(H, 2, 2)


class TestSearch:
    @pytest.mark.parametrize("h", (2, 3))
    @pytest.mark.parametrize("seed", range(3))
    def test_machinery_engages_on_sts(self, h, seed):
        H = permuted(steiner_triple(127), seed)
        run, report = length_controlled_search(H, 2, h)
        assert report.threshold_met is False
        if run is not None:
            lens = run.lengths()
            assert lens[0] <= 2 * h
            for w in run.cycles:
                assert verify_cycle(H, w)

    def test_report_fields(self):
        H = steiner_triple(43)
        run, report = length_controlled_search(H, 2, 3)
        assert report.n == 43
        assert report.edge_count == 301
        assert report.core_min_degree >= report.edge_count // report.n
        for lv in report.levels:
            assert lv.level >= 1
            if not lv.certified:
                break

    def test_not_linear(self):
        with pytest.raises(NotLinear):
            length_controlled_search(complete_r(6, 3), 2, 2)

    def test_small_k_h(self):
        H = steiner_triple(7)
        with pytest.raises(PreconditionUnmet):
            length_controlled_search(H, 1, 2)
        with pytest.raises(PreconditionUnmet):
            length_controlled_search(H, 2, 1)

    def test_no_edges(self):
        H = Hypergraph.from_edges(9, [], 3)
        assert length_controlled_search(H, 2, 2) == (
            None,
            LevelGrowthReport(9, 0, 2, 2, False, 0, ()),
        )

    def test_not_a_3_graph(self):
        with pytest.raises(PreconditionUnmet, match="^need a 3-graph$"):
            length_controlled_search(complete_r(5, 4), 2, 2)


def sts769_down_to(seed, *counts):
    """A relabelled STS(769) with seeded edges deleted down to each count:
    the first m edges of one seeded order. Deleting edges keeps it linear."""
    H = permuted(steiner_triple(769), seed)
    order = random.Random(seed).sample(range(len(H.edges)), len(H.edges))
    return [H.restrict(order[:m])[0] for m in counts]


class TestAtTheHypothesis:
    """At n = 769, k = 2 and h = 34, the least edge count with
    |H| >= 18k n^(1+1/h) + 42k n is 98,256: STS(769) (98,432 edges) minus
    176. One edge fewer misses it, so the threshold is pinned on both sides,
    and the search above it must return a run with shortest length <= 2h."""

    K, HH, LEAST = 2, 34, 98_256

    def test_least_count(self):
        # the integer comparison, straight from the statement
        n, k, h = 769, self.K, self.HH

        def met(m):
            return m >= 42 * k * n and (m - 42 * k * n) ** h >= (18 * k) ** h * n ** (h + 1)

        assert met(self.LEAST) and not met(self.LEAST - 1)
        assert 769 * 768 // 6 - self.LEAST == 176

    @pytest.mark.parametrize("seed", range(3))
    def test_threshold_both_sides(self, seed):
        at, below = sts769_down_to(seed, self.LEAST, self.LEAST - 1)
        assert threshold_met(at, self.K, self.HH)
        assert not threshold_met(below, self.K, self.HH)

    @pytest.mark.parametrize("seed", range(3))
    def test_run_at_least_count(self, seed):
        (H,) = sts769_down_to(seed, self.LEAST)
        run, report = length_controlled_search(H, self.K, self.HH)
        assert report.threshold_met and report.edge_count == self.LEAST
        assert run is not None and run.lengths()[0] <= 2 * self.HH
        for w in run.cycles:
            assert verify_cycle(H, w)
