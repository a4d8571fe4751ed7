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
