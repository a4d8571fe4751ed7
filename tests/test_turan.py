from itertools import combinations

import pytest

from bergelab import turan
from bergelab.errors import PreconditionUnmet
from bergelab.hypergraph import profile
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

    def test_ceiling(self):
        with pytest.raises(PreconditionUnmet):
            turan_exhaustive(10, 3, 2)
