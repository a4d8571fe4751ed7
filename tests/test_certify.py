from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from bergelab._spectrum import Matcher
from bergelab.certify import BergeCycleWitness, BergePathWitness, verify_cycle, verify_path
from bergelab.hypergraph import Hypergraph


def H3():
    return Hypergraph.from_edges(4, [(0, 1, 2), (0, 1, 3), (1, 2, 3)])


class TestVerifyCycle:
    def test_valid_triangle(self):
        # spine (0,1,2) with edges {0,1,3},{1,2,3},{0,1,2}: hand-checked
        # containments (0,1)⊆013, (1,2)⊆123, (2,0)⊆012.
        H = H3()
        w = BergeCycleWitness((0, 1, 2), (1, 2, 0))
        assert verify_cycle(H, w)

    def test_needs_distinct_edges(self):
        H = Hypergraph.from_edges(3, [(0, 1, 2)])
        w = BergeCycleWitness((0, 1, 2), (0, 0, 0))
        res = verify_cycle(H, w)
        assert not res and res.reason == "EdgesNotDistinct"

    def test_repeated_spine_vertex(self):
        H = H3()
        res = verify_cycle(H, BergeCycleWitness((0, 1, 0), (0, 1, 2)))
        assert not res and res.reason == "SpineNotDistinct"

    def test_containment_violation(self):
        H = H3()
        res = verify_cycle(H, BergeCycleWitness((0, 1, 2), (0, 1, 2)))
        assert not res and res.reason == "ContainmentViolated"

    def test_two_cycle_allowed(self):
        H = Hypergraph.from_edges(4, [(0, 1, 2), (0, 1, 3)])
        assert verify_cycle(H, BergeCycleWitness((0, 1), (0, 1)))

    def test_index_out_of_range(self):
        res = verify_cycle(H3(), BergeCycleWitness((0, 1, 2), (9, 1, 0)))
        assert not res and res.reason == "EdgeIndexOutOfRange"

    def test_length_mismatch(self):
        res = verify_cycle(H3(), BergeCycleWitness((0, 1, 2), (1, 2)))
        assert not res and res.reason == "LengthMismatch"
        assert res.detail == "3 spine vs 2 edges"


class TestVerifyPath:
    def test_valid(self):
        H = H3()
        assert verify_path(H, BergePathWitness((0, 1, 2), (0, 2)))

    def test_length_mismatch(self):
        res = verify_path(H3(), BergePathWitness((0, 1, 2), (0,)))
        assert not res and res.reason == "LengthMismatch"

    def test_too_short(self):
        # one spine vertex and no edge: the lengths agree, but a path needs an edge
        res = verify_path(H3(), BergePathWitness((0,), ()))
        assert not res and res.reason == "TooShort"

    def test_repeated_spine_vertex(self):
        # 0-1-0 over two distinct edges covering (0, 1) would pass every later check
        res = verify_path(H3(), BergePathWitness((0, 1, 0), (0, 1)))
        assert not res and res.reason == "SpineNotDistinct"


_PAIRS = list(combinations(range(5), 2))


@st.composite
def _matcher_script(draw):
    """(covers, ops): covers maps some pairs on 5 vertices to ordered lists
    of distinct edge ids below 6; ops push a pair (covered or not) or pop."""
    covers = {
        p: draw(st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True))
        for p in draw(st.lists(st.sampled_from(_PAIRS), max_size=8, unique=True))
    }
    op = st.one_of(st.sampled_from(_PAIRS), st.none())
    return covers, draw(st.lists(op, max_size=25))


def _matchable(covers, pairs):
    """Brute force: some injective choice of a covering edge per pair."""

    def rec(i, taken):
        if i == len(pairs):
            return True
        return any(rec(i + 1, taken | {e}) for e in covers.get(pairs[i], ()) if e not in taken)

    return rec(0, frozenset())


class TestMatcher:
    """Pushes, direct or by augmenting path, and pops against brute force."""

    @given(_matcher_script())
    @settings(max_examples=300, deadline=None)
    def test_random_push_pop(self, script):
        covers, ops = script
        m = Matcher(covers)
        before: list[tuple] = []  # the state before each push still on the stack
        for pair in ops:
            snap = (list(m.pair_at), list(m.assign), dict(m.owner))
            if pair is None:
                if not before:
                    continue
                m.pop()
                assert (list(m.pair_at), list(m.assign), dict(m.owner)) == before.pop()
            else:
                ok = m.push(pair)
                assert ok == _matchable(covers, snap[0] + [pair])
                if ok:
                    before.append(snap)
                else:
                    assert (list(m.pair_at), list(m.assign), dict(m.owner)) == snap
            assert m.owner == {e: d for d, e in enumerate(m.assign)}
            assert len(m.assign) == len(m.pair_at) == len(before)
            for p, e in zip(m.pair_at, m.assign):
                assert e in covers[p]
