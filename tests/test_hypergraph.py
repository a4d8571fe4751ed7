import gc
import random
import re
import tracemalloc
import weakref
from fractions import Fraction
from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergelab import finder as fd
from bergelab import hypergraph as hg
from bergelab.errors import (
    DuplicateEdge,
    EdgeSizeMismatch,
    MalformedLine,
    PreconditionUnmet,
    VertexOutOfRange,
)
from bergelab.generators import random_linear_r

from naive import naive_bulk_edges, naive_from_edges, naive_parse, naive_serialize

FANO = [
    (0, 1, 2),
    (0, 3, 4),
    (0, 5, 6),
    (1, 3, 5),
    (1, 4, 6),
    (2, 3, 6),
    (2, 4, 5),
]


def fano():
    return hg.Hypergraph.from_edges(7, FANO)


def complete3(n):
    return hg.Hypergraph.from_edges(n, combinations(range(n), 3))


class TestParse:
    def test_basic(self):
        H = hg.parse("3 4 2\n0 1 2\n0 1 3\n")
        assert H.n == 4
        assert H.edges == ((0, 1, 2), (0, 1, 3))
        assert H.uniformity == 3

    def test_duplicate_edge_any_order(self):
        with pytest.raises(DuplicateEdge):
            hg.parse("3 3 2\n0 1 2\n2 1 0\n")

    def test_fano_parses_linear(self):
        text = "3 7 7\n" + "\n".join(" ".join(map(str, e)) for e in FANO) + "\n"
        H = hg.parse(text)
        # independent linearity check: all 21 edge pairs intersect in <= 1 vertex
        for a, b in combinations(H.edges, 2):
            assert len(set(a) & set(b)) <= 1
        assert hg.is_linear(H)

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            hg.parse("3 3 1\n0 1 3\n")

    def test_ragged_uniform(self):
        with pytest.raises(EdgeSizeMismatch):
            hg.parse("3 5 1\n0 1 2 3\n")

    def test_malformed(self):
        with pytest.raises(MalformedLine):
            hg.parse("3 3\n")
        with pytest.raises(MalformedLine):
            hg.parse("3 3 1\n0 x 2\n")
        with pytest.raises(MalformedLine):
            hg.parse("3 3 2\n0 1 2\n")

    def test_non_uniform(self):
        H = hg.parse("0 5 2\n0 1\n0 1 2 3\n")
        assert H.uniformity is None
        assert H.edges == ((0, 1), (0, 1, 2, 3))

    def test_non_uniform_one_vertex_edge(self):
        with pytest.raises(EdgeSizeMismatch, match="fewer than 2 vertices"):
            hg.parse("0 5 2\n0 1\n3\n")

    def test_header_zero_derives_uniformity(self):
        text = "0 7 7\n" + "".join(f"{a} {b} {c}\n" for a, b, c in FANO)
        H = hg.parse(text)
        assert H == hg.Hypergraph.from_edges(7, FANO)
        assert H.uniformity == 3
        assert hg.parse("0 4 0\n").uniformity is None


class TestFromEdges:
    def test_one_shot_edge_iterables(self):
        H = hg.Hypergraph.from_edges(4, [iter((0, 1, 2)), (v for v in (3, 1, 2))])
        assert H == hg.Hypergraph.from_edges(4, [(0, 1, 2), (1, 2, 3)])

    def test_one_shot_repeat_reported(self):
        with pytest.raises(MalformedLine, match=r"edge \(0, 0, 1\) repeats"):
            hg.Hypergraph.from_edges(3, [iter((0, 0, 1))])

    def test_declared_uniformity_rejects_mixed_sizes(self):
        with pytest.raises(EdgeSizeMismatch, match="declared uniformity 3"):
            hg.Hypergraph.from_edges(4, [(0, 1, 2), (0, 3)], uniformity=3)
        assert hg.Hypergraph.from_edges(4, [(0, 1, 2), (0, 3)]).uniformity is None


@st.composite
def _edge_input(draw):
    """(n, edges, uniformity, one_shot): edges of one size r in 0..n-1, in
    any vertex and edge order, then edits that each break one rule: a
    repeated vertex, an edge of size 1, an out-of-range id, a duplicate
    edge, an edge of another size, an empty edge; uniformity is None, r or
    another size;
    one_shot passes edges and each edge as iterators."""
    n = draw(st.integers(0, 9))
    r = draw(st.integers(2, 4))
    universe = list(combinations(range(n), r))
    edges = []
    if universe:
        edges = [list(e) for e in draw(st.lists(st.sampled_from(universe), unique=True))]
    rng = draw(st.randoms())
    for e in edges:
        rng.shuffle(e)
    edits = draw(st.lists(
        st.sampled_from(["repeat", "size1", "range", "duplicate", "mixed", "empty-edge"]),
        max_size=2,
    ))
    for kind in edits:
        at = draw(st.integers(0, len(edges)))
        if kind == "repeat":
            bad = [draw(st.integers(0, max(n - 1, 0)))] * 2 + list(range(r - 2))
        elif kind == "size1":
            bad = [draw(st.integers(-1, n))]
        elif kind == "range":
            bad = list(range(r - 1)) + [draw(st.sampled_from([-1, n, n + 3]))]
        elif kind == "duplicate" and edges:
            bad = list(reversed(draw(st.sampled_from(edges))))
        elif kind == "mixed":
            bad = list(range(min(n, draw(st.sampled_from([2, 3, 5])))))
        else:
            bad = []
        edges.insert(at, bad)
    uniformity = draw(st.sampled_from([None, r, r + 1]))
    return n, edges, uniformity, draw(st.booleans())


def from_edges_outcome(build, n, edges, uniformity, one_shot):
    if one_shot:
        edges = iter([iter(e) for e in edges])
    try:
        return build(n, edges, uniformity)
    except Exception as exc:  # the type and message are the contract
        return type(exc), str(exc)


class TestFromEdgesMatchesPerEdgeLoop:
    """`from_edges` (bulk checks, then the per-edge loop on any anomaly)
    against `naive_from_edges` (the loop alone): the same hypergraph, or the
    same exception type and message naming the same first bad edge."""

    @given(_edge_input())
    @settings(max_examples=400, deadline=None)
    def test_differential(self, case):
        got = from_edges_outcome(hg.Hypergraph.from_edges, *case)
        assert got == from_edges_outcome(naive_from_edges, *case)

    @pytest.mark.parametrize(
        "n,edges,uniformity",
        [
            (5, [], None), (5, [], 3), (0, [], None), (5, [(0, 1, 2), (1, 1, 2)], None),
            (5, [(3,)], None), (5, [()], 2), (5, [(0, 1, 5)], None), (5, [(0, -1, 2)], None),
            (5, [(2, 1, 0), (0, 2, 1)], None), (5, [(0, 1, 2), (0, 3)], 3),
            (5, [(0, 1, 2), (0, 3)], None), (5, [(0, 1), (2, 3)], 3),
            (5, [(0.5, 1, 2)], None), (5, [("a", "b")], None), (5, [(0, "b")], None),
            (5, [(0, 1, 1), ("a", "b", 1)], None), (5, [(True, 1, 2)], None),
        ],
    )
    def test_edge_inputs(self, n, edges, uniformity):
        for one_shot in (False, True):
            case = (n, edges, uniformity, one_shot)
            got = from_edges_outcome(hg.Hypergraph.from_edges, *case)
            assert got == from_edges_outcome(naive_from_edges, *case)

    def test_failing_iterator_after_a_bad_edge(self):
        # the edge read before the iterator fails is reported first, as the
        # per-edge loop reports it
        def edges():
            yield (0, 0, 1)
            raise ValueError("source failed")

        for build in (hg.Hypergraph.from_edges, naive_from_edges):
            with pytest.raises(MalformedLine, match=r"edge \(0, 0, 1\) repeats"):
                build(3, edges())

    def test_combinations(self):
        got = hg.Hypergraph.from_edges(6, combinations(range(6), 3))
        assert got == naive_from_edges(6, combinations(range(6), 3))
        assert got.uniformity == 3


@st.composite
def _bulk_input(draw):
    """`_edge_input`, with every edge given increasing half of the time, so
    that the column read takes both of its paths."""
    n, edges, uniformity, one_shot = draw(_edge_input())
    if draw(st.booleans()):
        edges = [sorted(e) for e in edges]
    return n, edges, uniformity, one_shot


class TestBulkEdgesMatchesSortingCheck:
    """`_bulk_edges` (columns read once, edges sorted only when a column
    does not lie below the next) against `naive_bulk_edges` (every edge
    sorted first), and `from_edges` on either."""

    @given(_bulk_input())
    @settings(max_examples=400, deadline=None)
    def test_differential(self, case):
        n, edges, uniformity, one_shot = case
        raws = [tuple(e) for e in edges]
        got = hg._bulk_edges(n, raws)
        assert got == naive_bulk_edges(n, raws)
        # fresh tuples only: none of the caller's edge objects is kept
        given_ids = set(map(id, raws))
        assert not any(id(e) in given_ids for e in got or ())
        outcome = from_edges_outcome(hg.Hypergraph.from_edges, *case)
        with mock.patch.object(hg, "_bulk_edges", naive_bulk_edges):
            assert outcome == from_edges_outcome(hg.Hypergraph.from_edges, *case)

    @pytest.mark.parametrize(
        "raws",
        [[(0, 1, 2), (0, 1, 3)], [(0, 1), (1, 2), (0, 2)], [(2, 1, 0)], [(0, 1, 2)] * 2,
         [(0, 1, 2), (0.5, 1, 2)], [(0, 1, 9)], [(-1, 0, 1)], [(0, 0, 1)], [(0, "a")]],
    )
    def test_edge_inputs(self, raws):
        got = hg._bulk_edges(5, raws)
        assert got == naive_bulk_edges(5, raws)
        for e in got or ():
            assert all(e is not raw for raw in raws)


def random_hypergraph(rng, kind):
    """A random canonical hypergraph: "uniform" (r = 2..5), "mixed" (sizes
    2..4, so usually r = 0), "no-edges" (m = 0) or "no-vertices" (n = 0)."""
    if kind == "no-vertices":
        return hg.Hypergraph(0, (), rng.choice((None, 2, 3)))
    n = rng.randrange(5, 12)
    sizes = [rng.randrange(2, 6)] if kind in ("uniform", "no-edges") else [2, 3, 4]
    if kind == "no-edges":
        return hg.Hypergraph.from_edges(n, [], uniformity=sizes[0])
    universe = [s for size in sizes for s in combinations(range(n), size)]
    m = min(len(universe), rng.randrange(1, 16))
    return hg.Hypergraph.from_edges(n, rng.sample(universe, m))


KINDS = ("uniform", "mixed", "no-edges", "no-vertices")


class TestSerialize:
    def test_round_trip_examples(self):
        for H in (fano(), complete3(5), hg.parse("0 5 2\n0 1\n0 1 2 3\n")):
            assert hg.parse(hg.serialize(H)) == H

    def test_exact_bytes(self):
        H = hg.Hypergraph.from_edges(4, [(0, 1, 3), (0, 1, 2)])
        assert hg.serialize(H) == "3 4 2\n0 1 2\n0 1 3\n"

    @given(st.integers(3, 7), st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, n, triples):
        edges = {tuple(sorted(t)) for t in triples if len(set(t)) == 3 and max(t) < n}
        H = hg.Hypergraph.from_edges(n, sorted(edges))
        assert hg.parse(hg.serialize(H)) == H

    @given(st.integers(0, 10**6), st.sampled_from(KINDS))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_kinds(self, seed, kind):
        H = random_hypergraph(random.Random(seed), kind)
        assert hg.parse(hg.serialize(H)) == H

    @given(st.integers(0, 10**6), st.sampled_from(KINDS))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_edge_writer(self, seed, kind):
        H = random_hypergraph(random.Random(seed), kind)
        assert hg.serialize(H) == naive_serialize(H)

    @given(st.integers(0, 10**6), st.sampled_from(("uniform", "no-edges")))
    @settings(max_examples=60, deadline=None)
    def test_canonical_read_in_bulk(self, seed, kind):
        H = random_hypergraph(random.Random(seed), kind)
        with mock.patch.object(hg, "_parse_lines", side_effect=AssertionError("per-line")):
            assert hg.parse(hg.serialize(H)) == H

    def test_canonical_read_shares_vertex_ids(self):
        # ids above 256 are not interpreter-cached ints: the bulk reader hands
        # every edge through a vertex the same int object for it
        H, _ = random_linear_r(900, 3, 2000, seed=4)
        with mock.patch.object(hg, "_parse_lines", side_effect=AssertionError("per-line")):
            G = hg.parse(hg.serialize(H))
        assert G == H
        first: dict[int, int] = {}
        for e in G.edges:
            for v in e:
                assert first.setdefault(v, v) is v
        # ids above 256 recur, so the sharing was put to the test
        assert sum(v > 256 for e in G.edges for v in e) > sum(v > 256 for v in first)

    def test_declared_n_above_the_ids_builds_no_pool(self):
        # a two-line document may declare a million vertices; its bulk read
        # stays as small as the document
        text = "3 1000000 1\n0 1 2\n"
        tracemalloc.start()
        try:
            with mock.patch.object(hg, "_parse_lines", side_effect=AssertionError("per-line")):
                H = hg.parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert H.n == 10**6 and H.edges == ((0, 1, 2),)
        assert peak < 2**20


def parse_outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # the type and message are the contract
        return type(exc), str(exc)


def mutate(rng, text, n):
    """One edit of a serialized document, as a list of lines: the
    anomalies the per-line reader has to accept or name."""
    lines = text.split("\n")
    if len(lines) > 1 and lines[-1] == "":
        lines.pop()
    body = range(1, len(lines))
    kind = rng.choice((
        "blank", "crlf", "tab", "double-space", "out-of-order", "bad-token",
        "negative", "out-of-range", "duplicate-last", "wrong-m", "short-line",
        "long-line", "r0", "leading-zero", "plus", "no-final-newline",
        "odd-whitespace", "leading-space", "r1", "repeated-vertex", "shift-token",
    ))
    head = lines[0].split(" ")

    def edit_token(fn):
        if body:
            i = rng.choice(body)
            toks = lines[i].split(" ")
            j = rng.randrange(len(toks))
            toks[j] = fn(toks[j])
            lines[i] = " ".join(toks)

    if kind == "blank":
        lines.insert(rng.randrange(1, len(lines) + 1), rng.choice(("", "  ", "\t")))
    elif kind == "crlf":
        return "\r\n".join(lines) + "\r\n"
    elif kind in ("tab", "double-space", "odd-whitespace") and body:
        i = rng.choice((0,) + tuple(body))
        odd = rng.choice(("\x0b", "\x1c", "\xa0", "\x85"))
        sep = {"tab": "\t", "double-space": "  "}.get(kind, odd)
        lines[i] = lines[i].replace(" ", sep, 1)
    elif kind == "out-of-order" and body:
        i = rng.choice(body)
        lines[i] = " ".join(lines[i].split(" ")[::-1])
    elif kind == "bad-token":
        edit_token(lambda t: rng.choice(("x", "1.5", "", "٣")))
    elif kind == "negative":
        edit_token(lambda t: "-" + t)
    elif kind == "out-of-range":
        edit_token(lambda t: str(n + rng.randrange(2)))
    elif kind == "duplicate-last" and body:
        lines[-1] = " ".join(lines[1].split(" ")[::-1])
    elif kind == "wrong-m" and len(head) == 3:
        head[2] = str(int(head[2]) + rng.choice((-1, 1)))
    elif kind == "short-line" and body:
        i = rng.choice(body)
        lines[i] = " ".join(lines[i].split(" ")[:-1])
    elif kind == "long-line" and body:
        i = rng.choice(body)
        lines[i] += " " + str(rng.randrange(max(n, 1)))
    elif kind == "r0":
        head[0] = "0"
    elif kind == "leading-zero":
        edit_token(lambda t: "0" + t)
    elif kind == "plus":
        edit_token(lambda t: "+" + t)
    elif kind == "no-final-newline":
        return "\n".join(lines)
    elif kind == "leading-space" and body:
        i = rng.choice(body)
        lines[i] = " " + lines[i]
    elif kind == "r1":
        head[0] = "1"
    elif kind == "repeated-vertex" and body:
        i = rng.choice(body)
        toks = lines[i].split(" ")
        lines[i] = " ".join(toks[:-1] + toks[:1])
    elif kind == "shift-token" and len(lines) > 2:
        # a token moves to the next line: the token count still matches
        i = rng.randrange(1, len(lines) - 1)
        toks = lines[i].split(" ")
        lines[i] = " ".join(toks[:-1])
        lines[i + 1] += " " + toks[-1]
    if kind in ("wrong-m", "r0", "r1"):
        lines[0] = " ".join(head)
    return "\n".join(lines) + "\n"


class TestParseMatchesPerLineLoop:
    """`parse` (bulk reader, then per-line fallback) against `naive_parse`
    (the per-line loop alone): the same hypergraph, or the same exception
    type and message, on serialized random hypergraphs and edits of them."""

    @given(st.integers(0, 10**6), st.sampled_from(KINDS), st.integers(0, 3))
    @settings(max_examples=400, deadline=None)
    def test_differential(self, seed, kind, edits):
        rng = random.Random(seed)
        H = random_hypergraph(rng, kind)
        text = hg.serialize(H)
        for _ in range(edits):
            text = mutate(rng, text, H.n)
        got = parse_outcome(hg.parse, text)
        assert got == parse_outcome(naive_parse, text)
        if edits == 0:
            assert got == H

    @pytest.mark.parametrize(
        "text",
        [
            "", "\n", "3 4 1", "3 4 0", "3 4 0\n", "0 4 0\n", "2 0 0\n",
            "3 4 1\n0 1 2", "3 4 1\n0 1 2\n\n", "3 4 1\n0 1 2\r\n",
            "3 4 1\n00 1 2\n", "3 4 1\n0 01 2\n", "+3 4 1\n0 1 2\n", "3 +4 1\n0 1 2\n",
            "3 4 1\n0 1 4\n", "3 4 1\n0 1 3 \n", "3 4 1\n 0 1 3\n", "3 4 2\n0 1 2\n0 1 2\n",
            "3 4 2\n0 1 3\n0 1 2\n", "3 4 1\n0 1\n", "3 4 1\n0 1 2 3\n",
            "3 4 1\n0 1 1\n", "3 4 1\n0  1 2\n", "3 4 1\n0 1\x1c2\n", "3 4 1\x1c0 1 2\n",
            "3 4 1\n0 1 2\n5\n", "3\x1c 4 1\n0 1 2\n", "1 4 1\n0 1\n", "3 4 -1\n",
            "3 4 1\n٠ 1 2\n", "3 4 1\n0 1 2" + "0" * 5000 + "\n", "9" * 30 + " 4 0\n",
            "2 3 3\n0 1\n0 2\n1 2\n", "4 6 2\n0 1 2 3\n2 3 4 5\n",
            "3 6 2\n0 1 2 3\n4 5\n", "3 6 2\n0 1\n2 3 4 5\n", "3 4 1\n0 1 2\n5",
            "3 4 1\n0 1 2\n55", "3 4 1\n0 1 2\n\n55",
        ],
    )
    def test_edge_documents(self, text):
        assert parse_outcome(hg.parse, text) == parse_outcome(naive_parse, text)


def degrees(H):
    return tuple(map(len, hg.incidence(H)))


class TestProfile:
    """Degrees (from `incidence`), average degree and linearity."""

    def test_complete_3_graph_on_5(self):
        H = complete3(5)
        assert degrees(H) == (6,) * 5
        assert hg.average_degree(H) == Fraction(6)
        assert not hg.is_linear(H)

    def test_fano(self):
        H = fano()
        assert degrees(H) == (3,) * 7
        assert hg.is_linear(H)

    def test_single_edge(self):
        H = hg.Hypergraph.from_edges(3, [(0, 1, 2)])
        assert hg.average_degree(H) == Fraction(1)
        assert min(degrees(H)) == 1
        assert hg.is_linear(H)


def edge_size_average(H):
    return Fraction(sum(len(e) for e in H.edges), H.n) if H.n else Fraction(0)


class TestAverageDegree:
    @given(st.integers(0, 10**6), st.sampled_from(("uniform", "mixed", "empty")))
    @settings(max_examples=120, deadline=None)
    def test_matches_edge_sizes(self, seed, kind):
        rng = random.Random(seed)
        n = rng.randrange(0, 4) if kind == "empty" else rng.randrange(5, 11)
        sizes = {"uniform": [rng.randrange(2, 5)], "mixed": [2, 3, 4], "empty": []}[kind]
        universe = [s for size in sizes for s in combinations(range(n), size)]
        edges = rng.sample(universe, rng.randrange(1, min(len(universe), 30))) if universe else []
        H = hg.Hypergraph.from_edges(n, edges)
        header = H.uniformity if H.uniformity is not None and rng.random() < 0.5 else 0
        body = "".join(" ".join(map(str, rng.sample(e, len(e)))) + "\n" for e in edges)
        parsed = hg.parse(f"{header} {n} {len(edges)}\n{body}")
        keep = [i for i in range(len(H.edges)) if rng.random() < 0.5]
        sub, _ = H.restrict(keep)
        assert (H.uniformity is None) == (len({len(e) for e in edges}) != 1)
        for G in (H, parsed, sub):
            assert hg.average_degree(G) == edge_size_average(G)

    def test_empty_view_keeps_uniformity(self):
        sub, _ = fano().restrict([])
        assert sub.uniformity == 3 and not sub.edges
        assert hg.average_degree(sub) == 0
        assert hg.average_degree(hg.Hypergraph(0, (), 3)) == 0

    @given(st.integers(0, 10**6), st.integers(4, 5))
    @settings(max_examples=30, deadline=None)
    def test_linear_prefix_graph(self, seed, r):
        rng = random.Random(seed)
        n = rng.randrange(r + 2, 40)
        H, _ = random_linear_r(n, r, rng.randrange(1, 3 * n), seed=seed)
        with mock.patch.object(fd, "skeleton_sweep", wraps=fd.skeleton_sweep) as sweep:
            fd.find_linear_r(H, 1)
        H3 = sweep.call_args.args[0]
        assert H3.uniformity == 3 and len(H3.edges) == len(H.edges)
        assert hg.average_degree(H3) == edge_size_average(H3)
        assert hg.average_degree(H) == edge_size_average(H)


class TestIsLinear:
    @given(st.integers(3, 8), st.sets(st.lists(st.integers(0, 7), min_size=2, max_size=4)
                                      .map(lambda e: tuple(sorted(set(e)))), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_matches_pair_cover_definition(self, n, edges):
        edges = {e for e in edges if len(e) >= 2 and e[-1] < n}
        H = hg.Hypergraph.from_edges(n, sorted(edges))
        want = all(len(ids) <= 1 for ids in hg.cover_lists(H.edges, 2).values())
        assert hg.is_linear(H) is want

    @given(
        st.integers(0, 10**6),
        st.integers(3, 5),
        st.sampled_from(("random", "linear", "near-linear", "general3", "prefix")),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_all_pairs(self, seed, r, kind):
        rng = random.Random(seed)
        n = rng.randrange(r + 2, 30)
        if kind == "random":
            universe = list(combinations(range(min(n, 9)), r))
            m = rng.randrange(1, min(12, len(universe) + 1))
            H = hg.Hypergraph.from_edges(n, rng.sample(universe, m))
        else:
            H, _ = random_linear_r(n, r, rng.randrange(1, 3 * n), seed=seed)
        if kind == "near-linear" and H.edges:
            # one more edge, sorted last, through a pair of the last edge and
            # fresh vertices: the scan meets the shared pair at the very end
            last = H.edges[-1]
            H = hg.Hypergraph.from_edges(
                n + r - 2, H.edges + (last[:2] + tuple(range(n, n + r - 2)),)
            )
        if kind == "general3":
            r = 3
            H, _ = random_linear_r(n, 3, rng.randrange(1, 3 * n), seed=seed)
            if rng.random() < 0.5 and len(H.edges) > 1:  # a shared pair
                a, b, _ = H.edges[0]
                H = hg.Hypergraph.from_edges(n + 1, H.edges + ((a, b, n),))
            fd.find_general_3(H, rng.randrange(1, 4))
            assert H._linear is not None  # recorded by the route's first check
        if kind == "prefix":
            with mock.patch.object(fd, "skeleton_sweep", wraps=fd.skeleton_sweep) as sweep:
                fd.find_linear_r(H, 1)
            H = sweep.call_args.args[0]  # the 3-prefix graph, linear by construction
            assert H._linear is not None
        want = all(len(set(a) & set(b)) <= 1 for a, b in combinations(H.edges, 2))
        fresh = hg.Hypergraph(H.n, H.edges, H.uniformity)
        assert hg.is_linear(H) is want
        assert hg.is_linear(fresh) is want
        if kind == "near-linear" and H.edges:
            assert not want

    def test_pair_bitmap_boundary(self, monkeypatch):
        # The 3-graph scan marks pairs in a byte per possible pair when
        # n*n <= 16m and keeps a set of pair keys otherwise. Draws with m just
        # below, at and just above n*n / 16, linear or with one pair shared,
        # agree with the tuple-pair scan on both sides, and each scan runs.
        bitmaps = []

        def spy(size):
            bitmaps.append(size)
            return bytearray(size)

        monkeypatch.setattr(hg, "bytearray", spy, raising=False)
        seen = set()
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randrange(7, 40)
            m = -(-n * n // 16) + rng.randint(-2, 2)
            edges = list(random_linear_r(n, 3, m, seed=seed)[0].edges)
            if rng.random() < 0.5 and len(edges) >= 2:
                # a new edge through a pair of one edge in place of another
                i, j = rng.sample(range(len(edges)), 2)
                a, b = rng.sample(edges[i], 2)
                c = rng.choice([v for v in range(n) if v not in edges[i]])
                if tuple(sorted((a, b, c))) not in edges:
                    edges[j] = tuple(sorted((a, b, c)))
            H = hg.Hypergraph.from_edges(n, edges, uniformity=3)
            before = len(bitmaps)
            linear = hg.is_linear(H)
            assert linear is hg.no_pair_twice(H.edges)
            used_bitmap = len(bitmaps) > before
            assert used_bitmap is (n * n <= 16 * len(H.edges))
            if used_bitmap:
                assert bitmaps[-1] == n * n
            seen.add((used_bitmap, linear))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_prefix_3graph(self):
        H4 = hg.Hypergraph.from_edges(9, [(0, 1, 2, 3), (0, 4, 5, 6), (1, 4, 7, 8)])
        H3 = hg.prefix_3graph(H4)
        assert H3.edges == ((0, 1, 2), (0, 4, 5), (1, 4, 7)) and H3.uniformity == 3
        assert H3._linear is True and H3.n == 9
        G = fano()
        assert hg.prefix_3graph(G) is G
        for bad in (complete3(4), hg.Hypergraph.from_edges(6, combinations(range(6), 4))):
            with pytest.raises(PreconditionUnmet):
                hg.prefix_3graph(bad)
        with pytest.raises(PreconditionUnmet):
            hg.prefix_3graph(hg.Hypergraph.from_edges(4, [(0, 1), (1, 2, 3)]))

    def test_builds_no_pair_index(self, monkeypatch):
        def fail(*args):
            pytest.fail("built a pair index")

        monkeypatch.setattr(hg, "cover_lists", fail)
        monkeypatch.setattr(hg, "pair_covers", fail)
        H, K = fano(), complete3(5)
        assert hg.is_linear(H) and not hg.is_linear(K)
        assert hg.incidence(H)[0] == (0, 1, 2)
        assert hg.average_degree(H) == 3 and hg.average_degree(K) == 6

    def test_scanned_once_per_instance(self, monkeypatch):
        H = fano()
        assert hg.is_linear(H)
        monkeypatch.setattr(hg, "no_pair_twice", lambda edges: pytest.fail("rescanned"))
        assert hg.is_linear(H)


class TestShadow:
    """The k-shadow as cover_lists and pair_covers build it."""

    def test_single_edge(self):
        cov = hg.pair_covers(hg.Hypergraph.from_edges(3, [(0, 1, 2)]))
        assert list(cov) == [(0, 1), (0, 2), (1, 2)]
        assert list(cov.values()) == [(0,), (0,), (0,)]

    def test_codegree_two(self):
        cov = hg.pair_covers(hg.Hypergraph.from_edges(4, [(0, 1, 2), (0, 1, 3)]))
        assert cov[(0, 1)] == (0, 1)

    def test_fano_all_pairs_once(self):
        cov = hg.pair_covers(fano())
        assert len(cov) == 21
        assert all(len(c) == 1 for c in cov.values())

    @given(st.integers(4, 7), st.integers(1, 2), st.sets(st.integers(0, 34), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_cover_count_identity(self, n, k, idxs):
        universe = list(combinations(range(n), 3))
        edges = [universe[i % len(universe)] for i in sorted(idxs)]
        H = hg.Hypergraph.from_edges(n, set(edges))
        if not H.edges:
            return
        cov = hg.cover_lists(H.edges, k)
        assert sum(len(c) for c in cov.values()) == len(H.edges) * comb(3, k)


class TestCoverLists:
    def test_positions_in_edge_order(self):
        cov = hg.cover_lists([(0, 1, 2), (0, 1, 3), (1, 3)], 2)
        assert cov == {(0, 1): [0, 1], (0, 2): [0], (1, 2): [0], (0, 3): [1], (1, 3): [1, 2]}
        assert list(cov) == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]

    def test_vertices(self):
        assert hg.cover_lists([(0, 2), (1, 2)], 1) == {(0,): [0], (2,): [0, 1], (1,): [1]}


def naive_peel(edges, threshold):
    """Delete any vertex of degree below threshold until none is left;
    `edges` maps edge ids to edges."""
    alive = set(edges)
    while True:
        deg = {}
        for i in alive:
            for v in edges[i]:
                deg[v] = deg.get(v, 0) + 1
        low = [v for v, d in deg.items() if d < threshold]
        if not low:
            return deg, sorted(alive)
        alive = {i for i in alive if low[-1] not in edges[i]}


class TestPeel:
    @given(st.sets(st.integers(0, 34), min_size=1, max_size=20), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_fixed_point(self, idxs, rnd):
        universe = list(combinations(range(7), 3))
        H = hg.Hypergraph.from_edges(8, {universe[i] for i in idxs})
        ids = [i for i in range(len(H.edges)) if rnd.random() < 0.8] or [0]
        covered = hg.covered_vertices(H, ids)
        threshold = Fraction(len(ids), len(covered))
        assert hg.peel(H, ids) == naive_peel({i: H.edges[i] for i in ids}, threshold)

    def test_cascade(self):
        # K_5^(3) plus the chain {0,5,6}, {5,6,7} has |E|/|V| = 12/8; deleting 7
        # (degree 1) leaves 5 and 6 at degree 1, which the peel must delete in
        # turn. The edge {2,6,7} lies outside the view.
        core = list(combinations(range(5), 3))
        H = hg.Hypergraph.from_edges(8, core + [(0, 5, 6), (5, 6, 7), (2, 6, 7)])
        ids = [i for i, e in enumerate(H.edges) if e != (2, 6, 7)]
        deg, alive = hg.peel(H, ids)
        assert deg == {v: 6 for v in range(5)}
        assert [H.edges[i] for i in alive] == core
        assert (deg, alive) == naive_peel({i: H.edges[i] for i in ids}, Fraction(12, 8))


class TestDerivedIndex:
    def test_built_once_per_instance(self):
        H = fano()
        assert hg.incidence(H) is hg.incidence(H)

    def test_equal_instance_gets_equal_index(self):
        H, twin = fano(), fano()
        assert H == twin and H is not twin
        inc = hg.incidence(H)
        assert hg.incidence(twin) == inc and hg.incidence(twin) is not inc
        assert hash(H) == hash(twin)

    def test_index_values(self):
        H = hg.Hypergraph.from_edges(4, [(0, 1, 2), (1, 2, 3)])
        assert hg.incidence(H) == ((0,), (0, 1), (0, 1), (1,))
        assert hg.pair_covers(H) == {
            (0, 1): (0,), (0, 2): (0,), (1, 2): (0, 1), (1, 3): (1,), (2, 3): (1,)
        }

    def test_index_does_not_outlive_instance(self):
        # an instance no other test builds, so no equal value is indexed
        H = hg.Hypergraph.from_edges(11, [(0, 4, 9), (1, 4, 10), (2, 3, 10)])
        hg.incidence(H)
        ref = weakref.ref(H)
        del H
        gc.collect()
        assert ref() is None


class TestRestrict:
    def test_subset_reindexed(self):
        H = fano()
        sub, idx = H.restrict([5, 1, 3])
        assert idx == (1, 3, 5)
        assert sub.edges == (FANO[1], FANO[3], FANO[5])
        assert sub.n == 7 and sub.uniformity == 3

    @pytest.mark.parametrize("ids", [range(7), [6, 2, 0, 4, 1, 5, 3]])
    def test_every_edge_is_self(self, ids):
        H = fano()
        hg.incidence(H)
        sub, idx = H.restrict(ids)
        assert sub is H
        assert idx == tuple(range(7))

    def test_repeated_id_rejected(self):
        # as long as the edge list, yet not every edge
        H = hg.Hypergraph.from_edges(5, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])
        with pytest.raises(PreconditionUnmet):
            H.restrict([0, 0, 2])

    @pytest.mark.parametrize("ids", [[-1], [0, -7], [7], [0, 1, 2, 3, 4, 5, 6, 7]])
    def test_out_of_range_rejected(self, ids):
        with pytest.raises(PreconditionUnmet):
            fano().restrict(ids)


class TestArgumentChecks:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            pytest.param(
                lambda: hg.Hypergraph(-1, ()),
                VertexOutOfRange,
                "vertex count must be nonnegative",
                id="negative-n",
            ),
            pytest.param(
                lambda: hg.parse("a b c\n"),
                MalformedLine,
                "non-integer header field in 'a b c'",
                id="header-not-integers",
            ),
        ],
    )
    def test_table(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()
