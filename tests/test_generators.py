import hashlib
import re
from itertools import combinations

import pytest

from bergelab.cli import main
from bergelab.errors import InvalidParameters
from bergelab.generators import (
    GeneratorSpec,
    complete_bipartite_incidence,
    complete_r,
    generate,
    permuted,
    random_linear_r,
    steiner_triple,
    tight_path_hypergraph,
)
from bergelab.hypergraph import Hypergraph, incidence, is_linear, serialize

from naive import naive_permuted, naive_serialize, naive_steiner_triple


class TestSteiner:
    @pytest.mark.parametrize("n", (7, 9, 13, 15, 19, 21, 25, 27, 31, 33))
    def test_sts_axioms(self, n):
        H = steiner_triple(n)
        assert len(H.edges) == n * (n - 1) // 6
        pairs = {}
        for e in H.edges:
            for p in combinations(e, 2):
                pairs[p] = pairs.get(p, 0) + 1
        assert len(pairs) == n * (n - 1) // 2
        assert set(pairs.values()) == {1}
        assert is_linear(H)
        assert set(map(len, incidence(H))) == {(n - 1) // 2}

    def test_fano(self):
        assert len(steiner_triple(7).edges) == 7

    @pytest.mark.parametrize("n", (8, 11, 6, 5, 1, 0, -3, -5))
    def test_invalid(self, n):
        message = f"Steiner triple systems need n >= 3 with n = 1 or 3 mod 6, got {n}"
        with pytest.raises(InvalidParameters) as info:
            steiner_triple(n)
        assert str(info.value) == message

    def test_smallest(self):
        assert steiner_triple(3).edges == ((0, 1, 2),)


STS_ORDERS = [n for n in range(3, 202) if n % 6 in (1, 3)]


class TestBulkConstructionParity:
    """The Latin-square loop and the plain-constructor relabelling against
    the per-triple sorted constructions and `from_edges` relabelling they
    replaced: the same hypergraph and the same bytes."""

    def test_steiner_triple(self):
        for n in STS_ORDERS:
            H, ref = steiner_triple(n), naive_steiner_triple(n)
            assert H == ref and H.uniformity == 3
            assert serialize(H) == naive_serialize(ref)

    def test_triples_given_increasing(self, monkeypatch):
        # so that `from_edges` builds the edges from its columns, sorting none
        given = []
        build = Hypergraph.from_edges

        def spy(n, edges, uniformity=None):
            given.extend(edges)
            return build(n, given, uniformity)

        monkeypatch.setattr(Hypergraph, "from_edges", staticmethod(spy))
        for n in (3, 7, 9, 13, 15, 19, 21, 25, 27):
            given.clear()
            steiner_triple(n)
            assert given and all(a < b < c for a, b, c in given)

    @pytest.mark.parametrize("seed", (0, 1, 7, 1003))
    def test_permuted(self, seed):
        instances = [steiner_triple(n) for n in (3, 7, 9, 127, 133)] + [
            random_linear_r(60, 4, 120, 1002)[0],
            complete_bipartite_incidence(3, 5),
            complete_r(6, 3).restrict(range(7))[0],
            Hypergraph.from_edges(6, [(0, 1), (2, 3, 4), (1, 5)]),
            Hypergraph(0, ()),
        ]
        for H in instances:
            P, ref = permuted(H, seed), naive_permuted(H, seed)
            assert P == ref and P.uniformity == ref.uniformity
            assert serialize(P) == naive_serialize(ref)


# SHA-256 of `bergelab gen` output for the instances the CI witness pins are
# built from, taken from the per-triple constructions and per-edge writer
GEN_DIGESTS = [
    (["--family", "steinerTriple", "--n", "255"],
     "7c528c448c6eecb4378004e439842045f8fd07c539cafb182b5648fae5eb1b72"),
    (["--family", "steinerTriple", "--n", "381"],
     "7b91035b6c6770c66f94c187bfe7d81cdc32eda64341c0b0f19c6bb9d13c1673"),
    (["--family", "steinerTriple", "--n", "769"],
     "979c10d336a1e5f836c98e87edf016d402201562a4bc016fa732cfd6ad564fe5"),
    (["--family", "randomLinearR", "--n", "180", "--r", "4", "--m", "1300", "--seed", "1006"],
     "3b5c35dca07d544512c3ea4ee9f7ea65841739829181eba216dc48d63a4ee3dd"),
]


@pytest.mark.parametrize("argv,digest", GEN_DIGESTS, ids=[" ".join(a[1::2]) for a, _ in GEN_DIGESTS])
def test_gen_bytes_pinned(capsys, argv, digest):
    assert main(["gen"] + argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestOthers:
    def test_complete(self):
        assert len(complete_r(5, 3).edges) == 10

    def test_tight_path(self):
        H = tight_path_hypergraph(5, 3)
        assert H.n == 7
        assert len(H.edges) == 5

    def test_bipartite(self):
        H = complete_bipartite_incidence(3, 4)
        assert H.uniformity == 2
        assert len(H.edges) == 12

    @pytest.mark.parametrize("a, b", [(0, 3), (3, 0)])
    def test_bipartite_empty_side(self, a, b):
        with pytest.raises(InvalidParameters, match="^both sides must be nonempty$"):
            complete_bipartite_incidence(a, b)

    @pytest.mark.parametrize(
        "make, args, message",
        [
            (complete_r, (2, 3), "complete_r needs n >= r >= 2, got n=2 r=3"),
            (complete_r, (5, 1), "complete_r needs n >= r >= 2, got n=5 r=1"),
            (tight_path_hypergraph, (0, 3), "tight path needs m >= 1, r >= 2"),
            (tight_path_hypergraph, (3, 1), "tight path needs m >= 1, r >= 2"),
            (random_linear_r, (3, 4, 1), "need n >= r >= 2 and m >= 0"),
            (random_linear_r, (5, 3, -1), "need n >= r >= 2 and m >= 0"),
            (random_linear_r, (5, 1, 2), "need n >= r >= 2 and m >= 0"),
        ],
        ids=[
            "complete-n-below-r",
            "complete-r-1",
            "tight-m-0",
            "tight-r-1",
            "linear-n-below-r",
            "linear-m-negative",
            "linear-r-1",
        ],
    )
    def test_parameter_checks(self, make, args, message):
        with pytest.raises(InvalidParameters, match=f"^{re.escape(message)}$"):
            make(*args)

    def test_random_linear_deterministic(self):
        a, ga = random_linear_r(20, 3, 25, seed=5)
        b, gb = random_linear_r(20, 3, 25, seed=5)
        assert a == b and ga == gb
        assert is_linear(a)

    def test_random_linear_shortfall_reported(self):
        H, got = random_linear_r(7, 3, 100, seed=0)
        assert got < 100
        assert got == len(H.edges)

    def test_generate_dispatch(self):
        H = generate(GeneratorSpec("completeR", {"n": 5, "r": 3}))
        assert len(H.edges) == 10
        with pytest.raises(InvalidParameters):
            generate(GeneratorSpec("nope", {}))

    def test_permuted_preserves_structure(self):
        H = steiner_triple(13)
        P = permuted(H, 3)
        assert len(P.edges) == len(H.edges)
        assert is_linear(P)
