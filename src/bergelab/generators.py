"""Instance generators: complete r-graphs, Steiner triple systems (Bose and
Skolem constructions), seeded random linear r-graphs, tight paths, and
complete bipartite incidence graphs.

All randomness is driven by an explicit seed; identical seeds give
identical instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

from .errors import InvalidParameters
from .hypergraph import Hypergraph


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    params: dict = field(default_factory=dict)


# family -> (required parameters, builder)
_FAMILIES = {
    "completeR": (("n", "r"), lambda p: complete_r(p["n"], p["r"])),
    "steinerTriple": (("n",), lambda p: steiner_triple(p["n"])),
    "randomLinearR": (
        ("n", "r", "m"),
        lambda p: random_linear_r(p["n"], p["r"], p["m"], p.get("seed", 0))[0],
    ),
    "tightPath": (("m", "r"), lambda p: tight_path_hypergraph(p["m"], p["r"])),
    "bipartiteIncidence": (("a", "b"), lambda p: complete_bipartite_incidence(p["a"], p["b"])),
}


def check_params(spec: GeneratorSpec) -> None:
    """Raise InvalidParameters for an unknown family or a missing parameter."""
    if spec.family not in _FAMILIES:
        raise InvalidParameters(f"unknown family {spec.family!r}")
    missing = [k for k in _FAMILIES[spec.family][0] if spec.params.get(k) is None]
    if missing:
        raise InvalidParameters(f"family {spec.family} needs parameter(s) {', '.join(missing)}")


def generate(spec: GeneratorSpec) -> Hypergraph:
    check_params(spec)
    return _FAMILIES[spec.family][1](spec.params)


def complete_r(n: int, r: int) -> Hypergraph:
    if r < 2 or n < r:
        raise InvalidParameters(f"complete_r needs n >= r >= 2, got n={n} r={r}")
    return Hypergraph.from_edges(n, combinations(range(n), r))


def tight_path_hypergraph(m: int, r: int) -> Hypergraph:
    """Tight path with m edges: all r-windows of 0..m+r-2."""
    if m < 1 or r < 2:
        raise InvalidParameters("tight path needs m >= 1, r >= 2")
    n = m + r - 1
    return Hypergraph.from_edges(n, [tuple(range(i, i + r)) for i in range(m)])


def complete_bipartite_incidence(a: int, b: int) -> Hypergraph:
    """K_{a,b} as a 2-uniform hypergraph; left part is 0..a-1."""
    if a < 1 or b < 1:
        raise InvalidParameters("both sides must be nonempty")
    return Hypergraph.from_edges(
        a + b, [(i, a + j) for i in range(a) for j in range(b)]
    )


# ---------------------------------------------------------------------------
# Steiner triple systems


def steiner_triple(n: int) -> Hypergraph:
    """STS(n) via Bose (n = 6t+3) or Skolem (n = 6t+1)."""
    if n < 3 or n % 6 not in (1, 3):
        raise InvalidParameters(
            f"Steiner triple systems need n >= 3 with n = 1 or 3 mod 6, got {n}"
        )
    return _bose(n) if n % 6 == 3 else _skolem(n)


def _bose(n: int) -> Hypergraph:
    # x*y = (x+y)/2 mod q, the idempotent commutative quasigroup of odd order q
    q = n // 3
    inv2 = (q + 1) // 2  # 2 * inv2 = 1 (mod q)
    triples = [(3 * x, 3 * x + 1, 3 * x + 2) for x in range(q)]
    triples += _latin_triples(q, [s * inv2 % q for s in range(q)])
    return Hypergraph.from_edges(n, triples)


def _skolem(n: int) -> Hypergraph:
    # x*y = g((x+y) mod 2t) with g(2j) = j and g(2j+1) = t+j: commutative,
    # and half-idempotent (x*x = (t+x)*(t+x) = x for x < t)
    t = (n - 1) // 6
    q = 2 * t
    g = [s // 2 + (s % 2) * t for s in range(q)]
    # every row of the quasigroup is g after a cyclic shift
    assert sorted(g) == list(range(q))
    infinity = n - 1
    triples = [(3 * x, 3 * x + 1, 3 * x + 2) for x in range(t)]
    for x in range(t):  # the triples through infinity, pairing x with t + x
        u, w = 3 * x, 3 * (t + x)
        triples += ((u + 1, w, infinity), (u + 2, w + 1, infinity), (u, w + 2, infinity))
    triples += _latin_triples(q, g)
    return Hypergraph.from_edges(n, triples)


def _latin_triples(q: int, g: list[int]) -> list[tuple[int, int, int]]:
    """For j = 0, 1, 2 and x < y < q, the triple {3x+j, 3y+j, 3z+j'} with
    z = g[(x+y) mod q] and j' = j+1 mod 3, each in increasing order:
    3x+j < 3y+j, so only the third vertex needs placing."""
    triples: list[tuple[int, int, int]] = []
    for j in range(3):
        zs = [3 * z + (j + 1) % 3 for z in g] * 2  # read at x + y < 2q
        for x in range(q):
            a = 3 * x + j
            triples += [
                (c, a, b) if c < a else (a, c, b) if c < b else (a, b, c)
                for b, c in zip(range(a + 3, 3 * q, 3), zs[2 * x + 1 : x + q])
            ]
    return triples


# ---------------------------------------------------------------------------
# random linear r-graphs


def random_linear_r(n: int, r: int, m: int, seed: int = 0) -> tuple[Hypergraph, int]:
    """Seeded greedy pair-exclusion. Returns (H, achieved edge count);
    the count may fall short of m (partial Steiner systems cannot always
    be completed), which callers report rather than treat as an error."""
    if r < 2 or n < r or m < 0:
        raise InvalidParameters("need n >= r >= 2 and m >= 0")
    rng = random.Random(seed)
    used_pairs: set[int] = set()  # pair (a, b) with a < b is the key a*n+b
    edges: list[tuple[int, ...]] = []
    tries = 0
    while len(edges) < m and tries < 200 * m + 2000:
        tries += 1
        e = tuple(sorted(rng.sample(range(n), r)))
        pairs = [a * n + b for a, b in combinations(e, 2)]
        if used_pairs.isdisjoint(pairs):
            used_pairs.update(pairs)
            edges.append(e)
    return Hypergraph.from_edges(n, edges, uniformity=r), len(edges)


def permuted(H: Hypergraph, seed: int) -> Hypergraph:
    """Relabel vertices by a seeded permutation (canonical edge order kept).
    A bijection keeps every edge of a valid H valid and distinct, so the
    relabelled edges need only sorting, not `from_edges`' checks."""
    rng = random.Random(seed)
    perm = list(range(H.n))
    rng.shuffle(perm)
    relabel = perm.__getitem__
    edges = sorted([tuple(sorted(map(relabel, e))) for e in H.edges])
    return Hypergraph(H.n, tuple(edges), H.uniformity)
