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
    if n % 6 == 3:
        return _bose(n)
    if n % 6 == 1 and n >= 7:
        return _skolem(n)
    raise InvalidParameters(f"Steiner triple systems need n = 1 or 3 mod 6, got {n}")


def _bose(n: int) -> Hypergraph:
    t = (n - 3) // 6
    q = 2 * t + 1
    inv2 = (t + 1) % q  # 2 * (t+1) = 2t+2 = 1 (mod q)

    def vid(x: int, j: int) -> int:
        return 3 * x + j

    triples = [tuple(sorted((vid(x, 0), vid(x, 1), vid(x, 2)))) for x in range(q)]
    for j in range(3):
        for x in range(q):
            for y in range(x + 1, q):
                z = ((x + y) * inv2) % q
                triples.append(
                    tuple(sorted((vid(x, j), vid(y, j), vid(z, (j + 1) % 3))))
                )
    return Hypergraph.from_edges(n, triples)


def _half_idempotent_quasigroup(order: int) -> list[list[int]]:
    """Commutative half-idempotent quasigroup on 0..order-1 (order = 2t):
    x*y = g((x+y) mod 2t) with g(2j) = j and g(2j+1) = t+j. g is a
    bijection, so each row is a permutation; g(2i mod 2t) gives the
    half-idempotent diagonal i, .., t-1, 0, .., t-1."""
    t = order // 2

    def g(s: int) -> int:
        return s // 2 if s % 2 == 0 else t + (s - 1) // 2

    table = [[g((x + y) % order) for y in range(order)] for x in range(order)]
    for row in table:
        assert sorted(row) == list(range(order))
    return table


def _skolem(n: int) -> Hypergraph:
    t = (n - 1) // 6
    q = 2 * t
    qg = _half_idempotent_quasigroup(q)
    infinity = n - 1

    def vid(x: int, j: int) -> int:
        return 3 * x + j

    triples = []
    for x in range(t):
        triples.append(tuple(sorted((vid(x, 0), vid(x, 1), vid(x, 2)))))
    for x in range(t, q):
        triples.append(tuple(sorted((infinity, vid(x, 0), vid(x - t, 1)))))
        triples.append(tuple(sorted((infinity, vid(x, 1), vid(x - t, 2)))))
        triples.append(tuple(sorted((infinity, vid(x, 2), vid(x - t, 0)))))
    for j in range(3):
        for x in range(q):
            for y in range(x + 1, q):
                z = qg[x][y]
                triples.append(
                    tuple(sorted((vid(x, j), vid(y, j), vid(z, (j + 1) % 3))))
                )
    return Hypergraph.from_edges(n, triples)


# ---------------------------------------------------------------------------
# random linear r-graphs


def random_linear_r(n: int, r: int, m: int, seed: int = 0) -> tuple[Hypergraph, int]:
    """Seeded greedy pair-exclusion. Returns (H, achieved edge count);
    the count may fall short of m (partial Steiner systems cannot always
    be completed), which callers report rather than treat as an error."""
    if r < 2 or n < r or m < 0:
        raise InvalidParameters("need n >= r >= 2 and m >= 0")
    rng = random.Random(seed)
    used_pairs: set[tuple[int, int]] = set()
    edges: list[tuple[int, ...]] = []
    tries = 0
    while len(edges) < m and tries < 200 * m + 2000:
        tries += 1
        e = tuple(sorted(rng.sample(range(n), r)))
        pairs = list(combinations(e, 2))
        if any(p in used_pairs for p in pairs):
            continue
        used_pairs.update(pairs)
        edges.append(e)
    return Hypergraph.from_edges(n, edges, uniformity=r), len(edges)


def permuted(H: Hypergraph, seed: int) -> Hypergraph:
    """Relabel vertices by a seeded permutation (canonical edge order kept)."""
    rng = random.Random(seed)
    perm = list(range(H.n))
    rng.shuffle(perm)
    return Hypergraph.from_edges(
        H.n, [tuple(sorted(perm[v] for v in e)) for e in H.edges], H.uniformity
    )
