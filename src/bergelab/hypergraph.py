"""Immutable hypergraphs over dense integer vertex ids, with the degree,
shadow, subset-cover, shadow-component and peeling machinery everything
else builds on.

Conventions
-----------
- Vertices are 0..n-1; isolated vertices are allowed and count toward
  average-degree denominators.
- An edge is a strictly increasing tuple of at least two vertex ids; the
  edge list is lexicographically sorted and duplicate-free. Duplicate edges
  are an error, never merged silently.
- Average degree is kept as an exact Fraction so that threshold comparisons
  in the finders are exact.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Iterable, Optional, Sequence

from .errors import (
    ArityTooLarge,
    DuplicateEdge,
    EdgeSizeMismatch,
    InternalProofFailure,
    MalformedLine,
    PreconditionUnmet,
    VertexOutOfRange,
)


@dataclass(frozen=True)
class Hypergraph:
    """A simple hypergraph. `uniformity` is r when every edge has size r."""

    n: int
    edges: tuple[tuple[int, ...], ...]
    uniformity: Optional[int] = None
    # Derived indexes, each built once by incidence() / pair_covers() /
    # is_linear() and freed with the instance. Declared as fields (left out
    # of __init__, ==, hash and repr) so that every instance keeps one attribute layout:
    # adding attributes later would slow every read of `H.edges`.
    _incidence: Optional[tuple[tuple[int, ...], ...]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _pair_covers: Optional[dict[tuple[int, int], tuple[int, ...]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _linear: Optional[bool] = field(default=None, init=False, repr=False, compare=False)

    @staticmethod
    def from_edges(
        n: int,
        edges: Iterable[Iterable[int]],
        uniformity: Optional[int] = None,
    ) -> "Hypergraph":
        """Canonicalize and validate an edge collection.

        `uniformity` only matters for an empty edge list; otherwise it is
        recomputed and, if given, must agree.
        """
        canon: list[tuple[int, ...]] = []
        seen: set[tuple[int, ...]] = set()
        for raw in edges:
            raw = tuple(raw)
            e = tuple(sorted(set(raw)))
            if len(e) != len(raw):
                raise MalformedLine(f"edge {raw} repeats a vertex")
            if len(e) < 2:
                raise EdgeSizeMismatch(f"edge {e} has fewer than 2 vertices")
            if e[0] < 0 or e[-1] >= n:
                raise VertexOutOfRange(f"edge {e} leaves 0..{n - 1}")
            if e in seen:
                raise DuplicateEdge(f"edge {e} appears twice")
            seen.add(e)
            canon.append(e)
        canon.sort()
        sizes = {len(e) for e in canon}
        if len(sizes) == 1:
            r = sizes.pop()
            if uniformity is not None and uniformity != r:
                raise EdgeSizeMismatch(
                    f"declared uniformity {uniformity}, edges have size {r}"
                )
            uniformity = r
        elif sizes:
            uniformity = None
        return Hypergraph(n=n, edges=tuple(canon), uniformity=uniformity)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise VertexOutOfRange("vertex count must be nonnegative")

    def __len__(self) -> int:
        return len(self.edges)

    def restrict(self, edge_ids: Sequence[int]) -> tuple["Hypergraph", tuple[int, ...]]:
        """Sub-hypergraph on the given edge indices (same vertex set).

        Returns the subgraph and the map new index -> old index.
        """
        ids = sorted(edge_ids)
        sub = tuple(self.edges[i] for i in ids)
        sizes = {len(e) for e in sub}
        r = sizes.pop() if len(sizes) == 1 else None
        return Hypergraph(self.n, sub, r if sub else self.uniformity), tuple(ids)


@dataclass(frozen=True)
class DegreeProfile:
    per_vertex_degree: tuple[int, ...]
    average_degree: Fraction
    min_degree: int
    is_linear: bool


@dataclass(frozen=True)
class Shadow:
    """All k-subsets of edges, each with the sorted list of covering edges."""

    k: int
    edges: tuple[tuple[int, ...], ...]
    covers: tuple[tuple[int, ...], ...]

    def covers_map(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        return dict(zip(self.edges, self.covers))


def parse(text: str) -> Hypergraph:
    """Read the `.hg` format: header "r n m" (r = 0 for non-uniform), then
    m whitespace-separated edge lines."""
    lines = text.splitlines()
    if not lines:
        raise MalformedLine("empty document")
    head = lines[0].split()
    if len(head) != 3:
        raise MalformedLine(f"header must be 'r n m', got {lines[0]!r}")
    try:
        r, n, m = (int(tok) for tok in head)
    except ValueError:
        raise MalformedLine(f"non-integer header field in {lines[0]!r}") from None
    if r < 0 or n < 0 or m < 0:
        raise MalformedLine("negative header field")
    if r == 1:
        raise MalformedLine("uniformity 1 is not a hypergraph of edges")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != m:
        raise MalformedLine(f"header promises {m} edges, found {len(body)}")
    edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for ln in body:
        try:
            verts = [int(tok) for tok in ln.split()]
        except ValueError:
            raise MalformedLine(f"non-integer vertex id in {ln!r}") from None
        e = tuple(sorted(set(verts)))
        if r > 0:
            if len(verts) != r or len(e) != r:
                raise EdgeSizeMismatch(f"edge {ln!r} is not a {r}-set")
        else:
            if len(e) != len(verts):
                raise MalformedLine(f"edge {ln!r} repeats a vertex")
            if len(e) < 2:
                raise EdgeSizeMismatch(f"edge {ln!r} has fewer than 2 vertices")
        if e and (e[0] < 0 or e[-1] >= n):
            raise VertexOutOfRange(f"edge {ln!r} leaves 0..{n - 1}")
        if e in seen:
            raise DuplicateEdge(f"edge {e} appears twice")
        seen.add(e)
        edges.append(e)
    edges.sort()
    return Hypergraph(n=n, edges=tuple(edges), uniformity=r if r > 0 else None)


def serialize(H: Hypergraph) -> str:
    """Canonical writer: sorted edges, LF endings, no trailing whitespace.

    parse(serialize(H)) == H for every canonical hypergraph.
    """
    r = H.uniformity if H.uniformity is not None else 0
    out = [f"{r} {H.n} {len(H.edges)}"]
    out.extend(" ".join(str(v) for v in e) for e in H.edges)
    return "\n".join(out) + "\n"


def incidence(H: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """For each vertex, the sorted tuple of incident edge indices."""
    if H._incidence is None:
        inc: list[list[int]] = [[] for _ in range(H.n)]
        for i, e in enumerate(H.edges):
            for v in e:
                inc[v].append(i)
        object.__setattr__(H, "_incidence", tuple(tuple(lst) for lst in inc))
    return H._incidence


def cover_lists(
    edges: Sequence[tuple[int, ...]], k: int
) -> dict[tuple[int, ...], list[int]]:
    """Map each k-subset inside some edge to the positions in `edges` of the
    edges covering it, in edge order; subsets appear in first-seen order."""
    cov: dict[tuple[int, ...], list[int]] = {}
    for i, e in enumerate(edges):
        for s in combinations(e, k):
            cov.setdefault(s, []).append(i)
    return cov


def pair_covers(H: Hypergraph) -> dict[tuple[int, int], tuple[int, ...]]:
    """Map each vertex pair inside some edge to its covering edge indices,
    sorted by pair; built once per instance."""
    if H._pair_covers is None:
        cov = cover_lists(H.edges, 2)
        object.__setattr__(H, "_pair_covers", {p: tuple(ids) for p, ids in sorted(cov.items())})
    return H._pair_covers


def profile(H: Hypergraph) -> DegreeProfile:
    deg = [0] * H.n
    for e in H.edges:
        for v in e:
            deg[v] += 1
    total = sum(len(e) for e in H.edges)
    avg = Fraction(total, H.n) if H.n else Fraction(0)
    return DegreeProfile(
        per_vertex_degree=tuple(deg),
        average_degree=avg,
        min_degree=min(deg) if deg else 0,
        is_linear=is_linear(H),
    )


def average_degree(H: Hypergraph) -> Fraction:
    if H.n == 0:
        return Fraction(0)
    return Fraction(sum(len(e) for e in H.edges), H.n)


def is_linear(H: Hypergraph) -> bool:
    """True when no two edges share two vertices; the scan stops at the first
    pair met twice, builds no pair index, and runs once per instance."""
    if H._linear is None:
        object.__setattr__(H, "_linear", no_pair_twice(H.edges))
    return H._linear


def no_pair_twice(edges: Iterable[tuple[int, ...]]) -> bool:
    """True when no vertex pair lies in two of the edges; stops at the first
    pair met twice."""
    seen: set[tuple[int, ...]] = set()
    for e in edges:
        for p in combinations(e, 2):
            if p in seen:
                return False
            seen.add(p)
    return True


def shadow(H: Hypergraph, k: int) -> Shadow:
    if k < 1:
        raise ArityTooLarge("shadow arity must be at least 1")
    max_size = max((len(e) for e in H.edges), default=0)
    if k >= max_size:
        raise ArityTooLarge(f"arity {k} is not below the maximum edge size {max_size}")
    cov = cover_lists(H.edges, k)
    keys = sorted(cov)
    return Shadow(
        k=k,
        edges=tuple(keys),
        covers=tuple(tuple(cov[s]) for s in keys),
    )


def covered_vertices(H: Hypergraph, edge_ids: Iterable[int]) -> set[int]:
    out: set[int] = set()
    for i in edge_ids:
        out.update(H.edges[i])
    return out


def edge_components(H: Hypergraph, edge_ids: Sequence[int]) -> list[list[int]]:
    """Partition edge ids into shadow-connected groups: each group sorted,
    groups ordered by their smallest vertex."""
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for ei in edge_ids:
        for v in H.edges[ei]:
            parent.setdefault(v, v)
        vs = H.edges[ei]
        for w in vs[1:]:
            ra, rb = find(vs[0]), find(w)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for ei in sorted(edge_ids):
        groups.setdefault(find(H.edges[ei][0]), []).append(ei)
    return [groups[r] for r in sorted(groups)]


def peel(
    H: Hypergraph, edge_ids: Sequence[int], threshold: Fraction
) -> tuple[dict[int, int], list[int]]:
    """Min-degree core of an edge-subset view, by threshold peeling.

    Repeatedly deletes the smallest-id vertex whose degree in the view is
    below `threshold`, together with its edges; the survivors do not depend
    on the deletion order. Returns (each vertex covered by the surviving
    edges -> its degree among them, the sorted surviving edge ids). A
    positive threshold at most the view's |E|/|V| never empties the view:
    deleting a vertex of degree below that ratio does not lower the ratio.
    """
    deg: dict[int, int] = {}
    for i in edge_ids:
        for v in H.edges[i]:
            deg[v] = deg.get(v, 0) + 1
    alive_e = set(edge_ids)
    inc = incidence(H)
    heap = [v for v, d in deg.items() if d < threshold]
    heapq.heapify(heap)
    dead: set[int] = set()
    while heap:
        v = heapq.heappop(heap)
        if v in dead or deg[v] >= threshold:
            continue
        dead.add(v)
        for i in inc[v]:
            if i not in alive_e:
                continue
            alive_e.discard(i)
            for u in H.edges[i]:
                if u not in dead:
                    deg[u] -= 1
                    if deg[u] < threshold:
                        heapq.heappush(heap, u)
    if not alive_e:
        raise InternalProofFailure("peeling", "view peeled to nothing")
    # a survivor keeps degree >= threshold > 0, so it lies in a surviving edge
    return {v: d for v, d in deg.items() if v not in dead}, sorted(alive_e)


def min_degree_subgraph(H: Hypergraph) -> Hypergraph:
    """Subgraph H' with d(H') >= d(H) and min degree >= d(H)/r, by peeling.

    Surviving vertices are relabeled densely (order preserving); H itself is
    returned unchanged when nothing peels.
    """
    if H.uniformity is None or not H.edges:
        raise PreconditionUnmet("peeling needs a uniform, nonempty hypergraph")
    deg, eids = peel(H, range(len(H.edges)), Fraction(len(H.edges), H.n))
    if len(deg) == H.n and len(eids) == len(H.edges):
        return H
    relabel = {v: i for i, v in enumerate(sorted(deg))}
    new_edges = [tuple(relabel[v] for v in H.edges[i]) for i in eids]
    return Hypergraph.from_edges(len(deg), new_edges)


def r_partite_subgraph(H: Hypergraph, seed: int = 0) -> tuple[Hypergraph, tuple[tuple[int, ...], ...]]:
    """Deterministic r-partition keeping at least (r!/r^r)|H| transversal edges.

    Derandomized by conditional expectation: vertices are assigned (in a
    seed-shuffled order) to the part maximizing the expected number of
    edges that end up meeting every part exactly once. The count guarantee
    is unconditional; the seed only varies which partition is found.
    """
    import random

    if H.uniformity is None:
        raise PreconditionUnmet("r-partition needs a uniform hypergraph")
    r = H.uniformity
    order = list(range(H.n))
    random.Random(seed).shuffle(order)
    inc = incidence(H)
    part_of: dict[int, int] = {}
    # per-edge running state: parts already used (as a set), dead flag
    used_parts: list[set[int]] = [set() for _ in H.edges]
    dead = [False] * len(H.edges)

    def edge_prob(i: int, extra_part: Optional[int]) -> Fraction:
        if dead[i]:
            return Fraction(0)
        used = used_parts[i]
        if extra_part is not None:
            if extra_part in used:
                return Fraction(0)
            a = len(used) + 1
        else:
            a = len(used)
        u = r - a
        return Fraction(factorial(r - a), r**u)

    for v in order:
        best_j, best_gain = 0, None
        for j in range(r):
            gain = Fraction(0)
            for i in inc[v]:
                gain += edge_prob(i, j) - edge_prob(i, None)
            if best_gain is None or gain > best_gain:
                best_j, best_gain = j, gain
        part_of[v] = best_j
        for i in inc[v]:
            if dead[i]:
                continue
            if best_j in used_parts[i]:
                dead[i] = True
            else:
                used_parts[i].add(best_j)

    kept = [i for i in range(len(H.edges)) if not dead[i]]
    assert all(len(used_parts[i]) == r for i in kept)
    # integer form of the expectation bound: |kept| * r^r >= r! * |H|
    assert len(kept) * r**r >= factorial(r) * len(H.edges)
    parts: list[list[int]] = [[] for _ in range(r)]
    for v in range(H.n):
        parts[part_of[v]].append(v)
    sub = Hypergraph(H.n, tuple(H.edges[i] for i in kept), r)
    return sub, tuple(tuple(p) for p in parts)
