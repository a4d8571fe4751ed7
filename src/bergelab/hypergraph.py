"""Immutable hypergraphs over dense integer vertex ids, with the degree,
subset-cover, shadow-component and peeling machinery everything else
builds on.

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

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
from operator import eq, lt
from typing import Iterable, Optional, Sequence

from .errors import (
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
    # Derived indexes, each built once by incidence() / is_linear() (or
    # prefix_3graph(), which knows its result is linear) and freed with the
    # instance. Declared as fields (left out of __init__, ==, hash and repr)
    # so that every instance keeps one attribute layout: adding attributes
    # later would slow every read of `H.edges`.
    _incidence: Optional[tuple[tuple[int, ...], ...]] = field(
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
        recomputed and, if given, every edge must have that size. Edges of
        one size are checked in bulk; any anomaly, and any input with mixed
        sizes, goes through `_canonical_edges`, so the first bad edge is
        named as that per-edge loop names it.
        """
        raws: list[tuple] = []
        try:
            for raw in edges:
                raws.append(tuple(raw))
        except Exception:
            _canonical_edges(n, raws)  # a bad edge before the failure comes first
            raise
        canon = _bulk_edges(n, raws)
        if canon is None:
            canon = _canonical_edges(n, raws)
        sizes = set(map(len, canon))
        if uniformity is not None and sizes - {uniformity}:
            raise EdgeSizeMismatch(
                f"declared uniformity {uniformity}, edges have sizes {sorted(sizes)}"
            )
        if sizes:
            uniformity = sizes.pop() if len(sizes) == 1 else None
        return Hypergraph(n=n, edges=tuple(canon), uniformity=uniformity)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise VertexOutOfRange("vertex count must be nonnegative")

    def restrict(self, edge_ids: Sequence[int]) -> tuple["Hypergraph", tuple[int, ...]]:
        """Sub-hypergraph on the given edge indices (same vertex set).

        Returns the subgraph and the map new index -> old index. When the
        ids are every edge index, in any order, the subgraph is `self`, so
        it keeps the indexes already built on it. Duplicate or out-of-range
        ids raise PreconditionUnmet.
        """
        ids = sorted(edge_ids)
        m = len(self.edges)
        if ids and (ids[0] < 0 or ids[-1] >= m):
            raise PreconditionUnmet(f"edge ids must lie in 0..{m - 1}")
        if any(a == b for a, b in zip(ids, ids[1:])):
            raise PreconditionUnmet("edge ids repeat")
        if len(ids) == m:
            return self, tuple(ids)
        sub = tuple(self.edges[i] for i in ids)
        sizes = {len(e) for e in sub}
        r = sizes.pop() if len(sizes) == 1 else None
        return Hypergraph(self.n, sub, r if sub else self.uniformity), tuple(ids)


def _bulk_edges(n: int, raws: list[tuple]) -> Optional[list[tuple[int, ...]]]:
    """The sorted edge list when the edges all have one size r >= 2, have
    distinct vertices in 0..n-1 and appear once; None on anything else.

    The edges are read as r columns, and rebuilt from them. Only when a
    column does not lie strictly below the next (an edge not given
    increasing) is each edge sorted and the columns read again."""
    if not raws:
        return []
    r = len(raws[0])
    if r < 2 or len(set(map(len, raws))) != 1:
        return None
    try:
        cols = _columns(raws, r)
        if not _increasing_columns(cols):
            cols = _columns(map(sorted, raws), r)
            if not _increasing_columns(cols):
                return None
        if min(cols[0]) < 0 or max(cols[-1]) >= n:
            return None
        # fresh tuples even for edges given sorted, as the per-edge loop
        # made them: keeping the caller's tuples alive made later `find`
        # runs in the same process 8-12 % slower on a 2-vCPU host, through
        # the heap layout they leave
        canon = sorted(zip(*cols))
    except TypeError:  # vertices that do not compare with each other or with ints
        return None
    if any(map(eq, canon, canon[1:])):
        return None
    return canon


def _columns(edges: Iterable[Sequence], r: int) -> list[list]:
    """The r columns of edges of size r: column i holds each edge's i-th entry."""
    flat = list(chain.from_iterable(edges))
    return [flat[i::r] for i in range(r)]


def _increasing_columns(cols: list[list]) -> bool:
    """True when each column lies strictly below the next, edge by edge."""
    return all(all(map(lt, a, b)) for a, b in zip(cols, cols[1:]))


def _canonical_edges(n: int, raws: Iterable[tuple]) -> list[tuple[int, ...]]:
    """The sorted edge list, edge by edge: raises on the first edge that
    repeats a vertex, has fewer than 2 vertices, leaves 0..n-1 or repeats an
    earlier edge."""
    canon: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for raw in raws:
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
    return canon


def parse(text: str) -> Hypergraph:
    """Read the `.hg` format: header "r n m" (r = 0 for non-uniform), then
    m edge lines of vertex ids separated by any whitespace, in any order;
    blank lines are ignored. Under r = 0 the uniformity is derived from the
    edge sizes, as in `Hypergraph.from_edges`.

    A canonical document, as `serialize` writes it, is read in bulk; any
    other goes through the per-line reader, which accepts it or names its
    first bad line."""
    H = _parse_canonical(text)
    return H if H is not None else _parse_lines(text)


_DIGITS = str.maketrans("", "", "0123456789")
_SEPARATORS = str.maketrans(" \n", ",,")


def _parse_canonical(text: str) -> Optional[Hypergraph]:
    """The hypergraph of a canonical document, or None for any other. Such a
    document has r >= 2, ASCII digit ids without leading zeros, single
    spaces, a newline ending every line, increasing ids within each edge
    and increasing edges; `_parse_lines` reads it to the same value."""
    head, _, body = text.partition("\n")
    try:
        r, n, m = map(int, head.split(" "))
    except ValueError:
        return None
    # an r beyond the text's length leaves room for no edge line
    if not 2 <= r <= len(text) or not text.endswith("\n"):
        return None
    # with the digits deleted, the header leaves two spaces and a newline
    # and each edge line r - 1 spaces and a newline (lengths compared first,
    # so a huge m in the header builds no huge pattern)
    seps = text.translate(_DIGITS)
    if len(seps) != 3 + r * m or seps != "  \n" + (" " * (r - 1) + "\n") * m:
        return None
    # the body is now digit runs joined by single separators; as a JSON
    # array it is read at C speed, and an empty run or a leading zero
    # (which int() reads and JSON refuses) leaves it to the per-line reader
    try:
        ids = json.loads("[" + body.translate(_SEPARATORS)[:-1] + "]")
    except ValueError:
        return None
    # JSON makes a new int object per id. Mapping the ids through one
    # list(range(n)) leaves one object per vertex, shared by every edge
    # through it: the edges take little more than half the memory, and later
    # dict and set probes match keys by identity. The pool is built only
    # when n is at most the number of ids, since the header may declare a
    # huge n for a short document; an id of n or more leaves the document
    # to the per-line reader, which names it
    if n <= len(ids):
        try:
            ids = list(map(list(range(n)).__getitem__, ids))
        except IndexError:
            return None
    # ids are digit runs, so none is negative; once every edge increases,
    # the last column holds each edge's largest id
    cols = [ids[j::r] for j in range(r)]
    if m and not (_increasing_columns(cols) and max(cols[-1]) < n):
        return None
    edges = tuple(zip(*cols))
    if not all(map(lt, edges, edges[1:])):
        return None
    return Hypergraph(n=n, edges=edges, uniformity=r)


def _parse_lines(text: str) -> Hypergraph:
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
    if r == 0:
        sizes = {len(e) for e in edges}
        r = sizes.pop() if len(sizes) == 1 else 0
    return Hypergraph(n=n, edges=tuple(edges), uniformity=r or None)


def serialize(H: Hypergraph) -> str:
    """Canonical writer: sorted edges, LF endings, no trailing whitespace.

    parse(serialize(H)) == H for every canonical hypergraph. A uniform H is
    written with one format per edge ("%s %s %s" and a newline at r = 3) in
    one join, and under r = 0 each edge is joined on its own: both write
    each edge's `str(v)` split by single spaces.
    """
    r = H.uniformity if H.uniformity is not None else 0
    head = f"{r} {H.n} {len(H.edges)}\n"
    if r:  # one format for every edge
        line = " ".join(["%s"] * r) + "\n"
        return head + "".join(map(line.__mod__, H.edges))
    return head + "".join(" ".join(map(str, e)) + "\n" for e in H.edges)


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
    built afresh on each call. Nothing in the package calls it; it stays
    because `perfbench` traces it by name."""
    return {p: tuple(ids) for p, ids in cover_lists(H.edges, 2).items()}


def average_degree(H: Hypergraph) -> Fraction:
    if H.n == 0:
        return Fraction(0)
    if H.uniformity is not None:
        return Fraction(H.uniformity * len(H.edges), H.n)
    return Fraction(sum(len(e) for e in H.edges), H.n)


def is_linear(H: Hypergraph) -> bool:
    """True when no two edges share two vertices. Decided once per instance,
    here or by `prefix_3graph`, whose result is linear by construction. The scan
    stops at the first pair met twice and builds no pair index; a 3-graph's
    pairs are kept as integers a*n+b, marked in a byte per possible pair when
    n*n <= 16m and held in a set otherwise."""
    if H._linear is None:
        if H.uniformity == 3:
            linear = _no_pair_twice_3(H.edges, H.n)
        else:
            linear = no_pair_twice(H.edges)
        object.__setattr__(H, "_linear", linear)
    return H._linear


def _no_pair_twice_3(edges: Sequence[tuple[int, int, int]], n: int) -> bool:
    # pair (a, b) with a < b < n is the key a*n+b, one key per pair. When the
    # n*n keys are few against the edges (a Steiner system has n*n about 6m),
    # one byte per key marks the pairs met; otherwise (a loose path has
    # n*n far above m) a set holds them, and an edge adds three new keys
    # unless one of its pairs was met before
    if n * n <= 16 * len(edges):
        met = bytearray(n * n)
        for a, b, c in edges:
            an = a * n
            ab, ac, bc = an + b, an + c, b * n + c
            if met[ab] or met[ac] or met[bc]:
                return False
            met[ab] = met[ac] = met[bc] = 1
        return True
    seen: set[int] = set()
    add = seen.add
    count = 0
    for a, b, c in edges:
        an = a * n
        add(an + b)
        add(an + c)
        add(b * n + c)
        count += 3
        if len(seen) != count:
            return False
    return True


def prefix_3graph(H: Hypergraph) -> Hypergraph:
    """The 3-graph whose edge i is the least three vertices of edge i of the
    linear r-graph H (r >= 3); H itself at r = 3. Edges of H share at most
    one vertex, so their 3-prefixes are distinct, already sorted and again
    share at most one vertex: the result is linear, and recorded so."""
    r = H.uniformity
    if r is None or r < 3 or not is_linear(H):
        raise PreconditionUnmet("need a linear r-graph with r >= 3")
    if r == 3:
        return H
    H3 = Hypergraph(H.n, tuple(e[:3] for e in H.edges), 3)
    object.__setattr__(H3, "_linear", True)
    return H3


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


def covered_vertices(H: Hypergraph, edge_ids: Iterable[int]) -> set[int]:
    out: set[int] = set()
    for i in edge_ids:
        out.update(H.edges[i])
    return out


def edge_components(H: Hypergraph, edge_ids: Sequence[int]) -> list[list[int]]:
    """Partition edge ids into shadow-connected groups: each group sorted,
    groups ordered by their smallest vertex."""
    # union-find with path halving; a root is the smallest vertex of its set
    edges = H.edges
    parent: dict[int, int] = {}
    for ei in edge_ids:
        root = -1
        for v in edges[ei]:
            p = parent.setdefault(v, v)
            while p != v:
                parent[v] = v = parent[p]
                p = parent[v]
            if root < 0:
                root = v
            elif v < root:
                parent[root] = root = v
            elif v > root:
                parent[v] = root
    groups: dict[int, list[int]] = {}
    for ei in sorted(edge_ids):
        v = edges[ei][0]
        p = parent[v]
        while p != v:
            parent[v] = v = parent[p]
            p = parent[v]
        groups.setdefault(v, []).append(ei)
    return [groups[r] for r in sorted(groups)]


def peel(H: Hypergraph, edge_ids: Sequence[int]) -> tuple[dict[int, int], list[int]]:
    """Min-degree core of an edge-subset view, by threshold peeling.

    Repeatedly deletes a vertex whose degree in the view is below the
    view's |E|/|V|, together with its edges; the survivors do not depend on
    the deletion order. Returns (each vertex covered by the surviving
    edges -> its degree among them, the sorted surviving edge ids).
    Deleting a vertex of degree below that ratio does not lower the ratio,
    so a nonempty view never peels to nothing.
    """
    if not edge_ids:
        raise InternalProofFailure("peeling", "empty view")
    deg: dict[int, int] = {}
    for i in edge_ids:
        for v in H.edges[i]:
            deg[v] = deg.get(v, 0) + 1
    alive_e = set(edge_ids)
    threshold = Fraction(len(alive_e), len(deg))
    inc = incidence(H)
    # a vertex is marked dead when queued, so a deleted edge lowers only
    # the degrees of its ends still alive
    stack = [v for v, d in deg.items() if d < threshold]
    dead = set(stack)
    while stack:
        for i in inc[stack.pop()]:
            if i not in alive_e:
                continue
            alive_e.discard(i)
            for u in H.edges[i]:
                if u not in dead:
                    deg[u] -= 1
                    if deg[u] < threshold:
                        dead.add(u)
                        stack.append(u)
    if not alive_e:
        raise InternalProofFailure("peeling", "view peeled to nothing")
    # a survivor keeps degree >= threshold > 0, so it lies in a surviving edge
    return {v: d for v, d in deg.items() if v not in dead}, sorted(alive_e)
