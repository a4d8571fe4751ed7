"""Independent checks of bergelab output.

Nothing here imports bergelab: the `.hg` reader, the witness checker and
the Berge-cycle search are written from the definitions, so a bug in the
package cannot hide itself by being shared with its own checker.

A Berge cycle of length L is a cycle of length 2L in the vertex-edge
incidence graph (vertices on one side, hyperedges on the other, a vertex
joined to every edge containing it). Every search below works on that
graph.
"""

from __future__ import annotations

import json
from itertools import combinations


class CheckError(Exception):
    """An output that contradicts the instance or a property of the method."""


def parse_hg(text: str) -> tuple[int, int, list[tuple[int, ...]]]:
    """Read `r n m` then m edge lines; returns (r, n, lexicographically sorted edges)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise CheckError("empty .hg document")
    r, n, m = (int(tok) for tok in lines[0].split())
    edges = sorted(tuple(sorted(int(tok) for tok in ln.split())) for ln in lines[1 : 1 + m])
    if len(edges) != m or len(set(edges)) != m:
        raise CheckError(f"header promises {m} distinct edges, found {len(set(edges))}")
    for e in edges:
        if len(set(e)) != len(e) or e[0] < 0 or e[-1] >= n or (r and len(e) != r):
            raise CheckError(f"bad edge {e} for r={r} n={n}")
    return r, n, edges


def edge_list_key(edges: list[tuple[int, ...]]) -> str:
    """A canonical text of an edge list, for telling instances apart."""
    return ";".join(",".join(map(str, e)) for e in sorted(edges))


# ---------------------------------------------------------------------------
# witnesses


def check_witness(edges: list[tuple[int, ...]], spine, edge_ids) -> None:
    """Spine and edge indices form a 2L-cycle in the incidence graph."""
    L = len(spine)
    if L < 2 or len(edge_ids) != L:
        raise CheckError(f"spine of {L} vertices with {len(edge_ids)} edges")
    if len(set(spine)) != L:
        raise CheckError(f"spine repeats a vertex: {spine}")
    if len(set(edge_ids)) != L:
        raise CheckError(f"edge indices repeat: {edge_ids}")
    for i, ei in enumerate(edge_ids):
        if not (isinstance(ei, int) and 0 <= ei < len(edges)):
            raise CheckError(f"edge index {ei} outside 0..{len(edges) - 1}")
        u, v = spine[i], spine[(i + 1) % L]
        if u not in edges[ei] or v not in edges[ei]:
            raise CheckError(f"pair ({u},{v}) is not inside edge {ei} = {edges[ei]}")


def parse_run_csv(text: str) -> list[tuple[int, int]]:
    """Rows (length, shortest_bound) of a `find` CSV report."""
    lines = text.splitlines()
    if not lines or lines[0] != "length,shortest_bound":
        raise CheckError(f"bad CSV header: {lines[:1]}")
    rows = []
    for ln in lines[1:]:
        a, b = ln.split(",")
        rows.append((int(a), int(b)))
    return rows


def check_run_report(edges, k: int, csv_text: str, jsonl_text: str) -> list[int]:
    """A `find` report with its witness file; returns the lengths (empty for no run).

    Checks k rows of consecutive lengths, shortest <= shortest_bound, one
    witness line per row in the same order, and every witness against the
    instance.
    """
    rows = parse_run_csv(csv_text)
    wits = [json.loads(ln) for ln in jsonl_text.splitlines() if ln.strip()]
    if not rows:
        if wits:
            raise CheckError("witnesses emitted for an empty report")
        return []
    lengths = [L for L, _ in rows]
    bounds = {b for _, b in rows}
    if len(rows) != k or any(b - a != 1 for a, b in zip(lengths, lengths[1:])):
        raise CheckError(f"lengths {lengths} are not {k} consecutive values")
    if len(bounds) != 1 or lengths[0] > bounds.pop():
        raise CheckError(f"shortest {lengths[0]} above the bound in {rows}")
    if len(wits) != len(rows):
        raise CheckError(f"{len(rows)} CSV rows but {len(wits)} witness lines")
    for L, w in zip(lengths, wits):
        if w.get("type") != "berge-cycle" or w.get("length") != L or len(w["spine"]) != L:
            raise CheckError(f"witness {w} disagrees with CSV length {L}")
        check_witness(edges, w["spine"], w["edges"])
    return lengths


# ---------------------------------------------------------------------------
# Berge cycles in the incidence graph


def incidence_adjacency(n: int, edges) -> list[list[int]]:
    """Nodes 0..n-1 are vertices, n+i is edge i."""
    adj: list[list[int]] = [[] for _ in range(n + len(edges))]
    for i, e in enumerate(edges):
        for v in e:
            adj[v].append(n + i)
            adj[n + i].append(v)
    return adj


def _cycle_through(adj, start: int, length: int, allowed) -> bool:
    """A simple cycle of exactly `length` nodes through `start`, inside `allowed`."""
    on_path = {start}

    def dfs(u: int, depth: int) -> bool:
        for w in adj[u]:
            if w == start and depth == length and length > 2:
                return True
            if depth < length and w not in on_path and allowed(w):
                on_path.add(w)
                if dfs(w, depth + 1):
                    return True
                on_path.discard(w)
        return False

    return dfs(start, 1)


def has_berge_cycle(n: int, edges, ell: int) -> bool:
    """Whether some Berge cycle of length ell exists (a 2*ell-cycle in incidence)."""
    adj = incidence_adjacency(n, edges)
    for i in range(len(edges)):
        node = n + i
        # the cycle is found from its largest edge node
        if _cycle_through(adj, node, 2 * ell, lambda w, node=node: w < node or w < n):
            return True
    return False


def creates_berge_cycle(n: int, edges, new_edge, ell: int) -> bool:
    """Whether adding new_edge to edges makes a Berge cycle of length ell."""
    adj = incidence_adjacency(n, list(edges) + [tuple(new_edge)])
    return _cycle_through(adj, n + len(edges), 2 * ell, lambda w: True)


def unicyclic_berge_lengths(n: int, edges) -> list[int]:
    """Every Berge-cycle length of a hypergraph whose incidence graph has at
    most one cycle per component (loose paths and loose cycles).

    Such a component's only cycle is its 2-core; its length is half the
    2-core's size. A component with more cycles cannot be read off this way.
    """
    adj = incidence_adjacency(n, edges)
    deg = [len(a) for a in adj]
    alive = [True] * len(adj)
    stack = [u for u in range(len(adj)) if deg[u] <= 1]
    while stack:
        u = stack.pop()
        if not alive[u]:
            continue
        alive[u] = False
        for w in adj[u]:
            if alive[w]:
                deg[w] -= 1
                if deg[w] == 1:
                    stack.append(w)
    lengths = []
    seen = [False] * len(adj)
    for s in range(len(adj)):
        if not alive[s] or seen[s]:
            continue
        comp, todo = 0, [s]
        seen[s] = True
        while todo:
            u = todo.pop()
            comp += 1
            if deg[u] != 2:
                raise CheckError("incidence component has more than one cycle")
            for w in adj[u]:
                if alive[w] and not seen[w]:
                    seen[w] = True
                    todo.append(w)
        lengths.append(comp // 2)
    return sorted(lengths)


def check_no_consecutive_lengths(n: int, edges, k: int) -> None:
    """No k consecutive Berge-cycle lengths exist (unicyclic components only)."""
    lens = set(unicyclic_berge_lengths(n, edges))
    for L in lens:
        if all(L + j in lens for j in range(k)):
            raise CheckError(f"lengths {L}..{L + k - 1} all occur")


# ---------------------------------------------------------------------------
# closed forms


def bipartite_spectrum(a: int, b: int, max_len: int) -> list[int]:
    """Berge-cycle lengths of K_{a,b} up to max_len: the even lengths 4..2min(a,b)."""
    return list(range(4, min(2 * min(a, b), max_len) + 1, 2))


def triple_packing_number(n: int) -> int:
    """Most triples on n points with no pair covered twice (Schoenheim bound,
    attained for every n; one less when n = 5 mod 6)."""
    return (n * ((n - 1) // 2)) // 3 - (1 if n % 6 == 5 else 0)


def check_spectrum_output(stdout: str, expected: list[int], partial: bool) -> list[int]:
    lines = stdout.splitlines()
    if not lines or lines[0] != "length":
        raise CheckError(f"bad spectrum header: {lines[:1]}")
    got = [int(x) for x in lines[1:]]
    if got != sorted(set(got)):
        raise CheckError(f"spectrum {got} is not strictly increasing")
    if partial:
        if not set(got) <= set(expected):
            raise CheckError(f"partial spectrum {got} has lengths outside {expected}")
    elif got != expected:
        raise CheckError(f"spectrum {got}, expected {expected}")
    return got


def check_turan_output(stdout: str, n: int, r: int, ell: int) -> int:
    """Header row, exactness, and an extremal example that has `value`
    edges, is ell-free and is maximal. Returns the value."""
    lines = stdout.splitlines()
    if lines[0] != "n,r,forbidden_length,value,exact,nodes":
        raise CheckError(f"bad turan header: {lines[0]}")
    fields = [int(x) for x in lines[1].split(",")]
    if fields[:3] != [n, r, ell]:
        raise CheckError(f"turan row {fields} is for another instance")
    value, exact, nodes = fields[3:]
    if exact != 1 or nodes < 1:
        raise CheckError(f"turan search not exact (exact={exact}, nodes={nodes})")
    hr, hn, edges = parse_hg("\n".join(lines[2:]))
    if (hr, hn) != (r, n) or len(edges) != value:
        raise CheckError(f"extremal example has {len(edges)} edges, value {value}")
    if has_berge_cycle(n, edges, ell):
        raise CheckError(f"extremal example contains a Berge {ell}-cycle")
    present = set(edges)
    for t in combinations(range(n), r):
        if t not in present and not creates_berge_cycle(n, edges, t, ell):
            raise CheckError(f"adding {t} keeps the example {ell}-free: not maximum")
    if ell == 2 and r == 3 and value != triple_packing_number(n):
        raise CheckError(f"ex({n},3; C2) = {value}, packing number {triple_packing_number(n)}")
    return value
