"""Desk-scale exact Turán numbers for forbidden Berge-cycle lengths.

Branch and bound over edge subsets of the complete r-graph. Symmetry is cut
by the introduce-vertices-in-order rule (every isomorphism class has a
representative whose lex-sorted edge list brings in new vertices as the
next consecutive ids), which only skips relabelings, so the optimum is
exact whenever the search completes within budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional

from ._spectrum import spectrum_search
from .errors import InternalProofFailure, PreconditionUnmet
from .hypergraph import Hypergraph, no_pair_twice


@dataclass(frozen=True)
class TuranRecord:
    n: int
    r: int
    forbidden_length: int
    value: int
    extremal: Hypergraph
    exact: bool
    nodes: int


_KERNEL_BUDGET = 10**7  # per freeness check; instances here are tiny


def _free_of_length(
    n: int, edges: list[tuple[int, ...]], ell: int, through: Optional[tuple[int, ...]] = None
) -> bool:
    """True when `edges` has no Berge cycle of length ell. With `through`,
    `edges` minus that edge must already be known free, and only cycles
    assigning it are searched."""
    if ell == 2:
        return no_pair_twice(edges)
    hits, _, exhausted = spectrum_search(n, tuple(edges), ell, ell, _KERNEL_BUDGET, through)
    if exhausted:
        raise PreconditionUnmet("freeness check ran out of budget")
    return not hits


def turan_exhaustive(n: int, r: int, ell: int, budget: int = 10**8) -> TuranRecord:
    """Maximum edge count of an n-vertex r-graph with no Berge cycle of
    length ell, plus one extremal example. `exact` is False only when the
    node budget ran out; the best found is then a lower bound."""
    if r < 2:
        raise PreconditionUnmet(f"edge size r = {r} is below 2")
    if r == 3 and n > 9:
        raise PreconditionUnmet("desk-scale ceiling: n <= 9 for r = 3")
    if ell < 2:
        raise PreconditionUnmet("forbidden length must be at least 2")
    if budget < 0:
        raise PreconditionUnmet(f"budget {budget} is negative")
    universe = list(combinations(range(n), r))
    per_edge_pairs = comb(r, 2)
    total_pairs = comb(n, 2)
    best: list[tuple[int, ...]] = []
    nodes = 0
    exhausted = False
    chosen: list[tuple[int, ...]] = []

    def dfs(pos: int, frontier: int, used_pairs: int) -> None:
        nonlocal best, nodes, exhausted
        if exhausted:
            return
        nodes += 1
        if nodes > budget:
            exhausted = True
            return
        if len(chosen) > len(best):
            best = list(chosen)
        if pos == len(universe):
            return
        remaining = len(universe) - pos
        if ell == 2:
            cap = (total_pairs - used_pairs) // per_edge_pairs
            if len(chosen) + min(cap, remaining) <= len(best):
                return
        elif len(chosen) + remaining <= len(best):
            return
        e = universe[pos]
        fresh = [v for v in e if v >= frontier]
        ordered = fresh == list(range(frontier, frontier + len(fresh)))
        if ordered:
            chosen.append(e)
            # chosen[:-1] passed this check when each edge was kept
            if _free_of_length(n, chosen, ell, e):
                dfs(pos + 1, frontier + len(fresh), used_pairs + per_edge_pairs)
            chosen.pop()
        dfs(pos + 1, frontier, used_pairs)

    dfs(0, 0, 0)
    extremal = Hypergraph.from_edges(n, best, uniformity=r)
    if not _free_of_length(n, list(extremal.edges), ell):
        raise InternalProofFailure("turan extremal example", f"has a Berge {ell}-cycle")
    return TuranRecord(
        n=n,
        r=r,
        forbidden_length=ell,
        value=len(best),
        extremal=extremal,
        exact=not exhausted,
        nodes=nodes,
    )
