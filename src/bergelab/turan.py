"""Desk-scale exact Turán numbers for forbidden Berge-cycle lengths.

Branch and bound over edge subsets of the complete r-graph. Symmetry is cut
by the introduce-vertices-in-order rule (every isomorphism class has a
representative whose lex-sorted edge list brings in new vertices as the
next consecutive ids), which only skips relabelings, so the optimum is
exact whenever the search completes within budget.

Freeness checks are answered from earlier checks where they can be
(nogood recording, Dechter 1990). The family `chosen` is a bitmask over
universe positions, and the new edge e sits above every other chosen
edge, so the answers are filed under e's position p. Two closure facts
make a filed answer reusable:

- a Berge cycle persists in every superset, so when the check of e finds
  a cycle, the mask of its other edges is filed in `cycles[p]`, and a
  later check of p whose family contains a filed mask is "not free";
- Berge-ell-freeness is closed under subsets, so when the check passes,
  the family's mask is filed in `free[p]`, and a later check of p whose
  family lies inside a filed mask is "free".

Only a check that neither list decides calls the kernel, so every check
answers exactly as the kernel would, and the search's value, node count
and extremal example do not depend on the cache. A kernel witness is
checked against the family before it is filed, because from then on it
decides later answers. The `ell == 2` check and the final check of the
extremal example bypass the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional, Sequence

from ._spectrum import spectrum_search
from .certify import BergeCycleWitness, verify_cycle
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
    kernel_calls: int  # spectrum_search calls, the final extremal check included
    cache_hits: int  # freeness checks answered from an earlier check


_KERNEL_BUDGET = 10**7  # per freeness check; instances here are tiny


def _find_cycle(
    n: int, edges: Sequence[tuple[int, ...]], ell: int, through: Optional[tuple[int, ...]] = None
):
    """One Berge ell-cycle of `edges` as (spine, assignment), or None. With
    `through`, `edges` minus that edge must already be known free, and only
    cycles assigning it are searched."""
    hits, _, exhausted = spectrum_search(n, tuple(edges), ell, ell, _KERNEL_BUDGET, through)
    if exhausted:
        raise PreconditionUnmet("freeness check ran out of budget")
    return hits[0][1:] if hits else None


def turan_exhaustive(n: int, r: int, ell: int, budget: int = 10**8) -> TuranRecord:
    """Maximum edge count of an n-vertex r-graph with no Berge cycle of
    length ell, plus one extremal example. `exact` is False only when the
    node budget ran out; the best found is then a lower bound."""
    if r < 2:
        raise PreconditionUnmet(f"edge size r = {r} is below 2")
    if n < 0:
        raise PreconditionUnmet(f"vertex count n = {n} is negative")
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
    chosen_pos: list[int] = []  # universe position of each chosen edge
    # per position p: masks of the other edges of a cycle through p, and
    # masks of families with top edge p known free. A filed mask drops the
    # ones it makes redundant; lookups scan the newest first.
    cycles: list[list[int]] = [[] for _ in universe]
    free: list[list[int]] = [[] for _ in universe]
    kernel_calls = cache_hits = 0

    def chosen_free(p: int, mask: int) -> bool:
        """`chosen`, whose last edge sits at p and whose bitmask is `mask`,
        has no Berge ell-cycle; chosen[:-1] is known free."""
        nonlocal kernel_calls, cache_hits
        if ell == 2:
            return no_pair_twice(chosen)
        for c in reversed(cycles[p]):
            if c & mask == c:
                cache_hits += 1
                return False
        for f in reversed(free[p]):
            if mask & f == mask:
                cache_hits += 1
                return True
        kernel_calls += 1
        found = _find_cycle(n, chosen, ell, universe[p])
        if found is None:
            free[p] = [f for f in free[p] if f & mask != f]
            free[p].append(mask)
            return True
        spine, assign = found
        if (
            len(spine) != ell
            or len(chosen) - 1 not in assign
            or not verify_cycle(Hypergraph(n, tuple(chosen)), BergeCycleWitness(spine, assign))
        ):
            raise InternalProofFailure(
                "turan freeness check",
                f"kernel witness {spine} / {assign} is not a Berge {ell}-cycle",
            )
        c = sum(1 << chosen_pos[ei] for ei in assign if chosen_pos[ei] != p)
        cycles[p] = [d for d in cycles[p] if d & c != c]
        cycles[p].append(c)
        return False

    def dfs(pos: int, frontier: int, used_pairs: int, mask: int) -> None:
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
            chosen_pos.append(pos)
            # chosen[:-1] passed this check when each edge was kept
            grown = mask | 1 << pos
            if chosen_free(pos, grown):
                dfs(pos + 1, frontier + len(fresh), used_pairs + per_edge_pairs, grown)
            chosen_pos.pop()
            chosen.pop()
        dfs(pos + 1, frontier, used_pairs, mask)

    dfs(0, 0, 0, 0)
    extremal = Hypergraph.from_edges(n, best, uniformity=r)
    if ell == 2:
        extremal_free = no_pair_twice(list(extremal.edges))
    else:
        kernel_calls += 1
        extremal_free = _find_cycle(n, extremal.edges, ell) is None
    if not extremal_free:
        raise InternalProofFailure("turan extremal example", f"has a Berge {ell}-cycle")
    return TuranRecord(
        n=n,
        r=r,
        forbidden_length=ell,
        value=len(best),
        extremal=extremal,
        exact=not exhausted,
        nodes=nodes,
        kernel_calls=kernel_calls,
        cache_hits=cache_hits,
    )
