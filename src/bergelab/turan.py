"""Desk-scale exact Turán numbers for forbidden Berge-cycle lengths.

Branch and bound over edge subsets of the complete r-graph. Symmetry is cut
by the introduce-vertices-in-order rule (every isomorphism class has a
representative whose lex-sorted edge list brings in new vertices as the
next consecutive ids), which only skips relabelings, so the optimum is
exact whenever the search completes within budget.

For ell >= 3 a vertex-deletion bound cuts too (the averaging argument of
Katona, Nemetz and Simonovits, 1964). Deleting a vertex v from a free
family of V edges leaves a free family on n - 1 vertices, so
deg(v) >= V - ex(n-1). At a node, every vertex of a family that beats
`best` needs degree len(best) + 1 - ex(n-1), and it can reach at most its
chosen degree plus the positions ahead that hold it; when some vertex
falls short, the node is cut as the plain count bound cuts it. ex(n-1) is
proved in the same call: the rows m = r .. n-1 are searched bottom-up,
each bounded by the row below. All rows share the call's budget, so row n
gets what the rows below leave, and `nodes`, `kernel_calls` and
`cache_hits` sum over every row. A row that runs out ends the call with
the largest family any row found, which is free on n vertices too, as a
lower bound. The cut only drops subtrees holding no family larger than
`best`, in an unchanged order, so the value and the extremal example (the
first maximum found) are those of the unbounded search, and each row
spends the nodes it would spend alone. ell == 2 keeps its pair-packing
cap, whose rows below would cost more than they save.

Freeness checks are answered from earlier checks where they can be
(nogood recording, Dechter 1990). The family `chosen` is a bitmask over
universe positions, and the new edge e sits above every other chosen
edge, so the answers are filed under e's position p. Two closure facts
make a filed answer reusable:

- a Berge cycle persists in every superset, so when the check of e finds
  a cycle, the mask c of its other edges is a nogood of p, and a later
  check of p whose family contains c is "not free". The witness puts e on
  one spine pair (a, b), and any edge holding a and b closes the same
  cycle with c unless c holds it. So c is filed as a nogood of every
  position p' > q whose edge holds a and b, where q is c's largest
  position: p itself and the later positions the search may yet reach
  with c in `chosen`;
- Berge-ell-freeness is closed under subsets, so when the check passes,
  the family's mask is filed under p, and a later check of p whose family
  lies inside a filed mask is "free".

Nogoods are watched, as literals are in SAT solvers (Moskewicz et al.,
"Chaff", DAC 2001). Positions enter `chosen` in increasing order, so c
lies in `chosen` exactly while its largest position q does and q's entry
found the rest of c there. A nogood is filed under q, grouped by mask,
and a group holds each position once; when q enters, one mask test per
group arms the group's positions p (`armed[p] += 1`), and when q leaves
they are disarmed. A nogood filed during a check is armed at once for
every position it is filed for. The check at p is then `armed[p] > 0`.
Free masks are indexed by position instead: the masks filed under p are
numbered, and `free[p][i]` is the bitset of those holding position i, so
the masks holding the whole family are the AND of its positions' bitsets,
taken with an early exit at zero. Both indexes keep every mask they are
given; a mask a later one makes redundant is left in place, as it can
never decide a check the later mask would not decide the same way.

Only a check that neither the armed count nor the free masks decide calls
the kernel, so every check answers exactly as the kernel would, and the
search's value, node count and extremal example do not depend on the
cache. A kernel witness is checked against the family before it is
filed, because from then on it decides later answers. The `ell == 2`
check and the final check of the extremal example bypass the cache.
Every kernel call of one search, the final check included, runs on one
`KernelState`: its pair covers and shadow follow `chosen` by pushes and
pops, and its one `Matcher` is reused, empty, from call to call.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import combinations
from math import comb
from operator import add
from typing import Optional, Sequence

from ._spectrum import KernelState, spectrum_search
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
    # the counters sum over every row the call searched
    nodes: int
    kernel_calls: int  # spectrum_search calls, each row's final extremal check included
    cache_hits: int  # freeness checks answered from an earlier check


_KERNEL_BUDGET = 10**7  # per freeness check; instances here are tiny


def _find_cycle(
    n: int,
    edges: Sequence[tuple[int, ...]],
    ell: int,
    live: KernelState,
    through: Optional[tuple[int, ...]] = None,
):
    """One Berge ell-cycle of `edges` as (spine, assignment), or None. With
    `through`, `edges` minus that edge must already be known free, and only
    cycles assigning it are searched. `live` is the search's kernel state."""
    hits, _, exhausted = spectrum_search(
        n, tuple(edges), ell, ell, _KERNEL_BUDGET, through, live
    )
    if exhausted:
        raise PreconditionUnmet("freeness check ran out of budget")
    return hits[0][1:] if hits else None


def turan_exhaustive(n: int, r: int, ell: int, budget: int = 10**8) -> TuranRecord:
    """Maximum edge count of an n-vertex r-graph with no Berge cycle of
    length ell, plus one extremal example. `exact` is False only when the
    node budget ran out; the best found is then a lower bound.

    For ell >= 3 the rows m = r .. n-1 are searched first, each bounded by
    the row below it. All rows share `budget`, so the call spends at most
    budget + 1 nodes, and the record's counters sum over every row. When a
    row runs out, the record holds the largest family any row found, which
    is free on n vertices too."""
    if r < 2:
        raise PreconditionUnmet(f"edge size r = {r} is below 2")
    if n < 0:
        raise PreconditionUnmet(f"vertex count n = {n} is negative")
    if r == 3 and n > 10:
        raise PreconditionUnmet("desk-scale ceiling: n <= 10 for r = 3")
    if ell < 2:
        raise PreconditionUnmet("forbidden length must be at least 2")
    if budget < 0:
        raise PreconditionUnmet(f"budget {budget} is negative")
    below = best = None
    nodes = kernel_calls = cache_hits = 0
    for m in (*range(r, n), n) if ell >= 3 else (n,):
        row = _search_row(m, r, ell, budget - nodes, below)
        nodes += row.nodes
        kernel_calls += row.kernel_calls
        cache_hits += row.cache_hits
        if best is None or row.value >= best.value:
            best = row
        if not row.exact:
            break
        below = row.value
    return replace(
        row,
        n=n,
        value=best.value,
        extremal=Hypergraph.from_edges(n, best.extremal.edges, uniformity=r),
        nodes=nodes,
        kernel_calls=kernel_calls,
        cache_hits=cache_hits,
    )


def _search_row(n: int, r: int, ell: int, budget: int, below: Optional[int]) -> TuranRecord:
    """The branch and bound of row n; `below` is ex(n-1) when known."""
    universe = list(combinations(range(n), r))
    # Frontier table. Edge e at position p brings in its vertices >= the
    # frontier in order exactly when the frontier is at least start[p], the
    # first vertex of e's last run of consecutive ids; the frontier then
    # becomes past[p] (e's largest vertex + 1) or stays where it is.
    start: list[int] = []
    for e in universe:
        i = len(e) - 1
        while i and e[i - 1] == e[i] - 1:
            i -= 1
        start.append(e[i])
    past = [e[-1] + 1 for e in universe]
    # for ell == 2 the edges cover disjoint pairs, so at most this many fit
    pair_cap = comb(n, 2) // comb(r, 2)
    # Degree bound: a free family of V edges keeps V - ex(n-1) edges at each
    # vertex, so one that beats `best` needs every degree >= need. deg[v]
    # counts the chosen edges holding v, left[p][v] the positions >= p
    # holding v; the C(n, r) x n table is built only when the bound can bind.
    deg = [0] * n
    need = 0  # never binds without ex(n-1)
    left: list[list[int]] = []
    if below is not None:
        left.append([0] * n)
        for e in reversed(universe):
            row = list(left[-1])
            for v in e:
                row[v] += 1
            left.append(row)
        left.reverse()
    best: list[tuple[int, ...]] = []
    nodes = 0
    exhausted = False
    chosen: list[tuple[int, ...]] = []
    chosen_pos: list[int] = []  # universe position of each chosen edge
    # Cycle nogoods, watched at their largest position q: watch[q] maps a
    # mask to the positions p it is a nogood of. armed[p] counts the nogoods
    # of p inside `chosen`, and armed_at[q] holds the watch lists armed
    # while q is in `chosen`. Free masks: the k-th mask filed for p sets
    # bit k of free[p][i] for each of its positions i; nfree[p] counts them.
    watch: list[dict[int, list[int]]] = [{} for _ in universe]
    armed = [0] * len(universe)
    armed_at: list[list[list[int]]] = [[] for _ in universe]
    free: list[dict[int, int]] = [{} for _ in universe]
    nfree = [0] * len(universe)
    # the positions whose edge holds the pair (a, b), a < b, in order
    pair_at: dict[tuple[int, int], list[int]] = {}
    for p, e in enumerate(universe):
        for pair in combinations(e, 2):
            pair_at.setdefault(pair, []).append(p)
    kernel_calls = cache_hits = 0
    live = KernelState(n)  # follows `chosen` from one kernel call to the next

    def chosen_free(p: int) -> bool:
        """`chosen`, whose last edge sits at p, has no Berge ell-cycle;
        chosen[:-1] is known free."""
        nonlocal kernel_calls, cache_hits
        if ell == 2:
            return no_pair_twice(chosen)
        if armed[p]:
            cache_hits += 1
            return False
        holders = free[p]
        if holders:
            alive = -1  # the free masks of p holding every chosen position
            for i in chosen_pos:
                alive &= holders.get(i, 0)
                if not alive:
                    break
            else:
                cache_hits += 1
                return True
        kernel_calls += 1
        found = _find_cycle(n, chosen, ell, live, universe[p])
        if found is None:
            bit = 1 << nfree[p]
            nfree[p] += 1
            holders = free[p]
            for i in chosen_pos:
                holders[i] = holders.get(i, 0) | bit
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
        # c, the other edges, closes the same cycle with any edge on the
        # new edge's spine pair (a, b) that c does not hold: every position
        # past q holding a and b. c lies in `chosen`, so the nogood is armed
        # at once for each of them and disarmed when its watch q leaves.
        i = assign.index(len(chosen) - 1)
        a, b = sorted((spine[i], spine[(i + 1) % ell]))
        c = sum(1 << chosen_pos[ei] for ei in assign if chosen_pos[ei] != p)
        q = c.bit_length() - 1
        group = watch[q].get(c)
        if group is None:
            watch[q][c] = group = []
            armed_at[q].append(group)
        holders = pair_at[a, b]
        for p2 in holders[bisect_right(holders, q):]:
            if p2 not in group:  # a known group was armed when q entered
                group.append(p2)
                armed[p2] += 1
        return False

    # Depth-first search as a loop, keep before skip: each node either keeps
    # universe[pos] and descends, or moves on to the node that skips it.
    # `stack` holds each kept edge's position and the frontier before it;
    # a finished subtree drops the top edge and resumes with its skip node.
    stack: list[tuple[int, int]] = []
    pos = frontier = mask = 0
    while True:
        nodes += 1
        if nodes > budget:
            exhausted = True
            break
        if len(chosen) > len(best):
            best = list(chosen)
            if below is not None:
                need = len(best) + 1 - below
        remaining = len(universe) - pos
        if ell == 2:
            remaining = min(remaining, pair_cap - len(chosen))
        if (
            pos < len(universe)
            and len(chosen) + remaining > len(best)
            and (need <= 0 or min(map(add, deg, left[pos])) >= need)
        ):
            if frontier < start[pos]:
                pos += 1
                continue
            chosen.append(universe[pos])
            chosen_pos.append(pos)
            # chosen[:-1] passed this check when each edge was kept
            if chosen_free(pos):
                # arm the nogoods watched here that `chosen` now holds
                mask |= 1 << pos
                log = armed_at[pos]
                for c, group in watch[pos].items():
                    if c & mask == c:
                        for p in group:
                            armed[p] += 1
                        log.append(group)
                for v in universe[pos]:
                    deg[v] += 1
                stack.append((pos, frontier))
                frontier = max(frontier, past[pos])
                pos += 1
                continue
        elif stack:
            pos, frontier = stack.pop()
            log = armed_at[pos]
            for group in log:
                for p in group:
                    armed[p] -= 1
            log.clear()
            mask ^= 1 << pos
            for v in universe[pos]:
                deg[v] -= 1
        else:
            break
        chosen_pos.pop()
        chosen.pop()
        pos += 1
    extremal = Hypergraph.from_edges(n, best, uniformity=r)
    if ell == 2:
        extremal_free = no_pair_twice(list(extremal.edges))
    else:
        kernel_calls += 1
        extremal_free = _find_cycle(n, extremal.edges, ell, live) is None
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
