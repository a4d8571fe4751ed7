"""Berge path/cycle witnesses, verification, and extendability.

Every constructive routine in the package returns certificates of these
types; verification never trusts the construction that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import EdgeNotInShadow
from .hypergraph import Hypergraph, pair_covers


@dataclass(frozen=True)
class BergeCycleWitness:
    """Cyclic spine v_1..v_l plus distinct edges e_i covering {v_i, v_{i+1}}."""

    spine: tuple[int, ...]
    edges: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.spine)


@dataclass(frozen=True)
class BergePathWitness:
    """Open spine v_1..v_{l+1} plus distinct edges e_i covering {v_i, v_{i+1}}."""

    spine: tuple[int, ...]
    edges: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: Optional[str] = None
    detail: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


_OK = VerifyResult(True)


def _check_assignment(H: Hypergraph, spine_pairs, edges) -> VerifyResult:
    if len(set(edges)) != len(edges):
        return VerifyResult(False, "EdgesNotDistinct")
    for i, (pair, ei) in enumerate(zip(spine_pairs, edges)):
        if not (0 <= ei < len(H.edges)):
            return VerifyResult(False, "EdgeIndexOutOfRange", f"position {i}: {ei}")
        e = H.edges[ei]
        if pair[0] not in e or pair[1] not in e:
            return VerifyResult(
                False, "ContainmentViolated", f"pair {pair} not inside edge {ei} = {e}"
            )
    return _OK


def verify_cycle(H: Hypergraph, w: BergeCycleWitness) -> VerifyResult:
    """True iff the witness invariants all hold against H."""
    l = len(w.spine)
    if l != len(w.edges):
        return VerifyResult(False, "LengthMismatch", f"{l} spine vs {len(w.edges)} edges")
    if l < 2:
        return VerifyResult(False, "TooShort", f"length {l}")
    if len(set(w.spine)) != l:
        return VerifyResult(False, "SpineNotDistinct")
    pairs = [(w.spine[i], w.spine[(i + 1) % l]) for i in range(l)]
    return _check_assignment(H, pairs, w.edges)


def verify_path(H: Hypergraph, w: BergePathWitness) -> VerifyResult:
    if len(w.spine) != len(w.edges) + 1:
        return VerifyResult(
            False, "LengthMismatch", f"{len(w.spine)} spine vs {len(w.edges)} edges"
        )
    if len(w.edges) < 1:
        return VerifyResult(False, "TooShort")
    if len(set(w.spine)) != len(w.spine):
        return VerifyResult(False, "SpineNotDistinct")
    pairs = [(w.spine[i], w.spine[i + 1]) for i in range(len(w.edges))]
    return _check_assignment(H, pairs, w.edges)


@dataclass(frozen=True)
class Extension:
    """Injective assignment of shadow pairs to covering hyperedge indices."""

    mapping: tuple[tuple[tuple[int, int], int], ...]


class Matcher:
    """Injective pair -> covering-edge assignment grown one pair at a time.

    A push whose first covering edge has no owner takes that edge and files
    a `None` trail, which is what the augmenting search would do there.
    Any other push finds an augmenting path (covering edges scanned in the
    order `covers` lists them, a fresh visited set per push). Pop undoes the
    last push: a `None` trail by freeing its edge, any other along its
    recorded path.
    """

    def __init__(self, covers: Mapping[tuple[int, int], Sequence[int]]):
        self.covers = covers
        self.pair_at: list[tuple[int, int]] = []
        self.assign: list[Optional[int]] = []
        self.owner: dict[int, int] = {}
        self.trails: list[Optional[list[tuple[int, Optional[int], int]]]] = []

    def push(self, pair: tuple[int, int]) -> bool:
        cs = self.covers.get(pair)
        if cs and cs[0] not in self.owner:
            e = cs[0]
            self.owner[e] = len(self.pair_at)
            self.pair_at.append(pair)
            self.assign.append(e)
            self.trails.append(None)
            return True
        d = len(self.pair_at)
        self.pair_at.append(pair)
        self.assign.append(None)
        trail: list[tuple[int, Optional[int], int]] = []
        if self._augment(d, set(), trail):
            self.trails.append(trail)
            return True
        self.pair_at.pop()
        self.assign.pop()
        return False

    def _augment(self, d: int, visited: set[int], trail) -> bool:
        for e in self.covers.get(self.pair_at[d], ()):
            if e in visited:
                continue
            visited.add(e)
            holder = self.owner.get(e)
            if holder is None or self._augment(holder, visited, trail):
                trail.append((d, self.assign[d], e))
                self.assign[d] = e
                self.owner[e] = d
                return True
        return False

    def pop(self) -> None:
        trail = self.trails.pop()
        self.pair_at.pop()
        e = self.assign.pop()
        if trail is None:
            del self.owner[e]
            return
        # the trail is the augmenting path from its far end: trail[0] took
        # a free edge, which is freed again, and each step moved pair d from
        # `old` to `new`, so d gets `old` back (the top pair's step, with
        # old None, went with the pops above)
        del self.owner[trail[0][2]]
        for d, old, _ in trail:
            if old is not None:
                self.assign[d] = old
                self.owner[old] = d


def extend(H: Hypergraph, pairs: Iterable[tuple[int, int]]) -> Optional[Extension]:
    """Find an extension of a 2-graph inside the shadow of H, if one exists.

    Maximum bipartite matching (augmenting paths) between the given pairs
    and the hyperedges containing them; deterministic over sorted indices.
    """
    G = sorted({tuple(sorted(p)) for p in pairs})
    cov = pair_covers(H)
    for p in G:
        if p not in cov:
            raise EdgeNotInShadow(f"pair {p} lies in no hyperedge")
    m = Matcher(cov)
    for p in G:
        if not m.push(p):
            return None
    return Extension(tuple(zip(G, m.assign)))
