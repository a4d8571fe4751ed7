"""Berge path/cycle witnesses and their verification.

Every constructive routine in the package returns certificates of these
types; verification never trusts the construction that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .hypergraph import Hypergraph


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
