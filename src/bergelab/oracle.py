"""Brute-force Berge-cycle spectrum oracle over the `_spectrum` kernel."""

from __future__ import annotations

from dataclasses import dataclass

from ._spectrum import spectrum_search
from .certify import BergeCycleWitness, verify_cycle
from .errors import InternalProofFailure, PreconditionUnmet
from .hypergraph import Hypergraph


def kernel_in_use(n: int = 0) -> str:
    """Name of the spectrum kernel that searches an n-vertex instance."""
    return "pure"


@dataclass(frozen=True)
class CycleSpectrum:
    lengths: tuple[int, ...]
    searched_up_to: int
    budget_exhausted: bool
    witnesses: tuple[BergeCycleWitness, ...]
    nodes: int  # kernel nodes spent: attempted pair pushes


def oracle_spectrum(H: Hypergraph, max_len: int, budget: int = 10**7) -> CycleSpectrum:
    """Exhaustively find one verified Berge cycle per length in 3..max_len.

    The node budget is a hard cap on attempted spine extensions; hitting it
    flags the spectrum as partial instead of erring.
    """
    if budget < 0:
        raise PreconditionUnmet(f"budget {budget} is negative")
    if max_len < 0:
        raise PreconditionUnmet(f"max_len {max_len} is negative")
    if max_len > H.n:
        raise PreconditionUnmet(f"max_len {max_len} exceeds vertex count {H.n}")
    hits, nodes, exhausted = spectrum_search(H.n, H.edges, 3, max_len, budget)
    lens, wits = [], []
    for L, spine, assign in hits:
        w = BergeCycleWitness(spine=spine, edges=assign)
        res = verify_cycle(H, w)
        if not res:
            raise InternalProofFailure("oracle witness", res.reason or "")
        lens.append(L)
        wits.append(w)
    return CycleSpectrum(
        lengths=tuple(lens),
        searched_up_to=max_len,
        budget_exhausted=exhausted,
        witnesses=tuple(wits),
        nodes=nodes,
    )

