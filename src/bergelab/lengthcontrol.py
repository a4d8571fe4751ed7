"""Length-controlled search on linear 3-graphs: a single skeleton with
relaxed per-level gates, instrumented so the forced level growth is visible
in the report. Above threshold, a search whose every level certifies would
contradict that growth, so it raises instead of returning; a returned report
never carries a contradiction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InternalProofFailure, NotLinear, PreconditionUnmet
from .finder import ConsecutiveRun, cycles_from_down_edges, cycles_or_level_bound
from .hypergraph import Hypergraph, is_linear, peel
from .skeleton import build_skeleton, classify_levels


@dataclass(frozen=True)
class LevelReport:
    level: int
    size: int
    down: int
    level_mass: int
    certified: bool
    growth_ok: Optional[bool]  # |L_{i+1}|^h >= |L_i|^h * n, None when uncheckable


@dataclass(frozen=True)
class LevelGrowthReport:
    n: int
    edge_count: int
    k: int
    h: int
    threshold_met: bool
    core_min_degree: int
    levels: tuple[LevelReport, ...]


def threshold_met(H: Hypergraph, k: int, h: int) -> bool:
    """|H| >= 18k n^(1+1/h) + 42k n, compared exactly in integers."""
    n, m = H.n, len(H.edges)
    lhs = m - 42 * k * n
    if lhs < 0:
        return False
    return lhs**h >= (18 * k) ** h * n ** (h + 1)


def length_controlled_search(
    H: Hypergraph, k: int, h: int
) -> tuple[Optional[ConsecutiveRun], LevelGrowthReport]:
    """Try to force a run whose shortest cycle has length at most 2h.

    Relaxed gates: the down route fires beyond 2k|L_i|, the level dichotomy
    beyond 4k|L_i| + 4k|L_{i+1}|; both imply the stricter per-level bounds for
    k >= 2, and both produce shortest lengths at most 2h when fired at
    levels below h. When every level below h certifies, the report carries
    the growth ratios that, above threshold, would force |L_h| >= n.
    """
    if H.uniformity != 3:
        raise PreconditionUnmet("need a 3-graph")
    if not is_linear(H):
        raise NotLinear("need a linear 3-graph")
    if k < 2 or h < 2:
        raise PreconditionUnmet("need k >= 2 and h >= 2")
    met = threshold_met(H, k, h)
    all_ids = list(range(len(H.edges)))
    if not all_ids:
        report = LevelGrowthReport(H.n, 0, k, h, met, 0, ())
        return None, report
    core_deg, core_ids = peel(H, all_ids)
    core_min = min(core_deg.values())
    root = min(core_deg)
    sk = build_skeleton(H, root, active_edges=core_ids)
    classes = classify_levels(H, sk)

    run: Optional[ConsecutiveRun] = None
    levels: list[LevelReport] = []
    top = min(h - 1, sk.height)
    for i in range(1, top + 1):
        li = len(sk.levels[i])
        li1 = len(sk.levels[i + 1]) if i + 1 <= sk.height else 0
        down = len(classes.down[i])
        mass = len(classes.within[i]) + len(classes.up[i])
        certified = True
        if down > 2 * k * li:
            run = cycles_from_down_edges(H, sk, i, k)
            certified = False
        elif mass > 4 * k * li + 4 * k * li1:
            # at k >= 2 this passes the level bound, so a LevelEdgeBound would raise
            run = cycles_or_level_bound(H, sk, i, k)
            certified = False
        growth = None
        if certified and li > 0 and li1 > 0:
            growth = li1**h >= li**h * H.n
        levels.append(LevelReport(i, li, down, mass, certified, growth))
        if run is not None:
            break

    if run is None and met and all(lv.certified for lv in levels):
        lh = len(sk.levels[h]) if h <= sk.height else 0
        raise InternalProofFailure(
            "level growth",
            f"all levels below {h} certified; forced growth would require "
            f"|L_{h}| >= {H.n}, but |L_{h}| = {lh}",
        )
    if run is not None and run.lengths()[0] > 2 * h:
        raise InternalProofFailure(
            "length control", f"shortest {run.lengths()[0]} above {2 * h}"
        )
    report = LevelGrowthReport(
        n=H.n,
        edge_count=len(H.edges),
        k=k,
        h=h,
        threshold_met=met,
        core_min_degree=core_min,
        levels=tuple(levels),
    )
    return run, report
