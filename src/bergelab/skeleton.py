"""Maximal extendable skeletons of 3-graphs.

A skeleton is a tree in the shadow grown by a modified breadth-first
search: scanning the queue-head vertex's unseen edges in canonical order,
each edge either attaches one new vertex (and is consumed as that tree
edge's image) or is discarded. Level sets, the classification of the
remaining incident edges into the three per-level classes, and the
common-ancestor frame used by the cycle builders all live here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import ClassificationFailure, PreconditionUnmet, WNotInTree
from .graphs import Pair, norm_edge
from .hypergraph import Hypergraph, incidence


@dataclass(frozen=True)
class Skeleton:
    root: int
    parent: dict[int, int]            # vertex -> parent (root -> -1)
    edge_for: dict[Pair, int]         # tree edge -> consumed hyperedge index
    levels: tuple[tuple[int, ...], ...]
    # vertex -> level, built once by level_of(); left out of __init__ and ==
    _level_of: Optional[dict[int, int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def height(self) -> int:
        return len(self.levels) - 1

    def tree_vertices(self) -> set[int]:
        return set(self.parent)

    def level_of(self) -> dict[int, int]:
        """Vertex -> level; one shared map per skeleton, not to be mutated."""
        if self._level_of is None:
            out = {v: i for i, lv in enumerate(self.levels) for v in lv}
            object.__setattr__(self, "_level_of", out)
        return self._level_of

    def tree_edge_images(self) -> set[int]:
        return set(self.edge_for.values())

    def tree_path(self, anc: int, v: int) -> list[int]:
        """Vertices from anc down to v along the tree; anc must be an ancestor."""
        up = path_to_root(self.parent, v)
        if anc not in up:
            raise WNotInTree(f"{anc} is not an ancestor of {v}")
        return list(reversed(up[: up.index(anc) + 1]))

    def spine_edges(self, vertex_path: Sequence[int]) -> list[int]:
        """Hyperedge images of consecutive tree edges along a vertex path."""
        return [self.edge_for[norm_edge(a, b)] for a, b in zip(vertex_path, vertex_path[1:])]


@dataclass(frozen=True)
class LevelEdgeClasses:
    """Per level i: down (2 here + 1 below), within (all here),
    up (2 here + 1 above); every surviving incident edge sits in exactly one.
    """

    down: tuple[tuple[int, ...], ...]
    within: tuple[tuple[int, ...], ...]
    up: tuple[tuple[int, ...], ...]


def path_to_root(parent: dict[int, int], v: int) -> list[int]:
    """Vertices from v up to the root of a parent map (the root maps to -1)."""
    path = [v]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    return path


def _active_set(H: Hypergraph, active_edges: Optional[Iterable[int]]):
    """Membership view of the active edge ids; a set is used as given."""
    if active_edges is None:
        return range(len(H.edges))
    if isinstance(active_edges, (set, frozenset)):
        return active_edges
    return set(active_edges)


def build_skeleton(
    H: Hypergraph, root: int, active_edges: Optional[Iterable[int]] = None
) -> Skeleton:
    """Run the modified BFS from `root` over the given (default: all) edges.

    Deterministic: edges are scanned in canonical index order and, when an
    edge offers two new vertices, the smaller id is attached.
    """
    if H.uniformity != 3:
        raise PreconditionUnmet("skeletons are built on 3-graphs")
    if not (0 <= root < H.n):
        raise PreconditionUnmet(f"root {root} out of range")
    active = _active_set(H, active_edges)
    inc = incidence(H)
    edges = H.edges
    parent: dict[int, int] = {root: -1}
    level: dict[int, int] = {root: 0}
    edge_for: dict[Pair, int] = {}
    processed: set[int] = set()
    q: deque[int] = deque([root])
    while q:
        u = q[0]
        for ei in inc[u]:
            if ei in processed or ei not in active:
                continue
            processed.add(ei)
            a, b, c = edges[ei]
            # x < y are the edge's vertices other than u; the smaller fresh one is attached
            x, y = (b, c) if a == u else (a, c) if b == u else (a, b)
            if x not in parent:
                v = x
            elif y not in parent:
                v = y
            else:
                continue
            parent[v] = u
            level[v] = level[u] + 1
            edge_for[(u, v) if u < v else (v, u)] = ei
            q.append(v)
        q.popleft()
    levels: list[list[int]] = [[] for _ in range(max(level.values()) + 1)]
    for v, l in level.items():
        levels[l].append(v)
    return Skeleton(
        root=root,
        parent=parent,
        edge_for=edge_for,
        levels=tuple(tuple(sorted(lv)) for lv in levels),
    )


def classify_levels(
    H: Hypergraph, sk: Skeleton, active_edges: Optional[Iterable[int]] = None
) -> LevelEdgeClasses:
    """Assign every non-tree edge meeting the tree to its unique level class.

    Only the tree vertices' incidence lists are read, so the cost follows the
    edges meeting the tree, not the size of `active_edges`.
    """
    if H.uniformity != 3:
        raise PreconditionUnmet("level classes are built on 3-graphs")
    active = _active_set(H, active_edges)
    tree_images = sk.tree_edge_images()
    level_of = sk.level_of()
    inc = incidence(H)
    edges = H.edges
    meeting = sorted({ei for v in level_of for ei in inc[v] if ei in active})
    h = sk.height
    down: list[list[int]] = [[] for _ in range(h + 2)]
    within: list[list[int]] = [[] for _ in range(h + 2)]
    up: list[list[int]] = [[] for _ in range(h + 2)]
    residual: list[int] = []
    for ei in meeting:
        if ei in tree_images:
            continue
        a, b, c = edges[ei]
        la, lb, lc = level_of.get(a), level_of.get(b), level_of.get(c)
        if la is None or lb is None or lc is None:
            residual.append(ei)
            continue
        # l is the level two of the vertices share, o the third vertex's level
        if la == lb:
            l, o = la, lc
        elif la == lc:
            l, o = la, lb
        elif lb == lc:
            l, o = lb, la
        else:
            residual.append(ei)
            continue
        if o == l:
            within[l].append(ei)
        elif o == l - 1:
            down[l].append(ei)
        elif o == l + 1:
            up[l].append(ei)
        else:
            residual.append(ei)
    if residual:
        raise ClassificationFailure(
            f"{len(residual)} incident edges fit no class: {residual[:5]}"
        )
    return LevelEdgeClasses(
        down=tuple(tuple(x) for x in down),
        within=tuple(tuple(x) for x in within),
        up=tuple(tuple(x) for x in up),
    )


def frame_from_parent(
    parent: dict[int, int], W: Sequence[int]
) -> Optional[tuple[int, dict[int, int], tuple[int, ...]]]:
    """Generic common-ancestor frame over a parent map (root maps to -1).

    Returns (anchor, color_of, branch_children) or None when W sits on a
    single branch below its deepest common ancestor. color_of covers every
    vertex on an anchor-to-W path except the anchor, split 1 vs 2 by
    whether it descends through the smallest child.
    """
    paths = {w: path_to_root(parent, w)[::-1] for w in sorted(set(W))}  # root .. w
    depth = 0
    while True:
        tokens = {p[depth] if depth < len(p) else None for p in paths.values()}
        if len(tokens) != 1 or None in tokens:
            break
        depth += 1
    children = {p[depth] for p in paths.values() if len(p) > depth}
    if len(children) < 2:
        return None
    anchor = next(iter(paths.values()))[depth - 1]
    first = min(children)
    color: dict[int, int] = {}
    for p in paths.values():
        if len(p) <= depth:
            continue  # this W-member is the anchor itself; it gets no color
        branch_color = 1 if p[depth] == first else 2
        for v in p[depth:]:
            color[v] = branch_color
    return anchor, color, tuple(sorted(children))
