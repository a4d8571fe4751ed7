"""Maximal extendable skeletons of 3-graphs.

A skeleton is a tree in the shadow grown by a modified breadth-first
search: scanning the queue-head vertex's unread edges in canonical order,
each edge either attaches one new vertex (and is consumed as that tree
edge's image) or is classified on the spot. When the head u, on level l,
reads an edge whose other two vertices are already in the tree, neither of
them has been dequeued (it would have read the edge first), so both sit on
level l or l + 1, and the edge goes to the one class the pair of levels
names: within_l, up_l or down_{l+1}. The build stores what it saw, once:
the level map, the three classes (each level sorted) and the set of edges
it read, so no later step scans the tree's incidence lists or rebuilds
these. The common-ancestor frame used by the cycle builders also lives
here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import ClassificationFailure, PreconditionUnmet, WNotInTree
from .graphs import Pair, norm_edge
from .hypergraph import Hypergraph, incidence


@dataclass(frozen=True)
class LevelEdgeClasses:
    """Per level i: down (2 here + 1 below), within (all here),
    up (2 here + 1 above); every non-tree edge the build read sits in exactly one.
    """

    down: tuple[tuple[int, ...], ...]
    within: tuple[tuple[int, ...], ...]
    up: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Skeleton:
    root: int
    parent: dict[int, int]            # vertex -> parent (root -> -1)
    edge_for: dict[Pair, int]         # tree edge -> consumed hyperedge index
    levels: tuple[tuple[int, ...], ...]
    # What the build saw, set once, left out of == and repr and not to be
    # mutated: vertex -> level; the classes, each level sorted and padded to
    # height + 2 levels; every edge read (the tree images and the classified
    # edges, that is every active edge meeting the tree).
    level_of: dict[int, int] = field(repr=False, compare=False)
    classes: LevelEdgeClasses = field(repr=False, compare=False)
    read: set[int] = field(repr=False, compare=False)

    @property
    def height(self) -> int:
        return len(self.levels) - 1

    def tree_path(self, anc: int, v: int) -> list[int]:
        """Vertices from anc down to v along the tree; anc must be an ancestor."""
        up = path_to_root(self.parent, v)
        if anc not in up:
            raise WNotInTree(f"{anc} is not an ancestor of {v}")
        return list(reversed(up[: up.index(anc) + 1]))

    def spine_edges(self, vertex_path: Sequence[int]) -> list[int]:
        """Hyperedge images of consecutive tree edges along a vertex path."""
        return [self.edge_for[norm_edge(a, b)] for a, b in zip(vertex_path, vertex_path[1:])]


def path_to_root(parent: dict[int, int], v: int) -> list[int]:
    """Vertices from v up to the root of a parent map (the root maps to -1)."""
    path = [v]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    return path


def build_skeleton(
    H: Hypergraph, root: int, active_edges: Optional[Iterable[int]] = None
) -> Skeleton:
    """Run the modified BFS from `root` over the given (default: all) edges.

    Deterministic: edges are scanned in canonical index order and, when an
    edge offers two new vertices, the smaller id is attached. An edge read
    from the head u on level l whose other vertices x, y are both in the
    tree has them on levels l or l + 1, as neither is dequeued yet: levels
    (l, l) file it under within_l, (l, l + 1) under up_l and (l + 1, l + 1)
    under down_{l+1}; any other pair raises ClassificationFailure. The
    skeleton keeps the level map, the classes and the read set it built.
    """
    if H.uniformity != 3:
        raise PreconditionUnmet("skeletons are built on 3-graphs")
    if not (0 <= root < H.n):
        raise PreconditionUnmet(f"root {root} out of range")
    if active_edges is None:
        active = range(len(H.edges))
    elif isinstance(active_edges, (set, frozenset)):
        active = active_edges
    else:
        active = set(active_edges)
    inc = incidence(H)
    edges = H.edges
    parent: dict[int, int] = {root: -1}
    level: dict[int, int] = {root: 0}
    edge_for: dict[Pair, int] = {}
    read: set[int] = set()
    down: list[list[int]] = [[]]
    within: list[list[int]] = [[]]
    up: list[list[int]] = [[]]
    q: deque[int] = deque([root])
    while q:
        u = q[0]
        l = level[u]
        for ei in inc[u]:
            if ei in read or ei not in active:
                continue
            read.add(ei)
            a, b, c = edges[ei]
            # x < y are the edge's vertices other than u; the smaller fresh one is attached
            x, y = (b, c) if a == u else (a, c) if b == u else (a, b)
            if x not in parent:
                v = x
            elif y not in parent:
                v = y
            else:
                lx, ly = level[x], level[y]
                if lx == ly == l:
                    within[l].append(ei)
                elif lx == ly == l + 1:
                    down[l + 1].append(ei)
                elif (lx, ly) in ((l, l + 1), (l + 1, l)):
                    up[l].append(ei)
                else:
                    raise ClassificationFailure(
                        f"edge {ei} read from level {l} meets levels {lx} and {ly}"
                    )
                continue
            parent[v] = u
            level[v] = l + 1
            edge_for[(u, v) if u < v else (v, u)] = ei
            q.append(v)
            if len(down) == l + 1:  # v opens a level
                down.append([])
                within.append([])
                up.append([])
        q.popleft()
    levels: list[list[int]] = [[] for _ in down]
    for v, l in level.items():
        levels[l].append(v)
    return Skeleton(
        root=root,
        parent=parent,
        edge_for=edge_for,
        levels=tuple(map(tuple, map(sorted, levels))),
        level_of=level,
        classes=LevelEdgeClasses(
            *(tuple(map(tuple, map(sorted, lists))) + ((),) for lists in (down, within, up))
        ),
        read=read,
    )


def classify_levels(H: Hypergraph, sk: Skeleton) -> LevelEdgeClasses:
    """The non-tree edges the build read, by level class: `sk.classes`."""
    if H.uniformity != 3:
        raise PreconditionUnmet("level classes are built on 3-graphs")
    return sk.classes


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
