"""Maximal extendable skeletons of 3-graphs.

A skeleton is a tree in the shadow grown by a modified breadth-first
search: scanning the queue-head vertex's unread edges in canonical order,
each edge either attaches one new vertex (and is consumed as that tree
edge's image) or is classified on the spot. When the head u, on level l,
reads an edge whose other two vertices are already in the tree, neither of
them has been dequeued (it would have read the edge first), so both sit on
level l or l + 1, and the edge goes to the one class the pair of levels
names: within_l, up_l or down_{l+1}. The edges it may read come as a
byte mask, one byte per edge, 1 for an edge not yet read; the build clears
each edge's byte as it reads it, so a caller's mask leaves the build without
the tree's incident edges. The queue is the levels themselves: the heads
are dequeued level by level, in attach order. A caller that only wants
the first level l whose down class is heavy (|down_l| >= heavy * |L_l|)
can stop the build there, before any head on level l reads: L_l and
down_l are final once the heads on level l - 1 have read. The build
stores what it saw, once and in the order it saw it: the levels in attach
order, the level map, the three classes and the edges it read, in read
order, so no later step scans the tree's incidence lists or rebuilds
these. The common-ancestor frame used by the cycle builders, and its
closure of a walk into a cycle through the tree, also live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import ClassificationFailure, PreconditionUnmet
from .graphs import Pair
from .hypergraph import Hypergraph, incidence


@dataclass(frozen=True)
class LevelEdgeClasses:
    """Per level i: down (2 here + 1 below), within (all here),
    up (2 here + 1 above); every non-tree edge the build read sits in exactly one.
    """

    down: list[list[int]]
    within: list[list[int]]
    up: list[list[int]]


@dataclass  # not frozen: that costs an object.__setattr__ per field on every build
class Skeleton:
    root: int
    parent: dict[int, int]            # vertex -> parent (root -> -1)
    edge_for: dict[Pair, int]         # tree edge -> consumed hyperedge index
    levels: list[list[int]]           # per level, its vertices in attach order
    # What the build saw, set once, left out of == and repr and not to be
    # mutated: vertex -> level; the classes, one list per level in read
    # order; every edge read, once each and in read order (the tree images
    # and the classified edges, that is every edge of the mask meeting the
    # tree unless the build stopped at a heavy level, and exactly the edges
    # whose bytes the build cleared).
    level_of: dict[int, int] = field(repr=False, compare=False)
    classes: LevelEdgeClasses = field(repr=False, compare=False)
    read: list[int] = field(repr=False, compare=False)

    @property
    def height(self) -> int:
        return len(self.levels) - 1


def build_skeleton(
    H: Hypergraph, root: int, live: Optional[bytearray] = None, heavy: Optional[int] = None
) -> Skeleton:
    """Run the modified BFS from `root` over the edges whose byte in `live`
    is set (default: all edges), clearing each edge's byte as it reads it.

    Deterministic: edges are scanned in canonical index order and, when an
    edge offers two new vertices, the smaller id is attached. An edge read
    from the head u on level l whose other vertices x, y are both in the
    tree has them on levels l or l + 1, as neither is dequeued yet: levels
    (l, l) file it under within_l, (l, l + 1) under up_l and (l + 1, l + 1)
    under down_{l+1}; any other pair raises ClassificationFailure. The
    skeleton keeps the levels and the classes in the order the build met
    their members, with the level map and the read list it built.

    The heads are dequeued level by level, so once every head on level
    l - 1 has read, L_l and down_l are final. With `heavy` set, the build
    stops there at the first level l >= 1 with |down_l| >= heavy * |L_l|:
    the skeleton holds levels 0..l, within_l and up_l are empty, and the
    edges that heads on level l or deeper would read keep their bytes.
    """
    if H.uniformity != 3:
        raise PreconditionUnmet("skeletons are built on 3-graphs")
    if not (0 <= root < H.n):
        raise PreconditionUnmet(f"root {root} out of range")
    if live is None:
        live = bytearray(b"\x01") * len(H.edges)
    inc = incidence(H)
    edges = H.edges
    parent: dict[int, int] = {root: -1}
    level: dict[int, int] = {root: 0}
    edge_for: dict[Pair, int] = {}
    read: list[int] = []
    levels: list[list[int]] = [[root]]
    down: list[list[int]] = [[]]
    within: list[list[int]] = []
    up: list[list[int]] = []
    for l, heads in enumerate(levels):  # the BFS queue: `levels` grows as heads attach
        within_l: list[int] = []
        up_l: list[int] = []
        within.append(within_l)
        up.append(up_l)
        if l and heavy is not None and len(down[l]) >= heavy * len(heads):
            break
        nxt: list[int] = []
        down_nxt: list[int] = []
        for u in heads:
            for ei in inc[u]:
                if not live[ei]:
                    continue
                live[ei] = 0
                read.append(ei)
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
                        within_l.append(ei)
                    elif lx == ly == l + 1:
                        down_nxt.append(ei)
                    elif (lx, ly) in ((l, l + 1), (l + 1, l)):
                        up_l.append(ei)
                    else:
                        raise ClassificationFailure(
                            f"edge {ei} read from level {l} meets levels {lx} and {ly}"
                        )
                    continue
                parent[v] = u
                level[v] = l + 1
                edge_for[(u, v) if u < v else (v, u)] = ei
                nxt.append(v)
        if nxt:  # down_{l+1} needs two vertices on level l + 1
            levels.append(nxt)
            down.append(down_nxt)
    return Skeleton(
        root=root,
        parent=parent,
        edge_for=edge_for,
        levels=levels,
        level_of=level,
        classes=LevelEdgeClasses(down, within, up),
        read=read,
    )


def classify_levels(H: Hypergraph, sk: Skeleton) -> LevelEdgeClasses:
    """The non-tree edges the build read, by level class: `sk.classes`."""
    if H.uniformity != 3:
        raise PreconditionUnmet("level classes are built on 3-graphs")
    return sk.classes


class Frame(NamedTuple):
    """W's common-ancestor frame. `paths[w]` runs from the root down to w,
    and `paths[w][top]` is the anchor, W's deepest common ancestor, for
    every w in W. `color` covers every vertex below the anchor on those
    paths: 1 on the branch through the anchor's smallest child, 2 on the
    others."""

    color: dict[int, int]
    paths: dict[int, list[int]]
    top: int

    def close(self, walk: Sequence[int]) -> list[int]:
        """The cycle that runs from the anchor down to walk[0], along the walk
        to walk[-1], then up from walk[-1]'s parent to the anchor's child;
        both ends of the walk lie in W."""
        paths, top = self.paths, self.top
        return paths[walk[0]][top:] + list(walk[1:]) + paths[walk[-1]][top + 1 : -1][::-1]


def frame_from_parent(parent: dict[int, int], W: Iterable[int]) -> Optional[Frame]:
    """The common-ancestor frame of W over a parent map (the root maps to -1),
    or None when W is empty or its anchor lies in W: W is one vertex, lies
    on a single branch, or hangs below one of its own members. Otherwise
    every w in W lies strictly below the anchor, and `paths[w][top:]` runs
    from the anchor down to w."""
    paths: dict[int, list[int]] = {}
    for w in W:
        up = [w]
        while parent[up[-1]] != -1:
            up.append(parent[up[-1]])
        paths[w] = up[::-1]  # root .. w
    depth = 0
    while True:
        tokens = {p[depth] if depth < len(p) else None for p in paths.values()}
        if len(tokens) != 1 or None in tokens:
            break
        depth += 1
    # tokens: the anchor's children on the paths, and None if a path ends at the anchor
    if len(tokens) < 2 or None in tokens:
        return None
    first = min(tokens)
    color: dict[int, int] = {}
    for p in paths.values():
        branch_color = 1 if p[depth] == first else 2
        for v in p[depth:]:
            color[v] = branch_color
    return Frame(color, paths, depth - 1)
