"""Finite-tree skeletons of the unit disc spanned by a set of centers.

The tree for a finite center set A has the radius-1 Gauss point as root, one
leaf per center (at a chosen leaf depth, classical points by default), and a
branch vertex at every pairwise meet.  Degree-2 subdivision points are not
materialized; they live implicitly on edges.
"""

from __future__ import annotations

from ._record import Record, setfield
from .errors import DuplicateCenters, PointOutsideDisc, ShapeMismatch
from .logvalue import INFINITY, ZERO, as_logvalue
from .points import DiscPoint, _dist
from .sheaf import HostTree


class Skeleton(Record):
    _fields = ("vertices", "edges", "root", "leaves")

    def __init__(self, vertices: tuple, edges: tuple, root: int, leaves: tuple):
        # DiscPoint per vertex, sorted by (s, center string)
        setfield(self, "vertices", vertices)
        # (child_index, parent_index), child is the smaller disc
        setfield(self, "edges", edges)
        setfield(self, "root", root)
        setfield(self, "leaves", leaves)

    @property
    def edge_lengths(self):
        return tuple(
            self.vertices[c].s - self.vertices[p].s for c, p in self.edges
        )

    def children(self, v: int):
        return tuple(c for c, p in self.edges if p == v)

    def is_tree(self) -> bool:
        try:
            HostTree.from_skeleton(self)
        except ShapeMismatch:
            return False
        return True

    def to_dot(self) -> str:
        lines = ["digraph skeleton {"]
        for i, v in enumerate(self.vertices):
            lines.append(
                f'  v{i} [label="a={v.center.canonical_str()}, s={v.s}"];'
            )
        for (c, p), length in zip(self.edges, self.edge_lengths):
            lines.append(f'  v{c} -> v{p} [label="{length}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_skeleton(A, s_floor=INFINITY) -> Skeleton:
    """Skeleton spanned by the centers A, leaves truncated at s_floor.

    Centers must lie in the unit disc, v(a) >= 0, and stay distinct at the
    leaf depth: v(a - b) < s_floor for all pairs, else the leaf discs
    coincide as points.  The duplicate check computes each distance
    v(a - b) once, into the table that the tree is read off.
    """
    A = list(A)
    if not A:
        raise DuplicateCenters("need at least one center")
    for i, a in enumerate(A):
        if a.valuation_lower_bound() < 0:
            raise PointOutsideDisc(f"center {a!r} outside the unit disc", witness=i)
    s_floor = as_logvalue(s_floor)
    n = len(A)
    dist = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = dist[i][j] = dist[j][i] = _dist(A[i], A[j])
            if d >= s_floor:
                raise DuplicateCenters(
                    f"centers {A[i]!r} and {A[j]!r} coincide at depth {s_floor}",
                    witness=[i, j],
                )

    # a vertex is (s, index of its center), the center with the least name
    names = [a.canonical_str() for a in A]
    verts = [(ZERO, min(range(n), key=names.__getitem__))]
    edges = []
    leaves = []

    def attach(group, level, parent):
        # invariant: all pairwise distances in group exceed level = s(parent);
        # each class of the relation v(a - b) > level hangs below parent
        classes = []
        for i in group:
            for cls in classes:
                if dist[i][cls[0]] > level:
                    cls.append(i)
                    break
            else:
                classes.append([i])
        for cls in classes:
            node = len(verts)
            edges.append((node, parent))
            if len(cls) == 1:
                verts.append((s_floor, cls[0]))
                leaves.append(node)
                continue
            m = min(dist[i][j] for k, i in enumerate(cls) for j in cls[k + 1:])
            verts.append((m, min(cls, key=names.__getitem__)))
            attach(cls, m, node)

    attach(range(n), ZERO, 0)

    # stable renumbering: sort by (s, serialized center)
    order = sorted(range(len(verts)),
                   key=lambda k: (verts[k][0], names[verts[k][1]]))
    renum = [0] * len(verts)
    for new, old in enumerate(order):
        renum[old] = new
    return Skeleton(
        tuple(DiscPoint(A[verts[k][1]], verts[k][0]) for k in order),
        tuple(sorted((renum[c], renum[p]) for c, p in edges)),
        renum[0],
        tuple(sorted(renum[v] for v in leaves)),
    )
