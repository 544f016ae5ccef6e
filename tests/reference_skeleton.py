"""``build_skeleton`` as ``berkline.skeleton`` computed it before the tree was
read off one table of pairwise distances: the test oracle.

This version computes every distance in its duplicate check, then again for
each group's branch radius and for each class in ``partition``, and finds
the leaves by counting vertex degrees.  ``build_skeleton`` and ``_sort_key``
are kept verbatim; ``tests/test_skeleton_reference.py`` checks the library
against them.
"""

from __future__ import annotations

from berkline.errors import DuplicateCenters, PointOutsideDisc
from berkline.logvalue import INFINITY, ZERO, LogValue
from berkline.points import DiscPoint, _dist
from berkline.skeleton import Skeleton


def _sort_key(pt: DiscPoint):
    s = pt.s
    if s.is_infinite:
        return (1, 0, 0, pt.center.canonical_str())
    return (0, s.q, s.e, pt.center.canonical_str())


def build_skeleton(A, s_floor=INFINITY) -> Skeleton:
    """Skeleton spanned by the centers A, leaves truncated at s_floor.

    Centers must lie in the unit disc, v(a) >= 0, and stay distinct at the
    leaf depth: v(a - b) < s_floor for all pairs, else the leaf discs
    coincide as points.
    """
    A = list(A)
    if not A:
        raise DuplicateCenters("need at least one center")
    for i, a in enumerate(A):
        if a.valuation_lower_bound() < 0:
            raise PointOutsideDisc(f"center {a!r} outside the unit disc", witness=i)
    for i in range(len(A)):
        for j in range(i + 1, len(A)):
            d = _dist(A[i], A[j])
            if d >= s_floor:
                raise DuplicateCenters(
                    f"centers {A[i]!r} and {A[j]!r} coincide at depth {s_floor}",
                    witness=[i, j],
                )

    verts = []
    edges = []

    def canonical(group):
        return min(group, key=lambda a: a.canonical_str())

    def add_vertex(pt):
        verts.append(pt)
        return len(verts) - 1

    def partition(group, level: LogValue):
        """Classes of the relation v(a-b) > level."""
        classes = []
        for a in group:
            for cls in classes:
                if _dist(a, cls[0]) > level:
                    cls.append(a)
                    break
            else:
                classes.append([a])
        return classes

    def attach(group, parent_idx):
        # invariant: all pairwise distances in group exceed s(parent)
        if len(group) == 1:
            leaf = add_vertex(DiscPoint(group[0], s_floor))
            edges.append((leaf, parent_idx))
            return
        m = min(
            _dist(group[i], group[j])
            for i in range(len(group))
            for j in range(i + 1, len(group))
        )
        node = add_vertex(DiscPoint(canonical(group), m))
        edges.append((node, parent_idx))
        for cls in partition(group, m):
            attach(cls, node)

    root = add_vertex(DiscPoint(canonical(A), ZERO))
    for cls in partition(A, ZERO):
        attach(cls, root)

    # stable renumbering: sort by (s, serialized center)
    order = sorted(range(len(verts)), key=lambda i: _sort_key(verts[i]))
    renum = {old: new for new, old in enumerate(order)}
    vertices = tuple(verts[i] for i in order)
    new_edges = tuple(sorted((renum[c], renum[p]) for c, p in edges))
    new_root = renum[root]
    degree = {}
    for c, p in new_edges:
        degree[c] = degree.get(c, 0) + 1
        degree[p] = degree.get(p, 0) + 1
    leaves = tuple(
        i for i in range(len(vertices))
        if degree.get(i, 0) == 1 and i != new_root
    )
    return Skeleton(vertices, new_edges, new_root, leaves)
