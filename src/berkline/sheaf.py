"""Cellular sheaves of Z/n-modules on finite trees and their cohomology.

A sheaf assigns a free Z/n-module to every vertex and every open edge, with a
cospecialization matrix for every closed incidence (vertex end of an edge);
an open end carries no matrix and contributes zero to the differential.  The
cohomology of the two-term complex

    (+) vertex stalks  --d-->  (+) edge stalks,   d(s)|_e = e.child - e.parent

is read off the Smith diagonal d_1, ..., d_k of the integer lift D (b x a,
k = min(a, b)), resting on two facts.  Unimodular changes of basis on both
sides, never computed, turn D into diag(d_1, ..., d_k); they stay
invertible mod n, so the complex mod n is a direct sum of the maps
x -> d_i x on Z/n plus a - k free summands in degree 0 and b - k in
degree 1.  And x -> d x on Z/n has kernel and cokernel both isomorphic to
Z/gcd(d, n).  So H0 and H1 share the orders gcd(d_i, n), each padded with
copies of n; since d_i | d_{i+1} these already form the invariant-factor
chain.
"""

from __future__ import annotations

from math import gcd

from ._record import Record, setfield
from .errors import NotOpenSubtree, RootlessSkeleton, ShapeMismatch
from .snf import smith_normal_form


class HostTree(Record):
    """Rooted finite tree on hashable vertex ids; edges are (child, parent)."""

    _fields = ("vertices", "edges", "root")

    def __init__(self, vertices: tuple, edges: tuple, root=None):
        setfield(self, "vertices", vertices)
        setfield(self, "edges", edges)
        setfield(self, "root", root)
        ids = set(self.vertices)
        if len(ids) != len(self.vertices):
            raise ShapeMismatch("duplicate vertex ids")
        if len(self.edges) != len(self.vertices) - 1:
            raise ShapeMismatch("a tree has |V| - 1 edges")
        for c, p in self.edges:
            if c not in ids or p not in ids:
                raise ShapeMismatch(f"edge ({c!r}, {p!r}) off the vertex set")
        if self.root is not None and self.root not in ids:
            raise ShapeMismatch("root is not a vertex")
        # connectivity
        adj = {}
        for c, p in self.edges:
            adj.setdefault(c, []).append(p)
            adj.setdefault(p, []).append(c)
        if self.vertices:
            seen = {self.vertices[0]}
            frontier = [self.vertices[0]]
            while frontier:
                v = frontier.pop()
                for w in adj.get(v, ()):
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
            if len(seen) != len(self.vertices):
                raise ShapeMismatch("tree is not connected")

    @classmethod
    def from_skeleton(cls, skel):
        """The tree of a ``Skeleton``: vertex ids are its vertex indices."""
        return cls(tuple(range(len(skel.vertices))), skel.edges, skel.root)

    def children(self, v):
        return tuple(c for c, p in self.edges if p == v)

    def parent_edge_index(self, v):
        for i, (c, _) in enumerate(self.edges):
            if c == v:
                return i
        return None


class TreeSheaf(Record):
    _fields = ("tree", "modulus", "vertex_ranks", "edge_ranks", "cosp", "open_ends")

    def __init__(self, tree: HostTree, modulus: int, vertex_ranks: dict,
                 edge_ranks: dict, cosp: dict, open_ends: frozenset):
        setfield(self, "tree", tree)
        setfield(self, "modulus", modulus)
        setfield(self, "vertex_ranks", vertex_ranks)  # vertex id -> rank
        setfield(self, "edge_ranks", edge_ranks)      # edge index -> rank
        # (vertex id, edge index) -> matrix (rows x cols = r_e x r_v)
        setfield(self, "cosp", cosp)
        setfield(self, "open_ends", open_ends)  # incidences with zero stalk beyond


def make_cellular_sheaf(tree: HostTree, modulus: int, vertex_ranks,
                        edge_ranks, cosp, open_ends=()) -> TreeSheaf:
    """Validate shapes and reduce all matrices mod n."""
    if modulus < 2:
        raise ShapeMismatch("modulus must be >= 2")
    open_ends = frozenset(open_ends)
    vranks = {v: int(vertex_ranks.get(v, 0)) for v in tree.vertices}
    eranks = {i: int(edge_ranks.get(i, 0)) for i in range(len(tree.edges))}
    if any(r < 0 for r in vranks.values()) or any(r < 0 for r in eranks.values()):
        raise ShapeMismatch("ranks must be nonnegative")
    norm = {}
    for i, (c, p) in enumerate(tree.edges):
        for v in (c, p):
            if (v, i) in open_ends:
                if (v, i) in cosp:
                    raise ShapeMismatch(f"open end ({v!r}, {i}) carries a matrix")
                continue
            m = cosp.get((v, i))
            if m is None:
                raise ShapeMismatch(f"closed end ({v!r}, {i}) lacks a matrix")
            re, rv = eranks[i], vranks[v]
            if len(m) != re or any(len(row) != rv for row in m):
                raise ShapeMismatch(
                    f"matrix at ({v!r}, {i}) is not {re} x {rv}"
                )
            norm[(v, i)] = tuple(
                tuple(int(x) % modulus for x in row) for row in m
            )
    return TreeSheaf(tree, modulus, vranks, eranks, norm, open_ends)


class CohomologyResult(Record):
    """Invariant factors of H0 and H1, each factor > 1 and dividing n."""

    _fields = ("H0", "H1")

    def __init__(self, H0: tuple, H1: tuple):
        setfield(self, "H0", H0)
        setfield(self, "H1", H1)


def differential_matrix(F: TreeSheaf):
    """(D, a, b): the b x a integer matrix of the two-term complex."""
    tree = F.tree
    voff = {}
    a = 0
    for v in tree.vertices:
        voff[v] = a
        a += F.vertex_ranks[v]
    eoff = {}
    b = 0
    for i in range(len(tree.edges)):
        eoff[i] = b
        b += F.edge_ranks[i]

    D = [[0] * a for _ in range(b)]
    for i, (c, p) in enumerate(tree.edges):
        for v, sign in ((c, 1), (p, -1)):
            m = F.cosp.get((v, i))
            if m is None:
                continue
            for row in range(F.edge_ranks[i]):
                for col in range(F.vertex_ranks[v]):
                    D[eoff[i] + row][voff[v] + col] += sign * m[row][col]
    return D, a, b


def cohomology(F: TreeSheaf) -> CohomologyResult:
    D, a, b = differential_matrix(F)
    n = F.modulus
    diag = smith_normal_form(D)
    g = [gcd(d, n) for d in diag]
    return CohomologyResult(_invariant_factors(g + [n] * (a - len(diag))),
                            _invariant_factors(g + [n] * (b - len(diag))))


def _invariant_factors(orders):
    return tuple(sorted(f for f in orders if f > 1))


def constant_sheaf(tree: HostTree, n: int, rank: int = 1) -> TreeSheaf:
    ident = tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))
    cosp = {}
    for i, (c, p) in enumerate(tree.edges):
        cosp[(c, i)] = ident
        cosp[(p, i)] = ident
    return make_cellular_sheaf(
        tree, n, {v: rank for v in tree.vertices},
        {i: rank for i in range(len(tree.edges))}, cosp
    )


def zero_sheaf(tree: HostTree, n: int) -> TreeSheaf:
    return constant_sheaf(tree, n, rank=0)


def kummer_sheaf(tree_or_skel, n: int) -> TreeSheaf:
    """The explicit branch sheaf of the disc tree.

    Every edge carries Z/n.  A vertex with children edges e_1..e_k holds
    (Z/n)^k, cospecializing to m_i on the child edge e_i and to the sum
    m_1 + ... + m_k on its parent edge; edges at the leaves are open there,
    which kills sections approaching the boundary.
    """
    tree = tree_or_skel
    if not isinstance(tree, HostTree):
        tree = HostTree.from_skeleton(tree_or_skel)
    if tree.root is None:
        raise RootlessSkeleton("kummer sheaf needs a marked root")
    vranks = {}
    eranks = {i: 1 for i in range(len(tree.edges))}
    cosp = {}
    open_ends = set()
    child_edges = {v: [] for v in tree.vertices}
    parent_edge = {}
    for i, (c, p) in enumerate(tree.edges):
        # a rooted tree gives each vertex one parent edge; HostTree does not
        # check it, since constant and explicit sheaves do not need it
        if c in parent_edge:
            raise ShapeMismatch(f"vertex {c!r} is the child of two edges")
        child_edges[p].append(i)
        parent_edge[c] = i
    for v in tree.vertices:
        ch = child_edges[v]
        k = len(ch)
        vranks[v] = k
        pe = parent_edge.get(v)
        if k == 0:
            # boundary branch: open end, stalk vanishes beyond
            if pe is not None:
                open_ends.add((v, pe))
            continue
        for pos, i in enumerate(ch):
            cosp[(v, i)] = (tuple(1 if j == pos else 0 for j in range(k)),)
        if pe is not None:
            cosp[(v, pe)] = (tuple(1 for _ in range(k)),)
    return make_cellular_sheaf(tree, n, vranks, eranks, cosp, open_ends)


def shriek_extend(F: TreeSheaf, removed, removed_edges=()) -> TreeSheaf:
    """Extension by zero across the open subtree left after deleting the
    given closed cells: removed vertices lose their stalk and their edge ends
    become open; removed edges (by index) lose their stalk entirely."""
    removed = set(removed)
    stray = removed.difference(F.tree.vertices)
    if stray:
        raise NotOpenSubtree(f"not vertices of the tree: {sorted(map(str, stray))}")
    removed_edges = set(removed_edges)
    if removed_edges.difference(range(len(F.tree.edges))):
        raise NotOpenSubtree("removed edge index out of range")
    vranks = dict(F.vertex_ranks)
    eranks = dict(F.edge_ranks)
    cosp = dict(F.cosp)
    open_ends = set(F.open_ends)
    for v in removed:
        vranks[v] = 0
        for i, (c, p) in enumerate(F.tree.edges):
            if v in (c, p):
                cosp.pop((v, i), None)
                open_ends.add((v, i))
    for i in removed_edges:
        eranks[i] = 0
        c, p = F.tree.edges[i]
        for v in (c, p):
            if (v, i) not in open_ends:
                cosp[(v, i)] = ()
    return make_cellular_sheaf(F.tree, F.modulus, vranks, eranks,
                               cosp, open_ends)
