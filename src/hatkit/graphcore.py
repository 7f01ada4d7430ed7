"""Simple undirected graphs, arcs, group-induced orientations and the
half-arc-transitivity check.

Edges are stored as unordered pairs (u, v) with u < v; arcs as ordered
pairs.  Graphs are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    ArcTransitiveError,
    DisconnectedError,
    DuplicateEdgeError,
    LoopEdgeError,
    NotAutomorphismError,
    NotEdgeTransitiveError,
    NotVertexTransitiveError,
)
from .perm import GroupByGenerators, Permutation


def edge_key(u: int, v: int) -> tuple:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with sorted neighbor lists."""

    n: int
    adjacency: tuple  # tuple of tuples, adjacency[v] sorted

    @cached_property
    def edges(self) -> tuple:
        out = []
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    out.append((u, v))
        return tuple(out)

    @cached_property
    def edge_set(self) -> frozenset:
        return frozenset(self.edges)

    @cached_property
    def edge_codes(self) -> frozenset:
        """u*n + v for both orders (u, v) of every edge."""
        n = self.n
        return frozenset([u * n + v for u, v in self.edges]
                         + [v * n + u for u, v in self.edges])

    @cached_property
    def arcs(self) -> tuple:
        out = []
        for u, v in self.edges:
            out.append((u, v))
            out.append((v, u))
        return tuple(sorted(out))

    @cached_property
    def is_connected(self) -> bool:
        if self.n == 0:
            return False
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in self.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def is_regular(self, k: int) -> bool:
        return all(len(nbrs) == k for nbrs in self.adjacency)

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edge_set

    def require_connected(self):
        if not self.is_connected:
            raise DisconnectedError("operation requires a connected graph")

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"


def build_graph(n: int, edge_list) -> Graph:
    """Build a Graph from an edge list, rejecting loops and duplicates.

    Disconnected graphs are representable (analysis operations reject them
    later); a negative vertex count or an endpoint out of range is a
    ValueError.
    """
    if n < 0:
        raise ValueError(f"negative vertex count {n}")
    adj = [[] for _ in range(n)]
    seen = set()
    for u, v in edge_list:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"endpoint out of range: ({u}, {v})")
        if u == v:
            raise LoopEdgeError(f"loop edge ({u}, {v})")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge {key}")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n, tuple(map(tuple, map(sorted, adj))))


def is_automorphism(g: Graph, p: Permutation) -> bool:
    if p.degree != g.n:
        return False
    n, img = g.n, p.images
    return g.edge_codes.issuperset([img[u] * n + img[v] for u, v in g.edges])


def arc_orbit(graph: Graph, group: GroupByGenerators) -> list:
    """The orbit of the least arc, searched on the generators' image
    tuples, starting with that arc; empty for a graph without edges.  The
    group is transitive on arcs exactly when the orbit has 2|E| > 0
    arcs."""
    if not graph.edges:
        return []
    gens = [gen.images for gen in group.generators]
    orbit = [graph.edges[0]]
    seen = set(orbit)
    for t, h in orbit:
        for img in gens:
            arc = (img[t], img[h])
            if arc not in seen:
                seen.add(arc)
                orbit.append(arc)
    return orbit


def arc_transitive(graph: Graph, group: GroupByGenerators) -> bool:
    """Does the group have one orbit on the arcs, and are there any?"""
    return 0 < len(arc_orbit(graph, group)) == 2 * len(graph.edges)


@dataclass(frozen=True)
class OrientedGraph:
    """A tetravalent graph plus a head choice per edge, with in-degree and
    out-degree 2 at every vertex."""

    graph: Graph
    head_of: dict = field(compare=False)  # edge (u<v) -> head vertex
    # set by __post_init__: each vertex's sorted out- and in-neighbours,
    # and the chosen arcs (tail, head)
    out_neighbors: tuple = field(init=False, compare=False, repr=False)
    in_neighbors: tuple = field(init=False, compare=False, repr=False)
    arc_set: frozenset = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        g = self.graph
        if not g.is_regular(4):
            raise ValueError("oriented graphs must be tetravalent")
        if self.head_of.keys() != g.edge_set:
            raise ValueError("orientation must cover every edge exactly once")
        out = [[] for _ in range(g.n)]
        inn = [[] for _ in range(g.n)]
        for (u, v), h in self.head_of.items():
            if h == v:
                t = u
            elif h == u:
                t = v
            else:
                raise ValueError(f"head {h} not an endpoint of {(u, v)}")
            out[t].append(h)
            inn[h].append(t)
        if any(len(x) != 2 for x in out) or any(len(x) != 2 for x in inn):
            raise ValueError("orientation is not in/out 2-regular")
        object.__setattr__(self, "out_neighbors",
                           tuple(map(tuple, map(sorted, out))))
        object.__setattr__(self, "in_neighbors",
                           tuple(map(tuple, map(sorted, inn))))
        object.__setattr__(self, "arc_set", frozenset(
            [(t, h) for t, hs in enumerate(out) for h in hs]))

    def is_preserved_by(self, p: Permutation) -> bool:
        return all((p(t), p(h)) in self.arc_set for t, h in self.arc_set)


def orientation_from_arcs(g: Graph, arcs) -> OrientedGraph:
    head_of = {}
    for t, h in arcs:
        key = edge_key(t, h)
        if key in head_of:
            raise ValueError(f"edge {key} oriented twice")
        head_of[key] = h
    return OrientedGraph(g, head_of)


def certify_hat(graph: Graph, group: GroupByGenerators) -> OrientedGraph:
    """Check that the group acts half-arc-transitively on the graph and
    return the induced orientation D: the arc orbit containing the
    lexicographically least arc (t, h).

    D alone decides all three transitivities.  Its tails are the vertex
    orbit of t, so the group is vertex-transitive exactly when every
    vertex is a tail in D.  Its edges are the edge orbit of {t, h}, so the
    group is edge-transitive exactly when they cover E.  Once they do, D
    holds both arcs of one edge exactly when it holds both arcs of every
    edge, that is, when |D| = 2|E|; otherwise it holds one arc per edge.

    Generators are verified to be automorphisms rather than trusted.
    Raises NotAutomorphismError / NotVertexTransitiveError /
    NotEdgeTransitiveError / ArcTransitiveError, checked in that order.
    """
    if not graph.is_regular(4):
        raise ValueError("half-arc-transitivity analysis needs a tetravalent graph")
    graph.require_connected()
    for i, gen in enumerate(group.generators):
        if not is_automorphism(graph, gen):
            raise NotAutomorphismError(i)

    orbit = arc_orbit(graph, group)
    if len({t for t, _h in orbit}) != graph.n:
        raise NotVertexTransitiveError("group is not transitive on vertices")
    head_of = {(t, h) if t < h else (h, t): h for t, h in orbit}
    if len(head_of) != len(graph.edges):
        raise NotEdgeTransitiveError("group is not transitive on edges")
    if len(orbit) == 2 * len(graph.edges):
        raise ArcTransitiveError("group acts transitively on arcs")
    return OrientedGraph(graph, head_of)
