"""Simple undirected graphs, group-induced orientations and the
half-arc-transitivity check.

A graph is its sorted adjacency tuples, its edges (u, v) with u < v read
off them once; an orientation is its sorted out- and in-neighbour tuples.
``carries`` is the one edge check on them.  Graphs are immutable.
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

    def is_regular(self, k: int) -> bool:
        return all(len(nbrs) == k for nbrs in self.adjacency)

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


def carries(images, pairs, adjacency) -> bool:
    """Is images[v] in adjacency[images[u]] for every pair (u, v)?  Maps of
    edges into an adjacency (automorphisms, search leaves, isomorphism
    witnesses) and of arcs into out-neighbours (orientations) are checked
    here; each pair scans one adjacency tuple."""
    return all(images[v] in adjacency[images[u]] for u, v in pairs)


def is_automorphism(g: Graph, p: Permutation) -> bool:
    return p.degree == g.n and carries(p.images, g.edges, g.adjacency)


def arc_orbit(graph: Graph, gens) -> list | None:
    """The orbit of the least arc under the generators' image tuples, as
    each vertex's out-neighbours in it (none for a graph without edges);
    None once a generator maps one of its arcs to a non-edge, so it holds
    only edges and a non-automorphism cannot grow it past 2|E| arcs."""
    adj = graph.adjacency
    out = [[] for _ in range(graph.n)]
    if not graph.edges:
        return out
    t0, h0 = graph.edges[0]
    out[t0].append(h0)
    orbit = [(t0, h0)]
    for t, h in orbit:
        for img in gens:
            a, b = img[t], img[h]
            if b not in out[a]:
                if b not in adj[a]:
                    return None
                out[a].append(b)
                orbit.append((a, b))
    return out


def arc_transitive(graph: Graph, group: GroupByGenerators) -> bool:
    """Does the group have one orbit on the arcs, and are there any?  A
    group that maps an edge to a non-edge has not."""
    out = arc_orbit(graph, [gen.images for gen in group.generators])
    return out is not None and 0 < sum(map(len, out)) == 2 * len(graph.edges)


@dataclass(frozen=True)
class OrientedGraph:
    """A tetravalent graph plus a head choice per edge, held as each
    vertex's sorted out- and in-neighbours, two of each.  ``certify_hat``
    builds one from a group's arc orbit, and ``has_orbit_swapper`` its
    reverse by swapping the two lists."""

    graph: Graph
    out_neighbors: tuple = field(repr=False)
    in_neighbors: tuple = field(compare=False, repr=False)  # follow from out

    def __post_init__(self):
        """Raise ValueError unless each vertex has two out- and two
        in-neighbours, both increasing, and each out-arc t -> h has t
        among h's in-neighbours; then the 2n out-arcs are the 2n
        in-arcs."""
        out, inn, n = self.out_neighbors, self.in_neighbors, self.graph.n
        if not len(out) == len(inn) == n or set(map(len, out + inn)) - {2}:
            raise ValueError("orientation is not in/out 2-regular")
        for t, (a, b), (c, d) in zip(range(n), out, inn):
            if not 0 <= a < b < n:
                raise ValueError("orientation is not in/out 2-regular")
            if c > d:
                raise ValueError(f"in-neighbours of {t} are not increasing")
            if t not in inn[a] or t not in inn[b]:
                raise ValueError(f"an out-arc of {t} is not an in-arc of its head")

    @cached_property
    def arcs(self) -> tuple:
        """The arcs (t, h), by tail, then head."""
        return tuple((t, h) for t, hs in enumerate(self.out_neighbors)
                     for h in hs)

    def is_preserved_by(self, p: Permutation) -> bool:
        return p.degree == self.graph.n and carries(
            p.images, self.arcs, self.out_neighbors)


def _first_non_automorphism(graph: Graph, group: GroupByGenerators) -> None:
    """Raise NotAutomorphismError for the least generator that is not an
    automorphism of the graph, if there is one."""
    for i, gen in enumerate(group.generators):
        if not is_automorphism(graph, gen):
            raise NotAutomorphismError(i)


def certify_hat(graph: Graph, group: GroupByGenerators) -> OrientedGraph:
    """Check that the group acts half-arc-transitively on the graph and
    return the induced orientation D: the arc orbit containing the
    lexicographically least arc (t, h).

    D alone decides all three transitivities.  Its tails are the vertex
    orbit of t, so the group is vertex-transitive exactly when every
    vertex is a tail in D.  Its edges are the edge orbit of {t, h}, so the
    group is edge-transitive exactly when they cover E.  Reversing an arc
    commutes with the action, so D holds the reverse of one of its arcs
    exactly when it holds the reverse of every one: either it holds both
    arcs of each edge it meets, and covers |D|/2 edges, or one arc of
    each, and covers |D|.  Once it covers E, the group is arc-transitive
    exactly in the first case.

    Generators are verified to be automorphisms rather than trusted.
    ``arc_orbit`` walks D and checks that every generator image of an arc
    of D is an edge.  Once D covers every edge, this shows that each
    generator maps every edge to an edge, so, being a bijection of the
    vertices, is an automorphism.  Only when a generator has the wrong
    degree, the walk meets a non-edge or D misses an edge is each
    generator checked against every edge, so that the least
    non-automorphism is still reported before either transitivity error.

    Raises NotAutomorphismError / NotVertexTransitiveError /
    NotEdgeTransitiveError / ArcTransitiveError, checked in that order.
    """
    if not graph.is_regular(4):
        raise ValueError("half-arc-transitivity analysis needs a tetravalent graph")
    graph.require_connected()
    gens = [gen.images for gen in group.generators]
    if any(len(img) != graph.n for img in gens):
        _first_non_automorphism(graph, group)

    out = arc_orbit(graph, gens)
    if out is None:  # a generator maps an edge to a non-edge
        _first_non_automorphism(graph, group)
    t0, h0 = graph.edges[0]
    both_arcs = t0 in out[h0]
    covered = sum(map(len, out)) // (2 if both_arcs else 1)
    if covered != len(graph.edges):
        _first_non_automorphism(graph, group)
    if not all(out):
        raise NotVertexTransitiveError("group is not transitive on vertices")
    if covered != len(graph.edges):
        raise NotEdgeTransitiveError("group is not transitive on edges")
    if both_arcs:
        raise ArcTransitiveError("group acts transitively on arcs")
    inn = [[] for _ in out]  # filled by increasing tail
    for t, (a, b) in enumerate(out):
        inn[a].append(t)
        inn[b].append(t)
    return OrientedGraph(
        graph, tuple([(a, b) if a < b else (b, a) for a, b in out]),
        tuple(map(tuple, inn)))
