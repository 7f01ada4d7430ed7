"""Oracles shared by the tests, written independently of the library's
stabilizer chains, block actions, jump-pair reading, splitter-queue
refinement, doubled-graph swapper search and alternating-cycle traversal,
and the scanning form of that refinement, kept as its reference."""

from collections import deque

from hatkit.errors import (
    AlternatingStructureError,
    ArcTransitiveError,
    NotAutomorphismError,
    NotEdgeTransitiveError,
    NotVertexTransitiveError,
)
from hatkit.graphcore import OrientedGraph, edge_key
from hatkit.perm import Permutation


def is_automorphism(g, p) -> bool:
    """The definition: p has degree n and maps the edge set onto itself."""
    return p.degree == g.n and {
        edge_key(p(u), p(v)) for u, v in g.edges} == g.edge_set


def arc_act(a: tuple, p) -> tuple:
    """The image of the arc ``a`` under ``p``."""
    return (p(a[0]), p(a[1]))


def certified_heads(graph, group) -> dict:
    """The head_of of the orientation that certifies a HAT action: the
    orbit of the least arc, closed under the generators arc by arc, one
    head per edge.  Raises what ``certify_hat`` raises, checked in the same
    order."""
    if not graph.is_regular(4):
        raise ValueError("not tetravalent")
    graph.require_connected()
    for i, gen in enumerate(group.generators):
        if not is_automorphism(graph, gen):
            raise NotAutomorphismError(i)
    orbit = {min(graph.arcs)}
    frontier = list(orbit)
    while frontier:
        arc = frontier.pop()
        for gen in group.generators:
            image = arc_act(arc, gen)
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    if len({t for t, _h in orbit}) != graph.n:
        raise NotVertexTransitiveError("not vertex-transitive")
    head_of = {edge_key(t, h): h for t, h in orbit}
    if len(head_of) != len(graph.edges):
        raise NotEdgeTransitiveError("not edge-transitive")
    if len(orbit) == 2 * len(graph.edges):
        raise ArcTransitiveError("arc-transitive")
    return head_of


def reverse_orientation(og):
    """Swap every head and tail; involutive."""
    flipped = {}
    for (u, v), h in og.head_of.items():
        flipped[(u, v)] = u if h == v else v
    return OrientedGraph(og.graph, flipped)


def alternating_cycles(og) -> list:
    """The alternating cycles in order of least edge, each normalized by
    ``normalize`` and walked edge by edge through ``head_of`` lookups:
    entering a vertex as the head of an edge, leave through the other edge
    having it as head, and dually for tails."""
    unused = set(og.graph.edge_set)
    cycles = []
    while unused:
        e0 = min(unused)
        h0 = og.head_of[e0]
        t0 = e0[0] if h0 == e0[1] else e0[1]
        cycle = []
        v, e = t0, e0
        while True:
            cycle.append(v)
            if e not in unused:
                raise AlternatingStructureError(
                    f"edge {e} revisited during traversal")
            unused.discard(e)
            w = e[0] if e[1] == v else e[1]
            if og.head_of[e] == w:
                candidates = [(x, edge_key(x, w)) for x in og.in_neighbors[w]]
            else:
                candidates = [(x, edge_key(w, x)) for x in og.out_neighbors[w]]
            nxt = [(x, ek) for x, ek in candidates if ek != e]
            if len(nxt) != 1:
                raise AlternatingStructureError(
                    f"ambiguous continuation at vertex {w}")
            v, e = w, nxt[0][1]
            if v == t0 and e == e0:
                break
        cycles.append(tuple(cycle))
    return [normalize(c) for c in cycles]


def normalize(cycle: tuple) -> tuple:
    """Rotate to put the least vertex first; orient so the second vertex is
    the lesser of the two neighbors of the first."""
    i = cycle.index(min(cycle))
    rotated = cycle[i:] + cycle[:i]
    if rotated[-1] < rotated[1]:
        rotated = (rotated[0],) + tuple(reversed(rotated[1:]))
    return rotated


def vertex_roles(og, cycles) -> dict:
    """vertex -> (tail cycle, tail position, head cycle, head position),
    read from ``head_of`` at every cycle position."""
    places = {}  # vertex -> [(is head, cid, pos)]
    for cid, cycle in enumerate(cycles):
        length = len(cycle)
        for pos, v in enumerate(cycle):
            prev_v = cycle[pos - 1]
            next_v = cycle[(pos + 1) % length]
            prev_head = og.head_of[edge_key(prev_v, v)]
            next_head = og.head_of[edge_key(v, next_v)]
            if (prev_head == v) != (next_head == v):
                raise AlternatingStructureError(
                    f"cycle {cid} is not alternating at vertex {v}")
            is_head = prev_head == v
            seen = places.setdefault(v, [])
            if not is_head and any(not h for h, _cid, _pos in seen):
                raise AlternatingStructureError(
                    f"vertex {v} is a double tail")
            seen.append((is_head, cid, pos))
    roles = {}
    for v, seen in places.items():
        if len(seen) != 2 or seen[0][1] == seen[1][1]:
            raise AlternatingStructureError(
                f"vertex {v} does not lie on exactly two alternating cycles")
        (tail_is_head, tc, tp), (_, hc, hp) = sorted(seen)
        if tail_is_head:
            raise AlternatingStructureError(f"vertex {v} is a double head")
        roles[v] = (tc, tp, hc, hp)
    return roles


def closure(group) -> frozenset:
    """The elements of ``group``: the closure of its generators under
    composition, searched on image tuples."""
    seen = {group.identity.images}
    frontier = list(seen)
    while frontier:
        p = frontier.pop()
        for g in group.generators:
            q = tuple(g.images[x] for x in p)
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return frozenset(map(Permutation, seen))


def setwise_action(s: frozenset, p) -> frozenset:
    """The image of the point set ``s`` under ``p``."""
    return frozenset(p(x) for x in s)


def orbit_swapper(og, elements) -> bool:
    """Does one of the listed ``elements``, such as ``closure(aut)``, map
    the arc set of ``og`` onto its reverse?"""
    arcs = og.arc_set
    reversed_arcs = {(h, t) for t, h in arcs}
    return any(all((p.images[t], p.images[h]) in reversed_arcs
                   for t, h in arcs) for p in elements)


def jump_at(og, cycles, v, ell):
    """(q_t, q_h) at v by search: q_t is the least q in 1..a-1 such that a
    vertex q attachment steps from v along its head cycle, in either
    direction, is one attachment step from v along its tail cycle; q_h
    swaps the two cycles.  v's tail cycle, on which it is the tail of both
    arcs, is read off the orientation."""
    a = len(cycles[0]) // ell
    if a == 1:
        return 0, 0
    on = [(c, c.index(v)) for c in cycles if v in c]
    (C, tp), (Cp, hp) = sorted(
        on, key=lambda cp: og.head_of[tuple(sorted((v, cp[0][cp[1] - 1])))]
        == v)
    length = len(C)

    def least(X, x0, Y, y0):
        targets = {X[(x0 + ell) % length], X[(x0 - ell) % length]}
        return min(q for q in range(1, a)
                   if {Y[(y0 + q * ell) % length],
                       Y[(y0 - q * ell) % length]} & targets)

    return least(C, tp, Cp, hp), least(Cp, hp, C, tp)


def scanning_refine(adj, lab, length, start_of, queue):
    """The splitter-queue refinement of ``autsearch`` as it was before its
    splits moved only the vertices hit: each split cell is rebuilt in full,
    the missed vertices by a scan of the cell, and every fragment's
    ``start_of`` rewritten.  Splits ``lab``, ``length`` and ``start_of`` in
    place, with the same ordered cells and queue as the library, and
    returns the starts of the cells split."""
    queue = deque(queue)
    queued = set(queue)
    split = []
    while queue:
        s = queue.popleft()
        queued.discard(s)
        count = {}
        for w in lab[s:s + length[s]]:
            for v in adj[w]:
                count[v] = count.get(v, 0) + 1
        touched = {}
        for v in count:
            touched.setdefault(start_of[v], []).append(v)
        for c in sorted(touched):
            size = length[c]
            if size == 1:
                continue
            hit = touched[c]
            groups = {}
            for v in hit:
                groups.setdefault(count[v], []).append(v)
            if len(hit) < size:
                groups[0] = [v for v in lab[c:c + size] if v not in count]
            if len(groups) == 1:
                continue
            split.append(c)
            pos = c
            fragments = []
            for k in sorted(groups):
                fragment = groups[k]
                lab[pos:pos + len(fragment)] = fragment
                length[pos] = len(fragment)
                for v in fragment:
                    start_of[v] = pos
                fragments.append(pos)
                pos += len(fragment)
            if c in queued:
                fragments = fragments[1:]
            else:
                fragments.remove(max(fragments, key=length.__getitem__))
            queue.extend(fragments)
            queued.update(fragments)
    return split


def refine(adj, cells):
    """The coarsest equitable refinement of the ordered partition ``cells``
    by full rounds: each round splits every cell by the vector of its
    vertices' neighbour counts in all cells, until a round splits none."""
    cells = [tuple(c) for c in cells]
    while True:
        index = {}
        for k, cell in enumerate(cells):
            for v in cell:
                index[v] = k
        changed = False
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            sig = {}
            for v in cell:
                counts = [0] * len(cells)
                for w in adj[v]:
                    counts[index[w]] += 1
                sig.setdefault(tuple(counts), []).append(v)
            if len(sig) == 1:
                out.append(cell)
            else:
                changed = True
                for key in sorted(sig):
                    out.append(tuple(sorted(sig[key])))
        cells = out
        if not changed:
            return cells
