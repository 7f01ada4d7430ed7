"""Oracles shared by the tests, written independently of the library's
edge check, stabilizer chains, block actions, jump-pair reading,
splitter-queue refinement, isomorphism search, arc-orbit walk
and alternating-cycle traversal, and the scanning form of that refinement,
the per-vertex multiplication lemma check and the certificate comparison
of the iso-relations suite, kept as their references; the closure of pinned
vertices; and the permutation and orientation helpers only the tests
use."""

from collections import deque

from hatkit.autsearch import canonical_form
from hatkit.constructions import XoParams, build_xo, valid_xo_params
from hatkit.errors import (
    AlternatingStructureError,
    ArcTransitiveError,
    NotAutomorphismError,
    NotEdgeTransitiveError,
    NotVertexTransitiveError,
    UnequalCycleLengthsError,
)
from hatkit.graphcore import OrientedGraph, edge_key
from hatkit.perm import Permutation


def inverse(p):
    """The permutation that undoes p."""
    images = [0] * p.degree
    for x, y in enumerate(p.images):
        images[y] = x
    return Permutation(tuple(images))


def is_identity(p) -> bool:
    return all(y == x for x, y in enumerate(p.images))


def fixed_points(p) -> list:
    return [x for x, y in enumerate(p.images) if x == y]


def orientation_from_heads(g, heads: dict):
    """The orientation with the given head on each edge (u<v), checked to
    cover every edge of a tetravalent graph exactly once with in- and
    out-degree 2 everywhere."""
    if not g.is_regular(4):
        raise ValueError("oriented graphs must be tetravalent")
    if heads.keys() != set(g.edges):
        raise ValueError("orientation must cover every edge exactly once")
    out = [[] for _ in range(g.n)]
    inn = [[] for _ in range(g.n)]
    for (u, v), h in heads.items():
        if h == v:
            t = u
        elif h == u:
            t = v
        else:
            raise ValueError(f"head {h} not an endpoint of {(u, v)}")
        out[t].append(h)
        inn[h].append(t)
    return OrientedGraph(g, tuple(map(tuple, map(sorted, out))),
                         tuple(map(tuple, map(sorted, inn))))


def head_of(og) -> dict:
    """edge (u<v) -> its head in ``og``."""
    return {edge_key(t, h): h for t, h in og.arcs}


def orientation_from_arcs(g, arcs):
    """The orientation of g with these arcs, one per edge."""
    heads = {}
    for t, h in arcs:
        key = edge_key(t, h)
        if key in heads:
            raise ValueError(f"edge {key} oriented twice")
        heads[key] = h
    return orientation_from_heads(g, heads)


def is_isomorphism(g1, g2, p) -> bool:
    """The definition: p has degree n and maps the edge set of g1 onto
    that of g2."""
    return p.degree == g1.n == g2.n and {
        edge_key(p(u), p(v)) for u, v in g1.edges} == set(g2.edges)


def is_automorphism(g, p) -> bool:
    """The definition: p maps the edge set of g onto itself."""
    return is_isomorphism(g, g, p)


def arc_act(a: tuple, p) -> tuple:
    """The image of the arc ``a`` under ``p``."""
    return (p(a[0]), p(a[1]))


def arc_set(og) -> set:
    """The arcs (tail, head) of ``og``, read off its head on each edge."""
    return {(u if h == v else v, h) for (u, v), h in head_of(og).items()}


def preserves(og, p) -> bool:
    """The definition: p has degree n and maps the arc set of ``og`` onto
    itself."""
    arcs = arc_set(og)
    return p.degree == og.graph.n and {arc_act(a, p) for a in arcs} == arcs


def certified_heads(graph, group) -> dict:
    """The head_of of the orientation that certifies a HAT action: the
    orbit of the least arc, closed under the generators arc by arc, one
    head per edge.  Raises what ``certify_hat`` raises, with the same
    messages, checked in the same order."""
    if not graph.is_regular(4):
        raise ValueError("not tetravalent")
    graph.require_connected()
    for i, gen in enumerate(group.generators):
        if not is_automorphism(graph, gen):
            raise NotAutomorphismError(i)
    orbit = {min(graph.edges + tuple((v, u) for u, v in graph.edges))}
    frontier = list(orbit)
    while frontier:
        arc = frontier.pop()
        for gen in group.generators:
            image = arc_act(arc, gen)
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    if len({t for t, _h in orbit}) != graph.n:
        raise NotVertexTransitiveError("group is not transitive on vertices")
    heads = {edge_key(t, h): h for t, h in orbit}
    if len(heads) != len(graph.edges):
        raise NotEdgeTransitiveError("group is not transitive on edges")
    if len(orbit) == 2 * len(graph.edges):
        raise ArcTransitiveError("group acts transitively on arcs")
    return heads


def reverse_orientation(og):
    """Swap every head and tail; involutive."""
    flipped = {}
    for (u, v), h in head_of(og).items():
        flipped[(u, v)] = u if h == v else v
    return orientation_from_heads(og.graph, flipped)


def alternating_cycles(og) -> list:
    """The alternating cycles in order of least edge, each normalized by
    ``normalize`` and walked edge by edge through ``head_of`` lookups:
    entering a vertex as the head of an edge, leave through the other edge
    having it as head, and dually for tails."""
    heads = head_of(og)
    unused = set(og.graph.edges)
    cycles = []
    while unused:
        e0 = min(unused)
        h0 = heads[e0]
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
            if heads[e] == w:
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
    heads = head_of(og)
    places = {}  # vertex -> [(is head, cid, pos)]
    for cid, cycle in enumerate(cycles):
        length = len(cycle)
        for pos, v in enumerate(cycle):
            prev_v = cycle[pos - 1]
            next_v = cycle[(pos + 1) % length]
            prev_head = heads[edge_key(prev_v, v)]
            next_head = heads[edge_key(v, next_v)]
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


def analyze(og):
    """(cycles, roles, attachment sets, q_t, q_h) of ``og`` from the lookup
    oracles above: the cycles and roles by ``alternating_cycles`` and
    ``vertex_roles``, the attachment sets as the vertices sharing a pair
    of cycles, their spacing as positions congruent mod ell, met in order
    of first appearance, and the jump pair by ``jump_at`` at every vertex.
    Raises what ``alternating.analyze`` raises, with the same messages,
    checked in the same order."""
    cycles = alternating_cycles(og)
    lengths = {len(c) for c in cycles}
    if len(lengths) != 1:
        raise UnequalCycleLengthsError(
            f"alternating cycle lengths {sorted(lengths)}; the orientation is "
            "not induced by any half-arc-transitive action")
    (length,) = lengths
    if length % 2 != 0:
        raise AlternatingStructureError(f"odd alternating cycle length {length}")
    roles = vertex_roles(og, cycles)
    sets = {}
    for v, (tc, _tp, hc, _hp) in roles.items():
        sets.setdefault(frozenset({tc, hc}), set()).add(v)
    sizes = {len(s) for s in sets.values()}
    if len(sizes) != 1:
        raise AlternatingStructureError(
            f"attachment set sizes differ: {sorted(sizes)}")
    (a,) = sizes
    if length % a != 0:
        raise AlternatingStructureError(
            f"attachment number {a} does not divide cycle length {length}")
    ell = length // a
    residues = {}
    for v, (tc, tp, hc, hp) in roles.items():
        for cid, pos, other in ((tc, tp, hc), (hc, hp, tc)):
            if residues.setdefault((cid, other), pos % ell) != pos % ell:
                c1, c2 = sorted((cid, other))
                raise AlternatingStructureError(
                    f"attachment set of cycles {c1},{c2} not ell-spaced on {cid}")
    vertices = sorted(roles)
    q = jump_at(og, cycles, vertices[0], ell)
    for v in vertices[1:]:
        if jump_at(og, cycles, v, ell) != q:
            raise AlternatingStructureError(
                f"jump parameters differ at vertex {v}")
    return (cycles, roles, sorted(map(frozenset, sets.values()), key=min),
            *q)


def mult_lemma(og, s):
    """``check_mult_lemma`` tested at every vertex in turn: the i-th
    attachment positions from v along its tail cycle are those of index
    +-i*q_t from v along its head cycle, and dually with q_h.  Each
    vertex's position on a cycle is looked up on the cycle, its tail cycle
    read off the orientation."""
    a, ell = s.attachment, s.ell
    if a == 1:
        return True, None
    length = 2 * s.radius
    heads = head_of(og)
    for v in range(og.graph.n):
        on = [(c, c.index(v)) for c in s.cycles if v in c]
        (C, tp), (Cp, hp) = sorted(
            on, key=lambda cp: heads[edge_key(v, cp[0][cp[1] - 1])] == v)
        for X, x0, Y, y0, q, which in ((C, tp, Cp, hp, s.q_t, "q_t"),
                                       (Cp, hp, C, tp, s.q_h, "q_h")):
            if not any(all(X[(x0 + i * ell) % length]
                           == Y[(y0 + sign * i * q * ell) % length]
                           for i in range(a))
                       for sign in (1, -1)):
                return False, {"vertex": v, "which": which}
    return True, None


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


def pinned_closure(og, pins) -> set:
    """The vertices that an automorphism of the oriented graph ``og``
    which fixes the ``pins`` must fix: the pins, closed under the rule
    that an arc t -> h with both ends fixed fixes t's other out-neighbour
    and h's other in-neighbour."""
    out, inn = og.out_neighbors, og.in_neighbors
    fixed, queue = set(pins), list(pins)
    while queue:
        v = queue.pop()
        arcs = [(v, h) for h in out[v]] + [(t, v) for t in inn[v]]
        for t, h in arcs:
            if t in fixed and h in fixed:
                for w in (*out[t], *inn[h]):
                    if w not in fixed:
                        fixed.add(w)
                        queue.append(w)
    return fixed


def setwise_action(s: frozenset, p) -> frozenset:
    """The image of the point set ``s`` under ``p``."""
    return frozenset(p(x) for x in s)


def orbit_swapper(og, elements) -> bool:
    """Does one of the listed ``elements``, such as ``closure(aut)``, map
    the arc set of ``og`` onto its reverse?"""
    arcs = arc_set(og)
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
        on, key=lambda cp: head_of(og)[tuple(sorted((v, cp[0][cp[1] - 1])))]
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


def refine(rels, cells):
    """The coarsest refinement of the ordered partition ``cells`` that is
    equitable for every adjacency in ``rels``, by full rounds: each round
    splits every cell by the vector of its vertices' neighbour counts in
    all cells, relation by relation, until a round splits none."""
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
                counts = [0] * (len(cells) * len(rels))
                for r, adj in enumerate(rels):
                    for w in adj[v]:
                        counts[r * len(cells) + index[w]] += 1
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


def iso_relation_rows(cfg, xo_params=valid_xo_params) -> list:
    """The iso-relations suite's rows as (key, status, detail), decided by
    canonical certificates: the class of q, -q, q^-1 and -q^-1 passes when
    every member's ``canonical_form`` certificate equals its least
    member's, and fails naming the members ``xo_params`` lacks."""
    rows = []
    certs = {}

    def cert_of(p):
        if p not in certs:
            certs[p] = canonical_form(build_xo(p)[0]).cert
        return certs[p]

    for m in cfg.xo_m:
        for r in cfg.xo_r:
            params = xo_params(m, r)
            qs = {p.q for p in params}
            seen = set()
            for p in params:
                cls = {p.q % r, (-p.q) % r,
                       pow(p.q, -1, r), (-pow(p.q, -1, r)) % r}
                key = min(cls)
                if key in seen:
                    continue
                seen.add(key)
                name = f"Xo({m},{r})-class{key}"
                if cls - qs:
                    rows.append((name, "fail",
                                 {"missing_q": sorted(cls - qs)}))
                    continue
                base = cert_of(XoParams(m, r, key))
                ok = all(cert_of(XoParams(m, r, q)) == base for q in cls)
                rows.append((name, "pass" if ok else "fail",
                             {"q_class": sorted(cls)}))
    return rows
