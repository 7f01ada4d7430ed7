"""Oracles shared by the tests, written independently of the library's
stabilizer chains, block actions, jump-pair reading, splitter-queue
refinement and doubled-graph swapper search."""

from hatkit.perm import Permutation


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
