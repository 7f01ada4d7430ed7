"""Exact automorphism groups, canonical forms and isomorphism testing via
equitable-partition refinement with individualization backtracking.

Refinement splits cells against a queue of splitter cells (Hopcroft 1971;
McKay 1981), moving only the vertices a splitter hits, so that a split
costs time in those vertices, not in the size of the cell (McKay &
Piperno, *J. Symbolic Comput.* 2014, section 3).  Deterministic choices
throughout: the target cell is the first smallest non-singleton cell,
branching tries vertices in increasing order, and the canonical
certificate is the lexicographically least relabeled edge tuple over all
search leaves.

The search is depth-first on an explicit stack, one frame per node of the
current path, so no depth reaches Python's recursion limit.  The first
path always takes the least vertex of the target cell.  A leaf whose
certificate equals the first leaf's gives an automorphism that fixes the
common prefix of the two paths and maps the first path's subtree below it
onto the leaf's; the search records it and jumps straight back to the
deepest first-path node on the leaf's path, whose remaining subtree below
the leaf's branch holds only images of leaves already seen (McKay 1981;
McKay & Piperno, *J. Symbolic Comput.* 2014, section 4).  Each frame
inherits its parent's list of the automorphisms that fix the parent's
prefix, filtered to those that also fix its own vertex, and keeps, in one
union-find, the orbits of that list on its target cell; it skips a branch
whose vertex lies in the orbit of an earlier branch.  A node whose cells
have at most two points has only equivalent leaves below it: the search
walks in place to the first of them, and on the first path reads off the
automorphism of each level below as a swap of cells (``_descend``).

The automorphisms found are a strong generating set for the base formed
by the first path.  The basic orbit of each first-path vertex, under the
found automorphisms that fix the vertices before it, is its whole orbit
under the stabilizer in Aut: every other point of that orbit lies in the
target cell and was pruned into the orbit, searched until a leaf matched
the first one, giving an automorphism that maps the vertex to it, or,
below a node with two-point cells, is the vertex's swap partner.  So
|Aut| is the product of the basic orbit lengths, with no Schreier-Sims
run; ``automorphism_group`` still checks every generator.
Canonical labellings are those of the full search: a skipped subtree is
the image of one searched before it, and the best labelling is replaced
only on a strictly smaller certificate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import groupby
from typing import Optional, Tuple

from .errors import SearchBudgetExceededError
from .graphcore import (Graph, OrientedGraph, arc_transitive, build_graph,
                        is_automorphism)
from .perm import GroupByGenerators, Permutation

DEFAULT_NODE_BUDGET = 10**7


@dataclass(frozen=True)
class CanonicalForm:
    labeling: Permutation  # original vertex -> canonical vertex
    cert: tuple  # sorted relabeled edge tuple


def _find(orbit: dict, x):
    """The root of x in a union-find held as a dict of parent pointers,
    with path halving; a point without an entry is a root."""
    while x in orbit:
        parent = orbit[x]
        if parent in orbit:
            orbit[x] = orbit[parent]
        x = parent
    return x


class _Frame:
    """A node on the current path: its refined partition, its target cell
    in increasing order with the index of the next branch, the vertex of
    the branch being searched, and the automorphisms found so far that fix
    its prefix, each an (images, moved points) pair, with the union-find
    of their orbits joined with the branches tried.

    A frame's first branch needs no automorphism, and most frames off the
    first path never get past it, so the list is filtered from the
    parent's only when a later branch asks for it.  Until then ``auts`` is
    None; the parent's list cannot grow meanwhile, since an automorphism
    found below a frame off the first path jumps back above it.
    """

    __slots__ = ("lab", "length", "start_of", "cell", "next", "vertex",
                 "parent", "auts", "added", "orbit")

    def __init__(self, lab, length, start_of, target, parent, auts=None):
        self.lab, self.length, self.start_of = lab, length, start_of
        self.cell = sorted(lab[target:target + length[target]])
        self.next = 0
        self.vertex = None
        self.parent = parent
        self.auts = auts
        self.added = 0
        self.orbit = {}

    def inherit(self):
        """Fill ``auts`` here and in every ancestor that has none, from the
        nearest ancestor that has one down, each list the parent's
        automorphisms that fix the parent's branch vertex."""
        pending = []
        frame = self
        while frame.auts is None:
            pending.append(frame)
            frame = frame.parent
        for frame in reversed(pending):
            v = frame.parent.vertex
            frame.auts = [a for a in frame.parent.auts if a[0][v] == v]

    def next_branch(self):
        """The next vertex of the target cell that lies in no orbit of a
        branch tried, or None.  The automorphisms fix the refined
        partition, so they map the target cell onto itself, and joining
        each cell point or each moved point, whichever are fewer, with its
        image gives their orbits on it."""
        cell, first = self.cell, self.cell[0]
        if self.next == 0:
            self.next = 1
            self.vertex = first
            return first
        if self.auts is None:
            self.inherit()
        orbit = self.orbit
        for images, moved in self.auts[self.added:]:
            for x in moved if len(moved) < len(cell) else cell:
                a, b = _find(orbit, x), _find(orbit, images[x])
                if a != b:
                    orbit[a] = b
        self.added = len(self.auts)
        while self.next < len(cell):
            v = cell[self.next]
            self.next += 1
            a, b = _find(orbit, v), _find(orbit, first)
            if a == b:
                continue  # the image of a tried branch
            orbit[a] = b
            self.vertex = v
            return v
        return None


class _Search:
    """One backtracking search over ordered partitions of range(n).

    A partition is held as ``lab``, the vertices listed cell by cell,
    ``length``, where ``length[s]`` is the size of the cell starting at
    position s, and ``start_of[v]``, the start of v's cell.  A cell is
    named by its start position, which no split moves.  ``pos``, the
    inverse of ``lab``, is one list, filled by ``_node``; frames do not
    store it.  Nothing reads the order within a cell.
    """

    def __init__(self, g: Graph, budget: int):
        self.g = g
        self.n = g.n
        self.adj = g.adjacency
        self.budget = budget
        self.nodes = 0
        self.identity = tuple(range(self.n))
        self.pos = [0] * self.n
        self.auts: list = []  # (images, moved points) of each automorphism
        self.base: Optional[tuple] = None  # the first path
        self.first_lab: Optional[list] = None
        self.best_cert: Optional[tuple] = None
        self.best_labeling: Optional[tuple] = None

    # -- equitable refinement ------------------------------------------------

    def unit(self):
        """The partition with one cell, queued: its first split is by
        degree."""
        n = self.n
        return list(self.identity), [n] * n, [0] * n, [0][:n]

    @staticmethod
    def individualized(lab, length, start_of, v):
        """A copy of the partition with v split off, as a singleton placed
        before the rest of its cell, and the singleton queued."""
        lab, length, start_of = lab[:], length[:], start_of[:]
        s = start_of[v]
        rest = [w for w in lab[s:s + length[s]] if w != v]
        lab[s:s + length[s]] = [v] + rest
        length[s + 1] = length[s] - 1
        length[s] = 1
        t = s + 1  # one int object shared by the rest, not one per vertex
        for w in rest:
            start_of[w] = t
        return lab, length, start_of, [s]

    def refine(self, lab, length, start_of, pos, queue):
        """Split cells in place against the queued splitter cells until the
        partition is equitable, keeping ``pos`` the inverse of ``lab``.

        A splitter splits each cell it touches by the number of neighbours
        its vertices have in it, fragments in increasing count.  A split
        cell that is still queued queues its new fragments; otherwise every
        fragment but the first largest is queued.  Every decision reads
        positions, sizes and counts, never vertex labels, so the ordered
        partition commutes with relabelling.  A split swaps the hit
        vertices to the end of the cell, so it costs time in them, not in
        the cell's size; the missed ones keep their places and
        ``start_of``.  Returns the starts of the cells split.
        """
        adj = self.adj
        queue = deque(queue)
        queued = set(queue)
        split = []
        while queue:
            s = queue.popleft()
            queued.discard(s)
            if length[s] == 1:
                count = None  # a singleton hits each neighbour once
                hits = adj[lab[s]]
            else:
                count = {}
                for w in lab[s:s + length[s]]:
                    for v in adj[w]:
                        count[v] = count.get(v, 0) + 1
                hits = count
            touched = {}
            for v in hits:
                c = start_of[v]
                if length[c] > 1:
                    if c in touched:
                        touched[c].append(v)
                    else:
                        touched[c] = [v]
            for c in sorted(touched):
                hit = touched[c]
                size = length[c]
                back = c + size - len(hit)
                if count is None:
                    if back == c:
                        continue
                    fragments = [hit]
                else:
                    hit.sort(key=count.__getitem__)
                    if back == c and count[hit[0]] == count[hit[-1]]:
                        continue
                    fragments = [list(f) for _k, f in
                                 groupby(hit, count.__getitem__)]
                split.append(c)
                for q, v in enumerate(hit, back):
                    u, p = lab[q], pos[v]
                    lab[p], pos[u] = u, p
                    lab[q], pos[v] = v, q
                starts = []
                if back != c:  # the count-0 fragment
                    length[c] = back - c
                    starts.append(c)
                for fragment in fragments:
                    length[back] = len(fragment)
                    if back != c:
                        for v in fragment:
                            start_of[v] = back
                    starts.append(back)
                    back += len(fragment)
                if c in queued:
                    del starts[0]
                else:
                    starts.remove(max(starts, key=length.__getitem__))
                queue.extend(starts)
                queued.update(starts)
        return split

    # -- search --------------------------------------------------------------

    def run(self):
        """Visit the root, then repeatedly the next branch of the deepest
        frame that has one, dropping exhausted frames."""
        stack = []
        partition = self.unit()
        while True:
            self._node(stack, *partition)
            v = None
            while stack:
                v = stack[-1].next_branch()
                if v is not None:
                    break
                stack.pop()
            if v is None:
                return
            top = stack[-1]
            partition = self.individualized(top.lab, top.length,
                                            top.start_of, v)

    def _count(self):
        """Count one more node against the budget."""
        self.nodes += 1
        if self.nodes > self.budget:
            raise SearchBudgetExceededError(
                f"search exceeded {self.budget} nodes")

    def _node(self, stack, lab, length, start_of, queue):
        """Visit the node reached by the branches of the frames on
        ``stack``: refine its partition, then push its frame, or, when no
        cell has more than two points, walk down to its first leaf."""
        self._count()
        pos = self.pos
        for v, i in zip(lab, self.identity):  # shared ints, not new ones
            pos[v] = i
        self.refine(lab, length, start_of, pos, queue)
        target, widest, c = None, 1, 0
        while c < self.n:
            size = length[c]
            if size > 1:
                if target is None or size < length[target]:
                    target = c
                widest = max(widest, size)
            c += size
        if widest <= 2:
            path = self._descend(stack, lab, length, start_of, pos)
            self._leaf(lab, pos, stack, path)
        elif stack:
            stack.append(_Frame(lab, length, start_of, target, stack[-1]))
        else:
            stack.append(_Frame(lab, length, start_of, target, None,
                                list(self.auts)))

    def _descend(self, stack, lab, length, start_of, pos):
        """From a node whose cells have at most two points, individualise
        in place, as the first branches would, down to the first leaf
        below it, and return the vertices individualised.

        Every leaf below such a node is equivalent to that one, so no
        other branch below it is searched.  The partition is equitable, so
        between two 2-point cells there are no edges, a perfect matching
        or all four, and a singleton is joined to both points of a cell or
        to neither.  Swapping the two points of every cell in one
        component of the matching graph on the cells is then an
        automorphism that fixes every cell setwise: it maps each branch at
        a cell to the other, and the children's partitions keep the form.
        Individualising a point of a cell splits exactly its component, so
        on the first path the swap of the cells that step splits is
        recorded as the automorphism of that level.
        """
        path = []
        c = 0
        while c < self.n:
            if length[c] == 2:
                self._count()
                v, w = sorted(lab[c:c + 2])
                lab[c], lab[c + 1] = v, w
                pos[v], pos[w] = c, c + 1
                length[c] = length[c + 1] = 1
                start_of[w] = c + 1
                split = self.refine(lab, length, start_of, pos, [c])
                if self.base is None:
                    swap = list(self.identity)
                    moved = []
                    for d in [c] + split:
                        x, y = lab[d], lab[d + 1]
                        swap[x], swap[y] = y, x
                        moved += (x, y)
                    self._record((tuple(swap), moved), stack)
                path.append(v)
            c += length[c]
        return path

    def _record(self, found, stack):
        """Keep an automorphism that fixes the prefix of every frame on
        ``stack``; a frame without a list inherits it when it fills it."""
        self.auts.append(found)
        for frame in stack:
            if frame.auts is None:
                break
            frame.auts.append(found)

    def _leaf(self, lab, pos, stack, path):
        """Compare a leaf, labelled by ``pos``, with the first.  Their
        certificates are equal exactly when the two labellings compose to
        an automorphism, so that is checked first, and only a leaf that
        gives none sorts its certificate."""
        if self.base is None:
            self.base = tuple(frame.vertex for frame in stack) + tuple(path)
            self.first_lab = lab
            self.best_cert, self.best_labeling = self._certificate(pos), pos[:]
            return
        first_lab, adj = self.first_lab, self.adj
        aut = [first_lab[i] for i in pos]
        if all(aut[v] in adj[aut[u]] for u, v in self.g.edges):
            # leaves differ in the vertex some node individualized, so each
            # one found is new and not the identity.  It maps the vertex
            # individualized at each depth to the first path's, so it fixes
            # the common prefix and maps the first path's subtree below the
            # prefix onto this leaf's: the rest of that subtree is skipped.
            common = next(d for d, frame in enumerate(stack)
                          if frame.vertex != self.base[d])
            del stack[common + 1:]
            self._record((tuple(aut), [x for x, y in enumerate(aut)
                                       if x != y]), stack)
            return
        cert = self._certificate(pos)
        if cert < self.best_cert:
            self.best_cert, self.best_labeling = cert, pos[:]

    def _certificate(self, labeling):
        """The sorted edge tuple of the graph relabelled by ``labeling``."""
        return tuple(sorted(
            (labeling[u], labeling[v]) if labeling[u] < labeling[v]
            else (labeling[v], labeling[u]) for u, v in self.g.edges))


def _searched(g: Graph, budget: int) -> _Search:
    s = _Search(g, budget)
    s.run()
    return s


def canonical_form(g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> CanonicalForm:
    s = _searched(g, budget)
    return CanonicalForm(labeling=Permutation(tuple(s.best_labeling)),
                         cert=s.best_cert)


def automorphism_group(g: Graph,
                       budget: int = DEFAULT_NODE_BUDGET) -> GroupByGenerators:
    """Full automorphism group: its generators are the verified
    automorphisms the search found, a strong generating set for the first
    path as base, so order and membership need no Schreier-Sims run."""
    s = _searched(g, budget)
    gens = []
    for images, _moved in s.auts:
        p = Permutation(images)
        if not is_automorphism(g, p):
            raise SearchBudgetExceededError(
                "internal error: candidate generator is not an automorphism")
        gens.append(p)
    return GroupByGenerators(tuple(gens), degree=g.n, base=s.base)


def are_isomorphic(g1: Graph, g2: Graph,
                   budget: int = DEFAULT_NODE_BUDGET
                   ) -> Tuple[bool, Optional[Permutation]]:
    """Exact isomorphism decision; on success the witness mapping is
    verified edge-by-edge before being returned."""
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False, None
    if sorted(len(a) for a in g1.adjacency) != sorted(
            len(a) for a in g2.adjacency):
        return False, None
    c1 = canonical_form(g1, budget)
    c2 = canonical_form(g2, budget)
    if c1.cert != c2.cert:
        return False, None
    witness = c1.labeling * c2.labeling.inverse()
    for u, v in g1.edges:
        if not g2.has_edge(witness(u), witness(v)):
            raise SearchBudgetExceededError(
                "internal error: canonical witness fails edge check")
    return True, witness


def is_arc_transitive(g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """True iff the full automorphism group has a single orbit on arcs."""
    return arc_transitive(g, automorphism_group(g, budget))


def has_orbit_swapper(og: OrientedGraph) -> bool:
    """Does some automorphism of the graph map the half-arc-transitive
    orientation D = ``og`` onto its reverse, swapping the two paired arc
    orbits?

    One search decides it, on the doubled graph: vertex v becomes an
    out-copy v and an in-copy n+v joined through a middle 2n+v, and arc
    t -> h the edge t - n+h.  Middles have degree 2 and copies degree 3,
    so every automorphism keeps the pairs {v, n+v}.  Copies of one kind
    are adjacent only to copies of the other, so for each arc t -> h an
    automorphism keeps the two kinds on the pair of t exactly when it
    keeps them on the pair of h.  The graph is connected, so it keeps
    the kinds on every pair or swaps them on every pair.  One that keeps
    them is an automorphism of D; one that swaps them maps D onto its
    reverse, and each such map of D arises this way.  Keeping or swapping
    is a homomorphism onto a group of order at most 2, so some
    automorphism swaps exactly when some generator does, that is, maps
    out-copy 0 to an in-copy.  Only the generators are read, so no chain
    is built.
    """
    n = og.graph.n
    doubled = build_graph(3 * n, [(t, n + h) for t, h in og.arc_set] + [
        e for v in range(n) for e in ((v, 2 * n + v), (n + v, 2 * n + v))])
    return any(n <= p(0) < 2 * n
               for p in automorphism_group(doubled).generators)
