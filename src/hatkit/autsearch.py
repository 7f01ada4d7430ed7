"""Exact automorphism groups, canonical forms and isomorphism testing via
equitable-partition refinement with individualization backtracking.

The search reads a graph's adjacency, or an oriented graph's out- and
in-neighbours, refining until the partition is equitable for each (McKay
& Piperno, *J. Symbolic Comput.* 2014, sections 2-3); a leaf check
carries edges into the adjacency, or arcs into the out-neighbours.
Refinement splits cells against a queue of splitter cells (Hopcroft 1971;
McKay 1981), moving only the vertices a splitter hits, so that a split
costs time in those vertices, not in the size of the cell (McKay &
Piperno, section 3).  Deterministic choices throughout: the target cell
is the first smallest non-singleton cell, branching tries vertices in
increasing order, and the canonical certificate is the lexicographically
least relabeled edge tuple over all search leaves.

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
|Aut| is the product of the basic orbit lengths, and Aut is
arc-transitive exactly when the stabilizer of base[0] has its neighbours
in one orbit and base[0]'s orbit holds every vertex with an edge: one
union-find pass over the found maps gives both, with no Schreier-Sims
run and no stabilizer chain.  A leaf's map is proved by the leaf check
that accepts it; ``automorphism_group`` checks the others, the swaps of
``_descend``, on the edges at their moved points, since an edge between
two fixed points maps to itself.

The search hands the first leaf, and every later leaf that gives no
automorphism, to what its caller asked for; a leaf it skips is the image,
under an automorphism, of a leaf it handed over.  ``canonical_form`` keeps
the least certificate of those leaves, replaced only on a strictly smaller
one, so its labellings are those of the full search; nothing else sorts a
certificate.  ``are_isomorphic`` walks the first graph to its first leaf
only, then searches the second until a leaf's labelling, composed with
that leaf's, carries the first graph's edges into the second's adjacency.
Refinement and the target cell read no vertex labels, so an isomorphism
maps the first graph's search tree onto the second's, leaf by leaf; if
the search of the second skips the image of the first leaf, it compared
a leaf that an automorphism of the second graph maps onto that image,
and that leaf matches too.  So the second search ends without a match
exactly when the graphs are not isomorphic.  ``has_orbit_swapper`` is
that decision for an oriented graph and its reverse.  A caller ends the
search by returning true from its leaf handler, which empties the stack.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, Optional, Tuple

from .errors import InconsistentError, SearchBudgetExceededError
from .graphcore import Graph, OrientedGraph, arc_transitive, carries
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


def _relations(g) -> tuple:
    """The order of ``g``, the relations refinement reads, and the pairs a
    leaf check carries into the first: a graph's adjacency and edges, or
    an oriented graph's out- and in-neighbours and arcs."""
    if isinstance(g, OrientedGraph):
        return g.graph.n, (g.out_neighbors, g.in_neighbors), g.arcs
    return g.n, (g.adjacency,), g.edges


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
    """One backtracking search over ordered partitions of range(n), the
    vertices of a graph or of an oriented graph.

    A partition is held as ``lab``, the vertices listed cell by cell,
    ``length``, where ``length[s]`` is the size of the cell starting at
    position s, and ``start_of[v]``, the start of v's cell.  A cell is
    named by its start position, which no split moves.  ``pos``, the
    inverse of ``lab``, is one list, filled by ``_node``; frames do not
    store it.  Nothing reads the order within a cell.

    ``visit(lab, pos)``, when given, receives the first leaf and every
    later leaf that gives no automorphism, as the vertices by position and
    its labelling (``pos`` is reused afterwards); the search ends when it
    returns true.
    """

    def __init__(self, g: Graph | OrientedGraph, budget: int,
                 visit: Optional[Callable[[list, list], bool]] = None):
        self.n, self.rels, self.pairs = _relations(g)
        self.adj = self.rels[0]
        self.budget = budget
        self.visit = visit
        self.nodes = 0
        self.identity = tuple(range(self.n))
        self.pos = [0] * self.n
        self.auts: list = []  # (images, moved points) of each automorphism
        self.proved = set()  # indices in auts of the maps a leaf check proved
        self.base: Optional[tuple] = None  # the first path
        self.first_lab: Optional[list] = None

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
        partition is equitable for every relation, keeping ``pos`` the
        inverse of ``lab``.

        A splitter's vertices are read once; then, relation by relation,
        it splits each cell it touches by the number of neighbours its
        vertices have in it, fragments in increasing count; a singleton
        hits each neighbour once, so it needs no count and cuts a cell in
        two.  A split cell that is still queued queues its new fragments;
        otherwise every fragment but the first largest is queued.  Every
        decision reads positions, sizes and counts, never vertex labels,
        so the ordered partition commutes with relabelling.  A split swaps
        the hit vertices to the end of the cell, so it costs time in them,
        not in the cell's size; the missed ones keep their places and
        ``start_of``.  Returns the starts of the cells split.
        """
        rels = self.rels
        queue = deque(queue)
        queued = set(queue)
        split = []
        while queue:
            s = queue.popleft()
            queued.discard(s)
            size = length[s]
            if size == 1:  # hits each neighbour once: one fragment per cell
                w = lab[s]
                for adj in rels:
                    touched = {}
                    for v in adj[w]:
                        c = start_of[v]
                        if length[c] > 1:
                            if c in touched:
                                touched[c].append(v)
                            else:
                                touched[c] = [v]
                    for c in sorted(touched):
                        hit = touched[c]
                        back = c + length[c] - len(hit)
                        if back == c:
                            continue
                        split.append(c)
                        for q, v in enumerate(hit, back):
                            u, p = lab[q], pos[v]
                            lab[p], pos[u] = u, p
                            lab[q], pos[v] = v, q
                            start_of[v] = back
                        length[c] = back - c
                        length[back] = len(hit)
                        t = back if c in queued or back - c >= len(hit) else c
                        queue.append(t)
                        queued.add(t)
                continue
            splitter = lab[s:s + size]
            for adj in rels:
                count = {}
                for w in splitter:
                    for v in adj[w]:
                        count[v] = count.get(v, 0) + 1
                touched = {}
                for v in count:
                    c = start_of[v]
                    if length[c] > 1:
                        if c in touched:
                            touched[c].append(v)
                        else:
                            touched[c] = [v]
                for c in sorted(touched):
                    hit = touched[c]
                    back = c + length[c] - len(hit)
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
        other branch below it is searched.  The partition is equitable for
        every relation, so from one 2-point cell to another there are no
        edges (arcs in one direction), a perfect matching or all four;
        inside a 2-point cell both arcs are present or neither is; and a
        singleton is joined to both points of a cell or to neither, in
        each direction.  Swapping the two points of every cell in one
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
        """Compare a leaf, labelled by ``pos``, with the first: the two
        labellings compose to an automorphism exactly when their
        certificates are equal.  A leaf that gives none goes to ``visit``,
        as does the first; emptying the stack ends the search."""
        if self.base is None:
            self.base = tuple(frame.vertex for frame in stack) + tuple(path)
            self.first_lab = lab
        else:
            first_lab = self.first_lab
            aut = [first_lab[i] for i in pos]
            if carries(aut, self.pairs, self.adj):
                # leaves differ in the vertex some node individualized, so
                # each one found is new and not the identity.  It maps the
                # vertex individualized at each depth to the first path's,
                # so it fixes the common prefix and maps the first path's
                # subtree below the prefix onto this leaf's: the rest of
                # that subtree is skipped.
                common = next(d for d, frame in enumerate(stack)
                              if frame.vertex != self.base[d])
                del stack[common + 1:]
                self.proved.add(len(self.auts))
                self._record((tuple(aut), [x for x, y in enumerate(aut)
                                           if x != y]), stack)
                return
        if self.visit is not None and self.visit(lab, pos):
            stack.clear()


def _certificate(edges, labeling) -> tuple:
    """The sorted edge tuple of the graph relabelled by ``labeling``."""
    return tuple(sorted(
        (labeling[u], labeling[v]) if labeling[u] < labeling[v]
        else (labeling[v], labeling[u]) for u, v in edges))


def _carried_at_moved(adjacency, images, moved) -> bool:
    """Is ``images``, a permutation that fixes every point outside
    ``moved``, an automorphism?  Only the edges at moved points are
    checked: an edge between two fixed points maps to itself, and a
    bijection that carries every edge onto an edge carries the edge set
    onto itself."""
    return carries(images, ((u, v) for u in moved for v in adjacency[u]),
                   adjacency)


def canonical_form(g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> CanonicalForm:
    """The least certificate over the leaves the search hands over, with
    the labelling of the first leaf that reaches it."""
    best = None

    def keep_least(_lab, pos):
        nonlocal best
        cert = _certificate(g.edges, pos)
        if best is None or cert < best[0]:
            best = cert, pos[:]
        return False

    _Search(g, budget, keep_least).run()
    cert, labeling = best
    return CanonicalForm(labeling=Permutation.unchecked(tuple(labeling)),
                         cert=cert)


@dataclass
class AutomorphismGroup(GroupByGenerators):
    """Aut of a graph as the search found it, with the facts the search
    established: its order, so ``order`` builds no chain, and whether it
    has one orbit on the arcs."""

    arc_transitive: bool = field(default=False, compare=False)


def _basic_orbits(adjacency, base, auts) -> tuple:
    """|Aut| and, when base[0] has a neighbour, the arc verdict, read off
    the basic orbits of the found maps, a strong generating set for the
    base (Seress, *Permutation Group Algorithms*, 2003, ch. 4).  Each map
    joins its moved points in one union-find at the level of the first
    base point it moves, deepest level first, so the class of base[i]
    after level i is its basic orbit; the maps of levels 1 and on
    generate the stabilizer of base[0].  A map that fixes the whole base
    is the identity, since the first leaf is discrete."""
    depth = {b: i for i, b in enumerate(base)}
    levels = [[] for _ in range(len(base) + 1)]
    for images, moved in auts:
        levels[min((depth[x] for x in moved if x in depth),
                   default=len(base))].append((images, moved))
    orbit, size = {}, {}
    order = 1
    for i in reversed(range(len(base))):
        if i == 0:
            around = {_find(orbit, v) for v in adjacency[base[0]]}
        for images, moved in levels[i]:
            for x in moved:
                a, b = _find(orbit, x), _find(orbit, images[x])
                if a != b:
                    orbit[a] = b
                    size[b] = size.get(b, 1) + size.pop(a, 1)
        order *= size.get(_find(orbit, base[i]), 1)
    if not base or not adjacency[base[0]]:
        return order, None
    return order, len(around) == 1 and size.get(
        _find(orbit, base[0]), 1) == sum(1 for nbrs in adjacency if nbrs)


def automorphism_group(g: Graph,
                       budget: int = DEFAULT_NODE_BUDGET) -> AutomorphismGroup:
    """Full automorphism group: its generators are the automorphisms the
    search found, a strong generating set for the first path as base, so
    order, the arc verdict and membership need no Schreier-Sims run.  The
    maps no leaf check proved are checked here.  Only when base[0] is
    isolated, so that the base holds no stabilizer of a vertex with an
    edge, is the arc verdict the arc-orbit walk."""
    s = _Search(g, budget)
    s.run()
    for k, (images, moved) in enumerate(s.auts):
        if k not in s.proved and not _carried_at_moved(g.adjacency, images,
                                                       moved):
            raise InconsistentError(
                {"stage": "automorphism search", "generator": k,
                 "moved": len(moved)},
                f"automorphism search: found map {k} is not an automorphism")
    order, arc = _basic_orbits(g.adjacency, s.base, s.auts)
    group = AutomorphismGroup(
        tuple(Permutation.unchecked(images) for images, _ in s.auts),
        degree=g.n, base=s.base, _order=order)
    group.arc_transitive = arc_transitive(g, group) if arc is None else arc
    return group


def are_isomorphic(g1: Graph | OrientedGraph, g2: Graph | OrientedGraph,
                   budget: int = DEFAULT_NODE_BUDGET
                   ) -> Tuple[bool, Optional[Permutation]]:
    """Exact isomorphism decision for two graphs or two oriented graphs,
    with an isomorphism as the witness.

    After the order, size and degree checks, g1 is searched to its first
    leaf only, and g2 until a leaf's labelling, composed with that leaf's,
    carries g1's edges (arcs) into g2's adjacency (out-neighbours): the
    composite is the witness, the isomorphism the search finds.
    Refinement reads no labels, so an isomorphism maps g1's search tree
    onto g2's leaf by leaf, and a leaf of g2 that pruning skips is the
    image, under an automorphism of g2, of a leaf that was compared and
    matches exactly when the skipped one does.  Each search has its own
    node budget.
    """
    (n1, rels1, pairs1), (n2, rels2, pairs2) = _relations(g1), _relations(g2)
    if n1 != n2 or len(pairs1) != len(pairs2) or [
            sorted(map(len, adj)) for adj in rels1] != [
            sorted(map(len, adj)) for adj in rels2]:
        return False, None
    pos1 = []

    def stop(_lab, pos):
        pos1.extend(pos)
        return True

    _Search(g1, budget, stop).run()
    witness = None

    def match(lab, _pos):
        nonlocal witness
        images = [lab[i] for i in pos1]
        if carries(images, pairs1, rels2[0]):
            witness = Permutation.unchecked(tuple(images))
        return witness is not None

    _Search(g2, budget, match).run()
    return witness is not None, witness


def is_arc_transitive(g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """True iff the full automorphism group has a single orbit on arcs."""
    return automorphism_group(g, budget).arc_transitive


def has_orbit_swapper(og: OrientedGraph) -> bool:
    """Does some automorphism of the graph map the orientation D = ``og``
    onto its reverse, swapping the two paired arc orbits?  That is, is D
    isomorphic to its reverse?"""
    return are_isomorphic(og, OrientedGraph(og.graph, og.in_neighbors,
                                            og.out_neighbors))[0]
