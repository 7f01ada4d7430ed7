"""Exact automorphism groups, canonical forms and isomorphism testing via
equitable-partition refinement with individualization backtracking.

Refinement splits cells against a queue of splitter cells (Hopcroft 1971;
McKay 1981).  Deterministic choices throughout: the target cell is the
first smallest non-singleton cell, branching tries vertices in increasing
order, and the canonical certificate is the lexicographically least
relabeled edge tuple over all search leaves.  Each search node keeps, in
one union-find, the orbits of the automorphisms found so far that fix its
prefix, and skips a branch whose vertex lies in the orbit of an earlier
branch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
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


class _Search:
    """One backtracking search over ordered partitions of range(n).

    A partition is held as ``lab``, the vertices listed cell by cell,
    ``length``, where ``length[s]`` is the size of the cell starting at
    position s, and ``start_of[v]``, the start of v's cell.  A cell is
    named by its start position, which no split moves.
    """

    def __init__(self, g: Graph, budget: int):
        self.g = g
        self.n = g.n
        self.adj = g.adjacency
        self.budget = budget
        self.nodes = 0
        self.auts: list = []  # image tuples of discovered automorphisms
        self.first_cert: Optional[tuple] = None
        self.best_cert: Optional[tuple] = None
        self.best_labeling: Optional[tuple] = None

    # -- equitable refinement ------------------------------------------------

    def unit(self):
        """The partition with one cell, queued: its first split is by
        degree."""
        n = self.n
        return list(range(n)), [n] * n, [0] * n, [0][:n]

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
        for w in rest:
            start_of[w] = s + 1
        return lab, length, start_of, [s]

    def refine(self, lab, length, start_of, queue):
        """Split cells in place against the queued splitter cells until the
        partition is equitable.

        A splitter splits each cell it touches by the number of neighbours
        its vertices have in it, fragments in increasing count.  A split
        cell that is still queued queues its new fragments; otherwise every
        fragment but the first largest is queued.  Every decision reads
        positions, sizes and counts, never vertex labels, so the ordered
        partition commutes with relabelling.
        """
        adj = self.adj
        queue = deque(queue)
        queued = set(queue)
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

    # -- search --------------------------------------------------------------

    def run(self):
        self._node(*self.unit(), prefix=())

    def _node(self, lab, length, start_of, queue, prefix):
        self.nodes += 1
        if self.nodes > self.budget:
            raise SearchBudgetExceededError(
                f"search exceeded {self.budget} nodes")
        self.refine(lab, length, start_of, queue)
        target, pos = None, 0
        while pos < self.n:
            if length[pos] > 1 and (target is None
                                    or length[pos] < length[target]):
                target = pos
            pos += length[pos]
        if target is None:
            self._leaf(lab)
            return
        # union-find over the points: the orbits, under the automorphisms
        # found so far that fix the prefix, joined with the branches tried.
        # Such an automorphism fixes the refined partition, so it maps the
        # target cell onto itself and the cell's points suffice.
        orbit = list(range(self.n))

        def find(x):
            while orbit[x] != x:
                orbit[x] = orbit[orbit[x]]
                x = orbit[x]
            return x

        cell = sorted(lab[target:target + length[target]])
        added, first = 0, None
        for v in cell:
            for a in self.auts[added:]:
                if all(a[x] == x for x in prefix):
                    for x in cell:
                        orbit[find(a[x])] = find(x)
            added = len(self.auts)
            if first is None:
                first = v
            elif find(v) == find(first):
                continue  # the image of a tried branch
            else:
                orbit[find(v)] = find(first)
            self._node(*self.individualized(lab, length, start_of, v),
                       prefix=prefix + (v,))

    def _leaf(self, lab):
        labeling = [0] * self.n
        for pos, v in enumerate(lab):
            labeling[v] = pos
        cert = tuple(sorted(
            (labeling[u], labeling[v]) if labeling[u] < labeling[v]
            else (labeling[v], labeling[u]) for u, v in self.g.edges))
        if self.first_cert is None:
            self.first_cert = cert
            self.first_lab = lab
        elif cert == self.first_cert:
            # two labelings with equal certs compose to an automorphism;
            # leaves differ in the vertex some node individualized, so each
            # one found is new and not the identity
            aut = [0] * self.n
            for x, y in zip(lab, self.first_lab):
                aut[x] = y
            self.auts.append(tuple(aut))
        if self.best_cert is None or cert < self.best_cert:
            self.best_cert = cert
            self.best_labeling = labeling


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
    """Full automorphism group; generators are verified automorphisms."""
    s = _searched(g, budget)
    gens = []
    for images in s.auts:
        p = Permutation(images)
        if not is_automorphism(g, p):
            raise SearchBudgetExceededError(
                "internal error: candidate generator is not an automorphism")
        gens.append(p)
    return GroupByGenerators(tuple(gens), degree=g.n)


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
    out-copy 0 to an in-copy.
    """
    n = og.graph.n
    doubled = build_graph(3 * n, [(t, n + h) for t, h in og.arc_set] + [
        e for v in range(n) for e in ((v, 2 * n + v), (n + v, 2 * n + v))])
    return any(n <= p(0) < 2 * n
               for p in automorphism_group(doubled).generators)
