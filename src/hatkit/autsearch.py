"""Exact automorphism groups, canonical forms and isomorphism testing via
equitable-partition refinement with individualization backtracking.

Deterministic choices throughout: the target cell is the first smallest
non-singleton cell, branching tries vertices in increasing order, and the
canonical certificate is the lexicographically least relabeled edge tuple
over all search leaves.  Discovered automorphisms prune branches whose
individualized vertex lies in the orbit of an earlier branch under the
subgroup fixing the current prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import SearchBudgetExceededError
from .graphcore import Graph, arc_act, is_automorphism
from .perm import GroupByGenerators, Permutation

DEFAULT_NODE_BUDGET = 10**7


@dataclass(frozen=True)
class CanonicalForm:
    labeling: Permutation  # original vertex -> canonical vertex
    cert: tuple  # sorted relabeled edge tuple


class _Search:
    def __init__(self, g: Graph, budget: int):
        self.g = g
        self.n = g.n
        self.adj = [frozenset(nbrs) for nbrs in g.adjacency]
        self.budget = budget
        self.nodes = 0
        self.auts: list = []  # image tuples of discovered automorphisms
        self.first_cert: Optional[tuple] = None
        self.best_cert: Optional[tuple] = None
        self.best_labeling: Optional[tuple] = None

    # -- equitable refinement ------------------------------------------------

    def refine(self, cells):
        """Iterate neighbor-count splitting to a fixpoint; order-stable."""
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
                    for w in self.adj[v]:
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

    # -- search --------------------------------------------------------------

    def run(self):
        degrees = {}
        for v in range(self.n):
            degrees.setdefault(len(self.adj[v]), []).append(v)
        initial = [tuple(sorted(degrees[d])) for d in sorted(degrees)]
        self._node(initial, prefix=())

    def _node(self, cells, prefix):
        self.nodes += 1
        if self.nodes > self.budget:
            raise SearchBudgetExceededError(
                f"search exceeded {self.budget} nodes")
        cells = self.refine(cells)
        target = None
        for k, cell in enumerate(cells):
            if len(cell) > 1 and (target is None
                                  or len(cell) < len(cells[target])):
                target = k
        if target is None:
            self._leaf(cells)
            return
        tried = []
        for v in cells[target]:
            if self._pruned(v, tried, prefix):
                continue
            tried.append(v)
            branched = (cells[:target] + [(v,)]
                        + [tuple(w for w in cells[target] if w != v)]
                        + cells[target + 1:])
            self._node(branched, prefix + (v,))

    def _pruned(self, v, tried, prefix):
        if not tried:
            return False
        stab = [a for a in self.auts
                if all(a[x] == x for x in prefix)]
        if not stab:
            return False
        seen = set(tried)
        frontier = list(tried)
        while frontier:
            x = frontier.pop()
            if x == v:
                return True
            for a in stab:
                y = a[x]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return v in seen

    def _leaf(self, cells):
        labeling = [0] * self.n
        for pos, cell in enumerate(cells):
            labeling[cell[0]] = pos
        cert = tuple(sorted(
            (labeling[u], labeling[v]) if labeling[u] < labeling[v]
            else (labeling[v], labeling[u]) for u, v in self.g.edges))
        if self.first_cert is None:
            self.first_cert = cert
            self.first_labeling = labeling
        elif cert == self.first_cert:
            # two labelings with equal certs compose to an automorphism
            inv = [0] * self.n
            for x, y in enumerate(self.first_labeling):
                inv[y] = x
            aut = tuple(inv[labeling[x]] for x in range(self.n))
            if any(aut[x] != x for x in range(self.n)) and aut not in set(
                    map(tuple, self.auts)):
                self.auts.append(aut)
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
    return automorphism_group(g, budget).is_transitive(g.arcs, arc_act)


def has_orbit_swapper(arcs: frozenset, aut: GroupByGenerators) -> bool:
    """For the arc set of a half-arc-transitive orientation: does some
    element of ``aut`` map it onto its reverse, exchanging the two paired
    arc orbits?"""
    reversed_arcs = frozenset((h, t) for t, h in arcs)
    return any(frozenset((p(t), p(h)) for t, h in arcs) == reversed_arcs
               for p in aut.elements())
