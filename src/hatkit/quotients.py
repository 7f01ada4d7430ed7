"""Quotients over the attachment structure, the alternating-cycle graph,
the three setwise-fixing kernels and their row of the five-case table,
induced quotient actions, the cycle-level isomorphism between the
alternating-cycle graphs of a graph and of its quotient, and the
per-instance analysis record that chains them.

A vertex partition is a tuple of frozensets ordered by least element, the
form of ``AltStructure.attachment_sets``; ``perm.block_index`` numbers its
blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict

from .alternating import AltStructure, analyze, antipodal_tau
from .errors import (
    InconsistentError,
    PreconditionFailedError,
    TooFewCyclesError,
)
from .graphcore import Graph, OrientedGraph, build_graph, certify_hat, edge_key
from .perm import (
    GroupByGenerators,
    Permutation,
    StructureTag,
    action_kernel,
    block_images,
    block_index,
    group_structure,
)


def _sorted_blocks(blocks) -> tuple:
    return tuple(sorted((frozenset(b) for b in blocks), key=min))


def construction_b(s: AltStructure) -> tuple:
    """The half-step blocks.

    For even ell these are exactly the attachment sets.  For odd ell the
    double-step orbit through a vertex picks out every other attachment
    position, i.e. the vertices sharing that vertex's orientation role
    (double tail vs double head) on the cycle, so each attachment set splits
    into its two role-halves of size a/2.
    """
    if s.ell % 2 == 0:
        return s.attachment_sets
    blocks = []
    for aset in s.attachment_sets:
        tail = s.roles[min(aset)][0]
        half = frozenset(v for v in aset if s.roles[v][0] == tail)
        if 2 * len(half) != len(aset):
            raise InconsistentError(
                {"attachment_set": sorted(aset),
                 "reason": "role halves of unequal size"})
        blocks.extend([half, aset - half])
    return _sorted_blocks(blocks)


@dataclass(frozen=True)
class QuotientGraph:
    """Simple quotient on the blocks, with the largest number of original
    edges over one quotient edge.  degenerate flags the cycle-with-doubled-
    edges pattern, which is excluded from half-arc-transitivity analysis."""

    graph: Graph
    multiplicity: int
    degenerate: bool


def quotient_graph(g: Graph, blocks: tuple) -> QuotientGraph:
    block_of = block_index(blocks, g.n)
    if -1 in block_of:
        raise ValueError("block system does not partition the vertex set")
    counts: Dict[tuple, int] = {}
    for u, v in g.edges:
        bu, bv = block_of[u], block_of[v]
        if bu == bv:
            continue
        counts[edge_key(bu, bv)] = counts.get(edge_key(bu, bv), 0) + 1
    q = build_graph(len(blocks), sorted(counts))
    mult = max(counts.values()) if counts else 0
    degenerate = (mult >= 2 and q.n >= 3 and q.is_connected
                  and q.is_regular(2))
    return QuotientGraph(graph=q, multiplicity=mult, degenerate=degenerate)


def alt_graph(s: AltStructure) -> Graph:
    """Graph on the alternating cycles, adjacent when they intersect."""
    if len(s.cycles) < 3:
        raise TooFewCyclesError(
            f"only {len(s.cycles)} alternating cycles; the cycle graph is "
            "degenerate when the two cycles exhaust the vertex set")
    return build_graph(len(s.cycles), s.cycle_pairs)


def kernels(group: GroupByGenerators, s: AltStructure) -> dict:
    """The three setwise-fixing kernels, each a kernel on a partition of
    the vertices: K_alt on the alternating cycles, K_A on the attachment
    sets A and K_B on the half-step blocks B, all read off one stabilizer
    chain on the tail partition T.

    K_alt fixes each cycle's edge set; it is the kernel on the partition
    T of V by tail cycle.  Every vertex is the tail of both its arcs on
    exactly one cycle, so a cycle's 2r edges are the out-arcs of its r
    tail vertices.  The group preserves the orientation, which
    ``certify_hat`` defines as a group orbit, so an element fixes a
    cycle's edge set exactly when it fixes the cycle's tail set.  In the
    degenerate case a = 2r the two Hamilton cycles have disjoint tail
    sets, so the partition still tells them apart.

    K_alt fixes T, hence every cycle, A and B:

    - An element that fixes every cycle fixes every cycle's vertex set.
      Two cycles meet in exactly one attachment set, their intersection,
      so K_alt ≤ K_A.
    - B = A ∧ T, the meet of the two partitions.  ``construction_b``
      splits each attachment set into the halves whose vertices share
      their tail cycle; for even ell every attachment set already lies in
      one tail set and is a block of B.  An element fixes every block of
      a meet exactly when it fixes every block of both partitions, so
      K_B = K_alt ∩ K_A = K_alt.
    - For a < 2r, K_A ≤ K_alt as well, so K_A = K_alt.  A cycle's vertex
      set is the union of the attachment sets on it.  An element of K_A
      fixes every attachment set and preserves D, so it maps each cycle
      to a cycle with the same vertex set.  Two distinct cycles share at
      most a < 2r vertices, so the element fixes each cycle, and with it
      each cycle's tail set.

    In the degenerate case a = 2r there is one attachment set, so K_A is
    the whole group.  K_alt ≤ K_A is checked, not assumed: each of K_alt's
    generators must fix every attachment set under ``block_images``, or
    InconsistentError is raised.

    After the block points the chain's base holds pins, both ends of the
    first edge of each cycle, and only the identity of G fixes them all:

    - ``certify_hat`` defines D as a G-orbit of arcs, so G preserves D.
    - Suppose g fixes an arc t -> h of a cycle C.  Then g fixes t's other
      out-neighbour and h's other in-neighbour.  Both lie on C, which
      reaches t from the one and leaves h by the other, so walking C arc
      by arc shows that g fixes C pointwise.
    - ``_vertex_roles`` checks that every vertex lies on two cycles, so g
      fixes V.

    So the chain decides its Schreier generators on base images alone.
    """
    tails = [set() for _ in s.cycles]
    for v, role in enumerate(s.roles):
        tails[role[0]].add(v)
    pins = dict.fromkeys(v for cycle in s.cycles for v in cycle[:2])
    k = action_kernel(group, tails, pins=pins)
    identity = tuple(range(len(s.attachment_sets)))
    if any(pi != identity for pi in block_images(k, s.attachment_sets)):
        raise InconsistentError({"reason": "K_alt moves an attachment set"})
    return {"K_alt": k, "K_B": k,
            "K_A": group if s.attachment == 2 * s.radius else k}


def _is_cyclic_of(tag: StructureTag, k: int) -> bool:
    if k == 1:
        return tag.kind == "Trivial"
    return tag.kind == "Cyclic" and tag.param == k


def classify_kernel(s: AltStructure, tag: StructureTag) -> str:
    """The row, "i" to "v", of the five-case table that (r, a) selects,
    after matching the kernel's recognised structure against it:

    (i)   a = 2r       -> dihedral of order 2r
    (ii)  a = r = 2    -> subgroup of an elementary abelian 2-group
    (iii) a = r > 2    -> dihedral of order 2a
    (iv)  a < r, a | r -> cyclic of order a (possibly trivial when a = 2)
    (v)   a < r, a ∤ r -> cyclic of order a/2

    Raises InconsistentError when the observed structure does not fit --
    that signals a bug or an invalid input, never a new mathematical fact.
    """
    a, r = s.attachment, s.radius
    if a == 2 * r:
        case, expected = "i", f"Dihedral({2 * r})"
        ok = (tag.kind == "Dihedral" and tag.param == 2 * r) or \
            (r == 1 and _is_cyclic_of(tag, 2)) or \
            (r == 2 and tag.kind == "ElemAbelian2" and tag.param == 2)
    elif a == r == 2:
        case, expected = "ii", "subgroup of ElemAbelian2(*)"
        ok = tag.kind in ("Trivial", "ElemAbelian2") or _is_cyclic_of(tag, 2)
    elif a == r:
        case, expected = "iii", f"Dihedral({2 * a})"
        ok = tag.kind == "Dihedral" and tag.param == 2 * a
    elif r % a == 0:
        case, expected = "iv", f"Cyclic({a})"
        ok = _is_cyclic_of(tag, a) or (a == 2 and tag.kind == "Trivial")
    else:
        case, expected = "v", f"Cyclic({a // 2})"
        ok = _is_cyclic_of(tag, a // 2)
    if not ok:
        raise InconsistentError(
            {"case": case, "expected": expected, "observed": str(tag),
             "r": r, "a": a, "order": tag.order})
    return case


def quotient_action(group: GroupByGenerators, blocks: tuple,
                    kernel: GroupByGenerators) -> GroupByGenerators:
    """Induced permutation group on the blocks, whose order is verified to
    be |G| / |kernel| for the kernel of the action."""
    induced = GroupByGenerators(
        tuple(map(Permutation, block_images(group, blocks))),
        degree=len(blocks))
    expect = group.order() // kernel.order()
    if induced.order() != expect:
        raise InconsistentError(
            {"induced_order": induced.order(), "expected": expect})
    return induced


def psi_isomorphism(s: AltStructure, blocks: tuple,
                    quotient_alt: AltStructure) -> dict:
    """The cycle-level map: each alternating cycle goes to the sequence of
    blocks its vertices traverse, which is an alternating cycle of the
    quotient.  Verified to be an adjacency-preserving bijection both ways.

    Requires a < r (for a >= r the quotient collapses too far).
    """
    if s.attachment >= s.radius:
        raise PreconditionFailedError(
            f"cycle-level isomorphism needs a < r, got a = {s.attachment}, "
            f"r = {s.radius}")
    block_of = block_index(blocks, len(s.roles))
    q_sets = {frozenset(c): cid for cid, c in enumerate(quotient_alt.cycles)}
    mapping = {}
    used = set()
    for cid, cycle in enumerate(s.cycles):
        image = frozenset(block_of[v] for v in cycle)
        if image not in q_sets:
            raise InconsistentError(
                {"cycle": cid, "reason": "block image is not a quotient "
                 "alternating cycle", "image": sorted(image)})
        mapping[cid] = q_sets[image]
        used.add(q_sets[image])
    if len(used) != len(quotient_alt.cycles):
        raise InconsistentError({"reason": "cycle map is not a bijection"})
    back = {v: k for k, v in mapping.items()}
    moved = {edge_key(mapping[i], mapping[j]) for i, j in s.cycle_pairs}
    broken = moved ^ set(quotient_alt.cycle_pairs)
    if broken:
        raise InconsistentError(
            {"pair": min(edge_key(back[x], back[y]) for x, y in broken),
             "reason": "adjacency not preserved"})
    return mapping


def thm_pipeline(rec: Analysis) -> dict:
    """End-to-end quotient reduction for a half-arc-transitive pair.

    Outcome "tight": a = r, no further reduction.  Outcome "quotient":
    a < r; the half-step blocks are exactly the orbits of their kernel,
    the kernel fits row iv (a | r) or v (a ∤ r) of ``classify_kernel``'s
    table, and the quotient with the induced group is a certified
    half-arc-transitive pair that is loosely (a | r) or antipodally (a ∤ r)
    attached.

    For even radius with a = 2, the group is first extended by the
    antipodal automorphism when that exists outside the group.  The
    extended group gets a fresh ``Analysis`` of the same graph, which
    certifies it and derives its orientation, structure and kernels anew;
    the rest of the reduction reads that record.
    """
    s = rec.structure
    if s.attachment == 2 * s.radius:
        raise PreconditionFailedError(
            "the two-cycle degenerate case admits no quotient reduction")

    extended = False
    if s.radius % 2 == 0 and s.attachment == 2:
        tau = antipodal_tau(rec.orientation, s)
        # tau maps each cycle's vertex set onto itself, and two cycles
        # share at most a = 2 < 2r vertices, so if tau lies in G it fixes
        # every cycle: tau is in G exactly when it is in K_alt
        if tau is not None and tau not in rec.kernels["K_alt"]:
            rec = Analysis(rec.graph, GroupByGenerators(
                rec.group.generators + (tau,), degree=rec.group.degree))
            s = rec.structure
            extended = True

    report = {"r": s.radius, "a": s.attachment, "ell": s.ell,
              "jum": s.jum, "extended_by_tau": extended}
    if s.attachment == s.radius:
        report["outcome"] = "tight"
        return report

    b = construction_b(s)
    k_b = rec.kernels["K_B"]
    orbit_blocks = _sorted_blocks(k_b.orbits(range(rec.graph.n)))
    if orbit_blocks != b:
        raise InconsistentError(
            {"reason": "kernel orbits differ from the half-step blocks"})
    tag = rec.tags["K_B"]
    classify_kernel(s, tag)

    q = quotient_graph(rec.graph, b)
    induced = quotient_action(rec.group, b, k_b)
    if q.degenerate:
        report.update(outcome="degenerate-quotient",
                      kernel=str(tag), quotient_n=q.graph.n)
        return report
    q_s = Analysis(q.graph, induced).structure
    want_kind = "loose" if s.radius % s.attachment == 0 else "antipodal"
    if q_s.attachment_kind != want_kind:
        raise InconsistentError(
            {"reason": "quotient attachment kind mismatch",
             "observed": q_s.attachment_kind, "expected": want_kind})
    psi = psi_isomorphism(s, b, q_s)
    report.update(outcome="quotient", kernel=str(tag),
                  quotient_n=q.graph.n, quotient_r=q_s.radius,
                  quotient_a=q_s.attachment,
                  quotient_kind=q_s.attachment_kind,
                  psi_cycle_map={int(k): int(v) for k, v in psi.items()})
    return report


class Analysis:
    """One (graph, group) instance and its analysis chain: the certified
    orientation, the alternating structure, the three kernels, their
    structures and case, and the quotient reduction.  Each field is
    computed on first use and cached, so every reader shares one
    computation.  ``params`` are the construction parameters of a
    layered-family instance, else None.
    """

    def __init__(self, graph: Graph, group: GroupByGenerators, params=None):
        self.graph = graph
        self.group = group
        self.params = params

    @cached_property
    def orientation(self) -> OrientedGraph:
        return certify_hat(self.graph, self.group)

    @cached_property
    def structure(self) -> AltStructure:
        return analyze(self.orientation)

    @cached_property
    def kernels(self) -> dict:
        return kernels(self.group, self.structure)

    @cached_property
    def kernels_equal(self) -> bool:
        """``kernels`` returns K_alt as K_B, and as K_A unless a = 2r.
        Then K_A is the group, which K_alt equals exactly when it is that
        object too, since ``action_kernel`` returns g when g fixes every
        block."""
        ks = self.kernels
        return ks["K_alt"] is ks["K_B"] is ks["K_A"]

    @cached_property
    def tags(self) -> dict:
        """Kernel name -> StructureTag, recognised once per distinct
        kernel object."""
        by_id = {}
        for k in self.kernels.values():
            if id(k) not in by_id:
                by_id[id(k)] = group_structure(k)
        return {name: by_id[id(k)] for name, k in self.kernels.items()}

    @cached_property
    def kernel_case(self) -> str:
        """The row of the five-case table that K_alt fits."""
        return classify_kernel(self.structure, self.tags["K_alt"])

    @cached_property
    def pipeline(self) -> dict:
        return thm_pipeline(self)
