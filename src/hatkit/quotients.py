"""Block systems over the attachment structure, quotient graphs, the
alternating-cycle graph, the three setwise-fixing kernels and their
structural classification, induced quotient actions, the cycle-level
isomorphism between the alternating-cycle graphs of a graph and of its
quotient, and the per-instance analysis record that chains them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional

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
    group_structure,
)


@dataclass(frozen=True)
class BlockSystem:
    """A partition of the vertex set into equal-size blocks: the attachment
    sets (block size a), or the half-step blocks of ``construction_b``."""

    blocks: tuple  # tuple of frozensets, ordered by least element

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def block_size(self) -> int:
        return len(self.blocks[0])

    def block_of(self) -> dict:
        out = {}
        for k, b in enumerate(self.blocks):
            for v in b:
                out[v] = k
        return out


def _sorted_blocks(blocks) -> tuple:
    return tuple(sorted((frozenset(b) for b in blocks), key=min))


def attachment_partition(s: AltStructure) -> BlockSystem:
    return BlockSystem(s.attachment_sets)


def construction_b(s: AltStructure) -> BlockSystem:
    """The half-step block system.

    For even ell this is exactly the attachment partition.  For odd ell the
    double-step orbit through a vertex picks out every other attachment
    position, i.e. the vertices sharing that vertex's orientation role
    (double tail vs double head) on the cycle, so each attachment set splits
    into its two role-halves of size a/2.
    """
    if s.ell % 2 == 0:
        return attachment_partition(s)
    blocks = []
    for aset in s.attachment_sets:
        tail = s.roles[min(aset)][0]
        half = frozenset(v for v in aset if s.roles[v][0] == tail)
        if 2 * len(half) != len(aset):
            raise InconsistentError(
                {"attachment_set": sorted(aset),
                 "reason": "role halves of unequal size"})
        blocks.extend([half, aset - half])
    return BlockSystem(_sorted_blocks(blocks))


@dataclass(frozen=True)
class QuotientGraph:
    """Simple quotient on the blocks, with the largest number of original
    edges over one quotient edge.  degenerate flags the cycle-with-doubled-
    edges pattern, which is excluded from half-arc-transitivity analysis."""

    graph: Graph
    multiplicity: int
    degenerate: bool


def quotient_graph(g: Graph, b: BlockSystem) -> QuotientGraph:
    block_of = b.block_of()
    if len(block_of) != g.n:
        raise ValueError("block system does not partition the vertex set")
    counts: Dict[tuple, int] = {}
    for u, v in g.edges:
        bu, bv = block_of[u], block_of[v]
        if bu == bv:
            continue
        counts[edge_key(bu, bv)] = counts.get(edge_key(bu, bv), 0) + 1
    q = build_graph(len(b.blocks), sorted(counts))
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
    the vertices: K_alt on the alternating cycles, K_B on the half-step
    blocks and K_A on the attachment sets, all read from one stabilizer
    chain.  For even ell the half-step blocks are the attachment sets, so
    K_A is K_B.

    K_alt fixes each cycle's edge set; it is the kernel on the partition
    T of V by tail cycle.  Every vertex is the tail of both its arcs on
    exactly one cycle, so a cycle's 2r edges are the out-arcs of its r
    tail vertices.  The group preserves the orientation, which
    ``certify_hat`` defines as a group orbit, so an element fixes a
    cycle's edge set exactly when it fixes the cycle's tail set.  In the
    degenerate case a = 2r the two Hamilton cycles have disjoint tail
    sets, so the partition still tells them apart.

    ``action_kernel`` builds one chain on T, the attachment sets A and,
    for odd ell, the half-step blocks B, in that order; its levels after
    T, after T and A and after all three are K_alt, K_alt ∩ K_A and
    K_alt ∩ K_A ∩ K_B.  Two facts make these the three kernels:

    - B refines both T and A: a half-step block is the half of an
      attachment set whose vertices share their tail cycle.  So K_B
      fixes every block of T and A, and the last level is K_B.
    - For a < 2r, K_A ≤ K_alt.  A cycle's vertex set is the union of the
      attachment sets on it.  An element of K_A fixes every attachment
      set and preserves D, so it maps each cycle to a cycle with the same
      vertex set.  Two distinct cycles share at most a < 2r vertices, so
      the element fixes each cycle, and with it each cycle's tail set.
      So the level after T and A is K_A.

    In the degenerate case a = 2r there is one attachment set, so K_A is
    the whole group.
    """
    tails = [set() for _ in s.cycles]
    for v, role in s.roles.items():
        tails[role[0]].add(v)
    partitions = [tails, attachment_partition(s).blocks]
    if s.ell % 2:
        partitions.append(construction_b(s).blocks)
    k_alt, k_a, *k_b = action_kernel(group, *partitions)
    if s.attachment == 2 * s.radius:
        k_a = group
    return {"K_alt": k_alt, "K_B": k_b[0] if k_b else k_a, "K_A": k_a}


@dataclass(frozen=True)
class KernelCase:
    """Classification of the cycle-fixing kernel by (r, a)."""

    case: str  # "i" | "ii" | "iii" | "iv" | "v"
    expected: str
    observed: StructureTag
    consistent: bool


def _is_cyclic_of(tag: StructureTag, k: int) -> bool:
    if k == 1:
        return tag.kind == "Trivial"
    return tag.kind == "Cyclic" and tag.param == k


def classify_kernel(s: AltStructure, tag: StructureTag) -> KernelCase:
    """Match the kernel's recognised structure against the five-case table:

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
    return KernelCase(case=case, expected=expected, observed=tag,
                      consistent=True)


def quotient_action(group: GroupByGenerators, b: BlockSystem,
                    kernel: Optional[GroupByGenerators] = None
                    ) -> GroupByGenerators:
    """Induced permutation group on the blocks.  When the block kernel is
    supplied, the induced order is verified to be |G| / |kernel|."""
    induced = GroupByGenerators(
        tuple(map(Permutation, block_images(group, b.blocks))),
        degree=len(b.blocks))
    if kernel is not None:
        expect = group.order() // kernel.order()
        if induced.order() != expect:
            raise InconsistentError(
                {"induced_order": induced.order(), "expected": expect})
    return induced


def psi_isomorphism(s: AltStructure, b: BlockSystem,
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
    block_of = b.block_of()
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
    if len(used) != len(quotient_alt.cycles) or len(mapping) != len(s.cycles):
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
        if tau is not None and tau not in rec.group:
            rec = Analysis(rec.graph, rec.group.with_extra_generator(tau))
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
    if orbit_blocks != b.blocks:
        raise InconsistentError(
            {"reason": "kernel orbits differ from the half-step blocks"})
    tag = rec.tags["K_B"]
    classify_kernel(s, tag)

    q = quotient_graph(rec.graph, b)
    induced = quotient_action(rec.group, b, kernel=k_b)
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


def _same_group(h: GroupByGenerators, k: GroupByGenerators) -> bool:
    """One object, or equal orders and every generator of h lies in k.
    ``action_kernel`` makes equal kernels of one chain one object."""
    return h is k or (h.order() == k.order()
                      and all(p in k for p in h.generators))


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
        ks = self.kernels
        return (_same_group(ks["K_alt"], ks["K_B"])
                and _same_group(ks["K_B"], ks["K_A"]))

    @cached_property
    def tags(self) -> dict:
        """Kernel name -> StructureTag, recognised once per distinct
        subgroup."""
        out = {}
        for name, k in self.kernels.items():
            same = [seen for seen in out if _same_group(self.kernels[seen], k)]
            out[name] = out[same[0]] if same else group_structure(k)
        return out

    @cached_property
    def kernel_case(self) -> KernelCase:
        return classify_kernel(self.structure, self.tags["K_alt"])

    @cached_property
    def pipeline(self) -> dict:
        return thm_pipeline(self)
