import dataclasses
import sys
from pathlib import Path

import pytest
from sympy.combinatorics import Permutation as SymPerm, PermutationGroup

from hatkit import quotients
from hatkit.alternating import AltStructure, analyze, antipodal_tau
from hatkit.constructions import (
    XeParams,
    XoParams,
    build_cubic_arc_graph,
    build_wreath,
    build_xe,
    build_xo,
    special_circulant_k44,
    wreath_hat_group,
)
from hatkit.errors import (
    BlocksNotInvariantError,
    InconsistentError,
    PreconditionFailedError,
    TooFewCyclesError,
)
from hatkit.fileio import bundle_from_json
from hatkit.graphcore import build_graph, certify_hat
from hatkit.harness import GridConfig, instance_pool
from hatkit.perm import (
    GroupByGenerators,
    Permutation,
    StructureTag,
    action_kernel,
    group_structure,
)
from hatkit.quotients import (
    Analysis,
    alt_graph,
    classify_kernel,
    construction_b,
    kernels,
    psi_isomorphism,
    quotient_action,
    quotient_graph,
    thm_pipeline,
)
from oracles import closure, inverse, pinned_closure, setwise_action

HATBENCH = Path(__file__).resolve().parents[1] / "hatbench"


def analyzed(g, grp):
    return analyze(certify_hat(g, grp))


def k4_arc_instance():
    from hatkit.autsearch import automorphism_group
    k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    return build_cubic_arc_graph(k4, automorphism_group(k4))


def stub_structure(r, a):
    """Bare (r, a) carrier for exercising the classification table rows
    that have no desk-scale instance."""
    return AltStructure(cycles=(), radius=r, attachment=a, ell=2 * r // a,
                        attachment_sets=(), q_t=1, q_h=1, jum=1,
                        roles={})


def cyclic_group(k, degree=None):
    degree = degree or k
    return GroupByGenerators(
        (Permutation.from_mapping(degree, lambda x: (x + 1) % k
                                  if x < k else x),), degree=degree)


class TestBlockSystems:
    def test_attachment_partition_layers(self):
        g, grp = build_xo(XoParams(3, 9, 2))
        b = analyzed(g, grp).attachment_sets
        assert len(b) == 3 and len(b[0]) == 9
        # the attachment sets are the layers of the construction
        assert b == tuple(frozenset(range(9 * i, 9 * i + 9))
                          for i in range(3))

    def test_xe_partition(self):
        g, grp = build_xe(XeParams(4, 20, 3, 0))
        b = analyzed(g, grp).attachment_sets
        assert len(b) == 4 and len(b[0]) == 20

    def test_construction_b_even_ell_equals_attachment(self):
        g, grp = build_xo(XoParams(3, 9, 2))  # ell = 2
        s = analyzed(g, grp)
        assert construction_b(s) == s.attachment_sets

    def test_construction_b_odd_ell_halves(self):
        g, grp = k4_arc_instance()  # a = 2, ell = 3
        s = analyzed(g, grp)
        b = construction_b(s)
        assert len(b[0]) == 1 and len(b) == g.n


class TestQuotientGraph:
    def test_tight_quotient_is_triangle(self):
        g, grp = build_xo(XoParams(3, 9, 2))
        q = quotient_graph(g, analyzed(g, grp).attachment_sets)
        assert q.graph.n == 3 and len(q.graph.edges) == 3
        # a tightly attached graph collapses to a cycle: flagged degenerate
        assert q.degenerate and q.multiplicity > 1

    def test_singleton_blocks_identity_quotient(self):
        g, grp = k4_arc_instance()
        s = analyzed(g, grp)
        q = quotient_graph(g, construction_b(s))
        assert q.graph.edges == g.edges
        assert q.multiplicity == 1

    def test_wreath_fiber_quotient_degenerate(self):
        n = 5
        g = build_wreath(n)
        fibers = tuple(frozenset({2 * i, 2 * i + 1}) for i in range(n))
        q = quotient_graph(g, fibers)
        assert q.multiplicity == 4 and q.degenerate
        assert q.graph.is_regular(2)


class TestAltGraph:
    def test_triangle(self):
        g, grp = build_xo(XoParams(3, 9, 2))
        a = alt_graph(analyzed(g, grp))
        assert a.n == 3 and len(a.edges) == 3

    def test_cycle_for_larger_m(self):
        g, grp = build_xo(XoParams(5, 11, 3))
        a = alt_graph(analyzed(g, grp))
        assert a.n == 5 and a.is_regular(2) and a.is_connected

    def test_two_cycles_rejected(self):
        g, grp = special_circulant_k44()
        with pytest.raises(TooFewCyclesError):
            alt_graph(analyzed(g, grp))


class TestKernels:
    def test_reference_kernels(self):
        g, grp = build_xo(XoParams(3, 9, 2))
        ks = kernels(grp, analyzed(g, grp))
        assert (closure(ks["K_alt"]) == closure(ks["K_B"])
                == closure(ks["K_A"]))
        assert ks["K_alt"].order() == 18
        assert str(group_structure(ks["K_alt"])) == "Dihedral(18)"

    def test_wreath_kernel_elementary_abelian(self):
        n = 5
        g = build_wreath(n)
        grp = wreath_hat_group(n)
        ks = kernels(grp, analyzed(g, grp))
        assert str(group_structure(ks["K_alt"])) == f"ElemAbelian2({n})"

    def test_degenerate_kernel_dihedral(self):
        g, grp = special_circulant_k44()
        ks = kernels(grp, analyzed(g, grp))
        assert str(group_structure(ks["K_alt"])) == "Dihedral(8)"

    def test_arc_graph_kernel_trivial(self):
        g, grp = k4_arc_instance()
        ks = kernels(grp, analyzed(g, grp))
        assert ks["K_alt"].order() == 1


def ladder_bundles():
    """Every bundle the benchmark's analyze-ladder writes, for any seed:
    each q (and t) at each of its rungs, the wreath rungs and the arc
    graphs, built by the benchmark's own generators."""
    sys.path.insert(0, str(HATBENCH))
    try:
        import instances as inst
        import workloads
    finally:
        sys.path.remove(str(HATBENCH))
    out = [(m * r, inst.xo_edges(m, r, q), inst.xo_generators(m, r, q))
           for m, r in workloads.XO_RUNGS for q in inst.xo_params(m, r)]
    m, r = workloads.XE_RUNG
    out += [(m * r, inst.xe_edges(m, r, q, t), inst.xe_generators(m, r, q, t))
            for q, t in inst.xe_params(m, r)]
    out += [(2 * n, inst.wreath_edges(n), inst.wreath_generators(n))
            for n in workloads.WREATH_SIZES]
    out += [inst.arc_graph(name) for name in inst.CUBIC_SEEDS]
    return [bundle_from_json(inst.bundle_json(*b)) for b in out]


def pinned_kernels(rec, monkeypatch, pinned=True):
    """The kernels of a fresh copy of rec's group, with ``action_kernel``
    given the pins that ``kernels`` hands it, or none, so that it pins
    every vertex; and the pins ``kernels`` handed it."""
    seen = []

    def spy(g, *partitions, pins):
        seen.append(tuple(pins))
        return action_kernel(g, *partitions, pins=pins if pinned else ())
    group = GroupByGenerators(rec.group.generators, degree=rec.group.degree)
    with monkeypatch.context() as m:
        m.setattr(quotients, "action_kernel", spy)
        ks = kernels(group, rec.structure)
    return group, ks, seen[0]


def kernel_facts(group, ks) -> tuple:
    """What a kernel chain decides: the orbit length at every block level,
    which fixes the order at each cut, |G|, the kernels' orders and
    structures, and which of them are one object."""
    level = group._chain
    return ([len(t) for t in level.chain.tree[:level.k]], group.order(),
            {name: (k.order(), str(group_structure(k)))
             for name, k in ks.items()},
            (ks["K_alt"] is ks["K_B"], ks["K_B"] is ks["K_A"],
             ks["K_A"] is group))


class TestPins:
    """``kernels`` pins its chain with both ends of the first edge of each
    alternating cycle."""

    def test_pins_fix_every_vertex(self, monkeypatch):
        recs = [rec for _key, rec in instance_pool(GridConfig())]
        recs += [Analysis(g, grp) for g, grp, _params in ladder_bundles()]
        assert len(recs) == 235 + 31
        for rec in recs:
            _group, _ks, pins = pinned_kernels(rec, monkeypatch)
            assert pins == tuple(dict.fromkeys(
                v for c in rec.structure.cycles for v in c[:2]))
            n = rec.graph.n
            assert pinned_closure(rec.orientation, pins) == set(range(n))

    def test_cycle_pins_equal_every_point_pins(self, monkeypatch):
        """Given no pins, ``action_kernel`` pins every vertex, and the
        kernels come out the same."""
        for key, rec in instance_pool(GridConfig()):
            pinned = pinned_kernels(rec, monkeypatch)
            every = pinned_kernels(rec, monkeypatch, pinned=False)
            k = every[0]._chain.k
            assert pinned[0]._chain.chain.base[k:] == [
                k + v for v in pinned[2]]
            assert every[0]._chain.chain.base[k:] == list(
                range(k, k + rec.graph.n))
            assert (kernel_facts(*pinned[:2])
                    == kernel_facts(*every[:2])), key

    def test_pinned_swap_is_not_a_member(self, monkeypatch):
        rec = Analysis(*build_xo(XoParams(4, 9, 1)))
        group, ks, pins = pinned_kernels(rec, monkeypatch)
        s = rec.structure
        # two vertices, no pin, with the same tail cycle and attachment set
        # (which for even ell is also the half-step block)
        same = {}
        for i, aset in enumerate(s.attachment_sets):
            for v in sorted(aset - set(pins)):
                same.setdefault((i, s.roles[v][0]), []).append(v)
        u, w = next(vs for vs in same.values() if len(vs) > 1)[:2]
        images = list(range(rec.graph.n))
        images[u], images[w] = w, u
        swap = Permutation(tuple(images))
        tails = [frozenset(v for v in range(rec.graph.n)
                           if s.roles[v][0] == c) for c in range(len(s.cycles))]
        assert all(swap(v) == v for v in pins)
        assert all(setwise_action(b, swap) == b
                   for b in (*tails, *s.attachment_sets, *construction_b(s)))
        assert group._chain.lift(swap.images) is not None
        assert swap not in group
        assert all(swap not in k for k in ks.values())


def tail_sets(s) -> list:
    """The partition T of the vertices by tail cycle."""
    return [frozenset(v for v, role in enumerate(s.roles) if role[0] == c)
            for c in range(len(s.cycles))]


class TestHalfStepMeet:
    """The half-step blocks are the meet A ∧ T of the attachment sets and
    the tail sets, so K_B = K_alt ∩ K_A, which is K_alt: K_alt fixes
    every attachment set."""

    def test_construction_b_is_the_meet(self):
        recs = [rec for _key, rec in instance_pool(GridConfig())]
        recs += [Analysis(g, grp) for g, grp, _params in ladder_bundles()]
        assert len(recs) == 235 + 31
        for rec in recs:
            s = rec.structure
            meets = [a & t for a in s.attachment_sets for t in tail_sets(s)]
            assert construction_b(s) == tuple(
                sorted(filter(None, meets), key=min)), rec.graph.n

    def test_k_b_and_k_a_match_their_own_partitions(self):
        """K_B against the kernel of a chain on B alone, and for a < 2r
        K_A against the kernel of a chain on A alone, each on a fresh copy
        of the group."""
        pool = list(instance_pool(GridConfig()))
        pool += [(f"ladder {i}", Analysis(g, grp))
                 for i, (g, grp, _params) in enumerate(ladder_bundles())]
        assert len(pool) == 235 + 31
        for key, rec in pool:
            s = rec.structure
            pins = dict.fromkeys(v for c in s.cycles for v in c[:2])
            partitions = {"K_B": construction_b(s)}
            if s.attachment < 2 * s.radius:
                partitions["K_A"] = s.attachment_sets
            for name, blocks in partitions.items():
                group = GroupByGenerators(rec.group.generators,
                                          degree=rec.group.degree)
                want = action_kernel(group, blocks, pins=pins)
                assert rec.kernels[name].order() == want.order(), key
                assert rec.tags[name] == group_structure(want), key

    def test_attachment_sets_moved_by_k_alt_raise(self):
        """Attachment sets regrouped into single vertices, which K_alt
        permutes but does not fix, fail the check K_alt ≤ K_A."""
        g, grp = build_xo(XoParams(3, 9, 2))
        s = analyzed(g, grp)
        singles = tuple(frozenset({v}) for v in range(g.n))
        with pytest.raises(InconsistentError):
            kernels(grp, dataclasses.replace(s, attachment_sets=singles))


def classified(g, grp):
    """The row of K_alt and K_alt's recognised structure."""
    s = analyzed(g, grp)
    tag = group_structure(kernels(grp, s)["K_alt"])
    return classify_kernel(s, tag), str(tag)


class TestClassify:
    def test_case_iii(self):
        assert classified(*build_xo(XoParams(3, 9, 2))) == (
            "iii", "Dihedral(18)")

    def test_case_i(self):
        assert classified(*special_circulant_k44()) == ("i", "Dihedral(8)")

    def test_case_ii(self):
        assert classified(build_wreath(4), wreath_hat_group(4))[0] == "ii"

    def test_case_v(self):
        assert classified(*k4_arc_instance())[0] == "v"

    def test_case_iv_table_row(self):
        # no desk-scale instance exists with 3 <= a < r, a | r; the table
        # row itself is exercised with a synthetic kernel
        tag = group_structure(cyclic_group(3))
        assert str(tag) == "Cyclic(3)"
        assert classify_kernel(stub_structure(r=12, a=3), tag) == "iv"

    def test_case_iv_a2_trivial_allowed(self):
        assert classify_kernel(stub_structure(r=4, a=2),
                               StructureTag("Trivial")) == "iv"

    def test_inconsistent_raises(self):
        with pytest.raises(InconsistentError):
            classify_kernel(stub_structure(r=12, a=3),
                            group_structure(cyclic_group(4)))


class TestQuotientAction:
    def test_induced_order(self):
        g, grp = build_xo(XoParams(3, 9, 2))
        s = analyzed(g, grp)
        ks = kernels(grp, s)
        induced = quotient_action(grp, s.attachment_sets, ks["K_A"])
        assert induced.order() == grp.order() // ks["K_A"].order()

    def test_wrong_kernel_order_rejected(self):
        g, grp = build_xo(XoParams(3, 9, 2))
        b = analyzed(g, grp).attachment_sets
        with pytest.raises(InconsistentError):
            quotient_action(grp, b, GroupByGenerators.trivial(g.n))

    def test_non_invariant_blocks_rejected(self):
        g, grp = build_xo(XoParams(3, 9, 2))
        bad = tuple(frozenset({3 * i, 3 * i + 1, 3 * i + 2})
                    for i in range(9))
        with pytest.raises(BlocksNotInvariantError):
            quotient_action(grp, bad, GroupByGenerators.trivial(g.n))

    def test_trivial_group(self):
        g, grp = build_xo(XoParams(3, 9, 2))
        b = analyzed(g, grp).attachment_sets
        trivial = GroupByGenerators.trivial(g.n)
        induced = quotient_action(trivial, b, trivial)
        assert induced.order() == 1


class TestPsi:
    def test_arc_graph_psi(self):
        g, grp = k4_arc_instance()
        s = analyzed(g, grp)
        b = construction_b(s)
        q = quotient_graph(g, b)
        induced = quotient_action(grp, b, kernels(grp, s)["K_B"])
        q_s = analyze(certify_hat(q.graph, induced))
        mapping = psi_isomorphism(s, b, q_s)
        assert sorted(mapping) == list(range(len(s.cycles)))
        assert sorted(set(mapping.values())) == list(range(len(q_s.cycles)))

    def test_precondition(self):
        g, grp = build_xo(XoParams(3, 9, 2))
        s = analyzed(g, grp)
        with pytest.raises(PreconditionFailedError):
            psi_isomorphism(s, s.attachment_sets, s)


class TestPipeline:
    def test_tight_outcome(self):
        g, grp = build_xo(XoParams(3, 9, 2))
        report = thm_pipeline(Analysis(g, grp))
        assert report["outcome"] == "tight"

    def test_arc_graph_outcome(self):
        g, grp = k4_arc_instance()
        report = thm_pipeline(Analysis(g, grp))
        assert report["outcome"] == "quotient"
        assert report["quotient_kind"] == "antipodal"
        assert report["kernel"] == "Trivial"
        assert "psi_cycle_map" in report

    def test_degenerate_rejected(self):
        g, grp = special_circulant_k44()
        with pytest.raises(PreconditionFailedError):
            thm_pipeline(Analysis(g, grp))

    def test_wreath_tight(self):
        g = build_wreath(6)
        report = thm_pipeline(Analysis(g, wreath_hat_group(6)))
        assert report["outcome"] == "tight"

    @pytest.mark.parametrize("k", range(3, 9))
    def test_even_swap_subgroup_extended_by_tau(self, k):
        """H = <rho, s0 * s1>, with s1 = rho^-1 * s0 * rho, swaps an even
        number of fibers.  The antipodal tau swaps every fiber, so it lies
        in H exactly when k is even, and the pipeline extends H by it for
        odd k."""
        rho, s0 = wreath_hat_group(k).generators
        h = GroupByGenerators((rho, s0 * inverse(rho) * s0 * rho))
        rec = Analysis(build_wreath(k), h)
        report = rec.pipeline
        tau = antipodal_tau(rec.orientation, rec.structure)
        oracle = PermutationGroup([SymPerm(list(p.images))
                                   for p in h.generators])
        assert h.order() == oracle.order() == k * 2 ** (k - 1)
        assert (tau in h) == oracle.contains(SymPerm(list(tau.images)))
        assert (tau in h) == (k % 2 == 0)
        assert report["extended_by_tau"] == (k % 2 == 1)
        assert report["outcome"] == "tight"
