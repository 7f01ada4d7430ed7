import dataclasses
import random

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st

from hatkit.alternating import (
    _vertex_roles,
    alt_bipartition,
    alternating_cycles,
    analyze,
    antipodal_tau,
    associated_circulant,
    build_rho,
    check_mult_lemma,
    min_r_jump,
    rotation_profile,
)
from hatkit.constructions import (
    XeParams,
    XoParams,
    build_circulant,
    build_cubic_arc_graph,
    build_wreath,
    build_xe,
    build_xo,
    special_circulant_k44,
    wreath_hat_group,
)
from hatkit.errors import (
    AlternatingStructureError,
    HatkitError,
    NotCyclePreservingError,
    PreconditionFailedError,
    UnequalCycleLengthsError,
)
from hatkit.graphcore import build_graph, certify_hat, edge_key
from hatkit.harness import GridConfig, instance_pool, param_grid
from hatkit.quotients import kernels
import oracles
from oracles import (certified_heads, head_of, is_identity, jump_at,
                     orientation_from_arcs, orientation_from_heads,
                     reverse_orientation)
from test_harness import SMALL


def oriented(g, grp):
    return certify_hat(g, grp)


def analyzed(builder, p):
    g, grp = builder(p)
    return g, grp, analyze(oriented(g, grp))


def loose_orientation(k):
    """A radius-2 orientation whose alternating 4-cycles pairwise meet in at
    most one vertex: vertices are the edges of Circ_k({+-1, +-2}); the i-th
    4-cycle runs tail {i,i+1}, head {i,i-1}, tail {i,i+2}, head {i,i-2}."""
    labels = sorted({frozenset({i % k, j % k})
                     for i in range(k) for j in (i + 1, i + 2)},
                    key=sorted)
    idx = {lab: x for x, lab in enumerate(labels)}

    def v(a, b):
        return idx[frozenset({a % k, b % k})]

    arcs = []
    for i in range(k):
        arcs.append((v(i, i + 1), v(i, i - 1)))
        arcs.append((v(i, i + 2), v(i, i - 1)))
        arcs.append((v(i, i + 2), v(i, i - 2)))
        arcs.append((v(i, i + 1), v(i, i - 2)))
    from hatkit.graphcore import build_graph
    edges = sorted({tuple(sorted(a)) for a in arcs})
    return orientation_from_arcs(build_graph(2 * k, edges), arcs)


def three_cycles(A, orders):
    """Three alternating cycles: cycle i alternates the double heads
    A[i-1], in the order orders[i], with the double tails A[i], in order;
    None when two cycles share an edge."""
    edge_heads = {}
    for i in range(3):
        heads = [A[i - 1][j] for j in orders[i]]
        cycle = [v for j in range(len(A[i])) for v in (heads[j], A[i][j])]
        for j, u in enumerate(cycle):
            w = cycle[(j + 1) % len(cycle)]
            if edge_key(u, w) in edge_heads:
                return None
            edge_heads[edge_key(u, w)] = u if u in heads else w
    return orientation_from_heads(build_graph(sum(map(len, A)), edge_heads),
                                  edge_heads)


def jump_differs_orientation():
    """Three alternating 10-cycles: A[i] runs along cycle i+1 in its order
    on cycle i multiplied by mult[i] mod 5.  The jump pair is (2, 2) on
    A[1] and A[2] but (1, 1) on A[0], which avoids vertices 0, 3, 6 and
    9, the only ones a three-vertex sample saw."""
    A = ((1, 2, 4, 5, 7), (0, 3, 6, 8, 10), (9, 11, 12, 13, 14))
    mult = (1, 2, 2)
    return three_cycles(A, [[mult[i - 1] * j % 5 for j in range(5)]
                            for i in range(3)])


class TestAlternatingCycles:
    def test_xo_cycle_count_and_length(self):
        _g, _grp, s = analyzed(build_xo, XoParams(3, 9, 2))
        assert len(s.cycles) == 3
        assert all(len(c) == 18 for c in s.cycles)

    def test_xe_cycle_count(self):
        _g, _grp, s = analyzed(build_xe, XeParams(4, 20, 3, 0))
        assert len(s.cycles) == 4
        assert all(len(c) == 40 for c in s.cycles)

    def test_wreath_cycles(self):
        for n in (3, 6):
            g = build_wreath(n)
            cycles = alternating_cycles(oriented(g, wreath_hat_group(n)))
            assert len(cycles) == n
            assert all(len(c) == 4 for c in cycles)

    def test_each_edge_in_one_cycle(self):
        g, grp = build_xo(XoParams(3, 9, 2))
        cycles = alternating_cycles(oriented(g, grp))
        seen = []
        for c in cycles:
            for i in range(len(c)):
                seen.append(tuple(sorted((c[i - 1], c[i]))))
        assert sorted(seen) == sorted(g.edges)

    def test_normalization(self):
        g, grp = build_xo(XoParams(3, 9, 2))
        for c in alternating_cycles(oriented(g, grp)):
            assert c[0] == min(c)
            assert c[1] < c[-1]

    def test_traversal_and_roles_match_lookup_oracle(self):
        orientations = [loose_orientation(7)]
        for _key, rec in instance_pool(SMALL):
            orientations += [rec.orientation,
                             reverse_orientation(rec.orientation)]
        for og in orientations:
            cycles = alternating_cycles(og)
            assert cycles == oracles.alternating_cycles(og)
            assert (dict(enumerate(zip(*_vertex_roles(og, cycles))))
                    == oracles.vertex_roles(og, cycles))

    def test_role_checks_match_lookup_oracle(self):
        n = 9
        og = orientation_from_arcs(
            build_circulant(n, {1, -1, 2, -2}),
            [(x, (x + d) % n) for x in range(n) for d in (1, 2)])
        (cycle,) = alternating_cycles(og)  # through every vertex twice
        bad = {"not alternating at vertex 0": [tuple(range(n))],
               "double tail": [cycle, cycle],
               "exactly two": [cycle],
               "vertex 2 is a double head": [(2, 1), (2, 0)]}
        for message, cycles in bad.items():
            with pytest.raises(AlternatingStructureError,
                               match=message) as got:
                _vertex_roles(og, cycles)
            with pytest.raises(AlternatingStructureError) as want:
                oracles.vertex_roles(og, cycles)
            assert str(got.value) == str(want.value)

    def test_vertex_repeating_walk_rejected(self):
        # K5 oriented x -> x+1, x -> x+2: the walk revisits vertices
        g = build_circulant(5, {1, -1, 2, -2})
        og = orientation_from_arcs(
            g, [(x, (x + d) % 5) for x in range(5) for d in (1, 2)])
        with pytest.raises(AlternatingStructureError):
            analyze(og)


class TestAnalyze:
    def test_reference_values(self):
        _g, _grp, s = analyzed(build_xo, XoParams(3, 9, 2))
        assert (s.radius, s.attachment) == (9, 9)
        assert s.Q == {2, 4} and s.jum == 2
        assert s.attachment_kind == "tight"

    def test_even_family_values(self):
        for t in (0, 10):
            _g, _grp, s = analyzed(build_xe, XeParams(4, 20, 3, t))
            assert s.attachment == 20 and s.Q == {3, 7}

    def test_odd_13(self):
        _g, _grp, s = analyzed(build_xo, XoParams(3, 13, 3))
        assert s.attachment == 13 and s.jum == 3

    def test_attachment_two_gives_q_one(self):
        from hatkit.autsearch import automorphism_group
        from hatkit.graphcore import build_graph
        k4 = build_graph(4, [(i, j) for i in range(4)
                             for j in range(i + 1, 4)])
        g, grp = build_cubic_arc_graph(k4, automorphism_group(k4))
        s = analyze(oriented(g, grp))
        assert s.attachment == 2 and s.Q == {1}

    def test_loose_orientation(self):
        s = analyze(loose_orientation(7))
        assert s.radius == 2 and s.attachment == 1
        assert s.Q == {0} and s.jum == 0
        assert s.attachment_kind == "loose"
        assert all(len(b) == 1 for b in s.attachment_sets)

    def test_degenerate_two_cycles(self):
        g, grp = special_circulant_k44()
        s = analyze(oriented(g, grp))
        assert s.attachment == 2 * s.radius == 8
        assert len(s.cycles) == 2

    def test_reverse_orientation_swaps_jump_roles(self):
        g, grp = build_xo(XoParams(3, 9, 2))
        s = analyze(oriented(g, grp))
        s_rev = analyze(reverse_orientation(oriented(g, grp)))
        assert (s_rev.q_t, s_rev.q_h) == (s.q_h, s.q_t)
        assert s_rev.Q == s.Q

    def test_attachment_sets_partition(self):
        g, grp = build_xe(XeParams(4, 8, 3, 0))
        s = analyze(oriented(g, grp))
        union = set()
        for b in s.attachment_sets:
            assert len(b) == s.attachment
            assert not (union & b)
            union |= b
        assert union == set(range(g.n))

    def test_jump_pair_checked_at_every_vertex(self):
        og = jump_differs_orientation()
        with pytest.raises(AlternatingStructureError,
                           match="jump parameters differ at vertex 1"):
            analyze(og)

    def test_jump_pair_matches_search_oracle(self):
        orientations = [("loose", loose_orientation(7))]
        for key, rec in instance_pool(SMALL):
            orientations += [(key, rec.orientation),
                             (key + " reversed",
                              reverse_orientation(rec.orientation))]
        for key, og in orientations:
            s = analyze(og)
            for v in range(og.graph.n):
                assert jump_at(og, s.cycles, v, s.ell) == (s.q_t, s.q_h), \
                    (key, v)


class TestJumpLemmas:
    def test_grid_jump_formula(self):
        assert min_r_jump(2, 9) == 2  # min{2, 7, 5, 4}
        for builder, p in ((build_xo, XoParams(3, 9, 2)),
                           (build_xo, XoParams(6, 13, 3)),
                           (build_xo, XoParams(6, 13, 2)),
                           (build_xe, XeParams(4, 20, 3, 10))):
            _g, _grp, s = analyzed(builder, p)
            assert s.jum == min_r_jump(p.q, p.r)

    def test_mult_lemma(self):
        for builder, p in ((build_xo, XoParams(3, 9, 2)),
                           (build_xe, XeParams(4, 20, 3, 10))):
            g, grp = builder(p)
            og = oriented(g, grp)
            ok, witness = check_mult_lemma(analyze(og))
            assert ok and witness is None

    def test_mult_lemma_witness(self):
        _g, _grp, s = analyzed(build_xo, XoParams(3, 9, 2))
        assert (s.q_t, s.q_h) == (2, 4)
        assert check_mult_lemma(dataclasses.replace(s, q_t=4)) == (
            False, {"vertex": 0, "which": "q_t"})
        assert check_mult_lemma(dataclasses.replace(s, q_h=2)) == (
            False, {"vertex": 0, "which": "q_h"})
        # -q_t reads the head cycle the other way round
        assert check_mult_lemma(dataclasses.replace(s, q_t=7)) == (True, None)

    def test_mult_lemma_vacuous_for_loose(self):
        og = loose_orientation(7)
        ok, witness = check_mult_lemma(analyze(og))
        assert ok and witness is None


class TestAssociatedCirculant:
    def test_from_x13(self):
        _g, _grp, s = analyzed(build_xo, XoParams(3, 13, 3))
        c = associated_circulant(s)
        expected = build_circulant(13, {1, -1, 3, -3})
        assert c.edges == expected.edges

    def test_degenerate_small(self):
        og = loose_orientation(7)
        assert associated_circulant(analyze(og)).n == 1


class TestTau:
    def test_wreath_tau(self):
        g = build_wreath(6)
        og = oriented(g, wreath_hat_group(6))
        s = analyze(og)
        tau = antipodal_tau(og, s)
        assert tau is not None
        assert is_identity(tau * tau)
        assert not is_identity(tau)

    def test_precondition_odd_radius(self):
        from hatkit.autsearch import automorphism_group
        from hatkit.graphcore import build_graph
        k4 = build_graph(4, [(i, j) for i in range(4)
                             for j in range(i + 1, 4)])
        g, grp = build_cubic_arc_graph(k4, automorphism_group(k4))
        og = oriented(g, grp)
        with pytest.raises(PreconditionFailedError):
            antipodal_tau(og, analyze(og))

    def test_precondition_wrong_attachment(self):
        g, grp = build_xe(XeParams(4, 8, 3, 0))
        og = oriented(g, grp)
        with pytest.raises(PreconditionFailedError):
            antipodal_tau(og, analyze(og))


class TestRotationProfile:
    def test_identity_is_zero_rotation(self):
        g, grp = build_xo(XoParams(3, 9, 2))
        s = analyze(oriented(g, grp))
        prof = rotation_profile(grp.identity, s)
        assert all(entry == ("rotation", 0) for entry in prof.values())

    def test_kernel_contains_rotations_and_reflections(self):
        g, grp = build_xo(XoParams(3, 9, 2))
        og = oriented(g, grp)
        s = analyze(og)
        kinds = set()
        for p in kernels(grp, s)["K_alt"].elements():
            kinds |= {kind for kind, _ in rotation_profile(p, s).values()}
        assert kinds == {"rotation", "reflection"}

    def test_non_preserving_rejected(self):
        g, grp = build_xo(XoParams(3, 9, 2))
        s = analyze(oriented(g, grp))
        sigma = grp.generators[1]  # shifts layers, permutes the cycles
        with pytest.raises(NotCyclePreservingError):
            rotation_profile(sigma, s)


class TestBipartition:
    def test_triangle_alt_not_bipartite(self):
        g, grp = build_xo(XoParams(3, 9, 2))
        s = analyze(oriented(g, grp))
        assert alt_bipartition(s) is None

    def test_even_cycle_alt_bipartite(self):
        g, grp = build_xo(XoParams(4, 5, 2))
        s = analyze(oriented(g, grp))
        assert alt_bipartition(s) is not None


class TestBuildRho:
    def test_rejects_divisible_attachment(self):
        g, grp = build_xo(XoParams(3, 9, 2))
        og = oriented(g, grp)
        s = analyze(og)
        gamma = grp.identity
        with pytest.raises(PreconditionFailedError):
            build_rho(og, s, gamma)

    def test_rejects_small_attachment(self):
        from hatkit.autsearch import automorphism_group
        from hatkit.graphcore import build_graph
        k4 = build_graph(4, [(i, j) for i in range(4)
                             for j in range(i + 1, 4)])
        g, grp = build_cubic_arc_graph(k4, automorphism_group(k4))
        og = oriented(g, grp)
        s = analyze(og)
        with pytest.raises(PreconditionFailedError):
            build_rho(og, s, grp.identity)


def euler_orientation(n, seed):
    """A random 4-regular graph oriented along an Euler circuit, so in- and
    out-degree 2 everywhere; None when the graph drawn is disconnected."""
    nxg = nx.random_regular_graph(4, n, seed=seed)
    if not nx.is_connected(nxg):
        return None
    g = build_graph(n, [edge_key(u, v) for u, v in nxg.edges()])
    return orientation_from_arcs(g, list(nx.eulerian_circuit(nxg)))


def unspaced_orientation(rng):
    """Three alternating 8-cycles on 12 vertices, each two meeting in four
    vertices, two of them tails on either cycle, each cycle's tails and
    heads in random order, so that the attachment sets need not be
    ell-spaced.  Orders in which two cycles share an edge are drawn
    again."""
    while True:
        tail_on, head_on = {}, {}
        for (i, j), block in (((0, 1), [0, 1, 2, 3]), ((1, 2), [4, 5, 6, 7]),
                              ((0, 2), [8, 9, 10, 11])):
            rng.shuffle(block)
            for k, v in enumerate(block):
                tail_on[v], head_on[v] = (i, j) if k < 2 else (j, i)
        edge_heads = {}
        for c in range(3):
            tails = [v for v in range(12) if tail_on[v] == c]
            heads = [v for v in range(12) if head_on[v] == c]
            rng.shuffle(tails)
            rng.shuffle(heads)
            for k in range(4):
                for h in (heads[k], heads[k - 1]):
                    edge_heads[edge_key(tails[k], h)] = h
        if len(edge_heads) == 24:
            return orientation_from_heads(build_graph(12, edge_heads),
                                          edge_heads)


def outcome(fn, og):
    try:
        return fn(og)
    except HatkitError as exc:
        return type(exc), str(exc)


def analyzed_like_oracle(og):
    s = analyze(og)
    return (list(s.cycles), dict(enumerate(s.roles)),
            list(s.attachment_sets), s.q_t, s.q_h)


class TestPrefixAgainstOracles:
    """Certify and analyze against the lookup, orbit and search oracles:
    the same head_of, cycles, roles, attachment sets and jump pair, or the
    same error with the same message."""

    def check(self, og):
        got = outcome(analyzed_like_oracle, og)
        assert got == outcome(oracles.analyze, og)
        return got

    def test_pool_reversed_and_loose(self):
        orientations = [loose_orientation(7)]
        for _key, rec in instance_pool(SMALL):
            og = rec.orientation
            assert head_of(og) == certified_heads(rec.graph, rec.group)
            orientations += [og, reverse_orientation(og)]
        for og in orientations:
            assert len(self.check(og)) == 5  # an analysis, not an error

    @given(st.sampled_from(param_grid(GridConfig())), st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_drawn_pool_parameters(self, p, reverse):
        g, grp = (build_xo if isinstance(p, XoParams) else build_xe)(p)
        og = certify_hat(g, grp)
        assert head_of(og) == certified_heads(g, grp)
        self.check(reverse_orientation(og) if reverse else og)

    @given(st.integers(5, 14), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_euler_orientations(self, n, seed):
        og = euler_orientation(n, seed)
        assume(og is not None)
        self.check(og)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_unspaced_attachment_sets(self, seed):
        self.check(unspaced_orientation(random.Random(seed)))

    @given(st.sampled_from((5, 7)), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_three_cycle_orientations(self, a, seed):
        rng = random.Random(seed)
        og = three_cycles([range(i * a, (i + 1) * a) for i in range(3)],
                          [rng.sample(range(a), a) for _ in range(3)])
        assume(og is not None)
        self.check(og)

    def test_each_error_reached(self):
        n = 9
        circulant = orientation_from_arcs(
            build_circulant(n, {1, -1, 2, -2}),
            [(x, (x + d) % n) for x in range(n) for d in (1, 2)])
        unequal = next(og for seed in range(50)
                       if (og := euler_orientation(10, seed)) is not None
                       and outcome(analyze, og)[0] is UnequalCycleLengthsError)
        # on each set, steps of +-2 one way and of 2 or 3 the other way, so
        # that one of q_t and q_h is the same at every vertex
        sigma = (0, 2, 4, 1, 6, 3, 5)
        blocks = [range(i * 7, (i + 1) * 7) for i in range(3)]
        one_sided = [three_cycles(blocks, [order] * 3) for order in (
            sigma, sorted(range(7), key=sigma.__getitem__))]
        messages = [self.check(og)[1] for og in (
            circulant, unequal, unspaced_orientation(random.Random(1)),
            jump_differs_orientation(), *one_sided)]
        assert messages[0] == ("vertex 0 does not lie on exactly two "
                               "alternating cycles")
        assert messages[1].startswith("alternating cycle lengths [")
        assert "not ell-spaced" in messages[2]
        assert messages[3:] == ["jump parameters differ at vertex 1"] * 3
        # steps of 1 and 2 to the next vertex along, but 1 to the nearer
        # of the two neighbours everywhere
        near = three_cycles(blocks, [(0, 1, 2, 3, 4, 6, 5)] * 3)
        assert self.check(near)[3:] == (1, 1)

    def test_mult_lemma_witness_matches_per_vertex_oracle(self):
        seen = set()
        for _key, rec in instance_pool(SMALL):
            og = rec.orientation
            s = analyze(og)
            for field in ("q_t", "q_h"):
                for q in range(max(s.attachment, 2)):
                    wrong = dataclasses.replace(s, **{field: q})
                    got = check_mult_lemma(wrong)
                    assert got == oracles.mult_lemma(og, wrong), (_key, field, q)
                    seen.add(got[0])
        assert seen == {True, False}

    def test_mult_lemma_witness_beyond_vertex_zero(self):
        """On three-cycle orientations with no transitive group the
        attachment classes differ, so the witness need not be vertex 0."""
        rng = random.Random(3)
        structures, witnesses = 0, set()
        while structures < 20:
            a = rng.choice((5, 7))
            og = three_cycles([range(i * a, (i + 1) * a) for i in range(3)],
                              [rng.sample(range(a), a) for _ in range(3)])
            if og is None:
                continue
            try:
                s = analyze(og)
            except AlternatingStructureError:
                continue
            structures += 1
            for field in ("q_t", "q_h"):
                for q in range(a):
                    wrong = dataclasses.replace(s, **{field: q})
                    got = check_mult_lemma(wrong)
                    assert got == oracles.mult_lemma(og, wrong)
                    if not got[0]:
                        witnesses.add(got[1]["vertex"])
        assert witnesses - {0}
