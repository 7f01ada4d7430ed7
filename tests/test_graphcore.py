import itertools
import random

import pytest

from hatkit.autsearch import automorphism_group
from hatkit.constructions import build_circulant, build_wreath, wreath_hat_group
from hatkit.errors import (
    ArcTransitiveError,
    DisconnectedError,
    DuplicateEdgeError,
    HatkitError,
    LoopEdgeError,
    NotAutomorphismError,
    NotEdgeTransitiveError,
    NotVertexTransitiveError,
)
from hatkit.graphcore import (
    OrientedGraph,
    arc_transitive,
    build_graph,
    certify_hat,
    edge_key,
    is_automorphism,
)
from hatkit.harness import GridConfig, instance_pool
from hatkit.perm import GroupByGenerators, Permutation
from oracles import (arc_act, certified_heads, head_of, orientation_from_arcs,
                     orientation_from_heads, preserves, reverse_orientation)
from oracles import is_automorphism as automorphism_by_definition
from test_harness import SMALL


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestBuildGraph:
    def test_loop_rejected(self):
        with pytest.raises(LoopEdgeError):
            build_graph(3, [(0, 0)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph(3, [(0, 1), (1, 0)])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            build_graph(3, [(0, 3)])

    def test_edges_sorted_and_arcs_paired(self):
        g = cycle_graph(4)
        assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
        assert sum(map(len, g.adjacency)) == 8

    def test_connectivity(self):
        assert cycle_graph(5).is_connected
        g = build_graph(4, [(0, 1), (2, 3)])
        assert not g.is_connected
        with pytest.raises(DisconnectedError):
            g.require_connected()

    def test_degrees(self):
        g = build_circulant(7, {1, -1, 2, -2})
        assert g.is_regular(4)
        assert len(g.adjacency[0]) == 4


class TestAutomorphism:
    def test_rotation_is_automorphism(self):
        g = cycle_graph(5)
        assert is_automorphism(g, Permutation((1, 2, 3, 4, 0)))

    def test_transposition_is_not(self):
        g = cycle_graph(5)
        assert not is_automorphism(g, Permutation((1, 0, 2, 3, 4)))

    @pytest.mark.parametrize("images", [(4, 1, 2, 3, 0), (0, 1, 2, 4, 3)])
    def test_least_and_last_edges_checked(self, images):
        """On the path 0-1-2-3 beside the isolated vertex 4, each map
        carries one edge, the least or the last, off the edges."""
        g = build_graph(5, [(0, 1), (1, 2), (2, 3)])
        p = Permutation(images)
        assert not is_automorphism(g, p)
        assert not automorphism_by_definition(g, p)

    def test_matches_definition_on_small_grid(self):
        rng = random.Random(20)
        verdicts = set()
        for key, rec in instance_pool(SMALL):
            g = rec.graph
            perms = list(rec.group.generators)
            perms += [Permutation(tuple(rng.sample(range(g.n), g.n)))
                      for _ in range(20)]
            perms += [Permutation.from_mapping(
                g.n, lambda y, x=x: {0: x, x: 0}.get(y, y))
                for x in range(1, g.n)]
            perms += [Permutation.identity(g.n - 1),
                      Permutation.identity(g.n + 1)]
            for p in perms:
                want = automorphism_by_definition(g, p)
                assert is_automorphism(g, p) == want, (key, p)
                verdicts.add(want)
        assert verdicts == {True, False}

    def test_every_pool_generator_matches_definition(self):
        checked = 0
        for key, rec in instance_pool(GridConfig()):
            for p in rec.group.generators:
                assert is_automorphism(rec.graph, p), (key, p)
                assert automorphism_by_definition(rec.graph, p), (key, p)
                checked += 1
        assert checked > 400


def circulant_orientation(n):
    """Orient Circ_n({+-1, +-2}) as x -> x+1, x -> x+2."""
    g = build_circulant(n, {1, -1, 2, -2})
    return orientation_from_arcs(
        g, [(x, (x + 1) % n) for x in range(n)]
        + [(x, (x + 2) % n) for x in range(n)])


class TestOrientedGraph:
    def test_in_out_degrees(self):
        og = circulant_orientation(7)
        assert all(len(og.out_neighbors[v]) == 2 for v in range(7))
        assert all(len(og.in_neighbors[v]) == 2 for v in range(7))

    def test_head_tail(self):
        og = circulant_orientation(7)
        assert head_of(og)[(0, 1)] == 1 and 1 in og.out_neighbors[0]

    def test_equality_reads_the_orientation(self):
        """D differs from its reverse on the same graph, equals a rebuilt
        copy of itself, and a set tells the two orientations apart."""
        og = circulant_orientation(7)
        rev = reverse_orientation(og)
        copy = orientation_from_arcs(og.graph, og.arcs)
        assert og != rev
        assert og == copy and hash(og) == hash(copy)
        assert len({og, rev}) == 2

    def test_unbalanced_orientation_rejected(self):
        g = build_circulant(7, {1, -1, 2, -2})
        # every edge pointed at its larger endpoint: not in/out 2-regular
        with pytest.raises(ValueError, match="not in/out 2-regular"):
            orientation_from_heads(g, {e: max(e) for e in g.edges})

    def test_neighbour_tuples_checked(self):
        og = circulant_orientation(7)
        out, inn = list(og.out_neighbors), og.in_neighbors
        for bad in ((1,), (2, 1), (1, 1), (1, 2, 3), (-1, 1), (1, 7)):
            out[0] = bad
            with pytest.raises(ValueError, match="not in/out 2-regular"):
                OrientedGraph(og.graph, tuple(out), inn)
        with pytest.raises(ValueError, match="not in/out 2-regular"):
            OrientedGraph(og.graph, og.out_neighbors, inn[:-1])
        out[0] = (1, 3)  # 0 is not an in-neighbour of 3
        with pytest.raises(ValueError, match="out-arc of 0 is not an in-arc"):
            OrientedGraph(og.graph, tuple(out), inn)

    def test_swapped_in_tuple_rejected(self):
        og = circulant_orientation(7)
        inn = list(og.in_neighbors)
        inn[3] = inn[3][::-1]
        with pytest.raises(ValueError, match="in-neighbours of 3 are not"):
            OrientedGraph(og.graph, og.out_neighbors, tuple(inn))

    def test_swapped_in_neighbours_rejected(self):
        """Swapping the in-neighbour tuples of two vertices keeps every
        vertex in/out 2-regular but lists arcs under the wrong head, which
        would send the alternating-cycle walk off the vertex range; each of the
        112 swaps on Circ(n; +-1, +-3), n = 7, 9, 11, is rejected."""
        swaps = 0
        for n in (7, 9, 11):
            g = build_circulant(n, {1, -1, 3, -3})
            og = orientation_from_arcs(
                g, [(x, (x + d) % n) for x in range(n) for d in (1, 3)])
            for x, y in itertools.combinations(range(n), 2):
                inn = list(og.in_neighbors)
                inn[x], inn[y] = inn[y], inn[x]
                with pytest.raises(ValueError, match="is not an in-arc"):
                    OrientedGraph(g, og.out_neighbors, tuple(inn))
                swaps += 1
        assert swaps == 112

    def test_preservation_matches_definition(self):
        """is_preserved_by against the arc-set definition on the small-grid
        orientations and their reverses, for the group's generators, the
        generators of Aut, random permutations and maps of the wrong
        degree; some automorphisms preserve an orientation and some do
        not."""
        rng = random.Random(21)
        verdicts = set()
        for key, rec in instance_pool(SMALL):
            g = rec.graph
            perms = list(rec.group.generators)
            perms += automorphism_group(g).generators
            perms += [Permutation(tuple(rng.sample(range(g.n), g.n)))
                      for _ in range(10)]
            perms += [Permutation.identity(g.n - 1),
                      Permutation.identity(g.n + 1)]
            for og in (rec.orientation, reverse_orientation(rec.orientation)):
                for p in perms:
                    want = preserves(og, p)
                    assert og.is_preserved_by(p) == want, (key, p)
                    verdicts.add((want, automorphism_by_definition(g, p)))
        assert verdicts == {(True, True), (False, True), (False, False)}

    def test_non_tetravalent_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError):
            orientation_from_heads(g, {e: max(e) for e in g.edges})

    def test_head_off_its_edge_rejected(self):
        og = circulant_orientation(7)
        with pytest.raises(ValueError, match="head 3 not an endpoint"):
            orientation_from_heads(og.graph, {**head_of(og), (0, 1): 3})

    def test_uncovered_edge_rejected(self):
        og = circulant_orientation(7)
        heads = dict(head_of(og))
        del heads[(0, 1)]
        with pytest.raises(ValueError, match="cover every edge"):
            orientation_from_heads(og.graph, heads)

    def test_reverse_is_involutive(self):
        og = circulant_orientation(9)
        back = reverse_orientation(reverse_orientation(og))
        assert head_of(back) == head_of(og)
        assert reverse_orientation(og).out_neighbors == og.in_neighbors


class TestCertifyHat:
    def test_wreath_pair_is_certified(self):
        n = 5
        og = certify_hat(build_wreath(n), wreath_hat_group(n))
        assert sum(map(len, og.out_neighbors)) == 4 * n

    def test_bad_generator(self):
        g = build_wreath(4)
        bad = GroupByGenerators((Permutation((2, 1, 0) + tuple(range(3, 8))),))
        with pytest.raises(NotAutomorphismError):
            certify_hat(g, bad)

    def test_arc_transitive_rejected(self):
        # K5 with its full symmetric group
        g = build_graph(5, [(i, j) for i in range(5)
                            for j in range(i + 1, 5)])
        s5 = GroupByGenerators((Permutation((1, 0, 2, 3, 4)),
                                Permutation((1, 2, 3, 4, 0))))
        with pytest.raises(ArcTransitiveError):
            certify_hat(g, s5)

    def test_not_vertex_transitive(self):
        g = build_circulant(8, {1, -1, 2, -2})
        trivial = GroupByGenerators.trivial(8)
        with pytest.raises(NotVertexTransitiveError):
            certify_hat(g, trivial)

    def test_not_edge_transitive(self):
        # the rotation alone is vertex- but not edge-transitive here
        g = build_circulant(8, {1, -1, 3, -3})
        rot = GroupByGenerators(
            (Permutation.from_mapping(8, lambda x: (x + 1) % 8),))
        with pytest.raises(NotEdgeTransitiveError):
            certify_hat(g, rot)

    def test_edge_check_precedes_arc_check(self):
        # x -> x+1 and x -> -x are transitive on vertices, not on edges.
        # The arc orbit of (0, 1) holds both arcs of each of its 8 edges,
        # so an arc check made before the edge check would report an
        # arc-transitive group.
        g = build_circulant(8, {1, -1, 3, -3})
        dihedral = GroupByGenerators(
            (Permutation.from_mapping(8, lambda x: (x + 1) % 8),
             Permutation.from_mapping(8, lambda x: (-x) % 8)))
        with pytest.raises(NotEdgeTransitiveError):
            certify_hat(g, dihedral)

    def test_orientation_covers_each_edge_once(self):
        og = certify_hat(build_wreath(6), wreath_hat_group(6))
        covered = {edge_key(t, h) for t, hs in enumerate(og.out_neighbors)
                   for h in hs}
        assert covered == set(og.graph.edges)

    def test_non_automorphism_reported_before_transitivity(self):
        """A generator that is no automorphism is named, the least such,
        whether the walk meets a non-edge or the orbit misses an edge,
        also when the group is not transitive either, with the oracle's
        class and message; and each transitivity error keeps its message."""
        g = build_circulant(8, {1, -1, 2, -2})
        shift = Permutation.from_mapping(8, lambda x: (x + 1) % 8)
        flip = Permutation.from_mapping(8, lambda x: (-x) % 8)
        swap = Permutation((0, 1, 2, 3, 5, 4, 6, 7))  # moves edge 5-7 to 4-7
        cases = {
            (swap,): "generator 0 is not an automorphism",  # orbit {(0, 1)}
            (flip, swap): "generator 1 is not an automorphism",
            (shift, swap): "generator 1 is not an automorphism",
            (swap, shift): "generator 0 is not an automorphism",
            (swap, shift, Permutation((1, 0, 2, 3, 4, 5, 6, 7))):
                "generator 0 is not an automorphism",
            (Permutation.identity(9),): "generator 0 is not an automorphism",
            (flip,): "group is not transitive on vertices",
            (shift,): "group is not transitive on edges",
            (shift, flip): "group is not transitive on edges",
        }
        for gens, message in cases.items():
            grp = GroupByGenerators(gens, degree=gens[0].degree)
            with pytest.raises(HatkitError, match=message) as got:
                certify_hat(g, grp)
            with pytest.raises(HatkitError) as want:
                certified_heads(g, grp)
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)

    def test_conjugated_action_on_the_wrong_graph(self):
        """Conjugating a half-arc-transitive group by a non-automorphism
        that fixes the least arc gives an arc orbit of |E| arcs, one per
        edge of the image graph, not all of them edges: only the walk's
        edge check tells."""
        checked = 0
        for key, rec in instance_pool(SMALL):
            g = rec.graph
            x, y = [v for v in range(g.n) if v not in g.edges[0]][:2]
            pi = Permutation.from_mapping(g.n, lambda v: {x: y, y: x}.get(v, v))
            if automorphism_by_definition(g, pi):
                continue
            grp = GroupByGenerators(tuple(pi * p * pi
                                          for p in rec.group.generators))
            with pytest.raises(NotAutomorphismError) as got:
                certify_hat(g, grp)
            with pytest.raises(NotAutomorphismError) as want:
                certified_heads(g, grp)
            assert str(got.value) == str(want.value), key
            checked += 1
        assert checked

    def test_matches_orbit_oracle(self):
        """certify_hat gives the head_of of the least arc's orbit on every
        small-grid pair, and the oracle's error class on every input the
        tests above reject."""
        k5 = build_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        c8 = build_circulant(8, {1, -1, 3, -3})
        shift = Permutation.from_mapping(8, lambda x: (x + 1) % 8)
        cases = [(rec.graph, rec.group) for _key, rec in instance_pool(SMALL)]
        cases += [
            (build_wreath(4), GroupByGenerators(
                (Permutation((2, 1, 0) + tuple(range(3, 8))),))),
            (k5, GroupByGenerators((Permutation((1, 0, 2, 3, 4)),
                                    Permutation((1, 2, 3, 4, 0))))),
            (build_circulant(8, {1, -1, 2, -2}), GroupByGenerators.trivial(8)),
            (c8, GroupByGenerators((shift,))),
            (c8, GroupByGenerators((shift, Permutation.from_mapping(
                8, lambda x: (-x) % 8)))),
            (cycle_graph(5), GroupByGenerators((Permutation((1, 2, 3, 4, 0)),))),
        ]
        outcomes = set()
        for g, grp in cases:
            try:
                want = certified_heads(g, grp)
            except (HatkitError, ValueError) as exc:
                with pytest.raises((HatkitError, ValueError)) as got:
                    certify_hat(g, grp)
                assert type(got.value) is type(exc)
                outcomes.add(type(exc))
            else:
                assert head_of(certify_hat(g, grp)) == want
                outcomes.add(dict)
        assert outcomes == {dict, NotAutomorphismError, ArcTransitiveError,
                            NotVertexTransitiveError, NotEdgeTransitiveError,
                            ValueError}


def arc_orbit_size(g, group) -> int:
    """The size of the least arc's orbit, closed under the generators arc
    by arc."""
    orbit = {g.edges[0]}
    frontier = list(orbit)
    while frontier:
        arc = frontier.pop()
        for gen in group.generators:
            image = arc_act(arc, gen)
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return len(orbit)


class TestArcTransitive:
    def test_matches_orbit_oracle(self):
        """On the small-grid graphs with their half-arc-transitive group
        and with Aut; some Aut is arc-transitive and some is not."""
        verdicts = set()
        for key, rec in instance_pool(SMALL):
            g = rec.graph
            for grp in (rec.group, automorphism_group(g)):
                want = arc_orbit_size(g, grp) == 2 * len(g.edges)
                assert arc_transitive(g, grp) == want, key
                verdicts.add(want)
        assert verdicts == {True, False}

    def test_non_automorphism_and_no_edges(self):
        """A group that maps an edge to a non-edge is not arc-transitive,
        though here its orbit of the least arc has 2|E| ordered pairs; nor
        is any group on a graph without edges."""
        g = build_graph(4, [(0, 1), (1, 2)])
        rotation = GroupByGenerators((Permutation((1, 2, 3, 0)),))
        assert arc_orbit_size(g, rotation) == 4 == 2 * len(g.edges)
        assert not arc_transitive(g, rotation)
        c4 = GroupByGenerators((Permutation((1, 2, 3, 0)),
                                Permutation((3, 2, 1, 0))))
        assert arc_transitive(cycle_graph(4), c4)
        assert not arc_transitive(build_graph(3, []),
                                  GroupByGenerators.trivial(3))
