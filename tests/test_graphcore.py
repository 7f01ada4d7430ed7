import pytest

from hatkit.constructions import build_circulant, build_wreath, wreath_hat_group
from hatkit.errors import (
    ArcTransitiveError,
    DisconnectedError,
    DuplicateEdgeError,
    LoopEdgeError,
    NotAutomorphismError,
    NotEdgeTransitiveError,
    NotVertexTransitiveError,
)
from hatkit.graphcore import (
    OrientedGraph,
    build_graph,
    certify_hat,
    edge_key,
    is_automorphism,
    orientation_from_arcs,
    reverse_orientation,
)
from hatkit.perm import GroupByGenerators, Permutation


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
        assert len(g.arcs) == 8

    def test_connectivity(self):
        assert cycle_graph(5).is_connected
        g = build_graph(4, [(0, 1), (2, 3)])
        assert not g.is_connected
        with pytest.raises(DisconnectedError):
            g.require_connected()

    def test_degrees(self):
        g = build_circulant(7, {1, -1, 2, -2})
        assert g.is_regular(4)
        assert g.degree(0) == 4


class TestAutomorphism:
    def test_rotation_is_automorphism(self):
        g = cycle_graph(5)
        assert is_automorphism(g, Permutation((1, 2, 3, 4, 0)))

    def test_transposition_is_not(self):
        g = cycle_graph(5)
        assert not is_automorphism(g, Permutation((1, 0, 2, 3, 4)))


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
        assert og.head(0, 1) == 1 and og.tail(0, 1) == 0

    def test_unbalanced_orientation_rejected(self):
        g = build_circulant(7, {1, -1, 2, -2})
        # every edge pointed at its larger endpoint: not in/out 2-regular
        with pytest.raises(ValueError):
            OrientedGraph(g, {e: max(e) for e in g.edges})

    def test_non_tetravalent_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError):
            OrientedGraph(g, {e: max(e) for e in g.edges})

    def test_reverse_is_involutive(self):
        og = circulant_orientation(9)
        back = reverse_orientation(reverse_orientation(og))
        assert back.head_of == og.head_of
        assert reverse_orientation(og).arc_set == frozenset(
            (h, t) for t, h in og.arc_set)


class TestCertifyHat:
    def test_wreath_pair_is_certified(self):
        n = 5
        og = certify_hat(build_wreath(n), wreath_hat_group(n))
        assert len(og.arc_set) == 4 * n

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
        covered = {edge_key(t, h) for t, h in og.arc_set}
        assert covered == og.graph.edge_set
