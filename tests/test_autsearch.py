import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from hatkit.autsearch import (
    DEFAULT_NODE_BUDGET,
    _Search,
    are_isomorphic,
    automorphism_group,
    canonical_form,
    has_orbit_swapper,
    is_arc_transitive,
)
from hatkit.constructions import (
    XeParams,
    XoParams,
    build_circulant,
    build_xe,
    build_xo,
)
from hatkit.errors import SearchBudgetExceededError
from hatkit.graphcore import (
    build_graph,
    certify_hat,
    edge_key,
    is_automorphism,
)
from hatkit.harness import instance_pool
from hatkit.perm import Permutation, StabilizerChain
from oracles import (closure, orbit_swapper, refine, reverse_orientation,
                     scanning_refine)
from oracles import is_automorphism as automorphism_by_definition
from test_harness import SMALL


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def petersen():
    return build_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                       + [(i, i + 5) for i in range(5)]
                       + [(i + 5, (i + 2) % 5 + 5) for i in range(5)])


def relabel(g, p):
    return build_graph(g.n, [edge_key(p(u), p(v)) for u, v in g.edges])


class TestAutomorphismGroup:
    def test_cycle(self):
        assert automorphism_group(cycle_graph(7)).order() == 14

    def test_complete(self):
        assert automorphism_group(complete_graph(5)).order() == 120

    def test_petersen(self):
        assert automorphism_group(petersen()).order() == 120

    def test_smallest_half_arc_transitive(self):
        g, grp = build_xo(XoParams(3, 9, 2))
        aut = automorphism_group(g)
        assert aut.order() == 54 == 2 * g.n
        # the full automorphism group is exactly the construction group
        assert aut.elements() == closure(grp)

    def test_generators_verified(self):
        g = petersen()
        for p in automorphism_group(g).generators:
            assert is_automorphism(g, p)

    def test_budget(self):
        with pytest.raises(SearchBudgetExceededError):
            automorphism_group(complete_graph(8), budget=3)


class TestCanonicalForm:
    @given(st.permutations(range(8)))
    @settings(max_examples=25, deadline=None)
    def test_relabeling_invariance(self, images):
        g = build_circulant(8, {1, -1, 3, -3})
        h = relabel(g, Permutation(tuple(images)))
        assert canonical_form(g).cert == canonical_form(h).cert

    def test_distinguishes_non_isomorphic(self):
        c8 = build_circulant(8, {1, -1, 2, -2})
        k44 = build_circulant(8, {1, -1, 3, -3})
        assert canonical_form(c8).cert != canonical_form(k44).cert


class TestRandomRegularOracle:
    """Aut and canonical forms against networkx on random regular graphs."""

    @given(st.sampled_from((3, 4)), st.integers(6, 12),
           st.integers(0, 2 ** 32 - 1), st.data())
    @settings(max_examples=30, deadline=None)
    def test_against_networkx(self, d, n, seed, data):
        n += d * n % 2  # a cubic graph has even order
        nxg = nx.random_regular_graph(d, n, seed=seed)
        g = build_graph(n, [edge_key(u, v) for u, v in nxg.edges()])
        isos = sum(1 for _ in GraphMatcher(nxg, nxg).isomorphisms_iter())
        assert automorphism_group(g).order() == isos
        images = data.draw(st.permutations(range(n)))
        h = relabel(g, Permutation(tuple(images)))
        assert canonical_form(h).cert == canonical_form(g).cert


def cells_of(lab, length):
    """The cells of a search partition as frozensets, keyed by start."""
    out, pos = {}, 0
    while pos < len(lab):
        out[pos] = frozenset(lab[pos:pos + length[pos]])
        pos += length[pos]
    return out


def refined_against_references(s, lab, length, start_of, queue):
    """Refine the partition in place, with ``pos`` filled from ``lab``, and
    check it against the scanning reference, which must give the same
    ordered cells, ``length``, ``start_of`` and split cells, and against
    the full-round oracle, which must give the same set partition; ``pos``
    must stay the inverse of ``lab``."""
    given = list(cells_of(lab, length).values())
    ref = lab[:], length[:], start_of[:]
    ref_split = scanning_refine(s.adj, *ref, queue)
    pos = [0] * s.n
    for i, v in enumerate(lab):
        pos[v] = i
    assert s.refine(lab, length, start_of, pos, queue) == ref_split
    cells = cells_of(lab, length)
    assert cells == cells_of(ref[0], ref[1])
    assert (length, start_of) == (ref[1], ref[2])
    assert all(lab[pos[v]] == v for v in range(s.n))
    assert set(cells.values()) == set(
        map(frozenset, refine(s.adj, given)))
    assert all(v in cells[start_of[v]] for v in range(s.n))


def check_refine(g):
    """The refinement against its references at the root, after
    individualising each vertex there, and at every node of the path that
    individualises the least vertex of the first smallest cell down to a
    discrete partition."""
    s = _Search(g, budget=0)
    root = s.unit()
    refined_against_references(s, *root)
    lab, length, start_of, _queue = root
    for v in range(g.n):
        if length[start_of[v]] > 1:
            refined_against_references(
                s, *s.individualized(lab, length, start_of, v))
    while True:
        starts = [c for c in cells_of(lab, length) if length[c] > 1]
        if not starts:
            return
        target = min(starts, key=length.__getitem__)
        v = min(lab[target:target + length[target]])
        lab, length, start_of, queue = s.individualized(lab, length,
                                                        start_of, v)
        refined_against_references(s, lab, length, start_of, queue)


class TestRefinementOracle:
    def test_small_pool(self):
        for _key, rec in instance_pool(SMALL):
            check_refine(rec.graph)

    @given(st.integers(1, 14), st.floats(0.1, 0.9),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_graphs(self, n, p, seed):
        # G(n, p) graphs start from several degree cells, which the
        # regular pool graphs never do
        nxg = nx.gnp_random_graph(n, p, seed=seed)
        check_refine(build_graph(n, [edge_key(u, v) for u, v in nxg.edges()]))


class TestLargerRelabeling:
    """Certificates and witnesses on graphs well past the small cases."""

    @pytest.mark.parametrize("build", [
        lambda: build_xo(XoParams(3, 43, 6))[0],
        lambda: build_circulant(100, {1, -1, 7, -7}),
    ], ids=["Xo(3,43;6)", "Circ(100;1,7)"])
    def test_cert_and_witness(self, build):
        g = build()
        images = list(range(g.n))
        random.Random(g.n).shuffle(images)
        h = relabel(g, Permutation(tuple(images)))
        assert canonical_form(h).cert == canonical_form(g).cert
        ok, w = are_isomorphic(g, h)
        assert ok
        for u, v in g.edges:
            assert h.has_edge(w(u), w(v))


class TestIsomorphism:
    def test_reference_negatives(self):
        g1, _ = build_xo(XoParams(6, 13, 2))
        g2, _ = build_xo(XoParams(6, 13, 3))
        assert are_isomorphic(g1, g2) == (False, None)
        g3, _ = build_xe(XeParams(4, 20, 3, 0))
        g4, _ = build_xe(XeParams(4, 20, 3, 10))
        assert are_isomorphic(g3, g4) == (False, None)

    def test_parameter_symmetry(self):
        g1, _ = build_xo(XoParams(3, 9, 2))
        g2, _ = build_xo(XoParams(3, 9, 7))  # 7 = -2 mod 9
        g3, _ = build_xo(XoParams(3, 9, 5))  # 5 = 2^-1 mod 9
        ok, witness = are_isomorphic(g1, g2)
        assert ok and witness is not None
        assert are_isomorphic(g1, g3)[0]

    def test_witness_is_verified_automorphism_transport(self):
        g = petersen()
        h = relabel(g, Permutation((3, 1, 4, 0, 5, 9, 2, 6, 8, 7)))
        ok, w = are_isomorphic(g, h)
        assert ok
        for u, v in g.edges:
            assert h.has_edge(w(u), w(v))

    def test_size_mismatch(self):
        assert are_isomorphic(cycle_graph(5), cycle_graph(6)) == (False, None)


class TestArcTransitivity:
    def test_reference_circulants(self):
        assert not is_arc_transitive(build_circulant(13, {1, -1, 3, -3}))
        assert is_arc_transitive(build_circulant(5, {1, -1, 2, -2}))

    def test_cycle(self):
        assert is_arc_transitive(cycle_graph(6))

    def test_half_arc_transitive_graph(self):
        g, _ = build_xo(XoParams(3, 9, 2))
        assert not is_arc_transitive(g)


class TestOrbitSwapper:
    def test_half_arc_transitive_graph_has_none(self):
        g, grp = build_xo(XoParams(3, 9, 2))
        assert not has_orbit_swapper(certify_hat(g, grp))

    def test_arc_transitive_ambient_group_has_one(self):
        # the two-cycle circulant is K_{4,4}, whose full automorphism group
        # reverses the chosen orientation
        from hatkit.constructions import special_circulant_k44
        g, grp = special_circulant_k44()
        assert has_orbit_swapper(certify_hat(g, grp))

    def test_small_pool_matches_listing(self):
        """Against the listing oracle on every small-grid instance whose
        Aut has at most 5,000 elements, for both orientations."""
        checked = 0
        for key, rec in instance_pool(SMALL):
            aut = automorphism_group(rec.graph)
            if aut.order() > 5000:
                continue
            checked += 1
            listed = closure(aut)
            for og in (rec.orientation, reverse_orientation(rec.orientation)):
                assert has_orbit_swapper(og) == orbit_swapper(og, listed), key
        assert checked == 27


class TestOrbitPruning:
    def test_automorphism_moving_the_prefix_does_not_prune(self):
        """Two disjoint 6-cycles, 0..5 and 6..11.  At the node that
        individualised 0, the target cell is {2, 4}; the cell of the other
        cycle keeps six points, so the node is searched branch by branch.
        The rotation x -> x + 2 of the first cycle maps 2 to 4 but moves
        0, so it must not prune the branch on 4 there."""
        s = _Search(build_graph(12, [(c + i, c + (i + 1) % 6)
                                     for c in (0, 6) for i in range(6)]),
                    DEFAULT_NODE_BUDGET)
        rotation = tuple((x + 2) % 6 if x < 6 else x for x in range(12))
        s.auts.append((rotation, list(range(6))))
        visited = []
        node = s._node

        def recording(stack, *partition):
            visited.append(tuple(frame.vertex for frame in stack))
            node(stack, *partition)

        s._node = recording
        s.run()
        assert (0, 2) in visited and (0, 4) in visited


@st.composite
def small_graphs(draw):
    """G(n, p) graphs, random 3- and 4-regular graphs, and disjoint unions
    of two cycles, with networkx's copy of each."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    kind = draw(st.sampled_from(("gnp", "regular", "cycles")))
    if kind == "gnp":
        nxg = nx.gnp_random_graph(draw(st.integers(1, 7)),
                                  draw(st.floats(0.1, 0.9)), seed=seed)
    elif kind == "regular":
        d, n = draw(st.sampled_from((3, 4))), draw(st.integers(6, 12))
        nxg = nx.random_regular_graph(d, n + d * n % 2, seed=seed)
    else:
        nxg = nx.disjoint_union(nx.cycle_graph(draw(st.integers(3, 6))),
                                nx.cycle_graph(draw(st.integers(3, 6))))
    n = nxg.number_of_nodes()
    return build_graph(n, [edge_key(u, v) for u, v in nxg.edges()]), nxg


def check_search_chain(g, rng):
    """The chain read off the search against a Schreier-Sims run on the
    same generators, and its membership against the definition."""
    aut = automorphism_group(g)
    images = [p.images for p in aut.generators]
    fresh = StabilizerChain(images, g.n).complete()
    assert aut.chain.base == list(aut.base)
    assert aut.order() == fresh.order()
    for _ in range(10):
        p = list(range(g.n))
        for _ in range(rng.randint(0, 4) if images else 0):
            gen = rng.choice(images)
            p = [gen[x] for x in p]
        assert Permutation(tuple(p)) in aut
        q = list(range(g.n))
        rng.shuffle(q)
        q = Permutation(tuple(q))
        assert (q in aut) == automorphism_by_definition(g, q)
    return aut


class TestSearchChain:
    """|Aut| read off the search: the order of the chain on the first path
    with the found automorphisms as strong generators."""

    @given(small_graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_against_schreier_sims_and_networkx(self, case, rng):
        g, nxg = case
        aut = check_search_chain(g, rng)
        isos = sum(1 for _ in GraphMatcher(nxg, nxg).isomorphisms_iter())
        assert aut.order() == isos

    def test_small_pool(self):
        rng = random.Random(0)
        for key, rec in instance_pool(SMALL):
            aut = check_search_chain(rec.graph, rng)
            assert aut.order() % rec.group.order() == 0, key

    def test_orbit_swapper_builds_no_chain(self, monkeypatch):
        def no_chain(*_args, **_kwargs):
            raise AssertionError("a chain was built")
        monkeypatch.setattr(StabilizerChain, "__init__", no_chain)
        g, grp = build_xo(XoParams(3, 9, 2))
        assert not has_orbit_swapper(certify_hat(g, grp))


class TestJumpBack:
    """The search returns to the first path after each automorphism and
    holds its path on a stack."""

    @pytest.mark.parametrize("build, nodes", [
        (lambda: build_circulant(200, {1, -1, 3, -3}), 5),
        (lambda: build_xo(XoParams(4, 101, 10))[0], 12),
    ], ids=["Circ(200;1,3)", "Xo(4,101;10)"])
    def test_node_count_and_relabelling(self, build, nodes):
        g = build()
        s = _Search(g, DEFAULT_NODE_BUDGET)
        s.run()
        assert s.nodes == nodes
        images = list(range(g.n))
        random.Random(g.n).shuffle(images)
        h = relabel(g, Permutation(tuple(images)))
        assert canonical_form(h).cert == s.best_cert
        ok, w = are_isomorphic(g, h)
        assert ok and all(h.has_edge(w(u), w(v)) for u, v in g.edges)

    def test_deep_first_path_exhausts_the_budget(self):
        """On 1,200 disjoint edges the first path individualises a vertex
        per edge: far past Python's recursion limit."""
        g = build_graph(2400, [(2 * i, 2 * i + 1) for i in range(1200)])
        with pytest.raises(SearchBudgetExceededError):
            automorphism_group(g, budget=1500)

    def test_disjoint_edges(self):
        g = build_graph(100, [(2 * i, 2 * i + 1) for i in range(50)])
        assert automorphism_group(g).order() == 2 ** 50 * math.factorial(50)
