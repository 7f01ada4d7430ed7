import json
import math
import random
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st
from networkx.algorithms.isomorphism import DiGraphMatcher, GraphMatcher

from hatkit import autsearch, cli
from hatkit.autsearch import (
    DEFAULT_NODE_BUDGET,
    _carried_at_moved,
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
from hatkit.errors import InconsistentError, SearchBudgetExceededError
from hatkit.graphcore import (
    arc_transitive,
    build_graph,
    certify_hat,
    edge_key,
    is_automorphism,
)
from hatkit.harness import instance_pool
from hatkit.perm import GroupByGenerators, Permutation, StabilizerChain
from oracles import (arc_act, arc_set, closure, is_isomorphism,
                     orbit_swapper, ordered_refine, orientation_from_arcs,
                     preserves, refine, reverse_orientation, scanning_refine)
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


def same_as_ordered_reference(s, lab, length, start_of, queue):
    """Refine the partition in place, with ``pos`` filled from ``lab``, and
    check it against the ordered reference run on a copy: the same
    ``length``, ``start_of``, cell at each start and split cells, with
    ``pos`` the inverse of ``lab``.  Returns the split cells."""
    ref = lab[:], length[:], start_of[:]
    pos = [0] * s.n
    for i, v in enumerate(lab):
        pos[v] = i
    ref_pos = pos[:]
    split = s.refine(lab, length, start_of, pos, queue)
    assert split == ordered_refine(s.rels, *ref, ref_pos, queue)
    assert (length, start_of) == (ref[1], ref[2])
    assert cells_of(lab, length) == cells_of(ref[0], ref[1])
    assert all(lab[pos[v]] == v for v in range(s.n))
    return split


def refined_against_references(s, lab, length, start_of, queue):
    """Refine the partition in place against the ordered reference, and
    check it against the full-round oracle, which must give the same set
    partition, equitable for every relation.  For a graph, the scanning
    reference must also give the same ordered cells, ``length``,
    ``start_of`` and split cells."""
    given = list(cells_of(lab, length).values())
    ref = lab[:], length[:], start_of[:]
    split = same_as_ordered_reference(s, lab, length, start_of, queue)
    cells = cells_of(lab, length)
    if len(s.rels) == 1:
        assert split == scanning_refine(s.adj, *ref, queue)
        assert cells == cells_of(ref[0], ref[1])
        assert (length, start_of) == (ref[1], ref[2])
    assert set(cells.values()) == set(
        map(frozenset, refine(s.rels, given)))
    assert all(v in cells[start_of[v]] for v in range(s.n))


def first_path(s, lab, length, start_of, check):
    """From a refined partition, individualise the least vertex of the
    first smallest non-singleton cell and ``check`` the child, down to a
    discrete partition."""
    while True:
        starts = [c for c in cells_of(lab, length) if length[c] > 1]
        if not starts:
            return
        target = min(starts, key=length.__getitem__)
        v = min(lab[target:target + length[target]])
        lab, length, start_of, queue = s.individualized(lab, length,
                                                        start_of, v)
        check(s, lab, length, start_of, queue)


def check_refine(g):
    """The refinement of a graph or an oriented graph against its
    references at the root, after individualising each vertex there, and
    at every node of the path that individualises the least vertex of the
    first smallest cell down to a discrete partition."""
    s = _Search(g, budget=0)
    root = s.unit()
    refined_against_references(s, *root)
    lab, length, start_of, _queue = root
    for v in range(s.n):
        if length[start_of[v]] > 1:
            refined_against_references(
                s, *s.individualized(lab, length, start_of, v))
    first_path(s, lab, length, start_of, refined_against_references)


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

    def test_small_pool_orientations(self):
        for _key, rec in instance_pool(SMALL):
            check_refine(rec.orientation)
            check_refine(reverse_orientation(rec.orientation))

    @given(st.integers(5, 16), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_orientations(self, n, seed):
        og = random_orientation(n, seed)
        assume(og is not None)
        check_refine(og)


class TestOrderedRefinement:
    def test_symmetry_spec_first_paths(self):
        """On the first path of every ``aut`` graph of the symmetry
        benchmark, n up to 404, each refinement matches the ordered
        reference."""
        reference = json.loads(SYMMETRY_REFERENCE.read_text())["aut"]
        specs = [spec for table in reference.values() for spec in table]
        assert len(specs) == 28
        for spec in specs:
            s = _Search(cli.parse_instance(spec)[0], budget=0)
            lab, length, start_of, queue = s.unit()
            same_as_ordered_reference(s, lab, length, start_of, queue)
            first_path(s, lab, length, start_of, same_as_ordered_reference)


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
        assert ok and is_isomorphism(g, h, w)


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
        assert ok and is_isomorphism(g, h, w)

    def test_size_mismatch(self):
        assert are_isomorphic(cycle_graph(5), cycle_graph(6)) == (False, None)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_against_networkx(self, data):
        """A relabelled copy and an independent graph, each against
        networkx: the witness is present exactly when the graphs are
        isomorphic, and then it is a bijection carrying edges onto
        edges."""
        g, nxg = data.draw(small_graphs())
        images = data.draw(st.permutations(range(g.n)))
        other, nx_other = data.draw(small_graphs())
        for h, same in ((relabel(g, Permutation(tuple(images))), True),
                        (other, nx.is_isomorphic(nxg, nx_other))):
            ok, w = are_isomorphic(g, h)
            assert ok == same and (w is not None) == same
            assert w is None or is_isomorphism(g, h, w)

    @pytest.mark.parametrize("a, b, same, searches", [
        ((3, 91, 9), (3, 91, 10), True, [3, 3]),
        ((3, 91, 9), (3, 91, 81), True, [3, 3]),
        ((3, 91, 9), (3, 91, 12), False, [3, 7]),
        ((3, 91, 10), (3, 91, 38), False, [3, 7]),
        ((6, 67, 29), (6, 67, 30), True, [3, 3]),
    ])
    def test_tightly_attached_pairs(self, a, b, same, searches, monkeypatch):
        """q against ±q^-1 in the families the paper measures.  The first
        search stops at its first leaf, the second at its first match or
        after its whole tree, and an isomorphic pair takes fewer nodes
        than its two canonical forms."""
        g1, _ = build_xo(XoParams(*a))
        g2, _ = build_xo(XoParams(*b))
        nodes = searched_nodes(monkeypatch)
        ok, w = are_isomorphic(g1, g2)
        assert ok == same and (w is not None) == same
        assert w is None or is_isomorphism(g1, g2, w)
        assert nodes == searches
        searched = sum(nodes)
        nodes.clear()
        forms = canonical_form(g1), canonical_form(g2)
        assert (forms[0].cert == forms[1].cert) == same
        if same:
            assert searched < sum(nodes)

    def test_budget(self):
        """Two copies of 1,200 disjoint edges, the second relabelled."""
        g = build_graph(2400, [(2 * i, 2 * i + 1) for i in range(1200)])
        h = relabel(g, Permutation(tuple(reversed(range(2400)))))
        with pytest.raises(SearchBudgetExceededError):
            are_isomorphic(g, h, budget=100)

    def test_builds_no_certificate(self, monkeypatch):
        def no_certificate(*_args):
            raise AssertionError("a certificate was built")
        monkeypatch.setattr(autsearch, "_certificate", no_certificate)
        assert automorphism_group(petersen()).order() == 120
        g = petersen()
        h = relabel(g, Permutation((3, 1, 4, 0, 5, 9, 2, 6, 8, 7)))
        assert are_isomorphic(g, h)[0]
        g1, _ = build_xo(XoParams(6, 13, 2))
        g2, _ = build_xo(XoParams(6, 13, 3))
        assert are_isomorphic(g1, g2) == (False, None)


def searched_nodes(monkeypatch):
    """The node count of every search run from now on, in order."""
    nodes = []
    run = _Search.run

    def counting(self):
        run(self)
        nodes.append(self.nodes)

    monkeypatch.setattr(_Search, "run", counting)
    return nodes


class TestGeneratorCheck:
    """Each found automorphism is checked on the edges at its moved
    points."""

    def test_against_the_definition(self):
        rng = random.Random(0)
        broken = 0
        for key, rec in instance_pool(SMALL):
            g = rec.graph
            for p in automorphism_group(g).generators:
                images = list(p.images)
                for corrupt in (False, True):
                    if corrupt:
                        x, y = rng.sample(range(g.n), 2)
                        images[x], images[y] = images[y], images[x]
                    moved = [x for x, y in enumerate(images) if x != y]
                    want = automorphism_by_definition(
                        g, Permutation(tuple(images)))
                    assert _carried_at_moved(g.adjacency, images,
                                             moved) == want, key
                    broken += not want
        assert broken > 100

    def test_a_found_map_that_is_not_an_automorphism(self, monkeypatch,
                                                     capsys):
        run = _Search.run

        def corrupted(self):
            run(self)
            swap = list(range(self.n))
            swap[0], swap[1] = 1, 0
            self.auts.append((tuple(swap), [0, 1]))

        monkeypatch.setattr(_Search, "run", corrupted)
        with pytest.raises(InconsistentError):
            automorphism_group(cycle_graph(7))
        assert cli.main(["aut", "circ:13:1,3"]) == 5
        assert "error: InconsistentError: " in capsys.readouterr().err


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
        Aut has at most 5,000 elements, for both orientations and for
        three random Eulerian orientations of the graph."""
        checked = 0
        verdicts = set()
        rng = random.Random(18)
        for key, rec in instance_pool(SMALL):
            aut = automorphism_group(rec.graph)
            if aut.order() > 5000:
                continue
            checked += 1
            listed = closure(aut)
            for og in (rec.orientation, reverse_orientation(rec.orientation),
                       *(euler_orientation(rec.graph, rng) for _ in range(3))):
                want = orbit_swapper(og, listed)
                assert has_orbit_swapper(og) == want, key
                verdicts.add(want)
        assert checked == 27 and verdicts == {True, False}


def euler_orientation(g, rng):
    """A connected graph of even degrees oriented along an Euler circuit,
    the edges taken in random order, so in- and out-degree 2 everywhere
    on a tetravalent graph."""
    edges = list(g.edges)
    rng.shuffle(edges)
    nxg = nx.Graph(edges)
    return orientation_from_arcs(g, list(nx.eulerian_circuit(
        nxg, source=rng.randrange(g.n))))


def random_orientation(n, seed):
    """A random 4-regular graph on n vertices with an Euler orientation;
    None when the graph drawn is disconnected."""
    nxg = nx.random_regular_graph(4, n, seed=seed)
    if not nx.is_connected(nxg):
        return None
    g = build_graph(n, [edge_key(u, v) for u, v in nxg.edges()])
    return euler_orientation(g, random.Random(seed))


def relabel_orientation(og, p):
    return orientation_from_arcs(relabel(og.graph, p),
                                 [(p(t), p(h)) for t, h in og.arcs])


def carries_arcs_onto_arcs(og1, og2, p):
    """The definition: p has degree n and maps the arc set of ``og1``
    onto that of ``og2``."""
    return p.degree == og1.graph.n == og2.graph.n and {
        arc_act(a, p) for a in arc_set(og1)} == arc_set(og2)


class TestDigraphSearch:
    """The search on an oriented graph, which refines by out- and
    in-neighbours and carries arcs into out-neighbours at a leaf."""

    @given(st.integers(5, 16), st.integers(0, 2 ** 32 - 1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_isomorphism_against_networkx(self, n, seed, data):
        """A relabelled copy, the reverse and a relabelled reverse, each
        against networkx's digraph isomorphism; every witness carries arcs
        onto arcs."""
        og = random_orientation(n, seed)
        assume(og is not None)
        p = Permutation(tuple(data.draw(st.permutations(range(n)))))
        rev = reverse_orientation(og)
        digraph = nx.DiGraph(og.arcs)
        for other in (relabel_orientation(og, p), rev,
                      relabel_orientation(rev, p)):
            same = nx.is_isomorphic(digraph, nx.DiGraph(other.arcs))
            ok, w = are_isomorphic(og, other)
            assert ok == same and (w is not None) == same
            assert w is None or carries_arcs_onto_arcs(og, other, w)

    @given(st.integers(5, 16), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_recorded_automorphisms_preserve_arcs(self, n, seed):
        """Including the swaps ``_descend`` records unchecked; with them
        the search's base reads off |Aut(D)|, as networkx counts it."""
        og = random_orientation(n, seed)
        assume(og is not None)
        s = check_recorded_automorphisms(og)
        group = GroupByGenerators(
            tuple(Permutation(images) for images, _ in s.auts),
            degree=n, base=s.base)
        digraph = nx.DiGraph(og.arcs)
        assert group.order() == sum(1 for _ in DiGraphMatcher(
            digraph, digraph).isomorphisms_iter())

    def test_small_pool_recorded_automorphisms(self):
        recorded = 0
        for _key, rec in instance_pool(SMALL):
            for og in (rec.orientation, reverse_orientation(rec.orientation)):
                recorded += len(check_recorded_automorphisms(og).auts)
        assert recorded > 0

    def test_mixed_kinds_are_not_isomorphic(self):
        g, grp = build_xo(XoParams(3, 9, 2))
        og = certify_hat(g, grp)
        assert are_isomorphic(og.graph, og) == (False, None)
        assert are_isomorphic(og, og.graph) == (False, None)


def check_recorded_automorphisms(og):
    """Search the whole tree of ``og`` and check every automorphism it
    recorded against the definition: it maps the arcs onto the arcs and
    moves exactly its moved points."""
    s = _Search(og, DEFAULT_NODE_BUDGET)
    s.run()
    for images, moved in s.auts:
        assert preserves(og, Permutation(images))
        assert sorted(moved) == [x for x, y in enumerate(images) if x != y]
    return s


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
    same generators, its membership against the definition, and the
    search's first path as a base: Schreier-Sims on it adds no strong
    generator, which is why ``GroupByGenerators.chain`` skips it."""
    aut = automorphism_group(g)
    images = [p.images for p in aut.generators]
    fresh = StabilizerChain(images, g.n).complete()
    assert aut.chain.base == list(aut.base)
    assert aut.order() == fresh.order()
    on_base = StabilizerChain(images, g.n, aut.base)
    strong = [list(s) for s in on_base.strong]
    assert on_base.complete().strong == strong
    assert on_base.order() == aut.order()
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
        assert canonical_form(h).cert == canonical_form(g).cert
        ok, w = are_isomorphic(g, h)
        assert ok and is_isomorphism(g, h, w)

    def test_deep_first_path_exhausts_the_budget(self):
        """On 1,200 disjoint edges the first path individualises a vertex
        per edge: far past Python's recursion limit."""
        g = build_graph(2400, [(2 * i, 2 * i + 1) for i in range(1200)])
        with pytest.raises(SearchBudgetExceededError):
            automorphism_group(g, budget=1500)

    def test_disjoint_edges(self):
        g = build_graph(100, [(2 * i, 2 * i + 1) for i in range(50)])
        assert automorphism_group(g).order() == 2 ** 50 * math.factorial(50)


SYMMETRY_REFERENCE = (Path(__file__).resolve().parents[1] / "hatbench"
                      / "symmetry_reference.json")


def seeded_graphs(count, seed):
    """G(n, p) graphs with isolated vertices added, edgeless graphs and
    disjoint unions of random regular graphs, each relabelled at random."""
    rng = random.Random(seed)
    for k in range(count):
        if k % 10 == 0:
            nxg = nx.empty_graph(rng.randint(0, 5))
        elif k % 2:
            n = rng.randint(2, 14)
            nxg = nx.gnp_random_graph(n, rng.uniform(0.1, 0.7),
                                      seed=rng.randrange(2 ** 32))
            nxg.add_nodes_from(range(n, n + rng.randint(1, 3)))
        else:
            nxg = nx.empty_graph(0)
            for _ in range(rng.randint(1, 3)):
                d = rng.choice((2, 3, 4))
                n = rng.randint(d + 1, 10)
                n += n * d % 2
                nxg = nx.disjoint_union(nxg, nx.random_regular_graph(
                    d, n, seed=rng.randrange(2 ** 32)))
        labels = list(range(nxg.number_of_nodes()))
        rng.shuffle(labels)
        yield build_graph(len(labels), [edge_key(labels[u], labels[v])
                                        for u, v in nxg.edges()])


class TestBasicOrbits:
    """|Aut| and the arc verdict read off the search's basic orbits."""

    @staticmethod
    def check(g):
        """Against a Schreier-Sims run on the same generators and the
        arc-orbit walk; returns whether base[0] has a neighbour."""
        aut = automorphism_group(g)
        images = [p.images for p in aut.generators]
        assert aut.order() == StabilizerChain(images, g.n).complete().order()
        assert aut.arc_transitive == arc_transitive(g, aut)
        assert aut.arc_transitive == is_arc_transitive(g)
        return bool(aut.base) and bool(g.adjacency[aut.base[0]])

    def test_seeded_graphs(self):
        read = [self.check(g) for g in seeded_graphs(300, 21)]
        # both the basic-orbit verdict and the walk for an isolated base[0]
        assert 100 < sum(read) < 300

    def test_symmetry_specs(self):
        reference = json.loads(SYMMETRY_REFERENCE.read_text())["aut"]
        for table in reference.values():
            for spec, want in table.items():
                g, _, _ = cli.parse_instance(spec)
                assert self.check(g), spec
                aut = automorphism_group(g)
                assert {"order": aut.order(),
                        "arc_transitive": aut.arc_transitive} == want, spec

    def test_a_descend_swap_is_checked(self, monkeypatch):
        """No leaf check proves the swaps ``_descend`` records, so
        ``automorphism_group`` checks them."""
        descend = _Search._descend

        def corrupted(self, stack, *partition):
            before = len(self.auts)
            path = descend(self, stack, *partition)
            if len(self.auts) > before:
                swap = list(range(self.n))
                swap[0], swap[1] = 1, 0
                self.auts[-1] = (tuple(swap), [0, 1])
            return path

        monkeypatch.setattr(_Search, "_descend", corrupted)
        with pytest.raises(InconsistentError):
            automorphism_group(cycle_graph(7))

    def test_order_builds_no_chain(self, monkeypatch):
        g, _ = build_xo(XoParams(4, 101, 10))
        aut = automorphism_group(g)
        init = StabilizerChain.__init__

        def no_chain(*_args, **_kwargs):
            raise AssertionError("a chain was built")

        monkeypatch.setattr(StabilizerChain, "__init__", no_chain)
        assert aut.order() == 1616 and aut.arc_transitive
        assert is_arc_transitive(g) and aut._chain is None
        monkeypatch.setattr(StabilizerChain, "__init__", init)
        rng = random.Random(0)
        for _ in range(20):
            p = Permutation.identity(g.n)
            for _ in range(rng.randint(1, 6)):
                p = p * rng.choice(aut.generators)
            assert p in aut
        q = list(range(g.n))
        q[0], q[1] = 1, 0
        assert Permutation(tuple(q)) not in aut
        assert aut.chain.order() == aut.order()
