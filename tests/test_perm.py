import pytest
from hypothesis import given, strategies as st
from sympy.combinatorics import Permutation as SymPerm, PermutationGroup

from hatkit.errors import BadPermutationError, BlocksNotInvariantError
from hatkit.perm import (
    GroupByGenerators,
    Permutation,
    StabilizerChain,
    _mul,
    action_kernel,
    block_images,
    group_structure,
)
from oracles import closure, fixed_points, inverse, is_identity, setwise_action


def perm_strategy(n):
    return st.permutations(range(n)).map(lambda xs: Permutation(tuple(xs)))


def cyclic_perm(n):
    return Permutation.from_mapping(n, lambda x: (x + 1) % n)


def reflection_perm(n):
    return Permutation.from_mapping(n, lambda x: (-x) % n)


def sympy_group(g):
    """The oracle: sympy's group on the same generators."""
    gens = [p.images for p in g.generators] or [tuple(range(g.degree))]
    return PermutationGroup([SymPerm(list(x)) for x in gens])


@st.composite
def groups_with_candidates(draw):
    """A group of degree <= 8 on up to three random generators, a member
    built as a word in them, and a random permutation."""
    n = draw(st.integers(1, 8))
    gens = draw(st.lists(perm_strategy(n), max_size=3))
    member = Permutation.identity(n)
    if gens:
        for i in draw(st.lists(st.integers(0, len(gens) - 1), max_size=8)):
            member = member * gens[i]
    return GroupByGenerators(tuple(gens), degree=n), member, draw(perm_strategy(n))


def enumerated_structure(g):
    """The oracle: recognition from the full element list."""
    elems = closure(g)
    n = len(elems)
    orders = {p: p.order() for p in elems}
    if n == 1:
        return "Trivial"
    if n in orders.values():
        return f"Cyclic({n})"
    if max(orders.values()) == 2:
        return f"ElemAbelian2({n.bit_length() - 1})"
    for c in elems:
        if 2 * orders[c] == n:
            powers = set()
            p = c
            while p not in powers:
                powers.add(p)
                p = p * c
            if any(t not in powers and orders[t] == 2
                   and t * c * t == inverse(c) for t in elems):
                return f"Dihedral({n})"
    return f"Other({n})"


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(BadPermutationError):
            Permutation((0, 0, 1))

    def test_identity(self):
        p = Permutation.identity(5)
        assert is_identity(p) and p.order() == 1
        assert fixed_points(p) == list(range(5))

    @given(perm_strategy(7), perm_strategy(7), st.integers(0, 6))
    def test_composition_convention(self, p, q, x):
        assert (p * q)(x) == q(p(x))

    @given(perm_strategy(6), perm_strategy(6), perm_strategy(6))
    def test_associativity(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(perm_strategy(8))
    def test_inverse(self, p):
        assert is_identity(p * inverse(p))
        assert is_identity(inverse(p) * p)

    @given(perm_strategy(8))
    def test_order_annihilates(self, p):
        k = p.order()
        acc = Permutation.identity(8)
        for _ in range(k):
            acc = acc * p
        assert is_identity(acc)

    def test_cycle_order(self):
        assert cyclic_perm(6).order() == 6


class TestGroup:
    def test_symmetric_group_order(self):
        gens = (Permutation((1, 0, 2)), Permutation((1, 2, 0)))
        assert GroupByGenerators(gens).order() == 6

    def test_trivial(self):
        g = GroupByGenerators.trivial(4)
        assert g.order() == 1
        assert g.identity in g

    def test_orbits_ordered_by_least_representative(self):
        p = Permutation((1, 0, 3, 2, 4))
        g = GroupByGenerators((p,))
        orbs = g.orbits(range(5))
        assert orbs == [frozenset({0, 1}), frozenset({2, 3}), frozenset({4})]

    def test_transitivity(self):
        g = GroupByGenerators((cyclic_perm(5),))
        assert g.orbit(3) == frozenset(range(5))
        h = GroupByGenerators((Permutation((1, 0, 2)),))
        assert h.orbit(0) == frozenset({0, 1}) and h.orbit(2) == {2}

    def test_action_kernel_on_sets(self):
        g = GroupByGenerators((cyclic_perm(4), reflection_perm(4)))
        blocks = [frozenset({0, 2}), frozenset({1, 3})]
        k = action_kernel(g, blocks)
        assert k.order() == 4
        assert all(setwise_action(b, p) == b for b in blocks
                   for p in closure(k))

    def test_action_kernel_rejects_objects_not_permuted(self):
        g = GroupByGenerators((cyclic_perm(4),))
        with pytest.raises(BlocksNotInvariantError):
            action_kernel(g, [frozenset({0, 1}), frozenset({2, 3})])
        # each block maps into a block, but both into the same one
        with pytest.raises(BlocksNotInvariantError):
            action_kernel(GroupByGenerators((Permutation((1, 0, 2, 3)),)),
                          [frozenset({0}), frozenset({1, 2}), frozenset({3})])

    def test_kernels_of_one_chain_match_filtered_elements(self):
        g = GroupByGenerators((cyclic_perm(6), reflection_perm(6)))
        parity = [frozenset({0, 2, 4}), frozenset({1, 3, 5})]
        halves = [frozenset({0, 3}), frozenset({1, 4}), frozenset({2, 5})]
        meet = [frozenset({v}) for v in range(6)]  # parity ∧ halves
        elems = closure(g)
        kernels = [action_kernel(g, blocks) for blocks in (parity, halves,
                                                           meet)]
        for k, fixed in zip(kernels, (parity, halves, meet)):
            want = frozenset(p for p in elems
                             if all(setwise_action(b, p) == b for b in fixed))
            assert k.elements() == want and k.order() == len(want)
            assert all((p in k) == (p in want) for p in elems)
        assert [k.order() for k in kernels] == [6, 2, 1]
        # g reads its order and membership from the first chain
        assert g._chain.chain is kernels[0]._chain.chain
        assert g.order() == 12 and g.elements() == elems
        swap = Permutation((1, 0, 2, 3, 4, 5))
        assert swap not in g and all(swap not in k for k in kernels)

    def test_equal_kernels_are_one_object(self):
        g = GroupByGenerators((cyclic_perm(6), reflection_perm(6)))
        parity = [frozenset({0, 2, 4}), frozenset({1, 3, 5})]
        assert action_kernel(g, [frozenset(range(6))]) is g
        assert action_kernel(g, parity) is not g

    def test_block_images_match_setwise_action(self):
        g = GroupByGenerators((cyclic_perm(6), reflection_perm(6)))
        blocks = [frozenset({0, 3}), frozenset({1, 4}), frozenset({2, 5})]
        for p, images in zip(g.generators, block_images(g, blocks)):
            assert [setwise_action(b, p) for b in blocks] == \
                [blocks[j] for j in images]


class TestChain:
    @given(groups_with_candidates())
    def test_matches_sympy(self, case):
        g, member, other = case
        oracle = sympy_group(g)
        assert g.order() == oracle.order()
        assert member in g
        assert (other in g) == oracle.contains(SymPerm(list(other.images)))

    @given(groups_with_candidates(), st.randoms())
    def test_pinned_chain_matches_sympy(self, case, rnd):
        """Every point pins any group, so the chain decides its Schreier
        generators on images alone, in any order of the pins."""
        g, member, other = case
        pins = list(range(g.degree))
        rnd.shuffle(pins)
        chain = StabilizerChain([p.images for p in g.generators], g.degree,
                                pins=pins).complete()
        oracle = sympy_group(g)
        assert chain.order() == oracle.order()
        assert member.images in chain
        assert (other.images in chain) == oracle.contains(
            SymPerm(list(other.images)))

    @given(groups_with_candidates())
    def test_stored_inverses(self, case):
        chain = case[0].chain
        for i, (tree, strong) in enumerate(zip(chain.tree, chain.strong)):
            _later, points, images = chain.base_images(i)
            for c in tree:
                u_inv = chain.transversal(i, c)
                assert u_inv[c] == chain.base[i]
                assert chain.sift(u_inv, i) == chain.identity
                u = inverse(Permutation(u_inv)).images
                assert list(images[c]) == [u[p] for p in points]
            assert all(_mul(s, chain.inverse(s)) == chain.identity
                       for s in strong)
            outside = next((x for x in range(len(chain.identity))
                            if x not in tree), None)
            if outside is not None:
                assert chain.transversal(i, outside) is None

    def test_order_and_membership_past_element_cap(self):
        g = GroupByGenerators((Permutation((1, 0, 2, 3, 4, 5, 6, 7)),
                               cyclic_perm(8)))
        assert g.order() == 40320
        assert inverse(cyclic_perm(8)) in g and g._elements is None

    @given(st.integers(1, 6).flatmap(
        lambda n: st.lists(perm_strategy(n), max_size=3).map(
            lambda gens: GroupByGenerators(tuple(gens), degree=n))))
    def test_elements_match_closure(self, g):
        listed = g.elements()
        assert listed == closure(g) and len(listed) == g.order()

    def test_other_degree_is_not_a_member(self):
        assert Permutation.identity(3) not in GroupByGenerators.trivial(4)


class TestStructure:
    def test_trivial(self):
        assert str(group_structure(GroupByGenerators.trivial(3))) == "Trivial"

    def test_cyclic(self):
        tag = group_structure(GroupByGenerators((cyclic_perm(9),)))
        assert str(tag) == "Cyclic(9)" and tag.order == 9

    def test_order_two_is_cyclic(self):
        tag = group_structure(GroupByGenerators((Permutation((1, 0)),)))
        assert str(tag) == "Cyclic(2)"

    def test_dihedral(self):
        g = GroupByGenerators((cyclic_perm(9), reflection_perm(9)))
        tag = group_structure(g)
        assert str(tag) == "Dihedral(18)" and tag.order == 18

    def test_klein_four_is_elementary_abelian(self):
        g = GroupByGenerators((Permutation((1, 0, 2, 3)),
                               Permutation((0, 1, 3, 2))))
        assert str(group_structure(g)) == "ElemAbelian2(2)"

    def test_elementary_abelian_cube(self):
        gens = tuple(
            Permutation.from_mapping(6, lambda x, i=i: x ^ 1 if x // 2 == i
                                     else x) for i in range(3))
        assert str(group_structure(GroupByGenerators(gens))) == "ElemAbelian2(3)"

    def test_symmetric_group_is_other(self):
        g = GroupByGenerators((Permutation((1, 0, 2, 3)),
                               Permutation((1, 2, 3, 0))))
        assert str(group_structure(g)) == "Other(24)"

    @pytest.mark.parametrize("gens, expected", [
        ((), "Trivial"),
        ((Permutation((1, 0)),), "Cyclic(2)"),
        ((cyclic_perm(9),), "Cyclic(9)"),
        # Z2 x Z3 on disjoint supports is cyclic of order 6
        ((Permutation((1, 0, 2, 3, 4)), Permutation((0, 1, 3, 4, 2))),
         "Cyclic(6)"),
        # Z2 x Z4 is abelian of exponent 4
        ((Permutation((1, 0, 2, 3, 4, 5)), Permutation((0, 1, 3, 4, 5, 2))),
         "Other(8)"),
        ((Permutation((1, 0, 2, 3)), Permutation((0, 1, 3, 2))),
         "ElemAbelian2(2)"),
        ((cyclic_perm(4), reflection_perm(4)), "Dihedral(8)"),
        ((cyclic_perm(9), reflection_perm(9)), "Dihedral(18)"),
        # the quaternion group, regular on 8 points: one involution
        ((Permutation((1, 2, 3, 0, 5, 6, 7, 4)),
          Permutation((4, 7, 6, 5, 2, 1, 0, 3))), "Other(8)"),
        ((Permutation((1, 0, 2, 3)), Permutation((1, 2, 3, 0))), "Other(24)"),
        # D10 from two reflections, x -> -x and x -> 1 - x
        ((reflection_perm(5),
          Permutation.from_mapping(5, lambda x: (1 - x) % 5)), "Dihedral(10)"),
        # D12 with its central involution, the half turn, as a generator
        ((cyclic_perm(6), reflection_perm(6),
          Permutation.from_mapping(6, lambda x: (x + 3) % 6)), "Dihedral(12)"),
        # Z2 x D8: the rotations with the central Z2 form Z4 x Z2
        ((Permutation((1, 2, 3, 0, 4, 5)), Permutation((0, 3, 2, 1, 4, 5)),
          Permutation((0, 1, 2, 3, 5, 4))), "Other(16)"),
        # Z3 x| Z4: an element of order 4 inverts a 3-cycle; no flip
        ((Permutation((1, 2, 0, 3, 4, 5, 6)),
          Permutation((0, 2, 1, 4, 5, 6, 3))), "Other(12)"),
        # the semidihedral group of order 16: x -> 3x conjugates the
        # 8-cycle to its cube, not its inverse
        ((cyclic_perm(8), Permutation.from_mapping(8, lambda x: 3 * x % 8)),
         "Other(16)"),
        # A4: rot is the 3-cycle's group, of order 3, not 6
        ((Permutation((1, 2, 0, 3)), Permutation((1, 0, 3, 2))), "Other(12)"),
    ])
    def test_matches_enumeration(self, gens, expected):
        g = GroupByGenerators(gens, degree=max((p.degree for p in gens),
                                               default=3))
        assert str(group_structure(g)) == enumerated_structure(g) == expected

    @given(st.integers(2, 7).flatmap(
        lambda n: st.lists(perm_strategy(n), min_size=1, max_size=3)))
    def test_random_groups_match_enumeration(self, gens):
        g = GroupByGenerators(tuple(gens))
        assert str(group_structure(g)) == enumerated_structure(g)
