import pytest
from hypothesis import given, strategies as st

from hatkit.errors import BadPermutationError, CapExceededError
from hatkit.perm import (
    GroupByGenerators,
    Permutation,
    action_kernel,
    group_from_elements,
    group_structure,
    setwise_action,
)


def perm_strategy(n):
    return st.permutations(range(n)).map(lambda xs: Permutation(tuple(xs)))


def cyclic_perm(n):
    return Permutation.from_mapping(n, lambda x: (x + 1) % n)


def reflection_perm(n):
    return Permutation.from_mapping(n, lambda x: (-x) % n)


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(BadPermutationError):
            Permutation((0, 0, 1))

    def test_identity(self):
        p = Permutation.identity(5)
        assert p.is_identity() and p.order() == 1
        assert p.fixed_points() == list(range(5))

    @given(perm_strategy(7), perm_strategy(7), st.integers(0, 6))
    def test_composition_convention(self, p, q, x):
        assert (p * q)(x) == q(p(x))

    @given(perm_strategy(6), perm_strategy(6), perm_strategy(6))
    def test_associativity(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(perm_strategy(8))
    def test_inverse(self, p):
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    @given(perm_strategy(8))
    def test_order_annihilates(self, p):
        k = p.order()
        acc = Permutation.identity(8)
        for _ in range(k):
            acc = acc * p
        assert acc.is_identity()

    def test_cycle_order(self):
        assert cyclic_perm(6).order() == 6


class TestGroup:
    def test_symmetric_group_order(self):
        gens = (Permutation((1, 0, 2)), Permutation((1, 2, 0)))
        assert GroupByGenerators(gens).order() == 6

    def test_cap_exceeded(self):
        gens = (Permutation((1, 0, 2, 3, 4)), Permutation((1, 2, 3, 4, 0)))
        g = GroupByGenerators(gens, element_cap=10)
        with pytest.raises(CapExceededError):
            g.elements()

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
        assert g.is_transitive(range(5))
        h = GroupByGenerators((Permutation((1, 0, 2)),))
        assert not h.is_transitive(range(3))

    def test_action_kernel_on_sets(self):
        g = GroupByGenerators((cyclic_perm(4), reflection_perm(4)))
        blocks = [frozenset({0, 2}), frozenset({1, 3})]
        k = action_kernel(g, blocks, setwise_action)
        assert k.order() == 4
        assert all(setwise_action(b, p) == b for b in blocks
                   for p in k.elements())

    def test_group_from_elements_roundtrip(self):
        g = GroupByGenerators((cyclic_perm(6),))
        h = group_from_elements(g.elements(), 6)
        assert h.elements() == g.elements()


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
