"""Permutations and finite permutation groups given by generators.

Action convention (used everywhere in hatkit): permutations act on the
right, composed left to right.  For a point ``x`` and permutations ``p``,
``q`` the composite ``p * q`` satisfies ``(p * q)(x) == q(p(x))``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .errors import BadPermutationError, CapExceededError, DegreeMismatchError

DEFAULT_ELEMENT_CAP = int(os.environ.get("HATKIT_ELEMENT_CAP", 10**6))


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0, ..., n-1}, stored as its image tuple."""

    images: tuple

    def __post_init__(self):
        imgs = tuple(self.images)
        object.__setattr__(self, "images", imgs)
        if sorted(imgs) != list(range(len(imgs))):
            raise BadPermutationError(f"not a bijection on 0..{len(imgs) - 1}: {imgs}")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    @staticmethod
    def from_mapping(n: int, mapping: Callable[[int], int]) -> "Permutation":
        return Permutation(tuple(mapping(x) for x in range(n)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Left-to-right composition: (p * q)(x) = q(p(x))."""
        return compose(self, other)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images):
            inv[y] = x
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.images))

    def order(self) -> int:
        k = 1
        p = self
        while not p.is_identity():
            p = p * self
            k += 1
        return k

    def fixed_points(self) -> list:
        return [x for x, y in enumerate(self.images) if x == y]

    def __repr__(self):
        return f"Permutation({list(self.images)})"


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(compose(p, q))(x) = q(p(x)) for all x."""
    if p.degree != q.degree:
        raise DegreeMismatchError(f"degrees {p.degree} != {q.degree}")
    qi = q.images
    return Permutation(tuple(qi[y] for y in p.images))


@dataclass
class GroupByGenerators:
    """A permutation group given by generators, with lazily enumerated
    element set (breadth-first closure, capped at ``element_cap``)."""

    generators: tuple
    degree: int = field(default=None)
    element_cap: int = DEFAULT_ELEMENT_CAP
    _elements: Optional[frozenset] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.generators = tuple(self.generators)
        degrees = {g.degree for g in self.generators}
        if self.degree is None:
            if not degrees:
                raise ValueError("degree required for a generator-free group")
            (self.degree,) = degrees if len(degrees) == 1 else (None,)
        if degrees and degrees != {self.degree}:
            raise DegreeMismatchError(f"mixed generator degrees: {sorted(degrees)}")

    @staticmethod
    def trivial(n: int) -> "GroupByGenerators":
        return GroupByGenerators((), degree=n)

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def elements(self) -> frozenset:
        """Closure of the generators under composition."""
        if self._elements is None:
            self._elements = frozenset(enumerate_elements(self))
        return self._elements

    def order(self) -> int:
        return len(self.elements())

    def __contains__(self, p: Permutation) -> bool:
        return p in self.elements()

    def orbit(self, point, act: Callable = None) -> frozenset:
        act = act or (lambda x, g: g(x))
        seen = {point}
        frontier = [point]
        while frontier:
            x = frontier.pop()
            for g in self.generators:
                y = act(x, g)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return frozenset(seen)

    def orbits(self, points: Iterable, act: Callable = None) -> list:
        """Partition of ``points`` into orbits, ordered by least representative."""
        remaining = set(points)
        out = []
        while remaining:
            x = min(remaining)
            orb = self.orbit(x, act)
            out.append(orb)
            remaining -= orb
        return out

    def is_transitive(self, points: Iterable, act: Callable = None) -> bool:
        pts = set(points)
        if not pts:
            return False
        first = next(iter(pts))
        return self.orbit(first, act) >= pts

    def with_extra_generator(self, p: Permutation) -> "GroupByGenerators":
        return GroupByGenerators(self.generators + (p,), degree=self.degree,
                                 element_cap=self.element_cap)


def enumerate_elements(g: GroupByGenerators) -> set:
    """Breadth-first closure of the generators; raises CapExceededError if the
    closure grows past ``g.element_cap``."""
    ident = Permutation.identity(g.degree)
    elements = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for p in frontier:
            for gen in g.generators:
                q = p * gen
                if q not in elements:
                    elements.add(q)
                    if len(elements) > g.element_cap:
                        raise CapExceededError(
                            f"group closure exceeds cap {g.element_cap}")
                    new.append(q)
        frontier = new
    return elements


def group_from_elements(elements: Iterable[Permutation], degree: int,
                        element_cap: int = DEFAULT_ELEMENT_CAP) -> GroupByGenerators:
    elems = frozenset(elements)
    gens = tuple(p for p in sorted(elems, key=lambda p: p.images)
                 if not p.is_identity())
    g = GroupByGenerators(gens, degree=degree, element_cap=element_cap)
    g._elements = elems if elems else frozenset({Permutation.identity(degree)})
    return g


def action_kernel(g: GroupByGenerators, labeled_objects: Sequence,
                  act: Callable) -> GroupByGenerators:
    """Subgroup of all elements fixing every labeled object (setwise, as far
    as ``act`` is concerned).  Elements come back materialized."""
    kernel = [p for p in g.elements()
              if all(act(obj, p) == obj for obj in labeled_objects)]
    return group_from_elements(kernel, g.degree, g.element_cap)


def setwise_action(s: frozenset, p: Permutation) -> frozenset:
    return frozenset(p(x) for x in s)


@dataclass(frozen=True)
class StructureTag:
    """Recognition result for the three group shapes the classification
    needs, plus Trivial and a catch-all Other."""

    kind: str  # "Trivial" | "Cyclic" | "Dihedral" | "ElemAbelian2" | "Other"
    param: int = 0  # group order for Cyclic/Dihedral/Other, exponent k for ElemAbelian2

    def __str__(self):
        if self.kind == "Trivial":
            return "Trivial"
        return f"{self.kind}({self.param})"

    @property
    def order(self) -> int:
        if self.kind == "Trivial":
            return 1
        if self.kind == "ElemAbelian2":
            return 2 ** self.param
        return self.param


def group_structure(g: GroupByGenerators) -> StructureTag:
    """Exact recognition of cyclic, dihedral and elementary abelian 2-groups.

    Conventions for the degenerate small orders: order 2 is reported
    Cyclic(2); order 4 with all involutions is ElemAbelian2(2) (note that
    the dihedral group of order 4 is Z2 x Z2).  Dihedral(k) denotes the
    dihedral group of order k.
    """
    elems = sorted(g.elements(), key=lambda p: p.images)
    n = len(elems)
    if n == 1:
        return StructureTag("Trivial")
    orders = {p: p.order() for p in elems}
    if any(o == n for o in orders.values()):
        return StructureTag("Cyclic", n)
    if all(o <= 2 for o in orders.values()):
        # exponent-2 groups are automatically abelian
        k = n.bit_length() - 1
        if 2 ** k == n:
            return StructureTag("ElemAbelian2", k)
        return StructureTag("Other", n)
    if n % 2 == 0:
        half = n // 2
        for c in elems:
            if orders[c] != half:
                continue
            cyc = set()
            p = c
            while p not in cyc:
                cyc.add(p)
                p = p * c
            inv_c = c.inverse()
            if any(t not in cyc and orders[t] == 2 and t * c * t == inv_c
                   for t in elems):
                return StructureTag("Dihedral", n)
    return StructureTag("Other", n)
