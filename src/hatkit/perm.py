"""Permutations and finite permutation groups given by generators, whose
order and membership come from the stabilizer chains of ``chain``; and the
kernel of a group's action on a partition of its points, read from a chain
whose base is the blocks followed by points that only the identity fixes.

Action convention (used everywhere in hatkit): permutations act on the
right, composed left to right.  For a point ``x`` and permutations ``p``,
``q`` the composite ``p * q`` satisfies ``(p * q)(x) == q(p(x))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import lcm
from typing import Callable, Iterable, Optional, Sequence

from .chain import StabilizerChain, _inverse, _mul
from .errors import (
    BadPermutationError,
    BlocksNotInvariantError,
    DegreeMismatchError,
)


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
    def unchecked(images: tuple) -> "Permutation":
        """The permutation with this image tuple, which is a bijection by
        construction, such as a search's composite of two labellings,
        taken unchecked."""
        p = object.__new__(Permutation)
        object.__setattr__(p, "images", images)
        return p

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

    def order(self) -> int:
        return _order(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(compose(p, q))(x) = q(p(x)) for all x."""
    if p.degree != q.degree:
        raise DegreeMismatchError(f"degrees {p.degree} != {q.degree}")
    qi = q.images
    return Permutation(tuple(qi[y] for y in p.images))


def _order(p: tuple) -> int:
    """The lcm of the cycle lengths of the image tuple p."""
    seen = [False] * len(p)
    out = 1
    for x in range(len(p)):
        length = 0
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        if length:
            out = lcm(out, length)
    return out


class BlockChainLevel:
    """The subgroup G_level of a chain whose points are k block points
    followed by n vertices, read on the vertices: the chain of a kernel
    that ``action_kernel`` builds.  ``lift`` maps a vertex permutation to
    the chain's points, or to None when it does not permute the blocks."""

    def __init__(self, chain: StabilizerChain, level: int, k: int,
                 lift: Callable[[tuple], Optional[tuple]]):
        self.chain, self.level, self.k, self.lift = chain, level, k, lift

    def order(self) -> int:
        return self.chain.order(self.level)

    def __contains__(self, p: tuple) -> bool:
        h = self.lift(p)
        return (h is not None
                and self.chain.sift(h, self.level) == self.chain.identity)

    def elements(self) -> list:
        k = self.k
        return [tuple(y - k for y in e[k:])
                for e in self.chain.elements(self.level)]


@dataclass
class GroupByGenerators:
    """A permutation group given by generators.  Order, membership and, on
    request, the element set come from a stabilizer chain: one built on
    first use, or a level of the chain ``action_kernel`` builds.

    ``base``, when given, is a base for which the generators are a strong
    generating set, so the chain built on it needs no Schreier-Sims run;
    without it the chain's base is every point;
    ``_order``, when given, is the order, so ``order`` builds no chain."""

    generators: tuple
    degree: int = field(default=None)
    base: Optional[tuple] = field(default=None, repr=False, compare=False)
    _elements: Optional[frozenset] = field(default=None, repr=False, compare=False)
    _chain: Optional[StabilizerChain | BlockChainLevel] = field(
        default=None, repr=False, compare=False)
    _order: Optional[int] = field(default=None, repr=False, compare=False)

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
        """Every element, from the stabilizer chain.  No library code
        calls this; tests compare it with a closure, benchmarks wrap it."""
        if self._elements is None:
            self._elements = frozenset(
                Permutation(p) for p in self.chain.elements())
        return self._elements

    @property
    def chain(self) -> StabilizerChain | BlockChainLevel:
        if self._chain is None:
            chain = StabilizerChain((p.images for p in self.generators),
                                    self.degree, self.base)
            self._chain = chain.complete() if self.base is None else chain
        return self._chain

    def order(self) -> int:
        if self._order is None:
            self._order = self.chain.order()
        return self._order

    def __contains__(self, p: Permutation) -> bool:
        return p.degree == self.degree and p.images in self.chain

    def orbit(self, point: int) -> frozenset:
        seen = {point}
        frontier = [point]
        while frontier:
            x = frontier.pop()
            for g in self.generators:
                y = g.images[x]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return frozenset(seen)

    def orbits(self, points: Iterable) -> list:
        """Partition of ``points`` into orbits, ordered by least representative."""
        remaining = set(points)
        out = []
        while remaining:
            x = min(remaining)
            orb = self.orbit(x)
            out.append(orb)
            remaining -= orb
        return out


def block_index(blocks: Sequence, n: int) -> list:
    """Each of the points 0..n-1 -> the number of its block among the
    disjoint ``blocks``, in order, or -1 if it lies in none."""
    number = [-1] * n
    for j, blk in enumerate(blocks):
        for v in blk:
            number[v] = j
    return number


def _block_lift(blocks: Sequence, n: int) -> Callable:
    """The map from the image tuple of a permutation of the n points to
    its permutation of the ``blocks``, as the list of block numbers, or to
    None if it does not permute them.  ``block_index`` numbers each point's
    block once, and the map pi of block numbers is read at one point of
    each block.  The images permute the blocks exactly when pi is a
    bijection and every point's image lies in the block that pi gives its
    own."""
    number = block_index(blocks, n)
    reps = [next(iter(blk)) for blk in blocks]

    def lift(images: tuple) -> Optional[list]:
        # pi[-1] = -1 takes a point in no block to one in none
        pi = [number[images[v]] for v in reps] + [-1]
        if (len(set(pi)) < len(pi)
                or [number[y] for y in images] != [pi[j] for j in number]):
            return None
        return pi[:-1]
    return lift


def _lifted(g: GroupByGenerators, lift: Callable) -> list:
    """Each generator of g lifted.  Raises BlocksNotInvariantError for the
    first one that ``lift`` maps to None."""
    out = [lift(p.images) for p in g.generators]
    if None in out:
        raise BlocksNotInvariantError(
            f"generator {out.index(None)} does not permute the blocks")
    return out


def block_images(g: GroupByGenerators, blocks: Sequence) -> list:
    """Each generator's permutation of the disjoint ``blocks``, as the
    image tuple of block indices.  Raises BlocksNotInvariantError if a
    generator does not permute them."""
    return [tuple(pi) for pi in _lifted(g, _block_lift(blocks, g.degree))]


def action_kernel(g: GroupByGenerators, blocks: Sequence,
                  pins: Sequence = ()) -> GroupByGenerators:
    """The kernel of g's action on the disjoint ``blocks``, from one chain.

    Each generator becomes a permutation of the k blocks and the n points
    together, blocks first, and the block points open the base.  The
    ``pins`` follow them: points that only the identity of g fixes all
    of, which its one caller proves, so that the base is a base and the
    chain decides its Schreier generators on a few images; given none,
    every point.  Level k, after the blocks, is the kernel: its strong
    generators, restricted to the points, generate it, and it reads order
    and membership from the levels from there on.  When every block level
    has one point, g fixes every block and the kernel is g itself.  Level
    0 is g, which takes it as its chain if it has none: the action on the
    points is faithful, so |g| is the product of all the transversal
    sizes.  Raises BlocksNotInvariantError if a generator does not permute
    the blocks.
    """
    n, k = g.degree, len(blocks)
    blocks_of = _block_lift(blocks, n)

    def lift(images: tuple) -> Optional[tuple]:
        pi = blocks_of(images)
        return None if pi is None else (*pi, *[k + y for y in images])

    chain = StabilizerChain(_lifted(g, lift), k + n, [
        *range(k), *(k + v for v in pins or range(n))]).complete()
    if g._chain is None:
        g._chain = BlockChainLevel(chain, 0, k, lift)
    if all(len(t) == 1 for t in chain.tree[:k]):
        return g
    return GroupByGenerators(
        tuple(Permutation.unchecked(tuple([y - k for y in s[k:]]))
              for s in chain.strong[k]), degree=n,
        _chain=BlockChainLevel(chain, k, k, lift))


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


def _commute(gens: Sequence[tuple]) -> bool:
    return all(_mul(p, q) == _mul(q, p) for p, q in combinations(gens, 2))


def group_structure(g: GroupByGenerators) -> StructureTag:
    """Exact recognition of cyclic, dihedral and elementary abelian 2-groups
    from the generators and the order; no element is listed.

    Conventions for the degenerate small orders: order 2 is reported
    Cyclic(2); order 4 with all involutions is ElemAbelian2(2) (note that
    the dihedral group of order 4 is Z2 x Z2).  Dihedral(k) denotes the
    dihedral group of order k.

    An abelian group's exponent is the lcm of its generator orders; it is
    cyclic exactly when the exponent is the order.

    A non-abelian group's flips are its generators that are involutions
    and fail to commute with some generator.  With f the first flip, rot
    is generated by the other generators and f * t for each further flip
    t.  The group is Dihedral(n) exactly when rot is abelian, f inverts
    each generator of rot and their orders have lcm n/2.  If so, rot and
    f generate the group, f normalizes rot and lies outside it (else the
    group is abelian), so rot has index 2 and exponent n/2: it is cyclic
    and inverted by the involution f.  Conversely, in a non-abelian
    dihedral group (n >= 6) the reflections are the non-central
    involutions, so the flips are the reflection generators and rot is a
    group of rotations that with f generates the group: all rotations.

    Products are taken on the generators' image tuples, which are valid
    permutations of one degree (at least 2 once the group is not
    trivial), so none is checked again.
    """
    n = g.order()
    if n == 1:
        return StructureTag("Trivial")
    gens = [p.images for p in g.generators]
    if _commute(gens):
        exponent = lcm(*map(_order, gens))
        if exponent == n:
            return StructureTag("Cyclic", n)
        if exponent == 2:
            return StructureTag("ElemAbelian2", n.bit_length() - 1)
        return StructureTag("Other", n)
    flips = [t for t in gens
             if _order(t) == 2 and any(_mul(t, p) != _mul(p, t) for p in gens)]
    if flips:
        f = flips[0]
        rot = [p for p in gens if p not in flips] + [_mul(f, t)
                                                     for t in flips[1:]]
        if (_commute(rot)
                and all(_mul(_mul(f, c), f) == _inverse(c) for c in rot)
                and 2 * lcm(*map(_order, rot)) == n):
            return StructureTag("Dihedral", n)
    return StructureTag("Other", n)
