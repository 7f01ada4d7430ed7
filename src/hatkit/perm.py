"""Permutations and finite permutation groups given by generators.

Action convention (used everywhere in hatkit): permutations act on the
right, composed left to right.  For a point ``x`` and permutations ``p``,
``q`` the composite ``p * q`` satisfies ``(p * q)(x) == q(p(x))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import lcm, prod
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

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


def _mul(p: tuple, q: tuple) -> tuple:
    """Image tuple of p followed by q.  The chain only multiplies in groups
    with a non-identity generator, so the degree is at least 2 and
    ``itemgetter`` returns a tuple."""
    return itemgetter(*p)(q)


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


def _inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for x in range(len(p)):
        inv[p[x]] = x
    return tuple(inv)


class StabilizerChain:
    """A base and strong generating set on image tuples.

    ``base`` starts with the given points; further points are appended as
    needed, each the least point moved by the generator that needs it.
    ``strong[i]`` holds the strong generators fixing ``base[:i]``.
    ``tree[i]`` is a Schreier tree of the orbit of ``base[i]`` under
    ``strong[i]``: it maps ``base[i]`` to None and each other orbit point
    to (b, k), the point whose image it is under ``strong[i][k]``.
    ``transversal(i, c)`` reads off the tree a pair (u, u^-1) with u
    carrying ``base[i]`` to c, and keeps every pair it builds, so order
    and the orbits cost no product and a sift builds only the pairs on
    its way.

    The constructor adds each generator to the levels up to the first
    base point it moves, closing their orbits.  When the generators are
    already a strong generating set for the base, as the automorphisms an
    automorphism search finds are for its first path, that is the chain.
    Otherwise ``complete`` runs the deterministic
    Schreier-Sims algorithm (Sims 1970; Seress, *Permutation Group
    Algorithms*, 2003, section 4.2) until ``strong[i]`` generates the
    pointwise stabilizer G_i of ``base[:i]``.
    """

    def __init__(self, generators: Iterable[tuple], degree: int,
                 base: Iterable[int] = ()):
        self.identity = tuple(range(degree))
        self.base = []
        self.strong = []
        self.tree = []
        self._pairs = []  # per level: the (u, u^-1) built so far
        self._inverses = {}  # id of a strong generator -> its inverse
        # per level: how many strong generators the orbit is closed under
        self._closed = []
        # per level: (point, strong index) pairs whose Schreier generator
        # sifts to the identity
        self._checked = []
        for b in base:
            self._add_level(b)
        for g in dict.fromkeys(generators):
            if g != self.identity:
                self._add_strong(g, 0)

    def _add_level(self, b: int) -> None:
        self.base.append(b)
        self.strong.append([])
        self.tree.append({b: None})
        self._pairs.append({b: (self.identity, self.identity)})
        self._closed.append(0)
        self._checked.append(set())

    def _add_strong(self, h: tuple, first: int) -> int:
        """Add h, which fixes ``base[:first]``, to the levels from ``first``
        to the first one whose base point it moves; if it fixes the whole
        base, append its least moved point.  Returns that last level."""
        last = next((i for i in range(first, len(self.base))
                     if h[self.base[i]] != self.base[i]), None)
        if last is None:
            last = len(self.base)
            self._add_level(next(x for x, y in enumerate(h) if x != y))
        for level in range(first, last + 1):
            self.strong[level].append(h)
            self._extend(level)
        return last

    def _extend(self, i: int) -> None:
        """Close the orbit of ``base[i]`` under ``strong[i]``: the points
        already in it under the generators added since it was last closed,
        the new points under all.  Existing tree entries never change, so
        a sift that once reached the identity always does.  The Schreier
        generator of a pair (b, k) that defines a new entry is the
        identity, so the pair is marked checked."""
        tree = self.tree[i]
        checked = self._checked[i]
        strong = self.strong[i]
        queue = list(tree)
        old, start = len(queue), self._closed[i]
        self._closed[i] = len(strong)
        for j, b in enumerate(queue):
            for k in range(start if j < old else 0, len(strong)):
                c = strong[k][b]
                if c not in tree:
                    tree[c] = (b, k)
                    checked.add((b, k))
                    queue.append(c)

    def inverse(self, h: tuple) -> tuple:
        """The inverse of the strong generator h, computed once."""
        inv = self._inverses.get(id(h))
        if inv is None:
            inv = self._inverses[id(h)] = _inverse(h)
        return inv

    def transversal(self, i: int, c: int) -> Optional[tuple]:
        """The pair (u, u^-1) of level i for the orbit point c, or None if
        c is not in the orbit.  Along the tree path from the nearest point
        with a pair, each step by g gives u*g and g^-1 * u^-1."""
        pairs = self._pairs[i]
        if c in pairs:
            return pairs[c]
        tree = self.tree[i]
        if c not in tree:
            return None
        path = []
        while c not in pairs:
            path.append(c)
            c = tree[c][0]
        u, u_inv = pairs[c]
        for c in reversed(path):
            g = self.strong[i][tree[c][1]]
            u, u_inv = _mul(u, g), _mul(self.inverse(g), u_inv)
            pairs[c] = (u, u_inv)
        return u, u_inv

    def sift(self, g: tuple, start: int = 0) -> tuple:
        """Strip g through the levels from ``start`` on.  Once the chain is
        complete, the residue is the identity exactly when g lies in
        G_start."""
        for i in range(start, len(self.base)):
            b = self.base[i]
            c = g[b]
            if c != b:
                t = self.transversal(i, c)
                if t is None:
                    return g
                g = _mul(g, t[1])
        return g

    def _schreier_residue(self, i: int):
        """The residue of the first Schreier generator of level i that does
        not sift to the identity through the levels below, or None.  A level
        whose orbit is one point has only its strong generators as Schreier
        generators, and they are checked at level i + 1."""
        tree = self.tree[i]
        if len(tree) == 1:
            return None
        checked = self._checked[i]
        for b in tree:
            u = self.transversal(i, b)[0]
            for k, s in enumerate(self.strong[i]):
                if (b, k) in checked:
                    continue
                h = self.sift(_mul(_mul(u, s), self.transversal(i, s[b])[1]),
                              i + 1)
                if h != self.identity:
                    return h
                checked.add((b, k))
        return None

    def complete(self) -> "StabilizerChain":
        """Add the residue of every Schreier generator that does not sift
        to the identity as a strong generator, until none is left."""
        i = len(self.base) - 1
        while i >= 0:
            found = self._schreier_residue(i)
            if found is None:
                i -= 1
            else:
                i = self._add_strong(found, i + 1)
        return self

    def order(self, start: int = 0) -> int:
        """The order of G_start: the product of the orbit lengths."""
        return prod(len(tree) for tree in self.tree[start:])

    def __contains__(self, g: tuple) -> bool:
        return self.sift(g) == self.identity

    def elements(self, start: int = 0) -> list:
        """Every element of G_start, once: an element of G_i is an element
        of G_i+1 followed by one transversal entry of level i.  Only
        ``GroupByGenerators.elements`` calls this."""
        out = [self.identity]
        for i in reversed(range(start, len(self.base))):
            us = [self.transversal(i, c)[0] for c in self.tree[i]]
            out = [_mul(h, u) for h in out for u in us]
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
                                    self.degree, self.base or ())
            self._chain = chain if self.base is not None else chain.complete()
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


def block_index(blocks: Sequence, first: int = 0) -> dict:
    """Point -> the number of its block, the disjoint ``blocks`` numbered
    in order from ``first``."""
    return {v: first + j for j, blk in enumerate(blocks) for v in blk}


def _block_image(images: tuple, blocks: Sequence, block_of: dict,
                 indices: set) -> Optional[tuple]:
    """The permutation of ``blocks`` by the point images, as a tuple of
    the ``indices`` that ``block_of`` gives them, or None if the images do
    not permute the blocks.  They do when each block maps into one block
    and no two into the same one: each image then fits in its target and
    the sizes sum alike, so it fills it."""
    out = tuple(j for blk in blocks for j in {block_of.get(images[v])
                                              for v in blk})
    return out if len(out) == len(blocks) and set(out) == indices else None


def block_images(g: GroupByGenerators, blocks: Sequence) -> list:
    """Each generator's permutation of the disjoint ``blocks``, as the
    image tuple of block indices.  Raises BlocksNotInvariantError if a
    generator does not permute them."""
    block_of = block_index(blocks)
    indices = set(range(len(blocks)))
    out = []
    for i, p in enumerate(g.generators):
        images = _block_image(p.images, blocks, block_of, indices)
        if images is None:
            raise BlocksNotInvariantError(
                f"generator {i} does not permute the blocks")
        out.append(images)
    return out


def action_kernel(g: GroupByGenerators, *partitions: Sequence) -> list:
    """The kernels of g's actions on the first 1, 2, ... of the
    ``partitions``, each a sequence of disjoint blocks, from one chain.

    Each generator becomes a permutation of the k blocks of all partitions
    and the n points together, blocks first, and the block points open
    the base in order.  The level after the blocks of the first i
    partitions is their kernel: its strong generators, restricted to the
    points, generate it, and it reads order and membership from the
    levels from there on.  Kernels with only one-point orbits between
    their levels are equal and are one object.  Level 0 is g itself,
    which takes it as its chain if it has none: the action on the points
    is faithful, so |g| is the product of all the transversal sizes.
    Raises BlocksNotInvariantError if a generator does not permute the
    blocks of some partition.
    """
    n = g.degree
    # per partition: its blocks, block_of and index set, the blocks
    # numbered on from those of the partitions before it
    tables = []
    k = 0
    for blocks in partitions:
        tables.append((blocks, block_index(blocks, k),
                       set(range(k, k + len(blocks)))))
        k += len(blocks)

    def lift(images: tuple) -> Optional[tuple]:
        out = ()
        for table in tables:
            part = _block_image(images, *table)
            if part is None:
                return None
            out += part
        return out + tuple(k + y for y in images)

    gens = []
    for i, p in enumerate(g.generators):
        images = lift(p.images)
        if images is None:
            raise BlocksNotInvariantError(
                f"generator {i} does not permute the blocks")
        gens.append(images)
    chain = StabilizerChain(gens, k + n, base=range(k)).complete()
    if g._chain is None:
        g._chain = BlockChainLevel(chain, 0, k, lift)
    out = []
    level, group = 0, g
    for blocks in partitions:
        cut = level + len(blocks)
        if any(len(t) > 1 for t in chain.tree[level:cut]):
            strong = chain.strong[cut] if cut < len(chain.base) else ()
            group = GroupByGenerators(
                tuple(Permutation(tuple(y - k for y in s[k:]))
                      for s in strong), degree=n,
                _chain=BlockChainLevel(chain, cut, k, lift))
        out.append(group)
        level = cut
    return out


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
