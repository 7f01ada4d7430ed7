"""Stabilizer chains on image tuples, with the action convention of
``perm``: permutations act on the right, composed left to right.

A chain is built on a base: points that only the identity of its group
fixes, by default every point, which the caller proves.  It decides each
Schreier generator on the images of the later base points, with no
product of permutations.  ``perm.action_kernel`` builds the chain of an
instance's kernels on the block points and a few vertices.
"""

from __future__ import annotations

from itertools import compress, count, islice
from math import prod
from operator import itemgetter, ne
from typing import Iterable, Optional


def _mul(p: tuple, q: tuple) -> tuple:
    """Image tuple of p followed by q.  The chain only multiplies in groups
    with a non-identity generator, so the degree is at least 2 and
    ``itemgetter`` returns a tuple."""
    return itemgetter(*p)(q)


def _inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for x in range(len(p)):
        inv[p[x]] = x
    return tuple(inv)


class StabilizerChain:
    """A base and strong generating set on image tuples.

    ``base`` holds points that only the identity of the group fixes all
    of, by default every point.  The caller proves that, and the chain
    adds no point to it.  ``strong[i]`` holds the strong generators
    fixing ``base[:i]``.  ``tree[i]`` is a Schreier tree of the orbit of
    ``base[i]`` under ``strong[i]``: it maps ``base[i]`` to None and each
    other orbit point c to (b, k), c being the image of b under
    ``strong[i][k]``.  The tree path to c gives u_c, which carries
    ``base[i]`` to c.  ``transversal(i, c)`` reads off u_c^-1 and keeps
    every one it builds, so order and the orbits cost no product and a
    sift builds only the inverses on its way.

    The constructor adds each generator to the levels up to the first
    base point it moves, closing their orbits.  When the generators are
    already a strong generating set for the base, as the automorphisms an
    automorphism search finds are for its first path, that is the chain.
    Otherwise ``complete`` runs the deterministic Schreier-Sims algorithm
    (Sims 1970; Seress, *Permutation Group Algorithms*, 2003, section 4.2)
    until ``strong[i]`` generates the pointwise stabilizer G_i of
    ``base[:i]``.  Since only the identity fixes the base, it decides a
    Schreier generator on the images of the later base points.
    Membership is still a full sift, since a permutation given from
    outside need not lie in the group.
    """

    def __init__(self, generators: Iterable[tuple], degree: int,
                 base: Optional[Iterable[int]] = None):
        self.identity = tuple(range(degree))
        self.base = list(self.identity if base is None else base)
        self.strong = [[] for _ in self.base]
        self.tree = [{b: None} for b in self.base]
        self._inverses = {}  # id of a strong generator -> its inverse
        # per level: the u_c^-1 built so far; the (point, strong index)
        # pairs whose Schreier generator sifts to the identity; and the
        # ``base_images`` images
        self._transversal = [{b: self.identity} for b in self.base]
        self._checked = [set() for _ in self.base]
        self._images = [{} for _ in self.base]
        for g in dict.fromkeys(generators):
            if g != self.identity:
                self._add_strong(g, 0)

    def _add_strong(self, h: tuple, first: int) -> int:
        """Add h, which fixes ``base[:first]``, to the levels from ``first``
        to the first one whose base point it moves, which a non-identity
        element of the group has.  Returns that last level."""
        last = next(i for i in range(first, len(self.base))
                    if h[self.base[i]] != self.base[i])
        for level in range(first, last + 1):
            self.strong[level].append(h)
            self._extend(level)
        return last

    def _extend(self, i: int) -> None:
        """Close the orbit of ``base[i]`` under ``strong[i]``, whose last
        generator is new: the points already in it under that one, the new
        points under all.  Existing tree entries never change, so a sift
        that once reached the identity always does.  The Schreier generator
        of a pair (b, k) that defines a new entry is the identity, so the
        pair is marked checked."""
        tree = self.tree[i]
        checked = self._checked[i]
        strong = self.strong[i]
        queue = list(tree)
        old, new = len(queue), len(strong) - 1
        for j, b in enumerate(queue):
            for k in range(new if j < old else 0, len(strong)):
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
        """u_c^-1 for the orbit point c of level i, or None if c is not in
        the orbit.  Along the tree path from the nearest point with one,
        each step by g gives g^-1 * u^-1."""
        inverses = self._transversal[i]
        if c in inverses:
            return inverses[c]
        tree = self.tree[i]
        if c not in tree:
            return None
        path = []
        while c not in inverses:
            path.append(c)
            c = tree[c][0]
        u_inv = inverses[c]
        for c in reversed(path):
            g = self.strong[i][tree[c][1]]
            u_inv = inverses[c] = _mul(self.inverse(g), u_inv)
        return u_inv

    def base_images(self, i: int) -> tuple:
        """The later base points ``base[i+1:]``, and each orbit point c of
        level i -> the images of those points under u_c.  Each image list
        is read off that of c's tree parent, and kept."""
        points = self.base[i + 1:]
        images = self._images[i]
        strong = self.strong[i]
        for c, step in islice(self.tree[i].items(), len(images), None):
            if step is None:
                images[c] = points
            else:
                g = strong[step[1]]
                images[c] = [g[p] for p in images[step[0]]]
        return points, images

    def sift(self, g: tuple, start: int = 0) -> tuple:
        """Strip g through the levels from ``start`` on.  Once the chain is
        complete, the residue is the identity exactly when g lies in
        G_start."""
        for i in range(start, len(self.base)):
            b = self.base[i]
            c = g[b]
            if c != b:
                u_inv = self.transversal(i, c)
                if u_inv is None:
                    return g
                g = _mul(g, u_inv)
        return g

    def _schreier_residue(self, i: int):
        """The residue of the first Schreier generator of level i that does
        not sift to the identity through the levels below, or None.

        The Schreier generator of the pair (b, k) is x = u_b * s * u_c^-1,
        with s = ``strong[i][k]`` and c = s(b).  Its images of the later
        base points p (``base_images``) are x(p) = u_c^-1(s(u_b(p))), and
        each later level strips them by a stored inverse t_j.  Only these
        images are followed, and no product is made.  The residue
        x * t_1 ... t_k lies in the group and fixes ``base[:i+1]``, so it
        is the identity exactly when it fixes every later base point.
        Only an x that does not sift to the identity is built in full, and
        sifted, so the residue is the one a full sift gives."""
        points, images = self.base_images(i)
        checked = self._checked[i]
        for b in self.tree[i]:
            for k, s in enumerate(self.strong[i]):
                if (b, k) in checked:
                    continue
                u_inv = self.transversal(i, s[b])
                x = [u_inv[s[p]] for p in images[b]]
                # the scan reads x as each step rewrites it after j
                for j in compress(count(), map(ne, x, points)):
                    t = self.transversal(i + 1 + j, x[j])
                    if t is None:
                        break
                    x[j + 1:] = [t[y] for y in x[j + 1:]]
                else:
                    checked.add((b, k))
                    continue
                u_b = self.transversal(i, b)
                if b != self.base[i]:
                    u_b = _inverse(u_b)
                return self.sift(_mul(_mul(u_b, s), u_inv), i + 1)
        return None

    def complete(self) -> "StabilizerChain":
        """Add the residue of every Schreier generator that does not sift
        to the identity as a strong generator, until none is left.  A level
        whose orbit is one point has only its strong generators as Schreier
        generators, and they are checked at the next level."""
        i = len(self.base) - 1
        while i >= 0:
            found = len(self.tree[i]) > 1 and self._schreier_residue(i)
            if found:
                i = self._add_strong(found, i + 1)
            else:
                i -= 1
        return self

    def order(self, start: int = 0) -> int:
        """The order of G_start: the product of the orbit lengths."""
        return prod(len(tree) for tree in self.tree[start:])

    def __contains__(self, g: tuple) -> bool:
        return self.sift(g) == self.identity

    def elements(self, start: int = 0) -> list:
        """Every element of G_start, once: an element of G_i is one stored
        inverse of level i followed by an element of G_i+1.  Only
        ``GroupByGenerators.elements`` calls this.  A level with one orbit
        point, such as every level of the trivial group, is skipped."""
        out = [self.identity]
        for i in range(start, len(self.base)):
            if len(self.tree[i]) == 1:
                continue
            invs = [self.transversal(i, c) for c in self.tree[i]]
            out = [_mul(h, u_inv) for h in out for u_inv in invs]
        return out
