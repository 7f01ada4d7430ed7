"""Parametric graph families with canonical half-arc-transitive generator
sets.

Vertex flattening for the layered families: vertex (i, j) with i a layer
index mod m and j a position mod r is flattened as i*r + j.  Canonical
generators are the position rotation rho: (i, j) -> (i, j+1), the layer
shift sigma: (i, j) -> (i+1, q*j) (with a t-shifted wraparound in the even
family) and the position reflection w: (i, j) -> (i, -j + c_i).

The builders return their generators unchecked: ``certify_hat``, which
every ``Analysis`` runs before it reads a group and ``hatkit construct``
runs before it writes one, proves them automorphisms during its arc-orbit
walk, so a construction fault is a NotAutomorphismError of its own
instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import (
    ContainsZeroError,
    InvalidParamsError,
    NoSolutionError,
    NotInverseClosedError,
)
from .graphcore import Graph, build_graph
from .perm import GroupByGenerators, Permutation


@dataclass(frozen=True)
class XoParams:
    """Odd-radius family parameters: m >= 3, odd r >= 3, q a unit mod r
    with q^m = +-1 (mod r)."""

    m: int
    r: int
    q: int

    def validate(self):
        if self.m < 3:
            raise InvalidParamsError(f"m = {self.m} < 3")
        if self.r < 3 or self.r % 2 == 0:
            raise InvalidParamsError(f"r = {self.r} must be odd and >= 3")
        if gcd(self.q % self.r, self.r) != 1:
            raise InvalidParamsError(f"q = {self.q} is not a unit mod {self.r}")
        if pow(self.q, self.m, self.r) not in (1 % self.r, (-1) % self.r):
            raise InvalidParamsError(
                f"q^m = {pow(self.q, self.m, self.r)} != +-1 (mod {self.r})")

    def __str__(self):
        return f"Xo({self.m},{self.r};{self.q})"


@dataclass(frozen=True)
class XeParams:
    """Even-radius family parameters: even m >= 4, r >= 4, q a unit mod r
    and t in Z_r with q^m = 1, t(q-1) = 0 and 1 + q + ... + q^(m-1) + 2t = 0
    (all mod r)."""

    m: int
    r: int
    q: int
    t: int

    def validate(self):
        if self.m < 4 or self.m % 2 != 0:
            raise InvalidParamsError(f"m = {self.m} must be even and >= 4")
        if self.r < 4:
            raise InvalidParamsError(f"r = {self.r} < 4")
        if gcd(self.q % self.r, self.r) != 1:
            raise InvalidParamsError(f"q = {self.q} is not a unit mod {self.r}")
        if pow(self.q, self.m, self.r) != 1 % self.r:
            raise InvalidParamsError("q^m != 1 (mod r)")
        if (self.t * (self.q - 1)) % self.r != 0:
            raise InvalidParamsError("t(q-1) != 0 (mod r)")
        if (geometric_sum(self.q, self.m, self.r) + 2 * self.t) % self.r != 0:
            raise InvalidParamsError("1 + q + ... + q^(m-1) + 2t != 0 (mod r)")

    def __str__(self):
        return f"Xe({self.m},{self.r};{self.q},{self.t})"


def geometric_sum(q: int, m: int, r: int) -> int:
    """1 + q + ... + q^(m-1) mod r."""
    total = 0
    power = 1
    for _ in range(m):
        total = (total + power) % r
        power = (power * q) % r
    return total


def build_xo(p: XoParams):
    """Build the odd-radius tightly attached family member together with its
    canonical half-arc-transitive group.  Returns (Graph, GroupByGenerators)."""
    p.validate()
    m, r, q = p.m, p.r, p.q
    layers = [(i * r, (i + 1) % m * r) for i in range(m)]  # (base, next)
    edges = []
    qi = 1
    for base, nxt in layers:
        for j in range(r):
            edges += [(base + j, nxt + (j + qi) % r),
                      (base + j, nxt + (j - qi) % r)]
        qi = (qi * q) % r
    graph = build_graph(m * r, edges)
    rho = [base + (j + 1) % r for base, _ in layers for j in range(r)]
    sigma = [nxt + q * j % r for _, nxt in layers for j in range(r)]
    w = [base + -j % r for base, _ in layers for j in range(r)]
    gens = [Permutation(tuple(images)) for images in (rho, sigma, w)]
    return graph, GroupByGenerators(tuple(gens), degree=graph.n)


def build_xe(p: XeParams):
    """Build the even-radius tightly attached family member together with its
    canonical half-arc-transitive group.  Returns (Graph, GroupByGenerators)."""
    p.validate()
    m, r, q, t = p.m, p.r, p.q, p.t
    # (layer base, next layer base, wraparound shift) per layer
    layers = [(i * r, (i + 1) % m * r, t if i == m - 1 else 0)
              for i in range(m)]
    edges = []
    qi = 1
    for base, nxt, shift in layers:
        for j in range(r):
            edges += [(base + j, nxt + (j + shift) % r),
                      (base + j, nxt + (j + qi + shift) % r)]
        qi = (qi * q) % r
    graph = build_graph(m * r, edges)

    # c_i = 1 + q + ... + q^(i-1); the constraint 1 + ... + q^(m-1) + 2t = 0
    # makes the reflection below wrap correctly at layer m-1
    c = [geometric_sum(q, i, r) for i in range(m)]
    rho = [base + (j + 1) % r for base, _, _ in layers for j in range(r)]
    sigma = [nxt + (q * j + shift) % r
             for _, nxt, shift in layers for j in range(r)]
    w = [base + (ci - j) % r
         for (base, _, _), ci in zip(layers, c) for j in range(r)]
    gens = [Permutation(tuple(images)) for images in (rho, sigma, w)]
    return graph, GroupByGenerators(tuple(gens), degree=graph.n)


def build_circulant(n: int, connection) -> Graph:
    """Circ_n(S): i ~ j iff j - i in S; n >= 1, S must be inverse-closed,
    0 not in S."""
    if n < 1:
        raise InvalidParamsError(f"circulant needs n >= 1, got {n}")
    s = {x % n for x in connection}
    if 0 in s:
        raise ContainsZeroError("connection set contains 0")
    if any((-x) % n not in s for x in s):
        raise NotInverseClosedError(f"connection set {sorted(s)} not inverse-closed")
    edges = set()
    for i in range(n):
        for d in s:
            edges.add(tuple(sorted((i, (i + d) % n))))
    return build_graph(n, sorted(edges))


def build_wreath(n: int) -> Graph:
    """Wreath graph C_n[2K_1]: vertex (i, eps) flattened as 2i + eps,
    (i, *) ~ (i+1, *) for all four choices."""
    if n < 3:
        raise InvalidParamsError(f"wreath graph needs n >= 3, got {n}")
    edges = []
    for i in range(n):
        for e1 in (0, 1):
            for e2 in (0, 1):
                edges.append(tuple(sorted((2 * i + e1, 2 * ((i + 1) % n) + e2))))
    return build_graph(2 * n, sorted(set(edges)))


def wreath_hat_group(n: int) -> GroupByGenerators:
    """The radius-2 tightly attached half-arc-transitive group on C_n[2K_1]:
    generated by the cyclic rotation and a single-fiber swap.  All elements
    send fiber i into fiber i+k for a fixed k, so no element reverses the
    fiber direction and the action is never arc-transitive."""
    if n < 3:
        raise InvalidParamsError(f"wreath graph needs n >= 3, got {n}")

    def rot(x):
        i, e = divmod(x, 2)
        return 2 * ((i + 1) % n) + e

    def swap0(x):
        i, e = divmod(x, 2)
        return 2 * i + (1 - e) if i == 0 else x

    gens = [Permutation.from_mapping(2 * n, f) for f in (rot, swap0)]
    return GroupByGenerators(tuple(gens), degree=2 * n)


def build_cubic_arc_graph(delta: Graph, delta_group: GroupByGenerators):
    """Arc graph of a connected cubic graph: one vertex per arc of ``delta``,
    with (u,v) ~ (v,w) whenever w != u.  The companion group is the action of
    ``delta_group`` on arcs.

    When ``delta_group`` is transitive on the 2-arcs of ``delta`` this is a
    tetravalent half-arc-transitive pair with radius 3 and attachment
    number 2: the alternating 6-cycles are the arc-fans of the vertices of
    ``delta`` and two fans meet exactly in the two arcs of a shared edge.
    Automorphisms of ``delta`` can never reverse the induced orientation,
    which is defined combinatorially (head of one arc = tail of the next).
    """
    if not delta.is_regular(3):
        raise InvalidParamsError("arc-graph construction needs a cubic graph")
    delta.require_connected()
    arcs = sorted(delta.edges + tuple((v, u) for u, v in delta.edges))
    index = {a: k for k, a in enumerate(arcs)}
    edges = set()
    for (u, v) in arcs:
        for w in delta.adjacency[v]:
            if w != u:
                edges.add(tuple(sorted((index[(u, v)], index[(v, w)]))))
    graph = build_graph(len(arcs), sorted(edges))

    gens = []
    for g in delta_group.generators:
        images = [0] * len(arcs)
        for a, k in index.items():
            images[k] = index[(g(a[0]), g(a[1]))]
        gens.append(Permutation(tuple(images)))
    return graph, GroupByGenerators(tuple(gens), degree=graph.n)


def special_circulant_k44():
    """Circ_8({+-1, +-3}) (= K_{4,4}) with the order-16 group generated by
    x -> x+1 and x -> 3x.  The pair is half-arc-transitive with a = 2r:
    exactly two alternating cycles, each Hamilton."""
    graph = build_circulant(8, {1, -1, 3, -3})
    rot = Permutation.from_mapping(8, lambda x: (x + 1) % 8)
    mul = Permutation.from_mapping(8, lambda x: (3 * x) % 8)
    return graph, GroupByGenerators((rot, mul), degree=8)


def valid_xo_params(m: int, r: int) -> list:
    """All q giving valid odd-radius parameters for this (m, r), in
    increasing order: the units q with q^m = +-1 (mod r)."""
    if r < 3 or r % 2 == 0 or m < 3:
        return []
    return [XoParams(m, r, q) for q in range(1, r)
            if gcd(q, r) == 1 and pow(q, m, r) in (1, r - 1)]


def valid_xe_params(m: int, r: int) -> list:
    """All (q, t) giving valid even-radius parameters for this (m, r), by
    q, then t: for each unit q with q^m = 1, the solutions t of
    2t = -(1 + q + ... + q^(m-1)) (mod r), one for odd r and none or two
    for even r, that satisfy t(q-1) = 0."""
    out = []
    if r < 4 or m < 4 or m % 2 != 0:
        return out
    for q in range(1, r):
        if gcd(q, r) != 1 or pow(q, m, r) != 1:
            continue
        twice = -geometric_sum(q, m, r) % r  # 2t, mod r
        if r % 2:
            ts = (twice * (r + 1) // 2 % r,)
        elif twice % 2:
            continue
        else:
            ts = (twice // 2, twice // 2 + r // 2)
        out.extend(XeParams(m, r, q, t) for t in ts if t * (q - 1) % r == 0)
    return out


def reconstruct_from_invariants(order: int, r: int, q: int) -> list:
    """Candidate tightly attached parameter sets for a graph of the given
    order with radius r and alternating jump q: the unique odd-radius set,
    or up to two even-radius sets differing in t."""
    if r < 3:
        raise NoSolutionError(f"radius {r} < 3")
    if order % r != 0:
        raise NoSolutionError(f"radius {r} does not divide order {order}")
    m = order // r
    candidates = []
    if r % 2 == 1:
        p = XoParams(m, r, q)
        try:
            p.validate()
        except InvalidParamsError as exc:
            raise NoSolutionError(str(exc))
        candidates.append(p)
    else:
        for t in range(r):
            p = XeParams(m, r, q, t)
            try:
                p.validate()
            except InvalidParamsError:
                continue
            candidates.append(p)
        if not candidates:
            raise NoSolutionError(
                f"no valid t for order {order}, r = {r}, q = {q}")
    return candidates
