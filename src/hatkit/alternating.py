"""Alternating cycles of an oriented tetravalent graph and the derived
numbers: radius, attachment number and sets, the jump pair {q_t, q_h} and
the alternating jump.

The jump parameters are computed from explicit cycle-position arithmetic,
so a group is only needed later, for kernels.  Cycles are normalized to
start at their least vertex with the lesser neighbor second, which makes
every index computation reproducible.  Each vertex's two cycles and its
positions on them are kept in vertex-indexed lists, from which the
structural checks, the attachment sets and the jump pair are read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress
from operator import add, contains, eq, mul, not_, sub
from typing import Dict, Optional, Tuple

from .constructions import build_circulant
from .errors import (
    AlternatingStructureError,
    NotCyclePreservingError,
    PreconditionFailedError,
    UnequalCycleLengthsError,
    WellDefinednessFailureError,
)
from .graphcore import Graph, OrientedGraph, build_graph, edge_key, is_automorphism
from .perm import Permutation


def alternating_cycles(og: OrientedGraph) -> list:
    """Decompose the edge set into alternating cycles, in order of their
    least edge.

    Traversal rule: from the tail of an arc go to its head, on to the
    other in-neighbour of that head, then to the other out-neighbour of
    that tail, and so on.  Every edge lies on exactly one alternating cycle.
    A vertex's two in- or out-neighbours sum to the same number, so the
    other one is that sum less the one just left.  A tail is the tail of
    both its arcs on its cycle, so a tail met twice is an edge walked
    twice.  A normalized cycle starts with the lesser end of its least
    edge and goes on to the other end, so sorting the normalized cycles
    sorts them by least edge.
    """
    out, n = og.out_neighbors, og.graph.n
    out_sum = list(map(sum, out))
    in_sum = list(map(sum, og.in_neighbors))
    met = bytearray(n)  # vertices met as a tail
    cycles = []
    for t0 in range(n):
        if met[t0]:
            continue
        met[t0] = 1
        t, h = t0, out[t0][0]
        h0, cycle = h, []
        while True:
            cycle += (t, h)
            t = in_sum[h] - t
            if met[t]:
                if t == t0 and out_sum[t] - h == h0:
                    break
                raise AlternatingStructureError(
                    f"edge {edge_key(t, h)} revisited during traversal")
            met[t] = 1
            h = out_sum[t] - h
        cycles.append(normalize_cycle(tuple(cycle)))
    return sorted(cycles)


def normalize_cycle(cycle: tuple) -> tuple:
    """Rotate to put the least vertex first; orient so the second vertex is
    the lesser of the two neighbors of the first."""
    i = cycle.index(min(cycle))
    rotated = cycle[i:] + cycle[:i]
    if rotated[-1] < rotated[1]:
        rotated = (rotated[0],) + tuple(reversed(rotated[1:]))
    return rotated


@dataclass(frozen=True)
class AltStructure:
    """The complete alternating-cycle structure of an oriented graph."""

    cycles: tuple  # tuple of cyclic vertex sequences, each of length 2r
    radius: int
    attachment: int
    ell: int  # 2r / a
    attachment_sets: tuple  # frozensets partitioning V, by least element
    q_t: int
    q_h: int
    jum: int
    # indexed by vertex: (tail cycle, tail position, head cycle, head
    # position), the cycle on which the vertex is the tail of both arcs,
    # and the other one
    roles: tuple = field(compare=False)

    @property
    def Q(self) -> frozenset:
        return frozenset({self.q_t, self.q_h})

    @cached_property
    def cycle_pairs(self) -> tuple:
        """The pairs (i, j), i < j, of cycles that meet, in order.  Two cycles
        meet in exactly one attachment set, so there is one pair per set."""
        return tuple(sorted(_pair(self.roles[min(s)])
                            for s in self.attachment_sets))

    @property
    def n(self) -> int:
        return sum(len(c) for c in self.cycles) // 2

    @property
    def attachment_kind(self) -> str:
        if self.attachment == 2 * self.radius:
            return "degenerate"
        if self.attachment == self.radius:
            return "tight"
        if self.attachment == 1:
            return "loose"
        if self.attachment == 2:
            return "antipodal"
        return "other"

    def summary(self) -> dict:
        return {
            "n": self.n,
            "r": self.radius,
            "a": self.attachment,
            "ell": self.ell,
            "Q": sorted(self.Q),
            "jum": self.jum,
            "attachment_kind": self.attachment_kind,
            "cycle_count": len(self.cycles),
        }


def _vertex_roles(og: OrientedGraph, cycles) -> tuple:
    """Vertex-indexed lists (tail cycle, tail position, head cycle, head
    position), the tail cycle being the one on which the vertex is the
    tail of both incident arcs.  Checks that each cycle alternates and
    that each vertex on the cycles is the tail on one and the head on
    another; a vertex on none keeps cycle -1.  The first fault met, in
    cycle and position order, is the one reported."""
    n, inn = og.graph.n, og.in_neighbors
    tail_cycle, tail_pos = [-1] * n, [0] * n
    head_cycle, head_pos = [-1] * n, [0] * n
    more_heads: Dict[int, list] = {}  # vertex -> cycles of its later heads
    for cid, cycle in enumerate(cycles):
        ins = list(map(inn.__getitem__, cycle))
        is_head = list(map(contains, ins, cycle[-1:] + cycle[:-1]))
        next_is_head = list(map(contains, ins, cycle[1:] + cycle[:1]))
        end = (len(cycle) if is_head == next_is_head
               else list(map(eq, is_head, next_is_head)).index(False))
        is_tail = list(map(not_, is_head[:end]))
        for v, pos in zip(compress(cycle, is_tail),
                          compress(range(end), is_tail)):
            if tail_cycle[v] >= 0:
                raise AlternatingStructureError(
                    f"vertex {v} is a double tail")
            tail_cycle[v], tail_pos[v] = cid, pos
        for v, pos in zip(compress(cycle, is_head),
                          compress(range(end), is_head)):
            if head_cycle[v] < 0:
                head_cycle[v], head_pos[v] = cid, pos
            else:
                more_heads.setdefault(v, []).append(cid)
        if end < len(cycle):
            raise AlternatingStructureError(
                f"cycle {cid} is not alternating at vertex {cycle[end]}")
    if (more_heads or -1 in tail_cycle or -1 in head_cycle
            or any(map(eq, tail_cycle, head_cycle))):
        # in order of first appearance
        for v in dict.fromkeys(chain.from_iterable(cycles)):
            on = [c for c in (tail_cycle[v], head_cycle[v]) if c >= 0]
            on += more_heads.get(v, [])
            if len(on) != 2 or on[0] == on[1]:
                raise AlternatingStructureError(
                    f"vertex {v} does not lie on exactly two alternating "
                    "cycles")
            if tail_cycle[v] < 0:
                raise AlternatingStructureError(f"vertex {v} is a double head")
    return tail_cycle, tail_pos, head_cycle, head_pos


def _pair(role: tuple) -> tuple:
    """The two cycles of a role, lesser first."""
    tc, _tp, hc, _hp = role
    return (tc, hc) if tc < hc else (hc, tc)


def _position(roles: tuple, v: int, cid: int) -> int:
    """The position of v on cid, which must be one of v's two cycles."""
    tc, tp, hc, hp = roles[v]
    return tp if tc == cid else hp


def _spacing_fault(cycles, roles: tuple, ell: int):
    """Raise for the first vertex, in order of first appearance, at which
    an attachment set is seen off its positions p0 + i*ell on one of its
    two cycles."""
    residues: Dict[tuple, int] = {}  # (cycle, other cycle) -> p0 mod ell
    for v in dict.fromkeys(chain.from_iterable(cycles)):
        tc, tp, hc, hp = roles[v]
        for cid, pos, other in ((tc, tp, hc), (hc, hp, tc)):
            if residues.setdefault((cid, other), pos % ell) != pos % ell:
                c1, c2 = sorted((cid, other))
                raise AlternatingStructureError(
                    f"attachment set of cycles {c1},{c2} not ell-spaced on {cid}")


def analyze(og: OrientedGraph) -> AltStructure:
    """Full alternating-cycle analysis of an oriented graph.

    Verifies the structural invariants the theory presupposes (equal cycle
    lengths, attachment sets at positions i*ell, base-vertex independence of
    the jump pair at every vertex) and raises diagnostics otherwise.

    One walk gives the cycles, and ``_vertex_roles`` their vertex-indexed
    roles.  Read along a cycle, the list of each vertex's other cycle is
    then ell-periodic exactly when every attachment set sits at positions
    p0 + i*ell on it: a set of a vertices fills one residue class mod ell,
    which has a positions.  So w = v +- ell on v's cycle lies on v's other
    cycle too, and the jump steps are read at every position of every
    cycle at once: from the position on the other cycle of each vertex,
    the step to v + ell is (x(v + ell) - x(v)) / ell mod a, and q at v is
    the least |step| to v + ell and from v - ell.  On a vertex's tail
    cycle that is its q_t, on its head cycle its q_h.
    """
    cycles = alternating_cycles(og)
    lengths = {len(c) for c in cycles}
    if len(lengths) != 1:
        raise UnequalCycleLengthsError(
            f"alternating cycle lengths {sorted(lengths)}; the orientation is "
            "not induced by any half-arc-transitive action")
    (length,) = lengths
    if length % 2 != 0:
        raise AlternatingStructureError(f"odd alternating cycle length {length}")
    radius = length // 2
    tail_cycle, tail_pos, head_cycle, head_pos = _vertex_roles(og, cycles)
    roles = tuple(zip(tail_cycle, tail_pos, head_cycle, head_pos))

    # every vertex lies on exactly two cycles, so the intersection of two
    # cycles is the set of vertices with that pair of cycles, named here by
    # its sum and product
    cycle_sum = list(map(add, tail_cycle, head_cycle))
    sizes = set(Counter(zip(cycle_sum, map(mul, tail_cycle,
                                           head_cycle))).values())
    if len(sizes) != 1:
        raise AlternatingStructureError(
            f"attachment set sizes differ: {sorted(sizes)}")
    (a,) = sizes
    if length % a != 0:
        raise AlternatingStructureError(
            f"attachment number {a} does not divide cycle length {length}")
    ell = length // a

    # half[d]: the least |i| with d = i*ell mod 2r, for d a multiple of ell
    half = [min(d, length - d) // ell for d in range(length)]
    pos_sum = list(map(add, tail_pos, head_pos))
    attachment_sets, gaps_of = [], []
    tail_jumps, head_jumps = set(), set()
    for cid, cycle in enumerate(cycles):
        other = list(map(cycle_sum.__getitem__, cycle))  # cid + other cycle
        if other[ell:] + other[:ell] != other:  # the Eq.-(1) spacing
            _spacing_fault(cycles, roles, ell)
        attachment_sets += [frozenset(cycle[p::ell]) for p in range(ell)
                            if other[p] > 2 * cid]
        # each vertex's position on its other cycle, and the attachment
        # steps between it and the vertex ell further on, up to sign
        across = list(map(sub, map(pos_sum.__getitem__, cycle),
                          range(length)))
        gaps = list(map(half.__getitem__,
                        map(sub, across[ell:] + across[:ell], across)))
        gaps_of.append(gaps)
        # the cycle alternates, so its tails are every other vertex
        first = 0 if tail_cycle[cycle[0]] == cid else 1
        before = gaps[-ell:] + gaps[:-ell]
        tail_jumps.update(zip(gaps[first::2], before[first::2]))
        head_jumps.update(zip(gaps[1 - first::2], before[1 - first::2]))

    def jump(cid, pos):
        return min(gaps_of[cid][pos], gaps_of[cid][pos - ell])

    q_t = jump(tail_cycle[0], tail_pos[0])
    q_h = jump(head_cycle[0], head_pos[0])
    if ({min(p) for p in tail_jumps} != {q_t}
            or {min(p) for p in head_jumps} != {q_h}):
        for v, (tc, tp, hc, hp) in enumerate(roles):
            if (jump(tc, tp), jump(hc, hp)) != (q_t, q_h):
                raise AlternatingStructureError(
                    f"jump parameters differ at vertex {v}")
    return AltStructure(
        cycles=tuple(cycles), radius=radius, attachment=a, ell=ell,
        attachment_sets=tuple(sorted(attachment_sets, key=min)),
        q_t=q_t, q_h=q_h, jum=min(q_t, q_h), roles=roles)


def min_r_jump(q: int, r: int) -> int:
    """min over {q, -q, q^-1, -q^-1} reduced into {0..r-1}."""
    qinv = pow(q, -1, r)
    return min(q % r, (-q) % r, qinv, (-qinv) % r)


def associated_circulant(s: AltStructure) -> Graph:
    """Circ_a({+-1, +-jum}); a one-vertex graph for a = 1 (loop disregarded)
    and a single edge for a = 2."""
    a = s.attachment
    if a == 1:
        return build_graph(1, [])
    if a == 2:
        return build_graph(2, [(0, 1)])
    conn = {1, -1, s.jum, -s.jum} if s.jum not in (0, 1) else {1, -1}
    return build_circulant(a, conn)


def check_mult_lemma(s: AltStructure):
    """Index identity between the two cycles through each vertex: with the
    cycles aligned so the first attachment steps match, the i-th attachment
    positions correspond under multiplication by q_t (resp. +-q_h).

    One vertex is tested per ordered pair (tail cycle, head cycle), the
    least.  The others with that pair are the vertices k*ell further along
    the tail cycle, and if v passes with sign e, the one k*ell along sits
    at e*k*q_t*ell along the head cycle, so its q_t identity is v's
    shifted by k and holds with the same sign.  Passing both identities
    makes q_t*q_h = +-1 mod a, so its q_h identity is v's shifted by
    e*k*q_t and holds too.  So the least failing vertex is still the
    witness.

    Returns (True, None), or (False, witness) -- the latter would contradict
    the theory and signals an implementation bug.
    """
    a, ell = s.attachment, s.ell
    if a == 1:
        return True, None
    length = 2 * s.radius
    tested = set()
    for v, (tc, tp, hc, hp) in enumerate(s.roles):
        if (tc, hc) in tested:
            continue
        tested.add((tc, hc))
        C, Cp = s.cycles[tc], s.cycles[hc]
        # reading both cycles backwards gives the same test, so only the
        # relative direction sign matters
        for X, x0, Y, y0, q, which in ((C, tp, Cp, hp, s.q_t, "q_t"),
                                       (Cp, hp, C, tp, s.q_h, "q_h")):
            if not any(all(X[(x0 + i * ell) % length]
                           == Y[(y0 + sign * i * q * ell) % length]
                           for i in range(a))
                       for sign in (1, -1)):
                return False, {"vertex": v, "which": which}
    return True, None


def antipodal_tau(og: OrientedGraph, s: AltStructure) -> Optional[Permutation]:
    """The map sending each vertex to its antipodal counterpart on both of
    its cycles; defined for a = 2 with even radius.  Returns None when the
    two antipodal images disagree or the map is not an automorphism."""
    if s.attachment != 2:
        raise PreconditionFailedError(f"attachment {s.attachment} != 2")
    if s.radius % 2 != 0:
        raise PreconditionFailedError(f"radius {s.radius} is odd")
    r = s.radius
    length = 2 * r
    images = []
    for tc, tp, hc, hp in s.roles:
        w1 = s.cycles[tc][(tp + r) % length]
        w2 = s.cycles[hc][(hp + r) % length]
        if w1 != w2:
            return None
        images.append(w1)
    tau = Permutation(tuple(images))
    if not is_automorphism(og.graph, tau):
        return None
    return tau


def rotation_profile(gamma: Permutation, s: AltStructure) -> dict:
    """Per-cycle action of a cycle-preserving permutation: a rotation step
    (in cycle positions) or a reflection tag.

    Raises NotCyclePreservingError if gamma moves some cycle off itself.
    """
    profile = {}
    length = 2 * s.radius
    for cid, cycle in enumerate(s.cycles):
        cset = frozenset(cycle)
        if frozenset(gamma(v) for v in cycle) != cset:
            raise NotCyclePreservingError(f"cycle {cid} not fixed setwise")
        images = [_position(s.roles, gamma(v), cid) for v in cycle]
        k = images[0]
        if all(p == (j + k) % length for j, p in enumerate(images)):
            profile[cid] = ("rotation", k)
        elif all(p == (k - j) % length for j, p in enumerate(images)):
            profile[cid] = ("reflection", k)
        else:
            raise NotCyclePreservingError(
                f"action on cycle {cid} is neither rotation nor reflection")
    return profile


def alt_bipartition(s: AltStructure) -> Optional[Tuple[frozenset, frozenset]]:
    """2-coloring of the alternating-cycle graph, or None if not bipartite."""
    nbrs: Dict[int, set] = {cid: set() for cid in range(len(s.cycles))}
    for i, j in s.cycle_pairs:
        nbrs[i].add(j)
        nbrs[j].add(i)
    color = {}
    for start in nbrs:
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            for y in nbrs[x]:
                if y not in color:
                    color[y] = 1 - color[x]
                    stack.append(y)
                elif color[y] == color[x]:
                    return None
    return (frozenset(c for c, col in color.items() if col == 0),
            frozenset(c for c, col in color.items() if col == 1))


def build_rho(og: OrientedGraph, s: AltStructure,
              gamma: Permutation) -> Permutation:
    """Square root of a double-step kernel rotation.

    Preconditions: a does not divide r, 4 < a < r, and jum = 1 or the
    alternating-cycle graph is bipartite; gamma must fix every cycle and act
    as a 2*ell-step rotation on at least one of them.  The returned rho
    satisfies rho^2 = gamma, is an automorphism fixing every alternating
    cycle, and reverses the orientation class.
    """
    a, r, ell, q = s.attachment, s.radius, s.ell, s.jum
    length = 2 * r
    if r % a == 0:
        raise PreconditionFailedError(f"a = {a} divides r = {r}")
    if not (4 < a < r):
        raise PreconditionFailedError(f"need 4 < a < r, got a = {a}, r = {r}")
    bipart = alt_bipartition(s)
    if q != 1 and bipart is None:
        raise PreconditionFailedError(
            "jum != 1 and the alternating-cycle graph is not bipartite")
    profile = rotation_profile(gamma, s)
    steps = {}
    for cid, (kind, k) in profile.items():
        if kind != "rotation":
            raise PreconditionFailedError(f"gamma reflects cycle {cid}")
        steps[cid] = k
    two_ell = {(2 * ell) % length, (-2 * ell) % length}
    two_q_ell = {(2 * q * ell) % length, (-2 * q * ell) % length}
    if not any(k in two_ell for k in steps.values()):
        raise PreconditionFailedError(
            "gamma is not a 2*ell-step rotation on any cycle")

    all_ids = set(range(len(s.cycles)))
    if q == 1:
        index_set = all_ids
    elif q != a // 2 - 1:
        index_set = {cid for cid, k in steps.items() if k in two_ell}
        if any(k not in two_ell | two_q_ell for k in steps.values()):
            raise PreconditionFailedError(
                "gamma steps outside {+-2*ell, +-2*q*ell}")
    else:
        # the two rotation classes coincide; take the bipartition class
        # containing the least-indexed cycle
        side0, side1 = bipart
        index_set = side0 if 0 in side0 else side1

    # relabel so gamma is a +2*ell (in I) or +2*q*ell (outside I) rotation
    oriented = {}
    for cid, cycle in enumerate(s.cycles):
        want = (2 * ell) % length if cid in index_set else (2 * q * ell) % length
        if steps[cid] == want:
            oriented[cid] = cycle
        elif (-steps[cid]) % length == want:
            oriented[cid] = (cycle[0],) + tuple(reversed(cycle[1:]))
        else:
            raise PreconditionFailedError(
                f"cycle {cid} rotation step {steps[cid]} fits neither class")

    shift = {cid: (ell if cid in index_set else q * ell) % length
             for cid in all_ids}
    images = {}
    for cid, cycle in oriented.items():
        k = shift[cid]
        for j, v in enumerate(cycle):
            w = cycle[(j + k) % length]
            if v in images and images[v] != w:
                raise WellDefinednessFailureError(
                    f"vertex {v} gets images {images[v]} and {w}")
            images[v] = w
    rho = Permutation(tuple(images[v] for v in range(og.graph.n)))

    if rho * rho != gamma:
        raise WellDefinednessFailureError("rho^2 != gamma")
    if not is_automorphism(og.graph, rho):
        raise WellDefinednessFailureError("rho is not an automorphism")
    for cycle in s.cycles:
        if frozenset(rho(v) for v in cycle) != frozenset(cycle):
            raise WellDefinednessFailureError("rho moves an alternating cycle")
    if og.is_preserved_by(rho):
        raise WellDefinednessFailureError("rho does not reverse the orientation")
    return rho
