"""Alternating cycles of an oriented tetravalent graph and the derived
numbers: radius, attachment number and sets, the jump pair {q_t, q_h} and
the alternating jump.

The jump parameters are computed from explicit cycle-position arithmetic,
so a group is only needed later, for kernels.  Cycles are normalized to
start at their least vertex with the lesser neighbor second, which makes
every index computation reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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
    """
    out, inn, n = og.out_neighbors, og.in_neighbors, og.graph.n
    used = set()  # arcs t*n + h already on a cycle
    cycles = []
    for u in range(n):
        for v in og.graph.adjacency[u]:
            if v < u:
                continue
            t, h = (u, v) if v in out[u] else (v, u)
            if t * n + h in used:
                continue
            t0, h0, cycle = t, h, []
            while True:
                cycle += (t, h)
                a, b = inn[h]
                t_next = b if a == t else a
                for arc in (t * n + h, t_next * n + h):
                    if arc in used:
                        raise AlternatingStructureError(
                            f"edge {edge_key(*divmod(arc, n))} revisited "
                            "during traversal")
                    used.add(arc)
                t = t_next
                a, b = out[t]
                h = b if a == h else a
                if t == t0 and h == h0:
                    break
            cycles.append(tuple(cycle))
    return [normalize_cycle(c) for c in cycles]


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
    # vertex -> (tail cycle, tail position, head cycle, head position): the
    # cycle on which the vertex is the tail of both arcs, and the other one
    roles: dict = field(compare=False)

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


def _vertex_roles(og: OrientedGraph, cycles) -> dict:
    """vertex -> (tail cycle, tail position, head cycle, head position),
    where the tail cycle is the one on which the vertex is the tail of
    both incident arcs."""
    arcs = og.arc_set
    tails = set()
    places: Dict[int, list] = {}  # vertex -> [(is head, cid, pos)]
    for cid, cycle in enumerate(cycles):
        last = len(cycle) - 1
        for pos, v in enumerate(cycle):
            is_head = (cycle[pos - 1], v) in arcs
            if is_head != ((cycle[pos - last], v) in arcs):
                raise AlternatingStructureError(
                    f"cycle {cid} is not alternating at vertex {v}")
            if not is_head:
                if v in tails:
                    raise AlternatingStructureError(
                        f"vertex {v} is a double tail")
                tails.add(v)
            places.setdefault(v, []).append((is_head, cid, pos))
    roles = {}
    for v, seen in places.items():
        if len(seen) != 2 or seen[0][1] == seen[1][1]:
            raise AlternatingStructureError(
                f"vertex {v} does not lie on exactly two alternating cycles")
        (first_is_head, c0, p0), (second_is_head, c1, p1) = seen
        if first_is_head and second_is_head:
            raise AlternatingStructureError(f"vertex {v} is a double head")
        roles[v] = (c1, p1, c0, p0) if first_is_head else (c0, p0, c1, p1)
    return roles


def _pair(role: tuple) -> tuple:
    """The two cycles of a role, lesser first."""
    tc, _tp, hc, _hp = role
    return (tc, hc) if tc < hc else (hc, tc)


def _position(roles: dict, v: int, cid: int) -> int:
    """The position of v on cid, which must be one of v's two cycles."""
    tc, tp, hc, hp = roles[v]
    return tp if tc == cid else hp


def _jump_at(cycles, roles, v, ell):
    """(q_t, q_h) measured at base vertex v.

    The attachment set of v's two cycles sits at every ell-th position of
    each, so the vertices at attachment index +-1 from v on its tail cycle
    lie on its head cycle too; q_t is the least |index| they have there,
    and q_h is the same with the two cycles swapped.
    """
    tc, tp, hc, hp = roles[v]
    return (_least_step(cycles[tc], tp, hc, hp, roles, ell, v),
            _least_step(cycles[hc], hp, tc, tp, roles, ell, v))


def _least_step(cycle, pos, other, other_pos, roles, ell, v):
    """The least |attachment index| on cycle ``other``, relative to v at
    ``other_pos``, of the two vertices ell positions from v on ``cycle``."""
    length = len(cycle)
    a = step = length // ell
    for w in (cycle[(pos + ell) % length], cycle[pos - ell]):
        wtc, wtp, whc, whp = roles[w]
        if wtc == other:
            i = (wtp - other_pos) % length // ell
        elif whc == other:
            i = (whp - other_pos) % length // ell
        else:
            raise AlternatingStructureError(
                f"jump parameters undefined at vertex {v}")
        step = min(step, i, a - i)
    return step


def analyze(og: OrientedGraph) -> AltStructure:
    """Full alternating-cycle analysis of an oriented graph.

    Verifies the structural invariants the theory presupposes (equal cycle
    lengths, attachment sets at positions i*ell, base-vertex independence of
    the jump pair at every vertex) and raises diagnostics otherwise.
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
    roles = _vertex_roles(og, cycles)

    # every vertex lies on exactly two cycles, so the intersection of two
    # cycles is the set of vertices with that pair of cycles
    att_sets: Dict[tuple, set] = {}
    for v, role in roles.items():
        att_sets.setdefault(_pair(role), set()).add(v)
    sizes = {len(s) for s in att_sets.values()}
    if len(sizes) != 1:
        raise AlternatingStructureError(
            f"attachment set sizes differ: {sorted(sizes)}")
    (a,) = sizes
    if (2 * radius) % a != 0:
        raise AlternatingStructureError(
            f"attachment number {a} does not divide cycle length {2 * radius}")
    ell = 2 * radius // a

    # Eq.-(1) spacing: on each of its two cycles an attachment set sits at
    # positions p0 + i*ell
    residues: Dict[tuple, int] = {}  # (cycle, other cycle) -> p0 mod ell
    for v, (tc, tp, hc, hp) in roles.items():
        for cid, pos, other in ((tc, tp, hc), (hc, hp, tc)):
            if residues.setdefault((cid, other), pos % ell) != pos % ell:
                c1, c2 = sorted((cid, other))
                raise AlternatingStructureError(
                    f"attachment set of cycles {c1},{c2} not ell-spaced on {cid}")

    attachment_sets = tuple(sorted(map(frozenset, att_sets.values()), key=min))
    vertices = sorted(roles)
    q_t, q_h = _jump_at(cycles, roles, vertices[0], ell)
    for v in vertices[1:]:
        if _jump_at(cycles, roles, v, ell) != (q_t, q_h):
            raise AlternatingStructureError(
                f"jump parameters differ at vertex {v}")
    return AltStructure(
        cycles=tuple(cycles), radius=radius, attachment=a, ell=ell,
        attachment_sets=attachment_sets, q_t=q_t, q_h=q_h,
        jum=min(q_t, q_h), roles=roles)


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

    Returns (True, None), or (False, witness) -- the latter would contradict
    the theory and signals an implementation bug.
    """
    a, ell = s.attachment, s.ell
    if a == 1:
        return True, None
    length = 2 * s.radius
    for v in sorted(s.roles):
        tc, tp, hc, hp = s.roles[v]
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
    images = {}
    for v, (tc, tp, hc, hp) in s.roles.items():
        w1 = s.cycles[tc][(tp + r) % length]
        w2 = s.cycles[hc][(hp + r) % length]
        if w1 != w2:
            return None
        images[v] = w1
    tau = Permutation(tuple(images[v] for v in range(og.graph.n)))
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
