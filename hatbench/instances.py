"""Instance generators and independent oracles for the benchmark.

The graphs are built here from their published definitions, not through
``hatkit.constructions``, so the program under test receives only generated
input files and its answers are checked against code it does not share.

Vertex labels follow hatkit's documented flattening: vertex (i, j) of a
layered graph is ``i*r + j``, vertex (i, e) of a wreath graph is ``2i + e``
and circulant vertices are residues mod n.
"""

from __future__ import annotations

import json
from math import gcd


# -- graphs --------------------------------------------------------------------

def _edge(u, v):
    return (u, v) if u < v else (v, u)


def xo_edges(m, r, q):
    """Odd-radius family: (i, j) ~ (i+1, j +- q^i)."""
    edges = set()
    qi = 1
    for i in range(m):
        for j in range(r):
            for s in (qi, -qi):
                edges.add(_edge(i * r + j, ((i + 1) % m) * r + (j + s) % r))
        qi = qi * q % r
    return sorted(edges)


def xe_edges(m, r, q, t):
    """Even-radius family: (i, j) ~ (i+1, j + c) and (i+1, j + q^i + c),
    with c = t on the wrap-around layer and 0 elsewhere."""
    edges = set()
    qi = 1
    for i in range(m):
        c = t if i == m - 1 else 0
        for j in range(r):
            for s in (0, qi):
                edges.add(_edge(i * r + j, ((i + 1) % m) * r + (j + s + c) % r))
        qi = qi * q % r
    return sorted(edges)


def circulant_edges(n, d):
    """Circ_n({+-1, +-d})."""
    return sorted({_edge(i, (i + s) % n) for i in range(n) for s in (1, d)})


def wreath_edges(n):
    """C_n[2K_1]: (i, *) ~ (i+1, *)."""
    return sorted({_edge(2 * i + e, 2 * ((i + 1) % n) + f)
                   for i in range(n) for e in (0, 1) for f in (0, 1)})


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


# -- groups --------------------------------------------------------------------

def xo_generators(m, r, q):
    """rho: (i, j) -> (i, j+1); sigma: (i, j) -> (i+1, qj); w: (i, j) -> (i, -j)."""
    def lay(i, j):
        return (i % m) * r + j % r
    pts = [divmod(x, r) for x in range(m * r)]
    return [[lay(i, j + 1) for i, j in pts],
            [lay(i + 1, q * j) for i, j in pts],
            [lay(i, -j) for i, j in pts]]


def xe_generators(m, r, q, t):
    """As for the odd family, with the t-shifted wrap-around in sigma and
    w: (i, j) -> (i, c_i - j), c_i = 1 + q + ... + q^(i-1)."""
    def lay(i, j):
        return (i % m) * r + j % r
    c = [sum(pow(q, k, r) for k in range(i)) % r for i in range(m)]
    pts = [divmod(x, r) for x in range(m * r)]
    return [[lay(i, j + 1) for i, j in pts],
            [lay(i + 1, q * j + (t if i == m - 1 else 0)) for i, j in pts],
            [lay(i, c[i] - j) for i, j in pts]]


def wreath_generators(n):
    """Rotation of the fibres, and the swap inside fibre 0."""
    rot = [2 * ((x // 2 + 1) % n) + x % 2 for x in range(2 * n)]
    swap0 = [1, 0] + list(range(2, 2 * n))
    return [rot, swap0]


def _cubic_seeds():
    """Cubic 2-arc-transitive graphs with generators of their full
    automorphism groups: (n, edges, generators)."""
    k4 = (4, [(i, j) for i in range(4) for j in range(i + 1, 4)],
          [[1, 0, 2, 3], [1, 2, 3, 0]])
    k33 = (6, [(i, j) for i in range(3) for j in range(3, 6)],
           [[1, 0, 2, 3, 4, 5], [1, 2, 0, 3, 4, 5], [3, 4, 5, 0, 1, 2]])
    cube = (8, [(x, x ^ b) for x in range(8) for b in (1, 2, 4) if x < x ^ b],
            [[x ^ 1 for x in range(8)],
             [((x << 1) | (x >> 2)) & 7 for x in range(8)],
             [(x & 4) | ((x & 1) << 1) | ((x & 2) >> 1) for x in range(8)]])
    # Petersen graph as the Kneser graph K(5, 2); S5 acts on the 2-subsets.
    pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    index = {p: k for k, p in enumerate(pairs)}

    def induced(perm):
        return [index[tuple(sorted((perm[a], perm[b])))] for a, b in pairs]
    petersen = (10, [(index[p], index[s]) for p in pairs for s in pairs
                     if index[p] < index[s] and not set(p) & set(s)],
                [induced([1, 0, 2, 3, 4]), induced([1, 2, 3, 4, 0])])
    return {"K4": k4, "K33": k33, "cube": cube, "petersen": petersen}


CUBIC_SEEDS = tuple(_cubic_seeds())


def arc_graph(name):
    """Arc graph of a cubic seed, (u, v) ~ (v, w) for w != u, with the
    seed's automorphism group acting on arcs: (n, edges, generators)."""
    n, edges, gens = _cubic_seeds()[name]
    adj = adjacency(n, edges)
    arcs = sorted((u, v) for u in range(n) for v in adj[u])
    index = {a: k for k, a in enumerate(arcs)}
    arc_edges = sorted({_edge(index[(u, v)], index[(v, w)])
                        for u, v in arcs for w in adj[v] if w != u})
    arc_gens = [[index[(g[u], g[v])] for u, v in arcs] for g in gens]
    return len(arcs), arc_edges, arc_gens


def graph_of(spec):
    """(n, edges) for ``xo:M,R,Q``, ``xe:M,R,Q,T`` or ``circ:N:1,D``."""
    family, _, rest = spec.partition(":")
    if family == "xo":
        m, r, q = (int(x) for x in rest.split(","))
        return m * r, xo_edges(m, r, q)
    if family == "xe":
        m, r, q, t = (int(x) for x in rest.split(","))
        return m * r, xe_edges(m, r, q, t)
    if family == "circ":
        n, conn = rest.split(":")
        one, d = (int(x) for x in conn.split(","))
        if one != 1:
            raise ValueError(f"circulants are written circ:N:1,D, got {spec!r}")
        return int(n), circulant_edges(int(n), d)
    raise ValueError(f"unknown instance {spec!r}")


# -- parameters ----------------------------------------------------------------

def xo_params(m, r):
    """q in 2..r-2 with q a unit mod r and q^m = +-1 (mod r)."""
    return [q for q in range(2, r - 1)
            if gcd(q, r) == 1 and pow(q, m, r) in (1, r - 1)]


def xe_params(m, r):
    """(q, t) with q a unit, q^m = 1, t(q-1) = 0 and
    1 + q + ... + q^(m-1) + 2t = 0, all mod r."""
    out = []
    for q in range(1, r):
        if gcd(q, r) != 1 or pow(q, m, r) != 1:
            continue
        geo = sum(pow(q, k, r) for k in range(m)) % r
        out.extend((q, t) for t in range(r)
                   if t * (q - 1) % r == 0 and (geo + 2 * t) % r == 0)
    return out


# -- files ---------------------------------------------------------------------

def bundle_json(n, edges, generators):
    """hatkit's bundle-JSON format: {"n", "edges", "generators"}."""
    return json.dumps({"n": n, "edges": [list(e) for e in edges],
                       "generators": generators})


def edgelist_text(n, edges):
    """hatkit's edge-list format: a header ``n m``, then one ``u v`` per line."""
    return "\n".join([f"{n} {len(edges)}"]
                     + [f"{u} {v}" for u, v in edges]) + "\n"


# -- oracles -------------------------------------------------------------------

def _rooted_colours(adj1, adj2):
    """Colour refinement of both graphs with vertex 0 individualised, using
    one shared colour table; None when the colour counts differ, which
    proves that no isomorphism sends 0 to 0."""
    colours = [[int(v == 0) for v in range(len(adj))] for adj in (adj1, adj2)]
    while True:
        table = {}
        refined = [[table.setdefault(
            (col[v], tuple(sorted(col[w] for w in adj[v]))), len(table))
            for v in range(len(adj))]
            for col, adj in zip(colours, (adj1, adj2))]
        if sorted(refined[0]) != sorted(refined[1]):
            return None
        if len(set(refined[0])) == len(set(colours[0])):
            return refined
        colours = refined


def _isomorphisms(adj1, adj2, first_only):
    """Isomorphisms from graph 1 to graph 2 that send vertex 0 to vertex 0,
    found by extending along a breadth-first order of graph 1.  A candidate
    image must have the vertex's refined colour and keep adjacency and
    non-adjacency with every vertex already placed.  Both graphs must be
    connected."""
    n = len(adj1)
    if len(adj2) != n:
        return []
    colours = _rooted_colours(adj1, adj2)
    if colours is None:
        return []
    col1, col2 = colours
    order, parent = [0], {0: None}
    for v in order:
        for w in sorted(adj1[v]):
            if w not in parent:
                parent[w] = v
                order.append(w)
    if len(order) != n:
        return []
    phi = [None] * n
    used = [False] * n
    found = []

    def extend(k):
        if k == n:
            found.append(list(phi))
            return first_only
        v = order[k]
        placed = [w for w in adj1[v] if phi[w] is not None]
        for c in sorted(adj2[phi[parent[v]]]):
            if used[c] or col2[c] != col1[v]:
                continue
            if any(phi[w] not in adj2[c] for w in placed):
                continue
            if sum(1 for x in adj2[c] if used[x]) != len(placed):
                continue
            phi[v], used[c] = c, True
            if extend(k + 1):
                return True
            phi[v], used[c] = None, False
        return False

    phi[0], used[0] = 0, True
    extend(1)
    return found


def vt_automorphism_facts(n, edges):
    """(|Aut|, arc-transitive) of a connected vertex-transitive graph:
    |Aut| = n * |Aut_0|, and Aut is arc-transitive iff Aut_0 is transitive
    on the neighbours of 0."""
    adj = adjacency(n, edges)
    stab = _isomorphisms(adj, adj, first_only=False)
    w = min(adj[0])
    return n * len(stab), {phi[w] for phi in stab} == adj[0]


def vt_isomorphic(n1, edges1, n2, edges2):
    """Isomorphism of two connected vertex-transitive graphs: by
    transitivity some isomorphism sends 0 to 0 if any exists."""
    if n1 != n2 or len(edges1) != len(edges2):
        return False
    return bool(_isomorphisms(adjacency(n1, edges1), adjacency(n2, edges2),
                              first_only=True))


def is_isomorphism(images, edges1, edges2):
    """True iff ``images`` is a bijection carrying edges1 onto edges2."""
    if sorted(images) != list(range(len(images))):
        return False
    mapped = {_edge(images[u], images[v]) for u, v in edges1}
    return mapped == set(edges2)
