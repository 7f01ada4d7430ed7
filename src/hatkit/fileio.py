"""File formats: edge-list text, graph6/sparse6 input, permutation JSON
bundles, DOT export.

Edge-list format: first line ``n m``, then m lines ``u v``.
Bundle JSON: {"n": ..., "edges": [[u, v], ...], "generators": [[...], ...],
"params": {...}} with generators/params optional.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Optional, Tuple

from .errors import BadPermutationError, ParseError
from .graphcore import Graph, build_graph
from .perm import GroupByGenerators, Permutation


# -- edge lists ----------------------------------------------------------------

def parse_edgelist(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty edge-list file")
    try:
        n, m = (int(tok) for tok in lines[0].split())
    except ValueError:
        raise ParseError(f"bad header {lines[0]!r}", line=1)
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    k = 1  # the number of the line being read, left at a bad one
    try:
        edges = [(int(u), int(v)) for ln in lines[1:] if (k := k + 1)
                 for u, v in [ln.split()]]
    except ValueError:
        raise ParseError(f"bad edge line {lines[k - 1]!r}", line=k)
    return build_graph(n, edges)


def format_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# -- graph6 / sparse6 ----------------------------------------------------------

def _g6_decode_size(data: bytes) -> Tuple[int, bytes]:
    if not data:
        raise ParseError("empty graph6 string")
    if data[0] != 126:
        return data[0] - 63, data[1:]
    if len(data) < 4:
        raise ParseError("truncated graph6 size")
    if data[1] == 126:
        raise ParseError("graph6 sizes above 258047 are unsupported")
    n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
    return n, data[4:]


def _six_bits(body: bytes, fmt: str) -> list:
    """The bits of a graph6 or sparse6 body, six per byte, high bit first."""
    bits = []
    for byte in body:
        if not 63 <= byte <= 126:
            raise ParseError(f"invalid {fmt} byte {byte}")
        bits.extend(((byte - 63) >> k) & 1 for k in range(5, -1, -1))
    return bits


def graph6_decode(s: str) -> Graph:
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if s.startswith((">>sparse6<<", ":")):
        return sparse6_decode(s)
    data = s.encode("ascii")
    n, rest = _g6_decode_size(data)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(rest) < need:
        raise ParseError(f"truncated graph6 body: need {need} bytes, got {len(rest)}")
    bits = _six_bits(rest[:need], "graph6")
    edges = []
    k = 0
    for v in range(n):
        for u in range(v):
            if bits[k]:
                edges.append((u, v))
            k += 1
    return build_graph(n, edges)


def sparse6_decode(s: str) -> Graph:
    """Decode the sparse6 format (':'-prefixed strings)."""
    s = s.strip()
    if s.startswith(">>sparse6<<"):
        s = s[len(">>sparse6<<"):]
    if not s.startswith(":"):
        raise ParseError("sparse6 strings start with ':'")
    data = s[1:].encode("ascii")
    n, rest = _g6_decode_size(data)
    k = max(1, (n - 1).bit_length())
    bits = _six_bits(rest, "sparse6")
    edges = []
    v = 0
    pos = 0
    while pos + 1 + k <= len(bits):
        b = bits[pos]
        x = 0
        for i in range(pos + 1, pos + 1 + k):
            x = (x << 1) | bits[i]
        pos += 1 + k
        if b:
            v += 1
        if x >= n or v >= n:
            break
        if x > v:
            v = x
        else:  # build_graph rejects the loops and repeated edges of sparse6
            edges.append((x, v))
    return build_graph(n, edges)


# -- permutations and bundles --------------------------------------------------

def bundle_to_json(g: Graph, group: Optional[GroupByGenerators] = None,
                   params: Optional[dict] = None) -> str:
    doc = {"n": g.n, "edges": [list(e) for e in g.edges]}
    if group is not None:
        doc["generators"] = [list(p.images) for p in group.generators]
    if params:
        doc["params"] = params
    return json.dumps(doc, indent=2, sort_keys=True)


def bundle_from_json(text: str):
    """Returns (Graph, Optional[GroupByGenerators], params dict)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad bundle JSON: {exc}")
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise ParseError("bundle JSON needs 'n' and 'edges'")
    edges = doc["edges"]
    # json.loads makes exact types, so each check is a set of types
    if not (type(doc["n"]) is int and type(edges) is list
            and set(map(type, edges)) <= {list}
            and set(map(len, edges)) <= {2}
            and set(map(type, chain.from_iterable(edges))) <= {int}):
        raise ParseError("bundle 'n' must be an integer and 'edges' a list "
                         "of integer pairs")
    g = build_graph(doc["n"], [tuple(e) for e in edges])
    group = None
    if "generators" in doc:
        if not isinstance(doc["generators"], list):
            raise ParseError("bundle 'generators' must be a list")
        gens = []
        for images in doc["generators"]:
            if not (type(images) is list and set(map(type, images)) <= {int}):
                raise BadPermutationError(
                    f"generator {images!r} is not a list of integers")
            if len(images) != g.n:
                raise BadPermutationError(
                    f"generator degree {len(images)} != n = {g.n}")
            gens.append(Permutation(tuple(images)))
        group = GroupByGenerators(tuple(gens), degree=g.n)
    return g, group, doc.get("params", {})


# -- DOT export ----------------------------------------------------------------

def to_dot(g: Graph) -> str:
    lines = ["graph G {"]
    lines.extend(f"  {v};" for v in range(g.n))
    lines.extend(f"  {u} -- {v};" for u, v in g.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
