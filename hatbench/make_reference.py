"""Write symmetry_reference.json: the instances the ``symmetry`` workload
draws from, with their answers from the oracles in ``instances.py``.

    python3 hatbench/make_reference.py

Each rung holds the labellings of one graph that its parameter admits: q,
-q, 1/q and -1/q for Xo(m, r; q), d, -d, 1/d and -1/d for Circ_n(1, d), and
every (q, t) of Xe(6, 40) isomorphic to the first.  The seed therefore
changes the input files but not the graph, so every seed asks for the same
amount of work; answers, and so costs, of different graphs on one rung can
differ severalfold.  A circulant base is the first unit d whose graph has
|Aut| = 2n, the common case.
"""

from __future__ import annotations

import json
import sys
from math import gcd
from pathlib import Path

import instances as inst

OUT = Path(__file__).resolve().parent / "symmetry_reference.json"

AUT_XO = ((3, 43), (3, 97), (6, 67), (4, 101))
AUT_XE = (6, 40)
# 13 requests a pass: with an odd count the median latency falls inside
# one request's samples, not between two requests of different cost.
AUT_CIRCULANTS = (200, 300, 400)
ISO_XO = ((3, 91), (6, 67))
NONISO_XO = (3, 91)
ISO_CIRCULANT = 400
NONISO_CIRCULANT = 300


def aut_facts(spec):
    order, arc_transitive = inst.vt_automorphism_facts(*inst.graph_of(spec))
    return {"order": order, "arc_transitive": arc_transitive}


def isomorphic(a, b):
    return inst.vt_isomorphic(*inst.graph_of(a), *inst.graph_of(b))


def xo_class(m, r, k):
    """Labellings of the k-th smallest Xo(m, r; q) up to q -> +-q^(+-1)."""
    qs = inst.xo_params(m, r)
    bases = sorted({min(q, r - q, pow(q, -1, r), r - pow(q, -1, r))
                    for q in qs})
    q0 = bases[k]
    return [f"xo:{m},{r},{q}" for q in qs
            if q in (q0, r - q0, pow(q0, -1, r), r - pow(q0, -1, r))]


def circulant_class(n, k):
    """Labellings of the k-th unit d >= 2 whose Circ_n(1, d) has
    |Aut| = 2n, up to d -> +-d^(+-1)."""
    seen = set()
    for d in range(2, n // 2):
        if gcd(d, n) != 1 or d in seen:
            continue
        same = {d, n - d, pow(d, -1, n), n - pow(d, -1, n)}
        seen |= same
        if aut_facts(f"circ:{n}:1,{d}")["order"] != 2 * n:
            continue
        if k == 0:
            return [f"circ:{n}:1,{e}" for e in sorted(same)]
        k -= 1
    raise ValueError(f"too few circulants on {n} vertices")


def pairs(specs_a, specs_b, same):
    """Unordered pairs of different edge sets, with the expected verdict."""
    out = []
    for a in specs_a:
        for b in specs_b:
            if [b, a, same] not in out and inst.graph_of(a) != inst.graph_of(b):
                out.append([a, b, same])
    return out


def main():
    aut, iso = {}, {}
    for m, r in AUT_XO:
        aut[f"xo-{m}-{r}"] = xo_class(m, r, 0)
    m, r = AUT_XE
    xe = [f"xe:{m},{r},{q},{t}" for q, t in inst.xe_params(m, r)]
    aut[f"xe-{m}-{r}"] = [s for s in xe if isomorphic(xe[0], s)]
    for n in AUT_CIRCULANTS:
        aut[f"circ-{n}"] = circulant_class(n, 0)
    for rung, specs in aut.items():
        aut[rung] = {s: aut_facts(s) for s in specs}
        print(f"{rung}: {sorted(aut[rung])}", file=sys.stderr)

    for m, r in ISO_XO:
        cls = xo_class(m, r, 0)
        iso[f"xo-{m}-{r}-iso"] = pairs(cls, cls, True)
    m, r = NONISO_XO
    iso[f"xo-{m}-{r}-noniso"] = pairs(xo_class(m, r, 0), xo_class(m, r, 1),
                                      False)
    cls = circulant_class(ISO_CIRCULANT, 0)
    iso[f"circ-{ISO_CIRCULANT}-iso"] = pairs(cls, cls, True)
    iso[f"circ-{NONISO_CIRCULANT}-noniso"] = pairs(
        circulant_class(NONISO_CIRCULANT, 0),
        circulant_class(NONISO_CIRCULANT, 1), False)
    for rung, found in iso.items():
        wrong = [p for p in found if isomorphic(p[0], p[1]) != p[2]]
        if wrong or not found:
            raise SystemExit(f"{rung}: the oracle contradicts {wrong}")
        print(f"{rung}: {len(found)} pairs", file=sys.stderr)
    OUT.write_text(json.dumps({"aut": aut, "iso": iso}, indent=1,
                              sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
