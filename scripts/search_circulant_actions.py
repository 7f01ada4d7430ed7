#!/usr/bin/env python3
"""Search tetravalent circulants Circ_n({+-1, +-k}) with the natural
rotation-and-multiplier group for half-arc-transitive actions, grouped by
their (radius, attachment) type.

Observed outcome on the default range: every such action is either tightly
attached (a = r) or degenerate (a = 2r, exactly two alternating cycles);
no loosely or antipodally attached member turns up in this family.

Usage: python3 scripts/search_circulant_actions.py [max_n]
"""

import sys

from hatkit import alternating
from hatkit.constructions import build_circulant
from hatkit.errors import HatkitError
from hatkit.graphcore import certify_hat
from hatkit.perm import GroupByGenerators, Permutation


def scan(max_n: int):
    found = {}
    for n in range(5, max_n + 1):
        for k in range(2, n - 1):
            if (k * k) % n not in (1 % n, (-1) % n):
                continue
            if len({1, n - 1, k, n - k}) != 4:
                continue
            try:
                g = build_circulant(n, {1, -1, k, -k})
                if not g.is_connected:
                    continue
                rot = Permutation.from_mapping(n, lambda x: (x + 1) % n)
                mul = Permutation.from_mapping(n, lambda x: (k * x) % n)
                og = certify_hat(g, GroupByGenerators((rot, mul)))
                s = alternating.analyze(og)
            except HatkitError:
                continue
            key = (s.radius, s.attachment, s.attachment_kind)
            found.setdefault(key, []).append((n, k))
    return found


def main():
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 60
    found = scan(max_n)
    for (r, a, kind), instances in sorted(found.items()):
        head = ", ".join(f"Circ_{n}(1,{k})" for n, k in instances[:5])
        more = f" ... ({len(instances)} total)" if len(instances) > 5 else ""
        print(f"r={r:>3} a={a:>3} {kind:>10}: {head}{more}")


if __name__ == "__main__":
    main()
