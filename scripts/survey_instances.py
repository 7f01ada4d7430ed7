#!/usr/bin/env python3
"""Survey the default instance pool: one line of invariants per instance.

Usage: python3 scripts/survey_instances.py [extra-instance-files...]
"""

import sys

from hatkit.harness import GridConfig, instance_pool


def main():
    cfg = GridConfig(extra_files=tuple(sys.argv[1:]))
    print(f"{'instance':22} {'n':>4} {'r':>3} {'a':>3} {'Q':>8} "
          f"{'kind':>10} {'case':>4} {'kernel':>14}")
    for key, rec in instance_pool(cfg):
        if isinstance(rec, Exception):
            print(f"{key:22} error: {type(rec).__name__}: {rec}")
            continue
        s = rec.structure
        print(f"{key:22} {rec.graph.n:>4} {s.radius:>3} {s.attachment:>3} "
              f"{str(sorted(s.Q)):>8} {s.attachment_kind:>10} "
              f"{rec.kernel_case:>4} {str(rec.tags['K_alt']):>14}")


if __name__ == "__main__":
    main()
