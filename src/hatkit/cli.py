"""Command-line interface.

Instance specifiers accepted wherever a graph is expected:
  xo:M,R,Q          layered odd-radius family member (with its group)
  xe:M,R,Q,T        layered even-radius family member (with its group)
  wreath:N          doubled cycle with its radius-2 group
  circ:N:D1,D2,...  circulant (no group)
  path/to/file      edge-list (.txt), graph6 (.g6), bundle JSON (.json)

Exit codes: 0 ok, 2 parse/input error or unwritable output, 3 invalid
parameters, 4 the pair is not half-arc-transitive, 5 internal consistency
violation, 6 search budget exceeded, 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from functools import cache
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import autsearch, harness, quotients
from .constructions import (
    XeParams,
    XoParams,
    build_circulant,
    build_wreath,
    build_xe,
    build_xo,
    wreath_hat_group,
)
from .errors import (
    ArcTransitiveError,
    BadPermutationError,
    ContainsZeroError,
    DuplicateEdgeError,
    HatkitError,
    InconsistentError,
    InvalidParamsError,
    LoopEdgeError,
    NotAutomorphismError,
    NotEdgeTransitiveError,
    NotInverseClosedError,
    NotVertexTransitiveError,
    ParseError,
    SearchBudgetExceededError,
)
from .fileio import bundle_to_json, format_edgelist, to_dot
from .graphcore import certify_hat

_EXIT_CODES = (
    ((ParseError, ValueError, LoopEdgeError, DuplicateEdgeError,
      BadPermutationError, OSError), 2),
    ((InvalidParamsError, ContainsZeroError, NotInverseClosedError), 3),
    ((NotAutomorphismError, NotVertexTransitiveError,
      NotEdgeTransitiveError, ArcTransitiveError), 4),
    ((InconsistentError,), 5),
    ((SearchBudgetExceededError,), 6),
)


def parse_instance(spec: str):
    """Resolve an instance specifier to (graph, optional group, params)."""
    if spec.startswith("xo:"):
        m, r, q = (int(x) for x in spec[3:].split(","))
        p = XoParams(m, r, q)
        g, grp = build_xo(p)
        return g, grp, {"family": "xo", "m": m, "r": r, "q": q}
    if spec.startswith("xe:"):
        m, r, q, t = (int(x) for x in spec[3:].split(","))
        p = XeParams(m, r, q, t)
        g, grp = build_xe(p)
        return g, grp, {"family": "xe", "m": m, "r": r, "q": q, "t": t}
    if spec.startswith("wreath:"):
        n = int(spec[7:])
        return build_wreath(n), wreath_hat_group(n), {"family": "wreath",
                                                      "n": n}
    if spec.startswith("circ:"):
        n_part, d_part = spec[5:].split(":")
        n = int(n_part)
        ds = {int(x) for x in d_part.split(",")}
        return build_circulant(n, ds | {-d for d in ds}), None, {
            "family": "circulant", "n": n, "connection": sorted(ds)}
    if Path(spec).exists():
        g, grp = harness.ingest(spec)
        return g, grp, {"file": spec}
    raise ParseError(f"unrecognized instance specifier {spec!r}")


def _json_chunks(obj, digits, indent=""):
    """Yield ``obj`` as ``json.JSONEncoder(indent=2, sort_keys=True)``
    writes it, with a list of plain ints (not bools) in one chunk made by
    one ``join``.  ``digits[i]`` is ``str(i)``: a list of ints in
    ``range(len(digits))`` reads them from it, and a list of ints in
    ``range(len(list))``, such as a permutation's images, first extends
    it, so the table never holds more strings than the lists it spells."""
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError(f"keys must be str, int, float, bool or "
                                    f"None, not {type(key).__name__}")
                key = json.dumps(key)
            yield sep + encode_basestring_ascii(key) + ": "
            yield from _json_chunks(value, digits, inner)
            sep = ",\n" + inner
        yield "\n" + indent + "}"
    elif isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        inner = indent + "  "
        if all(type(x) is int for x in obj):
            top = max(obj)
            if min(obj) >= 0 and top < max(len(digits), len(obj)):
                digits.extend(map(str, range(len(digits), top + 1)))
                text = map(digits.__getitem__, obj)
            else:
                text = map(str, obj)
            yield ("[\n" + inner + (",\n" + inner).join(text)
                   + "\n" + indent + "]")
            return
        sep = "[\n" + inner
        for item in obj:
            yield sep
            yield from _json_chunks(item, digits, inner)
            sep = ",\n" + inner
        yield "\n" + indent + "]"
    elif isinstance(obj, str):
        yield encode_basestring_ascii(obj)
    elif type(obj) is int:
        yield str(obj)
    else:
        yield json.dumps(obj)  # bools, None, floats as the encoder writes them


def _write_json(doc, stream):
    """Write ``doc`` as indented JSON, chunk by chunk."""
    stream.writelines(_json_chunks(doc, []))


def _emit(doc, args):
    """Write ``doc`` as indented JSON to the ``-o`` file or to stdout."""
    output = getattr(args, "output", None)
    with open(output, "w") if output else nullcontext(sys.stdout) as stream:
        _write_json(doc, stream)
        stream.write("\n")


def _emit_graph(g, args, group=None, params=None):
    fmt = getattr(args, "format", "json")
    if fmt == "edgelist":
        text = format_edgelist(g)
    elif fmt == "dot":
        text = to_dot(g)
    else:
        text = bundle_to_json(g, group, params) + "\n"
    if getattr(args, "output", None):
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_construct(args):
    g, grp, params = parse_instance(args.spec)
    if params.get("family") in ("xo", "xe", "wreath"):
        certify_hat(g, grp)  # no library-built generator leaves unchecked
    _emit_graph(g, args, group=grp, params=params)


def cmd_analyze(args):
    g, grp, params = parse_instance(args.spec)
    if args.no_group:
        grp = None
    report = harness.analyze_instance(g, grp, with_aut=args.aut)
    report["instance"] = params
    _emit(report, args)


def _record(spec: str, what: str) -> quotients.Analysis:
    g, grp, _params = parse_instance(spec)
    if grp is None:
        raise ParseError(f"{what} analysis needs a group-carrying instance")
    return quotients.Analysis(g, grp)


def cmd_quotient(args):
    _emit(_record(args.spec, "quotient").pipeline, args)


def cmd_altgraph(args):
    rec = _record(args.spec, "alternating")
    _emit_graph(quotients.alt_graph(rec.structure), args)


def cmd_kernels(args):
    rec = _record(args.spec, "kernel")
    _emit({
        "orders": {k: v.order() for k, v in rec.kernels.items()},
        "structures": {k: str(tag) for k, tag in rec.tags.items()},
        "equal": rec.kernels_equal,
        "case": rec.kernel_case,
    }, args)


def cmd_iso(args):
    g1, _, _ = parse_instance(args.a)
    g2, _, _ = parse_instance(args.b)
    same, witness = autsearch.are_isomorphic(g1, g2)
    doc = {"isomorphic": same}
    if witness is not None:
        doc["witness"] = list(witness.images)
    _emit(doc, args)


def cmd_aut(args):
    g, _, _ = parse_instance(args.spec)
    aut = autsearch.automorphism_group(g)
    _emit({
        "order": aut.order(),
        "generators": [list(p.images) for p in aut.generators],
        "arc_transitive": aut.arc_transitive,
    }, args)


def cmd_verify(args):
    cfg = harness.GridConfig(extra_files=tuple(args.ingest or ()))
    names = args.suites or harness.SUITE_NAMES
    harness.check_suite_names(names)
    # opened before the run, so that an unwritable output fails at once
    with open(args.output, "w") if args.output else nullcontext() as out:
        reports = harness.run_suites(names, cfg)
        for report in reports:
            counts = report.counts()
            print(f"{report.suite}: {'PASS' if report.passed else 'FAIL'} "
                  f"({counts['pass']} pass, {counts['fail']} fail, "
                  f"{counts['skip']} skip, {counts['error']} error, "
                  f"{report.wall_time:.1f}s)", file=sys.stderr)
        if out is not None:
            _write_json([r.to_json() for r in reports], out)
    if not all(r.passed for r in reports):
        sys.exit(1)


def cmd_ingest(args):
    g, grp = harness.ingest(args.path, fmt=args.format)
    _emit_graph(g, args, group=grp)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and then kept: each ``parse_args``
    call fills a new namespace from the defaults, so calls share no
    options."""
    parser = argparse.ArgumentParser(
        prog="hatkit",
        description="Construction and analysis of tetravalent graphs with "
                    "half-arc-transitive group actions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("-o", "--output", help="write to file instead of stdout")
        return p

    p = add("construct", cmd_construct, help="build a named instance")
    p.add_argument("spec")
    p.add_argument("--format", choices=("json", "edgelist", "dot"),
                   default="json")

    p = add("analyze", cmd_analyze, help="full analysis pipeline")
    p.add_argument("spec")
    p.add_argument("--no-group", action="store_true",
                   help="graph-only mode, skip group-dependent analysis")
    p.add_argument("--aut", action="store_true",
                   help="also compute the full automorphism group")

    p = add("quotient", cmd_quotient, help="quotient reduction report")
    p.add_argument("spec")

    p = add("altgraph", cmd_altgraph, help="graph on the alternating cycles")
    p.add_argument("spec")
    p.add_argument("--format", choices=("json", "edgelist", "dot"),
                   default="edgelist")

    p = add("kernels", cmd_kernels, help="the three kernels and their case")
    p.add_argument("spec")

    p = add("iso", cmd_iso, help="isomorphism test with witness")
    p.add_argument("a")
    p.add_argument("b")

    p = add("aut", cmd_aut, help="automorphism group and arc-transitivity")
    p.add_argument("spec")

    p = add("verify", cmd_verify, help="run verification suites")
    p.add_argument("suites", nargs="*",
                   help=f"suites to run (default: all of {harness.SUITE_NAMES})")
    p.add_argument("--ingest", action="append",
                   help="extra instance file added to the pool")

    p = add("ingest", cmd_ingest, help="parse a file and echo normalized form")
    p.add_argument("path")
    p.add_argument("--format", choices=("edgelist", "graph6", "bundle-json"))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except SystemExit:
        raise
    except (HatkitError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        for classes, code in _EXIT_CODES:
            if isinstance(exc, classes):
                return code
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
