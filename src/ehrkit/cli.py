"""Command-line interface.

Subcommands: info, hstar, boundary, interior, decompose, gorenstein,
rational, verify.  Input is a polytope JSON file (-f) or an inline vertex
list (--vertices "0,0; 1/2,1").  Text output is the default; --json emits a
versioned document with every number rendered as a string.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import EhrkitError, EmptyInput, HullTooLarge, InvalidM, MixedDimensions
from .geometry import (
    Polytope,
    build_polytope,
    load_polytope,
    parse_rational,
    project_to_affine_hull,
)
from .decomposition import EhrhartReport
from .gorenstein import verify_gorenstein_identities
from .rational_ehrhart import rational_decompose, rational_series
from .oracle import hstar_from_counts
from .corpus import standard_corpus
from .triangulation import triangulation_to_json_dict

SCHEMA = 1


class UsageError(Exception):
    pass


def _parse_vertices(text: str):
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            points.append([parse_rational(c.strip()) for c in chunk.split(",")])
        except ValueError as exc:
            raise UsageError("--vertices: %s" % exc) from exc
    if not points:
        raise UsageError("--vertices: no points given")
    return points


def _load_file(path: str) -> Polytope:
    try:
        return load_polytope(path)
    except (OSError, ValueError, EmptyInput, MixedDimensions, HullTooLarge) as exc:
        raise UsageError("-f: %s" % exc) from exc


def _load_input(args) -> Polytope:
    if args.file and args.vertices:
        raise UsageError("give either -f or --vertices, not both")
    if args.file:
        P = _load_file(args.file)
    elif args.vertices:
        try:
            P = build_polytope(_parse_vertices(args.vertices))
        except (MixedDimensions, HullTooLarge) as exc:
            raise UsageError("--vertices: %s" % exc) from exc
    else:
        raise UsageError("an input polytope is required: -f FILE or --vertices \"...\"")
    if getattr(args, "project", False) and not P.is_full_dimensional:
        P = project_to_affine_hull(P)
    return P


def _emit(args, P: Polytope, result: dict, text_lines: list[str]) -> None:
    if args.json:
        doc = {"schema": SCHEMA, "polytope": P.to_json_dict(), "result": result}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _dump_triangulation(args, analysis: EhrhartReport) -> None:
    if not getattr(args, "dump_triangulation", None):
        return
    _, cone = analysis.cone
    try:
        with open(args.dump_triangulation, "w", encoding="utf-8") as fh:
            json.dump({"schema": SCHEMA, **triangulation_to_json_dict(cone)}, fh, indent=2)
    except OSError as exc:
        raise UsageError("--dump-triangulation: %s" % exc) from exc


# -- subcommand implementations --------------------------------------------------

def _cmd_info(args) -> int:
    P = _load_input(args)
    lines = [str(P), "q = %d" % P.denominator_q,
             "vertices: " + "; ".join(
                 ", ".join(str(c) for c in v) for v in P.vertices)]
    result = {"polytope": P.to_json_dict(), "dim": str(P.dim),
              "ambient_dim": str(P.ambient_dim), "q": str(P.denominator_q)}
    if P.is_full_dimensional:
        lines.append("facets: %d" % len(P.facets))
        result["facets"] = [hs.to_json_dict() for hs in P.facets]
    _emit(args, P, result, lines)
    return 0


# subcommand -> (EhrhartReport field and JSON key, text label)
POLYNOMIALS = {"hstar": ("hstar", "h*"), "boundary": ("hstar_boundary", "h*_boundary"),
               "interior": ("hstar_interior", "h*_interior")}


def _cmd_polynomial(args) -> int:
    P = _load_input(args)
    field, label = POLYNOMIALS[args.command]
    analysis = EhrhartReport(P)
    h = getattr(analysis, field)
    _dump_triangulation(args, analysis)
    _emit(args, P, {field: h.to_json_dict(), "q": str(P.denominator_q), "d": str(P.dim)},
          ["%s = %s (q=%d, d=%d)" % (label, h.text(), P.denominator_q, P.dim)])
    return 0


def _cmd_decompose(args) -> int:
    P = _load_input(args)
    analysis = EhrhartReport(P)
    report, audit = analysis.decomposition, analysis.audit
    lines = ["ℓ=%d, a = %s, b = %s" % (report.ell, report.a.text(), report.b.text()),
             "q = %d, deg h* = %d, a equals boundary h*: %s"
             % (report.q, report.s_degree, report.a_equals_boundary),
             "audit:"]
    for item in audit.items:
        if not item.applicable:
            state = "SKIP"
        elif item.passed:
            state = "PASS" if item.level == "requirement" else "PASS (warning-level)"
        else:
            state = "FAIL" if item.level == "requirement" else "WARN"
        lines.append("  %-28s %-20s %s" % (item.name, state, item.witness))
    result = report.to_json_dict()
    result["audit"] = [
        {"name": i.name, "applicable": i.applicable, "passed": i.passed,
         "level": i.level, "witness": i.witness} for i in audit.items]
    _emit(args, P, result, lines)
    return 0


def _cmd_gorenstein(args) -> int:
    P = _load_input(args)
    report = verify_gorenstein_identities(P)
    status = report.status
    lines = ["classification: %s" % status.describe()]
    if status.translate is not None:
        lines.append("translate: (%s)" % ", ".join(str(c) for c in status.translate))
    lines.append("verified identities: %s" % (", ".join(report.checks) or "none"))
    result = {"kind": status.kind.value,
              "g": None if status.g is None else str(status.g),
              "translate": None if status.translate is None else
              [str(c) for c in status.translate],
              "checks": list(report.checks),
              "certificates": {k: v.to_json_dict() for k, v in report.polynomials.items()}}
    _emit(args, P, result, lines)
    return 0


def _cmd_rational(args) -> int:
    if args.decompose and (args.refined or args.m is not None):
        raise UsageError("--decompose picks its own grid and m; drop --refined and --m")
    P = _load_input(args)
    if args.decompose:
        report = rational_decompose(P)
    else:
        try:
            report = rational_series(P, refined=args.refined, m=args.m)
        except InvalidM as exc:
            raise UsageError("--m: %s" % exc) from exc
    lines = ["r=%d, m=%d, h̃ = %s" % (report.r, report.m, report.numerator.text()),
             "origin: %s%s" % (report.origin_position,
                               " (refined grid)" if report.refined else "")]
    if report.decomposition is not None:
        a, b, ell = report.decomposition
        lines.append("ℓ=%d, a = %s, b = %s" % (ell, a.text(), b.text()))
    _emit(args, P, report.to_json_dict(), lines)
    return 0


def _cmd_verify(args) -> int:
    if args.corpus and args.file:
        raise UsageError("give either -f or --corpus, not both")
    if args.corpus:
        entries = standard_corpus()
    else:
        if not args.file:
            raise UsageError("verify needs -f FILE (repeatable) or --corpus")
        entries = [(path, _load_file(path)) for path in args.file]
    failures = 0
    rows = []
    for name, P in entries:
        try:
            report = EhrhartReport(P)
            ok = (report.hstar == hstar_from_counts(P, "closed")
                  and report.hstar_boundary == hstar_from_counts(P, "boundary")
                  and report.hstar_interior == hstar_from_counts(P, "interior"))
        except EhrkitError as exc:
            ok = False
            rows.append((name, "ERROR: %s" % exc))
            failures += 1
            continue
        rows.append((name, "PASS" if ok else "FAIL"))
        failures += 0 if ok else 1
    width = max(len(name) for name, _ in rows)
    for name, state in rows:
        print("%-*s  %s" % (width, name, state))
    print("%d/%d polytopes verified" % (len(rows) - failures, len(rows)))
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehrkit",
        description="Exact Ehrhart series, boundary h*-polynomials and friends.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("-f", "--file", help="polytope JSON file")
        p.add_argument("--vertices", help='inline vertex list, e.g. "0,0; 1/2,1; 1,0"')
        p.add_argument("--project", action="store_true",
                       help="chart lower-dimensional input onto its affine hull "
                            "(lattice-preserving)")
        p.add_argument("--json", action="store_true", help="emit JSON")

    for name, fn in [("info", _cmd_info), ("hstar", _cmd_polynomial),
                     ("boundary", _cmd_polynomial), ("interior", _cmd_polynomial),
                     ("decompose", _cmd_decompose), ("gorenstein", _cmd_gorenstein)]:
        p = sub.add_parser(name)
        add_input(p)
        if name in ("hstar", "boundary"):
            p.add_argument("--dump-triangulation", metavar="PATH",
                           help="write the half-open cone triangulation over the "
                                "interior point x as JSON")
        p.set_defaults(fn=fn)

    p = sub.add_parser("rational")
    add_input(p)
    p.add_argument("--refined", action="store_true", help="use the grid 1/(2r)")
    p.add_argument("--m", type=int, default=None,
                   help="numerator height (default: minimal valid)")
    p.add_argument("--decompose", action="store_true",
                   help="run the origin-position decomposition")
    p.set_defaults(fn=_cmd_rational)

    p = sub.add_parser("verify")
    p.add_argument("-f", "--file", action="append", help="polytope JSON file (repeatable)")
    p.add_argument("--corpus", action="store_true", help="verify the built-in corpus")
    p.set_defaults(fn=_cmd_verify)
    return parser


def run(argv=None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except EhrkitError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left: flush at exit into devnull, exit 1 as on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
