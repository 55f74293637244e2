"""The ehrkit ladder: wall time of every public entry point on a fixed set of polytopes.

    python3 tools/ladder.py --out BENCH_<n>.json [--src DIR] [--rungs a,b]

Rungs are the cube and the cross-polytope in d = 3..6, one seeded random
rational polytope per (d, q) with d = 3..5 and q = 2, 3 (the corpus recipe),
the five worked examples of the corpus, and one q = 2 polygon of
codenominator r = 5005; perfbench's generators make the first three kinds.
Each call runs on a polytope rebuilt from the rung's raw points, so every
call pays its own hull, and `build_polytope` is timed as a call of its own.
The file holds, per rung and call, the median and the first and third
quartiles of the wall times of REPEATS calls, so that a figure comes with its
own spread, and the outcome: "ok", the class name of the typed EhrkitError
it raised, or "skipped" for the oracle on rungs whose bounding boxes hold
more than ORACLE_SCANLINE_BOUND scanlines, as perfbench's `oracle_scanlines`
counts them.  ehrkit is imported from `--src` (default: src/ of this
checkout), so the ladder of another commit runs from a clone of it.  The file
names the commit of that checkout (`git describe --dirty`) and the git tree id
of the sources as measured, which `git rev-parse <commit>:src` reproduces once
they are committed.
Standard library only; one process, one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = 2
REPEATS = 7
# hstar_from_counts took 0.36 s on cross-5d (1.18e6 scanlines) and 1.6 s on
# cube-6d (2.30e6), medians of 5 calls, on a 2-CPU x86-64 machine with
# Python 3.11
ORACLE_SCANLINE_BOUND = 1_500_000
SEED = 20240801
WORKED = ("square-02", "skew-quad", "segment-half", "wide-triangle", "wide-triangle-half")
# the polygon CI decomposes at r = 5005, the lcm of its facet offsets
CODENOMINATOR_5005 = "2,-1/2; -3/2,-2; 1/2,-1; 1/2,-3/2"
CALLS = ("build_polytope", "hstar_polytope", "hstar_boundary", "stapledon_report",
         "verify_gorenstein_identities", "rational_series", "hstar_from_counts")


def rungs(workloads):
    """(name, raw points) of every rung, in ladder order.  The random rungs
    follow the corpus recipe: d + 1 to d + 4 points with coordinates k/q,
    |k| <= 2q, redrawn until their hull is a d-polytope of denominator q."""
    out = [("%s-%dd" % (make.__name__, d), make(d)) for make in (workloads.cube, workloads.cross)
           for d in range(3, 7)]
    rng = random.Random(SEED)
    out += [("random-d%d-q%d" % (d, q),
             workloads.random_rational(rng, d, q, (d + 1, d + 4), 2, lambda ints, P: True))
            for d in range(3, 6) for q in (2, 3)]
    from ehrkit.corpus import standard_corpus
    corpus = dict(standard_corpus())
    out += [(name, list(corpus[name].vertices)) for name in WORKED]
    polygon = [tuple(map(Fraction, v.split(","))) for v in CODENOMINATOR_5005.split(";")]
    return out + [("codenominator-5005", polygon)]


def timed(fn):
    """((first quartile, median, third quartile) in seconds, outcome) of
    REPEATS calls of fn; a typed error is an outcome, any other exception
    propagates."""
    from ehrkit.errors import EhrkitError
    times, outcome = [], "ok"
    for _ in range(REPEATS):
        start = time.perf_counter()
        try:
            fn()
        except EhrkitError as exc:
            outcome = type(exc).__name__
        times.append(time.perf_counter() - start)
    return tuple(statistics.quantiles(times, n=4, method="inclusive")), outcome


def entry(ehrkit, name, points):
    """The call `name`, on a polytope rebuilt from the points."""
    if name == "build_polytope":
        return lambda: ehrkit.build_polytope(points)
    args = ("closed",) if name == "hstar_from_counts" else ()
    return lambda: getattr(ehrkit, name)(ehrkit.build_polytope(points), *args)


def run_rung(ehrkit, oracle_scanlines, points):
    P = ehrkit.build_polytope(points)
    scanlines = oracle_scanlines(points, P.denominator_q)
    calls = {}
    for name in CALLS:
        if name == "hstar_from_counts" and scanlines > ORACLE_SCANLINE_BOUND:
            calls[name] = {"outcome": "skipped", "median_s": None, "q1_s": None, "q3_s": None}
        else:
            (q1, median, q3), outcome = timed(entry(ehrkit, name, points))
            calls[name] = {"outcome": outcome, "median_s": round(median, 6),
                           "q1_s": round(q1, 6), "q3_s": round(q3, 6)}
    return {"d": P.ambient_dim, "q": P.denominator_q, "points": len(points),
            "vertices": len(P.vertices), "oracle_scanlines": scanlines, "calls": calls}


def git(src, *args, **env):
    try:
        return subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True,
                              check=True, env={**os.environ, **env}).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_of(src):
    """(commit, tree): the commit checked out at src, and the git tree id of
    src as it is on disk, read through a throwaway index."""
    with tempfile.TemporaryDirectory() as tmp:
        index = {"GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git(src, "add", "-A", ".", **index)
        tree = git(src, "write-tree", "--prefix=" + git(src, "rev-parse", "--show-prefix"),
                   **index)
    return git(src, "describe", "--always", "--dirty", "--abbrev=40"), tree


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding ehrkit/")
    parser.add_argument("--rungs", help="comma-separated rung names (default: all)")
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(ROOT / "perfbench"))
    import ehrkit
    import workloads
    if not Path(ehrkit.__file__).resolve().is_relative_to(src):
        parser.error("imported ehrkit from %s, not from %s" % (ehrkit.__file__, src))

    ladder = rungs(workloads)
    if args.rungs:
        wanted = args.rungs.split(",")
        unknown = sorted(set(wanted) - {name for name, _ in ladder})
        if unknown:
            parser.error("unknown rungs: %s" % ", ".join(unknown))
        ladder = [(name, points) for name, points in ladder if name in wanted]

    results = {}
    for name, points in ladder:
        start = time.perf_counter()
        results[name] = run_rung(ehrkit, workloads.oracle_scanlines, points)
        print("ladder: %-20s %6.2f s" % (name, time.perf_counter() - start), file=sys.stderr)
    commit, tree = source_of(src)
    doc = {"schema": SCHEMA, "commit": commit, "src_tree": tree,
           "python": platform.python_version(), "machine": platform.machine(),
           "repeats": REPEATS, "oracle_scanline_bound": ORACLE_SCANLINE_BOUND,
           "calls": list(CALLS), "rungs": results}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
