#!/usr/bin/env python3
"""ehrkit benchmark: one workload, one single-threaded closed-loop caller.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload lattice-fan --seed 1 --seconds 25 --trace 0

The task list of the workload is run pass after pass; each task is timed
alone, its time is scaled to a reference speed of the host (REFERENCE_S),
and every output is checked after its group, outside the timed region.
A run ends after the pass during which ``--seconds`` elapse, once it holds
at least MIN_SAMPLES tasks.  The last line of standard output is one JSON
object: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  A traced run alternates untraced and traced passes and
reports the tracing overhead between them; its per-layer figures are per
traced pass of the task list.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MEMORY_CAP = 2 << 30   # RLIMIT_AS of the workload process, bytes
MIN_SAMPLES = 110      # so that at least ten samples lie beyond the p90
WARMUP_SEED = 0        # the warm-up task is the same for every --seed
IMPORT_PROBE = ("import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import ehrkit; print(time.perf_counter() - start)")

# calls and self time per pass, for these span names
COUNTED = ("geometry.build_polytope", "triangulation.cell_halfspaces",
           "triangulation.find_interior_point", "ehrhart.fpp_lattice_points",
           "linalg.diagonalize", "linalg.matrix_rank", "linalg.hyperplane_through",
           "gradedpoly.ops", "oracle.count_points")
SELF_ONLY = ("triangulation.pick_generic_point", "triangulation.half_open_decompose",
             "triangulation.triangulate_boundary", "ehrhart.hstar_polytope",
             "decomposition.stapledon_report", "decomposition.pyramid_b_polynomial",
             "decomposition.symmetric_decompose", "decomposition.inequality_audit",
             "gorenstein.gorenstein_index", "gorenstein.is_reflexive",
             "rational_ehrhart.rational_series")
FPP = "ehrhart.fpp_lattice_points"

# The host's speed drifts by tens of percent over seconds to minutes, for
# every process alike (see README, Noise).  A fixed pure-Python kernel that
# does not touch ehrkit is run before the first task and after each task,
# for KERNEL_SHARE of the task's time and at least KERNEL_MIN_S.  Each
# end-to-end time is scaled by REFERENCE_S over the kernel's time per round
# in the two runs around it, so it reads as on a host where one round takes
# REFERENCE_S, the median on the machine of the README's baseline.
REFERENCE_S = 0.5e-3
KERNEL_MIN_S = 1.5e-3
KERNEL_SHARE = 0.05
KERNEL_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + 2 * j) % 4) for j in range(6)]
                 for i in range(6)]
PER_TASK = ("ehrhart.hstar_polytope", "ehrhart.hstar_boundary",
            "triangulation.triangulate_boundary", "triangulation.find_interior_point")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def run_kernel(seconds):
    """Run rounds of the speed-reference kernel, Gaussian elimination over
    Fractions as in ehrkit's own arithmetic, for at least `seconds`;
    returns (wall time, rounds).  The collector is off so the kernel's time
    does not depend on the program's heap."""
    gc.disable()
    try:
        start = time.perf_counter()
        rounds = 0
        while not rounds or time.perf_counter() - start < seconds:
            rows = [row[:] for row in KERNEL_MATRIX]
            for k in range(len(rows)):
                pivot = next(i for i in range(k, len(rows)) if rows[i][k])
                rows[k], rows[pivot] = rows[pivot], rows[k]
                for i in range(k + 1, len(rows)):
                    f = rows[i][k] / rows[k][k]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
            rounds += 1
        return time.perf_counter() - start, rounds
    finally:
        gc.enable()


def at_reference_speed(seconds, before, after):
    """`seconds` scaled to the reference speed, from the kernel runs
    (wall time, rounds) just before and just after it."""
    return seconds * REFERENCE_S * (before[1] + after[1]) / (before[0] + after[0])


def run_pass(ehrkit, workloads, groups, recorder=None, profile=None):
    """Run every task once; returns [(slot, seconds, ok, scaled)] in
    task-list order, `scaled` being the seconds at the reference speed.

    With a recorder, each task's spans go into `profile`, and an h* task is
    also checked against the number of residues its walk produced.
    """
    rows = []
    kernel = run_kernel(KERNEL_MIN_S)
    for gi, group in enumerate(groups):
        outputs, seconds, scaled, residues = {}, {}, {}, {}
        for label, (fn, args) in zip(group.labels(), group.calls):
            entry = getattr(ehrkit, fn)
            if recorder is not None:
                recorder.task = (gi, label)
            start = time.perf_counter()
            try:
                outputs[label] = entry(ehrkit.build_polytope(group.vertices), *args)
            except Exception as exc:  # a task that raises is a failed task
                outputs[label] = exc
            seconds[label] = time.perf_counter() - start
            after = run_kernel(max(KERNEL_MIN_S, KERNEL_SHARE * seconds[label]))
            scaled[label] = at_reference_speed(seconds[label], kernel, after)
            kernel = after
            if recorder is not None:
                recorder.task = None
                spans = recorder.take()
                profile.add(fn, spans)
                if FPP in spans and not spans[FPP].uncounted:
                    residues[label] = spans[FPP].work
        verdict = workloads.check_group(group, outputs, residues)
        rows += [((gi, label), seconds[label], verdict[label], scaled[label])
                 for label in seconds]
    return rows


def busy_seconds(passes):
    """Wall time spent inside tasks, over all the passes."""
    return sum(row[1] for rows in passes for row in rows)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(passes, setups):
    latencies = [row[3] for rows in passes for row in rows]
    p90 = statistics.quantiles(latencies, n=10)[8]
    beyond = sum(1 for s in latencies if s > p90)
    print("perfbench: %d samples in %d passes, %d beyond p90; %.3f tasks/s in wall time"
          % (len(latencies), len(passes), beyond, len(latencies) / busy_seconds(passes)),
          file=sys.stderr)
    return {
        "tasks_per_s": metric(len(latencies) / sum(latencies), "1/s"),
        "task_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "task_p90_ms": metric(p90 * 1e3, "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(profile, traced, untraced):
    from tracing import LAYERS, Totals
    totals = profile.totals
    n = len(traced)
    task_s = busy_seconds(traced)
    tasks = sum(len(rows) for rows in traced)
    get = lambda name: totals.get(name, Totals())  # noqa: E731
    out = {}
    for name in COUNTED:
        out[name + ".calls"] = metric(get(name).calls / n, "count/pass")
        out[name + ".self_s"] = metric(get(name).self_s / n, "s/pass")
    for name in SELF_ONLY:
        out[name + ".self_s"] = metric(get(name).self_s / n, "s/pass")
    out["triangulation.interior_lattice_points.calls"] = metric(
        get("triangulation.interior_lattice_points").calls / n, "count/pass")
    cells = get("triangulation.pick_generic_point").work
    out["triangulation.cell_halfspaces.calls_per_cell"] = metric(
        get("triangulation.cell_halfspaces").calls / cells if cells else 0.0, "count")
    fpp = get(FPP)
    out["ehrhart.residues"] = metric(fpp.work / n, "count/pass")
    out["ehrhart.residues_per_s"] = metric(fpp.work / fpp.self_s if fpp.self_s else 0.0, "1/s")
    scan = get("oracle.count_points")
    out["oracle.scanlines"] = metric(scan.work / n, "count/pass")
    out["oracle.scanlines_per_s"] = metric(scan.work / scan.self_s if scan.self_s else 0.0,
                                           "1/s")
    reports, report_calls = profile.by_entry.get("ehrhart_report", (0, {}))
    for name in PER_TASK:
        short = name.split(".")[1]
        out["task.%s.calls_per_task" % short] = metric(get(name).calls / tasks, "count")
        out["task.ehrhart_report.%s.calls_per_task" % short] = metric(
            report_calls.get(name, 0) / reports if reports else 0.0, "count")
    for layer in LAYERS:
        self_s = sum(t.self_s for name, t in totals.items() if name.startswith(layer + "."))
        out["layer.%s.share_pct" % layer] = metric(100 * self_s / task_s, "%")
    plain = busy_seconds(untraced) / len(untraced)
    with_spans = task_s / n
    out["trace.overhead_pct"] = metric(100 * (with_spans - plain) / plain, "%")

    lines = ["perfbench: traced %d passes, %.3f s/pass, overhead %+.1f%%"
             % (n, task_s / n, out["trace.overhead_pct"]["value"])]
    for name, t in sorted(totals.items(), key=lambda kv: -kv[1].self_s):
        lines.append("  %-44s calls %10.1f  self %8.4f s  %5.1f%%"
                     % (name, t.calls / n, t.self_s / n, 100 * t.self_s / task_s))
    for fn, (count, calls) in sorted(profile.by_entry.items()):
        lines.append("  per %s call: " % fn + ", ".join(
            "%s %.2f" % (name.split(".")[1], calls.get(name, 0) / count) for name in PER_TASK))
    print("\n".join(lines), file=sys.stderr)
    return out


def setup_seconds(ehrkit, warmup):
    """One set-up of the program at the reference speed: importing ehrkit in
    a fresh interpreter, then one warm-up task.  Input generation is the
    benchmark's own seed-dependent work and is not part of it."""
    before = run_kernel(KERNEL_MIN_S)
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                           capture_output=True, text=True, check=True, timeout=60)
    fn, extra = warmup.calls[0]
    start = time.perf_counter()
    getattr(ehrkit, fn)(ehrkit.build_polytope(warmup.vertices), *extra)
    seconds = float(probe.stdout) + time.perf_counter() - start
    return at_reference_speed(seconds, before, run_kernel(KERNEL_SHARE * seconds))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        return fail("refusing to run under python -O: it strips the pipeline's "
                    "assert cross-checks and would time a different program")
    if not (SRC / "ehrkit" / "__init__.py").is_file():
        return fail("no ehrkit sources under %s" % SRC)
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_CAP if hard == resource.RLIM_INFINITY else min(MEMORY_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

    sys.path.insert(0, str(SRC))
    import ehrkit
    import workloads
    if not Path(ehrkit.__file__).resolve().is_relative_to(SRC.resolve()):
        return fail("imported ehrkit from %s, not from this checkout" % ehrkit.__file__)
    if args.workload not in workloads.WORKLOADS:
        return fail("unknown workload %r; choose from %s"
                    % (args.workload, ", ".join(workloads.WORKLOADS)))

    start = time.perf_counter()
    groups = workloads.build(args.workload, args.seed)
    print("perfbench: inputs generated in %.3f s" % (time.perf_counter() - start),
          file=sys.stderr)
    # Set-up is sampled before the first pass and after each pass, so that its
    # median, like the tasks', spans the machine's slow and fast seconds.
    warmup = workloads.build(args.workload, WARMUP_SEED, small=True)[0]
    setups = [setup_seconds(ehrkit, warmup)]

    passes, traced, untraced = [], [], []
    profile = None
    start = time.perf_counter()
    while True:
        if args.trace and len(passes) % 2:
            from tracing import Profile, Recorder, installed
            profile = profile or Profile()
            with installed(Recorder()) as recorder:
                rows = run_pass(ehrkit, workloads, groups, recorder, profile)
            traced.append(rows)
        else:
            rows = run_pass(ehrkit, workloads, groups)
            untraced.append(rows)
        passes.append(rows)
        setups.append(setup_seconds(ehrkit, warmup))
        elapsed = time.perf_counter() - start
        if elapsed < args.seconds:
            continue
        if args.trace:
            if len(passes) % 2 == 0:  # ends on a traced pass
                break
        elif sum(map(len, passes)) >= MIN_SAMPLES or elapsed >= 3 * args.seconds:
            break

    attempted = sum(map(len, passes))
    failed = [(groups[gi].name, label) for rows in passes for (gi, label), _, ok, _ in rows
              if not ok]
    for name, label in sorted(set(failed)):
        print("perfbench: FAILED %s on %s" % (label, name), file=sys.stderr)
    metrics = (per_layer(profile, traced, untraced) if args.trace
               else end_to_end(passes, setups))
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
