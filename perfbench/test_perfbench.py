"""Tests of the benchmark itself: workloads, checks and span accounting.

Run from the repository root with ``python -m pytest perfbench``.
"""

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ehrkit  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def failures(rows):
    return [slot for slot, _, ok, _ in rows if not ok]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smallest_size_passes_checks_untraced_and_traced(workload):
    groups = workloads.build(workload, seed=3, small=True)
    assert failures(run.run_pass(ehrkit, workloads, groups)) == []
    profile = tracing.Profile()
    with tracing.installed(tracing.Recorder()) as recorder:
        rows = run.run_pass(ehrkit, workloads, groups, recorder, profile)
    assert failures(rows) == []
    assert profile.totals["geometry.build_polytope"].calls >= len(rows)


def test_inputs_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        a = workloads.build(workload, seed=5, small=True)
        b = workloads.build(workload, seed=5, small=True)
        assert [g.vertices for g in a] == [g.vertices for g in b]


def test_injected_wrong_hstar_is_a_failure(monkeypatch):
    real = ehrkit.hstar_polytope
    monkeypatch.setattr(ehrkit, "hstar_polytope",
                        lambda P: real(P) + ehrkit.GradedPolynomial.monomial(1))
    groups = workloads.build("lattice-fan", seed=3, small=True)
    failed = failures(run.run_pass(ehrkit, workloads, groups))
    assert failed == [(gi, "hstar_polytope") for gi in range(len(groups))]


def test_wrong_residue_count_is_a_failure():
    group = workloads.build("lattice-fan", seed=3, small=True)[0]
    out = {"hstar_polytope": ehrkit.hstar_polytope(ehrkit.build_polytope(group.vertices))}
    assert workloads.check_group(group, out, {"hstar_polytope": 6}) == {"hstar_polytope": True}
    assert workloads.check_group(group, out, {"hstar_polytope": 5}) == {"hstar_polytope": False}


def test_pipeline_oracle_disagreement_fails_both_tasks():
    group = workloads.build("oracle-verify", seed=3, small=True)[0]
    P = ehrkit.build_polytope(group.vertices)
    out = {"hstar_polytope": ehrkit.hstar_polytope(P),
           "hstar_from_counts:closed": ehrkit.hstar_from_counts(P, "closed")}
    assert all(workloads.check_group(group, out).values())
    out["hstar_from_counts:closed"] = ehrkit.GradedPolynomial.one()
    assert not any(workloads.check_group(group, out).values())


def test_times_are_scaled_to_the_reference_speed():
    # kernel rounds twice as slow as the reference before, four times after
    before, after = (2 * 2 * run.REFERENCE_S, 2), (4 * 6 * run.REFERENCE_S, 6)
    assert run.at_reference_speed(1.0, before, after) == pytest.approx(8 / 28)
    assert run.run_kernel(0.0)[1] == 1
    seconds, rounds = run.run_kernel(0.01)
    assert seconds >= 0.01 and rounds >= 1


def test_self_time_is_span_minus_children_on_a_synthetic_nest():
    # root [0,10] holds child [1,4] (which holds leaf [2,3]) and child [5,9]
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    rec = tracing.Recorder(clock=lambda: next(ticks))
    leaf = rec.wrap("c.leaf", lambda: None)
    child = rec.wrap("b.child", lambda deep: leaf() if deep else None)
    root = rec.wrap("a.root", lambda: (child(True), child(False)))
    rec.task = "t"
    root()
    rec.task = None
    root()  # not recorded: no task is active
    totals = rec.take()
    assert (totals["a.root"].calls, totals["a.root"].self_s) == (1, 3.0)
    assert (totals["b.child"].calls, totals["b.child"].self_s) == (2, 2.0 + 4.0)
    assert totals["c.leaf"].self_s == 1.0
    assert rec.spans == []


def test_an_iterator_result_is_counted_and_timed_as_it_is_consumed():
    # walk [0,1] returns an iterator; its two steps [2,3] (holding leaf
    # [2.5,2.75]) and [4,6], and the final step [7,7.5], run inside it
    ticks = iter([0.0, 1.0, 2.0, 2.5, 2.75, 3.0, 4.0, 6.0, 7.0, 7.5])
    rec = tracing.Recorder(clock=lambda: next(ticks))
    leaf = rec.wrap("c.leaf", lambda: None)

    def residues():
        yield leaf()
        yield 2

    walk = rec.wrap("ehrhart.fpp_lattice_points", residues)
    rec.task = "t"
    assert len(list(walk())) == 2
    rec.task = None
    totals = rec.take()
    fpp = totals["ehrhart.fpp_lattice_points"]
    assert (fpp.calls, fpp.work, fpp.uncounted) == (1, 2, 0)
    assert fpp.self_s == 1.0 + 1.0 + 2.0 + 0.5 - 0.25
    assert totals["c.leaf"].self_s == 0.25


def test_streaming_residue_walk_passes_the_residue_check(monkeypatch):
    from ehrkit import decomposition, ehrhart
    real = ehrhart.fpp_lattice_points

    def streamed(S, heights):
        yield from real(S, heights)
    streamed.__module__ = ehrhart.__name__
    for mod in (ehrhart, decomposition):
        monkeypatch.setattr(mod, "fpp_lattice_points", streamed)
    groups = workloads.build("lattice-fan", seed=3, small=True)
    profile = tracing.Profile()
    with tracing.installed(tracing.Recorder()) as recorder:
        rows = run.run_pass(ehrkit, workloads, groups, recorder, profile)
    assert failures(rows) == []
    fpp = profile.totals["ehrhart.fpp_lattice_points"]
    assert fpp.uncounted == 0 and fpp.work > 0


def test_uncounted_residues_skip_the_residue_check():
    group = workloads.build("lattice-fan", seed=3, small=True)[0]
    out = {"hstar_polytope": ehrkit.hstar_polytope(ehrkit.build_polytope(group.vertices))}
    assert workloads.check_group(group, out, {}) == {"hstar_polytope": True}


def test_wrappers_bind_at_every_name_and_come_off():
    from ehrkit import geometry, triangulation
    original = geometry.build_polytope
    with tracing.installed(tracing.Recorder()):
        assert geometry.build_polytope is triangulation.build_polytope is ehrkit.build_polytope
        assert geometry.build_polytope.__wrapped_span__ == "geometry.build_polytope"
    assert geometry.build_polytope is original is triangulation.build_polytope


def test_closed_forms():
    assert workloads.eulerian(4) == [1, 11, 11, 1]
    h, hb = workloads.closed_form("centered-cube", 3)
    assert h.as_dict() == {0: 1, 1: 23, 2: 23, 3: 1} == hb.as_dict()
    h, hb = workloads.closed_form("cube", 3)
    assert hb.as_dict() == {0: 1, 1: 5, 2: 5, 3: 1}
    h, hb = workloads.closed_form("cross", 4)
    assert h == hb == ehrkit.GradedPolynomial.from_list([1, 4, 6, 4, 1])


def test_circuit_volume_matches_hstar_at_one():
    rng = random.Random(4)
    for count in (4, 5):
        pts = workloads.random_rational(rng, 3, 2, (count, count), 2, lambda ints, P: True)
        ints = [tuple(int(2 * c) for c in p) for p in pts]
        P = ehrkit.build_polytope(pts)
        assert workloads.circuit_hstar_one(ints, 2) == \
            ehrkit.hstar_polytope(P).evaluate_at_one()


def run_script(script, *extra):
    return subprocess.run([sys.executable, *extra, str(script), "--workload", "lattice-fan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60)


def test_refuses_to_run_under_optimize():
    proc = run_script(HERE / "run.py", "-O")
    assert proc.returncode != 0 and proc.stdout == ""


def test_fails_without_the_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        shutil.copy(HERE / name, bench / name)
    proc = run_script(bench / "run.py")
    assert proc.returncode != 0 and proc.stdout == ""


def test_memory_error_is_a_failed_task(monkeypatch):
    def runaway(P):
        raise MemoryError
    monkeypatch.setattr(ehrkit, "hstar_boundary", runaway)
    groups = workloads.build("lattice-fan", seed=3, small=True)
    failed = failures(run.run_pass(ehrkit, workloads, groups))
    assert failed == [(gi, "hstar_boundary") for gi in range(len(groups))]


def test_vertex_test_from_the_affine_dependency():
    rng = random.Random(6)
    for _ in range(40):
        ints = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(5)]
        if workloads.circuit_hstar_one(ints, 1) == 0:
            continue
        P = ehrkit.build_polytope(ints)
        assert workloads.all_vertices(ints) == (len(P.vertices) == 5)
