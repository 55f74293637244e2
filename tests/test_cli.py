import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ehrkit import geometry, oracle
from ehrkit.cli import run
from ehrkit.ehrhart import _hstar
from ehrkit.geometry import polytope_from_json_dict
from ehrkit.gradedpoly import GradedPolynomial as GP
from ehrkit.decomposition import DecompositionReport, EhrhartReport
from ehrkit.rational_ehrhart import RationalSeriesReport
from ehrkit.triangulation import _generic_point, find_interior_point

from helpers import count_calls


@pytest.fixture
def square2_file(tmp_path):
    path = tmp_path / "square2.json"
    path.write_text(json.dumps(
        {"vertices": [["0", "0"], ["0", "2"], ["2", "0"], ["2", "2"]]}))
    return str(path)


@pytest.fixture
def p52_file(tmp_path):
    path = tmp_path / "p52.json"
    path.write_text(json.dumps(
        {"vertices": [["0", "0"], ["0", "2"], ["5", "2"]]}))
    return str(path)


def test_hstar_text(square2_file, capsys):
    assert run(["hstar", "-f", square2_file]) == 0
    assert capsys.readouterr().out.strip() == "h* = 1 + 6*z + z^2 (q=1, d=2)"


def test_decompose_text(capsys):
    assert run(["decompose", "--vertices", "0,0; 1,0; 0,1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "ℓ=3, a = 1 + z + z^2, b = 0"
    assert "audit:" in out


def test_rational_text(p52_file, capsys):
    assert run(["rational", "-f", p52_file]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == \
        "r=2, m=2, h̃ = 1 + 4*z^(1/2) + 7*z + 6*z^(3/2) + 2*z^2"


def test_rational_decompose_flags(p52_file, capsys):
    assert run(["rational", "-f", p52_file, "--decompose"]) == 0
    out = capsys.readouterr().out
    assert "ℓ=2, a = 1 + 4*z^(1/2) + 6*z + 4*z^(3/2) + z^2, b = 1 + 2*z^(1/2) + z" in out
    assert run(["rational", "-f", p52_file, "--m", "4"]) == 0
    assert "m=4" in capsys.readouterr().out
    assert run(["rational", "-f", p52_file, "--refined"]) == 0
    assert "origin: boundary (refined grid)" in capsys.readouterr().out


@pytest.mark.parametrize("extra", [["--refined"], ["--m", "4"], ["--refined", "--m", "4"]])
def test_rational_decompose_rejects_grid_flags(p52_file, capsys, extra):
    # --decompose chooses the grid and m itself, so it must not drop these silently
    assert run(["rational", "-f", p52_file, "--decompose"] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage error" in captured.err


def test_boundary_and_interior(capsys):
    assert run(["boundary", "--vertices", "0,0; 0,2; 2,0; 3,3"]) == 0
    assert "h*_boundary = 1 + 4*z + z^2" in capsys.readouterr().out
    assert run(["interior", "--vertices", "0,0; 1,0; 0,1; 1,1"]) == 0
    assert "h*_interior = z^2 + z^3" in capsys.readouterr().out


def test_gorenstein_text(square2_file, capsys):
    assert run(["gorenstein", "-f", square2_file]) == 0
    out = capsys.readouterr().out
    assert "classification: reflexive" in out
    assert "translate: (-1, -1)" in out


def test_info(square2_file, capsys):
    assert run(["info", "-f", square2_file]) == 0
    out = capsys.readouterr().out
    assert "2-dimensional lattice polytope" in out and "facets: 4" in out


def test_json_outputs_roundtrip(square2_file, p52_file, capsys):
    assert run(["hstar", "-f", square2_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert polytope_from_json_dict(doc["polytope"]) is not None
    assert GP.from_json_dict(doc["result"]["hstar"]) == GP.from_list([1, 6, 1])

    assert run(["decompose", "-f", square2_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    report = DecompositionReport.from_json_dict(doc["result"])
    assert report.a == GP.from_list([1, 6, 1]) and report.b.is_zero

    assert run(["rational", "-f", p52_file, "--decompose", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    report = RationalSeriesReport.from_json_dict(doc["result"])
    assert report.numerator == GP.from_list([1, 4, 7, 6, 2], grid=2)

    # every number in the JSON document is rendered as a string
    def no_bare_numbers(node, path=""):
        if isinstance(node, dict):
            for k, v in node.items():
                no_bare_numbers(v, path + "/" + k)
        elif isinstance(node, list):
            for v in node:
                no_bare_numbers(v, path)
        else:
            assert not isinstance(node, float), path
            assert not (isinstance(node, int) and not isinstance(node, bool)) \
                or path == "/schema", path

    no_bare_numbers(doc)


def test_json_byte_determinism(square2_file, capsys):
    run(["decompose", "-f", square2_file, "--json"])
    first = capsys.readouterr().out
    run(["decompose", "-f", square2_file, "--json"])
    assert capsys.readouterr().out == first


def test_dump_triangulation(square2_file, tmp_path, capsys):
    out_path = tmp_path / "tri.json"
    assert run(["boundary", "-f", square2_file,
                "--dump-triangulation", str(out_path)]) == 0
    capsys.readouterr()
    doc = json.loads(out_path.read_text())
    assert doc["schema"] == 1
    assert len(doc["cells"]) == 4
    for cell in doc["cells"]:
        assert len(cell["vertices"]) == 3 and len(cell["missing"]) == 3
        assert all(isinstance(i, int) for i in cell["vertices"])
    assert doc["apex"] < len(doc["points"])


def test_verify_files(square2_file, p52_file, capsys):
    assert run(["verify", "-f", square2_file, "-f", p52_file]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2 and "2/2 polytopes verified" in out


def test_verify_bad_files(tmp_path, capsys):
    floats = tmp_path / "floats.json"
    floats.write_text(json.dumps({"vertices": [[0.5, 0], [1, 1], [0, 1]]}))
    for path in (str(floats), str(tmp_path / "missing.json")):
        assert run(["verify", "-f", path]) == 2
        assert capsys.readouterr().err.startswith("usage error: -f: ")


def test_verify_corpus(capsys):
    assert run(["verify", "--corpus"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "verified" in out


def test_usage_errors(square2_file, capsys):
    for argv in (["hstar"], ["hstar", "--vertices", ";"],
                 ["hstar", "-f", square2_file, "--vertices", "0,0; 1,0; 0,1"], ["verify"]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage error: ")
    assert run(["hstar", "--vertices", "0.5,1"]) == 2
    err = capsys.readouterr().err
    assert "--vertices" in err
    assert run(["hstar", "-f", "does-not-exist.json"]) == 2
    assert "-f" in capsys.readouterr().err
    assert run(["nonsense"]) == 2
    capsys.readouterr()


TRIANGLE_3D = "0,0,0; 1,0,0; 0,1,0"


@pytest.fixture
def triangle3_file(tmp_path):
    path = tmp_path / "triangle3.json"
    path.write_text(json.dumps(
        {"vertices": [row.split(",") for row in TRIANGLE_3D.split("; ")]}))
    return str(path)


def test_project_charts_a_lower_dimensional_polytope(capsys):
    assert run(["hstar", "--vertices", TRIANGLE_3D, "--project"]) == 0
    assert capsys.readouterr().out.strip() == "h* = 1 (q=1, d=2)"
    assert run(["hstar", "--vertices", TRIANGLE_3D]) == 1
    assert "NotFullDimensional" in capsys.readouterr().err


def test_verify_corpus_refuses_a_file(tmp_path, capsys):
    # the file is never read, so a missing one shows the refusal comes first
    assert run(["verify", "--corpus", "-f", str(tmp_path / "missing.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: give either -f or --corpus, not both\n"


def test_verify_reports_a_lower_dimensional_file(triangle3_file, capsys):
    assert run(["verify", "-f", triangle3_file]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].startswith(triangle3_file + "  ERROR: facet description needs")
    assert rows[1] == "0/1 polytopes verified"


def test_hull_too_large_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(geometry, "HULL_RAY_LIMIT", 5)
    cube = "0,0,0; 0,0,1; 0,1,0; 0,1,1; 1,0,0; 1,0,1; 1,1,0; 1,1,1"
    path = tmp_path / "cube.json"
    path.write_text(json.dumps({"vertices": [row.split(",") for row in cube.split("; ")]}))
    for argv in (["hstar", "--vertices", cube], ["verify", "-f", str(path)]):
        assert run(argv) == 2
        assert "5 intermediate facets" in capsys.readouterr().err


def test_computation_error_exit_code(capsys):
    # a segment in the plane is not full-dimensional
    assert run(["hstar", "--vertices", "0,0; 1,1"]) == 1
    assert "NotFullDimensional" in capsys.readouterr().err


def test_verify_computes_hstar_once_per_polytope(square2_file, p52_file, monkeypatch, capsys):
    reports = count_calls(monkeypatch, EhrhartReport)
    hstars = count_calls(monkeypatch, _hstar)
    assert run(["verify", "-f", square2_file, "-f", p52_file]) == 0
    capsys.readouterr()
    assert len(reports) == len(hstars) == 2


def test_verify_sweeps_each_polytope_once(square2_file, p52_file, monkeypatch, capsys):
    """All three oracle modes of a polytope come from one sweep of both slack
    shifts over its dilates 1 .. q(d+1) + d + 1, here q = 1 and d = 2."""
    sweeps = count_calls(monkeypatch, oracle._counts)
    assert run(["verify", "-f", square2_file, "-f", p52_file]) == 0
    capsys.readouterr()
    assert [(list(args[1]), tuple(args[2])) for args in sweeps] == [(list(range(1, 7)), (0, 1))] * 2


def test_bad_m_is_a_usage_error(capsys):
    for m in ("3", "0"):
        assert run(["rational", "--vertices", "0; 1/2", "--m", m]) == 2
        assert capsys.readouterr().err.startswith("usage error: --m: ")


def test_huge_m_is_a_usage_error(monkeypatch, capsys):
    def multiply(self, e):
        raise AssertionError("the lift multiplied before its size check")
    monkeypatch.setattr(GP, "times_one_minus", multiply)
    assert run(["rational", "--vertices", "0,0,0; 1,0,0; 0,1,0; 0,0,1", "--m", "1000000"]) == 2
    assert capsys.readouterr().err.startswith("usage error: --m: ")


def test_malformed_vertex_data_is_a_usage_error(tmp_path, capsys):
    bad = ([], [["0", "0"], ["1"]], 5, None, [5, 6], [[True, False], [0, 1], [1, 1]])
    for k, rows in enumerate(bad):
        path = tmp_path / ("bad%d.json" % k)
        path.write_text(json.dumps({"vertices": rows}))
        for argv in (["hstar", "-f", str(path)], ["verify", "-f", str(path)]):
            assert run(argv) == 2
            assert capsys.readouterr().err.startswith("usage error: -f: ")
    assert run(["hstar", "--vertices", "0,0; 1"]) == 2
    assert capsys.readouterr().err.startswith("usage error: --vertices: ")


def test_dump_triangulation_to_unwritable_path(square2_file, tmp_path, capsys):
    for command in ("hstar", "boundary"):
        assert run([command, "-f", square2_file, "--dump-triangulation",
                    str(tmp_path / "missing" / "tri.json")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: --dump-triangulation: ")
        assert captured.out == ""


def test_dump_triangulation_reuses_the_cone(square2_file, tmp_path, monkeypatch, capsys):
    counts = [count_calls(monkeypatch, fn) for fn in (find_interior_point, _generic_point)]
    assert run(["boundary", "-f", square2_file,
                "--dump-triangulation", str(tmp_path / "tri.json")]) == 0
    capsys.readouterr()
    assert [len(calls) for calls in counts] == [1, 1]


@pytest.mark.parametrize("argv", [
    ["rational", "--vertices", "0,0; 1/2,0; 0,1/2"],  # small: fails at the last flush
    ["hstar", "--json", "--vertices", "0; 1/3000"],  # 62 kB: fails inside print
])
def test_closed_pipe_gives_no_traceback(argv):
    """`ehrkit ... | head -c 10` closes stdout before the output is written;
    the CLI exits 1 with nothing on stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "ehrkit.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")
