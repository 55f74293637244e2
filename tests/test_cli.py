import json

import pytest

from ehrkit.cli import run
from ehrkit.ehrhart import hstar_polytope
from ehrkit.geometry import polytope_from_json_dict
from ehrkit.gradedpoly import GradedPolynomial as GP
from ehrkit.decomposition import DecompositionReport
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


def test_usage_errors(capsys):
    assert run(["hstar"]) == 2
    assert "usage error" in capsys.readouterr().err
    assert run(["hstar", "--vertices", "0.5,1"]) == 2
    err = capsys.readouterr().err
    assert "--vertices" in err
    assert run(["hstar", "-f", "does-not-exist.json"]) == 2
    assert "-f" in capsys.readouterr().err
    assert run(["nonsense"]) == 2
    capsys.readouterr()


def test_computation_error_exit_code(capsys):
    # a segment in the plane is not full-dimensional
    assert run(["hstar", "--vertices", "0,0; 1,1"]) == 1
    assert "NotFullDimensional" in capsys.readouterr().err


def test_verify_computes_hstar_once_per_polytope(square2_file, p52_file, monkeypatch, capsys):
    calls = count_calls(monkeypatch, hstar_polytope)
    assert run(["verify", "-f", square2_file, "-f", p52_file]) == 0
    capsys.readouterr()
    assert len(calls) == 2


def test_dump_triangulation_reuses_the_cone(square2_file, tmp_path, monkeypatch, capsys):
    counts = [count_calls(monkeypatch, fn) for fn in (find_interior_point, _generic_point)]
    assert run(["boundary", "-f", square2_file,
                "--dump-triangulation", str(tmp_path / "tri.json")]) == 0
    capsys.readouterr()
    assert [len(calls) for calls in counts] == [1, 1]
