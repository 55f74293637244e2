"""tools/ladder.py: the schema of its JSON file, on a two-rung run."""

import importlib.util
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ehrkit import errors
from ehrkit.errors import EhrkitError, WalkTooLarge

LADDER = Path(__file__).resolve().parent.parent / "tools" / "ladder.py"
spec = importlib.util.spec_from_file_location("ladder", LADDER)
ladder = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ladder)

TYPED = {name for name, cls in inspect.getmembers(errors, inspect.isclass)
         if issubclass(cls, EhrkitError)}


def test_two_rung_run_writes_the_schema(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(LADDER), "--rungs",
                    "random-d3-q2,codenominator-5005,cross-6d", "--out", str(out)],
                   check=True, capture_output=True)
    print(out.read_text(encoding="utf-8"))  # the ladder's figures, shown with pytest -s
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["schema"] == ladder.SCHEMA and doc["repeats"] == ladder.REPEATS and doc["commit"]
    assert doc["src_tree"] == "unknown" or re.fullmatch("[0-9a-f]{40}", doc["src_tree"])
    assert doc["calls"] == list(ladder.CALLS)
    assert doc["oracle_scanline_bound"] == ladder.ORACLE_SCANLINE_BOUND
    assert list(doc["rungs"]) == ["cross-6d", "random-d3-q2", "codenominator-5005"]  # in order
    for rung in doc["rungs"].values():
        assert {"d", "q", "points", "vertices", "oracle_scanlines"} <= set(rung)
        assert list(rung["calls"]) == doc["calls"]
        for call in rung["calls"].values():
            if call["outcome"] == "skipped":
                assert call["median_s"] is call["q1_s"] is call["q3_s"] is None
            else:
                assert call["outcome"] in TYPED | {"ok"}
                assert 0 < call["q1_s"] <= call["median_s"] <= call["q3_s"], call
    cross, rational = doc["rungs"]["cross-6d"], doc["rungs"]["random-d3-q2"]
    assert cross["oracle_scanlines"] > ladder.ORACLE_SCANLINE_BOUND
    assert cross["calls"]["hstar_from_counts"]["outcome"] == "skipped"
    assert cross["calls"]["hstar_polytope"]["outcome"] == "ok"
    # its rational series walks too many residues: refused, and recorded
    assert rational["calls"]["rational_series"]["outcome"] == "WalkTooLarge"
    # the polygon CI times at r = 5005: its series is in reach
    codenominator = doc["rungs"]["codenominator-5005"]
    assert codenominator["q"] == 2 and codenominator["calls"]["rational_series"]["outcome"] == "ok"


def test_a_typed_error_is_an_outcome_and_any_other_propagates():
    def refuse():
        raise WalkTooLarge("too many residues")
    (q1, median, q3), outcome = ladder.timed(refuse)
    assert outcome == "WalkTooLarge" and 0 <= q1 <= median <= q3
    with pytest.raises(ZeroDivisionError):
        ladder.timed(lambda: 1 // 0)


def test_unknown_rungs_are_a_usage_error(tmp_path):
    run = subprocess.run([sys.executable, str(LADDER), "--rungs", "cube-9d",
                          "--out", str(tmp_path / "bench.json")], capture_output=True, text=True)
    assert run.returncode == 2 and "unknown rungs: cube-9d" in run.stderr
