"""CLI outputs over the corpus, pinned by their sha256 digests.

Each corpus polytope runs info, hstar, boundary, interior, decompose,
gorenstein, rational and rational --decompose with --json; hstar and boundary
also write --dump-triangulation, whose file is digested too.  Lower-dimensional
members run with --project.  The rational commands skip the member in
SLOW_RATIONAL: at r = 30030, rational and rational --decompose each take
6-8 s on a 2-CPU machine.
A refactor that changes no result keeps every digest.  After a change that
is meant to alter output, regenerate the golden file with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile
from contextlib import redirect_stdout

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from ehrkit.cli import run  # noqa: E402
from ehrkit.corpus import standard_corpus  # noqa: E402

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_cli.json"
COMMANDS = ("info", "hstar", "boundary", "interior", "decompose", "gorenstein",
            "rational", "rational --decompose")
DUMPED = ("hstar", "boundary")
SLOW_RATIONAL = ("random-d2-q3-0",)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_digests() -> dict:
    """{"<polytope> <command>[ dump]": sha256 of the exit code and stdout, or of the dump}."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, P in standard_corpus():
            source = os.path.join(tmp, name + ".json")
            with open(source, "w", encoding="utf-8") as fh:
                json.dump(P.to_json_dict(), fh)
            for command in COMMANDS:
                if command.startswith("rational") and name in SLOW_RATIONAL:
                    continue
                argv = command.split() + ["-f", source, "--json"]
                if not P.is_full_dimensional:
                    argv.append("--project")
                dump = os.path.join(tmp, "%s-%s-dump.json" % (name, command))
                if command in DUMPED:
                    argv += ["--dump-triangulation", dump]
                stdout = io.StringIO()
                with redirect_stdout(stdout):
                    code = run(argv)
                out["%s %s" % (name, command)] = _sha(
                    ("%d\n" % code + stdout.getvalue()).encode())
                if command in DUMPED:
                    with open(dump, "rb") as fh:
                        out["%s %s dump" % (name, command)] = _sha(fh.read())
    return out


def test_cli_outputs_match_golden_digests():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = cli_digests()
    changed = sorted(key for key in golden.keys() | actual.keys()
                     if golden.get(key) != actual.get(key))
    assert not changed, "CLI output differs from tests/golden_cli.json for: " + ", ".join(changed)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(cli_digests(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
