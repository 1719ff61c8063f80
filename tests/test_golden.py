"""Byte-for-byte pins of the command line outputs.

``tests/golden_outputs.json`` holds, for each command below, its exit
code and the sha256 of its standard output, text and ``--json``, on
every corpus quiver, plus ``corpus --json``.  The test recomputes them
in-process through ``cli.main``; a refactor that claims "byte-identical
output" is checked here.  To regenerate the file after an intended
output change, run

    PYTHONPATH=src python tests/test_golden.py

and say in the change log which outputs moved and why.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from ribbonorders import CORPUS_NAMES
from ribbonorders.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"

PER_QUIVER = [
    ["basis"],
    ["cartan"],
    *(["frobenius", "--field", f] for f in ("gf2", "gf3", "Q")),
    *(
        ["quotient", "--field", f, *extra]
        for f in ("gf3", "Q")
        for extra in ([], ["--untwisted"], ["-m", "2"])
    ),
    *(["decide", "--field", f, "-m", m] for f in ("gf3", "Q") for m in ("1", "2")),
    # the characteristic-two and m = 3 branches of the quotient builder
    ["quotient", "--field", "gf2"],
    ["quotient", "--field", "gf3", "-m", "3"],
    ["decide", "--field", "gf2", "-m", "2"],
]


def commands():
    for name in CORPUS_NAMES:
        for cmd in PER_QUIVER:
            argv = [cmd[0], f"corpus:{name}", *cmd[1:]]
            yield argv
            yield argv + ["--json"]
    yield ["corpus", "--json"]


def run(argv):
    """(exit code, sha256 of stdout) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return [code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()]


def outputs():
    return {" ".join(argv): run(argv) for argv in commands()}


def test_cli_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = outputs()
    assert list(got) == list(golden)
    changed = [cmd for cmd in golden if got[cmd] != golden[cmd]]
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:5]}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(outputs(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
