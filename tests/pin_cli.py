"""The CLI corpus pinned in tests/pinned/cli.txt: each command with its exit
code and the sha256 of its stdout and of its stderr.

The commands are the README examples, `center --stats` on (3, 4, 2) at
W = 40 for p = 0..7 and at W = 80 for p = 4, `lambda` on every GRID row
and `validate` on what it printed, `ring` on every GRID row under both
variants over F_2 and F_3, `validate` on the quivers of tests/test_cli.py,
criterion 9's calls and the CLI's input errors.  `check` is left out:
test_acceptance.py::test_criterion pins its detail strings.

The commands run in-process (cli.main), in a directory that holds the
quiver files they read, so every path in an argv is relative and the
output names no directory of the machine.

Regenerate the file, from the repository root, with

    PYTHONPATH=src python tests/pin_cli.py

and list the change, with its reason, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import os
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from gradedcenter.acceptance import GRID
from gradedcenter.cli import main

PINNED = Path(__file__).parent / "pinned" / "cli.txt"

# the quivers of tests/test_cli.py that are not a Lambda(r, n, m)
QUIVERS = {
    "star.quiver": "vertices: c x y z\narrow a: c -> x\narrow b: c -> y\narrow d: c -> z\n",
    "empty.quiver": "",
    "tree.quiver": "vertices: x y\narrow a: x -> y\n",
    "bad.quiver": "vertices: 1\nfrobnicate: 1\n",
}


def _params(r: int, n: int, m: int) -> list:
    return ["--r", str(r), "--n", str(n), "--m", str(m)]


def commands() -> list:
    """The corpus, in order.  A `lambda` command on a GRID row is followed
    by `validate` on the file lambda_<r>_<n>_<m>.quiver, which run()
    writes from that command's stdout."""
    readme = [
        ["lambda", *_params(2, 3, 1)],
        ["hom", *_params(1, 2, 0), "--family", "Y", "--i", "0", "--a", "0", "--b", "3", "--p", "2"],
        ["center", *_params(1, 2, 0), "--p", "2", "--variant", "graded", "--field", "3", "--window", "12"],
        ["center", *_params(1, 2, 0), "--p", "2", "--variant", "graded", "--field", "3", "--window", "12",
         "--stats"],
        ["ring", *_params(1, 1, 0), "--char", "2"],
        ["ar", *_params(1, 1, 0), "--window", "1"],
    ]
    stats = [["center", *_params(3, 4, 2), "--p", str(p), "--window", "40", "--stats"] for p in range(8)]
    stats.append(["center", *_params(3, 4, 2), "--p", "4", "--window", "80", "--stats"])
    quivers = []
    for r, n, m in GRID:
        quivers += [["lambda", *_params(r, n, m)], ["validate", f"lambda_{r}_{n}_{m}.quiver"]]
    quivers += [["validate", name] for name in QUIVERS] + [["validate", "/no/such/file.quiver"]]
    rings = [["ring", *_params(r, n, m), "--variant", variant, "--char", char]
             for r, n, m in GRID for variant in ("graded", "commutative") for char in ("2", "3")]
    criterion_9 = [
        ["hom", *_params(1, 2, 0), "--family", "Y", "--i", "0", "--a", "0", "--b", "2", "--p", "1"],
        ["center", *_params(1, 2, 0), "--p", "2", "--variant", "graded", "--field", "3", "--window", "10"],
        ["ar", *_params(2, 3, 0), "--window", "1"],
    ]
    errors = [
        ["lambda", *_params(3, 2, 0)],
        ["hom", *_params(1, 2, 0), "--family", "X", "--i", "0", "--a", "1", "--b", "0", "--p", "0"],
        ["hom", *_params(1, 2, 0), "--family", "X", "--i", "0", "--a", "0", "--b", "2", "--p", "-1"],
        ["center", *_params(2, 3, 1), "--p", "0", "--window", "9"],
        ["ring", *_params(1, 2, 0), "--char", "6"],
        ["ring", *_params(1, 1, 0), "--char", "3317044064679887385961981"],
        ["ar", *_params(1, 2, 0), "--window", "9"],
    ]
    return readme + stats + quivers + rings + criterion_9 + errors


def run() -> list:
    """The corpus's lines, computed afresh: "<exit> <sha256 of stdout>
    <sha256 of stderr> <argv>", the argv quoted by shlex.join."""
    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as td:
        os.chdir(td)
        try:
            for name, text in QUIVERS.items():
                Path(name).write_text(text)
            for argv in commands():
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(argv)
                out, err = out.getvalue(), err.getvalue()
                if argv[0] == "lambda" and code == 0:
                    Path("lambda_{}_{}_{}.quiver".format(*argv[2::2])).write_text(out)
                digest = [hashlib.sha256(text.encode()).hexdigest() for text in (out, err)]
                lines.append(f"{code} {digest[0]} {digest[1]} {shlex.join(argv)}")
        finally:
            os.chdir(cwd)
    return lines


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    lines = run()
    PINNED.write_text("".join(line + "\n" for line in lines))
    print(f"{len(lines)} commands pinned in {PINNED}", file=sys.stderr)
