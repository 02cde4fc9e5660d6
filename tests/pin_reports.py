"""The report corpus pinned in tests/pinned/reports.txt: the solver's
reports and the reconcile passes of criterion 5, one line per key.

It has two parts.  The first holds one line per key of the element
corpus (tests/pin_elements.py), (row, inner, p, variant, char), solved
on W = solver_margin + inner: the report's seven work counts
(center.WORK_COUNTS, in that order) and the sha256 of its format_lines(),
each ended by a newline.  Whether the call built its system is left out,
since that depends on the calls made before it.  A line is

    report r n m inner p variant char <work counts> <sha256>

The second holds one line per reconcile pass of criterion 5, in the
criterion's order: each GRID row on W = solver_margin + n + m + 4, to
degree 2n, under both variants over F_2 and F_3.  Beside ok stands the
sha256 of the pass's lines and then its mismatches, each ended by a
newline.  A line is

    reconcile r n m W variant char <ok> <lines> <mismatches> <sha256>

where <lines> and <mismatches> are their counts.

Regenerate the file, from the repository root, with

    PYTHONPATH=src python tests/pin_reports.py

and list the change, with its reason, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from gradedcenter.acceptance import GRID
from gradedcenter.center import WORK_COUNTS, solve_component, solver_margin
from gradedcenter.gentle import OmegaParams
from gradedcenter.model import ModelParams
from gradedcenter.ring import reconcile

import pin_elements

PINNED = Path(__file__).parent / "pinned" / "reports.txt"


def _digest(lines) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def report_line(rnm: tuple, inner: int, p: int, variant: str, char: int) -> str:
    """The corpus's line for one element-corpus key, computed afresh."""
    W = solver_margin(OmegaParams(*rnm)) + inner
    rep = solve_component(ModelParams(OmegaParams(*rnm), W), p, variant, char, W, inner)
    counts = [getattr(rep, name) for name in WORK_COUNTS]
    return " ".join(map(str, ("report", *rnm, inner, p, variant, char, *counts, _digest(rep.format_lines()))))


def passes() -> list:
    """Criterion 5's reconcile passes ((r, n, m), W, variant, char), in order."""
    return [((r, n, m), solver_margin(OmegaParams(r, n, m)) + n + m + 4, variant, char)
            for r, n, m in GRID for variant in ("graded", "commutative") for char in (2, 3)]


def reconcile_line(rnm: tuple, W: int, variant: str, char: int) -> str:
    """The corpus's line for one reconcile pass, computed afresh."""
    rep = reconcile(ModelParams(OmegaParams(*rnm), W), char, variant, 2 * rnm[1], W)
    digest = _digest(rep.lines + rep.mismatches)
    return " ".join(map(str, ("reconcile", *rnm, W, variant, char, rep.ok, len(rep.lines),
                              len(rep.mismatches), digest)))


def keys() -> list:
    """The corpus's keys, in order: (report_line, key) and then
    (reconcile_line, key) pairs."""
    return ([(report_line, key) for key in pin_elements.keys()]
            + [(reconcile_line, key) for key in passes()])


def run() -> list:
    """The corpus's lines, computed afresh, one per key in order."""
    return [make(*key) for make, key in keys()]


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    lines = run()
    PINNED.write_text("".join(line + "\n" for line in lines))
    print(f"{len(lines)} keys pinned in {PINNED}", file=sys.stderr)
