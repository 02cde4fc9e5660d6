"""The element corpus pinned in tests/pinned/elements.txt: the solver's
basis elements and their membership checks, one line per key.

A key is (row, inner, p, variant, char): the rows are the acceptance
GRID and (3, 5, 3) and (4, 6, 2), the inner windows 1 and 4 (each solved
on W = solver_margin + inner), the degrees p = 0..2n + 1, both variants
and the fields F_2, F_3 and F_5.  Each basis element is expanded to its
members ((family, i, a, b), slot, coefficient), by vertex and then slot,
a form that does not depend on how an element is held, and hashed with
sha256; beside that hash stands its check_membership on the windows it
was solved on, (ok, why, naturality_rows, sign_rows).  An element is
cut to the inner box, so the sign law fails at the box's edge: the
check pins every naturality row, the vertex named and the sign-law rows
counted up to it.  A key's line is

    r n m inner p variant char <elements> <sha256>

where the sha256 is that of the elements' lines "<sha256 of the members>
<ok> <why> <naturality_rows> <sign_rows>" in basis order, each ended by a
newline.

Regenerate the file, from the repository root, with

    PYTHONPATH=src python tests/pin_elements.py

and list the change, with its reason, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from gradedcenter.acceptance import GRID
from gradedcenter.center import check_membership, solve_component, solver_margin
from gradedcenter.gentle import OmegaParams
from gradedcenter.model import ModelParams

from slot_map_membership import slot_map

PINNED = Path(__file__).parent / "pinned" / "elements.txt"

ROWS = GRID + [(3, 5, 3), (4, 6, 2)]
INNER = (1, 4)
VARIANTS = ("graded", "commutative")
CHARS = (2, 3, 5)


def keys() -> list:
    """The corpus's keys ((r, n, m), inner, p, variant, char), in order."""
    return [((r, n, m), inner, p, variant, char)
            for r, n, m in ROWS for inner in INNER for p in range(2 * n + 2)
            for variant in VARIANTS for char in CHARS]


def members(params: ModelParams, el) -> tuple:
    """el's members ((family, i, a, b), slot, coefficient), by vertex and
    then slot."""
    return tuple((key, s, c) for key, value in sorted(slot_map(params, el).items())
                 for s, c in sorted(value.items()))


def line(rnm: tuple, inner: int, p: int, variant: str, char: int) -> str:
    """The corpus's line for one key, computed afresh."""
    omega = OmegaParams(*rnm)
    W = solver_margin(omega) + inner
    params = ModelParams(omega, W)
    basis = solve_component(params, p, variant, char, W, inner).basis
    rows = []
    for el in basis:
        got = check_membership(params, el, W, inner, char=char, variant=variant)
        digest = hashlib.sha256(repr(members(params, el)).encode()).hexdigest()
        rows.append(f"{digest} {got[0]} {got[1]} {got.naturality_rows} {got.sign_rows}\n")
    digest = hashlib.sha256("".join(rows).encode()).hexdigest()
    return " ".join(map(str, (*rnm, inner, p, variant, char, len(basis), digest)))


def run() -> list:
    """The corpus's lines, computed afresh, one per key in order."""
    return [line(*key) for key in keys()]


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    lines = run()
    PINNED.write_text("".join(line + "\n" for line in lines))
    print(f"{len(lines)} keys pinned in {PINNED}", file=sys.stderr)
