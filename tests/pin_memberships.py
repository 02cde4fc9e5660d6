"""The membership corpus pinned in tests/pinned/memberships.txt: the
check_membership of every solver basis element beyond the acceptance
grid, one line per check.

For every r <= n <= 6 and m <= 3, each degree p = 0..2n + 1 is solved
with inner window membership_margin + 1 on W = solver_margin + inner,
graded over F_3, commutative over F_3 and graded over F_2.  Each basis
element is checked on the window inner with inner window 1, where the
whole check fits inside the solved box.  A check's line is

    r n m p variant char k <ok> <why> <naturality_rows> <sign_rows>

where k is the element's place in the basis.

Regenerate the file, from the repository root, with

    PYTHONPATH=src python tests/pin_memberships.py

and list the change, with its reason, in CHANGES.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

from gradedcenter.center import check_membership, membership_margin, solve_component, solver_margin
from gradedcenter.gentle import OmegaParams
from gradedcenter.model import ModelParams

PINNED = Path(__file__).parent / "pinned" / "memberships.txt"

NS = range(1, 7)
CASES = (("graded", 3), ("commutative", 3), ("graded", 2))


def checks(n: int):
    """The checks of one n, in order, as ((r, n, m, p, variant, char, k),
    check_membership's result)."""
    for r in range(1, n + 1):
        for m in range(4):
            omega = OmegaParams(r, n, m)
            inner = membership_margin(omega) + 1
            W = solver_margin(omega) + inner
            params = ModelParams(omega, W)
            for p in range(2 * n + 2):
                for variant, char in CASES:
                    for k, el in enumerate(solve_component(params, p, variant, char, W, inner).basis):
                        yield (r, n, m, p, variant, char, k), \
                            check_membership(params, el, inner, 1, char=char, variant=variant)


def line(key: tuple, got) -> str:
    """The corpus's line for one check."""
    return " ".join(map(str, (*key, *got, got.naturality_rows, got.sign_rows)))


def pinned(n: int) -> list:
    """The pinned lines of one n, in order."""
    return [row for row in PINNED.read_text().splitlines() if row.split(" ", 2)[1] == str(n)]


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    lines = [line(key, got) for n in NS for key, got in checks(n)]
    PINNED.write_text("".join(row + "\n" for row in lines))
    print(f"{len(lines)} checks pinned in {PINNED}", file=sys.stderr)
