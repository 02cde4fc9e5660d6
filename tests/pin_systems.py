"""The system corpus pinned in tests/pinned/systems.txt: the solver's
built systems (center._System), one line per system.

The keys are the element corpus's (tests/pin_elements.py) less the
variant and the field, which a system does not depend on: (row, inner,
p), solved on W = solver_margin + inner.  A key's line is

    r n m inner p <sha256>

where the sha256 is that of the repr of the system's fields in order:
the work counts, classes, readings, lines, root and sign.

Regenerate the file, from the repository root, with

    PYTHONPATH=src python tests/pin_systems.py

and list the change, with its reason, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from gradedcenter.center import _build_system, solver_margin
from gradedcenter.gentle import OmegaParams

import pin_elements

PINNED = Path(__file__).parent / "pinned" / "systems.txt"


def keys() -> list:
    """The corpus's keys ((r, n, m), inner, p), in the element corpus's
    order."""
    return list(dict.fromkeys((rnm, inner, p) for rnm, inner, p, _, _ in pin_elements.keys()))


def line(rnm: tuple, inner: int, p: int) -> str:
    """The corpus's line for one key, from the system as built."""
    omega = OmegaParams(*rnm)
    system = _build_system(omega, solver_margin(omega) + inner, inner, p)
    digest = hashlib.sha256(repr(tuple(system)).encode()).hexdigest()
    return " ".join(map(str, (*rnm, inner, p, digest)))


def run() -> list:
    """The corpus's lines, one per key in order."""
    return [line(*key) for key in keys()]


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    lines = run()
    PINNED.write_text("".join(line + "\n" for line in lines))
    print(f"{len(lines)} keys pinned in {PINNED}", file=sys.stderr)
