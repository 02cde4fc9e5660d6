"""Run pytest in-process under a line trace of src/gradedcenter/, and print
each executable line of it that never ran, as `path:line: source`.

    PYTHONPATH=src python tests/trace_lines.py [pytest args]

The arguments go to pytest unchanged, so `-q tests/test_gentle.py` traces
one file.  sys.settrace (and threading.settrace) hands a line tracer only
to frames whose code lies under src/gradedcenter/, so the tests themselves
run at the speed of plain tracing.  The package must not be imported
before the trace starts, or its module-level lines would read as never
run; pytest imports it while it collects.  Worker processes are not
traced.

A line is executable when its code object holds an instruction on it
other than RESUME (the function's entry, which fires no line event).  A
line of an implicit `return None` counts as run when that return runs.
The script exits with pytest's exit code."""

from __future__ import annotations

import dis
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gradedcenter"


# opcodes that fire no line event (CACHE is an inline cache slot)
SILENT = {dis.opmap[name] for name in ("RESUME", "CACHE") if name in dis.opmap}


def executable_lines(path: Path) -> set:
    """The lines of path that carry an instruction other than RESUME, over
    the module's code and every code object nested in it."""
    lines: set = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        for start, end, line in code.co_lines():
            if line is not None and set(code.co_code[start:end:2]) - SILENT:
                lines.add(line)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def main(argv: list) -> int:
    # each file name a frame reports, resolved once: the set of lines run
    # in it, or None outside the package
    ran: dict = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in ran:
            path = Path(filename).resolve()
            ran[filename] = ran.setdefault(str(path), set()) if path.parent == PACKAGE else None
        hit = ran[filename]
        if hit is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                hit.add(frame.f_lineno)
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran.get(str(path), set())):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} executable lines of src/gradedcenter/ never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
