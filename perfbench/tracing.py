"""Spans at the boundaries between the benchmark and gradedcenter's modules.

A boundary is a name that one module imported from another.  The tracer
rebinds that name in the calling module's namespace to a wrapper that
records one span per call: its name, start, end, parent span and one
count taken from the call (steps, arrows, hits, ...).  Calls inside one
module keep their direct reference and stay unwrapped.  Spans live in
flat arrays while the run lasts; summary() derives each span's self time,
its duration minus the time of its child spans, and write() stores the
spans when the run ends.

Wrappers are installed only around traced executions, so an untraced
execution runs the library exactly as a user would.  A worker process
forked while they are installed inherits them switched off: worker spans
never reach the parent, so recording them would only cost time.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from contextlib import contextmanager


def _arg(args, kwargs, index, name):
    """An argument of the wrapped call, passed by position or by name."""
    return kwargs[name] if name in kwargs else args[index]


# (module holding the caller's reference, name, span, count per call)
BOUNDARIES = [
    ("workloads", "solve_component", "center.solve_component", lambda a, k, r: len(r.basis)),
    ("workloads", "make_generator", "center.make_generator", lambda a, k, r: len(r.assignment)),
    ("workloads", "check_membership", "center.check_membership", lambda a, k, r: int(r[0])),
    ("workloads", "reconcile", "ring.reconcile", lambda a, k, r: _arg(a, k, 3, "degree_bound") + 1),
    ("gradedcenter.center", "hom_basis", "hom.hom_basis", lambda a, k, r: int(bool(r.basis))),
    ("gradedcenter.center", "enumerate_vertices", "model.enumerate_vertices", lambda a, k, r: len(r)),
    ("gradedcenter.center", "arrow_of_degree", "model.arrow_of_degree", lambda a, k, r: int(r is not None)),
    ("gradedcenter.center", "sigma_pow", "model.sigma_pow", lambda a, k, r: abs(_arg(a, k, 2, "p"))),
    ("gradedcenter.hom", "sigma_pow", "model.sigma_pow", lambda a, k, r: abs(_arg(a, k, 2, "p"))),
    ("gradedcenter.center", "sigma", "model.sigma", None),
    ("gradedcenter.center", "sigma_mor_pow", "model.sigma_mor_pow", lambda a, k, r: _arg(a, k, 2, "p")),
    ("gradedcenter.center", "compose", "model.compose", None),
    ("gradedcenter.center", "arrows_from", "model.arrows_from", lambda a, k, r: len(r)),
    ("gradedcenter.center", "arrows_to", "model.arrows_to", lambda a, k, r: len(r)),
    ("gradedcenter.center", "FieldScalar", "gf.FieldScalar", None),
    ("gradedcenter.ring", "FieldScalar", "gf.FieldScalar", None),
    # reconcile looks its table row up in its own module; this is the one
    # call inside a module that is wrapped, because its cost is a metric
    ("gradedcenter.ring", "theorem_case", "ring.theorem_case", None),
    # only ever called inside reconcile's pool workers
    ("gradedcenter.ring", "solve_component", "center.solve_component", lambda a, k, r: len(r.basis)),
]

SPAN_NAMES = sorted({span for _mod, _name, span, _count in BOUNDARIES})


class Tracer:
    def __init__(self):
        self.active = False
        self._name = array("B")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._count = array("q")
        self._stack = [-1]
        ids = {span: i for i, span in enumerate(SPAN_NAMES)}
        self._bindings = []
        for module, name, span, count in BOUNDARIES:
            mod = sys.modules[module]
            fn = getattr(mod, name)
            self._bindings.append((mod, name, fn, self._wrap(fn, ids[span], count)))
        os.register_at_fork(after_in_child=self._in_child)

    def _in_child(self):
        self.active = False

    def _wrap(self, fn, name_id, count):
        names, parents, starts, ends, counts = (
            self._name, self._parent, self._start, self._end, self._count
        )
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            counts.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                counts[idx] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Trace every boundary call made inside the block."""
        for mod, name, _fn, wrapper in self._bindings:
            setattr(mod, name, wrapper)
        self.active = True
        try:
            yield
        finally:
            self.active = False
            for mod, name, fn, _wrapper in self._bindings:
                setattr(mod, name, fn)

    def __len__(self):
        return len(self._name)

    def _arrays(self):
        import numpy as np

        return (
            np.frombuffer(self._name, dtype=np.uint8),
            np.frombuffer(self._parent, dtype=np.int64),
            np.frombuffer(self._start, dtype=np.float64),
            np.frombuffer(self._end, dtype=np.float64),
            np.frombuffer(self._count, dtype=np.int64),
        )

    def summary(self) -> dict:
        """{span: {"calls", "self_s", "wall_s", "count"}} over every span
        recorded; spans still open (an exception escaped) do not occur,
        because the wrapper closes its span in a finally block."""
        import numpy as np

        names, parents, starts, ends, counts = self._arrays()
        dur = ends - starts
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        k = len(SPAN_NAMES)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=dur - child, minlength=k)
        wall_s = np.bincount(names, weights=dur, minlength=k)
        total = np.bincount(names, weights=counts, minlength=k)
        return {
            span: {
                "calls": int(calls[i]),
                "self_s": float(self_s[i]),
                "wall_s": float(wall_s[i]),
                "count": int(total[i]),
            }
            for i, span in enumerate(SPAN_NAMES)
        }

    def write(self, path) -> None:
        """Store every span: names index SPAN_NAMES, parent -1 is a root."""
        import numpy as np

        names, parents, starts, ends, counts = self._arrays()
        np.savez(
            path,
            span_names=np.array(SPAN_NAMES),
            name=names,
            parent=parents,
            start=starts,
            end=ends,
            count=counts,
        )
