"""The per-gap plans that gradedcenter.center's _build_system replaced,
kept as the oracle of its plan pieces (center._plan_pieces).  The two
functions are the ones it replaced, unchanged: _line_plans works out a
line's plan gap by gap with model.arrow_kind and center._row_pattern, and
_plan_bound is the gap beyond which that plan stops changing."""

from gradedcenter.center import _frame, _in_gaps, _row_pattern, _targets
from gradedcenter.model import ModelParams, arrow_kind


def _plan_bound(omega, shift: tuple) -> int:
    """B for the lines of one (family, i), where shift is Sigma^p there
    as (j, da, db): max(|da|, |db|) + n + m + 2.  A line's plan
    (_line_plans) at a gap t with |t| >= B is its plan at t clamped to
    [-B, B].

    The plan is made of tests on t: whether a target is a vertex and
    carries a generator, which slots the line and the target hold
    (model.hom_gaps) and which rows the pattern keeps.  Each compares a
    difference of coordinates with a region side's offset, 0, m or -n,
    and the difference is c0 + s t with slope s in {-1, 0, 1} and c0 made
    of a target offset (_targets) and a coordinate of a Sigma^p
    translation: each is a constant of (omega, p).  A test against the
    threshold c flips at most once, at t = c, so it is settled for
    |t| >= |c| + 1.  Every |c| is at most M + max(n, m) + 1, where M =
    max(|da|, |db|):
    - the target tests compare offsets alone: |c| <= max(n, m) + 1;
    - the line's slots and its own (family, i) targets, at gap t + 1 or
      t - 1, move by Sigma^p at (family, i): |c| <= M + max(n, m) + 1;
    - X's e' corner targets gap 0, and Z's slots do not depend on the
      gap.  A row to another index or into Z has a kind only where
      Sigma^p keeps the index, at p = 0 mod r, where Sigma^p is whole
      cycles: the same translation at every index of X, and on Z the
      same as on X in a (which g' bounds) and as on Y in b (which g''
      bounds).  There |c| <= M + m, or M + n for the offset -n of Y's
      arrow into Z at index 0."""
    return max(abs(shift[1]), abs(shift[2])) + omega.n + omega.m + 2


def _line_plans(params: ModelParams, p: int, f: str, i: int, t0: int, t1: int) -> list:
    """The plans of the lines (f, i, t) in degree p, for t = t0..t1 in
    turn.  A line's plan is its naturality rows: one (g, j, da, du,
    along, rows) per generating target (_targets) whose row pattern is
    not empty, in _targets' order.  The target of (f, i, a, a + t) is
    (g, j, a + da, a + da + u), at the gap u = du plus t where along is
    set; rows is _row_pattern at the a where both ends lie in the box.
    The plans are read off the frame's slot intervals (_frame), so they
    hold the slots of a target line the box does not reach, and they
    depend on the gap and never on the window."""
    shift_p, gaps, vertex_gaps = _frame(params.omega, p)
    rules = params.rules

    def slot_gaps(g: str, j: int) -> list:
        return [(s, gaps[g, j, s]) for s in (-1, 0, 1, 2) if (g, j, s) in gaps]

    mine = slot_gaps(f, i)
    targets = [(g, j, da, db - da, degree, along, vertex_gaps[g, j], shift_p[g, j], slot_gaps(g, j))
               for g, j, da, db, degree, along in _targets(params, f, i)]
    plans = []
    for t in range(t0, t1 + 1):
        v = (f, i, 0, t)
        v_slots = [s for s, interval in mine if _in_gaps(interval, t)]
        plan = []
        for g, j, da, du, degree, along, exists, shift, theirs in targets:
            u = (t if along else 0) + du
            w = (g, j, da, da + u)
            if not _in_gaps(exists, u) or arrow_kind(rules, *v, *w, degree) is None:
                continue
            w_slots = [s for s, interval in theirs if _in_gaps(interval, u)]
            rows = _row_pattern(rules, v, w, degree, shift, v_slots, w_slots)
            if rows:
                plan.append((g, j, da, du, along, rows))
        plans.append(tuple(plan))
    return plans
