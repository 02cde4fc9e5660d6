"""The per-gap plans that gradedcenter.center's _build_system replaced,
kept as the oracle of its plan pieces (center._plan_pieces, whose line
at gap t reads plans[bisect_right(cuts, t)]).  The two functions are the
ones it replaced, unchanged: _line_plans works out a line's plan gap by
gap with model.arrow_kind and the cell rule _row_pattern
(tests/row_pattern.py), and _plan_bound is the gap beyond which that
plan stops changing.
oracle_plans caches _line_plans over the gaps the plan tests read."""

from functools import lru_cache

from gradedcenter.hom import frame, in_gaps
from gradedcenter.model import ModelParams, arrow_kind

from row_pattern import _row_pattern


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
    of a target offset (ModelParams.generators) and a coordinate of a Sigma^p
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
    along, rows) per generating arrow (ModelParams.generators) whose row
    pattern is not empty, in that order.  The target of (f, i, a, a + t) is
    (g, j, a + da, a + da + u), at the gap u = du plus t where along is
    set; rows is _row_pattern at the a where both ends lie in the box.
    The plans are read off the frame's slot intervals (hom.frame), so they
    hold the slots of a target line the box does not reach, and they
    depend on the gap and never on the window."""
    shift_p, gaps, vertex_gaps = frame(params.omega, p)
    rules = params.rules

    def slot_gaps(g: str, j: int) -> list:
        return [(s, gaps[g, j, s]) for s in (-1, 0, 1, 2) if (g, j, s) in gaps]

    mine = slot_gaps(f, i)
    targets = [(g, j, da, db - da, degree, along, vertex_gaps[g, j], shift_p[g, j], slot_gaps(g, j))
               for g, j, da, db, degree, along in params.generators[f, i]]
    plans = []
    for t in range(t0, t1 + 1):
        v = (f, i, 0, t)
        v_slots = [s for s, interval in mine if in_gaps(interval, t)]
        plan = []
        for g, j, da, du, degree, along, exists, shift, theirs in targets:
            u = (t if along else 0) + du
            w = (g, j, da, da + u)
            if not in_gaps(exists, u) or arrow_kind(rules, *v, *w, degree) is None:
                continue
            w_slots = [s for s, interval in theirs if in_gaps(interval, u)]
            rows = _row_pattern(rules, v, w, degree, shift, v_slots, w_slots)
            if rows:
                plan.append((g, j, da, du, along, rows))
        plans.append(tuple(plan))
    return plans


@lru_cache(maxsize=None)
def oracle_plans(omega, p: int, f: str, i: int) -> tuple[int, int, list]:
    """(B, t0, plans) for the lines (f, i) of omega in degree p: B is
    _plan_bound at Sigma^p of (f, i), and plans[t - t0] is _line_plans's
    plan at t for t = t0..-t0, t0 = -2B - 3.  A plan equal to the one
    before it is that same object, so the cache holds each run of equal
    plans once."""
    bound = _plan_bound(omega, frame(omega, p)[0][f, i])
    t0 = -2 * bound - 3
    plans: list = []
    for plan in _line_plans(ModelParams(omega), p, f, i, t0, -t0):
        plans.append(plans[-1] if plans and plans[-1] == plan else plan)
    return bound, t0, plans
