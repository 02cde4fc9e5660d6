"""Generated cases that shrink: properties drawn by Hypothesis beyond the
fixed grids the other tests sweep.  Every run draws the same examples
(derandomize) and keeps no database, so the suite stays deterministic;
a failure is reported as the smallest case the shrinker found."""

from hypothesis import given, settings
from hypothesis import strategies as st

from gradedcenter.center import _build_system, _cells, _held, _span, _System, solver_margin
from gradedcenter.gentle import OmegaParams

import line_build

SETTINGS = dict(derandomize=True, database=None, deadline=None)

interval = st.tuples(st.integers(-12, 12), st.integers(-12, 12))


@settings(max_examples=300, **SETTINGS)
@given(
    W=st.integers(1, 8),
    t=st.integers(-18, 18),
    a=interval,
    b=interval,
    gaps=interval,
    block=st.lists(st.integers(0, 5), min_size=1, max_size=8),
    roots=st.sets(st.integers(0, 5), max_size=4),
)
def test_span_cells_and_held_are_brute_force(W, t, a, b, gaps, block, roots):
    # _span: the a of the cells (a, a + t) of the box [-W, W]^2, listed
    # one by one, empty exactly where no cell has the gap
    box = range(-W, W + 1)
    a_lo, a_hi = _span(W, t)
    assert list(range(a_lo, a_hi + 1)) == [x for x in box if x + t in box]
    # _cells: the cells of the rectangle a x b with gap in gaps, counted
    # one by one, empty intervals included
    count = sum(gaps[0] <= y - x <= gaps[1]
                for x in range(a[0], a[1] + 1) for y in range(b[0], b[1] + 1))
    assert _cells(a, b, gaps) == count
    # _held: the roots that occur in the block
    assert set(_held(block, roots)) == roots.intersection(block)


@st.composite
def builds(draw):
    n = draw(st.integers(1, 9))
    omega = OmegaParams(draw(st.integers(1, n)), n, draw(st.integers(0, 6)))
    inner = draw(st.integers(1, 6))
    return omega, solver_margin(omega) + inner, inner, draw(st.integers(0, 4 * n + 1))


@settings(max_examples=150, **SETTINGS)
@given(case=builds())
def test_build_matches_line_build(case):
    # the plan build against the line-by-line build it replaced, field
    # for field, root and sign included
    got = _build_system.__wrapped__(*case)
    want = line_build.build_system(*case)
    for name in _System._fields:
        assert getattr(got, name) == getattr(want, name), (case, name)
