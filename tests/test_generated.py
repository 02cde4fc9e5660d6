"""Generated cases that shrink: properties drawn by Hypothesis beyond the
fixed grids the other tests sweep.  Every run draws the same examples
(derandomize) and keeps no database, so the suite stays deterministic;
a failure is reported as the smallest case the shrinker found."""

from hypothesis import given, settings
from hypothesis import strategies as st

from gradedcenter.center import (
    _build_system,
    _cells,
    _held,
    _span,
    _System,
    check_membership,
    membership_margin,
    solve_component,
    solver_margin,
)
from gradedcenter.gentle import OmegaParams
from gradedcenter.model import ModelParams

import line_build
from object_membership import check_membership as object_check_membership

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


@st.composite
def degree_zero_builds(draw):
    n = draw(st.integers(1, 9))
    omega = OmegaParams(draw(st.integers(1, n)), n, draw(st.integers(0, 6)))
    inner = draw(st.integers(1, 20))
    return omega, solver_margin(omega) + inner, inner, 0


@settings(max_examples=80, **SETTINGS)
@given(case=degree_zero_builds())
def test_degree_zero_build_matches_line_build(case):
    # degree 0, which the draws above seldom reach and never at a large
    # window: the identity's component, settled from the layout, against
    # the union loop of the line build
    got = _build_system.__wrapped__(*case)
    want = line_build.build_system(*case)
    for name in _System._fields:
        assert getattr(got, name) == getattr(want, name), (case, name)


@settings(max_examples=300, **SETTINGS)
@given(
    n=st.integers(1, 10),
    data=st.data(),
    variant=st.sampled_from(("graded", "commutative")),
    char=st.sampled_from((2, 3, 5, 7)),
    k=st.integers(0, 2),
)
def test_solver_basis_passes_membership(n, data, variant, char, k):
    # every basis element of a drawn degree, solved on an inner window k
    # past the membership margin, then checked on that window with inner
    # window 1, where the whole check fits inside the solved box (as
    # tests/pin_memberships.py does), by the check and by the object check
    # it replaced
    omega = OmegaParams(data.draw(st.integers(1, n)), n, data.draw(st.integers(0, 7)))
    p = data.draw(st.integers(0, 2 * n + 1))
    inner = membership_margin(omega) + 1 + k
    W = solver_margin(omega) + inner
    params = ModelParams(omega, W)
    for el in solve_component(params, p, variant, char, W, inner).basis:
        case = (omega, p, variant, char, inner)
        assert check_membership(params, el, inner, 1, char=char, variant=variant) == (True, None), case
        assert object_check_membership(params, el, inner, 1, char=char, variant=variant) == (True, None), case
