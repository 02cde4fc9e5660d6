"""Generated cases that shrink: properties drawn by Hypothesis beyond the
fixed grids the other tests sweep.  Every run draws the same examples
(derandomize) and keeps no database, so the suite stays deterministic;
a failure is reported as the smallest case the shrinker found."""

from hypothesis import given, settings
from hypothesis import strategies as st

from gradedcenter.center import (
    GENERATOR_NAMES,
    GeneratorSpec,
    _build_system,
    _cells,
    _held,
    _SignedForest,
    _span,
    _System,
    check_membership,
    make_generator,
    membership_margin,
    multiply,
    solve_component,
    solver_margin,
)
from gradedcenter.gentle import OmegaParams
from gradedcenter.model import ModelParams

import line_build
import object_products
import signed_forest_before
from object_membership import check_membership as object_check_membership
from slot_map_membership import expand_lines

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


@st.composite
def forest_steps(draw):
    # a forest of count unknowns and the steps taken on it: a union
    # ("unite", x0, y0, length, s) of two aligned ranges, which may meet
    # or coincide, with s = +-1 on a signed forest and +1 on an unsigned
    # one, or a zero mark ("zero", x0, length) set by the caller
    count = draw(st.integers(1, 24))
    signed = draw(st.booleans())
    steps = []
    for _ in range(draw(st.integers(1, 12))):
        length = draw(st.integers(1, count))
        x0, y0 = (draw(st.integers(0, count - length)) for _ in range(2))
        if draw(st.integers(0, 3)):
            steps.append(("unite", x0, y0, length, draw(st.sampled_from((1, -1))) if signed else 1))
        else:
            steps.append(("zero", x0, length))
    return count, signed, steps


def marks_at_roots(forest, marks: bytearray) -> set:
    """The roots of the components that hold a marked unknown."""
    return {forest.root[x] for x, marked in enumerate(marks) if marked}


@settings(max_examples=400, **SETTINGS)
@given(case=forest_steps())
def test_signed_forest_matches_the_forest_it_replaced(case):
    # the flat forest, signed and unsigned, against the one it replaced,
    # which signs every unknown at every degree: each union's merges, and
    # after every step the roots, the signs and the zero and parity marks
    # read at roots
    count, signed, steps = case
    got, want = _SignedForest(count, signed), signed_forest_before._SignedForest(count)
    for step in steps:
        if step[0] == "unite":
            assert got.unite(*step[1:]) == want.unite(*step[1:]), step
        else:
            _, x0, length = step
            for forest in (got, want):
                forest.zero[x0:x0 + length] = b"\1" * length
        assert got.root == want.root and got.sign == want.sign, step
        assert marks_at_roots(got, got.zero) == marks_at_roots(want, want.zero), step
        assert marks_at_roots(got, got.parity) == marks_at_roots(want, want.parity), step


@st.composite
def factors(draw):
    # two factors on one (r, n, m) and window, each an admissible
    # generator or an element of a solver basis of a drawn degree,
    # variant and characteristic (degree 0's scalar where the degree has
    # none)
    n = draw(st.integers(1, 5))
    omega = OmegaParams(draw(st.integers(1, n)), n, draw(st.integers(0, 3)))
    inner = draw(st.integers(1, 3))
    W = solver_margin(omega) + inner
    params = ModelParams(omega, W)
    specs = [spec for spec in (GeneratorSpec(name, q) for name in GENERATOR_NAMES for q in range(3))
             if spec.admissible(params)[0]]
    pair = []
    for _ in range(2):
        if specs and draw(st.booleans()):
            pair.append(make_generator(params, draw(st.sampled_from(specs)), W))
            continue
        variant = draw(st.sampled_from(("graded", "commutative")))
        char = draw(st.sampled_from((2, 3, 5, 7)))
        basis = solve_component(params, draw(st.integers(0, 2 * n + 1)), variant, char, W, inner).basis
        pair.append(draw(st.sampled_from(basis or solve_component(params, 0, variant, char, W, inner).basis)))
    return params, pair


@settings(max_examples=100, **SETTINGS)
@given(case=factors())
def test_multiply_matches_object_products(case):
    # the product on line maps against the object product it replaced,
    # which suspends and composes every value: the degree, the variant,
    # every value in vertex order, and whether the product is zero
    params, (a, b) = case
    got = multiply(params, a, b)
    want = object_products.multiply(params, a, b)
    assert (got.p, got.variant) == (want.p, want.variant)
    assert list(got.assignment.items()) == list(want.assignment.items())
    assert got.is_zero() == want.is_zero()


@settings(max_examples=100, **SETTINGS)
@given(
    n=st.integers(1, 8),
    data=st.data(),
    variant=st.sampled_from(("graded", "commutative")),
    char=st.sampled_from((2, 3, 5, 7)),
)
def test_inner_report_does_not_grow_with_the_window(n, data, variant, char):
    # the report on a drawn inner window, solved on the least window the
    # solver admits and on windows 1 and 3 larger: its dimensions, its
    # classes, its residual and each basis element's line map, cell by
    # cell over F_char.  A parity-flagged component, which survives only
    # in characteristic 2, reads its signs off the order of the merges,
    # which the window moves: on (1, 1, 1) at p = 1, inner window 1, the
    # power class holds -1 at X(0)[0, 1] on the least window and +1 on
    # the next (_named_components)
    omega = OmegaParams(data.draw(st.integers(1, n)), n, data.draw(st.integers(0, 6)))
    p = data.draw(st.integers(0, 2 * n + 1))
    inner = data.draw(st.integers(1, 4))
    reports = []
    for grow in (0, 1, 3):
        W = solver_margin(omega) + inner + grow
        rep = solve_component(ModelParams(omega, W), p, variant, char, W, inner)
        elements = [{cell: {s: c % char for s, c in value.items()}
                     for cell, value in expand_lines(el.assignment.lines).items()} for el in rep.basis]
        reports.append((rep.scalar_dim, rep.power_dim, rep.class_dims, rep.residual, elements))
    case = (omega, p, variant, char, inner)
    assert reports[1] == reports[0], case
    assert reports[2] == reports[0], case
