"""Products of center elements: multiply on runs against the object
oracle, and the ring structure read off the solver's own bases."""

import random

import pytest

from gradedcenter.acceptance import GRID
from gradedcenter.center import (
    CenterElement,
    GeneratorSpec,
    _class_of,
    _named_components,
    make_generator,
    multiply,
    power_visible,
    solve_component,
    solver_margin,
)
from gradedcenter.gentle import OmegaParams
from gradedcenter.model import ModelParams, Morphism, Vertex, arrow_of_degree
from gradedcenter.ring import theorem_case

import object_products
from morphisms import identity, of_gen, plus, scaled
from slot_map_membership import expand_lines


def params_for(r, n, m, window=10):
    return ModelParams(OmegaParams(r, n, m), window)


def _assert_same_product(params, a, b):
    got = multiply(params, a, b)
    want = object_products.multiply(params, a, b)
    assert (got.p, got.variant) == (want.p, want.variant)
    assert list(got.assignment.items()) == list(want.assignment.items())
    assert got.is_zero() == want.is_zero()
    return got


def test_multiply_matches_object_products_on_criterion_7():
    # every product acceptance criterion 7 forms, on its windows
    W = 12
    pr = params_for(1, 2, 0, W)
    gens = [make_generator(pr, GeneratorSpec(name, q), W)
            for name in ("eta_prime", "eta_dprime", "eta_zero") for q in range(3)]
    for a in gens:
        for b in gens:
            _assert_same_product(pr, a, b)
    pr = params_for(1, 1, 0, W)
    eta1 = make_generator(pr, GeneratorSpec("eta_power", 1), W)
    for q in range(3):
        ez = make_generator(pr, GeneratorSpec("eta_zero", q), W)
        _assert_same_product(pr, eta1, ez)
        _assert_same_product(pr, ez, eta1)
    for r, n, m in ((1, 1, 0), (2, 2, 1), (3, 3, 0)):
        Wp = 4 * (n + m) + 10
        prm = params_for(r, n, m, Wp)
        eta = power = make_generator(prm, GeneratorSpec("eta_power", 1), Wp)
        for _ in range(2, 5):
            power = _assert_same_product(prm, power, eta)
            assert not power.is_zero()


def _thinned(el, rng):
    """el built by hand with each cell dropped at odds 1 in 3 and each
    coefficient drawn from {-1, 1, 2}."""
    values = {v: Morphism(v, mor.target, {t: rng.choice((-1, 1, 2)) for t in mor.terms})
              for v, mor in el.assignment.items() if rng.randrange(3)}
    return CenterElement(el.p, el.variant, values)


@pytest.mark.parametrize("rnm", [(1, 1, 0), (1, 2, 0), (2, 2, 1), (1, 3, 1), (2, 3, 0), (3, 3, 1)], ids=str)
def test_multiply_matches_object_products_on_thinned_factors(rnm):
    # factors with holes, so that one factor holds a cell the other lacks
    # inside the span both hold, and with coefficients other than the
    # solver's: 60 seeded products of the degree 0..2 basis elements at
    # inner window 3, each factor thinned on its own
    r, n, m = rnm
    inner = 3
    W = solver_margin(params_for(r, n, m)) + inner
    params = params_for(r, n, m, W)
    elements = [el for p in range(3) for el in solve_component(params, p, "graded", 3, W, inner).basis]
    rng = random.Random(str(rnm))
    for _ in range(60):
        _assert_same_product(params, _thinned(rng.choice(elements), rng), _thinned(rng.choice(elements), rng))


def test_multiply_cancels_terms():
    # (id + e')(id - e') = id - e' o e' = id at degree 0 on r = 1, m = 0:
    # the two e' terms cancel, and e' o e' has degree 4, so no arrow
    params = params_for(1, 2, 0, 6)
    line = [Vertex("X", 0, a, a + 1) for a in range(-6, 6)]
    e = {v: of_gen(arrow_of_degree(params, v, v, 2)) for v in line}
    a = CenterElement(0, "graded", {v: plus(identity(v), e[v]) for v in line})
    b = CenterElement(0, "graded", {v: plus(identity(v), scaled(e[v], -1)) for v in line})
    got = _assert_same_product(params, a, b)
    assert dict(got.assignment) == {v: identity(v) for v in line}


@pytest.mark.parametrize("rnm", GRID, ids=str)
def test_multiply_matches_object_products_on_solver_bases(rnm):
    # every pair of basis elements in degrees 0..2n on inner window 2
    r, n, m = rnm
    inner = 2
    W = solver_margin(params_for(r, n, m)) + inner
    params = params_for(r, n, m, W)
    for variant, char in (("graded", 3), ("commutative", 2)):
        bases = [solve_component(params, p, variant, char, W, inner).basis for p in range(2 * n + 1)]
        for left in bases:
            for right in bases:
                for a in left:
                    for b in right:
                        _assert_same_product(params, a, b)


def _classes(rep):
    """The class of each element of rep.basis, in basis order: 'scalar',
    'power' or a socle class (family, q)."""
    return [_class_of(tags) for parity, tags, _ in _named_components(rep)
            if not (parity and rep.char != 2)]


def _coordinates(params, product, basis, char):
    """product written in basis, a degree's solver basis: each element's
    coordinate is read at its first member.  The components have disjoint
    supports, so the combination must equal product at every slot."""
    got = {(key, s): c % char
           for key, value in expand_lines(product.assignment.lines).items() for s, c in value.items() if c % char}
    want: dict = {}
    coords = []
    for el in basis:
        members = [(key, s, c) for key, value in expand_lines(el.assignment.lines).items() for s, c in value.items()]
        key, s, c = members[0]
        coord = got.get((key, s), 0) * c % char
        coords.append(coord)
        for key, s, c in members:
            if coord * c % char:
                want[key, s] = coord * c % char
    assert got == want
    return coords


# every row r <= n <= 6, m <= 3; the GRID rows keep their ids
WIDE = [(r, n, m) for n in range(1, 7) for r in range(1, n + 1) for m in range(4)]


@pytest.mark.parametrize("rnm", WIDE, ids=str)
def test_solver_bases_multiply_as_the_table_says(rnm):
    # The table's T(base, socle): the scalar is the unit, the power class
    # times itself is a nonzero multiple of the power class, and a socle
    # class times a socle class or an element of positive degree is 0.
    # Degrees run to 2k, k the base's generator degree, or to 2n for the
    # base F.  multiply is pointwise, (a.b)_v = Sigma^{p_b}(a_v) o b_v
    # reads both factors at v alone, so a product of two elements cut to
    # the inner box is their product cut to that box: the box on which a
    # product is valid is no smaller than its factors', and _coordinates
    # compares the whole of it.
    r, n, m = rnm
    seen, expect = set(), {"unit"}
    for variant, char in (("graded", 2), ("graded", 3), ("commutative", 3)):
        row = theorem_case(OmegaParams(r, n, m), char, variant)
        expect |= {"power"} if row.base != "F" else set()
        expect |= {"socle"} if row.socle else set()
        top = 2 * n if row.base == "F" else 2 * row.base[1]
        inner = 2
        while row.base != "F" and not power_visible(params_for(r, n, m), top, inner):
            inner += 1
        W = solver_margin(params_for(r, n, m)) + inner
        params = params_for(r, n, m, W)
        reps = [solve_component(params, p, variant, char, W, inner) for p in range(top + 1)]
        classes = [_classes(rep) for rep in reps]
        for p1 in range(top + 1):
            for p2 in range(top + 1 - p1):
                for x, a in zip(classes[p1], reps[p1].basis):
                    for y, b in zip(classes[p2], reps[p2].basis):
                        coords = _coordinates(params, multiply(params, a, b), reps[p1 + p2].basis, char)
                        case = (variant, char, p1, p2, x, y)
                        if x == "scalar" or y == "scalar":
                            unit = [int(z is (b if x == "scalar" else a)) for z in reps[p1 + p2].basis]
                            assert coords == unit, case
                            seen.add("unit")
                        elif x == y == "power":
                            power = [z == "power" for z in classes[p1 + p2]]
                            assert [bool(c) for c in coords] == power, case
                            seen.add("power")
                        else:
                            assert not any(coords), case
                            seen.add("socle")
    assert seen == expect
