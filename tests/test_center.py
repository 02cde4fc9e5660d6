import importlib.util
import pickle
import random
import re
from bisect import bisect_right
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

import gradedcenter.center as center_module
import gradedcenter.ring as ring_module
from gradedcenter.acceptance import GRID
from gradedcenter.center import (
    CenterElement,
    GeneratorSpec,
    _build_system,
    _held,
    _lines,
    _plan_pieces,
    _slot_map,
    _SlotView,
    _span,
    _System,
    check_membership,
    class_visibility_map,
    law_sign,
    make_generator,
    membership_margin,
    multiply,
    power_visible,
    solve_component,
    solver_margin,
)
from gradedcenter.gentle import OmegaParams
from gradedcenter.hom import frame
from gradedcenter.model import (
    KIND_TABLE,
    ArrowGen,
    ModelParams,
    Morphism,
    Vertex,
    arrow_of_degree,
    arrows_from,
    compose,
    enumerate_vertices,
    hom_gaps,
    least_gap,
    sigma,
    sigma_mor_pow,
    sigma_pow,
    sigma_shift,
    vertex_exists,
)
from gradedcenter.ring import reconcile, theorem_case

from arrow_walk_membership import check_membership as arrow_walk_check_membership
import cell_generators
from cell_generators import _solve_sigma_exponent
import line_build
from line_plans import oracle_plans
import vertex_build
import visibility_loop
from membership_span import unimplied_rows
from morphisms import identity, is_zero, of_gen, plus, scaled
from named_components import named_components
from null_space_oracle import SparseMatrix, null_space
from probed_hom import probed_hom
from object_membership import check_membership as object_check_membership
from object_solver import solve_component as object_solve_component
import pin_elements
import pin_memberships
import pin_reports
import pin_systems
import slot_map_membership
from slot_map_membership import expand, expand_lines, named_members


def params_for(r, n, m, window=10):
    return ModelParams(OmegaParams(r, n, m), window)


def test_solve_sigma_exponent_inverts_sigma_pow():
    for r, n, m in GRID:
        p = params_for(r, n, m)
        for family in p.families:
            for i in range(r):
                base = Vertex(family, i, 0, n if family == "Y" else 0)
                for q in range(-3 * r, 3 * r + 1):
                    assert _solve_sigma_exponent(p, base, sigma_pow(p, base, q)) == q
                # Sigma^r moves a and b by the same amount on X and Y, and
                # moves a on Z, so this vertex is no Sigma-shift of base
                off = Vertex(family, i, base.a, base.b + 1)
                with pytest.raises(ValueError, match="not a Sigma-shift"):
                    _solve_sigma_exponent(p, base, off)


def test_generator_spec_validation():
    GeneratorSpec("eta_prime", 2)
    with pytest.raises(ValueError):
        GeneratorSpec("eta_quux")
    with pytest.raises(ValueError):
        GeneratorSpec("eta_zero", -1)


def test_generator_admissibility():
    cases = [
        ("eta_prime", (1, 2, 0), True),
        ("eta_prime", (1, 3, 0), False),
        ("eta_dprime", (3, 4, 2), True),
        ("eta_zero", (1, 3, 0), True),
        ("eta_zero", (1, 3, 1), False),
        ("eta_zero", (1, 1, 0), True),
        ("eta_zero", (1, 1, 1), False),
        ("eta_zero", (2, 2, 0), False),
        ("eta_power", (2, 2, 1), True),
        ("eta_power", (1, 2, 0), False),
    ]
    for name, rnm, expected in cases:
        ok, why = GeneratorSpec(name).admissible(params_for(*rnm))
        assert ok == expected, (name, rnm, why)
        if not expected:
            with pytest.raises(ValueError):
                make_generator(params_for(*rnm), GeneratorSpec(name), 8)


def test_generator_admissibility_matches_the_table():
    # a generator is admissible exactly when the table row has its
    # component: eta_power a polynomial base, eta_zero the socle item at
    # shift 0, eta_prime and eta_dprime the one at shift n
    for n in range(1, 8):
        for r in range(1, n + 1):
            for m in range(5):
                params = params_for(r, n, m)
                row = theorem_case(params, 2, "commutative")
                shifts = {shift for shift, _ in row.socle}
                want = {
                    "eta_power": row.base != "F",
                    "eta_zero": 0 in shifts,
                    "eta_prime": n in shifts,
                    "eta_dprime": n in shifts,
                }
                for name, expected in want.items():
                    assert GeneratorSpec(name).admissible(params)[0] == expected, (name, r, n, m)


def test_generator_degrees():
    p = params_for(2, 3, 1)
    assert GeneratorSpec("eta_prime", 5).degree(p) == 3
    assert GeneratorSpec("eta_zero", 5).degree(params_for(1, 3, 0)) == 0
    assert GeneratorSpec("eta_power", 2).degree(params_for(3, 3, 0)) == 6


def test_eta_prime_support_and_signs():
    # odd n makes the suspension-exponent parity visible in coefficients
    p = params_for(2, 3, 0, window=8)
    el = make_generator(p, GeneratorSpec("eta_prime", 0), 8)
    assert el.p == 3 and el.variant == "graded"
    for v, mor in el.assignment.items():
        assert v.family == "Y"
        gap = 3 if v.i == 0 else 0
        assert v.b - v.a == gap
        (gen, coeff), = mor.terms.items()
        assert gen.degree == 2
        assert coeff in (1, -1)
    base = Vertex("Y", 0, 0, 3)
    sv = sigma(p, base)
    assert el.assignment[base].terms[arrow_of_degree(p, base, sigma_pow(p, base, 3), 2)] == 1
    gen_sv = arrow_of_degree(p, sv, sigma_pow(p, sv, 3), 2)
    assert el.assignment[sv].terms[gen_sv] == -1


def test_eta_dprime_is_unsigned_twin():
    p = params_for(2, 3, 0, window=8)
    signed = make_generator(p, GeneratorSpec("eta_prime", 1), 8)
    plain = make_generator(p, GeneratorSpec("eta_dprime", 1), 8)
    assert plain.variant == "commutative"
    assert signed.assignment.keys() == plain.assignment.keys()
    for v, mor in plain.assignment.items():
        (gen, coeff), = mor.terms.items()
        assert coeff == 1
        assert set(signed.assignment[v].terms) == {gen}


def test_eta_zero_support():
    p = params_for(1, 3, 0, window=6)
    el = make_generator(p, GeneratorSpec("eta_zero", 2), 6)
    assert el.p == 0
    assert set(el.assignment) == {Vertex("X", 0, a, a + 2) for a in range(-6, 5)}
    for v, mor in el.assignment.items():
        (gen, coeff), = mor.terms.items()
        assert (gen.source, gen.target, gen.degree) == (v, v, 2)
        assert coeff == 1


def test_eta_power_zero_is_identity_assignment():
    p = params_for(1, 1, 0, window=5)
    el = make_generator(p, GeneratorSpec("eta_power", 0), 5)
    assert el.p == 0
    for v, mor in el.assignment.items():
        assert mor == identity(v)
    assert len(el.assignment) == len(enumerate_vertices(p))


def test_center_element_basics():
    v = Vertex("X", 0, 0, 0)
    el = CenterElement(0, "graded", {v: scaled(identity(v), 3)})
    assert not el.is_zero()
    assert el.is_zero(3)
    p = params_for(1, 1, 0)
    w = Vertex("X", 0, 0, 5)
    assert is_zero(el.value_at(p, w))
    with pytest.raises(ValueError):
        CenterElement(0, "projective", {})
    with pytest.raises(ValueError):
        CenterElement(-1, "graded", {})


def test_assignment_view_builds_no_morphism(monkeypatch):
    # the tracer counts a generator by len(el.assignment); len, in, key
    # iteration, is_zero, products and membership read the slot map, and
    # a Morphism is built only when a value is read
    built = []
    init = Morphism.__post_init__
    monkeypatch.setattr(Morphism, "__post_init__", lambda mor: (built.append(mor), init(mor))[1])
    p = params_for(2, 3, 1, window=10)
    el = make_generator(p, GeneratorSpec("eta_dprime", 1), 10)
    view = el.assignment
    keys = list(view)
    assert len(view) == len(keys) == len(set(view)) > 0
    assert all(v in view for v in keys) and Vertex("X", 0, 0, 0) not in view and "Y" not in view
    assert view.keys() == make_generator(p, GeneratorSpec("eta_prime", 1), 10).assignment.keys()
    assert not el.is_zero() and multiply(p, el, el).is_zero()
    assert check_membership(p, el, 10, 6)[0]
    rep = solve_component(params_for(1, 2, 0, window=9), 2, "graded", 3, 9, 3)
    assert len(rep.basis[0].assignment) > 0
    assert built == []
    mor = view[keys[0]]
    assert built == [mor] and el.value_at(p, keys[0]) == mor


def test_multiply_unit_law():
    p = params_for(1, 1, 0, window=6)
    unit = make_generator(p, GeneratorSpec("eta_power", 0), 6)
    ez = make_generator(p, GeneratorSpec("eta_zero", 1), 6)
    for prod in (multiply(p, unit, ez), multiply(p, ez, unit)):
        assert prod.p == ez.p
        assert prod.assignment == ez.assignment


def test_multiply_power_additivity():
    p = params_for(1, 1, 0, window=12)
    e1 = make_generator(p, GeneratorSpec("eta_power", 1), 12)
    e2 = make_generator(p, GeneratorSpec("eta_power", 2), 12)
    prod = multiply(p, e1, e1)
    assert prod.p == e2.p == 2
    for v in e2.assignment:
        if abs(v.a) <= 9 and abs(v.b) <= 9:
            diff = plus(prod.value_at(p, v), scaled(e2.value_at(p, v), -1))
            assert is_zero(diff), v


def test_membership_margin_and_window_guard():
    p = params_for(2, 3, 1)
    assert membership_margin(p) == 4
    el = make_generator(p, GeneratorSpec("eta_dprime", 0), 10)
    with pytest.raises(ValueError):
        check_membership(p, el, 10, 7)  # 7 + 4 > 10
    with pytest.raises(ValueError):
        check_membership(p, el, 10, 0)
    with pytest.raises(ValueError):
        check_membership(p, el, 10, 5, variant="projective")
    with pytest.raises(ValueError, match="window must be >= 1"):
        make_generator(params_for(1, 2, 0), GeneratorSpec("eta_prime", 0), -3)


def test_membership_defaults_the_variant_only_when_none():
    # an empty variant is an unknown one, not a request for el's own law
    p = params_for(2, 3, 1)
    el = make_generator(p, GeneratorSpec("eta_prime", 1), 10)
    assert el.variant == "graded" and el.p % 2
    assert check_membership(p, el, 10, 5) == check_membership(p, el, 10, 5, variant="graded")
    for bad in ("", "bogus"):
        with pytest.raises(ValueError, match=f"unknown variant {bad!r}"):
            check_membership(p, el, 10, 5, variant=bad)


def test_law_sign_table():
    # eta Sigma = law_sign * Sigma eta: (-1)^p under the graded law, +1
    # under the commutative one, at negative degrees too
    for p in range(-3, 7):
        assert law_sign("graded", p) == (-1) ** (p % 2), p
        assert law_sign("commutative", p) == 1, p


def test_unknown_variant_message_is_unchanged_at_every_reader():
    # every variant check reads law_sign and raises its one message
    params = params_for(2, 3, 1)
    el = make_generator(params, GeneratorSpec("eta_dprime", 0), 10)
    readers = [
        lambda v: law_sign(v, 1),
        lambda v: CenterElement(3, v, {}),
        lambda v: check_membership(params, el, 10, 5, variant=v),
        lambda v: solve_component(params, 1, v, 3, 12, 3),
        lambda v: theorem_case(params, 3, v),
    ]
    for bad in ("projective", "", "Graded"):
        for read in readers:
            with pytest.raises(ValueError) as caught:
                read(bad)
            assert str(caught.value) == f"unknown variant {bad!r}"


def test_membership_variant_table():
    # even n: both sign laws hold; odd n: the swapped variant needs char 2
    p = params_for(1, 2, 0, window=10)
    eta = make_generator(p, GeneratorSpec("eta_prime", 0), 10)
    assert check_membership(p, eta, 10, 6, char=3)[0]
    assert check_membership(p, eta, 10, 6, char=3, variant="commutative")[0]
    p = params_for(2, 3, 0, window=10)
    eta = make_generator(p, GeneratorSpec("eta_prime", 0), 10)
    assert check_membership(p, eta, 10, 6, char=3)[0]
    ok, why = check_membership(p, eta, 10, 6, char=3, variant="commutative")
    assert not ok and "sign law" in why
    assert check_membership(p, eta, 10, 6, char=2, variant="commutative")[0]


def test_membership_rejects_broken_element():
    # zero out one support vertex: naturality fails at an arrow into it
    p = params_for(1, 2, 0, window=10)
    eta = make_generator(p, GeneratorSpec("eta_dprime", 0), 10)
    broken = dict(eta.assignment)
    del broken[Vertex("Y", 0, 0, 2)]
    el = CenterElement(eta.p, eta.variant, broken)
    ok, why = check_membership(p, el, 10, 6, char=3)
    assert not ok
    assert "naturality" in why or "sign law" in why


def test_membership_rejects_value_outside_its_hom_space():
    p = params_for(1, 2, 0, window=10)
    eta = make_generator(p, GeneratorSpec("eta_dprime", 0), 10)
    v = Vertex("Y", 0, 0, 2)
    el = CenterElement(eta.p, eta.variant, {**eta.assignment, v: identity(v)})
    with pytest.raises(ValueError, match="not in Hom"):
        check_membership(p, el, 10, 6)
    # right endpoints, but every e'' term relabelled as an arrow of
    # another degree or kind, none of which Hom(v, Sigma^n v) holds
    eta = make_generator(p, GeneratorSpec("eta_prime", 1), 10)
    for kind, degree in (("e''", 0), ("e''", 1), ("e''", 3), ("e'", 2)):
        assignment = {}
        for v, mor in eta.assignment.items():
            (gen, coeff), = mor.terms.items()
            gen = ArrowGen(kind, gen.source, gen.target, degree)
            assignment[v] = of_gen(gen, coeff)
        with pytest.raises(ValueError, match="not in Hom"):
            check_membership(p, CenterElement(eta.p, eta.variant, assignment), 10, 6)
    # the right kind and endpoints, but no arrow: f' is no arrow X(0)[0,0]
    # -> X(0)[1,1] = Sigma X(0)[0,0] on (1, 1, 0), so products reject it
    # too, whichever factor holds it; so does a view read in another degree
    p = params_for(1, 1, 0, window=10)
    v = Vertex("X", 0, 0, 0)
    f1 = CenterElement(1, "graded", {v: of_gen(ArrowGen("f'", v, sigma_pow(p, v, 1), 0))})
    unit = CenterElement(0, "graded", {v: identity(v)})
    eta = make_generator(p, GeneratorSpec("eta_power", 1), 10)
    for el in (f1, CenterElement(eta.p + 1, eta.variant, eta.assignment)):
        with pytest.raises(ValueError, match="not in Hom"):
            check_membership(p, el, 10, 6)
        with pytest.raises(ValueError, match="not in Hom"):
            multiply(p, el, unit)
        with pytest.raises(ValueError, match="not in Hom"):
            multiply(p, unit, el)


BOX10 = [(a, b) for a in range(-10, 11) for b in range(-10, 11)]


# cells of a family or index that the parameters lack, or below the least
# gap of their family: -m = -1 at X(0) of (2, 2, 1), 0 at X(1)
@pytest.mark.parametrize("rnm, cells", [
    ((2, 2, 0), [Vertex("Y", i, a, b) for i in range(2) for a, b in BOX10]),
    ((2, 2, 1), [Vertex("X", i, a, b) for i in range(2) for a, b in BOX10]),
    ((2, 2, 1), [Vertex("X", 1, 0, -1)]),
    ((2, 3, 0), [Vertex("X", 5, 0, 0)]),
    ((2, 3, 0), [Vertex("Q", 0, 0, 0)]),
], ids=["Y on (2, 2, 0)", "X box on (2, 2, 1)", "X(1) gap -1 on (2, 2, 1)", "X(5) on (2, 3, 0)",
        "Q on (2, 3, 0)"])
def test_values_off_the_vertices_are_rejected(rnm, cells):
    # the identity at cells that are not vertices: the first two were
    # accepted as central, the third was checked as if X(1)[0,-1] were a
    # vertex, and the last two failed on a lookup (KeyError); the third
    # also catches a gate that reads X(1)'s least gap 0 as missing
    params = params_for(*rnm)
    el = CenterElement(0, "graded", {v: identity(v) for v in cells})
    with pytest.raises(ValueError, match=r"no vertex .* for these parameters"):
        check_membership(params, el, 10, 6)
    with pytest.raises(ValueError, match=r"no vertex .* for these parameters"):
        multiply(params, el, el)
    with pytest.raises(ValueError, match=r"no vertex .* for these parameters"):
        multiply(params, CenterElement(0, "graded", {}), el)
    # on the vertices alone, the identity is central
    vertices = {v: identity(v) for v in cells
                if v.family in params.families and 0 <= v.i < params.r
                and vertex_exists(params, v.family, v.i, (v.a, v.b))}
    el = CenterElement(0, "graded", vertices)
    assert check_membership(params, el, 10, 6) == (True, None)
    assert multiply(params, el, el).assignment == el.assignment


@pytest.mark.parametrize("rnm", GRID + [(3, 5, 3), (4, 6, 2)], ids=str)
def test_frame_matches_the_model(rnm):
    # each table of hom.frame against fresh model calls, p = -1..4n+2
    params = ModelParams(OmegaParams(*rnm))
    keys = [(f, i) for f in params.families for i in range(params.r)]
    for p in range(-1, 4 * params.n + 3):
        shift, gaps, vertex_gaps = frame(params.omega, p)
        assert list(shift) == keys and list(vertex_gaps) == keys, p
        want = {}
        for f, i in keys:
            assert shift[f, i] == sigma_shift(params, f, i, p), (f, i, p)
            assert vertex_gaps[f, i] == (least_gap(params, f, i), None), (f, i, p)
            if p == 0:
                want[f, i, -1] = (None, None)
            for s in (0, 1, 2):
                hom = hom_gaps(params, f, i, s, sigma_shift(params, f, i, p))
                if hom is not None:
                    want[f, i, s] = hom
        assert gaps == want, p


def _perfbench_inputs():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def _membership_cases(extra):
    """Every criterion-4 generator on the window whose inner box is the
    extra-th one past the least that meets its support, both as listed
    in perfbench/inputs.py (membership_specs, support_inner)."""
    inputs = _perfbench_inputs()
    for r, n, m, name, q in inputs.membership_specs():
        inner = inputs.support_inner(r, n, m, name, q) + extra
        W = inputs.membership_margin(n, m) + inner
        params = params_for(r, n, m, window=W)
        yield params, make_generator(params, GeneratorSpec(name, q), W), W, inner


@pytest.mark.parametrize("extra", [0, 1, 2])
def test_membership_matches_object_membership(extra):
    # every (variant, char) on the least window; one seeded draw on the
    # two wider ones, whose checks cost up to five times as much
    pairs = [(variant, char) for variant in ("graded", "commutative") for char in (2, 3, 5)]
    rng = random.Random(extra)
    for params, el, W, inner in _membership_cases(extra):
        for variant, char in pairs if extra == 0 else [rng.choice(pairs)]:
            got = check_membership(params, el, W, inner, char=char, variant=variant)
            want = object_check_membership(params, el, W, inner, char=char, variant=variant)
            assert got == want, (params.omega, el.p, W, variant, char)


def _counted(got):
    """A Membership as (ok, why, naturality_rows, sign_rows)."""
    return (*got, got.naturality_rows, got.sign_rows)


def test_membership_matches_slot_map_check():
    # the check on runs against the cell-by-cell check on slot maps that
    # it replaced: verdict, witness and both row counts, on every
    # criterion-4 generator, the benchmark's three windows and every
    # (variant, char)
    pairs = [(variant, char) for variant in ("graded", "commutative") for char in (2, 3, 5)]
    seen = set()
    for extra in (0, 1, 2):
        for params, el, W, inner in _membership_cases(extra):
            for variant, char in pairs:
                got = check_membership(params, el, W, inner, char=char, variant=variant)
                want = slot_map_membership.check_membership(params, el, W, inner, char=char, variant=variant)
                assert _counted(got) == want, (params.omega, el.p, W, variant, char)
                seen.add(got[0])
    assert seen == {True, False}


@pytest.mark.parametrize("rnm", [(1, 1, 1), (2, 2, 1), (2, 2, 2)], ids=str)
def test_membership_counts_every_arrow_into_the_support(rnm):
    # the identity on the gap-0 lines alone, times char: every row holds,
    # so every arrow into the support is counted, X's e' corner from each
    # line (i - 1, a, b') of the inner box included
    for char in (2, 3):
        params = params_for(*rnm)
        el = make_generator(params, GeneratorSpec("eta_power", 0), 10)
        diagonal = {v: scaled(mor, char) for v, mor in el.assignment.items() if v.a == v.b}
        el = CenterElement(0, el.variant, diagonal)
        got = check_membership(params, el, 10, 3, char=char)
        assert got[0]
        assert _counted(got) == slot_map_membership.check_membership(params, el, 10, 3, char=char)


def test_membership_counts_the_arrows_into_thinned_solver_elements():
    # every solver basis element of each GRID row at inner window 3, p =
    # 0..2n+1 (graded, F_3), thinned to every other line, each kept piece
    # cut to the upper half of its a-range, then times char: every row
    # holds, so every arrow is counted, and the empty lines and the cut
    # halves leave many arrows entering the support from off it
    cases = 0
    for r, n, m in GRID:
        params = params_for(r, n, m)
        inner = 3
        W = solver_margin(params) + inner
        for p in range(2 * n + 2):
            for el in solve_component(params, p, "graded", 3, W, inner).basis:
                kept = list(el.assignment.lines.items())[::2]
                for char in (2, 3):
                    lines = {key: tuple(((lo + hi + 1) // 2, hi, {s: c * char for s, c in value.items()})
                                        for lo, hi, value in pieces) for key, pieces in kept}
                    thin = CenterElement(p, el.variant, _SlotView(params, p, lines))
                    got = _counted(check_membership(params, thin, W, inner, char=char))
                    assert got[0] and got == slot_map_membership.check_membership(params, thin, W, inner, char=char), \
                        (r, n, m, p, char)
                    cases += 1
    assert cases == 256


@pytest.mark.parametrize("W, first, rows", [
    (4, "f':X(0)[0,-1]->X(0)[0,0]", 14),
    (7, "f':X(0)[0,-1]->X(0)[0,0]", 83),
])
def test_membership_orders_the_arrows_into_one_cell(W, first, rows):
    # the identity in degree 0 on the X cells with a, b >= 0 of (2, 2, 1):
    # every arrow out of the support stays in it, and the first failure is
    # at X(0)[0,0], the least cell that arrows enter from off the support,
    # two of them: the step up from X(0)[0,-1] and the step across from
    # X(0)[-1,0].  The walk takes them in the order of their sources' (f,
    # i, k) and b, as the cell-by-cell walk does, so the failure named is
    # the step up and the rows counted stop there; keyed by the target
    # alone, the check would name the step across and count its row too
    params = params_for(2, 2, 1, window=W)
    inner = W - membership_margin(params)
    lines = {}
    for i in range(2):
        for t in range(-2 * W, 2 * W + 1):
            lo, hi = max(0, -t, -W - min(t, 0)), W - max(t, 0)
            if lo <= hi:
                lines["X", i, t] = ((lo, hi, {-1: 1}),)
    el = CenterElement(0, "graded", _SlotView(params, 0, lines))
    got = _counted(check_membership(params, el, W, inner))
    assert got == slot_map_membership.check_membership(params, el, W, inner)
    assert got == (False, f"naturality fails at {first}", rows, 0)


def _generator_cases():
    """Every criterion-4 generator, plus eta_power(0), on criterion 4's
    window W = 12 and on the benchmark's three smallest windows, as
    ((r, n, m, name, q, W), params, spec)."""
    inputs = _perfbench_inputs()
    specs = inputs.membership_specs()
    specs += [(n, n, m, "eta_power", 0) for n in (1, 2, 3, 4) for m in (0, 1, 2)]
    for r, n, m, name, q in specs:
        windows = {12} | {
            inputs.membership_margin(n, m) + inputs.support_inner(r, n, m, name, q) + extra
            for extra in (0, 1, 2)
        }
        for W in sorted(windows):
            yield (r, n, m, name, q, W), params_for(r, n, m, window=W), GeneratorSpec(name, q)


def test_make_generator_matches_cell_oracle():
    # the support walk assigns what the box walk did, in the same order
    for case, params, spec in _generator_cases():
        got = make_generator(params, spec, case[-1])
        want = cell_generators.make_generator(params, spec, case[-1])
        assert (got.p, got.variant) == (want.p, want.variant)
        assert list(got.assignment.items()) == list(want.assignment.items()), case


def test_membership_breakages_match_object_membership():
    # Rows of naturality join two vertices of the inner box, so changing
    # one inner support vertex tends to break naturality, while changing
    # every vertex outside the box can break only the sign law.
    rng = random.Random(4)
    seen = set()
    for params, el, W, inner in _membership_cases(0):
        inside, outside = [], []
        for v in sorted(el.assignment):
            (inside if max(abs(v.a), abs(v.b)) <= inner else outside).append(v)
        for chosen in ([rng.choice(inside)], outside):
            # None drops the vertices from the support; 0 keeps them
            # with a zero value
            scale = rng.choice([None, 0, -1, 2])
            assignment = dict(el.assignment)
            for v in chosen:
                if scale is None:
                    del assignment[v]
                else:
                    assignment[v] = scaled(assignment[v], scale)
            broken = CenterElement(el.p, el.variant, assignment)
            char = rng.choice([2, 3, 5])
            got = check_membership(params, broken, W, inner, char=char)
            want = object_check_membership(params, broken, W, inner, char=char)
            assert _counted(got) == slot_map_membership.check_membership(params, broken, W, inner, char=char)
            # the verdict is the oracle's; a failure may name another
            # witness than the oracle's, but what it names must fail
            assert got[0] == want[0], (params.omega, el.p, got, want)
            if not got[0]:
                sign = -1 if el.variant == "graded" and el.p % 2 else 1
                assert _witness_fails(params, broken, got[1], char, sign, inner), (params.omega, el.p, got)
            seen.add(got[1].split(" fails")[0] if got[1] else None)
    assert seen == {None, "naturality", "sign law"}


_NAMED_ARROW = re.compile(
    r"naturality fails at ([^:]+):(\w)\((\d+)\)\[(-?\d+),(-?\d+)\]->(\w)\((\d+)\)\[(-?\d+),(-?\d+)\]")
_NAMED_VERTEX = re.compile(r"sign law fails at (\w)\((\d+)\)\[(-?\d+),(-?\d+)\]")


def _witness_fails(params, el, why, char, sign, inner):
    """Whether the arrow or vertex that a failing check names lies in the
    inner box and fails there in the object oracle's terms: naturality
    by compose and sigma_mor_pow, or the sign law on Sigma-pairs."""

    def eta(v):
        return el.value_at(params, v)

    def boxed(*vs):
        return all(max(abs(v.a), abs(v.b)) <= inner for v in vs)

    named = _NAMED_ARROW.fullmatch(why)
    if named:
        kind, f, i, a, b, g, j, c, d = named.groups()
        v, w = Vertex(f, int(i), int(a), int(b)), Vertex(g, int(j), int(c), int(d))
        gen = arrow_of_degree(params, v, w, KIND_TABLE[kind][2])
        assert gen is not None and gen.kind == kind, why
        phi = of_gen(gen)
        lhs = compose(params, sigma_mor_pow(params, phi, el.p), eta(v))
        rhs = compose(params, eta(w), phi)
        return boxed(v, w) and not is_zero(plus(lhs, scaled(rhs, -1)), char)
    f, i, a, b = _NAMED_VERTEX.fullmatch(why).groups()
    u = Vertex(f, int(i), int(a), int(b))
    diff = plus(eta(sigma(params, u)), scaled(sigma_mor_pow(params, eta(u), 1), -sign))
    return boxed(u) and not is_zero(diff, char)


def test_membership_breakage_witnesses():
    # check_membership tests naturality at the generating arrows only, so
    # on a broken element it may name another failing arrow than the
    # object oracle, or the sign law where the oracle names an arrow.  Its
    # verdict must be the oracle's, and what it names must fail.  Each
    # element is broken at one to three inner support vertices, or on the
    # support's whole Sigma-orbit through one of them, which keeps the sign
    # law and leaves naturality to find the breakage.
    rng = random.Random(15)
    seen = set()
    for extra in (0, 1):
        for params, el, W, inner in _membership_cases(extra):
            inside = [v for v in sorted(el.assignment) if max(abs(v.a), abs(v.b)) <= inner]
            steps = (2 * W + 1) * params.r
            for orbit in (False, True) * 2:
                if orbit:
                    v = rng.choice(inside)
                    chosen = [u for u in (sigma_pow(params, v, k) for k in range(-steps, steps + 1))
                              if u in el.assignment]
                else:
                    chosen = rng.sample(inside, min(len(inside), rng.randint(1, 3)))
                # None drops the vertices from the support; 0 keeps them
                # with a zero value
                scale = rng.choice([None, 0, 2] if orbit else [None, 0, -1, 2])
                assignment = dict(el.assignment)
                for v in chosen:
                    if scale is None:
                        del assignment[v]
                    else:
                        assignment[v] = scaled(assignment[v], scale)
                broken = CenterElement(el.p, el.variant, assignment)
                variant, char = rng.choice(["graded", "commutative"]), rng.choice([2, 3, 5])
                got = check_membership(params, broken, W, inner, char=char, variant=variant)
                assert _counted(got) == slot_map_membership.check_membership(
                    params, broken, W, inner, char=char, variant=variant), (params.omega, el.p)
                ok, why = got
                want = object_check_membership(params, broken, W, inner, char=char, variant=variant)
                assert ok == want[0], (params.omega, el.p, why, want)
                if not ok:
                    sign = -1 if variant == "graded" and el.p % 2 else 1
                    assert _witness_fails(params, broken, why, char, sign, inner), (params.omega, el.p, why)
                seen.add(why.split(" fails")[0] if why else None)
    assert seen == {None, "naturality", "sign law"}


@pytest.mark.parametrize("rnm", GRID, ids=str)
def test_generating_rows_imply_every_row(rnm):
    # check_membership tests the generating rows and the sign law; on the
    # inner boxes Wi = 1, 2 they imply the row at every arrow of the box,
    # in every degree 0..2n+1 under each sign law the check applies
    r, n, m = rnm
    for Wi in (1, 2):
        params = params_for(r, n, m, window=Wi + 1 + max(n, m))
        for p in range(2 * n + 2):
            for sign in (1, -1) if p % 2 else (1,):
                assert unimplied_rows(params, Wi, p, sign) == {2: [], 3: []}, (Wi, p, sign)


def test_generating_rows_need_the_sign_law():
    params = params_for(2, 2, 0, window=5)
    assert unimplied_rows(params, 2, 2, 1) == {2: [], 3: []}
    gaps = unimplied_rows(params, 2, 2, 1, sign_law=False)
    assert gaps[2] and gaps[3]


def test_membership_reports_rows_checked():
    params = params_for(3, 3, 0, window=10)
    eta = make_generator(params, GeneratorSpec("eta_power", 1), 10)
    got = check_membership(params, eta, 10, 6, char=3)
    ok, why = got
    assert (ok, why) == got == (True, None)
    assert got.naturality_rows > 0 and got.sign_rows > 0
    again = check_membership(params, eta, 10, 6, char=3)
    assert (again.naturality_rows, again.sign_rows) == (got.naturality_rows, got.sign_rows)
    copy = pickle.loads(pickle.dumps(got))
    assert copy == got and (copy.naturality_rows, copy.sign_rows) == (got.naturality_rows, got.sign_rows)
    # a failing check counts up to its failure
    failed = check_membership(params, eta, 10, 6, char=3, variant="graded")
    assert failed[0] is False and "sign law" in failed[1]
    assert failed.naturality_rows == got.naturality_rows and 0 < failed.sign_rows <= got.sign_rows


def test_solver_margin_formula():
    assert solver_margin(params_for(1, 2, 0)) == 6
    assert solver_margin(params_for(2, 3, 1)) == 9


def test_solve_component_guards():
    p = params_for(1, 2, 0, window=8)
    with pytest.raises(ValueError):
        solve_component(p, -1, "graded", 3, 8, 2)
    with pytest.raises(ValueError):
        solve_component(p, 0, "projective", 3, 8, 2)
    with pytest.raises(ValueError):
        solve_component(p, 0, "graded", 4, 8, 2)
    with pytest.raises(ValueError):
        solve_component(p, 0, "graded", 3, 8, 3)  # 3 + margin 6 > 8


def test_solve_component_degree_zero_shape():
    p = params_for(1, 2, 0, window=9)
    rep = solve_component(p, 0, "graded", 3, 9, 3)
    assert rep.scalar_dim == 1
    assert rep.power_dim == 0
    assert not rep.residual
    assert set(rep.class_dims) <= set(rep.visibility)
    assert all(dim == 1 for dim in rep.class_dims.values())
    assert rep.total_dim == len(rep.basis)
    lines = rep.format_lines()
    assert lines[0].startswith("degree 0")
    assert lines[-1] == f"total (inner window): {rep.total_dim}"


def test_power_visible_is_where_the_solver_counts_the_power_class():
    # power_visible, the one statement of where the power class meets the
    # inner box, against the solver's power_dim on every degree 0..3n
    for n in (1, 2, 3):
        for m in range(4):
            for inner in range(1, 3 * (n + m) // 2 + 2):
                W = solver_margin(params_for(n, n, m)) + inner
                params = params_for(n, n, m, window=W)
                for p in range(3 * n + 1):
                    rep = solve_component(params, p, "commutative", 3, W, inner)
                    assert rep.power_dim == power_visible(params, p, inner), (n, m, inner, p)
    assert not power_visible(params_for(2, 3, 0), 3, 10)


def test_visibility_map_monotone():
    p = params_for(1, 2, 0)
    small = class_visibility_map(p, 2)
    large = class_visibility_map(p, 6)
    rank = {"none": 0, "partial": 1, "full": 2}
    for key, vis in small.items():
        assert rank[large.get(key, "none")] >= rank[vis], key


@pytest.mark.parametrize("rnm", GRID + [(3, 5, 3), (1, 5, 0), (4, 6, 2)], ids=str)
def test_visibility_map_matches_loop(rnm):
    # keys, their order and values, edge windows included
    p = params_for(*rnm)
    for inner in range(-1, 40):
        got = list(class_visibility_map(p, inner).items())
        assert got == list(visibility_loop.class_visibility_map(p, inner).items()), inner


def test_visibility_is_worked_out_when_read(monkeypatch, cold_cache):
    # a report works out its visibility map on the first read of
    # .visibility, never while its degree is built or served, and
    # reconcile works it out at most once per call
    calls = []
    worked_out = center_module.class_visibility_map

    def counted(params, inner_window):
        calls.append(inner_window)
        return worked_out(params, inner_window)

    monkeypatch.setattr(center_module, "class_visibility_map", counted)
    monkeypatch.setattr(ring_module, "class_visibility_map", counted)
    params = params_for(1, 2, 0, window=9)
    built = solve_component(params, 2, "graded", 3, 9, 3)
    served = solve_component(params, 2, "graded", 3, 9, 3)
    assert (built.built, served.built, calls) == (True, False, [])
    for rep in (built, served):
        assert rep.visibility == worked_out(params, 3)
        assert rep.visibility is rep.visibility
    assert calls == [3, 3]
    for degree_bound in (0, 4):
        calls.clear()
        assert reconcile(params, 3, "graded", degree_bound, 9).ok
        assert len(calls) <= 1, degree_bound


# independent oracle: assemble naturality and sign rows for EVERY windowed
# arrow (the solver uses a fixed local subset), solve with the sparse
# null-space routine, and compare solution dimensions on the inner box


def _oracle_inner_dim(params, p, variant, char, W, Wi):
    verts = enumerate_vertices(params)
    order = []
    unknown = {}
    for v in verts:
        for beta in probed_hom(params, v, p).basis:
            unknown[(v, beta)] = len(order)
            order.append((v, beta))
    spow = {}

    def sp(w):
        if w not in spow:
            spow[w] = sigma_pow(params, w, p)
        return spow[w]

    rows = set()

    def add_row(pairs):
        # self-arrows pair +1 and -1 on one unknown; accumulate, drop zeros
        acc: dict = {}
        for idx, coeff in pairs:
            acc[idx] = acc.get(idx, 0) + coeff
        entries = tuple(sorted((i, c % char) for i, c in acc.items() if c % char))
        if entries:
            rows.add(entries)

    for v in verts:
        bv = probed_hom(params, v, p).basis
        for gen in arrows_from(params, v, box=W):
            w = gen.target
            by_gamma = {}
            for beta in bv:
                d = gen.degree if beta is None else beta.degree + gen.degree
                gamma = arrow_of_degree(params, v, sp(w), d)
                if gamma is not None:
                    by_gamma.setdefault(gamma, []).append((unknown[(v, beta)], 1))
            for alpha in probed_hom(params, w, p).basis:
                d = gen.degree if alpha is None else gen.degree + alpha.degree
                gamma = arrow_of_degree(params, v, sp(w), d)
                if gamma is not None:
                    by_gamma.setdefault(gamma, []).append((unknown[(w, alpha)], -1))
            for pairs in by_gamma.values():
                add_row(pairs)
    sign = -1 if (variant == "graded" and p % 2) else 1
    for (v, beta), idx in list(unknown.items()):
        sv = sigma(params, v)
        if not (-W <= sv.a <= W and -W <= sv.b <= W):
            continue
        sbeta = beta and ArrowGen(
            beta.kind, sigma(params, beta.source), sigma(params, beta.target), beta.degree
        )
        add_row([(unknown[(sv, sbeta)], 1), (idx, -sign)])
    M = SparseMatrix(len(rows), len(order), char)
    for rix, entries in enumerate(sorted(rows)):
        for cix, coeff in entries:
            M.set(rix, cix, coeff)
    inner = [k for k, (v, _b) in enumerate(order) if abs(v.a) <= Wi and abs(v.b) <= Wi]
    restricted = [[vec[k].value for k in inner] for vec in null_space(M)]
    return _rank_mod(restricted, char)


def _rank_mod(vectors, p):
    rows = [list(v) for v in vectors if any(v)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        s = pow(rows[rank][c], p - 2, p)
        rows[rank] = [(x * s) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize(
    "rnm,W,p_list,variant,char",
    [
        ((1, 2, 0), 7, [0, 1, 2, 3], "graded", 3),
        ((1, 2, 0), 7, [0, 1, 2], "commutative", 3),
        ((1, 2, 0), 7, [1, 2], "graded", 2),
        ((1, 1, 0), 5, [0, 1, 2, 3], "graded", 3),
        ((1, 1, 0), 5, [0, 1], "commutative", 2),
        ((2, 2, 1), 8, [0, 1, 2, 4], "graded", 3),
    ],
)
def test_solver_matches_null_space_oracle(rnm, W, p_list, variant, char):
    params = params_for(*rnm, window=W)
    Wi = W - solver_margin(params)
    assert Wi >= 1
    for p in p_list:
        rep = solve_component(params, p, variant, char, W, Wi)
        want = _oracle_inner_dim(params, p, variant, char, W, Wi)
        assert rep.total_dim == want, (rnm, p, variant, char)


@pytest.mark.parametrize("rnm", GRID, ids=str)
def test_solver_basis_is_natural_at_every_arrow(rnm):
    # the solver imposes naturality at the generating arrows only
    # (ModelParams.generators); the oracle walks every arrow at the
    # support, on the solver's inner box less the membership margin
    params = params_for(*rnm)
    inner = membership_margin(params) + 2
    W = solver_margin(params) + inner
    params = params_for(*rnm, window=W)
    for p in range(2 * params.n + 2):
        for variant in ("graded", "commutative"):
            for char in (2, 3):
                rep = solve_component(params, p, variant, char, W, inner)
                for el in rep.basis:
                    got = arrow_walk_check_membership(
                        params, el, inner, inner - membership_margin(params), char=char)
                    assert got == (True, None), (p, variant, char)


@pytest.mark.parametrize("n", range(1, 7))
def test_solver_basis_passes_membership_beyond_the_grid(n):
    # every r <= n and m <= 3 in degrees 0..2n + 1: check_membership also
    # tests the rows out of a line whose Hom(v, Sigma^p v) is 0, which the
    # solver never imposes (_build_system).  Each check's rows counted are
    # pinned in tests/pinned/memberships.txt (tests/pin_memberships.py)
    pinned = pin_memberships.pinned(n)
    checks = 0
    for key, got in pin_memberships.checks(n):
        r, _, m, p, variant, char, _ = key
        assert got == (True, None), (r, n, m, p, variant, char)
        want = pinned[checks] if checks < len(pinned) else None
        assert pin_memberships.line(key, got) == want, f"first key that differs: {key}"
        checks += 1
    assert checks == len(pinned)
    assert checks


# differential oracle: the object-based solver that the integer-coded one
# replaced must give the same full report, basis elements included


def _full_report(rep):
    return (rep.format_lines(), rep.scalar_dim, rep.power_dim, rep.class_dims,
            rep.visibility, rep.residual, rep.basis)


def _report_over_field(rep):
    """_full_report with the basis as plain coefficients, taken mod 2 in
    characteristic 2.  A parity-flagged component survives only there,
    and the rows imply both signs on it, so the +-1 read off depends on
    the order of the merges; the element is the same over F_2."""
    basis = [{v: {beta: c % 2 if rep.char == 2 else c for beta, c in mor.terms.items()}
              for v, mor in el.assignment.items()} for el in rep.basis]
    return _full_report(rep)[:-1] + (basis,)


@pytest.mark.parametrize("rnm", GRID + [(3, 5, 3)], ids=str)
def test_solver_matches_object_solver(rnm):
    r, n, m = rnm
    W = solver_margin(params_for(r, n, m)) + 1
    params = params_for(r, n, m, window=W)
    spot = (5,) if rnm in ((1, 2, 0), (2, 3, 1)) else ()
    for p in range(2 * n + 2):
        hom_dim = sum(probed_hom(params, v, p).dim for v in enumerate_vertices(params))
        # in even degrees both variants impose the same rows, so each
        # variant is paired with one characteristic there
        cases = [(variant, char) for variant in ("graded", "commutative") for char in (2, 3)]
        if p % 2 == 0:
            cases = [("graded", 2), ("commutative", 3)]
        for variant, char in cases + [("graded", c) for c in spot]:
            rep = solve_component(params, p, variant, char, W, 1)
            want = object_solve_component(params, p, variant, char, W, 1)
            assert _report_over_field(rep) == _report_over_field(want), (p, variant, char)
            assert rep.unknowns == hom_dim, (p, variant, char)
            if char == 2:
                assert rep.killed_parity == 0


# the cache of built systems: a system built for one (variant, char) and
# served to another must give the report a fresh solve gives


def _cached_report(rep):
    return _full_report(rep) + (rep.unknowns, rep.rows, rep.killed_zero, rep.killed_parity)


def _fresh_solve(params, p, variant, char, W, Wi):
    _build_system.cache_clear()
    rep = solve_component(params, p, variant, char, W, Wi)
    assert _build_system.cache_info().misses == 1
    return rep


@pytest.mark.parametrize("rnm", GRID, ids=str)
def test_cached_systems_match_fresh_solves(rnm):
    r, n, m = rnm
    W = solver_margin(params_for(r, n, m)) + 1
    params = params_for(r, n, m, window=W)
    cases = [(variant, char) for variant in ("graded", "commutative") for char in (2, 3)]
    spot = [("graded", 5), ("commutative", 5)] if rnm in ((1, 2, 0), (2, 3, 1)) else []
    for p in range(2 * n + 1):
        _build_system.cache_clear()
        served = [solve_component(params, p, variant, char, W, 1) for variant, char in cases + spot]
        info = _build_system.cache_info()
        # one system per degree: at odd p the commutative variant reads
        # the graded build with every sign +1
        assert (info.misses, info.hits) == (1, len(served) - 1), p
        for (variant, char), rep in zip(cases + spot, served):
            want = _fresh_solve(params, p, variant, char, W, 1)
            assert _cached_report(rep) == _cached_report(want), (p, variant, char)


def test_cached_system_is_not_aliased():
    params = params_for(1, 2, 0, window=9)
    _build_system.cache_clear()
    first = solve_component(params, 2, "graded", 3, 9, 3)
    assert first.basis and first.class_dims
    # an element's values are a read-only view of its slot map
    view = first.basis[0].assignment
    v = next(iter(view))
    with pytest.raises(TypeError):
        view[v] = view[v]
    with pytest.raises(TypeError):
        del view[v]
    assert not any(hasattr(view, name) for name in ("clear", "pop", "update", "setdefault"))
    first.basis.clear()
    first.class_dims[("X", 0)] = 99
    first.residual.append(["mutated"])
    first.visibility.clear()
    again = solve_component(params, 2, "graded", 3, 9, 3)
    assert _build_system.cache_info().misses == 1
    assert _cached_report(again) == _cached_report(_fresh_solve(params, 2, "graded", 3, 9, 3))


def test_solve_report_fields_follow_the_system():
    # solve_component passes a report's fields by position: its arguments,
    # the reading and residual, then the work counts as _System holds them
    # first, built and the system
    names = [f.name for f in fields(center_module.SolveReport)]
    assert names == ["params", "p", "variant", "char", "window", "inner_window", "scalar_dim",
                     "power_dim", "class_dims", "residual",
                     *center_module.WORK_COUNTS, "built", "_system"]
    assert _System._fields[:len(center_module.WORK_COUNTS)] == center_module.WORK_COUNTS


@pytest.fixture
def cold_cache():
    # systems built while a test patches the classes must not serve
    # another test
    _build_system.cache_clear()
    yield
    _build_system.cache_clear()


@pytest.mark.parametrize("p, tag", [(0, "scalar"), (3, ("Y", 0))], ids=["even", "odd"])
def test_residual_components_match_fresh_solves(p, tag, monkeypatch, cold_cache):
    # a component whose tags count as no class is residual: one tag of
    # (2, 3, 1) is made residual, and every (variant, char) reading of the
    # degree's system names it as a fresh solve does
    class_of = center_module._class_of
    monkeypatch.setattr(center_module, "_class_of", lambda tags: None if tags == (tag,) else class_of(tags))
    W = solver_margin(params_for(2, 3, 1)) + 2
    params = params_for(2, 3, 1, window=W)
    cases = [(variant, char) for variant in ("graded", "commutative") for char in (2, 3)]
    served = [solve_component(params, p, variant, char, W, 2) for variant, char in cases]
    for (variant, char), rep in zip(cases, served):
        fresh = _fresh_solve(params, p, variant, char, W, 2)
        assert rep.residual == fresh.residual == [[tag]], (variant, char)
        assert rep.format_lines() == fresh.format_lines(), (variant, char)
        assert "residual components: 1" in rep.format_lines()


def test_report_says_whether_it_built_its_system():
    # built is true exactly on a cache miss: the first (variant, char) pair
    # of a degree builds its system and the other three read it, until a
    # sweep of 15 degrees evicts the first; built takes no part in
    # equality or repr
    W = solver_margin(params_for(1, 7, 0)) + 1
    params = params_for(1, 7, 0, window=W)
    cases = [(variant, char) for variant in ("graded", "commutative") for char in (2, 3)]
    _build_system.cache_clear()
    seen = []
    for p in list(range(15)) + [0, 14]:
        for variant, char in cases:
            misses = _build_system.cache_info().misses
            rep = solve_component(params, p, variant, char, W, 1)
            assert rep.built == (_build_system.cache_info().misses > misses), (p, variant, char)
            seen.append(rep.built)
            assert "built" not in repr(rep)
    assert seen == [True, False, False, False] * 16 + [False] * 4
    _build_system.cache_clear()
    built, served = (solve_component(params, 14, "graded", 3, W, 1) for _ in range(2))
    assert (built.built, served.built) == (True, False) and built == served


# differential oracle for the build: the vertex-by-vertex build that the
# line-by-line one replaced must give the same system


def _component_shape(component):
    parity, tags, members = component
    return parity, tags, [(key, s) for key, s, _ in members]


def _work_counts(system):
    return (system.unknowns, system.vertices, system.naturality_rows, system.sign_rows,
            system.rows, system.merges, system.killed_zero, system.killed_parity)


def _generating_counts(built):
    """The vertex build's work counts, with naturality rows counted at the
    generating targets only, as the line build imposes them."""
    return (built.unknowns, built.vertices, built.generating_rows, built.sign_rows,
            built.generating_rows + built.sign_rows, built.merges, built.killed_zero,
            built.killed_parity)


@pytest.mark.parametrize("rnm", GRID + [(3, 5, 3)], ids=str)
def test_line_build_matches_vertex_build(rnm):
    r, n, m = rnm
    omega = OmegaParams(r, n, m)
    params = params_for(r, n, m)
    generating = every = 0
    for inner in (1, 4, 7):
        W = solver_margin(params) + inner
        for p in range(2 * n + 2):
            # one build per degree, read over F_3 under the graded sign law
            # (-1)^p and, at odd p, under the commutative law +1; at even p
            # the two laws agree and the readings are one
            readings = [("graded", -1 if p % 2 else 1)] + ([("commutative", 1)] if p % 2 else [])
            reports = [solve_component(params_for(r, n, m, window=W), p, variant, 3, W, inner)
                       for variant, _ in readings]
            system = reports[0]._system
            assert all(got._system is system for got in reports), (W, inner, p)
            for got, (_, sign) in zip(reports, readings):
                want = vertex_build.build_system(omega, W, inner, p, sign)
                case = (W, inner, p, sign)
                assert frame(omega, p)[0] == dict(want.shift_p), case
                # every work count, rows included as their sum, with the
                # naturality rows those at the generating targets
                assert _work_counts(got) == _generating_counts(want), case
                assert want.generating_rows <= want.naturality_rows, case
                generating += want.generating_rows
                every += want.naturality_rows
                # the build keeps each component's parity and tags, which
                # the dimensions read, and names its members only when
                # asked: both must agree with the vertex build
                named = named_members(got)
                assert (Counter(c[:2] for c in named)
                        == Counter((parity and sign == -1, tags) for _, parity, tags in system.classes)), case
                assert len(named) == len(want.components), case
                for mine, theirs in zip(named, want.components):
                    assert _component_shape(mine) == _component_shape(theirs), case
                    # a parity-flagged component survives only in
                    # characteristic 2, and its signs are fixed only by
                    # the order of the merges; the commutative reading
                    # has no such component, so its signs are exact
                    coeffs = [[c % 2 if mine[0] else c for _, _, c in comp[2]]
                              for comp in (mine, theirs)]
                    assert coeffs[0] == coeffs[1], case
    assert generating < every


# differential oracle for the plan build: the per-line build that it
# replaced imposes the same rows in the same order on the signed forest
# that the present one replaced (tests/signed_forest_before.py), so every
# field of the system must be identical, root and sign included


def assert_same_build(omega, W, inner, p):
    got = _build_system.__wrapped__(omega, W, inner, p)
    want = line_build.build_system(omega, W, inner, p)
    case = (omega, W, inner, p)
    for name in _System._fields:
        assert getattr(got, name) == getattr(want, name), (case, name)
    if p % 2 == 0:
        # the premise of the unsigned forest: at an even degree the old
        # forest, which carries every sign, ends with all of them +1 and
        # no parity conflict
        assert set(want.sign) <= {1} and want.killed_parity == 0, case


@pytest.mark.parametrize("rnm", GRID + [(3, 5, 3), (4, 6, 2)], ids=str)
def test_plan_build_matches_line_build(rnm):
    omega = OmegaParams(*rnm)
    for inner in (1, 4, 9):
        W = solver_margin(omega) + inner
        for p in range(2 * rnm[1] + 2):
            assert_same_build(omega, W, inner, p)


@pytest.mark.parametrize("p", [0, 4, 7])
def test_plan_build_matches_line_build_at_a_large_window(p):
    omega = OmegaParams(3, 4, 2)
    assert_same_build(omega, 80, 80 - solver_margin(omega), p)


def test_degree_zero_identity_is_closed():
    # the premises of the identity block that _build_system settles from
    # the layout: on every r <= n <= 6, m <= 3, every (family, i) and
    # every piece of its degree-0 plan, no row pairs the identity's slot
    # -1 with another slot or with None; at each gap the identity's row
    # at a generating arrow stands exactly where the arrow's target is a
    # vertex; and Sigma takes every line, all of which hold the identity
    # at degree 0, to a line that holds it too
    failures = []
    identity_rows = 0
    for n in range(1, 7):
        for r in range(1, n + 1):
            for m in range(4):
                omega = OmegaParams(r, n, m)
                params = ModelParams(omega)
                steps = params.sigma_steps
                _, gaps, vertex_gaps = frame(omega, 0)
                for f, i in vertex_gaps:
                    assert (f, i, -1) in gaps, (r, n, m, f, i)
                    cuts, plans = _plan_pieces(omega, 0, f, i)
                    for piece, plan in enumerate(plans):
                        identity_rows += sum(row == (-1, -1) for *_, rows in plan for row in rows)
                        if any((-1 in row) and row != (-1, -1) for *_, rows in plan for row in rows):
                            failures.append((r, n, m, f, i, piece))
                    # every gap of a line up to twice the farthest cut,
                    # which lies within n + m + 1 of gap 0
                    bound = 2 * (n + m + 1)
                    least = vertex_gaps[f, i][0]
                    for t in range(-bound if least is None else least, bound + 1):
                        piece = bisect_right(cuts, t)
                        held = {k for *_, k, rows in plans[piece] if (-1, -1) in rows}
                        for k, (g, j, da, db, _, along) in enumerate(params.generators[f, i]):
                            target = vertex_gaps[g, j][0]
                            vertex = target is None or (t if along else 0) + db - da >= target
                            if vertex != (k in held):
                                failures.append((r, n, m, f, i, piece))
                    j, da, db = steps[f, i, 1]
                    lo, lo_j = vertex_gaps[f, i][0], vertex_gaps[f, j][0]
                    # the lines (f, i, t), t >= lo, go to (f, j, t + db - da)
                    if (f, j, -1) not in gaps or (lo_j is not None and (lo is None or lo + db - da < lo_j)):
                        failures.append((r, n, m, f, i, "Sigma"))
    assert not failures, f"first failure (r, n, m, family, i, piece): {failures[0]}"
    assert identity_rows == 2518


@pytest.mark.parametrize("n", range(1, 7))
def test_plan_build_matches_line_build_at_degree_zero(n):
    # every r <= n, m <= 3 at inner windows 1, 4 and 9: the identity's
    # component, settled from the layout, root included, against the
    # union loop of the oracle
    for r in range(1, n + 1):
        for m in range(4):
            omega = OmegaParams(r, n, m)
            for inner in (1, 4, 9):
                assert_same_build(omega, solver_margin(omega) + inner, inner, 0)


def test_degree_zero_root_at_a_large_window():
    # the identity's root sits at offset m + 1 of the first line only
    # where r = 1; (3, 4, 2) at W = 80 covers r >= 2
    omega = OmegaParams(1, 6, 3)
    assert_same_build(omega, 120, 120 - solver_margin(omega), 0)


def test_degree_zero_identity_never_reaches_the_union_loop(monkeypatch):
    # sending the identity back through the union loop would keep every
    # field of the system, so the differential sweeps cannot see it: at
    # p = 0 on every GRID row, no range that unite receives meets an
    # identity block
    ranges = []
    unite = center_module._SignedForest.unite

    def recording(self, x0, y0, length, s):
        ranges.append((x0, y0, length))
        return unite(self, x0, y0, length, s)

    monkeypatch.setattr(center_module._SignedForest, "unite", recording)
    unions = 0
    for r, n, m in GRID:
        omega = OmegaParams(r, n, m)
        W = solver_margin(omega) + 2
        ranges.clear()
        system = _build_system.__wrapped__(omega, W, 2, 0)
        held = bytearray(system.unknowns)
        for (_, _, t), bv in system.lines:
            for s, x0 in bv:
                if s < 0:
                    held[x0:x0 + 2 * W + 1 - abs(t)] = b"\1" * (2 * W + 1 - abs(t))
        for x0, y0, length in ranges:
            assert 1 not in held[x0:x0 + length] and 1 not in held[y0:y0 + length], ((r, n, m), x0, y0, length)
        unions += len(ranges)
    # the r = 1 rows still unite the e' slot
    assert unions > 0


def test_identity_alone_is_built_without_plans_or_forest(monkeypatch):
    # where degree 0 lays out the identity's slot alone, as on every GRID
    # row with r >= 2, the layout settles the system: no plan is read and
    # no forest is made; where slot 2 is laid out too (r = 1), a forest
    # still is
    made = []

    class Recording(center_module._SignedForest):
        __slots__ = ()

        def __init__(self, count, signed):
            made.append("forest")
            super().__init__(count, signed)

    def recording(*key):
        made.append("plan")
        return _plan_pieces(*key)

    monkeypatch.setattr(center_module, "_SignedForest", Recording)
    monkeypatch.setattr(center_module, "_plan_pieces", recording)
    alone = []
    for r, n, m in GRID:
        omega = OmegaParams(r, n, m)
        W = solver_margin(omega) + 2
        made.clear()
        system = _build_system.__wrapped__(omega, W, 2, 0)
        if all(s < 0 for _, bv in system.lines for s, _ in bv):
            alone.append(r)
            assert made == [], (r, n, m)
        else:
            assert "forest" in made, (r, n, m)
    assert alone == [r for r, _, _ in GRID if r > 1]


def test_degree_zero_walks_only_the_family_with_another_slot(monkeypatch):
    # at p = 0 with r = 1 < n, (X, 0) is the one (family, i) whose frame
    # holds a slot besides the identity's: the build reads its plans and
    # no other (family, i)'s, and still makes one forest, which slot 2
    # needs
    made = []

    class Recording(center_module._SignedForest):
        __slots__ = ()

        def __init__(self, count, signed):
            made.append("forest")
            super().__init__(count, signed)

    def recording(omega, p, f, i):
        made.append((f, i))
        return _plan_pieces(omega, p, f, i)

    monkeypatch.setattr(center_module, "_SignedForest", Recording)
    monkeypatch.setattr(center_module, "_plan_pieces", recording)
    rows = [(r, n, m) for r, n, m in GRID if r == 1 < n]
    assert rows
    for r, n, m in rows:
        omega = OmegaParams(r, n, m)
        W = solver_margin(omega) + 2
        made.clear()
        _build_system.__wrapped__(omega, W, 2, 0)
        assert sorted(made, key=str) == [("X", 0), "forest"], (r, n, m, made)


def test_span_is_the_line_in_the_box():
    # the a of each line of the box [-W, W]^2, against the box's cells
    # listed one by one: empty exactly where no cell has the gap
    for W in range(1, 7):
        cells = [(a, b) for a in range(-W, W + 1) for b in range(-W, W + 1)]
        for t in range(-2 * W - 2, 2 * W + 3):
            a_lo, a_hi = _span(W, t)
            assert list(range(a_lo, a_hi + 1)) == [a for a, b in cells if b - a == t], (W, t)
            assert (a_lo > a_hi) == (abs(t) > 2 * W), (W, t)


def test_held_is_the_intersection_with_the_block():
    # uniform, mixed and disjoint blocks, as the read pass and the namer
    # meet them, then random ones
    roots = {3, 5, 8}
    blocks = [[3] * 4, [4] * 4, [3], [7], [3, 3, 5, 5, 3], [3, 4, 4], [4, 6, 4], [8, 5, 3, 9]]
    for block in blocks:
        assert set(_held(block, roots)) == roots.intersection(block), block
    rng = random.Random(40)
    for _ in range(300):
        block = [rng.randrange(6) for _ in range(rng.randint(1, 6))]
        roots = set(rng.sample(range(6), rng.randint(0, 3)))
        assert set(_held(block, roots)) == roots.intersection(block), (block, roots)


def test_slot_view_prints_as_its_dict():
    # a view prints as the dict {Vertex: Morphism} of its items, in key
    # order, each value built from its slot
    params = params_for(1, 1, 0, window=2)
    view = make_generator(params, GeneratorSpec("eta_zero"), 1).assignment
    assert repr(view) == repr({v: view[v] for v in sorted(view)})
    assert repr(view).startswith(
        "{X(0)[-1,-1]: Morphism(source=X(0)[-1,-1], target=X(0)[-1,-1], terms={e':X(0)[-1,-1]->X(0)[-1,-1]: 1}), ")
    assert repr(view).count("Morphism(") == 3
    assert repr(_SlotView(params, 0, {})) == "{}"


def _eta_and_line():
    # eta_power(1) on (1, 1, 0) at W = 6, and its first line, one piece
    # of several cells
    params = params_for(1, 1, 0, window=6)
    el = make_generator(params, GeneratorSpec("eta_power", 1), 6)
    key, ((lo, hi, value),) = next(iter(el.assignment.lines.items()))
    assert lo < hi
    return params, el, key, lo, hi, value


def _with_line(params, el, key, pieces):
    # el with one line replaced by these pieces, as a view and an element
    view = _SlotView(params, el.p, {**el.assignment.lines, key: pieces})
    return view, CenterElement(el.p, el.variant, view)


def test_views_that_cut_a_line_differently_are_equal():
    # equality is Mapping's, cell by cell: the same cells compare equal
    # however a line is cut into pieces
    params, el, key, lo, hi, value = _eta_and_line()
    view, split = _with_line(params, el, key, ((lo, lo, value), (lo + 1, hi, value)))
    assert view.lines != el.assignment.lines
    assert view == el.assignment and el.assignment == view
    assert split == el and el == split


def test_a_view_equals_the_dict_of_its_values():
    params, el, *_ = _eta_and_line()
    by_hand = CenterElement(el.p, el.variant, {v: el.assignment[v] for v in el.assignment})
    assert el.assignment == dict(el.assignment.items()) == by_hand.assignment
    assert el == by_hand and by_hand == el


def test_views_that_differ_in_one_coefficient_or_cell_are_unequal():
    params, el, key, lo, hi, value = _eta_and_line()
    ((slot, c),) = value.items()
    # one cell's coefficient changed, and one cell dropped
    for pieces in (((lo, lo, {slot: c + 1}), (lo + 1, hi, value)), ((lo + 1, hi, value),)):
        view, other = _with_line(params, el, key, pieces)
        assert view != el.assignment and el.assignment != view
        assert other != el and el != other


def _oracle_form(plan: tuple) -> tuple:
    # a plan of center._plan_pieces as tests/line_plans.py states it: each
    # target without its place k in ModelParams.generators
    return tuple((g, j, da, du, along, rows) for g, j, da, du, along, _, rows in plan)


def test_line_plans_are_constant_beyond_the_bound():
    # every r <= n <= 6, m <= 3, p = 0..2n+1 and (family, i): every cut
    # of the plan pieces lies in [-B, B], so the two pieces without an
    # end hold every gap t with |t| > B, and their plans are the oracle's
    # at -2B and 2B
    cases = 0
    for n in range(1, 7):
        for r in range(1, n + 1):
            for m in range(4):
                omega = OmegaParams(r, n, m)
                for p in range(2 * n + 2):
                    for f, i in frame(omega, p)[0]:
                        cases += 1
                        case = (r, n, m, p, f, i)
                        bound, t0, want = oracle_plans(omega, p, f, i)
                        cuts, plans = _plan_pieces(omega, p, f, i)
                        assert all(-bound <= cut <= bound for cut in cuts), case
                        for t in (-2 * bound, 2 * bound):
                            assert _oracle_form(plans[bisect_right(cuts, t)]) == want[t - t0], (case, t)
    assert cases == 5936


def test_plan_pieces_match_line_plans():
    # every r <= n <= 6, m <= 3, p = -3..2n+1 and (family, i): each gap
    # t of [-2B - 3, 2B + 3] reads from its piece the plan that the
    # per-gap oracle works out at t, each target at its place in
    # ModelParams.generators; every piece's plan is finished before any
    # line reads it
    _plan_pieces.cache_clear()
    cases = gaps = 0
    for n in range(1, 7):
        for r in range(1, n + 1):
            for m in range(4):
                omega = OmegaParams(r, n, m)
                params = ModelParams(omega)
                for p in range(-3, 2 * n + 2):
                    for f, i in frame(omega, p)[0]:
                        cases += 1
                        _, t0, want = oracle_plans(omega, p, f, i)
                        cuts, plans = _plan_pieces(omega, p, f, i)
                        assert cuts == sorted(set(cuts)) and len(plans) == len(cuts) + 1
                        assert all(type(plan) is tuple and all(rows for *_, rows in plan) for plan in plans), \
                            (r, n, m, p, f, i)
                        targets = params.generators[f, i]
                        for t in range(t0, -t0 + 1):
                            gaps += 1
                            case = (r, n, m, p, f, i, t)
                            plan = plans[bisect_right(cuts, t)]
                            assert _oracle_form(plan) == want[t - t0], case
                            assert all(targets[k][:4] == (g, j, da, da + du) and targets[k][5] == along
                                       for g, j, da, du, along, k, _ in plan), case
    assert (cases, gaps) == (7448, 531368)


def test_shared_derivations_stay_pure(monkeypatch):
    # _plan_pieces and hom.frame are cached and shared by the solver, the
    # membership check and hom_basis: after a solve of every GRID degree,
    # a reconcile sweep and criterion 4's checks, every value they
    # returned still equals a fresh derivation, and no plan is left to
    # be filled in later
    import gradedcenter.hom as hom_module
    from gradedcenter.acceptance import run_criterion

    read: dict = {}

    def recording(fn):
        def wrapper(*key):
            value = fn(*key)
            read.setdefault((fn, key), {})[id(value)] = value
            return value
        return wrapper

    monkeypatch.setattr(center_module, "_plan_pieces", recording(_plan_pieces))
    monkeypatch.setattr(center_module, "frame", recording(frame))
    monkeypatch.setattr(hom_module, "frame", recording(frame))
    _build_system.cache_clear()
    for r, n, m in GRID:
        omega = OmegaParams(r, n, m)
        W = solver_margin(omega) + 2
        for p in range(2 * n + 2):
            solve_component(ModelParams(omega, W), p, "graded", 3, W, 2)
    omega = OmegaParams(2, 3, 1)
    W = solver_margin(omega) + 8
    for variant in ("graded", "commutative"):
        assert reconcile(ModelParams(omega, W), 3, variant, 7, W).ok
    assert run_criterion(4)[1]
    assert {fn for fn, _ in read} == {_plan_pieces, frame}
    for (fn, key), values in read.items():
        for value in values.values():
            assert value == fn.__wrapped__(*key), (fn.__name__, key)
            if fn is _plan_pieces:
                assert None not in value[1], key


# differential oracle for the naming: the object naming that
# _named_components replaced must give the same components, coefficients
# included, from the same system


@pytest.mark.parametrize("rnm", GRID + [(3, 5, 3)], ids=str)
def test_named_components_match_object_naming(rnm):
    r, n, m = rnm
    params = params_for(r, n, m)
    for inner in (1, 4):
        W = solver_margin(params) + inner
        for p in range(2 * n + 2):
            for variant in ("graded", "commutative") if p % 2 else ("graded",):
                report = solve_component(params_for(r, n, m, window=W), p, variant, 3, W, inner)
                assert named_members(report) == named_components(report), (W, p, variant)


def test_named_components_match_object_naming_at_a_large_window():
    # (3, 4, 2) at W = 80: graded, so signed, at p = 3, and plain at p = 4
    params = params_for(3, 4, 2, window=80)
    Wi = 80 - solver_margin(params)
    for p in (3, 4):
        report = solve_component(params, p, "graded", 3, 80, Wi)
        assert report._plain == (p == 4)
        assert (set(report._system.sign) == {1}) == (p == 4)
        assert named_members(report) == named_components(report), p


# the runs of a report's basis against the slot maps of the members that
# the object naming gives, element by element


@pytest.mark.parametrize("rnm", GRID + [(3, 5, 3), (4, 6, 2)], ids=str)
def test_basis_runs_expand_to_slot_maps(rnm):
    r, n, m = rnm
    params = params_for(r, n, m)
    for inner in (1, 4, 9):
        W = solver_margin(params) + inner
        params = params_for(r, n, m, window=W)
        for p in range(2 * n + 2):
            for variant in ("graded", "commutative"):
                named = named_components(solve_component(params, p, variant, 2, W, inner))
                for char in (2, 3, 5):
                    basis = solve_component(params, p, variant, char, W, inner).basis
                    want = []
                    for parity, _, members in named:
                        if parity and char != 2:
                            continue
                        slots: dict = {}
                        for key, s, c in members:
                            slots.setdefault(key, {})[s] = c
                        want.append(slots)
                    case = (W, p, variant, char)
                    assert [list(expand_lines(el.assignment.lines).items()) for el in basis] == \
                        [list(slots.items()) for slots in want], case
                    for el, slots in zip(basis, want):
                        view = el.assignment
                        assert len(view) == len(slots), case
                        assert [(v.family, v.i, v.a, v.b) for v in view] == list(slots), case
                # a hand-built copy converts back to the same line map
                if basis:
                    el = basis[-1]
                    copy = CenterElement(el.p, el.variant, dict(el.assignment))
                    assert _slot_map(params, copy).lines == el.assignment.lines, (W, p, variant)


def test_run_counts_at_large_windows():
    # (3, 4, 2), p = 4, graded, F_3: the elements, their members (vertex,
    # slot) and their runs, which grow linearly in the window where the
    # members grow quadratically
    for W, elements, members, runs in ((40, 57, 4737, 167), (80, 137, 27817, 407)):
        params = params_for(3, 4, 2, window=W)
        basis = solve_component(params, 4, "graded", 3, W, W - solver_margin(params)).basis
        held = [pieces for el in basis for pieces in el.assignment.lines.values()]
        assert len(basis) == elements, W
        assert sum(hi - lo + 1 for spans in held for lo, hi, _ in spans) == members, W
        assert sum(map(len, held)) == runs, W


def _assert_maximal_pieces(lines: dict, case) -> None:
    """Each line's pieces lie in increasing a, disjoint, and no two that
    touch hold equal values."""
    for key, pieces in lines.items():
        assert isinstance(pieces, tuple) and pieces, (case, key)
        assert all(lo <= hi for lo, hi, _ in pieces), (case, key)
        for (_, hi, x), (lo, _, y) in zip(pieces, pieces[1:]):
            assert hi < lo and (hi + 1 < lo or x != y), (case, key)


def test_lines_merge_the_runs_of_each_slot():
    # a line with overlapping runs in three slots, and a line of one slot:
    # the pieces cover each cell once, in order, with every slot, and are
    # maximal
    runs = {("X", 0, 2, -1): ((-5, 0, 1), (1, 3, 2), (6, 7, 1)), ("X", 0, 2, 2): ((-2, 4, 1),),
            ("X", 0, 2, 0): ((2, 2, 3), (5, 7, 3)), ("X", 0, 3, 0): ((0, 0, 5),)}
    lines = _lines(runs)
    assert expand_lines(lines) == expand(runs)
    assert lines == {
        ("X", 0, 2): ((-5, -3, {-1: 1}), (-2, 0, {-1: 1, 2: 1}), (1, 1, {-1: 2, 2: 1}),
                      (2, 2, {-1: 2, 2: 1, 0: 3}), (3, 3, {-1: 2, 2: 1}), (4, 4, {2: 1}),
                      (5, 5, {0: 3}), (6, 7, {-1: 1, 0: 3})),
        ("X", 0, 3): ((0, 0, {0: 5}),),
    }
    _assert_maximal_pieces(lines, runs)


def test_a_value_with_no_term_keeps_its_cell():
    # a hand-built element whose values at X(0)[6,8] and X(0)[7,9] have no
    # term: _slot_map holds those cells with the value {}, one piece, so
    # they are in the view and counted by len, 13 cells in all
    params = params_for(1, 1, 0)
    values = {Vertex("X", 0, a, a + 2): identity(Vertex("X", 0, a, a + 2)) for a in range(-5, 5)}
    values |= {Vertex("X", 0, a, a + 2): Morphism.zero(Vertex("X", 0, a, a + 2), Vertex("X", 0, a, a + 2))
               for a in (6, 7)}
    values[Vertex("X", 0, 0, 3)] = scaled(identity(Vertex("X", 0, 0, 3)), 5)
    view = _slot_map(params, CenterElement(0, "graded", values))
    assert view.lines == {("X", 0, 2): ((-5, 4, {-1: 1}), (6, 7, {})), ("X", 0, 3): ((0, 0, {-1: 5}),)}
    assert len(view) == 13
    assert list(view) == sorted(values, key=lambda v: (v.family, v.i, v.a, v.b))
    assert Vertex("X", 0, 6, 8) in view and Vertex("X", 0, 5, 7) not in view
    assert view[Vertex("X", 0, 6, 8)] == values[Vertex("X", 0, 6, 8)]
    assert expand_lines(view.lines)[("X", 0, 7, 9)] == {}


def _criterion_7_products():
    """The products acceptance criterion 7 forms, on its windows, as
    (params, product): every pair of the socle generators of (1, 2, 0),
    eta times eta_zero(q) both ways on (1, 1, 0), and the powers eta^2..4
    on (1, 1, 0), (2, 2, 1) and (3, 3, 0)."""
    W = 12
    params = params_for(1, 2, 0, W)
    gens = [make_generator(params, GeneratorSpec(name, q), W)
            for name in ("eta_prime", "eta_dprime", "eta_zero") for q in range(3)]
    for a in gens:
        for b in gens:
            yield params, multiply(params, a, b)
    params = params_for(1, 1, 0, W)
    eta = make_generator(params, GeneratorSpec("eta_power", 1), W)
    for q in range(3):
        ez = make_generator(params, GeneratorSpec("eta_zero", q), W)
        yield params, multiply(params, eta, ez)
        yield params, multiply(params, ez, eta)
    for r, n, m in ((1, 1, 0), (2, 2, 1), (3, 3, 0)):
        Wp = 4 * (n + m) + 10
        params = params_for(r, n, m, Wp)
        eta = power = make_generator(params, GeneratorSpec("eta_power", 1), Wp)
        for _ in range(2, 5):
            power = multiply(params, power, eta)
            yield params, power


def test_every_line_map_holds_maximal_pieces():
    # the line maps of make_generator, multiply, a report's basis and
    # _slot_map: pieces in increasing a, disjoint and maximal, and a
    # hand-built copy of each element converts back to the same line map
    elements = [("generator", case, params, make_generator(params, spec, case[-1]))
                for case, params, spec in _generator_cases()]
    elements += [("product", k, params, el) for k, (params, el) in enumerate(_criterion_7_products())]
    # a hand-built factor whose pieces differ only in a term the product
    # drops (e' times f' has no arrow in degree 1): the product's touching
    # equal pieces merge into one
    params = params_for(1, 1, 0, 12)
    ez = make_generator(params, GeneratorSpec("eta_zero", 2), 12)
    line = [Vertex("X", 0, a, a + 2) for a in range(-5, 5)]
    b = CenterElement(0, "graded", {v: plus(identity(v), ez.assignment[v]) if 0 <= v.a <= 2
                                    else identity(v) for v in line})
    assert len(_slot_map(params, b).lines["X", 0, 2]) == 3
    product = multiply(params, make_generator(params, GeneratorSpec("eta_power", 1), 12), b)
    assert product.assignment.lines == {("X", 0, 2): ((-5, 4, {0: 1}),)}
    elements.append(("product", "merged", params, product))
    for r, n, m in GRID:
        for inner in (1, 4):
            W = solver_margin(params_for(r, n, m)) + inner
            params = params_for(r, n, m, window=W)
            for p in range(2 * n + 2):
                for variant in ("graded", "commutative"):
                    for char in (2, 3):
                        basis = solve_component(params, p, variant, char, W, inner).basis
                        elements += [("basis", (r, n, m, inner, p, variant, char), params, el) for el in basis]
    seen = Counter()
    for kind, case, params, el in elements:
        _assert_maximal_pieces(el.assignment.lines, case)
        copy = _slot_map(params, CenterElement(el.p, el.variant, dict(el.assignment)))
        _assert_maximal_pieces(copy.lines, case)
        assert copy.lines == el.assignment.lines, case
        seen[kind] += bool(el.assignment.lines)
    # nonzero elements of every kind were read
    assert set(+seen) == {"generator", "product", "basis"}, seen


def test_elements_match_the_pinned_corpus():
    # tests/pinned/elements.txt, which tests/pin_elements.py writes: per
    # key, the basis elements' members and membership checks, hashed
    pinned = pin_elements.PINNED.read_text().splitlines()
    keys = pin_elements.keys()
    assert [line.rsplit(" ", 2)[0] for line in pinned] == \
        [" ".join(map(str, (*rnm, *rest))) for rnm, *rest in keys]
    for key, want in zip(keys, pinned):
        assert pin_elements.line(*key) == want, f"first key that differs: {want.rsplit(' ', 2)[0]}"


def test_systems_match_the_pinned_corpus():
    # tests/pinned/systems.txt, which tests/pin_systems.py writes: per
    # system of the element corpus's keys, its fields, hashed
    pinned = pin_systems.PINNED.read_text().splitlines()
    keys = pin_systems.keys()
    assert [line.rsplit(" ", 1)[0] for line in pinned] == \
        [" ".join(map(str, (*rnm, *rest))) for rnm, *rest in keys]
    for key, want in zip(keys, pinned):
        assert pin_systems.line(*key) == want, f"first key that differs: {key}"


def test_reports_match_the_pinned_corpus():
    # tests/pinned/reports.txt, which tests/pin_reports.py writes: per
    # element-corpus key, the report's work counts and format lines, and
    # per reconcile pass of criterion 5, its verdict, lines and mismatches
    pinned = pin_reports.PINNED.read_text().splitlines()
    keys = pin_reports.keys()
    assert len(pinned) == len(keys) == 3192 + 120
    for (make, key), want in zip(keys, pinned):
        assert make(*key) == want, f"first key that differs: {key}"


@pytest.mark.parametrize("rnm", [(1, 2, 0), (2, 3, 1), (3, 3, 2), (2, 4, 2)], ids=str)
def test_dimensions_name_nothing(rnm, monkeypatch):
    def refuse(*args):
        raise AssertionError("a basis arrow was named")

    monkeypatch.setattr(center_module, "basis_arrow", refuse)
    _build_system.cache_clear()
    r, n, m = rnm
    # inner window 4 shows the power class of (3, 3, 2) in degree 2n
    W = solver_margin(params_for(r, n, m)) + 4
    params = params_for(r, n, m, window=W)
    reports = [solve_component(params, p, variant, char, W, 4)
               for p in range(2 * n + 1) for variant in ("graded", "commutative") for char in (2, 3)]
    for rep in reports:
        assert rep.format_lines()[-1] == f"total (inner window): {rep.total_dim}"
    for variant in ("graded", "commutative"):
        assert reconcile(params, 3, variant, 2 * n, W).ok
    # the basis of a plain reading is named from integer keys alone; an
    # arrow is built when a value is read
    basis = reports[0].basis
    with pytest.raises(AssertionError, match="named"):
        next(iter(basis[0].assignment.values()))


def test_work_counts_repeat_and_match_vertex_build():
    generating = every = 0
    for rnm, W, p, variant in [((1, 2, 0), 8, 2, "graded"), ((2, 3, 1), 12, 3, "graded"),
                               ((2, 3, 1), 12, 3, "commutative"), ((3, 3, 2), 13, 0, "graded")]:
        params = params_for(*rnm, window=W)
        Wi = W - solver_margin(params)
        counts = []
        for _ in range(2):
            _build_system.cache_clear()
            rep = solve_component(params, p, variant, 3, W, Wi)
            counts.append((rep.unknowns, rep.vertices, rep.naturality_rows, rep.sign_rows,
                           rep.rows, rep.merges, rep.killed_zero, rep.killed_parity))
        assert counts[0] == counts[1]
        sign = -1 if (variant == "graded" and p % 2) else 1
        want = vertex_build.build_system(params.omega, W, Wi, p, sign)
        assert counts[0] == _generating_counts(want)
        assert want.generating_rows <= want.naturality_rows
        generating += want.generating_rows
        every += want.naturality_rows
        assert rep.rows == rep.naturality_rows + rep.sign_rows
        nonempty = [v for v in enumerate_vertices(params) if probed_hom(params, v, p).dim]
        assert rep.vertices == len(nonempty)
        assert rep.unknowns == sum(probed_hom(params, v, p).dim for v in nonempty)
        # merges is unknowns minus components: some unknowns merged, and
        # at least one component is left
        assert 0 < rep.merges < rep.unknowns
    assert generating < every
