import pytest

from gradedcenter.acceptance import GRID
from gradedcenter.center import (
    CenterElement,
    GeneratorSpec,
    _solve_sigma_exponent,
    check_membership,
    class_visibility_map,
    make_generator,
    membership_margin,
    multiply,
    solve_component,
    solver_margin,
)
from gradedcenter.gentle import OmegaParams
from gradedcenter.hom import hom_basis
from gradedcenter.model import (
    ArrowGen,
    ModelParams,
    Morphism,
    Vertex,
    arrow_of_degree,
    arrows_from,
    enumerate_vertices,
    sigma,
    sigma_pow,
)

from null_space_oracle import SparseMatrix, null_space


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
        assert mor == Morphism.identity(v)
    assert len(el.assignment) == len(enumerate_vertices(p))


def test_center_element_basics():
    v = Vertex("X", 0, 0, 0)
    el = CenterElement(0, "graded", {v: Morphism.identity(v).scaled(3)})
    assert not el.is_zero()
    assert el.is_zero(3)
    p = params_for(1, 1, 0)
    w = Vertex("X", 0, 0, 5)
    assert el.value_at(p, w).is_zero()
    with pytest.raises(ValueError):
        CenterElement(0, "projective", {})
    with pytest.raises(ValueError):
        CenterElement(-1, "graded", {})


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
            diff = prod.value_at(p, v).plus(e2.value_at(p, v).scaled(-1))
            assert diff.is_zero(), v


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


def test_visibility_map_monotone():
    p = params_for(1, 2, 0)
    small = class_visibility_map(p, 2)
    large = class_visibility_map(p, 6)
    rank = {"none": 0, "partial": 1, "full": 2}
    for key, vis in small.items():
        assert rank[large.get(key, "none")] >= rank[vis], key


# independent oracle: assemble naturality and sign rows for EVERY windowed
# arrow (the solver uses a fixed local subset), solve with the sparse
# null-space routine, and compare solution dimensions on the inner box


def _oracle_inner_dim(params, p, variant, char, W, Wi):
    verts = enumerate_vertices(params)
    order = []
    unknown = {}
    for v in verts:
        for beta in hom_basis(params, v, p).basis:
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
        bv = hom_basis(params, v, p).basis
        for gen in arrows_from(params, v, box=W):
            w = gen.target
            by_gamma = {}
            for beta in bv:
                d = gen.degree if beta is None else beta.degree + gen.degree
                gamma = arrow_of_degree(params, v, sp(w), d)
                if gamma is not None:
                    by_gamma.setdefault(gamma, []).append((unknown[(v, beta)], 1))
            for alpha in hom_basis(params, w, p).basis:
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
