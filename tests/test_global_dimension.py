import math

import pytest

from gradedcenter.center import solve_component, solver_margin
from gradedcenter.gentle import OmegaParams, build_lambda, parse_quiver
from gradedcenter.model import ModelParams
from gradedcenter.ring import theorem_case

from global_dimension import global_dimension


def test_hand_computed_values():
    assert global_dimension(parse_quiver("vertices: x\n")) == 0
    a2 = "vertices: x y\narrow a: x -> y\n"
    assert global_dimension(parse_quiver(a2)) == 1
    a3 = "vertices: x y z\narrow a: x -> y\narrow b: y -> z\n"
    assert global_dimension(parse_quiver(a3)) == 1
    assert global_dimension(parse_quiver(a3 + "relation: b a\n")) == 2
    two_cycle = "vertices: x y\narrow a: x -> y\narrow b: y -> x\n"
    assert global_dimension(parse_quiver(two_cycle + "relation: b a\n")) == 2
    both = two_cycle + "relation: b a\nrelation: a b\n"
    assert global_dimension(parse_quiver(both)) == math.inf


def test_lambda_global_dimension_closed_form():
    # Lambda(r, n, m): the r relations lie on the n-cycle, so a path of
    # relations closes up exactly when r = n; otherwise the longest one
    # runs through the r relations, r + 1 arrows.
    for n in range(1, 9):
        for r in range(1, n + 1):
            for m in range(6):
                got = global_dimension(build_lambda(OmegaParams(r, n, m)))
                assert got == (math.inf if r == n else r + 1), (r, n, m)


def test_infinite_global_dimension_iff_polynomial_base():
    # The paper's first theorem: the reduced part of the graded center is
    # nontrivial exactly when the global dimension is infinite.
    for n in range(1, 9):
        for r in range(1, n + 1):
            for m in range(6):
                omega = OmegaParams(r, n, m)
                infinite = global_dimension(build_lambda(omega)) == math.inf
                for char in (2, 3, 5):
                    for variant in ("graded", "commutative"):
                        base = theorem_case(omega, char, variant).base
                        assert infinite == (base != "F"), (r, n, m, char, variant)


# the acceptance GRID (n <= 4, m <= 2) and beyond: every r <= n <= 6, m <= 3
WIDE = [(r, n, m) for n in range(1, 7) for r in range(1, n + 1) for m in range(4)]


@pytest.mark.parametrize("rnm", WIDE, ids=str)
def test_infinite_global_dimension_iff_solver_finds_a_power_class(rnm):
    # Degree 2n is a multiple of the polynomial generator's degree in
    # both variants, and an inner window of (2n + m) / 2 reaches the gap
    # 2(n + m) - m where the power class starts.
    r, n, m = rnm
    omega = OmegaParams(r, n, m)
    infinite = global_dimension(build_lambda(omega)) == math.inf
    inner = max(1, math.ceil((2 * n + m) / 2))
    W = solver_margin(ModelParams(omega)) + inner
    rep = solve_component(ModelParams(omega, W), 2 * n, "graded", 3, W, inner)
    assert infinite == (rep.power_dim > 0), rnm
