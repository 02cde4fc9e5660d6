"""The paper's second statement on the solver's own output: the socle
classes of the graded center sit on the objects with tau = Sigma^p.
The Serre functor is Sigma tau, so family F carries a socle class in
degree d exactly when tau = Sigma^(d - 1) on F.  tau and Sigma are read
from the model, never from the classification tables."""

import pytest

from gradedcenter.center import solve_component, solver_margin
from gradedcenter.gentle import OmegaParams
from gradedcenter.model import ModelParams, enumerate_vertices, sigma_pow, tau

INNER = 6

# the acceptance GRID (n <= 4, m <= 2) and beyond: every r <= n <= 6, m <= 3
WIDE = [(r, n, m) for n in range(1, 7) for r in range(1, n + 1) for m in range(4)]


@pytest.mark.parametrize("rnm", WIDE, ids=str)
def test_socle_families_are_where_tau_is_a_suspension(rnm):
    r, n, m = rnm
    omega = OmegaParams(r, n, m)
    W = solver_margin(ModelParams(omega)) + INNER
    params = ModelParams(omega, W)
    # tau and Sigma^p translate every vertex of one family and index by
    # the same vector, so one vertex there decides the equation
    reps = {}
    for v in enumerate_vertices(params):
        reps.setdefault((v.family, v.i), v)
    for d in range(2 * n + 2):
        want = {
            family
            for family in params.families
            if all(
                tau(params, reps[family, i]) == sigma_pow(params, reps[family, i], d - 1)
                for i in range(r)
            )
        }
        for variant in ("graded", "commutative"):
            for char in (2, 3):
                rep = solve_component(params, d, variant, char, W, INNER)
                got = {family for family, _q in rep.class_dims}
                assert got == want, (d, variant, char)
