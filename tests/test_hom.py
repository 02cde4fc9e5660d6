import pytest

from gradedcenter.acceptance import GRID
from gradedcenter.gentle import OmegaParams
from gradedcenter.hom import hom_basis, hom_dim_closed_form
from gradedcenter.model import ModelParams, Vertex, enumerate_vertices, sigma_pow

from probed_hom import probed_hom


def params_for(r, n, m, window=10):
    return ModelParams(OmegaParams(r, n, m), window)


def test_z_vertices_are_rigid():
    p = params_for(1, 2, 0)
    v = Vertex("Z", 0, 3, -2)
    assert hom_dim_closed_form(p, v, 0) == 1
    for q in range(1, 8):
        assert hom_dim_closed_form(p, v, q) == 0


def test_x_endomorphisms_double_up_for_loops():
    # r = 1 with a <= b carries the identity and one more endomorphism.
    p = params_for(1, 2, 0)
    assert hom_dim_closed_form(p, Vertex("X", 0, 0, 2), 0) == 2
    p = params_for(2, 3, 0)
    assert hom_dim_closed_form(p, Vertex("X", 0, 0, 2), 0) == 1


def test_x_positive_degrees_examples():
    # one dimension iff r | p and p (r + m) <= r (b + d0 m - a)
    p = params_for(1, 1, 1)
    v = Vertex("X", 0, 0, 3)
    expected = {p_: 1 if p_ * 2 <= 4 else 0 for p_ in range(1, 6)}
    for p_, want in expected.items():
        assert hom_dim_closed_form(p, v, p_) == want, p_
    p = params_for(2, 2, 0)
    v = Vertex("X", 1, 0, 3)
    assert hom_dim_closed_form(p, v, 1) == 0  # 2 does not divide 1
    assert hom_dim_closed_form(p, v, 2) == 1
    assert hom_dim_closed_form(p, v, 4) == 0  # 4 * (r + m) = 8 > r (b - a) = 6
    assert hom_dim_closed_form(p, v, 6) == 0


def test_y_degrees_examples():
    p = params_for(1, 2, 0)
    v = Vertex("Y", 0, 0, 3)
    assert hom_dim_closed_form(p, v, 0) == 1
    # p >= 1: r | p - 1 and r <= (p-1)(n-r) <= r (b + 1 - a - d0 n)
    assert hom_dim_closed_form(p, v, 1) == 0  # lower bound 1 <= 0 fails
    assert hom_dim_closed_form(p, v, 2) == 1
    assert hom_dim_closed_form(p, v, 3) == 1  # (3-1) <= b + 1 - a - n = 2
    assert hom_dim_closed_form(p, v, 4) == 0
    p = params_for(2, 3, 0)
    v = Vertex("Y", 1, 0, 2)
    assert [hom_dim_closed_form(p, v, q) for q in range(6)] == [1, 0, 0, 1, 0, 1]


def test_errors():
    p = params_for(1, 2, 0)
    v = Vertex("X", 0, 0, 0)
    with pytest.raises(ValueError):
        hom_dim_closed_form(p, v, -1)
    with pytest.raises(ValueError):
        hom_dim_closed_form(p, Vertex("X", 0, 1, 0), 0)


def test_basis_contains_identity_at_degree_zero():
    p = params_for(2, 3, 1)
    for v in [Vertex("X", 0, 0, 0), Vertex("Y", 1, 0, 2), Vertex("Z", 0, 4, -4)]:
        hs = hom_basis(p, v, 0)
        assert hs.basis[0] is None
        assert hs.dim >= 1


def test_basis_elements_land_in_sigma_power():
    p = params_for(1, 2, 0)
    v = Vertex("X", 0, -3, 5)
    for q in range(6):
        hs = hom_basis(p, v, q)
        w = sigma_pow(p, v, q)
        for elem in hs.basis:
            if elem is not None:
                assert elem.source == v and elem.target == w


def test_model_matches_closed_form_on_small_grid():
    # the acceptance suite covers the full grid; keep a cheap slice here
    for r, n, m in [(1, 1, 0), (1, 2, 0), (2, 2, 1), (2, 3, 0), (1, 3, 2)]:
        params = params_for(r, n, m, window=4)
        for v in enumerate_vertices(params):
            for q in range(2 * n + 2):
                assert hom_basis(params, v, q).dim == hom_dim_closed_form(params, v, q), (
                    r, n, m, v, q,
                )


def test_dim_is_translation_invariant():
    p = params_for(2, 3, 1)
    for q in range(8):
        base = hom_dim_closed_form(p, Vertex("Y", 1, 0, 2), q)
        shifted = hom_dim_closed_form(p, Vertex("Y", 1, -4, -2), q)
        assert base == shifted


@pytest.mark.parametrize("rnm", GRID + [(3, 5, 3), (4, 6, 2)], ids=str)
def test_hom_basis_matches_probed_arrows(rnm):
    # the frame's basis against arrow_of_degree at every cell of the
    # box of each family the parameters have, vertex or not, reprs
    # included, p = -3..2n+3
    params = params_for(*rnm, window=6)
    for f in params.families:
        for i in range(params.r):
            for a in range(-6, 7):
                for b in range(-6, 7):
                    v = Vertex(f, i, a, b)
                    for q in range(-3, 2 * params.n + 4):
                        got, want = hom_basis(params, v, q), probed_hom(params, v, q)
                        assert got == want and repr(got) == repr(want), (v, q)


def test_hom_basis_refuses_a_family_the_parameters_lack():
    # r = n has no Y or Z, and index r is out of range: the frame has no
    # entry there, where the probe found Z's arrow from its rules alone
    params = params_for(2, 2, 0)
    for v in (Vertex("Z", 1, 0, 0), Vertex("Y", 0, 0, 3), Vertex("X", 2, 0, 0)):
        with pytest.raises(ValueError, match="no vertices"):
            hom_basis(params, v, 2)
    assert repr(probed_hom(params, Vertex("Z", 1, 0, 0), 2).basis) == "(f:Z(1)[0,0]->Z(1)[2,0],)"
