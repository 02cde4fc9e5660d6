import pytest

from gradedcenter.center import _build_system, power_visible, solve_component, solver_margin
from gradedcenter.gentle import OmegaParams
from gradedcenter.model import ModelParams
from gradedcenter.ring import (
    DegreeWork,
    ReconcileReport,
    RingPresentation,
    reconcile,
    reduced_and_nil,
    theorem_case,
)


def test_presentation_validation():
    RingPresentation("F")
    RingPresentation(("Poly", 2), ((0, None), (3, None)))
    with pytest.raises(ValueError):
        RingPresentation("Q")
    with pytest.raises(ValueError):
        RingPresentation(("Poly", 0))
    with pytest.raises(ValueError):
        RingPresentation("F", ((-1, None),))
    with pytest.raises(ValueError):
        RingPresentation("F", ((0, -2),))


def test_serialization():
    assert RingPresentation("F").serialize() == "F"
    assert RingPresentation(("Poly", 1)).serialize() == "F[X]"
    assert RingPresentation(("Poly", 4)).serialize() == "F[X^4]"
    pres = RingPresentation("F", ((0, None), (2, None)))
    assert pres.serialize() == "T(F, F^N + F^N[-2])"
    assert reduced_and_nil(pres) == ("F", "F^N + F^N[-2]")
    assert reduced_and_nil(RingPresentation(("Poly", 2))) == ("F[X^2]", "0")


def test_theorem_case_table_rows():
    # (r, n, m, char, variant) -> serialized presentation
    cases = [
        ((1, 1, 0), 2, "graded", "T(F[X], F^N)"),
        ((1, 1, 0), 3, "graded", "T(F[X^2], F^N)"),
        ((1, 1, 0), 3, "commutative", "T(F[X], F^N)"),
        ((2, 2, 0), 2, "graded", "F[X^2]"),
        ((2, 2, 0), 3, "graded", "F[X^2]"),
        ((3, 3, 1), 3, "graded", "F[X^6]"),
        ((3, 3, 1), 2, "graded", "F[X^3]"),
        ((3, 3, 1), 3, "commutative", "F[X^3]"),
        ((1, 2, 0), 3, "graded", "T(F, F^N + F^N[-2])"),
        ((1, 2, 0), 2, "commutative", "T(F, F^N + F^N[-2])"),
        ((2, 3, 0), 3, "graded", "T(F, F^N[-3])"),
        ((2, 3, 2), 2, "commutative", "T(F, F^N[-3])"),
        ((3, 4, 1), 3, "graded", "T(F, F^N[-4])"),
        ((1, 3, 0), 3, "graded", "T(F, F^N)"),
        ((1, 4, 0), 2, "commutative", "T(F, F^N)"),
        ((1, 3, 1), 3, "graded", "F"),
        ((2, 4, 0), 3, "graded", "F"),
        ((2, 4, 1), 2, "commutative", "F"),
    ]
    for rnm, char, variant, expected in cases:
        pres = theorem_case(OmegaParams(*rnm), char, variant)
        assert pres.serialize() == expected, (rnm, char, variant)


def test_theorem_case_grid_consistency():
    # even n or char 2 collapses the graded/commutative distinction
    for n in range(1, 5):
        for r in range(1, n + 1):
            for m in range(3):
                params = OmegaParams(r, n, m)
                for char in (2, 3):
                    graded = theorem_case(params, char, "graded")
                    comm = theorem_case(params, char, "commutative")
                    if n % 2 == 0 or char == 2:
                        assert graded == comm, (r, n, m, char)
                    assert graded.socle == comm.socle, (r, n, m, char)


def test_theorem_case_guards():
    with pytest.raises(ValueError):
        theorem_case(OmegaParams(1, 2, 0), 4, "graded")
    with pytest.raises(ValueError):
        theorem_case(OmegaParams(1, 2, 0), 3, "projective")


def test_theorem_case_accepts_model_params():
    p = ModelParams(OmegaParams(2, 2, 0), 6)
    assert theorem_case(p, 3, "graded") == theorem_case(OmegaParams(2, 2, 0), 3, "graded")


def test_reconcile_guards():
    params = ModelParams(OmegaParams(1, 2, 0), 10)
    with pytest.raises(ValueError):
        reconcile(params, 3, "graded", -1, 10)
    with pytest.raises(ValueError):
        reconcile(params, 3, "graded", 2, 6)  # margin 6 leaves no inner box


def test_reconcile_refuses_a_window_that_hides_the_power_class():
    # on (1, 1, 3) the power class of degree 3 starts at gap
    # k(n + m) - m = 9, and an inner box [-4, 4]^2 holds gaps up to 8
    params = ModelParams(OmegaParams(1, 1, 3), 10)
    W = solver_margin(params) + 4
    with pytest.raises(ValueError, match="power class in degree 3"):
        reconcile(ModelParams(params.omega, W), 3, "commutative", 3, W)
    # the same window shows every degree below 3
    assert reconcile(ModelParams(params.omega, W), 3, "commutative", 2, W).ok
    W += 1
    rep = reconcile(ModelParams(params.omega, W), 3, "commutative", 3, W)
    assert rep.ok and rep.lines[3] == "p=3: ok (scalar 0, power 1, 0 socle classes)"


def test_reconcile_matches_table_small():
    params = ModelParams(OmegaParams(1, 2, 0), 10)
    rep = reconcile(params, 3, "graded", 4, 10)
    assert isinstance(rep, ReconcileReport)
    assert rep.ok and not rep.mismatches
    assert len(rep.lines) == 5
    assert rep.lines[0] == "p=0: ok (scalar 1, power 0, 9 socle classes)"
    for line in rep.lines:
        assert line.endswith("socle classes)")


def test_reconcile_power_degrees():
    params = ModelParams(OmegaParams(2, 2, 0), 11)
    rep = reconcile(params, 3, "graded", 4, 11)
    assert rep.ok, rep.mismatches
    # base F[X^2]: power classes exactly in degrees 2 and 4
    assert "p=1: ok (scalar 0, power 0, 0 socle classes)" in rep.lines
    assert "p=2: ok (scalar 0, power 1, 0 socle classes)" in rep.lines
    assert "p=4: ok (scalar 0, power 1, 0 socle classes)" in rep.lines


def test_reconcile_parallel_keyword_is_inert():
    params = ModelParams(OmegaParams(1, 2, 0), 10)
    serial = reconcile(params, 3, "graded", 4, 10, parallel=False)
    pooled = reconcile(params, 3, "graded", 4, 10, parallel=True)
    assert serial.lines == pooled.lines
    assert serial.ok and pooled.ok


def test_reconcile_reports_each_degree_and_who_built_it():
    # four passes over one window of (2, 3, 1): the first builds one system
    # per degree, and the cache serves every later pass
    params = ModelParams(OmegaParams(2, 3, 1), 10)
    W = solver_margin(params) + 4
    params = ModelParams(params.omega, W)
    _build_system.cache_clear()
    passes = [reconcile(params, char, variant, 6, W)
              for variant in ("graded", "commutative") for char in (2, 3)]
    for k, rep in enumerate(passes):
        assert rep.ok, rep.mismatches
        assert [d.p for d in rep.degrees] == list(range(7))
        assert [d.built for d in rep.degrees] == [k == 0] * 7, k
        for d in rep.degrees:
            solved = solve_component(params, d.p, rep.variant, rep.field, W, 4)
            assert d == DegreeWork(d.p, solved.unknowns, solved.rows, solved.merges,
                                   solved.killed_zero, solved.killed_parity, d.built)
    assert _build_system.cache_info().misses == 7


@pytest.mark.parametrize("n", range(1, 7))
def test_reconcile_beyond_the_grid(n):
    # every r <= n and m <= 3, both variants over F_2, F_3 and F_5, in
    # degrees 0..2n+1, at inner window 2n + 2, raised where that box cannot
    # show the power class of some degree kn up to the bound: (1, 1, 3)
    # runs at inner window 5
    for r in range(1, n + 1):
        for m in range(4):
            omega = OmegaParams(r, n, m)
            inner = 2 * n + 2
            while r == n and not all(power_visible(omega, k * n, inner)
                                     for k in range(1, (2 * n + 1) // n + 1)):
                inner += 1
            W = solver_margin(omega) + inner
            params = ModelParams(omega, W)
            for variant in ("graded", "commutative"):
                for char in (2, 3, 5):
                    rep = reconcile(params, char, variant, 2 * n + 1, W)
                    assert rep.ok, (r, n, m, variant, char, rep.mismatches)
