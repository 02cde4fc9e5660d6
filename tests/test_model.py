import itertools
import random

import pytest

from gradedcenter.acceptance import GRID
from gradedcenter.gentle import OmegaParams
from gradedcenter.model import (
    FAMILIES,
    KIND_TABLE,
    ArrowGen,
    ModelParams,
    Morphism,
    Vertex,
    _region_inv,
    arrow_gaps,
    arrow_kind,
    arrow_of_degree,
    arrows_from,
    arrows_to,
    compose,
    enumerate_arrows,
    enumerate_vertices,
    hom_gaps,
    least_gap,
    make_vertex,
    region,
    sigma,
    sigma_mor_pow,
    sigma_pow,
    sigma_shift,
    tau,
    tau_sigma_periodic,
    vertex_exists,
    window_dot,
)

import cell_arrows
import cell_vertices
import tau_search
import vertex_closed_form
from iterated_sigma import iterated_sigma_mor_pow, iterated_sigma_pow, sigma_mor
from region_ladders import _region as ladder_region
from region_ladders import _region_inv as ladder_region_inv

PARAM_SETS = [(1, 1, 0), (1, 2, 0), (2, 3, 1), (2, 2, 1), (1, 3, 2), (3, 4, 0)]


def params_for(r, n, m, window=10):
    return ModelParams(OmegaParams(r, n, m), window)


def test_families_by_case():
    assert params_for(1, 2, 0).families == ("X", "Y", "Z")
    assert params_for(2, 2, 1).families == ("X",)
    assert params_for(1, 1, 0).families == ("X",)


def test_generators_into_inverts_generators():
    # on every r <= n <= 6, m <= 3: the arrows into each (g, j) are the
    # generating arrows out of every (f, i) that end there, each once,
    # listed in (family, index) order
    cases = 0
    for n in range(1, 7):
        for r in range(1, n + 1):
            for m in range(4):
                params = params_for(r, n, m)
                keys = [(f, i) for f in params.families for i in range(r)]
                out, into = params.generators, params.generators_into
                assert list(out) == keys and list(into) == keys, (r, n, m)
                arrows_out = {(f, i, g, j, da, db, along) for (f, i), arrows in out.items()
                              for g, j, da, db, _, along in arrows}
                arrows_in = [(f, i, g, j, da, db, along) for (g, j), arrows in into.items()
                             for f, i, da, db, along in arrows]
                assert len(arrows_in) == len(set(arrows_in)) and set(arrows_in) == arrows_out, (r, n, m)
                for arrows in into.values():
                    order = [(FAMILIES.index(f), i) for f, i, *_ in arrows]
                    assert order == sorted(order), (r, n, m)
                cases += 1
    assert cases == 84


def test_vertex_exists_examples():
    p = params_for(2, 3, 1)
    # X at index 0 admits a <= b + m, other indices a <= b
    assert vertex_exists(p, "X", 0, (1, 0))
    assert not vertex_exists(p, "X", 0, (2, 0))
    assert vertex_exists(p, "X", 1, (0, 0))
    assert not vertex_exists(p, "X", 1, (1, 0))
    # Y at index 0 needs a + n <= b
    assert vertex_exists(p, "Y", 0, (0, 3))
    assert not vertex_exists(p, "Y", 0, (0, 2))
    assert vertex_exists(p, "Y", 1, (0, 0))
    # Z is unconstrained, but the index must be in range
    assert vertex_exists(p, "Z", 0, (5, -5))
    with pytest.raises(ValueError):
        vertex_exists(p, "Z", 2, (0, 0))


def test_vertex_exists_absent_family():
    p = params_for(2, 2, 0)
    assert not vertex_exists(p, "Y", 0, (0, 5))
    assert not vertex_exists(p, "Z", 0, (0, 0))


def test_least_gap_matches_vertex_exists():
    # (family, i, a, b) is a vertex exactly when b - a reaches the least
    # gap, for either sign of a; a family the parameters lack has none.
    # vertex_exists reads least_gap, so both are held to the closed form.
    for r, n, m in GRID + [(3, 5, 3)]:
        p = params_for(r, n, m)
        span = 3 * (n + m)
        for family in FAMILIES:
            for i in range(r):
                if family not in p.families:
                    with pytest.raises(ValueError):
                        least_gap(p, family, i)
                    lo = span + 1
                else:
                    lo = least_gap(p, family, i)
                for t in range(-span, span + 1):
                    for a in (-span, -1, 0, 1, span):
                        want = vertex_closed_form.vertex_exists(p, family, i, (a, a + t))
                        assert want == (lo is None or t >= lo), (r, n, m, family, i, a, t)
                        assert vertex_exists(p, family, i, (a, a + t)) == want
        with pytest.raises(ValueError):
            least_gap(p, "X", r)
        for family, i in (("X", r), ("Z", -1), ("W", 0)):
            for check in (vertex_exists, vertex_closed_form.vertex_exists):
                with pytest.raises(ValueError):
                    check(p, family, i, (0, 0))


def test_make_vertex_rejects_nonexistent():
    p = params_for(1, 2, 0)
    v = make_vertex(p, "X", 0, 0, 0)
    assert v == Vertex("X", 0, 0, 0)
    with pytest.raises(ValueError):
        make_vertex(p, "X", 0, 1, 0)
    with pytest.raises(ValueError):
        make_vertex(p, "Q", 0, 0, 0)


def test_enumerate_vertices_loop_case():
    # (1,1,0) has only X with a <= b: a triangle of the 5x5 box
    p = params_for(1, 1, 0, window=2)
    vs = enumerate_vertices(p)
    assert len(vs) == 15
    assert all(v.family == "X" and v.a <= v.b for v in vs)


def test_enumerate_vertices_all_exist_and_boxed():
    for r, n, m in PARAM_SETS:
        p = params_for(r, n, m, window=3)
        vs = enumerate_vertices(p)
        assert len(vs) == len(set(vs))
        for v in vs:
            assert vertex_exists(p, v.family, v.i, v.coord)
            assert -3 <= v.a <= 3 and -3 <= v.b <= 3


@pytest.mark.parametrize("rnm", GRID + [(3, 5, 3), (4, 6, 2)], ids=str)
def test_enumerate_vertices_matches_cell_oracle(rnm):
    # the least-gap rows against vertex_exists on every cell, in order
    for W in (1, 3, 6, 12):
        params = params_for(*rnm, window=W)
        assert enumerate_vertices(params) == cell_vertices.enumerate_vertices(params), W


def test_kind_by_signature_agrees_with_table():
    # an arrow's kind and target index are read off params.rules by its
    # signature (source family, target family, degree, source index)
    for rnm in GRID:
        params = params_for(*rnm)
        rules, r = params.rules, params.r
        for kind, (src, tgt, deg, step) in KIND_TABLE.items():
            for i in range(r):
                assert rules[src, tgt, deg, i][:2] == (kind, (i + step) % r), (rnm, kind, i)
        assert len(rules) == len(KIND_TABLE) * r
        for i in range(r):
            assert ("X", "Y", 0, i) not in rules
            assert ("Z", "Z", 1, i) not in rules


def test_model_params_claim_no_order():
    # an OmegaParams has no order, so neither has a ModelParams, even
    # where the omegas are equal; equality and hashing stay by value
    for other in (OmegaParams(1, 3, 0), OmegaParams(1, 2, 0)):
        with pytest.raises(TypeError):
            ModelParams(OmegaParams(1, 2, 0)) < ModelParams(other)
    assert ModelParams(OmegaParams(1, 2, 0)) == ModelParams(OmegaParams(1, 2, 0))
    assert ModelParams(OmegaParams(1, 2, 0)) != ModelParams(OmegaParams(1, 2, 0), 11)
    assert hash(ModelParams(OmegaParams(1, 2, 0))) == hash(ModelParams(OmegaParams(1, 2, 0)))


def test_region_table_matches_ladders():
    # Both directions are read off REGION_TABLE; the hand-written ladders
    # it replaced are the oracle, on every GRID row, kind and index.
    for r, n, m in GRID:
        p = params_for(r, n, m)
        for kind, (src, tgt, _deg, _step) in KIND_TABLE.items():
            for i in range(r):
                for a in range(-3, 4):
                    for b in range(-3, 4):
                        v, w = Vertex(src, i, a, b), Vertex(tgt, i, a, b)
                        assert region(p, kind, v) == ladder_region(p, kind, v), (r, n, m, v)
                        assert _region_inv(p, kind, w) == ladder_region_inv(p, kind, w), (
                            r, n, m, kind, w)


def test_arrow_endpoints_lie_in_regions():
    for r, n, m in PARAM_SETS:
        p = params_for(r, n, m)
        for v in enumerate_vertices(params_for(r, n, m, window=2)):
            for g in arrows_from(p, v, box=4):
                lo1, hi1, lo2, hi2 = region(p, g.kind, v)
                assert lo1 is None or lo1 <= g.target.a
                assert hi1 is None or g.target.a <= hi1
                assert lo2 is None or lo2 <= g.target.b
                assert hi2 is None or g.target.b <= hi2


def _arrows_between(p, v, w):
    arrows = (arrow_of_degree(p, v, w, degree) for degree in (0, 1, 2))
    return [g for g in arrows if g is not None]


def test_arrows_from_matches_pairwise_enumeration():
    # arrows_from walks regions; arrow_of_degree probes one pair at a time.
    for r, n, m in PARAM_SETS:
        p = params_for(r, n, m, window=3)
        targets = enumerate_vertices(p)
        for v in enumerate_vertices(params_for(r, n, m, window=2)):
            direct = {g for g in arrows_from(p, v, box=3)}
            pairwise = {g for w in targets for g in _arrows_between(p, v, w)}
            assert direct == pairwise, (r, n, m, v)


@pytest.mark.parametrize("rnm", GRID, ids=str)
def test_arrows_match_cell_oracle(rnm):
    # The wrappers over the integer ranges list the same arrows, in the
    # same order, as the per-cell walk they replace; every vertex of the
    # W = 6 box, so boxes 1 and 3 also see vertices outside them.
    p = params_for(*rnm, window=6)
    for v in enumerate_vertices(p):
        for box in (1, 3, 6):
            assert arrows_from(p, v, box) == cell_arrows.arrows_from(p, v, box), (v, box)
            assert arrows_to(p, v, box) == cell_arrows.arrows_to(p, v, box), (v, box)
    v = Vertex("X", 0, 0, 0)
    assert arrows_from(p, v) == cell_arrows.arrows_from(p, v, 6)
    assert arrows_to(p, v) == cell_arrows.arrows_to(p, v, 6)


def test_arrows_to_transposes_arrows_from():
    for r, n, m in PARAM_SETS:
        p = params_for(r, n, m, window=3)
        verts = enumerate_vertices(p)
        by_target: dict = {}
        for v in verts:
            for g in arrows_from(p, v, box=3):
                by_target.setdefault(g.target, set()).add(g)
        for w in verts:
            assert set(arrows_to(p, w, box=3)) == by_target.get(w, set()), (r, n, m, w)


def test_arrow_basic_invariants():
    for r, n, m in PARAM_SETS:
        p = params_for(r, n, m, window=3)
        for g in enumerate_arrows(p):
            assert g.degree in (0, 1, 2)
            assert g.kind in KIND_TABLE
            src, tgt, deg, step = KIND_TABLE[g.kind]
            assert (g.source.family, g.target.family, g.degree) == (src, tgt, deg)
            assert g.target.i == (g.source.i + step) % p.r
            assert vertex_exists(p, g.source.family, g.source.i, g.source.coord)
            assert vertex_exists(p, g.target.family, g.target.i, g.target.coord)
            if deg == 0:
                assert g.source != g.target


def test_degree_zero_excludes_identity_slot():
    p = params_for(1, 2, 0)
    v = Vertex("X", 0, 0, 3)
    assert arrow_of_degree(p, v, v, 0) is None
    w = Vertex("X", 0, 0, 4)
    g = arrow_of_degree(p, v, w, 0)
    assert g is not None and g.kind == "f'"


@pytest.mark.parametrize("rnm", [(1, 1, 0), (1, 2, 1), (2, 2, 1), (2, 3, 2), (3, 4, 2), (3, 5, 3), (4, 6, 2)],
                         ids=str)
def test_hom_gaps_match_arrow_kind(rnm):
    # the interval of gaps against arrow_kind gap by gap, for targets in
    # the same family that move along the diagonal with the source: every
    # small offset, and each translate Sigma^p for p = 0..4n+2, the rule
    # center.multiply reads, in degrees up to 4, the largest slot of a
    # product, from sources on a small box
    params = ModelParams(OmegaParams(*rnm))
    r, n, m = params.r, params.n, params.m
    offsets = range(-3, 4)
    for f, degree, i in itertools.product(FAMILIES, range(5), range(r)):
        rule = params.rules.get((f, f, degree, i))
        shifts = {(j, da, db) for j in {0 if rule is None else rule[1], (i + 1) % r}
                  for da, db in itertools.product(offsets, offsets)}
        shifts.update(sigma_shift(params, f, i, p) for p in range(4 * n + 3))
        for j, da, db in sorted(shifts):
            gaps = hom_gaps(params, f, i, degree, (j, da, db))
            lo, hi = (None, None) if gaps is None else gaps
            # every bound of a region is a source coordinate plus 0, m or
            # -n, so the gaps past this reach all read alike
            reach = max(12, abs(da) + abs(db) + n + m + 2)
            for a, t in itertools.product(range(-2, 3), range(-reach, reach + 1)):
                want = arrow_kind(params.rules, f, i, a, a + t, f, j, a + da, a + t + db,
                                  degree) is not None
                got = (gaps is not None and (lo is None or lo <= t)
                       and (hi is None or t <= hi))
                assert got == want, (f, i, j, degree, da, db, a, t)


@pytest.mark.parametrize("rnm", GRID + [(3, 5, 3)], ids=str)
def test_arrow_gaps_match_arrow_kind(rnm):
    # the interval against arrow_kind cell by cell on every rule key:
    # both values of along, c1 and c2 in [-8, 8] and t in [-20, 20]; a
    # target index other than the rule's has no gap
    rules = ModelParams(OmegaParams(*rnm)).rules
    ts = range(-20, 21)
    for (f, g, degree, i), (_, j, _) in rules.items():
        assert arrow_gaps(rules, f, i, g, j + 1, 0, 0, True, degree) is None
        for along in (True, False):
            if degree == 0 and not along:
                with pytest.raises(ValueError, match="degree 0"):
                    arrow_gaps(rules, f, i, g, j, 1, 1, along, degree)
                continue
            for c1, c2 in itertools.product(range(-8, 9), range(-8, 9)):
                gaps = arrow_gaps(rules, f, i, g, j, c1, c2, along, degree)
                lo, hi = (0, -1) if gaps is None else gaps
                got = [(lo is None or lo <= t) and (hi is None or t <= hi) for t in ts]
                want = [arrow_kind(rules, f, i, 0, t, g, j, c1, c2 + along * t, degree) is not None
                        for t in ts]
                assert got == want, (f, g, degree, i, along, c1, c2)


def _hom_gaps_before(params, family, i, degree, shift):
    """hom_gaps as it was before it became arrow_gaps' along case, with
    its own reading of the region sides."""
    j, da, db = shift
    rule = params.rules.get((family, family, degree, i))
    if rule is None or rule[1] != j or (degree == 0 and j == i and da == db == 0):
        return None
    lo = hi = None
    for k, side in enumerate(rule[2]):
        if side is None:
            continue
        coord, offset = side
        slope = k // 2 - coord
        bound = offset - (da, db)[k // 2]
        lower = k % 2 == 0
        if slope == 0:
            if (bound > 0) if lower else (bound < 0):
                return None
            continue
        if slope < 0:
            bound, lower = -bound, not lower
        if lower:
            lo = bound if lo is None else max(lo, bound)
        else:
            hi = bound if hi is None else min(hi, bound)
    if lo is not None and hi is not None and lo > hi:
        return None
    return (lo, hi)


def test_hom_gaps_are_unchanged():
    # every (family, i, degree) and Sigma^p, p = -3..2n+1, on all 84 rows
    # r <= n <= 6, m <= 3
    cases = 0
    for n in range(1, 7):
        for r, m in itertools.product(range(1, n + 1), range(4)):
            params = ModelParams(OmegaParams(r, n, m))
            for f, i, degree in itertools.product(params.families, range(r), range(3)):
                for p in range(-3, 2 * n + 2):
                    shift = sigma_shift(params, f, i, p)
                    cases += 1
                    want = _hom_gaps_before(params, f, i, degree, shift)
                    assert hom_gaps(params, f, i, degree, shift) == want, (r, n, m, f, i, degree, p)
    assert cases == 22344


def test_arrows_are_sigma_equivariant():
    # Regions commute with the suspension shift, so the arrow set out of
    # Sigma v is the Sigma-image of the arrow set out of v.
    for r, n, m in PARAM_SETS:
        p = params_for(r, n, m)
        for v in enumerate_vertices(params_for(r, n, m, window=2)):
            sv = sigma(p, v)
            image = {
                ArrowGen(g.kind, sv, sigma(p, g.target), g.degree)
                for g in arrows_from(p, v, box=12)
            }
            shifted = set(arrows_from(p, sv, box=12 + n + m))
            # compare only arrows whose target stays well inside both boxes
            tight = {g for g in shifted if g.source == sv}
            assert image <= tight
            back = {
                ArrowGen(g.kind, v, sigma_pow(p, g.target, -1), g.degree)
                for g in tight
                if max(abs(sigma_pow(p, g.target, -1).a), abs(sigma_pow(p, g.target, -1).b)) <= 12
            }
            assert back <= set(arrows_from(p, v, box=12))


def test_sigma_roundtrip_and_existence():
    for r, n, m in PARAM_SETS:
        p = params_for(r, n, m, window=4)
        for v in enumerate_vertices(p):
            sv = sigma(p, v)
            assert sigma_pow(p, sv, -1) == v
            assert sigma(p, sigma_pow(p, v, -1)) == v
            assert vertex_exists(p, sv.family, sv.i, sv.coord)
            iv = sigma_pow(p, v, -1)
            assert vertex_exists(p, iv.family, iv.i, iv.coord)


def test_sigma_pow_additive():
    p = params_for(2, 3, 1)
    v = Vertex("Y", 0, 0, 5)
    for s in (-3, 0, 2, 5):
        for t in (-2, 1, 4):
            assert sigma_pow(p, sigma_pow(p, v, s), t) == sigma_pow(p, v, s + t)


def _hom_morphisms(p, v, box):
    """For each target w of an arrow out of v, plus w = v: the morphism
    v -> w carrying every parallel basis arrow with distinct coefficients
    (and the identity when w = v)."""
    out = []
    for w in sorted({g.target for g in arrows_from(p, v, box=box)} | {v}):
        terms = {g: k + 2 for k, g in enumerate(_arrows_between(p, v, w))}
        if w == v:
            terms[None] = 1
        out.append(Morphism(v, w, terms))
    return out


def test_closed_form_sigma_matches_iteration():
    multi_term = 0
    for r, n, m in GRID:
        p = params_for(r, n, m)
        degrees = range(-3 * r - 1, 3 * r + 2)
        for v in enumerate_vertices(params_for(r, n, m, window=1)):
            for q in degrees:
                assert sigma_pow(p, v, q) == iterated_sigma_pow(p, v, q), (r, n, m, v, q)
            for f in _hom_morphisms(p, v, box=2):
                if len(f.terms) == 1 and f.target != v:
                    continue  # single arrows: covered by the vertex sweep
                multi_term += len(f.terms) > 1
                for q in degrees:
                    assert sigma_mor_pow(p, f, q) == iterated_sigma_mor_pow(p, f, q)
    assert multi_term > 0


def test_sigma_mor_pow_inverts_for_both_signs():
    p = params_for(2, 3, 1)
    for v in enumerate_vertices(params_for(2, 3, 1, window=1)):
        for f in _hom_morphisms(p, v, box=2):
            for s in (-7, -2, -1, 1, 2, 7):
                assert sigma_mor_pow(p, sigma_mor_pow(p, f, s), -s) == f
                assert sigma_mor_pow(p, f, s) != f


def test_sigma_pow_large_degree_is_a_translation():
    q = 10**9
    for r, n, m in GRID:
        p = params_for(r, n, m)
        cycle = {"X": (r + m, r + m), "Y": (r - n, r - n), "Z": (r + m, r - n)}
        turns, rest = divmod(q, r)
        for family in p.families:
            for i in range(r):
                v = Vertex(family, i, 0, n if family == "Y" else 0)
                c1, c2 = cycle[family]
                moved = Vertex(family, i, turns * c1, v.b + turns * c2)
                assert sigma_pow(p, v, q) == iterated_sigma_pow(p, moved, rest)
                assert sigma_pow(p, v, -q) == iterated_sigma_pow(
                    p, Vertex(family, i, -turns * c1, v.b - turns * c2), -rest
                )


def test_sigma_full_cycle_vectors():
    # r steps shift coordinates by (r+m, r+m) on X, (r-n, r-n) on Y,
    # and (r+m, r-n) on Z.
    p = params_for(2, 3, 1)
    x = Vertex("X", 0, 0, 0)
    assert sigma_pow(p, x, 2) == Vertex("X", 0, 3, 3)
    y = Vertex("Y", 0, 0, 4)
    assert sigma_pow(p, y, 2) == Vertex("Y", 0, -1, 3)
    z = Vertex("Z", 0, 0, 0)
    assert sigma_pow(p, z, 2) == Vertex("Z", 0, 3, -1)
    assert [sigma_shift(p, f, 0, p.r)[1:] for f in "XYZ"] == [(3, 3), (-1, -1), (3, -1)]


def test_tau_is_diagonal_shift():
    p = params_for(1, 2, 0)
    assert tau(p, Vertex("Z", 0, 2, -1)) == Vertex("Z", 0, 1, -2)


def test_tau_sigma_periodic_closed_form():
    # every r <= n <= 6, m <= 3; the search in tests/ is the oracle
    for r, n, m in [(r, n, m) for n in range(1, 7) for r in range(1, n + 1) for m in range(4)]:
        p = params_for(r, n, m)
        periodic, witnesses = tau_sigma_periodic(p)
        if r == n:
            expected = (n, m) == (1, 0)
        else:
            expected = r == n - 1 or (r == 1 and m == 0)
        assert periodic == expected, (r, n, m)
        assert (periodic, witnesses) == tau_search.tau_sigma_periodic(p), (r, n, m)
        for family, q in witnesses:
            assert q % r == 0
            rep = Vertex(family, 0, 0, n if family == "Y" else 0)
            assert tau(p, rep) == sigma_pow(p, rep, q)


def test_morphism_algebra():
    v = Vertex("X", 0, 0, 0)
    ident = Morphism.identity(v)
    assert not ident.is_zero()
    assert ident.plus(ident.scaled(-1)).is_zero()
    assert ident.plus(ident).is_zero(2)
    assert not ident.plus(ident).is_zero(3)
    assert ident.scaled(3).is_zero(3)
    assert Morphism.zero(v, v).is_zero()
    assert Morphism.of_gen(ArrowGen("e'", v, v, 2), 0).is_zero()


def test_morphism_term_endpoint_validation():
    v = Vertex("X", 0, 0, 0)
    w = Vertex("X", 0, 0, 1)
    with pytest.raises(ValueError):
        Morphism(v, w, {None: 1})
    g = ArrowGen("f'", v, w, 0)
    with pytest.raises(ValueError):
        Morphism(w, v, {g: 1})
    with pytest.raises(ValueError):
        Morphism.identity(v).plus(Morphism.zero(v, w))


def test_compose_identity_laws():
    p = params_for(1, 2, 0)
    v = Vertex("X", 0, 0, 2)
    w = Vertex("X", 0, 0, 4)
    f = Morphism.of_gen(arrow_of_degree(p, v, w, 0), 2)
    assert compose(p, f, Morphism.identity(v)) == f
    assert compose(p, Morphism.identity(w), f) == f


def test_compose_requires_matching_endpoints():
    p = params_for(1, 2, 0)
    v = Vertex("X", 0, 0, 2)
    with pytest.raises(ValueError):
        compose(p, Morphism.identity(v), Morphism.zero(v, Vertex("X", 0, 0, 3)))


def _sample(rng, items, k):
    return rng.sample(items, min(k, len(items)))


def test_compose_is_unique_arrow_of_summed_degree():
    # The product of two basis arrows is either zero or the single arrow
    # of the summed degree, with coefficient one.
    rng = random.Random(5)
    for r, n, m in PARAM_SETS:
        p = params_for(r, n, m)
        starts = enumerate_vertices(params_for(r, n, m, window=2))
        for v in _sample(rng, starts, 12):
            for f in _sample(rng, arrows_from(p, v, box=6), 20):
                for g in _sample(rng, arrows_from(p, f.target, box=6), 20):
                    prod = compose(p, Morphism.of_gen(g), Morphism.of_gen(f))
                    expected = arrow_of_degree(p, v, g.target, f.degree + g.degree)
                    if f.degree + g.degree > 2:
                        expected = None
                    if expected is None:
                        assert prod.is_zero()
                    else:
                        assert prod.terms == {expected: 1}


def test_compose_associative_sampled():
    rng = random.Random(11)
    for r, n, m in PARAM_SETS:
        p = params_for(r, n, m)
        starts = enumerate_vertices(params_for(r, n, m, window=2))
        chains = 0
        for v in _sample(rng, starts, 8):
            for f in _sample(rng, arrows_from(p, v, box=5), 8):
                for g in _sample(rng, arrows_from(p, f.target, box=5), 8):
                    for h in _sample(rng, arrows_from(p, g.target, box=5), 8):
                        mf, mg, mh = (Morphism.of_gen(x) for x in (f, g, h))
                        lhs = compose(p, compose(p, mh, mg), mf)
                        rhs = compose(p, mh, compose(p, mg, mf))
                        assert lhs.plus(rhs.scaled(-1)).is_zero()
                        chains += 1
        assert chains > 0


def test_sigma_mor_is_functorial():
    rng = random.Random(3)
    p = params_for(2, 3, 1)
    starts = enumerate_vertices(params_for(2, 3, 1, window=2))
    for v in _sample(rng, starts, 10):
        for f in _sample(rng, arrows_from(p, v, box=5), 12):
            mf = Morphism.of_gen(f, 2)
            sf = sigma_mor_pow(p, mf, 1)
            assert sf.source == sigma(p, v)
            assert sf.target == sigma(p, f.target)
            for g in _sample(rng, arrows_from(p, f.target, box=5), 12):
                mg = Morphism.of_gen(g)
                lhs = sigma_mor_pow(p, compose(p, mg, mf), 1)
                rhs = compose(p, sigma_mor_pow(p, mg, 1), sf)
                assert lhs.plus(rhs.scaled(-1)).is_zero()


def test_sigma_mor_pow_matches_iteration():
    p = params_for(1, 2, 0)
    v = Vertex("Y", 0, 0, 3)
    f = Morphism.identity(v)
    assert sigma_mor_pow(p, f, 3) == sigma_mor(p, sigma_mor(p, sigma_mor(p, f)))


def test_window_dot_shape():
    p = params_for(1, 2, 0, window=1)
    dot = window_dot(p)
    assert dot.startswith("digraph")
    assert dot.rstrip().endswith("}")
    assert dot == window_dot(p)  # deterministic
    assert dot.count("->") == len(enumerate_arrows(p))


def test_model_params_needs_a_positive_window():
    with pytest.raises(ValueError, match="window must be >= 1"):
        ModelParams(OmegaParams(1, 2, 0), 0)
