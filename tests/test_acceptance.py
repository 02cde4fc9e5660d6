"""Acceptance gate: every criterion must pass, one printed line each."""

import hashlib
import itertools
from types import SimpleNamespace

import pytest

import gradedcenter.acceptance as acceptance
from gradedcenter.acceptance import (
    CRITERIA,
    GRID,
    _arrow_matrices,
    _assoc_counts,
    _box_coords,
    _c4_membership,
    _c5_reconcile,
    _params,
    _sigma_failure,
    run_criterion,
)
from gradedcenter.center import CenterElement, _build_system
from gradedcenter.cli import main
from gradedcenter.model import KIND_TABLE, Vertex, arrow_of_degree, sigma_pow, vertex_exists

from dense_assoc import dense_assoc_counts
from membership_cases import membership_cases
from sigma_walk import _sigma_functorial

# each criterion's detail line, pinned so that a drifting count fails
DETAILS = {
    1: "60 parameter sets gentle, one-cycle, clock condition failing",
    2: "1380 kind-triple units associative (1200 coupled), 727179 arrows Sigma-stable",
    3: "125997 (vertex, degree) dimensions agree with the closed forms",
    4: "496 membership checks match the predictions, including 36 required sign-law failures",
    5: "120 reconciliations match the classification tables",
    6: "17 solves unchanged when the outer window grows by 2",
    7: "3096 product identities hold",
    8: "120 table rows match the periodicity closed forms",
    9: "7 subcommands byte-identical across repeated runs",
}


@pytest.mark.parametrize("k", range(1, len(CRITERIA) + 1))
def test_criterion(k, capsys):
    name, ok, detail = run_criterion(k)
    with capsys.disabled():
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"
    assert detail == DETAILS[k]


def _with_side(params, kind, i, k, delta):
    """params with side k of the (kind, i) region moved by delta, in
    both the sides and the rules table; the shared tables are copied,
    not changed."""
    sides = dict(params.sides)
    row = list(sides[kind, i])
    coord, offset = row[k]
    row[k] = (coord, offset + delta)
    sides[kind, i] = tuple(row)
    rules = {key: (kd, j, sides[kd, key[3]]) for key, (kd, j, _) in params.rules.items()}
    object.__setattr__(params, "sides", sides)
    object.__setattr__(params, "rules", rules)
    return params


@pytest.mark.parametrize("rnm", [(2, 2, 1), (2, 3, 1), (3, 3, 0), (3, 4, 2)], ids=str)
def test_arrow_matrices_match_sigma_walk(rnm):
    params = _params(*rnm, 5)
    mats = _arrow_matrices(params, 5)
    assert sum(int(M.sum()) for M in mats.values()) == _sigma_functorial(params, 5)[0]
    assert _sigma_failure(params, 5, mats) is None
    assert _sigma_functorial(params, 5)[1] is None


def test_sigma_check_catches_a_moved_side():
    # the upper u1 bound of (f'', 1) one too high lets f'' reach
    # u1 = b + 1 at index 1, which Sigma does not carry to an arrow
    params = _with_side(_params(2, 3, 1, 5), "f''", 1, 1, 1)
    err = _sigma_failure(params, 5, _arrow_matrices(params, 5))
    assert err == "Sigma^1 image of f'':Y(1)[-5,-5]->Y(1)[-4,-4] is not an arrow"
    assert _sigma_functorial(params, 5)[1] == err


@pytest.mark.parametrize("rnm", GRID, ids=str)
def test_sigma_images_are_arrows_exactly(rnm):
    # Sigma is an automorphism, so Sigma^p of a box pair is an arrow
    # exactly when the pair is one, for every p
    params = _params(*rnm, 5)
    mats = _arrow_matrices(params, 5)
    for p in (1, -1, params.r, -params.r - 1, 2 * params.r + 1):
        image = _arrow_matrices(params, 5, p)
        assert image.keys() == mats.keys()
        assert all((image[key] == M).all() for key, M in mats.items()), p


@pytest.mark.parametrize("rnm", [(1, 2, 0), (2, 2, 1), (2, 3, 1)], ids=str)
def test_arrow_matrices_match_arrow_of_degree(rnm):
    # every entry, read off the images of both endpoints one by one
    W = 2
    params = _params(*rnm, W)
    ca, cb = _box_coords(W)
    for p in (0, 1, -1, 2):
        for (kind, i), M in _arrow_matrices(params, W, p).items():
            src, tgt, deg, step = KIND_TABLE[kind]
            j = (i + step) % params.r
            for s in range(ca.size):
                u = sigma_pow(params, Vertex(src, i, int(ca[s]), int(cb[s])), p)
                u_ok = vertex_exists(params, u.family, u.i, u.coord)
                for t in range(ca.size):
                    w = sigma_pow(params, Vertex(tgt, j, int(ca[t]), int(cb[t])), p)
                    want = (
                        u_ok
                        and vertex_exists(params, w.family, w.i, w.coord)
                        and arrow_of_degree(params, u, w, deg) is not None
                    )
                    assert M[s, t] == want, (kind, i, p, s, t)


def test_assoc_counts_read_the_given_matrices():
    # a moved side breaks associativity on the matrices passed in
    params = _params(2, 3, 1, 5)
    assert _assoc_counts(params, _arrow_matrices(params, 5))[2] == []
    moved = _with_side(_params(2, 3, 1, 5), "f''", 1, 1, -1)
    assert _assoc_counts(moved, _arrow_matrices(moved, 5))[2]


@pytest.mark.parametrize("rnm", [(2, 2, 1), (3, 3, 0), (2, 3, 1), (3, 4, 2)], ids=str)
def test_assoc_counts_match_dense_oracle(rnm):
    # every unit's (A, AB, B), in loop order, against the dense contraction
    params = _params(*rnm, 5)
    mats = _arrow_matrices(params, 5)
    units, coupled, bad = _assoc_counts(params, mats)
    dense = dense_assoc_counts(params, mats)
    assert [(label, *counts) for label, counts in dense.items()] == units
    assert coupled == sum(1 for A, _, B in dense.values() if A or B) > 0
    assert bad == []


# non-associative mutants of (2,3,1); their first violations have AB
# below both A and B, AB equal to B only, and AB equal to A only
@pytest.mark.parametrize(
    "kind, i, k, delta", [("f", 0, 0, -1), ("e'", 0, 2, -1), ("h'", 0, 1, 1)], ids=str
)
def test_assoc_violations_match_dense_oracle(kind, i, k, delta):
    params = _with_side(_params(2, 3, 1, 5), kind, i, k, delta)
    mats = _arrow_matrices(params, 5)
    bad = _assoc_counts(params, mats)[2]
    dense = dense_assoc_counts(params, mats)
    assert bad == [
        (label, *counts)
        for label, counts in dense.items()
        if not counts[0] == counts[1] == counts[2]
    ]
    assert bad


def test_criterion_5_builds_one_system_per_degree():
    # four reconcile passes per GRID row, degrees 0..2n: the first pass
    # builds 2n + 1 systems and the cache serves the other three
    _build_system.cache_clear()
    ok, detail = _c5_reconcile()
    assert ok, detail
    assert _build_system.cache_info().misses == sum(2 * n + 1 for _, n, _ in GRID) == 210


def test_criterion_5_degree_work_is_pinned(monkeypatch):
    # every reconcile pass's DegreeWork list from a cold cache, pinned by
    # the totals of each count and a digest of the whole list: the first
    # pass per row builds every degree, and the other three read their
    # counts, under their own (variant, char), from the systems it built
    got = []

    def recording(params, field, variant, *args):
        rep = reconcile(params, field, variant, *args)
        got.append(((params.r, params.n, params.m), variant, field, [tuple(d) for d in rep.degrees]))
        return rep

    reconcile = acceptance.reconcile
    monkeypatch.setattr(acceptance, "reconcile", recording)
    _build_system.cache_clear()
    assert _c5_reconcile()[0]
    degrees = [d for *_, listed in got for d in listed]
    assert len(got) == 120 and len(degrees) == 840
    # unknowns, rows, merges, killed_zero, killed_parity, built
    assert [sum(d[k] for d in degrees) for k in range(1, 7)] == [1009356, 3322496, 1004172, 584, 6, 210]
    digest = hashlib.sha256(repr(got).encode()).hexdigest()
    assert digest == "d8b654e159c8a4ce3fff33c4f4401b4f65e86e32018c5eaea6e03e246a144f2f"


def test_criterion_4_checks_the_listed_cases(monkeypatch):
    # the single rule makes the same checks, with the same predictions, as
    # the three loop nests it replaced; on a passing run each check's
    # verdict is its prediction
    specs, calls = {}, []
    real_make, real_check = acceptance.make_generator, acceptance.check_membership

    def make_generator(params, spec, window):
        el = real_make(params, spec, window)
        specs[id(el)] = (params.r, params.n, params.m, spec.name, spec.q)
        return el

    def check_membership(params, el, window, inner_window, char, variant):
        got = real_check(params, el, window, inner_window, char=char, variant=variant)
        calls.append((*specs[id(el)], variant, char, got[0]))
        return got

    monkeypatch.setattr(acceptance, "make_generator", make_generator)
    monkeypatch.setattr(acceptance, "check_membership", check_membership)
    ok, detail = _c4_membership()
    assert ok, detail
    want = membership_cases()
    assert len(want) == 496 and sum(not case[-1] for case in want) == 36
    assert sorted(calls) == sorted(want)


_make_generator = acceptance.make_generator
_tick = itertools.count()


def _doubled_square(params, spec, window):
    # the direct generator eta^2, every coefficient doubled
    el = _make_generator(params, spec, window)
    if (spec.name, spec.q) != ("eta_power", 2):
        return el
    return CenterElement(el.p, el.variant, {v: mor.scaled(2) for v, mor in el.assignment.items()})


# (criterion, the name it reads in acceptance's namespace, its stand-in,
# the detail of the failure): each stand-in breaks the one quantity that
# its criterion compares
FAILURES = [
    (1, "survey", lambda q: (["patched"], True, False), "(r,n,m)=(1,1,0) not gentle: patched"),
    (1, "survey", lambda q: ([], False, None), "(r,n,m)=(1,1,0) not one-cycle"),
    (1, "survey", lambda q: ([], True, True), "(r,n,m)=(1,1,0) satisfies the clock condition"),
    (2, "_assoc_counts", lambda params, mats: ([], 0, [("patched", 1, 0, 1)]),
     "(r,n,m)=(1,1,0) patched: A=1 AB=0 B=1"),
    (2, "_sigma_failure", lambda params, W, mats: "patched", "(r,n,m)=(1,1,0): patched"),
    (3, "hom_dim_closed_form", lambda params, v, p: -1,
     "(r,n,m)=(1,1,0) X(0)[-6,-6] p=0: model 2, closed form -1"),
    (4, "check_membership", lambda *args, **kwargs: (False, "patched"),
     "(r,n,m)=(1, 2, 0) eta_prime q=0 graded over F2: got False (patched), expected True"),
    (5, "reconcile", lambda *args: SimpleNamespace(ok=False, mismatches=["p=0: patched"]),
     "(r,n,m)=(1,1,0) graded over F2: p=0: patched"),
    (6, "solve_component",
     lambda params, p, variant, char, W, inner: SimpleNamespace(scalar_dim=W, power_dim=0, class_dims={}),
     "(r,n,m)=(1,2,0) p=0: (12, 0, {}) became (14, 0, {}) after widening the outer window"),
    (7, "multiply", lambda params, a, b: a, "eta'(0).eta'(0) is nonzero"),
    (7, "multiply", lambda params, a, b: CenterElement(a.p + b.p, a.variant, {}),
     "eta^2 vanishes for (r,n,m)=(1,1,0)"),
    (7, "make_generator", _doubled_square, "eta^2 disagrees with the direct element at X(0)[-11,-9]"),
    (8, "tau_sigma_periodic", lambda params: (False, []),
     "(r,n,m)=(1,1,0): periodic=False, closed form says True"),
    (8, "reduced_and_nil", lambda pres: ("F", "0"),
     "(r,n,m)=(1,1,0) graded over F2: nil part 0 vs periodicity True"),
    (8, "reduced_and_nil", lambda pres: ("F", "X"),
     "(r,n,m)=(1,1,0) graded over F2: reduced part F vs r == n"),
    (9, "_run_cli", lambda argv: (int(argv[0] == "lambda"), "", ""),
     "exit code 1 for: lambda --r 2 --n 3 --m 1"),
    (9, "_run_cli", lambda argv: (0, str(next(_tick)) if argv[0] == "lambda" else "", ""),
     "nondeterministic output for: lambda --r 2 --n 3 --m 1"),
]


@pytest.mark.parametrize("k, name, stand_in, detail", FAILURES,
                         ids=[f"{k}-{name}-{n}" for n, (k, name, *_) in enumerate(FAILURES)])
def test_criterion_fails_with_its_detail(k, name, stand_in, detail, monkeypatch, capsys):
    # the FAIL path, which a correct library never reaches: the criterion
    # returns (False, detail), and `check --criterion k` prints it and
    # exits 2
    monkeypatch.setattr(acceptance, name, stand_in)
    label, criterion = CRITERIA[k - 1]
    assert criterion() == (False, detail)
    assert main(["check", "--criterion", str(k)]) == 2
    assert capsys.readouterr().out == f"{label}: FAIL ({detail})\n"
