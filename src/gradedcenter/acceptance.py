"""Executable acceptance suite: nine independent criteria.

Each criterion is a pure function returning (ok, detail).  Detail
strings carry counts, never timings, so the check subcommand's output
stays byte-identical across runs.
"""

from __future__ import annotations

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from .center import (
    VARIANTS,
    GeneratorSpec,
    check_membership,
    law_sign,
    make_generator,
    membership_margin,
    multiply,
    solve_component,
    solver_margin,
)
from .gentle import (
    OmegaParams,
    build_lambda,
    format_quiver,
    survey,
)
from .hom import hom_basis, hom_dim_closed_form
from .model import (
    KIND_TABLE,
    ArrowGen,
    ModelParams,
    Vertex,
    enumerate_vertices,
    least_gap,
    sigma_shift,
    tau_sigma_periodic,
)
from .ring import reconcile, reduced_and_nil, theorem_case

# the standard parameter grid shared by most criteria
GRID = [(r, n, m) for n in range(1, 5) for r in range(1, n + 1) for m in range(3)]


class _CriterionFailure(Exception):
    pass


def _params(r: int, n: int, m: int, window: int = 10) -> ModelParams:
    return ModelParams(OmegaParams(r, n, m), window)


# ---------------------------------------------------------------- criterion 1


def _c1_gentle_grid():
    count = 0
    for n in range(1, 6):
        for r in range(1, n + 1):
            for m in range(4):
                q = build_lambda(OmegaParams(r, n, m))
                violations, one_cycle, clock = survey(q)
                if violations:
                    return False, f"(r,n,m)=({r},{n},{m}) not gentle: {violations[0]}"
                if not one_cycle:
                    return False, f"(r,n,m)=({r},{n},{m}) not one-cycle"
                if clock:
                    return False, f"(r,n,m)=({r},{n},{m}) satisfies the clock condition"
                if len(q.relations) != r:
                    return False, (
                        f"(r,n,m)=({r},{n},{m}) has {len(q.relations)} relations"
                    )
                count += 1
    return True, f"{count} parameter sets gentle, one-cycle, clock condition failing"


# ---------------------------------------------------------------- criterion 2
#
# Associativity is counted, not sampled.  For a composable kind triple
# (k1, k2, k3) with source index i, a windowed chain v -> x -> y -> w
# contributes to
#   A  when the left-nested composite is nonzero (the composite arrow
#      x -> w and the total arrow v -> w both exist),
#   B  when the right-nested composite is nonzero (v -> y and v -> w),
#   AB when both do.
# Composition of basis arrows either vanishes or is the unique arrow of
# the summed degree, so associativity over the window is exactly
# A == AB == B for every unit.  A and B reduce to products of three
# matrices over coordinate pairs.  AB is one product over the arrows
# v -> x of k1: with Q12 the matrix of the composites v -> y, row
# (v, x) of (M2[x] * Q12[v]) @ M3 counts, per w, the y with x -> y,
# v -> y and y -> w, and is then masked by x -> w and v -> w.  Every
# float32 entry counts coordinate pairs (at most the 121 of the box at
# W = 5, or its square for A and B), far below 2**24, and each sum is
# taken in float64, so all three counts are exact.


def _box_coords(W: int):
    side = np.arange(-W, W + 1, dtype=np.int16)
    return np.repeat(side, side.size), np.tile(side, side.size)


def _arrow_matrices(params: ModelParams, W: int, p: int = 0):
    """Boolean matrix per (kind, source index): entry (s, t) says that
    Sigma^p carries box coordinate pair s -> t to a generator arrow of
    the kind; p = 0 reads the arrows themselves."""
    ca, cb = _box_coords(W)
    mats = {}
    for kind, (src_fam, tgt_fam, deg, step) in KIND_TABLE.items():
        if src_fam not in params.families or tgt_fam not in params.families:
            continue
        for i in range(params.r):
            # each end translated by Sigma^p from its own family and index;
            # a vertex exists where its gap b - a reaches the least gap
            ends = []
            for family, index in ((src_fam, i), (tgt_fam, (i + step) % params.r)):
                j, da, db = sigma_shift(params, family, index, p)
                a, b = ca + da, cb + db
                lo = least_gap(params, family, j)
                ends.append((j, a, b, np.ones(ca.size, bool) if lo is None else b - a >= lo))
            (si, sa, sb, s_ok), (_, ta, tb, t_ok) = ends
            # The target lands at index (i + step + p) mod r, the kind's
            # target index for the image source si, so arrow_of_degree's
            # index test always passes here.
            M = s_ok[:, None] & t_ok[None, :]
            # side k bounds target coordinate k // 2, from below when k is even
            for k, side in enumerate(params.sides[kind, si]):
                if side is not None:
                    coord, offset = side
                    bound = ((sa, sb)[coord] + offset)[:, None]
                    u = (ta, tb)[k // 2][None, :]
                    M &= (bound <= u) if k % 2 == 0 else (u <= bound)
            if deg == 0:
                # no degree-0 arrow joins a vertex to itself; Sigma^p moves
                # both ends by one vector, so that is still the diagonal
                np.fill_diagonal(M, False)
            mats[(kind, i)] = M
    return mats


def _composable_triples(params: ModelParams):
    fams = params.families
    out = []
    for k1, (f1, g1, d1, _) in KIND_TABLE.items():
        if f1 not in fams or g1 not in fams:
            continue
        for k2, (f2, g2, d2, _) in KIND_TABLE.items():
            if f2 != g1 or g2 not in fams:
                continue
            for k3, (f3, g3, d3, _) in KIND_TABLE.items():
                if f3 != g2 or g3 not in fams:
                    continue
                if d1 + d2 + d3 <= 2:
                    out.append((k1, k2, k3))
    return out


def _resolve(params: ModelParams, fam_a: str, fam_b: str, deg: int, i_a: int, i_b: int):
    """Matrix key of the composite signature, or None when the signature
    or the index arithmetic rules the composite out (ModelParams.rules)."""
    rule = params.rules.get((fam_a, fam_b, deg, i_a))
    if rule is None or rule[1] != i_b:
        return None
    return (rule[0], i_a)


def _assoc_counts(params: ModelParams, mats: dict):
    """(units, coupled, violations) for all kind triples, on the arrow
    matrices of _arrow_matrices: each unit's (label, A, AB, B) in loop
    order, the number of units with a nonvanishing nesting, and the
    units whose three counts differ."""
    matsf = {k: M.astype(np.float32) for k, M in mats.items()}
    units = []
    for k1, k2, k3 in _composable_triples(params):
        f1, f2, d1, s1 = KIND_TABLE[k1]
        _, f3, d2, s2 = KIND_TABLE[k2]
        _, f4, d3, s3 = KIND_TABLE[k3]
        for i1 in range(params.r):
            i2 = (i1 + s1) % params.r
            i3 = (i2 + s2) % params.r
            i4 = (i3 + s3) % params.r
            A = AB = B = 0
            # no total signature: both nestings vanish identically
            total = _resolve(params, f1, f4, d1 + d2 + d3, i1, i4)
            if total is not None:
                q12 = _resolve(params, f1, f3, d1 + d2, i1, i3)
                q23 = _resolve(params, f2, f4, d2 + d3, i2, i4)
                M1, M2, M3 = matsf[(k1, i1)], matsf[(k2, i2)], matsf[(k3, i3)]
                G = matsf[total]
                if q23 is not None:
                    A = int(((M1.T @ G) * matsf[q23] * (M2 @ M3)).sum(dtype=np.float64))
                if q12 is not None:
                    B = int(((M1 @ M2) * matsf[q12] * (G @ M3.T)).sum(dtype=np.float64))
                if (A or B) and q12 is not None and q23 is not None:
                    v, x = np.nonzero(mats[k1, i1])
                    AB = int(
                        (((M2[x] * matsf[q12][v]) @ M3) * matsf[q23][x] * G[v])
                        .sum(dtype=np.float64)
                    )
            units.append((f"{k1}*{k2}*{k3} at i={i1}", A, AB, B))
    coupled = sum(1 for _, A, _, B in units if A or B)
    return units, coupled, [u for u in units if not u[1] == u[2] == u[3]]


def _sigma_failure(params: ModelParams, W: int, mats: dict):
    """None if Sigma and its inverse carry every arrow of mats (the box
    [-W, W]^2 at p = 0) to an arrow, else a message naming one that
    they do not."""
    ca, cb = _box_coords(W)
    for p in (1, -1):
        image = _arrow_matrices(params, W, p)
        for (kind, i), M in mats.items():
            bad = np.argwhere(M & ~image[kind, i])
            if bad.size:
                src, tgt, deg, step = KIND_TABLE[kind]
                s, t = bad[0]
                u = Vertex(src, i, int(ca[s]), int(cb[s]))
                w = Vertex(tgt, (i + step) % params.r, int(ca[t]), int(cb[t]))
                return f"Sigma^{p} image of {ArrowGen(kind, u, w, deg)!r} is not an arrow"
    return None


def _c2_model_consistency():
    total_units = total_coupled = total_arrows = 0
    for r, n, m in GRID:
        params = _params(r, n, m, 5)
        mats = _arrow_matrices(params, 5)
        units, coupled, bad = _assoc_counts(params, mats)
        total_units += len(units)
        total_coupled += coupled
        if bad:
            label, A, AB, B = bad[0]
            return False, f"(r,n,m)=({r},{n},{m}) {label}: A={A} AB={AB} B={B}"
        total_arrows += sum(int(M.sum()) for M in mats.values())
        err = _sigma_failure(params, 5, mats)
        if err:
            return False, f"(r,n,m)=({r},{n},{m}): {err}"
    return True, (
        f"{total_units} kind-triple units associative"
        f" ({total_coupled} coupled), {total_arrows} arrows Sigma-stable"
    )


# ---------------------------------------------------------------- criterion 3


def _c3_hom_oracle():
    checked = 0
    for r, n, m in GRID:
        params = _params(r, n, m, 6)
        for v in enumerate_vertices(params):
            for p in range(2 * n + 3):
                model_dim = hom_basis(params, v, p).dim
                formula = hom_dim_closed_form(params, v, p)
                checked += 1
                if model_dim != formula:
                    return False, (
                        f"(r,n,m)=({r},{n},{m}) {v!r} p={p}:"
                        f" model {model_dim}, closed form {formula}"
                    )
    return True, f"{checked} (vertex, degree) dimensions agree with the closed forms"


# ---------------------------------------------------------------- criterion 4


def _c4_membership():
    W = 12
    cases = [((n - 1, n, m), GeneratorSpec(name, q)) for n in (2, 3, 4) for m in (0, 1, 2)
             for q in range(4) for name in ("eta_prime", "eta_dprime")]
    cases += [((1, n, 0), GeneratorSpec("eta_zero", q)) for n in (1, 2, 3, 4) for q in range(4)]
    cases += [((n, n, m), GeneratorSpec("eta_power", k)) for n in (1, 2, 3, 4) for m in (0, 1, 2)
              for k in range(1, 4)]
    checks = required_failures = 0
    for rnm, spec in cases:
        params = _params(*rnm, window=W)
        el = make_generator(params, spec, W)
        for char in (2, 3):
            for variant in VARIANTS:
                # el.variant is the sign law make_generator built it to
                # satisfy; the other law agrees with it exactly where both
                # set the same sign or the characteristic is 2
                expected = law_sign(variant, el.p) == law_sign(el.variant, el.p) or char == 2
                ok, why = check_membership(
                    params, el, W, W - membership_margin(params), char=char, variant=variant
                )
                checks += 1
                required_failures += not expected
                if ok != expected:
                    return False, (
                        f"(r,n,m)={rnm} {spec.name} q={spec.q} {variant} over F{char}:"
                        f" got {ok} ({why}), expected {expected}"
                    )
    return True, (
        f"{checks} membership checks match the predictions,"
        f" including {required_failures} required sign-law failures"
    )


# ---------------------------------------------------------------- criterion 5


def _c5_reconcile():
    rows = 0
    for r, n, m in GRID:
        W = solver_margin(_params(r, n, m)) + n + m + 4
        params = _params(r, n, m, W)
        for variant in VARIANTS:
            for char in (2, 3):
                rep = reconcile(params, char, variant, 2 * n, W)
                rows += 1
                if not rep.ok:
                    return False, (
                        f"(r,n,m)=({r},{n},{m}) {variant} over F{char}: "
                        + rep.mismatches[0]
                    )
    return True, f"{rows} reconciliations match the classification tables"


# ---------------------------------------------------------------- criterion 6


def _c6_stabilization():
    compared = 0
    for r, n, m in ((1, 2, 0), (2, 3, 0), (2, 2, 0)):
        inner = n + m + 4
        W = solver_margin(_params(r, n, m)) + inner
        for p in range(2 * n + 1):
            small = solve_component(_params(r, n, m, W), p, "graded", 3, W, inner)
            large = solve_component(
                _params(r, n, m, W + 2), p, "graded", 3, W + 2, inner
            )
            compared += 1
            got = (small.scalar_dim, small.power_dim, small.class_dims)
            want = (large.scalar_dim, large.power_dim, large.class_dims)
            if got != want:
                return False, (
                    f"(r,n,m)=({r},{n},{m}) p={p}: {got} became {want}"
                    " after widening the outer window"
                )
    return True, f"{compared} solves unchanged when the outer window grows by 2"


# ---------------------------------------------------------------- criterion 7


def _c7_products():
    checks = 0

    def assert_zero(params, a, b, label):
        nonlocal checks
        checks += 1
        if not multiply(params, a, b).is_zero(None):
            raise _CriterionFailure(f"{label} is nonzero")

    try:
        W = 12
        pr = _params(1, 2, 0, W)
        e_p = {q: make_generator(pr, GeneratorSpec("eta_prime", q), W) for q in range(3)}
        e_dp = {q: make_generator(pr, GeneratorSpec("eta_dprime", q), W) for q in range(3)}
        e_z = {q: make_generator(pr, GeneratorSpec("eta_zero", q), W) for q in range(3)}
        for q1 in range(3):
            for q2 in range(3):
                assert_zero(pr, e_p[q1], e_p[q2], f"eta'({q1}).eta'({q2})")
                assert_zero(pr, e_dp[q1], e_dp[q2], f"eta''({q1}).eta''({q2})")
                assert_zero(pr, e_z[q1], e_z[q2], f"eta0({q1}).eta0({q2})")
                assert_zero(pr, e_z[q1], e_p[q2], f"eta0({q1}).eta'({q2})")
                assert_zero(pr, e_p[q1], e_z[q2], f"eta'({q1}).eta0({q2})")
                assert_zero(pr, e_z[q1], e_dp[q2], f"eta0({q1}).eta''({q2})")
                assert_zero(pr, e_dp[q1], e_z[q2], f"eta''({q1}).eta0({q2})")
        pr = _params(1, 1, 0, W)
        eta1 = make_generator(pr, GeneratorSpec("eta_power", 1), W)
        for q in range(3):
            ez = make_generator(pr, GeneratorSpec("eta_zero", q), W)
            assert_zero(pr, eta1, ez, f"eta.eta0({q})")
            assert_zero(pr, ez, eta1, f"eta0({q}).eta")
        # nonvanishing powers when every vertex family is X
        for r, n, m in ((1, 1, 0), (2, 2, 1), (3, 3, 0)):
            Wp = 4 * (n + m) + 10
            prm = _params(r, n, m, Wp)
            eta = make_generator(prm, GeneratorSpec("eta_power", 1), Wp)
            power = eta
            for k in range(2, 5):
                power = multiply(prm, power, eta)
                checks += 1
                if power.is_zero(None):
                    raise _CriterionFailure(f"eta^{k} vanishes for (r,n,m)=({r},{n},{m})")
                direct = make_generator(prm, GeneratorSpec("eta_power", k), Wp)
                inner = Wp - k * (n + m) - 1
                for v in direct.assignment:
                    if abs(v.a) <= inner and abs(v.b) <= inner:
                        checks += 1
                        diff = power.value_at(prm, v).plus(
                            direct.value_at(prm, v).scaled(-1)
                        )
                        if not diff.is_zero(None):
                            raise _CriterionFailure(
                                f"eta^{k} disagrees with the direct element at {v!r}"
                            )
    except _CriterionFailure as e:
        return False, str(e)
    return True, f"{checks} product identities hold"


# ---------------------------------------------------------------- criterion 8


def _c8_periodicity():
    rows = 0
    for r, n, m in GRID:
        params = _params(r, n, m)
        periodic, witnesses = tau_sigma_periodic(params)
        if r == n:
            expected = (n, m) == (1, 0)
        else:
            expected = r == n - 1 or (r == 1 and m == 0)
        if periodic != expected:
            return False, (
                f"(r,n,m)=({r},{n},{m}): periodic={periodic},"
                f" closed form says {expected}"
            )
        for family, p in witnesses:
            if p % r != 0:
                return False, (
                    f"(r,n,m)=({r},{n},{m}): witness {family} p={p}"
                    " is not a multiple of r"
                )
        for char in (2, 3):
            for variant in VARIANTS:
                red, nil = reduced_and_nil(theorem_case(OmegaParams(r, n, m), char, variant))
                rows += 1
                if (nil != "0") != periodic:
                    return False, (
                        f"(r,n,m)=({r},{n},{m}) {variant} over F{char}:"
                        f" nil part {nil} vs periodicity {periodic}"
                    )
                if (red != "F") != (r == n):
                    return False, (
                        f"(r,n,m)=({r},{n},{m}) {variant} over F{char}:"
                        f" reduced part {red} vs r == n"
                    )
    return True, f"{rows} table rows match the periodicity closed forms"


# ---------------------------------------------------------------- criterion 9


def _run_cli(argv):
    from .cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _c9_determinism():
    with tempfile.TemporaryDirectory() as td:
        qpath = str(Path(td) / "lambda.quiver")
        Path(qpath).write_text(format_quiver(build_lambda(OmegaParams(1, 2, 0))))
        invocations = [
            ["validate", qpath],
            ["lambda", "--r", "2", "--n", "3", "--m", "1"],
            ["hom", "--r", "1", "--n", "2", "--m", "0", "--family", "Y",
             "--i", "0", "--a", "0", "--b", "2", "--p", "1"],
            ["center", "--r", "1", "--n", "2", "--m", "0", "--p", "2",
             "--variant", "graded", "--field", "3", "--window", "10"],
            ["ring", "--r", "1", "--n", "1", "--m", "0", "--char", "2"],
            ["ar", "--r", "2", "--n", "3", "--m", "0", "--window", "1"],
            ["check", "--criterion", "1"],
        ]
        for argv in invocations:
            first = _run_cli(argv)
            second = _run_cli(argv)
            if first != second:
                return False, f"nondeterministic output for: {' '.join(argv)}"
            if first[0] != 0:
                return False, f"exit code {first[0]} for: {' '.join(argv)}"
    return True, f"{len(invocations)} subcommands byte-identical across repeated runs"


CRITERIA = [
    ("criterion 1 (gentle grid)", _c1_gentle_grid),
    ("criterion 2 (model consistency)", _c2_model_consistency),
    ("criterion 3 (hom oracle)", _c3_hom_oracle),
    ("criterion 4 (generator membership)", _c4_membership),
    ("criterion 5 (solver vs tables)", _c5_reconcile),
    ("criterion 6 (window stabilization)", _c6_stabilization),
    ("criterion 7 (products)", _c7_products),
    ("criterion 8 (tau-Sigma periodicity)", _c8_periodicity),
    ("criterion 9 (cli determinism)", _c9_determinism),
]


def run_criterion(k: int):
    """Run the k-th criterion (1-based) and return (name, ok, detail)."""
    name, fn = CRITERIA[k - 1]
    ok, detail = fn()
    return name, ok, detail
