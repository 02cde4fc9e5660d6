"""One op per workload through gradedcenter's public API, and its oracle.

The library entry points are bound into this module's namespace, so the
traced run can wrap the benchmark -> library boundary the same way it
wraps the boundaries between the library's own modules.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from gradedcenter.center import GeneratorSpec, check_membership, make_generator, solve_component
from gradedcenter.gentle import OmegaParams
from gradedcenter.model import ModelParams
from gradedcenter.ring import reconcile, theorem_case

import inputs


# ------------------------------------------------------------------ solve


def run_solve(op: inputs.SolveInput):
    params = ModelParams(OmegaParams(op.r, op.n, op.m), op.window)
    inner = op.window - inputs.solver_margin(op.n, op.m)
    return solve_component(params, op.p, op.variant, op.field, op.window, inner)


def expect_table_row(op):
    """The classification-table row for the op's parameters."""
    return theorem_case(OmegaParams(op.r, op.n, op.m), op.field, op.variant)


def check_solve(op: inputs.SolveInput, rep, row) -> bool:
    """Degree op.p of the table row, by the rules ring.reconcile applies
    per degree: the scalar in degree 0, one power class where the base
    generator's degree divides p, one class per fully visible socle class
    at shift p, nothing else, and no residual components."""
    p = op.p
    if rep.residual or rep.scalar_dim != (1 if p == 0 else 0):
        return False
    power = 0 if p == 0 or row.base == "F" else int(p % row.base[1] == 0)
    if rep.power_dim != power:
        return False
    shift_family = {0: "X", op.n: "Y"}
    families = {shift_family[s] for s, _ in row.socle if s == p and s in shift_family}
    for (family, _q), dim in rep.class_dims.items():
        if family not in families or dim != 1:
            return False
    return all(
        rep.class_dims.get(cls) == 1
        for cls, vis in rep.visibility.items()
        if vis == "full" and cls[0] in families
    )


# ------------------------------------------------------------- membership


def run_membership(op: inputs.MembershipInput) -> bool:
    params = ModelParams(OmegaParams(op.r, op.n, op.m), op.window)
    el = make_generator(params, GeneratorSpec(op.generator, op.q), op.window)
    inner = op.window - inputs.membership_margin(op.n, op.m)
    ok, _why = check_membership(params, el, op.window, inner, char=op.char, variant=op.variant)
    return ok


def expect_membership(op: inputs.MembershipInput) -> bool:
    """Acceptance criterion 4's prediction: a generator satisfies its own
    sign law, and the other one exactly when the two laws agree, which is
    unless its degree is odd and the characteristic is odd."""
    own = "graded" if op.generator == "eta_prime" else "commutative"
    degree = {"eta_prime": op.n, "eta_dprime": op.n, "eta_zero": 0}.get(op.generator, op.q * op.n)
    return op.variant == own or degree % 2 == 0 or op.char == 2


def check_membership_outcome(op, ok, expected) -> bool:
    return ok == expected


# -------------------------------------------------------------- reconcile


def run_reconcile(op: inputs.ReconcileInput):
    params = ModelParams(OmegaParams(op.r, op.n, op.m), op.window)
    return reconcile(params, op.field, op.variant, op.degree_bound, op.window, parallel=True)


def check_reconcile(op: inputs.ReconcileInput, rep, row) -> bool:
    return rep.ok and rep.presentation == row and len(rep.lines) == op.degree_bound + 1


# ---------------------------------------------------------------- dispatch


class Workload(NamedTuple):
    run: Callable  # op -> output
    expect: Callable  # op -> expected value, computed during set-up
    check: Callable  # (op, output, expected) -> bool


WORKLOADS = {
    "solve": Workload(run_solve, expect_table_row, check_solve),
    "membership": Workload(run_membership, expect_membership, check_membership_outcome),
    "reconcile": Workload(run_reconcile, expect_table_row, check_reconcile),
}


def prepare(workload: str, seed: int, rounds: int, tiny: bool = False):
    """Everything that happens before the first op: the rounds of inputs
    and the expected result of every op."""
    rounds_ = inputs.generate(workload, seed, rounds, tiny)
    expect = WORKLOADS[workload].expect
    return [[(op, expect(op)) for op in ops] for ops in rounds_]
