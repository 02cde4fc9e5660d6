"""Seeded inputs for the three benchmark workloads.

The generator never imports gradedcenter: it builds plain tuples from the
seed, the parameter grid of the acceptance suite, and the window margins
the README documents.  The library only ever sees the generated tuples.

Every workload is a list of rounds.  A round is one stratified pass over
the workload's input space with the same problems for every seed: which
(r, n, m), window and degree or generator an op gets sets its cost, so
those are fixed, and the seed draws the variant, the field and the order
of the ops.  The run-to-run spread of the timings is then the machine's
alone.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

# the acceptance suite's parameter grid (gradedcenter.acceptance.GRID),
# copied so that a change to the suite cannot change the benchmark's inputs
GRID = [(r, n, m) for n in range(1, 5) for r in range(1, n + 1) for m in range(3)]

VARIANTS = ("graded", "commutative")
FIELDS = (2, 3)

WHY = {
    "solve": (
        "center.solve_component on fresh (r, n, m, W, p): the union-find, hom_basis on"
        " every vertex, arrow_of_degree and sigma_pow, with no repeated input"
    ),
    "membership": (
        "make_generator + check_membership over the criterion-4 space: sigma_mor_pow,"
        " arrows_from, arrows_to and compose, never hom or the union-find"
    ),
    "reconcile": (
        "ring.reconcile(parallel=True) four times per (r, n, m, W): the solver behind"
        " a fresh process pool per call, with repeated model and hom work"
    ),
}

# Wall seconds of one round of each workload at the seed commit on a
# 2-core x86-64 container.  A run makes round(seconds / ROUND_SECONDS)
# rounds, at least one, so both sides of a comparison run the same ops.
ROUND_SECONDS = {"solve": 25.0, "membership": 30.0, "reconcile": 40.0}

# windows per stratum in one round: per (r, n, m) for solve, per
# generator for membership
SOLVE_WINDOWS_PER_ROUND = 7
MEMBERSHIP_WINDOWS_PER_ROUND = 3


class SolveInput(NamedTuple):
    r: int
    n: int
    m: int
    p: int
    variant: str
    field: int
    window: int


class MembershipInput(NamedTuple):
    r: int
    n: int
    m: int
    generator: str
    q: int
    variant: str
    char: int
    window: int


class ReconcileInput(NamedTuple):
    r: int
    n: int
    m: int
    variant: str
    field: int
    window: int
    degree_bound: int


def solver_margin(n: int, m: int) -> int:
    """Outer minus inner window the solver needs (README: 2n + m + 2)."""
    return 2 * n + m + 2


def membership_margin(n: int, m: int) -> int:
    """Outer minus inner window membership needs (README: 1 + max(n, m))."""
    return 1 + max(n, m)


def power_inner(r: int, n: int, m: int, p: int) -> int:
    """Smallest inner window on which the solver can see the power class
    in degree p.  The class exists only when r = n and n | p, and lives on
    X(0)-vertices with (p / n)(n + m) <= b - a + m; inside the inner window
    b - a reaches 2 * inner.  Every other degree needs no more than 1."""
    if r != n or p == 0 or p % n:
        return 1
    return max(1, math.ceil(((p // n) * (n + m) - m) / 2))


def support_inner(r: int, n: int, m: int, generator: str, q: int) -> int:
    """Smallest inner window that meets the generator's support, so the
    check is not vacuous and a required sign-law failure is visible."""
    if generator == "eta_power":
        gap = q * (n + m) - m
    elif generator in ("eta_prime", "eta_dprime"):
        gap = q if r > 1 else q + n
    else:  # eta_zero
        gap = q
    return max(1, math.ceil(gap / 2))


def membership_specs(tiny: bool = False) -> list[tuple]:
    """(r, n, m, generator, q) for every admissible generator that
    acceptance criterion 4 checks; k = q runs up to 3 for eta_power."""
    specs = []
    for n in (2, 3, 4):
        for m in (0, 1, 2):
            for q in range(4):
                for name in ("eta_prime", "eta_dprime"):
                    specs.append((n - 1, n, m, name, q))
    for n in (1, 2, 3, 4):
        for q in range(4):
            specs.append((1, n, 0, "eta_zero", q))
    for n in (1, 2, 3, 4):
        for m in (0, 1, 2):
            for k in (1, 2, 3):
                specs.append((n, n, m, "eta_power", k))
    if tiny:
        specs = [s for s in specs if s[1] <= 2 and s[2] == 0 and s[4] <= 1]
    return specs


def _grid(tiny: bool) -> list[tuple]:
    return [(r, n, m) for r, n, m in GRID if n <= 2 and m == 0] if tiny else GRID


def _solve_round(rng: random.Random, j: int, tiny: bool) -> list[SolveInput]:
    """Each (r, n, m) gets SOLVE_WINDOWS_PER_ROUND windows that no other
    round uses.  The degrees p in [0, 2n] whose classification row is
    visible on a window are dealt to the windows in turn, from a starting
    point that differs between strata but not between seeds: the cost of
    an op depends on its window and degree, so every seed runs the same
    (r, n, m, W, p) and draws the variant, the field and the order."""
    ops = []
    for r, n, m in _grid(tiny):
        first = SOLVE_WINDOWS_PER_ROUND * j + 1
        for k, inner in enumerate(range(first, first + SOLVE_WINDOWS_PER_ROUND)):
            degrees = [p for p in range(2 * n + 1) if power_inner(r, n, m, p) <= inner]
            ops.append(
                SolveInput(
                    r, n, m,
                    degrees[(r + m + k) % len(degrees)],
                    rng.choice(VARIANTS),
                    rng.choice(FIELDS),
                    solver_margin(n, m) + inner,
                )
            )
    rng.shuffle(ops)
    return ops


def _membership_round(rng: random.Random, j: int, tiny: bool) -> list[MembershipInput]:
    """Every criterion-4 generator on each of the three smallest windows
    that meet its support, with a drawn variant and characteristic.  The
    cost of a check grows like the fourth power of the window, so every
    round holds the same windows and the seed only draws the rest."""
    ops = []
    for r, n, m, name, q in membership_specs(tiny):
        for extra in range(MEMBERSHIP_WINDOWS_PER_ROUND):
            inner = support_inner(r, n, m, name, q) + extra
            ops.append(
                MembershipInput(
                    r, n, m, name, q,
                    rng.choice(VARIANTS),
                    rng.choice(FIELDS),
                    membership_margin(n, m) + inner,
                )
            )
    rng.shuffle(ops)
    return ops


def _reconcile_round(rng: random.Random, j: int, tiny: bool) -> list[ReconcileInput]:
    """Every (r, n, m) once, on the smallest window that shows all degrees
    up to 2n (one step wider per later round), followed by the three other
    (variant, char) pairs on the same window; groups in drawn order."""
    groups = []
    for r, n, m in _grid(tiny):
        window = solver_margin(n, m) + power_inner(r, n, m, 2 * n) + j
        pairs = [(v, c) for v in VARIANTS for c in FIELDS]
        rng.shuffle(pairs)
        groups.append([ReconcileInput(r, n, m, v, c, window, 2 * n) for v, c in pairs])
    rng.shuffle(groups)
    return [op for group in groups for op in group]


_ROUNDS = {"solve": _solve_round, "membership": _membership_round, "reconcile": _reconcile_round}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def generate(workload: str, seed: int, rounds: int = 1, tiny: bool = False) -> list[list]:
    """The workload's rounds for this seed; the same seed gives the same
    inputs.  tiny restricts every round to the smallest members of the
    space, for smoke tests."""
    rng = random.Random(f"{workload}:{seed}")
    make = _ROUNDS[workload]
    return [make(rng, j, tiny) for j in range(rounds)]


def repeat_share(ops: list) -> tuple[int, int]:
    """(ops whose (r, n, m, W) already occurred earlier, ops)."""
    seen = set()
    repeats = 0
    for op in ops:
        key = (op.r, op.n, op.m, op.window)
        repeats += key in seen
        seen.add(key)
    return repeats, len(ops)
