"""Symbolic presentations of the center components, the case tables of
the two classification theorems, and reconciliation of those tables
against the windowed solver.

A presentation is either a base ring alone (F, or F[X^k] with the
generator in degree k) or a trivial extension of the base by shifted
copies of F^N, the countable product of one socle class per gap q >= 0.
The socle squares to zero, so the reduced part is the base and the
nilpotent part is the socle.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from operator import attrgetter
from typing import NamedTuple

from .center import class_visibility_map, power_visible, solve_component, solver_margin
from .gf import FieldScalar
from .model import ModelParams


@dataclass(frozen=True)
class RingPresentation:
    """base: "F" or ("Poly", k); socle: tuple of (shift, truncation) with
    truncation None meaning the symbolic, untruncated F^N."""

    base: object
    socle: tuple = ()

    def __post_init__(self):
        if self.base != "F":
            if not (isinstance(self.base, tuple) and len(self.base) == 2 and self.base[0] == "Poly"):
                raise ValueError(f"bad base {self.base!r}")
            if self.base[1] < 1:
                raise ValueError("polynomial generator degree must be >= 1")
        for item in self.socle:
            shift, trunc = item
            if shift < 0:
                raise ValueError("socle shifts must be >= 0 (positivity)")
            if trunc is not None and trunc < 0:
                raise ValueError("socle truncation must be >= 0 or None")

    def base_str(self) -> str:
        if self.base == "F":
            return "F"
        k = self.base[1]
        return "F[X]" if k == 1 else f"F[X^{k}]"

    def socle_str(self) -> str:
        items = []
        for shift, _trunc in self.socle:
            items.append("F^N" if shift == 0 else f"F^N[-{shift}]")
        return " + ".join(items)

    def serialize(self) -> str:
        if not self.socle:
            return self.base_str()
        return f"T({self.base_str()}, {self.socle_str()})"


def theorem_case(params, field_char: int, variant: str = "graded") -> RingPresentation:
    """The classification-table row for these parameters.  The rows are
    checked in printed order, so earlier special cases shadow the later
    general ones."""
    FieldScalar(0, field_char)
    if variant not in ("graded", "commutative"):
        raise ValueError(f"unknown variant {variant!r}")
    r, n, m = params.r, params.n, params.m
    # the graded center's sign law doubles the polynomial generator's
    # degree when that degree is odd and the characteristic is not 2
    k = n if variant == "commutative" or (n * field_char) % 2 == 0 else 2 * n
    if (r, n, m) == (1, 1, 0):
        return RingPresentation(("Poly", k), ((0, None),))
    if r == n:
        return RingPresentation(("Poly", k))
    if (r, n, m) == (1, 2, 0):
        return RingPresentation("F", ((0, None), (n, None)))
    if (r, m) != (1, 0) and r == n - 1:
        return RingPresentation("F", ((n, None),))
    if (r, m) == (1, 0) and r not in (n - 1, n):
        return RingPresentation("F", ((0, None),))
    return RingPresentation("F")


def reduced_and_nil(pres: RingPresentation) -> tuple[str, str]:
    return (pres.base_str(), pres.socle_str() if pres.socle else "0")


class DegreeWork(NamedTuple):
    """One degree of a reconcile call: the solve's work counts (see
    center.SolveReport), and whether this call built the degree's system
    or the cache of built systems served it."""

    p: int
    unknowns: int
    rows: int
    merges: int
    killed_zero: int
    killed_parity: int
    built: bool


@dataclass
class ReconcileReport:
    params: ModelParams
    field: int
    variant: str
    degree_bound: int
    window: int
    presentation: RingPresentation
    ok: bool = True
    lines: list = dc_field(default_factory=list)
    mismatches: list = dc_field(default_factory=list)
    # one DegreeWork per degree, p = 0..degree_bound
    degrees: list = dc_field(default_factory=list)


def _expected_power(pres: RingPresentation, p: int) -> int:
    if p <= 0 or pres.base == "F":
        return 0
    return 1 if p % pres.base[1] == 0 else 0


def reconcile(
    params: ModelParams,
    field: int,
    variant: str,
    degree_bound: int,
    window: int,
    parallel: bool = True,
) -> ReconcileReport:
    """Compare solver output for every degree p <= degree_bound against
    the classification table: the base contributes the scalar in degree
    0 and one power class in each positive degree divisible by its
    generator degree; each socle item contributes one dimension per
    fully visible class at its shift (partially visible classes may
    fall outside the inner window and report 0).  The power class has
    no such allowance: a window whose inner box cannot show it in some
    degree up to the bound (center.power_visible) is refused.

    The degrees are solved one after another by solve_component, which
    builds one system per (r, n, m), window, inner window and degree,
    counts its classes under both readings when it builds it, and serves
    any variant and field from it: the four (variant, char) pairs of one
    window share it, and report.degrees says which degrees this call
    built.  The socle families that each degree expects, and their fully
    visible classes, are worked out once per call.  parallel has no
    effect; it is accepted so that existing callers keep working."""
    if degree_bound < 0:
        raise ValueError("degree bound must be >= 0")
    inner = window - solver_margin(params)
    if inner < 1:
        raise ValueError(
            f"window {window} too small: margin alone is {solver_margin(params)}"
        )
    pres = theorem_case(params, field, variant)
    powers = [_expected_power(pres, p) for p in range(degree_bound + 1)]
    for p, power in enumerate(powers):
        if power and not power_visible(params, p, inner):
            raise ValueError(
                f"window {window} too small: inner window {inner} cannot show"
                f" the power class in degree {p}"
            )
    report = ReconcileReport(params, field, variant, degree_bound, window, pres)
    # the socle families the row expects in each degree that has any, and
    # their fully visible classes, each of which must be counted once
    shift_family = {0: "X", params.n: "Y"}
    expected: dict = {}
    for s, _q in pres.socle:
        if s in shift_family:
            expected.setdefault(s, set()).add(shift_family[s])
    needed: dict = {}
    if expected:
        full = sorted(cls for cls, vis in class_visibility_map(params, inner).items() if vis == "full")
        needed = {s: [cls for cls in full if cls[0] in families] for s, families in expected.items()}
    work = attrgetter(*DegreeWork._fields[1:])
    for p, exp_power in enumerate(powers):
        rep = solve_component(params, p, variant, field, window, inner)
        report.degrees.append(DegreeWork(p, *work(rep)))
        problems = []
        exp_scalar = 1 if p == 0 else 0
        if rep.scalar_dim != exp_scalar:
            problems.append(f"scalar {rep.scalar_dim} != {exp_scalar}")
        if rep.power_dim != exp_power:
            problems.append(f"power {rep.power_dim} != {exp_power}")
        expected_families = expected.get(p, ())
        for (fam, q), dim in sorted(rep.class_dims.items()):
            if fam not in expected_families:
                problems.append(f"unexpected class {fam} q={q} (dim {dim})")
            elif dim > 1:
                problems.append(f"class {fam} q={q} has dim {dim} > 1")
        for fam, q in needed.get(p, ()):
            dim = rep.class_dims.get((fam, q), 0)
            if dim != 1:
                problems.append(f"missing class {fam} q={q} (dim {dim}, fully visible)")
        if rep.residual:
            problems.append(f"{len(rep.residual)} residual component(s)")
        n_classes = sum(rep.class_dims.values())
        if problems:
            detail = "; ".join(problems)
            report.ok = False
            report.mismatches.append(f"p={p}: {detail}")
            report.lines.append(f"p={p}: MISMATCH ({detail})")
        else:
            report.lines.append(
                f"p={p}: ok (scalar {rep.scalar_dim}, power {rep.power_dim},"
                f" {n_classes} socle classes)"
            )
    return report
