"""Candidate natural transformations Id -> Sigma^p: explicit generators,
membership checking, and a windowed solver for the graded and commutative
center components.

Solver design: every constraint row (naturality at one generator arrow,
or the sign law at one Sigma-pair) touches at most two unknowns, each
with coefficient +-1, because parallel basis elements have distinct
degrees.  The whole system is therefore a signed union-find over
unknowns (vertex, basis element): rows merge two unknowns up to sign or
force one to zero; a forced x = -x kills the component unless the field
has characteristic 2.  The union-find (_SignedForest) is flat: every
unknown always holds its root and its sign relative to it, so a row
imposed on a range of unknowns whose roots already agree is settled by
comparing slices, a range of single unknowns hangs on the other side's
roots by slice assignment, and any other merge relabels the smaller
component, whose members it finds on a ring threaded through one list.

solve_component works in two steps.  The build step (_build_system)
makes the union-find and keeps its roots and signs as immutable tuples,
with the Sigma^p translation table, the line layout, the work counts,
and the parity flag and class tags of each component that is not forced
to zero and meets the inner window.  It is cached by (omega,
window, inner window, p).  The field is not part of the key, because no
row reads it: it decides only whether a parity-flagged component
survives.  Nor is the variant.  The two sign laws differ only at odd p,
eta Sigma = -Sigma eta for the graded center against eta Sigma = Sigma
eta, and a row's sign never decides which unknowns it joins, only the
weight of the join.  So the build imposes the graded law (-1)^p, and
the commutative reading at odd p is the same union-find with every sign
+1: no component has a parity conflict, and every basis coefficient is
+1.  One system serves the four (variant, char) pairs of a degree.  The
interpret step runs on every call: it drops parity-flagged components
outside characteristic 2 and counts the rest by class.  The dimensions
need nothing more, so the report's basis is named and built afresh only
when it is read, and no caller shares cached state.

The system is built on plain integers, one diagonal line at a time.  A
vertex is the tuple (family, i, a, b) and an unknown is a vertex plus a
slot: -1 for the identity, or the degree of the basis arrow, whose kind
the two families fix.  Sigma and Sigma^p are translations per (family,
i) (model.sigma_shift, from the step table of ModelParams), and arrows
are tested by model.arrow_kind.  The hom space of a vertex depends on
(family, i) and the gap b - a alone: for each degree, model.hom_gaps
turns the arrow's region into one interval of gaps.  So the unknowns
are laid out per line (family, i, gap): each slot of a line with a
nonempty hom space gets one block of consecutive indices, one per a in
the box.  Naturality is imposed at the generating arrows only (_targets),
since it holds at a composite once it holds at the factors.  The rows at
one of them likewise depend on its source only through (family, i), the
gap and the target.  So each pattern of rows is worked out once per line
and target, and each of its rows, like each sign-law slot, is one union
over two aligned index ranges: the a where both ends lie in the box.  No
vertex tuple is made and no dict is read per cell.  Naming a report's
basis builds no Vertex or ArrowGen either: the members are ordered by
their keys and slots, and an arrow's name, which fixes the sign of a
signed component, is formatted from its key.

A CenterElement holds one integer form, the slot map {(family, i, a,
b): {slot: coefficient}}, with slots as in the solver.  make_generator,
a report's basis and multiply fill it directly; its assignment is a
read-only view over it that builds a Morphism, from the _basis_arrow of
each slot, only when a value is read.  make_generator walks the
generator's support one line (family, i, gap) at a time and tests the
line's slot once against model.hom_gaps.  multiply works slot by slot: a
product's slot is the sum of its factors' slots, the identity's -1 being
the unit, and the term is kept where model.arrow_kind accepts the
composite.  An element built by hand from Morphism values is converted
to its slot map by _slot_map, which checks each value's endpoints and
kinds.

check_membership runs on the slot map and tests naturality with the
solver's rule, _row_pattern, on its coefficients, so the solver and the
check share one statement of naturality.  It tests the same generating
arrows (_targets) that touch the support: those out of each inner
support vertex, and those into it from off-support sources, read off the
table inverted.  With the sign law, which it checks too, they imply
naturality at every arrow of the inner box; the arrow walk it replaced
is kept in tests/ as the oracle.  It works each pattern out once per
call and per key: the rows at an arrow are unchanged when both endpoints
move along the diagonal together.  Every slot must be one that
model.hom_gaps allows at its vertex, or the identity's in degree 0.  The
result is the pair (ok, why), which also counts the naturality and
sign-law rows tested.  Vertex and ArrowGen objects are built only to
name a failure.

Equations are imposed only where all referenced vertices lie inside the
outer window, and results are reported restricted to an inner window;
the margin between the two eats every coordinate shift a constraint can
perform, so inner-window output is stable under window growth (tested).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from itertools import compress
from types import MappingProxyType
from typing import NamedTuple

from .gf import FieldScalar
from .model import (
    FAMILIES,
    ArrowGen,
    ModelParams,
    Morphism,
    Vertex,
    arrow_kind,
    arrow_of_degree,  # unused here: the benchmark's tracer wraps it by name
    arrows_from,  # unused here: the benchmark's tracer wraps it by name
    arrows_to,  # unused here: the benchmark's tracer wraps it by name
    compose,  # unused here: the benchmark's tracer wraps it by name
    enumerate_vertices,  # unused here: the benchmark's tracer wraps it by name
    hom_gaps,
    least_gap,
    sigma,  # unused here: the benchmark's tracer wraps it by name
    sigma_mor_pow,  # unused here: the benchmark's tracer wraps it by name
    sigma_pow,
    sigma_shift,
)
from .hom import hom_basis  # unused here: the benchmark's tracer wraps it by name


class InconsistencyError(Exception):
    """The model contradicts itself: a bug, never a bad input."""


GENERATOR_NAMES = ("eta_prime", "eta_dprime", "eta_zero", "eta_power")


@dataclass(frozen=True)
class GeneratorSpec:
    """A named generator with its class parameter (q for the socle
    generators, the exponent k for eta_power)."""

    name: str
    q: int = 0

    def __post_init__(self):
        if self.name not in GENERATOR_NAMES:
            raise ValueError(f"unknown generator {self.name!r}")
        if self.q < 0:
            raise ValueError("generator parameter must be >= 0")

    def degree(self, params: ModelParams) -> int:
        if self.name in ("eta_prime", "eta_dprime"):
            return params.n
        if self.name == "eta_zero":
            return 0
        return self.q * params.n

    def admissible(self, params: ModelParams) -> tuple[bool, str]:
        r, n, m = params.r, params.n, params.m
        if self.name in ("eta_prime", "eta_dprime"):
            if r != n - 1:
                return (False, f"{self.name} needs r = n - 1")
        elif self.name == "eta_zero":
            if (r, m) != (1, 0):
                return (False, "eta_zero needs r = 1 and m = 0")
        elif self.name == "eta_power":
            if r != n:
                return (False, "eta_power needs r = n")
        return (True, "")


class _SlotView(Mapping):
    """A center element's values as a read-only Mapping {Vertex:
    Morphism} over its slot map {(family, i, a, b): {slot: coefficient}}
    in degree p on the parameters' omega.  Keys come in the map's order.
    A value's Morphism is built from the _basis_arrow of each slot only
    when it is read, so len, in and key iteration build none."""

    __slots__ = ("_params", "_p", "_slots", "_shift")

    def __init__(self, params: ModelParams, p: int, slots: dict):
        self._params, self._p, self._slots, self._shift = params, p, slots, None

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self):
        return (Vertex(*key) for key in self._slots)

    def __contains__(self, v) -> bool:
        return isinstance(v, Vertex) and (v.family, v.i, v.a, v.b) in self._slots

    def __getitem__(self, v: Vertex) -> Morphism:
        value = self._slots.get((v.family, v.i, v.a, v.b)) if isinstance(v, Vertex) else None
        if value is None:
            raise KeyError(v)
        params = self._params
        if self._shift is None:
            keys = [(f, i) for f in FAMILIES for i in range(params.r)]
            self._shift = {key: sigma_shift(params, *key, self._p) for key in keys}
        j, da, db = self._shift[v.family, v.i]
        target = Vertex(v.family, j, v.a + da, v.b + db)
        return Morphism(v, target, {_basis_arrow(params.rules, self._shift, v, s): c for s, c in value.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, _SlotView) and (other._params.omega, other._p) == (self._params.omega, self._p):
            return self._slots == other._slots
        return super().__eq__(other)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


@dataclass(frozen=True)
class CenterElement:
    """A finitely supported assignment v -> (morphism v -> Sigma^p v).

    make_generator, a report's basis and multiply hold it as its slot map
    (see the module docstring), and assignment is a read-only view of it.
    An element may also be built by hand from a dict {Vertex: Morphism};
    assignment is then a read-only copy of that dict, and _slot_map
    converts it where the slots are needed."""

    p: int
    variant: str
    assignment: Mapping

    def __post_init__(self):
        if self.variant not in ("graded", "commutative"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.p < 0:
            raise ValueError("degree must be >= 0")
        if not isinstance(self.assignment, _SlotView):
            object.__setattr__(self, "assignment", MappingProxyType(dict(self.assignment)))

    def value_at(self, params: ModelParams, v: Vertex) -> Morphism:
        got = self.assignment.get(v)
        if got is not None:
            return got
        return Morphism.zero(v, sigma_pow(params, v, self.p))

    def is_zero(self, char: int | None = None) -> bool:
        view = self.assignment
        if isinstance(view, _SlotView):
            values = view._slots.values()
        else:
            values = (mor.terms for mor in view.values())
        coeffs = [c for value in values for c in value.values()]
        return not any(coeffs) if char is None else all(c % char == 0 for c in coeffs)


def _slot_map(params: ModelParams, el: CenterElement) -> dict:
    """el's values as its slot map {(family, i, a, b): {slot:
    coefficient}}.  An element that holds one on these parameters' omega
    gives it as it is.  Any other is converted value by value, which
    checks that each runs from v to Sigma^p v and that each term's kind
    is the one its degree, the slot, has; check_membership tests the
    slots against the hom space."""
    view = el.assignment
    if isinstance(view, _SlotView) and view._params.omega == params.omega:
        return view._slots
    rules = params.rules
    slots: dict = {}
    for v, mor in view.items():
        f, i, a, b = v.family, v.i, v.a, v.b
        j, da, db = sigma_shift(params, f, i, el.p)
        tgt = mor.target
        ok = mor.source is v or mor.source == v
        ok = ok and (tgt.family, tgt.i, tgt.a, tgt.b) == (f, j, a + da, b + db)
        value = {}
        for t, c in mor.terms.items():
            if t is not None:
                rule = rules.get((f, f, t.degree, i))
                ok = ok and rule is not None and t.kind == rule[0]
            value[-1 if t is None else t.degree] = c
        if not ok:
            raise ValueError(f"the value at {v!r} is not in Hom(v, Sigma^{el.p} v)")
        slots[f, i, a, b] = value
    return slots


def _socle_gap(params: ModelParams, family: str, q: int, i: int) -> int:
    """b - a on the index-i vertices of the socle class (family, q): q,
    plus n at index 0 of Y, where the Y vertices start at gap n."""
    return q + (params.n if family == "Y" and i == 0 else 0)


def _power_gap(params: ModelParams, k: int, i: int) -> int:
    """The least gap b - a of eta_power(k)'s support on index i of X, for
    k >= 1: k(n + m), less m at index 0, where X's gaps start at -m."""
    return k * (params.n + params.m) - (params.m if i == 0 else 0)


def _in_gaps(gaps: tuple | None, t: int) -> bool:
    """Whether the gap t lies in gaps, an interval from model.hom_gaps."""
    return gaps is not None and (gaps[0] is None or gaps[0] <= t) and (gaps[1] is None or t <= gaps[1])


def make_generator(params: ModelParams, spec: GeneratorSpec, window: int) -> CenterElement:
    """The generator as a CenterElement on the box [-window, window]^2:
    the basis arrow of one slot at every vertex of its support, walked in
    (a, b) order.  The support's gaps b - a form one interval per index:
    one gap for a socle generator, every gap from k(n + m) - d0 m up for
    eta_power(k), where d0 m is m at index 0 and 0 elsewhere (X's least
    gap at k = 0, where the slot is the identity's).  Each vertex gets
    the slot map's value {slot: coefficient}; no Morphism is built."""
    ok, why = spec.admissible(params)
    if not ok:
        raise ValueError(f"inadmissible generator for (r,n,m)=({params.r},{params.n},{params.m}): {why}")
    r, n = params.r, params.n
    W, q = window, spec.q
    p = spec.degree(params)
    if spec.name in ("eta_prime", "eta_dprime"):
        family, slot, missing = "Y", 2, "missing e'' under"
    elif spec.name == "eta_zero":
        family, slot, missing = "X", 2, "missing e' self-arrow at"
    else:
        family, slot, missing = "X", 0 if q else -1, "missing f' power arrow at"
    shift_p = {(family, i): sigma_shift(params, family, i, p) for i in range(r)}
    slots: dict = {}
    for i in range(r):
        if spec.name == "eta_power":
            lo, hi = max(least_gap(params, "X", i), _power_gap(params, q, i)), 2 * W
        else:
            lo = hi = _socle_gap(params, family, q, i)
        if slot >= 0:
            hom = hom_gaps(params, family, i, slot, shift_p[family, i])
            for t in range(lo, min(hi, 2 * W) + 1):
                if not _in_gaps(hom, t):
                    raise InconsistencyError(f"{missing} {Vertex(family, i, -W, t - W)!r}")
        # eta_prime's sign at v is (-1)^(n e) for the e with v = Sigma^e
        # of the base Y(0, 0, n + q).  As r = n - 1, Sigma^r moves Y by
        # (-1, -1), so the index-i vertex at a is Sigma^(i + r (a_i - a))
        # of the base, where a_i is the a of Sigma^i of it; n r = n (n - 1)
        # is even, so the sign is (-1)^(n i).
        coeff = -1 if spec.name == "eta_prime" and n * i % 2 else 1
        for a in range(-W, W + 1):
            for b in range(max(-W, a + lo), min(W, a + hi) + 1):
                slots[family, i, a, b] = {slot: coeff}
    variant = "graded" if spec.name == "eta_prime" else "commutative"
    return CenterElement(p, variant, _SlotView(params, p, slots))


def membership_margin(params: ModelParams) -> int:
    return 1 + max(params.n, params.m)


class Membership(tuple):
    """What check_membership returns: the pair (ok, why), with the rows it
    tested, counted the same way on every run.  naturality_rows counts
    every row of each generating arrow tested, sign_rows every slot
    compared by the sign law; a failing check counts up to its failure."""

    naturality_rows: int
    sign_rows: int

    def __new__(cls, ok: bool, why: str | None, naturality_rows: int, sign_rows: int):
        self = super().__new__(cls, (ok, why))
        self.naturality_rows = naturality_rows
        self.sign_rows = sign_rows
        return self

    def __getnewargs__(self):
        return (*self, self.naturality_rows, self.sign_rows)

    @property
    def rows(self) -> int:
        return self.naturality_rows + self.sign_rows


def check_membership(
    params: ModelParams,
    el: CenterElement,
    window: int,
    inner_window: int,
    char: int = 3,
    variant: str | None = None,
) -> Membership:
    """Verify naturality and the sign law for el on the inner window.

    The check runs on integers, as the solver does: a vertex is the key
    (family, i, a, b), and el is read as its slot map (_slot_map).
    Naturality is tested at the generating arrows (_targets) with both
    ends in the inner box: the arrows out of each inner support vertex
    to its targets, and those into it from off-support sources, read off
    the same table inverted.  Given the sign law, which is checked too,
    they imply naturality at every arrow of the box (tested).  Naturality
    at an arrow is the solver's row rule, _row_pattern, on the
    coefficients mod char.  A pattern is unchanged when both endpoints
    move along the diagonal together, so within one call it is worked out
    once per (families, indices, gap, target offset, degree, slots of
    both endpoints).  Rows where neither endpoint carries support are
    0 = 0 and are skipped; that restriction is exact, not an
    approximation.  Objects are built only to name the first failure:
    the first failing arrow in this walk's order, else the first vertex
    where the sign law fails.
    """
    FieldScalar(0, char)
    variant = variant or el.variant
    if variant not in ("graded", "commutative"):
        raise ValueError(f"unknown variant {variant!r}")
    if inner_window < 1 or inner_window + membership_margin(params) > window:
        raise ValueError("window too small for the requested inner window")
    p = el.p
    Wi = inner_window
    sign = -1 if (variant == "graded" and p % 2) else 1
    rules, steps = params.rules, params.sigma_steps
    # Sigma^p and Sigma^-1 per (family, i), as translations (j, da, db)
    keys = [(f, i) for f in FAMILIES for i in range(params.r)]
    shift_p = {key: sigma_shift(params, *key, p) for key in keys}
    shift_back = {key: sigma_shift(params, *key, -1) for key in keys}
    # the least gap b - a of a vertex, per (family, i) of these
    # parameters (-2 Wi on Z: the least in the inner box); the generating
    # arrows out of each (family, i), and the same arrows listed at their
    # targets, as (f, i, da, db, degree, along) from the source (f, i)
    floor = {}
    for f in params.families:
        for i in range(params.r):
            lo = least_gap(params, f, i)
            floor[f, i] = -2 * Wi if lo is None else lo
    targets = {key: _targets(params, *key) for key in keys}
    sources: dict = {key: [] for key in keys}
    for f, i in floor:
        for g, j, da, db, degree, along in targets[f, i]:
            sources[g, j].append((f, i, da, db, degree, along))
    # {(family, i, a, b): (slots, {slot: coefficient})}, from the slot
    # map.  Each value must lie in Hom(v, Sigma^p v): every slot is the
    # identity's, in degree 0 only, or a degree whose gaps, read once per
    # (family, i, degree), hold b - a.
    coeffs: dict = {}
    hom = lru_cache(None)(lambda f, i, d: hom_gaps(params, f, i, d, shift_p[f, i]))
    for key, value in _slot_map(params, el).items():
        f, i, a, b = key
        for s in value:
            if not (p == 0 if s == -1 else _in_gaps(hom(f, i, s), b - a)):
                raise ValueError(f"the value at {Vertex(*key)!r} is not in Hom(v, Sigma^{p} v)")
        coeffs[key] = (tuple(value), value)
    empty = ((), {})
    patterns: dict = {}
    naturality_rows = sign_rows = 0

    def natural_at(v: tuple, w: tuple, degree: int) -> bool:
        nonlocal naturality_rows
        f, i, a, b = v
        g, j, ta, tb = w
        sv, cv = coeffs.get(v, empty)
        sw, cw = coeffs.get(w, empty)
        key = (f, i, g, j, b - a, ta - a, tb - a, degree, sv, sw)
        rows = patterns.get(key)
        if rows is None:
            rows = patterns[key] = _row_pattern(rules, v, w, degree, shift_p[g, j], cv, cw)
        naturality_rows += len(rows)
        for s, t in rows:
            if (cv.get(s, 0) - cw.get(t, 0)) % char:
                return False
        return True

    def failure(kind: str, v: tuple, w: tuple, degree: int) -> Membership:
        gen = ArrowGen(kind, Vertex(*v), Vertex(*w), degree)
        return Membership(False, f"naturality fails at {gen!r}", naturality_rows, sign_rows)

    def inner(v: tuple) -> bool:
        return -Wi <= v[2] <= Wi and -Wi <= v[3] <= Wi

    inner_support = sorted(v for v in coeffs if inner(v))
    # generating arrows out of the support: to (g, j, a + da, b + db), or
    # to (g, j, a + da, a + db) where along is False
    for v in inner_support:
        f, i, a, b = v
        for g, j, da, db, degree, along in targets[f, i]:
            w = (g, j, a + da, (b if along else a) + db)
            lo = floor.get((g, j))
            if lo is None or w[3] - w[2] < lo or not inner(w):
                continue
            kind = arrow_kind(rules, *v, *w, degree)
            if kind is not None and not natural_at(v, w, degree):
                return failure(kind, v, w, degree)
    # generating arrows into the support from off-support sources: one
    # source per target, or where along is False (X's e' corner into
    # (i + 1, a, a)) the column of sources (i, a, b') over every b'
    for w in inner_support:
        g, j, ta, tb = w
        for f, i, da, db, degree, along in sources[g, j]:
            a = ta - da
            if along:
                bs = (tb - db,)
            elif tb - ta == db - da:
                bs = range(-Wi, Wi + 1)
            else:
                continue
            for b in bs:
                v = (f, i, a, b)
                if v in coeffs or b - a < floor[f, i] or not inner(v):
                    continue
                kind = arrow_kind(rules, *v, *w, degree)
                if kind is not None and not natural_at(v, w, degree):
                    return failure(kind, v, w, degree)
    # sign law on Sigma-pairs touching the support: Sigma keeps each
    # term's kind and degree, so eta at Sigma u and Sigma eta_u are
    # compared slot by slot
    checked = set()
    for v in sorted(coeffs):
        f, i, a, b = v
        j, da, db = shift_back[f, i]
        for u in (v, (f, j, a + da, b + db)):
            if u in checked or not inner(u):
                continue
            checked.add(u)
            sj, s1, s2 = steps[u[0], u[1], 1]
            cu = coeffs.get(u, empty)[1]
            cs = coeffs.get((u[0], sj, u[2] + s1, u[3] + s2), empty)[1]
            slots = cu.keys() | cs.keys()
            sign_rows += len(slots)
            if any((cs.get(s, 0) - sign * cu.get(s, 0)) % char for s in slots):
                return Membership(False, f"sign law fails at {Vertex(*u)!r}", naturality_rows, sign_rows)
    return Membership(True, None, naturality_rows, sign_rows)


def solver_margin(params: ModelParams) -> int:
    return 2 * params.n + params.m + 2


@dataclass
class SolveReport:
    params: ModelParams
    p: int
    variant: str
    char: int
    window: int
    inner_window: int
    scalar_dim: int = 0
    power_dim: int = 0
    class_dims: dict = dc_field(default_factory=dict)
    visibility: dict = dc_field(default_factory=dict)
    residual: list = dc_field(default_factory=list)
    # work counts, identical across runs: unknowns (vertex, basis element),
    # vertices with a nonempty hom space, naturality and sign-law rows
    # imposed (rows is their sum), merges (unknowns minus components), and
    # the components the field discards, for a forced zero or else for a
    # parity conflict (x = -x outside characteristic 2)
    unknowns: int = 0
    vertices: int = 0
    naturality_rows: int = 0
    sign_rows: int = 0
    rows: int = 0
    merges: int = 0
    killed_zero: int = 0
    killed_parity: int = 0
    # the built system that basis is named from; a report made without
    # one starts with an empty basis that its maker fills
    _system: _System | None = dc_field(default=None, repr=False, compare=False)

    @cached_property
    def basis(self) -> list:
        """One CenterElement per component counted, in report order, whose
        slot map holds the component's members.  The elements are named
        and built on the first read: the dimensions never need them."""
        basis: list = []
        if self._system is None:
            return basis
        for parity, _, members in _named_components(self.params, self._system):
            if parity and self.char != 2:
                continue
            # members come by vertex, each vertex's slots together
            slots: dict = {}
            last = None
            for key, s, coeff in members:
                if key != last:
                    value = slots[key] = {}
                    last = key
                value[s] = coeff
            basis.append(CenterElement(self.p, self.variant, _SlotView(self.params, self.p, slots)))
        return basis

    @property
    def total_dim(self) -> int:
        return self.scalar_dim + self.power_dim + sum(self.class_dims.values()) + len(self.residual)

    def format_lines(self) -> list[str]:
        lines = [
            f"degree {self.p} ({self.variant}, char {self.char}),"
            f" window {self.window}, inner window {self.inner_window}",
            f"scalar: {self.scalar_dim}",
            f"power: {self.power_dim}",
        ]
        for (family, q) in sorted(self.class_dims):
            vis = self.visibility.get((family, q), "partial")
            lines.append(f"class {family} q={q}: {self.class_dims[(family, q)]} ({vis})")
        if self.residual:
            lines.append(f"residual components: {len(self.residual)}")
        lines.append(f"total (inner window): {self.total_dim}")
        return lines


def _class_tag(params: ModelParams, p: int, i: int, gap: int, kind: str | None) -> object:
    """The class of an unknown at index i and gap b - a whose basis arrow
    has this kind (None for the identity)."""
    if kind is None:
        return "scalar"
    if kind == "f'":
        return "power" if p > 0 else ("X", gap)
    if kind in ("e'", "e''"):
        family = "X" if kind == "e'" else "Y"
        return (family, gap - _socle_gap(params, family, 0, i))
    return ("other", kind)


def _basis_arrow(rules: dict, shift_p, v: Vertex, slot: int) -> ArrowGen | None:
    """The basis arrow v -> Sigma^p v in this slot, None for the identity."""
    if slot < 0:
        return None
    j, da, db = shift_p[v.family, v.i]
    target = Vertex(v.family, j, v.a + da, v.b + db)
    return ArrowGen(rules[v.family, v.family, slot, v.i][0], v, target, slot)


def class_visibility_map(params: ModelParams, inner_window: int) -> dict:
    """Visibility of every socle class meeting the inner window: 'full'
    if every index of the class has support in the guarded box,
    'partial' if some index has support in the inner box.  Class
    (family, q) lies at gap q + _socle_gap(params, family, 0, i) on
    index i, and a box [-B, B]^2 with B >= 0 holds the gaps up to 2B.
    The map depends on (omega, inner window) alone, so it is worked out
    once per pair, and each call gets its own copy."""
    return dict(_visibility(params.omega, inner_window))


# One entry: a reconcile call asks for the same pair in every degree, and
# so do the four (variant, char) passes over one window.
@lru_cache(maxsize=1)
def _visibility(omega, inner_window: int) -> dict:
    """class_visibility_map, shared by every caller: never mutated."""
    guarded = inner_window - (omega.n + omega.m + 2)
    out = {}
    for family in ["X"] + (["Y"] if omega.r < omega.n else []):
        offsets = [_socle_gap(omega, family, 0, i) for i in range(omega.r)]
        full = 2 * guarded - max(offsets) if guarded >= 0 else -1
        for q in range(2 * inner_window - min(offsets) + 1):
            out[(family, q)] = "full" if q <= full else "partial"
    return out


def power_visible(params: ModelParams, p: int, inner_window: int) -> bool:
    """Whether the power class in degree p meets the inner box, where the
    solver counts it.  The class exists when r = n and p = k n with
    k >= 1: it is eta_power(k)'s, whose least gap, _power_gap at index 0,
    must lie in the box [-B, B]^2 with B = inner_window, which holds the
    gaps up to 2B."""
    r, n = params.r, params.n
    k, rest = divmod(p, n)
    return r == n and k >= 1 and rest == 0 and _power_gap(params, k, 0) <= 2 * inner_window


def _row_pattern(rules: dict, v: tuple, w: tuple, degree: int, shift: tuple,
                 v_slots: dict, w_slots: dict) -> tuple:
    """Naturality at the generator v -> w of this degree, v and w as
    (family, i, a, b) and shift Sigma^p at w: one row per degree of the
    composite v -> Sigma^p w, as (slot of v, slot of w) with None where
    that side has no term.  v -> w must be a generator: the solver and
    check_membership both test each of their targets with arrow_kind
    first.  The solver passes every slot of v and w and imposes the rows
    as unions; check_membership passes the slots an element fills and
    tests them."""
    f, i, a, b = v
    g, _, ta, tb = w
    sj, sa, sb = shift
    sa, sb = ta + sa, tb + sb
    rows: dict = {}
    for s in v_slots:
        d = degree if s < 0 else s + degree
        if s < 0 or arrow_kind(rules, f, i, a, b, g, sj, sa, sb, d) is not None:
            rows[d] = [s, None]
    for s in w_slots:
        d = degree if s < 0 else degree + s
        if s < 0 or arrow_kind(rules, f, i, a, b, g, sj, sa, sb, d) is not None:
            row = rows.get(d)
            if row is None:
                rows[d] = [None, s]
            else:
                row[1] = s
    return tuple(tuple(row) for row in rows.values())


class _System(NamedTuple):
    """One reading of a built system: what solve_component reads back for
    any field, under one sign law.

    shift_p maps (family, i) to Sigma^p as a translation (j, da, db).
    The work counts are: unknowns, vertices (cells of the box with a
    nonempty hom space), the naturality and sign-law rows imposed, merges
    (unknowns joined to another one: unknowns minus components), and the
    components the field may discard, for a forced zero or else for a
    parity conflict.  classes holds each component that is not forced to
    zero and meets the inner window, by root, as (root, parity, tags):
    parity is set if the component forces x = -x, and tags are its class
    tags sorted by str.  That is all the dimensions read.

    The rest is kept to name the basis when it is read
    (_named_components): the window and the inner window; lines, the
    layout, as ((family, i, gap), ((slot, index at the least a), ...)) in
    build order; and root and sign, the union-find hung on its roots: the
    unknown x is sign[x] times the unknown root[x].  plain is set where
    every sign is +1, so that sign is not read: at even p, and in the
    commutative reading of a build at odd p, which shares root and sign
    with the graded reading.  No Vertex, ArrowGen or str is made until
    then."""

    shift_p: MappingProxyType
    unknowns: int
    vertices: int
    naturality_rows: int
    sign_rows: int
    merges: int
    killed_zero: int
    killed_parity: int
    classes: tuple
    window: int
    inner: int
    lines: tuple
    root: tuple
    sign: tuple
    plain: bool

    @property
    def rows(self) -> int:
        return self.naturality_rows + self.sign_rows


def _targets(params: ModelParams, f: str, i: int) -> list:
    """The generators out of (f, i, a, b) at which the solver imposes
    naturality, as (g, j, da, db, degree, along): the target is (g, j,
    a + da, b + db), or (g, j, a + da, a + db) where along is False, so
    that its gap does not move with b - a.  A listed target need not
    carry a generator of this degree.

    Naturality at a composite follows from naturality at its factors, so
    only generating arrows are listed: the steps (0, 1) and (1, 0) within
    the family, X's e' corner to (i + 1, a, a) and the arrows into Z.
    Every other arrow of degree 0 within a family, the diagonal step
    (1, 1) and X's Sigma^r step included, runs from (a, b) to some (a',
    b') with a' >= a and b' >= b.  By the model's composition rule it is
    the composite of the (0, 1) steps up to (a, b') and then the (1, 0)
    steps across to (a', b'), because these are arrows:
    - the vertices passed lie in the box, whose sides hold a, a', b and
      b';
    - they exist, because their gaps run from b - a up to b' - a and then
      down to b' - a', never below the least gap that both ends reach;
    - each step lies in the region of the arrow's kind: only f' and f''
      bound the target's a from above, by the source's b plus a constant,
      and the steps up only raise b while the steps across stop at a',
      where the composite's bound holds.

    Not every arrow is such a composite: on (r, n, m) = (2, 2, 0) the e'
    arrow X(0)[0,2] -> X(1)[-2,0] is none, because no listed arrow lowers
    a.  Its rows follow from the rows at the listed arrows only together
    with the sign law.  So completeness for an arbitrary element needs the
    sign law: the solver imposes it on every unknown, and check_membership
    checks it.  tests/membership_span.py shows that on every GRID row the
    rows at the listed arrows of a box and the sign law imply the rows at
    every arrow of the box."""
    r, n = params.r, params.n
    targets = [(f, i, 0, 1, 0, True), (f, i, 1, 0, 0, True)]
    if f == "X":
        targets.append((f, (i + 1) % r, 0, 0, 2, False))
        if r < n:
            targets.append(("Z", i, 0, 0, 1, True))
    elif f == "Y":
        targets.append(("Z", i, 0, -n if i == 0 else 0, 1, True))
    return targets


class _SignedForest:
    """A signed union-find on the unknowns 0..count-1, kept flat: every
    unknown x always holds its root, root[x], and its sign relative to
    it, sign[x], so that x = sign[x] * root[x].  The members of each
    component form a ring through next, and size is read at roots.
    joined marks the unknowns of components with two or more members.
    The marks zero, set by the caller where a row forces an unknown to
    zero, and parity, set where a row forces x = -x, sit on any member of
    a component and are read at its root."""

    __slots__ = ("root", "sign", "next", "size", "joined", "zero", "parity")

    def __init__(self, count: int):
        self.root = list(range(count))
        self.sign = [1] * count
        # the same int objects as root, so the ring costs one pointer each
        self.next = self.root[:]
        self.size = [1] * count
        self.joined = bytearray(count)
        self.zero = bytearray(count)
        self.parity = bytearray(count)

    def unite(self, x0: int, y0: int, length: int, s: int) -> int:
        """Impose x = s * y along the aligned ranges from x0 and y0, and
        return the number of merges.

        A range whose roots are already equal pair by pair is settled by
        comparing slices, signs included.  Where the two sides do not meet
        and one of them is all single unknowns, that side hangs on the
        other side's roots by slice assignment (_hang).  Any other pair
        relabels the smaller of its two components (union by size) by
        walking its ring."""
        root, sign = self.root, self.sign
        x1, y1 = x0 + length, y0 + length
        xroots, yroots = root[x0:x1], root[y0:y1]
        if xroots == yroots:
            ys = sign[y0:y1]
            if sign[x0:x1] == (ys if s == 1 else list(map(int.__neg__, ys))):
                return 0
        elif x1 <= y0 or y1 <= x0:
            if self.joined.find(1, y0, y1) < 0:
                return self._hang(y0, x0, length, s, yroots, xroots)
            if self.joined.find(1, x0, x1) < 0:
                return self._hang(x0, y0, length, s, xroots, yroots)
        nxt, size, joined, parity = self.next, self.size, self.joined, self.parity
        merged = 0
        for x, y in zip(range(x0, x1), range(y0, y1)):
            rx, ry = root[x], root[y]
            # ry = w * rx, from x = sign[x] rx and y = sign[y] ry
            w = sign[x] * s * sign[y]
            if rx == ry:
                if w != 1:
                    parity[rx] = 1
                continue
            if size[rx] < size[ry]:
                rx, ry = ry, rx
            size[rx] += size[ry]
            z = ry
            while True:
                root[z] = rx
                if w != 1:
                    sign[z] = -sign[z]
                z = nxt[z]
                if z == ry:
                    break
            nxt[rx], nxt[ry] = nxt[ry], nxt[rx]
            joined[x] = joined[y] = 1
            merged += 1
        return merged

    def _hang(self, y0: int, x0: int, length: int, s: int, ys: list, xroots: list) -> int:
        """Impose y = s * x along ranges that do not meet, where each y is
        its own root, as listed in ys, and xroots lists the roots of the x:
        every y joins its x's component, next to x in its ring, and each
        is one merge."""
        root, sign, nxt, size, joined = self.root, self.sign, self.next, self.size, self.joined
        y1, x1 = y0 + length, x0 + length
        root[y0:y1] = xroots
        xs = sign[x0:x1]
        sign[y0:y1] = xs if s == 1 else list(map(int.__neg__, xs))
        nxt[y0:y1] = nxt[x0:x1]
        nxt[x0:x1] = ys
        joined[x0:x1] = joined[y0:y1] = b"\1" * length
        for x in xroots:
            size[x] += 1
        return length


# A window's degree sweep p = 0..2n needs one system per degree, 2n + 1
# in all, so the 13 entries hold a whole window up to n = 6 (the
# acceptance GRID needs 9), and every (variant, char) pair of one window
# is served from the systems the first pair built.
@lru_cache(maxsize=13)
def _build_system(omega, W: int, inner: int, p: int) -> tuple[_System, _System]:
    """Solve the union-find system of degree p on the window W, with the
    graded sign law eta Sigma = (-1)^p Sigma eta, and keep what a report
    on the inner window needs, as the pair (graded reading, commutative
    reading).  Every naturality row has weight +1 and only the sign-law
    rows carry (-1)^p, which never decides whether a row merges two
    components.  So the commutative reading at odd p is the same
    union-find with every weight +1: plain, with no parity flag and
    killed_parity 0.  At even p the two readings are one.

    The field is not an argument either: the rows have coefficients +-1
    whatever the characteristic, so only the reading of a parity conflict
    depends on it, and that is left to the caller."""
    params = ModelParams(omega, W)
    sign = -1 if p % 2 else 1
    r = params.r
    rules = params.rules
    steps = params.sigma_steps

    # per (family, i): Sigma^p as a translation (j, da, db), and the least
    # b - a of a vertex (model.least_gap), -2W on Z, the least in the box
    shift_p: dict = {}
    floor: dict = {}
    for f in params.families:
        for i in range(r):
            shift_p[f, i] = sigma_shift(params, f, i, p)
            lo = least_gap(params, f, i)
            floor[f, i] = -2 * W if lo is None else lo

    # The line (f, i, t) is the diagonal of vertices (f, i, a, a + t) in
    # the box, a from -W - min(t, 0) to W - max(t, 0), none if |t| > 2W.
    # Hom(v, Sigma^p v) depends on the gap t alone, so each slot of it
    # (-1 for the identity, else the arrow's degree) gets one block of
    # unknowns along the line: lines[f, i, t] maps the slot to the index
    # of the unknown at the least a, and the unknown at a is that index
    # plus a less the least a.  Only lines with a nonempty hom space are
    # laid out: per slot, its gaps b - a (model.hom_gaps).
    lines: dict = {}
    count = vertices = 0
    for (f, i), shift in shift_p.items():
        for d in (-1, 0, 1, 2):
            if d < 0:
                gaps = (None, None) if p == 0 else None
            else:
                gaps = hom_gaps(params, f, i, d, shift)
            if gaps is None:
                continue
            lo = floor[f, i] if gaps[0] is None else max(gaps[0], floor[f, i])
            hi = 2 * W if gaps[1] is None else min(gaps[1], 2 * W)
            for t in range(lo, hi + 1):
                slots = lines.get((f, i, t))
                if slots is None:
                    slots = lines[f, i, t] = {}
                    vertices += 2 * W + 1 - abs(t)
                slots[d] = count
                count += 2 * W + 1 - abs(t)

    # The rows at a generator v -> w depend on v only through (f, i), the
    # place k of w in the list of targets and the gap t: the regions,
    # vertex_exists and so the slots of v and w are all unchanged when a
    # and b move together.  So each pattern is worked out once per line
    # and target, and each of its rows is imposed on every a at once: the
    # a where v and w both lie in the box, an interval.
    forest = _SignedForest(count)
    zero = forest.zero
    targets = {key: _targets(params, *key) for key in shift_p}
    naturality_rows = sign_rows = merges = 0
    for (f, i, t), bv in lines.items():
        a0, a1 = -W - min(t, 0), W - max(t, 0)
        for g, j, da, db, degree, along in targets[f, i]:
            u = (t if along else 0) + db - da
            if u < floor[g, j]:
                continue
            b0 = -W - min(u, 0)
            lo, hi = max(a0, b0 - da), min(a1, W - max(u, 0) - da)
            if lo > hi:
                continue
            v, w = (f, i, lo, lo + t), (g, j, lo + da, lo + da + u)
            if arrow_kind(rules, *v, *w, degree) is None:
                continue
            bw = lines.get((g, j, u), {})
            rows = _row_pattern(rules, v, w, degree, shift_p[g, j], bv, bw)
            length = hi - lo + 1
            naturality_rows += len(rows) * length
            for left, right in rows:
                if left is not None:
                    x0 = bv[left] + lo - a0
                if right is not None:
                    y0 = bw[right] + lo + da - b0
                if left is None:
                    zero[y0:y0 + length] = b"\1" * length
                elif right is None:
                    zero[x0:x0 + length] = b"\1" * length
                else:
                    merges += forest.unite(x0, y0, length, 1)
        # sign law v -> Sigma v: Sigma beta starts at Sigma v, same degree
        sj, s1, s2 = steps[f, i, 1]
        u = t + s2 - s1
        b0 = -W - min(u, 0)
        lo, hi = max(a0, b0 - s1), min(a1, W - max(u, 0) - s1)
        if lo <= hi:
            other = lines.get((f, sj, u), {})
            for s, x in bv.items():
                y = other.get(s)
                if y is None:
                    raise InconsistencyError(
                        f"suspension of unknown left the system at {Vertex(f, i, lo, lo + t)!r}")
                merges += forest.unite(y + lo + s1 - b0, x + lo - a0, hi - lo + 1, sign)
            sign_rows += len(bv) * (hi - lo + 1)

    # every unknown holds its root already: gather the marks there
    root, signs = forest.root, forest.sign
    dead = set(compress(root, zero))
    odd = set(compress(root, forest.parity))
    # free the ring and the sizes before the tuples below are made
    del forest

    # The components that meet the inner window, read off each block's
    # slice in the inner box (the a from max(-inner, -inner - t) to
    # min(inner, inner - t)), less those forced to zero; then the class
    # tags of each, one per block that holds a member.
    meets: set = set()
    for (f, i, t), bv in lines.items():
        a0 = -W - min(t, 0)
        k0 = max(-inner, -inner - t) - a0
        k1 = min(inner, inner - t) - a0 + 1
        if k0 < k1:
            for x0 in bv.values():
                meets.update(root[x0 + k0:x0 + k1])
    meets -= dead
    tags: dict = {x: set() for x in meets}
    for (f, i, t), bv in lines.items():
        length = 2 * W + 1 - abs(t)
        for s, x0 in bv.items():
            roots = meets.intersection(root[x0:x0 + length])
            if roots:
                tag = _class_tag(params, p, i, t, None if s < 0 else rules[f, f, s, i][0])
                for x in roots:
                    tags[x].add(tag)
    graded = _System(
        shift_p=MappingProxyType(shift_p),
        unknowns=count,
        vertices=vertices,
        naturality_rows=naturality_rows,
        sign_rows=sign_rows,
        merges=merges,
        killed_zero=len(dead),
        killed_parity=len(odd - dead),
        classes=tuple((x, x in odd, tuple(sorted(tags[x], key=str))) for x in sorted(meets)),
        window=W,
        inner=inner,
        lines=tuple((key, tuple(bv.items())) for key, bv in lines.items()),
        root=tuple(root),
        sign=tuple(signs),
        plain=sign == 1,
    )
    if sign == 1:
        return graded, graded
    commutative = graded._replace(
        killed_parity=0,
        classes=tuple((x, False, tags) for x, _, tags in graded.classes),
        plain=True,
    )
    return graded, commutative


def _arrow_name(rules: dict, shift_p, key: tuple, slot: int) -> str:
    """str(_basis_arrow(...)) of the member (key, slot), formatted from
    its key: "None" for the identity, else the arrow's repr."""
    if slot < 0:
        return "None"
    f, i, a, b = key
    j, da, db = shift_p[f, i]
    return f"{rules[f, f, slot, i][0]}:{f}({i})[{a},{b}]->{f}({j})[{a + da},{b + db}]"


def _named_components(params: ModelParams, system: _System) -> list:
    """The components of system.classes in report order, as (parity,
    tags, members): members are the component's unknowns in the inner
    window as ((family, i, a, b), slot, coefficient), in basis-element
    order: by vertex, then str(arrow).  Components are ordered by their
    least (vertex, str(arrow)); a Vertex orders as its key does.

    At one vertex every member's arrow has the same ends, so its name is
    a prefix, "None" or the kind and ":", followed by a common tail, and
    no prefix starts another: the prefixes order the members of a vertex
    as their names do.  Names are formatted (_arrow_name) only where they
    order members of different vertices, to pick the sign.

    A coefficient is the member's sign relative to the member of least
    str(arrow); where every member has one sign, as in a plain reading,
    each coefficient is +1.  On a component without the parity flag the
    rows fix it.  On a parity-flagged one, which survives only in
    characteristic 2, the rows imply both signs, so the +-1 read off
    depends on the order in which unknowns were merged; every such choice
    is the same element over F_2."""
    W, inner = system.window, system.inner
    rules, shift_p = params.rules, system.shift_p
    root, sign, plain = system.root, system.sign, system.plain
    wanted = {x: (odd, tags) for x, odd, tags in system.classes}
    heads: dict = {}
    members: dict[int, list[tuple]] = {x: [] for x in wanted}
    for (f, i, t), bv in system.lines:
        a0, length = -W - min(t, 0), 2 * W + 1 - abs(t)
        # the block's slice in the inner box, the a from max(-inner,
        # -inner - t) to min(inner, inner - t), if any
        k0 = max(-inner, -inner - t) - a0
        k1 = max(k0, min(inner, inner - t) - a0 + 1)
        for s, x0 in bv:
            block = root[x0:x0 + length]
            found = wanted.keys() & block
            if not found:
                continue
            prefix = "None" if s < 0 else rules[f, f, s, i][0] + ":"
            # a component's least member in the block is its least a
            for x in found:
                k = block.index(x)
                head = ((f, i, a0 + k, a0 + k + t), prefix)
                if x not in heads or head < heads[x]:
                    heads[x] = head
            # the members in the inner slice, per component, as ((f, i,
            # a, a + t), prefix, s, sign), read off with slices and maps
            part = block[k0:k1]
            signs = [1] * len(part) if plain else sign[x0 + k0:x0 + k1]
            for x in found.intersection(part):
                at = list(map(x.__eq__, part))
                a = list(compress(range(a0 + k0, a0 + k1), at))
                keys = zip([f] * len(a), [i] * len(a), a, map(t.__add__, a))
                members[x] += zip(keys, [prefix] * len(a), [s] * len(a), compress(signs, at))
    components = []
    for x, mems in members.items():
        # (vertex, prefix) is unique to a member, so plain tuple order is
        # the (vertex, str(arrow)) order
        mems.sort()
        if plain:
            ref_w = 1
        elif len({w for *_, w in mems}) == 1:
            ref_w = mems[0][3]
        else:
            ref_w = min((_arrow_name(rules, shift_p, key, s), key, w) for key, _, s, w in mems)[2]
        basis = tuple((key, s, w * ref_w) for key, _, s, w in mems)
        components.append((heads[x], *wanted[x], basis))
    components.sort(key=lambda c: c[0])
    return [c[1:] for c in components]


def _class_of(tags: tuple) -> object:
    """What a component with these class tags counts as: 'scalar',
    'power' or a socle class (family, q); None if it is residual, its
    tags mixing classes or naming none."""
    if len(tags) == 1:
        tag = tags[0]
        if tag in ("scalar", "power") or (isinstance(tag, tuple) and tag[0] in ("X", "Y")):
            return tag
    return None


def solve_component(
    params: ModelParams,
    p: int,
    variant: str,
    field: int,
    window: int,
    inner_window: int,
) -> SolveReport:
    if p < 0:
        raise ValueError("degree must be >= 0")
    if variant not in ("graded", "commutative"):
        raise ValueError(f"unknown variant {variant!r}")
    FieldScalar(0, field)
    if inner_window < 1 or inner_window + solver_margin(params) > window:
        raise ValueError(
            f"window {window} too small: need inner_window + margin"
            f" = {inner_window} + {solver_margin(params)}"
        )
    graded, commutative = _build_system(params.omega, window, inner_window, p)
    system = graded if variant == "graded" else commutative

    # interpret the components over the field: outside characteristic 2
    # a parity conflict x = -x forces the component to zero
    report = SolveReport(params, p, variant, field, window, inner_window, _system=system)
    report.visibility = class_visibility_map(params, inner_window)
    report.unknowns = system.unknowns
    report.vertices = system.vertices
    report.naturality_rows = system.naturality_rows
    report.sign_rows = system.sign_rows
    report.rows = system.rows
    report.merges = system.merges
    report.killed_zero = system.killed_zero
    if field != 2:
        report.killed_parity = system.killed_parity
    residual = False
    for _, parity, tags in system.classes:
        if parity and field != 2:
            continue
        tag = _class_of(tags)
        if tag == "scalar":
            report.scalar_dim += 1
        elif tag == "power":
            report.power_dim += 1
        elif tag is None:
            residual = True
        else:
            report.class_dims[tag] = report.class_dims.get(tag, 0) + 1
    if residual:
        # an error in the model; the names give the report order
        report.residual = [
            list(tags) for parity, tags, _ in _named_components(params, system)
            if not (parity and field != 2) and _class_of(tags) is None
        ]
    return report


def multiply(params: ModelParams, a: CenterElement, b: CenterElement) -> CenterElement:
    """Pointwise product (a.b)_v = Sigma^{p_b}(a_v) o b_v, on slot maps.
    Sigma keeps a term's kind and degree, so a term of a_v in slot s_a
    and one of b_v in slot s_b compose to the arrow v -> Sigma^(p_a + p_b)
    v of degree s_a + s_b, with coefficient c_a c_b, where that arrow
    exists (model.arrow_kind); the identity's slot -1 is the unit."""
    p = a.p + b.p
    rules = params.rules
    slots_a = _slot_map(params, a)
    shift = {(f, i): sigma_shift(params, f, i, p) for f in FAMILIES for i in range(params.r)}
    product: dict = {}
    for key, value_b in _slot_map(params, b).items():
        value_a = slots_a.get(key)
        if value_a is None:
            continue
        f, i, x, y = key
        terms: dict = {}
        for s_b, c_b in value_b.items():
            for s_a, c_a in value_a.items():
                if s_b < 0 or s_a < 0:
                    s = s_a if s_b < 0 else s_b
                else:
                    s = s_a + s_b
                    j, da, db = shift[f, i]
                    if arrow_kind(rules, f, i, x, y, f, j, x + da, y + db, s) is None:
                        continue
                c = terms.get(s, 0) + c_a * c_b
                if c:
                    terms[s] = c
                else:
                    terms.pop(s, None)
        if terms:
            product[key] = terms
    return CenterElement(p, a.variant, _SlotView(params, p, product))
