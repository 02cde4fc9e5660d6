"""Candidate natural transformations Id -> Sigma^p: explicit generators,
membership checking, and a windowed solver for the graded and commutative
center components.

Each mechanism is documented where it lives:
- the sign law, the one statement of how the graded and the commutative
  center differ, which every variant check, sign and reading asks:
  law_sign;
- the space Hom(v, Sigma^p v) that every element, row and unknown reads:
  hom.frame;
- the generating arrows, at which naturality is imposed, and why they
  suffice: model._tables (ModelParams.generators);
- the naturality rows of a line (family, i, gap), the one statement of
  naturality that the solver and the check share: _plan_pieces;
- the signed union-find, flat, and unsigned at even degrees:
  _SignedForest;
- the build, one diagonal line at a time, walking only the (family, i)
  that hold a slot besides the identity's, and the one system that
  serves both sign laws and every field of a degree: _build_system and
  _System;
- degree 0's identity block, one component whose rows and root are read
  off the layout, and why: _identity_rows;
- a report, and what it works out only when read, its basis and the
  visibility of its socle classes: SolveReport;
- a line's cells in a box: _span; the roots that a block of unknowns
  holds, which the build's read pass and the namer both ask: _held;
- the naming of a report's basis, run by run: _named_components;
- an element's line map and its read-only view: CenterElement and
  _SlotView; the gate for values built by hand: _slot_map; the product:
  multiply;
- the membership check, its one walk and its order, reading each
  (family, i)'s plans and its Sigma^-1 steps off the tables the build
  reads: check_membership.

Equations are imposed only where all referenced vertices lie inside the
outer window, and results are reported restricted to an inner window;
the margin between the two eats every coordinate shift a constraint can
perform, so inner-window output is stable under window growth (tested).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from itertools import compress
from bisect import bisect_right
from operator import and_, eq, itemgetter, ne, neg, or_
from types import MappingProxyType

from .gf import FieldScalar
from .model import (
    ArrowGen,
    ModelParams,
    Morphism,
    Vertex,
    arrow_gaps,
    arrow_kind,
    arrow_of_degree,  # unused here: the benchmark's tracer wraps it by name
    arrows_from,  # unused here: the benchmark's tracer wraps it by name
    arrows_to,  # unused here: the benchmark's tracer wraps it by name
    compose,  # unused here: the benchmark's tracer wraps it by name
    enumerate_vertices,  # unused here: the benchmark's tracer wraps it by name
    sigma,  # unused here: the benchmark's tracer wraps it by name
    sigma_mor_pow,  # unused here: the benchmark's tracer wraps it by name
    sigma_pow,
)
from .hom import basis_arrow, frame, in_gaps
from .hom import hom_basis  # unused here: the benchmark's tracer wraps it by name


class InconsistencyError(Exception):
    """The model contradicts itself: a bug, never a bad input."""


# The two sign laws: eta Sigma = (-1)^p Sigma eta for the graded center,
# eta Sigma = Sigma eta for the commutative one.
VARIANTS = ("graded", "commutative")


def law_sign(variant: str, p: int) -> int:
    """The sign the law sets between eta Sigma and Sigma eta in degree p:
    -1 under the graded law at odd p, else +1.  The one place that reads
    a law: each variant check, sign and reading in the library asks it,
    and it raises ValueError for any other variant."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return -1 if variant == "graded" and p % 2 else 1


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
    Morphism} over its line map, lines, {(family, i, t): ((a_lo, a_hi,
    {slot: coefficient}), ...)} in degree p on the parameters' omega.
    Each piece is a maximal interval of a on the line (family, i, t = b -
    a) whose cells hold the same slots with the same coefficients, and a
    line's pieces lie in order of a; a cell held with no term, which only
    _slot_map makes from a value built by hand, has the value {}.  Keys
    come in (family, i, a, b) order, and a value's Morphism is built from
    the hom.basis_arrow of each slot only when it is read, so len, in and
    key iteration build none.  Equality is Mapping's, cell by cell, so
    however a line is cut into pieces, the same values compare equal."""

    __slots__ = ("_params", "_p", "lines")

    def __init__(self, params: ModelParams, p: int, lines: dict):
        self._params, self._p, self.lines = params, p, lines

    def _value(self, v) -> dict | None:
        if not isinstance(v, Vertex):
            return None
        pieces = self.lines.get((v.family, v.i, v.b - v.a))
        if pieces:
            k = bisect_right(pieces, v.a, key=itemgetter(0)) - 1
            if k >= 0 and v.a <= pieces[k][1]:
                return pieces[k][2]
        return None

    def __len__(self) -> int:
        return sum(hi - lo + 1 for pieces in self.lines.values() for lo, hi, _ in pieces)

    def __iter__(self):
        keys = [(f, i, a, a + t) for (f, i, t), pieces in self.lines.items()
                for lo, hi, _ in pieces for a in range(lo, hi + 1)]
        keys.sort()
        return (Vertex(*key) for key in keys)

    def __contains__(self, v) -> bool:
        return self._value(v) is not None

    def __getitem__(self, v: Vertex) -> Morphism:
        value = self._value(v)
        if value is None:
            raise KeyError(v)
        target = sigma_pow(self._params, v, self._p)
        return Morphism(v, target, {basis_arrow(self._params.rules, v, target, s): c for s, c in value.items()})

    def __repr__(self) -> str:
        return repr(dict(self.items()))


@dataclass(frozen=True)
class CenterElement:
    """A finitely supported assignment v -> (morphism v -> Sigma^p v).

    make_generator, a report's basis and multiply hold it as its line map,
    and assignment is a read-only view of it (_SlotView, which describes
    the map).  An element may also be built by hand from a dict
    {Vertex: Morphism}; assignment is then a read-only copy of that dict,
    and _slot_map converts it where the line map is needed."""

    p: int
    variant: str
    assignment: Mapping

    def __post_init__(self):
        law_sign(self.variant, self.p)  # raises on an unknown variant
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
            coeffs = [c for pieces in view.lines.values() for _, _, value in pieces for c in value.values()]
        else:
            coeffs = [c for mor in view.values() for c in mor.terms.values()]
        return not any(coeffs) if char is None else all(c % char == 0 for c in coeffs)


def _as_runs(spans: list) -> tuple:
    """Disjoint (a_lo, a_hi, value) of one line, in order of a, as its
    pieces: neighbours that touch and hold equal values are merged."""
    runs: list = []
    for lo, hi, value in spans:
        if runs and runs[-1][1] == lo - 1 and runs[-1][2] == value:
            runs[-1] = (runs[-1][0], hi, value)
        else:
            runs.append((lo, hi, value))
    return tuple(runs)


def _slot_map(params: ModelParams, el: CenterElement) -> _SlotView:
    """el's values as a _SlotView on these parameters' omega, and the one
    gate for values built by hand.  An element that holds a view of this
    omega and degree gives it as it is: make_generator, a report's basis
    and multiply lay out only slots that the frame (hom.frame) holds.
    Any other is converted value by value, which checks that v is a
    vertex of these parameters, that each value runs from v to Sigma^p v,
    and that each term's slot, its degree, is one whose gaps in the frame
    hold v's gap and whose kind is the term's; otherwise it raises
    ValueError.  Each value becomes one cell {slot: coefficient}, and a
    value with no term keeps its cell, with the value {}."""
    view = el.assignment
    if isinstance(view, _SlotView) and (view._params.omega, view._p) == (params.omega, el.p):
        return view
    rules = params.rules
    _, gaps, vertex_gaps = frame(params.omega, el.p)
    cells: dict = {}
    for v, mor in view.items():
        f, i, a, b = v.family, v.i, v.a, v.b
        if not in_gaps(vertex_gaps.get((f, i)), b - a):
            raise ValueError(f"no vertex {f}({i})[{a},{b}] for these parameters")
        ok = mor.source is v or mor.source == v
        ok = ok and mor.target == sigma_pow(params, v, el.p)
        value = {}
        for t, c in mor.terms.items():
            if t is not None:
                # a slot that the frame holds at the gap has a rule
                ok = ok and in_gaps(gaps.get((f, i, t.degree)), b - a)
                ok = ok and t.kind == rules[f, f, t.degree, i][0]
            value[-1 if t is None else t.degree] = c
        if not ok:
            raise ValueError(f"the value at {v!r} is not in Hom(v, Sigma^{el.p} v)")
        cells.setdefault((f, i, b - a), []).append((a, a, value))
    return _SlotView(params, el.p, {key: _as_runs(sorted(at, key=itemgetter(0))) for key, at in cells.items()})


def _lines(runs: dict) -> dict:
    """The line map of runs {(family, i, t, slot): ((a_lo, a_hi,
    coefficient), ...)}, each run a maximal interval of a on which the
    slot holds one coefficient: {(family, i, t): pieces}, where the pieces
    (a_lo, a_hi, {slot: coefficient}) lie in order of a and cover each
    cell held once.  A line with one slot has its runs as its pieces;
    each further slot is laid beside them (_overlay), and since every
    run is maximal, so is every piece."""
    lines: dict = {}
    for (f, i, t, s), spans in runs.items():
        mine = [(lo, hi, {s: c}) for lo, hi, c in spans]
        held = lines.get((f, i, t))
        if held:
            lo, hi = min(held[0][0], mine[0][0]), max(held[-1][1], mine[-1][1])
            mine = [(a0, a1, {**(x or {}), **(y or {})}) for a0, a1, x, y in _overlay(held, mine, 0, lo, hi)
                    if x is not None or y is not None]
        lines[f, i, t] = mine
    return {key: tuple(pieces) for key, pieces in lines.items()}


def _overlay(x: list, y: list, d: int, lo: int, hi: int) -> list:
    """Two lines' pieces (_lines) side by side over a = lo..hi, y read at
    a + d: (a0, a1, vx, vy) for each interval on which both values stay
    the same, vx or vy None where that line holds no cell."""
    out = []
    k = n = 0
    a = lo
    while a <= hi:
        while k < len(x) and x[k][1] < a:
            k += 1
        while n < len(y) and y[n][1] - d < a:
            n += 1
        end, vx, vy = hi, None, None
        if k < len(x):
            if x[k][0] <= a:
                vx, end = x[k][2], min(end, x[k][1])
            else:
                end = min(end, x[k][0] - 1)
        if n < len(y):
            if y[n][0] - d <= a:
                vy, end = y[n][2], min(end, y[n][1] - d)
            else:
                end = min(end, y[n][0] - d - 1)
        out.append((a, end, vx, vy))
        a = end + 1
    return out


def _socle_gap(params: ModelParams, family: str, q: int, i: int) -> int:
    """b - a on the index-i vertices of the socle class (family, q): q,
    plus n at index 0 of Y, where the Y vertices start at gap n."""
    return q + (params.n if family == "Y" and i == 0 else 0)


def _power_gap(params: ModelParams, k: int, i: int) -> int:
    """The least gap b - a of eta_power(k)'s support on index i of X, for
    k >= 1: k(n + m), less m at index 0, where X's gaps start at -m."""
    return k * (params.n + params.m) - (params.m if i == 0 else 0)


def _span(W: int, t: int) -> tuple[int, int]:
    """The a of the line of gap t in the box [-W, W]^2, the cells (a, a +
    t) with both ends in [-W, W], as (a_lo, a_hi), empty (a_lo > a_hi)
    where |t| > 2W: the one statement of a line's place in a box."""
    return (-W - t, W) if t < 0 else (-W, W - t)


def make_generator(params: ModelParams, spec: GeneratorSpec, window: int) -> CenterElement:
    """The generator as a CenterElement on the box [-window, window]^2:
    the basis arrow of one slot at every vertex of its support.  The
    support's gaps b - a form one interval per index: one gap for a socle
    generator, every gap from k(n + m) - d0 m up for eta_power(k), where
    d0 m is m at index 0 and 0 elsewhere (X's least gap at k = 0, where
    the slot is the identity's).  Each line (family, i, gap) of the
    support is one piece of the line map, {slot: coefficient} with the
    coefficient fixed by the index; no Morphism is built."""
    if window < 1:
        raise ValueError("window must be >= 1")
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
    _, gaps, vertex_gaps = frame(params.omega, p)
    lines: dict = {}
    for i in range(r):
        if spec.name == "eta_power":
            lo, hi = max(vertex_gaps["X", i][0], _power_gap(params, q, i)), 2 * W
        else:
            lo = hi = _socle_gap(params, family, q, i)
        hom = gaps.get((family, i, slot))
        # eta_prime's sign at v is (-1)^(n e) for the e with v = Sigma^e
        # of the base Y(0, 0, n + q).  As r = n - 1, Sigma^r moves Y by
        # (-1, -1), so the index-i vertex at a is Sigma^(i + r (a_i - a))
        # of the base, where a_i is the a of Sigma^i of it; n r = n (n - 1)
        # is even, so the sign is (-1)^(n i).
        value = {slot: -1 if spec.name == "eta_prime" and n * i % 2 else 1}
        for t in range(lo, min(hi, 2 * W) + 1):
            if not in_gaps(hom, t):
                raise InconsistencyError(f"{missing} {Vertex(family, i, -W, t - W)!r}")
            a0, a1 = _span(W, t)
            if a0 <= a1:
                lines[family, i, t] = ((a0, a1, value),)
    variant = "graded" if spec.name == "eta_prime" else "commutative"
    return CenterElement(p, variant, _SlotView(params, p, lines))


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


def _at(key: tuple, a: int) -> tuple:
    """The place in the walk's order of the cell at a of an interval whose
    key is (walk, f, i, c, c2, k, cb): (walk, f, i, a + c, a + c2, k, a +
    cb), which rises with a.  walk is 0 for the arrows out of the support,
    1 for those into it and 2 for the sign law."""
    walk, f, i, c, c2, k, cb = key
    return (walk, f, i, a + c, a + c2, k, a + cb)


def check_membership(
    params: ModelParams,
    el: CenterElement,
    window: int,
    inner_window: int,
    char: int = 3,
    variant: str | None = None,
) -> Membership:
    """Verify naturality and the sign law for el on the inner window.

    The check runs on el's line map (_slot_map), a line (family, i, t =
    b - a) at a time, where the solver runs a line's unknowns; a value
    built by hand that _slot_map rejects raises ValueError.  Naturality
    is tested at the generating arrows with both ends in the inner box
    and an end on the support, in one walk: from each line that holds
    support or is the source line of an arrow into it
    (ModelParams.generators_into), to each target of its plan.  Given
    the sign law, which is checked too, they imply naturality at every
    arrow of the box (tested).  Naturality at an arrow is the solver's
    rows there, its line's plan (_plan_pieces), on the coefficients mod
    char.  Every row is unchanged when both endpoints move along the
    diagonal together, so a source line and a target line are laid side
    by side (_overlay), and on each interval where both values stay the
    same the rows are tested once and counted times its length; rows that
    touch no slot el fills are 0 = 0 and are skipped, which is exact.  The
    sign law pairs each line with its image under Sigma the same way.

    The counts and the failure are those of a walk cell by cell, kept in
    tests/slot_map_membership.py, whose order is unchanged: first the
    arrows out of the inner support in (vertex, target) order, then those
    into it from off the support in (vertex, source, source's b) order,
    then the sign law at the vertices u in the order in which the sorted
    support, v and then Sigma^-1 v, reaches them.  Each interval's key
    (_at) places its cells in that order, whichever line the walk reached
    it from.  A failing interval fails at its first a, which comes first
    in that order, so the failure named is the least of them, and the rows
    counted are those up to it.  Vertex and ArrowGen objects are built
    only to name it.
    """
    FieldScalar(0, char)
    p = el.p
    sign = law_sign(el.variant if variant is None else variant, p)
    if inner_window < 1 or inner_window + membership_margin(params) > window:
        raise ValueError("window too small for the requested inner window")
    Wi = inner_window
    r, steps = params.r, params.sigma_steps
    # the gaps of a vertex per (family, i); the generating arrows into
    # each (family, i)
    vertex_gaps = frame(params.omega, p)[2]
    sources = params.generators_into
    lines = _slot_map(params, el).lines

    # Each walk keeps its intervals as (rows per cell, a0, a1, keys), the
    # keys (_at) placing the cell at a in the walk's order, and its
    # failures as (place of the first a, what to name); on a failure the
    # rows up to it are counted by bisection.
    def counted(spans: list, star: tuple | None) -> int:
        if star is None:
            return sum(rows * (a1 - a0 + 1) for rows, a0, a1, _ in spans)
        return sum(rows * max(bisect_right(range(a0, a1 + 1), star, key=lambda a: _at(key, a)) for key in keys)
                   for rows, a0, a1, keys in spans)

    # the lines the arrows start from: the held lines and the source lines
    # of the arrows into them; where along is False (X's e' corner into
    # (i + 1, a, a)) every line of sources (i, a, b') with b' in the box
    starts = dict.fromkeys(lines)
    for g, j, u in lines:
        for f, i, da, db, along in sources[g, j]:
            if along:
                starts[f, i, u - db + da] = None
            elif u == db - da:
                starts.update(dict.fromkeys((f, i, t) for t in range(-2 * Wi, 2 * Wi + 1)))

    # generating arrows from (f, i, a, a + t) to (g, j, a + da, a + da +
    # u), each with its rows, as the line's plan lists them (_plan_pieces,
    # looked up once per (f, i) walked).
    # A cell whose source is held is out of the support (walk 0), one
    # whose source is empty and whose target is held is into it (walk 1),
    # keyed by the target's place and then the source's (f, i, k) and b.
    # Only the rows that touch a slot el fills are counted: the rest are
    # 0 = 0.
    spans: list = []
    failed: list = []
    pieces_of: dict = {}
    for f, i, t in starts:
        lo_v, hi_v = _span(Wi, t)
        if lo_v > hi_v or not in_gaps(vertex_gaps.get((f, i)), t):
            continue
        if (f, i) not in pieces_of:
            pieces_of[f, i] = _plan_pieces(params.omega, p, f, i)
        cuts, plans = pieces_of[f, i]
        v_line = lines.get((f, i, t), ())
        for g, j, da, du, along, k, rows in plans[bisect_right(cuts, t)]:
            u = (t if along else 0) + du
            w_line = lines.get((g, j, u), ())
            if not (v_line or w_line):
                continue
            lo_w, hi_w = _span(Wi, u)
            out_key, in_key = (0, f, i, 0, t, k, 0), (1, g, j, da, da + u, (f, i, k), t)
            for a0, a1, vv, vw in _overlay(v_line, w_line, da, max(lo_v, lo_w - da), min(hi_v, hi_w - da)):
                if vv is not None:
                    vw, key = vw or {}, out_key
                elif vw is not None:
                    vv, key = {}, in_key
                else:
                    continue
                touched = [(s, s2) for s, s2 in rows if s in vv or s2 in vw]
                spans.append((len(touched), a0, a1, (key,)))
                if any((vv.get(s, 0) - vw.get(s2, 0)) % char for s, s2 in touched):
                    failed.append((_at(key, a0), (f, i, a0, a0 + t), (g, j, a0 + da, a0 + da + u), k))
    if failed:
        star, v, w, k = min(failed)
        degree = params.generators[v[0], v[1]][k][4]
        gen = ArrowGen(arrow_kind(params.rules, *v, *w, degree), Vertex(*v), Vertex(*w), degree)
        return Membership(False, f"naturality fails at {gen!r}", counted(spans, star), 0)
    naturality_rows = counted(spans, None)

    # sign law on Sigma-pairs touching the support, the lines that hold
    # it and their images under Sigma^-1, read off the Sigma table that
    # the build reads: Sigma from index j = i - 1 lands on i, moving (a,
    # b) by (s1, s2).  Sigma keeps each term's kind and degree, so eta at
    # Sigma u and Sigma eta_u are compared slot by slot.  u is reached
    # from the support at (u, 0) if it is held, else at (Sigma u, 1)
    visit = dict.fromkeys(lines)
    for f, i, t in lines:
        j = (i - 1) % r
        _, s1, s2 = steps[f, j, 1]
        visit[f, j, t - s2 + s1] = None
    sign_spans: list = []
    for f, i, t in visit:
        lo, hi = _span(Wi, t)
        if lo > hi:
            continue
        sj, s1, s2 = steps[f, i, 1]
        ts = t + s2 - s1
        held, image = (2, f, i, 0, t, 0, 0), (2, f, sj, s1, t + s2, 1, 0)
        for a0, a1, vu, vs in _overlay(lines.get((f, i, t), ()), lines.get((f, sj, ts), ()), s1, lo, hi):
            if vu is None and vs is None:
                continue
            keys = ((held,) if vu is not None else ()) + ((image,) if vs is not None else ())
            cu, cs = vu or {}, vs or {}
            slots = cu.keys() | cs.keys()
            sign_spans.append((len(slots), a0, a1, keys))
            if any((cs.get(s, 0) - sign * cu.get(s, 0)) % char for s in slots):
                failed.append((min(_at(key, a0) for key in keys), (f, i, a0, a0 + t)))
    if failed:
        star, u = min(failed)
        return Membership(False, f"sign law fails at {Vertex(*u)!r}", naturality_rows,
                          counted(sign_spans, star))
    return Membership(True, None, naturality_rows, counted(sign_spans, None))


def solver_margin(params: ModelParams) -> int:
    return 2 * params.n + params.m + 2


# The work counts of a build, in the order center --stats prints them;
# they repeat exactly from run to run.  A _System holds them first, and
# solve_component copies them to its SolveReport.
WORK_COUNTS = ("unknowns", "vertices", "naturality_rows", "sign_rows", "merges", "killed_zero", "killed_parity")


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
    residual: list = dc_field(default_factory=list)
    # the work counts (WORK_COUNTS): unknowns (vertex, basis element),
    # vertices with a nonempty hom space, naturality and sign-law rows
    # imposed (rows is their sum), merges (unknowns minus components), and
    # the components the field discards, for a forced zero or else for a
    # parity conflict (x = -x outside characteristic 2)
    unknowns: int = 0
    vertices: int = 0
    naturality_rows: int = 0
    sign_rows: int = 0
    merges: int = 0
    killed_zero: int = 0
    killed_parity: int = 0
    # whether this call built its system or the cache served it
    built: bool = dc_field(default=False, repr=False, compare=False)
    # the built system that basis is named from, under the variant; a
    # report made without one starts with an empty basis its maker fills
    _system: _System | None = dc_field(default=None, repr=False, compare=False)

    @property
    def _plain(self) -> bool:
        # a plain reading takes every sign as +1 and ignores parity flags
        return law_sign(self.variant, self.p) == 1

    @property
    def rows(self) -> int:
        return self.naturality_rows + self.sign_rows

    @cached_property
    def basis(self) -> list:
        """One CenterElement per component counted, in report order, whose
        line map holds the component's members.  The elements are named
        and built on the first read: the dimensions never need them."""
        if self._system is None:
            return []
        return [CenterElement(self.p, self.variant, _SlotView(self.params, self.p, lines))
                for parity, _, lines in _named_components(self) if not (parity and self.char != 2)]

    @cached_property
    def visibility(self) -> dict:
        """The visibility of each socle class meeting the inner window
        (class_visibility_map), worked out on the first read: the
        dimensions never need it."""
        return class_visibility_map(self.params, self.inner_window)

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


def class_visibility_map(params: ModelParams, inner_window: int) -> dict:
    """Visibility of every socle class meeting the inner window: 'full'
    if every index of the class has support in the guarded box,
    'partial' if some index has support in the inner box.  Class
    (family, q) lies at gap q + _socle_gap(params, family, 0, i) on
    index i, and a box [-B, B]^2 with B >= 0 holds the gaps up to 2B.
    Each call works the map out afresh, so the caller owns it."""
    guarded = inner_window - (params.n + params.m + 2)
    out = {}
    for family in ["X"] + (["Y"] if params.r < params.n else []):
        offsets = [_socle_gap(params, family, 0, i) for i in range(params.r)]
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


class _System(namedtuple("_System", (*WORK_COUNTS, "classes", "readings", "lines", "root", "sign"))):
    """A built system under the graded sign law: what the union-find
    decided, which solve_component reads for every (variant, field) pair
    of its degree.

    The work counts (WORK_COUNTS) are a SolveReport's, but killed_parity
    counts every parity conflict.  classes holds each component that is
    not forced to zero and meets the inner window, by root, as (root,
    parity, tags): parity is set if the component forces x = -x, and tags
    are its class tags sorted by str.  It is empty when every component
    is forced to zero, and then no block is scanned for it.  readings
    counts them as a report does, (scalar_dim, power_dim, class_dims
    items, residual, killed_parity): every class, then all but the
    parity-flagged ones.  That is all the dimensions read.

    The rest is kept to name the basis when it is read
    (_named_components): lines, the layout, as ((family, i, gap), ((slot,
    index at the least a), ...)) in build order, made before any array
    over the unknowns; and root and sign, the union-find hung on its
    roots: the unknown x is sign[x] times the unknown root[x].  Where no
    (family, i) holds a slot besides the identity's (degree 0 wherever r
    >= 2) no forest is made: every root is R and every sign +1
    (_identity_rows).  No Vertex, ArrowGen or str is made until then."""

    __slots__ = ()


def _meet(x: tuple | None, y: tuple | None) -> tuple | None:
    """The gaps that lie in both intervals (hom.in_gaps), as one interval, or
    None if there is none."""
    if x is None or y is None:
        return None
    lo = x[0] if y[0] is None or (x[0] is not None and x[0] > y[0]) else y[0]
    hi = x[1] if y[1] is None or (x[1] is not None and x[1] < y[1]) else y[1]
    return None if lo is not None and hi is not None and lo > hi else (lo, hi)


def _cells(a: tuple, b: tuple, t: tuple) -> int:
    """The cells (a, b) of the rectangle a x b whose gap b - a lies in t,
    each an interval (lo, hi) of integers, counted in closed form.  For
    each a, the gaps up to T take clamp(T + a - b_lo + 1, 0, h) of the
    h values of b; over consecutive a these clamps run over consecutive
    integers, and so sum to a difference of two values of P."""
    (a0, a1), (b0, b1), (t0, t1) = a, b, t
    h = b1 - b0 + 1
    if a0 > a1 or h <= 0 or t0 > t1:
        return 0

    def P(y: int) -> int:
        # the sum of min(z, h) over z = 0..y
        if y < 0:
            return 0
        return y * (y + 1) // 2 if y <= h else h * (h + 1) // 2 + (y - h) * h

    def upto(T: int) -> int:
        return P(T + a1 - b0 + 1) - P(T + a0 - b0)

    return upto(t1) - upto(t0 - 1)


# Shared like hom.frame: never mutated.  The membership checks of one
# generator read the same keys at every window and char (criterion 4's 496
# checks read 108 keys), and a build at another window of the same degree
# reads its keys again; a sweep over degrees reads each key once, so more
# entries would hold memory and serve nothing.
@lru_cache(maxsize=128)
def _plan_pieces(omega, p: int, f: str, i: int) -> tuple[list, list]:
    """The naturality rows of the lines (f, i, t) of omega in degree p, at
    every gap t, as (cuts, plans): the line at t has the plan of its
    piece, plans[bisect_right(cuts, t)], so the first and the last piece
    have no end.  A line's plan is one (g, j, da, du, along, k, rows)
    per generating arrow (ModelParams.generators) whose rows are not
    empty, in that order, k its place there: the target of (f, i, a, a +
    t) is (g, j, a + da, a + da + u), at the gap u = du plus t where
    along is set.  rows has one row per degree of the composite v -> Sigma^p w
    that carries a generator, as (slot of v, slot of w), None where that
    side holds no slot of the degree: naturality at the arrow says the
    two coefficients agree, or that the one slot is 0.

    The row of a slot stands where the target is a vertex and carries a
    generator, the end holds the slot (hom.frame) and the slot's composite
    carries a generator (model.arrow_gaps).  Each of these holds on an
    interval of t, because every region side, target offset and Sigma^p
    translation is a constant of (omega, p) and each test is linear in t,
    so the row stands on one interval.  A plan is constant between the
    ends of these intervals, the cuts, and never depends on the window,
    so each piece's plan is worked out once, at one gap of the piece,
    when the gaps are cut."""
    params = ModelParams(omega)
    shift_p, gaps, vertex_gaps = frame(omega, p)
    rules = params.rules

    def moved(interval: tuple | None, du: int, along: bool) -> tuple | None:
        # the t at which the target's gap, du plus t where along is set,
        # lies in interval
        if interval is None or not along:
            return (None, None) if in_gaps(interval, du) else None
        return tuple(None if end is None else end - du for end in interval)

    mine = [(s, gaps[f, i, s]) for s in (-1, 0, 1, 2) if (f, i, s) in gaps]
    targets = []
    for k, (g, j, da, db, degree, along) in enumerate(params.generators[f, i]):
        du = db - da
        reach = _meet(moved(vertex_gaps[g, j], du, along), arrow_gaps(rules, f, i, g, j, da, db, along, degree))
        sj, sa, sb = shift_p[g, j]
        # per slot, the t where its row's composite has an arrow
        kinds = {-1: (None, None)}
        sides = []
        for side in (mine, [(s, moved(gaps[g, j, s], du, along)) for s in (-1, 0, 1, 2) if (g, j, s) in gaps]):
            rows = []
            for s, held in side:
                stands = _meet(reach, held)
                if stands:
                    if s not in kinds:
                        kinds[s] = arrow_gaps(rules, f, i, g, sj, da + sa, db + sb, along, degree + s)
                    stands = _meet(stands, kinds[s])
                if stands:
                    rows.append((s, stands))
            sides.append(tuple(rows))
        if any(sides):
            targets.append((g, j, da, du, along, k, degree, *sides))
    ends = {end for *_, v_rows, w_rows in targets for _, (lo, hi) in v_rows + w_rows
            for end in (lo, None if hi is None else hi + 1)}
    ends.discard(None)
    cuts = sorted(ends)
    # each piece's plan, worked out at its least gap, or at the one below
    # the first cut for the first piece
    plans = []
    for t in [cuts[0] - 1 if cuts else 0, *cuts]:
        plan = []
        for g, j, da, du, along, k, degree, v_rows, w_rows in targets:
            # the rows (slot of v, slot of w), by degree
            rows: dict = {}
            for s, stands in v_rows:
                if in_gaps(stands, t):
                    rows[degree + max(s, 0)] = [s, None]
            for s, stands in w_rows:
                if in_gaps(stands, t):
                    rows.setdefault(degree + max(s, 0), [None, None])[1] = s
            if rows:
                plan.append((g, j, da, du, along, k, tuple(map(tuple, rows.values()))))
        plans.append(tuple(plan))
    return cuts, plans


class _SignedForest:
    """A signed union-find on the unknowns 0..count-1, kept flat: every
    unknown x always holds its root, root[x], and its sign relative to
    it, sign[x], so that x = sign[x] * root[x].  The members of each
    component form a ring through next, and size is read at roots.
    joined marks the unknowns of components with two or more members.
    The marks zero, set by the caller where a row forces an unknown to
    zero, and parity, set where a row forces x = -x, sit on any member of
    a component and are read at its root.

    An unsigned forest takes only rows of weight +1, as every row of an
    even degree is: no sign can change and no parity conflict can arise,
    so it never reads, copies or flips a sign, and sign stays all +1."""

    __slots__ = ("root", "sign", "next", "size", "joined", "zero", "parity", "signed")

    def __init__(self, count: int, signed: bool):
        self.root = list(range(count))
        self.sign = [1] * count
        # the same int objects as root, so the ring costs one pointer each
        self.next = self.root[:]
        self.size = [1] * count
        self.joined = bytearray(count)
        self.zero = bytearray(count)
        self.parity = bytearray(count)
        self.signed = signed

    def unite(self, x0: int, y0: int, length: int, s: int) -> int:
        """Impose x = s * y along the aligned ranges from x0 and y0, and
        return the number of merges.

        Where the two sides do not meet, their roots differ and one side
        is all single unknowns, the y side first, that side hangs on the
        other side's roots by slice assignment: each of its unknowns joins
        the component of its partner, next to it in its ring.  Otherwise a
        signed forest first flags parity, in one pass over the slices,
        where the roots already agree but the signs do not match s; the
        merges below cannot change that verdict, because relabelling a
        component flips the signs of both members.  A range whose roots
        all agree is then settled.  In any other, only the positions whose
        roots differ are visited, in increasing order, their roots read
        afresh: a pair that an earlier position joined is checked for
        parity, and any other relabels the smaller of its two components
        (union by size) by walking its ring."""
        root, sign, signed = self.root, self.sign, self.signed
        x1, y1 = x0 + length, y0 + length
        xroots, yroots = root[x0:x1], root[y0:y1]
        if xroots != yroots and (x1 <= y0 or y1 <= x0):
            joined = self.joined
            hang = joined.find(1, y0, y1) < 0
            if not hang and joined.find(1, x0, x1) < 0:
                # the x side hangs: the same row, read as y = s * x
                hang = True
                x0, x1, xroots, y0, y1, yroots = y0, y1, yroots, x0, x1, xroots
            if hang:
                nxt, size = self.next, self.size
                root[y0:y1] = xroots
                if signed:
                    xs = sign[x0:x1]
                    sign[y0:y1] = xs if s == 1 else list(map(neg, xs))
                nxt[y0:y1] = nxt[x0:x1]
                nxt[x0:x1] = yroots
                joined[x0:x1] = joined[y0:y1] = b"\1" * length
                if xroots.count(xroots[0]) == length:
                    size[xroots[0]] += length
                else:
                    for x in xroots:
                        size[x] += 1
                return length
        if signed:
            xs, ys = sign[x0:x1], sign[y0:y1]
            if s != 1:
                ys = list(map(neg, ys))
            if xs != ys:
                parity = self.parity
                for x in compress(xroots, map(and_, map(eq, xroots, yroots), map(ne, xs, ys))):
                    parity[x] = 1
        if xroots == yroots:
            return 0
        nxt, size, joined, parity = self.next, self.size, self.joined, self.parity
        merged = 0
        dy = y0 - x0
        for x in compress(range(x0, x1), map(ne, xroots, yroots)):
            y = x + dy
            rx, ry = root[x], root[y]
            # ry = w * rx, from x = sign[x] rx and y = sign[y] ry
            w = sign[x] * s * sign[y] if signed else 1
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


def _identity_rows(params: ModelParams) -> tuple[int, int, int]:
    """Degree 0's identity block on the window params.window, settled from
    the layout, as (naturality_rows, sign_rows, R): its naturality rows,
    counted in closed form (_cells) at each generating arrow over the gaps
    where its target is a vertex, which is where its row stands (Closed,
    below), its sign-law rows, and its root R, the unknown at offset 1 of
    the first laid line where r >= 2 and at offset m + 1 where r = 1 (The
    root, below).  No plan is read.  The build imposes none of these rows:
    it roots every identity unknown at R and counts one merge fewer than
    the unknowns, what the union loop makes of the same rows, root
    included, on every window the solver admits (W >= solver_margin + 1).
    No case is left to the union loop.  Why:

    Closed.  At p = 0 the frame (hom.frame) holds the identity's slot -1
    at every gap and no slot 0, since a degree-0 arrow from v to itself
    is the identity.  A plan (_plan_pieces) keys a row by the degree of
    its composite, the identity's at the arrow's own degree, where only
    slot -1 or 0 can sit, and the identity stands at both ends wherever
    the arrow does: every row that holds -1 is (-1, -1).  Sigma pairs
    each slot with itself, with the sign +1 of an even degree.  So the
    identity unknowns meet only each other, none is forced to zero, and
    no parity conflict arises.

    One component.  Each generating arrow's identity row stands wherever
    its target is a vertex (test_degree_zero_identity_is_closed checks
    this and the rest on every r <= n <= 6, m <= 3).  Within a (family,
    i), the steps (0, 1) and (1, 0) join each vertex (a, b) of the box to
    (-W, W): up in b, then down in a, through gaps no less than b - a.
    X's e' corner joins X(i) to X(i + 1), the arrows into Z join X(i)
    and Y(i) to Z(i), and every such arrow stands at every gap of its
    source, on vertices of the box.

    The root.  The build visits the lines in layout order, X first,
    index 0 first, gaps upward, so the first line is (X, 0, -m), whose
    unknowns are 0..L - 1, L = 2W + 1 - m, the one at a at offset k = a
    + W - m.  Its (0, 1) step, its e' corner and its arrow into Z each
    reach a line that no row has touched, whose a hold the first line's
    (all but the last where m = 0), so each hangs one unknown on each of
    its unknowns (_SignedForest), which end with components of one size;
    at r = 1 and m = 0 the e' corner pairs each cell with itself, which
    joins nothing.  Its Sigma row comes next, the target's side first,
    where unite keeps a tie's root:
    - r >= 2: Sigma takes (X, 0, a, a - m) to (X, 1, a + 1, a + 1), the
      cell that the e' corner hung on offset k + 1, so the row joins k +
      1 to k, k rising.  At k = 0 the two are of one size and R = 1
      wins the tie; each later component joined is one offset's, and
      R's, holding 0..k, is larger.
    - r = 1: Sigma takes (X, 0, a, b) to (X, 0, a + m + 1, b + m + 1),
      on the same line, so the row joins k + m + 1 to k.  At k <= m both
      are untouched and k + m + 1 wins the tie; later, k's component is
      the larger.  The offsets fall into m + 1 classes by k mod (m + 1),
      class c rooted at m + 1 + c, and class 0, rooted at R = m + 1,
      holds as many offsets as any.  If m >= 1, the next line (X, 0, 1 - m)
      joins them.  Its (0, 1) step adds as much to each offset's class,
      and then its (1, 0) step joins its cell at a, in the class of the
      first line's cell at a, to the first line's cell at a + 1, a
      rising, its own side first.  Its first cell lies off the first line
      and joins class 0.  Then class 0 meets class 1 from the winning
      side of a tie, and keeps R; each later class meets R's, which holds
      two or more.
    Then R's component holds every unknown of the first line and all
    that hang on them, and it outgrows every component it meets.  A hang
    never moves a joined root.  While X and Y are visited, a line's
    cells, when its rows are imposed, are in R's component already,
    hung there by the rows of the lines before it, or are cells that no
    row has reached yet, holding at most the unknown that their own (0,
    1) step has just hung on them: two unknowns against R's L or more.
    Z's lines below the gaps that the arrows into Z reach join each
    other from Z(i, -2W) up, and meet R's component only when Z's lines
    are visited.  By then it holds every line of X.  X(i)'s lines, from
    its least gap g <= 0 up, hold more unknowns than Z(i)'s lines below
    g, since 2W + 1 - |t| is larger at t = g + k than at t = g - 1 - k.
    So R's is the larger at every merge, and it is the root.
    """
    R = 1 if params.r > 1 else params.m + 1
    W = params.window
    steps = params.sigma_steps
    vertex_gaps = frame(params.omega, 0)[2]
    naturality_rows = sign_rows = 0
    for (f, i), (least, _) in vertex_gaps.items():
        lo = -2 * W if least is None else max(least, -2 * W)
        for g, j, da, db, _, along in params.generators[f, i]:
            # the gaps from t0 up, at which the target's gap, db - da plus
            # t where along is set, is a vertex's; the one arrow without
            # along, X's e' corner, reaches gap 0, which every X(i) has
            target = vertex_gaps[g, j][0]
            t0 = max(lo, target - db + da) if along and target is not None else lo
            # the cells whose target lies in the box: the a with a and a +
            # da in [-W, W], the b with b and b + db
            a, b = _span(W, da), _span(W, db)
            if not along:
                a, b = (max(a[0], b[0]), min(a[1], b[1])), (-W, W)
            naturality_rows += _cells(a, b, (t0, 2 * W))
        _, s1, s2 = steps[f, i, 1]
        sign_rows += _cells(_span(W, s1), _span(W, s2), (lo, 2 * W))
    return naturality_rows, sign_rows, R


def _held(block: list, roots: set) -> tuple | set:
    """The members of roots that occur in block, a block's slice of the
    union-find's roots.  Most blocks end in one component, which one
    count shows; only a block with more is intersected with roots."""
    x = block[0]
    if block.count(x) == len(block):
        return (x,) if x in roots else ()
    return roots.intersection(block)


_builds = 0


# A window's degree sweep p = 0..2n + 1 needs one system per degree,
# 2n + 2 in all, so the 14 entries hold a whole window up to n = 6 (the
# acceptance GRID sweeps p = 0..2n and needs 9), and every (variant,
# char) pair of one window is served from the systems the first pair
# built.  A call that sees _builds move built its system.
@lru_cache(maxsize=14)
def _build_system(omega, W: int, inner: int, p: int) -> _System:
    """Solve the union-find system of degree p on the window W, with the
    graded sign law eta Sigma = (-1)^p Sigma eta (law_sign), and keep
    what a report on the inner window needs.  Every naturality row has
    weight +1 and only the sign-law rows carry (-1)^p, which never
    decides whether a row merges two components.  So the commutative law
    at odd p is the same union-find with every weight +1, and no parity
    conflict: the build counts that reading too (_System.readings).
    Where law_sign is +1, at even p, the two laws agree, every row has
    weight +1 and every sign is +1, so the forest is unsigned there
    (_SignedForest).

    The field is not an argument either: the rows have coefficients +-1
    whatever the characteristic, so only the reading of a parity conflict
    depends on it, and that is left to the caller.

    The naturality rows of a line (family, i, t) are its plan
    (_plan_pieces), the one statement of naturality, which
    check_membership reads too.  A plan is constant on each piece of the
    gaps of its (family, i).  The lines of a (family, i) come in one run,
    which reads its pieces and its Sigma step once; a line finds its
    piece's plan by bisection over the cuts, and does only the range
    arithmetic and the unions of its rows.  The unions come in the order
    of a build that works out each line's rows itself on the forest this
    one replaced, tests/line_build.py, so the system is that build's
    field for field, root and sign included.

    At degree 0 the identity's one component is settled from the layout,
    root, counts and class alike (_identity_rows), and its rows are left
    out of the unions.  So the union loop walks only the runs of the
    (family, i) whose frame holds a slot besides the identity's, reads
    only their plans, less the identity's rows, and skips every other
    run.  At p = 0 the one such (family, i) is (X, 0) at r = 1: the
    skipped lines, Y(0)'s and Z(0)'s, hold the identity alone, and so do
    the targets of their generating arrows, which stay in Y and Z
    (model._tables), so every row of theirs is the identity's (-1, -1).
    At p > 0 every (family, i) laid out is walked.  A build that walks
    none, as at p = 0 wherever r >= 2, reads no plan, makes no forest and
    visits no line, and its one class, if any, is read as every build's
    is.

    A line whose Hom(v, Sigma^p v) is 0 gets no unknowns and no plan, so
    the rows out of it are never imposed: rows (None, s) that force the
    target's slot s to 0, such as (None, e'') at Y(0)[a, a+2] ->
    Y(0)[a, a+3] on (1, 2, 0) at p = 3.  The solutions satisfy them all
    the same; check_membership tests them, and
    tests/test_center.py::test_solver_basis_passes_membership_beyond_the_grid
    runs it on every basis of every row r <= n <= 6, m <= 3."""
    params = ModelParams(omega, W)
    sign = law_sign("graded", p)
    rules = params.rules
    steps = params.sigma_steps

    # per (family, i): the slots of Hom(v, Sigma^p v) with their gaps, and
    # the gaps of a vertex
    _, gaps, vertex_gaps = frame(omega, p)

    # The line (f, i, t) is the diagonal of vertices (f, i, a, a + t) in
    # the box, a from a0 to a1 (_span), none if |t| > 2W.
    # Hom(v, Sigma^p v) depends on the gap t alone, so each slot of it
    # (-1 for the identity, else the arrow's degree) gets one block of
    # unknowns along the line: lines[f, i, t] maps the slot to the index
    # of the unknown at the least a, and the unknown at a is that index
    # plus a less the least a.  Only lines with a nonempty hom space are
    # laid out: per slot, its gaps b - a that a vertex of the box has.
    # The identity's blocks of a (family, i) are laid one after another,
    # so they fill one range of unknowns: identity holds the ranges.
    lines: dict = {}
    identity = []
    count = vertices = 0
    for (f, i, d), (lo, hi) in gaps.items():
        lo = max(x for x in (lo, vertex_gaps[f, i][0], -2 * W) if x is not None)
        hi = 2 * W if hi is None else min(hi, 2 * W)
        start = count
        for t in range(lo, hi + 1):
            a0, a1 = _span(W, t)
            slots = lines.get((f, i, t))
            if slots is None:
                slots = lines[f, i, t] = {}
                vertices += a1 - a0 + 1
            slots[d] = count
            count += a1 - a0 + 1
        if d < 0:
            identity.append((start, count))
    # the layout as _System keeps it, made before any array over the
    # unknowns exists, so that the collections its many small tuples set
    # off have no such array to walk
    layout = tuple((key, tuple(bv.items())) for key, bv in lines.items())

    naturality_rows = sign_rows = merges = scalar_root = 0
    if identity:
        # degree 0, the only degree with an identity slot: the identity's
        # rows are counted but not imposed, and its unknowns make one
        # component, rooted at scalar_root (_identity_rows)
        naturality_rows, sign_rows, scalar_root = _identity_rows(params)
        merges = sum(x1 - x0 for x0, x1 in identity) - 1
    # the (f, i) whose frame holds a slot besides the identity's, the only
    # ones with rows left to impose
    walked = {(f, i) for f, i, d in gaps if d >= 0}
    if not walked:
        # every unknown, if any, is the identity's: the layout settles the
        # system, with no plan, no forest and no mark
        root, signs = (scalar_root,) * count, (1,) * count
        dead, odd, blocks = set(), set(), []
    else:
        # Each line imposes each row of its plan (_plan_pieces) on every a
        # at once: the a where v and w both lie in the box, an interval.
        forest = _SignedForest(count, sign < 0)
        zero = forest.zero
        unite = forest.unite
        here = None
        for (f, i, t), bv in lines.items():
            if (f, i) != here:
                # the lines of one (f, i) come in one run, walked or skipped
                # whole, which reads its pieces and its Sigma step once
                here = f, i
                walk = here in walked
                if walk:
                    cuts, plans = _plan_pieces(omega, p, f, i)
                    sj, s1, s2 = steps[f, i, 1]
                    if identity:
                        # less the identity's rows, counted already
                        plans = [tuple((*target, kept) for *target, rows in plan
                                       if (kept := tuple(row for row in rows if row != (-1, -1))))
                                 for plan in plans]
            if not walk:
                continue
            plan = plans[bisect_right(cuts, t)]
            # the a of the line, and of its target line at the gap u, in
            # the box: a0..a1 and b0..b1
            a0, a1 = _span(W, t)
            for g, j, da, du, along, _, rows in plan:
                u = (t if along else 0) + du
                b0, b1 = _span(W, u)
                lo = b0 - da if b0 - da > a0 else a0
                hi = b1 - da if b1 - da < a1 else a1
                if lo > hi:
                    continue
                bw = lines.get((g, j, u))
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
                        merges += unite(x0, y0, length, 1)
            # sign law v -> Sigma v: Sigma beta starts at Sigma v, same degree
            u = t + s2 - s1
            b0, b1 = _span(W, u)
            lo = b0 - s1 if b0 - s1 > a0 else a0
            hi = b1 - s1 if b1 - s1 < a1 else a1
            if lo <= hi:
                other = lines.get((f, sj, u), {})
                for s, x in bv.items():
                    if s < 0:
                        continue
                    y = other.get(s)
                    if y is None:
                        raise InconsistencyError(
                            f"suspension of unknown left the system at {Vertex(f, i, lo, lo + t)!r}")
                    merges += unite(y + lo + s1 - b0, x + lo - a0, hi - lo + 1, sign)
                    sign_rows += hi - lo + 1

        # every unknown holds its root already, but the identity's: gather
        # the marks there, if any is set
        root, signs = forest.root, forest.sign
        for x0, x1 in identity:
            root[x0:x1] = [scalar_root] * (x1 - x0)
        dead = set(compress(root, zero)) if 1 in zero else set()
        odd = set(compress(root, forest.parity)) if 1 in forest.parity else set()
        # free the ring and the sizes before the tuples below are made
        del forest, unite
        # the blocks to scan, none where every component is forced to zero
        blocks = []
        if len(dead) < count - merges:
            blocks = [(f, i, t, s, x0) for (f, i, t), bv in layout for s, x0 in bv if s >= 0]

    # The components that meet the inner window, read off each block's
    # slice in the inner box (_span), less those forced to zero; then the
    # class tags of each, one per block that holds a member (_held).  The
    # identity's blocks are not read: their one component meets the inner
    # box, which holds a vertex, and its tag is scalar's.
    meets: set = set()
    for f, i, t, s, x0 in blocks:
        (a0, _), (c0, c1) = _span(W, t), _span(inner, t)
        if c0 <= c1:
            meets.update(root[x0 + c0 - a0:x0 + c1 - a0 + 1])
    meets -= dead
    tags = {x: set() for x in meets}
    if identity:
        meets.add(scalar_root)
        tags[scalar_root] = {_class_tag(params, p, 0, 0, None)}
    for f, i, t, s, x0 in blocks:
        a0, a1 = _span(W, t)
        roots = _held(root[x0:x0 + a1 - a0 + 1], meets)
        if roots:
            tag = _class_tag(params, p, i, t, rules[f, f, s, i][0])
            for x in roots:
                tags[x].add(tag)
    classes = tuple((x, x in odd, tuple(sorted(tags[x], key=str))) for x in sorted(meets))
    # both readings (_System), one without a parity conflict
    readings = []
    for drop in (False, True) if odd else (False,):
        dims: dict = {}
        for _, parity, names in classes:
            if not (parity and drop):
                tag = _class_of(names)
                dims[tag] = dims.get(tag, 0) + 1
        scalar, power, residual = dims.pop("scalar", 0), dims.pop("power", 0), dims.pop(None, 0) > 0
        readings.append((scalar, power, tuple(dims.items()), residual, len(odd - dead) if drop else 0))
    global _builds
    _builds += 1
    return _System(
        unknowns=count,
        vertices=vertices,
        naturality_rows=naturality_rows,
        sign_rows=sign_rows,
        merges=merges,
        killed_zero=len(dead),
        killed_parity=len(odd - dead),
        classes=classes,
        readings=(readings[0], readings[-1]),
        lines=layout,
        root=tuple(root),
        sign=tuple(signs),
    )


def _named_components(report: SolveReport) -> list:
    """The components of the report's system's classes in report order,
    read under its variant, as (parity, tags, lines): lines is the line
    map of the component's unknowns in the report's inner window, with
    its keys in order.  Each block's root and sign slices are cut into
    runs where a neighbour differs, and a component's runs, one slot at a
    time, are merged into its lines (_lines) once it is named.
    Expanded, the members ((family, i, a, b), slot, coefficient) in order
    of vertex and then str(arrow) are the basis element's.  Components
    are ordered by their least (vertex, str(arrow)); a Vertex orders as
    its key does.

    At one vertex every member's arrow has the same ends, so its name is
    a prefix, "None" or the kind and ":", followed by a common tail, and
    no prefix starts another: the prefixes order the members of a vertex
    as their names do.  Names, str(hom.basis_arrow(...)), are formatted
    only where they order members of different vertices: to pick the
    reference sign of a component whose runs hold both signs, over every
    member of its runs.

    A coefficient is the member's sign relative to the member of least
    str(arrow); where every member has one sign, as in a plain reading
    (SolveReport._plain, where law_sign is +1), which ignores the parity
    flags, each coefficient is +1.  On a component without the parity
    flag the rows fix it.  On a parity-flagged one, which survives only in
    characteristic 2, the rows imply both signs, so the +-1 read off
    depends on the order in which unknowns were merged; every such choice
    is the same element over F_2."""
    params, system, plain = report.params, report._system, report._plain
    W, inner = report.window, report.inner_window
    rules = params.rules
    root, sign = system.root, system.sign
    wanted = {x: (odd and not plain, tags) for x, odd, tags in system.classes}
    roots = set(wanted)
    heads: dict = {}
    found_runs: dict[int, list[tuple]] = {x: [] for x in wanted}
    for (f, i, t), bv in system.lines:
        # the line's a in the box, and its block's slice in the inner box,
        # k0..k1 - 1, if any
        (a0, a1), (c0, c1) = _span(W, t), _span(inner, t)
        k0, k1 = c0 - a0, max(c0, c1 + 1) - a0
        for s, x0 in bv:
            block = root[x0:x0 + a1 - a0 + 1]
            found = _held(block, roots)
            if not found:
                continue
            prefix = "None" if s < 0 else rules[f, f, s, i][0] + ":"
            # a component's least member in the block is its least a
            for x in found:
                k = block.index(x)
                head = ((f, i, a0 + k, a0 + k + t), prefix)
                if x not in heads or head < heads[x]:
                    heads[x] = head
            # the runs in the inner slice: a run starts where the root, or
            # the sign, differs from its left neighbour's
            part = block[k0:k1]
            if not part:
                continue
            starts = map(ne, part[1:], part[:-1])
            if not plain:
                signs = sign[x0 + k0:x0 + k1]
                starts = map(or_, starts, map(ne, signs[1:], signs[:-1]))
            cuts = [0, *compress(range(1, len(part)), starts), len(part)]
            for lo, end in zip(cuts, cuts[1:]):
                runs = found_runs.get(part[lo])
                if runs is not None:
                    lo_a = a0 + k0 + lo
                    runs.append(((f, i, t, s), lo_a, lo_a + end - lo - 1, 1 if plain else signs[lo]))
    components = []
    for x, runs in found_runs.items():
        weights = {w for *_, w in runs}
        if len(weights) == 1:
            ref_w = weights.pop()
        else:
            # the sign of the member whose name sorts first
            ref_w = min((str(basis_arrow(rules, v, sigma_pow(params, v, report.p), s)), w)
                        for (f, i, t, s), lo, hi, w in runs
                        for v in (Vertex(f, i, a, a + t) for a in range(lo, hi + 1)))[1]
        by_key: dict = {}
        for key, lo, hi, w in sorted(runs):
            by_key.setdefault(key, []).append((lo, hi, w * ref_w))
        components.append((heads[x], *wanted[x], _lines(by_key)))
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
    """The degree-p component: its system (built on a cache miss) as
    the variant and field read it."""
    if p < 0:
        raise ValueError("degree must be >= 0")
    sign = law_sign(variant, p)
    FieldScalar(0, field)
    if inner_window < 1 or inner_window + solver_margin(params) > window:
        raise ValueError(
            f"window {window} too small: need inner_window + margin"
            f" = {inner_window} + {solver_margin(params)}"
        )
    builds = _builds
    system = _build_system(params.omega, window, inner_window, p)
    # a parity conflict x = -x, which a plain reading ignores, forces the
    # component to zero outside characteristic 2
    scalar, power, dims, residual, killed_parity = system.readings[field != 2 and sign < 0]
    # SolveReport's fields in order (test_solve_report_fields_follow_the_system)
    report = SolveReport(params, p, variant, field, window, inner_window, scalar, power, dict(dims),
                         [], *system[:6], killed_parity, _builds != builds, system)
    if residual:
        # an error in the model; the names give the report order
        report.residual = [
            list(tags) for parity, tags, _ in _named_components(report)
            if not (parity and field != 2) and _class_of(tags) is None
        ]
    return report


def multiply(params: ModelParams, a: CenterElement, b: CenterElement) -> CenterElement:
    """Pointwise product (a.b)_v = Sigma^{p_b}(a_v) o b_v, on line maps.
    Sigma keeps a term's kind and degree, so a term of a_v in slot s_a
    and one of b_v in slot s_b compose to the arrow v -> Sigma^(p_a + p_b)
    v of degree s_a + s_b, with coefficient c_a c_b, where that arrow
    exists: where the frame of degree p_a + p_b (hom.frame) holds the slot
    s_a + s_b at v's gap.  The identity's slot -1 is the unit.  The two
    factors' lines are laid side by side (_overlay), and the product is
    worked out once on each interval where both values stay the same;
    touching intervals with equal products are merged (_as_runs), and an
    interval whose product has no term holds no cell.  A factor built by
    hand passes _slot_map's gate, the membership check's, first."""
    p = a.p + b.p
    gaps = frame(params.omega, p)[1]
    lines_a = _slot_map(params, a).lines
    spans: dict = {}
    for (f, i, t), pieces_b in _slot_map(params, b).lines.items():
        pieces_a = lines_a.get((f, i, t))
        if not pieces_a:
            continue
        lo, hi = max(pieces_a[0][0], pieces_b[0][0]), min(pieces_a[-1][1], pieces_b[-1][1])
        for a0, a1, value_b, value_a in _overlay(pieces_b, pieces_a, 0, lo, hi):
            if value_a is None or value_b is None:
                continue
            terms: dict = {}
            for s_b, c_b in value_b.items():
                for s_a, c_a in value_a.items():
                    if s_b < 0 or s_a < 0:
                        s = s_a if s_b < 0 else s_b
                    else:
                        s = s_a + s_b
                        if not in_gaps(gaps.get((f, i, s)), t):
                            continue
                    c = terms.get(s, 0) + c_a * c_b
                    if c:
                        terms[s] = c
                    else:
                        terms.pop(s, None)
            if terms:
                spans.setdefault((f, i, t), []).append((a0, a1, terms))
    return CenterElement(p, a.variant, _SlotView(params, p, {key: _as_runs(at) for key, at in spans.items()}))
