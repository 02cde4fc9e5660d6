"""The slot-map form of a center element, and the membership check on it
that gradedcenter.center's check_membership replaced with one on runs
along the diagonal lines, kept unchanged as its differential oracle.

A slot map is {(family, i, a, b): {slot: coefficient}}: one entry per
cell, where the line map center.CenterElement holds has one piece per
maximal interval of a on a line (family, i, b - a) whose cells hold the
same value.  expand_lines turns a line map back into the slot map, and
expand does the same for the runs of one slot at a time that
center._lines merges; slot_map is the converter the check used, which
reads an element built by hand value by value."""

from gradedcenter.center import (
    CenterElement,
    _SlotView,
    _named_components,
    _targets,
    membership_margin,
)
from gradedcenter.gf import FieldScalar
from gradedcenter.hom import basis_arrow, frame, in_gaps
from gradedcenter.model import ArrowGen, ModelParams, Vertex, arrow_kind

from row_pattern import _row_pattern


def expand(runs: dict) -> dict:
    """The slot map of runs {(family, i, t, slot): ((a_lo, a_hi,
    coefficient), ...)}, keys in (family, i, a, b) order and each cell's
    slots in the runs' order."""
    cells: dict = {}
    for (f, i, t, s), spans in runs.items():
        for lo, hi, c in spans:
            for a in range(lo, hi + 1):
                cells.setdefault((f, i, a, a + t), {})[s] = c
    return dict(sorted(cells.items()))


def expand_lines(lines: dict) -> dict:
    """The slot map of a line map {(family, i, t): ((a_lo, a_hi, {slot:
    coefficient}), ...)}, keys in (family, i, a, b) order; a cell held
    with no term has the value {}."""
    cells = {(f, i, a, a + t): dict(value) for (f, i, t), pieces in lines.items()
             for lo, hi, value in pieces for a in range(lo, hi + 1)}
    return dict(sorted(cells.items()))


def members(params: ModelParams, shift_p, lines: dict) -> tuple:
    """A line map's members ((family, i, a, b), slot, coefficient) in the
    order of a basis element's: by vertex, then str(arrow)."""
    rules = params.rules
    cells = [(key, s, c) for key, value in expand_lines(lines).items() for s, c in value.items()]
    return tuple(sorted(cells, key=lambda m: (m[0], str(basis_arrow(rules, shift_p, Vertex(*m[0]), m[1])))))


def named_members(report) -> list:
    """center._named_components with each component's line map expanded
    to its members (members), the form tests/named_components.py gives."""
    shift_p = frame(report.params.omega, report.p)[0]
    return [(parity, tags, members(report.params, shift_p, lines))
            for parity, tags, lines in _named_components(report)]


def slot_map(params: ModelParams, el: CenterElement) -> dict:
    """el's values as its slot map.  An element that holds a line map on
    these parameters' omega is expanded; any other is converted value by
    value, which checks that v is a vertex of these parameters, that each
    value runs from v to Sigma^p v and that each term's kind is the one
    its degree, the slot, has."""
    view = el.assignment
    if isinstance(view, _SlotView) and view._params.omega == params.omega:
        return expand_lines(view.lines)
    rules = params.rules
    shift, _, vertex_gaps = frame(params.omega, el.p)
    slots: dict = {}
    for v, mor in view.items():
        f, i, a, b = v.family, v.i, v.a, v.b
        if not in_gaps(vertex_gaps.get((f, i)), b - a):
            raise ValueError(f"no vertex {f}({i})[{a},{b}] for these parameters")
        j, da, db = shift[f, i]
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


def check_membership(
    params: ModelParams,
    el: CenterElement,
    window: int,
    inner_window: int,
    char: int = 3,
    variant: str | None = None,
) -> tuple:
    """(ok, why, naturality_rows, sign_rows): the check on the slot map,
    cell by cell.  Naturality is tested at the generating arrows with both
    ends in the inner box, out of each inner support vertex and into it
    from off-support sources, then the sign law on every Sigma-pair that
    touches the support; a failing check counts up to its failure."""
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
    shift_p, gaps, vertex_gaps = frame(params.omega, p)
    shift_back = frame(params.omega, -1)[0]
    targets = {key: _targets(params, *key) for key in shift_p}
    sources: dict = {key: [] for key in shift_p}
    for f, i in shift_p:
        for g, j, da, db, degree, along in targets[f, i]:
            sources[g, j].append((f, i, da, db, degree, along))
    coeffs: dict = {}
    for key, value in slot_map(params, el).items():
        f, i, a, b = key
        if not all(in_gaps(gaps.get((f, i, s)), b - a) for s in value):
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

    def failure(kind: str, v: tuple, w: tuple, degree: int) -> tuple:
        gen = ArrowGen(kind, Vertex(*v), Vertex(*w), degree)
        return (False, f"naturality fails at {gen!r}", naturality_rows, sign_rows)

    def inner(v: tuple) -> bool:
        return -Wi <= v[2] <= Wi and -Wi <= v[3] <= Wi

    inner_support = sorted(v for v in coeffs if inner(v))
    for v in inner_support:
        f, i, a, b = v
        for g, j, da, db, degree, along in targets[f, i]:
            w = (g, j, a + da, (b if along else a) + db)
            if not in_gaps(vertex_gaps.get((g, j)), w[3] - w[2]) or not inner(w):
                continue
            kind = arrow_kind(rules, *v, *w, degree)
            if kind is not None and not natural_at(v, w, degree):
                return failure(kind, v, w, degree)
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
                if v in coeffs or not in_gaps(vertex_gaps.get((f, i)), b - a) or not inner(v):
                    continue
                kind = arrow_kind(rules, *v, *w, degree)
                if kind is not None and not natural_at(v, w, degree):
                    return failure(kind, v, w, degree)
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
                return (False, f"sign law fails at {Vertex(*u)!r}", naturality_rows, sign_rows)
    return (True, None, naturality_rows, sign_rows)
