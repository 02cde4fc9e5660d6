"""The integer membership check that walks every arrow at the support,
which gradedcenter.center's check_membership replaced with a walk over
the generating arrows (ModelParams.generators), kept unchanged as its
differential oracle: the arrows at each inner support vertex come from
model.arrow_keys_from and arrow_keys_to, and each is tested with the
cell rule _row_pattern (tests/row_pattern.py) on the element's
coefficients."""

from functools import lru_cache

from gradedcenter.center import CenterElement, membership_margin
from gradedcenter.gf import FieldScalar
from gradedcenter.hom import in_gaps
from gradedcenter.model import (
    FAMILIES,
    ArrowGen,
    ModelParams,
    Vertex,
    arrow_keys_from,
    arrow_keys_to,
    hom_gaps,
    sigma_shift,
)

from row_pattern import _row_pattern


def check_membership(
    params: ModelParams,
    el: CenterElement,
    window: int,
    inner_window: int,
    char: int = 3,
    variant: str | None = None,
) -> tuple[bool, str | None]:
    """Verify naturality and the sign law for el on the inner window.

    The check runs on integers, as the solver does: a vertex is the key
    (family, i, a, b), and el becomes its coefficients per slot.  The
    arrows at each inner support vertex come from model.arrow_keys_from
    and arrow_keys_to as integer ranges that start at each row's least
    gap.  Naturality at an arrow is the cell rule, _row_pattern,
    on the coefficients mod char.  A pattern is unchanged when both
    endpoints move along the diagonal together, so within one call it is
    worked out once per (families, indices, gap, target offset, degree,
    slots of both endpoints).  Rows where neither endpoint carries
    support are 0 = 0 and are skipped; that restriction is exact, not an
    approximation.  Objects are built only to name the first failure.
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
    # Sigma^p per (family, i), as a translation (j, da, db)
    shift_p = {(f, i): sigma_shift(params, f, i, p) for f in FAMILIES for i in range(params.r)}
    # {(family, i, a, b): (slots, {slot: coefficient})}, slots as in the
    # solver.  The value must lie in Hom(v, Sigma^p v): its endpoints, and
    # so those of its terms, are v and Sigma^p v, and each term is the
    # basis arrow of a slot whose gaps, read once per (family, i, degree),
    # hold b - a.
    coeffs: dict = {}
    hom = lru_cache(None)(lambda f, i, d: hom_gaps(params, f, i, d, shift_p[f, i]))
    for v, mor in el.assignment.items():
        f, i, a, b = v.family, v.i, v.a, v.b
        j, da, db = shift_p[f, i]
        ok = mor.source == v and mor.target == Vertex(f, j, a + da, b + db)
        slots = {}
        for t, c in mor.terms.items():
            if t is not None:
                ok = ok and in_gaps(hom(f, i, t.degree), b - a) and t.kind == rules[f, f, t.degree, i][0]
            slots[-1 if t is None else t.degree] = c
        if not ok:
            raise ValueError(f"the value at {v!r} is not in Hom(v, Sigma^{p} v)")
        coeffs[f, i, a, b] = (tuple(slots), slots)
    empty = ((), {})
    patterns: dict = {}

    def natural_at(v: tuple, w: tuple, degree: int) -> bool:
        f, i, a, b = v
        g, j, ta, tb = w
        sv, cv = coeffs.get(v, empty)
        sw, cw = coeffs.get(w, empty)
        key = (f, i, g, j, b - a, ta - a, tb - a, degree, sv, sw)
        rows = patterns.get(key)
        if rows is None:
            rows = patterns[key] = _row_pattern(rules, v, w, degree, shift_p[g, j], cv, cw)
        for s, t in rows:
            if (cv.get(s, 0) - cw.get(t, 0)) % char:
                return False
        return True

    def failure(kind: str, v: tuple, w: tuple, degree: int) -> tuple[bool, str]:
        gen = ArrowGen(kind, Vertex(*v), Vertex(*w), degree)
        return (False, f"naturality fails at {gen!r}")

    def inner(v: tuple) -> bool:
        return -Wi <= v[2] <= Wi and -Wi <= v[3] <= Wi

    inner_support = sorted(v for v in coeffs if inner(v))
    # arrows out of the support
    for v in inner_support:
        for kind, w, degree in arrow_keys_from(params, *v, Wi):
            if not natural_at(v, w, degree):
                return failure(kind, v, w, degree)
    # arrows into the support from off-support sources
    for w in inner_support:
        for kind, v, degree in arrow_keys_to(params, *w, Wi):
            if v not in coeffs and not natural_at(v, w, degree):
                return failure(kind, v, w, degree)
    # sign law on Sigma-pairs touching the support: Sigma keeps each
    # term's kind and degree, so eta at Sigma u and Sigma eta_u are
    # compared slot by slot
    checked = set()
    for v in sorted(coeffs):
        f, i, a, b = v
        j, da, db = sigma_shift(params, f, i, -1)
        for u in (v, (f, j, a + da, b + db)):
            if u in checked or not inner(u):
                continue
            checked.add(u)
            sj, s1, s2 = steps[u[0], u[1], 1]
            cu = coeffs.get(u, empty)[1]
            cs = coeffs.get((u[0], sj, u[2] + s1, u[3] + s2), empty)[1]
            if any((cs.get(s, 0) - sign * cu.get(s, 0)) % char for s in cu.keys() | cs.keys()):
                return (False, f"sign law fails at {Vertex(*u)!r}")
    return (True, None)
