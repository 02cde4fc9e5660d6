"""Naturality at one generating arrow, cell by cell: the row rule that
gradedcenter.center's plans (_plan_pieces) replaced, kept unchanged as the
oracle of the per-cell and per-line builds and membership checks in
tests/.  The plans give the same rows, in the same order, for every slot
a line and its target hold, from intervals of gaps; check_membership
counts those of them that touch a slot the element fills, which are this
rule's rows on the element's slots."""

from gradedcenter.model import arrow_kind


def _row_pattern(rules: dict, v: tuple, w: tuple, degree: int, shift: tuple,
                 v_slots: dict, w_slots: dict) -> tuple:
    """Naturality at the generator v -> w of this degree, v and w as
    (family, i, a, b) and shift Sigma^p at w: one row per degree of the
    composite v -> Sigma^p w, as (slot of v, slot of w) with None where
    that side has no term.  v -> w must be a generator: each caller tests
    it with arrow_kind first, and passes the slots it holds at v and w."""
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
