"""Whether the rows that center.check_membership tests imply every row
that the full arrow walk (arrow_walk_membership) tests.

On the inner box [-Wi, Wi]^2 the unknowns are (vertex, slot), one per
slot of Hom(v, Sigma^p v) as in the solver.  The generating rows are the
naturality rows at the generating arrows out of each vertex
(ModelParams.generators)
with both ends in the box and a target that exists; the sign-law rows
tie every slot at each vertex u of the box to the same slot at Sigma u.
Every row has two unknowns with coefficients +-1, or one, so a signed
union-find over the unknowns decides what the rows imply over F_p: an
equation x = y holds on every solution iff both sides are forced to
zero, or they lie in one component with the same sign (any sign over
F_2).  A component is forced to zero by a row x = 0, or outside
characteristic 2 by a conflict x = -x.
"""

from gradedcenter.hom import in_gaps
from gradedcenter.model import ModelParams, arrow_keys_from, arrow_kind, hom_gaps, least_gap, sigma_shift

from row_pattern import _row_pattern


def unimplied_rows(params: ModelParams, Wi: int, p: int, sign: int, sign_law: bool = True) -> dict:
    """{char: the rows of arrow_keys_from on the box that the generating
    rows, with the sign-law rows unless sign_law is False, do not imply
    over F_char}, for char 2 and 3, each row as (v, w, degree, slot of v,
    slot of w)."""
    rules, steps = params.rules, params.sigma_steps
    keys = [(f, i) for f in params.families for i in range(params.r)]
    shift_p = {key: sigma_shift(params, *key, p) for key in keys}
    floor = {key: least_gap(params, *key) for key in keys}
    hom = {
        (f, i, d): hom_gaps(params, f, i, d, shift_p[f, i]) for f, i in keys for d in (0, 1, 2)
    }

    def slots(v: tuple) -> tuple:
        f, i, a, b = v
        own = (-1,) if p == 0 else ()
        return own + tuple(d for d in (0, 1, 2) if in_gaps(hom[f, i, d], b - a))

    def exists(v: tuple) -> bool:
        key = v[:2]
        return key in floor and (floor[key] is None or v[3] - v[2] >= floor[key])

    def inner(v: tuple) -> bool:
        return -Wi <= v[2] <= Wi and -Wi <= v[3] <= Wi

    box = [(f, i, a, b) for f, i in keys for a in range(-Wi, Wi + 1) for b in range(-Wi, Wi + 1)]
    box = [v for v in box if exists(v)]

    parent: dict = {}
    weight: dict = {}
    zero: set = set()
    odd: set = set()

    def find(x):
        w = 1
        while parent.setdefault(x, x) != x:
            w *= weight[x]
            x = parent[x]
        return x, w

    def unite(x, y, s: int) -> None:
        """x = s * y, or x = 0 where y is None."""
        rx, wx = find(x)
        if y is None:
            zero.add(rx)
            return
        ry, wy = find(y)
        if rx != ry:
            parent[ry], weight[ry] = rx, wx * s * wy
        elif wx != s * wy:
            odd.add(rx)

    for v in box:
        f, i, a, b = v
        for g, j, da, db, degree, along in params.generators[f, i]:
            w = (g, j, a + da, (b if along else a) + db)
            if exists(w) and inner(w) and arrow_kind(rules, *v, *w, degree) is not None:
                for s, t in _row_pattern(rules, v, w, degree, shift_p[g, j], slots(v), slots(w)):
                    if s is None:
                        unite((w, t), None, 1)
                    else:
                        unite((v, s), None if t is None else (w, t), 1)
        if sign_law:
            j, s1, s2 = steps[f, i, 1]
            su = (f, j, a + s1, b + s2)
            for s in set(slots(v)) | set(slots(su)):
                unite((su, s), (v, s), sign)

    roots = {x: find(x) for x in list(parent)}
    zero = {find(x)[0] for x in zero}
    odd = {find(x)[0] for x in odd}
    full = [
        (v, w, degree, s, t)
        for v in box
        for _kind, w, degree in arrow_keys_from(params, *v, Wi)
        for s, t in _row_pattern(rules, v, w, degree, shift_p[w[:2]], slots(v), slots(w))
    ]
    out = {}
    for char in (2, 3):
        dead = zero | (odd if char != 2 else set())

        def value(v: tuple, s: int | None):
            """(root, sign) of the unknown (v, s), None if it is forced to
            0 or s is None."""
            if s is None:
                return None
            root, w = roots.get((v, s), ((v, s), 1))
            return None if root in dead else (root, 1 if char == 2 else w)

        out[char] = [row for row in full if value(row[0], row[3]) != value(row[1], row[4])]
    return out
