"""The path-halving signed union-find build that gradedcenter.center's flat
_build_system replaces, kept as its differential oracle.  The function
is the one it replaced, unchanged but for its name, the cache and its
return, the one system that _build_system returns, with its readings
counted by the loop they replaced (tests/class_readings.py): every row
walks both of its unknowns up to their roots, halving the paths, and a
last pass hangs every unknown on its root."""

from itertools import compress

from gradedcenter.center import InconsistencyError, _class_tag, _System
from gradedcenter.model import ModelParams, Vertex, arrow_kind, hom_gaps, least_gap, sigma_shift

from class_readings import readings
from row_pattern import _row_pattern


def build_system(omega, W: int, inner: int, p: int) -> _System:
    """Solve the union-find system of degree p on the window W, with the
    graded sign law eta Sigma = (-1)^p Sigma eta, and keep what a report
    on the inner window needs.  Every naturality row has weight +1 and
    only the sign-law rows carry (-1)^p, which never decides whether a
    row merges two components, so the report reads the commutative law
    from this system too.

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
    # the box, a from start(t) to stop(t), none if |t| > 2W.  Hom(v,
    # Sigma^p v) depends on the gap t alone, so each slot of it (-1 for
    # the identity, else the arrow's degree) gets one block of unknowns
    # along the line: lines[f, i, t] maps the slot to the index of the
    # unknown at a = start(t), and the unknown at a is that index
    # + a - start(t).  Only lines with a nonempty hom space are laid out:
    # per slot, its gaps b - a (model.hom_gaps).
    def start(t: int) -> int:
        return -W - t if t < 0 else -W

    def stop(t: int) -> int:
        return W if t < 0 else W - t

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

    # A signed union-find on the unknowns: x = weight[x] * parent[x].
    # The zero and parity marks sit on any member of a component and are
    # gathered at the roots at the end.
    parent = list(range(count))
    weight = [1] * count
    zero = [False] * count
    parity = [False] * count

    def find(x: int) -> tuple[int, int]:
        """The root of x and the sign of x relative to it.  Each step
        hangs x on its grandparent (path halving); a root's weight is 1,
        so the step is also right when the parent is the root."""
        w = 1
        up = parent[x]
        while up != x:
            wx = weight[x] = weight[x] * weight[up]
            parent[x] = up = parent[up]
            w *= wx
            x = up
            up = parent[x]
        return x, w

    def unite(x0: int, y0: int, length: int, s: int) -> int:
        """Impose x = s * y along the aligned ranges from x0 and y0, and
        return the number of merges; the loop runs find on x and on y
        inline."""
        merged = 0
        for x, y in zip(range(x0, x0 + length), range(y0, y0 + length)):
            wx = 1
            up = parent[x]
            while up != x:
                w = weight[x] = weight[x] * weight[up]
                parent[x] = up = parent[up]
                wx *= w
                x = up
                up = parent[x]
            wy = 1
            up = parent[y]
            while up != y:
                w = weight[y] = weight[y] * weight[up]
                parent[y] = up = parent[up]
                wy *= w
                y = up
                up = parent[y]
            if x != y:
                parent[y] = x
                weight[y] = wx * s * wy
                merged += 1
            elif wx != s * wy:
                parity[x] = True
        return merged

    # The rows at a generator v -> w depend on v only through (f, i), the
    # place k of w in the list of targets and the gap t: the regions,
    # vertex_exists and so the slots of v and w are all unchanged when a
    # and b move together.  So each pattern is worked out once per line
    # and target, and each of its rows is imposed on every a at once: the
    # a where v and w both lie in the box, an interval.
    targets = params.generators
    naturality_rows = sign_rows = merges = 0
    for (f, i, t), bv in lines.items():
        a0, a1 = start(t), stop(t)
        for g, j, da, db, degree, along in targets[f, i]:
            u = (t if along else 0) + db - da
            if u < floor[g, j]:
                continue
            lo, hi = max(a0, start(u) - da), min(a1, stop(u) - da)
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
                    y0 = bw[right] + lo + da - start(u)
                if left is None:
                    zero[y0:y0 + length] = [True] * length
                elif right is None:
                    zero[x0:x0 + length] = [True] * length
                else:
                    merges += unite(x0, y0, length, 1)
        # sign law v -> Sigma v: Sigma beta starts at Sigma v, same degree
        sj, s1, s2 = steps[f, i, 1]
        u = t + s2 - s1
        lo, hi = max(a0, start(u) - s1), min(a1, stop(u) - s1)
        if lo <= hi:
            other = lines.get((f, sj, u), {})
            for s, x in bv.items():
                y = other.get(s)
                if y is None:
                    raise InconsistencyError(
                        f"suspension of unknown left the system at {Vertex(f, i, lo, lo + t)!r}")
                merges += unite(y + lo + s1 - start(u), x + lo - a0, hi - lo + 1, sign)
            sign_rows += len(bv) * (hi - lo + 1)

    # hang every unknown on its root, so that parent and weight give its
    # root and its sign (a root, or a child of one, hangs already), and
    # gather the marks at the roots
    for x in range(count):
        if parent[parent[x]] != parent[x]:
            parent[x], weight[x] = find(x)
    dead = set(compress(parent, zero))
    odd = set(compress(parent, parity))

    # The components that meet the inner window, read off each block's
    # slice in the inner box (the a from max(-inner, -inner - t) to
    # min(inner, inner - t)), less those forced to zero; then the class
    # tags of each, one per block that holds a member.
    meets: set = set()
    for (f, i, t), bv in lines.items():
        k0 = max(-inner, -inner - t) - start(t)
        k1 = min(inner, inner - t) - start(t) + 1
        if k0 < k1:
            for x0 in bv.values():
                meets.update(parent[x0 + k0:x0 + k1])
    meets -= dead
    tags: dict = {x: set() for x in meets}
    for (f, i, t), bv in lines.items():
        length = 2 * W + 1 - abs(t)
        for s, x0 in bv.items():
            roots = meets.intersection(parent[x0:x0 + length])
            if roots:
                tag = _class_tag(params, p, i, t, None if s < 0 else rules[f, f, s, i][0])
                for x in roots:
                    tags[x].add(tag)
    classes = tuple((x, x in odd, tuple(sorted(tags[x], key=str))) for x in sorted(meets))
    return _System(
        unknowns=count,
        vertices=vertices,
        naturality_rows=naturality_rows,
        sign_rows=sign_rows,
        merges=merges,
        killed_zero=len(dead),
        killed_parity=len(odd - dead),
        classes=classes,
        readings=readings(classes, len(odd - dead)),
        lines=tuple((key, tuple(bv.items())) for key, bv in lines.items()),
        root=tuple(parent),
        sign=tuple(weight),
    )
