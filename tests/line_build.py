"""The line-by-line system build that gradedcenter.center's _build_system
replaces, kept as its differential oracle.  The function is the one it
replaced, unchanged but for its name, the cache and its return, the one
system that _build_system returns, with its readings counted by the loop
they replaced (tests/class_readings.py): it tests the arrow at each target and
works out each row pattern once per line and target with the cell rule
_row_pattern (tests/row_pattern.py), where _build_system reads each
line's plan from the pieces of gaps of its (family, i), which hold for
every window (center._plan_pieces).  It builds on the signed forest
that center's _SignedForest replaced (tests/signed_forest_before.py),
which carries every sign at every degree and visits every position of a
range, and imposes the rows in the same order, so root and sign come out
identical, not just equivalent."""

from itertools import compress

from gradedcenter.center import InconsistencyError, _class_tag, _System, _targets
from gradedcenter.hom import frame, in_gaps
from gradedcenter.model import ModelParams, Vertex, arrow_kind

from class_readings import readings
from row_pattern import _row_pattern
from signed_forest_before import _SignedForest


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
    rules = params.rules
    steps = params.sigma_steps

    # per (family, i): Sigma^p as a translation (j, da, db), the slots of
    # Hom(v, Sigma^p v) with their gaps, and the gaps of a vertex
    shift_p, gaps, vertex_gaps = frame(omega, p)

    # The line (f, i, t) is the diagonal of vertices (f, i, a, a + t) in
    # the box, a from -W - min(t, 0) to W - max(t, 0), none if |t| > 2W.
    # Hom(v, Sigma^p v) depends on the gap t alone, so each slot of it
    # (-1 for the identity, else the arrow's degree) gets one block of
    # unknowns along the line: lines[f, i, t] maps the slot to the index
    # of the unknown at the least a, and the unknown at a is that index
    # plus a less the least a.  Only lines with a nonempty hom space are
    # laid out: per slot, its gaps b - a that a vertex of the box has.
    lines: dict = {}
    count = vertices = 0
    for (f, i, d), (lo, hi) in gaps.items():
        lo = max(x for x in (lo, vertex_gaps[f, i][0], -2 * W) if x is not None)
        hi = 2 * W if hi is None else min(hi, 2 * W)
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
            if not in_gaps(vertex_gaps.get((g, j)), u):
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
        root=tuple(root),
        sign=tuple(signs),
    )
