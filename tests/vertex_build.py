"""The vertex-by-vertex system build that gradedcenter.center's
line-by-line _build_system replaces, kept as its differential oracle.

Every vertex with a nonempty hom space gets a dict of its unknowns, and
the rows at each vertex are imposed one union at a time on a union-find
object with union by rank.  The only change from the build it replaced
is that it counts naturality and sign-law rows apart, and also counts
vertices and merges, as the line build does, that it tests each target
for a generator itself, as _row_pattern no longer does, and that it also
counts the naturality rows at the generating targets alone: all of them
but the diagonal step (1, 1) and X's Sigma^r step, which are composites
of the others and which the line build leaves out."""

from typing import NamedTuple

from gradedcenter.center import InconsistencyError, _basis_arrow, _class_tag, _row_pattern
from gradedcenter.model import ModelParams, Vertex, arrow_kind, hom_gaps, least_gap, sigma_shift


class Built(NamedTuple):
    """What the vertex build gives: the Sigma^p table, the work counts of
    center._System, the naturality rows at the generating targets, and
    the named components in report order, with their members, as
    slot_map_membership.named_members gives center._named_components."""

    shift_p: dict
    unknowns: int
    vertices: int
    naturality_rows: int
    sign_rows: int
    merges: int
    killed_zero: int
    killed_parity: int
    generating_rows: int
    components: tuple

    @property
    def rows(self) -> int:
        return self.naturality_rows + self.sign_rows


class _UnionFind:
    """Union-find with +-1 edge weights plus zero/parity flags per root."""

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.weight = [1] * size
        self.rank = [0] * size
        self.zero = [False] * size
        self.parity = [False] * size

    def find(self, x: int) -> tuple[int, int]:
        if self.parent[x] == x:
            return x, 1
        path = []
        while self.parent[x] != x:
            path.append(x)
            x = self.parent[x]
        w = 1
        for y in reversed(path):
            w *= self.weight[y]
            self.parent[y] = x
            self.weight[y] = w
        return x, self.weight[path[0]]

    def union(self, x: int, y: int, s: int):
        """Impose x = s * y."""
        rx, wx = self.find(x)
        ry, wy = self.find(y)
        if rx == ry:
            if wx != s * wy:
                self.parity[rx] = True
            return
        # x = wx rx, y = wy ry  =>  rx = (wx * s * wy) ry
        w = wx * s * wy
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
            # rx = w ry  <=>  ry = w rx (weights are involutive)
        self.parent[ry] = rx
        self.weight[ry] = w
        self.zero[rx] = self.zero[rx] or self.zero[ry]
        self.parity[rx] = self.parity[rx] or self.parity[ry]
        if self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1

    def set_zero(self, x: int):
        root, _ = self.find(x)
        self.zero[root] = True


def build_system(omega, W: int, inner: int, p: int, sign: int) -> Built:
    """center._build_system, one vertex at a time and uncached, with its
    components named as center._named_components names them."""
    params = ModelParams(omega, W)
    r, n = params.r, params.n
    rules = params.rules
    steps = params.sigma_steps

    shift_p: dict = {}
    floor: dict = {}
    for f in params.families:
        for i in range(r):
            shift_p[f, i] = sigma_shift(params, f, i, p)
            lo = least_gap(params, f, i)
            floor[f, i] = -2 * W if lo is None else lo

    # unknowns: slots[(f, i, a, b)] maps each slot of Hom(v, Sigma^p v)
    # to its index
    slots: dict = {}
    count = 0
    for (f, i), shift in shift_p.items():
        for d in (-1, 0, 1, 2):
            if d < 0:
                gaps = (None, None) if p == 0 else None
            else:
                gaps = hom_gaps(params, f, i, d, shift)
            if gaps is None:
                continue
            lo = floor[f, i] if gaps[0] is None else max(gaps[0], floor[f, i])
            hi = 2 * W if gaps[1] is None else gaps[1]
            for a in range(-W, W + 1):
                for b in range(max(-W, a + lo), min(W, a + hi) + 1):
                    got = slots.get((f, i, a, b))
                    if got is None:
                        got = slots[f, i, a, b] = {}
                    got[d] = count
                    count += 1
    uf = _UnionFind(count)
    naturality_rows = sign_rows = generating_rows = 0

    patterns: dict = {}
    for (f, i, a, b), bv in slots.items():
        d0 = 1 if i == 0 else 0
        targets = [(f, i, a, b + 1, 0), (f, i, a + 1, b, 0), (f, i, a + 1, b + 1, 0)]
        if f == "X":
            _, c1, c2 = steps[f, i, r]
            targets.append((f, i, a + c1, b + c2, 0))
            targets.append((f, (i + 1) % r, a, a, 2))
            if r < n:
                targets.append(("Z", i, a, b, 1))
        elif f == "Y":
            targets.append(("Z", i, a, b - d0 * n, 1))
        # the places in targets of the composites (1, 1) and Sigma^r
        composite = (2, 3) if f == "X" else (2,)
        for k, (g, j, ta, tb, degree) in enumerate(targets):
            if not (-W <= ta <= W and -W <= tb <= W) or tb - ta < floor[g, j]:
                continue
            bw = slots.get((g, j, ta, tb), {})
            pattern = patterns.get((f, i, k, b - a))
            if pattern is None:
                v, w = (f, i, a, b), (g, j, ta, tb)
                pattern = patterns[f, i, k, b - a] = (
                    () if arrow_kind(rules, *v, *w, degree) is None
                    else _row_pattern(rules, v, w, degree, shift_p[g, j], bv, bw))
            naturality_rows += len(pattern)
            if k not in composite:
                generating_rows += len(pattern)
            for left, right in pattern:
                if left is not None and right is not None:
                    uf.union(bv[left], bw[right], 1)
                elif left is not None:
                    uf.set_zero(bv[left])
                else:
                    uf.set_zero(bw[right])
        # sign law v -> Sigma v: Sigma beta starts at Sigma v, same degree
        sj, s1, s2 = steps[f, i, 1]
        sa, sb = a + s1, b + s2
        if -W <= sa <= W and -W <= sb <= W:
            other = slots.get((f, sj, sa, sb), {})
            for s, x in bv.items():
                y = other.get(s)
                if y is None:
                    raise InconsistencyError(
                        f"suspension of unknown left the system at {Vertex(f, i, a, b)!r}")
                uf.union(y, x, sign)
            sign_rows += len(bv)

    members: dict[int, list[tuple]] = {}
    for key, bv in slots.items():
        for s, x in bv.items():
            root, w = uf.find(x)
            if not uf.zero[root]:
                members.setdefault(root, []).append((key, s, w))
    components = []
    for root, mems in members.items():
        named = [
            (key, s, w, str(_basis_arrow(rules, shift_p, Vertex(*key), s)))
            for key, s, w in mems
            if -inner <= key[2] <= inner and -inner <= key[3] <= inner
        ]
        if not named:
            continue
        least = min(key for key, _, _ in mems)
        head = min(
            (key, str(_basis_arrow(rules, shift_p, Vertex(*key), s)))
            for key, s, _ in mems
            if key == least
        )
        tags = {
            _class_tag(params, p, i, b - a, None if s < 0 else rules[f, f, s, i][0])
            for (f, i, a, b), s, _ in mems
        }
        ref_w = min((name, key, w) for key, _, w, name in named)[2]
        named.sort(key=lambda t: (t[0], t[3]))
        basis = tuple((key, s, w * ref_w) for key, s, w, _ in named)
        components.append((head, uf.parity[root], tuple(sorted(tags, key=str)), basis))
    components.sort(key=lambda c: c[0])
    roots = [x for x in range(count) if uf.parent[x] == x]
    return Built(
        shift_p=shift_p,
        unknowns=count,
        vertices=len(slots),
        naturality_rows=naturality_rows,
        sign_rows=sign_rows,
        merges=count - len(roots),
        killed_zero=sum(uf.zero[x] for x in roots),
        killed_parity=sum(uf.parity[x] and not uf.zero[x] for x in roots),
        generating_rows=generating_rows,
        components=tuple(c[1:] for c in components),
    )
