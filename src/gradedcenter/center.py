"""Candidate natural transformations Id -> Sigma^p: explicit generators,
membership checking, and a windowed solver for the graded and commutative
center components.

Solver design: every constraint row (naturality at one generator arrow,
or the sign law at one Sigma-pair) touches at most two unknowns, each
with coefficient +-1, because parallel basis elements have distinct
degrees.  The whole system is therefore a weighted union-find over
unknowns (vertex, basis element): rows merge two unknowns up to sign or
force one to zero; a forced x = -x kills the component unless the field
has characteristic 2.

solve_component works in two steps.  The build step (_build_system)
makes the union-find and keeps only what a report needs, as immutable
tuples: the Sigma^p translation table, the counts, and each component
that is not forced to zero and meets the inner window, in report order,
with its parity flag, its class tags and its inner members with their
coefficients.  It is cached by (omega, window, inner window, p, sign).
The field is not part of the key, because no row reads it: it decides
only whether a parity-flagged component survives.  The variant enters
only through the sign, -1 for the graded center at odd p, so the four
(variant, char) pairs of one degree need at most two systems.  The
interpret step runs on every call: it drops parity-flagged components
outside characteristic 2 and builds the report's objects afresh, so no
caller shares cached state.

The system is built on plain integers.  A vertex is the tuple (family,
i, a, b) and an unknown is a vertex plus a slot: -1 for the identity, or
the degree of the basis arrow, whose kind the two families fix.  Sigma
and Sigma^p are translations per (family, i) (model.sigma_shift, from
the step table of ModelParams), and arrows are tested by
model.arrow_kind.  Only vertices with a nonempty hom space are
enumerated: for each (family, i) and degree, model.hom_gaps turns the
arrow's region into one interval of gaps b - a.  The naturality rows at
a generator likewise depend on its source only through (family, i) and
b - a, so each pattern of rows is worked out once per gap.  Vertex,
ArrowGen and Morphism objects are built only for the components that
survive and meet the inner window.

Equations are imposed only where all referenced vertices lie inside the
outer window, and results are reported restricted to an inner window;
the margin between the two eats every coordinate shift a constraint can
perform, so inner-window output is stable under window growth (tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .gf import FieldScalar
from .model import (
    ArrowGen,
    ModelParams,
    Morphism,
    Vertex,
    arrow_kind,
    arrow_of_degree,
    arrows_from,
    arrows_to,
    compose,
    enumerate_vertices,  # unused here: the benchmark's tracer wraps it by name
    hom_gaps,
    sigma,
    sigma_cycle,
    sigma_mor_pow,
    sigma_pow,
    sigma_shift,
    vertex_exists,
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
            if r < n and not (r == 1 and m == 0):
                return (False, "eta_zero needs r = 1 and m = 0 when r < n")
            if r == n and n != 1:
                return (False, "eta_zero needs n = 1 when r = n")
        elif self.name == "eta_power":
            if r != n:
                return (False, "eta_power needs r = n")
        return (True, "")


@dataclass(frozen=True)
class CenterElement:
    """A finitely supported assignment v -> (morphism v -> Sigma^p v)."""

    p: int
    variant: str
    assignment: dict

    def __post_init__(self):
        if self.variant not in ("graded", "commutative"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.p < 0:
            raise ValueError("degree must be >= 0")

    def value_at(self, params: ModelParams, v: Vertex) -> Morphism:
        got = self.assignment.get(v)
        if got is not None:
            return got
        return Morphism.zero(v, sigma_pow(params, v, self.p))

    def is_zero(self, char: int | None = None) -> bool:
        return all(mor.is_zero(char) for mor in self.assignment.values())


def _solve_sigma_exponent(params: ModelParams, base: Vertex, v: Vertex) -> int:
    """The unique p with Sigma^p base = v; raises if there is none."""
    r = params.r
    steps = (v.i - base.i) % r
    w = sigma_pow(params, base, steps)
    cycle = sigma_cycle(params, v.family)[0]
    p = steps + (v.a - w.a) // cycle * r if cycle else steps
    if sigma_pow(params, base, p) != v:
        raise ValueError(f"{v!r} is not a Sigma-shift of {base!r}")
    return p


def _socle_gap(params: ModelParams, family: str, q: int, i: int) -> int:
    """b - a on the index-i vertices of the socle class (family, q): q,
    plus n at index 0 of Y, where the Y vertices start at gap n."""
    return q + (params.n if family == "Y" and i == 0 else 0)


def make_generator(params: ModelParams, spec: GeneratorSpec, window: int) -> CenterElement:
    ok, why = spec.admissible(params)
    if not ok:
        raise ValueError(f"inadmissible generator for (r,n,m)=({params.r},{params.n},{params.m}): {why}")
    r, n, m = params.r, params.n, params.m
    W = window
    p = spec.degree(params)
    assignment: dict = {}

    def in_box(*coords):
        return all(-W <= c <= W for c in coords)

    if spec.name in ("eta_prime", "eta_dprime"):
        q = spec.q
        base = Vertex("Y", 0, 0, n + q)
        for i in range(r):
            gap = _socle_gap(params, "Y", q, i)
            for a in range(-W, W + 1):
                b = a + gap
                if not in_box(b):
                    continue
                v = Vertex("Y", i, a, b)
                target = sigma_pow(params, v, n)
                gen = arrow_of_degree(params, v, target, 2)
                if gen is None:
                    raise InconsistencyError(f"missing e'' under {v!r}")
                if spec.name == "eta_prime":
                    exp = _solve_sigma_exponent(params, base, v)
                    coeff = -1 if (n * exp) % 2 else 1
                else:
                    coeff = 1
                assignment[v] = Morphism.of_gen(gen, coeff)
        variant = "graded" if spec.name == "eta_prime" else "commutative"
        return CenterElement(p, variant, assignment)

    if spec.name == "eta_zero":
        q = spec.q
        for a in range(-W, W + 1):
            b = a + q
            if not in_box(b):
                continue
            v = Vertex("X", 0, a, b)
            gen = arrow_of_degree(params, v, v, 2)
            if gen is None:
                raise InconsistencyError(f"missing e' self-arrow at {v!r}")
            assignment[v] = Morphism.of_gen(gen, 1)
        return CenterElement(0, "commutative", assignment)

    # eta_power(k)
    k = spec.q
    for i in range(r):
        d0m = m if i == 0 else 0
        for a in range(-W, W + 1):
            for b in range(-W, W + 1):
                if not vertex_exists(params, "X", i, (a, b)):
                    continue
                v = Vertex("X", i, a, b)
                if k == 0:
                    assignment[v] = Morphism.identity(v)
                    continue
                if k * (n + m) <= b + d0m - a:
                    target = sigma_pow(params, v, k * n)
                    gen = arrow_of_degree(params, v, target, 0)
                    if gen is None:
                        raise InconsistencyError(f"missing f' power arrow at {v!r}")
                    assignment[v] = Morphism.of_gen(gen, 1)
    return CenterElement(k * n, "commutative", assignment)


def membership_margin(params: ModelParams) -> int:
    return 1 + max(params.n, params.m)


def check_membership(
    params: ModelParams,
    el: CenterElement,
    window: int,
    inner_window: int,
    char: int = 3,
    variant: str | None = None,
) -> tuple[bool, str | None]:
    """Verify naturality and the sign law for el on the inner window.

    Naturality rows where neither endpoint carries support are 0 = 0 and
    are skipped; that restriction is exact, not an approximation.
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
    support = el.assignment

    def inner(v: Vertex) -> bool:
        return -Wi <= v.a <= Wi and -Wi <= v.b <= Wi

    def eta(v: Vertex) -> Morphism:
        return el.value_at(params, v)

    def natural_at(gen: ArrowGen) -> bool:
        phi = Morphism.of_gen(gen)
        lhs = compose(params, sigma_mor_pow(params, phi, p), eta(gen.source))
        rhs = compose(params, eta(gen.target), phi)
        return lhs.plus(rhs.scaled(-1)).is_zero(char)

    inner_support = sorted(v for v in support if inner(v))
    # arrows out of the support
    for v in inner_support:
        for gen in arrows_from(params, v, box=Wi):
            if not natural_at(gen):
                return (False, f"naturality fails at {gen!r}")
    # arrows into the support from off-support sources
    support_set = set(support)
    for w in inner_support:
        for gen in arrows_to(params, w, box=Wi):
            if gen.source in support_set:
                continue
            if not natural_at(gen):
                return (False, f"naturality fails at {gen!r}")
    # sign law on Sigma-pairs touching the support
    checked = set()
    for v in sorted(support):
        for u in (v, sigma_pow(params, v, -1)):
            if u in checked or not inner(u):
                continue
            checked.add(u)
            su = sigma(params, u)
            lhs = eta(su)
            rhs = sigma_mor_pow(params, eta(u), 1).scaled(sign)
            if not lhs.plus(rhs.scaled(-1)).is_zero(char):
                return (False, f"sign law fails at {u!r}")
    return (True, None)


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
    basis: list = dc_field(default_factory=list)
    # work counts, identical across runs: unknowns (vertex, basis element),
    # naturality and sign-law rows imposed, and the components the field
    # discards, for a forced zero or else for a parity conflict (x = -x
    # outside characteristic 2)
    unknowns: int = 0
    rows: int = 0
    killed_zero: int = 0
    killed_parity: int = 0

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


def _class_visibility(params: ModelParams, family: str, q: int, inner: int, guard: int) -> str:
    """'full' if every index of the class has support in the guarded box,
    'partial' if some index has support in the inner box, else 'none'."""

    def reachable(bound: int) -> tuple[bool, bool]:
        any_idx, all_idx = False, True
        for i in range(params.r):
            ok = bound >= 0 and _socle_gap(params, family, q, i) <= 2 * bound
            any_idx = any_idx or ok
            all_idx = all_idx and ok
        return any_idx, all_idx

    _, all_guarded = reachable(inner - guard)
    if all_guarded:
        return "full"
    any_inner, _ = reachable(inner)
    return "partial" if any_inner else "none"


def class_visibility_map(params: ModelParams, inner_window: int) -> dict:
    """Visibility of every socle class meeting the inner window."""
    guard = params.n + params.m + 2
    out = {}
    families = ["X"] + (["Y"] if params.r < params.n else [])
    for family in families:
        q = 0
        while True:
            vis = _class_visibility(params, family, q, inner_window, guard)
            if vis == "none":
                break
            out[(family, q)] = vis
            q += 1
    return out


def _row_pattern(rules: dict, v: tuple, w: tuple, degree: int, shift: tuple,
                 v_slots: dict, w_slots: dict) -> tuple:
    """Naturality at the generator v -> w of this degree, v and w as
    (family, i, a, b) and shift Sigma^p at w: one row per degree of the
    composite v -> Sigma^p w, as (slot of v, slot of w) with None where
    that side has no term; () if there is no such generator."""
    if arrow_kind(rules, *v, *w, degree) is None:
        return ()
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
    """One built system: what solve_component reads back for any field.

    shift_p maps (family, i) to Sigma^p as a translation (j, da, db).
    components holds, in report order, each component that is not forced
    to zero and meets the inner window, as (parity, tags, members):
    parity is set if the component forces x = -x, tags are its class
    tags sorted by str, and members are its unknowns in the inner window
    as ((family, i, a, b), slot, coefficient), in basis-element order."""

    shift_p: MappingProxyType
    unknowns: int
    rows: int
    killed_zero: int
    killed_parity: int
    components: tuple


# A window's degree sweep p = 0..2n needs one system per even p and two
# per odd p (sign +1 and -1): 3n + 1 in all, 13 on the acceptance GRID
# (n <= 4), so every (variant, char) pair of one window is served from
# the systems the first pair built.
@lru_cache(maxsize=13)
def _build_system(omega, W: int, inner: int, p: int, sign: int) -> _System:
    """Solve the union-find system of degree p on the window W, with the
    sign law Sigma eta = sign * eta Sigma, and keep what a report on the
    inner window needs.  The field is not an argument: the rows have
    coefficients +-1 whatever the characteristic, so only the reading of
    a parity conflict depends on it, and that is left to the caller."""
    params = ModelParams(omega, W)
    r, n = params.r, params.n
    rules = params.rules
    steps = params.sigma_steps

    # per (family, i): Sigma^p as a translation (j, da, db), and the least
    # b - a of a vertex, since vertex_exists depends on b - a alone and is
    # upward closed in it
    shift_p: dict = {}
    floor: dict = {}
    for f in params.families:
        for i in range(r):
            shift_p[f, i] = sigma_shift(params, f, i, p)
            floor[f, i] = next(
                (t for t in range(-2 * W, 2 * W + 1) if vertex_exists(params, f, i, (0, t))),
                2 * W + 1,
            )

    # unknowns: slots[(f, i, a, b)] maps each slot of Hom(v, Sigma^p v)
    # to its index; slot -1 is the identity, else the arrow's degree, as
    # the families fix the kind.  Only vertices with a nonempty hom space
    # are visited: per slot, its gaps b - a, then a and b in the box.
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
    n_rows = 0

    # The rows at a generator v -> w depend on v only through (f, i), the
    # place k of w in the list of targets and the gap b - a: the regions,
    # vertex_exists and so the slots of v and w are all unchanged when a
    # and b move together.  Each pattern is worked out once per key.
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
        for k, (g, j, ta, tb, degree) in enumerate(targets):
            if not (-W <= ta <= W and -W <= tb <= W) or tb - ta < floor[g, j]:
                continue
            bw = slots.get((g, j, ta, tb), {})
            pattern = patterns.get((f, i, k, b - a))
            if pattern is None:
                pattern = patterns[f, i, k, b - a] = _row_pattern(
                    rules, (f, i, a, b), (g, j, ta, tb), degree, shift_p[g, j], bv, bw)
            n_rows += len(pattern)
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
            n_rows += len(bv)

    # the members of each component not forced to zero
    members: dict[int, list[tuple]] = {}
    for key, bv in slots.items():
        for s, x in bv.items():
            root, w = uf.find(x)
            if not uf.zero[root]:
                members.setdefault(root, []).append((key, s, w))
    # Each one that meets the inner window becomes a basis element: its
    # class tags, and its inner members with their coefficients relative
    # to the member of least str(arrow), in the order the element lists
    # them.  Components are ordered by their least (vertex, str(arrow));
    # a Vertex orders as its key does.
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
    return _System(
        shift_p=MappingProxyType(shift_p),
        unknowns=count,
        rows=n_rows,
        killed_zero=sum(uf.zero[x] for x in roots),
        killed_parity=sum(uf.parity[x] and not uf.zero[x] for x in roots),
        components=tuple(c[1:] for c in components),
    )


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
    sign = -1 if (variant == "graded" and p % 2) else 1
    system = _build_system(params.omega, window, inner_window, p, sign)

    # interpret the components over the field: outside characteristic 2
    # a parity conflict x = -x forces the component to zero
    rules = params.rules
    shift_p = system.shift_p
    report = SolveReport(params, p, variant, field, window, inner_window)
    report.visibility = class_visibility_map(params, inner_window)
    report.unknowns = system.unknowns
    report.rows = system.rows
    report.killed_zero = system.killed_zero
    if field != 2:
        report.killed_parity = system.killed_parity
    for parity, tags, members in system.components:
        if parity and field != 2:
            continue
        if len(tags) != 1:
            report.residual.append(list(tags))
        else:
            tag = tags[0]
            if tag == "scalar":
                report.scalar_dim += 1
            elif tag == "power":
                report.power_dim += 1
            elif isinstance(tag, tuple) and tag[0] in ("X", "Y"):
                report.class_dims[tag] = report.class_dims.get(tag, 0) + 1
            else:
                report.residual.append([tag])
        assignment: dict = {}
        for key, s, coeff in members:
            v = Vertex(*key)
            beta = _basis_arrow(rules, shift_p, v, s)
            mor = assignment.get(v)
            # the identity occurs in degree 0 only, where Sigma^p v = v
            term = Morphism(v, v if beta is None else beta.target, {beta: coeff})
            assignment[v] = term if mor is None else mor.plus(term)
        report.basis.append(CenterElement(p, variant, assignment))
    return report


def multiply(params: ModelParams, a: CenterElement, b: CenterElement) -> CenterElement:
    """Pointwise product (a.b)_v = Sigma^{p_b}(a_v) o b_v."""
    p = a.p + b.p
    assignment: dict = {}
    for v, bv in b.assignment.items():
        av = a.assignment.get(v)
        if av is None:
            continue
        shifted = sigma_mor_pow(params, av, b.p)
        prod = compose(params, shifted, bv)
        if not prod.is_zero():
            assignment[v] = prod
    return CenterElement(p, a.variant, assignment)
