"""Candidate natural transformations Id -> Sigma^p: explicit generators,
membership checking, and a windowed solver for the graded and commutative
center components.

Solver design: every constraint row (naturality at one generator arrow,
or the sign law at one Sigma-pair) touches at most two unknowns, each
with coefficient +-1, because parallel basis elements have distinct
degrees.  The whole system is therefore a weighted union-find over
unknowns (vertex, basis element): rows merge two unknowns up to sign or
force one to zero; a forced x = -x kills the component unless the field
has characteristic 2.  Components are interpreted per field at the end.

Equations are imposed only where all referenced vertices lie inside the
outer window, and results are reported restricted to an inner window;
the margin between the two eats every coordinate shift a constraint can
perform, so inner-window output is stable under window growth (tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .gf import FieldScalar
from .model import (
    ArrowGen,
    ModelParams,
    Morphism,
    Vertex,
    arrow_of_degree,
    arrows_from,
    arrows_to,
    compose,
    enumerate_vertices,
    sigma,
    sigma_cycle,
    sigma_mor_pow,
    sigma_pow,
    vertex_exists,
)
from .hom import hom_basis


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
            gap = q + (n if i == 0 else 0)
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
        path = []
        while self.parent[x] != x:
            path.append(x)
            x = self.parent[x]
        w = 1
        for y in reversed(path):
            w *= self.weight[y]
            self.parent[y] = x
            self.weight[y] = w
        return x, self.weight[path[0]] if path else 1

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


def _class_tag(params: ModelParams, p: int, v: Vertex, beta) -> object:
    if beta is None:
        return "scalar"
    if beta.kind == "f'":
        return "power" if p > 0 else ("X", v.b - v.a)
    if beta.kind == "e'":
        return ("X", v.b - v.a)
    if beta.kind == "e''":
        return ("Y", v.b - v.a - (params.n if v.i == 0 else 0))
    return ("other", beta.kind)


def _class_visibility(params: ModelParams, family: str, q: int, inner: int, guard: int) -> str:
    """'full' if every index of the class has support in the guarded box,
    'partial' if some index has support in the inner box, else 'none'."""

    def reachable(bound: int) -> tuple[bool, bool]:
        any_idx, all_idx = False, True
        for i in range(params.r):
            gap = q + ((params.n if family == "Y" else 0) if i == 0 else 0)
            ok = bound >= 0 and gap <= 2 * bound
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
    W = window
    box_params = ModelParams(params.omega, W)
    r, n, m = params.r, params.n, params.m

    # unknowns: (vertex, basis element) with nonzero hom space
    vertices = enumerate_vertices(box_params)
    basis_of: dict[Vertex, tuple] = {}
    unknown_index: dict[tuple, int] = {}
    order: list[tuple] = []
    sigma_p: dict[Vertex, Vertex] = {}
    for v in vertices:
        hs = hom_basis(params, v, p)
        if hs.basis:
            basis_of[v] = hs.basis
            sigma_p[v] = sigma_pow(params, v, p)
            for beta in hs.basis:
                unknown_index[(v, beta)] = len(order)
                order.append((v, beta))
    uf = _UnionFind(len(order))

    def in_box(a: int, b: int) -> bool:
        return -W <= a <= W and -W <= b <= W

    def target_sigma_p(w: Vertex) -> Vertex:
        got = sigma_p.get(w)
        if got is None:
            got = sigma_pow(params, w, p)
            sigma_p[w] = got
        return got

    def impose(gen: ArrowGen):
        """Naturality row(s) for one generator arrow."""
        v, w = gen.source, gen.target
        bv = basis_of.get(v, ())
        bw = basis_of.get(w, ())
        if not bv and not bw:
            return
        spw = target_sigma_p(w)
        rows: dict = {}
        for beta in bv:
            d = gen.degree if beta is None else beta.degree + gen.degree
            gamma = gen if beta is None else arrow_of_degree(params, v, spw, d)
            if gamma is not None:
                rows[gamma] = [unknown_index[(v, beta)], None]
        for alpha in bw:
            d = gen.degree if alpha is None else gen.degree + alpha.degree
            gamma = gen if alpha is None else arrow_of_degree(params, v, spw, d)
            if gamma is None:
                continue
            if gamma in rows:
                rows[gamma][1] = unknown_index[(w, alpha)]
            else:
                rows[gamma] = [None, unknown_index[(w, alpha)]]
        for left, right in rows.values():
            if left is not None and right is not None:
                uf.union(left, right, 1)
            elif left is not None:
                uf.set_zero(left)
            else:
                uf.set_zero(right)

    sign = -1 if (variant == "graded" and p % 2) else 1
    for v in basis_of:
        a, b, i = v.a, v.b, v.i
        d0 = 1 if i == 0 else 0
        targets: list[tuple[Vertex, int]] = []
        if v.family == "X":
            for (ta, tb) in [(a, b + 1), (a + 1, b), (a + 1, b + 1)]:
                targets.append((Vertex("X", i, ta, tb), 0))
            cyc = sigma_pow(params, v, r)
            targets.append((cyc, 0))
            targets.append((Vertex("X", (i + 1) % r, a, a), 2))
            if r < n:
                targets.append((Vertex("Z", i, a, b), 1))
        elif v.family == "Y":
            for (ta, tb) in [(a, b + 1), (a + 1, b), (a + 1, b + 1)]:
                targets.append((Vertex("Y", i, ta, tb), 0))
            targets.append((Vertex("Z", i, a, b - d0 * n), 1))
        else:  # Z
            for (ta, tb) in [(a, b + 1), (a + 1, b), (a + 1, b + 1)]:
                targets.append((Vertex("Z", i, ta, tb), 0))
        for w, degree in targets:
            if not in_box(w.a, w.b):
                continue
            if not vertex_exists(params, w.family, w.i, (w.a, w.b)):
                continue
            gen = arrow_of_degree(params, v, w, degree)
            if gen is not None:
                impose(gen)
        # sign law v -> Sigma v
        sv = sigma(params, v)
        if in_box(sv.a, sv.b):
            for beta in basis_of[v]:
                # beta runs v -> Sigma^p v, so Sigma beta starts at sv
                sbeta = None if beta is None else (
                    ArrowGen(beta.kind, sv, sigma(params, beta.target), beta.degree))
                other = unknown_index.get((sv, sbeta))
                if other is None:
                    raise InconsistencyError(f"suspension of unknown left the system at {v!r}")
                uf.union(other, unknown_index[(v, beta)], sign)

    # interpret components over the field
    members: dict[int, list[tuple]] = {}
    for idx, (v, beta) in enumerate(order):
        root, w = uf.find(idx)
        if uf.zero[root] or (uf.parity[root] and field != 2):
            continue
        members.setdefault(root, []).append((v, beta, w))

    Wi = inner_window
    report = SolveReport(params, p, variant, field, window, inner_window)
    report.visibility = class_visibility_map(params, Wi)
    comps = []
    for root, mems in members.items():
        inner_mems = [t for t in mems if -Wi <= t[0].a <= Wi and -Wi <= t[0].b <= Wi]
        if not inner_mems:
            continue
        comps.append((min((v, str(beta)) for v, beta, _ in mems), mems, inner_mems))
    comps.sort(key=lambda c: c[0])
    for _, mems, inner_mems in comps:
        tags = {_class_tag(params, p, v, beta) for v, beta, _ in mems}
        if len(tags) != 1:
            report.residual.append(sorted(tags, key=str))
        else:
            tag = next(iter(tags))
            if tag == "scalar":
                report.scalar_dim += 1
            elif tag == "power":
                report.power_dim += 1
            elif isinstance(tag, tuple) and tag[0] in ("X", "Y"):
                report.class_dims[tag] = report.class_dims.get(tag, 0) + 1
            else:
                report.residual.append([tag])
        ref_w = min((str(b), v, wgt) for v, b, wgt in inner_mems)[2]
        assignment: dict = {}
        for v, beta, wgt in sorted(inner_mems, key=lambda t: (t[0], str(t[1]))):
            coeff = wgt * ref_w
            mor = assignment.get(v)
            term = Morphism(v, sigma_p[v], {beta: coeff})
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
