"""The object-based union-find solver that gradedcenter.center's
integer-coded solve_component replaces, kept unchanged as its
differential oracle: every vertex of the box pays for its Hom basis,
probed arrow by arrow (tests/probed_hom.py), and unknowns, rows and the
sign law are keyed by Vertex and ArrowGen values."""

from gradedcenter.center import (
    CenterElement,
    InconsistencyError,
    SolveReport,
    _class_tag as _tag,
    class_visibility_map,
    solver_margin,
)
from gradedcenter.gf import FieldScalar
from gradedcenter.model import (
    ArrowGen,
    ModelParams,
    Morphism,
    Vertex,
    arrow_of_degree,
    enumerate_vertices,
    sigma,
    sigma_pow,
    vertex_exists,
)
from morphisms import plus
from probed_hom import probed_hom
from vertex_build import _UnionFind


def _class_tag(params, p, v, beta):
    """The solver's class rule, read off a Vertex and its basis arrow."""
    return _tag(params, p, v.i, v.b - v.a, None if beta is None else beta.kind)


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
        hs = probed_hom(params, v, p)
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
            assignment[v] = term if mor is None else plus(mor, term)
        report.basis.append(CenterElement(p, variant, assignment))
    return report
