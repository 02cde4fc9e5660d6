"""The box walk that gradedcenter.center's make_generator replaces, kept
unchanged as its differential oracle: eta_power tests every cell of the
box with vertex_exists and skips the cells below its support, every
generator finds its arrow with sigma_pow and arrow_of_degree, and
eta_prime finds its sign by solving Sigma^e(base) = v at every vertex."""

from gradedcenter.center import (
    CenterElement,
    GeneratorSpec,
    InconsistencyError,
    _socle_gap,
)
from gradedcenter.model import (
    ModelParams,
    Vertex,
    arrow_of_degree,
    sigma_pow,
    sigma_shift,
    vertex_exists,
)

from morphisms import identity, of_gen


def _solve_sigma_exponent(params: ModelParams, base: Vertex, v: Vertex) -> int:
    """The unique p with Sigma^p base = v; raises if there is none."""
    r = params.r
    steps = (v.i - base.i) % r
    w = sigma_pow(params, base, steps)
    cycle = sigma_shift(params, v.family, 0, r)[1]
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
                assignment[v] = of_gen(gen, coeff)
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
            assignment[v] = of_gen(gen, 1)
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
                    assignment[v] = identity(v)
                    continue
                if k * (n + m) <= b + d0m - a:
                    target = sigma_pow(params, v, k * n)
                    gen = arrow_of_degree(params, v, target, 0)
                    if gen is None:
                        raise InconsistencyError(f"missing f' power arrow at {v!r}")
                    assignment[v] = of_gen(gen, 1)
    return CenterElement(k * n, "commutative", assignment)
