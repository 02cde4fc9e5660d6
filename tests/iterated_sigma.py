"""Suspension one step per unit of degree: the slow path that the closed
forms sigma_pow and sigma_mor_pow replace, kept as their differential
oracle."""

from gradedcenter.model import ArrowGen, Morphism, Vertex, sigma


def sigma_inv(params, v):
    j = (v.i - 1) % params.r
    _, s1, s2 = params.sigma_steps[v.family, j, 1]
    return Vertex(v.family, j, v.a - s1, v.b - s2)


def iterated_sigma_pow(params, v, p):
    step = sigma if p >= 0 else sigma_inv
    for _ in range(abs(p)):
        v = step(params, v)
    return v


def sigma_mor(params, f, step=sigma):
    """Sigma f (or Sigma^-1 f with step=sigma_inv), moving each term's
    endpoints separately."""
    terms = {}
    for t, c in f.terms.items():
        if t is not None:
            t = ArrowGen(t.kind, step(params, t.source), step(params, t.target), t.degree)
        terms[t] = terms.get(t, 0) + c
    return Morphism(step(params, f.source), step(params, f.target), terms)


def iterated_sigma_mor_pow(params, f, p):
    step = sigma if p >= 0 else sigma_inv
    for _ in range(abs(p)):
        f = sigma_mor(params, f, step)
    return f
