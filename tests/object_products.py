"""The object product that gradedcenter.center's multiply replaces, kept
unchanged as its differential oracle: each value of the left factor is
suspended with sigma_mor_pow and composed with the right factor's value
by compose."""

from gradedcenter.center import CenterElement
from gradedcenter.model import ModelParams, compose, sigma_mor_pow

from morphisms import is_zero


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
        if not is_zero(prod):
            assignment[v] = prod
    return CenterElement(p, a.variant, assignment)
