"""The object-based membership check that gradedcenter.center's
integer-coded check_membership replaces, kept unchanged as its
differential oracle: every naturality row composes, suspends and
subtracts Morphism values, and the sign law compares suspended
morphisms."""

from gradedcenter.center import CenterElement, membership_margin
from gradedcenter.gf import FieldScalar
from gradedcenter.model import (
    ArrowGen,
    ModelParams,
    Morphism,
    Vertex,
    arrows_from,
    arrows_to,
    compose,
    sigma,
    sigma_mor_pow,
    sigma_pow,
)

from morphisms import is_zero, of_gen, plus, scaled


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
        phi = of_gen(gen)
        lhs = compose(params, sigma_mor_pow(params, phi, p), eta(gen.source))
        rhs = compose(params, eta(gen.target), phi)
        return is_zero(plus(lhs, scaled(rhs, -1)), char)

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
            rhs = scaled(sigma_mor_pow(params, eta(u), 1), sign)
            if not is_zero(plus(lhs, scaled(rhs, -1)), char):
                return (False, f"sign law fails at {u!r}")
    return (True, None)
