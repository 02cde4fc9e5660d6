"""Arithmetic on gradedcenter.model.Morphism that only the tests and their
object oracles use, as plain functions: the identity, a generator as a
morphism, the zero test, scaling and sums.  The library itself builds a
Morphism only to hand out a center element's value, and reads none of
these.  basis_name names a basis arrow as the oracles order members, with
Sigma^p read from the oracle's own shift table."""

from gradedcenter.hom import basis_arrow
from gradedcenter.model import ArrowGen, Morphism, Vertex


def identity(v: Vertex) -> Morphism:
    return Morphism(v, v, {None: 1})


def of_gen(g: ArrowGen, coeff: int = 1) -> Morphism:
    return Morphism(g.source, g.target, {g: coeff} if coeff else {})


def is_zero(f: Morphism, char: int | None = None) -> bool:
    if char is None:
        return not any(f.terms.values())
    return all(c % char == 0 for c in f.terms.values())


def scaled(f: Morphism, c: int) -> Morphism:
    if c == 0:
        return Morphism.zero(f.source, f.target)
    return Morphism(f.source, f.target, {t: c * k for t, k in f.terms.items()})


def plus(f: Morphism, g: Morphism) -> Morphism:
    if (f.source, f.target) != (g.source, g.target):
        raise ValueError("cannot add morphisms with different endpoints")
    terms = dict(f.terms)
    for t, c in g.terms.items():
        c2 = terms.get(t, 0) + c
        if c2:
            terms[t] = c2
        else:
            terms.pop(t, None)
    return Morphism(f.source, f.target, terms)


def basis_name(rules: dict, shift_p: dict, key: tuple, slot: int) -> str:
    """str(hom.basis_arrow(...)) of the slot at the vertex key (family, i,
    a, b), its target moved by shift_p[family, i] = (j, da, db): "None"
    for the identity's slot -1."""
    f, i, a, b = key
    j, da, db = shift_p[f, i]
    return str(basis_arrow(rules, Vertex(*key), Vertex(f, j, a + da, b + db), slot))
