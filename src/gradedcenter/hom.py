"""Morphism spaces Hom(v, Sigma^p v): basis enumeration against the arrow
model, and the closed-form dimension formulas as an independent oracle.

The closed forms never consult the arrow model; rational inequalities are
evaluated by integer cross-multiplication, so everything stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ModelParams, Vertex, arrow_of_degree, sigma_pow, vertex_exists


@dataclass(frozen=True)
class HomSpace:
    source: Vertex
    p: int
    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)


def hom_basis(params: ModelParams, v: Vertex, p: int) -> HomSpace:
    """Basis of Hom(v, Sigma^p v): the generator arrows v -> Sigma^p v,
    preceded by the identity when p = 0.  None is the identity marker."""
    w = sigma_pow(params, v, p)
    basis: list = [None] if p == 0 else []
    for degree in (0, 1, 2):
        g = arrow_of_degree(params, v, w, degree)
        if g is not None:
            basis.append(g)
    return HomSpace(v, p, tuple(basis))


def hom_dim_closed_form(params: ModelParams, v: Vertex, p: int) -> int:
    """Case formulas for dim Hom(v, Sigma^p v), p >= 0."""
    if p < 0:
        raise ValueError("closed forms are stated for p >= 0 only")
    if not vertex_exists(params, v.family, v.i, (v.a, v.b)):
        raise ValueError(f"vertex {v!r} does not exist")
    r, n, m = params.r, params.n, params.m
    a, b = v.a, v.b
    if v.family == "Z":
        return 1 if p == 0 else 0
    if v.family == "X":
        d0m = m if v.i == 0 else 0
        if p == 0:
            return 2 if r == 1 and a <= b else 1
        # r | p and p/r <= (b + d_{i,0} m - a) / (r + m)
        if p % r == 0 and p * (r + m) <= r * (b + d0m - a):
            return 1
        return 0
    if v.family == "Y":
        d0n = n if v.i == 0 else 0
        if p == 0:
            return 1
        # r | p - 1 and 1/(n-r) <= (p-1)/r <= (b + 1 - a - d_{i,0} n)/(n - r)
        if (p - 1) % r == 0:
            lhs_ok = r <= (p - 1) * (n - r)
            rhs_ok = (p - 1) * (n - r) <= r * (b + 1 - a - d0n)
            if lhs_ok and rhs_ok:
                return 1
        return 0
    raise ValueError(f"unknown family {v.family!r}")
