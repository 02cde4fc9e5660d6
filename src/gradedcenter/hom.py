"""Morphism spaces Hom(v, Sigma^p v): the per-degree table (frame) that is
the library's one statement of them, which hom_basis and the center both
read, and the closed-form dimension formulas as an independent oracle.

The closed forms never consult the arrow model; rational inequalities are
evaluated by integer cross-multiplication, so everything stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .model import ArrowGen, ModelParams, Vertex, hom_gaps, least_gap, sigma_pow, sigma_shift, vertex_exists


@dataclass(frozen=True)
class HomSpace:
    source: Vertex
    p: int
    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)


def in_gaps(gaps: tuple | None, t: int) -> bool:
    """Whether the gap t lies in gaps, an interval of a frame."""
    return gaps is not None and (gaps[0] is None or gaps[0] <= t) and (gaps[1] is None or t <= gaps[1])


# Shared like model._tables: never mutated.
@lru_cache(maxsize=128)
def frame(omega, p: int) -> tuple[dict, dict, dict]:
    """What a degree-p element may hold at each (family, i) of omega, as
    three tables: Sigma^p as a translation (j, da, db) (model.sigma_shift);
    {(family, i, slot): (lo, hi)}, the interval of gaps b - a of each
    slot with a nonempty one (model.hom_gaps; None for an unbounded end),
    the identity's slot -1 in degree 0 only, at every gap; and the gaps of
    a vertex, (least gap, None) (model.least_gap; None on Z, where every
    gap is one).  A family or index that omega lacks has no entry."""
    params = ModelParams(omega)
    shift, gaps, vertex_gaps = {}, {}, {}
    for f in params.families:
        for i in range(params.r):
            shift[f, i] = sigma_shift(params, f, i, p)
            vertex_gaps[f, i] = (least_gap(params, f, i), None)
            if p == 0:
                gaps[f, i, -1] = (None, None)
            for d in (0, 1, 2):
                hom = hom_gaps(params, f, i, d, shift[f, i])
                if hom is not None:
                    gaps[f, i, d] = hom
    return shift, gaps, vertex_gaps


def basis_arrow(rules: dict, v: Vertex, target: Vertex, slot: int) -> ArrowGen | None:
    """The basis arrow v -> target in this slot, None for the identity's
    slot -1.  target is Sigma^p v (model.sigma_pow), which the caller
    has; the slot, the arrow's degree, fixes its kind."""
    if slot < 0:
        return None
    return ArrowGen(rules[v.family, v.family, slot, v.i][0], v, target, slot)


def hom_basis(params: ModelParams, v: Vertex, p: int) -> HomSpace:
    """Basis of Hom(v, Sigma^p v), read off the frame of degree p: the
    identity first when p = 0, then the arrow of each slot whose gaps
    hold b - a.  None is the identity marker.  A family or index that the
    parameters lack, or a cell whose gap no vertex has, raises ValueError."""
    shift, gaps, vertex_gaps = frame(params.omega, p)
    f, i = v.family, v.i
    if (f, i) not in shift:
        raise ValueError(f"no vertices {f}({i}) for these parameters")
    t = v.b - v.a
    if not in_gaps(vertex_gaps[f, i], t):
        raise ValueError(f"vertex {v!r} does not exist")
    slots = [s for s in (-1, 0, 1, 2) if in_gaps(gaps.get((f, i, s)), t)]
    target = sigma_pow(params, v, p) if slots else None
    return HomSpace(v, p, tuple(basis_arrow(params.rules, v, target, s) for s in slots))


def hom_dim_closed_form(params: ModelParams, v: Vertex, p: int) -> int:
    """Case formulas for dim Hom(v, Sigma^p v), p >= 0, by family: Z,
    X, and then Y, the one family left once vertex_exists has passed v
    (it raises on a family outside model.FAMILIES)."""
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
    # Y, the one family left
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
