"""The per-cell arrow enumeration that gradedcenter.model's arrows_from
and arrows_to replace, kept unchanged as their differential oracle: every
cell of an arrow kind's region inside the box is tested with
vertex_exists, and an ArrowGen is built for each one that passes."""

from gradedcenter.model import (
    KIND_TABLE,
    ArrowGen,
    ModelParams,
    Vertex,
    _clip,
    _region_inv,
    region,
    vertex_exists,
)


def arrows_from(params: ModelParams, v: Vertex, box: int | None = None) -> list[ArrowGen]:
    """All generator arrows out of v with target inside [-box, box]^2
    (default: the params window)."""
    W = params.window if box is None else box
    out = []
    for kind, (src, tgt_family, degree, step) in KIND_TABLE.items():
        if src != v.family or tgt_family not in params.families:
            continue
        j = (v.i + step) % params.r
        lo1, hi1, lo2, hi2 = region(params, kind, v)
        for u1 in _clip(lo1, hi1, W):
            for u2 in _clip(lo2, hi2, W):
                if degree == 0 and (u1, u2) == (v.a, v.b):
                    continue
                if vertex_exists(params, tgt_family, j, (u1, u2)):
                    out.append(ArrowGen(kind, v, Vertex(tgt_family, j, u1, u2), degree))
    return out


def arrows_to(params: ModelParams, w: Vertex, box: int | None = None) -> list[ArrowGen]:
    """All generator arrows into w with source inside [-box, box]^2
    (default: the params window)."""
    W = params.window if box is None else box
    out = []
    for kind, (src_family, tgt_family, degree, step) in KIND_TABLE.items():
        if tgt_family != w.family or src_family not in params.families:
            continue
        j = (w.i - step) % params.r
        lo_a, hi_a, lo_b, hi_b = _region_inv(params, kind, w)
        for a in _clip(lo_a, hi_a, W):
            for b in _clip(lo_b, hi_b, W):
                if degree == 0 and (a, b) == (w.a, w.b):
                    continue
                if vertex_exists(params, src_family, j, (a, b)):
                    out.append(ArrowGen(kind, Vertex(src_family, j, a, b), w, degree))
    return out
