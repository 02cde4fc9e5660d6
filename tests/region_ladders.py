"""The hand-written region ladders that gradedcenter.model.REGION_TABLE
replaces, one per direction, kept as the table's differential oracle."""

from gradedcenter.model import KIND_TABLE, ModelParams, Vertex


def _delta(x: int, y: int) -> int:
    return 1 if x == y else 0


def _region(params: ModelParams, kind: str, v: Vertex):
    """Target rectangle (lo1, hi1, lo2, hi2) for arrows of this kind out
    of v; None encodes an unbounded side.  The source vertex itself is
    excluded separately for the degree-0 kinds."""
    n, m, r = params.n, params.m, params.r
    a, b = v.a, v.b
    d0 = _delta(v.i, 0)
    dr = _delta(v.i, r - 1)
    if kind == "f'":
        return (a, b + d0 * m, b, None)
    if kind == "g'":
        return (a, b + d0 * m, None, None)
    if kind == "e'":
        return (None, a + dr * m, a, b + d0 * m)
    if kind == "f''":
        return (a, b - d0 * n, b, None)
    if kind == "g''":
        return (None, None, a, b - d0 * n)
    if kind == "e''":
        return (None, a - dr * n, a, b - d0 * n)
    if kind == "f":
        return (a, None, b, None)
    if kind == "h'":
        return (None, a + dr * m, a, None)
    if kind == "h''":
        return (None, b - dr * n, b, None)
    if kind == "eZ":
        return (None, a + dr * m, None, b - dr * n)
    raise ValueError(f"unknown kind {kind!r}")


def _region_inv(params: ModelParams, kind: str, w: Vertex):
    """Source rectangle (lo_a, hi_a, lo_b, hi_b) for arrows of this kind
    into w; the mirror of _region with the roles of the inequalities
    swapped.  Deltas refer to the source index."""
    n, m, r = params.n, params.m, params.r
    _src, _tgt, _deg, step = KIND_TABLE[kind]
    i = (w.i - step) % r
    d0 = _delta(i, 0)
    dr = _delta(i, r - 1)
    u1, u2 = w.a, w.b
    if kind == "f'":
        return (None, u1, u1 - d0 * m, u2)
    if kind == "g'":
        return (None, u1, u1 - d0 * m, None)
    if kind == "e'":
        return (u1 - dr * m, u2, u2 - d0 * m, None)
    if kind == "f''":
        return (None, u1, u1 + d0 * n, u2)
    if kind == "g''":
        return (None, u2, u2 + d0 * n, None)
    if kind == "e''":
        return (u1 + dr * n, u2, u2 + d0 * n, None)
    if kind == "f":
        return (None, u1, None, u2)
    if kind == "h'":
        return (u1 - dr * m, u2, None, None)
    if kind == "h''":
        return (None, None, u1 + dr * n, u2)
    if kind == "eZ":
        return (u1 - dr * m, None, u2 + dr * n, None)
    raise ValueError(f"unknown kind {kind!r}")
