"""The closed form of vertex existence that gradedcenter.model's
vertex_exists stated before it read model.least_gap, kept unchanged as
the independent oracle for least_gap and vertex_exists."""

from gradedcenter.model import ModelParams


def vertex_exists(params: ModelParams, family: str, i: int, coord: tuple[int, int]) -> bool:
    r, n, m = params.r, params.n, params.m
    if not 0 <= i < r:
        raise ValueError(f"index {i} out of range [0, {r - 1}]")
    a, b = coord
    if family == "X":
        return a <= b + (m if i == 0 else 0)
    if family == "Y":
        return r < n and a + (n if i == 0 else 0) <= b
    if family == "Z":
        return r < n
    raise ValueError(f"unknown family {family!r}")
