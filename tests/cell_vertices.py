"""The per-cell vertex enumeration that gradedcenter.model's
enumerate_vertices replaced with least-gap rows, kept unchanged as its
differential oracle: every cell of the window is tested with
vertex_exists."""

from gradedcenter.model import ModelParams, Vertex, vertex_exists


def enumerate_vertices(params: ModelParams) -> list[Vertex]:
    W = params.window
    out = []
    for family in params.families:
        for i in range(params.r):
            for a in range(-W, W + 1):
                for b in range(-W, W + 1):
                    if vertex_exists(params, family, i, (a, b)):
                        out.append(Vertex(family, i, a, b))
    return out
