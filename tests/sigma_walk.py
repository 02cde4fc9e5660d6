"""The arrow-by-arrow Sigma-stability walk that acceptance criterion 2
replaced with a check on the arrow matrices, kept unchanged as its
differential oracle: every windowed arrow is built as an ArrowGen, and
its endpoints' images under Sigma and Sigma^-1 are tested with
vertex_exists and arrow_of_degree."""

from gradedcenter.model import (
    ModelParams,
    arrow_of_degree,
    arrows_from,
    enumerate_vertices,
    sigma_pow,
    vertex_exists,
)


def _sigma_functorial(params: ModelParams, W: int):
    """Sigma and its inverse must carry windowed arrows to arrows."""
    boxed = ModelParams(params.omega, W)
    arrows = 0
    for v in enumerate_vertices(boxed):
        for g in arrows_from(params, v, W):
            arrows += 1
            for p in (1, -1):
                u, w = sigma_pow(params, g.source, p), sigma_pow(params, g.target, p)
                for vert in (u, w):
                    if not vertex_exists(params, vert.family, vert.i, vert.coord):
                        return arrows, f"Sigma^{p} image vertex {vert!r} missing"
                if arrow_of_degree(params, u, w, g.degree) is None:
                    return arrows, f"Sigma^{p} image of {g!r} is not an arrow"
    return arrows, None
