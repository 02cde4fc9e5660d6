"""The per-vertex Hom basis that gradedcenter.hom's hom_basis replaced
with a read of the per-degree table (hom.frame), kept unchanged as its
differential oracle: each degree's generator arrow v -> Sigma^p v is
probed with arrow_of_degree, so it reads no frame."""

from gradedcenter.hom import HomSpace
from gradedcenter.model import ModelParams, Vertex, arrow_of_degree, sigma_pow


def probed_hom(params: ModelParams, v: Vertex, p: int) -> HomSpace:
    """Basis of Hom(v, Sigma^p v): the generator arrows v -> Sigma^p v,
    preceded by the identity when p = 0.  None is the identity marker."""
    w = sigma_pow(params, v, p)
    basis: list = [None] if p == 0 else []
    for degree in (0, 1, 2):
        g = arrow_of_degree(params, v, w, degree)
        if g is not None:
            basis.append(g)
    return HomSpace(v, p, tuple(basis))
