"""tau = Sigma^p searched over |p| <= 2(n + m) + 2 with sigma_pow: the
search that model.tau_sigma_periodic's solved equation replaces, kept as
its differential oracle."""

from gradedcenter.model import Vertex, sigma_pow, tau


def _family_representative(params, family, i):
    if family == "Y":
        return Vertex("Y", i, 0, params.n)
    return Vertex(family, i, 0, 0)


def tau_sigma_periodic(params):
    """Search tau v = Sigma^p v per family over |p| <= 2(n+m)+2.

    The equation is translation-invariant and, for p a multiple of r,
    index-independent, so checking one representative per index is exact.
    """
    bound = 2 * (params.n + params.m) + 2
    witnesses = []
    for family in params.families:
        for p in range(-bound, bound + 1):
            if all(
                tau(params, rep) == sigma_pow(params, rep, p)
                for rep in (
                    _family_representative(params, family, i) for i in range(params.r)
                )
            ):
                witnesses.append((family, p))
                break
    return (bool(witnesses), witnesses)
