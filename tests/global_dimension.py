"""Global dimension of a gentle algebra, read off its quiver alone.

A gentle algebra is quadratic monomial, so by Green-Happel-Zacharia
Ext^k(S_x, S_y) has a basis of the paths x -> y of length k in which
every two consecutive arrows form a relation.  The global dimension is
therefore the length of the longest such path, and it is infinite
exactly when the relation graph (the arrows as nodes, an edge alpha ->
beta for each relation (beta, alpha)) has a cycle.  This module reads a
GentleQuiver and nothing from the model, center or ring modules.
"""

import math

from gradedcenter.gentle import GentleQuiver


def global_dimension(q: GentleQuiver) -> float:
    """The longest path of relations, counted in arrows, or math.inf."""
    after: dict = {name: [] for name, _src, _tgt in q.arrows}
    for beta, alpha in q.relations:
        after[alpha].append(beta)
    # longest[x]: the most arrows on a path of relations that starts at x
    longest: dict = {}
    on_path: set = set()

    def visit(x) -> float:
        if x in on_path:
            return math.inf
        if x not in longest:
            on_path.add(x)
            longest[x] = 1 + max((visit(y) for y in after[x]), default=0)
            on_path.discard(x)
        return longest[x]

    return max((visit(x) for x in after), default=0)
