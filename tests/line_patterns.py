"""The per-line pattern loop that gradedcenter.center's _pattern_runs
replaces, kept as its differential oracle.

For every line of a built system's layout and every listed target, in
the order the build imposes them, it tests the generator with arrow_kind
at the first a where both ends lie in the box and works the rows out
with _row_pattern, as the line build did before patterns were shared
along runs of gaps."""

from gradedcenter.center import _row_pattern
from gradedcenter.model import ModelParams, arrow_kind, least_gap


def line_patterns(params: ModelParams, W: int, shift_p: dict, lines: dict) -> list:
    """[((family, i, gap), k, pattern or None)] for every line and every
    target k that has an end in the box, None where the target carries
    no generator of this degree."""
    r, n = params.r, params.n
    rules = params.rules
    steps = params.sigma_steps
    floor = {}
    for f, i in shift_p:
        lo = least_gap(params, f, i)
        floor[f, i] = -2 * W if lo is None else lo

    def start(t: int) -> int:
        return -W - t if t < 0 else -W

    def stop(t: int) -> int:
        return W if t < 0 else W - t

    out = []
    for (f, i, t), bv in lines.items():
        a0, a1 = start(t), stop(t)
        # targets as (g, j, shift of a, gap of w, degree)
        targets = [(f, i, 0, t + 1, 0), (f, i, 1, t - 1, 0), (f, i, 1, t, 0)]
        if f == "X":
            _, c1, c2 = steps[f, i, r]
            targets.append((f, i, c1, t + c2 - c1, 0))
            targets.append((f, (i + 1) % r, 0, 0, 2))
            if r < n:
                targets.append(("Z", i, 0, t, 1))
        elif f == "Y":
            targets.append(("Z", i, 0, t - (n if i == 0 else 0), 1))
        for k, (g, j, da, u, degree) in enumerate(targets):
            if u < floor[g, j]:
                continue
            lo, hi = max(a0, start(u) - da), min(a1, stop(u) - da)
            if lo > hi:
                continue
            v, w = (f, i, lo, lo + t), (g, j, lo + da, lo + da + u)
            if arrow_kind(rules, *v, *w, degree) is None:
                out.append(((f, i, t), k, None))
                continue
            bw = lines.get((g, j, u), {})
            out.append(((f, i, t), k, _row_pattern(rules, v, w, degree, shift_p[g, j], bv, bw)))
    return out
