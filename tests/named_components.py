"""The naming of a built system's components that gradedcenter.center's
_named_components replaces, kept as its differential oracle: every
member's arrow is built as a Vertex and an ArrowGen and ordered by its
str.  The only change from the function it replaced is that it reads a
report's system under the report's variant: a plain reading
(SolveReport._plain) takes every sign as +1 and ignores the parity
flags."""

from gradedcenter.center import SolveReport
from gradedcenter.hom import frame

from morphisms import basis_name


def named_components(report: SolveReport) -> list:
    """center._named_components, naming every member by str(arrow)."""
    params, system, plain = report.params, report._system, report._plain
    W, inner = report.window, report.inner_window
    rules, shift_p = params.rules, frame(params.omega, report.p)[0]
    root, sign = system.root, system.sign
    wanted = {x: (odd and not plain, tags) for x, odd, tags in system.classes}
    members: dict[int, list[tuple]] = {x: [] for x in wanted}
    for (f, i, t), bv in system.lines:
        a0, length = -W - min(t, 0), 2 * W + 1 - abs(t)
        for s, x0 in bv:
            if wanted.keys().isdisjoint(root[x0:x0 + length]):
                continue
            for k in range(length):
                got = members.get(root[x0 + k])
                if got is not None:
                    got.append(((f, i, a0 + k, a0 + k + t), s, 1 if plain else sign[x0 + k]))
    components = []
    for x, mems in members.items():
        named = [
            (key, s, w, basis_name(rules, shift_p, key, s))
            for key, s, w in mems
            if -inner <= key[2] <= inner and -inner <= key[3] <= inner
        ]
        least = min(key for key, _, _ in mems)
        head = min(
            (key, basis_name(rules, shift_p, key, s))
            for key, s, _ in mems
            if key == least
        )
        ref_w = min((name, key, w) for key, _, w, name in named)[2]
        named.sort(key=lambda t: (t[0], t[3]))
        basis = tuple((key, s, w * ref_w) for key, s, w, _ in named)
        components.append((head, *wanted[x], basis))
    components.sort(key=lambda c: c[0])
    return [c[1:] for c in components]
