"""The flat signed union-find of the solver build: its range union against
a brute-force signed connected-components oracle on hand-made rows, and
the whole build against the path-halving build it replaced
(tests/halving_build.py)."""

import random
from collections import Counter

import pytest

import gradedcenter.center as center_module
from gradedcenter.acceptance import GRID
from gradedcenter.center import _build_system, _SignedForest, solver_margin
from gradedcenter.gentle import OmegaParams
from gradedcenter.model import ModelParams

import halving_build


def signed_components(count: int, rows: list) -> tuple[list, list, set]:
    """The oracle: rows (x, y, s) impose x = s * y.  Returns the least
    member of each unknown's component, the sign of each unknown relative
    to that member as a spanning tree from it reads it, and the least
    members of the components where some row forces x = -x."""
    edges: list = [[] for _ in range(count)]
    for x, y, s in rows:
        edges[x].append((y, s))
        edges[y].append((x, s))
    least = [-1] * count
    sign = [0] * count
    odd = set()
    for start in range(count):
        if least[start] >= 0:
            continue
        least[start], sign[start] = start, 1
        todo = [start]
        while todo:
            x = todo.pop()
            for y, s in edges[x]:
                if least[y] < 0:
                    least[y], sign[y] = start, sign[x] * s
                    todo.append(y)
                elif sign[y] != sign[x] * s:
                    odd.add(start)
    return least, sign, odd


def canonical(root, sign) -> tuple[list, list]:
    """Each unknown's component named by its least member, and its sign
    relative to that member, from a union-find hung on its roots."""
    least: dict = {}
    for x, r in enumerate(root):
        least.setdefault(r, x)
    return [least[r] for r in root], [sign[x] * sign[least[r]] for x, r in enumerate(root)]


def check_forest(forest: _SignedForest, count: int, rows: list, merges: int) -> None:
    """forest, after the rows, against the oracle: the partition, the
    signs off parity-flagged components, the parity marks, the merges, and
    the ring, size and joined mark of every component."""
    least, sign, odd = signed_components(count, rows)
    got_least, got_sign = canonical(forest.root, forest.sign)
    assert got_least == least
    for x in range(count):
        if least[x] not in odd:
            assert got_sign[x] == sign[x], x
    assert {least[x] for x in range(count) if forest.parity[x]} == odd
    components = Counter(least)
    assert merges == count - len(components)
    for x in range(count):
        r = forest.root[x]
        assert forest.root[r] == r and forest.sign[r] == 1
        assert forest.joined[x] == (components[least[x]] > 1), x
        if r == x:
            ring, z = [], x
            while True:
                ring.append(z)
                z = forest.next[z]
                if z == x:
                    break
            assert sorted(ring) == [y for y in range(count) if least[y] == least[x]]
            assert forest.size[x] == len(ring)


def run_ranges(count: int, ranges: list) -> tuple[_SignedForest, list, int]:
    """Impose each (x0, y0, length, s) on a fresh forest, and return it
    with the rows as pairs and the merges its unions reported."""
    forest = _SignedForest(count)
    rows, merges = [], 0
    for x0, y0, length, s in ranges:
        merges += forest.unite(x0, y0, length, s)
        rows += [(x0 + k, y0 + k, s) for k in range(length)]
    return forest, rows, merges


@pytest.mark.parametrize("ranges", [
    # overlapping x and y ranges, as in the sign law on r = 1, where Sigma
    # maps a line into itself: a chain with either sign
    [(0, 1, 5, 1)],
    [(0, 1, 5, -1)],
    [(2, 0, 6, -1)],
    [(0, 2, 6, 1), (1, 0, 3, -1)],
], ids=["chain", "signed chain", "backward", "chain then cycles"])
def test_overlapping_ranges(ranges):
    count = 9
    forest, rows, merges = run_ranges(count, ranges)
    check_forest(forest, count, rows, merges)


def test_a_minus_row_closes_an_odd_cycle():
    # 0 = 1, 1 = 2, then 0 = -2: the cycle forces x = -x; a range whose
    # roots already agree pair by pair must still find the conflict
    for ranges in ([(0, 1, 1, 1), (1, 2, 1, 1), (0, 2, 1, -1)],
                   [(0, 4, 4, 1), (0, 4, 4, 1), (4, 0, 4, -1)],
                   # an even cycle of -1 rows is consistent
                   [(0, 1, 1, -1), (1, 2, 1, -1), (0, 2, 1, 1)]):
        forest, rows, merges = run_ranges(8, ranges)
        check_forest(forest, 8, rows, merges)


@pytest.mark.parametrize("s", [1, -1])
def test_an_untouched_range_hangs_on_a_grown_component(s):
    # grow {0, 1, 2, 3} and {4, 5}, then hang the single unknowns 10..15
    # on them, from the y side and from the x side
    grow = [(0, 1, 3, -1), (4, 5, 1, 1)]
    forest, rows, merges = run_ranges(20, grow + [(0, 10, 6, s)])
    check_forest(forest, 20, rows, merges)
    assert forest.size[forest.root[0]] == 8 and forest.size[forest.root[4]] == 4
    forest, rows, merges = run_ranges(20, grow + [(10, 0, 6, s), (16, 10, 2, -s)])
    check_forest(forest, 20, rows, merges)


@pytest.mark.parametrize("small_first", [True, False])
@pytest.mark.parametrize("s", [1, -1])
def test_two_grown_components_merge(small_first, s):
    # a component of 2 against one of 6, merged by a pair on either side,
    # then a range over both that is settled already
    small, big = [(0, 1, 1, -1)], [(10, 11, 5, -1)]
    grow = small + big if small_first else big + small
    for join in ([(1, 13, 1, s)], [(13, 1, 1, s), (0, 10, 2, s)]):
        forest, rows, merges = run_ranges(20, grow)
        big_root = forest.root[10]
        for x0, y0, length, sx in join:
            merges += forest.unite(x0, y0, length, sx)
            rows += [(x0 + k, y0 + k, sx) for k in range(length)]
        check_forest(forest, 20, rows, merges)
        # the smaller component is the one relabelled
        assert forest.root[0] == big_root


def test_random_ranges_match_the_oracle():
    rng = random.Random(18)
    for _ in range(300):
        count = rng.randrange(2, 30)
        ranges = []
        for _ in range(rng.randrange(1, 8)):
            length = rng.randrange(1, count)
            ranges.append((rng.randrange(count - length + 1), rng.randrange(count - length + 1),
                           length, rng.choice((1, -1))))
        forest, rows, merges = run_ranges(count, ranges)
        check_forest(forest, count, rows, merges)


# differential oracle for the build: the path-halving build that the flat
# one replaced must give the same system


def _work_counts(system):
    return (system.unknowns, system.vertices, system.naturality_rows, system.sign_rows,
            system.merges, system.killed_zero, system.killed_parity)


def compare_builds(omega, W, inner, p, monkeypatch):
    """The flat build against the halving build on one degree: layout,
    work counts, partition, signs relative to each component's least
    member (mod 2 on parity-flagged components), and each live inner
    component's parity and tags by its least member."""
    forests = []

    class Recording(_SignedForest):
        __slots__ = ()

        def __init__(self, count):
            super().__init__(count)
            forests.append(self)

    monkeypatch.setattr(center_module, "_SignedForest", Recording)
    got = _build_system.__wrapped__(omega, W, inner, p)
    want = halving_build.build_system(omega, W, inner, p)
    (forest,) = forests
    case = (omega, W, inner, p)
    least, signs = canonical(got.root, got.sign)
    want_least, want_signs = canonical(want.root, want.sign)
    assert least == want_least, case
    # the marks, read at each component's least member
    dead = {least[x] for x in range(len(least)) if forest.zero[x]}
    odd = {least[x] for x in range(len(least)) if forest.parity[x]}
    assert len(dead) == got.killed_zero and len(odd - dead) == got.killed_parity, case
    assert all(a == b for x, (a, b) in enumerate(zip(signs, want_signs)) if least[x] not in odd), case
    assert got.lines == want.lines, case
    assert _work_counts(got) == _work_counts(want), case
    assert Counter(c[1:] for c in got.classes) == Counter(c[1:] for c in want.classes), case
    named = {least[x]: (parity, tags) for x, parity, tags in got.classes}
    assert named == {want_least[x]: (parity, tags) for x, parity, tags in want.classes}, case
    assert {x for x in named if named[x][0]} <= odd, case
    return got


@pytest.mark.parametrize("rnm", GRID + [(3, 5, 3)], ids=str)
def test_flat_build_matches_halving_build(rnm, monkeypatch):
    omega = OmegaParams(*rnm)
    margin = solver_margin(ModelParams(omega, 10))
    for inner in (1, 4, 7):
        for p in range(2 * rnm[1] + 2):
            compare_builds(omega, margin + inner, inner, p, monkeypatch)


@pytest.mark.parametrize("p", [0, 4])
def test_flat_build_matches_halving_build_at_a_large_window(p, monkeypatch):
    # (3, 4, 2) at W = 80: at p = 0 most rows join unknowns joined
    # already, at p = 4 every row merges
    omega = OmegaParams(3, 4, 2)
    system = compare_builds(omega, 80, 80 - solver_margin(ModelParams(omega, 80)), p, monkeypatch)
    if p == 4:
        assert system.merges == system.naturality_rows + system.sign_rows
