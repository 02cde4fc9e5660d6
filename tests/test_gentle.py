import random

import pytest

import cycle_removal
from gradedcenter.gentle import (
    GentleQuiver,
    OmegaParams,
    QuiverParseError,
    build_lambda,
    clock_condition,
    cycle_arrows,
    format_quiver,
    is_gentle,
    is_one_cycle,
    parse_quiver,
    survey,
)

KRONECKER = GentleQuiver(("1", "2"), (("a", "1", "2"), ("b", "1", "2")), ())


def delta(r, n, m):
    return build_lambda(OmegaParams(r, n, m))


def relabel(q, rng):
    """q with its vertices and arrows renamed by seeded permutations of
    their names and listed in a shuffled order."""
    vnames = list(q.vertices)
    rng.shuffle(vnames)
    vmap = dict(zip(q.vertices, vnames))
    anames = [name for name, _, _ in q.arrows]
    rng.shuffle(anames)
    amap = dict(zip((name for name, _, _ in q.arrows), anames))
    arrows = [(amap[name], vmap[s], vmap[t]) for name, s, t in q.arrows]
    rng.shuffle(arrows)
    return GentleQuiver(
        tuple(rng.sample(vnames, len(vnames))),
        tuple(arrows),
        tuple((amap[b], amap[a]) for b, a in q.relations),
    )


def test_parse_roundtrip():
    text = "vertices: 1 2\narrow a: 1 -> 2\narrow b: 1 -> 2\n"
    q = parse_quiver(text)
    assert q == KRONECKER
    assert parse_quiver(format_quiver(q)) == q


def test_parse_comments_and_blank_lines():
    text = """
    # the Kronecker quiver
    vertices: 1 2

    arrow a: 1 -> 2   # top
    arrow b: 1 -> 2
    """
    assert parse_quiver(text) == KRONECKER


def test_parse_a_tab_as_a_space():
    # any run of whitespace separates a directive's words, the keyword's
    # included: "arrow<TAB>a: x -> y" is an arrow
    text = format_quiver(build_lambda(OmegaParams(2, 3, 1)))
    assert "relation: " in text
    assert parse_quiver(text.replace(" ", "\t")) == parse_quiver(text.replace(" ", " \t ")) == parse_quiver(text)


def test_parse_relation_order():
    text = "vertices: u v w\narrow f: u -> v\narrow g: v -> w\nrelation: g f\n"
    q = parse_quiver(text)
    assert q.relations == (("g", "f"),)


def test_parse_unknown_directive_reports_line():
    with pytest.raises(QuiverParseError, match="line 2"):
        parse_quiver("vertices: 1\nfrobnicate: 1\n")


def test_parse_malformed_arrow():
    with pytest.raises(QuiverParseError, match="line 1"):
        parse_quiver("arrow a: 1 2\n")


@pytest.mark.parametrize("line", ["arrow x: a b -> c", "arrow : a -> b"], ids=["two-sources", "no-name"])
def test_parse_arrow_needs_one_name_source_and_target(line):
    # an arrow directive names one arrow, one source and one target; any
    # other count of words is the directive's own error, with its line
    with pytest.raises(QuiverParseError) as exc:
        parse_quiver(f"vertices: a b c\n{line}\n")
    assert str(exc.value) == "line 2: arrow directive needs 'NAME: SRC -> TGT'"


def test_parse_noncomposable_relation_is_parse_error():
    text = "vertices: u v w\narrow f: u -> v\narrow g: v -> w\nrelation: f g\n"
    with pytest.raises(QuiverParseError, match="not composable"):
        parse_quiver(text)


def test_parse_unknown_names_rejected():
    with pytest.raises(QuiverParseError):
        parse_quiver("vertices: 1\narrow a: 1 -> 2\n")
    with pytest.raises(QuiverParseError):
        parse_quiver("vertices: 1\narrow a: 1 -> 1\nrelation: a z\n")


def test_omega_params_validation():
    OmegaParams(1, 1, 0)
    OmegaParams(3, 5, 2)
    for bad in [(0, 1, 0), (2, 1, 0), (1, 0, 0), (1, 1, -1)]:
        with pytest.raises(ValueError):
            OmegaParams(*bad)


def test_is_gentle_examples():
    ok, report = is_gentle(delta(1, 2, 1))
    assert ok and report == []
    assert is_gentle(KRONECKER) == (True, [])
    star = GentleQuiver(
        ("c", "x", "y", "z"),
        (("a", "c", "x"), ("b", "c", "y"), ("d", "c", "z")),
        (),
    )
    ok, report = is_gentle(star)
    assert not ok
    assert any("axiom (1)" in line for line in report)


def test_is_gentle_axiom3_violation():
    # Two arrows continue a without either composite being a relation.
    q = GentleQuiver(
        ("1", "2", "3", "4"),
        (("a", "1", "2"), ("b", "2", "3"), ("c", "2", "4")),
        (),
    )
    ok, report = is_gentle(q)
    assert not ok
    assert any("axiom (3)" in line for line in report)


def test_is_gentle_axiom4_violation():
    q = GentleQuiver(
        ("1", "2", "3", "4"),
        (("a", "1", "2"), ("b", "2", "3"), ("c", "2", "4")),
        (("b", "a"), ("c", "a")),
    )
    ok, report = is_gentle(q)
    assert not ok
    assert any("axiom (4)" in line for line in report)


def test_is_one_cycle_examples():
    assert is_one_cycle(delta(2, 3, 2))  # 5 vertices, 5 arrows
    assert is_one_cycle(KRONECKER)
    a3 = GentleQuiver(("1", "2", "3"), (("a", "1", "2"), ("b", "2", "3")), ())
    assert not is_one_cycle(a3)


def test_cycle_arrows_directed_two_cycle():
    q = delta(2, 2, 0)
    cw, acw, rest = cycle_arrows(q)
    assert rest == set()
    # A directed 2-cycle traverses both arrows in the same direction.
    assert cw | acw == {"a0", "a1"}
    assert not acw


def test_cycle_arrows_tail_is_non_cycle():
    cw, acw, rest = cycle_arrows(delta(1, 2, 1))
    assert rest == {"a-1"}
    assert cw | acw == {"a0", "a1"}


def test_cycle_arrows_kronecker_split():
    cw, acw, rest = cycle_arrows(KRONECKER)
    assert rest == set()
    assert len(cw) == 1 and len(acw) == 1
    assert cw | acw == {"a", "b"}


def test_cycle_arrows_loop():
    cw, acw, rest = cycle_arrows(delta(1, 1, 0))
    assert (cw, acw, rest) == ({"a0"}, set(), set())


def test_cycle_arrows_removal_oracle():
    for r, n, m in [(1, 1, 0), (1, 2, 1), (2, 3, 2), (3, 4, 0)]:
        q = delta(r, n, m)
        cw, acw, rest = cycle_arrows(q)
        names = {name for name, _, _ in q.arrows}
        assert cw | acw | rest == names
        for name in cw | acw:
            assert cycle_removal._is_connected(q, skip_arrow=name)
        for name in rest:
            assert not cycle_removal._is_connected(q, skip_arrow=name)


def test_clock_condition_examples():
    assert not clock_condition(delta(1, 2, 0))
    assert not clock_condition(delta(2, 3, 1))
    assert clock_condition(KRONECKER)


def test_clock_condition_balanced_example():
    # Two directed paths 1 -> 2 -> 4 and 1 -> 3 -> 4, one relation each:
    # the traversal puts one path in each orientation class, so 1 = 1.
    q = GentleQuiver(
        ("1", "2", "3", "4"),
        (
            ("p", "1", "2"),
            ("q", "2", "4"),
            ("s", "1", "3"),
            ("t", "3", "4"),
        ),
        (("q", "p"), ("t", "s")),
    )
    assert clock_condition(q)


def test_build_lambda_loop():
    q = delta(1, 1, 0)
    assert q.vertices == ("v0",)
    assert q.arrows == (("a0", "v0", "v0"),)
    assert q.relations == (("a0", "a0"),)


def test_build_lambda_examples():
    q = delta(2, 3, 1)
    assert len(q.vertices) == 4 and len(q.arrows) == 4
    assert set(q.relations) == {("a2", "a1"), ("a0", "a2")}
    q = delta(3, 3, 0)
    assert set(q.relations) == {("a1", "a0"), ("a2", "a1"), ("a0", "a2")}


def test_build_lambda_grid():
    for n in range(1, 6):
        for r in range(1, n + 1):
            for m in range(4):
                q = delta(r, n, m)
                assert len(q.relations) == r
                ok, report = is_gentle(q)
                assert ok, (r, n, m, report)
                assert is_one_cycle(q)
                assert not clock_condition(q), (r, n, m)


def test_clock_condition_relabel_invariant():
    rng = random.Random(7)
    for r, n, m in [(1, 2, 0), (2, 3, 1), (2, 2, 2), (1, 3, 0)]:
        q = delta(r, n, m)
        expected = clock_condition(q)
        for _ in range(5):
            assert clock_condition(relabel(q, rng)) == expected, (r, n, m)


# ------------------------------------------------- against tests/cycle_removal.py


def assert_matches_removal(q):
    assert is_gentle(q) == cycle_removal.is_gentle(q)
    if not is_gentle(q)[0]:
        for check in (is_one_cycle, cycle_removal.is_one_cycle):
            with pytest.raises(ValueError, match="not gentle"):
                check(q)
        return
    assert is_one_cycle(q) == cycle_removal.is_one_cycle(q)
    if is_one_cycle(q):
        assert cycle_arrows(q) == cycle_removal.cycle_arrows(q)
        assert clock_condition(q) == cycle_removal.clock_condition(q)


def random_one_cycle(rng):
    """A connected quiver with as many arrows as vertices: a random tree
    plus one arrow, which may be a loop or parallel to a tree arrow, with
    a random subset of its composable pairs as relations."""
    k = rng.randint(1, 7)
    names = rng.sample("pqrstuvwxyz", k)
    edges = [(names[rng.randrange(i)], names[i]) for i in range(1, k)]
    edges.append((rng.choice(names), rng.choice(names)))
    arrows = []
    for label, (u, w) in zip(rng.sample("abcdefghij", k), edges):
        arrows.append((label, u, w) if rng.random() < 0.5 else (label, w, u))
    relations = [(b, a) for a, _, a_tgt in arrows for b, b_src, _ in arrows
                 if a_tgt == b_src and rng.random() < 0.4]
    return GentleQuiver(tuple(rng.sample(names, k)), tuple(arrows), tuple(relations))


def random_quiver(rng):
    """Any quiver on at most 5 vertices and 7 arrows: disconnected ones,
    vertices where three arrows start or end, and violations of axioms
    (3) and (4) included."""
    k = rng.randint(0, 5)
    names = rng.sample("pqrstuvwxyz", k)
    arrows = [(label, rng.choice(names), rng.choice(names))
              for label in rng.sample("abcdefghij", rng.randint(0, 7) if k else 0)]
    relations = [(b, a) for a, _, a_tgt in arrows for b, b_src, _ in arrows
                 if a_tgt == b_src and rng.random() < 0.4]
    return GentleQuiver(tuple(names), tuple(arrows), tuple(relations))


@pytest.mark.parametrize("n", range(1, 7))
def test_cycle_matches_removal_on_relabelled_lambda(n):
    rng = random.Random(n)
    for r in range(1, n + 1):
        for m in range(4):
            q = delta(r, n, m)
            assert_matches_removal(q)
            for _ in range(5):
                assert_matches_removal(relabel(q, rng))


def two_cycles():
    """The loop, and each 2-cycle on vertices 1 < 2 under both namings
    of its arrows: a parallel pair out of 1, one into 1, and an
    antiparallel pair, each with every gentle set of relations: a
    parallel pair has no composable pair, an antiparallel pair two, and
    all four sets of them are gentle."""
    yield GentleQuiver(("1",), (("a", "1", "1"),), ())
    yield GentleQuiver(("1",), (("a", "1", "1"),), (("a", "a"),))
    for ends in ((("1", "2"), ("1", "2")), (("2", "1"), ("2", "1")), (("1", "2"), ("2", "1"))):
        for first, second in (("a", "b"), ("b", "a")):
            arrows = ((first, *ends[0]), (second, *ends[1]))
            pairs = [(b, a) for a, _, a_tgt in arrows for b, b_src, _ in arrows if a_tgt == b_src]
            for mask in range(1 << len(pairs)):
                rels = tuple(pair for bit, pair in enumerate(pairs) if mask >> bit & 1)
                q = GentleQuiver(("1", "2"), arrows, rels)
                if is_gentle(q)[0]:
                    yield q


def test_two_cycles_match_removal():
    quivers = list(two_cycles())
    assert len(quivers) == 2 + 2 + 2 + 2 * 4
    for q in quivers:
        assert_matches_removal(q)
    # a parallel pair's lesser name is clockwise, whichever way it points
    into_1 = GentleQuiver(("1", "2"), (("b", "2", "1"), ("a", "2", "1")), ())
    assert cycle_arrows(into_1) == ({"a"}, {"b"}, set())
    antiparallel = GentleQuiver(("1", "2"), (("b", "1", "2"), ("a", "2", "1")), ())
    assert cycle_arrows(antiparallel) == ({"a", "b"}, set(), set())


def test_cycle_matches_removal_on_random_one_cycle_quivers():
    rng = random.Random(25)
    gentle = 0
    for _ in range(1500):
        q = random_one_cycle(rng)
        assert_matches_removal(q)
        gentle += is_gentle(q)[0]
    assert gentle > 500


def test_is_gentle_matches_the_arrow_scan_on_random_quivers():
    rng = random.Random(52)
    verdicts = set()
    for _ in range(3000):
        q = random_quiver(rng)
        if q.vertices:
            assert_matches_removal(q)
        else:
            assert is_gentle(q) == cycle_removal.is_gentle(q) == (True, [])
        verdicts.add(is_gentle(q)[0])
    assert verdicts == {True, False}


def test_public_checks_raise_on_a_quiver_they_do_not_apply_to():
    # each check keeps its own gate: is_one_cycle, cycle_arrows and
    # clock_condition need a gentle quiver, the last two a one-cycle one
    star = GentleQuiver(("c", "x", "y", "z"), (("a", "c", "x"), ("b", "c", "y"), ("d", "c", "z")), ())
    assert not is_gentle(star)[0]
    for check in (is_one_cycle, cycle_arrows, clock_condition):
        with pytest.raises(ValueError, match="not gentle"):
            check(star)
    tree = GentleQuiver(("x", "y"), (("a", "x", "y"),), ())
    assert is_gentle(tree)[0] and not is_one_cycle(tree)
    for check in (cycle_arrows, clock_condition):
        with pytest.raises(ValueError, match="not one-cycle"):
            check(tree)
    assert survey(star) == (is_gentle(star)[1], None, None)
    assert survey(tree) == ([], False, None)
    for r, n, m in [(1, 2, 0), (2, 3, 1), (1, 1, 0)]:
        q = delta(r, n, m)
        assert survey(q) == ([], True, clock_condition(q)), (r, n, m)


def test_empty_quiver_has_no_cycle():
    empty = GentleQuiver((), (), ())
    assert is_gentle(empty) == (True, [])
    assert not is_one_cycle(empty)
    # the removal oracle counts the empty quiver as one-cycle
    assert cycle_removal.is_one_cycle(empty)
    with pytest.raises(ValueError, match="not one-cycle"):
        cycle_arrows(empty)
    with pytest.raises(ValueError, match="not one-cycle"):
        clock_condition(empty)
