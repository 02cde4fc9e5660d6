"""Gentle one-cycle quivers: parsing, validation, orientation, and the
family Lambda(r, n, m).

A quiver is stored with its length-2 relations as ordered pairs (beta,
alpha) encoding the path "first alpha, then beta".  A relation pair must
be composable: target(alpha) = source(beta).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OmegaParams:
    """A parameter triple (r, n, m) with 1 <= r <= n and m >= 0."""

    r: int
    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 0 or not (1 <= self.r <= self.n):
            raise ValueError(f"({self.r}, {self.n}, {self.m}) is not an admissible triple")


@dataclass(frozen=True)
class GentleQuiver:
    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]          # (name, source, target)
    relations: tuple[tuple[str, str], ...]            # (beta, alpha): alpha first

    def __post_init__(self):
        seen_v = set()
        for v in self.vertices:
            if v in seen_v:
                raise ValueError(f"duplicate vertex {v}")
            seen_v.add(v)
        by_name = {}
        for name, src, tgt in self.arrows:
            if name in by_name:
                raise ValueError(f"duplicate arrow {name}")
            if src not in seen_v or tgt not in seen_v:
                raise ValueError(f"arrow {name}: unknown endpoint")
            by_name[name] = (src, tgt)
        seen_r = set()
        for beta, alpha in self.relations:
            if beta not in by_name or alpha not in by_name:
                raise ValueError(f"relation ({beta}, {alpha}): unknown arrow")
            if by_name[alpha][1] != by_name[beta][0]:
                raise ValueError(
                    f"relation ({beta}, {alpha}) is not composable: "
                    f"target({alpha}) != source({beta})"
                )
            if (beta, alpha) in seen_r:
                raise ValueError(f"duplicate relation ({beta}, {alpha})")
            seen_r.add((beta, alpha))

    def arrow_map(self) -> dict[str, tuple[str, str]]:
        return {name: (src, tgt) for name, src, tgt in self.arrows}


class QuiverParseError(ValueError):
    pass


def parse_quiver(text: str) -> GentleQuiver:
    """Parse the line-based quiver format.

    Grammar (one directive per line, '#' starts a comment):
        vertices: v1 v2 ...
        arrow NAME: SRC -> TGT
        relation: BETA ALPHA
    """
    vertices: list[str] = []
    arrows: list[tuple[str, str, str]] = []
    relations: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            vertices.extend(line[len("vertices:"):].split())
        elif line.startswith("arrow "):
            body = line[len("arrow "):]
            name, _, rest = body.partition(":")
            # one name, one source and one target, each a single word
            words = [name.split(), *(side.split() for side in rest.split("->"))]
            if [len(w) for w in words] != [1, 1, 1]:
                raise QuiverParseError(f"line {lineno}: arrow directive needs 'NAME: SRC -> TGT'")
            (name,), (src,), (tgt,) = words
            arrows.append((name, src, tgt))
        elif line.startswith("relation:"):
            names = line[len("relation:"):].split()
            if len(names) != 2:
                raise QuiverParseError(f"line {lineno}: relation directive needs two arrow names")
            relations.append((names[0], names[1]))
        else:
            raise QuiverParseError(f"line {lineno}: unknown directive {line.split()[0]!r}")
    try:
        return GentleQuiver(tuple(vertices), tuple(arrows), tuple(relations))
    except ValueError as exc:
        raise QuiverParseError(str(exc)) from exc


def format_quiver(q: GentleQuiver) -> str:
    lines = ["vertices: " + " ".join(q.vertices)]
    for name, src, tgt in q.arrows:
        lines.append(f"arrow {name}: {src} -> {tgt}")
    for beta, alpha in q.relations:
        lines.append(f"relation: {beta} {alpha}")
    return "\n".join(lines) + "\n"


def _is_connected(q: GentleQuiver) -> bool:
    if not q.vertices:
        return True
    adj: dict[str, set[str]] = {v: set() for v in q.vertices}
    for _, src, tgt in q.arrows:
        adj[src].add(tgt)
        adj[tgt].add(src)
    seen = {q.vertices[0]}
    stack = [q.vertices[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(q.vertices)


def is_gentle(q: GentleQuiver) -> tuple[bool, list[str]]:
    """Check the four gentleness axioms; returns (verdict, violations).

    (1) at most two arrows start and at most two arrows end at any vertex;
    (2) relations have length two (structural, holds by construction);
    (3) for each arrow b there is at most one arrow a with target(a) =
        source(b) and ba not a relation, and at most one arrow c with
        source(c) = target(b) and cb not a relation;
    (4) same as (3) with "not a relation" replaced by "a relation".
    """
    violations: list[str] = []
    rels = set(q.relations)
    if not _is_connected(q):
        violations.append("quiver is not connected")
    starts: dict[str, list[str]] = {v: [] for v in q.vertices}
    ends: dict[str, list[str]] = {v: [] for v in q.vertices}
    for name, src, tgt in q.arrows:
        starts[src].append(name)
        ends[tgt].append(name)
    for v in q.vertices:
        if len(starts[v]) > 2:
            violations.append(f"axiom (1): more than two arrows start at vertex {v}")
        if len(ends[v]) > 2:
            violations.append(f"axiom (1): more than two arrows end at vertex {v}")
    for b, b_src, b_tgt in q.arrows:
        pred, succ = ends[b_src], starts[b_tgt]
        nonrel_pred = [a for a in pred if (b, a) not in rels]
        rel_pred = [a for a in pred if (b, a) in rels]
        nonrel_succ = [c for c in succ if (c, b) not in rels]
        rel_succ = [c for c in succ if (c, b) in rels]
        if len(nonrel_pred) > 1:
            violations.append(f"axiom (3): arrows {nonrel_pred} all compose with {b} outside the relations")
        if len(nonrel_succ) > 1:
            violations.append(f"axiom (3): arrow {b} composes with {nonrel_succ} outside the relations")
        if len(rel_pred) > 1:
            violations.append(f"axiom (4): arrows {rel_pred} all form relations with {b}")
        if len(rel_succ) > 1:
            violations.append(f"axiom (4): arrow {b} forms relations with {rel_succ}")
    return (not violations, violations)


def is_one_cycle(q: GentleQuiver) -> bool:
    """True iff the quiver has a vertex, is connected and has as many
    arrows as vertices: then its underlying graph has exactly one cycle,
    which cycle_arrows finds.  The empty quiver has no cycle.  The quiver
    must be gentle, and is_gentle lists a disconnected one as a violation,
    so it is connected here."""
    ok, _ = is_gentle(q)
    if not ok:
        raise ValueError("quiver is not gentle")
    return _is_one_cycle(q)


def _is_one_cycle(q: GentleQuiver) -> bool:
    """is_one_cycle on a quiver that is_gentle passed, hence connected."""
    return bool(q.vertices) and len(q.arrows) == len(q.vertices)


def survey(q: GentleQuiver) -> tuple[list[str], bool | None, bool | None]:
    """What validate prints: is_gentle's violations, then is_one_cycle
    and clock_condition where they apply, else None; gentleness is
    checked once."""
    ok, violations = is_gentle(q)
    one_cycle = _is_one_cycle(q) if ok else None
    return violations, one_cycle, _clock(q, _cycle_arrows(q)) if one_cycle else None


def cycle_arrows(q: GentleQuiver) -> tuple[set[str], set[str], set[str]]:
    """Partition arrows into (clockwise, anticlockwise, non-cycle).

    The cycle is what is left after stripping leaves, vertices with one
    arrow end (a loop has two), until none is left.  It is walked once
    from its least vertex, first along the arrow with the least (vertex
    across it, whether it points into the start), then at each vertex
    along the arrow it did not arrive on; an arrow is clockwise when the
    walk runs from its source.  So a loop is clockwise, and so are both
    arrows of an antiparallel pair.  The only tie is a parallel pair,
    where one rule decides: the lesser name is clockwise.  The quiver
    must be one-cycle, so not empty.
    """
    if not is_one_cycle(q):
        raise ValueError("quiver is not one-cycle")
    return _cycle_arrows(q)


def _cycle_arrows(q: GentleQuiver) -> tuple[set[str], set[str], set[str]]:
    arrow_map = q.arrow_map()
    ends: dict[str, list[str]] = {v: [] for v in q.vertices}
    for name, src, tgt in q.arrows:
        ends[src].append(name)
        ends[tgt].append(name)
    leaves = [v for v in q.vertices if len(ends[v]) == 1]
    while leaves:
        (name,) = ends.pop(leaves.pop())
        for w in arrow_map[name]:
            if w in ends:
                ends[w].remove(name)
                if len(ends[w]) == 1:
                    leaves.append(w)
    start = min(ends)

    def key(name: str) -> tuple[str, bool]:
        src, tgt = arrow_map[name]
        return (src if tgt == start else tgt, tgt == start)

    forward: dict[str, bool] = {}
    v, name = start, min(ends[start], key=key)
    while name not in forward:
        src, tgt = arrow_map[name]
        forward[name] = src == v
        v = tgt if src == v else src
        a, b = ends[v]
        name = b if name == a else a
    if len(forward) == 2:
        a, b = sorted(forward)
        if arrow_map[a] == arrow_map[b]:
            forward = {a: True, b: False}
    clockwise = {name for name, fwd in forward.items() if fwd}
    return clockwise, set(forward) - clockwise, set(arrow_map) - set(forward)


def clock_condition(q: GentleQuiver) -> bool:
    """True iff equally many relations sit on clockwise and anticlockwise
    cycle arrows.  The value does not depend on the traversal direction."""
    return _clock(q, cycle_arrows(q))


def _clock(q: GentleQuiver, partition: tuple) -> bool:
    cw, acw, _ = partition
    n_cw = sum(1 for beta, alpha in q.relations if beta in cw and alpha in cw)
    n_acw = sum(1 for beta, alpha in q.relations if beta in acw and alpha in acw)
    return n_cw == n_acw


def build_lambda(params: OmegaParams) -> GentleQuiver:
    """The quiver with a directed n-cycle 0 -> 1 -> ... -> n-1 -> 0, a tail
    -m -> ... -> -1 -> 0, and r relations along the cycle."""
    r, n, m = params.r, params.n, params.m
    vertices = [f"v{k}" for k in range(-m, n)]
    arrows = []
    for k in range(-m, 0):
        arrows.append((f"a{k}", f"v{k}", f"v{k + 1}"))
    for k in range(n):
        arrows.append((f"a{k}", f"v{k}", f"v{(k + 1) % n}"))
    relations = [(f"a{i + 1}", f"a{i}") for i in range(n - r, n - 1)]
    relations.append(("a0", f"a{n - 1}"))
    return GentleQuiver(tuple(vertices), tuple(arrows), tuple(relations))
