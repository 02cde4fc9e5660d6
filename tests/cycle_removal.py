"""The cycle found by removing each arrow in turn and oriented by a vertex
walk with a position table, and the gentleness axioms checked by
rescanning every arrow: the code that gentle.py's prune-and-walk
cycle_arrows and table-reading is_gentle replace, kept as their
differential oracle.  An empty quiver counts as one-cycle here."""

from __future__ import annotations

from gradedcenter.gentle import GentleQuiver


def _is_connected(q: GentleQuiver, skip_arrow: str | None = None) -> bool:
    if not q.vertices:
        return True
    adj: dict[str, set[str]] = {v: set() for v in q.vertices}
    for name, src, tgt in q.arrows:
        if name == skip_arrow:
            continue
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
    arrow_map = q.arrow_map()
    rels = set(q.relations)
    if not _is_connected(q):
        violations.append("quiver is not connected")
    out_count: dict[str, list[str]] = {v: [] for v in q.vertices}
    in_count: dict[str, list[str]] = {v: [] for v in q.vertices}
    for name, src, tgt in q.arrows:
        out_count[src].append(name)
        in_count[tgt].append(name)
    for v in q.vertices:
        if len(out_count[v]) > 2:
            violations.append(f"axiom (1): more than two arrows start at vertex {v}")
        if len(in_count[v]) > 2:
            violations.append(f"axiom (1): more than two arrows end at vertex {v}")
    for b in arrow_map:
        b_src, b_tgt = arrow_map[b]
        pred = [a for a in arrow_map if arrow_map[a][1] == b_src]
        succ = [c for c in arrow_map if arrow_map[c][0] == b_tgt]
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
    """True iff the quiver is connected with as many arrows as vertices."""
    ok, _ = is_gentle(q)
    if not ok:
        raise ValueError("quiver is not gentle")
    return len(q.arrows) == len(q.vertices) and _is_connected(q)


def _cycle_vertices(q: GentleQuiver, cycle: set[str]) -> list[str]:
    """The unique undirected cycle as a vertex list, traversed starting at
    the lexicographically smallest cycle vertex toward its smaller neighbor."""
    adj: dict[str, list[tuple[str, str]]] = {}
    for name in cycle:
        src, tgt = q.arrow_map()[name]
        adj.setdefault(src, []).append((tgt, name))
        adj.setdefault(tgt, []).append((src, name))
    start = min(adj)
    neighbors = sorted(w for w, _ in adj[start])
    walk = [start]
    # A loop is a cycle of length 1.
    if neighbors[0] == start:
        return walk
    prev, cur = start, neighbors[0]
    while cur != start:
        walk.append(cur)
        nxt = next((w for w, _ in sorted(adj[cur]) if w != prev), prev)
        prev, cur = cur, nxt
    return walk


def cycle_arrows(q: GentleQuiver) -> tuple[set[str], set[str], set[str]]:
    """Partition arrows into (clockwise, anticlockwise, non-cycle).

    An arrow lies on the cycle iff removing it keeps the underlying graph
    connected.  "Clockwise" means agreeing with the canonical traversal of
    the unique undirected cycle.
    """
    if not is_one_cycle(q):
        raise ValueError("quiver is not one-cycle")
    if not q.arrows:
        return set(), set(), set()
    arrow_map = q.arrow_map()
    on_cycle = {name for name in arrow_map if _is_connected(q, skip_arrow=name)}
    non_cycle = set(arrow_map) - on_cycle
    walk = _cycle_vertices(q, on_cycle)
    k = len(walk)
    pos = {v: idx for idx, v in enumerate(walk)}
    clockwise: set[str] = set()
    anticlockwise: set[str] = set()
    for name in on_cycle:
        src, tgt = arrow_map[name]
        if k == 1:
            # Loop convention: the single loop counts as clockwise.
            clockwise.add(name)
        elif pos[tgt] == (pos[src] + 1) % k:
            clockwise.add(name)
        else:
            anticlockwise.add(name)
    if k == 2 and len(on_cycle) == 2:
        # Parallel pair: positions cannot separate the two arrows, so
        # orient them by direction: they point opposite ways around the
        # 2-cycle exactly when they share source and target.
        a, b = sorted(on_cycle)
        if arrow_map[a] == arrow_map[b]:
            clockwise, anticlockwise = {a}, {b}
        else:
            clockwise, anticlockwise = {a, b}, set()
    return clockwise, anticlockwise, non_cycle


def clock_condition(q: GentleQuiver) -> bool:
    """True iff equally many relations sit on clockwise and anticlockwise
    cycle arrows.  The value does not depend on the traversal direction."""
    cw, acw, _ = cycle_arrows(q)
    n_cw = sum(1 for beta, alpha in q.relations if beta in cw and alpha in cw)
    n_acw = sum(1 for beta, alpha in q.relations if beta in acw and alpha in acw)
    return n_cw == n_acw
