"""Combinatorial model of the perfect derived category of Lambda(r, n, m).

Vertices come in up to three families X, Y, Z (X only when r = n), each
carrying an index i in [0, r-1] and a coordinate pair (a, b).  Generator
arrows of degrees 0, 1, 2 connect vertices according to rectangular
region rules; composition of two generators is the unique generator of
the summed degree between the outer endpoints, or zero.  The suspension
Sigma shifts coordinates by an index-dependent vector and increments i,
so Sigma^r is a translation; the AR translation tau subtracts (1, 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .gentle import OmegaParams

FAMILIES = ("X", "Y", "Z")

# kind -> (source family, target family, degree, index step)
KIND_TABLE = {
    "f'": ("X", "X", 0, 0),
    "g'": ("X", "Z", 1, 0),
    "e'": ("X", "X", 2, 1),
    "f''": ("Y", "Y", 0, 0),
    "g''": ("Y", "Z", 1, 0),
    "e''": ("Y", "Y", 2, 1),
    "f": ("Z", "Z", 0, 0),
    "h'": ("Z", "X", 1, 1),
    "h''": ("Z", "Y", 1, 1),
    "eZ": ("Z", "Z", 2, 1),
}

# kind -> target rectangle (lo1, hi1, lo2, hi2) of the arrows of this kind
# out of a vertex (a, b) with index i.  A side is None when unbounded, else
# a source coordinate plus a correction made at one index only: "b+m@0" is
# b + m at i = 0 and b elsewhere, "a-n@r-1" is a - n at i = r - 1 and a
# elsewhere.  Arrows out of a vertex and arrows into it are both read from
# here, through params.sides and params.rules: by region, _region_inv,
# arrow_kind (so arrow_of_degree), arrow_gaps (so hom_gaps) and
# acceptance._arrow_matrices.
REGION_TABLE = {
    "f'": ("a", "b+m@0", "b", None),
    "g'": ("a", "b+m@0", None, None),
    "e'": (None, "a+m@r-1", "a", "b+m@0"),
    "f''": ("a", "b-n@0", "b", None),
    "g''": (None, None, "a", "b-n@0"),
    "e''": (None, "a-n@r-1", "a", "b-n@0"),
    "f": ("a", None, "b", None),
    "h'": (None, "a+m@r-1", "a", None),
    "h''": (None, "b-n@r-1", "b", None),
    "eZ": (None, "a+m@r-1", None, "b-n@r-1"),
}


@lru_cache(maxsize=128)
def _tables(r: int, n: int, m: int) -> dict:
    """The facts about the arrows of one (r, n, m), by the name of the
    ModelParams field that holds each, shared by every ModelParams with
    these parameters and never mutated:

    families: the families with vertices, X alone when r = n;
    sides: REGION_TABLE read, (kind, source index) -> the kind's row with
    each side None or (source coordinate, 0 for a and 1 for b; offset);
    rules: (source family, target family, degree, source index) ->
    (kind, target index, sides), what arrow_of_degree tests: an arrow's
    kind and its target's index are fixed by that signature;
    sigma_steps: Sigma^k as a translation, (family, i, k) -> (j, da, db)
    for 0 <= k <= r, where Sigma^k moves index i to j and (a, b) by (da,
    db); k = r is the cycle Sigma^r, the same translation from every
    index;
    generators: the generating arrows out of each (family, i), at which
    the center imposes naturality, as (g, j, da, db, degree, along): the
    target of (family, i, a, b) is (g, j, a + da, b + db), or (g, j, a +
    da, a + db) where along is False, so that its gap does not move with
    b - a.  A listed target need not carry a generator of this degree.
    generators_into: the same arrows into each (g, j), as (f, i, da, db,
    along) from the source (f, i).

    Naturality at a composite follows from naturality at its factors, so
    only generating arrows are listed: the steps (0, 1) and (1, 0) within
    the family, X's e' corner to (i + 1, a, a) and the arrows into Z.
    Every other arrow of degree 0 within a family, the diagonal step
    (1, 1) and X's Sigma^r step included, runs from (a, b) to some (a',
    b') with a' >= a and b' >= b.  By the composition rule it is the
    composite of the (0, 1) steps up to (a, b') and then the (1, 0) steps
    across to (a', b'), because these are arrows:
    - the vertices passed lie in the box, whose sides hold a, a', b and
      b';
    - they exist, because their gaps run from b - a up to b' - a and then
      down to b' - a', never below the least gap that both ends reach;
    - each step lies in the region of the arrow's kind: only f' and f''
      bound the target's a from above, by the source's b plus a constant,
      and the steps up only raise b while the steps across stop at a',
      where the composite's bound holds.

    Not every arrow is such a composite: on (r, n, m) = (2, 2, 0) the e'
    arrow X(0)[0,2] -> X(1)[-2,0] is none, because no listed arrow lowers
    a.  Its rows follow from the rows at the listed arrows only together
    with the sign law.  So completeness for an arbitrary element needs the
    sign law: the center's solver imposes it on every unknown, and its
    membership check checks it.  tests/membership_span.py shows that on
    every GRID row the rows at the listed arrows of a box and the sign law
    imply the rows at every arrow of the box.
    """
    families = ("X",) if r == n else FAMILIES

    def read(side, i):
        if side is None:
            return None
        offset = 0
        if "@" in side and i == (0 if side.endswith("@0") else r - 1):
            offset = m if side[1:3] == "+m" else -n
        return ("ab".index(side[0]), offset)

    sides = {
        (kind, i): tuple(read(side, i) for side in row)
        for kind, row in REGION_TABLE.items()
        for i in range(r)
    }
    rules = {
        (src, tgt, deg, i): (kind, (i + step) % r, sides[kind, i])
        for kind, (src, tgt, deg, step) in KIND_TABLE.items()
        for i in range(r)
    }
    sigma_steps = {}
    for family in FAMILIES:
        for i in range(r):
            da = db = 0
            for k in range(r + 1):
                j = (i + k) % r
                sigma_steps[family, i, k] = (j, da, db)
                # one step from index j
                dr = 1 if j == r - 1 else 0
                d0 = 1 if j == 0 else 0
                if family == "X":
                    da, db = da + 1 + dr * m, db + 1 + d0 * m
                elif family == "Y":
                    da, db = da + 1 - dr * n, db + 1 - d0 * n
                else:
                    da, db = da + 1 + dr * m, db + 1 - dr * n
    generators = {}
    into: dict = {(f, i): [] for f in families for i in range(r)}
    for f, i in into:
        out = [(f, i, 0, 1, 0, True), (f, i, 1, 0, 0, True)]
        if f == "X":
            out.append((f, (i + 1) % r, 0, 0, 2, False))
            if r < n:
                out.append(("Z", i, 0, 0, 1, True))
        elif f == "Y":
            out.append(("Z", i, 0, -n if i == 0 else 0, 1, True))
        generators[f, i] = tuple(out)
        for g, j, da, db, _, along in out:
            into[g, j].append((f, i, da, db, along))
    return {"families": families, "sides": sides, "rules": rules, "sigma_steps": sigma_steps,
            "generators": generators, "generators_into": {key: tuple(arrows) for key, arrows in into.items()}}


@dataclass(frozen=True)
class ModelParams:
    omega: OmegaParams
    window: int = 10
    families: tuple = field(init=False, repr=False, compare=False)
    sides: dict = field(init=False, repr=False, compare=False)
    rules: dict = field(init=False, repr=False, compare=False)
    sigma_steps: dict = field(init=False, repr=False, compare=False)
    generators: dict = field(init=False, repr=False, compare=False)
    generators_into: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        # Set here rather than cached on first use: writing to the
        # instance __dict__ later slows every attribute read of it.
        for name, table in _tables(self.omega.r, self.omega.n, self.omega.m).items():
            object.__setattr__(self, name, table)

    @property
    def r(self) -> int:
        return self.omega.r

    @property
    def n(self) -> int:
        return self.omega.n

    @property
    def m(self) -> int:
        return self.omega.m


@dataclass(frozen=True, order=True)
class Vertex:
    family: str
    i: int
    a: int
    b: int

    @property
    def coord(self) -> tuple[int, int]:
        return (self.a, self.b)

    def __repr__(self):
        return f"{self.family}({self.i})[{self.a},{self.b}]"


@dataclass(frozen=True, order=True)
class ArrowGen:
    kind: str
    source: Vertex
    target: Vertex
    degree: int

    def __repr__(self):
        return f"{self.kind}:{self.source!r}->{self.target!r}"


def least_gap(params: ModelParams, family: str, i: int) -> int | None:
    """The least gap b - a of a vertex (family, i, a, b), or None for Z,
    where every gap is one.  Vertex existence depends on b - a alone and
    is upward closed in it, so this one number is the whole of it; a
    family these parameters lack has no vertices and no least gap."""
    if not 0 <= i < params.r or family not in params.families:
        raise ValueError(f"no vertices {family}({i}) for these parameters")
    if family == "X":
        return -params.m if i == 0 else 0
    if family == "Y":
        return params.n if i == 0 else 0
    return None


def vertex_exists(params: ModelParams, family: str, i: int, coord: tuple[int, int]) -> bool:
    if not 0 <= i < params.r:
        raise ValueError(f"index {i} out of range [0, {params.r - 1}]")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family not in params.families:
        return False
    lo = least_gap(params, family, i)
    a, b = coord
    return lo is None or b - a >= lo


def make_vertex(params: ModelParams, family: str, i: int, a: int, b: int) -> Vertex:
    if not vertex_exists(params, family, i, (a, b)):
        raise ValueError(f"no vertex {family}({i})[{a},{b}] for these parameters")
    return Vertex(family, i, a, b)


def region(params: ModelParams, kind: str, v: Vertex):
    """Target rectangle (lo1, hi1, lo2, hi2) of the arrows of this kind
    out of v; None marks an unbounded side.  The source vertex itself is
    excluded separately for the degree-0 kinds."""
    src = (v.a, v.b)
    return tuple(None if s is None else src[s[0]] + s[1] for s in params.sides[kind, v.i])


def _region_inv(params: ModelParams, kind: str, w: Vertex):
    """Source rectangle (lo_a, hi_a, lo_b, hi_b) of the arrows of this
    kind into w, read off the same sides: a lower bound s + c <= u on the
    target is the upper bound s <= u - c on the source, and an upper
    bound on the target is a lower bound on the source."""
    step = KIND_TABLE[kind][3]
    tgt = (w.a, w.b)
    out = [None, None, None, None]
    for k, s in enumerate(params.sides[kind, (w.i - step) % params.r]):
        if s is not None:
            coord, offset = s
            out[2 * coord + 1 - k % 2] = tgt[k // 2] - offset
    return tuple(out)


def arrow_kind(rules: dict, f: str, i: int, a: int, b: int,
               g: str, j: int, u1: int, u2: int, degree: int) -> str | None:
    """The kind of the generator arrow (f, i, a, b) -> (g, j, u1, u2) of
    the given degree, or None; rules is a ModelParams' rules table."""
    rule = rules.get((f, g, degree, i))
    if rule is None:
        return None
    kind, tj, (lo1, hi1, lo2, hi2) = rule
    # a degree-0 kind keeps family and index, so equal coordinates mean
    # the source itself, which has no degree-0 arrow to itself
    if j != tj or (degree == 0 and a == u1 and b == u2):
        return None
    src = (a, b)
    if (
        (lo1 is not None and u1 < src[lo1[0]] + lo1[1])
        or (hi1 is not None and u1 > src[hi1[0]] + hi1[1])
        or (lo2 is not None and u2 < src[lo2[0]] + lo2[1])
        or (hi2 is not None and u2 > src[hi2[0]] + hi2[1])
    ):
        return None
    return kind


def arrow_of_degree(params: ModelParams, v: Vertex, w: Vertex, degree: int) -> ArrowGen | None:
    """The unique generator arrow v -> w of the given degree, or None."""
    kind = arrow_kind(params.rules, v.family, v.i, v.a, v.b, w.family, w.i, w.a, w.b, degree)
    return None if kind is None else ArrowGen(kind, v, w, degree)


def hom_gaps(params: ModelParams, family: str, i: int, degree: int,
             shift: tuple[int, int, int]) -> tuple[int | None, int | None] | None:
    """The gaps t = b - a at which (family, i, a, b) has a generator arrow
    of the given degree to its translate (family, j, a + da, b + db),
    shift = (j, da, db): (lo, hi) with None for an unbounded end, or None
    if there is no such gap.  arrow_kind for every (a, b) at once."""
    j, da, db = shift
    return arrow_gaps(params.rules, family, i, family, j, da, db, True, degree)


def arrow_gaps(rules: dict, f: str, i: int, g: str, j: int, c1: int, c2: int,
               along: bool, degree: int) -> tuple[int | None, int | None] | None:
    """The gaps t at which arrow_kind(rules, f, i, 0, t, g, j, c1, c2 + t,
    degree) is not None, or with c2 in place of c2 + t where along is
    False: (lo, hi) with None for an unbounded end, or None if there is no
    such t.  The rows are unchanged under (a, b) -> (a + 1, b + 1), so
    this is the arrow from (f, i, a, a + t) to (g, j, a + c1, a + c2 + t)
    at every a.  In degree 0 with along False the arrow is missing at
    the one gap where the target is the source itself, which an interval
    cannot leave out, so that case raises ValueError; no generating arrow
    (_tables) asks for it."""
    if degree == 0 and not along:
        raise ValueError("arrow_gaps answers degree 0 only along the diagonal")
    rule = rules.get((f, g, degree, i))
    # a degree-0 kind keeps family and index: (c1, c2) = (0, 0) is the
    # source itself at every t
    if rule is None or rule[1] != j or (degree == 0 and c1 == c2 == 0):
        return None
    lo = hi = None
    for k, side in enumerate(rule[2]):
        if side is None:
            continue
        coord, offset = side
        # side k bounds target coordinate k // 2, which minus source
        # coordinate `coord` is slope * t + (c1, c2)[k // 2]; even k is a
        # lower bound, odd k an upper one
        slope = (k // 2 if along else 0) - coord
        bound = offset - (c1, c2)[k // 2]
        lower = k % 2 == 0
        if slope == 0:
            if (bound > 0) if lower else (bound < 0):
                return None
            continue
        if slope < 0:
            bound, lower = -bound, not lower
        if lower:
            lo = bound if lo is None else max(lo, bound)
        else:
            hi = bound if hi is None else min(hi, bound)
    if lo is not None and hi is not None and lo > hi:
        return None
    return (lo, hi)


@dataclass(frozen=True)
class Morphism:
    """A linear combination of parallel basis elements.

    Keys of `terms` are ArrowGen values or None (the identity, only when
    source == target); values are integer coefficients, reduced modulo
    the field characteristic wherever a specific field is in play.
    """

    source: Vertex
    target: Vertex
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        # a term built with these endpoints holds the same objects, so
        # identity is tested before equality
        source, target = self.source, self.target
        for t in self.terms:
            if t is None:
                if source is not target and source != target:
                    raise ValueError("identity term on a non-endomorphism")
            elif (t.source is not source and t.source != source) or (
                t.target is not target and t.target != target
            ):
                raise ValueError("term endpoints do not match morphism endpoints")

    @staticmethod
    def identity(v: Vertex) -> "Morphism":
        return Morphism(v, v, {None: 1})

    @staticmethod
    def zero(source: Vertex, target: Vertex) -> "Morphism":
        return Morphism(source, target, {})

    @staticmethod
    def of_gen(g: ArrowGen, coeff: int = 1) -> "Morphism":
        return Morphism(g.source, g.target, {g: coeff} if coeff else {})

    def is_zero(self, char: int | None = None) -> bool:
        if char is None:
            return not any(self.terms.values())
        return all(c % char == 0 for c in self.terms.values())

    def scaled(self, c: int) -> "Morphism":
        if c == 0:
            return Morphism.zero(self.source, self.target)
        return Morphism(self.source, self.target, {t: c * k for t, k in self.terms.items()})

    def plus(self, other: "Morphism") -> "Morphism":
        if (self.source, self.target) != (other.source, other.target):
            raise ValueError("cannot add morphisms with different endpoints")
        terms = dict(self.terms)
        for t, c in other.terms.items():
            c2 = terms.get(t, 0) + c
            if c2:
                terms[t] = c2
            else:
                terms.pop(t, None)
        return Morphism(self.source, self.target, terms)


def compose(params: ModelParams, g: Morphism, f: Morphism) -> Morphism:
    """Composite g after f; bilinear over the generator rule."""
    if f.target != g.source:
        raise ValueError("composability violation: target(f) != source(g)")
    terms: dict = {}
    for t1, c1 in f.terms.items():
        for t2, c2 in g.terms.items():
            c = c1 * c2
            if t1 is None:
                t = t2
            elif t2 is None:
                t = t1
            else:
                t = arrow_of_degree(params, t1.source, t2.target, t1.degree + t2.degree)
                if t is None:
                    continue
            c0 = terms.get(t, 0) + c
            if c0:
                terms[t] = c0
            else:
                terms.pop(t, None)
    return Morphism(f.source, g.target, terms)


def sigma(params: ModelParams, v: Vertex) -> Vertex:
    return sigma_pow(params, v, 1)


def sigma_shift(params: ModelParams, family: str, i: int, p: int) -> tuple[int, int, int]:
    """Sigma^p from index i of a family as a translation (j, da, db), for
    any integer p in O(1): floor(p / r) cycles, then Sigma^(p mod r)."""
    r = params.omega.r
    q, k = divmod(p, r)
    steps = params.sigma_steps
    j, da, db = steps[family, i, k]
    if q:
        _, c1, c2 = steps[family, 0, r]
        da, db = da + q * c1, db + q * c2
    return (j, da, db)


def sigma_pow(params: ModelParams, v: Vertex, p: int) -> Vertex:
    """Sigma^p v for any integer p in O(1)."""
    j, da, db = sigma_shift(params, v.family, v.i, p)
    return Vertex(v.family, j, v.a + da, v.b + db)


def sigma_mor_pow(params: ModelParams, f: Morphism, p: int) -> Morphism:
    """Sigma^p f for any integer p.  Every term shares f's endpoints, so
    each keeps its kind and degree and moves with them."""
    s, t = sigma_pow(params, f.source, p), sigma_pow(params, f.target, p)
    terms = {g if g is None else ArrowGen(g.kind, s, t, g.degree): c for g, c in f.terms.items()}
    return Morphism(s, t, terms)


def tau(params: ModelParams, v: Vertex) -> Vertex:
    return Vertex(v.family, v.i, v.a - 1, v.b - 1)


def tau_sigma_periodic(params: ModelParams) -> tuple[bool, list[tuple[str, int]]]:
    """The families on which tau = Sigma^p, each with its p, solved.

    tau keeps the index and moves (a, b) by (-1, -1).  Sigma^p keeps every
    index only where r divides p, and there it is p / r cycles of the one
    translation (c1, c2) of Sigma^r, the same from every index.  So p
    exists exactly where c1 = c2 = +-1, and it is -r c1.
    """
    r = params.r
    witnesses: list[tuple[str, int]] = []
    for family in params.families:
        _, c1, c2 = sigma_shift(params, family, 0, r)
        if c1 == c2 and c1 in (1, -1):
            witnesses.append((family, -r * c1))
    return (bool(witnesses), witnesses)


def enumerate_vertices(params: ModelParams) -> list[Vertex]:
    """The vertices inside [-W, W]^2, W the window, by family, index, a
    and then b: each row of a starts at its least gap (_rows)."""
    W = params.window
    return [
        Vertex(family, i, a, b)
        for family in params.families
        for i in range(params.r)
        for a, bs in _rows(params, family, i, (None, None, None, None), W)
        for b in bs
    ]


def _clip(lo, hi, W: int) -> range:
    lo = -W if lo is None else max(lo, -W)
    hi = W if hi is None else min(hi, W)
    return range(lo, hi + 1)


def _rows(params: ModelParams, family: str, j: int, rect: tuple, W: int) -> list:
    """The cells of rect inside [-W, W]^2 where (family, j) has a vertex,
    as rows (u1, range of u2): each row starts at its least gap instead of
    testing vertex_exists per cell."""
    lo1, hi1, lo2, hi2 = rect
    lo = least_gap(params, family, j)
    lo2 = -W if lo2 is None else max(lo2, -W)
    hi2 = W if hi2 is None else min(hi2, W)
    return [
        (u1, range(lo2 if lo is None else max(lo2, u1 + lo), hi2 + 1))
        for u1 in _clip(lo1, hi1, W)
    ]


def arrow_keys_from(params: ModelParams, family: str, i: int, a: int, b: int, box: int):
    """The generator arrows out of (family, i, a, b) with target inside
    [-box, box]^2, as (kind, (g, j, u1, u2), degree): in KIND_TABLE order,
    then u1 ascending, then u2 ascending."""
    families = params.families
    v = Vertex(family, i, a, b)
    for kind, (src, tgt, degree, step) in KIND_TABLE.items():
        if src != family or tgt not in families:
            continue
        j = (i + step) % params.r
        for u1, u2s in _rows(params, tgt, j, region(params, kind, v), box):
            for u2 in u2s:
                # a degree-0 kind keeps family and index: skip the source
                if degree == 0 and u1 == a and u2 == b:
                    continue
                yield kind, (tgt, j, u1, u2), degree


def arrow_keys_to(params: ModelParams, family: str, i: int, a: int, b: int, box: int):
    """The generator arrows into (family, i, a, b) with source inside
    [-box, box]^2, as (kind, (f, j, a', b'), degree) with (f, j, a', b')
    the source: in KIND_TABLE order, then a' ascending, then b'
    ascending."""
    families = params.families
    w = Vertex(family, i, a, b)
    for kind, (src, tgt, degree, step) in KIND_TABLE.items():
        if tgt != family or src not in families:
            continue
        j = (i - step) % params.r
        for u1, u2s in _rows(params, src, j, _region_inv(params, kind, w), box):
            for u2 in u2s:
                if degree == 0 and u1 == a and u2 == b:
                    continue
                yield kind, (src, j, u1, u2), degree


def arrows_from(params: ModelParams, v: Vertex, box: int | None = None) -> list[ArrowGen]:
    """All generator arrows out of v with target inside [-box, box]^2
    (default: the params window), in arrow_keys_from's order."""
    W = params.window if box is None else box
    return [
        ArrowGen(kind, v, Vertex(*w), degree)
        for kind, w, degree in arrow_keys_from(params, v.family, v.i, v.a, v.b, W)
    ]


def arrows_to(params: ModelParams, w: Vertex, box: int | None = None) -> list[ArrowGen]:
    """All generator arrows into w with source inside [-box, box]^2
    (default: the params window), in arrow_keys_to's order."""
    W = params.window if box is None else box
    return [
        ArrowGen(kind, Vertex(*v), w, degree)
        for kind, v, degree in arrow_keys_to(params, w.family, w.i, w.a, w.b, W)
    ]


def enumerate_arrows(params: ModelParams) -> list[ArrowGen]:
    out = []
    for v in enumerate_vertices(params):
        out.extend(arrows_from(params, v))
    out.sort(key=lambda g: (g.source, g.target, g.degree))
    return out


def _dot_node_id(v: Vertex) -> str:
    return f"{v.family}_{v.i}_{v.a}_{v.b}".replace("-", "m")


def window_dot(params: ModelParams) -> str:
    """Dot rendering of the window-truncated arrow graph, one cluster per
    (family, index)."""
    lines = ["digraph model {", "  rankdir=LR;", "  node [shape=box];"]
    vertices = enumerate_vertices(params)
    groups: dict[tuple[str, int], list[Vertex]] = {}
    for v in vertices:
        groups.setdefault((v.family, v.i), []).append(v)
    for (family, i), vs in sorted(groups.items()):
        lines.append(f"  subgraph cluster_{family}_{i} {{")
        lines.append(f'    label="{family}({i})";')
        for v in vs:
            lines.append(f'    {_dot_node_id(v)} [label="{v.family}({v.i}) ({v.a},{v.b})"];')
        lines.append("  }")
    for g in enumerate_arrows(params):
        lines.append(
            f'  {_dot_node_id(g.source)} -> {_dot_node_id(g.target)}'
            f' [label="{g.kind} {g.degree}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
