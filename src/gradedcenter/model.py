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

# (source family, target family, degree) -> (kind, index step); the kind
# of an arrow is determined by its endpoint families and degree.
KIND_BY_SIGNATURE = {
    (src, tgt, deg): (kind, step) for kind, (src, tgt, deg, step) in KIND_TABLE.items()
}

# kind -> target rectangle (lo1, hi1, lo2, hi2) of the arrows of this kind
# out of a vertex (a, b) with index i.  A side is None when unbounded, else
# a source coordinate plus a correction made at one index only: "b+m@0" is
# b + m at i = 0 and b elsewhere, "a-n@r-1" is a - n at i = r - 1 and a
# elsewhere.  Arrows out of a vertex and arrows into it are both read from
# here (region, _region_inv, arrow_of_degree).
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
def _region_tables(r: int, n: int, m: int) -> tuple[dict, dict]:
    """REGION_TABLE read for one (r, n, m), shared by every ModelParams
    with these parameters and never mutated:

    sides: (kind, source index) -> the kind's row with each side None or
    (source coordinate, 0 for a and 1 for b; offset);
    rules: (source family, target family, degree, source index) ->
    (kind, target index, sides), what arrow_of_degree tests.
    """

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
    return sides, rules


@dataclass(frozen=True, order=True)
class ModelParams:
    omega: OmegaParams
    window: int = 10
    sides: dict = field(init=False, repr=False, compare=False)
    rules: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        # Set here rather than cached on first use: writing to the
        # instance __dict__ later slows every attribute read of it.
        sides, rules = _region_tables(self.omega.r, self.omega.n, self.omega.m)
        object.__setattr__(self, "sides", sides)
        object.__setattr__(self, "rules", rules)

    @property
    def r(self) -> int:
        return self.omega.r

    @property
    def n(self) -> int:
        return self.omega.n

    @property
    def m(self) -> int:
        return self.omega.m

    @property
    def families(self) -> tuple[str, ...]:
        return ("X",) if self.omega.r == self.omega.n else FAMILIES


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


def vertex_exists(params: ModelParams, family: str, i: int, coord: tuple[int, int]) -> bool:
    r, n, m = params.r, params.n, params.m
    if not 0 <= i < r:
        raise ValueError(f"index {i} out of range [0, {r - 1}]")
    a, b = coord
    if family == "X":
        return a <= b + (m if i == 0 else 0)
    if family == "Y":
        return r < n and a + (n if i == 0 else 0) <= b
    if family == "Z":
        return r < n
    raise ValueError(f"unknown family {family!r}")


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


def arrow_of_degree(params: ModelParams, v: Vertex, w: Vertex, degree: int) -> ArrowGen | None:
    """The unique generator arrow v -> w of the given degree, or None."""
    rule = params.rules.get((v.family, w.family, degree, v.i))
    if rule is None:
        return None
    kind, j, (lo1, hi1, lo2, hi2) = rule
    if w.i != j or (degree == 0 and v == w):
        return None
    src = (v.a, v.b)
    u1, u2 = w.a, w.b
    if (
        (lo1 is not None and u1 < src[lo1[0]] + lo1[1])
        or (hi1 is not None and u1 > src[hi1[0]] + hi1[1])
        or (lo2 is not None and u2 < src[lo2[0]] + lo2[1])
        or (hi2 is not None and u2 > src[hi2[0]] + hi2[1])
    ):
        return None
    return ArrowGen(kind, v, w, degree)


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
        for t, c in self.terms.items():
            if t is None:
                if self.source != self.target:
                    raise ValueError("identity term on a non-endomorphism")
            elif t.source != self.source or t.target != self.target:
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

    def reduced(self, char: int) -> "Morphism":
        terms = {t: c % char for t, c in self.terms.items() if c % char}
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


def _sigma_vector(params: ModelParams, family: str, i: int) -> tuple[int, int]:
    n, m, r = params.n, params.m, params.r
    dr = 1 if i == r - 1 else 0
    d0 = 1 if i == 0 else 0
    if family == "X":
        return (1 + dr * m, 1 + d0 * m)
    if family == "Y":
        return (1 - dr * n, 1 - d0 * n)
    if family == "Z":
        return (1 + dr * m, 1 - dr * n)
    raise ValueError(f"unknown family {family!r}")


def sigma(params: ModelParams, v: Vertex) -> Vertex:
    s1, s2 = _sigma_vector(params, v.family, v.i)
    return Vertex(v.family, (v.i + 1) % params.r, v.a + s1, v.b + s2)


def sigma_cycle(params: ModelParams, family: str) -> tuple[int, int]:
    """The translation Sigma^r of a family's (a, b) plane: the sum of its
    r single-step vectors, whatever the starting index."""
    c1 = c2 = 0
    for i in range(params.r):
        s1, s2 = _sigma_vector(params, family, i)
        c1, c2 = c1 + s1, c2 + s2
    return (c1, c2)


def sigma_pow(params: ModelParams, v: Vertex, p: int) -> Vertex:
    """Sigma^p v for any integer p in O(r): floor(p / r) cycle translations,
    then at most r - 1 single steps."""
    q, k = divmod(p, params.r)
    if q:
        c1, c2 = sigma_cycle(params, v.family)
        v = Vertex(v.family, v.i, v.a + q * c1, v.b + q * c2)
    for _ in range(k):
        v = sigma(params, v)
    return v


def sigma_mor_pow(params: ModelParams, f: Morphism, p: int) -> Morphism:
    """Sigma^p f for any integer p.  Every term shares f's endpoints, so
    each keeps its kind and degree and moves with them."""
    s, t = sigma_pow(params, f.source, p), sigma_pow(params, f.target, p)
    terms = {g if g is None else ArrowGen(g.kind, s, t, g.degree): c for g, c in f.terms.items()}
    return Morphism(s, t, terms)


def tau(params: ModelParams, v: Vertex) -> Vertex:
    return Vertex(v.family, v.i, v.a - 1, v.b - 1)


def _family_representative(params: ModelParams, family: str, i: int) -> Vertex:
    if family == "Y":
        return Vertex("Y", i, 0, params.n)
    return Vertex(family, i, 0, 0)


def tau_sigma_periodic(params: ModelParams) -> tuple[bool, list[tuple[str, int]]]:
    """Search tau v = Sigma^p v per family over |p| <= 2(n+m)+2.

    The equation is translation-invariant and, for p a multiple of r,
    index-independent, so checking one representative per index is exact.
    """
    bound = 2 * (params.n + params.m) + 2
    witnesses: list[tuple[str, int]] = []
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


def enumerate_vertices(params: ModelParams) -> list[Vertex]:
    W = params.window
    out = []
    for family in params.families:
        for i in range(params.r):
            for a in range(-W, W + 1):
                for b in range(-W, W + 1):
                    if vertex_exists(params, family, i, (a, b)):
                        out.append(Vertex(family, i, a, b))
    return out


def _clip(lo, hi, W: int) -> range:
    lo = -W if lo is None else max(lo, -W)
    hi = W if hi is None else min(hi, W)
    return range(lo, hi + 1)


def arrows_from(params: ModelParams, v: Vertex, box: int | None = None) -> list[ArrowGen]:
    """All generator arrows out of v with target inside [-box, box]^2
    (default: the params window)."""
    W = params.window if box is None else box
    out = []
    for kind, (src, tgt_family, degree, step) in KIND_TABLE.items():
        if src != v.family or tgt_family not in params.families:
            continue
        j = (v.i + step) % params.r
        lo1, hi1, lo2, hi2 = region(params, kind, v)
        for u1 in _clip(lo1, hi1, W):
            for u2 in _clip(lo2, hi2, W):
                if degree == 0 and (u1, u2) == (v.a, v.b):
                    continue
                if vertex_exists(params, tgt_family, j, (u1, u2)):
                    out.append(ArrowGen(kind, v, Vertex(tgt_family, j, u1, u2), degree))
    return out


def arrows_to(params: ModelParams, w: Vertex, box: int | None = None) -> list[ArrowGen]:
    """All generator arrows into w with source inside [-box, box]^2
    (default: the params window)."""
    W = params.window if box is None else box
    out = []
    for kind, (src_family, tgt_family, degree, step) in KIND_TABLE.items():
        if tgt_family != w.family or src_family not in params.families:
            continue
        j = (w.i - step) % params.r
        lo_a, hi_a, lo_b, hi_b = _region_inv(params, kind, w)
        for a in _clip(lo_a, hi_a, W):
            for b in _clip(lo_b, hi_b, W):
                if degree == 0 and (a, b) == (w.a, w.b):
                    continue
                if vertex_exists(params, src_family, j, (a, b)):
                    out.append(ArrowGen(kind, Vertex(src_family, j, a, b), w, degree))
    return out


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
