"""The signed union-find that gradedcenter.center's _SignedForest
replaces, kept as its differential oracle: the class it replaced,
unchanged, _hang included.  It carries a sign on every unknown at every
degree, settles a range only when its roots and signs both agree, and
merges the rest of a range position by position; the new forest skips the
signs at even degrees, where every row has weight +1, and visits only the
positions whose roots differ.  tests/line_build.py builds on it, so the
plan build is checked against a build on this forest field for field."""


class _SignedForest:
    """A signed union-find on the unknowns 0..count-1, kept flat: every
    unknown x always holds its root, root[x], and its sign relative to
    it, sign[x], so that x = sign[x] * root[x].  The members of each
    component form a ring through next, and size is read at roots.
    joined marks the unknowns of components with two or more members.
    The marks zero, set by the caller where a row forces an unknown to
    zero, and parity, set where a row forces x = -x, sit on any member of
    a component and are read at its root."""

    __slots__ = ("root", "sign", "next", "size", "joined", "zero", "parity")

    def __init__(self, count: int):
        self.root = list(range(count))
        self.sign = [1] * count
        # the same int objects as root, so the ring costs one pointer each
        self.next = self.root[:]
        self.size = [1] * count
        self.joined = bytearray(count)
        self.zero = bytearray(count)
        self.parity = bytearray(count)

    def unite(self, x0: int, y0: int, length: int, s: int) -> int:
        """Impose x = s * y along the aligned ranges from x0 and y0, and
        return the number of merges.

        A range whose roots are already equal pair by pair is settled by
        comparing slices, signs included.  Where the two sides do not meet
        and one of them is all single unknowns, that side hangs on the
        other side's roots by slice assignment (_hang).  Any other pair
        relabels the smaller of its two components (union by size) by
        walking its ring."""
        root, sign = self.root, self.sign
        x1, y1 = x0 + length, y0 + length
        xroots, yroots = root[x0:x1], root[y0:y1]
        if xroots == yroots:
            ys = sign[y0:y1]
            if sign[x0:x1] == (ys if s == 1 else list(map(int.__neg__, ys))):
                return 0
        elif x1 <= y0 or y1 <= x0:
            if self.joined.find(1, y0, y1) < 0:
                return self._hang(y0, x0, length, s, yroots, xroots)
            if self.joined.find(1, x0, x1) < 0:
                return self._hang(x0, y0, length, s, xroots, yroots)
        nxt, size, joined, parity = self.next, self.size, self.joined, self.parity
        merged = 0
        for x, y in zip(range(x0, x1), range(y0, y1)):
            rx, ry = root[x], root[y]
            # ry = w * rx, from x = sign[x] rx and y = sign[y] ry
            w = sign[x] * s * sign[y]
            if rx == ry:
                if w != 1:
                    parity[rx] = 1
                continue
            if size[rx] < size[ry]:
                rx, ry = ry, rx
            size[rx] += size[ry]
            z = ry
            while True:
                root[z] = rx
                if w != 1:
                    sign[z] = -sign[z]
                z = nxt[z]
                if z == ry:
                    break
            nxt[rx], nxt[ry] = nxt[ry], nxt[rx]
            joined[x] = joined[y] = 1
            merged += 1
        return merged

    def _hang(self, y0: int, x0: int, length: int, s: int, ys: list, xroots: list) -> int:
        """Impose y = s * x along ranges that do not meet, where each y is
        its own root, as listed in ys, and xroots lists the roots of the x:
        every y joins its x's component, next to x in its ring, and each
        is one merge."""
        root, sign, nxt, size, joined = self.root, self.sign, self.next, self.size, self.joined
        y1, x1 = y0 + length, x0 + length
        root[y0:y1] = xroots
        xs = sign[x0:x1]
        sign[y0:y1] = xs if s == 1 else list(map(int.__neg__, xs))
        nxt[y0:y1] = nxt[x0:x1]
        nxt[x0:x1] = ys
        joined[x0:x1] = joined[y0:y1] = b"\1" * length
        if xroots.count(xroots[0]) == length:
            size[xroots[0]] += length
        else:
            for x in xroots:
                size[x] += 1
        return length
