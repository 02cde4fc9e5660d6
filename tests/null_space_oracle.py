"""Null spaces of sparse matrices over F_p: the independent linear-algebra
oracle that the union-find solver in gradedcenter.center is checked
against.

The null-space routine follows a fixed pivot order (ascending column
index) so its output is reproducible across runs.
"""

from __future__ import annotations

from gradedcenter.gf import FieldScalar, _is_prime


class SparseMatrix:
    """A rows x cols matrix over F_p holding only its nonzero entries."""

    def __init__(self, rows: int, cols: int, p: int, entries=None):
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.rows = rows
        self.cols = cols
        self.p = p
        self._data: dict[tuple[int, int], int] = {}
        if entries is not None:
            for r, c, v in entries:
                self.set(r, c, v)

    def set(self, r: int, c: int, v) -> None:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry ({r}, {c}) outside {self.rows}x{self.cols}")
        if isinstance(v, FieldScalar):
            if v.p != self.p:
                raise ValueError(f"modulus mismatch: {v.p} != {self.p}")
            v = v.value
        v %= self.p
        if v == 0:
            self._data.pop((r, c), None)
        else:
            self._data[(r, c)] = v

    def get(self, r: int, c: int) -> FieldScalar:
        return FieldScalar(self._data.get((r, c), 0), self.p)

    def entries(self) -> list[tuple[int, int, FieldScalar]]:
        return [(r, c, FieldScalar(v, self.p)) for (r, c), v in sorted(self._data.items())]

    def row_dicts(self) -> list[dict[int, int]]:
        out: list[dict[int, int]] = [dict() for _ in range(self.rows)]
        for (r, c), v in self._data.items():
            out[r][c] = v
        return out


def _reduce_rows(rows: list[dict[int, int]], p: int) -> dict[int, dict[int, int]]:
    """Bring rows to reduced echelon form; returns {pivot column: row}.

    Rows are consumed in their given order and each new pivot is the
    smallest column of the reduced row, so the result does not depend on
    dict iteration order.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = dict(row)
        # Clear every pivot column present in the row, not only a leading
        # one: a row may lead at a fresh column yet still overlap pivots
        # further right, and those entries must go before it is stored.
        while row:
            hit = min((c for c in row if c in pivots), default=None)
            if hit is None:
                break
            piv = pivots[hit]
            factor = row[hit]
            for c, v in piv.items():
                nv = (row.get(c, 0) - factor * v) % p
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
        if not row:
            continue
        lead = min(row)
        scale = pow(row[lead], p - 2, p)
        row = {c: (v * scale) % p for c, v in row.items()}
        # Back-substitute into the pivots found so far to keep the form reduced.
        for lc, lrow in pivots.items():
            if lead in lrow:
                factor = lrow[lead]
                for c, v in row.items():
                    nv = (lrow.get(c, 0) - factor * v) % p
                    if nv:
                        lrow[c] = nv
                    else:
                        lrow.pop(c, None)
        pivots[lead] = row
    return pivots


def null_space(M: SparseMatrix) -> list[list[FieldScalar]]:
    """Basis of {v : Mv = 0}, one vector per free column.

    Pivot columns are chosen in ascending order; the k-th basis vector has
    a 1 in the k-th free column and zeros in the other free columns, so the
    stacked basis is itself in reduced echelon form.
    """
    p = M.p
    pivots = _reduce_rows(M.row_dicts(), p)
    free_cols = [c for c in range(M.cols) if c not in pivots]
    basis: list[list[FieldScalar]] = []
    for f in free_cols:
        vec = [0] * M.cols
        vec[f] = 1
        for c, row in pivots.items():
            vec[c] = (-row.get(f, 0)) % p
        basis.append([FieldScalar(v, p) for v in vec])
    return basis
