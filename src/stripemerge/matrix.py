"""Dense linear algebra over GF(q).

MatQ stores entries row-major as integer encodings next to the owning
FieldCtx; everything is exact.  Every elimination is one routine,
echelon: each row in turn is reduced against the pivots before it and,
if still nonzero, pivots on its first nonzero entry (there is no pivot
magnitude in a finite field).  rank_of_rows counts its pivots; rref
sorts them by column and back-substitutes, and kernel, solve and
invert read rref, so duals and conversion plans derived from them are
reproducible byte for byte; the GRS certificate in codes.py takes K,
its dual and each step's kept combinations from it.

Matrices here stay small (at most a few thousand entries), so plain
Gaussian elimination on Python lists is enough.  Every row update goes
through FieldCtx.sub_scaled: a pivot row's logs are taken once
(FieldCtx.row_logs), and each entry then costs one exp lookup and one
add_table lookup.  A row that is already 0 in the pivot column is
skipped.  Products read the field's add_table and mul_table rows.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .field import FieldCtx
from .schema import as_ints, as_list


class MatQ:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: FieldCtx, data: Sequence[Sequence[int]]):
        self.field = field
        self.data = [list(row) for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        q = field.q
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")
            for e in row:
                # an exact int: neither a float nor a bool is coerced
                if type(e) is not int or not 0 <= e < q:
                    what = "out of range for" if type(e) is int else "is not an encoding in"
                    raise ValueError(f"entry {e!r} {what} GF({q})")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MatQ)
            and self.field == other.field
            and self.data == other.data
        )

    def transpose(self) -> MatQ:
        return MatQ(self.field, [[self.data[i][j] for i in range(self.rows)]
                                 for j in range(self.cols)])

    def __matmul__(self, other: MatQ) -> MatQ:
        if self.field != other.field:
            raise ValueError("matrix product across different fields")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        f = self.field
        add, mul = f.add_table, f.mul_table
        out = []
        for arow in self.data:
            orow = [0] * other.cols
            for a, brow in zip(arow, other.data):
                if a:
                    times_a = mul[a]
                    orow = [add[o][times_a[b]] for o, b in zip(orow, brow)]
            out.append(orow)
        return MatQ(f, out)

    def submatrix_cols(self, cols: Sequence[int]) -> MatQ:
        return MatQ(self.field, [[row[j] for j in cols] for row in self.data])

    def is_zero(self) -> bool:
        return all(e == 0 for row in self.data for e in row)

    # -- elimination ---------------------------------------------------------

    def rref(self) -> tuple[MatQ, int, tuple[int, ...]]:
        """Reduced row-echelon form; returns (R, rank, pivot columns).

        echelon's pivot rows, sorted by column, are a row-echelon form,
        since each is 0 before its pivot; each pivot column is then
        subtracted out of the rows above it and each row scaled to 1 at
        its pivot.  The zero rows go last."""
        f = self.field
        mul = f.mul_table
        pivots, zero = echelon(f, [list(row) for row in self.data])
        pivots.sort()  # by column: no two pivots share one
        rows: list[list[int]] = []
        for c, inv, row, logs in pivots:
            # row is 0 left of c, so the rows above stay 0 at their own pivots
            for above in rows:
                if above[c]:
                    f.sub_scaled(above, mul[inv][above[c]], logs)
            times_inv = mul[inv]
            rows.append(row if inv == 1 else [times_inv[e] for e in row])
        rows += [[0] * self.cols for _ in zero]
        return MatQ(f, rows), len(pivots), tuple(c for c, _, _, _ in pivots)

    def rank(self) -> int:
        return rank_of_rows(self.field, self.data)

    def kernel(self) -> list[list[int]]:
        """Deterministic basis of the right null space {x : A x = 0}."""
        R, rank, pivots = self.rref()
        free = [j for j in range(self.cols) if j not in set(pivots)]
        f = self.field
        basis = []
        for fc in free:
            vec = [0] * self.cols
            vec[fc] = 1
            for i, pc in enumerate(pivots):
                vec[pc] = f.neg_enc(R.data[i][fc])
            basis.append(vec)
        return basis

    def solve(self, b: Sequence[int]) -> Optional[list[int]]:
        """One solution of A x = b (encodings), or None when inconsistent."""
        if len(b) != self.rows:
            raise ValueError("right-hand side length mismatch")
        aug = MatQ(self.field, [row + [int(b[i])] for i, row in enumerate(self.data)])
        R, rank, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = [0] * self.cols
        for i, pc in enumerate(pivots):
            x[pc] = R.data[i][self.cols]
        return x

    def invert(self) -> MatQ:
        if self.rows != self.cols:
            raise ValueError("only square matrices invert")
        n = self.rows
        aug = MatQ(self.field, [self.data[i] + [1 if j == i else 0 for j in range(n)]
                                for i in range(n)])
        R, rank, pivots = aug.rref()
        if rank < n or any(p >= n for p in pivots):
            raise ValueError("singular matrix")
        return MatQ(self.field, [row[n:] for row in R.data])

    # -- serialization -------------------------------------------------------

    def to_obj(self) -> list[list[int]]:
        return [list(row) for row in self.data]

    @classmethod
    def from_obj(cls, field: FieldCtx, obj: list[list[int]]) -> MatQ:
        return cls(field, [as_ints(row, "matrix rows") for row in as_list(obj, "matrix")])

    def __repr__(self) -> str:
        return f"MatQ({self.rows}x{self.cols} over GF({self.field.q}))"


def echelon(
    field: FieldCtx, rows: Sequence[list[int]], width: Optional[int] = None
) -> tuple[list[tuple[int, int, list[int], list[tuple[int, int]]]], list[list[int]]]:
    """(pivots, rest): one pass of elimination, each row reduced in
    place against the pivots before it.

    A row still nonzero on its first width entries (all of them by
    default) becomes a pivot (c, inv, row, logs): c is its first nonzero
    entry, inv = 1 / row[c] and logs = field.row_logs(row, c).  Each
    pivot row is 0 at every earlier pivot's column, so subtracting
    e * inv times each pivot row in turn, e the vector's entry at the
    pivot's column, leaves the vector 0 at every pivot: its residue
    modulo the pivot rows.  At the default width these span the rows
    and their columns are the span's leading columns, whatever the order
    of the rows, so neither does that residue depend on the order.  A
    row 0 on its first width entries adds the rest of it to rest, which
    then spans the rest of every combination of the rows that vanishes
    there.
    """
    mul, sub_scaled = field.mul_table, field.sub_scaled
    pivots = []
    rest = []
    for row in rows:
        for c, inv, _, logs in pivots:
            if row[c]:
                sub_scaled(row, mul[inv][row[c]], logs)
        end = len(row) if width is None else width
        for c in range(end):
            if row[c]:
                pivots.append((c, field.inv_enc(row[c]), row, field.row_logs(row, c)))
                break
        else:
            rest.append(row[end:])
    return pivots, rest


def rank_of_rows(field: FieldCtx, rows: Sequence[Sequence[int]]) -> int:
    """Rank of a list of encoding rows: the number of echelon's pivots on
    a copy.  A single row, the subset walk's leaf, has rank 1 unless it
    is 0, and takes no pivot."""
    if len(rows) == 1:
        return int(any(rows[0]))
    return len(echelon(field, [list(r) for r in rows])[0])


def vandermonde(
    field: FieldCtx,
    k: int,
    locators: Sequence[int],
    multipliers: Optional[Sequence[int]] = None,
) -> MatQ:
    """Rows i in [0,k) of v_j * alpha_j^i over pairwise distinct locator
    encodings alpha_j, with multiplier encodings v_j (all 1 by default)."""
    if k < 1:
        raise ValueError("vandermonde needs at least one row")
    encs = [field.scalar(a) for a in locators]
    if len(set(encs)) != len(encs):
        raise ValueError("repeated locator")
    if multipliers is None:
        mults = [1] * len(encs)
    else:
        if len(multipliers) != len(encs):
            raise ValueError("multiplier length mismatch")
        mults = [field.scalar(v) for v in multipliers]
        if any(v == 0 for v in mults):
            raise ValueError("zero column multiplier")
    data = []
    powers = list(mults)
    # column j's power step is one product table row, times alpha_j
    times = [field.mul_table[a] for a in encs]
    for _ in range(k):
        data.append(list(powers))
        powers = [row[p] for row, p in zip(times, powers)]
    return MatQ(field, data)
