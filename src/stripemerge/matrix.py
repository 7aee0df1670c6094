"""Dense linear algebra over GF(q).

MatQ stores entries row-major as integer encodings next to the owning
FieldCtx; everything is exact.  Elimination pivots on the first nonzero
entry (there is no pivot magnitude in a finite field), which makes rref,
kernels and solutions deterministic — duals and conversion plans derived
from them are reproducible byte for byte.

Matrices here stay small (at most a few thousand entries), so plain
Gaussian elimination on Python lists is enough.  Every row update goes
through FieldCtx.sub_scaled: the pivot row's logs are taken once per
pivot (FieldCtx.row_logs), and each entry then costs one exp lookup and
one add_table lookup.  A row that is already 0 in the pivot column is
skipped.  Products read the field's add_table and mul_table rows.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .field import FieldCtx, FieldElem
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
        """Reduced row-echelon form; returns (R, rank, pivot columns)."""
        f = self.field
        m = [list(row) for row in self.data]
        pivots: list[int] = []
        prow = 0
        for col in range(self.cols):
            sel = next((r for r in range(prow, self.rows) if m[r][col] != 0), None)
            if sel is None:
                continue
            m[prow], m[sel] = m[sel], m[prow]
            inv = f.inv_enc(m[prow][col])
            if inv != 1:
                times_inv = f.mul_table[inv]
                m[prow] = [times_inv[e] for e in m[prow]]
            src_logs = f.row_logs(m[prow], col)
            for r in range(self.rows):
                if r != prow and m[r][col]:
                    f.sub_scaled(m[r], m[r][col], src_logs)
            pivots.append(col)
            prow += 1
            if prow == self.rows:
                break
        return MatQ(f, m), len(pivots), tuple(pivots)

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


def rank_of_rows(field: FieldCtx, rows: Sequence[Sequence[int]]) -> int:
    """Rank of a list of encoding rows; in-place elimination on a copy."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        for sel in range(rank, nrows):
            if m[sel][col]:
                break
        else:
            continue  # no pivot in this column
        m[rank], m[sel] = m[sel], m[rank]
        if rank + 1 == nrows:
            return rank + 1  # no row below the last pivot left to eliminate
        # the pivot row is not normalised: each row below subtracts
        # (its entry / the pivot) times it
        times_inv = field.mul_table[field.inv_enc(m[rank][col])]
        src_logs = field.row_logs(m[rank], col)
        for r in range(rank + 1, nrows):
            if m[r][col]:
                field.sub_scaled(m[r], times_inv[m[r][col]], src_logs)
        rank += 1
    return rank


def vandermonde(
    field: FieldCtx,
    k: int,
    locators: Sequence[FieldElem],
    multipliers: Optional[Sequence[FieldElem]] = None,
) -> MatQ:
    """Rows i in [0,k) of v_j * alpha_j^i over pairwise distinct locators."""
    if k < 1:
        raise ValueError("vandermonde needs at least one row")
    encs = [a.enc for a in locators]
    if len(set(encs)) != len(encs):
        raise ValueError("repeated locator")
    if multipliers is None:
        mults = [1] * len(encs)
    else:
        if len(multipliers) != len(encs):
            raise ValueError("multiplier length mismatch")
        mults = [v.enc for v in multipliers]
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
